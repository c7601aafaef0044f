//! End-to-end benchmark of vizsched: real frames through the live TCP
//! stack, plus the simulator under saturation.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path e2ebench/Cargo.toml -- \
//!     --workload live_interactive --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Human-readable figures go to stdout first; the last stdout line is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. Scratch data and span files go to `.bench_out/` under the
//! working directory. See `e2ebench/README.md`.

mod live;
mod probe;
mod report;
mod sim;
mod stats;

use report::Report;
use std::path::Path;
use std::process::ExitCode;

const WORKLOADS: [&str; 2] = ["live_interactive", "sim_saturated"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("e2ebench: {msg}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(".bench_out");
    if let Err(e) = std::fs::create_dir_all(out_dir) {
        eprintln!("e2ebench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let mut report = Report::default();
    let ran = match args.workload.as_str() {
        "live_interactive" => live::run(args.seed, args.seconds, args.trace, out_dir, &mut report),
        _ => sim::run(args.seed, args.seconds, args.trace, out_dir, &mut report),
    };
    if let Err(e) = ran {
        eprintln!("e2ebench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    println!("  correct: {}", report.correct);
    println!("{}", report.json(args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload live_interactive --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "live_interactive");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload live_mixed --seed 1").is_err());
        assert!(args("--workload sim_saturated --trace 2").is_err());
        assert!(args("--workload sim_saturated --seconds 0").is_err());
        assert!(args("--seed 1").is_err());
    }
}
