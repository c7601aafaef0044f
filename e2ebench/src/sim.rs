//! The `sim_saturated` workload: the discrete-event simulator under OURS
//! on a sweep scenario whose backlogs grow. No render, TCP or I/O work
//! runs, so all wall time falls on the scheduler, the runtime and the
//! simulator engine.

use crate::probe::{Clock, SpanProbe, SpanWriter};
use crate::report::{peak_rss_mib, reset_peak_rss, Report};
use crate::stats::samples_beyond;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use vizsched_bench::experiments::simulation_for;
use vizsched_core::job::Job;
use vizsched_core::sched::SchedulerKind;
use vizsched_core::time::SimDuration;
use vizsched_metrics::stats::percentile;
use vizsched_metrics::Summary;
use vizsched_sim::{RunOptions, SimOutcome, Simulation};
use vizsched_workload::Scenario;

const NODES: usize = 32;
const QUOTA: u64 = 8 << 30;
const DATASETS: u32 = 16;
const DATASET_BYTES: u64 = 4 << 30;
const SLOTS: u32 = 64;
const ARRIVAL_SECS: u64 = 15;
const BATCH_SUBMISSIONS: u32 = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Repetitions a phase runs at least, whatever its length.
const MIN_REPS: usize = 3;

/// FNV-1a over everything the run decided in virtual time: per-job
/// finish times, cache counters and the makespan.
fn fingerprint(outcome: &SimOutcome) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    let r = &outcome.record;
    for job in &r.jobs {
        eat(job.id.0);
        eat(job.timing.finish.map_or(u64::MAX, |t| t.as_micros()));
        eat(u64::from(job.misses));
    }
    eat(r.cache_hits);
    eat(r.cache_misses);
    eat(r.evictions);
    eat(r.makespan.as_micros());
    eat(outcome.incomplete_jobs as u64);
    h
}

/// One repetition's wall time and checks.
struct Rep {
    wall_s: f64,
    completed: u64,
    failed: u64,
    fingerprint: u64,
    sched_share: f64,
    sched_us_per_job: f64,
}

fn rep(outcome: &SimOutcome, offered: u64, wall_s: f64) -> Rep {
    let completed = outcome
        .record
        .jobs
        .iter()
        .filter(|j| j.is_complete())
        .count() as u64;
    let shed = outcome.overload.shed();
    // Every offered job either completes or is shed; nothing is left over.
    let mut failed = outcome.incomplete_jobs as u64 + shed;
    if completed + shed != offered {
        failed += offered.saturating_sub(completed + shed).max(1);
    }
    let r = &outcome.record;
    Rep {
        wall_s,
        completed,
        failed,
        fingerprint: fingerprint(outcome),
        sched_share: r.sched_wall_micros as f64 / (wall_s * 1e6),
        sched_us_per_job: r.sched_wall_micros as f64 / r.jobs_scheduled.max(1) as f64,
    }
}

/// The scenario, ready to run.
struct Case {
    sim: Simulation,
    jobs: Vec<Job>,
}

impl Case {
    /// Generate the scenario and build its simulation.
    fn new(seed: u64) -> Case {
        let scenario = Scenario::sweep(
            "sim_saturated",
            NODES,
            QUOTA,
            DATASETS,
            DATASET_BYTES,
            SLOTS,
            SimDuration::from_secs(ARRIVAL_SECS),
            BATCH_SUBMISSIONS,
            seed,
        );
        Case {
            sim: simulation_for(&scenario),
            jobs: scenario.jobs(),
        }
    }

    /// Repeat `run_opts` for `phase_s` seconds, at least `MIN_REPS` times.
    /// `each` sees every outcome and its wall time; `before` runs ahead of
    /// each repetition, outside its clock.
    fn repeat(
        &self,
        seed: u64,
        phase_s: f64,
        probe: Option<&Arc<SpanProbe>>,
        mut before: impl FnMut(),
        mut each: impl FnMut(SimOutcome, f64),
    ) {
        let start = Instant::now();
        let mut reps = 0;
        while reps < MIN_REPS || start.elapsed().as_secs_f64() < phase_s {
            let mut options = RunOptions::new(SchedulerKind::Ours)
                .label("sim_saturated")
                .seed(seed);
            if let Some(probe) = probe {
                options = options.probe(probe.clone());
            }
            let input = self.jobs.clone();
            before();
            let t = Instant::now();
            let outcome = self.sim.run_opts(input, options);
            let wall_s = t.elapsed().as_secs_f64();
            each(outcome, wall_s);
            reps += 1;
        }
    }
}

/// Run `sim_saturated` and fill `report`.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
    report: &mut Report,
) -> std::io::Result<()> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        built = Some(Case::new(seed));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let case = built.expect("at least one set-up");
    let offered = case.jobs.len() as u64;

    // Untraced phase: repeat the run for the measured time (half of it in
    // a traced run, whose other half carries the probe).
    let phase_s = if trace { seconds / 2.0 } else { seconds };
    let mut reps: Vec<Rep> = Vec::new();
    let mut rss = Vec::new();
    let mut first: Option<SimOutcome> = None;
    case.repeat(seed, phase_s, None, reset_peak_rss, |outcome, wall_s| {
        rss.push(peak_rss_mib());
        reps.push(rep(&outcome, offered, wall_s));
        first.get_or_insert(outcome);
    });
    let first = first.expect("at least one repetition");

    // Traced phase: the same runs with the probe attached; the per-layer
    // figures come from its last repetition.
    let mut traced: Vec<Rep> = Vec::new();
    let mut log = None;
    if trace {
        let probe = Arc::new(SpanProbe::new(Instant::now()));
        let arm = || {
            probe.take();
            probe.arm(true);
        };
        case.repeat(seed, phase_s, Some(&probe), arm, |outcome, wall_s| {
            probe.arm(false);
            traced.push(rep(&outcome, offered, wall_s));
        });
        log = Some(probe.take());
    }

    // Correctness: every run accounts for every job, and every run decides
    // exactly what the first did in virtual time.
    let all = || reps.iter().chain(traced.iter());
    let base = reps[0].fingerprint;
    let mismatched = all().filter(|r| r.fingerprint != base).count() as u64;
    report.attempted = offered * all().count() as u64;
    report.failed = all().map(|r| r.failed).sum::<u64>() + mismatched * offered;
    report.correct = report.failed == 0;

    let walls: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let wall_s = Summary::of(&walls).p50;
    let jobs_per_s = Summary::of(
        &reps
            .iter()
            .map(|r| r.completed as f64 / r.wall_s)
            .collect::<Vec<_>>(),
    )
    .p50;
    let mut latencies: Vec<f64> = first
        .record
        .jobs
        .iter()
        .filter(|j| j.kind.is_interactive())
        .filter_map(|j| {
            j.timing
                .finish
                .map(|f| f.saturating_since(j.timing.issue).as_millis_f64())
        })
        .collect();
    latencies.sort_by(f64::total_cmp);
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let rss_p50 = Summary::of(&rss).p50;
    report.set("interactive_p50_ms", p50);
    report.set("interactive_p99_ms", p99);
    report.set("frames_per_s", jobs_per_s);
    report.set("setup_s", Summary::of(&setup_s).p50);
    report.set("process.peak_rss_mib", rss_p50);

    println!("workload sim_saturated seed {seed}: {seconds} s measured");
    println!(
        "  {offered} simulated jobs per run, {} untraced runs: median wall {wall_s:.4} s, {jobs_per_s:.1} jobs/s",
        walls.len()
    );
    println!(
        "  simulated interactive latency (virtual time): p50 {p50:.3} ms, p99 {p99:.3} ms over {} frames ({} beyond p99)",
        latencies.len(),
        samples_beyond(latencies.len(), 0.99)
    );
    println!(
        "  setup_s per set-up: {}",
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "  peak RSS per run (median {rss_p50:.2} MiB): {}",
        rss.iter()
            .map(|m| format!("{m:.2}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "  error_rate {}/{} = {:.6} (incomplete/shed/unaccounted jobs plus {mismatched} runs whose virtual-time outputs differ from the first)",
        report.failed,
        report.attempted,
        report.failed as f64 / report.attempted.max(1) as f64
    );

    if let Some(log) = log {
        let untraced_ms = wall_s * 1e3;
        let traced_ms = Summary::of(&traced.iter().map(|r| r.wall_s).collect::<Vec<_>>()).p50 * 1e3;
        report.set("trace.untraced_p50_ms", untraced_ms);
        report.set("trace.traced_p50_ms", traced_ms);
        report.set("trace.overhead_ms", traced_ms - untraced_ms);
        report.set("trace.chain_gaps", 0.0);

        let r = &first.record;
        let exec_ms: f64 = log.tasks.iter().map(|t| t.exec_ms).sum();
        let makespan_ms = r.makespan.as_micros() as f64 / 1e3;
        let per_rep = |f: fn(&Rep) -> f64| Summary::of(&reps.iter().map(f).collect::<Vec<_>>()).p50;

        log.report_shared(Clock::Own, report);
        report.set("sched.us_per_job", per_rep(|r| r.sched_us_per_job));
        report.set("sim.wall_per_job_us", wall_s * 1e6 / offered as f64);
        report.set("sim.sched_share", per_rep(|r| r.sched_share));
        report.set(
            "node.busy_share",
            exec_ms / (NODES as f64 * makespan_ms.max(1e-9)),
        );
        report.set("cache.hit_ratio", r.hit_rate());
        report.set("cache.evictions", r.evictions as f64);
        // Layers the simulator does not run: no sockets, no head thread,
        // no chunk store, no ray casting, no compositing, no generator.
        for name in [
            "tcp.ingress_ms.p50",
            "tcp.ingress_ms.p99",
            "tcp.codec_encode_us",
            "tcp.codec_decode_us",
            "head.reply_ms.p50",
            "head.reply_ms.p99",
            "storage.load_ms.p50",
            "storage.load_ms.p99",
            "storage.loads",
            "storage.direct_load_ms",
            "render.task_ms.p50",
            "render.task_ms.p99",
            "render.brick_ms.p50",
            "compositing.frame_ms.p50",
            "generator_lag_ms.max",
        ] {
            report.set(name, 0.0);
        }

        let spans = out_dir.join(format!("spans-sim_saturated-seed{seed}.jsonl"));
        let mut out = SpanWriter::create(&spans)?;
        for c in &log.cycles {
            out.span("sched_cycle", c.start_ms, c.end_ms, None, None)?;
        }
        out.finish()?;
        println!(
            "  traced run median wall {traced_ms:.1} ms vs untraced {untraced_ms:.1} ms: tracing overhead {:.1} ms; spans in {}",
            traced_ms - untraced_ms,
            spans.display()
        );
    }
    Ok(())
}
