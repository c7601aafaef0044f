//! Metric names, units and the result line. `BENCHMARK.json` at the
//! repository root lists the same names; a unit test keeps the two in
//! step.

use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs), as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("interactive_p50_ms", "ms"),
    ("interactive_p99_ms", "ms"),
    ("frames_per_s", "frames/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced runs), as `(name, unit)`. A layer that does
/// no work in a workload reports zero.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("tcp.ingress_ms.p50", "ms"),
    ("tcp.ingress_ms.p99", "ms"),
    ("tcp.codec_encode_us", "us"),
    ("tcp.codec_decode_us", "us"),
    ("head.reply_ms.p50", "ms"),
    ("head.reply_ms.p99", "ms"),
    ("runtime.cycle_wait_ms.p50", "ms"),
    ("runtime.cycle_wait_ms.p99", "ms"),
    ("runtime.invocations", "count"),
    ("sched.cycle_us.p50", "us"),
    ("sched.cycle_us.p99", "us"),
    ("sched.us_per_job", "us"),
    ("sched.assignments_per_cycle", "count"),
    ("sim.wall_per_job_us", "us"),
    ("sim.sched_share", "ratio"),
    ("node.queue_wait_ms.p50", "ms"),
    ("node.queue_wait_ms.p99", "ms"),
    ("node.queue_depth.mean", "count"),
    ("node.queue_depth.max", "count"),
    ("node.busy_share", "ratio"),
    ("storage.load_ms.p50", "ms"),
    ("storage.load_ms.p99", "ms"),
    ("storage.loads", "count"),
    ("storage.direct_load_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("render.task_ms.p50", "ms"),
    ("render.task_ms.p99", "ms"),
    ("render.brick_ms.p50", "ms"),
    ("compositing.frame_ms.p50", "ms"),
    ("generator_lag_ms.max", "ms"),
    ("trace.untraced_p50_ms", "ms"),
    ("trace.traced_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.chain_gaps", "count"),
    ("process.peak_rss_mib", "MiB"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted (frames requested, or simulated jobs offered).
    pub attempted: u64,
    /// Operations that failed a check, were shed, or were lost.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Record one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line: every metric of the requested set, in list order.
    /// A missing value is a bug in the workload, not a zero.
    pub fn json(&self, trace: bool) -> String {
        let set: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let metrics: Vec<String> = set
            .iter()
            .map(|(name, unit)| {
                let value = self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("workload did not measure {name}"));
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps.
/// `+∞` (a p99 over failed frames) has no JSON spelling and is written as
/// the largest finite double.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else if v > 0.0 {
        format!("{:?}", f64::MAX)
    } else {
        "0.0".to_string()
    }
}

/// Restart the process's peak-resident-set count (Linux
/// `/proc/self/clear_refs`, value 5), so `VmHWM` covers what follows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `"name": "..."` value in a JSON text, in order.
    fn names_in(text: &str) -> Vec<String> {
        text.split("\"name\"")
            .skip(1)
            .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names = names_in(&text);
        let metrics = END_TO_END.len() + PER_LAYER.len();
        assert!(names.len() > metrics, "BENCHMARK.json names no workload");
        let (workloads, listed) = names.split_at(names.len() - metrics);
        for w in workloads {
            assert!(
                crate::WORKLOADS.contains(&w.as_str()),
                "unknown workload {w}"
            );
        }
        let want: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        assert_eq!(listed, want.as_slice());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn result_line_has_every_metric_of_its_set() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            r.set(name, 1.5);
        }
        r.set("interactive_p99_ms", f64::INFINITY);
        let line = r.json(false);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, "));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(line.contains(&format!("{:?}", f64::MAX)));
        assert!(!line.contains("tcp.ingress"));
        assert!(r.json(true).contains("\"tcp.ingress_ms.p50\""));
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
    }
}
