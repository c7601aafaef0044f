//! The benchmark's own arithmetic: the Definition-3 latency rule that
//! counts a failed frame as +∞, the span-chain gap check, and the seeded
//! generator behind every input. Percentiles are the repository's own
//! nearest-rank `vizsched_metrics::stats::percentile`.

/// How many of `n` samples lie beyond the nearest-rank `q` quantile (`q`
/// in `[0, 1]`, as `percentile` takes it) — the count the p99 rests on
/// (it should be at least ten).
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How one request ended, as its client saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// A frame arrived. `correct` is false when it failed a check (wrong
    /// size, wrong job, or pixels off the reference by more than 1 LSB).
    Frame {
        /// Whether the frame passed every check applied to it.
        correct: bool,
    },
    /// The service answered `Overloaded` or `Expired`.
    Shed,
    /// No answer before the drain deadline, or the connection dropped.
    Lost,
}

impl Outcome {
    /// True for anything but a correct frame.
    pub fn failed(self) -> bool {
        !matches!(self, Outcome::Frame { correct: true })
    }
}

/// Definition 3 as a client of an open loop sees it: latency runs from the
/// frame's *due* send time (not the moment the generator got round to
/// sending it) to the reply's receipt. A shed, lost or wrong frame never
/// delivered a usable image, so its latency is `+∞` and it misses every
/// latency limit.
pub fn frame_latency_ms(due_ms: f64, receipt_ms: Option<f64>, outcome: Outcome) -> f64 {
    match (outcome, receipt_ms) {
        (Outcome::Frame { correct: true }, Some(receipt)) => receipt - due_ms,
        _ => f64::INFINITY,
    }
}

/// The stage boundaries of one job, in chain order. A job's client
/// latency is covered by the spans between consecutive boundaries.
pub const BOUNDARIES: [&str; 9] = [
    "due",
    "submit",
    "offered",
    "first_assign",
    "task_start",
    "io_end",
    "task_end",
    "job_done",
    "receipt",
];

/// The spans between consecutive [`BOUNDARIES`], named by the layer that
/// owns the interval.
pub const CHAIN: [&str; 8] = [
    "generator",
    "ingress",
    "cycle_wait",
    "node_queue",
    "io",
    "render",
    "report",
    "reply",
];

/// Why a job's stamps do not form a gap-free chain.
#[derive(Clone, Debug, PartialEq)]
pub enum ChainError {
    /// A boundary was never stamped.
    Missing(&'static str),
    /// A span runs backwards by more than the tolerance: two layers'
    /// stamps disagree about the order of events.
    Backwards(&'static str, f64),
}

/// Turn one job's boundary stamps (ms on one clock) into its chain of
/// spans. Every boundary must be present and the stamps must not run
/// backwards by more than `tolerance_ms` (the probe stamps an assignment
/// just after dispatching it, so a node may start "before" it).
/// Consecutive spans share their boundary, so the spans sum exactly to
/// `receipt - due`: the chain has no gaps by construction once it passes.
pub fn chain_spans(stamps: &[Option<f64>; 9], tolerance_ms: f64) -> Result<[f64; 8], ChainError> {
    let mut at = [0.0; 9];
    for (i, stamp) in stamps.iter().enumerate() {
        at[i] = stamp.ok_or(ChainError::Missing(BOUNDARIES[i]))?;
    }
    let mut spans = [0.0; 8];
    for i in 0..8 {
        spans[i] = at[i + 1] - at[i];
        if spans[i] < -tolerance_ms {
            return Err(ChainError::Backwards(CHAIN[i], spans[i]));
        }
    }
    Ok(spans)
}

/// splitmix64: the seeded source of every generated input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, with `stream` separating independent uses.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vizsched_metrics::stats::percentile;
    use vizsched_metrics::Summary;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Small samples: p99 of 3 values is the largest.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.99), 3.0);
        assert_eq!(percentile(&[7.0], 0.50), 7.0);
        // No samples read as zero: a layer that does no work.
        assert_eq!(percentile(&[], 0.50), 0.0);
        // Summary sorts its input and takes the same percentiles.
        let mut rev = v.clone();
        rev.reverse();
        let s = Summary::of(&rev);
        assert_eq!((s.p50, s.p99, s.max), (50.0, 99.0, 100.0));
        assert_eq!(Summary::of(&[]).p50, 0.0);
    }

    #[test]
    fn samples_beyond_p99_needs_a_thousand() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(1320, 0.99), 13);
        assert!(samples_beyond(800, 0.99) < 10);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn failed_frames_count_as_infinity() {
        let ok = Outcome::Frame { correct: true };
        let wrong = Outcome::Frame { correct: false };
        assert_eq!(frame_latency_ms(10.0, Some(42.5), ok), 32.5);
        assert_eq!(frame_latency_ms(10.0, Some(42.5), wrong), f64::INFINITY);
        assert_eq!(
            frame_latency_ms(10.0, Some(42.5), Outcome::Shed),
            f64::INFINITY
        );
        assert_eq!(frame_latency_ms(10.0, None, Outcome::Lost), f64::INFINITY);
        assert!(wrong.failed() && Outcome::Shed.failed() && Outcome::Lost.failed());
        assert!(!ok.failed());
        // Two failures in 100 frames push p99 to +∞ but leave p50 finite.
        let mut lat: Vec<f64> = (0..98).map(|i| 30.0 + i as f64 * 0.1).collect();
        lat.push(frame_latency_ms(0.0, None, Outcome::Lost));
        lat.push(frame_latency_ms(0.0, Some(1.0), Outcome::Shed));
        lat.sort_by(f64::total_cmp);
        assert_eq!(percentile(&lat, 0.99), f64::INFINITY);
        assert!(percentile(&lat, 0.50).is_finite());
    }

    #[test]
    fn latency_runs_from_due_time_not_send_time() {
        // A generator that stalled 20 ms sends late; the stall is charged
        // to the frame (Definition 3 from the user's point of view).
        let due = 100.0;
        let sent_late = 120.0;
        let receipt = 150.0;
        let lat = frame_latency_ms(due, Some(receipt), Outcome::Frame { correct: true });
        assert_eq!(lat, 50.0);
        assert!(lat > receipt - sent_late);
    }

    #[test]
    fn chain_without_gaps_sums_to_latency() {
        let stamps = [0.0, 0.1, 0.4, 14.0, 19.0, 19.0, 27.0, 27.1, 28.0].map(Some);
        let spans = chain_spans(&stamps, 0.5).unwrap();
        let total: f64 = spans.iter().sum();
        assert!((total - 28.0).abs() < 1e-9);
        assert_eq!(spans[2], 13.6); // cycle wait
        assert_eq!(spans[4], 0.0); // cache hit: no io
    }

    #[test]
    fn chain_reports_missing_and_backwards_stamps() {
        let mut stamps = [0.0, 0.1, 0.4, 14.0, 19.0, 19.0, 27.0, 27.1, 28.0].map(Some);
        stamps[3] = None;
        assert_eq!(
            chain_spans(&stamps, 0.5),
            Err(ChainError::Missing("first_assign"))
        );
        let mut stamps = [0.0, 0.1, 0.4, 14.0, 19.0, 19.0, 27.0, 27.1, 28.0].map(Some);
        stamps[4] = Some(13.9); // task "started" 0.1 ms before its assign: tolerated
        assert!(chain_spans(&stamps, 0.5).is_ok());
        stamps[4] = Some(12.0);
        assert!(matches!(
            chain_spans(&stamps, 0.5),
            Err(ChainError::Backwards("node_queue", _))
        ));
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(7, 1);
        let mut s = Rng::new(8, 1);
        assert_ne!(r.next_u64(), s.next_u64());
        for _ in 0..1000 {
            let x = r.range(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
            assert!(r.below(5) < 5);
        }
    }
}
