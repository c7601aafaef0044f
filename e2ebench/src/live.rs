//! The `live_interactive` workload: a real `VizService` with 4
//! render-node threads, fronted by a real `TcpServer` on loopback, driven
//! by one `RemoteClient` that carries both users over one socket.
//!
//! The load generator is this process's main thread plus the client's
//! reader thread. The users are an open loop: one frame every 30 ms each,
//! timed from the frame's due send time.

use crate::probe::{Clock, SpanLog, SpanProbe, SpanWriter, TaskStamp};
use crate::report::{peak_rss_mib, reset_peak_rss, Report};
use crate::stats::{
    chain_spans, frame_latency_ms, samples_beyond, ChainError, Outcome, Rng, CHAIN,
};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vizsched_compositing::{composite, CompositeAlgo};
use vizsched_core::ids::{ActionId, ChunkId, DatasetId, JobId, UserId};
use vizsched_core::job::FrameParams;
use vizsched_core::sched::SchedulerKind;
use vizsched_core::time::SimDuration;
use vizsched_metrics::stats::percentile;
use vizsched_metrics::Summary;
use vizsched_render::{render_brick, Camera, Layer, RenderSettings, TransferFunction};
use vizsched_service::{
    ChunkStore, Codec, RemoteClient, ServiceConfig, StoreDataset, TcpServer, VizService, WireFrame,
    WireMessage, WireResponse,
};
use vizsched_volume::brick::Brick;
use vizsched_volume::Field;

const NAME: &str = "live_interactive";
/// Users, each with a dataset of its own; the default cache quota keeps
/// both datasets resident after warm-up.
const USERS: u32 = 2;
const PERIOD_MS: f64 = 30.0;
const DIMS: [usize; 3] = [64, 64, 64];
const BRICKS: u32 = 4;
const IMAGE: usize = 64;
const NODES: usize = 4;
const DISTANCE: f32 = 3.0;
const TRANSFER_FN: u32 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Closed-loop warm-up rounds (one frame per user each) inside set-up.
const WARMUP_ROUNDS: usize = 3;
/// How long to wait for the last replies after a phase ends.
const DRAIN: Duration = Duration::from_secs(15);
/// About one request in this many is checked against the reference.
const SAMPLE_EVERY: u64 = 48;
/// Slack for stamps taken on different threads (see `chain_spans`). The
/// head stamps an assignment after handing the task to its node; when
/// the head thread is preempted in between, the node can start first. On
/// a machine with fewer cores than render threads that window is a
/// scheduler time slice, a few milliseconds.
const CHAIN_TOLERANCE_MS: f64 = 5.0;
/// Length of one measured window: at least 1,000 interactive frames, so
/// each window's p99 rests on at least ten samples beyond it.
const WINDOW_S: f64 = 15.0;
/// How often the generator wakes to send and collect.
const POLL: Duration = Duration::from_micros(100);

/// One interactive user's camera orbit.
struct UserPlan {
    dataset: u32,
    az0: f32,
    az_step: f32,
    elevation: f32,
    offset_ms: f64,
}

/// Everything the seed decides.
struct Inputs {
    fields: Vec<Field>,
    users: Vec<UserPlan>,
    sample_salt: u64,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        // The seed moves the cameras. Fields, transfer function and camera
        // distance stay fixed: they set the ray-casting cost per brick (3
        // to 11 ms across presets at 64x64), and a seed must not change
        // how loaded the cluster is. The users' sends stay staggered by
        // half a period for the same reason: in-phase users double the
        // work that lands in one cycle.
        let mut rng = Rng::new(seed, 1);
        let fields = (0..USERS as usize)
            .map(|d| Field::ALL[d % Field::ALL.len()])
            .collect();
        let plan = |dataset: u32, rng: &mut Rng| UserPlan {
            dataset,
            az0: rng.range(0.0, std::f64::consts::TAU) as f32,
            az_step: (rng.range(0.02, 0.06) * if rng.below(2) == 0 { 1.0 } else { -1.0 }) as f32,
            elevation: rng.range(-0.4, 0.4) as f32,
            offset_ms: dataset as f64 * PERIOD_MS / USERS as f64,
        };
        let users = (0..USERS).map(|u| plan(u, &mut rng)).collect();
        Inputs {
            fields,
            users,
            sample_salt: rng.next_u64(),
        }
    }

    fn frame(plan: &UserPlan, step: u64) -> FrameParams {
        FrameParams {
            azimuth: plan.az0 + plan.az_step * step as f32,
            elevation: plan.elevation,
            distance: DISTANCE,
            transfer_fn: TRANSFER_FN,
        }
    }
}

/// One request as its client saw it.
struct Req {
    dataset: u32,
    frame: FrameParams,
    due_ms: f64,
    submit_ms: f64,
    receipt_ms: Option<f64>,
    outcome: Option<Outcome>,
    job: Option<u64>,
    /// Kept only for requests sampled for the reference check.
    reply: Option<WireFrame>,
    sample: bool,
}

impl Req {
    fn outcome(&self) -> Outcome {
        self.outcome.unwrap_or(Outcome::Lost)
    }
}

/// The requests of one measured phase.
struct Phase {
    start_ms: f64,
    /// When the generator stopped sending (just past the planned end).
    end_ms: f64,
    reqs: std::ops::Range<usize>,
}

/// The load generator: one client, every user.
struct Driver<'a> {
    client: RemoteClient,
    origin: Instant,
    inputs: &'a Inputs,
    reqs: Vec<Req>,
    pending: Vec<(usize, crossbeam::channel::Receiver<WireResponse>)>,
    user_steps: Vec<u64>,
}

impl<'a> Driver<'a> {
    fn now_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }

    /// Send user `u`'s next frame.
    fn submit(&mut self, u: u32, due_ms: f64) {
        let plan = &self.inputs.users[u as usize];
        let step = self.user_steps[u as usize];
        self.user_steps[u as usize] += 1;
        let (dataset, frame) = (plan.dataset, Inputs::frame(plan, step));
        let index = self.reqs.len();
        let sample = Rng::new(self.inputs.sample_salt, index as u64).below(SAMPLE_EVERY) == 0;
        let submit_ms = self.now_ms();
        let sent = self.client.render_interactive_as(
            UserId(u),
            ActionId(u as u64),
            DatasetId(dataset),
            frame,
        );
        // A request the connection refused is never answered: its outcome
        // stays `Lost`.
        if let Ok(rx) = sent {
            self.pending.push((index, rx));
        }
        self.reqs.push(Req {
            dataset,
            frame,
            due_ms,
            submit_ms,
            receipt_ms: None,
            outcome: None,
            job: None,
            reply: None,
            sample,
        });
    }

    /// Collect every reply that has arrived.
    fn poll(&mut self) {
        let mut i = 0;
        while i < self.pending.len() {
            let answer = match self.pending[i].1.try_recv() {
                Ok(resp) => Some(Some(resp)),
                Err(crossbeam::channel::TryRecvError::Disconnected) => Some(None),
                Err(crossbeam::channel::TryRecvError::Empty) => None,
            };
            let Some(answer) = answer else {
                i += 1;
                continue;
            };
            let now = self.now_ms();
            let (idx, _) = self.pending.swap_remove(i);
            let req = &mut self.reqs[idx];
            req.receipt_ms = Some(now);
            req.outcome = Some(match answer {
                Some(WireResponse::Frame(frame)) => {
                    req.job = Some(frame.job.0);
                    let sized = frame.width as usize == IMAGE
                        && frame.height as usize == IMAGE
                        && frame.pixels.len() == IMAGE * IMAGE * 4;
                    if req.sample {
                        req.reply = Some(*frame);
                    }
                    Outcome::Frame { correct: sized }
                }
                Some(_) => Outcome::Shed,
                None => Outcome::Lost,
            });
        }
    }

    /// Wait (bounded) for every outstanding reply.
    fn drain(&mut self) {
        let deadline = Instant::now() + DRAIN;
        while !self.pending.is_empty() && Instant::now() < deadline {
            self.poll();
            std::thread::sleep(POLL);
        }
        // Whatever is still pending is lost: its outcome stays unset.
        self.pending.clear();
    }

    /// Closed-loop warm-up: each user renders a few frames.
    fn warm_up(&mut self) {
        for _ in 0..WARMUP_ROUNDS {
            for u in 0..USERS {
                let now = self.now_ms();
                self.submit(u, now);
            }
            self.drain();
        }
    }

    /// One measured phase: the open loop sends every frame due before the
    /// phase ends, then the phase drains.
    fn run_phase(&mut self, seconds: f64) -> Phase {
        let first = self.reqs.len();
        let start_ms = self.now_ms();
        let end_ms = start_ms + seconds * 1e3;
        let mut next_due: Vec<f64> = self
            .inputs
            .users
            .iter()
            .map(|p| start_ms + p.offset_ms)
            .collect();
        let stop_ms = loop {
            let now = self.now_ms();
            if now >= end_ms {
                break now;
            }
            for (u, due) in next_due.iter_mut().enumerate() {
                while *due <= now && *due < end_ms {
                    self.submit(u as u32, *due);
                    *due += PERIOD_MS;
                }
            }
            self.poll();
            std::thread::sleep(POLL);
        };
        self.drain();
        Phase {
            start_ms,
            end_ms: stop_ms,
            reqs: first..self.reqs.len(),
        }
    }
}

/// Removes the run's store directories however the run ends.
struct DataDir(PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Every chunk of the store, in dataset order.
fn chunks() -> impl Iterator<Item = ChunkId> {
    (0..USERS).flat_map(|d| (0..BRICKS).map(move |c| ChunkId::new(DatasetId(d), c)))
}

/// The reference bricks.
fn load_all(store: &ChunkStore) -> HashMap<ChunkId, Arc<Brick<f32>>> {
    chunks()
        .map(|chunk| (chunk, store.load(chunk).expect("store holds every brick").0))
        .collect()
}

fn settings() -> RenderSettings {
    RenderSettings {
        width: IMAGE,
        height: IMAGE,
        ..RenderSettings::default()
    }
}

fn layers_for(
    bricks: &HashMap<ChunkId, Arc<Brick<f32>>>,
    dataset: u32,
    frame: &FrameParams,
) -> Vec<Layer> {
    let camera = Camera::orbit(DIMS, frame.azimuth, frame.elevation, frame.distance);
    let tf = TransferFunction::preset(frame.transfer_fn);
    (0..BRICKS)
        .map(|c| {
            let brick = &bricks[&ChunkId::new(DatasetId(dataset), c)];
            render_brick(brick.as_ref(), &camera, &tf, &settings())
        })
        .collect()
}

/// The in-process reference for one frame: load → render → composite →
/// quantize, exactly as the service's pipeline does it.
fn reference(bricks: &HashMap<ChunkId, Arc<Brick<f32>>>, req: &Req) -> WireFrame {
    let image = composite(
        layers_for(bricks, req.dataset, &req.frame),
        CompositeAlgo::Auto,
    );
    WireFrame::from_image(0, JobId(0), SimDuration::ZERO, 0, &image)
}

/// Pixels match within 1 LSB per channel.
fn matches(got: &WireFrame, want: &WireFrame) -> bool {
    got.width == want.width
        && got.height == want.height
        && got.pixels.len() == want.pixels.len()
        && got
            .pixels
            .iter()
            .zip(want.pixels.iter())
            .all(|(a, b)| a.abs_diff(*b) <= 1)
}

/// Check the sampled frames of `reqs` against the reference; a mismatch
/// turns the frame into a failure. Returns (checked, mismatched).
fn check_samples(bricks: &HashMap<ChunkId, Arc<Brick<f32>>>, reqs: &mut [Req]) -> (u64, u64) {
    let (mut checked, mut wrong) = (0, 0);
    for req in reqs.iter_mut() {
        let Some(got) = req.reply.take() else {
            continue;
        };
        checked += 1;
        if !matches(&got, &reference(bricks, req)) {
            wrong += 1;
            req.outcome = Some(Outcome::Frame { correct: false });
        }
    }
    (checked, wrong)
}

/// Median per-call time of `f`, µs, over `batches` batches of `per` calls.
fn time_per_call_us(batches: usize, per: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t = Instant::now();
        for _ in 0..per {
            f();
        }
        samples.push(t.elapsed().as_secs_f64() * 1e6 / per as f64);
    }
    Summary::of(&samples).p50
}

/// Latency figures of one phase's frames.
struct PhaseFigures {
    /// Ascending; a failed frame is `+∞`.
    latencies: Vec<f64>,
    frames_per_s: f64,
    lag_max_ms: f64,
}

impl PhaseFigures {
    fn of(reqs: &[Req], phase: &Phase) -> PhaseFigures {
        let seconds = (phase.end_ms - phase.start_ms) / 1e3;
        let reqs = &reqs[phase.reqs.clone()];
        let mut latencies: Vec<f64> = reqs
            .iter()
            .map(|r| frame_latency_ms(r.due_ms, r.receipt_ms, r.outcome()))
            .collect();
        latencies.sort_by(f64::total_cmp);
        let delivered = reqs
            .iter()
            .filter(|r| !r.outcome().failed() && r.receipt_ms.is_some_and(|t| t <= phase.end_ms))
            .count();
        PhaseFigures {
            latencies,
            frames_per_s: delivered as f64 / seconds,
            lag_max_ms: reqs
                .iter()
                .map(|r| r.submit_ms - r.due_ms)
                .fold(0.0, f64::max),
        }
    }

    fn p50(&self) -> f64 {
        percentile(&self.latencies, 0.50)
    }

    fn p99(&self) -> f64 {
        percentile(&self.latencies, 0.99)
    }
}

/// Per-layer figures of the traced phase, from the probe's stamps joined
/// to the client's own through `WireFrame.job`. Returns the jobs whose
/// chain misses a stamp and those whose stamps run backwards.
fn layer_figures(
    reqs: &[Req],
    phase: &Phase,
    log: &SpanLog,
    report: &mut Report,
    spans_out: &Path,
) -> std::io::Result<(u64, u64)> {
    let first_assign = log.first_assign(Clock::Wall);
    // The critical (last-reported) task of each job.
    let mut critical: HashMap<u64, &TaskStamp> = HashMap::new();
    for t in &log.tasks {
        let e = critical.entry(t.job).or_insert(t);
        if t.wall_ms > e.wall_ms {
            *e = t;
        }
    }

    let (mut ingress, mut reply) = (Vec::new(), Vec::new());
    let (mut missing, mut backwards) = (0u64, 0u64);
    let mut out = SpanWriter::create(spans_out)?;

    for req in &reqs[phase.reqs.clone()] {
        let Some(job) = req.job else {
            continue;
        };
        let offered = log.offered.get(&job).map(|o| o.0);
        let done = log.job_done.get(&job).copied();
        if let Some(o) = offered {
            ingress.push(o - req.submit_ms);
        }
        if let (Some(d), Some(r)) = (done, req.receipt_ms) {
            reply.push(r - d);
        }
        let task = critical.get(&job);
        let start = task.map(|t| t.start_ms(Clock::Wall));
        let stamps = [
            Some(req.due_ms),
            Some(req.submit_ms),
            offered,
            first_assign.get(&job).copied(),
            start,
            task.map(|t| t.start_ms(Clock::Wall) + t.io_ms),
            task.map(|t| t.wall_ms),
            done,
            req.receipt_ms,
        ];
        match chain_spans(&stamps, CHAIN_TOLERANCE_MS) {
            Ok(spans) => {
                let root = out.span(
                    "interactive_frame",
                    req.due_ms,
                    req.receipt_ms.unwrap_or(req.due_ms),
                    None,
                    Some(job),
                )?;
                let mut at = req.due_ms;
                for (name, len) in CHAIN.iter().zip(spans) {
                    out.span(name, at, at + len, Some(root), Some(job))?;
                    at += len;
                }
            }
            Err(ChainError::Missing(_)) => missing += 1,
            Err(ChainError::Backwards(..)) => backwards += 1,
        }
    }
    for c in &log.cycles {
        out.span("sched_cycle", c.start_ms, c.end_ms, None, None)?;
    }
    out.finish()?;

    // Node-side figures over every task reported in the traced phase.
    let render: Vec<f64> = log.tasks.iter().map(|t| t.exec_ms - t.io_ms).collect();
    let loads: Vec<f64> = log
        .tasks
        .iter()
        .filter(|t| t.miss)
        .map(|t| t.io_ms)
        .collect();
    let exec_sum: f64 = log.tasks.iter().map(|t| t.exec_ms).sum();
    let sched_us: u64 = log.cycles.iter().map(|c| c.sched_us).sum();
    let wall_ms = phase.end_ms - phase.start_ms;

    log.report_shared(Clock::Wall, report);
    let (ingress, reply) = (Summary::of(&ingress), Summary::of(&reply));
    let (render, loads_ms) = (Summary::of(&render), Summary::of(&loads));
    report.set("tcp.ingress_ms.p50", ingress.p50);
    report.set("tcp.ingress_ms.p99", ingress.p99);
    report.set("head.reply_ms.p50", reply.p50);
    report.set("head.reply_ms.p99", reply.p99);
    report.set(
        "sched.us_per_job",
        sched_us as f64 / log.offered.len().max(1) as f64,
    );
    report.set("node.busy_share", exec_sum / (NODES as f64 * wall_ms));
    report.set("storage.load_ms.p50", loads_ms.p50);
    report.set("storage.load_ms.p99", loads_ms.p99);
    report.set("storage.loads", loads.len() as f64);
    report.set(
        "cache.hit_ratio",
        (log.tasks.len() - loads.len()) as f64 / log.tasks.len().max(1) as f64,
    );
    report.set("cache.evictions", log.evictions as f64);
    report.set("render.task_ms.p50", render.p50);
    report.set("render.task_ms.p99", render.p99);
    report.set("trace.chain_gaps", (missing + backwards) as f64);
    Ok((missing, backwards))
}

/// One set-up of the workload: the store, the service, its TCP front and
/// a warmed-up client.
struct Deployment<'a> {
    driver: Driver<'a>,
    server: TcpServer,
    service: VizService,
    store: Arc<ChunkStore>,
    bricks: HashMap<ChunkId, Arc<Brick<f32>>>,
    dir: PathBuf,
}

impl<'a> Deployment<'a> {
    /// Set up under `dir` and warm up. Also returns the set-up time, s:
    /// store materialization, service start, TCP bind, connect, warm-up.
    fn new(
        inputs: &'a Inputs,
        dir: PathBuf,
        origin: Instant,
        probe: Option<Arc<SpanProbe>>,
    ) -> std::io::Result<(Deployment<'a>, f64)> {
        let datasets: Vec<StoreDataset> = inputs
            .fields
            .iter()
            .map(|&field| StoreDataset {
                field,
                dims: DIMS,
                bricks: BRICKS as usize,
            })
            .collect();
        let t0 = Instant::now();
        let store = ChunkStore::create(&dir, &datasets)?;
        let mut took = t0.elapsed();
        // Reference bricks are the benchmark's own work, outside the
        // set-up clock.
        let bricks = load_all(&store);
        let t1 = Instant::now();
        let store = Arc::new(store);
        let mut config = ServiceConfig::default()
            .nodes(NODES)
            .scheduler(SchedulerKind::Ours)
            .cycle(SimDuration::from_millis(30))
            .image_size(IMAGE, IMAGE);
        if let Some(probe) = probe {
            config = config.probe(probe);
        }
        let service = VizService::start(config, store.clone());
        let server = TcpServer::start("127.0.0.1:0", service.request_sender())?;
        let client = RemoteClient::connect(server.addr(), UserId(USERS))?;
        let mut driver = Driver {
            client,
            origin,
            inputs,
            reqs: Vec::new(),
            pending: Vec::new(),
            user_steps: vec![0; USERS as usize],
        };
        driver.warm_up();
        took += t1.elapsed();
        let deployment = Deployment {
            driver,
            server,
            service,
            store,
            bricks,
            dir,
        };
        Ok((deployment, took.as_secs_f64()))
    }

    /// Close the client, stop the TCP front and the service, and remove
    /// the store.
    fn stop(self) {
        drop(self.driver);
        self.server.stop();
        self.service.shutdown();
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Run `live_interactive` and fill `report`.
pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: &Path,
    report: &mut Report,
) -> std::io::Result<()> {
    let inputs = Inputs::new(seed);
    let origin = Instant::now();
    let probe = Arc::new(SpanProbe::new(origin));
    let data = DataDir(out_dir.join(format!("data-{NAME}-{}", std::process::id())));

    let threads = 2; // the generator (this thread) and the client's reader
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "load generator: 1 process, {threads} threads, 1 connection, {USERS} users over it (nproc {nproc}){}",
        if threads > nproc { "  [FLAG: more generator threads than cores]" } else { "" }
    );

    // The measured deployment is the first set-up; the others run after
    // the measurement and only time set-up (their leftovers would weigh
    // on the measured memory figures).
    let (mut live, took) = Deployment::new(
        &inputs,
        data.0.join("setup-0"),
        origin,
        trace.then(|| probe.clone()),
    )?;
    let mut setup_s = vec![took];

    // Untraced time runs as windows of about WINDOW_S, each a phase of
    // its own (the loop drains in between), and every end-to-end figure
    // is the median over the windows: a stall of the host moves one
    // window, not the run. A traced run gives half its time to these
    // windows and half to the traced phase, on the same warmed-up service.
    let phase_s = if trace { seconds / 2.0 } else { seconds };
    let windows = ((phase_s / WINDOW_S).floor() as usize).max(1);
    let mut untraced = Vec::with_capacity(windows);
    let mut window_rss = Vec::with_capacity(windows);
    for _ in 0..windows {
        reset_peak_rss();
        untraced.push(live.driver.run_phase(phase_s / windows as f64));
        window_rss.push(peak_rss_mib());
    }
    let traced = if trace {
        probe.arm(true);
        let phase = live.driver.run_phase(phase_s);
        probe.arm(false);
        Some(phase)
    } else {
        None
    };
    let log = probe.take();

    // Correctness: sampled frames against the reference, then the
    // request/reply accounting over everything this service saw.
    let (checked, wrong) = check_samples(&live.bricks, &mut live.driver.reqs);
    let reqs = &live.driver.reqs;
    let count = |f: &dyn Fn(Outcome) -> bool| reqs.iter().filter(|r| f(r.outcome())).count() as u64;
    let lost = count(&|o| o == Outcome::Lost);
    let shed = count(&|o| o == Outcome::Shed);
    let bad = count(&|o| o == Outcome::Frame { correct: false });
    report.attempted = reqs.len() as u64;
    report.failed = count(&|o| o.failed());
    // Every request ends as a frame or a shed verdict (replies plus shed
    // equal requests exactly when nothing was lost), and no frame is wrong.
    let mut correct = lost == 0 && bad == 0;

    let figs: Vec<PhaseFigures> = untraced.iter().map(|w| PhaseFigures::of(reqs, w)).collect();
    let over_windows =
        |f: &dyn Fn(&PhaseFigures) -> f64| Summary::of(&figs.iter().map(f).collect::<Vec<_>>()).p50;
    let p50 = over_windows(&PhaseFigures::p50);
    let p99 = over_windows(&PhaseFigures::p99);
    let frames_per_s = over_windows(&|f| f.frames_per_s);
    let rss = Summary::of(&window_rss).p50;
    let mut lag_max_ms = figs.iter().map(|f| f.lag_max_ms).fold(0.0, f64::max);
    report.set("interactive_p50_ms", p50);
    report.set("interactive_p99_ms", p99);
    report.set("frames_per_s", frames_per_s);
    report.set("process.peak_rss_mib", rss);

    println!("workload {NAME} seed {seed}: {seconds} s measured");
    for (k, f) in figs.iter().enumerate() {
        let n = f.latencies.len();
        println!(
            "  window {k}: latency from due time p50 {:.3} ms, p99 {:.3} ms over {n} frames ({} beyond p99); {:.3} frames/s delivered; peak RSS {:.2} MiB",
            f.p50(),
            f.p99(),
            samples_beyond(n, 0.99),
            f.frames_per_s,
            window_rss[k]
        );
    }
    println!(
        "  median over {windows} windows: p50 {p50:.3} ms, p99 {p99:.3} ms, {frames_per_s:.3} frames/s (offered {:.3}), peak RSS {rss:.2} MiB",
        USERS as f64 * 1e3 / PERIOD_MS
    );

    if let Some(phase) = &traced {
        let traced_fig = PhaseFigures::of(reqs, phase);
        let traced_p50 = traced_fig.p50();
        report.set("trace.untraced_p50_ms", p50);
        report.set("trace.traced_p50_ms", traced_p50);
        report.set("trace.overhead_ms", traced_p50 - p50);
        lag_max_ms = lag_max_ms.max(traced_fig.lag_max_ms);
        let spans = out_dir.join(format!("spans-{NAME}-seed{seed}.jsonl"));
        let (missing, backwards) = layer_figures(reqs, phase, &log, report, &spans)?;
        // A stamp the probe never took is a broken chain; stamps out of
        // order across threads are a measurement limit, reported as such.
        correct &= missing == 0;
        println!(
            "  traced p50 {traced_p50:.3} ms vs untraced {p50:.3} ms: tracing overhead {:.3} ms",
            traced_p50 - p50
        );
        println!(
            "  span chains: {missing} jobs missing a stamp, {backwards} with stamps out of order by more than {CHAIN_TOLERANCE_MS} ms; spans in {}",
            spans.display()
        );
        direct_timings(&inputs, &live.store, &live.bricks, report);
        // The simulator's own layer does no work on the live service.
        report.set("sim.wall_per_job_us", 0.0);
        report.set("sim.sched_share", 0.0);
    }
    report.set("generator_lag_ms.max", lag_max_ms);
    println!(
        "  generator lag max {lag_max_ms:.3} ms{}",
        if lag_max_ms > PERIOD_MS {
            "  [FLAG: generator fell behind]"
        } else {
            ""
        }
    );
    let tally = format!(
        "shed {shed}, lost {lost}, wrong {bad} ({wrong} of {checked} sampled frames off the reference)"
    );
    live.stop();

    // The timing-only set-ups; their warm-up frames count like any other.
    for i in 1..SETUPS {
        let (extra, took) =
            Deployment::new(&inputs, data.0.join(format!("setup-{i}")), origin, None)?;
        setup_s.push(took);
        let warm = &extra.driver.reqs;
        report.attempted += warm.len() as u64;
        report.failed += warm.iter().filter(|r| r.outcome().failed()).count() as u64;
        correct &= warm.iter().all(|r| {
            matches!(
                r.outcome(),
                Outcome::Frame { correct: true } | Outcome::Shed
            )
        });
        extra.stop();
    }
    report.set("setup_s", Summary::of(&setup_s).p50);
    println!(
        "  setup_s per set-up: {}",
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!(
        "  error_rate {}/{} = {:.6} ({tally}; warm-up frames of every set-up included)",
        report.failed,
        report.attempted,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    report.correct = correct;
    Ok(())
}

/// Direct calls into single layers on this workload's own inputs, outside
/// the measured phases.
fn direct_timings(
    inputs: &Inputs,
    store: &ChunkStore,
    bricks: &HashMap<ChunkId, Arc<Brick<f32>>>,
    report: &mut Report,
) {
    let plan = &inputs.users[0];
    let frame = Inputs::frame(plan, 0);
    let camera = Camera::orbit(DIMS, frame.azimuth, frame.elevation, frame.distance);
    let tf = TransferFunction::preset(frame.transfer_fn);
    let mut brick_ms = Vec::new();
    for i in 0..16u32 {
        let brick = &bricks[&ChunkId::new(DatasetId(plan.dataset), i % BRICKS)];
        let t = Instant::now();
        std::hint::black_box(render_brick(brick.as_ref(), &camera, &tf, &settings()));
        brick_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.set("render.brick_ms.p50", Summary::of(&brick_ms).p50);

    let layers = layers_for(bricks, plan.dataset, &frame);
    let mut composite_ms = Vec::new();
    for _ in 0..16 {
        let input = layers.clone();
        let t = Instant::now();
        std::hint::black_box(composite(input, CompositeAlgo::Auto));
        composite_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    report.set("compositing.frame_ms.p50", Summary::of(&composite_ms).p50);

    // Every brick of the store, twice.
    let load_ms: Vec<f64> = chunks()
        .chain(chunks())
        .map(|chunk| {
            let (_, took) = store.load(chunk).expect("store holds every brick");
            took.as_secs_f64() * 1e3
        })
        .collect();
    report.set("storage.direct_load_ms", Summary::of(&load_ms).p50);

    let image = composite(layers, CompositeAlgo::Auto);
    let msg = WireMessage::Response(WireResponse::Frame(Box::new(WireFrame::from_image(
        1,
        JobId(1),
        SimDuration::from_millis(30),
        0,
        &image,
    ))));
    let mut codec = Codec::new();
    let encode_us = time_per_call_us(20, 100, || {
        std::hint::black_box(codec.encode(&msg));
    });
    let bytes = codec.encode(&msg).to_bytes();
    let mut decoder = Codec::new();
    let decode_us = time_per_call_us(20, 100, || {
        let mut src: &[u8] = &bytes;
        std::hint::black_box(decoder.read(&mut src).expect("decodes"));
    });
    report.set("tcp.codec_encode_us", encode_us);
    report.set("tcp.codec_decode_us", decode_us);
}
