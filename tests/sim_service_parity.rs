//! Simulator-vs-service parity: both drive the *same* shared head-node
//! runtime (`vizsched-runtime`), so an identical serialized workload over
//! an identical catalog must produce identical scheduler-visible event
//! sequences — modulo wall-clock timestamps and measured durations, which
//! the live service observes from real disks and renders.
//!
//! The topology is chosen to make placement substrate-independent for the
//! deterministic policies: each dataset bricks into exactly `nodes`
//! chunks, so a cold job spreads one chunk per node through index
//! tie-breaks and a warm job maps every chunk to its unique cache holder
//! (zero movement strictly wins), never comparing measured estimate
//! *magnitudes* — the one quantity that legitimately differs between the
//! virtual and the wall clock.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;
use vizsched_core::prelude::*;
use vizsched_metrics::{CollectingProbe, RejectReason, TraceEvent};
use vizsched_service::{
    ChunkStore, OverloadPolicy, RenderOutcome, RenderReply, ServiceClient, ServiceConfig,
    StoreDataset, VizService,
};
use vizsched_sim::{RunOptions, SimConfig, Simulation};
use vizsched_volume::Field;

const NODES: usize = 4;
const MEM_QUOTA: u64 = 1 << 20;

/// (job, task, chunk, node, interactive) — sorted, so dispatch interleaving
/// across cycles doesn't matter, only the placements themselves.
type AssignKey = (u64, u32, u64, u32, bool);
/// (job, task, chunk, node, miss).
type DoneKey = (u64, u32, u64, u32, bool);

fn assignments(events: &[TraceEvent]) -> Vec<AssignKey> {
    let mut keys: Vec<AssignKey> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Assignment {
                job,
                task,
                chunk,
                node,
                interactive,
                ..
            } => Some((job.0, *task, chunk.as_u64(), node.0, *interactive)),
            _ => None,
        })
        .collect();
    keys.sort_unstable();
    keys
}

fn dones(events: &[TraceEvent]) -> Vec<DoneKey> {
    let mut keys: Vec<DoneKey> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::TaskDone {
                job,
                task,
                chunk,
                node,
                miss,
                ..
            } => Some((job.0, *task, chunk.as_u64(), node.0, *miss)),
            _ => None,
        })
        .collect();
    keys.sort_unstable();
    keys
}

fn cache_loads(events: &[TraceEvent]) -> BTreeSet<(u32, u64)> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::CacheLoad { node, chunk, .. } => Some((node.0, chunk.as_u64())),
            _ => None,
        })
        .collect()
}

fn estimate_chunks(events: &[TraceEvent]) -> BTreeSet<u64> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::EstimateCorrection { chunk, .. } => Some(chunk.as_u64()),
            _ => None,
        })
        .collect()
}

fn job_done_order(events: &[TraceEvent]) -> Vec<u64> {
    events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::JobDone { job, .. } => Some(job.0),
            _ => None,
        })
        .collect()
}

fn count(events: &[TraceEvent], f: impl Fn(&TraceEvent) -> bool) -> usize {
    events.iter().filter(|e| f(e)).count()
}

/// The serialized workload both substrates replay: `(dataset, azimuth)`
/// per job, one job in flight at a time. Dataset 0 runs cold then warm,
/// dataset 1 interleaves to exercise per-node cache coexistence.
fn workload() -> Vec<(u64, f32)> {
    vec![
        (0, 0.10),
        (0, 0.20),
        (1, 0.30),
        (0, 0.40),
        (1, 0.50),
        (1, 0.60),
    ]
}

/// Run the workload through the live service, one frame at a time.
fn run_service(kind: SchedulerKind) -> (Vec<TraceEvent>, u64, u64) {
    let root = std::env::temp_dir().join(format!(
        "vizsched-parity-{}-{}",
        kind.name(),
        std::process::id()
    ));
    let mut store = ChunkStore::create(
        &root,
        &[
            StoreDataset {
                field: Field::Shells,
                dims: [16, 16, 32],
                bricks: NODES,
            },
            StoreDataset {
                field: Field::Plume,
                dims: [16, 16, 32],
                bricks: NODES,
            },
        ],
    )
    .unwrap();
    // Throttle the store so every measured load is comfortably nonzero:
    // a zero measured estimate would erase the locality advantage the
    // deterministic placement argument rests on.
    store.set_throttle(Some(4 << 20));
    let probe = Arc::new(CollectingProbe::new());
    let config = ServiceConfig::default()
        .nodes(NODES)
        .mem_quota(MEM_QUOTA)
        .image_size(32, 32)
        .scheduler(kind)
        .probe(probe.clone());
    let service = VizService::start(config, Arc::new(store));
    let client = ServiceClient::new(UserId(0), service.request_sender());
    for (i, &(dataset, azimuth)) in workload().iter().enumerate() {
        let frame = FrameParams {
            azimuth,
            ..FrameParams::default()
        };
        let rx = client.render_interactive(ActionId(i as u64), DatasetId(dataset as u32), frame);
        rx.recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("{}: frame {i} never arrived: {e}", kind.name()));
    }
    let stats = service.drain_and_shutdown();
    std::fs::remove_dir_all(root).ok();
    (probe.take(), stats.cache_hits, stats.cache_misses)
}

/// Replay the same workload in the simulator over the *same physical
/// catalog* (the store's bricking), jobs spaced far enough apart that each
/// completes before the next issues — the virtual-clock image of the
/// serialized client.
fn run_sim(kind: SchedulerKind) -> (Vec<TraceEvent>, u64, u64) {
    let root = std::env::temp_dir().join(format!(
        "vizsched-parity-cat-{}-{}",
        kind.name(),
        std::process::id()
    ));
    let store = ChunkStore::create(
        &root,
        &[
            StoreDataset {
                field: Field::Shells,
                dims: [16, 16, 32],
                bricks: NODES,
            },
            StoreDataset {
                field: Field::Plume,
                dims: [16, 16, 32],
                bricks: NODES,
            },
        ],
    )
    .unwrap();
    let catalog = store.catalog().clone();
    std::fs::remove_dir_all(root).ok();

    let cluster = ClusterSpec::homogeneous(NODES, MEM_QUOTA);
    let config = SimConfig::new(cluster, CostParams::default(), 1 << 30);
    let jobs: Vec<Job> = workload()
        .iter()
        .enumerate()
        .map(|(i, &(dataset, azimuth))| Job {
            id: JobId(i as u64),
            kind: JobKind::Interactive {
                user: UserId(0),
                action: ActionId(i as u64),
            },
            dataset: DatasetId(dataset as u32),
            issue_time: SimTime::from_secs(i as u64),
            frame: FrameParams {
                azimuth,
                ..FrameParams::default()
            },
        })
        .collect();
    let probe = Arc::new(CollectingProbe::new());
    let outcome = Simulation::new(config, Vec::new()).run_opts(
        jobs,
        RunOptions::new(kind)
            .label("parity")
            .catalog(catalog)
            .probe(probe.clone()),
    );
    assert_eq!(
        outcome.incomplete_jobs,
        0,
        "{}: sim run stalled",
        kind.name()
    );
    (
        probe.take(),
        outcome.record.cache_hits,
        outcome.record.cache_misses,
    )
}

/// Invariants that must hold for *any* policy, placement-deterministic or
/// not: same work items, same completion order, same invocation balance.
fn assert_weak_parity(kind: SchedulerKind, sim: &[TraceEvent], live: &[TraceEvent]) {
    let name = kind.name();
    let strip_node = |keys: Vec<AssignKey>| -> Vec<(u64, u32, u64, bool)> {
        let mut k: Vec<_> = keys
            .into_iter()
            .map(|(j, t, c, _, i)| (j, t, c, i))
            .collect();
        k.sort_unstable();
        k
    };
    assert_eq!(
        strip_node(assignments(sim)),
        strip_node(assignments(live)),
        "{name}: dispatched work items differ"
    );
    let strip_done = |keys: Vec<DoneKey>| -> Vec<(u64, u32, u64)> {
        let mut k: Vec<_> = keys.into_iter().map(|(j, t, c, _, _)| (j, t, c)).collect();
        k.sort_unstable();
        k
    };
    assert_eq!(
        strip_done(dones(sim)),
        strip_done(dones(live)),
        "{name}: completed work items differ"
    );
    assert_eq!(
        job_done_order(sim),
        job_done_order(live),
        "{name}: job completion order differs"
    );
    for (tag, events) in [("sim", sim), ("live", live)] {
        let starts = count(events, |e| matches!(e, TraceEvent::CycleStart { .. }));
        let ends = count(events, |e| matches!(e, TraceEvent::CycleEnd { .. }));
        assert_eq!(starts, ends, "{name}/{tag}: unbalanced cycles");
        assert!(
            events.windows(2).all(|w| w[0].time() <= w[1].time()),
            "{name}/{tag}: probe stream not time-ordered"
        );
    }
}

/// Full placement parity, for policies whose tie-breaks are substrate
/// independent (index order / locality, never the wall clock): identical
/// node choices, identical per-node cache evolution, identical hit/miss
/// realization.
fn assert_strict_parity(kind: SchedulerKind) {
    let (sim, sim_hits, sim_misses) = run_sim(kind);
    let (live, live_hits, live_misses) = run_service(kind);
    let name = kind.name();
    assert_weak_parity(kind, &sim, &live);
    assert_eq!(
        assignments(&sim),
        assignments(&live),
        "{name}: task placement diverged between substrates"
    );
    assert_eq!(
        dones(&sim),
        dones(&live),
        "{name}: execution (node, miss) realization diverged"
    );
    assert_eq!(
        cache_loads(&sim),
        cache_loads(&live),
        "{name}: per-node cache contents diverged"
    );
    assert_eq!(
        estimate_chunks(&sim),
        estimate_chunks(&live),
        "{name}: estimate-corrected chunk sets differ"
    );
    assert_eq!(
        (sim_hits, sim_misses),
        (live_hits, live_misses),
        "{name}: aggregate hit/miss counters differ"
    );
}

#[test]
fn ours_places_identically_on_both_substrates() {
    assert_strict_parity(SchedulerKind::Ours);
}

#[test]
fn fcfsl_places_identically_on_both_substrates() {
    assert_strict_parity(SchedulerKind::Fcfsl);
}

#[test]
fn frac_places_identically_on_both_substrates() {
    // FRAC's interactive pass is OURS verbatim and its share EMA depends
    // only on the committed interactive stream, so placement is fully
    // substrate independent.
    assert_strict_parity(SchedulerKind::Frac);
}

#[test]
fn mobj_places_identically_on_both_substrates() {
    // MOBJ's objective terms (move, wait, fragmentation, starvation age)
    // are all derived from the shared head tables — no wall clock, no
    // substrate-visible tie-breaks.
    assert_strict_parity(SchedulerKind::Mobj);
}

#[test]
fn fcfs_work_items_match_across_substrates() {
    // FCFS breaks idle ties with a time-salted hash, so *placement* is
    // substrate-dependent by design; the scheduler-visible work stream
    // must still agree.
    let (sim, ..) = run_sim(SchedulerKind::Fcfs);
    let (live, ..) = run_service(SchedulerKind::Fcfs);
    assert_weak_parity(SchedulerKind::Fcfs, &sim, &live);
}

// ---------------------------------------------------------------------
// Overload-policy parity: the admission layer lives inside the shared
// runtime, so both substrates must take identical admission, coalescing,
// expiry, and escalation decisions on identical workloads. Decisions that
// depend on *measured durations* (graduated deadlines, post-warm-up ε
// gates) are legitimately clock-dependent; the tests below pin the
// decision to the workload shape — degenerate knobs (a zero cap, a zero
// deadline, a zero escalation age) or single-cycle windows wide enough
// that wall-clock jitter cannot reorder arrivals across cycles.
// ---------------------------------------------------------------------

/// An admission-layer decision in substrate-independent normal form.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum PolicyKey {
    Admitted(u64),
    Rejected(u64, RejectReason),
    Coalesced { superseded: u64, by: u64 },
    Expired(u64),
    Escalated(u64),
}

fn policy_decisions(events: &[TraceEvent]) -> Vec<PolicyKey> {
    let mut keys: Vec<PolicyKey> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Admitted { job, .. } => Some(PolicyKey::Admitted(job.0)),
            TraceEvent::Rejected { job, reason, .. } => Some(PolicyKey::Rejected(job.0, *reason)),
            TraceEvent::Coalesced { superseded, by, .. } => Some(PolicyKey::Coalesced {
                superseded: superseded.0,
                by: by.0,
            }),
            TraceEvent::Expired { job, .. } => Some(PolicyKey::Expired(job.0)),
            TraceEvent::BatchEscalated { job, .. } => Some(PolicyKey::Escalated(job.0)),
            _ => None,
        })
        .collect();
    keys.sort();
    keys
}

/// A policed live service over the parity store; the caller drives it and
/// must call `drain_and_shutdown` itself.
fn policed_service(
    tag: &str,
    policy: OverloadPolicy,
    cycle: SimDuration,
) -> (VizService, Arc<CollectingProbe>, std::path::PathBuf) {
    let root =
        std::env::temp_dir().join(format!("vizsched-parity-pol-{tag}-{}", std::process::id()));
    let mut store = ChunkStore::create(
        &root,
        &[
            StoreDataset {
                field: Field::Shells,
                dims: [16, 16, 32],
                bricks: NODES,
            },
            StoreDataset {
                field: Field::Plume,
                dims: [16, 16, 32],
                bricks: NODES,
            },
        ],
    )
    .unwrap();
    store.set_throttle(Some(4 << 20));
    let probe = Arc::new(CollectingProbe::new());
    let config = ServiceConfig::default()
        .nodes(NODES)
        .mem_quota(MEM_QUOTA)
        .image_size(32, 32)
        .cycle(cycle)
        .overload(policy)
        .probe(probe.clone());
    (VizService::start(config, Arc::new(store)), probe, root)
}

/// The simulator's image of a policed run: the same physical catalog, an
/// explicit job list, the same cycle and policy.
fn run_sim_policy(
    tag: &str,
    policy: OverloadPolicy,
    cycle: SimDuration,
    jobs: Vec<Job>,
) -> (Vec<TraceEvent>, vizsched_sim::SimOutcome) {
    let root = std::env::temp_dir().join(format!(
        "vizsched-parity-polcat-{tag}-{}",
        std::process::id()
    ));
    let store = ChunkStore::create(
        &root,
        &[
            StoreDataset {
                field: Field::Shells,
                dims: [16, 16, 32],
                bricks: NODES,
            },
            StoreDataset {
                field: Field::Plume,
                dims: [16, 16, 32],
                bricks: NODES,
            },
        ],
    )
    .unwrap();
    let catalog = store.catalog().clone();
    std::fs::remove_dir_all(root).ok();

    let cluster = ClusterSpec::homogeneous(NODES, MEM_QUOTA);
    let mut config = SimConfig::new(cluster, CostParams::default(), 1 << 30);
    config.cycle = cycle;
    let probe = Arc::new(CollectingProbe::new());
    let outcome = Simulation::new(config, Vec::new()).run_opts(
        jobs,
        RunOptions::new(SchedulerKind::Ours)
            .label("parity-policy")
            .catalog(catalog)
            .overload(policy)
            .probe(probe.clone()),
    );
    (probe.take(), outcome)
}

fn interactive_job(id: u64, action: u64, dataset: u32, at_ms: u64, azimuth: f32) -> Job {
    Job {
        id: JobId(id),
        kind: JobKind::Interactive {
            user: UserId(0),
            action: ActionId(action),
        },
        dataset: DatasetId(dataset),
        issue_time: SimTime::from_millis(at_ms),
        frame: FrameParams {
            azimuth,
            ..FrameParams::default()
        },
    }
}

const CYCLE_30MS: SimDuration = SimDuration::from_millis(30);
/// Wide enough that a burst of back-to-back client sends always lands
/// inside one cycle, regardless of thread-scheduling jitter.
const WIDE_CYCLE: SimDuration = SimDuration::from_millis(500);

/// An active policy whose caps are far above anything the serialized
/// workload reaches: the admission layer observes without intervening.
fn permissive_policy() -> OverloadPolicy {
    OverloadPolicy {
        max_in_flight: Some(1000),
        max_per_user: Some(1000),
        deadline: Some(SimDuration::from_secs(120)),
        coalesce_interactive: true,
        batch_escalation_age: Some(SimDuration::from_secs(120)),
    }
}

#[test]
fn permissive_policy_admits_identically_and_preserves_strict_parity() {
    let policy = permissive_policy();
    let jobs: Vec<Job> = workload()
        .iter()
        .enumerate()
        .map(|(i, &(dataset, azimuth))| {
            interactive_job(i as u64, i as u64, dataset as u32, i as u64 * 1000, azimuth)
        })
        .collect();
    let (sim, sim_outcome) = run_sim_policy("permissive", policy, CYCLE_30MS, jobs);

    let (service, probe, root) = policed_service("permissive", policy, CYCLE_30MS);
    let client = ServiceClient::new(UserId(0), service.request_sender());
    for (i, &(dataset, azimuth)) in workload().iter().enumerate() {
        let frame = FrameParams {
            azimuth,
            ..FrameParams::default()
        };
        let rx = client.render_interactive(ActionId(i as u64), DatasetId(dataset as u32), frame);
        rx.recv_timeout(Duration::from_secs(60))
            .expect("frame arrives")
            .expect_frame();
    }
    let stats = service.drain_and_shutdown();
    let live = probe.take();
    std::fs::remove_dir_all(root).ok();

    assert_weak_parity(SchedulerKind::Ours, &sim, &live);
    assert_eq!(
        assignments(&sim),
        assignments(&live),
        "permissive policy must not perturb placement"
    );
    let decisions = policy_decisions(&sim);
    assert_eq!(decisions, policy_decisions(&live));
    // Every job admitted, nothing shed on either substrate.
    assert_eq!(
        decisions,
        (0..workload().len() as u64)
            .map(PolicyKey::Admitted)
            .collect::<Vec<_>>()
    );
    assert_eq!(sim_outcome.overload, stats.overload);
    assert_eq!(stats.overload.shed(), 0);
}

#[test]
fn zero_cap_rejects_identically_on_both_substrates() {
    let policy = OverloadPolicy {
        max_in_flight: Some(0),
        ..OverloadPolicy::default()
    };
    let jobs: Vec<Job> = workload()
        .iter()
        .enumerate()
        .map(|(i, &(dataset, azimuth))| {
            interactive_job(i as u64, i as u64, dataset as u32, i as u64 * 1000, azimuth)
        })
        .collect();
    let (sim, sim_outcome) = run_sim_policy("cap0", policy, CYCLE_30MS, jobs);

    let (service, probe, root) = policed_service("cap0", policy, CYCLE_30MS);
    let client = ServiceClient::new(UserId(0), service.request_sender());
    for (i, &(dataset, azimuth)) in workload().iter().enumerate() {
        let frame = FrameParams {
            azimuth,
            ..FrameParams::default()
        };
        let rx = client.render_interactive(ActionId(i as u64), DatasetId(dataset as u32), frame);
        let reply = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a verdict arrives");
        assert!(
            matches!(
                reply.outcome,
                RenderOutcome::Rejected(RejectReason::GlobalCap)
            ),
            "frame {i}: expected GlobalCap rejection, got {:?}",
            reply.outcome
        );
    }
    let stats = service.drain_and_shutdown();
    let live = probe.take();
    std::fs::remove_dir_all(root).ok();

    let decisions = policy_decisions(&sim);
    assert_eq!(decisions, policy_decisions(&live));
    assert_eq!(
        decisions,
        (0..workload().len() as u64)
            .map(|j| PolicyKey::Rejected(j, RejectReason::GlobalCap))
            .collect::<Vec<_>>()
    );
    assert_eq!(sim_outcome.overload, stats.overload);
    assert_eq!(stats.jobs_completed, 0);
    assert_eq!(
        sim_outcome.record.jobs.len(),
        0,
        "shed jobs leave no record"
    );
}

#[test]
fn zero_deadline_expires_identically_on_both_substrates() {
    let policy = OverloadPolicy {
        deadline: Some(SimDuration::ZERO),
        ..OverloadPolicy::default()
    };
    let jobs: Vec<Job> = workload()
        .iter()
        .enumerate()
        .map(|(i, &(dataset, azimuth))| {
            interactive_job(i as u64, i as u64, dataset as u32, i as u64 * 1000, azimuth)
        })
        .collect();
    let (sim, sim_outcome) = run_sim_policy("deadline0", policy, CYCLE_30MS, jobs);

    let (service, probe, root) = policed_service("deadline0", policy, CYCLE_30MS);
    let client = ServiceClient::new(UserId(0), service.request_sender());
    for (i, &(dataset, azimuth)) in workload().iter().enumerate() {
        let frame = FrameParams {
            azimuth,
            ..FrameParams::default()
        };
        let rx = client.render_interactive(ActionId(i as u64), DatasetId(dataset as u32), frame);
        let reply = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a verdict arrives");
        assert!(
            matches!(
                reply.outcome,
                RenderOutcome::Dropped(vizsched_metrics::DropReason::DeadlineExpired)
            ),
            "frame {i}: expected deadline drop, got {:?}",
            reply.outcome
        );
    }
    let stats = service.drain_and_shutdown();
    let live = probe.take();
    std::fs::remove_dir_all(root).ok();

    let expected: Vec<PolicyKey> = (0..workload().len() as u64)
        .flat_map(|j| [PolicyKey::Admitted(j), PolicyKey::Expired(j)])
        .collect();
    let normalize = |mut keys: Vec<PolicyKey>| {
        keys.sort();
        keys
    };
    let decisions = policy_decisions(&sim);
    assert_eq!(decisions, policy_decisions(&live));
    assert_eq!(normalize(decisions), normalize(expected));
    assert_eq!(sim_outcome.overload, stats.overload);
    assert_eq!(stats.overload.expired, workload().len() as u64);
}

#[test]
fn coalescing_supersedes_identically_on_both_substrates() {
    let policy = OverloadPolicy {
        coalesce_interactive: true,
        ..OverloadPolicy::default()
    };
    // Three frames of action 0 and one of action 1, all inside one wide
    // cycle: the two older action-0 frames must be superseded. Issue
    // times start at 1 ms — the sim fires a cycle at t = 0, and a job
    // issued exactly then would dispatch before the rest arrive (the
    // live head's first tick is a full cycle after startup).
    let jobs = vec![
        interactive_job(0, 0, 0, 1, 0.10),
        interactive_job(1, 0, 0, 2, 0.20),
        interactive_job(2, 1, 1, 3, 0.30),
        interactive_job(3, 0, 0, 4, 0.40),
    ];
    let (sim, sim_outcome) = run_sim_policy("coalesce", policy, WIDE_CYCLE, jobs);

    let (service, probe, root) = policed_service("coalesce", policy, WIDE_CYCLE);
    let client = ServiceClient::new(UserId(0), service.request_sender());
    let frame = |azimuth: f32| FrameParams {
        azimuth,
        ..FrameParams::default()
    };
    let receivers = [
        client.render_interactive(ActionId(0), DatasetId(0), frame(0.10)),
        client.render_interactive(ActionId(0), DatasetId(0), frame(0.20)),
        client.render_interactive(ActionId(1), DatasetId(1), frame(0.30)),
        client.render_interactive(ActionId(0), DatasetId(0), frame(0.40)),
    ];
    let replies: Vec<RenderReply> = receivers
        .iter()
        .map(|rx| {
            rx.recv_timeout(Duration::from_secs(60))
                .expect("every frame gets a reply")
        })
        .collect();
    let stats = service.drain_and_shutdown();
    let live = probe.take();
    std::fs::remove_dir_all(root).ok();

    // Frames 0 and 1 superseded (by 1 then by 3); frames 2 and 3 render.
    assert!(matches!(
        replies[0].outcome,
        RenderOutcome::Dropped(vizsched_metrics::DropReason::Superseded)
    ));
    assert!(matches!(
        replies[1].outcome,
        RenderOutcome::Dropped(vizsched_metrics::DropReason::Superseded)
    ));
    assert!(matches!(replies[2].outcome, RenderOutcome::Frame(_)));
    assert!(matches!(replies[3].outcome, RenderOutcome::Frame(_)));

    let decisions = policy_decisions(&sim);
    assert_eq!(decisions, policy_decisions(&live));
    assert!(decisions.contains(&PolicyKey::Coalesced {
        superseded: 0,
        by: 1
    }));
    assert!(decisions.contains(&PolicyKey::Coalesced {
        superseded: 1,
        by: 3
    }));
    assert_eq!(sim_outcome.overload, stats.overload);
    assert_eq!(stats.overload.coalesced, 2);
    assert_eq!(stats.jobs_completed, 2);
}

#[test]
fn zero_escalation_age_escalates_identically_on_both_substrates() {
    let policy = OverloadPolicy {
        batch_escalation_age: Some(SimDuration::ZERO),
        ..OverloadPolicy::default()
    };
    // One interactive job occupies every node in the arrival cycle (the
    // parity datasets brick into exactly NODES chunks), so the ε gate
    // defers the whole cold batch on both substrates; the zero
    // anti-starvation age then escalates it wholesale at the next cycle.
    // Issue times start at 1 ms so every job buffers into the same cycle
    // (the sim fires a cycle at t = 0 that would dispatch the
    // interactive job alone and leave the batch undeferred).
    let jobs = vec![
        interactive_job(0, 0, 0, 1, 0.10),
        Job {
            id: JobId(1),
            kind: JobKind::Batch {
                user: UserId(1),
                request: BatchId(0),
                frame: 0,
            },
            dataset: DatasetId(1),
            issue_time: SimTime::from_millis(2),
            frame: FrameParams {
                azimuth: 0.50,
                ..FrameParams::default()
            },
        },
        Job {
            id: JobId(2),
            kind: JobKind::Batch {
                user: UserId(1),
                request: BatchId(0),
                frame: 1,
            },
            dataset: DatasetId(1),
            issue_time: SimTime::from_millis(3),
            frame: FrameParams {
                azimuth: 0.60,
                ..FrameParams::default()
            },
        },
    ];
    let (sim, sim_outcome) = run_sim_policy("escalate0", policy, WIDE_CYCLE, jobs);

    let (service, probe, root) = policed_service("escalate0", policy, WIDE_CYCLE);
    let interactive = ServiceClient::new(UserId(0), service.request_sender());
    let batch_user = ServiceClient::new(UserId(1), service.request_sender());
    let rx_int = interactive.render_interactive(
        ActionId(0),
        DatasetId(0),
        FrameParams {
            azimuth: 0.10,
            ..FrameParams::default()
        },
    );
    let batch_frames: Vec<FrameParams> = [0.50f32, 0.60]
        .iter()
        .map(|&azimuth| FrameParams {
            azimuth,
            ..FrameParams::default()
        })
        .collect();
    let rx_batch = batch_user.render_batch(BatchId(0), DatasetId(1), &batch_frames);
    rx_int
        .recv_timeout(Duration::from_secs(60))
        .expect("interactive frame")
        .expect_frame();
    for _ in 0..batch_frames.len() {
        rx_batch
            .recv_timeout(Duration::from_secs(60))
            .expect("batch frame")
            .expect_frame();
    }
    let stats = service.drain_and_shutdown();
    let live = probe.take();
    std::fs::remove_dir_all(root).ok();

    let decisions = policy_decisions(&sim);
    assert_eq!(decisions, policy_decisions(&live));
    assert!(
        decisions.contains(&PolicyKey::Escalated(1))
            && decisions.contains(&PolicyKey::Escalated(2)),
        "both batch jobs escalate: {decisions:?}"
    );
    assert_eq!(sim_outcome.overload, stats.overload);
    assert_eq!(stats.overload.escalated, 2);
    // Escalation is a promotion, not a drop: all three jobs complete.
    assert_eq!(stats.jobs_completed, 3);
    assert_eq!(sim_outcome.incomplete_jobs, 0);
}
