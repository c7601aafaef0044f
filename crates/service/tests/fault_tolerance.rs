//! Fault tolerance of the live service: a planned crash of a render
//! node's worker mid-workload must not lose frames. The head observes the
//! fault (the worker's epoch-tagged `Stopped` report), reroutes the node's
//! outstanding tasks through the shared runtime — the same path the
//! simulator's plan execution drives — and, when the plan respawns the
//! node, restarts the worker cold-cached.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vizsched_core::ids::{BatchId, DatasetId, NodeId, UserId};
use vizsched_core::job::FrameParams;
use vizsched_core::time::SimTime;
use vizsched_metrics::{CollectingProbe, TraceEvent};
use vizsched_service::{
    ChunkStore, FaultPlan, ServiceClient, ServiceConfig, StoreDataset, VizService,
};
use vizsched_volume::Field;

fn temp_root(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("vizsched-fault-{tag}-{}", std::process::id()))
}

/// A service over a deliberately slow store (throttled loads), so a burst
/// of frames is still in flight when the planned crash lands.
fn slow_service(tag: &str, plan: FaultPlan) -> (VizService, Arc<CollectingProbe>, PathBuf) {
    let root = temp_root(tag);
    let mut store = ChunkStore::create(
        &root,
        &[
            StoreDataset {
                field: Field::Shells,
                dims: [16, 16, 32],
                bricks: 4,
            },
            StoreDataset {
                field: Field::Plume,
                dims: [16, 16, 32],
                bricks: 4,
            },
        ],
    )
    .unwrap();
    store.set_throttle(Some(256 << 10)); // ~32 ms per 8 KiB brick load
    let probe = Arc::new(CollectingProbe::new());
    let config = ServiceConfig::default()
        .nodes(4)
        .mem_quota(1 << 20)
        .image_size(64, 64)
        .probe(probe.clone())
        .fault_plan(plan);
    (VizService::start(config, Arc::new(store)), probe, root)
}

fn frame(azimuth: f32) -> FrameParams {
    FrameParams {
        azimuth,
        ..FrameParams::default()
    }
}

fn ms(ms: u64) -> SimTime {
    SimTime::from_millis(ms)
}

#[test]
fn killed_node_loses_no_frames() {
    // Queue a burst across both datasets; the plan crashes node 1 at
    // 40 ms, while loads are still grinding through the throttled store.
    let plan = FaultPlan::new().crash_at(ms(40), NodeId(1));
    let (service, probe, root) = slow_service("kill", plan);
    let client = ServiceClient::new(UserId(0), service.request_sender());
    let frames: Vec<FrameParams> = (0..8).map(|i| frame(i as f32 * 0.1)).collect();
    let rx_a = client.render_batch(BatchId(0), DatasetId(0), &frames);
    let rx_b = client.render_batch(BatchId(1), DatasetId(1), &frames);

    let mut received = 0;
    for rx in [&rx_a, &rx_b] {
        for _ in 0..8 {
            let result = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("every frame survives the fault")
                .expect_frame();
            assert!(result
                .image
                .pixels
                .iter()
                .all(|p| p.iter().all(|c| c.is_finite())));
            received += 1;
        }
    }
    assert_eq!(received, 16);

    let stats = service.drain_and_shutdown();
    assert_eq!(stats.jobs_completed, 16);

    let events = probe.take();
    let faults: Vec<NodeId> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::NodeFault { node, .. } => Some(*node),
            _ => None,
        })
        .collect();
    assert_eq!(
        faults,
        vec![NodeId(1)],
        "exactly one fault, on the crashed node"
    );
    assert!(
        !events
            .iter()
            .any(|e| matches!(e, TraceEvent::NodeUp { .. })),
        "no respawn planned: the node must stay down"
    );
    // The dead node contributes nothing after the fault: every task
    // completion from node 1 precedes the fault report.
    let fault_at = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::NodeFault { now, .. } => Some(*now),
            _ => None,
        })
        .unwrap();
    assert!(events.iter().all(|e| match e {
        TraceEvent::TaskDone { now, node, .. } => *node != NodeId(1) || *now <= fault_at,
        _ => true,
    }));
    std::fs::remove_dir_all(root).ok();
}

#[test]
fn restarted_node_rejoins_and_serves() {
    let started = Instant::now();
    let plan = FaultPlan::new()
        .crash_at(ms(40), NodeId(2))
        .respawn_at(ms(200), NodeId(2));
    let (service, probe, root) = slow_service("restart", plan);
    let client = ServiceClient::new(UserId(0), service.request_sender());

    let frames: Vec<FrameParams> = (0..8).map(|i| frame(i as f32 * 0.1)).collect();
    let rx = client.render_batch(BatchId(0), DatasetId(0), &frames);
    for _ in 0..8 {
        rx.recv_timeout(Duration::from_secs(60))
            .expect("every frame survives the fault");
    }
    // Work submitted *after* the respawn must also complete — the fresh
    // incarnation (or its peers) picks it up.
    std::thread::sleep(Duration::from_millis(250).saturating_sub(started.elapsed()));
    let rx2 = client.render_batch(BatchId(1), DatasetId(1), &frames);
    for _ in 0..8 {
        rx2.recv_timeout(Duration::from_secs(60))
            .expect("post-recovery frame arrives");
    }

    let stats = service.drain_and_shutdown();
    assert_eq!(stats.jobs_completed, 16);

    let events = probe.take();
    let fault_pos = events
        .iter()
        .position(|e| matches!(e, TraceEvent::NodeFault { node, .. } if *node == NodeId(2)))
        .expect("fault observed");
    let up_pos = events
        .iter()
        .position(|e| matches!(e, TraceEvent::NodeUp { node, .. } if *node == NodeId(2)))
        .expect("recovery observed");
    assert!(fault_pos < up_pos, "fault precedes the respawn");
    std::fs::remove_dir_all(root).ok();
}

/// A planned respawn that fires before the crashed worker's `Stopped`
/// report arrives (the worker is still finishing a throttled load) must
/// not orphan the work the dead worker dropped: the head re-places it
/// when the report lands, then brings the fresh incarnation up.
#[test]
fn respawn_overtaking_the_crash_report_loses_no_frames() {
    let plan = FaultPlan::new()
        .crash_at(ms(40), NodeId(2))
        .respawn_at(ms(45), NodeId(2));
    let (service, probe, root) = slow_service("overtake", plan);
    let client = ServiceClient::new(UserId(0), service.request_sender());
    let frames: Vec<FrameParams> = (0..8).map(|i| frame(i as f32 * 0.1)).collect();
    let rx_a = client.render_batch(BatchId(0), DatasetId(0), &frames);
    let rx_b = client.render_batch(BatchId(1), DatasetId(1), &frames);

    // One deadline for the whole burst, so a lost frame fails in seconds.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut received = 0;
    for rx in [&rx_a, &rx_b] {
        for _ in 0..8 {
            let left = deadline.saturating_duration_since(Instant::now());
            if rx.recv_timeout(left).is_err() {
                break;
            }
            received += 1;
        }
    }
    assert_eq!(received, 16, "frames lost to the overtaken crash report");

    let stats = service.drain_and_shutdown();
    assert_eq!(stats.jobs_completed, 16);
    let events = probe.take();
    let fault_pos = events
        .iter()
        .position(|e| matches!(e, TraceEvent::NodeFault { node, .. } if *node == NodeId(2)))
        .expect("the crash is observed");
    let up_pos = events
        .iter()
        .position(|e| matches!(e, TraceEvent::NodeUp { node, .. } if *node == NodeId(2)))
        .expect("the planned respawn brings the node back");
    assert!(fault_pos < up_pos, "fault precedes the respawn");
    std::fs::remove_dir_all(root).ok();
}
