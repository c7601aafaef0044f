//! The traced run's probe: stamps wall time (and keeps the event's own
//! clock) at the head's layer boundaries — job offered, scheduler
//! invocation start/end, assignment, task completion, eviction, job
//! done — and keeps everything in memory until the run ends.
//!
//! `enabled()` follows the armed flag, so an unarmed probe costs the
//! emitters the same as the default `NoopProbe`: the untraced reference
//! phase and the traced phase run on one service.

use crate::report::Report;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use vizsched_core::job::Job;
use vizsched_core::time::SimTime;
use vizsched_metrics::{Probe, Summary, TraceEvent};

/// Which of an event's two times a figure is taken on.
#[derive(Clone, Copy, Debug)]
pub enum Clock {
    /// The probe's wall stamp (the live service).
    Wall,
    /// The event's own clock (virtual time in the simulator).
    Own,
}

impl Clock {
    fn pick(self, wall_ms: f64, own_ms: f64) -> f64 {
        match self {
            Clock::Wall => wall_ms,
            Clock::Own => own_ms,
        }
    }
}

/// One `assign` event.
#[derive(Clone, Copy, Debug)]
pub struct AssignStamp {
    /// Owning job.
    pub job: u64,
    /// Task index.
    pub task: u32,
    /// Wall stamp, ms since the run's origin.
    pub wall_ms: f64,
    /// The event's own clock, ms (virtual in the simulator).
    pub clock_ms: f64,
    /// Tasks outstanding on the node once this one is queued.
    pub depth: u32,
}

/// One `task_done` event.
#[derive(Clone, Copy, Debug)]
pub struct TaskStamp {
    /// Owning job.
    pub job: u64,
    /// Task index.
    pub task: u32,
    /// Wall stamp at the head, ms since the run's origin.
    pub wall_ms: f64,
    /// Observed start on the event's own clock, ms.
    pub started_clock_ms: f64,
    /// Execution time (I/O + render), ms.
    pub exec_ms: f64,
    /// I/O part of the execution, ms (zero on a cache hit).
    pub io_ms: f64,
    /// True if the chunk came from the store.
    pub miss: bool,
}

impl TaskStamp {
    /// When the node started the task. On the wall clock that is the
    /// head's report stamp less the execution time.
    pub fn start_ms(&self, clock: Clock) -> f64 {
        clock.pick(self.wall_ms - self.exec_ms, self.started_clock_ms)
    }
}

/// One scheduler invocation.
#[derive(Clone, Copy, Debug)]
pub struct CycleStamp {
    /// Wall stamp at `cycle_start`, ms.
    pub start_ms: f64,
    /// Wall stamp at `cycle_end`, ms.
    pub end_ms: f64,
    /// Host time inside `schedule`, µs, as the runtime measured it.
    pub sched_us: u64,
    /// Assignments produced.
    pub assignments: usize,
}

/// Everything the probe saw while armed.
#[derive(Debug, Default)]
pub struct SpanLog {
    /// Job → (wall ms, own-clock ms) at `on_job_offered`.
    pub offered: HashMap<u64, (f64, f64)>,
    /// Every assignment, in emission order.
    pub assigns: Vec<AssignStamp>,
    /// Every task completion, in emission order.
    pub tasks: Vec<TaskStamp>,
    /// Job → wall ms at `job_done`.
    pub job_done: HashMap<u64, f64>,
    /// Completed scheduler invocations.
    pub cycles: Vec<CycleStamp>,
    /// `cache_evict` events.
    pub evictions: u64,
    open_cycle: Option<f64>,
    outstanding: Vec<u32>,
}

impl SpanLog {
    /// Each job's first assignment, ms.
    pub fn first_assign(&self, clock: Clock) -> HashMap<u64, f64> {
        let mut first: HashMap<u64, f64> = HashMap::new();
        for a in &self.assigns {
            let at = clock.pick(a.wall_ms, a.clock_ms);
            let e = first.entry(a.job).or_insert(at);
            *e = e.min(at);
        }
        first
    }

    /// Set the figures every workload derives the same way from the log:
    /// cycle wait, scheduler invocations and node queueing.
    pub fn report_shared(&self, clock: Clock, report: &mut Report) {
        let first = self.first_assign(clock);
        let cycle_wait: Vec<f64> = self
            .offered
            .iter()
            .filter_map(|(job, &(wall, own))| first.get(job).map(|a| a - clock.pick(wall, own)))
            .collect();
        let assign_at: HashMap<(u64, u32), f64> = self
            .assigns
            .iter()
            .map(|a| ((a.job, a.task), clock.pick(a.wall_ms, a.clock_ms)))
            .collect();
        let queue_wait: Vec<f64> = self
            .tasks
            .iter()
            .filter_map(|t| {
                assign_at
                    .get(&(t.job, t.task))
                    .map(|a| t.start_ms(clock) - a)
            })
            .collect();
        let depths: Vec<f64> = self.assigns.iter().map(|a| a.depth as f64).collect();
        let sched_us: Vec<f64> = self.cycles.iter().map(|c| c.sched_us as f64).collect();
        let assignments: usize = self.cycles.iter().map(|c| c.assignments).sum();

        let cycle_wait = Summary::of(&cycle_wait);
        let sched_us = Summary::of(&sched_us);
        let queue_wait = Summary::of(&queue_wait);
        let depths = Summary::of(&depths);
        report.set("runtime.cycle_wait_ms.p50", cycle_wait.p50);
        report.set("runtime.cycle_wait_ms.p99", cycle_wait.p99);
        report.set("runtime.invocations", self.cycles.len() as f64);
        report.set("sched.cycle_us.p50", sched_us.p50);
        report.set("sched.cycle_us.p99", sched_us.p99);
        report.set(
            "sched.assignments_per_cycle",
            assignments as f64 / self.cycles.len().max(1) as f64,
        );
        report.set("node.queue_wait_ms.p50", queue_wait.p50);
        report.set("node.queue_wait_ms.p99", queue_wait.p99);
        report.set("node.queue_depth.mean", depths.mean);
        report.set("node.queue_depth.max", depths.max);
    }
}

/// The probe handed to `ServiceConfig::probe` / `RunOptions::probe`.
pub struct SpanProbe {
    origin: Instant,
    armed: AtomicBool,
    log: Mutex<SpanLog>,
}

impl SpanProbe {
    /// A disarmed probe stamping relative to `origin`.
    pub fn new(origin: Instant) -> SpanProbe {
        SpanProbe {
            origin,
            armed: AtomicBool::new(false),
            log: Mutex::new(SpanLog::default()),
        }
    }

    /// Start or stop recording.
    pub fn arm(&self, on: bool) {
        self.armed.store(on, Ordering::SeqCst);
    }

    /// Hand over everything recorded so far and start a fresh log.
    pub fn take(&self) -> SpanLog {
        std::mem::take(&mut *self.log.lock().expect("probe lock"))
    }

    fn wall_ms(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e3
    }
}

fn clock_ms(t: SimTime) -> f64 {
    t.as_micros() as f64 / 1e3
}

impl Probe for SpanProbe {
    fn enabled(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    fn on_job_offered(&self, now: SimTime, job: &Job) {
        if !self.enabled() {
            return;
        }
        let wall = self.wall_ms();
        let mut log = self.log.lock().expect("probe lock");
        log.offered.insert(job.id.0, (wall, clock_ms(now)));
    }

    fn on_event(&self, event: &TraceEvent) {
        if !self.enabled() {
            return;
        }
        let wall = self.wall_ms();
        let mut log = self.log.lock().expect("probe lock");
        match *event {
            TraceEvent::CycleStart { .. } => log.open_cycle = Some(wall),
            TraceEvent::CycleEnd {
                assignments,
                wall_micros,
                ..
            } => {
                if let Some(start_ms) = log.open_cycle.take() {
                    log.cycles.push(CycleStamp {
                        start_ms,
                        end_ms: wall,
                        sched_us: wall_micros,
                        assignments,
                    });
                }
            }
            TraceEvent::Assignment {
                now,
                job,
                task,
                node,
                ..
            } => {
                let k = node.index();
                if log.outstanding.len() <= k {
                    log.outstanding.resize(k + 1, 0);
                }
                log.outstanding[k] += 1;
                let depth = log.outstanding[k];
                log.assigns.push(AssignStamp {
                    job: job.0,
                    task,
                    wall_ms: wall,
                    clock_ms: clock_ms(now),
                    depth,
                });
            }
            TraceEvent::TaskDone {
                job,
                task,
                node,
                started,
                exec,
                io,
                miss,
                ..
            } => {
                if let Some(d) = log.outstanding.get_mut(node.index()) {
                    *d = d.saturating_sub(1);
                }
                log.tasks.push(TaskStamp {
                    job: job.0,
                    task,
                    wall_ms: wall,
                    started_clock_ms: clock_ms(started),
                    exec_ms: exec.as_micros() as f64 / 1e3,
                    io_ms: io.as_micros() as f64 / 1e3,
                    miss,
                });
            }
            TraceEvent::CacheEvict { .. } => log.evictions += 1,
            TraceEvent::JobDone { job, .. } => {
                log.job_done.insert(job.0, wall);
            }
            _ => {}
        }
    }
}

/// Writes spans as JSON lines: `id`, `name`, `start_ms`, `end_ms` (ms
/// since the run's origin), `parent` and `job` (`null` when absent).
pub struct SpanWriter {
    out: std::io::BufWriter<std::fs::File>,
    next_id: u64,
}

impl SpanWriter {
    /// Create (or truncate) the span file.
    pub fn create(path: &Path) -> std::io::Result<SpanWriter> {
        Ok(SpanWriter {
            out: std::io::BufWriter::new(std::fs::File::create(path)?),
            next_id: 0,
        })
    }

    /// Write one span and return its id.
    pub fn span(
        &mut self,
        name: &str,
        start_ms: f64,
        end_ms: f64,
        parent: Option<u64>,
        job: Option<u64>,
    ) -> std::io::Result<u64> {
        let id = self.next_id;
        self.next_id += 1;
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            self.out,
            "{{\"id\": {id}, \"name\": \"{name}\", \"start_ms\": {start_ms:.3}, \"end_ms\": {end_ms:.3}, \"parent\": {}, \"job\": {}}}",
            opt(parent),
            opt(job)
        )?;
        Ok(id)
    }

    /// Flush everything written.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}
