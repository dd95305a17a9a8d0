//! The job server: ingress → admission → batcher → executor → completion.
//!
//! ```text
//! submitters ──try_send──▶ [admission q] ──▶ batcher ──send──▶ [batch q] ──▶ executor ──▶ [done q] ──▶ completion
//!  (many threads)             bounded         groups by          bounded       resident job:  bounded      latency
//!  typed QueueFull            HSTENCIL_       plan key,          (cap 2)       whole, inline;              histogram +
//!  when full                  SERVE_QUEUE     ≤ batch jobs                     streaming job:              per-job
//!                                                                              pool bands;                 reply
//!                                                                              catch_unwind
//! ```
//!
//! Only the ingress edge uses `try_send`; every interior edge blocks its
//! producer, so a slow executor wedges the batcher, the admission queue
//! fills, and new submitters get a typed [`JobError::QueueFull`] — the
//! pipeline never buffers more than its configured bounds (DESIGN.md
//! §13).
//!
//! **Batching by plan key.** Jobs are grouped by the tuner plan key of
//! their `(pattern, radius, shape class, dtype)` plus a vector-width
//! bucket. Everything [`Dispatch::for_sweep_dtype`] consults is constant
//! within such a group, so the executor resolves the kernel dispatch
//! (plan lookup, tuning, heuristics) **once per batch** and reuses it
//! for every job in the batch.
//!
//! **One lane per resident job.** The shape class in the batch key also
//! fixes how many lanes a batch's jobs run on (`job_lanes`). A
//! cache-resident job runs whole on the executor thread: one pool
//! hand-off costs about as much as such a job's kernel time, so a band
//! split made it slower, not faster. A streaming job keeps the band
//! split over [`ServeConfig::lanes`], which scales there (DESIGN.md §13
//! has the measurements).
//!
//! **Bit-identity.** The executor resolves the dispatch with the same
//! `(threads = 1, f64)` query direct [`native::apply_2d`] uses, then
//! runs it through the band-parallel / temporal entry points. A
//! resident job on one lane makes the direct call itself; a streaming
//! job's bands recompute ghosts instead of exchanging halos, and every
//! dispatch in the repertoire is decomposition-invariant. So a served
//! result is bit-identical to the direct single-thread execution of the
//! same job — the property the serve conformance suite pins for every
//! completed job.

use crate::job::{Fault, JobError, JobHandle, JobId, JobRequest};
use crate::latency::LatencyHistogram;
use crate::stage::{self, Context, StageReceiver, StageSender, StageSnapshot, StageStats, TrySend};
use hstencil_core::native::tune::{self, ShapeClass};
use hstencil_core::native::{self, pool::ThreadPool, threads, Temporal};
use hstencil_core::{Dispatch, Dtype, Grid2d, StencilSpec};
use hstencil_testkit::load::LatencyStats;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server sizing. All three knobs are clamped to ≥ 1.
#[derive(Clone, Copy, Debug)]
pub struct ServeConfig {
    /// Admission-queue bound (jobs waiting to be batched). Env:
    /// `HSTENCIL_SERVE_QUEUE`, default 64.
    pub queue: usize,
    /// Max jobs coalesced into one executor batch. Env:
    /// `HSTENCIL_SERVE_BATCH`, default 8.
    pub batch: usize,
    /// ThreadPool lanes a streaming (out-of-cache) job is band-sharded
    /// across, default [`threads::auto`] (`HSTENCIL_THREADS` still pins
    /// it). Cache-resident jobs run whole on the executor thread,
    /// whatever this is (`job_lanes`).
    pub lanes: usize,
}

impl ServeConfig {
    /// Explicit sizing (tests); values are clamped to ≥ 1.
    pub fn new(queue: usize, batch: usize, lanes: usize) -> ServeConfig {
        ServeConfig {
            queue: queue.max(1),
            batch: batch.max(1),
            lanes: lanes.max(1),
        }
    }

    /// Sizing from the environment (`HSTENCIL_SERVE_QUEUE`,
    /// `HSTENCIL_SERVE_BATCH`; malformed values warn once and fall back
    /// to the defaults, matching the executor's env-knob contract).
    pub fn from_env() -> ServeConfig {
        static QUEUE: OnceLock<Option<usize>> = OnceLock::new();
        static BATCH: OnceLock<Option<usize>> = OnceLock::new();
        ServeConfig::new(
            knob(&QUEUE, "HSTENCIL_SERVE_QUEUE").unwrap_or(64),
            knob(&BATCH, "HSTENCIL_SERVE_BATCH").unwrap_or(8),
            threads::auto(),
        )
    }
}

/// Reads a positive-integer env knob once per process, warning on the
/// first malformed read and staying silent on unset/empty.
fn knob(cell: &'static OnceLock<Option<usize>>, var: &'static str) -> Option<usize> {
    *cell.get_or_init(|| match std::env::var(var) {
        Err(_) => None,
        Ok(raw) => match parse_knob(&raw) {
            Ok(v) => v,
            Err(()) => {
                eprintln!(
                    "hstencil-serve: ignoring {var}={raw:?} (expected a positive \
                     integer); using the default"
                );
                None
            }
        },
    })
}

/// Pure parse: `Ok(None)` for unset-equivalent (empty/whitespace),
/// `Ok(Some(n))` for a positive integer, `Err(())` for anything else.
pub(crate) fn parse_knob(raw: &str) -> Result<Option<usize>, ()> {
    let t = raw.trim();
    if t.is_empty() {
        return Ok(None);
    }
    match t.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        _ => Err(()),
    }
}

/// The batching key: the tuner plan key (pattern/radius/shape-class/
/// dtype/threads) extended with the vector-width bucket the dispatch
/// heuristics care about. Two jobs with equal keys are guaranteed to
/// resolve the identical [`Dispatch`], so the resolution can be hoisted
/// out of the per-job loop.
pub(crate) fn batch_key(spec: &StencilSpec, h: usize, w: usize) -> String {
    let class = ShapeClass::of_dtype(h, w, Dtype::F64);
    let width = if w < 4 {
        "narrow"
    } else if w < 8 {
        "vec4"
    } else {
        "wide"
    };
    format!("{}|{width}", tune::plan_key(spec, class, Dtype::F64, 1))
}

/// A job inside the pipeline (the handle keeps the [`JobId`]; the
/// pipeline only needs the payload and the reply channel).
struct Job {
    spec: StencilSpec,
    grid: Grid2d,
    sweeps: usize,
    fault: Option<Fault>,
    key: String,
    submitted: Instant,
    done: Sender<Result<Grid2d, JobError>>,
}

/// A plan-keyed group of jobs headed for the executor.
struct Batch {
    jobs: Vec<Job>,
}

/// A finished job headed for the completion stage.
struct Done {
    submitted: Instant,
    done: Sender<Result<Grid2d, JobError>>,
    result: Result<Grid2d, JobError>,
}

/// Aggregate pipeline counters (see [`ServerSnapshot`]).
struct Counters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    batched_jobs: AtomicU64,
    latency: LatencyHistogram,
}

impl Counters {
    fn new() -> Arc<Counters> {
        Arc::new(Counters {
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_jobs: AtomicU64::new(0),
            latency: LatencyHistogram::new(),
        })
    }
}

/// Point-in-time view of the whole pipeline: per-stage queue state plus
/// end-to-end job accounting and the latency distribution.
#[derive(Clone, Debug)]
pub struct ServerSnapshot {
    /// Edge snapshots in pipeline order: admission, batches, completions.
    pub stages: Vec<StageSnapshot>,
    /// Jobs accepted by admission.
    pub submitted: u64,
    /// Submissions bounced with [`JobError::QueueFull`].
    pub rejected: u64,
    /// Jobs finished successfully.
    pub completed: u64,
    /// Jobs finished with a typed error (kernel panic).
    pub failed: u64,
    /// Executor batches formed.
    pub batches: u64,
    /// Jobs carried by those batches (mean batch size = `batched_jobs /
    /// batches`).
    pub batched_jobs: u64,
    /// Submit→completion latency distribution over successful jobs:
    /// `count`, `mean` and `max` exact, quantiles within 1% (read from
    /// a fixed-size log-bucketed histogram, so the record never grows).
    pub latency: LatencyStats,
}

/// The serve front end. `start` spawns the stage threads; `submit` is
/// safe from any number of threads; dropping the server (or calling
/// [`Server::shutdown`]) drains in-flight jobs and joins the stages.
pub struct Server {
    cfg: ServeConfig,
    ingress: Mutex<Option<StageSender<Job>>>,
    next_id: AtomicU64,
    counters: Arc<Counters>,
    edges: [Arc<StageStats>; 3],
    stages: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Spawns the pipeline.
    pub fn start(cfg: ServeConfig) -> Server {
        let cfg = ServeConfig::new(cfg.queue, cfg.batch, cfg.lanes);
        let (in_tx, in_rx, admission) = stage::channel("admission", cfg.queue);
        // Interior bound of 2: enough to keep the executor fed while the
        // batcher forms the next batch, small enough that executor
        // stalls reach the admission queue almost immediately.
        let (b_tx, b_rx, batches) = stage::channel("batches", 2);
        let (c_tx, c_rx, completions) = stage::channel("completions", cfg.queue.max(4));
        let counters = Counters::new();

        let stages = vec![
            stage::spawn(Box::new(Batcher {
                rx: in_rx,
                tx: b_tx,
                max_batch: cfg.batch,
                pending: VecDeque::new(),
                stats: Arc::clone(&admission),
            })),
            stage::spawn(Box::new(Executor {
                rx: b_rx,
                tx: c_tx,
                lanes: cfg.lanes,
                stats: Arc::clone(&batches),
                counters: Arc::clone(&counters),
            })),
            stage::spawn(Box::new(Completion {
                rx: c_rx,
                stats: Arc::clone(&completions),
                counters: Arc::clone(&counters),
            })),
        ];

        Server {
            cfg,
            ingress: Mutex::new(Some(in_tx)),
            next_id: AtomicU64::new(0),
            counters,
            edges: [admission, batches, completions],
            stages: Mutex::new(stages),
        }
    }

    /// Convenience: `start(ServeConfig::from_env())`.
    pub fn start_from_env() -> Server {
        Server::start(ServeConfig::from_env())
    }

    /// The sizing this server runs with.
    pub fn config(&self) -> ServeConfig {
        self.cfg
    }

    /// Submits a job. Never blocks on a full pipeline: a full admission
    /// queue returns [`JobError::QueueFull`] immediately, and a server
    /// in shutdown returns [`JobError::ShuttingDown`].
    pub fn submit(&self, req: JobRequest) -> Result<JobHandle, JobError> {
        let guard = self.ingress.lock().expect("serve ingress lock");
        let Some(tx) = guard.as_ref() else {
            return Err(JobError::ShuttingDown);
        };
        let id = JobId(self.next_id.fetch_add(1, Ordering::Relaxed));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let key = batch_key(&req.spec, req.grid.h(), req.grid.w());
        let job = Job {
            spec: req.spec,
            grid: req.grid,
            sweeps: req.sweeps,
            fault: req.fault,
            key,
            submitted: Instant::now(),
            done: done_tx,
        };
        match tx.try_send(job) {
            Ok(()) => {
                self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                Ok(JobHandle { id, rx: done_rx })
            }
            Err(TrySend::Full(_)) => {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                Err(JobError::QueueFull {
                    capacity: self.cfg.queue,
                })
            }
            Err(TrySend::Closed(_)) => Err(JobError::ShuttingDown),
        }
    }

    /// Stops accepting new jobs, drains everything already admitted
    /// through the pipeline, and joins the stage threads. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&self) {
        // Dropping the only ingress sender closes the admission edge;
        // each stage drains its queue and drops its downstream sender in
        // turn, so the close cascades to the completion stage.
        drop(self.ingress.lock().expect("serve ingress lock").take());
        let handles: Vec<_> = self
            .stages
            .lock()
            .expect("serve stage handles lock")
            .drain(..)
            .collect();
        for h in handles {
            // A stage panic already failed its jobs via dropped reply
            // channels; surface nothing extra here (shutdown runs in
            // drop contexts).
            let _ = h.join();
        }
    }

    /// Current pipeline state (queue depths, service times, job
    /// accounting, latency distribution).
    pub fn snapshot(&self) -> ServerSnapshot {
        ServerSnapshot {
            stages: self.edges.iter().map(|e| e.snapshot()).collect(),
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            batched_jobs: self.counters.batched_jobs.load(Ordering::Relaxed),
            latency: self.counters.latency.stats(),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Stage 2: groups admitted jobs by batch key. Pulls greedily from the
/// admission queue (blocking only when it has nothing buffered), then
/// flushes the front job's key-group as one batch. Submission order is
/// preserved within a key and across flushes of the buffer.
struct Batcher {
    rx: StageReceiver<Job>,
    tx: StageSender<Batch>,
    max_batch: usize,
    pending: VecDeque<Job>,
    stats: Arc<StageStats>,
}

impl Batcher {
    /// Flushes one batch (the front job's key-group, capped at
    /// `max_batch`); `Err` when the executor hung up.
    fn flush_front(&mut self) -> Result<(), ()> {
        let t0 = Instant::now();
        let key = self
            .pending
            .front()
            .expect("flush needs pending")
            .key
            .clone();
        let mut jobs = Vec::new();
        let mut rest = VecDeque::with_capacity(self.pending.len());
        for job in self.pending.drain(..) {
            if jobs.len() < self.max_batch && job.key == key {
                jobs.push(job);
            } else {
                rest.push_back(job);
            }
        }
        self.pending = rest;
        // Blocking send: executor backpressure stalls the batcher here,
        // which in turn leaves jobs in the admission queue — the stall
        // is visible as this edge's busy time.
        let sent = self.tx.send(Batch { jobs }).map_err(|_| ());
        self.stats.add_busy(t0.elapsed());
        sent
    }
}

impl Context for Batcher {
    fn name(&self) -> &'static str {
        "batcher"
    }

    fn run(&mut self) {
        loop {
            if self.pending.is_empty() {
                match self.rx.recv() {
                    Some(job) => self.pending.push_back(job),
                    None => break, // ingress closed and drained
                }
            }
            // Coalesce whatever is already queued, up to one batch's
            // worth beyond the buffer, without waiting for more traffic.
            while self.pending.len() < self.max_batch {
                match self.rx.try_recv() {
                    Some(job) => self.pending.push_back(job),
                    None => break,
                }
            }
            if self.flush_front().is_err() {
                return;
            }
        }
        // Shutdown drain: flush everything still buffered.
        while !self.pending.is_empty() {
            if self.flush_front().is_err() {
                return;
            }
        }
    }
}

/// Stage 3: executes batches. Resolves the dispatch and the lane count
/// once per batch (the batch key guarantees both are uniform), runs
/// each resident job whole on this thread and shards each streaming
/// grid across `lanes` bands of the global ThreadPool (ghost
/// recomputation, no halo exchange), and contains kernel panics to the
/// failing job.
struct Executor {
    rx: StageReceiver<Batch>,
    tx: StageSender<Done>,
    lanes: usize,
    stats: Arc<StageStats>,
    counters: Arc<Counters>,
}

impl Context for Executor {
    fn name(&self) -> &'static str {
        "executor"
    }

    fn run(&mut self) {
        while let Some(batch) = self.rx.recv() {
            let t0 = Instant::now();
            self.counters.batches.fetch_add(1, Ordering::Relaxed);
            self.counters
                .batched_jobs
                .fetch_add(batch.jobs.len() as u64, Ordering::Relaxed);
            // One dispatch resolution per batch — the whole point of
            // batching by plan key. The (threads = 1, f64) query is the
            // same one direct apply_2d makes, pinning bit-identity.
            let first = batch.jobs.first().expect("batches are non-empty");
            let (h, w) = (first.grid.h(), first.grid.w());
            let dispatch = Dispatch::for_sweep_dtype(&first.spec, h, w, 1, Dtype::F64);
            let lanes = job_lanes(self.lanes, h, w);
            for job in batch.jobs {
                let result = run_job(self.lanes, lanes, dispatch, &job);
                let fin = Done {
                    submitted: job.submitted,
                    done: job.done,
                    result,
                };
                if self.tx.send(fin).is_err() {
                    return; // completion stage gone
                }
            }
            self.stats.add_busy(t0.elapsed());
        }
    }
}

/// Lanes a job on an `h × w` grid runs on, given the server's
/// configured `lanes`: one for a cache-resident grid, whose pool
/// hand-off would cost about as much as the job, and all of them for a
/// streaming grid, which the band split speeds up. A function of the
/// shape class alone, which the batch key embeds, so it is one decision
/// per batch.
fn job_lanes(lanes: usize, h: usize, w: usize) -> usize {
    match ShapeClass::of_dtype(h, w, Dtype::F64) {
        ShapeClass::Resident => 1,
        ShapeClass::Streaming => lanes,
    }
}

/// Executes one job on `lanes` lanes, containing panics to a typed
/// error. Single-sweep jobs run the band-parallel kernel; multi-sweep
/// jobs run the temporal executor (bit-identical to repeated `apply_2d`
/// by construction). With `lanes == 1` both run whole on the calling
/// thread — the call a direct single-thread execution makes.
///
/// A [`Fault::Panic`] panics on the highest lane of a `pool_lanes`-wide
/// pool job — the server's configured width, not the job's — so with
/// `pool_lanes ≥ 2` it unwinds inside a pool worker and drives the
/// pool's `LANE_PANICKED` containment, even for a job that itself runs
/// on one lane.
fn run_job(
    pool_lanes: usize,
    lanes: usize,
    dispatch: Dispatch,
    job: &Job,
) -> Result<Grid2d, JobError> {
    let pool = ThreadPool::global();
    let (spec, grid) = (&job.spec, &job.grid);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        match &job.fault {
            Some(Fault::Panic) => {
                pool.run(pool_lanes, &|lane, lanes| {
                    if lane + 1 == lanes {
                        panic!("injected serve fault: kernel panic on lane {lane}");
                    }
                });
            }
            Some(Fault::Hold(hold)) => hold.enter_and_wait(),
            None => {}
        }
        if job.sweeps == 1 {
            let mut out = grid.halo_image();
            native::apply_2d_parallel_in(pool, dispatch, spec, grid, &mut out, lanes);
            out
        } else {
            native::time_steps_temporal_in(
                pool,
                dispatch,
                spec,
                grid,
                job.sweeps,
                lanes,
                Temporal::default(),
            )
        }
    }));
    outcome.map_err(|payload| JobError::Panicked(panic_text(payload.as_ref())))
}

/// Best-effort panic payload rendering for [`JobError::Panicked`].
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Stage 4: records completion accounting and hands each result back to
/// its submitter (a dropped handle is fine — the send just fails).
struct Completion {
    rx: StageReceiver<Done>,
    stats: Arc<StageStats>,
    counters: Arc<Counters>,
}

impl Context for Completion {
    fn name(&self) -> &'static str {
        "completion"
    }

    fn run(&mut self) {
        while let Some(fin) = self.rx.recv() {
            let t0 = Instant::now();
            match &fin.result {
                Ok(_) => {
                    self.counters.completed.fetch_add(1, Ordering::Relaxed);
                    self.counters.latency.record(fin.submitted.elapsed());
                }
                Err(_) => {
                    self.counters.failed.fetch_add(1, Ordering::Relaxed);
                }
            }
            let _ = fin.done.send(fin.result);
            self.stats.add_busy(t0.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hstencil_core::presets;

    #[test]
    fn env_knob_parsing_is_strict() {
        assert_eq!(parse_knob(""), Ok(None));
        assert_eq!(parse_knob("   "), Ok(None));
        assert_eq!(parse_knob("8"), Ok(Some(8)));
        assert_eq!(parse_knob(" 128 "), Ok(Some(128)));
        assert_eq!(parse_knob("0"), Err(()), "zero would deadlock the pipeline");
        assert_eq!(parse_knob("-3"), Err(()));
        assert_eq!(parse_knob("many"), Err(()));
    }

    #[test]
    fn batch_keys_group_by_plan_and_width_class() {
        let star = presets::star2d5p();
        let boxs = presets::box2d9p();
        // Same stencil, same resident class, same width bucket → same key.
        assert_eq!(batch_key(&star, 64, 64), batch_key(&star, 96, 96));
        // Different stencils never share a batch.
        assert_ne!(batch_key(&star, 64, 64), batch_key(&boxs, 64, 64));
        // Width buckets split where the dispatch heuristics split.
        assert_ne!(batch_key(&star, 64, 3), batch_key(&star, 64, 6));
        assert_ne!(batch_key(&star, 64, 6), batch_key(&star, 64, 64));
        // Crossing the streaming threshold changes the plan key.
        assert_ne!(batch_key(&star, 64, 64), batch_key(&star, 2048, 2048));
        // The key embeds the v3 tuner plan key (dtype segment and all).
        assert!(
            batch_key(&star, 64, 64).contains("/f64/"),
            "{}",
            batch_key(&star, 64, 64)
        );
    }

    #[test]
    fn resident_batches_run_on_one_lane_and_streaming_batches_split() {
        for lanes in [1, 2, 4] {
            // 512² f64 double-buffered is exactly the 4 MiB boundary.
            assert_eq!(job_lanes(lanes, 512, 512), 1);
            assert_eq!(job_lanes(lanes, 513, 512), lanes);
            assert_eq!(job_lanes(lanes, 768, 400), lanes);
            for class in crate::loadgen::standard_classes() {
                assert_eq!(job_lanes(lanes, class.h, class.w), 1, "{}", class.name);
            }
        }
    }

    #[test]
    fn an_injected_panic_spans_the_configured_lanes_not_the_jobs() {
        let spec = presets::star2d5p();
        let grid = Grid2d::from_fn(40, 56, 1, |i, j| (i * 56 + j) as f64);
        assert_eq!(job_lanes(2, grid.h(), grid.w()), 1, "a resident job");
        let dispatch = Dispatch::for_sweep_dtype(&spec, grid.h(), grid.w(), 1, Dtype::F64);
        let (done, _rx) = std::sync::mpsc::channel();
        let job = Job {
            key: batch_key(&spec, grid.h(), grid.w()),
            spec,
            grid,
            sweeps: 1,
            fault: Some(Fault::Panic),
            submitted: Instant::now(),
            done,
        };
        // Two configured lanes: the panic unwinds in a pool worker and
        // comes back as the pool's LANE_PANICKED re-raise...
        match run_job(2, 1, dispatch, &job) {
            Err(JobError::Panicked(msg)) => assert!(msg.contains("pool worker panicked"), "{msg}"),
            other => panic!("expected a contained worker panic, got {other:?}"),
        }
        // ...one configured lane: it unwinds inline on this thread.
        match run_job(1, 1, dispatch, &job) {
            Err(JobError::Panicked(msg)) => assert!(msg.contains("injected serve fault"), "{msg}"),
            other => panic!("expected a contained inline panic, got {other:?}"),
        }
    }

    #[test]
    fn config_clamps_to_workable_minima() {
        let cfg = ServeConfig::new(0, 0, 0);
        assert_eq!((cfg.queue, cfg.batch, cfg.lanes), (1, 1, 1));
    }
}
