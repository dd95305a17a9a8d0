//! The `serve_mixed` workload: `loadgen::standard_classes` through
//! `Server`, each phase on a fresh server so its snapshot covers that
//! phase alone:
//!
//! - a closed loop with 32 jobs outstanding (callers that each wait for
//!   their reply): the capacity;
//! - an open loop, Poisson arrivals at 2k jobs/s (independent users):
//!   the latency;
//! - an open loop at 8k jobs/s, about half the closed-loop capacity on
//!   the reference host, where batching starts to matter.
//!
//! One generator thread submits and one collector thread waits, so the
//! load comes from two threads of this process. The admission queue
//! holds 1024 jobs, enough to absorb a 100 ms host stall at 8k/s
//! without a rejection the server did not cause.
//!
//! The capacity is the median over the closed loop's 500-job windows and
//! the latency the median of the 2k/s chunks' p50s, which ignore slow
//! phases of the host that cover less than half the run.

use crate::host::{self, Roofline};
use crate::stats::{median, percentile, samples_beyond};
use crate::sweeps::{self, Case};
use crate::trace::Trace;
use crate::{Ctx, Metric, Outcome};
use hstencil_core::native::threads;
use hstencil_core::Grid2d;
use hstencil_serve::loadgen::{grid_for, standard_classes, JobClass};
use hstencil_serve::{job_for, reference_result, JobHandle, ServeConfig, Server, ServerSnapshot};
use hstencil_testkit::load::{schedule, Arrival, ScheduleSpec};
use hstencil_testkit::{Rng, SplitMix64, Xoshiro256};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Offered rates of the two open-loop phases, jobs/s.
const RATES: [f64; 2] = [2000.0, 8000.0];
/// Jobs in flight in the closed-loop phase.
const OUTSTANDING: usize = 32;
/// Every job whose sequence number is a multiple of this is checked.
const CHECK_EVERY: u64 = 64;
/// Completions per closed-loop throughput window.
const WINDOW_JOBS: usize = 500;
/// Completions per second the closed loop has room to record: four
/// times the reference host's capacity.
const MAX_JOBS_PER_S: f64 = 60_000.0;

/// The serve-layer metrics, which the native workloads report as 0:
/// their runs submit no job.
const SERVE_LAYER: [(&str, &str); 12] = [
    ("loadgen.lag_p99_ms_2k", "ms"),
    ("loadgen.lag_p99_ms_8k", "ms"),
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p99", "us"),
    ("serve.admission_busy_frac_8k", "ratio"),
    ("serve.batches_busy_frac_8k", "ratio"),
    ("serve.completions_busy_frac_8k", "ratio"),
    ("serve.mean_batch_8k", "jobs"),
    ("serve.mean_batch_max", "jobs"),
    ("serve.p99_ms_2k", "ms"),
    ("serve.p50_ms_8k", "ms"),
    ("serve.p99_ms_8k", "ms"),
];

pub fn absent_metrics() -> Vec<Metric> {
    SERVE_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, 0.0, unit))
        .collect()
}

fn config() -> ServeConfig {
    ServeConfig::new(1024, 8, threads::auto())
}

fn cells(class: &JobClass) -> u64 {
    (class.h * class.w * class.sweeps) as u64
}

/// A 64-bit FNV-1a fingerprint of a grid's interior bits: checked
/// results are kept as this, not as grids, so checking adds no memory
/// that grows with the job count.
fn fingerprint(g: &Grid2d) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..g.h() as isize {
        for j in 0..g.w() as isize {
            h = (h ^ g.at(i, j).to_bits()).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// How a phase offers its load.
#[derive(Clone, Copy)]
enum Pace<'a> {
    Open(&'a [Arrival]),
    Closed { seed: u64, secs: f64, cap: u64 },
}

impl Pace<'_> {
    /// Upper bound on the jobs the phase submits.
    fn max_jobs(&self) -> usize {
        match self {
            Pace::Open(arrivals) => arrivals.len(),
            Pace::Closed { secs, cap, .. } => {
                ((secs * MAX_JOBS_PER_S) as usize + 16).min(*cap as usize)
            }
        }
    }
}

/// A phase's sample storage, touched before the memory baseline is
/// read.
struct Record {
    lag_s: Vec<f64>,
    submit_s: Vec<f64>,
    /// (completion second since the phase started, cells) per job.
    done: Vec<(f64, u64)>,
    /// (arrival, result fingerprint) of every checked job.
    kept: Vec<(Arrival, u64)>,
}

impl Record {
    fn for_pace(pace: &Pace) -> Record {
        let n = pace.max_jobs();
        let none = Arrival {
            seq: 0,
            at_ns: 0,
            class: 0,
            job_seed: 0,
        };
        Record {
            lag_s: host::touched(n, 0.0),
            submit_s: host::touched(n, 0.0),
            done: host::touched(n, (0.0, 0)),
            kept: host::touched(n / CHECK_EVERY as usize + 1, (none, 0)),
        }
    }
}

/// What one phase did.
struct Phase {
    wall_s: f64,
    snap: ServerSnapshot,
    attempted: u64,
    rejected: u64,
    errors: u64,
    rec: Record,
    trace: Trace,
}

impl Phase {
    /// Checked jobs whose result is not bit-identical to the direct
    /// single-thread execution.
    fn wrong(&self, classes: &[JobClass]) -> u64 {
        let mut wrong = 0;
        for (arr, got) in &self.rec.kept {
            let class = &classes[arr.class];
            let want = reference_result(&class.spec, &grid_for(classes, arr), class.sweeps);
            if fingerprint(&want) != *got {
                eprintln!("benchmark: WRONG RESULT: served job {}", arr.seq);
                wrong += 1;
            }
        }
        wrong
    }

    /// Cell updates per second of each run of [`WINDOW_JOBS`]
    /// consecutive completions.
    fn window_rates(&self) -> Vec<f64> {
        let done = &self.rec.done;
        (WINDOW_JOBS..done.len())
            .step_by(WINDOW_JOBS)
            .map(|end| {
                let start = end - WINDOW_JOBS;
                let cells: u64 = done[start + 1..=end].iter().map(|d| d.1).sum();
                cells as f64 / (done[end].0 - done[start].0)
            })
            .collect()
    }
}

/// Jobs per executor batch over `phases` together.
fn mean_batch<'a>(phases: impl IntoIterator<Item = &'a Phase>) -> f64 {
    let (mut jobs, mut batches) = (0, 0);
    for p in phases {
        jobs += p.snap.batched_jobs;
        batches += p.snap.batches;
    }
    jobs as f64 / batches.max(1) as f64
}

/// Completed cell updates per second over `phases` together.
fn cells_per_s(phases: &[Phase]) -> f64 {
    let cells: u64 = phases.iter().flat_map(|p| &p.rec.done).map(|d| d.1).sum();
    cells as f64 / phases.iter().map(|p| p.wall_s).sum::<f64>()
}

/// Runs one phase against a fresh server. When `trace` is on, the
/// generator records a span per arrival (building the job,
/// `Server::submit`) and the collector one per `JobHandle::wait`, with
/// `req_base` plus the job's sequence number as request id.
fn drive(classes: &[JobClass], pace: Pace, trace: &Trace, req_base: u64, rec: Record) -> Phase {
    let Record {
        mut lag_s,
        mut submit_s,
        done,
        kept,
    } = rec;
    let server = Server::start(config());
    let start = Instant::now();
    let slots = (Mutex::new(0usize), Condvar::new());
    let closed = matches!(pace, Pace::Closed { .. });
    let (tx, rx) = mpsc::channel::<(Arrival, JobHandle)>();
    let mut gen = trace.fresh();
    let (mut attempted, mut rejected) = (0u64, 0u64);

    let (done, kept, errors, collected) = std::thread::scope(|s| {
        let slots = &slots;
        let mut tr = trace.fresh();
        let (mut done, mut kept) = (done, kept);
        let collector = s.spawn(move || {
            let mut errors = 0u64;
            for (arr, handle) in rx {
                let result = tr.span("JobHandle::wait", req_base + arr.seq, || handle.wait());
                if closed {
                    *slots.0.lock().expect("slot lock") -= 1;
                    slots.1.notify_one();
                }
                match result {
                    Ok(grid) => {
                        let at = start.elapsed().as_secs_f64();
                        done.push((at, cells(&classes[arr.class])));
                        if arr.seq % CHECK_EVERY == 0 {
                            kept.push((arr, fingerprint(&grid)));
                        }
                    }
                    Err(e) => {
                        eprintln!("benchmark: served job {} failed: {e}", arr.seq);
                        errors += 1;
                    }
                }
            }
            (done, kept, errors, tr)
        });

        let mut submit = |arr: Arrival, due: Instant| -> bool {
            attempted += 1;
            let req = req_base + arr.seq;
            let span = gen.enter("arrival", req);
            let job = gen.span("job_for", req, || job_for(classes, &arr));
            let t0 = Instant::now();
            let admitted = gen.span("Server::submit", req, || server.submit(job));
            submit_s.push(t0.elapsed().as_secs_f64());
            gen.exit(span);
            lag_s.push(t0.saturating_duration_since(due).as_secs_f64());
            match admitted {
                Ok(handle) => {
                    tx.send((arr, handle))
                        .expect("collector outlives the generator");
                    true
                }
                Err(e) => {
                    eprintln!("benchmark: job {} not admitted: {e}", arr.seq);
                    rejected += 1;
                    false
                }
            }
        };
        match pace {
            Pace::Open(arrivals) => {
                for arr in arrivals {
                    let due = start + Duration::from_nanos(arr.at_ns);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    submit(*arr, due);
                }
            }
            Pace::Closed { seed, secs, .. } => {
                let mut rng = Xoshiro256::seed_from_u64(seed);
                let mut seq = 0;
                while (seq as usize) < pace.max_jobs() && start.elapsed().as_secs_f64() < secs {
                    let mut inflight = slots.0.lock().expect("slot lock");
                    while *inflight >= OUTSTANDING {
                        inflight = slots.1.wait(inflight).expect("slot lock");
                    }
                    *inflight += 1;
                    drop(inflight);
                    let arr = Arrival {
                        seq,
                        at_ns: start.elapsed().as_nanos() as u64,
                        class: rng.gen_below(classes.len() as u64) as usize,
                        job_seed: SplitMix64::nth_from(seed, seq),
                    };
                    if !submit(arr, Instant::now()) {
                        *slots.0.lock().expect("slot lock") -= 1;
                    }
                    seq += 1;
                }
            }
        }
        drop(tx);
        collector.join().expect("collector thread panicked")
    });
    let wall_s = start.elapsed().as_secs_f64();
    let snap = server.snapshot();
    server.shutdown();
    gen.absorb(collected);
    Phase {
        wall_s,
        snap,
        attempted,
        rejected,
        errors,
        rec: Record {
            lag_s,
            submit_s,
            done,
            kept,
        },
        trace: gen,
    }
}

/// An open-loop schedule at `rate` jobs/s, `secs` long (at most `cap`
/// jobs); `stream` picks an independent seed stream.
fn open_schedule(seed: u64, stream: u64, rate: f64, secs: f64, cap: u64) -> Vec<Arrival> {
    let spec = ScheduleSpec {
        jobs: ((rate * secs) as u64).clamp(1, cap),
        mean_gap_ns: (1e9 / rate) as u64,
        classes: standard_classes().len(),
    };
    schedule(SplitMix64::nth_from(seed, stream), &spec)
}

/// `Server::start` to the first job's result, the job built beforehand.
fn cold_start(classes: &[JobClass], first: &Arrival) -> f64 {
    let job = job_for(classes, first);
    let t0 = Instant::now();
    let server = Server::start(config());
    let result = server.submit(job).map(JobHandle::wait);
    let setup_s = t0.elapsed().as_secs_f64();
    server.shutdown();
    match result {
        Ok(Ok(_)) => setup_s,
        Ok(Err(e)) | Err(e) => panic!("the set-up job failed: {e}"),
    }
}

pub fn setup(ctx: &Ctx) -> f64 {
    let first = open_schedule(ctx.seed, 0, RATES[0], 1.0, 1);
    cold_start(&standard_classes(), &first[0])
}

pub fn run(ctx: &Ctx) -> Outcome {
    let roofline = ctx.trace.then(|| Roofline::measure(ctx.triad_bytes));
    let classes = standard_classes();
    // The closed loop and the 2k/s open loop alternate in chunks of
    // about a second, each on a fresh server, so both sample the whole
    // run rather than one block of it: 80% of the run. The 8k/s open
    // loop takes the last 20%. A traced run traces every other pair of
    // chunks; the untraced ones are the tracing-overhead reference.
    let pairs = ((0.4 * ctx.seconds).round() as u64).max(if ctx.trace { 2 } else { 1 });
    let chunk_s = 0.4 * ctx.seconds / pairs as f64;
    let closed = |k: u64| Pace::Closed {
        seed: SplitMix64::nth_from(ctx.seed, 100 + k),
        secs: chunk_s,
        cap: ctx.serve_cap,
    };
    let open2k: Vec<Vec<Arrival>> = (0..pairs)
        .map(|k| open_schedule(ctx.seed, 200 + k, RATES[0], chunk_s, ctx.serve_cap))
        .collect();
    let open8k = open_schedule(ctx.seed, 1, RATES[1], 0.2 * ctx.seconds, ctx.serve_cap);
    let mut first_record = Some(Record::for_pace(&closed(0)));
    let first = open_schedule(ctx.seed, 0, RATES[0], 1.0, 1);
    let rss0 = host::vm_kib("VmRSS");
    let setup_s = cold_start(&classes, &first[0]);

    let trace = if ctx.trace {
        Trace::new(Instant::now())
    } else {
        Trace::off()
    };
    let off = Trace::off();
    let (mut hwm, mut closed_runs, mut open_runs) = (None, Vec::new(), Vec::new());
    for k in 0..pairs {
        let traced = ctx.trace && k % 2 == 0;
        let tr = if traced { &trace } else { &off };
        let pace = closed(k);
        let rec = first_record
            .take()
            .unwrap_or_else(|| Record::for_pace(&pace));
        closed_runs.push((traced, drive(&classes, pace, tr, (100 + k) << 32, rec)));
        // The first closed chunk's load is bounded, unlike an open
        // loop's queue, which grows with every host stall.
        hwm = hwm.or_else(|| host::vm_kib("VmHWM"));
        let pace = Pace::Open(&open2k[k as usize]);
        let rec = Record::for_pace(&pace);
        open_runs.push((traced, drive(&classes, pace, tr, (200 + k) << 32, rec)));
    }
    let pace = Pace::Open(&open8k);
    let mut p8k = drive(&classes, pace, &trace, 1 << 32, Record::for_pace(&pace));

    let phases: Vec<&Phase> = closed_runs
        .iter()
        .chain(&open_runs)
        .map(|(_, p)| p)
        .chain([&p8k])
        .collect();
    let wrong: u64 = phases.iter().map(|p| p.wrong(&classes)).sum();
    let failed = wrong + phases.iter().map(|p| p.rejected + p.errors).sum::<u64>();
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let split = |runs: Vec<(bool, Phase)>| -> (Vec<Phase>, Vec<Phase>) {
        let (traced, plain): (Vec<_>, Vec<_>) = runs.into_iter().partition(|(t, _)| *t);
        let strip = |v: Vec<(bool, Phase)>| v.into_iter().map(|(_, p)| p).collect();
        (strip(traced), strip(plain))
    };
    let (mut closed_traced, closed_plain) = split(closed_runs);
    let (mut open_traced, open_plain) = split(open_runs);
    let rates: Vec<f64> = closed_plain.iter().flat_map(Phase::window_rates).collect();
    // A loop too short for one window reports its overall rate.
    let capacity = if rates.is_empty() {
        cells_per_s(&closed_plain)
    } else {
        median(&rates)
    };
    let p50s: Vec<f64> = open_plain.iter().map(|p| p.snap.latency.p50).collect();
    let p50 = median(&p50s);
    println!(
        "closed loop: {:.0} jobs/s overall, {} windows of {WINDOW_JOBS} jobs, median window {capacity:.4e} cells/s",
        closed_plain.iter().map(|p| p.snap.completed).sum::<u64>() as f64
            / closed_plain.iter().map(|p| p.wall_s).sum::<f64>(),
        rates.len()
    );
    for (name, p) in open_plain.iter().map(|p| ("2k", p)).chain([("8k", &p8k)]) {
        let lat = p.snap.latency;
        println!(
            "open loop {name}: {} jobs in {:.3} s, p50 {:.3} ms, p99 {:.3} ms over {} ({} beyond), \
             mean batch {:.2}, rejected {}",
            p.snap.completed,
            p.wall_s,
            lat.p50 * 1e3,
            lat.p99 * 1e3,
            lat.count,
            samples_beyond(lat.count, 0.99),
            mean_batch([p]),
            p.rejected,
        );
    }

    let Some(roofline) = roofline else {
        return Outcome {
            attempted,
            failed,
            correct: wrong == 0,
            setup_s,
            metrics: vec![
                Metric::new("cells_per_s", capacity, "cells/s"),
                Metric::new("latency_ms", p50 * 1e3, "ms"),
                Metric::new("mem_peak_mib", host::mem_mib(rss0, hwm), "MiB"),
            ],
            trace: None,
        };
    };

    // Probes: each class's job as a direct single-thread call (the
    // bit-identity oracle's path), through the native layer probes.
    let mut cases: Vec<Case> = classes
        .iter()
        .enumerate()
        .map(|(k, c)| {
            let arr = Arrival {
                seq: k as u64,
                at_ns: 0,
                class: k,
                job_seed: SplitMix64::nth_from(ctx.seed, k as u64),
            };
            Case::job(c.name, c.spec.clone(), grid_for(&classes, &arr), c.sweeps)
        })
        .collect();
    let budget = ctx.probe_budget;
    let direct: Vec<f64> = cases
        .iter_mut()
        .map(|c| sweeps::median_time(20, budget, || c.run_default()))
        .collect();
    for (c, t) in cases.iter().zip(&direct) {
        println!("direct {}: {:.3} us", c.name, t * 1e6);
    }
    let layers = sweeps::probe_layers(&mut cases, &direct, &roofline, budget);
    let resolve_ns = layers
        .iter()
        .find(|m| m.name == "dispatch.resolve_ns")
        .expect("the probes time dispatch resolution")
        .value;

    // A 2k/s job: the mix-weighted direct time plus dispatch resolution
    // once per batch; the rest of its p50 is the server's own.
    let arrivals = open2k.iter().flatten();
    let kernel_s = arrivals.clone().map(|a| direct[a.class]).sum::<f64>() / arrivals.count() as f64;
    let (batches, jobs) = open_plain.iter().fold((0, 0), |(b, j), p| {
        (b + p.snap.batches, j + p.snap.completed)
    });
    let dispatch_s = resolve_ns * 1e-9 * batches as f64 / jobs.max(1) as f64;
    let traffic = cases.iter().map(Case::bytes).sum::<f64>() / direct.iter().sum::<f64>() / 1e9;
    let pooled = |phases: &[&Phase], f: fn(&Record) -> &Vec<f64>| -> Vec<f64> {
        phases
            .iter()
            .flat_map(|p| f(&p.rec).iter().copied())
            .collect()
    };
    let traced_open: Vec<&Phase> = open_traced.iter().collect();
    let lag2k = pooled(&traced_open, |r| &r.lag_s);
    let submits = pooled(&[traced_open.as_slice(), &[&p8k]].concat(), |r| &r.submit_s);
    let p99s: Vec<f64> = open_plain.iter().map(|p| p.snap.latency.p99).collect();
    let mut tr = trace;
    for p in open_traced
        .iter_mut()
        .chain(&mut closed_traced)
        .chain([&mut p8k])
    {
        tr.absorb(std::mem::replace(&mut p.trace, Trace::off()));
    }
    let busy = |k: usize| p8k.snap.stages[k].busy.as_secs_f64() / p8k.wall_s;
    sweeps::print_spans(&tr);
    let mut metrics = roofline.metrics();
    metrics.extend(layers);
    metrics.extend([
        Metric::new("call.dispatch_us", dispatch_s * 1e6, "us"),
        Metric::new("call.kernel_us", kernel_s * 1e6, "us"),
        Metric::new(
            "call.unexplained_pct",
            (p50 - dispatch_s - kernel_s) / p50 * 100.0,
            "%",
        ),
        Metric::new("mem.gbs", traffic, "GB/s"),
        Metric::new("mem.pct_of_triad", traffic / roofline.triad_t1 * 100.0, "%"),
        Metric::new(
            "trace.overhead_pct",
            (1.0 - cells_per_s(&closed_traced) / cells_per_s(&closed_plain)) * 100.0,
            "%",
        ),
        Metric::new("trace.spans", tr.spans().len() as f64, "count"),
        Metric::new(
            "loadgen.lag_p99_ms_2k",
            percentile(&lag2k, 0.99) * 1e3,
            "ms",
        ),
        Metric::new(
            "loadgen.lag_p99_ms_8k",
            percentile(&p8k.rec.lag_s, 0.99) * 1e3,
            "ms",
        ),
        Metric::new("serve.submit_us_p50", median(&submits) * 1e6, "us"),
        Metric::new(
            "serve.submit_us_p99",
            percentile(&submits, 0.99) * 1e6,
            "us",
        ),
        Metric::new("serve.admission_busy_frac_8k", busy(0), "ratio"),
        Metric::new("serve.batches_busy_frac_8k", busy(1), "ratio"),
        Metric::new("serve.completions_busy_frac_8k", busy(2), "ratio"),
        Metric::new("serve.mean_batch_8k", mean_batch([&p8k]), "jobs"),
        Metric::new("serve.mean_batch_max", mean_batch(&closed_plain), "jobs"),
        Metric::new("serve.p99_ms_2k", median(&p99s) * 1e3, "ms"),
        Metric::new("serve.p50_ms_8k", p8k.snap.latency.p50 * 1e3, "ms"),
        Metric::new("serve.p99_ms_8k", p8k.snap.latency.p99 * 1e3, "ms"),
    ]);
    Outcome {
        attempted,
        failed,
        correct: wrong == 0,
        setup_s,
        metrics,
        trace: Some(tr),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedules() {
        let a = open_schedule(9, 1, 2000.0, 0.1, 1000);
        assert_eq!(a, open_schedule(9, 1, 2000.0, 0.1, 1000));
        assert_ne!(a, open_schedule(10, 1, 2000.0, 0.1, 1000));
        assert_ne!(a, open_schedule(9, 2, 2000.0, 0.1, 1000));
        assert_eq!(a.len(), 200);
        assert!(a.iter().all(|arr| arr.class < 6));
    }

    #[test]
    fn a_perturbed_served_result_is_caught() {
        let classes = standard_classes();
        let arrivals = open_schedule(4, 0, 1e6, 2e-4, 130);
        let pace = Pace::Open(&arrivals);
        let mut phase = drive(&classes, pace, &Trace::off(), 0, Record::for_pace(&pace));
        assert_eq!(phase.rec.kept.len(), 3, "jobs 0, 64 and 128 are checked");
        assert_eq!(phase.wrong(&classes), 0);
        phase.rec.kept[1].1 ^= 1;
        assert_eq!(phase.wrong(&classes), 1);
    }
}
