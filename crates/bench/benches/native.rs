//! Wall-clock benchmark of the **native executor v2** — the first point
//! on the repo's real-hardware perf trajectory (ISSUE 2). Unlike
//! `benches/kernels.rs`, nothing here is simulated: these are host
//! wall-clock numbers for `hstencil_core::native`.
//!
//! Covers in-cache (256²) and out-of-cache (4096², 192³) grids for
//! star2d5p, box2d9p and heat3d, the persistent-pool parallel path, and
//! three kernel generations side by side:
//!
//! * `seed`   — the frozen seed executor (`native::baseline`),
//! * `scalar` — the v2 `mul_add` chain, forced scalar dispatch,
//! * the detected best dispatch (`avx2+fma` on x86-64).
//!
//! Two element-genericity groups ride along (DESIGN.md §12):
//! `native2d_f32` times the best schedule at f32 vs f64 (the in-cache
//! ratio is gated by `check_bench_json --gate-f32`), and
//! `native2d_avx512` times the AVX-512 trait instances against the
//! AVX2 ones at both element widths — recorded only on hosts with
//! `avx512f`, absent (with a printed notice) elsewhere.
//!
//! Writes `BENCH_native.json` at the repository root via the testkit
//! JSON writer; `--out=PATH` redirects the artifact (note the `=` form —
//! a bare path argument would be taken as the harness bench filter).
//! `scripts/verify.sh` runs this bench in smoke mode (`-- --smoke`, one
//! sample) with `--out=` pointed at a scratch file under `target/`, so
//! smoke numbers never clobber the committed trajectory baseline, and
//! gates on that file parsing with the testkit JSON reader
//! (`check_bench_json`). Later PRs compare their numbers against the
//! repo-root file — regenerate it (full mode, no `--out=`) on the same
//! machine when touching the native executor.

use hstencil_bench::runner::{workload_2d, workload_3d};
use hstencil_core::native::{self, baseline, pool::ThreadPool};
use hstencil_core::{
    presets, Dispatch, Dtype, Grid2d, Grid2dT, Grid3d, NativeElement, StencilSpec,
};
use hstencil_testkit::{Harness, Json, Summary, ToJson};

/// One (stencil, size, sweeps, threads, kernel, dtype) measurement
/// destined for JSON. `sweeps` is 1 for the single-sweep groups and > 1
/// for the multi-sweep (`time_steps`) group; `elems` counts every
/// updated cell across all sweeps so `elems_per_s` stays comparable
/// between the two.
struct Row {
    /// The harness group the measurement ran under ("native2d",
    /// "native2d_tempvec", ...). Recorded in the JSON so artifact
    /// diffing (`bench_diff`) can report whole groups present in only
    /// one artifact instead of silently skipping their cases.
    group: String,
    stencil: String,
    dims: usize,
    size: usize,
    sweeps: usize,
    threads: usize,
    kernel: &'static str,
    dtype: &'static str,
    elems: u64,
    summary: Summary,
}

impl Row {
    fn to_json(&self) -> Json {
        let s = &self.summary;
        Json::object([
            ("group", self.group.to_json()),
            ("stencil", self.stencil.to_json()),
            ("dims", self.dims.to_json()),
            ("size", self.size.to_json()),
            ("sweeps", self.sweeps.to_json()),
            ("threads", self.threads.to_json()),
            ("kernel", self.kernel.to_json()),
            ("dtype", self.dtype.to_json()),
            ("samples", s.samples.to_json()),
            ("median_s", s.median.to_json()),
            ("p10_s", s.p10.to_json()),
            ("p90_s", s.p90.to_json()),
            ("mean_s", s.mean.to_json()),
            ("elems_per_s", (self.elems as f64 / s.median).to_json()),
        ])
    }
}

/// Which kernel generation a 2-D config times.
#[derive(Clone, Copy, PartialEq)]
enum Kernel {
    Seed,
    Forced(Dispatch),
    Best,
}

impl Kernel {
    fn label(self) -> &'static str {
        match self {
            Kernel::Seed => "seed",
            // The dispatch's own label ("scalar", "avx2+fma", "avx512",
            // "hybrid8x8", "tempvec") — the same string the tune cache
            // and HSTENCIL_DISPATCH use.
            Kernel::Forced(d) => d.label(),
            Kernel::Best => Dispatch::detect().label(),
        }
    }
}

/// [`bench_2d`] over an explicit element type. The seed executor is
/// f64-only, so `Kernel::Seed` with `E = f32` is rejected at the call
/// site (no config does this). f64 rows keep the pre-dtype bench id so
/// the recorded trajectory stays diffable; other dtypes insert their
/// label.
#[allow(clippy::too_many_arguments)]
fn bench_2d_e<E: NativeElement>(
    h: &Harness,
    group_name: &str,
    rows: &mut Vec<Row>,
    pool: &ThreadPool,
    spec: &StencilSpec,
    size: usize,
    threads: usize,
    kernel: Kernel,
    warmup: usize,
    samples: usize,
) {
    let grid = Grid2dT::<E>::convert_from(&workload_2d(size, size, spec.radius(), 42));
    let mut out = Grid2dT::<E>::zeros(size, size, spec.radius());
    let elems = (size * size) as u64;
    let group = h
        .group(group_name)
        .warmup(warmup)
        .sample_size(samples)
        .throughput_elems(elems);
    let dtype = E::DTYPE.label();
    let id = if E::DTYPE == Dtype::F64 {
        format!("{}/{}/t{}/{}", spec.name(), size, threads, kernel.label())
    } else {
        format!(
            "{}/{}/t{}/{}/{}",
            spec.name(),
            size,
            threads,
            dtype,
            kernel.label()
        )
    };
    let summary = group.bench(&id, || match kernel {
        Kernel::Seed => unreachable!("seed executor benches go through bench_2d (f64 only)"),
        Kernel::Forced(d) => native::apply_2d_parallel_in(pool, d, spec, &grid, &mut out, threads),
        Kernel::Best => {
            native::apply_2d_parallel_in(pool, Dispatch::detect(), spec, &grid, &mut out, threads)
        }
    });
    if let Some(summary) = summary {
        rows.push(Row {
            group: group_name.to_string(),
            stencil: spec.name().to_string(),
            dims: 2,
            size,
            sweeps: 1,
            threads,
            kernel: kernel.label(),
            dtype,
            elems,
            summary,
        });
    }
}

#[allow(clippy::too_many_arguments)]
fn bench_2d(
    h: &Harness,
    group_name: &str,
    rows: &mut Vec<Row>,
    pool: &ThreadPool,
    spec: &StencilSpec,
    size: usize,
    threads: usize,
    kernel: Kernel,
    warmup: usize,
    samples: usize,
) {
    if kernel != Kernel::Seed {
        bench_2d_e::<f64>(
            h, group_name, rows, pool, spec, size, threads, kernel, warmup, samples,
        );
        return;
    }
    let grid = workload_2d(size, size, spec.radius(), 42);
    let mut out = Grid2d::zeros(size, size, spec.radius());
    let elems = (size * size) as u64;
    let group = h
        .group(group_name)
        .warmup(warmup)
        .sample_size(samples)
        .throughput_elems(elems);
    let id = format!("{}/{}/t{}/{}", spec.name(), size, threads, kernel.label());
    let summary = group.bench(&id, || baseline::apply_2d(spec, &grid, &mut out));
    if let Some(summary) = summary {
        rows.push(Row {
            group: group_name.to_string(),
            stencil: spec.name().to_string(),
            dims: 2,
            size,
            sweeps: 1,
            threads,
            kernel: kernel.label(),
            dtype: "f64",
            elems,
            summary,
        });
    }
}

/// Which multi-sweep executor path a config times.
#[derive(Clone, Copy, PartialEq)]
enum MsKernel {
    /// Naive full-grid ping-pong (`time_steps_in`).
    Naive,
    /// The temporally-tiled trapezoid pipeline (DESIGN.md §9) with
    /// spatial level sweeps inside each tile.
    Temporal,
    /// The same trapezoid walk with the temporally-vectorized fused
    /// wavefront inside interior tiles (DESIGN.md §15).
    TempVec,
}

impl MsKernel {
    fn label(self) -> &'static str {
        match self {
            MsKernel::Naive => "naive",
            MsKernel::Temporal => "temporal",
            MsKernel::TempVec => "tempvec",
        }
    }
}

/// One multi-sweep (`time_steps`) measurement: the naive full-grid
/// ping-pong, the temporally-tiled trapezoid pipeline (DESIGN.md §9)
/// and the tempvec wavefront (DESIGN.md §15) — each forced through its
/// real code path so in-cache sizes measure the pipeline too. The two
/// pipelined paths share the same call shape (auto tile and depth,
/// forced pipeline); only the dispatch differs, so a tempvec-vs-
/// temporal ratio isolates the innermost strategy.
#[allow(clippy::too_many_arguments)]
fn bench_multisweep(
    h: &Harness,
    group_name: &str,
    rows: &mut Vec<Row>,
    pool: &ThreadPool,
    spec: &StencilSpec,
    size: usize,
    sweeps: usize,
    threads: usize,
    kernel: MsKernel,
    warmup: usize,
    samples: usize,
) {
    let grid = workload_2d(size, size, spec.radius(), 42);
    let elems = (size * size * sweeps) as u64;
    let group = h
        .group(group_name)
        .warmup(warmup)
        .sample_size(samples)
        .throughput_elems(elems);
    let id = format!(
        "{}/{}/s{}/t{}/{}",
        spec.name(),
        size,
        sweeps,
        threads,
        kernel.label()
    );
    let pipelined = |dispatch: Dispatch| {
        native::time_steps_temporal_in(
            pool,
            dispatch,
            spec,
            &grid,
            sweeps,
            threads,
            native::Temporal {
                t_block: None,
                force_pipeline: true,
                tile: None,
            },
        )
    };
    let summary = group.bench(&id, || {
        let out = match kernel {
            MsKernel::Naive => {
                native::time_steps_in(pool, Dispatch::detect(), spec, &grid, sweeps, threads)
            }
            MsKernel::Temporal => pipelined(Dispatch::detect()),
            MsKernel::TempVec => pipelined(Dispatch::TempVec),
        };
        std::hint::black_box(&out);
    });
    if let Some(summary) = summary {
        rows.push(Row {
            group: group_name.to_string(),
            stencil: spec.name().to_string(),
            dims: 2,
            size,
            sweeps,
            threads,
            kernel: kernel.label(),
            dtype: "f64",
            elems,
            summary,
        });
    }
}

#[allow(clippy::too_many_arguments)]
fn bench_3d(
    h: &Harness,
    rows: &mut Vec<Row>,
    pool: &ThreadPool,
    spec: &StencilSpec,
    size: usize,
    threads: usize,
    warmup: usize,
    samples: usize,
) {
    let grid = workload_3d(size, size, size, spec.radius(), 42);
    let mut out = Grid3d::zeros(size, size, size, spec.radius());
    let elems = (size * size * size) as u64;
    let group = h
        .group("native3d")
        .warmup(warmup)
        .sample_size(samples)
        .throughput_elems(elems);
    let label = Dispatch::detect().label();
    let id = format!("{}/{}/t{}/{}", spec.name(), size, threads, label);
    let summary = group.bench(&id, || {
        native::apply_3d_parallel_in(pool, Dispatch::detect(), spec, &grid, &mut out, threads)
    });
    if let Some(summary) = summary {
        rows.push(Row {
            group: "native3d".to_string(),
            stencil: spec.name().to_string(),
            dims: 3,
            size,
            sweeps: 1,
            threads,
            kernel: label,
            dtype: "f64",
            elems,
            summary,
        });
    }
}

fn median_of(
    rows: &[Row],
    stencil: &str,
    size: usize,
    sweeps: usize,
    threads: usize,
    kernel: &str,
) -> Option<f64> {
    rows.iter()
        .find(|r| {
            r.stencil == stencil
                && r.size == size
                && r.sweeps == sweeps
                && r.threads == threads
                && r.kernel == kernel
                && r.dtype == "f64"
        })
        .map(|r| r.summary.median)
}

/// Best (smallest) median across every row matching the config — the
/// hybrid group and the main group both record the avx2+fma kernel at
/// the acceptance size, and a ratio should compare best against best.
/// Ratios are always within one dtype.
fn min_median_of(
    rows: &[Row],
    stencil: &str,
    size: usize,
    sweeps: usize,
    threads: usize,
    kernel: &str,
    dtype: &str,
) -> Option<f64> {
    rows.iter()
        .filter(|r| {
            r.stencil == stencil
                && r.size == size
                && r.sweeps == sweeps
                && r.threads == threads
                && r.kernel == kernel
                && r.dtype == dtype
        })
        .map(|r| r.summary.median)
        .min_by(f64::total_cmp)
}

/// Best median at a (size, dtype) across every non-seed kernel — the
/// f32-vs-f64 ratio compares the best schedule each element type has.
fn min_median_any_kernel(rows: &[Row], stencil: &str, size: usize, dtype: &str) -> Option<f64> {
    rows.iter()
        .filter(|r| {
            r.stencil == stencil
                && r.size == size
                && r.sweeps == 1
                && r.threads == 1
                && r.kernel != "seed"
                && r.dtype == dtype
        })
        .map(|r| r.summary.median)
        .min_by(f64::total_cmp)
}

/// The saturated-machine tier's lane counts: 1, 2, 4 and every core the
/// host has, deduped and sorted. Counts above `host_threads` are kept —
/// an oversubscribed curve is still a real measurement (flat-to-negative
/// scaling), and the `--gate-threads` gate skips ratios the recording
/// host could not genuinely parallelize.
fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut v = vec![1, 2, 4, max];
    v.sort_unstable();
    v.dedup();
    v
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let h = Harness::from_args();
    let pool = ThreadPool::new();
    // In-cache configs need a few warmup passes (first-touch faults and
    // frequency ramp dominate a cold ~70 µs run); out-of-cache runs are
    // long enough that one warmup pass suffices.
    let (warm_in, warm_out, n_in, n_out) = if smoke { (0, 0, 1, 1) } else { (3, 1, 9, 7) };
    let mut rows = Vec::new();

    let star = presets::star2d5p();
    let boxs = presets::box2d9p();
    // In-cache 2-D.
    for spec in [&star, &boxs] {
        bench_2d(
            &h,
            "native2d",
            &mut rows,
            &pool,
            spec,
            256,
            1,
            Kernel::Best,
            warm_in,
            n_in,
        );
    }
    bench_2d(
        &h,
        "native2d",
        &mut rows,
        &pool,
        &star,
        256,
        1,
        Kernel::Seed,
        warm_in,
        n_in,
    );
    // Out-of-cache 2-D: the acceptance case (4096² star2d5p) across the
    // three kernel generations plus the pool-parallel path.
    bench_2d(
        &h,
        "native2d",
        &mut rows,
        &pool,
        &star,
        4096,
        1,
        Kernel::Seed,
        warm_out,
        n_out,
    );
    bench_2d(
        &h,
        "native2d",
        &mut rows,
        &pool,
        &star,
        4096,
        1,
        Kernel::Forced(Dispatch::Scalar),
        warm_out,
        n_out,
    );
    bench_2d(
        &h,
        "native2d",
        &mut rows,
        &pool,
        &star,
        4096,
        1,
        Kernel::Best,
        warm_out,
        n_out,
    );
    bench_2d(
        &h,
        "native2d",
        &mut rows,
        &pool,
        &star,
        4096,
        2,
        Kernel::Best,
        warm_out,
        n_out,
    );
    bench_2d(
        &h,
        "native2d",
        &mut rows,
        &pool,
        &boxs,
        4096,
        1,
        Kernel::Best,
        warm_out,
        n_out,
    );
    // Hybrid 8×8 register-tile kernel vs the canonical 2×8 kernel
    // (DESIGN.md §10): in-cache and out-of-cache, star and box, single
    // thread so the ratio isolates the kernel schedule. The canonical
    // side is the detected best bit-exact dispatch (avx2+fma on x86-64,
    // scalar elsewhere — Hybrid always runs, it has a scalar fallback).
    for spec in [&star, &boxs] {
        for size in [256usize, 4096] {
            let (warm, n) = if size <= 256 {
                (warm_in, n_in)
            } else {
                (warm_out, n_out)
            };
            for kernel in [
                Kernel::Forced(Dispatch::detect()),
                Kernel::Forced(Dispatch::Hybrid),
            ] {
                bench_2d(
                    &h,
                    "native2d_hybrid",
                    &mut rows,
                    &pool,
                    spec,
                    size,
                    1,
                    kernel,
                    warm,
                    n,
                );
            }
        }
    }
    // f32 vs f64 (DESIGN.md §12): the same best schedule at half the
    // element width — in-cache the vector kernels retire twice the
    // lanes per FMA, out-of-cache the sweep moves half the bytes. The
    // acceptance gate (`check_bench_json --gate-f32`) pins the in-cache
    // 256² ratio.
    for size in [256usize, 4096] {
        let (warm, n) = if size <= 256 {
            (warm_in, n_in)
        } else {
            (warm_out, n_out)
        };
        bench_2d_e::<f64>(
            &h,
            "native2d_f32",
            &mut rows,
            &pool,
            &star,
            size,
            1,
            Kernel::Best,
            warm,
            n,
        );
        bench_2d_e::<f32>(
            &h,
            "native2d_f32",
            &mut rows,
            &pool,
            &star,
            size,
            1,
            Kernel::Best,
            warm,
            n,
        );
    }
    // AVX-512 vs AVX2 at both element widths. Recorded only where the
    // host has avx512f — the group is absent (with a notice) elsewhere,
    // and gates over it skip rather than fail.
    if Dispatch::avx512_available() {
        for size in [256usize, 4096] {
            let (warm, n) = if size <= 256 {
                (warm_in, n_in)
            } else {
                (warm_out, n_out)
            };
            for kernel in [
                Kernel::Forced(Dispatch::detect()),
                Kernel::Forced(Dispatch::Avx512),
            ] {
                bench_2d_e::<f64>(
                    &h,
                    "native2d_avx512",
                    &mut rows,
                    &pool,
                    &star,
                    size,
                    1,
                    kernel,
                    warm,
                    n,
                );
                bench_2d_e::<f32>(
                    &h,
                    "native2d_avx512",
                    &mut rows,
                    &pool,
                    &star,
                    size,
                    1,
                    kernel,
                    warm,
                    n,
                );
            }
        }
    } else {
        println!("native2d_avx512 group skipped: host lacks avx512f");
    }
    // Multi-sweep (sweeps=8): naive ping-pong vs the temporal trapezoid
    // pipeline, in-cache through out-of-cache (the acceptance case is
    // 4096², where naive is DRAM-bound and fusing 8 steps pays off).
    const SWEEPS: usize = 8;
    for size in [256usize, 2048, 4096] {
        let (warm, n) = if size <= 256 {
            (warm_in, n_in)
        } else {
            (warm_out, n_out)
        };
        for kernel in [MsKernel::Naive, MsKernel::Temporal] {
            bench_multisweep(
                &h,
                "native2d_sweeps",
                &mut rows,
                &pool,
                &star,
                size,
                SWEEPS,
                1,
                kernel,
                warm,
                n,
            );
        }
    }
    // Temporal vectorization (ISSUE 10, DESIGN.md §15): the fused
    // cross-time-step wavefront against the spatial trapezoid pipeline
    // at the multi-sweep acceptance shapes (its `temporal` denominators
    // are the native2d_sweeps rows above — same call shape, only the
    // dispatch differs). Gated on AVX2: the wavefront's payoff flows
    // through its vector bodies, so scalar hosts skip with a notice
    // and the `--gate-tempvec` checks over the group skip rather than
    // fail.
    if Dispatch::avx2_available() {
        for size in [2048usize, 4096] {
            bench_multisweep(
                &h,
                "native2d_tempvec",
                &mut rows,
                &pool,
                &star,
                size,
                SWEEPS,
                1,
                MsKernel::TempVec,
                warm_out,
                n_out,
            );
        }
    } else {
        println!("native2d_tempvec group skipped: host lacks AVX2");
    }

    // 3-D (heat3d): in-cache-ish and out-of-cache.
    let heat3 = presets::heat3d();
    bench_3d(&h, &mut rows, &pool, &heat3, 64, 1, warm_in, n_in);
    bench_3d(&h, &mut rows, &pool, &heat3, 192, 1, warm_out, n_out);

    // Saturated-machine tier (ISSUE 6): the out-of-cache acceptance
    // shapes at 1/2/4/all-core lane counts, one scaling curve per
    // executor path — single-sweep best kernel (star + box), the hybrid
    // 8×8 kernel (its staged-NT store policy is lane-aware), the
    // temporal/naive multi-sweep pair, and the 3-D parallel path. The
    // t1 points double as the scaling denominators in `check_bench_json
    // --gate-threads`.
    for &t in &thread_counts() {
        for spec in [&star, &boxs] {
            bench_2d(
                &h,
                "native_scaling",
                &mut rows,
                &pool,
                spec,
                4096,
                t,
                Kernel::Best,
                warm_out,
                n_out,
            );
        }
        bench_2d(
            &h,
            "native_scaling",
            &mut rows,
            &pool,
            &star,
            4096,
            t,
            Kernel::Forced(Dispatch::Hybrid),
            warm_out,
            n_out,
        );
        for kernel in [MsKernel::Naive, MsKernel::Temporal] {
            bench_multisweep(
                &h,
                "native_scaling_sweeps",
                &mut rows,
                &pool,
                &star,
                4096,
                SWEEPS,
                t,
                kernel,
                warm_out,
                n_out,
            );
        }
        bench_3d(&h, &mut rows, &pool, &heat3, 192, t, warm_out, n_out);
    }

    let best = Dispatch::detect().label();
    let speedup = match (
        median_of(&rows, "star2d5p", 4096, 1, 1, "seed"),
        median_of(&rows, "star2d5p", 4096, 1, 1, best),
    ) {
        (Some(seed), Some(v2)) if v2 > 0.0 => Some(seed / v2),
        _ => None,
    };
    if let Some(s) = speedup {
        println!("speedup star2d5p/4096/t1 {best} vs seed: {s:.2}x");
    }
    let temporal_speedup = |size: usize| match (
        median_of(&rows, "star2d5p", size, SWEEPS, 1, "naive"),
        median_of(&rows, "star2d5p", size, SWEEPS, 1, "temporal"),
    ) {
        (Some(naive), Some(tmp)) if tmp > 0.0 => Some(naive / tmp),
        _ => None,
    };
    let (t2048, t4096) = (temporal_speedup(2048), temporal_speedup(4096));
    for (size, s) in [(2048, t2048), (4096, t4096)] {
        if let Some(s) = s {
            println!("speedup star2d5p/{size}/s{SWEEPS} temporal vs naive: {s:.2}x");
        }
    }
    // Tempvec wavefront vs the spatial trapezoid pipeline at the same
    // shapes (the `--gate-tempvec` acceptance ratios in verify.sh).
    let tempvec_speedup = |size: usize| match (
        median_of(&rows, "star2d5p", size, SWEEPS, 1, "temporal"),
        median_of(&rows, "star2d5p", size, SWEEPS, 1, "tempvec"),
    ) {
        (Some(tmp), Some(tv)) if tv > 0.0 => Some(tmp / tv),
        _ => None,
    };
    let (tv2048, tv4096) = (tempvec_speedup(2048), tempvec_speedup(4096));
    for (size, s) in [(2048, tv2048), (4096, tv4096)] {
        if let Some(s) = s {
            println!("speedup star2d5p/{size}/s{SWEEPS}/t1 tempvec vs temporal: {s:.2}x");
        }
    }
    // The acceptance ratio: hybrid 8×8 vs the best canonical kernel on
    // the out-of-cache single-sweep case (gated in verify.sh).
    let hybrid_speedup = match (
        min_median_of(&rows, "star2d5p", 4096, 1, 1, best, "f64"),
        min_median_of(&rows, "star2d5p", 4096, 1, 1, "hybrid8x8", "f64"),
    ) {
        (Some(canon), Some(hyb)) if hyb > 0.0 => Some(canon / hyb),
        _ => None,
    };
    if let Some(s) = hybrid_speedup {
        println!("speedup star2d5p/4096/t1 hybrid8x8 vs {best}: {s:.2}x");
    }
    // f32-vs-f64 ratio per size (best non-seed kernel each side; the
    // in-cache point is the `--gate-f32` acceptance ratio).
    let f32_speedup = |size: usize| match (
        min_median_any_kernel(&rows, "star2d5p", size, "f64"),
        min_median_any_kernel(&rows, "star2d5p", size, "f32"),
    ) {
        (Some(w), Some(n)) if n > 0.0 => Some(w / n),
        _ => None,
    };
    let (f32_256, f32_4096) = (f32_speedup(256), f32_speedup(4096));
    for (size, s) in [(256, f32_256), (4096, f32_4096)] {
        if let Some(s) = s {
            println!("speedup star2d5p/{size}/t1 f32 vs f64: {s:.2}x");
        }
    }
    // avx512-vs-avx2 ratio per (size, dtype), where recorded.
    let avx512_speedup = |size: usize, dtype: &str| match (
        min_median_of(&rows, "star2d5p", size, 1, 1, best, dtype),
        min_median_of(&rows, "star2d5p", size, 1, 1, "avx512", dtype),
    ) {
        (Some(canon), Some(wide)) if wide > 0.0 => Some(canon / wide),
        _ => None,
    };
    let avx512_256 = avx512_speedup(256, "f64");
    let avx512_4096 = avx512_speedup(4096, "f64");
    for size in [256usize, 4096] {
        for dtype in ["f64", "f32"] {
            if let Some(s) = avx512_speedup(size, dtype) {
                println!("speedup star2d5p/{size}/t1/{dtype} avx512 vs {best}: {s:.2}x");
            }
        }
    }
    // Scaling summary: best-kernel wall-clock ratio t-vs-1 on the
    // out-of-cache acceptance case (the same ratio `check_bench_json
    // --gate-threads` recomputes from the JSON).
    for &t in thread_counts().iter().filter(|&&t| t > 1) {
        let ratio = match (
            min_median_of(&rows, "star2d5p", 4096, 1, 1, best, "f64"),
            min_median_of(&rows, "star2d5p", 4096, 1, t, best, "f64"),
        ) {
            (Some(one), Some(tn)) if tn > 0.0 => Some(one / tn),
            _ => None,
        };
        if let Some(s) = ratio {
            println!("scaling star2d5p/4096 {best} t{t} vs t1: {s:.2}x");
        }
    }

    let doc = Json::object([
        ("bench", "native_executor_v2".to_json()),
        ("smoke", smoke.to_json()),
        ("dispatch", best.to_json()),
        ("avx512_available", Dispatch::avx512_available().to_json()),
        (
            "host_threads",
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .to_json(),
        ),
        ("pool_threads_spawned", pool.spawned_threads().to_json()),
        ("results", Json::array(rows.iter().map(Row::to_json))),
        ("speedup_star2d5p_4096_t1_vs_seed", speedup.to_json()),
        ("speedup_temporal_star2d5p_2048_s8", t2048.to_json()),
        ("speedup_temporal_star2d5p_4096_s8", t4096.to_json()),
        ("speedup_tempvec_star2d5p_2048_s8_t1", tv2048.to_json()),
        ("speedup_tempvec_star2d5p_4096_s8_t1", tv4096.to_json()),
        ("speedup_hybrid_star2d5p_4096_t1", hybrid_speedup.to_json()),
        ("speedup_f32_star2d5p_256_t1", f32_256.to_json()),
        ("speedup_f32_star2d5p_4096_t1", f32_4096.to_json()),
        ("speedup_avx512_star2d5p_256_t1", avx512_256.to_json()),
        ("speedup_avx512_star2d5p_4096_t1", avx512_4096.to_json()),
    ]);

    // The trajectory file lives at the repo root, independent of the
    // cwd cargo gives bench binaries; `--out=PATH` redirects it (used by
    // verify.sh smoke runs to keep the recorded baseline untouched).
    let path = std::env::args()
        .find_map(|a| a.strip_prefix("--out=").map(std::path::PathBuf::from))
        .unwrap_or_else(|| {
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("BENCH_native.json")
        });
    match std::fs::write(&path, doc.to_pretty() + "\n") {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: failed to write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}
