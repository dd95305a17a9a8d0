//! Optimized pure-Rust executor (v2).
//!
//! For users who want stencil *answers* on the host machine rather than
//! a simulation. Three layers (DESIGN.md §3.3 "Native executor"):
//!
//! 1. **Persistent worker pool** ([`pool`]) — `apply_2d_parallel`,
//!    `apply_3d_parallel` and `time_steps` dispatch row bands to a
//!    spawn-once pool instead of re-entering `std::thread::scope` per
//!    sweep.
//! 2. **Runtime-dispatched micro-kernels** — on x86-64 with AVX2 + FMA
//!    (checked once via `is_x86_feature_detected!`) a register-blocked
//!    `std::arch` path processes two output rows × two registers of
//!    columns per step; everywhere else a `mul_add` scalar fallback runs
//!    the *same* FMA chain, so every canonical [`Dispatch`] path is
//!    bit-identical. Each SIMD schedule is written once, generic over a
//!    private lane trait (`lane`), and reached through one
//!    `#[target_feature]` shim per ISA, so 2-D and 3-D sweeps at every
//!    ISA and dtype run the same two canonical bodies.
//! 3. **Cache-blocked sweep tiling** — bands are walked in column tiles
//!    sized to keep the in-flight rows cache-resident on out-of-cache
//!    grids.
//! 4. **Temporal tiling for multi-sweep runs** ([`temporal`]) —
//!    [`time_steps`] fuses `t_block` time steps per DRAM round-trip
//!    through a skewed per-band pipeline, bit-identical to repeated
//!    [`apply_2d`] calls.
//! 5. **Software prefetch** ([`prefetch`]) — the 2-D SIMD kernels hint
//!    the next input rows and the destination store stream (the paper's
//!    Algorithm 3 analogue) at fixed distances, never on the scalar
//!    path.
//! 6. **Multi-core scaling as a first-class axis** (DESIGN.md §11) —
//!    band splits are balanced ([`lane_span`]: lane loads differ by at
//!    most one row, never an idle lane), and `HSTENCIL_THREADS`
//!    ([`threads`]) pins the lane count of every auto entry point.
//!    Thread count can never change results — every kernel is
//!    invariant to band decomposition.
//! 7. **Backend-generic tile kernels** ([`kernel`], DESIGN.md §12) —
//!    every canonical micro-kernel is an instance of the
//!    `TileKernel<E>` trait (scalar, AVX2+FMA, AVX-512) over an
//!    [`Element`] type (`f64` or `f32`), so one generic band driver
//!    serves every (kernel × dtype) pair.
//! 8. **One kernel table** — every kernel [`Dispatch`] can run is one
//!    row of a static table (label, env spellings, required ISA,
//!    canonical chain — which also decides a 3-D body);
//!    [`Dispatch::label`], the env parsers, [`Dispatch::candidates`],
//!    [`Dispatch::detect`] and the 3-D narrowing all read it. Retired
//!    kernels keep their [`Dispatch`] variant as an alias with no row
//!    of its own: [`Dispatch::Avx2Reuse`] and [`Dispatch::Avx512Reuse`]
//!    (the standalone shifted-register reuse kernels, DESIGN.md §14)
//!    run the AVX2 and AVX-512 kernels, and [`Dispatch::Hybrid`] (the
//!    hybrid 8×8 register tile, DESIGN.md §10) runs
//!    [`Dispatch::detect`]'s kernel.
//!
//! # One dispatch rule
//!
//! Every default entry point resolves its kernel the same way
//! ([`Dispatch::for_width`]): the `HSTENCIL_DISPATCH` pin
//! (`scalar|avx2|avx512|tempvec`) if set, otherwise the scalar chain
//! for rows narrower than 4 columns, otherwise the widest canonical
//! kernel this host runs ([`Dispatch::detect`], the last entry of
//! [`Dispatch::candidates`]: `avx512` where `avx512f` exists, else
//! `avx2+fma`, else `scalar`). The canonical kernels are bit-identical,
//! so the rule and the pin only ever change speed.
//!
//! The seed executor is preserved in [`baseline`] and timed side by side
//! in `BENCH_native.json` (see `crates/bench/benches/native.rs`), the
//! recorded origin of the wall-clock trajectory.
//!
//! Verified against [`crate::reference`] by unit tests and the
//! `native_dispatch` property suite; used by the examples for large
//! time-stepped workloads.

pub mod baseline;
pub mod kernel;
pub mod pool;
pub mod prefetch;
pub mod temporal;
pub mod tempvec;
pub mod threads;

mod env;
mod kernel2d;
mod kernel3d;
#[cfg(target_arch = "x86_64")]
mod lane;
mod tile;

pub use kernel::{NativeElement, TileKernel};
pub use prefetch::Prefetch;
pub use temporal::{time_steps_temporal, time_steps_temporal_in, ShapeClass, Temporal};

use crate::element::{Dtype, Element};
use crate::grid::{Grid2dT, Grid3dT, GridError};
use crate::stencil::StencilSpec;
use kernel2d::Taps2;
use kernel3d::Taps3;
use pool::ThreadPool;
use std::sync::{Mutex, OnceLock};

/// Which micro-kernel family executes a sweep. [`Dispatch::Scalar`],
/// [`Dispatch::Avx2Fma`] and [`Dispatch::Avx512`] compute the identical
/// FMA chain per element, so they agree bit-for-bit within one element
/// type; [`Dispatch::TempVec`] reassociates the chain and is
/// ULP-bounded against it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dispatch {
    /// Portable `mul_add` chain (single rounding per tap).
    Scalar,
    /// AVX2 + FMA register-blocked `std::arch` kernels (x86-64 only).
    Avx2Fma,
    /// AVX-512F register-blocked kernels: 8-wide f64 / 16-wide f32
    /// zmm lanes, same canonical FMA chain (x86-64 with `avx512f`
    /// only). The default ([`Dispatch::detect`]) wherever the host has
    /// `avx512f`. Runs 2-D and 3-D sweeps.
    Avx512,
    /// Alias of [`Dispatch::detect`], kept so existing callers still
    /// build. It named the retired hybrid 8×8 register-tile kernel
    /// (DESIGN.md §10), which lost to the canonical AVX-512 body on
    /// every measured case. It has no kernel-table row, env spelling or
    /// candidate slot; it runs, and its [`Dispatch::label`] is, the
    /// widest canonical kernel this host runs.
    Hybrid,
    /// Alias of [`Dispatch::Avx2Fma`], kept so existing callers still
    /// build. It named the retired shifted-register reuse kernel
    /// (DESIGN.md §14), which computed the same canonical chain, so
    /// running the shifted-load kernel instead is bit-identical. It has
    /// no kernel-table row, env spelling or candidate slot, and its
    /// [`Dispatch::label`] is `avx2+fma`.
    Avx2Reuse,
    /// Alias of [`Dispatch::Avx512`], kept for the same reason as
    /// [`Dispatch::Avx2Reuse`]; its [`Dispatch::label`] is `avx512`.
    Avx512Reuse,
    /// The temporally-vectorized family ([`tempvec`]): single sweeps
    /// run the two-accumulator shift-synthesized row kernel, and the
    /// trapezoid executor fuses `t_block` time levels into one
    /// software-pipelined wavefront pass per tile. One variant covers
    /// scalar, AVX2 and AVX-512 bodies (the family picks the widest
    /// the host carries; all bodies agree bit-for-bit with each
    /// other). Reassociated relative to the canonical chain, so
    /// ULP-bounded — opt-in via `HSTENCIL_DISPATCH=tempvec` or an
    /// explicit dispatch, never an auto pick. 2-D only (3-D narrows to
    /// [`Dispatch::detect`]).
    TempVec,
}

/// The host ISA a kernel needs.
#[derive(Clone, Copy)]
enum Isa {
    /// Runs everywhere (scalar chain, or a bit-identical scalar body).
    Any,
    /// x86-64 with AVX2 and FMA.
    Avx2Fma,
    /// x86-64 with AVX-512F.
    Avx512F,
}

impl Isa {
    fn available(self) -> bool {
        match self {
            Isa::Any => true,
            Isa::Avx2Fma => Dispatch::avx2_available(),
            Isa::Avx512F => Dispatch::avx512_available(),
        }
    }

    /// What a pin for a kernel of this ISA asks of a host that lacks it.
    fn request(self) -> &'static str {
        match self {
            Isa::Any => unreachable!("every host runs Isa::Any kernels"),
            Isa::Avx2Fma => "AVX2+FMA but this machine lacks it",
            Isa::Avx512F => "AVX-512 but this machine lacks avx512f",
        }
    }
}

/// One kernel [`Dispatch`] can run.
struct KernelRow {
    dispatch: Dispatch,
    /// Stable label for reports and `BENCH_native.json`.
    label: &'static str,
    /// `HSTENCIL_DISPATCH` spellings (lowercase; the first is the one
    /// the malformed-pin warning lists, and the label is always among
    /// them).
    spellings: &'static [&'static str],
    isa: Isa,
    /// True for the canonical-chain kernels that agree bit-for-bit with
    /// the scalar chain (the [`Dispatch::candidates`] set). Exactly
    /// these have a 3-D body; 3-D sweeps narrow the others to
    /// [`Dispatch::detect`].
    canonical: bool,
}

/// Every kernel, one row each, canonical rows narrowest first (the
/// [`Dispatch::candidates`] order, whose last entry is
/// [`Dispatch::detect`]). The label, env parsing, candidate list,
/// default pick and 3-D narrowing all read this table; the alias
/// variants have no row of their own.
const KERNELS: [KernelRow; 4] = [
    KernelRow {
        dispatch: Dispatch::Scalar,
        label: "scalar",
        spellings: &["scalar"],
        isa: Isa::Any,
        canonical: true,
    },
    KernelRow {
        dispatch: Dispatch::Avx2Fma,
        label: "avx2+fma",
        spellings: &["avx2", "avx2+fma"],
        isa: Isa::Avx2Fma,
        canonical: true,
    },
    KernelRow {
        dispatch: Dispatch::Avx512,
        label: "avx512",
        spellings: &["avx512", "avx512f"],
        isa: Isa::Avx512F,
        canonical: true,
    },
    KernelRow {
        dispatch: Dispatch::TempVec,
        label: "tempvec",
        spellings: &["tempvec"],
        // A bit-identical scalar body, so the pin runs everywhere.
        isa: Isa::Any,
        canonical: false,
    },
];

/// The row whose spellings include `v` (already trimmed and lowercased).
fn row_spelled(v: &str) -> Option<&'static KernelRow> {
    KERNELS.iter().find(|k| k.spellings.contains(&v))
}

impl Dispatch {
    /// This dispatch's kernel-table row; the alias variants resolve to
    /// their target's row. The one place aliases are resolved: the
    /// kernel matches in `kernel2d` and `kernel3d` see only row
    /// dispatches.
    fn row(self) -> &'static KernelRow {
        let d = match self {
            Dispatch::Avx2Reuse => Dispatch::Avx2Fma,
            Dispatch::Avx512Reuse => Dispatch::Avx512,
            Dispatch::Hybrid => Dispatch::detect(),
            d => d,
        };
        KERNELS
            .iter()
            .find(|k| k.dispatch == d)
            .expect("every non-alias dispatch has a kernel-table row")
    }

    /// True if the AVX2 + FMA path can run on this machine.
    pub fn avx2_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// True if the AVX-512 path can run on this machine (`avx512f` is
    /// all the kernels use: plain zmm loads, broadcasts and FMAs).
    pub fn avx512_available() -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            is_x86_feature_detected!("avx512f")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    }

    /// The widest canonical kernel this machine runs — the last entry
    /// of [`Dispatch::candidates`]: `avx512` where `avx512f` exists,
    /// else `avx2+fma`, else `scalar`. What the plain `apply_*` entry
    /// points run on rows of at least 4 columns
    /// ([`Dispatch::for_width`]).
    pub fn detect() -> Dispatch {
        KERNELS
            .iter()
            .rev()
            .find(|k| k.canonical && k.isa.available())
            .expect("the scalar chain runs everywhere")
            .dispatch
    }

    /// The bit-identical dispatches runnable on this machine, narrowest
    /// first, so [`Dispatch::detect`] is the last. The property suite
    /// cross-checks all of them for bit-identity; [`Dispatch::TempVec`]
    /// is deliberately *not* listed — its accumulation order differs,
    /// so it is checked separately (ULP-bounded) by `native_tempvec`
    /// and the conformance registry.
    pub fn candidates() -> Vec<Dispatch> {
        KERNELS
            .iter()
            .filter(|k| k.canonical && k.isa.available())
            .map(|k| k.dispatch)
            .collect()
    }

    /// Stable label for reports and `BENCH_native.json` (an alias
    /// reports its target's label).
    pub fn label(self) -> &'static str {
        self.row().label
    }

    /// Parses an `HSTENCIL_DISPATCH` value: any kernel-table spelling
    /// (`scalar`, `avx2`, `avx512`, `tempvec`, or a label) pins the
    /// path, `auto` (or empty) keeps the size-aware heuristic. Pinning
    /// an ISA path on a machine without the ISA is ignored rather than
    /// deferred to a later kernel panic (`tempvec` is fine everywhere —
    /// it has a scalar body).
    pub fn from_env_str(v: &str) -> Option<Dispatch> {
        row_spelled(&v.trim().to_ascii_lowercase())
            .filter(|k| k.isa.available())
            .map(|k| k.dispatch)
    }

    /// [`Dispatch::from_env_str`] plus a warning for values that are
    /// neither a known dispatch nor the explicit `auto`/empty
    /// "keep the heuristic" forms — so a typo in `HSTENCIL_DISPATCH`
    /// names itself on stderr instead of silently running the default.
    pub fn from_env_str_warn(v: &str) -> (Option<Dispatch>, Option<String>) {
        let parsed = Dispatch::from_env_str(v);
        if parsed.is_some() {
            return (parsed, None);
        }
        let key = v.trim().to_ascii_lowercase();
        if key.is_empty() || key == "auto" {
            return (None, None);
        }
        let warn = match row_spelled(&key) {
            Some(k) => format!(
                "hstencil: HSTENCIL_DISPATCH={v:?} requests {}; using the size-aware heuristic",
                k.isa.request()
            ),
            None => {
                let expected: Vec<&str> = KERNELS.iter().map(|k| k.spellings[0]).collect();
                format!(
                    "hstencil: ignoring malformed HSTENCIL_DISPATCH={v:?} (expected {}|auto); \
                     using the size-aware heuristic",
                    expected.join("|")
                )
            }
        };
        (None, Some(warn))
    }

    /// The process-wide `HSTENCIL_DISPATCH` pin, read once through
    /// [`env::cached`] (malformed values warn once).
    fn env_override() -> Option<Dispatch> {
        static OVERRIDE: OnceLock<Option<Dispatch>> = OnceLock::new();
        env::cached(&OVERRIDE, "HSTENCIL_DISPATCH", |v| {
            Dispatch::from_env_str_warn(v.unwrap_or(""))
        })
    }

    /// The one dispatch rule, for a sweep over rows of `w` interior
    /// columns: the `HSTENCIL_DISPATCH` pin if set; otherwise the
    /// scalar chain for rows too narrow to fill even one 4-lane vector
    /// step (a vector kernel would do the same element-by-element tail
    /// work with extra per-row overhead); otherwise the widest
    /// canonical kernel this host runs ([`Dispatch::detect`]). The
    /// canonical kernels are bit-identical, so neither the rule nor the
    /// pin can ever change a result.
    pub fn for_width(w: usize) -> Dispatch {
        if let Some(d) = Dispatch::env_override() {
            return d;
        }
        if w < 4 {
            Dispatch::Scalar
        } else {
            Dispatch::detect()
        }
    }

    /// Dispatch for one 2-D sweep of `spec` over an `h x w` grid of
    /// `dtype` elements split across `threads` lanes: the one rule of
    /// [`Dispatch::for_width`], which only the row width decides. The
    /// full shape stays in the signature so every caller resolves a
    /// sweep's dispatch the same way whatever the rule reads.
    pub fn for_sweep_dtype(
        _spec: &StencilSpec,
        _h: usize,
        w: usize,
        _threads: usize,
        _dtype: Dtype,
    ) -> Dispatch {
        Dispatch::for_width(w)
    }

    /// Maps dispatches to a kernel with a 3-D body: the non-canonical
    /// kernel (tempvec) falls back to the best canonical kernel, and
    /// aliases resolve to their target. The 3-D entry points apply
    /// this, keeping [`kernel3d`]'s dispatch match to the canonical
    /// kernels.
    fn narrow_3d(self) -> Dispatch {
        let row = self.row();
        if row.canonical {
            row.dispatch
        } else {
            Dispatch::detect()
        }
    }
}

fn assert_shapes_2d<E: Element>(spec: &StencilSpec, a: &Grid2dT<E>, b: &Grid2dT<E>) {
    assert_eq!(spec.dims(), 2);
    a.check_stencil(spec.radius(), b)
        .unwrap_or_else(|e| panic!("native 2-D sweep: {e}"));
}

fn assert_shapes_3d<E: Element>(spec: &StencilSpec, a: &Grid3dT<E>, b: &Grid3dT<E>) {
    assert_eq!(spec.dims(), 3);
    a.check_stencil(spec.radius(), b)
        .unwrap_or_else(|e| panic!("native 3-D sweep: {e}"));
}

/// One sweep of a 2-D stencil, single-threaded, on the dispatch the one
/// rule picks ([`Dispatch::for_sweep_dtype`]).
pub fn apply_2d<E: NativeElement>(spec: &StencilSpec, a: &Grid2dT<E>, b: &mut Grid2dT<E>) {
    apply_2d_with(
        Dispatch::for_sweep_dtype(spec, a.h(), a.w(), 1, E::DTYPE),
        spec,
        a,
        b,
    );
}

/// [`apply_2d_with`] with degenerate shapes rejected as a typed
/// [`GridError`] instead of a panic.
pub fn try_apply_2d_with<E: NativeElement>(
    dispatch: Dispatch,
    spec: &StencilSpec,
    a: &Grid2dT<E>,
    b: &mut Grid2dT<E>,
) -> Result<(), GridError> {
    assert_eq!(spec.dims(), 2);
    a.check_stencil(spec.radius(), b)?;
    apply_2d_with(dispatch, spec, a, b);
    Ok(())
}

/// One single-threaded 2-D sweep on an explicit dispatch path.
///
/// # Panics
/// Panics on shape/halo mismatch or if an ISA-specific dispatch is
/// forced on a machine without that ISA.
pub fn apply_2d_with<E: NativeElement>(
    dispatch: Dispatch,
    spec: &StencilSpec,
    a: &Grid2dT<E>,
    b: &mut Grid2dT<E>,
) {
    assert_shapes_2d(spec, a, b);
    let taps = Taps2::<E>::new(spec);
    let (h, w) = (a.h(), a.w());
    let (a_org, a_stride) = (a.origin() as isize, a.stride() as isize);
    let (b_org, b_stride) = (b.origin(), b.stride());
    let a_raw = a.raw();
    let end = b_org + (h - 1) * b_stride + w;
    let dst = &mut b.raw_mut()[b_org..end];
    kernel2d::sweep_band_2d(
        dispatch, &taps, a_raw, a_org, a_stride, w, dst, b_stride, 0, h,
    );
}

/// Balanced contiguous split of `total` rows over `lanes`: lane `lane`
/// owns `[lo, hi)` with the first `total % lanes` lanes one row taller,
/// so lane loads differ by at most one row. The previous plain
/// `div_ceil` split could idle whole lanes (12 rows over 5 lanes gave
/// bands of 3/3/3/3 and a fifth lane with nothing to do — a 25% tail
/// imbalance where 3/3/2/2/2 has 20% less critical-path work).
pub fn lane_span(total: usize, lanes: usize, lane: usize) -> (usize, usize) {
    debug_assert!(lanes >= 1 && lane < lanes);
    let base = total / lanes;
    let rem = total % lanes;
    let lo = lane * base + lane.min(rem);
    (lo, lo + base + usize::from(lane < rem))
}

/// One sweep of a 2-D stencil with rows distributed over `threads`
/// lanes of the shared persistent pool (`HSTENCIL_THREADS` pins the
/// lane count process-wide, trumping `threads`).
pub fn apply_2d_parallel<E: NativeElement>(
    spec: &StencilSpec,
    a: &Grid2dT<E>,
    b: &mut Grid2dT<E>,
    threads: usize,
) {
    let threads = threads::resolve(threads);
    apply_2d_parallel_in(
        ThreadPool::global(),
        Dispatch::for_sweep_dtype(spec, a.h(), a.w(), threads, E::DTYPE),
        spec,
        a,
        b,
        threads,
    );
}

/// One parallel 2-D sweep on an explicit pool and dispatch path.
/// Workers own contiguous row bands (disjoint `split_at_mut` slices of
/// the output); tiny grids fall back to the serial kernel.
pub fn apply_2d_parallel_in<E: NativeElement>(
    pool: &ThreadPool,
    dispatch: Dispatch,
    spec: &StencilSpec,
    a: &Grid2dT<E>,
    b: &mut Grid2dT<E>,
    threads: usize,
) {
    assert!(threads >= 1);
    if threads == 1 || a.h() < 2 * threads {
        apply_2d_with(dispatch, spec, a, b);
        return;
    }
    assert_shapes_2d(spec, a, b);
    let taps = Taps2::<E>::new(spec);
    let (h, w) = (a.h(), a.w());
    let (a_org, a_stride) = (a.origin() as isize, a.stride() as isize);
    let (b_org, b_stride) = (b.origin(), b.stride());
    let a_raw = a.raw();

    struct Band<'a, E> {
        dst: &'a mut [E],
        i_lo: usize,
        i_hi: usize,
    }

    let mut bands: Vec<Option<Band<E>>> = Vec::with_capacity(threads);
    let mut rest = b.raw_mut();
    let mut consumed = 0usize;
    for t in 0..threads {
        let (i_lo, i_hi) = lane_span(h, threads, t);
        if i_lo >= i_hi {
            break;
        }
        let start = b_org + i_lo * b_stride;
        let end = b_org + (i_hi - 1) * b_stride + w;
        let (_, tail) = rest.split_at_mut(start - consumed);
        let (band, tail2) = tail.split_at_mut(end - start);
        rest = tail2;
        consumed = end;
        bands.push(Some(Band {
            dst: band,
            i_lo,
            i_hi,
        }));
    }
    let lanes = bands.len();
    let bands = Mutex::new(bands);
    pool.run(lanes, &|lane, _| {
        // A poisoned lock just means another lane panicked; the slots
        // are still per-lane disjoint, so don't cascade the panic.
        let band = bands.lock().unwrap_or_else(|e| e.into_inner())[lane].take();
        if let Some(band) = band {
            kernel2d::sweep_band_2d(
                dispatch, &taps, a_raw, a_org, a_stride, w, band.dst, b_stride, band.i_lo,
                band.i_hi,
            );
        }
    });
}

/// One sweep of a 3-D stencil, single-threaded, best dispatch for the
/// grid's shape ([`Dispatch::for_width`]).
pub fn apply_3d<E: NativeElement>(spec: &StencilSpec, a: &Grid3dT<E>, b: &mut Grid3dT<E>) {
    apply_3d_with(Dispatch::for_width(a.w()), spec, a, b);
}

/// [`apply_3d_with`] with degenerate shapes rejected as a typed
/// [`GridError`] instead of a panic.
pub fn try_apply_3d_with<E: NativeElement>(
    dispatch: Dispatch,
    spec: &StencilSpec,
    a: &Grid3dT<E>,
    b: &mut Grid3dT<E>,
) -> Result<(), GridError> {
    assert_eq!(spec.dims(), 3);
    a.check_stencil(spec.radius(), b)?;
    apply_3d_with(dispatch, spec, a, b);
    Ok(())
}

/// One single-threaded 3-D sweep on an explicit dispatch path (2-D-only
/// dispatches are narrowed via `Dispatch::narrow_3d`).
///
/// # Panics
/// Panics on shape/halo mismatch or if an ISA-specific dispatch is
/// forced on a machine without that ISA.
pub fn apply_3d_with<E: NativeElement>(
    dispatch: Dispatch,
    spec: &StencilSpec,
    a: &Grid3dT<E>,
    b: &mut Grid3dT<E>,
) {
    let dispatch = dispatch.narrow_3d();
    assert_shapes_3d(spec, a, b);
    let taps = Taps3::<E>::new(spec);
    let (d, h, w) = (a.d(), a.h(), a.w());
    let (b_org, b_ps, b_stride) = (b.origin(), b.plane_stride(), b.stride());
    let a_raw = a.raw();
    let (a_org, a_ps, a_stride) = (
        a.origin() as isize,
        a.plane_stride() as isize,
        a.stride() as isize,
    );
    let end = b_org + (d - 1) * b_ps + (h - 1) * b_stride + w;
    let dst = &mut b.raw_mut()[b_org..end];
    kernel3d::sweep_band_3d(
        dispatch,
        &taps,
        a_raw,
        a_org,
        a_ps,
        a_stride,
        h,
        w,
        dst,
        b_ps,
        b_stride,
        0,
        d * h,
    );
}

/// One sweep of a 3-D stencil with `(plane, row)` pencils distributed
/// over `threads` lanes of the shared persistent pool
/// (`HSTENCIL_THREADS` pins the lane count process-wide, trumping
/// `threads`).
pub fn apply_3d_parallel<E: NativeElement>(
    spec: &StencilSpec,
    a: &Grid3dT<E>,
    b: &mut Grid3dT<E>,
    threads: usize,
) {
    let threads = threads::resolve(threads);
    apply_3d_parallel_in(
        ThreadPool::global(),
        Dispatch::for_width(a.w()),
        spec,
        a,
        b,
        threads,
    );
}

/// One parallel 3-D sweep on an explicit pool and dispatch path. Bands
/// are contiguous ranges of the flattened `(k, i)` row index, so the
/// split stays balanced even when the grid has few planes.
pub fn apply_3d_parallel_in<E: NativeElement>(
    pool: &ThreadPool,
    dispatch: Dispatch,
    spec: &StencilSpec,
    a: &Grid3dT<E>,
    b: &mut Grid3dT<E>,
    threads: usize,
) {
    let dispatch = dispatch.narrow_3d();
    assert!(threads >= 1);
    if threads == 1 || a.d() * a.h() < 2 * threads {
        apply_3d_with(dispatch, spec, a, b);
        return;
    }
    assert_shapes_3d(spec, a, b);
    let taps = Taps3::<E>::new(spec);
    let (d, h, w) = (a.d(), a.h(), a.w());
    let (b_org, b_ps, b_stride) = (b.origin(), b.plane_stride(), b.stride());
    let a_raw = a.raw();
    let (a_org, a_ps, a_stride) = (
        a.origin() as isize,
        a.plane_stride() as isize,
        a.stride() as isize,
    );

    struct Band<'a, E> {
        dst: &'a mut [E],
        t_lo: usize,
        t_hi: usize,
    }

    let rows = d * h;
    let flat_row = |t: usize| b_org + (t / h) * b_ps + (t % h) * b_stride;
    let mut bands: Vec<Option<Band<E>>> = Vec::with_capacity(threads);
    let mut rest = b.raw_mut();
    let mut consumed = 0usize;
    for t in 0..threads {
        let (t_lo, t_hi) = lane_span(rows, threads, t);
        if t_lo >= t_hi {
            break;
        }
        let start = flat_row(t_lo);
        let end = flat_row(t_hi - 1) + w;
        let (_, tail) = rest.split_at_mut(start - consumed);
        let (band, tail2) = tail.split_at_mut(end - start);
        rest = tail2;
        consumed = end;
        bands.push(Some(Band {
            dst: band,
            t_lo,
            t_hi,
        }));
    }
    let lanes = bands.len();
    let bands = Mutex::new(bands);
    pool.run(lanes, &|lane, _| {
        // A poisoned lock just means another lane panicked; the slots
        // are still per-lane disjoint, so don't cascade the panic.
        let band = bands.lock().unwrap_or_else(|e| e.into_inner())[lane].take();
        if let Some(band) = band {
            kernel3d::sweep_band_3d(
                dispatch, &taps, a_raw, a_org, a_ps, a_stride, h, w, band.dst, b_ps, b_stride,
                band.t_lo, band.t_hi,
            );
        }
    });
}

/// Runs `sweeps` time steps; returns the final state. Halo values are
/// carried over between steps (Dirichlet boundary held at the initial
/// halo).
///
/// Out-of-cache multi-sweep runs go through the temporally-tiled
/// pipeline ([`temporal::time_steps_temporal`]), which fuses `t_block`
/// steps per DRAM round-trip; cache-resident runs ping-pong plain
/// sweeps. Both schedules are bit-identical to `sweeps` sequential
/// [`apply_2d`] calls, and both use the shared persistent pool (worker
/// threads spawned at most once per process). `HSTENCIL_THREADS` pins
/// the lane count process-wide, trumping `threads`.
pub fn time_steps<E: NativeElement>(
    spec: &StencilSpec,
    init: &Grid2dT<E>,
    sweeps: usize,
    threads: usize,
) -> Grid2dT<E> {
    temporal::time_steps_temporal(spec, init, sweeps, threads)
}

/// The naive ping-pong multi-sweep schedule on an explicit pool and
/// dispatch path: one full-grid sweep per time step, two buffers, no
/// temporal fusion. The temporal executor delegates here for
/// cache-resident working sets, the multi-sweep benchmark uses it as
/// the traffic-bound baseline, and the spawn-count tests assert the
/// pool contract against it. The ping buffer is the only extra
/// allocation beyond the returned grid (a cheap
/// [`Grid2dT::halo_image`], not a full interior copy).
pub fn time_steps_in<E: NativeElement>(
    pool: &ThreadPool,
    dispatch: Dispatch,
    spec: &StencilSpec,
    init: &Grid2dT<E>,
    sweeps: usize,
    threads: usize,
) -> Grid2dT<E> {
    if sweeps == 0 {
        return init.clone();
    }
    let mut cur = init.halo_image();
    apply_2d_parallel_in(pool, dispatch, spec, init, &mut cur, threads);
    if sweeps == 1 {
        return cur;
    }
    let mut ping = init.halo_image();
    for _ in 1..sweeps {
        apply_2d_parallel_in(pool, dispatch, spec, &cur, &mut ping, threads);
        std::mem::swap(&mut cur, &mut ping);
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Grid2d, Grid3d};
    use crate::reference;
    use crate::stencil::presets;

    fn random_grid(h: usize, w: usize, halo: usize, seed: u64) -> Grid2d {
        // Small deterministic LCG; avoids pulling rand into the lib.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Grid2d::from_fn(h, w, halo, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (1u64 << 31) as f64 - 1.0
        })
    }

    fn random_grid_3d(d: usize, h: usize, w: usize, halo: usize, seed: u64) -> Grid3d {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Grid3d::from_fn(d, h, w, halo, |_, _, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (1u64 << 31) as f64 - 1.0
        })
    }

    #[test]
    fn native_matches_reference_all_presets() {
        for spec in presets::suite_2d() {
            let a = random_grid(24, 40, spec.radius(), 7);
            let mut want = Grid2d::zeros(24, 40, spec.radius());
            let mut got = Grid2d::zeros(24, 40, spec.radius());
            reference::apply_2d(&spec, &a, &mut want);
            apply_2d(&spec, &a, &mut got);
            assert!(
                want.max_interior_diff(&got) < 1e-12,
                "{} diverges",
                spec.name()
            );
        }
    }

    #[test]
    fn dispatch_paths_are_bit_identical() {
        for spec in presets::suite_2d() {
            let a = random_grid(33, 47, spec.radius(), 13);
            let mut scalar = Grid2d::zeros(33, 47, spec.radius());
            apply_2d_with(Dispatch::Scalar, &spec, &a, &mut scalar);
            for d in Dispatch::candidates() {
                let mut got = Grid2d::zeros(33, 47, spec.radius());
                apply_2d_with(d, &spec, &a, &mut got);
                assert_eq!(
                    scalar.max_interior_diff(&got),
                    0.0,
                    "{} under {:?}",
                    spec.name(),
                    d
                );
            }
        }
    }

    #[test]
    fn f32_dispatch_paths_are_bit_identical() {
        // The same bit-identity contract holds per element type: every
        // canonical-chain instance of one dtype agrees exactly with the
        // scalar chain at that dtype (candidates() includes the AVX-512
        // instances when the host has them).
        for spec in presets::suite_2d() {
            let a = Grid2dT::<f32>::convert_from(&random_grid(33, 47, spec.radius(), 13));
            let mut scalar = Grid2dT::<f32>::zeros(33, 47, spec.radius());
            apply_2d_with(Dispatch::Scalar, &spec, &a, &mut scalar);
            for d in Dispatch::candidates() {
                let mut got = Grid2dT::<f32>::zeros(33, 47, spec.radius());
                apply_2d_with(d, &spec, &a, &mut got);
                assert_eq!(
                    scalar.max_interior_diff(&got),
                    0.0,
                    "{} under {:?}",
                    spec.name(),
                    d
                );
            }
        }
    }

    #[test]
    fn f32_sweep_tracks_the_f64_reference_within_f32_precision() {
        // Inputs in [-1, 1] and presets with O(1) tap sums: the f32
        // sweep differs from the f64 reference only by input narrowing
        // plus per-tap rounding — well inside 1e-4 absolute here, and
        // far outside what an indexing bug would produce.
        for spec in presets::suite_2d() {
            let a64 = random_grid(24, 40, spec.radius(), 7);
            let mut want = Grid2d::zeros(24, 40, spec.radius());
            reference::apply_2d(&spec, &a64, &mut want);
            let a32 = Grid2dT::<f32>::convert_from(&a64);
            let mut got32 = Grid2dT::<f32>::zeros(24, 40, spec.radius());
            apply_2d(&spec, &a32, &mut got32);
            let got = Grid2d::convert_from(&got32);
            let diff = got.max_interior_diff(&want);
            assert!(diff < 1e-4, "{}: f32 drifted {diff:e}", spec.name());
            assert!(diff > 0.0 || spec.points() == 1, "{}", spec.name());
        }
    }

    #[test]
    fn f32_parallel_matches_the_serial_chain() {
        let spec = presets::box2d25p();
        let a = Grid2dT::<f32>::convert_from(&random_grid(64, 48, 2, 11));
        let mut serial = Grid2dT::<f32>::zeros(64, 48, 2);
        apply_2d(&spec, &a, &mut serial);
        for threads in [2, 3, 7] {
            let mut par = Grid2dT::<f32>::zeros(64, 48, 2);
            apply_2d_parallel(&spec, &a, &mut par, threads);
            assert_eq!(serial.max_interior_diff(&par), 0.0, "threads={threads}");
        }
    }

    #[test]
    fn three_d_sweeps_narrow_non_canonical_dispatches() {
        // A 3-D sweep forced onto a 2-D-only dispatch (or an alias) must
        // narrow instead of hitting kernel3d's unreachable arm, and
        // AVX-512 runs its own 3-D body — all bit-identical to scalar.
        let spec = presets::star3d7p();
        let a = random_grid_3d(5, 9, 13, 1, 23);
        let mut scalar = Grid3d::zeros(5, 9, 13, 1);
        apply_3d_with(Dispatch::Scalar, &spec, &a, &mut scalar);
        let mut forced = vec![Dispatch::Hybrid, Dispatch::TempVec];
        if Dispatch::avx2_available() {
            forced.push(Dispatch::Avx2Reuse);
        }
        if Dispatch::avx512_available() {
            forced.extend([Dispatch::Avx512, Dispatch::Avx512Reuse]);
        }
        for d in forced {
            let mut got = Grid3d::zeros(5, 9, 13, 1);
            apply_3d_with(d, &spec, &a, &mut got);
            assert_eq!(scalar.max_interior_diff(&got), 0.0, "{d:?}");
        }
    }

    #[test]
    fn lane_span_is_balanced_and_covers_every_row() {
        for total in [1usize, 2, 5, 12, 13, 100, 4096] {
            for lanes in [1usize, 2, 3, 5, 7, 16] {
                let spans: Vec<_> = (0..lanes).map(|k| lane_span(total, lanes, k)).collect();
                // Contiguous, in-order, exact cover.
                assert_eq!(spans[0].0, 0);
                assert_eq!(spans[lanes - 1].1, total);
                for k in 1..lanes {
                    assert_eq!(spans[k].0, spans[k - 1].1, "total={total} lanes={lanes}");
                }
                // Balanced: lane loads differ by at most one row, and
                // no lane idles unless there are fewer rows than lanes.
                let sizes: Vec<_> = spans.iter().map(|&(lo, hi)| hi - lo).collect();
                let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(max - min <= 1, "total={total} lanes={lanes} {sizes:?}");
                if total >= lanes {
                    assert!(*min >= 1, "idle lane: total={total} lanes={lanes}");
                }
            }
        }
        // The div_ceil regression case: 12 rows over 5 lanes must not
        // leave a lane empty while another sweeps a 3-row band.
        let spans: Vec<_> = (0..5).map(|k| lane_span(12, 5, k)).collect();
        assert_eq!(spans, vec![(0, 3), (3, 6), (6, 8), (8, 10), (10, 12)]);
    }

    #[test]
    fn parallel_matches_serial() {
        let spec = presets::box2d25p();
        let a = random_grid(64, 48, 2, 11);
        let mut serial = Grid2d::zeros(64, 48, 2);
        let mut par = Grid2d::zeros(64, 48, 2);
        apply_2d(&spec, &a, &mut serial);
        for threads in [2, 3, 4, 7] {
            apply_2d_parallel(&spec, &a, &mut par, threads);
            assert_eq!(serial.max_interior_diff(&par), 0.0, "threads={threads}");
        }
    }

    #[test]
    fn parallel_falls_back_for_tiny_grids() {
        let spec = presets::star2d5p();
        let a = random_grid(8, 8, 1, 3);
        let mut out = Grid2d::zeros(8, 8, 1);
        apply_2d_parallel(&spec, &a, &mut out, 16);
        let mut want = Grid2d::zeros(8, 8, 1);
        reference::apply_2d(&spec, &a, &mut want);
        assert!(want.max_interior_diff(&out) < 1e-12);
    }

    #[test]
    fn apply_3d_matches_reference_all_presets() {
        for spec in presets::suite_3d() {
            let r = spec.radius();
            let a = random_grid_3d(6, 10, 21, r, 17);
            let mut want = Grid3d::zeros(6, 10, 21, r);
            let mut got = Grid3d::zeros(6, 10, 21, r);
            reference::apply_3d(&spec, &a, &mut want);
            apply_3d(&spec, &a, &mut got);
            assert!(
                want.max_interior_diff(&got) < 1e-12,
                "{} diverges",
                spec.name()
            );
        }
    }

    #[test]
    fn apply_3d_dispatch_paths_are_bit_identical() {
        for spec in presets::suite_3d() {
            let r = spec.radius();
            let a = random_grid_3d(5, 9, 13, r, 23);
            let mut scalar = Grid3d::zeros(5, 9, 13, r);
            apply_3d_with(Dispatch::Scalar, &spec, &a, &mut scalar);
            for d in Dispatch::candidates() {
                let mut got = Grid3d::zeros(5, 9, 13, r);
                apply_3d_with(d, &spec, &a, &mut got);
                assert_eq!(scalar.max_interior_diff(&got), 0.0, "{}", spec.name());
            }
        }
    }

    #[test]
    fn apply_3d_parallel_matches_serial() {
        let spec = presets::box3d27p();
        let a = random_grid_3d(7, 12, 18, 1, 29);
        let mut serial = Grid3d::zeros(7, 12, 18, 1);
        apply_3d(&spec, &a, &mut serial);
        for threads in [2, 3, 5, 9] {
            let mut par = Grid3d::zeros(7, 12, 18, 1);
            apply_3d_parallel(&spec, &a, &mut par, threads);
            assert_eq!(serial.max_interior_diff(&par), 0.0, "threads={threads}");
        }
    }

    #[test]
    fn time_steps_preserve_constant_field() {
        let spec = presets::heat2d();
        let a = Grid2d::from_fn(16, 16, 1, |_, _| 5.0);
        let out = time_steps(&spec, &a, 10, 2);
        assert!((out.at(8, 8) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn heat_steps_decay_towards_boundary() {
        let spec = presets::heat2d();
        let mut a = Grid2d::zeros(16, 16, 1);
        a.set(8, 8, 1000.0);
        let out = time_steps(&spec, &a, 50, 1);
        assert!(out.at(8, 8) < 1000.0);
        assert!(out.at(8, 8) > 0.0);
        // Total heat leaks through the cold boundary, never grows.
        let total: f64 = (0..16)
            .flat_map(|i| (0..16).map(move |j| (i, j)))
            .map(|(i, j)| out.at(i, j))
            .sum();
        assert!(total <= 1000.0 + 1e-9);
    }

    #[test]
    fn time_steps_spawns_threads_at_most_once() {
        let spec = presets::star2d5p();
        let a = random_grid(32, 32, 1, 5);
        let pool = ThreadPool::new();
        let first = time_steps_in(&pool, Dispatch::detect(), &spec, &a, 25, 4);
        assert_eq!(pool.spawned_threads(), 3, "one spawn per lane, ever");
        let second = time_steps_in(&pool, Dispatch::detect(), &spec, &a, 25, 4);
        assert_eq!(pool.spawned_threads(), 3, "second call reuses the pool");
        assert_eq!(first.max_interior_diff(&second), 0.0);
    }

    #[test]
    fn dispatch_heuristic_is_bit_identical_to_both_paths() {
        // Whatever `for_width` picks (including sub-vector widths that
        // dispatch to scalar), the public entry point must agree
        // bit-for-bit with an explicitly forced scalar sweep.
        let spec = presets::star2d5p();
        for w in [2usize, 3, 4, 7, 8, 33, 256] {
            let a = random_grid(12, w, 1, 61);
            let mut auto = Grid2d::zeros(12, w, 1);
            apply_2d(&spec, &a, &mut auto);
            let mut scalar = Grid2d::zeros(12, w, 1);
            apply_2d_with(Dispatch::Scalar, &spec, &a, &mut scalar);
            assert_eq!(scalar.max_interior_diff(&auto), 0.0, "w={w}");
        }
    }

    #[test]
    fn dispatch_for_width_is_scalar_below_4_columns_and_the_widest_kernel_otherwise() {
        // Without an env override (none is set under `cargo test`),
        // rows narrower than one 4-lane step go scalar and every other
        // width runs the widest canonical kernel this host runs.
        for w in [0usize, 1, 2, 3] {
            assert_eq!(Dispatch::for_width(w), Dispatch::Scalar, "w={w}");
        }
        for w in [4usize, 7, 8, 40, 4096] {
            assert_eq!(Dispatch::for_width(w), Dispatch::detect(), "w={w}");
        }
        // The widest canonical kernel is the last candidate: avx512
        // where avx512f exists, else avx2+fma, else scalar.
        let widest = Dispatch::candidates().last().copied();
        assert_eq!(Some(Dispatch::detect()), widest);
        let want = if Dispatch::avx512_available() {
            Dispatch::Avx512
        } else if Dispatch::avx2_available() {
            Dispatch::Avx2Fma
        } else {
            Dispatch::Scalar
        };
        assert_eq!(Dispatch::detect(), want);
    }

    #[test]
    fn dispatch_env_parsing() {
        assert_eq!(Dispatch::from_env_str("scalar"), Some(Dispatch::Scalar));
        assert_eq!(Dispatch::from_env_str(" SCALAR "), Some(Dispatch::Scalar));
        assert_eq!(Dispatch::from_env_str("auto"), None);
        assert_eq!(Dispatch::from_env_str(""), None);
        assert_eq!(Dispatch::from_env_str("bogus"), None);
        // The retired hybrid kernel's spellings pin nothing.
        assert_eq!(Dispatch::from_env_str("hybrid"), None);
        assert_eq!(Dispatch::from_env_str("HYBRID8x8"), None);
        // Tempvec is pinnable everywhere (scalar body fallback).
        assert_eq!(Dispatch::from_env_str("tempvec"), Some(Dispatch::TempVec));
        assert_eq!(Dispatch::from_env_str(" TempVec "), Some(Dispatch::TempVec));
        let avx2 = Dispatch::from_env_str("avx2");
        if Dispatch::avx2_available() {
            assert_eq!(avx2, Some(Dispatch::Avx2Fma));
            assert_eq!(Dispatch::from_env_str("avx2+fma"), Some(Dispatch::Avx2Fma));
        } else {
            // Pinning an unavailable path is ignored, not deferred to a
            // later kernel panic.
            assert_eq!(avx2, None);
        }
        let avx512 = Dispatch::from_env_str("avx512");
        if Dispatch::avx512_available() {
            assert_eq!(avx512, Some(Dispatch::Avx512));
            assert_eq!(Dispatch::from_env_str("AVX512F"), Some(Dispatch::Avx512));
        } else {
            assert_eq!(avx512, None);
        }
    }

    #[test]
    fn kernel_table_rows_are_unique_and_parse_back() {
        for (i, k) in KERNELS.iter().enumerate() {
            assert!(k.spellings.contains(&k.label), "{}", k.label);
            assert_eq!(k.dispatch.row().label, k.label);
            let want = k.isa.available().then_some(k.dispatch);
            for s in k.spellings {
                assert_eq!(Dispatch::from_env_str(s), want, "{s}");
                for other in &KERNELS[i + 1..] {
                    assert!(!other.spellings.contains(s), "{s} spelled twice");
                }
            }
        }
        // The aliases have no row of their own.
        for alias in [Dispatch::Avx2Reuse, Dispatch::Avx512Reuse, Dispatch::Hybrid] {
            assert!(KERNELS.iter().all(|k| k.dispatch != alias));
        }
    }

    #[test]
    fn dispatch_env_malformed_values_warn_with_value_and_default() {
        let (parsed, warn) = Dispatch::from_env_str_warn("bogus");
        assert_eq!(parsed, None);
        let warn = warn.expect("malformed value must produce a warning");
        assert!(warn.contains("HSTENCIL_DISPATCH"), "{warn}");
        assert!(warn.contains("\"bogus\""), "names the bad value: {warn}");
        assert!(warn.contains("heuristic"), "names the default: {warn}");
        // The intentional "keep the heuristic" spellings stay silent.
        assert_eq!(Dispatch::from_env_str_warn("auto"), (None, None));
        assert_eq!(Dispatch::from_env_str_warn(""), (None, None));
        assert!(Dispatch::from_env_str_warn("scalar").1.is_none());
        assert!(Dispatch::from_env_str_warn("tempvec").1.is_none());
        if !Dispatch::avx2_available() {
            // Requesting a path the host lacks is a named warning too.
            let (p, w) = Dispatch::from_env_str_warn("avx2");
            assert_eq!(p, None);
            assert!(w.unwrap().contains("AVX2"));
        }
        if !Dispatch::avx512_available() {
            let (p, w) = Dispatch::from_env_str_warn("avx512");
            assert_eq!(p, None);
            assert!(w.unwrap().contains("avx512f"));
        }
    }

    #[test]
    fn time_steps_matches_naive_ping_pong() {
        // The halo-image fast path must be observationally identical to
        // the seed's clone-twice ping-pong loop.
        let spec = presets::box2d9p();
        let a = random_grid(20, 28, 1, 41);
        for sweeps in [0usize, 1, 2, 5] {
            let fast = time_steps(&spec, &a, sweeps, 2);
            let mut cur = a.clone();
            let mut next = a.clone();
            for _ in 0..sweeps {
                apply_2d(&spec, &cur, &mut next);
                std::mem::swap(&mut cur, &mut next);
            }
            assert_eq!(fast.max_interior_diff(&cur), 0.0, "sweeps={sweeps}");
        }
    }
}
