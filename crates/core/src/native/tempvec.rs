//! Temporally-vectorized kernels: one register round-trip advances
//! several time levels (Yuan et al., *Temporal Vectorization for
//! Stencils*; DESIGN.md §15).
//!
//! The trapezoid executor's spatial strategy re-runs a purely spatial
//! kernel `t_block` times per tile, so arithmetic intensity per loaded
//! byte stays capped at one sweep's worth of FMAs. This family lifts
//! the time dimension into the pipeline's in-flight vector set instead:
//! a software-pipelined wavefront walks the tile once, and at every
//! outer step the engine holds one vector row *per time level*, skewed
//! by `radius` rows between adjacent levels. Conceptually the register
//! working set is time-skewed — slot `s` of the pipeline holds data at
//! time `t + s` — which is the transposed form of Yuan et al.'s
//! lane-per-time-level layout: lanes stay spatial within a level (so
//! wide rows need no per-step lane insert), and the time axis rides
//! across the pipeline slots. Intermediate levels live in `2r + 1`-row
//! ring buffers that fit a few KiB, so every value loaded from DRAM is
//! carried through all `t_block` fused sweeps before being evicted.
//!
//! Horizontal neighbor operands are unaligned offset loads
//! `row + x + k` with a broadcast-FMA per tap; the tap pointers and
//! broadcast coefficients are flattened into per-row tables once, so
//! the hot loop is nothing but load/FMA pairs. (An EXT-synthesis
//! variant built on the since-retired reuse kernels' shift helpers was
//! measured first and lost ~2x: with the ring buffers L1-resident, reloads ride
//! x86's dual load ports while the synthesis serializes on port-5
//! shuffles — the same standalone finding recorded in DESIGN.md §14.
//! Shuffles move IEEE values, so both forms produce identical lanes
//! and the swap is invisible to conformance.) Each point folds through
//! **two** alternating accumulators, so
//! results are *reassociated* relative to the canonical single-chain
//! kernels: the family is ULP-bounded against the reference, not
//! bit-identical (conformance checks it like the simulated methods).
//! Within the family, every body — scalar, AVX2, AVX-512, and the
//! multi-level wavefront — performs the identical per-lane operation
//! sequence, so tempvec agrees with itself bit-for-bit across ISAs,
//! chunk boundaries and fusion depths. The vector row is written once
//! over the lane trait (`lane::Lane`) and reached through one
//! `#[target_feature]` shim per ISA, at both dtypes.

use super::kernel2d::{TapRow, Taps2};
#[cfg(target_arch = "x86_64")]
use super::lane::Lane;
use super::{Dispatch, NativeElement};
use crate::element::Element;
use crate::grid::{Grid2dT, GridError};
use crate::stencil::StencilSpec;
use lx2_isa::VLEN;
#[cfg(target_arch = "x86_64")]
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Widest stencil radius the vector bodies cover (bounds the
/// flattened tap tables at `(2r+1)^2` entries and keeps the per-row
/// ring buffers a few KiB). Wider radii fall back to the scalar body,
/// which is bit-identical, so the cap narrows performance, never
/// results.
pub(crate) const MAX_VEC_RADIUS: isize = 4;

/// Which ISA body the tempvec family runs. One [`Dispatch::TempVec`]
/// covers all of them — the family picks the widest body the host
/// carries — but conformance pins narrower bodies explicitly via
/// [`try_apply_2d_capped`] so each stays covered on wide hosts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TvIsa {
    /// Portable scalar body (always available; the bit-identity anchor
    /// for the vector bodies' per-lane sequence).
    Scalar,
    /// AVX2 + FMA body.
    Avx2,
    /// AVX-512F body.
    Avx512,
}

impl TvIsa {
    /// The widest body this host can run.
    pub fn best() -> TvIsa {
        if Dispatch::avx512_available() {
            TvIsa::Avx512
        } else if Dispatch::avx2_available() {
            TvIsa::Avx2
        } else {
            TvIsa::Scalar
        }
    }

    /// Whether this host can run the body.
    pub fn available(self) -> bool {
        match self {
            TvIsa::Scalar => true,
            TvIsa::Avx2 => Dispatch::avx2_available(),
            TvIsa::Avx512 => Dispatch::avx512_available(),
        }
    }

    /// Stable lowercase label (conformance names, notices).
    pub fn label(self) -> &'static str {
        match self {
            TvIsa::Scalar => "scalar",
            TvIsa::Avx2 => "avx2",
            TvIsa::Avx512 => "avx512",
        }
    }
}

/// The body actually run for radius `r`: over-cap radii narrow to the
/// scalar body (visibly identical results, see [`MAX_VEC_RADIUS`]).
pub(crate) fn effective(isa: TvIsa, r: isize) -> TvIsa {
    if r > MAX_VEC_RADIUS {
        TvIsa::Scalar
    } else {
        isa
    }
}

/// How many elements past a chunk's base pointer the vector body may
/// *load* (not use): `ceil(2r / VL) + 1` whole vectors. The row
/// drivers keep the vector loop inside `x + loadspan <= n_read` and
/// finish through the scalar body, so loads never leave the buffer.
pub(crate) fn loadspan<E: Element>(isa: TvIsa, r: isize) -> usize {
    let r = r.unsigned_abs();
    let vl = match effective(isa, r as isize) {
        TvIsa::Scalar => return 2 * r + 1,
        TvIsa::Avx2 => 32 / std::mem::size_of::<E>(),
        TvIsa::Avx512 => 64 / std::mem::size_of::<E>(),
    };
    ((2 * r).div_ceil(vl) + 1) * vl
}

/// Count of tiles the multi-level wavefront has executed, for tests
/// that pin "the tempvec strategy actually ran" (not a stable API).
static WAVE_TILES: AtomicUsize = AtomicUsize::new(0);

/// Process-wide count of tiles executed by the tempvec wavefront
/// (diagnostic; monotone, relaxed ordering).
pub fn wave_tiles() -> usize {
    WAVE_TILES.load(Ordering::Relaxed)
}

/// Scalar tempvec row body: `dst[x]` is the fold of
/// `c * srows[di + r][x + dj + r]` over two alternating accumulators,
/// `x in x0..n`. `srows[d]` points at column `j_lo - r` of source row
/// `i + d - r`, `dst` at column `j_lo` of the output row, where `j_lo`
/// is the row's first output column.
///
/// # Safety
/// Every `srows[di + r] + x + dj + r` for `x in x0..n` and every
/// `dst + x` must be in bounds.
pub(crate) unsafe fn wave_row_scalar<E: Element>(
    rows: &[TapRow<E>],
    r: isize,
    srows: &[*const E],
    x0: usize,
    n: usize,
    dst: *mut E,
) {
    for x in x0..n {
        let mut a0 = E::ZERO;
        let mut a1 = E::ZERO;
        let mut flip = false;
        for &(_, di, ref taps) in rows {
            let rp = srows[(di + r) as usize];
            for &(dj, c) in taps {
                let v = *rp.add(x + (dj + r) as usize);
                if flip {
                    a1 = c.mul_add(v, a1);
                } else {
                    a0 = c.mul_add(v, a0);
                }
                flip = !flip;
            }
        }
        // `fma(a0, 1, b)` rounds once on an exact product: a correctly
        // rounded add, matching the vector bodies' `add` fold per lane.
        *dst.add(x) = a0.mul_add(E::ONE, a1);
    }
}

/// Cap on the flattened tap tables the vector body keeps on the stack:
/// the widest vectorized spec is a box at [`MAX_VEC_RADIUS`] = 4,
/// (2·4+1)² offsets.
#[cfg(target_arch = "x86_64")]
const MAX_TAPS: usize = 81;

/// The vector tempvec row, written once for every register `V`:
/// operands are offset loads `srows[di + r] + x + dj + r` —
/// bit-identical lanes to the §14 EXT shift synthesis (shuffles move
/// IEEE values, reloads re-read them), but on x86's dual load ports a
/// reload is cheaper than the port-5 shuffle traffic the synthesis
/// costs, the same standalone finding §14 records for the retired
/// reuse kernels. Tap pointers and broadcast coefficients are flattened
/// once per row, so the hot loop carries no nested-list walk, no
/// per-step re-broadcast and no runtime-shift dispatch; the main loop
/// retires two output vectors per iteration (four independent FMA
/// chains), then one vector, then the scalar body finishes the row.
///
/// # Safety
/// The host must run `V`'s ISA, `r <= MAX_VEC_RADIUS`, and every
/// `srows[d] + x` must be readable for `x < n_read`, `dst + x` writable
/// for `x < n` (debug builds check the first two and the tap count).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn wave_body<V: Lane>(
    rows: &[TapRow<V::E>],
    r: isize,
    srows: &[*const V::E],
    n: usize,
    n_read: usize,
    dst: *mut V::E,
) {
    debug_assert!(n <= n_read);
    debug_assert!(r <= MAX_VEC_RADIUS);
    debug_assert!(rows.iter().map(|row| row.2.len()).sum::<usize>() <= MAX_TAPS);
    let vl = V::N;
    // Only the first `nt` slots are written and read. Zero-filling all
    // MAX_TAPS of them cost a 5 KiB memset call per AVX-512 row.
    let mut tp = [MaybeUninit::<*const V::E>::uninit(); MAX_TAPS];
    let mut tc = [MaybeUninit::<V>::uninit(); MAX_TAPS];
    let mut nt = 0usize;
    for &(_, di, ref taps) in rows {
        for &(dj, c) in taps {
            tp[nt].write(srows[(di + r) as usize].add((dj + r) as usize));
            tc[nt].write(V::splat(c));
            nt += 1;
        }
    }
    // SAFETY: the loop above initialized exactly slots `0..nt`.
    let tp = std::slice::from_raw_parts(tp.as_ptr().cast::<*const V::E>(), nt);
    let tc = std::slice::from_raw_parts(tc.as_ptr().cast::<V>(), nt);
    // Deepest operand slot (2r) plus one vector.
    let span = 2 * r as usize + vl;
    let mut x = 0usize;
    while x + 2 * vl <= n && x + span + vl <= n_read {
        let mut a0 = V::zero();
        let mut a1 = V::zero();
        let mut b0 = V::zero();
        let mut b1 = V::zero();
        for t in 0..nt {
            let p = tp[t].add(x);
            let cv = tc[t];
            if t % 2 == 0 {
                a0 = V::fma(cv, V::load(p), a0);
                b0 = V::fma(cv, V::load(p.add(vl)), b0);
            } else {
                a1 = V::fma(cv, V::load(p), a1);
                b1 = V::fma(cv, V::load(p.add(vl)), b1);
            }
        }
        a0.add(a1).store(dst.add(x));
        b0.add(b1).store(dst.add(x + vl));
        x += 2 * vl;
    }
    while x + vl <= n && x + span <= n_read {
        let mut a0 = V::zero();
        let mut a1 = V::zero();
        for t in 0..nt {
            let op = V::load(tp[t].add(x));
            if t % 2 == 0 {
                a0 = V::fma(tc[t], op, a0);
            } else {
                a1 = V::fma(tc[t], op, a1);
            }
        }
        a0.add(a1).store(dst.add(x));
        x += vl;
    }
    wave_row_scalar(rows, r, srows, x, n, dst);
}

/// [`wave_body`] compiled for AVX2 + FMA.
///
/// # Safety
/// AVX2 + FMA verified; otherwise as [`wave_body`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn wave_avx2<V: Lane>(
    rows: &[TapRow<V::E>],
    r: isize,
    srows: &[*const V::E],
    n: usize,
    n_read: usize,
    dst: *mut V::E,
) {
    wave_body::<V>(rows, r, srows, n, n_read, dst);
}

/// [`wave_body`] compiled for AVX-512F.
///
/// # Safety
/// AVX-512F verified; otherwise as [`wave_body`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn wave_avx512<V: Lane>(
    rows: &[TapRow<V::E>],
    r: isize,
    srows: &[*const V::E],
    n: usize,
    n_read: usize,
    dst: *mut V::E,
) {
    wave_body::<V>(rows, r, srows, n, n_read, dst);
}

/// One tempvec output row via the requested (host-verified) body;
/// over-cap radii narrow to the scalar body ([`effective`]).
///
/// # Safety
/// `isa.available()`, every `srows[d] + x` readable for `x < n_read`
/// (`n <= n_read`; the vector bodies keep their loads inside it and
/// finish through the scalar body), and `dst + x` writable for `x < n`.
pub(crate) unsafe fn wave_row<E: NativeElement>(
    isa: TvIsa,
    rows: &[TapRow<E>],
    r: isize,
    srows: &[*const E],
    n: usize,
    n_read: usize,
    dst: *mut E,
) {
    #[cfg(not(target_arch = "x86_64"))]
    let _ = n_read;
    match effective(isa, r) {
        TvIsa::Scalar => wave_row_scalar(rows, r, srows, 0, n, dst),
        #[cfg(target_arch = "x86_64")]
        TvIsa::Avx2 => wave_avx2::<E::Ymm>(rows, r, srows, n, n_read, dst),
        #[cfg(target_arch = "x86_64")]
        TvIsa::Avx512 => wave_avx512::<E::Zmm>(rows, r, srows, n, n_read, dst),
        #[cfg(not(target_arch = "x86_64"))]
        _ => wave_row_scalar(rows, r, srows, 0, n, dst),
    }
}

/// Single-sweep tempvec band: the [`Dispatch::TempVec`] arm of
/// [`super::kernel2d::sweep_band_2d`]. Same band contract as
/// [`super::TileKernel::sweep_band`]: `a` affine with `-r ..= r` halo
/// rows/columns valid around `[i_lo, i_hi) x [0, w)`, `dst` starting
/// at row `i_lo`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_band<E: NativeElement>(
    isa: TvIsa,
    taps: &Taps2<E>,
    a: &[E],
    a_org: isize,
    a_stride: isize,
    w: usize,
    dst: &mut [E],
    b_stride: usize,
    i_lo: usize,
    i_hi: usize,
) {
    let r = taps.chain.r;
    let nrows = (2 * r + 1) as usize;
    let mut srows: Vec<*const E> = vec![std::ptr::null(); nrows];
    let ap = a.as_ptr();
    let n_read = w + 2 * r as usize;
    for i in i_lo..i_hi {
        for (d, slot) in srows.iter_mut().enumerate() {
            let q = i as isize + d as isize - r;
            *slot = unsafe { ap.offset(a_org + q * a_stride - r) };
        }
        let drow = dst[(i - i_lo) * b_stride..].as_mut_ptr();
        unsafe { wave_row::<E>(isa, &taps.chain.rows, r, &srows, w, n_read, drow) };
    }
}

/// [`super::apply_2d_with`] restricted to the tempvec family with an
/// explicit ISA body — the conformance twins pin narrower bodies with
/// this so every body stays covered on hosts that would otherwise only
/// run the widest one.
///
/// # Panics
/// Panics if `cap` is not available on this host (the registry gates
/// registration, mirroring the AVX-512 rows).
pub fn try_apply_2d_capped<E: NativeElement>(
    cap: TvIsa,
    spec: &StencilSpec,
    a: &Grid2dT<E>,
    b: &mut Grid2dT<E>,
) -> Result<(), GridError> {
    assert_eq!(spec.dims(), 2);
    assert!(
        cap.available(),
        "tempvec body {:?} not available on this host",
        cap
    );
    a.check_stencil(spec.radius(), b)?;
    let taps = Taps2::<E>::new(spec);
    let (h, w) = (a.h(), a.w());
    let (a_org, a_stride) = (a.origin() as isize, a.stride() as isize);
    let (b_org, b_stride) = (b.origin(), b.stride());
    let end = b_org + (h - 1) * b_stride + w;
    let dst = &mut b.raw_mut()[b_org..end];
    sweep_band(cap, &taps, a.raw(), a_org, a_stride, w, dst, b_stride, 0, h);
    Ok(())
}

/// The multi-level wavefront over one fully-interior trapezoid tile:
/// advances `steps >= 2` time levels in a single pass. Level `s`
/// (1-based) computes rows `[tr0 - r(steps-s), tr1 + r(steps-s))` ×
/// columns widened the same way; at outer step `k`, level `s` produces
/// row `i = k - (s-1)r` (levels ascending, so the level-`s-1` row
/// `i + r` it needs is finished in the same step). Level 0 reads the
/// global source plane, level `steps` stores straight into the output
/// band, and every level in between lives in a `2r + 1`-row ring — one
/// row taller than its consumers' reach, so a slot is overwritten
/// exactly one outer step after its last read.
///
/// Caller guarantees the interior precondition
/// `g1 = r*(steps-1)`: `tr0 >= g1`, `tr1 + g1 <= h`, `tc0 >= g1`,
/// `tc1 + g1 <= w` — no Dirichlet frame, no clamping.
#[allow(clippy::too_many_arguments)]
pub(crate) fn tile_wavefront<E: NativeElement>(
    taps: &Taps2<E>,
    src: &[E],
    src_org: isize,
    src_stride: isize,
    band_dst: &mut [E],
    dst_stride: usize,
    band_lo: usize,
    (tr0, tr1): (usize, usize),
    (tc0, tc1): (usize, usize),
    steps: usize,
    w: usize,
    ring: &mut Vec<E>,
) {
    debug_assert!(steps >= 2 && tr1 > tr0 && tc1 > tc0);
    let isa = TvIsa::best();
    let r = taps.chain.r;
    let ru = r as usize;
    let g1 = ru * (steps - 1);
    debug_assert!(tr0 >= g1 && tc0 >= g1 && tc1 + g1 <= w);
    let ring_rows = 2 * ru + 1;
    let span = loadspan::<E>(isa, r);
    let ring_w = (tc1 - tc0) + 2 * g1;
    let ring_stride = (ring_w + span).div_ceil(VLEN) * VLEN;
    let need = (steps - 1) * ring_rows * ring_stride;
    if ring.len() < need {
        ring.resize(need, E::ZERO);
    }
    // Global column of ring-local column 0 (shared by every level; a
    // deeper level's first write lands `r*(s-1)` columns in).
    let ring_org = (tc0 - g1) as isize;
    let rp = ring.as_mut_ptr();
    let ap = src.as_ptr();
    let dp = band_dst.as_mut_ptr();
    let lo = |s: usize| tr0 - ru * (steps - s);
    let hi = |s: usize| tr1 + ru * (steps - s);
    let lc = |s: usize| (tc0 - ru * (steps - s)) as isize;
    let hc = |s: usize| (tc1 + ru * (steps - s)) as isize;
    let ring_row = |s: usize, i: usize| -> *mut E {
        unsafe { rp.add(((s - 1) * ring_rows + i % ring_rows) * ring_stride) }
    };
    let mut srows: Vec<*const E> = vec![std::ptr::null(); ring_rows];
    for k in lo(1)..tr1 + g1 {
        for s in 1..=steps {
            let skew = (s - 1) * ru;
            if k < skew + lo(s) {
                continue;
            }
            let i = k - skew;
            if i >= hi(s) {
                continue;
            }
            let (c0, c1) = (lc(s), hc(s));
            let n = (c1 - c0) as usize;
            let n_read;
            if s == 1 {
                // Level 0 is the global plane: rows `i - r ..= i + r`
                // with their `-r` halo columns; readable through the
                // right halo column `w + r - 1`.
                for (d, slot) in srows.iter_mut().enumerate() {
                    let q = i as isize + d as isize - r;
                    *slot = unsafe { ap.offset(src_org + q * src_stride + c0 - r) };
                }
                n_read = ((w + ru) as isize - (c0 - r)) as usize;
            } else {
                let off = ((c0 - r) - ring_org) as usize;
                for (d, slot) in srows.iter_mut().enumerate() {
                    let q = (i as isize + d as isize - r) as usize;
                    *slot = unsafe { ring_row(s - 1, q).add(off) as *const E };
                }
                n_read = ring_stride - off;
            }
            let dstp = if s == steps {
                unsafe { dp.add((i - band_lo) * dst_stride + tc0) }
            } else {
                unsafe { ring_row(s, i).add((c0 - ring_org) as usize) }
            };
            unsafe { wave_row::<E>(isa, &taps.chain.rows, r, &srows, n, n_read, dstp) };
        }
    }
    WAVE_TILES.fetch_add(1, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid2d;
    use crate::native::{apply_2d_with, Dispatch};
    use crate::stencil::presets;

    fn random_grid(h: usize, w: usize, halo: usize, seed: u64) -> Grid2d {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Grid2d::from_fn(h, w, halo, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (1u64 << 31) as f64 - 1.0
        })
    }

    #[test]
    fn tempvec_single_sweep_tracks_the_canonical_chain_within_ulps() {
        for spec in presets::suite_2d() {
            let a = random_grid(21, 37, spec.radius(), 3);
            let mut want = Grid2d::zeros(21, 37, spec.radius());
            apply_2d_with(Dispatch::Scalar, &spec, &a, &mut want);
            let mut got = Grid2d::zeros(21, 37, spec.radius());
            apply_2d_with(Dispatch::TempVec, &spec, &a, &mut got);
            let diff = want.max_interior_diff(&got);
            assert!(
                diff < 1e-12,
                "{}: reassociation drifted {diff:e}",
                spec.name()
            );
        }
    }

    #[test]
    fn tempvec_bodies_are_bit_identical_across_isas() {
        // The two-accumulator per-lane sequence is the family contract:
        // every body the host carries must agree exactly with the
        // scalar body, including the vector/scalar column splits.
        for spec in presets::suite_2d() {
            let a = random_grid(19, 41, spec.radius(), 11);
            let mut want = Grid2d::zeros(19, 41, spec.radius());
            try_apply_2d_capped(TvIsa::Scalar, &spec, &a, &mut want).unwrap();
            for cap in [TvIsa::Avx2, TvIsa::Avx512] {
                if !cap.available() {
                    continue;
                }
                let mut got = Grid2d::zeros(19, 41, spec.radius());
                try_apply_2d_capped(cap, &spec, &a, &mut got).unwrap();
                assert_eq!(
                    want.max_interior_diff(&got),
                    0.0,
                    "{} under {:?}",
                    spec.name(),
                    cap
                );
            }
        }
    }

    #[test]
    fn loadspan_covers_the_shift_range() {
        // The vector loop's read guard must cover the deepest operand:
        // slot 2r plus a full vector.
        for r in 1..=MAX_VEC_RADIUS {
            for isa in [TvIsa::Scalar, TvIsa::Avx2, TvIsa::Avx512] {
                let f64span = loadspan::<f64>(isa, r);
                let f32span = loadspan::<f32>(isa, r);
                let (vl64, vl32) = match isa {
                    TvIsa::Scalar => (1, 1),
                    TvIsa::Avx2 => (4, 8),
                    TvIsa::Avx512 => (8, 16),
                };
                assert!(f64span >= 2 * r as usize + vl64, "{isa:?} r={r}");
                assert!(f32span >= 2 * r as usize + vl32, "{isa:?} r={r}");
            }
        }
        // Over-cap radii narrow to the scalar body and its span.
        assert_eq!(effective(TvIsa::Avx512, MAX_VEC_RADIUS + 1), TvIsa::Scalar);
        assert_eq!(loadspan::<f64>(TvIsa::Avx2, 9), 19);
    }
}
