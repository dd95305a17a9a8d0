//! The canonical FMA chain and its two SIMD bodies, shared by every
//! 2-D and 3-D canonical sweep, plus the 2-D band entry point.
//!
//! Every canonical dispatch path computes every output element as the
//! *same* fused-multiply-add chain over the nonzero taps in canonical
//! `(dk, di, dj)` ascending order (2-D tables use plane offset `dk = 0`),
//! starting from zero:
//!
//! ```text
//! acc <- fma(c_tap, a[k+dk, i+di, j+dj], acc)      for each tap in order
//! ```
//!
//! Vector `fma` ([`super::lane::Lane`]) and `Element::mul_add` all round
//! once per step, so every SIMD path and the scalar chain are
//! **bit-identical** within one element type — dispatch can never
//! change results, only speed (asserted by the `native_dispatch`
//! property suite at both dtypes).
//!
//! The SIMD paths are the in-register analogue of the paper's in-place
//! accumulation (HStencil §3, Algorithm 2): [`row_pair`] processes *two
//! output rows* × two registers of columns per step, so every input row
//! vector it loads is reused by all taps of both rows that touch it
//! instead of being re-fetched once per tap the way the seed's
//! tap-per-pass loop did; [`row_single`] covers odd last rows and plane
//! seams. Each body is written once, generic over the vector register,
//! and reached through one `#[target_feature]` shim per ISA
//! ([`pair_avx2`], [`pair_avx512`], [`single_avx2`], [`single_avx512`]),
//! which [`canonical_rows`] selects. The band walks that drive them are
//! the shared
//! [`TileKernel::sweep_band`] default in [`super::kernel`] (2-D) and
//! `drive3` in [`super::kernel3d`] (3-D).
//!
//! [`TileKernel::sweep_band`]: super::kernel::TileKernel::sweep_band

use super::kernel::{Avx2Tile, Avx512Tile, NativeElement, ScalarTile, TileKernel};
#[cfg(target_arch = "x86_64")]
use super::lane::Lane;
#[cfg(target_arch = "x86_64")]
use super::prefetch::Prefetch;
use super::Dispatch;
use crate::element::Element;
use crate::stencil::StencilSpec;
use std::ops::RangeInclusive;

/// One input row's taps: `(dk, di, [(dj, c)...])` in canonical order.
pub(crate) type TapRow<E> = (isize, isize, Vec<(isize, E)>);

/// `(dk, e, merged)` input-row entry for a fused output row pair; see
/// [`Chain::pairs`].
pub(crate) type PairTapRow<E> = (isize, isize, Vec<(isize, E, E)>);

/// The canonical tap chain of one stencil, flat and grouped by input
/// row — the one table shape both canonical bodies walk, for 2-D
/// (`dk = 0`) and 3-D alike. Coefficients are narrowed to the kernel's
/// element type; nonzero-ness is decided on the `f64` master value, so
/// the tap *structure* is dtype-invariant.
pub struct Chain<E: Element> {
    /// Radius.
    pub(crate) r: isize,
    /// Canonical `(dk, di, dj, c)` chain — the bit-exactness contract.
    pub(crate) flat: Vec<(isize, isize, isize, E)>,
    /// Taps grouped by input row in canonical order (rows with no
    /// nonzero taps omitted).
    pub(crate) rows: Vec<TapRow<E>>,
    /// Taps grouped by input row for an output row *pair* `(k, i)`,
    /// `(k, i+1)` within one plane: entry `(dk, e, merged)` covers input
    /// row `(k + dk, i + e)` with `e` in `-r ..= r+1`; `merged` lists
    /// `(dj, c_row_i, c_row_i1)` ascending by `dj` (zero coefficient =
    /// tap does not touch that output row). `dk`-major so walking the
    /// list applies taps in canonical order for both rows.
    pub(crate) pairs: Vec<PairTapRow<E>>,
}

impl<E: Element> Chain<E> {
    /// The chain of a radius-`r` stencil over planes `dk in planes`
    /// whose `f64` master coefficient at `(dk, di, dj)` is `c`.
    pub(crate) fn new(
        r: isize,
        planes: RangeInclusive<isize>,
        c: impl Fn(isize, isize, isize) -> f64,
    ) -> Self {
        let mut flat = Vec::new();
        let mut rows = Vec::new();
        let mut pairs = Vec::new();
        for dk in planes {
            let mut single = vec![Vec::new(); (2 * r + 1) as usize];
            for di in -r..=r {
                for dj in -r..=r {
                    let v = c(dk, di, dj);
                    if v != 0.0 {
                        flat.push((dk, di, dj, E::from_f64(v)));
                        single[(di + r) as usize].push((dj, E::from_f64(v)));
                    }
                }
            }
            let row = |di: isize| -> &[(isize, E)] {
                if di < -r || di > r {
                    &[]
                } else {
                    &single[(di + r) as usize]
                }
            };
            for di in -r..=r {
                if !row(di).is_empty() {
                    rows.push((dk, di, row(di).to_vec()));
                }
            }
            // Output row i sees input row i+e as tap di = e; output row
            // i+1 sees it as di = e-1. Merge the two dj lists.
            for e in -r..=(r + 1) {
                let merged = merge_pair_rows(row(e), row(e - 1));
                if !merged.is_empty() {
                    pairs.push((dk, e, merged));
                }
            }
        }
        Chain {
            r,
            flat,
            rows,
            pairs,
        }
    }
}

/// Preprocessed nonzero taps of a 2-D stencil.
pub struct Taps2<E: Element> {
    /// The canonical chain, every tap at plane offset `dk = 0`.
    pub(crate) chain: Chain<E>,
}

impl<E: Element> Taps2<E> {
    pub(crate) fn new(spec: &StencilSpec) -> Taps2<E> {
        assert_eq!(spec.dims(), 2);
        let r = spec.radius() as isize;
        Taps2 {
            chain: Chain::new(r, 0..=0, |_, di, dj| spec.c2(di, dj)),
        }
    }

    /// Rows resident while the pair kernel streams one column tile
    /// (input rows of the pair plus the two output rows).
    pub(crate) fn rows_in_flight(&self) -> usize {
        (2 * self.chain.r + 2) as usize + 2
    }
}

/// Merges the `(dj, c)` tap lists of one input row as seen by an output
/// row pair `(i, i+1)` into one `(dj, c_row_i, c_row_i1)` list ascending
/// by `dj` (a zero coefficient means the tap does not touch that output
/// row).
fn merge_pair_rows<E: Element>(a: &[(isize, E)], b: &[(isize, E)]) -> Vec<(isize, E, E)> {
    let mut merged: Vec<(isize, E, E)> = Vec::new();
    let (mut ia, mut ib) = (0usize, 0usize);
    while ia < a.len() || ib < b.len() {
        let next_a = a.get(ia).map(|t| t.0);
        let next_b = b.get(ib).map(|t| t.0);
        match (next_a, next_b) {
            (Some(da), Some(db)) if da == db => {
                merged.push((da, a[ia].1, b[ib].1));
                ia += 1;
                ib += 1;
            }
            (Some(da), Some(db)) if da < db => {
                merged.push((da, a[ia].1, E::ZERO));
                ia += 1;
            }
            (Some(_), Some(db)) => {
                merged.push((db, E::ZERO, b[ib].1));
                ib += 1;
            }
            (Some(da), None) => {
                merged.push((da, a[ia].1, E::ZERO));
                ia += 1;
            }
            (None, Some(db)) => {
                merged.push((db, E::ZERO, b[ib].1));
                ib += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    merged
}

/// The canonical scalar chain for one element; also the SIMD tail path.
#[inline]
fn scalar_point<E: Element>(
    flat: &[(isize, isize, isize, E)],
    a: &[E],
    base: isize,
    plane_stride: isize,
    stride: isize,
) -> E {
    let mut acc = E::ZERO;
    for &(dk, di, dj, c) in flat {
        acc = c.mul_add(
            a[(base + dk * plane_stride + di * stride + dj) as usize],
            acc,
        );
    }
    acc
}

/// Scalar sweep of one row segment: `dst[jj]` = chain at `(k, i, j0 +
/// jj)` where `base` is the flat index of `(k, i, j0)` in `a` (2-D
/// callers pass plane stride 0).
pub(crate) fn scalar_row<E: Element>(
    flat: &[(isize, isize, isize, E)],
    a: &[E],
    base: isize,
    plane_stride: isize,
    stride: isize,
    dst: &mut [E],
) {
    for (jj, d) in dst.iter_mut().enumerate() {
        *d = scalar_point(flat, a, base + jj as isize, plane_stride, stride);
    }
}

/// Sweeps output rows `i_lo .. i_hi` of a band through the trait
/// instance `dispatch` names for element type `E` (see
/// [`super::kernel`] for the slice contract).
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_band_2d<E: NativeElement>(
    dispatch: Dispatch,
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
    match dispatch.row().dispatch {
        Dispatch::Scalar => <ScalarTile as TileKernel<E>>::sweep_band(
            taps, a, a_org, a_stride, w, dst, b_stride, i_lo, i_hi,
        ),
        Dispatch::Avx2Fma => <Avx2Tile as TileKernel<E>>::sweep_band(
            taps, a, a_org, a_stride, w, dst, b_stride, i_lo, i_hi,
        ),
        Dispatch::Avx512 => <Avx512Tile as TileKernel<E>>::sweep_band(
            taps, a, a_org, a_stride, w, dst, b_stride, i_lo, i_hi,
        ),
        // The tempvec family drives its own row loop (per-row source
        // pointers rather than an affine tile walk).
        Dispatch::TempVec => super::tempvec::sweep_band(
            super::tempvec::TvIsa::best(),
            taps,
            a,
            a_org,
            a_stride,
            w,
            dst,
            b_stride,
            i_lo,
            i_hi,
        ),
        alias => unreachable!("Dispatch::row resolves the alias {alias:?}"),
    }
}

/// Issues the Algorithm-3-style T0 prefetches for one main-loop step:
/// the next `rows` input rows below the deepest tap row (the rows the
/// following output pair will pull in) and the store stream `cols`
/// ahead of the current destination cursor. Pointers are built with
/// wrapping arithmetic — `_mm_prefetch` is a pure hint that never
/// faults, so running past a slice edge is safe by construction.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn hint_step<E: Element>(
    ap: *const E,
    deep: isize,
    stride: isize,
    rows: usize,
    dsts: &[*const E],
    j: usize,
    cols: usize,
) {
    use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
    for q in 0..rows as isize {
        let p = ap.wrapping_offset(deep + q * stride);
        _mm_prefetch::<_MM_HINT_T0>(p as *const i8);
    }
    if cols > 0 {
        for &d in dsts {
            _mm_prefetch::<_MM_HINT_T0>(d.wrapping_add(j + cols) as *const i8);
        }
    }
}

/// Whether every read of a row segment of `jw` outputs whose center
/// sits at flat index `base` stays inside `0..len`: for each tap, the
/// lowest element read is `base + off` and the highest `base + off +
/// jw - 1`. The halo contract the canonical bodies are called under.
#[cfg(target_arch = "x86_64")]
fn reads_inside<E>(
    flat: &[(isize, isize, isize, E)],
    base: isize,
    plane_stride: isize,
    stride: isize,
    jw: usize,
    len: usize,
) -> bool {
    flat.iter().all(|&(dk, di, dj, _)| {
        let lo = base + dk * plane_stride + di * stride + dj;
        lo >= 0 && lo + jw as isize <= len as isize
    })
}

/// The canonical row pair: output rows `(k, i)` and `(k, i+1)` of one
/// plane, `2 * V::N` columns per step (four accumulators live across
/// the whole tap chain), then one register of columns, then the scalar
/// chain for the tail. `base` is the flat index of `(k, i, j0)`;
/// `dst0`/`dst1` are the two output row segments (equal length). 2-D
/// sweeps pass plane stride 0.
///
/// # Safety
/// The host must run `V`'s ISA, and `a` must cover every tap read of
/// both rows (debug builds check this once per call).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn row_pair<V: Lane>(
    taps: &Chain<V::E>,
    a: &[V::E],
    base: isize,
    plane_stride: isize,
    stride: isize,
    dst0: &mut [V::E],
    dst1: &mut [V::E],
    pf: Prefetch,
) {
    debug_assert_eq!(dst0.len(), dst1.len());
    let jw = dst0.len();
    debug_assert!(
        reads_inside(&taps.flat, base, plane_stride, stride, jw, a.len())
            && reads_inside(&taps.flat, base + stride, plane_stride, stride, jw, a.len()),
        "canonical row pair reads out of bounds of `a`"
    );
    let n = V::N;
    let zero = V::E::ZERO;
    let ap = a.as_ptr();
    // Deepest input row of this pair is base + (r+1)*stride; the
    // prefetch stream runs `input_rows` rows below it (the rows the
    // next pair down the band will newly touch).
    let pf_deep = base + (taps.r + 2) * stride;
    let dst_ptrs = [dst0.as_ptr(), dst1.as_ptr()];
    let mut j = 0usize;
    while j + 2 * n <= jw {
        hint_step(
            ap,
            pf_deep + j as isize,
            stride,
            pf.input_rows,
            &dst_ptrs,
            j,
            pf.dst_cols,
        );
        let mut acc00 = V::zero();
        let mut acc01 = V::zero();
        let mut acc10 = V::zero();
        let mut acc11 = V::zero();
        for &(dk, e, ref row_taps) in &taps.pairs {
            let row_base = base + dk * plane_stride + e * stride + j as isize;
            for &(dj, c0, c1) in row_taps {
                let ptr = ap.offset(row_base + dj);
                let v0 = V::load(ptr);
                let v1 = V::load(ptr.add(n));
                if c0 != zero {
                    let cv = V::splat(c0);
                    acc00 = V::fma(cv, v0, acc00);
                    acc01 = V::fma(cv, v1, acc01);
                }
                if c1 != zero {
                    let cv = V::splat(c1);
                    acc10 = V::fma(cv, v0, acc10);
                    acc11 = V::fma(cv, v1, acc11);
                }
            }
        }
        acc00.store(dst0.as_mut_ptr().add(j));
        acc01.store(dst0.as_mut_ptr().add(j + n));
        acc10.store(dst1.as_mut_ptr().add(j));
        acc11.store(dst1.as_mut_ptr().add(j + n));
        j += 2 * n;
    }
    while j + n <= jw {
        let mut acc0 = V::zero();
        let mut acc1 = V::zero();
        for &(dk, e, ref row_taps) in &taps.pairs {
            let row_base = base + dk * plane_stride + e * stride + j as isize;
            for &(dj, c0, c1) in row_taps {
                let v = V::load(ap.offset(row_base + dj));
                if c0 != zero {
                    acc0 = V::fma(V::splat(c0), v, acc0);
                }
                if c1 != zero {
                    acc1 = V::fma(V::splat(c1), v, acc1);
                }
            }
        }
        acc0.store(dst0.as_mut_ptr().add(j));
        acc1.store(dst1.as_mut_ptr().add(j));
        j += n;
    }
    while j < jw {
        dst0[j] = scalar_point(&taps.flat, a, base + j as isize, plane_stride, stride);
        dst1[j] = scalar_point(
            &taps.flat,
            a,
            base + stride + j as isize,
            plane_stride,
            stride,
        );
        j += 1;
    }
}

/// The canonical single row (the odd last row of a band, or a plane
/// seam): `2 * V::N` columns per step, then one register, then the
/// scalar tail. Arguments as [`row_pair`].
///
/// # Safety
/// As [`row_pair`], for the one row.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn row_single<V: Lane>(
    taps: &Chain<V::E>,
    a: &[V::E],
    base: isize,
    plane_stride: isize,
    stride: isize,
    dst: &mut [V::E],
    pf: Prefetch,
) {
    let jw = dst.len();
    debug_assert!(
        reads_inside(&taps.flat, base, plane_stride, stride, jw, a.len()),
        "canonical single row reads out of bounds of `a`"
    );
    let n = V::N;
    let ap = a.as_ptr();
    let pf_deep = base + (taps.r + 1) * stride;
    let dst_ptrs = [dst.as_ptr()];
    let mut j = 0usize;
    while j + 2 * n <= jw {
        hint_step(
            ap,
            pf_deep + j as isize,
            stride,
            pf.input_rows,
            &dst_ptrs,
            j,
            pf.dst_cols,
        );
        let mut acc0 = V::zero();
        let mut acc1 = V::zero();
        for &(dk, di, ref row_taps) in &taps.rows {
            let row_base = base + dk * plane_stride + di * stride + j as isize;
            for &(dj, c) in row_taps {
                let ptr = ap.offset(row_base + dj);
                let cv = V::splat(c);
                acc0 = V::fma(cv, V::load(ptr), acc0);
                acc1 = V::fma(cv, V::load(ptr.add(n)), acc1);
            }
        }
        acc0.store(dst.as_mut_ptr().add(j));
        acc1.store(dst.as_mut_ptr().add(j + n));
        j += 2 * n;
    }
    while j + n <= jw {
        let mut acc = V::zero();
        for &(dk, di, ref row_taps) in &taps.rows {
            let row_base = base + dk * plane_stride + di * stride + j as isize;
            for &(dj, c) in row_taps {
                let v = V::load(ap.offset(row_base + dj));
                acc = V::fma(V::splat(c), v, acc);
            }
        }
        acc.store(dst.as_mut_ptr().add(j));
        j += n;
    }
    while j < jw {
        dst[j] = scalar_point(&taps.flat, a, base + j as isize, plane_stride, stride);
        j += 1;
    }
}

/// The ISA of a canonical SIMD call.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub enum Simd {
    /// AVX2 + FMA, 256-bit registers.
    Avx2,
    /// AVX-512F, 512-bit registers.
    Avx512,
}

/// One canonical row pair (`dst1` present) or single row through the
/// shim of `isa`, at the 256-bit register `Y` or the 512-bit register
/// `Z`.
///
/// # Safety
/// The host must run `isa`; `a` as [`row_pair`].
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
pub(crate) unsafe fn canonical_rows<Y: Lane, Z: Lane<E = Y::E>>(
    isa: Simd,
    taps: &Chain<Y::E>,
    a: &[Y::E],
    base: isize,
    plane_stride: isize,
    stride: isize,
    dst0: &mut [Y::E],
    dst1: Option<&mut [Y::E]>,
    pf: Prefetch,
) {
    match (isa, dst1) {
        (Simd::Avx2, Some(d1)) => pair_avx2::<Y>(taps, a, base, plane_stride, stride, dst0, d1, pf),
        (Simd::Avx2, None) => single_avx2::<Y>(taps, a, base, plane_stride, stride, dst0, pf),
        (Simd::Avx512, Some(d1)) => {
            pair_avx512::<Z>(taps, a, base, plane_stride, stride, dst0, d1, pf)
        }
        (Simd::Avx512, None) => single_avx512::<Z>(taps, a, base, plane_stride, stride, dst0, pf),
    }
}

/// [`row_pair`] compiled for AVX2 + FMA (`V` is a 256-bit register).
///
/// # Safety
/// Caller must have verified AVX2 + FMA support; `a` as [`row_pair`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn pair_avx2<V: Lane>(
    taps: &Chain<V::E>,
    a: &[V::E],
    base: isize,
    plane_stride: isize,
    stride: isize,
    dst0: &mut [V::E],
    dst1: &mut [V::E],
    pf: Prefetch,
) {
    row_pair::<V>(taps, a, base, plane_stride, stride, dst0, dst1, pf);
}

/// [`row_pair`] compiled for AVX-512F (`V` is a 512-bit register).
///
/// # Safety
/// Caller must have verified AVX-512F support; `a` as [`row_pair`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn pair_avx512<V: Lane>(
    taps: &Chain<V::E>,
    a: &[V::E],
    base: isize,
    plane_stride: isize,
    stride: isize,
    dst0: &mut [V::E],
    dst1: &mut [V::E],
    pf: Prefetch,
) {
    row_pair::<V>(taps, a, base, plane_stride, stride, dst0, dst1, pf);
}

/// [`row_single`] compiled for AVX2 + FMA.
///
/// # Safety
/// As [`pair_avx2`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn single_avx2<V: Lane>(
    taps: &Chain<V::E>,
    a: &[V::E],
    base: isize,
    plane_stride: isize,
    stride: isize,
    dst: &mut [V::E],
    pf: Prefetch,
) {
    row_single::<V>(taps, a, base, plane_stride, stride, dst, pf);
}

/// [`row_single`] compiled for AVX-512F.
///
/// # Safety
/// As [`pair_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn single_avx512<V: Lane>(
    taps: &Chain<V::E>,
    a: &[V::E],
    base: isize,
    plane_stride: isize,
    stride: isize,
    dst: &mut [V::E],
    pf: Prefetch,
) {
    row_single::<V>(taps, a, base, plane_stride, stride, dst, pf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::presets;

    #[test]
    fn pair_merge_covers_both_rows_in_canonical_order() {
        // Walking `pairs` in order must replay the canonical flat chain
        // for output row i (via c0) AND for row i+1 (via c1).
        for spec in presets::suite_2d() {
            let chain = Taps2::<f64>::new(&spec).chain;
            let mut from_pair_row0 = Vec::new();
            let mut from_pair_row1 = Vec::new();
            for &(dk, e, ref row) in &chain.pairs {
                for &(dj, c0, c1) in row {
                    // dj strictly ascending within one input row.
                    assert!(c0 != 0.0 || c1 != 0.0);
                    if c0 != 0.0 {
                        from_pair_row0.push((dk, e, dj, c0));
                    }
                    if c1 != 0.0 {
                        from_pair_row1.push((dk, e - 1, dj, c1));
                    }
                }
            }
            assert_eq!(from_pair_row0, chain.flat, "{}", spec.name());
            assert_eq!(from_pair_row1, chain.flat, "{}", spec.name());
        }
    }

    #[test]
    fn flat_taps_are_sorted_and_nonzero() {
        for spec in presets::suite_2d() {
            let chain = Taps2::<f64>::new(&spec).chain;
            assert_eq!(chain.flat.len(), spec.points());
            let mut sorted = chain.flat.clone();
            sorted.sort_by_key(|&(dk, di, dj, _)| (dk, di, dj));
            assert_eq!(sorted, chain.flat, "{}", spec.name());
            assert!(
                chain.flat.iter().all(|&(dk, ..)| dk == 0),
                "{}",
                spec.name()
            );
        }
    }

    #[test]
    fn f32_taps_share_the_structure_and_narrow_the_coefficients() {
        for spec in presets::suite_2d() {
            let t64 = Taps2::<f64>::new(&spec).chain;
            let t32 = Taps2::<f32>::new(&spec).chain;
            assert_eq!(t32.flat.len(), t64.flat.len(), "{}", spec.name());
            for (&(dk32, di32, dj32, c32), &(dk64, di64, dj64, c64)) in
                t32.flat.iter().zip(&t64.flat)
            {
                assert_eq!((dk32, di32, dj32), (dk64, di64, dj64));
                assert_eq!(c32, c64 as f32, "round-to-nearest narrowing");
            }
        }
    }

    /// The canonical bodies' bounds contract: an input one element short
    /// of the halo must trip the debug assertion instead of reading past
    /// the slice. Runs the widest canonical instance this host carries;
    /// on hosts without SIMD the scalar chain's checked indexing reports
    /// the same overrun.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn canonical_bodies_reject_an_input_one_element_short() {
        let spec = presets::box2d9p();
        let taps = Taps2::<f32>::new(&spec);
        // 64 columns are whole vector steps at every width, so only the
        // vector loop (never the checked scalar tail) reads the last
        // element: the bottom-right halo corner.
        let (h, w, r) = (4usize, 64usize, 1usize);
        let stride = w + 2 * r;
        let a = vec![1.0f32; (h + 2 * r) * stride];
        let mut dst = vec![0.0f32; h * w];
        let widest = *Dispatch::candidates().last().expect("scalar always runs");
        let org = (r * stride + r) as isize;
        sweep_band_2d(
            widest,
            &taps,
            &a[..a.len() - 1],
            org,
            stride as isize,
            w,
            &mut dst,
            w,
            0,
            h,
        );
    }
}
