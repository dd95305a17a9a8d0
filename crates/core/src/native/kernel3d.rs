//! 3-D micro-kernels with the same dispatch / bit-exactness contract as
//! [`super::kernel2d`]: every output element is one FMA chain over the
//! nonzero taps in canonical `(dk, di, dj)` ascending order, so every
//! dispatch path agrees bit-for-bit within one element type.
//!
//! The `f64` AVX2 path register-blocks *two output rows × eight columns*
//! per step whenever the flattened `(k, i)` walk has two rows left in
//! the same plane (the same register-blocking the 2-D kernel uses, so
//! each input row vector is loaded once and reused by every tap of both
//! rows that touches it); odd trailing rows and plane seams fall back
//! to the single-row kernel. Other (instance × dtype) combinations use
//! the [`TileKernel::execute3`] scalar-chain default — bit-identical,
//! just unvectorized (DESIGN.md §12 records the gap). Input rows are
//! walked grouped by `(dk, di)` so each pencil of loads stays within
//! one cache line run.
//!
//! [`TileKernel::execute3`]: super::kernel::TileKernel::execute3

use super::kernel::{NativeElement, TileKernel};
use super::kernel2d::merge_pair_rows;
use super::tile;
use super::Dispatch;
use crate::element::Element;
use crate::stencil::StencilSpec;

/// One input row's taps: `(dk, di, [(dj, c)...])` in canonical order.
pub(crate) type TapRow<E> = (isize, isize, Vec<(isize, E)>);

/// `(dk, e, merged)` input-row entry for a fused output row pair; see
/// [`Taps3::pairs`].
pub(crate) type PairTapRow<E> = (isize, isize, Vec<(isize, E, E)>);

/// Preprocessed nonzero taps of a 3-D stencil, with coefficients
/// narrowed to the kernel's element type (nonzero-ness is decided on
/// the `f64` master value, so the tap *structure* is dtype-invariant).
pub struct Taps3<E: Element> {
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

impl<E: Element> Taps3<E> {
    pub(crate) fn new(spec: &StencilSpec) -> Taps3<E> {
        assert_eq!(spec.dims(), 3);
        let r = spec.radius() as isize;
        let n = (2 * r + 1) as usize;
        let mut flat = Vec::new();
        let mut rows: Vec<TapRow<E>> = Vec::new();
        let mut singles = vec![Vec::new(); n * n];
        for dk in -r..=r {
            for di in -r..=r {
                let mut row = Vec::new();
                for dj in -r..=r {
                    let c = spec.c3(dk, di, dj);
                    if c != 0.0 {
                        flat.push((dk, di, dj, E::from_f64(c)));
                        row.push((dj, E::from_f64(c)));
                    }
                }
                singles[((dk + r) * (2 * r + 1) + (di + r)) as usize] = row.clone();
                if !row.is_empty() {
                    rows.push((dk, di, row));
                }
            }
        }
        let single = |dk: isize, di: isize| -> &[(isize, E)] {
            if di < -r || di > r {
                &[]
            } else {
                &singles[((dk + r) * (2 * r + 1) + (di + r)) as usize]
            }
        };
        // Output row i sees input row i+e as tap di = e; output row i+1
        // sees it as di = e-1 — same merge as the 2-D pair table, once
        // per dk plane.
        let mut pairs = Vec::new();
        for dk in -r..=r {
            for e in -r..=(r + 1) {
                let merged = merge_pair_rows(single(dk, e), single(dk, e - 1));
                if !merged.is_empty() {
                    pairs.push((dk, e, merged));
                }
            }
        }
        Taps3 { flat, rows, pairs }
    }

    /// Rows resident while one column tile streams (all input rows the
    /// chain touches plus the output row).
    pub(crate) fn rows_in_flight(&self) -> usize {
        self.rows.len() + 1
    }
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

/// Scalar sweep of one row segment — the [`TileKernel::execute3`]
/// default body.
///
/// [`TileKernel::execute3`]: super::kernel::TileKernel::execute3
pub(crate) fn scalar_row3<E: Element>(
    taps: &Taps3<E>,
    a: &[E],
    base: isize,
    plane_stride: isize,
    stride: isize,
    dst: &mut [E],
) {
    for (jj, d) in dst.iter_mut().enumerate() {
        *d = scalar_point(&taps.flat, a, base + jj as isize, plane_stride, stride);
    }
}

/// Sweeps the flattened output rows `t_lo .. t_hi` (row `t` is plane
/// `t / h`, row `t % h`). `dst[0]` must be element `(k_lo, i_lo, 0)`
/// of the output grid where `t_lo = k_lo * h + i_lo`; `strides` are the
/// output grid's `(plane_stride, stride)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_band_3d<E: NativeElement>(
    dispatch: Dispatch,
    taps: &Taps3<E>,
    a: &[E],
    a_org: isize,
    a_plane_stride: isize,
    a_stride: isize,
    h: usize,
    w: usize,
    dst: &mut [E],
    b_plane_stride: usize,
    b_stride: usize,
    t_lo: usize,
    t_hi: usize,
) {
    match dispatch {
        Dispatch::Scalar => drive3::<E, E::KScalar>(
            taps,
            a,
            a_org,
            a_plane_stride,
            a_stride,
            h,
            w,
            dst,
            b_plane_stride,
            b_stride,
            t_lo,
            t_hi,
        ),
        Dispatch::Avx2Fma => drive3::<E, E::KAvx2>(
            taps,
            a,
            a_org,
            a_plane_stride,
            a_stride,
            h,
            w,
            dst,
            b_plane_stride,
            b_stride,
            t_lo,
            t_hi,
        ),
        // The hybrid register tile, the AVX-512 instance and the
        // temporally-vectorized family are 2-D only, and the reuse
        // variants are aliases; the 3-D entry points narrow them all
        // away before the kernel.
        Dispatch::Hybrid
        | Dispatch::Avx512
        | Dispatch::Avx2Reuse
        | Dispatch::Avx512Reuse
        | Dispatch::TempVec => {
            unreachable!("Dispatch::narrow_3d maps 2-D-only dispatches before kernel3d")
        }
    }
}

/// The 3-D band walk for one trait instance: column tiles sized by
/// rows-in-flight, rows paired within a plane when the instance
/// register-blocks (`tile_m >= 2`), single rows at plane seams and odd
/// tails — exactly the pre-trait walk.
#[allow(clippy::too_many_arguments)]
fn drive3<E: Element, K: TileKernel<E>>(
    taps: &Taps3<E>,
    a: &[E],
    a_org: isize,
    a_plane_stride: isize,
    a_stride: isize,
    h: usize,
    w: usize,
    dst: &mut [E],
    b_plane_stride: usize,
    b_stride: usize,
    t_lo: usize,
    t_hi: usize,
) {
    assert!(
        K::available(),
        "{} dispatch forced on a machine without it",
        K::NAME
    );
    let pair_rows = K::config().tile_m >= 2;
    let (k_lo, i_lo) = (t_lo / h, t_lo % h);
    let band_org = k_lo * b_plane_stride + i_lo * b_stride;
    let cb = tile::col_block(w, taps.rows_in_flight(), std::mem::size_of::<E>());
    let mut j0 = 0usize;
    while j0 < w {
        let jw = cb.min(w - j0);
        let mut t = t_lo;
        while t < t_hi {
            let (k, i) = (t / h, t % h);
            let base = a_org + k as isize * a_plane_stride + i as isize * a_stride + j0 as isize;
            let off = k * b_plane_stride + i * b_stride + j0 - band_org;
            // Register-block two rows whenever the next flattened row
            // stays in the same plane.
            if pair_rows && t + 1 < t_hi && i + 1 < h {
                let (head, tail) = dst.split_at_mut(off + b_stride);
                // SAFETY: availability asserted above; the slices
                // cover both row segments of the pair.
                unsafe {
                    K::execute3(
                        taps,
                        a,
                        base,
                        a_plane_stride,
                        a_stride,
                        &mut head[off..off + jw],
                        Some(&mut tail[..jw]),
                    );
                }
                t += 2;
            } else {
                // SAFETY: as above, single-row case.
                unsafe {
                    K::execute3(
                        taps,
                        a,
                        base,
                        a_plane_stride,
                        a_stride,
                        &mut dst[off..off + jw],
                        None,
                    );
                }
                t += 1;
            }
        }
        j0 += jw;
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod avx2 {
    use super::{scalar_point, Taps3};
    use std::arch::x86_64::*;

    /// Two output rows `(k, i)`, `(k, i+1)` of one plane, eight columns
    /// per step (four 4-lane accumulators live across the whole tap
    /// chain). `base` is the flat index of `(k, i, j0)`; `dst0`/`dst1`
    /// are the two output row segments (equal length).
    ///
    /// # Safety
    /// Caller must have verified AVX2 + FMA support.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn row_pair(
        taps: &Taps3<f64>,
        a: &[f64],
        base: isize,
        plane_stride: isize,
        stride: isize,
        dst0: &mut [f64],
        dst1: &mut [f64],
    ) {
        debug_assert_eq!(dst0.len(), dst1.len());
        let jw = dst0.len();
        let ap = a.as_ptr();
        let mut j = 0usize;
        while j + 8 <= jw {
            let mut acc00 = _mm256_setzero_pd();
            let mut acc01 = _mm256_setzero_pd();
            let mut acc10 = _mm256_setzero_pd();
            let mut acc11 = _mm256_setzero_pd();
            for &(dk, e, ref row_taps) in &taps.pairs {
                let row_base = base + dk * plane_stride + e * stride + j as isize;
                for &(dj, c0, c1) in row_taps {
                    let ptr = ap.offset(row_base + dj);
                    let v0 = _mm256_loadu_pd(ptr);
                    let v1 = _mm256_loadu_pd(ptr.add(4));
                    if c0 != 0.0 {
                        let cv = _mm256_set1_pd(c0);
                        acc00 = _mm256_fmadd_pd(cv, v0, acc00);
                        acc01 = _mm256_fmadd_pd(cv, v1, acc01);
                    }
                    if c1 != 0.0 {
                        let cv = _mm256_set1_pd(c1);
                        acc10 = _mm256_fmadd_pd(cv, v0, acc10);
                        acc11 = _mm256_fmadd_pd(cv, v1, acc11);
                    }
                }
            }
            _mm256_storeu_pd(dst0.as_mut_ptr().add(j), acc00);
            _mm256_storeu_pd(dst0.as_mut_ptr().add(j + 4), acc01);
            _mm256_storeu_pd(dst1.as_mut_ptr().add(j), acc10);
            _mm256_storeu_pd(dst1.as_mut_ptr().add(j + 4), acc11);
            j += 8;
        }
        while j + 4 <= jw {
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            for &(dk, e, ref row_taps) in &taps.pairs {
                let row_base = base + dk * plane_stride + e * stride + j as isize;
                for &(dj, c0, c1) in row_taps {
                    let v = _mm256_loadu_pd(ap.offset(row_base + dj));
                    if c0 != 0.0 {
                        acc0 = _mm256_fmadd_pd(_mm256_set1_pd(c0), v, acc0);
                    }
                    if c1 != 0.0 {
                        acc1 = _mm256_fmadd_pd(_mm256_set1_pd(c1), v, acc1);
                    }
                }
            }
            _mm256_storeu_pd(dst0.as_mut_ptr().add(j), acc0);
            _mm256_storeu_pd(dst1.as_mut_ptr().add(j), acc1);
            j += 4;
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

    /// One output row, eight columns per step.
    ///
    /// # Safety
    /// Caller must have verified AVX2 + FMA support.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn row_single(
        taps: &Taps3<f64>,
        a: &[f64],
        base: isize,
        plane_stride: isize,
        stride: isize,
        dst: &mut [f64],
    ) {
        let jw = dst.len();
        let ap = a.as_ptr();
        let mut j = 0usize;
        while j + 8 <= jw {
            let mut acc0 = _mm256_setzero_pd();
            let mut acc1 = _mm256_setzero_pd();
            for &(dk, di, ref row_taps) in &taps.rows {
                let row_base = base + dk * plane_stride + di * stride + j as isize;
                for &(dj, c) in row_taps {
                    let ptr = ap.offset(row_base + dj);
                    let cv = _mm256_set1_pd(c);
                    acc0 = _mm256_fmadd_pd(cv, _mm256_loadu_pd(ptr), acc0);
                    acc1 = _mm256_fmadd_pd(cv, _mm256_loadu_pd(ptr.add(4)), acc1);
                }
            }
            _mm256_storeu_pd(dst.as_mut_ptr().add(j), acc0);
            _mm256_storeu_pd(dst.as_mut_ptr().add(j + 4), acc1);
            j += 8;
        }
        while j + 4 <= jw {
            let mut acc = _mm256_setzero_pd();
            for &(dk, di, ref row_taps) in &taps.rows {
                let row_base = base + dk * plane_stride + di * stride + j as isize;
                for &(dj, c) in row_taps {
                    let v = _mm256_loadu_pd(ap.offset(row_base + dj));
                    acc = _mm256_fmadd_pd(_mm256_set1_pd(c), v, acc);
                }
            }
            _mm256_storeu_pd(dst.as_mut_ptr().add(j), acc);
            j += 4;
        }
        while j < jw {
            dst[j] = scalar_point(&taps.flat, a, base + j as isize, plane_stride, stride);
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::presets;

    #[test]
    fn flat_taps_match_point_counts_and_order() {
        for spec in presets::suite_3d() {
            let taps = Taps3::<f64>::new(&spec);
            assert_eq!(taps.flat.len(), spec.points(), "{}", spec.name());
            let mut sorted = taps.flat.clone();
            sorted.sort_by_key(|&(dk, di, dj, _)| (dk, di, dj));
            assert_eq!(sorted, taps.flat);
            let from_rows: usize = taps.rows.iter().map(|(_, _, r)| r.len()).sum();
            assert_eq!(from_rows, spec.points());
        }
    }

    #[test]
    fn pair_grouping_covers_both_rows_in_canonical_order() {
        // Walking `pairs` in order must replay the canonical flat chain
        // for output row i (via c0) AND for row i+1 (via c1) — that is
        // the whole bit-identity argument for the 3-D pair kernel.
        for spec in presets::suite_3d() {
            let taps = Taps3::<f64>::new(&spec);
            let mut row0 = Vec::new();
            let mut row1 = Vec::new();
            for &(dk, e, ref merged) in &taps.pairs {
                for &(dj, c0, c1) in merged {
                    assert!(c0 != 0.0 || c1 != 0.0, "{}", spec.name());
                    if c0 != 0.0 {
                        row0.push((dk, e, dj, c0));
                    }
                    if c1 != 0.0 {
                        row1.push((dk, e - 1, dj, c1));
                    }
                }
            }
            assert_eq!(row0, taps.flat, "{}: row i chain", spec.name());
            assert_eq!(row1, taps.flat, "{}: row i+1 chain", spec.name());
        }
    }
}
