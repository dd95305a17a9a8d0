//! The 3-D band walk, with the same dispatch / bit-exactness contract
//! as [`super::kernel2d`]: every output element is one FMA chain over
//! the nonzero taps in canonical `(dk, di, dj)` ascending order, so
//! every dispatch path agrees bit-for-bit within one element type.
//!
//! A 3-D sweep runs the *same* two canonical bodies as a 2-D one, over
//! the same [`Chain`] table shape: every canonical instance (AVX2 and
//! AVX-512, `f64` and `f32`) register-blocks *two output rows* per step
//! whenever the flattened `(k, i)` walk has two rows left in the same
//! plane, and odd trailing rows and plane seams take the single-row
//! body. Input rows are walked grouped by `(dk, di)` so each pencil of
//! loads stays within one cache line run. 3-D sweeps issue no software
//! prefetch.

use super::kernel::{Avx2Tile, Avx512Tile, NativeElement, ScalarTile, TileKernel};
use super::kernel2d::Chain;
use super::tile;
use super::Dispatch;
use crate::element::Element;
use crate::stencil::StencilSpec;

/// Preprocessed nonzero taps of a 3-D stencil.
pub struct Taps3<E: Element> {
    /// The canonical chain over planes `dk in -r ..= r`.
    pub(crate) chain: Chain<E>,
}

impl<E: Element> Taps3<E> {
    pub(crate) fn new(spec: &StencilSpec) -> Taps3<E> {
        assert_eq!(spec.dims(), 3);
        let r = spec.radius() as isize;
        Taps3 {
            chain: Chain::new(r, -r..=r, |dk, di, dj| spec.c3(dk, di, dj)),
        }
    }

    /// Rows resident while one column tile streams (all input rows the
    /// chain touches plus the output row).
    pub(crate) fn rows_in_flight(&self) -> usize {
        self.chain.rows.len() + 1
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
    let drive = match dispatch {
        Dispatch::Scalar => drive3::<E, ScalarTile>,
        Dispatch::Avx2Fma => drive3::<E, Avx2Tile>,
        Dispatch::Avx512 => drive3::<E, Avx512Tile>,
        // The temporally-vectorized family is 2-D only and the aliases
        // are not kernels; the 3-D entry points narrow both away.
        d => unreachable!("Dispatch::narrow_3d maps {d:?} to a canonical kernel before kernel3d"),
    };
    drive(
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
    );
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::presets;

    #[test]
    fn flat_taps_match_point_counts_and_order() {
        for spec in presets::suite_3d() {
            let taps = Taps3::<f64>::new(&spec).chain;
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
            let taps = Taps3::<f64>::new(&spec).chain;
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
