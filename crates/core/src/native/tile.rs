//! Cache-block sweep tiling.
//!
//! The micro-kernels walk each band in column tiles so that the set of
//! input rows a tile touches stays resident in cache while every output
//! row of the band streams over it. On out-of-cache grids (e.g. the
//! 4096² bench case, 32 KiB per row) an untiled sweep would evict each
//! input row between the output rows that reuse it; tiling turns those
//! re-reads into cache hits.
//!
//! Tiling never changes results: the per-element FMA chain is the same
//! regardless of which tile a column lands in.

/// Cache budget one column tile should fit in, in bytes. Half a typical
/// 256 KiB L2 slice — leaves room for the output rows and prefetch
/// streams.
const TILE_TARGET_BYTES: usize = 128 * 1024;

/// Column-tile width (in elements) for a sweep whose kernel keeps
/// `rows_in_flight` grid rows of `elem_bytes`-wide elements live per
/// tile. Always a multiple of 8 (one full vector unroll at every
/// supported width) unless the grid itself is narrower, at least 64
/// columns so tile edges stay rare, and never wider than the grid.
/// Narrower elements fit proportionally more columns in the same cache
/// budget — an f32 sweep gets twice the f64 tile width.
pub(crate) fn col_block(w: usize, rows_in_flight: usize, elem_bytes: usize) -> usize {
    let cap = w.max(1);
    let bytes_per_col = rows_in_flight.max(1) * elem_bytes.max(1);
    let raw = TILE_TARGET_BYTES / bytes_per_col;
    let aligned = raw - raw % 8;
    aligned.clamp(cap.min(64), cap)
}

/// Cache budget for the temporal pipeline's two scratch ping-pong
/// buffers, in bytes. Sized so that at the default `t_block` the
/// scratch levels plus the in-flight source/destination rows stay
/// inside this host class's ~2 MiB private L2 with headroom for the
/// prefetch streams.
const SCRATCH_TARGET_BYTES: usize = 1_280 * 1024;

/// Hard cap on fused time steps per superstep. Beyond this the ghost
/// zone `g = r * (t - 1)` makes overlap recomputation dominate without
/// buying more DRAM-traffic reduction.
const T_BLOCK_CAP: usize = 8;

/// Default trapezoid tile height (grid rows) for the temporal
/// pipeline's base region, before the `r * (t - s)` ghost expansion.
pub(crate) const TEMPORAL_TILE_ROWS: usize = 128;

/// Default trapezoid tile width (grid columns). Wider than tall so the
/// level-1 DRAM reads and final-level stores stream in long contiguous
/// runs (4 KiB per row at the default width).
pub(crate) const TEMPORAL_TILE_COLS: usize = 512;

/// Element count (padded to a vector) of one scratch buffer for a
/// `t`-deep trapezoid over a `th x tw` base tile at radius `r`: the
/// widest level-1 extent `tile + 2 * r * (t - 1)` plus the `r`-wide
/// Dirichlet frame on each side.
pub(crate) fn temporal_scratch_elems(r: usize, t: usize, th: usize, tw: usize) -> usize {
    let g = r * (t.saturating_sub(1)) + r;
    let rows = th + 2 * g;
    let stride = (tw + 2 * g).div_ceil(8) * 8;
    rows * stride
}

/// Fused time steps per superstep for the temporal pipeline: the
/// largest `t` whose two ping-pong scratch buffers (sized by
/// [`temporal_scratch_elems`] for a `th x tw` tile) fit
/// [`SCRATCH_TARGET_BYTES`], clamped to `1..=T_BLOCK_CAP` and never
/// more than `sweeps`.
pub(crate) fn temporal_block(sweeps: usize, r: usize, th: usize, tw: usize) -> usize {
    let fits = |t: usize| {
        2 * temporal_scratch_elems(r, t, th, tw) * std::mem::size_of::<f64>()
            <= SCRATCH_TARGET_BYTES
    };
    let mut t = 1usize;
    while t < T_BLOCK_CAP && t < sweeps && fits(t + 1) {
        t += 1;
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_never_exceeds_width() {
        for w in [1, 7, 63, 64, 100, 4096, 1 << 20] {
            for rows in [3, 6, 30, 1000] {
                for elem in [4usize, 8] {
                    let b = col_block(w, rows, elem);
                    assert!(b >= 1 && b <= w, "w={w} rows={rows} elem={elem} b={b}");
                }
            }
        }
    }

    #[test]
    fn block_is_simd_aligned_when_wide() {
        let b = col_block(1 << 20, 6, 8);
        assert_eq!(b % 8, 0);
        assert!(b >= 64);
        // 6 rows * 8 B/col * block fits the tile budget.
        assert!(6 * 8 * b <= TILE_TARGET_BYTES);
    }

    #[test]
    fn narrower_elements_widen_the_tile() {
        // Same cache budget, half the bytes per column: the f32 tile
        // is (up to 8-alignment) twice the f64 tile.
        let b64 = col_block(1 << 20, 6, 8);
        let b32 = col_block(1 << 20, 6, 4);
        assert!(b32 >= 2 * b64 - 8, "b32={b32} b64={b64}");
        assert!(6 * 4 * b32 <= TILE_TARGET_BYTES);
    }

    #[test]
    fn narrow_grids_get_one_tile() {
        assert_eq!(col_block(40, 6, 8), 40);
        assert_eq!(col_block(3, 1000, 8), 3);
    }

    #[test]
    fn huge_stencils_still_get_a_minimum_tile() {
        // Even when rows_in_flight blows the budget, keep >= 64 cols.
        assert_eq!(col_block(4096, 100_000, 8), 64);
    }

    #[test]
    fn scratch_elems_cover_the_widest_level_and_its_frame() {
        // r=1, t=8 trapezoid over the default tile: level 1 spans
        // tile + 2*7 rows/cols and reads reach one more cell out.
        let e = temporal_scratch_elems(1, 8, TEMPORAL_TILE_ROWS, TEMPORAL_TILE_COLS);
        assert_eq!(e, (128 + 16) * (512 + 16));
        // Stride stays vector-aligned for odd extents.
        assert_eq!(temporal_scratch_elems(1, 2, 10, 10) % 8, 0);
    }

    #[test]
    fn temporal_block_respects_sweeps_cap_and_budget() {
        let (th, tw) = (TEMPORAL_TILE_ROWS, TEMPORAL_TILE_COLS);
        // Never more fused steps than sweeps requested.
        assert_eq!(temporal_block(1, 1, th, tw), 1);
        assert_eq!(temporal_block(3, 1, th, tw), 3);
        // r=1 over the default tile: both scratch buffers at the cap
        // depth are ~1.2 MiB, inside the budget -> full cap.
        assert_eq!(temporal_block(100, 1, th, tw), T_BLOCK_CAP);
        // Wider stencils pay 2r per fused step in both dimensions and
        // lose some depth, but still fuse usefully.
        let t = temporal_block(100, 2, th, tw);
        assert!((4..T_BLOCK_CAP).contains(&t), "t={t}");
        // Enormous tiles: even depth 2 blows the budget -> plain sweeps.
        assert_eq!(temporal_block(100, 1, 4096, 4096), 1);
        // Degenerate sweeps=0 still yields a sane t=1.
        assert_eq!(temporal_block(0, 1, th, tw), 1);
    }
}
