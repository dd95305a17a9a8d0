//! Property suite for the temporally-tiled native multi-sweep executor
//! (DESIGN.md §9): for **any** stencil, grid shape, fused depth
//! `t_block ∈ {1..4}`, band count, sweep count and trapezoid tile size,
//! the pipeline must be **bit-identical** to `sweeps` sequential
//! `apply_2d` calls — temporal tiling only reorders the memory
//! schedule, never a single FMA.
//!
//! A failure prints a `TESTKIT_SEED=0x...` line that replays the exact
//! case (see README.md "Reproducing a property-test failure").

use hstencil_core::native::{self, pool::ThreadPool, Dispatch, Temporal};
use hstencil_core::{Grid2d, Pattern, StencilSpec};
use hstencil_testkit::prop::{self, range, vec_of, Config, Strategy};
use hstencil_testkit::prop_assert;

/// A generated multi-sweep case: shapes stress sub-vector widths, bands
/// taller than the grid, ghost widths larger than the tile, and fused
/// depths that do not divide the sweep count.
#[derive(Clone, Debug)]
struct Case {
    spec: StencilSpec,
    grid: Grid2d,
    sweeps: usize,
    t_block: usize,
    threads: usize,
    tile: Option<(usize, usize)>,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    let dims = (
        range(1usize..25), // h
        range(1usize..41), // w
        range(1usize..4),  // radius 1..=3
        range(0usize..3),  // halo slack beyond the radius
        range(1usize..9),  // threads (band count)
        range(0usize..2),  // star (0) or box (1)
    );
    let sched = (
        range(0usize..10), // sweeps
        range(1usize..5),  // t_block 1..=4
        range(0usize..4),  // tile override selector
    );
    (dims, sched, vec_of(range(-2.0f64..2.0), 0..50)).map(
        |((h, w, r, slack, threads, pattern), (sweeps, t_block, tile_sel), coeffs)| {
            let (h, w) = (h.max(r + 1), w.max(r + 1));
            let n = 2 * r + 1;
            let mut table = vec![0.0; n * n];
            let pick = |k: usize| coeffs.get(k % coeffs.len().max(1)).copied().unwrap_or(0.4);
            if pattern == 0 {
                for k in 0..n {
                    table[r * n + k] = pick(k);
                    table[k * n + r] = pick(n + k);
                }
            } else {
                for (k, t) in table.iter_mut().enumerate() {
                    *t = pick(k);
                }
            }
            let spec = if pattern == 0 {
                StencilSpec::new_2d("prop-star", Pattern::Star, r, table)
            } else {
                StencilSpec::new_2d("prop-box", Pattern::Box, r, table)
            };
            let halo = r + slack;
            let mut v = 0.23;
            let grid = Grid2d::from_fn(h, w, halo, |i, j| {
                v = (v * 1.3 + 0.7 + (i as f64) * 0.01 + (j as f64) * 0.003) % 5.0 - 2.5;
                v
            });
            // Tiles deliberately smaller than the ghost width force the
            // clamped-overlap paths; `None` exercises the static default.
            let tile = [None, Some((2, 4)), Some((5, 9)), Some((16, 8))][tile_sel];
            Case {
                spec,
                grid,
                sweeps,
                t_block,
                threads,
                tile,
            }
        },
    )
}

#[test]
fn temporal_pipeline_is_bit_identical_to_repeated_apply_2d() {
    let cfg = Config::with_cases(48);
    let pool = ThreadPool::new();
    prop::check(&cfg, &case_strategy(), |case| {
        let mut cur = case.grid.clone();
        let mut next = case.grid.clone();
        for _ in 0..case.sweeps {
            native::apply_2d(&case.spec, &cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        let got = native::time_steps_temporal_in(
            &pool,
            Dispatch::detect(),
            &case.spec,
            &case.grid,
            case.sweeps,
            case.threads,
            Temporal {
                t_block: Some(case.t_block),
                force_pipeline: true,
                tile: case.tile,
            },
        );
        let diff = cur.max_interior_diff(&got);
        prop_assert!(
            diff == 0.0,
            "temporal differs by {diff:e}: {}x{} r={} sweeps={} t_block={} threads={} tile={:?}",
            case.grid.h(),
            case.grid.w(),
            case.spec.radius(),
            case.sweeps,
            case.t_block,
            case.threads,
            case.tile
        );
        Ok(())
    });
}

#[test]
fn auto_depth_pipeline_matches_naive_ping_pong() {
    // The auto policy (depth from the cache budget, fallback for small
    // working sets) must agree with the naive path on a grid big enough
    // to actually take the pipeline.
    let cfg = Config::with_cases(6);
    let pool = ThreadPool::new();
    prop::check(&cfg, &range(1usize..6), |&sweeps| {
        let spec = hstencil_core::presets::star2d5p();
        let grid = Grid2d::from_fn(140, 150, 1, |i, j| ((i * 13 + j * 7) % 23) as f64 * 0.11);
        let want = native::time_steps_in(&pool, Dispatch::detect(), &spec, &grid, sweeps, 2);
        let got = native::time_steps_temporal_in(
            &pool,
            Dispatch::detect(),
            &spec,
            &grid,
            sweeps,
            2,
            Temporal {
                t_block: None,
                force_pipeline: true,
                tile: None,
            },
        );
        let diff = want.max_interior_diff(&got);
        prop_assert!(diff == 0.0, "sweeps={sweeps} differs by {diff:e}");
        Ok(())
    });
}
