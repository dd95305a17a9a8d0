//! Multi-core concurrency contracts of the native executor: concurrent
//! callers on the shared global pool, and bit-identity of every
//! canonical kernel across thread counts at streaming sizes.

use hstencil_core::native::{self, pool::ThreadPool, Dispatch};
use hstencil_core::{presets, Grid2d};

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
fn concurrent_callers_share_the_global_pool_without_cross_talk() {
    // Two OS threads drive `apply_2d_parallel_in` on the process-wide
    // pool at once. The workers Mutex must serialize the runs so each
    // caller's bands land in its own output — nothing exercised this
    // before, although every library user shares ThreadPool::global().
    let spec = presets::star2d5p();
    let a = random_grid(96, 64, 1, 7);
    let mut want = Grid2d::zeros(96, 64, 1);
    native::apply_2d_with(Dispatch::detect(), &spec, &a, &mut want);
    std::thread::scope(|s| {
        for caller in 0..2usize {
            let (spec, a, want) = (&spec, &a, &want);
            s.spawn(move || {
                for round in 0..20 {
                    let mut got = Grid2d::zeros(96, 64, 1);
                    native::apply_2d_parallel_in(
                        ThreadPool::global(),
                        Dispatch::detect(),
                        spec,
                        a,
                        &mut got,
                        4,
                    );
                    assert_eq!(
                        want.max_interior_diff(&got),
                        0.0,
                        "caller {caller} round {round}"
                    );
                }
            });
        }
    });
}

#[test]
fn every_kernel_is_bit_identical_across_thread_counts() {
    // 800 x 1200 (double-buffered working set ~15 MiB) streams from
    // DRAM; every kernel must agree bit for bit with its serial sweep
    // at every lane count, uneven band splits included.
    let spec = presets::star2d5p();
    let a = random_grid(800, 1200, 1, 23);
    let all = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for d in Dispatch::candidates() {
        let mut serial = Grid2d::zeros(800, 1200, 1);
        native::apply_2d_with(d, &spec, &a, &mut serial);
        for threads in [1usize, 2, 3, all] {
            let mut par = Grid2d::zeros(800, 1200, 1);
            native::apply_2d_parallel_in(ThreadPool::global(), d, &spec, &a, &mut par, threads);
            assert_eq!(
                serial.max_interior_diff(&par),
                0.0,
                "{} threads={threads}",
                d.label()
            );
        }
    }
}

#[test]
fn temporal_pipeline_is_bit_identical_across_thread_counts_per_kernel() {
    // The fused multi-sweep schedule at every kernel and thread count
    // must match plain repeated sweeps exactly (the temporal executor's
    // own suite pins small grids; this adds a streaming shape).
    let spec = presets::box2d9p();
    let a = random_grid(640, 1024, 1, 41);
    let sweeps = 3usize;
    let all = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for d in Dispatch::candidates() {
        let mut want = a.clone();
        let mut ping = a.clone();
        for _ in 0..sweeps {
            native::apply_2d_with(d, &spec, &want, &mut ping);
            std::mem::swap(&mut want, &mut ping);
        }
        for threads in [1usize, 2, 3, all] {
            let got = native::time_steps_temporal_in(
                ThreadPool::global(),
                d,
                &spec,
                &a,
                sweeps,
                threads,
                native::Temporal {
                    t_block: Some(2),
                    force_pipeline: true,
                    tile: None,
                },
            );
            assert_eq!(
                want.max_interior_diff(&got),
                0.0,
                "{} threads={threads}",
                d.label()
            );
        }
    }
}
