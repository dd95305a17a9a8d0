//! `HSTENCIL_DISPATCH` / `HSTENCIL_THREADS` overrides, end to end, and
//! the dispatch aliases and spellings those overrides parse.
//! Lives in its own test binary because the overrides are read once per
//! process (`OnceLock`): the env vars must be set before the first
//! dispatch/thread decision, no other test in this binary may want a
//! different value, and — since tests run concurrently — *every* test
//! here sets *both* vars (to the same values) before touching any
//! override-reading API.

use hstencil_core::native::{self, pool::ThreadPool, threads, tune, Dispatch};
use hstencil_core::{presets, Grid2d, Grid2dT};

fn pin_env() {
    std::env::set_var("HSTENCIL_DISPATCH", "scalar");
    std::env::set_var("HSTENCIL_THREADS", "2");
}

#[test]
fn scalar_override_pins_every_width_and_stays_bit_identical() {
    // Set before any dispatch decision in this process.
    pin_env();

    // The override trumps the size heuristic at every width, including
    // ones the heuristic would send to AVX2.
    for w in [1usize, 4, 8, 256, 4096] {
        assert_eq!(Dispatch::for_width(w), Dispatch::Scalar, "w={w}");
    }

    // And the pinned path is exactly the scalar kernel: apply_2d (which
    // routes through for_width) must agree bit-for-bit with forcing
    // scalar explicitly.
    let spec = presets::star2d5p();
    let grid = Grid2d::from_fn(33, 47, 1, |i, j| {
        ((i * 11 + j * 5) % 17) as f64 * 0.31 - 2.0
    });
    let mut via_env = Grid2d::zeros(33, 47, 1);
    native::apply_2d(&spec, &grid, &mut via_env);
    let mut forced = Grid2d::zeros(33, 47, 1);
    native::apply_2d_with(Dispatch::Scalar, &spec, &grid, &mut forced);
    assert_eq!(via_env.max_interior_diff(&forced), 0.0);
}

#[test]
fn threads_override_pins_the_lane_count_process_wide() {
    // Set before any thread-count decision in this process.
    pin_env();

    // The pin trumps every caller request, including "fewer".
    assert_eq!(threads::resolve(1), 2);
    assert_eq!(threads::resolve(7), 2);
    assert_eq!(threads::auto(), 2);

    // End to end: a 5-thread request on the auto entry point runs 2
    // lanes on the shared pool (1 spawned worker — this binary's only
    // user of the global pool), and the result stays bit-identical to
    // the serial sweep; the override can only ever change speed.
    let spec = presets::star2d5p();
    let grid = Grid2d::from_fn(64, 40, 1, |i, j| {
        ((i * 13 + j * 7) % 23) as f64 * 0.17 - 1.5
    });
    let mut par = Grid2d::zeros(64, 40, 1);
    native::apply_2d_parallel(&spec, &grid, &mut par, 5);
    let mut serial = Grid2d::zeros(64, 40, 1);
    native::apply_2d_with(Dispatch::Scalar, &spec, &grid, &mut serial);
    assert_eq!(serial.max_interior_diff(&par), 0.0);
    assert_eq!(
        ThreadPool::global().spawned_threads(),
        1,
        "HSTENCIL_THREADS=2 must cap the lane count at 2 (1 worker + caller)"
    );
}

#[test]
fn reuse_aliases_run_their_canonical_targets_and_are_not_pinnable() {
    pin_env();

    // Each alias runs its target kernel, bit for bit, at both widths.
    let spec = presets::box2d25p();
    let grid = Grid2d::from_fn(37, 53, 2, |i, j| ((i * 7 + j * 3) % 19) as f64 * 0.23 - 2.0);
    let grid32 = Grid2dT::<f32>::convert_from(&grid);
    let pairs = [
        (
            Dispatch::Avx2Reuse,
            Dispatch::Avx2Fma,
            Dispatch::avx2_available(),
        ),
        (
            Dispatch::Avx512Reuse,
            Dispatch::Avx512,
            Dispatch::avx512_available(),
        ),
    ];
    for (alias, target, available) in pairs {
        assert_eq!(alias.label(), target.label());
        if !available {
            println!("{alias:?} alias check SKIPPED: host lacks the {target:?} ISA");
            continue;
        }
        let mut want = Grid2d::zeros(37, 53, 2);
        let mut got = Grid2d::zeros(37, 53, 2);
        native::apply_2d_with(target, &spec, &grid, &mut want);
        native::apply_2d_with(alias, &spec, &grid, &mut got);
        assert_eq!(want.max_interior_diff(&got), 0.0, "{alias:?} f64");
        let mut want32 = Grid2dT::<f32>::zeros(37, 53, 2);
        let mut got32 = Grid2dT::<f32>::zeros(37, 53, 2);
        native::apply_2d_with(target, &spec, &grid32, &mut want32);
        native::apply_2d_with(alias, &spec, &grid32, &mut got32);
        assert_eq!(want32.max_interior_diff(&got32), 0.0, "{alias:?} f32");
    }

    // Neither alias is a candidate anywhere.
    let aliases = [Dispatch::Avx2Reuse, Dispatch::Avx512Reuse];
    assert!(Dispatch::candidates().iter().all(|d| !aliases.contains(d)));
    for class in [tune::ShapeClass::Resident, tune::ShapeClass::Streaming] {
        assert!(tune::candidates(class)
            .iter()
            .all(|c| !aliases.contains(&c.dispatch)));
    }

    // The retired spellings are malformed pins now, and say so.
    for v in ["reuse", "avx2+reuse", "avx512+reuse"] {
        let (parsed, warn) = Dispatch::pin_from_env_warn("HSTENCIL_KERNEL", v);
        assert_eq!(parsed, None, "{v}");
        let warn = warn.expect("a retired spelling must warn");
        assert!(warn.contains("malformed"), "{warn}");
        assert!(
            !warn.contains("reuse|"),
            "lists no retired spelling: {warn}"
        );
    }

    // Every kernel's label parses back to it where its ISA is present.
    let kernels = [
        (Dispatch::Scalar, true),
        (Dispatch::Avx2Fma, Dispatch::avx2_available()),
        (Dispatch::Avx512, Dispatch::avx512_available()),
        (Dispatch::Hybrid, true),
        (Dispatch::TempVec, true),
    ];
    for (d, available) in kernels {
        let want = available.then_some(d);
        assert_eq!(Dispatch::from_env_str(d.label()), want, "{}", d.label());
    }
}
