//! Streaming-class jobs through the server. Every standard load-gen
//! class is cache-resident and runs whole on the executor thread, so
//! this suite is what drives the executor's band-split path: grids past
//! the 4 MiB shape-class boundary, split across two pool lanes, must
//! come back bit-identical to the direct single-thread execution.

use hstencil_core::native::ShapeClass;
use hstencil_core::{presets, Grid2d};
use hstencil_serve::loadgen;
use hstencil_serve::{JobRequest, ServeConfig, Server};
use hstencil_testkit::load;
use hstencil_testkit::rng::{Rng, Xoshiro256};

const DEFAULT_SEED: u64 = 0x5EED_0001;

#[test]
fn streaming_jobs_are_band_split_and_bit_identical() {
    let seed = load::seed_from_env(DEFAULT_SEED);
    let spec = presets::star2d5p();
    // 768 × 400 f64, double-buffered: 4.9 MB, past the 4 MiB boundary.
    let (h, w) = (768, 400);
    assert_eq!(ShapeClass::of(h, w), ShapeClass::Streaming);
    let server = Server::start(ServeConfig::new(8, 4, 2));

    let mut rng = Xoshiro256::seed_from_u64(seed);
    let jobs: Vec<_> = [1, 3, 1, 3]
        .into_iter()
        .map(|sweeps| {
            let grid = Grid2d::from_fn(h, w, spec.radius(), |_, _| rng.gen_range(-1.0..1.0));
            let req = JobRequest::from_spec(spec.clone(), grid.clone(), sweeps).expect("valid job");
            (grid, sweeps, server.submit(req).expect("admitted"))
        })
        .collect();
    for (k, (grid, sweeps, handle)) in jobs.into_iter().enumerate() {
        let served = handle.wait().expect("streaming job runs");
        assert_eq!(
            served,
            loadgen::reference_result(&spec, &grid, sweeps),
            "streaming job {k} ({sweeps} sweeps) diverged from direct execution"
        );
    }
    let snap = server.snapshot();
    assert_eq!((snap.completed, snap.failed), (4, 0));
    assert_eq!(snap.latency.count, 4);
}
