//! The native workloads: `sweep_l2`, `sweep_dram` and `steps_dram`.
//!
//! Each is a fixed list of cases (stencil × grid × dtype × entry
//! point) run round-robin, one call of every case per round, so a
//! phase of the host slows every case alike. Inputs come from the seed;
//! the last output of every case is checked after the timed window.

use crate::host::{self, Roofline};
use crate::stats::{median, percentile, samples_beyond};
use crate::trace::Trace;
use crate::{Ctx, Metric, Outcome};
use hstencil_core::native::{self, baseline, pool::ThreadPool, threads, Temporal};
use hstencil_core::{
    presets, reference, Dispatch, Dtype, Element, Grid2d, Grid2dT, Grid3d, NativeElement,
    StencilSpec,
};
use hstencil_testkit::{Rng, SplitMix64, Xoshiro256};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Which native workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SweepL2,
    SweepDram,
    StepsDram,
}

/// How a case's call time on a quiet host is read from its samples.
/// Other tenants only ever add time, but how depends on the resource
/// the workload is bound by.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Quiet {
    /// The 1st-percentile call. Other tenants leave DRAM bandwidth free
    /// only in short gaps, but at a steady level; medians of DRAM-bound
    /// calls spread 0.1-0.3 between runs on the reference host, this
    /// 0.03-0.05.
    Fastest,
    /// The lower quartile of the per-second medians. In-cache work runs
    /// at a steady level apart from slow phases and brief fast ones,
    /// which this ignores while they cover less than three quarters
    /// (or one quarter) of a run.
    QuietQuarter,
}

impl Kind {
    fn quiet(self) -> Quiet {
        match self {
            Kind::SweepL2 => Quiet::QuietQuarter,
            Kind::SweepDram | Kind::StepsDram => Quiet::Fastest,
        }
    }

    /// The highest percentile of a case's calls with at least ten
    /// samples beyond it in a 20 s run.
    fn tail(self) -> f64 {
        match self {
            Kind::SweepL2 => 0.99,
            Kind::SweepDram => 0.95,
            Kind::StepsDram => 0.9,
        }
    }
}

/// Grid edges of the cases; `full` is what the benchmark runs, `tiny`
/// what the tests run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub l2: usize,
    pub dram: usize,
    pub d3: usize,
    pub steps: usize,
    pub sweeps: usize,
}

impl Sizes {
    /// `l2`: a 256² f64 case reads and writes 1 MiB, inside the 2 MiB
    /// per-core L2. `dram`/`steps`: 128 MiB per array; on the
    /// reference host triad bandwidth is flat from 64 MiB per array up,
    /// so these stream from DRAM. `d3`: 256³ is the same 128 MiB.
    pub fn full() -> Sizes {
        Sizes {
            l2: 256,
            dram: 4096,
            d3: 256,
            steps: 4096,
            sweeps: 8,
        }
    }

    pub fn tiny() -> Sizes {
        Sizes {
            l2: 64,
            dram: 64,
            d3: 16,
            steps: 64,
            sweeps: 8,
        }
    }
}

/// The dispatches whose results are bit-identical to the scalar chain;
/// the others (hybrid 8×8, tempvec) reassociate and are ULP-bounded.
const CANONICAL: [Dispatch; 5] = [
    Dispatch::Scalar,
    Dispatch::Avx2Fma,
    Dispatch::Avx512,
    Dispatch::Avx2Reuse,
    Dispatch::Avx512Reuse,
];

enum Data {
    F64 {
        a: Rc<Grid2d>,
        out: Grid2d,
    },
    F32 {
        a: Grid2dT<f32>,
        out: Grid2dT<f32>,
    },
    D3 {
        a: Grid3d,
        out: Grid3d,
    },
    Steps {
        a: Rc<Grid2d>,
        out: Option<Grid2d>,
        sweeps: usize,
    },
}

/// One case of a workload: a stencil on a grid through one entry point.
pub struct Case {
    pub name: String,
    spec: StencilSpec,
    threads: usize,
    data: Data,
}

/// The cases of `kind`, inputs generated from `seed`.
pub fn cases(kind: Kind, sizes: Sizes, seed: u64) -> Vec<Case> {
    let mut inputs = Inputs { seed, made: vec![] };
    match kind {
        Kind::SweepL2 => {
            let n = sizes.l2;
            let f32_in = Grid2dT::<f32>::convert_from(&inputs.grid(n, 1));
            vec![
                inputs.sweep(presets::star2d5p(), n, 1),
                inputs.sweep(presets::box2d9p(), n, 1),
                inputs.sweep(presets::star2d9p(), n, 1),
                Case {
                    name: format!("star2d5p_{n}_f32"),
                    spec: presets::star2d5p(),
                    threads: 1,
                    data: Data::F32 {
                        out: Grid2dT::zeros(n, n, 1),
                        a: f32_in,
                    },
                },
            ]
        }
        Kind::SweepDram => {
            let (n, d) = (sizes.dram, sizes.d3);
            let mut rng = Xoshiro256::seed_from_u64(SplitMix64::nth_from(seed, 3));
            let a = Grid3d::from_fn(d, d, d, 1, |_, _, _| rng.gen_range(-1.0..1.0));
            vec![
                inputs.sweep(presets::star2d5p(), n, 2),
                inputs.sweep(presets::box2d9p(), n, 2),
                Case {
                    name: format!("heat3d_{d}_f64"),
                    spec: presets::heat3d(),
                    threads: 2,
                    data: Data::D3 {
                        out: Grid3d::zeros(d, d, d, 1),
                        a,
                    },
                },
            ]
        }
        Kind::StepsDram => {
            let n = sizes.steps;
            vec![Case {
                name: format!("star2d5p_{n}_s{}_f64", sizes.sweeps),
                spec: presets::star2d5p(),
                threads: 2,
                data: Data::Steps {
                    a: inputs.grid(n, 1),
                    out: None,
                    sweeps: sizes.sweeps,
                },
            }]
        }
    }
}

/// Seeded f64 inputs, one per (edge, halo), shared by the cases that
/// sweep the same grid.
struct Inputs {
    seed: u64,
    made: Vec<((usize, usize), Rc<Grid2d>)>,
}

impl Inputs {
    fn grid(&mut self, n: usize, halo: usize) -> Rc<Grid2d> {
        if let Some((_, g)) = self.made.iter().find(|(k, _)| *k == (n, halo)) {
            return Rc::clone(g);
        }
        let mut rng = Xoshiro256::seed_from_u64(SplitMix64::nth_from(self.seed, halo as u64));
        let g = Rc::new(Grid2d::from_fn(n, n, halo, |_, _| rng.gen_range(-1.0..1.0)));
        self.made.push(((n, halo), Rc::clone(&g)));
        g
    }

    fn sweep(&mut self, spec: StencilSpec, n: usize, threads: usize) -> Case {
        let r = spec.radius();
        Case {
            name: format!("{}_{n}_f64", spec.name()),
            threads,
            data: Data::F64 {
                a: self.grid(n, r),
                out: Grid2d::zeros(n, n, r),
            },
            spec,
        }
    }
}

impl Case {
    /// A served job's work as a direct single-thread call, the
    /// `loadgen::reference_result` path: `apply_2d` for one sweep,
    /// `time_steps` for several.
    pub fn job(name: &str, spec: StencilSpec, a: Grid2d, sweeps: usize) -> Case {
        let data = if sweeps == 1 {
            Data::F64 {
                out: a.halo_image(),
                a: Rc::new(a),
            }
        } else {
            Data::Steps {
                a: Rc::new(a),
                out: None,
                sweeps,
            }
        };
        Case {
            name: name.to_string(),
            spec,
            threads: 1,
            data,
        }
    }

    /// Lane count the entry point runs with (the parallel entry points
    /// resolve `HSTENCIL_THREADS`; the hygiene guard keeps it unset).
    fn lanes(&self) -> usize {
        if self.threads == 1 {
            1
        } else {
            threads::resolve(self.threads)
        }
    }

    /// Cells of one sweep, and sweeps per call.
    fn extent(&self) -> (u64, u64) {
        match &self.data {
            Data::F64 { a, .. } => ((a.h() * a.w()) as u64, 1),
            Data::F32 { a, .. } => ((a.h() * a.w()) as u64, 1),
            Data::D3 { a, .. } => ((a.d() * a.h() * a.w()) as u64, 1),
            Data::Steps { a, sweeps, .. } => ((a.h() * a.w()) as u64, *sweeps as u64),
        }
    }

    /// Cell updates per call.
    pub fn cells(&self) -> u64 {
        let (cells, sweeps) = self.extent();
        cells * sweeps
    }

    fn dtype(&self) -> Dtype {
        match self.data {
            Data::F32 { .. } => Dtype::F32,
            _ => Dtype::F64,
        }
    }

    /// Computed bytes per call: each sweep reads its input and writes
    /// its output once. For a multi-sweep call this is the traffic the
    /// unfused schedule would move, so above-triad rates mean fusion
    /// saved traffic.
    pub fn bytes(&self) -> f64 {
        (2 * self.cells() as usize * self.dtype().size()) as f64
    }

    fn is_steps(&self) -> bool {
        matches!(self.data, Data::Steps { .. })
    }

    fn dispatch_name(&self) -> &'static str {
        match self.data {
            Data::D3 { .. } => "Dispatch::for_width",
            _ => "Dispatch::for_sweep_dtype",
        }
    }

    fn kernel_name(&self, lanes: usize) -> &'static str {
        match (&self.data, lanes) {
            (Data::D3 { .. }, 1) => "apply_3d_with",
            (Data::D3 { .. }, _) => "apply_3d_parallel_in",
            (Data::Steps { .. }, _) => "time_steps_temporal_in",
            (_, 1) => "apply_2d_with",
            _ => "apply_2d_parallel_in",
        }
    }

    /// The dispatch the default entry point resolves for this case.
    pub fn resolve(&self) -> Dispatch {
        let lanes = self.lanes();
        match &self.data {
            Data::F64 { a, .. } | Data::Steps { a, .. } => {
                Dispatch::for_sweep_dtype(&self.spec, a.h(), a.w(), lanes, Dtype::F64)
            }
            Data::F32 { a, .. } => {
                Dispatch::for_sweep_dtype(&self.spec, a.h(), a.w(), lanes, Dtype::F32)
            }
            Data::D3 { a, .. } => Dispatch::for_width(a.w()),
        }
    }

    /// Drops a multi-sweep result before the next call, outside timing.
    fn prepare(&mut self) {
        if let Data::Steps { out, .. } = &mut self.data {
            *out = None;
        }
    }

    /// One call of the default public entry point.
    pub fn run_default(&mut self) {
        let (spec, threads) = (&self.spec, self.threads);
        match &mut self.data {
            Data::F64 { a, out } => default_2d(spec, a, out, threads),
            Data::F32 { a, out } => default_2d(spec, a, out, threads),
            Data::D3 { a, out } => native::apply_3d_parallel(spec, a, out, threads),
            Data::Steps { a, out, sweeps } => {
                *out = Some(native::time_steps(spec, a, *sweeps, threads));
            }
        }
    }

    /// The default call's work on an explicit dispatch and lane count.
    fn run_with(&mut self, d: Dispatch, lanes: usize) {
        let spec = &self.spec;
        let pool = ThreadPool::global();
        match &mut self.data {
            Data::F64 { a, out } => with_2d(d, spec, a, out, lanes),
            Data::F32 { a, out } => with_2d(d, spec, a, out, lanes),
            Data::D3 { a, out } if lanes == 1 => native::apply_3d_with(d, spec, a, out),
            Data::D3 { a, out } => native::apply_3d_parallel_in(pool, d, spec, a, out, lanes),
            Data::Steps { a, out, sweeps } => {
                let cfg = Temporal::default();
                *out = Some(native::time_steps_temporal_in(
                    pool, d, spec, a, *sweeps, lanes, cfg,
                ));
            }
        }
    }

    /// One single-lane sweep on dispatch `d` (the kernel layer alone);
    /// a multi-sweep case sweeps its input once into a scratch grid.
    fn run_kernel(&mut self, d: Dispatch) {
        let spec = &self.spec;
        match &mut self.data {
            Data::F64 { a, out } => native::apply_2d_with(d, spec, a, out),
            Data::F32 { a, out } => native::apply_2d_with(d, spec, a, out),
            Data::D3 { a, out } => native::apply_3d_with(d, spec, a, out),
            Data::Steps { a, .. } => {
                let mut out = a.halo_image();
                native::apply_2d_with(d, spec, a, &mut out);
            }
        }
    }

    /// Checks the last output: bit-identical to the scalar chain for a
    /// canonical dispatch, or to the same dispatch run single-lane
    /// otherwise (every kernel is invariant to band decomposition); and
    /// within the contract's rounding bound of `reference` (f32 against
    /// the f64 reference on the f32 input).
    pub fn check(&self) -> Result<(), String> {
        let d = self.resolve();
        let oracle = if CANONICAL.contains(&d) {
            Dispatch::Scalar
        } else {
            d
        };
        let spec = &self.spec;
        let bound = |sweeps| tolerance(spec, self.dtype(), sweeps);
        let fail = |what: &str, at: (usize, usize, usize)| {
            Err(format!(
                "{}: output differs from {what} at {at:?} (dispatch {})",
                self.name,
                d.label()
            ))
        };
        match &self.data {
            Data::F64 { a, out } => {
                if let Some(at) = exact_2d(&chain_2d(oracle, spec, a, 1), out) {
                    return fail(oracle.label(), at);
                }
                if let Some(at) = near_2d(&reference_2d(spec, a, 1), out, bound(1)) {
                    return fail("reference", at);
                }
            }
            Data::F32 { a, out } => {
                if let Some(at) = exact_2d(&chain_2d(oracle, spec, a, 1), out) {
                    return fail(oracle.label(), at);
                }
                let a64 = Grid2d::convert_from(a);
                if let Some(at) = near_2d(&reference_2d(spec, &a64, 1), out, bound(1)) {
                    return fail("reference", at);
                }
            }
            Data::D3 { a, out } => {
                let mut want = Grid3d::zeros(a.d(), a.h(), a.w(), a.halo());
                native::apply_3d_with(oracle, spec, a, &mut want);
                if let Some(at) = mismatch_3d(&want, out, 0.0) {
                    return fail(oracle.label(), at);
                }
                reference::apply_3d(spec, a, &mut want);
                if let Some(at) = mismatch_3d(&want, out, bound(1)) {
                    return fail("reference", at);
                }
            }
            Data::Steps { a, out, sweeps } => {
                let out = out.as_ref().ok_or("steps case has no output")?;
                if let Some(at) = exact_2d(&chain_2d(oracle, spec, a, *sweeps), out) {
                    return fail(oracle.label(), at);
                }
                let want = reference_2d(spec, a, *sweeps);
                if let Some(at) = near_2d(&want, out, bound(*sweeps)) {
                    return fail("reference", at);
                }
            }
        }
        Ok(())
    }

    /// Flips the last bit of one output cell (tests only).
    #[cfg(test)]
    pub fn perturb(&mut self) {
        fn nudge<E: Element>(g: &mut Grid2dT<E>) {
            let v = g.at(1, 1).to_f64();
            g.set(1, 1, E::from_f64(v + v.abs().max(1.0) * 1e-6));
        }
        match &mut self.data {
            Data::F64 { out, .. } => nudge(out),
            Data::F32 { out, .. } => nudge(out),
            Data::D3 { out, .. } => out.set(1, 1, 1, out.at(1, 1, 1) + 1e-6),
            Data::Steps { out, .. } => nudge(out.as_mut().expect("run first")),
        }
    }
}

fn default_2d<E: NativeElement>(
    spec: &StencilSpec,
    a: &Grid2dT<E>,
    out: &mut Grid2dT<E>,
    threads: usize,
) {
    if threads == 1 {
        native::apply_2d(spec, a, out);
    } else {
        native::apply_2d_parallel(spec, a, out, threads);
    }
}

fn with_2d<E: NativeElement>(
    d: Dispatch,
    spec: &StencilSpec,
    a: &Grid2dT<E>,
    out: &mut Grid2dT<E>,
    lanes: usize,
) {
    if lanes == 1 {
        native::apply_2d_with(d, spec, a, out);
    } else {
        native::apply_2d_parallel_in(ThreadPool::global(), d, spec, a, out, lanes);
    }
}

/// `sweeps` single-lane sweeps on `d`, halo held fixed (Dirichlet), as
/// the multi-sweep executor defines them.
fn chain_2d<E: NativeElement>(
    d: Dispatch,
    spec: &StencilSpec,
    a: &Grid2dT<E>,
    sweeps: usize,
) -> Grid2dT<E> {
    let mut cur = a.halo_image();
    native::apply_2d_with(d, spec, a, &mut cur);
    for _ in 1..sweeps {
        let mut next = cur.halo_image();
        native::apply_2d_with(d, spec, &cur, &mut next);
        cur = next;
    }
    cur
}

fn reference_2d(spec: &StencilSpec, a: &Grid2d, sweeps: usize) -> Grid2d {
    let mut cur = a.halo_image();
    reference::apply_2d(spec, a, &mut cur);
    for _ in 1..sweeps {
        let mut next = cur.halo_image();
        reference::apply_2d(spec, &cur, &mut next);
        cur = next;
    }
    cur
}

/// First interior cell whose bits differ.
pub fn exact_2d<E: Element>(want: &Grid2dT<E>, got: &Grid2dT<E>) -> Option<(usize, usize, usize)> {
    cells_2d(got.h(), got.w())
        .find(|&(i, j)| want.at(i, j).to_f64().to_bits() != got.at(i, j).to_f64().to_bits())
        .map(|(i, j)| (0, i as usize, j as usize))
}

/// True when `x` and `y` are further than `tol` apart; a NaN is never
/// near.
fn apart(x: f64, y: f64, tol: f64) -> bool {
    let d = (x - y).abs();
    d.is_nan() || d > tol
}

/// First interior cell further than `tol` from the f64 `want`.
fn near_2d<E: Element>(want: &Grid2d, got: &Grid2dT<E>, tol: f64) -> Option<(usize, usize, usize)> {
    cells_2d(got.h(), got.w())
        .find(|&(i, j)| apart(want.at(i, j), got.at(i, j).to_f64(), tol))
        .map(|(i, j)| (0, i as usize, j as usize))
}

/// First interior cell further than `tol` apart (bits compared when
/// `tol` is zero).
fn mismatch_3d(want: &Grid3d, got: &Grid3d, tol: f64) -> Option<(usize, usize, usize)> {
    let (d, h, w) = (got.d() as isize, got.h() as isize, got.w() as isize);
    (0..d)
        .flat_map(|k| (0..h).flat_map(move |i| (0..w).map(move |j| (k, i, j))))
        .find(|&(k, i, j)| {
            let (x, y) = (want.at(k, i, j), got.at(k, i, j));
            if tol == 0.0 {
                x.to_bits() != y.to_bits()
            } else {
                apart(x, y, tol)
            }
        })
        .map(|(k, i, j)| (k as usize, i as usize, j as usize))
}

fn cells_2d(h: usize, w: usize) -> impl Iterator<Item = (isize, isize)> {
    (0..h as isize).flat_map(move |i| (0..w as isize).map(move |j| (i, j)))
}

/// The per-contract absolute tolerance against the reference for
/// inputs in [-1, 1]: each sweep of `p` taps rounds at most `p` times
/// on either side, each rounding bounded by the unit roundoff times the
/// sum of |coefficients| (1 for every preset, so errors never grow
/// from sweep to sweep), with a factor of 2 to spare.
pub fn tolerance(spec: &StencilSpec, dtype: Dtype, sweeps: usize) -> f64 {
    let r = spec.radius() as isize;
    let taps = (-r..=r).flat_map(|x| (-r..=r).map(move |y| (x, y)));
    let abs_sum: f64 = if spec.dims() == 2 {
        taps.map(|(di, dj)| spec.c2(di, dj).abs()).sum()
    } else {
        taps.flat_map(|(dk, di)| (-r..=r).map(move |dj| (dk, di, dj)))
            .map(|(dk, di, dj)| spec.c3(dk, di, dj).abs())
            .sum()
    };
    let unit = match dtype {
        Dtype::F64 => f64::EPSILON / 2.0,
        Dtype::F32 => f64::from(f32::EPSILON) / 2.0,
    };
    4.0 * (sweeps * spec.points()) as f64 * unit * abs_sum.max(1.0)
}

/// Per-case samples, with each round's start, of one timed window.
struct Window {
    per_case: Vec<Vec<f64>>,
    /// Seconds from the window's start to each round's.
    starts: Vec<f64>,
}

/// Rounds per second a window has room for: eight times the fastest
/// workload's rate on the reference host.
const MAX_ROUNDS_PER_S: f64 = 20_000.0;

impl Window {
    /// A window with room for `secs` of rounds, its storage touched
    /// before the memory baseline is read.
    fn new(cases: usize, secs: f64) -> Window {
        let cap = (secs * MAX_ROUNDS_PER_S) as usize + 16;
        Window {
            per_case: (0..cases).map(|_| host::touched(cap, 0.0)).collect(),
            starts: host::touched(cap, 0.0),
        }
    }

    /// True until the window has `secs` of rounds (and at least one),
    /// or no room left.
    fn open(&self, t0: Instant, secs: f64) -> bool {
        let room = self.starts.len() < self.starts.capacity();
        self.starts.is_empty() || (room && t0.elapsed().as_secs_f64() < secs)
    }

    /// One round started `t0.elapsed()` into the window: a `call` per
    /// case, each returning its seconds.
    fn round(&mut self, t0: Instant, cases: &mut [Case], mut call: impl FnMut(&mut Case) -> f64) {
        self.starts.push(t0.elapsed().as_secs_f64());
        for (case, samples) in cases.iter_mut().zip(&mut self.per_case) {
            case.prepare();
            samples.push(call(case));
        }
    }

    fn medians(&self) -> Vec<f64> {
        self.per_case.iter().map(|s| median(s)).collect()
    }

    /// Each case's call time on a quiet host.
    fn quiet(&self, how: Quiet) -> Vec<f64> {
        self.per_case
            .iter()
            .map(|s| match how {
                Quiet::Fastest => percentile(s, 0.01),
                Quiet::QuietQuarter => {
                    let mut seconds: Vec<Vec<f64>> = Vec::new();
                    for (&t, &x) in self.starts.iter().zip(s) {
                        let k = t as usize;
                        if seconds.len() <= k {
                            seconds.resize(k + 1, Vec::new());
                        }
                        seconds[k].push(x);
                    }
                    let medians: Vec<f64> = seconds
                        .iter()
                        .filter(|v| !v.is_empty())
                        .map(|v| median(v))
                        .collect();
                    percentile(&medians, 0.25)
                }
            })
            .collect()
    }

    fn calls(&self) -> u64 {
        self.per_case.iter().map(|s| s.len() as u64).sum()
    }
}

fn timed(case: &mut Case) -> f64 {
    let t = Instant::now();
    case.run_default();
    t.elapsed().as_secs_f64()
}

/// Median seconds of `f`, after one untimed call, over at least
/// `min_reps` calls and until `budget` is spent (at most 1000 calls).
pub fn median_time(min_reps: usize, budget: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || (start.elapsed() < budget && samples.len() < 1000) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Times the first call of every case on fresh outputs: pool spawn, env
/// and tune-cache reads, first touch.
fn first_calls(cases: &mut [Case]) -> f64 {
    let t0 = Instant::now();
    for case in cases {
        case.run_default();
    }
    t0.elapsed().as_secs_f64()
}

/// A set-up-only run (the benchmark re-executes itself for each of
/// several cold set-ups); building the inputs is not timed.
pub fn setup(kind: Kind, ctx: &Ctx) -> f64 {
    first_calls(&mut cases(kind, ctx.sizes, ctx.seed))
}

pub fn run(kind: Kind, ctx: &Ctx) -> Outcome {
    let roofline = ctx.trace.then(|| Roofline::measure(ctx.triad_bytes));
    let mut cases = cases(kind, ctx.sizes, ctx.seed);
    let secs = ctx.seconds;
    let mut w = Window::new(cases.len(), secs);
    let mut traced = Window::new(cases.len(), if ctx.trace { secs } else { 0.0 });
    let rss0 = host::vm_kib("VmRSS");
    let setup_s = first_calls(&mut cases);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < (secs * 0.1).min(2.0) {
        for case in &mut cases {
            case.prepare();
            case.run_default();
        }
    }
    let cells: Vec<u64> = cases.iter().map(Case::cells).collect();
    let rate = |times: &[f64]| cells.iter().sum::<u64>() as f64 / times.iter().sum::<f64>();

    let Some(roofline) = roofline else {
        let t0 = Instant::now();
        while w.open(t0, secs) {
            w.round(t0, &mut cases, timed);
        }
        let hwm = host::vm_kib("VmHWM");
        let (checked, failed) = check_all(&cases, &w);
        let quiet = w.quiet(kind.quiet());
        let tail_q = kind.tail();
        for (i, case) in cases.iter().enumerate() {
            let s = &w.per_case[i];
            println!(
                "case {}: {} calls, quiet {:.3} us ({:?}), p50 {:.3} us, p{} {:.3} us ({} beyond)",
                case.name,
                s.len(),
                quiet[i] * 1e6,
                kind.quiet(),
                median(s) * 1e6,
                tail_q * 100.0,
                percentile(s, tail_q) * 1e6,
                samples_beyond(s.len(), tail_q)
            );
        }
        return Outcome {
            attempted: w.calls(),
            failed,
            correct: checked,
            setup_s,
            metrics: vec![
                Metric::new("cells_per_s", rate(&quiet), "cells/s"),
                Metric::new("latency_ms", quiet.iter().sum::<f64>() * 1e3, "ms"),
                Metric::new("mem_peak_mib", host::mem_mib(rss0, hwm), "MiB"),
            ],
            trace: None,
        };
    };

    // Traced run: untraced rounds (the overhead reference) alternate
    // with rounds that make the default call's public-layer calls
    // themselves, a span around each, so both see the same host phases.
    let mut tr = Trace::new(Instant::now());
    let ncases = cases.len() as u64;
    let mut req = 0u64;
    let t0 = Instant::now();
    while w.open(t0, secs) {
        w.round(t0, &mut cases, timed);
        traced.round(t0, &mut cases, |c| {
            req += 1;
            let call = tr.enter("call", req);
            let d = tr.span(c.dispatch_name(), req, || c.resolve());
            let lanes = c.lanes();
            tr.span(c.kernel_name(lanes), req, || c.run_with(d, lanes));
            tr.exit(call);
            let s = &tr.spans()[call];
            (s.end_ns - s.start_ns) as f64 * 1e-9
        });
    }
    let (checked, failed) = check_all(&cases, &traced);

    let untraced = w.medians();
    let case_of = |i: usize| move |r: u64| (r - 1) % ncases == i as u64;
    let part = |name: fn(&Case) -> &'static str| -> f64 {
        let per_case = cases.iter().enumerate();
        per_case
            .map(|(i, c)| median(&tr.durations(name(c), case_of(i))))
            .sum::<f64>()
            * 1e-9
    };
    let dispatch_s = part(Case::dispatch_name);
    let kernel_s = part(|c| c.kernel_name(c.lanes()));
    let call_s: f64 = untraced.iter().sum();
    let layers = probe_layers(&mut cases, &untraced, &roofline, ctx.probe_budget);
    let traffic: f64 = cases.iter().map(Case::bytes).sum::<f64>() / call_s / 1e9;
    let triad = if cases[0].threads == 1 {
        roofline.triad_t1
    } else {
        roofline.triad_t2
    };
    print_spans(&tr);
    let mut metrics = roofline.metrics();
    metrics.extend(layers);
    metrics.extend([
        Metric::new("call.dispatch_us", dispatch_s * 1e6, "us"),
        Metric::new("call.kernel_us", kernel_s * 1e6, "us"),
        Metric::new(
            "call.unexplained_pct",
            (call_s - dispatch_s - kernel_s) / call_s * 100.0,
            "%",
        ),
        Metric::new("mem.gbs", traffic, "GB/s"),
        Metric::new("mem.pct_of_triad", traffic / triad * 100.0, "%"),
        Metric::new(
            "trace.overhead_pct",
            (1.0 - rate(&traced.medians()) / rate(&untraced)) * 100.0,
            "%",
        ),
        Metric::new("trace.spans", tr.spans().len() as f64, "count"),
    ]);
    metrics.extend(crate::serving::absent_metrics());
    Outcome {
        attempted: w.calls() + traced.calls(),
        failed,
        correct: checked,
        setup_s,
        metrics,
        trace: Some(tr),
    }
}

/// Checks every case; a wrong case fails every call it made (repeated
/// calls on the same input produce the same output).
fn check_all(cases: &[Case], w: &Window) -> (bool, u64) {
    let mut failed = 0;
    for (case, samples) in cases.iter().zip(&w.per_case) {
        if let Err(e) = case.check() {
            eprintln!("benchmark: WRONG RESULT: {e}");
            failed += samples.len() as u64;
        }
    }
    (failed == 0, failed)
}

/// The per-layer probes: each times one public layer on this
/// workload's own cases. `untraced` holds each case's median default
/// call.
pub fn probe_layers(
    cases: &mut [Case],
    untraced: &[f64],
    roof: &Roofline,
    budget: Duration,
) -> Vec<Metric> {
    let reps = 3;
    let resolve_ns = {
        let per_case: Vec<f64> = cases
            .iter()
            .map(|c| {
                median_time(5, budget / 10, || {
                    for _ in 0..100 {
                        std::hint::black_box(c.resolve());
                    }
                }) * 1e7
            })
            .collect();
        per_case.iter().sum::<f64>() / per_case.len() as f64
    };

    let (mut default_s, mut best_s) = (0.0, 0.0);
    let (mut kernel_s, mut kernel_cells, mut peak_s) = (0.0, 0.0, 0.0);
    let (mut t1, mut t2) = (0.0, 0.0);
    let (mut naive_s, mut fused_s, mut tempvec_s) = (0.0, 0.0, 0.0);
    for (case, &untraced) in cases.iter_mut().zip(untraced) {
        let d = case.resolve();
        let lanes = case.lanes();
        let mut best = (d, f64::INFINITY);
        for cand in candidates(case) {
            let t = median_time(reps, budget, || case.run_with(cand, lanes));
            if cand == d {
                default_s += t;
            }
            if t < best.1 {
                best = (cand, t);
            }
            if cand == Dispatch::TempVec && case.is_steps() {
                tempvec_s += t;
            }
        }
        best_s += best.1;
        println!(
            "dispatch {}: default {} best {}",
            case.name,
            d.label(),
            best.0.label()
        );

        let t = median_time(reps, budget, || case.run_kernel(d));
        let (cells, _) = case.extent();
        let flops = cells as f64 * case.spec.flops_per_point() as f64;
        kernel_s += t;
        kernel_cells += cells as f64;
        peak_s += flops / (roof.peak_gflops(d, case.dtype()) * 1e9);

        t1 += median_time(reps, budget, || case.run_with(d, 1));
        t2 += median_time(reps, budget, || case.run_with(d, 2));

        if let Data::Steps { a, sweeps, .. } = &case.data {
            let spec = &case.spec;
            naive_s += median_time(reps, budget, || {
                let pool = ThreadPool::global();
                std::hint::black_box(native::time_steps_in(pool, d, spec, a, *sweeps, lanes));
            });
            fused_s += untraced;
        }
    }

    let (seed_s, default_1t_s, seed_cells) = seed_probe(&cases[0], budget);
    let pool_us = median_time(50, budget, || ThreadPool::global().run(2, &|_, _| {})) * 1e6;
    let gain = if fused_s > 0.0 {
        naive_s / fused_s
    } else {
        0.0
    };
    vec![
        Metric::new("dispatch.resolve_ns", resolve_ns, "ns"),
        Metric::new("dispatch.regret", default_s / best_s, "ratio"),
        Metric::new("kernel.ns_per_cell", kernel_s / kernel_cells * 1e9, "ns"),
        Metric::new("kernel.pct_of_peak", peak_s / kernel_s * 100.0, "%"),
        Metric::new("seed.ns_per_cell", seed_s / seed_cells * 1e9, "ns"),
        Metric::new("kernel.vs_seed", seed_s / default_1t_s, "ratio"),
        Metric::new("pool.run_empty_us", pool_us, "us"),
        Metric::new("pool.parallel_eff", t1 / (2.0 * t2), "ratio"),
        Metric::new("temporal.fused_s", fused_s, "s"),
        Metric::new("temporal.naive_s", naive_s, "s"),
        Metric::new("temporal.fusion_gain", gain, "ratio"),
        Metric::new("temporal.tempvec_s", tempvec_s, "s"),
    ]
}

/// Every dispatch runnable here for the case's entry point; the scalar
/// chain only when no vector kernel runs (it is never the fastest
/// otherwise, and at DRAM sizes it would dominate the probe time).
fn candidates(case: &Case) -> Vec<Dispatch> {
    let mut all = Dispatch::candidates();
    if !matches!(case.data, Data::D3 { .. }) {
        all.extend([Dispatch::Hybrid, Dispatch::TempVec]);
    } else {
        // The 2-D-only instances narrow to the detected 3-D kernel.
        all.retain(|d| matches!(d, Dispatch::Scalar | Dispatch::Avx2Fma));
    }
    if all.len() > 1 {
        all.retain(|&d| d != Dispatch::Scalar);
    }
    all
}

/// The seed executor (`native::baseline`) against the default
/// single-thread `apply_2d` on star2d5p/f64 over the workload's first
/// grid: (seed seconds, default seconds, cells).
fn seed_probe(first: &Case, budget: Duration) -> (f64, f64, f64) {
    let a = match &first.data {
        Data::F64 { a, .. } | Data::Steps { a, .. } => Rc::clone(a),
        _ => unreachable!("every workload starts with an f64 2-D case"),
    };
    let spec = presets::star2d5p();
    let mut out = a.halo_image();
    let seed = median_time(3, budget, || baseline::apply_2d(&spec, &a, &mut out));
    let default = median_time(3, budget, || native::apply_2d(&spec, &a, &mut out));
    (seed, default, (a.h() * a.w()) as f64)
}

/// Span count and median duration and self time per span name.
pub fn print_spans(tr: &Trace) {
    let selfs = tr.self_ns();
    let mut names: Vec<&'static str> = tr.spans().iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let (mut dur, mut own) = (Vec::new(), Vec::new());
        for (s, &o) in tr.spans().iter().zip(&selfs) {
            if s.name == name {
                dur.push((s.end_ns - s.start_ns) as f64);
                own.push(o as f64);
            }
        }
        println!(
            "span {name}: n={} median {:.3} us self {:.3} us",
            dur.len(),
            median(&dur) / 1e3,
            median(&own) / 1e3
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_grids() {
        for kind in [Kind::SweepL2, Kind::SweepDram, Kind::StepsDram] {
            let a = cases(kind, Sizes::tiny(), 11);
            let b = cases(kind, Sizes::tiny(), 11);
            let c = cases(kind, Sizes::tiny(), 12);
            for ((x, y), z) in a.iter().zip(&b).zip(&c) {
                assert!(same_input(x, y), "{}", x.name);
                assert!(!same_input(x, z), "{}", x.name);
            }
        }
    }

    fn same_input(x: &Case, y: &Case) -> bool {
        match (&x.data, &y.data) {
            (Data::F64 { a, .. }, Data::F64 { a: b, .. })
            | (Data::Steps { a, .. }, Data::Steps { a: b, .. }) => a == b,
            (Data::F32 { a, .. }, Data::F32 { a: b, .. }) => a == b,
            (Data::D3 { a, .. }, Data::D3 { a: b, .. }) => a == b,
            _ => false,
        }
    }

    #[test]
    fn a_perturbed_output_is_caught() {
        for kind in [Kind::SweepL2, Kind::SweepDram, Kind::StepsDram] {
            let mut cases = cases(kind, Sizes::tiny(), 5);
            for case in &mut cases {
                case.run_default();
                case.check().unwrap_or_else(|e| panic!("{e}"));
                case.perturb();
                assert!(case.check().is_err(), "{} missed", case.name);
            }
        }
    }

    #[test]
    fn tolerances_scale_with_precision_and_sweeps() {
        let spec = presets::star2d5p();
        let one = tolerance(&spec, Dtype::F64, 1);
        assert!(one > 0.0 && one < 1e-14);
        assert_eq!(tolerance(&spec, Dtype::F64, 8), 8.0 * one);
        assert!(tolerance(&spec, Dtype::F32, 1) > 1e8 * one);
    }
}
