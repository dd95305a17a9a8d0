//! The variant registry: every kernel/executor the workspace can run a
//! 2-D stencil sweep on, behind one uniform `run` signature.
//!
//! [`registry`] is the single source of truth for the conformance
//! matrix — the differential test, the metamorphic oracles, the
//! fault-injection test and the coverage bench all iterate it. Adding a
//! future kernel to all of them is **one line** here (a
//! [`Variant::sim`] / [`Variant::native`] constructor call).

use crate::instance::Instance;
use hstencil_core::native::tempvec::{self, TvIsa};
use hstencil_core::{
    native, reference, Dispatch, Dtype, Grid2d, Grid2dT, Method, Pattern, PlanError, StencilPlan,
    StencilSpec, ThreadPool,
};
use lx2_sim::MachineConfig;

/// What running a variant on an instance produced.
#[derive(Debug)]
pub enum RunResult {
    /// The computed output grid.
    Output(Grid2d),
    /// The variant's method does not support this instance (e.g.
    /// Mat-ortho on box-shaped tables) — a *skip*, not a failure.
    Unsupported(String),
}

type Runner = Box<dyn Fn(&StencilSpec, &Grid2d) -> Result<RunResult, String>>;

/// One registered kernel/executor variant.
pub struct Variant {
    name: String,
    star_only: bool,
    dtype: Dtype,
    runner: Runner,
}

impl Variant {
    /// The variant's display name (stable; used in reports and JSON).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The element type the variant computes in. The oracles size their
    /// ULP budgets at this precision: an `f32` sweep's legal rounding
    /// noise is ~2^29 times the `f64` floor, and holding it to the
    /// `f64` budget would flag every correct `f32` kernel.
    pub fn dtype(&self) -> Dtype {
        self.dtype
    }

    /// True if the variant's method only accepts star-shaped tables.
    /// Star-only variants report box instances as unsupported; the
    /// harness counts them as skips.
    pub fn star_only(&self) -> bool {
        self.star_only
    }

    /// Whether the variant can run this instance at all.
    pub fn supports(&self, inst: &Instance) -> bool {
        !(self.star_only && inst.pattern == Pattern::Box)
    }

    /// Runs one sweep. `Err` is a *conformance failure* (crash or wrong
    /// machine state); `Ok(Unsupported)` is a legal skip.
    pub fn run(&self, spec: &StencilSpec, input: &Grid2d) -> Result<RunResult, String> {
        (self.runner)(spec, input)
    }

    /// The scalar reference itself (anchors the differential matrix and
    /// lets fault injection prove the harness catches a broken oracle).
    pub fn reference() -> Variant {
        Variant {
            name: "reference".into(),
            star_only: false,
            dtype: Dtype::F64,
            runner: Box::new(|spec, a| {
                let mut out = a.clone();
                reference::try_apply_2d(spec, a, &mut out)
                    .map_err(|e| format!("reference rejected a valid instance: {e}"))?;
                Ok(RunResult::Output(out))
            }),
        }
    }

    /// A native-executor dispatch path, single-threaded.
    pub fn native(dispatch: Dispatch) -> Variant {
        Variant {
            name: format!("native/{}", dispatch.label()),
            star_only: false,
            dtype: Dtype::F64,
            runner: Box::new(move |spec, a| {
                let mut out = a.clone();
                native::try_apply_2d_with(dispatch, spec, a, &mut out)
                    .map_err(|e| format!("native rejected a valid instance: {e}"))?;
                Ok(RunResult::Output(out))
            }),
        }
    }

    /// A native-executor dispatch path computing in `f32`: the `f64`
    /// instance input is rounded element-wise to `f32`, the sweep runs
    /// entirely at that precision, and the output is widened back (an
    /// exact conversion). The oracles see [`Variant::dtype`] and size
    /// their budgets in `f32` ULPs of the conditioning scale.
    pub fn native_f32(dispatch: Dispatch) -> Variant {
        Variant {
            name: format!("native/f32/{}", dispatch.label()),
            star_only: false,
            dtype: Dtype::F32,
            runner: Box::new(move |spec, a| {
                let a32 = Grid2dT::<f32>::convert_from(a);
                let mut out32 = a32.clone();
                native::try_apply_2d_with(dispatch, spec, &a32, &mut out32)
                    .map_err(|e| format!("native f32 rejected a valid instance: {e}"))?;
                Ok(RunResult::Output(Grid2d::convert_from(&out32)))
            }),
        }
    }

    /// The pool-parallel path at f32 (ISSUE 8 satellite: the f32 rows
    /// were previously single-sweep only). Converts through f32 like
    /// [`Variant::native_f32`], so the band decomposition itself faces
    /// the f32 ULP budgets.
    pub fn native_f32_parallel(threads: usize) -> Variant {
        Variant {
            name: format!("native/f32/parallel{threads}"),
            star_only: false,
            dtype: Dtype::F32,
            runner: Box::new(move |spec, a| {
                let a32 = Grid2dT::<f32>::convert_from(a);
                let mut out32 = a32.clone();
                native::apply_2d_parallel_in(
                    ThreadPool::global(),
                    Dispatch::detect(),
                    spec,
                    &a32,
                    &mut out32,
                    threads,
                );
                Ok(RunResult::Output(Grid2d::convert_from(&out32)))
            }),
        }
    }

    /// The temporal executor at f32, forced through the trapezoid
    /// pipeline for one fused sweep like [`Variant::native_temporal`] —
    /// the ghost-zone/scratch machinery at the narrow element width.
    pub fn native_f32_temporal(threads: usize) -> Variant {
        Variant {
            name: format!("native/f32/temporal{threads}"),
            star_only: false,
            dtype: Dtype::F32,
            runner: Box::new(move |spec, a| {
                a.check_stencil(spec.radius(), a)
                    .map_err(|e| format!("native f32 temporal rejected a valid instance: {e}"))?;
                let a32 = Grid2dT::<f32>::convert_from(a);
                let out32 = native::time_steps_temporal_in(
                    ThreadPool::global(),
                    Dispatch::detect(),
                    spec,
                    &a32,
                    1,
                    threads,
                    native::Temporal {
                        t_block: None,
                        force_pipeline: true,
                        tile: Some((8, 16)),
                    },
                );
                Ok(RunResult::Output(Grid2d::convert_from(&out32)))
            }),
        }
    }

    /// The native executor's pool-parallel path (`threads` lanes of the
    /// global persistent pool, best dispatch).
    pub fn native_parallel(threads: usize) -> Variant {
        Variant {
            name: format!("native/parallel{threads}"),
            star_only: false,
            dtype: Dtype::F64,
            runner: Box::new(move |spec, a| {
                let mut out = a.clone();
                native::apply_2d_parallel_in(
                    ThreadPool::global(),
                    Dispatch::detect(),
                    spec,
                    a,
                    &mut out,
                    threads,
                );
                Ok(RunResult::Output(out))
            }),
        }
    }

    /// The temporally-tiled native multi-sweep executor (DESIGN.md §9),
    /// forced through the trapezoid pipeline for a single fused sweep so
    /// the ghost-zone/scratch machinery itself faces the differential
    /// ULP check and every metamorphic oracle.
    pub fn native_temporal(threads: usize) -> Variant {
        Variant {
            name: format!("native/temporal{threads}"),
            star_only: false,
            dtype: Dtype::F64,
            runner: Box::new(move |spec, a| {
                a.check_stencil(spec.radius(), a)
                    .map_err(|e| format!("native temporal rejected a valid instance: {e}"))?;
                let out = native::time_steps_temporal_in(
                    ThreadPool::global(),
                    Dispatch::detect(),
                    spec,
                    a,
                    1,
                    threads,
                    native::Temporal {
                        t_block: None,
                        force_pipeline: true,
                        tile: Some((8, 16)),
                    },
                );
                Ok(RunResult::Output(out))
            }),
        }
    }

    /// The temporally-vectorized family pinned to one *specific* ISA
    /// body (`native/tempvec+avx2`, `native/tempvec+scalar`). The plain
    /// `native/tempvec` row runs the widest body the host carries; these
    /// twins keep each narrower body covered. Registration is gated on
    /// the cap being executable and narrower than `TvIsa::best()`.
    pub fn native_tempvec_capped(cap: TvIsa) -> Variant {
        Variant {
            name: format!("native/tempvec+{}", cap.label()),
            star_only: false,
            dtype: Dtype::F64,
            runner: Box::new(move |spec, a| {
                let mut out = a.clone();
                tempvec::try_apply_2d_capped(cap, spec, a, &mut out)
                    .map_err(|e| format!("tempvec rejected a valid instance: {e}"))?;
                Ok(RunResult::Output(out))
            }),
        }
    }

    /// The f32 twin of [`Variant::native_tempvec_capped`], judged at
    /// f32 ULP budgets via [`Variant::dtype`].
    pub fn native_f32_tempvec_capped(cap: TvIsa) -> Variant {
        Variant {
            name: format!("native/f32/tempvec+{}", cap.label()),
            star_only: false,
            dtype: Dtype::F32,
            runner: Box::new(move |spec, a| {
                let a32 = Grid2dT::<f32>::convert_from(a);
                let mut out32 = a32.clone();
                tempvec::try_apply_2d_capped(cap, spec, &a32, &mut out32)
                    .map_err(|e| format!("tempvec f32 rejected a valid instance: {e}"))?;
                Ok(RunResult::Output(Grid2d::convert_from(&out32)))
            }),
        }
    }

    /// A simulated method kernel on a machine model (via
    /// [`StencilPlan`], so the full emit → schedule → execute path runs).
    pub fn sim(tag: &str, method: Method, cfg: fn() -> MachineConfig, star_only: bool) -> Variant {
        Variant {
            name: format!("sim/{tag}"),
            star_only,
            dtype: Dtype::F64,
            runner: Box::new(move |spec, a| {
                let plan = StencilPlan::new(spec, method).warmup(0);
                match plan.run_2d(&cfg(), a) {
                    Ok(out) => Ok(RunResult::Output(out.output)),
                    Err(PlanError::MethodUnsupported { reason, .. }) => {
                        Ok(RunResult::Unsupported(reason.to_string()))
                    }
                    Err(e) => Err(format!("simulated run failed: {e}")),
                }
            }),
        }
    }

    /// Wraps the variant with an injected off-by-one fault: the sweep
    /// sees the input window shifted one column right. Exists so the
    /// test suite can prove the differential matrix *catches* a
    /// plausible kernel bug with a shrunk, replayable counterexample.
    pub fn with_off_by_one(self) -> Variant {
        let inner = self.runner;
        Variant {
            name: format!("{}+off-by-one", self.name),
            star_only: self.star_only,
            dtype: self.dtype,
            runner: Box::new(move |spec, a| {
                let lim = a.w() as isize + a.halo() as isize - 1;
                let shifted =
                    Grid2d::from_fn(a.h(), a.w(), a.halo(), |i, j| a.at(i, (j + 1).min(lim)));
                inner(spec, &shifted)
            }),
        }
    }
}

/// Every conformance variant runnable on this host. One line per
/// kernel/executor; the AVX2 path registers only where it can execute.
pub fn registry() -> Vec<Variant> {
    let lx2 = MachineConfig::lx2;
    let m4 = MachineConfig::apple_m4;
    let mut v = vec![
        Variant::reference(),
        Variant::native(Dispatch::Scalar),
        Variant::native_parallel(2),
        Variant::native_parallel(4),
        Variant::native_temporal(3),
        Variant::sim("lx2/hstencil", Method::HStencil, lx2, false),
        Variant::sim("lx2/vector-only", Method::VectorOnly, lx2, false),
        Variant::sim("lx2/matrix-stop", Method::MatrixOnly, lx2, false),
        Variant::sim("lx2/mat-ortho", Method::MatrixOrtho, lx2, true),
        Variant::sim("lx2/naive-hybrid", Method::NaiveHybrid, lx2, false),
        Variant::sim("lx2/auto", Method::Auto, lx2, false),
        Variant::sim("m4/hstencil", Method::HStencil, m4, false),
    ];
    // The f32 instantiations of the TileKernel trait (DESIGN.md §12),
    // one row per canonical SIMD kernel the host runs, judged at f32
    // ULP budgets via `Variant::dtype`. The AVX-512 rows register
    // below.
    if Dispatch::avx2_available() {
        v.push(Variant::native(Dispatch::Avx2Fma));
        v.push(Variant::native_f32(Dispatch::Avx2Fma));
    }
    // The f32 temporal/parallel rows (ROADMAP item 3 follow-on): the
    // band decomposition and the trapezoid ghost machinery had f64
    // coverage only until ISSUE 8.
    v.push(Variant::native_f32_parallel(2));
    v.push(Variant::native_f32_temporal(3));
    // The temporally-vectorized family (DESIGN.md §15), f64 and f32.
    // Registered unconditionally: its scalar row body is part of the
    // family's bit-identity contract, so off x86 the rows still run.
    // Tempvec reassociates the canonical tap sum (two alternating
    // accumulators) — ULP-bounded, not bit-exact, against the
    // reference.
    v.push(Variant::native(Dispatch::TempVec));
    v.push(Variant::native_f32(Dispatch::TempVec));
    // The AVX-512 instances register only where the host can execute
    // them; on other hosts the matrix's coverage report lacks the
    // avx512 rows — a visible, not silent, narrowing, spelled out by
    // [`skip_notices`].
    if Dispatch::avx512_available() {
        v.push(Variant::native(Dispatch::Avx512));
        v.push(Variant::native_f32(Dispatch::Avx512));
    }
    // The plain tempvec rows run only the widest body the host carries;
    // one capped twin per narrower body keeps every body covered.
    for cap in [TvIsa::Scalar, TvIsa::Avx2] {
        if cap.available() && cap != TvIsa::best() {
            v.push(Variant::native_tempvec_capped(cap));
            v.push(Variant::native_f32_tempvec_capped(cap));
        }
    }
    v
}

/// Human-readable notices for the rows this host **cannot** register —
/// the visible half of the registry's "a visible, not silent,
/// narrowing" contract. The conformance matrix prints these once per
/// run, so a report missing e.g. the tempvec twins says why instead of
/// just being shorter.
pub fn skip_notices() -> Vec<String> {
    skip_notices_for(Dispatch::avx2_available(), Dispatch::avx512_available())
}

/// [`skip_notices`] with the ISA facts injected, so the notice text is
/// unit-testable on any host.
pub fn skip_notices_for(avx2: bool, avx512: bool) -> Vec<String> {
    let mut out = Vec::new();
    if !avx2 {
        out.push(
            "conformance: skipping native/avx2+fma and native/f32/avx2+fma: host lacks AVX2"
                .to_string(),
        );
    }
    if !avx512 {
        out.push(
            "conformance: skipping native/avx512 and native/f32/avx512: host lacks avx512f"
                .to_string(),
        );
    }
    // A tempvec twin registers only for a body narrower than the widest
    // one this host carries, which the plain rows already run.
    for (cap, wider, lacks) in [("avx2", avx512, "avx512f"), ("scalar", avx2, "AVX2")] {
        if !wider {
            out.push(format!(
                "conformance: skipping native/tempvec+{cap} and native/f32/tempvec+{cap}: \
                 host lacks {lacks} (the portable native/tempvec rows still run the widest \
                 body this host carries)"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_meets_the_minimum_matrix_width() {
        let names: Vec<String> = registry().iter().map(|v| v.name().to_string()).collect();
        assert!(names.len() >= 6, "only {} variants: {names:?}", names.len());
        assert!(
            names.iter().any(|n| n.starts_with("native/temporal")),
            "temporal executor missing from the matrix: {names:?}"
        );
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate names: {names:?}");
        assert!(names.iter().any(|n| n == "reference"));
        assert!(names.iter().any(|n| n.starts_with("native/")));
        assert!(names.iter().any(|n| n.starts_with("sim/")));
        for needed in ["native/parallel2", "native/parallel4"] {
            assert!(
                names.iter().any(|n| n == needed),
                "thread-scaling variant {needed} missing from the matrix: {names:?}"
            );
        }
        assert!(
            names.iter().any(|n| n.starts_with("native/f32/")),
            "f32 TileKernel instance missing from the matrix: {names:?}"
        );
        for needed in ["native/f32/parallel2", "native/f32/temporal3"] {
            assert!(
                names.iter().any(|n| n == needed),
                "f32 temporal/parallel variant {needed} missing from the matrix: {names:?}"
            );
        }
        // The standalone reuse kernels and the hybrid kernel are
        // retired; nothing registers under their names.
        assert!(
            !names
                .iter()
                .any(|n| n.contains("reuse") || n.contains("hybrid8x8")),
            "retired variants registered: {names:?}"
        );
        // One row per canonical SIMD kernel the host runs, at each
        // dtype.
        for (kernel, runs) in [
            ("avx2+fma", Dispatch::avx2_available()),
            ("avx512", Dispatch::avx512_available()),
        ] {
            for row in [format!("native/{kernel}"), format!("native/f32/{kernel}")] {
                assert_eq!(names.contains(&row), runs, "{row}: {names:?}");
            }
        }
        // The tempvec family rows are unconditional (scalar fallback).
        for needed in ["native/tempvec", "native/f32/tempvec"] {
            assert!(
                names.iter().any(|n| n == needed),
                "tempvec variant {needed} missing from the matrix: {names:?}"
            );
        }
        // One capped tempvec twin per body narrower than the widest,
        // which the plain rows run.
        for (cap, wider) in [
            ("scalar", Dispatch::avx2_available()),
            ("avx2", Dispatch::avx512_available()),
        ] {
            for twin in [
                format!("native/tempvec+{cap}"),
                format!("native/f32/tempvec+{cap}"),
            ] {
                assert_eq!(names.contains(&twin), wider, "{twin}: {names:?}");
            }
        }
        if Dispatch::avx512_available() {
            for needed in ["native/avx512", "native/f32/avx512"] {
                assert!(
                    names.iter().any(|n| n == needed),
                    "AVX-512 instance {needed} missing despite host support: {names:?}"
                );
            }
        } else {
            assert!(
                !names.iter().any(|n| n.contains("avx512")),
                "AVX-512 variants must not register without avx512f: {names:?}"
            );
        }
    }

    #[test]
    fn skip_notices_name_every_ungated_tempvec_twin() {
        // A fully-capable host narrows nothing and says nothing.
        assert!(skip_notices_for(true, true).is_empty());
        // Without avx512f the AVX2 body is the widest, so its twins do
        // not register; the notice names them and says why the skip is
        // legal (the portable rows still run that body).
        let narrowed = skip_notices_for(true, false);
        assert_eq!(narrowed.len(), 2);
        let tempvec_notice = narrowed
            .iter()
            .find(|n| n.contains("native/tempvec+avx2"))
            .expect("no notice names the tempvec avx2 twin");
        assert!(tempvec_notice.contains("native/f32/tempvec+avx2"));
        assert!(tempvec_notice.contains("host lacks avx512f"));
        assert!(tempvec_notice.contains("native/tempvec rows"));
        // A scalar-only host reports every narrowing, the scalar twins
        // included; none of them claims the portable tempvec rows are
        // gone.
        let scalar_only = skip_notices_for(false, false);
        assert_eq!(scalar_only.len(), 4);
        assert!(scalar_only
            .iter()
            .any(|n| n.contains("native/f32/tempvec+scalar") && n.contains("host lacks AVX2")));
        assert!(scalar_only
            .iter()
            .all(|n| n.starts_with("conformance: skipping ")));
        // The production wrapper reflects this host's actual ISA.
        assert_eq!(
            skip_notices(),
            skip_notices_for(Dispatch::avx2_available(), Dispatch::avx512_available())
        );
    }

    #[test]
    fn f32_variants_carry_their_dtype_and_everything_else_is_f64() {
        for v in registry() {
            let want = if v.name().starts_with("native/f32/") {
                Dtype::F32
            } else {
                Dtype::F64
            };
            assert_eq!(v.dtype(), want, "{} has the wrong dtype", v.name());
        }
        // The fault wrapper preserves the wrapped variant's dtype, so
        // injected f32 faults are still judged at f32 budgets.
        let wrapped = Variant::native_f32(Dispatch::Scalar).with_off_by_one();
        assert_eq!(wrapped.dtype(), Dtype::F32);
    }

    #[test]
    fn star_only_variants_skip_box_tables() {
        let ortho = Variant::sim(
            "lx2/mat-ortho",
            Method::MatrixOrtho,
            MachineConfig::lx2,
            true,
        );
        let spec = hstencil_core::presets::box2d9p();
        let grid = Grid2d::from_fn(8, 8, 1, |i, j| (i * j) as f64);
        match ortho.run(&spec, &grid).unwrap() {
            RunResult::Unsupported(reason) => assert!(reason.contains("star")),
            RunResult::Output(_) => panic!("mat-ortho must not accept a box table"),
        }
    }

    #[test]
    fn off_by_one_wrapper_changes_the_answer() {
        let v = Variant::reference();
        let bad = Variant::reference().with_off_by_one();
        assert!(bad.name().ends_with("+off-by-one"));
        let spec = hstencil_core::presets::star2d5p();
        let grid = Grid2d::from_fn(8, 8, 1, |i, j| ((3 * i + j) % 7) as f64);
        let (a, b) = match (v.run(&spec, &grid).unwrap(), bad.run(&spec, &grid).unwrap()) {
            (RunResult::Output(a), RunResult::Output(b)) => (a, b),
            _ => panic!("reference cannot be unsupported"),
        };
        assert!(a.max_interior_diff(&b) > 0.1, "fault was not observable");
    }
}
