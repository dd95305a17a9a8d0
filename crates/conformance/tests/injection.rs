//! Fault-injection acceptance test: an off-by-one deliberately injected
//! into *each* registered variant must be caught by the differential
//! matrix, and the failure must come with a shrunk counterexample and a
//! copy-pasteable `TESTKIT_SEED` replay line.

use hstencil_conformance::oracle::check_differential;
use hstencil_conformance::{registry, InstanceStrategy, Outcome, Variant};
use hstencil_core::Dispatch;
use hstencil_testkit::prop::{self, Config};
use std::panic::{catch_unwind, AssertUnwindSafe};

fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast::<String>()
        .map(|s| *s)
        .or_else(|p| p.downcast::<&'static str>().map(|s| s.to_string()))
        .unwrap_or_else(|_| "<non-string panic payload>".into())
}

#[test]
fn off_by_one_in_any_variant_is_caught_with_a_replayable_counterexample() {
    let n = registry().len();
    for k in 0..n {
        let faulty = registry().swap_remove(k).with_off_by_one();
        let name = faulty.name().to_string();
        let cfg = Config {
            cases: 3,
            seed: 0x0FF5_E701 + k as u64,
            max_shrink_steps: 48,
        };
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Star instances so even star-only methods actually run
            // (a skipped run can hide nothing *and* catch nothing).
            prop::check(
                &cfg,
                &InstanceStrategy::star(),
                |inst| match check_differential(&faulty, inst)? {
                    Outcome::Checked => Ok(()),
                    Outcome::Skipped => Err(format!("{name} skipped a star instance")),
                },
            );
        }));
        let text = panic_text(outcome.expect_err(&format!(
            "the harness failed to catch the fault injected into {name}"
        )));
        assert!(
            text.contains("minimal failing input"),
            "[{name}] no shrunk counterexample in:\n{text}"
        );
        assert!(
            text.contains("replay: TESTKIT_SEED=0x"),
            "[{name}] no replay line in:\n{text}"
        );
        assert!(
            text.contains("Instance"),
            "[{name}] counterexample does not show the instance:\n{text}"
        );
        assert!(
            text.contains(&name),
            "[{name}] failure does not identify the faulty variant:\n{text}"
        );
    }
}

#[test]
fn off_by_one_in_the_f32_temporal_variant_shrinks_to_a_minimal_counterexample() {
    // ISSUE 8 satellite: the trapezoid pipeline at f32 must be just as
    // catchable as the f64 rows — the planted one-column shift moves
    // values by O(coefficient · amplitude), far above the f32 ULP
    // budget, so the differential check has to fire and shrink.
    let faulty = Variant::native_f32_temporal(3).with_off_by_one();
    let cfg = Config {
        cases: 4,
        seed: 0x0FF5_E132,
        max_shrink_steps: 64,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        prop::check(
            &cfg,
            &InstanceStrategy::star(),
            |inst| match check_differential(&faulty, inst)? {
                Outcome::Checked => Ok(()),
                Outcome::Skipped => Err("native/f32/temporal3 skipped a star instance".into()),
            },
        );
    }));
    let text =
        panic_text(outcome.expect_err("the off-by-one f32 temporal variant went undetected"));
    for needle in [
        "minimal failing input",
        "replay: TESTKIT_SEED=0x",
        "Instance",
        "native/f32/temporal3+off-by-one",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

/// ISSUE 10 satellite: an off-by-one flowing through the
/// temporally-vectorized row kernels must shrink exactly like one in
/// the canonical paths. The planted one-column shift moves every
/// shift-synthesized neighbor operand, far outside the ULP budget the
/// family's two-accumulator reassociation is allowed, so the
/// differential matrix has to fire and hand back a minimal,
/// replayable counterexample naming the tempvec variant. No ISA gate:
/// the scalar tempvec body is registered on every host.
#[test]
fn off_by_one_in_the_tempvec_family_shrinks_to_a_minimal_counterexample() {
    let faulty = Variant::native(Dispatch::TempVec).with_off_by_one();
    let cfg = Config {
        cases: 4,
        seed: 0x0FF5_E7E9,
        max_shrink_steps: 64,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        prop::check(
            &cfg,
            &InstanceStrategy::star(),
            |inst| match check_differential(&faulty, inst)? {
                Outcome::Checked => Ok(()),
                Outcome::Skipped => Err("native/tempvec skipped a star instance".into()),
            },
        );
    }));
    let text = panic_text(outcome.expect_err("the off-by-one tempvec family went undetected"));
    for needle in [
        "minimal failing input",
        "replay: TESTKIT_SEED=0x",
        "Instance",
        "native/tempvec+off-by-one",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

/// The first proof restated for the AVX-512 `TileKernel` instance
/// specifically: an off-by-one in its tap
/// window must fall out of the shrinking harness as a minimal,
/// replayable counterexample. Skips with a notice on hosts without
/// avx512f (where the instance cannot execute at all).
#[test]
fn off_by_one_in_the_avx512_instance_shrinks_to_a_minimal_counterexample() {
    if !Dispatch::avx512_available() {
        println!(
            "avx512 fault-injection proof SKIPPED: host lacks avx512f, \
             the instance cannot execute here"
        );
        return;
    }
    let faulty = Variant::native(Dispatch::Avx512).with_off_by_one();
    let cfg = Config {
        cases: 4,
        seed: 0x0FF5_E512,
        max_shrink_steps: 64,
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        prop::check(
            &cfg,
            &InstanceStrategy::star(),
            |inst| match check_differential(&faulty, inst)? {
                Outcome::Checked => Ok(()),
                Outcome::Skipped => Err("native/avx512 skipped a star instance".into()),
            },
        );
    }));
    let text = panic_text(outcome.expect_err("the off-by-one AVX-512 instance went undetected"));
    for needle in [
        "minimal failing input",
        "replay: TESTKIT_SEED=0x",
        "Instance",
        "native/avx512+off-by-one",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}
