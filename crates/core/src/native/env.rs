//! One warn-once reader for every `HSTENCIL_*` environment knob.
//!
//! Each knob (`HSTENCIL_DISPATCH`, `HSTENCIL_THREADS`) needs the same
//! three steps: read the variable, parse it with a `(_value, warning)`
//! fallback pair, memoize the result in a `OnceLock` and print the
//! warning exactly once. [`cached`] is the single implementation; the
//! typed parsers stay next to the types they produce and only the
//! read/memoize/warn plumbing lives here.
//!
//! The shared contract every knob honors (pinned by the test suite
//! below):
//!
//! * **Warn once, on stderr, then fall back.** A malformed value never
//!   aborts a run; the warning names the variable *and* the rejected
//!   value so the fix is obvious from a CI log.
//! * **Silence is silent.** An unset or empty variable produces no
//!   warning and no override.
//! * **Read once per process.** The environment is consulted on first
//!   use and memoized; later mutations of the variable are invisible.

use std::sync::OnceLock;

/// Reads `var` once, parses it with `parse`, memoizes the value in
/// `cell` and prints the parser's warning (if any) exactly once.
///
/// `parse` receives `None` when the variable is unset and returns the
/// resolved value plus an optional warning line. The warning is printed
/// on the first call only — the `OnceLock` makes both the value and the
/// side effect once-per-process.
pub(crate) fn cached<T, P>(cell: &'static OnceLock<T>, var: &str, parse: P) -> T
where
    T: Copy,
    P: FnOnce(Option<&str>) -> (T, Option<String>),
{
    *cell.get_or_init(|| {
        let raw = std::env::var(var).ok();
        let (value, warning) = parse(raw.as_deref());
        if let Some(w) = warning {
            eprintln!("{w}");
        }
        value
    })
}

#[cfg(test)]
mod tests {
    use super::super::{threads, Dispatch};
    use super::*;

    /// A knob's parser adapted to the common `Option<&str> -> warning`
    /// shape, so one loop can pin the shared contract for all of them.
    type WarnParser = Box<dyn Fn(Option<&str>) -> Option<String>>;

    /// Every knob's parser under the common shape.
    fn parsers() -> Vec<(&'static str, WarnParser)> {
        vec![
            (
                "HSTENCIL_DISPATCH",
                Box::new(|v| Dispatch::from_env_str_warn(v.unwrap_or("")).1),
            ),
            (
                "HSTENCIL_THREADS",
                Box::new(|v| threads::from_env_str_warn(v).1),
            ),
        ]
    }

    #[test]
    fn every_knob_warns_with_variable_and_value_on_garbage() {
        for (var, parse) in parsers() {
            let warning = parse(Some("b?gus")).unwrap_or_else(|| {
                panic!("{var}: malformed value must produce a warning");
            });
            assert!(warning.contains(var), "{var}: warning must name the knob");
            assert!(
                warning.contains("b?gus"),
                "{var}: warning must echo the rejected value: {warning}"
            );
        }
    }

    #[test]
    fn every_knob_is_silent_when_unset_or_empty() {
        for (var, parse) in parsers() {
            for quiet in [None, Some("")] {
                assert!(
                    parse(quiet).is_none(),
                    "{var}: {quiet:?} must not warn (silence is silent)"
                );
            }
        }
    }

    #[test]
    fn cached_reads_memoize_and_warn_once() {
        static CELL: OnceLock<u32> = OnceLock::new();
        let mut calls = 0;
        let v = cached(&CELL, "HSTENCIL_TEST_NOT_SET", |raw| {
            calls += 1;
            assert_eq!(raw, None);
            (7u32, None)
        });
        assert_eq!(v, 7);
        assert_eq!(calls, 1);
        // Second read: the parser must not run again.
        let v = cached(&CELL, "HSTENCIL_TEST_NOT_SET", |_| {
            panic!("parser re-ran on a memoized cell")
        });
        assert_eq!(v, 7);
    }
}
