//! `HSTENCIL_THREADS` — process-wide lane-count override for the
//! native executor's auto entry points.
//!
//! Before this module every caller of `apply_2d_parallel` /
//! `apply_3d_parallel` / `time_steps` hard-coded a thread count, so the
//! only way to run a binary saturated (or pinned single-threaded for a
//! clean baseline) was to edit and rebuild it. `HSTENCIL_THREADS=<n>`
//! now pins the lane count process-wide with the same conventions as
//! `HSTENCIL_DISPATCH`:
//!
//! * the variable is read **once** per process ([`env_override`]),
//! * `auto` (or empty/unset) keeps the caller's request,
//! * a malformed value (including `0` — a zero-lane sweep cannot run)
//!   warns **once** on stderr, naming the bad value and the fallback,
//!   and keeps the caller's request.
//!
//! Like `HSTENCIL_DISPATCH`, the override applies to the *auto* entry
//! points only: the explicit-pool `*_in` variants always honor their
//! `threads` argument, so the bench scaling tier and the conformance
//! registry can measure exact lane counts regardless of environment.
//! Thread count can never change results — every kernel is invariant to
//! band decomposition (pinned by the bit-identity suites) — so the
//! override only moves speed.

use std::sync::OnceLock;

/// Parses an `HSTENCIL_THREADS` value: a positive integer pins the lane
/// count, `auto`/empty/unset keeps the caller's request (`None`), and
/// anything else (including `0`) is malformed — `None` plus a warning
/// that names the value and the fallback.
pub fn from_env_str_warn(v: Option<&str>) -> (Option<usize>, Option<String>) {
    let s = match v.map(str::trim) {
        None | Some("") => return (None, None),
        Some(s) if s.eq_ignore_ascii_case("auto") => return (None, None),
        Some(s) => s,
    };
    match s.parse::<usize>() {
        Ok(n) if n >= 1 => (Some(n), None),
        _ => (
            None,
            Some(format!(
                "hstencil: ignoring malformed HSTENCIL_THREADS={s:?} \
                 (expected auto|<positive lane count>); using the caller's thread count"
            )),
        ),
    }
}

/// [`from_env_str_warn`] without the warning text.
pub fn from_env_str(v: Option<&str>) -> Option<usize> {
    from_env_str_warn(v).0
}

/// The process-wide `HSTENCIL_THREADS` override (env read once through
/// `super::env::cached`; malformed values warn on stderr once and
/// keep the caller's count).
pub fn env_override() -> Option<usize> {
    static OVERRIDE: OnceLock<Option<usize>> = OnceLock::new();
    super::env::cached(&OVERRIDE, "HSTENCIL_THREADS", from_env_str_warn)
}

/// The lane count an auto entry point should run with: the
/// `HSTENCIL_THREADS` pin when set, otherwise the caller's request.
pub fn resolve(requested: usize) -> usize {
    env_override().unwrap_or(requested)
}

/// The lane count for callers with no opinion of their own: the
/// `HSTENCIL_THREADS` pin when set, otherwise every hardware thread
/// ([`std::thread::available_parallelism`]). This is what the bench
/// scaling tier uses as its "all cores" point.
pub fn auto() -> usize {
    env_override().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing() {
        assert_eq!(from_env_str(None), None);
        assert_eq!(from_env_str(Some("")), None);
        assert_eq!(from_env_str(Some("auto")), None);
        assert_eq!(from_env_str(Some(" AUTO ")), None);
        assert_eq!(from_env_str(Some("1")), Some(1));
        assert_eq!(from_env_str(Some(" 8 ")), Some(8));
        assert_eq!(from_env_str(Some("0")), None);
        assert_eq!(from_env_str(Some("-2")), None);
        assert_eq!(from_env_str(Some("lots")), None);
    }

    #[test]
    fn malformed_values_warn_with_value_and_fallback() {
        for bad in ["bogus", "0", "-1", "1.5"] {
            let (parsed, warn) = from_env_str_warn(Some(bad));
            assert_eq!(parsed, None, "{bad}");
            let warn = warn.expect("malformed value must produce a warning");
            assert!(warn.contains("HSTENCIL_THREADS"), "{warn}");
            assert!(
                warn.contains(&format!("{bad:?}")),
                "names the value: {warn}"
            );
            assert!(warn.contains("caller's thread count"), "fallback: {warn}");
        }
        // Well-formed and intentionally-empty values stay silent.
        for ok in [None, Some(""), Some("auto"), Some("4")] {
            assert!(from_env_str_warn(ok).1.is_none(), "{ok:?}");
        }
    }
}
