//! Software-prefetch distances for the canonical SIMD micro-kernels.
//!
//! The paper's Algorithm 3 (§3.3) issues spatial prefetches for the
//! *next input row* and the *destination store row* while the current
//! row is being computed, so the streaming loads of a memory-bound
//! sweep are already in flight when the kernel reaches them. This
//! module is the native x86 analogue: [`Prefetch`] says how far ahead
//! of the tap window the input prefetch runs (in rows) and how far
//! ahead of the store cursor the destination prefetch runs (in
//! columns).
//!
//! Prefetch is a *hint* — `_mm_prefetch` never faults and never changes
//! architectural state (the machine-model counterpart is pinned by
//! `crates/machine/tests/prefetch_transparency.rs`) — so it cannot
//! affect results. It is still wired **only** into the 2-D SIMD sweeps
//! (the AVX2 and AVX-512 canonical bodies, at [`Prefetch::DEFAULT`]):
//! the scalar fallback stays a pure `mul_add` chain with no `std::arch`
//! calls at all, keeping the bit-identity contract between the paths
//! trivially auditable, and 3-D sweeps run [`Prefetch::OFF`].

/// Prefetch distances for the SIMD sweep kernels. `input_rows == 0`
/// and `dst_cols == 0` mean "emit no prefetch".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Prefetch {
    /// How many rows below the deepest tap row the input prefetch
    /// targets. The pair kernel consumes two new input rows per step,
    /// so distance `d` prefetches rows `i + r + d` and `i + r + d + 1`
    /// at the current column while rows `i, i+1` are being computed.
    pub input_rows: usize,
    /// How many columns ahead of the store cursor the destination
    /// prefetch targets (per output row in flight).
    pub dst_cols: usize,
}

impl Prefetch {
    /// Prefetch disabled (what the scalar path and 3-D sweeps use).
    pub const OFF: Prefetch = Prefetch {
        input_rows: 0,
        dst_cols: 0,
    };

    /// The distances every 2-D SIMD sweep runs: next two input rows,
    /// half a tile of columns ahead for the store stream. Chosen on the
    /// recorded bench host (see `BENCH_native.json`).
    pub const DEFAULT: Prefetch = Prefetch {
        input_rows: 2,
        dst_cols: 64,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_all_zero() {
        assert_eq!(Prefetch::OFF.input_rows, 0);
        assert_eq!(Prefetch::OFF.dst_cols, 0);
    }
}
