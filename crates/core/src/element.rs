//! Element types the native executor is generic over.
//!
//! The paper's central claim is that the interleaved outer-product +
//! MLA schedule maps onto *any* wide-vector engine; the element type is
//! one of the two axes that widen it (the other is the ISA). [`Element`]
//! is the minimal arithmetic contract the kernels need — a fused
//! multiply-add, the two ring constants, and lossless round-trips to
//! `f64` for grid construction and differential checking. `f64` is the
//! reference precision; `f32` doubles vector lanes at the cost of a
//! wider ULP budget in the conformance oracles (DESIGN.md §12).

use std::fmt;

/// The element type of a grid/kernel instance, as data (for serve batch
/// keys, registry names and bench rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// IEEE-754 binary32.
    F32,
    /// IEEE-754 binary64 (the reference precision).
    F64,
}

impl Dtype {
    /// Stable lowercase label (`"f32"` / `"f64"`), used in serve batch
    /// keys, conformance variant names and bench row ids.
    pub fn label(self) -> &'static str {
        match self {
            Dtype::F32 => "f32",
            Dtype::F64 => "f64",
        }
    }

    /// Element size in bytes.
    pub fn size(self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::F64 => 8,
        }
    }
}

impl fmt::Display for Dtype {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// An IEEE float the grids and native kernels can be instantiated at.
///
/// The contract the kernels rely on:
///
/// * [`Element::mul_add`] rounds **once** (a true FMA) — the
///   bit-identity argument between scalar and SIMD dispatches holds
///   because both sides round identically per step;
/// * [`Element::from_f64`] / [`Element::to_f64`] are the bridges to the
///   `f64` reference world: exact for `f64`, round-to-nearest for
///   `f32` (and `f32 -> f64` back is exact).
pub trait Element: Copy + PartialEq + PartialOrd + fmt::Debug + Send + Sync + 'static {
    /// Which dtype this is, as data.
    const DTYPE: Dtype;
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity (the tempvec fold constant).
    const ONE: Self;

    /// Fused multiply-add `self * a + b`, rounded once.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Conversion from the `f64` master value (round-to-nearest).
    fn from_f64(v: f64) -> Self;
    /// Widening to `f64` (exact for both instances).
    fn to_f64(self) -> f64;
    /// Absolute value (used by diff helpers, not by kernels).
    fn abs(self) -> Self;
}

impl Element for f64 {
    const DTYPE: Dtype = Dtype::F64;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
}

impl Element for f32 {
    const DTYPE: Dtype = Dtype::F32;
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;

    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f32::mul_add(self, a, b)
    }
    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_the_types() {
        assert_eq!(Dtype::F32.size(), std::mem::size_of::<f32>());
        assert_eq!(Dtype::F64.size(), std::mem::size_of::<f64>());
    }

    #[test]
    fn mul_add_rounds_once() {
        // A case where fused and unfused differ in f64: (1 + 2^-27)^2
        // carries a 2^-54 cross term that only the fused path keeps.
        let x = 1.0 + (2.0f64).powi(-27);
        let (a, b, c) = (x, x, -1.0);
        assert_eq!(Element::mul_add(a, b, c), f64::mul_add(a, b, c));
        assert_ne!(f64::mul_add(a, b, c), a * b + c);
        let (a, b, c) = (1.0 + f32::EPSILON, 1.0 + f32::EPSILON, -1.0f32);
        assert_eq!(Element::mul_add(a, b, c), f32::mul_add(a, b, c));
    }

    #[test]
    fn f32_round_trips_through_f64_exactly() {
        for v in [0.0f32, 1.5, -3.25e-7, f32::MIN_POSITIVE, 1.0e30] {
            assert_eq!(f32::from_f64(v.to_f64()), v);
        }
    }
}
