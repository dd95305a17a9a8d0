//! The vector primitives every x86 SIMD stencil schedule is written
//! against.
//!
//! The paper ports its micro-kernels between machines by swapping
//! vector primitives, not schedules (PAPER.md §1). [`Lane`] is that seam
//! here: the canonical row pair, the canonical single row
//! ([`super::kernel2d`]) and the tempvec wave row ([`super::tempvec`])
//! are each written once as an `#[inline(always)]` body generic over
//! `V: Lane`, and each ISA reaches a body through one `#[target_feature]`
//! shim that is itself generic over `V`. The methods are
//! `#[inline(always)]`, so they dissolve into the shim that instantiates
//! them and the intrinsics compile under that shim's features.
//!
//! `fma` rounds once per lane, exactly like
//! [`Element::mul_add`](crate::element::Element::mul_add), so a body
//! computes the same per-lane chain at every register width
//! (DESIGN.md §12).

use crate::element::Element;
use std::arch::x86_64::*;

/// One x86 vector register of [`Lane::N`] lanes of [`Lane::E`].
///
/// The trait is public only so [`super::NativeElement`] can name an
/// element type's registers; its module is private, so nothing outside
/// the native executor can implement or call it.
///
/// # Safety
///
/// Every method executes ISA extensions: callers must run inside a
/// `#[target_feature]` context the host supports (AVX2 + FMA for the
/// 256-bit registers, AVX-512F for the 512-bit ones), and pointer
/// arguments must be valid for `N` unaligned elements.
pub trait Lane: Copy {
    /// The element type of one lane.
    type E: Element;
    /// Lanes per register.
    const N: usize;
    /// All lanes zero.
    unsafe fn zero() -> Self;
    /// `c` broadcast to every lane.
    unsafe fn splat(c: Self::E) -> Self;
    /// Unaligned load of `N` elements.
    unsafe fn load(p: *const Self::E) -> Self;
    /// Unaligned store of `N` elements.
    unsafe fn store(self, p: *mut Self::E);
    /// `c * v + acc` per lane, rounded once.
    unsafe fn fma(c: Self, v: Self, acc: Self) -> Self;
    /// `self + o` per lane.
    unsafe fn add(self, o: Self) -> Self;
}

macro_rules! lane {
    ($v:ty, $e:ty, $n:expr, $zero:ident, $splat:ident, $load:ident, $store:ident, $fma:ident, $add:ident) => {
        impl Lane for $v {
            type E = $e;
            const N: usize = $n;
            #[inline(always)]
            unsafe fn zero() -> Self {
                $zero()
            }
            #[inline(always)]
            unsafe fn splat(c: $e) -> Self {
                $splat(c)
            }
            #[inline(always)]
            unsafe fn load(p: *const $e) -> Self {
                $load(p)
            }
            #[inline(always)]
            unsafe fn store(self, p: *mut $e) {
                $store(p, self)
            }
            #[inline(always)]
            unsafe fn fma(c: Self, v: Self, acc: Self) -> Self {
                $fma(c, v, acc)
            }
            #[inline(always)]
            unsafe fn add(self, o: Self) -> Self {
                $add(self, o)
            }
        }
    };
}

lane!(
    __m256d,
    f64,
    4,
    _mm256_setzero_pd,
    _mm256_set1_pd,
    _mm256_loadu_pd,
    _mm256_storeu_pd,
    _mm256_fmadd_pd,
    _mm256_add_pd
);
lane!(
    __m256,
    f32,
    8,
    _mm256_setzero_ps,
    _mm256_set1_ps,
    _mm256_loadu_ps,
    _mm256_storeu_ps,
    _mm256_fmadd_ps,
    _mm256_add_ps
);
lane!(
    __m512d,
    f64,
    8,
    _mm512_setzero_pd,
    _mm512_set1_pd,
    _mm512_loadu_pd,
    _mm512_storeu_pd,
    _mm512_fmadd_pd,
    _mm512_add_pd
);
lane!(
    __m512,
    f32,
    16,
    _mm512_setzero_ps,
    _mm512_set1_ps,
    _mm512_loadu_ps,
    _mm512_storeu_ps,
    _mm512_fmadd_ps,
    _mm512_add_ps
);
