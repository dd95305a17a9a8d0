//! The backend-generic register-tile kernel interface.
//!
//! The paper's central claim (HStencil §3) is that the interleaved
//! outer-product + MLA schedule maps onto *any* wide-vector engine; this
//! module is that claim as a Rust trait. [`TileKernel`] abstracts "sweep
//! a register tile of output rows over preprocessed taps", and each
//! backend is one instance:
//!
//! | instance      | `f64`                | `f32`                 | 3-D      |
//! |---------------|----------------------|-----------------------|----------|
//! | [`ScalarTile`]| canonical FMA chain  | canonical FMA chain   | yes      |
//! | [`Avx2Tile`]  | 2×8 cols, 4-lane ymm | 2×16 cols, 8-lane ymm | yes      |
//! | [`Avx512Tile`]| 2×16 cols, 8-lane zmm| 2×32 cols, 16-lane zmm| yes      |
//!
//! # The bit-identity contract
//!
//! Every instance computes each output element as the *same* fused
//! multiply-add chain over the nonzero taps in canonical `(dk, di, dj)`
//! ascending order starting from zero. Vector `fma` and
//! `Element::mul_add` all round once per step, so within one element
//! type every instance is **bit-identical** to the scalar chain
//! regardless of vector width — dispatch can change speed, never
//! results.
//!
//! # One body per schedule
//!
//! The two SIMD instances are generic over the element type: each
//! reaches the canonical row-pair and single-row bodies of `kernel2d`
//! through the `#[target_feature]` shim of its ISA, instantiated at the
//! element's vector register — [`NativeElement`]'s hidden `Ymm`
//! (256-bit) or `Zmm` (512-bit) lane type. The call goes through the
//! per-dtype `NativeElement::canonical_rows`, so the bodies are
//! compiled once per dtype here rather than once in every crate that
//! sweeps: a binary carries one copy of each, and the hot loop keeps
//! the code placement the per-ISA copies had (on a 2-vCPU AVX-512 Xeon
//! the same loop instantiated in the benchmark crate ran the in-cache
//! `sweep_l2` workload 20–30% slower).

use super::kernel2d;
#[cfg(target_arch = "x86_64")]
use super::kernel2d::Simd;
#[cfg(target_arch = "x86_64")]
use super::lane::Lane;
use super::prefetch::Prefetch;
use super::{tile, Dispatch};
use crate::element::Element;

pub use super::kernel2d::Taps2;
pub use super::kernel3d::Taps3;

/// Register-tile geometry of one [`TileKernel`] instance: output rows
/// per `execute` step. `tile_m >= 2` is the signal the generic band
/// drivers use to walk output rows in pairs (the register-blocking
/// reuse the paper's Algorithm 2 relies on).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Config {
    /// Output rows computed per `execute` step.
    pub tile_m: usize,
}

/// One register-tile kernel backend for element type `E`.
///
/// Instances are zero-sized types; all methods are associated functions
/// so a backend is selected purely at the type level (see
/// [`NativeElement`]) and monomorphizes with no dynamic dispatch.
pub trait TileKernel<E: Element> {
    /// Stable instance name (matches [`Dispatch::label`]).
    const NAME: &'static str;

    /// Register-tile geometry of this instance.
    fn config() -> Config;

    /// True when this host can run the instance (runtime ISA
    /// detection; the scalar instance is always available).
    fn available() -> bool;

    /// Computes one or two output-row segments. `base` is the flat
    /// index of the first output element's center in `a`; `dst1`, when
    /// present, is the row directly below `dst0` (equal length).
    ///
    /// # Safety
    ///
    /// Caller must have verified [`TileKernel::available`] (the body
    /// may execute ISA extensions), and `a` must cover every tap read
    /// of both rows (the padded-grid halo contract).
    unsafe fn execute(
        taps: &Taps2<E>,
        a: &[E],
        base: isize,
        stride: isize,
        dst0: &mut [E],
        dst1: Option<&mut [E]>,
        pf: Prefetch,
    );

    /// The 3-D analogue of [`TileKernel::execute`] over `(dk, di, dj)`
    /// taps. The default is the canonical scalar chain; every SIMD
    /// instance runs the same canonical bodies as in 2-D.
    ///
    /// # Safety
    ///
    /// Same contract as [`TileKernel::execute`], with `a` covering the
    /// plane-neighbour reads too.
    unsafe fn execute3(
        taps: &Taps3<E>,
        a: &[E],
        base: isize,
        plane_stride: isize,
        stride: isize,
        dst0: &mut [E],
        dst1: Option<&mut [E]>,
    ) {
        let flat = &taps.chain.flat;
        kernel2d::scalar_row(flat, a, base, plane_stride, stride, dst0);
        if let Some(d1) = dst1 {
            kernel2d::scalar_row(flat, a, base + stride, plane_stride, stride, d1);
        }
    }

    /// Sweeps output rows `i_lo .. i_hi` of a band: `dst[0]` is element
    /// `(i_lo, 0)` of the output, rows `b_stride` apart, `a_org` the
    /// flat index of `(0, 0)` in `a`.
    ///
    /// The default driver reproduces the pre-trait band walk exactly:
    /// cache-sized column tiles (`tile::col_block`), and within a
    /// tile either single rows (`tile_m == 1`) or the split-borrow row
    /// pair walk (`tile_m >= 2`).
    #[allow(clippy::too_many_arguments)]
    fn sweep_band(
        taps: &Taps2<E>,
        a: &[E],
        a_org: isize,
        a_stride: isize,
        w: usize,
        dst: &mut [E],
        b_stride: usize,
        i_lo: usize,
        i_hi: usize,
    ) {
        assert!(
            Self::available(),
            "{} dispatch forced on a machine without it",
            Self::NAME
        );
        let pair_rows = Self::config().tile_m >= 2;
        let cb = tile::col_block(w, taps.rows_in_flight(), std::mem::size_of::<E>());
        let mut j0 = 0usize;
        while j0 < w {
            let jw = cb.min(w - j0);
            let pf = Prefetch::DEFAULT;
            let mut i = i_lo;
            while i < i_hi {
                let base = a_org + i as isize * a_stride + j0 as isize;
                let off = (i - i_lo) * b_stride + j0;
                if pair_rows && i + 1 < i_hi {
                    let (head, tail) = dst.split_at_mut(off + b_stride);
                    // SAFETY: availability asserted above; the slices
                    // cover both row segments of the pair.
                    unsafe {
                        Self::execute(
                            taps,
                            a,
                            base,
                            a_stride,
                            &mut head[off..off + jw],
                            Some(&mut tail[..jw]),
                            pf,
                        );
                    }
                    i += 2;
                } else {
                    // SAFETY: as above, single-row case.
                    unsafe {
                        Self::execute(taps, a, base, a_stride, &mut dst[off..off + jw], None, pf);
                    }
                    i += 1;
                }
            }
            j0 += jw;
        }
    }
}

/// An element type the native executor can drive end-to-end: names its
/// vector registers (working around the absence of specialization) and
/// compiles the canonical bodies once per dtype.
pub trait NativeElement: Element {
    /// This dtype's 256-bit (AVX2) vector register.
    #[cfg(target_arch = "x86_64")]
    #[doc(hidden)]
    type Ymm: Lane<E = Self>;
    /// This dtype's 512-bit (AVX-512) vector register.
    #[cfg(target_arch = "x86_64")]
    #[doc(hidden)]
    type Zmm: Lane<E = Self>;

    /// One canonical row pair (`dst1` present) or single row through
    /// the `isa` shim. Per-dtype so each canonical body is compiled
    /// once, in this crate, not once per crate that sweeps.
    ///
    /// # Safety
    ///
    /// The host must run `isa`, and `a` must cover every tap read of
    /// the rows (the padded-grid halo contract).
    #[cfg(target_arch = "x86_64")]
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    unsafe fn canonical_rows(
        isa: kernel2d::Simd,
        taps: &kernel2d::Chain<Self>,
        a: &[Self],
        base: isize,
        plane_stride: isize,
        stride: isize,
        dst0: &mut [Self],
        dst1: Option<&mut [Self]>,
        pf: Prefetch,
    );

    /// The process-wide arena of reusable temporal-executor scratch
    /// slots for this dtype — per-dtype storage for
    /// [`super::temporal`]'s allocation reuse, not a public API.
    #[doc(hidden)]
    fn temporal_arena() -> &'static std::sync::Mutex<Vec<super::temporal::Scratch<Self>>>;
}

impl NativeElement for f64 {
    #[cfg(target_arch = "x86_64")]
    type Ymm = std::arch::x86_64::__m256d;
    #[cfg(target_arch = "x86_64")]
    type Zmm = std::arch::x86_64::__m512d;

    #[cfg(target_arch = "x86_64")]
    unsafe fn canonical_rows(
        isa: kernel2d::Simd,
        taps: &kernel2d::Chain<Self>,
        a: &[Self],
        base: isize,
        plane_stride: isize,
        stride: isize,
        dst0: &mut [Self],
        dst1: Option<&mut [Self]>,
        pf: Prefetch,
    ) {
        kernel2d::canonical_rows::<Self::Ymm, Self::Zmm>(
            isa,
            taps,
            a,
            base,
            plane_stride,
            stride,
            dst0,
            dst1,
            pf,
        );
    }

    fn temporal_arena() -> &'static std::sync::Mutex<Vec<super::temporal::Scratch<Self>>> {
        static ARENA: std::sync::Mutex<Vec<super::temporal::Scratch<f64>>> =
            std::sync::Mutex::new(Vec::new());
        &ARENA
    }
}

impl NativeElement for f32 {
    #[cfg(target_arch = "x86_64")]
    type Ymm = std::arch::x86_64::__m256;
    #[cfg(target_arch = "x86_64")]
    type Zmm = std::arch::x86_64::__m512;

    #[cfg(target_arch = "x86_64")]
    unsafe fn canonical_rows(
        isa: kernel2d::Simd,
        taps: &kernel2d::Chain<Self>,
        a: &[Self],
        base: isize,
        plane_stride: isize,
        stride: isize,
        dst0: &mut [Self],
        dst1: Option<&mut [Self]>,
        pf: Prefetch,
    ) {
        kernel2d::canonical_rows::<Self::Ymm, Self::Zmm>(
            isa,
            taps,
            a,
            base,
            plane_stride,
            stride,
            dst0,
            dst1,
            pf,
        );
    }

    fn temporal_arena() -> &'static std::sync::Mutex<Vec<super::temporal::Scratch<Self>>> {
        static ARENA: std::sync::Mutex<Vec<super::temporal::Scratch<f32>>> =
            std::sync::Mutex::new(Vec::new());
        &ARENA
    }
}

/// The canonical scalar-chain instance (every dtype, every host).
#[derive(Clone, Copy, Debug)]
pub struct ScalarTile;

/// The AVX2+FMA register-pair instance (2 output rows per step).
#[derive(Clone, Copy, Debug)]
pub struct Avx2Tile;

/// The AVX-512F register-pair instance (double the AVX2 lane count;
/// runtime-detected, and the default wherever the host has `avx512f`).
#[derive(Clone, Copy, Debug)]
pub struct Avx512Tile;

impl<E: Element> TileKernel<E> for ScalarTile {
    const NAME: &'static str = "scalar";

    fn config() -> Config {
        Config { tile_m: 1 }
    }

    fn available() -> bool {
        true
    }

    unsafe fn execute(
        taps: &Taps2<E>,
        a: &[E],
        base: isize,
        stride: isize,
        dst0: &mut [E],
        dst1: Option<&mut [E]>,
        _pf: Prefetch,
    ) {
        let flat = &taps.chain.flat;
        kernel2d::scalar_row(flat, a, base, 0, stride, dst0);
        if let Some(d1) = dst1 {
            kernel2d::scalar_row(flat, a, base + stride, 0, stride, d1);
        }
    }
}

/// The 2-D tables sit at plane offset `dk = 0`, so 2-D calls pass plane
/// stride 0 and keep their prefetch hints; 3-D calls pass
/// [`Prefetch::OFF`].
#[cfg(target_arch = "x86_64")]
impl<E: NativeElement> TileKernel<E> for Avx2Tile {
    const NAME: &'static str = "avx2+fma";

    fn config() -> Config {
        Config { tile_m: 2 }
    }

    fn available() -> bool {
        Dispatch::avx2_available()
    }

    unsafe fn execute(
        taps: &Taps2<E>,
        a: &[E],
        base: isize,
        stride: isize,
        dst0: &mut [E],
        dst1: Option<&mut [E]>,
        pf: Prefetch,
    ) {
        E::canonical_rows(Simd::Avx2, &taps.chain, a, base, 0, stride, dst0, dst1, pf);
    }

    unsafe fn execute3(
        taps: &Taps3<E>,
        a: &[E],
        base: isize,
        plane_stride: isize,
        stride: isize,
        dst0: &mut [E],
        dst1: Option<&mut [E]>,
    ) {
        let (chain, pf) = (&taps.chain, Prefetch::OFF);
        E::canonical_rows(
            Simd::Avx2,
            chain,
            a,
            base,
            plane_stride,
            stride,
            dst0,
            dst1,
            pf,
        );
    }
}

/// As the [`Avx2Tile`] impl, at the 512-bit registers.
#[cfg(target_arch = "x86_64")]
impl<E: NativeElement> TileKernel<E> for Avx512Tile {
    const NAME: &'static str = "avx512";

    fn config() -> Config {
        Config { tile_m: 2 }
    }

    fn available() -> bool {
        Dispatch::avx512_available()
    }

    unsafe fn execute(
        taps: &Taps2<E>,
        a: &[E],
        base: isize,
        stride: isize,
        dst0: &mut [E],
        dst1: Option<&mut [E]>,
        pf: Prefetch,
    ) {
        E::canonical_rows(
            Simd::Avx512,
            &taps.chain,
            a,
            base,
            0,
            stride,
            dst0,
            dst1,
            pf,
        );
    }

    unsafe fn execute3(
        taps: &Taps3<E>,
        a: &[E],
        base: isize,
        plane_stride: isize,
        stride: isize,
        dst0: &mut [E],
        dst1: Option<&mut [E]>,
    ) {
        let (chain, pf) = (&taps.chain, Prefetch::OFF);
        E::canonical_rows(
            Simd::Avx512,
            chain,
            a,
            base,
            plane_stride,
            stride,
            dst0,
            dst1,
            pf,
        );
    }
}

/// Off x86-64 the SIMD instances delegate to the scalar chain (still
/// bit-identical) and report themselves unavailable, mirroring how
/// `Dispatch::avx2_available()` gates dispatch there.
#[cfg(not(target_arch = "x86_64"))]
impl<E: Element> TileKernel<E> for Avx2Tile {
    const NAME: &'static str = "avx2+fma";

    fn config() -> Config {
        <ScalarTile as TileKernel<E>>::config()
    }

    fn available() -> bool {
        false
    }

    unsafe fn execute(
        taps: &Taps2<E>,
        a: &[E],
        base: isize,
        stride: isize,
        dst0: &mut [E],
        dst1: Option<&mut [E]>,
        pf: Prefetch,
    ) {
        <ScalarTile as TileKernel<E>>::execute(taps, a, base, stride, dst0, dst1, pf);
    }
}

/// See the non-x86 [`Avx2Tile`] impl: unavailable, scalar-delegating.
#[cfg(not(target_arch = "x86_64"))]
impl<E: Element> TileKernel<E> for Avx512Tile {
    const NAME: &'static str = "avx512";

    fn config() -> Config {
        <ScalarTile as TileKernel<E>>::config()
    }

    fn available() -> bool {
        false
    }

    unsafe fn execute(
        taps: &Taps2<E>,
        a: &[E],
        base: isize,
        stride: isize,
        dst0: &mut [E],
        dst1: Option<&mut [E]>,
        pf: Prefetch,
    ) {
        <ScalarTile as TileKernel<E>>::execute(taps, a, base, stride, dst0, dst1, pf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_describe_the_register_tiles() {
        fn rows<K: TileKernel<f64> + TileKernel<f32>>() -> (usize, usize) {
            (
                <K as TileKernel<f64>>::config().tile_m,
                <K as TileKernel<f32>>::config().tile_m,
            )
        }
        assert_eq!(rows::<ScalarTile>(), (1, 1));
        #[cfg(target_arch = "x86_64")]
        {
            // Both SIMD instances register-block output row pairs.
            assert_eq!(rows::<Avx2Tile>(), (2, 2));
            assert_eq!(rows::<Avx512Tile>(), (2, 2));
        }
    }

    #[test]
    fn scalar_is_always_available_and_named() {
        assert!(<ScalarTile as TileKernel<f64>>::available());
        assert!(<ScalarTile as TileKernel<f32>>::available());
        assert_eq!(<ScalarTile as TileKernel<f64>>::NAME, "scalar");
        assert_eq!(<Avx512Tile as TileKernel<f64>>::NAME, "avx512");
    }
}
