//! The backend-generic register-tile kernel interface.
//!
//! The paper's central claim (HStencil §3) is that the interleaved
//! outer-product + MLA schedule maps onto *any* wide-vector engine; this
//! module is that claim as a Rust trait. [`TileKernel`] abstracts "sweep
//! a register tile of output rows over preprocessed taps", and each
//! (ISA × element type) backend is one instance:
//!
//! | instance      | `f64`                | `f32`                 |
//! |---------------|----------------------|-----------------------|
//! | [`ScalarTile`]| canonical FMA chain  | canonical FMA chain   |
//! | [`Avx2Tile`]  | 2×8 cols, 4-lane ymm | 2×16 cols, 8-lane ymm |
//! | [`Avx512Tile`]| 2×16 cols, 8-lane zmm| 2×32 cols, 16-lane zmm|
//! | [`HybridTile`]| 8×8 Algorithm-2 tile | scalar chain + staged NT |
//!
//! # The bit-identity contract
//!
//! Every instance computes each output element as the *same* fused
//! multiply-add chain over the nonzero taps in canonical `(di, dj)`
//! ascending order starting from zero. `_mm256_fmadd_pd`,
//! `_mm512_fmadd_pd` and `f64::mul_add` (and their `f32` counterparts)
//! all round once per step, so within one element type every
//! non-hybrid instance is **bit-identical** to the scalar chain
//! regardless of vector width — dispatch can change speed, never
//! results. The hybrid instance reassociates (vertical rank-1 + folded
//! inner partial) and is ULP-bounded instead, exactly as before the
//! trait existed.
//!
//! # Why associated kernel types instead of `impl<E> TileKernel<E>`
//!
//! Stable Rust has no specialization, so one generic impl per backend
//! could not give `f64` and `f32` different intrinsic bodies.
//! [`NativeElement`] names the four backend instances per element type
//! (`KScalar`/`KAvx2`/`KAvx512`/`KHybrid`);
//! generic drivers pick an instance through those associated types and
//! monomorphize to exactly the hand-written code that existed before
//! the refactor.

use super::kernel2d;
use super::kernel3d;
use super::prefetch::Prefetch;
use super::{hybrid, tile, Dispatch};
use crate::element::Element;

pub use super::kernel2d::Taps2;
pub use super::kernel3d::Taps3;

/// Register-tile geometry of one [`TileKernel`] instance, in elements:
/// output rows per `execute` step (`tile_m`), vector lanes per
/// accumulator (`tile_n`) and accumulators per output row (`unroll`).
///
/// `tile_m >= 2` is the signal the generic band driver uses to walk
/// output rows in pairs (the register-blocking reuse the paper's
/// Algorithm 2 relies on); the other two fields are diagnostic — they
/// describe the instance's main-loop shape for tooling and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Config {
    /// Output rows computed per `execute` step.
    pub tile_m: usize,
    /// Vector lanes per accumulator register.
    pub tile_n: usize,
    /// Accumulator registers per output row in the main loop.
    pub unroll: usize,
}

/// One register-tile kernel backend for element type `E`.
///
/// Instances are zero-sized types; all methods are associated functions
/// so a backend is selected purely at the type level (see
/// [`NativeElement`]) and monomorphizes with no dynamic dispatch.
pub trait TileKernel<E: Element> {
    /// The accumulator register type of the main loop (`__m256d`,
    /// `__m512`, or `E` itself for the scalar chain). Diagnostic: it
    /// documents what the instance keeps live across the tap chain.
    type Acc: Copy;

    /// Stable instance name (matches [`Dispatch::label`] where a
    /// dispatch exists, and the `HSTENCIL_KERNEL` spellings).
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
    /// taps. The default is the canonical scalar chain — bit-identical
    /// to every SIMD body by the module contract — so 2-D-only
    /// instances (AVX-512, which `Dispatch::narrow_3d` maps away
    /// anyway) need not provide one.
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
        let _ = plane_stride;
        kernel3d::scalar_row3(taps, a, base, plane_stride, stride, dst0);
        if let Some(d1) = dst1 {
            kernel3d::scalar_row3(taps, a, base + stride, plane_stride, stride, d1);
        }
    }

    /// Sweeps output rows `i_lo .. i_hi` of a band: `dst[0]` is element
    /// `(i_lo, 0)` of the output, rows `b_stride` apart, `a_org` the
    /// flat index of `(0, 0)` in `a`. `lanes` is the number of pool
    /// lanes sweeping sibling bands (feeds store policy only; can
    /// never change results).
    ///
    /// The default driver reproduces the pre-trait band walk exactly:
    /// cache-sized column tiles (`tile::col_block`), and within a
    /// tile either single rows (`tile_m == 1`) or the split-borrow row
    /// pair walk (`tile_m >= 2`). The hybrid instance overrides this
    /// wholesale — its 8-row schedule owns its own tiling and store
    /// policy.
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
        lanes: usize,
    ) {
        let _ = lanes; // only the hybrid store policy is lane-aware
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
            let pf = Prefetch::config();
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

/// An element type the native executor can drive end-to-end: names the
/// four backend instances (working around the absence of
/// specialization) and provides the non-temporal store primitive the
/// generic staged-NT drain is built on.
pub trait NativeElement: Element {
    /// The always-available canonical-chain instance.
    type KScalar: TileKernel<Self>;
    /// The AVX2+FMA instance (scalar-delegating off x86-64).
    type KAvx2: TileKernel<Self>;
    /// The AVX-512F instance (scalar-delegating off x86-64).
    type KAvx512: TileKernel<Self>;
    /// The hybrid 8-row Algorithm-2 instance.
    type KHybrid: TileKernel<Self>;

    /// Streams `n` elements from `src` to 32-byte-aligned `dst` with
    /// non-temporal stores (`n * size_of::<Self>()` must be a multiple
    /// of 32). The per-dtype primitive under the generic staged-NT
    /// drain (`super::hybrid`).
    ///
    /// # Safety
    ///
    /// `dst` must be 32-byte aligned, both ranges valid for `n`
    /// elements, and the host must support AVX (implied by the AVX2
    /// gate on every staged path).
    #[cfg(target_arch = "x86_64")]
    unsafe fn stream_chunk(dst: *mut Self, src: *const Self, n: usize);

    /// One tempvec row at the given (effective) ISA body — per-dtype
    /// plumbing for [`super::tempvec`], not a public API.
    ///
    /// # Safety
    ///
    /// `isa` must be runnable on this host, every `srows[d] + x` must
    /// be readable for `x < n_read`, and `dst + x` writable for
    /// `x < n` (see `tempvec::wave_row`).
    #[doc(hidden)]
    unsafe fn tv_wave_row(
        isa: super::tempvec::TvIsa,
        single: &[Vec<(isize, Self)>],
        r: isize,
        srows: &[*const Self],
        n: usize,
        n_read: usize,
        dst: *mut Self,
    );

    /// The process-wide arena of reusable temporal-executor scratch
    /// slots for this dtype — per-dtype storage for
    /// [`super::temporal`]'s allocation reuse, not a public API.
    #[doc(hidden)]
    fn temporal_arena() -> &'static std::sync::Mutex<Vec<super::temporal::Scratch<Self>>>;
}

impl NativeElement for f64 {
    type KScalar = ScalarTile;
    type KAvx2 = Avx2Tile;
    type KAvx512 = Avx512Tile;
    type KHybrid = HybridTile;

    #[cfg(target_arch = "x86_64")]
    unsafe fn stream_chunk(dst: *mut Self, src: *const Self, n: usize) {
        stream_chunk_pd(dst, src, n);
    }

    unsafe fn tv_wave_row(
        isa: super::tempvec::TvIsa,
        single: &[Vec<(isize, Self)>],
        r: isize,
        srows: &[*const Self],
        n: usize,
        n_read: usize,
        dst: *mut Self,
    ) {
        super::tempvec::wave_row_f64(isa, single, r, srows, n, n_read, dst);
    }

    fn temporal_arena() -> &'static std::sync::Mutex<Vec<super::temporal::Scratch<Self>>> {
        static ARENA: std::sync::Mutex<Vec<super::temporal::Scratch<f64>>> =
            std::sync::Mutex::new(Vec::new());
        &ARENA
    }
}

impl NativeElement for f32 {
    type KScalar = ScalarTile;
    type KAvx2 = Avx2Tile;
    type KAvx512 = Avx512Tile;
    type KHybrid = HybridTile;

    #[cfg(target_arch = "x86_64")]
    unsafe fn stream_chunk(dst: *mut Self, src: *const Self, n: usize) {
        stream_chunk_ps(dst, src, n);
    }

    unsafe fn tv_wave_row(
        isa: super::tempvec::TvIsa,
        single: &[Vec<(isize, Self)>],
        r: isize,
        srows: &[*const Self],
        n: usize,
        n_read: usize,
        dst: *mut Self,
    ) {
        super::tempvec::wave_row_f32(isa, single, r, srows, n, n_read, dst);
    }

    fn temporal_arena() -> &'static std::sync::Mutex<Vec<super::temporal::Scratch<Self>>> {
        static ARENA: std::sync::Mutex<Vec<super::temporal::Scratch<f32>>> =
            std::sync::Mutex::new(Vec::new());
        &ARENA
    }
}

/// # Safety
/// `dst` 32-byte aligned, `n` a multiple of 4, both ranges valid.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn stream_chunk_pd(dst: *mut f64, src: *const f64, n: usize) {
    use std::arch::x86_64::*;
    let mut i = 0usize;
    while i + 4 <= n {
        _mm256_stream_pd(dst.add(i), _mm256_loadu_pd(src.add(i)));
        i += 4;
    }
    debug_assert_eq!(i, n);
}

/// # Safety
/// `dst` 32-byte aligned, `n` a multiple of 8, both ranges valid.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn stream_chunk_ps(dst: *mut f32, src: *const f32, n: usize) {
    use std::arch::x86_64::*;
    let mut i = 0usize;
    while i + 8 <= n {
        _mm256_stream_ps(dst.add(i), _mm256_loadu_ps(src.add(i)));
        i += 8;
    }
    debug_assert_eq!(i, n);
}

/// The canonical scalar-chain instance (every dtype, every host).
#[derive(Clone, Copy, Debug)]
pub struct ScalarTile;

/// The AVX2+FMA register-pair instance (2 output rows per step).
#[derive(Clone, Copy, Debug)]
pub struct Avx2Tile;

/// The AVX-512F register-pair instance (double the AVX2 lane count;
/// runtime-detected, never chosen by auto-heuristics — reach it via
/// `HSTENCIL_KERNEL=avx512`, the tuner, or explicit dispatch).
#[derive(Clone, Copy, Debug)]
pub struct Avx512Tile;

/// The hybrid 8-row Algorithm-2 instance (vertical rank-1 broadcast-FMA
/// interleaved with inner-tap vector MLA, staged NT stores on streaming
/// bands).
#[derive(Clone, Copy, Debug)]
pub struct HybridTile;

impl<E: Element> TileKernel<E> for ScalarTile {
    type Acc = E;
    const NAME: &'static str = "scalar";

    fn config() -> Config {
        Config {
            tile_m: 1,
            tile_n: 1,
            unroll: 1,
        }
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
        kernel2d::scalar_row(&taps.flat, a, base, stride, dst0);
        if let Some(d1) = dst1 {
            kernel2d::scalar_row(&taps.flat, a, base + stride, stride, d1);
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl TileKernel<f64> for Avx2Tile {
    type Acc = std::arch::x86_64::__m256d;
    const NAME: &'static str = "avx2+fma";

    fn config() -> Config {
        Config {
            tile_m: 2,
            tile_n: 4,
            unroll: 2,
        }
    }

    fn available() -> bool {
        Dispatch::avx2_available()
    }

    unsafe fn execute(
        taps: &Taps2<f64>,
        a: &[f64],
        base: isize,
        stride: isize,
        dst0: &mut [f64],
        dst1: Option<&mut [f64]>,
        pf: Prefetch,
    ) {
        match dst1 {
            Some(d1) => kernel2d::avx2::row_pair(taps, a, base, stride, dst0, d1, pf),
            None => kernel2d::avx2::row_single(taps, a, base, stride, dst0, pf),
        }
    }

    unsafe fn execute3(
        taps: &Taps3<f64>,
        a: &[f64],
        base: isize,
        plane_stride: isize,
        stride: isize,
        dst0: &mut [f64],
        dst1: Option<&mut [f64]>,
    ) {
        match dst1 {
            Some(d1) => kernel3d::avx2::row_pair(taps, a, base, plane_stride, stride, dst0, d1),
            None => kernel3d::avx2::row_single(taps, a, base, plane_stride, stride, dst0),
        }
    }
}

#[cfg(target_arch = "x86_64")]
impl TileKernel<f32> for Avx2Tile {
    type Acc = std::arch::x86_64::__m256;
    const NAME: &'static str = "avx2+fma";

    fn config() -> Config {
        Config {
            tile_m: 2,
            tile_n: 8,
            unroll: 2,
        }
    }

    fn available() -> bool {
        Dispatch::avx2_available()
    }

    unsafe fn execute(
        taps: &Taps2<f32>,
        a: &[f32],
        base: isize,
        stride: isize,
        dst0: &mut [f32],
        dst1: Option<&mut [f32]>,
        pf: Prefetch,
    ) {
        match dst1 {
            Some(d1) => kernel2d::avx2::row_pair_f32(taps, a, base, stride, dst0, d1, pf),
            None => kernel2d::avx2::row_single_f32(taps, a, base, stride, dst0, pf),
        }
    }

    // execute3: scalar-chain default (bit-identical). The 3-D f32 path
    // has no bespoke SIMD body yet; DESIGN.md §12 records the gap.
}

#[cfg(target_arch = "x86_64")]
impl TileKernel<f64> for Avx512Tile {
    type Acc = std::arch::x86_64::__m512d;
    const NAME: &'static str = "avx512";

    fn config() -> Config {
        Config {
            tile_m: 2,
            tile_n: 8,
            unroll: 2,
        }
    }

    fn available() -> bool {
        Dispatch::avx512_available()
    }

    unsafe fn execute(
        taps: &Taps2<f64>,
        a: &[f64],
        base: isize,
        stride: isize,
        dst0: &mut [f64],
        dst1: Option<&mut [f64]>,
        pf: Prefetch,
    ) {
        match dst1 {
            Some(d1) => kernel2d::avx512::row_pair_f64(taps, a, base, stride, dst0, d1, pf),
            None => kernel2d::avx512::row_single_f64(taps, a, base, stride, dst0, pf),
        }
    }

    // execute3: scalar-chain default — AVX-512 is a 2-D instance and
    // Dispatch::narrow_3d maps it away before any 3-D sweep.
}

#[cfg(target_arch = "x86_64")]
impl TileKernel<f32> for Avx512Tile {
    type Acc = std::arch::x86_64::__m512;
    const NAME: &'static str = "avx512";

    fn config() -> Config {
        Config {
            tile_m: 2,
            tile_n: 16,
            unroll: 2,
        }
    }

    fn available() -> bool {
        Dispatch::avx512_available()
    }

    unsafe fn execute(
        taps: &Taps2<f32>,
        a: &[f32],
        base: isize,
        stride: isize,
        dst0: &mut [f32],
        dst1: Option<&mut [f32]>,
        pf: Prefetch,
    ) {
        match dst1 {
            Some(d1) => kernel2d::avx512::row_pair_f32(taps, a, base, stride, dst0, d1, pf),
            None => kernel2d::avx512::row_single_f32(taps, a, base, stride, dst0, pf),
        }
    }
}

/// Off x86-64 the SIMD instances delegate to the scalar chain (still
/// bit-identical) and report themselves unavailable, mirroring how
/// `Dispatch::avx2_available()` gates dispatch there.
#[cfg(not(target_arch = "x86_64"))]
impl<E: Element> TileKernel<E> for Avx2Tile {
    type Acc = E;
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
    type Acc = E;
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

impl TileKernel<f64> for HybridTile {
    type Acc = f64; // 16 ymm accumulators on x86; Acc documents one lane group
    const NAME: &'static str = "hybrid8x8";

    fn config() -> Config {
        Config {
            tile_m: 8,
            tile_n: 4,
            unroll: 2,
        }
    }

    fn available() -> bool {
        true // scalar-chain fallback inside sweep_band_hybrid
    }

    unsafe fn execute(
        taps: &Taps2<f64>,
        a: &[f64],
        base: isize,
        stride: isize,
        dst0: &mut [f64],
        dst1: Option<&mut [f64]>,
        _pf: Prefetch,
    ) {
        hybrid::scalar_row_hybrid(&taps.hybrid, a, base, stride, dst0);
        if let Some(d1) = dst1 {
            hybrid::scalar_row_hybrid(&taps.hybrid, a, base + stride, stride, d1);
        }
    }

    fn sweep_band(
        taps: &Taps2<f64>,
        a: &[f64],
        a_org: isize,
        a_stride: isize,
        w: usize,
        dst: &mut [f64],
        b_stride: usize,
        i_lo: usize,
        i_hi: usize,
        lanes: usize,
    ) {
        // The hybrid schedule owns its own column tiling (its
        // rows-in-flight differ), accumulation order and store policy.
        hybrid::sweep_band_hybrid(
            &taps.hybrid,
            a,
            a_org,
            a_stride,
            w,
            dst,
            b_stride,
            i_lo,
            i_hi,
            lanes,
        );
    }
}

impl TileKernel<f32> for HybridTile {
    type Acc = f32;
    const NAME: &'static str = "hybrid8x8";

    fn config() -> Config {
        Config {
            tile_m: 8,
            tile_n: 1,
            unroll: 1,
        }
    }

    fn available() -> bool {
        true
    }

    unsafe fn execute(
        taps: &Taps2<f32>,
        a: &[f32],
        base: isize,
        stride: isize,
        dst0: &mut [f32],
        dst1: Option<&mut [f32]>,
        _pf: Prefetch,
    ) {
        hybrid::scalar_row_hybrid(&taps.hybrid, a, base, stride, dst0);
        if let Some(d1) = dst1 {
            hybrid::scalar_row_hybrid(&taps.hybrid, a, base + stride, stride, d1);
        }
    }

    fn sweep_band(
        taps: &Taps2<f32>,
        a: &[f32],
        a_org: isize,
        a_stride: isize,
        w: usize,
        dst: &mut [f32],
        b_stride: usize,
        i_lo: usize,
        i_hi: usize,
        lanes: usize,
    ) {
        // f32 has no vectorized 8x8 body yet: the hybrid *schedule*
        // (scalar chain + the generic staged-NT drain) still runs, so
        // the store-policy machinery is exercised over E = f32.
        hybrid::sweep_band_hybrid_staged::<f32>(
            &taps.hybrid,
            a,
            a_org,
            a_stride,
            w,
            dst,
            b_stride,
            i_lo,
            i_hi,
            lanes,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn configs_describe_the_register_tiles() {
        assert_eq!(<ScalarTile as TileKernel<f64>>::config().tile_m, 1);
        assert_eq!(<HybridTile as TileKernel<f64>>::config().tile_m, 8);
        #[cfg(target_arch = "x86_64")]
        {
            // f32 doubles lanes at equal register width.
            let a2_64 = <Avx2Tile as TileKernel<f64>>::config();
            let a2_32 = <Avx2Tile as TileKernel<f32>>::config();
            assert_eq!(a2_32.tile_n, 2 * a2_64.tile_n);
            let a5_64 = <Avx512Tile as TileKernel<f64>>::config();
            let a5_32 = <Avx512Tile as TileKernel<f32>>::config();
            assert_eq!(a5_64.tile_n, 2 * a2_64.tile_n);
            assert_eq!(a5_32.tile_n, 2 * a2_32.tile_n);
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
