//! Hybrid 8×8 register-tile micro-kernel — the native x86 port of the
//! paper's Algorithm 2 (interleaved outer product + MLA with in-place
//! accumulation and store scattering, §3.2 / Figure 8).
//!
//! # Schedule
//!
//! One call computes an 8-row × 8-column f64 output tile held entirely
//! in sixteen ymm accumulators (two 4-lane vectors per output row).
//! The kernel sweeps the `8 + 2r` contributing input rows top to
//! bottom, one row per *step*:
//!
//! 1. **Outer-axis rank-1 update** — the freshly loaded input row
//!    vector pair is broadcast-FMA'd into every accumulator row it
//!    touches: input row `i0 + s - r` is tap `di = s - k - r` of output
//!    row `i0 + k`, so step `s` updates output rows
//!    `max(s-2r, 0) ..= min(s, 7)`. Each input row is loaded **once**
//!    for all vertical taps of all eight output rows — the outer-product
//!    analogue of the paper's matrix half.
//! 2. **Inner-axis MLA** — when step `s >= 2r`, output row `k = s - 2r`
//!    has just consumed its last contributing input row (`i0 + k + r`).
//!    Its horizontal (`dj != 0`) taps are applied as shifted unaligned
//!    vector loads FMA'd into a separate vector partial sum, exactly
//!    the paper's vector-unit MLA half.
//! 3. **In-place accumulation fold** — the partial sum folds into the
//!    resident accumulator with a single `fma(1.0, partial, acc)`; the
//!    tile never round-trips through memory between the two halves.
//! 4. **Store scattering** — the folded row is stored immediately and
//!    its accumulators are dead from then on; rows retire one step
//!    apart instead of all at once at the end. On cache-resident bands
//!    the store is a plain `storeu` straight into the destination. On
//!    streaming bands (working set past [`STAGE_MIN_BAND_BYTES`]) rows
//!    retire into one of two ping-pong staging buffers while the
//!    previous group's buffer drains to the destination through
//!    sequential non-temporal stores interleaved into the current
//!    group's compute ([`avx2::Drain`]), halving the DRAM store traffic
//!    (no read-for-ownership on the destination). Scattering NT stores
//!    *directly* from the register tile — eight interleaved row
//!    streams — thrashes the write-combining buffers and is ~10×
//!    slower on the recorded bench host; one open NT stream at a time
//!    is the shape WC hardware likes. The staging decision is
//!    **lane-aware** ([`staged_store_policy`]): each concurrent band
//!    adds its own NT stream, and past [`MAX_NT_LANES`] streams the
//!    DRAM-bus collision outweighs the saved read-for-ownership, so
//!    saturated sweeps fall back to plain stores per band.
//!    `HSTENCIL_NT=direct|staged` pins the choice; each staging lane
//!    fences its own stores once per band before the pool barrier.
//!
//! # Element genericity
//!
//! The tap split ([`TapsHybrid`]) and the scalar hybrid chain
//! ([`scalar_point_hybrid`]) are generic over
//! [`Element`](crate::element::Element); coefficients are narrowed from
//! the f64 master spec once at construction. The AVX2 register tile
//! ([`sweep_band_hybrid`]) stays f64-only — it is the hand-tuned bench
//! kernel and its body is untouched by the trait refactor. Other
//! element types run [`sweep_band_hybrid_staged`]: the same schedule
//! and accumulation order computed by the scalar chain, with completed
//! row groups retired through a generic staged NT drain
//! ([`stage::Drain`]) under the same lane-aware policy.
//!
//! # Accumulation order (the hybrid chain)
//!
//! Every hybrid code path — the AVX2 tile, the column-tail scalar loop,
//! partial row groups shorter than 8, and the non-x86 fallback —
//! computes the *same* chain per element ([`scalar_point_hybrid`]):
//! vertical taps in `di`-ascending order into `acc`, inner taps in
//! `(di, dj)`-ascending order into `part` from `0.0`, then
//! `fma(1.0, part, acc)`. `_mm256_fmadd_pd` and `f64::mul_add` both
//! round once per step, so the vector and scalar hybrid paths are
//! **bit-identical** to each other and the kernel is invariant to band,
//! tile and thread decomposition by construction.
//!
//! The hybrid chain differs from the canonical `(di, dj)`-ascending
//! chain of [`super::kernel2d`] (it reassociates the sum), so results
//! are ULP-bounded — not bit-exact — against [`Dispatch::Scalar`] /
//! [`Dispatch::Avx2Fma`]; the conformance registry checks it under the
//! differential ULP oracle like the simulated methods.
//!
//! [`Dispatch::Scalar`]: super::Dispatch::Scalar
//! [`Dispatch::Avx2Fma`]: super::Dispatch::Avx2Fma

use super::tile;
use crate::element::Element;
use crate::stencil::StencilSpec;
use std::sync::OnceLock;

/// Radii with a monomorphized AVX2 tile body; larger radii take the
/// scalar hybrid chain (bit-identical, just slower).
pub(crate) const MAX_VECTOR_RADIUS: usize = 4;

/// Taps of a 2-D stencil split the way Algorithm 2 consumes them:
/// outer-axis (vertical, `dj == 0`) coefficients for the rank-1
/// updates, inner-axis (`dj != 0`) taps for the vector MLA partial.
/// Coefficients are narrowed from the f64 master spec once here, so
/// every downstream path of one element type sees identical constants.
pub(crate) struct TapsHybrid<E: Element> {
    /// Radius.
    pub r: isize,
    /// `vert[di + r]` is the coefficient at `(di, 0)`; zeros are
    /// skipped by both paths.
    pub vert: Vec<E>,
    /// `(di, dj, c)` taps with `dj != 0`, `(di, dj)` ascending, nonzero
    /// only (filtered on the f64 master coefficient, before narrowing).
    pub inner: Vec<(isize, isize, E)>,
}

impl<E: Element> TapsHybrid<E> {
    pub fn new(spec: &StencilSpec) -> TapsHybrid<E> {
        assert_eq!(spec.dims(), 2);
        let r = spec.radius() as isize;
        let vert = (-r..=r).map(|di| E::from_f64(spec.c2(di, 0))).collect();
        let mut inner = Vec::new();
        for di in -r..=r {
            for dj in -r..=r {
                let c = spec.c2(di, dj);
                if dj != 0 && c != 0.0 {
                    inner.push((di, dj, E::from_f64(c)));
                }
            }
        }
        TapsHybrid { r, vert, inner }
    }

    /// Grid rows that must stay cache-resident while a column tile
    /// streams. The 8 output rows live in registers, so this is only
    /// the input-row reuse window — a row loaded for the rank-1 update
    /// is re-read by the inner MLA of the rows retiring within the next
    /// `2r` steps — plus one output row in the store stream.
    pub fn reuse_rows(&self) -> usize {
        2 * self.r as usize + 2
    }
}

/// The hybrid chain for one element — the bit-identity contract every
/// hybrid code path computes (see module docs).
#[inline]
pub(crate) fn scalar_point_hybrid<E: Element>(
    taps: &TapsHybrid<E>,
    a: &[E],
    base: isize,
    stride: isize,
) -> E {
    let r = taps.r;
    let mut acc = E::ZERO;
    for (t, &c) in taps.vert.iter().enumerate() {
        if c.to_f64() != 0.0 {
            acc = c.mul_add(a[(base + (t as isize - r) * stride) as usize], acc);
        }
    }
    let mut part = E::ZERO;
    for &(di, dj, c) in &taps.inner {
        part = c.mul_add(a[(base + di * stride + dj) as usize], part);
    }
    E::ONE.mul_add(part, acc)
}

/// One output row of the hybrid chain — the row body behind
/// `HybridTile::execute` in [`super::kernel`].
#[inline]
pub(crate) fn scalar_row_hybrid<E: Element>(
    taps: &TapsHybrid<E>,
    a: &[E],
    base: isize,
    stride: isize,
    dst: &mut [E],
) {
    for (j, d) in dst.iter_mut().enumerate() {
        *d = scalar_point_hybrid(taps, a, base + j as isize, stride);
    }
}

/// Band working set (input + output bytes) above which the AVX2 path
/// retires rows into an L2 staging buffer and streams each completed
/// row to `dst` with sequential non-temporal stores. Streaming the
/// copy halves the DRAM store traffic (no read-for-ownership on
/// `dst`); one sequential NT stream per row is the shape this host's
/// write-combining buffers like — scattering NT stores across the
/// eight open rows of a register tile is ~10× *slower* (see the module
/// docs). Matches the autotuner's resident/streaming boundary so
/// cache-resident bands keep plain stores and stay warm for the next
/// sweep.
const STAGE_MIN_BAND_BYTES: usize = 4 << 20;

/// Concurrent lanes beyond which the auto store policy abandons staged
/// NT stores. Each lane's drain keeps one open sequential
/// write-combining stream; up to two streams the memory controller
/// services them as long bursts, but past that the interleaved NT
/// traffic from sibling bands collides on the DRAM bus badly enough
/// that plain (allocating) stores win back the read-for-ownership cost
/// — DESIGN.md §10's contention caveat turned into a measured policy.
const MAX_NT_LANES: usize = 2;

/// Non-temporal store policy for streaming hybrid bands
/// (`HSTENCIL_NT`): `auto` (default) stages when the band working set
/// is streaming-sized *and* at most [`MAX_NT_LANES`] lanes run
/// concurrently; `direct` / `staged` pin the path either way. Like
/// `HSTENCIL_DISPATCH`, the policy only moves stores — both paths
/// retire bit-identical values.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum NtPolicy {
    /// Band-size and lane-count aware heuristic (the default).
    Auto,
    /// Always plain stores, never a staging buffer.
    Direct,
    /// Always stage + NT-drain (when the vector tile runs at all).
    Staged,
}

impl NtPolicy {
    /// Parses an `HSTENCIL_NT` value; `None` means "keep auto".
    pub(crate) fn from_env_str(v: &str) -> Option<NtPolicy> {
        match v.trim().to_ascii_lowercase().as_str() {
            "direct" => Some(NtPolicy::Direct),
            "staged" => Some(NtPolicy::Staged),
            _ => None,
        }
    }

    /// [`NtPolicy::from_env_str`] plus a warning for values that are
    /// neither a known policy nor the explicit `auto`/empty spellings —
    /// same convention as `HSTENCIL_DISPATCH`/`HSTENCIL_PREFETCH`.
    pub(crate) fn from_env_str_warn(v: &str) -> (Option<NtPolicy>, Option<String>) {
        let parsed = NtPolicy::from_env_str(v);
        if parsed.is_some() {
            return (parsed, None);
        }
        let warn = match v.trim().to_ascii_lowercase().as_str() {
            "" | "auto" => None,
            _ => Some(format!(
                "hstencil: ignoring malformed HSTENCIL_NT={v:?} \
                 (expected auto|direct|staged); using the lane-aware auto policy"
            )),
        };
        (None, warn)
    }

    /// The process-wide `HSTENCIL_NT` override (env read once through
    /// [`super::env::cached`]; malformed values warn on stderr once and
    /// keep the auto policy).
    fn env_override() -> Option<NtPolicy> {
        static OVERRIDE: OnceLock<Option<NtPolicy>> = OnceLock::new();
        super::env::cached(&OVERRIDE, "HSTENCIL_NT", |v| {
            NtPolicy::from_env_str_warn(v.unwrap_or(""))
        })
    }
}

/// Whether a band of `band_bytes` working set swept by one of `lanes`
/// concurrent lanes should retire rows through the staged NT drain
/// under `policy` (`None` = auto). Pure so the policy table is unit
/// testable without touching the environment.
pub(crate) fn staged_store_policy(
    policy: Option<NtPolicy>,
    lanes: usize,
    band_bytes: usize,
) -> bool {
    match policy.unwrap_or(NtPolicy::Auto) {
        NtPolicy::Direct => false,
        NtPolicy::Staged => true,
        NtPolicy::Auto => band_bytes > STAGE_MIN_BAND_BYTES && lanes <= MAX_NT_LANES,
    }
}

/// Sweeps output rows `i_lo .. i_hi` of a band with the hybrid chain —
/// the [`super::Dispatch::Hybrid`] counterpart of
/// [`super::kernel2d::sweep_band_2d`] (same slice/offset contract:
/// `dst[0]` is element `(i_lo, 0)`, rows `b_stride` apart, `a_org` the
/// flat index of `(0, 0)` in `a`).
///
/// Row groups of 8 inside a column tile take the AVX2 register-tile
/// path where available; the leftover `i_hi - i_lo mod 8` rows, column
/// tails narrower than one 8-lane step, radii above
/// [`MAX_VECTOR_RADIUS`] and non-x86 hosts all run
/// [`scalar_point_hybrid`] — bit-identical, so the split is invisible
/// in the output.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_band_hybrid(
    taps: &TapsHybrid<f64>,
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
    // Unlike the 2×8 kernel's `rows_in_flight`, the reuse window here
    // is tiny (outputs live in registers), so the 4096² bench case gets
    // full-width tiles — long uninterrupted DRAM streams. Tiling it
    // into narrow strips costs ~35% of the kernel's bandwidth.
    let cb = tile::col_block(w, taps.reuse_rows(), std::mem::size_of::<f64>());
    #[cfg(target_arch = "x86_64")]
    let vector_ok =
        super::Dispatch::avx2_available() && taps.r as usize <= MAX_VECTOR_RADIUS && cb >= 8;
    // Two ping-pong staging buffers: while a group computes into one,
    // the previous group's rows drain from the other — the NT stream
    // overlaps the next tile's loads instead of running as a serial
    // copy phase after each group (which costs ~25% wall-clock: the
    // bus then alternates read-only and write-only half-phases).
    #[cfg(target_arch = "x86_64")]
    let mut stage = {
        let band_bytes = 2 * (i_hi - i_lo) * w * std::mem::size_of::<f64>();
        if vector_ok && staged_store_policy(NtPolicy::env_override(), lanes, band_bytes) {
            vec![0.0f64; 2 * 8 * cb]
        } else {
            Vec::new()
        }
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = lanes;
    let mut j0 = 0usize;
    while j0 < w {
        let jw = cb.min(w - j0);
        let mut i = i_lo;
        #[cfg(target_arch = "x86_64")]
        if vector_ok && jw >= 8 {
            let pf = super::prefetch::Prefetch::config();
            if stage.is_empty() {
                while i + 8 <= i_hi {
                    // SAFETY: AVX2+FMA verified above; all loads stay
                    // inside the halo the caller's shape check
                    // guarantees; `out` covers the full 8 x jw tile.
                    unsafe {
                        let out = dst.as_mut_ptr().add((i - i_lo) * b_stride + j0);
                        let mut drain = avx2::Drain::idle();
                        avx2::group8(
                            taps, a, a_org, a_stride, j0, jw, out, b_stride, i, pf, &mut drain,
                        );
                    }
                    i += 8;
                }
            } else {
                let (s0, s1) = stage.split_at_mut(8 * cb);
                let bufs = [s0.as_mut_ptr(), s1.as_mut_ptr()];
                let mut cur = 0usize;
                let mut drain = avx2::Drain::idle();
                while i + 8 <= i_hi {
                    // SAFETY: as above; the drain's source is the *other*
                    // staging buffer, never the one being written.
                    unsafe {
                        avx2::group8(
                            taps, a, a_org, a_stride, j0, jw, bufs[cur], jw, i, pf, &mut drain,
                        );
                        drain.finish();
                        drain = avx2::Drain::new(
                            bufs[cur],
                            dst.as_mut_ptr().add((i - i_lo) * b_stride + j0),
                            b_stride,
                            jw,
                        );
                    }
                    cur ^= 1;
                    i += 8;
                }
                // SAFETY: drains the last group's staging buffer.
                unsafe { drain.finish() };
            }
        }
        for ii in i..i_hi {
            let base = a_org + ii as isize * a_stride + j0 as isize;
            let off = (ii - i_lo) * b_stride + j0;
            for (jj, d) in dst[off..off + jw].iter_mut().enumerate() {
                *d = scalar_point_hybrid(taps, a, base + jj as isize, a_stride);
            }
        }
        j0 += jw;
    }
    #[cfg(target_arch = "x86_64")]
    if !stage.is_empty() {
        // One sfence per band, on the lane that issued the NT stores:
        // weakly-ordered stores must be globally visible before this
        // lane reaches the pool's done-channel barrier (the barrier
        // orders the channel message, not the WC buffers), and the
        // fence must run on the storing thread — a single fence after
        // the join could not flush sibling lanes' write-combining
        // buffers. Per-band (not per-tile) placement keeps it off the
        // hot path. SAFETY: sfence is unconditionally available on
        // x86-64.
        unsafe { std::arch::x86_64::_mm_sfence() };
    }
}

/// The element-generic hybrid band sweep — same slice/offset contract
/// and accumulation order as [`sweep_band_hybrid`], computed by the
/// scalar hybrid chain (no vectorized tile body exists for non-f64
/// elements yet; DESIGN.md §12 records the gap). What *is* shared with
/// the f64 fast path is the store schedule: under the same lane-aware
/// [`staged_store_policy`], completed 8-row groups retire through the
/// generic ping-pong staged NT drain ([`stage::Drain`]), so streaming
/// f32 bands still skip the destination read-for-ownership.
#[allow(clippy::too_many_arguments)]
pub(crate) fn sweep_band_hybrid_staged<E: super::kernel::NativeElement>(
    taps: &TapsHybrid<E>,
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
    let cb = tile::col_block(w, taps.reuse_rows(), std::mem::size_of::<E>());
    #[cfg(target_arch = "x86_64")]
    let mut stage_buf = {
        let band_bytes = 2 * (i_hi - i_lo) * w * std::mem::size_of::<E>();
        // NT stores need AVX (`vmovntps`/`vmovntpd` through
        // `NativeElement::stream_chunk`); gate on the same detection
        // the f64 path uses.
        if super::Dispatch::avx2_available()
            && staged_store_policy(NtPolicy::env_override(), lanes, band_bytes)
        {
            vec![E::ZERO; 2 * 8 * cb]
        } else {
            Vec::new()
        }
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = lanes;
    let mut j0 = 0usize;
    while j0 < w {
        let jw = cb.min(w - j0);
        let mut i = i_lo;
        #[cfg(target_arch = "x86_64")]
        if !stage_buf.is_empty() && jw > 0 {
            let (s0, s1) = stage_buf.split_at_mut(8 * cb);
            let bufs = [s0.as_mut_ptr(), s1.as_mut_ptr()];
            let mut cur = 0usize;
            let mut drain = stage::Drain::<E>::idle();
            while i + 8 <= i_hi {
                for k in 0..8usize {
                    let base = a_org + (i + k) as isize * a_stride + j0 as isize;
                    // SAFETY: `bufs[cur]` covers the full 8 x jw group;
                    // the drain's source is the *other* staging buffer.
                    // One drain chunk per computed row keeps the NT
                    // stream advancing at production rate, like the
                    // f64 tile's per-step `drain.step(64)`.
                    unsafe {
                        let out = std::slice::from_raw_parts_mut(bufs[cur].add(k * jw), jw);
                        scalar_row_hybrid(taps, a, base, a_stride, out);
                        drain.step(jw);
                    }
                }
                // SAFETY: finishes the previous group, then re-arms the
                // drain on the group just computed.
                unsafe {
                    drain.finish();
                    drain = stage::Drain::new(
                        bufs[cur],
                        dst.as_mut_ptr().add((i - i_lo) * b_stride + j0),
                        b_stride,
                        jw,
                    );
                }
                cur ^= 1;
                i += 8;
            }
            // SAFETY: drains the last group's staging buffer.
            unsafe { drain.finish() };
        }
        for ii in i..i_hi {
            let base = a_org + ii as isize * a_stride + j0 as isize;
            let off = (ii - i_lo) * b_stride + j0;
            for (jj, d) in dst[off..off + jw].iter_mut().enumerate() {
                *d = scalar_point_hybrid(taps, a, base + jj as isize, a_stride);
            }
        }
        j0 += jw;
    }
    #[cfg(target_arch = "x86_64")]
    if !stage_buf.is_empty() {
        // Same fence contract as the f64 path: flush this lane's
        // write-combining buffers before the pool barrier. SAFETY:
        // sfence is unconditionally available on x86-64.
        unsafe { std::arch::x86_64::_mm_sfence() };
    }
}

/// Element-generic staged NT drain — the [`avx2::Drain`] schedule
/// (scalar head to 32-byte alignment, chunked NT middle, scalar tail,
/// row-major so consecutive steps extend one open WC stream) with the
/// NT middle delegated to `NativeElement::stream_chunk` so one body
/// serves every element width. The f64 fast path keeps its hand-tuned
/// monomorphic drain; this one backs [`sweep_band_hybrid_staged`].
#[cfg(target_arch = "x86_64")]
pub(crate) mod stage {
    use super::super::kernel::NativeElement;

    /// In-flight drain of one staged 8-row group (see the f64
    /// `avx2::Drain` for the schedule rationale).
    pub(crate) struct Drain<E> {
        src: *const E,
        dst: *mut E,
        dst_stride: usize,
        jw: usize,
        k: usize,
        j: usize,
    }

    impl<E: NativeElement> Drain<E> {
        /// A drain with nothing to do (before the first group).
        pub(crate) fn idle() -> Drain<E> {
            Drain {
                src: std::ptr::null(),
                dst: std::ptr::null_mut(),
                dst_stride: 0,
                jw: 0,
                k: 8,
                j: 0,
            }
        }

        /// Drain for a completed `8 x jw` staging group: staging row
        /// `k` (stride `jw` from `src`) goes to `dst + k * dst_stride`.
        pub(crate) fn new(src: *const E, dst: *mut E, dst_stride: usize, jw: usize) -> Drain<E> {
            Drain {
                src,
                dst,
                dst_stride,
                jw,
                k: 0,
                j: 0,
            }
        }

        /// Copies up to `max_elems` (clipped at the current row's end)
        /// with sequential NT stores: scalar head until `dst` is
        /// 32-byte aligned, `NativeElement::stream_chunk` middle,
        /// scalar tail. Mid-row chunks are trimmed to end on a 32-byte
        /// boundary so chunk seams never mix scalar and NT stores in
        /// one cache line (each seam would cost a partial
        /// write-combining flush).
        ///
        /// # Safety
        /// The source/destination ranges promised to [`Drain::new`]
        /// must still be valid and disjoint, and the caller must have
        /// verified AVX support (the policy gate in
        /// [`super::sweep_band_hybrid_staged`] does).
        pub(crate) unsafe fn step(&mut self, max_elems: usize) {
            if self.k >= 8 {
                return;
            }
            let elem = std::mem::size_of::<E>();
            let mut n = max_elems.min(self.jw - self.j);
            let src = self.src.add(self.k * self.jw + self.j);
            let dst = self.dst.add(self.k * self.dst_stride + self.j);
            if self.j + n < self.jw {
                n -= ((dst.add(n) as usize) & 31) / elem;
            }
            let mut i = 0usize;
            while i < n && (dst.add(i) as usize) & 31 != 0 {
                *dst.add(i) = *src.add(i);
                i += 1;
            }
            let lane = 32 / elem;
            let mid = (n - i) / lane * lane;
            if mid > 0 {
                E::stream_chunk(dst.add(i), src.add(i), mid);
                i += mid;
            }
            while i < n {
                *dst.add(i) = *src.add(i);
                i += 1;
            }
            self.j += n;
            if self.j >= self.jw {
                self.j = 0;
                self.k += 1;
            }
        }

        /// Drains everything still pending.
        ///
        /// # Safety
        /// Same contract as [`Drain::step`].
        pub(crate) unsafe fn finish(&mut self) {
            while self.k < 8 {
                self.step(self.jw.max(1));
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::super::prefetch::Prefetch;
    use super::{scalar_point_hybrid, TapsHybrid, MAX_VECTOR_RADIUS};
    use std::arch::x86_64::*;

    /// Shift-by-`k` synthesis over the adjacent vectors `c0` (columns
    /// `j .. j+4`) and `c1` (columns `j+4 .. j+8`): returns columns
    /// `j+k .. j+k+4`. `t` is the cross-lane bridge
    /// `_mm256_permute2f128_pd::<0x21>(c0, c1) = [c0[2], c0[3], c1[0],
    /// c1[1]]`; the odd shifts blend it with `c0`/`c1` via
    /// `_mm256_shuffle_pd` (dst lane pattern `a1 b0 a3 b2` at mask
    /// `0b0101`).
    ///
    /// # Safety
    /// AVX2 must be available.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn shift_f64(c0: __m256d, t: __m256d, c1: __m256d, k: usize) -> __m256d {
        match k {
            0 => c0,
            1 => _mm256_shuffle_pd::<0b0101>(c0, t),
            2 => t,
            3 => _mm256_shuffle_pd::<0b0101>(t, c1),
            _ => c1,
        }
    }

    /// In-flight non-temporal drain of one staged 8-row group. The
    /// compute loop calls [`Drain::step`] once per 8-column step, so
    /// the previous group streams out at exactly the rate the current
    /// group is produced; [`Drain::finish`] flushes whatever a clipped
    /// chunk or a short column tile left over.
    pub(super) struct Drain {
        src: *const f64,
        dst: *mut f64,
        dst_stride: usize,
        jw: usize,
        k: usize,
        j: usize,
    }

    impl Drain {
        /// A drain with nothing to do (before the first group, and for
        /// the direct-store path).
        pub(super) fn idle() -> Drain {
            Drain {
                src: std::ptr::null(),
                dst: std::ptr::null_mut(),
                dst_stride: 0,
                jw: 0,
                k: 8,
                j: 0,
            }
        }

        /// Drain for a completed `8 x jw` staging group: staging row
        /// `k` (stride `jw` from `src`) goes to `dst + k * dst_stride`.
        pub(super) fn new(src: *const f64, dst: *mut f64, dst_stride: usize, jw: usize) -> Drain {
            Drain {
                src,
                dst,
                dst_stride,
                jw,
                k: 0,
                j: 0,
            }
        }

        /// Copies up to `max_elems` (clipped at the current row's end)
        /// with sequential NT stores: scalar head until `dst` is
        /// 32-byte aligned, `movntpd` middle, scalar tail. Row-major
        /// order means consecutive steps extend one open WC stream.
        ///
        /// # Safety
        /// The source/destination ranges promised to [`Drain::new`]
        /// must still be valid and disjoint.
        #[target_feature(enable = "avx2")]
        pub(super) unsafe fn step(&mut self, max_elems: usize) {
            if self.k >= 8 {
                return;
            }
            let mut n = max_elems.min(self.jw - self.j);
            let src = self.src.add(self.k * self.jw + self.j);
            let dst = self.dst.add(self.k * self.dst_stride + self.j);
            if self.j + n < self.jw {
                // Mid-row chunks must end on a 32-byte boundary:
                // otherwise every chunk seam mixes scalar and NT stores
                // in one cache line and each seam costs a partial
                // write-combining flush (measured ~2x slower overall).
                n -= (dst.add(n) as usize & 31) >> 3;
            }
            let mut i = 0usize;
            while i < n && (dst.add(i) as usize) & 31 != 0 {
                *dst.add(i) = *src.add(i);
                i += 1;
            }
            while i + 4 <= n {
                _mm256_stream_pd(dst.add(i), _mm256_loadu_pd(src.add(i)));
                i += 4;
            }
            while i < n {
                *dst.add(i) = *src.add(i);
                i += 1;
            }
            self.j += n;
            if self.j >= self.jw {
                self.j = 0;
                self.k += 1;
            }
        }

        /// Drains everything still pending.
        ///
        /// # Safety
        /// Same contract as [`Drain::step`].
        #[target_feature(enable = "avx2")]
        pub(super) unsafe fn finish(&mut self) {
            while self.k < 8 {
                self.step(self.jw.max(1));
            }
        }
    }

    /// One 8-row group of a column tile: columns `j0 .. j0 + jw` of
    /// output rows `i0 .. i0 + 8`. Tile element `(k, j)` (`j` relative
    /// to `j0`) is stored at `out[k * out_stride + j]` — the caller
    /// points `out` either directly into the band destination or at a
    /// staging buffer. Radius is monomorphized so the step loop fully
    /// unrolls and the accumulator indices become constants. `drain`
    /// (the previous group's staged rows) is advanced by 64 elements
    /// per 8-column step, interleaving the NT stream with the loads.
    ///
    /// # Safety
    /// Caller must have verified AVX2 + FMA support and the band/halo
    /// shape contract of [`super::sweep_band_hybrid`]; `out` must be
    /// valid for the full `8 x jw` tile at stride `out_stride`; and
    /// `drain`'s ranges must be valid and disjoint from `out`.
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn group8(
        taps: &TapsHybrid<f64>,
        a: &[f64],
        a_org: isize,
        a_stride: isize,
        j0: usize,
        jw: usize,
        out: *mut f64,
        out_stride: usize,
        i0: usize,
        pf: Prefetch,
        drain: &mut Drain,
    ) {
        match taps.r {
            1 => group8_r::<1>(
                taps, a, a_org, a_stride, j0, jw, out, out_stride, i0, pf, drain,
            ),
            2 => group8_r::<2>(
                taps, a, a_org, a_stride, j0, jw, out, out_stride, i0, pf, drain,
            ),
            3 => group8_r::<3>(
                taps, a, a_org, a_stride, j0, jw, out, out_stride, i0, pf, drain,
            ),
            4 => group8_r::<4>(
                taps, a, a_org, a_stride, j0, jw, out, out_stride, i0, pf, drain,
            ),
            _ => unreachable!("sweep_band_hybrid guards r <= MAX_VECTOR_RADIUS"),
        }
    }

    /// Figure-8 → ymm mapping: `acc[2k]` holds columns `j..j+4` and
    /// `acc[2k+1]` columns `j+4..j+8` of output row `i0 + k`. Steps
    /// `s = 0 .. 8 + 2R` each load input row `i0 + s - R` once,
    /// broadcast-FMA it into rows `max(s-2R,0)..=min(s,7)`, then retire
    /// row `s - 2R` (inner MLA partial, fold, store) as soon as it
    /// exists — so at most `2R + 1` of the 16 accumulators are hot at
    /// any step once the pipeline drains.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn group8_r<const R: usize>(
        taps: &TapsHybrid<f64>,
        a: &[f64],
        a_org: isize,
        a_stride: isize,
        j0: usize,
        jw: usize,
        out: *mut f64,
        out_stride: usize,
        i0: usize,
        pf: Prefetch,
        drain: &mut Drain,
    ) {
        debug_assert!(R <= MAX_VECTOR_RADIUS && taps.r as usize == R);
        let ap = a.as_ptr();
        // Hoist every coefficient broadcast out of the column loop: a
        // `set1` from memory inside the unrolled steps costs a load
        // per tap per step; here it is one per tap per 8-row group.
        let mut vmask = [false; 2 * MAX_VECTOR_RADIUS + 1];
        let mut cvb = [_mm256_setzero_pd(); 2 * MAX_VECTOR_RADIUS + 1];
        for t in 0..=(2 * R) {
            vmask[t] = taps.vert[t] != 0.0;
            cvb[t] = _mm256_set1_pd(taps.vert[t]);
        }
        // Inner taps as parallel (column offset, broadcast coefficient)
        // arrays, regrouped by input row `di` (contiguous runs, since
        // `taps.inner` is `(di, dj)`-ascending); 72 slots covers the
        // densest vectorized stencil (radius-4 box). Rows with three or
        // more horizontal taps apply the shifted-register scheme
        // ([`shift_f64`]): the row's two center vectors load
        // once and interior shifts synthesize in-register; edge
        // operands stay the exact loads the shifted-load body issued.
        // Shorter rows keep plain per-tap loads — at one or two taps
        // the synthesis shuffles outnumber the loads they save.
        const MAX_INNER: usize =
            (2 * MAX_VECTOR_RADIUS + 1) * (2 * MAX_VECTOR_RADIUS + 1) - (2 * MAX_VECTOR_RADIUS + 1);
        const MAX_ROWS: usize = 2 * MAX_VECTOR_RADIUS + 1;
        debug_assert!(taps.inner.len() <= MAX_INNER);
        let mut inn_dj = [0isize; MAX_INNER];
        let mut inn_cv = [_mm256_setzero_pd(); MAX_INNER];
        let n_inner = taps.inner.len().min(MAX_INNER);
        let mut grp_row = [0isize; MAX_ROWS]; // flat offset of the group's row
        let mut grp_span = [(0usize, 0usize); MAX_ROWS];
        let mut n_grp = 0usize;
        for (ti, &(di, dj, c)) in taps.inner.iter().take(n_inner).enumerate() {
            inn_dj[ti] = dj;
            inn_cv[ti] = _mm256_set1_pd(c);
            let row_off = di * a_stride;
            if n_grp == 0 || grp_row[n_grp - 1] != row_off {
                grp_row[n_grp] = row_off;
                grp_span[n_grp] = (ti, ti + 1);
                n_grp += 1;
            } else {
                grp_span[n_grp - 1].1 = ti + 1;
            }
        }
        let ones = _mm256_set1_pd(1.0);
        // Flat index of input element (i0, j0).
        let base = a_org + i0 as isize * a_stride + j0 as isize;
        let mut j = 0usize;
        while j + 8 <= jw {
            let mut acc = [_mm256_setzero_pd(); 16];
            // The step loop MUST unroll with literal step indices: a
            // rolled loop makes `acc[2 * k]` a runtime index, LLVM
            // cannot SROA the array, and the whole 16-register tile
            // spills to the stack (measured ~20% slower on the 4096²
            // bench case). The macro emits one body per literal; steps
            // past `8 + 2R` fold away because every condition on `S`
            // is a compile-time constant.
            macro_rules! step {
                ($($s:literal)*) => {$(
                    if $s < 8 + 2 * R {
                        const { assert!($s < 16 + 2 * MAX_VECTOR_RADIUS) };
                        let s: usize = $s;
                        let p =
                            ap.offset(base + (s as isize - R as isize) * a_stride + j as isize);
                        if pf.dst_cols > 0 {
                            // Hint the tail of the row currently
                            // streaming; the store side needs no hint
                            // (plain stores allocate).
                            _mm_prefetch::<_MM_HINT_T0>(p.wrapping_add(pf.dst_cols) as *const i8);
                        }
                        let v0 = _mm256_loadu_pd(p);
                        let v1 = _mm256_loadu_pd(p.add(4));
                        for t in 0..=(2 * R) {
                            if vmask[t] && s >= t && s - t < 8 {
                                let k = s - t;
                                acc[2 * k] = _mm256_fmadd_pd(cvb[t], v0, acc[2 * k]);
                                acc[2 * k + 1] = _mm256_fmadd_pd(cvb[t], v1, acc[2 * k + 1]);
                            }
                        }
                        if s >= 2 * R {
                            let k = s - 2 * R;
                            let row = base + k as isize * a_stride + j as isize;
                            let mut p0 = _mm256_setzero_pd();
                            let mut p1 = _mm256_setzero_pd();
                            for g in 0..n_grp {
                                let rp = ap.offset(row + grp_row[g]);
                                let (lo, hi) = grp_span[g];
                                if hi - lo >= 3 {
                                    // Reuse path: one center-pair load +
                                    // one cross-lane bridge per row.
                                    let c0v = _mm256_loadu_pd(rp);
                                    let c1v = _mm256_loadu_pd(rp.add(4));
                                    let t = _mm256_permute2f128_pd::<0x21>(c0v, c1v);
                                    for ti in lo..hi {
                                        let dj = inn_dj[ti];
                                        let v0 = if dj < 0 {
                                            _mm256_loadu_pd(rp.offset(dj))
                                        } else {
                                            shift_f64(c0v, t, c1v, dj as usize)
                                        };
                                        let v1 = if dj > 0 {
                                            _mm256_loadu_pd(rp.offset(4 + dj))
                                        } else {
                                            shift_f64(c0v, t, c1v, (4 + dj) as usize)
                                        };
                                        p0 = _mm256_fmadd_pd(inn_cv[ti], v0, p0);
                                        p1 = _mm256_fmadd_pd(inn_cv[ti], v1, p1);
                                    }
                                } else {
                                    for ti in lo..hi {
                                        let q = rp.offset(inn_dj[ti]);
                                        p0 = _mm256_fmadd_pd(inn_cv[ti], _mm256_loadu_pd(q), p0);
                                        p1 = _mm256_fmadd_pd(
                                            inn_cv[ti],
                                            _mm256_loadu_pd(q.add(4)),
                                            p1,
                                        );
                                    }
                                }
                            }
                            let o0 = _mm256_fmadd_pd(ones, p0, acc[2 * k]);
                            let o1 = _mm256_fmadd_pd(ones, p1, acc[2 * k + 1]);
                            let off = k * out_stride + j;
                            _mm256_storeu_pd(out.add(off), o0);
                            _mm256_storeu_pd(out.add(off + 4), o1);
                        }
                    }
                )*};
            }
            step!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
            // One production-rate chunk of the previous group's NT
            // drain (64 elements = the 8 x 8 tile just computed).
            drain.step(64);
            j += 8;
        }
        // Column tail (< 8 columns): the scalar hybrid chain, element by
        // element — bit-identical to the vector tile.
        while j < jw {
            for k in 0..8usize {
                *out.add(k * out_stride + j) = scalar_point_hybrid(
                    taps,
                    a,
                    base + k as isize * a_stride + j as isize,
                    a_stride,
                );
            }
            j += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::presets;

    #[test]
    fn taps_split_covers_every_nonzero_once() {
        for spec in presets::suite_2d() {
            let taps = TapsHybrid::<f64>::new(&spec);
            let nv = taps.vert.iter().filter(|&&c| c != 0.0).count();
            assert_eq!(nv + taps.inner.len(), spec.points(), "{}", spec.name());
            // Inner taps sorted, nonzero, never on the vertical axis.
            let mut sorted = taps.inner.clone();
            sorted.sort_by_key(|&(di, dj, _)| (di, dj));
            assert_eq!(sorted, taps.inner, "{}", spec.name());
            assert!(taps.inner.iter().all(|&(_, dj, c)| dj != 0 && c != 0.0));
        }
    }

    #[test]
    fn scalar_hybrid_chain_matches_direct_sum_closely() {
        // Sanity (not bit-exactness, which is vs the vector path): the
        // hybrid chain is a reassociation of the same tap sum.
        let spec = presets::box2d9p();
        let taps = TapsHybrid::<f64>::new(&spec);
        let stride = 8isize;
        let a: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
        let base = 3 * stride + 3;
        let got = scalar_point_hybrid(&taps, &a, base, stride);
        let mut want = 0.0;
        for di in -1..=1isize {
            for dj in -1..=1isize {
                want += spec.c2(di, dj) * a[(base + di * stride + dj) as usize];
            }
        }
        assert!((got - want).abs() < 1e-12);
    }

    #[test]
    fn f32_taps_narrow_the_f64_master_coefficients() {
        for spec in presets::suite_2d() {
            let t64 = TapsHybrid::<f64>::new(&spec);
            let t32 = TapsHybrid::<f32>::new(&spec);
            assert_eq!(t32.vert.len(), t64.vert.len(), "{}", spec.name());
            for (c32, c64) in t32.vert.iter().zip(&t64.vert) {
                assert_eq!(*c32, *c64 as f32, "{}", spec.name());
            }
            assert_eq!(t32.inner.len(), t64.inner.len(), "{}", spec.name());
            for (&(di32, dj32, c32), &(di64, dj64, c64)) in t32.inner.iter().zip(&t64.inner) {
                assert_eq!((di32, dj32), (di64, dj64), "{}", spec.name());
                assert_eq!(c32, c64 as f32, "{}", spec.name());
            }
        }
    }

    #[test]
    fn reuse_rows_counts_the_inner_mla_window() {
        let taps = TapsHybrid::<f64>::new(&presets::star2d5p());
        assert_eq!(taps.reuse_rows(), 4); // 2r+1 input rows + 1 store stream
    }

    #[test]
    fn nt_env_parsing() {
        assert_eq!(NtPolicy::from_env_str("direct"), Some(NtPolicy::Direct));
        assert_eq!(NtPolicy::from_env_str(" STAGED "), Some(NtPolicy::Staged));
        assert_eq!(NtPolicy::from_env_str("auto"), None);
        assert_eq!(NtPolicy::from_env_str(""), None);
        assert_eq!(NtPolicy::from_env_str("bogus"), None);
    }

    #[test]
    fn nt_malformed_values_warn_with_value_and_default() {
        let (parsed, warn) = NtPolicy::from_env_str_warn("bogus");
        assert_eq!(parsed, None);
        let warn = warn.expect("malformed value must produce a warning");
        assert!(warn.contains("HSTENCIL_NT"), "{warn}");
        assert!(warn.contains("\"bogus\""), "names the bad value: {warn}");
        assert!(warn.contains("auto policy"), "names the default: {warn}");
        // The intentional "keep auto" spellings stay silent.
        assert_eq!(NtPolicy::from_env_str_warn("auto"), (None, None));
        assert_eq!(NtPolicy::from_env_str_warn(""), (None, None));
        assert!(NtPolicy::from_env_str_warn("direct").1.is_none());
        assert!(NtPolicy::from_env_str_warn("staged").1.is_none());
    }

    #[test]
    fn staged_store_policy_is_band_and_lane_aware() {
        let big = STAGE_MIN_BAND_BYTES + 1;
        let small = STAGE_MIN_BAND_BYTES;
        // Auto: streaming bands stage while at most MAX_NT_LANES
        // concurrent NT streams exist; more lanes fall back to direct.
        assert!(staged_store_policy(None, 1, big));
        assert!(staged_store_policy(None, 2, big));
        assert!(!staged_store_policy(None, 3, big), "NT streams collide");
        assert!(!staged_store_policy(None, 8, big));
        // Auto: cache-resident bands never stage, at any lane count.
        assert!(!staged_store_policy(None, 1, small));
        assert!(!staged_store_policy(None, 2, small));
        // Pins trump both dimensions.
        for lanes in [1usize, 2, 3, 16] {
            for bytes in [small, big] {
                assert!(!staged_store_policy(Some(NtPolicy::Direct), lanes, bytes));
                assert!(staged_store_policy(Some(NtPolicy::Staged), lanes, bytes));
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn generic_drain_streams_rows_bit_exactly() {
        if !super::super::Dispatch::avx2_available() {
            eprintln!("skipping: host has no AVX for NT stores");
            return;
        }
        // Odd jw and a stride wider than jw exercise the scalar
        // head/tail around the chunked NT middle at both widths.
        fn check<E: super::super::kernel::NativeElement>(mk: impl Fn(usize) -> E) {
            let (rows, jw, dst_stride) = (8usize, 13usize, 20usize);
            let src: Vec<E> = (0..rows * jw).map(&mk).collect();
            let mut dst = vec![E::ZERO; rows * dst_stride];
            let mut drain = stage::Drain::new(src.as_ptr(), dst.as_mut_ptr(), dst_stride, jw);
            // SAFETY: ranges built above; AVX verified at entry.
            unsafe {
                drain.step(5); // partial row
                drain.step(3); // still partial
                drain.finish();
                std::arch::x86_64::_mm_sfence();
            }
            for k in 0..rows {
                for j in 0..jw {
                    assert_eq!(
                        dst[k * dst_stride + j].to_f64(),
                        src[k * jw + j].to_f64(),
                        "row {k} col {j}"
                    );
                }
            }
        }
        check::<f32>(|i| (i as f32).sin());
        check::<f64>(|i| (i as f64).sin());
    }

    #[test]
    fn generic_staged_sweep_matches_the_scalar_chain_pointwise() {
        // Small band => the auto policy keeps direct stores, but the
        // full tile/band walk (column blocking, row indexing) runs; the
        // result must equal the per-point hybrid chain exactly.
        let spec = presets::star2d5p();
        let taps = TapsHybrid::<f32>::new(&spec);
        let r = spec.radius();
        let (h, w) = (11usize, 23usize);
        let a_stride = (w + 2 * r) as isize;
        let a: Vec<f32> = (0..(h + 2 * r) * (w + 2 * r))
            .map(|i| (i as f32 * 0.37).cos())
            .collect();
        let a_org = r as isize * a_stride + r as isize;
        let mut dst = vec![0.0f32; h * w];
        sweep_band_hybrid_staged(&taps, &a, a_org, a_stride, w, &mut dst, w, 0, h, 1);
        for i in 0..h {
            for j in 0..w {
                let base = a_org + i as isize * a_stride + j as isize;
                let want = scalar_point_hybrid(&taps, &a, base, a_stride);
                assert_eq!(dst[i * w + j], want, "({i}, {j})");
            }
        }
    }
}
