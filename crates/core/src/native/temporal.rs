//! Temporally-tiled native multi-sweep executor (DESIGN.md §9).
//!
//! [`super::time_steps_in`] ping-pongs whole-grid sweeps: every time
//! step streams the full grid from DRAM and back, so an out-of-cache
//! multi-sweep run pays `2 * sweeps` grid transfers for work that is
//! almost free once the data is in cache. This module fuses `t_block`
//! consecutive time steps into one *superstep* so each cell's bytes
//! cross the memory bus once per superstep instead of once per sweep —
//! the native analogue of the in-place accumulation the paper uses to
//! kill redundant grid round-trips (HStencil §3), generalised over time
//! like the temporal blocking already modelled by the simulated
//! `plan::run_2d_temporal` path.
//!
//! # Trapezoidal (overlapped) tiles
//!
//! A superstep decomposes the grid into `th x tw` base tiles. For a
//! tile `[tr0, tr1) x [tc0, tc1)` advanced by `steps` fused time steps,
//! level `s` (`s = 1..=steps`) computes the base region expanded by the
//! *ghost width* `g(s) = r * (steps - s)` on every side, clamped to the
//! interior:
//!
//! ```text
//!   rows [max(tr0 - g(s), 0), min(tr1 + g(s), h))
//!   cols [max(tc0 - g(s), 0), min(tc1 + g(s), w))
//! ```
//!
//! One row of level `s` needs rows/cols `±r` of level `s-1`, and
//! `g(s) + r = g(s-1)` exactly, so by induction every interior cell a
//! level reads was computed by the previous level of the *same* tile —
//! tiles never exchange intermediate data, they *recompute* the shared
//! ghost cells (the classic overlapped/trapezoidal time-tiling
//! trade: `O(g/th + g/tw)` redundant compute buys one DRAM round-trip
//! per superstep instead of one per sweep).
//!
//! Level 1 reads the global `cur` grid directly; level `steps` writes
//! its base region straight into the global `next` grid; the
//! intermediate levels ping-pong between two per-lane scratch buffers
//! (`Scratch`) sized by `tile::temporal_block` to stay L2-resident.
//!
//! ## Dirichlet frame
//!
//! Boundary cells (outside `[0,h) x [0,w)`) are held at the initial
//! halo values for every time step, exactly like the naive path. Reads
//! that reach outside the interior therefore always want `cur`'s halo
//! image, so tiles touching the boundary pre-fill the out-of-interior
//! cells of their scratch extent from `cur` once per superstep; the
//! clamped level regions never overwrite them.
//!
//! ## Bit-identity
//!
//! Every cell at every level is produced by the *same* canonical FMA
//! chain (`kernel2d::sweep_band_2d`) reading bit-identical inputs —
//! the kernels are already invariant to band/tile decomposition (pinned
//! by the dispatch bit-identity suite) — so by induction over levels a
//! superstep is **bit-identical** to `steps` sequential
//! [`super::apply_2d`] calls, pinned by the `native_temporal` property
//! suite and the conformance registry's `native-temporal` variant.
//!
//! ## Parallel structure
//!
//! Bands of tile rows go to pool lanes. A lane only reads the shared,
//! immutable `cur` grid plus its own scratch, and writes its own
//! disjoint rows of `next` — ghost recomputation replaces any
//! mid-superstep halo exchange, and the pool barrier between supersteps
//! is the only synchronisation.

use super::kernel::NativeElement;
use super::kernel2d::{self, Taps2};
use super::pool::ThreadPool;
use super::tile;
use super::Dispatch;
use crate::element::Dtype;
use crate::grid::Grid2dT;
use crate::stencil::StencilSpec;
use lx2_isa::VLEN;
use std::sync::Mutex;

/// Knobs for [`time_steps_temporal_in`]. `Default` picks the fused
/// depth from the scratch cache budget and falls back to the naive
/// ping-pong when the whole working set is cache-resident anyway.
#[derive(Clone, Copy, Debug, Default)]
pub struct Temporal {
    /// Fused time steps per superstep; `None` sizes the trapezoid depth
    /// so the scratch buffers fit the L2 budget (capped at 8).
    pub t_block: Option<usize>,
    /// Run the tiled pipeline even when the working set fits in cache
    /// or the fused depth is 1 (used by the conformance variant and the
    /// benchmark so every size measures the same code path).
    pub force_pipeline: bool,
    /// Base tile `(rows, cols)` override; `None` uses the static
    /// default (128 × 512). Tiny tiles are valid (heavy ghost overlap,
    /// used by the tests to stress clamping) — results never change.
    pub tile: Option<(usize, usize)>,
}

/// Ping-pong working sets at most this large stay on the naive path:
/// both grids fit comfortably in cache, so fusing time steps cannot
/// reduce DRAM traffic and would only add ghost-recompute overhead.
/// [`ShapeClass`] draws its resident/streaming line at the same size.
const PIPELINE_MIN_WORKING_SET: usize = 4 * 1024 * 1024;

/// Working-set classes of a 2-D grid. The boundary is the temporal
/// executor's pipeline threshold: two grids above 4 MiB no longer fit
/// the private caches of this host class. The serve batcher keys on it
/// and runs a resident job whole on one lane.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShapeClass {
    /// Both ping-pong grids fit in cache.
    Resident,
    /// The sweep streams from DRAM/L3.
    Streaming,
}

impl ShapeClass {
    /// Classifies an `h x w` double-buffered working set of `dtype`
    /// elements. The boundary is in *bytes*, so an f32 grid stays
    /// resident at twice the f64 area.
    pub fn of_dtype(h: usize, w: usize, dtype: Dtype) -> ShapeClass {
        if 2 * h * w * dtype.size() > PIPELINE_MIN_WORKING_SET {
            ShapeClass::Streaming
        } else {
            ShapeClass::Resident
        }
    }

    /// [`ShapeClass::of_dtype`] at the reference `f64` width.
    pub fn of(h: usize, w: usize) -> ShapeClass {
        ShapeClass::of_dtype(h, w, Dtype::F64)
    }

    /// Stable lowercase label (`"resident"` / `"streaming"`).
    pub fn label(self) -> &'static str {
        match self {
            ShapeClass::Resident => "resident",
            ShapeClass::Streaming => "streaming",
        }
    }
}

/// One lane's scratch for a superstep: the pair of ping-pong buffers
/// for the intermediate time levels (sized for the widest, level-1,
/// extent of a tile plus the `r`-wide Dirichlet frame, rows `stride`
/// elements apart) and the tempvec wavefront's ring storage. Slots are
/// parked in a process-wide per-dtype arena between `time_steps`
/// calls ([`NativeElement::temporal_arena`]) and grow monotonically to
/// the largest shape seen, so steady-state multi-sweep callers stop
/// paying an allocation per invocation.
#[doc(hidden)]
pub struct Scratch<E> {
    stride: usize,
    bufs: [Vec<E>; 2],
    /// Ring-buffer storage for [`super::tempvec::tile_wavefront`]
    /// (grown by the wavefront itself; unused on the spatial path).
    tv: Vec<E>,
}

impl<E: NativeElement> Scratch<E> {
    fn empty() -> Scratch<E> {
        Scratch {
            stride: 0,
            bufs: [Vec::new(), Vec::new()],
            tv: Vec::new(),
        }
    }

    /// Grow-only (re)fit for a superstep of depth `t` over `th x tw`
    /// tiles of an `h x w` grid at radius `r`. Contents need no reset:
    /// every scratch cell a level reads is either written by the
    /// previous level first or covered by the per-tile Dirichlet
    /// frame fill.
    fn ensure(&mut self, h: usize, w: usize, r: usize, t: usize, th: usize, tw: usize) {
        if t <= 1 {
            self.stride = 0;
            return;
        }
        let g = r * (t - 1);
        let rows = (th + 2 * g).min(h + 2 * r);
        let cols = (tw + 2 * g).min(w + 2 * r);
        let stride = cols.div_ceil(VLEN) * VLEN;
        let len = rows * stride;
        self.stride = stride;
        for buf in self.bufs.iter_mut() {
            if buf.len() < len {
                buf.resize(len, E::ZERO);
            }
        }
    }
}

/// Diagnostic view of the parked scratch arena for element type `E`:
/// `(slots, total elements of capacity)` currently checked in. The
/// allocation-reuse tests pin the no-regrowth contract with it; not a
/// stable API.
#[doc(hidden)]
pub fn arena_footprint<E: NativeElement>() -> (usize, usize) {
    let arena = E::temporal_arena()
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    let elems = arena
        .iter()
        .map(|s| s.bufs[0].capacity() + s.bufs[1].capacity() + s.tv.capacity())
        .sum();
    (arena.len(), elems)
}

/// Advances one base tile `[tr0, tr1) x [tc0, tc1)` by `steps >= 2`
/// fused time steps: level 1 reads the global `src`, intermediate
/// levels ping-pong through `scratch`, level `steps` writes the base
/// region into `band_dst` (`band_dst[0]` = element `(band_lo, 0)`, rows
/// `dst_stride` apart).
#[allow(clippy::too_many_arguments)]
fn tile_pipeline<E: NativeElement>(
    dispatch: Dispatch,
    taps: &Taps2<E>,
    src: &[E],
    src_org: isize,
    src_stride: isize,
    h: usize,
    w: usize,
    band_dst: &mut [E],
    dst_stride: usize,
    band_lo: usize,
    (tr0, tr1): (isize, isize),
    (tc0, tc1): (isize, isize),
    steps: usize,
    scratch: &mut Scratch<E>,
) {
    debug_assert!(steps >= 2);
    let r = taps.chain.r;
    let (hi, wi) = (h as isize, w as isize);
    let g1 = r * (steps as isize - 1);
    // The tempvec innermost strategy: fully-interior tiles skip the
    // scratch planes entirely and run the fused multi-level wavefront.
    // Boundary tiles fall through to the spatial level loop below,
    // whose `TempVec` arm runs the same row kernels — both paths are
    // bit-identical to `steps` repeated tempvec sweeps.
    if dispatch == Dispatch::TempVec
        && tr0 - g1 >= 0
        && tr1 + g1 <= hi
        && tc0 - g1 >= 0
        && tc1 + g1 <= wi
    {
        super::tempvec::tile_wavefront(
            taps,
            src,
            src_org,
            src_stride,
            band_dst,
            dst_stride,
            band_lo,
            (tr0 as usize, tr1 as usize),
            (tc0 as usize, tc1 as usize),
            steps,
            w,
            &mut scratch.tv,
        );
        return;
    }
    // Scratch extent: the widest computed region plus the reads that
    // reach `r` beyond it, clamped to the grid plus its halo ring.
    let rr0 = (tr0 - g1).max(-r);
    let rr1 = (tr1 + g1).min(hi + r);
    let cc0 = (tc0 - g1).max(-r);
    let cc1 = (tc1 + g1).min(wi + r);
    let ss = scratch.stride as isize;
    let idx = |j: isize, i: isize| ((j - rr0) * ss + (i - cc0)) as usize;

    // Dirichlet frame: scratch cells outside the interior hold `src`'s
    // halo image for the whole superstep (levels only write clamped
    // interior regions, so one fill per tile suffices for both
    // buffers).
    if rr0 < 0 || rr1 > hi || cc0 < 0 || cc1 > wi {
        for buf in scratch.bufs.iter_mut() {
            for j in rr0..rr1 {
                let row = src_org + j * src_stride;
                let mut fill = |g0: isize, g1c: isize| {
                    buf[idx(j, g0)..idx(j, g1c)]
                        .copy_from_slice(&src[(row + g0) as usize..(row + g1c) as usize]);
                };
                if j < 0 || j >= hi {
                    fill(cc0, cc1);
                } else {
                    if cc0 < 0 {
                        fill(cc0, 0);
                    }
                    if cc1 > wi {
                        fill(wi, cc1);
                    }
                }
            }
        }
    }

    let (head, tail) = scratch.bufs.split_at_mut(1);
    let (buf_even, buf_odd) = (&mut head[0], &mut tail[0]);
    for s in 1..=steps {
        let gs = r * (steps - s) as isize;
        let (a0, a1, c0, c1) = if s == steps {
            (tr0, tr1, tc0, tc1)
        } else {
            (
                (tr0 - gs).max(0),
                (tr1 + gs).min(hi),
                (tc0 - gs).max(0),
                (tc1 + gs).min(wi),
            )
        };
        let wspan = (c1 - c0) as usize;
        // Level s writes buffer s % 2 and reads buffer (s - 1) % 2.
        let (read_buf, write_buf) = if s % 2 == 0 {
            (&*buf_odd, &mut *buf_even)
        } else {
            (&*buf_even, &mut *buf_odd)
        };
        if s == 1 {
            let off = idx(a0, c0);
            kernel2d::sweep_band_2d(
                dispatch,
                taps,
                src,
                src_org + c0,
                src_stride,
                wspan,
                &mut write_buf[off..],
                scratch.stride,
                a0 as usize,
                a1 as usize,
            );
        } else {
            let a_org = -rr0 * ss + (c0 - cc0);
            if s == steps {
                let off = (tr0 as usize - band_lo) * dst_stride + tc0 as usize;
                kernel2d::sweep_band_2d(
                    dispatch,
                    taps,
                    read_buf,
                    a_org,
                    ss,
                    wspan,
                    &mut band_dst[off..],
                    dst_stride,
                    tr0 as usize,
                    tr1 as usize,
                );
            } else {
                let off = idx(a0, c0);
                kernel2d::sweep_band_2d(
                    dispatch,
                    taps,
                    read_buf,
                    a_org,
                    ss,
                    wspan,
                    &mut write_buf[off..],
                    scratch.stride,
                    a0 as usize,
                    a1 as usize,
                );
            }
        }
    }
}

/// Advances band rows `[lo, hi)` by `steps` fused time steps: reads the
/// level-0 grid `src`, writes level `steps` into `dst` (`dst[0]` =
/// element `(lo, 0)`, rows `dst_stride` apart), walking the band in
/// `th x tw` trapezoid tiles.
#[allow(clippy::too_many_arguments)]
fn band_pipeline<E: NativeElement>(
    dispatch: Dispatch,
    taps: &Taps2<E>,
    src: &[E],
    src_org: isize,
    src_stride: isize,
    h: usize,
    w: usize,
    dst: &mut [E],
    dst_stride: usize,
    lo: usize,
    hi: usize,
    steps: usize,
    (th, tw): (usize, usize),
    scratch: &mut Scratch<E>,
) {
    debug_assert!(steps >= 1);
    if steps == 1 {
        // Depth-1 superstep: a plain banded sweep, no scratch involved.
        kernel2d::sweep_band_2d(
            dispatch, taps, src, src_org, src_stride, w, dst, dst_stride, lo, hi,
        );
        return;
    }
    let mut tr0 = lo;
    while tr0 < hi {
        let tr1 = (tr0 + th).min(hi);
        let mut tc0 = 0usize;
        while tc0 < w {
            let tc1 = (tc0 + tw).min(w);
            tile_pipeline(
                dispatch,
                taps,
                src,
                src_org,
                src_stride,
                h,
                w,
                dst,
                dst_stride,
                lo,
                (tr0 as isize, tr1 as isize),
                (tc0 as isize, tc1 as isize),
                steps,
                scratch,
            );
            tc0 = tc1;
        }
        tr0 = tr1;
    }
}

/// One superstep: every band advances `steps` fused time steps from
/// `src` into `dst`. Bands own disjoint `split_at_mut` row ranges of
/// `dst` and private scratch; the pool barrier at the end is the only
/// cross-band synchronisation (the "halo exchange" is each band's
/// ghost recomputation over the shared `src` rows its trapezoids
/// cover).
#[allow(clippy::too_many_arguments)]
fn superstep<E: NativeElement>(
    pool: &ThreadPool,
    dispatch: Dispatch,
    taps: &Taps2<E>,
    src: &Grid2dT<E>,
    dst: &mut Grid2dT<E>,
    steps: usize,
    tile_hw: (usize, usize),
    scratch: &[Mutex<Scratch<E>>],
) {
    let nb = scratch.len();
    let (h, w) = (src.h(), src.w());
    let src_raw = src.raw();
    let (src_org, src_stride) = (src.origin() as isize, src.stride() as isize);
    let (b_org, b_stride) = (dst.origin(), dst.stride());
    if nb == 1 {
        let end = b_org + (h - 1) * b_stride + w;
        let dslice = &mut dst.raw_mut()[b_org..end];
        let mut sc = scratch[0].lock().unwrap_or_else(|e| e.into_inner());
        band_pipeline(
            dispatch, taps, src_raw, src_org, src_stride, h, w, dslice, b_stride, 0, h, steps,
            tile_hw, &mut sc,
        );
        return;
    }

    struct Band<'a, E> {
        dst: &'a mut [E],
        lo: usize,
        hi: usize,
    }

    let mut bands: Vec<Option<Band<E>>> = Vec::with_capacity(nb);
    let mut rest = dst.raw_mut();
    let mut consumed = 0usize;
    for t in 0..nb {
        let (lo, hi) = super::lane_span(h, nb, t);
        if lo >= hi {
            break;
        }
        let start = b_org + lo * b_stride;
        let end = b_org + (hi - 1) * b_stride + w;
        let (_, tail) = rest.split_at_mut(start - consumed);
        let (band, tail2) = tail.split_at_mut(end - start);
        rest = tail2;
        consumed = end;
        bands.push(Some(Band { dst: band, lo, hi }));
    }
    let lanes = bands.len();
    let bands = Mutex::new(bands);
    pool.run(lanes, &|lane, _| {
        // A poisoned lock just means another lane panicked; the slots
        // are still per-lane disjoint, so don't cascade the panic.
        let band = bands.lock().unwrap_or_else(|e| e.into_inner())[lane].take();
        if let Some(band) = band {
            let mut sc = scratch[lane].lock().unwrap_or_else(|e| e.into_inner());
            band_pipeline(
                dispatch, taps, src_raw, src_org, src_stride, h, w, band.dst, b_stride, band.lo,
                band.hi, steps, tile_hw, &mut sc,
            );
        }
    });
}

/// [`time_steps_temporal_in`] on the shared pool with the default
/// dispatch and [`Temporal::default`] — the default multi-sweep entry
/// point ([`super::time_steps`] routes here).
pub fn time_steps_temporal<E: NativeElement>(
    spec: &StencilSpec,
    init: &Grid2dT<E>,
    sweeps: usize,
    threads: usize,
) -> Grid2dT<E> {
    let threads = super::threads::resolve(threads);
    time_steps_temporal_in(
        ThreadPool::global(),
        Dispatch::for_sweep_dtype(spec, init.h(), init.w(), threads, E::DTYPE),
        spec,
        init,
        sweeps,
        threads,
        Temporal::default(),
    )
}

/// Runs `sweeps` time steps through the temporally-tiled pipeline on an
/// explicit pool, dispatch path and [`Temporal`] configuration; returns
/// the final state. Bit-identical to [`super::time_steps_in`] (and so
/// to `sweeps` sequential [`super::apply_2d`] calls) for every
/// configuration — tiling and banding only change the memory schedule,
/// never a single FMA.
///
/// Cache-resident working sets and depth-1 blocks are delegated to the
/// naive ping-pong unless `cfg.force_pipeline` is set.
pub fn time_steps_temporal_in<E: NativeElement>(
    pool: &ThreadPool,
    dispatch: Dispatch,
    spec: &StencilSpec,
    init: &Grid2dT<E>,
    sweeps: usize,
    threads: usize,
    cfg: Temporal,
) -> Grid2dT<E> {
    assert!(threads >= 1);
    assert_eq!(spec.dims(), 2);
    if sweeps == 0 {
        return init.clone();
    }
    init.check_stencil(spec.radius(), init)
        .unwrap_or_else(|e| panic!("native temporal sweep: {e}"));
    let r = spec.radius();
    let (h, w) = (init.h(), init.w());
    // Explicit cfg overrides trump the static defaults.
    let (th, tw) = cfg
        .tile
        .unwrap_or((tile::TEMPORAL_TILE_ROWS, tile::TEMPORAL_TILE_COLS));
    assert!(th >= 1 && tw >= 1, "temporal tile must be non-empty");
    let t_block = cfg
        .t_block
        .unwrap_or_else(|| tile::temporal_block(sweeps, r, th, tw))
        .clamp(1, sweeps);
    let working_set = 2 * (h + 2 * init.halo()) * init.stride() * std::mem::size_of::<E>();
    if !cfg.force_pipeline && (t_block == 1 || working_set <= PIPELINE_MIN_WORKING_SET) {
        return super::time_steps_in(pool, dispatch, spec, init, sweeps, threads);
    }

    let taps = Taps2::<E>::new(spec);
    let nb = if threads == 1 || h < 2 * threads {
        1
    } else {
        threads
    };
    // Check per-lane scratch out of the process-wide arena (growing
    // each slot in place to this call's shape) instead of allocating
    // fresh buffers per invocation.
    let mut slots = {
        let mut arena = E::temporal_arena()
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let take = nb.min(arena.len());
        let split = arena.len() - take;
        arena.split_off(split)
    };
    while slots.len() < nb {
        slots.push(Scratch::empty());
    }
    for sc in slots.iter_mut() {
        sc.ensure(h, w, r, t_block, th, tw);
    }
    let scratch: Vec<Mutex<Scratch<E>>> = slots.into_iter().map(Mutex::new).collect();

    // First superstep reads `init` directly; the second buffer is only
    // allocated if a second superstep exists (same shape as the naive
    // path: two halo images beyond the input, never a full clone).
    let mut done = t_block;
    let mut cur = init.halo_image();
    superstep(
        pool,
        dispatch,
        &taps,
        init,
        &mut cur,
        t_block,
        (th, tw),
        &scratch,
    );
    if done < sweeps {
        let mut ping = init.halo_image();
        while done < sweeps {
            let t = t_block.min(sweeps - done);
            superstep(
                pool,
                dispatch,
                &taps,
                &cur,
                &mut ping,
                t,
                (th, tw),
                &scratch,
            );
            std::mem::swap(&mut cur, &mut ping);
            done += t;
        }
    }
    // Park the grown slots for the next invocation.
    {
        let mut arena = E::temporal_arena()
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        arena.extend(
            scratch
                .into_iter()
                .map(|m| m.into_inner().unwrap_or_else(|e| e.into_inner())),
        );
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::Grid2d;
    use crate::native;
    use crate::stencil::presets;

    fn random_grid(h: usize, w: usize, halo: usize, seed: u64) -> Grid2d {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        Grid2d::from_fn(h, w, halo, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (1u64 << 31) as f64 - 1.0
        })
    }

    fn naive(spec: &StencilSpec, init: &Grid2d, sweeps: usize) -> Grid2d {
        let mut cur = init.clone();
        let mut next = init.clone();
        for _ in 0..sweeps {
            native::apply_2d(spec, &cur, &mut next);
            std::mem::swap(&mut cur, &mut next);
        }
        cur
    }

    #[test]
    fn forced_pipeline_is_bit_identical_across_depths_and_bands() {
        let pool = ThreadPool::new();
        for spec in presets::suite_2d() {
            let init = random_grid(21, 29, spec.radius(), 97);
            for sweeps in [1usize, 2, 5, 9] {
                let want = naive(&spec, &init, sweeps);
                for t_block in 1..=4 {
                    for threads in [1usize, 2, 5] {
                        let got = time_steps_temporal_in(
                            &pool,
                            Dispatch::detect(),
                            &spec,
                            &init,
                            sweeps,
                            threads,
                            Temporal {
                                t_block: Some(t_block),
                                force_pipeline: true,
                                tile: None,
                            },
                        );
                        assert_eq!(
                            want.max_interior_diff(&got),
                            0.0,
                            "{} sweeps={sweeps} t_block={t_block} threads={threads}",
                            spec.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shape_class_boundary() {
        assert_eq!(ShapeClass::of(256, 256), ShapeClass::Resident);
        assert_eq!(ShapeClass::of(4096, 4096), ShapeClass::Streaming);
        // 2 * 512 * 512 * 8 = 4 MiB exactly — still resident.
        assert_eq!(ShapeClass::of(512, 512), ShapeClass::Resident);
        assert_eq!(ShapeClass::of(513, 512), ShapeClass::Streaming);
        // The boundary is byte-denominated: f32 grids stay resident at
        // twice the f64 area.
        assert_eq!(
            ShapeClass::of_dtype(513, 512, Dtype::F32),
            ShapeClass::Resident
        );
        assert_eq!(
            ShapeClass::of_dtype(1025, 512, Dtype::F32),
            ShapeClass::Streaming
        );
        assert_eq!(
            ShapeClass::of_dtype(513, 512, Dtype::F64),
            ShapeClass::of(513, 512)
        );
    }

    #[test]
    fn tiny_tiles_and_deep_blocks_are_bit_identical() {
        // Tiles far smaller than the ghost width force heavy overlap
        // and clamping in both dimensions; results never change.
        let pool = ThreadPool::new();
        for spec in [presets::star2d5p(), presets::star2d9p()] {
            let init = random_grid(23, 31, spec.radius(), 41);
            let want = naive(&spec, &init, 6);
            for tile_hw in [(4usize, 8usize), (8, 16), (64, 64)] {
                let got = time_steps_temporal_in(
                    &pool,
                    Dispatch::detect(),
                    &spec,
                    &init,
                    6,
                    3,
                    Temporal {
                        t_block: Some(4),
                        force_pipeline: true,
                        tile: Some(tile_hw),
                    },
                );
                assert_eq!(
                    want.max_interior_diff(&got),
                    0.0,
                    "{} tile={tile_hw:?}",
                    spec.name()
                );
            }
        }
    }

    #[test]
    fn auto_policy_matches_naive_on_small_grids() {
        // Below the cache threshold the auto path must delegate to (and
        // agree with) the naive ping-pong.
        let spec = presets::box2d9p();
        let init = random_grid(32, 32, 1, 11);
        let got = time_steps_temporal(&spec, &init, 6, 2);
        assert_eq!(naive(&spec, &init, 6).max_interior_diff(&got), 0.0);
    }

    #[test]
    fn zero_sweeps_returns_the_input() {
        let spec = presets::star2d5p();
        let init = random_grid(8, 8, 1, 5);
        let out = time_steps_temporal(&spec, &init, 0, 3);
        assert_eq!(init.max_interior_diff(&out), 0.0);
    }

    #[test]
    fn band_taller_than_grid_and_wide_halos_still_agree() {
        // Bands narrower than the ghost width force heavy clamping of
        // the per-level ranges; extra halo beyond the radius must be
        // carried through untouched.
        let pool = ThreadPool::new();
        let spec = presets::star2d9p(); // radius 2
        let init = random_grid(11, 13, 4, 31);
        let want = naive(&spec, &init, 7);
        let got = time_steps_temporal_in(
            &pool,
            Dispatch::detect(),
            &spec,
            &init,
            7,
            4,
            Temporal {
                t_block: Some(4),
                force_pipeline: true,
                tile: None,
            },
        );
        assert_eq!(want.max_interior_diff(&got), 0.0);
    }
}
