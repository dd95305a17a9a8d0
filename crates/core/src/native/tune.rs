//! Seeded autotuner with a persisted plan cache (DESIGN.md §10).
//!
//! PR 4 hard-coded the native executor's scheduling choices: which
//! micro-kernel family runs a sweep ([`Dispatch::for_width`]), the
//! temporal trapezoid tile and the fused depth (`tile.rs` defaults).
//! This module makes them data-driven: a [`Plan`] per
//! **(pattern, radius, shape class, dtype, thread count)** key records
//! the dispatch, the temporal tile geometry and the `t_block` that
//! measured fastest on *this* host, persisted as JSON so later
//! processes (and the bench suite) reuse the decision without
//! re-measuring. The thread count is part of the key because the
//! winning schedule changes with lane count (concurrent NT streams,
//! per-lane cache share): before schema v2 a dispatch tuned
//! single-threaded silently governed saturated sweeps. The element
//! type is part of the key (schema v3) because the winning schedule
//! changes with element width too — an f32 sweep crosses the
//! streaming threshold at twice the grid area and has no hybrid
//! vector body, so an f64 plan must never govern it. The persisted
//! key additionally ends in a strategy segment (schema v4,
//! [`stored_key`]) naming whether the winner drives the spatial level
//! loop or the tempvec fused wavefront inside the trapezoid tile —
//! lookups probe both spellings, and a v1–v3 file (one or more
//! trailing dimensions missing) is rejected as stale on load and
//! re-tuned, never misapplied; within a current document a row whose
//! key carries a malformed dtype or strategy segment, or whose
//! strategy contradicts its dispatch, is dropped row-wise, not the
//! whole file.
//!
//! # Modes (`HSTENCIL_TUNE`, read once per process)
//!
//! * **`off`** — never consult or write a plan; every decision falls
//!   back to the PR 4 heuristics bit-for-bit (the escape hatch the
//!   acceptance criteria pin).
//! * **`force`** — on the first sweep per key, micro-benchmark the
//!   candidate grid ([`candidates`]) with the testkit timer **at the
//!   key's own element type** (an `f32` key measures real `f32`
//!   sweeps), memoize the winner and persist the whole set to the
//!   default cache path. Candidates that cannot win for the key's
//!   pattern/radius/dtype are pruned before anything is timed
//!   ([`prune_dominated`], skip count logged), keeping a force-mode
//!   miss to a few seconds per key.
//! * **`<path>`** — consult (never write) the plan file at `path`.
//! * **unset/empty** — consult (never write) the default cache path,
//!   `target/hstencil-tune.json`; a missing file simply means "no
//!   plans". Tier-1 `cargo test` therefore never runs the tuner: only
//!   an explicit `HSTENCIL_TUNE=force` measures anything.
//!
//! # Determinism
//!
//! Candidate enumeration is a fixed cross product, the measurement grid
//! is seeded from `TESTKIT_SEED` (testkit Xoshiro256**), ties keep the
//! first candidate, and [`run_tuner_with`] takes the measurement
//! function as an argument — the determinism property test injects a
//! synthetic cost model and asserts the same seed yields the same
//! persisted plan, byte for byte, without depending on wall-clock
//! noise.
//!
//! Plans are host-specific (they encode measured speed, and a plan
//! recorded with AVX2 degrades gracefully to "no plan" when the file
//! moves to a machine without it).
//!
//! [`Dispatch::for_width`]: super::Dispatch::for_width

use super::pool::ThreadPool;
use super::temporal::{self, Temporal};
use super::tile;
use super::Dispatch;
use crate::element::Dtype;
use crate::stencil::{Pattern, StencilSpec};
use hstencil_testkit::{Json, Rng, Summary, ToJson, Xoshiro256};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

/// Working-set classes a plan is keyed on. The boundary matches the
/// temporal executor's pipeline threshold: two grids above ~4 MiB no
/// longer fit the private caches of this host class.
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
        if 2 * h * w * dtype.size() > 4 * 1024 * 1024 {
            ShapeClass::Streaming
        } else {
            ShapeClass::Resident
        }
    }

    /// [`ShapeClass::of_dtype`] at the reference `f64` width.
    pub fn of(h: usize, w: usize) -> ShapeClass {
        ShapeClass::of_dtype(h, w, Dtype::F64)
    }

    fn label(self) -> &'static str {
        match self {
            ShapeClass::Resident => "resident",
            ShapeClass::Streaming => "streaming",
        }
    }
}

/// The **base** cache key: stencil pattern, radius, shape class,
/// element type, thread count. The *persisted* key appends one more
/// segment — the winning plan's innermost multi-sweep strategy
/// ([`stored_key`]) — so a plan file is self-describing about whether
/// the spatial level loop or the tempvec wavefront won. Lookups probe
/// both spellings of the base key.
pub fn plan_key(spec: &StencilSpec, class: ShapeClass, dtype: Dtype, threads: usize) -> String {
    let pattern = match spec.pattern() {
        Pattern::Star => "star",
        Pattern::Box => "box",
    };
    format!(
        "{pattern}/r{}/{}/{}/t{threads}",
        spec.radius(),
        class.label(),
        dtype.label()
    )
}

/// The innermost multi-sweep strategy a persisted plan records: the
/// spatial level loop (every canonical/hybrid dispatch) or the
/// temporally-vectorized fused wavefront ([`Dispatch::TempVec`]). The
/// strategy is fully determined by the dispatch — the key segment
/// spells it out so a v4 document is auditable without a dispatch
/// decoder, and parse drops rows where the two disagree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Per-level spatial sweeps inside the trapezoid tile.
    Spatial,
    /// The cross-time-step tempvec wavefront inside the tile.
    TempVec,
}

impl Strategy {
    /// The strategy `dispatch` drives in the temporal executor.
    pub fn of(dispatch: Dispatch) -> Strategy {
        match dispatch {
            Dispatch::TempVec => Strategy::TempVec,
            _ => Strategy::Spatial,
        }
    }

    /// The key segment spelling.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Spatial => "spatial",
            Strategy::TempVec => "tempvec",
        }
    }

    fn from_label(s: &str) -> Option<Strategy> {
        match s {
            "spatial" => Some(Strategy::Spatial),
            "tempvec" => Some(Strategy::TempVec),
            _ => None,
        }
    }
}

/// The persisted spelling of `base` for a plan whose winner is
/// `dispatch`: the base key with the strategy segment appended.
pub fn stored_key(base: &str, dispatch: Dispatch) -> String {
    format!("{base}/{}", Strategy::of(dispatch).label())
}

/// True when `key` carries the full schema-v4 shape: a dtype segment
/// that [`Dtype::from_label`] recognises, the `/t<lanes>` thread
/// dimension, then a strategy segment. v1–v3 keys (one or more
/// trailing dimensions missing) and hand-edited keys with a malformed
/// segment all fail this and are dropped row-wise on parse.
fn key_has_v4_shape(key: &str) -> bool {
    let mut segs = key.rsplit('/');
    let strategy_ok = segs
        .next()
        .is_some_and(|s| Strategy::from_label(s).is_some());
    let threads_ok = segs
        .next()
        .and_then(|seg| seg.strip_prefix('t'))
        .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()));
    let dtype_ok = segs.next().is_some_and(|d| Dtype::from_label(d).is_some());
    strategy_ok && threads_ok && dtype_ok
}

/// One tuned decision: which kernel family sweeps, and the temporal
/// executor's tile geometry / fused depth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Plan {
    /// Kernel family for sweeps under this key.
    pub dispatch: Dispatch,
    /// Temporal trapezoid base tile `(rows, cols)`.
    pub tile: (usize, usize),
    /// Fused time steps per temporal superstep.
    pub t_block: usize,
}

impl Plan {
    fn to_json(self, key: &str) -> Json {
        Json::object([
            ("key", key.to_json()),
            ("dispatch", self.dispatch.label().to_json()),
            ("tile_rows", self.tile.0.to_json()),
            ("tile_cols", self.tile.1.to_json()),
            ("t_block", self.t_block.to_json()),
        ])
    }

    fn from_json(row: &Json) -> Option<(String, Plan)> {
        let key = row.get("key")?.as_str()?.to_string();
        let dispatch = Dispatch::from_env_str(row.get("dispatch")?.as_str()?)?;
        let tile_rows = row.get("tile_rows")?.as_f64()? as usize;
        let tile_cols = row.get("tile_cols")?.as_f64()? as usize;
        let t_block = row.get("t_block")?.as_f64()? as usize;
        if tile_rows == 0 || tile_cols == 0 || t_block == 0 {
            return None;
        }
        Some((
            key,
            Plan {
                dispatch,
                tile: (tile_rows, tile_cols),
                t_block,
            },
        ))
    }
}

/// The persisted schema version. v1 keys had no thread dimension, so a
/// plan tuned at one lane count governed every other; v2 added
/// `/t<lanes>` but no element type, so an f64 plan governed f32 sweeps;
/// v3 inserted the dtype segment; v4 appends the innermost-strategy
/// segment ([`Strategy`]) so a key names whether the spatial level loop
/// or the tempvec wavefront won. v1–v3 documents are rejected as stale
/// (and re-tuned), never misapplied.
pub const SCHEMA_VERSION: u64 = 4;

/// The persisted plan cache: key → [`Plan`], with a JSON round-trip via
/// the testkit value model.
#[derive(Default, Clone, Debug, PartialEq)]
pub struct PlanSet {
    plans: BTreeMap<String, Plan>,
}

impl PlanSet {
    /// The plan stored under `key`, if any.
    pub fn get(&self, key: &str) -> Option<Plan> {
        self.plans.get(key).copied()
    }

    /// Stores (or replaces) the plan under `key`.
    pub fn insert(&mut self, key: String, plan: Plan) {
        self.plans.insert(key, plan);
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Serializes the set (stable order — `BTreeMap` keys — so equal
    /// sets render byte-identically).
    pub fn render(&self) -> String {
        let doc = Json::object([
            ("tool", "hstencil-tune".to_json()),
            ("version", SCHEMA_VERSION.to_json()),
            (
                "plans",
                Json::array(self.plans.iter().map(|(k, p)| p.to_json(k))),
            ),
        ]);
        doc.to_pretty() + "\n"
    }

    /// Parses a rendered set. Documents from another schema version are
    /// an error — v1 files (no thread dimension), v2 files (no dtype
    /// dimension) and v3 files (no strategy segment) are stale rather
    /// than portable: silently keeping them would let a plan tuned at
    /// one lane count, element width or strategy axis govern every
    /// other. Within a current document, unknown keys are ignored, rows
    /// whose key lacks the v4 shape (including a malformed dtype or
    /// strategy segment), or whose strategy segment contradicts the
    /// row's own dispatch, are dropped row-wise — never the whole file
    /// — and entries whose dispatch cannot run on this host are dropped
    /// (a plan file is host-specific, not portable).
    pub fn parse(text: &str) -> Result<PlanSet, String> {
        let doc = Json::parse(text).map_err(|e| e.to_string())?;
        if doc.get("tool").and_then(Json::as_str) != Some("hstencil-tune") {
            return Err("missing or wrong 'tool' tag".into());
        }
        let version = doc.get("version").and_then(Json::as_f64);
        if version != Some(SCHEMA_VERSION as f64) {
            return Err(format!(
                "stale or unknown schema version {version:?} (want {SCHEMA_VERSION}; \
                 pre-strategy-key plans must be re-tuned, not reused)"
            ));
        }
        let rows = doc
            .get("plans")
            .and_then(Json::as_array)
            .ok_or("'plans' is not an array")?;
        let mut set = PlanSet::default();
        for row in rows {
            if let Some((key, plan)) = Plan::from_json(row) {
                let consistent = key
                    .rsplit('/')
                    .next()
                    .and_then(Strategy::from_label)
                    .is_some_and(|s| s == Strategy::of(plan.dispatch));
                if key_has_v4_shape(&key) && consistent {
                    set.plans.insert(key, plan);
                }
            }
        }
        Ok(set)
    }
}

/// One point of the tuner's search grid.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Candidate {
    /// Kernel family.
    pub dispatch: Dispatch,
    /// Temporal trapezoid base tile `(rows, cols)`.
    pub tile: (usize, usize),
    /// Fused time steps per superstep.
    pub t_block: usize,
}

/// The deterministic candidate grid for one shape class:
/// {best canonical kernel, hybrid 8×8, temporally-vectorized} × tile
/// geometries × `t_block` depths. Order is fixed — the tuner breaks
/// cost ties by keeping the earliest candidate, so enumeration order
/// is part of the determinism contract (new families append after the
/// existing ones; index 0 never moves).
pub fn candidates(class: ShapeClass) -> Vec<Candidate> {
    let dispatches = [
        if Dispatch::avx2_available() {
            Dispatch::Avx2Fma
        } else {
            Dispatch::Scalar
        },
        Dispatch::Hybrid,
        // The temporally-vectorized family is runnable everywhere (its
        // scalar body is part of the bit-identity contract), so it
        // always joins the axis; on vector hosts its rows also put the
        // fused wavefront strategy up for measurement.
        Dispatch::TempVec,
    ];
    let tiles = tile::temporal_tile_candidates();
    let t_blocks: &[usize] = match class {
        // Cache-resident runs gain nothing from deep fusion.
        ShapeClass::Resident => &[1, 4],
        ShapeClass::Streaming => &[4, 8],
    };
    let mut out = Vec::new();
    for &dispatch in &dispatches {
        for &tile in &tiles {
            for &t_block in t_blocks {
                out.push(Candidate {
                    dispatch,
                    tile,
                    t_block,
                });
            }
        }
    }
    out
}

/// Picks the cheapest candidate under `measure` (lower is better; ties
/// keep the earliest). The measurement function is injected so the
/// property suite can drive the tuner with a synthetic, fully
/// deterministic cost model; production uses [`measure_wall_clock`].
pub fn run_tuner_with(class: ShapeClass, measure: &mut dyn FnMut(&Candidate) -> f64) -> Plan {
    run_tuner_over(&candidates(class), measure)
}

/// [`run_tuner_with`] over an explicit candidate list — the force-mode
/// path measures a [`prune_dominated`]-filtered grid through this.
pub fn run_tuner_over(cands: &[Candidate], measure: &mut dyn FnMut(&Candidate) -> f64) -> Plan {
    let mut best: Option<(f64, Candidate)> = None;
    for &cand in cands {
        let cost = measure(&cand);
        if best.is_none_or(|(b, _)| cost < b) {
            best = Some((cost, cand));
        }
    }
    let (_, c) = best.expect("candidate grid is never empty");
    Plan {
        dispatch: c.dispatch,
        tile: c.tile,
        t_block: c.t_block,
    }
}

/// Drops candidates that cannot win at this `dtype` before any wall
/// clock runs, returning the survivors and the skip count.
/// `HSTENCIL_TUNE=force` measures every surviving candidate with a
/// multi-sample superstep, so each pruned row saves real seconds per
/// key. One rule: the hybrid instance has no `f32` vector body (it
/// sweeps through the scalar chain), so at `f32` its rows are dominated
/// whenever the list also carries a canonical vector kernel.
///
/// Candidate 0 (the best canonical kernel) is never pruned, so the
/// grid never empties. Pure — unit-testable without a host ISA.
pub fn prune_dominated(cands: &[Candidate], dtype: Dtype) -> (Vec<Candidate>, usize) {
    let has_vector = cands
        .iter()
        .any(|c| matches!(c.dispatch, Dispatch::Avx2Fma | Dispatch::Avx512));
    let kept: Vec<Candidate> = cands
        .iter()
        .filter(|c| !(c.dispatch == Dispatch::Hybrid && dtype == Dtype::F32 && has_vector))
        .copied()
        .collect();
    let skipped = cands.len() - kept.len();
    (kept, skipped)
}

/// The `TESTKIT_SEED` override, or the testkit default — the same
/// parser the serve load generator uses, so one seed pins the tuner's
/// measurement grids and the load schedule in a single verify run.
fn tune_seed() -> u64 {
    hstencil_testkit::load::seed_from_env(0x5EED_0001)
}

/// [`measure_wall_clock_for`] at the reference `f64` element width
/// (kept as the stable name the pre-v3 tooling used).
pub fn measure_wall_clock(
    spec: &StencilSpec,
    class: ShapeClass,
    threads: usize,
) -> impl FnMut(&Candidate) -> f64 {
    measure_wall_clock_for::<f64>(spec, class, threads)
}

/// Wall-clock cost of one candidate: a `t_block`-deep forced temporal
/// superstep over a representative grid of the key's shape class
/// (normalized per fused sweep), timed with the testkit bench summary
/// (median of 3). Exercises the candidate's kernel, tile geometry and
/// fused depth in one number — at the key's own `threads` *and element
/// type*, so a plan records the schedule that actually won at that lane
/// count and width. The reference grids work for both widths: 192² is
/// cache-resident and 1280² streams (13 MiB double-buffered) even at
/// the narrow f32 element.
pub fn measure_wall_clock_for<E: super::NativeElement>(
    spec: &StencilSpec,
    class: ShapeClass,
    threads: usize,
) -> impl FnMut(&Candidate) -> f64 {
    let (h, w) = match class {
        ShapeClass::Resident => (192usize, 192usize),
        ShapeClass::Streaming => (1280usize, 1280usize),
    };
    let mut rng = Xoshiro256::seed_from_u64(tune_seed());
    let grid = crate::grid::Grid2dT::<E>::from_fn(h, w, spec.radius(), |_, _| {
        E::from_f64(rng.gen_range(-1.0..1.0))
    });
    let spec = spec.clone();
    move |cand| {
        let sweeps = cand.t_block;
        let samples: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = std::time::Instant::now();
                let out = temporal::time_steps_temporal_in(
                    ThreadPool::global(),
                    cand.dispatch,
                    &spec,
                    &grid,
                    sweeps,
                    threads,
                    Temporal {
                        t_block: Some(cand.t_block),
                        force_pipeline: true,
                        tile: Some(cand.tile),
                    },
                );
                std::hint::black_box(&out);
                t0.elapsed().as_secs_f64()
            })
            .collect();
        Summary::from_samples(&samples).median / sweeps as f64
    }
}

/// How the process resolved `HSTENCIL_TUNE`.
enum Mode {
    Off,
    Force,
    File(PathBuf),
}

fn default_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../target/hstencil-tune.json")
}

fn mode() -> &'static Mode {
    static MODE: OnceLock<Mode> = OnceLock::new();
    MODE.get_or_init(|| match std::env::var("HSTENCIL_TUNE").ok().as_deref() {
        Some("off") | Some("OFF") | Some("0") => Mode::Off,
        Some("force") => Mode::Force,
        Some(p) if !p.trim().is_empty() => Mode::File(PathBuf::from(p)),
        _ => Mode::File(default_path()),
    })
}

/// True unless `HSTENCIL_TUNE=off` — gates both plan lookups and the
/// streaming-shape hybrid heuristic in [`Dispatch::for_sweep`], so
/// `off` restores the PR 4 decision tree bit-for-bit.
///
/// [`Dispatch::for_sweep`]: super::Dispatch::for_sweep
pub fn enabled() -> bool {
    !matches!(mode(), Mode::Off)
}

/// The process-wide plan cache (loaded from the mode's file once; the
/// `force` mode also extends and persists it).
fn cache() -> &'static Mutex<PlanSet> {
    static CACHE: OnceLock<Mutex<PlanSet>> = OnceLock::new();
    CACHE.get_or_init(|| {
        let path = match mode() {
            Mode::Off => return Mutex::new(PlanSet::default()),
            Mode::Force => default_path(),
            Mode::File(p) => p.clone(),
        };
        let set = match std::fs::read_to_string(&path) {
            Ok(text) => match PlanSet::parse(&text) {
                Ok(set) => set,
                Err(e) => {
                    eprintln!(
                        "hstencil: ignoring stale or malformed tune cache {}: {e}",
                        path.display()
                    );
                    PlanSet::default()
                }
            },
            // Missing file = no plans; only `force` ever creates it.
            Err(_) => PlanSet::default(),
        };
        Mutex::new(set)
    })
}

fn persist(set: &PlanSet, path: &Path) {
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, set.render())?;
        std::fs::rename(&tmp, path)
    };
    if let Err(e) = write() {
        eprintln!(
            "hstencil: could not persist tune cache {}: {e}",
            path.display()
        );
    }
}

/// The cached plan for a 2-D sweep of `spec` over an `h x w` grid of
/// `dtype` elements split across `threads` lanes, or `None` when tuning
/// is off / nothing is recorded for the key. In `force` mode a miss
/// runs the wall-clock tuner once **at the key's own lane count and
/// element type** ([`measure_wall_clock_for`]), memoizes the winner and
/// persists the cache — an `f32` key records a real `f32` measurement,
/// never an `f64` number mislabelled as `f32`.
pub fn plan_for(
    spec: &StencilSpec,
    h: usize,
    w: usize,
    threads: usize,
    dtype: Dtype,
) -> Option<Plan> {
    if spec.dims() != 2 {
        return None;
    }
    let force = match mode() {
        Mode::Off => return None,
        Mode::Force => true,
        Mode::File(_) => false,
    };
    let class = ShapeClass::of_dtype(h, w, dtype);
    let base = plan_key(spec, class, dtype, threads);
    let mut set = cache().lock().unwrap_or_else(|e| e.into_inner());
    // The persisted key carries the winning strategy as its last
    // segment; a lookup does not know the winner yet, so it probes
    // both spellings of the base key.
    for strategy in [Strategy::Spatial, Strategy::TempVec] {
        if let Some(plan) = set.get(&format!("{base}/{}", strategy.label())) {
            return Some(plan);
        }
    }
    if !force {
        return None;
    }
    let (kept, skipped) = prune_dominated(&candidates(class), dtype);
    if skipped > 0 {
        eprintln!(
            "hstencil: tune[{base}]: pruned {skipped} dominated candidate(s) before measuring"
        );
    }
    let plan = match dtype {
        Dtype::F64 => {
            let mut measure = measure_wall_clock_for::<f64>(spec, class, threads);
            run_tuner_over(&kept, &mut measure)
        }
        Dtype::F32 => {
            let mut measure = measure_wall_clock_for::<f32>(spec, class, threads);
            run_tuner_over(&kept, &mut measure)
        }
    };
    set.insert(stored_key(&base, plan.dispatch), plan);
    persist(&set, &default_path());
    Some(plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stencil::presets;

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
    fn plan_keys_are_stable_dtype_and_thread_aware() {
        let star = presets::star2d5p();
        let boxs = presets::box2d25p();
        assert_eq!(
            plan_key(&star, ShapeClass::Streaming, Dtype::F64, 1),
            "star/r1/streaming/f64/t1"
        );
        assert_eq!(
            plan_key(&star, ShapeClass::Streaming, Dtype::F32, 4),
            "star/r1/streaming/f32/t4"
        );
        assert_eq!(
            plan_key(&boxs, ShapeClass::Resident, Dtype::F64, 16),
            "box/r2/resident/f64/t16"
        );
        // Distinct lane counts and distinct dtypes are distinct cache
        // entries.
        assert_ne!(
            plan_key(&star, ShapeClass::Streaming, Dtype::F64, 1),
            plan_key(&star, ShapeClass::Streaming, Dtype::F64, 4)
        );
        assert_ne!(
            plan_key(&star, ShapeClass::Streaming, Dtype::F64, 1),
            plan_key(&star, ShapeClass::Streaming, Dtype::F32, 1)
        );
        for threads in [1usize, 2, 4, 96] {
            for dtype in [Dtype::F32, Dtype::F64] {
                for dispatch in [Dispatch::Scalar, Dispatch::Hybrid, Dispatch::TempVec] {
                    let base = plan_key(&star, ShapeClass::Streaming, dtype, threads);
                    assert!(key_has_v4_shape(&stored_key(&base, dispatch)));
                }
            }
        }
        // The stored key appends the strategy the winner drives.
        assert_eq!(
            stored_key("star/r1/streaming/f64/t1", Dispatch::Hybrid),
            "star/r1/streaming/f64/t1/spatial"
        );
        assert_eq!(
            stored_key("star/r1/streaming/f64/t1", Dispatch::TempVec),
            "star/r1/streaming/f64/t1/tempvec"
        );
        // v1 (no thread dim), v2 (no dtype), v3 (no strategy) and
        // malformed-segment keys all fail the v4 shape check.
        assert!(!key_has_v4_shape("star/r1/streaming"));
        assert!(!key_has_v4_shape("star/r1/streaming/t4"));
        assert!(!key_has_v4_shape("star/r1/streaming/f64/t4"));
        assert!(!key_has_v4_shape("star/r1/streaming/f64/t/spatial"));
        assert!(!key_has_v4_shape("star/r1/streaming/f64/tx4/spatial"));
        assert!(!key_has_v4_shape("star/r1/streaming/f16/t4/spatial"));
        assert!(!key_has_v4_shape("star/r1/streaming/double/t4/spatial"));
        assert!(!key_has_v4_shape("star/r1/streaming/f64/t4/wavefront"));
    }

    #[test]
    fn candidate_grid_is_deterministic_and_covers_hybrid() {
        let a = candidates(ShapeClass::Streaming);
        let b = candidates(ShapeClass::Streaming);
        assert_eq!(a, b);
        assert!(a.iter().any(|c| c.dispatch == Dispatch::Hybrid));
        assert!(a.iter().any(|c| c.dispatch != Dispatch::Hybrid));
        assert!(a.len() >= 4);
    }

    #[test]
    fn candidate_grid_keeps_its_kernel_order() {
        for class in [ShapeClass::Resident, ShapeClass::Streaming] {
            let cands = candidates(class);
            // Index 0 is still the best canonical kernel — the flat
            // tie-break contract pins it; hybrid and tempvec follow.
            assert!(matches!(
                cands[0].dispatch,
                Dispatch::Avx2Fma | Dispatch::Scalar
            ));
            let mut axis: Vec<Dispatch> = cands.iter().map(|c| c.dispatch).collect();
            axis.dedup();
            assert_eq!(axis[1..], [Dispatch::Hybrid, Dispatch::TempVec]);
        }
    }

    #[test]
    fn prune_drops_f32_hybrid_only_when_a_vector_kernel_is_on_the_axis() {
        let grid: Vec<Candidate> = [Dispatch::Avx2Fma, Dispatch::Hybrid, Dispatch::TempVec]
            .iter()
            .map(|&dispatch| Candidate {
                dispatch,
                tile: (64, 512),
                t_block: 4,
            })
            .collect();
        let (kept, skipped) = prune_dominated(&grid, Dtype::F32);
        assert_eq!(skipped, 1);
        assert!(!kept.iter().any(|c| c.dispatch == Dispatch::Hybrid));
        assert_eq!(kept[0].dispatch, Dispatch::Avx2Fma, "index 0 survives");
        // At f64 the hybrid has a real vector body — kept.
        assert_eq!(prune_dominated(&grid, Dtype::F64), (grid.clone(), 0));
        // With no vector kernel on the axis (scalar-only host) the
        // hybrid is kept even at f32.
        let scalar_grid = grid[1..].to_vec();
        assert_eq!(
            prune_dominated(&scalar_grid, Dtype::F32),
            (scalar_grid.clone(), 0)
        );
    }

    #[test]
    fn tuner_picks_argmin_and_breaks_ties_by_order() {
        // Synthetic cost model: hybrid always 1.0, everything else 2.0.
        let mut measure = |c: &Candidate| {
            if c.dispatch == Dispatch::Hybrid {
                1.0
            } else {
                2.0
            }
        };
        let plan = run_tuner_with(ShapeClass::Streaming, &mut measure);
        assert_eq!(plan.dispatch, Dispatch::Hybrid);
        // Ties keep the earliest candidate: with a constant model the
        // winner is exactly candidates()[0].
        let mut flat = |_: &Candidate| 1.0;
        let first = candidates(ShapeClass::Streaming)[0];
        let plan = run_tuner_with(ShapeClass::Streaming, &mut flat);
        assert_eq!(
            (plan.dispatch, plan.tile, plan.t_block),
            (first.dispatch, first.tile, first.t_block)
        );
    }

    #[test]
    fn force_mode_f32_keys_round_trip_a_real_measurement() {
        // ISSUE 8 satellite (ROADMAP item 3 follow-on): an f32 key can
        // now carry a *real* measurement. Run the actual wall-clock
        // tuner at f32 over the resident-class reference grid — the
        // same measurement `plan_for` performs on an f32 force-mode
        // miss — store the winner under the v3 f32 key, and prove the
        // measurement survives the persisted document round trip.
        let star = presets::star2d5p();
        let class = ShapeClass::Resident;
        let mut measure = measure_wall_clock_for::<f32>(&star, class, 1);
        let plan = run_tuner_with(class, &mut measure);
        // The winner is a member of the candidate grid — a measured
        // candidate, not a fabricated default.
        assert!(
            candidates(class).iter().any(
                |c| (c.dispatch, c.tile, c.t_block) == (plan.dispatch, plan.tile, plan.t_block)
            ),
            "tuned f32 plan {plan:?} is not a candidate"
        );

        let base = plan_key(&star, class, Dtype::F32, 1);
        assert_eq!(base, "star/r1/resident/f32/t1");
        let key = stored_key(&base, plan.dispatch);
        let mut set = PlanSet::default();
        set.insert(key.clone(), plan);
        let back = PlanSet::parse(&set.render()).expect("persisted f32 plan parses");
        assert_eq!(
            back.get(&key),
            Some(plan),
            "f32 key must round-trip the measured plan"
        );
    }

    #[test]
    fn plan_set_round_trips_byte_identically() {
        let mut set = PlanSet::default();
        set.insert(
            "star/r1/streaming/f64/t1/spatial".into(),
            Plan {
                dispatch: Dispatch::Hybrid,
                tile: (128, 512),
                t_block: 8,
            },
        );
        set.insert(
            "star/r1/streaming/f32/t4/tempvec".into(),
            Plan {
                dispatch: Dispatch::TempVec,
                tile: (128, 512),
                t_block: 4,
            },
        );
        set.insert(
            "box/r2/resident/f64/t2/spatial".into(),
            Plan {
                dispatch: Dispatch::Scalar,
                tile: (64, 512),
                t_block: 1,
            },
        );
        let text = set.render();
        let back = PlanSet::parse(&text).unwrap();
        assert_eq!(back, set);
        assert_eq!(back.render(), text, "stable byte-for-byte rendering");
    }

    #[test]
    fn parse_rejects_foreign_documents() {
        assert!(PlanSet::parse("{}").is_err());
        assert!(PlanSet::parse("not json").is_err());
        assert!(PlanSet::parse("{\"tool\":\"hstencil-tune\",\"version\":4,\"plans\":4}").is_err());
    }

    #[test]
    fn parse_rejects_stale_v1_documents() {
        // The exact shape PR 5 persisted: version 1, keys without a
        // thread dimension. Reusing such a plan would let a
        // single-thread tuning govern saturated sweeps, so the file is
        // rejected as stale (the loader warns and re-tunes), never
        // partially applied.
        let v1 = "{\"tool\":\"hstencil-tune\",\"version\":1,\"plans\":[\
                  {\"key\":\"star/r1/streaming\",\"dispatch\":\"hybrid8x8\",\
                  \"tile_rows\":128,\"tile_cols\":512,\"t_block\":8}]}";
        let err = PlanSet::parse(v1).unwrap_err();
        assert!(err.contains("stale"), "{err}");
        assert!(err.contains("version"), "{err}");
        // Versionless documents are equally stale.
        let v0 = "{\"tool\":\"hstencil-tune\",\"plans\":[]}";
        assert!(PlanSet::parse(v0).is_err());
    }

    #[test]
    fn parse_rejects_stale_v2_documents() {
        // The exact shape PR 6 persisted: version 2, thread-keyed but
        // dtype-free. An f64-tuned plan must not govern f32 sweeps, so
        // the whole document is stale — the loader warns once, falls
        // back to an empty set, and `force` mode re-tunes from scratch.
        let v2 = "{\"tool\":\"hstencil-tune\",\"version\":2,\"plans\":[\
                  {\"key\":\"star/r1/streaming/t4\",\"dispatch\":\"hybrid8x8\",\
                  \"tile_rows\":128,\"tile_cols\":512,\"t_block\":8}]}";
        let err = PlanSet::parse(v2).unwrap_err();
        assert!(err.contains("stale"), "{err}");
        assert!(err.contains("version"), "{err}");
        assert!(err.contains("re-tuned"), "{err}");
    }

    #[test]
    fn parse_rejects_stale_v3_documents() {
        // The exact shape PR 8 persisted: version 3, dtype-keyed but
        // strategy-free. A v3 plan predates the tempvec wavefront axis
        // entirely — its "winner" never competed against the fused
        // strategy — so the whole document is stale: the loader warns
        // once, falls back to an empty set, and `force` mode re-tunes.
        let v3 = "{\"tool\":\"hstencil-tune\",\"version\":3,\"plans\":[\
                  {\"key\":\"star/r1/streaming/f64/t4\",\"dispatch\":\"hybrid8x8\",\
                  \"tile_rows\":128,\"tile_cols\":512,\"t_block\":8}]}";
        let err = PlanSet::parse(v3).unwrap_err();
        assert!(err.contains("stale"), "{err}");
        assert!(err.contains("version"), "{err}");
        assert!(err.contains("pre-strategy-key"), "{err}");
        assert!(err.contains("re-tuned"), "{err}");
    }

    #[test]
    fn parse_drops_rows_whose_strategy_contradicts_their_dispatch() {
        // The strategy segment is redundant with the dispatch by
        // construction; a hand-edited row where they disagree is
        // ambiguous about what was actually measured and is dropped
        // row-wise, keeping its well-formed neighbours.
        let text = "{\"tool\":\"hstencil-tune\",\"version\":4,\"plans\":[\
                    {\"key\":\"star/r1/streaming/f64/t1/tempvec\",\"dispatch\":\"scalar\",\
                    \"tile_rows\":128,\"tile_cols\":512,\"t_block\":8},\
                    {\"key\":\"star/r1/streaming/f64/t2/spatial\",\"dispatch\":\"tempvec\",\
                    \"tile_rows\":128,\"tile_cols\":512,\"t_block\":8},\
                    {\"key\":\"star/r1/streaming/f64/t4/tempvec\",\"dispatch\":\"tempvec\",\
                    \"tile_rows\":128,\"tile_cols\":512,\"t_block\":8}]}";
        let set = PlanSet::parse(text).unwrap();
        assert_eq!(set.len(), 1, "only the consistent row survives");
        assert_eq!(
            set.get("star/r1/streaming/f64/t4/tempvec")
                .map(|p| p.dispatch),
            Some(Dispatch::TempVec)
        );
    }

    #[test]
    fn parse_drops_malformed_dtype_rows_row_wise() {
        // A current-version document smuggling dtype-free or
        // unknown-dtype keys (hand-edited, or merged from an old file)
        // has those rows dropped individually — the well-formed rows in
        // the same file survive.
        let text = "{\"tool\":\"hstencil-tune\",\"version\":4,\"plans\":[\
                    {\"key\":\"star/r1/streaming/t2/spatial\",\"dispatch\":\"scalar\",\
                    \"tile_rows\":128,\"tile_cols\":512,\"t_block\":8},\
                    {\"key\":\"star/r1/streaming/f16/t2/spatial\",\"dispatch\":\"scalar\",\
                    \"tile_rows\":128,\"tile_cols\":512,\"t_block\":8},\
                    {\"key\":\"star/r1/streaming/f32/t2/spatial\",\"dispatch\":\"scalar\",\
                    \"tile_rows\":128,\"tile_cols\":512,\"t_block\":8},\
                    {\"key\":\"star/r1/streaming/f64/t2/spatial\",\"dispatch\":\"scalar\",\
                    \"tile_rows\":128,\"tile_cols\":512,\"t_block\":8}]}";
        let set = PlanSet::parse(text).unwrap();
        assert_eq!(set.len(), 2, "only the dtype-valid rows survive");
        assert!(set.get("star/r1/streaming/t2/spatial").is_none());
        assert!(set.get("star/r1/streaming/f16/t2/spatial").is_none());
        assert!(set.get("star/r1/streaming/f32/t2/spatial").is_some());
        assert!(set.get("star/r1/streaming/f64/t2/spatial").is_some());
    }

    #[test]
    fn parse_drops_unrunnable_entries() {
        // A dispatch label this host cannot run (or garbage) is dropped,
        // not an error — plan files are host-specific.
        let text = "{\"tool\":\"hstencil-tune\",\"version\":4,\"plans\":[\
                    {\"key\":\"star/r1/streaming/f64/t1/spatial\",\"dispatch\":\"riscv-rvv\",\
                    \"tile_rows\":128,\"tile_cols\":512,\"t_block\":8}]}";
        let set = PlanSet::parse(text).unwrap();
        assert!(set.is_empty());
    }

    #[test]
    fn retired_reuse_dispatch_rows_are_dropped_and_the_rest_load() {
        // Plan files written before the reuse kernels were retired may
        // name them; those rows drop, every other row still loads.
        let text = "{\"tool\":\"hstencil-tune\",\"version\":4,\"plans\":[\
                    {\"key\":\"star/r1/streaming/f64/t1/spatial\",\"dispatch\":\"avx2+reuse\",\
                    \"tile_rows\":128,\"tile_cols\":512,\"t_block\":8},\
                    {\"key\":\"star/r1/resident/f64/t1/spatial\",\"dispatch\":\"avx512+reuse\",\
                    \"tile_rows\":64,\"tile_cols\":256,\"t_block\":4},\
                    {\"key\":\"box/r1/streaming/f64/t2/spatial\",\"dispatch\":\"scalar\",\
                    \"tile_rows\":64,\"tile_cols\":256,\"t_block\":4}]}";
        let set = PlanSet::parse(text).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(
            set.get("box/r1/streaming/f64/t2/spatial")
                .map(|p| p.dispatch),
            Some(Dispatch::Scalar)
        );
    }

    #[test]
    fn rendered_sets_round_trip_through_the_current_version() {
        // What render() writes, parse() accepts — the old-format
        // rejection above must never bite the current writer.
        let mut set = PlanSet::default();
        set.insert(
            "box/r1/streaming/f64/t8/spatial".into(),
            Plan {
                dispatch: Dispatch::Scalar,
                tile: (64, 256),
                t_block: 2,
            },
        );
        set.insert(
            "box/r1/streaming/f64/t4/tempvec".into(),
            Plan {
                dispatch: Dispatch::TempVec,
                tile: (64, 256),
                t_block: 4,
            },
        );
        let text = set.render();
        assert!(text.contains("\"version\": 4"), "{text}");
        assert_eq!(PlanSet::parse(&text).unwrap(), set);
    }
}
