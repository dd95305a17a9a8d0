//! CI gate for `BENCH_native.json` (scripts/verify.sh): the file must
//! exist, parse with the testkit JSON reader, and carry the
//! median/p10/p90 + throughput fields for at least six
//! (stencil, size, sweeps, threads) configurations.
//!
//! Optional perf gates: `--gate-temporal=SIZE:MINRATIO` fails unless
//! the star2d5p multi-sweep rows at `SIZE` show
//! `naive_median / temporal_median >= MINRATIO` (e.g. `4096:1.3` pins
//! the recorded temporal speedup; `2048:0.91` lets a smoke run tolerate
//! 10% noise but still catches the pipeline regressing to slower than
//! the naive ping-pong). `--gate-hybrid=SIZE:MINRATIO` does the same
//! for the single-sweep single-thread star2d5p rows: best avx2+fma
//! median / best hybrid8x8 median must reach MINRATIO (the acceptance
//! gate is `4096:1.10`; smoke runs use a loose `4096:0.9`). Both may be
//! passed more than once.
//!
//! `--gate-threads=SIZE:LANES:MINRATIO` gates multi-core scaling: the
//! best single-sweep star2d5p median at `LANES` threads must beat the
//! best at 1 thread by `MINRATIO` (the acceptance gate is
//! `4096:4:1.6`). When the artifact's recorded `host_threads` is below
//! `LANES` the gate is *skipped with a notice* rather than failed — a
//! 1-core recorder cannot genuinely run 4 lanes, and failing there
//! would just teach people to delete the gate. All gate flags may be
//! passed more than once.
//!
//! `--gate-f32=SIZE:MINRATIO` gates element-width scaling: the best
//! single-sweep single-thread star2d5p f64 median at `SIZE` divided by
//! the best f32 median must reach `MINRATIO` (the acceptance gate is
//! `256:1.3` — in-cache, f32 retires twice the lanes per FMA). When
//! the artifact carries *no* f32 rows at `SIZE` — recorded before the
//! `native2d_f32` group existed, or by a bench tier that skipped it —
//! the gate is skipped with a notice naming the absent group, never
//! silently passed and never failed. The pre-dtype gates above always
//! compare f64 rows only (rows without a `dtype` field are f64).
//!
//! `--gate-tempvec=SIZE:SWEEPS:MINRATIO` gates the temporally
//! vectorized wavefront family (DESIGN.md §15): the single-thread f64
//! star2d5p `temporal` median at `SIZE`/`SWEEPS` divided by the
//! `tempvec` median at the same point must reach `MINRATIO` (the
//! acceptance gate is `4096:8:1.05`; smoke runs use `2048:8:0.9`).
//! Unlike `--gate-threads`, all three fields are mandatory because
//! temporal vectorization's payoff scales with the sweep count — a
//! gate that floated over sweep depths would pin nothing. An artifact
//! with no `tempvec` rows at that point skips with a notice naming
//! the absent `native2d_tempvec` group (the group is AVX2-gated at
//! record time), never silently passed and never failed.
//!
//! The tool also validates **serve latency artifacts** (`bench` tag
//! `serve_load_gen`, written by `benches/serve.rs` as
//! `BENCH_serve.json`): every scenario must carry the job accounting and
//! p50/p90/p99/max latency fields, have completed at least one job, and
//! have failed none. `--gate-latency=P99_MS` then fails unless *every*
//! scenario's `p99_ms` is at or below the bound (the acceptance gate;
//! smoke runs use a deliberately loose bound on this shared 1-core
//! host). Gate flags are per-document-kind: a latency gate on a native
//! artifact — or a native gate on a serve artifact — is a usage error,
//! not a silent pass.
//!
//! Exit codes: 0 ok, 1 malformed/incomplete/gate failure, 2
//! missing/unreadable.

use hstencil_testkit::Json;

/// Outcome of one `--gate-f32` evaluation, factored pure so the
/// absent-group skip contract is unit-testable.
#[derive(Debug, PartialEq)]
enum F32Gate {
    /// Ratio met the bound.
    Ok(f64),
    /// The artifact has no f32 rows at this size — skip with a notice.
    Skipped(String),
    /// Rows present, ratio below the bound.
    Fail(String),
}

/// Evaluates one f32 gate over `(size, dtype, median_s)` tuples of the
/// single-sweep single-thread non-seed star2d5p rows.
fn eval_f32_gate(rows: &[(f64, String, f64)], size: f64, min_ratio: f64) -> F32Gate {
    let best = |dtype: &str| {
        rows.iter()
            .filter(|(s, d, _)| *s == size && d == dtype)
            .map(|(_, _, m)| *m)
            .min_by(f64::total_cmp)
    };
    let f32_best = match best("f32") {
        Some(m) if m > 0.0 => m,
        _ => {
            return F32Gate::Skipped(format!(
                "f32 gate {size}^2 SKIPPED (no f32 rows at this size — the artifact \
                 predates the native2d_f32 bench group or the recording tier skipped it)"
            ))
        }
    };
    let f64_best = match best("f64") {
        Some(m) if m > 0.0 => m,
        _ => {
            return F32Gate::Fail(format!(
                "f32 rows exist at {size}^2 but no f64 denominator row does"
            ))
        }
    };
    let ratio = f64_best / f32_best;
    if ratio < min_ratio {
        F32Gate::Fail(format!(
            "f32 speedup at {size}^2 is {ratio:.3}x (f64 {f64_best:.4}s / \
             f32 {f32_best:.4}s), below the {min_ratio} gate"
        ))
    } else {
        F32Gate::Ok(ratio)
    }
}

/// Outcome of one `--gate-tempvec` evaluation, factored pure like
/// [`eval_f32_gate`] so the absent-group skip contract is unit-testable.
#[derive(Debug, PartialEq)]
enum TempVecGate {
    /// Ratio met the bound.
    Ok(f64),
    /// The artifact has no tempvec rows at this (size, sweeps) — skip.
    Skipped(String),
    /// Rows present, ratio below the bound (or no denominator).
    Fail(String),
}

/// Parses one `--gate-tempvec=SIZE:SWEEPS:MINRATIO` spec. All three
/// fields are mandatory (see the module doc: the payoff of temporal
/// vectorization scales with sweep depth, so a sweep-free gate would
/// pin nothing) and `SWEEPS` must be at least 2 — a one-sweep run has
/// no cross-time-step reuse for the wavefront to exploit, so gating
/// there only measures noise. Factored pure (no process exit) so the
/// malformed-input behavior is unit-testable.
fn parse_tempvec_gate(spec: &str) -> Result<(f64, f64, f64), String> {
    let mut it = spec.split(':');
    match (
        it.next().and_then(|s| s.parse::<f64>().ok()),
        it.next().and_then(|s| s.parse::<f64>().ok()),
        it.next().and_then(|s| s.parse::<f64>().ok()),
        it.next(),
    ) {
        (Some(size), Some(sweeps), Some(ratio), None) if sweeps >= 2.0 => Ok((size, sweeps, ratio)),
        _ => Err(format!(
            "bad --gate-tempvec spec '{spec}' (want SIZE:SWEEPS:MINRATIO, SWEEPS >= 2)"
        )),
    }
}

/// Evaluates one tempvec gate over `(size, sweeps, kernel, median_s)`
/// tuples of the single-thread f64 star2d5p multi-sweep rows: the
/// `temporal` (spatial trapezoid pipeline) median divided by the
/// `tempvec` (time-skewed wavefront) median at the same point must
/// reach `min_ratio`.
fn eval_tempvec_gate(
    rows: &[(f64, f64, String, f64)],
    size: f64,
    sweeps: f64,
    min_ratio: f64,
) -> TempVecGate {
    let median = |kernel: &str| {
        rows.iter()
            .find(|(s, sw, k, _)| *s == size && *sw == sweeps && k == kernel)
            .map(|(_, _, _, m)| *m)
    };
    let tempvec = match median("tempvec") {
        Some(m) if m > 0.0 => m,
        _ => {
            return TempVecGate::Skipped(format!(
                "tempvec gate {size}^2 s{sweeps} SKIPPED (no tempvec rows at this point — \
                 the artifact predates the native2d_tempvec bench group or was recorded \
                 on a host without AVX2)"
            ))
        }
    };
    let temporal = match median("temporal") {
        Some(m) if m > 0.0 => m,
        _ => {
            return TempVecGate::Fail(format!(
                "tempvec rows exist at {size}^2 s{sweeps} but no temporal denominator row does"
            ))
        }
    };
    let ratio = temporal / tempvec;
    if ratio < min_ratio {
        TempVecGate::Fail(format!(
            "tempvec speedup at {size}^2 s{sweeps} is {ratio:.3}x (temporal {temporal:.4}s / \
             tempvec {tempvec:.4}s), below the {min_ratio} gate"
        ))
    } else {
        TempVecGate::Ok(ratio)
    }
}

/// Outcome of one `--gate-latency` evaluation over `(scenario, p99_ms)`
/// pairs, factored pure so the every-scenario contract is unit-testable.
#[derive(Debug, PartialEq)]
enum LatencyGate {
    /// Every scenario's p99 met the bound; carries the worst one.
    Ok(f64),
    /// No scenarios, or some scenario's p99 exceeded the bound.
    Fail(String),
}

/// Evaluates one latency gate: every scenario's `p99_ms` must be at or
/// below `max_ms`. An artifact with no scenarios cannot attest anything
/// and fails rather than vacuously passing.
fn eval_latency_gate(scenarios: &[(String, f64)], max_ms: f64) -> LatencyGate {
    let worst = scenarios.iter().max_by(|a, b| f64::total_cmp(&a.1, &b.1));
    match worst {
        None => LatencyGate::Fail("latency gate over zero scenarios proves nothing".to_string()),
        Some((name, p99)) if *p99 > max_ms => LatencyGate::Fail(format!(
            "scenario '{name}' p99 latency {p99:.3} ms exceeds the {max_ms} ms gate"
        )),
        Some((_, p99)) => LatencyGate::Ok(*p99),
    }
}

fn fail(code: i32, msg: String) -> ! {
    eprintln!("check_bench_json: {msg}");
    std::process::exit(code);
}

/// Validates a serve latency artifact (`bench` tag `serve_load_gen`) and
/// applies any `--gate-latency` bounds. Scenario schema: job accounting
/// must balance (at least one completion, zero failures — a serve run
/// that failed jobs is broken regardless of how fast it was) and the
/// latency order statistics must be finite and correctly ordered.
fn check_serve(path: &str, doc: &Json, latency_gates: &[f64]) {
    let scenarios = match doc.get("scenarios").and_then(Json::as_array) {
        Some(s) if !s.is_empty() => s,
        _ => fail(1, format!("{path}: 'scenarios' is missing or empty")),
    };
    let mut p99s: Vec<(String, f64)> = Vec::new();
    for (i, row) in scenarios.iter().enumerate() {
        let name = row
            .get("scenario")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail(1, format!("{path}: scenarios[{i}] lacks 'scenario'")));
        let num = |key: &str| -> f64 {
            match row.get(key).and_then(Json::as_f64) {
                Some(v) if v.is_finite() && v >= 0.0 => v,
                _ => fail(
                    1,
                    format!("{path}: scenarios[{i}] ({name}) lacks finite non-negative '{key}'"),
                ),
            }
        };
        for key in [
            "jobs",
            "submitted",
            "rejected",
            "batches",
            "batched_jobs",
            "mean_ms",
            "wall_s",
            "jobs_per_s",
        ] {
            num(key);
        }
        if num("completed") < 1.0 {
            fail(
                1,
                format!("{path}: scenarios[{i}] ({name}) completed no jobs"),
            );
        }
        if num("failed") != 0.0 {
            fail(
                1,
                format!(
                    "{path}: scenarios[{i}] ({name}) recorded failed jobs — a latency \
                     number over a failing server attests nothing"
                ),
            );
        }
        let (p50, p90, p99, max) = (num("p50_ms"), num("p90_ms"), num("p99_ms"), num("max_ms"));
        if !(p50 <= p90 && p90 <= p99 && p99 <= max) {
            fail(
                1,
                format!(
                    "{path}: scenarios[{i}] ({name}) latency percentiles out of order \
                     (p50 {p50}, p90 {p90}, p99 {p99}, max {max})"
                ),
            );
        }
        p99s.push((name.to_string(), p99));
    }
    for max_ms in latency_gates {
        match eval_latency_gate(&p99s, *max_ms) {
            LatencyGate::Ok(worst) => println!(
                "check_bench_json: latency gate ok (worst scenario p99 {worst:.3} ms <= {max_ms} ms)"
            ),
            LatencyGate::Fail(msg) => fail(1, format!("{path}: {msg}")),
        }
    }
    println!(
        "check_bench_json: {path} ok ({} serve scenarios)",
        scenarios.len()
    );
}

fn main() {
    let mut path: Option<String> = None;
    let mut gates: Vec<(f64, f64)> = Vec::new();
    let mut hybrid_gates: Vec<(f64, f64)> = Vec::new();
    let mut thread_gates: Vec<(f64, f64, f64)> = Vec::new();
    let mut f32_gates: Vec<(f64, f64)> = Vec::new();
    let mut tempvec_gates: Vec<(f64, f64, f64)> = Vec::new();
    let mut latency_gates: Vec<f64> = Vec::new();
    let parse_gate = |flag: &str, spec: &str| -> (f64, f64) {
        spec.split_once(':')
            .and_then(|(size, ratio)| Some((size.parse::<f64>().ok()?, ratio.parse::<f64>().ok()?)))
            .unwrap_or_else(|| fail(1, format!("bad {flag} spec '{spec}' (want SIZE:MINRATIO)")))
    };
    let parse_thread_gate = |spec: &str| -> (f64, f64, f64) {
        let mut it = spec.split(':');
        match (
            it.next().and_then(|s| s.parse::<f64>().ok()),
            it.next().and_then(|s| s.parse::<f64>().ok()),
            it.next().and_then(|s| s.parse::<f64>().ok()),
            it.next(),
        ) {
            (Some(size), Some(lanes), Some(ratio), None) if lanes >= 2.0 => (size, lanes, ratio),
            _ => fail(
                1,
                format!("bad --gate-threads spec '{spec}' (want SIZE:LANES:MINRATIO, LANES >= 2)"),
            ),
        }
    };
    for arg in std::env::args().skip(1) {
        if let Some(spec) = arg.strip_prefix("--gate-temporal=") {
            gates.push(parse_gate("--gate-temporal", spec));
        } else if let Some(spec) = arg.strip_prefix("--gate-hybrid=") {
            hybrid_gates.push(parse_gate("--gate-hybrid", spec));
        } else if let Some(spec) = arg.strip_prefix("--gate-threads=") {
            thread_gates.push(parse_thread_gate(spec));
        } else if let Some(spec) = arg.strip_prefix("--gate-f32=") {
            f32_gates.push(parse_gate("--gate-f32", spec));
        } else if let Some(spec) = arg.strip_prefix("--gate-tempvec=") {
            match parse_tempvec_gate(spec) {
                Ok(gate) => tempvec_gates.push(gate),
                Err(msg) => fail(1, msg),
            }
        } else if let Some(spec) = arg.strip_prefix("--gate-latency=") {
            match spec.parse::<f64>() {
                Ok(ms) if ms > 0.0 && ms.is_finite() => latency_gates.push(ms),
                _ => fail(
                    1,
                    format!("bad --gate-latency spec '{spec}' (want a positive P99 bound in ms)"),
                ),
            }
        } else {
            path = Some(arg);
        }
    }
    let path = path.unwrap_or_else(|| "BENCH_native.json".to_string());
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => fail(2, format!("cannot read {path}: {e}")),
    };
    let doc = match Json::parse(&text) {
        Ok(d) => d,
        Err(e) => fail(1, format!("{path}: {e}")),
    };
    match doc.get("bench").and_then(Json::as_str) {
        Some("native_executor_v2") => {
            if !latency_gates.is_empty() {
                fail(
                    1,
                    format!(
                        "{path}: --gate-latency applies to serve artifacts \
                         (bench tag 'serve_load_gen'), not native ones"
                    ),
                );
            }
        }
        Some("serve_load_gen") => {
            if !(gates.is_empty()
                && hybrid_gates.is_empty()
                && thread_gates.is_empty()
                && f32_gates.is_empty()
                && tempvec_gates.is_empty())
            {
                fail(
                    1,
                    format!("{path}: native perf gates do not apply to a serve latency artifact"),
                );
            }
            check_serve(&path, &doc, &latency_gates);
            return;
        }
        _ => fail(1, format!("{path}: missing or wrong 'bench' tag")),
    }
    let results = match doc.get("results").and_then(Json::as_array) {
        Some(r) => r,
        None => fail(1, format!("{path}: 'results' is not an array")),
    };
    let mut configs = std::collections::BTreeSet::new();
    // (size, kernel) -> median_s, for the star2d5p multi-sweep gates.
    let mut multisweep: Vec<(f64, String, f64)> = Vec::new();
    // (size, kernel) -> median_s for the single-sweep single-thread
    // star2d5p rows (the hybrid-kernel gate). A kernel can appear in
    // both the main and the hybrid bench group; keep every row and
    // compare best against best.
    let mut single: Vec<(f64, String, f64)> = Vec::new();
    // (size, threads) -> median_s across every single-sweep star2d5p
    // row (the scaling gate compares best-of-any-kernel at LANES
    // against best-of-any-kernel at 1 thread).
    let mut scaling: Vec<(f64, f64, f64)> = Vec::new();
    // (size, dtype) -> median_s for the single-sweep single-thread
    // non-seed star2d5p rows at every element width (the f32 gate).
    let mut widths: Vec<(f64, String, f64)> = Vec::new();
    // (size, sweeps, kernel) -> median_s for the single-thread f64
    // star2d5p multi-sweep rows. The plain `multisweep` collection
    // above folds the sweep axis away, but the tempvec gate is pinned
    // to one sweep depth (the wavefront's payoff scales with it), so
    // it needs its own collection that keeps sweeps.
    let mut tempsweep: Vec<(f64, f64, String, f64)> = Vec::new();
    for (i, row) in results.iter().enumerate() {
        let stencil = row
            .get("stencil")
            .and_then(Json::as_str)
            .unwrap_or_else(|| fail(1, format!("{path}: results[{i}] lacks 'stencil'")));
        for key in ["median_s", "p10_s", "p90_s", "elems_per_s"] {
            match row.get(key).and_then(Json::as_f64) {
                Some(v) if v > 0.0 && v.is_finite() => {}
                _ => fail(
                    1,
                    format!("{path}: results[{i}] ({stencil}) lacks positive '{key}'"),
                ),
            }
        }
        let size = row
            .get("size")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| fail(1, format!("{path}: results[{i}] ({stencil}) lacks 'size'")));
        let sweeps = match row.get("sweeps").and_then(Json::as_f64) {
            Some(s) if s >= 1.0 => s,
            _ => fail(
                1,
                format!("{path}: results[{i}] ({stencil}) lacks positive 'sweeps'"),
            ),
        };
        let threads = row
            .get("threads")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| {
                fail(
                    1,
                    format!("{path}: results[{i}] ({stencil}) lacks 'threads'"),
                )
            });
        // Rows recorded before the dtype axis existed are all f64.
        let dtype = row.get("dtype").and_then(Json::as_str).unwrap_or("f64");
        if stencil == "star2d5p" && sweeps > 1.0 && dtype == "f64" {
            let kernel = row
                .get("kernel")
                .and_then(Json::as_str)
                .unwrap_or_else(|| fail(1, format!("{path}: results[{i}] lacks 'kernel'")));
            let median = row.get("median_s").and_then(Json::as_f64).unwrap();
            multisweep.push((size, kernel.to_string(), median));
            if threads == 1.0 {
                tempsweep.push((size, sweeps, kernel.to_string(), median));
            }
        }
        if stencil == "star2d5p" && sweeps == 1.0 && threads == 1.0 {
            if let Some(kernel) = row.get("kernel").and_then(Json::as_str) {
                let median = row.get("median_s").and_then(Json::as_f64).unwrap();
                if dtype == "f64" {
                    single.push((size, kernel.to_string(), median));
                }
                if kernel != "seed" {
                    widths.push((size, dtype.to_string(), median));
                }
            }
        }
        if stencil == "star2d5p" && sweeps == 1.0 && dtype == "f64" {
            if let Some(kernel) = row.get("kernel").and_then(Json::as_str) {
                // The seed executor ignores the pool; keep it out of
                // the scaling denominator.
                if kernel != "seed" {
                    let median = row.get("median_s").and_then(Json::as_f64).unwrap();
                    scaling.push((size, threads, median));
                }
            }
        }
        configs.insert(format!("{stencil}/{size}/s{sweeps}/{threads}"));
    }
    if configs.len() < 6 {
        fail(
            1,
            format!(
                "{path}: only {} distinct (stencil, size, sweeps, threads) configurations; need >= 6",
                configs.len()
            ),
        );
    }
    for (size, min_ratio) in &gates {
        let median = |kernel: &str| {
            multisweep
                .iter()
                .find(|(s, k, _)| s == size && k == kernel)
                .map(|(_, _, m)| *m)
        };
        let (naive, temporal) = match (median("naive"), median("temporal")) {
            (Some(n), Some(t)) if t > 0.0 => (n, t),
            _ => fail(
                1,
                format!("{path}: no star2d5p multi-sweep naive/temporal pair at size {size}"),
            ),
        };
        let ratio = naive / temporal;
        if ratio < *min_ratio {
            fail(
                1,
                format!(
                    "{path}: temporal speedup at {size}^2 is {ratio:.3}x (naive {naive:.4}s / \
                     temporal {temporal:.4}s), below the {min_ratio} gate"
                ),
            );
        }
        println!("check_bench_json: temporal gate {size}^2 ok ({ratio:.2}x >= {min_ratio})");
    }
    for (size, min_ratio) in &hybrid_gates {
        let best_median = |kernel: &str| {
            single
                .iter()
                .filter(|(s, k, _)| s == size && k == kernel)
                .map(|(_, _, m)| *m)
                .min_by(f64::total_cmp)
        };
        let (canon, hybrid) = match (best_median("avx2+fma"), best_median("hybrid8x8")) {
            (Some(c), Some(h)) if h > 0.0 => (c, h),
            _ => fail(
                1,
                format!("{path}: no star2d5p single-sweep avx2+fma/hybrid8x8 pair at size {size}"),
            ),
        };
        let ratio = canon / hybrid;
        if ratio < *min_ratio {
            fail(
                1,
                format!(
                    "{path}: hybrid speedup at {size}^2 is {ratio:.3}x (avx2+fma {canon:.4}s / \
                     hybrid8x8 {hybrid:.4}s), below the {min_ratio} gate"
                ),
            );
        }
        println!("check_bench_json: hybrid gate {size}^2 ok ({ratio:.2}x >= {min_ratio})");
    }
    let host_threads = doc.get("host_threads").and_then(Json::as_f64);
    for (size, lanes, min_ratio) in &thread_gates {
        match host_threads {
            Some(h) if h >= *lanes => {}
            _ => {
                let host = host_threads
                    .map(|h| format!("{h}"))
                    .unwrap_or_else(|| "an unrecorded number of".to_string());
                println!(
                    "check_bench_json: threads gate {size}^2 t{lanes} SKIPPED \
                     (artifact recorded on a host with {host} threads; \
                     {lanes} lanes cannot genuinely run in parallel there)"
                );
                continue;
            }
        }
        let best_at = |threads: f64| {
            scaling
                .iter()
                .filter(|(s, t, _)| *s == *size && *t == threads)
                .map(|(_, _, m)| *m)
                .min_by(f64::total_cmp)
        };
        let (one, many) = match (best_at(1.0), best_at(*lanes)) {
            (Some(o), Some(m)) if m > 0.0 => (o, m),
            _ => fail(
                1,
                format!(
                    "{path}: no star2d5p single-sweep rows at size {size} for both \
                     1 and {lanes} threads (run the scaling bench tier)"
                ),
            ),
        };
        let ratio = one / many;
        if ratio < *min_ratio {
            fail(
                1,
                format!(
                    "{path}: scaling at {size}^2 is {ratio:.3}x at {lanes} threads \
                     (t1 {one:.4}s / t{lanes} {many:.4}s), below the {min_ratio} gate"
                ),
            );
        }
        println!(
            "check_bench_json: threads gate {size}^2 t{lanes} ok ({ratio:.2}x >= {min_ratio})"
        );
    }
    for (size, min_ratio) in &f32_gates {
        match eval_f32_gate(&widths, *size, *min_ratio) {
            F32Gate::Ok(ratio) => {
                println!("check_bench_json: f32 gate {size}^2 ok ({ratio:.2}x >= {min_ratio})")
            }
            F32Gate::Skipped(notice) => println!("check_bench_json: {notice}"),
            F32Gate::Fail(msg) => fail(1, format!("{path}: {msg}")),
        }
    }
    for (size, sweeps, min_ratio) in &tempvec_gates {
        match eval_tempvec_gate(&tempsweep, *size, *sweeps, *min_ratio) {
            TempVecGate::Ok(ratio) => println!(
                "check_bench_json: tempvec gate {size}^2 s{sweeps} ok ({ratio:.2}x >= {min_ratio})"
            ),
            TempVecGate::Skipped(notice) => println!("check_bench_json: {notice}"),
            TempVecGate::Fail(msg) => fail(1, format!("{path}: {msg}")),
        }
    }
    println!(
        "check_bench_json: {path} ok ({} rows, {} configurations)",
        results.len(),
        configs.len()
    );
}

#[cfg(test)]
mod tests {
    use super::{
        eval_f32_gate, eval_latency_gate, eval_tempvec_gate, parse_tempvec_gate, F32Gate,
        LatencyGate, TempVecGate,
    };

    fn row(size: f64, dtype: &str, median: f64) -> (f64, String, f64) {
        (size, dtype.to_string(), median)
    }

    fn srow(size: f64, sweeps: f64, kernel: &str, median: f64) -> (f64, f64, String, f64) {
        (size, sweeps, kernel.to_string(), median)
    }

    fn scen(name: &str, p99_ms: f64) -> (String, f64) {
        (name.to_string(), p99_ms)
    }

    #[test]
    fn latency_gate_holds_every_scenario_to_the_bound() {
        let ok = [scen("mixed_open_loop", 4.2), scen("uniform_burst", 17.9)];
        match eval_latency_gate(&ok, 250.0) {
            LatencyGate::Ok(worst) => assert!((worst - 17.9).abs() < 1e-12, "worst: {worst}"),
            other => panic!("expected Ok, got {other:?}"),
        }
        // One scenario over the bound fails the whole gate, naming it.
        let bad = [scen("mixed_open_loop", 4.2), scen("uniform_burst", 300.0)];
        match eval_latency_gate(&bad, 250.0) {
            LatencyGate::Fail(msg) => {
                assert!(msg.contains("uniform_burst"), "msg: {msg}");
                assert!(msg.contains("250 ms gate"), "msg: {msg}");
            }
            other => panic!("expected Fail, got {other:?}"),
        }
    }

    #[test]
    fn latency_gate_accepts_a_p99_exactly_at_the_bound() {
        let rows = [scen("mixed_open_loop", 250.0)];
        assert_eq!(eval_latency_gate(&rows, 250.0), LatencyGate::Ok(250.0));
    }

    #[test]
    fn latency_gate_over_zero_scenarios_fails_instead_of_vacuously_passing() {
        assert!(matches!(
            eval_latency_gate(&[], 250.0),
            LatencyGate::Fail(_)
        ));
    }

    #[test]
    fn absent_f32_rows_skip_with_notice_instead_of_passing_silently() {
        let rows = [row(256.0, "f64", 1.0e-4)];
        match eval_f32_gate(&rows, 256.0, 1.3) {
            F32Gate::Skipped(notice) => {
                assert!(notice.contains("SKIPPED"), "notice: {notice}");
                assert!(notice.contains("256"), "notice names the size: {notice}");
            }
            other => panic!("expected Skipped, got {other:?}"),
        }
        // A different size with f32 rows present is unaffected.
        let rows = [row(256.0, "f64", 1.0e-4), row(512.0, "f32", 1.0e-4)];
        assert!(matches!(
            eval_f32_gate(&rows, 256.0, 1.3),
            F32Gate::Skipped(_)
        ));
    }

    #[test]
    fn ratio_uses_the_best_median_per_dtype() {
        let rows = [
            row(256.0, "f64", 2.0e-4),
            row(256.0, "f64", 1.5e-4), // best f64
            row(256.0, "f32", 3.0e-4),
            row(256.0, "f32", 1.0e-4), // best f32
        ];
        match eval_f32_gate(&rows, 256.0, 1.3) {
            F32Gate::Ok(ratio) => assert!((ratio - 1.5).abs() < 1e-12, "ratio: {ratio}"),
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn ratio_below_the_bound_fails_with_both_medians_in_the_message() {
        let rows = [row(256.0, "f64", 1.0e-4), row(256.0, "f32", 1.0e-4)];
        match eval_f32_gate(&rows, 256.0, 1.3) {
            F32Gate::Fail(msg) => {
                assert!(msg.contains("1.000x"), "msg: {msg}");
                assert!(msg.contains("below the 1.3 gate"), "msg: {msg}");
            }
            other => panic!("expected Fail, got {other:?}"),
        }
    }

    #[test]
    fn missing_f64_denominator_is_a_hard_failure_not_a_skip() {
        let rows = [row(256.0, "f32", 1.0e-4)];
        assert!(matches!(eval_f32_gate(&rows, 256.0, 1.3), F32Gate::Fail(_)));
    }

    #[test]
    fn tempvec_gate_spec_parses_all_three_fields() {
        assert_eq!(parse_tempvec_gate("4096:8:1.05"), Ok((4096.0, 8.0, 1.05)));
        assert_eq!(parse_tempvec_gate("2048:8:0.9"), Ok((2048.0, 8.0, 0.9)));
    }

    #[test]
    fn malformed_tempvec_gate_specs_are_errors_not_guesses() {
        // Every wrong shape must name the expected SIZE:SWEEPS:MINRATIO
        // form; silently defaulting a missing field would let a typo
        // gate a point nobody benchmarks.
        for bad in [
            "4096:1.05",     // two fields: the old SIZE:MINRATIO shape
            "4096",          // one field
            "4096:8:1.05:9", // four fields
            "4096:one:1.05", // non-numeric sweeps
            "big:8:1.05",    // non-numeric size
            "4096:8:fast",   // non-numeric ratio
            "4096:1:1.05",   // sweeps < 2: no temporal reuse to gate
            "",              // empty
            ":::",           // empty fields
        ] {
            let err =
                parse_tempvec_gate(bad).expect_err(&format!("spec '{bad}' should be rejected"));
            assert!(err.contains(bad), "error echoes the spec: {err}");
            assert!(
                err.contains("SIZE:SWEEPS:MINRATIO"),
                "error names the expected form: {err}"
            );
        }
    }

    #[test]
    fn absent_tempvec_rows_skip_with_notice_instead_of_passing_silently() {
        let rows = [srow(4096.0, 8.0, "temporal", 1.0e-2)];
        match eval_tempvec_gate(&rows, 4096.0, 8.0, 1.05) {
            TempVecGate::Skipped(notice) => {
                assert!(notice.contains("SKIPPED"), "notice: {notice}");
                assert!(notice.contains("native2d_tempvec"), "notice: {notice}");
                assert!(notice.contains("4096"), "notice names the size: {notice}");
            }
            other => panic!("expected Skipped, got {other:?}"),
        }
        // Tempvec rows at a different sweep depth do not satisfy this
        // gate — the whole point of the mandatory SWEEPS field.
        let rows = [
            srow(4096.0, 8.0, "temporal", 1.0e-2),
            srow(4096.0, 4.0, "tempvec", 1.0e-2),
        ];
        assert!(matches!(
            eval_tempvec_gate(&rows, 4096.0, 8.0, 1.05),
            TempVecGate::Skipped(_)
        ));
    }

    #[test]
    fn tempvec_ratio_compares_medians_at_the_exact_size_and_sweep_point() {
        let rows = [
            srow(4096.0, 8.0, "temporal", 2.2e-2),
            srow(4096.0, 8.0, "tempvec", 2.0e-2),
            srow(2048.0, 8.0, "temporal", 9.0e-3), // other size: ignored
            srow(2048.0, 8.0, "tempvec", 1.0e-3),
        ];
        match eval_tempvec_gate(&rows, 4096.0, 8.0, 1.05) {
            TempVecGate::Ok(ratio) => assert!((ratio - 1.1).abs() < 1e-12, "ratio: {ratio}"),
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    #[test]
    fn tempvec_ratio_below_the_bound_fails_with_both_medians_in_the_message() {
        let rows = [
            srow(4096.0, 8.0, "temporal", 1.0e-2),
            srow(4096.0, 8.0, "tempvec", 1.0e-2),
        ];
        match eval_tempvec_gate(&rows, 4096.0, 8.0, 1.05) {
            TempVecGate::Fail(msg) => {
                assert!(msg.contains("1.000x"), "msg: {msg}");
                assert!(msg.contains("below the 1.05 gate"), "msg: {msg}");
            }
            other => panic!("expected Fail, got {other:?}"),
        }
    }

    #[test]
    fn missing_temporal_denominator_is_a_hard_failure_not_a_skip() {
        let rows = [srow(4096.0, 8.0, "tempvec", 1.0e-2)];
        assert!(matches!(
            eval_tempvec_gate(&rows, 4096.0, 8.0, 1.05),
            TempVecGate::Fail(_)
        ));
    }
}
