//! The repository benchmark: four workloads, end-to-end metrics from an
//! untraced run, per-layer metrics from a traced one. See README.md.
//!
//! ```text
//! benchmark --seed N [--workload NAME] [--seconds S] [--trace 0|1] [--out PATH]
//! benchmark --compare A1.json,A2.json,... B1.json,B2.json,...
//! ```
//!
//! With `--workload`, one workload runs in this process and the last
//! line of standard output is `{"correct", "attempted", "failed",
//! "metrics"}`. Without it, every workload runs in a child process of
//! its own, one after another, so no process-wide state (worker pool,
//! cached env reads, tune cache) carries from one into the next.

mod compare;
mod host;
mod serving;
mod stats;
mod sweeps;
mod trace;

use hstencil_testkit::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;
use sweeps::{Kind, Sizes};

/// One measured number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// What a workload run measured and checked.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    /// This process's own cold set-up, seconds.
    pub setup_s: f64,
    pub metrics: Vec<Metric>,
    pub trace: Option<trace::Trace>,
}

/// Run settings derived from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    pub triad_bytes: usize,
    pub serve_cap: u64,
    pub probe_budget: Duration,
}

impl Ctx {
    fn full(seed: u64, seconds: f64, trace: bool) -> Ctx {
        Ctx {
            seed,
            seconds,
            trace,
            sizes: Sizes::full(),
            // 128 MiB per array: the reference host's triad rate is
            // flat from 64 MiB per array up (its L3 serves 16 MiB).
            triad_bytes: 128 << 20,
            serve_cap: u64::MAX,
            probe_budget: Duration::from_millis(150),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Native(Kind),
    Serve,
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("sweep_l2", Workload::Native(Kind::SweepL2)),
    ("sweep_dram", Workload::Native(Kind::SweepDram)),
    ("steps_dram", Workload::Native(Kind::StepsDram)),
    ("serve_mixed", Workload::Serve),
];

/// Cold set-ups per untraced run: this process's own plus this many
/// children that exit after their first result.
const SETUP_CHILDREN: usize = 8;

impl Workload {
    fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    fn run(self, ctx: &Ctx) -> Outcome {
        match self {
            Workload::Native(kind) => sweeps::run(kind, ctx),
            Workload::Serve => serving::run(ctx),
        }
    }

    fn setup(self, ctx: &Ctx) -> f64 {
        match self {
            Workload::Native(kind) => sweeps::setup(kind, ctx),
            Workload::Serve => serving::setup(ctx),
        }
    }
}

/// The repository root, where `BENCHMARK.json` lives and the library
/// keeps its tune cache.
fn root() -> PathBuf {
    let raw = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..");
    raw.canonicalize().unwrap_or(raw)
}

#[derive(Debug, Default, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    out: Option<PathBuf>,
    setup_only: bool,
    compare: Option<(String, String)>,
}

const USAGE: &str = "usage: benchmark --seed N [--workload NAME] [--seconds S] [--trace 0|1] \
                     [--out PATH]\n       benchmark --compare A1.json,... B1.json,...";

/// Accepts `--key value` and `--key=value`; `--trace` alone means on.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let (key, inline) = match arg.split_once('=') {
            Some((k, v)) => (k, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>| {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or(format!("{key} needs a value"))
        };
        match key {
            "--workload" => args.workload = Some(value(&mut it)?),
            "--seed" => {
                let v = value(&mut it)?;
                args.seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value(&mut it)?;
                match v.parse::<f64>() {
                    Ok(s) if s > 0.0 && s <= 600.0 => args.seconds = Some(s),
                    _ => return Err(format!("bad --seconds {v:?}")),
                }
            }
            "--trace" => {
                let v = match inline {
                    Some(v) => v,
                    None if matches!(it.peek().map(|s| s.as_str()), Some("0" | "1")) => {
                        it.next().cloned().unwrap_or_default()
                    }
                    None => "1".into(),
                };
                args.trace = match v.as_str() {
                    "1" => true,
                    "0" => false,
                    _ => return Err(format!("bad --trace {v:?}")),
                };
            }
            "--out" => args.out = Some(PathBuf::from(value(&mut it)?)),
            "--setup-only" => args.setup_only = true,
            "--compare" => {
                let a = value(&mut it)?;
                let b = it.next().cloned().ok_or("--compare needs two sets")?;
                args.compare = Some((a, b));
            }
            _ => return Err(format!("unknown argument {arg:?}")),
        }
    }
    Ok(args)
}

/// Refuses settings that silently change which kernel runs, so a parent
/// and a change are always measured on the same default path.
fn hygiene() -> Result<(), String> {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("HSTENCIL_"))
        .collect();
    if !knobs.is_empty() {
        return Err(format!(
            "refusing to run with {} set: it changes which kernel runs",
            knobs.join(", ")
        ));
    }
    let tune = root().join("target/hstencil-tune.json");
    if tune.exists() {
        return Err(format!(
            "refusing to run while {} exists: its plans change which kernel runs",
            tune.display()
        ));
    }
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(match real_main(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            2
        }
    });
}

fn real_main(argv: &[String]) -> Result<i32, String> {
    let args = parse_args(argv).map_err(|e| format!("{e}\n{USAGE}"))?;
    if let Some((a, b)) = &args.compare {
        return compare::run(&benchmark_json()?, a, b);
    }
    hygiene()?;
    let seed = args.seed.ok_or(format!("--seed is required\n{USAGE}"))?;
    let ctx = Ctx::full(seed, args.seconds.unwrap_or(20.0), args.trace);
    let Some(name) = &args.workload else {
        return run_all(&args, &ctx);
    };
    let workload = Workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?;
    if args.setup_only {
        let setup_s = workload.setup(&ctx);
        println!(
            "{}",
            Json::object([("setup_s", Json::Num(setup_s))]).to_compact()
        );
        return Ok(0);
    }
    let host = host::facts();
    println!("{}", host.describe());
    println!(
        "workload {name} seed {seed} seconds {} trace {}",
        ctx.seconds,
        u8::from(ctx.trace)
    );
    let children = if ctx.trace { 0 } else { SETUP_CHILDREN };
    let outcome = measure(workload, name, &ctx, children)?;
    for m in &outcome.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    if let Some(tr) = &outcome.trace {
        let path = root().join(format!("target/benchmark/trace-{name}-{seed}.json"));
        let doc = Json::object([
            ("workload", Json::Str(name.clone())),
            ("seed", Json::UInt(seed)),
            ("host", host.to_json()),
            ("spans", tr.to_json()),
        ]);
        write(&path, &doc.to_compact())?;
        println!("trace written to {}", path.display());
    }
    let result = result_json(&outcome);
    if let Some(out) = &args.out {
        let doc = report(seed, &host, [(name.clone(), result.clone())]);
        write(out, &doc.to_pretty())?;
    }
    println!("{}", result.to_compact());
    Ok(if outcome.correct { 0 } else { 1 })
}

/// Runs one workload; an untraced run also times `children` cold
/// set-ups in child processes (before its own inputs exist, so the two
/// never hold memory at once) and reports the median set-up.
fn measure(workload: Workload, name: &str, ctx: &Ctx, children: usize) -> Result<Outcome, String> {
    let mut setups = (0..children)
        .map(|_| child_setup(name, ctx.seed))
        .collect::<Result<Vec<f64>, String>>()?;
    let mut outcome = workload.run(ctx);
    if !ctx.trace {
        setups.push(outcome.setup_s);
        let setup = Metric::new("setup_s", stats::median(&setups), "s");
        outcome.metrics.insert(0, setup);
    }
    Ok(outcome)
}

fn child_setup(name: &str, seed: u64) -> Result<f64, String> {
    let out = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
        .args([
            "--workload",
            name,
            "--seed",
            &seed.to_string(),
            "--setup-only",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text.lines().last().unwrap_or("");
    Json::parse(last)
        .ok()
        .filter(|_| out.status.success())
        .and_then(|doc| doc.get("setup_s").and_then(Json::as_f64))
        .ok_or(format!("set-up child failed ({}): {last}", out.status))
}

/// Every workload in a child process of its own, one after another.
fn run_all(args: &Args, ctx: &Ctx) -> Result<i32, String> {
    let host = host::facts();
    let mut results = Vec::new();
    let mut all_correct = true;
    for (name, _) in WORKLOADS {
        let out = Command::new(std::env::current_exe().map_err(|e| e.to_string())?)
            .args(["--workload", name, "--seed", &ctx.seed.to_string()])
            .args(["--seconds", &ctx.seconds.to_string()])
            .args(["--trace", if ctx.trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{name}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        print!("{text}");
        let result = text
            .lines()
            .last()
            .and_then(|l| Json::parse(l).ok())
            .ok_or(format!("{name} printed no result ({})", out.status))?;
        all_correct &= out.status.success();
        results.push((name.to_string(), result));
    }
    let doc = report(ctx.seed, &host, results);
    if let Some(out) = &args.out {
        write(out, &doc.to_pretty())?;
    }
    println!("{}", doc.to_compact());
    Ok(if all_correct { 0 } else { 1 })
}

fn result_json(o: &Outcome) -> Json {
    let metrics = o.metrics.iter().map(|m| {
        let value = Json::object([
            ("value", Json::Num(m.value)),
            ("unit", Json::Str(m.unit.to_string())),
        ]);
        (m.name, value)
    });
    Json::object([
        ("correct", Json::Bool(o.correct)),
        ("attempted", Json::UInt(o.attempted)),
        ("failed", Json::UInt(o.failed)),
        ("metrics", Json::object(metrics)),
    ])
}

/// The `--out` document `--compare` reads: seed, host facts and each
/// workload's result.
fn report(seed: u64, host: &host::Host, results: impl IntoIterator<Item = (String, Json)>) -> Json {
    Json::object([
        ("seed", Json::UInt(seed)),
        ("host", host.to_json()),
        ("workloads", Json::object(results)),
    ])
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn benchmark_json() -> Result<Json, String> {
    let path = root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64, trace: bool) -> Ctx {
        Ctx {
            seconds: 0.1,
            sizes: Sizes::tiny(),
            triad_bytes: 1 << 20,
            serve_cap: 200,
            probe_budget: Duration::from_millis(2),
            ..Ctx::full(seed, 0.1, trace)
        }
    }

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn both_argument_spellings_parse() {
        let a = parse_args(&argv("--workload hit --seed 7 --seconds 10 --trace 0")).unwrap();
        let b = parse_args(&argv("--workload=hit --seed=7 --seconds=10 --trace=0")).unwrap();
        assert_eq!(a, b);
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(10.0), false));
        let c = parse_args(&argv("--trace --seed 1")).unwrap();
        assert!(c.trace);
        assert!(parse_args(&argv("--seed x")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    #[test]
    fn every_workload_emits_exactly_the_declared_metrics() {
        let doc = benchmark_json().expect("BENCHMARK.json at the repository root");
        let names = |section| -> Vec<String> {
            let mut v: Vec<String> = compare::declared(&doc, section)
                .expect("well-formed")
                .into_iter()
                .map(|d| d.name)
                .collect();
            v.sort();
            v
        };
        let declared_workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(declared_workloads, ours);
        let valid = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
        };
        for (section, trace) in [("end_to_end", false), ("per_layer", true)] {
            let want = names(section);
            assert!(want.iter().all(|n| valid(n)), "{want:?}");
            for (name, workload) in WORKLOADS {
                let o = measure(workload, name, &tiny(3, trace), 0).expect("runs");
                assert!(o.correct && o.failed == 0 && o.attempted > 0, "{name}");
                let mut got: Vec<String> = o.metrics.iter().map(|m| m.name.into()).collect();
                got.sort();
                assert_eq!(got, want, "{name} trace={trace}");
                assert!(o.metrics.iter().all(|m| m.value.is_finite()), "{name}");
            }
        }
    }
}
