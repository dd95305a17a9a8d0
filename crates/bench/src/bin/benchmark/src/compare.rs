//! `--compare A1,A2,... B1,B2,...`: two sets of report files (written
//! with `--out`), the parent's first. For every end-to-end metric of
//! `BENCHMARK.json` on every workload both sets ran, prints each set's
//! median and quartiles and the verdict against the metric's bound.

use crate::stats::{median, quartiles, spread, verdict, Verdict};
use hstencil_testkit::Json;
use std::collections::BTreeMap;

/// One end-to-end metric as `BENCHMARK.json` declares it.
pub struct Declared {
    pub name: String,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// Metric names of `section` (`end_to_end` or `per_layer`) in the
/// `BENCHMARK.json` document `doc`, with direction and bound.
pub fn declared(doc: &Json, section: &str) -> Result<Vec<Declared>, String> {
    let items = doc
        .get(section)
        .and_then(Json::as_array)
        .ok_or(format!("BENCHMARK.json has no {section} list"))?;
    items
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            match (name, better) {
                (Some(name), Some(better)) => Ok(Declared {
                    name: name.to_string(),
                    higher_is_better: better == "higher",
                    bound: m.get("bound").and_then(Json::as_f64).unwrap_or(0.0),
                }),
                _ => Err(format!("malformed {section} entry in BENCHMARK.json")),
            }
        })
        .collect()
}

/// workload → metric → one value per report file.
type Set = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(files: &str) -> Result<Set, String> {
    let mut set = Set::new();
    for path in files.split(',').filter(|p| !p.is_empty()) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let Some(Json::Obj(workloads)) = doc.get("workloads") else {
            return Err(format!("{path}: not a benchmark report (no workloads)"));
        };
        for (workload, result) in workloads {
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                return Err(format!("{path}: {workload} has no metrics"));
            };
            for (name, m) in metrics {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or(format!("{path}: {workload}.{name} has no value"))?;
                set.entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(set)
}

fn describe(values: &[f64]) -> String {
    let q = quartiles(values);
    format!(
        "{:.6e} [{:.6e}, {:.6e}] n={} spread {:.3}",
        median(values),
        q[0],
        q[2],
        values.len(),
        spread(values)
    )
}

/// Prints the comparison; the exit code is 1 when any pairing
/// regressed, 0 otherwise.
pub fn run(bench: &Json, parent_files: &str, change_files: &str) -> Result<i32, String> {
    let metrics = declared(bench, "end_to_end")?;
    let (parent, change) = (load(parent_files)?, load(change_files)?);
    let mut regressed = false;
    for (workload, p_metrics) in &parent {
        let Some(c_metrics) = change.get(workload) else {
            println!("{workload}: only in the first set");
            continue;
        };
        for m in &metrics {
            let (Some(p), Some(c)) = (p_metrics.get(&m.name), c_metrics.get(&m.name)) else {
                continue;
            };
            let v = verdict(p, c, m.higher_is_better, m.bound);
            regressed |= v == Verdict::Regressed;
            println!(
                "{workload} {}: A {} | B {} | bound {} -> {}",
                m.name,
                describe(p),
                describe(c),
                m.bound,
                v.label()
            );
        }
    }
    for workload in change.keys().filter(|w| !parent.contains_key(*w)) {
        println!("{workload}: only in the second set");
    }
    Ok(i32::from(regressed))
}
