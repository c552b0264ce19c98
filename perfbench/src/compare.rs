//! Compare mode: the spread of each metric over one or two sets of
//! result files, checked against the bounds in `BENCHMARK.json`.
//!
//! A result file is a run's captured standard output. A set is a
//! directory of them; runs are grouped by the workload and mode on their
//! context line. For each metric the table has one row per workload with
//! the median and the quartiles (as Python's `statistics.quantiles(v,
//! n=4)`) of each set, the spread `(q3 − q1) / median`, and the change
//! of set B's median against set A's. Flags:
//!
//! - `SPREAD` — a set's spread exceeds the metric's bound;
//! - `WORSE`  — B's median is worse than A's by more than the bound;
//! - `noisy`  — a spread above a third of the bound (informational).
//!
//! Returns `Ok(false)` when anything was flagged `SPREAD` or `WORSE`.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::json::{self, Value};
use crate::stats::{median, quartiles};

/// Workload and mode → metric → values, one per run.
type Set = BTreeMap<(String, bool), BTreeMap<String, Vec<f64>>>;

struct Bound {
    bound: f64,
    higher_is_better: bool,
}

fn load_set(dir: &Path) -> Result<Set, String> {
    let mut set = Set::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    entries.sort();
    for path in entries {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let bad = |what: &str| format!("{}: {what}", path.display());
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let result = json::parse(lines.last().ok_or_else(|| bad("empty"))?).map_err(|e| bad(&e))?;
        let context = lines
            .iter()
            .rev()
            .find_map(|l| json::parse(l).ok().and_then(|v| v.get("context").cloned()))
            .ok_or_else(|| bad("no context line"))?;
        let workload =
            context.get("workload").and_then(Value::as_str).ok_or_else(|| bad("no workload"))?;
        let trace = context.get("trace") == Some(&Value::Bool(true));
        let metrics =
            result.get("metrics").and_then(Value::as_obj).ok_or_else(|| bad("no metrics"))?;
        let runs = set.entry((workload.to_string(), trace)).or_default();
        for (name, m) in metrics {
            let value = m.get("value").and_then(Value::as_f64).ok_or_else(|| bad(name))?;
            runs.entry(name.clone()).or_default().push(value);
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(set)
}

fn load_bounds(spec: &Path) -> Result<BTreeMap<String, Bound>, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let spec = json::parse(&text)?;
    let mut out = BTreeMap::new();
    for m in spec.get("end_to_end").map_or(&[][..], Value::as_arr) {
        let name = m.get("name").and_then(Value::as_str).ok_or("metric without a name")?;
        let bound =
            m.get("bound").and_then(Value::as_f64).ok_or_else(|| format!("{name}: no bound"))?;
        let higher_is_better = m.get("better").and_then(Value::as_str) == Some("higher");
        out.insert(name.to_string(), Bound { bound, higher_is_better });
    }
    Ok(out)
}

/// Median, quartiles and spread of `values`.
fn summary(values: &[f64]) -> Option<(f64, f64, f64, f64)> {
    let med = median(values)?;
    let (q1, q3) = quartiles(values)?;
    Some((med, q1, q3, (q3 - q1) / med.abs()))
}

pub fn run(args: &[String]) -> Result<bool, String> {
    let (spec, sets) = match args {
        [flag, path, rest @ ..] if flag == "--spec" => (path.as_str(), rest),
        rest => ("BENCHMARK.json", rest),
    };
    if sets.is_empty() || sets.len() > 2 {
        return Err("usage: perfbench compare [--spec BENCHMARK.json] SET_A [SET_B]".into());
    }
    let bounds = load_bounds(Path::new(spec))?;
    let sets: Vec<Set> = sets.iter().map(|d| load_set(Path::new(d))).collect::<Result<_, _>>()?;
    let mut clean = true;
    for trace in [false, true] {
        let mut metrics: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
        for ((workload, t), runs) in sets.iter().flatten() {
            if *t == trace {
                for name in runs.keys() {
                    metrics.entry(name).or_default().insert(workload);
                }
            }
        }
        for (name, workloads) in metrics {
            let bound = bounds.get(name);
            println!(
                "{name}{}",
                bound.map_or(String::new(), |b| format!(
                    " (bound {}, {} is better)",
                    b.bound,
                    if b.higher_is_better { "higher" } else { "lower" }
                ))
            );
            for workload in workloads {
                let key = (workload.to_string(), trace);
                let mut row = format!("  {workload:<18}");
                let mut flags = Vec::new();
                let mut medians = Vec::new();
                for (si, set) in sets.iter().enumerate() {
                    let values =
                        set.get(&key).and_then(|r| r.get(name)).map_or(&[][..], Vec::as_slice);
                    let label = if si == 0 { "A" } else { "B" };
                    match summary(values) {
                        Some((med, q1, q3, spread)) => {
                            row += &format!(
                                " | {label} n={:<2} {med:>12.6} [{q1:.6}, {q3:.6}] spread {:>6.2}%",
                                values.len(),
                                spread * 100.0
                            );
                            if let Some(b) = bound {
                                if spread > b.bound {
                                    flags.push(format!("SPREAD({label})"));
                                    clean = false;
                                } else if spread > b.bound / 3.0 {
                                    flags.push(format!("noisy({label})"));
                                }
                            }
                            medians.push(med);
                        }
                        None => {
                            // One run (or none): its value, with no spread.
                            let shown = match median(values) {
                                Some(med) => {
                                    medians.push(med);
                                    format!("{med:.6}")
                                }
                                None => "-".into(),
                            };
                            row += &format!(" | {label} n={:<2} {shown:>12}", values.len());
                        }
                    }
                }
                if let [a, b] = medians[..] {
                    let change = b / a - 1.0;
                    row += &format!(" | B/A {:+.2}%", change * 100.0);
                    if let Some(bd) = bound {
                        let worse = if bd.higher_is_better { -change } else { change };
                        if worse > bd.bound {
                            flags.push("WORSE".into());
                            clean = false;
                        }
                    }
                }
                println!("{row} {}", flags.join(" "));
            }
        }
    }
    Ok(clean)
}
