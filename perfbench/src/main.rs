//! End-to-end and per-layer benchmark of the SAPLA search service.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench compare SET_A [SET_B]
//! ```
//!
//! A run generates its inputs from `--seed`, measures, checks every
//! answer, and prints a context line and then, as its last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Exit status: 0 when every answer was correct, 1 when
//! one was not (the result is still printed), 2 on any other failure
//! (nothing printed). See README.md for the workloads and metrics.

mod compare;
mod e2e;
mod fixture;
mod json;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`), with units, in output order.
pub const END_TO_END: [(&str, &str); 12] = [
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("knn_p50_ms", "ms"),
    ("knn_p95_ms", "ms"),
    ("range_p50_ms", "ms"),
    ("range_p95_ms", "ms"),
    ("recall_at_k", "ratio"),
    ("range_recall", "ratio"),
    ("index_build_s", "s"),
    ("cold_start_s", "s"),
    ("snapshot_bytes_ratio", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with units, in output order.
pub const PER_LAYER: [(&str, &str); 20] = [
    ("serve.request_us", "us"),
    ("serve.residual_us", "us"),
    ("serve.batch_queries_mean", "count"),
    ("prepare.us_per_query", "us"),
    ("prepare.share", "ratio"),
    ("search.us_per_query", "us"),
    ("search.batch_us_per_query", "us"),
    ("search.measured_per_query", "count"),
    ("search.pruning_power", "ratio"),
    ("search.ns_per_measured", "ns"),
    ("search.refine_yield", "ratio"),
    ("scan.us_per_query", "us"),
    ("range.us_per_query", "us"),
    ("range.measured_per_query", "count"),
    ("build.reduce_us_per_series", "us"),
    ("build.tree_us_per_series", "us"),
    ("store.write_mib_per_s", "MiB/s"),
    ("store.load_mib_per_s", "MiB/s"),
    ("parallel.search_speedup", "x"),
    ("parallel.reduce_speedup", "x"),
];

/// What one run measured.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value)` in the order of the mode's metric table.
    pub metrics: Vec<(&'static str, f64)>,
    /// Run facts printed on the context line.
    pub context: Vec<(&'static str, String)>,
}

impl Report {
    /// The result line, after checking the metrics are exactly `table`
    /// and every value is finite.
    fn result_line(&self, table: &[(&str, &str)]) -> Result<String, String> {
        let names: Vec<&str> = self.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = table.iter().map(|m| m.0).collect();
        if names != want {
            return Err(format!("emitted metrics {names:?} differ from the declared {want:?}"));
        }
        let mut metrics = Vec::new();
        for (&(name, value), &(_, unit)) in self.metrics.iter().zip(table) {
            if !value.is_finite() {
                return Err(format!("{name} is not finite: {value}"));
            }
            metrics.push(format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json::quote(name),
                json::quote(unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

struct Args {
    workload: workload::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or_else(|| {
                    let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if s > 0 => seconds = Some(s),
                Ok(_) => return Err(bad(&"must be at least 1")),
                Err(e) => return Err(bad(&e)),
            },
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The context line, the result line, and whether every answer was correct.
fn run(args: &Args) -> Result<(String, String, bool), String> {
    let simd = sapla_core::simd::init().map_err(|e| e.to_string())?;
    if sapla_obs::enabled() && !args.trace {
        return Err("sapla-obs instrumentation is compiled in; refusing end-to-end timing".into());
    }
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let w = &args.workload;
    let inputs = workload::Inputs::generate(w, args.seed, threads)?;
    let (report, table) = if args.trace {
        (trace::run(w, &inputs, threads)?, &PER_LAYER[..])
    } else {
        (e2e::run(w, &inputs, args.seconds, threads)?, &END_TO_END[..])
    };
    let mut context = vec![
        ("workload", json::quote(w.name)),
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        ("obs_enabled", sapla_obs::enabled().to_string()),
        ("simd", json::quote(simd.name())),
        ("threads", threads.to_string()),
        ("n", w.n.to_string()),
        ("db", w.db.to_string()),
        ("pool", workload::POOL.to_string()),
    ];
    context.extend(report.context.iter().cloned());
    let context: Vec<String> =
        context.iter().map(|(k, v)| format!("{}: {v}", json::quote(k))).collect();
    let context = format!("{{\"context\": {{{}}}}}", context.join(", "));
    Ok((context, report.result_line(table)?, report.failed == 0))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(clean) => ExitCode::from(u8::from(!clean)),
            Err(e) => {
                eprintln!("perfbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    match parse_args(&args).and_then(|a| run(&a)) {
        Ok((context, result, correct)) => {
            println!("{context}");
            println!("{result}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: some answers were wrong (see \"failed\")");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
    }

    fn declared(section: &str) -> Vec<(String, String)> {
        spec()
            .get(section)
            .expect(section)
            .as_arr()
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(json::Value::as_str).expect(k).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn emitted_metrics_are_well_named_and_declared() {
        for (table, section) in [(&END_TO_END[..], "end_to_end"), (&PER_LAYER[..], "per_layer")] {
            for (name, _) in table {
                assert!(
                    !name.is_empty()
                        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{name}"
                );
            }
            let emitted: Vec<(String, String)> =
                table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
            assert_eq!(emitted, declared(section), "{section} in BENCHMARK.json");
        }
    }

    #[test]
    fn workloads_are_declared() {
        let names: Vec<String> = spec()
            .get("workloads")
            .unwrap()
            .as_arr()
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).unwrap().to_string())
            .collect();
        let ours: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(names, ours);
    }

    #[test]
    fn result_line_rejects_undeclared_or_missing_metrics() {
        let report = |metrics| Report { attempted: 3, failed: 0, metrics, context: vec![] };
        let table = [("a_ms", "ms"), ("b", "ratio")];
        let line = report(vec![("a_ms", 1.25), ("b", 0.5)]).result_line(&table).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&json::Value::Bool(true)));
        let a = v.get("metrics").unwrap().get("a_ms").unwrap();
        assert_eq!(a.get("value").unwrap().as_f64(), Some(1.25));
        assert_eq!(a.get("unit").unwrap().as_str(), Some("ms"));
        assert!(report(vec![("a_ms", 1.0)]).result_line(&table).is_err());
        assert!(report(vec![("a_ms", 1.0), ("c", 1.0)]).result_line(&table).is_err());
        assert!(report(vec![("a_ms", f64::NAN), ("b", 1.0)]).result_line(&table).is_err());
    }
}
