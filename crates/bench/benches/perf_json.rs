//! Machine-readable perf trajectory emitter.
//!
//! ```text
//! cargo bench -p sapla-bench --bench perf_json -- [--quick] [--no-plan] [--no-simd] [--json <path>]
//! ```
//!
//! Runs the `(n, segments)` reduce-throughput and ingest/k-NN grid of
//! `sapla_bench::perf` and prints a human summary; with `--json <path>`
//! the full report is also written as JSON (the format committed as
//! `BENCH_PR2.json`). `--quick` switches to the tiny CI grid;
//! `--no-plan` strips the precompiled query plans so searches take the
//! stock re-partitioning `Dist_PAR` path (the baseline side of the
//! planned-kernel comparison in `BENCH_PR5.json`); `--no-simd` pins the
//! whole run to the scalar kernels and skips the scalar-vs-dispatched
//! A/B section.

use sapla_bench::perf::{run, PerfGrid};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let no_plan = args.iter().any(|a| a == "--no-plan");
    let no_simd = args.iter().any(|a| a == "--no-simd");
    let json_path = args.iter().position(|a| a == "--json").and_then(|i| args.get(i + 1)).cloned();

    let mut grid = if quick { PerfGrid::quick() } else { PerfGrid::full() };
    grid.use_plan = !no_plan;
    if no_simd {
        sapla_core::simd::force(sapla_core::simd::SimdLevel::Scalar)
            .expect("scalar is always supported");
        grid.simd_compare = false;
    } else if let Err(e) = sapla_core::simd::init() {
        eprintln!("perf_json: {e}");
        std::process::exit(2);
    }
    let report = run(&grid);

    println!("reduce throughput (threads = {}):", report.threads);
    for p in &report.reduce {
        println!(
            "  n = {:5}  N = {:2}  {:>12.0} ns/series  {:>10.0} series/s",
            p.n, p.segments, p.ns_per_series, p.series_per_sec
        );
    }
    println!(
        "ingest + kNN (DBCH-tree, k = 4, plans {}, simd {}):",
        if report.use_plan { "on" } else { "off" },
        sapla_core::simd::active().name(),
    );
    for (p, kp) in report.index.iter().zip(&report.knn) {
        println!(
            "  n = {:5}  N = {:2}  db = {:3}  ingest {:>12.0} ns  knn {:>12.0} ns/query  \
             {:>8.1} ns/cand  abandon {:.1}%",
            p.n,
            p.segments,
            p.db,
            p.ingest_ns,
            p.knn_ns_per_query,
            kp.refine_ns_per_candidate,
            kp.abandon_rate * 100.0
        );
    }

    if !report.simd.is_empty() {
        println!("simd A/B (planned batch kNN, k = 4):");
        for p in &report.simd {
            let speedup = p.scalar_ns_per_query / p.simd_ns_per_query;
            println!(
                "  n = {:5}  scalar {:>10.0} ns/query  {} {:>10.0} ns/query  ({speedup:.2}x)",
                p.n, p.scalar_ns_per_query, p.level, p.simd_ns_per_query
            );
        }
    }

    if !report.serve.is_empty() {
        println!("loopback daemon (one client, k = 4):");
        for p in &report.serve {
            println!(
                "  n = {:5}  batch = {:3}  {:>12.0} ns/query  {:>10.0} queries/s",
                p.n, p.batch, p.ns_per_query, p.queries_per_sec
            );
        }
    }

    if !report.obs_overhead.is_empty() {
        println!("flight recorder on/off A/B (loopback, k = 4):");
        for p in &report.obs_overhead {
            println!(
                "  n = {:5}  batch = {:3}  armed {:>10.0} q/s  disarmed {:>10.0} q/s  \
                 overhead {:+.2}%",
                p.n, p.batch, p.recorder_on_qps, p.recorder_off_qps, p.overhead_pct
            );
        }
    }

    if !report.cold_start.is_empty() {
        println!("cold start (in-memory rebuild vs snapshot load):");
        for p in &report.cold_start {
            println!(
                "  n = {:5}  db = {:5}  build {:>12.0} ns  load {:>12.0} ns  ({:.1}x)  \
                 {:>9} bytes  {:>8.1} MiB/s",
                p.n, p.db, p.build_ns, p.load_ns, p.speedup, p.file_bytes, p.load_mb_per_s
            );
        }
    }

    if let Some(path) = json_path {
        std::fs::write(&path, report.to_json())
            .unwrap_or_else(|e| panic!("perf_json: cannot write {path}: {e}"));
        println!("wrote {path}");
    }
}
