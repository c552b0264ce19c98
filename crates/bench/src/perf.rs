//! Machine-readable performance trajectory: reduce throughput and
//! ingest / k-NN timings over a fixed `(n, segments)` grid, emitted as
//! JSON so successive PRs can record comparable numbers (the committed
//! baselines live at the repo root, e.g. `BENCH_PR2.json`).
//!
//! The grid is deliberately small and deterministic (seeded catalogue
//! data, single thread by default): the numbers are for *trajectory*
//! comparisons on one machine, not cross-machine claims.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use sapla_baselines::{reduce_batch, SaplaReducer};
use sapla_core::simd::{self, SimdLevel};
use sapla_data::{catalogue, Protocol};
use sapla_index::{Engine, EngineConfig};
use sapla_serve::{Client, Server, ServerConfig};

use crate::time_it;

/// The measurement grid.
#[derive(Debug, Clone)]
pub struct PerfGrid {
    /// Series lengths `n` to measure.
    pub lens: Vec<usize>,
    /// Segment budgets `N` to measure (`M = 3N` coefficients).
    pub segment_counts: Vec<usize>,
    /// Database series per reduce-throughput point.
    pub series_per_point: usize,
    /// Database size for the ingest / k-NN point.
    pub index_db: usize,
    /// Queries for the k-NN point.
    pub index_queries: usize,
    /// Minimum measuring time per point (repetitions adapt to this).
    pub min_time: Duration,
    /// Worker threads (`1` = the sequential baseline the trajectory
    /// tracks; parallel speedups are the thread-sweep benches' job).
    pub threads: usize,
    /// Wire-request batch sizes (queries per kNN request) for the
    /// loopback daemon point; empty skips the serve measurement.
    pub serve_batches: Vec<usize>,
    /// When `false`, skip the scalar-vs-dispatched SIMD comparison
    /// (e.g. the bench's `--no-simd` run, where the whole grid is
    /// already pinned to the scalar kernels).
    pub simd_compare: bool,
    /// Database sizes for the cold-start section (in-memory rebuild vs
    /// `sapla-store` snapshot load); empty skips the measurement.
    pub cold_start_dbs: Vec<usize>,
}

impl PerfGrid {
    /// The PR-trajectory grid from the roadmap: `n ∈ {256, 1024, 4096}`,
    /// `N ∈ {8, 16, 32}`.
    pub fn full() -> PerfGrid {
        PerfGrid {
            lens: vec![256, 1024, 4096],
            segment_counts: vec![8, 16, 32],
            series_per_point: 8,
            index_db: 60,
            index_queries: 6,
            min_time: Duration::from_millis(250),
            threads: 1,
            serve_batches: vec![1, 8, 64],
            simd_compare: true,
            cold_start_dbs: vec![256, 1024, 4096],
        }
    }

    /// A tiny grid for CI smoke runs (`just bench-quick`).
    pub fn quick() -> PerfGrid {
        PerfGrid {
            lens: vec![128, 256],
            segment_counts: vec![8],
            series_per_point: 3,
            index_db: 16,
            index_queries: 2,
            min_time: Duration::from_millis(20),
            threads: 1,
            serve_batches: vec![1, 8],
            simd_compare: true,
            cold_start_dbs: vec![64, 256],
        }
    }
}

/// One reduce-throughput measurement.
#[derive(Debug, Clone)]
pub struct ReducePoint {
    /// Series length.
    pub n: usize,
    /// Segment budget `N`.
    pub segments: usize,
    /// Batch repetitions measured.
    pub reps: usize,
    /// Mean time per single-series reduction, nanoseconds.
    pub ns_per_series: f64,
    /// Reductions per second (the headline throughput number).
    pub series_per_sec: f64,
}

/// One ingest + multi-query k-NN measurement.
#[derive(Debug, Clone)]
pub struct IndexPoint {
    /// Series length.
    pub n: usize,
    /// Segment budget `N`.
    pub segments: usize,
    /// Database size.
    pub db: usize,
    /// Query count.
    pub queries: usize,
    /// Wall time of `Engine::build` (reduce + build the DBCH-tree),
    /// nanoseconds.
    pub ingest_ns: f64,
    /// Mean k-NN time per query (k = 4), nanoseconds.
    pub knn_ns_per_query: f64,
}

/// Per-point k-NN kernel detail: how the time of [`IndexPoint`] breaks
/// down per candidate, and how often the planned kernel abandoned early.
/// The rates come from `sapla-obs` counter deltas around the measured
/// loop, so they are all zero unless the bench is built with
/// `--features obs`.
#[derive(Debug, Clone)]
pub struct KnnPoint {
    /// Series length.
    pub n: usize,
    /// Segment budget `N`.
    pub segments: usize,
    /// Database size.
    pub db: usize,
    /// Query count.
    pub queries: usize,
    /// Mean k-NN wall time per leaf candidate the search considered
    /// (filter + refinement amortised), nanoseconds.
    pub refine_ns_per_candidate: f64,
    /// Fraction of planned `Dist_PAR` evaluations that abandoned early
    /// against the running k-th-best bound.
    pub abandon_rate: f64,
}

/// One SIMD A/B measurement over the planned k-NN path: the same
/// DBCH-tree batch search forced through the scalar kernels and through
/// the auto-detected vector level (answers are bit-identical — only the
/// clock moves).
#[derive(Debug, Clone)]
pub struct SimdPoint {
    /// Series length.
    pub n: usize,
    /// The auto-detected dispatch level the `simd_ns_per_query` side
    /// ran at (`"off"` means this machine has no vector path).
    pub level: String,
    /// Mean k-NN time per query with kernels forced scalar, nanoseconds.
    pub scalar_ns_per_query: f64,
    /// Mean k-NN time per query at the detected level, nanoseconds.
    pub simd_ns_per_query: f64,
}

/// One loopback-daemon throughput measurement: a single client sending
/// kNN requests of `batch` queries each against an in-process
/// `sapla-serve` daemon (TCP on localhost, k = 4). Includes wire
/// encode/decode, query preparation, admission batching, and the
/// engine search — the end-to-end service cost per query.
#[derive(Debug, Clone)]
pub struct ServePoint {
    /// Series length.
    pub n: usize,
    /// Queries per wire request.
    pub batch: usize,
    /// Mean end-to-end time per query, nanoseconds.
    pub ns_per_query: f64,
    /// Queries answered per second (the headline serving number).
    pub queries_per_sec: f64,
}

/// One recorder-on vs recorder-off loopback A/B point: the same
/// single-client kNN workload as [`ServePoint`] measured with the
/// flight recorder armed and disarmed. The windowed sketches and
/// counters stay on in both sides (they are part of the build); the
/// knob isolates the per-request ring-write cost. In a stock
/// (obs-less) build both sides run the compiled-out stubs and the
/// overhead is pure measurement noise around zero.
#[derive(Debug, Clone)]
pub struct ObsOverheadPoint {
    /// Series length.
    pub n: usize,
    /// Queries per wire request.
    pub batch: usize,
    /// Queries per second with the flight recorder armed.
    pub recorder_on_qps: f64,
    /// Queries per second with the flight recorder disarmed.
    pub recorder_off_qps: f64,
    /// `(off - on) / off * 100`: the throughput the recorder costs,
    /// in percent (negative values are noise).
    pub overhead_pct: f64,
}

/// One cold-start comparison: building the engine from raw series
/// in memory (reduction + O(n log n) tree insertion) versus loading the
/// same engine from a `sapla-store` snapshot file (O(file size) I/O +
/// validation).
#[derive(Debug, Clone)]
pub struct ColdStartPoint {
    /// Series length.
    pub n: usize,
    /// Database size (series in the index).
    pub db: usize,
    /// Mean wall time of `Engine::build`, nanoseconds.
    pub build_ns: f64,
    /// Mean wall time of `Engine::from_snapshot_file`, nanoseconds.
    pub load_ns: f64,
    /// `build_ns / load_ns` — how much faster the snapshot cold-start is.
    pub speedup: f64,
    /// Snapshot file size in bytes.
    pub file_bytes: u64,
    /// Load throughput, snapshot MiB per second.
    pub load_mb_per_s: f64,
}

/// A full emitter run.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Worker threads used.
    pub threads: usize,
    /// Reduce-throughput grid.
    pub reduce: Vec<ReducePoint>,
    /// Ingest / k-NN grid (one point per series length).
    pub index: Vec<IndexPoint>,
    /// k-NN kernel detail, aligned with `index`.
    pub knn: Vec<KnnPoint>,
    /// Scalar-vs-dispatched SIMD comparison (one point per series
    /// length; empty when [`PerfGrid::simd_compare`] is off).
    pub simd: Vec<SimdPoint>,
    /// Loopback daemon throughput at each request batch size.
    pub serve: Vec<ServePoint>,
    /// Flight-recorder on/off loopback A/B, aligned with `serve`'s
    /// batch sizes.
    pub obs_overhead: Vec<ObsOverheadPoint>,
    /// Snapshot-load vs in-memory-rebuild cold-start comparison, one
    /// point per [`PerfGrid::cold_start_dbs`] entry.
    pub cold_start: Vec<ColdStartPoint>,
    /// Operation counts over the whole run (`sapla-obs` snapshot; empty
    /// unless the bench crate is built with `--features obs` — the stock
    /// build stays uninstrumented so the timings measure the zero-cost
    /// configuration).
    pub ops: sapla_obs::Snapshot,
}

/// Deterministic measurement series: one catalogue dataset per family
/// flavour, interleaved so every point sees varied signal shapes.
fn grid_series(n: usize, count: usize) -> Vec<sapla_core::TimeSeries> {
    let protocol =
        Protocol { series_len: n, series_per_dataset: count.div_ceil(3), queries_per_dataset: 1 };
    let specs = catalogue();
    let mut out = Vec::with_capacity(count);
    // Families 0 (smooth), 5 (burst, the paper's stress case), 2 (walk).
    for spec_idx in [0usize, 5, 2] {
        let ds = specs[spec_idx].load(&protocol);
        out.extend(ds.series);
    }
    out.truncate(count);
    out
}

/// `after - before` for one named counter across two snapshots (0 when
/// absent, i.e. whenever obs is compiled out).
fn counter_delta(before: &sapla_obs::Snapshot, after: &sapla_obs::Snapshot, name: &str) -> u64 {
    let get = |snap: &sapla_obs::Snapshot| {
        snap.counters.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v)
    };
    get(after).saturating_sub(get(before))
}

/// Repeat `f` until `min_time` has elapsed (at least twice after one
/// warm-up call), returning `(reps, mean nanoseconds per call)`.
fn measure(min_time: Duration, mut f: impl FnMut()) -> (usize, f64) {
    f(); // warm-up: fills caches and scratch high-water marks
    let mut reps = 0usize;
    let start = Instant::now();
    loop {
        f();
        reps += 1;
        if reps >= 2 && start.elapsed() >= min_time {
            break;
        }
    }
    (reps, start.elapsed().as_nanos() as f64 / reps as f64)
}

/// Run the grid and collect the report.
pub fn run(grid: &PerfGrid) -> PerfReport {
    // Scope the ops section to this run (repetition counts adapt to the
    // machine, so the totals are per-report, not cross-run comparable).
    sapla_obs::reset();
    let reducer = SaplaReducer::new();
    let mut reduce = Vec::new();
    for &n in &grid.lens {
        for &segments in &grid.segment_counts {
            if n < 2 * segments {
                continue;
            }
            let series = grid_series(n, grid.series_per_point);
            let m = 3 * segments;
            let (reps, batch_ns) = measure(grid.min_time, || {
                let out = reduce_batch(&reducer, &series, m).expect("grid series reduce");
                std::hint::black_box(&out);
            });
            let ns_per_series = batch_ns / series.len() as f64;
            reduce.push(ReducePoint {
                n,
                segments,
                reps,
                ns_per_series,
                series_per_sec: 1e9 / ns_per_series,
            });
        }
    }

    let mut index = Vec::new();
    let mut knn = Vec::new();
    let segments = grid.segment_counts[0];
    for &n in &grid.lens {
        if n < 2 * segments {
            continue;
        }
        let db = grid_series(n, grid.index_db);
        let (engine, ingest) = time_it(|| grid_engine(grid, db));
        let queries = grid_queries(grid, n, &engine);
        let before = sapla_obs::Snapshot::capture();
        let (reps, knn_ns) = measure(grid.min_time, || {
            let out = engine.knn(&queries, 4, grid.threads).expect("grid knn");
            std::hint::black_box(&out);
        });
        let after = sapla_obs::Snapshot::capture();
        // The deltas cover the warm-up call too, hence `reps + 1`.
        let calls = (reps + 1) as f64;
        let considered = counter_delta(&before, &after, "index.knn.entries_considered") as f64;
        let evals = counter_delta(&before, &after, "dist.par.evals") as f64;
        let abandoned = counter_delta(&before, &after, "dist.par.abandoned") as f64;
        index.push(IndexPoint {
            n,
            segments,
            db: engine.len(),
            queries: queries.len(),
            ingest_ns: ingest.as_nanos() as f64,
            knn_ns_per_query: knn_ns / queries.len() as f64,
        });
        knn.push(KnnPoint {
            n,
            segments,
            db: engine.len(),
            queries: queries.len(),
            refine_ns_per_candidate: if considered > 0.0 {
                knn_ns / (considered / calls)
            } else {
                0.0
            },
            abandon_rate: if evals > 0.0 { abandoned / evals } else { 0.0 },
        });
    }

    let simd = measure_simd(grid);
    let serve = measure_serve(grid);
    let obs_overhead = measure_obs_overhead(grid);
    let cold_start = measure_cold_start(grid);

    PerfReport {
        threads: grid.threads,
        reduce,
        index,
        knn,
        simd,
        serve,
        obs_overhead,
        cold_start,
        ops: sapla_obs::Snapshot::capture(),
    }
}

/// In-memory rebuild vs snapshot-file load over increasing database
/// sizes. The build side repeats the full `Engine::build` (reduction +
/// tree insertion); the load side repeats `Engine::from_snapshot_file`
/// against a file written once per point and deleted afterwards.
fn measure_cold_start(grid: &PerfGrid) -> Vec<ColdStartPoint> {
    // One file per call: concurrent `run`s in one process (parallel
    // tests) must not write, load or delete each other's snapshot.
    static NEXT_FILE: AtomicUsize = AtomicUsize::new(0);
    let Some(&n) = grid.lens.iter().find(|&&n| n >= 2 * grid.segment_counts[0]) else {
        return Vec::new();
    };
    let m = 3 * grid.segment_counts[0];
    let cfg = EngineConfig { m, ..EngineConfig::default() };
    let mut out = Vec::with_capacity(grid.cold_start_dbs.len());
    for &db_size in &grid.cold_start_dbs {
        let db = grid_series(n, db_size);
        let engine = Engine::build(cfg, Box::new(SaplaReducer::new()), db.clone(), grid.threads)
            .expect("cold start reference build");
        let path = std::env::temp_dir().join(format!(
            "sapla-cold-start-{}-{}-{db_size}.snap",
            std::process::id(),
            NEXT_FILE.fetch_add(1, Ordering::Relaxed)
        ));
        let file_bytes = engine.write_snapshot_file(&path, None).expect("cold start snapshot");
        let (_, build_ns) = measure(grid.min_time, || {
            let built = Engine::build(cfg, Box::new(SaplaReducer::new()), db.clone(), grid.threads)
                .expect("cold start build");
            std::hint::black_box(&built);
        });
        let (_, load_ns) = measure(grid.min_time, || {
            let loaded = Engine::from_snapshot_file(&path).expect("cold start load");
            std::hint::black_box(&loaded);
        });
        let _ = std::fs::remove_file(&path);
        out.push(ColdStartPoint {
            n,
            db: db_size,
            build_ns,
            load_ns,
            speedup: build_ns / load_ns,
            file_bytes,
            load_mb_per_s: file_bytes as f64 / (1024.0 * 1024.0) / (load_ns / 1e9),
        });
    }
    out
}

/// The grid's one-shard SAPLA/DBCH engine over `db`, built on
/// `grid.threads` workers.
fn grid_engine(grid: &PerfGrid, db: Vec<sapla_core::TimeSeries>) -> Engine {
    let cfg = EngineConfig { m: 3 * grid.segment_counts[0], ..EngineConfig::default() };
    Engine::build(cfg, Box::new(SaplaReducer::new()), db, grid.threads).expect("grid engine")
}

/// The grid's `index_queries` queries (series past the database in the
/// same deterministic stream), prepared by `engine`.
fn grid_queries(grid: &PerfGrid, n: usize, engine: &Engine) -> Vec<sapla_index::Query> {
    let raw_queries =
        grid_series(n.max(4), grid.index_queries + grid.index_db).split_off(grid.index_db);
    engine.prepare(&raw_queries, grid.threads).expect("grid queries")
}

/// Scalar-vs-dispatched A/B over the planned batch k-NN path. Forces
/// the process-global dispatch level around each side and restores
/// whatever was active on entry (so a bench run that pre-forced scalar
/// stays scalar afterwards).
fn measure_simd(grid: &PerfGrid) -> Vec<SimdPoint> {
    if !grid.simd_compare {
        return Vec::new();
    }
    let prev = simd::active();
    let detected = simd::detect();
    let segments = grid.segment_counts[0];
    let mut out = Vec::new();
    for &n in &grid.lens {
        if n < 2 * segments {
            continue;
        }
        let engine = grid_engine(grid, grid_series(n, grid.index_db));
        let queries = grid_queries(grid, n, &engine);
        let timed = || {
            let (_, ns) = measure(grid.min_time, || {
                let out = engine.knn(&queries, 4, grid.threads).expect("simd grid knn");
                std::hint::black_box(&out);
            });
            ns / queries.len() as f64
        };
        simd::force(SimdLevel::Scalar).expect("scalar is always supported");
        let scalar_ns_per_query = timed();
        simd::force(detected).expect("detected level is supported");
        let simd_ns_per_query = timed();
        out.push(SimdPoint {
            n,
            level: detected.name().to_string(),
            scalar_ns_per_query,
            simd_ns_per_query,
        });
    }
    simd::force(prev).expect("restoring the prior simd level");
    out
}

/// Loopback daemon throughput: one in-process server over the smallest
/// grid length, one blocking client, k = 4 requests at each batch size.
fn measure_serve(grid: &PerfGrid) -> Vec<ServePoint> {
    let Some(&n) = grid.lens.iter().find(|&&n| n >= 2 * grid.segment_counts[0]) else {
        return Vec::new();
    };
    if grid.serve_batches.is_empty() {
        return Vec::new();
    }
    let m = 3 * grid.segment_counts[0];
    let db = grid_series(n, grid.index_db);
    let raw_queries = grid_series(n, grid.index_queries + grid.index_db).split_off(grid.index_db);
    let cfg = EngineConfig { m, ..EngineConfig::default() };
    let engine = Engine::build(cfg, Box::new(SaplaReducer::new()), db, grid.threads)
        .expect("serve grid engine");
    let server = Server::start(
        engine,
        "127.0.0.1:0",
        ServerConfig { threads: grid.threads, ..ServerConfig::default() },
    )
    .expect("serve grid server");
    let mut client = Client::connect(server.addr()).expect("serve grid client");

    let mut out = Vec::with_capacity(grid.serve_batches.len());
    for &batch in &grid.serve_batches {
        // Cycle the query pool up to the requested batch size.
        let queries: Vec<Vec<f64>> =
            (0..batch).map(|i| raw_queries[i % raw_queries.len()].values().to_vec()).collect();
        let (_, ns_per_request) = measure(grid.min_time, || {
            let resp = client.knn(&queries, 4).expect("serve grid request");
            std::hint::black_box(&resp);
        });
        let ns_per_query = ns_per_request / batch as f64;
        out.push(ServePoint { n, batch, ns_per_query, queries_per_sec: 1e9 / ns_per_query });
    }
    server.stop();
    out
}

/// Recorder-armed vs recorder-disarmed loopback A/B over the same
/// server and client. Loopback throughput on a shared box drifts far
/// more second-to-second than the recorder's few dozen atomic stores
/// cost, so block measurements (one timed side, then the other) report
/// noise. Instead the sides alternate *request by request* — adjacent
/// requests see the same machine state, so drift cancels in the ratio
/// and only the armed/disarmed difference accumulates. The recorder is
/// re-armed on exit (its process-global default).
fn measure_obs_overhead(grid: &PerfGrid) -> Vec<ObsOverheadPoint> {
    let Some(&n) = grid.lens.iter().find(|&&n| n >= 2 * grid.segment_counts[0]) else {
        return Vec::new();
    };
    if grid.serve_batches.is_empty() {
        return Vec::new();
    }
    let m = 3 * grid.segment_counts[0];
    let db = grid_series(n, grid.index_db);
    let raw_queries = grid_series(n, grid.index_queries + grid.index_db).split_off(grid.index_db);
    let cfg = EngineConfig { m, ..EngineConfig::default() };
    let engine = Engine::build(cfg, Box::new(SaplaReducer::new()), db, grid.threads)
        .expect("obs overhead engine");
    let server = Server::start(
        engine,
        "127.0.0.1:0",
        ServerConfig { threads: grid.threads, ..ServerConfig::default() },
    )
    .expect("obs overhead server");
    let mut client = Client::connect(server.addr()).expect("obs overhead client");

    let mut out = Vec::with_capacity(grid.serve_batches.len());
    for &batch in &grid.serve_batches {
        let queries: Vec<Vec<f64>> =
            (0..batch).map(|i| raw_queries[i % raw_queries.len()].values().to_vec()).collect();
        let mut request = |armed: bool| {
            sapla_obs::recorder::set_armed(armed);
            let start = Instant::now();
            let resp = client.knn(&queries, 4).expect("obs overhead request");
            std::hint::black_box(&resp);
            start.elapsed().as_nanos()
        };
        // Warm-up both sides, then alternate until each side has
        // accumulated the grid's measuring time.
        request(true);
        request(false);
        let mut on = (0u128, 0u64);
        let mut off = (0u128, 0u64);
        let min_ns = grid.min_time.as_nanos();
        while on.0 < min_ns || off.0 < min_ns {
            on = (on.0 + request(true), on.1 + 1);
            off = (off.0 + request(false), off.1 + 1);
        }
        let qps = |(ns, reqs): (u128, u64)| (reqs * batch as u64) as f64 / (ns as f64 / 1e9);
        let recorder_on_qps = qps(on);
        let recorder_off_qps = qps(off);
        let overhead_pct = (recorder_off_qps - recorder_on_qps) / recorder_off_qps * 100.0;
        out.push(ObsOverheadPoint { n, batch, recorder_on_qps, recorder_off_qps, overhead_pct });
    }
    sapla_obs::recorder::set_armed(true);
    server.stop();
    out
}

fn push_kv(out: &mut String, key: &str, value: f64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    // Finite by construction; emit with enough precision to round-trip.
    out.push_str(&format!("{value:.1}"));
}

impl PerfReport {
    /// Serialise as JSON (hand-rolled: the workspace builds offline with
    /// no serde).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str("{\n  \"threads\": ");
        s.push_str(&self.threads.to_string());
        s.push_str(",\n  \"reduce\": [\n");
        for (i, p) in self.reduce.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"n\": {}, \"segments\": {}, \"reps\": {}, ",
                p.n, p.segments, p.reps
            ));
            push_kv(&mut s, "ns_per_series", p.ns_per_series);
            s.push_str(", ");
            push_kv(&mut s, "series_per_sec", p.series_per_sec);
            s.push('}');
            if i + 1 < self.reduce.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ],\n  \"index\": [\n");
        for (i, p) in self.index.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"n\": {}, \"segments\": {}, \"db\": {}, \"queries\": {}, ",
                p.n, p.segments, p.db, p.queries
            ));
            push_kv(&mut s, "ingest_ns", p.ingest_ns);
            s.push_str(", ");
            push_kv(&mut s, "knn_ns_per_query", p.knn_ns_per_query);
            s.push('}');
            if i + 1 < self.index.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ],\n  \"knn\": [\n");
        for (i, p) in self.knn.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"n\": {}, \"segments\": {}, \"db\": {}, \"queries\": {}, ",
                p.n, p.segments, p.db, p.queries
            ));
            push_kv(&mut s, "refine_ns_per_candidate", p.refine_ns_per_candidate);
            s.push_str(", ");
            // Four decimals: rates live well below the 0.1 resolution of
            // the timing fields.
            s.push_str(&format!("\"abandon_rate\":{:.4}", p.abandon_rate));
            s.push('}');
            if i + 1 < self.knn.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ],\n  \"simd\": [\n");
        for (i, p) in self.simd.iter().enumerate() {
            s.push_str(&format!("    {{\"n\": {}, \"level\": \"{}\", ", p.n, p.level));
            push_kv(&mut s, "scalar_ns_per_query", p.scalar_ns_per_query);
            s.push_str(", ");
            push_kv(&mut s, "simd_ns_per_query", p.simd_ns_per_query);
            s.push('}');
            if i + 1 < self.simd.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ],\n  \"serve\": [\n");
        for (i, p) in self.serve.iter().enumerate() {
            s.push_str(&format!("    {{\"n\": {}, \"batch\": {}, ", p.n, p.batch));
            push_kv(&mut s, "ns_per_query", p.ns_per_query);
            s.push_str(", ");
            push_kv(&mut s, "queries_per_sec", p.queries_per_sec);
            s.push('}');
            if i + 1 < self.serve.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ],\n  \"obs_overhead\": [\n");
        for (i, p) in self.obs_overhead.iter().enumerate() {
            s.push_str(&format!("    {{\"n\": {}, \"batch\": {}, ", p.n, p.batch));
            push_kv(&mut s, "recorder_on_qps", p.recorder_on_qps);
            s.push_str(", ");
            push_kv(&mut s, "recorder_off_qps", p.recorder_off_qps);
            // Two decimals: the acceptance bar is a 5% budget, so tenths
            // of a percent matter.
            s.push_str(&format!(", \"overhead_pct\":{:.2}", p.overhead_pct));
            s.push('}');
            if i + 1 < self.obs_overhead.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ],\n  \"cold_start\": [\n");
        for (i, p) in self.cold_start.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"n\": {}, \"db\": {}, \"file_bytes\": {}, ",
                p.n, p.db, p.file_bytes
            ));
            push_kv(&mut s, "build_ns", p.build_ns);
            s.push_str(", ");
            push_kv(&mut s, "load_ns", p.load_ns);
            s.push_str(", ");
            push_kv(&mut s, "load_mb_per_s", p.load_mb_per_s);
            // Two decimals: the acceptance bar is a 10x speedup, so
            // hundredths matter near the threshold.
            s.push_str(&format!(", \"speedup\":{:.2}", p.speedup));
            s.push('}');
            if i + 1 < self.cold_start.len() {
                s.push(',');
            }
            s.push('\n');
        }
        s.push_str("  ],\n  \"ops\": ");
        // The snapshot serialises itself; embed it as a nested object
        // (inner indentation is cosmetic, the JSON stays valid).
        s.push_str(self.ops.to_json().trim_end());
        s.push_str("\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_grid_runs_and_serialises() {
        let report = run(&PerfGrid::quick());
        assert!(!report.reduce.is_empty());
        assert!(!report.index.is_empty());
        for p in &report.reduce {
            assert!(p.ns_per_series > 0.0 && p.series_per_sec > 0.0);
        }
        assert_eq!(report.knn.len(), report.index.len());
        let json = report.to_json();
        assert!(json.contains("\"reduce\""));
        assert!(json.contains("\"index\""));
        assert!(json.contains("\"knn\""));
        assert!(json.contains("\"refine_ns_per_candidate\""));
        assert!(json.contains("\"abandon_rate\""));
        assert!(json.contains("\"ns_per_series\""));
        assert!(json.contains("\"serve\""));
        assert!(json.contains("\"queries_per_sec\""));
        assert!(json.contains("\"simd\""));
        assert!(json.contains("\"scalar_ns_per_query\""));
        assert_eq!(report.simd.len(), report.index.len());
        for p in &report.simd {
            assert!(p.scalar_ns_per_query > 0.0 && p.simd_ns_per_query > 0.0);
        }
        assert_eq!(report.serve.len(), PerfGrid::quick().serve_batches.len());
        for p in &report.serve {
            assert!(p.ns_per_query > 0.0 && p.queries_per_sec > 0.0);
        }
        assert!(json.contains("\"obs_overhead\""));
        assert!(json.contains("\"recorder_on_qps\""));
        assert!(json.contains("\"overhead_pct\""));
        assert_eq!(report.obs_overhead.len(), PerfGrid::quick().serve_batches.len());
        for p in &report.obs_overhead {
            assert!(p.recorder_on_qps > 0.0 && p.recorder_off_qps > 0.0);
            assert!(p.overhead_pct.is_finite());
        }
        assert!(json.contains("\"cold_start\""));
        assert!(json.contains("\"file_bytes\""));
        assert!(json.contains("\"load_mb_per_s\""));
        assert_eq!(report.cold_start.len(), PerfGrid::quick().cold_start_dbs.len());
        for p in &report.cold_start {
            assert!(p.build_ns > 0.0 && p.load_ns > 0.0);
            assert!(p.file_bytes > 0 && p.load_mb_per_s > 0.0);
            assert!(p.speedup.is_finite() && p.speedup > 0.0);
        }
        // The recorder is re-armed after the A/B (it's process-global).
        assert_eq!(sapla_obs::recorder::armed(), sapla_obs::enabled());
        // The ops section is always present; its content tracks the
        // feature state of this build.
        assert!(json.contains("\"ops\""));
        assert!(json.contains("\"counters\""));
        assert_eq!(report.ops.is_empty(), !sapla_obs::enabled());
        // Crude structural sanity: balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn quick_grid_runs_without_the_simd_comparison() {
        let mut grid = PerfGrid::quick();
        // The `--no-simd` shape: no A/B section, and no `simd::force`
        // calls racing the other test in this process.
        grid.simd_compare = false;
        let report = run(&grid);
        assert!(!report.index.is_empty());
        assert!(report.simd.is_empty());
        let json = report.to_json();
        assert!(json.contains("\"simd\": [\n  ]"));
    }
}
