//! The traced run: per-layer costs, timed from outside around public
//! calls into each layer — the program itself carries no tracing.
//!
//! Each layer is timed per pool query in its own pass: requests over a
//! single connection, then the same queries' in-process prepare, search,
//! scan and range on one thread. (Interleaving the layers query by query
//! would let the scan evict the caches the search relies on.) This
//! host's speed drifts by tens of percent over seconds, so the passes
//! repeat in rounds and each layer's cost averages over them, and
//! one-thread against all-thread timings run in A-B-B-A order, which
//! cancels a linear drift. Admission batching is read from the server's
//! counters over one pass of `threads` connections.

use std::time::Instant;

use sapla_baselines::{reduce_batch_parallel, SaplaReducer};
use sapla_core::{Representation, TimeSeries};
use sapla_index::{linear_scan_knn, Engine};
use sapla_serve::{Client, Server, ServerConfig};

use crate::fixture::{drive, msg, request, Expected, ScratchFile, Until};
use crate::json;
use crate::stats::mean;
use crate::workload::{engine_config, Inputs, Workload, K, M, POOL};
use crate::Report;

/// Queries per in-process batch (the engine's query-major block).
const BATCH: usize = sapla_index::DEFAULT_QUERY_BLOCK;
const MIB: f64 = 1024.0 * 1024.0;
/// Passes over the pool per layer; the first warms caches and is not
/// counted.
const ROUNDS: usize = 3;

fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (t.elapsed().as_secs_f64(), out)
}

fn timed_us<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let (s, out) = timed(f);
    (s * 1e6, out)
}

/// Mean seconds of `a` and of `b`, run in the order a, b, b, a.
fn abba<T>(mut a: impl FnMut() -> T, mut b: impl FnMut() -> T) -> (f64, f64, T) {
    let (a1, _) = timed(&mut a);
    let (b1, out) = timed(&mut b);
    let (b2, _) = timed(&mut b);
    let (a2, _) = timed(&mut a);
    ((a1 + a2) / 2.0, (b1 + b2) / 2.0, out)
}

fn server_counter(stats: &str, key: &str) -> Result<f64, String> {
    json::parse(stats)?
        .get("server")
        .and_then(|s| s.get(key))
        .and_then(json::Value::as_f64)
        .ok_or_else(|| format!("stats document has no server.{key}"))
}

/// One pool query's timings, in microseconds, and work counts.
#[derive(Default, Clone, Copy)]
struct QueryCost {
    request: f64,
    range_request: bool,
    prepare: f64,
    search: f64,
    measured: f64,
    scan: f64,
    range: f64,
    range_measured: f64,
}

pub fn run(w: &Workload, inputs: &Inputs, threads: usize) -> Result<Report, String> {
    let reducer = SaplaReducer::new();
    let series = w.db as f64;
    let assemble = |reps: &[Representation], raws: &[TimeSeries]| {
        Engine::from_parts(
            engine_config(),
            Box::new(SaplaReducer::new()),
            reps.to_vec(),
            raws.to_vec(),
        )
    };

    // Build layers: batch reduction (sapla-baselines over sapla-core),
    // tree insertion (sapla-index), snapshot write and load (sapla-store).
    let (reduce_1, reduce_n, reps) = abba(
        || reduce_batch_parallel(&reducer, &inputs.db, M, 1),
        || reduce_batch_parallel(&reducer, &inputs.db, M, threads),
    );
    let reps = reps.map_err(msg)?;
    // Two engines of identical construction: one to serve, one for the
    // in-process replays.
    let (tree_a, served_engine) = timed(|| assemble(&reps, &inputs.db));
    let (tree_b, engine) = timed(|| assemble(&reps, &inputs.db));
    let (served_engine, engine) = (served_engine.map_err(msg)?, engine.map_err(msg)?);
    let snap = ScratchFile::new()?;
    let (write_s, bytes) = timed(|| engine.write_snapshot_file(&snap.path, None));
    let bytes = bytes.map_err(msg)? as f64;
    let (load_s, loaded) = timed(|| Engine::from_snapshot_file(&snap.path));
    let loaded = loaded.map_err(msg)?;
    drop(snap);

    let queries = engine.prepare(&inputs.queries, threads).map_err(msg)?;
    let want = Expected::compute(&engine, &queries, inputs, threads)?;
    let mut pool_ok = want.check(&Expected::compute(&loaded, &queries, inputs, threads)?, inputs);
    pool_ok
        .extend(want.check(&Expected::compute(&served_engine, &queries, inputs, threads)?, inputs));
    drop(loaded);

    let (batch_1, batch_n, batched) = abba(
        || queries.chunks(BATCH).try_for_each(|b| engine.knn(b, K, 1).map(|_| ())),
        || queries.chunks(BATCH).try_for_each(|b| engine.knn(b, K, threads).map(|_| ())),
    );
    batched.map_err(msg)?;

    let server =
        Server::start(served_engine, "127.0.0.1:0", ServerConfig::default()).map_err(msg)?;
    let raw: Vec<Vec<f64>> = inputs.queries.iter().map(|q| q.values().to_vec()).collect();
    let replay = || -> Result<(Vec<QueryCost>, f64, usize), String> {
        let mut client = Client::connect(server.addr()).map_err(msg)?;
        let mut costs = vec![QueryCost::default(); POOL];
        let mut failed = 0;
        for round in 0..ROUNDS {
            let keep = if round == 0 { 0.0 } else { 1.0 / (ROUNDS - 1) as f64 };
            for (qi, c) in costs.iter_mut().enumerate() {
                let sample = request(&mut client, qi, &raw, inputs, &want);
                failed += usize::from(!sample.ok);
                c.request += keep * sample.secs * 1e6;
                c.range_request = sample.range;
            }
            for (c, q) in costs.iter_mut().zip(&queries) {
                let (us, prepared) = timed_us(|| engine.prepare(std::slice::from_ref(&q.raw), 1));
                prepared.map_err(msg)?;
                c.prepare += keep * us;
            }
            for (c, q) in costs.iter_mut().zip(&queries) {
                let (us, searched) = timed_us(|| engine.knn(std::slice::from_ref(q), K, 1));
                c.measured = searched.map_err(msg)?.0[0].measured as f64;
                c.search += keep * us;
            }
            for (c, q) in costs.iter_mut().zip(&queries) {
                let (us, scanned) = timed_us(|| linear_scan_knn(&q.raw, &inputs.db, K));
                scanned.map_err(msg)?;
                c.scan += keep * us;
            }
            for ((c, q), t) in costs.iter_mut().zip(&queries).zip(&inputs.truth) {
                let (us, ranged) = timed_us(|| engine.range(q, t.epsilon));
                c.range_measured = ranged.map_err(msg)?.measured as f64;
                c.range += keep * us;
            }
        }
        let before = client.stats().map_err(msg)?;
        let multi = drive(server.addr(), threads, Until::Requests(POOL), &raw, inputs, &want)?;
        let after = client.stats().map_err(msg)?;
        let delta =
            |key| Ok::<f64, String>(server_counter(&after, key)? - server_counter(&before, key)?);
        let batch_mean = delta("batched_queries")? / delta("batches")?.max(1.0);
        Ok((costs, batch_mean, failed + multi.iter().filter(|s| !s.ok).count()))
    };
    let replayed = replay();
    server.stop();
    let (costs, batch_queries_mean, failed_requests) = replayed?;

    // kNN requests only, against the in-process prepare and search of the
    // same queries.
    let knn: Vec<&QueryCost> = costs.iter().filter(|c| !c.range_request).collect();
    let request_us = mean(knn.iter().map(|c| c.request));
    let residual_us = mean(knn.iter().map(|c| c.request - c.prepare - c.search));
    let measured = mean(costs.iter().map(|c| c.measured));
    let search_us = mean(costs.iter().map(|c| c.search));
    let failed = failed_requests + pool_ok.iter().filter(|&&ok| !ok).count();

    Ok(Report {
        attempted: ((ROUNDS + threads) * POOL + pool_ok.len()) as u64,
        failed: failed as u64,
        metrics: vec![
            ("serve.request_us", request_us),
            ("serve.residual_us", residual_us),
            ("serve.batch_queries_mean", batch_queries_mean),
            ("prepare.us_per_query", mean(costs.iter().map(|c| c.prepare))),
            ("prepare.share", mean(knn.iter().map(|c| c.prepare)) / request_us),
            ("search.us_per_query", search_us),
            ("search.batch_us_per_query", batch_n * 1e6 / POOL as f64),
            ("search.measured_per_query", measured),
            ("search.pruning_power", measured / series),
            ("search.ns_per_measured", search_us * 1e3 / measured),
            ("search.refine_yield", K as f64 / measured),
            ("scan.us_per_query", mean(costs.iter().map(|c| c.scan))),
            ("range.us_per_query", mean(costs.iter().map(|c| c.range))),
            ("range.measured_per_query", mean(costs.iter().map(|c| c.range_measured))),
            ("build.reduce_us_per_series", reduce_n * 1e6 / series),
            ("build.tree_us_per_series", (tree_a + tree_b) / 2.0 * 1e6 / series),
            ("store.write_mib_per_s", bytes / MIB / write_s),
            ("store.load_mib_per_s", bytes / MIB / load_s),
            ("parallel.search_speedup", batch_1 / batch_n),
            ("parallel.reduce_speedup", reduce_1 / reduce_n),
        ],
        context: vec![("snapshot_bytes", bytes.to_string())],
    })
}
