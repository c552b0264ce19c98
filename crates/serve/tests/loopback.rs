//! Loopback integration tests for the daemon: a real `TcpListener` on
//! `127.0.0.1:0`, real client connections, concurrent load.
//!
//! The load-bearing property is pinned in
//! [`concurrent_clients_get_bit_identical_answers`]: whatever admission
//! batches the server happens to coalesce under concurrency, every
//! query's answer is bit-identical to a single-process `Engine::knn`
//! call.

use std::sync::Arc;

use sapla_baselines::{Paa, SaplaReducer};
use sapla_core::TimeSeries;
use sapla_index::{Engine, EngineConfig, SearchStats, TreeKind};
use sapla_serve::{Client, MetricsFormat, Server, ServerConfig};

const LEN: usize = 64;

fn samples(i: usize) -> Vec<f64> {
    (0..LEN)
        .map(|t| {
            ((t + i * 13) as f64 * 0.19).sin() * (1.0 + (i % 4) as f64 * 0.3)
                + (i as f64 * 0.37).cos() * 0.4
        })
        .collect()
}

fn dataset(n: usize) -> Vec<TimeSeries> {
    (0..n).map(|i| TimeSeries::new(samples(i)).unwrap().znormalized()).collect()
}

/// Raw query vectors, already z-normalized to match the dataset.
fn query_samples(n: usize) -> Vec<Vec<f64>> {
    dataset(n).iter().map(|s| s.values().to_vec()).collect()
}

fn build_engine(raws: &[TimeSeries], shards: usize, tree: TreeKind) -> Engine {
    let cfg = EngineConfig { shards, tree, ..EngineConfig::default() };
    Engine::build(cfg, Box::new(SaplaReducer::new()), raws.to_vec(), 2).unwrap()
}

/// Local ground truth through the same engine code path the server
/// batches into.
fn local_answers(reference: &Engine, queries: &[Vec<f64>], k: usize) -> Vec<SearchStats> {
    let raws: Vec<TimeSeries> =
        queries.iter().map(|q| TimeSeries::new(q.clone()).unwrap()).collect();
    let prepared = reference.prepare(&raws, 2).unwrap();
    reference.knn(&prepared, k, 2).unwrap().0
}

fn assert_matches_local(got: &sapla_serve::KnnResponse, want: &[SearchStats], context: &str) {
    assert_eq!(got.per_query.len(), want.len(), "{context}: query count");
    for (qi, (g, w)) in got.per_query.iter().zip(want).enumerate() {
        let want_hits: Vec<(u64, u64)> = w
            .retrieved
            .iter()
            .zip(&w.distances)
            .map(|(&id, &d)| (id as u64, d.to_bits()))
            .collect();
        let got_hits: Vec<(u64, u64)> = g.hits.iter().map(|&(id, d)| (id, d.to_bits())).collect();
        assert_eq!(got_hits, want_hits, "{context}: query {qi} differs from the local engine");
        assert_eq!(g.measured, w.measured as u64, "{context}: query {qi} measured");
    }
}

#[test]
fn serves_knn_bit_identical_to_the_local_batch_path() {
    let raws = dataset(48);
    let queries = query_samples(10);
    let reference = build_engine(&raws, 1, TreeKind::Dbch);
    let want = local_answers(&reference, &queries, 5);

    let server = Server::start(
        build_engine(&raws, 1, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let got = client.knn(&queries, 5).unwrap();
    assert_matches_local(&got, &want, "sequential");
    // A lone request is its own admission batch, so the batch counters
    // must equal this very batch's.
    let want_measured: usize = want.iter().map(|s| s.measured).sum();
    assert_eq!(got.batch_measured, want_measured as u64);
    assert_eq!(got.batch_candidates, (queries.len() * raws.len()) as u64);
    server.stop();
}

#[test]
fn sharded_server_agrees_with_a_local_sharded_engine() {
    let raws = dataset(60);
    let queries = query_samples(6);
    let reference = build_engine(&raws, 3, TreeKind::Dbch);
    let want = local_answers(&reference, &queries, 4);

    let server = Server::start(
        build_engine(&raws, 3, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let got = client.knn(&queries, 4).unwrap();
    assert_matches_local(&got, &want, "sharded");
    server.stop();
}

/// ≥2 concurrent connections hammer the daemon; coalesced or not, every
/// reply must be bit-identical to the local engine. Mixed `k` values
/// exercise the batcher's group-by-k splitting.
#[test]
fn concurrent_clients_get_bit_identical_answers() {
    let raws = dataset(64);
    let reference = Arc::new(build_engine(&raws, 1, TreeKind::Dbch));
    let server = Server::start(
        build_engine(&raws, 1, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.addr();

    const CLIENTS: usize = 4;
    const ROUNDS: usize = 5;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|ci| {
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let k = 3 + ci % 3; // three distinct k values across clients
                for round in 0..ROUNDS {
                    let queries: Vec<Vec<f64>> =
                        (0..3).map(|j| samples(100 + ci * 31 + round * 7 + j)).collect();
                    let want = local_answers(&reference, &queries, k);
                    let got = client.knn(&queries, k).unwrap();
                    let ctx = format!("client {ci} round {round}");
                    assert_matches_local(&got, &want, &ctx);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let mut client = Client::connect(addr).unwrap();
    let stats = client.stats().unwrap();
    let total_queries = CLIENTS * ROUNDS * 3;
    assert!(stats.contains("\"server\""), "stats is a JSON document: {stats}");
    assert!(
        stats.contains(&format!("\"batched_queries\": {total_queries}")),
        "every query must ride an admission batch: {stats}"
    );
    assert!(!stats.contains("\"batches\": 0"), "at least one batch ran: {stats}");
    if sapla_obs::enabled() {
        // The obs registry must carry the serve-layer metrics and the
        // engine's pruning counters (non-zero by construction: the
        // queries above all measured candidates).
        for name in
            ["serve.requests", "serve.batch.queries", "serve.request.ns", "index.knn.queries"]
        {
            assert!(stats.contains(name), "obs snapshot should name {name}: {stats}");
        }
    }
    server.stop();
}

#[test]
fn range_queries_roundtrip() {
    let raws = dataset(35);
    let queries = query_samples(3);
    let reference = build_engine(&raws, 1, TreeKind::Dbch);
    let server = Server::start(
        build_engine(&raws, 1, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    for q in &queries {
        let raw = TimeSeries::new(q.clone()).unwrap();
        let prepared = reference.prepare(std::slice::from_ref(&raw), 1).unwrap();
        let want = reference.range(&prepared[0], 4.0).unwrap();
        let got = client.range(q, 4.0).unwrap();
        let want_hits: Vec<(u64, u64)> = want
            .retrieved
            .iter()
            .zip(&want.distances)
            .map(|(&id, &d)| (id as u64, d.to_bits()))
            .collect();
        let got_hits: Vec<(u64, u64)> = got.hits.iter().map(|&(id, d)| (id, d.to_bits())).collect();
        assert_eq!(got_hits, want_hits);
        assert!(!got.hits.is_empty(), "the query itself is within epsilon");
    }
    assert!(client.range(&queries[0], -1.0).is_err(), "negative epsilon is rejected");
    server.stop();
}

#[test]
fn snapshot_reload_cycle_preserves_answers_and_survives_garbage() {
    let raws = dataset(40);
    let queries = query_samples(5);
    let server = Server::start(
        build_engine(&raws[..30], 2, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let before = client.knn(&queries, 4).unwrap();

    // The reply is a snapshot image of the serving engine: loaded
    // locally, it answers bit-identically.
    let image = client.snapshot().unwrap();
    let local = Engine::from_snapshot_image(&image).unwrap();
    assert_eq!(local.len(), 30);
    assert_matches_local(&before, &local_answers(&local, &queries, 4), "snapshot image");

    // Reloading that image leaves answers unchanged.
    assert_eq!(client.reload(&image).unwrap(), 30);
    let after = client.knn(&queries, 4).unwrap();
    assert_eq!(after.per_query, before.per_query, "reload must not change answers");

    // A larger image changes membership (and shard count); answers then
    // match a local engine loaded from the same image.
    let larger = build_engine(&raws, 3, TreeKind::Dbch).snapshot_image(None).unwrap();
    assert_eq!(client.reload(&larger).unwrap(), raws.len() as u64);
    let grown = client.knn(&queries, 4).unwrap();
    let want = local_answers(&Engine::from_snapshot_image(&larger).unwrap(), &queries, 4);
    assert_matches_local(&grown, &want, "larger image");

    // Garbage, a truncated image, and an empty blob without an index file
    // are rejected; the server keeps serving the current generation.
    assert!(client.reload(b"not a snapshot").is_err(), "garbage is rejected");
    assert!(client.reload(&larger[..larger.len() / 2]).is_err(), "truncation is rejected");
    assert!(client.reload(&[]).is_err(), "an empty blob needs an index file");
    let still = client.knn(&queries, 4).unwrap();
    assert_eq!(still.per_query, grown.per_query);

    let stats = client.stats().unwrap();
    assert!(stats.contains("\"reloads\": 2"), "two successful reloads: {stats}");
    assert!(stats.contains("\"generation\": 2"), "generation tracks reloads: {stats}");
    assert!(stats.contains("\"indexed\": 40"), "the larger generation serves: {stats}");
    server.stop();
}

#[test]
fn empty_reload_rereads_the_configured_snapshot_file() {
    let raws = dataset(30);
    let queries = query_samples(4);
    let path = std::env::temp_dir().join(format!("sapla-serve-reload-{}.snap", std::process::id()));
    let server = Server::start(
        build_engine(&raws[..10], 1, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig { index_file: Some(path.clone()), ..ServerConfig::default() },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // Publish a *larger* index to the snapshot file, then reload with an
    // empty blob: the file is authoritative, so membership may change.
    build_engine(&raws, 2, TreeKind::Dbch).write_snapshot_file(&path, None).unwrap();
    assert_eq!(client.reload(&[]).unwrap(), raws.len() as u64);
    let got = client.knn(&queries, 3).unwrap();
    let want = local_answers(&build_engine(&raws, 2, TreeKind::Dbch), &queries, 3);
    assert_matches_local(&got, &want, "reload-from-file");

    // A non-empty blob is loaded as a snapshot image instead of the file.
    let blob = client.snapshot().unwrap();
    assert_eq!(client.reload(&blob).unwrap(), raws.len() as u64);

    // A vanished file is an error response, not a crash, and the server
    // keeps answering on the generation it already has.
    std::fs::remove_file(&path).unwrap();
    assert!(client.reload(&[]).is_err(), "missing index file is a clean error");
    let still = client.knn(&queries, 3).unwrap();
    assert_eq!(still.per_query, got.per_query);
    server.stop();
}

/// A daemon serving an engine loaded from a quantized snapshot cannot
/// re-image it (the image would drop the `Dist_LB` slack that keeps its
/// pruning sound): `OP_SNAPSHOT` is an error response, and the daemon
/// keeps serving.
#[test]
fn snapshot_of_a_quantized_lineage_daemon_is_an_error_response() {
    let raws = dataset(30);
    let queries = query_samples(3);
    let quantized = build_engine(&raws, 1, TreeKind::Dbch).snapshot_image(Some(0.01)).unwrap();
    let reference = Engine::from_snapshot_image(&quantized).unwrap();
    assert!(reference.lb_slack() > 0.0);
    let want = local_answers(&reference, &queries, 3);
    let server = Server::start(
        Engine::from_snapshot_image(&quantized).unwrap(),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.snapshot().is_err(), "a quantized-lineage engine cannot be re-imaged");
    let got = client.knn(&queries, 3).unwrap();
    assert_matches_local(&got, &want, "after the refused snapshot");
    server.stop();
}

/// Queued queries were prepared with the serving engine's reducer and
/// `m`, so a reload, from the index file or from a blob, that would
/// change either is refused and the old generation keeps serving.
#[test]
fn reload_refuses_a_different_method_or_coefficient_budget() {
    let raws = dataset(24);
    let queries = query_samples(3);
    let path =
        std::env::temp_dir().join(format!("sapla-serve-reload-method-{}.snap", std::process::id()));
    let server = Server::start(
        build_engine(&raws, 1, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig { index_file: Some(path.clone()), ..ServerConfig::default() },
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let before = client.knn(&queries, 3).unwrap();

    let paa = Engine::build(EngineConfig::default(), Box::new(Paa), raws.clone(), 2).unwrap();
    paa.write_snapshot_file(&path, None).unwrap();
    assert!(client.reload(&[]).is_err(), "a PAA index file is refused");
    assert!(client.reload(&paa.snapshot_image(None).unwrap()).is_err(), "a PAA image is refused");
    let cfg = EngineConfig { m: 9, ..EngineConfig::default() };
    let other_m = Engine::build(cfg, Box::new(SaplaReducer::new()), raws.clone(), 2).unwrap();
    assert!(client.reload(&other_m.snapshot_image(None).unwrap()).is_err(), "m = 9 is refused");

    let still = client.knn(&queries, 3).unwrap();
    assert_eq!(still.per_query, before.per_query);
    let stats = client.stats().unwrap();
    assert!(stats.contains("\"reloads\": 0"), "no reload succeeded: {stats}");
    assert!(stats.contains("\"method\": \"SAPLA\""), "SAPLA still serves: {stats}");
    std::fs::remove_file(&path).ok();
    server.stop();
}

#[test]
fn rtree_backed_server_answers_batches() {
    let raws = dataset(40);
    let queries = query_samples(6);
    let reference = build_engine(&raws, 1, TreeKind::Rtree);
    let want = local_answers(&reference, &queries, 3);
    let server = Server::start(
        build_engine(&raws, 1, TreeKind::Rtree),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let got = client.knn(&queries, 3).unwrap();
    assert_matches_local(&got, &want, "rtree");
    server.stop();
}

#[test]
fn malformed_requests_get_error_responses_not_disconnects() {
    let raws = dataset(20);
    let queries = query_samples(2);
    let server = Server::start(
        build_engine(&raws, 1, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    assert!(client.knn(&queries, 0).is_err(), "k = 0");
    assert!(client.knn(&[], 3).is_err(), "no queries");
    let bad = vec![vec![f64::NAN; LEN]];
    assert!(client.knn(&bad, 3).is_err(), "non-finite samples");
    let empty = vec![Vec::new()];
    assert!(client.knn(&empty, 3).is_err(), "empty series");

    // The same connection still works after every rejected request.
    let ok = client.knn(&queries, 3).unwrap();
    assert_eq!(ok.per_query.len(), 2);
    server.stop();
}

/// `k` is client-controlled, so no allocation may be sized by it: a
/// 20-series daemon answers `k = u32::MAX` with all 20 hits, exactly as
/// the local engine does, and keeps serving afterwards.
#[test]
fn huge_k_returns_every_entry_and_keeps_serving() {
    let raws = dataset(20);
    let queries = query_samples(2);
    let reference = build_engine(&raws, 1, TreeKind::Dbch);
    let server = Server::start(
        build_engine(&raws, 1, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let k = u32::MAX as usize;
    let got = client.knn(&queries, k).unwrap();
    for q in &got.per_query {
        assert_eq!(q.hits.len(), raws.len());
    }
    assert_matches_local(&got, &local_answers(&reference, &queries, k), "k = u32::MAX");

    let after = client.knn(&queries, 3).unwrap();
    assert_matches_local(&after, &local_answers(&reference, &queries, 3), "after a huge k");
    server.stop();
}

#[test]
fn wire_shutdown_drains_and_stops_the_server() {
    let raws = dataset(20);
    let queries = query_samples(2);
    let server = Server::start(
        build_engine(&raws, 1, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let addr = server.addr();
    let mut client = Client::connect(addr).unwrap();
    client.knn(&queries, 2).unwrap();
    client.shutdown().unwrap();
    // join() returns only once the accept loop, connection threads, and
    // batcher have all wound down.
    server.join();
    assert!(
        Client::connect(addr).is_err() || {
            // The OS may hand the port to a fresh connect() briefly; a
            // request on it must fail either way.
            let mut c = Client::connect(addr).unwrap();
            c.knn(&queries, 1).is_err()
        }
    );
}

fn assert_balanced(json: &str, context: &str) {
    let opens = json.matches(['{', '[']).count();
    let closes = json.matches(['}', ']']).count();
    assert_eq!(opens, closes, "{context}: unbalanced JSON:\n{json}");
}

#[test]
fn metrics_exposition_parses_in_both_formats() {
    let raws = dataset(30);
    let queries = query_samples(4);
    let server = Server::start(
        build_engine(&raws, 2, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.knn(&queries, 3).unwrap();

    let json = client.metrics(MetricsFormat::Json).unwrap();
    assert_balanced(&json, "metrics json");
    for key in ["\"server\"", "\"obs\"", "\"latency\"", "\"trace\"", "\"armed\"", "\"recent\""] {
        assert!(json.contains(key), "metrics JSON missing {key}:\n{json}");
    }

    let text = client.metrics(MetricsFormat::Text).unwrap();
    assert!(text.contains("# TYPE sapla_server counter"), "text exposition header:\n{text}");
    assert!(
        text.lines().any(|l| l.starts_with("sapla_server{name=\"requests\"} ")),
        "server counters as samples:\n{text}"
    );
    assert!(text.contains("sapla_slow_log_size 0"), "slow log off => empty:\n{text}");

    if sapla_obs::enabled() {
        // Stage rows surface over the wire (pre-registered, and the kNN
        // above exercised them), with self-describing buckets.
        for name in ["serve.stage.queue", "serve.stage.execute", "serve.request"] {
            assert!(json.contains(name), "metrics JSON missing stage row {name}:\n{json}");
            assert!(text.contains(name), "metrics text missing stage row {name}:\n{text}");
        }
        assert!(
            text.lines().any(|l| l.starts_with("sapla_hist_bucket{name=\"serve.request.ns\"")),
            "histogram buckets carry bounds:\n{text}"
        );
        // In-process view of the same registry: every percentile row the
        // exposition reports must be monotone and clamped to its max.
        let snap = sapla_obs::Snapshot::capture();
        assert!(!snap.windows.is_empty());
        for w in &snap.windows {
            assert!(
                w.p50 <= w.p95 && w.p95 <= w.p99 && w.p99 <= w.max,
                "percentiles must be monotone: {w:?}"
            );
        }
    }
    server.stop();
}

#[test]
fn metrics_surface_preregistered_stage_rows_before_traffic() {
    let raws = dataset(12);
    let server = Server::start(
        build_engine(&raws, 1, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    // No kNN traffic on this server: idle stages must still be listed
    // (zeros rather than omissions), per the pre-registration pattern.
    let json = client.metrics(MetricsFormat::Json).unwrap();
    assert_balanced(&json, "idle metrics json");
    if sapla_obs::enabled() {
        for stage in ["decode", "prepare", "queue", "batch", "execute", "merge", "reply"] {
            let name = format!("serve.stage.{stage}");
            assert!(json.contains(&name), "idle metrics must name {name}:\n{json}");
        }
        for name in ["serve.request.ns", "serve.batch.jobs", "engine.shard.knn.ns"] {
            assert!(json.contains(name), "idle metrics must name {name}:\n{json}");
        }
    }
    server.stop();
}

/// The trace objects of the `"slow"` array of an `OP_METRICS` JSON
/// document, one text slice per trace.
fn slow_log_traces(json: &str) -> Vec<&str> {
    let slow = json.split("\"slow\": [").nth(1).expect("metrics JSON carries a slow log");
    slow.split("{\"id\": ").skip(1).collect()
}

/// The unsigned integer after `"name": ` in a trace's JSON text.
fn trace_field(trace: &str, name: &str) -> u64 {
    let key = format!("\"{name}\": ");
    let rest = trace.split(&key).nth(1).unwrap_or_else(|| panic!("trace lacks {name}: {trace}"));
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().unwrap_or_else(|_| panic!("{name} is not a number: {trace}"))
}

#[test]
fn traces_decompose_end_to_end_latency_into_stages() {
    if !sapla_obs::enabled() {
        return; // the recorder compiles away without obs
    }
    let raws = dataset(40);
    let queries = query_samples(3);
    // Threshold 0 ms copies every finished request's trace into this
    // server's own slow log, so the test reads its trace from state no
    // other test touches. The connection serves requests in order, so
    // the kNN request's trace is logged before the metrics request
    // below is read.
    let cfg = ServerConfig { slow_ms: Some(0), ..ServerConfig::default() };
    let server = Server::start(build_engine(&raws, 2, TreeKind::Dbch), "127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.knn(&queries, 6).unwrap();

    let json = client.metrics(MetricsFormat::Json).unwrap();
    let traces: Vec<&str> =
        slow_log_traces(&json).into_iter().filter(|d| trace_field(d, "k") == 6).collect();
    assert!(!traces.is_empty(), "the k=6 request must have left a trace:\n{json}");
    for d in &traces {
        for stage in ["decode", "prepare", "queue", "batch", "execute", "merge", "reply"] {
            let name = format!("\"name\": \"{stage}\"");
            assert!(d.contains(&name), "trace {d} is missing stage {stage}");
        }
        let total_ns = trace_field(d, "total_ns");
        assert!(total_ns > 0, "completed trace has an end stamp: {d}");
        assert!(
            trace_field(d, "stage_sum_ns") <= total_ns,
            "stages are disjoint sub-intervals, so their sum is bounded by \
             the end-to-end latency: {d}"
        );
        let nq = trace_field(d, "batch_queries");
        assert!(nq >= queries.len() as u64, "the batch carried at least our queries: {d}");
    }

    // The same decomposition is retrievable over the wire.
    for stage in ["\"decode\"", "\"queue\"", "\"execute\"", "\"reply\""] {
        assert!(json.contains(stage), "wire metrics must carry stage names:\n{json}");
    }
    server.stop();
}

#[test]
fn slow_query_log_captures_over_threshold_requests() {
    let raws = dataset(30);
    let queries = query_samples(2);
    // Threshold 0 ms: every completed request is deliberately "slow",
    // which keeps the test deterministic without real delays.
    let cfg = ServerConfig { slow_ms: Some(0), ..ServerConfig::default() };
    let server = Server::start(build_engine(&raws, 1, TreeKind::Dbch), "127.0.0.1:0", cfg).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.knn(&queries, 5).unwrap();

    let json = client.metrics(MetricsFormat::Json).unwrap();
    assert_balanced(&json, "slow-log metrics json");
    assert!(json.contains("\"slow_threshold_ns\": 0"), "threshold surfaces:\n{json}");
    let text = client.metrics(MetricsFormat::Text).unwrap();
    assert!(text.contains("sapla_slow_threshold_ns 0"), "threshold in text:\n{text}");
    if sapla_obs::enabled() {
        let slow = json.split("\"slow\": ").nth(1).unwrap_or("");
        assert!(
            slow.contains("\"stages\""),
            "the slow log must carry complete stage traces:\n{json}"
        );
        assert!(
            !text.contains("sapla_slow_log_size 0"),
            "at least one request overran the 0ms threshold:\n{text}"
        );
    } else {
        assert!(json.contains("\"slow\": []"), "recorder off => empty slow log:\n{json}");
    }
    server.stop();
}

/// Hand-rolled frames (the wire module is private): malformed
/// `OP_METRICS` bodies must produce error *responses*, never a panic or
/// a dropped connection.
#[test]
fn malformed_metrics_frames_get_error_responses() {
    use std::io::{Read, Write};

    fn roundtrip_raw(stream: &mut std::net::TcpStream, payload: &[u8]) -> Vec<u8> {
        let len = u32::try_from(payload.len()).unwrap();
        stream.write_all(&len.to_le_bytes()).unwrap();
        stream.write_all(payload).unwrap();
        stream.flush().unwrap();
        let mut len4 = [0u8; 4];
        stream.read_exact(&mut len4).unwrap();
        let mut response = vec![0u8; u32::from_le_bytes(len4) as usize];
        stream.read_exact(&mut response).unwrap();
        response
    }

    let raws = dataset(12);
    let server = Server::start(
        build_engine(&raws, 1, TreeKind::Dbch),
        "127.0.0.1:0",
        ServerConfig::default(),
    )
    .unwrap();
    let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();

    // Truncated (no format byte), unknown format, trailing garbage.
    for bad in [&[0x07u8][..], &[0x07, 0x09], &[0x07, 0x00, 0x00]] {
        let response = roundtrip_raw(&mut stream, bad);
        assert_eq!(response.first(), Some(&1u8), "status ERR for {bad:?}: {response:?}");
    }
    // The connection survives and a well-formed request still answers.
    let response = roundtrip_raw(&mut stream, &[0x07, 0x00]);
    assert_eq!(response.first(), Some(&0u8), "valid OP_METRICS after errors");
    server.stop();
}

/// Regression: `Server::stop` must terminate even when shutdown races
/// the batcher's check-then-wait entry. The pre-fix `initiate_shutdown`
/// stored the shutdown flag *outside* the queue lock, so its notify
/// could land between the batcher's flag check and its wait — nobody
/// was waiting yet, the wakeup was lost, and `stop()` hung joining the
/// batcher. The admission-queue model in
/// `crates/audit/tests/model_serve.rs` reproduces that lost wakeup
/// deterministically; this test guards the wiring under real threads,
/// where an immediate stop lands close to the batcher's wait entry.
#[test]
fn stop_terminates_promptly_even_when_racing_the_batcher() {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let raws = dataset(8);
        for _ in 0..50 {
            let server = Server::start(
                build_engine(&raws, 1, TreeKind::Dbch),
                "127.0.0.1:0",
                ServerConfig::default(),
            )
            .unwrap();
            server.stop();
        }
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(std::time::Duration::from_secs(120))
        .expect("Server::stop hung: a shutdown wakeup was lost");
}
