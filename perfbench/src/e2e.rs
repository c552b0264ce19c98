//! The end-to-end run. It alternates set-up and serving: each round
//! builds the engine, writes and cold-starts its snapshot, binds a
//! server, and serves the pool over closed-loop connections for its
//! share of the measured seconds. This host's speed drifts by tens of
//! percent over seconds, so spreading the set-ups and serving windows
//! over the whole run makes their medians steadier than back-to-back
//! repetitions would.

use std::time::{Duration, Instant};

use sapla_index::Engine;
use sapla_serve::{Server, ServerConfig};

use crate::fixture::{drive, msg, peak_rss_mib, Expected, Sample, ScratchFile, Until};
use crate::stats::{mean, median, percentile, recall};
use crate::workload::{build_engine, Inputs, Workload};
use crate::Report;

/// Requests each connection sends to a fresh server before its serving
/// window, so connection set-up and cold caches stay out of the timing.
const WARMUP_REQUESTS: usize = 16;
/// Snapshot loads per round: a cold start is short enough that one
/// sample per round leaves its median noisy.
const COLD_STARTS: usize = 3;

pub fn run(w: &Workload, inputs: &Inputs, seconds: u64, threads: usize) -> Result<Report, String> {
    let raw_bytes = (w.db * w.n * std::mem::size_of::<f64>()) as f64;
    let raw: Vec<Vec<f64>> = inputs.queries.iter().map(|q| q.values().to_vec()).collect();
    let clients = threads;
    let window = Duration::from_secs_f64(seconds as f64 / w.rounds as f64);
    let (mut setup, mut index_build, mut cold_start, mut snap_ratio) =
        (vec![], vec![], vec![], vec![]);
    let (mut reference, mut warm, mut samples, mut window_s) = (None, Vec::new(), Vec::new(), 0.0);
    for _ in 0..w.rounds {
        let raws = inputs.db.clone();
        let t = Instant::now();
        let engine = build_engine(raws, 0).map_err(msg)?;
        let build_s = t.elapsed().as_secs_f64();

        let snap = ScratchFile::new()?;
        let t = Instant::now();
        let bytes = engine.write_snapshot_file(&snap.path, None).map_err(msg)?;
        let write_s = t.elapsed().as_secs_f64();
        let mut loaded = None;
        for _ in 0..COLD_STARTS {
            let t = Instant::now();
            let engine = Engine::from_snapshot_file(&snap.path).map_err(msg)?;
            cold_start.push(t.elapsed().as_secs_f64());
            loaded.get_or_insert(engine);
        }
        let loaded = loaded.expect("COLD_STARTS > 0");
        drop(snap);

        // Reference answers come from the first round's engines, outside
        // every timed interval; later rounds must serve the same answers.
        if reference.is_none() {
            let queries = engine.prepare(&inputs.queries, threads).map_err(msg)?;
            let built = Expected::compute(&engine, &queries, inputs, threads)?;
            let from_snapshot = Expected::compute(&loaded, &queries, inputs, threads)?;
            reference = Some((built.check(&from_snapshot, inputs), built));
        }
        drop(loaded);
        let want = &reference.as_ref().expect("set on the first round").1;

        let t = Instant::now();
        let server = Server::start(engine, "127.0.0.1:0", ServerConfig::default()).map_err(msg)?;
        setup.push(build_s + t.elapsed().as_secs_f64());
        index_build.push(build_s + write_s);
        snap_ratio.push(bytes as f64 / raw_bytes);

        let served = (|| -> Result<(Vec<Sample>, Vec<Sample>, f64), String> {
            let warm = drive(
                server.addr(),
                clients,
                Until::Requests(WARMUP_REQUESTS),
                &raw,
                inputs,
                want,
            )?;
            let start = Instant::now();
            let samples =
                drive(server.addr(), clients, Until::Deadline(start + window), &raw, inputs, want)?;
            Ok((warm, samples, start.elapsed().as_secs_f64()))
        })();
        server.stop();
        let served = served?;
        warm.extend(served.0);
        samples.extend(served.1);
        window_s += served.2;
    }
    let (pool_ok, want) = reference.ok_or("no set-up ran")?;

    let failed_requests = warm.iter().chain(&samples).filter(|s| !s.ok).count();
    let failed_pool = pool_ok.iter().filter(|&&ok| !ok).count();
    let ms = |range: bool| -> Vec<f64> {
        samples.iter().filter(|s| s.ok && s.range == range).map(|s| s.secs * 1e3).collect()
    };
    let (knn_ms, range_ms) = (ms(false), ms(true));
    let pct = |v: &[f64], p: usize, name: &str| {
        percentile(v, p).ok_or_else(|| format!("{name}: {} samples are too few for p{p}", v.len()))
    };
    let recall_at_k =
        mean(want.knn.iter().zip(&inputs.truth).map(|(a, t)| recall(&a.retrieved, &t.knn)));
    let range_recall =
        mean(want.range.iter().zip(&inputs.truth).map(|(a, t)| recall(&a.retrieved, &t.in_range)));

    let med = |v: &[f64]| median(v).expect("at least one set-up ran");
    Ok(Report {
        attempted: (warm.len() + samples.len() + pool_ok.len()) as u64,
        failed: (failed_requests + failed_pool) as u64,
        metrics: vec![
            ("setup_s", med(&setup)),
            ("throughput_rps", (knn_ms.len() + range_ms.len()) as f64 / window_s),
            ("knn_p50_ms", pct(&knn_ms, 50, "knn")?),
            ("knn_p95_ms", pct(&knn_ms, 95, "knn")?),
            ("range_p50_ms", pct(&range_ms, 50, "range")?),
            ("range_p95_ms", pct(&range_ms, 95, "range")?),
            ("recall_at_k", recall_at_k),
            ("range_recall", range_recall),
            ("index_build_s", med(&index_build)),
            ("cold_start_s", med(&cold_start)),
            ("snapshot_bytes_ratio", med(&snap_ratio)),
            ("peak_rss_mib", peak_rss_mib()?),
        ],
        context: vec![
            ("clients", clients.to_string()),
            ("rounds", w.rounds.to_string()),
            ("knn_samples", knn_ms.len().to_string()),
            ("range_samples", range_ms.len().to_string()),
            ("window_s", window_s.to_string()),
        ],
    })
}
