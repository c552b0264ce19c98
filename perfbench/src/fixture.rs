//! What both run modes share: scratch snapshot files, the in-process
//! reference answers, answer checks, and the closed-loop client driver.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use sapla_index::{Engine, Query, SearchStats};
use sapla_serve::Client;

use crate::workload::{distance_matches, naive_distance, par_map, Inputs, K};

/// Directory (relative to the working directory, the checkout root)
/// that holds snapshot files while a run needs them.
pub const SCRATCH_DIR: &str = ".perfbench_tmp";

/// A snapshot file path unique to this process *and* this call, removed
/// on drop.
pub struct ScratchFile {
    pub path: PathBuf,
}

impl ScratchFile {
    pub fn new() -> Result<ScratchFile, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        let call = NEXT.fetch_add(1, Ordering::Relaxed);
        std::fs::create_dir_all(SCRATCH_DIR).map_err(|e| format!("{SCRATCH_DIR}: {e}"))?;
        let name = format!("{}-{nanos}-{call}.snap", std::process::id());
        Ok(ScratchFile { path: PathBuf::from(SCRATCH_DIR).join(name) })
    }
}

impl Drop for ScratchFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
        // Succeeds only once no other run's file is left in it.
        let _ = std::fs::remove_dir(SCRATCH_DIR);
    }
}

/// In-process answers of one engine for the whole query pool: kNN with
/// k = [`K`] and range at each query's true k-th distance.
pub struct Expected {
    pub knn: Vec<SearchStats>,
    pub range: Vec<SearchStats>,
}

impl Expected {
    pub fn compute(
        engine: &Engine,
        queries: &[Query],
        inputs: &Inputs,
        threads: usize,
    ) -> Result<Expected, String> {
        let (knn, _) = engine.knn(queries, K, threads).map_err(msg)?;
        let range = par_map(queries, threads, |qi, q| {
            engine.range(q, inputs.truth[qi].epsilon).map_err(msg)
        })?;
        Ok(Expected { knn, range })
    }

    /// Per pool query: does it answer exactly as `other` (ids, bitwise
    /// distances, measured counts), is every distance it returns the
    /// exact Euclidean distance, and is every range hit within ε?
    pub fn check(&self, other: &Expected, inputs: &Inputs) -> Vec<bool> {
        (0..inputs.queries.len())
            .map(|qi| {
                let q = &inputs.queries[qi];
                let exact = |s: &SearchStats| {
                    s.retrieved.iter().zip(&s.distances).all(|(&id, &d)| {
                        inputs.db.get(id).is_some_and(|x| distance_matches(d, naive_distance(q, x)))
                    })
                };
                let (knn, range) = (&self.knn[qi], &self.range[qi]);
                identical(knn, &other.knn[qi])
                    && identical(range, &other.range[qi])
                    && knn.retrieved.len() == K
                    && exact(knn)
                    && exact(range)
                    && range.distances.iter().all(|&d| d <= inputs.truth[qi].epsilon)
            })
            .collect()
    }
}

/// Same ids, bitwise-same distances, same measured count.
fn identical(a: &SearchStats, b: &SearchStats) -> bool {
    a.retrieved == b.retrieved
        && a.measured == b.measured
        && a.total == b.total
        && a.distances.len() == b.distances.len()
        && a.distances.iter().zip(&b.distances).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn same_answer(hits: &[(u64, f64)], measured: u64, want: &SearchStats) -> bool {
    hits.len() == want.retrieved.len()
        && hits.iter().zip(want.retrieved.iter().zip(&want.distances)).all(
            |(&(id, d), (&wid, &wd))| {
                usize::try_from(id).is_ok_and(|id| id == wid) && d.to_bits() == wd.to_bits()
            },
        )
        && usize::try_from(measured).is_ok_and(|m| m == want.measured)
}

/// One served request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub range: bool,
    pub secs: f64,
    /// Answered, and bit-identical to the in-process answer.
    pub ok: bool,
}

/// How long each client keeps its loop closed.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Deadline(Instant),
    Requests(usize),
}

/// Send pool query `qi` — as an ε-range request if [`Inputs::is_range`]
/// selects it, else as a single-query kNN request — and time it at the
/// client. The time includes comparing the answer with `want`, a few
/// dozen comparisons against a millisecond-scale request.
pub fn request(
    client: &mut Client,
    qi: usize,
    raw: &[Vec<f64>],
    inputs: &Inputs,
    want: &Expected,
) -> Sample {
    let range = Inputs::is_range(qi);
    let start = Instant::now();
    let ok = if range {
        client
            .range(&raw[qi], inputs.truth[qi].epsilon)
            .is_ok_and(|r| same_answer(&r.hits, r.measured, &want.range[qi]))
    } else {
        client.knn(std::slice::from_ref(&raw[qi]), K).is_ok_and(|r| {
            r.per_query.len() == 1
                && same_answer(&r.per_query[0].hits, r.per_query[0].measured, &want.knn[qi])
        })
    };
    Sample { range, secs: start.elapsed().as_secs_f64(), ok }
}

/// Run `clients` closed-loop connections against `addr`. Client `c`
/// walks the pool in order from `c · POOL / clients`, sending each query
/// with [`request`]. Every answer is compared with `want`.
pub fn drive(
    addr: SocketAddr,
    clients: usize,
    until: Until,
    raw: &[Vec<f64>],
    inputs: &Inputs,
    want: &Expected,
) -> Result<Vec<Sample>, String> {
    let pool = raw.len();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || -> Result<Vec<Sample>, String> {
                    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                    let mut out = Vec::new();
                    for i in 0.. {
                        match until {
                            Until::Deadline(t) if Instant::now() >= t => break,
                            Until::Requests(n) if i >= n => break,
                            _ => {}
                        }
                        let qi = (c * pool / clients + i) % pool;
                        out.push(request(&mut client, qi, raw, inputs, want));
                    }
                    Ok(out)
                })
            })
            .collect();
        let mut all = Vec::new();
        for w in workers {
            all.extend(w.join().map_err(|_| "client thread panicked".to_string())??);
        }
        Ok(all)
    })
}

/// An error's message (the run reports errors as text).
pub fn msg(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}
