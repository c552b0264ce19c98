//! The workloads and the inputs each one generates from its seed.

use sapla_baselines::SaplaReducer;
use sapla_core::TimeSeries;
use sapla_data::generators::{generate, Family};
use sapla_index::{linear_scan_knn, Engine, EngineConfig, NodeDistRule, TreeKind};

/// Neighbours per kNN request.
pub const K: usize = 8;
/// Coefficient budget: SAPLA with N = 8 segments (3 coefficients each),
/// the committed perf grid's setting.
pub const M: usize = 24;
/// Held-out query series per workload.
pub const POOL: usize = 256;
/// Parameter variants drawn per generator family.
const VARIANTS: usize = 4;

/// One benchmark workload: the data shape and how many set-up and
/// serving rounds an end-to-end run makes.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Series length.
    pub n: usize,
    /// Indexed series.
    pub db: usize,
    /// Rounds per end-to-end run; set-up metrics are their medians.
    pub rounds: usize,
}

/// Every workload. Why each exists is in the README next to this file.
pub const WORKLOADS: [Workload; 2] = [
    // Query reduction outweighs the search: `Engine::prepare` is the
    // largest computing layer of a served request.
    Workload { name: "serve-long-query", n: 1024, db: 1024, rounds: 6 },
    // Search dominates: DBCH refines thousands of series per query.
    Workload { name: "serve-big-db", n: 256, db: 16384, rounds: 4 },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Engine layout shared by every workload: one DBCH shard with the
/// paper's node rule.
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        tree: TreeKind::Dbch,
        m: M,
        shards: 1,
        rule: NodeDistRule::Paper,
        ..EngineConfig::default()
    }
}

pub fn build_engine(raws: Vec<TimeSeries>, threads: usize) -> sapla_core::Result<Engine> {
    Engine::build(engine_config(), Box::new(SaplaReducer::new()), raws, threads)
}

/// Generator seed of series `i` in `domain` (0 = database, 1 = queries):
/// the workload seed (folded to 32 bits; seeds below 2^32 are kept as
/// they are) in the high 32 bits, the domain in bit 31 and the index
/// below it, so database and query seeds never coincide.
fn series_seed(seed: u64, domain: u64, i: usize) -> u64 {
    assert!(i < 1 << 31, "series index {i} overflows its seed field");
    ((seed ^ (seed >> 32)) << 32) | (domain << 31) | i as u64
}

/// `count` series of length `n`: all eight catalogue families in equal
/// shares, `VARIANTS` parameter variants each.
fn series(seed: u64, domain: u64, count: usize, n: usize) -> Vec<TimeSeries> {
    (0..count)
        .map(|i| {
            let family = Family::ALL[i % Family::ALL.len()];
            let variant = ((i / Family::ALL.len()) % VARIANTS) as u64;
            generate(family, variant, series_seed(seed, domain, i), n)
        })
        .collect()
}

/// One query of the pool with its exact answers.
#[derive(Debug, Clone)]
pub struct Truth {
    /// Exact k-NN ids (from `linear_scan_knn`).
    pub knn: Vec<usize>,
    /// The exact k-th neighbour distance: the query's range ε.
    pub epsilon: f64,
    /// Every id within ε.
    pub in_range: Vec<usize>,
}

/// A workload's generated inputs.
pub struct Inputs {
    pub db: Vec<TimeSeries>,
    pub queries: Vec<TimeSeries>,
    pub truth: Vec<Truth>,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64, threads: usize) -> Result<Inputs, String> {
        let db = series(seed, 0, w.db, w.n);
        let queries = series(seed, 1, POOL, w.n);
        let truth = ground_truth(&db, &queries, threads)?;
        Ok(Inputs { db, queries, truth })
    }

    /// One request in eight is a range query; the choice rotates through
    /// the families so range queries are not all of one family.
    pub fn is_range(qi: usize) -> bool {
        (qi + qi / 8).is_multiple_of(8)
    }
}

/// `f` over `items` on `threads` scoped workers, in input order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(usize, &T) -> Result<R, String> + Sync,
) -> Result<Vec<R>, String> {
    let chunk = items.len().div_ceil(threads.max(1)).max(1);
    let f = &f;
    std::thread::scope(|s| {
        let workers: Vec<_> = items
            .chunks(chunk)
            .enumerate()
            .map(|(ci, part)| {
                s.spawn(move || {
                    part.iter()
                        .enumerate()
                        .map(|(i, x)| f(ci * chunk + i, x))
                        .collect::<Result<Vec<R>, String>>()
                })
            })
            .collect();
        let mut out = Vec::with_capacity(items.len());
        for w in workers {
            out.extend(w.join().map_err(|_| "worker thread panicked".to_string())??);
        }
        Ok(out)
    })
}

/// Exact answers by `linear_scan_knn`, fanned over `threads` workers.
fn ground_truth(
    db: &[TimeSeries],
    queries: &[TimeSeries],
    threads: usize,
) -> Result<Vec<Truth>, String> {
    par_map(queries, threads, |_, q| truth_for(q, db))
}

fn truth_for(q: &TimeSeries, db: &[TimeSeries]) -> Result<Truth, String> {
    // 2k exact neighbours cover the k-th distance and any ties at it.
    let wide = linear_scan_knn(q, db, 2 * K).map_err(|e| e.to_string())?;
    let epsilon = *wide.distances.get(K - 1).ok_or("database smaller than k")?;
    let within = wide.distances.iter().filter(|&&d| d <= epsilon).count();
    if within == wide.retrieved.len() {
        return Err(format!(
            "all {within} nearest series tie within ε; the in-ε set may be larger"
        ));
    }
    Ok(Truth {
        knn: wide.retrieved[..K].to_vec(),
        epsilon,
        in_range: wide.retrieved[..within].to_vec(),
    })
}

/// Exact Euclidean distance, summed independently of the library's
/// blocked kernel (so it may differ from it in the last bits).
pub fn naive_distance(a: &TimeSeries, b: &TimeSeries) -> f64 {
    a.values().iter().zip(b.values()).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

/// `reported` is the exact distance up to summation-order rounding.
pub fn distance_matches(reported: f64, exact: f64) -> bool {
    (reported - exact).abs() <= 1e-9 * exact.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn database_and_query_seeds_are_disjoint() {
        let db: Vec<u64> = (0..1000).map(|i| series_seed(7, 0, i)).collect();
        assert!((0..POOL).all(|i| !db.contains(&series_seed(7, 1, i))));
        assert_ne!(series_seed(7, 0, 0), series_seed(8, 0, 0));
        assert_ne!(series_seed(7, 0, 0), series_seed(7 << 40, 0, 0));
    }

    #[test]
    fn one_query_in_eight_is_a_range_query_across_families() {
        let range: Vec<usize> = (0..POOL).filter(|&q| Inputs::is_range(q)).collect();
        assert_eq!(range.len(), POOL / 8);
        let mut families: Vec<usize> = range.iter().map(|q| q % 8).collect();
        families.sort_unstable();
        families.dedup();
        assert_eq!(families.len(), 8);
    }
}
