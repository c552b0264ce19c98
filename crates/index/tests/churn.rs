//! Insert/remove churn stress for the DBCH condense path.
//!
//! A long-lived service mutates its index for days: entries arrive,
//! entries are dropped, underfull nodes dissolve and reinsert their
//! orphans (`DbchTree::remove`). This suite drives thousands of
//! interleaved inserts and removes and, at checkpoints, asserts the
//! full structural contract:
//!
//! * `DbchTree::validate` — hulls bitwise-consistent with current
//!   membership, entry bookkeeping sound;
//! * membership equals the ground-truth live set;
//! * full-enumeration kNN (`k = |live|`, so the candidate heap never
//!   fills and nothing is pruned) is **bit-identical** to a freshly
//!   rebuilt tree over the same membership — the answer must not
//!   depend on the mutation history.
//!
//! Run under `--features strict-invariants` (the `just audit` gate)
//! this additionally checks `Dist_LB ≤ exact` at every refinement.

use sapla_baselines::{Reducer, SaplaReducer};
use sapla_core::{Representation, TimeSeries};
use sapla_index::{scheme_for, DbchTree, Query, Scheme};

const LEN: usize = 64;
const M: usize = 12;

/// Deterministic xorshift64* so the churn schedule is reproducible.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Distinct-looking synthetic series, deterministic in `seed`.
fn series(seed: usize, len: usize) -> TimeSeries {
    TimeSeries::new(
        (0..len)
            .map(|t| {
                ((t + seed * 17) as f64 * 0.23).sin() * (1.0 + (seed % 7) as f64 * 0.25)
                    + ((t * 3) as f64 * 0.05 + seed as f64 * 0.71).cos() * 0.6
                    + (seed as f64 * 0.013) * t as f64 / len as f64
            })
            .collect(),
    )
    .unwrap()
    .znormalized()
}

/// Full-enumeration kNN against the churned tree must be bit-identical
/// to a fresh rebuild over the same membership. Rebuilt entry `j` maps
/// to global id `live_sorted[j]`; the map is monotone, so the
/// `(distance, id)` result order is comparable across the two trees.
fn assert_matches_rebuild(
    tree: &DbchTree,
    scheme: &dyn Scheme,
    reducer: &SaplaReducer,
    raws: &[TimeSeries],
    reps: &[Representation],
    live_sorted: &[usize],
) {
    let fresh_reps: Vec<Representation> = live_sorted.iter().map(|&id| reps[id].clone()).collect();
    let fresh_raws: Vec<TimeSeries> = live_sorted.iter().map(|&id| raws[id].clone()).collect();
    let fresh = DbchTree::build(scheme, fresh_reps, 2, 5).unwrap();
    fresh.validate(scheme).unwrap();
    assert_eq!(tree.entry_ids(), live_sorted);

    let k = live_sorted.len();
    let probes = [series(3, LEN), series(1_000_003, LEN), series(7_777, LEN)];
    for (pi, probe) in probes.iter().enumerate() {
        let q = Query::new(probe, reducer, M).unwrap();
        let churned = tree.knn(&q, k, scheme, raws).unwrap();
        let rebuilt = fresh.knn(&q, k, scheme, &fresh_raws).unwrap();
        assert_eq!(churned.retrieved.len(), k, "probe {pi}: full enumeration");
        let mapped: Vec<usize> = rebuilt.retrieved.iter().map(|&j| live_sorted[j]).collect();
        assert_eq!(churned.retrieved, mapped, "probe {pi}: answer depends on mutation history");
        for (i, (cd, rd)) in churned.distances.iter().zip(&rebuilt.distances).enumerate() {
            assert_eq!(
                cd.to_bits(),
                rd.to_bits(),
                "probe {pi}, rank {i}: churned {cd} vs rebuilt {rd}"
            );
        }
        // With k = |live| nothing can be pruned: every live entry is
        // measured exactly once in both trees.
        assert_eq!(churned.measured, k, "probe {pi}");
    }
}

#[test]
fn thousands_of_interleaved_inserts_and_removes_keep_the_tree_sound() {
    let reducer = SaplaReducer::new();
    let scheme = scheme_for("SAPLA").unwrap();
    for seed in [0x5EED_0001u64, 0xD15E_A5E5] {
        let mut rng = XorShift(seed);
        let mut raws: Vec<TimeSeries> = (0..40).map(|i| series(i, LEN)).collect();
        let mut reps: Vec<Representation> =
            raws.iter().map(|s| reducer.reduce(s, M).unwrap()).collect();
        let mut tree = DbchTree::build(scheme.as_ref(), reps.clone(), 2, 5).unwrap();
        tree.validate(scheme.as_ref()).unwrap();
        let mut live: Vec<usize> = (0..40).collect();
        let mut next_seed = 40usize;

        for op in 0..2_000 {
            // Drift the population up and down so both the split path
            // (growth) and the condense path (shrink-triggered orphan
            // reinsertion) run thousands of times, including through
            // deep-tree and nearly-empty regimes.
            let phase = (op / 250) % 2; // 0 = grow towards 120, 1 = shrink towards 8
            let grow = if live.len() <= 8 {
                true
            } else if live.len() >= 120 {
                false
            } else if phase == 0 {
                rng.below(4) < 3
            } else {
                rng.below(4) < 1
            };
            if grow {
                let s = series(next_seed, LEN);
                next_seed += 1;
                let rep = reducer.reduce(&s, M).unwrap();
                let id = tree.insert(scheme.as_ref(), rep.clone()).unwrap();
                assert_eq!(id, raws.len(), "arena ids must stay dense");
                raws.push(s);
                reps.push(rep);
                live.push(id);
            } else {
                let id = live.swap_remove(rng.below(live.len()));
                assert!(tree.remove(scheme.as_ref(), id).unwrap(), "id {id} was live");
                assert!(
                    !tree.remove(scheme.as_ref(), id).unwrap(),
                    "double remove of {id} must report not-found"
                );
            }

            if op % 100 == 99 {
                tree.validate(scheme.as_ref()).unwrap();
                let mut sorted = live.clone();
                sorted.sort_unstable();
                assert_eq!(tree.entry_ids(), sorted, "op {op}");
            }
            if op % 500 == 499 {
                let mut sorted = live.clone();
                sorted.sort_unstable();
                assert_matches_rebuild(&tree, scheme.as_ref(), &reducer, &raws, &reps, &sorted);
            }
        }

        tree.validate(scheme.as_ref()).unwrap();
        let mut sorted = live;
        sorted.sort_unstable();
        assert_matches_rebuild(&tree, scheme.as_ref(), &reducer, &raws, &reps, &sorted);
    }
}

#[test]
fn churn_down_to_empty_and_back_up() {
    let reducer = SaplaReducer::new();
    let scheme = scheme_for("SAPLA").unwrap();
    let raws: Vec<TimeSeries> = (0..25).map(|i| series(i + 500, LEN)).collect();
    let mut reps: Vec<Representation> =
        raws.iter().map(|s| reducer.reduce(s, M).unwrap()).collect();
    let mut tree = DbchTree::build(scheme.as_ref(), reps.clone(), 2, 5).unwrap();

    // Remove everything, in an order that repeatedly dissolves nodes.
    for id in (0..25).rev().chain(std::iter::empty()) {
        assert!(tree.remove(scheme.as_ref(), id).unwrap());
        tree.validate(scheme.as_ref()).unwrap();
    }
    assert!(tree.entry_ids().is_empty());

    // The emptied tree must accept inserts again and stay sound.
    let mut raws2 = raws.clone();
    for i in 0..30 {
        let s = series(i + 900, LEN);
        let rep = reducer.reduce(&s, M).unwrap();
        let id = tree.insert(scheme.as_ref(), rep.clone()).unwrap();
        assert_eq!(id, reps.len());
        reps.push(rep);
        raws2.push(s);
    }
    tree.validate(scheme.as_ref()).unwrap();
    assert_eq!(tree.entry_ids(), (25..55).collect::<Vec<_>>());
    let q = Query::new(&raws2[30], &reducer, M).unwrap();
    let stats = tree.knn(&q, 3, scheme.as_ref(), &raws2).unwrap();
    assert_eq!(stats.retrieved[0], 30, "an indexed series is its own 1-NN");
}
