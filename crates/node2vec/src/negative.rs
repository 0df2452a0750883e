//! Unigram^0.75 negative-sampling table (Mikolov et al. 2013) on a flat
//! alias sampler.
//!
//! The table is built once per training run from per-node occurrence
//! counts with the classic `count^0.75` smoothing, then sampled once per
//! negative — the single hottest sampling site of the SGNS pipeline
//! (`negatives` draws per positive pair). Draws are **O(1)** with one RNG
//! draw each ([`stembed_runtime::AliasTable`]). The dynamic extension's
//! continuation walks change the counts of only the nodes they visit, so
//! [`NegativeTable::update`] re-smooths just those nodes (and any appended
//! ones) and then rebuilds the alias columns in place on reused storage.
//!
//! A table maintained through any `update` sequence is byte-identical to
//! a fresh [`NegativeTable::new`] over the same counts (alias construction
//! is a pure function of the weight column), so the
//! incrementally-maintained dynamic path consumes exactly the random
//! streams of the from-scratch reference.
//!
//! The original CDF sampler is kept under `#[cfg(test)]` as the reference
//! implementation for the distribution-equivalence tests below.

use stembed_runtime::rng::DetRng;
use stembed_runtime::{AliasScratch, AliasTable};

/// Maintenance counters of a [`NegativeTable`] (diagnostics and the
/// `profile_extend` example's sampler-regression smoke check).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NegativeTableStats {
    /// Full rebuilds ([`NegativeTable::new`] / [`NegativeTable::rebuild`]).
    pub rebuilds: u64,
    /// Incremental catch-ups ([`NegativeTable::update`]).
    pub updates: u64,
    /// Dirty node indices across all updates.
    pub dirty_nodes: u64,
    /// Alias tables rebuilt across all updates: one per update, since the
    /// flat table is rebuilt whole. Kept for the benchmark, which still
    /// reports it.
    pub buckets_rebuilt: u64,
}

/// O(1) sampler over nodes, with the classic `count^0.75` smoothing that
/// keeps frequent nodes from dominating the negatives.
///
/// The table owns its construction workspace, so a long-lived instance
/// (e.g. the one `Node2VecModel` keeps across dynamic extension rounds)
/// can be caught up with fresh counts by [`NegativeTable::update`]
/// (re-smoothing only the dirty nodes) or fully re-made by
/// [`NegativeTable::rebuild`] — both without reallocating the weight
/// column, the worklists, or the alias arrays.
#[derive(Debug, Clone)]
pub struct NegativeTable {
    sampler: AliasTable,
    /// Alias construction workspace, reused across rebuilds.
    scratch: AliasScratch,
    /// Smoothed-weight column, updated in place across rounds.
    weights: Vec<f64>,
    stats: NegativeTableStats,
}

/// The shared smoothing: `count^0.75`.
#[inline]
fn smooth(count: usize) -> f64 {
    (count as f64).powf(0.75)
}

impl NegativeTable {
    /// Build from per-node occurrence counts (index = node id). Nodes with
    /// zero count get zero mass and are never sampled.
    pub fn new(counts: &[usize]) -> Self {
        let mut table = NegativeTable {
            sampler: AliasTable::new(&[]),
            scratch: AliasScratch::default(),
            weights: Vec::new(),
            stats: NegativeTableStats::default(),
        };
        table.rebuild(counts);
        table
    }

    /// Full rebuild in place from new counts, reusing all internal
    /// storage. Byte-identical to [`NegativeTable::new`] over the same
    /// counts. O(n) — the dynamic phase uses [`NegativeTable::update`]
    /// instead.
    pub fn rebuild(&mut self, counts: &[usize]) {
        self.weights.clear();
        self.weights.extend(counts.iter().map(|&c| smooth(c)));
        self.sampler.rebuild_in(&self.weights, &mut self.scratch);
        self.stats.rebuilds += 1;
    }

    /// Incrementally catch the table up with `counts`, of which only the
    /// indices in `dirty` changed since the last rebuild/update; `counts`
    /// may also have **grown** (appended nodes need not appear in
    /// `dirty`). Only the dirty and appended nodes' smoothed weights are
    /// recomputed; the alias columns are then rebuilt in O(n) on reused
    /// storage.
    ///
    /// Byte-identical to [`NegativeTable::new`] over the same counts —
    /// callers may freely mix `update` and `rebuild` without perturbing
    /// any sample stream.
    pub fn update(&mut self, dirty: &[usize], counts: &[usize]) {
        let old_len = self.weights.len();
        assert!(
            counts.len() >= old_len,
            "NegativeTable::update cannot shrink ({} -> {})",
            old_len,
            counts.len()
        );
        self.weights
            .extend(counts[old_len..].iter().map(|&c| smooth(c)));
        for &i in dirty {
            if i < old_len {
                self.weights[i] = smooth(counts[i]);
            }
            // i >= old_len: already smoothed by the append above.
        }
        self.sampler.rebuild_in(&self.weights, &mut self.scratch);
        self.stats.updates += 1;
        self.stats.dirty_nodes += dirty.len() as u64;
        self.stats.buckets_rebuilt += 1;
    }

    /// `true` iff no node has positive mass.
    pub fn is_empty(&self) -> bool {
        self.sampler.is_empty()
    }

    /// Sample one node id proportional to smoothed frequency, in O(1)
    /// (one RNG draw).
    #[inline]
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        debug_assert!(!self.is_empty(), "sampling from an empty table");
        self.sampler.sample(rng)
    }

    /// Number of node slots (including zero-mass ones).
    pub fn len(&self) -> usize {
        self.sampler.len()
    }

    /// The smoothed weight of node `i` (0 beyond the table).
    pub fn weight(&self, i: usize) -> f64 {
        self.weights.get(i).copied().unwrap_or(0.0)
    }

    /// Total smoothed mass over all nodes.
    pub fn total_weight(&self) -> f64 {
        self.sampler.total_weight()
    }

    /// Lifetime maintenance counters.
    pub fn stats(&self) -> NegativeTableStats {
        self.stats
    }
}

/// The original cumulative-distribution sampler, retained as the reference
/// for the distribution-equivalence tests: same smoothing, O(log n) per
/// draw.
#[cfg(test)]
#[derive(Debug, Clone)]
pub(crate) struct CdfNegativeTable {
    cumulative: Vec<f64>,
    total: f64,
}

#[cfg(test)]
impl CdfNegativeTable {
    pub(crate) fn new(counts: &[usize]) -> Self {
        let mut cumulative = Vec::with_capacity(counts.len());
        let mut acc = 0.0;
        for &c in counts {
            acc += smooth(c);
            cumulative.push(acc);
        }
        CdfNegativeTable {
            cumulative,
            total: acc,
        }
    }

    pub(crate) fn sample(&self, rng: &mut DetRng) -> usize {
        let x = rng.random_range(0.0..self.total);
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stembed_runtime::rng::DetRng;
    use stembed_runtime::stream_rng;

    /// Chi-square of a sampler's histogram against the smoothed expected
    /// masses; asserts zero-mass slots were never drawn. Returns
    /// `(statistic, bound)` with the generous envelope the equivalence
    /// tests share.
    fn chi_square_vs_expected(hist: &[usize], counts: &[usize], draws: usize) -> (f64, f64) {
        let weights: Vec<f64> = counts.iter().map(|&c| smooth(c)).collect();
        let total: f64 = weights.iter().sum();
        let mut chi = 0.0;
        let mut dof = 0usize;
        for (i, &w) in weights.iter().enumerate() {
            let expect = draws as f64 * w / total;
            if expect == 0.0 {
                assert_eq!(hist[i], 0, "zero-mass slot {i} sampled");
                continue;
            }
            chi += (hist[i] as f64 - expect).powi(2) / expect;
            dof += 1;
        }
        // Chi-square mean is dof-1, std ~ sqrt(2 dof).
        let bound = (dof as f64 - 1.0) + 6.0 * (2.0 * dof as f64).sqrt() + 6.0;
        (chi, bound)
    }

    #[test]
    fn respects_frequencies_approximately() {
        let counts = vec![0usize, 100, 100, 800];
        let table = NegativeTable::new(&counts);
        let mut rng = DetRng::seed_from_u64(3);
        let mut hist = [0usize; 4];
        for _ in 0..20_000 {
            hist[table.sample(&mut rng)] += 1;
        }
        assert_eq!(hist[0], 0, "zero-count nodes are never sampled");
        // With 0.75 smoothing: mass(3)/mass(1) = 800^.75/100^.75 = 8^.75 ≈ 4.76.
        let ratio = hist[3] as f64 / hist[1] as f64;
        assert!((3.5..6.5).contains(&ratio), "ratio {ratio} out of range");
        assert!(hist[1] > 1000 && hist[2] > 1000);
    }

    #[test]
    fn single_node_table() {
        let table = NegativeTable::new(&[5]);
        let mut rng = DetRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(table.sample(&mut rng), 0);
        }
    }

    #[test]
    fn empty_detection() {
        assert!(NegativeTable::new(&[]).is_empty());
        assert!(NegativeTable::new(&[0, 0]).is_empty());
        assert!(!NegativeTable::new(&[0, 1]).is_empty());
    }

    #[test]
    fn rebuild_draws_exactly_like_a_fresh_table() {
        // In-place rebuilds must consume the RNG identically to fresh
        // tables (rebuild may shrink, unlike update).
        let mut table = NegativeTable::new(&[1, 1]);
        let rounds: [&[usize]; 3] = [&[5, 3, 0, 9], &[5, 4, 1, 9, 2, 2], &[0, 0, 7]];
        for counts in rounds {
            table.rebuild(counts);
            let fresh = NegativeTable::new(counts);
            assert_eq!(table.len(), fresh.len());
            let mut a = DetRng::seed_from_u64(17);
            let mut b = DetRng::seed_from_u64(17);
            for _ in 0..2000 {
                assert_eq!(table.sample(&mut a), fresh.sample(&mut b));
            }
        }
    }

    /// The tentpole property: across randomized sequences of count growth
    /// (new nodes appended, visited nodes bumped — the dynamic extension's
    /// update shape), a table maintained by `update` draws the exact same
    /// stream as a fresh table *and* its histogram passes a chi-square
    /// test against the smoothed expected masses.
    #[test]
    fn update_matches_fresh_table_streams_and_chi_square() {
        const CASES: u64 = 6;
        const ROUNDS: usize = 4;
        const DRAWS: usize = 30_000;
        for case in 0..CASES {
            let mut rng = stream_rng(0x17c4e5e, case);
            let n0 = rng.random_range(2..16usize);
            let mut counts: Vec<usize> = (0..n0).map(|_| rng.random_range(0..40usize)).collect();
            let mut table = NegativeTable::new(&counts);
            for round in 0..ROUNDS {
                // Bump a random subset of existing nodes …
                let mut dirty = Vec::new();
                for _ in 0..rng.random_range(1..5usize) {
                    let i = rng.random_range(0..counts.len());
                    counts[i] += rng.random_range(1..30usize);
                    dirty.push(i);
                }
                dirty.sort_unstable();
                dirty.dedup();
                // … and sometimes append new nodes (not in `dirty`).
                for _ in 0..rng.random_range(0..4usize) {
                    counts.push(rng.random_range(0..20usize));
                }
                table.update(&dirty, &counts);
                let fresh = NegativeTable::new(&counts);
                assert_eq!(table.len(), fresh.len());

                // Exact stream equivalence …
                let mut a = stream_rng(0x5eed ^ case, round as u64);
                let mut b = stream_rng(0x5eed ^ case, round as u64);
                for _ in 0..2000 {
                    assert_eq!(
                        table.sample(&mut a),
                        fresh.sample(&mut b),
                        "case {case} round {round}: streams diverged"
                    );
                }
                // … and statistical equivalence to the smoothed masses.
                let mut hist = vec![0usize; counts.len()];
                let mut draw_rng = stream_rng(0xc41 ^ case, round as u64);
                for _ in 0..DRAWS {
                    hist[table.sample(&mut draw_rng)] += 1;
                }
                let (chi, bound) = chi_square_vs_expected(&hist, &counts, DRAWS);
                assert!(
                    chi < bound,
                    "case {case} round {round}: chi-square {chi:.1} over bound {bound:.1}"
                );
            }
            assert_eq!(table.stats().updates, ROUNDS as u64);
            assert!(table.stats().dirty_nodes >= ROUNDS as u64);
        }
    }

    /// Property-style equivalence: on seeded random count vectors, the
    /// alias sampler and the reference CDF sampler draw from the
    /// same distribution, judged by chi-square against the smoothed
    /// masses.
    #[test]
    fn alias_matches_cdf_distribution_chi_square() {
        const CASES: u64 = 12;
        const DRAWS: usize = 30_000;
        for case in 0..CASES {
            let mut rng = stream_rng(0xa11a5, case);
            let n = rng.random_range(2..24usize);
            let counts: Vec<usize> = (0..n)
                .map(|_| {
                    if rng.random_range(0..4usize) == 0 {
                        0 // exercise zero-mass slots
                    } else {
                        rng.random_range(1..500usize)
                    }
                })
                .collect();
            if counts.iter().all(|&c| c == 0) {
                continue;
            }
            let alias = NegativeTable::new(&counts);
            let cdf = CdfNegativeTable::new(&counts);

            let mut alias_hist = vec![0usize; n];
            let mut cdf_hist = vec![0usize; n];
            let mut draw_rng = stream_rng(0xd4a3, case);
            for _ in 0..DRAWS {
                alias_hist[alias.sample(&mut draw_rng)] += 1;
                cdf_hist[cdf.sample(&mut draw_rng)] += 1;
            }

            let (chi_alias, bound) = chi_square_vs_expected(&alias_hist, &counts, DRAWS);
            let (chi_cdf, _) = chi_square_vs_expected(&cdf_hist, &counts, DRAWS);
            assert!(
                chi_alias < bound,
                "case {case}: alias chi-square {chi_alias:.1} over bound {bound:.1}"
            );
            assert!(
                chi_cdf < bound,
                "case {case}: cdf chi-square {chi_cdf:.1} over bound {bound:.1}"
            );
        }
    }
}
