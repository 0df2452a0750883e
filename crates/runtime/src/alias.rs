//! Walker's alias method (Walker 1977, Vose 1991): O(1) sampling from any
//! fixed discrete distribution.
//!
//! Construction is O(n): the weights are normalised to mean 1 and split
//! into "small" (< 1) and "large" (≥ 1) columns; each small column is
//! topped up to exactly 1 by an alias pointing at a large one. A sample is
//! then one uniform column draw plus one uniform float: return the column
//! itself with probability `prob[i]`, its alias otherwise. Compare the
//! O(log n) binary search of a CDF table — on hot paths (negative sampling
//! draws per SGNS pair) the alias table replaces a pointer-chasing search
//! with two array reads.
//!
//! Construction is fully deterministic (index-ordered worklists), so a
//! table built from the same weights is always byte-identical — a
//! prerequisite for the workspace's bit-reproducibility guarantee.

use crate::rng::Rng;

/// Reusable construction workspace for [`AliasTable::rebuild_in`]: the
/// normalised weight column and the small/large worklists. Callers that
/// rebuild a table repeatedly (e.g. negative sampling across dynamic
/// extension rounds) keep one of these alive so construction allocates
/// nothing after the first round.
#[derive(Debug, Clone, Default)]
pub struct AliasScratch {
    scaled: Vec<f64>,
    small: Vec<u32>,
    large: Vec<u32>,
}

/// A prepared alias table over `weights.len()` outcomes.
///
/// Acceptance thresholds are stored as fixed-point `u64` fractions of
/// 2⁶⁴, which lets [`AliasTable::sample`] spend **one** RNG draw per
/// sample: the high bits of the Lemire product select the column and the
/// low bits are reused as the (conditionally uniform) acceptance
/// fraction, whose within-column granularity is `n`/2⁶⁴ — far under any
/// statistical resolution for realistic `n`.
#[derive(Debug, Clone)]
pub struct AliasTable {
    /// Acceptance threshold per column: `round(prob · 2⁶⁴)`, saturated.
    thresh: Vec<u64>,
    /// Fallback outcome per column.
    alias: Vec<u32>,
    /// Total (unnormalised) input mass; zero means "nothing to sample".
    total: f64,
}

impl AliasTable {
    /// Build from non-negative weights. Outcomes with zero weight are never
    /// sampled (as long as any weight is positive). Panics on negative or
    /// non-finite weights.
    pub fn new(weights: &[f64]) -> Self {
        let mut table = AliasTable {
            thresh: Vec::new(),
            alias: Vec::new(),
            total: 0.0,
        };
        table.rebuild_in(weights, &mut AliasScratch::default());
        table
    }

    /// Rebuild this table in place from new weights, reusing its own
    /// storage and the caller's [`AliasScratch`]. Byte-identical to
    /// [`AliasTable::new`] over the same weights (construction is fully
    /// deterministic); after the first build of a given size no
    /// allocation happens.
    pub fn rebuild_in(&mut self, weights: &[f64], scratch: &mut AliasScratch) {
        let n = weights.len();
        let mut total = 0.0;
        for &w in weights {
            assert!(w.is_finite() && w >= 0.0, "weights must be finite and >= 0");
            total += w;
        }
        self.total = total;
        self.alias.clear();
        self.alias.extend(0..n as u32);
        self.thresh.clear();
        // Saturated acceptance is the default; only explicitly paired small
        // columns overwrite it below. The u64::MAX threshold's 2⁻⁶⁴ alias
        // branch is safe (the alias is the column itself unless paired).
        self.thresh.resize(n, u64::MAX);
        if total <= 0.0 || n == 0 {
            // Degenerate: identity table; `total` records emptiness.
            return;
        }
        // Normalise to mean 1 and split into worklists, in index order for
        // determinism.
        let scale = n as f64 / total;
        scratch.scaled.clear();
        scratch.scaled.extend(weights.iter().map(|&w| w * scale));
        scratch.small.clear();
        scratch.large.clear();
        for (i, &s) in scratch.scaled.iter().enumerate() {
            if s < 1.0 {
                scratch.small.push(i as u32);
            } else {
                scratch.large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (scratch.small.last(), scratch.large.last()) {
            scratch.small.pop();
            let (s, l) = (s as usize, l as usize);
            // Fixed-point acceptance threshold of the paired small column
            // (scaled[s] < 1.0 here by construction).
            self.thresh[s] = (scratch.scaled[s] * (u64::MAX as f64)) as u64;
            self.alias[s] = l as u32;
            // Move the donated mass out of the large column.
            scratch.scaled[l] = (scratch.scaled[l] + scratch.scaled[s]) - 1.0;
            if scratch.scaled[l] < 1.0 {
                scratch.large.pop();
                scratch.small.push(l as u32);
            }
        }
        // Leftovers (rounding drift) keep the saturated default. A column
        // with exactly zero input weight can never be left over: while it
        // sits in `small`, the remaining mean stays above 1, so `large`
        // cannot drain first.
    }

    /// Number of outcomes (including zero-weight ones).
    pub fn len(&self) -> usize {
        self.thresh.len()
    }

    /// `true` iff the table has no outcome with positive mass.
    pub fn is_empty(&self) -> bool {
        self.total <= 0.0
    }

    /// Total input mass the table was built from.
    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Sample one outcome index in O(1) with a **single** RNG draw: the
    /// Lemire product's high bits pick the column, its low bits (uniform
    /// within the column up to n/2⁶⁴) decide column vs alias.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        debug_assert!(!self.is_empty(), "sampling from an empty alias table");
        let n = self.thresh.len() as u64;
        let m = (rng.next_u64() as u128) * (n as u128);
        let i = (m >> 64) as usize;
        if (m as u64) < self.thresh[i] {
            i
        } else {
            self.alias[i] as usize
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    fn histogram(table: &AliasTable, draws: usize, seed: u64) -> Vec<usize> {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut hist = vec![0usize; table.len()];
        for _ in 0..draws {
            hist[table.sample(&mut rng)] += 1;
        }
        hist
    }

    #[test]
    fn matches_weights_within_tolerance() {
        let weights = [1.0, 2.0, 3.0, 4.0];
        let table = AliasTable::new(&weights);
        let hist = histogram(&table, 40_000, 1);
        let total: f64 = weights.iter().sum();
        for (i, &w) in weights.iter().enumerate() {
            let expect = 40_000.0 * w / total;
            let got = hist[i] as f64;
            assert!(
                (got - expect).abs() < expect * 0.1 + 30.0,
                "outcome {i}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn zero_weight_outcomes_never_sampled() {
        let table = AliasTable::new(&[0.0, 5.0, 0.0, 1.0, 0.0]);
        let hist = histogram(&table, 20_000, 2);
        assert_eq!(hist[0], 0);
        assert_eq!(hist[2], 0);
        assert_eq!(hist[4], 0);
        assert!(hist[1] > hist[3]);
    }

    #[test]
    fn single_and_empty_tables() {
        let one = AliasTable::new(&[3.5]);
        let mut rng = DetRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(one.sample(&mut rng), 0);
        }
        assert!(AliasTable::new(&[]).is_empty());
        assert!(AliasTable::new(&[0.0, 0.0]).is_empty());
        assert!(!AliasTable::new(&[0.0, 0.1]).is_empty());
    }

    #[test]
    fn construction_is_deterministic() {
        let w = [0.3, 0.0, 2.0, 1.0, 0.7];
        let a = AliasTable::new(&w);
        let b = AliasTable::new(&w);
        assert_eq!(a.thresh, b.thresh);
        assert_eq!(a.alias, b.alias);
    }

    #[test]
    fn rebuild_in_matches_fresh_construction() {
        // A table rebuilt in place (including across size changes and
        // through degenerate all-zero rounds) must be byte-identical to a
        // fresh one over the same weights.
        let rounds: [&[f64]; 5] = [
            &[1.0, 2.0, 3.0, 4.0],
            &[0.0, 5.0, 0.0, 1.0, 0.0],
            &[0.0, 0.0],
            &[2.5],
            &[0.3, 0.0, 2.0, 1.0, 0.7, 9.0, 0.25],
        ];
        let mut table = AliasTable::new(&[1.0]);
        let mut scratch = AliasScratch::default();
        for weights in rounds {
            table.rebuild_in(weights, &mut scratch);
            let fresh = AliasTable::new(weights);
            assert_eq!(table.thresh, fresh.thresh);
            assert_eq!(table.alias, fresh.alias);
            assert_eq!(table.total.to_bits(), fresh.total.to_bits());
            assert_eq!(table.is_empty(), fresh.is_empty());
        }
    }

    #[test]
    fn extreme_skew_keeps_all_positive_outcomes_reachable() {
        let table = AliasTable::new(&[1e-9, 1e9]);
        let hist = histogram(&table, 50_000, 3);
        // The heavy outcome dominates; the light one just must not panic
        // and the probabilities must stay normalised.
        assert!(hist[1] > 49_000);
        assert_eq!(hist[0] + hist[1], 50_000);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan_weights() {
        let _ = AliasTable::new(&[1.0, f64::NAN]);
    }
}
