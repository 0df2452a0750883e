//! FoRWaRD hyperparameters (paper §V-F and Table II).

use crate::kd::KdOptions;

/// Hyperparameters of FoRWaRD. [`ForwardConfig::paper`] reproduces Table II;
/// [`ForwardConfig::small`] is a scaled-down setting for tests, examples and
/// CPU-budget experiment runs (the paper trained on a GPU).
#[derive(Debug, Clone)]
pub struct ForwardConfig {
    /// Embedding dimension `d` (paper: 100).
    pub dim: usize,
    /// Maximum walk-scheme length `ℓmax` (paper: 1–3).
    pub max_walk_len: usize,
    /// Training samples drawn **per target pair** `(s, A)` and epoch
    /// (paper: 5,000; see §V-D — when fewer distinct samples exist, all of
    /// them are used).
    pub nsamples: usize,
    /// SGD epochs (paper: 5–10).
    pub epochs: usize,
    /// Minibatch size; only affects the learning-rate schedule granularity
    /// (paper: 50,000).
    pub batch_size: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Samples per `(s, A)` when extending to a new tuple (paper: 2,500).
    pub nnew_samples: usize,
    /// Uniform init bound for `ϕ` and `ψ` entries.
    pub init_bound: f64,
    /// How `KD` values (Eq. 8) are computed in the dynamic phase.
    pub kd: KdOptions,
}

impl ForwardConfig {
    /// The paper's Table II configuration (Genes uses
    /// [`ForwardConfig::paper_genes`]).
    pub fn paper() -> Self {
        ForwardConfig {
            dim: 100,
            max_walk_len: 3,
            nsamples: 5_000,
            epochs: 10,
            batch_size: 50_000,
            // Gradients are averaged over the (large) batch, so the paper's
            // batch size pairs with a learning rate well above the pure-SGD
            // regime (≈ lr_sgd · batch fraction touched per fact).
            learning_rate: 1.0,
            nnew_samples: 2_500,
            init_bound: 0.3,
            kd: KdOptions::default(),
        }
    }

    /// Table II's footnote configuration for the Genes dataset (1,000
    /// samples, batch 10,000, 10 epochs).
    pub fn paper_genes() -> Self {
        ForwardConfig {
            nsamples: 1_000,
            batch_size: 10_000,
            epochs: 10,
            ..Self::paper()
        }
    }

    /// Scaled-down configuration for unit tests and quick CPU runs: pure
    /// per-sample SGD (batch 1), which trains well on small relations.
    pub fn small() -> Self {
        ForwardConfig {
            dim: 16,
            max_walk_len: 2,
            nsamples: 30,
            epochs: 8,
            batch_size: 1,
            learning_rate: 0.08,
            nnew_samples: 64,
            init_bound: 0.3,
            kd: KdOptions::default(),
        }
    }
}

impl Default for ForwardConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_2() {
        let c = ForwardConfig::paper();
        assert_eq!(c.dim, 100);
        assert_eq!(c.nsamples, 5_000);
        assert_eq!(c.batch_size, 50_000);
        assert_eq!(c.max_walk_len, 3);
        assert_eq!(c.nnew_samples, 2_500);
        let g = ForwardConfig::paper_genes();
        assert_eq!(g.nsamples, 1_000);
        assert_eq!(g.batch_size, 10_000);
        assert_eq!(g.epochs, 10);
    }

    #[test]
    fn small_is_smaller() {
        let c = ForwardConfig::small();
        assert!(c.dim < ForwardConfig::paper().dim);
        assert!(c.nsamples < ForwardConfig::paper().nsamples);
    }
}
