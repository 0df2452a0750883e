//! Skip-gram with negative sampling, trained by SGD with hand-derived
//! gradients and support for **freezing** node vectors.
//!
//! For a center node `c` and context node `o` with label `y ∈ {0,1}` the
//! loss is the binary cross-entropy of `σ(in_c · out_o)`; the gradient of
//! the logit is `g = σ(in_c · out_o) − y`, giving the classic updates
//! `in_c ← in_c − η·g·out_o` and `out_o ← out_o − η·g·in_c`. Frozen nodes
//! receive **no** updates on either vector — this implements the paper's
//! "gradient descent only on the embeddings of new nodes".
//!
//! The inner loop is laid out for throughput: the walk corpus is a flat
//! token arena ([`WalkCorpus`]) iterated as contiguous slices, each
//! (positive + negatives) group accumulates the center-row gradient in a
//! **preallocated scratch buffer** and writes the center row once per group
//! (the word2vec formulation), and the per-pair work is a fused
//! dot-product / gradient / axpy pass over two contiguous rows — no
//! bounds checks in the hot path, no per-pair allocation, O(1) negative
//! draws via the alias-method [`NegativeTable`].
//!
//! The embedding arenas are stored **f32** and every gradient runs
//! through the shared mixed-precision kernels
//! ([`stembed_runtime::kernel`]): dots and the per-group center gradient
//! accumulate in f64, elementwise row updates stay f32. Half the
//! memory traffic of the former f64 arenas, twice the SIMD lanes, and —
//! because the kernels use a fixed-lane, fixed-order schedule — the same
//! determinism contract (seed / shard-count / retained≡fresh
//! bit-identity; see PRECISION.md).

use crate::NegativeTable;
use dbgraph::{NodeId, WalkCorpus};
use stembed_runtime::kernel::{self, KernelTask, Kernels};
use stembed_runtime::rng::DetRng;
use stembed_runtime::AliasTable;

/// Precomputed logistic table: σ(x) for x ∈ [−MAX_EXP, MAX_EXP] in
/// `TABLE_SIZE` bins (word2vec's classic trick; exactness at the tails is
/// irrelevant because the gradient saturates there anyway).
const MAX_EXP: f64 = 6.0;
const TABLE_SIZE: usize = 1024;
/// Bins per unit of logit: turns the table lookup into one multiply
/// instead of an f64 division in the hot loop.
const SIGMOID_SCALE: f64 = TABLE_SIZE as f64 / (2.0 * MAX_EXP);
/// Probability clamp for the BCE log (word2vec's epsilon).
const LOSS_EPS: f64 = 1e-7;

/// One sigmoid bin: the prediction plus both precomputed BCE losses,
/// **interleaved** so the hot loop's lookup touches one cache line
/// (three separate 8 KiB tables cost up to three lines per pair and
/// compete with the embedding rows for L1).
#[derive(Debug, Clone, Copy)]
struct SigmoidBin {
    /// σ(x) at the bin's center.
    sigmoid: f64,
    /// `−ln(clamp(σᵢ))` — BCE of a positive pair landing in this bin.
    pos_loss: f64,
    /// `−ln(1 − clamp(σᵢ))` — BCE of a negative pair in this bin.
    neg_loss: f64,
}

/// Precompute the interleaved sigmoid/loss table so the training loop
/// never calls `exp` or `ln`. Loss values are identical to computing the
/// logs inline — the prediction is already table-quantised.
fn build_sigmoid_bins() -> Vec<SigmoidBin> {
    (0..TABLE_SIZE)
        .map(|i| {
            let x = (i as f64 / TABLE_SIZE as f64) * 2.0 * MAX_EXP - MAX_EXP;
            let s = 1.0 / (1.0 + (-x).exp());
            let c = s.clamp(LOSS_EPS, 1.0 - LOSS_EPS);
            SigmoidBin {
                sigmoid: s,
                pos_loss: -c.ln(),
                neg_loss: -(1.0 - c).ln(),
            }
        })
        .collect()
}

/// The embedding matrices plus the freeze mask. Rows are stored `f32`;
/// all row arithmetic goes through the fixed-lane mixed-precision
/// kernels (the former hand-unrolled local `dot`/`axpy` were deduped
/// into [`stembed_runtime::kernel`]).
#[derive(Debug, Clone)]
pub struct SgnsModel {
    dim: usize,
    /// Input ("center") vectors, node-major, f32 storage.
    in_vecs: Vec<f32>,
    /// Output ("context") vectors, node-major, f32 storage.
    out_vecs: Vec<f32>,
    /// Frozen nodes receive no gradient updates.
    frozen: Vec<bool>,
    /// Interleaved σ / BCE-loss bins (one cache line per lookup).
    bins: Vec<SigmoidBin>,
    /// BCE of a saturated *correct* prediction: `−ln(1 − LOSS_EPS)`.
    sat_small: f64,
    /// BCE of a saturated *wrong* prediction: `−ln(LOSS_EPS)`.
    sat_large: f64,
    /// Per-group center-gradient scratch (f64 accumulator), kept across
    /// [`SgnsModel::train`] calls so the dynamic phase's per-round
    /// continuation training allocates nothing.
    scratch: Vec<f64>,
    /// Per-group negative-draw scratch (see [`SgnsModel::train_group`]:
    /// draws are batched ahead of the gradient passes so the context-row
    /// cache misses overlap instead of serialising behind the RNG).
    neg_buf: Vec<usize>,
}

/// Thinned negative sampling for **frozen centers** (dynamic phase).
///
/// A negative pair updates a parameter only when an endpoint is
/// unfrozen. For a frozen center, each of the `negatives` independent
/// table draws hits an unfrozen node with probability
/// `p = unfrozen_mass / total_mass` — so the *number* of effective
/// negatives is `Binomial(negatives, p)` and, given the count, each hit
/// is distributed over the unfrozen nodes proportional to their smoothed
/// weights. Sampling that thinned process directly (one uniform against
/// the precomputed binomial CDF, then `k` draws from a small
/// unfrozen-only alias table) produces **exactly** the same distribution
/// of parameter updates as drawing all `negatives` from the full table
/// and discarding frozen hits — at ~`1 + negatives·p` draws per group
/// instead of `negatives`. With `p` in the percent range (continuation
/// walks visit mostly old nodes), that removes the dominant cost of the
/// continuation SGD.
struct ThinnedNegatives {
    /// `cum[k] = P(K ≤ k)` for `K ~ Binomial(negatives, p)`.
    cum: Vec<f64>,
    /// Unfrozen node ids with positive mass.
    ids: Vec<u32>,
    /// Alias table over those nodes' smoothed weights.
    table: AliasTable,
}

impl ThinnedNegatives {
    /// Precompute for the current freeze mask (one O(node_count) scan per
    /// `train` call — the *per-draw* work is what this buys down).
    fn build(frozen: &[bool], table: &NegativeTable, negatives: usize) -> Self {
        let mut ids = Vec::new();
        let mut weights = Vec::new();
        for (i, &fz) in frozen.iter().enumerate() {
            if !fz {
                let w = table.weight(i);
                if w > 0.0 {
                    ids.push(i as u32);
                    weights.push(w);
                }
            }
        }
        let sub = AliasTable::new(&weights);
        let total = table.total_weight();
        let p = if total > 0.0 {
            sub.total_weight() / total
        } else {
            0.0
        };
        // Binomial pmf by the usual ratio recurrence, accumulated.
        let q = 1.0 - p;
        let mut cum = Vec::with_capacity(negatives + 1);
        if q <= 0.0 {
            // All sampling mass is unfrozen: every draw hits, K = negatives
            // surely. (The recurrence would compute 0 · ∞ = NaN here, and
            // `min` would turn that into a CDF of all ones — K = 1.)
            cum.resize(negatives + 1, 0.0);
        } else {
            let mut pmf = q.powi(negatives as i32);
            let mut acc = pmf;
            cum.push(acc);
            for k in 0..negatives {
                pmf *= ((negatives - k) as f64 / (k + 1) as f64) * (p / q.max(f64::MIN_POSITIVE));
                acc += pmf;
                cum.push(acc.min(1.0));
            }
        }
        // Guard the tail against rounding: the last entry must catch
        // every uniform draw.
        if let Some(last) = cum.last_mut() {
            *last = 1.0;
        }
        ThinnedNegatives {
            cum,
            ids,
            table: sub,
        }
    }

    /// Number of effective negative hits for one group: one uniform draw
    /// against the binomial CDF.
    #[inline]
    fn draw_count(&self, rng: &mut DetRng) -> usize {
        let u = rng.random_range(0.0..1.0);
        self.cum.partition_point(|&c| c <= u)
    }
}

/// Result of one training run.
#[derive(Debug, Clone, Copy)]
pub struct TrainStats {
    /// Number of (center, context, label) updates performed.
    pub updates: usize,
    /// Mean binary cross-entropy over the first epoch.
    pub first_epoch_loss: f64,
    /// Mean binary cross-entropy over the last epoch.
    pub last_epoch_loss: f64,
}

impl SgnsModel {
    /// Fresh model with `nodes` random vectors in `[-0.5/dim, 0.5/dim]`
    /// (the word2vec initialisation).
    pub fn new(nodes: usize, dim: usize, seed: u64) -> Self {
        let mut rng = DetRng::seed_from_u64(seed);
        let bound = 0.5 / dim as f64;
        // Draws stay f64 (same RNG stream shape as the f64-storage
        // revisions); only the stored value rounds to f32.
        let in_vecs = (0..nodes * dim)
            .map(|_| rng.random_range(-bound..=bound) as f32)
            .collect();
        // Out vectors start at zero, as in word2vec.
        let out_vecs = vec![0.0f32; nodes * dim];
        SgnsModel {
            dim,
            in_vecs,
            out_vecs,
            frozen: vec![false; nodes],
            bins: build_sigmoid_bins(),
            sat_small: -(1.0 - LOSS_EPS).ln(),
            sat_large: -LOSS_EPS.ln(),
            scratch: Vec::new(),
            neg_buf: Vec::new(),
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of nodes the model currently covers.
    pub fn node_count(&self) -> usize {
        self.frozen.len()
    }

    /// The (input) embedding of a node — this is the vector exposed to
    /// downstream tasks. Stored f32; widen per element where a task
    /// needs f64 features.
    pub fn embedding(&self, node: NodeId) -> &[f32] {
        let i = node.index();
        &self.in_vecs[i * self.dim..(i + 1) * self.dim]
    }

    /// Freeze every node currently in the model (dynamic phase prologue).
    pub fn freeze_all(&mut self) {
        self.frozen.iter_mut().for_each(|f| *f = true);
    }

    /// Whether `node` is frozen.
    pub fn is_frozen(&self, node: NodeId) -> bool {
        self.frozen[node.index()]
    }

    /// The learned state, for snapshotting: `(in_vecs, out_vecs, frozen)`,
    /// node-major. Everything else in the struct (sigmoid bins, saturation
    /// constants, scratch buffers) is data-independent and rebuilt by
    /// [`SgnsModel::from_raw_parts`].
    pub fn raw_parts(&self) -> (&[f32], &[f32], &[bool]) {
        (&self.in_vecs, &self.out_vecs, &self.frozen)
    }

    /// Rebuild a model from snapshotted state (the inverse of
    /// [`SgnsModel::raw_parts`]). The derived tables are recomputed from
    /// constants, so a round trip is bit-identical to the original.
    ///
    /// # Panics
    /// If the vector lengths are not `frozen.len() * dim`.
    pub fn from_raw_parts(
        dim: usize,
        in_vecs: Vec<f32>,
        out_vecs: Vec<f32>,
        frozen: Vec<bool>,
    ) -> Self {
        assert_eq!(in_vecs.len(), frozen.len() * dim, "in_vecs length mismatch");
        assert_eq!(
            out_vecs.len(),
            frozen.len() * dim,
            "out_vecs length mismatch"
        );
        SgnsModel {
            dim,
            in_vecs,
            out_vecs,
            frozen,
            bins: build_sigmoid_bins(),
            sat_small: -(1.0 - LOSS_EPS).ln(),
            sat_large: -LOSS_EPS.ln(),
            scratch: Vec::new(),
            neg_buf: Vec::new(),
        }
    }

    /// Grow the model to cover `new_count` nodes; the added nodes get random
    /// input vectors (seeded) and are unfrozen.
    pub fn grow(&mut self, new_count: usize, seed: u64) {
        assert!(new_count >= self.node_count(), "grow cannot shrink");
        let added = new_count - self.node_count();
        if added == 0 {
            return;
        }
        let mut rng = DetRng::seed_from_u64(seed);
        let bound = 0.5 / self.dim as f64;
        self.in_vecs
            .extend((0..added * self.dim).map(|_| rng.random_range(-bound..=bound) as f32));
        self.out_vecs
            .extend(std::iter::repeat_n(0.0f32, added * self.dim));
        self.frozen.extend(std::iter::repeat_n(false, added));
    }

    /// One pair inside a (center, contexts) group: fused
    /// dot → σ → gradient pass over the two rows. Accumulates the center
    /// gradient into `cgrad` when `learn_center` (applied once per group by
    /// the caller) and updates the context row in place unless it is
    /// frozen. Returns the pair's BCE loss *before* the update.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn pair_grad<K: Kernels, const DIM: usize>(
        &mut self,
        center: usize,
        context: usize,
        label: f64,
        lr: f64,
        learn_center: bool,
        cgrad: &mut [f64],
    ) -> f64 {
        let dim = if DIM > 0 { DIM } else { self.dim };
        let x = K::dot_f32(
            &self.in_vecs[center * dim..center * dim + dim],
            &self.out_vecs[context * dim..context * dim + dim],
        );
        self.pair_grad_with::<K, DIM>(x, center, context, label, lr, learn_center, cgrad)
    }

    /// [`SgnsModel::pair_grad`] with the logit already computed — the
    /// batched group path ([`SgnsModel::train_group`]) evaluates all of a
    /// group's dots up front and feeds them through here.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn pair_grad_with<K: Kernels, const DIM: usize>(
        &mut self,
        x: f64,
        center: usize,
        context: usize,
        label: f64,
        lr: f64,
        learn_center: bool,
        cgrad: &mut [f64],
    ) -> f64 {
        let dim = if DIM > 0 { DIM } else { self.dim };
        // Prediction and BCE loss from the shared bin — no `ln` in the loop
        // (the saturated losses are precomputed in `new`).
        let positive = label > 0.5;
        let (pred, loss) = if x >= MAX_EXP {
            (
                1.0,
                if positive {
                    self.sat_small
                } else {
                    self.sat_large
                },
            )
        } else if x <= -MAX_EXP {
            (
                0.0,
                if positive {
                    self.sat_large
                } else {
                    self.sat_small
                },
            )
        } else {
            let idx = (((x + MAX_EXP) * SIGMOID_SCALE) as usize).min(TABLE_SIZE - 1);
            let bin = &self.bins[idx];
            let loss = if positive { bin.pos_loss } else { bin.neg_loss };
            (bin.sigmoid, loss)
        };
        let in_row = &self.in_vecs[center * dim..center * dim + dim];
        let out_row = &mut self.out_vecs[context * dim..context * dim + dim];
        let g = (pred - label) * lr;
        match (self.frozen[context], learn_center) {
            (true, false) => {} // both ends frozen: loss only
            (true, true) => {
                // Context row untouched; the center still learns from it
                // (f32 products into the f64 gradient accumulator).
                K::axpy_f32_acc(g, out_row, cgrad);
            }
            (false, false) => {
                // Frozen center: only the context row moves.
                K::axpy_f32(-g, in_row, out_row);
            }
            (false, true) => {
                // Fused pass: cgrad += g·out (pre-update value, f64
                // accumulation), out ← out − g·in (f32 elementwise).
                K::sgns_pair_step(g, in_row, out_row, cgrad);
            }
        }
        loss
    }

    /// One (center, positive-context) group: the positive pair plus
    /// `negatives` alias-sampled negative pairs, all against the center's
    /// pre-group row. The accumulated center gradient is applied once at
    /// the end (skipped entirely for frozen centers). Returns the group's
    /// summed BCE loss.
    ///
    /// Pairs whose **both** endpoints are frozen update nothing, and for a
    /// frozen center the negatives that *can* matter are sampled directly
    /// via the thinned process ([`ThinnedNegatives`]): same distribution
    /// of parameter updates as full-table sampling, a small fraction of
    /// the draws and none of the frozen-frozen dot/σ/axpy work — the
    /// dominant saving of the dynamic continuation, where walks from new
    /// nodes traverse mostly frozen old nodes. Loss *diagnostics*
    /// ([`TrainStats`]) only cover the pairs actually computed.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn train_group<K: Kernels, const DIM: usize>(
        &mut self,
        center: usize,
        context: usize,
        negatives: usize,
        table: &NegativeTable,
        thinned: Option<&ThinnedNegatives>,
        rng: &mut DetRng,
        lr: f64,
        cgrad: &mut [f64],
        negs: &mut Vec<usize>,
    ) -> f64 {
        let learn_center = !self.frozen[center];
        if learn_center {
            cgrad.fill(0.0);
        }
        // Draw the group's negatives *before* any gradient work (same RNG
        // stream, same effective pairs in the same order — bit-identical
        // output). Batching breaks the serial chain sample → row miss →
        // gradient: all effective rows are prefetched while the positive
        // pair computes, so their cache misses overlap.
        negs.clear();
        match (learn_center, thinned) {
            (false, Some(thin)) => {
                // Frozen center: only unfrozen negatives update anything.
                let hits = thin.draw_count(rng);
                for _ in 0..hits {
                    let neg = thin.ids[thin.table.sample(rng)] as usize;
                    if neg == context {
                        continue;
                    }
                    negs.push(neg);
                    kernel::prefetch_row(&self.out_vecs, neg * self.dim);
                }
            }
            _ => {
                for _ in 0..negatives {
                    let neg = table.sample(rng);
                    if neg == context {
                        continue;
                    }
                    if learn_center || !self.frozen[neg] {
                        negs.push(neg);
                        kernel::prefetch_row(&self.out_vecs, neg * self.dim);
                    }
                }
            }
        }
        let mut loss = 0.0;
        let do_pos = learn_center || !self.frozen[context];
        // Batch the group's dots ahead of the gradient passes: every
        // pair's logit reads rows no earlier pair in the group updates —
        // as long as the drawn negatives are distinct — so hoisting the
        // dots out of the branchy sigmoid/update sequence computes the
        // exact same IEEE values while the 7 independent reductions
        // pipeline instead of serialising behind each pair's updates. A
        // group with a repeated negative (rare: ~negatives²/2 in the
        // table size) falls back to the strict interleaved order, where
        // the second draw's dot must observe the first's row update.
        const BATCH: usize = 32;
        let distinct = negs.len() < BATCH && {
            let mut ok = true;
            for i in 1..negs.len() {
                ok &= !negs[..i].contains(&negs[i]);
            }
            ok
        };
        if distinct {
            let mut xs = [0.0f64; BATCH];
            let dim = if DIM > 0 { DIM } else { self.dim };
            {
                let in_row = &self.in_vecs[center * dim..center * dim + dim];
                let mut k = 0;
                if do_pos {
                    xs[k] = K::dot_f32(in_row, &self.out_vecs[context * dim..context * dim + dim]);
                    k += 1;
                }
                for &neg in negs.iter() {
                    xs[k] = K::dot_f32(in_row, &self.out_vecs[neg * dim..neg * dim + dim]);
                    k += 1;
                }
            }
            let mut k = 0;
            if do_pos {
                loss += self.pair_grad_with::<K, DIM>(
                    xs[k],
                    center,
                    context,
                    1.0,
                    lr,
                    learn_center,
                    cgrad,
                );
                k += 1;
            }
            for &neg in negs.iter() {
                loss +=
                    self.pair_grad_with::<K, DIM>(xs[k], center, neg, 0.0, lr, learn_center, cgrad);
                k += 1;
            }
        } else {
            if do_pos {
                loss += self.pair_grad::<K, DIM>(center, context, 1.0, lr, learn_center, cgrad);
            }
            for &neg in negs.iter() {
                loss += self.pair_grad::<K, DIM>(center, neg, 0.0, lr, learn_center, cgrad);
            }
        }
        if learn_center {
            let dim = if DIM > 0 { DIM } else { self.dim };
            K::apply_center_grad(
                &cgrad[..dim],
                &mut self.in_vecs[center * dim..center * dim + dim],
            );
        }
        loss
    }

    /// Train over a walk corpus: for every walk position, every context
    /// within `window`, one positive update plus `negatives` negative
    /// updates sampled from `table`. The learning rate decays linearly over
    /// the total update schedule.
    ///
    /// The whole call is one [`kernel::KernelTask`] (`Train`): the loop
    /// body is monomorphised over a [`kernel::Kernels`] family and
    /// [`kernel::dispatch`] picks the family once per `train` call. On the
    /// AVX2 path the kernels inline into the pair loop and revectorise at
    /// 256 bits — at ~45 ns per pair, a per-row-operation dispatch and
    /// call would be a measurable slice of the whole continuation SGD. All
    /// paths execute the same fixed-lane IEEE schedule, so outputs are
    /// bit-identical (asserted by `train_paths_agree_bitwise`).
    #[allow(clippy::too_many_arguments)]
    pub fn train(
        &mut self,
        corpus: &WalkCorpus,
        table: &NegativeTable,
        window: usize,
        negatives: usize,
        epochs: usize,
        lr0: f64,
        seed: u64,
    ) -> TrainStats {
        let args = TrainArgs {
            corpus,
            table,
            window,
            negatives,
            epochs,
            lr0,
            seed,
        };
        // Dimension 32 (the quick preset and perfbench) runs with a
        // compile-time trip count; `0` is the sentinel for "read
        // `self.dim` at run time" — same code, generic loops.
        match self.dim {
            32 => kernel::dispatch(Train::<32> { model: self, args }),
            _ => kernel::dispatch(Train::<0> { model: self, args }),
        }
    }

    /// The train loop body, generic over the kernel family and the
    /// (optionally const) dimension; run through [`Train`].
    #[allow(clippy::needless_range_loop)] // window positions index the walk
    #[inline(always)]
    fn train_with<K: Kernels, const DIM: usize>(&mut self, args: TrainArgs) -> TrainStats {
        let TrainArgs {
            corpus,
            table,
            window,
            negatives,
            epochs,
            lr0,
            seed,
        } = args;
        let mut rng = DetRng::seed_from_u64(seed);
        let mut stats = TrainStats {
            updates: 0,
            first_epoch_loss: 0.0,
            last_epoch_loss: 0.0,
        };
        if corpus.is_empty() || table.is_empty() || epochs == 0 {
            return stats;
        }
        // Total positive pairs (upper bound) for the lr schedule.
        let pairs_per_epoch: usize = corpus
            .iter()
            .map(|w| w.len() * 2 * window.min(w.len()))
            .sum::<usize>()
            .max(1);
        let inv_total_updates = 1.0 / (pairs_per_epoch * epochs) as f64;
        let mut done = 0usize;
        // Dynamic phase (any frozen node): precompute the thinned
        // frozen-center negative process once per call.
        let thinned = if self.frozen.iter().any(|&f| f) {
            Some(ThinnedNegatives::build(&self.frozen, table, negatives))
        } else {
            None
        };
        // Per-group center-gradient scratch: taken out of the model for the
        // duration of the loop (it is passed as a second &mut alongside
        // &mut self) and put back at the end, so repeated train calls reuse
        // one allocation.
        let mut cgrad = std::mem::take(&mut self.scratch);
        cgrad.clear();
        cgrad.resize(self.dim, 0.0);
        let mut negs = std::mem::take(&mut self.neg_buf);

        let mut order: Vec<usize> = (0..corpus.len()).collect();
        for epoch in 0..epochs {
            // Shuffle walk order per epoch (Fisher–Yates).
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0;
            let mut epoch_pairs = 0usize;
            for &wi in &order {
                let walk = corpus.walk(wi);
                for (pos, &center) in walk.iter().enumerate() {
                    // Dynamic window shrink, as in word2vec.
                    let b = rng.random_range(1..=window);
                    let lo = pos.saturating_sub(b);
                    let hi = (pos + b).min(walk.len() - 1);
                    for ctx_pos in lo..=hi {
                        if ctx_pos == pos {
                            continue;
                        }
                        let context = walk[ctx_pos];
                        let lr = lr0 * (1.0 - done as f64 * inv_total_updates).max(1e-4);
                        epoch_loss += self.train_group::<K, DIM>(
                            center.index(),
                            context.index(),
                            negatives,
                            table,
                            thinned.as_ref(),
                            &mut rng,
                            lr,
                            &mut cgrad,
                            &mut negs,
                        );
                        stats.updates += 1 + negatives;
                        epoch_pairs += 1;
                        done += 1;
                    }
                }
            }
            let mean = epoch_loss / (epoch_pairs.max(1) * (1 + negatives)) as f64;
            if epoch == 0 {
                stats.first_epoch_loss = mean;
            }
            stats.last_epoch_loss = mean;
        }
        self.scratch = cgrad;
        self.neg_buf = negs;
        stats
    }
}

/// The arguments of one [`SgnsModel::train`] call.
#[derive(Clone, Copy)]
struct TrainArgs<'a> {
    corpus: &'a WalkCorpus,
    table: &'a NegativeTable,
    window: usize,
    negatives: usize,
    epochs: usize,
    lr0: f64,
    seed: u64,
}

/// One [`SgnsModel::train`] call as a kernel task, at compile-time
/// dimension `DIM` (`0`: the model's run-time dimension).
struct Train<'a, const DIM: usize> {
    model: &'a mut SgnsModel,
    args: TrainArgs<'a>,
}

impl<const DIM: usize> KernelTask for Train<'_, DIM> {
    type Output = TrainStats;
    #[inline(always)]
    fn run<K: Kernels>(self) -> TrainStats {
        self.model.train_with::<K, DIM>(self.args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbgraph::{Graph, WalkConfig, Walker};
    use stembed_runtime::kernel::KernelPath;

    fn clique_pair_corpus(seed: u64) -> (Graph, WalkCorpus, Vec<usize>) {
        // Two 5-cliques joined by one bridge edge.
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..10).map(|_| g.add_node()).collect();
        for i in 0..5 {
            for j in i + 1..5 {
                g.add_edge(nodes[i], nodes[j]);
                g.add_edge(nodes[i + 5], nodes[j + 5]);
            }
        }
        g.add_edge(nodes[4], nodes[5]);
        g.finalize();
        let cfg = WalkConfig {
            walks_per_node: 20,
            walk_length: 8,
            p: 1.0,
            q: 1.0,
        };
        let corpus = Walker::new(&g, cfg, seed).corpus();
        let mut counts = vec![0usize; g.node_count()];
        for n in corpus.tokens() {
            counts[n.index()] += 1;
        }
        (g, corpus, counts)
    }

    /// Every `train` instantiation — the dynamic-dimension body and the
    /// DIM = 32 specialisation, on every available kernel path (scalar
    /// reference, portable wide, and the AVX2 recompilation where the CPU
    /// has it) — produces bit-identical embeddings: the kernel dispatch
    /// must never change output.
    #[test]
    fn train_paths_agree_bitwise() {
        let (_, corpus, counts) = clique_pair_corpus(11);
        let table = NegativeTable::new(&counts);
        let args = TrainArgs {
            corpus: &corpus,
            table: &table,
            window: 3,
            negatives: 5,
            epochs: 3,
            lr0: 0.05,
            seed: 2,
        };
        let run = |path, const_dim: bool| {
            // dim 32 exercises the DIM=32 specialisation against the
            // dynamic (DIM=0) body.
            let mut model = SgnsModel::new(counts.len(), 32, 1);
            let stats = if const_dim {
                kernel::run_on(
                    path,
                    Train::<32> {
                        model: &mut model,
                        args,
                    },
                )
            } else {
                kernel::run_on(
                    path,
                    Train::<0> {
                        model: &mut model,
                        args,
                    },
                )
            };
            let bits: Vec<u32> = model.in_vecs.iter().map(|v| v.to_bits()).collect();
            (stats.last_epoch_loss.to_bits(), bits)
        };
        let scalar = run(KernelPath::Scalar, false);
        for &path in kernel::available_paths() {
            assert_eq!(scalar, run(path, false), "scalar vs {path:?} train");
            assert_eq!(
                scalar,
                run(path, true),
                "scalar vs const-dim {path:?} train"
            );
        }
    }

    #[test]
    fn loss_decreases_over_training() {
        let (_, corpus, counts) = clique_pair_corpus(7);
        let table = NegativeTable::new(&counts);
        let mut model = SgnsModel::new(counts.len(), 16, 1);
        let stats = model.train(&corpus, &table, 3, 5, 5, 0.05, 2);
        assert!(stats.updates > 0);
        assert!(
            stats.last_epoch_loss < stats.first_epoch_loss,
            "loss should drop: {} -> {}",
            stats.first_epoch_loss,
            stats.last_epoch_loss
        );
    }

    #[test]
    fn communities_separate_in_embedding_space() {
        let (_, corpus, counts) = clique_pair_corpus(3);
        let table = NegativeTable::new(&counts);
        let mut model = SgnsModel::new(counts.len(), 16, 5);
        model.train(&corpus, &table, 3, 5, 8, 0.05, 9);
        let cos = |a: usize, b: usize| {
            linalg_cosine(
                model.embedding(NodeId(a as u32)),
                model.embedding(NodeId(b as u32)),
            )
        };
        // Mean intra-clique vs inter-clique similarity.
        let mut intra = Vec::new();
        let mut inter = Vec::new();
        for i in 0..5usize {
            for j in 0..5usize {
                if i < j {
                    intra.push(cos(i, j));
                    intra.push(cos(i + 5, j + 5));
                }
                inter.push(cos(i, j + 5));
            }
        }
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            mean(&intra) > mean(&inter) + 0.1,
            "intra {} must exceed inter {}",
            mean(&intra),
            mean(&inter)
        );
    }

    fn linalg_cosine(a: &[f32], b: &[f32]) -> f64 {
        let dot: f64 = a
            .iter()
            .zip(b)
            .map(|(x, y)| f64::from(*x) * f64::from(*y))
            .sum();
        let na: f64 = a
            .iter()
            .map(|x| f64::from(*x) * f64::from(*x))
            .sum::<f64>()
            .sqrt();
        let nb: f64 = b
            .iter()
            .map(|x| f64::from(*x) * f64::from(*x))
            .sum::<f64>()
            .sqrt();
        if na == 0.0 || nb == 0.0 {
            0.0
        } else {
            dot / (na * nb)
        }
    }

    #[test]
    fn frozen_nodes_are_bit_identical_after_training() {
        let (_, corpus, counts) = clique_pair_corpus(11);
        let table = NegativeTable::new(&counts);
        let mut model = SgnsModel::new(counts.len(), 8, 2);
        model.train(&corpus, &table, 3, 5, 2, 0.05, 3);
        // Freeze everything, then grow by two nodes and train again.
        model.freeze_all();
        let snapshot: Vec<Vec<f32>> = (0..model.node_count())
            .map(|i| model.embedding(NodeId(i as u32)).to_vec())
            .collect();
        model.grow(counts.len() + 2, 77);
        assert!(!model.is_frozen(NodeId(counts.len() as u32)));
        let mut counts2 = counts.clone();
        counts2.push(3);
        counts2.push(3);
        let table2 = NegativeTable::new(&counts2);
        model.train(&corpus, &table2, 3, 5, 2, 0.05, 4);
        for (i, old) in snapshot.iter().enumerate() {
            assert_eq!(
                model.embedding(NodeId(i as u32)),
                old.as_slice(),
                "frozen node {i} changed"
            );
        }
    }

    #[test]
    fn grow_preserves_existing_vectors() {
        let mut model = SgnsModel::new(3, 4, 0);
        let before = model.embedding(NodeId(1)).to_vec();
        model.grow(5, 9);
        assert_eq!(model.node_count(), 5);
        assert_eq!(model.embedding(NodeId(1)), before.as_slice());
        // New vectors are non-zero with overwhelming probability.
        assert!(model.embedding(NodeId(4)).iter().any(|&v| v != 0.0));
    }

    #[test]
    fn deterministic_given_seeds() {
        let (_, corpus, counts) = clique_pair_corpus(1);
        let table = NegativeTable::new(&counts);
        let mut m1 = SgnsModel::new(counts.len(), 8, 4);
        let mut m2 = SgnsModel::new(counts.len(), 8, 4);
        m1.train(&corpus, &table, 3, 4, 2, 0.05, 6);
        m2.train(&corpus, &table, 3, 4, 2, 0.05, 6);
        for i in 0..counts.len() {
            assert_eq!(
                m1.embedding(NodeId(i as u32)),
                m2.embedding(NodeId(i as u32))
            );
        }
    }

    #[test]
    fn empty_corpus_is_a_noop() {
        let table = NegativeTable::new(&[1, 1]);
        let mut model = SgnsModel::new(2, 4, 0);
        let before = model.embedding(NodeId(0)).to_vec();
        let stats = model.train(&WalkCorpus::default(), &table, 3, 4, 2, 0.05, 0);
        assert_eq!(stats.updates, 0);
        assert_eq!(model.embedding(NodeId(0)), before.as_slice());
    }

    /// The thinned frozen-center process must hit unfrozen negatives at
    /// the same rate (per node) as full-table sampling would: each of the
    /// `negatives` trials hits node `j` with probability `w_j / total`.
    #[test]
    fn thinned_negatives_match_full_table_hit_rates() {
        use stembed_runtime::stream_rng;
        let counts = vec![40usize, 0, 7, 120, 3, 60, 11, 90];
        let table = NegativeTable::new(&counts);
        // Freeze everything except nodes 2, 4, 6.
        let mut frozen = vec![true; counts.len()];
        for i in [2usize, 4, 6] {
            frozen[i] = false;
        }
        let negatives = 6;
        let thin = ThinnedNegatives::build(&frozen, &table, negatives);
        assert_eq!(thin.ids, vec![2, 4, 6]);

        const GROUPS: usize = 60_000;
        let mut hits = vec![0usize; counts.len()];
        let mut rng = stream_rng(0x7417, 0);
        for _ in 0..GROUPS {
            let k = thin.draw_count(&mut rng);
            assert!(k <= negatives);
            for _ in 0..k {
                hits[thin.ids[thin.table.sample(&mut rng)] as usize] += 1;
            }
        }
        let total: f64 = counts.iter().map(|&c| (c as f64).powf(0.75)).sum();
        let mut chi = 0.0;
        for (i, &h) in hits.iter().enumerate() {
            if frozen[i] {
                assert_eq!(h, 0, "frozen node {i} hit by the thinned process");
                continue;
            }
            let expect = (GROUPS * negatives) as f64 * (counts[i] as f64).powf(0.75) / total;
            chi += (h as f64 - expect).powi(2) / expect;
        }
        // 3 unfrozen cells; generous envelope.
        assert!(chi < 20.0, "thinned hit rates off: chi-square {chi:.1}");
    }

    /// When every node with sampling mass is unfrozen (p = 1), each of
    /// the `negatives` draws hits, so the thinned count must always be
    /// `negatives`.
    #[test]
    fn thinned_negatives_with_all_mass_unfrozen_always_draw_every_negative() {
        use stembed_runtime::stream_rng;
        let table = NegativeTable::new(&[0, 5, 7]);
        let negatives = 6;
        let thin = ThinnedNegatives::build(&[true, false, false], &table, negatives);
        assert_eq!(thin.cum.len(), negatives + 1);
        assert!(thin.cum.iter().all(|c| !c.is_nan()));
        let mut rng = stream_rng(0x7418, 0);
        for _ in 0..1000 {
            assert_eq!(thin.draw_count(&mut rng), negatives);
        }
    }

    #[test]
    fn frozen_center_still_trains_unfrozen_negative_rows() {
        // With a frozen center, an unfrozen node's out-row must still
        // receive negative-sample gradient through the thinned path.
        let counts = vec![50usize, 50, 50];
        let table = NegativeTable::new(&counts);
        let mut model = SgnsModel::new(3, 4, 1);
        // Give out vectors some mass first so gradients are nonzero.
        let warm = WalkCorpus::from_nested(&[vec![NodeId(0), NodeId(1), NodeId(2)]]);
        model.train(&warm, &table, 2, 2, 3, 0.1, 2);
        model.frozen[0] = true;
        model.frozen[1] = true; // node 2 stays unfrozen
        let out_before: Vec<f32> = model.out_vecs.clone();
        // Corpus of frozen nodes only: every group has a frozen center and
        // frozen context; only thinned negative hits on node 2 can move
        // anything, and with 50/150 of the mass they will.
        let corpus = WalkCorpus::from_nested(&[vec![NodeId(0), NodeId(1)]]);
        model.train(&corpus, &table, 1, 8, 20, 0.1, 3);
        let dim = model.dim;
        assert_eq!(
            &model.out_vecs[..2 * dim],
            &out_before[..2 * dim],
            "frozen out-rows moved"
        );
        assert_ne!(
            &model.out_vecs[2 * dim..],
            &out_before[2 * dim..],
            "unfrozen out-row must learn from thinned negatives"
        );
    }

    #[test]
    fn frozen_context_rows_still_teach_the_center() {
        // A frozen context must contribute gradient to an unfrozen center
        // without its own row moving.
        let counts = vec![5usize, 5];
        let table = NegativeTable::new(&counts);
        let mut model = SgnsModel::new(2, 4, 1);
        // Nudge out vectors away from zero so the center gradient is nonzero.
        let corpus = WalkCorpus::from_nested(&[vec![NodeId(0), NodeId(1)]]);
        model.train(&corpus, &table, 1, 1, 2, 0.1, 2);
        model.frozen[1] = true;
        let frozen_in = model.embedding(NodeId(1)).to_vec();
        let center_before = model.embedding(NodeId(0)).to_vec();
        model.train(&corpus, &table, 1, 1, 3, 0.1, 3);
        assert_eq!(model.embedding(NodeId(1)), frozen_in.as_slice());
        assert_ne!(model.embedding(NodeId(0)), center_before.as_slice());
    }
}
