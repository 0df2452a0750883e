//! FoRWaRD static training (paper §V-C/D).
//!
//! Jointly learns fact vectors `ϕ(f) ∈ R^d` and symmetric matrices
//! `ψ(s,A) ∈ R^{d×d}` minimising the ℓ2 objective of Eq. 5,
//!
//! ```text
//! L = ½ |ϕ(f)ᵀ ψ(s,A) ϕ(f′) − κ(g[A], g′[A])|²
//! ```
//!
//! by minibatch SGD with hand-derived gradients. With the prediction error
//! `e = ϕ(f)ᵀ Ψ ϕ(f′) − y` and symmetric `Ψ`:
//!
//! * `∂L/∂ϕ(f)  = e · Ψ ϕ(f′)`
//! * `∂L/∂ϕ(f′) = e · Ψ ϕ(f)`
//! * `∂L/∂Ψ     = e · ½(ϕ(f) ϕ(f′)ᵀ + ϕ(f′) ϕ(f)ᵀ)`
//!
//! The symmetrised `Ψ` update keeps every `ψ(s,A)` exactly symmetric
//! throughout training (an invariant the tests assert).
//!
//! ## The per-sample step
//!
//! Under pure SGD (`batch_size: 1`, the [`ForwardConfig::small`] and
//! experiment `quick` configurations) the step runs once per sample, so it
//! is written to allocate nothing and to dispatch nothing:
//!
//! * `Ψϕ(f′)`, `Ψϕ(f)` and `e` are computed into scratch buffers owned by
//!   the epoch, then `ψ` is updated **in place, row by row** with the
//!   rank-2 gradient and `ϕ(f)`, `ϕ(f′)` with theirs — no gradient maps,
//!   no zeroed `d×d` gradient matrix, no `matvec` vectors.
//! * The epoch loop is monomorphised over a [`Kernels`] family and over
//!   the dimension (`32` as a compile-time constant, anything else read
//!   at run time) and runs as one [`KernelTask`] (`SgdEpoch`):
//!   [`kernel::dispatch`] picks the kernel path once per epoch, and on the
//!   AVX2 path the kernels inline into the sample loop instead of
//!   crossing a dispatch and a call boundary per row.
//!
//! Larger batches evaluate every sample through the **same** routines
//! (`sample_error`, `add_psi_grad_row`) but accumulate the gradient instead
//! of applying it — there is one gradient formula, not two. Their chunks
//! may run on worker threads, so each chunk is a kernel task of its own
//! (`ChunkGradientsTask`) and gets the active path, AVX2 included, from
//! the same entry point. The in-place
//! step performs exactly the IEEE operations a one-sample batch through
//! the accumulating path does (gradients start at `0.0 + e·x`, rank-one
//! rows with a zero coefficient are skipped, and the update scale is
//! `−lr · inv_b`), so the output is bit-identical either way
//! (`single_sample_step_matches_chunk_path_bitwise`).
//!
//! ## Parallel execution, deterministically
//!
//! Each minibatch's gradients are computed against the pre-batch snapshot
//! of `ϕ`/`ψ`, so per-sample contributions are independent and can be
//! sharded. The batch is split into **fixed-size** chunks
//! ([`GRAD_CHUNK`] samples — a constant of the algorithm, never derived
//! from the shard count); chunk-local accumulators are merged **in chunk
//! order** and applied once. Fixed boundaries + ordered merge make the
//! floating-point sums, and therefore the trained embedding, bit-identical
//! for any shard count — `tests/determinism.rs` in the workspace root
//! asserts this end to end.

use crate::config::ForwardConfig;
use crate::distcache::DistCache;
use crate::kernel::KernelAssignment;
use crate::plan::SchemePlan;
use crate::sampler::{generate_samples, EligibilityIndex, TrainingSample};
use crate::schemes::{target_pairs, Target};
use crate::CoreError;
use linalg::{vector, Matrix};
use reldb::{Database, FactId, RelationId};
use std::collections::BTreeMap;
use stembed_runtime::kernel::{self, KernelTask, Kernels};
use stembed_runtime::rng::DetRng;
use stembed_runtime::{derive_seed, Runtime};

/// Samples per parallel gradient chunk. A constant of the algorithm: chunk
/// boundaries must not depend on the shard count, or the merge order of
/// floating-point partial sums (and with it the learned embedding) would
/// change with the machine.
const GRAD_CHUNK: usize = 512;

/// Named sub-stream of the master seed feeding the SGD sampling family
/// (`run_sgd` further derives per-epoch streams from it). Hand mixing
/// (`seed ^ SALT`) is what the seed-arithmetic lint exists to prevent:
/// two salts can collide under xor where `derive_seed` streams cannot.
/// Kept clear of the small-integer stream family `extend_all` draws
/// (`derive_seed(seed, fact_index)`).
const SAMPLE_STREAM: u64 = 0x5a5a;

/// A trained FoRWaRD embedding of one relation.
#[derive(Debug, Clone)]
pub struct ForwardEmbedding {
    rel: RelationId,
    dim: usize,
    targets: Vec<Target>,
    /// The targets' schemes factored into a shared prefix trie. Fixes the
    /// deterministic DFS evaluation order of **exact-path** distribution
    /// work (the dynamic pre-warm), so sibling schemes extend a cached
    /// parent frontier while it is hot. The sampling schedule stays in
    /// target order — ψ indexing and the per-target RNG streams are keyed
    /// by target position, which the plan never reorders.
    plan: SchemePlan,
    /// `BTreeMap` so every whole-map walk (snapshots, update application,
    /// candidate enumeration) runs in ascending `FactId` order — hasher
    /// state must never pick the order of float updates.
    phi: BTreeMap<FactId, Vec<f64>>,
    psi: Vec<Matrix>,
    kernels: KernelAssignment,
    config: ForwardConfig,
    runtime: Runtime,
    /// Mean squared error per epoch of the last training run.
    epoch_losses: Vec<f64>,
    /// Persistent walk-distribution cache for the dynamic phase. Warmed by
    /// `extend`/`extend_batch`, invalidated automatically whenever the
    /// database mutates (see [`DistCache`]).
    dist_cache: DistCache,
}

impl ForwardEmbedding {
    /// Static phase: train an embedding of relation `rel` over `db`, using
    /// the default runtime (`STEMBED_SHARDS` / available parallelism). The
    /// result depends only on `(db, rel, config, seed)` — never on the
    /// shard count.
    pub fn train(
        db: &Database,
        rel: RelationId,
        config: &ForwardConfig,
        seed: u64,
    ) -> Result<Self, CoreError> {
        Self::train_with_runtime(db, rel, config, seed, Runtime::from_env())
    }

    /// [`ForwardEmbedding::train`] on an explicit execution runtime.
    pub fn train_with_runtime(
        db: &Database,
        rel: RelationId,
        config: &ForwardConfig,
        seed: u64,
        runtime: Runtime,
    ) -> Result<Self, CoreError> {
        Self::train_with_epoch(db, rel, config, seed, runtime, Self::sgd_epoch)
    }

    /// Initialise `ϕ`/`ψ` and train, running each epoch's shuffled samples
    /// through `epoch` (which returns their summed squared error). Tests
    /// pass a reference epoch here to check [`Self::sgd_epoch`] against it.
    fn train_with_epoch<E>(
        db: &Database,
        rel: RelationId,
        config: &ForwardConfig,
        seed: u64,
        runtime: Runtime,
        epoch: E,
    ) -> Result<Self, CoreError>
    where
        E: FnMut(&mut Self, &[TrainingSample], f64) -> f64,
    {
        let facts = db.fact_ids(rel);
        if facts.len() < 2 {
            return Err(CoreError::NotEnoughFacts {
                relation: db.schema().relation(rel).name.clone(),
                got: facts.len(),
            });
        }
        let targets = target_pairs(db.schema(), rel, config.max_walk_len);
        if targets.is_empty() {
            return Err(CoreError::NoTargets {
                relation: db.schema().relation(rel).name.clone(),
            });
        }
        let plan = SchemePlan::from_targets(rel, &targets);
        // The cache only stores prefix frontiers another scheme will
        // resume (see `SchemePlan::persist_prefixes`); on plans with
        // little sharing this is what keeps cache-backed evaluation from
        // paying bookkeeping a plain BFS does not.
        let dist_cache = DistCache::new(std::sync::Arc::new(plan.persist_prefixes()));
        let kernels = KernelAssignment::defaults(db);
        let mut rng = DetRng::seed_from_u64(seed);

        // Random initialisation of ϕ and ψ (paper §V-D).
        let mut phi = BTreeMap::new();
        for &f in &facts {
            let v: Vec<f64> = (0..config.dim)
                .map(|_| rng.random_range(-config.init_bound..=config.init_bound))
                .collect();
            phi.insert(f, v);
        }
        let mut psi = Vec::with_capacity(targets.len());
        for _ in 0..targets.len() {
            let mut m = Matrix::random_uniform(config.dim, config.dim, config.init_bound, &mut rng);
            m.symmetrize();
            psi.push(m);
        }

        let mut this = ForwardEmbedding {
            rel,
            dim: config.dim,
            targets,
            plan,
            phi,
            psi,
            kernels,
            config: config.clone(),
            runtime,
            epoch_losses: Vec::new(),
            dist_cache,
        };
        this.run_sgd(
            db,
            &facts,
            derive_seed(seed, SAMPLE_STREAM),
            &mut rng,
            epoch,
        )?;
        Ok(this)
    }

    fn run_sgd<E>(
        &mut self,
        db: &Database,
        facts: &[FactId],
        sample_seed: u64,
        rng: &mut DetRng,
        mut epoch_step: E,
    ) -> Result<(), CoreError>
    where
        E: FnMut(&mut Self, &[TrainingSample], f64) -> f64,
    {
        let runtime = self.runtime;
        let index = EligibilityIndex::probe(
            db,
            facts,
            &self.targets,
            self.config.kd.max_attempts,
            derive_seed(sample_seed, 0),
            &runtime,
        );
        if index.eligible.iter().all(|e| e.len() < 2) {
            return Err(CoreError::NoTargets {
                relation: db.schema().relation(self.rel).name.clone(),
            });
        }
        self.epoch_losses.clear();
        for epoch in 0..self.config.epochs {
            // Fresh samples every epoch — this is what makes the per-sample
            // kernel value an unbiased estimate of KD (paper §V-D). Epoch
            // `e` draws from the derived stream family `sample_seed ⊕ e+1`.
            let mut samples = generate_samples(
                db,
                &self.targets,
                &index,
                &self.kernels,
                self.config.nsamples,
                self.config.kd.max_attempts,
                derive_seed(sample_seed, 1 + epoch as u64),
                &runtime,
            );
            // Shuffle across targets (sequential Fisher–Yates on the master
            // stream — cheap, and keeps the schedule seed-determined).
            for i in (1..samples.len()).rev() {
                let j = rng.random_range(0..=i);
                samples.swap(i, j);
            }
            let lr = self.config.learning_rate
                * (1.0 - epoch as f64 / self.config.epochs as f64).max(0.1);
            let loss_acc = epoch_step(self, &samples, lr);
            self.epoch_losses
                .push(loss_acc / samples.len().max(1) as f64);
        }
        Ok(())
    }

    /// One epoch of SGD over `samples` (already shuffled) at learning rate
    /// `lr`, in batches of `config.batch_size`; returns the summed squared
    /// error (pre-update). Picks the dimension specialisation and the
    /// kernel family **once** for the whole epoch (see the module docs).
    fn sgd_epoch(&mut self, samples: &[TrainingSample], lr: f64) -> f64 {
        match self.dim {
            32 => kernel::dispatch(SgdEpoch::<32> {
                model: self,
                samples,
                lr,
            }),
            _ => kernel::dispatch(SgdEpoch::<0> {
                model: self,
                samples,
                lr,
            }),
        }
    }

    /// The epoch body, generic over the kernel family and the (optionally
    /// const, `0` = read `self.dim`) dimension.
    #[inline(always)]
    fn sgd_epoch_with<K: Kernels, const DIM: usize>(
        &mut self,
        samples: &[TrainingSample],
        lr: f64,
    ) -> f64 {
        let batch = self.config.batch_size.max(1);
        let mut scratch = StepScratch::new(self.dim);
        let mut loss_acc = 0.0;
        for chunk in samples.chunks(batch) {
            loss_acc += match chunk {
                [s] => self.sgd_step::<K, DIM>(s, lr, &mut scratch),
                _ => self.minibatch_step(chunk, lr),
            };
        }
        loss_acc
    }

    /// One single-sample SGD step, applied in place: the update a
    /// one-sample [`Self::minibatch_step`] makes, bit for bit, without its
    /// gradient maps and matrices. `ψ` is updated row by row before `ϕ`,
    /// since its gradient reads the pre-step `ϕ(f)`, `ϕ(f′)`; the `ϕ`
    /// gradients only read `Ψϕ(f′)`, `Ψϕ(f)`, computed up front. Returns
    /// the squared error (pre-update).
    ///
    /// # Panics
    ///
    /// If the sample references a fact or target absent from `ϕ`/`ψ` —
    /// the sampler draws from the fact set and targets the model was
    /// initialised on.
    #[inline(always)]
    fn sgd_step<K: Kernels, const DIM: usize>(
        &mut self,
        s: &TrainingSample,
        lr: f64,
        scratch: &mut StepScratch,
    ) -> f64 {
        let d = if DIM > 0 { DIM } else { self.dim };
        let StepScratch {
            psi_fp,
            psi_f,
            grad,
        } = scratch;
        // `−lr · inv_b` of a one-sample batch (inv_b = 1, an exact factor).
        let alpha = -lr;
        let phi_f = &self.phi[&s.f];
        let phi_fp = &self.phi[&s.f_prime];
        let psi = &mut self.psi[s.target];
        let e = sample_error::<K>(psi, phi_f, phi_fp, s.y, psi_fp, psi_f);
        let (phi_f, phi_fp) = (&phi_f[..d], &phi_fp[..d]);
        let (psi_fp, psi_f, grad) = (&psi_fp[..d], &psi_f[..d], &mut grad[..d]);
        let half_e = e * 0.5;
        for r in 0..d {
            grad.fill(0.0);
            add_psi_grad_row::<K>(half_e, phi_f, phi_fp, r, grad);
            K::axpy(alpha, grad, &mut psi.row_mut(r)[..d]);
        }
        // The sampler never pairs a fact with itself, so the two ϕ
        // gradients land on distinct vectors.
        debug_assert_ne!(s.f, s.f_prime);
        for (f, psi_x) in [(s.f, psi_fp), (s.f_prime, psi_f)] {
            grad.fill(0.0);
            K::axpy(e, psi_x, grad);
            let v = self.phi.get_mut(&f).expect("sampled facts are embedded");
            K::axpy(alpha, grad, &mut v[..d]);
        }
        e * e
    }

    /// One minibatch step (paper Table II: batch size 50,000): gradients of
    /// the ℓ2 loss are **averaged over the batch** before being applied.
    /// Batch averaging is essential, not cosmetic — attributes whose kernel
    /// similarity carries no class structure produce zero-mean per-sample
    /// gradients whose variance would otherwise randomly diffuse `ϕ` and
    /// drown the signal targets.
    ///
    /// Gradients are computed against the pre-batch snapshot in parallel
    /// fixed-size chunks and merged in chunk order (see module docs).
    /// Returns the summed squared error of the batch (pre-update).
    ///
    /// # Panics
    ///
    /// If a gradient references a fact or target absent from `ϕ`/`ψ`, or a
    /// shape disagrees — both would mean the sampler and the model went
    /// out of sync, a state no update should be applied from.
    fn minibatch_step(&mut self, batch: &[TrainingSample], lr: f64) -> f64 {
        let inv_b = 1.0 / batch.len() as f64;
        // Fast path for batches within one chunk: the single chunk's
        // accumulators *are* the merge result, bit for bit — skip the
        // runtime and the re-merge.
        let merged = if batch.len() <= GRAD_CHUNK {
            self.chunk_gradients(batch)
        } else {
            let partials = self
                .runtime
                .par_chunks_map(batch, GRAD_CHUNK, |_c, chunk| self.chunk_gradients(chunk));
            merge_chunk_gradients(partials)
        };
        let ChunkGradients {
            loss,
            phi_grad,
            psi_grad,
        } = merged;
        let alpha = -lr * inv_b;
        for (f, grad) in phi_grad {
            let v = self.phi.get_mut(&f).expect("accumulated facts exist");
            vector::axpy(alpha, &grad, v);
        }
        for (t, grad) in psi_grad {
            self.psi[t]
                .add_scaled(alpha, &grad)
                .expect("gradient shape matches ψ");
        }
        loss
    }

    /// [`Self::chunk_gradients_with`] on the active kernel family: the batch
    /// path dispatches once per chunk of up to [`GRAD_CHUNK`] samples, on
    /// whichever shard runs it.
    fn chunk_gradients(&self, chunk: &[TrainingSample]) -> ChunkGradients {
        kernel::dispatch(ChunkGradientsTask { model: self, chunk })
    }

    /// Gradient accumulators of one fixed-size sample chunk, evaluated
    /// against the current (pre-batch) `ϕ`/`ψ` snapshot. Pure read access —
    /// safe to run on any shard.
    ///
    /// # Panics
    ///
    /// If a sample references a fact or target absent from `ϕ`/`ψ` — the
    /// sampler draws from the same fact set the model was initialised on.
    #[inline(always)]
    fn chunk_gradients_with<K: Kernels>(&self, chunk: &[TrainingSample]) -> ChunkGradients {
        let dim = self.dim;
        let mut scratch = StepScratch::new(dim);
        let mut phi_grad: BTreeMap<FactId, Vec<f64>> = BTreeMap::new();
        let mut psi_grad: BTreeMap<usize, Matrix> = BTreeMap::new();
        let mut loss = 0.0;
        for s in chunk {
            let phi_f = &self.phi[&s.f];
            let phi_fp = &self.phi[&s.f_prime];
            let e = sample_error::<K>(
                &self.psi[s.target],
                phi_f,
                phi_fp,
                s.y,
                &mut scratch.psi_fp,
                &mut scratch.psi_f,
            );
            loss += e * e;
            K::axpy(
                e,
                &scratch.psi_fp,
                phi_grad.entry(s.f).or_insert_with(|| vec![0.0; dim]),
            );
            K::axpy(
                e,
                &scratch.psi_f,
                phi_grad.entry(s.f_prime).or_insert_with(|| vec![0.0; dim]),
            );
            let g = psi_grad
                .entry(s.target)
                .or_insert_with(|| Matrix::zeros(dim, dim));
            let half_e = e * 0.5;
            for r in 0..dim {
                add_psi_grad_row::<K>(half_e, phi_f, phi_fp, r, g.row_mut(r));
            }
        }
        ChunkGradients {
            loss,
            phi_grad,
            psi_grad,
        }
    }

    /// The embedded relation.
    pub fn relation(&self) -> RelationId {
        self.rel
    }

    /// Embedding dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The execution runtime used by training and dynamic extension.
    pub fn runtime(&self) -> Runtime {
        self.runtime
    }

    /// The embedding `ϕ(f)`, if `f` belongs to the embedded relation and
    /// was present at training (or added by the dynamic phase).
    pub fn embedding(&self, f: FactId) -> Option<&[f64]> {
        self.phi.get(&f).map(std::vec::Vec::as_slice)
    }

    /// Number of embedded facts.
    pub fn len(&self) -> usize {
        self.phi.len()
    }

    /// `true` iff no facts are embedded.
    pub fn is_empty(&self) -> bool {
        self.phi.is_empty()
    }

    /// The target pairs `T(R, ℓmax)` of this embedding.
    pub fn targets(&self) -> &[Target] {
        &self.targets
    }

    /// The targets' schemes factored into a shared prefix trie — the
    /// deterministic DFS evaluation order for exact-path distribution
    /// work (see [`SchemePlan`]).
    pub fn scheme_plan(&self) -> &SchemePlan {
        &self.plan
    }

    /// The learned inner-product matrix `ψ(s,A)` for target `t`.
    pub fn psi(&self, t: usize) -> &Matrix {
        &self.psi[t]
    }

    /// The kernel assignment in force.
    pub fn kernels(&self) -> &KernelAssignment {
        &self.kernels
    }

    /// The configuration used for training.
    pub fn config(&self) -> &ForwardConfig {
        &self.config
    }

    /// Mean squared error per epoch of the last training run.
    pub fn epoch_losses(&self) -> &[f64] {
        &self.epoch_losses
    }

    /// Bilinear prediction `ϕ(f)ᵀ ψ_t ϕ(f′)` (Eq. 3's left-hand side).
    ///
    /// # Panics
    ///
    /// If `t` is out of range or the stored embeddings disagree in
    /// dimension (impossible for a model built by [`ForwardEmbedding::train`]).
    pub fn predict(&self, t: usize, f: FactId, f_prime: FactId) -> Option<f64> {
        let a = self.phi.get(&f)?;
        let b = self.phi.get(&f_prime)?;
        Some(self.psi[t].bilinear(a, b).expect("dims agree"))
    }

    /// Drop a deleted fact's embedding (paper §VII: deletion just removes
    /// the point; the rest of the embedding stays).
    pub fn forget(&mut self, f: FactId) -> bool {
        self.phi.remove(&f).is_some()
    }

    /// All embedded facts, in ascending [`FactId`] order.
    pub fn embedded_facts(&self) -> impl Iterator<Item = FactId> + '_ {
        self.phi.keys().copied()
    }

    /// Insert an externally computed vector (used by the dynamic phase).
    pub(crate) fn insert_phi(&mut self, f: FactId, v: Vec<f64>) {
        debug_assert_eq!(v.len(), self.dim);
        self.phi.insert(f, v);
    }

    /// The persistent walk-distribution cache (diagnostics: hit/miss/
    /// invalidation counters via [`DistCache::stats`]).
    pub fn dist_cache(&self) -> &DistCache {
        &self.dist_cache
    }

    /// Rebuild an embedding from snapshotted state. `targets` (and with
    /// them the scheme plan) are **re-derived** from the schema (they are
    /// a pure function of `(schema, rel, max_walk_len)`), the
    /// distribution cache starts cold
    /// (it is a pure accelerator — the determinism contract guarantees
    /// cached ≡ uncached), and the runtime comes from the environment.
    /// Only `ϕ`, `ψ`, the kernel assignment, and the loss history are
    /// state.
    ///
    /// Errors with [`CoreError::SnapshotMismatch`] when the snapshotted
    /// matrices do not line up with the re-derived targets or the config's
    /// dimension — the snapshot belongs to a different schema or config.
    pub fn from_snapshot_parts(
        db: &Database,
        rel: RelationId,
        config: ForwardConfig,
        kernels: KernelAssignment,
        phi: BTreeMap<FactId, Vec<f64>>,
        psi: Vec<Matrix>,
        epoch_losses: Vec<f64>,
    ) -> Result<Self, CoreError> {
        let targets = target_pairs(db.schema(), rel, config.max_walk_len);
        if psi.len() != targets.len() {
            return Err(CoreError::SnapshotMismatch(format!(
                "snapshot has {} ψ matrices, schema derives {} targets",
                psi.len(),
                targets.len()
            )));
        }
        if let Some(m) = psi
            .iter()
            .find(|m| m.rows() != config.dim || m.cols() != config.dim)
        {
            return Err(CoreError::SnapshotMismatch(format!(
                "ψ shape {}×{} does not match dim {}",
                m.rows(),
                m.cols(),
                config.dim
            )));
        }
        if let Some((f, v)) = phi.iter().find(|(_, v)| v.len() != config.dim) {
            return Err(CoreError::SnapshotMismatch(format!(
                "ϕ({f}) has {} components, config dim is {}",
                v.len(),
                config.dim
            )));
        }
        let plan = SchemePlan::from_targets(rel, &targets);
        let dist_cache = DistCache::new(std::sync::Arc::new(plan.persist_prefixes()));
        Ok(ForwardEmbedding {
            rel,
            dim: config.dim,
            targets,
            plan,
            phi,
            psi,
            kernels,
            config,
            runtime: Runtime::from_env(),
            epoch_losses,
            dist_cache,
        })
    }

    /// Move the cache out for a solve that also borrows `self` shared
    /// (see `extend_with`); pair with [`Self::put_back_dist_cache`].
    pub(crate) fn take_dist_cache(&mut self) -> DistCache {
        let placeholder = self.dist_cache.empty_like();
        std::mem::replace(&mut self.dist_cache, placeholder)
    }

    /// Return the (possibly warmed) cache taken by
    /// [`Self::take_dist_cache`].
    pub(crate) fn put_back_dist_cache(&mut self, cache: DistCache) {
        self.dist_cache = cache;
    }
}

/// One epoch of [`ForwardEmbedding::sgd_epoch`] as a kernel task, at
/// compile-time dimension `DIM` (`0`: the model's run-time dimension).
struct SgdEpoch<'a, const DIM: usize> {
    model: &'a mut ForwardEmbedding,
    samples: &'a [TrainingSample],
    lr: f64,
}

impl<const DIM: usize> KernelTask for SgdEpoch<'_, DIM> {
    type Output = f64;
    #[inline(always)]
    fn run<K: Kernels>(self) -> f64 {
        self.model.sgd_epoch_with::<K, DIM>(self.samples, self.lr)
    }
}

/// One gradient chunk of [`ForwardEmbedding::chunk_gradients`] as a
/// kernel task.
struct ChunkGradientsTask<'a> {
    model: &'a ForwardEmbedding,
    chunk: &'a [TrainingSample],
}

impl KernelTask for ChunkGradientsTask<'_> {
    type Output = ChunkGradients;
    #[inline(always)]
    fn run<K: Kernels>(self) -> ChunkGradients {
        self.model.chunk_gradients_with::<K>(self.chunk)
    }
}

/// Per-sample buffers of the SGD step, allocated once per epoch (or
/// chunk): `Ψϕ(f′)`, `Ψϕ(f)` and one gradient row.
struct StepScratch {
    psi_fp: Vec<f64>,
    psi_f: Vec<f64>,
    grad: Vec<f64>,
}

impl StepScratch {
    fn new(dim: usize) -> Self {
        StepScratch {
            psi_fp: vec![0.0; dim],
            psi_f: vec![0.0; dim],
            grad: vec![0.0; dim],
        }
    }
}

/// Forward pass of one sample: writes `Ψϕ(f′)` and `Ψϕ(f)` into
/// `psi_fp[..d]` and `psi_f[..d]` (`d = ϕ(f).len()`), and returns the
/// prediction error `e = ϕ(f)ᵀ Ψ ϕ(f′) − y`. Both SGD paths evaluate
/// samples through here.
///
/// The dots run over run-time-length slices on purpose: at a compile-time
/// length LLVM unrolls the fixed-lane loop of `dot` completely and leaves
/// it scalar, while the loop form vectorises.
#[inline(always)]
fn sample_error<K: Kernels>(
    psi: &Matrix,
    phi_f: &[f64],
    phi_fp: &[f64],
    y: f64,
    psi_fp: &mut [f64],
    psi_f: &mut [f64],
) -> f64 {
    let d = phi_f.len();
    for r in 0..d {
        let row = psi.row(r);
        psi_fp[r] = K::dot(row, phi_fp);
        psi_f[r] = K::dot(row, phi_f);
    }
    K::dot(phi_f, &psi_fp[..d]) - y
}

/// Adds row `r` of one sample's symmetrised `ψ` gradient,
/// `e·½(ϕ(f)[r]·ϕ(f′) + ϕ(f′)[r]·ϕ(f))`, to `acc`, one rank-one term at a
/// time. A term whose row coefficient `ϕ[r]` is exactly zero is skipped
/// (the operation sequence the accumulating path has always had; for
/// finite values the skip changes no bits). Both SGD paths build their
/// `ψ` gradients through here.
#[inline(always)]
fn add_psi_grad_row<K: Kernels>(
    half_e: f64,
    phi_f: &[f64],
    phi_fp: &[f64],
    r: usize,
    acc: &mut [f64],
) {
    if phi_f[r] != 0.0 {
        K::axpy(half_e * phi_f[r], phi_fp, acc);
    }
    if phi_fp[r] != 0.0 {
        K::axpy(half_e * phi_fp[r], phi_f, acc);
    }
}

/// Chunk-local gradient accumulators (see [`ForwardEmbedding::chunk_gradients_with`]).
struct ChunkGradients {
    loss: f64,
    phi_grad: BTreeMap<FactId, Vec<f64>>,
    psi_grad: BTreeMap<usize, Matrix>,
}

/// Ordered merge of per-chunk accumulators: every fact/target slot receives
/// one contribution per chunk, in ascending chunk order — float sums are
/// fixed regardless of which shard computed which chunk.
///
/// # Panics
///
/// If two chunks disagree on a target's `ψ` gradient shape — they were
/// produced from the same model snapshot, so shapes agree by construction.
fn merge_chunk_gradients(partials: Vec<ChunkGradients>) -> ChunkGradients {
    let mut merged = ChunkGradients {
        loss: 0.0,
        phi_grad: BTreeMap::new(),
        psi_grad: BTreeMap::new(),
    };
    for part in partials {
        merged.loss += part.loss;
        for (f, grad) in part.phi_grad {
            match merged.phi_grad.entry(f) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    vector::axpy(1.0, &grad, e.get_mut());
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(grad);
                }
            }
        }
        for (t, grad) in part.psi_grad {
            match merged.psi_grad.entry(t) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut()
                        .add_scaled(1.0, &grad)
                        .expect("chunk gradients share ψ shape");
                }
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(grad);
                }
            }
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldb::movies::movies_database_labeled;
    use stembed_runtime::kernel::KernelPath;

    fn cfg() -> ForwardConfig {
        ForwardConfig {
            dim: 8,
            epochs: 6,
            nsamples: 40,
            ..ForwardConfig::small()
        }
    }

    #[test]
    fn trains_on_actors_relation() {
        let (db, _) = movies_database_labeled();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let emb = ForwardEmbedding::train(&db, actors, &cfg(), 42).unwrap();
        assert_eq!(emb.len(), 5);
        assert_eq!(emb.dim(), 8);
        for f in db.fact_ids(actors) {
            let v = emb.embedding(f).unwrap();
            assert_eq!(v.len(), 8);
            assert!(v.iter().all(|x| x.is_finite()));
        }
    }

    #[test]
    fn loss_decreases() {
        let (db, _) = movies_database_labeled();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let emb = ForwardEmbedding::train(&db, actors, &cfg(), 7).unwrap();
        let losses = emb.epoch_losses();
        assert!(losses.len() >= 2);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "SGD must reduce the loss: {losses:?}"
        );
    }

    #[test]
    fn psi_stays_symmetric() {
        let (db, _) = movies_database_labeled();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let emb = ForwardEmbedding::train(&db, actors, &cfg(), 3).unwrap();
        for t in 0..emb.targets().len() {
            assert!(
                emb.psi(t).is_symmetric(1e-9),
                "ψ({t}) lost symmetry during training"
            );
        }
    }

    #[test]
    fn predictions_track_kernel_similarity() {
        // After training, predictions for the trivial-scheme worth target
        // should be closer to the Gaussian kernel values than at random:
        // just verify predictions are finite and the trivial name target
        // (equality kernel between distinct names = 0) predicts near 0 on
        // average.
        let (db, ids) = movies_database_labeled();
        let schema = db.schema();
        let actors = schema.relation_id("ACTORS").unwrap();
        let emb = ForwardEmbedding::train(&db, actors, &cfg(), 11).unwrap();
        let name_attr = schema.relation(actors).attr_index("name").unwrap();
        let t_name = emb
            .targets()
            .iter()
            .position(|t| t.scheme.is_empty() && t.attr == name_attr)
            .unwrap();
        let mut preds = Vec::new();
        let actor_ids = db.fact_ids(actors);
        for &a in &actor_ids {
            for &b in &actor_ids {
                if a != b {
                    preds.push(emb.predict(t_name, a, b).unwrap());
                }
            }
        }
        let mean = preds.iter().sum::<f64>() / preds.len() as f64;
        assert!(
            mean.abs() < 0.35,
            "distinct names have κ=0; mean prediction {mean} should be near 0"
        );
        let _ = ids;
    }

    #[test]
    fn deterministic_given_seed() {
        let (db, ids) = movies_database_labeled();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let e1 = ForwardEmbedding::train(&db, actors, &cfg(), 5).unwrap();
        let e2 = ForwardEmbedding::train(&db, actors, &cfg(), 5).unwrap();
        assert_eq!(e1.embedding(ids["a1"]), e2.embedding(ids["a1"]));
        assert_eq!(e1.embedding(ids["a5"]), e2.embedding(ids["a5"]));
    }

    #[test]
    fn shard_count_does_not_change_the_embedding() {
        let (db, _) = movies_database_labeled();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let config = cfg();
        let base =
            ForwardEmbedding::train_with_runtime(&db, actors, &config, 13, Runtime::single())
                .unwrap();
        for shards in [2usize, 8] {
            let emb = ForwardEmbedding::train_with_runtime(
                &db,
                actors,
                &config,
                13,
                Runtime::new(shards),
            )
            .unwrap();
            for f in db.fact_ids(actors) {
                assert_eq!(
                    emb.embedding(f).unwrap(),
                    base.embedding(f).unwrap(),
                    "shards={shards}: ϕ({f}) diverged"
                );
            }
        }
    }

    /// Every `ϕ`/`ψ` bit of a model, for exact comparison.
    fn state_bits(m: &ForwardEmbedding) -> (Vec<u64>, Vec<u64>) {
        let phi = m.phi.values().flatten().map(|x| x.to_bits()).collect();
        let psi = m
            .psi
            .iter()
            .flat_map(Matrix::as_slice)
            .map(|x| x.to_bits())
            .collect();
        (phi, psi)
    }

    /// An untrained movies model of dimension `dim` whose `ϕ`/`ψ` hold
    /// random values, exact zeros of both signs, and all-zero `ψ` rows
    /// (so `Ψϕ` has `+0.0` entries and `e·Ψϕ` signed-zero products).
    fn scrambled_model(dim: usize, seed: u64) -> ForwardEmbedding {
        let (db, _) = movies_database_labeled();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let config = ForwardConfig {
            dim,
            epochs: 0,
            ..cfg()
        };
        let mut m =
            ForwardEmbedding::train_with_runtime(&db, actors, &config, seed, Runtime::single())
                .unwrap();
        let mut rng = DetRng::seed_from_u64(seed);
        let draw = |rng: &mut DetRng| match rng.random_range(0..10usize) {
            0 => 0.0,
            1 => -0.0,
            _ => rng.random_range(-1.0..1.0),
        };
        for v in m.phi.values_mut() {
            v.iter_mut().for_each(|x| *x = draw(&mut rng));
        }
        for psi in &mut m.psi {
            for r in 0..dim {
                let zero_row = rng.random_range(0..5usize) == 0;
                for x in psi.row_mut(r) {
                    *x = if zero_row { 0.0 } else { draw(&mut rng) };
                }
            }
        }
        m
    }

    type EpochFn = Box<dyn Fn(&mut ForwardEmbedding, &[TrainingSample], f64) -> f64>;

    /// One epoch on kernel path `path` at compile-time dimension `DIM`
    /// (`0`: run time), through the kernel entry point.
    fn epoch_on<const DIM: usize>(
        path: KernelPath,
    ) -> impl Fn(&mut ForwardEmbedding, &[TrainingSample], f64) -> f64 {
        move |model, samples, lr| kernel::run_on(path, SgdEpoch::<DIM> { model, samples, lr })
    }

    /// The in-place single-sample step, on every kernel path and
    /// dimension instance, must leave exactly the bits (and return exactly
    /// the loss) of `chunk_gradients` + apply on a one-sample batch.
    #[test]
    fn single_sample_step_matches_chunk_path_bitwise() {
        for dim in [32usize, 7, 33] {
            let mut paths: Vec<(String, EpochFn)> = Vec::new();
            for &path in kernel::available_paths() {
                paths.push((format!("{path:?}"), Box::new(epoch_on::<0>(path))));
                if dim == 32 {
                    paths.push((format!("{path:?}/32"), Box::new(epoch_on::<32>(path))));
                }
            }
            let model = scrambled_model(dim, 40 + dim as u64);
            let facts: Vec<FactId> = model.embedded_facts().collect();
            let mut rng = DetRng::seed_from_u64(dim as u64);
            let samples: Vec<TrainingSample> = (0..60)
                .map(|_| {
                    let i = rng.random_range(0..facts.len());
                    let j = (i + rng.random_range(1..facts.len())) % facts.len();
                    let (f, f_prime) = (facts[i], facts[j]);
                    TrainingSample {
                        f,
                        f_prime,
                        target: rng.random_range(0..model.psi.len()),
                        y: rng.random_range(-1.0..1.0),
                    }
                })
                .collect();
            for (name, epoch) in paths {
                let mut reference = model.clone();
                let mut fast = model.clone();
                for (i, s) in samples.iter().enumerate() {
                    let lr = 0.05 + 0.01 * i as f64;
                    let want = reference.minibatch_step(std::slice::from_ref(s), lr);
                    let got = epoch(&mut fast, std::slice::from_ref(s), lr);
                    assert_eq!(got.to_bits(), want.to_bits(), "{name} dim {dim}: loss {i}");
                    assert!(
                        state_bits(&fast) == state_bits(&reference),
                        "{name} dim {dim}: ϕ/ψ diverged at sample {i}"
                    );
                }
            }
        }
    }

    /// Whole `batch_size: 1` training runs take the in-place step; on
    /// every kernel path they must equal, bit for bit, the same runs
    /// through the accumulating batch path.
    #[test]
    fn single_sample_training_matches_chunk_path_on_movies() {
        let (db, _) = movies_database_labeled();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        for dim in [32usize, 8] {
            let config = ForwardConfig {
                dim,
                epochs: 2,
                batch_size: 1,
                ..cfg()
            };
            let train = |epoch: EpochFn| {
                ForwardEmbedding::train_with_epoch(
                    &db,
                    actors,
                    &config,
                    21,
                    Runtime::single(),
                    epoch,
                )
                .unwrap()
            };
            let reference = train(Box::new(
                |m: &mut ForwardEmbedding, samples: &[TrainingSample], lr| {
                    let mut loss = 0.0;
                    for s in samples {
                        loss += m.minibatch_step(std::slice::from_ref(s), lr);
                    }
                    loss
                },
            ));
            let bits = |m: &ForwardEmbedding| -> Vec<u64> {
                m.epoch_losses().iter().map(|x| x.to_bits()).collect()
            };
            for &path in kernel::available_paths() {
                let fast = if dim == 32 {
                    train(Box::new(epoch_on::<32>(path)))
                } else {
                    train(Box::new(epoch_on::<0>(path)))
                };
                assert!(
                    state_bits(&fast) == state_bits(&reference),
                    "{path:?} dim {dim}"
                );
                assert_eq!(
                    bits(&fast),
                    bits(&reference),
                    "{path:?} dim {dim}: epoch losses"
                );
            }
        }
    }

    #[test]
    fn forget_removes_embedding() {
        let (db, ids) = movies_database_labeled();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let mut emb = ForwardEmbedding::train(&db, actors, &cfg(), 2).unwrap();
        assert!(emb.forget(ids["a1"]));
        assert!(emb.embedding(ids["a1"]).is_none());
        assert!(!emb.forget(ids["a1"]));
        assert_eq!(emb.len(), 4);
    }

    #[test]
    fn rejects_tiny_relations() {
        let (db, _) = movies_database_labeled();
        let studios = db.schema().relation_id("STUDIOS").unwrap();
        // STUDIOS has 3 facts — fine. Build a DB with one studio to hit the
        // error path.
        let mut small = reldb::Database::new(db.schema().clone());
        small
            .insert_into("STUDIOS", vec!["s01".into(), "X".into(), "LA".into()])
            .unwrap();
        let err = ForwardEmbedding::train(&small, studios, &cfg(), 0).unwrap_err();
        assert!(matches!(err, CoreError::NotEnoughFacts { .. }));
    }
}
