//! Byte encoding of embedding state for durability snapshots.
//!
//! `stembed-wal` snapshots carry embedding state as tagged opaque blobs —
//! the WAL layer knows nothing about `ϕ`/`ψ` matrices or SGNS arenas. This
//! module owns those blobs: [`encode_forward`]/[`decode_forward`] for a
//! [`ForwardEmbedding`]-backed [`ForwardEmbedder`] and
//! [`encode_node2vec`]/[`decode_node2vec`] for a [`Node2VecEmbedder`].
//!
//! Two properties matter more than compactness:
//!
//! * **Bit-exactness.** Every float travels as raw IEEE-754 bits
//!   (`f64::to_bits`/`f32::to_bits`), so `decode(encode(x))` reproduces
//!   `x`'s learned state to the last bit — the property that lets the
//!   crash-recovery suite compare a recovered run against an
//!   uninterrupted reference by byte equality.
//! * **Canonical output.** Unordered containers are serialised in a fixed
//!   sort order (the `ϕ` table by fact id), so encoding the same logical
//!   state twice yields the same bytes — "recover twice → identical
//!   snapshots" is checkable with `==` on `Vec<u8>`.
//!
//! Only genuinely learned state is stored. Everything that is a pure
//! function of `(schema, config)` — walk targets, sigmoid bins, the
//! negative-sampling table (derived from visit counts), graph lookup maps,
//! FK column classes — is **re-derived** on decode; the repo's determinism
//! contract (`PRECISION.md`) guarantees re-derivation is bit-identical to
//! the retained originals.

use crate::config::ForwardConfig;
use crate::embedder::{ExtendMode, ForwardEmbedder, Node2VecEmbedder};
use crate::kd::KdOptions;
use crate::kernel::{KernelAssignment, KernelKind};
use crate::train::ForwardEmbedding;
use dbgraph::{DbGraph, Graph, NodeId, NodeKind};
use linalg::Matrix;
use node2vec::{Node2VecConfig, Node2VecModel, SgnsModel};
use reldb::Database;
use std::collections::BTreeMap;
use stembed_runtime::Runtime;
use stembed_wal::codec::{
    read_fact_id, read_value, write_fact_id, write_value, ByteReader, ByteWriter,
};
use stembed_wal::WalError;

/// Blob tag under which the FoRWaRD embedder is stored in a
/// [`stembed_wal::Snapshot`]. Versioned with the blob layout: `.v2`
/// dropped the config's ridge field, so a snapshot holding only an older
/// `"forward"` blob fails recovery as corrupt instead of being misparsed.
pub const FORWARD_BLOB: &str = "forward.v2";
/// Blob tag under which the Node2Vec embedder is stored. Versioned with
/// the blob layout: `.v2` dropped the node-id relabelling section, so a
/// snapshot holding only an older `"node2vec"` blob fails recovery as
/// corrupt instead of being misparsed.
pub const NODE2VEC_BLOB: &str = "node2vec.v2";

// ---------------------------------------------------------------- FoRWaRD

/// Serialize a FoRWaRD embedder: relation, config, kernel kinds, the `ϕ`
/// table (sorted by fact id), the `ψ` matrices, and the loss history.
pub fn encode_forward(emb: &ForwardEmbedder) -> Vec<u8> {
    let inner = emb.inner();
    let mut w = ByteWriter::new();
    w.u32(inner.relation().0);
    write_forward_config(&mut w, inner.config());
    write_kernel_kinds(&mut w, &inner.kernels().kinds());
    // ϕ in canonical (rel, row) order. `embedded_facts` already yields
    // ascending `FactId`s; the explicit sort pins the byte layout to the
    // canonical key rather than to `Ord`'s derive order.
    let mut facts: Vec<_> = inner.embedded_facts().collect();
    facts.sort_unstable_by_key(|f| (f.rel.0, f.row));
    w.len_prefix(facts.len());
    for f in facts {
        write_fact_id(&mut w, f);
        // PANICS: never — `f` was just listed by `embedded_facts()`.
        for &x in inner.embedding(f).expect("listed fact is embedded") {
            w.f64_bits(x);
        }
    }
    let targets = inner.targets().len();
    w.len_prefix(targets);
    for t in 0..targets {
        for &x in inner.psi(t).as_slice() {
            w.f64_bits(x);
        }
    }
    w.len_prefix(inner.epoch_losses().len());
    for &l in inner.epoch_losses() {
        w.f64_bits(l);
    }
    w.into_bytes()
}

/// Rebuild a FoRWaRD embedder from [`encode_forward`] bytes, against the
/// (already recovered) database the embedding belongs to.
pub fn decode_forward(db: &Database, bytes: &[u8]) -> Result<ForwardEmbedder, WalError> {
    let mut r = ByteReader::new(bytes);
    let rel = reldb::RelationId(r.u32()?);
    let config = read_forward_config(&mut r)?;
    let kernels = KernelAssignment::from_kinds(&read_kernel_kinds(&mut r)?);
    let nfacts = r.count_prefix(8 + 8 * config.dim)?;
    let mut phi = BTreeMap::new();
    for _ in 0..nfacts {
        let f = read_fact_id(&mut r)?;
        let mut v = Vec::with_capacity(config.dim);
        for _ in 0..config.dim {
            v.push(r.f64_bits()?);
        }
        if phi.insert(f, v).is_some() {
            return Err(WalError::Corrupt(format!("duplicate ϕ entry for {f}")));
        }
    }
    let ntargets = r.count_prefix(8 * config.dim * config.dim)?;
    let mut psi = Vec::with_capacity(ntargets);
    for _ in 0..ntargets {
        let mut data = Vec::with_capacity(config.dim * config.dim);
        for _ in 0..config.dim * config.dim {
            data.push(r.f64_bits()?);
        }
        psi.push(Matrix::from_vec(config.dim, config.dim, data));
    }
    let nlosses = r.count_prefix(8)?;
    let mut epoch_losses = Vec::with_capacity(nlosses);
    for _ in 0..nlosses {
        epoch_losses.push(r.f64_bits()?);
    }
    if !r.is_exhausted() {
        return Err(WalError::Corrupt(format!(
            "{} trailing bytes after forward blob",
            r.remaining()
        )));
    }
    let inner =
        ForwardEmbedding::from_snapshot_parts(db, rel, config, kernels, phi, psi, epoch_losses)
            .map_err(|e| WalError::Corrupt(e.to_string()))?;
    Ok(ForwardEmbedder::from(inner))
}

fn write_forward_config(w: &mut ByteWriter, c: &ForwardConfig) {
    w.u64(c.dim as u64);
    w.u64(c.max_walk_len as u64);
    w.u64(c.nsamples as u64);
    w.u64(c.epochs as u64);
    w.u64(c.batch_size as u64);
    w.f64_bits(c.learning_rate);
    w.u64(c.nnew_samples as u64);
    w.f64_bits(c.init_bound);
    w.u64(c.kd.exact_limit as u64);
    w.u64(c.kd.mc_pairs as u64);
    w.u64(c.kd.max_attempts as u64);
}

fn read_forward_config(r: &mut ByteReader<'_>) -> Result<ForwardConfig, WalError> {
    Ok(ForwardConfig {
        dim: read_usize(r)?,
        max_walk_len: read_usize(r)?,
        nsamples: read_usize(r)?,
        epochs: read_usize(r)?,
        batch_size: read_usize(r)?,
        learning_rate: r.f64_bits()?,
        nnew_samples: read_usize(r)?,
        init_bound: r.f64_bits()?,
        kd: KdOptions {
            exact_limit: read_usize(r)?,
            mc_pairs: read_usize(r)?,
            max_attempts: read_usize(r)?,
        },
    })
}

fn write_kernel_kinds(w: &mut ByteWriter, kinds: &[Vec<KernelKind>]) {
    w.len_prefix(kinds.len());
    for per_attr in kinds {
        w.len_prefix(per_attr.len());
        for kind in per_attr {
            match kind {
                KernelKind::Equality => w.u8(0),
                KernelKind::Gaussian { variance } => {
                    w.u8(1);
                    w.f64_bits(*variance);
                }
                KernelKind::EditDistance { scale } => {
                    w.u8(2);
                    w.f64_bits(*scale);
                }
            }
        }
    }
}

fn read_kernel_kinds(r: &mut ByteReader<'_>) -> Result<Vec<Vec<KernelKind>>, WalError> {
    let rels = r.count_prefix(8)?;
    let mut kinds = Vec::with_capacity(rels);
    for _ in 0..rels {
        let attrs = r.count_prefix(1)?;
        let mut per_attr = Vec::with_capacity(attrs);
        for _ in 0..attrs {
            per_attr.push(match r.u8()? {
                0 => KernelKind::Equality,
                1 => KernelKind::Gaussian {
                    variance: r.f64_bits()?,
                },
                2 => KernelKind::EditDistance {
                    scale: r.f64_bits()?,
                },
                t => return Err(WalError::Corrupt(format!("bad kernel tag {t}"))),
            });
        }
        kinds.push(per_attr);
    }
    Ok(kinds)
}

// --------------------------------------------------------------- Node2Vec

/// Serialize a Node2Vec embedder: config, extend mode, the CSR graph with
/// its kind table, the SGNS parameter arenas, and the walk visit counts
/// (from which the negative-sampling table is re-derived byte-identically).
/// Node ids are insertion-order ids, so no id map is stored.
pub fn encode_node2vec(emb: &Node2VecEmbedder) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_n2v_config(&mut w, emb.model().config());
    w.u8(match emb.mode() {
        ExtendMode::OneByOne => 0,
        ExtendMode::AllAtOnce => 1,
    });
    let (offsets, neighbors, edge_count) = emb.graph().graph().csr_parts();
    w.len_prefix(offsets.len());
    for &o in offsets {
        w.u32(o);
    }
    w.len_prefix(neighbors.len());
    for &n in neighbors {
        w.u32(n.0);
    }
    w.u64(edge_count as u64);
    let kinds = emb.graph().kinds();
    w.len_prefix(kinds.len());
    for kind in kinds {
        match kind {
            NodeKind::Fact(f) => {
                w.u8(0);
                write_fact_id(&mut w, *f);
            }
            NodeKind::Value { class, value } => {
                w.u8(1);
                w.u32(*class);
                write_value(&mut w, value);
            }
        }
    }
    let sgns = emb.model().sgns();
    let (in_vecs, out_vecs, frozen) = sgns.raw_parts();
    w.u64(sgns.dim() as u64);
    w.len_prefix(frozen.len());
    for &x in in_vecs {
        w.f32_bits(x);
    }
    for &x in out_vecs {
        w.f32_bits(x);
    }
    for &f in frozen {
        w.u8(u8::from(f));
    }
    for &c in emb.model().counts() {
        w.u64(c as u64);
    }
    w.into_bytes()
}

/// Rebuild a Node2Vec embedder from [`encode_node2vec`] bytes, against the
/// (already recovered) database's schema.
pub fn decode_node2vec(db: &Database, bytes: &[u8]) -> Result<Node2VecEmbedder, WalError> {
    let mut r = ByteReader::new(bytes);
    let config = read_n2v_config(&mut r)?;
    let mode = match r.u8()? {
        0 => ExtendMode::OneByOne,
        1 => ExtendMode::AllAtOnce,
        t => return Err(WalError::Corrupt(format!("bad extend-mode tag {t}"))),
    };
    let noffsets = r.count_prefix(4)?;
    let mut offsets = Vec::with_capacity(noffsets);
    for _ in 0..noffsets {
        offsets.push(r.u32()?);
    }
    let nneighbors = r.count_prefix(4)?;
    let mut neighbors = Vec::with_capacity(nneighbors);
    for _ in 0..nneighbors {
        neighbors.push(NodeId(r.u32()?));
    }
    let edge_count = read_usize(&mut r)?;
    if offsets.is_empty()
        || offsets.first() != Some(&0)
        // PANICS: in bounds — `windows(2)` slices have length 2.
        || offsets.windows(2).any(|w| w[0] > w[1])
        // PANICS: never — `is_empty()` short-circuited above.
        || *offsets.last().expect("non-empty") as usize != neighbors.len()
        || neighbors.iter().any(|v| v.index() + 1 >= offsets.len())
    {
        return Err(WalError::Corrupt("inconsistent CSR arrays".into()));
    }
    let graph = Graph::from_csr_parts(offsets, neighbors, edge_count);
    let nkinds = r.count_prefix(1)?;
    if nkinds != graph.node_count() {
        return Err(WalError::Corrupt(format!(
            "kind table covers {nkinds} nodes, graph has {}",
            graph.node_count()
        )));
    }
    let mut kinds = Vec::with_capacity(nkinds);
    for _ in 0..nkinds {
        kinds.push(match r.u8()? {
            0 => NodeKind::Fact(read_fact_id(&mut r)?),
            1 => NodeKind::Value {
                class: r.u32()?,
                value: read_value(&mut r)?,
            },
            t => return Err(WalError::Corrupt(format!("bad node-kind tag {t}"))),
        });
    }
    let dbgraph = DbGraph::from_raw_parts(db.schema(), graph, kinds);

    let dim = read_usize(&mut r)?;
    let nodes = r.count_prefix(8 * dim + 9)?;
    if nodes != dbgraph.graph().node_count() {
        return Err(WalError::Corrupt(format!(
            "SGNS covers {nodes} nodes, graph has {}",
            dbgraph.graph().node_count()
        )));
    }
    let mut in_vecs = Vec::with_capacity(nodes * dim);
    for _ in 0..nodes * dim {
        in_vecs.push(r.f32_bits()?);
    }
    let mut out_vecs = Vec::with_capacity(nodes * dim);
    for _ in 0..nodes * dim {
        out_vecs.push(r.f32_bits()?);
    }
    let mut frozen = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        frozen.push(match r.u8()? {
            0 => false,
            1 => true,
            t => return Err(WalError::Corrupt(format!("bad frozen flag {t}"))),
        });
    }
    let sgns = SgnsModel::from_raw_parts(dim, in_vecs, out_vecs, frozen);
    let mut counts = Vec::with_capacity(nodes);
    for _ in 0..nodes {
        counts.push(read_usize(&mut r)?);
    }
    if !r.is_exhausted() {
        return Err(WalError::Corrupt(format!(
            "{} trailing bytes after node2vec blob",
            r.remaining()
        )));
    }
    let model = Node2VecModel::from_raw_parts(config, sgns, counts, Runtime::from_env());
    Ok(Node2VecEmbedder::from_parts(dbgraph, model, mode))
}

fn write_n2v_config(w: &mut ByteWriter, c: &Node2VecConfig) {
    w.u64(c.dim as u64);
    w.u64(c.walks_per_node as u64);
    w.u64(c.walk_length as u64);
    w.u64(c.window as u64);
    w.u64(c.negatives as u64);
    w.u64(c.epochs as u64);
    w.u64(c.dynamic_epochs as u64);
    w.u64(c.dynamic_token_budget as u64);
    w.f64_bits(c.learning_rate);
    w.f64_bits(c.p);
    w.f64_bits(c.q);
}

fn read_n2v_config(r: &mut ByteReader<'_>) -> Result<Node2VecConfig, WalError> {
    Ok(Node2VecConfig {
        dim: read_usize(r)?,
        walks_per_node: read_usize(r)?,
        walk_length: read_usize(r)?,
        window: read_usize(r)?,
        negatives: read_usize(r)?,
        epochs: read_usize(r)?,
        dynamic_epochs: read_usize(r)?,
        dynamic_token_budget: read_usize(r)?,
        learning_rate: r.f64_bits()?,
        p: r.f64_bits()?,
        q: r.f64_bits()?,
    })
}

fn read_usize(r: &mut ByteReader<'_>) -> Result<usize, WalError> {
    usize::try_from(r.u64()?).map_err(|_| WalError::Corrupt("count exceeds usize".into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedder::TupleEmbedder;
    use reldb::movies::movies_database_labeled;

    fn fwd_cfg() -> ForwardConfig {
        ForwardConfig {
            dim: 8,
            epochs: 3,
            nsamples: 20,
            ..ForwardConfig::small()
        }
    }

    #[test]
    fn forward_round_trip_is_bit_identical() {
        let (db, _) = movies_database_labeled();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let emb = ForwardEmbedder::train(&db, actors, &fwd_cfg(), 42).unwrap();
        let bytes = encode_forward(&emb);
        let back = decode_forward(&db, &bytes).unwrap();
        for f in db.fact_ids(actors) {
            assert_eq!(emb.embedding(f), back.embedding(f), "ϕ({f})");
        }
        for t in 0..emb.inner().targets().len() {
            assert_eq!(
                emb.inner().psi(t).as_slice(),
                back.inner().psi(t).as_slice()
            );
        }
        assert_eq!(emb.inner().epoch_losses(), back.inner().epoch_losses());
        // Canonical: re-encoding the decoded state reproduces the bytes.
        assert_eq!(encode_forward(&back), bytes);
    }

    #[test]
    fn node2vec_round_trip_is_bit_identical() {
        let (db, _) = movies_database_labeled();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let emb = Node2VecEmbedder::train(&db, &node2vec::Node2VecConfig::small(), 7);
        let bytes = encode_node2vec(&emb);
        let back = decode_node2vec(&db, &bytes).unwrap();
        for f in db.fact_ids(actors) {
            assert_eq!(emb.embedding(f), back.embedding(f), "vector of {f}");
        }
        // Kind table and visit counts survive.
        assert_eq!(emb.graph().kinds(), back.graph().kinds());
        assert_eq!(emb.model().counts(), back.model().counts());
        assert_eq!(encode_node2vec(&back), bytes);
    }

    #[test]
    fn recovered_embedders_extend_identically_to_retained_ones() {
        // The real recovery property: after a round trip, the *next*
        // dynamic extension produces bit-identical vectors.
        let (mut db, ids) = movies_database_labeled();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let journal = reldb::cascade_delete(&mut db, ids["a5"], false).unwrap();
        let mut n2v = Node2VecEmbedder::train(&db, &node2vec::Node2VecConfig::small(), 3);
        let mut fwd = ForwardEmbedder::train(&db, actors, &fwd_cfg(), 3).unwrap();
        let mut n2v_back = decode_node2vec(&db, &encode_node2vec(&n2v)).unwrap();
        let mut fwd_back = decode_forward(&db, &encode_forward(&fwd)).unwrap();

        let restored = reldb::restore_journal(&mut db, &journal).unwrap();
        n2v.extend(&db, &restored, 11).unwrap();
        fwd.extend(&db, &restored, 11).unwrap();
        n2v_back.extend(&db, &restored, 11).unwrap();
        fwd_back.extend(&db, &restored, 11).unwrap();
        for &f in &restored {
            assert_eq!(n2v.embedding(f), n2v_back.embedding(f));
            assert_eq!(fwd.embedding(f), fwd_back.embedding(f));
        }
    }

    #[test]
    fn truncated_and_tagged_garbage_decodes_to_errors_not_panics() {
        let (db, _) = movies_database_labeled();
        let actors = db.schema().relation_id("ACTORS").unwrap();
        let emb = ForwardEmbedder::train(&db, actors, &fwd_cfg(), 1).unwrap();
        let bytes = encode_forward(&emb);
        for cut in 0..bytes.len() {
            assert!(decode_forward(&db, &bytes[..cut]).is_err(), "cut {cut}");
        }
        let n2v = Node2VecEmbedder::train(&db, &node2vec::Node2VecConfig::small(), 1);
        let nbytes = encode_node2vec(&n2v);
        for cut in (0..nbytes.len()).step_by(7) {
            assert!(decode_node2vec(&db, &nbytes[..cut]).is_err(), "cut {cut}");
        }
    }
}
