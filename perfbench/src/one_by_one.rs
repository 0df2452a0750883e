//! `one_by_one`: the paper's §VI-E one-by-one protocol on genes. Set-up
//! holds out a third of the prediction tuples (cascade deletes) and trains
//! both embedders; the timed stream restores the held-out groups one at a
//! time, in reverse deletion order, extending both bare embedders (no WAL)
//! after each. One operation is one round: restore + both extends.
//!
//! Every pass replays the same stream from a clone of the set-up state,
//! so passes do identical work and their counters must agree.

use crate::layers::{self, Counters, EmbedderStats, OpTimes};
use crate::setup::{self, Frozen, Prepared, STREAM_EXTEND};
use crate::trace::Tracer;
use crate::{pass_traced, Outcome, RunConfig};
use reldb::restore_journal;
use std::time::Instant;
use stembed_core::TupleEmbedder;
use stembed_runtime::derive_seed;

/// One pass over the stream from a clone of `prep`: its round latencies
/// and counters; it also runs the output checks on the embedders it ends
/// with. Pass 0 scores the new-tuple accuracy.
fn pass(
    prep: &Prepared,
    cfg: &RunConfig,
    n: usize,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> (Vec<f64>, Counters) {
    let (mut db, mut fwd, mut n2v) = (prep.db.clone(), prep.fwd.clone(), prep.n2v.clone());
    let before = EmbedderStats::of(&fwd, &n2v);
    let extend_seed = derive_seed(cfg.seed, STREAM_EXTEND);
    let (mut tokens, mut facts) = (0usize, 0usize);
    let mut op_s = Vec::with_capacity(prep.held_out.len());
    tr.set_enabled(pass_traced(cfg, n));
    for (round, (_, journal)) in prep.held_out.iter().rev().enumerate() {
        tr.next_op();
        let seed = derive_seed(extend_seed, round as u64);
        let t = Instant::now();
        let result = tr.span("round", |tr| -> Result<(), String> {
            let restored = tr
                .span("reldb.restore", |_| restore_journal(&mut db, journal))
                .map_err(|e| format!("restore: {e}"))?;
            facts += restored.len();
            tr.span("core.extend", |_| fwd.extend(&db, &restored, seed))
                .map_err(|e| format!("forward extend: {e}"))?;
            tr.span("node2vec.extend", |_| n2v.extend(&db, &restored, seed))
                .map_err(|e| format!("node2vec extend: {e}"))?;
            tokens += n2v.model().last_extend_timing().corpus_tokens;
            Ok(())
        });
        op_s.push(t.elapsed().as_secs_f64());
        if out.op(result).is_none() {
            break;
        }
    }
    tr.set_enabled(false);

    Frozen::capture(&prep.db, &prep.fwd, &prep.n2v).verify(&fwd, &n2v, out);
    let new = setup::new_tuples(prep);
    setup::verify_new(&fwd, &n2v, &new, out);
    if n == 0 {
        let old = setup::old_tuples(prep);
        let fwd_acc = setup::new_tuple_accuracy(&prep.ds, &fwd, &old, &new, cfg.seed);
        let n2v_acc = setup::new_tuple_accuracy(&prep.ds, &n2v, &old, &new, cfg.seed);
        out.set("quality.fwd_accuracy", fwd_acc);
        out.set("quality.n2v_accuracy", n2v_acc);
    }
    let mut counters = before.since(&EmbedderStats::of(&fwd, &n2v));
    counters.push(("node2vec.corpus_tokens", tokens as f64));
    counters.push((
        "reldb.facts_per_group",
        facts as f64 / prep.held_out.len().max(1) as f64,
    ));
    (op_s, counters)
}

pub fn run(cfg: &RunConfig, tr: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let mut times = OpTimes::default();
    let mut first_counters: Option<Counters> = None;
    let mut timed = 0.0;
    let mut n = 0;
    setup::with_setups(cfg, tr, out, |prep, rep, tr, out| {
        if rep == 0 {
            layers::record(out, &layers::plan(&prep.fwd));
        }
        loop {
            let (op_s, counters) = pass(prep, cfg, n, tr, out);
            timed += op_s.iter().sum::<f64>();
            times.pass(pass_traced(cfg, n), op_s);
            match &first_counters {
                None => first_counters = Some(counters),
                Some(first) => out.check(*first == counters, || {
                    format!("pass {n} counters differ from pass 0")
                }),
            }
            n += 1;
            if timed >= setup::segment_end(cfg, rep) {
                return Ok(());
            }
        }
    })?;
    if let Some(c) = &first_counters {
        layers::record(out, c);
    }
    times.record(out);
    Ok(())
}
