//! Update churn: per-tuple delta maintenance vs full rebuild.
//!
//! The write path (DESIGN.md §9) localises a single-tuple INSERT/DELETE
//! to the spine touched by the tuple: one copy-on-write copy of the
//! shared arena at the first edit (flat `Vec` memcpy) plus an
//! `O(depth · log fanout)` spine rewrite sharing every untouched
//! fragment by id. The alternative a system without
//! delta maintenance faces is a **full rebuild**: re-factorise the flat
//! relation from scratch on every write.
//!
//! This bin churns `W` tuples through the **trie of the flat join**
//! (the path f-tree the engine builds for stored inputs — the shape on
//! which single-tuple deletes are always exact; on branching trees they
//! are JD-constrained, see `fdb-core/src/update.rs`). Each pass deletes
//! then re-inserts, so the data returns to its starting state, and
//! reports per-tuple seconds for
//!
//! * **FDB delta** — clone + single-tuple mutate per write (exactly what
//!   a one-op [`fdb::Db`] batch pays);
//! * **FDB delta-batch** — one clone amortised over the whole batch
//!   (what a multi-op batch pays per tuple);
//! * **rebuild** — mirror the write in the flat relation and
//!   re-run `FRep::from_relation`.
//!
//! The binary asserts its own acceptance criteria: the delta-maintained
//! rep stays **byte-identical** (`same_data`) to the rebuilt rep at
//! every step, the final state equals the initial one, the per-tuple
//! delta cost (batch-amortised — what the write path pays per op) is
//! **≥ 10× faster** than the rebuild at s=1, and even the
//! clone-per-op configuration beats the rebuild outright.
//!
//! `cargo run --release -p fdb-bench --bin update_churn -- --scale 1 --json out.json`

use fdb_bench::{median_secs, Args};
use fdb_core::{FRep, FTree};
use fdb_relational::{Catalog, Relation, Value};
use fdb_workload::orders::{generate, OrdersConfig};

/// Tuples deleted and re-inserted per timed pass.
const W: usize = 16;

/// Every `total/W`-th tuple of the view, in enumeration order — a
/// deterministic sample spread across the whole trie.
fn victims(rep: &FRep) -> Vec<Vec<Value>> {
    let total = rep.tuple_count();
    assert!(total >= W, "need at least {W} tuples, have {total}");
    let stride = total / W;
    let mut rows = Vec::with_capacity(W);
    let mut i = 0usize;
    rep.for_each_tuple(|row| {
        if i % stride == 0 && rows.len() < W {
            rows.push(row.to_vec());
        }
        i += 1;
    });
    rows
}

/// Applies one delete+reinsert churn pass with a COW clone per op —
/// the single-op write-batch cost — returning the final rep.
fn churn_delta_per_op(start: &FRep, rows: &[Vec<Value>]) -> FRep {
    let mut rep = start.clone();
    for row in rows {
        let mut next = rep.clone();
        assert!(next.delete(row).expect("delete plans"), "victim present");
        rep = next;
    }
    for row in rows {
        let mut next = rep.clone();
        assert!(next.insert(row).expect("insert plans"), "victim absent");
        rep = next;
    }
    rep
}

/// One clone amortised over the whole batch (multi-op batch cost).
fn churn_delta_batch(start: &FRep, rows: &[Vec<Value>]) -> FRep {
    let mut rep = start.clone();
    for row in rows {
        assert!(rep.delete(row).expect("delete plans"));
    }
    for row in rows {
        assert!(rep.insert(row).expect("insert plans"));
    }
    rep
}

/// Mirrors each write in the flat relation and rebuilds from scratch —
/// what a system without delta maintenance pays per write.
fn churn_rebuild(rep: &FRep, flat: &Relation, rows: &[Vec<Value>]) -> FRep {
    let tree = rep.ftree().clone();
    let mut mirror = flat.clone();
    let mut rebuilt = rep.clone();
    for row in rows {
        assert!(mirror.delete_row(row), "victim present in the mirror");
        rebuilt = FRep::from_relation(&mirror, tree.clone()).expect("rebuild");
    }
    for row in rows {
        assert!(mirror.insert(row), "victim absent from the mirror");
        rebuilt = FRep::from_relation(&mirror, tree.clone()).expect("rebuild");
    }
    rebuilt
}

fn main() {
    let args = Args::parse(1, 1);
    let scale = args.scale;
    let mut emit = args.emitter();
    println!("# Update churn at scale {scale}: {W} deletes + {W} re-inserts per pass");

    let mut catalog = Catalog::new();
    let ds = generate(
        &mut catalog,
        &OrdersConfig {
            customers: args.customers,
            ..OrdersConfig::at_scale(scale)
        },
    );
    // The trie of the flat join Orders ⋈ Packages ⋈ Items: a path
    // f-tree over the join's attributes in schema order.
    let joined = ds.join();
    let rep = FRep::from_relation(&joined, FTree::path(joined.schema().attrs()))
        .expect("flat join factorises over its trie");
    // The flat relation in the view's schema order, deduplicated —
    // the rebuild baseline's input.
    let flat = {
        let mut rows: Vec<Vec<Value>> = Vec::with_capacity(rep.tuple_count());
        rep.for_each_tuple(|row| rows.push(row.to_vec()));
        Relation::from_rows(rep.schema(), rows)
    };
    let rows = victims(&rep);
    let ops = 2 * W;
    let ibytes = rep.stats().bytes;
    println!(
        "# view: {} tuples, {} singletons, {} arena bytes",
        rep.tuple_count(),
        rep.stats().singletons,
        ibytes
    );

    // Correctness first, untimed: after every single write the delta-
    // maintained rep is byte-identical to the from-scratch rebuild.
    {
        let tree = rep.ftree().clone();
        let mut delta = rep.clone();
        let mut mirror = flat.clone();
        for (step, row) in rows.iter().chain(rows.iter()).enumerate() {
            if step < W {
                assert!(delta.delete(row).unwrap());
                assert!(mirror.delete_row(row));
            } else {
                assert!(delta.insert(row).unwrap());
                assert!(mirror.insert(row));
            }
            let rebuilt = FRep::from_relation(&mirror, tree.clone()).expect("rebuild");
            assert!(
                delta.same_data(&rebuilt),
                "step {step}: delta diverged from rebuild"
            );
        }
        assert!(
            delta.same_data(&rep),
            "delete+reinsert churn must return to the initial state"
        );
    }
    println!("# acceptance: delta byte-identical to rebuild at every one of {ops} steps");

    let (final_delta, t_delta) = median_secs(args.repeats, || churn_delta_per_op(&rep, &rows));
    let (final_batch, t_batch) = median_secs(args.repeats, || churn_delta_batch(&rep, &rows));
    let (final_rebuild, t_rebuild) =
        median_secs(args.repeats, || churn_rebuild(&rep, &flat, &rows));
    assert!(final_delta.same_data(&rep) && final_batch.same_data(&rep));
    assert!(final_rebuild.same_data(&rep));

    let per = |t: f64| t / ops as f64;
    emit.row(
        "update_churn",
        scale,
        "churn-per-op",
        "FDB delta",
        per(t_delta),
        &format!("ibytes={ibytes} ops={ops} tuples={}", rep.tuple_count()),
    );
    emit.row(
        "update_churn",
        scale,
        "churn-per-op",
        "FDB delta-batch",
        per(t_batch),
        &format!("ibytes={ibytes} ops={ops} tuples={}", rep.tuple_count()),
    );
    emit.row(
        "update_churn",
        scale,
        "churn-per-op",
        "rebuild",
        per(t_rebuild),
        &format!("ibytes={ibytes} ops={ops} tuples={}", rep.tuple_count()),
    );

    // Acceptance: ≥10× per-tuple win for delta maintenance at s=1. The
    // per-tuple cost of the write path is the batch-amortised one (a
    // [`fdb::Db`] batch clones the touched input once, then applies
    // every op to the clone); the single-op row additionally pays the
    // whole COW clone per tuple and must still beat the rebuild.
    let ratio = t_rebuild / t_batch.max(f64::EPSILON);
    assert!(
        ratio >= 10.0,
        "delta maintenance must beat the full rebuild ≥10× per tuple \
         (got {ratio:.1}×: {:.3e}s vs {:.3e}s per op)",
        per(t_batch),
        per(t_rebuild)
    );
    let solo = t_rebuild / t_delta.max(f64::EPSILON);
    assert!(
        solo >= 1.5,
        "even clone-per-op delta must beat the rebuild (got {solo:.2}×)"
    );
    println!(
        "# acceptance: delta {:.3e}s/op ({ratio:.0}× faster than rebuild's \
         {:.3e}s/op); clone-per-op {:.3e}s/op ({solo:.1}×)",
        per(t_batch),
        per(t_rebuild),
        per(t_delta)
    );
    emit.finish();
}
