//! Copy-on-write sharing of registered views.
//!
//! A view's arena and its count index are shared by every clone of the
//! view: reading never copies, the index is built once per snapshot and
//! reused by every session on that epoch, and the first mutation of a
//! shared arena copies it (counted in `ExecStats::input_copy_bytes`).

use fdb::core::engine::{FdbEngine, OrderStrategy};
use fdb::core::enumerate::{DirectCursor, EnumSpec};
use fdb::workload::orders::{generate, OrdersConfig};
use fdb::{Catalog, Db, FRep, FTree, Relation, Schema, Value};
use std::sync::Arc;

/// `R(a, b, c)` as a path trie: 24 rows over small domains.
fn small_view() -> (Catalog, FRep) {
    let mut catalog = Catalog::new();
    let attrs: Vec<_> = ["a", "b", "c"].iter().map(|n| catalog.intern(n)).collect();
    let rel = Relation::from_rows(
        Schema::new(attrs.clone()),
        (0..24).map(|i| vec![Value::Int(i % 4), Value::Int(i % 5), Value::Int(i)]),
    )
    .canonical();
    let rep = FRep::from_relation(&rel, FTree::path(&attrs)).unwrap();
    (catalog, rep)
}

fn small_db() -> Db {
    let (catalog, rep) = small_view();
    let mut engine = FdbEngine::new(catalog);
    engine.register_view("R", rep);
    Db::from_engine(engine)
}

/// Builds `rep`'s count index through a direct-access seek.
fn seek(rep: &FRep, i: u64) -> Vec<Value> {
    let spec = EnumSpec::all_preorder(rep.ftree());
    let mut cursor = DirectCursor::new(rep, &spec, i).unwrap();
    cursor.next_row().unwrap().to_vec()
}

const ROW_LOOKUP: &str = "SELECT a, b, c FROM R ORDER BY a, b, c LIMIT 1 OFFSET 5";

#[test]
fn index_built_through_an_earlier_clone_is_visible_on_the_original() {
    let (_, original) = small_view();
    let clone = original.clone();
    assert!(!original.has_count_index());
    assert_eq!(seek(&clone, 3), seek(&original, 3));
    assert!(
        original.has_count_index(),
        "index built on a clone stayed private to it"
    );
    assert!(Arc::ptr_eq(
        &original.count_index_handle().unwrap(),
        &clone.count_index_handle().unwrap()
    ));
}

#[test]
fn two_sessions_on_one_epoch_share_the_view_index() {
    let db = small_db();
    let mut first = db.session();
    let mut second = db.session();
    let out = first.query(ROW_LOOKUP).unwrap();
    assert_eq!(out.strategy, OrderStrategy::DirectAccess);
    assert_eq!(out.len(), 1);

    let built = first.engine_mut().view("R").unwrap().count_index_handle();
    let built = built.expect("the lookup left no index on the view");
    let other = second.engine_mut().view("R").unwrap().count_index_handle();
    let other = other.expect("the second session does not see the index");
    assert!(Arc::ptr_eq(&built, &other));

    // The second session's lookup reuses it instead of building anew.
    assert_eq!(second.query(ROW_LOOKUP).unwrap().rows, out.rows);
    let after = second.engine_mut().view("R").unwrap().count_index_handle();
    assert!(Arc::ptr_eq(&built, &after.unwrap()));
}

#[test]
fn a_write_starts_a_fresh_index_and_keeps_the_old_one() {
    let db = small_db();
    let mut old = db.session();
    old.query(ROW_LOOKUP).unwrap();
    let before = old.engine_mut().view("R").unwrap().count_index_handle();
    let before = before.expect("the lookup left no index on the view");

    let row = vec![Value::Int(9), Value::Int(9), Value::Int(99)];
    assert_eq!(db.insert("R", [row.clone()]).unwrap(), 1);

    let mut new = db.session();
    let fresh = new.engine_mut().view("R").unwrap();
    assert!(!fresh.has_count_index(), "a write carried an index over");
    assert!(fresh.contains(&row).unwrap());
    let kept = old.engine_mut().view("R").unwrap();
    assert!(!kept.contains(&row).unwrap());
    assert!(Arc::ptr_eq(&before, &kept.count_index_handle().unwrap()));
    assert_eq!(old.query(ROW_LOOKUP).unwrap().len(), 1);
}

#[test]
fn a_no_op_write_keeps_the_snapshot_and_its_index() {
    let db = small_db();
    let mut session = db.session();
    session.query(ROW_LOOKUP).unwrap();
    let view = session.engine_mut().view_arc("R").unwrap();
    let index = view.count_index_handle().unwrap();
    let epoch = db.epoch();
    let present = vec![Value::Int(0), Value::Int(0), Value::Int(0)];
    assert_eq!(db.insert("R", [present]).unwrap(), 0);
    assert_eq!(db.epoch(), epoch);
    let now = db.session().engine_mut().view_arc("R").unwrap();
    assert!(Arc::ptr_eq(&view, &now));
    assert!(Arc::ptr_eq(&index, &now.count_index_handle().unwrap()));
}

/// The `R2` path trie of the orders join (package, date, item, customer,
/// price), registered alone in a `Db`, plus an independently built
/// copy to compare against.
fn r2_db() -> (Db, FRep) {
    let mut catalog = Catalog::new();
    let ds = generate(
        &mut catalog,
        &OrdersConfig {
            scale: 1,
            customers: 20,
            seed: 11,
        },
    );
    let a = &ds.attrs;
    let tree = FTree::path(&[a.package, a.date, a.item, a.customer, a.price]);
    let join = ds.join();
    let mut engine = FdbEngine::new(catalog);
    engine.register_view("R2", FRep::from_relation(&join, tree.clone()).unwrap());
    (
        Db::from_engine(engine),
        FRep::from_relation(&join, tree).unwrap(),
    )
}

#[test]
fn input_copy_bytes_counts_only_the_copy_of_a_mutated_view() {
    let (db, r2) = r2_db();
    let mut session = db.session();

    // A `ROW`-style lookup in the stored order runs no operator: it
    // reads the registered arena in place.
    let row = session
        .query(
            "SELECT package, date, item, customer, price FROM R2 \
             ORDER BY package, date, item, customer, price LIMIT 1 OFFSET 17",
        )
        .unwrap();
    assert_eq!(row.len(), 1);
    assert_eq!(row.exec.operators, 0);
    assert_eq!(row.exec.input_copy_bytes, 0);
    assert!(
        row.explain.contains("input bytes copied 0"),
        "{}",
        row.explain
    );

    // A projected page removes leaves: its first operator takes
    // ownership of the shared arena, copying it once.
    let page = session
        .query(
            "SELECT package, date, item FROM R2 \
             ORDER BY package, date, item LIMIT 50 OFFSET 40",
        )
        .unwrap();
    assert!(page.exec.operators > 0);
    assert_eq!(page.exec.input_copy_bytes, r2.data_bytes());
    let copied = format!("input bytes copied {}", r2.data_bytes());
    assert!(page.explain.contains(&copied), "{}", page.explain);

    // The copy went to the query; the view is untouched.
    let view = session.engine_mut().view("R2").unwrap();
    assert!(view.same_data(&r2));
    assert_eq!(view.stats(), r2.stats());
}

#[test]
fn joining_two_views_counts_both_copies() {
    let (mut catalog, r) = small_view();
    let (c, d) = (catalog.lookup("c").unwrap(), catalog.intern("d"));
    let rel = Relation::from_rows(
        Schema::new(vec![c, d]),
        (0..6).map(|i| vec![Value::Int(i), Value::Int(i * 2)]),
    );
    let s = FRep::from_relation(&rel, FTree::path(&[c, d])).unwrap();
    let want = r.data_bytes() + s.data_bytes();
    let mut engine = FdbEngine::new(catalog);
    engine.register_view("R", r);
    engine.register_view("S", s);
    let out = Db::from_engine(engine)
        .session()
        .query("SELECT a, d FROM R, S")
        .unwrap();
    assert_eq!(out.exec.input_copy_bytes, want);
    assert_eq!(out.len(), 6);
}
