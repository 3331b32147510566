//! Delta maintenance: single-tuple `INSERT`/`DELETE` on an [`FRep`]
//! without rebuilding it.
//!
//! [`FRep::from_relation`] is *purely syntactic* recursive grouping: at
//! every f-tree node the rows are partitioned by that node's attribute
//! value (in a sorted map) and each group recurses into the children.
//! Consequently the factorisation of `rel ∪ {t}` differs from the
//! factorisation of `rel` only along the root-to-leaf **spine** that
//! `t`'s attribute values select — at each level either `t`'s value
//! already has an entry (recurse into its children) or a fresh entry is
//! spliced into the sorted run with a singleton chain for the rest of
//! the subtree. Deletion is the mirror image. The mutators below edit
//! exactly that spine:
//!
//! * every level of the spine appends one **new union record** whose
//!   untouched entries are carried over **by id** (`EntrySpec::from_rec`
//!   — same value index, same kid range, no value clones), reusing the
//!   staged pipeline executor's append-only in-place machinery;
//! * everything off the spine — the overwhelming majority of the arena —
//!   is shared untouched, and `Arena::note_shared` accounts the
//!   avoided copies just like the in-place f-plan operators do;
//! * the first edit of a wrapper whose arena is still shared copies it
//!   (`FRep::update_parts`, copy-on-write); later edits of the same
//!   wrapper run in place;
//! * the memoised count annotations are dropped on the mutated wrapper
//!   only; a snapshot the wrapper was cloned from keeps its arena and
//!   keeps serving its own index.
//!
//! Because the edit mimics `from_relation`'s grouping step by step, the
//! mutated representation is **structurally identical** (same unions,
//! same entry order, same shapes — [`FRep::same_data`]) to a full
//! rebuild from the updated relation; the differential suite
//! (`tests/update_differential.rs`) holds the engine to that bar
//! byte-for-byte.
//!
//! ## Set semantics and branching trees
//!
//! The f-rep denotes a *set* of tuples. `insert` of a represented tuple
//! and `delete` of an absent one are no-ops returning `false`.
//!
//! At a branching node the entry's child unions form a product, so a
//! tuple's sub-values cannot be removed independently: deletion
//! recurses into child `i` only when every *sibling* subtree is a
//! singleton (for the root list: into root `i` only when every other
//! root is a singleton), and drops an entry only when **all** its child
//! subtrees are singletons. Under the join dependencies the f-tree
//! asserts (the same precondition [`FRep::from_relation`] needs to be
//! exact, Prop. 1 of the paper), this reproduces the rebuilt grouping
//! exactly. When a deletion's result violates those dependencies the
//! f-tree cannot represent it; both the delta path and a rebuild then
//! over-approximate by the identical grouping, so the two stay
//! structurally equal even there. Path f-trees — tries, the shape the
//! engine builds for base relations — never hit this case.

use fdb_relational::Value;

use crate::error::{FdbError, Result};
use crate::frep::{Arena, EntrySpec, FRep, UnionId};
use crate::ftree::{FTree, NodeId, NodeLabel};

/// Per f-tree node (indexed by `NodeId::idx`): the position of the
/// node's attribute in an update row laid out per [`FRep::schema`].
fn col_map(rep: &FRep) -> Result<Vec<usize>> {
    let schema = rep.schema();
    let ftree = rep.ftree();
    let live = ftree.live_nodes();
    let size = live.iter().map(|n| n.idx() + 1).max().unwrap_or(0);
    let mut map = vec![usize::MAX; size];
    for n in live {
        match &ftree.node(n).label {
            NodeLabel::Atomic(attrs) if attrs.len() == 1 => {
                let pos = schema.position(attrs[0]).ok_or_else(|| {
                    FdbError::Unresolved(format!(
                        "f-tree attribute {} missing from the view schema",
                        attrs[0]
                    ))
                })?;
                map[n.idx()] = pos;
            }
            _ => {
                return Err(FdbError::InvalidOperator(
                    "insert/delete need single-attribute atomic nodes".into(),
                ))
            }
        }
    }
    Ok(map)
}

fn check_arity(rep: &FRep, row: &[Value]) -> Result<()> {
    let arity = rep.schema().arity();
    if row.len() != arity {
        return Err(FdbError::InvalidOperator(format!(
            "update row has {} values, view schema has {arity}",
            row.len()
        )));
    }
    Ok(())
}

impl FRep {
    /// True iff `row` (laid out per [`FRep::schema`]) is in the
    /// represented relation: one binary search per f-tree node down the
    /// spine — O(depth · log fanout), no enumeration.
    pub fn contains(&self, row: &[Value]) -> Result<bool> {
        check_arity(self, row)?;
        let cols = col_map(self)?;
        let arena = self.arena_ref();
        Ok(self
            .root_ids()
            .iter()
            .all(|&r| contains_union(arena, r, row, &cols)))
    }

    /// Inserts `row` (laid out per [`FRep::schema`]); returns `true` if
    /// it was new, `false` if already represented (set semantics).
    ///
    /// Cost is O(depth · (log fanout + spine width)): one rewritten
    /// union per level, every untouched fragment shared by id — plus one
    /// copy of the arena when this wrapper still shares it with a clone
    /// (copy-on-write; a no-op insert never copies). Any memoised count
    /// index on *this wrapper* is dropped; snapshots this wrapper was
    /// cloned from are untouched.
    pub fn insert(&mut self, row: &[Value]) -> Result<bool> {
        check_arity(self, row)?;
        if self.contains(row)? {
            // A no-op must not pay the copy-on-write of a shared arena.
            return Ok(false);
        }
        let cols = col_map(self)?;
        let (tree, arena, roots) = self.update_parts();
        let mut changed = false;
        for r in roots.iter_mut() {
            if let Some(new_id) = insert_union(arena, tree, *r, row, &cols) {
                *r = new_id;
                changed = true;
            }
        }
        debug_assert!(self.check_invariants().is_ok());
        Ok(changed)
    }

    /// Deletes `row` (laid out per [`FRep::schema`]); returns `true` if
    /// it was represented, `false` otherwise (set semantics, no-op on
    /// absent rows). Same spine-rewrite cost and copy-on-write
    /// discipline as [`FRep::insert`]; see the module docs for the
    /// branching-tree rule.
    pub fn delete(&mut self, row: &[Value]) -> Result<bool> {
        check_arity(self, row)?;
        if !self.contains(row)? {
            return Ok(false);
        }
        let cols = col_map(self)?;
        let (_tree, arena, roots) = self.update_parts();
        let sing: Vec<bool> = roots.iter().map(|&r| is_singleton(arena, r)).collect();
        let n = roots.len();
        for (i, root) in roots.iter_mut().enumerate() {
            if !(0..n).filter(|&j| j != i).all(|j| sing[j]) {
                continue;
            }
            match delete_union(arena, *root, row, &cols) {
                Deleted::Emptied => {
                    let node = arena.urec(*root).node;
                    *root = arena.empty_union(node);
                }
                Deleted::Rewritten(id) => *root = id,
                Deleted::Unchanged => {}
            }
        }
        debug_assert!(self.check_invariants().is_ok());
        Ok(true)
    }
}

fn contains_union(arena: &Arena, uid: UnionId, row: &[Value], cols: &[usize]) -> bool {
    let rec = arena.urec(uid);
    let Some(abs) = arena.find_entry(uid, &row[cols[rec.node.idx()]]) else {
        return false;
    };
    let e = arena.erec(abs);
    (0..e.kids_len).all(|k| contains_union(arena, arena.kid_at(e.kids_start + k), row, cols))
}

/// One union and every subtree below it represent exactly one tuple.
fn is_singleton(arena: &Arena, uid: UnionId) -> bool {
    let rec = arena.urec(uid);
    if rec.len != 1 {
        return false;
    }
    let e = arena.erec(rec.start);
    (0..e.kids_len).all(|k| is_singleton(arena, arena.kid_at(e.kids_start + k)))
}

/// Inserts `row`'s projection into the subtree under `uid`. Returns the
/// rewritten union's id, or `None` when the projection was already
/// fully represented (nothing changed).
fn insert_union(
    arena: &mut Arena,
    tree: &FTree,
    uid: UnionId,
    row: &[Value],
    cols: &[usize],
) -> Option<UnionId> {
    let rec = arena.urec(uid);
    let node = rec.node;
    let v = &row[cols[node.idx()]];
    match arena.search_entry(uid, v) {
        Ok(abs) => {
            // Value present: recurse into the children; rewrite this
            // union only if some child actually changed.
            let phys = abs - rec.start;
            let e = arena.erec(abs);
            let mut new_kids: Vec<UnionId> = (0..e.kids_len)
                .map(|k| arena.kid_at(e.kids_start + k))
                .collect();
            let mut any = false;
            for nk in new_kids.iter_mut() {
                if let Some(id) = insert_union(arena, tree, *nk, row, cols) {
                    *nk = id;
                    any = true;
                }
            }
            if !any {
                return None;
            }
            let mut specs = Vec::with_capacity(rec.len as usize);
            for i in 0..rec.len {
                if i == phys {
                    specs.push(arena.entry_shared_val(e.val, &new_kids));
                } else {
                    specs.push(EntrySpec::from_rec(arena.erec(rec.start + i)));
                }
            }
            arena.note_shared(rec.len.saturating_sub(1) as u64);
            Some(arena.push_union(node, &specs))
        }
        Err(ins) => {
            // Fresh value: splice a new entry (with a singleton chain
            // below it) into the sorted run. Handles the empty union of
            // an empty representation's root as the `ins == len == 0`
            // case.
            let fresh = fresh_entry(arena, tree, node, row, cols);
            let mut specs = Vec::with_capacity(rec.len as usize + 1);
            for i in 0..ins {
                specs.push(EntrySpec::from_rec(arena.erec(rec.start + i)));
            }
            specs.push(fresh);
            for i in ins..rec.len {
                specs.push(EntrySpec::from_rec(arena.erec(rec.start + i)));
            }
            arena.note_shared(rec.len as u64);
            Some(arena.push_union(node, &specs))
        }
    }
}

/// A brand-new entry for `node` carrying `row`'s projection as a chain
/// of singleton unions — the shape `from_relation` gives a one-row
/// group.
fn fresh_entry(
    arena: &mut Arena,
    tree: &FTree,
    node: NodeId,
    row: &[Value],
    cols: &[usize],
) -> EntrySpec {
    let children = tree.node(node).children.clone();
    let kids: Vec<UnionId> = children
        .iter()
        .map(|&c| {
            let spec = fresh_entry(arena, tree, c, row, cols);
            arena.push_union(c, &[spec])
        })
        .collect();
    arena.entry(node, row[cols[node.idx()]].clone(), &kids)
}

enum Deleted {
    /// The union lost its last entry (representable only at a root).
    Emptied,
    Rewritten(UnionId),
    Unchanged,
}

/// Deletes `row`'s projection from the subtree under `uid`, assuming it
/// is present (checked by [`FRep::contains`] up front — a partial
/// recursive edit on an absent tuple would corrupt the spine).
fn delete_union(arena: &mut Arena, uid: UnionId, row: &[Value], cols: &[usize]) -> Deleted {
    let rec = arena.urec(uid);
    let node = rec.node;
    let v = &row[cols[node.idx()]];
    let Some(abs) = arena.find_entry(uid, v) else {
        debug_assert!(
            false,
            "delete_union: entry vanished under a contains() check"
        );
        return Deleted::Unchanged;
    };
    let phys = abs - rec.start;
    let e = arena.erec(abs);
    let kids: Vec<UnionId> = (0..e.kids_len)
        .map(|k| arena.kid_at(e.kids_start + k))
        .collect();
    let sing: Vec<bool> = kids.iter().map(|&k| is_singleton(arena, k)).collect();
    if sing.iter().all(|&s| s) {
        // The entry's whole group is this one tuple: drop the entry.
        if rec.len == 1 {
            return Deleted::Emptied;
        }
        let mut specs = Vec::with_capacity(rec.len as usize - 1);
        for i in 0..rec.len {
            if i != phys {
                specs.push(EntrySpec::from_rec(arena.erec(rec.start + i)));
            }
        }
        arena.note_shared(rec.len as u64 - 1);
        return Deleted::Rewritten(arena.push_union(node, &specs));
    }
    // Group survives: recurse into exactly the children whose siblings
    // are all singletons (see module docs).
    let mut new_kids = kids.clone();
    let mut any = false;
    for k in 0..kids.len() {
        if !(0..kids.len()).filter(|&j| j != k).all(|j| sing[j]) {
            continue;
        }
        match delete_union(arena, kids[k], row, cols) {
            Deleted::Rewritten(id) => {
                new_kids[k] = id;
                any = true;
            }
            Deleted::Unchanged => {}
            Deleted::Emptied => {
                // A recursion target is the unique non-singleton child,
                // which cannot lose its last entry.
                debug_assert!(false, "delete_union: non-singleton child emptied");
            }
        }
    }
    if !any {
        return Deleted::Unchanged;
    }
    let mut specs = Vec::with_capacity(rec.len as usize);
    for i in 0..rec.len {
        if i == phys {
            specs.push(arena.entry_shared_val(e.val, &new_kids));
        } else {
            specs.push(EntrySpec::from_rec(arena.erec(rec.start + i)));
        }
    }
    arena.note_shared(rec.len.saturating_sub(1) as u64);
    Deleted::Rewritten(arena.push_union(node, &specs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdb_relational::{Catalog, Relation, Schema};

    fn v(i: i64) -> Value {
        Value::Int(i)
    }

    /// R(a, b, c) as a path trie a → b → c.
    fn path_fixture(rows: &[[i64; 3]]) -> (FRep, Relation) {
        let mut catalog = Catalog::new();
        let a = catalog.intern("a");
        let b = catalog.intern("b");
        let c = catalog.intern("c");
        let schema = Schema::new(vec![a, b, c]);
        let rel = Relation::from_rows(
            schema,
            rows.iter().map(|r| r.iter().copied().map(v).collect()),
        );
        let rep = FRep::from_relation(&rel, FTree::path(&[a, b, c])).unwrap();
        (rep, rel)
    }

    /// Branching tree a → {b, c}: groups must satisfy the join
    /// dependency a →→ b | c for exactness.
    fn branch_fixture(rows: &[[i64; 3]]) -> (FRep, Relation) {
        let mut catalog = Catalog::new();
        let a = catalog.intern("a");
        let b = catalog.intern("b");
        let c = catalog.intern("c");
        let schema = Schema::new(vec![a, b, c]);
        let rel = Relation::from_rows(
            schema,
            rows.iter().map(|r| r.iter().copied().map(v).collect()),
        );
        let mut tree = FTree::new();
        let na = tree.add_node(NodeLabel::Atomic(vec![a]), None);
        tree.add_node(NodeLabel::Atomic(vec![b]), Some(na));
        tree.add_node(NodeLabel::Atomic(vec![c]), Some(na));
        tree.add_dep([a, b, c]);
        let rep = FRep::from_relation(&rel, tree).unwrap();
        (rep, rel)
    }

    fn rebuild(rep: &FRep, rel: &Relation) -> FRep {
        FRep::from_relation(rel, rep.ftree().clone()).unwrap()
    }

    #[test]
    fn insert_matches_rebuild_on_path() {
        let (mut rep, rel) = path_fixture(&[[1, 10, 100], [1, 20, 200], [3, 10, 100]]);
        for row in [[2i64, 15, 150], [1, 10, 101], [0, 1, 2], [9, 9, 9]] {
            let row: Vec<Value> = row.iter().copied().map(v).collect();
            assert!(rep.insert(&row).unwrap());
            assert!(rep.contains(&row).unwrap());
        }
        let mut rel2 = rel.clone();
        for row in [[2i64, 15, 150], [1, 10, 101], [0, 1, 2], [9, 9, 9]] {
            rel2.push_row(&row.iter().copied().map(v).collect::<Vec<_>>());
        }
        let fresh = rebuild(&rep, &rel2);
        assert!(rep.same_data(&fresh), "delta insert diverged from rebuild");
        assert_eq!(rep.flatten(), fresh.flatten());
        rep.check_invariants().unwrap();
    }

    #[test]
    fn insert_of_present_row_is_noop() {
        let (mut rep, _) = path_fixture(&[[1, 10, 100], [2, 20, 200]]);
        let before = rep.flatten();
        let row: Vec<Value> = [1, 10, 100].iter().map(|&i| v(i)).collect();
        assert!(!rep.insert(&row).unwrap());
        assert_eq!(rep.flatten(), before);
    }

    #[test]
    fn insert_into_empty_rep() {
        let (seed, _) = path_fixture(&[[1, 1, 1]]);
        let mut rep = FRep::empty(seed.ftree().clone());
        assert!(rep.is_empty());
        let row: Vec<Value> = [5, 6, 7].iter().map(|&i| v(i)).collect();
        assert!(rep.insert(&row).unwrap());
        assert!(!rep.is_empty());
        assert_eq!(rep.tuple_count(), 1);
        assert!(rep.contains(&row).unwrap());
        rep.check_invariants().unwrap();
    }

    #[test]
    fn delete_matches_rebuild_on_path() {
        let rows = [[1i64, 10, 100], [1, 10, 101], [1, 20, 200], [3, 30, 300]];
        let (mut rep, rel) = path_fixture(&rows);
        // Delete one leaf of a shared prefix, then a whole chain.
        for (kill, keep) in [(1usize, 3usize), (3, 2)] {
            let row: Vec<Value> = rows[kill].iter().map(|&i| v(i)).collect();
            assert!(rep.delete(&row).unwrap());
            assert!(!rep.contains(&row).unwrap());
            assert_eq!(rep.tuple_count(), keep);
        }
        let rel2 = Relation::from_rows(
            rel.schema().clone(),
            [rows[0], rows[2]]
                .iter()
                .map(|r| r.iter().copied().map(v).collect::<Vec<_>>()),
        );
        let fresh = rebuild(&rep, &rel2);
        assert!(rep.same_data(&fresh), "delta delete diverged from rebuild");
        assert_eq!(rep.flatten(), fresh.flatten());
        rep.check_invariants().unwrap();
    }

    #[test]
    fn delete_of_absent_row_is_noop() {
        let (mut rep, _) = path_fixture(&[[1, 10, 100]]);
        let before = rep.flatten();
        // Absent at every level of the spine.
        for row in [[2i64, 10, 100], [1, 11, 100], [1, 10, 99]] {
            let row: Vec<Value> = row.iter().copied().map(v).collect();
            assert!(!rep.delete(&row).unwrap());
        }
        assert_eq!(rep.flatten(), before);
    }

    #[test]
    fn delete_to_empty_and_reinsert() {
        let (mut rep, _) = path_fixture(&[[1, 10, 100]]);
        let row: Vec<Value> = [1, 10, 100].iter().map(|&i| v(i)).collect();
        assert!(rep.delete(&row).unwrap());
        assert!(rep.is_empty());
        assert_eq!(rep.tuple_count(), 0);
        rep.check_invariants().unwrap();
        assert!(rep.insert(&row).unwrap());
        assert_eq!(rep.tuple_count(), 1);
        assert!(rep.contains(&row).unwrap());
    }

    #[test]
    fn branching_tree_insert_and_jd_safe_delete() {
        // Two groups, each a product: a=1 → {10,20}×{100}, a=2 → {30}×{300}.
        let (mut rep, rel) = branch_fixture(&[[1, 10, 100], [1, 20, 100], [2, 30, 300]]);
        // Insert keeps the group a product: add b=15 under a=1.
        let ins: Vec<Value> = [1, 15, 100].iter().map(|&i| v(i)).collect();
        assert!(rep.insert(&ins).unwrap());
        let mut rel2 = rel.clone();
        rel2.push_row(&ins);
        let fresh = rebuild(&rep, &rel2);
        assert!(rep.same_data(&fresh));
        // JD-safe delete: removing (2,30,300) kills a singleton group.
        let del: Vec<Value> = [2, 30, 300].iter().map(|&i| v(i)).collect();
        assert!(rep.delete(&del).unwrap());
        assert!(!rep.contains(&del).unwrap());
        let rel3 = Relation::from_rows(
            rel.schema().clone(),
            [[1i64, 10, 100], [1, 20, 100], [1, 15, 100]]
                .iter()
                .map(|r| r.iter().copied().map(v).collect::<Vec<_>>()),
        );
        let fresh = rebuild(&rep, &rel3);
        assert!(rep.same_data(&fresh));
        rep.check_invariants().unwrap();
    }

    #[test]
    fn branching_delete_matches_rebuild_even_off_product() {
        // 2×2 product under a=1; deleting one tuple leaves a set the
        // tree cannot represent — delta and rebuild must over-
        // approximate identically (module docs).
        let rows = [[1i64, 10, 100], [1, 10, 200], [1, 20, 100], [1, 20, 200]];
        let (mut rep, rel) = branch_fixture(&rows);
        let del: Vec<Value> = rows[0].iter().map(|&i| v(i)).collect();
        assert!(rep.delete(&del).unwrap());
        let rel2 = Relation::from_rows(
            rel.schema().clone(),
            rows[1..]
                .iter()
                .map(|r| r.iter().copied().map(v).collect::<Vec<_>>()),
        );
        let fresh = FRep::from_relation(&rel2, rep.ftree().clone()).unwrap();
        assert!(rep.same_data(&fresh));
    }

    #[test]
    fn cow_snapshot_unaffected_by_mutation() {
        let (rep, _) = path_fixture(&[[1, 10, 100], [2, 20, 200]]);
        // Memoise the snapshot's count index, then mutate a clone.
        let snapshot = std::sync::Arc::new(rep);
        assert_eq!(snapshot.tuple_count(), 2);
        let _ = snapshot.flatten();
        let mut next = FRep::clone(&snapshot);
        let row: Vec<Value> = [3, 30, 300].iter().map(|&i| v(i)).collect();
        assert!(next.insert(&row).unwrap());
        // Old snapshot still serves the pre-write state.
        assert_eq!(snapshot.tuple_count(), 2);
        assert!(!snapshot.contains(&row).unwrap());
        assert_eq!(next.tuple_count(), 3);
        assert!(next.contains(&row).unwrap());
    }

    #[test]
    fn mutation_invalidates_memoised_counts() {
        let (mut rep, _) = path_fixture(&[[1, 10, 100], [2, 20, 200]]);
        // Force the count index (seek path builds it).
        let spec = crate::enumerate::EnumSpec::all_preorder(rep.ftree());
        let _ = crate::enumerate::DirectCursor::new(&rep, &spec, 1).unwrap();
        assert!(rep.has_count_index());
        let row: Vec<Value> = [3, 30, 300].iter().map(|&i| v(i)).collect();
        rep.insert(&row).unwrap();
        assert!(
            !rep.has_count_index(),
            "stale count index survived a mutation"
        );
        assert_eq!(rep.tuple_count(), 3);
        // And the rebuilt index reflects the post-write state.
        let spec = crate::enumerate::EnumSpec::all_preorder(rep.ftree());
        let mut cur = crate::enumerate::DirectCursor::new(&rep, &spec, 2).unwrap();
        assert_eq!(cur.next_row().unwrap()[0], v(3));
    }

    #[test]
    fn spine_rewrite_shares_untouched_fragments() {
        let rows: Vec<[i64; 3]> = (0..100).map(|i| [i, i * 10, i * 100]).collect();
        let (mut rep, _) = path_fixture(&rows);
        let before = rep.stats();
        let row: Vec<Value> = [50, 505, 5050].iter().map(|&i| v(i)).collect();
        assert!(rep.insert(&row).unwrap());
        let after = rep.stats();
        // One new union record per spine level (plus the fresh chain),
        // not a rebuilt arena: the union table grows by O(depth).
        assert!(
            after.unions <= before.unions + 6,
            "union table grew by {} records for one insert",
            after.unions - before.unions
        );
        assert!(
            after.copies_avoided > before.copies_avoided,
            "no fragment sharing recorded"
        );
        // Only the spine's values are fresh: one new value at the
        // mutated level plus the fresh chain below it.
        assert!(after.values <= before.values + 3);
    }

    #[test]
    fn multi_root_forest_insert_delete() {
        // Forest {a} ⊥ {b}: the rep is the product of two root unions.
        let mut catalog = Catalog::new();
        let a = catalog.intern("a");
        let b = catalog.intern("b");
        let mut tree = FTree::new();
        tree.add_node(NodeLabel::Atomic(vec![a]), None);
        tree.add_node(NodeLabel::Atomic(vec![b]), None);
        tree.add_dep([a]);
        tree.add_dep([b]);
        let rel = Relation::from_rows(
            Schema::new(vec![a, b]),
            [[1i64, 10]]
                .iter()
                .map(|r| r.iter().map(|&i| v(i)).collect()),
        );
        let mut rep = FRep::from_relation(&rel, tree).unwrap();
        // Insert (1, 20): b-root gains an entry, a-root is unchanged.
        let row: Vec<Value> = vec![v(1), v(20)];
        assert!(rep.insert(&row).unwrap());
        assert_eq!(rep.tuple_count(), 2);
        // Delete (1, 20): the other root is a singleton, so the b-side
        // entry goes.
        assert!(rep.delete(&row).unwrap());
        assert_eq!(rep.tuple_count(), 1);
        assert!(rep.contains(&[v(1), v(10)]).unwrap());
        rep.check_invariants().unwrap();
    }

    #[test]
    fn random_churn_stays_byte_identical_to_rebuild() {
        let (mut rep, rel) = path_fixture(&[[1, 10, 100]]);
        let mut truth: Vec<Vec<Value>> = rel.rows().map(|r| r.to_vec()).collect();
        let mut seed = 0x5eedu64;
        let mut rng = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for step in 0..200 {
            let insert = truth.is_empty() || rng() % 3 != 0;
            if insert {
                let row: Vec<Value> = vec![
                    v((rng() % 7) as i64),
                    v((rng() % 7) as i64),
                    v((rng() % 7) as i64),
                ];
                let fresh = !truth.contains(&row);
                assert_eq!(rep.insert(&row).unwrap(), fresh, "step {step}");
                if fresh {
                    truth.push(row);
                }
            } else {
                let victim = truth.remove(rng() % truth.len());
                assert!(rep.delete(&victim).unwrap(), "step {step}");
            }
            assert_eq!(rep.tuple_count(), truth.len(), "step {step}");
        }
        let rel2 = Relation::from_rows(rel.schema().clone(), truth.iter().cloned());
        let fresh = rebuild(&rep, &rel2);
        assert!(rep.same_data(&fresh), "churn diverged from rebuild");
        assert_eq!(rep.flatten().canonical(), fresh.flatten().canonical());
        rep.check_invariants().unwrap();
    }
}
