//! Answer checking: fingerprints of every timed response, compared after
//! the run against the relational reference engine (`RdbEngine`) over the
//! same data.
//!
//! A fingerprint is the row count, an order-insensitive hash of the full
//! rows and, when the query has an `ORDER BY`, an order-sensitive hash of
//! the sort-key columns row by row. Rows that tie on every sort key may
//! come back in any order, so the full rows are compared as a multiset and
//! the order through the keys alone. Values are hashed in the text form
//! the server sends (`Display`, then the protocol escape), so library and
//! served answers share one fingerprint.

use fdb::relational::engine::{PlanMode, RdbEngine};
use fdb::relational::Relation;
use fdb_server::proto::escape_field;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

/// One read as the benchmark sends it: the SQL text, plus what the
/// check needs to know about it.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Read {
    /// Short label of the query shape, for the per-kind report.
    pub kind: &'static str,
    /// The query without `LIMIT`/`OFFSET`; the reference runs this once.
    pub base: String,
    /// `(offset, limit)` of a page of `base`'s ordered result. Paged
    /// queries order by every output column, so the page is well defined.
    pub page: Option<(usize, usize)>,
    /// Positions of the `ORDER BY` columns in the select list.
    pub order_cols: Vec<usize>,
}

impl Read {
    pub fn new(kind: &'static str, base: impl Into<String>, order_cols: &[usize]) -> Read {
        Read {
            kind,
            base: base.into(),
            page: None,
            order_cols: order_cols.to_vec(),
        }
    }

    pub fn page(mut self, offset: usize, limit: usize) -> Read {
        self.page = Some((offset, limit));
        self
    }

    /// The SQL text of the read.
    pub fn sql(&self) -> String {
        match self.page {
            Some((0, limit)) => format!("{} LIMIT {limit}", self.base),
            Some((offset, limit)) => format!("{} LIMIT {limit} OFFSET {offset}", self.base),
            None => self.base.clone(),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    rows: usize,
    columns: u64,
    set: u64,
    seq: u64,
}

fn hash_of(x: impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// Builds a fingerprint from rows given as escaped text fields.
#[derive(Debug)]
struct Fingerprinter<'a> {
    order_cols: &'a [usize],
    fp: Fingerprint,
}

impl<'a> Fingerprinter<'a> {
    fn new<S: AsRef<str>>(read: &'a Read, columns: &[S]) -> Self {
        let columns = hash_of(columns.iter().map(AsRef::as_ref).collect::<Vec<_>>());
        Fingerprinter {
            order_cols: &read.order_cols,
            fp: Fingerprint {
                rows: 0,
                columns,
                set: 0,
                seq: 0,
            },
        }
    }

    fn row<S: AsRef<str>>(&mut self, fields: &[S]) {
        let fields: Vec<&str> = fields.iter().map(AsRef::as_ref).collect();
        self.fp.rows += 1;
        self.fp.set = self.fp.set.wrapping_add(hash_of(&fields));
        if !self.order_cols.is_empty() {
            let keys: Vec<&str> = self.order_cols.iter().map(|&c| fields[c]).collect();
            self.fp.seq = hash_of((self.fp.seq, keys));
        }
    }

    fn finish(self) -> Fingerprint {
        self.fp
    }
}

fn render_row(rel: &Relation, i: usize) -> Vec<String> {
    rel.row(i)
        .iter()
        .map(|v| escape_field(&v.to_string()))
        .collect()
}

/// Fingerprint of rows `range` of a relation.
pub fn of_relation(
    read: &Read,
    columns: &[String],
    rel: &Relation,
    range: std::ops::Range<usize>,
) -> Fingerprint {
    let mut f = Fingerprinter::new(read, columns);
    for i in range {
        f.row(&render_row(rel, i));
    }
    f.finish()
}

/// Fingerprint of a protocol payload: a header line of column names, then
/// one TAB-separated line per row.
pub fn of_payload(read: &Read, payload: &[String]) -> Fingerprint {
    let header: Vec<&str> = payload
        .first()
        .map_or(Vec::new(), |h| h.split('\t').collect());
    let mut f = Fingerprinter::new(read, &header);
    for line in payload.iter().skip(1) {
        f.row(&line.split('\t').collect::<Vec<_>>());
    }
    f.finish()
}

/// Every timed response's fingerprint, keyed by the read that produced it.
#[derive(Debug, Default)]
pub struct Observed {
    seen: HashMap<Read, Vec<Fingerprint>>,
}

impl Observed {
    pub fn record(&mut self, read: &Read, fp: Fingerprint) {
        self.seen.entry(read.clone()).or_default().push(fp);
    }

    pub fn absorb(&mut self, other: Observed) {
        for (read, fps) in other.seen {
            self.seen.entry(read).or_default().extend(fps);
        }
    }

    /// Compares every recorded fingerprint with the reference engine's
    /// answer; returns the number of mismatches and a note on the first.
    pub fn check(&self, reference: &mut Reference) -> (u64, Option<String>) {
        let mut reads: Vec<&Read> = self.seen.keys().collect();
        reads.sort_by(|a, b| (&a.base, a.page).cmp(&(&b.base, b.page)));
        let mut wrong = 0;
        let mut first = None;
        for read in reads {
            let fps = &self.seen[read];
            match reference.expected(read) {
                Ok(want) => {
                    let bad = fps.iter().filter(|fp| **fp != want).count() as u64;
                    if bad > 0 && first.is_none() {
                        let got = fps.iter().find(|fp| **fp != want).expect("a mismatch");
                        first = Some(format!(
                            "`{}`: {} rows served, {} expected ({bad} of {} responses differ)",
                            read.sql(),
                            got.rows,
                            want.rows,
                            fps.len()
                        ));
                    }
                    wrong += bad;
                }
                Err(e) => {
                    wrong += fps.len() as u64;
                    first.get_or_insert(format!("reference failed on `{}`: {e}", read.sql()));
                }
            }
        }
        (wrong, first)
    }
}

/// The relational reference: runs each base query once on `RdbEngine`
/// and slices pages out of the full ordered answer.
pub struct Reference {
    rdb: RdbEngine,
    answers: HashMap<String, (Vec<String>, Relation)>,
}

impl Reference {
    pub fn new(rdb: RdbEngine) -> Reference {
        Reference {
            rdb,
            answers: HashMap::new(),
        }
    }

    fn answer(&mut self, base: &str) -> Result<&(Vec<String>, Relation), String> {
        if !self.answers.contains_key(base) {
            let schemas = self.rdb.schemas();
            let query = fdb::query::parse(base, &mut self.rdb.catalog, &schemas)
                .map_err(|e| e.to_string())?;
            let rel = self
                .rdb
                .run(&query.to_task(), PlanMode::Naive)
                .map_err(|e| e.to_string())?;
            let columns = rel
                .schema()
                .attrs()
                .iter()
                .map(|&a| self.rdb.catalog.name(a).to_string())
                .collect();
            self.answers.insert(base.to_string(), (columns, rel));
        }
        Ok(&self.answers[base])
    }

    pub fn expected(&mut self, read: &Read) -> Result<Fingerprint, String> {
        let (columns, rel) = self.answer(&read.base)?;
        let range = match read.page {
            Some((offset, limit)) => offset.min(rel.len())..(offset + limit).min(rel.len()),
            None => 0..rel.len(),
        };
        Ok(of_relation(read, columns, rel, range))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(read: &Read, rows: &[[&str; 2]]) -> Fingerprint {
        let mut f = Fingerprinter::new(read, &["a", "b"]);
        for r in rows {
            f.row(r);
        }
        f.finish()
    }

    #[test]
    fn ties_may_reorder_but_keys_may_not() {
        let read = Read::new("t", "SELECT a, b FROM T ORDER BY a", &[0]);
        let base = fp(&read, &[["1", "x"], ["1", "y"], ["2", "z"]]);
        assert_eq!(base, fp(&read, &[["1", "y"], ["1", "x"], ["2", "z"]]));
        assert_ne!(base, fp(&read, &[["2", "z"], ["1", "x"], ["1", "y"]]));
        assert_ne!(base, fp(&read, &[["1", "x"], ["1", "w"], ["2", "z"]]));
    }

    #[test]
    fn unordered_reads_compare_as_multisets() {
        let read = Read::new("t", "SELECT a, b FROM T", &[]);
        let base = fp(&read, &[["1", "x"], ["2", "y"]]);
        assert_eq!(base, fp(&read, &[["2", "y"], ["1", "x"]]));
        assert_ne!(base, fp(&read, &[["2", "y"]]));
    }

    #[test]
    fn a_page_at_offset_zero_omits_the_offset() {
        let read = Read::new("t", "SELECT a FROM T ORDER BY a", &[0]);
        assert_eq!(
            read.clone().page(0, 5).sql(),
            "SELECT a FROM T ORDER BY a LIMIT 5"
        );
        assert_eq!(
            read.page(7, 5).sql(),
            "SELECT a FROM T ORDER BY a LIMIT 5 OFFSET 7"
        );
    }
}
