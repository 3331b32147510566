//! The `serve-rw` workload: an in-process `fdb-server` driven over
//! loopback by two connections in a closed loop.
//!
//! Connection 0 only reads. Connection 1 interleaves reads with
//! `DELETE`/`INSERT` pairs on sampled `R2` tuples and keeps a flat mirror
//! of `R2`, against which it checks every write's counts. `R1` and the
//! flat relations are never written, so every read of them is checked
//! against the reference. A read of `R2` is checked when no write was in
//! flight or half done while it ran (a quiescent point: `R2` then equals
//! the mirror); after the run a checkpoint reads all of `R2` back.
//!
//! The traced run records one span per protocol round trip. Afterwards it
//! replays the logged operations in process through the same public calls
//! a server worker makes, one span per call, so the per-layer times do
//! not compete with the server for the cores.

use crate::check::{self, Observed, Read};
use crate::data::{self, below, shuffle, Inputs, Zipf, CUSTOMERS};
use crate::library::{self, traced_query};
use crate::trace::Tracer;
use crate::{setup_reps, Args, Run, Window};
use fdb::core::engine::{FdbEngine, RunOptions};
use fdb::query::Statement;
use fdb::relational::{Relation, Value};
use fdb::{Db, FRep};
use fdb_server::{spawn, Client, ServerHandle, ServerOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Server workers: one per connection, as many as the machine's cores.
const WORKERS: usize = 2;
/// Page size of the `R2` pages.
const PAGE: usize = 50;

/// One protocol operation.
#[derive(Clone, Debug)]
enum Op {
    /// `QUERY <sql>`, or with `row`, `ROW <i> <base>`.
    Read {
        read: Read,
        row: bool,
        r2: bool,
    },
    Delete(Vec<Value>),
    Insert(Vec<Value>),
}

/// The request generator shared by both connections.
struct Gen {
    zipf: Zipf,
    r2_cols: Vec<String>,
    /// Rows of `R2`'s `(package, date, item)` projection and of `R2`.
    page_rows: usize,
    r2_rows: Vec<Vec<Value>>,
    /// Write progress of connection 1: `4k` when no write is in flight
    /// or half done, `4k + 1` while a `DELETE` is in flight, `4k + 2`
    /// between the `DELETE` and its `INSERT`, `4k + 3` while the
    /// `INSERT` is in flight. A read that starts and ends at the same
    /// `4k` saw `R2` equal to the mirror.
    write_phase: AtomicU64,
}

const R2_SCAN: &str =
    "SELECT package, date, item, customer, price FROM R2 ORDER BY package, date, item, customer, price";

impl Gen {
    fn customer(&self, rng: &mut StdRng) -> usize {
        self.zipf.sample(rng)
    }

    fn r1_customer(&self, rng: &mut StdRng) -> Op {
        let c = self.customer(rng);
        let sql =
            format!("SELECT date, SUM(price) AS spent FROM R1 WHERE customer = {c} GROUP BY date");
        read(Read::new("r1-customer", sql, &[]), false, false)
    }

    fn flat_customer(&self, rng: &mut StdRng) -> Op {
        let c = self.customer(rng);
        let sql = format!(
            "SELECT package, SUM(price) AS spent FROM Orders, Packages, Items WHERE customer = {c} GROUP BY package"
        );
        read(Read::new("flat-customer", sql, &[]), false, false)
    }

    fn r2_page(&self, rng: &mut StdRng) -> Op {
        let offset = below(rng, self.page_rows - PAGE);
        let base = "SELECT package, date, item FROM R2 ORDER BY package, date, item";
        read(
            Read::new("r2-page", base, &[0, 1, 2]).page(offset, PAGE),
            false,
            true,
        )
    }

    fn r2_row(&self, rng: &mut StdRng) -> Op {
        let i = below(rng, self.r2_rows.len());
        read(
            Read::new("r2-row", R2_SCAN, &[0, 1, 2, 3, 4]).page(i, 1),
            true,
            true,
        )
    }

    /// One round of eighteen reads in a seeded order: 4 `R1` and 2 flat
    /// customer aggregates, 8 `ROW` lookups and 4 pages on `R2`. The
    /// shares put the median latency inside the `ROW` lookups and the
    /// 90th percentile inside the pages, away from the edges between
    /// query kinds.
    fn reads(&self, rng: &mut StdRng) -> Vec<Op> {
        let mut ops = Vec::with_capacity(18);
        for _ in 0..2 {
            ops.push(self.flat_customer(rng));
            for _ in 0..2 {
                ops.push(self.r1_customer(rng));
                ops.push(self.r2_page(rng));
            }
            for _ in 0..4 {
                ops.push(self.r2_row(rng));
            }
        }
        shuffle(rng, &mut ops);
        ops
    }

    /// Connection 1's round: the eighteen reads, and after every six a
    /// `DELETE` of a sampled tuple followed by the `INSERT` that puts it
    /// back.
    fn writer_round(&self, rng: &mut StdRng) -> Vec<Op> {
        let reads = self.reads(rng);
        let mut ops = Vec::with_capacity(24);
        for chunk in reads.chunks(6) {
            ops.extend_from_slice(chunk);
            let victim = &self.r2_rows[below(rng, self.r2_rows.len())];
            ops.push(Op::Delete(victim.clone()));
            ops.push(Op::Insert(victim.clone()));
        }
        ops
    }

    fn sql(&self, op: &Op) -> String {
        match op {
            Op::Read {
                read, row: true, ..
            } => {
                let (i, _) = read.page.expect("a ROW read has a page");
                format!("ROW {i} {}", read.base)
            }
            Op::Read { read, .. } => format!("QUERY {}", read.sql()),
            Op::Delete(row) => {
                let conds: Vec<String> = self
                    .r2_cols
                    .iter()
                    .zip(row)
                    .map(|(c, v)| format!("{c} = {v}"))
                    .collect();
                format!("DELETE FROM R2 WHERE {}", conds.join(" AND "))
            }
            Op::Insert(row) => {
                let values: Vec<String> = row.iter().map(ToString::to_string).collect();
                format!(
                    "INSERT INTO R2 ({}) VALUES ({})",
                    self.r2_cols.join(", "),
                    values.join(", ")
                )
            }
        }
    }
}

fn read(read: Read, row: bool, r2: bool) -> Op {
    Op::Read { read, row, r2 }
}

/// One connection's state across windows.
struct Conn {
    client: Client,
    rng: StdRng,
    /// Request ids of this connection start above this base.
    id_base: u64,
    /// Connection 1's mirror of `R2` (`None` on the read-only connection).
    mirror: Option<HashSet<Vec<Value>>>,
    observed: Observed,
    unchecked: u64,
    response_bytes: u64,
    responses: u64,
    /// Operations of the traced window, for the in-process replay.
    log: Vec<Op>,
}

impl Conn {
    /// Runs whole rounds until `seconds` have passed; returns the window
    /// and when it ended.
    fn run(&mut self, gen: &Gen, seconds: f64, tr: &mut Tracer, record: bool) -> Window {
        let mut w = Window::default();
        let start = Instant::now();
        let mut request = 0u64;
        loop {
            let round = if self.mirror.is_some() {
                gen.writer_round(&mut self.rng)
            } else {
                gen.reads(&mut self.rng)
            };
            for op in round {
                request += 1;
                tr.set_request(self.id_base + request);
                self.one(gen, op, &mut w, tr, record);
            }
            if !record || start.elapsed() >= Duration::from_secs_f64(seconds) {
                break;
            }
        }
        w.seconds = start.elapsed().as_secs_f64();
        w
    }

    fn one(&mut self, gen: &Gen, op: Op, w: &mut Window, tr: &mut Tracer, record: bool) {
        let line = gen.sql(&op);
        let writing = matches!(op, Op::Delete(_) | Op::Insert(_));
        if writing {
            gen.write_phase.fetch_add(1, Ordering::SeqCst);
        }
        let phase_before = gen.write_phase.load(Ordering::SeqCst);
        let span = match &op {
            Op::Read { row: true, .. } => "server.row",
            Op::Read { .. } => "server.query",
            _ => "server.write",
        };
        let t0 = Instant::now();
        let reply = tr.time(span, || self.client.request(&line));
        let dt = t0.elapsed().as_secs_f64();
        let phase_after = gen.write_phase.load(Ordering::SeqCst);
        if writing {
            gen.write_phase.fetch_add(1, Ordering::SeqCst);
        }
        w.attempted += 1;
        let payload = match reply {
            Ok(Ok(payload)) => payload,
            Ok(Err(msg)) => {
                w.note_failure(&line, &msg);
                return;
            }
            Err(e) => {
                w.note_failure(&line, &e.to_string());
                return;
            }
        };
        self.responses += 1;
        self.response_bytes += payload.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
        match &op {
            Op::Read { read, r2, .. } => {
                w.read(read.kind, dt);
                w.rows += payload.len().saturating_sub(1) as u64;
                let quiescent = phase_before == phase_after && phase_before.is_multiple_of(4);
                if !*r2 || quiescent {
                    self.observed
                        .record(read, check::of_payload(read, &payload));
                } else {
                    self.unchecked += 1;
                }
            }
            Op::Delete(row) | Op::Insert(row) => {
                let insert = matches!(op, Op::Insert(_));
                w.write(if insert { "insert" } else { "delete" }, dt);
                let mirror = self.mirror.as_mut().expect("only the writer writes");
                let want = if insert {
                    (usize::from(mirror.insert(row.clone())), 0)
                } else {
                    (0, usize::from(mirror.remove(row)))
                };
                let got = (count(&payload, "inserted"), count(&payload, "deleted"));
                if got != (Some(want.0), Some(want.1)) {
                    w.note_failure(
                        &line,
                        &format!("changed {got:?} rows, the mirror says {want:?}"),
                    );
                }
            }
        }
        if record && tr.enabled() {
            self.log.push(op);
        }
    }
}

/// The count on a write response's `name<TAB>n` line.
fn count(payload: &[String], name: &str) -> Option<usize> {
    payload.iter().find_map(|l| {
        l.strip_prefix(name)
            .and_then(|r| r.strip_prefix('\t'))
            .and_then(|n| n.parse().ok())
    })
}

/// Server counters from `STATS`.
fn stats(client: &mut Client) -> BTreeMap<String, f64> {
    let Ok(Ok(lines)) = client.request("STATS") else {
        return BTreeMap::new();
    };
    lines
        .iter()
        .filter_map(|l| {
            let (k, v) = l.split_once('\t')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, key: &str) -> f64 {
    after.get(key).copied().unwrap_or(0.0) - before.get(key).copied().unwrap_or(0.0)
}

/// Both connections for one window, started together.
fn window(conns: &mut [Conn; 2], gen: &Gen, seconds: f64, tracers: &mut [Tracer; 2]) -> Window {
    let barrier = Barrier::new(2);
    let windows: Vec<Window> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(conn, tr)| {
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    conn.run(gen, seconds, tr, true)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut w = Window::default();
    for c in windows {
        w.attempted += c.attempted;
        w.failed += c.failed;
        w.reads.extend(c.reads);
        w.writes.extend(c.writes);
        for (kind, lat) in c.by_kind {
            w.by_kind.entry(kind).or_default().extend(lat);
        }
        w.rows += c.rows;
        w.seconds = w.seconds.max(c.seconds);
        if w.first_error.is_none() {
            w.first_error = c.first_error;
        }
    }
    w
}

/// Replays logged operations in process, one span per public call a
/// server worker makes, until the log or `seconds` runs out. Writes go
/// to `side`, a database holding its own copy of `R2`.
fn replay(db: &Db, side: &Db, gen: &Gen, log: &[Op], seconds: f64, tr: &mut Tracer) {
    let side_schemas = side.session().engine_mut().schemas();
    let start = Instant::now();
    for (i, op) in log.iter().enumerate() {
        if start.elapsed() >= Duration::from_secs_f64(seconds) {
            break;
        }
        tr.set_request((2 << 32) + i as u64);
        let span = tr.open("replay");
        match op {
            Op::Read { read, .. } => {
                let s = tr.open("db.session");
                let mut session = db.session();
                tr.close(s);
                let opts = RunOptions::default();
                if let Ok(out) = traced_query(session.engine_mut(), &read.sql(), opts, tr) {
                    tr.time("server.render", || fdb_server::proto::render_outcome(&out));
                }
            }
            Op::Delete(row) | Op::Insert(row) => {
                let sql = gen.sql(op);
                let s = tr.open("query.parse_statement");
                let stmt = fdb::query::parse_statement(&sql, &mut side.catalog(), &side_schemas);
                tr.close(s);
                let Ok(stmt) = stmt else { continue };
                let snapshot = side
                    .session()
                    .engine_mut()
                    .view_arc("R2")
                    .expect("R2 is registered");
                let s = tr.open("update.clone");
                let mut rep = FRep::clone(&snapshot);
                tr.close(s);
                let s = tr.open("update.edit");
                let _ = if matches!(op, Op::Insert(_)) {
                    rep.insert(row)
                } else {
                    rep.delete(row)
                };
                tr.close(s);
                let mut batch = side.begin_batch();
                match stmt {
                    Statement::Insert(ins) => {
                        for row in ins.rows {
                            batch.insert(&ins.table, row);
                        }
                    }
                    Statement::Delete(del) => {
                        batch.delete_where(del.table, del.predicates);
                    }
                    Statement::Select(_) => {}
                }
                let report = tr.time("db.commit", || batch.commit());
                if let Ok(r) = report {
                    tr.count("db.rows_changed", (r.inserted + r.deleted) as f64);
                }
            }
        }
        tr.close(span);
    }
}

pub fn run(args: &Args, origin: Instant) -> Run {
    let mut tracer = Tracer::new(true, origin);
    let ((built, mut server), setup_s) = setup_reps(|| {
        let built = data::build(Inputs::Serve, 1, &mut tracer);
        let span = tracer.open("setup.spawn");
        let server: ServerHandle = spawn(
            built.db.clone(),
            "127.0.0.1:0",
            ServerOptions::new().workers(WORKERS),
        )
        .expect("the server binds a loopback port");
        tracer.close(span);
        (built, server)
    });

    // The workload's view of R2: its schema order and its tuples.
    let r2 = built
        .db
        .session()
        .engine_mut()
        .view_arc("R2")
        .expect("R2 is registered");
    let r2_schema = r2.schema();
    let r2_cols: Vec<String> = r2_schema
        .attrs()
        .iter()
        .map(|&a| built.catalog.name(a).to_string())
        .collect();
    let flat = built
        .flat
        .as_ref()
        .expect("serve set-up builds the flat join");
    let r2_flat = flat.project_cols(r2_schema.attrs());
    let r2_rows: Vec<Vec<Value>> = r2_flat.rows().map(<[Value]>::to_vec).collect();
    let a = built.ds.attrs;
    let gen = Gen {
        zipf: Zipf::new(CUSTOMERS as usize),
        r2_cols,
        page_rows: data::distinct_count(flat, &[a.package, a.date, a.item]),
        r2_rows,
        write_phase: AtomicU64::new(0),
    };

    let addr = server.addr();
    let connect = |i: u64, mirror| Conn {
        client: Client::connect(addr).expect("connect to the benchmark's server"),
        rng: StdRng::seed_from_u64(args.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i),
        id_base: i << 32,
        mirror,
        observed: Observed::default(),
        unchecked: 0,
        response_bytes: 0,
        responses: 0,
        log: Vec::new(),
    };
    let initial: HashSet<Vec<Value>> = gen.r2_rows.iter().cloned().collect();
    let mut conns = [connect(0, None), connect(1, Some(initial))];
    let mut off = [Tracer::new(false, origin), Tracer::new(false, origin)];

    // Warm-up: one round per connection, not timed. Its failures and
    // the checkpoint's count with the wrong answers.
    let mut warm = Window::default();
    for (conn, tr) in conns.iter_mut().zip(off.iter_mut()) {
        let w = conn.run(&gen, 0.0, tr, false);
        warm.failed += w.failed;
        warm.first_error = warm.first_error.or(w.first_error);
    }
    let mut layer = Vec::new();
    let (untraced, traced) = if args.trace {
        let half = args.seconds / 2.0;
        let untraced = window(&mut conns, &gen, half, &mut off);
        for c in &mut conns {
            (c.response_bytes, c.responses) = (0, 0);
        }
        let before = stats(&mut conns[0].client);
        let mut on = [Tracer::new(true, origin), Tracer::new(true, origin)];
        let traced = window(&mut conns, &gen, half, &mut on);
        let after = stats(&mut conns[0].client);
        let hits = delta(&before, &after, "cache_hits");
        let misses = delta(&before, &after, "cache_misses");
        layer.push(("server.cache_hit_ratio", hits / (hits + misses).max(1.0)));
        layer.push(("server.errors", delta(&before, &after, "errors")));
        let (bytes, responses) = conns
            .iter()
            .fold((0, 0), |(b, n), c| (b + c.response_bytes, n + c.responses));
        layer.push((
            "server.response_bytes",
            bytes as f64 / responses.max(1) as f64,
        ));
        let [t0, t1] = on;
        tracer.absorb(t0);
        tracer.absorb(t1);
        (untraced, Some(traced))
    } else {
        (window(&mut conns, &gen, args.seconds, &mut off), None)
    };

    // Checkpoint: with both connections idle R2 must equal the mirror.
    let scan = Read::new("checkpoint-scan", R2_SCAN, &[0, 1, 2, 3, 4]);
    let count_read = Read::new(
        "checkpoint-count",
        "SELECT package, COUNT(*) AS n, SUM(price) AS spent FROM R2 GROUP BY package",
        &[],
    );
    for read in [scan, count_read] {
        match conns[0].client.query(&read.sql()) {
            Ok(Ok(payload)) => conns[0]
                .observed
                .record(&read, check::of_payload(&read, &payload)),
            Ok(Err(e)) => warm.note_failure(&read.sql(), &e),
            Err(e) => warm.note_failure(&read.sql(), &e.to_string()),
        }
    }
    let peak_rss_mb = data::peak_rss_mb();

    if args.trace {
        let side = {
            let mut engine = FdbEngine::new(built.catalog.clone());
            engine.register_view_arc("R2", r2.clone());
            Db::from_engine(engine)
        };
        // Interleave the two connections' logs, keeping each one's order.
        let [l0, l1] = [
            std::mem::take(&mut conns[0].log),
            std::mem::take(&mut conns[1].log),
        ];
        let mut log = Vec::with_capacity(l0.len() + l1.len());
        let (mut i0, mut i1) = (l0.into_iter(), l1.into_iter());
        loop {
            match (i0.next(), i1.next()) {
                (None, None) => break,
                (a, b) => log.extend(a.into_iter().chain(b)),
            }
        }
        replay(
            &built.db,
            &side,
            &gen,
            &log,
            args.seconds / 4.0,
            &mut tracer,
        );
        let reads: Vec<Read> = gen
            .reads(&mut StdRng::seed_from_u64(args.seed))
            .into_iter()
            .filter_map(|op| match op {
                Op::Read { read, .. } => Some(read),
                _ => None,
            })
            .collect();
        let speedup =
            library::serial_speedup(built.db.session().engine_mut(), &reads, 2, &mut tracer);
        layer.push(("exec.speedup_vs_serial", speedup));
    }

    let [c0, c1] = conns;
    let unchecked = c0.unchecked + c1.unchecked;
    let mirror = c1.mirror.expect("the writer keeps the mirror");
    let mut observed = c0.observed;
    observed.absorb(c1.observed);
    let _ = c0.client.quit();
    let _ = c1.client.quit();
    server.shutdown();

    let mirror_rel = Relation::from_rows(r2_schema, mirror);
    let mut reference = crate::reference(&built.catalog, &built.ds, Some(mirror_rel));
    let (wrong, wrong_note) = observed.check(&mut reference);
    Run {
        outside_failed: warm.failed,
        outside_error: warm.first_error,
        setup_s,
        untraced,
        traced,
        tracer,
        layer,
        peak_rss_mb,
        wrong,
        wrong_note,
        notes: vec![format!("r2_reads_unchecked {unchecked}")],
    }
}
