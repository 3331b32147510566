//! The library workloads `agg` and `ord`: one client calling
//! `Session::query` in a closed loop, and the traced replacement that
//! makes the same public calls one span at a time.

use crate::check::{self, Fingerprint, Observed, Read};
use crate::data::{below, distinct_count, shuffle};
use crate::trace::Tracer;
use crate::Window;
use fdb::core::engine::{FdbEngine, OrderStrategy, RunOptions};
use fdb::core::error::FdbError;
use fdb::workload::orders::OrdersDataset;
use fdb::{QueryOutcome, Session};
use rand::rngs::StdRng;
use std::time::{Duration, Instant};

/// `Session::query`, one public call per span: `fdb_query::parse`,
/// `FdbEngine::run`, `FdbResult::explain` and
/// `FdbResult::to_relation_counted`. Also counts the engine's and the
/// enumeration's work.
pub fn traced_query(
    engine: &mut FdbEngine,
    sql: &str,
    opts: RunOptions,
    tr: &mut Tracer,
) -> fdb::core::Result<QueryOutcome> {
    let span = tr.open("query.parse");
    let schemas = engine.schemas();
    let task = fdb::query::parse(sql, &mut engine.catalog, &schemas).map(|q| q.to_task());
    tr.close(span);
    let task = task.map_err(|e| FdbError::Unresolved(format!("SQL error: {e}")))?;

    let result = tr.time("engine.run", || engine.run(&task, opts))?;
    let explain = tr.time("engine.explain", || result.explain(&engine.catalog));
    let strategy = result.order_strategy();
    let exec = result.exec_stats();
    let (rows, order) = tr.time("enumerate.run", || result.to_relation_counted())?;
    let columns = rows
        .schema()
        .attrs()
        .iter()
        .map(|&a| engine.catalog.name(a).to_string())
        .collect();

    tr.count("engine.runs", 1.0);
    tr.count("engine.stages", exec.stages as f64);
    tr.count("engine.intermediate_bytes", exec.intermediate_bytes as f64);
    tr.count("engine.copies_avoided", exec.copies_avoided as f64);
    tr.count("enumerate.rows_enumerated", order.rows_enumerated as f64);
    tr.count("enumerate.rows_returned", rows.len() as f64);
    tr.count("enumerate.order_bytes", order.order_bytes as f64);
    tr.count(strategy_counter(strategy), 1.0);
    Ok(QueryOutcome {
        rows,
        columns,
        explain,
        strategy,
        exec,
        order,
    })
}

fn strategy_counter(s: OrderStrategy) -> &'static str {
    match s {
        OrderStrategy::Unordered => "enumerate.strategy_unordered",
        OrderStrategy::StreamInTree => "enumerate.strategy_stream",
        OrderStrategy::DirectAccess => "enumerate.strategy_direct",
        OrderStrategy::HeapTopK { .. } => "enumerate.strategy_heap",
        OrderStrategy::CollectSortCut => "enumerate.strategy_sort",
    }
}

pub fn fingerprint(read: &Read, out: &QueryOutcome) -> Fingerprint {
    check::of_relation(read, &out.columns, &out.rows, 0..out.rows.len())
}

/// A seeded request stream: each call returns one round of reads.
pub type Mix = Box<dyn FnMut(&mut StdRng) -> Vec<Read>>;

/// The `agg` mix over `R1`: per round, the paper's AGG and AGG+ORD
/// queries Q1–Q9 twice and the extended aggregates QD, QP, QB, QK, QG
/// once, in a seeded order. The odd round size keeps the median latency
/// inside one query's spread rather than on the edge between two.
pub fn agg_mix() -> Mix {
    let q = Read::new;
    let paper = vec![
        q("Q1", "SELECT package, date, customer, SUM(price) AS sum_price FROM R1 GROUP BY package, date, customer", &[]),
        q("Q2", "SELECT customer, SUM(price) AS revenue FROM R1 GROUP BY customer", &[]),
        q("Q3", "SELECT date, package, SUM(price) AS sum_price FROM R1 GROUP BY date, package", &[]),
        q("Q4", "SELECT package, SUM(price) AS sum_price FROM R1 GROUP BY package", &[]),
        q("Q5", "SELECT SUM(price) AS sum_price FROM R1", &[]),
        q("Q6", "SELECT customer, SUM(price) AS revenue FROM R1 GROUP BY customer ORDER BY customer", &[0]),
        q("Q7", "SELECT customer, SUM(price) AS revenue FROM R1 GROUP BY customer ORDER BY revenue", &[1]),
        q("Q8", "SELECT date, package, SUM(price) AS sum_price FROM R1 GROUP BY date, package ORDER BY date, package", &[0, 1]),
        q("Q9", "SELECT date, package, SUM(price) AS sum_price FROM R1 GROUP BY date, package ORDER BY package, date", &[1, 0]),
    ];
    let extended = vec![
        q("QD", "SELECT customer, COUNT(DISTINCT item) AS u_items FROM R1 GROUP BY customer", &[]),
        q("QP", "SELECT customer, PRODUCT(price) AS p_price FROM R1 GROUP BY customer", &[]),
        q("QB", "SELECT package, EXISTS(price > 8) AS e_price, FORALL(price >= 1) AS f_price FROM R1 GROUP BY package", &[]),
        q("QK", "SELECT customer, TOP_K(price, 3) AS top_price FROM R1 GROUP BY customer", &[]),
        q("QG", "SELECT customer, date, SUM(price) AS gs_sum_price FROM R1 GROUP BY ROLLUP (customer, date)", &[]),
    ];
    let mut queries = paper.clone();
    queries.extend(paper);
    queries.extend(extended);
    Box::new(move |rng| {
        let mut round = queries.clone();
        shuffle(rng, &mut round);
        round
    })
}

/// Page size of the `ord` pages.
const PAGE: usize = 50;

/// The `ord` mix, per round in a seeded order: the full ordered scans
/// Q10–Q13; two `LIMIT 50 OFFSET m` pages at seeded offsets on each of
/// three orders (Q11's, realised by `R1`'s f-tree; Q12's, which needs a
/// swap; and `R3`'s stored order); and two top-k queries
/// `ORDER BY price DESC, customer LIMIT k` with seeded `k`.
pub fn ord_mix(ds: &OrdersDataset) -> Mix {
    let a = ds.attrs;
    let join = ds.join();
    // Rows of each paged projection, so offsets cover the whole result.
    let r1_pages = distinct_count(&join, &[a.package, a.item, a.date]);
    let r3_pages = distinct_count(&ds.orders, &[a.date, a.customer, a.package]);
    let scans = vec![
        Read::new(
            "Q10",
            "SELECT package, date, customer, item, price FROM R1 ORDER BY package, date, item",
            &[0, 1, 3],
        ),
        Read::new(
            "Q11",
            "SELECT package, date, customer, item, price FROM R1 ORDER BY package, item, date",
            &[0, 3, 1],
        ),
        Read::new(
            "Q12",
            "SELECT package, date, customer, item, price FROM R1 ORDER BY date, package, item",
            &[1, 0, 3],
        ),
        Read::new(
            "Q13",
            "SELECT customer, date, package FROM R3 ORDER BY customer, date, package",
            &[0, 1, 2],
        ),
    ];
    let pages = [
        (
            "page-Q11",
            "SELECT package, item, date FROM R1 ORDER BY package, item, date",
            r1_pages,
        ),
        (
            "page-Q12",
            "SELECT date, package, item FROM R1 ORDER BY date, package, item",
            r1_pages,
        ),
        (
            "page-R3",
            "SELECT date, customer, package FROM R3 ORDER BY date, customer, package",
            r3_pages,
        ),
    ];
    let top_k = "SELECT customer, price FROM R1 ORDER BY price DESC, customer";
    Box::new(move |rng| {
        let mut round = scans.clone();
        for _ in 0..2 {
            let k = 10 + below(rng, 41);
            round.push(Read::new("top-k", top_k, &[1, 0]).page(0, k));
        }
        for _ in 0..2 {
            for (kind, base, rows) in pages {
                let offset = below(rng, rows - PAGE);
                round.push(Read::new(kind, base, &[0, 1, 2]).page(offset, PAGE));
            }
        }
        shuffle(rng, &mut round);
        round
    })
}

/// One client's closed loop over `mix` for `seconds`, in whole rounds.
/// Untraced it calls `Session::query`; traced, [`traced_query`].
pub fn run_window(
    session: &mut Session,
    mix: &mut Mix,
    rng: &mut StdRng,
    seconds: f64,
    tr: &mut Tracer,
    observed: &mut Observed,
) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    let mut request = 0u64;
    while start.elapsed() < Duration::from_secs_f64(seconds) {
        for read in mix(rng) {
            let sql = read.sql();
            request += 1;
            tr.set_request(request);
            let t0 = Instant::now();
            let out = if tr.enabled() {
                let op = tr.open("op");
                let opts = session.options();
                let out = traced_query(session.engine_mut(), &sql, opts, tr);
                tr.close(op);
                out
            } else {
                session.query(&sql)
            };
            let dt = t0.elapsed().as_secs_f64();
            w.attempted += 1;
            match out {
                Ok(out) => {
                    w.read(read.kind, dt);
                    w.seconds += dt;
                    w.rows += out.len() as u64;
                    observed.record(&read, fingerprint(&read, &out));
                }
                Err(e) => {
                    w.note_failure(&sql, &e.to_string());
                }
            }
        }
    }
    w
}

/// `exec.speedup_vs_serial`: `FdbEngine::run` time at `threads(1)` over
/// the same queries at `threads(2)`, alternating which runs first.
pub fn serial_speedup(
    engine: &mut FdbEngine,
    reads: &[Read],
    rounds: usize,
    tr: &mut Tracer,
) -> f64 {
    let mut serial = 0.0;
    let mut parallel = 0.0;
    for round in 0..rounds {
        for read in reads {
            let schemas = engine.schemas();
            let Ok(q) = fdb::query::parse(&read.sql(), &mut engine.catalog, &schemas) else {
                continue;
            };
            let task = q.to_task();
            let order = if round % 2 == 0 { [1, 2] } else { [2, 1] };
            for threads in order {
                let name = if threads == 1 {
                    "exec.serial"
                } else {
                    "exec.parallel"
                };
                let t0 = Instant::now();
                let ok = tr.time(name, || {
                    engine
                        .run(&task, RunOptions::new().threads(threads))
                        .is_ok()
                });
                let dt = t0.elapsed().as_secs_f64();
                if ok {
                    if threads == 1 {
                        serial += dt;
                    } else {
                        parallel += dt;
                    }
                }
            }
        }
    }
    if parallel > 0.0 {
        serial / parallel
    } else {
        0.0
    }
}
