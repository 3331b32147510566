//! The repository's benchmark: three seeded closed-loop workloads run
//! through the public API, every answer checked against the relational
//! reference engine.
//!
//! ```text
//! fdb-perfbench --workload agg|ord|serve-rw --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it measures `S` seconds untraced and prints the
//! end-to-end metrics. With `--trace 1` it measures `S/2` seconds
//! untraced and `S/2` traced, and prints the per-layer metrics computed
//! from the spans. The last line of standard output is one JSON object;
//! the exit code is non-zero when any operation failed or any answer
//! differed from the reference. See README.md for the workloads and the
//! metric definitions.

mod check;
mod data;
mod library;
mod serve;
mod trace;

use check::{Observed, Reference};
use data::Inputs;
use fdb::core::engine::RunOptions;
use fdb::relational::engine::RdbEngine;
use fdb::relational::GroupStrategy;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// Set-up repeats until it has taken `SETUP_BUDGET_S` seconds in all,
/// at least `SETUP_MIN` and at most `SETUP_MAX` times; `setup_s` is the
/// median.
const SETUP_BUDGET_S: f64 = 2.0;
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 25;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Agg,
    Ord,
    ServeRw,
}

impl Workload {
    fn name(self) -> &'static str {
        match self {
            Workload::Agg => "agg",
            Workload::Ord => "ord",
            Workload::ServeRw => "serve-rw",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: fdb-perfbench --workload agg|ord|serve-rw --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "agg" => Workload::Agg,
                    "ord" => Workload::Ord,
                    "serve-rw" => Workload::ServeRw,
                    _ => return Err(bad("agg, ord or serve-rw")),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one measured window did.
#[derive(Debug, Default)]
pub struct Window {
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrong.
    pub failed: u64,
    /// Read and write latencies in seconds.
    pub reads: Vec<f64>,
    pub writes: Vec<f64>,
    /// The same latencies by query kind.
    pub by_kind: BTreeMap<&'static str, Vec<f64>>,
    /// Result rows returned.
    pub rows: u64,
    /// The time base of throughput: client time spent waiting on
    /// operations for one client, wall time for several.
    pub seconds: f64,
    pub first_error: Option<String>,
}

impl Window {
    pub fn read(&mut self, kind: &'static str, seconds: f64) {
        self.reads.push(seconds);
        self.by_kind.entry(kind).or_default().push(seconds);
    }

    pub fn write(&mut self, kind: &'static str, seconds: f64) {
        self.writes.push(seconds);
        self.by_kind.entry(kind).or_default().push(seconds);
    }

    /// Counts a failed operation and keeps the first error.
    pub fn note_failure(&mut self, what: &str, err: &str) {
        self.failed += 1;
        self.first_error
            .get_or_insert_with(|| format!("`{what}`: {err}"));
    }

    pub fn ops_per_s(&self) -> f64 {
        (self.attempted - self.failed) as f64 / self.seconds
    }
}

/// Everything a workload run hands back for reporting.
pub struct Run {
    setup_s: Vec<f64>,
    untraced: Window,
    traced: Option<Window>,
    tracer: Tracer,
    /// Per-layer values measured outside the spans.
    layer: Vec<(&'static str, f64)>,
    peak_rss_mb: f64,
    /// Answers that differed from the reference, and a note on the first.
    wrong: u64,
    wrong_note: Option<String>,
    /// Failed operations outside the measured windows (warm-up, checks).
    outside_failed: u64,
    outside_error: Option<String>,
    /// Extra report lines.
    notes: Vec<String>,
}

/// Sets up repeatedly, timing each, and keeps the last set-up.
fn setup_reps<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_MIN
        || (times.len() < SETUP_MAX && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let t0 = Instant::now();
        let built = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("at least one set-up"), times)
}

/// The relational reference over the flat join (as `R1` and, when it is
/// given, `R2`) and the Orders trie's relation `R3`.
fn reference(
    catalog: &fdb::relational::Catalog,
    ds: &fdb::workload::orders::OrdersDataset,
    r2: Option<fdb::relational::Relation>,
) -> Reference {
    let a = ds.attrs;
    let mut rdb = RdbEngine::new(catalog.clone(), GroupStrategy::Hash);
    rdb.threads = 2;
    rdb.register("R1", ds.join());
    rdb.register(
        "R3",
        ds.orders.project_cols(&[a.date, a.customer, a.package]),
    );
    rdb.register("Orders", ds.orders.clone());
    rdb.register("Packages", ds.packages.clone());
    rdb.register("Items", ds.items.clone());
    if let Some(r2) = r2 {
        rdb.register("R2", r2);
    }
    Reference::new(rdb)
}

/// `agg` and `ord`: one library client on the serial path
/// (`threads(1)`). On two cores `agg` at `threads(2)` swung up to twofold
/// from run to run, beyond the benchmark's bounds, so the parallel path
/// is measured by `exec.speedup_vs_serial` instead (see README.md).
fn run_library(args: &Args, origin: Instant) -> Run {
    let (inputs, scale) = match args.workload {
        Workload::Agg => (Inputs::Agg, 4),
        _ => (Inputs::Ord, 1),
    };
    let mut tracer = Tracer::new(true, origin);
    let (built, setup_s) = setup_reps(|| data::build(inputs, scale, &mut tracer));
    let span = tracer.open("db.session");
    let mut session = built.db.session();
    tracer.close(span);
    session.set_options(RunOptions::new().threads(1));

    let mut mix = match args.workload {
        Workload::Agg => library::agg_mix(),
        _ => library::ord_mix(&built.ds),
    };
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut observed = Observed::default();
    let mut off = Tracer::new(false, origin);
    // Warm-up: one round, not timed. Its failures count.
    let mut warm = Window::default();
    for read in mix(&mut rng) {
        if let Err(e) = session.query(&read.sql()) {
            warm.note_failure(&read.sql(), &e.to_string());
        }
    }

    let (untraced, traced) = if args.trace {
        let half = args.seconds / 2.0;
        let untraced = library::run_window(
            &mut session,
            &mut mix,
            &mut rng,
            half,
            &mut off,
            &mut observed,
        );
        let traced = library::run_window(
            &mut session,
            &mut mix,
            &mut rng,
            half,
            &mut tracer,
            &mut observed,
        );
        (untraced, Some(traced))
    } else {
        let w = library::run_window(
            &mut session,
            &mut mix,
            &mut rng,
            args.seconds,
            &mut off,
            &mut observed,
        );
        (w, None)
    };
    let mut layer = Vec::new();
    if args.trace {
        let reads = mix(&mut rng);
        let speedup = library::serial_speedup(session.engine_mut(), &reads, 2, &mut tracer);
        layer.push(("exec.speedup_vs_serial", speedup));
    }
    let peak_rss_mb = data::peak_rss_mb();
    drop(session);
    let data::Setup { catalog, ds, .. } = built;
    let mut reference = reference(&catalog, &ds, None);
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
        notes: Vec::new(),
    }
}

fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Nearest-rank percentile; 0 for an empty sample.
fn percentile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

type Metric = (&'static str, f64, &'static str);

fn end_to_end(run: &Run) -> Vec<Metric> {
    let w = &run.untraced;
    vec![
        ("setup_s", median(&run.setup_s), "s"),
        ("ops_per_s", w.ops_per_s(), "1/s"),
        ("read_p50_ms", percentile(&w.reads, 0.5) * 1e3, "ms"),
        ("read_p90_ms", percentile(&w.reads, 0.9) * 1e3, "ms"),
        ("rows_per_s", w.rows as f64 / w.seconds, "rows/s"),
        ("peak_rss_mb", run.peak_rss_mb, "MB"),
    ]
}

/// Metrics the command prints on every run but that are not gated: the
/// write latencies exist on `serve-rw` only, and `failed_ratio` is 0 on a
/// correct run (the JSON's `failed` and `attempted` carry it).
fn reported_only(run: &Run, attempted: u64, failed: u64) -> Vec<Metric> {
    let w = &run.untraced;
    vec![
        ("write_p50_ms", percentile(&w.writes, 0.5) * 1e3, "ms"),
        ("write_p90_ms", percentile(&w.writes, 0.9) * 1e3, "ms"),
        (
            "failed_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ]
}

fn per_layer(run: &Run) -> Vec<Metric> {
    let t = &run.tracer;
    let med = |name: &str, scale: f64| median(&t.self_times(name)) * scale;
    let runs = t.counter("engine.runs").max(1.0);
    let per_run = |name: &str| t.counter(name) / runs;
    let layer = |name: &str| {
        run.layer
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let enumerated = t.counter("enumerate.rows_enumerated");
    let traced_ops = run.traced.as_ref().map_or(0.0, Window::ops_per_s);
    vec![
        ("setup.generate_s", med("setup.generate", 1.0), "s"),
        ("setup.build_s", med("setup.build", 1.0), "s"),
        ("setup.register_s", med("setup.register", 1.0), "s"),
        ("query.parse_us", med("query.parse", 1e6), "us"),
        (
            "query.parse_statement_us",
            med("query.parse_statement", 1e6),
            "us",
        ),
        ("db.session_us", med("db.session", 1e6), "us"),
        ("db.commit_ms", med("db.commit", 1e3), "ms"),
        ("db.rows_changed", t.counter("db.rows_changed"), "count"),
        ("engine.run_ms", med("engine.run", 1e3), "ms"),
        ("engine.stages", per_run("engine.stages"), "count"),
        (
            "engine.intermediate_bytes",
            per_run("engine.intermediate_bytes"),
            "bytes",
        ),
        (
            "engine.copies_avoided",
            per_run("engine.copies_avoided"),
            "count",
        ),
        ("engine.explain_us", med("engine.explain", 1e6), "us"),
        (
            "exec.speedup_vs_serial",
            layer("exec.speedup_vs_serial"),
            "ratio",
        ),
        ("enumerate.run_ms", med("enumerate.run", 1e3), "ms"),
        (
            "enumerate.rows_enumerated",
            per_run("enumerate.rows_enumerated"),
            "count",
        ),
        (
            "enumerate.rows_returned_per_enumerated",
            if enumerated > 0.0 {
                t.counter("enumerate.rows_returned") / enumerated
            } else {
                0.0
            },
            "ratio",
        ),
        (
            "enumerate.order_bytes",
            per_run("enumerate.order_bytes"),
            "bytes",
        ),
        (
            "enumerate.strategy_unordered",
            t.counter("enumerate.strategy_unordered"),
            "count",
        ),
        (
            "enumerate.strategy_stream",
            t.counter("enumerate.strategy_stream"),
            "count",
        ),
        (
            "enumerate.strategy_direct",
            t.counter("enumerate.strategy_direct"),
            "count",
        ),
        (
            "enumerate.strategy_heap",
            t.counter("enumerate.strategy_heap"),
            "count",
        ),
        (
            "enumerate.strategy_sort",
            t.counter("enumerate.strategy_sort"),
            "count",
        ),
        ("update.clone_ms", med("update.clone", 1e3), "ms"),
        ("update.edit_us", med("update.edit", 1e6), "us"),
        (
            "server.cache_hit_ratio",
            layer("server.cache_hit_ratio"),
            "ratio",
        ),
        ("server.query_rtt_ms", med("server.query", 1e3), "ms"),
        ("server.row_rtt_ms", med("server.row", 1e3), "ms"),
        ("server.write_rtt_ms", med("server.write", 1e3), "ms"),
        ("server.render_us", med("server.render", 1e6), "us"),
        (
            "server.response_bytes",
            layer("server.response_bytes"),
            "bytes",
        ),
        ("server.errors", layer("server.errors"), "count"),
        (
            "trace.overhead_ratio",
            traced_ops / run.untraced.ops_per_s(),
            "ratio",
        ),
    ]
}

fn json_metrics(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push('}');
    out
}

fn write_trace(args: &Args, tracer: &Tracer) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_jsonl(&mut w)?;
        std::io::Write::flush(&mut w)
    });
    match written {
        Ok(()) => println!("trace {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let origin = Instant::now();
    let run = match args.workload {
        Workload::Agg | Workload::Ord => run_library(&args, origin),
        Workload::ServeRw => serve::run(&args, origin),
    };

    println!(
        "workload={} seed={} seconds={} trace={} cores={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for note in &run.notes {
        println!("{note}");
    }
    let mut attempted = run.untraced.attempted;
    let mut failed = run.untraced.failed + run.wrong + run.outside_failed;
    if let Some(t) = &run.traced {
        attempted += t.attempted;
        failed += t.failed;
    }
    for err in [
        &run.outside_error,
        &run.untraced.first_error,
        &run.traced.as_ref().and_then(|t| t.first_error.clone()),
    ]
    .into_iter()
    .flatten()
    {
        println!("error {err}");
    }
    if let Some(note) = &run.wrong_note {
        println!("wrong {note}");
    }
    println!(
        "samples reads={} writes={} setups={}",
        run.untraced.reads.len(),
        run.untraced.writes.len(),
        run.setup_s.len()
    );
    for (kind, lat) in &run.untraced.by_kind {
        println!(
            "kind {kind} n={} p50_ms={:.3} p90_ms={:.3}",
            lat.len(),
            percentile(lat, 0.5) * 1e3,
            percentile(lat, 0.9) * 1e3
        );
    }
    let gated = end_to_end(&run);
    for (name, value, unit) in gated.iter().chain(&reported_only(&run, attempted, failed)) {
        println!("metric {name} {value} {unit}");
    }
    let metrics = if args.trace {
        write_trace(&args, &run.tracer);
        let layers = per_layer(&run);
        for (name, value, unit) in &layers {
            println!("layer {name} {value} {unit}");
        }
        layers
    } else {
        gated
    };
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
