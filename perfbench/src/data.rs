//! Program set-up (generate, build and register the inputs) and the
//! seeded request-side sampling the workloads share.

use crate::trace::Tracer;
use fdb::core::engine::FdbEngine;
use fdb::relational::{Catalog, Relation, SortKey};
use fdb::workload::orders::{generate, OrdersConfig, OrdersDataset};
use fdb::{Db, FRep, FTree};
use rand::rngs::StdRng;
use rand::RngCore;

/// The dataset is the paper generator at its default seed and customer
/// count: `--seed` drives the request stream, so runs with different
/// seeds query the same data.
pub const DATA_SEED: u64 = 0xFDB;
pub const CUSTOMERS: u32 = 100;

/// The inputs one workload registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Inputs {
    /// `R1` only.
    Agg,
    /// `R1` and the Orders trie `R3`.
    Ord,
    /// `R1`, the path trie `R2` of the flat join, and the flat relations
    /// `Orders`, `Packages`, `Items`.
    Serve,
}

/// A set-up database plus the generated data behind it.
pub struct Setup {
    pub db: Db,
    pub catalog: Catalog,
    pub ds: OrdersDataset,
    /// The flat join `R1`, when set-up built it (for `R2`).
    pub flat: Option<Relation>,
}

/// Generates, builds and registers the inputs, recording the
/// `setup.generate`, `setup.build` and `setup.register` spans.
pub fn build(inputs: Inputs, scale: u32, tr: &mut Tracer) -> Setup {
    let span = tr.open("setup.generate");
    let mut catalog = Catalog::new();
    let ds = generate(
        &mut catalog,
        &OrdersConfig {
            scale,
            customers: CUSTOMERS,
            seed: DATA_SEED,
        },
    );
    tr.close(span);

    let span = tr.open("setup.build");
    let a = ds.attrs;
    let r1 = ds.factorised_view();
    let mut views = vec![("R1", r1)];
    let mut flat = None;
    match inputs {
        Inputs::Agg => {}
        Inputs::Ord => {
            let mut r3 = ds.orders.project_cols(&[a.date, a.customer, a.package]);
            r3.sort_by_keys(&[
                SortKey::asc(a.date),
                SortKey::asc(a.customer),
                SortKey::asc(a.package),
            ]);
            let tree = FTree::path(&[a.date, a.customer, a.package]);
            let r3 =
                FRep::from_relation_with(&r3, tree, 1).expect("Orders factorises over its trie");
            views.push(("R3", r3));
        }
        Inputs::Serve => {
            let join = ds.join();
            let tree = FTree::path(&[a.package, a.date, a.item, a.customer, a.price]);
            let r2 = FRep::from_relation_with(&join, tree, 1)
                .expect("the join factorises over its trie");
            views.push(("R2", r2));
            flat = Some(join);
        }
    }
    tr.close(span);

    let span = tr.open("setup.register");
    let mut engine = FdbEngine::new(catalog.clone());
    for (name, rep) in views {
        engine.register_view(name, rep);
    }
    if inputs == Inputs::Serve {
        engine.register_relation("Orders", ds.orders.clone());
        engine.register_relation("Packages", ds.packages.clone());
        engine.register_relation("Items", ds.items.clone());
    }
    let db = Db::from_engine(engine);
    tr.close(span);
    Setup {
        db,
        catalog,
        ds,
        flat,
    }
}

/// A uniform draw in `[0, 1)`.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A uniform draw in `[0, n)`.
pub fn below(rng: &mut StdRng, n: usize) -> usize {
    ((u128::from(rng.next_u64()) * n as u128) >> 64) as usize
}

/// Zipf(1) over `0..n`: rank `r` is drawn with weight `1 / (r + 1)`.
#[derive(Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                total += 1.0 / (r + 1) as f64;
                total
            })
            .collect();
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u = unit(rng);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Fisher–Yates shuffle driven by the workload RNG.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, below(rng, i + 1));
    }
}

/// Number of distinct rows of `rel` projected onto `cols`.
pub fn distinct_count(rel: &Relation, cols: &[fdb::relational::AttrId]) -> usize {
    let mut p = rel.project_cols(cols);
    p.canonicalize();
    p.len()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zipf_favours_low_ranks() {
        let z = Zipf::new(100);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > 5 * counts[20]);
        assert!(counts.iter().all(|&c| c < 20_000));
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!((0..1000).all(|_| below(&mut rng, 7) < 7));
    }
}
