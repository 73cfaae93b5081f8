//! # aomp-bench — the evaluation harness
//!
//! Regenerates every table and figure of the AOmpLib paper's evaluation
//! section (§V):
//!
//! * **Figure 13** (`cargo run -p aomp-bench --bin fig13 --release`) —
//!   speed-ups of the eight JGF benchmarks, JGF-MT vs AOmp, on the
//!   modelled i7 (8 threads) and Xeon (24 threads), plus the measured
//!   AOmp/JGF wall-time ratio on this host (the paper's <1 % claim).
//! * **Table 2** (`--bin table2`) — refactorings and abstractions per
//!   benchmark, assembled from the implementations' registered metadata.
//! * **Figure 15** (`--bin fig15`) — MolDyn parallelisation variants
//!   (Critical / Locks / JGF thread-local) across particle counts and
//!   thread counts.
//!
//! Criterion benches (`cargo bench -p aomp-bench`) measure the real
//! kernels on this host: `overhead_fig13` (JGF-MT vs AOmp pairs),
//! `moldyn_fig15` (the three variants) and `mechanisms` (per-construct
//! micro-costs).

#![warn(missing_docs)]

use aomp_simcore::models::{self, MolDynStrategy};
use aomp_simcore::{Json, Machine, Simulator, ToJson};

/// One Figure 13 bar group: benchmark × the two variants.
#[derive(Debug, Clone)]
pub struct Fig13Row {
    /// Benchmark name.
    pub benchmark: &'static str,
    /// Speed-up of the hand-threaded JGF version.
    pub jgf: f64,
    /// Speed-up of the AOmp version.
    pub aomp: f64,
}

/// The per-benchmark simulated speed-ups for one machine at `t` threads
/// (Figure 13's two groups: i7 × 8 and Xeon × 24).
pub fn fig13_series(machine: &Machine, t: usize) -> Vec<Fig13Row> {
    let sim = Simulator::new(machine.clone());
    let mut rows = Vec::new();
    let mut push = |name: &'static str, jgf: aomp_simcore::Program, aomp: aomp_simcore::Program| {
        rows.push(Fig13Row {
            benchmark: name,
            jgf: sim.speedup(&jgf, t),
            aomp: sim.speedup(&aomp, t),
        });
    };
    push(
        "Crypt",
        models::crypt(20_000_000, false),
        models::crypt(20_000_000, true),
    );
    push(
        "LUFact",
        models::lufact(1000, false),
        models::lufact(1000, true),
    );
    push(
        "Series",
        models::series(10_000, false),
        models::series(10_000, true),
    );
    push(
        "SOR",
        models::sor(1000, 100, false),
        models::sor(1000, 100, true),
    );
    push(
        "Sparse",
        models::sparse(500_000, 200, false),
        models::sparse(500_000, 200, true),
    );
    push(
        "MonteCarlo",
        models::montecarlo(60_000, false),
        models::montecarlo(60_000, true),
    );
    push(
        "RayTracer",
        models::raytracer(500, false),
        models::raytracer(500, true),
    );
    #[allow(dropping_copy_types, clippy::drop_non_drop)]
    {
        drop(push);
    }
    // MolDyn's model is thread-aware (thread-local arrays), so its
    // speed-up is computed against the 1-thread model explicitly.
    let base = sim.run(
        &models::moldyn(8788, 50, 1, MolDynStrategy::ThreadLocal, machine, false),
        1,
    );
    let jgf = base
        / sim.run(
            &models::moldyn(8788, 50, t, MolDynStrategy::ThreadLocal, machine, false),
            t,
        );
    let base_a = sim.run(
        &models::moldyn(8788, 50, 1, MolDynStrategy::ThreadLocal, machine, true),
        1,
    );
    let aomp = base_a
        / sim.run(
            &models::moldyn(8788, 50, t, MolDynStrategy::ThreadLocal, machine, true),
            t,
        );
    rows.insert(
        5,
        Fig13Row {
            benchmark: "MolDyn",
            jgf,
            aomp,
        },
    );
    rows
}

impl ToJson for Fig13Row {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("benchmark".to_owned(), Json::Str(self.benchmark.to_owned())),
            ("jgf".to_owned(), Json::Num(self.jgf)),
            ("aomp".to_owned(), Json::Num(self.aomp)),
        ])
    }
}

/// One Figure 15 bar: variant × particle count × thread count.
#[derive(Debug, Clone)]
pub struct Fig15Row {
    /// Series label (`Critical`, `Locks`, `JGF`).
    pub variant: &'static str,
    /// Particle count.
    pub particles: usize,
    /// Team size.
    pub threads: usize,
    /// Simulated speed-up over the 1-thread thread-local baseline
    /// (matching the paper's normalisation to the sequential run).
    pub speedup: f64,
}

impl ToJson for Fig15Row {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("variant".to_owned(), Json::Str(self.variant.to_owned())),
            ("particles".to_owned(), Json::Num(self.particles as f64)),
            ("threads".to_owned(), Json::Num(self.threads as f64)),
            ("speedup".to_owned(), Json::Num(self.speedup)),
        ])
    }
}

/// Particle counts on the paper's Figure 15 x-axis.
pub const FIG15_SIZES: [usize; 6] = [864, 2048, 8788, 19_652, 256_000, 500_000];
/// Thread counts of Figure 15's two groups.
pub const FIG15_THREADS: [usize; 2] = [4, 12];

/// The full Figure 15 series (on the Xeon model, where the paper's 4 and
/// 12 thread runs live).
pub fn fig15_series() -> Vec<Fig15Row> {
    let machine = Machine::xeon();
    let sim = Simulator::new(machine.clone());
    let mut rows = Vec::new();
    for &t in &FIG15_THREADS {
        for strategy in [MolDynStrategy::Critical, MolDynStrategy::Locks] {
            for &n in &FIG15_SIZES {
                let base = sim.run(
                    &models::moldyn(n, 50, 1, MolDynStrategy::ThreadLocal, &machine, false),
                    1,
                );
                let this = sim.run(&models::moldyn(n, 50, t, strategy, &machine, false), t);
                rows.push(Fig15Row {
                    variant: strategy.label(),
                    particles: n,
                    threads: t,
                    speedup: base / this,
                });
            }
        }
        // The paper shows the JGF (thread-local) series at its own size.
        let n = 8788;
        let base = sim.run(
            &models::moldyn(n, 50, 1, MolDynStrategy::ThreadLocal, &machine, false),
            1,
        );
        let this = sim.run(
            &models::moldyn(n, 50, t, MolDynStrategy::ThreadLocal, &machine, false),
            t,
        );
        rows.push(Fig15Row {
            variant: "JGF",
            particles: n,
            threads: t,
            speedup: base / this,
        });
    }
    rows
}

/// Region-entry overhead measured on this host: wall time of an empty
/// `parallel_with` region entered through the hot-team cache vs through
/// the spawning fallback (`RegionConfig::pooled(false)`).
#[derive(Debug, Clone)]
pub struct EntryOverhead {
    /// Team size used for both paths.
    pub threads: usize,
    /// Timed region entries per path (after warm-up).
    pub iters: usize,
    /// Mean wall time per pooled region entry, nanoseconds.
    pub pooled_ns: f64,
    /// Mean wall time per spawn-path region entry, nanoseconds.
    pub spawn_ns: f64,
}

impl EntryOverhead {
    /// How much faster the hot-team path enters a region (`spawn / pooled`).
    pub fn speedup(&self) -> f64 {
        self.spawn_ns / self.pooled_ns
    }
}

impl ToJson for EntryOverhead {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("threads".to_owned(), Json::Num(self.threads as f64)),
            ("iters".to_owned(), Json::Num(self.iters as f64)),
            ("pooled_ns".to_owned(), Json::Num(self.pooled_ns)),
            ("spawn_ns".to_owned(), Json::Num(self.spawn_ns)),
            ("speedup".to_owned(), Json::Num(self.speedup())),
        ])
    }
}

/// Mean wall time, in nanoseconds, of `iters` empty region entries under
/// `cfg`, after a warm-up (which populates the hot-team cache on the
/// pooled path and faults in thread stacks on the spawn path), so the
/// number isolates steady-state entry cost — what a program paying
/// region entry in a loop actually sees.
pub fn time_region_entries(cfg: &aomp::region::RegionConfig, iters: usize) -> f64 {
    use aomp::region::parallel_with;
    use std::time::Instant;

    for _ in 0..8.min(iters.max(1)) {
        parallel_with(cfg.clone(), || {});
    }
    let t0 = Instant::now();
    for _ in 0..iters {
        // The per-iteration clone is two `Option` copies plus an
        // `Option<Arc>` bump — noise next to the µs-scale entry cost
        // it measures, and exactly what a caller reusing a config
        // pays since `RegionConfig` stopped being `Copy`.
        parallel_with(cfg.clone(), || {});
    }
    t0.elapsed().as_nanos() as f64 / iters.max(1) as f64
}

/// Time `iters` empty region entries per path at team size `threads`.
pub fn measure_entry_overhead(threads: usize, iters: usize) -> EntryOverhead {
    use aomp::region::RegionConfig;

    let pooled_cfg = RegionConfig::new().threads(threads);
    let spawn_cfg = RegionConfig::new().threads(threads).pooled(false);
    EntryOverhead {
        threads,
        iters,
        pooled_ns: time_region_entries(&pooled_cfg, iters),
        spawn_ns: time_region_entries(&spawn_cfg, iters),
    }
}

/// Convert an [`aomp::obs`] snapshot (or delta — it derefs to a
/// snapshot) into a [`Json`] object: every counter, per-histogram
/// count/mean/coarse-quantiles, and the derived hot-team cache hit rate.
/// This is what the bench binaries embed under `"metrics"` in their
/// `BENCH_*.json` reports.
pub fn metrics_json(snap: &aomp::obs::Snapshot) -> Json {
    use aomp::obs::{Counter, Lat};
    let counters: Vec<(String, Json)> = Counter::ALL
        .iter()
        .map(|c| (c.name().to_owned(), Json::Num(snap.counter(*c) as f64)))
        .collect();
    let latency: Vec<(String, Json)> = Lat::ALL
        .iter()
        .map(|l| {
            let h = snap.hist(*l);
            (
                l.name().to_owned(),
                Json::Obj(vec![
                    ("count".to_owned(), Json::Num(h.count() as f64)),
                    ("mean_ns".to_owned(), Json::Num(h.mean_ns())),
                    ("p50_ns".to_owned(), Json::Num(h.quantile_ns(0.5) as f64)),
                    ("p99_ns".to_owned(), Json::Num(h.quantile_ns(0.99) as f64)),
                ]),
            )
        })
        .collect();
    let hits = snap.counter(Counter::PoolCacheHit) as f64;
    let misses = snap.counter(Counter::PoolCacheMiss) as f64;
    let hit_rate = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };
    Json::Obj(vec![
        ("counters".to_owned(), Json::Obj(counters)),
        ("latency_ns".to_owned(), Json::Obj(latency)),
        ("pool_hit_rate".to_owned(), Json::Num(hit_rate)),
    ])
}

/// Write any serialisable result set to `path` as pretty JSON (the
/// `--json <path>` option of the figure binaries).
pub fn write_json<T: ToJson + ?Sized>(path: &str, value: &T) -> std::io::Result<()> {
    std::fs::write(path, value.to_json().pretty())
}

/// Parse a `--json <path>` argument pair from the command line.
pub fn json_arg() -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1).cloned())
}

/// Render a simple ASCII bar.
pub fn bar(value: f64, scale: f64) -> String {
    let n = ((value * scale).round() as usize).min(120);
    "#".repeat(n.max(usize::from(value > 0.25)))
}

/// Hardware threads available on this host (1 if unknown).
pub fn host_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Best-of-`reps` wall time of `f`, in seconds — one-shot timings on a
/// busy shared container are noisy, and the minimum is the least noisy
/// location estimator for a deterministic workload.
pub fn best_of_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    use std::time::Instant;
    (0..reps.max(1))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// The standard sweep x-axis: powers of two from 1 up to (and always
/// including) `max` — `1, 2, 4, …, max`.
pub fn thread_ladder(max: usize) -> Vec<usize> {
    let max = max.max(1);
    let mut ts = Vec::new();
    let mut t = 1;
    while t < max {
        ts.push(t);
        t *= 2;
    }
    ts.push(max);
    ts
}

/// The one measurement loop shared by the sweep/fig13/serve/nr binaries:
/// a threads × variants grid of scalar measurements, with table
/// rendering and JSON emission in one place instead of one copy per
/// binary.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Grid label (machine name, server config, …).
    pub label: String,
    /// Unit of the measured values (`"speedup"`, `"Mops/s"`, `"req/s"`).
    pub unit: &'static str,
    /// The thread counts on the x-axis.
    pub threads: Vec<usize>,
    /// One measured series per variant, `values[i]` at `threads[i]`.
    pub series: Vec<(String, Vec<f64>)>,
}

impl SweepGrid {
    /// An empty grid over `threads`.
    pub fn new(label: impl Into<String>, unit: &'static str, threads: Vec<usize>) -> Self {
        Self {
            label: label.into(),
            unit,
            threads: if threads.is_empty() { vec![1] } else { threads },
            series: Vec::new(),
        }
    }

    /// Measure one variant across the whole x-axis: calls `f(t)` for
    /// every thread count and records the series.
    pub fn run(&mut self, name: impl Into<String>, mut f: impl FnMut(usize) -> f64) -> &mut Self {
        let values = self.threads.iter().map(|&t| f(t)).collect();
        self.series.push((name.into(), values));
        self
    }

    /// The measured value of `name` at thread count `t`.
    pub fn value(&self, name: &str, t: usize) -> Option<f64> {
        let col = self.threads.iter().position(|&x| x == t)?;
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, vs)| vs.get(col).copied())
    }

    /// Largest thread count on the x-axis.
    pub fn max_threads(&self) -> usize {
        self.threads.iter().copied().max().unwrap_or(1)
    }

    /// Smallest thread count at which `a`'s value reaches `b`'s and
    /// never falls back below it for the rest of the axis — the
    /// contention crossover point, if the grid has one.
    pub fn crossover(&self, a: &str, b: &str) -> Option<usize> {
        let mut from = None;
        for &t in &self.threads {
            let (va, vb) = (self.value(a, t)?, self.value(b, t)?);
            if va >= vb {
                from.get_or_insert(t);
            } else {
                from = None;
            }
        }
        from
    }

    /// Print the grid as an aligned text table.
    pub fn print_table(&self) {
        println!("== {} ({}) ==", self.label, self.unit);
        print!("{:<16}", "threads");
        for t in &self.threads {
            print!("{t:>10}");
        }
        println!();
        for (name, values) in &self.series {
            print!("{name:<16}");
            for v in values {
                print!("{v:>10.2}");
            }
            println!();
        }
        println!();
    }
}

impl ToJson for SweepGrid {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("label".to_owned(), Json::Str(self.label.clone())),
            ("unit".to_owned(), Json::Str(self.unit.to_owned())),
            (
                "threads".to_owned(),
                Json::Arr(self.threads.iter().map(|&t| Json::Num(t as f64)).collect()),
            ),
            (
                "series".to_owned(),
                Json::Obj(
                    self.series
                        .iter()
                        .map(|(n, vs)| {
                            (
                                n.clone(),
                                Json::Arr(vs.iter().map(|&v| Json::Num(v)).collect()),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig13_has_eight_benchmarks_per_machine() {
        for (m, t) in [(Machine::i7(), 8usize), (Machine::xeon(), 24)] {
            let rows = fig13_series(&m, t);
            assert_eq!(rows.len(), 8);
            for r in &rows {
                assert!(r.jgf > 0.9, "{} jgf {}", r.benchmark, r.jgf);
                assert!(
                    (r.aomp - r.jgf).abs() / r.jgf < 0.02,
                    "{}: {} vs {}",
                    r.benchmark,
                    r.jgf,
                    r.aomp
                );
            }
        }
    }

    #[test]
    fn fig13_shape_matches_paper() {
        // Xeon/24: embarrassingly parallel kernels above 10×; LUFact and
        // SOR the two worst ("scale poorly due to the lack of locality").
        let rows = fig13_series(&Machine::xeon(), 24);
        let get = |n: &str| rows.iter().find(|r| r.benchmark == n).unwrap().jgf;
        assert!(get("Series") > 12.0, "Series {}", get("Series"));
        assert!(get("Crypt") > 10.0, "Crypt {}", get("Crypt"));
        let worst_two = {
            let mut v: Vec<(&str, f64)> = rows.iter().map(|r| (r.benchmark, r.jgf)).collect();
            v.sort_by(|a, b| a.1.total_cmp(&b.1));
            [v[0].0, v[1].0]
        };
        assert!(
            worst_two.contains(&"LUFact") && worst_two.contains(&"SOR"),
            "{worst_two:?}"
        );
    }

    #[test]
    fn fig15_rows_cover_grid() {
        let rows = fig15_series();
        // 2 thread counts × (2 variants × 6 sizes + 1 JGF row).
        assert_eq!(rows.len(), 2 * (2 * 6 + 1));
        for r in &rows {
            assert!(r.speedup > 0.1 && r.speedup < 24.0, "{r:?}");
        }
    }

    #[test]
    fn fig15_headline_claims() {
        let rows = fig15_series();
        let find = |v: &str, n: usize, t: usize| {
            rows.iter()
                .find(|r| r.variant == v && r.particles == n && r.threads == t)
                .map(|r| r.speedup)
                .unwrap()
        };
        // Locks beat the JGF thread-local version at 12 threads (8788).
        assert!(find("Locks", 8788, 12) > find("JGF", 8788, 12));
        // Critical is the best strategy at 256k/500k with few threads.
        for n in [256_000, 500_000] {
            assert!(find("Critical", n, 4) >= find("Locks", n, 4), "n={n}");
        }
        // Critical is the worst choice at the smallest size.
        assert!(find("Critical", 864, 12) < find("Locks", 864, 12));
    }

    #[test]
    fn bar_renders_monotonically() {
        assert!(bar(8.0, 2.0).len() > bar(2.0, 2.0).len());
        assert_eq!(bar(0.0, 2.0), "");
    }

    #[test]
    fn thread_ladder_is_powers_of_two_plus_max() {
        assert_eq!(thread_ladder(1), vec![1]);
        assert_eq!(thread_ladder(8), vec![1, 2, 4, 8]);
        assert_eq!(thread_ladder(12), vec![1, 2, 4, 8, 12]);
        assert_eq!(thread_ladder(0), vec![1]);
    }

    #[test]
    fn sweep_grid_records_and_finds_the_crossover() {
        let mut g = SweepGrid::new("m", "Mops/s", vec![1, 2, 4, 8]);
        g.run("lock", |t| 10.0 / t as f64) // collapses
            .run("nr", |t| 2.0 + t as f64); // scales
        assert_eq!(g.value("lock", 1), Some(10.0));
        assert_eq!(g.value("nr", 8), Some(10.0));
        assert_eq!(g.max_threads(), 8);
        // lock: 10, 5, 2.5, 1.25; nr: 3, 4, 6, 10 → nr wins from t=4 on.
        assert_eq!(g.crossover("nr", "lock"), Some(4));
        assert_eq!(g.crossover("lock", "nr"), None);
    }

    #[test]
    fn sweep_grid_crossover_requires_staying_ahead() {
        let mut g = SweepGrid::new("m", "x", vec![1, 2, 4]);
        g.series.push(("a".into(), vec![2.0, 0.5, 3.0]));
        g.series.push(("b".into(), vec![1.0, 1.0, 1.0]));
        // `a` dips back below `b` at t=2, so only t=4 counts.
        assert_eq!(g.crossover("a", "b"), Some(4));
    }

    #[test]
    fn sweep_grid_json_shape() {
        let mut g = SweepGrid::new("xeon", "speedup", vec![1, 2]);
        g.run("crypt", |t| t as f64);
        let j = g.to_json().pretty();
        for key in ["\"label\"", "\"unit\"", "\"threads\"", "\"crypt\""] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }
}
