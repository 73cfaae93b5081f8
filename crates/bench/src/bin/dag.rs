//! Dependent task graphs vs barriered phases (`aomp::deps`): PageRank
//! with a fixed iteration count as a per-(iteration × partition) task
//! graph (`pagerank::run_deps`) against its barriered twin
//! (`pagerank::run_phased`) — measured on this host and on the simcore
//! Xeon model, where the dag's critical path is computed by longest-path
//! DP over the *actual* dependence graph the runtime builds (RAW edges
//! from the transpose's partition structure, WAR edges from the previous
//! iteration's reader set). Writes `BENCH_dag.json`.
//!
//! The expected shape, and what CI validates: on the skewed input (a
//! power-law graph transposed so the in-degree — the pull-sweep's cost —
//! concentrates in the head partitions) the barriered twin pays every
//! round's worst-thread overload plus two barriers per iteration, while
//! the dependent graph lets light partitions pipeline into the next
//! iteration as soon as their own source partitions settle; on the
//! uniform input the two stay close. Every measured run, both variants,
//! is asserted bitwise equal to the sequential `reference_iters` — and
//! BFS's dependent graph (`bfs::run_deps`) equal to its reference — so
//! the report's `"equal"` bit certifies the refactor preserved
//! sequential semantics on this host.
//!
//! ```text
//! dag [--n N] [--deg D]   (or AOMP_DAG_BENCH_N; defaults 20000, 12)
//! ```

use aomp_bench::{best_of_secs, host_threads, thread_ladder, SweepGrid};
use aomp_irregular::{bfs, pagerank, CsrGraph, GraphKind};
use aomp_simcore::{Json, Machine, Program, Simulator, Step, ToJson};
use aomp_weaver::Weaver;

/// Power iterations per run (fixed — the twins must do identical work).
const ITERS: usize = 10;
/// Vertex partitions of the dependent graph (tasks per iteration).
const PARTS: usize = 32;
/// Machine ops charged per in-edge of a pull sweep (load, divide-free
/// multiply-add via the cached reciprocal path, accumulate).
const OPS_PER_EDGE: f64 = 4.0;
/// Per-vertex framing ops (teleport term, store).
const OPS_PER_VERTEX: f64 = 8.0;

/// Modelled ops of each partition's sweep task (from the actual
/// transpose, not a synthetic skew parameter).
fn partition_costs(gt: &CsrGraph, parts: usize) -> Vec<f64> {
    let n = gt.vertices();
    (0..parts)
        .map(|p| {
            let (lo, hi) = pagerank::partition_bounds(n, parts, p);
            (lo..hi)
                .map(|v| gt.degree(v) as f64 * OPS_PER_EDGE + OPS_PER_VERTEX)
                .sum()
        })
        .collect()
}

/// Most-loaded-thread share over the even share under the contiguous
/// block partition the barriered sweep uses at team size `t`.
fn block_imbalance(gt: &CsrGraph, t: usize) -> f64 {
    let n = gt.vertices();
    let per_vertex: Vec<f64> = (0..n)
        .map(|v| gt.degree(v) as f64 * OPS_PER_EDGE + OPS_PER_VERTEX)
        .collect();
    let total: f64 = per_vertex.iter().sum();
    if total == 0.0 || t == 0 {
        return 1.0;
    }
    let chunk = n.div_ceil(t);
    let max = (0..t)
        .map(|tid| {
            let lo = (tid * chunk).min(n);
            let hi = ((tid + 1) * chunk).min(n);
            per_vertex[lo..hi].iter().sum::<f64>()
        })
        .fold(0.0, f64::max);
    (max * t as f64 / total).max(1.0)
}

/// Ops-weighted longest path through the dependence DAG `run_deps`
/// builds: iteration k's partition-p task waits on the iteration-(k-1)
/// tasks of the partitions it reads (RAW, from `source_partitions`) and
/// of the partitions that read *it* last iteration (WAR, the runtime's
/// reader-set fence).
fn critical_path_ops(costs: &[f64], srcparts: &[Vec<u64>], iters: usize) -> f64 {
    let parts = costs.len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); parts];
    for (p, sources) in srcparts.iter().enumerate() {
        for &q in sources {
            preds[p].push(q as usize); // RAW: p reads q's slice
        }
    }
    for (q, sources) in srcparts.iter().enumerate() {
        for &p in sources {
            let p = p as usize;
            if !preds[p].contains(&q) {
                preds[p].push(q); // WAR: q read the slice p rewrites
            }
        }
    }
    let mut prev = costs.to_vec();
    for _ in 1..iters {
        prev = (0..parts)
            .map(|p| costs[p] + preds[p].iter().map(|&q| prev[q]).fold(0.0, f64::max))
            .collect();
    }
    prev.iter().copied().fold(0.0, f64::max)
}

/// Simulated sweep-ops/µs of the two formulations on the Xeon model.
fn simulated_grid(label: &str, gt: &CsrGraph) -> (SweepGrid, f64, f64) {
    let m = Machine::xeon();
    let sim = Simulator::new(m.clone());
    let costs = partition_costs(gt, PARTS);
    let srcparts = pagerank::source_partitions(gt, PARTS);
    let per_iter: f64 = costs.iter().sum();
    let total_ops = per_iter * ITERS as f64;
    let crit_ops = critical_path_ops(&costs, &srcparts, ITERS);
    let tasks = (ITERS * PARTS) as f64;

    let mut grid = SweepGrid::new(label.to_owned(), "ops/us", (1..=m.hw_threads).collect());
    grid.run("barriered", |t| {
        let p = Program::repeat(
            "phased",
            vec![
                Step::Parallel {
                    ops: per_iter,
                    bytes: 0.0,
                    imbalance: block_imbalance(gt, t),
                },
                Step::Barrier,
            ],
            ITERS,
        );
        total_ops / sim.run(&p, t)
    });
    grid.run("dag", |t| {
        let p = Program::new(
            "dag",
            vec![Step::TaskDag {
                ops: total_ops,
                bytes: 0.0,
                crit_ops,
                tasks,
            }],
        );
        total_ops / sim.run(&p, t)
    });
    (grid, crit_ops, total_ops)
}

/// Measured sweep-ops/µs of the two formulations on this host; every
/// repetition is asserted bitwise equal to the sequential reference.
fn measured_grid(label: &str, g: &CsrGraph, expect: &[f64], total_ops: f64) -> SweepGrid {
    let mut grid = SweepGrid::new(
        format!("{label} on this host ({} hw threads)", host_threads()),
        "ops/us",
        thread_ladder(host_threads().max(4)),
    );
    grid.run("barriered", |t| {
        let secs = best_of_secs(2, || {
            let got = Weaver::global()
                .with_deployed(pagerank::aspect(t), || pagerank::run_phased(g, ITERS));
            assert_eq!(got, expect, "phased t={t} diverged from reference");
        });
        total_ops / (secs * 1e6)
    });
    grid.run("dag", |t| {
        let secs = best_of_secs(2, || {
            let got = Weaver::global().with_deployed(pagerank::aspect_deps(t), || {
                pagerank::run_deps(g, ITERS, PARTS)
            });
            assert_eq!(got, expect, "dag t={t} diverged from reference");
        });
        total_ops / (secs * 1e6)
    });
    grid
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.trim().parse::<usize>().ok())
    };
    let n = flag("--n")
        .or_else(|| {
            std::env::var("AOMP_DAG_BENCH_N")
                .ok()
                .and_then(|v| v.trim().parse().ok())
        })
        .filter(|&n| n >= 100)
        .unwrap_or(20_000);
    let deg = flag("--deg").filter(|&d| d >= 2).unwrap_or(12);

    let mut sections = Vec::new();
    for (key, g) in [
        // Transposed power-law: the pull sweep's cost (in-degree) lands
        // skewed into the head partitions — the dag's home turf.
        (
            "skewed",
            CsrGraph::generate(GraphKind::PowerLaw, n, deg, 42).transpose(),
        ),
        (
            "uniform",
            CsrGraph::generate(GraphKind::Uniform, n, deg, 42),
        ),
    ] {
        let gt = g.transpose();
        let costs = partition_costs(&gt, PARTS);
        let per_iter: f64 = costs.iter().sum();
        let total_ops = per_iter * ITERS as f64;
        let expect = pagerank::reference_iters(&g, ITERS);
        println!(
            "== {key}: {} vertices, {} edges, block imbalance at 12 threads {:.2} ==\n",
            g.vertices(),
            g.edges(),
            block_imbalance(&gt, 12),
        );

        let measured = measured_grid(key, &g, &expect, total_ops);
        measured.print_table();
        let (simulated, crit_ops, _) = simulated_grid(&format!("{key} on the Xeon model"), &gt);
        simulated.print_table();

        sections.push((
            key.to_owned(),
            Json::Obj(vec![
                ("measured".to_owned(), measured.to_json()),
                ("simulated".to_owned(), simulated.to_json()),
                ("total_ops".to_owned(), Json::Num(total_ops)),
                ("crit_ops".to_owned(), Json::Num(crit_ops)),
                ("tasks".to_owned(), Json::Num((ITERS * PARTS) as f64)),
                (
                    "block_imbalance_t12".to_owned(),
                    Json::Num(block_imbalance(&gt, 12)),
                ),
            ]),
        ));
    }

    // BFS's dependent graph must also match its sequential reference —
    // part of the report's equality certificate.
    let bg = CsrGraph::generate(GraphKind::PowerLaw, n, deg, 7);
    let bfs_equal = bfs::run_deps(&bg, 0, 64, PARTS) == bfs::reference(&bg, 0);
    println!("bfs dag == reference: {bfs_equal}\n");

    // The measured grids assert equality every repetition, so reaching
    // this point certifies both pagerank variants; record it with BFS's.
    let mut report = vec![
        ("vertices".to_owned(), Json::Num(n as f64)),
        ("avg_degree".to_owned(), Json::Num(deg as f64)),
        ("iters".to_owned(), Json::Num(ITERS as f64)),
        ("parts".to_owned(), Json::Num(PARTS as f64)),
        ("equal".to_owned(), Json::Bool(bfs_equal)),
    ];
    report.extend(sections);
    std::fs::write("BENCH_dag.json", Json::Obj(report).pretty()).expect("write BENCH_dag.json");
    println!("(wrote BENCH_dag.json)");
}
