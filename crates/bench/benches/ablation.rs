//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * **fresh team per region vs pooled team** — paper Figure 9's model
//!   creates the team's threads on every region entry
//!   (`RegionConfig::pooled(false)`); a kept-warm team
//!   (`aomp::pool::TeamPool`, like the default hot-team cache) is the
//!   §VII "optimised mechanisms" alternative. This bench quantifies the
//!   region-entry cost difference.
//! * **schedule choice on irregular work** — triangle counting on a
//!   power-law graph under every library schedule plus the case-specific
//!   degree-balanced aspect (the Table 2 "CS" idiom).
//! * **weaver dispatch depth** — join-point cost as deployed aspect
//!   count grows (the price of the pluggability the paper advertises).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use aomp::prelude::*;
use aomp_weaver::prelude::*;

fn bench_spawn_vs_pool(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/region_pool");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_millis(900));
    for t in [2usize, 4] {
        let work = AtomicU64::new(0);
        g.bench_function(format!("spawn_per_region_t{t}"), |b| {
            b.iter(|| {
                for _ in 0..20 {
                    region::parallel_with(RegionConfig::new().threads(t).pooled(false), || {
                        work.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
        });
        let pool = TeamPool::new(t);
        g.bench_function(format!("pooled_team_t{t}"), |b| {
            b.iter(|| {
                for _ in 0..20 {
                    pool.parallel(|| {
                        work.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
        });
        black_box(work.load(Ordering::Relaxed));
    }
    g.finish();
}

fn bench_triangle_schedules(c: &mut Criterion) {
    use aomp_irregular::triangles::{aspect, count_oriented, orient, TriSchedule};
    use aomp_irregular::{CsrGraph, GraphKind};

    let g_raw = CsrGraph::generate(GraphKind::PowerLaw, 2_000, 8, 99);
    let oriented = orient(&g_raw);
    let mut g = c.benchmark_group("ablation/tri_schedule");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_millis(900));
    g.bench_function("sequential", |b| {
        b.iter(|| black_box(count_oriented(&oriented)))
    });
    for sched in TriSchedule::ALL {
        g.bench_function(sched.name(), |b| {
            b.iter(|| {
                Weaver::global().with_deployed(aspect(2, sched, &oriented), || {
                    black_box(count_oriented(&oriented))
                })
            })
        });
    }
    g.finish();
}

fn bench_weaver_depth(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/weaver_depth");
    g.sample_size(10);
    g.warm_up_time(Duration::from_millis(300));
    g.measurement_time(Duration::from_millis(900));
    for deployed in [0usize, 1, 4, 16] {
        // Deploy `deployed` aspects that do NOT match the probed join
        // point: measures pure registry-scan overhead.
        let handles: Vec<AspectHandle> = (0..deployed)
            .map(|i| {
                Weaver::global().deploy(
                    AspectModule::builder(format!("noise-{i}"))
                        .bind(
                            Pointcut::call(format!("noise.jp.{i}")),
                            Mechanism::critical(),
                        )
                        .build(),
                )
            })
            .collect();
        let v = AtomicU64::new(0);
        g.bench_function(format!("unmatched_x1k_deployed{deployed}"), |b| {
            b.iter(|| {
                for _ in 0..1_000 {
                    aomp_weaver::call("ablation.unmatched", || {
                        v.fetch_add(1, Ordering::Relaxed);
                    });
                }
                black_box(v.load(Ordering::Relaxed))
            })
        });
        for h in handles {
            Weaver::global().undeploy(h);
        }
    }
    g.finish();
}

criterion_group!(
    ablation,
    bench_spawn_vs_pool,
    bench_triangle_schedules,
    bench_weaver_depth
);
criterion_main!(ablation);
