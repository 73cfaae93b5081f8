//! The per-layer cost ledger: unit costs from tight loops over each
//! layer's public API — empty bodies, `T` threads — the fine-grained
//! overhead accounting the per-layer attribution multiplies counters by.
//! Every row is the median of at least eleven batches (three in smoke
//! runs), each batch sized from a short probe to a fixed share of the
//! row's time budget.

use crate::stats::median;
use crate::workloads::{Cfg, Extras};
use aomp::nr::{Dispatch, Replicated};
use aomp::obs::{self, Counter};
use aomp::pool::TeamPool;
use aomp::prelude::*;
use aomp_macros::{critical, for_loop, parallel};
use aomp_weaver::{AspectModule, Mechanism, Pointcut, Weaver};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Iterations of the empty-body loop every workshare row hands out.
const LOOP_ITERS: i64 = 4096;
/// Tasks per `TaskGroup` in `task.spawn_wait_ns`.
const GROUP_TASKS: u64 = 32;

// The annotation-style shims under test: empty annotated functions, to be
// read against the direct-API row of the same construct.
#[parallel]
fn shim_parallel() {
    black_box(thread_id());
}

#[for_loop(schedule = "staticBlock")]
fn shim_for(lo: i64, hi: i64, step: i64) {
    black_box((lo, hi, step));
}

#[critical]
fn shim_critical(v: &mut u64) {
    *v = v.wrapping_add(1);
}

/// A replicated counter: the smallest `Dispatch` there is.
#[derive(Clone, Default)]
struct Tally(u64);

impl Dispatch for Tally {
    type ReadOp = ();
    type WriteOp = u64;
    type Response = u64;

    fn dispatch(&self, _op: &()) -> u64 {
        self.0
    }

    fn dispatch_mut(&mut self, op: &u64) -> u64 {
        self.0 = self.0.wrapping_add(*op);
        self.0
    }
}

struct Bench {
    /// Time budget of one row, seconds.
    budget: f64,
    min_batches: usize,
    t: usize,
}

impl Bench {
    /// Nanoseconds per operation: `batch(n)` performs `n` operations and
    /// returns the time they took (which may leave out untimed set-up, so
    /// batches are sized by the wall time of a probe).
    fn sample(&self, mut batch: impl FnMut(u64) -> Duration) -> f64 {
        const PROBE: u64 = 4;
        batch(PROBE); // first touch: lazy init, thread start, page faults
        let probe = Instant::now();
        batch(PROBE);
        let per_op = probe.elapsed().as_secs_f64() / PROBE as f64;
        let share = self.budget / (self.min_batches + 1) as f64;
        let n = (share / per_op.max(1e-9)).clamp(PROBE as f64, 1e7) as u64;
        let mut samples = Vec::new();
        let started = Instant::now();
        while samples.len() < self.min_batches || started.elapsed().as_secs_f64() < self.budget {
            samples.push(batch(n).as_secs_f64() * 1e9 / n as f64);
        }
        median(&samples)
    }

    /// `each` called `n` times from the calling thread.
    fn per_op(&self, mut each: impl FnMut()) -> f64 {
        self.sample(|n| {
            let t0 = Instant::now();
            for _ in 0..n {
                each();
            }
            t0.elapsed()
        })
    }

    /// `each(tid)` called `n` times by every member of one `T`-thread
    /// region: wall time per encounter (the region's own entry is
    /// amortised over the batch).
    fn per_encounter(&self, each: impl Fn(usize) + Sync) -> f64 {
        self.sample(|n| {
            let t0 = Instant::now();
            region::parallel_with(self.team(), || {
                let tid = thread_id();
                for _ in 0..n {
                    each(tid);
                }
            });
            t0.elapsed()
        })
    }

    fn team(&self) -> RegionConfig {
        RegionConfig::new().threads(self.t)
    }
}

/// An aspect whose single binding matches only `name`.
fn call_aspect(name: &str) -> AspectModule {
    AspectModule::builder(format!("Ledger[{name}]"))
        .bind(Pointcut::call(name), Mechanism::barrier_after())
        .build()
}

/// The fixed two-thread barrier + critical program the checker explores.
fn checked_program() {
    let lock = CriticalHandle::new();
    let hits = std::sync::atomic::AtomicU64::new(0);
    region::parallel_with(RegionConfig::new().threads(2), || {
        lock.run(|| hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
        barrier();
        lock.run(|| hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
    });
    assert_eq!(hits.into_inner(), 4);
}

/// Measure every ledger row; `row_seconds` is each row's time budget.
pub fn run(cfg: &Cfg, row_seconds: f64) -> Extras {
    let b = Bench {
        budget: row_seconds,
        min_batches: if cfg.smoke { 3 } else { 11 },
        t: cfg.t,
    };
    let t = cfg.t;
    let mut out = Extras::new();
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_owned(), v);
    };
    let pool_before = obs::snapshot();

    // -- region, pool, obs --------------------------------------------
    let touch = || {
        black_box(thread_id());
    };
    let entry_pooled = b.per_op(|| region::parallel_with(b.team(), touch));
    put("region.entry_pooled_ns", entry_pooled);
    obs::set_metrics(true);
    let entry_metrics_on = b.per_op(|| region::parallel_with(b.team(), touch));
    obs::set_metrics(false);
    put("obs.metrics_on_ratio", entry_metrics_on / entry_pooled);
    put(
        "obs.snapshot_us",
        b.per_op(|| {
            black_box(obs::snapshot());
        }) / 1e3,
    );
    put(
        "region.entry_spawned_ns",
        b.per_op(|| region::parallel_with(b.team().pooled(false), touch)),
    );
    put(
        "region.entry_inline_ns",
        b.per_op(|| region::parallel_with(RegionConfig::new().threads(1), touch)),
    );
    // A nested T-thread region entered from inside an enclosing (inline)
    // region: the level-2 entry path without oversubscribing the host.
    put(
        "region.entry_nested_ns",
        b.sample(|n| {
            let t0 = Instant::now();
            region::parallel_with(RegionConfig::new().threads(1), || {
                for _ in 0..n {
                    region::parallel_with(b.team().nested(true), touch);
                }
            });
            t0.elapsed()
        }),
    );
    // aomp-serve's entry: cancellable, with a stall deadline armed.
    let serve_cfg = || {
        b.team()
            .cancellable(true)
            .stall_deadline(Duration::from_millis(500))
    };
    put(
        "region.try_entry_pooled_ns",
        b.per_op(|| {
            region::try_parallel_with(serve_cfg(), touch).expect("empty region cannot fail");
        }),
    );
    put("macros.parallel_shim_ns", b.per_op(shim_parallel));
    let user_pool = TeamPool::new(t);
    put(
        "pool.team_pool_run_ns",
        b.per_op(|| user_pool.parallel(touch)),
    );
    drop(user_pool);

    // -- workshare / schedule -----------------------------------------
    let range = LoopRange::upto(0, LOOP_ITERS);
    for (name, schedule) in [
        ("workshare.for_static_block_ns", Schedule::StaticBlock),
        ("workshare.for_static_cyclic_ns", Schedule::StaticCyclic),
        ("workshare.for_dynamic1_ns", Schedule::Dynamic { chunk: 1 }),
        (
            "workshare.for_dynamic64_ns",
            Schedule::Dynamic { chunk: 64 },
        ),
        ("workshare.for_guided_ns", Schedule::GUIDED),
        ("workshare.for_adaptive_ns", Schedule::ADAPTIVE),
    ] {
        let for_c = ForConstruct::new(schedule);
        put(
            name,
            b.per_encounter(|_| {
                for_c.execute(range, |lo, hi, step| {
                    black_box((lo, hi, step));
                })
            }),
        );
    }
    put(
        "macros.for_shim_ns",
        b.per_encounter(|_| shim_for(0, LOOP_ITERS, 1)),
    );

    // -- barrier, critical, sync --------------------------------------
    put("barrier.round_ns", b.per_encounter(|_| barrier()));
    let own_locks: Vec<CriticalHandle> = (0..t).map(|_| CriticalHandle::new()).collect();
    put(
        "critical.uncontended_ns",
        b.per_encounter(|tid| own_locks[tid].run(|| black_box(()))),
    );
    // Wall time per acquisition with the whole team on one lock.
    let shared_lock = CriticalHandle::new();
    put(
        "critical.contended_ns",
        b.per_encounter(|_| shared_lock.run(|| black_box(()))) / t as f64,
    );
    // The name-registry lookup path, one name per member.
    let names: Vec<String> = (0..t).map(|tid| format!("ledger.named.{tid}")).collect();
    put(
        "critical.named_ns",
        b.per_encounter(|tid| critical_named(&names[tid], || black_box(()))),
    );
    put(
        "macros.critical_shim_ns",
        b.sample(|n| {
            let mut v = 0u64;
            let t0 = Instant::now();
            for _ in 0..n {
                shim_critical(&mut v);
            }
            black_box(v);
            t0.elapsed()
        }),
    );
    let single = Single::new();
    put(
        "sync.single_ns",
        b.per_encounter(|_| {
            black_box(single.run(|| 1u64));
        }),
    );
    let master = Master::new();
    put(
        "sync.master_broadcast_ns",
        b.per_encounter(|_| {
            black_box(master.run(|| 1u64));
        }),
    );
    // Tickets ascend from 0 per sequencer, so each batch takes a new one;
    // member `tid` holds tickets tid, tid + T, ...: time per turn.
    put(
        "sync.ordered_turn_ns",
        b.sample(|n| {
            let ordered = Ordered::new();
            let t0 = Instant::now();
            region::parallel_with(b.team(), || {
                let tid = thread_id() as u64;
                for k in 0..n {
                    ordered.run(k * t as u64 + tid, || black_box(()));
                }
            });
            t0.elapsed()
        }) / t as f64,
    );
    let rw = RwConstruct::new();
    put(
        "sync.rw_read_ns",
        b.per_encounter(|_| rw.read(|| black_box(()))),
    );

    // -- threadlocal, reduction ---------------------------------------
    let field = ThreadLocalField::new(0u64);
    put(
        "threadlocal.update_ns",
        b.per_encounter(|_| field.update(|v| *v = v.wrapping_add(1))),
    );
    // One `@Reduce` merging the team's T thread-local copies; the region
    // that creates the copies is outside the timed section. Copies start
    // from the global value, so it is zeroed again after every merge.
    put(
        "reduction.combine_ns",
        b.sample(|n| {
            let mut timed = Duration::ZERO;
            for _ in 0..n {
                field.replace_global(0);
                region::parallel_with(b.team(), || field.update(|v| *v += 1));
                let t0 = Instant::now();
                black_box(field.reduce(&SumReducer));
                timed += t0.elapsed();
            }
            timed
        }),
    );

    // -- task, deps ---------------------------------------------------
    put(
        "task.spawn_wait_ns",
        b.per_op(|| {
            let group = TaskGroup::new();
            for _ in 0..GROUP_TASKS {
                group.spawn(|| {
                    black_box(());
                });
            }
            group.wait();
        }) / GROUP_TASKS as f64,
    );
    put(
        "task.future_roundtrip_ns",
        b.per_op(|| {
            black_box(task::spawn_future(|| 1u64).get());
        }),
    );
    // Dependence graphs the way the irregular kernels drive them: the
    // master spawns, every member of a T-thread region runs.
    let dep_graph = |tag_of: fn(u64) -> Dep| {
        b.sample(|n| {
            let group = DepGroup::new();
            let t0 = Instant::now();
            region::parallel_with(b.team(), || {
                if thread_id() == 0 {
                    for k in 0..n {
                        group.spawn([tag_of(k)], || {
                            black_box(());
                        });
                    }
                    group.close();
                }
                group.run().expect("tag-derived dependences are acyclic");
            });
            t0.elapsed()
        })
    };
    put(
        "deps.chain_task_ns",
        dep_graph(|_| Dep::inout(Tag::part("ledger.chain", 0))),
    );
    put(
        "deps.independent_task_ns",
        dep_graph(|k| Dep::output(Tag::part("ledger.free", k))),
    );
    let taskloop = TaskloopConstruct::new();
    put(
        "deps.taskloop_ns",
        b.per_encounter(|_| {
            taskloop.execute(range, |lo, hi, step| {
                black_box((lo, hi, step));
            })
        }),
    );

    // -- nr -----------------------------------------------------------
    let tally = Replicated::new(Tally::default());
    put(
        "nr.write_ns",
        b.per_op(|| {
            black_box(tally.execute(1));
        }),
    );
    put(
        "nr.read_ns",
        b.per_op(|| {
            black_box(tally.execute_ro(&()));
        }),
    );
    // Wall time per write with the whole team writing.
    put(
        "nr.write_contended_ns",
        b.per_encounter(|_| {
            black_box(tally.execute(1));
        }) / t as f64,
    );

    // -- weaver -------------------------------------------------------
    let weaver = Weaver::global();
    let unmatched = || aomp_weaver::call("ledger.unmatched", || black_box(()));
    put("weaver.dispatch_unmatched_ns", b.per_op(unmatched));
    let others: Vec<_> = (0..16)
        .map(|k| weaver.deploy(call_aspect(&format!("ledger.other.{k}"))))
        .collect();
    put("weaver.dispatch_unmatched_16_ns", b.per_op(unmatched));
    for handle in others {
        weaver.undeploy(handle);
    }
    put(
        "weaver.dispatch_matched_ns",
        weaver.with_deployed(call_aspect("ledger.matched"), || {
            b.per_op(|| aomp_weaver::call("ledger.matched", || black_box(())))
        }),
    );
    // A glob pointcut against a name built with format!, as evolib does
    // once per generation.
    let glob = AspectModule::builder("Ledger[glob]")
        .bind(
            Pointcut::glob("Evolib.*.evaluate"),
            Mechanism::barrier_after(),
        )
        .build();
    put(
        "weaver.dispatch_glob_ns",
        weaver.with_deployed(glob, || {
            b.per_op(|| {
                let name = format!("Evolib.{}.evaluate", black_box("GA"));
                aomp_weaver::call(&name, || black_box(()))
            })
        }),
    );
    put(
        "weaver.deploy_undeploy_us",
        b.per_op(|| weaver.with_deployed(aomp_evolib::parallel_evaluation_aspect(t), || ())) / 1e3,
    );

    // -- pool hit ratio over everything above (always-on counters) ----
    let pool = obs::snapshot().since(&pool_before);
    let (hits, misses) = (
        pool.counter(Counter::PoolCacheHit) as f64,
        pool.counter(Counter::PoolCacheMiss) as f64,
    );
    put("pool.hit_ratio", hits / (hits + misses).max(1.0));

    // -- check: last, it installs the process-global scheduling hook --
    let explore = |races: bool| {
        b.sample(|n| {
            let t0 = Instant::now();
            aomp_check::Explorer::new()
                .races(races)
                .random(n as usize, cfg.seed, checked_program)
                .assert_ok();
            t0.elapsed()
        })
    };
    let (unarmed, armed) = (explore(false), explore(true));
    put("check.explore_schedules_per_s", 1e9 / unarmed);
    put("check.race_armed_ratio", armed / unarmed);
    out
}
