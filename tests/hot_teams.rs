//! Hot teams under failure: every region runs on a hot team — leased
//! from the cache (the default), or built fresh — and must survive
//! cancellation, member panics and stall diagnoses without poisoning the
//! cache for the next region, whatever the team's provenance; and the
//! shared task executor behind `task::spawn` must stay live when tasks
//! block on each other.

use aomp_check as check;
use aomplib::prelude::*;
use aomplib::runtime::clock::VirtualClock;
use aomplib::runtime::hook::{self, HookEvent, SchedHook};
use aomplib::runtime::obs::{Counter, Snapshot};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Tests that register a process-global hook serialise here.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A private runtime for the tests that are about the cache: entered, it
/// serves every region of the test from a cache no other test in the
/// binary leases from, and counts them in a scope no other test moves.
fn pooled_runtime() -> Runtime {
    Runtime::builder().build()
}

/// `(pooled, spawned)` regions `rt` ran since `before`.
fn regions_since(rt: &Runtime, before: &Snapshot) -> (u64, u64) {
    let d = rt.metrics_snapshot().since(before);
    (
        d.counter(Counter::RegionPooled),
        d.counter(Counter::RegionSpawned),
    )
}

#[test]
fn top_level_regions_use_the_hot_team_cache() {
    let rt = pooled_runtime();
    let _in_rt = rt.enter();
    let before = rt.metrics_snapshot();
    for _ in 0..4 {
        let hits = AtomicUsize::new(0);
        region::parallel_with(RegionConfig::new().threads(5), || {
            hits.fetch_add(1, Ordering::SeqCst);
            barrier();
        });
        assert_eq!(hits.load(Ordering::SeqCst), 5);
    }
    assert_eq!(
        regions_since(&rt, &before),
        (4, 0),
        "top-level regions should take the pooled path"
    );
}

#[test]
fn pooled_false_forces_the_spawn_path() {
    let rt = pooled_runtime();
    let before = rt.metrics_snapshot();
    let hits = AtomicUsize::new(0);
    rt.parallel_with(RegionConfig::new().threads(4).pooled(false), || {
        hits.fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(hits.load(Ordering::SeqCst), 4);
    assert_eq!(regions_since(&rt, &before), (0, 1));
}

#[test]
fn nested_regions_fall_back_to_spawning() {
    let rt = pooled_runtime();
    let _in_rt = rt.enter();
    let before = rt.metrics_snapshot();
    let inner_hits = AtomicUsize::new(0);
    region::parallel_with(RegionConfig::new().threads(2), || {
        region::parallel_with(RegionConfig::new().threads(2), || {
            inner_hits.fetch_add(1, Ordering::SeqCst);
        });
    });
    // 2 outer members × 2 inner members each.
    assert_eq!(inner_hits.load(Ordering::SeqCst), 4);
    assert_eq!(
        regions_since(&rt, &before),
        (1, 2),
        "the outer region should be pooled, both inner regions spawned (nesting fallback)"
    );
}

#[test]
fn cancelled_pooled_region_leaves_the_cache_clean() {
    let rt = pooled_runtime();
    let _in_rt = rt.enter();
    for round in 0..3 {
        let r = region::try_parallel_with(RegionConfig::new().threads(4).cancellable(true), || {
            if thread_id() == 1 {
                cancel_team();
            }
            while cancellation_point().is_ok() {
                std::thread::yield_now();
            }
        });
        assert_eq!(r, Err(RegionError::Cancelled), "round {round}");
        // The same team size must come back healthy from the cache.
        let hits = AtomicUsize::new(0);
        region::parallel_with(RegionConfig::new().threads(4), || {
            hits.fetch_add(1, Ordering::SeqCst);
            barrier();
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4, "round {round}");
    }
}

#[test]
fn member_panic_does_not_poison_the_cache() {
    let rt = pooled_runtime();
    let _in_rt = rt.enter();
    for round in 0..3 {
        let r = catch_unwind(AssertUnwindSafe(|| {
            region::parallel_with(RegionConfig::new().threads(4), || {
                if thread_id() == 2 {
                    panic!("injected pooled-member failure");
                }
                barrier();
            });
        }));
        assert!(r.is_err(), "round {round}: panic must reach the caller");
        let hits = AtomicUsize::new(0);
        region::parallel_with(RegionConfig::new().threads(4), || {
            hits.fetch_add(1, Ordering::SeqCst);
            barrier();
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4, "round {round}");
    }
}

#[test]
fn stall_watchdog_fires_whatever_the_team_source() {
    let rt = pooled_runtime();
    let _in_rt = rt.enter();
    // The hang is synchronisation-level (one member waits at a barrier
    // round the rest never join), so the watchdog's force-cancel can wake
    // it and every join policy completes: the full join on a leased and
    // on a fresh team, and the give-up join without giving up.
    fn deadlock() {
        barrier();
        if thread_id() == 1 {
            barrier();
        }
    }
    let cfg = || {
        RegionConfig::new()
            .threads(3)
            .stall_deadline(Duration::from_secs(300))
    };
    type Row = (
        &'static str,
        bool,
        fn(RegionConfig) -> Result<(), RegionError>,
    );
    let rows: [Row; 3] = [
        ("cached", true, |c| region::try_parallel_with(c, deadlock)),
        ("pooled(false)", false, |c| {
            region::try_parallel_with(c.pooled(false), deadlock)
        }),
        ("detached", false, |c| {
            region::try_parallel_detached(c, deadlock)
        }),
    ];
    for (name, cached, run) in rows {
        let before = rt.metrics_snapshot();
        // Virtual time: a 5-minute deadline elapses in wall-clock
        // microseconds.
        let clock = VirtualClock::install();
        let r = run(cfg());
        drop(clock);
        assert!(
            matches!(r, Err(RegionError::Stalled { .. })),
            "{name}: expected a stall diagnosis, got {r:?}"
        );
        assert_eq!(
            regions_since(&rt, &before),
            if cached { (1, 0) } else { (0, 1) },
            "{name}"
        );
        // The cache survives the stall.
        let hits = AtomicUsize::new(0);
        region::parallel_with(RegionConfig::new().threads(3), || {
            hits.fetch_add(1, Ordering::SeqCst);
            barrier();
        });
        assert_eq!(hits.load(Ordering::SeqCst), 3, "{name}");
    }
}

thread_local! {
    /// (RegionStart, RegionEnd) events emitted by this thread — both come
    /// from the region's master, so sibling tests' regions count on their
    /// own threads.
    static REGION_EVENTS: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

struct CountRegionEvents;

impl SchedHook for CountRegionEvents {
    fn event(&self, ev: &HookEvent) {
        REGION_EVENTS.with(|c| {
            let (starts, ends) = c.get();
            match ev {
                HookEvent::RegionStart { .. } => c.set((starts + 1, ends)),
                HookEvent::RegionEnd { .. } => c.set((starts, ends + 1)),
                _ => {}
            }
        });
    }
}

#[test]
fn explored_region_is_schedule_independent_whatever_the_team_source() {
    let _s = serial();
    struct State {
        h: CriticalHandle,
        total: AtomicUsize,
    }
    fn body(st: &State) {
        st.h.run(|| {
            st.total.fetch_add(thread_id() + 1, Ordering::SeqCst);
        });
        barrier();
        st.total.fetch_add(10, Ordering::SeqCst);
    }
    // The explorer runs each schedule on a runtime of its own; the cached
    // row names `rt` so its regions are counted where this test reads.
    let rt = pooled_runtime();
    let team = || RegionConfig::new().threads(2);
    let user_pool = TeamPool::new(2);
    // (name, regions entered per run, the run itself). Only the nested
    // row's explored region is not the one the checker controls (it binds
    // the outermost), so its interleavings differ from the other rows'.
    type Run<'a> = &'a dyn Fn(&Arc<State>);
    let rows: [(&str, usize, Run); 5] = [
        ("cached", 1, &|st| {
            region::parallel_with(team().runtime(&rt), || body(st))
        }),
        ("pooled(false)", 1, &|st| {
            region::parallel_with(team().pooled(false), || body(st))
        }),
        ("nested in a 1-thread region", 2, &|st| {
            region::parallel_with(RegionConfig::new().threads(1), || {
                region::parallel_with(team(), || body(st))
            })
        }),
        ("try_parallel_detached", 1, &|st| {
            let st = Arc::clone(st);
            region::try_parallel_detached(team(), move || body(&st)).expect("clean region")
        }),
        ("TeamPool", 1, &|st| user_pool.parallel(|| body(st))),
    ];
    let run_once = |run: Run| {
        let st = Arc::new(State {
            h: CriticalHandle::new(),
            total: AtomicUsize::new(0),
        });
        run(&st);
        assert_eq!(st.total.load(Ordering::SeqCst), 23);
    };
    let seeds = check::seeds_from_env(24);
    let mut controlled_digests = None;
    for (name, regions, run) in rows {
        // One RegionStart/RegionEnd pair per region, seen natively.
        REGION_EVENTS.set((0, 0));
        hook::register(&CountRegionEvents);
        run_once(run);
        hook::unregister();
        assert_eq!(REGION_EVENTS.get(), (regions, regions), "{name}");

        let before = rt.metrics_snapshot();
        let report = check::Explorer::new()
            .races(true)
            .random(seeds, 0x407_7EA5, || run_once(run));
        report.assert_ok();
        assert_eq!(report.schedules(), seeds, "{name}");
        if name == "cached" {
            assert_eq!(
                regions_since(&rt, &before),
                (seeds as u64, 0),
                "every explored run should still take the pooled path"
            );
        }
        if regions == 1 {
            // Same protocol, same seeds: the very same interleavings.
            assert!(report.distinct_schedules() > 1, "{name}");
            let digests = controlled_digests.get_or_insert_with(|| report.digests());
            assert_eq!(&report.digests(), digests, "{name}");
        }
    }
}

#[test]
fn executor_runs_many_tasks_futures_and_groups() {
    let done = std::sync::Arc::new(AtomicUsize::new(0));
    let group = TaskGroup::new();
    for _ in 0..32 {
        let done = std::sync::Arc::clone(&done);
        group.spawn(move || {
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    let futures: Vec<_> = (0..16).map(|i| task::spawn_future(move || i * i)).collect();
    group.wait();
    assert_eq!(done.load(Ordering::SeqCst), 32);
    for (i, f) in futures.into_iter().enumerate() {
        assert_eq!(f.get(), i * i);
    }
}

#[test]
fn task_waiting_on_task_stays_live() {
    // A chain of dependent futures longer than the worker pool: under a
    // bounded pool this wedges unless admission control refuses to queue
    // tasks behind blocked workers (overflow must go to dedicated
    // threads). It is also the regression test for help-joining, which
    // could bury a producer under a queued task run on the same worker stack
    // — a cycle no future could break. Repeat a few times so builds of
    // the chain interleave with executor state left by earlier rounds.
    for round in 0..4 {
        let chain = (0..24).fold(task::spawn_future(|| 0usize), |prev, _| {
            task::spawn_future(move || prev.get() + 1)
        });
        assert_eq!(chain.get(), 24, "round {round}");
    }
}
