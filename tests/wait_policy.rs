//! The waiting policy (DESIGN.md "Waiting policy"): every wait polls for
//! a bounded budget before it parks — yielding between probes when the
//! process is oversubscribed — unless its condition has no lock-free
//! probe, the site's last wait was long or a scheduler hook is
//! registered. These tests pin the edges of that policy: oversubscribed
//! teams stay live and cheap, an idle team goes quiet, interrupts that
//! land on a spinning member are observed, and nothing — team wait, task
//! join or idle executor worker — spins under a hook.

use aomp_check as check;
use aomplib::prelude::*;
use aomplib::runtime::clock::VirtualClock;
use aomplib::runtime::obs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The throttle counts team threads process-wide and half of these tests
/// read clocks or the process-global metrics gate, so they run one at a
/// time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A private runtime, so the cached teams these tests time and census
/// are theirs alone, not ones other tests in the binary lease.
fn pooled_runtime() -> Runtime {
    Runtime::builder().build()
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

const ROUNDS: usize = 2_000;

/// One two-thread team ping-ponging `ROUNDS` barrier rounds.
fn ping_pong(rt: &Runtime) {
    let rounds = AtomicUsize::new(0);
    rt.parallel_with(RegionConfig::new().threads(2), || {
        for _ in 0..ROUNDS {
            barrier();
            rounds.fetch_add(1, Ordering::Relaxed);
        }
    });
    assert_eq!(rounds.load(Ordering::Relaxed), 2 * ROUNDS);
}

#[test]
fn oversubscribed_teams_stay_live_and_cheap() {
    let _s = serial();
    let rt = pooled_runtime();
    let teams = 4 * nproc();
    // Warm the cache with as many teams as will run at once, so neither
    // timing below pays for thread creation.
    std::thread::scope(|s| {
        for _ in 0..teams {
            s.spawn(|| ping_pong(&rt));
        }
    });
    let t0 = Instant::now();
    for _ in 0..teams {
        ping_pong(&rt);
    }
    let one_by_one = t0.elapsed();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..teams {
            s.spawn(|| ping_pong(&rt));
        }
    });
    let at_once = t0.elapsed();
    // A waiter that held its CPU with `2 × teams` threads on `nproc` CPUs
    // would burn a time slice per round: seconds, not milliseconds.
    assert!(
        at_once <= 3 * one_by_one,
        "{teams} oversubscribed teams took {at_once:?}, one after another {one_by_one:?}"
    );
}

/// `utime + stime` of every live `aomp-team-*` thread, in clock ticks.
fn team_thread_ticks() -> Vec<(String, u64)> {
    let mut ticks = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let dir = task.expect("task entry").path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue; // the thread exited between readdir and here
        };
        if !comm.starts_with("aomp-team-") {
            continue;
        }
        let Ok(stat) = std::fs::read_to_string(dir.join("stat")) else {
            continue;
        };
        // Fields after the parenthesised comm: state is the 1st, utime
        // and stime the 12th and 13th.
        let rest = &stat[stat.rfind(')').expect("comm in parentheses") + 2..];
        let fields: Vec<&str> = rest.split(' ').collect();
        let busy: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
        ticks.push((dir.display().to_string(), busy));
    }
    ticks
}

#[test]
#[cfg(target_os = "linux")]
fn idle_cached_team_goes_quiet() {
    let _s = serial();
    let rt = pooled_runtime();
    // Back-to-back regions leave the team's idle site expecting the next
    // dispatch soon: its workers are spinning when the last one returns.
    for _ in 0..100 {
        rt.parallel_with(RegionConfig::new().threads(3), barrier);
    }
    let before = team_thread_ticks();
    assert!(before.len() >= 2, "the cached team's workers are alive");
    std::thread::sleep(Duration::from_millis(50));
    let after = team_thread_ticks();
    // USER_HZ is 100 on every Linux ABI: a tick is 10 ms, so "< 5 ms"
    // is "no tick at all".
    for (task, busy) in &before {
        let now = after.iter().find(|(t, _)| t == task).map(|(_, b)| *b);
        assert_eq!(now, Some(*busy), "{task} ran while its team was idle");
    }
}

/// Run a two-thread region whose member 1 is waiting at a barrier (in
/// its spin phase on a host with a CPU to spare: the barrier's previous
/// rounds were quick) when member 0 calls `interrupt`.
fn interrupt_a_spinning_member(
    cfg: RegionConfig,
    interrupt: impl Fn() + Sync,
) -> Result<(), RegionError> {
    let at_barrier = AtomicBool::new(false);
    region::try_parallel_with(cfg.threads(2), || {
        for _ in 0..100 {
            barrier();
        }
        if thread_id() == 1 {
            at_barrier.store(true, Ordering::Release);
            barrier();
            unreachable!("member 0 never joins this round");
        }
        while !at_barrier.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        interrupt();
    })
}

#[test]
fn interrupts_landing_on_a_spinning_member_are_observed() {
    let _s = serial();
    let rt = pooled_runtime();
    let _in_rt = rt.enter();
    let t0 = Instant::now();

    let r = interrupt_a_spinning_member(RegionConfig::new().cancellable(true), || {
        assert!(cancel_team());
    });
    assert!(matches!(r, Err(RegionError::Cancelled)), "cancel: {r:?}");

    let r = interrupt_a_spinning_member(RegionConfig::new(), || panic!("sibling dies"));
    match r {
        Err(RegionError::Panicked { payload_msg }) => assert_eq!(payload_msg, "sibling dies"),
        other => panic!("sibling panic: {other:?}"),
    }
    let r = catch_unwind(AssertUnwindSafe(|| {
        region::parallel_with(RegionConfig::new().threads(2), || {
            if thread_id() == 0 {
                panic!("master dies");
            }
            barrier();
        })
    }));
    assert!(r.is_err(), "the panicking API re-raises");

    // A virtual-time stall: member 0 returns, member 1 waits for a round
    // that cannot complete, the watchdog's five minutes pass at once.
    let clock = VirtualClock::install();
    let r = interrupt_a_spinning_member(
        RegionConfig::new().stall_deadline(Duration::from_secs(300)),
        || {},
    );
    drop(clock);
    match r {
        Err(RegionError::Stalled { blocked }) => {
            assert!(blocked.contains(&(1, WaitSite::Barrier)), "{blocked:?}");
        }
        other => panic!("stall: {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "every interrupt is observed within a park tick or so, not by luck: {:?}",
        t0.elapsed()
    );
    // The leased team survives all three.
    let hits = AtomicUsize::new(0);
    region::parallel_with(RegionConfig::new().threads(2), || {
        hits.fetch_add(1, Ordering::SeqCst);
        barrier();
    });
    assert_eq!(hits.load(Ordering::SeqCst), 2);
}

/// Explore `program`, run it natively until every site it waits at has a
/// history of quick waits, then explore it again on the same seeds: under
/// the hook no wait may poll — every one parks through it.
fn explored_cold_then_warm(program: impl Fn()) -> (check::Report, check::Report) {
    let seeds = check::seeds_from_env(16);
    let explore = || check::Explorer::new().random(seeds, 0x5917, &program);
    let cold = explore();
    cold.assert_ok();

    // Native runs: every site that survives a region (the cached team's
    // dispatch and join, a task group's join, the executor's idle wait)
    // now remembers quick waits.
    obs::set_metrics(true);
    let before = obs::snapshot();
    for _ in 0..200 {
        program();
    }
    let native = obs::snapshot().since(&before);
    let waits =
        native.counter(obs::Counter::WaitSpinHit) + native.counter(obs::Counter::WaitParked);
    assert!(waits > 0, "the counters tick at the one chokepoint");

    // Let the cached team and the executor go quiet first: an idle worker
    // still inside the 100 µs poll it began before the hook was
    // registered would count a spin hit if the exploration's first
    // dispatch reached it in time.
    std::thread::sleep(Duration::from_millis(50));

    let before = obs::snapshot();
    let warm = explore();
    let explored = obs::snapshot().since(&before);
    obs::set_metrics(false);
    warm.assert_ok();
    assert_eq!(explored.counter(obs::Counter::WaitSpinHit), 0);
    assert!(explored.counter(obs::Counter::WaitParked) > 0);
    (cold, warm)
}

#[test]
fn nothing_spins_under_a_scheduler_hook() {
    let _s = serial();
    // A leased team, and a fresh one built and torn down per region.
    for pooled in [true, false] {
        let master = Master::new();
        let (cold, warm) = explored_cold_then_warm(|| {
            region::parallel_with(RegionConfig::new().threads(2).pooled(pooled), || {
                for round in 0..4 {
                    assert_eq!(master.run(|| round), round);
                    barrier();
                }
            })
        });
        // No wait spun, so the interleavings are byte-for-byte the cold ones.
        assert_eq!(warm.digests(), cold.digests(), "pooled({pooled})");
        assert!(cold.distinct_schedules() > 1, "pooled({pooled})");
    }
}

#[aomplib::annotations::taskloop(min_chunk = 4)]
fn taskloop_count(start: i64, end: i64, step: i64, hits: &AtomicUsize) {
    hits.fetch_add(
        LoopRange::new(start, end, step).count() as usize,
        Ordering::Relaxed,
    );
}

#[test]
fn no_task_side_wait_spins_under_a_scheduler_hook() {
    let _s = serial();
    // A dependence graph pulled by the team and a taskloop: every wait is
    // on a team-mate, so a trace is a function of the schedule alone.
    let (cold, warm) = explored_cold_then_warm(|| {
        let g = DepGroup::new();
        let chain = std::sync::Arc::new(Mutex::new(Vec::new()));
        let hits = AtomicUsize::new(0);
        region::parallel_with(RegionConfig::new().threads(2), || {
            if thread_id() == 0 {
                for step in 0..3 {
                    let chain = std::sync::Arc::clone(&chain);
                    g.spawn([Dep::inout("chain")], move || {
                        chain.lock().unwrap().push(step)
                    });
                }
                g.close();
            }
            g.run().expect("no cycle");
            taskloop_count(0, 32, 1, &hits);
        });
        assert_eq!(*chain.lock().unwrap(), vec![0, 1, 2]);
        assert_eq!(hits.load(Ordering::Relaxed), 32);
    });
    assert_eq!(warm.digests(), cold.digests());
    assert!(cold.distinct_schedules() > 1);

    // Fork-join tasks and a future, joined inside the team: they run on
    // the executor, outside the explored team, so how often a joiner is
    // probed before they finish is real time's say and digests may
    // differ. Still nothing polls — not the group's join, not the
    // executor's idle workers.
    explored_cold_then_warm(|| {
        let ran = std::sync::Arc::new(AtomicUsize::new(0));
        region::parallel_with(RegionConfig::new().threads(2), || {
            if thread_id() == 0 {
                let group = TaskGroup::new();
                for _ in 0..2 {
                    let ran = std::sync::Arc::clone(&ran);
                    group.spawn(move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                }
                let fut = task::spawn_future(|| 7usize);
                group.wait();
                assert_eq!(fut.get(), 7);
            }
            barrier();
        });
        assert_eq!(ran.load(Ordering::SeqCst), 2);
    });
}

#[test]
fn no_getter_runs_its_producer_under_a_scheduler_hook() {
    let _s = serial();
    // A getter that takes its producer back off the queue does so only if
    // it gets there before a worker: real time's say. Under the hook every
    // getter waits instead, so an exploration stays a function of its
    // seed. The futures live on a private runtime, whose scope counts
    // the withdrawals.
    let rt = pooled_runtime();
    let report = check::Explorer::new().random(check::seeds_from_env(16), 0x6E77, || {
        region::parallel_with(RegionConfig::new().threads(2), || {
            if thread_id() == 0 {
                for i in 0..8usize {
                    assert_eq!(rt.spawn_future(move || i).get(), i);
                }
            }
            barrier();
        });
    });
    report.assert_ok();
    let books = rt.metrics_snapshot();
    assert!(books.counter(obs::Counter::TaskPooled) > 0);
    assert_eq!(books.counter(obs::Counter::TaskRunByGetter), 0);
}
