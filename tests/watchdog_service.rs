//! The stall watchdog as a per-runtime service: a watched region registers
//! a deadline with its runtime's one `aomp-watchdog` thread instead of
//! spawning a thread of its own. These tests pin what that changes (the
//! thread count, an idle watchdog that costs nothing) and what it must not
//! (per-region verdicts, time bases that never mix on the shared thread).

#![cfg(target_os = "linux")]

use aomplib::prelude::*;
use aomplib::runtime::clock::VirtualClock;
use aomplib::runtime::obs::Counter;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The thread census is process-wide, so the tests run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// `/proc/self/task/<tid>` of every live watchdog thread.
fn watchdog_threads() -> Vec<std::path::PathBuf> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| Some(task.ok()?.path()))
        .filter(|dir| {
            std::fs::read_to_string(dir.join("comm")).is_ok_and(|c| c.trim_end() == "aomp-watchdog")
        })
        .collect()
}

fn watched(rt: &Runtime, deadline: Duration) -> RegionConfig {
    RegionConfig::new()
        .threads(2)
        .runtime(rt)
        .stall_deadline(deadline)
}

/// The barrier-round mismatch: member 1 waits for a round member 0 never
/// joins.
fn mismatched_barriers() {
    barrier();
    if thread_id() == 1 {
        barrier();
    }
}

#[test]
fn a_thousand_watched_regions_share_one_watchdog_thread() {
    let _s = serial();
    let base = watchdog_threads().len();
    let unwatched = Runtime::builder().threads(2).build();
    for _ in 0..10 {
        unwatched.parallel(barrier);
    }
    assert_eq!(
        watchdog_threads().len(),
        base,
        "no deadline armed, no thread"
    );

    let rt = Runtime::builder().threads(2).build();
    let ran = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| {
                for _ in 0..250 {
                    let r = region::try_parallel_with(
                        watched(&rt, Duration::from_millis(500)).cancellable(true),
                        || {
                            ran.fetch_add(1, Ordering::Relaxed);
                        },
                    );
                    assert_eq!(r, Ok(()));
                }
            });
        }
    });
    assert_eq!(ran.load(Ordering::Relaxed), 2_000);
    assert_eq!(watchdog_threads().len(), base + 1);
    assert_eq!(rt.metrics_snapshot().counter(Counter::RegionStalled), 0);
    drop(rt);
    assert_eq!(watchdog_threads().len(), base, "teardown joins it");
}

/// `(utime + stime in ticks, voluntary context switches)` of one thread.
fn thread_activity(task: &std::path::Path) -> (u64, u64) {
    let stat = std::fs::read_to_string(task.join("stat")).expect("live thread");
    // Fields after the parenthesised comm: state is the 1st, utime and
    // stime the 12th and 13th.
    let rest = &stat[stat.rfind(')').expect("comm in parentheses") + 2..];
    let fields: Vec<&str> = rest.split(' ').collect();
    let busy = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    let status = std::fs::read_to_string(task.join("status")).expect("live thread");
    let switches = status
        .lines()
        .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
        .expect("status lists context switches")
        .trim()
        .parse()
        .unwrap();
    (busy, switches)
}

#[test]
fn idle_watchdog_goes_quiet() {
    let _s = serial();
    let before = watchdog_threads();
    let rt = Runtime::builder().threads(2).build();
    for _ in 0..100 {
        region::parallel_with(watched(&rt, Duration::from_millis(40)), barrier);
    }
    let threads = watchdog_threads();
    let dog = threads
        .iter()
        .find(|t| !before.contains(t))
        .expect("this runtime's watchdog");
    // The last region's first poll (5 ms out) may still be the planned
    // wake-up; after it the registry is empty and the park unbounded.
    std::thread::sleep(Duration::from_millis(100));
    let parked = thread_activity(dog);
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(
        thread_activity(dog),
        parked,
        "the watchdog ran with nothing to watch"
    );
}

#[test]
fn verdicts_are_per_region_on_the_shared_thread() {
    let _s = serial();
    let rt = Runtime::builder().threads(2).build();
    let start = std::sync::Barrier::new(2);
    let (stuck, healthy) = std::thread::scope(|s| {
        let stuck = s.spawn(|| {
            start.wait();
            region::try_parallel_with(watched(&rt, Duration::from_millis(50)), mismatched_barriers)
        });
        let healthy = s.spawn(|| {
            start.wait();
            region::try_parallel_with(watched(&rt, Duration::from_secs(30)), || {
                // ~100 ms of rounds: in flight across its sibling's whole
                // stall, verdict included.
                for _ in 0..200 {
                    if thread_id() == 0 {
                        std::thread::sleep(Duration::from_micros(500));
                    }
                    barrier();
                }
            })
        });
        (stuck.join().unwrap(), healthy.join().unwrap())
    });
    match stuck {
        Err(RegionError::Stalled { blocked }) => {
            assert!(blocked.contains(&(1, WaitSite::Barrier)), "{blocked:?}")
        }
        other => panic!("expected a stall diagnosis, got {other:?}"),
    }
    assert_eq!(healthy, Ok(()));
    assert_eq!(rt.metrics_snapshot().counter(Counter::RegionStalled), 1);
}

#[test]
fn time_bases_never_mix_on_the_shared_thread() {
    let _s = serial();
    let rt = Runtime::builder().threads(2).build();
    let armed_on_real_time = AtomicBool::new(false);
    let window_closed = AtomicBool::new(false);
    let (real, simulated) = std::thread::scope(|s| {
        // Armed before the window opens, then silent — no progress event,
        // member 1 parked at a barrier — for as long as the window is
        // open. Read on virtual time, where five minutes pass meanwhile,
        // that is a stall; on the wall clock it is armed on it is a
        // fraction of its 20 s.
        let real = s.spawn(|| {
            region::try_parallel_with(watched(&rt, Duration::from_secs(20)), || {
                if thread_id() == 0 {
                    armed_on_real_time.store(true, Ordering::Release);
                    while !window_closed.load(Ordering::Acquire) {
                        std::thread::sleep(Duration::from_micros(200));
                    }
                }
                barrier();
            })
        });
        let simulated = s.spawn(|| {
            while !armed_on_real_time.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let t0 = Instant::now();
            let clock = VirtualClock::install();
            let r = region::try_parallel_with(
                watched(&rt, Duration::from_secs(300)),
                mismatched_barriers,
            );
            drop(clock);
            window_closed.store(true, Ordering::Release);
            (r, t0.elapsed())
        });
        (real.join().unwrap(), simulated.join().unwrap())
    });
    let (simulated, took) = simulated;
    assert!(
        matches!(simulated, Err(RegionError::Stalled { .. })),
        "{simulated:?}"
    );
    assert!(
        took < Duration::from_secs(10),
        "five virtual minutes took {took:?}"
    );
    assert_eq!(real, Ok(()));
    assert_eq!(rt.metrics_snapshot().counter(Counter::RegionStalled), 1);
}
