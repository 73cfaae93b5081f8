//! `@Critical`'s lock protocol: a release notifies only while a waiter is
//! counted asleep, so a lost wake-up is a hang, never a failed assertion.
//! Every test here runs its body on a thread of its own under a deadline,
//! so a hang fails the test instead of stalling the suite.

use aomplib::prelude::*;
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(30);

/// Run `test` on its own thread; fail if it neither returns nor panics
/// within [`DEADLINE`].
fn within_deadline(test: impl FnOnce() + Send + 'static) {
    let (done, finished) = mpsc::channel();
    let worker = std::thread::spawn(test);
    std::thread::spawn(move || done.send(worker.join()));
    match finished.recv_timeout(DEADLINE) {
        Ok(outcome) => outcome.unwrap_or_else(|p| std::panic::resume_unwind(p)),
        Err(_) => panic!("no return within {DEADLINE:?}: a lost wake-up leaves a waiter parked"),
    }
}

/// A counter only correct if its callers exclude each other.
struct Unsync(UnsafeCell<u64>);
// SAFETY: every `bump` runs under one critical lock, and `get` runs only
// once the threads that bump have been joined.
unsafe impl Sync for Unsync {}

impl Unsync {
    fn bump(&self) {
        // SAFETY: the caller holds the critical lock (see `Sync` above).
        unsafe { *self.0.get() += 1 }
    }
    fn get(&self) -> u64 {
        // SAFETY: no `bump` runs concurrently (see `Sync` above).
        unsafe { *self.0.get() }
    }
}

const ENTRIES: u64 = 20_000;

/// `ENTRIES` entries of `h`, re-entering it on every 7th.
fn hammer(h: &CriticalHandle, n: &Unsync) {
    for i in 0..ENTRIES {
        h.run(|| {
            n.bump();
            if i % 7 == 0 {
                h.run(|| n.bump());
            }
        });
    }
}

/// What `hammer` adds per caller.
const PER_CALLER: u64 = ENTRIES + ENTRIES.div_ceil(7);

#[test]
fn no_wake_up_is_lost_outside_and_inside_a_team() {
    within_deadline(|| {
        // Outside any team a waiter parks with no timeout: only a notify
        // ends its wait.
        let h = CriticalHandle::new();
        let n = Unsync(UnsafeCell::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| hammer(&h, &n));
            }
        });
        assert_eq!(n.get(), 4 * PER_CALLER);
        region::parallel_with(RegionConfig::new().threads(4), || hammer(&h, &n));
        assert_eq!(n.get(), 8 * PER_CALLER);
    });
}

/// Hold the CPU for `micros` microseconds.
fn busy(micros: u64) {
    let t0 = Instant::now();
    while t0.elapsed() < Duration::from_micros(micros) {
        std::hint::spin_loop();
    }
}

const ROUNDS: u64 = 4_000;

#[test]
fn the_last_release_of_a_round_wakes_its_parked_waiter() {
    within_deadline(|| {
        // Two plain threads race for the lock each round, and the
        // winner's release is the last its rival can be woken by. Every
        // other round holds the lock past the spin budget, so the next
        // round's loser parks at once, in step with a hold of a few
        // microseconds.
        let h = CriticalHandle::new();
        let n = Unsync(UnsafeCell::new(0));
        // Spun, not parked: both threads leave it within nanoseconds.
        let arrived = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for r in 0..ROUNDS {
                        arrived.fetch_add(1, Ordering::SeqCst);
                        while arrived.load(Ordering::SeqCst) < 2 * (r + 1) {
                            std::hint::spin_loop();
                        }
                        h.run(|| {
                            n.bump();
                            busy(if r % 2 == 0 { 150 } else { r % 7 });
                        });
                    }
                });
            }
        });
        assert_eq!(n.get(), 2 * ROUNDS);
    });
}

/// Member 1 of a two-member region blocks on `h` once member 0 has
/// signalled `go`, setting `unwound` when it leaves, by unwinding or not;
/// `entered` says whether it ever held the lock.
struct Blocked {
    h: CriticalHandle,
    go: AtomicBool,
    entered: AtomicBool,
    unwound: AtomicBool,
}

impl Blocked {
    fn new() -> Self {
        Self {
            h: CriticalHandle::new(),
            go: AtomicBool::new(false),
            entered: AtomicBool::new(false),
            unwound: AtomicBool::new(false),
        }
    }

    fn member_1(&self) {
        struct Leave<'a>(&'a AtomicBool);
        impl Drop for Leave<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let _leave = Leave(&self.unwound);
        while !self.go.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        self.h.run(|| self.entered.store(true, Ordering::SeqCst));
    }

    /// Let member 1 go and give it time to block on `h`. The assertions
    /// hold wherever it has got to, the entry's own check included; the
    /// pause only makes a parked wait the usual case.
    fn arm(&self) {
        self.go.store(true, Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(20));
    }

    /// Return once member 1 has left.
    fn await_leave(&self) {
        while !self.unwound.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
    }
}

#[test]
fn cancelling_the_holders_team_unwinds_a_blocked_member() {
    within_deadline(|| {
        let b = Blocked::new();
        let r = region::try_parallel_with(RegionConfig::new().threads(2).cancellable(true), || {
            if thread_id() == 0 {
                // Held across the cancel: member 1 can only leave by
                // unwinding.
                b.h.run(|| {
                    b.arm();
                    assert!(cancel_team());
                    b.await_leave();
                });
            } else {
                b.member_1();
            }
        });
        assert!(matches!(r, Err(RegionError::Cancelled)), "{r:?}");
        assert!(!b.entered.load(Ordering::SeqCst));
        assert_eq!(b.h.run(|| 5), 5);
    });
}

#[test]
fn a_sibling_panic_unwinds_a_member_blocked_on_a_held_lock() {
    within_deadline(|| {
        let b = Blocked::new();
        let (held, is_held) = mpsc::channel();
        std::thread::scope(|s| {
            // Held outside the team until member 1 has left, which it can
            // only do by unwinding.
            s.spawn(|| {
                b.h.run(|| {
                    held.send(()).unwrap();
                    b.await_leave();
                })
            });
            is_held.recv().unwrap();
            let r = region::try_parallel_with(RegionConfig::new().threads(2), || {
                if thread_id() == 0 {
                    b.arm();
                    panic!("injected while member 1 is blocked");
                }
                b.member_1();
            });
            assert!(matches!(r, Err(RegionError::Panicked { .. })), "{r:?}");
        });
        assert!(!b.entered.load(Ordering::SeqCst));
        assert_eq!(b.h.run(|| 5), 5);
    });
}
