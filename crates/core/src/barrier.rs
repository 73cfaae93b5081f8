//! A reusable sense-reversing team barrier.
//!
//! Implements the paper's `@BarrierBefore` / `@BarrierAfter` semantics: a
//! synchronisation point scoped to the *team* (unlike `@Critical`, whose
//! scope is all threads in the system). The implementation is the classic
//! sense-reversing barrier from the concurrency literature: a shared
//! arrival counter plus a per-round "sense" bit, so the barrier is
//! reusable across an unbounded number of rounds without re-initialisation.
//!
//! Waiters go through the one team wait ([`wait`](crate::wait)): they poll
//! the sense for a bounded budget — a round of a balanced team ends well
//! inside it, and a parked thread costs tens of microseconds to wake —
//! and park on the condition variable only past it, or at once when this
//! barrier's last round outlasted the budget or a scheduler hook is
//! registered.
//!
//! A team member's parked wait is *bounded*: the park timeout caps how
//! long a thread sleeps before re-checking the team's poison/cancel
//! flags, so a panic, a [`cancel_team`](crate::ctx::cancel_team) or the
//! stall watchdog can never leave siblings blocked forever (a polling
//! waiter reaches the same check when its budget runs out). Only the bare
//! [`wait`](SenseBarrier::wait), which nothing but the round's release
//! can end, parks until notified. An explicit deadline variant
//! ([`wait_timeout`](SenseBarrier::wait_timeout)) lets a caller give up
//! on a round entirely.
//!
//! With `AOMP_METRICS` on, every barrier entry through
//! [`ctx::team_barrier`](crate::ctx) records its blocked time (spin
//! included) in the [`obs::Lat::WaitBarrier`](crate::obs::Lat) histogram
//! and each member's round exit ticks
//! [`obs::Counter::BarrierRounds`](crate::obs::Counter) — the wait-site
//! registration path is the single chokepoint, so this module needs no
//! probes of its own.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Duration;

use crate::error::{self, WaitTimedOut};
use crate::wait::{self, Site};

/// A reusable sense-reversing barrier for a fixed-size team.
#[derive(Debug)]
pub struct SenseBarrier {
    n: usize,
    count: AtomicUsize,
    sense: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
    site: Site,
}

impl SenseBarrier {
    /// Barrier for a team of `n` threads (`n >= 1`).
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "barrier team size must be >= 1");
        Self {
            n,
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
            site: Site::default(),
        }
    }

    /// Team size this barrier synchronises.
    #[inline]
    pub fn team_size(&self) -> usize {
        self.n
    }

    /// Block until all `n` team threads have called `wait`. Returns `true`
    /// on exactly one thread per round (the last arriver), mirroring
    /// `std::sync::Barrier`'s leader token.
    pub fn wait(&self) -> bool {
        self.wait_park(None, &|| false)
    }

    /// Like [`wait`](Self::wait) but aborts (by panicking with
    /// [`crate::error::TeamPoisoned`]) if `poison` becomes set while
    /// waiting — used inside teams so a panicking sibling cannot deadlock
    /// the region.
    pub fn wait_poisonable(&self, poison: &AtomicBool) -> bool {
        let check = || {
            if poison.load(Ordering::Acquire) {
                error::poisoned();
            }
        };
        self.wait_park(Some(&check), &|| false)
    }

    /// [`wait`](Self::wait) for a registered member
    /// ([`wait::registered`]): `check` runs before arrival and on every
    /// park-timeout tick and aborts the wait by panicking (with
    /// `TeamPoisoned` or `Cancelled`); each would-be park is offered to
    /// `park` (the scheduler hook's blocked callback) first. When `park`
    /// returns `true` the hook parked the thread itself and the wait
    /// re-checks the sense immediately; `false` falls back to the condvar
    /// park.
    pub(crate) fn wait_park(&self, check: Option<&dyn Fn()>, park: &dyn Fn() -> bool) -> bool {
        self.wait_inner(check, park, None)
            .expect("unbounded barrier wait cannot time out")
    }

    /// Barrier wait with a deadline: gives up (retracting this thread's
    /// arrival so the barrier stays consistent) if the round does not
    /// complete within `timeout`. Returns the leader token on success.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<bool, WaitTimedOut> {
        // Nothing announces the deadline: tick.
        self.wait_inner(Some(&|| {}), &|| false, Some(timeout))
    }

    fn wait_inner(
        &self,
        check: Option<&dyn Fn()>,
        park: &dyn Fn() -> bool,
        timeout: Option<Duration>,
    ) -> Result<bool, WaitTimedOut> {
        check.inspect(|check| check());
        let expired = wait::expiry(timeout);
        let local = !self.sense.load(Ordering::Acquire);
        let prev = self.count.fetch_add(1, Ordering::AcqRel);
        debug_assert!(
            prev < self.n,
            "more threads than the barrier's team size called wait"
        );
        if prev + 1 == self.n {
            // Last arriver: reset the counter for the next round and flip
            // the sense under the lock, so parked waiters cannot miss the
            // notification and timed-out waiters cannot retract an
            // arrival from an already-released round.
            {
                let _g = self.lock.lock();
                self.count.store(0, Ordering::Relaxed);
                self.sense.store(local, Ordering::Release);
            }
            self.cv.notify_all();
            Ok(true)
        } else {
            let released = || self.sense.load(Ordering::Acquire) == local;
            wait::wait_until(
                Some(&self.site),
                (&self.lock, &self.cv),
                || released() || expired().is_some(),
                |_| {
                    if released() {
                        return Some(Ok(false));
                    }
                    // Expired: retract our arrival. The release path flips
                    // the sense under the lock we hold, so the round
                    // provably has not been released and the counter still
                    // includes us.
                    expired().map(|e| {
                        self.count.fetch_sub(1, Ordering::AcqRel);
                        Err(e)
                    })
                },
                check,
                park,
            )
        }
    }

    /// Wake all parked waiters so they can observe a freshly-set
    /// poison/cancel flag. Called by the team when a member panics or the
    /// team is cancelled.
    pub(crate) fn kick(&self) {
        let _g = self.lock.lock();
        drop(_g);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;
    use std::time::Instant;

    #[test]
    fn single_thread_barrier_is_noop() {
        let b = SenseBarrier::new(1);
        for _ in 0..10 {
            assert!(b.wait());
        }
    }

    #[test]
    fn all_threads_meet() {
        let n = 4;
        let b = Arc::new(SenseBarrier::new(n));
        let phase = Arc::new(AtomicUsize::new(0));
        let members: Vec<_> = (0..n)
            .map(|_| {
                let b = Arc::clone(&b);
                let phase = Arc::clone(&phase);
                std::thread::spawn(move || {
                    for round in 0..50usize {
                        // Everyone must observe the same phase before the
                        // barrier releases the round.
                        phase.fetch_add(1, Ordering::SeqCst);
                        b.wait();
                        assert_eq!(phase.load(Ordering::SeqCst), (round + 1) * n);
                        b.wait();
                    }
                })
            })
            .collect();
        for m in members {
            m.join().expect("member panicked");
        }
    }

    #[test]
    fn exactly_one_leader_per_round() {
        let n = 3;
        let rounds = 40;
        let b = Arc::new(SenseBarrier::new(n));
        let leaders = Arc::new(AtomicUsize::new(0));
        let members: Vec<_> = (0..n)
            .map(|_| {
                let b = Arc::clone(&b);
                let leaders = Arc::clone(&leaders);
                std::thread::spawn(move || {
                    for _ in 0..rounds {
                        if b.wait() {
                            leaders.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for m in members {
            m.join().expect("member panicked");
        }
        assert_eq!(leaders.load(Ordering::SeqCst), rounds);
    }

    #[test]
    fn poison_unblocks_waiters() {
        let b = Arc::new(SenseBarrier::new(2));
        let poison = Arc::new(AtomicBool::new(false));
        let b2 = Arc::clone(&b);
        let p2 = Arc::clone(&poison);
        let waiter = std::thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                b2.wait_poisonable(&p2);
            }));
            r.is_err()
        });
        std::thread::sleep(Duration::from_millis(20));
        poison.store(true, Ordering::Release);
        b.kick();
        assert!(
            waiter.join().unwrap(),
            "waiter should unwind with TeamPoisoned"
        );
    }

    #[test]
    fn wait_timeout_expires_and_barrier_recovers() {
        let b = Arc::new(SenseBarrier::new(2));
        let t0 = Instant::now();
        let r = b.wait_timeout(Duration::from_millis(30));
        assert!(r.is_err(), "no partner: the wait must time out");
        assert!(t0.elapsed() >= Duration::from_millis(30));
        // The timed-out arrival was retracted: a full round still works.
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || b2.wait());
        let lead = b.wait();
        let other = h.join().unwrap();
        assert!(lead ^ other, "exactly one leader after recovery");
    }

    #[test]
    fn wait_timeout_expiring_mid_spin_retracts_and_barrier_recovers() {
        let b = Arc::new(SenseBarrier::new(2));
        // Far inside the spin budget: the expiry is met by a spinning
        // waiter, which must take the lock and retract all the same.
        for _ in 0..3 {
            assert!(b.wait_timeout(Duration::from_micros(10)).is_err());
            assert_eq!(b.count.load(Ordering::Acquire), 0, "arrival retracted");
        }
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || b2.wait());
        let lead = b.wait();
        let other = h.join().unwrap();
        assert!(lead ^ other, "exactly one leader after recovery");
    }

    #[test]
    fn wait_timeout_succeeds_when_round_completes() {
        let b = Arc::new(SenseBarrier::new(2));
        let b2 = Arc::clone(&b);
        let h = std::thread::spawn(move || b2.wait_timeout(Duration::from_secs(5)));
        let lead = b.wait();
        let other = h.join().unwrap().expect("round completed in time");
        assert!(lead ^ other);
    }
}
