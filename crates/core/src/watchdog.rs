//! The stall watchdog: one thread per runtime, a registry of deadlines.
//!
//! A region that carries a stall deadline does not get a thread of its
//! own. Its master *arms* — pushes an [`Entry`] into the resolved
//! runtime's registry under one short mutex — before it dispatches, and
//! *disarms* from a guard that drops on every exit path. The runtime's
//! single `aomp-watchdog` thread, started by the first `arm`, sleeps
//! until the earliest entry's next poll, sweeps only the entries that
//! are due, and parks unbounded while the registry is empty; the
//! runtime's teardown joins it. Runtime bookkeeping on one long-lived
//! manager thread, off the workers' critical path, is the argument of
//! *Asynchronous Runtime with Distributed Manager for Task-based
//! Programming Models* (PAPERS.md): thread creation (~70 µs) was the
//! whole cost of a watched region's entry.
//!
//! The verdict rule is per entry: polled every `max(deadline/8, 1 ms)`
//! on the clock the entry was armed on, a team whose progress counter
//! has not moved for `deadline` **and** that has at least one member at
//! a wait site is declared stalled (first verdict wins) and leaves the
//! registry. With nobody at a wait site the members are presumably
//! computing — not a stall this can adjudicate — and the entry stays.
//!
//! The thread owns an `Arc` of this registry and nothing of the runtime:
//! it never upgrades a team's weak runtime handle, and it runs
//! `declare_stalled` (which wakes the team) with the registry unlocked,
//! so a verdict never delays an `arm`.

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::clock::{self, ClockMode};
use crate::ctx::TeamShared;
use crate::error::WaitSite;
use crate::obs::{self, Counter};

/// A stall verdict on its way out of the registry lock.
type Verdict = (Arc<TeamShared>, Vec<(usize, WaitSite)>);

/// One watched region.
struct Entry {
    team: Arc<TeamShared>,
    deadline: Duration,
    /// Pinned at arm time: an entry armed outside a test's virtual-clock
    /// window stays on wall-clock time if one opens while it is in
    /// flight, and the other way round (see [`clock`]).
    clock: ClockMode,
    last_progress: u64,
    /// When `last_progress` was last seen to change, on `clock`.
    last_change: Duration,
    /// When this entry is next due, on `clock`.
    next_poll: Duration,
}

/// How often an entry is polled.
fn poll_interval(deadline: Duration) -> Duration {
    (deadline / 8).max(Duration::from_millis(1))
}

impl Entry {
    /// The wall-clock moment the thread has to look at this entry. A
    /// virtual entry is due one [`clock::VIRTUAL_YIELD`] from now,
    /// always: the thread is virtual time's pacemaker.
    fn due_real(&self, real_now: Duration) -> Duration {
        match self.clock {
            ClockMode::Real => self.next_poll,
            ClockMode::Virtual => real_now.saturating_add(clock::VIRTUAL_YIELD),
        }
    }
}

struct State {
    entries: Vec<Entry>,
    /// The wall-clock moment the thread next sweeps: `None` while it is
    /// parked unbounded, zero while it is awake. `arm` wakes it only for
    /// an entry due before this.
    wake_at: Option<Duration>,
    /// `None` until the first `arm`, and again once teardown took it.
    thread: Option<JoinHandle<()>>,
    shutdown: bool,
}

impl State {
    /// Poll the entries that are due; the ones found stalled leave the
    /// registry and are returned for the caller to declare unlocked.
    fn sweep(&mut self) -> Vec<Verdict> {
        // Nothing else moves virtual time: bring it to the earliest
        // virtual poll, which the wait that follows then yields on.
        let virtual_polls = self
            .entries
            .iter()
            .filter(|e| e.clock == ClockMode::Virtual);
        if let Some(t) = virtual_polls.map(|e| e.next_poll).min() {
            clock::advance_virtual_to(t);
        }
        let mut verdicts = Vec::new();
        let mut i = 0;
        while i < self.entries.len() {
            let e = &mut self.entries[i];
            let now = e.clock.now();
            if now >= e.next_poll {
                e.next_poll = now.saturating_add(poll_interval(e.deadline));
                let p = e.team.progress();
                if p != e.last_progress {
                    e.last_progress = p;
                    e.last_change = now;
                } else if now.saturating_sub(e.last_change) >= e.deadline {
                    let blocked = e.team.blocked_snapshot();
                    if !blocked.is_empty() {
                        verdicts.push((self.entries.swap_remove(i).team, blocked));
                        continue;
                    }
                }
            }
            i += 1;
        }
        verdicts
    }

    fn next_wake(&self) -> Option<Duration> {
        let real_now = ClockMode::Real.now();
        self.entries.iter().map(|e| e.due_real(real_now)).min()
    }
}

/// A runtime's deadline registry and (once armed) its watchdog thread.
pub(crate) struct Watchdog {
    state: Mutex<State>,
    wake: Condvar,
    /// The owning runtime's counter scope, for [`Counter::RegionStalled`].
    scope: Arc<obs::Scope>,
}

impl Watchdog {
    pub(crate) fn new(scope: Arc<obs::Scope>) -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(State {
                entries: Vec::new(),
                wake_at: None,
                thread: None,
                shutdown: false,
            }),
            wake: Condvar::new(),
            scope,
        })
    }

    /// Watch `team` until the returned guard drops. In steady traffic —
    /// the thread asleep until a poll that precedes this entry's first —
    /// this is a lock, a push and no syscall.
    ///
    /// Panics if the watchdog thread cannot be started; regions arm
    /// before they dispatch, so that unwinds no frame a worker borrows.
    pub(crate) fn arm<'a>(
        self: &'a Arc<Self>,
        team: &'a Arc<TeamShared>,
        deadline: Duration,
    ) -> Armed<'a> {
        let clock = clock::mode();
        let now = clock.now();
        let entry = Entry {
            team: Arc::clone(team),
            deadline,
            clock,
            last_progress: team.progress(),
            last_change: now,
            next_poll: now.saturating_add(poll_interval(deadline)),
        };
        let due = entry.due_real(ClockMode::Real.now());
        let mut s = self.state.lock();
        if s.thread.is_none() {
            let dog = Arc::clone(self);
            let thread = std::thread::Builder::new()
                .name("aomp-watchdog".into())
                .spawn(move || dog.run())
                .expect("failed to spawn aomp watchdog");
            s.thread = Some(thread);
            s.wake_at = Some(Duration::ZERO);
        }
        s.entries.push(entry);
        let wake = s.wake_at.is_none_or(|at| due < at);
        drop(s);
        if wake {
            self.wake.notify_one();
        }
        Armed { dog: self, team }
    }

    fn run(&self) {
        let mut s = self.state.lock();
        loop {
            let verdicts = s.sweep();
            if !verdicts.is_empty() {
                s.wake_at = Some(Duration::ZERO);
                drop(s);
                for (team, blocked) in verdicts {
                    team.declare_stalled(blocked);
                    self.scope.record(Counter::RegionStalled);
                }
                s = self.state.lock();
            }
            if s.shutdown {
                return;
            }
            s.wake_at = s.next_wake();
            match s.wake_at {
                None => self.wake.wait(&mut s),
                Some(at) => {
                    let timeout = at.saturating_sub(ClockMode::Real.now());
                    self.wake.wait_for(&mut s, timeout);
                }
            }
        }
    }

    /// Stop and join the thread, if one was ever started. Called from
    /// `Runtime` teardown, when no region of the runtime is in flight.
    pub(crate) fn shutdown_and_join(&self) {
        let thread = {
            let mut s = self.state.lock();
            s.shutdown = true;
            s.thread.take()
        };
        self.wake.notify_one();
        // Teardown can run *on* the watchdog thread: a verdict's team
        // may be the last owner of a value that holds the last runtime
        // handle. Never self-join; the thread exits on its own.
        if let Some(t) = thread.filter(|t| t.thread().id() != std::thread::current().id()) {
            let _ = t.join();
        }
    }
}

/// Disarms on drop: the region's entry leaves the registry (a no-op
/// after a verdict, which already removed it).
pub(crate) struct Armed<'a> {
    dog: &'a Watchdog,
    team: &'a Arc<TeamShared>,
}

impl Drop for Armed<'_> {
    fn drop(&mut self) {
        let mut s = self.dog.state.lock();
        if let Some(i) = s
            .entries
            .iter()
            .position(|e| Arc::ptr_eq(&e.team, self.team))
        {
            s.entries.swap_remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn watched_team(n: usize) -> Arc<TeamShared> {
        Arc::new(TeamShared::with_robustness(n, 1, false, true))
    }

    fn dog() -> Arc<Watchdog> {
        Watchdog::new(Arc::new(obs::Scope::default()))
    }

    #[test]
    fn disarm_empties_the_registry_and_teardown_joins() {
        let dog = dog();
        let (a, b) = (watched_team(1), watched_team(1));
        assert!(dog.state.lock().thread.is_none(), "started lazily");
        {
            let _a = dog.arm(&a, Duration::from_secs(30));
            let _b = dog.arm(&b, Duration::from_secs(30));
            assert_eq!(dog.state.lock().entries.len(), 2);
        }
        assert!(dog.state.lock().entries.is_empty());
        assert!(dog.state.lock().thread.is_some());
        dog.shutdown_and_join();
        assert!(dog.state.lock().thread.is_none());
        assert_eq!(Arc::strong_count(&dog), 1, "the thread dropped its handle");
    }

    #[test]
    fn only_the_stalled_entry_gets_a_verdict() {
        let dog = dog();
        let (stuck, healthy, computing) = (watched_team(2), watched_team(2), watched_team(2));
        let _w = stuck.begin_wait(1, WaitSite::Barrier);
        let _h = healthy.begin_wait(0, WaitSite::Join);
        let _a = dog.arm(&stuck, Duration::from_millis(40));
        let _b = dog.arm(&healthy, Duration::from_secs(30));
        // Silent for its whole deadline, but nobody is at a wait site.
        let _c = dog.arm(&computing, Duration::from_millis(40));
        let t0 = Instant::now();
        while !stuck.stall_declared() {
            assert!(t0.elapsed() < Duration::from_secs(10), "no verdict");
            healthy.bump_progress();
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(stuck.take_stalled(), Some(vec![(1, WaitSite::Barrier)]));
        assert!(!healthy.stall_declared() && !computing.stall_declared());
        assert_eq!(dog.scope.snapshot().counter(Counter::RegionStalled), 1);
        assert_eq!(dog.state.lock().entries.len(), 2, "a verdict disarms");
        dog.shutdown_and_join();
    }

    #[test]
    fn unbounded_deadline_neither_fires_nor_kills_the_thread() {
        let dog = dog();
        let (forever, stuck) = (watched_team(1), watched_team(1));
        let _w = forever.begin_wait(0, WaitSite::FutureGet);
        let _a = dog.arm(&forever, Duration::MAX);
        // The thread has the far-future entry in every sweep and wake-up
        // computation from here on; a verdict on a later entry shows it
        // survived them.
        let _v = stuck.begin_wait(0, WaitSite::FutureGet);
        let _b = dog.arm(&stuck, Duration::from_millis(8));
        let t0 = Instant::now();
        while !stuck.stall_declared() {
            assert!(t0.elapsed() < Duration::from_secs(10), "no verdict");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!forever.stall_declared());
        dog.shutdown_and_join();
    }
}
