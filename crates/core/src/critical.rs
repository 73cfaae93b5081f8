//! `@Critical` — mutual exclusion with optional shared named locks.
//!
//! The paper (§III-C) extends Java's per-object `synchronized` with locks
//! that can be *shared among multiple type-unrelated objects* and
//! distinguished by an `id` parameter, and notes that `@Critical`'s scope
//! is **all threads in the system** (unlike barriers, which are
//! team-scoped). Two pointcut-style variants exist:
//! `criticalUsingCapturedLock` (one lock per target object) and
//! `criticalUsingSharedLock` (one lock per aspect).
//!
//! The Rust mapping:
//! * [`critical_named`] / [`critical`] — process-wide named locks (the
//!   annotation `id` parameter; the anonymous form uses a single global
//!   default lock, standing in for "the lock of the object where the
//!   annotation is defined" in the absence of an enclosing object).
//! * [`CriticalHandle`] — an owned lock: embed one per object for the
//!   captured-lock variant, or share one handle across call sites for the
//!   shared-lock variant.
//!
//! A lock is an *owner word* (the holder's thread token, 0 when free)
//! plus a re-entrancy depth only the holder touches: an entry is one CAS,
//! a release one store. An acquire whose first try fails counts
//! `critical_contended`, retries for a few spins and only then waits as
//! every member wait does (`wait::wait_until`, registered at
//! [`WaitSite::Critical`]): its probe is "free or mine", its take the CAS.
//! A release notifies the wait's condvar only while `sleepers` counts a
//! waiter that got as far as offering to park.

use parking_lot::{Condvar, Mutex};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::{Arc, OnceLock};

use crate::ctx;
use crate::error::WaitSite;
use crate::hook::{self, HookEvent};
use crate::obs;
use crate::wait;

/// A critical lock paired with a process-unique monotonic id. Hook events
/// key locks by this id, never by address: a dropped-and-reallocated lock
/// must not inherit the happens-before history (vclock release→acquire
/// chains) of whatever previously lived at the same address.
#[derive(Debug, Default)]
pub(crate) struct LockBody {
    /// The holder's `ctx::thread_token`; 0 = free.
    owner: AtomicUsize,
    /// The holder's re-entrancy depth.
    depth: AtomicUsize,
    /// Waiters that offered to park on `sync` and are still waiting.
    sleepers: AtomicUsize,
    sync: (Mutex<()>, Condvar),
    site: wait::Site,
    id: usize,
}

impl LockBody {
    fn new() -> Self {
        static NEXT_LOCK_ID: AtomicUsize = AtomicUsize::new(1);
        let id = NEXT_LOCK_ID.fetch_add(1, Relaxed);
        Self {
            id,
            ..Self::default()
        }
    }

    /// Whether thread `me` could take the lock now.
    fn open_to(&self, me: usize) -> bool {
        let owner = self.owner.load(Relaxed);
        owner == 0 || owner == me
    }

    /// Take the lock for thread `me`, or enter it once more.
    fn take(&self, me: usize) -> bool {
        let cas = self.owner.compare_exchange(0, me, SeqCst, Relaxed);
        let got = cas.map_or_else(|owner| owner == me, |_| true);
        if got {
            self.depth.store(self.depth.load(Relaxed) + 1, Relaxed);
        }
        got
    }
}

/// Holds its lock until dropped, unwinding included.
struct Held<'a>(&'a LockBody);

impl Drop for Held<'_> {
    fn drop(&mut self) {
        let lock = self.0;
        let depth = lock.depth.load(Relaxed) - 1;
        lock.depth.store(depth, Relaxed);
        // Notify only while a waiter is counted in `sleepers`: it counts
        // itself before its locked `take`, and this store comes before
        // the load below (all SeqCst). Either the load sees the count and
        // the notify, made under the lock, finds the waiter parked or
        // precedes its next locked `take`, which sees `owner == 0`; or
        // the count comes after the load, and so does the `take`.
        if depth == 0 {
            lock.owner.store(0, SeqCst);
            if lock.sleepers.load(SeqCst) > 0 {
                let _g = lock.sync.0.lock();
                lock.sync.1.notify_one();
            }
        }
    }
}

/// A waiter's place in `sleepers`, taken the first time it offers to
/// park — a spinning waiter costs a release nothing — and given back
/// when its wait returns or unwinds.
struct Sleeper<'a>(&'a AtomicUsize, Cell<bool>);

impl Sleeper<'_> {
    /// Count the waiter in, once. It parks on the condvar all the same.
    fn count_in(&self) -> bool {
        if !self.1.replace(true) {
            self.0.fetch_add(1, SeqCst);
        }
        false
    }
}

impl Drop for Sleeper<'_> {
    fn drop(&mut self) {
        if self.1.get() {
            self.0.fetch_sub(1, Relaxed);
        }
    }
}

/// Acquire a critical lock. Inside a team this is a *cancellation point*
/// and a blocked acquire a [`WaitSite::Critical`] wait, seen by the stall
/// watchdog, so a poisoned or cancelled team unwinds instead of blocking
/// on a lock a dead sibling still holds. Under a registered scheduler
/// hook a member registers before its first try, so every acquire a
/// checker explores emits WaitRegister, then CriticalAcquire.
fn acquire(lock: &LockBody) -> Held<'_> {
    let me = ctx::thread_token();
    let open = || lock.open_to(me);
    ctx::with_current(|c| {
        let member = c.map(|c| (&*c.shared, c.tid));
        member.inspect(|(team, _)| team.check_interrupt());
        let quick = !(member.is_some() && hook::active())
            && (lock.take(me) || {
                obs::count(obs::Counter::CriticalContended);
                wait::spin(open, || lock.take(me))
            });
        if !quick {
            let sleeper = Sleeper(&lock.sleepers, Cell::new(false));
            wait::registered(member, WaitSite::Critical, false, |check, park| {
                let (mx, cv) = &lock.sync;
                let take = |_: &mut ()| lock.take(me).then_some(());
                let park = || park() || sleeper.count_in();
                wait::wait_until(Some(&lock.site), (mx, cv), open, take, check, park)
            });
        }
        if let Some((team, tid)) = member {
            hook::emit(|| HookEvent::CriticalAcquire {
                team: team.token(),
                tid,
                lock: lock.id,
            });
        }
        Held(lock)
    })
}

/// Run `f` holding `lock`, reporting the release to the scheduler hook
/// once the lock is free (so a checker observes it actually free).
fn run_locked<R>(lock: &LockBody, f: impl FnOnce() -> R) -> R {
    let held = acquire(lock);
    let r = f();
    drop(held);
    hook::emit_team(|team, tid| HookEvent::CriticalRelease {
        team,
        tid,
        lock: lock.id,
    });
    r
}

/// Registry of process-wide named locks. Entries are never removed: lock
/// names are static program structure (annotation ids), not data.
fn registry() -> &'static Mutex<HashMap<String, Arc<LockBody>>> {
    static REGISTRY: OnceLock<Mutex<HashMap<String, Arc<LockBody>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(HashMap::new()))
}

fn named_lock(name: &str) -> Arc<LockBody> {
    let mut reg = registry().lock();
    if let Some(l) = reg.get(name) {
        return Arc::clone(l);
    }
    let l = Arc::new(LockBody::new());
    reg.insert(name.to_owned(), Arc::clone(&l));
    l
}

/// Run `f` in mutual exclusion under the process-wide lock named `id` —
/// `@Critical(id = name)`. Re-entrant: a thread already holding the lock
/// may enter nested criticals with the same id (Java's `synchronized` is
/// re-entrant, and the paper replaces it).
pub fn critical_named<R>(id: &str, f: impl FnOnce() -> R) -> R {
    let lock = named_lock(id);
    run_locked(&lock, f)
}

/// Run `f` under the anonymous default critical lock — a bare
/// `@Critical`. All bare criticals in the process exclude each other, like
/// OpenMP's unnamed `critical`.
pub fn critical<R>(f: impl FnOnce() -> R) -> R {
    critical_named("", f)
}

/// An owned critical lock, for the pointcut-style variants:
/// * *captured lock* — store a `CriticalHandle` in each object; methods of
///   the same object exclude each other but different objects proceed in
///   parallel;
/// * *shared lock* — share one handle (e.g. in an aspect module) across
///   otherwise unrelated call sites.
#[derive(Debug, Clone)]
pub struct CriticalHandle {
    lock: Arc<LockBody>,
}

impl Default for CriticalHandle {
    fn default() -> Self {
        Self {
            lock: Arc::new(LockBody::new()),
        }
    }
}

impl CriticalHandle {
    /// A fresh, unshared lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// The process-unique monotonic id hook events use for this lock.
    /// Never reused, even after the handle is dropped.
    pub fn lock_id(&self) -> usize {
        self.lock.id
    }

    /// Handle to the process-wide named lock `id`; handles with equal ids
    /// exclude each other.
    pub fn named(id: &str) -> Self {
        Self {
            lock: named_lock(id),
        }
    }

    /// Run `f` holding this lock. A cancellation point inside a team (see
    /// [`critical_named`]).
    pub fn run<R>(&self, f: impl FnOnce() -> R) -> R {
        run_locked(&self.lock, f)
    }

    /// True when both handles guard the same underlying lock.
    pub fn same_lock(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.lock, &other.lock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{parallel_with, RegionConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A non-atomic counter only safe to bump inside a critical section.
    struct Unsync(std::cell::UnsafeCell<u64>);
    unsafe impl Sync for Unsync {}
    impl Unsync {
        fn bump(&self) {
            // Data race unless callers exclude each other.
            unsafe { *self.0.get() += 1 }
        }
        fn get(&self) -> u64 {
            unsafe { *self.0.get() }
        }
    }

    #[test]
    fn critical_excludes_concurrent_updates() {
        let counter = Unsync(std::cell::UnsafeCell::new(0));
        parallel_with(RegionConfig::new().threads(4), || {
            for _ in 0..1000 {
                critical_named("test-excl", || counter.bump());
            }
        });
        assert_eq!(counter.get(), 4000);
    }

    #[test]
    fn named_locks_are_shared_by_name() {
        let a = CriticalHandle::named("shared-x");
        let b = CriticalHandle::named("shared-x");
        let c = CriticalHandle::named("shared-y");
        assert!(a.same_lock(&b));
        assert!(!a.same_lock(&c));
    }

    #[test]
    fn fresh_handles_are_independent() {
        let a = CriticalHandle::new();
        let b = CriticalHandle::new();
        assert!(!a.same_lock(&b));
    }

    #[test]
    fn reentrant_same_id() {
        // Java synchronized is re-entrant; @Critical replaces it.
        let v = critical_named("reent", || critical_named("reent", || 42));
        assert_eq!(v, 42);
    }

    #[test]
    fn disjoint_ids_do_not_serialise() {
        // Two disjoint lock sets within one "object" — the paper's
        // composability motivation for lock ids. We only verify they don't
        // deadlock when nested in opposite orders under contention.
        let hits = AtomicUsize::new(0);
        parallel_with(RegionConfig::new().threads(2), || {
            for _ in 0..200 {
                if crate::ctx::thread_id() == 0 {
                    critical_named("ab-a", || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                    critical_named("ab-b", || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                } else {
                    critical_named("ab-b", || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                    critical_named("ab-a", || {
                        hits.fetch_add(1, Ordering::Relaxed);
                    });
                }
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), 800);
    }

    #[test]
    fn handle_run_returns_value() {
        let h = CriticalHandle::new();
        assert_eq!(h.run(|| "ok"), "ok");
    }

    #[test]
    fn lock_ids_are_monotonic_and_never_reused() {
        // A dropped-and-recreated handle must get a fresh id even when the
        // allocator reuses the address — the id is what hook events key
        // happens-before chains by, so address aliasing would make a new
        // lock inherit the old lock's release history.
        let first = CriticalHandle::new().lock_id();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..64 {
            let h = CriticalHandle::new();
            assert!(seen.insert(h.lock_id()), "id {} reused", h.lock_id());
            assert!(h.lock_id() > first);
            drop(h); // freed slot may be reallocated by the next iteration
        }
    }

    #[test]
    fn named_handles_share_one_id() {
        let a = CriticalHandle::named("id-shared");
        let b = CriticalHandle::named("id-shared");
        assert_eq!(a.lock_id(), b.lock_id());
        assert_ne!(a.lock_id(), CriticalHandle::named("id-other").lock_id());
    }

    #[test]
    fn captured_lock_per_object_pattern() {
        // captured-lock variant: one lock per target object.
        struct Particle {
            lock: CriticalHandle,
            hits: Unsync,
        }
        let particles: Vec<Particle> = (0..4)
            .map(|_| Particle {
                lock: CriticalHandle::new(),
                hits: Unsync(std::cell::UnsafeCell::new(0)),
            })
            .collect();
        parallel_with(RegionConfig::new().threads(4), || {
            for p in &particles {
                for _ in 0..100 {
                    p.lock.run(|| p.hits.bump());
                }
            }
        });
        for p in &particles {
            assert_eq!(p.hits.get(), 400);
        }
    }
}
