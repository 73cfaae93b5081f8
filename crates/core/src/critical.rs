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

use parking_lot::{Mutex, ReentrantMutex, ReentrantMutexGuard};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crate::ctx;
use crate::error::WaitSite;
use crate::hook::{self, HookEvent};
use crate::obs;
use crate::wait::PARK_TIMEOUT;

/// A critical lock paired with a process-unique monotonic id. Hook events
/// key locks by this id, never by address: a dropped-and-reallocated lock
/// must not inherit the happens-before history (vclock release→acquire
/// chains) of whatever previously lived at the same address.
#[derive(Debug)]
pub(crate) struct LockBody {
    mutex: ReentrantMutex<()>,
    id: usize,
}

impl LockBody {
    fn new() -> Self {
        static NEXT_LOCK_ID: AtomicUsize = AtomicUsize::new(1);
        Self {
            mutex: ReentrantMutex::new(()),
            id: NEXT_LOCK_ID.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// Acquire a critical lock. Inside a team this is a *cancellation point*:
/// the wait is chopped into bounded slices so a poisoned or cancelled
/// team unwinds instead of blocking on a lock a dead sibling still
/// holds, and the blocked thread is registered as a
/// [`WaitSite::Critical`] for the stall watchdog.
///
/// Metrics on and metrics off take the same path and emit the identical
/// hook-event sequence (WaitRegister, then CriticalAcquire): the metrics
/// toggle only adds a zero-duration contention probe whose result feeds
/// the `critical_contended` counter, never a separate emit path — so an
/// explored schedule is byte-for-byte identical with metrics toggled.
fn acquire(lock: &LockBody) -> ReentrantMutexGuard<'_, ()> {
    ctx::with_current(|c| match c {
        None => lock.mutex.lock(),
        Some(c) => {
            c.shared.check_interrupt();
            let team = c.shared.token();
            let tid = c.tid;
            let _w = c.shared.begin_wait(tid, WaitSite::Critical);
            // Contention probe: a failed zero-duration try means another
            // thread holds the lock right now. Only with metrics on —
            // the extra try_lock is not free. (Criticals taken outside
            // any team go through the bare `lock()` above and are
            // not counted; `@Critical` contention matters inside teams.)
            let mut got = None;
            if obs::metrics_enabled() {
                got = lock.mutex.try_lock_for(Duration::ZERO);
                if got.is_none() {
                    obs::count(obs::Counter::CriticalContended);
                }
            }
            let g = match got {
                Some(g) => g,
                None => loop {
                    // Under a registered hook, probe without sleeping: the
                    // hook's blocked callback owns the park.
                    let got = if hook::active() {
                        lock.mutex.try_lock_for(Duration::ZERO)
                    } else {
                        lock.mutex.try_lock_for(PARK_TIMEOUT)
                    };
                    if let Some(g) = got {
                        break g;
                    }
                    c.shared.check_interrupt();
                    if !hook::yield_blocked(team, tid, WaitSite::Critical) && hook::active() {
                        // Hook declined the park (e.g. it is letting external
                        // waits drain): bound the probe loop ourselves.
                        std::thread::sleep(Duration::from_millis(1));
                    }
                },
            };
            hook::emit(|| HookEvent::CriticalAcquire {
                team,
                tid,
                lock: lock.id,
            });
            g
        }
    })
}

/// Run `f` holding `lock`, reporting the release to the scheduler hook
/// after the guard drops (so a checker observes the lock actually free).
fn run_locked<R>(lock: &LockBody, f: impl FnOnce() -> R) -> R {
    let g = acquire(lock);
    let r = f();
    drop(g);
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
