//! `@Single`, `@Master` and the readers/writer construct.
//!
//! `@Single` conditionally executes a method call by exactly one thread of
//! the team (whichever arrives first); `@Master` by the master thread
//! (team id 0). Both can be applied to value-returning methods, in which
//! case *the result is propagated to all threads in the team* (paper
//! §III-C) — the broadcast variants below. The readers/writer mechanism
//! allows multiple readers but a single exclusive writer, with `@Reader` /
//! `@Writer` marking the two kinds of access.

use parking_lot::{Condvar, Mutex, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};

use crate::ctx::{self, fresh_key};
use crate::error::WaitSite;
use crate::hook::{self, HookEvent};
use crate::wait::{self, Site};

/// Shared broadcast cell: the executing thread stores the value, the rest
/// of the team blocks until it appears.
struct BroadcastCell<T> {
    claimed: AtomicBool,
    /// `value` is set: what waiters poll without the lock.
    ready: AtomicBool,
    value: Mutex<Option<T>>,
    cv: Condvar,
    site: Site,
}

impl<T> Default for BroadcastCell<T> {
    fn default() -> Self {
        Self {
            claimed: AtomicBool::new(false),
            ready: AtomicBool::new(false),
            value: Mutex::new(None),
            cv: Condvar::new(),
            site: Site::default(),
        }
    }
}

impl<T: Clone> BroadcastCell<T> {
    fn publish(&self, v: &T) {
        {
            let mut value = self.value.lock();
            *value = Some(v.clone());
            self.ready.store(true, Ordering::Release);
        }
        self.cv.notify_all();
    }

    /// Block until the value is published, as a registered wait at `site`
    /// — a broadcast whose executing thread died cannot strand the team —
    /// then report the receive: this member is now ordered after the
    /// publish (the HB edge the race checker uses).
    fn await_value(&self, site: WaitSite) -> T {
        let v = wait::member_wait(
            site,
            Some(&self.site),
            (&self.value, &self.cv),
            || self.ready.load(Ordering::Acquire),
            |value| value.clone(),
            false,
        );
        hook::emit_team(|team, tid| HookEvent::BroadcastReceive { team, tid, site });
        v
    }
}

/// One encounter of the broadcast construct `key`, whose waits register
/// at `site`: the elected member — member 0 for `@Master`
/// ([`WaitSite::MasterBroadcast`]), else the first to arrive — runs `f`
/// and publishes its result, the rest of the team awaits it.
fn broadcast<T, F>(key: u64, site: WaitSite, f: F) -> T
where
    T: Clone + Send + 'static,
    F: FnOnce() -> T,
{
    ctx::with_current(|c| match c {
        None => f(),
        Some(c) if c.shared.n == 1 => f(),
        Some(c) => {
            let round = c.next_round(key);
            let cell = c.shared.slot::<BroadcastCell<T>>(key, round);
            let elected = if site == WaitSite::MasterBroadcast {
                c.tid == 0
            } else {
                !cell.claimed.swap(true, Ordering::AcqRel)
            };
            let result = if elected {
                let v = f();
                cell.publish(&v);
                c.shared.bump_progress();
                hook::emit(|| HookEvent::BroadcastPublish {
                    team: c.shared.token(),
                    tid: c.tid,
                    site,
                });
                v
            } else {
                cell.await_value(site)
            };
            c.shared.detach_slot(key, round);
            result
        }
    })
}

/// One encounter of the construct `key` without a broadcast: the member
/// [`broadcast`] would elect for `site` runs `f` and returns `Some`, the
/// others skip at once. Electing the master needs no team slot.
fn run_elected<T>(key: u64, site: WaitSite, f: impl FnOnce() -> T) -> Option<T> {
    let elected = if site == WaitSite::MasterBroadcast {
        ctx::thread_id() == 0
    } else {
        ctx::with_current(|c| match c {
            Some(c) if c.shared.n > 1 => {
                let round = c.next_round(key);
                let claimed = c.shared.slot::<AtomicBool>(key, round);
                let won = !claimed.swap(true, Ordering::AcqRel);
                c.shared.detach_slot(key, round);
                won
            }
            _ => true,
        })
    };
    elected.then(f)
}

/// The `@Single` construct: per encounter, the first team thread to arrive
/// executes the body.
///
/// Create one handle per annotated method / call site.
#[derive(Debug)]
pub struct Single {
    key: u64,
}

impl Single {
    /// New single construct.
    pub fn new() -> Self {
        Self { key: fresh_key() }
    }

    /// Execute `f` on exactly one thread and broadcast its result to the
    /// whole team. Every thread returns the same value.
    pub fn run<T, F>(&self, f: F) -> T
    where
        T: Clone + Send + 'static,
        F: FnOnce() -> T,
    {
        broadcast(self.key, WaitSite::SingleBroadcast, f)
    }

    /// Execute `f` on exactly one thread; the others skip immediately
    /// (OpenMP `single nowait`). Returns `Some` on the executing thread.
    pub fn run_nowait<T, F>(&self, f: F) -> Option<T>
    where
        F: FnOnce() -> T,
    {
        run_elected(self.key, WaitSite::SingleBroadcast, f)
    }
}

impl Default for Single {
    fn default() -> Self {
        Self::new()
    }
}

/// The `@Master` construct: only the team's master thread (id 0) executes
/// the body.
#[derive(Debug)]
pub struct Master {
    key: u64,
}

impl Master {
    /// New master construct.
    pub fn new() -> Self {
        Self { key: fresh_key() }
    }

    /// Execute `f` on the master thread and broadcast its result to the
    /// whole team.
    pub fn run<T, F>(&self, f: F) -> T
    where
        T: Clone + Send + 'static,
        F: FnOnce() -> T,
    {
        broadcast(self.key, WaitSite::MasterBroadcast, f)
    }

    /// Execute `f` on the master thread only; other threads skip
    /// immediately (plain `@Master`, paper Figure 8). Returns `Some` on
    /// the master.
    pub fn run_nowait<T, F>(&self, f: F) -> Option<T>
    where
        F: FnOnce() -> T,
    {
        run_elected(self.key, WaitSite::MasterBroadcast, f)
    }
}

impl Default for Master {
    fn default() -> Self {
        Self::new()
    }
}

/// Convenience: run `f` on the master thread of the innermost team (or
/// unconditionally outside a region); other threads skip.
pub fn master_only<T>(f: impl FnOnce() -> T) -> Option<T> {
    if ctx::thread_id() == 0 {
        Some(f())
    } else {
        None
    }
}

/// The readers/writer construct (`@Reader` / `@Writer`): multiple
/// concurrent readers, one exclusive writer. Process-scoped, like
/// `@Critical`.
#[derive(Debug, Default)]
pub struct RwConstruct {
    lock: RwLock<()>,
}

impl RwConstruct {
    /// New readers/writer construct.
    pub fn new() -> Self {
        Self::default()
    }

    /// Execute a reading access (`@Reader`): shared with other readers.
    pub fn read<R>(&self, f: impl FnOnce() -> R) -> R {
        let _g = self.lock.read();
        f()
    }

    /// Execute a writing access (`@Writer`): exclusive.
    pub fn write<R>(&self, f: impl FnOnce() -> R) -> R {
        let _g = self.lock.write();
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::thread_id;
    use crate::region::{parallel_with, RegionConfig};
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_executes_once_and_broadcasts() {
        let single = Single::new();
        let execs = AtomicUsize::new(0);
        let values = parking_lot::Mutex::new(Vec::new());
        parallel_with(RegionConfig::new().threads(4), || {
            let v = single.run(|| {
                execs.fetch_add(1, Ordering::SeqCst);
                1234u64
            });
            values.lock().push(v);
        });
        assert_eq!(execs.load(Ordering::SeqCst), 1);
        assert_eq!(values.into_inner(), vec![1234; 4]);
    }

    #[test]
    fn single_fresh_per_encounter() {
        let single = Single::new();
        let execs = AtomicUsize::new(0);
        parallel_with(RegionConfig::new().threads(3), || {
            for _ in 0..10 {
                single.run(|| {
                    execs.fetch_add(1, Ordering::SeqCst);
                });
                crate::ctx::barrier();
            }
        });
        assert_eq!(execs.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn single_nowait_returns_some_once() {
        let single = Single::new();
        let somes = AtomicUsize::new(0);
        parallel_with(RegionConfig::new().threads(4), || {
            if single.run_nowait(|| ()).is_some() {
                somes.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(somes.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn master_runs_on_tid0_and_broadcasts() {
        let master = Master::new();
        let exec_tid = AtomicUsize::new(usize::MAX);
        let values = parking_lot::Mutex::new(Vec::new());
        parallel_with(RegionConfig::new().threads(4), || {
            let v = master.run(|| {
                exec_tid.store(thread_id(), Ordering::SeqCst);
                99i32
            });
            values.lock().push(v);
        });
        assert_eq!(exec_tid.load(Ordering::SeqCst), 0);
        assert_eq!(values.into_inner(), vec![99; 4]);
    }

    #[test]
    fn master_nowait_skips_workers() {
        let master = Master::new();
        let ran = AtomicUsize::new(0);
        let skipped = AtomicUsize::new(0);
        parallel_with(RegionConfig::new().threads(4), || {
            match master.run_nowait(|| ()) {
                Some(()) => ran.fetch_add(1, Ordering::SeqCst),
                None => skipped.fetch_add(1, Ordering::SeqCst),
            };
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(skipped.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn constructs_work_sequentially() {
        let single = Single::new();
        let master = Master::new();
        assert_eq!(single.run(|| 5), 5);
        assert_eq!(single.run_nowait(|| 6), Some(6));
        assert_eq!(master.run(|| 7), 7);
        assert_eq!(master.run_nowait(|| 8), Some(8));
        assert_eq!(master_only(|| 9), Some(9));
    }

    #[test]
    fn rw_construct_allows_updates_and_reads() {
        let rw = RwConstruct::new();
        let data = parking_lot::Mutex::new(0u64); // payload guarded logically by rw
        let reads = AtomicUsize::new(0);
        parallel_with(RegionConfig::new().threads(4), || {
            for i in 0..50 {
                if thread_id() == 0 && i % 10 == 0 {
                    rw.write(|| {
                        *data.lock() += 1;
                    });
                } else {
                    rw.read(|| {
                        let _ = *data.lock();
                        reads.fetch_add(1, Ordering::Relaxed);
                    });
                }
            }
        });
        assert_eq!(*data.lock(), 5);
        assert!(reads.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn master_only_outside_region() {
        assert_eq!(master_only(|| 1), Some(1));
    }
}
