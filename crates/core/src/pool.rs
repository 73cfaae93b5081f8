//! Hot teams — the one team engine, and the runtime cache that keeps
//! teams warm.
//!
//! The paper's Figure 9 model has one region shape: the master wakes a
//! team, runs the body itself, and joins. [`HotTeam`] is the only way team
//! threads ever execute a region body here: `n − 1` workers waiting (the
//! spin-then-park [`wait`](crate::wait)) for one region generation
//! (dispatch), each running the member sequence — team context, body,
//! exit classification — and signalling a done-counter the master joins
//! on. The master half of the sequence lives once in [`region`](crate::region); what varies between
//! regions is only *where the team comes from*:
//!
//! * **leased** from the resolved [`Runtime`](crate::runtime::Runtime)'s
//!   size-keyed [`HotCache`] and returned on region exit — the default
//!   for top-level regions, and the optimisation the paper's §VII names
//!   as current work (Figure 13 measures region-entry overhead; the
//!   benchmark ledger's `region.entry_pooled_ns` row quantifies it).
//!   Thread creation leaves the entry path
//!   after the first region of each size;
//! * **fresh**: built for this region and torn down on exit — nested
//!   regions (`ctx::level() > 0`: the cache only serves top-level
//!   regions, avoiding lease re-entrancy),
//!   [`RegionConfig::pooled(false)`](crate::region::RegionConfig::pooled)
//!   (the benchmark ledger's `region.entry_spawned_ns` row),
//!   a closed or exhausted cache, and
//!   [`region::try_parallel_detached`](crate::region::try_parallel_detached)
//!   (its abandonment contract needs threads the runtime can afford to
//!   leak);
//! * **none** for a team of one.
//!
//! Each runtime owns one cache, so two runtimes never trade teams, and
//! dropping a runtime closes its cache: idle teams are torn down and
//! joined, and in-flight leases tear their team down on return instead of
//! re-caching it. Every lease records a cache hit or miss (and a miss a
//! team created) through its runtime's counter scope, which
//! [`Runtime::metrics_snapshot`] reads.
//!
//! Workers hold no region state between generations, so a panicking,
//! cancelled or stalled region never poisons the team for its next lease.
//! One observable consequence of reuse: cached workers are long-lived OS
//! threads, so per-OS-thread state such as
//! [`ThreadLocalField`](crate::threadlocal::ThreadLocalField) copies
//! persists across regions until `reduce`/`drain_locals`.
//!
//! [`TeamPool`] is the explicit surface: a handle on a private
//! single-size runtime, so its teams are never traded with any other
//! runtime's cache.

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::ctx::{CtxGuard, TeamShared};
use crate::obs;
use crate::region::{record_member_exit, RegionConfig};
use crate::runtime::Runtime;
use crate::wait::{self, Site};

/// One region's body, as its members reach it.
#[derive(Clone)]
pub(crate) enum Work<'a> {
    /// Living on the master's stack; always fully joined.
    Borrowed(&'a (dyn Fn() + Sync)),
    /// Co-owned by every member — ownership, not lifetime erasure, is
    /// what lets a master give up on a wedged member. The only work a
    /// master may abandon.
    Owned(Arc<dyn Fn() + Send + Sync>),
}

impl Work<'_> {
    pub(crate) fn run(&self) {
        match self {
            Work::Borrowed(body) => body(),
            Work::Owned(body) => body(),
        }
    }
}

/// The give-up join's arguments: the owned body of the dispatched
/// [`Work`], and the poll that says when to stop waiting.
pub(crate) type GiveUp<'a> = (&'a Arc<dyn Fn() + Send + Sync>, &'a mut dyn FnMut() -> bool);

#[derive(Default)]
struct Job {
    work: Option<Work<'static>>,
    team: Option<Arc<TeamShared>>,
}

/// Low bit of [`HotShared::signal`]: no generation follows this one.
const SHUTDOWN: u64 = 1;

#[derive(Default)]
struct HotShared {
    job: Mutex<Job>,
    start: Condvar,
    /// `generation << 1 | SHUTDOWN`: all an idle worker polls. Stored
    /// under the `job` lock, so a parked worker cannot miss a change, and
    /// one word, so a worker never spins past a shutdown.
    signal: AtomicU64,
    idle: Site,
    /// The completion latch: workers that finished the current
    /// generation. Stored under the `closed` lock; the joining master
    /// polls it.
    done: AtomicUsize,
    done_cv: Condvar,
    /// The latch's lock, and whether a give-up join abandoned the team:
    /// a straggler's late exit is then dropped rather than counted or
    /// recorded in a panic slot the master already classified, and
    /// teardown detaches instead of joins.
    closed: Mutex<bool>,
    joining: Site,
}

/// A parked team of `size − 1` worker threads that executes one region
/// generation at a time — leased from a [`HotCache`] or built fresh for
/// one region by [`region`](crate::region).
pub(crate) struct HotTeam {
    shared: Arc<HotShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    size: usize,
    /// Built for one region: the workers exit after their one generation
    /// instead of parking for a next one (saves a wake-up per worker at
    /// teardown).
    single_use: bool,
}

impl HotTeam {
    /// Spawn `size − 1` parked workers. Fallible: a cache miss under
    /// thread exhaustion is reported by the caller, not by a panic inside
    /// the cache.
    pub(crate) fn new(size: usize, single_use: bool) -> std::io::Result<Self> {
        assert!(size >= 1, "a hot team needs at least one thread");
        let mut team = HotTeam {
            shared: Arc::default(),
            handles: Vec::with_capacity(size - 1),
            size,
            single_use,
        };
        for tid in 1..size {
            let shared = Arc::clone(&team.shared);
            // On failure `team` drops here, shutting down the partial team.
            let handle = std::thread::Builder::new()
                .name(format!("aomp-team-t{tid}"))
                .spawn(move || worker_loop(shared, tid))?;
            team.handles.push(handle);
        }
        Ok(team)
    }

    pub(crate) fn size(&self) -> usize {
        self.size
    }

    fn workers(&self) -> usize {
        self.size - 1
    }

    /// Wake every worker with one region generation. The caller must pair
    /// this with [`join_workers`](Self::join_workers) — the full join,
    /// unless the work is owned — before a borrowed body goes out of
    /// scope, and must not dispatch again before that join — the
    /// single-`Job`-slot protocol has no queue.
    pub(crate) fn dispatch(&self, team: &Arc<TeamShared>, work: &Work<'_>) {
        // SAFETY: only the lifetime changes, and it only matters for
        // `Borrowed`: workers call the body between this dispatch and the
        // completion signal `join_workers` waits for, and the caller
        // keeps it alive across that window (it owns it on its stack).
        // The give-up join takes the `Owned` body, whose `Arc` each
        // worker clones with the job.
        let work = unsafe { std::mem::transmute::<Work<'_>, Work<'static>>(work.clone()) };
        {
            let mut job = self.shared.job.lock();
            job.work = Some(work);
            job.team = Some(Arc::clone(team));
            // Workers take a pending generation before they look at the
            // shutdown bit.
            let generation = (self.shared.signal.load(Ordering::Relaxed) >> 1) + 1;
            self.shared.signal.store(
                generation << 1 | u64::from(self.single_use),
                Ordering::Release,
            );
        }
        self.shared.start.notify_all();
    }

    /// Block until every worker of the current generation signalled
    /// completion, then reset for the next generation — the full join,
    /// with `None`.
    ///
    /// `Some` selects the give-up join, for owned work only (hence the
    /// body the closure comes paired with): the closure is polled, and
    /// once it says so the latch is closed and the stragglers abandoned —
    /// they co-own the body and their team state, and dropping this team
    /// then detaches them instead of joining.
    pub(crate) fn join_workers(&self, mut give_up: Option<GiveUp<'_>>) {
        let shared = &*self.shared;
        let all_done = || shared.done.load(Ordering::Acquire) == self.workers();
        // The give-up join neither spins nor parks unbounded: nothing
        // notifies this condvar when the watchdog declares the stall
        // `give_up` looks for, so it is polled on the park tick.
        let (site, tick): (_, Option<&dyn Fn()>) = match give_up {
            None => (Some(&shared.joining), None),
            Some(_) => (None, Some(&|| {})),
        };
        let joined = wait::wait_until(
            site,
            (&shared.closed, &shared.done_cv),
            all_done,
            |closed| {
                if all_done() {
                    shared.done.store(0, Ordering::Relaxed);
                    return Some(true);
                }
                *closed = give_up.as_mut().is_some_and(|(_body, give_up)| give_up());
                closed.then_some(false)
            },
            tick,
            || false,
        );
        if !joined {
            return;
        }
        // Clear the finished generation from the job slot: a cached idle
        // team must not keep the last region's `TeamShared` (watch state,
        // slot maps, its runtime back-reference) alive until the next
        // lease of the same size.
        let mut job = self.shared.job.lock();
        job.work = None;
        job.team = None;
    }
}

impl Drop for HotTeam {
    fn drop(&mut self) {
        {
            let _job = self.shared.job.lock();
            self.shared.signal.fetch_or(SHUTDOWN, Ordering::Release);
        }
        self.shared.start.notify_all();
        if *self.shared.closed.lock() {
            // Abandoned: a straggler wedged in user code may never come
            // back, so detach. Each exits on its own once it does.
            return;
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: Arc<HotShared>, tid: usize) {
    let mut last_generation = 0u64;
    loop {
        // Anything but "my last generation, not shut down" ends the wait,
        // so a single-use worker coming back from its one generation sees
        // the shutdown at its first probe and never idle-spins.
        let idle = last_generation << 1;
        let next = wait::wait_until(
            Some(&shared.idle),
            (&shared.job, &shared.start),
            || shared.signal.load(Ordering::Acquire) != idle,
            |job| {
                let signal = shared.signal.load(Ordering::Acquire);
                if signal >> 1 == last_generation {
                    return (signal & SHUTDOWN != 0).then_some(None);
                }
                last_generation = signal >> 1;
                let work = job.work.clone().expect("job body set");
                Some(Some((work, job.team.clone().expect("job team set"))))
            },
            None,
            || false,
        );
        let Some((work, team)) = next else {
            return;
        };
        // The member sequence: the ctx guard emits MemberStart/MemberEnd
        // hook events and makes cancellation points and wait-site
        // registration work, and the exit classifier filters benign
        // unwinds (cancel echoes, sibling poison) so only real panics
        // reach the caller.
        let r = catch_unwind(AssertUnwindSafe(|| {
            let _guard = CtxGuard::enter(Arc::clone(&team), tid);
            work.run();
        }));
        let closed = shared.closed.lock();
        if *closed {
            // The master gave up and classified the region already.
            continue;
        }
        record_member_exit(&team, r);
        let done = shared.done.fetch_add(1, Ordering::Release) + 1;
        drop(closed);
        if done == team.n - 1 {
            shared.done_cv.notify_all();
        }
    }
}

// ---------------------------------------------------------------------
// The runtime hot-team cache
// ---------------------------------------------------------------------

/// Cap on the total number of workers parked in *idle* cached teams.
/// Teams returned past the cap are torn down instead of cached — a bound
/// on quiescent thread usage, not on concurrency (leased teams don't
/// count; a burst of concurrent regions simply creates more teams).
const MAX_IDLE_WORKERS: usize = 256;

#[derive(Default)]
struct CacheState {
    /// Idle teams keyed by team size.
    teams: HashMap<usize, Vec<HotTeam>>,
    /// Total workers across all idle teams.
    workers: usize,
    /// Set by [`HotCache::close`] (runtime teardown): no more leases,
    /// and returning leases tear their team down instead of caching it.
    closed: bool,
}

/// One runtime's size-keyed cache of idle hot teams. Shared by the
/// runtime handle and every outstanding [`HotLease`] (a lease must be
/// able to return its team after the runtime handle is gone).
pub(crate) struct HotCache {
    state: Mutex<CacheState>,
    /// The owning runtime's counter scope: hit/miss/created events are
    /// recorded through it.
    scope: Arc<obs::Scope>,
}

impl HotCache {
    pub(crate) fn new(scope: Arc<obs::Scope>) -> Arc<HotCache> {
        Arc::new(HotCache {
            state: Mutex::new(CacheState::default()),
            scope,
        })
    }

    /// Lease a hot team of exactly `size` threads, creating one on a
    /// miss. Returns `None` when the cache is closed or the workers
    /// cannot be spawned — the caller builds a fresh team instead.
    pub(crate) fn lease(self: &Arc<Self>, size: usize) -> Option<HotLease> {
        debug_assert!(size >= 2, "size-1 regions run inline, not pooled");
        let cached = {
            let mut st = self.state.lock();
            if st.closed {
                return None;
            }
            match st.teams.get_mut(&size).and_then(|v| v.pop()) {
                Some(t) => {
                    st.workers -= t.workers();
                    Some(t)
                }
                None => None,
            }
        };
        let team = match cached {
            Some(t) => {
                self.scope.record(obs::Counter::PoolCacheHit);
                t
            }
            None => {
                self.scope.record(obs::Counter::PoolCacheMiss);
                let t = HotTeam::new(size, false).ok()?;
                self.scope.record(obs::Counter::TeamsCreated);
                t
            }
        };
        Some(HotLease {
            team: Some(team),
            cache: Arc::clone(self),
        })
    }

    /// Close the cache and tear down every idle team (joins their
    /// workers — bounded by the member protocol: idle teams are parked,
    /// not running user code). Permanent; called from runtime teardown.
    pub(crate) fn close(&self) {
        let teams = {
            let mut st = self.state.lock();
            st.closed = true;
            st.workers = 0;
            std::mem::take(&mut st.teams)
        };
        // Tear down outside the lock: each HotTeam::drop joins workers.
        drop(teams);
    }
}

/// An exclusive lease on a [`HotTeam`] from a runtime's cache. Dropping
/// the lease returns the team to the cache (or tears it down past
/// [`MAX_IDLE_WORKERS`], or when the cache has been closed by runtime
/// teardown). Exclusivity is the reason the hot path needs no dispatch
/// serialisation: concurrent top-level regions each hold their own team.
pub(crate) struct HotLease {
    team: Option<HotTeam>,
    cache: Arc<HotCache>,
}

impl HotLease {
    pub(crate) fn team(&self) -> &HotTeam {
        self.team.as_ref().expect("lease holds a team until drop")
    }
}

impl Drop for HotLease {
    fn drop(&mut self) {
        let team = self.team.take().expect("lease holds a team until drop");
        let evicted = {
            let mut st = self.cache.state.lock();
            if !st.closed && st.workers + team.workers() <= MAX_IDLE_WORKERS {
                st.workers += team.workers();
                st.teams.entry(team.size()).or_default().push(team);
                None
            } else {
                Some(team)
            }
        };
        // Tear down outside the lock: Drop joins the workers.
        drop(evicted);
    }
}

// ---------------------------------------------------------------------
// The explicit, user-owned pool
// ---------------------------------------------------------------------

/// A reusable, user-owned team of worker threads for executing parallel
/// regions — a handle on a private [`Runtime`] whose default team size is
/// the pool's, so its workers are never traded with another runtime's
/// cache.
///
/// Semantics are those of
/// [`region::parallel_with`](crate::region::parallel_with): every member
/// (the caller is the master, id 0) runs the body once under a fresh team
/// context; panics poison the team and re-raise on the caller; the pool
/// itself survives and stays reusable. Dropping the pool joins its
/// workers.
///
/// It stays, although a `Runtime` with the same team size does the same
/// job, because `aomp-benchmark`'s `pool.team_pool_run_ns` ledger row
/// constructs it.
pub struct TeamPool {
    rt: Runtime,
}

impl TeamPool {
    /// Pool executing regions with a team of `threads` (`threads − 1`
    /// persistent workers, created by the first region).
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a team pool needs at least one thread");
        Self {
            rt: Runtime::builder().threads(threads).build(),
        }
    }

    /// Team size of this pool.
    pub fn size(&self) -> usize {
        self.rt.default_threads()
    }

    /// Execute `body` as a parallel region on the pooled team. Blocks
    /// until every member has finished; panics (on the caller) if any
    /// member panicked. The calling thread's parallel kill switch is
    /// honoured: with it off the body runs once, sequentially.
    pub fn parallel<F>(&self, body: F)
    where
        F: Fn() + Sync,
    {
        let enabled = crate::runtime::current().parallel_enabled();
        self.rt
            .parallel_with(RegionConfig::new().only_if(enabled), body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{team_size, thread_id};
    use crate::prelude::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex as StdMutex;

    #[test]
    fn pool_runs_body_on_every_member() {
        let pool = TeamPool::new(4);
        let count = AtomicUsize::new(0);
        pool.parallel(|| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn pool_is_reusable_across_regions() {
        let pool = TeamPool::new(3);
        let count = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.parallel(|| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(count.load(Ordering::SeqCst), 150);
    }

    #[test]
    fn pool_provides_team_context() {
        let pool = TeamPool::new(4);
        let ids = StdMutex::new(HashSet::new());
        pool.parallel(|| {
            assert_eq!(team_size(), 4);
            ids.lock().unwrap().insert(thread_id());
        });
        assert_eq!(ids.into_inner().unwrap(), (0..4).collect::<HashSet<_>>());
    }

    #[test]
    fn pool_supports_constructs() {
        let pool = TeamPool::new(4);
        let for_c = ForConstruct::new(Schedule::Dynamic { chunk: 8 });
        let sum = std::sync::atomic::AtomicI64::new(0);
        pool.parallel(|| {
            for_c.execute(LoopRange::upto(0, 1000), |lo, hi, step| {
                let mut local = 0;
                let mut i = lo;
                while i < hi {
                    local += i;
                    i += step;
                }
                sum.fetch_add(local, Ordering::Relaxed);
            });
            crate::ctx::barrier();
        });
        assert_eq!(sum.load(Ordering::Relaxed), (0..1000).sum::<i64>());
    }

    #[test]
    fn pool_of_one_runs_inline() {
        let pool = TeamPool::new(1);
        let count = AtomicUsize::new(0);
        pool.parallel(|| {
            assert_eq!(team_size(), 1);
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = TeamPool::new(3);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.parallel(|| {
                if thread_id() == 2 {
                    panic!("pooled worker dies");
                }
                crate::ctx::barrier();
            });
        }));
        assert!(r.is_err());
        // Pool still usable.
        let count = AtomicUsize::new(0);
        pool.parallel(|| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn master_panic_propagates_and_pool_survives() {
        let pool = TeamPool::new(2);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.parallel(|| {
                if thread_id() == 0 {
                    panic!("pooled master dies");
                }
                crate::ctx::barrier();
            });
        }));
        assert!(r.is_err());
        let count = AtomicUsize::new(0);
        pool.parallel(|| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn kill_switch_degrades_pool_to_sequential() {
        let pool = TeamPool::new(4);
        // The pool honours the caller's current runtime: switch off a
        // private one, entered, rather than the default one its sibling
        // tests run on.
        let ambient = Runtime::builder().build();
        ambient.set_parallel_enabled(false);
        let _in_ambient = ambient.enter();
        let count = AtomicUsize::new(0);
        pool.parallel(|| {
            assert_eq!(team_size(), 1);
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    /// A team of `size` that has just run a few empty generations: its
    /// idle and join sites remember quick waits.
    fn warm_team(size: usize) -> HotTeam {
        let team = HotTeam::new(size, false).expect("spawn");
        for _ in 0..20 {
            let shared = Arc::new(TeamShared::new(size, 1));
            let body = || {};
            team.dispatch(&shared, &Work::Borrowed(&body));
            team.join_workers(None);
        }
        team
    }

    #[test]
    fn abandoned_straggler_leaves_the_latch_untouched() {
        let team = HotTeam::new(2, true).expect("spawn");
        let release = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let body: Arc<dyn Fn() + Send + Sync> = {
            let release = Arc::clone(&release);
            Arc::new(move || {
                while !release.load(Ordering::Acquire) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                panic!("a straggler's late panic");
            })
        };
        let shared = Arc::new(TeamShared::new(2, 1));
        team.dispatch(&shared, &Work::Owned(Arc::clone(&body)));
        team.join_workers(Some((&body, &mut || true)));
        let hot = Arc::clone(&team.shared);
        assert!(*hot.closed.lock(), "the give-up join closed the latch");
        drop(team); // detaches: the straggler is still in the body
        release.store(true, Ordering::Release);
        // The straggler finds the latch closed, then the shutdown, and
        // exits — dropping its handle on the shared state.
        while Arc::strong_count(&hot) > 1 {
            std::thread::yield_now();
        }
        assert_eq!(hot.done.load(Ordering::Acquire), 0, "no late bump");
        assert!(shared.first_panic.lock().is_none(), "no late exit record");
    }

    #[test]
    fn dropping_a_team_whose_workers_spin_joins_promptly() {
        // Right after a quick generation the workers are polling for the
        // next one: the shutdown must reach them there (or, parked, by
        // notification), never be slept through.
        for _ in 0..50 {
            let team = warm_team(3);
            let t0 = std::time::Instant::now();
            drop(team);
            assert!(t0.elapsed() < std::time::Duration::from_secs(2));
        }
    }

    #[test]
    fn latch_is_reset_at_every_hand_over() {
        let team = warm_team(4);
        assert_eq!(team.shared.done.load(Ordering::Acquire), 0);
        assert_eq!(team.shared.signal.load(Ordering::Acquire), 20 << 1);
        assert!(team.shared.job.lock().team.is_none());
    }

    #[test]
    fn lease_round_trips_through_cache() {
        let cache = HotCache::new(Arc::new(obs::Scope::default()));
        {
            let l = cache.lease(7).expect("lease");
            assert_eq!(l.team().size(), 7);
        } // returned to cache on drop
        let l = cache.lease(7).expect("lease");
        assert_eq!(l.team().size(), 7);
        // The first lease missed (fresh cache), the second must hit.
        let counts = cache.scope.snapshot();
        assert_eq!(counts.counter(obs::Counter::PoolCacheMiss), 1);
        assert_eq!(counts.counter(obs::Counter::PoolCacheHit), 1);
    }

    #[test]
    fn closed_cache_refuses_leases_and_tears_down_returns() {
        let cache = HotCache::new(Arc::new(obs::Scope::default()));
        let l = cache.lease(3).expect("lease");
        cache.close();
        drop(l); // returns into a closed cache: torn down, not re-cached
        assert!(cache.state.lock().teams.is_empty());
        assert!(cache.lease(3).is_none(), "closed cache must refuse");
    }
}
