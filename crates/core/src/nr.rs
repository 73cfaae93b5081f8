//! `aomp::nr` — node replication: scale past a single lock by replicating
//! critical-guarded state.
//!
//! The paper's `@Critical` (§III-C) serialises *every* thread in the
//! process through one lock, so a hot shared structure stops scaling the
//! moment the lock is contended. This module offers a drop-in upgrade
//! borrowed from node-replication designs (Calciu et al., *Black-box
//! Concurrent Data Structures for NUMA Architectures*, ASPLOS '17): keep
//! the structure single-threaded, but
//!
//! 1. record every mutating operation in a **shared bounded operation
//!    log** (a ring of slots stamped with absolute positions),
//! 2. keep one **replica** of the structure per "node" (NUMA socket or
//!    just a contention domain), each replaying the log independently,
//! 3. serialise each replica's writers on the replica's **lock**: a
//!    writer takes it, appends its own op with one tail reservation,
//!    replays the log through the replica up to that op, and answers
//!    itself,
//! 4. serve readers from the local replica after it has caught up with
//!    the log tail observed at the start of the read — the standard
//!    node-replication linearizability condition.
//!
//! Writers on different replicas contend only on the log tail (one CAS
//! per op); readers on different replicas do not contend at all.
//!
//! [`Replicated<T>`] is the API: implement [`Dispatch`] for a plain
//! single-threaded structure (an enum of read/write ops mapped to
//! responses) and `Replicated` makes it concurrent. A replica is its
//! data, the log prefix it has applied and its writers' lock; the
//! operation log is `Replicated`'s own. A thread uses replica `team rank
//! % replicas` (replica 0 outside a team), so there is nothing to
//! register.
//!
//! No writer runs another writer's op on its behalf: a flat-combining
//! slot array that batched a replica's writers answered under 0.3 % of
//! the writes in the benchmark workloads that write (2-core host), so it
//! was deleted.
//!
//! `@Replicated` on a *code* section (`#[replicated]`, the weaver's
//! `Mechanism::replicated*`) is not this module: it is `@Critical`'s lock
//! under another name ([`CriticalHandle`](crate::critical::CriticalHandle),
//! one name space with `@Critical(id)`). Flat-combining closure bodies
//! lost to that owner-word lock at every section size measured on a
//! 2-core host (24–98 ns per entry against 66–188 ns, two members), and
//! what node replication wins — a contended structure's cache lines kept
//! on one NUMA node — needs data to replicate and more than one node.
//!
//! Two rules cover the ways out of a write:
//!
//! * **Cancel.** [`Replicated::execute`] is a cancellation point. A
//!   writer whose team is poisoned or cancelled while it waits for its
//!   replica's lock unwinds with nothing logged. Once it holds the lock
//!   its op is logged and runs: the waits made holding the lock (the
//!   replica's data lock, a log slot's stamp, a full ring) never unwind,
//!   and the writer unwinds after its op, so the op ran exactly once.
//! * **Panic.** Every replayed op runs under `catch_unwind`. A panicking
//!   op's payload is re-raised on its own writer once the replica's lock
//!   is released; replicas replaying the op for other writers drop the
//!   payload and go on. So a panic breaks neither the log nor the
//!   structure.
//!
//! # Checker integration
//!
//! Every protocol transition is reported to the [hook layer](crate::hook)
//! so `aomp-check` can replay schedules and extend its happens-before
//! relation: [`NrAppend`](crate::hook::HookEvent::NrAppend) when a writer
//! has reserved its op's log position, before the op turns visible,
//! [`NrCombine`](crate::hook::HookEvent::NrCombine) when a pass starts
//! replaying a log range into a replica, and
//! [`NrSync`](crate::hook::HookEvent::NrSync) when a thread synchronises
//! with a replica (the end of a replay pass, a reader's catch-up).
//! Blocked waits park at [`WaitSite::Replicated`] and are visible to the
//! stall watchdog.

use parking_lot::{Mutex, RwLock};
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread;
use std::time::Duration;

use crate::ctx;
use crate::error::WaitSite;
use crate::hook::{self, HookEvent};
use crate::obs;

/// A single-threaded structure made concurrent by [`Replicated`].
///
/// Model the structure's interface as two op enums: `ReadOp` for
/// operations that do not change state and `WriteOp` for those that do.
/// `Replicated` replays every `WriteOp` on every replica in one global
/// order (the operation log), so `dispatch_mut` must be deterministic —
/// same op + same state must produce the same state on every replica.
pub trait Dispatch {
    /// Read-only operations; executed against one replica's state.
    type ReadOp;
    /// Mutating operations; appended to the shared log and replayed on
    /// every replica (hence `Clone`), possibly by other threads (hence
    /// `Send + Sync`).
    type WriteOp: Clone + Send + Sync;
    /// The result of either kind of operation.
    type Response: Send;

    /// Execute a read-only operation against the current state.
    fn dispatch(&self, op: &Self::ReadOp) -> Self::Response;

    /// Execute a mutating operation. Must be deterministic. A panic is
    /// re-raised on the op's own writer (see module docs); each replica
    /// keeps the state the op left it in and goes on.
    fn dispatch_mut(&mut self, op: &Self::WriteOp) -> Self::Response;
}

// --------------------------------------------------------------------
// Shared plumbing
// --------------------------------------------------------------------

/// Smallest operation log [`Replicated::with_config`] builds.
const MIN_LOG: usize = 128;
/// Operation-log size (slots) a [`Replicated::new`] structure gets.
const LOG_SIZE: usize = 1024;

/// Process-unique monotonic identity for replicated structures. Never
/// address-derived and never reused: hook events key happens-before
/// state by this id, and a dropped-and-reallocated structure must not
/// inherit the clock history of whatever previously lived at its
/// address.
fn next_nr_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Replicas a [`Replicated::new`] structure gets: a core-count heuristic
/// (1 below 4 cores, 2 below 16, 4 beyond — stand-ins for NUMA nodes on
/// machines where we cannot ask).
pub fn default_replicas() -> usize {
    match std::thread::available_parallelism().map_or(1, |n| n.get()) {
        0..=3 => 1,
        4..=15 => 2,
        _ => 4,
    }
}

/// Block until `ready` yields a value. This is no [`wait`](crate::wait)
/// park: every condition here (a `try_lock`, a log slot's stamp, ring
/// space) is a lock-free probe no condvar is notified for, and a wait
/// made holding the replica's lock must not unwind. Outside a team:
/// spin, then yield. Inside a team: register at [`WaitSite::Replicated`]
/// for the stall watchdog, offer every park to a registered scheduler
/// hook, and, if `may_unwind`, unwind once the team is poisoned or
/// cancelled.
fn block_on<R>(mut ready: impl FnMut() -> Option<R>, may_unwind: bool) -> R {
    if let Some(r) = ready() {
        return r;
    }
    ctx::with_current(|c| match c {
        None => {
            let mut spins = 0u32;
            loop {
                if let Some(r) = ready() {
                    break r;
                }
                spins += 1;
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
        Some(c) => {
            let team = c.shared.token();
            let tid = c.tid;
            let _w = c.shared.begin_wait(tid, WaitSite::Replicated);
            loop {
                if let Some(r) = ready() {
                    break r;
                }
                if may_unwind {
                    c.shared.check_interrupt();
                }
                if !hook::yield_blocked(team, tid, WaitSite::Replicated) {
                    if hook::active() {
                        // Hook declined the park: bound the probe loop.
                        std::thread::sleep(Duration::from_millis(1));
                    } else {
                        std::thread::yield_now();
                    }
                }
            }
        }
    })
}

// The protocol's happens-before edges (see the module's checker section).

fn append_edge(nr: usize, lo: u64, hi: u64) {
    hook::emit_team(|team, tid| HookEvent::NrAppend {
        team,
        tid,
        nr,
        lo,
        hi,
    });
}

fn combine_edge(nr: usize, replica: usize, lo: u64, hi: u64) {
    hook::emit_team(|team, tid| HookEvent::NrCombine {
        team,
        tid,
        nr,
        replica,
        lo,
        hi,
    });
}

fn sync_edge(nr: usize, replica: usize, upto: u64) {
    hook::emit_team(|team, tid| HookEvent::NrSync {
        team,
        tid,
        nr,
        replica,
        upto,
    });
}

// --------------------------------------------------------------------
// Operation log
// --------------------------------------------------------------------

/// One ring slot. `seq == pos + 1` (for the absolute log position `pos`
/// the slot currently holds) published with Release once `op` is
/// written; 0 means never filled. Absolute stamps disambiguate ring
/// generations without a separate epoch.
struct LogSlot<O> {
    seq: AtomicU64,
    op: UnsafeCell<Option<O>>,
}

// SAFETY: `op` is written only by the appender that reserved the slot's
// current position (exclusive by the tail CAS) and read by repliers only
// after observing the matching `seq` stamp (Acquire); the space check
// keeps a position from being reassigned until every replica has
// consumed it. `O: Send + Sync` lets ops be written and replayed from
// any thread.
unsafe impl<O: Send + Sync> Sync for LogSlot<O> {}

struct Log<O> {
    slots: Box<[LogSlot<O>]>,
    tail: AtomicU64,
}

impl<O> Log<O> {
    fn new(size: usize) -> Self {
        Self {
            slots: (0..size)
                .map(|_| LogSlot {
                    seq: AtomicU64::new(0),
                    op: UnsafeCell::new(None),
                })
                .collect(),
            tail: AtomicU64::new(0),
        }
    }

    fn size(&self) -> u64 {
        self.slots.len() as u64
    }

    fn slot(&self, pos: u64) -> &LogSlot<O> {
        &self.slots[(pos % self.size()) as usize]
    }
}

// --------------------------------------------------------------------
// Replicated<T>
// --------------------------------------------------------------------

struct Replica<T: Dispatch> {
    /// The replica's writers' lock: only its holder appends through this
    /// replica or replays the log into it. Never blocked on while
    /// holding another replica's (helpers use `try_lock`), so no
    /// lock-order cycles.
    lock: Mutex<()>,
    data: RwLock<T>,
    /// Log prefix replayed into `data`; mutated only under `lock`.
    applied: AtomicU64,
}

/// A single-threaded [`Dispatch`] structure replicated per contention
/// domain behind a shared operation log — a scalable replacement for
/// guarding the structure with one `@Critical` lock.
///
/// ```
/// use aomp::nr::{Dispatch, Replicated};
///
/// #[derive(Clone)]
/// struct Counter(u64);
/// enum Read { Get }
/// #[derive(Clone)]
/// enum Write { Add(u64) }
///
/// impl Dispatch for Counter {
///     type ReadOp = Read;
///     type WriteOp = Write;
///     type Response = u64;
///     fn dispatch(&self, _op: &Read) -> u64 { self.0 }
///     fn dispatch_mut(&mut self, op: &Write) -> u64 {
///         let Write::Add(n) = op;
///         self.0 += n;
///         self.0
///     }
/// }
///
/// let c = Replicated::new(Counter(0));
/// assert_eq!(c.execute(Write::Add(2)), 2);
/// assert_eq!(c.execute(Write::Add(3)), 5);
/// assert_eq!(c.execute_ro(&Read::Get), 5);
/// ```
pub struct Replicated<T: Dispatch> {
    id: usize,
    log: Log<T::WriteOp>,
    replicas: Box<[Replica<T>]>,
}

impl<T: Dispatch + Clone> Replicated<T> {
    /// Replicate `initial` with [`default_replicas`] replicas and a
    /// 1024-slot log.
    pub fn new(initial: T) -> Self {
        Self::with_config(initial, default_replicas(), LOG_SIZE)
    }

    /// Replicate `initial` with an explicit replica count and log size
    /// (clamped to at least 1 replica / 128 log slots).
    pub fn with_config(initial: T, replicas: usize, log_size: usize) -> Self {
        let n = replicas.max(1);
        let replicas = (0..n)
            .map(|_| Replica {
                lock: Mutex::new(()),
                data: RwLock::new(initial.clone()),
                applied: AtomicU64::new(0),
            })
            .collect();
        Self {
            id: next_nr_id(),
            log: Log::new(log_size.max(MIN_LOG)),
            replicas,
        }
    }
}

impl<T: Dispatch> Replicated<T> {
    /// The structure's process-unique id (the `nr` field of its hook
    /// events). Monotonic, never reused.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of replicas.
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Current log tail: total mutating ops appended so far.
    pub fn tail(&self) -> u64 {
        self.log.tail.load(Ordering::Acquire)
    }

    /// Log prefix replica `r` has replayed. Always a prefix: ops are
    /// applied in log order, so `applied(r) == n` means exactly ops
    /// `0..n` are reflected in that replica's state.
    pub fn applied(&self, r: usize) -> u64 {
        self.replicas[r].applied.load(Ordering::Acquire)
    }

    /// Apply a mutating op: take this thread's replica's lock, append
    /// the op to the log, replay the log through the replica up to it and
    /// return its response. A cancellation point inside a team: a writer
    /// interrupted while it waits for the lock unwinds with nothing
    /// logged, one interrupted later unwinds after its op ran. A panic in
    /// [`Dispatch::dispatch_mut`] unwinds here.
    pub fn execute(&self, op: T::WriteOp) -> T::Response {
        let r = self.replica();
        let lock = block_on(|| self.replicas[r].lock.try_lock(), true);
        let out = self.append_locked(r, op);
        drop(lock);
        obs::count(obs::Counter::NrWrites);
        let out = out.unwrap_or_else(|p| resume_unwind(p));
        ctx::with_current(|c| {
            if let Some(c) = c {
                c.shared.check_interrupt();
            }
        });
        out
    }

    /// Execute a read-only op against this thread's replica after it has
    /// caught up with the log tail observed at the call — the standard
    /// node-replication condition making reads linearizable. Readers of
    /// an up-to-date replica share a read lock (no mutual exclusion).
    pub fn execute_ro(&self, op: &T::ReadOp) -> T::Response {
        let r = self.replica();
        let rep = &self.replicas[r];
        let t = self.log.tail.load(Ordering::Acquire);
        if rep.applied.load(Ordering::Acquire) < t {
            self.catch_up(r, t);
        }
        let data = block_on(|| rep.data.try_read(), true);
        // Join the replica's release history *before* reading: holding
        // the read lock excludes replay passes, so no apply intervenes
        // between this edge and the dispatch below.
        sync_edge(self.id, r, rep.applied.load(Ordering::Relaxed));
        let resp = data.dispatch(op);
        obs::count(obs::Counter::NrReads);
        resp
    }

    /// Bring this thread's replica up to the current log tail without
    /// reading — e.g. before a direct [`read_direct`](Self::read_direct)
    /// sweep at a quiescent point.
    pub fn sync(&self) {
        self.catch_up(self.replica(), self.log.tail.load(Ordering::Acquire));
    }

    /// Run `f` against this thread's replica state *without* syncing to
    /// the tail first — the caller asserts quiescence (e.g. after a team
    /// join preceded by [`sync`](Self::sync)). Blocks only if a replay
    /// pass is mid-apply.
    pub fn read_direct<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let r = self.replica();
        let data = block_on(|| self.replicas[r].data.try_read(), true);
        sync_edge(self.id, r, self.replicas[r].applied.load(Ordering::Relaxed));
        f(&data)
    }

    /// This thread's replica: its team rank modulo the replica count.
    fn replica(&self) -> usize {
        ctx::thread_id() % self.replicas.len()
    }

    fn catch_up(&self, r: usize, t: u64) {
        let rep = &self.replicas[r];
        block_on(
            || {
                if rep.applied.load(Ordering::Acquire) < t {
                    let _g = rep.lock.try_lock()?;
                    self.apply_locked(r, self.log.tail.load(Ordering::Acquire), None);
                }
                Some(())
            },
            true,
        );
    }

    /// The append pass. Caller holds `replicas[r].lock`.
    ///
    /// Reserves one log position, fills it, and replays the log through
    /// the replica up to it; returns the op's outcome.
    fn append_locked(&self, r: usize, op: T::WriteOp) -> thread::Result<T::Response> {
        let pos = self.reserve(r);
        // The release edge, recorded before the stamp makes the op
        // visible to other replicas' passes.
        append_edge(self.id, pos, pos + 1);
        let ls = self.log.slot(pos);
        // SAFETY: position `pos` was reserved to us by the tail CAS and
        // its ring slot is past every replica's applied prefix (the
        // reserve space check), so no replayer is reading it.
        unsafe { *ls.op.get() = Some(op) };
        ls.seq.store(pos + 1, Ordering::Release);
        obs::count(obs::Counter::NrCombines);
        self.apply_locked(r, pos + 1, Some(pos))
            .expect("an appended op was not replayed by its own writer")
    }

    /// Replay the log into replica `r` up to `target` and return the
    /// outcome of position `own`. Caller holds the replica's lock. Each
    /// op runs under `catch_unwind`; any other op's outcome is dropped
    /// (its writer hears from its own replica).
    fn apply_locked(
        &self,
        r: usize,
        target: u64,
        own: Option<u64>,
    ) -> Option<thread::Result<T::Response>> {
        let rep = &self.replicas[r];
        let from = rep.applied.load(Ordering::Acquire);
        if from >= target {
            return None;
        }
        // Cooperative acquisition: a native blocking `write()` would
        // wedge checker explorations (the serialised scheduler may have
        // parked the reader that holds the lock). Never unwinds: the
        // log holds ops that must run.
        let mut data = block_on(|| rep.data.try_write(), false);
        // Acquire edge for the pass — emitted *after* taking the data
        // write lock, so it also orders this pass after every reader
        // that released the lock (and merged with the replica clock)
        // before us.
        combine_edge(self.id, r, from, target);
        let mut mine = None;
        for pos in from..target {
            let ls = self.log.slot(pos);
            // The appender that reserved `pos` fills it with no blocking
            // operation in between, so this wait is always serviceable.
            block_on(
                || (ls.seq.load(Ordering::Acquire) == pos + 1).then_some(()),
                false,
            );
            // SAFETY: the seq stamp (Acquire) publishes the op, and the
            // slot cannot be reused for `pos + size` until our `applied`
            // (≥ min_applied) passes `pos`.
            let op = unsafe { (*ls.op.get()).as_ref() }.expect("stamped log slot without an op");
            let out = catch_unwind(AssertUnwindSafe(|| data.dispatch_mut(op)));
            if own == Some(pos) {
                mine = Some(out);
            }
            rep.applied.store(pos + 1, Ordering::Release);
        }
        // Release edge for everything this pass executed; recorded while
        // the write lock still excludes readers.
        sync_edge(self.id, r, target);
        drop(data);
        mine
    }

    /// Reserve the next log position, waiting (and helping laggard
    /// replicas) while the ring is full. Caller holds replica `r`'s
    /// lock, so the wait never unwinds.
    fn reserve(&self, r: usize) -> u64 {
        block_on(
            || {
                let t = self.log.tail.load(Ordering::Acquire);
                if t < self.min_applied() + self.log.size() {
                    return self
                        .log
                        .tail
                        .compare_exchange(t, t + 1, Ordering::AcqRel, Ordering::Relaxed)
                        .ok();
                }
                // Ring full: our own replica may be the laggard (we hold
                // its lock, nobody else can advance it), and stalled
                // replicas with no writer need a helping hand.
                self.apply_locked(r, t, None);
                self.help(t, r);
                None
            },
            false,
        )
    }

    fn min_applied(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.applied.load(Ordering::Acquire))
            .min()
            .expect("at least one replica")
    }

    /// Advance every laggard replica whose lock is free to `target`.
    /// `try_lock` only — never blocks holding our own lock.
    fn help(&self, target: u64, me: usize) {
        for (i, rep) in self.replicas.iter().enumerate() {
            if i != me && rep.applied.load(Ordering::Acquire) < target {
                if let Some(_g) = rep.lock.try_lock() {
                    self.apply_locked(i, target, None);
                    obs::count(obs::Counter::NrHelps);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::RegionError;
    use crate::region::{parallel_with, try_parallel_with, RegionConfig};
    use std::sync::atomic::AtomicBool;

    #[derive(Clone)]
    struct Counter(u64);
    enum CRead {
        Get,
    }
    #[derive(Clone)]
    enum CWrite {
        Add(u64),
    }
    impl Dispatch for Counter {
        type ReadOp = CRead;
        type WriteOp = CWrite;
        type Response = u64;
        fn dispatch(&self, CRead::Get: &CRead) -> u64 {
            self.0
        }
        fn dispatch_mut(&mut self, CWrite::Add(n): &CWrite) -> u64 {
            self.0 += n;
            self.0
        }
    }

    #[test]
    fn sequential_counter_round_trip() {
        let c = Replicated::with_config(Counter(0), 2, 128);
        assert_eq!(c.execute(CWrite::Add(2)), 2);
        assert_eq!(c.execute(CWrite::Add(3)), 5);
        assert_eq!(c.execute_ro(&CRead::Get), 5);
        assert_eq!(c.tail(), 2);
    }

    #[test]
    fn responses_are_distinct_prefix_sums() {
        // fetch-add responses under any linearization are a permutation
        // of the distinct prefix sums 1..=N — the linearizability oracle
        // the checker suite leans on, verified here under real threads.
        let c = Replicated::with_config(Counter(0), 2, 128);
        let threads = 4;
        let per = 100u64;
        let responses = Mutex::new(Vec::new());
        parallel_with(RegionConfig::new().threads(threads), || {
            let mut mine = Vec::with_capacity(per as usize);
            for _ in 0..per {
                mine.push(c.execute(CWrite::Add(1)));
            }
            responses.lock().extend(mine);
        });
        let mut all = responses.into_inner();
        all.sort_unstable();
        let expect: Vec<u64> = (1..=threads as u64 * per).collect();
        assert_eq!(all, expect, "every prefix sum exactly once");
        assert_eq!(c.execute_ro(&CRead::Get), threads as u64 * per);
    }

    #[test]
    fn reads_observe_a_prefix_at_least_the_tail() {
        let c = Replicated::with_config(Counter(0), 3, 128);
        parallel_with(RegionConfig::new().threads(4), || {
            for i in 0..200 {
                let before = c.tail();
                let v = c.execute_ro(&CRead::Get);
                assert!(
                    v >= before,
                    "read ({v}) behind the tail ({before}) observed before it"
                );
                if i % 3 == 0 {
                    c.execute(CWrite::Add(1));
                }
            }
        });
    }

    #[test]
    fn log_wraparound_with_lagging_replica() {
        // A tiny log plus a replica nobody writes through (outside a
        // team every write goes through replica 0) forces the ring to
        // fill; appenders must help the laggard forward rather than
        // deadlock.
        let c = Replicated::with_config(Counter(0), 2, 128);
        for _ in 0..10_000 {
            c.execute(CWrite::Add(1));
        }
        assert_eq!(c.execute_ro(&CRead::Get), 10_000);
        assert_eq!(c.tail(), 10_000);
        // The helper advanced the idle replica past the ring boundary.
        for r in 0..c.num_replicas() {
            assert!(
                c.applied(r) + c.log.size() >= c.tail(),
                "replica {r} applied {} vs tail {}",
                c.applied(r),
                c.tail()
            );
        }
    }

    #[test]
    fn read_direct_after_sync_sees_everything() {
        let c = Replicated::with_config(Counter(0), 2, 128);
        parallel_with(RegionConfig::new().threads(4), || {
            for _ in 0..50 {
                c.execute(CWrite::Add(1));
            }
        });
        c.sync();
        assert_eq!(c.read_direct(|s| s.0), 200);
    }

    /// A counter with the two ops the failure tests need: `Fail` panics
    /// with [`FAIL`], and `CancelTeam` cancels its writer's team before
    /// it adds one.
    #[derive(Clone)]
    struct Fragile(u64);
    #[derive(Clone)]
    enum FWrite {
        Add(u64),
        Fail,
        CancelTeam,
    }
    const FAIL: &str = "failing op";
    impl Dispatch for Fragile {
        type ReadOp = ();
        type WriteOp = FWrite;
        type Response = u64;
        fn dispatch(&self, _: &()) -> u64 {
            self.0
        }
        fn dispatch_mut(&mut self, op: &FWrite) -> u64 {
            match op {
                FWrite::Add(n) => self.0 += n,
                FWrite::Fail => std::panic::panic_any(FAIL),
                FWrite::CancelTeam => {
                    crate::ctx::cancel_team();
                    self.0 += 1;
                }
            }
            self.0
        }
    }

    fn spin_until(cond: impl Fn() -> bool) {
        let t0 = std::time::Instant::now();
        while !cond() {
            assert!(
                t0.elapsed() < Duration::from_secs(10),
                "condition never held"
            );
            std::thread::yield_now();
        }
    }

    #[test]
    fn panicking_op_unwinds_its_writer_and_leaves_the_replicas_usable() {
        let c = Replicated::with_config(Fragile(0), 2, 128);
        let p = catch_unwind(AssertUnwindSafe(|| c.execute(FWrite::Fail)))
            .expect_err("the op's panic reaches its writer");
        assert_eq!(p.downcast_ref::<&str>(), Some(&FAIL));
        assert_eq!(c.execute(FWrite::Add(1)), 1);
        assert_eq!(c.execute_ro(&()), 1);
        c.sync();
        for r in 0..c.num_replicas() {
            c.catch_up(r, c.tail());
            assert_eq!(c.applied(r), 2, "replica {r} replayed both ops");
            assert_eq!(c.replicas[r].data.read().0, 1, "replica {r}");
        }
    }

    #[test]
    fn panicking_op_replays_harmlessly_for_the_other_replicas_writer() {
        // Member 1 writes through replica 1 and its op panics; member 0's
        // next write replays that op on replica 0 before its own, drops
        // the payload and returns its own response.
        let c = Replicated::with_config(Fragile(0), 2, 128);
        let outcomes = Mutex::new(Vec::new());
        parallel_with(RegionConfig::new().threads(2), || {
            let out = if crate::ctx::thread_id() == 1 {
                catch_unwind(AssertUnwindSafe(|| c.execute(FWrite::Fail)))
                    .map_err(|p| p.downcast_ref::<&str>().copied())
            } else {
                spin_until(|| c.tail() == 1);
                Ok(c.execute(FWrite::Add(1)))
            };
            outcomes.lock().push((crate::ctx::thread_id(), out));
        });
        let mut outcomes = outcomes.into_inner();
        outcomes.sort_by_key(|&(tid, _)| tid);
        assert_eq!(outcomes, vec![(0, Ok(1)), (1, Err(Some(FAIL)))]);
        assert_eq!(c.applied(0), 2, "replica 0 replayed the failing op too");
        assert_eq!(c.tail(), 2);
    }

    #[test]
    fn writer_waiting_for_the_lock_unwinds_on_cancel_with_nothing_logged() {
        // Member 1 holds replica 0's lock until member 0 has unwound; it
        // cancels the team once member 0 is blocked on that lock. The
        // watch (a deadline far beyond the test) makes the block visible.
        let c = Replicated::with_config(Fragile(0), 1, 128);
        let locked = AtomicBool::new(false);
        let left = AtomicBool::new(false);
        struct SetOnDrop<'a>(&'a AtomicBool);
        impl Drop for SetOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let cfg = RegionConfig::new()
            .threads(2)
            .cancellable(true)
            .stall_deadline(Duration::from_secs(600));
        let r = try_parallel_with(cfg, || {
            if crate::ctx::thread_id() == 0 {
                let _left = SetOnDrop(&left);
                spin_until(|| locked.load(Ordering::SeqCst));
                c.execute(FWrite::Add(1));
                panic!("an interrupted writer returned");
            } else {
                let _g = c.replicas[0].lock.lock();
                locked.store(true, Ordering::SeqCst);
                let team = crate::ctx::with_current(|t| t.map(|t| t.shared.clone()))
                    .expect("inside the team");
                spin_until(|| team.blocked_snapshot().contains(&(0, WaitSite::Replicated)));
                crate::ctx::cancel_team();
                spin_until(|| left.load(Ordering::SeqCst));
            }
        });
        assert_eq!(r, Err(RegionError::Cancelled));
        assert_eq!(c.tail(), 0, "the interrupted writer logged nothing");
    }

    #[test]
    fn op_that_cancels_its_team_runs_once_and_its_writer_unwinds_after_it() {
        let c = Replicated::with_config(Fragile(0), 1, 128);
        let returned = AtomicBool::new(false);
        let r = try_parallel_with(RegionConfig::new().threads(2).cancellable(true), || {
            if crate::ctx::thread_id() == 0 {
                c.execute(FWrite::CancelTeam);
                returned.store(true, Ordering::SeqCst);
            }
        });
        assert_eq!(r, Err(RegionError::Cancelled));
        assert!(!returned.load(Ordering::SeqCst), "the writer unwinds");
        assert_eq!(c.tail(), 1, "the op ran exactly once");
        assert_eq!(c.execute_ro(&()), 1);
    }

    #[test]
    fn nr_ids_are_monotonic_and_never_reused() {
        let first = Replicated::with_config(Counter(0), 1, 128).id();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..32 {
            let c = Replicated::with_config(Counter(0), 1, 128);
            assert!(seen.insert(c.id()), "id {} reused", c.id());
            assert!(c.id() > first);
        }
    }
}
