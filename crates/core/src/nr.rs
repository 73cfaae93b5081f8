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
//! 3. funnel writers through per-replica **flat combining**: a writer
//!    publishes its op in a preassigned slot; whichever writer holds the
//!    replica's combiner lock batches all published ops, appends the
//!    batch to the log with one reservation, replays the log through the
//!    local replica, and hands each poster its response,
//! 4. serve readers from the local replica after it has caught up with
//!    the log tail observed at the start of the read — the standard
//!    node-replication linearizability condition.
//!
//! Writers on different replicas contend only on the log tail (one CAS
//! per *batch*); readers on different replicas do not contend at all.
//!
//! Two front ends post through one flat-combining slot array:
//!
//! * [`Replicated<T>`] — the typed API: implement [`Dispatch`] for a
//!   plain single-threaded structure (an enum of read/write ops mapped to
//!   responses) and `Replicated` makes it concurrent. A replica is a slot
//!   array carrying `WriteOp`s and responses, plus its data and the log
//!   prefix it has applied; the operation log is `Replicated`'s own.
//! * [`Combiner`] — an untyped flat-combining *section* lock for closure
//!   bodies: `combiner.run(|| ...)` is a scalability upgrade for
//!   [`critical_named`](crate::critical::critical_named), used by the
//!   weaver's `replicated` mechanism and the `#[replicated]` macro. Its
//!   one slot array carries type-erased sections and it has no log (the
//!   section body runs once), so it provides flat combining without
//!   replication.
//!
//! The slot array is the protocol, written once. A thread gets one slot
//! per structure on first use (one per-thread registry; a
//! [`ReplicatedHandle`] holds a slot and returns it when dropped;
//! threads past the 64th take the combiner lock and run their op inline).
//! A poster publishes its op (`EMPTY → PENDING`) and waits: it picks up
//! its answer (`DONE → EMPTY`), or, whenever the combiner lock is free,
//! takes it and combines with its own op still published. A combiner
//! claims every published op in one pass (`PENDING → TAKEN`), runs them,
//! and answers them in one pass (`TAKEN → DONE`) before it releases the
//! lock. Two rules cover the ways out:
//!
//! * **Retract.** A poster whose team is poisoned or cancelled does not
//!   return. It withdraws an op that is still `PENDING` (`PENDING →
//!   EMPTY`) and unwinds; once the op is claimed it waits for `DONE` and
//!   unwinds after it, so the op ran exactly once and the slot is free
//!   for its next use.
//! * **Panic.** Every op runs under `catch_unwind`. A panicking op's
//!   payload is its poster's answer, re-raised on the poster once the
//!   combiner lock is released and its `NrSync` edge emitted; the rest of
//!   the batch gets its responses, and replicas replaying the op for
//!   other posters drop the payload and go on. So a claimed op always
//!   reaches `DONE`, and a panic breaks neither the batch nor the
//!   structure.
//!
//! # Configuration
//!
//! | Env var            | Meaning                               | Default |
//! |--------------------|---------------------------------------|---------|
//! | `AOMP_NR_REPLICAS` | replicas per [`Replicated`]           | by core count (1 / 2 / 4) |
//! | `AOMP_NR_LOG`      | operation-log size in slots (min 128) | 1024    |
//!
//! # Checker integration
//!
//! Every protocol transition is reported to the [hook layer](crate::hook)
//! so `aomp-check` can replay schedules and extend its happens-before
//! relation: [`NrAppend`](crate::hook::HookEvent::NrAppend) when an op is
//! published, [`NrCombine`](crate::hook::HookEvent::NrCombine) when a
//! combiner starts replaying a log range into a replica, and
//! [`NrSync`](crate::hook::HookEvent::NrSync) when a thread synchronises
//! with a replica (combiner release, poster response pickup, reader
//! catch-up). Blocked protocol waits park at
//! [`WaitSite::Replicated`] and are visible to the stall watchdog.
//!
//! # Limitations
//!
//! * A [`Combiner`] section body runs on *some* combining thread, not
//!   necessarily the posting thread — thread-identity-dependent bodies
//!   (thread-locals, [`thread_id`](crate::ctx::thread_id)) see the
//!   combiner's identity, exactly like flat-combining in general.

use parking_lot::{Mutex, RwLock};
use std::cell::{RefCell, UnsafeCell};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
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
    /// The result of either kind of operation; handed back across
    /// threads from the combiner to the poster.
    type Response: Send;

    /// Execute a read-only operation against the current state.
    fn dispatch(&self, op: &Self::ReadOp) -> Self::Response;

    /// Execute a mutating operation. Must be deterministic. A panic is
    /// re-raised on the op's own poster (see module docs); each replica
    /// keeps the state the op left it in and goes on.
    fn dispatch_mut(&mut self, op: &Self::WriteOp) -> Self::Response;
}

// --------------------------------------------------------------------
// Shared plumbing
// --------------------------------------------------------------------

/// Flat-combining slot states. EMPTY → PENDING (poster publishes) →
/// TAKEN (combiner claimed the op) → DONE (answer ready) → EMPTY
/// (poster consumed). PENDING → EMPTY is the retract: a poster
/// withdrawing an op no combiner has claimed.
const EMPTY: u8 = 0;
const PENDING: u8 = 1;
const TAKEN: u8 = 2;
const DONE: u8 = 3;

/// Slots per slot array. Threads beyond this fall back to a slotless
/// path (acquire the combiner lock, run their op inline) — correct, just
/// without the batching win.
const NR_SLOTS: usize = 64;
/// Sentinel assignment for threads that did not get a combining slot.
const SLOTLESS: usize = usize::MAX;
/// Smallest permitted operation log: must fit the largest possible
/// batch (every slot plus one inline op) with room to spare.
const MIN_LOG: usize = 2 * NR_SLOTS;

/// Process-unique monotonic identity for replicated structures, shared
/// by [`Replicated`] and [`Combiner`]. Never address-derived and never
/// reused: hook events key happens-before state by this id, and a
/// dropped-and-reallocated structure must not inherit the clock history
/// of whatever previously lived at its address.
fn next_nr_id() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

fn env_usize(name: &str) -> Option<usize> {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .filter(|&n| n >= 1)
}

/// Replicas a [`Replicated::new`] structure gets: `AOMP_NR_REPLICAS`, or
/// a core-count heuristic (1 below 4 cores, 2 below 16, 4 beyond —
/// stand-ins for NUMA nodes on machines where we cannot ask).
pub fn default_replicas() -> usize {
    env_usize("AOMP_NR_REPLICAS").unwrap_or_else(|| {
        let p = std::thread::available_parallelism().map_or(1, |n| n.get());
        match p {
            0..=3 => 1,
            4..=15 => 2,
            _ => 4,
        }
    })
}

/// Operation-log size (slots) a [`Replicated::new`] structure gets:
/// `AOMP_NR_LOG` (clamped to at least 128), default 1024.
pub fn default_log_size() -> usize {
    env_usize("AOMP_NR_LOG").unwrap_or(1024).max(MIN_LOG)
}

/// Block until `ready` yields a value. Outside a team: spin, then yield.
/// Inside a team: register at [`WaitSite::Replicated`] for the stall
/// watchdog, offer every park to a registered scheduler hook, and when
/// the team is poisoned/cancelled ask `retract` whether it is safe to
/// unwind (the poster wait withdraws a still-`PENDING` op first; see
/// [`Slots::post`]).
fn block_on<R>(mut ready: impl FnMut() -> Option<R>, mut retract: impl FnMut() -> bool) -> R {
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
                let interrupted = c.shared.poisoned.load(Ordering::Acquire)
                    || c.shared.cancelled.load(Ordering::Acquire);
                if interrupted && retract() {
                    c.shared.check_interrupt(); // unwinds
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

/// A stable per-thread token (the address of a thread-local), used for
/// re-entrancy detection. Never zero.
fn thread_token() -> usize {
    thread_local! {
        static TOKEN: u8 = const { 0 };
    }
    TOKEN.with(|t| t as *const u8 as usize)
}

thread_local! {
    /// This thread's `(replica, slot)` assignment per structure id (a
    /// [`Combiner`] has the one replica 0), made on first use. Entries
    /// for dropped structures linger (ids are never reused, so they are
    /// merely unused); a thread's slots are not returned when the thread
    /// exits — slot exhaustion degrades to the slotless path, never to an
    /// error.
    static REG: RefCell<HashMap<usize, (usize, usize)>> = RefCell::new(HashMap::new());
}

/// This thread's assignment on structure `id`, made by `assign` on first
/// use.
fn assignment(id: usize, assign: impl FnOnce() -> (usize, usize)) -> (usize, usize) {
    REG.with(|m| *m.borrow_mut().entry(id).or_insert_with(assign))
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
// Flat combining: the slot array both front ends post through
// --------------------------------------------------------------------

/// One poster's slot: its op travels in (`.0`), its answer out (`.1`).
struct Cell<I, O> {
    state: AtomicU8,
    io: UnsafeCell<(Option<I>, Option<O>)>,
}

// SAFETY: `io` ownership follows `state` (see the state constants): the
// poster owns it at EMPTY and DONE, the combiner between a successful
// PENDING→TAKEN claim and its DONE store. `I` and `O` are `Send`, so
// handing them across that protocol is sound.
unsafe impl<I: Send, O: Send> Sync for Cell<I, O> {}

/// A flat-combining slot array behind one combiner lock, generic over
/// what a slot carries: a [`Replicated`] replica's `WriteOp` and its
/// response, or a [`Combiner`]'s type-erased section.
struct Slots<I, O> {
    /// Combiner election: whoever holds this claims and answers every
    /// published op.
    lock: Mutex<()>,
    cells: Box<[Cell<I, O>]>,
    /// High-water mark of assigned slots (the claim pass's bound).
    registered: AtomicUsize,
    /// Slots returned by dropped [`ReplicatedHandle`]s.
    free: Mutex<Vec<usize>>,
}

impl<I, O> Slots<I, O> {
    fn new() -> Self {
        Self {
            lock: Mutex::new(()),
            cells: (0..NR_SLOTS)
                .map(|_| Cell {
                    state: AtomicU8::new(EMPTY),
                    io: UnsafeCell::new((None, None)),
                })
                .collect(),
            registered: AtomicUsize::new(0),
            free: Mutex::new(Vec::new()),
        }
    }

    /// A slot for a new poster: a returned one, else a fresh one, else
    /// [`SLOTLESS`].
    fn assign(&self) -> usize {
        self.free.lock().pop().unwrap_or_else(|| {
            let i = self.registered.fetch_add(1, Ordering::Relaxed);
            if i < NR_SLOTS {
                i
            } else {
                SLOTLESS
            }
        })
    }

    /// The poster wait: publish `input` in the caller's slot `si` and
    /// return its answer, running `combine` (with `lock` held) whenever
    /// the lock is free. The caller emits the `NrAppend` edge first.
    ///
    /// A poster whose team is poisoned or cancelled never returns: it
    /// withdraws a still-`PENDING` op and unwinds, or waits for a claimed
    /// one's `DONE` and unwinds after consuming it. Either way the slot
    /// is `EMPTY` when the poster leaves.
    fn post(&self, si: usize, input: I, combine: impl Fn()) -> O {
        let cell = &self.cells[si];
        // SAFETY: an EMPTY slot assigned to the caller is the caller's.
        unsafe { (*cell.io.get()).0 = Some(input) };
        cell.state.store(PENDING, Ordering::Release);
        let out = block_on(
            || loop {
                if cell.state.load(Ordering::Acquire) == DONE {
                    // SAFETY: DONE hands the cell back to its poster.
                    let out = unsafe { (*cell.io.get()).1.take() };
                    cell.state.store(EMPTY, Ordering::Release);
                    return Some(out.expect("answered slot without an answer"));
                }
                // A combiner answers every op it claimed before it
                // releases the lock, so after our own pass we are DONE.
                let _g = self.lock.try_lock()?;
                combine();
            },
            || {
                let withdrawn = cell
                    .state
                    .compare_exchange(PENDING, EMPTY, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok();
                if withdrawn {
                    // SAFETY: the CAS took the cell back from the combiners.
                    unsafe { (*cell.io.get()).0 = None };
                }
                withdrawn
            },
        );
        ctx::with_current(|c| {
            if let Some(c) = c {
                c.shared.check_interrupt();
            }
        });
        out
    }

    /// The claim pass: every published op, by slot. Caller holds `lock`.
    fn claim(&self) -> Vec<(usize, I)> {
        let bound = self.registered.load(Ordering::Acquire).min(NR_SLOTS);
        let mut batch = Vec::new();
        for (i, cell) in self.cells[..bound].iter().enumerate() {
            if cell.state.load(Ordering::Relaxed) == PENDING
                && cell
                    .state
                    .compare_exchange(PENDING, TAKEN, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                // SAFETY: the CAS claimed the cell from its poster (and
                // beat any retract).
                let op = unsafe { (*cell.io.get()).0.take() };
                batch.push((i, op.expect("published slot without an op")));
            }
        }
        batch
    }

    /// The answer pass: hand each claimed slot its answer and wake its
    /// poster. Caller holds `lock`; `own` is the combining poster's slot
    /// and `ops` the ops the pass ran (a slotless caller's own included).
    fn answer(&self, answers: impl IntoIterator<Item = (usize, O)>, own: Option<usize>, ops: u64) {
        for (i, out) in answers {
            let cell = &self.cells[i];
            // SAFETY: TAKEN — the combiner owns the cell until DONE.
            unsafe { (*cell.io.get()).1 = Some(out) };
            cell.state.store(DONE, Ordering::Release);
            if Some(i) != own {
                obs::count(obs::Counter::NrCombinedOps);
            }
        }
        obs::count(obs::Counter::NrCombines);
        obs::nr_combine_batch(ops);
    }
}

// --------------------------------------------------------------------
// Replicated<T>
// --------------------------------------------------------------------

struct Replica<T: Dispatch> {
    data: RwLock<T>,
    /// Log prefix replayed into `data`; mutated only by the thread
    /// holding `fc.lock`.
    applied: AtomicU64,
    /// This replica's posters. Its lock is never blocked on while holding
    /// another replica's (helpers use `try_lock`), so no lock-order
    /// cycles.
    fc: Slots<T::WriteOp, thread::Result<T::Response>>,
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
    next_replica: AtomicUsize,
}

impl<T: Dispatch + Clone> Replicated<T> {
    /// Replicate `initial` with the [configured](crate::nr#configuration)
    /// replica count and log size.
    pub fn new(initial: T) -> Self {
        Self::with_config(initial, default_replicas(), default_log_size())
    }

    /// Replicate `initial` with an explicit replica count and log size
    /// (clamped to at least 1 replica / 128 log slots).
    pub fn with_config(initial: T, replicas: usize, log_size: usize) -> Self {
        let n = replicas.max(1);
        let replicas = (0..n)
            .map(|_| Replica {
                data: RwLock::new(initial.clone()),
                applied: AtomicU64::new(0),
                fc: Slots::new(),
            })
            .collect();
        Self {
            id: next_nr_id(),
            log: Log::new(log_size.max(MIN_LOG)),
            replicas,
            next_replica: AtomicUsize::new(0),
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

    /// Register the calling context on a replica (round-robin) and
    /// reserve it a combining slot. The handle is cheaper than the
    /// thread-keyed [`execute`](Self::execute) path in hot loops, and
    /// returns its slot when dropped. Not `Sync`: a handle's slot admits
    /// one posting thread at a time.
    pub fn handle(&self) -> ReplicatedHandle<'_, T> {
        let (replica, slot) = self.assign();
        ReplicatedHandle {
            nr: self,
            replica,
            slot,
            _not_sync: PhantomData,
        }
    }

    /// Apply a mutating op: publish it for this thread's replica
    /// combiner, combining ourselves if the combiner lock is free, and
    /// return its response once some combiner has replayed it. A
    /// cancellation point inside a team: an op no combiner has claimed is
    /// withdrawn, a claimed one is applied first. A panic in
    /// [`Dispatch::dispatch_mut`] unwinds here.
    pub fn execute(&self, op: T::WriteOp) -> T::Response {
        let (r, s) = self.thread_assignment();
        self.write_at(r, s, op)
    }

    /// Execute a read-only op against this thread's replica after it has
    /// caught up with the log tail observed at the call — the standard
    /// node-replication condition making reads linearizable. Readers of
    /// an up-to-date replica share a read lock (no mutual exclusion).
    pub fn execute_ro(&self, op: &T::ReadOp) -> T::Response {
        let (r, _) = self.thread_assignment();
        self.read_at(r, op)
    }

    /// Bring this thread's replica up to the current log tail without
    /// reading — e.g. before a direct [`read_direct`](Self::read_direct)
    /// sweep at a quiescent point.
    pub fn sync(&self) {
        let (r, _) = self.thread_assignment();
        self.catch_up(r, self.log.tail.load(Ordering::Acquire));
    }

    /// Run `f` against this thread's replica state *without* syncing to
    /// the tail first — the caller asserts quiescence (e.g. after a team
    /// join preceded by [`sync`](Self::sync)). Blocks only if a combiner
    /// is mid-apply.
    pub fn read_direct<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        let (r, _) = self.thread_assignment();
        let data = block_on(|| self.replicas[r].data.try_read(), || true);
        sync_edge(self.id, r, self.replicas[r].applied.load(Ordering::Relaxed));
        f(&data)
    }

    fn thread_assignment(&self) -> (usize, usize) {
        assignment(self.id, || self.assign())
    }

    fn assign(&self) -> (usize, usize) {
        let r = self.next_replica.fetch_add(1, Ordering::Relaxed) % self.replicas.len();
        (r, self.replicas[r].fc.assign())
    }

    fn write_at(&self, r: usize, si: usize, op: T::WriteOp) -> T::Response {
        let rep = &self.replicas[r];
        // The NrAppend release edge is recorded before the op is
        // published, so no combiner can claim it first.
        let t = self.log.tail.load(Ordering::Relaxed);
        append_edge(self.id, t, t);
        let out = if si == SLOTLESS {
            // No slot: serialise on the combiner lock and self-append.
            let _g = block_on(|| rep.fc.lock.try_lock(), || true);
            self.combine_locked(r, None, Some(op))
                .expect("inline replicated op executed without a response")
        } else {
            rep.fc.post(si, op, || {
                self.combine_locked(r, Some(si), None);
            })
        };
        sync_edge(self.id, r, rep.applied.load(Ordering::Relaxed));
        obs::count(obs::Counter::NrWrites);
        out.unwrap_or_else(|p| resume_unwind(p))
    }

    fn read_at(&self, r: usize, op: &T::ReadOp) -> T::Response {
        let rep = &self.replicas[r];
        let t = self.log.tail.load(Ordering::Acquire);
        if rep.applied.load(Ordering::Acquire) < t {
            self.catch_up(r, t);
        }
        let data = block_on(|| rep.data.try_read(), || true);
        // Join the replica's release history *before* reading: holding
        // the read lock excludes combiners, so no apply intervenes
        // between this edge and the dispatch below.
        sync_edge(self.id, r, rep.applied.load(Ordering::Relaxed));
        let resp = data.dispatch(op);
        obs::count(obs::Counter::NrReads);
        resp
    }

    fn catch_up(&self, r: usize, t: u64) {
        let rep = &self.replicas[r];
        block_on(
            || {
                if rep.applied.load(Ordering::Acquire) >= t {
                    return Some(());
                }
                if let Some(_g) = rep.fc.lock.try_lock() {
                    // Reader-turned-combiner: also batches any pending
                    // writes on this replica (flat combining).
                    self.combine_locked(r, None, None);
                    return Some(());
                }
                None
            },
            || true,
        );
    }

    /// The combining pass. Caller holds `replicas[r].fc.lock`.
    ///
    /// Claims every published op on `r`, appends the batch (plus an
    /// optional `inline` op from a slotless caller) to the log with one
    /// tail reservation, replays the log through the replica up to at
    /// least the batch end, answers the batched posters and returns the
    /// inline op's outcome.
    fn combine_locked(
        &self,
        r: usize,
        own: Option<usize>,
        inline: Option<T::WriteOp>,
    ) -> Option<thread::Result<T::Response>> {
        let rep = &self.replicas[r];
        let batch = rep.fc.claim();
        let k = batch.len() + usize::from(inline.is_some());
        if k == 0 {
            // Nothing to append — just bring the replica up to date (the
            // reader catch-up path).
            self.apply_locked(r, self.log.tail.load(Ordering::Acquire), 0, &mut []);
            return None;
        }
        let (lo, hi) = self.reserve(r, k as u64);
        // Each batched op's slot beside its outcome; the slotless
        // caller's op goes last.
        let mut answers = Vec::with_capacity(k);
        let ops = batch.into_iter().chain(inline.map(|op| (SLOTLESS, op)));
        for (pos, (si, op)) in (lo..).zip(ops) {
            let ls = self.log.slot(pos);
            // SAFETY: position `pos` was reserved to us by the tail CAS
            // and its ring slot is past every replica's applied prefix
            // (the reserve space check), so no replayer is reading it.
            unsafe { *ls.op.get() = Some(op) };
            ls.seq.store(pos + 1, Ordering::Release);
            answers.push((si, None));
        }
        append_edge(self.id, lo, hi);
        let target = self.log.tail.load(Ordering::Acquire).max(hi);
        self.apply_locked(r, target, lo, &mut answers);
        let inline = answers
            .pop_if(|(si, _)| *si == SLOTLESS)
            .and_then(|(_, out)| out);
        // Wake the batched posters — after the apply pass recorded its
        // NrSync release edge, so a poster's own sync joins this pass.
        let answers = answers
            .into_iter()
            .map(|(si, out)| (si, out.expect("batched op was not replayed")));
        rep.fc.answer(answers, own, hi - lo);
        inline
    }

    /// Replay the log into replica `r` up to `target`. Caller holds the
    /// replica's combiner lock. Each op runs under `catch_unwind`; the
    /// outcome of position `lo + j` goes to `answers[j]` (beside its
    /// slot), any other's is dropped (a foreign op's poster hears from
    /// its own replica).
    fn apply_locked(
        &self,
        r: usize,
        target: u64,
        lo: u64,
        answers: &mut [(usize, Option<thread::Result<T::Response>>)],
    ) {
        let rep = &self.replicas[r];
        let from = rep.applied.load(Ordering::Acquire);
        if from >= target {
            return;
        }
        // Cooperative acquisition: a native blocking `write()` would
        // wedge checker explorations (the serialised scheduler may have
        // parked the reader that holds the lock). Never unwinds — the
        // combiner owns claimed ops (`retract` = false).
        let mut data = block_on(|| rep.data.try_write(), || false);
        // Acquire edge for the pass — emitted *after* taking the data
        // write lock, so it also orders this pass after every reader
        // that released the lock (and merged with the replica clock)
        // before us.
        combine_edge(self.id, r, from, target);
        for pos in from..target {
            let ls = self.log.slot(pos);
            // The appender that reserved `pos` fills it with no blocking
            // operation in between, so this wait is always serviceable.
            block_on(
                || (ls.seq.load(Ordering::Acquire) == pos + 1).then_some(()),
                || false,
            );
            // SAFETY: the seq stamp (Acquire) publishes the op, and the
            // slot cannot be reused for `pos + size` until our `applied`
            // (≥ min_applied) passes `pos`.
            let op = unsafe { (*ls.op.get()).as_ref() }.expect("stamped log slot without an op");
            let out = catch_unwind(AssertUnwindSafe(|| data.dispatch_mut(op)));
            if let Some(a) = pos
                .checked_sub(lo)
                .and_then(|j| answers.get_mut(j as usize))
            {
                a.1 = Some(out);
            }
            rep.applied.store(pos + 1, Ordering::Release);
        }
        // Release edge for everything this pass executed; recorded while
        // the write lock still excludes readers.
        sync_edge(self.id, r, target);
        drop(data);
    }

    /// Reserve `k` consecutive log positions, waiting (and helping
    /// laggard replicas) while the ring is full. Caller holds replica
    /// `r`'s combiner lock, so waiting never unwinds — claimed ops must
    /// be delivered.
    fn reserve(&self, r: usize, k: u64) -> (u64, u64) {
        debug_assert!(k <= self.log.size());
        block_on(
            || {
                let t = self.log.tail.load(Ordering::Acquire);
                if t + k <= self.min_applied() + self.log.size() {
                    return self
                        .log
                        .tail
                        .compare_exchange(t, t + k, Ordering::AcqRel, Ordering::Relaxed)
                        .ok()
                        .map(|_| (t, t + k));
                }
                // Ring full: our own replica may be the laggard (we hold
                // its lock, nobody else can advance it), and stalled
                // replicas with no active combiner need a helping hand.
                self.apply_locked(r, t, 0, &mut []);
                self.help(t, r);
                None
            },
            || false,
        )
    }

    fn min_applied(&self) -> u64 {
        self.replicas
            .iter()
            .map(|r| r.applied.load(Ordering::Acquire))
            .min()
            .expect("at least one replica")
    }

    /// Advance every laggard replica whose combiner lock is free to
    /// `target`. `try_lock` only — never blocks holding our own lock.
    fn help(&self, target: u64, me: usize) {
        for (i, rep) in self.replicas.iter().enumerate() {
            if i != me && rep.applied.load(Ordering::Acquire) < target {
                if let Some(_g) = rep.fc.lock.try_lock() {
                    self.apply_locked(i, target, 0, &mut []);
                    obs::count(obs::Counter::NrHelps);
                }
            }
        }
    }
}

/// A per-thread posting handle for a [`Replicated`] structure: a fixed
/// `(replica, slot)` assignment, skipping the thread-local lookup of
/// [`Replicated::execute`]. Returns the slot on drop.
pub struct ReplicatedHandle<'a, T: Dispatch> {
    nr: &'a Replicated<T>,
    replica: usize,
    slot: usize,
    /// One slot admits one posting thread: `!Sync` (moving the handle to
    /// another thread is fine, sharing it is not).
    _not_sync: PhantomData<std::cell::Cell<()>>,
}

impl<T: Dispatch> ReplicatedHandle<'_, T> {
    /// The replica this handle posts to.
    pub fn replica(&self) -> usize {
        self.replica
    }

    /// [`Replicated::execute`] through this handle's assignment.
    pub fn execute(&self, op: T::WriteOp) -> T::Response {
        self.nr.write_at(self.replica, self.slot, op)
    }

    /// [`Replicated::execute_ro`] through this handle's assignment.
    pub fn execute_ro(&self, op: &T::ReadOp) -> T::Response {
        self.nr.read_at(self.replica, op)
    }
}

impl<T: Dispatch> Drop for ReplicatedHandle<'_, T> {
    fn drop(&mut self) {
        // A poster leaves its slot EMPTY on every way out, unwinding
        // included, so the slot is always reusable.
        if self.slot != SLOTLESS {
            self.nr.replicas[self.replica]
                .fc
                .free
                .lock()
                .push(self.slot);
        }
    }
}

// --------------------------------------------------------------------
// Combiner: untyped flat-combining section lock
// --------------------------------------------------------------------

/// Type-erased pointer to a poster's stack-held task. The combiner
/// dereferences it on another thread; the poster wait (never unwind
/// while the task is claimed) keeps the frame alive.
struct FcTask {
    run: unsafe fn(*mut ()),
    data: *mut (),
}

// SAFETY: posters guarantee the pointee is safe to run from another
// thread — `Combiner::run` by its `Send` bounds, `run_unchecked` by its
// caller contract.
unsafe impl Send for FcTask {}

/// Clears [`Combiner::owner`] on drop, on every way out of a combining
/// pass, so the combiner never looks owned by a thread that no longer
/// holds the lock.
struct OwnerReset<'a>(&'a AtomicUsize);

impl Drop for OwnerReset<'_> {
    fn drop(&mut self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

struct TaskData<F, R> {
    f: Option<F>,
    result: Option<thread::Result<R>>,
}

/// Run the poster's closure, capturing panics so they unwind on the
/// poster (via `resume_unwind`), never through the combiner.
unsafe fn run_task<F: FnOnce() -> R, R>(p: *mut ()) {
    // SAFETY: `p` is the `TaskData` the poster published and still keeps
    // alive on its stack.
    let d = unsafe { &mut *(p as *mut TaskData<F, R>) };
    let f = d.f.take().expect("replicated section task run twice");
    d.result = Some(catch_unwind(AssertUnwindSafe(f)));
}

/// A flat-combining *section* lock: `run(f)` executes `f` in mutual
/// exclusion with every other section on the same `Combiner`, but under
/// contention one thread (the combiner) executes whole batches of
/// waiters' sections back-to-back while they wait — one lock handoff per
/// batch instead of one per section. A drop-in scalability upgrade for
/// [`critical_named`](crate::critical::critical_named); the weaver's
/// `replicated` mechanism and the `#[replicated]` macro compile to this.
///
/// Section bodies run on the combining thread (see module docs), and —
/// unlike a poster *waiting* at a critical lock — a poster whose section
/// has been claimed cannot be cancelled until it executes.
pub struct Combiner {
    id: usize,
    /// The posters; a slot carries a type-erased section, whose result
    /// the combiner writes into the poster's [`TaskData`].
    fc: Slots<FcTask, ()>,
    /// [`thread_token`] of the thread currently combining (0 = none);
    /// lets a section body re-enter sections on the same `Combiner`
    /// inline, matching re-entrant `@Critical`.
    owner: AtomicUsize,
    /// Sections executed — the log-tail analogue for hook events.
    ops: AtomicU64,
}

impl Default for Combiner {
    fn default() -> Self {
        Self::new()
    }
}

impl Combiner {
    /// A fresh, unshared combiner.
    pub fn new() -> Self {
        Self {
            id: next_nr_id(),
            fc: Slots::new(),
            owner: AtomicUsize::new(0),
            ops: AtomicU64::new(0),
        }
    }

    /// The process-wide combiner named `id` — the replicated analogue of
    /// a named critical lock. Sections with equal names exclude each
    /// other; entries are never removed (names are program structure).
    pub fn named(id: &str) -> Arc<Combiner> {
        static REGISTRY: OnceLock<Mutex<HashMap<String, Arc<Combiner>>>> = OnceLock::new();
        let mut reg = REGISTRY.get_or_init(|| Mutex::new(HashMap::new())).lock();
        if let Some(c) = reg.get(id) {
            return Arc::clone(c);
        }
        let c = Arc::new(Combiner::new());
        reg.insert(id.to_owned(), Arc::clone(&c));
        c
    }

    /// The combiner's process-unique id (the `nr` field of its hook
    /// events). Monotonic, never reused.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Sections executed so far.
    pub fn sections(&self) -> u64 {
        self.ops.load(Ordering::Acquire)
    }

    /// Run `f` in mutual exclusion with all other sections on this
    /// combiner. `f` may execute on another (combining) thread; the
    /// `Send` bounds make that sound. Panics in `f` unwind on the
    /// calling thread. A cancellation point inside a team: a section no
    /// combiner has claimed is withdrawn, a claimed one runs first.
    pub fn run<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        // SAFETY: `F: Send` and `R: Send` — the closure and its result
        // may cross to the combining thread.
        unsafe { self.run_erased(f) }
    }

    /// Run `f` in mutual exclusion with all other sections on this
    /// combiner, *on the calling thread* — no flat combining for this
    /// section, so no `Send` bounds. Other threads' published sections
    /// are batched first while we hold the lock, keeping them from
    /// starving behind inline sections. Used by the weaver for value
    /// join points, whose closures may not be `Send`, and by posters
    /// that got no slot.
    pub fn run_inline<R>(&self, f: impl FnOnce() -> R) -> R {
        let token = thread_token();
        if self.owner.load(Ordering::Relaxed) == token {
            return f();
        }
        let out = {
            let _g = block_on(|| self.fc.lock.try_lock(), || true);
            self.owner.store(token, Ordering::Relaxed);
            let _reset = OwnerReset(&self.owner);
            self.combine(None);
            let lo = self.ops.load(Ordering::Relaxed);
            combine_edge(self.id, 0, lo, lo + 1);
            let out = catch_unwind(AssertUnwindSafe(f));
            self.ops.store(lo + 1, Ordering::Release);
            sync_edge(self.id, 0, lo + 1);
            out
        };
        out.unwrap_or_else(|p| resume_unwind(p))
    }

    /// [`run`](Self::run) without the `Send` bounds.
    ///
    /// # Safety
    ///
    /// `f` (with everything it captures) and its result must be safe to
    /// move to and run on another thread of this process while the
    /// caller blocks — i.e. the caller asserts the `Send` bounds that
    /// [`run`](Self::run) would require. The weaver uses this for woven
    /// section bodies, which are `Fn + Sync` closures run by reference.
    pub unsafe fn run_unchecked<R>(&self, f: impl FnOnce() -> R) -> R {
        unsafe { self.run_erased(f) }
    }

    unsafe fn run_erased<F: FnOnce() -> R, R>(&self, f: F) -> R {
        let token = thread_token();
        if self.owner.load(Ordering::Relaxed) == token {
            // Re-entrant: we *are* the combiner; the lock is ours.
            return f();
        }
        let (_, si) = assignment(self.id, || (0, self.fc.assign()));
        if si == SLOTLESS {
            return self.run_inline(f);
        }
        let mut data = TaskData {
            f: Some(f),
            result: None,
        };
        let task = FcTask {
            run: run_task::<F, R>,
            data: &mut data as *mut TaskData<F, R> as *mut (),
        };
        let t = self.ops.load(Ordering::Relaxed);
        append_edge(self.id, t, t);
        self.fc.post(si, task, || {
            self.owner.store(token, Ordering::Relaxed);
            let _reset = OwnerReset(&self.owner);
            self.combine(Some(si));
        });
        sync_edge(self.id, 0, self.ops.load(Ordering::Relaxed));
        match data
            .result
            .take()
            .expect("replicated section finished without a result")
        {
            Ok(r) => r,
            Err(p) => resume_unwind(p),
        }
    }

    /// The batching pass. Caller holds `fc.lock` and has set `owner`.
    fn combine(&self, own: Option<usize>) {
        let batch = self.fc.claim();
        if batch.is_empty() {
            return;
        }
        let lo = self.ops.load(Ordering::Relaxed);
        let hi = lo + batch.len() as u64;
        combine_edge(self.id, 0, lo, hi);
        for (_, t) in &batch {
            // SAFETY: the poster waits until we mark its slot DONE; its
            // stack frame (holding the task state) is pinned, and
            // `run_task` confines panics to the poster.
            unsafe { (t.run)(t.data) };
        }
        self.ops.store(hi, Ordering::Release);
        // Release edge before the DONE wake-ups, so every poster's
        // follow-up sync joins this pass.
        sync_edge(self.id, 0, hi);
        self.fc
            .answer(batch.iter().map(|&(i, _)| (i, ())), own, hi - lo);
    }
}

/// Run `f` as a replicated section under the process-wide combiner named
/// `id` — `@Replicated(id = name)`, the flat-combining counterpart of
/// [`critical_named`](crate::critical::critical_named). Call sites that
/// run hot should cache [`Combiner::named`] instead (the `#[replicated]`
/// macro does).
pub fn replicated_named<R: Send>(id: &str, f: impl FnOnce() -> R + Send) -> R {
    Combiner::named(id).run(f)
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
            let h = c.handle();
            let mut mine = Vec::with_capacity(per as usize);
            for _ in 0..per {
                mine.push(h.execute(CWrite::Add(1)));
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
        // A tiny log plus a replica nobody posts to forces the ring to
        // fill; appenders must help the laggard forward rather than
        // deadlock.
        let c = Replicated::with_config(Counter(0), 2, 128);
        // Pin every poster to replica 0 by registering handles round-robin
        // and keeping only even ones: simpler — single thread, many ops.
        let h = c.handle();
        for _ in 0..10_000 {
            h.execute(CWrite::Add(1));
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
    fn handles_recycle_slots() {
        let c = Replicated::with_config(Counter(0), 1, 128);
        for _ in 0..1000 {
            let h = c.handle();
            h.execute(CWrite::Add(1));
        }
        // 1000 handles on 64 slots: without recycling most would be
        // slotless; with it the high-water mark stays tiny.
        assert!(c.replicas[0].fc.registered.load(Ordering::Relaxed) <= 2);
        assert_eq!(c.execute_ro(&CRead::Get), 1000);
    }

    #[test]
    fn read_direct_after_sync_sees_everything() {
        let c = Replicated::with_config(Counter(0), 2, 128);
        parallel_with(RegionConfig::new().threads(4), || {
            let h = c.handle();
            for _ in 0..50 {
                h.execute(CWrite::Add(1));
            }
        });
        c.sync();
        assert_eq!(c.read_direct(|s| s.0), 200);
    }

    #[test]
    fn combiner_serialises_sections() {
        struct Unsync(UnsafeCell<u64>);
        unsafe impl Sync for Unsync {}
        impl Unsync {
            fn bump(&self) {
                // Data race unless callers exclude each other.
                unsafe { *self.0.get() += 1 }
            }
        }
        let counter = Unsync(UnsafeCell::new(0));
        let fc = Combiner::new();
        parallel_with(RegionConfig::new().threads(4), || {
            for _ in 0..1000 {
                fc.run(|| counter.bump());
            }
        });
        assert_eq!(unsafe { *counter.0.get() }, 4000);
        assert_eq!(fc.sections(), 4000);
    }

    #[test]
    fn combiner_returns_values_and_is_reentrant() {
        let fc = Combiner::new();
        let v = fc.run(|| fc.run(|| 41) + 1);
        assert_eq!(v, 42);
    }

    #[test]
    fn combiner_panics_unwind_on_the_poster() {
        let fc = Arc::new(Combiner::new());
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            fc.run(|| panic!("section panic"));
        }));
        assert!(r.is_err());
        // The combiner survives for later sections.
        assert_eq!(fc.run(|| 7), 7);
    }

    /// A counter with the two ops the failure tests need: `Fail` panics
    /// with [`FAIL`], and `CancelTeam` cancels the combining member's
    /// team before it adds one. It lingers so that its poster most
    /// likely sees the cancellation while the op is claimed; the tests'
    /// assertions hold whichever it sees first.
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
                    std::thread::sleep(Duration::from_millis(20));
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
    fn panicking_op_unwinds_its_poster_and_leaves_the_replicas_usable() {
        let c = Replicated::with_config(Fragile(0), 2, 128);
        let p = catch_unwind(AssertUnwindSafe(|| c.execute(FWrite::Fail)))
            .expect_err("the op's panic reaches its poster");
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
    fn panicking_op_in_a_batch_unwinds_only_its_own_poster() {
        let c = Arc::new(Replicated::with_config(Fragile(0), 1, 128));
        let fc = &c.replicas[0].fc;
        let held = fc.lock.lock();
        let (tx, rx) = std::sync::mpsc::channel();
        // Joined only once both have answered: a poster that never hears
        // back must fail the test below, not hang it.
        let posters: Vec<_> = [FWrite::Add(1), FWrite::Fail]
            .into_iter()
            .map(|op| {
                let (c, tx) = (Arc::clone(&c), tx.clone());
                std::thread::spawn(move || {
                    let fails = matches!(op, FWrite::Fail);
                    let out = catch_unwind(AssertUnwindSafe(|| c.execute(op)));
                    let _ = tx.send((fails, out.map_err(|p| p.downcast_ref::<&str>().copied())));
                })
            })
            .collect();
        // Both ops published before anyone may combine: one batch.
        spin_until(|| {
            fc.cells[..2]
                .iter()
                .all(|cell| cell.state.load(Ordering::Acquire) == PENDING)
        });
        drop(held);
        let mut outcomes: Vec<_> = (0..2)
            .map(|_| {
                rx.recv_timeout(Duration::from_secs(10))
                    .expect("both posters hear back")
            })
            .collect();
        outcomes.sort_by_key(|&(fails, _)| fails);
        assert_eq!(outcomes, vec![(false, Ok(1)), (true, Err(Some(FAIL)))]);
        for p in posters {
            p.join().expect("a poster catches its own panic");
        }
        assert_eq!(c.execute_ro(&()), 1);
    }

    /// Member 0 of a cancellable 2-thread team runs `post`; member 1
    /// holds `fc`'s combiner lock from before that post until `then`,
    /// which it calls once slot 0 is published, has returned.
    fn with_slot_published<I: Send, O: Send>(
        fc: &Slots<I, O>,
        post: impl Fn() + Sync,
        then: impl Fn() + Sync,
    ) -> Result<(), RegionError> {
        let locked = AtomicBool::new(false);
        try_parallel_with(RegionConfig::new().threads(2).cancellable(true), || {
            if crate::ctx::thread_id() == 0 {
                spin_until(|| locked.load(Ordering::SeqCst));
                post();
            } else {
                let _g = fc.lock.lock();
                locked.store(true, Ordering::SeqCst);
                spin_until(|| fc.cells[0].state.load(Ordering::Acquire) == PENDING);
                then();
            }
        })
    }

    #[test]
    fn pending_poster_withdraws_its_op_on_cancel() {
        fn withdraw<I, O>(fc: &Slots<I, O>) {
            crate::ctx::cancel_team();
            spin_until(|| fc.cells[0].state.load(Ordering::Acquire) == EMPTY);
        }
        let c = Replicated::with_config(Fragile(0), 1, 128);
        let fc = &c.replicas[0].fc;
        let r = with_slot_published(
            fc,
            || {
                c.execute(FWrite::Add(1));
                panic!("a withdrawn poster returned");
            },
            || withdraw(fc),
        );
        assert_eq!(r, Err(RegionError::Cancelled));
        assert_eq!(c.tail(), 0, "the withdrawn op never ran");

        let s = Combiner::new();
        let ran = AtomicBool::new(false);
        let r = with_slot_published(
            &s.fc,
            || {
                s.run(|| ran.store(true, Ordering::SeqCst));
                panic!("a withdrawn poster returned");
            },
            || withdraw(&s.fc),
        );
        assert_eq!(r, Err(RegionError::Cancelled));
        assert_eq!(s.sections(), 0);
        assert!(
            !ran.load(Ordering::SeqCst),
            "the withdrawn section never ran"
        );
    }

    #[test]
    fn claimed_poster_unwinds_after_its_answer() {
        // The op cancels the team once claimed: its poster must wait for
        // DONE, consume it, and only then unwind.
        let c = Replicated::with_config(Fragile(0), 1, 128);
        let returned = AtomicBool::new(false);
        let r = with_slot_published(
            &c.replicas[0].fc,
            || {
                c.handle().execute(FWrite::CancelTeam);
                returned.store(true, Ordering::SeqCst);
            },
            || {
                c.combine_locked(0, None, None);
            },
        );
        assert_eq!(r, Err(RegionError::Cancelled));
        assert!(!returned.load(Ordering::SeqCst), "the poster unwinds");
        assert_eq!(c.tail(), 1, "the claimed op ran exactly once");
        // The unwound handle's slot went back to the free list.
        let h = c.handle();
        assert_eq!(c.replicas[0].fc.registered.load(Ordering::Relaxed), 1);
        assert_eq!(h.execute_ro(&()), 1);

        let s = Combiner::new();
        let runs = AtomicUsize::new(0);
        let returned = AtomicBool::new(false);
        let r = with_slot_published(
            &s.fc,
            || {
                s.run(|| {
                    crate::ctx::cancel_team();
                    std::thread::sleep(Duration::from_millis(20));
                    runs.fetch_add(1, Ordering::SeqCst);
                });
                returned.store(true, Ordering::SeqCst);
            },
            || s.combine(None),
        );
        assert_eq!(r, Err(RegionError::Cancelled));
        assert!(!returned.load(Ordering::SeqCst), "the poster unwinds");
        assert_eq!((runs.load(Ordering::SeqCst), s.sections()), (1, 1));
        assert_eq!(s.fc.cells[0].state.load(Ordering::Acquire), EMPTY);
    }

    #[test]
    fn named_combiners_are_shared() {
        let a = Combiner::named("nr-test-shared");
        let b = Combiner::named("nr-test-shared");
        assert_eq!(a.id(), b.id());
        assert_ne!(a.id(), Combiner::named("nr-test-other").id());
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
        // Combiners draw from the same sequence: no collisions either.
        assert!(seen.insert(Combiner::new().id()));
    }
}
