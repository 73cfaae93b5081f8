//! Parallel regions — the main source of parallelism (paper §III-A).
//!
//! A parallel region is the context of a method execution: when the master
//! thread enters the region a team of threads is created, every thread
//! executes the region body, and all of them implicitly synchronise when
//! the body ends (paper Figure 9). This module is the runtime that the
//! `ParallelRegion` aspect (crate `aomp-weaver`) and the `#[parallel]`
//! annotation (crate `aomp-macros`) both dispatch into.
//!
//! **One protocol, three team sources, two join policies.** Every region
//! runs the same master sequence (`run_region` → `run_team` →
//! `master_sequence`): register the stall deadline (if any) with the
//! runtime's watchdog, wake the team (a [`pool`](crate::pool) hot-team
//! dispatch), run the body as member 0, classify the exit, join the
//! workers at a registered [`WaitSite::Join`], deregister. Team threads
//! only ever execute a body through the hot-team worker loop, so context
//! guards, hook events, cancellation points, wait sites and panic
//! classification are the same code whatever the team's provenance:
//!
//! * **none** — a team of one (`threads(1)`, the parallel kill switch,
//!   `only_if(false)`, `nested(false)` inside a region, or an
//!   [adaptive `if` clause](RegionConfig::adaptive) that measured the
//!   team dearer than the caller alone);
//! * **leased** from the resolved [`Runtime`](crate::runtime::Runtime)'s
//!   size-keyed cache and returned on exit — the default for top-level
//!   regions; thread creation is paid once per team, not per region;
//! * **fresh** — built for this region and torn down on exit: nested
//!   regions, [`RegionConfig::pooled(false)`](RegionConfig::pooled) and
//!   [`try_parallel_detached`].
//!
//! A region resolves its runtime as [`RegionConfig::runtime`] > the
//! innermost entered runtime on the calling thread (which is how a
//! nested region inherits its parent's) > the default runtime.
//!
//! # Failure semantics
//!
//! * [`parallel`] / [`parallel_with`] — the classic panicking API: a team
//!   thread's panic poisons the team (unblocking siblings) and is
//!   re-raised on the caller; cancellation is a benign early exit; a
//!   watchdog-declared stall panics with the diagnosis.
//! * [`try_parallel`] / [`try_parallel_with`] — the fallible API:
//!   returns [`RegionError::Panicked`], [`RegionError::Cancelled`] or
//!   [`RegionError::Stalled`] instead.
//! * [`try_parallel_detached`] — the fallible API with the *give-up*
//!   join: the body must be `Send + Sync + 'static`, and on a
//!   watchdog-declared stall members wedged in non-cooperative user code
//!   are abandoned so the caller is released.
//!
//! The first two accept borrowing bodies (`F: Fn() + Sync`) and therefore
//! always use the **full join**: releasing the caller while a worker
//! still borrows its frame would be a use-after-free, so their watchdog
//! is *cooperative* — it can wake and cancel members parked in library
//! primitives, but a member wedged in user code delays the region until
//! it returns. [`try_parallel_detached`] trades the borrowing ergonomics
//! for liveness: ownership (an `Arc`-shared body and panic slot every
//! member co-owns), not lifetime erasure, is what makes its abandonment
//! sound — the give-up join is only reachable with that owned frame in
//! hand.
//!
//! Cancellation follows OpenMP 4.0's `cancel parallel` model: opt in with
//! [`RegionConfig::cancellable`], request with
//! [`cancel_team`](crate::ctx::cancel_team), observe at every
//! cancellation point (barriers, chunk handouts, critical entry,
//! broadcasts, task joins, explicit
//! [`cancellation_point`](crate::ctx::cancellation_point)).
//!
//! [`RegionConfig::stall_deadline`] registers the region with its
//! runtime's watchdog — one long-lived thread per
//! [`Runtime`](crate::runtime::Runtime), so a watched region's entry
//! costs a registry push, not a thread — which force-cancels the team
//! when it stops making progress while members sit blocked in
//! synchronisation primitives, converting a deadlock or a hung worker
//! into a diagnosable [`RegionError::Stalled`] naming each blocked
//! thread's wait site.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::ctx::{self, CtxGuard, TeamShared};
use crate::error::{self, Cancelled, RegionError, TeamPoisoned, WaitSite};
use crate::hook::{self, HookEvent};
use crate::obs::{self, Counter, Lat};
use crate::pool::{HotLease, HotTeam, Work};
use crate::runtime;

/// Configuration of a parallel region — the Rust analogue of
/// `@Parallel(threads = n)` / overriding `numThreads()` in a concrete
/// aspect.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionConfig {
    threads: Option<usize>,
    /// Allow creating a nested team when already inside a region.
    /// Defaults to `true` (the library supports nested parallel regions,
    /// paper §III-D); disable to serialise inner regions like OpenMP with
    /// `OMP_NESTED=false`.
    nested: Option<bool>,
    /// OpenMP `if` clause: a fixed condition, or adaptive.
    only_if: Option<IfClause>,
    /// Opt-in for [`cancel_team`](crate::ctx::cancel_team) (OpenMP 4.0
    /// requires cancellation to be activated).
    cancellable: Option<bool>,
    /// Arm the stall watchdog with this deadline.
    stall_deadline: Option<Duration>,
    /// Allow (default) or refuse the hot-team cache for this region.
    pooled: Option<bool>,
    /// Pin the region to a specific runtime instance.
    runtime: Option<runtime::Runtime>,
}

impl RegionConfig {
    /// A region using the runtime default thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the team size explicitly (`@Parallel(threads = n)`).
    pub fn threads(mut self, n: usize) -> Self {
        assert!(n >= 1, "a parallel region needs at least one thread");
        self.threads = Some(n);
        self
    }

    /// Control whether a region encountered inside another region creates
    /// a real nested team (`true`, default) or runs with a team of one.
    pub fn nested(mut self, nested: bool) -> Self {
        self.nested = Some(nested);
        self
    }

    /// OpenMP's `if` clause: parallelise only when `cond` is true —
    /// typically a problem-size threshold (small inputs are not worth a
    /// team spawn). Replaces an earlier [`adaptive`](Self::adaptive).
    pub fn only_if(mut self, cond: bool) -> Self {
        self.only_if = Some(IfClause::Fixed(cond));
        self
    }

    /// OpenMP's `if` clause, decided by measurement: each entry runs
    /// either on the configured team or on a team of one (the caller
    /// alone, as `only_if(false)` would), and `gate` keeps an average of
    /// the region's wall time on the caller for each. The two alternate
    /// until each has two samples; after that every entry takes the
    /// cheaper one, and every 32nd entry takes the other to re-measure it.
    /// So a region whose body costs less than a team round trip stops
    /// paying for the team, and one whose body grows gets it back.
    ///
    /// The clause never adds threads: it only acts when the team would
    /// have more than one member anyway. While a scheduler
    /// [hook](crate::hook) is registered the configured team always runs
    /// and nothing is measured, so explored schedules depend on the seed
    /// alone. Entries the gate ran alone count as
    /// [`Counter::RegionGated`] as well as `RegionInline`.
    ///
    /// Opt in per region: team size is visible to the body
    /// ([`ctx::team_size`](crate::ctx::team_size),
    /// [`ctx::thread_id`](crate::ctx::thread_id)), so only a body whose
    /// result does not depend on it — a work-shared loop, say — should
    /// be gated. One [`Gate`] per region, shared by every entry of it:
    /// `#[parallel(only_if = "auto")]` keeps one in a `static` per
    /// function, `Mechanism::parallel().adaptive()` one per join point.
    /// Two configs are equal when they share the gate. Replaces an earlier
    /// [`only_if`](Self::only_if).
    pub fn adaptive(mut self, gate: Arc<Gate>) -> Self {
        self.only_if = Some(IfClause::Adaptive(gate));
        self
    }

    /// Allow [`cancel_team`](crate::ctx::cancel_team) to cancel this
    /// team (OpenMP 4.0's `cancel` must be activated; default `false`).
    /// The stall watchdog cancels regardless of this flag.
    pub fn cancellable(mut self, on: bool) -> Self {
        self.cancellable = Some(on);
        self
    }

    /// Arm a stall watchdog: if the team makes no progress (no chunk
    /// handouts, no wait-site transitions) for `deadline` while at least
    /// one member is blocked in a team synchronisation primitive — the
    /// master's end-of-region worker join counts as one
    /// ([`WaitSite::Join`]) — the team is force-cancelled and the region
    /// reports [`RegionError::Stalled`] with each blocked thread's wait
    /// site.
    ///
    /// Choose a deadline longer than the region's longest
    /// synchronisation-free compute phase: the watchdog cannot
    /// distinguish a slow chunk from a hung one.
    ///
    /// Under [`parallel_with`] / [`try_parallel_with`] the watchdog is
    /// *cooperative*: the region still joins every worker, so a member
    /// wedged in non-cooperative user code delays the return (see the
    /// module docs). Use [`try_parallel_detached`] when such members
    /// must be abandoned to release the caller.
    pub fn stall_deadline(mut self, deadline: Duration) -> Self {
        assert!(!deadline.is_zero(), "stall deadline must be non-zero");
        self.stall_deadline = Some(deadline);
        self
    }

    /// Allow (`true`, the default) or refuse (`false`) serving this
    /// region from the runtime's hot-team cache. With pooling refused the
    /// region always builds a fresh team and tears it down on exit — the
    /// one pooling opt-out there is. Semantics are identical either way; the
    /// switch exists for ablation measurements and for bodies that want
    /// guaranteed-fresh OS threads (e.g. ones mutating thread-level
    /// state such as signal masks or priorities).
    pub fn pooled(mut self, pooled: bool) -> Self {
        self.pooled = Some(pooled);
        self
    }

    /// Pin this region to a specific [`Runtime`](crate::runtime::Runtime)
    /// instance: its defaults (team size, parallel kill switch),
    /// its hot-team cache and its counter scope serve the region,
    /// regardless of which runtime the calling thread has entered.
    /// Unset, the region uses the innermost entered runtime (the
    /// enclosing region's, inside one) or the default runtime.
    pub fn runtime(mut self, rt: &runtime::Runtime) -> Self {
        self.runtime = Some(rt.clone());
        self
    }

    pub(crate) fn has_runtime(&self) -> bool {
        self.runtime.is_some()
    }

    pub(crate) fn resolve_runtime(&self) -> runtime::Runtime {
        self.runtime.clone().unwrap_or_else(runtime::current)
    }

    fn resolve_threads(&self, rt: &runtime::Runtime) -> usize {
        let n = self.threads.unwrap_or_else(|| rt.default_threads());
        if !rt.parallel_enabled() || self.only_if == Some(IfClause::Fixed(false)) {
            return 1;
        }
        if ctx::level() > 0 && !self.nested.unwrap_or(true) {
            return 1;
        }
        n
    }
}

/// The two spellings of OpenMP's `if` clause; the last setter wins.
#[derive(Debug, Clone)]
enum IfClause {
    /// [`RegionConfig::only_if`]: a team only when the condition holds.
    Fixed(bool),
    /// [`RegionConfig::adaptive`]: a team only when the gate measured it
    /// cheaper.
    Adaptive(Arc<Gate>),
}

impl PartialEq for IfClause {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (IfClause::Fixed(a), IfClause::Fixed(b)) => a == b,
            (IfClause::Adaptive(a), IfClause::Adaptive(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for IfClause {}

/// Entries that alternate the two modes before the gate decides: two
/// samples of each.
const GATE_WARMUP: u64 = 4;
/// Every this many entries, the gate runs the mode it did not pick.
const GATE_REPROBE: u64 = 32;
/// The averages' weight is `1 / 2^GATE_SHIFT`: 1/8.
const GATE_SHIFT: u32 = 3;
/// After warm-up a sample counts for at most this multiple of its mode's
/// average, so one preempted entry cannot flip the choice for hundreds of
/// entries.
const GATE_CLIP: u64 = 4;

/// The state of an [adaptive `if` clause](RegionConfig::adaptive): an
/// entry counter and, per mode (the configured team, a team of one), an
/// exponentially weighted average of the region's wall time on the
/// caller.
///
/// Safe to share between threads entering the same region concurrently;
/// updates are relaxed, since an estimate that loses a sample to a race is
/// still an estimate.
#[derive(Debug, Default)]
pub struct Gate {
    entries: AtomicU64,
    /// Average round trip in ns, indexed by "ran alone"; 0 until sampled.
    cost_ns: [AtomicU64; 2],
}

impl Gate {
    /// A gate with no samples.
    pub const fn new() -> Self {
        Self {
            entries: AtomicU64::new(0),
            cost_ns: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// Decide one entry: `true` runs it on a team of one. A mode with no
    /// sample yet reads cheapest, so it is the one tried.
    fn pick(&self) -> bool {
        let k = self.entries.fetch_add(1, Ordering::Relaxed);
        if k < GATE_WARMUP {
            return k % 2 == 1;
        }
        let alone_cheaper = self.cost(true) < self.cost(false);
        alone_cheaper != k.is_multiple_of(GATE_REPROBE)
    }

    fn cost(&self, alone: bool) -> u64 {
        self.cost_ns[usize::from(alone)].load(Ordering::Relaxed)
    }

    /// Fold one entry's round trip into its mode's average. The warm-up
    /// samples seed it with their minimum, so a preempted first entry
    /// does not set it either.
    fn record(&self, alone: bool, took: Duration) {
        let sample = u64::try_from(took.as_nanos()).unwrap_or(u64::MAX).max(1);
        let avg = self.cost(alone);
        let next = if avg == 0 {
            sample
        } else if self.entries.load(Ordering::Relaxed) <= GATE_WARMUP {
            avg.min(sample)
        } else {
            let sample = sample.min(avg.saturating_mul(GATE_CLIP));
            avg - (avg >> GATE_SHIFT) + (sample >> GATE_SHIFT)
        };
        self.cost_ns[usize::from(alone)].store(next, Ordering::Relaxed);
    }
}

/// Execute `body` as a parallel region with the default configuration.
///
/// Every thread of the new team runs `body` once; the call returns after
/// all of them finished (the implicit join of paper Figure 9). Inside the
/// body, [`ctx::thread_id`] yields the team-relative id.
///
/// If any team thread panics the team is poisoned (siblings blocked in
/// team synchronisation unwind with
/// [`TeamPoisoned`](crate::error::TeamPoisoned)) and the panic propagates
/// to the caller. Cancellation is treated as a successful early exit; use
/// [`try_parallel`] to observe it.
pub fn parallel<F>(body: F)
where
    F: Fn() + Sync,
{
    parallel_with(RegionConfig::default(), body)
}

/// Execute `body` as a parallel region with an explicit [`RegionConfig`].
/// See [`parallel`] for the panic/cancel semantics.
pub fn parallel_with<F>(cfg: RegionConfig, body: F)
where
    F: Fn() + Sync,
{
    match run_region(cfg, Work::Borrowed(&body)) {
        RawOutcome::Completed | RawOutcome::Cancelled => {}
        RawOutcome::Stalled(blocked) => {
            panic!("{}", RegionError::Stalled { blocked })
        }
        RawOutcome::Panicked(payload) => resume_unwind(payload),
    }
}

/// Fallible variant of [`parallel`]: reports team panics, cancellation
/// and watchdog-declared stalls as a [`RegionError`] instead of
/// panicking.
pub fn try_parallel<F>(body: F) -> Result<(), RegionError>
where
    F: Fn() + Sync,
{
    try_parallel_with(RegionConfig::default(), body)
}

/// Fallible variant of [`parallel_with`].
///
/// Returns `Err(RegionError::Panicked)` if any member panicked (first
/// payload wins, summarised as a message), `Err(RegionError::Cancelled)`
/// after a [`cancel_team`](crate::ctx::cancel_team), and
/// `Err(RegionError::Stalled)` when the watchdog armed by
/// [`RegionConfig::stall_deadline`] declared the region stuck.
///
/// # Stall semantics
///
/// The body may capture by reference, so the region **always joins
/// every worker** before returning (the full join) — no
/// member is ever left holding a borrow of a freed frame. A stall
/// declared by the watchdog force-cancels the team: members parked in
/// library primitives (barriers, broadcasts, criticals, task joins)
/// wake, unwind and are joined promptly, and the region returns
/// `Stalled` naming their wait sites. A member wedged in
/// *non-cooperative user code* (an unbounded sleep, a lost external
/// call) cannot be woken; the join — and therefore the `Stalled`
/// return — waits until it comes back. When such members must be
/// abandoned to release the caller, use [`try_parallel_detached`],
/// whose `'static` body makes abandonment sound.
pub fn try_parallel_with<F>(cfg: RegionConfig, body: F) -> Result<(), RegionError>
where
    F: Fn() + Sync,
{
    run_region(cfg, Work::Borrowed(&body)).into_result()
}

/// Fallible parallel region with the *give-up* join: a member wedged in
/// non-cooperative user code cannot hold the caller hostage.
///
/// The price is the `Send + Sync + 'static` bound: the body must own its
/// captures (`Arc`, atomics, moved values — no borrows of the caller's
/// frame). Body and panic slot live in one `Arc`-shared frame that every
/// worker co-owns, and the team is always built fresh for the region —
/// never leased from the cache, which must not get an abandoned team
/// back.
///
/// On a watchdog-declared stall ([`RegionConfig::stall_deadline`]),
/// members parked in library primitives are woken, unwound and joined;
/// a member that never reaches a cancellation point is **abandoned**
/// after a short grace period (`min(deadline, 100 ms)`) and the call
/// returns [`RegionError::Stalled`]. Abandonment is memory-safe: the
/// straggler's `Arc` keeps the frame alive, so even if it later resumes
/// it only touches live, owned state, observes the force-cancel at its
/// next cancellation point and exits (its late exit record is dropped —
/// the verdict is already in). Until then it occupies an OS thread and
/// whatever the body captured — effectively leaked for as long as it
/// stays wedged.
///
/// Without a stall deadline this behaves like [`try_parallel_with`]
/// (full join), just with owned instead of borrowed captures.
pub fn try_parallel_detached<F>(cfg: RegionConfig, body: F) -> Result<(), RegionError>
where
    F: Fn() + Send + Sync + 'static,
{
    run_region(cfg, Work::Owned(Arc::new(body))).into_result()
}

/// Execute `body` on a team and collect each thread's return value,
/// indexed by thread id. A convenience not present in OpenMP but natural
/// in Rust; used by tests and by reductions.
pub fn parallel_map<F, T>(cfg: RegionConfig, body: F) -> Vec<T>
where
    F: Fn(usize) -> T + Sync,
    T: Send,
{
    // An upper bound: an adaptive `if` clause may still run a team of one.
    let n = cfg.resolve_threads(&cfg.resolve_runtime());
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    {
        let results = &results;
        let body = &body;
        parallel_with(cfg, move || {
            let tid = ctx::thread_id();
            let v = body(tid);
            *results[tid].lock() = Some(v);
        });
    }
    // Thread ids are dense, so the team's results are a prefix.
    results.into_iter().map_while(Mutex::into_inner).collect()
}

// ---------------------------------------------------------------------
// Executor internals
// ---------------------------------------------------------------------

enum RawOutcome {
    Completed,
    Cancelled,
    Stalled(Vec<(usize, WaitSite)>),
    Panicked(Box<dyn std::any::Any + Send>),
}

impl RawOutcome {
    fn into_result(self) -> Result<(), RegionError> {
        match self {
            RawOutcome::Completed => Ok(()),
            RawOutcome::Cancelled => Err(RegionError::Cancelled),
            RawOutcome::Stalled(blocked) => Err(RegionError::Stalled { blocked }),
            RawOutcome::Panicked(payload) => Err(RegionError::Panicked {
                payload_msg: error::payload_msg(payload.as_ref()),
            }),
        }
    }
}

/// Classify one member's exit. Benign unwinds (`Cancelled` echoes of an
/// actual team cancel, `TeamPoisoned` echoes of a sibling's panic) are
/// absorbed; a real panic poisons the team and its payload is kept
/// (first wins). `pub(crate)` because the hot-team worker loop (`pool`)
/// is the other caller.
pub(crate) fn record_member_exit(
    shared: &TeamShared,
    r: Result<(), Box<dyn std::any::Any + Send>>,
) {
    let Err(p) = r else { return };
    if p.downcast_ref::<TeamPoisoned>().is_some() {
        return;
    }
    if p.downcast_ref::<Cancelled>().is_some() && shared.cancelled.load(Ordering::Acquire) {
        // A genuine cancellation echo: the member unwound from a
        // cancellation point after the team's cancel flag was set. A
        // stray `Cancelled` payload raised by user code on a team that
        // was never cancelled falls through and is treated as a real
        // panic — it must not impersonate a cancel the team never
        // opted into.
        return;
    }
    shared.poison();
    let mut slot = shared.first_panic.lock();
    if slot.is_none() {
        *slot = Some(p);
    }
}

fn classify(shared: &TeamShared) -> RawOutcome {
    if let Some(p) = shared.first_panic.lock().take() {
        return RawOutcome::Panicked(p);
    }
    if let Some(blocked) = shared.take_stalled() {
        return RawOutcome::Stalled(blocked);
    }
    if shared.cancelled.load(Ordering::Acquire) {
        return RawOutcome::Cancelled;
    }
    RawOutcome::Completed
}

/// Where a region's team threads come from. Dropping the value is the
/// teardown: a lease returns its team to the cache, a fresh team joins
/// its workers (or detaches them, if the give-up join abandoned it).
enum Team {
    /// A team of one: the master is the whole team.
    None,
    Leased(HotLease),
    Fresh(HotTeam),
}

/// Every region: resolve the configuration and the team size, let an
/// adaptive `if` clause pick between the team and a team of one, then
/// [`run_team`].
fn run_region(cfg: RegionConfig, work: Work<'_>) -> RawOutcome {
    // The master's `rt` binding keeps the runtime alive for the region's
    // duration — the team itself only holds a weak handle.
    let rt = cfg.resolve_runtime();
    let n = cfg.resolve_threads(&rt);
    match &cfg.only_if {
        // The gate acts only where a team would run, and never under a
        // scheduler hook, whose schedules must not depend on a clock.
        Some(IfClause::Adaptive(gate)) if n > 1 && !hook::active() => {
            let alone = gate.pick();
            if alone {
                rt.scope().record(Counter::RegionGated);
            }
            let start = Instant::now();
            let outcome = run_team(&cfg, &rt, if alone { 1 } else { n }, work);
            gate.record(alone, start.elapsed());
            outcome
        }
        _ => run_team(&cfg, &rt, n, work),
    }
}

/// Run a region on `n` threads: pick the team source, run the
/// [`master_sequence`], classify.
fn run_team(cfg: &RegionConfig, rt: &runtime::Runtime, n: usize, work: Work<'_>) -> RawOutcome {
    let shared = Arc::new(TeamShared::for_runtime(
        n,
        ctx::level() + 1,
        cfg.cancellable.unwrap_or(false),
        cfg.stall_deadline.is_some(),
        rt.downgrade(),
    ));

    hook::emit(|| HookEvent::RegionStart {
        team: shared.token(),
        size: n,
        level: shared.level,
    });
    // Region round-trip histogram (entry + body + join + teardown): with
    // an empty body this is the entry overhead the benchmark ledger's
    // `region.entry_pooled_ns` row times, keyed by team source.
    let t0 = obs::region_timer();
    // The cache only serves top-level regions (a nested region's caller
    // may itself be a cached worker mid-dispatch — no lease re-entrancy)
    // and only borrowed work: owned work may abandon its team, and an
    // abandoned team must never be handed back.
    let cacheable =
        matches!(work, Work::Borrowed(_)) && cfg.pooled != Some(false) && ctx::level() == 0;
    let team = if n == 1 {
        Team::None
    } else if let Some(lease) = cacheable.then(|| rt.lease(n)).flatten() {
        Team::Leased(lease)
    } else {
        Team::Fresh(HotTeam::new(n, true).expect("failed to spawn aomp team thread"))
    };
    let (workers, counter, lat) = match &team {
        Team::None => (None, Counter::RegionInline, Lat::RegionInline),
        Team::Leased(lease) => (Some(lease.team()), Counter::RegionPooled, Lat::RegionPooled),
        Team::Fresh(fresh) => (Some(fresh), Counter::RegionSpawned, Lat::RegionSpawned),
    };
    rt.scope().record(counter);
    master_sequence(workers, &shared, rt, cfg.stall_deadline, &work);
    drop(team);
    obs::region_done(t0, lat);

    let outcome = classify(&shared);
    hook::emit(|| HookEvent::RegionEnd {
        team: shared.token(),
    });
    outcome
}

/// How long the give-up join waits, after a declared stall, for members
/// parked in library primitives to observe the cancel and unwind.
const STALL_GRACE: Duration = Duration::from_millis(100);

/// The master's half of paper Figure 9, the same for every team source:
/// wake the team, execute the body as member 0, join the rest.
///
/// A team of one still runs under a (size-1) team context, so constructs
/// observe consistent `thread_id`/`team_size` values, and under the
/// watchdog when a deadline is armed, so a single member parked in a
/// library primitive (say, a future that is never fulfilled) is
/// force-cancelled and diagnosed instead of parking forever.
///
/// The watchdog is *cooperative* under the full join: on a stall it
/// force-cancels the team so members parked in library primitives unwind
/// and the join completes, but a thread wedged in non-cooperative user
/// code delays the join until it returns — borrowed work may reference
/// this frame, so safety wins over liveness. Owned work makes the
/// opposite trade: after the stall grace the master abandons stragglers.
fn master_sequence(
    workers: Option<&HotTeam>,
    shared: &Arc<TeamShared>,
    rt: &runtime::Runtime,
    deadline: Option<Duration>,
    work: &Work<'_>,
) {
    // Registered with the runtime's watchdog *before* dispatch, so no
    // panic (the first arm starts the watchdog thread, which can fail)
    // can unwind this frame between dispatch and join. The guard
    // deregisters on every way out of this function.
    let _armed = deadline.map(|d| rt.watchdog().arm(shared, d));
    if let Some(team) = workers {
        debug_assert_eq!(team.size(), shared.n);
        team.dispatch(shared, work);
    }
    let r = catch_unwind(AssertUnwindSafe(|| {
        let _guard = CtxGuard::enter(Arc::clone(shared), 0);
        work.run();
    }));
    record_member_exit(shared, r);
    if let Some(team) = workers {
        // The join is a registered wait site: a stall where every member
        // is either exited or wedged in user code (nobody parked in a
        // library primitive) is still visible to the watchdog through
        // the waiting master.
        let _w = shared.begin_wait(0, WaitSite::Join);
        match work {
            Work::Borrowed(_) => team.join_workers(None),
            Work::Owned(body) => {
                // Once the watchdog declared a stall, wait only a grace
                // period, then abandon stragglers wedged in user code.
                let grace = deadline.map_or(STALL_GRACE, |d| d.min(STALL_GRACE));
                let mut give_up_at: Option<Instant> = None;
                let mut give_up = || {
                    shared.stall_declared()
                        && Instant::now()
                            >= *give_up_at.get_or_insert_with(|| Instant::now() + grace)
                };
                team.join_workers(Some((body, &mut give_up)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{cancel_team, cancellation_point, team_size, thread_id};
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex as StdMutex;

    #[test]
    fn all_threads_execute_body() {
        let count = AtomicUsize::new(0);
        parallel_with(RegionConfig::new().threads(4), || {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn thread_ids_are_distinct_and_dense() {
        let ids = StdMutex::new(HashSet::new());
        parallel_with(RegionConfig::new().threads(6), || {
            ids.lock().unwrap().insert(thread_id());
        });
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids, (0..6).collect::<HashSet<_>>());
    }

    #[test]
    fn master_is_calling_thread() {
        let master_seen = AtomicUsize::new(0);
        let outer = std::thread::current().id();
        parallel_with(RegionConfig::new().threads(3), || {
            if thread_id() == 0 {
                assert_eq!(std::thread::current().id(), outer);
                master_seen.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(master_seen.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn single_thread_region_runs_inline() {
        let flag = AtomicUsize::new(0);
        parallel_with(RegionConfig::new().threads(1), || {
            flag.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(flag.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn region_sets_team_size() {
        parallel_with(RegionConfig::new().threads(5), || {
            assert_eq!(team_size(), 5);
        });
        assert_eq!(team_size(), 1);
    }

    #[test]
    fn nested_regions_multiply() {
        let count = AtomicUsize::new(0);
        parallel_with(RegionConfig::new().threads(2), || {
            parallel_with(RegionConfig::new().threads(3), || {
                count.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(count.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn nested_disabled_serialises_inner() {
        let count = AtomicUsize::new(0);
        parallel_with(RegionConfig::new().threads(2), || {
            parallel_with(RegionConfig::new().threads(3).nested(false), || {
                assert_eq!(team_size(), 1);
                count.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn parallel_disabled_runs_sequentially() {
        // A private runtime: switching the default one off would serialise
        // sibling tests' regions.
        let rt = crate::Runtime::builder().build();
        rt.set_parallel_enabled(false);
        let count = AtomicUsize::new(0);
        rt.parallel_with(RegionConfig::new().threads(8), || {
            assert_eq!(team_size(), 1);
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn parallel_map_collects_by_tid() {
        let v = parallel_map(RegionConfig::new().threads(4), |tid| tid * 10);
        assert_eq!(v, vec![0, 10, 20, 30]);
    }

    #[test]
    fn panic_propagates_to_caller() {
        let result = std::panic::catch_unwind(|| {
            parallel_with(RegionConfig::new().threads(2), || {
                if thread_id() == 1 {
                    panic!("worker exploded");
                }
                // Master waits at a team barrier; poison must unblock it.
                crate::ctx::barrier();
            });
        });
        assert!(result.is_err());
        // The runtime must be usable again afterwards.
        let count = AtomicUsize::new(0);
        parallel_with(RegionConfig::new().threads(2), || {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn if_clause_serialises_when_false() {
        let count = AtomicUsize::new(0);
        parallel_with(RegionConfig::new().threads(4).only_if(false), || {
            assert_eq!(team_size(), 1);
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 1);
        parallel_with(RegionConfig::new().threads(4).only_if(true), || {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 5);
    }

    /// Drive a gate with made-up wall times, no region involved:
    /// `took(k, alone)` is entry `k`'s round trip in ns. Returns which
    /// entries the gate ran alone.
    fn picks(entries: u64, took: impl Fn(u64, bool) -> u64) -> Vec<bool> {
        let gate = Gate::new();
        (0..entries)
            .map(|k| {
                let alone = gate.pick();
                gate.record(alone, Duration::from_nanos(took(k, alone)));
                alone
            })
            .collect()
    }

    /// The entries after warm-up that did not run the cheaper mode
    /// (alone, if `cheaper_alone`).
    fn reprobes(picks: &[bool], cheaper_alone: bool) -> Vec<usize> {
        (4..picks.len())
            .filter(|&k| picks[k] != cheaper_alone)
            .collect()
    }

    #[test]
    fn gate_warms_up_then_keeps_the_cheaper_mode_and_reprobes_it() {
        // An empty body: the team's round trip dwarfs the caller alone.
        let empty = picks(100, |_, alone| if alone { 100 } else { 10_000 });
        assert_eq!(empty[..4], [false, true, false, true], "team first");
        assert_eq!(reprobes(&empty, true), [32, 64, 96]);
        // A ~2 ms body the team halves: it keeps the team.
        let split = picks(100, |_, alone| if alone { 2_000_000 } else { 1_000_000 });
        assert_eq!(split[..4], [false, true, false, true]);
        assert_eq!(reprobes(&split, false), [32, 64, 96]);
    }

    #[test]
    fn gate_shrugs_off_one_slow_entry() {
        // A cold first team entry: warm-up seeds each average with the
        // faster of its two samples.
        let cold = picks(40, |k, alone| match (k, alone) {
            (0, _) => 1_000_000_000,
            (_, true) => 5_000,
            (_, false) => 1_000,
        });
        assert_eq!(reprobes(&cold, false), [32]);
        // A preempted entry after warm-up counts for at most four times
        // its mode's average.
        let preempted = picks(100, |k, alone| match (k, alone) {
            (10, _) => 1_000_000_000,
            (_, true) => 100,
            (_, false) => 10_000,
        });
        assert_eq!(reprobes(&preempted, true), [32, 64, 96]);
    }

    #[test]
    fn adaptive_gate_runs_an_empty_body_alone() {
        let rt = runtime::Runtime::builder().threads(2).build();
        let cfg = RegionConfig::new()
            .runtime(&rt)
            .adaptive(Arc::new(Gate::new()));
        for _ in 0..512 {
            parallel_with(cfg.clone(), || {});
        }
        let gated = rt.metrics_snapshot().counter(Counter::RegionGated);
        assert!(gated * 10 >= 512 * 9, "{gated} of 512 entries gated");
    }

    #[test]
    fn parallel_map_returns_the_team_that_ran() {
        let cfg = RegionConfig::new()
            .threads(2)
            .adaptive(Arc::new(Gate::new()));
        // Warm-up runs the team, then the caller alone.
        assert_eq!(parallel_map(cfg.clone(), |tid| tid), vec![0, 1]);
        assert_eq!(parallel_map(cfg, |tid| tid), vec![0]);
    }

    #[test]
    fn adaptive_and_only_if_set_one_clause() {
        let gate = Arc::new(Gate::new());
        let adaptive = RegionConfig::new().adaptive(Arc::clone(&gate));
        assert_eq!(
            adaptive,
            RegionConfig::new()
                .only_if(false)
                .adaptive(Arc::clone(&gate))
        );
        assert_eq!(
            adaptive.clone().only_if(true),
            RegionConfig::new().only_if(true)
        );
        assert_ne!(
            adaptive,
            RegionConfig::new().adaptive(Arc::new(Gate::new()))
        );
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = RegionConfig::new().threads(0);
    }

    #[test]
    fn try_parallel_reports_panic() {
        let r = try_parallel_with(RegionConfig::new().threads(2), || {
            if thread_id() == 1 {
                panic!("deliberate failure");
            }
            crate::ctx::barrier();
        });
        match r {
            Err(RegionError::Panicked { payload_msg }) => {
                assert_eq!(payload_msg, "deliberate failure");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn try_parallel_ok_on_success() {
        let count = AtomicUsize::new(0);
        let r = try_parallel(|| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert!(r.is_ok());
        assert!(count.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn cancel_team_reports_cancelled() {
        let r = try_parallel_with(RegionConfig::new().threads(3).cancellable(true), || {
            if thread_id() == 1 {
                assert!(cancel_team());
            }
            // Everyone eventually reaches a cancellation point.
            loop {
                if cancellation_point().is_err() {
                    break;
                }
                std::thread::yield_now();
            }
        });
        assert_eq!(r, Err(RegionError::Cancelled));
    }

    #[test]
    fn cancel_requires_cancellable() {
        let cancelled = AtomicUsize::new(0);
        let r = try_parallel_with(RegionConfig::new().threads(2), || {
            if !cancel_team() {
                cancelled.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert!(r.is_ok(), "cancel refused => region completes normally");
        assert_eq!(cancelled.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn cancelled_region_panicking_api_is_silent() {
        // The panicking API treats cancellation as a benign early exit.
        parallel_with(RegionConfig::new().threads(2).cancellable(true), || {
            cancel_team();
            crate::ctx::barrier(); // unwinds with Cancelled; swallowed
        });
    }

    #[test]
    fn stray_cancelled_payload_is_a_real_panic() {
        // `panic_any(Cancelled)` from user code on a team that was never
        // cancelled must not impersonate a team cancel (the team did not
        // opt in) — it is reported as a panic.
        let r = try_parallel_with(RegionConfig::new().threads(2), || {
            if thread_id() == 1 {
                std::panic::panic_any(Cancelled);
            }
            crate::ctx::barrier();
        });
        match r {
            Err(RegionError::Panicked { payload_msg }) => {
                assert!(payload_msg.contains("cancelled"), "{payload_msg}");
            }
            other => panic!("expected Panicked, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_converts_hang_to_stalled() {
        let deadline = Duration::from_millis(150);
        let t0 = Instant::now();
        let r = try_parallel_detached(
            RegionConfig::new().threads(3).stall_deadline(deadline),
            || {
                if thread_id() == 2 {
                    // Wedged in "user code": sleeps past any deadline and
                    // never reaches a cancellation point. The detached
                    // executor abandons it (safely: it co-owns the region
                    // frame) instead of waiting the hour out.
                    std::thread::sleep(Duration::from_secs(3600));
                }
                crate::ctx::barrier();
            },
        );
        let elapsed = t0.elapsed();
        match r {
            Err(RegionError::Stalled { blocked }) => {
                let tids: Vec<usize> = blocked.iter().map(|(t, _)| *t).collect();
                assert!(
                    tids.contains(&0) && tids.contains(&1),
                    "barrier waiters named: {tids:?}"
                );
                assert!(
                    !tids.contains(&2),
                    "the wedged thread is not at a wait site"
                );
                assert!(blocked.iter().all(|(_, s)| *s == WaitSite::Barrier));
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
        assert!(
            elapsed < deadline * 4,
            "returned within bounded time, took {elapsed:?}"
        );
        // The runtime is usable afterwards.
        let count = AtomicUsize::new(0);
        parallel_with(RegionConfig::new().threads(2), || {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn detached_stall_with_no_library_waiters_is_caught() {
        // Every member is either exited (the master, waiting at the
        // region join) or wedged in user code — nobody is parked in a
        // library primitive. The join wait site lets the watchdog
        // adjudicate anyway.
        let r = try_parallel_detached(
            RegionConfig::new()
                .threads(2)
                .stall_deadline(Duration::from_millis(150)),
            || {
                if thread_id() == 1 {
                    std::thread::sleep(Duration::from_secs(3600));
                }
            },
        );
        match r {
            Err(RegionError::Stalled { blocked }) => {
                assert_eq!(blocked, vec![(0, WaitSite::Join)]);
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn scoped_watchdog_reports_sync_deadlock() {
        // A synchronisation-level deadlock under the borrowing API: the
        // worker waits at a second barrier round the master never joins.
        // The cooperative watchdog cancels, the worker unwinds, the full
        // join completes and the caller gets the diagnosis.
        let r = try_parallel_with(
            RegionConfig::new()
                .threads(2)
                .stall_deadline(Duration::from_millis(150)),
            || {
                crate::ctx::barrier();
                if thread_id() == 1 {
                    crate::ctx::barrier();
                }
            },
        );
        match r {
            Err(RegionError::Stalled { blocked }) => {
                assert!(
                    blocked.contains(&(1, WaitSite::Barrier)),
                    "the deadlocked worker is named: {blocked:?}"
                );
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn single_thread_region_watchdog_fires() {
        // The watchdog also covers teams of one (e.g. a region serialised
        // by the kill switch or `only_if(false)`): a single member parked
        // in a library primitive is cancelled and diagnosed.
        let r = try_parallel_with(
            RegionConfig::new()
                .threads(1)
                .stall_deadline(Duration::from_millis(150)),
            || {
                let (_promise, fut) = crate::task::future_pair::<u32>();
                // Never fulfilled: parks at FutureGet until the watchdog
                // force-cancels the team.
                let _ = fut.get();
            },
        );
        match r {
            Err(RegionError::Stalled { blocked }) => {
                assert_eq!(blocked, vec![(0, WaitSite::FutureGet)]);
            }
            other => panic!("expected Stalled, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_does_not_fire_on_healthy_region() {
        let sum = AtomicUsize::new(0);
        let r = try_parallel_with(
            RegionConfig::new()
                .threads(4)
                .stall_deadline(Duration::from_secs(30)),
            || {
                for _ in 0..5 {
                    sum.fetch_add(1, Ordering::SeqCst);
                    crate::ctx::barrier();
                }
            },
        );
        assert!(r.is_ok());
        assert_eq!(sum.load(Ordering::SeqCst), 20);
    }
}
