//! Scheduler hook layer: the test-only instrumentation surface that the
//! deterministic schedule-exploration harness (`aomp-check`) plugs into.
//!
//! Every scheduling decision the runtime owns — barrier entry/exit,
//! critical acquire/release, chunk handout in every schedule, single and
//! master broadcast publishes, ordered-section turns, task spawn/join,
//! cancellation points and wait-site registration — reports through this
//! module when (and only when) a [`SchedHook`] is registered.
//!
//! # Zero cost when unregistered
//!
//! The fast path is a single relaxed atomic load plus a predictable
//! branch ([`active`]), and every call site already sits on a slow path
//! (a blocking primitive, a chunk dispenser, a region spawn). Release
//! builds with no hook registered pay one cold branch per decision site;
//! the benchmark ledger's `region.entry_pooled_ns` row measures the entry
//! path that carries it.
//!
//! # Contract for hook implementations
//!
//! * [`SchedHook::event`] is called *outside* all runtime locks: a hook
//!   may block the calling thread (that is how the checker serialises a
//!   team) without deadlocking the runtime.
//! * [`SchedHook::blocked`] is consulted by bounded wait loops *instead
//!   of* a timed park, again with no runtime lock held. Returning `true`
//!   means the hook parked the thread itself and the caller should
//!   re-check its wake condition immediately; returning `false` falls
//!   back to the normal bounded park.
//! * Hooks must never panic from [`SchedHook::event`]: events are also
//!   emitted while a thread unwinds (member exit), where a second panic
//!   would abort the process.
//!
//! # Scope across runtime instances
//!
//! The registry is deliberately *process-global*, not per
//! [`Runtime`](crate::Runtime): a registered hook observes decisions
//! from every runtime instance in the process. The checker wants exactly
//! that (nothing escapes observation), and it serialises explorations
//! behind a session lock while pinning each one to a private runtime, so
//! per-runtime attribution is never needed here.

use parking_lot::Mutex;

use crate::error::WaitSite;
use crate::obs;

/// Opaque identity of one team (one parallel-region execution). Stable
/// for the lifetime of the region; ids may be reused by later teams.
pub type TeamId = usize;

/// One scheduling decision site, as observed by a registered
/// [`SchedHook`]. All payloads are `Copy` so recording a trace never
/// allocates per event on the runtime side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum HookEvent {
    /// A parallel region is about to execute (emitted on the master
    /// thread, before any member starts).
    RegionStart {
        /// Team identity.
        team: TeamId,
        /// Team size after resolving the configuration.
        size: usize,
        /// Nesting level (1 = top-level region).
        level: usize,
    },
    /// The region completed (all members joined; emitted on the master).
    RegionEnd {
        /// Team identity.
        team: TeamId,
    },
    /// A member thread entered the team context.
    MemberStart {
        /// Team identity.
        team: TeamId,
        /// Member id within the team.
        tid: usize,
    },
    /// A member thread left the team context (normal exit *or* unwind).
    MemberEnd {
        /// Team identity.
        team: TeamId,
        /// Member id within the team.
        tid: usize,
    },
    /// A member returned from a team barrier round.
    BarrierExit {
        /// Team identity.
        team: TeamId,
        /// Member id within the team.
        tid: usize,
        /// Whether this member was the round's last arriver.
        leader: bool,
    },
    /// A member acquired a critical lock.
    CriticalAcquire {
        /// Team identity.
        team: TeamId,
        /// Member id within the team.
        tid: usize,
        /// Identity of the lock (stable per lock object).
        lock: usize,
    },
    /// A member released a critical lock.
    CriticalRelease {
        /// Team identity.
        team: TeamId,
        /// Member id within the team.
        tid: usize,
        /// Identity of the lock (stable per lock object).
        lock: usize,
    },
    /// A work-sharing construct handed a chunk of iterations to a member.
    ChunkHandout {
        /// Team identity.
        team: TeamId,
        /// Member id within the team.
        tid: usize,
        /// Schedule kind (`"static-block"`, `"static-cyclic"`,
        /// `"dynamic"`, `"guided"`, `"block-cyclic"`, `"adaptive"`;
        /// taskloop reports `"adaptive"`).
        kind: &'static str,
        /// Chunk start: a logical iteration number in `0..count`, for
        /// every schedule kind (element values are recovered with
        /// [`LoopRange::element`](crate::range::LoopRange::element)).
        /// `static-cyclic` assignments are non-contiguous, so that kind
        /// emits one single-iteration handout (`hi == lo + 1`) per
        /// assigned iteration.
        lo: u64,
        /// Chunk end (exclusive), same iteration-number coordinates as
        /// `lo`. The handouts of one work-sharing loop partition
        /// `0..count`: each iteration appears in exactly one chunk.
        hi: u64,
    },
    /// A single/master body published its broadcast value.
    BroadcastPublish {
        /// Team identity.
        team: TeamId,
        /// Member id of the publishing thread.
        tid: usize,
        /// Which broadcast ([`WaitSite::SingleBroadcast`] or
        /// [`WaitSite::MasterBroadcast`]).
        site: WaitSite,
    },
    /// A member returned from waiting on a single/master broadcast with
    /// the published value in hand. Together with
    /// [`BroadcastPublish`](Self::BroadcastPublish) this is the
    /// publisher→reader happens-before edge the race detector needs: the
    /// receiver is ordered after the publish, other members are not.
    BroadcastReceive {
        /// Team identity.
        team: TeamId,
        /// Member id of the receiving thread.
        tid: usize,
        /// Which broadcast ([`WaitSite::SingleBroadcast`] or
        /// [`WaitSite::MasterBroadcast`]).
        site: WaitSite,
    },
    /// A member won its ordered-section turn and is about to run it.
    OrderedEnter {
        /// Team identity.
        team: TeamId,
        /// Member id within the team.
        tid: usize,
        /// The ordered ticket (logical iteration number).
        ticket: u64,
    },
    /// A member finished an ordered section, releasing the next ticket.
    OrderedExit {
        /// Team identity.
        team: TeamId,
        /// Member id within the team.
        tid: usize,
        /// The ordered ticket (logical iteration number).
        ticket: u64,
    },
    /// A task was spawned from inside a team (`@Task` / `@FutureTask`).
    TaskSpawn {
        /// Team identity.
        team: TeamId,
        /// Member id of the spawning thread.
        tid: usize,
    },
    /// A member completed a task join (`TaskGroup::wait` or
    /// `FutureTask::get`).
    TaskJoin {
        /// Team identity.
        team: TeamId,
        /// Member id within the team.
        tid: usize,
        /// Which join ([`WaitSite::TaskWait`] or [`WaitSite::FutureGet`]).
        site: WaitSite,
    },
    /// A member *released* toward dependence node `node`
    /// ([`deps`](crate::deps)): the spawner publishing a freshly created
    /// task, a completing task satisfying one successor's dependence, or
    /// a completing task signalling its group's join sink. The release
    /// half of the per-dependence happens-before edge — everything the
    /// releasing member did so far is ordered before whoever becomes
    /// ready through `node`.
    TaskDepRelease {
        /// Team identity.
        team: TeamId,
        /// Member id within the team.
        tid: usize,
        /// Process-unique dependence-node identity (a task node or a
        /// group's join sink).
        node: usize,
    },
    /// A member *acquired* dependence node `node`: a runner about to
    /// execute a task whose dependences are all satisfied, or a joiner
    /// returning from a group wait through the join sink. The acquire
    /// half — the member is ordered after every
    /// [`TaskDepRelease`](Self::TaskDepRelease) previously published
    /// toward the same node, and after nothing else (no conservative
    /// whole-group spawn→join edge).
    TaskDepReady {
        /// Team identity.
        team: TeamId,
        /// Member id within the team.
        tid: usize,
        /// Process-unique dependence-node identity.
        node: usize,
    },
    /// A member requested team cancellation (`cancel_team` succeeded).
    CancelRequested {
        /// Team identity.
        team: TeamId,
        /// Member id of the requesting thread.
        tid: usize,
    },
    /// A member passed an explicit cancellation point.
    CancellationPoint {
        /// Team identity.
        team: TeamId,
        /// Member id within the team.
        tid: usize,
    },
    /// A member registered at a wait site and is about to block.
    WaitRegister {
        /// Team identity.
        team: TeamId,
        /// Member id within the team.
        tid: usize,
        /// The wait site it is about to block at.
        site: WaitSite,
    },
    /// A member appended an operation to a replicated structure's log
    /// ([`nr`](crate::nr)), emitted once its position is reserved and
    /// before the op turns visible. The release half of the
    /// append→replay happens-before edge.
    NrAppend {
        /// Team identity.
        team: TeamId,
        /// Member id within the team.
        tid: usize,
        /// Identity of the replicated structure (monotonic, never
        /// address-derived — see [`CriticalAcquire`](Self::CriticalAcquire)).
        nr: usize,
        /// First appended log position (inclusive).
        lo: u64,
        /// Last appended log position (exclusive).
        hi: u64,
    },
    /// A member holds one replica's locks and is about to replay log
    /// entries `[lo, hi)` into the local copy. The acquire half: the
    /// member observes every append up to `hi` plus everything earlier
    /// replay passes published into this replica.
    NrCombine {
        /// Team identity.
        team: TeamId,
        /// Member id within the team.
        tid: usize,
        /// Identity of the replicated structure.
        nr: usize,
        /// Replica index the entries are applied to.
        replica: usize,
        /// First applied log position (inclusive).
        lo: u64,
        /// End of the applied range (exclusive).
        hi: u64,
    },
    /// A member synchronised with a replica: a replay pass publishing
    /// what it applied, or a reader that observed the replica at the log
    /// tail. Orders the member after every replay pass previously
    /// published into the replica.
    NrSync {
        /// Team identity.
        team: TeamId,
        /// Member id within the team.
        tid: usize,
        /// Identity of the replicated structure.
        nr: usize,
        /// Replica index synchronised with.
        replica: usize,
        /// Log position (exclusive) the replica had applied up to.
        upto: u64,
    },
}

impl HookEvent {
    /// The team this event belongs to.
    pub fn team(&self) -> TeamId {
        match *self {
            HookEvent::RegionStart { team, .. }
            | HookEvent::RegionEnd { team }
            | HookEvent::MemberStart { team, .. }
            | HookEvent::MemberEnd { team, .. }
            | HookEvent::BarrierExit { team, .. }
            | HookEvent::CriticalAcquire { team, .. }
            | HookEvent::CriticalRelease { team, .. }
            | HookEvent::ChunkHandout { team, .. }
            | HookEvent::BroadcastPublish { team, .. }
            | HookEvent::BroadcastReceive { team, .. }
            | HookEvent::OrderedEnter { team, .. }
            | HookEvent::OrderedExit { team, .. }
            | HookEvent::TaskSpawn { team, .. }
            | HookEvent::TaskJoin { team, .. }
            | HookEvent::TaskDepRelease { team, .. }
            | HookEvent::TaskDepReady { team, .. }
            | HookEvent::CancelRequested { team, .. }
            | HookEvent::CancellationPoint { team, .. }
            | HookEvent::WaitRegister { team, .. }
            | HookEvent::NrAppend { team, .. }
            | HookEvent::NrCombine { team, .. }
            | HookEvent::NrSync { team, .. } => team,
        }
    }

    /// The member id this event belongs to, if it is member-scoped
    /// (`RegionStart`/`RegionEnd` are region-scoped and return `None`).
    pub fn tid(&self) -> Option<usize> {
        match *self {
            HookEvent::RegionStart { .. } | HookEvent::RegionEnd { .. } => None,
            HookEvent::MemberStart { tid, .. }
            | HookEvent::MemberEnd { tid, .. }
            | HookEvent::BarrierExit { tid, .. }
            | HookEvent::CriticalAcquire { tid, .. }
            | HookEvent::CriticalRelease { tid, .. }
            | HookEvent::ChunkHandout { tid, .. }
            | HookEvent::BroadcastPublish { tid, .. }
            | HookEvent::BroadcastReceive { tid, .. }
            | HookEvent::OrderedEnter { tid, .. }
            | HookEvent::OrderedExit { tid, .. }
            | HookEvent::TaskSpawn { tid, .. }
            | HookEvent::TaskJoin { tid, .. }
            | HookEvent::TaskDepRelease { tid, .. }
            | HookEvent::TaskDepReady { tid, .. }
            | HookEvent::CancelRequested { tid, .. }
            | HookEvent::CancellationPoint { tid, .. }
            | HookEvent::WaitRegister { tid, .. }
            | HookEvent::NrAppend { tid, .. }
            | HookEvent::NrCombine { tid, .. }
            | HookEvent::NrSync { tid, .. } => Some(tid),
        }
    }
}

/// A scheduler hook: receives every runtime decision site while
/// registered. See the module docs for the locking/panic contract.
pub trait SchedHook: Send + Sync {
    /// A decision site was reached. May block the calling thread; must
    /// not panic (events are also emitted during unwinds).
    fn event(&self, ev: &HookEvent);

    /// A member found its wake condition unmet and is about to park.
    /// Return `true` to take over the park (the caller re-checks its
    /// condition immediately); `false` to fall back to the bounded park.
    fn blocked(&self, team: TeamId, tid: usize, site: WaitSite) -> bool {
        let _ = (team, tid, site);
        false
    }
}

/// The registered hook. Only read on the cold path, and the reference is
/// copied out before the hook is called so emitters never hold this lock
/// while a hook blocks them. The fast-path gate is the shared
/// [`obs`] gate byte: one relaxed load covers "hook registered?",
/// "metrics on?" and "trace running?" together.
static HOOK: Mutex<Option<&'static dyn SchedHook>> = Mutex::new(None);

/// Register `hook` process-wide. Replaces any previous hook. Test-only
/// by intent: the hook observes every team in the process.
pub fn register(hook: &'static dyn SchedHook) {
    *HOOK.lock() = Some(hook);
    obs::gate_set(obs::F_HOOK);
}

/// Unregister the current hook, restoring the zero-cost fast path.
pub fn unregister() {
    obs::gate_clear(obs::F_HOOK);
    *HOOK.lock() = None;
}

/// Whether a hook is registered (the one-branch fast path).
#[inline(always)]
pub fn active() -> bool {
    obs::gate() & obs::F_HOOK != 0
}

/// Whether *any* event consumer is on — a registered hook, the metrics
/// registry ([`obs::set_metrics`]/`AOMP_METRICS`), or the trace recorder.
/// When this is `false`, event emission does not even build the event.
#[inline(always)]
pub fn instrumented() -> bool {
    obs::gate() & obs::F_EVENTS != 0
}

#[cold]
fn current() -> Option<&'static dyn SchedHook> {
    *HOOK.lock()
}

/// Emit an event if anything is listening (hook, metrics or trace). The
/// closure only runs on the cold path, so building the event costs one
/// relaxed load when nothing is.
#[inline]
pub(crate) fn emit(f: impl FnOnce() -> HookEvent) {
    let g = obs::gate();
    if g & obs::F_EVENTS != 0 {
        emit_slow(g, f());
    }
}

/// [`emit`] for call sites that already loaded the gate byte `g` (wait
/// registration loads it once for the event *and* the wait timer).
#[inline]
pub(crate) fn emit_gated(g: u8, f: impl FnOnce() -> HookEvent) {
    if g & obs::F_EVENTS != 0 {
        emit_slow(g, f());
    }
}

#[cold]
fn emit_slow(g: u8, ev: HookEvent) {
    // Metrics/trace first: they never block, while a hook may park the
    // thread for an arbitrary slice of the schedule exploration.
    obs::record_event(g, &ev);
    if g & obs::F_HOOK != 0 {
        if let Some(h) = current() {
            h.event(&ev);
        }
    }
}

/// Emit an event carrying the calling thread's innermost team identity,
/// if anything is listening *and* the caller is inside a team.
#[inline]
pub(crate) fn emit_team(f: impl FnOnce(TeamId, usize) -> HookEvent) {
    let g = obs::gate();
    if g & obs::F_EVENTS != 0 {
        crate::ctx::with_current(|c| {
            if let Some(c) = c {
                emit_slow(g, f(c.shared.token(), c.tid));
            }
        });
    }
}

/// Offer the park of a blocked member to the hook. Returns `true` when
/// the hook took over (caller re-checks its condition immediately).
#[inline]
pub(crate) fn yield_blocked(team: TeamId, tid: usize, site: WaitSite) -> bool {
    if !active() {
        return false;
    }
    match current() {
        Some(h) => h.blocked(team, tid, site),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct CountingHook {
        events: AtomicUsize,
    }

    impl SchedHook for CountingHook {
        fn event(&self, _ev: &HookEvent) {
            self.events.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn inactive_hook_emits_nothing() {
        // With no consumer on (hook, metrics or trace — other tests in
        // this binary may flip those concurrently, hence the guard),
        // emit must not even build the event.
        let built = AtomicUsize::new(0);
        if !instrumented() {
            emit(|| {
                built.fetch_add(1, Ordering::SeqCst);
                HookEvent::RegionEnd { team: 0 }
            });
            assert_eq!(built.load(Ordering::SeqCst), 0);
        }
    }

    #[test]
    fn event_accessors_cover_all_variants() {
        let ev = HookEvent::BarrierExit {
            team: 7,
            tid: 2,
            leader: true,
        };
        assert_eq!(ev.team(), 7);
        assert_eq!(ev.tid(), Some(2));
        let ev = HookEvent::RegionStart {
            team: 9,
            size: 4,
            level: 1,
        };
        assert_eq!(ev.team(), 9);
        assert_eq!(ev.tid(), None);
    }

    #[test]
    fn blocked_default_is_fallthrough() {
        static H: CountingHook = CountingHook {
            events: AtomicUsize::new(0),
        };
        assert!(!H.blocked(1, 0, WaitSite::Barrier));
    }
}
