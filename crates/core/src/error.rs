//! Error, cancellation and panic-propagation support for teams.
//!
//! A parallel region joins all spawned threads before returning. Three
//! failure paths are handled:
//!
//! * **Panic-poisoning** — if any team thread panics, the team is
//!   *poisoned* so siblings blocked in team-wide synchronisation
//!   (barriers, single/master broadcasts, ordered sections) unblock
//!   promptly instead of deadlocking, and the panic is re-raised on the
//!   caller of the region (or reported as [`RegionError::Panicked`] by
//!   the fallible API).
//! * **Cancellation** — the OpenMP 4.0 `cancel` model: any member of a
//!   [cancellable](crate::region::RegionConfig::cancellable) team can
//!   request team cancellation ([`cancel_team`](crate::ctx::cancel_team));
//!   siblings observe it at every cancellation point (barrier entry,
//!   chunk handout, critical entry, broadcasts, task joins) and skip to
//!   the end of the region.
//! * **Stall detection** — a watchdog armed by
//!   [`RegionConfig::stall_deadline`](crate::region::RegionConfig::stall_deadline)
//!   cancels a team that stops making progress while members sit blocked
//!   at wait sites, converting a would-be deadlock into
//!   [`RegionError::Stalled`].

use std::fmt;
use std::time::Duration;

/// Raised (via `panic!`) inside team synchronisation primitives when a
/// sibling thread of the same team has panicked.
///
/// This keeps a panicking region from deadlocking: blocked siblings are
/// woken, observe the poison flag and unwind too; the region join then
/// propagates the original panic to the caller of
/// [`region::parallel`](crate::region::parallel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeamPoisoned;

impl fmt::Display for TeamPoisoned {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "aomp team poisoned: a sibling thread panicked inside the parallel region"
        )
    }
}

impl std::error::Error for TeamPoisoned {}

/// The team was cancelled (OpenMP 4.0 `cancel parallel`).
///
/// Returned by [`cancellation_point`](crate::ctx::cancellation_point) so
/// user code can short-circuit with `?`, and used as the (benign) unwind
/// payload when a blocking primitive observes the cancel flag. A
/// `Cancelled` unwind is *not* a failure: the fallible region API maps it
/// to [`RegionError::Cancelled`], and the panicking API swallows it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "aomp team cancelled")
    }
}

impl std::error::Error for Cancelled {}

/// Which blocking construct a thread was parked in when a stall was
/// declared — the per-thread diagnosis inside
/// [`RegionError::Stalled`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum WaitSite {
    /// Team barrier entry (explicit `barrier()` or a schedule's implicit
    /// trailing barrier).
    Barrier,
    /// Entry to a `@Critical` lock.
    Critical,
    /// Waiting for a `@Single` body's broadcast value.
    SingleBroadcast,
    /// Waiting for the `@Master` body's broadcast value.
    MasterBroadcast,
    /// Waiting for an `@Ordered` section's turn.
    Ordered,
    /// `TaskGroup::wait` (`@TaskWait`).
    TaskWait,
    /// Waiting on a replicated structure ([`nr`](crate::nr)): for a
    /// replica's lock or data lock, for a log slot to be stamped, or for
    /// operation-log space while a lagging replica catches up.
    Replicated,
    /// `FutureTask::get` (`@FutureResult` getter).
    FutureGet,
    /// The master joining its workers at the region end — registered so
    /// the stall watchdog can adjudicate a stall in which no member is
    /// parked in a library primitive (e.g. every sibling either exited
    /// or is wedged in user code).
    Join,
}

impl fmt::Display for WaitSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WaitSite::Barrier => "barrier",
            WaitSite::Critical => "critical",
            WaitSite::SingleBroadcast => "single-broadcast",
            WaitSite::MasterBroadcast => "master-broadcast",
            WaitSite::Ordered => "ordered",
            WaitSite::TaskWait => "task-wait",
            WaitSite::Replicated => "replicated",
            WaitSite::FutureGet => "future-get",
            WaitSite::Join => "region-join",
        };
        f.write_str(s)
    }
}

/// How a fallible parallel region ([`region::try_parallel`](crate::region::try_parallel))
/// failed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RegionError {
    /// A team thread panicked; the region was poisoned and joined. The
    /// original payload is summarised as a message (string payloads are
    /// kept verbatim).
    Panicked {
        /// Message extracted from the panic payload.
        payload_msg: String,
    },
    /// The team was cancelled via [`cancel_team`](crate::ctx::cancel_team)
    /// and every member reached a cancellation point or the region end.
    Cancelled,
    /// The stall watchdog declared the region stuck: no team-wide
    /// progress for at least the configured
    /// [`stall_deadline`](crate::region::RegionConfig::stall_deadline)
    /// while members sat blocked at synchronisation wait sites.
    Stalled {
        /// `(thread id, wait site)` for every member that was blocked in
        /// a team synchronisation primitive when the stall was declared.
        /// Members stuck in user code (e.g. an unbounded sleep) cannot be
        /// named — their absence from this list is itself the hint.
        blocked: Vec<(usize, WaitSite)>,
    },
}

impl fmt::Display for RegionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionError::Panicked { payload_msg } => {
                write!(f, "parallel region panicked: {payload_msg}")
            }
            RegionError::Cancelled => write!(f, "parallel region cancelled"),
            RegionError::Stalled { blocked } => {
                write!(f, "parallel region stalled; blocked threads: [")?;
                for (i, (tid, site)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "t{tid}@{site}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl std::error::Error for RegionError {}

/// Extract a human-readable message from a panic payload (`&str` and
/// `String` payloads verbatim, known library payloads by Display).
pub(crate) fn payload_msg(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if payload.downcast_ref::<TeamPoisoned>().is_some() {
        TeamPoisoned.to_string()
    } else if payload.downcast_ref::<Cancelled>().is_some() {
        Cancelled.to_string()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Panic with [`TeamPoisoned`]; used by primitives when they observe the
/// team poison flag.
#[cold]
pub(crate) fn poisoned() -> ! {
    std::panic::panic_any(TeamPoisoned)
}

/// Panic with [`Cancelled`]; used by primitives when they observe the
/// team cancel flag. The region executor treats this unwind as a benign
/// early exit, not a failure.
#[cold]
pub(crate) fn cancelled() -> ! {
    std::panic::panic_any(Cancelled)
}

/// A spawned task's producer panicked — returned by
/// [`FutureTask::try_get`](crate::task::FutureTask::try_get) instead of
/// re-raising the panic on the consumer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanicked {
    /// Message extracted from the producer's panic payload (or a note
    /// that the promise was dropped unfulfilled).
    pub payload_msg: String,
}

impl fmt::Display for TaskPanicked {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "aomp future task failed: {}", self.payload_msg)
    }
}

impl std::error::Error for TaskPanicked {}

/// A timeout expired before the awaited event happened. Returned by the
/// bounded-wait variants ([`FutureTask::get_timeout`](crate::task::FutureTask::get_timeout),
/// [`TaskGroup::wait_timeout`](crate::task::TaskGroup::wait_timeout),
/// [`SenseBarrier::wait_timeout`](crate::barrier::SenseBarrier::wait_timeout)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimedOut {
    /// The timeout that expired.
    pub timeout: Duration,
}

impl fmt::Display for WaitTimedOut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "aomp bounded wait timed out after {:?}", self.timeout)
    }
}

impl std::error::Error for WaitTimedOut {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stalled_display_names_threads_and_sites() {
        let e = RegionError::Stalled {
            blocked: vec![(1, WaitSite::Barrier), (3, WaitSite::Critical)],
        };
        let s = e.to_string();
        assert!(s.contains("t1@barrier"), "{s}");
        assert!(s.contains("t3@critical"), "{s}");
    }

    #[test]
    fn payload_msg_extracts_strings() {
        assert_eq!(payload_msg(&"boom"), "boom");
        assert_eq!(payload_msg(&"boom".to_string()), "boom");
        assert_eq!(payload_msg(&12345u32), "non-string panic payload");
        assert!(payload_msg(&TeamPoisoned).contains("poisoned"));
    }
}
