//! Request workloads: small parallel task graphs over aomp constructs.
//!
//! Each [`Workload`] is a self-validating parallel computation — it has a
//! closed-form (or precomputable) expected result, so the serving layer
//! can verify every completed response and the robustness suite can
//! prove that shedding, deadlines and injected faults never corrupt an
//! accepted request's answer.

use crate::faults::Fault;
use aomp::prelude::*;
use aomp_irregular::graph::CsrGraph;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A request's computation, executed as a parallel region (plus spawned
/// futures for [`Workload::Fanout`]) on the owning tenant's runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Workload {
    /// Sum a scrambling hash of `0..n` under a static-block for
    /// construct.
    SumRange {
        /// Number of loop iterations.
        n: u64,
    },
    /// Sum all vertex degrees of the server's shared graph `rounds`
    /// times under a dynamic schedule (irregular, chunk-handout path).
    DegreeSum {
        /// Number of passes over the vertex set.
        rounds: u32,
    },
    /// Split `0..n` into `parts` slices, hash-sum each in a spawned
    /// future on the tenant's task executor, and join them with a
    /// deadline-bounded wait.
    Fanout {
        /// Number of spawned futures.
        parts: u32,
        /// Total iterations across all parts.
        n: u64,
    },
}

/// A completed workload's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Output {
    /// Scalar checksum.
    U64(u64),
}

/// Cheap avalanche hash so loop iterations are not compiler-foldable.
#[inline]
fn scramble(i: u64) -> u64 {
    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 33;
    x
}

/// Wrapping sum of `scramble(i)` over `lo..hi`: the one kernel the
/// sequential reference, `SumRange` chunks and `Fanout` parts all run,
/// so a served request's hot loop compiles like its `seq`/`mt` twins.
#[inline(never)]
fn sum_range(lo: u64, hi: u64) -> u64 {
    (lo..hi).fold(0u64, |acc, i| acc.wrapping_add(scramble(i)))
}

/// Wrapping sum of the degrees of vertices `lo..hi`: the `DegreeSum`
/// counterpart of [`sum_range`].
#[inline(never)]
fn degree_sum(graph: &CsrGraph, lo: usize, hi: usize) -> u64 {
    (lo..hi).fold(0u64, |acc, v| acc.wrapping_add(graph.degree(v) as u64))
}

impl Workload {
    /// The result this workload must produce (given the server's shared
    /// `graph`). Sequential reference used to validate parallel answers.
    pub fn expected(&self, graph: &CsrGraph) -> Output {
        match *self {
            Workload::SumRange { n } | Workload::Fanout { n, .. } => Output::U64(sum_range(0, n)),
            Workload::DegreeSum { rounds } => {
                let per_round = degree_sum(graph, 0, graph.vertices());
                Output::U64(per_round.wrapping_mul(rounds as u64))
            }
        }
    }
}

/// Outcome of [`execute`], before serve-layer accounting.
pub(crate) enum ExecError {
    /// The region tripped its stall watchdog or a fanout join timed out.
    TimedOut,
    /// The region was cooperatively cancelled.
    Cancelled,
    /// A worker panicked.
    Panicked(String),
}

/// Run `work` on `rt` inside a cancellable region with a stall deadline
/// of `remaining`, optionally applying an injected `fault`.
///
/// Fault placement is deliberate: panics and cancels fire on the master
/// (tid 0) so the error path through team poisoning is exercised; stalls
/// wedge the *last* member, which is the master on a team of one, in a
/// registered wait the stall watchdog can see (see [`apply_fault`]).
///
/// The answer does not depend on `threads`: every team size sums the
/// same terms, and the sums wrap.
pub(crate) fn execute(
    rt: &Runtime,
    threads: usize,
    graph: &Arc<CsrGraph>,
    work: Workload,
    remaining: Duration,
    fault: Option<Fault>,
) -> Result<Output, ExecError> {
    let acc = AtomicU64::new(0);
    let timed_out = AtomicBool::new(false);
    // Constructs must be created once and shared by the whole team —
    // their identity keys the team-shared handout state, so a per-member
    // construct would give every thread the full range.
    let for_static = ForConstruct::new(Schedule::StaticBlock);
    let for_dynamic = ForConstruct::new(Schedule::Dynamic { chunk: 256 });
    let cfg = RegionConfig::new()
        .threads(threads)
        .runtime(rt)
        .cancellable(true)
        .stall_deadline(remaining.max(Duration::from_millis(5)));
    let deadline = crate::deadline_after(Instant::now(), remaining);
    let result = region::try_parallel_with(cfg, || {
        if apply_fault(fault, remaining) {
            return;
        }
        match work {
            Workload::SumRange { n } => {
                let mut local = 0u64;
                // `upto` ranges hand out unit-step chunks.
                for_static.execute(LoopRange::upto(0, n as i64), |lo, hi, step| {
                    assert_eq!(step, 1);
                    local = local.wrapping_add(sum_range(lo as u64, hi as u64));
                });
                acc.fetch_add(local, Ordering::Relaxed);
            }
            Workload::DegreeSum { rounds } => {
                let mut local = 0u64;
                for _ in 0..rounds {
                    for_dynamic.execute(
                        LoopRange::upto(0, graph.vertices() as i64),
                        |lo, hi, step| {
                            assert_eq!(step, 1);
                            let part = degree_sum(graph, lo as usize, hi as usize);
                            local = local.wrapping_add(part);
                        },
                    );
                }
                acc.fetch_add(local, Ordering::Relaxed);
            }
            Workload::Fanout { parts, n } => {
                // Each member fans out its share of the slices as
                // futures on the tenant's executor, then joins them
                // against the request deadline.
                let parts = parts.max(1) as u64;
                let tid = thread_id() as u64;
                let team = team_size() as u64;
                let mut futs = Vec::new();
                let mut p = tid;
                while p < parts {
                    let lo = n * p / parts;
                    let hi = n * (p + 1) / parts;
                    futs.push(task::spawn_future(move || sum_range(lo, hi)));
                    p += team;
                }
                let mut local = 0u64;
                for fut in futs {
                    match fut.get_by(deadline) {
                        Ok(part) => local = local.wrapping_add(part),
                        Err(_) => {
                            timed_out.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                }
                acc.fetch_add(local, Ordering::Relaxed);
            }
        }
    });
    match result {
        Ok(()) if timed_out.load(Ordering::Relaxed) => Err(ExecError::TimedOut),
        Ok(()) => Ok(Output::U64(acc.load(Ordering::Relaxed))),
        Err(RegionError::Stalled { .. }) => Err(ExecError::TimedOut),
        Err(RegionError::Cancelled) => Err(ExecError::Cancelled),
        Err(err) => Err(ExecError::Panicked(err.to_string())),
    }
}

/// Apply an injected fault from inside the region body. Returns true if
/// the calling member must skip its workload share.
fn apply_fault(fault: Option<Fault>, remaining: Duration) -> bool {
    match fault {
        None => false,
        Some(Fault::Panic) if thread_id() == 0 => panic!("injected fault: panic"),
        Some(Fault::Panic) => false,
        Some(Fault::Cancel) => {
            if thread_id() == 0 {
                cancel_team();
            }
            // Everyone observes the flag and unwinds cooperatively.
            let _ = cancellation_point();
            true
        }
        // Wedge the last member on a future nobody fulfils: a registered
        // wait at `WaitSite::FutureGet`, so the stall watchdog diagnoses
        // the hang whatever the team size, even when the wedged member is
        // the master of a team of one. The watchdog's verdict or a
        // cancellation unwinds the wait; past the deadline's slack it
        // times out on its own, so the region always ends.
        Some(Fault::Stall) if thread_id() == team_size() - 1 => {
            let slack = remaining.saturating_add(Duration::from_millis(100));
            let give_up = crate::deadline_after(Instant::now(), slack);
            let (_never_set, wedge) = task::future_pair::<()>();
            let _ = wedge.get_by(give_up);
            true
        }
        Some(Fault::Stall) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aomp_irregular::graph::GraphKind;

    fn test_graph() -> Arc<CsrGraph> {
        Arc::new(CsrGraph::generate(GraphKind::Uniform, 512, 8, 1))
    }

    fn rt() -> Runtime {
        Runtime::builder().threads(2).build()
    }

    /// Team sizes a request can run on: one member, or the full team.
    const TEAMS: [usize; 2] = [1, 2];

    fn matches_expected_at_every_team_size(w: Workload) {
        let g = test_graph();
        let rt = rt();
        for team in TEAMS {
            let out = execute(&rt, team, &g, w, Duration::from_secs(5), None)
                .unwrap_or_else(|_| panic!("clean workload failed on a team of {team}"));
            assert_eq!(out, w.expected(&g), "team of {team}");
        }
    }

    #[test]
    fn sum_range_matches_expected() {
        matches_expected_at_every_team_size(Workload::SumRange { n: 10_000 });
    }

    #[test]
    fn degree_sum_matches_expected() {
        matches_expected_at_every_team_size(Workload::DegreeSum { rounds: 3 });
    }

    #[test]
    fn fanout_matches_expected() {
        matches_expected_at_every_team_size(Workload::Fanout {
            parts: 4,
            n: 10_000,
        });
    }

    #[test]
    fn injected_panic_surfaces() {
        let g = test_graph();
        let rt = rt();
        let w = Workload::SumRange { n: 100 };
        match execute(&rt, 2, &g, w, Duration::from_secs(5), Some(Fault::Panic)) {
            Err(ExecError::Panicked(msg)) => assert!(msg.contains("injected"), "msg: {msg}"),
            _ => panic!("expected a panic outcome"),
        }
    }

    #[test]
    fn injected_cancel_surfaces() {
        let g = test_graph();
        let rt = rt();
        let w = Workload::SumRange { n: 100 };
        match execute(&rt, 2, &g, w, Duration::from_secs(5), Some(Fault::Cancel)) {
            Err(ExecError::Cancelled) => {}
            _ => panic!("expected a cancelled outcome"),
        }
    }

    #[test]
    fn injected_stall_times_out() {
        let g = test_graph();
        let rt = rt();
        let w = Workload::SumRange { n: 100 };
        let remaining = Duration::from_millis(50);
        for team in TEAMS {
            let outcome = execute(&rt, team, &g, w, remaining, Some(Fault::Stall));
            match outcome {
                Err(ExecError::TimedOut) => {}
                Err(ExecError::Cancelled) => {} // watchdog may cancel first
                other => panic!(
                    "expected a timeout outcome on a team of {team}, got {}",
                    match other {
                        Ok(_) => "Ok",
                        Err(ExecError::Panicked(_)) => "Panicked",
                        _ => unreachable!(),
                    }
                ),
            }
        }
    }
}
