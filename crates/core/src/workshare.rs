//! The `@For` work-sharing construct and `@Ordered` sections.
//!
//! A *for method* exposes its loop bounds as the first three integer
//! parameters `(start, end, step)` (paper §III-A). A [`ForConstruct`]
//! intercepts the call on every team thread and rewrites the range
//! according to its [`Schedule`]:
//!
//! * static block — paper Figure 10: call once with this thread's block;
//! * static cyclic — call once with `(start + tid*step, end, step*n)`;
//! * dynamic / guided — paper Figure 11: repeatedly pull chunks from a
//!   shared dispenser and call the body per chunk, then meet at a team
//!   barrier (Figure 11's trailing `// call barrier`).
//!
//! Outside a parallel region the body runs once with the original range —
//! sequential semantics. So does a team of one, whose ordered turns live
//! on its own stack: no other member needs to see them.
//!
//! An encounter by a larger team shares one team slot, keyed by the
//! construct and the member's encounter round: it holds the ordered turn
//! and the schedule's dispenser, and each member detaches it once, after
//! the trailing barrier. Keyed by team rather than stored on a
//! [`Runtime`](crate::Runtime), a `ForConstruct` works unchanged inside
//! regions of any runtime instance, including two instances work-sharing
//! through distinct constructs concurrently.
//!
//! Each schedule only produces chunks `[lo, hi)` of logical iterations;
//! one handout step per member runs every chunk. The step is a
//! *cancellation point* — after a [`cancel_team`](crate::ctx::cancel_team)
//! (or a watchdog force-cancel) the thread skips to the end of the region
//! — and counts as progress for the stall watchdog, so a long chunked loop
//! is never mistaken for a stall; then it reports a `ChunkHandout` hook
//! event and calls the body. Static cyclic's assignment is not contiguous,
//! so it reports its own per-iteration handouts instead.

use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::ctx::{self, fresh_key};
use crate::error::WaitSite;
use crate::hook::{self, HookEvent};
use crate::obs;
use crate::range::LoopRange;
use crate::schedule::{self, Schedule};
use crate::wait::{self, Site};

/// The team slot of one encounter: ordered turns for every schedule, and
/// the dispenser of the chunked ones (each schedule touches only its own).
#[derive(Default)]
struct ForState {
    ordered: OrderedState,
    /// Dynamic and guided: the first logical iteration not yet handed out
    /// (the paper Figure 11 `getTask()` counter). Relaxed: it publishes
    /// no data, and the trailing barrier orders the bodies.
    next: AtomicU64,
    /// Adaptive: built on first touch by whichever member arrives first
    /// (every member computes the same seed). Boxed, so that the slot
    /// every other encounter allocates stays small.
    adaptive: OnceLock<Box<AdaptiveShared>>,
}

impl ForState {
    /// Take the next guided chunk of `count` iterations as logical
    /// iterations `[lo, hi)`.
    fn take_guided(&self, count: u64, n: usize, min_chunk: u64) -> Option<(u64, u64)> {
        let hi = |lo: u64| lo + schedule::guided_chunk(count - lo, n, min_chunk);
        let lo = self
            .next
            .fetch_update(AtomicOrdering::Relaxed, AtomicOrdering::Relaxed, |lo| {
                (lo < count).then(|| hi(lo))
            })
            .ok()?;
        Some((lo, hi(lo)))
    }
}

/// The adaptive dispenser: per-thread remaining ranges seeded exactly
/// like static block, plus the latency signal that drives refinement.
///
/// Ownership protocol: slot `i` is *installed into* only by thread `i`
/// (its static seed, then ranges it steals); thieves only ever shrink a
/// slot. A non-empty slot therefore always has its owner draining it,
/// which is what makes exiting after one fruitless victim scan
/// work-conserving — no spinning on a global remaining count.
struct AdaptiveShared {
    /// Remaining logical iterations `[lo, hi)` per home slot.
    ranges: Vec<Mutex<(u64, u64)>>,
    /// Per-thread EWMA of observed ns per iteration (f64 bits; 0 means
    /// no sample yet). Heuristic only: relaxed loads/stores, lost
    /// updates are acceptable.
    ewma: Vec<AtomicU64>,
    /// Team-wide EWMA of ns per iteration (f64 bits), the baseline a
    /// thread compares itself against to decide it is hot.
    team: AtomicU64,
}

/// Hotness threshold for [`Schedule::Adaptive`]: a thread whose
/// per-iteration EWMA exceeds `HOT_FACTOR × team EWMA` refines its
/// remaining range into smaller chunks. Above 1, or half the team would
/// run hot on pure noise.
const HOT_FACTOR: f64 = 1.5;

impl AdaptiveShared {
    fn seed(count: u64, n: usize) -> Self {
        AdaptiveShared {
            ranges: (0..n)
                .map(|i| Mutex::new(schedule::static_block_iters(count, i, n)))
                .collect(),
            ewma: (0..n).map(|_| AtomicU64::new(0)).collect(),
            team: AtomicU64::new(0),
        }
    }

    /// Fold one observed chunk latency into the thread's and the team's
    /// per-iteration EWMAs. The per-thread constant is aggressive (the
    /// signal is the whole point); the team baseline moves slowly so one
    /// expensive chunk does not mark everyone cold.
    fn note(&self, tid: usize, ns_per_iter: f64) {
        let own = f64::from_bits(self.ewma[tid].load(AtomicOrdering::Relaxed));
        let next = if own == 0.0 {
            ns_per_iter
        } else {
            own + 0.4 * (ns_per_iter - own)
        };
        self.ewma[tid].store(next.to_bits(), AtomicOrdering::Relaxed);
        let team = f64::from_bits(self.team.load(AtomicOrdering::Relaxed));
        let next_team = if team == 0.0 {
            ns_per_iter
        } else {
            team + 0.1 * (ns_per_iter - team)
        };
        self.team
            .store(next_team.to_bits(), AtomicOrdering::Relaxed);
    }

    /// Whether `tid`'s iterations are observably more expensive than the
    /// team baseline (so its remaining range should refine into smaller
    /// chunks, leaving more behind for thieves).
    fn is_hot(&self, tid: usize) -> bool {
        let own = f64::from_bits(self.ewma[tid].load(AtomicOrdering::Relaxed));
        let team = f64::from_bits(self.team.load(AtomicOrdering::Relaxed));
        team > 0.0 && own > HOT_FACTOR * team
    }

    /// Dispense the next chunk from the front of `slot`'s range: half of
    /// what remains while cold (so a uniform loop costs only
    /// ~log2(block/min_chunk) handouts — near static block), an eighth
    /// while hot (fine grain where the latency signal says it matters).
    fn take(&self, slot: usize, hot: bool, min_chunk: u64) -> Option<(u64, u64)> {
        let mut g = self.ranges[slot].lock();
        let (lo, hi) = *g;
        if lo >= hi {
            return None;
        }
        let rem = hi - lo;
        // max-then-min, not `clamp`: the tail can leave `rem < min_chunk`.
        let c = (rem / if hot { 8 } else { 2 }).max(min_chunk).min(rem);
        g.0 = lo + c;
        Some((lo, lo + c))
    }

    /// Cut the upper half `[mid, hi)` off `victim`'s remaining range
    /// (the victim keeps `[lo, mid)` — its front, which it is already
    /// walking). Ranges too small to split are left to their owner.
    fn steal_half(&self, victim: usize, min_chunk: u64) -> Option<(u64, u64)> {
        let mut g = self.ranges[victim].lock();
        let (lo, hi) = *g;
        if hi.saturating_sub(lo) < 2 * min_chunk {
            return None;
        }
        let mid = lo + (hi - lo) / 2;
        g.1 = mid;
        Some((mid, hi))
    }

    /// Install a stolen range as `slot`'s own. Only `slot`'s owner calls
    /// this, and only after draining its previous range.
    fn install(&self, slot: usize, range: (u64, u64)) {
        let mut g = self.ranges[slot].lock();
        debug_assert!(g.0 >= g.1, "installing over a non-empty own range");
        *g = range;
    }
}

/// Shared sequencing state for ordered sections.
#[derive(Debug, Default)]
struct OrderedState {
    /// The ticket whose turn it is; stored under `lock`, polled without.
    next: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
    site: Site,
}

impl OrderedState {
    /// Run `f` as section `ticket`: wait (registered, a cancellation
    /// point inside a team) until every lower ticket completed, run,
    /// pass the turn on.
    fn run<R>(&self, ticket: u64, f: impl FnOnce() -> R) -> R {
        let my_turn = || self.next.load(AtomicOrdering::Acquire) == ticket;
        wait::member_wait(
            WaitSite::Ordered,
            Some(&self.site),
            (&self.lock, &self.cv),
            my_turn,
            |_| my_turn().then_some(()),
            false,
        );
        hook::emit_team(|team, tid| HookEvent::OrderedEnter { team, tid, ticket });
        let r = f();
        {
            let _g = self.lock.lock();
            debug_assert_eq!(self.next.load(AtomicOrdering::Relaxed), ticket);
            self.next.store(ticket + 1, AtomicOrdering::Release);
        }
        self.cv.notify_all();
        hook::emit_team(|team, tid| HookEvent::OrderedExit { team, tid, ticket });
        r
    }
}

/// A `@For` work-sharing construct bound to one for method.
///
/// Create one handle per annotated for method (the attribute macro and the
/// library aspects do this for you) and call [`execute`](Self::execute) in
/// place of the original loop body invocation.
#[derive(Debug)]
pub struct ForConstruct {
    key: u64,
    schedule: Schedule,
    nowait: bool,
}

impl ForConstruct {
    /// A for construct with the given schedule. Dynamic and guided
    /// schedules end with a team barrier (paper Figure 11) unless
    /// [`nowait`](Self::nowait) is set; static schedules do not barrier —
    /// the paper's LUFact adds explicit `@BarrierAfter` where needed.
    pub fn new(schedule: Schedule) -> Self {
        Self {
            key: fresh_key(),
            schedule,
            nowait: false,
        }
    }

    /// Suppress the trailing team barrier of dynamic/guided schedules.
    pub fn nowait(mut self) -> Self {
        self.nowait = true;
        self
    }

    /// The schedule this construct applies.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// Run the for method body over `range`, split across the team.
    ///
    /// `body(lo, hi, step)` must iterate exactly
    /// `for (i = lo; step > 0 ? i < hi : i > hi; i += step)` — i.e. treat
    /// its three arguments exactly as the original sequential loop did.
    /// The body may be invoked multiple times (chunked schedules).
    pub fn execute<F>(&self, range: LoopRange, mut body: F)
    where
        F: FnMut(i64, i64, i64),
    {
        self.execute_scoped(range, |r, _scope| body(r.start, r.end, r.step));
    }

    /// Like [`execute`](Self::execute) but the body also receives a
    /// [`ForScope`] giving access to ordered sections and the logical
    /// iteration numbering. Used by `@Ordered` (only supported within the
    /// calling context of a for method, per paper §III-C).
    pub fn execute_scoped<F>(&self, range: LoopRange, mut body: F)
    where
        F: FnMut(LoopRange, &ForScope<'_>),
    {
        ctx::with_current(|c| {
            let Some(c) = c.filter(|c| c.shared.n > 1) else {
                // Sequential, or a team of one: the whole range at once,
                // with the team's ordered turns on this stack.
                let ordered = c.map(|_| OrderedState::default());
                let scope = ForScope {
                    full: range,
                    ordered: ordered.as_ref(),
                };
                body(range, &scope);
                return;
            };
            let (n, tid) = (c.shared.n, c.tid);
            let count = range.count();
            let round = c.next_round(self.key);
            let st = c.shared.slot::<ForState>(self.key, round);
            let scope = ForScope {
                full: range,
                ordered: Some(&st.ordered),
            };
            let kind = self.schedule.handout_kind();
            // The handout step: every contiguous chunk runs through it.
            let mut step = |lo: u64, hi: u64| {
                c.shared.check_interrupt();
                c.shared.bump_progress();
                hook::emit(|| HookEvent::ChunkHandout {
                    team: c.shared.token(),
                    tid,
                    kind,
                    lo,
                    hi,
                });
                body(range.slice_iters(lo, hi), &scope);
            };
            match self.schedule {
                Schedule::StaticBlock => {
                    let (lo, hi) = schedule::static_block_iters(count, tid, n);
                    if lo < hi {
                        step(lo, hi);
                    }
                }
                Schedule::StaticCyclic => {
                    c.shared.check_interrupt();
                    let first = tid as u64;
                    if first < count {
                        // The assignment {tid, tid+n, ...} is not
                        // contiguous, so no single [lo, hi) describes it:
                        // with a hook registered, report one
                        // single-iteration handout per assigned iteration
                        // (cyclic == block-cyclic with chunk 1). Metrics
                        // and trace take one O(1) probe per assignment
                        // instead — an O(count) event loop must not run
                        // just because AOMP_METRICS is set.
                        if hook::active() {
                            for k in (first..count).step_by(n) {
                                hook::emit(|| HookEvent::ChunkHandout {
                                    team: c.shared.token(),
                                    tid,
                                    kind,
                                    lo: k,
                                    hi: k + 1,
                                });
                            }
                        }
                        obs::chunk_cyclic(first, (count - first).div_ceil(n as u64));
                        body(schedule::static_cyclic_range(range, tid, n), &scope);
                    }
                }
                Schedule::Dynamic { chunk } => {
                    let chunk = chunk.max(1);
                    // Chunk coalescing: grab a *batch* of consecutive
                    // chunks per shared-counter fetch so fine-grained
                    // loops (small `chunk`, large `count`) don't hammer
                    // one cache line once per chunk. Sized so every
                    // thread still makes ~8 trips to the dispenser —
                    // enough batches left for load balancing, the
                    // property dynamic scheduling is for. Each chunk
                    // inside a batch remains its own handout step, so
                    // cancellation latency and checker-visible
                    // granularity are unchanged.
                    let coalesce = (count.div_ceil(chunk) / (8 * n as u64)).clamp(1, 16);
                    let batch = chunk * coalesce;
                    loop {
                        let lo = st.next.fetch_add(batch, AtomicOrdering::Relaxed);
                        if lo >= count {
                            break;
                        }
                        let batch_hi = (lo + batch).min(count);
                        for cl in (lo..batch_hi).step_by(chunk as usize) {
                            step(cl, (cl + chunk).min(batch_hi));
                        }
                    }
                }
                Schedule::BlockCyclic { chunk } => {
                    for (lo, hi) in schedule::block_cyclic_iters(count, chunk.max(1), tid, n) {
                        step(lo, hi);
                    }
                }
                Schedule::Guided { min_chunk } => {
                    while let Some((lo, hi)) = st.take_guided(count, n, min_chunk.max(1)) {
                        step(lo, hi);
                    }
                }
                Schedule::Adaptive { min_chunk } => {
                    let min_chunk = min_chunk.max(1);
                    let sh = st
                        .adaptive
                        .get_or_init(|| Box::new(AdaptiveShared::seed(count, n)));
                    // Under the checker, skip wall-clock sampling
                    // entirely: every thread stays cold, so the handout
                    // stream is a pure function of the explored
                    // interleaving and traces replay byte-for-byte.
                    // Stealing still happens (ranges drain in
                    // schedule-dependent order), so the oracle exercises
                    // the interesting paths.
                    let measure = !hook::active();
                    loop {
                        // Drain the own range, refining chunk size from
                        // the latency signal.
                        while let Some((lo, hi)) =
                            sh.take(tid, measure && sh.is_hot(tid), min_chunk)
                        {
                            let t0 = measure.then(Instant::now);
                            step(lo, hi);
                            if let Some(t0) = t0 {
                                let dur = t0.elapsed();
                                sh.note(tid, dur.as_nanos() as f64 / (hi - lo) as f64);
                                obs::record_lat(obs::Lat::ChunkBody, dur);
                            }
                        }
                        // Own range dry: adopt the back half of the first
                        // victim, in ring order after `tid`, with enough
                        // left to split. A full scan that finds nothing
                        // splittable ends the loop: what little remains is
                        // drained by its owners.
                        let Some(r) = (1..n).find_map(|k| sh.steal_half((tid + k) % n, min_chunk))
                        else {
                            break;
                        };
                        obs::count(obs::Counter::ChunkAdaptiveSteals);
                        sh.install(tid, r);
                    }
                }
            }
            let chunked = matches!(
                self.schedule,
                Schedule::Dynamic { .. } | Schedule::Guided { .. } | Schedule::Adaptive { .. }
            );
            if chunked && !self.nowait {
                c.shared.team_barrier(tid);
            }
            c.shared.detach_slot(self.key, round);
        });
    }
}

impl Default for ForConstruct {
    fn default() -> Self {
        Self::new(Schedule::StaticBlock)
    }
}

/// Per-encounter handle passed to [`ForConstruct::execute_scoped`]
/// bodies: ordered sections and iteration bookkeeping.
pub struct ForScope<'a> {
    full: LoopRange,
    /// The encounter's sequencing state; `None` outside a team.
    ordered: Option<&'a OrderedState>,
}

impl ForScope<'_> {
    /// The complete (unsplit) iteration range of this for encounter.
    pub fn full_range(&self) -> LoopRange {
        self.full
    }

    /// Logical iteration number (0-based, in sequential order) of loop
    /// element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not an element of the loop (not reachable from
    /// `start` by whole steps). This check is unconditional: in a release
    /// build a silently wrong ordered ticket would deadlock the team,
    /// while the panic is team-safe (poisoning cancels the region).
    pub fn iteration_of(&self, i: i64) -> u64 {
        let off = i - self.full.start;
        assert!(
            off % self.full.step == 0 && off / self.full.step >= 0,
            "element {i} is not on the loop grid start={} step={} \
             (ordered()/iteration_of need an actual loop element)",
            self.full.start,
            self.full.step,
        );
        (off / self.full.step) as u64
    }

    /// Execute `f` as an `@Ordered` section for loop element `i`:
    /// sections run in sequential iteration order across the whole team.
    /// Every iteration of the loop must execute exactly one ordered
    /// section (OpenMP's rule, which the paper inherits).
    pub fn ordered<R>(&self, i: i64, f: impl FnOnce() -> R) -> R {
        let ticket = self.iteration_of(i);
        match self.ordered {
            None => f(),
            Some(ordered) => ordered.run(ticket, f),
        }
    }
}

/// A standalone ordered sequencer: closures run in ascending ticket order
/// `0, 1, 2, …` regardless of which thread submits them. The `@Ordered`
/// support for code outside for methods.
#[derive(Debug, Default)]
pub struct Ordered {
    state: OrderedState,
}

impl Ordered {
    /// New sequencer expecting tickets from 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Block until all tickets below `ticket` have completed, run `f`,
    /// then release `ticket + 1`. A cancellation point when called inside
    /// a team.
    pub fn run<R>(&self, ticket: u64, f: impl FnOnce() -> R) -> R {
        self.state.run(ticket, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{parallel_with, RegionConfig};
    use parking_lot::Mutex as PlMutex;
    use std::sync::atomic::{AtomicI64, Ordering};
    use std::time::Duration;

    fn run_for(schedule: Schedule, threads: usize, range: LoopRange) -> Vec<i64> {
        let seen = PlMutex::new(Vec::new());
        let for_c = ForConstruct::new(schedule);
        parallel_with(RegionConfig::new().threads(threads), || {
            for_c.execute(range, |lo, hi, step| {
                let mut local = Vec::new();
                for i in LoopRange::new(lo, hi, step).iter() {
                    local.push(i);
                }
                seen.lock().extend(local);
            });
        });
        let mut v = seen.into_inner();
        v.sort_unstable();
        v
    }

    fn expect(range: LoopRange) -> Vec<i64> {
        let mut v: Vec<i64> = range.iter().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn static_block_covers_range() {
        let r = LoopRange::new(0, 101, 1);
        assert_eq!(run_for(Schedule::StaticBlock, 4, r), expect(r));
    }

    #[test]
    fn static_cyclic_covers_range() {
        let r = LoopRange::new(3, 50, 2);
        assert_eq!(run_for(Schedule::StaticCyclic, 3, r), expect(r));
    }

    #[test]
    fn dynamic_covers_range() {
        let r = LoopRange::new(0, 57, 1);
        assert_eq!(run_for(Schedule::Dynamic { chunk: 4 }, 4, r), expect(r));
    }

    #[test]
    fn guided_covers_range() {
        let r = LoopRange::new(0, 230, 1);
        assert_eq!(run_for(Schedule::GUIDED, 4, r), expect(r));
    }

    #[test]
    fn empty_range_runs_nothing() {
        for s in [
            Schedule::StaticBlock,
            Schedule::StaticCyclic,
            Schedule::DYNAMIC,
            Schedule::ADAPTIVE,
        ] {
            assert!(run_for(s, 3, LoopRange::new(5, 5, 1)).is_empty());
        }
    }

    #[test]
    fn adaptive_covers_range() {
        let r = LoopRange::new(0, 173, 1);
        assert_eq!(
            run_for(Schedule::Adaptive { min_chunk: 4 }, 4, r),
            expect(r)
        );
    }

    #[test]
    fn adaptive_covers_negative_step_and_repeats() {
        let r = LoopRange::new(40, -1, -3);
        assert_eq!(run_for(Schedule::ADAPTIVE, 3, r), expect(r));
        // Fresh dispenser per encounter, like the other chunked arms.
        let for_c = ForConstruct::new(Schedule::Adaptive { min_chunk: 2 });
        let sum = AtomicI64::new(0);
        parallel_with(RegionConfig::new().threads(3), || {
            for _pass in 0..5 {
                for_c.execute(LoopRange::upto(0, 20), |lo, hi, step| {
                    let mut s = 0;
                    for i in LoopRange::new(lo, hi, step).iter() {
                        s += i;
                    }
                    sum.fetch_add(s, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(sum.load(Ordering::SeqCst), 5 * (0..20).sum::<i64>());
    }

    #[test]
    fn adaptive_skewed_work_still_partitions_exactly_once() {
        // Heavy tail on low iterations forces hot-thread refinement and
        // steals on a real clock; the covers-exactly-once contract must
        // hold regardless of what the adapter decides.
        let r = LoopRange::upto(0, 400);
        let seen = PlMutex::new(Vec::new());
        let for_c = ForConstruct::new(Schedule::Adaptive { min_chunk: 1 });
        parallel_with(RegionConfig::new().threads(4), || {
            for_c.execute(r, |lo, hi, step| {
                let mut local = Vec::new();
                for i in LoopRange::new(lo, hi, step).iter() {
                    if i < 40 {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                    local.push(i);
                }
                seen.lock().extend(local);
            });
        });
        let mut v = seen.into_inner();
        v.sort_unstable();
        assert_eq!(v, expect(r));
    }

    #[test]
    fn negative_step_covers_range() {
        let r = LoopRange::new(40, -1, -3);
        assert_eq!(run_for(Schedule::StaticBlock, 3, r), expect(r));
        assert_eq!(run_for(Schedule::StaticCyclic, 3, r), expect(r));
        assert_eq!(run_for(Schedule::Dynamic { chunk: 2 }, 3, r), expect(r));
    }

    #[test]
    fn sequential_fallback_runs_once_with_full_range() {
        let for_c = ForConstruct::new(Schedule::DYNAMIC);
        let calls = AtomicI64::new(0);
        for_c.execute(LoopRange::upto(0, 10), |lo, hi, step| {
            calls.fetch_add(1, Ordering::SeqCst);
            assert_eq!((lo, hi, step), (0, 10, 1));
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn repeated_encounters_get_fresh_dispensers() {
        // A for method called in a loop inside one region (the LUFact
        // pattern: dgefa calls reduceAllCols once per column).
        let for_c = ForConstruct::new(Schedule::Dynamic { chunk: 2 });
        let sum = AtomicI64::new(0);
        parallel_with(RegionConfig::new().threads(3), || {
            for _pass in 0..5 {
                for_c.execute(LoopRange::upto(0, 20), |lo, hi, step| {
                    let mut s = 0;
                    for i in LoopRange::new(lo, hi, step).iter() {
                        s += i;
                    }
                    sum.fetch_add(s, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(sum.load(Ordering::SeqCst), 5 * (0..20).sum::<i64>());
    }

    #[test]
    fn ordered_sections_run_in_iteration_order() {
        let for_c = ForConstruct::new(Schedule::StaticCyclic);
        let log = PlMutex::new(Vec::new());
        parallel_with(RegionConfig::new().threads(4), || {
            for_c.execute_scoped(LoopRange::upto(0, 32), |sub, scope| {
                for i in sub.iter() {
                    scope.ordered(i, || log.lock().push(i));
                }
            });
        });
        assert_eq!(log.into_inner(), (0..32).collect::<Vec<i64>>());
    }

    const EVERY_SCHEDULE: [Schedule; 6] = [
        Schedule::StaticBlock,
        Schedule::StaticCyclic,
        Schedule::Dynamic { chunk: 3 },
        Schedule::GUIDED,
        Schedule::BlockCyclic { chunk: 2 },
        Schedule::Adaptive { min_chunk: 1 },
    ];

    #[test]
    fn ordered_with_every_schedule() {
        // Back-to-back encounters, with and without the trailing barrier:
        // with `nowait` (and under the static schedules) a member may
        // start the next pass's sections while the last pass's are still
        // running, so the order is checked per pass.
        for schedule in EVERY_SCHEDULE {
            for threads in [1, 3] {
                for nowait in [false, true] {
                    let mut for_c = ForConstruct::new(schedule);
                    if nowait {
                        for_c = for_c.nowait();
                    }
                    let log = PlMutex::new(Vec::new());
                    parallel_with(RegionConfig::new().threads(threads), || {
                        for pass in 0..3 {
                            for_c.execute_scoped(LoopRange::upto(0, 20), |sub, scope| {
                                for i in sub.iter() {
                                    scope.ordered(i, || log.lock().push((pass, i)));
                                }
                            });
                        }
                    });
                    let log = log.into_inner();
                    for pass in 0..3 {
                        let order: Vec<i64> =
                            log.iter().filter(|e| e.0 == pass).map(|e| e.1).collect();
                        assert_eq!(
                            order,
                            (0..20).collect::<Vec<i64>>(),
                            "{schedule:?}, {threads} threads, nowait {nowait}, pass {pass}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_schedule_leaves_no_team_slot() {
        for schedule in EVERY_SCHEDULE {
            for threads in [1, 2, 3] {
                let for_c = ForConstruct::new(schedule).nowait();
                let live = PlMutex::new(Vec::new());
                parallel_with(RegionConfig::new().threads(threads), || {
                    for_c.execute_scoped(LoopRange::upto(0, 20), |sub, scope| {
                        for i in sub.iter() {
                            scope.ordered(i, || ());
                        }
                    });
                    // Every member has detached once all have arrived.
                    crate::ctx::barrier();
                    let slots = ctx::with_current(|c| c.map(|c| c.shared.live_slots()));
                    live.lock().push(slots);
                });
                assert_eq!(
                    live.into_inner(),
                    vec![Some(0); threads],
                    "{schedule:?}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn standalone_ordered_sequences_tickets() {
        let ord = Ordered::new();
        let log = PlMutex::new(Vec::new());
        parallel_with(RegionConfig::new().threads(4), || {
            let t = crate::ctx::thread_id() as u64;
            // Submit in reverse thread order to stress the sequencing.
            ord.run(t, || log.lock().push(t));
        });
        assert_eq!(log.into_inner(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn scope_iteration_of_maps_elements() {
        let for_c = ForConstruct::new(Schedule::StaticBlock);
        for_c.execute_scoped(LoopRange::new(10, 30, 5), |_sub, scope| {
            assert_eq!(scope.iteration_of(10), 0);
            assert_eq!(scope.iteration_of(25), 3);
            assert_eq!(scope.full_range(), LoopRange::new(10, 30, 5));
        });
    }
}
