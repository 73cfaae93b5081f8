//! Task dependencies — OpenMP 4.x `depend(in/out/inout)` clauses and the
//! `taskloop` construct.
//!
//! A [`DepGroup`] owns a per-team dependence graph. Spawns declare
//! [`Dep`] clauses keyed by [`Tag`]s (an address, a static name, or a
//! name + partition index); the group applies the OpenMP serialization
//! rules — an `in` task waits on the tag's last writer and joins its
//! reader set, an `out`/`inout` task waits on the prior readers *and*
//! writer, becomes the last writer and clears the reader set — and
//! releases a task to the ready queue exactly when its last predecessor
//! completes. Tag-derived edges always point from earlier to later
//! spawns, so the graph cannot form a cycle.
//!
//! Execution resolves lazily at the first spawn: inside a parallel
//! region, team members pull ready tasks by calling [`DepGroup::run`]
//! (the *team* mode the checker serializes deterministically); outside a
//! region, ready tasks are pushed to the shared task executor
//! and [`DepGroup::wait`] joins them.
//!
//! Every dependence edge is mirrored to the scheduling hook as a precise
//! release→acquire pair — `TaskDepRelease { node }` when a completion (or
//! the spawn itself) publishes toward a node, `TaskDepReady { node }`
//! when a runner or joiner acquires it — so aomp-check's vector clocks
//! track *per-edge* ordering instead of the conservative whole-group
//! `TaskSpawn`→`TaskJoin` edge. The emission protocol is ordered: a
//! release toward a node is always emitted *before* the node can be
//! popped (or the low-water mark observed), so a serialized explorer can
//! never see the acquire first. Because a hook may block the emitting
//! thread, releases go out with the group lock dropped.
//!
//! The bookkeeping is paid on the spawning and completing threads, so it
//! is kept to one of each thing per task: a spawn hashes each clause's
//! tag once (a non-cryptographic `TagHasher` over one per-tag entry
//! holding both the last writer and the readers since), wires under one
//! lock and queues its own readiness under a second, after the creation
//! release; a completion snapshots its successors, publishes, then marks
//! its node done, drops their `preds` and queues the ready ones in one
//! locked pass; and a change under the lock notifies the condvar only
//! when a member may sleep on it (`sleepers`, counted under the lock in
//! the critical section where the member's condition failed, so no
//! wake-up is lost).
//! [`DepGroup::wait`] returns once every node spawned before it is done
//! (a low-water mark over node indices), whatever runs after.
//!
//! A member with nothing to run — no ready task in [`DepGroup::run`] /
//! [`DepGroup::wait`], unfinished predecessors in
//! [`DepGroup::run_undeferred`] — first tries its condition under the
//! lock, and only when that fails becomes one registered
//! [`WaitSite::TaskWait`] wait (`wait::member_wait`) for as long as it
//! sleeps: a member that finds work never looks blocked, and one that
//! sleeps is not progress, so the stall watchdog diagnoses a team
//! deadlocked on its graph. Neither condition has a lock-free probe (the
//! ready queue and a node's `preds` live under the group mutex), so these
//! waits park without polling.
//!
//! [`TaskloopConstruct`] is the `#[taskloop]` backend: the adaptive
//! `@For` with a trailing barrier, encountered by every member.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::ctx;
use crate::error::WaitSite;
use crate::hook::{self, HookEvent};
use crate::obs;
use crate::range::LoopRange;
use crate::schedule::Schedule;
use crate::wait;
use crate::workshare::ForConstruct;

// ---------------------------------------------------------------------------
// Tags and dependence clauses
// ---------------------------------------------------------------------------

/// A dependence tag: the identity two `depend` clauses must share for the
/// runtime to order them. Mirrors OpenMP's list items, which are compared
/// by *storage location*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tag {
    /// The address of the tagged object (`Tag::of(&x)`).
    Addr(usize),
    /// A symbolic name, for state without a stable address.
    Name(&'static str),
    /// A name qualified by a partition/element index — the array-section
    /// analogue (`depend(out: a[i])`).
    Part(&'static str, u64),
}

impl Tag {
    /// Tag by address: two clauses naming the same object conflict.
    #[inline]
    pub fn of<T: ?Sized>(obj: &T) -> Tag {
        Tag::Addr((obj as *const T).cast::<()>() as usize)
    }

    /// Tag a named partition, e.g. `Tag::part("ranks", p)`.
    #[inline]
    pub fn part(name: &'static str, index: u64) -> Tag {
        Tag::Part(name, index)
    }
}

impl From<&'static str> for Tag {
    #[inline]
    fn from(name: &'static str) -> Tag {
        Tag::Name(name)
    }
}

/// The hasher of a group's tag map: FxHash's rotate-xor-multiply, one
/// step per word. A tag is a few words the program chose, not hostile
/// input, so SipHash's flooding resistance buys nothing — and it cost
/// half of a spawn's wiring.
#[derive(Default)]
struct TagHasher(u64);

impl TagHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for TagHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Access mode of a dependence clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepMode {
    /// Read: ordered after the tag's last writer.
    In,
    /// Write: ordered after the prior readers and writer.
    Out,
    /// Read-write: same ordering as [`DepMode::Out`].
    InOut,
}

/// One `depend` clause: a [`Tag`] plus its access mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dep {
    /// What is depended on.
    pub tag: Tag,
    /// How it is accessed.
    pub mode: DepMode,
}

impl Dep {
    /// `depend(in: tag)`.
    #[inline]
    pub fn input(tag: impl Into<Tag>) -> Dep {
        Dep {
            tag: tag.into(),
            mode: DepMode::In,
        }
    }

    /// `depend(out: tag)`.
    #[inline]
    pub fn output(tag: impl Into<Tag>) -> Dep {
        Dep {
            tag: tag.into(),
            mode: DepMode::Out,
        }
    }

    /// `depend(inout: tag)`.
    #[inline]
    pub fn inout(tag: impl Into<Tag>) -> Dep {
        Dep {
            tag: tag.into(),
            mode: DepMode::InOut,
        }
    }

    /// True for write-mode clauses (`out`/`inout`).
    #[inline]
    pub fn is_write(&self) -> bool {
        !matches!(self.mode, DepMode::In)
    }
}

/// Dependence-graph errors. There are none today: tag-derived edges
/// cannot form a cycle, so [`DepGroup::run`] and [`DepGroup::wait`]
/// always return `Ok`. They keep the `Result` so that a failure mode can
/// be added without breaking callers.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DepError {}

impl std::fmt::Display for DepError {
    fn fmt(&self, _: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {}
    }
}

impl std::error::Error for DepError {}

/// Process-unique dependence-node ids (tasks and group join sinks share
/// the namespace).
fn fresh_node() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// DepGroup
// ---------------------------------------------------------------------------

/// How ready tasks get to a CPU. Decided lazily at the first spawn so a
/// single group type serves both the paper's fork/join regions and
/// free-standing task graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Unset,
    /// Inside a parallel region: members *pull* from the ready queue via
    /// [`DepGroup::run`]. This is the mode the checker can serialize.
    Team,
    /// Outside any region: ready tasks are *pushed* to the shared task
    /// executor.
    Executor,
}

struct NodeState {
    /// Process-unique id (hook-event identity).
    id: usize,
    /// Deferred body; `None` for undeferred (weaver) nodes and after the
    /// body has been claimed by a runner.
    body: Option<Box<dyn FnOnce() + Send>>,
    /// Outstanding predecessors (incl. the spawn latch while spawning).
    preds: usize,
    /// Local indices of wired successors, in wiring order.
    succs: Vec<usize>,
    /// Completion flag, set under the group lock.
    done: bool,
}

/// One tag's OpenMP state: its last writer and the readers since.
#[derive(Default)]
struct TagState {
    writer: Option<usize>,
    readers: Vec<usize>,
}

/// A pred-free node's body, claimed for a runner.
struct Runnable {
    idx: usize,
    id: usize,
    body: Option<Box<dyn FnOnce() + Send>>,
}

struct Inner {
    nodes: Vec<NodeState>,
    /// Per-tag dependence state: one lookup per clause.
    tags: HashMap<Tag, TagState, BuildHasherDefault<TagHasher>>,
    /// Ready tasks awaiting a team member (team mode only).
    ready: VecDeque<usize>,
    /// Low-water mark: every node with a smaller index is done.
    drained: usize,
    /// Members whose last `take` failed, i.e. that may be parked on the
    /// condvar. Counted under this lock in the critical section where
    /// the take failed, so a change made under it needs a notify only
    /// while this is non-zero. A wait that unwinds leaves its count
    /// behind, which costs later changes a spurious notify and nothing
    /// else.
    sleepers: usize,
    closed: bool,
    mode: Mode,
}

impl Inner {
    /// What a member pulling on the group finds: `Some(None)` once `stop`
    /// holds, else the next ready task — or nothing yet.
    fn pull(&mut self, stop: &dyn Fn(&Inner) -> bool) -> Option<Option<Runnable>> {
        if stop(self) {
            return Some(None);
        }
        let idx = self.ready.pop_front()?;
        Some(Some(self.claim(idx)))
    }

    fn claim(&mut self, idx: usize) -> Runnable {
        let nd = &mut self.nodes[idx];
        Runnable {
            idx,
            id: nd.id,
            body: nd.body.take(),
        }
    }

    /// Wire a new node's dependences. Returns `(local idx, id, ids of
    /// completed preds to acquire)`.
    fn wire(
        &mut self,
        deps: &[Dep],
        body: Option<Box<dyn FnOnce() + Send>>,
    ) -> (usize, usize, Vec<usize>) {
        assert!(!self.closed, "aomp dep group: spawn after close()");
        if self.mode == Mode::Unset {
            self.mode = if ctx::level() > 0 {
                Mode::Team
            } else {
                Mode::Executor
            };
        }
        let id = fresh_node();
        let idx = self.nodes.len();
        self.nodes.push(NodeState {
            id,
            body,
            preds: 0,
            succs: Vec::new(),
            done: false,
        });
        let mut pred_set: Vec<usize> = Vec::new();
        for d in deps {
            let t = self.tags.entry(d.tag).or_default();
            pred_set.extend(t.writer);
            if d.is_write() {
                pred_set.append(&mut t.readers);
                t.writer = Some(idx);
            } else {
                t.readers.push(idx);
            }
        }
        pred_set.sort_unstable();
        pred_set.dedup();
        pred_set.retain(|&p| p != idx);
        // A pred that already completed emitted its completion release
        // before setting `done` under this lock, so the spawner can
        // acquire it directly; live preds get a wired successor edge and
        // release toward us when they complete.
        let mut acquires = Vec::new();
        let mut live = 0;
        for p in pred_set {
            if self.nodes[p].done {
                acquires.push(self.nodes[p].id);
            } else {
                self.nodes[p].succs.push(idx);
                live += 1;
            }
        }
        self.nodes[idx].preds = live;
        (idx, id, acquires)
    }

    /// Drop one of `idx`'s predecessors, handing it on once none is left.
    fn settle(&mut self, idx: usize, run: &mut Vec<Runnable>) {
        self.nodes[idx].preds -= 1;
        if self.nodes[idx].preds == 0 {
            self.hand_on(idx, run);
        }
    }

    /// Hand a pred-free node to a CPU: queue it (team mode) or claim it
    /// into `run` for the executor. An undeferred node has no body — its
    /// owner polls, so the caller's wake suffices.
    fn hand_on(&mut self, idx: usize, run: &mut Vec<Runnable>) {
        if self.nodes[idx].body.is_none() {
            return;
        }
        match self.mode {
            Mode::Executor => run.push(self.claim(idx)),
            _ => self.ready.push_back(idx),
        }
    }
}

struct GroupShared {
    inner: Mutex<Inner>,
    cv: Condvar,
    failed: AtomicBool,
    /// Join-sink node id: completions release toward it, joins acquire it.
    sink: usize,
}

impl GroupShared {
    /// Wake the waiters after a change made under `g` — only if one may
    /// be asleep (`g.sleepers`).
    fn wake(&self, g: &Inner) {
        if g.sleepers > 0 {
            self.cv.notify_all();
        }
    }
}

/// Publish a release toward each of `nodes`. Never under the group lock:
/// a scheduler hook may block the emitting thread.
fn release_toward(nodes: impl IntoIterator<Item = usize>) {
    for node in nodes {
        hook::emit_team(|team, tid| HookEvent::TaskDepRelease { team, tid, node });
    }
}

/// Acquire every release published toward each of `nodes`.
fn acquire(nodes: impl IntoIterator<Item = usize>) {
    for node in nodes {
        hook::emit_team(|team, tid| HookEvent::TaskDepReady { team, tid, node });
    }
}

/// A dependence-graph task group. Clones share the same graph.
///
/// Typical team usage:
///
/// ```ignore
/// let g = DepGroup::new();
/// region::parallel(|| {
///     if ctx::thread_id() == 0 {
///         g.spawn([Dep::output("a")], || produce());
///         g.spawn([Dep::input("a")], || consume());
///         g.close();
///     }
///     g.run().unwrap();
/// });
/// ```
#[derive(Clone)]
pub struct DepGroup {
    shared: Arc<GroupShared>,
}

impl Default for DepGroup {
    fn default() -> Self {
        Self::new()
    }
}

impl DepGroup {
    /// New group: tasks become ready as soon as their predecessors allow.
    pub fn new() -> DepGroup {
        DepGroup {
            shared: Arc::new(GroupShared {
                inner: Mutex::new(Inner {
                    nodes: Vec::new(),
                    tags: HashMap::default(),
                    ready: VecDeque::new(),
                    drained: 0,
                    sleepers: 0,
                    closed: false,
                    mode: Mode::Unset,
                }),
                cv: Condvar::new(),
                failed: AtomicBool::new(false),
                sink: fresh_node(),
            }),
        }
    }

    /// Spawn a dependent task. Ordering is against *earlier spawns of the
    /// same group* that named a conflicting [`Tag`], per the OpenMP
    /// rules.
    pub fn spawn<F>(&self, deps: impl IntoIterator<Item = Dep>, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        ctx::with_current(|c| {
            if let Some(c) = c {
                c.shared.check_interrupt();
            }
        });
        obs::count(obs::Counter::DepTasks);
        let deps: Vec<Dep> = deps.into_iter().collect();
        let (idx, id, acquires) = {
            let mut g = self.shared.inner.lock();
            let wired = g.wire(&deps, Some(Box::new(f)));
            // Spawn latch: hold the node back until the creation release
            // below has been published, so no runner can acquire first.
            g.nodes[wired.0].preds += 1;
            wired
        };
        acquire(acquires);
        // Creation edge: spawner → task body.
        release_toward([id]);
        let mut run = Vec::new();
        let mut g = self.shared.inner.lock();
        g.settle(idx, &mut run);
        self.shared.wake(&g);
        drop(g);
        self.dispatch(run);
    }

    /// No more spawns; lets [`DepGroup::run`] terminate once the graph
    /// drains.
    pub fn close(&self) {
        let mut g = self.shared.inner.lock();
        g.closed = true;
        self.shared.wake(&g);
    }

    /// Push claimed tasks to the executor (executor mode; team-mode
    /// readiness is the queue).
    fn dispatch(&self, run: Vec<Runnable>) {
        if run.is_empty() {
            return;
        }
        let rt = crate::runtime::current();
        for task in run {
            let this = self.clone();
            rt.dispatch_task(
                "aomp-dep-task",
                crate::task::in_runtime(&rt, move || this.execute(task)),
            );
        }
    }

    /// Run a claimed body, then complete its node.
    fn execute(&self, task: Runnable) {
        // Acquire every release published toward this node (creation edge
        // plus one per satisfied dependence).
        acquire([task.id]);
        if let Some(body) = task.body {
            if catch_unwind(AssertUnwindSafe(body)).is_err() {
                self.shared.failed.store(true, Ordering::Release);
            }
        }
        self.complete(task.idx, task.id);
    }

    /// Publish a node's completion: one locked pass marks it `done`,
    /// takes its successors, drops their `preds` and hands on the ready
    /// ones. Emission order is load-bearing, and the releases go out
    /// before the pass: self/sink before `done` (a joiner that observes
    /// it is ordered after them), each successor's before its `preds`
    /// drops (a runner that pops it is ordered after). A successor
    /// `wire` appends between that snapshot and the pass gets its
    /// release afterwards, in a second pass — `done` stops the appends.
    fn complete(&self, idx: usize, id: usize) {
        let sids: Vec<usize> = {
            let g = self.shared.inner.lock();
            g.nodes[idx].succs.iter().map(|&s| g.nodes[s].id).collect()
        };
        release_toward(
            [id, self.shared.sink]
                .into_iter()
                .chain(sids.iter().copied()),
        );
        let mut run = Vec::new();
        let late = {
            let mut g = self.shared.inner.lock();
            g.nodes[idx].done = true;
            while g.drained < g.nodes.len() && g.nodes[g.drained].done {
                g.drained += 1;
            }
            let mut succs = std::mem::take(&mut g.nodes[idx].succs);
            let late = succs.split_off(sids.len());
            for s in succs {
                g.settle(s, &mut run);
            }
            self.shared.wake(&g);
            late.into_iter()
                .map(|s| (s, g.nodes[s].id))
                .collect::<Vec<_>>()
        };
        ctx::with_current(|c| {
            if let Some(c) = c {
                c.shared.bump_progress();
            }
        });
        if !late.is_empty() {
            release_toward(late.iter().map(|&(_, sid)| sid));
            let mut g = self.shared.inner.lock();
            for (s, _) in late {
                g.settle(s, &mut run);
            }
            self.shared.wake(&g);
        }
        self.dispatch(run);
    }

    /// `take` under the group lock: at once if it can, else as a
    /// registered [`WaitSite::TaskWait`] — a member that finds its task
    /// (or its stop condition) there does not look blocked. The ready
    /// queue has no lock-free probe, so the wait parks, counted in
    /// `sleepers` from each failed take to the next.
    fn take_or_wait<R>(&self, mut take: impl FnMut(&mut Inner) -> Option<R>) -> R {
        let first = take(&mut self.shared.inner.lock());
        first.unwrap_or_else(|| {
            let mut asleep = false;
            let counted = |g: &mut Inner| {
                g.sleepers -= usize::from(asleep);
                let r = take(g);
                asleep = r.is_none();
                g.sleepers += usize::from(asleep);
                r
            };
            let sync = (&self.shared.inner, &self.shared.cv);
            wait::member_wait(WaitSite::TaskWait, None, sync, || true, counted, false)
        })
    }

    /// Pull-execute ready tasks until `stop` holds.
    fn work(&self, stop: &dyn Fn(&Inner) -> bool) {
        while let Some(task) = self.take_or_wait(|g| g.pull(stop)) {
            ctx::with_current(|c| {
                if let Some(c) = c {
                    c.shared.check_interrupt();
                    c.shared.bump_progress();
                }
            });
            self.execute(task);
        }
    }

    /// Execute ready tasks until the group is [`DepGroup::close`]d and
    /// drained. Every member of a team-mode group should call this.
    /// Panics if any task body panicked.
    pub fn run(&self) -> Result<(), DepError> {
        self.work(&|g: &Inner| g.closed && g.drained == g.nodes.len());
        let had_nodes = !self.shared.inner.lock().nodes.is_empty();
        self.finish_join(had_nodes);
        Ok(())
    }

    /// Wait for every task spawned *so far* (`taskwait`): helps execute
    /// ready tasks in team mode, then blocks until every node spawned
    /// before the call is done — later spawns neither count toward it
    /// nor hold it up. An empty group returns immediately — no wait
    /// site, no watchdog traffic.
    pub fn wait(&self) -> Result<(), DepError> {
        let target = {
            let g = self.shared.inner.lock();
            if g.nodes.is_empty() {
                return Ok(());
            }
            g.nodes.len()
        };
        self.work(&|g: &Inner| g.drained >= target);
        self.finish_join(true);
        Ok(())
    }

    /// Join-sink acquire + deferred panic propagation.
    fn finish_join(&self, had_nodes: bool) {
        if had_nodes {
            acquire([self.shared.sink]);
        }
        if self.shared.failed.swap(false, Ordering::AcqRel) {
            panic!("aomp dep group: a task panicked");
        }
    }

    /// Run `f` *undeferred* on the calling thread as a dependence node:
    /// wire `deps`, wait for predecessors, run, release successors. This
    /// is the weaver's `Mechanism::task()` backend, where bodies are
    /// borrowed closures that cannot be boxed into deferred tasks.
    /// Panics from `f` propagate to the caller (poisoning the region).
    pub fn run_undeferred<R>(
        &self,
        deps: impl IntoIterator<Item = Dep>,
        f: impl FnOnce() -> R,
    ) -> R {
        let deps: Vec<Dep> = deps.into_iter().collect();
        obs::count(obs::Counter::DepTasks);
        let (idx, id, acquires) = self.shared.inner.lock().wire(&deps, None);
        acquire(acquires);
        self.take_or_wait(|g| (g.nodes[idx].preds == 0).then_some(()));
        acquire([id]);
        let r = f();
        self.complete(idx, id);
        r
    }
}

// ---------------------------------------------------------------------------
// Ambient group (macro surface)
// ---------------------------------------------------------------------------

std::thread_local! {
    static AMBIENT: std::cell::RefCell<Vec<DepGroup>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Run `f` with `group` as the thread's ambient dependence group:
/// [`spawn_depend`] calls inside (the `#[task(depend(...))]` expansion)
/// land in it. Scopes nest; the innermost wins.
pub fn scope<R>(group: &DepGroup, f: impl FnOnce() -> R) -> R {
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            AMBIENT.with(|s| {
                s.borrow_mut().pop();
            });
        }
    }
    AMBIENT.with(|s| s.borrow_mut().push(group.clone()));
    let _pop = Pop;
    f()
}

/// Spawn into the ambient [`scope`] group, or — sequential semantics when
/// no group is ambient — run the body inline. This is what
/// `#[task(depend(...))]` expands to.
pub fn spawn_depend<F>(deps: Vec<Dep>, f: F)
where
    F: FnOnce() + Send + 'static,
{
    let g = AMBIENT.with(|s| s.borrow().last().cloned());
    match g {
        Some(g) => g.spawn(deps, f),
        None => f(),
    }
}

// ---------------------------------------------------------------------------
// Taskloop
// ---------------------------------------------------------------------------

/// The `taskloop` construct: the adaptive `@For`
/// ([`Schedule::Adaptive`]) with a trailing barrier, encountered by every
/// member of the team. Every iteration runs exactly once, and a member
/// returns only after all of them have run; handouts report kind
/// `"adaptive"`.
///
/// Like [`ForConstruct`], the construct is `static` at the call site and
/// executes the whole range inline outside a parallel region.
pub struct TaskloopConstruct {
    for_c: ForConstruct,
}

impl Default for TaskloopConstruct {
    fn default() -> Self {
        Self::new()
    }
}

impl TaskloopConstruct {
    /// New construct with the adaptive schedule's min-chunk floor (1).
    pub fn new() -> TaskloopConstruct {
        TaskloopConstruct {
            for_c: ForConstruct::new(Schedule::ADAPTIVE),
        }
    }

    /// Override the dispenser's min-chunk floor (`grainsize` in OpenMP
    /// terms).
    pub fn min_chunk(self, n: u64) -> TaskloopConstruct {
        assert!(n >= 1, "taskloop min_chunk must be >= 1");
        TaskloopConstruct {
            for_c: ForConstruct::new(Schedule::Adaptive { min_chunk: n }),
        }
    }

    /// Execute `body(lo, hi, step)` over `range` with the current team.
    pub fn execute<F>(&self, range: LoopRange, body: F)
    where
        F: Fn(i64, i64, i64) + Sync,
    {
        self.for_c.execute(range, body);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::{self, RegionConfig};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn tag_identity() {
        let a = [0u64; 4];
        assert_eq!(Tag::of(&a), Tag::of(&a));
        assert_ne!(Tag::of(&a[0]), Tag::of(&a[1]));
        assert_eq!(Tag::from("x"), Tag::Name("x"));
        assert_ne!(Tag::part("x", 0), Tag::part("x", 1));
    }

    /// out → in → inout chain must serialize, executor mode.
    #[test]
    fn executor_mode_orders_raw_war_waw() {
        let g = DepGroup::new();
        let log = Arc::new(Mutex::new(Vec::new()));
        for step in 0..3usize {
            let log = Arc::clone(&log);
            let mode = match step {
                0 => Dep::output("cell"),
                1 => Dep::input("cell"),
                _ => Dep::inout("cell"),
            };
            g.spawn([mode], move || log.lock().push(step));
        }
        g.wait().unwrap();
        assert_eq!(*log.lock(), vec![0, 1, 2]);
    }

    /// Independent readers between writers may interleave, but both
    /// writers are fenced by the reader set (WAR).
    #[test]
    fn readers_fence_next_writer() {
        for _ in 0..20 {
            let g = DepGroup::new();
            let hits = Arc::new(AtomicUsize::new(0));
            let w2_saw = Arc::new(AtomicUsize::new(usize::MAX));
            let h = Arc::clone(&hits);
            g.spawn([Dep::output("buf")], move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
            for _ in 0..4 {
                let h = Arc::clone(&hits);
                g.spawn([Dep::input("buf")], move || {
                    // Writer 1 done, writer 2 not yet.
                    assert_eq!(h.load(Ordering::SeqCst) & 1, 1);
                    h.fetch_add(2, Ordering::SeqCst);
                });
            }
            let h = Arc::clone(&hits);
            let saw = Arc::clone(&w2_saw);
            g.spawn([Dep::output("buf")], move || {
                saw.store(h.load(Ordering::SeqCst), Ordering::SeqCst);
            });
            g.wait().unwrap();
            // All four readers (and writer 1) strictly before writer 2.
            assert_eq!(w2_saw.load(Ordering::SeqCst), 1 + 4 * 2);
        }
    }

    #[test]
    fn team_mode_runs_graph() {
        let g = DepGroup::new();
        let sum = Arc::new(AtomicUsize::new(0));
        let g2 = g.clone();
        let sum2 = Arc::clone(&sum);
        region::parallel_with(RegionConfig::new().threads(4), move || {
            if ctx::thread_id() == 0 {
                for i in 0..16usize {
                    let s = Arc::clone(&sum2);
                    let dep = if i % 4 == 0 {
                        Dep::output(Tag::part("lane", (i / 4) as u64))
                    } else {
                        Dep::input(Tag::part("lane", (i / 4) as u64))
                    };
                    g2.spawn([dep], move || {
                        s.fetch_add(i + 1, Ordering::Relaxed);
                    });
                }
                g2.close();
            }
            g2.run().unwrap();
        });
        assert_eq!(sum.load(Ordering::Relaxed), (1..=16).sum::<usize>());
    }

    #[test]
    fn empty_group_wait_is_immediate() {
        let g = DepGroup::new();
        g.wait().unwrap();
        let g = DepGroup::new();
        g.close();
        g.run().unwrap();
    }

    /// `wait` joins the tasks spawned before it: completions of tasks
    /// spawned after it started must not stand in for one still running.
    #[test]
    fn wait_is_not_satisfied_by_later_spawns() {
        use std::time::Duration;
        let g = DepGroup::new();
        let go = Arc::new(AtomicBool::new(false));
        let returned = Arc::new(AtomicBool::new(false));
        let go2 = Arc::clone(&go);
        g.spawn([], move || {
            while !go2.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        g.spawn([], || {});
        let waiter = {
            let (g, returned) = (g.clone(), Arc::clone(&returned));
            std::thread::spawn(move || {
                g.wait().unwrap();
                returned.store(true, Ordering::Release);
            })
        };
        // The waiter fixed its target (the two tasks above) before its
        // take failed.
        while g.shared.inner.lock().sleepers == 0 {
            std::thread::yield_now();
        }
        g.spawn([], || {});
        let done = || {
            g.shared
                .inner
                .lock()
                .nodes
                .iter()
                .filter(|nd| nd.done)
                .count()
        };
        while done() < 2 {
            std::thread::yield_now();
        }
        // As many completions as the waiter's target, but not the first
        // task's. Give a wrongly woken waiter time to return.
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !returned.load(Ordering::Acquire),
            "wait returned while a task spawned before it was still running"
        );
        go.store(true, Ordering::Release);
        waiter.join().unwrap();
        assert!(returned.load(Ordering::Acquire));
    }

    #[test]
    fn dep_task_panic_propagates_at_join() {
        let g = DepGroup::new();
        g.spawn([], || panic!("boom"));
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| g.wait())).unwrap_err();
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("task panicked"), "got: {msg}");
    }

    #[test]
    fn ambient_scope_spawns_and_falls_back_inline() {
        let g = DepGroup::new();
        let hits = Arc::new(AtomicUsize::new(0));
        let h = Arc::clone(&hits);
        scope(&g, || {
            spawn_depend(vec![Dep::output("t")], move || {
                h.fetch_add(1, Ordering::SeqCst);
            });
        });
        g.wait().unwrap();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // No ambient group: inline.
        let h = Arc::clone(&hits);
        spawn_depend(vec![], move || {
            h.fetch_add(10, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 11);
    }

    #[test]
    fn run_undeferred_orders_against_spawned() {
        let g = DepGroup::new();
        let order = Arc::new(Mutex::new(Vec::new()));
        let o1 = Arc::clone(&order);
        g.spawn([Dep::output("x")], move || o1.lock().push(1));
        g.run_undeferred([Dep::input("x")], || order.lock().push(2));
        assert_eq!(*order.lock(), vec![1, 2]);
    }

    /// Run `members[tid]` as a watched team, one thread each. Once
    /// `parked` of them sit at `site`, the team's progress counter must
    /// stand still for as long as they sleep — the stall watchdog reads a
    /// moving counter as a live team. `release` then lets everyone finish.
    fn parked_members_make_no_progress(
        members: Vec<Box<dyn FnOnce() + Send>>,
        parked: usize,
        site: WaitSite,
        release: impl FnOnce(),
    ) {
        use std::time::{Duration, Instant};
        let n = members.len();
        let team = Arc::new(ctx::TeamShared::with_robustness(n, 1, false, true));
        let threads: Vec<_> = members
            .into_iter()
            .enumerate()
            .map(|(tid, member)| {
                let team = Arc::clone(&team);
                std::thread::spawn(move || {
                    let _g = ctx::CtxGuard::enter(team, tid);
                    member()
                })
            })
            .collect();
        let t0 = Instant::now();
        while team.blocked_snapshot().len() < parked {
            assert!(t0.elapsed() < Duration::from_secs(10), "nobody parked");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Registering bumps the counter just after it fills the slot.
        std::thread::sleep(Duration::from_millis(5));
        let before = team.progress();
        std::thread::sleep(Duration::from_millis(50));
        let blocked = team.blocked_snapshot();
        assert_eq!(blocked.len(), parked, "{blocked:?}");
        assert!(blocked.iter().all(|&(_, s)| s == site), "{blocked:?}");
        assert_eq!(team.progress(), before, "a sleeping member is not progress");
        release();
        for t in threads {
            t.join().expect("member panicked");
        }
        assert!(team.blocked_snapshot().is_empty());
    }

    #[test]
    fn member_parked_in_run_makes_no_progress() {
        let g = DepGroup::new();
        let g2 = g.clone();
        parked_members_make_no_progress(
            vec![Box::new(move || g2.run().unwrap())],
            1,
            WaitSite::TaskWait,
            || g.close(),
        );
    }

    /// An executor-mode task that spins until `go` is set: spawned
    /// outside any team, so no member can run it.
    fn blocked_task(g: &DepGroup, deps: impl IntoIterator<Item = Dep>) -> Arc<AtomicBool> {
        let go = Arc::new(AtomicBool::new(false));
        let go2 = Arc::clone(&go);
        g.spawn(deps, move || {
            while !go2.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        go
    }

    #[test]
    fn member_parked_in_wait_makes_no_progress() {
        let g = DepGroup::new();
        let go = blocked_task(&g, []);
        let g2 = g.clone();
        parked_members_make_no_progress(
            vec![Box::new(move || g2.wait().unwrap())],
            1,
            WaitSite::TaskWait,
            || go.store(true, Ordering::Release),
        );
    }

    #[test]
    fn member_parked_in_run_undeferred_makes_no_progress() {
        let g = DepGroup::new();
        let go = blocked_task(&g, [Dep::output("x")]);
        let g2 = g.clone();
        parked_members_make_no_progress(
            vec![Box::new(move || {
                g2.run_undeferred([Dep::input("x")], || {})
            })],
            1,
            WaitSite::TaskWait,
            || go.store(true, Ordering::Release),
        );
        g.wait().unwrap();
    }

    #[test]
    fn member_parked_in_taskloop_makes_no_progress() {
        // One iteration: static-block seeding hands it to member 0, which
        // sits in the body; member 1 has an empty block, nothing to
        // steal, and waits at the trailing barrier.
        let tl = Arc::new(TaskloopConstruct::new());
        let go = Arc::new(AtomicBool::new(false));
        let member = || -> Box<dyn FnOnce() + Send> {
            let (tl, go) = (Arc::clone(&tl), Arc::clone(&go));
            Box::new(move || {
                tl.execute(LoopRange::upto(0, 1), |_, _, _| {
                    while !go.load(Ordering::Acquire) {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                })
            })
        };
        parked_members_make_no_progress(vec![member(), member()], 1, WaitSite::Barrier, || {
            go.store(true, Ordering::Release)
        });
    }

    #[test]
    fn taskloop_covers_every_iteration_once() {
        static TL: std::sync::OnceLock<TaskloopConstruct> = std::sync::OnceLock::new();
        let tl = TL.get_or_init(|| TaskloopConstruct::new().min_chunk(3));
        let n = 257usize;
        let hits: Arc<Vec<AtomicUsize>> = Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect());
        let h = Arc::clone(&hits);
        region::parallel_with(RegionConfig::new().threads(4), move || {
            tl.execute(LoopRange::upto(0, n as i64), |lo, hi, step| {
                let mut i = lo;
                while i < hi {
                    h[i as usize].fetch_add(1, Ordering::Relaxed);
                    i += step;
                }
            });
            // The join: no member returns before every iteration ran.
            for (i, c) in h.iter().enumerate() {
                assert_eq!(
                    c.load(Ordering::Relaxed),
                    1,
                    "iteration {i} before the join"
                );
            }
        });
        for (i, c) in hits.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "iteration {i}");
        }
    }

    #[test]
    fn taskloop_inline_outside_team() {
        let tl = TaskloopConstruct::new();
        let seen = Mutex::new(Vec::new());
        tl.execute(LoopRange::new(10, 0, -2), |lo, hi, step| {
            let mut i = lo;
            while i > hi {
                seen.lock().push(i);
                i += step;
            }
        });
        assert_eq!(*seen.lock(), vec![10, 8, 6, 4, 2]);
    }

    #[test]
    fn taskloop_empty_range() {
        static TL: std::sync::OnceLock<TaskloopConstruct> = std::sync::OnceLock::new();
        let tl = TL.get_or_init(TaskloopConstruct::new);
        region::parallel_with(RegionConfig::new().threads(2), move || {
            tl.execute(LoopRange::upto(5, 5), |_, _, _| panic!("no iterations"));
        });
    }
}
