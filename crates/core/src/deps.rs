//! Task dependencies — OpenMP 4.x `depend(in/out/inout)` clauses and the
//! `taskloop` construct (ROADMAP item 3(b)).
//!
//! A [`DepGroup`] owns a per-team dependence graph. Spawns declare
//! [`Dep`] clauses keyed by [`Tag`]s (an address, a static name, or a
//! name + partition index); the group applies the OpenMP serialization
//! rules — an `in` task waits on the tag's last writer and joins its
//! reader set, an `out`/`inout` task waits on the prior readers *and*
//! writer, becomes the last writer and clears the reader set — and
//! releases a task to the ready queue exactly when its last predecessor
//! completes. Tag-derived edges always point from earlier to later
//! spawns, so they cannot form a cycle; explicit [`DepGroup::edge`]s on a
//! [`DepGroup::held`] group can, and [`DepGroup::release`] reports that
//! *fallibly* ([`DepError::Cycle`]) instead of deadlocking.
//!
//! Execution resolves lazily at the first spawn: inside a parallel
//! region, team members pull ready tasks by calling [`DepGroup::run`]
//! (the *team* mode the checker serializes deterministically); outside a
//! region, ready tasks are pushed to the shared work-stealing executor
//! and [`DepGroup::wait`] joins them.
//!
//! Every dependence edge is mirrored to the scheduling hook as a precise
//! release→acquire pair — `TaskDepRelease { node }` when a completion (or
//! the spawn itself) publishes toward a node, `TaskDepReady { node }`
//! when a runner or joiner acquires it — so aomp-check's vector clocks
//! track *per-edge* ordering instead of the conservative whole-group
//! `TaskSpawn`→`TaskJoin` edge. The emission protocol is ordered: a
//! release toward a node is always emitted *before* the node can be
//! popped (or the join counter observed), so a serialized explorer can
//! never see the acquire first.
//!
//! A member with nothing to run — no ready task in [`DepGroup::run`] /
//! [`DepGroup::wait`], unfinished predecessors in
//! [`DepGroup::run_undeferred`], no window in a taskloop — first tries
//! its condition under the lock, and only when that fails becomes one
//! registered [`WaitSite::TaskWait`] wait (`wait::member_wait`) for as
//! long as it sleeps: a member that finds work never looks blocked, and
//! one that sleeps is not progress, so the stall watchdog diagnoses a
//! team deadlocked on its graph. None of these conditions has a
//! lock-free probe (the ready queue, a node's `preds` and the window
//! stack live under their mutex), so these waits park without polling.
//!
//! [`TaskloopConstruct`] is the `#[taskloop]` backend: the encountering
//! member seeds the whole iteration range as a *single* task and splits
//! it lazily — only when another member is observed waiting at a
//! min-chunk bite boundary — reusing the adaptive schedule's min-chunk
//! floor as the split granule.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

use crate::ctx;
use crate::error::WaitSite;
use crate::hook::{self, HookEvent};
use crate::obs;
use crate::range::LoopRange;
use crate::wait;

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

/// Fallible dependence-graph errors.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DepError {
    /// [`DepGroup::release`] found a dependence cycle. The payload lists
    /// the node ids caught in (or downstream of) the cycle; none of their
    /// bodies ran.
    Cycle {
        /// Node ids that could not be topologically ordered.
        nodes: Vec<usize>,
    },
}

impl std::fmt::Display for DepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DepError::Cycle { nodes } => {
                write!(f, "dependence cycle among {} task node(s)", nodes.len())
            }
        }
    }
}

impl std::error::Error for DepError {}

/// Handle to a spawned dependence node, for explicit [`DepGroup::edge`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskNode {
    idx: usize,
    id: usize,
}

impl TaskNode {
    /// The process-unique node id carried by `TaskDepRelease`/`TaskDepReady`
    /// hook events for this node.
    #[inline]
    pub fn id(&self) -> usize {
        self.id
    }
}

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
    /// Outside any region: ready tasks are *pushed* to the shared
    /// work-stealing executor.
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
    /// Local indices of wired successors.
    succs: Vec<usize>,
    /// Completion flag, set under the group lock.
    done: bool,
}

struct Inner {
    nodes: Vec<NodeState>,
    /// Per-tag last writer (local index), per the OpenMP rules.
    last_writer: HashMap<Tag, usize>,
    /// Per-tag readers since the last writer.
    readers: HashMap<Tag, Vec<usize>>,
    /// Ready tasks awaiting a team member (team mode only).
    ready: VecDeque<usize>,
    /// Completed node count.
    done: usize,
    closed: bool,
    /// `held()` groups defer readiness until `release()`.
    held: bool,
    released: bool,
    error: Option<DepError>,
    mode: Mode,
}

impl Inner {
    #[inline]
    fn deferred(&self) -> bool {
        self.held && !self.released
    }

    /// What a member pulling on the group finds: the latched error,
    /// `Ok(None)` once `stop` holds, else the next ready task — or
    /// nothing yet.
    fn pull(&mut self, stop: &dyn Fn(&Inner) -> bool) -> Option<Result<Option<usize>, DepError>> {
        if let Some(e) = &self.error {
            return Some(Err(e.clone()));
        }
        if stop(self) {
            return Some(Ok(None));
        }
        self.ready.pop_front().map(|idx| Ok(Some(idx)))
    }
}

struct GroupShared {
    inner: Mutex<Inner>,
    cv: Condvar,
    failed: AtomicBool,
    /// Join-sink node id: completions release toward it, joins acquire it.
    sink: usize,
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
        Self::with_held(false)
    }

    /// New *held* group: no task starts until [`DepGroup::release`],
    /// which first cycle-checks the graph (needed because explicit
    /// [`DepGroup::edge`]s, unlike tag-derived edges, can form cycles).
    pub fn held() -> DepGroup {
        Self::with_held(true)
    }

    fn with_held(held: bool) -> DepGroup {
        DepGroup {
            shared: Arc::new(GroupShared {
                inner: Mutex::new(Inner {
                    nodes: Vec::new(),
                    last_writer: HashMap::new(),
                    readers: HashMap::new(),
                    ready: VecDeque::new(),
                    done: 0,
                    closed: false,
                    held,
                    released: false,
                    error: None,
                    mode: Mode::Unset,
                }),
                cv: Condvar::new(),
                failed: AtomicBool::new(false),
                sink: fresh_node(),
            }),
        }
    }

    /// Wire the node's dependences under the lock. Returns
    /// `(local idx, completed-pred ids to acquire)`.
    fn wire(
        &self,
        g: &mut Inner,
        deps: &[Dep],
        body: Option<Box<dyn FnOnce() + Send>>,
    ) -> (usize, usize, Vec<usize>) {
        assert!(!g.closed, "aomp dep group: spawn after close()");
        if g.mode == Mode::Unset {
            g.mode = if ctx::level() > 0 {
                Mode::Team
            } else {
                Mode::Executor
            };
        }
        let id = fresh_node();
        let idx = g.nodes.len();
        g.nodes.push(NodeState {
            id,
            body,
            preds: 0,
            succs: Vec::new(),
            done: false,
        });
        let mut pred_set: Vec<usize> = Vec::new();
        for d in deps {
            match d.mode {
                DepMode::In => {
                    if let Some(&w) = g.last_writer.get(&d.tag) {
                        pred_set.push(w);
                    }
                    g.readers.entry(d.tag).or_default().push(idx);
                }
                DepMode::Out | DepMode::InOut => {
                    if let Some(rs) = g.readers.remove(&d.tag) {
                        pred_set.extend(rs);
                    }
                    if let Some(&w) = g.last_writer.get(&d.tag) {
                        pred_set.push(w);
                    }
                    g.last_writer.insert(d.tag, idx);
                }
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
            if g.nodes[p].done {
                acquires.push(g.nodes[p].id);
            } else {
                g.nodes[p].succs.push(idx);
                live += 1;
            }
        }
        g.nodes[idx].preds = live;
        (idx, id, acquires)
    }

    /// Spawn a dependent task. Ordering is against *earlier spawns of the
    /// same group* that named a conflicting [`Tag`], per the OpenMP
    /// rules. Returns a handle usable with [`DepGroup::edge`].
    pub fn spawn<F>(&self, deps: impl IntoIterator<Item = Dep>, f: F) -> TaskNode
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
            let (idx, id, acquires) = self.wire(&mut g, &deps, Some(Box::new(f)));
            // Spawn latch: hold the node back until the creation release
            // below has been published, so no runner can acquire first.
            g.nodes[idx].preds += 1;
            (idx, id, acquires)
        };
        for a in acquires {
            hook::emit_team(|team, tid| HookEvent::TaskDepReady { team, tid, node: a });
        }
        // Creation edge: spawner → task body.
        hook::emit_team(|team, tid| HookEvent::TaskDepRelease {
            team,
            tid,
            node: id,
        });
        let ready = {
            let mut g = self.shared.inner.lock();
            g.nodes[idx].preds -= 1;
            g.nodes[idx].preds == 0 && !g.deferred()
        };
        if ready {
            self.make_ready(idx);
        }
        TaskNode { idx, id }
    }

    /// Add an explicit edge `pred → succ` on a [`DepGroup::held`] group.
    /// Panics if the group is not held or already released (edges to
    /// possibly-running nodes would race).
    pub fn edge(&self, pred: TaskNode, succ: TaskNode) {
        let mut g = self.shared.inner.lock();
        assert!(
            g.deferred(),
            "aomp dep group: edge() requires a held(), unreleased group"
        );
        g.nodes[pred.idx].succs.push(succ.idx);
        g.nodes[succ.idx].preds += 1;
    }

    /// Cycle-check a [`DepGroup::held`] group and start its sources.
    /// On a cycle nothing runs: every body is dropped, the error is
    /// latched (so [`DepGroup::run`]/[`DepGroup::wait`] also fail), and
    /// `Err(DepError::Cycle)` is returned — no hang, no watchdog trip.
    pub fn release(&self) -> Result<(), DepError> {
        let ready = {
            let mut g = self.shared.inner.lock();
            assert!(g.held, "aomp dep group: release() requires a held() group");
            if g.released {
                return match &g.error {
                    Some(e) => Err(e.clone()),
                    None => Ok(()),
                };
            }
            g.released = true;
            // Kahn's algorithm over the wired graph.
            let n = g.nodes.len();
            let mut indeg: Vec<usize> = g.nodes.iter().map(|nd| nd.preds).collect();
            let mut q: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
            let mut seen = 0usize;
            while let Some(i) = q.pop_front() {
                seen += 1;
                for s in 0..g.nodes[i].succs.len() {
                    let s = g.nodes[i].succs[s];
                    indeg[s] -= 1;
                    if indeg[s] == 0 {
                        q.push_back(s);
                    }
                }
            }
            if seen < n {
                let nodes: Vec<usize> = (0..n)
                    .filter(|&i| indeg[i] > 0)
                    .map(|i| g.nodes[i].id)
                    .collect();
                let err = DepError::Cycle { nodes };
                g.error = Some(err.clone());
                for nd in g.nodes.iter_mut() {
                    nd.body = None;
                }
                drop(g);
                self.shared.cv.notify_all();
                return Err(err);
            }
            (0..n)
                .filter(|&i| g.nodes[i].preds == 0 && !g.nodes[i].done)
                .collect::<Vec<_>>()
        };
        self.shared.cv.notify_all();
        for idx in ready {
            self.make_ready(idx);
        }
        Ok(())
    }

    /// No more spawns; lets [`DepGroup::run`] terminate once the graph
    /// drains.
    pub fn close(&self) {
        self.shared.inner.lock().closed = true;
        self.shared.cv.notify_all();
    }

    /// Hand a pred-free node to a CPU: queue it (team mode) or dispatch
    /// it to the executor. Undeferred nodes have no body — their owning
    /// thread polls, so a wake-up suffices.
    fn make_ready(&self, idx: usize) {
        let (mode, has_body) = {
            let g = self.shared.inner.lock();
            (g.mode, g.nodes[idx].body.is_some())
        };
        if !has_body {
            self.shared.cv.notify_all();
            return;
        }
        match mode {
            Mode::Executor => {
                let this = self.clone();
                let rt = crate::runtime::current();
                rt.dispatch_task(
                    "aomp-dep-task",
                    crate::task::in_runtime(&rt, move || this.execute(idx)),
                );
            }
            _ => {
                self.shared.inner.lock().ready.push_back(idx);
                self.shared.cv.notify_all();
            }
        }
    }

    /// Claim and run node `idx`'s body, then complete it.
    fn execute(&self, idx: usize) {
        let (id, body) = {
            let mut g = self.shared.inner.lock();
            (g.nodes[idx].id, g.nodes[idx].body.take())
        };
        // Acquire every release published toward this node (creation edge
        // plus one per satisfied dependence).
        hook::emit_team(|team, tid| HookEvent::TaskDepReady {
            team,
            tid,
            node: id,
        });
        if let Some(body) = body {
            if catch_unwind(AssertUnwindSafe(body)).is_err() {
                self.shared.failed.store(true, Ordering::Release);
            }
        }
        self.complete(idx);
    }

    /// Publish a node's completion. Emission order is load-bearing: the
    /// self/sink releases go out *before* `done` is bumped (a joiner that
    /// observes the count is ordered after them), and each successor's
    /// release goes out *before* that successor's pred count drops (a
    /// runner that pops it is ordered after).
    fn complete(&self, idx: usize) {
        let own = self.shared.inner.lock().nodes[idx].id;
        hook::emit_team(|team, tid| HookEvent::TaskDepRelease {
            team,
            tid,
            node: own,
        });
        let sink = self.shared.sink;
        hook::emit_team(|team, tid| HookEvent::TaskDepRelease {
            team,
            tid,
            node: sink,
        });
        let succs = {
            let mut g = self.shared.inner.lock();
            g.nodes[idx].done = true;
            g.done += 1;
            std::mem::take(&mut g.nodes[idx].succs)
        };
        self.shared.cv.notify_all();
        ctx::with_current(|c| {
            if let Some(c) = c {
                c.shared.bump_progress();
            }
        });
        for s in succs {
            let sid = self.shared.inner.lock().nodes[s].id;
            hook::emit_team(|team, tid| HookEvent::TaskDepRelease {
                team,
                tid,
                node: sid,
            });
            let now_ready = {
                let mut g = self.shared.inner.lock();
                g.nodes[s].preds -= 1;
                g.nodes[s].preds == 0 && !g.deferred()
            };
            if now_ready {
                self.make_ready(s);
            }
        }
    }

    /// `take` under the group lock: at once if it can, else as a
    /// registered [`WaitSite::TaskWait`] — a member that finds its task
    /// (or its stop condition) there does not look blocked. The ready
    /// queue has no lock-free probe, so the wait parks.
    fn take_or_wait<R>(&self, mut take: impl FnMut(&mut Inner) -> Option<R>) -> R {
        let first = take(&mut self.shared.inner.lock());
        first.unwrap_or_else(|| {
            let sync = (&self.shared.inner, &self.shared.cv);
            wait::member_wait(WaitSite::TaskWait, None, sync, || true, take, false)
        })
    }

    /// Pull-execute ready tasks until `stop` holds.
    fn work(&self, stop: &dyn Fn(&Inner) -> bool) -> Result<(), DepError> {
        while let Some(idx) = self.take_or_wait(|g| g.pull(stop))? {
            ctx::with_current(|c| {
                if let Some(c) = c {
                    c.shared.check_interrupt();
                    c.shared.bump_progress();
                }
            });
            self.execute(idx);
        }
        Ok(())
    }

    /// Execute ready tasks until the group is [`DepGroup::close`]d and
    /// drained. Every member of a team-mode group should call this.
    /// Panics if any task body panicked; returns the latched error if
    /// [`DepGroup::release`] found a cycle.
    pub fn run(&self) -> Result<(), DepError> {
        self.work(&|g: &Inner| g.closed && g.done == g.nodes.len())?;
        let had_nodes = !self.shared.inner.lock().nodes.is_empty();
        self.finish_join(had_nodes);
        Ok(())
    }

    /// Wait for every task spawned *so far* (`taskwait`): helps execute
    /// ready tasks in team mode, then blocks. An empty group returns
    /// immediately — no wait site, no watchdog traffic.
    pub fn wait(&self) -> Result<(), DepError> {
        let target = self.shared.inner.lock().nodes.len();
        if target == 0 {
            return match &self.shared.inner.lock().error {
                Some(e) => Err(e.clone()),
                None => Ok(()),
            };
        }
        self.work(&|g: &Inner| g.done >= target)?;
        self.finish_join(true);
        Ok(())
    }

    /// Join-sink acquire + deferred panic propagation.
    fn finish_join(&self, had_nodes: bool) {
        if had_nodes {
            let sink = self.shared.sink;
            hook::emit_team(|team, tid| HookEvent::TaskDepReady {
                team,
                tid,
                node: sink,
            });
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
        let (idx, id, acquires) = {
            let mut g = self.shared.inner.lock();
            assert!(
                !g.deferred(),
                "aomp dep group: run_undeferred() on a held, unreleased group"
            );
            self.wire(&mut g, &deps, None)
        };
        for a in acquires {
            hook::emit_team(|team, tid| HookEvent::TaskDepReady { team, tid, node: a });
        }
        self.take_or_wait(|g| (g.nodes[idx].preds == 0).then_some(()));
        hook::emit_team(|team, tid| HookEvent::TaskDepReady {
            team,
            tid,
            node: id,
        });
        let r = f();
        self.complete(idx);
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
        Some(g) => {
            g.spawn(deps, f);
        }
        None => f(),
    }
}

// ---------------------------------------------------------------------------
// Taskloop
// ---------------------------------------------------------------------------

#[derive(Default)]
struct TlInner {
    /// Unstarted iteration windows `[lo, hi)` (logical iteration
    /// numbers). Seeded with the whole range as ONE window; further
    /// windows only appear via lazy splits.
    queue: Vec<(u64, u64)>,
    seeded: bool,
    done: u64,
    total: u64,
    /// Members currently parked wanting work — the lazy-split signal.
    waiters: usize,
}

#[derive(Default)]
struct TlState {
    inner: Mutex<TlInner>,
    cv: Condvar,
}

/// The `taskloop` construct: a work-shared loop that starts as a single
/// range task and splits *lazily* — a worker sheds half of its remaining
/// window only when it observes another member waiting at a min-chunk
/// bite boundary. Contrast with [`Schedule::Dynamic`](crate::schedule):
/// no up-front chunking, so an uncontended loop runs with zero queue
/// traffic beyond the seed.
///
/// Like [`ForConstruct`](crate::workshare::ForConstruct), the construct
/// is `static` at the call site (per-encounter state lives in team slots)
/// and executes the whole range inline outside a parallel region.
pub struct TaskloopConstruct {
    key: u64,
    min_chunk: u64,
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
            key: ctx::fresh_key(),
            min_chunk: match crate::schedule::Schedule::ADAPTIVE {
                crate::schedule::Schedule::Adaptive { min_chunk } => min_chunk,
                _ => 1,
            },
        }
    }

    /// Override the bite/split granule (`grainsize` in OpenMP terms).
    pub fn min_chunk(mut self, n: u64) -> TaskloopConstruct {
        assert!(n >= 1, "taskloop min_chunk must be >= 1");
        self.min_chunk = n;
        self
    }

    /// Execute `body(lo, hi, step)` over `range` cooperatively with the
    /// current team. Every iteration is executed exactly once; the
    /// member-to-window assignment is schedule-dependent (and explored by
    /// aomp-check via the `ChunkHandout { kind: "taskloop" }` events).
    pub fn execute<F>(&self, range: LoopRange, body: F)
    where
        F: Fn(i64, i64, i64) + Sync,
    {
        let count = range.count();
        let team = ctx::with_current(|c| {
            c.map(|c| (Arc::clone(&c.shared), c.tid, c.next_round(self.key)))
        });
        let Some((shared, tid, round)) = team else {
            // Outside a team: sequential semantics, whole range inline.
            if count > 0 {
                body(range.start, range.end, range.step);
            }
            return;
        };
        let slot: Arc<TlState> = shared.slot(self.key, round);
        {
            let mut g = slot.inner.lock();
            if !g.seeded {
                g.seeded = true;
                g.total = count;
                if count > 0 {
                    g.queue.push((0, count));
                }
            }
        }
        let token = shared.token();
        // A window to walk, or `None` once every iteration ran.
        let window = |g: &mut TlInner| {
            if g.done >= g.total {
                Some(None)
            } else {
                g.queue.pop().map(Some)
            }
        };
        loop {
            let first = {
                let mut g = slot.inner.lock();
                let first = window(&mut g);
                // Nothing to take yet: count as a waiter — the lazy-split
                // signal — until the registered wait below takes.
                g.waiters += usize::from(first.is_none());
                first
            };
            let win = first.unwrap_or_else(|| {
                let take = |g: &mut TlInner| window(g).inspect(|_| g.waiters -= 1);
                let sync = (&slot.inner, &slot.cv);
                wait::member_wait(WaitSite::TaskWait, None, sync, || true, take, false)
            });
            let Some((mut lo, mut hi)) = win else {
                break;
            };
            while lo < hi {
                shared.check_interrupt();
                let bite = (lo + self.min_chunk).min(hi);
                hook::emit(|| HookEvent::ChunkHandout {
                    team: token,
                    tid,
                    kind: "taskloop",
                    lo,
                    hi: bite,
                });
                let sub = range.slice_iters(lo, bite);
                body(sub.start, sub.end, sub.step);
                let split = {
                    let mut g = slot.inner.lock();
                    g.done += bite - lo;
                    let remaining = hi - bite;
                    // Lazy split: only shed work once a thief is waiting
                    // and the remainder is worth splitting.
                    if g.waiters > 0 && remaining > self.min_chunk {
                        let mid = bite + remaining / 2;
                        g.queue.push((mid, hi));
                        hi = mid;
                        true
                    } else {
                        g.done >= g.total
                    }
                };
                if split {
                    slot.cv.notify_all();
                }
                lo = bite;
            }
        }
        shared.detach_slot(self.key, round);
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
    fn cycle_is_fallible_not_deadlock() {
        let g = DepGroup::held();
        let ran = Arc::new(AtomicUsize::new(0));
        let r1 = Arc::clone(&ran);
        let r2 = Arc::clone(&ran);
        let a = g.spawn([], move || {
            r1.fetch_add(1, Ordering::SeqCst);
        });
        let b = g.spawn([], move || {
            r2.fetch_add(1, Ordering::SeqCst);
        });
        g.edge(a, b);
        g.edge(b, a);
        g.close();
        let err = g.release().unwrap_err();
        assert!(matches!(&err, DepError::Cycle { nodes } if nodes.len() == 2));
        // Joins fail fallibly too, and nothing ran.
        assert_eq!(g.wait(), Err(err.clone()));
        assert_eq!(g.run(), Err(err));
        assert_eq!(ran.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn held_release_without_cycle_runs() {
        let g = DepGroup::held();
        let order = Arc::new(Mutex::new(Vec::new()));
        let o1 = Arc::clone(&order);
        let o2 = Arc::clone(&order);
        let a = g.spawn([], move || o1.lock().push('a'));
        let b = g.spawn([], move || o2.lock().push('b'));
        g.edge(a, b);
        g.release().unwrap();
        g.wait().unwrap();
        assert_eq!(*order.lock(), vec!['a', 'b']);
    }

    #[test]
    fn empty_group_wait_is_immediate() {
        let g = DepGroup::new();
        g.wait().unwrap();
        let g = DepGroup::new();
        g.close();
        g.run().unwrap();
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
    /// `parked` of them sit at [`WaitSite::TaskWait`], the team's progress
    /// counter must stand still for as long as they sleep — the stall
    /// watchdog reads a moving counter as a live team. `release` then
    /// lets everyone finish.
    fn parked_members_make_no_progress(
        members: Vec<Box<dyn FnOnce() + Send>>,
        parked: usize,
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
        assert!(blocked.iter().all(|&(_, site)| site == WaitSite::TaskWait));
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
        parked_members_make_no_progress(vec![Box::new(move || g2.run().unwrap())], 1, || g.close());
    }

    #[test]
    fn member_parked_in_wait_makes_no_progress() {
        // Held: the one task cannot become ready, so the joiner cannot
        // help itself to it.
        let g = DepGroup::held();
        g.spawn([], || {});
        let g2 = g.clone();
        parked_members_make_no_progress(vec![Box::new(move || g2.wait().unwrap())], 1, || {
            g.release().unwrap()
        });
    }

    #[test]
    fn member_parked_in_run_undeferred_makes_no_progress() {
        let g = DepGroup::new();
        let go = Arc::new(AtomicBool::new(false));
        let go2 = Arc::clone(&go);
        g.spawn([Dep::output("x")], move || {
            while !go2.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        let g2 = g.clone();
        parked_members_make_no_progress(
            vec![Box::new(move || {
                g2.run_undeferred([Dep::input("x")], || {})
            })],
            1,
            || go.store(true, Ordering::Release),
        );
        g.wait().unwrap();
    }

    #[test]
    fn member_parked_in_taskloop_makes_no_progress() {
        // One window of one bite: whoever takes it sits in the body, the
        // other member waits for a split that never comes.
        let tl = Arc::new(TaskloopConstruct::new().min_chunk(8));
        let go = Arc::new(AtomicBool::new(false));
        let member = || -> Box<dyn FnOnce() + Send> {
            let (tl, go) = (Arc::clone(&tl), Arc::clone(&go));
            Box::new(move || {
                tl.execute(LoopRange::upto(0, 4), |_, _, _| {
                    while !go.load(Ordering::Acquire) {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                })
            })
        };
        parked_members_make_no_progress(vec![member(), member()], 1, || {
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
