//! Property tests for the vector-clock layer: seeded generators produce
//! *well-formed* `HookEvent` streams — full-team barrier rounds between
//! phases of member-disjoint accesses, matched critical acquire/release
//! around every shared-counter access — and the tracker must never
//! report a race on them. Then the same stream with exactly one
//! synchronisation edge removed (one barrier round, or one lock acquire)
//! must report a race: the mutation is precisely what made the access
//! pair concurrent.
//!
//! The generators rotate location ownership by one member per phase and
//! rotate the lock holder per episode, so every dropped edge is
//! guaranteed to leave a cross-thread conflicting pair behind — the
//! mutated stream is racy by construction, not by luck.

use aomp::check::AccessEvent;
use aomp::hook::HookEvent;
use aomp_check::rng::SplitMix64;
use aomp_check::vclock::RaceTracker;

const TEAM: usize = 1;

/// One element of a serialised schedule: a hook event or a tracked
/// access by a member.
#[derive(Debug, Clone)]
enum Item {
    Ev(HookEvent),
    Acc(usize, AccessEvent),
}

fn access(loc: usize, is_write: bool) -> AccessEvent {
    AccessEvent {
        addr: 0x1000 + loc * 8,
        name: "arr",
        index: loc,
        is_write,
    }
}

fn barrier_exit(tid: usize) -> HookEvent {
    HookEvent::BarrierExit {
        team: TEAM,
        tid,
        leader: tid == 0,
    }
}

fn run(items: &[Item]) -> RaceTracker {
    let mut tr = RaceTracker::new();
    for it in items {
        match it {
            Item::Ev(e) => tr.on_event(e),
            Item::Acc(tid, a) => tr.on_access(*tid, a),
        }
    }
    tr
}

fn shuffle<T>(r: &mut SplitMix64, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = r.below(i + 1);
        v.swap(i, j);
    }
}

fn region_start(n: usize) -> Vec<Item> {
    let mut items = vec![Item::Ev(HookEvent::RegionStart {
        team: TEAM,
        size: n,
        level: 1,
    })];
    for t in 0..n {
        items.push(Item::Ev(HookEvent::MemberStart { team: TEAM, tid: t }));
    }
    items
}

fn region_end(n: usize) -> Vec<Item> {
    let mut items: Vec<Item> = (0..n)
        .map(|t| Item::Ev(HookEvent::MemberEnd { team: TEAM, tid: t }))
        .collect();
    items.push(Item::Ev(HookEvent::RegionEnd { team: TEAM }));
    items
}

/// A phased program: `phases` phases of member-disjoint array accesses
/// (member `t` owns location `l` in phase `p` iff `l ≡ t + p (mod n)`,
/// so every location changes owner every phase), each phase boundary a
/// full barrier round in random member order. Returns the items plus
/// the index ranges of each barrier round, for the mutation test.
fn phased_program(r: &mut SplitMix64, n: usize, phases: usize) -> (Vec<Item>, Vec<(usize, usize)>) {
    let locations = 2 * n;
    let mut items = region_start(n);
    let mut rounds = Vec::new();
    for p in 0..phases {
        // Every member writes each owned location once and re-reads a
        // random owned location; the per-phase item order is shuffled
        // (ownership is disjoint, so any serialisation is race-free).
        let mut phase: Vec<Item> = Vec::new();
        for t in 0..n {
            for l in 0..locations {
                if l % n == (t + p) % n {
                    phase.push(Item::Acc(t, access(l, true)));
                    if r.below(2) == 0 {
                        phase.push(Item::Acc(t, access(l, false)));
                    }
                }
            }
        }
        shuffle(r, &mut phase);
        items.extend(phase);
        if p + 1 < phases {
            let start = items.len();
            let mut order: Vec<usize> = (0..n).collect();
            shuffle(r, &mut order);
            for t in order {
                items.push(Item::Ev(barrier_exit(t)));
            }
            rounds.push((start, items.len()));
        }
    }
    items.extend(region_end(n));
    (items, rounds)
}

/// A lock program: `episodes` critical episodes on one lock, the holder
/// rotating per episode (adjacent episodes always run on different
/// members), each episode a matched acquire → shared-counter write →
/// release. Returns the items plus the index of each episode's acquire.
fn lock_program(r: &mut SplitMix64, n: usize, episodes: usize) -> (Vec<Item>, Vec<usize>) {
    let mut items = region_start(n);
    let mut acquires = Vec::new();
    let base = r.below(n);
    for e in 0..episodes {
        let t = (base + e) % n;
        acquires.push(items.len());
        items.push(Item::Ev(HookEvent::CriticalAcquire {
            team: TEAM,
            tid: t,
            lock: 0xC,
        }));
        items.push(Item::Acc(t, access(500, true)));
        if r.below(2) == 0 {
            items.push(Item::Acc(t, access(500, false)));
        }
        items.push(Item::Ev(HookEvent::CriticalRelease {
            team: TEAM,
            tid: t,
            lock: 0xC,
        }));
    }
    items.extend(region_end(n));
    (items, acquires)
}

/// A node-replication program on one replicated structure: `episodes`
/// replay passes on replica 0, the replaying member rotating per episode
/// (adjacent passes always run on different members). Episode `e` by
/// member `c`:
///
/// * a writer `p ≠ c` (on another replica) writes the op payload
///   (location `700 + e`) and appends it (`NrAppend`),
/// * the replaying member acquires (`NrCombine`), reads the payload,
///   applies it to the replica state (location 600, write), and releases
///   (`NrSync`).
///
/// Returns the items plus the index of each episode's `NrAppend` and
/// `NrCombine`, for the mutation tests: the append is what orders the
/// replayer's payload read after the writer's write; the combine is
/// what orders episode `e`'s state write after episode `e - 1`'s.
fn nr_program(
    r: &mut SplitMix64,
    n: usize,
    episodes: usize,
) -> (Vec<Item>, Vec<usize>, Vec<usize>) {
    const NR: usize = 7;
    let mut items = region_start(n);
    let mut appends = Vec::new();
    let mut combines = Vec::new();
    let base = r.below(n);
    for e in 0..episodes {
        let c = (base + e) % n;
        let p = (c + 1 + r.below(n - 1)) % n;
        items.push(Item::Acc(p, access(700 + e, true)));
        appends.push(items.len());
        items.push(Item::Ev(HookEvent::NrAppend {
            team: TEAM,
            tid: p,
            nr: NR,
            lo: e as u64,
            hi: e as u64 + 1,
        }));
        combines.push(items.len());
        items.push(Item::Ev(HookEvent::NrCombine {
            team: TEAM,
            tid: c,
            nr: NR,
            replica: 0,
            lo: e as u64,
            hi: e as u64 + 1,
        }));
        items.push(Item::Acc(c, access(700 + e, false)));
        items.push(Item::Acc(c, access(600, true)));
        if r.below(2) == 0 {
            items.push(Item::Acc(c, access(600, false)));
        }
        items.push(Item::Ev(HookEvent::NrSync {
            team: TEAM,
            tid: c,
            nr: NR,
            replica: 0,
            upto: e as u64 + 1,
        }));
    }
    items.extend(region_end(n));
    (items, appends, combines)
}

/// A dependence-chain program: `episodes` tasks passing one tracked
/// location (900) along a release→acquire chain, the runner rotating
/// per episode (adjacent tasks always run on different members).
/// Episode `e` by member `t`:
///
/// * for `e > 0`, the runner acquires its dependence node
///   (`TaskDepReady { node: NODE + e }`) — all its `depend` clauses are
///   satisfied,
/// * the task body reads the handoff location (for `e > 0`) and
///   rewrites it,
/// * completion satisfies the successor's dependence
///   (`TaskDepRelease { node: NODE + e + 1 }`).
///
/// Returns the items plus the index of each episode's release — the one
/// edge that orders episode `e + 1`'s accesses after episode `e`'s
/// write.
fn dep_program(r: &mut SplitMix64, n: usize, episodes: usize) -> (Vec<Item>, Vec<usize>) {
    const NODE: usize = 0xD00;
    let mut items = region_start(n);
    let mut releases = Vec::new();
    let base = r.below(n);
    for e in 0..episodes {
        let t = (base + e) % n;
        if e > 0 {
            items.push(Item::Ev(HookEvent::TaskDepReady {
                team: TEAM,
                tid: t,
                node: NODE + e,
            }));
            items.push(Item::Acc(t, access(900, false)));
        }
        items.push(Item::Acc(t, access(900, true)));
        releases.push(items.len());
        items.push(Item::Ev(HookEvent::TaskDepRelease {
            team: TEAM,
            tid: t,
            node: NODE + e + 1,
        }));
    }
    items.extend(region_end(n));
    (items, releases)
}

fn params(seed: u64) -> (SplitMix64, usize) {
    let mut r = SplitMix64::new(seed);
    let n = 2 + r.below(3); // 2..=4 members
    (r, n)
}

#[test]
fn well_formed_phased_streams_never_report_a_race() {
    for seed in 0..60u64 {
        let (mut r, n) = params(seed);
        let phases = 2 + r.below(3);
        let (items, _) = phased_program(&mut r, n, phases);
        let tr = run(&items);
        assert!(
            tr.race().is_none(),
            "seed {seed}: false positive on a barrier-separated stream: {}",
            tr.race().unwrap()
        );
    }
}

#[test]
fn well_formed_lock_streams_never_report_a_race() {
    for seed in 0..60u64 {
        let (mut r, n) = params(seed);
        let episodes = 2 + r.below(5);
        let (items, _) = lock_program(&mut r, n, episodes);
        let tr = run(&items);
        assert!(
            tr.race().is_none(),
            "seed {seed}: false positive on a lock-chained stream: {}",
            tr.race().unwrap()
        );
    }
}

#[test]
fn dropping_one_barrier_round_makes_the_cross_phase_pair_concurrent() {
    for seed in 0..60u64 {
        let (mut r, n) = params(seed);
        let phases = 2 + r.below(3);
        let (items, rounds) = phased_program(&mut r, n, phases);
        assert!(!rounds.is_empty());
        // Drop one whole barrier round: the two phases it separated now
        // write the same (re-owned) locations with no ordering edge.
        let (lo, hi) = rounds[r.below(rounds.len())];
        let mutated: Vec<Item> = items[..lo].iter().chain(&items[hi..]).cloned().collect();
        let tr = run(&mutated);
        let race = tr
            .race()
            .unwrap_or_else(|| panic!("seed {seed}: dropped barrier round left no race behind"));
        assert!(
            race.prior.tid != race.current.tid,
            "seed {seed}: a race needs two members: {race}"
        );
    }
}

#[test]
fn well_formed_nr_streams_never_report_a_race() {
    for seed in 0..60u64 {
        let (mut r, n) = params(seed);
        let episodes = 2 + r.below(5);
        let (items, _, _) = nr_program(&mut r, n, episodes);
        let tr = run(&items);
        assert!(
            tr.race().is_none(),
            "seed {seed}: false positive on an append/combine/sync-chained stream: {}",
            tr.race().unwrap()
        );
    }
}

#[test]
fn dropping_one_nr_combine_makes_the_replica_writes_concurrent() {
    for seed in 0..60u64 {
        let (mut r, n) = params(seed);
        let episodes = 2 + r.below(5);
        let (items, _, combines) = nr_program(&mut r, n, episodes);
        // Drop the acquire edge of one pass past the first: its replica
        // state write is no longer ordered after its predecessor's
        // (adjacent passes always run on different members).
        let victim = combines[1 + r.below(combines.len() - 1)];
        let mutated: Vec<Item> = items[..victim]
            .iter()
            .chain(&items[victim + 1..])
            .cloned()
            .collect();
        let tr = run(&mutated);
        let race = tr
            .race()
            .unwrap_or_else(|| panic!("seed {seed}: dropped NrCombine left no race behind"));
        // The combine was the acquire edge for both the episode's
        // payload read and its replica-state write; whichever access
        // comes first is the reported race.
        assert!(
            race.current.index == 600 || race.current.index >= 700,
            "seed {seed}: race must be on the replica state or the episode payload: {race}"
        );
        assert!(race.prior.tid != race.current.tid, "seed {seed}: {race}");
    }
}

#[test]
fn dropping_one_nr_append_unorders_the_op_payload_handoff() {
    for seed in 0..60u64 {
        let (mut r, n) = params(seed);
        let episodes = 2 + r.below(5);
        let (items, appends, _) = nr_program(&mut r, n, episodes);
        // Drop one append edge: the replayer's read of that episode's
        // op payload is no longer ordered after the writer's write (the
        // writer is always a different member than the replayer).
        let victim = appends[r.below(appends.len())];
        let mutated: Vec<Item> = items[..victim]
            .iter()
            .chain(&items[victim + 1..])
            .cloned()
            .collect();
        let tr = run(&mutated);
        let race = tr
            .race()
            .unwrap_or_else(|| panic!("seed {seed}: dropped NrAppend left no race behind"));
        assert!(
            race.current.index >= 700,
            "seed {seed}: race must be on an op payload: {race}"
        );
        assert!(race.prior.tid != race.current.tid, "seed {seed}: {race}");
    }
}

#[test]
fn well_formed_dep_chains_never_report_a_race() {
    for seed in 0..60u64 {
        let (mut r, n) = params(seed);
        let episodes = 2 + r.below(5);
        let (items, _) = dep_program(&mut r, n, episodes);
        let tr = run(&items);
        assert!(
            tr.race().is_none(),
            "seed {seed}: false positive on a dependence-chained stream: {}",
            tr.race().unwrap()
        );
    }
}

#[test]
fn dropping_one_dep_release_makes_the_handoff_concurrent() {
    for seed in 0..60u64 {
        let (mut r, n) = params(seed);
        let episodes = 2 + r.below(5);
        let (items, releases) = dep_program(&mut r, n, episodes);
        // Drop one release short of the last (the last satisfies no
        // successor): the next task's handoff read and rewrite are no
        // longer ordered after this task's write (adjacent tasks always
        // run on different members) — exactly a missing `depend` clause.
        let victim = releases[r.below(releases.len() - 1)];
        let mutated: Vec<Item> = items[..victim]
            .iter()
            .chain(&items[victim + 1..])
            .cloned()
            .collect();
        let tr = run(&mutated);
        let race = tr
            .race()
            .unwrap_or_else(|| panic!("seed {seed}: dropped dependence release left no race"));
        assert_eq!(
            race.current.index, 900,
            "seed {seed}: race must be on the handoff location: {race}"
        );
        assert!(race.prior.tid != race.current.tid, "seed {seed}: {race}");
    }
}

#[test]
fn acquiring_the_wrong_dep_node_carries_no_edge() {
    // Per-node precision: redirecting one task's acquire to a node
    // nothing released toward must leave the handoff racy — the edge is
    // per dependence node, never a conservative whole-group join.
    for seed in 0..60u64 {
        let (mut r, n) = params(seed);
        let episodes = 2 + r.below(5);
        let (mut items, _) = dep_program(&mut r, n, episodes);
        let mut readies: Vec<usize> = Vec::new();
        for (i, it) in items.iter().enumerate() {
            if matches!(it, Item::Ev(HookEvent::TaskDepReady { .. })) {
                readies.push(i);
            }
        }
        assert!(!readies.is_empty());
        let victim = readies[r.below(readies.len())];
        if let Item::Ev(HookEvent::TaskDepReady { node, .. }) = &mut items[victim] {
            *node = 0xFFFF; // a node with no releases published toward it
        }
        let tr = run(&items);
        let race = tr
            .race()
            .unwrap_or_else(|| panic!("seed {seed}: wrong-node acquire left no race"));
        assert_eq!(race.current.index, 900, "seed {seed}: {race}");
        assert!(race.prior.tid != race.current.tid, "seed {seed}: {race}");
    }
}

#[test]
fn dropping_one_lock_acquire_makes_the_critical_pair_concurrent() {
    for seed in 0..60u64 {
        let (mut r, n) = params(seed);
        let episodes = 2 + r.below(5);
        let (items, acquires) = lock_program(&mut r, n, episodes);
        // Drop the acquire of one episode past the first: that episode's
        // counter write is no longer ordered after its predecessor's
        // (adjacent episodes always run on different members).
        let victim = acquires[1 + r.below(acquires.len() - 1)];
        let mutated: Vec<Item> = items[..victim]
            .iter()
            .chain(&items[victim + 1..])
            .cloned()
            .collect();
        let tr = run(&mutated);
        let race = tr
            .race()
            .unwrap_or_else(|| panic!("seed {seed}: dropped acquire left no race behind"));
        assert_eq!(
            race.current.index, 500,
            "seed {seed}: wrong location: {race}"
        );
        assert!(race.prior.tid != race.current.tid, "seed {seed}: {race}");
    }
}
