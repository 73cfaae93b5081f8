//! Exploration suite for `Schedule::Adaptive` — the self-refining
//! dispenser is the only schedule whose handout stream depends on
//! *observed latency*, so its checker story needs its own proofs:
//!
//! 1. Under an armed hook the dispenser stops sampling wall-clock
//!    (every thread stays cold), so the handout stream is a pure
//!    function of the explored interleaving — DFS enumeration stays
//!    duplicate-free and a replayed seed reproduces the stream
//!    byte-for-byte.
//! 2. Every explored interleaving still partitions the iteration space
//!    exactly once (including the steal path), keeps the race oracle
//!    silent on a tracked array written through disjoint chunks, and
//!    agrees with sequential semantics.

use aomp_check as check;
use aomplib::prelude::*;
use aomplib::runtime::cell::SyncSlice;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Mutex;

#[test]
fn dfs_adaptive_handouts_partition_exactly_once() {
    // The adaptive `@For`, and the taskloop that delegates to it.
    type Body<'a> = &'a (dyn Fn(i64, i64, i64) + Sync);
    type Execute<'a> = &'a (dyn Fn(LoopRange, Body) + Sync);
    let for_c = ForConstruct::new(Schedule::Adaptive { min_chunk: 2 });
    let taskloop = TaskloopConstruct::new().min_chunk(2);
    let constructs: [(&str, Execute); 2] = [
        ("for", &|range, body| for_c.execute(range, body)),
        ("taskloop", &|range, body| taskloop.execute(range, body)),
    ];
    for (name, execute) in constructs {
        let report = check::Explorer::new().races(true).dfs(20_000, 64, || {
            let seen: Vec<AtomicU32> = (0..17).map(|_| AtomicU32::new(0)).collect();
            region::parallel_with(RegionConfig::new().threads(2), || {
                execute(LoopRange::upto(0, 17), &|lo, hi, step| {
                    let mut i = lo;
                    while i < hi {
                        seen[i as usize].fetch_add(1, Ordering::SeqCst);
                        i += step;
                    }
                });
            });
            for (i, s) in seen.iter().enumerate() {
                assert_eq!(
                    s.load(Ordering::SeqCst),
                    1,
                    "{name}: iteration {i} must run exactly once in every interleaving"
                );
            }
        });
        report.assert_ok();
        assert!(
            report.schedules() > 1,
            "{name}: the dispenser must actually branch, got {}",
            report.schedules()
        );
        assert_eq!(
            report.distinct_schedules(),
            report.schedules(),
            "{name}: DFS enumerated a duplicate interleaving — the adaptive \
             dispenser leaked wall-clock into the explored state"
        );
    }
}

#[test]
fn adaptive_exploration_replays_byte_for_byte() {
    // The body records the handout stream (owner, lo, hi) in arrival
    // order — the most schedule-sensitive observable the dispenser has.
    // Replaying a seed must reproduce both the trace digest and the
    // stream itself; across seeds the stream must actually vary, or
    // this proves nothing.
    let run_once = |seed: u64| -> (String, u64) {
        let log = Mutex::new(String::new());
        let for_c = ForConstruct::new(Schedule::Adaptive { min_chunk: 2 });
        let run = check::Explorer::new().races(true).replay_random(seed, || {
            let handouts: Mutex<Vec<(usize, i64, i64)>> = Mutex::new(Vec::new());
            region::parallel_with(RegionConfig::new().threads(2), || {
                for_c.execute(LoopRange::upto(0, 23), |lo, hi, _step| {
                    handouts.lock().unwrap().push((thread_id(), lo, hi));
                });
            });
            *log.lock().unwrap() = format!("{:?}", handouts.lock().unwrap());
        });
        assert!(run.failure.is_none(), "{:?}", run.failure);
        (log.into_inner().unwrap(), run.trace.digest())
    };
    let mut streams = HashSet::new();
    for seed in 0..10u64 {
        let (a, da) = run_once(seed);
        let (b, db) = run_once(seed);
        assert_eq!(da, db, "seed {seed} did not replay the same schedule");
        assert_eq!(a, b, "seed {seed} gave two different handout streams");
        streams.insert(a);
    }
    assert!(
        streams.len() >= 2,
        "the handout stream must vary across seeds (got {} distinct); \
         otherwise replay determinism is vacuous",
        streams.len()
    );
}

#[test]
fn random_adaptive_chunks_keep_the_race_oracle_silent() {
    // A tracked shared array written strictly through the handed-out
    // chunks: disjoint by the partition invariant, so the vector-clock
    // oracle must stay silent on every explored interleaving — steals
    // included (min_chunk 1 maximises refinement and steal traffic).
    let for_c = ForConstruct::new(Schedule::Adaptive { min_chunk: 1 });
    let report =
        check::Explorer::new()
            .races(true)
            .random(check::seeds_from_env(32), 0xADA9, || {
                let mut data = vec![0usize; 11];
                {
                    let arr = SyncSlice::tracked(&mut data, "adaptive.disjoint");
                    region::parallel_with(RegionConfig::new().threads(2), || {
                        for_c.execute(LoopRange::upto(0, 11), |lo, hi, step| {
                            let mut i = lo;
                            while i < hi {
                                // SAFETY: the dispenser hands iteration i to
                                // exactly one thread.
                                unsafe { arr.set(i as usize, i as usize + 1) };
                                i += step;
                            }
                        });
                    });
                }
                for (i, v) in data.iter().enumerate() {
                    assert_eq!(*v, i + 1);
                }
            });
    report.assert_ok();
    assert!(report.schedules() > 1);
}

#[test]
fn pct_adaptive_strided_loop_matches_sequential() {
    // Three threads, strided range, PCT's adversarial priorities: the
    // differential oracle against a sequential fold of the same range.
    let for_c = ForConstruct::new(Schedule::ADAPTIVE);
    let seq: usize = {
        let mut sum = 0usize;
        let mut i = 3i64;
        while i < 50 {
            sum += (i * i) as usize;
            i += 2;
        }
        sum
    };
    check::Explorer::new()
        .races(true)
        .pct(check::seeds_from_env(24), 0xADA7, 3, || {
            let total = AtomicUsize::new(0);
            region::parallel_with(RegionConfig::new().threads(3), || {
                for_c.execute(LoopRange::new(3, 50, 2), |lo, hi, step| {
                    let mut local = 0usize;
                    let mut i = lo;
                    while i < hi {
                        local += (i * i) as usize;
                        i += step;
                    }
                    total.fetch_add(local, Ordering::SeqCst);
                });
            });
            assert_eq!(
                total.load(Ordering::SeqCst),
                seq,
                "adaptive loop diverged from sequential semantics"
            );
        })
        .assert_ok();
}
