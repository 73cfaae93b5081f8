//! Schedule exploration of the runtime's construct combinations through
//! the public facade: bounded-exhaustive (DFS) enumeration of 2–3-thread
//! barrier + critical + reduction combos, and PCT exploration of the
//! cancellation/watchdog machinery (cancel racing a barrier entry, cancel
//! racing a dynamic chunk handout, a stall deadline racing a normal
//! join), and the adaptive `if` clause standing aside under the checker.
//! Every test asserts the differential oracle (parallel result ==
//! sequential semantics) inside the explored closure; the invariant
//! oracles (barrier lockstep, broadcast source, critical alternation) run
//! automatically over every clean schedule's event log.

use aomp_check as check;
use aomplib::prelude::*;
use aomplib::runtime::reduction;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Barrier + critical combo, 2 threads: commutative updates on both sides
/// of a barrier, so every legal interleaving must land on the same total.
/// (A second *contended* critical after the barrier multiplies the space
/// to ~54k schedules — enumerable but slow — so the post-barrier side
/// uses an uncontended atomic instead.)
fn barrier_critical_combo() {
    let h = CriticalHandle::new();
    let total = AtomicUsize::new(0);
    region::parallel_with(RegionConfig::new().threads(2), || {
        h.run(|| {
            total.fetch_add(thread_id() + 1, Ordering::SeqCst);
        });
        barrier();
        total.fetch_add(10, Ordering::SeqCst);
    });
    // Sequential semantics: (1 + 2) before the barrier, 10 per member after.
    assert_eq!(total.load(Ordering::SeqCst), 23);
}

#[test]
fn dfs_exhausts_two_thread_barrier_critical_combo() {
    let report = check::Explorer::new()
        .races(true)
        .dfs(20_000, 64, barrier_critical_combo);
    report.assert_ok();
    assert!(
        !report.truncated,
        "2-thread combo must be enumerable within the budget"
    );
    assert!(report.schedules() > 1);
    // Pinned: a change to the critical or barrier protocol that alters
    // the hook-visible event sequence changes this count.
    assert_eq!(report.schedules(), 1536);
    assert_eq!(
        report.distinct_schedules(),
        report.schedules(),
        "DFS enumerated a duplicate interleaving"
    );
    // The enumeration itself is deterministic (same frontier both times).
    let again = check::Explorer::new()
        .races(true)
        .dfs(20_000, 64, barrier_critical_combo);
    assert_eq!(report.digests(), again.digests());
}

#[test]
fn dfs_exhausts_three_thread_critical_barrier_combo() {
    let report = check::Explorer::new().races(true).dfs(20_000, 10, || {
        let h = CriticalHandle::new();
        let total = AtomicUsize::new(0);
        region::parallel_with(RegionConfig::new().threads(3), || {
            h.run(|| {
                total.fetch_add(thread_id() + 1, Ordering::SeqCst);
            });
            barrier();
        });
        assert_eq!(total.load(Ordering::SeqCst), 6);
    });
    report.assert_ok();
    assert!(
        report.schedules() > 10,
        "3 threads must branch well past a handful of schedules, got {}",
        report.schedules()
    );
    // Pinned, like the two-thread combo's count: here it is the budget.
    assert_eq!(report.schedules(), 20_000);
    assert_eq!(report.distinct_schedules(), report.schedules());
}

#[test]
fn random_schedules_preserve_reduction_semantics() {
    let reducer = SumReducer;
    check::Explorer::new()
        .races(true)
        .random(check::seeds_from_env(32), 0x2ED0CE, || {
            let n = 3;
            let body = |tid: usize| (tid + 1) * (tid + 1);
            let par =
                reduction::parallel_reduce(RegionConfig::new().threads(n), 0usize, &reducer, body);
            let seq = reduction::sequential_reduce(n, 0usize, &reducer, body);
            assert_eq!(par, seq, "reduction diverged from sequential semantics");
        })
        .assert_ok();
}

#[test]
fn fixed_schedule_makes_float_reduction_bitwise_deterministic() {
    // A schedule-sensitive reduction: three members fold 0.1/0.2/0.3 into
    // a shared accumulator in critical-section order, so the *bit pattern*
    // of the result depends on the interleaving. Under a fixed seed the
    // checker serialises that order, so replaying the seed must reproduce
    // the sum bitwise — the paper's determinism claim made schedule-local.
    let run_once = |seed: u64| -> (u64, u64) {
        let bits = Mutex::new(0u64);
        let run = check::Explorer::new().races(true).replay_random(seed, || {
            let h = CriticalHandle::new();
            let acc = Mutex::new(0.0f64);
            region::parallel_with(RegionConfig::new().threads(3), || {
                let v = (thread_id() as f64 + 1.0) * 0.1;
                h.run(|| {
                    *acc.lock().unwrap() += v;
                });
            });
            *bits.lock().unwrap() = acc.lock().unwrap().to_bits();
        });
        assert!(run.failure.is_none(), "{:?}", run.failure);
        let out = *bits.lock().unwrap();
        (out, run.trace.digest())
    };
    let mut sums = HashSet::new();
    for seed in 0..12u64 {
        let (a, da) = run_once(seed);
        let (b, db) = run_once(seed);
        assert_eq!(da, db, "seed {seed} did not replay the same schedule");
        assert_eq!(a, b, "seed {seed} gave two different bit patterns");
        sums.insert(a);
    }
    assert!(
        sums.len() >= 2,
        "the fold order must actually vary across seeds (got {} distinct \
         bit patterns); otherwise this test proves nothing",
        sums.len()
    );
}

#[test]
fn pct_cancel_racing_barrier_entry_is_never_lost() {
    check::Explorer::new()
        .races(true)
        .pct(check::seeds_from_env(32), 0xCAB0, 3, || {
            let r =
                region::try_parallel_with(RegionConfig::new().threads(2).cancellable(true), || {
                    if thread_id() == 0 {
                        assert!(cancel_team());
                    }
                    barrier();
                });
            assert_eq!(
                r,
                Err(RegionError::Cancelled),
                "a cancel racing the barrier entry must cancel the region in \
             every interleaving"
            );
        })
        .assert_ok();
}

#[test]
fn pct_cancel_racing_dynamic_chunk_handout_stops_the_loop() {
    let for_c = ForConstruct::new(Schedule::Dynamic { chunk: 1 });
    check::Explorer::new()
        .races(true)
        .pct(check::seeds_from_env(32), 0xCA2C, 3, || {
            let seen = AtomicUsize::new(0);
            let r =
                region::try_parallel_with(RegionConfig::new().threads(2).cancellable(true), || {
                    for_c.execute(LoopRange::upto(0, 40), |_lo, _hi, _step| {
                        if seen.fetch_add(1, Ordering::SeqCst) == 5 {
                            assert!(cancel_team());
                        }
                    });
                });
            assert_eq!(r, Err(RegionError::Cancelled));
            let seen = seen.load(Ordering::SeqCst);
            assert!(seen > 5, "the trigger iteration ran, saw {seen}");
            assert!(
                seen < 40,
                "cancellation must beat the remaining chunk handouts in every \
             interleaving, saw {seen}"
            );
        })
        .assert_ok();
}

#[test]
fn dfs_race_oracle_stays_quiet_on_barrier_separated_phases() {
    // Tracked shared array, two threads, two phases separated by a
    // barrier: phase 1 writes the own half, phase 2 reads the *other*
    // half. Correctly synchronised, so the race oracle must stay silent
    // on every enumerated interleaving while still observing every
    // instrumented access.
    use aomplib::runtime::cell::SyncSlice;
    let report = check::Explorer::new().races(true).dfs(20_000, 64, || {
        let mut data = vec![0usize; 4];
        let total = AtomicUsize::new(0);
        {
            let arr = SyncSlice::tracked(&mut data, "explore.phased");
            region::parallel_with(RegionConfig::new().threads(2), || {
                let me = thread_id();
                // SAFETY: indices 2·me.. are owned by this member here.
                unsafe {
                    arr.set(2 * me, me + 1);
                    arr.set(2 * me + 1, me + 10);
                }
                barrier();
                let other = 1 - me;
                // SAFETY: reads of the other half are ordered by the barrier.
                let sum = unsafe { arr.read(2 * other) + arr.read(2 * other + 1) };
                total.fetch_add(sum, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 1 + 10 + 2 + 11);
    });
    report.assert_ok();
    assert!(report.schedules() > 1);
}

#[test]
fn adaptive_if_clause_runs_the_configured_team_under_the_checker() {
    // Explored schedules depend on the seed alone, so an adaptive `if`
    // clause stands aside while the checker's hook is registered: every
    // entry runs the full team, including the warm-up entries that would
    // otherwise run alone.
    use aomplib::runtime::region::Gate;
    use std::sync::Arc;
    let cfg = RegionConfig::new()
        .threads(2)
        .adaptive(Arc::new(Gate::new()));
    check::Explorer::new()
        .races(true)
        .random(check::seeds_from_env(16), 0xADA97, || {
            for entry in 0..6 {
                let members = AtomicUsize::new(0);
                region::parallel_with(cfg.clone(), || {
                    members.fetch_add(1, Ordering::SeqCst);
                    barrier();
                });
                assert_eq!(members.load(Ordering::SeqCst), 2, "entry {entry}");
            }
        })
        .assert_ok();
}

#[test]
fn pct_stall_deadline_never_fires_on_a_live_schedule() {
    // A healthy region under a generous stall deadline: no explored
    // interleaving may trip the watchdog (the checker's pauses are
    // microseconds of wall-clock; the deadline is seconds).
    check::Explorer::new()
        .races(true)
        .pct(check::seeds_from_env(24), 0x57A11, 3, || {
            let hits = AtomicUsize::new(0);
            let r = region::try_parallel_with(
                RegionConfig::new()
                    .threads(2)
                    .stall_deadline(std::time::Duration::from_secs(30)),
                || {
                    hits.fetch_add(1, Ordering::SeqCst);
                    barrier();
                    hits.fetch_add(1, Ordering::SeqCst);
                },
            );
            assert_eq!(r, Ok(()), "the watchdog fired on a live schedule");
            assert_eq!(hits.load(Ordering::SeqCst), 4);
        })
        .assert_ok();
}
