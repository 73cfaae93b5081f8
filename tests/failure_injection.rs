//! Failure injection: panics inside parallel regions, work-sharing
//! constructs, gates and tasks must neither deadlock the team nor poison
//! the runtime for later work; hangs under a stall deadline must convert
//! into [`RegionError::Stalled`] diagnoses; and team cancellation must
//! stop chunked loops early in both programming styles.

use aomplib::prelude::*;
use aomplib::runtime::clock::VirtualClock;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The two cancellation-race tests below race a 100k-iteration dynamic
/// loop against the cancel flag in real time, so their iteration-count
/// assertions are load-sensitive. `AOMP_CHECK_NO_WALLCLOCK=1` (set by the
/// CI schedule-check job, whose runners are saturated by the checker)
/// skips them; the same races are covered deterministically in
/// `tests/schedule_exploration.rs` under PCT schedules.
fn wallclock_tests_disabled(test: &str) -> bool {
    let disabled = std::env::var_os("AOMP_CHECK_NO_WALLCLOCK").is_some_and(|v| v != "0");
    if disabled {
        eprintln!("{test}: skipped (AOMP_CHECK_NO_WALLCLOCK is set)");
    }
    disabled
}

fn runtime_still_works() {
    let hits = AtomicUsize::new(0);
    region::parallel_with(RegionConfig::new().threads(3), || {
        hits.fetch_add(1, Ordering::SeqCst);
        barrier();
    });
    assert_eq!(hits.load(Ordering::SeqCst), 3);
}

#[test]
fn worker_panic_unblocks_master_at_barrier() {
    let r = catch_unwind(AssertUnwindSafe(|| {
        region::parallel_with(RegionConfig::new().threads(3), || {
            if thread_id() == 2 {
                panic!("injected worker failure");
            }
            // The surviving threads block on a barrier the panicking
            // thread will never reach; poisoning must wake them.
            barrier();
        });
    }));
    assert!(r.is_err(), "panic must propagate to the region caller");
    runtime_still_works();
}

#[test]
fn master_panic_unblocks_workers() {
    let r = catch_unwind(AssertUnwindSafe(|| {
        region::parallel_with(RegionConfig::new().threads(3), || {
            if thread_id() == 0 {
                panic!("injected master failure");
            }
            barrier();
        });
    }));
    assert!(r.is_err());
    runtime_still_works();
}

#[test]
fn panic_in_for_body_propagates() {
    let for_c = ForConstruct::new(Schedule::Dynamic { chunk: 1 });
    let r = catch_unwind(AssertUnwindSafe(|| {
        region::parallel_with(RegionConfig::new().threads(2), || {
            for_c.execute(LoopRange::upto(0, 100), |lo, _hi, _step| {
                if lo == 3 {
                    panic!("injected loop failure");
                }
            });
        });
    }));
    assert!(r.is_err());
    runtime_still_works();
}

#[test]
fn panic_inside_single_releases_waiters() {
    let single = Single::new();
    let r = catch_unwind(AssertUnwindSafe(|| {
        region::parallel_with(RegionConfig::new().threads(3), || {
            let _: u32 = single.run(|| panic!("injected single failure"));
        });
    }));
    assert!(r.is_err(), "waiters observe poison instead of hanging");
    runtime_still_works();
}

#[test]
fn panic_inside_master_broadcast_releases_waiters() {
    let master = Master::new();
    let r = catch_unwind(AssertUnwindSafe(|| {
        region::parallel_with(RegionConfig::new().threads(3), || {
            let _: u32 = master.run(|| {
                if thread_id() == 0 {
                    panic!("injected master-broadcast failure");
                }
                1
            });
        });
    }));
    assert!(r.is_err());
    runtime_still_works();
}

#[test]
fn panicking_task_poisons_group_not_process() {
    let group = TaskGroup::new();
    group.spawn(|| panic!("injected task failure"));
    group.spawn(|| {});
    let g2 = group.clone();
    let r = catch_unwind(AssertUnwindSafe(|| g2.wait()));
    assert!(r.is_err(), "wait reports the failure");
    // The group keeps working afterwards.
    let done = std::sync::Arc::new(AtomicUsize::new(0));
    let d = std::sync::Arc::clone(&done);
    group.spawn(move || {
        d.fetch_add(1, Ordering::SeqCst);
    });
    group.wait();
    assert_eq!(done.load(Ordering::SeqCst), 1);
}

#[test]
fn future_task_panic_reaches_consumer() {
    let fut = task::spawn_future(|| -> u64 { panic!("injected producer failure") });
    let r = catch_unwind(AssertUnwindSafe(|| fut.get()));
    assert!(r.is_err());
    // Later futures are unaffected.
    assert_eq!(task::spawn_future(|| 7u64).get(), 7);
}

#[test]
fn critical_section_panic_does_not_wedge_the_lock() {
    let h = CriticalHandle::new();
    let r = catch_unwind(AssertUnwindSafe(|| {
        h.run(|| panic!("injected critical failure"));
    }));
    assert!(r.is_err());
    // The lock must be reusable (no poisoning like std::sync::Mutex).
    assert_eq!(h.run(|| 5), 5);
}

#[test]
fn weaver_woven_region_panic_propagates_and_recovers() {
    let aspect = AspectModule::builder("FailureWeave")
        .bind(
            Pointcut::call("fail.region"),
            Mechanism::parallel().threads(2),
        )
        .build();
    Weaver::global().with_deployed(aspect, || {
        let r = catch_unwind(AssertUnwindSafe(|| {
            aomp_weaver::call("fail.region", || {
                if thread_id() == 1 {
                    panic!("injected woven failure");
                }
                barrier();
            });
        }));
        assert!(r.is_err());
    });
    runtime_still_works();
}

#[test]
fn broadcast_panic_reports_original_payload_not_poison() {
    // The waiters unwind with TeamPoisoned; the fallible API must report
    // the executing thread's payload, not the siblings' poison echoes.
    let single = Single::new();
    let r = region::try_parallel_with(RegionConfig::new().threads(3), || {
        let _: u32 = single.run(|| panic!("injected single failure"));
    });
    assert_eq!(
        r,
        Err(RegionError::Panicked {
            payload_msg: "injected single failure".into()
        })
    );
    runtime_still_works();
}

#[test]
fn master_broadcast_panic_reports_original_payload_not_poison() {
    let master = Master::new();
    let r = region::try_parallel_with(RegionConfig::new().threads(3), || {
        let _: u32 = master.run(|| panic!("injected master-broadcast failure"));
    });
    assert_eq!(
        r,
        Err(RegionError::Panicked {
            payload_msg: "injected master-broadcast failure".into()
        })
    );
    runtime_still_works();
}

#[test]
fn hung_worker_is_diagnosed_as_stall_not_deadlock() {
    // The watchdog runs on virtual time: a 5-minute stall deadline
    // elapses in microseconds of wall-clock, so the test exercises the
    // diagnosis logic without sleeping out (or flaking on) real timers.
    let clock = VirtualClock::install();
    let deadline = Duration::from_secs(300);
    let started = Instant::now();
    // A worker stuck in user code can only be *abandoned* by the owning
    // executor (`try_parallel_detached`, body is `'static`): the borrowing
    // API always joins its workers, so there it would delay the return.
    let r = region::try_parallel_detached(
        RegionConfig::new().threads(4).stall_deadline(deadline),
        || {
            if thread_id() == 3 {
                // A lost worker: stuck in user code, never reaches the
                // barrier the rest of the team is waiting at.
                std::thread::sleep(Duration::from_secs(3600));
            }
            barrier();
        },
    );
    let elapsed = started.elapsed();
    drop(clock);
    match r {
        Err(RegionError::Stalled { blocked }) => {
            // The three healthy threads are named at the barrier; the
            // hung thread cannot be (it is in user code, not at a wait
            // site) — its absence from the list is the diagnosis.
            let mut tids: Vec<usize> = blocked.iter().map(|&(tid, _)| tid).collect();
            tids.sort_unstable();
            assert_eq!(tids, vec![0, 1, 2], "blocked set: {blocked:?}");
            assert!(blocked.iter().all(|&(_, site)| site == WaitSite::Barrier));
        }
        other => panic!("expected RegionError::Stalled, got {other:?}"),
    }
    assert!(
        elapsed < Duration::from_secs(30),
        "a virtual 5-minute deadline must elapse in (real) seconds at \
         most, took {elapsed:?}"
    );
    // The runtime is immediately reusable for healthy regions.
    runtime_still_works();
}

#[test]
fn team_deadlocked_on_a_dependence_graph_is_diagnosed_at_task_wait() {
    // Real time on purpose: both members sleep in `DepGroup::run` on a
    // group nobody closes. A parked member makes no progress, so the
    // watchdog must see the team stand still — a wait that re-registered
    // on every park tick kept bumping the progress counter and was never
    // diagnosed.
    let g = DepGroup::new();
    // On a thread of its own, so an undiagnosed deadlock fails the test
    // instead of hanging it.
    let (verdict, region) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let r = region::try_parallel_with(
            RegionConfig::new()
                .threads(2)
                .stall_deadline(Duration::from_millis(100)),
            || g.run().expect("no cycle"),
        );
        let _ = verdict.send(r);
    });
    let r = region
        .recv_timeout(Duration::from_secs(1))
        .expect("a 100 ms stall deadline fires within the second");
    match r {
        Err(RegionError::Stalled { mut blocked }) => {
            blocked.sort_unstable_by_key(|&(tid, _)| tid);
            assert_eq!(
                blocked,
                vec![(0, WaitSite::TaskWait), (1, WaitSite::TaskWait)]
            );
        }
        other => panic!("expected RegionError::Stalled, got {other:?}"),
    }
    runtime_still_works();
}

#[test]
fn members_blocked_on_a_held_critical_are_diagnosed_at_critical() {
    // Virtual time, like the hung worker above: the five-minute deadline
    // passes while both members wait on a lock held outside the team.
    // `@Replicated(id)` is `@Critical(id)`'s lock, so the woven and the
    // annotated spellings block on the held handle too.
    const NAME: &str = "failure_injection.held";
    #[aomplib::annotations::replicated(id = "failure_injection.held")]
    fn annotated() {
        unreachable!("the lock is held until the region returns")
    }
    let aspect = AspectModule::builder("held-replicated")
        .bind(
            Pointcut::call("failure_injection.woven"),
            Mechanism::replicated_named(NAME),
        )
        .build();
    let h = CriticalHandle::named(NAME);
    let (held, is_held) = std::sync::mpsc::channel();
    let (release, wait_release) = std::sync::mpsc::channel::<()>();
    let holder = {
        let h = h.clone();
        std::thread::spawn(move || {
            h.run(|| {
                held.send(()).unwrap();
                wait_release.recv().unwrap();
            })
        })
    };
    is_held.recv().unwrap();
    let entries: [(&str, &(dyn Fn() + Sync)); 3] = [
        ("handle", &|| {
            h.run(|| unreachable!("the lock is held until the region returns"))
        }),
        ("woven", &|| {
            call("failure_injection.woven", || {
                unreachable!("the lock is held")
            })
        }),
        ("annotated", &annotated),
    ];
    Weaver::global().with_deployed(aspect, || {
        for (input, enter) in entries {
            let clock = VirtualClock::install();
            let r = region::try_parallel_with(
                RegionConfig::new()
                    .threads(2)
                    .stall_deadline(Duration::from_secs(300)),
                enter,
            );
            drop(clock);
            match r {
                // Five virtual minutes may pass before the second member arrives.
                Err(RegionError::Stalled { blocked }) => {
                    assert!(!blocked.is_empty(), "{input}");
                    assert!(
                        blocked.iter().all(|&(_, site)| site == WaitSite::Critical),
                        "{input}: {blocked:?}"
                    );
                }
                other => panic!("{input}: expected RegionError::Stalled, got {other:?}"),
            }
        }
    });
    release.send(()).unwrap();
    holder.join().unwrap();
    assert_eq!(h.run(|| 5), 5);
}

#[test]
fn annotation_stall_deadline_converts_hang_to_panic() {
    // A synchronisation-level hang (the worker waits at a second barrier
    // round the master never joins): the cooperative watchdog cancels the
    // team, the worker unwinds, and the fully-joined region panics with
    // the stall diagnosis. Virtual time keeps the deadline a logic knob
    // rather than a real wait.
    #[aomplib::annotations::parallel(threads = 2, stall_deadline_ms = 250)]
    fn hung_region() {
        barrier();
        if thread_id() == 1 {
            barrier();
        }
    }
    let clock = VirtualClock::install();
    let r = catch_unwind(AssertUnwindSafe(hung_region));
    drop(clock);
    let msg = match r {
        Err(p) => p.downcast_ref::<String>().cloned().unwrap_or_default(),
        Ok(()) => panic!("hung annotated region must not return cleanly"),
    };
    assert!(
        msg.contains("stalled"),
        "panic should describe the stall: {msg}"
    );
    runtime_still_works();
}

#[test]
fn cancel_stops_dynamic_loop_early_annotation_style() {
    if wallclock_tests_disabled("cancel_stops_dynamic_loop_early_annotation_style") {
        return;
    }
    static SEEN: AtomicUsize = AtomicUsize::new(0);

    #[aomplib::annotations::for_loop(schedule = "dynamic", chunk = 1)]
    fn cancelled_loop(start: i64, end: i64, step: i64) {
        let mut i = start;
        while i < end {
            if SEEN.fetch_add(1, Ordering::SeqCst) == 40 {
                assert!(cancel_team(), "annotated team must be cancellable");
            }
            i += step;
        }
    }

    #[aomplib::annotations::parallel(threads = 3, cancellable)]
    fn cancelled_region() {
        cancelled_loop(0, 100_000, 1);
    }

    cancelled_region();
    let seen = SEEN.load(Ordering::SeqCst);
    assert!(seen > 40, "the trigger iteration must have run, saw {seen}");
    assert!(
        seen < 50_000,
        "cancellation must stop the dynamic loop well short of 100k iterations, saw {seen}"
    );
    runtime_still_works();
}

#[test]
fn cancel_stops_dynamic_loop_early_pointcut_style() {
    if wallclock_tests_disabled("cancel_stops_dynamic_loop_early_pointcut_style") {
        return;
    }
    let seen = AtomicUsize::new(0);
    let aspect = AspectModule::builder("CancelWeave")
        .bind(
            Pointcut::call("cancel.region"),
            Mechanism::parallel().threads(3).cancellable(),
        )
        .bind(
            Pointcut::call("cancel.loop"),
            Mechanism::for_loop(Schedule::Dynamic { chunk: 1 }),
        )
        .build();
    Weaver::global().with_deployed(aspect, || {
        aomp_weaver::call("cancel.region", || {
            aomp_weaver::call_for(
                "cancel.loop",
                LoopRange::upto(0, 100_000),
                |lo, hi, step| {
                    let mut i = lo;
                    while i < hi {
                        if seen.fetch_add(1, Ordering::SeqCst) == 40 {
                            assert!(cancel_team(), "woven team must be cancellable");
                        }
                        i += step;
                    }
                },
            );
        });
    });
    let seen = seen.load(Ordering::SeqCst);
    assert!(seen > 40, "the trigger iteration must have run, saw {seen}");
    assert!(
        seen < 50_000,
        "cancellation must stop the dynamic loop well short of 100k iterations, saw {seen}"
    );
    runtime_still_works();
}

#[test]
fn ordered_sections_survive_panic_elsewhere() {
    // A panic in a non-ordered thread must not deadlock the ordered
    // sequencer (poison check in its wait loop).
    let for_c = ForConstruct::new(Schedule::StaticCyclic);
    let r = catch_unwind(AssertUnwindSafe(|| {
        region::parallel_with(RegionConfig::new().threads(2), || {
            for_c.execute_scoped(LoopRange::upto(0, 10), |sub, scope| {
                for i in sub.iter() {
                    if i == 5 {
                        panic!("injected ordered failure");
                    }
                    scope.ordered(i, || {});
                }
            });
        });
    }));
    assert!(r.is_err());
    runtime_still_works();
}
