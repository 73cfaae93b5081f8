//! Integration suite for `aomp-serve`: tenant isolation under schedule
//! exploration (one tenant's faults never perturb another's counter
//! scope), deterministic overload shedding, deadline propagation,
//! cooperative retry, and fault-injection liveness.
//!
//! The exploration tests honour `AOMP_CHECK_SEEDS`; fault plans are
//! seeded, so every run replays the same per-request fault decisions.

use aomp_check as check;
use aomp_serve::{
    loadgen, Backoff, DeadlineCause, FaultPlan, Request, ServeError, Server, TenantSpec, Workload,
};
use aomplib::runtime::obs::Counter;
use std::time::{Duration, Instant};

const LONG: Duration = Duration::from_secs(30);

fn two_tenant_server(aggressor_faults: FaultPlan) -> Server {
    Server::config()
        .graph(512, 6, 9)
        .tenant(
            TenantSpec::new("aggressor")
                .threads(2)
                .queue_capacity(4)
                .default_deadline(LONG)
                .faults(aggressor_faults),
        )
        .tenant(
            TenantSpec::new("victim")
                .threads(2)
                .queue_capacity(4)
                .default_deadline(LONG),
        )
        .build()
}

/// The tenant-isolation invariant, explored over schedules: tenant 0
/// cancels every request it admits, tenant 1 runs clean work, and after
/// both resolve the victim's counter scope must show exactly its own
/// activity — no shed, no fault, no deadline miss leaked across the
/// runtime boundary.
#[test]
fn exploration_cancel_in_one_tenant_never_perturbs_the_other() {
    check::Explorer::new()
        .races(true)
        .random(check::seeds_from_env(8), 0x5E21E, || {
            let srv = two_tenant_server(FaultPlan::none().seed(3).cancel_fraction(1.0));
            let before_victim = srv.tenant_runtime(1).metrics_snapshot();
            let before_aggr = srv.tenant_runtime(0).metrics_snapshot();
            let w = Workload::SumRange { n: 4_000 };
            let aggr = srv.submit(0, Request::new(w)).expect("admitted");
            let victim = srv.submit(1, Request::new(w)).expect("admitted");
            assert_eq!(
                victim.wait().expect("victim must complete"),
                srv.expected_output(w)
            );
            assert!(matches!(aggr.wait(), Err(ServeError::Cancelled)));
            assert!(srv.drain(LONG), "server failed to drain");
            check::oracle::check_tenant_isolation(
                &before_victim,
                &srv.tenant_runtime(1).metrics_snapshot(),
                &[(Counter::ServeAccepted, 1), (Counter::ServeCompleted, 1)],
                &[
                    Counter::ServeShed,
                    Counter::ServeFaulted,
                    Counter::ServeDeadlineMissed,
                    Counter::ServeFaultInjected,
                ],
            )
            .expect("victim scope perturbed by neighbour's cancellation");
            check::oracle::check_tenant_isolation(
                &before_aggr,
                &srv.tenant_runtime(0).metrics_snapshot(),
                &[
                    (Counter::ServeFaulted, 1),
                    (Counter::ServeFaultInjected, 1),
                    (Counter::ServeCompleted, 0),
                ],
                &[],
            )
            .expect("aggressor scope must record its own fault exactly once");
        })
        .assert_ok();
}

/// Same invariant with a panicking aggressor, explored under PCT (the
/// preemption-bounded searcher reaches panic/unwind interleavings the
/// uniform sampler tends to miss).
#[test]
fn exploration_panic_in_one_tenant_never_perturbs_the_other() {
    check::Explorer::new()
        .races(true)
        .pct(check::seeds_from_env(8), 0xA0317, 3, || {
            let srv = two_tenant_server(FaultPlan::none().seed(5).panic_fraction(1.0));
            let before_victim = srv.tenant_runtime(1).metrics_snapshot();
            let w = Workload::DegreeSum { rounds: 1 };
            let aggr = srv.submit(0, Request::new(w)).expect("admitted");
            let victim = srv.submit(1, Request::new(w)).expect("admitted");
            assert_eq!(
                victim.wait().expect("victim must complete"),
                srv.expected_output(w)
            );
            assert!(matches!(aggr.wait(), Err(ServeError::Faulted { .. })));
            assert!(srv.drain(LONG), "server failed to drain");
            check::oracle::check_tenant_isolation(
                &before_victim,
                &srv.tenant_runtime(1).metrics_snapshot(),
                &[(Counter::ServeAccepted, 1), (Counter::ServeCompleted, 1)],
                &[
                    Counter::ServeShed,
                    Counter::ServeFaulted,
                    Counter::ServeDeadlineMissed,
                ],
            )
            .expect("victim scope perturbed by neighbour's panic");
        })
        .assert_ok();
}

/// Deterministic overload: a burst of 24 requests against capacity 3
/// must shed some, resolve every accepted one, and keep the counter
/// choreography `accepted == completed + missed + faulted` exact. The
/// accepted requests' observed p99 stays within the (generous) deadline
/// — overload degrades by rejection, not by queue collapse.
#[test]
fn burst_overload_sheds_and_accepted_requests_stay_fast() {
    let srv = Server::config()
        .graph(512, 6, 2)
        .tenant(
            TenantSpec::new("hot")
                .threads(2)
                .queue_capacity(3)
                .default_deadline(LONG),
        )
        .build();
    let w = Workload::SumRange { n: 100_000 };
    let mut handles = Vec::new();
    let mut shed = 0u64;
    for _ in 0..24 {
        match srv.submit(0, Request::new(w)) {
            Ok(h) => handles.push((Instant::now(), h)),
            Err(ServeError::Shed { retry_after, .. }) => {
                assert!(retry_after >= Duration::from_millis(1));
                shed += 1;
            }
            Err(other) => panic!("unexpected submit outcome: {other}"),
        }
    }
    assert!(shed > 0, "a 24-deep burst against capacity 3 must shed");
    let mut waits: Vec<Duration> = Vec::new();
    for (submitted, h) in handles {
        h.wait().expect("accepted request must complete");
        waits.push(submitted.elapsed());
    }
    assert!(srv.drain(LONG));
    waits.sort_unstable();
    let p99 = waits[(waits.len() * 99 / 100).min(waits.len() - 1)];
    assert!(p99 < LONG, "accepted p99 {p99:?} blew the deadline");
    let snap = srv.tenant_runtime(0).metrics_snapshot();
    assert_eq!(snap.counter(Counter::ServeShed), shed);
    assert_eq!(
        snap.counter(Counter::ServeAccepted),
        snap.counter(Counter::ServeCompleted)
            + snap.counter(Counter::ServeDeadlineMissed)
            + snap.counter(Counter::ServeFaulted),
        "counter choreography broken after drain"
    );
}

/// Deadline propagation: a request whose budget cannot cover its work
/// resolves as `DeadlineExceeded` instead of hanging, and the miss is
/// attributed to the right counter.
#[test]
fn impossible_deadline_resolves_as_deadline_exceeded() {
    let srv = Server::config()
        .graph(512, 6, 4)
        .tenant(TenantSpec::new("t").threads(2).queue_capacity(2))
        .build();
    let req =
        Request::new(Workload::SumRange { n: 80_000_000 }).deadline(Duration::from_millis(10));
    let started = Instant::now();
    match srv.submit(0, req).expect("admitted").wait() {
        Err(ServeError::DeadlineExceeded { budget, .. }) => {
            assert_eq!(budget, Duration::from_millis(10))
        }
        other => panic!("expected a deadline miss, got {other:?}"),
    }
    assert!(
        started.elapsed() < LONG,
        "deadline miss took unreasonably long to surface"
    );
    assert!(srv.drain(LONG));
    let snap = srv.tenant_runtime(0).metrics_snapshot();
    assert_eq!(snap.counter(Counter::ServeDeadlineMissed), 1);
    assert_eq!(snap.counter(Counter::ServeCompleted), 0);
}

/// Cooperative retry: with capacity 1 and a slow request holding the
/// slot, a second client's jittered-backoff resubmission eventually
/// lands, and the retries are visible in the tenant's scope.
#[test]
fn shed_request_lands_after_backoff_retries() {
    let srv = Server::config()
        .graph(512, 6, 5)
        .tenant(
            TenantSpec::new("narrow")
                .threads(1)
                .queue_capacity(1)
                .default_deadline(LONG),
        )
        .build();
    let slow = srv
        .submit(0, Request::new(Workload::SumRange { n: 30_000_000 }))
        .expect("slot free");
    let policy = Backoff {
        base: Duration::from_millis(2),
        max_attempts: 200,
        max_delay: Duration::from_millis(50),
        ..Backoff::default()
    };
    let fast = Request::new(Workload::SumRange { n: 1_000 });
    let handle = aomp_serve::submit_with_retry(&srv, 0, &fast, &policy)
        .expect("retry must eventually land once the slow request drains");
    handle.wait().expect("retried request must complete");
    slow.wait().expect("slow request must complete");
    assert!(srv.drain(LONG));
    let snap = srv.tenant_runtime(0).metrics_snapshot();
    assert_eq!(snap.counter(Counter::ServeCompleted), 2);
    // The narrow tenant may or may not have shed depending on timing of
    // the first submit; if it shed, retries must be recorded.
    assert_eq!(
        snap.counter(Counter::ServeShed) > 0,
        snap.counter(Counter::ServeRetries) > 0,
        "sheds and retries must appear together"
    );
}

/// Liveness under a mixed fault storm: panics and cancels injected into
/// a third of all requests, yet the server drains, keeps its books
/// balanced, and still serves clean traffic afterwards.
#[test]
fn fault_storm_leaves_server_live_and_books_balanced() {
    let srv = Server::config()
        .graph(512, 6, 6)
        .tenant(
            TenantSpec::new("stormy")
                .threads(2)
                .queue_capacity(16)
                .default_deadline(LONG)
                .faults(
                    FaultPlan::none()
                        .seed(0xFA_177)
                        .panic_fraction(0.2)
                        .cancel_fraction(0.15),
                ),
        )
        .build();
    let w = Workload::SumRange { n: 20_000 };
    let handles: Vec<_> = (0..40)
        .filter_map(|_| srv.submit(0, Request::new(w)).ok())
        .collect();
    for h in handles {
        match h.wait() {
            Ok(out) => assert_eq!(out, srv.expected_output(w)),
            Err(ServeError::Faulted { .. }) | Err(ServeError::Cancelled) => {}
            Err(other) => panic!("unexpected outcome under fault storm: {other}"),
        }
    }
    assert!(srv.drain(LONG), "fault storm wedged the server");
    let snap = srv.tenant_runtime(0).metrics_snapshot();
    assert!(
        snap.counter(Counter::ServeFaultInjected) > 0,
        "a 35% plan over 40 requests must inject"
    );
    assert_eq!(
        snap.counter(Counter::ServeAccepted),
        snap.counter(Counter::ServeCompleted)
            + snap.counter(Counter::ServeDeadlineMissed)
            + snap.counter(Counter::ServeFaulted),
        "fault storm broke the counter choreography"
    );
    // Still live: a clean request completes and validates.
    let out = srv
        .submit(0, Request::new(w))
        .map(|h| h.wait())
        .expect("admitted");
    // The fault plan still applies to this request; accept either a
    // clean completion or its injected fault — liveness is the claim.
    if let Ok(v) = out {
        assert_eq!(v, srv.expected_output(w));
    }
    assert!(srv.drain(LONG));
}

/// A stall storm: 16 requests of one tenant wedge at once, so its one
/// watchdog thread holds 16 deadlines that fall due together, while the
/// neighbour serves clean traffic. Every verdict must arrive on time (one
/// thread sweeping 16 entries must not serialise them — a late verdict
/// lets the wedged member time out on its own and the request reads
/// `FinishedLate`), the neighbour must not feel it, and the verdicts are
/// attributed to the tenant whose watchdog gave them.
#[test]
fn stall_storm_in_one_tenant_is_diagnosed_on_time_and_stays_there() {
    const STORM: usize = 16;
    let deadline = Duration::from_millis(80);
    let srv = Server::config()
        .graph(512, 6, 8)
        .tenant(
            TenantSpec::new("stormy")
                .threads(2)
                .queue_capacity(STORM)
                .default_deadline(deadline)
                .faults(FaultPlan::none().seed(0x57A11).stall_fraction(1.0)),
        )
        .tenant(
            TenantSpec::new("calm")
                .threads(2)
                .queue_capacity(4)
                .default_deadline(LONG),
        )
        .build();
    let before_calm = srv.tenant_runtime(1).metrics_snapshot();
    let small = Workload::SumRange { n: 20_000 };
    let started = Instant::now();
    let storm: Vec<_> = (0..STORM)
        .map(|_| srv.submit(0, Request::new(small)).expect("capacity 16"))
        .collect();
    let resolved = std::thread::scope(|s| {
        let waiter = s.spawn(|| {
            storm
                .into_iter()
                .map(|h| (h.wait(), started.elapsed()))
                .collect::<Vec<_>>()
        });
        for _ in 0..200 {
            let out = srv.submit(1, Request::new(small)).expect("admitted").wait();
            assert_eq!(out, Ok(srv.expected_output(small)));
        }
        waiter.join().expect("storm waiter")
    });
    for (outcome, after) in resolved {
        let stalled = ServeError::DeadlineExceeded {
            budget: deadline,
            cause: DeadlineCause::Stalled,
        };
        assert_eq!(outcome, Err(stalled));
        assert!(after < 3 * deadline, "verdict after {after:?}");
    }
    assert!(srv.drain(LONG));
    let stormy = srv.tenant_runtime(0).metrics_snapshot();
    assert_eq!(stormy.counter(Counter::RegionStalled), STORM as u64);
    assert_eq!(stormy.counter(Counter::ServeAccepted), STORM as u64);
    assert_eq!(stormy.counter(Counter::ServeDeadlineMissed), STORM as u64);
    assert_eq!(stormy.counter(Counter::ServeCompleted), 0);
    assert_eq!(stormy.counter(Counter::ServeFaulted), 0);
    check::oracle::check_tenant_isolation(
        &before_calm,
        &srv.tenant_runtime(1).metrics_snapshot(),
        &[
            (Counter::ServeAccepted, 200),
            (Counter::ServeCompleted, 200),
        ],
        &[
            Counter::ServeShed,
            Counter::ServeFaulted,
            Counter::ServeDeadlineMissed,
            Counter::ServeFaultInjected,
            Counter::RegionStalled,
        ],
    )
    .expect("calm tenant perturbed by its neighbour's stall storm");
}

/// The closed-loop load generator against a two-tenant server: both
/// tenants make progress and the aggregated stats stay consistent.
#[test]
fn loadgen_closed_loop_over_two_tenants_is_consistent() {
    let srv = two_tenant_server(FaultPlan::none());
    let stats = loadgen::run(
        &srv,
        &loadgen::LoadConfig {
            mode: loadgen::Mode::Closed { concurrency: 2 },
            duration: Duration::from_millis(250),
            tenants: vec![0, 1],
            deadline: Duration::from_secs(10),
            workload: Workload::SumRange { n: 10_000 },
            retry: Some(Backoff::default()),
        },
    );
    assert!(stats.completed > 0);
    assert!(stats.counters_consistent(), "{stats:?}");
    for t in 0..2 {
        assert!(
            srv.tenant_runtime(t)
                .metrics_snapshot()
                .counter(Counter::ServeCompleted)
                > 0,
            "tenant {t} starved"
        );
    }
}

/// A lone closed-loop client keeps the whole team: with no other request
/// running, the server's core share hands every request
/// `min(threads, cores)` members, so on a machine with two or more cores
/// each one runs on a pooled team and none on a team of one.
#[test]
fn lone_client_keeps_its_full_team() {
    const REQUESTS: u64 = 200;
    const THREADS: usize = 2;
    let srv = Server::config()
        .graph(512, 6, 4)
        .tenant(
            TenantSpec::new("alone")
                .threads(THREADS)
                .queue_capacity(4)
                .default_deadline(LONG),
        )
        .build();
    let classes = [
        Workload::SumRange { n: 20_000 },
        Workload::DegreeSum { rounds: 2 },
        Workload::Fanout {
            parts: 4,
            n: 20_000,
        },
    ];
    for i in 0..REQUESTS as usize {
        let w = classes[i % classes.len()];
        let out = srv.submit(0, Request::new(w)).expect("admitted").wait();
        assert_eq!(out, Ok(srv.expected_output(w)), "request {i}");
    }
    assert!(srv.drain(LONG));
    let snap = srv.tenant_runtime(0).metrics_snapshot();
    assert_eq!(snap.counter(Counter::ServeCompleted), REQUESTS);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if THREADS.min(cores) > 1 {
        assert_eq!(snap.counter(Counter::RegionPooled), REQUESTS);
        assert_eq!(snap.counter(Counter::RegionInline), 0);
    }
}

/// The four `serve_mix` classes, interleaved by two client threads over
/// two tenants: the server validates each response against its reference
/// table, cold for the first request of a class and warm after. For the
/// first rounds both clients submit the same class in lockstep, so the
/// two tenants miss on each cold workload at the same moment; after that
/// they are one class apart. Every response must be the sequential
/// answer, none may fault, and the books balance after the drain.
#[test]
fn mixed_classes_over_two_tenants_validate_cold_and_warm() {
    const ROUNDS: usize = 200;
    const LOCKSTEP: usize = 8;
    let classes = [
        Workload::SumRange { n: 400_000 },
        Workload::SumRange { n: 20_000 },
        Workload::DegreeSum { rounds: 4 },
        Workload::Fanout {
            parts: 4,
            n: 200_000,
        },
    ];
    let mut config = Server::config().graph(4096, 8, 1);
    for name in ["left", "right"] {
        config = config.tenant(
            TenantSpec::new(name)
                .threads(2)
                .queue_capacity(4)
                .default_deadline(LONG),
        );
    }
    let srv = config.build();
    let expected = classes.map(|w| srv.expected_output(w));
    let lockstep = std::sync::Barrier::new(2);
    // Clients record outcomes rather than assert, so a failure cannot
    // leave the other client waiting at the barrier.
    let outcomes: Vec<_> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2)
            .map(|client| {
                let (srv, lockstep) = (&srv, &lockstep);
                s.spawn(move || {
                    (0..ROUNDS)
                        .map(|round| {
                            if round < LOCKSTEP {
                                lockstep.wait();
                            }
                            let class = (round + client * usize::from(round >= LOCKSTEP)) % 4;
                            let req = Request::new(classes[class]);
                            let out = srv.submit(client, req).and_then(|h| h.wait());
                            (client, round, class, out)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client thread"))
            .collect()
    });
    assert_eq!(outcomes.len(), 2 * ROUNDS);
    for (client, round, class, out) in outcomes {
        // One request in flight per client never sheds at capacity 4.
        assert_eq!(out, Ok(expected[class]), "client {client} round {round}");
    }
    assert!(srv.drain(LONG), "server failed to drain");
    for t in 0..2 {
        let snap = srv.tenant_runtime(t).metrics_snapshot();
        assert_eq!(snap.counter(Counter::ServeFaulted), 0);
        assert_eq!(snap.counter(Counter::ServeAccepted), ROUNDS as u64);
        assert_eq!(snap.counter(Counter::ServeCompleted), ROUNDS as u64);
        assert_eq!(
            snap.counter(Counter::ServeAccepted),
            snap.counter(Counter::ServeCompleted)
                + snap.counter(Counter::ServeDeadlineMissed)
                + snap.counter(Counter::ServeFaulted),
            "tenant {t}'s books do not balance"
        );
    }
}
