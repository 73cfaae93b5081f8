//! `serve_mix` — the served-request path: admission CAS → `spawn_future`
//! on the tenant executor → `try_parallel_with` pooled entry → handout →
//! join → NR stats write. Two tenants × `T` threads, queue capacity 8,
//! 500 ms deadline, and an equal-shares mix, in seeded order, of four classes:
//! `sum_small` makes entry cost the request, `sum_large` makes the body
//! the request, `degree` takes the dynamic handout, `fanout` stresses the
//! executor. It is also the oversubscribed case (2 tenants × `T` workers
//! plus `T` clients on `T` cores): a spin-heavy barrier that wins
//! `fine_grain` loses here.
//!
//! The timed unit is a *batch* of the mix, run three ways like every
//! other kernel: one thread computing each response itself (`seq`), `T`
//! threads each computing their share (`mt`, the thread-per-client server
//! one would write by hand), and `T` closed-loop clients submitting to
//! the server (`served`). The traced run adds an open-loop phase at a
//! fixed rate, timed from each request's *due* time.

use super::{Cfg, Extras, Workload};
use crate::harness::{Kernel, Outcome, RequestTimes, Role, Timed, Variant};
use crate::spans::{micros, Span, Spans};
use crate::stats::{quantile_sorted, SplitMix, Summary};
use aomp::obs::{self, Counter, Lat};
use aomp_serve::{Output, Request, ServeError, Server, TenantSpec, Workload as Work};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

const TENANTS: usize = 2;
const DEADLINE: Duration = Duration::from_millis(500);
/// Open-loop latency limit, from due time to validated response.
const LIMIT: Duration = Duration::from_millis(5);
/// Open-loop offered rate: about 45 % of the seed's closed-loop capacity
/// on the 2-core reference host.
const OPEN_RPS: f64 = 3000.0;

const CLASSES: [(&str, Work); 4] = [
    ("sum_large", Work::SumRange { n: 400_000 }),
    ("sum_small", Work::SumRange { n: 20_000 }),
    ("degree", Work::DegreeSum { rounds: 4 }),
    (
        "fanout",
        Work::Fanout {
            parts: 4,
            n: 200_000,
        },
    ),
];

pub struct ServeMix;

/// Closed-loop samples of the untraced served batches.
#[derive(Default)]
struct ClosedLog {
    /// Submit call → validated response, ms, per class.
    latency_ms: [Vec<f64>; 4],
    /// Time for `submit` to return, ns.
    submit_ns: Vec<f64>,
    batches: u64,
}

pub struct Inputs {
    server: Server,
    expected: [Output; 4],
    /// Class index of each request of a batch, in submission order.
    mix: Vec<u8>,
    closed: Mutex<ClosedLog>,
}

impl Inputs {
    /// One request computed on the calling thread: the sequential twin.
    fn compute(&self, i: usize) -> bool {
        let class = self.mix[i] as usize;
        std::hint::black_box(self.server.expected_output(CLASSES[class].1)) == self.expected[class]
    }

    /// `threads` workers pull requests of one batch until it is empty;
    /// `each` handles request `i` and says whether its response was right.
    fn batch<L: Send>(
        &self,
        threads: usize,
        each: impl Fn(usize, usize, &mut L) -> bool + Sync,
        new_log: impl Fn() -> L + Sync,
    ) -> (Timed, Vec<L>) {
        let next = AtomicUsize::new(0);
        let bad = AtomicUsize::new(0);
        let t0 = Instant::now();
        let logs = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|client| {
                    let (next, bad, each, new_log) = (&next, &bad, &each, &new_log);
                    s.spawn(move || {
                        let mut log = new_log();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= self.mix.len() {
                                return log;
                            }
                            if !each(client, i, &mut log) {
                                bad.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("batch worker panicked"))
                .collect()
        });
        let timed = Timed {
            secs: t0.elapsed().as_secs_f64(),
            ops: self.mix.len() as u64,
            bad: bad.into_inner() as u64,
            requests: Vec::new(),
        };
        (timed, logs)
    }

    /// One closed-loop batch through the server.
    fn served(&self, clients: usize, traced: bool) -> Timed {
        let first_seq = {
            let mut log = self.closed.lock().expect("closed log poisoned");
            log.batches += 1;
            (log.batches - 1) * self.mix.len() as u64
        };
        let (mut timed, logs) = self.batch(
            clients,
            |client, i, log: &mut Vec<RequestTimes>| {
                let class = self.mix[i] as usize;
                let start = Instant::now();
                let submitted = self
                    .server
                    .submit(i % TENANTS, Request::new(CLASSES[class].1));
                let submit_done = Instant::now();
                let ok = submitted.and_then(|h| h.wait()) == Ok(self.expected[class]);
                log.push(RequestTimes {
                    client,
                    seq: first_seq + i as u64,
                    class: CLASSES[class].0,
                    start,
                    submitted: submit_done,
                    done: Instant::now(),
                });
                ok
            },
            Vec::new,
        );
        let requests: Vec<RequestTimes> = logs.into_iter().flatten().collect();
        if traced {
            timed.requests = requests;
        } else {
            let mut log = self.closed.lock().expect("closed log poisoned");
            for r in &requests {
                let class = CLASSES
                    .iter()
                    .position(|c| c.0 == r.class)
                    .expect("known class");
                log.latency_ms[class].push((r.done - r.start).as_secs_f64() * 1e3);
                log.submit_ns
                    .push((r.submitted - r.start).as_secs_f64() * 1e9);
            }
        }
        timed
    }

    /// Books must balance once the server is idle: every admitted request
    /// resolved exactly one way.
    fn books_balance(&self) -> bool {
        if !self.server.drain(Duration::from_secs(30)) {
            return false;
        }
        (0..TENANTS).all(|t| {
            let s = self.server.tenant_runtime(t).metrics_snapshot();
            s.counter(Counter::ServeAccepted)
                == s.counter(Counter::ServeCompleted)
                    + s.counter(Counter::ServeDeadlineMissed)
                    + s.counter(Counter::ServeFaulted)
        })
    }
}

/// What the open-loop phase measured.
struct OpenPhase {
    offered: u64,
    shed: u64,
    /// Validation failures and errors other than shedding.
    wrong: u64,
    over_limit: u64,
    /// Due time → validated response, ms, accepted requests.
    latency_ms: Vec<f64>,
    /// How late the pacer submitted, ms.
    late_ms: Vec<f64>,
}

/// Offer the mix at a fixed rate for `seconds`: one pacer thread submits
/// on schedule whatever the server does, one waiter thread joins the
/// responses in submission order. (A response that finishes behind an
/// earlier, slower one is observed when the waiter reaches it; with two
/// tenants the reordering window is one request.)
fn open_loop(i: &Inputs, rps: f64, seconds: f64, spans: &mut Spans) -> OpenPhase {
    let total = (rps * seconds).ceil().max(1.0) as usize;
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant, Instant, _)>();
    let started = Instant::now() + Duration::from_millis(1);
    let phase = spans.push(Span {
        name: "serve.open_phase".to_owned(),
        start_us: micros(started),
        end_us: 0.0,
        parent: None,
        pass: 0,
        id: None,
        lane: 0,
    });
    let mut out = OpenPhase {
        offered: total as u64,
        shed: 0,
        wrong: 0,
        over_limit: 0,
        latency_ms: Vec::with_capacity(total),
        late_ms: Vec::with_capacity(total),
    };
    std::thread::scope(|s| {
        s.spawn(move || {
            for k in 0..total {
                let due = started + Duration::from_secs_f64(k as f64 / rps);
                // Sleep through most of a long gap, then yield up to the
                // due time: sleeping alone overshoots by a scheduler tick.
                loop {
                    let now = Instant::now();
                    if now >= due {
                        break;
                    }
                    let gap = due - now;
                    if gap > Duration::from_micros(300) {
                        std::thread::sleep(gap - Duration::from_micros(200));
                    } else {
                        std::thread::yield_now();
                    }
                }
                let class = i.mix[k % i.mix.len()] as usize;
                let start = Instant::now();
                let handle = i.server.submit(k % TENANTS, Request::new(CLASSES[class].1));
                if tx.send((k, due, start, Instant::now(), handle)).is_err() {
                    return;
                }
            }
        });
        for (k, due, start, submitted, handle) in rx {
            let class = i.mix[k % i.mix.len()] as usize;
            out.late_ms.push((start - due).as_secs_f64() * 1e3);
            match handle.and_then(|h| h.wait()) {
                Err(ServeError::Shed { .. }) => out.shed += 1,
                Ok(got) if got == i.expected[class] => {
                    let done = Instant::now();
                    out.latency_ms.push((done - due).as_secs_f64() * 1e3);
                    if done - due > LIMIT {
                        out.over_limit += 1;
                    }
                    let mut child = |name: String, a, b, parent| {
                        spans.push(Span {
                            name,
                            start_us: micros(a),
                            end_us: micros(b),
                            parent: Some(parent),
                            pass: 0,
                            id: Some(k as u64),
                            lane: 1 + k % TENANTS,
                        })
                    };
                    let req = child(
                        format!("serve.open_request.{}", CLASSES[class].0),
                        due,
                        done,
                        phase,
                    );
                    child("serve.pacer_late".to_owned(), due, start, req);
                    child("serve.submit".to_owned(), start, submitted, req);
                    child("serve.wait".to_owned(), submitted, done, req);
                }
                _ => out.wrong += 1,
            }
        }
    });
    spans.close(phase, Instant::now());
    out
}

/// The percentile `q` of `samples`, or 0 when there are none (an
/// open-loop phase that shed everything has no latency to report).
fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile_sorted(&s, q)
}

impl Workload for ServeMix {
    type Inputs = Inputs;

    fn generate(cfg: &Cfg) -> Inputs {
        let mut config = Server::config().graph(4096, 8, cfg.seed);
        for tenant in 0..TENANTS {
            config = config.tenant(
                TenantSpec::new(format!("tenant{tenant}"))
                    .threads(cfg.t)
                    .queue_capacity(8)
                    .default_deadline(DEADLINE),
            );
        }
        let server = config.build();
        // Equal shares of the four classes in a seeded order: the seed
        // moves where requests fall, not how much work a batch holds.
        let batch = if cfg.smoke { 40 } else { 1000 };
        let mut mix: Vec<u8> = (0..batch).map(|k| (k % 4) as u8).collect();
        let mut rng = SplitMix(cfg.seed);
        for k in (1..mix.len()).rev() {
            mix.swap(k, (rng.next() % (k as u64 + 1)) as usize);
        }
        Inputs {
            expected: CLASSES.map(|(_, w)| server.expected_output(w)),
            mix,
            server,
            closed: Mutex::default(),
        }
    }

    fn kernels<'a>(i: &'a Inputs, cfg: &Cfg) -> Vec<Kernel<'a>> {
        let t = cfg.t;
        vec![Kernel {
            variants: vec![
                Variant::new("serve.mix.seq", Role::Seq, move |_| {
                    i.batch(1, |_, k, _: &mut ()| i.compute(k), || ()).0
                })
                .unexported(),
                Variant::new("serve.mix.mt", Role::Mt, move |_| {
                    i.batch(t, |_, k, _: &mut ()| i.compute(k), || ()).0
                })
                .unexported(),
                Variant::new("serve.mix.served", Role::Woven, move |traced| {
                    i.served(t, traced)
                })
                .unexported(),
            ],
        }]
    }

    fn extras(
        i: &Inputs,
        cfg: &Cfg,
        outcome: &Outcome,
        seconds: f64,
        spans: &mut Spans,
        out: &mut Extras,
    ) -> (u64, u64) {
        let mut put = |name: &str, v: f64| {
            out.insert(name.to_owned(), v);
        };
        {
            let log = i.closed.lock().expect("closed log poisoned");
            let all: Vec<f64> = log.latency_ms.iter().flatten().copied().collect();
            let s = Summary::of(&all);
            put("serve.closed_p50_ms", s.p50);
            // p99 needs ten samples beyond it; short runs report the
            // highest percentile they support.
            put("serve.closed_p99_ms", s.tail.map_or(s.p75, |t| t.1));
            for (class, lat) in CLASSES.iter().zip(&log.latency_ms) {
                put(
                    &format!("serve.class.{}.p50_ms", class.0),
                    percentile(lat, 0.5),
                );
            }
            put("serve.submit_ns", percentile(&log.submit_ns, 0.5));
        }
        // Every request is a spawn_future and one NR stats write: how
        // many the executor refused, and how well flat combining batched,
        // over the traced closed-loop batches.
        let ratio = |num: Counter, den: Counter| {
            outcome.counter(num) as f64 / (outcome.counter(den) as f64).max(1.0)
        };
        put(
            "executor.refused_ratio",
            ratio(Counter::TaskRefusedSaturated, Counter::TaskSpawned),
        );
        put(
            "nr.ops_per_combine",
            ratio(Counter::NrWrites, Counter::NrCombines),
        );

        let mut failed = u64::from(!i.books_balance());
        obs::set_metrics(true);
        let before = obs::snapshot();
        let rps = if cfg.smoke { 500.0 } else { OPEN_RPS };
        let open = open_loop(i, rps, seconds, spans);
        let delta = obs::snapshot().since(&before);
        obs::set_metrics(false);
        failed += u64::from(!i.books_balance()) + open.wrong;
        let offered = open.offered as f64;
        put("serve.open_p50_ms", percentile(&open.latency_ms, 0.5));
        put("serve.open_p99_ms", percentile(&open.latency_ms, 0.99));
        put(
            "serve.open_miss_ratio",
            (open.shed + open.wrong + open.over_limit) as f64 / offered,
        );
        put("serve.shed_ratio", open.shed as f64 / offered);
        put("serve.pacer_late_p99_ms", percentile(&open.late_ms, 0.99));
        // From the obs histogram: power-of-two buckets, so *bucketed*.
        put(
            "serve.queue_wait_p50_ms",
            delta.hist(Lat::ServeQueueWait).quantile_ns(0.5) as f64 / 1e6,
        );
        (open.offered + 2, failed)
    }
}
