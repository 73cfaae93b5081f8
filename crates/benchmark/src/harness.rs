//! The pass loop every workload runs through. A workload is a list of
//! kernels, each with a sequential twin, optionally a hand-threaded twin,
//! and one or more woven variants. Every pass calls the variants of each
//! kernel back to back, in an order rotated per pass, so slow drift of
//! the host cancels in the ratios. Validation happens outside the timed
//! section of every call and is part of the measurement: a wrong result
//! counts as a failed operation.

use crate::spans::{micros, Span, Spans};
use crate::stats::{geomean, median};
use aomp::obs::{self, Counter};
use std::time::Instant;

/// What a variant is measured against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// The sequential base program.
    Seq,
    /// The hand-threaded twin (the paper's JGF-MT baseline).
    Mt,
    /// A parallelisation through the library (aspects, macros, tasks).
    Woven,
}

/// One served request's timeline, reported by the serve workload so the
/// harness can attach request spans under the batch's call span.
#[derive(Debug, Clone, Copy)]
pub struct RequestTimes {
    pub client: usize,
    pub seq: u64,
    pub class: &'static str,
    pub start: Instant,
    pub submitted: Instant,
    pub done: Instant,
}

/// Result of one timed call.
#[derive(Debug, Default)]
pub struct Timed {
    /// Wall time of the call itself (validation excluded).
    pub secs: f64,
    /// Operations attempted: 1 for a kernel, the batch size for serve.
    pub ops: u64,
    /// Operations whose result failed validation.
    pub bad: u64,
    /// Per-request timelines (traced serve batches only).
    pub requests: Vec<RequestTimes>,
}

impl Timed {
    /// Time `run`, then validate its result outside the timed section.
    pub fn kernel<R>(run: impl FnOnce() -> R, valid: impl FnOnce(&R) -> bool) -> Timed {
        let (r, elapsed) = aomp_jgf::harness::timed(run);
        Timed {
            secs: elapsed.as_secs_f64(),
            ops: 1,
            bad: u64::from(!valid(std::hint::black_box(&r))),
            requests: Vec::new(),
        }
    }
}

/// One way of running a kernel. The call receives `true` on traced
/// passes so it can collect request timelines.
pub struct Variant<'a> {
    /// `<layer>.<kernel>.<variant>`: the span name, and with `_ms`
    /// appended the per-layer metric name.
    pub label: &'static str,
    /// Whether `<label>_ms` is one of the declared per-layer metrics
    /// (twins re-measured on a second workload are not).
    pub export: bool,
    pub role: Role,
    pub call: Box<dyn FnMut(bool) -> Timed + 'a>,
}

impl<'a> Variant<'a> {
    pub fn new(
        label: &'static str,
        role: Role,
        call: impl FnMut(bool) -> Timed + 'a,
    ) -> Variant<'a> {
        Variant {
            label,
            export: true,
            role,
            call: Box::new(call),
        }
    }

    /// Keep the variant out of the per-layer metrics.
    pub fn unexported(mut self) -> Variant<'a> {
        self.export = false;
        self
    }
}

/// A kernel and its variants (exactly one [`Role::Seq`]).
pub struct Kernel<'a> {
    pub variants: Vec<Variant<'a>>,
}

/// How long to run passes, and whether to interleave traced ones.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Keep starting passes until this much time has been measured.
    pub seconds: f64,
    /// Run at least this many passes of each kind.
    pub min_passes: usize,
    /// After every pass, run a traced pass of the woven variants with
    /// `obs` metrics on and spans recorded.
    pub traced: bool,
}

/// Samples of one variant.
#[derive(Debug)]
pub struct Row {
    pub label: &'static str,
    pub export: bool,
    pub role: Role,
    pub kernel: usize,
    /// Seconds per call, metrics off.
    pub secs: Vec<f64>,
    /// Seconds per call on traced passes (woven variants only).
    pub traced_secs: Vec<f64>,
}

/// Everything the pass loop measured.
#[derive(Debug)]
pub struct Outcome {
    pub rows: Vec<Row>,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    /// `obs` counter deltas summed over the traced passes, indexed like
    /// [`Counter::ALL`].
    pub counters: Vec<u64>,
}

/// Run one pass: each kernel's selected variants, rotated by `pass`.
fn one_pass(
    kernels: &mut [Kernel<'_>],
    rows: &mut [Row],
    pass: usize,
    traced: Option<&mut Spans>,
    tally: &mut (u64, u64),
) {
    let mut spans = traced;
    let pass_start = Instant::now();
    let pass_span = spans.as_deref_mut().map(|s| {
        s.push(Span {
            name: "pass".to_owned(),
            start_us: micros(pass_start),
            end_us: 0.0,
            parent: None,
            pass,
            id: None,
            lane: 0,
        })
    });
    let mut row = 0;
    for kernel in kernels.iter_mut() {
        let n = kernel.variants.len();
        for k in 0..n {
            let i = (k + pass) % n;
            let v = &mut kernel.variants[i];
            if spans.is_some() && v.role != Role::Woven {
                continue;
            }
            let start = Instant::now();
            let timed = (v.call)(spans.is_some());
            let end = Instant::now();
            tally.0 += timed.ops;
            tally.1 += timed.bad;
            match spans.as_deref_mut() {
                None => rows[row + i].secs.push(timed.secs),
                Some(s) => {
                    rows[row + i].traced_secs.push(timed.secs);
                    let call = s.push(Span {
                        name: v.label.to_owned(),
                        start_us: micros(start),
                        end_us: micros(end),
                        parent: pass_span,
                        pass,
                        id: None,
                        lane: 0,
                    });
                    for r in &timed.requests {
                        let mut child = |name: String, a: Instant, b: Instant, parent| {
                            s.push(Span {
                                name,
                                start_us: micros(a),
                                end_us: micros(b),
                                parent: Some(parent),
                                pass,
                                id: Some(r.seq),
                                lane: 1 + r.client,
                            })
                        };
                        let req =
                            child(format!("serve.request.{}", r.class), r.start, r.done, call);
                        child("serve.submit".to_owned(), r.start, r.submitted, req);
                        child("serve.wait".to_owned(), r.submitted, r.done, req);
                    }
                }
            }
        }
        row += n;
    }
    if let (Some(s), Some(p)) = (spans, pass_span) {
        s.close(p, Instant::now());
    }
}

/// Run passes over `kernels` according to `plan`.
pub fn run_passes(kernels: &mut [Kernel<'_>], plan: Plan, spans: &mut Spans) -> Outcome {
    let mut rows: Vec<Row> = Vec::new();
    for (k, kernel) in kernels.iter().enumerate() {
        for v in &kernel.variants {
            rows.push(Row {
                label: v.label,
                export: v.export,
                role: v.role,
                kernel: k,
                secs: Vec::new(),
                traced_secs: Vec::new(),
            });
        }
    }
    let mut tally = (0u64, 0u64);
    let mut counters = vec![0u64; Counter::ALL.len()];
    let started = Instant::now();
    let mut passes = 0;
    while passes < plan.min_passes || started.elapsed().as_secs_f64() < plan.seconds {
        one_pass(kernels, &mut rows, passes, None, &mut tally);
        if plan.traced {
            obs::set_metrics(true);
            let before = obs::snapshot();
            one_pass(kernels, &mut rows, passes, Some(spans), &mut tally);
            let delta = obs::snapshot().since(&before);
            obs::set_metrics(false);
            for (sum, c) in counters.iter_mut().zip(Counter::ALL) {
                *sum += delta.counter(c);
            }
        }
        passes += 1;
    }
    Outcome {
        rows,
        passes,
        attempted: tally.0,
        failed: tally.1,
        counters,
    }
}

impl Outcome {
    /// Median seconds of row `i` on untraced passes.
    pub fn median_secs(&self, i: usize) -> f64 {
        median(&self.rows[i].secs)
    }

    /// Median seconds of the variant labelled `label`.
    pub fn median_of(&self, label: &str) -> f64 {
        let row = self.rows.iter().position(|r| r.label == label);
        self.median_secs(row.unwrap_or_else(|| panic!("no variant `{label}`")))
    }

    fn woven(&self) -> impl Iterator<Item = (usize, &Row)> {
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.role == Role::Woven)
    }

    fn twin(&self, kernel: usize, role: Role) -> Option<usize> {
        self.rows
            .iter()
            .position(|r| r.kernel == kernel && r.role == role)
    }

    /// `solve_s`: the sum over woven variants of their median wall time.
    pub fn solve_s(&self) -> f64 {
        self.woven().map(|(i, _)| self.median_secs(i)).sum()
    }

    /// The same sum over the traced passes.
    pub fn traced_solve_s(&self) -> f64 {
        self.woven().map(|(_, r)| median(&r.traced_secs)).sum()
    }

    /// Geometric mean over woven variants of twin median ÷ woven median
    /// (`Seq`: `speedup_vs_seq`) or woven ÷ twin (`Mt`: `overhead_vs_mt`,
    /// over the kernels that have a hand-threaded twin).
    pub fn ratio_vs(&self, role: Role) -> f64 {
        let ratios: Vec<f64> = self
            .woven()
            .filter_map(|(i, r)| {
                let twin = self.median_secs(self.twin(r.kernel, role)?);
                let woven = self.median_secs(i);
                Some(if role == Role::Seq {
                    twin / woven
                } else {
                    woven / twin
                })
            })
            .collect();
        geomean(&ratios)
    }

    /// Value of one counter summed over the traced passes.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    fn fixed(secs: f64) -> impl FnMut(bool) -> Timed {
        move |_| Timed {
            secs,
            ops: 1,
            ..Timed::default()
        }
    }

    #[test]
    fn a_wrong_expected_value_is_counted_as_a_failure() {
        let right = Timed::kernel(|| 6 * 7, |r| *r == 42);
        let wrong = Timed::kernel(|| 6 * 7, |r| *r == 41);
        assert_eq!((right.ops, right.bad), (1, 0));
        assert_eq!((wrong.ops, wrong.bad), (1, 1));

        // ... and the pass loop carries it into the failure count.
        let mut kernels = vec![Kernel {
            variants: vec![
                Variant::new("t.k.seq", Role::Seq, |_| {
                    Timed::kernel(|| 6 * 7, |r| *r == 42)
                }),
                Variant::new("t.k.woven", Role::Woven, |_| {
                    Timed::kernel(|| 6 * 7, |r| *r == 41)
                }),
            ],
        }];
        let plan = Plan {
            seconds: 0.0,
            min_passes: 3,
            traced: false,
        };
        let out = run_passes(&mut kernels, plan, &mut Spans::default());
        assert_eq!((out.passes, out.attempted, out.failed), (3, 6, 3));
    }

    #[test]
    fn ratios_pair_each_woven_variant_with_its_kernels_twins() {
        let mut kernels = vec![
            Kernel {
                variants: vec![
                    Variant::new("t.a.seq", Role::Seq, fixed(8.0)),
                    Variant::new("t.a.mt", Role::Mt, fixed(2.0)),
                    Variant::new("t.a.woven", Role::Woven, fixed(4.0)),
                ],
            },
            // No hand-threaded twin: counts for the speed-up only.
            Kernel {
                variants: vec![
                    Variant::new("t.b.seq", Role::Seq, fixed(2.0)),
                    Variant::new("t.b.woven", Role::Woven, fixed(4.0)),
                ],
            },
        ];
        let plan = Plan {
            seconds: 0.0,
            min_passes: 2,
            traced: false,
        };
        let out = run_passes(&mut kernels, plan, &mut Spans::default());
        assert_eq!(out.solve_s(), 8.0);
        assert!(
            (out.ratio_vs(Role::Seq) - 1.0).abs() < 1e-12,
            "geomean(2, 1/2)"
        );
        assert_eq!(out.ratio_vs(Role::Mt), 2.0);
    }

    #[test]
    fn variant_order_rotates_and_traced_passes_run_woven_only() {
        let order = Cell::new(Vec::new());
        let note = |tag: &'static str| {
            let order = &order;
            move |traced: bool| {
                let mut v = order.take();
                v.push((tag, traced));
                order.set(v);
                Timed {
                    secs: 1.0,
                    ops: 1,
                    ..Timed::default()
                }
            }
        };
        let mut kernels = vec![Kernel {
            variants: vec![
                Variant::new("t.k.seq", Role::Seq, note("seq")),
                Variant::new("t.k.woven", Role::Woven, note("woven")),
            ],
        }];
        let plan = Plan {
            seconds: 0.0,
            min_passes: 2,
            traced: true,
        };
        let mut spans = Spans::default();
        let out = run_passes(&mut kernels, plan, &mut spans);
        assert_eq!(
            order.take(),
            vec![
                ("seq", false),
                ("woven", false),
                ("woven", true),
                ("woven", false),
                ("seq", false),
                ("woven", true),
            ]
        );
        assert_eq!(out.rows[1].traced_secs.len(), 2);
        assert_eq!(
            spans.len(),
            4,
            "a pass span and a call span per traced pass"
        );
        assert!(
            !obs::metrics_enabled(),
            "metrics are off again after the loop"
        );
    }
}
