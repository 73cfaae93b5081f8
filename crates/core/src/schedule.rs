//! Loop-scheduling policies for the `@For` work-sharing construct.
//!
//! The paper's library ships three alternatives — *static by blocks*,
//! *static cyclic* and *dynamic* (§III-C, Table 1) — and explicitly
//! supports plugging application-specific strategies (the Sparse
//! benchmark's "Case Specific" schedule in Table 2). This module holds the
//! policy enumeration plus the pure iteration-space arithmetic, kept free
//! of threads so it can be exhaustively property-tested.

use crate::range::LoopRange;

/// Which thread runs which iterations of a for method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Contiguous blocks, one per thread (`schedule=staticBlock`): thread
    /// `t` of `n` receives iterations `[t*q + min(t,r), …)` where
    /// `q = count/n`, `r = count%n` — the first `r` threads get one extra
    /// iteration, as in OpenMP's plain `schedule(static)`.
    StaticBlock,
    /// Round-robin single iterations (`schedule=staticCyclic`): thread `t`
    /// runs iterations `t, t+n, t+2n, …` — implemented by rewriting the
    /// loop's `(start, step)` exactly like the paper's MolDyn
    /// parallelisation.
    StaticCyclic,
    /// First-come first-served chunks of `chunk` iterations
    /// (`schedule=dynamic`), dispensed from a shared counter (paper
    /// Figure 11).
    Dynamic {
        /// Iterations handed out per request; must be ≥ 1.
        chunk: u64,
    },
    /// Guided self-scheduling: each request receives
    /// `max(remaining / (2n), min_chunk)` iterations. An extension beyond
    /// the paper's three policies (its §VII names mechanism optimisation
    /// as current work); documented in DESIGN.md.
    Guided {
        /// Lower bound on the dispensed chunk size; must be ≥ 1.
        min_chunk: u64,
    },
    /// Block-cyclic (OpenMP's `schedule(static, chunk)`): chunks of
    /// `chunk` iterations dealt round-robin to the team. Generalises both
    /// [`StaticBlock`](Schedule::StaticBlock) (chunk = ⌈count/n⌉) and
    /// [`StaticCyclic`](Schedule::StaticCyclic) (chunk = 1). Extension
    /// beyond the paper's Table 1, documented in DESIGN.md.
    BlockCyclic {
        /// Iterations per dealt chunk; must be ≥ 1.
        chunk: u64,
    },
    /// Self-refining schedule (`schedule=adaptive`): the iteration space
    /// starts as the static-block partition, but each thread dispenses
    /// its own block in halving chunks whose size refines from observed
    /// per-chunk latency — threads running hot (per-iteration latency
    /// above the team's EWMA) shrink their chunks so more of their block
    /// stays stealable, cold threads stay coarse — and a thread that
    /// drains its block steals the upper half of a victim's remaining
    /// range, scanning victims in ring order. The answer to the paper's
    /// "Case Specific" Sparse schedule (Table 2) that needs no hand-built
    /// cost model; documented in DESIGN.md.
    Adaptive {
        /// Lower bound on a refined chunk; must be ≥ 1.
        min_chunk: u64,
    },
}

impl Schedule {
    /// Dynamic schedule with chunk size 1 — the paper's Figure 11 default.
    pub const DYNAMIC: Schedule = Schedule::Dynamic { chunk: 1 };
    /// Guided schedule with a minimum chunk of 1.
    pub const GUIDED: Schedule = Schedule::Guided { min_chunk: 1 };
    /// Adaptive schedule with a minimum refined chunk of 1.
    pub const ADAPTIVE: Schedule = Schedule::Adaptive { min_chunk: 1 };

    /// Human-readable name matching the paper's annotation parameters.
    pub fn name(&self) -> &'static str {
        match self {
            Schedule::StaticBlock => "staticBlock",
            Schedule::StaticCyclic => "staticCyclic",
            Schedule::Dynamic { .. } => "dynamic",
            Schedule::Guided { .. } => "guided",
            Schedule::BlockCyclic { .. } => "blockCyclic",
            Schedule::Adaptive { .. } => "adaptive",
        }
    }

    /// The `kind` this schedule's [`ChunkHandout`](crate::hook::HookEvent::ChunkHandout)
    /// events report.
    pub(crate) fn handout_kind(&self) -> &'static str {
        match self {
            Schedule::StaticBlock => "static-block",
            Schedule::StaticCyclic => "static-cyclic",
            Schedule::Dynamic { .. } => "dynamic",
            Schedule::Guided { .. } => "guided",
            Schedule::BlockCyclic { .. } => "block-cyclic",
            Schedule::Adaptive { .. } => "adaptive",
        }
    }

    /// Parse an `OMP_SCHEDULE`-style string: `staticBlock`,
    /// `staticCyclic`, `dynamic[,chunk]`, `guided[,min]`,
    /// `blockCyclic,chunk`, `adaptive[,min]` (aliases `static`/`cyclic`
    /// accepted).
    ///
    /// Strict: a malformed chunk (`dynamic,abc`, `dynamic,0`), a missing
    /// required chunk (`blockCyclic`), an argument on a schedule that
    /// takes none (`static,4`) and trailing parts (`dynamic,4,9`) all
    /// return `None` — a misconfigured schedule must be rejected, not
    /// silently coerced to chunk 1.
    pub fn parse(s: &str) -> Option<Schedule> {
        let mut parts = s.split(',').map(str::trim);
        let kind = parts.next()?;
        let arg = parts.next();
        if parts.next().is_some() {
            return None; // trailing junk like `dynamic,4,9`
        }
        // The optional numeric argument: absent is fine, present-but-not
        // a positive integer is malformed.
        let arg = match arg {
            None => None,
            Some(a) => match a.parse::<u64>() {
                Ok(v) if v >= 1 => Some(v),
                _ => return None,
            },
        };
        match kind {
            "staticBlock" | "static_block" | "static" if arg.is_none() => {
                Some(Schedule::StaticBlock)
            }
            "staticCyclic" | "static_cyclic" | "cyclic" if arg.is_none() => {
                Some(Schedule::StaticCyclic)
            }
            "dynamic" => Some(Schedule::Dynamic {
                chunk: arg.unwrap_or(1),
            }),
            "guided" => Some(Schedule::Guided {
                min_chunk: arg.unwrap_or(1),
            }),
            // Block-cyclic without a chunk is `staticBlock` in disguise;
            // the paper's annotation always names the chunk, so a missing
            // one is a configuration error, not a default.
            "blockCyclic" | "block_cyclic" => Some(Schedule::BlockCyclic { chunk: arg? }),
            "adaptive" => Some(Schedule::Adaptive {
                min_chunk: arg.unwrap_or(1),
            }),
            _ => None,
        }
    }

    /// The schedule selected by the `AOMP_SCHEDULE` environment variable
    /// (OpenMP's `schedule(runtime)` + `OMP_SCHEDULE`), falling back to
    /// `staticBlock` when unset or malformed. A malformed value logs a
    /// one-time warning naming the rejected spelling — a misconfigured
    /// deployment should not silently lose its schedule.
    pub fn from_env() -> Schedule {
        match std::env::var("AOMP_SCHEDULE") {
            Err(_) => Schedule::StaticBlock,
            Ok(v) => match Schedule::parse(&v) {
                Some(s) => s,
                None => {
                    static WARNED: std::sync::Once = std::sync::Once::new();
                    WARNED.call_once(|| {
                        eprintln!(
                            "aomp: ignoring malformed AOMP_SCHEDULE={v:?} \
                             (expected staticBlock | staticCyclic | dynamic[,chunk] | \
                             guided[,min] | blockCyclic,chunk | adaptive[,min]); \
                             falling back to staticBlock"
                        );
                    });
                    Schedule::StaticBlock
                }
            },
        }
    }
}

/// The chunks of logical iterations thread `tid` of `n` executes under a
/// block-cyclic schedule over `count` iterations, as `(lo, hi)` pairs in
/// ascending order.
pub fn block_cyclic_iters(
    count: u64,
    chunk: u64,
    tid: usize,
    n: usize,
) -> impl Iterator<Item = (u64, u64)> {
    // Unconditional: in a release build `tid >= n` would deal ranges the
    // team never agreed to partition — corrupt results, not a crash. The
    // panic is team-safe (poisoning cancels the region); precedent is
    // `ForScope::iteration_of`.
    assert!(
        n > 0 && tid < n && chunk > 0,
        "block_cyclic_iters: invalid tid={tid} n={n} chunk={chunk}"
    );
    let stride = chunk.saturating_mul(n as u64);
    std::iter::successors((tid as u64).checked_mul(chunk), move |lo| {
        lo.checked_add(stride)
    })
    .take_while(move |&lo| lo < count)
    .map(move |lo| (lo, lo.saturating_add(chunk).min(count)))
}

/// The contiguous block of logical iterations `[lo, hi)` assigned to
/// thread `tid` of `n` by [`Schedule::StaticBlock`] over `count`
/// iterations.
#[inline]
pub fn static_block_iters(count: u64, tid: usize, n: usize) -> (u64, u64) {
    // Unconditional for the same reason as `block_cyclic_iters`: a
    // release-mode `tid >= n` yields a garbage range silently.
    assert!(
        n > 0 && tid < n,
        "static_block_iters: invalid tid={tid} n={n}"
    );
    let n64 = n as u64;
    let t = tid as u64;
    let q = count / n64;
    let r = count % n64;
    let lo = t * q + t.min(r);
    let extra = u64::from(t < r);
    (lo, lo + q + extra)
}

/// The element-space [`LoopRange`] thread `tid` of `n` executes under a
/// static-block schedule — the paper Figure 10 rewriting.
#[inline]
pub fn static_block_range(range: LoopRange, tid: usize, n: usize) -> LoopRange {
    let (lo, hi) = static_block_iters(range.count(), tid, n);
    range.slice_iters(lo, hi)
}

/// The element-space [`LoopRange`] thread `tid` of `n` executes under a
/// static-cyclic schedule.
#[inline]
pub fn static_cyclic_range(range: LoopRange, tid: usize, n: usize) -> LoopRange {
    range.cyclic(tid, n)
}

/// Size of the next guided chunk given `remaining` iterations, `n`
/// threads and the schedule's `min_chunk`.
#[inline]
pub fn guided_chunk(remaining: u64, n: usize, min_chunk: u64) -> u64 {
    // Unconditional, with a named message: `n == 0` would otherwise
    // surface as an anonymous divide-by-zero panic below.
    assert!(n > 0, "guided_chunk: team size must be > 0");
    let target = remaining / (2 * n as u64);
    target.max(min_chunk).max(1).min(remaining)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assigned_elements(
        range: LoopRange,
        n: usize,
        f: impl Fn(LoopRange, usize, usize) -> LoopRange,
    ) -> Vec<i64> {
        let mut all: Vec<i64> = (0..n).flat_map(|t| f(range, t, n).iter()).collect();
        all.sort_unstable();
        all
    }

    fn sorted_elements(range: LoopRange) -> Vec<i64> {
        let mut v: Vec<i64> = range.iter().collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn static_block_partitions_exactly() {
        for count in [0u64, 1, 2, 7, 8, 9, 100] {
            for n in [1usize, 2, 3, 7, 8, 16] {
                let mut total = 0;
                let mut prev_hi = 0;
                for t in 0..n {
                    let (lo, hi) = static_block_iters(count, t, n);
                    assert!(lo <= hi);
                    assert_eq!(lo, prev_hi, "blocks must be contiguous");
                    prev_hi = hi;
                    total += hi - lo;
                }
                assert_eq!(prev_hi, count);
                assert_eq!(total, count);
            }
        }
    }

    #[test]
    fn static_block_balanced_within_one() {
        let count = 103;
        let n = 8;
        let sizes: Vec<u64> = (0..n)
            .map(|t| {
                let (lo, hi) = static_block_iters(count, t, n);
                hi - lo
            })
            .collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(
            max - min <= 1,
            "block schedule must balance within 1 iteration: {sizes:?}"
        );
    }

    #[test]
    fn block_range_covers_everything() {
        let r = LoopRange::new(5, 77, 3);
        for n in [1, 2, 5, 8] {
            assert_eq!(
                assigned_elements(r, n, static_block_range),
                sorted_elements(r)
            );
        }
    }

    #[test]
    fn cyclic_range_covers_everything() {
        let r = LoopRange::new(-4, 33, 2);
        for n in [1, 2, 3, 9] {
            assert_eq!(
                assigned_elements(r, n, static_cyclic_range),
                sorted_elements(r)
            );
        }
    }

    #[test]
    fn cyclic_matches_paper_moldyn_pattern() {
        // Paper Figure 3: for (i = id; i < mdsize; i += nthreads)
        let mdsize = 25;
        let n = 4;
        for id in 0..n {
            let assigned: Vec<i64> = static_cyclic_range(LoopRange::upto(0, mdsize), id, n)
                .iter()
                .collect();
            let mut manual = Vec::new();
            let mut i = id as i64;
            while i < mdsize {
                manual.push(i);
                i += n as i64;
            }
            assert_eq!(assigned, manual);
        }
    }

    #[test]
    fn guided_chunks_shrink_but_respect_min() {
        let n = 4;
        let mut remaining = 1000u64;
        let mut last = u64::MAX;
        while remaining > 0 {
            let c = guided_chunk(remaining, n, 4);
            assert!(c >= 1 && c <= remaining);
            assert!(
                c >= 4 || c == remaining,
                "chunks below min only at the tail"
            );
            assert!(c <= last, "guided chunks must be non-increasing");
            last = c;
            remaining -= c;
        }
    }

    #[test]
    fn guided_terminates_for_all_inputs() {
        for n in [1usize, 3, 13] {
            for total in [0u64, 1, 2, 17, 1023] {
                let mut remaining = total;
                let mut handed = 0;
                let mut steps = 0;
                while remaining > 0 {
                    let c = guided_chunk(remaining, n, 1);
                    handed += c;
                    remaining -= c;
                    steps += 1;
                    assert!(steps < 10_000, "guided dispenser must terminate");
                }
                assert_eq!(handed, total);
            }
        }
    }

    #[test]
    fn schedule_names() {
        assert_eq!(Schedule::StaticBlock.name(), "staticBlock");
        assert_eq!(Schedule::StaticCyclic.name(), "staticCyclic");
        assert_eq!(Schedule::DYNAMIC.name(), "dynamic");
        assert_eq!(Schedule::GUIDED.name(), "guided");
        assert_eq!(Schedule::ADAPTIVE.name(), "adaptive");
    }

    #[test]
    fn parse_rejects_malformed_arguments() {
        // Regression: these used to be silently coerced to chunk 1.
        assert_eq!(Schedule::parse("dynamic,abc"), None);
        assert_eq!(Schedule::parse("dynamic,0"), None);
        assert_eq!(Schedule::parse("dynamic,-3"), None);
        assert_eq!(Schedule::parse("guided,1.5"), None);
        assert_eq!(Schedule::parse("adaptive,x"), None);
        assert_eq!(Schedule::parse("blockCyclic,nope"), None);
    }

    #[test]
    fn parse_rejects_missing_required_chunk() {
        // Regression: `blockCyclic` without its chunk used to default to
        // 1 (i.e. staticCyclic in disguise).
        assert_eq!(Schedule::parse("blockCyclic"), None);
        assert_eq!(Schedule::parse("block_cyclic"), None);
    }

    #[test]
    fn parse_rejects_trailing_junk() {
        // Regression: `dynamic,4,9` used to parse as chunk 4.
        assert_eq!(Schedule::parse("dynamic,4,9"), None);
        assert_eq!(Schedule::parse("staticBlock,1,2"), None);
        assert_eq!(Schedule::parse("adaptive,2,2"), None);
        assert_eq!(Schedule::parse("dynamic,4,"), None);
    }

    #[test]
    fn parse_rejects_arguments_on_argless_schedules() {
        assert_eq!(Schedule::parse("staticBlock,4"), None);
        assert_eq!(Schedule::parse("static,4"), None);
        assert_eq!(Schedule::parse("cyclic,2"), None);
    }

    #[test]
    fn parse_accepts_adaptive() {
        assert_eq!(Schedule::parse("adaptive"), Some(Schedule::ADAPTIVE));
        assert_eq!(
            Schedule::parse("adaptive, 32"),
            Some(Schedule::Adaptive { min_chunk: 32 })
        );
    }
}

#[cfg(test)]
mod block_cyclic_tests {
    use super::*;

    #[test]
    fn block_cyclic_partitions_exactly() {
        for count in [0u64, 1, 7, 24, 100] {
            for chunk in [1u64, 2, 5, 8] {
                for n in [1usize, 2, 3, 5] {
                    let mut all: Vec<u64> = Vec::new();
                    for t in 0..n {
                        for (lo, hi) in block_cyclic_iters(count, chunk, t, n) {
                            all.extend(lo..hi);
                        }
                    }
                    all.sort_unstable();
                    assert_eq!(
                        all,
                        (0..count).collect::<Vec<_>>(),
                        "count={count} chunk={chunk} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn block_cyclic_chunk_one_matches_cyclic_elements() {
        let count = 17u64;
        let n = 4usize;
        for t in 0..n {
            let bc: Vec<u64> = block_cyclic_iters(count, 1, t, n)
                .flat_map(|(lo, hi)| lo..hi)
                .collect();
            let cyc: Vec<u64> = (t as u64..count).step_by(n).collect();
            assert_eq!(bc, cyc, "t={t}");
        }
    }

    #[test]
    fn parse_round_trips_names() {
        assert_eq!(Schedule::parse("staticBlock"), Some(Schedule::StaticBlock));
        assert_eq!(Schedule::parse("cyclic"), Some(Schedule::StaticCyclic));
        assert_eq!(
            Schedule::parse("dynamic,8"),
            Some(Schedule::Dynamic { chunk: 8 })
        );
        assert_eq!(
            Schedule::parse("dynamic"),
            Some(Schedule::Dynamic { chunk: 1 })
        );
        assert_eq!(
            Schedule::parse("guided, 4"),
            Some(Schedule::Guided { min_chunk: 4 })
        );
        assert_eq!(
            Schedule::parse("blockCyclic,16"),
            Some(Schedule::BlockCyclic { chunk: 16 })
        );
        assert_eq!(Schedule::parse("nonsense"), None);
        assert_eq!(Schedule::BlockCyclic { chunk: 2 }.name(), "blockCyclic");
    }
}
