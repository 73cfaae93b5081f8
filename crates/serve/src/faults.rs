//! Deterministic fault injection for serve requests.
//!
//! A [`FaultPlan`] decides, per request sequence number, whether to
//! inject a fault into that request's parallel region and which kind.
//! Decisions are a pure function of `(seed, seq)`, so a plan replays
//! identically across runs — the property the robustness suite leans on
//! when it asserts "exactly these requests faulted, the server survived,
//! and the counters still add up".

/// Environment variable carrying a default fault plan, e.g.
/// `AOMP_SERVE_FAULTS="panic=0.1,stall=0.05,cancel=0.1,seed=42"`.
/// Read by [`FaultPlan::from_env`]; the serve bench binary applies it
/// when no fault flags are given on the command line.
pub const ENV_FAULTS: &str = "AOMP_SERVE_FAULTS";

/// The kind of fault injected into a request's worker region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A worker thread panics mid-region (surfaces as
    /// [`RegionError::Panicked`](aomp::error::RegionError::Panicked)).
    Panic,
    /// The last member (the master, on a team of one) wedges in a
    /// registered wait until the stall watchdog trips the region deadline
    /// ([`RegionError::Stalled`](aomp::error::RegionError::Stalled)).
    Stall,
    /// The master requests team cancellation and the region unwinds
    /// cooperatively
    /// ([`RegionError::Cancelled`](aomp::error::RegionError::Cancelled)).
    Cancel,
}

/// A seeded, per-request fault schedule.
///
/// Fractions are cumulative probabilities over a uniform draw in
/// `[0, 1)`: a request faults with probability `panic + stall + cancel`
/// (saturated at 1). `FaultPlan::none()` never injects.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    seed: u64,
    panic: f64,
    stall: f64,
    cancel: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

impl FaultPlan {
    /// A plan that never injects a fault.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            panic: 0.0,
            stall: 0.0,
            cancel: 0.0,
        }
    }

    /// Replace the seed that randomises which requests fault.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Fraction of requests whose region panics.
    pub fn panic_fraction(mut self, f: f64) -> Self {
        self.panic = f.clamp(0.0, 1.0);
        self
    }

    /// Fraction of requests whose region stalls past its deadline.
    pub fn stall_fraction(mut self, f: f64) -> Self {
        self.stall = f.clamp(0.0, 1.0);
        self
    }

    /// Fraction of requests whose region is cooperatively cancelled.
    pub fn cancel_fraction(mut self, f: f64) -> Self {
        self.cancel = f.clamp(0.0, 1.0);
        self
    }

    /// Parse a plan from a `key=value` list: recognised keys are
    /// `panic`, `stall`, `cancel` (fractions in `[0, 1]`) and `seed`.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault spec `{part}` is not key=value"))?;
            let bad = || format!("fault spec `{part}` has a malformed value");
            match key.trim() {
                "panic" => {
                    plan.panic = value
                        .trim()
                        .parse::<f64>()
                        .map_err(|_| bad())?
                        .clamp(0.0, 1.0)
                }
                "stall" => {
                    plan.stall = value
                        .trim()
                        .parse::<f64>()
                        .map_err(|_| bad())?
                        .clamp(0.0, 1.0)
                }
                "cancel" => {
                    plan.cancel = value
                        .trim()
                        .parse::<f64>()
                        .map_err(|_| bad())?
                        .clamp(0.0, 1.0)
                }
                "seed" => plan.seed = value.trim().parse::<u64>().map_err(|_| bad())?,
                other => return Err(format!("unknown fault spec key `{other}`")),
            }
        }
        Ok(plan)
    }

    /// The plan named by [`ENV_FAULTS`], if set and well-formed
    /// (malformed specs are reported on stderr and ignored).
    pub fn from_env() -> Option<Self> {
        let spec = std::env::var(ENV_FAULTS).ok()?;
        match Self::parse(&spec) {
            Ok(plan) => Some(plan),
            Err(err) => {
                eprintln!("ignoring {ENV_FAULTS}: {err}");
                None
            }
        }
    }

    /// True if this plan can ever inject a fault.
    pub fn is_active(&self) -> bool {
        self.panic + self.stall + self.cancel > 0.0
    }

    /// Decide the fault (if any) for request number `seq`.
    ///
    /// Pure in `(self.seed, seq)`; two calls with the same inputs always
    /// agree.
    pub fn decide(&self, seq: u64) -> Option<Fault> {
        if !self.is_active() {
            return None;
        }
        let draw = u01(splitmix64(
            self.seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ));
        if draw < self.panic {
            Some(Fault::Panic)
        } else if draw < self.panic + self.stall {
            Some(Fault::Stall)
        } else if draw < self.panic + self.stall + self.cancel {
            Some(Fault::Cancel)
        } else {
            None
        }
    }
}

/// SplitMix64 scramble — cheap, stateless, good enough to decorrelate
/// consecutive sequence numbers.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Map a u64 to a uniform f64 in `[0, 1)` using the high 53 bits.
fn u01(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_fires() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        assert!((0..10_000).all(|s| plan.decide(s).is_none()));
    }

    #[test]
    fn decisions_are_deterministic() {
        let a = FaultPlan::none()
            .seed(42)
            .panic_fraction(0.1)
            .stall_fraction(0.1)
            .cancel_fraction(0.1);
        let b = a;
        assert!((0..10_000).all(|s| a.decide(s) == b.decide(s)));
    }

    #[test]
    fn fractions_land_near_targets() {
        let plan = FaultPlan::none()
            .seed(7)
            .panic_fraction(0.2)
            .cancel_fraction(0.3);
        let n = 100_000u64;
        let mut panics = 0u64;
        let mut cancels = 0u64;
        for s in 0..n {
            match plan.decide(s) {
                Some(Fault::Panic) => panics += 1,
                Some(Fault::Cancel) => cancels += 1,
                Some(Fault::Stall) => panic!("stall fraction is zero"),
                None => {}
            }
        }
        let fp = panics as f64 / n as f64;
        let fc = cancels as f64 / n as f64;
        assert!((fp - 0.2).abs() < 0.02, "panic fraction drifted: {fp}");
        assert!((fc - 0.3).abs() < 0.02, "cancel fraction drifted: {fc}");
    }

    #[test]
    fn parse_round_trips_a_spec() {
        let plan = FaultPlan::parse("panic=0.1, stall=0.05, cancel=0.2, seed=7").unwrap();
        assert!(plan.is_active());
        assert_eq!(plan.seed, 7);
        assert!((plan.panic - 0.1).abs() < 1e-12);
        assert!((plan.stall - 0.05).abs() < 1e-12);
        assert!((plan.cancel - 0.2).abs() < 1e-12);
        assert!(FaultPlan::parse("panic=zero").is_err());
        assert!(FaultPlan::parse("explode=1").is_err());
        assert!(FaultPlan::parse("").unwrap().decide(1).is_none());
    }

    #[test]
    fn full_fraction_always_fires() {
        let plan = FaultPlan::none().panic_fraction(1.0);
        assert!((0..1_000).all(|s| plan.decide(s) == Some(Fault::Panic)));
    }
}
