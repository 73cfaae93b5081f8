//! Common benchmark driver pieces: size presets, timing and result
//! comparison, shared by the kernels, `aomp-benchmark` and the examples.

use std::time::{Duration, Instant};

/// JGF-style problem size presets. The paper reports JGF sizes; the
/// presets here scale each kernel so `Small` finishes in well under a
/// second on one core (tests), `A`/`B` approximate JGF sizes A/B
/// (benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Size {
    /// Tiny — for unit tests.
    Small,
    /// JGF size A scale.
    A,
    /// JGF size B scale.
    B,
}

/// Time `f`, returning its value and the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed())
}

/// True when `a` and `b` agree within relative tolerance `tol`.
pub fn approx_eq(a: f64, b: f64, tol: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_measures_and_returns() {
        let (v, d) = timed(|| {
            std::thread::sleep(Duration::from_millis(5));
            42
        });
        assert_eq!(v, 42);
        assert!(d >= Duration::from_millis(4));
    }

    #[test]
    fn approx_eq_tolerance() {
        assert!(approx_eq(100.0, 100.0001, 1e-5));
        assert!(!approx_eq(100.0, 101.0, 1e-5));
        assert!(approx_eq(0.0, 1e-9, 1e-8));
    }
}
