//! Pointcuts: predicates selecting the join points an aspect acts on.
//!
//! Mirrors the subset of AspectJ's pointcut language the paper uses:
//! `call(void Type.method(..))` becomes [`Pointcut::call`]; the `||`
//! compositions of paper Figure 7 become [`Pointcut::or`]; binding to
//! every implementation of an interface method ("pointcuts defined over
//! Java interfaces", retained across inheritance) is expressed with glob
//! patterns such as `Particle.force` matched against names the
//! implementors expose, or `*.force` to match any type.

use crate::joinpoint::{JoinPoint, JoinPointKind};

/// A join-point predicate.
#[derive(Debug, Clone, PartialEq)]
pub enum Pointcut {
    /// Matches a method by its exact qualified name.
    Call(String),
    /// Matches names against a glob pattern (`*` matches any run of
    /// characters, including dots).
    Glob(String),
    /// Matches join points of one shape (e.g. every for method).
    Kind(JoinPointKind),
    /// Matches every join point.
    Any,
    /// Matches nothing (identity for [`Pointcut::or`] folds).
    None,
    /// Disjunction — the paper's `pc1() || pc2()`.
    Or(Box<Pointcut>, Box<Pointcut>),
    /// Conjunction — AspectJ's `pc1() && pc2()`.
    And(Box<Pointcut>, Box<Pointcut>),
    /// Negation — AspectJ's `!pc()`.
    Not(Box<Pointcut>),
}

impl Pointcut {
    /// `call(Type.method)` — exact-name pointcut.
    pub fn call(name: impl Into<String>) -> Self {
        Pointcut::Call(name.into())
    }

    /// Glob pointcut, e.g. `Particle.*` or `*.force`.
    pub fn glob(pattern: impl Into<String>) -> Self {
        Pointcut::Glob(pattern.into())
    }

    /// Pointcut over a join point shape.
    pub fn kind(kind: JoinPointKind) -> Self {
        Pointcut::Kind(kind)
    }

    /// `self || other`.
    pub fn or(self, other: Pointcut) -> Self {
        Pointcut::Or(Box::new(self), Box::new(other))
    }

    /// `self && other`.
    pub fn and(self, other: Pointcut) -> Self {
        Pointcut::And(Box::new(self), Box::new(other))
    }

    /// `!self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Pointcut::Not(Box::new(self))
    }

    /// Disjunction of several exact names — the common Figure 7 shape.
    pub fn calls<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        names.into_iter().fold(Pointcut::None, |acc, n| match acc {
            Pointcut::None => Pointcut::call(n),
            acc => acc.or(Pointcut::call(n)),
        })
    }

    /// Does this pointcut select `jp`?
    pub fn matches(&self, jp: &JoinPoint<'_>) -> bool {
        match self {
            Pointcut::Call(name) => jp.name == name,
            Pointcut::Glob(pat) => glob_match(pat, jp.name),
            Pointcut::Kind(k) => jp.kind == *k,
            Pointcut::Any => true,
            Pointcut::None => false,
            Pointcut::Or(a, b) => a.matches(jp) || b.matches(jp),
            Pointcut::And(a, b) => a.matches(jp) && b.matches(jp),
            Pointcut::Not(p) => !p.matches(jp),
        }
    }
}

/// Simple glob matcher: `*` matches any (possibly empty) run of
/// characters; everything else matches literally. Iterative
/// backtracking over bytes (method names are ASCII by convention).
pub(crate) fn glob_match(pattern: &str, text: &str) -> bool {
    let p = pattern.as_bytes();
    let t = text.as_bytes();
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == b'*' {
            star = Some((pi, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            // Extend the last star's match by one character.
            pi = sp + 1;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == b'*' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aomp::range::LoopRange;

    fn jp(name: &str) -> JoinPoint<'_> {
        JoinPoint::plain(name)
    }

    #[test]
    fn exact_call_matching() {
        let pc = Pointcut::call("Linpack.dgefa");
        assert!(pc.matches(&jp("Linpack.dgefa")));
        assert!(!pc.matches(&jp("Linpack.dscal")));
    }

    #[test]
    fn glob_star_positions() {
        assert!(glob_match("Particle.*", "Particle.force"));
        assert!(glob_match("*.force", "Particle.force"));
        assert!(glob_match("*", "anything.at.all"));
        assert!(glob_match("P*e.f*e", "Particle.force"));
        assert!(!glob_match("Particle.*", "Atom.force"));
        assert!(!glob_match("*.force", "Particle.domove"));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
        assert!(glob_match("**", "x"));
        assert!(glob_match("a*", "a"));
        assert!(!glob_match("a*b", "acd"));
    }

    #[test]
    fn interface_style_glob_matches_all_implementations() {
        // The LAMMPS-style scenario of §II: many Particle implementations.
        let pc = Pointcut::glob("*.force");
        for name in [
            "LJParticle.force",
            "CoulombParticle.force",
            "EAMParticle.force",
        ] {
            assert!(pc.matches(&jp(name)), "{name}");
        }
        assert!(!pc.matches(&jp("LJParticle.domove")));
    }

    #[test]
    fn or_composition_matches_either() {
        // Paper Figure 7's barrierAfter pointcut.
        let pc = Pointcut::calls([
            "Linpack.reduceAllCols",
            "Linpack.interchange",
            "Linpack.dscal",
        ]);
        assert!(pc.matches(&jp("Linpack.interchange")));
        assert!(pc.matches(&jp("Linpack.dscal")));
        assert!(!pc.matches(&jp("Linpack.dgefa")));
    }

    #[test]
    fn and_not_compose() {
        let pc = Pointcut::glob("Linpack.*").and(Pointcut::call("Linpack.dgefa").not());
        assert!(pc.matches(&jp("Linpack.dscal")));
        assert!(!pc.matches(&jp("Linpack.dgefa")));
        assert!(!pc.matches(&jp("Other.dscal")));
    }

    #[test]
    fn kind_pointcut() {
        let pc = Pointcut::kind(JoinPointKind::ForMethod);
        assert!(pc.matches(&JoinPoint::for_method("A.f", LoopRange::upto(0, 1))));
        assert!(!pc.matches(&jp("A.f")));
    }

    #[test]
    fn any_and_none() {
        assert!(Pointcut::Any.matches(&jp("x")));
        assert!(!Pointcut::None.matches(&jp("x")));
        assert!(!Pointcut::calls(Vec::<String>::new()).matches(&jp("x")));
    }
}
