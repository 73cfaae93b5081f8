//! `#[for_loop]`'s schedule arguments against `Schedule::parse`, the
//! grammar they are lowered to, and `#[parallel]`'s `only_if` forms. Kept
//! out of `lib.rs` so that file names no schedule spelling of its own (CI
//! greps for it).

use super::{only_if_setter, schedule_expr};
use aomp::schedule::Schedule;

#[test]
fn only_if_takes_an_expression_or_auto() {
    assert_eq!(only_if_setter("n > 10").unwrap(), "only_if(n > 10)");
    let auto = only_if_setter("\"auto\"").unwrap();
    assert!(auto.starts_with("adaptive({"), "{auto}");
    assert!(
        auto.contains(
            "static __AOMP_GATE: ::std::sync::LazyLock<::std::sync::Arc<::aomp::region::Gate>>"
        ),
        "one static gate per annotated function: {auto}"
    );
    assert!(
        auto.contains("::std::sync::Arc::clone(&__AOMP_GATE)"),
        "{auto}"
    );
    let err = only_if_setter("\"sometimes\"").expect_err("not a form");
    assert!(err.contains("only_if = \"sometimes\""), "{err}");
    assert!(err.contains("<bool expression> | \"auto\""), "{err}");
}

fn expr_of(schedule: Schedule) -> Result<String, String> {
    Ok(format!("::aomp::schedule::Schedule::{schedule:?}"))
}

/// Every spelling and alias `Schedule::parse` documents, as
/// `(kind, numeric argument name, value without it)`.
const SPELLINGS: &[(&str, Option<&str>, Option<Schedule>)] = &[
    ("staticBlock", None, Some(Schedule::StaticBlock)),
    ("static_block", None, Some(Schedule::StaticBlock)),
    ("static", None, Some(Schedule::StaticBlock)),
    ("staticCyclic", None, Some(Schedule::StaticCyclic)),
    ("static_cyclic", None, Some(Schedule::StaticCyclic)),
    ("cyclic", None, Some(Schedule::StaticCyclic)),
    ("dynamic", Some("chunk"), Some(Schedule::DYNAMIC)),
    ("guided", Some("min_chunk"), Some(Schedule::GUIDED)),
    ("blockCyclic", Some("chunk"), None),
    ("block_cyclic", Some("chunk"), None),
    ("adaptive", Some("min_chunk"), Some(Schedule::ADAPTIVE)),
];

#[test]
fn every_documented_spelling_lowers_to_what_parse_reads() {
    for &(kind, arg, bare) in SPELLINGS {
        // Without a numeric argument: the default, or an error where
        // `Schedule::parse` requires one.
        assert_eq!(Schedule::parse(kind), bare, "{kind}");
        match bare {
            Some(s) => assert_eq!(schedule_expr(kind, None, None), expr_of(s), "{kind}"),
            None => assert!(schedule_expr(kind, None, None).is_err(), "{kind}"),
        }
        // With each numeric argument: accepted only under the name of
        // the field it sets, and then exactly `parse("kind,n")`.
        for (name, chunk, min_chunk) in [("chunk", Some(6), None), ("min_chunk", None, Some(6))] {
            let got = schedule_expr(kind, chunk, min_chunk);
            if arg == Some(name) {
                let parsed = Schedule::parse(&format!("{kind},6")).expect("documented spelling");
                assert_eq!(got, expr_of(parsed), "{kind}, {name} = 6");
            } else {
                let err = got.expect_err("an argument the schedule does not take");
                assert!(err.contains(&format!("{kind:?}, {name} = 6")), "{err}");
            }
        }
        assert!(schedule_expr(kind, Some(6), Some(6)).is_err(), "{kind}");
    }
}

#[test]
fn the_expression_is_the_schedule_value() {
    assert_eq!(
        schedule_expr("dynamic", Some(7), None).unwrap(),
        "::aomp::schedule::Schedule::Dynamic { chunk: 7 }"
    );
    assert_eq!(
        schedule_expr("cyclic", None, None).unwrap(),
        "::aomp::schedule::Schedule::StaticCyclic"
    );
    assert_eq!(
        schedule_expr("runtime", None, None).unwrap(),
        "::aomp::schedule::Schedule::from_env()"
    );
}

#[test]
fn what_parse_rejects_is_an_error_quoting_the_spelling_and_the_forms() {
    let rejected = [
        ("dynamic", Some(0), None),
        ("guided", None, Some(0)),
        ("blockCyclic", None, None),
        ("staticBlock", Some(4), None),
        ("staticCyclic", Some(4), None),
        ("runtime", Some(4), None),
        ("runtime", None, Some(4)),
        ("guided", Some(4), None),
        ("adaptive", Some(4), None),
        ("dynamic", None, Some(4)),
        ("blockCyclic", None, Some(4)),
        ("dynamic,4", None, None),
        ("Dynamic", None, None),
        ("", None, None),
    ];
    for (kind, chunk, min_chunk) in rejected {
        let err = schedule_expr(kind, chunk, min_chunk).expect_err(kind);
        assert!(err.contains(&format!("schedule = {kind:?}")), "{err}");
        for form in [
            "\"staticBlock\" |",
            "\"staticCyclic\" |",
            "\"dynamic\"[, chunk = n]",
            "\"guided\"[, min_chunk = n]",
            "\"blockCyclic\", chunk = n |",
            "\"adaptive\"[, min_chunk = n]",
            "\"runtime\"",
        ] {
            assert!(err.contains(form), "{form} missing from: {err}");
        }
    }
}
