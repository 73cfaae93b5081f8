//! Cross-crate integration: every JGF benchmark's three versions agree,
//! at several thread counts, driven through the public `aomplib` facade.

use aomplib::jgf;
use aomplib::jgf::Size;

const THREADS: [usize; 3] = [1, 2, 4];

#[test]
fn crypt_all_versions_agree() {
    let data = jgf::crypt::generate(Size::Small);
    let s = jgf::crypt::seq::run(&data);
    assert!(jgf::crypt::validate(&data, &s));
    for t in THREADS {
        assert_eq!(jgf::crypt::mt::run(&data, t).cipher, s.cipher);
        assert_eq!(jgf::crypt::aomp::run(&data, t).cipher, s.cipher);
    }
}

#[test]
fn lufact_all_versions_agree() {
    let data = jgf::lufact::generate(Size::Small);
    let s = jgf::lufact::seq::run(&data);
    assert!(jgf::lufact::validate(&data, &s));
    for t in THREADS {
        assert_eq!(jgf::lufact::mt::run(&data, t).x, s.x);
        assert_eq!(jgf::lufact::aomp::run(&data, t).x, s.x);
    }
}

#[test]
fn series_all_versions_agree() {
    let n = jgf::series::coefficients_for(Size::Small);
    let s = jgf::series::seq::run(n);
    assert!(jgf::series::validate(&s));
    for t in THREADS {
        assert_eq!(jgf::series::mt::run(n, t).coeffs, s.coeffs);
        assert_eq!(jgf::series::aomp::run(n, t).coeffs, s.coeffs);
    }
}

#[test]
fn sor_all_versions_agree() {
    let grid = jgf::sor::generate(Size::Small);
    let s = jgf::sor::seq::run(&grid, 10);
    for t in THREADS {
        assert_eq!(jgf::sor::mt::run(&grid, 10, t).g, s.g);
        assert_eq!(jgf::sor::aomp::run(&grid, 10, t).g, s.g);
    }
}

#[test]
fn sparse_all_versions_agree() {
    let d = jgf::sparse::generate(Size::Small);
    let s = jgf::sparse::seq::run(&d, 10);
    for t in THREADS {
        assert_eq!(jgf::sparse::mt::run(&d, 10, t), s);
        assert_eq!(jgf::sparse::aomp::run(&d, 10, t), s);
    }
}

#[test]
fn moldyn_all_versions_agree() {
    let d = jgf::moldyn::generate(3, 5);
    let s = jgf::moldyn::seq::run(&d);
    assert!(jgf::moldyn::validate(&s));
    for t in THREADS {
        for (name, r) in [
            ("mt", jgf::moldyn::mt::run(&d, t)),
            ("aomp", jgf::moldyn::aomp::run(&d, t)),
            ("critical", jgf::moldyn::variants::run_critical(&d, t)),
            ("locks", jgf::moldyn::variants::run_locks(&d, t)),
        ] {
            assert!(
                jgf::moldyn::agrees(&r, &s, 1e-6),
                "{name} t={t}: {r:?} vs {s:?}"
            );
        }
    }
}

#[test]
fn montecarlo_all_versions_agree() {
    let d = jgf::montecarlo::generate(Size::Small);
    let s = jgf::montecarlo::seq::run(&d);
    assert!(jgf::montecarlo::validate(&d, &s));
    for t in THREADS {
        assert_eq!(jgf::montecarlo::mt::run(&d, t).results, s.results);
        assert_eq!(jgf::montecarlo::aomp::run(&d, t).results, s.results);
    }
}

#[test]
fn raytracer_all_versions_agree() {
    let scene = jgf::raytracer::generate(Size::Small);
    let s = jgf::raytracer::seq::run(&scene);
    assert!(jgf::raytracer::validate(&scene, &s));
    for t in THREADS {
        assert_eq!(jgf::raytracer::mt::run(&scene, t), s);
        assert_eq!(jgf::raytracer::aomp::run(&scene, t), s);
    }
}

// ---------------------------------------------------------------------------
// Checker-driven conformance: every kernel's AOmpLib version, run under
// seeded random schedules (32 by default, `AOMP_CHECK_SEEDS` overrides),
// must reproduce the sequential golden output on *every* explored
// interleaving — the paper's Figure 13 equality claim quantified over
// schedules instead of over one lucky run. A failing seed prints with its
// trace and replays via `aomp_check::replay_random`. Every run also arms
// the vector-clock race oracle over the kernels' tracked shared arrays
// (`Explorer::races(true)`), so a schedule that exposes an unordered
// conflicting access pair fails even if the output happens to match.
// ---------------------------------------------------------------------------

use aomp_check as check;

const CHECKED_THREADS: usize = 2;

fn schedules() -> usize {
    check::seeds_from_env(32)
}

#[test]
fn crypt_aomp_matches_seq_under_random_schedules() {
    let data = jgf::crypt::generate(Size::Small);
    let golden = jgf::crypt::seq::run(&data).cipher;
    check::Explorer::new()
        .races(true)
        .differential(schedules(), 0x0C11, golden, || {
            jgf::crypt::aomp::run(&data, CHECKED_THREADS).cipher
        })
        .assert_ok();
}

#[test]
fn lufact_aomp_matches_seq_under_random_schedules() {
    let data = jgf::lufact::generate(Size::Small);
    let golden = jgf::lufact::seq::run(&data).x;
    check::Explorer::new()
        .races(true)
        .differential(schedules(), 0x1FAC, golden, || {
            jgf::lufact::aomp::run(&data, CHECKED_THREADS).x
        })
        .assert_ok();
}

#[test]
fn series_aomp_matches_seq_under_random_schedules() {
    let n = jgf::series::coefficients_for(Size::Small);
    let golden = jgf::series::seq::run(n).coeffs;
    check::Explorer::new()
        .races(true)
        .differential(schedules(), 0x5E11, golden, || {
            jgf::series::aomp::run(n, CHECKED_THREADS).coeffs
        })
        .assert_ok();
}

#[test]
fn sor_aomp_matches_seq_under_random_schedules() {
    let grid = jgf::sor::generate(Size::Small);
    let golden = jgf::sor::seq::run(&grid, 10).g;
    check::Explorer::new()
        .races(true)
        .differential(schedules(), 0x50BB, golden, || {
            jgf::sor::aomp::run(&grid, 10, CHECKED_THREADS).g
        })
        .assert_ok();
}

#[test]
fn sparse_aomp_matches_seq_under_random_schedules() {
    let d = jgf::sparse::generate(Size::Small);
    let golden = jgf::sparse::seq::run(&d, 10);
    check::Explorer::new()
        .races(true)
        .differential(schedules(), 0x5AA5, golden, || {
            jgf::sparse::aomp::run(&d, 10, CHECKED_THREADS)
        })
        .assert_ok();
}

#[test]
fn moldyn_aomp_matches_seq_under_random_schedules() {
    // MolDyn's parallel versions accumulate forces in a different order
    // than seq, so (as in `moldyn_all_versions_agree`) the oracle is the
    // suite's own tolerance check rather than bitwise equality.
    let d = jgf::moldyn::generate(3, 5);
    let s = jgf::moldyn::seq::run(&d);
    check::Explorer::new()
        .races(true)
        .random(schedules(), 0x30D1, || {
            let r = jgf::moldyn::aomp::run(&d, CHECKED_THREADS);
            assert!(jgf::moldyn::agrees(&r, &s, 1e-6), "{r:?} vs {s:?}");
        })
        .assert_ok();
}

#[test]
fn montecarlo_aomp_matches_seq_under_random_schedules() {
    let d = jgf::montecarlo::generate(Size::Small);
    let golden = jgf::montecarlo::seq::run(&d).results;
    check::Explorer::new()
        .races(true)
        .differential(schedules(), 0x3011, golden, || {
            jgf::montecarlo::aomp::run(&d, CHECKED_THREADS).results
        })
        .assert_ok();
}

#[test]
fn raytracer_aomp_matches_seq_under_random_schedules() {
    let scene = jgf::raytracer::generate(Size::Small);
    let golden = jgf::raytracer::seq::run(&scene);
    check::Explorer::new()
        .races(true)
        .differential(schedules(), 0x11A1, golden, || {
            jgf::raytracer::aomp::run(&scene, CHECKED_THREADS)
        })
        .assert_ok();
}

#[test]
fn table2_metadata_matches_paper() {
    let rows = jgf::all_benchmarks();
    assert_eq!(rows.len(), 8);
    let expect = [
        ("Crypt", "M2FOR, M2M", "PR, FOR (block)"),
        ("LUFact", "M2FOR, M2M", "PR, FOR (block), 4xBR, 2xMA"),
        ("Series", "M2FOR, M2M", "PR, FOR (block)"),
        ("SOR", "M2FOR, M2M", "PR, FOR (block), BR"),
        ("Sparse", "M2FOR, M2M", "PR, FOR (Case Specific), CS"),
        ("MolDyn", "M2FOR, 3xM2M", "PR, FOR (cyclic), 2xTLF"),
        ("MonteCarlo", "M2FOR, M2M", "PR, FOR (cyclic)"),
        ("RayTracer", "M2FOR", "PR, FOR (cyclic), TLF"),
    ];
    for (row, (name, refs, abs)) in rows.iter().zip(expect) {
        assert_eq!(row.name, name);
        assert_eq!(row.refactorings_column(), refs, "{name}");
        assert_eq!(row.abstractions_column(), abs, "{name}");
    }
}

#[test]
fn figure_series_are_generated() {
    // The simulated Figure 13 bar group on the i7 at reduced sizes, through
    // the facade's simcore re-export: every kernel speeds up (the paper's
    // claims at full size are `simcore::models::tests`).
    use aomplib::simcore::{models, Machine, Simulator};
    let machine = Machine::i7();
    let sim = Simulator::new(machine.clone());
    let t = 8;
    for p in [
        models::crypt(1_000_000, false),
        models::lufact(500, false),
        models::series(1_000, false),
        models::sor(500, 50, false),
        models::sparse(100_000, 50, false),
        models::montecarlo(10_000, false),
        models::raytracer(150, false),
    ] {
        let su = sim.speedup(&p, t);
        assert!(su > 0.9, "{}: {su}", p.name);
    }
    // MolDyn's model is thread-aware: its speed-up is over the 1-thread model.
    let moldyn = |t| {
        models::moldyn(
            2048,
            10,
            t,
            models::MolDynStrategy::ThreadLocal,
            &machine,
            false,
        )
    };
    let su = sim.run(&moldyn(1), 1) / sim.run(&moldyn(t), t);
    assert!(su > 0.9, "MolDyn: {su}");
}
