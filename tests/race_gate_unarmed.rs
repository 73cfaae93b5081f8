//! The race oracle's cost contract: a tracked wrapper decides when it is
//! built. Built with no checker armed it keeps no label, so it *is* the
//! `new` wrapper and every access is a plain memory operation; only a
//! wrapper built while armed reports (and re-checks the gate per access).
//! `race_detection::a_tracked_wrapper_reports_iff_built_while_armed`
//! covers the armed side.
//!
//! Lives in its own test binary because the sink `armed()` reads is
//! process-global: nothing in this process ever runs an exploration, so
//! nothing arms it (in `race_detection` the sibling explorations do).

use aomplib::runtime::cell::SyncSlice;
use aomplib::runtime::check::Tracked;

#[test]
fn unarmed_tracked_accessors_are_plain_memory_operations() {
    // No exploration in this test, so nothing arms the process-global
    // sink: `armed()` reads false when the wrappers are built (so they
    // carry no label and report nothing), throughout, and after.
    assert!(!aomplib::runtime::check::armed());
    let mut data = vec![0u64; 64];
    let arr = SyncSlice::tracked(&mut data, "gate.probe");
    let cell = Tracked::new("gate.cell", 0u64);
    for i in 0..64 {
        // SAFETY: single-threaded test body.
        unsafe {
            arr.set(i, i as u64);
            assert_eq!(arr.read(i), i as u64);
            cell.set(i as u64);
            assert_eq!(cell.read(), i as u64);
        }
    }
    assert!(!aomplib::runtime::check::armed());
    assert_eq!(cell.into_inner(), 63);
}
