//! Regression test for structural per-section metric attribution: with
//! scoped rendering (`repro --report` / `--metrics`), each section's
//! snapshot contains exactly that section's activity, and rendering the
//! sections concurrently through `par` (what `repro --jobs N` does)
//! produces byte-identical per-section snapshots to rendering them one
//! at a time. Before scopes, concurrent sections interleaved their
//! counts in the shared global registry, so attribution depended on the
//! thread schedule.
//!
//! Lives in its own binary because it asserts on the process-global
//! registry's contents.

use frontier_bench::experiments as exp;
use frontier_bench::Scale;
use frontier_core::sim_core::{metrics, par};

/// Sections with disjoint, recognizable telemetry: the solver/link work
/// of table5, the Monte-Carlo trials of mtti, the DES events of
/// collectives, and the routing decisions of ugal.
const SECTIONS: [&str; 4] = ["table5", "mtti", "collectives", "ugal"];

fn scoped_snapshots(parallel: bool) -> Vec<(String, String)> {
    let render = |name: &&str| {
        #[expect(
            clippy::expect_used,
            reason = "a test helper: SECTIONS lists known sections, and a miss must fail the test"
        )]
        let (_, snap) = exp::section_text_scoped(name, Scale::Small).expect("known section");
        (name.to_string(), snap.deterministic_json())
    };
    if parallel {
        par::map(&SECTIONS, render)
    } else {
        SECTIONS.iter().map(render).collect()
    }
}

#[test]
fn per_section_snapshots_are_structural_and_schedule_independent() {
    // Global telemetry off: the section scopes alone opt the
    // instrumentation in, exactly as in `repro --report` before
    // `set_enabled` — and global must stay empty throughout.
    metrics::set_enabled(false);
    #[expect(
        clippy::disallowed_methods,
        reason = "this test checks what reaches the process-global registry"
    )]
    metrics::global().reset();

    let serial = scoped_snapshots(false);
    let parallel = scoped_snapshots(true);

    // The `--jobs N` regression: concurrent rendering must not move a
    // single count between sections.
    assert_eq!(serial, parallel, "per-section snapshots depend on schedule");

    let by_name =
        |name: &str| -> &String { &serial.iter().find(|(n, _)| n == name).expect("rendered").1 };
    // Each marker family appears in its own section's snapshot…
    for (section, marker) in [
        ("table5", "fabric.maxmin.solves"),
        ("mtti", "resilience.mtti.trials"),
        ("collectives", "fabric.des.events"),
        ("ugal", "fabric.ugal."),
    ] {
        assert!(
            by_name(section).contains(marker),
            "{section} snapshot lost its own {marker} telemetry"
        );
    }
    // …and the MTTI trials appear in *only* that section: structural
    // attribution, not best-effort.
    for (name, snap) in &serial {
        if name != "mtti" {
            assert!(
                !snap.contains("resilience.mtti.trials"),
                "{name} snapshot captured another section's counters"
            );
        }
    }

    // Scoped collection with the global flag off leaves the global
    // registry untouched (the topology cache's shared-resource telemetry
    // also needs the flag, so even `bench.cache.*.built` stays out).
    #[expect(
        clippy::disallowed_methods,
        reason = "this test checks what reaches the process-global registry"
    )]
    let global = metrics::global().snapshot();
    assert!(
        global.counters.is_empty(),
        "scoped sections leaked into the global registry: {:?}",
        global.counters.keys().collect::<Vec<_>>()
    );
}
