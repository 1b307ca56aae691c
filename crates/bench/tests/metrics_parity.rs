//! The tentpole's safety property: enabling telemetry must not change any
//! simulated result, and one pass over the representative sections must
//! populate every metric family the ISSUE acceptance criteria name.
//!
//! Lives in its own binary because it toggles the process-global registry.

use frontier_bench::experiments as exp;
use frontier_bench::Scale;
use frontier_core::sim_core::metrics;

#[test]
fn metrics_do_not_perturb_sections_and_cover_required_families() {
    // table5 -> solver/link/cache, mtti -> resilience, collectives -> DES,
    // ugal -> routing decisions. Rendered once with telemetry off, once on.
    let sections = ["table5", "mtti", "collectives", "ugal"];
    let render_all = || -> Vec<String> {
        sections
            .iter()
            .map(|s| exp::section_text(s, Scale::Small).expect("known section"))
            .collect()
    };

    metrics::set_enabled(false);
    let off = render_all();

    metrics::set_enabled(true);
    #[expect(
        clippy::disallowed_methods,
        reason = "this test checks what reaches the process-global registry"
    )]
    metrics::global().reset();
    let on = render_all();
    #[expect(
        clippy::disallowed_methods,
        reason = "this test checks what reaches the process-global registry"
    )]
    let snap = metrics::global().snapshot();
    metrics::set_enabled(false);

    assert_eq!(off, on, "telemetry changed a simulated result");

    for family in [
        "fabric.maxmin.",
        "fabric.link.",
        "fabric.route.",
        "fabric.ugal.",
        "fabric.des.",
        "resilience.mtti.",
        "bench.cache.",
    ] {
        assert!(
            snap.counters.keys().any(|k| k.starts_with(family)),
            "no {family}* counters in {:?}",
            snap.counters.keys().collect::<Vec<_>>()
        );
    }
    for section in sections {
        let key = format!("repro.section.{section}");
        assert_eq!(snap.wallclock[&key].calls, 1, "{key}");
    }
    assert!(snap
        .histograms
        .contains_key("fabric.maxmin.rounds_per_solve"));
    assert!(snap.histograms.contains_key("fabric.link.utilization"));
    assert!(snap.counters.contains_key("fabric.link.ejection.observed"));

    // The snapshot round-trips through JSON with the required families
    // visible (the repro binary writes exactly this string).
    let json = snap.to_json();
    for needle in [
        "\"fabric.maxmin.solves\"",
        "\"fabric.link.utilization\"",
        "\"resilience.mtti.trials\"",
        "\"repro.section.table5\"",
    ] {
        assert!(json.contains(needle), "{needle} missing from snapshot JSON");
    }
}
