//! Human-readable rendering of a metrics snapshot: the `repro --report`
//! summary.
//!
//! The report answers the three questions the raw snapshot buries in JSON:
//! where did wall-clock go (section timings), how hard did the solver work
//! (round histogram and freeze causes), and which link level binds (the
//! per-level saturation table). Everything else — cache effectiveness, UGAL
//! decisions, MTTI cause tallies — shows up in the closing counter table.

use frontier_core::prelude::Table;
use frontier_core::sim_core::metrics::MetricsSnapshot;

/// Render `snap` as the `--report` text.
pub fn render_report(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("== telemetry report ==\n");

    // Section wall-clock, heaviest first.
    let mut sections: Vec<(&String, &_)> = snap
        .wallclock
        .iter()
        .filter(|(k, _)| k.starts_with("repro.section."))
        .collect();
    if !sections.is_empty() {
        // total_cmp: a total order needs no expect, and a stray NaN
        // timing cannot abort the report.
        sections.sort_by(|a, b| {
            b.1.total_ms
                .total_cmp(&a.1.total_ms)
                .then_with(|| a.0.cmp(b.0))
        });
        let mut t = Table::new(
            "Section wall-clock",
            &["section", "calls", "median ms", "total ms"],
        );
        for (name, w) in sections {
            t.row(&[
                name.trim_start_matches("repro.section.").to_string(),
                w.calls.to_string(),
                format!("{:.2}", w.median_ms),
                format!("{:.2}", w.total_ms),
            ]);
        }
        out.push_str(&t.to_string());
        out.push('\n');
    }

    // Solver work summary and round histogram.
    if let Some(&solves) = snap.counters.get("fabric.maxmin.solves") {
        let c = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
        let rounds = c("fabric.maxmin.rounds");
        out.push_str(&format!(
            "max-min solver: {solves} solves, {} flows, {rounds} rounds ({:.1} rounds/solve), \
             froze {} at demand / {} by saturation\n",
            c("fabric.maxmin.flows"),
            rounds as f64 / solves.max(1) as f64,
            c("fabric.maxmin.frozen_demand"),
            c("fabric.maxmin.frozen_saturation"),
        ));
        if let Some(h) = snap.histograms.get("fabric.maxmin.rounds_per_solve") {
            out.push_str(&render_histogram("rounds per solve", h));
        }
        out.push('\n');
    }

    // Saturated links per level, in fixed order: which level binds.
    let levels = ["injection", "ejection", "local", "global"].map(|lvl| {
        let c = |kind: &str| snap.counters.get(&format!("fabric.link.{lvl}.{kind}"));
        (lvl, c("observed"), c("saturated"))
    });
    if levels.iter().any(|(_, obs, _)| obs.is_some()) {
        let count = |c: Option<&u64>| c.copied().unwrap_or(0);
        let observed: u64 = levels.iter().map(|l| count(l.1)).sum();
        let saturated: u64 = levels.iter().map(|l| count(l.2)).sum();
        let mut t = Table::new(
            format!("Link saturation by level ({observed} observed, {saturated} saturated)"),
            &["level", "observed", "saturated", "saturated %"],
        );
        for (lvl, obs, sat) in levels {
            let (obs, sat) = (count(obs), count(sat));
            t.row(&[
                lvl.to_string(),
                obs.to_string(),
                sat.to_string(),
                format!("{:.1}", 100.0 * sat as f64 / obs.max(1) as f64),
            ]);
        }
        out.push_str(&t.to_string());
        out.push('\n');
    }

    // Everything countable, verbatim.
    if !snap.counters.is_empty() {
        let mut t = Table::new("Counters", &["name", "value"]);
        for (name, v) in &snap.counters {
            t.row(&[name.clone(), v.to_string()]);
        }
        out.push_str(&t.to_string());
    }

    out
}

/// Render per-section scoped snapshots as the `--report` text: a
/// breakdown table (one row per section, its own scope's solver/DES/
/// cache activity) followed by the classic [`render_report`] over the
/// merged totals. `sections` come in render order; `extra` is the global
/// registry's snapshot — shared-resource telemetry (cache builds) plus
/// anything recorded outside every section scope — absorbed into the
/// totals so nothing collected disappears from the report.
pub fn render_scoped_report(
    sections: &[(String, MetricsSnapshot)],
    extra: &MetricsSnapshot,
) -> String {
    let mut out = String::from("== per-section breakdown ==\n");
    let mut t = Table::new(
        "Per-section activity",
        &[
            "section",
            "wall ms",
            "solves",
            "flows",
            "des events",
            "mtti trials",
            "cache reqs",
        ],
    );
    let mut merged = MetricsSnapshot::default();
    for (name, snap) in sections {
        let c = |k: &str| snap.counters.get(k).copied().unwrap_or(0);
        let cache_reqs: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("bench.cache.") && k.ends_with(".requests"))
            .map(|(_, v)| v)
            .sum();
        let wall = snap
            .wallclock
            .get(&format!("repro.section.{name}"))
            .map(|w| format!("{:.2}", w.total_ms))
            .unwrap_or_else(|| "-".to_string());
        t.row(&[
            name.clone(),
            wall,
            c("fabric.maxmin.solves").to_string(),
            c("fabric.route.flows").to_string(),
            c("fabric.des.events").to_string(),
            c("resilience.mtti.trials").to_string(),
            cache_reqs.to_string(),
        ]);
        merged.absorb(snap);
    }
    merged.absorb(extra);
    out.push_str(&t.to_string());
    out.push('\n');
    out.push_str(&render_report(&merged));
    out
}

/// One line per non-empty bucket: `[lo, hi)  count  bar`.
fn render_histogram(title: &str, h: &frontier_core::sim_core::metrics::HistSnapshot) -> String {
    let mut out = format!("{title} (n = {}):\n", h.count());
    let peak = h
        .buckets
        .iter()
        .copied()
        .chain([h.underflow, h.overflow])
        .max()
        .unwrap_or(0)
        .max(1);
    let mut line = |label: String, n: u64| {
        if n > 0 {
            let bar = "#".repeat(((n * 40).div_ceil(peak)) as usize);
            out.push_str(&format!("  {label:>14}  {n:>8}  {bar}\n"));
        }
    };
    line(format!("< {}", h.lo), h.underflow);
    for (i, &n) in h.buckets.iter().enumerate() {
        let (lo, hi) = h.bucket_range(i);
        line(format!("[{lo}, {hi})"), n);
    }
    line(format!(">= {}", h.hi), h.overflow);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use frontier_core::sim_core::metrics::MetricsRegistry;

    #[test]
    fn report_covers_all_families() {
        let r = MetricsRegistry::new();
        r.counter("fabric.maxmin.solves").add(2);
        r.counter("fabric.maxmin.rounds").add(10);
        r.counter("fabric.maxmin.flows").add(100);
        r.counter("fabric.maxmin.frozen_demand").add(40);
        r.counter("fabric.maxmin.frozen_saturation").add(60);
        r.histogram("fabric.maxmin.rounds_per_solve", 0.0, 64.0, 16)
            .record(5.0);
        r.counter("fabric.link.ejection.observed").add(8);
        r.counter("fabric.link.ejection.saturated").add(3);
        r.counter("fabric.link.global.observed").add(4);
        r.counter("fabric.link.global.saturated").add(1);
        {
            let _t = r.timer("repro.section.table5");
        }
        let text = render_report(&r.snapshot());
        assert!(text.contains("Section wall-clock"));
        assert!(text.contains("table5"));
        assert!(text.contains("2 solves"));
        assert!(text.contains("rounds per solve"));
        assert!(text.contains("Link saturation by level (12 observed, 4 saturated)"));
        assert!(text.contains("37.5"), "ejection saturated %");
        assert!(
            text.contains("injection"),
            "levels with no counters still get a row"
        );
        assert!(text.contains("fabric.maxmin.frozen_demand"));
    }

    #[test]
    fn scoped_report_breaks_down_by_section_and_merges_totals() {
        let mtti = MetricsRegistry::new();
        mtti.counter("resilience.mtti.trials").add(5000);
        mtti.counter("bench.cache.machine.requests").inc();
        {
            let _t = mtti.timer("repro.section.mtti");
        }
        let ugal = MetricsRegistry::new();
        ugal.counter("fabric.route.flows").add(160);
        ugal.counter("fabric.maxmin.solves").add(2);
        let sections = vec![
            ("mtti".to_string(), mtti.snapshot()),
            ("ugal".to_string(), ugal.snapshot()),
        ];
        let shared = MetricsRegistry::new();
        shared.counter("bench.cache.dragonfly.built").inc();
        let text = render_scoped_report(&sections, &shared.snapshot());
        assert!(text.contains("Per-section activity"));
        assert!(text.contains("mtti"));
        assert!(text.contains("ugal"));
        assert!(text.contains("5000"), "per-section mtti trials column");
        // Merged totals include the global (shared-resource) snapshot.
        assert!(text.contains("bench.cache.dragonfly.built"));
        assert!(text.contains("resilience.mtti.trials"));
    }

    #[test]
    fn empty_snapshot_renders_header_only() {
        let text = render_report(&MetricsRegistry::new().snapshot());
        assert!(text.starts_with("== telemetry report =="));
        assert!(!text.contains("Section wall-clock"));
    }
}
