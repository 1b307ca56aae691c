//! `repro` — regenerate every table and figure of *Frontier: Exploring
//! Exascale* (SC '23) from the simulator models.
//!
//! ```text
//! cargo run --release -p frontier-bench --bin repro            # everything
//! cargo run --release -p frontier-bench --bin repro -- table3  # one section
//! cargo run --release -p frontier-bench --bin repro -- --small all
//! cargo run --release -p frontier-bench --bin repro -- --jobs 4 all
//! cargo run --release -p frontier-bench --bin repro -- --serial all
//! ```
//!
//! Sections are independent, so by default they render concurrently
//! through `sim_core::par` with output buffered per section and printed in the
//! requested (paper) order — byte-identical to `--serial`, because every
//! random draw comes from a stream keyed by `(seed, component, index)`
//! rather than from shared sequential state.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    clippy::expect_used,
    reason = "a binary: it prints the paper's tables and its diagnostics; section names are validated before rendering"
)]

use frontier_bench::experiments as exp;
use frontier_bench::{report, Scale};
use frontier_core::sim_core::prelude::{SimTime, Trace};
use frontier_core::sim_core::{metrics, par};
use std::fs::File;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

const SECTIONS: &[(&str, &str)] = &[
    ("table1", "Frontier compute peak specifications"),
    ("table2", "I/O subsystem specifications"),
    ("table3", "CPU STREAM, temporal vs non-temporal"),
    ("table4", "GPU STREAM"),
    ("table5", "GPCNeT congestion"),
    ("table6", "CAAR application speedups"),
    ("table7", "ECP application speedups"),
    ("fig3", "GEMM sweep per precision"),
    ("fig4", "CPU-to-GCD aggregate bandwidth"),
    ("fig5", "GCD-to-GCD bandwidth, CU vs SDMA"),
    ("fig6", "mpiGraph histograms"),
    ("nodelocal", "node-local storage (fio)"),
    ("orion", "Orion rates and checkpoint ingest"),
    ("power", "Green500 arithmetic"),
    ("mtti", "MTTI and breakdown"),
    ("taper", "taper/bundle-size ablation"),
    ("placement", "scheduler pack-vs-spread"),
    ("nps", "NPS-1 vs NPS-4 ablation"),
    ("nic", "NIC-per-GPU weak-scaling ablation"),
    ("hpl", "HPL panel-loop model / TOP500 entry"),
    (
        "collectives",
        "collective-algorithm ablation on the message DES",
    ),
    ("ugal", "UGAL vs minimal routing on adversarial traffic"),
    (
        "ue",
        "HBM uncorrectable-error scaling + storage-fabric headroom",
    ),
    ("all", "everything, in paper order"),
];

fn usage() -> ! {
    eprintln!(
        "usage: repro [--small] [--serial] [--jobs N] [--metrics FILE] [--trace FILE] [--report] [SECTION ...]\n\n\
         options:\n  \
         --small         ratio-preserving reduced fabric (fast)\n  \
         --serial        render sections one at a time on this thread\n  \
         --jobs N        run on at most N threads, sections and solvers together (default: all cores)\n  \
         --metrics FILE  write the telemetry snapshot as sorted JSON\n  \
         --trace FILE    write per-section wall-clock spans as chrome://tracing JSON\n  \
         --report        print a human-readable telemetry summary after the sections\n\n\
         sections:"
    );
    for (name, desc) in SECTIONS {
        eprintln!("  {name:<10} {desc}");
    }
    std::process::exit(2);
}

fn cannot_write(path: &str, e: std::io::Error) -> ! {
    eprintln!("repro: cannot write {path}: {e}");
    std::process::exit(1);
}

/// Create `path` before the run, so an unwritable path fails in a moment,
/// not after every section has rendered.
fn create_file(path: &str) -> (&str, File) {
    match File::create(path) {
        Ok(f) => (path, f),
        Err(e) => cannot_write(path, e),
    }
}

fn write_file((path, mut file): (&str, File), contents: &str) {
    if let Err(e) = file.write_all(contents.as_bytes()) {
        cannot_write(path, e);
    }
}

fn main() {
    let mut scale = Scale::Full;
    let mut serial = false;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut want_report = false;
    let mut sections: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--small" => scale = Scale::Small,
            "--full" => scale = Scale::Full,
            "--serial" => serial = true,
            "--metrics" => metrics_out = Some(args.next().unwrap_or_else(|| usage())),
            "--trace" => trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--report" => want_report = true,
            "--jobs" => {
                let n: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
                par::set_threads(n);
            }
            "-h" | "--help" => usage(),
            s if s.starts_with('-') => usage(),
            s => sections.push(s.to_string()),
        }
    }
    if sections.is_empty() {
        sections.push("all".to_string());
    }

    // Expand `all` to its sections so they can render independently.
    // Per-section `println!` emits the same bytes as printing the joined
    // `all_text` (sections are joined with "\n" and each println appends
    // one), so concurrent, serial, and pre-expansion outputs all match.
    let expanded: Vec<&str> = sections
        .iter()
        .flat_map(|s| match s.as_str() {
            "all" => exp::PAPER_ORDER.to_vec(),
            other => vec![other],
        })
        .collect();
    for s in &expanded {
        if !exp::PAPER_ORDER.contains(s) {
            usage();
        }
    }
    let metrics_file = metrics_out.as_deref().map(create_file);
    let trace_file = trace_out.as_deref().map(create_file);

    // Telemetry only collects when one of the reporting flags asks for
    // it; otherwise every instrumentation site stays a single relaxed
    // load, and (pinned by the metrics-parity test) the rendered sections
    // are identical either way. With telemetry on, every section renders
    // under its own metrics scope (`section:<name>`), so attribution is
    // structural — concurrent sections cannot interleave their counts —
    // and the global registry holds only shared-resource telemetry
    // (topology-cache builds) plus anything recorded outside a section.
    let telemetry = metrics_out.is_some() || trace_out.is_some() || want_report;
    if telemetry {
        metrics::set_enabled(true);
    }

    // Per-section wall-clock spans for `--trace`, stamped against one
    // process-wide origin so concurrent sections nest correctly in the
    // chrome://tracing view.
    #[expect(
        clippy::disallowed_methods,
        reason = "--trace stamps section spans on the wall clock; the byte-compared output never sees them"
    )]
    let t0 = Instant::now();
    // (track, name, scope, start, end) rows for the chrome trace.
    type SpanRow = (String, String, String, u64, u64);
    let spans: Mutex<Vec<SpanRow>> = Mutex::new(Vec::new());
    let want_trace = trace_out.is_some();

    let render = |name: &&str| {
        let start = t0.elapsed();
        let (text, snap) = if telemetry {
            let (text, snap) = exp::section_text_scoped(name, scale).expect("validated above");
            (text, Some(snap))
        } else {
            (
                exp::section_text(name, scale).expect("validated above"),
                None,
            )
        };
        if want_trace {
            let thread = std::thread::current();
            let track = thread
                .name()
                .map_or_else(|| format!("{:?}", thread.id()), str::to_string);
            spans.lock().expect("span log poisoned").push((
                track,
                name.to_string(),
                format!("section:{name}"),
                start.as_nanos() as u64,
                t0.elapsed().as_nanos() as u64,
            ));
        }
        (text, snap)
    };
    let rendered: Vec<(String, Option<metrics::MetricsSnapshot>)> = if serial {
        expanded.iter().map(render).collect()
    } else {
        par::map(&expanded, render)
    };
    let mut section_snaps: Vec<(String, metrics::MetricsSnapshot)> = Vec::new();
    for ((text, snap), name) in rendered.into_iter().zip(&expanded) {
        println!("{text}");
        if let Some(snap) = snap {
            section_snaps.push((name.to_string(), snap));
        }
    }

    // The run-level snapshot: per-section scoped snapshots absorbed in
    // the requested section order (commutative merges, so serial and
    // parallel runs agree byte-for-byte outside wallclock), plus the
    // global registry's shared-resource telemetry.
    let merged = || {
        let mut m = metrics::MetricsSnapshot::default();
        for (_, snap) in &section_snaps {
            m.absorb(snap);
        }
        m.absorb(&global_snapshot());
        m
    };
    if let Some(file) = metrics_file {
        write_file(file, &merged().to_json());
    }
    if let Some(file) = trace_file {
        let mut spans = spans.into_inner().expect("span log poisoned");
        spans.sort_by_key(|&(_, _, _, start, _)| start);
        let mut tr = Trace::new();
        for (track, name, scope, start, end) in spans {
            tr.span_scoped(
                track,
                name,
                scope,
                SimTime::from_nanos(start),
                SimTime::from_nanos(end),
            );
        }
        write_file(file, &tr.to_chrome_json());
    }
    if want_report {
        print!(
            "{}",
            report::render_scoped_report(&section_snaps, &global_snapshot())
        );
    }
}

/// The process-global registry's snapshot: the shared-resource telemetry
/// (topology-cache builds) that no section scope owns.
#[expect(
    clippy::disallowed_methods,
    reason = "--metrics and --report read the process-global registry, which the byte-compared output never sees"
)]
fn global_snapshot() -> metrics::MetricsSnapshot {
    metrics::global().snapshot()
}
