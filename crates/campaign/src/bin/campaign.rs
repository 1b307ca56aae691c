//! `campaign` — run a declarative machine-variant campaign.
//!
//! ```text
//! campaign <spec.toml|spec.json> [--out results.jsonl] [--serial] [--metrics] [--variant-metrics]
//! ```
//!
//! Reads a campaign spec (TOML or JSON, auto-detected), streams the
//! variant cross-product through the warm-start sweep engine, and writes
//! one JSONL line per variant plus a summary line (sharing counters and
//! the FOM/power/MTTI Pareto frontier). The artifact is deterministic:
//! serial and parallel runs produce byte-identical files. Throughput is
//! printed to stdout only, never written to the artifact.
//!
//! `--variant-metrics` adds a `"metrics"` object to every row — that
//! variant's own scoped telemetry snapshot (solver, GPCNeT, cache, and
//! overlay counters), collected via per-variant metric scopes. The
//! snapshots are wall-clock-free, so the artifact stays byte-identical
//! between serial and parallel runs.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "a binary: it prints its throughput report and diagnostics"
)]

use frontier_campaign::engine::{self, Mode, RunConfig};
use frontier_campaign::jsonl;
use frontier_campaign::spec::CampaignSpec;
use frontier_core::sim_core::metrics;
use std::fs::File;
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str =
    "usage: campaign <spec.toml|spec.json> [--out <path>] [--serial] [--metrics] [--variant-metrics]";

struct Cli {
    spec_path: String,
    out_path: String,
    mode: Mode,
    metrics: bool,
    variant_metrics: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut spec_path = None;
    let mut out_path = "campaign_results.jsonl".to_string();
    let mut mode = Mode::Parallel;
    let mut metrics = false;
    let mut variant_metrics = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => {
                out_path = it
                    .next()
                    .ok_or_else(|| "--out requires a path".to_string())?
                    .clone();
            }
            "--serial" => mode = Mode::Serial,
            "--metrics" => metrics = true,
            "--variant-metrics" => variant_metrics = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag {other}\n{USAGE}"));
            }
            other => {
                if spec_path.replace(other.to_string()).is_some() {
                    return Err(format!("more than one spec path\n{USAGE}"));
                }
            }
        }
    }
    let spec_path = spec_path.ok_or_else(|| USAGE.to_string())?;
    Ok(Cli {
        spec_path,
        out_path,
        mode,
        metrics,
        variant_metrics,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let text = match std::fs::read_to_string(&cli.spec_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("campaign: cannot read {}: {e}", cli.spec_path);
            return ExitCode::FAILURE;
        }
    };
    let spec = match CampaignSpec::parse_str(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("campaign: {}: {e}", cli.spec_path);
            return ExitCode::FAILURE;
        }
    };
    // Created before the run, so an unwritable path fails in a moment,
    // not after every variant has been computed.
    let cannot_write = |e: std::io::Error| {
        eprintln!("campaign: cannot write {}: {e}", cli.out_path);
        ExitCode::FAILURE
    };
    let mut out = match File::create(&cli.out_path) {
        Ok(f) => f,
        Err(e) => return cannot_write(e),
    };

    println!(
        "campaign \"{}\": {} variants ({} shapes x {} seeds x {} capacity points x {} overlays), {} mode",
        spec.name,
        spec.variant_count(),
        spec.shape_count(),
        spec.seeds.len(),
        spec.capacity_count(),
        spec.overlay_count(),
        match cli.mode {
            Mode::Serial => "serial",
            Mode::Parallel => "parallel",
        },
    );

    if cli.metrics {
        metrics::set_enabled(true);
        #[expect(
            clippy::disallowed_methods,
            reason = "--metrics reads the process-global registry, which the JSONL artifact never sees"
        )]
        metrics::global().reset();
    }
    #[expect(
        clippy::disallowed_methods,
        reason = "the throughput line on stdout is wall-clock; the JSONL artifact is not"
    )]
    let t0 = Instant::now();
    let cfg = RunConfig {
        mode: cli.mode,
        variant_metrics: cli.variant_metrics,
    };
    let result = engine::run_with(&spec, &cfg);
    let wall = t0.elapsed().as_secs_f64();

    let doc = jsonl::render_campaign(&spec.name, &result);
    if let Err(e) = out.write_all(doc.as_bytes()) {
        return cannot_write(e);
    }

    let s = &result.stats;
    println!(
        "campaign: {} variants in {:.2} s ({:.0} variants/min) -> {}",
        result.rows.len(),
        wall,
        result.rows.len() as f64 / (wall / 60.0).max(1e-9),
        cli.out_path,
    );
    println!(
        "campaign: {} tracks, {} routing passes, {} cold solves + {} warm resolves, {} outcomes built for {} requests, pareto {} of {}",
        s.tracks,
        s.routing_passes,
        s.cold_solves,
        s.warm_resolves,
        s.outcome_built,
        s.outcome_requests,
        result.pareto.len(),
        result.rows.len(),
    );
    if cli.metrics {
        #[expect(
            clippy::disallowed_methods,
            reason = "--metrics reads the process-global registry, which the JSONL artifact never sees"
        )]
        let snap = metrics::global().snapshot();
        metrics::set_enabled(false);
        let mut keys: Vec<&String> = snap.counters.keys().collect();
        keys.sort();
        for k in keys {
            if k.starts_with("campaign.") || k.starts_with("bench.cache.") {
                println!("campaign: metric {k} = {}", snap.counters[k]);
            }
        }
    }
    ExitCode::SUCCESS
}
