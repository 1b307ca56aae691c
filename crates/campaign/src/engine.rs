//! The campaign executor: walk the plan's tracks, advance each track's
//! max-min allocation with warm-start capacity deltas, share every
//! expensive sub-configuration, and emit one row per variant plus the
//! Pareto frontier over (FOM, power, MTTI).
//!
//! # Sharing ladder
//!
//! From coldest to hottest, each level reuses everything above it:
//!
//! 1. **topology** — `frontier_bench::cache::dragonfly` dedupes graph
//!    builds across tracks (two seeds of the same shape share one build).
//! 2. **routing** — mpiGraph pairs are drawn and routed once per track at
//!    the track's first capacity point, with `RoutePolicy::Minimal`
//!    (capacity-independent paths, so one routing is *exact* for every
//!    capacity point). The pairs' measurement noise is drawn once per
//!    track too.
//! 3. **allocation** — the first capacity point is a cold
//!    [`Solver::solve`]; every later point is a
//!    [`Solver::resolve_with`] carrying the full capacity map of the
//!    variant (bit-equal entries are no-ops, so a snake step that changes
//!    one axis dirties only that axis's links).
//! 4. **fabric outcome** — mpiGraph stats and the HPL FOM of a capacity
//!    point are computed once and reused by every overlay variant on it.
//!
//! Overlay evaluations (power envelope, analytic MTTI) are per-variant
//! arithmetic over small inventories — microseconds each.
//!
//! # Determinism
//!
//! Every row is a pure function of (spec, variant); tracks share no
//! mutable state. Serial and parallel execution produce identical
//! `CampaignResult`s — rows are collected per track and stitched in
//! canonical order, and the sweep counters are summed in track order, not
//! completion order. `bench_campaign` byte-compares the two JSONL streams
//! in CI.

use crate::grid::Variant;
use crate::plan::{self, Track};
use crate::spec::{CampaignSpec, Workload};
use frontier_bench::cache;
use frontier_core::apps::hpl::{self, HplConfig};
use frontier_core::fabric::dragonfly::DragonflyParams;
use frontier_core::fabric::gpcnet::{self, GpcnetConfig};
use frontier_core::fabric::mpigraph::MeasurementNoise;
use frontier_core::fabric::patterns::mpigraph_pairs;
use frontier_core::fabric::routing::{RoutePolicy, Router};
use frontier_core::fabric::solver::{ResolveDelta, Solver};
use frontier_core::power::model::{PowerModel, SystemPower};
use frontier_core::resilience::fit::{FitModel, Inventory};
use frontier_core::resilience::mtti::analytic_mtti;
use frontier_core::sim_core::metrics::{self, MetricsRegistry, MetricsScope, MetricsSnapshot};
use frontier_core::sim_core::par;
use frontier_core::sim_core::rng::StreamRng;
use std::sync::Arc;

/// Execution strategy. Output is identical either way; `Parallel` runs
/// tracks through [`par`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Serial,
    Parallel,
}

/// Execution options for [`run_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunConfig {
    pub mode: Mode,
    /// Collect a per-variant metrics snapshot on every row (and a
    /// per-track snapshot in [`CampaignResult::track_metrics`]) via
    /// scoped registries. Off by default: the sweep then runs with zero
    /// scope installs and rows carry `metrics: None`.
    pub variant_metrics: bool,
}

impl RunConfig {
    pub fn new(mode: Mode) -> RunConfig {
        RunConfig {
            mode,
            variant_metrics: false,
        }
    }
}

/// mpiGraph receive-bandwidth stats of one variant, GB/s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpiStats {
    pub min_gb_s: f64,
    pub mean_gb_s: f64,
    pub max_gb_s: f64,
}

/// One evaluated variant.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantRow {
    pub variant: Variant,
    pub nodes: u64,
    pub switches: u64,
    pub mpi: Option<MpiStats>,
    pub gpcnet_impact: Option<Vec<f64>>,
    pub fom_ef: Option<f64>,
    pub power_mw: f64,
    pub mtti_hours: Option<f64>,
    /// This variant's own telemetry (requires
    /// [`RunConfig::variant_metrics`]): the capacity point's scoped
    /// activity (solve/resolve, GPCNeT, HPL — shared by the point's
    /// overlay variants, collected in a registry of its own) absorbed with
    /// the variant scope's overlay arithmetic, so each row describes what
    /// its capacity point did. The wall-clock section is cleared, so the
    /// snapshot is a pure function of `(spec, variant)` and
    /// serial/parallel JSONL stays byte-identical.
    pub metrics: Option<MetricsSnapshot>,
}

/// Sharing-ladder accounting for one run. `outcome_requests -
/// outcome_built` is the dedupe hit count; `warm_resolves /
/// (cold_solves + warm_resolves)` is the warm-start hit rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SweepStats {
    pub tracks: u64,
    pub cold_solves: u64,
    pub warm_resolves: u64,
    pub routing_passes: u64,
    pub outcome_requests: u64,
    pub outcome_built: u64,
}

impl SweepStats {
    fn absorb(&mut self, other: &SweepStats) {
        self.tracks += other.tracks;
        self.cold_solves += other.cold_solves;
        self.warm_resolves += other.warm_resolves;
        self.routing_passes += other.routing_passes;
        self.outcome_requests += other.outcome_requests;
        self.outcome_built += other.outcome_built;
    }
}

/// The result of a campaign run: rows in canonical-index order, the
/// Pareto-optimal variant indices, and the sharing counters.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    pub rows: Vec<VariantRow>,
    /// Canonical indices of the Pareto frontier over (FOM max, power
    /// min, MTTI max); empty unless both `hpl` and `mtti` workloads ran.
    pub pareto: Vec<u32>,
    pub stats: SweepStats,
    /// One scoped snapshot per track, in plan order (warm/dedupe and
    /// routing attribution per `(shape, seed)` chain). Empty unless
    /// [`RunConfig::variant_metrics`] was set. Wall-clock cleared, like
    /// the row snapshots.
    pub track_metrics: Vec<MetricsSnapshot>,
}

/// Run the campaign. Rows come back in canonical-index order regardless
/// of `mode`.
pub fn run(spec: &CampaignSpec, mode: Mode) -> CampaignResult {
    run_with(spec, &RunConfig::new(mode))
}

/// [`run`] with explicit [`RunConfig`] options.
pub fn run_with(spec: &CampaignSpec, cfg: &RunConfig) -> CampaignResult {
    let tracks = plan::plan(spec);
    // The ordinal rides along so parallel tracks keep deterministic
    // scope labels (`track:N`) independent of completion order.
    let indexed: Vec<(usize, &Track)> = tracks.iter().enumerate().collect();
    let per_track: Vec<TrackOutput> = match cfg.mode {
        Mode::Serial => indexed
            .iter()
            .map(|(i, t)| run_track(spec, t, *i, cfg.variant_metrics))
            .collect(),
        // `par` keeps a caller-installed scope (e.g. a campaign-wide
        // section) on its helpers; each track then nests its own
        // `track:N` scope.
        Mode::Parallel => par::map(&indexed, |&(i, t)| {
            run_track(spec, t, i, cfg.variant_metrics)
        }),
    };
    let mut rows = Vec::with_capacity(spec.variant_count());
    let mut stats = SweepStats::default();
    let mut track_metrics = Vec::new();
    for out in per_track {
        rows.extend(out.rows);
        stats.absorb(&out.stats);
        track_metrics.extend(out.metrics);
    }
    rows.sort_by_key(|r| r.variant.index);
    publish_counters(&stats);
    let pareto = pareto_frontier(&rows);
    CampaignResult {
        rows,
        pareto,
        stats,
        track_metrics,
    }
}

/// Publish the sharing counters to the global metrics registry (when
/// telemetry is on). The totals are summed deterministically before
/// publication, so the snapshot is identical for serial and parallel
/// runs.
fn publish_counters(stats: &SweepStats) {
    if let Some(m) = metrics::active() {
        m.counter("campaign.tracks").add(stats.tracks);
        m.counter("campaign.warm.cold_solves")
            .add(stats.cold_solves);
        m.counter("campaign.warm.resolves").add(stats.warm_resolves);
        m.counter("campaign.dedupe.routing_passes")
            .add(stats.routing_passes);
        m.counter("campaign.dedupe.outcome_requests")
            .add(stats.outcome_requests);
        m.counter("campaign.dedupe.outcome_built")
            .add(stats.outcome_built);
    }
}

/// The fabric-level results of one (shape, seed, capacity) point, shared
/// by its overlay variants.
struct Outcome {
    mpi: Option<MpiStats>,
    gpcnet_impact: Option<Vec<f64>>,
    fom_ef: Option<f64>,
}

/// What one track hands back to [`run_with`]: its rows, its sharing
/// counters, and (with variant metrics on) its track scope's snapshot.
struct TrackOutput {
    rows: Vec<VariantRow>,
    stats: SweepStats,
    metrics: Option<MetricsSnapshot>,
}

/// Snapshot `registry` for deterministic emission: everything but the
/// wall-clock section, which varies run to run and would break the
/// serial ≡ parallel byte identity the JSONL stream promises.
fn deterministic_snapshot(registry: &MetricsRegistry) -> MetricsSnapshot {
    let mut snap = registry.snapshot();
    snap.wallclock.clear();
    snap
}

fn run_track(
    spec: &CampaignSpec,
    track: &Track,
    ordinal: usize,
    variant_metrics: bool,
) -> TrackOutput {
    // The track scope collects everything this track records outside a
    // nested step/variant scope — the routing pass and the per-track
    // sharing counters published below. Nested scopes shadow it (no
    // fan-out), so step and variant work stays out of the track snapshot.
    let track_registry = variant_metrics.then(|| Arc::new(MetricsRegistry::new()));
    let _track_scope = track_registry
        .as_ref()
        .map(|r| MetricsScope::enter_named(format!("track:{ordinal}"), Arc::clone(r)));

    let mut stats = SweepStats {
        tracks: 1,
        ..Default::default()
    };
    let mut rows = Vec::with_capacity(track.steps.len() * spec.overlay_count());

    let want_mpi = spec.has_workload(Workload::MpiGraph);
    let want_gpcnet = spec.has_workload(Workload::Gpcnet);
    let want_hpl = spec.has_workload(Workload::Hpl);
    let want_mtti = spec.has_workload(Workload::Mtti);

    let base_params = track.shape.params(&track.steps[0].cap);
    let df = cache::dragonfly(base_params);

    // Levels 2-3 of the sharing ladder: one routing pass per track, one
    // solver whose allocation is advanced point-to-point.
    let flows = if want_mpi {
        let n = df.params().total_endpoints();
        let mut rng = StreamRng::for_component(track.seed, "mpigraph-pairs", 0);
        let pairs = mpigraph_pairs(n, &mut rng);
        stats.routing_passes += 1;
        Router::new(&df, RoutePolicy::Minimal).route_all(&pairs, 0, track.seed)
    } else {
        Vec::new()
    };
    // The measurement noise depends only on the pair count and the seed,
    // so one draw serves every capacity point.
    let noise = MeasurementNoise::draw(flows.len(), track.seed);
    let mut solver = want_mpi.then(|| Solver::new(df.topology(), flows));

    let nodes = track.shape.total_nodes();
    let switches = track.shape.switch_count();
    let power_model = PowerModel::frontier();
    let base_fits = FitModel::frontier();

    for (step_idx, step) in track.steps.iter().enumerate() {
        // The step scope captures this capacity point's fabric work
        // (solve/resolve, GPCNeT, HPL), which the point's overlay variants
        // share. A fresh registry per point makes its snapshot exactly
        // this point's activity.
        let step_registry = variant_metrics.then(|| Arc::new(MetricsRegistry::new()));
        let step_scope = step_registry.as_ref().map(|r| {
            MetricsScope::enter_named(format!("track:{ordinal}/step:{step_idx}"), Arc::clone(r))
        });

        let vparams = track.shape.params(&step.cap);
        let mpi = solver.as_mut().map(|s| {
            let alloc = if step_idx == 0 {
                stats.cold_solves += 1;
                s.solve()
            } else {
                stats.warm_resolves += 1;
                s.resolve_with(&ResolveDelta::changed_capacities(
                    df.capacities_for(&vparams),
                ))
            };
            let rates: Vec<f64> = alloc.rates.iter().map(|&r| r / 1e9).collect();
            let result = noise.apply(rates);
            MpiStats {
                min_gb_s: result.summary.min,
                mean_gb_s: result.summary.mean,
                max_gb_s: result.summary.max,
            }
        });

        let gpcnet_impact = want_gpcnet.then(|| run_gpcnet(&vparams, nodes, track.seed));
        let fom_ef = want_hpl.then(|| hpl_fom(&vparams, nodes));
        drop(step_scope);
        let step_snap = step_registry.as_ref().map(|r| deterministic_snapshot(r));
        stats.outcome_built += 1;
        let outcome = Outcome {
            mpi,
            gpcnet_impact,
            fom_ef,
        };

        for v in &step.variants {
            stats.outcome_requests += 1;
            // The variant scope covers only the overlay arithmetic; the
            // row snapshot is step work + variant work, merged.
            let var_registry = variant_metrics.then(|| Arc::new(MetricsRegistry::new()));
            let var_scope = var_registry
                .as_ref()
                .map(|r| MetricsScope::enter_named(format!("variant:{}", v.index), Arc::clone(r)));
            if let Some(m) = metrics::active() {
                m.counter("campaign.variant.overlay_evals").inc();
            }
            let power_mw = SystemPower::compute(
                &power_model,
                nodes as usize,
                nodes as usize,
                switches as usize,
            )
            .megawatts()
                * v.overlay.power_scale;
            let mtti_hours = want_mtti.then(|| {
                let inv = Inventory::for_machine(nodes, switches, v.overlay.nvme_per_node);
                analytic_mtti(&inv, &base_fits.scaled(v.overlay.fit_scale)).mtti_hours
            });
            drop(var_scope);
            let row_metrics = step_snap.as_ref().zip(var_registry).map(|(snap, r)| {
                let mut m = snap.clone();
                m.absorb(&deterministic_snapshot(&r));
                m
            });
            rows.push(VariantRow {
                variant: *v,
                nodes,
                switches,
                mpi: outcome.mpi,
                gpcnet_impact: outcome.gpcnet_impact.clone(),
                fom_ef: outcome.fom_ef,
                power_mw,
                mtti_hours,
                metrics: row_metrics,
            });
        }
    }
    // With the track scope still installed, the per-track sharing
    // counters land in the track snapshot, making it self-describing.
    if track_registry.is_some() {
        publish_counters(&stats);
    }
    let metrics = track_registry.map(|r| deterministic_snapshot(&r));
    TrackOutput {
        rows,
        stats,
        metrics,
    }
}

/// GPCNeT congestion impact factors at this capacity point. GPCNeT's
/// workload builder needs a dragonfly at the *variant* capacities, so
/// this path goes through the topology cache rather than the warm chain.
fn run_gpcnet(vparams: &DragonflyParams, nodes: u64, seed: u64) -> Vec<f64> {
    let vdf = cache::dragonfly(vparams.clone());
    let cfg = GpcnetConfig {
        params: vparams.clone(),
        // Frontier ran GPCNeT on ~99% of nodes (9,400 of 9,472); use the
        // same headroom ratio, and at least two nodes.
        nodes: ((nodes * 9_400) / 9_472).max(2) as usize,
        seed,
        ..GpcnetConfig::frontier_table5()
    };
    let report = gpcnet::run_on(&vdf, &cfg);
    (0..report.isolated.len())
        .map(|i| report.impact_factor(i))
        .collect()
}

/// HPL FOM (EF) of this machine variant: the June-2022 panel-loop model
/// with the matrix scaled to the variant's node count (N ∝ √nodes keeps
/// per-node memory constant) and the broadcast bandwidth scaled to the
/// variant's NIC throughput.
fn hpl_fom(vparams: &DragonflyParams, nodes: u64) -> f64 {
    let base = HplConfig::frontier_june2022();
    let scale = (nodes as f64 / base.nodes as f64).sqrt();
    let n = (((base.n as f64 * scale) / base.nb as f64).round().max(1.0)) as u64 * base.nb;
    let frontier = DragonflyParams::frontier();
    let nic_ratio = (vparams.endpoint_rate().as_gb_s() * vparams.nics_per_node as f64)
        / (frontier.endpoint_rate().as_gb_s() * frontier.nics_per_node as f64);
    let cfg = HplConfig {
        n,
        nodes,
        bcast_bandwidth: base.bcast_bandwidth * nic_ratio,
        ..base
    };
    hpl::run(&cfg).rmax.as_ef()
}

/// Non-dominated set over (FOM max, power min, MTTI max), as canonical
/// indices in ascending order. Rows missing FOM or MTTI disqualify the
/// whole frontier (empty result) — a partial Pareto set would silently
/// compare incomparable campaigns.
fn pareto_frontier(rows: &[VariantRow]) -> Vec<u32> {
    let mut points = Vec::with_capacity(rows.len());
    for r in rows {
        let (Some(fom), Some(mtti)) = (r.fom_ef, r.mtti_hours) else {
            return Vec::new();
        };
        points.push((r.variant.index, fom, r.power_mw, mtti));
    }
    let dominated = |a: &(u32, f64, f64, f64), b: &(u32, f64, f64, f64)| {
        // b dominates a: no worse on every axis, better on at least one.
        b.1 >= a.1 && b.2 <= a.2 && b.3 >= a.3 && (b.1 > a.1 || b.2 < a.2 || b.3 > a.3)
    };
    let mut out: Vec<u32> = points
        .iter()
        .filter(|a| !points.iter().any(|b| dominated(a, b)))
        .map(|p| p.0)
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use frontier_core::fabric::mpigraph;

    /// A small-but-real campaign: 2 shapes, a 2×2 capacity grid, 2
    /// overlay points, 2 seeds.
    const SMALL: &str = r#"
        name = "engine-test"
        seeds = [11, 12]
        [machine]
        groups = [6, 8]
        switches_per_group = [4]
        endpoints_per_switch = [4]
        nics_per_node = [4]
        io_groups = [1]
        [sweep]
        link_rate_gbit = [160.0, 200.0]
        bundles_per_group_pair = [1, 2]
        [overlay]
        fit_scale = [1.0, 4.0]
    "#;

    #[test]
    fn parallel_equals_serial_exactly() {
        let spec = CampaignSpec::parse_str(SMALL).unwrap();
        let serial = run(&spec, Mode::Serial);
        let parallel = run(&spec, Mode::Parallel);
        assert_eq!(serial, parallel);
        assert_eq!(serial.rows.len(), spec.variant_count());
        assert!(
            serial.rows.iter().all(|r| r.metrics.is_none()),
            "plain runs must not pay for per-variant snapshots"
        );
        assert!(serial.track_metrics.is_empty());
    }

    #[test]
    fn variant_metrics_are_scoped_and_parallel_identical() {
        let spec = CampaignSpec::parse_str(SMALL).unwrap();
        let serial = run_with(
            &spec,
            &RunConfig {
                mode: Mode::Serial,
                variant_metrics: true,
            },
        );
        let parallel = run_with(
            &spec,
            &RunConfig {
                mode: Mode::Parallel,
                variant_metrics: true,
            },
        );
        // PartialEq covers every row snapshot: scoped collection must be
        // bitwise independent of the execution schedule.
        assert_eq!(serial, parallel);
        for row in &serial.rows {
            let m = row.metrics.as_ref().expect("variant metrics requested");
            assert!(
                m.wallclock.is_empty(),
                "wall-clock must be stripped from deterministic snapshots"
            );
            assert_eq!(
                m.counters.get("campaign.variant.overlay_evals"),
                Some(&1),
                "each row carries exactly its own overlay evaluation"
            );
            assert_eq!(
                m.counters.get("fabric.maxmin.solves"),
                Some(&1),
                "each row carries exactly its own capacity point's solve"
            );
        }
        // One track snapshot per (shape, seed) chain, each holding its own
        // sharing counters.
        let tracks = spec.shape_count() * spec.seeds.len();
        assert_eq!(serial.track_metrics.len(), tracks);
        for t in &serial.track_metrics {
            assert_eq!(t.counters.get("campaign.tracks"), Some(&1));
            assert!(t.wallclock.is_empty());
        }
        // Scoped collection changes nothing about the results themselves.
        let plain = run(&spec, Mode::Serial);
        assert_eq!(plain.pareto, serial.pareto);
        assert_eq!(plain.stats, serial.stats);
        for (a, b) in plain.rows.iter().zip(&serial.rows) {
            assert_eq!(a.variant, b.variant);
            assert_eq!(a.mpi, b.mpi);
            assert_eq!(a.fom_ef, b.fom_ef);
            assert_eq!(a.power_mw, b.power_mw);
            assert_eq!(a.mtti_hours, b.mtti_hours);
        }
    }

    #[test]
    fn first_step_snapshot_shows_the_cold_solve() {
        let spec = CampaignSpec::parse_str(SMALL).unwrap();
        let r = run_with(
            &spec,
            &RunConfig {
                mode: Mode::Serial,
                variant_metrics: true,
            },
        );
        // The first variant of a track sits on the cold-solved capacity
        // point: its snapshot must contain fabric activity, proving the
        // step scope actually captured the solver work.
        let first = r.rows[0].metrics.as_ref().unwrap();
        assert!(
            first.counters.keys().any(|k| k.starts_with("fabric.")),
            "step work must land in the row snapshot: {:?}",
            first.counters.keys().collect::<Vec<_>>()
        );
        // The track's base topology request happens outside any step, so
        // it belongs to the track snapshot — not to any row.
        assert!(
            r.track_metrics[0]
                .counters
                .keys()
                .any(|k| k.starts_with("bench.cache.") && k.ends_with(".requests")),
            "the base topology request is attributed to the track scope"
        );
    }

    #[test]
    fn warm_chain_matches_cold_per_point_solves() {
        let spec = CampaignSpec::parse_str(SMALL).unwrap();
        let result = run(&spec, Mode::Serial);
        // Cold oracle: for every (shape, seed, cap), route at the
        // track's base point and solve from scratch on a topology built
        // directly at the variant capacities. The warm chain must match it
        // bit for bit.
        for track in plan::plan(&spec) {
            let df = cache::dragonfly(track.shape.params(&track.steps[0].cap));
            let n = df.params().total_endpoints();
            let mut rng = StreamRng::for_component(track.seed, "mpigraph-pairs", 0);
            let pairs = mpigraph_pairs(n, &mut rng);
            let flows = Router::new(&df, RoutePolicy::Minimal).route_all(&pairs, 0, track.seed);
            for step in &track.steps {
                let vdf = cache::dragonfly(track.shape.params(&step.cap));
                let oracle = mpigraph::run_with_flows(vdf.topology(), &flows, track.seed);
                for v in &step.variants {
                    let row = &result.rows[v.index as usize];
                    let got = row.mpi.expect("mpigraph workload ran");
                    for (g, w) in [
                        (got.min_gb_s, oracle.summary.min),
                        (got.mean_gb_s, oracle.summary.mean),
                        (got.max_gb_s, oracle.summary.max),
                    ] {
                        assert_eq!(
                            g.to_bits(),
                            w.to_bits(),
                            "variant {}: warm {g} vs cold {w}",
                            v.index
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sharing_counters_account_for_the_grid() {
        let spec = CampaignSpec::parse_str(SMALL).unwrap();
        let r = run(&spec, Mode::Serial);
        let tracks = (spec.shape_count() * spec.seeds.len()) as u64;
        let steps = tracks * spec.capacity_count() as u64;
        assert_eq!(r.stats.tracks, tracks);
        assert_eq!(r.stats.routing_passes, tracks);
        assert_eq!(r.stats.cold_solves, tracks);
        assert_eq!(r.stats.warm_resolves, steps - tracks);
        assert_eq!(r.stats.outcome_built, steps);
        assert_eq!(r.stats.outcome_requests, spec.variant_count() as u64);
    }

    #[test]
    fn pareto_excludes_dominated_overlays() {
        // One fabric point, three FIT scales: same FOM and power, MTTI
        // strictly decreasing in fit_scale — only fit_scale = 0.5 is
        // non-dominated.
        let spec = CampaignSpec::parse_str(
            r#"
            [machine]
            groups = [6]
            switches_per_group = [4]
            endpoints_per_switch = [4]
            [overlay]
            fit_scale = [0.5, 1.0, 2.0]
            "#,
        )
        .unwrap();
        let r = run(&spec, Mode::Serial);
        assert_eq!(r.rows.len(), 3);
        assert!(r.rows[0].mtti_hours.unwrap() > r.rows[1].mtti_hours.unwrap());
        assert_eq!(r.pareto, vec![0]);
    }

    #[test]
    fn gpcnet_workload_populates_impact_factors() {
        let spec = CampaignSpec::parse_str(
            r#"
            workloads = ["gpcnet"]
            seeds = [7]
            [machine]
            groups = [6]
            switches_per_group = [4]
            endpoints_per_switch = [4]
            "#,
        )
        .unwrap();
        let r = run(&spec, Mode::Serial);
        let impact = r.rows[0].gpcnet_impact.as_ref().expect("gpcnet ran");
        assert!(!impact.is_empty());
        assert!(impact.iter().all(|f| f.is_finite() && *f > 0.0));
        assert!(r.rows[0].mpi.is_none(), "mpigraph not requested");
        assert!(r.pareto.is_empty(), "no FOM/MTTI => no frontier");
    }
}
