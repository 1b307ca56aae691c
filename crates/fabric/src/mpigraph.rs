//! The mpiGraph experiment (Fig. 6): per-NIC receive bandwidth histograms.
//!
//! mpiGraph measures pairwise transfer bandwidth with every NIC sending to
//! one partner concurrently. On Summit's non-blocking fat-tree every pair
//! lands in a tight distribution at ~8.5 GB/s (68 % of EDR line rate). On
//! Frontier's dragonfly the distribution is wide — 3 to 17.5 GB/s — shaped
//! by three effects the model reproduces structurally: full connectivity
//! inside a group (the small ~1.4 % population at 17.5 GB/s), the 57 %
//! global taper, and non-minimal routing doubling load on global pipes.

use crate::des::{simulate, Delivery, DesConfig, MessageBatch};
use crate::dragonfly::Dragonfly;
use crate::fattree::FatTree;
use crate::maxmin::solve_maxmin;
use crate::patterns::mpigraph_pairs;
use crate::routing::{RoutePolicy, Router};
use crate::topology::{Flow, Topology};
use frontier_sim_core::prelude::*;

/// calibrated: run-to-run measurement noise of an mpiGraph sample
/// (multiplicative, log-normal sigma). Gives Summit its "tight distribution"
/// width rather than a single spike.
const MEASUREMENT_SIGMA: f64 = 0.025;

/// Result of one mpiGraph run.
#[derive(Debug, Clone)]
pub struct MpiGraphResult {
    /// Receive bandwidth per NIC pair, GB/s.
    pub rates_gb_s: Vec<f64>,
    pub summary: Summary,
}

impl MpiGraphResult {
    /// Package already-solved per-pair rates (GB/s) into a result with
    /// the run's measurement noise: [`MeasurementNoise::draw`] for
    /// `rates.len()` pairs at `seed`, then [`MeasurementNoise::apply`].
    /// Every mpiGraph run packages its rates this way.
    pub fn from_solved_rates(rates: Vec<f64>, seed: u64) -> Self {
        MeasurementNoise::draw(rates.len(), seed).apply(rates)
    }

    /// Histogram over `[0, hi)` GB/s with `bins` bins.
    pub fn histogram(&self, hi: f64, bins: usize) -> Histogram {
        let mut h = Histogram::new(0.0, hi, bins);
        h.record_all(&self.rates_gb_s);
        h
    }

    /// Fraction of pairs with receive bandwidth in `[a, b)` GB/s.
    pub fn fraction_in(&self, a: f64, b: f64) -> f64 {
        let n = self.rates_gb_s.len() as f64;
        self.rates_gb_s.iter().filter(|&&r| r >= a && r < b).count() as f64 / n
    }
}

/// The measurement noise of an mpiGraph run over `n` pairs: one
/// log-normal multiplier per pair, a pure function of `(n, seed)`. A caller
/// that packages many solves of one flow set at one seed (the campaign
/// engine's capacity steps) draws it once and applies it to each.
#[derive(Debug, Clone)]
pub struct MeasurementNoise {
    factors: Vec<f64>,
}

impl MeasurementNoise {
    /// Draw the multipliers of `n` pairs from `seed`'s noise stream.
    pub fn draw(n: usize, seed: u64) -> Self {
        let mut rng = StreamRng::for_component(seed, "mpigraph-noise", 0);
        MeasurementNoise {
            factors: (0..n)
                .map(|_| rng.log_normal(1.0, MEASUREMENT_SIGMA))
                .collect(),
        }
    }

    /// Package solved per-pair rates (GB/s): multiply each by its pair's
    /// factor and summarize. The cold and warm solver exits share it, so a
    /// warm re-solve's result is bit-identical to a cold one's.
    pub fn apply(&self, mut rates: Vec<f64>) -> MpiGraphResult {
        assert_eq!(rates.len(), self.factors.len(), "one rate per noisy pair");
        for (r, f) in rates.iter_mut().zip(&self.factors) {
            *r *= f;
        }
        let summary = Summary::of(&rates);
        MpiGraphResult {
            rates_gb_s: rates,
            summary,
        }
    }
}

/// Solve a pre-routed mpiGraph flow set: one max-min solve plus the
/// measurement-noise packaging. Callers that already hold routed flows
/// (ablation sweeps, benches) reuse them here instead of re-routing.
pub fn run_with_flows(topo: &Topology, flows: &[Flow], seed: u64) -> MpiGraphResult {
    let alloc = solve_maxmin(topo, flows);
    let rates: Vec<f64> = alloc.rates.iter().map(|&r| r / 1e9).collect();
    MpiGraphResult::from_solved_rates(rates, seed)
}

/// Run mpiGraph over a dragonfly with the given routing policy. Routing
/// goes through the batch API: each of the ~9k flows draws from its own
/// `(seed, index)`-keyed stream, so the routing pass parallelizes without
/// changing the result.
pub fn run_dragonfly(df: &Dragonfly, policy: RoutePolicy, seed: u64) -> MpiGraphResult {
    let n = df.params().total_endpoints();
    let mut rng = StreamRng::for_component(seed, "mpigraph-pairs", 0);
    let pairs = mpigraph_pairs(n, &mut rng);
    let router = Router::new(df, policy);
    let flows = router.route_all(&pairs, 0, seed);
    run_with_flows(df.topology(), &flows, seed)
}

/// Messages per pair in the per-message (DES) variant: a short
/// back-to-back window, enough to amortize the per-message overheads the
/// way mpiGraph's repeated sends do.
pub const DES_WINDOW: usize = 4;

/// Message size of the per-message variant (mpiGraph's large-message
/// regime, where the measurement is bandwidth-dominated).
pub const DES_MESSAGE: Bytes = Bytes::new(1 << 20);

/// The per-message counterpart of [`run_with_flows`]: instead of one
/// steady-state max-min solve, every pair injects a window of
/// [`DES_WINDOW`] × [`DES_MESSAGE`] back-to-back messages and the whole
/// machine is simulated message-by-message on the DES core. The per-pair
/// receive bandwidth is bytes sent over the delivery time of the pair's
/// last message.
///
/// One flat [`MessageBatch`] carries the full machine (9,472 nodes →
/// ~150k messages at Frontier scale), which is exactly the workload the
/// SoA arena + calendar queue are built for.
pub fn run_des_with_flows(topo: &Topology, flows: &[Flow], seed: u64) -> MpiGraphResult {
    let batch = des_batch(flows);
    let deliveries = simulate(topo, &DesConfig::default(), &batch);
    des_result(flows.len(), &deliveries, seed)
}

/// [`run_des_with_flows`] on the domain-parallel engine
/// ([`crate::pdes::simulate_parallel`]): identical batch, identical
/// deliveries (the parallel engine is byte-exact), concurrent wall-clock.
/// [`frontier_sim_core::par`] re-installs the active metrics scope inside
/// every domain task, so scoped telemetry attributes exactly as in the
/// serial run.
pub fn run_des_with_flows_parallel(topo: &Topology, flows: &[Flow], seed: u64) -> MpiGraphResult {
    let batch = des_batch(flows);
    let out = crate::pdes::simulate_parallel(topo, &DesConfig::default(), &batch);
    des_result(flows.len(), &out.deliveries, seed)
}

/// The mpiGraph DES workload: every flow injects [`DES_WINDOW`] ×
/// [`DES_MESSAGE`] back-to-back messages tagged by flow index.
fn des_batch(flows: &[Flow]) -> MessageBatch {
    let pool: usize = flows.iter().map(|f| f.path.len()).sum();
    let mut batch = MessageBatch::with_capacity(flows.len() * DES_WINDOW, pool);
    for (i, f) in flows.iter().enumerate() {
        let span = batch.intern(&f.path);
        for _ in 0..DES_WINDOW {
            batch.push(span, DES_MESSAGE, SimTime::ZERO, i as u64);
        }
    }
    batch
}

/// Per-pair receive bandwidth from the delivery times of each flow's
/// window: bytes sent over the arrival of the flow's last message.
fn des_result(n_flows: usize, deliveries: &[Delivery], seed: u64) -> MpiGraphResult {
    let mut last = vec![SimTime::ZERO; n_flows];
    for d in deliveries {
        let i = d.tag as usize;
        last[i] = last[i].max(d.arrival);
    }
    let sent = DES_WINDOW as f64 * DES_MESSAGE.as_f64();
    let rates: Vec<f64> = last.iter().map(|&t| sent / t.as_secs_f64() / 1e9).collect();
    MpiGraphResult::from_solved_rates(rates, seed)
}

/// Per-message mpiGraph over a dragonfly: same pair generation and
/// routing as [`run_dragonfly`], simulated on the DES core instead of the
/// steady-state solver.
pub fn run_dragonfly_des(df: &Dragonfly, policy: RoutePolicy, seed: u64) -> MpiGraphResult {
    let n = df.params().total_endpoints();
    let mut rng = StreamRng::for_component(seed, "mpigraph-pairs", 0);
    let pairs = mpigraph_pairs(n, &mut rng);
    let router = Router::new(df, policy);
    let flows = router.route_all(&pairs, 0, seed);
    run_des_with_flows(df.topology(), &flows, seed)
}

/// [`run_dragonfly_des`] on the domain-parallel DES engine: same pairs,
/// same routing, byte-identical result, parallel wall-clock.
pub fn run_dragonfly_des_parallel(
    df: &Dragonfly,
    policy: RoutePolicy,
    seed: u64,
) -> MpiGraphResult {
    let n = df.params().total_endpoints();
    let mut rng = StreamRng::for_component(seed, "mpigraph-pairs", 0);
    let pairs = mpigraph_pairs(n, &mut rng);
    let router = Router::new(df, policy);
    let flows = router.route_all(&pairs, 0, seed);
    run_des_with_flows_parallel(df.topology(), &flows, seed)
}

/// Run mpiGraph over a fat-tree.
pub fn run_fattree(ft: &FatTree, seed: u64) -> MpiGraphResult {
    let n = ft.params().total_endpoints();
    let mut rng = StreamRng::for_component(seed, "mpigraph-pairs", 1);
    let pairs = mpigraph_pairs(n, &mut rng);
    let flows = ft.flows_for_pairs(&pairs, 0);
    run_with_flows(ft.topology(), &flows, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dragonfly::DragonflyParams;
    use crate::fattree::FatTreeParams;

    /// A mid-size dragonfly with Frontier's ratios for fast tests:
    /// 16 groups x 8 switches x 8 endpoints = 1024 endpoints.
    fn test_df() -> Dragonfly {
        Dragonfly::build(DragonflyParams::scaled(16, 8, 8))
    }

    #[test]
    fn dragonfly_distribution_is_wide_fattree_tight() {
        let df = test_df();
        let d = run_dragonfly(&df, RoutePolicy::adaptive_default(), 7);
        let ft = FatTree::build(FatTreeParams::scaled(32, 32));
        let f = run_fattree(&ft, 7);
        let d_cv = d.summary.std_dev / d.summary.mean;
        let f_cv = f.summary.std_dev / f.summary.mean;
        assert!(
            d_cv > 3.0 * f_cv,
            "dragonfly CV {d_cv} should dwarf fat-tree CV {f_cv}"
        );
    }

    #[test]
    fn fattree_pairs_land_near_8_5() {
        let ft = FatTree::build(FatTreeParams::scaled(32, 32));
        let f = run_fattree(&ft, 3);
        assert!(
            (f.summary.mean - 8.5).abs() < 0.3,
            "mean {}",
            f.summary.mean
        );
        // "Nearly all of Summit's traffic achieves this level".
        assert!(f.fraction_in(7.5, 9.5) > 0.95);
    }

    #[test]
    fn dragonfly_intra_group_pairs_reach_nic_rate() {
        let df = test_df();
        let d = run_dragonfly(&df, RoutePolicy::adaptive_default(), 11);
        let max = d.summary.max;
        assert!((16.0..19.0).contains(&max), "max {max}");
        // Intra-group pairs exist but are rare (~ eps_per_group/total).
        let frac_fast = d.fraction_in(16.0, 20.0);
        assert!(
            frac_fast > 0.0 && frac_fast < 0.2,
            "fast fraction {frac_fast}"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let df = test_df();
        let a = run_dragonfly(&df, RoutePolicy::adaptive_default(), 5);
        let b = run_dragonfly(&df, RoutePolicy::adaptive_default(), 5);
        assert_eq!(a.rates_gb_s, b.rates_gb_s);
    }

    #[test]
    fn different_seeds_differ() {
        let df = test_df();
        let a = run_dragonfly(&df, RoutePolicy::adaptive_default(), 5);
        let b = run_dragonfly(&df, RoutePolicy::adaptive_default(), 6);
        assert_ne!(a.rates_gb_s, b.rates_gb_s);
    }

    #[test]
    fn minimal_routing_raises_floor_on_benign_traffic() {
        // With random pairs (benign), minimal routing loads each pipe less
        // than Valiant detours do.
        let df = test_df();
        let min = run_dragonfly(&df, RoutePolicy::Minimal, 9);
        let val = run_dragonfly(&df, RoutePolicy::Valiant, 9);
        assert!(min.summary.mean > val.summary.mean);
    }

    #[test]
    fn des_run_is_deterministic() {
        let df = Dragonfly::build(DragonflyParams::scaled(8, 4, 4));
        let a = run_dragonfly_des(&df, RoutePolicy::adaptive_default(), 5);
        let b = run_dragonfly_des(&df, RoutePolicy::adaptive_default(), 5);
        assert_eq!(a.rates_gb_s, b.rates_gb_s);
    }

    #[test]
    fn des_parallel_matches_serial_exactly() {
        let df = Dragonfly::build(DragonflyParams::scaled(8, 4, 4));
        let serial = run_dragonfly_des(&df, RoutePolicy::adaptive_default(), 5);
        let par = run_dragonfly_des_parallel(&df, RoutePolicy::adaptive_default(), 5);
        assert_eq!(serial.rates_gb_s, par.rates_gb_s);
    }

    #[test]
    fn des_rates_are_physical() {
        // Per-message rates stay positive and below NIC line rate (plus
        // measurement noise): serialization and overheads cap each pair.
        let df = Dragonfly::build(DragonflyParams::scaled(8, 4, 4));
        let d = run_dragonfly_des(&df, RoutePolicy::Minimal, 5);
        assert_eq!(d.rates_gb_s.len(), df.params().total_endpoints());
        let line = df
            .topology()
            .link(df.topology().injection_link(crate::topology::EndpointId(0)))
            .capacity
            .as_bytes_per_sec()
            / 1e9;
        for &r in &d.rates_gb_s {
            assert!(r > 0.0 && r < line * 1.2, "rate {r} vs line {line}");
        }
    }

    #[test]
    fn des_contention_spreads_the_distribution() {
        // Shared links serialize windows, so the per-message distribution
        // is wider than a single spike: min visibly below max.
        let df = test_df();
        let d = run_dragonfly_des(&df, RoutePolicy::adaptive_default(), 7);
        assert!(
            d.summary.min < 0.8 * d.summary.max,
            "min {} max {}",
            d.summary.min,
            d.summary.max
        );
    }

    /// One noise draw applied to two rate vectors gives, bit for bit, what
    /// drawing one multiplier per rate inline gives for each: the rates and
    /// every `Summary` field. With no pairs both panic in `Summary::of`.
    #[test]
    fn held_noise_matches_per_call_draws_bitwise() {
        use frontier_sim_core::check;
        use std::panic::{catch_unwind, AssertUnwindSafe};
        fn inline(mut rates: Vec<f64>, seed: u64) -> MpiGraphResult {
            let mut rng = StreamRng::for_component(seed, "mpigraph-noise", 0);
            for r in &mut rates {
                *r *= rng.log_normal(1.0, MEASUREMENT_SIGMA);
            }
            let summary = Summary::of(&rates);
            MpiGraphResult {
                rates_gb_s: rates,
                summary,
            }
        }
        fn bits(r: &MpiGraphResult) -> (Vec<u64>, [u64; 7]) {
            let s = &r.summary;
            let summary = [
                s.count as f64,
                s.mean,
                s.std_dev,
                s.min,
                s.p50,
                s.p99,
                s.max,
            ];
            let rates = r.rates_gb_s.iter().map(|x| x.to_bits()).collect();
            (rates, summary.map(f64::to_bits))
        }
        check::cases(32, |g| {
            let n = if g.range(0..8u32) == 0 {
                0
            } else {
                g.range(1..3000usize)
            };
            let seed = g.range(0..u64::MAX);
            let noise = MeasurementNoise::draw(n, seed);
            for _ in 0..2 {
                let rates: Vec<f64> = (0..n).map(|_| g.range(0.0..20.0)).collect();
                let held = catch_unwind(AssertUnwindSafe(|| bits(&noise.apply(rates.clone()))));
                let want = catch_unwind(|| bits(&inline(rates, seed)));
                match (held, want) {
                    (Ok(held), Ok(want)) => assert_eq!(held, want),
                    (held, want) => assert!(n == 0 && held.is_err() && want.is_err()),
                }
            }
        });
    }

    #[test]
    fn histogram_mass_conserved() {
        let df = test_df();
        let d = run_dragonfly(&df, RoutePolicy::adaptive_default(), 13);
        let h = d.histogram(20.0, 40);
        assert_eq!(h.count() as usize, d.rates_gb_s.len());
    }
}
