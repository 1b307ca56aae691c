//! The GPCNeT congestion experiment (Table 5).
//!
//! GPCNeT splits the machine 80/20 into *congestors* — nodes blasting
//! adversarial patterns (all-to-all, one- and two-sided incast, one- and
//! two-sided broadcast) — and *victims* measuring a random-ring two-sided
//! latency test, a two-sided 128 KiB bandwidth+sync test, and an 8-byte
//! multiple-allreduce. The paper ran 9,400 nodes (7,520 congestor + 1,880
//! victim) at 8 PPN and found **congested ≈ isolated** — the hardware
//! congestion control fully protected the victims. At 32 PPN the protection
//! degrades: 1.2–1.6× on averages, 1.8–7.6× at the 99th percentile.
//!
//! Model: congestion control protects victim traffic with quality
//! `q = (8/ppn)^0.5` (`calibrated:` constants below), and `q = 0` with CC
//! OFF. A victim's bandwidth is the blend `q·isolated + (1−q)·mixed` of
//! its rate in the max-min solve of the victim flows alone and its
//! per-flow fair rate in the solve of victims and congestors together;
//! its latency is inflated by `1 + (1−q)·QUEUE_LATENCY_COEFF·util`, where
//! `util` is the congestor utilization of the busiest link on its path.
//! At 8 PPN with CC on, `q == 1`: the congested column equals the
//! isolated one, so the run draws, routes and solves no congestor flow.

use crate::dragonfly::{Dragonfly, DragonflyParams};
use crate::latency::LatencyModel;
use crate::maxmin::solve_maxmin;
use crate::patterns::{broadcast_pairs, incast_pairs, ring_pairs};
use crate::routing::{RoutePolicy, Router};
use crate::topology::{EndpointId, Flow, LinkId};
use frontier_sim_core::prelude::*;

/// Configuration of one GPCNeT run.
#[derive(Debug, Clone)]
pub struct GpcnetConfig {
    pub params: DragonflyParams,
    /// Nodes participating (the paper used 9,400 of 9,472).
    pub nodes: usize,
    /// Fraction of nodes acting as congestors (GPCNeT uses 80 %).
    pub congestor_fraction: f64,
    /// Ranks per node: 8 for the headline result, 32 for the degraded one.
    pub ppn: usize,
    /// Message size of the bandwidth+sync test.
    pub message: Bytes,
    /// Hardware congestion control enabled?
    pub congestion_control: bool,
    pub seed: u64,
}

impl GpcnetConfig {
    /// The paper's Table 5 run: full Frontier, 9,400 nodes, 8 PPN, CC on.
    pub fn frontier_table5() -> Self {
        GpcnetConfig {
            params: DragonflyParams::frontier(),
            nodes: 9_400,
            congestor_fraction: 0.8,
            ppn: 8,
            message: Bytes::kib(128),
            congestion_control: true,
            seed: 0xF30,
        }
    }

    /// A reduced configuration with the same ratios for unit tests.
    pub fn scaled_for_tests() -> Self {
        GpcnetConfig {
            params: DragonflyParams::scaled(12, 8, 8),
            nodes: 180,
            ..Self::frontier_table5()
        }
    }
}

/// calibrated: sync/software overhead of one BW+Sync iteration. With the
/// victim's isolated 8.75 GB/s share, 128 KiB then takes 35.6 µs →
/// 3,497 MiB/s/rank as in Table 5.
const BW_SYNC_OVERHEAD: SimTime = SimTime::from_micros(21);

/// calibrated: how fast congestion-control protection fades beyond 8 PPN —
/// protection quality `q = (8/ppn)^0.5`, giving the 1.2–1.6× average
/// degradation the paper reports at 32 PPN.
const CC_CAPACITY_PPN: f64 = 8.0;
const CC_FADE_EXPONENT: f64 = 0.5;

/// calibrated: latency inflation per unit of congestor utilization on the
/// victim path when unprotected (head-of-line blocking in switch queues).
pub const QUEUE_LATENCY_COEFF: f64 = 3.0;

/// One measured statistic (a row of Table 5).
#[derive(Debug, Clone)]
pub struct TestStat {
    pub name: String,
    pub average: f64,
    pub p99: f64,
    pub units: String,
}

/// Full report: isolated and congested variants of the three victim tests.
#[derive(Debug, Clone)]
pub struct GpcnetReport {
    pub isolated: Vec<TestStat>,
    pub congested: Vec<TestStat>,
    /// Congestor utilization of the victims' paths in the mixed solve;
    /// `None` when `q == 1`, where no mixed solve runs.
    pub victim_path_util: Option<PathUtil>,
}

/// Per victim flow, the congestor utilization of the busiest link on its
/// path, summarised over the victims. The congested latency test inflates
/// flow `f` by `1 + (1−q)·QUEUE_LATENCY_COEFF·util_f`; the allreduce by
/// the same with `mean`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathUtil {
    pub max: f64,
    pub mean: f64,
    /// Victim flows summarised (the latency test's sample count).
    pub paths: usize,
}

impl GpcnetReport {
    /// Congestion impact factor of test `i` on averages
    /// (≥ 1; 1.0 = ideal). For latency tests larger is worse; for the
    /// bandwidth test the ratio is inverted so that 1.0 is still ideal.
    pub fn impact_factor(&self, i: usize) -> f64 {
        let iso = &self.isolated[i];
        let con = &self.congested[i];
        if iso.units.contains("MiB") {
            iso.average / con.average
        } else {
            con.average / iso.average
        }
    }
}

/// The victim and congestor flow sets of a run.
///
/// All flows live in one vector — victims (vni 0) first, congestors
/// (vni 1..=5) after, if built — so the isolated solve takes the victim
/// prefix and the mixed solve takes the whole slice without cloning any
/// routed path. Routing happens exactly once per flow.
struct Workload {
    /// Victim flows, then congestor flows.
    flows: Vec<Flow>,
    /// Length of the victim prefix of `flows`.
    n_victims: usize,
    /// Victim rank count (for the allreduce size).
    victim_ranks: u64,
}

/// Split the first `total_nodes` nodes into interleaved victim and
/// congestor node lists (every `stride`-th node is a victim), so both
/// populations span all groups the way a real scheduler allocation would.
/// Shared by the solver-based run and the DES victim entry points.
pub fn split_nodes(total_nodes: usize, congestor_fraction: f64) -> (Vec<usize>, Vec<usize>) {
    let n_congestor = (total_nodes as f64 * congestor_fraction).round() as usize;
    let n_victims = total_nodes - n_congestor;
    let stride = (total_nodes as f64 / n_victims as f64).round() as usize;
    let mut victims = Vec::with_capacity(n_victims);
    let mut congestors = Vec::with_capacity(n_congestor);
    for node in 0..total_nodes {
        if node % stride == 0 && victims.len() < n_victims {
            victims.push(node);
        } else {
            congestors.push(node);
        }
    }
    (victims, congestors)
}

/// Victim ranks → endpoints: `ppn` ranks per victim node, spread
/// round-robin over the node's NICs, in node order. This is the rank
/// layout every victim test (random ring, BW+sync, multiple-allreduce)
/// measures over.
pub fn victim_rank_endpoints(df: &Dragonfly, victims: &[usize], ppn: usize) -> Vec<EndpointId> {
    let nics = df.params().nics_per_node;
    let mut victim_rank_ep: Vec<EndpointId> = Vec::with_capacity(victims.len() * ppn);
    for &v in victims {
        let eps = df.node_endpoints(v);
        victim_rank_ep.extend((0..ppn).map(|r| eps[r % nics]));
    }
    victim_rank_ep
}

/// Draw and route the victim ring pairs and, if `with_congestors`, the five
/// congestor patterns behind them. Congestor draws follow every victim
/// draw on the pattern stream and routing is keyed per flow index, so the
/// victim prefix is the same either way.
fn build_workload(df: &Dragonfly, cfg: &GpcnetConfig, with_congestors: bool) -> Workload {
    let total_nodes = cfg.nodes.min(df.params().total_nodes());
    let (victims, mut congestors) = split_nodes(total_nodes, cfg.congestor_fraction);
    if !with_congestors {
        congestors.clear();
    }

    let mut rng = StreamRng::for_component(cfg.seed, "gpcnet", 0);
    let router = Router::new(df, RoutePolicy::adaptive_default());

    // Every sizing below is known up front from PPN × node counts, so the
    // pair and rank vectors are allocated exactly once.
    let nics = df.params().nics_per_node;
    let victim_rank_ep = victim_rank_endpoints(df, &victims, cfg.ppn);

    // Pair generation stays sequential on one stream. Each incast or
    // broadcast fan costs `fan` index draws (a partial Fisher–Yates, not a
    // shuffle of the whole pool), so the draws are cheap next to routing,
    // which happens afterwards in one tagged batch where every flow
    // carries its VNI and draws from its own `(seed, index)`-keyed stream.
    // Victim pairs (vni 0) come first, then the five congestor patterns
    // (vni 1..=5), so the victim prefix of the routed vector is exactly
    // the isolated workload.
    let mut tagged: Vec<(EndpointId, EndpointId, u32)> =
        Vec::with_capacity(victim_rank_ep.len() + 2 * congestors.len() * nics);

    // Random-ring pairing over victim ranks.
    let perm = rng.pairing(victim_rank_ep.len());
    for (i, &j) in perm.iter().enumerate() {
        let (s, d) = (victim_rank_ep[i], victim_rank_ep[j]);
        if s == d {
            continue; // two ranks of the same NIC drew each other
        }
        tagged.push((s, d, 0));
    }
    let n_victims = tagged.len();

    // Congestor patterns: one VNI per pattern, nodes split five ways,
    // appended behind the victim prefix.
    let chunk = (congestors.len() / 5).max(1);
    for (p, part) in congestors.chunks(chunk).take(5).enumerate() {
        let vni = (p + 1) as u32;
        let mut eps: Vec<EndpointId> = Vec::with_capacity(part.len() * nics);
        for &n in part {
            eps.extend(df.node_endpoints(n));
        }
        if eps.len() < 2 {
            continue;
        }
        let pairs = match p {
            // All-to-all: two ring rounds at different offsets.
            0 => {
                let mut v = ring_pairs(&eps);
                let mut shifted = eps.clone();
                shifted.rotate_left(eps.len() / 3 + 1);
                v.extend(ring_pairs(&shifted));
                v
            }
            // One- and two-sided incast: fans of 32 into spread targets.
            1 | 2 => {
                let fan = 32.min(eps.len() - 1);
                eps.iter()
                    .step_by(33)
                    .flat_map(|&dst| incast_pairs(&eps, dst, fan, &mut rng))
                    .collect()
            }
            // One- and two-sided broadcast: fans of 32 out of spread roots.
            _ => {
                let fan = 32.min(eps.len() - 1);
                eps.iter()
                    .step_by(33)
                    .flat_map(|&root| broadcast_pairs(&eps, root, fan, &mut rng))
                    .collect()
            }
        };
        tagged.extend(pairs.into_iter().map(|(s, d)| (s, d, vni)));
    }

    // One data-parallel routing pass over the whole mixed workload.
    let flows = router.route_all_tagged(&tagged, cfg.seed);

    Workload {
        flows,
        n_victims,
        victim_ranks: victim_rank_ep.len() as u64,
    }
}

/// Run GPCNeT and produce the Table 5 report, building the dragonfly from
/// `cfg.params`. Callers that already hold the (expensive, full-scale)
/// dragonfly should use [`run_on`] instead.
pub fn run(cfg: &GpcnetConfig) -> GpcnetReport {
    run_on(&Dragonfly::build(cfg.params.clone()), cfg)
}

/// Run GPCNeT on an already-built dragonfly — `repro -- table5` runs the
/// 8 PPN and 32 PPN configurations against one shared frontier-scale
/// topology instead of paying graph construction twice.
///
/// # Panics
/// Panics if `df` was not built from `cfg.params`.
pub fn run_on(df: &Dragonfly, cfg: &GpcnetConfig) -> GpcnetReport {
    assert_eq!(
        df.params(),
        &cfg.params,
        "dragonfly does not match the GPCNeT config"
    );
    let topo = df.topology();
    let lat = LatencyModel::default();

    // Protection quality of the congestion control. The congested
    // measurement is protected exactly when CC keeps full quality
    // (q == 1); it then reads only the isolated rates, so the congestor
    // flows are neither built nor solved.
    let q = if cfg.congestion_control {
        (CC_CAPACITY_PPN / cfg.ppn as f64)
            .min(1.0)
            .powf(CC_FADE_EXPONENT)
    } else {
        0.0
    };
    let fully_protected = (q - 1.0).abs() < 1e-12;

    // The isolated solve is a cold solve of the victim prefix; the mixed
    // solve covers the whole workload and yields the victims' per-flow
    // fair rates and the congestor utilization of every victim path.
    let wl = build_workload(df, cfg, !fully_protected);
    let nv = wl.n_victims;
    let victim_flows = &wl.flows[..nv];
    let iso_alloc = solve_maxmin(topo, victim_flows);
    let (mixed_rates, path_util) = if fully_protected {
        (Vec::new(), Vec::new())
    } else {
        let mixed = solve_maxmin(topo, &wl.flows);
        let mut load = vec![0.0f64; topo.num_links() as usize];
        for (f, &r) in wl.flows.iter().zip(&mixed.rates) {
            if f.vni != 0 {
                for l in &f.path {
                    load[l.0 as usize] += r;
                }
            }
        }
        let util = |l: &LinkId| load[l.0 as usize] / topo.link(*l).capacity.as_bytes_per_sec();
        let path_util: Vec<f64> = victim_flows
            .iter()
            .map(|f| f.path.iter().map(util).fold(0.0f64, f64::max))
            .collect();
        (mixed.rates, path_util)
    };
    let victim_path_util = (!fully_protected).then(|| PathUtil {
        max: path_util.iter().copied().fold(0.0f64, f64::max),
        mean: if nv == 0 {
            0.0
        } else {
            path_util.iter().sum::<f64>() / nv as f64
        },
        paths: nv,
    });

    let mut rng = StreamRng::for_component(cfg.seed, "gpcnet-measure", 1);

    // --- Bandwidth+Sync test -------------------------------------------
    let bw_samples = |protected: bool, rng: &mut StreamRng| -> Vec<f64> {
        (0..nv)
            .map(|i| {
                let rate_iso = iso_alloc.rates[i];
                let rate = if protected {
                    rate_iso
                } else {
                    q * rate_iso + (1.0 - q) * mixed_rates[i]
                };
                let rate = rate.max(1e3);
                let t = lat.message_time(
                    cfg.message,
                    Bandwidth::bytes_per_sec(rate),
                    BW_SYNC_OVERHEAD,
                );
                let jitter = rng.log_normal(1.0, 0.05);
                cfg.message.as_f64() / t.as_secs_f64() / (1u64 << 20) as f64 / jitter
            })
            .collect()
    };

    // --- Latency test ---------------------------------------------------
    let lat_samples = |protected: bool, rng: &mut StreamRng| -> Vec<f64> {
        (0..nv)
            .map(|i| {
                let mult = if protected {
                    1.0
                } else {
                    1.0 + (1.0 - q) * QUEUE_LATENCY_COEFF * path_util[i]
                };
                lat.sample_latency(4, mult, rng).as_micros_f64()
            })
            .collect()
    };

    // --- Allreduce test --------------------------------------------------
    let ar_samples = |protected: bool, rng: &mut StreamRng| -> Vec<f64> {
        let mult = match victim_path_util {
            Some(u) if !protected => 1.0 + (1.0 - q) * QUEUE_LATENCY_COEFF * u.mean,
            _ => 1.0,
        };
        (0..256)
            .map(|_| {
                lat.sample_allreduce(wl.victim_ranks, mult, rng)
                    .as_micros_f64()
            })
            .collect()
    };

    let stat = |name: &str, samples: &[f64], units: &str, lower_is_better: bool| {
        let s = Summary::of(samples);
        TestStat {
            name: name.to_string(),
            average: s.mean,
            // For bandwidth the 99th percentile reported by GPCNeT is the
            // *worst* (lowest) tail; for latency it is the highest.
            p99: if lower_is_better {
                s.p99
            } else {
                percentile(samples, 1.0)
            },
            units: units.to_string(),
        }
    };

    let isolated = vec![
        stat(
            "RR Two-sided Lat (8 B)",
            &lat_samples(true, &mut rng),
            "usec",
            true,
        ),
        stat(
            "RR Two-sided BW+Sync (131072 B)",
            &bw_samples(true, &mut rng),
            "MiB/s/rank",
            false,
        ),
        stat(
            "Multiple Allreduce (8 B)",
            &ar_samples(true, &mut rng),
            "usec",
            true,
        ),
    ];
    let congested = vec![
        stat(
            "RR Two-sided Lat (8 B)",
            &lat_samples(fully_protected, &mut rng),
            "usec",
            true,
        ),
        stat(
            "RR Two-sided BW+Sync (131072 B)",
            &bw_samples(fully_protected, &mut rng),
            "MiB/s/rank",
            false,
        ),
        stat(
            "Multiple Allreduce (8 B)",
            &ar_samples(fully_protected, &mut rng),
            "usec",
            true,
        ),
    ];

    GpcnetReport {
        isolated,
        congested,
        victim_path_util,
    }
}

/// The victim multiple-allreduce of `cfg`, executed message-by-message on
/// the DES core instead of through the calibrated latency model: the
/// victim ranks (same node split and rank layout as [`run_on`]) run one
/// recursive-doubling allreduce of `size` bytes over routed dragonfly
/// paths. Returns the completion time.
///
/// At `frontier_table5` scale this is a full-machine per-message workload
/// — 1,880 victim nodes × 8 PPN = 15,040 ranks, ~14 rounds of ~15k
/// simultaneous messages — and is what the benchmark's `des-allreduce`
/// workload times.
pub fn victim_allreduce_des(df: &Dragonfly, cfg: &GpcnetConfig, size: Bytes) -> SimTime {
    use crate::collectives::{AllreduceAlgo, Collectives};
    let total_nodes = cfg.nodes.min(df.params().total_nodes());
    let (victims, _) = split_nodes(total_nodes, cfg.congestor_fraction);
    let ranks = victim_rank_endpoints(df, &victims, cfg.ppn);
    let c = Collectives::new(df, ranks, RoutePolicy::adaptive_default(), cfg.seed);
    c.allreduce(size, AllreduceAlgo::RecursiveDoubling)
}

/// [`victim_allreduce_des`] with each round simulated on the
/// domain-parallel DES engine. Bit-identical completion time (the
/// parallel engine is byte-exact and hands the round makespan back
/// without a delivery re-scan); metric scopes propagate into the domain
/// tasks through [`frontier_sim_core::par`].
pub fn victim_allreduce_des_parallel(df: &Dragonfly, cfg: &GpcnetConfig, size: Bytes) -> SimTime {
    use crate::collectives::{AllreduceAlgo, Collectives};
    let total_nodes = cfg.nodes.min(df.params().total_nodes());
    let (victims, _) = split_nodes(total_nodes, cfg.congestor_fraction);
    let ranks = victim_rank_endpoints(df, &victims, cfg.ppn);
    let c =
        Collectives::new(df, ranks, RoutePolicy::adaptive_default(), cfg.seed).with_parallel_des();
    c.allreduce(size, AllreduceAlgo::RecursiveDoubling)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{ResolveDelta, Solver};
    use frontier_sim_core::check;

    #[test]
    fn cc_on_8ppn_is_ideal() {
        let cfg = GpcnetConfig::scaled_for_tests();
        let r = run(&cfg);
        for i in 0..3 {
            let f = r.impact_factor(i);
            assert!(
                (0.93..1.07).contains(&f),
                "test {i} impact {f} should be ~1.0 with CC on at 8 PPN"
            );
        }
    }

    /// With CC off (`q = 0`) the latency and allreduce impacts are ratios
    /// of two sample means whose expectations differ by exactly the model's
    /// multiplier `1 + QUEUE_LATENCY_COEFF·util`, so each may stray from it
    /// only by the log-normal jitter of its samples (4σ, delta method):
    ///
    /// * latency: `n` samples a side, flow `f` scaled by `m_f ≤ m_max`
    ///   times a unit-mean log-normal of coefficient of variation `c`.
    ///   `Var Σ m_f X_f = c² Σ m_f² ≤ c² m_max Σ m_f`, so the ratio's
    ///   relative sd is at most `c·√((1 + m_max/m_mean)/n)`;
    /// * allreduce: 256 samples a side of one multiplier `m_mean`, jitter
    ///   σ/5 (`LatencyModel::sample_allreduce`): `c_ar·√(2/256)`.
    ///
    /// The utilization floor is the load one fan-of-32 flow puts on a
    /// local link: a fan's hub link caps each of its 32 flows at `E/32`
    /// (`E` = endpoint rate), and a local link carries `link_rate`, so
    /// `floor = protocol_efficiency/32` — on average a victim's busiest
    /// link carries at least one incast flow.
    fn assert_cc_off_mechanism(on: &GpcnetReport, off: &GpcnetReport, cfg: &GpcnetConfig) {
        let u = off.victim_path_util.expect("CC off runs the mixed solve");
        let cv = |sigma: f64| ((sigma * sigma).exp() - 1.0).sqrt();
        let sigma = LatencyModel::default().jitter_sigma;
        let m_mean = 1.0 + QUEUE_LATENCY_COEFF * u.mean;
        let m_max = 1.0 + QUEUE_LATENCY_COEFF * u.max;
        let sd_lat = cv(sigma) * ((1.0 + m_max / m_mean) / u.paths as f64).sqrt();
        let sd_ar = cv(sigma / 5.0) * (2.0f64 / 256.0).sqrt();
        for (i, sd) in [(0, sd_lat), (2, sd_ar)] {
            let rel = off.impact_factor(i) / m_mean - 1.0;
            assert!(
                rel.abs() < 4.0 * sd,
                "seed {:#x} test {i}: impact {} vs predicted {m_mean} ({rel:+.4}, 4σ = {:.4})",
                cfg.seed,
                off.impact_factor(i),
                4.0 * sd
            );
        }
        for i in 0..3 {
            assert!(
                off.impact_factor(i) > on.impact_factor(i),
                "seed {:#x} test {i}: CC off {} <= CC on {}",
                cfg.seed,
                off.impact_factor(i),
                on.impact_factor(i)
            );
        }
        let floor = cfg.params.protocol_efficiency / 32.0;
        assert!(
            u.mean >= floor,
            "seed {:#x}: mean victim path util {} below one fan-of-32 flow ({floor})",
            cfg.seed,
            u.mean
        );
    }

    #[test]
    fn cc_off_degrades_victims() {
        let base = GpcnetConfig::scaled_for_tests();
        let df = Dragonfly::build(base.params.clone());
        for seed in base.seed..base.seed + 30 {
            let cfg = GpcnetConfig {
                seed,
                ..base.clone()
            };
            let on = run_on(&df, &cfg);
            assert_eq!(on.victim_path_util, None, "q == 1 runs no mixed solve");
            let off_cfg = GpcnetConfig {
                congestion_control: false,
                ..cfg.clone()
            };
            assert_cc_off_mechanism(&on, &run_on(&df, &off_cfg), &off_cfg);
        }
    }

    /// The isolated column's premise: a cold solve of the victim prefix
    /// allocates exactly what a warm re-solve that withdraws the congestor
    /// suffix from the mixed solve leaves the victims.
    #[test]
    fn cold_victim_prefix_matches_warm_withdrawal() {
        let base = GpcnetConfig::scaled_for_tests();
        let df = Dragonfly::build(base.params.clone());
        let topo = df.topology();
        check::cases(4, |g| {
            let seed = g.range(0u64..1 << 32);
            for (ppn, congestion_control) in [(8, true), (32, true), (8, false)] {
                let cfg = GpcnetConfig {
                    ppn,
                    congestion_control,
                    seed,
                    ..base.clone()
                };
                let wl = build_workload(&df, &cfg, true);
                let (nv, n) = (wl.n_victims, wl.flows.len());
                let cold = solve_maxmin(topo, &wl.flows[..nv]);
                let mut solver = Solver::new(topo, wl.flows);
                solver.solve();
                let warm = solver.resolve_with(&ResolveDelta::removed_flows((nv..n).collect()));
                let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert!(n > nv, "congestors were built");
                assert_eq!(
                    bits(&cold.rates),
                    bits(&warm.rates[..nv]),
                    "ppn {ppn} cc {congestion_control}"
                );
            }
        });
    }

    /// At `q == 1` the run draws, routes and solves only the victims; every
    /// other configuration adds one mixed solve.
    #[test]
    fn run_on_skips_congestors_when_fully_protected() {
        use frontier_sim_core::metrics::{MetricsRegistry, MetricsScope};
        use std::sync::Arc;
        let base = GpcnetConfig::scaled_for_tests();
        let df = Dragonfly::build(base.params.clone());
        let counters = |cfg: &GpcnetConfig| {
            let reg = Arc::new(MetricsRegistry::new());
            {
                let _scope = MetricsScope::enter(Arc::clone(&reg));
                run_on(&df, cfg);
            }
            reg.snapshot().counters
        };

        let c = counters(&base);
        let nv = build_workload(&df, &base, false).n_victims as u64;
        assert_eq!(c.get("fabric.patterns.draws").copied().unwrap_or(0), 0);
        assert_eq!(c["fabric.route.flows"], nv);
        assert_eq!(c["fabric.maxmin.solves"], 1);
        assert!(
            !c.keys().any(|k| k.starts_with("fabric.maxmin.warm.")),
            "{c:?}"
        );

        let ppn32 = GpcnetConfig {
            ppn: 32,
            ..base.clone()
        };
        let cc_off = GpcnetConfig {
            congestion_control: false,
            ..base.clone()
        };
        for cfg in [ppn32, cc_off] {
            let c = counters(&cfg);
            assert_eq!(
                c["fabric.maxmin.solves"], 2,
                "ppn {} cc {}",
                cfg.ppn, cfg.congestion_control
            );
            assert!(c["fabric.patterns.draws"] > 0);
        }
    }

    #[test]
    fn ppn32_shows_partial_degradation() {
        let mut cfg = GpcnetConfig::scaled_for_tests();
        cfg.ppn = 32;
        let r = run(&cfg);
        let worst = (0..3).map(|i| r.impact_factor(i)).fold(0.0, f64::max);
        let best = (0..3).map(|i| r.impact_factor(i)).fold(f64::MAX, f64::min);
        assert!(worst > 1.05, "32 PPN should degrade (worst {worst})");
        assert!(best < 3.0, "degradation should be partial (best {best})");
    }

    #[test]
    fn isolated_latency_near_2_6us() {
        let cfg = GpcnetConfig::scaled_for_tests();
        let r = run(&cfg);
        let lat = &r.isolated[0];
        assert!((lat.average - 2.6).abs() < 0.2, "avg {}", lat.average);
        assert!((lat.p99 - 4.8).abs() < 0.8, "p99 {}", lat.p99);
    }

    #[test]
    fn run_on_matches_run() {
        let cfg = GpcnetConfig::scaled_for_tests();
        let df = Dragonfly::build(cfg.params.clone());
        let a = run_on(&df, &cfg);
        let b = run(&cfg);
        assert_eq!(a.isolated[1].average, b.isolated[1].average);
        assert_eq!(a.congested[0].p99, b.congested[0].p99);
    }

    #[test]
    fn split_nodes_is_exact_and_interleaved() {
        let (v, c) = split_nodes(180, 0.8);
        assert_eq!(v.len(), 36);
        assert_eq!(c.len(), 144);
        // Victims are spread across the node range, not clumped in front.
        assert!(*v.last().unwrap() > 150);
        let mut all: Vec<usize> = v.iter().chain(&c).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..180).collect::<Vec<_>>());
    }

    #[test]
    fn victim_allreduce_des_runs_and_is_deterministic() {
        let cfg = GpcnetConfig::scaled_for_tests();
        let df = Dragonfly::build(cfg.params.clone());
        let a = victim_allreduce_des(&df, &cfg, Bytes::new(8));
        let b = victim_allreduce_des(&df, &cfg, Bytes::new(8));
        assert!(a > SimTime::ZERO);
        assert_eq!(a, b);
        // Bigger payloads can only take longer.
        let big = victim_allreduce_des(&df, &cfg, Bytes::kib(128));
        assert!(big >= a);
    }

    #[test]
    fn victim_allreduce_des_parallel_is_bit_identical() {
        let cfg = GpcnetConfig::scaled_for_tests();
        let df = Dragonfly::build(cfg.params.clone());
        let serial = victim_allreduce_des(&df, &cfg, Bytes::kib(128));
        let par = victim_allreduce_des_parallel(&df, &cfg, Bytes::kib(128));
        assert_eq!(serial, par);
    }

    #[test]
    fn report_is_deterministic() {
        let cfg = GpcnetConfig::scaled_for_tests();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.isolated[0].average, b.isolated[0].average);
        assert_eq!(a.congested[1].p99, b.congested[1].p99);
    }
}
