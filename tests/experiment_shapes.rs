//! End-to-end experiment-shape tests: the qualitative claims of the
//! paper's evaluation must hold in the simulator — who wins, by roughly
//! what factor, where the crossovers fall.

use frontier::fabric::dragonfly::{Dragonfly, DragonflyParams};
use frontier::fabric::fattree::{FatTree, FatTreeParams};
use frontier::fabric::gpcnet::{self, GpcnetConfig};
use frontier::fabric::latency::LatencyModel;
use frontier::fabric::mpigraph;
use frontier::fabric::patterns::all_to_all_throughput;
use frontier::fabric::routing::RoutePolicy;
use frontier::node::dram::{DramConfig, DramSystem, NpsMode, StoreMode};
use frontier::node::gemm::{GemmModel, Precision};
use frontier::node::stream::cpu_stream;
use frontier::node::transfer::{TransferEngine, TransferKind};

/// Fig. 6's central contrast: the dragonfly distribution is wide with a
/// small fast population; the fat-tree is tight.
#[test]
fn dragonfly_wide_fattree_tight() {
    let df = Dragonfly::build(DragonflyParams::scaled(16, 8, 8));
    let d = mpigraph::run_dragonfly(&df, RoutePolicy::adaptive_default(), 1);
    let ft = FatTree::build(FatTreeParams::scaled(32, 32));
    let s = mpigraph::run_fattree(&ft, 1);

    // Wide vs tight.
    assert!(d.summary.std_dev / d.summary.mean > 0.2);
    assert!(s.summary.std_dev / s.summary.mean < 0.05);
    // The fast population near NIC rate exists but is small.
    let fast = d.fraction_in(16.0, 20.0);
    assert!(fast > 0.0 && fast < 0.25, "{fast}");
    // Uncontended peaks: ~17.5 (Slingshot) vs ~8.5 (EDR) — similar
    // fractions of their line rates.
    assert!((d.summary.max / 25.0 - s.summary.max / 12.5).abs() < 0.12);
}

/// Table 5's central result: with congestion control at 8 PPN, congested
/// equals isolated; without it, victims suffer. With CC off the latency
/// and allreduce impacts are the model's queueing multiplier
/// `1 + QUEUE_LATENCY_COEFF·util` of the congestor utilization on the
/// victims' paths, up to 4σ of their log-normal sample jitter; the
/// utilization floor is one fan-of-32 incast flow on a local link. The
/// derivation is on `gpcnet::tests::assert_cc_off_mechanism`.
#[test]
fn congestion_control_isolates_victims() {
    let base = GpcnetConfig::scaled_for_tests();
    let df = Dragonfly::build(base.params.clone());
    let cv = |sigma: f64| ((sigma * sigma).exp() - 1.0).sqrt();
    let sigma = LatencyModel::default().jitter_sigma;
    for seed in base.seed..base.seed + 30 {
        let cfg = GpcnetConfig {
            seed,
            ..base.clone()
        };
        let on = gpcnet::run_on(&df, &cfg);
        for i in 0..3 {
            assert!(
                (on.impact_factor(i) - 1.0).abs() < 0.07,
                "seed {seed:#x} test {i}"
            );
        }
        let off = gpcnet::run_on(
            &df,
            &GpcnetConfig {
                congestion_control: false,
                ..cfg
            },
        );
        let u = off.victim_path_util.expect("CC off runs the mixed solve");
        let m_mean = 1.0 + gpcnet::QUEUE_LATENCY_COEFF * u.mean;
        let m_max = 1.0 + gpcnet::QUEUE_LATENCY_COEFF * u.max;
        let sd_lat = cv(sigma) * ((1.0 + m_max / m_mean) / u.paths as f64).sqrt();
        let sd_ar = cv(sigma / 5.0) * (2.0f64 / 256.0).sqrt();
        for (i, sd) in [(0, sd_lat), (2, sd_ar)] {
            let rel = off.impact_factor(i) / m_mean - 1.0;
            assert!(rel.abs() < 4.0 * sd, "seed {seed:#x} test {i}: {rel:+.4}");
        }
        for i in 0..3 {
            assert!(
                off.impact_factor(i) > on.impact_factor(i),
                "seed {seed:#x} test {i}: CC off should hurt more than CC on"
            );
        }
        assert!(
            u.mean >= base.params.protocol_efficiency / 32.0,
            "seed {seed:#x}"
        );
    }
}

/// §4.2.2: non-minimal routing halves effective global bandwidth under
/// saturating all-to-all, landing at ~30 GB/s/node.
#[test]
fn all_to_all_crossover() {
    let df = Dragonfly::frontier();
    let adaptive = all_to_all_throughput(&df, 1.0);
    let minimal = all_to_all_throughput(&df, 0.0);
    let ratio = minimal.per_node.as_gb_s() / adaptive.per_node.as_gb_s();
    assert!((1.8..2.2).contains(&ratio), "{ratio}");
    assert!((27.0..34.0).contains(&adaptive.per_node.as_gb_s()));
}

/// Table 3's central mechanism: non-temporal stores beat temporal for
/// every kernel except Copy (which compilers lower to NT memcpy anyway).
#[test]
fn write_allocate_tax_shape() {
    let d = DramSystem::new(DramConfig::trento());
    let t = cpu_stream(&d, StoreMode::Temporal, NpsMode::Nps4);
    let nt = cpu_stream(&d, StoreMode::NonTemporal, NpsMode::Nps4);
    for (a, b) in t.iter().zip(nt.iter()) {
        assert!(b.bandwidth.as_mb_s() >= a.bandwidth.as_mb_s() * 0.999);
    }
    // Scale suffers the most (smallest nominal:actual ratio).
    let scale_gap = nt[1].bandwidth.as_mb_s() / t[1].bandwidth.as_mb_s();
    let triad_gap = nt[3].bandwidth.as_mb_s() / t[3].bandwidth.as_mb_s();
    assert!(scale_gap > triad_gap && triad_gap > 1.2);
}

/// Fig. 3's headline: FP64 GEMM exceeds the GCD's vector peak, and FP16
/// exceeds FP64 by ~3.3x.
#[test]
fn gemm_shape() {
    let m = GemmModel::mi250x_gcd();
    let f64v = m.run(14_080, Precision::Fp64).achieved.as_tf();
    let f16v = m.run(14_080, Precision::Fp16).achieved.as_tf();
    assert!(f64v > m.vector_peak(Precision::Fp64).as_tf());
    assert!((f16v / f64v - 3.29).abs() < 0.2, "{}", f16v / f64v);
}

/// Fig. 5's crossover: SDMA wins on 1-lane pairs, CU kernels win on 2- and
/// 4-lane pairs.
#[test]
fn sdma_cu_crossover() {
    let e = TransferEngine::bard_peak();
    let sd = |a, b| {
        e.peer_bandwidth(a, b, TransferKind::Sdma)
            .unwrap()
            .as_gb_s()
    };
    let cu = |a, b| {
        e.peer_bandwidth(a, b, TransferKind::CuKernel)
            .unwrap()
            .as_gb_s()
    };
    assert!(sd(0, 3) > cu(0, 3), "1 lane: SDMA should win");
    assert!(cu(0, 4) > sd(0, 4), "2 lanes: CU should win");
    assert!(cu(0, 1) > sd(0, 1), "4 lanes: CU should win");
}

/// Tables 6-7: every application clears its KPP in the model, as in the
/// paper.
#[test]
fn all_kpps_met() {
    let f = frontier::apps::machine::MachineModel::frontier();
    for row in frontier::apps::caar::caar_results(&f) {
        assert!(row.achieved >= 4.0, "{}", row.app);
    }
    for row in frontier::apps::ecp::ecp_results(&f) {
        assert!(row.achieved >= 50.0, "{}", row.app);
    }
}

/// The NPS crossover: NPS-4 wins under full-socket load (which is why
/// Frontier runs NPS-4), at slightly better loaded latency too.
#[test]
fn nps_crossover() {
    let d = DramSystem::new(DramConfig::trento());
    let n4 = cpu_stream(&d, StoreMode::NonTemporal, NpsMode::Nps4);
    let n1 = cpu_stream(&d, StoreMode::NonTemporal, NpsMode::Nps1);
    let ratio = n4[3].bandwidth.as_gb_s() / n1[3].bandwidth.as_gb_s();
    assert!((1.3..1.6).contains(&ratio), "{ratio}");
    assert!(d.loaded_latency(NpsMode::Nps4) < d.loaded_latency(NpsMode::Nps1));
}

/// Scheduler effect is visible in the fabric: a spread allocation has
/// strictly more minimal-path global bandwidth than a packed one.
#[test]
fn placement_changes_available_bandwidth() {
    use frontier::sched::placement::{allocate, placement_metrics, PlacementPolicy};
    use std::collections::BTreeSet;
    let df = Dragonfly::build(DragonflyParams::scaled(8, 8, 4));
    let free: BTreeSet<usize> = (0..df.params().total_nodes()).collect();
    let pack = allocate(&df, &free, 16, PlacementPolicy::Pack).unwrap();
    let spread = allocate(&df, &free, 16, PlacementPolicy::Spread).unwrap();
    let mp = placement_metrics(&df, &pack);
    let ms = placement_metrics(&df, &spread);
    assert!(ms.minimal_global_bandwidth.as_gb_s() > 2.0 * mp.minimal_global_bandwidth.as_gb_s());
}
