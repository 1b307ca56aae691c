//! One reproduction function per table/figure of the paper.
//!
//! Each function builds the relevant models, runs the experiment, and
//! renders the result in the paper's layout, with the paper's published
//! numbers alongside for comparison. `Scale::Full` runs at machine scale
//! (the Fig. 6 and Table 5 solves take seconds in release mode);
//! `Scale::Small` uses a ratio-preserving reduced fabric for quick runs
//! and tests.

use std::sync::Arc;

use frontier_core::prelude::*;
use frontier_core::sim_core::par;
use frontier_core::{apps, fabric, node, power, resilience, storage};

use fabric::dragonfly::{Dragonfly, DragonflyParams};
use fabric::fattree::FatTreeParams;
use fabric::gpcnet::{self, GpcnetConfig};
use fabric::mpigraph;
use fabric::patterns::all_to_all_throughput;
use fabric::routing::RoutePolicy;
use node::dram::{DramConfig, DramSystem, NpsMode, StoreMode};
use node::gemm::{GemmModel, Precision};
use node::hbm::HbmStack;
use node::stream::{cpu_stream, gpu_stream};
use node::transfer::{TransferEngine, TransferKind};

use crate::cache;

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Ratio-preserving reduced fabric (fast; used by tests).
    Small,
    /// The full 9,472-node machine (used by the released numbers).
    Full,
}

impl Scale {
    fn dragonfly(self) -> Arc<Dragonfly> {
        cache::dragonfly(match self {
            Scale::Small => DragonflyParams::scaled(16, 8, 8),
            Scale::Full => DragonflyParams::frontier(),
        })
    }
}

/// Table 1: compute peak specifications.
pub fn table1_text() -> String {
    table1().to_string()
}

/// Table 2: I/O subsystem specifications.
pub fn table2_text() -> String {
    table2().to_string()
}

/// Table 3: CPU STREAM, temporal vs non-temporal stores (NPS-4).
pub fn table3_text() -> String {
    let dram = DramSystem::new(DramConfig::trento());
    let temporal = cpu_stream(&dram, StoreMode::Temporal, NpsMode::Nps4);
    let nt = cpu_stream(&dram, StoreMode::NonTemporal, NpsMode::Nps4);
    let paper_t = [176_780.4, 107_262.2, 125_567.1, 120_702.1];
    let paper_nt = [179_130.5, 172_396.2, 178_356.8, 178_277.0];
    let mut t = Table::new(
        "Table 3: CPU STREAM bandwidth, temporal vs non-temporal stores (MB/s)",
        &["Function", "Temporal", "paper", "Non-Temporal", "paper"],
    );
    for i in 0..4 {
        t.row(&[
            temporal[i].kernel.cpu_name().into(),
            format!("{:.1}", temporal[i].bandwidth.as_mb_s()),
            format!("{:.1}", paper_t[i]),
            format!("{:.1}", nt[i].bandwidth.as_mb_s()),
            format!("{:.1}", paper_nt[i]),
        ]);
    }
    t.to_string()
}

/// Table 4: GPU STREAM on one GCD.
pub fn table4_text() -> String {
    let hbm = HbmStack::mi250x_gcd();
    let rs = gpu_stream(&hbm);
    let paper = [
        1_336_574.8,
        1_338_272.2,
        1_288_240.3,
        1_285_239.7,
        1_374_240.6,
    ];
    let mut t = Table::new(
        "Table 4: GPU STREAM bandwidth (MB/s)",
        &["Function", "Model", "Paper"],
    );
    for (r, p) in rs.iter().zip(paper) {
        t.row(&[
            r.kernel.gpu_name().into(),
            format!("{:.1}", r.bandwidth.as_mb_s()),
            format!("{p:.1}"),
        ]);
    }
    t.to_string()
}

/// Figure 3: GEMM sweep per precision with peak lines.
pub fn fig3_text() -> String {
    let m = GemmModel::mi250x_gcd();
    let sizes = [1024usize, 2048, 4096, 6144, 8192, 10240, 12288, 14336];
    let mut out = String::from(
        "Figure 3: achieved GEMM TF/s of one MI250X GCD (CoralGemm sweep)\n\
         paper asymptotes: FP64 33.8, FP32 24.1, FP16 111.2; GCD vector peak 23.95\n",
    );
    let mut t = Table::new("", &["N", "FP64", "FP32", "FP16"]);
    for &n in &sizes {
        t.row(&[
            n.to_string(),
            format!("{:.1}", m.run(n, Precision::Fp64).achieved.as_tf()),
            format!("{:.1}", m.run(n, Precision::Fp32).achieved.as_tf()),
            format!("{:.1}", m.run(n, Precision::Fp16).achieved.as_tf()),
        ]);
    }
    out.push_str(&t.to_string());
    out.push_str(&format!(
        "peaks: FP64 vector {:.2}, FP64 matrix {:.2}, FP16 matrix {:.1} TF/s\n",
        m.vector_peak(Precision::Fp64).as_tf(),
        m.matrix_peak(Precision::Fp64).as_tf(),
        m.matrix_peak(Precision::Fp16).as_tf(),
    ));
    out
}

/// Figure 4: aggregate CPU→GCD bandwidth for 8 concurrent ranks vs message
/// size.
pub fn fig4_text() -> String {
    let engine = TransferEngine::bard_peak();
    let dram = DramSystem::new(DramConfig::trento());
    let mut t = Table::new(
        "Figure 4: aggregate CPU-to-GCD bandwidth, 8 ranks (GB/s; paper plateau ~180)",
        &["Message size", "Aggregate GB/s"],
    );
    for exp in [16u32, 18, 20, 22, 24, 26, 28, 30] {
        let size = Bytes::new(1u64 << exp);
        let bw = engine.h2d_aggregate_at_size(&dram, NpsMode::Nps4, 8, size);
        t.row(&[format!("{size}"), format!("{:.1}", bw.as_gb_s())]);
    }
    let asym = engine.h2d_aggregate(&dram, NpsMode::Nps4, 8);
    format!("{t}asymptote: {:.1} GB/s (DDR-limited)\n", asym.as_gb_s())
}

/// Figure 5: GCD↔GCD bandwidth, CU kernels vs SDMA, by link class.
pub fn fig5_text() -> String {
    let engine = TransferEngine::bard_peak();
    // Representative pairs: E/W (1 lane), N/S (2 lanes), intra-OAM (4).
    let pairs = [
        (0usize, 3usize, "1 link"),
        (0, 4, "2 links"),
        (0, 1, "4 links"),
    ];
    let mut t = Table::new(
        "Figure 5: GCD-to-GCD bandwidth by engine and link class (GB/s)\n\
         paper: CU 37.5 / 74.9 / 145.5; SDMA capped ~50 regardless of links",
        &["Pair", "CU kernel", "SDMA"],
    );
    for (a, b, label) in pairs {
        #[expect(
            clippy::unwrap_used,
            reason = "`pairs` above lists only GCD pairs adjacent in the fixed MI250X link table, for which peer_bandwidth is total"
        )]
        let cu = engine.peer_bandwidth(a, b, TransferKind::CuKernel).unwrap();
        #[expect(clippy::unwrap_used, reason = "same fixed adjacency as the line above")]
        let sdma = engine.peer_bandwidth(a, b, TransferKind::Sdma).unwrap();
        t.row(&[
            format!("GCD{a}-GCD{b} ({label})"),
            format!("{:.1}", cu.as_gb_s()),
            format!("{:.1}", sdma.as_gb_s()),
        ]);
    }
    t.to_string()
}

/// Figure 6: mpiGraph receive-bandwidth histograms, Frontier vs Summit.
pub fn fig6_text(scale: Scale) -> String {
    // The two machines are independent sub-experiments; running them as a
    // join overlaps the Summit fat-tree run with the dominant Frontier
    // mega-solve, so the *section* scales with `--jobs` even when one
    // machine's solve does not decompose further. `par` keeps the section
    // scope on the helper (both arms record fabric counters via
    // `metrics::active()`).
    let (frontier, summit) = par::join(
        || {
            let df = scale.dragonfly();
            mpigraph::run_dragonfly(&df, RoutePolicy::adaptive_default(), 0xF16)
        },
        || {
            let ft = cache::fattree(match scale {
                Scale::Small => FatTreeParams::scaled(32, 32),
                Scale::Full => FatTreeParams::summit(),
            });
            mpigraph::run_fattree(&ft, 0xF16)
        },
    );
    let mut out = String::from("Figure 6: mpiGraph per-NIC receive bandwidth\n");
    out.push_str(&frontier.histogram(20.0, 40).render(
        60,
        &format!(
            "Frontier (dragonfly): mean {:.1}, min {:.1}, max {:.1} GB/s (paper: wide, 3-17.5)",
            frontier.summary.mean, frontier.summary.min, frontier.summary.max
        ),
    ));
    out.push_str(&summit.histogram(12.5, 25).render(
        60,
        &format!(
            "Summit (fat-tree): mean {:.1} GB/s, sd {:.2} (paper: tight at ~8.5)",
            summit.summary.mean, summit.summary.std_dev
        ),
    ));
    out
}

/// Table 5: GPCNeT isolated vs congested.
pub fn table5_text(scale: Scale) -> String {
    let cfg = match scale {
        Scale::Small => GpcnetConfig::scaled_for_tests(),
        Scale::Full => GpcnetConfig::frontier_table5(),
    };
    // Both PPN variants run against one shared topology build.
    let df = cache::dragonfly(cfg.params.clone());
    let report = gpcnet::run_on(&df, &cfg);
    let paper_iso = [(2.6, 4.8), (3497.2, 2514.4), (51.5, 54.1)];
    let paper_con = [(2.6, 4.7), (3472.2, 2487.0), (51.6, 54.3)];
    let mut t = Table::new(
        format!(
            "Table 5: GPCNeT on {} nodes, {} PPN (congestion control {})",
            cfg.nodes,
            cfg.ppn,
            if cfg.congestion_control { "ON" } else { "OFF" }
        ),
        &["Test", "Avg", "99%", "paper avg", "paper 99%", "Units"],
    );
    for (i, (iso, con)) in report
        .isolated
        .iter()
        .zip(report.congested.iter())
        .enumerate()
    {
        t.row(&[
            format!("isolated  {}", iso.name),
            format!("{:.1}", iso.average),
            format!("{:.1}", iso.p99),
            format!("{:.1}", paper_iso[i].0),
            format!("{:.1}", paper_iso[i].1),
            iso.units.clone(),
        ]);
        t.row(&[
            format!("congested {}", con.name),
            format!("{:.1}", con.average),
            format!("{:.1}", con.p99),
            format!("{:.1}", paper_con[i].0),
            format!("{:.1}", paper_con[i].1),
            con.units.clone(),
        ]);
    }
    let mut out = t.to_string();
    for i in 0..3 {
        out.push_str(&format!(
            "impact factor test {}: {:.2}x (paper: ~1.0x at 8 PPN)\n",
            i,
            report.impact_factor(i)
        ));
    }
    // The paper's 32 PPN observation: partial degradation even with CC on.
    let mut cfg32 = cfg.clone();
    cfg32.ppn = 32;
    let r32 = gpcnet::run_on(&df, &cfg32);
    let worst = (0..3).map(|i| r32.impact_factor(i)).fold(0.0f64, f64::max);
    out.push_str(&format!(
        "at 32 PPN: worst average impact {:.2}x (paper: 1.2-1.6x averages)\n",
        worst
    ));
    out
}

/// Table 6: CAAR application speedups.
pub fn table6_text() -> String {
    let f = cache::frontier_machine();
    apps::fom::render_table(
        "Table 6: CAAR and INCITE applications vs the 4.0x Summit KPP",
        &apps::caar::caar_results(&f),
    )
    .to_string()
}

/// Table 7: ECP application speedups.
pub fn table7_text() -> String {
    let f = cache::frontier_machine();
    apps::fom::render_table(
        "Table 7: ECP applications vs the 50x KPP",
        &apps::ecp::ecp_results(&f),
    )
    .to_string()
}

/// §4.3.1: node-local storage, measured and aggregate.
pub fn nodelocal_text() -> String {
    use storage::fio::{run, FioJob};
    let s = storage::nodelocal::NodeLocalStorage::frontier();
    let read = run(&s, &FioJob::seq_read(Bytes::gib(64)));
    let write = run(&s, &FioJob::seq_write(Bytes::gib(64)));
    let iops = run(&s, &FioJob::rand_read_4k(8_000_000));
    let agg = storage::nodelocal::NodeLocalAggregate::measured(9_472);
    format!(
        "Node-local storage (fio; paper: 7.1 GB/s read, 4.2 GB/s write, 1.58M IOPS)\n\
         seq read : {:.1} GB/s\n\
         seq write: {:.1} GB/s\n\
         4k rand  : {:.2}M IOPS\n\
         full-machine aggregate (paper: 67.3 TB/s, 39.8 TB/s, ~15.0B IOPS):\n\
         read {:.1} TB/s, write {:.1} TB/s, {:.1}B IOPS\n",
        read.bandwidth.as_gb_s(),
        write.bandwidth.as_gb_s(),
        iops.iops / 1e6,
        agg.read.as_tb_s(),
        agg.write.as_tb_s(),
        agg.iops / 1e9
    )
}

/// §4.3.2: Orion measured rates and the checkpoint-ingest scenario.
pub fn orion_text() -> String {
    use storage::orion::OrionTier;
    let o = storage::orion::Orion::frontier();
    let ingest = o.checkpoint_ingest_time(Bytes::tib(700), Bytes::gib(8));
    let cp = resilience::checkpoint::plan(ingest.as_secs_f64(), 4.85 * 3600.0);
    format!(
        "Orion (paper: flash 11.7/9.4 TB/s, capacity 4.9/4.3 TB/s; 700 TiB in ~180 s)\n\
         flash tier   : read {:.1} TB/s, write {:.1} TB/s\n\
         capacity tier: read {:.1} TB/s, write {:.1} TB/s\n\
         700 TiB checkpoint ingest: {:.0} s ({:.1}% of an hour)\n\
         Young/Daly optimal cadence at 4.85 h MTTI: every {:.0} min, {:.1}% machine efficiency\n",
        o.measured_read(OrionTier::Performance).as_tb_s(),
        o.measured_write(OrionTier::Performance).as_tb_s(),
        o.measured_read(OrionTier::Capacity).as_tb_s(),
        o.measured_write(OrionTier::Capacity).as_tb_s(),
        ingest.as_secs_f64(),
        ingest.as_secs_f64() / 36.0,
        cp.interval_s / 60.0,
        cp.efficiency * 100.0
    )
}

/// §5.1: power/Green500.
pub fn power_text() -> String {
    let e = power::green500::green500_entry();
    format!(
        "Green500 (paper: 1.102 EF at 21.1 MW = 52 GF/W; targets 50 GF/W, 20 MW/EF)\n\
         HPL Rmax : {:.3} EF on {} nodes\n\
         power    : {:.1} MW\n\
         Green500 : {:.1} GF/W\n\
         facility : {:.1} MW/EF\n",
        e.rmax.as_ef(),
        e.nodes,
        e.power_mw,
        e.gf_per_watt,
        e.mw_per_ef
    )
}

/// §5.4: MTTI and its breakdown.
pub fn mtti_text() -> String {
    use resilience::fit::{FitModel, Inventory};
    let inv = Inventory::frontier();
    let fits = FitModel::frontier();
    let b = resilience::mtti::analytic_mtti(&inv, &fits);
    let mc = resilience::mtti::monte_carlo_mtti(&inv, &fits, 50_000, 0x5E51);
    let mut out = format!(
        "Hardware MTTI (paper: ~4 h band; memory and power supplies lead)\n\
         analytic   : {:.2} h\n\
         Monte-Carlo: {:.2} h (50k trials)\n\
         contributors:\n",
        b.mtti_hours, mc
    );
    for (class, share) in &b.shares {
        out.push_str(&format!(
            "   {:>16}: {:>5.1}%\n",
            class.name(),
            share * 100.0
        ));
    }
    let improved = resilience::mtti::analytic_mtti(&inv, &fits.improved_10x());
    out.push_str(&format!(
        "with 10x FIT improvement: {:.1} h (the 8-12 h terascale-era hope of §5.4)\n",
        improved.mtti_hours
    ));
    out
}

/// §3.2 derived: taper and all-to-all, with the bundle-size ablation.
pub fn taper_text() -> String {
    let mut out = String::from(
        "Taper & all-to-all (paper: 57% taper; ~30-32 GB/s/node all-to-all at 8 PPN)\n",
    );
    for bundles in [1usize, 2, 4] {
        let mut p = DragonflyParams::frontier();
        p.bundles_per_group_pair = bundles;
        let df = cache::dragonfly(p);
        let t = all_to_all_throughput(&df, 1.0);
        out.push_str(&format!(
            "bundles={bundles}: taper {:>4.1}%, global {:>5.1} TB/s, all-to-all {:>4.1} GB/s/node{}\n",
            df.taper() * 100.0,
            df.total_global_bandwidth().as_tb_s(),
            t.per_node.as_gb_s(),
            if bundles == 2 { "  <- Frontier" } else { "" }
        ));
    }
    out
}

/// §3.4.2 derived: pack vs spread placement.
pub fn placement_text() -> String {
    use frontier_core::sched::placement::{allocate, placement_metrics, PlacementPolicy};
    use std::collections::BTreeSet;
    let df = cache::dragonfly(DragonflyParams::scaled(16, 8, 8));
    let free: BTreeSet<usize> = (0..df.params().total_nodes()).collect();
    let mut out =
        String::from("Slurm topology-aware placement (paper: pack small jobs, spread large)\n");
    for (nodes, policy) in [
        (16, PlacementPolicy::Pack),
        (16, PlacementPolicy::Spread),
        (64, PlacementPolicy::Pack),
        (64, PlacementPolicy::Spread),
    ] {
        #[expect(
            clippy::expect_used,
            reason = "`free` holds every node of the freshly built machine and the largest request is 64 nodes, so allocation cannot fail"
        )]
        let a = allocate(&df, &free, nodes, policy).expect("machine is empty");
        let m = placement_metrics(&df, &a);
        out.push_str(&format!(
            "{nodes:>3} nodes, {policy:?}: spans {:>2} groups, minimal-path global bw {:>6.1} GB/s, intra-group pairs {:>5.1}%\n",
            m.groups_spanned,
            m.minimal_global_bandwidth.as_gb_s(),
            m.intra_group_pair_fraction * 100.0
        ));
    }
    out
}

/// §3.1.1 ablation: NPS-1 vs NPS-4.
pub fn nps_text() -> String {
    let dram = DramSystem::new(DramConfig::trento());
    let mut out =
        String::from("NPS ablation (paper: ~180 GB/s NPS-4 vs ~125 GB/s NPS-1, non-temporal)\n");
    for nps in [NpsMode::Nps4, NpsMode::Nps1] {
        let rs = cpu_stream(&dram, StoreMode::NonTemporal, nps);
        #[expect(
            clippy::expect_used,
            reason = "cpu_stream always reports all four STREAM kernels"
        )]
        let triad = rs
            .iter()
            .find(|r| r.kernel == node::stream::StreamKernel::Triad)
            .expect("triad present");
        out.push_str(&format!(
            "{nps:?}: triad {:.1} GB/s, loaded latency {}\n",
            triad.bandwidth.as_gb_s(),
            dram.loaded_latency(nps)
        ));
    }
    out
}

/// §4.4.1 ablation: NIC-per-GPU (AthenaPK's parallel efficiency).
pub fn nic_text() -> String {
    use apps::scaling::WeakScalingModel;
    let f = WeakScalingModel::athenapk_frontier();
    let s = WeakScalingModel::athenapk_summit();
    let mut out = String::from(
        "NIC attachment ablation: AthenaPK weak scaling (paper: 96% vs 48%)\n\
         nodes    Frontier(NIC/OAM)  Summit(2 NICs/node)\n",
    );
    for n in [64usize, 512, 4_600, 9_200] {
        out.push_str(&format!(
            "{n:>6}       {:>5.1}%             {:>5.1}%\n",
            f.efficiency(n) * 100.0,
            s.efficiency(n) * 100.0
        ));
    }
    out
}

/// TOP500/Green500 via the HPL panel-loop model (§5.1).
pub fn hpl_text() -> String {
    use apps::hpl::{run, HplConfig};
    let r = run(&HplConfig::frontier_june2022());
    let power = power::model::SystemPower::frontier_hpl();
    format!(
        "HPL panel-loop model (paper: 1.102 EF, #1 on TOP500 and Green500, June 2022)\n\
         Rmax            : {:.3} EF\n\
         runtime         : {:.2} h\n\
         HPL efficiency  : {:.1}% of FP64 vector peak (emergent)\n\
         compute fraction: {:.1}%\n\
         at {:.1} MW -> {:.1} GF/W\n",
        r.rmax.as_ef(),
        r.runtime.as_secs_f64() / 3600.0,
        r.efficiency_vs_vector_peak * 100.0,
        r.compute_fraction * 100.0,
        power.megawatts(),
        r.rmax.as_gf() / (power.megawatts() * 1e6)
    )
}

/// Collective algorithms on the message-level DES (ablation).
pub fn collectives_text() -> String {
    use fabric::collectives::{AllreduceAlgo, Collectives};
    use fabric::topology::EndpointId;
    let df = cache::dragonfly(DragonflyParams::scaled(8, 8, 8));
    let ranks: Vec<EndpointId> = (0..64).map(EndpointId).collect();
    let c = Collectives::new(&df, ranks, RoutePolicy::Minimal, 0xC0);
    let mut out = String::from(
        "Collective algorithms on the message-level DES (64 ranks)\n\
         size        recursive-doubling      ring\n",
    );
    for size in [Bytes::new(8), Bytes::kib(8), Bytes::mib(1), Bytes::mib(64)] {
        let rd = c.allreduce(size, AllreduceAlgo::RecursiveDoubling);
        let ring = c.allreduce(size, AllreduceAlgo::Ring);
        let winner = if rd < ring {
            "  <- RD wins"
        } else {
            "  <- ring wins"
        };
        out.push_str(&format!(
            "{:>8}    {:>16}    {:>10}{}\n",
            size.to_string(),
            rd.to_string(),
            ring.to_string(),
            winner
        ));
    }
    out.push_str(&format!(
        "all-to-all (1 MiB/peer): {}\nbroadcast (64 KiB)     : {}\n",
        c.all_to_all(Bytes::mib(1)),
        c.broadcast(Bytes::kib(64))
    ));
    out
}

/// UGAL load-aware routing vs minimal on adversarial traffic (ablation).
pub fn ugal_text() -> String {
    use fabric::routing::{path_deltas, Router};
    use fabric::solver::{ResolveDelta, Solver};
    use fabric::topology::EndpointId;
    let df = cache::dragonfly(DragonflyParams::scaled(16, 8, 8));
    let epg = df.params().endpoints_per_group() as u32;
    let n = df.params().total_endpoints() as u32;
    // Adversarial: group g -> group g+1, all endpoints.
    let pairs: Vec<(EndpointId, EndpointId)> = (0..n)
        .map(|e| (EndpointId(e), EndpointId((e + epg) % n)))
        .collect();
    let r = Router::new(&df, RoutePolicy::Minimal);
    let minimal = r.route_all(&pairs, 0, 0x06A1);
    let ugal = r.route_all_ugal(&pairs, 0, 0x06A1);
    // One cold solve on the minimal routing, then a warm re-solve that
    // only re-routes the flows UGAL actually detoured — the solver
    // re-solves the interference components those detours touch and keeps
    // the rest of the minimal allocation.
    let deltas = path_deltas(&minimal, &ugal);
    let mut solver = Solver::new(df.topology(), minimal);
    let t_min = solver.solve().total();
    let t_ugal = solver
        .resolve_with(&ResolveDelta::changed_flows(deltas))
        .total();
    format!(
        "Routing ablation on adversarial group-shift traffic (§3.2: direct networks\n\
         need non-minimal routing)\n\
         minimal : {:>9.1} GB/s total\n\
         UGAL    : {:>9.1} GB/s total ({:.2}x)\n",
        t_min.as_gb_s(),
        t_ugal.as_gb_s(),
        t_ugal.as_gb_s() / t_min.as_gb_s()
    )
}

/// §5.4's UE-scaling claim plus the storage-fabric headroom check.
pub fn ue_text() -> String {
    use resilience::ue::{HbmInstallation, UeModel};
    let m = UeModel::default();
    let f = HbmInstallation::frontier();
    let s = HbmInstallation::summit();
    let df = cache::dragonfly(DragonflyParams::frontier());
    format!(
        "HBM uncorrectable errors (paper: Frontier's UE level is Summit's HBM2 rate\n\
         scaled by HBM2e capacity)\n\
         Summit  : {:.1} PiB HBM2  -> {:.4} UE/h (MTBUE {:.0} h)\n\
         Frontier: {:.1} PiB HBM2e -> {:.4} UE/h (MTBUE {:.1} h)\n\
         capacity ratio = rate ratio = {:.1}x\n\n\
         Storage-fabric headroom (§3.2): {} compute->storage fabric vs 10 TB/s Orion\n",
        s.capacity.as_pib(),
        m.rate_per_hour(&s),
        m.mtbue_hours(&s),
        f.capacity.as_pib(),
        m.rate_per_hour(&f),
        m.mtbue_hours(&f),
        f.capacity.as_gib() / s.capacity.as_gib(),
        df.storage_fabric_bandwidth(),
    )
}

/// Every section name, in the paper's presentation order. `repro -- all`
/// expands to exactly this list, whether it renders the sections serially
/// or fans them out through `par`.
pub const PAPER_ORDER: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "fig3",
    "table4",
    "fig4",
    "fig5",
    "fig6",
    "table5",
    "nodelocal",
    "orion",
    "table6",
    "table7",
    "power",
    "mtti",
    "taper",
    "placement",
    "nps",
    "nic",
    "hpl",
    "collectives",
    "ugal",
    "ue",
];

/// Render one section by name, or `None` for an unknown name. This is the
/// single dispatch point shared by [`all_text`], the `repro` binary, and
/// the `bench_repro` harness — every consumer renders identical text for
/// a given `(name, scale)`.
pub fn section_text(name: &str, scale: Scale) -> Option<String> {
    // Per-section wall-clock (telemetry on only): the scope drops when the
    // render returns. Guarded on the name being real so unknown-name
    // probes do not mint junk series.
    let _timer = if PAPER_ORDER.contains(&name) {
        metrics::active().map(|m| m.timer(format!("repro.section.{name}")))
    } else {
        None
    };
    Some(match name {
        "table1" => table1_text(),
        "table2" => table2_text(),
        "table3" => table3_text(),
        "table4" => table4_text(),
        "table5" => table5_text(scale),
        "table6" => table6_text(),
        "table7" => table7_text(),
        "fig3" => fig3_text(),
        "fig4" => fig4_text(),
        "fig5" => fig5_text(),
        "fig6" => fig6_text(scale),
        "nodelocal" => nodelocal_text(),
        "orion" => orion_text(),
        "power" => power_text(),
        "mtti" => mtti_text(),
        "taper" => taper_text(),
        "placement" => placement_text(),
        "nps" => nps_text(),
        "nic" => nic_text(),
        "hpl" => hpl_text(),
        "collectives" => collectives_text(),
        "ugal" => ugal_text(),
        "ue" => ue_text(),
        _ => return None,
    })
}

/// Render one section under its own metrics scope and return the text
/// together with the section's private snapshot. The scope is named
/// `section:{name}` so trace spans recorded during the render are
/// attributable; the section's own wall-clock timer lands in the scoped
/// registry too (key `repro.section.{name}`), so callers that merge
/// scoped snapshots keep the per-section timing series.
///
/// Shared-resource telemetry (`bench.cache.*.built` and friends) goes
/// through [`metrics::shared`] and is *not* in the returned snapshot —
/// by design, since its scope attribution would be a scheduling race.
pub fn section_text_scoped(name: &str, scale: Scale) -> Option<(String, metrics::MetricsSnapshot)> {
    if !PAPER_ORDER.contains(&name) {
        return None;
    }
    let registry = Arc::new(metrics::MetricsRegistry::new());
    let scope =
        metrics::MetricsScope::enter_named(format!("section:{name}"), Arc::clone(&registry));
    let text = section_text(name, scale)?;
    drop(scope);
    Some((text, registry.snapshot()))
}

/// Everything, in paper order.
pub fn all_text(scale: Scale) -> String {
    #[expect(
        clippy::expect_used,
        reason = "section_text is total over PAPER_ORDER by construction (pinned by the section_names test)"
    )]
    let sections: Vec<String> = PAPER_ORDER
        .iter()
        .map(|name| section_text(name, scale).expect("PAPER_ORDER names are known"))
        .collect();
    sections.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_renders() {
        let all = all_text(Scale::Small);
        for marker in [
            "Table 1",
            "Table 2",
            "Table 3",
            "Table 4",
            "Table 5",
            "Table 6",
            "Table 7",
            "Figure 3",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "Green500",
            "MTTI",
            "Taper",
            "placement",
            "NPS",
            "NIC",
            "HPL",
            "Collective",
            "UGAL",
            "uncorrectable",
        ] {
            assert!(all.contains(marker), "missing section {marker}");
        }
    }

    #[test]
    fn section_dispatch_covers_paper_order() {
        for name in PAPER_ORDER {
            assert!(
                section_text(name, Scale::Small).is_some(),
                "unknown section {name}"
            );
        }
        assert!(section_text("nonsense", Scale::Small).is_none());
    }

    #[test]
    fn all_text_equals_joined_sections() {
        // The byte-identity contract of `repro -- all`: printing each
        // section in paper order reproduces all_text exactly.
        let all = all_text(Scale::Small);
        let joined: Vec<String> = PAPER_ORDER
            .iter()
            .map(|n| section_text(n, Scale::Small).unwrap())
            .collect();
        assert_eq!(all, joined.join("\n"));
    }

    #[test]
    fn table3_shows_rfo_gap() {
        let t = table3_text();
        assert!(t.contains("Scale"));
        assert!(t.contains("107262.2")); // paper column present
    }

    #[test]
    fn taper_ablation_brackets_frontier() {
        let t = taper_text();
        assert!(t.contains("<- Frontier"));
        assert!(t.contains("57.0%"), "{t}");
    }

    #[test]
    fn fig6_small_runs_fast_and_contains_histograms() {
        let t = fig6_text(Scale::Small);
        assert!(t.contains("Frontier (dragonfly)"));
        assert!(t.contains("Summit (fat-tree)"));
        assert!(t.contains('#'));
    }
}
