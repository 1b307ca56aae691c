//! Per-message DES throughput harness and regression gate.
//!
//! Drives the data-oriented DES core (`fabric::des`) with mpiGraph-shaped
//! per-message workloads at three scales — small (64 endpoints), subset
//! (1,024 endpoints), and the full machine (9,472 nodes / 37,888
//! endpoints) — plus the full-scale GPCNeT victim multiple-allreduce, and
//! times the calendar-queue scheduler against the binary-heap reference.
//!
//! Three gates:
//!
//! 1. **Parity**: calendar, heap, and the domain-parallel engine
//!    (`fabric::pdes`) must produce bit-identical deliveries at every
//!    measured scale. The serial and parallel delivery dumps are also
//!    written to `target/des_parity_{serial,parallel}.txt` so CI can
//!    `cmp` them as an artifact-level gate.
//! 2. **Performance**: the calendar queue must not fall behind the heap
//!    by more than [`MAX_SLOWDOWN`] at the largest measured scale, and a
//!    full (non `--quick`) run must sustain at least
//!    [`MIN_HOP_EVENTS_PER_SEC`] hop-events/sec single-threaded.
//! 3. **Speedup**: with enough threads, the parallel engine must
//!    beat the serial calendar by [`QUICK_MIN_SPEEDUP`]× on the subset
//!    scale (`--quick`, ≥ [`QUICK_SPEEDUP_THREADS`] threads) and by
//!    [`FULL_MIN_SPEEDUP`]× at full machine (full run,
//!    ≥ [`FULL_SPEEDUP_THREADS`] threads). On smaller hosts the speedup
//!    gate is reported but not enforced — parity always is.
//!
//! `--quick` (the CI mode) runs the small and subset scales only and
//! skips the JSON artifact; a full run also rewrites `BENCH_des.json` at
//! the workspace root with the measured throughput trajectory.

use frontier_core::fabric::des::{simulate_with, DesConfig, MessageBatch, QueueKind};
use frontier_core::fabric::dragonfly::{Dragonfly, DragonflyParams};
use frontier_core::fabric::gpcnet::{victim_allreduce_des, GpcnetConfig};
use frontier_core::fabric::mpigraph::{DES_MESSAGE, DES_WINDOW};
use frontier_core::fabric::patterns::mpigraph_pairs;
use frontier_core::fabric::pdes::simulate_parallel;
use frontier_core::fabric::routing::{RoutePolicy, Router};
use frontier_core::sim_core::engine::CalendarQueue;
use frontier_core::sim_core::rng::StreamRng;
use frontier_core::sim_core::time::SimTime;
use frontier_core::sim_core::units::Bytes;
use frontier_core::sim_core::{metrics, par};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::process::ExitCode;
// simlint::allow(wallclock): this binary *is* a wall-clock benchmark (hop-events/sec throughput gate); its timings feed a JSON artifact, never byte-compared simulation state
use std::time::Instant;

/// Maximum tolerated slowdown of the calendar queue vs the heap at the
/// largest measured scale.
const MAX_SLOWDOWN: f64 = 1.50;

/// Throughput floor for a full run (hop events per second, one thread).
const MIN_HOP_EVENTS_PER_SEC: f64 = 10.0e6;

/// Parallel-over-calendar speedup floor on the subset scale in `--quick`
/// mode, enforced when at least [`QUICK_SPEEDUP_THREADS`] threads
/// are available.
const QUICK_MIN_SPEEDUP: f64 = 2.0;
const QUICK_SPEEDUP_THREADS: usize = 4;

/// Full-machine speedup floor for a full run, enforced at
/// [`FULL_SPEEDUP_THREADS`]+ threads.
const FULL_MIN_SPEEDUP: f64 = 4.0;
const FULL_SPEEDUP_THREADS: usize = 8;

const SEED: u64 = 7;

/// One measured scale point.
struct ScalePoint {
    name: &'static str,
    endpoints: usize,
    messages: usize,
    hop_events: u64,
    heap_ns: f64,
    calendar_ns: f64,
    parallel_ns: f64,
}

impl ScalePoint {
    fn heap_heps(&self) -> f64 {
        self.hop_events as f64 / (self.heap_ns / 1e9)
    }
    fn calendar_heps(&self) -> f64 {
        self.hop_events as f64 / (self.calendar_ns / 1e9)
    }
    fn parallel_heps(&self) -> f64 {
        self.hop_events as f64 / (self.parallel_ns / 1e9)
    }
    fn speedup(&self) -> f64 {
        self.calendar_ns / self.parallel_ns
    }
}

/// The mpiGraph per-message workload on `df`: every endpoint sends a
/// window of `DES_WINDOW` × `DES_MESSAGE` messages to one random partner
/// (same pair generation as `mpigraph::run_dragonfly_des`).
fn mpigraph_batch(df: &Dragonfly) -> MessageBatch {
    let n = df.params().total_endpoints();
    let mut rng = StreamRng::for_component(SEED, "mpigraph-pairs", 0);
    let pairs = mpigraph_pairs(n, &mut rng);
    let router = Router::new(df, RoutePolicy::adaptive_default());
    let flows = router.route_all(&pairs, 0, SEED);
    let pool: usize = flows.iter().map(|f| f.path.len()).sum();
    let mut batch = MessageBatch::with_capacity(flows.len() * DES_WINDOW, pool);
    for (i, f) in flows.iter().enumerate() {
        let span = batch.intern(&f.path);
        for _ in 0..DES_WINDOW {
            batch.push(
                span,
                DES_MESSAGE,
                frontier_core::sim_core::time::SimTime::ZERO,
                i as u64,
            );
        }
    }
    batch
}

fn median_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            // simlint::allow(wallclock): the measurement this benchmark exists to take
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// Time all three engines on one scale, check delivery parity, and append
/// the serial/parallel delivery dumps to the parity artifacts.
fn measure(
    name: &'static str,
    df: &Dragonfly,
    reps: usize,
    serial_dump: &mut String,
    parallel_dump: &mut String,
) -> Result<ScalePoint, String> {
    let cfg = DesConfig::default();
    let batch = mpigraph_batch(df);
    let topo = df.topology();

    let cal = simulate_with(topo, &cfg, &batch, QueueKind::Calendar);
    let heap = simulate_with(topo, &cfg, &batch, QueueKind::BinaryHeap);
    if cal != heap {
        return Err(format!("{name}: calendar and heap deliveries diverge"));
    }
    let par = simulate_parallel(topo, &cfg, &batch);
    if par.deliveries != cal {
        return Err(format!("{name}: parallel and serial deliveries diverge"));
    }
    let scan = cal
        .iter()
        .map(|d| d.arrival)
        .fold(SimTime::ZERO, SimTime::max);
    if par.makespan != scan {
        return Err(format!("{name}: parallel makespan diverges from scan"));
    }
    for (dump, rows) in [
        (&mut *serial_dump, &cal),
        (&mut *parallel_dump, &par.deliveries),
    ] {
        let _ = writeln!(dump, "# scale {name}");
        for d in rows.iter() {
            let _ = writeln!(dump, "{} {}", d.tag, d.arrival.as_picos());
        }
    }

    let calendar_ns = median_ns(reps, || {
        black_box(simulate_with(topo, &cfg, &batch, QueueKind::Calendar));
    });
    let heap_ns = median_ns(reps, || {
        black_box(simulate_with(topo, &cfg, &batch, QueueKind::BinaryHeap));
    });
    let parallel_ns = median_ns(reps, || {
        black_box(simulate_parallel(topo, &cfg, &batch));
    });

    let p = ScalePoint {
        name,
        endpoints: df.params().total_endpoints(),
        messages: batch.len(),
        hop_events: batch.total_hops(),
        heap_ns,
        calendar_ns,
        parallel_ns,
    };
    println!(
        "bench-des: {:<12} {:>6} endpoints {:>7} msgs {:>8} hop-events | heap {:>8.2} ms ({:>5.1} M hops/s) | calendar {:>8.2} ms ({:>5.1} M hops/s) | parallel {:>8.2} ms ({:>5.1} M hops/s, {:.2}x)",
        p.name,
        p.endpoints,
        p.messages,
        p.hop_events,
        p.heap_ns / 1e6,
        p.heap_heps() / 1e6,
        p.calendar_ns / 1e6,
        p.calendar_heps() / 1e6,
        p.parallel_ns / 1e6,
        p.parallel_heps() / 1e6,
        p.speedup(),
    );
    Ok(p)
}

/// Standalone microbench of [`CalendarQueue::drain_bucket_run`] (the
/// window executor's batch-extraction primitive): a population with long
/// same-timestamp FIFO runs, drained via pop-at-a-time vs bucket runs.
/// Returns (events, pop_ns, drain_ns).
fn bench_drain_bucket_run(reps: usize) -> (usize, f64, f64) {
    const TIMESTAMPS: u64 = 2_000;
    const RUN: u64 = 64;
    let n = (TIMESTAMPS * RUN) as usize;
    let fill = || {
        let mut q: CalendarQueue<u64> = CalendarQueue::with_capacity(n);
        for t in 0..TIMESTAMPS {
            for k in 0..RUN {
                q.push(SimTime::from_nanos(t * 100), t * RUN + k);
            }
        }
        q
    };
    let pop_ns = median_ns(reps, || {
        let mut q = fill();
        while let Some(ev) = q.pop() {
            black_box(ev);
        }
    });
    let drain_ns = median_ns(reps, || {
        let mut q = fill();
        let mut out = Vec::with_capacity(RUN as usize);
        while !q.is_empty() {
            out.clear();
            q.drain_bucket_run(&mut out);
            black_box(&out);
        }
    });
    println!(
        "bench-des: drain_bucket_run {n} events in runs of {RUN} | pop {:.2} ms | drain {:.2} ms ({:.2}x)",
        pop_ns / 1e6,
        drain_ns / 1e6,
        pop_ns / drain_ns,
    );
    (n, pop_ns, drain_ns)
}

/// The GPCNeT victim multiple-allreduce at full Table-5 scale, on the DES
/// core: wall time plus the simulated completion and hop-event count
/// (read back from the telemetry counters).
struct AllreduceResult {
    ranks: u64,
    hop_events: u64,
    sim_completion_us: f64,
    wall_ms: f64,
}

fn gpcnet_allreduce(quick: bool) -> AllreduceResult {
    let cfg = if quick {
        GpcnetConfig::scaled_for_tests()
    } else {
        GpcnetConfig::frontier_table5()
    };
    let df = Dragonfly::build(cfg.params.clone());
    metrics::set_enabled(true);
    metrics::global().reset();
    // simlint::allow(wallclock): benchmark timing
    let t0 = Instant::now();
    let done = victim_allreduce_des(&df, &cfg, Bytes::new(8));
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let snap = metrics::global().snapshot();
    metrics::set_enabled(false);
    let hop_events = snap.counters.get("fabric.des.events").copied().unwrap_or(0);
    let ranks = snap
        .counters
        .get("fabric.des.messages")
        .copied()
        .unwrap_or(0);
    println!(
        "bench-des: gpcnet-allreduce {ranks} messages {hop_events} hop-events, sim {:.1} us, wall {:.1} ms",
        done.as_micros_f64(),
        wall_ms
    );
    AllreduceResult {
        ranks,
        hop_events,
        sim_completion_us: done.as_micros_f64(),
        wall_ms,
    }
}

fn write_json(points: &[ScalePoint], ar: &AllreduceResult, drain: (usize, f64, f64)) {
    let best_heps = points
        .iter()
        .map(ScalePoint::calendar_heps)
        .fold(0.0f64, f64::max);
    let best_par_heps = points
        .iter()
        .map(ScalePoint::parallel_heps)
        .fold(0.0f64, f64::max);
    let scales: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"scale\": \"{}\",\n",
                    "      \"endpoints\": {},\n",
                    "      \"messages\": {},\n",
                    "      \"hop_events\": {},\n",
                    "      \"heap_ns\": {:.0},\n",
                    "      \"calendar_ns\": {:.0},\n",
                    "      \"parallel_ns\": {:.0},\n",
                    "      \"heap_hop_events_per_sec\": {:.0},\n",
                    "      \"calendar_hop_events_per_sec\": {:.0},\n",
                    "      \"parallel_hop_events_per_sec\": {:.0},\n",
                    "      \"parallel_speedup\": {:.2}\n",
                    "    }}"
                ),
                p.name,
                p.endpoints,
                p.messages,
                p.hop_events,
                p.heap_ns,
                p.calendar_ns,
                p.parallel_ns,
                p.heap_heps(),
                p.calendar_heps(),
                p.parallel_heps(),
                p.speedup(),
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"des\",\n",
            "  \"workload\": \"mpigraph per-message, window {} x {} B\",\n",
            "  \"threads\": {},\n",
            "  \"scales\": [\n{}\n  ],\n",
            "  \"gpcnet_victim_allreduce\": {{\n",
            "    \"config\": \"frontier_table5\",\n",
            "    \"messages\": {},\n",
            "    \"hop_events\": {},\n",
            "    \"sim_completion_us\": {:.1},\n",
            "    \"wall_ms\": {:.1}\n",
            "  }},\n",
            "  \"drain_bucket_run\": {{\n",
            "    \"events\": {},\n",
            "    \"pop_ns\": {:.0},\n",
            "    \"drain_ns\": {:.0}\n",
            "  }},\n",
            "  \"calendar_hop_events_per_sec_best\": {:.0},\n",
            "  \"parallel_hop_events_per_sec_best\": {:.0}\n",
            "}}\n"
        ),
        DES_WINDOW,
        DES_MESSAGE.as_u64(),
        par::threads(),
        scales.join(",\n"),
        ar.ranks,
        ar.hop_events,
        ar.sim_completion_us,
        ar.wall_ms,
        drain.0,
        drain.1,
        drain.2,
        best_heps,
        best_par_heps,
    );
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_des.json");
    match std::fs::write(&path, json) {
        Ok(()) => println!("bench-des: wrote {}", path.display()),
        Err(e) => eprintln!("bench-des: could not write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let quick = std::env::args().any(|a| a == "--quick");
    let threads = par::threads();

    let mut points = Vec::new();
    let mut serial_dump = String::new();
    let mut parallel_dump = String::new();
    let scales: Vec<(&'static str, DragonflyParams, usize)> = if quick {
        vec![
            ("small", DragonflyParams::scaled(4, 4, 4), 5),
            ("subset", DragonflyParams::scaled(16, 8, 8), 5),
        ]
    } else {
        vec![
            ("small", DragonflyParams::scaled(4, 4, 4), 5),
            ("subset", DragonflyParams::scaled(16, 8, 8), 5),
            ("full-machine", DragonflyParams::frontier(), 3),
        ]
    };
    for (name, params, reps) in scales {
        let df = Dragonfly::build(params);
        match measure(name, &df, reps, &mut serial_dump, &mut parallel_dump) {
            Ok(p) => points.push(p),
            Err(e) => {
                eprintln!("bench-des: parity FAILED: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("bench-des: parity OK ({threads} threads)");

    // Artifact-level parity gate: CI `cmp`s these two dumps byte-for-byte.
    let target = PathBuf::from("target");
    for (file, dump) in [
        ("des_parity_serial.txt", &serial_dump),
        ("des_parity_parallel.txt", &parallel_dump),
    ] {
        let path = target.join(file);
        if let Err(e) = std::fs::write(&path, dump) {
            eprintln!("bench-des: could not write {}: {e}", path.display());
        }
    }

    // Largest scale governs the perf gate: that is where scheduler choice
    // matters and where noise is smallest relative to runtime.
    let last = points.last().expect("at least one scale measured");
    let ratio = last.calendar_ns / last.heap_ns;
    if ratio > MAX_SLOWDOWN {
        eprintln!(
            "bench-des: perf FAILED: calendar is {ratio:.2}x the heap at {} scale (gate: {MAX_SLOWDOWN:.2}x)",
            last.name
        );
        return ExitCode::FAILURE;
    }
    let heps = last.calendar_heps().max(last.heap_heps());
    if !quick && heps < MIN_HOP_EVENTS_PER_SEC {
        eprintln!(
            "bench-des: perf FAILED: {:.1} M hop-events/s at {} scale (floor: {:.0} M)",
            heps / 1e6,
            last.name,
            MIN_HOP_EVENTS_PER_SEC / 1e6
        );
        return ExitCode::FAILURE;
    }
    println!(
        "bench-des: perf OK ({ratio:.2}x heap, {:.1} M hop-events/s)",
        heps / 1e6
    );

    // Speedup gate: enforced only with enough threads to make the
    // floor meaningful; otherwise the measured ratio is reported and the
    // parity gates above still stand.
    let (floor, need, gate_scale) = if quick {
        (QUICK_MIN_SPEEDUP, QUICK_SPEEDUP_THREADS, "subset")
    } else {
        (FULL_MIN_SPEEDUP, FULL_SPEEDUP_THREADS, "full-machine")
    };
    if let Some(p) = points.iter().find(|p| p.name == gate_scale) {
        if threads >= need && p.speedup() < floor {
            eprintln!(
                "bench-des: speedup FAILED: parallel is {:.2}x serial calendar at {} scale with {threads} threads (floor: {floor:.1}x)",
                p.speedup(),
                p.name,
            );
            return ExitCode::FAILURE;
        }
        let enforced = if threads >= need {
            "enforced"
        } else {
            "reported only"
        };
        println!(
            "bench-des: speedup {:.2}x at {} scale, {threads} threads (floor {floor:.1}x at {need}+ threads, {enforced})",
            p.speedup(),
            p.name,
        );
    }

    let drain = bench_drain_bucket_run(if quick { 3 } else { 5 });
    let ar = gpcnet_allreduce(quick);

    // Publish the wall-clock throughput as telemetry so metric dumps from
    // bench runs carry it; library `simulate` never records wall time, so
    // deterministic snapshots stay wall-clock-free.
    metrics::set_enabled(true);
    metrics::global()
        .max_gauge("fabric.des.hop_events_per_sec")
        .observe(heps);
    metrics::set_enabled(false);

    if !quick {
        write_json(&points, &ar, drain);
    }
    ExitCode::SUCCESS
}
