//! # frontier
//!
//! A full-system architectural simulator of the **Frontier** exascale
//! supercomputer, reproducing the evaluation of *Frontier: Exploring
//! Exascale — The System Architecture of the First Exascale Supercomputer*
//! (Atchley et al., SC '23).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`sim_core`] — deterministic discrete-event engine, RNG streams,
//!   statistics;
//! * [`node`] — the Bard Peak node: Trento CPU, MI250X GCDs, DDR4/HBM2e
//!   memory systems, the xGMI twisted ladder, SDMA/CU transfer engines,
//!   STREAM and GEMM execution models;
//! * [`fabric`] — the Slingshot dragonfly and the Summit fat-tree baseline,
//!   with routing, a max-min-fair flow solver, mpiGraph, and GPCNeT;
//! * [`storage`] — node-local NVMe burst buffers and the Orion Lustre file
//!   system (SSUs, dRAID, PFL/DoM);
//! * [`sched`] — the topology-aware pack/spread placement policy;
//! * [`apps`] — machine models and the CAAR/ECP application proxies;
//! * [`resilience`] — FIT rates, MTTI, checkpoint planning;
//! * [`power`] — the component power model and Green500 arithmetic;
//! * [`core`](frontier_core) — the integrated machine and Tables 1–2.
//!
//! ## Quickstart
//!
//! ```
//! use frontier::prelude::*;
//!
//! let machine = FrontierMachine::standard();
//! assert_eq!(machine.nodes(), 9_472);
//! assert!((machine.fabric().taper() - 0.57).abs() < 0.01);
//! println!("{}", machine.table1());
//! ```
//!
//! See `examples/` for runnable scenarios and `crates/bench` for the
//! harness that regenerates every table and figure of the paper
//! (`cargo run --release -p frontier-bench --bin repro`).

pub use frontier_campaign as campaign;
pub use frontier_core::prelude;
pub use frontier_core::{apps, fabric, node, power, resilience, sched, sim_core, storage};

/// The integrated machine handle (re-exported from `frontier-core`).
pub use frontier_core::machine::FrontierMachine;
