//! # frontier-node
//!
//! Architectural model of a Frontier **Bard Peak** compute node (HPE Cray EX
//! 235a), as described in §3.1 of *Frontier: Exploring Exascale* (SC '23):
//!
//! * one AMD EPYC 7A53 **"Trento"** CPU — 64 Zen3 cores on 8 CCDs, 8 DIMMs of
//!   DDR4-3200, NPS-1/NPS-4 NUMA modes ([`trento`], [`dram`]);
//! * four AMD Instinct **MI250X** GPUs, each two Graphics Compute Dies (GCDs)
//!   with 64 GiB HBM2e at 1.635 TB/s ([`mi250x`], [`hbm`]);
//! * the **InfinityFabric** xGMI *twisted ladder* connecting the 8 GCDs and
//!   pairing each CCD with a GCD ([`xgmi`]);
//! * SDMA vs CU-kernel copy engines ([`transfer`]);
//! * execution models for the STREAM ([`stream`]) and CoralGemm-style GEMM
//!   ([`gemm`]) micro-benchmarks used in the paper's §4.1;
//! * the node assembly and the aggregate arithmetic behind Table 1
//!   ([`bardpeak`]).
//!
//! The models are *mechanistic where the paper's observations are structural*
//! (write-allocate traffic, SDMA's inability to stripe, DDR-limited host-to-
//! device aggregation) and *calibrated where they are microarchitectural*
//! (sustained-efficiency factors). Every calibrated constant is marked
//! `calibrated:` at its definition.

pub mod bardpeak;
pub mod dram;
pub mod gemm;
pub mod hbm;
pub mod mi250x;
pub mod roofline;
pub mod stream;
pub mod transfer;
pub mod trento;
pub mod xgmi;

pub mod prelude {
    pub use crate::bardpeak::BardPeakNode;
    pub use crate::dram::{DramSystem, NpsMode, StoreMode};
    pub use crate::gemm::{GemmModel, Precision};
    pub use crate::hbm::HbmStack;
    pub use crate::mi250x::{Gcd, Mi250x};
    pub use crate::stream::{cpu_stream, gpu_stream, StreamKernel, StreamResult};
    pub use crate::transfer::{TransferEngine, TransferKind};
    pub use crate::trento::Trento;
    pub use crate::xgmi::{LinkClass, NodeTopology, XgmiLink};
}

pub use prelude::*;
