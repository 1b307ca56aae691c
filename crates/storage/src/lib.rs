//! # frontier-storage
//!
//! Model of Frontier's I/O subsystem (§3.3, §4.3): the per-node NVMe burst
//! buffers and the center-wide **Orion** Lustre parallel file system.
//!
//! * [`nvme`] — device models (M.2 NVMe, enterprise NVMe, SAS HDD) and
//!   RAID-0 striping;
//! * [`nodelocal`] — the two-drive node-local volume (§4.3.1: 7.1 GB/s
//!   reads, 4.2 GB/s writes, 1.58 M IOPS measured per node);
//! * [`ssu`] — Orion's Scalable Storage Unit: 2 controllers × 2 NICs,
//!   24 NVMe + 212 HDDs in dRAID-2 sets;
//! * [`pfl`] — Lustre's Progressive File Layout router: first 256 KiB to
//!   Data-on-Metadata, up to 8 MiB to the flash performance tier, the rest
//!   to the hard-disk capacity tier;
//! * [`orion`] — the assembled file system and the Table 2 derivations;
//! * [`fio`] — an fio-like workload driver for the node-local volume;
//! * [`workload`] — the checkpoint-ingest analysis of §4.3.2 (700 TiB of
//!   HBM in ~180 s; <5 % of walltime spent on I/O).

pub mod fio;
pub mod nodelocal;
pub mod nvme;
pub mod orion;
pub mod pfl;
pub mod ssu;
pub mod workload;

pub mod prelude {
    pub use crate::fio::{FioJob, FioPattern};
    pub use crate::nodelocal::NodeLocalStorage;
    pub use crate::nvme::{DeviceSpec, Raid0};
    pub use crate::orion::{Orion, OrionTier};
    pub use crate::pfl::PflLayout;
    pub use crate::ssu::Ssu;
    pub use crate::workload::CheckpointAnalysis;
}

pub use prelude::*;
