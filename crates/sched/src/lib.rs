//! # frontier-sched
//!
//! Frontier's topology-aware placement policy (§3.4.2), applied by job
//! size exactly as the paper describes:
//!
//! > "For small jobs able to fit within a single rack/group, Slurm will
//! > pack allocations tightly to minimize global hops. For larger jobs,
//! > Slurm will attempt to spread a job evenly across as many Slingshot
//! > groups as possible to maximize the number of global connections (and
//! > thus global bandwidth) available to minimal routing."

pub mod placement;

pub mod prelude {
    pub use crate::placement::{allocate, placement_metrics, PlacementPolicy};
}

pub use prelude::*;
