//! # frontier-core
//!
//! The integrated Frontier machine: the Bard Peak node model
//! (`frontier-node`), the Slingshot dragonfly (`frontier-fabric`), the I/O
//! subsystem (`frontier-storage`), the placement policy (`frontier-sched`), and
//! the resilience and power models, assembled under one handle with the
//! aggregate spec derivations of Tables 1 and 2.
//!
//! ```
//! use frontier_core::prelude::*;
//!
//! let frontier = FrontierMachine::standard();
//! assert_eq!(frontier.nodes(), 9_472);
//! println!("{}", frontier.table1());
//! ```

pub mod machine;
pub mod specs;

pub mod prelude {
    pub use crate::machine::FrontierMachine;
    pub use crate::specs::{table1, table2};
    pub use frontier_apps::prelude::*;
    pub use frontier_fabric::prelude::*;
    pub use frontier_node::prelude::*;
    pub use frontier_power::prelude::*;
    pub use frontier_resilience::prelude::*;
    pub use frontier_sched::prelude::*;
    pub use frontier_sim_core::prelude::*;
    pub use frontier_storage::prelude::*;
}

pub use prelude::*;

// Re-export the component crates so downstream users need only one
// dependency.
pub use frontier_apps as apps;
pub use frontier_fabric as fabric;
pub use frontier_node as node;
pub use frontier_power as power;
pub use frontier_resilience as resilience;
pub use frontier_sched as sched;
pub use frontier_sim_core as sim_core;
pub use frontier_storage as storage;
