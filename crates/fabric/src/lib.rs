//! # frontier-fabric
//!
//! Flow-level model of Frontier's **Slingshot** interconnect (§3.2, §4.2.2)
//! and of the Summit InfiniBand EDR fat-tree it is compared against:
//!
//! * [`topology`] — the generic switch/endpoint/link graph;
//! * [`dragonfly`] — Frontier's 3-hop dragonfly: 74 compute groups of 32
//!   switches × 16 endpoints, bundle-size-2 global connections (the 57 %
//!   taper), plus the I/O and management groups;
//! * [`fattree`] — a non-blocking 3-level Clos, the Summit baseline;
//! * [`routing`] — minimal, Valiant (non-minimal), and UGAL-like adaptive
//!   dragonfly routing;
//! * [`maxmin`] — progressive-filling max-min-fair bandwidth allocation, the
//!   flow-level equivalent of per-flow fair queueing (entry points plus the
//!   round-based baseline and reference oracles);
//! * [`solver`] — the event-driven engine behind [`maxmin`]: a bottleneck
//!   event heap, interference-component decomposition (independent
//!   components solve concurrently), and the warm-start [`solver::Solver`]
//!   that re-solves only the components a delta touches;
//! * [`patterns`] — traffic generators (mpiGraph pairings, all-to-all,
//!   incast, broadcast);
//! * [`mpigraph`] — the Fig. 6 experiment;
//! * [`gpcnet`] — the Table 5 congestion experiment;
//! * [`latency`] — hop/serialization/queueing latency and the allreduce
//!   model.
//!
//! Throughout, a *flow* is a (source endpoint, destination endpoint) stream
//! with a routed path; the solver assigns each flow the max-min fair rate
//! subject to link capacities. Slingshot's hardware congestion control is
//! modelled as per-application (per-VNI) fairness on shared links — the
//! mechanism by which "congested ≈ isolated" in Table 5 — while *disabling*
//! congestion control degrades to per-flow fairness, letting aggressors
//! with many flows crush victims.

pub mod collectives;
pub mod des;
pub mod dragonfly;
pub mod fattree;
pub mod gpcnet;
pub mod latency;
pub mod maxmin;
pub mod mpigraph;
pub mod patterns;
pub mod pdes;
pub mod routing;
pub mod solver;
pub mod topology;

pub mod prelude {
    pub use crate::dragonfly::{Dragonfly, DragonflyParams};
    pub use crate::fattree::{FatTree, FatTreeParams};
    pub use crate::maxmin::{
        solve_maxmin, solve_maxmin_per_vni, solve_maxmin_weighted, Allocation, VniWeights,
    };
    pub use crate::routing::{RoutePolicy, Router};
    pub use crate::solver::{ResolveDelta, Solver};
    pub use crate::topology::{EndpointId, Flow, LinkId, SwitchId, Topology};
}

pub use prelude::*;
