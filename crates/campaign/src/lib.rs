//! # frontier-campaign
//!
//! The design-space campaign engine: a declarative description of a
//! machine-parameter grid (fabric shape, link rates, taper bundles, FIT
//! rates, node-local NVMe, power envelopes) × workloads × seeds. The
//! benchmark's `campaign-ref` workload times a 1,944-variant full-machine
//! grid.
//!
//! The throughput comes from exploiting how the grid factors, not from
//! brute force:
//!
//! * **sub-configuration dedupe** — variants are grouped into *tracks*
//!   sharing a fabric shape and seed. The topology build is shared through
//!   `frontier_bench::cache`, the mpiGraph routing pass runs once per
//!   track, and each capacity point's solved *fabric outcome* is computed
//!   once and reused by every overlay variant (FIT / NVMe / power riders)
//!   standing on it.
//! * **warm-start delta sweeps** — within a track, capacity points are
//!   visited in snake order (consecutive points differ in exactly one
//!   axis) and the max-min allocation is advanced with
//!   [`Solver::resolve_with`](frontier_core::fabric::solver::ResolveDelta)
//!   capacity deltas instead of cold solves.
//!
//! Execution is deterministic: every variant's result is a pure function
//! of the spec, so the parallel sweep and the serial sweep emit
//! byte-identical JSONL (pinned by `tests/quick_grid.rs` and by the
//! reference grid's SHA-256 in CI).
//!
//! ```
//! use frontier_campaign::{engine, spec::CampaignSpec};
//!
//! let spec = CampaignSpec::parse_str(
//!     r#"
//!     name = "doc"
//!     seeds = [1]
//!     [machine]
//!     groups = [6]
//!     switches_per_group = [4]
//!     endpoints_per_switch = [4]
//!     [sweep]
//!     link_rate_gbit = [160.0, 200.0]
//!     [overlay]
//!     fit_scale = [1.0, 4.0]
//!     "#,
//! )
//! .unwrap();
//! let result = engine::run(&spec, engine::Mode::Serial);
//! assert_eq!(result.rows.len(), 4);
//! ```

pub mod engine;
pub mod grid;
pub mod jsonl;
pub mod plan;
pub mod spec;
pub mod value;
