//! The declarative campaign format.
//!
//! A spec names the campaign, lists seeds and workloads, and gives one
//! list of values per machine axis; the engine sweeps the full
//! cross-product. Axes are grouped by what sharing they permit:
//!
//! * `[machine]` — *structural* axes (group count, switches per group,
//!   endpoints per switch, NICs per node, I/O groups). Changing one
//!   changes the topology graph itself; each combination is a distinct
//!   fabric build.
//! * `[sweep]` — *capacity* axes (link rate, protocol efficiency, taper
//!   bundles). Same graph, different link capacities: these are swept
//!   with warm-start capacity deltas on one solver.
//! * `[overlay]` — *overlay* axes (FIT scale, NVMe per node, power
//!   scale). They never touch the fabric; overlay variants ride on a
//!   shared fabric outcome for free.
//!
//! ```toml
//! name = "taper-study"
//! seeds = [1, 2]
//! workloads = ["mpigraph", "hpl", "mtti"]
//!
//! [machine]
//! groups = [74]
//!
//! [sweep]
//! link_rate_gbit = [150.0, 200.0, 250.0]
//! bundles_per_group_pair = [1, 2, 3]
//!
//! [overlay]
//! fit_scale = [0.5, 1.0, 2.0]
//! nvme_per_node = [1, 2, 4]
//! ```
//!
//! Unlisted axes default to Frontier's value (a single grid point). The
//! same tree spelled as a JSON object parses identically.

use crate::value::Value;
use std::fmt;

/// Which evaluations run per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// mpiGraph over the warm-start max-min chain (the fig. 6 fabric
    /// benchmark; accepted spellings `"mpigraph"` and `"fig6"`).
    MpiGraph,
    /// GPCNeT congestion impact factors (expensive: needs its own
    /// topology build per capacity point; meant for small shapes).
    Gpcnet,
    /// HPL FOM (EF) via the panel-loop model (`"hpl"` or `"fom"`).
    Hpl,
    /// Analytic hardware MTTI from the variant's component inventory.
    Mtti,
}

/// Structural axes: every combination is a distinct fabric graph.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineAxes {
    pub groups: Vec<usize>,
    pub switches_per_group: Vec<usize>,
    pub endpoints_per_switch: Vec<usize>,
    pub nics_per_node: Vec<usize>,
    pub io_groups: Vec<usize>,
}

/// Capacity axes: same graph, warm-startable capacity changes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepAxes {
    pub link_rate_gbit: Vec<f64>,
    pub protocol_efficiency: Vec<f64>,
    pub bundles_per_group_pair: Vec<usize>,
    pub bundles_per_io_pair: Vec<usize>,
}

/// Overlay axes: no fabric effect at all.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayAxes {
    pub fit_scale: Vec<f64>,
    pub nvme_per_node: Vec<u64>,
    pub power_scale: Vec<f64>,
}

/// A parsed, validated campaign description.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    pub name: String,
    pub seeds: Vec<u64>,
    pub workloads: Vec<Workload>,
    pub machine: MachineAxes,
    pub sweep: SweepAxes,
    pub overlay: OverlayAxes,
}

/// A spec-level failure (syntax errors surface as [`crate::value::ParseError`]
/// text inside).
#[derive(Debug, Clone, PartialEq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn fail<T>(msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(msg.into()))
}

impl CampaignSpec {
    /// Parse a spec from TOML-subset or JSON text (auto-detected).
    pub fn parse_str(text: &str) -> Result<CampaignSpec, SpecError> {
        let tree = Value::parse_auto(text).map_err(|e| SpecError(e.to_string()))?;
        Self::from_value(&tree)
    }

    /// Build and validate a spec from a parsed value tree.
    pub fn from_value(tree: &Value) -> Result<CampaignSpec, SpecError> {
        let name = match tree.get("name") {
            Some(v) => v
                .as_str()
                .map(str::to_string)
                .ok_or(SpecError("`name` must be a string".into()))?,
            None => "campaign".to_string(),
        };
        let seeds = match tree.get("seeds") {
            Some(v) => int_axis(v, "seeds")?,
            None => vec![1],
        };
        let workloads = parse_workloads(tree.get("workloads"))?;

        let machine = tree.get("machine");
        let sweep = tree.get("sweep");
        let overlay = tree.get("overlay");
        for (section, allowed) in [
            (machine, MACHINE_KEYS.as_slice()),
            (sweep, SWEEP_KEYS.as_slice()),
            (overlay, OVERLAY_KEYS.as_slice()),
        ] {
            check_keys(section, allowed)?;
        }
        if let Some(t) = tree.as_table() {
            for k in t.keys() {
                if !matches!(
                    k.as_str(),
                    "name" | "seeds" | "workloads" | "machine" | "sweep" | "overlay"
                ) {
                    return fail(format!("unknown top-level key {k:?}"));
                }
            }
        } else {
            return fail("spec root must be a table");
        }

        let spec = CampaignSpec {
            name,
            seeds,
            workloads,
            machine: MachineAxes {
                groups: usize_axis_or(machine, "groups", 74)?,
                switches_per_group: usize_axis_or(machine, "switches_per_group", 32)?,
                endpoints_per_switch: usize_axis_or(machine, "endpoints_per_switch", 16)?,
                nics_per_node: usize_axis_or(machine, "nics_per_node", 4)?,
                io_groups: usize_axis_or(machine, "io_groups", 5)?,
            },
            sweep: SweepAxes {
                link_rate_gbit: num_axis_or(sweep, "link_rate_gbit", 200.0)?,
                protocol_efficiency: num_axis_or(sweep, "protocol_efficiency", 0.70)?,
                bundles_per_group_pair: usize_axis_or(sweep, "bundles_per_group_pair", 2)?,
                bundles_per_io_pair: usize_axis_or(sweep, "bundles_per_io_pair", 1)?,
            },
            overlay: OverlayAxes {
                fit_scale: num_axis_or(overlay, "fit_scale", 1.0)?,
                nvme_per_node: u64_axis_or(overlay, "nvme_per_node", 2)?,
                power_scale: num_axis_or(overlay, "power_scale", 1.0)?,
            },
        };
        spec.validate()?;
        Ok(spec)
    }

    fn validate(&self) -> Result<(), SpecError> {
        if self.seeds.is_empty() {
            return fail("`seeds` must not be empty");
        }
        for g in &self.machine.groups {
            if *g < 2 {
                return fail("`groups` values must be at least 2");
            }
        }
        for io in &self.machine.io_groups {
            if *io < 1 {
                return fail("`io_groups` values must be at least 1");
            }
        }
        for axis in [
            &self.machine.switches_per_group,
            &self.machine.endpoints_per_switch,
            &self.machine.nics_per_node,
            &self.sweep.bundles_per_group_pair,
            &self.sweep.bundles_per_io_pair,
        ] {
            for v in axis {
                if *v < 1 {
                    return fail("structural and bundle counts must be at least 1");
                }
            }
        }
        // Every count grows with every axis, so the largest shape decides.
        let [g, spg, eps, io] = [
            &self.machine.groups,
            &self.machine.switches_per_group,
            &self.machine.endpoints_per_switch,
            &self.machine.io_groups,
        ]
        .map(|axis| axis.iter().copied().max().unwrap_or(0));
        let counts = machine_size(g, spg, eps, io).into_iter();
        for ((what, n), f) in ["endpoints", "switches", "links"]
            .into_iter()
            .zip(counts)
            .zip(machine_size(74, 32, 16, 5))
        {
            let ceiling = f * MAX_FRONTIER_MULTIPLE;
            if n > ceiling {
                return fail(format!(
                    "a machine of {g} groups x {spg} switches x {eps} endpoints with {io} I/O \
                     groups has {n} {what}, above the ceiling of {ceiling} \
                     ({MAX_FRONTIER_MULTIPLE}x Frontier's {f})"
                ));
            }
        }
        for (spg, eps, nics) in itertools3(
            &self.machine.switches_per_group,
            &self.machine.endpoints_per_switch,
            &self.machine.nics_per_node,
        ) {
            if (spg * eps) % nics != 0 {
                return fail(format!(
                    "endpoints per group ({spg}×{eps}) not divisible by nics_per_node {nics}"
                ));
            }
        }
        // NaN fails every one of these range checks (not merely the
        // comparison), so non-finite spec values are rejected loudly.
        for r in &self.sweep.link_rate_gbit {
            if !r.is_finite() || *r <= 0.0 {
                return fail("`link_rate_gbit` values must be positive");
            }
        }
        for e in &self.sweep.protocol_efficiency {
            if !e.is_finite() || *e <= 0.0 || *e > 1.0 {
                return fail("`protocol_efficiency` values must be in (0, 1]");
            }
        }
        for f in &self.overlay.fit_scale {
            if !f.is_finite() || *f <= 0.0 {
                return fail("`fit_scale` values must be positive");
            }
        }
        for p in &self.overlay.power_scale {
            if !p.is_finite() || *p <= 0.0 {
                return fail("`power_scale` values must be positive");
            }
        }
        if self.overlay.nvme_per_node.contains(&0) {
            return fail("`nvme_per_node` values must be at least 1");
        }
        Ok(())
    }

    /// The total variant count of the cross-product.
    pub fn variant_count(&self) -> usize {
        self.shape_count() * self.seeds.len() * self.capacity_count() * self.overlay_count()
    }

    pub fn shape_count(&self) -> usize {
        self.machine.groups.len()
            * self.machine.switches_per_group.len()
            * self.machine.endpoints_per_switch.len()
            * self.machine.nics_per_node.len()
            * self.machine.io_groups.len()
    }

    pub fn capacity_count(&self) -> usize {
        self.sweep.link_rate_gbit.len()
            * self.sweep.protocol_efficiency.len()
            * self.sweep.bundles_per_group_pair.len()
            * self.sweep.bundles_per_io_pair.len()
    }

    pub fn overlay_count(&self) -> usize {
        self.overlay.fit_scale.len()
            * self.overlay.nvme_per_node.len()
            * self.overlay.power_scale.len()
    }

    pub fn has_workload(&self, w: Workload) -> bool {
        self.workloads.contains(&w)
    }
}

/// The largest machine a spec may describe, as a multiple of Frontier's
/// endpoints, switches and links (37,888, 2,368 and 155,326). Past it a
/// build needs gigabytes (the global-pipe table grows with `groups`²) and
/// the failed allocation aborts the process, so validation sizes first.
const MAX_FRONTIER_MULTIPLE: u64 = 8;

/// `[endpoints, switches, directed links]` that `Dragonfly::build` wires:
/// two links per endpoint, and a duplex link per in-group switch pair, per
/// group pair and per compute-to-I/O group pair. Saturating, so an absurd
/// shape still compares above the ceiling.
fn machine_size(groups: usize, spg: usize, eps: usize, io: usize) -> [u64; 3] {
    let [g, spg, eps, io] = [groups, spg, eps, io].map(|v| v as u64);
    let switches = g.saturating_mul(spg);
    let endpoints = switches.saturating_mul(eps);
    let links = [
        endpoints.saturating_mul(2),
        switches.saturating_mul(spg - 1),
        g.saturating_mul(g - 1),
        g.saturating_mul(io).saturating_mul(2),
    ]
    .into_iter()
    .fold(0, u64::saturating_add);
    [endpoints, switches, links]
}

const MACHINE_KEYS: [&str; 5] = [
    "groups",
    "switches_per_group",
    "endpoints_per_switch",
    "nics_per_node",
    "io_groups",
];
const SWEEP_KEYS: [&str; 4] = [
    "link_rate_gbit",
    "protocol_efficiency",
    "bundles_per_group_pair",
    "bundles_per_io_pair",
];
const OVERLAY_KEYS: [&str; 3] = ["fit_scale", "nvme_per_node", "power_scale"];

fn check_keys(section: Option<&Value>, allowed: &[&str]) -> Result<(), SpecError> {
    let Some(v) = section else { return Ok(()) };
    let Some(t) = v.as_table() else {
        return fail("spec sections must be tables");
    };
    for k in t.keys() {
        if !allowed.contains(&k.as_str()) {
            return fail(format!("unknown axis {k:?} (expected one of {allowed:?})"));
        }
    }
    Ok(())
}

fn parse_workloads(v: Option<&Value>) -> Result<Vec<Workload>, SpecError> {
    let Some(v) = v else {
        return Ok(vec![Workload::MpiGraph, Workload::Hpl, Workload::Mtti]);
    };
    let Some(arr) = v.as_arr() else {
        return fail("`workloads` must be an array of strings");
    };
    let mut out = Vec::new();
    for item in arr {
        let Some(s) = item.as_str() else {
            return fail("`workloads` must be an array of strings");
        };
        let w = match s {
            "mpigraph" | "fig6" => Workload::MpiGraph,
            "gpcnet" => Workload::Gpcnet,
            "hpl" | "fom" => Workload::Hpl,
            "mtti" => Workload::Mtti,
            other => return fail(format!("unknown workload {other:?}")),
        };
        if out.contains(&w) {
            return fail(format!("workload {s:?} listed twice"));
        }
        out.push(w);
    }
    if out.is_empty() {
        return fail("`workloads` must not be empty");
    }
    Ok(out)
}

/// An axis as a list of numbers; rejects duplicates — a repeated grid
/// value silently doubles the variant count, which is never intended.
fn num_axis(v: &Value, name: &str) -> Result<Vec<f64>, SpecError> {
    let items: Vec<&Value> = match v {
        Value::Arr(a) => a.iter().collect(),
        scalar => vec![scalar],
    };
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let Some(n) = item.as_num() else {
            return fail(format!("axis {name:?} must hold numbers"));
        };
        if out.iter().any(|&p: &f64| p.to_bits() == n.to_bits()) {
            return fail(format!("axis {name:?} lists {n} twice"));
        }
        out.push(n);
    }
    if out.is_empty() {
        return fail(format!("axis {name:?} must not be empty"));
    }
    Ok(out)
}

fn num_axis_or(section: Option<&Value>, name: &str, default: f64) -> Result<Vec<f64>, SpecError> {
    match section.and_then(|s| s.get(name)) {
        Some(v) => num_axis(v, name),
        None => Ok(vec![default]),
    }
}

fn int_axis(v: &Value, name: &str) -> Result<Vec<u64>, SpecError> {
    let nums = num_axis(v, name)?;
    nums.into_iter()
        .map(|n| {
            if n >= 0.0 && n.fract() == 0.0 && n <= u64::MAX as f64 {
                Ok(n as u64)
            } else {
                fail(format!("axis {name:?} must hold non-negative integers"))
            }
        })
        .collect()
}

fn u64_axis_or(section: Option<&Value>, name: &str, default: u64) -> Result<Vec<u64>, SpecError> {
    match section.and_then(|s| s.get(name)) {
        Some(v) => int_axis(v, name),
        None => Ok(vec![default]),
    }
}

fn usize_axis_or(
    section: Option<&Value>,
    name: &str,
    default: usize,
) -> Result<Vec<usize>, SpecError> {
    Ok(u64_axis_or(section, name, default as u64)?
        .into_iter()
        .map(|v| v as usize)
        .collect())
}

fn itertools3<'a, A: Copy, B: Copy, C: Copy>(
    a: &'a [A],
    b: &'a [B],
    c: &'a [C],
) -> impl Iterator<Item = (A, B, C)> + 'a {
    a.iter().flat_map(move |&x| {
        b.iter()
            .flat_map(move |&y| c.iter().map(move |&z| (x, y, z)))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_frontier_single_points() {
        let s = CampaignSpec::parse_str("name = \"d\"").unwrap();
        assert_eq!(s.machine.groups, vec![74]);
        assert_eq!(s.sweep.link_rate_gbit, vec![200.0]);
        assert_eq!(s.overlay.nvme_per_node, vec![2]);
        assert_eq!(s.seeds, vec![1]);
        assert_eq!(s.variant_count(), 1);
        assert!(s.has_workload(Workload::MpiGraph));
        assert!(s.has_workload(Workload::Hpl));
        assert!(s.has_workload(Workload::Mtti));
        assert!(!s.has_workload(Workload::Gpcnet));
    }

    #[test]
    fn cross_product_counts_multiply() {
        let s = CampaignSpec::parse_str(
            r#"
            seeds = [1, 2]
            [machine]
            groups = [16, 74]
            [sweep]
            link_rate_gbit = [150.0, 200.0, 250.0]
            bundles_per_group_pair = [1, 2]
            [overlay]
            fit_scale = [0.5, 1.0, 2.0]
            "#,
        )
        .unwrap();
        assert_eq!(s.shape_count(), 2);
        assert_eq!(s.capacity_count(), 6);
        assert_eq!(s.overlay_count(), 3);
        assert_eq!(s.variant_count(), 2 * 2 * 6 * 3);
    }

    #[test]
    fn json_spelling_parses_identically() {
        let toml = CampaignSpec::parse_str("seeds = [3]\n[sweep]\nlink_rate_gbit = [100.0, 200.0]")
            .unwrap();
        let json = CampaignSpec::parse_str(
            r#"{"seeds": [3], "sweep": {"link_rate_gbit": [100.0, 200.0]}}"#,
        )
        .unwrap();
        assert_eq!(toml, json);
    }

    #[test]
    fn loud_rejections() {
        // Unknown axis names, duplicate values, bad shapes: all errors.
        assert!(CampaignSpec::parse_str("[sweep]\nlink_rate = [1.0]").is_err());
        assert!(CampaignSpec::parse_str("[sweep]\nlink_rate_gbit = [200.0, 200.0]").is_err());
        assert!(CampaignSpec::parse_str("[machine]\ngroups = [1]").is_err());
        assert!(CampaignSpec::parse_str("[machine]\nnics_per_node = [7]").is_err());
        assert!(CampaignSpec::parse_str("workloads = [\"quantum\"]").is_err());
        assert!(CampaignSpec::parse_str("bogus_key = 1").is_err());
        assert!(CampaignSpec::parse_str("[overlay]\nfit_scale = [-1.0]").is_err());
        assert!(CampaignSpec::parse_str("[sweep]\nprotocol_efficiency = [1.5]").is_err());
    }

    /// The sizes the ceiling checks are those of the built topology, an
    /// absurd shape saturates, and Frontier's own grid passes.
    #[test]
    fn machine_size_counts_the_built_dragonfly() {
        use frontier_core::fabric::dragonfly::{Dragonfly, DragonflyParams};
        for (groups, spg, eps, io) in [(2, 1, 1, 1), (8, 4, 4, 5), (16, 8, 8, 2)] {
            let df = Dragonfly::build(DragonflyParams {
                groups,
                switches_per_group: spg,
                endpoints_per_switch: eps,
                io_groups: io,
                ..DragonflyParams::frontier()
            });
            let t = df.topology();
            let built = [t.num_endpoints(), t.num_switches(), t.num_links()].map(u64::from);
            assert_eq!(machine_size(groups, spg, eps, io), built);
        }
        assert_eq!(machine_size(74, 32, 16, 5), [37_888, 2_368, 155_326]);
        assert_eq!(machine_size(usize::MAX, 2, 2, 1), [u64::MAX; 3]);
        assert!(CampaignSpec::parse_str(include_str!("../tests/data/reference.toml")).is_ok());
    }

    #[test]
    fn scalar_axis_values_are_accepted() {
        // A bare scalar is a one-point axis: `groups = 16` ≡ `groups = [16]`.
        let s = CampaignSpec::parse_str("[machine]\ngroups = 16").unwrap();
        assert_eq!(s.machine.groups, vec![16]);
    }
}
