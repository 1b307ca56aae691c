//! Process-wide caches of the expensive, immutable model inputs.
//!
//! `repro -- all` used to rebuild the full 9,472-node dragonfly (and the
//! Summit fat-tree, and the machine model) for every section that needed
//! it — seconds of identical graph construction per section. Topologies
//! are immutable after `build`, so every experiment and Criterion bench
//! can share one instance behind an `Arc`. Keys are the complete
//! parameter sets (floats compared by bit pattern), so two sections only
//! share a topology when they would have built byte-identical ones.
//!
//! Each key maps to its own `OnceLock` cell: concurrent sections asking
//! for the *same* topology block until the single build finishes, while
//! builds of *different* topologies (e.g. the taper ablation's three
//! bundle variants) proceed in parallel.
//!
//! # Capacity bound
//!
//! Every family is a bounded LRU of [`FAMILY_CAPACITY`] entries: a
//! thousand-variant campaign sweep streams hundreds of distinct machines
//! through these registries, and retaining every `Arc`-built full-scale
//! topology forever would hold gigabytes hostage. When a family
//! overflows, the least-recently-used entry is dropped from the registry
//! (outstanding `Arc` holders keep their instance alive until they let
//! go). Eviction order is deterministic — the access tick is a per-family
//! counter, not a clock. The `bench.cache.{family}.size` max-gauge tracks
//! the high-water entry count, and [`purge`] drops everything eagerly for
//! callers (campaign runs) that want a hard scope boundary.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use frontier_core::apps::machine::MachineModel;
use frontier_core::fabric::dragonfly::{Dragonfly, DragonflyParams};
use frontier_core::fabric::fattree::{FatTree, FatTreeParams};
use frontier_core::sim_core::metrics;

/// Maximum entries per cache family. Large enough that the repro pipeline
/// (a handful of distinct topologies) never evicts; small enough that a
/// campaign sweeping hundreds of full-machine variants cannot hold more
/// than this many built graphs at once through the cache.
pub const FAMILY_CAPACITY: usize = 64;

/// One cache entry: the build cell plus its last-access tick.
struct Entry<V> {
    cell: Arc<OnceLock<Arc<V>>>,
    last_used: u64,
}

/// A bounded-LRU registry: one cell per key, a monotone access tick per
/// touch, evict-min-tick on overflow. Waiters on the same key block
/// behind the single build without holding the registry lock.
struct Lru<K, V> {
    map: BTreeMap<K, Entry<V>>,
    tick: u64,
}

impl<K, V> Default for Lru<K, V> {
    fn default() -> Self {
        Lru {
            map: BTreeMap::new(),
            tick: 0,
        }
    }
}

type Registry<K, V> = Mutex<Lru<K, V>>;

/// Get-or-build `key`'s value in `registry`, evicting the
/// least-recently-used entry beyond `capacity`. `family` names the
/// telemetry counters: every call counts as a `requests`, each build
/// counts as a `built` — so hits are `requests - built`. (Classifying the
/// *calling* thread as hit or miss would be racy: under `OnceLock`,
/// several concurrent first callers all observe "miss".) An eviction
/// counts as `evicted`, and the `size` max-gauge records the high-water
/// entry count.
///
/// `requests` is attributed to the caller's scope via
/// [`metrics::active`] — each scope deterministically requests what it
/// requests. `built`/`evicted`/`size` go through [`metrics::shared`]
/// instead: the registries are process-wide, so *which* concurrent scope
/// triggers a build or eviction is a thread-scheduling race, and charging
/// it to a scope would make per-scope snapshots nondeterministic.
fn cached_with_capacity<K, V>(
    registry: &Registry<K, V>,
    family: &str,
    key: K,
    capacity: usize,
    build: impl FnOnce() -> V,
) -> Arc<V>
where
    K: Ord + Clone,
{
    assert!(capacity > 0, "cache family must hold at least one entry");
    if let Some(m) = metrics::active() {
        m.counter(&format!("bench.cache.{family}.requests")).inc();
    }
    let cell = {
        #[expect(
            clippy::expect_used,
            reason = "poisoned = a topology build already panicked; every later section would see a half-built cache"
        )]
        let mut reg = registry.lock().expect("cache poisoned");
        reg.tick += 1;
        let tick = reg.tick;
        let entry = reg.map.entry(key).or_insert_with(|| Entry {
            cell: Arc::default(),
            last_used: tick,
        });
        entry.last_used = tick;
        let cell = Arc::clone(&entry.cell);
        if reg.map.len() > capacity {
            // Evict the stalest entry. Ticks are unique, so the minimum is
            // well-defined; the just-touched entry holds the maximum tick
            // and cannot be it.
            if let Some(stale) = reg
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                reg.map.remove(&stale);
                if let Some(m) = metrics::shared() {
                    m.counter(&format!("bench.cache.{family}.evicted")).inc();
                }
            }
        }
        if let Some(m) = metrics::shared() {
            m.max_gauge(&format!("bench.cache.{family}.size"))
                .observe(reg.map.len() as f64);
        }
        cell
    };
    // The registry lock is dropped before building: only waiters on this
    // exact key serialize behind the build.
    Arc::clone(cell.get_or_init(|| {
        if let Some(m) = metrics::shared() {
            m.counter(&format!("bench.cache.{family}.built")).inc();
        }
        Arc::new(build())
    }))
}

fn cached<K, V>(
    registry: &Registry<K, V>,
    family: &str,
    key: K,
    build: impl FnOnce() -> V,
) -> Arc<V>
where
    K: Ord + Clone,
{
    cached_with_capacity(registry, family, key, FAMILY_CAPACITY, build)
}

/// A `DragonflyParams` fingerprint: every field, floats by bit pattern.
type DfKey = (usize, usize, usize, usize, u64, u64, usize, usize, usize);

fn df_key(p: &DragonflyParams) -> DfKey {
    (
        p.groups,
        p.switches_per_group,
        p.endpoints_per_switch,
        p.nics_per_node,
        p.link_rate.as_bytes_per_sec().to_bits(),
        p.protocol_efficiency.to_bits(),
        p.bundles_per_group_pair,
        p.io_groups,
        p.bundles_per_io_pair,
    )
}

/// A `FatTreeParams` fingerprint.
type FtKey = (usize, usize, u64, u64, u64);

fn ft_key(p: &FatTreeParams) -> FtKey {
    (
        p.edge_switches,
        p.endpoints_per_edge,
        p.link_rate.as_bytes_per_sec().to_bits(),
        p.protocol_efficiency.to_bits(),
        p.uplink_ratio.to_bits(),
    )
}

static DRAGONFLY: OnceLock<Registry<DfKey, Dragonfly>> = OnceLock::new();
static FATTREE: OnceLock<Registry<FtKey, FatTree>> = OnceLock::new();

/// The shared dragonfly built from `params`.
pub fn dragonfly(params: DragonflyParams) -> Arc<Dragonfly> {
    let registry = DRAGONFLY.get_or_init(Mutex::default);
    cached(registry, "dragonfly", df_key(&params), || {
        Dragonfly::build(params)
    })
}

/// The shared fat-tree built from `params`.
pub fn fattree(params: FatTreeParams) -> Arc<FatTree> {
    let registry = FATTREE.get_or_init(Mutex::default);
    cached(registry, "fattree", ft_key(&params), || {
        FatTree::build(params)
    })
}

/// Drop every cached topology now — the explicit per-campaign scope drop.
/// Outstanding `Arc` holders keep their instances; the registries simply
/// forget them, so the next request rebuilds.
pub fn purge() {
    if let Some(reg) = DRAGONFLY.get() {
        #[expect(
            clippy::expect_used,
            reason = "poisoned = a topology build already panicked; see `cached_with_capacity`"
        )]
        reg.lock().expect("cache poisoned").map.clear();
    }
    if let Some(reg) = FATTREE.get() {
        #[expect(
            clippy::expect_used,
            reason = "poisoned = a topology build already panicked; see `cached_with_capacity`"
        )]
        reg.lock().expect("cache poisoned").map.clear();
    }
}

/// The shared Frontier machine model (Tables 6 and 7 both score every
/// application against it). A single fixed value — bounded by definition,
/// so it lives outside the LRU machinery.
pub fn frontier_machine() -> Arc<MachineModel> {
    static CACHE: OnceLock<Arc<MachineModel>> = OnceLock::new();
    if let Some(m) = metrics::active() {
        m.counter("bench.cache.machine.requests").inc();
    }
    Arc::clone(CACHE.get_or_init(|| {
        if let Some(m) = metrics::shared() {
            m.counter("bench.cache.machine.built").inc();
        }
        Arc::new(MachineModel::frontier())
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    // One sequential test for everything touching the process-global
    // registries: `purge()` clears them all, so interleaving it with
    // other global-registry tests under the parallel test runner would
    // make the `ptr_eq` assertions racy.
    #[test]
    fn global_registries_share_dedupe_and_purge() {
        // Same params share one instance.
        let a = dragonfly(DragonflyParams::scaled(4, 4, 2));
        let b = dragonfly(DragonflyParams::scaled(4, 4, 2));
        assert!(Arc::ptr_eq(&a, &b));

        // Different params get different instances.
        let mut p = DragonflyParams::scaled(4, 4, 2);
        p.protocol_efficiency += 0.01;
        let c = dragonfly(p.clone());
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(c.params(), &p);

        // The fat-tree and machine families cache too.
        let f = fattree(FatTreeParams::scaled(4, 4));
        assert!(Arc::ptr_eq(&f, &fattree(FatTreeParams::scaled(4, 4))));
        assert!(Arc::ptr_eq(&frontier_machine(), &frontier_machine()));

        // Purge forgets every cached topology; the next request rebuilds.
        purge();
        let after = dragonfly(DragonflyParams::scaled(4, 4, 2));
        assert!(
            !Arc::ptr_eq(&a, &after),
            "purge must force a rebuild on the next request"
        );
    }

    #[test]
    fn lru_evicts_the_stalest_entry_at_capacity() {
        // A private registry with capacity 2, exercised directly.
        let reg: Registry<u32, u32> = Mutex::default();
        let a0 = cached_with_capacity(&reg, "test", 0, 2, || 100);
        let _ = cached_with_capacity(&reg, "test", 1, 2, || 101);
        // Touch key 0 so key 1 is now the LRU entry.
        let a0_again = cached_with_capacity(&reg, "test", 0, 2, || 999);
        assert!(Arc::ptr_eq(&a0, &a0_again), "hit must not rebuild");
        // Key 2 overflows the registry: key 1 is evicted, key 0 survives.
        let _ = cached_with_capacity(&reg, "test", 2, 2, || 102);
        assert_eq!(reg.lock().unwrap().map.len(), 2);
        assert!(reg.lock().unwrap().map.contains_key(&0));
        assert!(!reg.lock().unwrap().map.contains_key(&1));
        // A re-request of the evicted key rebuilds a fresh instance.
        let rebuilt = cached_with_capacity(&reg, "test", 1, 2, || 201);
        assert_eq!(*rebuilt, 201);
    }
}
