//! MPI collective algorithms executed on the message-level DES.
//!
//! The paper's workloads lean on three collectives: GESTS' all-to-all
//! transposes, GPCNeT's multiple-allreduce, and the broadcast congestors.
//! This module implements the classic algorithms — recursive-doubling and
//! ring allreduce, pairwise-exchange all-to-all, binomial broadcast — as
//! synchronized rounds of [`crate::des`] messages over routed dragonfly
//! paths, so algorithm choice, message size, and placement all interact
//! with the topology the way they do on the real machine.

use crate::des::{makespan, DesConfig, MessageBatch, PathSpan};
use crate::dragonfly::Dragonfly;
use crate::routing::{RoutePolicy, Router};
use crate::topology::EndpointId;
use frontier_sim_core::prelude::*;
use std::cell::RefCell;

/// Interned routed paths, keyed by (src, dst) endpoint pair. The value is
/// a span into the shared [`MessageBatch`] path pool, which outlives
/// `clear()` — so each pair is routed and copied into the pool exactly
/// once across all rounds of a collective.
#[expect(
    clippy::disallowed_types,
    reason = "keyed lookups only, never iterated, on the des-allreduce hot path"
)]
type PathCache = std::collections::HashMap<(EndpointId, EndpointId), PathSpan>;

/// Allreduce algorithm choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllreduceAlgo {
    /// log2(p) rounds of pairwise exchange of the full buffer:
    /// latency-optimal, bandwidth cost `log2(p) * size`.
    RecursiveDoubling,
    /// reduce-scatter + allgather over a ring: 2(p-1) rounds of `size/p`:
    /// bandwidth-optimal, latency cost `2(p-1) * alpha`.
    Ring,
}

/// A collective execution context: a set of ranks (endpoints) on a
/// dragonfly with a routing policy.
pub struct Collectives<'a> {
    df: &'a Dragonfly,
    router: Router<'a>,
    cfg: DesConfig,
    ranks: Vec<EndpointId>,
    seed: u64,
    /// Routed-path cache: collectives re-send over the same (src, dst)
    /// pairs round after round (a ring allreduce revisits each neighbor
    /// pair 2(p-1) times), so each pair routes once and every message
    /// over it reuses the interned [`PathSpan`] instead of cloning the
    /// path per injected message.
    paths: RefCell<PathCache>,
    /// Reusable SoA message arena: cleared (messages only — the interned
    /// path pool survives) and refilled each round, so steady-state rounds
    /// allocate nothing.
    batch: RefCell<MessageBatch>,
    /// Run each round on the domain-parallel DES engine
    /// ([`crate::pdes::simulate_parallel`]) instead of the serial core.
    /// Results are byte-identical either way; only wall-clock changes.
    parallel: bool,
}

impl<'a> Collectives<'a> {
    pub fn new(df: &'a Dragonfly, ranks: Vec<EndpointId>, policy: RoutePolicy, seed: u64) -> Self {
        assert!(ranks.len() >= 2, "collective needs at least two ranks");
        Collectives {
            df,
            router: Router::new(df, policy),
            cfg: DesConfig::default(),
            ranks,
            seed,
            paths: RefCell::new(PathCache::new()),
            batch: RefCell::new(MessageBatch::new()),
            parallel: false,
        }
    }

    /// Switch round simulation to the domain-parallel engine. The
    /// parallel engine also returns the round makespan directly (max over
    /// per-domain makespans), skipping the per-delivery re-scan.
    pub fn with_parallel_des(mut self) -> Self {
        self.parallel = true;
        self
    }

    /// Run one synchronized round of (src_rank, dst_rank, size) exchanges
    /// and return the round's completion time.
    fn round(&self, pairs: &[(usize, usize, Bytes)], rng: &mut StreamRng) -> SimTime {
        let mut paths = self.paths.borrow_mut();
        let mut batch = self.batch.borrow_mut();
        batch.clear();
        for &(s, d, size) in pairs {
            if self.ranks[s] == self.ranks[d] {
                continue;
            }
            let (src, dst) = (self.ranks[s], self.ranks[d]);
            let span = *paths
                .entry((src, dst))
                .or_insert_with(|| batch.intern(&self.router.route(src, dst, rng)));
            batch.push(span, size, SimTime::ZERO, s as u64);
        }
        if batch.is_empty() {
            return SimTime::ZERO;
        }
        if self.parallel {
            crate::pdes::simulate_parallel(self.df.topology(), &self.cfg, &batch).makespan
        } else {
            makespan(self.df.topology(), &self.cfg, &batch)
        }
    }

    /// Allreduce of `size` bytes across all ranks.
    pub fn allreduce(&self, size: Bytes, algo: AllreduceAlgo) -> SimTime {
        let p = self.ranks.len();
        let mut rng = StreamRng::for_component(self.seed, "allreduce", 0);
        let mut total = SimTime::ZERO;
        match algo {
            AllreduceAlgo::RecursiveDoubling => {
                // For non-power-of-two p, the standard trick folds the
                // excess ranks in one extra pre/post round each.
                let p2 = p.next_power_of_two() >> usize::from(!p.is_power_of_two());
                let excess = p - p2;
                if excess > 0 {
                    let pre: Vec<(usize, usize, Bytes)> =
                        (0..excess).map(|i| (p2 + i, i, size)).collect();
                    total += self.round(&pre, &mut rng);
                }
                let mut dist = 1usize;
                while dist < p2 {
                    let pairs: Vec<(usize, usize, Bytes)> =
                        (0..p2).map(|r| (r, r ^ dist, size)).collect();
                    total += self.round(&pairs, &mut rng);
                    dist <<= 1;
                }
                if excess > 0 {
                    let post: Vec<(usize, usize, Bytes)> =
                        (0..excess).map(|i| (i, p2 + i, size)).collect();
                    total += self.round(&post, &mut rng);
                }
            }
            AllreduceAlgo::Ring => {
                // 2(p-1) neighbor rounds of size/p chunks.
                let chunk = Bytes::new((size.as_u64() / p as u64).max(1));
                for _ in 0..(2 * (p - 1)) {
                    let pairs: Vec<(usize, usize, Bytes)> =
                        (0..p).map(|r| (r, (r + 1) % p, chunk)).collect();
                    total += self.round(&pairs, &mut rng);
                }
            }
        }
        total
    }

    /// Pairwise-exchange all-to-all: p-1 rounds, round k sends `size` from
    /// rank r to rank r XOR k (power-of-two) or (r+k) mod p.
    pub fn all_to_all(&self, size_per_peer: Bytes) -> SimTime {
        let p = self.ranks.len();
        let mut rng = StreamRng::for_component(self.seed, "alltoall", 0);
        let mut total = SimTime::ZERO;
        for k in 1..p {
            let pairs: Vec<(usize, usize, Bytes)> =
                (0..p).map(|r| (r, (r + k) % p, size_per_peer)).collect();
            total += self.round(&pairs, &mut rng);
        }
        total
    }

    /// Binomial-tree broadcast from rank 0.
    pub fn broadcast(&self, size: Bytes) -> SimTime {
        let p = self.ranks.len();
        let mut rng = StreamRng::for_component(self.seed, "bcast", 0);
        let mut total = SimTime::ZERO;
        let mut have = 1usize; // ranks 0..have hold the data
        while have < p {
            let senders = have.min(p - have);
            let pairs: Vec<(usize, usize, Bytes)> =
                (0..senders).map(|s| (s, have + s, size)).collect();
            total += self.round(&pairs, &mut rng);
            have += senders;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dragonfly::DragonflyParams;

    fn df() -> Dragonfly {
        Dragonfly::build(DragonflyParams::scaled(4, 4, 4))
    }

    fn ranks(_df: &Dragonfly, n: usize) -> Vec<EndpointId> {
        // Spread over nodes: one rank per NIC.
        (0..n).map(|i| EndpointId(i as u32)).collect()
    }

    #[test]
    fn allreduce_crossover() {
        // Small messages: recursive doubling (fewer rounds) wins.
        // Large messages: ring (bandwidth-optimal) wins.
        let df = df();
        let c = Collectives::new(&df, ranks(&df, 16), RoutePolicy::Minimal, 1);
        let small_rd = c.allreduce(Bytes::new(8), AllreduceAlgo::RecursiveDoubling);
        let small_ring = c.allreduce(Bytes::new(8), AllreduceAlgo::Ring);
        assert!(small_rd < small_ring, "{small_rd} vs {small_ring}");
        let big_rd = c.allreduce(Bytes::mib(64), AllreduceAlgo::RecursiveDoubling);
        let big_ring = c.allreduce(Bytes::mib(64), AllreduceAlgo::Ring);
        assert!(big_ring < big_rd, "{big_ring} vs {big_rd}");
    }

    #[test]
    fn allreduce_scales_logarithmically_for_small_messages() {
        let df = df();
        let t8 = Collectives::new(&df, ranks(&df, 8), RoutePolicy::Minimal, 1)
            .allreduce(Bytes::new(8), AllreduceAlgo::RecursiveDoubling);
        let t16 = Collectives::new(&df, ranks(&df, 16), RoutePolicy::Minimal, 1)
            .allreduce(Bytes::new(8), AllreduceAlgo::RecursiveDoubling);
        let t32 = Collectives::new(&df, ranks(&df, 32), RoutePolicy::Minimal, 1)
            .allreduce(Bytes::new(8), AllreduceAlgo::RecursiveDoubling);
        // One extra round per doubling, roughly constant increments.
        let d1 = t16.as_micros_f64() - t8.as_micros_f64();
        let d2 = t32.as_micros_f64() - t16.as_micros_f64();
        assert!(d1 > 0.0 && d2 > 0.0);
        assert!((d1 - d2).abs() < 0.8 * d1.max(d2), "{d1} vs {d2}");
    }

    #[test]
    fn non_power_of_two_allreduce_works() {
        let df = df();
        let c = Collectives::new(&df, ranks(&df, 13), RoutePolicy::Minimal, 1);
        let t = c.allreduce(Bytes::kib(1), AllreduceAlgo::RecursiveDoubling);
        assert!(t > SimTime::ZERO);
        // Costs more than the 8-rank case (extra fold rounds).
        let t8 = Collectives::new(&df, ranks(&df, 8), RoutePolicy::Minimal, 1)
            .allreduce(Bytes::kib(1), AllreduceAlgo::RecursiveDoubling);
        assert!(t > t8);
    }

    #[test]
    fn all_to_all_grows_quadratically_in_total_bytes() {
        let df = df();
        let c8 = Collectives::new(&df, ranks(&df, 8), RoutePolicy::Minimal, 1);
        let c16 = Collectives::new(&df, ranks(&df, 16), RoutePolicy::Minimal, 1);
        let t8 = c8.all_to_all(Bytes::mib(1));
        let t16 = c16.all_to_all(Bytes::mib(1));
        // Twice the ranks -> ~2x the rounds and >= the per-round time.
        assert!(t16.as_secs_f64() > 1.8 * t8.as_secs_f64());
    }

    #[test]
    fn broadcast_is_logarithmic() {
        let df = df();
        let t4 =
            Collectives::new(&df, ranks(&df, 4), RoutePolicy::Minimal, 1).broadcast(Bytes::kib(64));
        let t16 = Collectives::new(&df, ranks(&df, 16), RoutePolicy::Minimal, 1)
            .broadcast(Bytes::kib(64));
        // 16 ranks needs only 2 more rounds than 4 ranks (log growth, far
        // from the 4x of a linear broadcast).
        assert!(t16 > t4);
        assert!(t16.as_secs_f64() < 3.5 * t4.as_secs_f64());
    }

    #[test]
    fn deterministic() {
        let df = df();
        let c = Collectives::new(&df, ranks(&df, 16), RoutePolicy::adaptive_default(), 9);
        let a = c.allreduce(Bytes::kib(8), AllreduceAlgo::Ring);
        let c2 = Collectives::new(&df, ranks(&df, 16), RoutePolicy::adaptive_default(), 9);
        let b = c2.allreduce(Bytes::kib(8), AllreduceAlgo::Ring);
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least two ranks")]
    fn single_rank_rejected() {
        let df = df();
        Collectives::new(&df, vec![EndpointId(0)], RoutePolicy::Minimal, 1);
    }
}
