//! Event-driven max-min solver (v3): bottleneck events, interference
//! components, and warm-start re-solves.
//!
//! A round-based solver walks the water level round by round, and every
//! round scans the whole contended-link list: O(rounds × links) for the
//! Fig. 6 mega-solve (979 rounds over 32 k links). This module replaces
//! the scan with *bottleneck events*:
//!
//! * Every link has a known water level at which it saturates,
//!   `avail / link_weight`; every demand-limited flow has a static level
//!   `demand / weight` at which it caps out. Both are *events*.
//! * A *private* link has one path entry, so one flow: it only caps that
//!   flow, at the static level `cap / weight`. Each flow gets one event
//!   for its lowest private link under the queue's `(level, link id)` key,
//!   found by walking the flow's private hops; its other private links
//!   could only pop after that one has frozen the flow, so they need no
//!   event. A popped private event whose flow is already frozen is
//!   skipped; otherwise it freezes the flow under the shared links'
//!   saturation test with `avail = cap` and `link_weight = weight`.
//!   Private links keep no per-link state. In the
//!   full-scale Fig. 6 flow set 102,084 of the 133,345 used links (76.6%)
//!   are private, and they hold 45.8% of the 223,037 hop entries.
//! * Demand events are a sorted array walked by a cursor (demands never
//!   change mid-solve). Link events live in an [`EventQueue`]: the initial
//!   shared events (one per shared link) and the private events (one per
//!   flow with a private link) are each sorted once and walked by a cursor
//!   too, and only re-keyed events go through a (small) binary heap. The
//!   queue pops them in one `(level, link id, stamp)` order. The solver
//!   jumps the global water
//!   level from event to event instead of re-deriving the minimum each
//!   round.
//! * Freezing a flow changes the saturation level of only the shared links
//!   on its path. Those links are *lazily* re-keyed: a per-link stamp is
//!   bumped on every update, and a popped entry whose stamp is stale is
//!   re-keyed and re-pushed. This is sound because freezing a flow can
//!   only **raise** the saturation level of the remaining links — for a
//!   link with `avail ≥ link_weight × level` (not yet saturated),
//!   `(avail − w·level) / (link_weight − w) ≥ avail / link_weight` — so a
//!   stale entry only ever under-estimates, and the queue minimum, once
//!   fresh, is the true next event.
//!
//! The output is bit-identical to queuing every private link as a link
//! event: nothing but its one flow re-keys a private link, so its event
//! pops at the same position, and every shared link sees its `lweight`
//! sums and `avail` subtractions in the same flow order.
//!
//! In front of the engine sits an **interference-component decomposition**:
//! union-find over flows that share a link ([`UnionFind`]). Flows in
//! different components cannot influence each other's rates (no shared
//! capacity), so each component solves independently — concurrently through
//! [`par`] when the workload is large — which is what finally gives the
//! Fig. 6 mega-solve a real `--jobs` speedup when the workload splits.
//! The decomposition also hands each component its ascending list of
//! shared links, the flows crossing each shared link by position in the
//! component, each flow's shared hops by position in that list, and each
//! flow's private hops by link id (two CSRs), so every hop reaches its
//! local state in O(1). Building it costs O(Σ|path| + L). A component
//! solve keeps per-link state for its shared links only: with `L_s`
//! shared links, `F` flows, `S` shared and `P` private hop entries and
//! `E` initial events (shared links plus flows) it holds O(L_s + F) state
//! and costs O(L_s + S + P + E log E + rekeys · log rekeys): each flow's
//! shared hops are walked once when its weights are summed and once when
//! it freezes, and its private hops once, to find its lowest. The round
//! solvers cost O(rounds × links).
//!
//! [`Solver`] adds **warm-start re-solves** on top: it caches the per-flow
//! rates of the last solve, and [`Solver::resolve_with`] re-solves only
//! the components touched by a delta (re-provisioned capacities, re-routed
//! flows, removed flows), copying every untouched component's rates
//! straight from the cache. It also keeps the decomposition: a delta that
//! moves no path (capacity changes only) leaves the flow index and the
//! components valid, so they are rebuilt only when a flow is re-routed or
//! withdrawn. The UGAL minimal-vs-adaptive comparison and the campaign
//! engine's capacity sweep both re-solve workloads that differ
//! from the previous solve in a handful of paths or capacities, which is
//! exactly this shape.
//!
//! Tolerance semantics are inherited from the round solvers: all events
//! within `REL_EPS` (relative) of the batch level freeze at the *same*
//! level, so the allocation matches [`crate::maxmin::solve_maxmin_reference`]
//! to 1e-9 (pinned by the parity proptests, cold and warm).

use crate::maxmin::{publish_solve_metrics, Allocation, REL_EPS};
use crate::topology::{Flow, LinkId, Topology, UnionFind};
use frontier_sim_core::units::Bandwidth;
use frontier_sim_core::{metrics, par};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// Minimum total flow count before a multi-component solve fans the
/// per-component solves out through [`par`]. Below this, serial solves
/// win: the fork/join overhead of a parallel map is on the order of
/// microseconds, which dwarfs a few thousand divide-and-compare
/// operations.
pub const COMPONENT_PAR_THRESHOLD: usize = 4096;

/// One-time CSR index of the flows crossing each *shared* link (a link
/// with more than one path entry). A private link's range is empty: its
/// one flow lists it among its private hops instead.
pub(crate) struct FlowIndex {
    /// CSR offsets, one per link plus one.
    pub off: Vec<u32>,
    /// Flow ids, grouped by link and ascending within a link. Once
    /// [`find_components`] has decomposed the flows, each id is the flow's
    /// position in its component's `members`.
    pub link_flows: Vec<u32>,
}

impl FlowIndex {
    /// Whether link `l` is shared.
    fn is_shared(&self, l: usize) -> bool {
        self.off[l + 1] > self.off[l]
    }
}

fn build_index(nl: usize, paths: &[&[LinkId]]) -> FlowIndex {
    // Count the path entries of each link, then keep only the counts of
    // shared links in the running offsets.
    let mut off = vec![0u32; nl + 1];
    for p in paths {
        for l in *p {
            off[l.0 as usize + 1] += 1;
        }
    }
    let mut total = 0;
    for o in &mut off[1..] {
        if *o > 1 {
            total += *o;
        }
        *o = total;
    }
    let mut idx = FlowIndex {
        link_flows: vec![0u32; total as usize],
        off,
    };
    let mut cursor: Vec<u32> = idx.off[..nl].to_vec();
    for (fi, p) in paths.iter().enumerate() {
        for l in *p {
            let li = l.0 as usize;
            if idx.is_shared(li) {
                idx.link_flows[cursor[li] as usize] = fi as u32;
                cursor[li] += 1;
            }
        }
    }
    idx
}

/// Interference components, the flow index they were derived from and
/// each flow's hops, split into shared and private. A flow or link belongs
/// to at most one component, so these are shared read-only by the
/// concurrent component solves. All of it depends only on the paths, so it
/// stays valid across capacity changes.
pub(crate) struct Components {
    /// The flows crossing each shared link, by position in their component.
    pub idx: FlowIndex,
    /// Member flow ids of each component, ascending; the components are
    /// ordered by their smallest member.
    pub members: Vec<Vec<u32>>,
    /// The shared links each component's members cross, ascending. A
    /// component solve keeps per-link state for these only.
    pub shared_links: Vec<Vec<u32>>,
    /// CSR offsets into `shared`, one per flow plus one.
    pub shared_off: Vec<u32>,
    /// Each flow's shared hops, in path order, as positions in its
    /// component's `shared_links`.
    pub shared: Vec<u32>,
    /// CSR offsets into `private`, one per flow plus one.
    pub private_off: Vec<u32>,
    /// Each flow's private hops (links it alone crosses), in path order,
    /// as link ids.
    pub private: Vec<u32>,
}

impl Components {
    /// The shared hops of flow `fi`, as positions in its component's
    /// `shared_links`.
    fn shared_hops(&self, fi: u32) -> &[u32] {
        let fi = fi as usize;
        &self.shared[self.shared_off[fi] as usize..self.shared_off[fi + 1] as usize]
    }

    /// The private hops of flow `fi`, as link ids.
    fn private_hops(&self, fi: u32) -> &[u32] {
        let fi = fi as usize;
        &self.private[self.private_off[fi] as usize..self.private_off[fi + 1] as usize]
    }
}

/// Interference components of `paths` over `nl` links: flows sharing any
/// link are unioned — a deterministic decomposition regardless of how the
/// solve later parallelizes. Flows with an empty path belong to no
/// component.
pub(crate) fn find_components(nl: usize, paths: &[&[LinkId]]) -> Components {
    let mut idx = build_index(nl, paths);
    let nf = paths.len();
    let mut uf = UnionFind::new(nf);
    for l in 0..nl {
        let s = idx.off[l] as usize;
        let e = idx.off[l + 1] as usize;
        for k in s + 1..e {
            uf.union(idx.link_flows[s], idx.link_flows[k]);
        }
    }
    let mut comp_of_root = vec![u32::MAX; nf];
    let mut members: Vec<Vec<u32>> = Vec::new();
    let mut flow_local = vec![u32::MAX; nf];
    for fi in 0..nf as u32 {
        if paths[fi as usize].is_empty() {
            continue;
        }
        let root = uf.find(fi) as usize;
        if comp_of_root[root] == u32::MAX {
            comp_of_root[root] = members.len() as u32;
            members.push(Vec::new());
        }
        let comp = &mut members[comp_of_root[root] as usize];
        flow_local[fi as usize] = comp.len() as u32;
        comp.push(fi);
    }
    // Walking the links in order leaves every shared-link list ascending;
    // a link joins the component of the first flow crossing it.
    let mut shared_links: Vec<Vec<u32>> = vec![Vec::new(); members.len()];
    let mut link_local = vec![u32::MAX; nl];
    for (l, local) in link_local.iter_mut().enumerate() {
        if !idx.is_shared(l) {
            continue;
        }
        let root = uf.find(idx.link_flows[idx.off[l] as usize]) as usize;
        let comp = &mut shared_links[comp_of_root[root] as usize];
        *local = comp.len() as u32;
        comp.push(l as u32);
    }
    let nhops: usize = paths.iter().map(|p| p.len()).sum();
    let mut shared = Vec::with_capacity(idx.link_flows.len());
    let mut private = Vec::with_capacity(nhops - idx.link_flows.len());
    let mut shared_off = Vec::with_capacity(nf + 1);
    let mut private_off = Vec::with_capacity(nf + 1);
    shared_off.push(0);
    private_off.push(0);
    for p in paths {
        for l in *p {
            let li = l.0 as usize;
            if idx.is_shared(li) {
                shared.push(link_local[li]);
            } else {
                private.push(l.0);
            }
        }
        shared_off.push(shared.len() as u32);
        private_off.push(private.len() as u32);
    }
    for fi in &mut idx.link_flows {
        *fi = flow_local[*fi as usize];
    }
    Components {
        idx,
        members,
        shared_links,
        shared_off,
        shared,
        private_off,
        private,
    }
}

/// A shared link's saturation event: "the link at position `link` in the
/// component's `shared_links` saturates when the water level reaches
/// `level`" — valid only while the link's stamp still equals `stamp` (lazy
/// invalidation).
#[derive(Clone, Copy)]
struct LinkEvent {
    level: f64,
    link: u32,
    stamp: u32,
}

impl Ord for LinkEvent {
    fn cmp(&self, other: &Self) -> Ordering {
        // total_cmp: levels are finite non-negative here, and the
        // link tie-break (positions order like link ids) keeps pop order
        // deterministic.
        self.level
            .total_cmp(&other.level)
            .then_with(|| self.link.cmp(&other.link))
            .then_with(|| self.stamp.cmp(&other.stamp))
    }
}
impl PartialOrd for LinkEvent {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl PartialEq for LinkEvent {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for LinkEvent {}

/// A flow's private-link event: "flow `flow` (component-local) is capped
/// at `level` by link `link`", the lowest of its private links under the
/// `(level, link id)` key. Static: nothing but its flow touches the link.
#[derive(Clone, Copy)]
struct PrivateEvent {
    level: f64,
    link: u32,
    flow: u32,
}

/// The next pending event of a component solve.
#[derive(Clone, Copy)]
enum Event {
    Shared(LinkEvent),
    Private(PrivateEvent),
}

/// The pending events of one component solve, in `(level, link id,
/// stamp)` order over shared and private links alike. The initial shared
/// events (one per shared link, stamp 0) and the private events are each
/// sorted once and walked by a cursor; only re-keyed shared events
/// (stamp ≥ 1) go through a binary heap, which stays small because few
/// links are ever re-keyed. Every entry is distinct under that order, so
/// the pop order is exactly that of one heap over all of them.
struct EventQueue<'a> {
    /// The component's shared links, ascending: a shared event's position
    /// here gives its link id, for ties with private events.
    links: &'a [u32],
    initial: Vec<LinkEvent>,
    cursor: usize,
    rekeyed: BinaryHeap<Reverse<LinkEvent>>,
    private: Vec<PrivateEvent>,
    pcursor: usize,
}

impl<'a> EventQueue<'a> {
    fn new(links: &'a [u32], mut initial: Vec<LinkEvent>, mut private: Vec<PrivateEvent>) -> Self {
        initial.sort_unstable();
        private.sort_unstable_by(|a, b| a.level.total_cmp(&b.level).then(a.link.cmp(&b.link)));
        EventQueue {
            links,
            initial,
            cursor: 0,
            rekeyed: BinaryHeap::new(),
            private,
            pcursor: 0,
        }
    }

    /// The smallest pending shared event.
    fn peek_shared(&self) -> Option<LinkEvent> {
        let rekeyed = self.rekeyed.peek().map(|r| r.0);
        match (self.initial.get(self.cursor).copied(), rekeyed) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The smallest pending event.
    fn peek(&self) -> Option<Event> {
        match (self.private.get(self.pcursor), self.peek_shared()) {
            (Some(&p), Some(s)) => {
                let first = p
                    .level
                    .total_cmp(&s.level)
                    .then(p.link.cmp(&self.links[s.link as usize]));
                Some(if first.is_lt() {
                    Event::Private(p)
                } else {
                    Event::Shared(s)
                })
            }
            (Some(&p), None) => Some(Event::Private(p)),
            (None, s) => s.map(Event::Shared),
        }
    }

    fn pop(&mut self) -> Option<Event> {
        let ev = self.peek();
        match ev {
            Some(Event::Private(_)) => self.pcursor += 1,
            Some(Event::Shared(s)) => match self.initial.get(self.cursor) {
                Some(&a) if a == s => self.cursor += 1,
                _ => {
                    self.rekeyed.pop();
                }
            },
            None => {}
        }
        ev
    }

    fn push(&mut self, ev: LinkEvent) {
        self.rekeyed.push(Reverse(ev));
    }
}

/// Result of one component's solve.
struct CompResult {
    /// Rates parallel to the component's member list.
    rates: Vec<f64>,
    /// Freeze-event batches (the v3 analogue of "rounds").
    freezes: usize,
    frozen_demand: u64,
    frozen_saturation: u64,
}

/// The read-only inputs every component solve shares.
struct Shared<'a> {
    caps: &'a [f64],
    paths: &'a [&'a [LinkId]],
    demands: &'a [f64],
    weights: &'a [f64],
    comps: &'a Components,
}

/// Freeze flow `ci` (component-local index) at `weight × level`,
/// withdrawing its weight and rate from every shared link it crosses and
/// invalidating their queued events. Its private links need nothing: their
/// one static event is skipped once the flow is frozen.
#[expect(
    clippy::too_many_arguments,
    reason = "the event loop reads these working slices between calls, so they stay separate locals, not one struct"
)]
fn freeze_flow(
    ci: usize,
    level: f64,
    comp: &[u32],
    sh: &Shared,
    active: &mut [bool],
    rates: &mut [f64],
    avail: &mut [f64],
    lweight: &mut [f64],
    stamps: &mut [u32],
) {
    let gfi = comp[ci];
    let w = sh.weights[gfi as usize];
    let r = w * level;
    rates[ci] = r;
    active[ci] = false;
    for &li in sh.comps.shared_hops(gfi) {
        let li = li as usize;
        lweight[li] -= w;
        avail[li] -= r;
        stamps[li] = stamps[li].wrapping_add(1);
    }
}

/// Solve interference component `c` with the bottleneck-event engine.
///
/// All mutable state is local to the component's shared links and
/// members, so disjoint components can run concurrently.
fn solve_component(sh: &Shared, c: usize) -> CompResult {
    let comp = &sh.comps.members[c];
    let links = &sh.comps.shared_links[c];
    let idx = &sh.comps.idx;
    let nll = links.len();
    let ncf = comp.len();

    let ccaps: Vec<f64> = links.iter().map(|&l| sh.caps[l as usize]).collect();
    let mut avail = ccaps.clone();
    let mut lweight = vec![0.0f64; nll];
    for &fi in comp {
        let w = sh.weights[fi as usize];
        for &li in sh.comps.shared_hops(fi) {
            lweight[li as usize] += w;
        }
    }
    let mut stamps = vec![0u32; nll];
    let mut done = vec![false; nll];

    let mut active = vec![true; ncf];
    let mut n_active = ncf;
    let mut rates = vec![0.0f64; ncf];

    // Demand events are static: `demand / weight` never changes mid-solve,
    // so one sort up front and a cursor replace any per-round minimum.
    let mut devents: Vec<(f64, u32)> = comp
        .iter()
        .enumerate()
        .filter_map(|(ci, &fi)| {
            let dw = sh.demands[fi as usize] / sh.weights[fi as usize];
            dw.is_finite().then_some((dw, ci as u32))
        })
        .collect();
    devents.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    let mut dcursor = 0usize;

    // A private link carries one flow, so its level `cap / weight` is as
    // static as a demand. Of each flow's private links only the lowest
    // under the queue's key can bind: it pops first, and the flow is
    // frozen before any other of them comes up.
    let mut private = Vec::with_capacity(ncf);
    for (ci, &fi) in comp.iter().enumerate() {
        let w = sh.weights[fi as usize];
        if w <= REL_EPS {
            continue;
        }
        let mut lowest: Option<PrivateEvent> = None;
        for &l in sh.comps.private_hops(fi) {
            let level = sh.caps[l as usize] / w;
            let lower =
                lowest.is_none_or(|low| level.total_cmp(&low.level).then(l.cmp(&low.link)).is_lt());
            if lower {
                lowest = Some(PrivateEvent {
                    level,
                    link: l,
                    flow: ci as u32,
                });
            }
        }
        private.extend(lowest);
    }
    let initial: Vec<LinkEvent> = (0..nll)
        .filter(|&li| lweight[li] > REL_EPS)
        .map(|li| LinkEvent {
            level: avail[li] / lweight[li],
            link: li as u32,
            stamp: 0,
        })
        .collect();
    let mut queue = EventQueue::new(links, initial, private);

    let mut level = 0.0f64;
    let mut freezes = 0usize;
    let mut frozen_demand = 0u64;
    let mut frozen_saturation = 0u64;

    while n_active > 0 {
        freezes += 1;
        assert!(
            freezes <= nll + ncf + 1,
            "event-driven filling failed to converge"
        );

        // Next demand event (skip members frozen by earlier saturations).
        while dcursor < devents.len() && !active[devents[dcursor].1 as usize] {
            dcursor += 1;
        }
        let demand_level = devents.get(dcursor).map(|e| e.0).unwrap_or(f64::INFINITY);

        // Next link event: surface a fresh queue minimum, re-keying stale
        // entries as they come up (their true level is always ≥ the stale
        // key, so a fresh head is the true minimum). A private event is
        // fresh while its flow is active.
        let link_level = loop {
            match queue.peek() {
                None => break f64::INFINITY,
                Some(Event::Private(p)) => {
                    if active[p.flow as usize] {
                        break p.level;
                    }
                    queue.pop();
                }
                Some(Event::Shared(ev)) => {
                    let li = ev.link as usize;
                    if done[li] {
                        queue.pop();
                        continue;
                    }
                    if ev.stamp != stamps[li] {
                        queue.pop();
                        if lweight[li] <= REL_EPS {
                            done[li] = true; // all its flows already froze
                            continue;
                        }
                        queue.push(LinkEvent {
                            level: avail[li] / lweight[li],
                            link: li as u32,
                            stamp: stamps[li],
                        });
                        continue;
                    }
                    break ev.level;
                }
            }
        };

        let next = demand_level.min(link_level);
        assert!(
            next.is_finite(),
            "no binding constraint: flows without links must have finite demand"
        );
        level = next.max(level);

        // Freeze every event within REL_EPS of this level in one batch
        // (mirroring the round solvers' tie handling, which is what keeps
        // the 1e-9 parity with the reference). Demand events first, then
        // link saturations.
        // Freezing preserves `avail − level × link_weight` on every other
        // link, so the saturation set at this level is stable under the
        // freeze order.
        while dcursor < devents.len() && devents[dcursor].0 <= level * (1.0 + REL_EPS) {
            let ci = devents[dcursor].1 as usize;
            dcursor += 1;
            if active[ci] {
                n_active -= 1;
                frozen_demand += 1;
                freeze_flow(
                    ci,
                    level,
                    comp,
                    sh,
                    &mut active,
                    &mut rates,
                    &mut avail,
                    &mut lweight,
                    &mut stamps,
                );
            }
        }
        while let Some(next) = queue.peek() {
            let ev = match next {
                Event::Private(p) => {
                    // The shared links' saturation test with `avail = cap`
                    // and `link_weight = w` freezes its one flow.
                    let ci = p.flow as usize;
                    if active[ci] {
                        let cap = sh.caps[p.link as usize];
                        let w = sh.weights[comp[ci] as usize];
                        let saturated = cap - level * w <= cap * REL_EPS;
                        if !saturated {
                            break; // fresh minimum above the level: batch complete
                        }
                        n_active -= 1;
                        frozen_saturation += 1;
                        freeze_flow(
                            ci,
                            level,
                            comp,
                            sh,
                            &mut active,
                            &mut rates,
                            &mut avail,
                            &mut lweight,
                            &mut stamps,
                        );
                    }
                    queue.pop();
                    continue;
                }
                Event::Shared(ev) => ev,
            };
            let li = ev.link as usize;
            let stale = ev.stamp != stamps[li];
            if done[li] {
                queue.pop();
                continue;
            }
            if lweight[li] <= REL_EPS {
                queue.pop();
                done[li] = true;
                continue;
            }
            let saturated = avail[li] - level * lweight[li] <= ccaps[li] * REL_EPS;
            if !saturated {
                if stale {
                    queue.pop();
                    queue.push(LinkEvent {
                        level: avail[li] / lweight[li],
                        link: li as u32,
                        stamp: stamps[li],
                    });
                    continue;
                }
                break; // fresh minimum above the level: batch complete
            }
            queue.pop();
            done[li] = true;
            // Freeze every active flow crossing the saturated link.
            let gl = links[li] as usize;
            for k in idx.off[gl]..idx.off[gl + 1] {
                let ci = idx.link_flows[k as usize] as usize;
                if active[ci] {
                    n_active -= 1;
                    frozen_saturation += 1;
                    freeze_flow(
                        ci,
                        level,
                        comp,
                        sh,
                        &mut active,
                        &mut rates,
                        &mut avail,
                        &mut lweight,
                        &mut stamps,
                    );
                }
            }
        }
    }

    CompResult {
        rates,
        freezes,
        frozen_demand,
        frozen_saturation,
    }
}

/// Solve the components numbered in `ids`, scattering per-flow rates
/// into `rates` (indexed by global flow id). Components solve
/// concurrently through [`par`] when the workload is large enough;
/// results are identical either way because components share no mutable
/// state. Returns `(freeze events, frozen by demand, frozen by saturation)`.
fn solve_components(sh: &Shared, ids: &[usize], rates: &mut [f64]) -> (usize, u64, u64) {
    let work: usize = ids.iter().map(|&c| sh.comps.members[c].len()).sum();
    let parallel = ids.len() > 1 && work >= COMPONENT_PAR_THRESHOLD;
    let solve = |&c: &usize| solve_component(sh, c);
    let results: Vec<CompResult> = if parallel {
        par::map(ids, solve)
    } else {
        ids.iter().map(solve).collect()
    };
    let mut freezes = 0usize;
    let mut fd = 0u64;
    let mut fs = 0u64;
    for (&c, res) in ids.iter().zip(&results) {
        for (&fi, &r) in sh.comps.members[c].iter().zip(&res.rates) {
            rates[fi as usize] = r;
        }
        freezes += res.freezes;
        fd += res.frozen_demand;
        fs += res.frozen_saturation;
    }
    (freezes, fd, fs)
}

/// Publish one v3 solve's telemetry: the standard solver families (so
/// dashboards see one stream regardless of engine) plus the v3-specific
/// component and freeze-event counters. Per-link utilization is
/// recomputed from the final rates, which also covers warm re-solves
/// where per-component `avail` state was never materialized globally.
#[expect(
    clippy::too_many_arguments,
    reason = "the cold and warm solves hold these results in different places; a struct would be built only to be unpacked here"
)]
fn publish_v3_metrics(
    m: &metrics::MetricsRegistry,
    topo: &Topology,
    paths: &[&[LinkId]],
    rates: &[f64],
    caps: &[f64],
    solved_flows: usize,
    freezes: usize,
    components: usize,
    frozen_demand: u64,
    frozen_saturation: u64,
) {
    let mut avail = caps.to_vec();
    let mut used = vec![false; caps.len()];
    for (p, &r) in paths.iter().zip(rates) {
        for l in *p {
            avail[l.0 as usize] -= r;
            used[l.0 as usize] = true;
        }
    }
    publish_solve_metrics(
        m,
        topo,
        freezes,
        solved_flows,
        frozen_demand,
        frozen_saturation,
        &used,
        caps,
        &avail,
    );
    m.counter("fabric.maxmin.components").add(components as u64);
    m.counter("fabric.maxmin.freeze_events").add(freezes as u64);
}

/// Cold solve of every component in `sh`, publishing its telemetry.
fn solve_cold(topo: &Topology, sh: &Shared) -> Allocation {
    let ncomp = sh.comps.members.len();
    let mut rates = vec![0.0f64; sh.paths.len()];
    let ids: Vec<usize> = (0..ncomp).collect();
    let (freezes, fd, fs) = solve_components(sh, &ids, &mut rates);
    if let Some(m) = metrics::active() {
        publish_v3_metrics(
            &m,
            topo,
            sh.paths,
            &rates,
            sh.caps,
            sh.paths.len(),
            freezes,
            ncomp,
            fd,
            fs,
        );
    }
    Allocation {
        rates,
        rounds: freezes,
        components: ncomp,
    }
}

/// Cold event-driven solve over a routed flow set — the engine behind
/// every [`crate::maxmin`] entry point.
pub(crate) fn solve_event_driven(topo: &Topology, flows: &[Flow], weights: &[f64]) -> Allocation {
    let caps: Vec<f64> = topo
        .links()
        .iter()
        .map(|l| l.capacity.as_bytes_per_sec())
        .collect();
    let paths: Vec<&[LinkId]> = flows.iter().map(|f| f.path.as_slice()).collect();
    let demands: Vec<f64> = flows.iter().map(|f| f.demand.as_bytes_per_sec()).collect();
    let comps = find_components(caps.len(), &paths);
    let sh = Shared {
        caps: &caps,
        paths: &paths,
        demands: &demands,
        weights,
        comps: &comps,
    };
    solve_cold(topo, &sh)
}

/// A change set for [`Solver::resolve_with`]. Every link named here —
/// re-provisioned links whose capacity actually changed, the old and new
/// paths of changed flows, the paths of removed flows — is *dirty*:
/// components of the updated workload that contain a dirty link are
/// re-solved, everything else reuses the cached rates (provably unchanged:
/// any membership or capacity change would have dirtied one of the
/// component's links).
#[derive(Debug, Clone, Default)]
pub struct ResolveDelta {
    /// `(link, new capacity)` re-provisions: the link keeps its flows but
    /// its capacity changes. This is the campaign-sweep delta — a
    /// link-rate / taper-bundle / protocol-efficiency parameter step is a
    /// batch of capacity changes over an unchanged routing; a failed pipe
    /// is a change to zero capacity. Entries whose capacity bit-equals the
    /// solver's current effective capacity are no-ops and do not dirty the
    /// link; when a link appears more than once, the last entry wins.
    pub changed_capacities: Vec<(LinkId, Bandwidth)>,
    /// `(flow index, new path)` re-routes.
    pub changed_flows: Vec<(usize, Vec<LinkId>)>,
    /// Flows withdrawn from the workload (their rate becomes 0).
    pub removed_flows: Vec<usize>,
}

impl ResolveDelta {
    /// Delta that only re-provisions link capacities.
    pub fn changed_capacities(changes: Vec<(LinkId, Bandwidth)>) -> Self {
        ResolveDelta {
            changed_capacities: changes,
            ..Default::default()
        }
    }

    /// Delta that only re-routes flows.
    pub fn changed_flows(changes: Vec<(usize, Vec<LinkId>)>) -> Self {
        ResolveDelta {
            changed_flows: changes,
            ..Default::default()
        }
    }

    /// Delta that only withdraws flows.
    pub fn removed_flows(flows: Vec<usize>) -> Self {
        ResolveDelta {
            removed_flows: flows,
            ..Default::default()
        }
    }
}

/// A max-min solve that owns its flow set and caches frozen state so
/// subsequent deltas — capacity changes (a failed link is a change to
/// zero), re-routes, withdrawn flows — re-solve only the interference
/// components they touch.
pub struct Solver<'a> {
    topo: &'a Topology,
    flows: Vec<Flow>,
    weights: Vec<f64>,
    /// Effective capacities (re-provisions land here; the borrowed
    /// topology is never mutated).
    caps: Vec<f64>,
    excluded: Vec<bool>,
    rates: Vec<f64>,
    /// The decomposition of the last solve's paths; `None` until the
    /// first solve.
    comps: Option<Components>,
}

impl<'a> Solver<'a> {
    /// Unweighted solver over `flows`.
    pub fn new(topo: &'a Topology, flows: Vec<Flow>) -> Self {
        Self::with_weights(topo, flows, |_| 1.0)
    }

    /// Weighted solver; `weight` must be strictly positive per flow.
    pub fn with_weights<W>(topo: &'a Topology, flows: Vec<Flow>, weight: W) -> Self
    where
        W: Fn(&Flow) -> f64,
    {
        let weights: Vec<f64> = flows
            .iter()
            .map(|f| {
                let w = weight(f);
                assert!(w > 0.0 && w.is_finite(), "flow weight must be positive");
                w
            })
            .collect();
        let caps: Vec<f64> = topo
            .links()
            .iter()
            .map(|l| l.capacity.as_bytes_per_sec())
            .collect();
        let nf = flows.len();
        Solver {
            topo,
            flows,
            weights,
            caps,
            excluded: vec![false; nf],
            rates: vec![0.0; nf],
            comps: None,
        }
    }

    /// The solver's current flow set (paths reflect applied deltas).
    /// Rates of withdrawn flows are zero in every returned allocation.
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Effective paths: withdrawn flows look empty (inactive, rate 0).
    fn paths_view(&self) -> Vec<&[LinkId]> {
        self.flows
            .iter()
            .zip(&self.excluded)
            .map(|(f, &ex)| if ex { &[][..] } else { f.path.as_slice() })
            .collect()
    }

    fn demands(&self) -> Vec<f64> {
        self.flows
            .iter()
            .map(|f| f.demand.as_bytes_per_sec())
            .collect()
    }

    /// Cold solve of the current workload, (re)priming the rate cache and
    /// the decomposition.
    pub fn solve(&mut self) -> Allocation {
        let paths = self.paths_view();
        let comps = find_components(self.caps.len(), &paths);
        let sh = Shared {
            caps: &self.caps,
            paths: &paths,
            demands: &self.demands(),
            weights: &self.weights,
            comps: &comps,
        };
        let a = solve_cold(self.topo, &sh);
        self.rates = a.rates.clone();
        self.comps = Some(comps);
        a
    }

    /// Apply `delta` and re-solve, reusing the cached rates of every
    /// interference component the delta does not touch.
    ///
    /// Correctness: a component of the *updated* workload that contains no
    /// dirty link has exactly the membership, paths, and link capacities
    /// it had in the previous solve — any flow that joined or left it, or
    /// any capacity change, would have marked one of its links dirty — so
    /// its cached rates are still the max-min fixed point. The decomposition
    /// is rebuilt only when the delta re-routes or withdraws a flow; capacity
    /// changes move no path.
    pub fn resolve_with(&mut self, delta: &ResolveDelta) -> Allocation {
        let nl = self.caps.len();
        let mut dirty = vec![false; nl];
        for (l, cap) in &delta.changed_capacities {
            let li = l.0 as usize;
            let new = cap.as_bytes_per_sec();
            if new.to_bits() != self.caps[li].to_bits() {
                self.caps[li] = new;
                dirty[li] = true;
            }
        }
        for &fi in &delta.removed_flows {
            for l in &self.flows[fi].path {
                dirty[l.0 as usize] = true;
            }
            self.excluded[fi] = true;
        }
        for (fi, new_path) in &delta.changed_flows {
            assert!(!self.excluded[*fi], "re-routed a withdrawn flow");
            for l in &self.flows[*fi].path {
                dirty[l.0 as usize] = true;
            }
            for l in new_path {
                dirty[l.0 as usize] = true;
            }
            self.flows[*fi].path = new_path.clone();
        }
        let Some(comps) = self.comps.take() else {
            return self.solve();
        };

        let paths = self.paths_view();
        let demands = self.demands();
        let comps = if delta.changed_flows.is_empty() && delta.removed_flows.is_empty() {
            comps
        } else {
            find_components(nl, &paths)
        };

        let mut rates = vec![0.0f64; self.flows.len()];
        let mut reused = 0usize;
        let mut to_solve: Vec<usize> = Vec::new();
        for (c, (comp, links)) in comps.members.iter().zip(&comps.shared_links).enumerate() {
            // A component's links are its shared links plus its members'
            // private hops.
            let is_dirty = |&l: &u32| dirty[l as usize];
            if links.iter().any(is_dirty)
                || comp
                    .iter()
                    .any(|&fi| comps.private_hops(fi).iter().any(is_dirty))
            {
                to_solve.push(c);
            } else {
                for &fi in comp {
                    rates[fi as usize] = self.rates[fi as usize];
                }
                reused += 1;
            }
        }
        let resolved_flows: usize = to_solve.iter().map(|&c| comps.members[c].len()).sum();
        let sh = Shared {
            caps: &self.caps,
            paths: &paths,
            demands: &demands,
            weights: &self.weights,
            comps: &comps,
        };
        let (freezes, fd, fs) = solve_components(&sh, &to_solve, &mut rates);
        if let Some(m) = metrics::active() {
            publish_v3_metrics(
                &m,
                self.topo,
                &paths,
                &rates,
                &self.caps,
                resolved_flows,
                freezes,
                to_solve.len(),
                fd,
                fs,
            );
            m.counter("fabric.maxmin.warm.resolves").inc();
            m.counter("fabric.maxmin.warm.components_reused")
                .add(reused as u64);
            m.counter("fabric.maxmin.warm.components_resolved")
                .add(to_solve.len() as u64);
            m.counter("fabric.maxmin.warm.flows_reused")
                .add((self.flows.len() - resolved_flows) as u64);
        }
        self.rates = rates;
        let ncomp = comps.members.len();
        self.comps = Some(comps);
        Allocation {
            rates: self.rates.clone(),
            rounds: freezes,
            components: ncomp,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dragonfly::{Dragonfly, DragonflyParams};
    use crate::maxmin::{solve_maxmin, solve_maxmin_reference};
    use crate::routing::{RoutePolicy, Router};
    use crate::topology::{EndpointId, LinkLevel, SwitchId};
    use frontier_sim_core::check;
    use frontier_sim_core::rng::StreamRng;

    fn assert_close(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            let scale = 1.0f64.max(x.abs()).max(y.abs());
            assert!((x - y).abs() <= 1e-9 * scale, "flow {i}: {x} vs {y}");
        }
    }

    /// `n` disjoint shared-link cells, each with `flows_per` flows through
    /// its own bottleneck: exactly `n` interference components.
    fn disjoint_cells(n: usize, flows_per: usize) -> (Topology, Vec<Flow>) {
        let mut t = Topology::new();
        t.add_switches(2 * n as u32);
        let mut flows = Vec::new();
        for c in 0..n {
            let shared = t.add_link(Bandwidth::gb_s(10.0 + c as f64), LinkLevel::Local);
            for i in 0..flows_per {
                let s = t.add_endpoint(SwitchId(2 * c as u32), Bandwidth::gb_s(100.0));
                let d = t.add_endpoint(SwitchId(2 * c as u32 + 1), Bandwidth::gb_s(100.0));
                let path = vec![t.injection_link(s), shared, t.ejection_link(d)];
                let mut f = Flow::saturating(s, d, path, (c * flows_per + i) as u32);
                if i % 2 == 1 {
                    f.demand = Bandwidth::gb_s(1.0 + i as f64);
                }
                flows.push(f);
            }
        }
        (t, flows)
    }

    /// Every path entry lands in exactly one of its flow's shared or
    /// private hop lists, in path order; each component's shared links are
    /// ascending; and the flow index inverts the shared hops.
    fn assert_decomposition(paths: &[&[LinkId]], nl: usize) {
        let comps = find_components(nl, paths);
        assert_eq!(comps.members.len(), comps.shared_links.len());
        assert_eq!(comps.shared_off.len(), paths.len() + 1);
        assert_eq!(comps.private_off.len(), paths.len() + 1);
        let mut entries = vec![0u32; nl];
        for p in paths {
            for l in *p {
                entries[l.0 as usize] += 1;
            }
        }
        let mut seen = vec![0u32; paths.len()];
        let mut listed = vec![0u32; nl];
        for (c, (members, links)) in comps.members.iter().zip(&comps.shared_links).enumerate() {
            assert!(members.windows(2).all(|w| w[0] < w[1]));
            if c > 0 {
                assert!(
                    comps.members[c - 1][0] < members[0],
                    "components out of order"
                );
            }
            assert!(
                links.windows(2).all(|w| w[0] < w[1]),
                "component {c}'s shared links"
            );
            for &fi in members {
                seen[fi as usize] += 1;
                // A link with more than one path entry is shared.
                let (want_shared, want_private): (Vec<u32>, Vec<u32>) = paths[fi as usize]
                    .iter()
                    .map(|l| l.0)
                    .partition(|&l| entries[l as usize] > 1);
                let shared: Vec<u32> = comps
                    .shared_hops(fi)
                    .iter()
                    .map(|&li| links[li as usize])
                    .collect();
                assert_eq!(shared, want_shared, "flow {fi}'s shared hops");
                assert_eq!(
                    comps.private_hops(fi),
                    want_private,
                    "flow {fi}'s private hops"
                );
            }
            for (li, &l) in links.iter().enumerate() {
                listed[l as usize] += 1;
                // The flows crossing a shared link, by position in
                // `members`, are the members with a hop at its position.
                let idx = &comps.idx;
                let (s, e) = (
                    idx.off[l as usize] as usize,
                    idx.off[l as usize + 1] as usize,
                );
                let crossing: Vec<u32> = idx.link_flows[s..e]
                    .iter()
                    .map(|&ci| members[ci as usize])
                    .collect();
                let want: Vec<u32> = members
                    .iter()
                    .flat_map(|&fi| {
                        comps
                            .shared_hops(fi)
                            .iter()
                            .filter(move |&&h| h as usize == li)
                            .map(move |_| fi)
                    })
                    .collect();
                assert_eq!(crossing, want, "flows crossing link {l}");
            }
        }
        for (fi, p) in paths.iter().enumerate() {
            assert_eq!(seen[fi], u32::from(!p.is_empty()), "flow {fi}");
        }
        // A shared link is listed by exactly one component; a private or
        // unused one by none, and its index range is empty.
        for (l, &n) in entries.iter().enumerate() {
            assert_eq!(listed[l], u32::from(n > 1), "link {l}");
            assert_eq!(comps.idx.is_shared(l), n > 1, "link {l}");
        }
    }

    #[test]
    fn decomposition_indices_invert_and_solves_agree_bitwise() {
        check::cases(32, |g| {
            let df = Dragonfly::build(DragonflyParams::scaled(
                g.range(2..6),
                g.range(1..5),
                g.range(1..4),
            ));
            let topo = df.topology();
            let n = df.params().total_endpoints();
            check::assume(n >= 2);
            let router = Router::new(&df, RoutePolicy::adaptive_default());
            let mut rng = StreamRng::from_seed(g.range(0..u64::MAX));
            let mut flows: Vec<Flow> = g.vec(1..60, |g| {
                let s = g.range(0..n);
                let d = (s + g.range(1..n)) % n;
                let (s, d) = (EndpointId(s as u32), EndpointId(d as u32));
                let path = if g.range(0..6u32) == 0 {
                    Vec::new()
                } else {
                    router.route(s, d, &mut rng)
                };
                let mut f = Flow::saturating(s, d, path, g.range(0..4));
                if g.bool() {
                    f.demand = Bandwidth::gb_s(g.range(0.5..30.0));
                }
                f
            });
            let withdrawn: Vec<usize> =
                (0..flows.len()).filter(|_| g.range(0..4u32) == 0).collect();
            let nl = topo.num_links() as usize;

            let paths: Vec<&[LinkId]> = flows.iter().map(|f| f.path.as_slice()).collect();
            assert_decomposition(&paths, nl);
            let bits = |a: &Allocation| a.rates.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            let direct = solve_maxmin(topo, &flows);
            let mut solver = Solver::new(topo, flows.clone());
            assert_eq!(bits(&solver.solve()), bits(&direct));
            let warm = solver.resolve_with(&ResolveDelta::default());
            assert_eq!(bits(&warm), bits(&direct));

            // Withdraw flows: their links drop out of the decomposition, and
            // the warm, cold and free-function solves still agree bit for bit.
            let warm = solver.resolve_with(&ResolveDelta::removed_flows(withdrawn.clone()));
            assert_decomposition(&solver.paths_view(), nl);
            for &fi in &withdrawn {
                flows[fi].path.clear();
            }
            let direct = solve_maxmin(topo, &flows);
            assert_eq!(bits(&warm), bits(&direct));
            assert_eq!(bits(&solver.solve()), bits(&direct));
            let warm = solver.resolve_with(&ResolveDelta::default());
            assert_eq!(bits(&warm), bits(&direct));
        });
    }

    /// One hash over every output bit of the engine on inputs full of
    /// ties: each rate's `to_bits`, `rounds` and `components` of a cold
    /// solve and of an 8-step capacity-only warm chain, and the
    /// `fabric.maxmin.frozen_*` counters. Capacities come from a few
    /// integer Gb/s values, so private and shared levels tie; a flow has up
    /// to three private links, often at one level; demands often equal a
    /// link level; some paths are empty. The pinned value was taken from
    /// the engine that still queued every private link as a link event, so
    /// it holds the static per-flow events to that engine's pop order, ties
    /// included. Two tie-order faults each change the hash: picking a
    /// flow's highest-id private link on ties (9 of the 2,048 cases differ)
    /// and freezing a batch's private events after its shared ones (4).
    #[test]
    fn rates_match_parent_engine_bitwise() {
        use crate::maxmin::VniWeights;
        use frontier_sim_core::metrics::{MetricsRegistry, MetricsScope};
        use std::cell::Cell;
        use std::sync::Arc;

        const GBS: [f64; 4] = [10.0, 20.0, 30.0, 60.0];
        const LEVELS: [LinkLevel; 4] = [
            LinkLevel::Injection,
            LinkLevel::Ejection,
            LinkLevel::Local,
            LinkLevel::Global,
        ];
        fn fold(h: &mut u64, x: u64) {
            for b in x.to_le_bytes() {
                *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        fn fold_alloc(h: &mut u64, a: &Allocation) {
            for r in &a.rates {
                fold(h, r.to_bits());
            }
            fold(h, a.rounds as u64);
            fold(h, a.components as u64);
        }

        let hash = Cell::new(0xcbf2_9ce4_8422_2325u64);
        check::cases(2048, |g| {
            let gb = |g: &mut check::Gen| Bandwidth::gb_s(GBS[g.range(0..GBS.len())]);
            let nf = g.range(1..48usize);
            let npool = g.range(1..4usize);
            // Unit weights, per-VNI fairness, or weight `2^(vni mod 3) / 3`.
            let scheme = g.range(0..3u32);
            let scale = |vni: u32| match scheme {
                2 => f64::from(1u32 << (vni % 3)),
                _ => 1.0,
            };
            // Shared candidates and private links take interleaved ids.
            let mut t = Topology::new();
            t.add_switches(1);
            let mut order: Vec<LinkId> = (0..npool + 3 * nf)
                .map(|_| {
                    let level = LEVELS[g.range(0..LEVELS.len())];
                    t.add_link(gb(g), level)
                })
                .collect();
            for i in (1..order.len()).rev() {
                order.swap(i, g.range(0..i + 1));
            }
            let (pool, mut private) = (order[..npool].to_vec(), order[npool..].iter());
            // In half the cases shared links are up to 16x fatter, so that
            // private links bind more flows.
            if g.bool() {
                for &l in &pool {
                    let cap = gb(g) * f64::from(g.range(1..17u32));
                    t.set_capacity(l, cap);
                }
            }
            // In half the cases every flow's private links get one capacity,
            // scaled with the flow's weight so that flows of different
            // weights tie too; otherwise half the flows get one of their own.
            let base = g.bool().then(|| gb(g));
            let flows: Vec<Flow> = (0..nf)
                .map(|_| {
                    let vni = g.range(0..3u32);
                    let mut path = Vec::new();
                    if g.range(0..8u32) != 0 {
                        let same = match base {
                            Some(cap) => Some(cap),
                            None => g.bool().then(|| gb(g)),
                        };
                        for _ in 0..g.range(0..4u32) {
                            let &l = private.next().unwrap();
                            if let Some(cap) = same {
                                t.set_capacity(l, cap * scale(vni));
                            }
                            path.push(l);
                        }
                        for _ in 0..g.range(0..4u32) {
                            path.push(pool[g.range(0..npool)]);
                        }
                        for i in (1..path.len()).rev() {
                            path.swap(i, g.range(0..i + 1));
                        }
                    }
                    let demand = match (g.range(0..3u32), path.first()) {
                        (0, _) => Bandwidth::bytes_per_sec(f64::INFINITY),
                        (1, Some(_)) => {
                            let l = path[g.range(0..path.len())];
                            let share = g.range(1..4u32) as f64;
                            Bandwidth::bytes_per_sec(t.link(l).capacity.as_bytes_per_sec() / share)
                        }
                        _ => gb(g),
                    };
                    let (s, d) = (EndpointId(0), EndpointId(1));
                    Flow {
                        demand,
                        ..Flow::saturating(s, d, path, vni)
                    }
                })
                .collect();
            let per_vni = VniWeights::from_flows(&flows);
            let weight = |f: &Flow| match scheme {
                0 => 1.0,
                1 => per_vni.weight(f),
                _ => scale(f.vni) / 3.0,
            };

            let reg = Arc::new(MetricsRegistry::new());
            let mut h = hash.get();
            {
                let _scope = MetricsScope::enter(Arc::clone(&reg));
                let mut solver = Solver::with_weights(&t, flows, weight);
                fold_alloc(&mut h, &solver.solve());
                for _ in 0..8 {
                    let changes = (0..g.range(1..4u32))
                        .map(|_| {
                            let l = LinkId(g.range(0..t.num_links()));
                            let cap = if g.range(0..8u32) == 0 {
                                Bandwidth::bytes_per_sec(0.0)
                            } else {
                                gb(g)
                            };
                            (l, cap)
                        })
                        .collect();
                    fold_alloc(
                        &mut h,
                        &solver.resolve_with(&ResolveDelta::changed_capacities(changes)),
                    );
                }
            }
            let counters = reg.snapshot().counters;
            for name in [
                "fabric.maxmin.frozen_demand",
                "fabric.maxmin.frozen_saturation",
            ] {
                fold(&mut h, counters.get(name).copied().unwrap_or(0));
            }
            hash.set(h);
        });
        assert_eq!(hash.get(), 0x9bb6_7088_3e55_0695, "{:#018x}", hash.get());
    }

    #[test]
    fn event_queue_pops_in_binary_heap_order() {
        check::cases(64, |g| {
            // Few distinct levels, so ties fall through to link and stamp.
            let level = |g: &mut check::Gen| g.range(0..6u32) as f64 * 0.25;
            // Link ids 0..n, each shared, private or unused. The reference
            // is one heap over every event, keyed by link id.
            let mut links = Vec::new();
            let mut initial = Vec::new();
            let mut private = Vec::new();
            let mut heap = BinaryHeap::new();
            for id in 0..g.range(0..60u32) {
                let level = level(g);
                match g.range(0..3u32) {
                    0 => {
                        initial.push(LinkEvent {
                            level,
                            link: links.len() as u32,
                            stamp: 0,
                        });
                        links.push(id);
                    }
                    1 => private.push(PrivateEvent {
                        level,
                        link: id,
                        flow: private.len() as u32,
                    }),
                    _ => continue,
                }
                heap.push(Reverse(LinkEvent {
                    level,
                    link: id,
                    stamp: 0,
                }));
            }
            let key = |ev: Event| match ev {
                Event::Shared(e) => (e.level.to_bits(), links[e.link as usize], e.stamp),
                Event::Private(p) => (p.level.to_bits(), p.link, 0),
            };
            let want_key = |ev: LinkEvent| (ev.level.to_bits(), ev.link, ev.stamp);
            let mut stamps = vec![0u32; links.len()];
            let mut queue = EventQueue::new(&links, initial, private);
            loop {
                assert_eq!(queue.peek().map(key), heap.peek().map(|r| want_key(r.0)));
                let (got, want) = (queue.pop(), heap.pop().map(|r| r.0));
                assert_eq!(got.map(key), want.map(want_key));
                // Re-key about half the popped shared links, as the solver
                // does with a stale entry, at a level that may tie others.
                let ev = match got {
                    None => break,
                    Some(Event::Shared(ev)) if g.bool() => ev,
                    Some(_) => continue,
                };
                let li = ev.link as usize;
                stamps[li] += 1;
                let rekeyed = LinkEvent {
                    level: level(g),
                    link: ev.link,
                    stamp: stamps[li],
                };
                queue.push(rekeyed);
                heap.push(Reverse(LinkEvent {
                    link: links[li],
                    ..rekeyed
                }));
            }
        });
    }

    #[test]
    fn warm_delta_chain_matches_fresh_cold_solves_bitwise() {
        check::cases(24, |g| {
            let df = Dragonfly::build(DragonflyParams::scaled(
                g.range(2..5),
                g.range(1..4),
                g.range(1..4),
            ));
            let topo = df.topology();
            let n = df.params().total_endpoints();
            check::assume(n >= 2);
            let router = Router::new(&df, RoutePolicy::adaptive_default());
            let mut rng = StreamRng::from_seed(g.range(0..u64::MAX));
            let flows: Vec<Flow> = g.vec(1..60, |g| {
                let s = g.range(0..n);
                let d = (s + g.range(1..n)) % n;
                let (s, d) = (EndpointId(s as u32), EndpointId(d as u32));
                let mut f = Flow::saturating(s, d, router.route(s, d, &mut rng), g.range(0..4));
                if g.bool() {
                    f.demand = Bandwidth::gb_s(g.range(0.5..30.0));
                }
                f
            });
            let nf = flows.len();
            let nl = topo.num_links();
            let mut caps: Vec<Bandwidth> = topo.links().iter().map(|l| l.capacity).collect();
            let mut withdrawn = vec![false; nf];
            let mut solver = Solver::new(topo, flows);
            solver.solve();
            let bits = |a: &Allocation| a.rates.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            for _ in 0..8 {
                let mut delta = ResolveDelta::default();
                if g.range(0..4u32) == 0 {
                    // Re-provision or fail only private links: injection
                    // and ejection links that one live flow alone crosses.
                    // Such a step dirties no shared link, so only the
                    // flows' private hops show it to the dirty check.
                    let mut entries = vec![0u32; nl as usize];
                    for (f, &w) in solver.flows().iter().zip(&withdrawn) {
                        for l in f.path.iter().filter(|_| !w) {
                            entries[l.0 as usize] += 1;
                        }
                    }
                    let private: Vec<LinkId> = (0..nl)
                        .map(LinkId)
                        .filter(|&l| {
                            let level = topo.link(l).level;
                            entries[l.0 as usize] == 1
                                && matches!(level, LinkLevel::Injection | LinkLevel::Ejection)
                        })
                        .collect();
                    for _ in 0..g.range(1..4u32).min(private.len() as u32) {
                        let l = private[g.range(0..private.len())];
                        let cap = if g.bool() {
                            Bandwidth::bytes_per_sec(0.0)
                        } else {
                            Bandwidth::gb_s(g.range(1.0..50.0))
                        };
                        delta.changed_capacities.push((l, cap));
                    }
                } else {
                    // Each kind of change joins the step's delta with
                    // probability 1/3, so steps range from no-ops to mixes.
                    if g.range(0..3u32) == 0 {
                        for _ in 0..g.range(1..4u32) {
                            let l = LinkId(g.range(0..nl));
                            let cap = if g.bool() {
                                caps[l.0 as usize] // a no-op re-statement
                            } else {
                                Bandwidth::gb_s(g.range(1.0..50.0))
                            };
                            delta.changed_capacities.push((l, cap));
                        }
                    }
                    if g.range(0..3u32) == 0 {
                        // A failed pipe, pushed after the re-provisions so that
                        // it wins over an earlier entry for the same link; half
                        // the time it is the link just re-provisioned.
                        let dead = match delta.changed_capacities.last() {
                            Some(&(l, _)) if g.bool() => l,
                            _ => LinkId(g.range(0..nl)),
                        };
                        delta
                            .changed_capacities
                            .push((dead, Bandwidth::bytes_per_sec(0.0)));
                    }
                    let live: Vec<usize> = (0..nf).filter(|&fi| !withdrawn[fi]).collect();
                    if !live.is_empty() && g.range(0..3u32) == 0 {
                        let fi = live[g.range(0..live.len())];
                        let f = &solver.flows()[fi];
                        delta
                            .changed_flows
                            .push((fi, router.route(f.src, f.dst, &mut rng)));
                    }
                    if !live.is_empty() && g.range(0..3u32) == 0 {
                        // One delta re-routes or withdraws a flow, not both.
                        let fi = live[g.range(0..live.len())];
                        if delta.changed_flows.iter().all(|c| c.0 != fi) {
                            delta.removed_flows.push(fi);
                        }
                    }
                }
                // The last entry for a link wins.
                for &(l, cap) in &delta.changed_capacities {
                    caps[l.0 as usize] = cap;
                }
                for &fi in &delta.removed_flows {
                    withdrawn[fi] = true;
                }
                let warm = solver.resolve_with(&delta);

                let mut t2 = topo.clone();
                for (l, &cap) in caps.iter().enumerate() {
                    t2.set_capacity(LinkId(l as u32), cap);
                }
                let current: Vec<Flow> = solver
                    .flows()
                    .iter()
                    .zip(&withdrawn)
                    .map(|(f, &w)| {
                        let mut f = f.clone();
                        if w {
                            f.path.clear();
                        }
                        f
                    })
                    .collect();
                let cold = Solver::new(&t2, current).solve();
                assert_eq!(bits(&warm), bits(&cold), "after {delta:?}");
                assert_eq!(warm.components, cold.components);
            }
        });
    }

    #[test]
    fn decomposes_disjoint_cells_into_components() {
        let (t, flows) = disjoint_cells(5, 4);
        let a = solve_maxmin(&t, &flows);
        assert_eq!(a.components, 5);
        let reference = solve_maxmin_reference(&t, &flows, |_| 1.0);
        assert_close(&a.rates, &reference.rates);
    }

    #[test]
    fn single_shared_link_is_one_component() {
        let (t, flows) = disjoint_cells(1, 6);
        let a = solve_maxmin(&t, &flows);
        assert_eq!(a.components, 1);
        // Freeze events, not per-level rescans: at most one batch per flow.
        assert!(a.rounds <= flows.len());
    }

    #[test]
    fn empty_flow_set_has_zero_components() {
        let (t, _) = disjoint_cells(1, 2);
        let a = solve_maxmin(&t, &[]);
        assert_eq!(a.components, 0);
        assert_eq!(a.rounds, 0);
    }

    #[test]
    fn empty_path_flows_are_inactive() {
        let (t, mut flows) = disjoint_cells(2, 3);
        flows.push(Flow {
            src: EndpointId(0),
            dst: EndpointId(1),
            path: vec![],
            demand: Bandwidth::gb_s(5.0),
            vni: 9,
        });
        let a = solve_maxmin(&t, &flows);
        assert_eq!(a.components, 2);
        assert_eq!(*a.rates.last().unwrap(), 0.0);
        let reference = solve_maxmin_reference(&t, &flows, |_| 1.0);
        assert_close(&a.rates, &reference.rates);
    }

    #[test]
    fn solver_cold_matches_free_function() {
        let (t, flows) = disjoint_cells(3, 5);
        let direct = solve_maxmin(&t, &flows);
        let mut solver = Solver::new(&t, flows);
        let a = solver.solve();
        assert_eq!(a.rates, direct.rates);
        assert_eq!(a.components, direct.components);
    }

    #[test]
    fn warm_resolve_with_no_delta_reuses_everything() {
        let (t, flows) = disjoint_cells(4, 3);
        let mut solver = Solver::new(&t, flows);
        let cold = solver.solve();
        let warm = solver.resolve_with(&ResolveDelta::default());
        assert_eq!(warm.rates, cold.rates);
        // No dirty links: zero freeze events, every component reused.
        assert_eq!(warm.rounds, 0);
        assert_eq!(warm.components, cold.components);
    }

    #[test]
    fn warm_removed_flows_matches_cold_subset() {
        // GPCNeT shape: solve the full set, then withdraw a suffix and
        // compare the warm re-solve against a cold solve of the prefix.
        let (t, flows) = disjoint_cells(3, 6);
        let keep = 9; // first 1.5 cells
        let prefix: Vec<Flow> = flows[..keep].to_vec();
        let mut solver = Solver::new(&t, flows.clone());
        let _full = solver.solve();
        let warm = solver.resolve_with(&ResolveDelta::removed_flows((keep..flows.len()).collect()));
        let cold = solve_maxmin(&t, &prefix);
        assert_close(&warm.rates[..keep], &cold.rates);
        for &r in &warm.rates[keep..] {
            assert_eq!(r, 0.0, "withdrawn flow kept a rate");
        }
    }

    #[test]
    fn warm_removed_link_matches_cold_on_zeroed_topology() {
        let (t, flows) = disjoint_cells(3, 4);
        // Kill the second cell's bottleneck: its flows collapse onto their
        // injection/ejection capacity.
        let dead = flows[4].path[1];
        let mut solver = Solver::new(&t, flows.clone());
        solver.solve();
        let zero = Bandwidth::bytes_per_sec(0.0);
        let warm = solver.resolve_with(&ResolveDelta::changed_capacities(vec![(dead, zero)]));
        let mut t2 = t.clone();
        t2.set_capacity(dead, zero);
        let cold = solve_maxmin(&t2, &flows);
        assert_close(&warm.rates, &cold.rates);
    }

    #[test]
    fn warm_changed_paths_match_cold() {
        let (t, mut flows) = disjoint_cells(3, 4);
        let mut solver = Solver::new(&t, flows.clone());
        solver.solve();
        // Move flow 0 onto cell 1's bottleneck (merging two components).
        let new_path = vec![flows[0].path[0], flows[4].path[1], flows[0].path[2]];
        let warm = solver.resolve_with(&ResolveDelta::changed_flows(vec![(0, new_path.clone())]));
        flows[0].path = new_path;
        let cold = solve_maxmin(&t, &flows);
        assert_close(&warm.rates, &cold.rates);
    }

    #[test]
    fn warm_changed_capacity_matches_cold_on_reprovisioned_topology() {
        let (t, flows) = disjoint_cells(3, 4);
        // Re-provision cell 1's bottleneck (a campaign parameter step).
        let target = flows[4].path[1];
        let new_cap = Bandwidth::gb_s(4.0);
        let mut solver = Solver::new(&t, flows.clone());
        solver.solve();
        let warm = solver.resolve_with(&ResolveDelta::changed_capacities(vec![(target, new_cap)]));
        let mut t2 = t.clone();
        t2.set_capacity(target, new_cap);
        let cold = solve_maxmin(&t2, &flows);
        assert_close(&warm.rates, &cold.rates);
    }

    #[test]
    fn warm_capacity_noop_reuses_every_component() {
        let (t, flows) = disjoint_cells(3, 4);
        // Re-state the current capacity bit-for-bit: nothing is dirty.
        let target = flows[0].path[1];
        let same = t.link(target).capacity;
        let mut solver = Solver::new(&t, flows);
        let cold = solver.solve();
        let warm = solver.resolve_with(&ResolveDelta::changed_capacities(vec![(target, same)]));
        assert_eq!(warm.rates, cold.rates);
        assert_eq!(warm.rounds, 0, "no-op capacity delta must reuse everything");
    }

    #[test]
    fn warm_capacity_sweep_chain_matches_per_step_cold_solves() {
        // The campaign shape: a chain of capacity steps on one solver,
        // each step checked against a cold solve at that capacity.
        let (t, flows) = disjoint_cells(2, 5);
        let target = flows[0].path[1];
        let mut solver = Solver::new(&t, flows.clone());
        solver.solve();
        for gb in [2.0, 8.0, 3.0, 12.0] {
            let cap = Bandwidth::gb_s(gb);
            let warm = solver.resolve_with(&ResolveDelta::changed_capacities(vec![(target, cap)]));
            let mut t2 = t.clone();
            t2.set_capacity(target, cap);
            let cold = solve_maxmin(&t2, &flows);
            assert_close(&warm.rates, &cold.rates);
        }
    }

    #[test]
    fn resolve_before_solve_is_a_cold_solve() {
        let (t, flows) = disjoint_cells(2, 3);
        let mut solver = Solver::new(&t, flows.clone());
        let dead = flows[0].path[1];
        let zero = Bandwidth::bytes_per_sec(0.0);
        let a = solver.resolve_with(&ResolveDelta::changed_capacities(vec![(dead, zero)]));
        let mut t2 = t.clone();
        t2.set_capacity(dead, zero);
        let cold = solve_maxmin(&t2, &flows);
        assert_close(&a.rates, &cold.rates);
    }

    #[test]
    fn weighted_solver_matches_weighted_reference() {
        let (t, flows) = disjoint_cells(2, 5);
        let weight = |f: &Flow| 0.5 + (f.vni % 3) as f64;
        let mut solver = Solver::with_weights(&t, flows.clone(), weight);
        let a = solver.solve();
        let reference = solve_maxmin_reference(&t, &flows, weight);
        assert_close(&a.rates, &reference.rates);
    }
}
