//! Arena-based discrete-event engine — the allocation-free hot path.
//!
//! Same simulated system as [`crate::des::reference`] (Poisson injection,
//! deterministic dimension-order routes, one FIFO server per directed
//! link plus one per ejection port, fixed pipeline delay per traversed
//! router), re-architected the way PR 1's `DecoderWorkspace` re-
//! architected the decoder:
//!
//! * **No per-packet route allocation.** Routes come from a prebuilt
//!   [`RouteTable`] in flat CSR form; a lookup is two array reads instead
//!   of the per-hop walk and two `Vec` allocations of
//!   [`crate::routing::route`]. The adaptive policy, which has no stored
//!   route, reads each productive link from the topology's unit-step
//!   table ([`Topology::step_link`]).
//! * **No per-event allocation.** An event is packed *inside* its
//!   16-byte heap entry (tag bit + module/packet index in the low bits),
//!   so the unbounded side `Vec<Event>` of the reference simulator
//!   disappears entirely.
//! * **Arena-recycled packets.** Packet state lives in a slab of `Copy`
//!   slots; ejection returns the slot to a free list, so the live set —
//!   not the total injected count — bounds memory.
//! * **Integer heap keys.** Each heap entry is one `u128` priority whose
//!   high word is the IEEE-754 bit pattern of the (always non-negative)
//!   event time — an order-preserving integer image of the `f64` — with
//!   the push sequence number below it as the tie-break. One integer
//!   comparison reproduces the reference heap's `(total_cmp, seq)` order
//!   exactly, and the pop of almost every event fuses with the push of
//!   its successor into a single replace-top sift.
//!
//! An [`Engine`] is reusable: [`Engine::run`] resets the arenas without
//! releasing their capacity, so replication sweeps
//! ([`mod@crate::des::sweep`]) pay the route-table build once per worker and
//! allocate nothing per replication in the steady state.
//!
//! For the default uniform/exponential configuration the engine consumes
//! the RNG in exactly the reference order and is therefore **bit-
//! identical** to [`crate::des::reference::simulate`] — the `des` module
//! tests pin this. Non-uniform patterns from [`crate::des::traffic`]
//! plug in through the same loop.

use super::fault::corrupt_unit;
use super::traffic::{TrafficCtx, TrafficPattern};
use super::{DesConfig, DesResult, ServiceDistribution};
use crate::routing::{adaptive_network, route_choice, RouteTable, RoutingKind};
use crate::topology::Topology;
use rand::rngs::StdRng;
use rand::Rng;
use std::sync::Arc;
use wi_num::rng::seeded_rng;
use wi_num::stats::Running;

/// Tag bit distinguishing `Ready` events from `Inject` events in the
/// packed event word.
const READY_TAG: u32 = 1 << 31;

/// One pending event, packed into a single 16-byte integer priority:
/// time key (bits 127..64), push sequence number (63..32 — the tie-break
/// preserving reference event order) and event payload (31..0: tag bit
/// plus module or packet index).
///
/// Event times are sums of non-negative terms, so the IEEE-754 bit
/// pattern of the `f64` time is an order-preserving integer key, and the
/// whole entry compares with one `u128` comparison. The payload sits
/// below the sequence number, which is unique, so it can never influence
/// the order.
///
/// `Ord` is **inverted** (smaller priority compares `Greater`) so that
/// [`std::collections::BinaryHeap`] — a max-heap — pops the earliest
/// event first. The std heap is used deliberately: its hole-based sift
/// loops are internally unchecked, which safe hand-rolled sifting cannot
/// match, and `PeekMut` gives the pop-and-push fusion ("replace top")
/// that almost every DES event wants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct HeapEntry {
    pri: u128,
}

impl HeapEntry {
    #[inline]
    fn new(t: f64, seq: u32, ev: u32) -> Self {
        // `t + 0.0` normalizes a (vanishingly rare, but possible via
        // `-mean * 0.0.ln()`-style corner draws) negative zero to +0.0,
        // whose bit pattern would otherwise order *last* instead of
        // first. For every other non-negative value the addition is the
        // identity, keeping `to_bits` an order-preserving integer key.
        HeapEntry {
            pri: (((t + 0.0).to_bits()) as u128) << 64 | (seq as u128) << 32 | ev as u128,
        }
    }

    #[inline]
    fn time(&self) -> f64 {
        f64::from_bits((self.pri >> 64) as u64)
    }

    #[inline]
    fn ev(&self) -> u32 {
        self.pri as u32
    }

    #[inline]
    fn with_seq(self, seq: u32) -> Self {
        HeapEntry {
            pri: self.pri & !(0xFFFF_FFFFu128 << 32) | (seq as u128) << 32,
        }
    }
}

impl Ord for HeapEntry {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.pri.cmp(&self.pri)
    }
}

impl PartialOrd for HeapEntry {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of [`HeapEntry`]s over the inverted `Ord` above.
#[derive(Clone, Debug, Default)]
struct EventHeap {
    entries: std::collections::BinaryHeap<HeapEntry>,
}

impl EventHeap {
    fn clear(&mut self) {
        self.entries.clear();
    }

    #[inline]
    fn push(&mut self, e: HeapEntry) {
        self.entries.push(e);
    }

    /// The earliest entry, if any.
    #[inline]
    fn peek(&self) -> Option<HeapEntry> {
        self.entries.peek().copied()
    }

    /// Replaces the earliest entry with `e` — one sift-down instead of
    /// the pop-and-push pair that almost every DES event would otherwise
    /// pay.
    ///
    /// # Panics
    ///
    /// Panics if the heap is empty.
    #[inline]
    fn replace_top(&mut self, e: HeapEntry) {
        let mut top = self.entries.peek_mut().expect("replace_top on empty heap");
        *top = e;
        // The entry sifts into place when the `PeekMut` guard drops.
    }

    /// Removes the earliest entry.
    #[inline]
    fn pop_top(&mut self) {
        self.entries.pop();
    }

    /// Removes and returns the earliest entry (test helper).
    #[cfg(test)]
    fn pop(&mut self) -> Option<HeapEntry> {
        self.entries.pop()
    }

    /// Compacts the 32-bit sequence numbers to `1..=len` preserving the
    /// total entry order, and returns the next free sequence number.
    ///
    /// Called (cold) when the push counter approaches `u32::MAX`, i.e.
    /// every ~4 billion events; an ascending-sorted array is a valid heap
    /// under the inverted `Ord`, so the rebuilt entries can be stored
    /// back directly.
    #[cold]
    fn renumber(&mut self) -> u32 {
        let mut entries = std::mem::take(&mut self.entries).into_vec();
        entries.sort_unstable_by_key(|e| e.pri);
        for (i, e) in entries.iter_mut().enumerate() {
            *e = e.with_seq(i as u32 + 1);
        }
        let next = entries.len() as u32 + 1;
        self.entries = std::collections::BinaryHeap::from(entries);
        next
    }
}

/// Per-packet state in the arena. Routes are *not* stored here — the
/// slot carries the packet's precomputed range within the shared
/// [`RouteTable`]'s flat link buffer.
#[derive(Clone, Copy, Debug)]
struct PacketSlot {
    t_inject: f64,
    /// Injection ordinal — stable across slot recycling, so the fault
    /// layer's per-packet corruption hash agrees with the reference
    /// oracle (whose packet index *is* the ordinal).
    pkt: u64,
    /// Start of the route in [`RouteTable::flat_links`].
    route_lo: u32,
    /// Hops remaining (counts down to the ejection stage).
    remaining: u32,
    /// Total hops of the route (`hops - remaining` is the current hop
    /// index, the fault hash's stable per-hop key).
    hops: u32,
    /// ARQ retransmissions already spent on the current hop.
    attempt: u32,
    dst: u32,
    /// Virtual channel, fixed at injection. For adaptive routing this is
    /// the packet's Linder–Harden virtual network
    /// ([`adaptive_network`]); oblivious policies keep VC bookkeeping out
    /// of the hot loop entirely (their allocation rules live in
    /// [`crate::deadlock`]), so the field stays 0.
    vc: u8,
    measured: bool,
}

/// A reusable simulation engine bound to one topology.
///
/// Construction precomputes the route table and traffic context (the
/// only allocations proportional to topology size); [`Engine::run`]
/// recycles every buffer across calls.
///
/// # Example
///
/// ```
/// use wi_noc::des::{DesConfig, Engine};
/// use wi_noc::topology::Topology;
///
/// let topo = Topology::mesh2d(3, 3);
/// let mut engine = Engine::new(&topo);
/// let config = DesConfig {
///     injection_rate: 0.05,
///     warmup_packets: 100,
///     measured_packets: 500,
///     ..DesConfig::default()
/// };
/// let result = engine.run(&config);
/// assert!(result.completed && result.mean_latency > 0.0);
/// // A second run reuses the engine's arenas and is bit-identical.
/// assert_eq!(engine.run(&config), result);
/// ```
#[derive(Clone, Debug)]
pub struct Engine {
    /// Kept so a [`Engine::run`] whose config asks for a different
    /// [`RoutingKind`] can rebuild the route table.
    topo: Topology,
    /// Shared behind an [`Arc`]: sweep workers clone the prototype engine,
    /// and the (potentially large — `choices ×` the dimension-order size)
    /// policy table is read-only during a run, so clones share one copy.
    routes: Arc<RouteTable>,
    ctx: TrafficCtx,
    num_links: usize,
    heap: EventHeap,
    packets: Vec<PacketSlot>,
    free: Vec<u32>,
    link_free: Vec<f64>,
    /// Per-(link, VC) earliest-free times — the queue-state the adaptive
    /// policy reads per hop. Sized `num_links × vcs` per run; timing is
    /// still governed by the physical `link_free` server (VCs share the
    /// wire), so this is visibility + tie-break state, not extra servers.
    vc_free: Vec<f64>,
    ej_free: Vec<f64>,
    /// Per-link static error probability, precomputed per run from the
    /// fault config (all zeros when faults are off).
    link_p: Vec<f64>,
    /// Per-link retransmission counts (drives `worst_link_retries`).
    link_retries: Vec<u64>,
}

impl Engine {
    /// Builds an engine for `topo` with dimension-order routes, routing
    /// all router pairs once.
    ///
    /// # Panics
    ///
    /// Panics if the topology has fewer than two modules or lacks a link
    /// some dimension-order route needs.
    pub fn new(topo: &Topology) -> Self {
        Self::with_routing(topo, RoutingKind::DimensionOrder)
    }

    /// Builds an engine for `topo` with the route table of `routing`
    /// prematerialized (a [`Engine::run`] whose config asks for another
    /// policy still works — it rebuilds the table first).
    ///
    /// # Panics
    ///
    /// Panics if the topology has fewer than two modules, the policy is
    /// invalid, or the topology lacks a link some route needs.
    pub fn with_routing(topo: &Topology, routing: RoutingKind) -> Self {
        assert!(topo.num_modules() >= 2, "need at least two modules");
        Engine {
            topo: topo.clone(),
            routes: Arc::new(RouteTable::with_policy(topo, routing)),
            ctx: TrafficCtx::new(topo),
            num_links: topo.num_links(),
            heap: EventHeap::default(),
            packets: Vec::new(),
            free: Vec::new(),
            link_free: vec![0.0; topo.num_links()],
            vc_free: Vec::new(),
            ej_free: vec![0.0; topo.num_modules()],
            link_p: vec![0.0; topo.num_links()],
            link_retries: vec![0; topo.num_links()],
        }
    }

    /// Builds an engine around a prebuilt route table — the entry point
    /// for database-expanded grids ([`crate::icdb`]) and irregular
    /// topologies whose tables come from
    /// [`RouteTable::from_routes`] rather than the mesh policy walker.
    ///
    /// [`Engine::run`] keeps the given table as long as
    /// `config.routing == table.kind()`; a config asking for a different
    /// policy falls back to rebuilding via the mesh walker, which panics
    /// on topologies (pillar meshes, hybrid boards) the walker cannot
    /// route — so pass configs whose routing matches the table.
    ///
    /// # Panics
    ///
    /// Panics if the topology has fewer than two modules or the table
    /// was built for a different module count.
    pub fn with_table(topo: &Topology, routes: Arc<RouteTable>) -> Self {
        assert!(topo.num_modules() >= 2, "need at least two modules");
        assert_eq!(
            routes.num_modules(),
            topo.num_modules(),
            "route table module count does not match the topology"
        );
        Engine {
            topo: topo.clone(),
            routes,
            ctx: TrafficCtx::new(topo),
            num_links: topo.num_links(),
            heap: EventHeap::default(),
            packets: Vec::new(),
            free: Vec::new(),
            link_free: vec![0.0; topo.num_links()],
            vc_free: Vec::new(),
            ej_free: vec![0.0; topo.num_modules()],
            link_p: vec![0.0; topo.num_links()],
            link_retries: vec![0; topo.num_links()],
        }
    }

    /// Routing policy of the engine's current route table.
    pub fn routing(&self) -> RoutingKind {
        self.routes.kind()
    }

    /// Runs one simulation, reusing the engine's arenas.
    ///
    /// Changing `config.routing` between runs rebuilds the route table
    /// (the one non-recycled cost); runs sharing a policy — every
    /// replication of a sweep — pay it once.
    ///
    /// # Panics
    ///
    /// Panics if the injection rate is not positive or the traffic
    /// pattern / routing policy is invalid for this topology.
    pub fn run(&mut self, config: &DesConfig) -> DesResult {
        assert!(
            config.injection_rate > 0.0,
            "injection rate must be positive"
        );
        let n = self.ctx.num_modules();
        assert!(n >= 2, "need at least two modules");
        if let Some(problem) = config.traffic.problem(n) {
            panic!("invalid traffic pattern: {problem}");
        }
        if let Some(problem) = config.fault.problem() {
            panic!("invalid fault config: {problem}");
        }
        if let Some(problem) = config.routing.vc_problem(config.vcs) {
            panic!("invalid vc config: {problem}");
        }
        if self.routes.kind() != config.routing {
            self.routes = Arc::new(RouteTable::with_policy(&self.topo, config.routing));
        }

        let Engine {
            topo,
            routes,
            ctx,
            num_links,
            heap,
            packets,
            free,
            link_free,
            vc_free,
            ej_free,
            link_p,
            link_retries,
        } = self;
        let routes: &RouteTable = routes;
        let route_choices = routes.num_choices();
        let adaptive = config.routing == RoutingKind::Adaptive;
        let vcs = if config.vcs == 0 {
            config.routing.safe_vcs()
        } else {
            config.vcs
        };

        heap.clear();
        packets.clear();
        free.clear();
        link_free.clear();
        link_free.resize(*num_links, 0.0);
        // Per-(link, VC) visibility only feeds the adaptive choice, so
        // oblivious runs skip the array entirely — the pre-VC hot loop,
        // bit for bit *and* byte for byte.
        vc_free.clear();
        if adaptive {
            vc_free.resize(*num_links * vcs, 0.0);
        }
        ej_free.clear();
        ej_free.resize(n, 0.0);
        link_retries.clear();
        link_retries.resize(*num_links, 0);
        // Fault decisions are pure hashes — none of this touches `rng`,
        // so an all-zero-probability config replays the fault-free RNG
        // stream exactly.
        let faults = config.fault.active();
        link_p.clear();
        link_p.resize(*num_links, 0.0);
        if faults {
            for (l, p) in link_p.iter_mut().enumerate() {
                *p = config.fault.static_link_p(topo, l, config.seed);
            }
        }

        let mut rng = seeded_rng(config.seed);
        // Sequence numbers are assigned in the reference simulator's push
        // order; whether an entry then enters via `push` or `replace_top`
        // cannot matter, because the heap's (key, seq) order is total.
        let mut seq = 0u32;
        let entry = |seq: &mut u32, t: f64, ev: u32| {
            *seq += 1;
            HeapEntry::new(t, *seq, ev)
        };

        let mut injected = 0usize;
        let total_tracked = config.warmup_packets + config.measured_packets;
        let mut delivered_measured = 0usize;
        let mut dropped_measured = 0usize;
        let mut retries_total = 0u64;
        let mut stats = Running::new();
        let mut event_count = 0u64;

        let inject_mean = 1.0 / config.injection_rate;
        let exp_sample = |rng: &mut StdRng, mean: f64| -> f64 {
            let u: f64 = 1.0 - rng.gen::<f64>();
            -mean * u.ln()
        };

        // Seed one injection per module.
        for m in 0..n {
            let t = exp_sample(&mut rng, inject_mean);
            let e = entry(&mut seq, t, m as u32);
            heap.push(e);
        }

        while let Some(top) = heap.peek() {
            event_count += 1;
            if event_count > config.max_events {
                return DesResult {
                    mean_latency: stats.mean(),
                    stderr: stats.stderr(),
                    delivered: delivered_measured,
                    dropped: dropped_measured,
                    retries: retries_total,
                    worst_link_retries: link_retries.iter().copied().max().unwrap_or(0),
                    completed: false,
                };
            }
            if seq >= u32::MAX - 4 {
                seq = heap.renumber();
            }
            let now = top.time();
            let ev = top.ev();
            if ev & READY_TAG == 0 {
                // Injection at `module`.
                let module = ev as usize;
                let dst = config.traffic.dest(module, ctx, &mut rng);
                let measured = injected >= config.warmup_packets && injected < total_tracked;
                let choice = route_choice(config.seed, injected as u64, module, dst, route_choices);
                // Adaptive packets carry no precomputed route: `route_lo`
                // holds the *current router* instead of a table offset,
                // and the hop budget is the Manhattan distance (adaptive
                // routing is minimal). The VC is the packet's virtual
                // network, fixed here for its whole life.
                let (route_lo, hops, vc) = if adaptive {
                    let src_r = topo.router_of(module);
                    let dst_r = topo.router_of(dst);
                    (
                        src_r as u32,
                        topo.router_distance(src_r, dst_r) as u32,
                        adaptive_network(topo.coord(src_r), topo.coord(dst_r)) as u8,
                    )
                } else {
                    let span = routes.span_choice(module, dst, choice);
                    (span.start as u32, span.len() as u32, 0u8)
                };
                let slot = PacketSlot {
                    t_inject: now,
                    pkt: injected as u64,
                    route_lo,
                    remaining: hops,
                    hops,
                    attempt: 0,
                    dst: dst as u32,
                    vc,
                    measured,
                };
                let pid = match free.pop() {
                    Some(i) => {
                        packets[i as usize] = slot;
                        i
                    }
                    None => {
                        assert!(
                            packets.len() < READY_TAG as usize,
                            "more than 2^31 packets in flight"
                        );
                        packets.push(slot);
                        (packets.len() - 1) as u32
                    }
                };
                injected += 1;
                // Traverse the source router pipeline, then queue.
                let ready = entry(&mut seq, now + config.params.routing_delay, READY_TAG | pid);
                heap.replace_top(ready);
                // Keep offering load until measurement finishes (a
                // measured packet resolves by delivery *or* drop).
                if delivered_measured + dropped_measured < config.measured_packets {
                    let t_next = now + exp_sample(&mut rng, inject_mean);
                    let e = entry(&mut seq, t_next, module as u32);
                    heap.push(e);
                }
            } else {
                // Packet ready for its next stage.
                let pid = (ev & !READY_TAG) as usize;
                let svc = match config.service {
                    ServiceDistribution::Exponential => {
                        exp_sample(&mut rng, config.params.service_time)
                    }
                    ServiceDistribution::Deterministic => config.params.service_time,
                };
                let p = packets[pid];
                if p.remaining > 0 {
                    // Inter-router link stage. A corrupted transmission
                    // still occupies the link for the full service time
                    // (the receiver only detects the bad frame on
                    // arrival).
                    let l = if adaptive {
                        // Congestion-aware choice among the productive
                        // links (one per unfinished dimension): ascending
                        // (server-free, vc-free, link id). A pure
                        // function of queue state — shared verbatim with
                        // the reference oracle, so no RNG and no
                        // bit-divergence. All-idle ties fall to the
                        // lowest link id, i.e. dimension order at low
                        // load; an ARQ retry re-runs the scan and may
                        // steer around the congestion it just hit.
                        let cur = p.route_lo as usize;
                        let here = topo.coord(cur);
                        let target = topo.coord(topo.router_of(p.dst as usize));
                        let mut best = usize::MAX;
                        let mut best_key = (f64::INFINITY, f64::INFINITY, u32::MAX);
                        for dim in 0..3 {
                            if here[dim] == target[dim] {
                                continue;
                            }
                            let cand = topo
                                .step_link(cur, dim, here[dim] < target[dim])
                                .expect("adaptive routing needs the full mesh neighborhood");
                            let key = (
                                link_free[cand].max(now),
                                vc_free[cand * vcs + p.vc as usize].max(now),
                                cand as u32,
                            );
                            if key < best_key {
                                best_key = key;
                                best = cand;
                            }
                        }
                        best
                    } else {
                        routes.flat_links()[p.route_lo as usize] as usize
                    };
                    let start = now.max(link_free[l]);
                    let finish = start + svc;
                    link_free[l] = finish;
                    if adaptive {
                        // The VC lane the packet occupies frees with the
                        // wire — occupied by corrupted frames too.
                        vc_free[l * vcs + p.vc as usize] = finish;
                    }
                    // Pure-hash corruption decision — consumes no RNG, so
                    // the `faults` short-circuit (and any zero-probability
                    // config) leaves the event stream untouched.
                    let corrupted = faults && {
                        let p_err = config.fault.link_p_at(link_p[l], l, start, config.seed);
                        p_err > 0.0
                            && corrupt_unit(config.seed, p.pkt, p.hops - p.remaining, p.attempt)
                                < p_err
                    };
                    if !corrupted {
                        if adaptive {
                            // Advance to the link's downstream router.
                            packets[pid].route_lo = topo.links()[l].dst as u32;
                        } else {
                            packets[pid].route_lo += 1;
                        }
                        packets[pid].remaining -= 1;
                        packets[pid].attempt = 0;
                        // Next router pipeline, then next queue.
                        let ready = entry(
                            &mut seq,
                            finish + config.params.routing_delay,
                            READY_TAG | pid as u32,
                        );
                        heap.replace_top(ready);
                    } else if p.attempt >= config.fault.arq.max_retries {
                        // ARQ exhausted: drop the packet, recycle the slot.
                        heap.pop_top();
                        free.push(pid as u32);
                        if p.measured {
                            dropped_measured += 1;
                            if delivered_measured + dropped_measured >= config.measured_packets {
                                break;
                            }
                        }
                    } else {
                        // Retransmit the same hop after timeout + backoff;
                        // the retry is a plain `Ready` event in the same
                        // heap, the attempt counter lives in the slab.
                        packets[pid].attempt += 1;
                        retries_total += 1;
                        link_retries[l] += 1;
                        let ready = entry(
                            &mut seq,
                            finish + config.fault.rto(p.attempt),
                            READY_TAG | pid as u32,
                        );
                        heap.replace_top(ready);
                    }
                } else {
                    // Ejection stage; the slot is recycled either way.
                    heap.pop_top();
                    let m = p.dst as usize;
                    let start = now.max(ej_free[m]);
                    let finish = start + svc;
                    ej_free[m] = finish;
                    free.push(pid as u32);
                    if p.measured {
                        stats.push(finish - p.t_inject);
                        delivered_measured += 1;
                        if delivered_measured + dropped_measured >= config.measured_packets {
                            break;
                        }
                    }
                }
            }
        }

        DesResult {
            mean_latency: stats.mean(),
            stderr: stats.stderr(),
            delivered: delivered_measured,
            dropped: dropped_measured,
            retries: retries_total,
            worst_link_retries: link_retries.iter().copied().max().unwrap_or(0),
            completed: delivered_measured + dropped_measured >= config.measured_packets,
        }
    }
}

/// One-shot convenience: builds an [`Engine`] for the config's routing
/// policy and runs it once.
///
/// # Panics
///
/// See [`Engine::with_routing`] and [`Engine::run`].
pub fn simulate(topo: &Topology, config: &DesConfig) -> DesResult {
    Engine::with_routing(topo, config.routing).run(config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_heap_orders_by_key_then_seq() {
        let mut h = EventHeap::default();
        for (t, seq, ev) in [
            (5.0f64, 1u32, 10u32),
            (3.0, 2, 11),
            (5.0, 3, 12),
            (1.0, 4, 13),
        ] {
            h.push(HeapEntry::new(t, seq, ev));
        }
        let order: Vec<u32> = std::iter::from_fn(|| h.pop()).map(|e| e.ev()).collect();
        assert_eq!(order, vec![13, 11, 10, 12]);
    }

    #[test]
    fn renumber_preserves_order() {
        let mut h = EventHeap::default();
        for (t, seq, ev) in [
            (5.0f64, 90u32, 10u32),
            (3.0, 91, 11),
            (5.0, 92, 12),
            (1.0, 93, 13),
        ] {
            h.push(HeapEntry::new(t, seq, ev));
        }
        let next = h.renumber();
        assert_eq!(next, 5);
        let order: Vec<u32> = std::iter::from_fn(|| h.pop()).map(|e| e.ev()).collect();
        assert_eq!(order, vec![13, 11, 10, 12]);
    }

    #[test]
    fn engine_is_reusable_and_deterministic() {
        let topo = Topology::mesh2d(4, 4);
        let cfg = DesConfig {
            warmup_packets: 200,
            measured_packets: 2_000,
            ..DesConfig::default()
        };
        let mut engine = Engine::new(&topo);
        let a = engine.run(&cfg);
        let b = engine.run(&cfg);
        assert_eq!(a, b, "arena reuse must not leak state between runs");
        assert_eq!(a, simulate(&topo, &cfg));
    }

    #[test]
    fn engine_rebuilds_table_when_policy_changes() {
        // One engine must serve configs with different routing kinds,
        // rebuilding the table on the transition and matching a fresh
        // engine built for that policy directly.
        let topo = Topology::mesh3d(3, 3, 3);
        let base = DesConfig {
            warmup_packets: 200,
            measured_packets: 2_000,
            ..DesConfig::default()
        };
        let mut engine = Engine::new(&topo);
        for routing in [
            RoutingKind::O1Turn,
            RoutingKind::valiant(),
            RoutingKind::DimensionOrder,
        ] {
            let cfg = DesConfig { routing, ..base };
            assert_eq!(
                engine.run(&cfg),
                Engine::with_routing(&topo, routing).run(&cfg),
                "{}",
                routing.name()
            );
        }
    }

    #[test]
    fn with_table_matches_with_routing_bit_for_bit() {
        let topo = Topology::mesh3d(3, 3, 3);
        let cfg = DesConfig {
            routing: RoutingKind::O1Turn,
            warmup_packets: 200,
            measured_packets: 2_000,
            ..DesConfig::default()
        };
        let table = Arc::new(RouteTable::with_policy(&topo, RoutingKind::O1Turn));
        assert_eq!(
            Engine::with_table(&topo, table).run(&cfg),
            Engine::with_routing(&topo, RoutingKind::O1Turn).run(&cfg)
        );
    }

    #[test]
    #[should_panic(expected = "module count")]
    fn with_table_rejects_mismatched_table() {
        let topo = Topology::mesh2d(3, 3);
        let other = Topology::mesh2d(4, 4);
        Engine::with_table(&topo, Arc::new(RouteTable::new(&other)));
    }

    #[test]
    #[should_panic(expected = "invalid routing policy")]
    fn bad_valiant_panics() {
        let topo = Topology::mesh2d(2, 2);
        simulate(
            &topo,
            &DesConfig {
                routing: RoutingKind::Valiant { choices: 0 },
                ..DesConfig::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "invalid traffic pattern")]
    fn bad_hotspot_panics() {
        use crate::des::traffic::TrafficKind;
        let topo = Topology::mesh2d(2, 2);
        simulate(
            &topo,
            &DesConfig {
                traffic: TrafficKind::Hotspot {
                    node: 99,
                    fraction: 0.2,
                },
                ..DesConfig::default()
            },
        );
    }
}
