//! Arena-based discrete-event engine — the allocation-free hot path.
//!
//! Same simulated system as [`crate::des::reference`] (Poisson injection,
//! per-policy routes, one FIFO server per directed link plus one per
//! ejection port, fixed pipeline delay per traversed router), re-
//! architected the way PR 1's `DecoderWorkspace` re-architected the
//! decoder:
//!
//! * **No route storage.** A packet carries its route's
//!   [`RouteProgram`] — its current router, leg target and axis order —
//!   instead of a route: each hop is a few coordinate compares and one
//!   read of the topology's unit-step table ([`Topology::step_link`]),
//!   with no per-packet link list as in [`crate::des::reference`] and no
//!   all-pairs table, so memory stays O(links + packets in flight) at
//!   any router count. The adaptive policy reads each productive link
//!   from the same unit-step table. Only engines built around a prebuilt
//!   [`RouteTable`] ([`Engine::with_table`]: hybrid boards, pillar
//!   meshes, icdb tables) read routes from its flat CSR buffer.
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
//! ([`mod@crate::des::sweep`]) allocate nothing per replication in the
//! steady state, and a run under another policy rebuilds nothing.
//!
//! Under uniform traffic the engine consumes the RNG in exactly the
//! reference order and is therefore **bit-identical** to
//! [`crate::des::reference::simulate`] — the `des` module tests pin
//! this. Non-uniform patterns from [`crate::des::traffic`] plug in
//! through the same loop.

use super::fault::corrupt_unit;
use super::traffic::TrafficPattern;
use super::{DesConfig, DesResult};
use crate::analytic::RouterParams;
use crate::routing::{
    adaptive_network, assert_unit_steps, route_choice, RouteProgram, RouteTable, RoutingKind,
};
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

/// Per-packet state in the arena. Routes are *not* stored here: a packet
/// carries its route program's state (current router, leg target, axis
/// order), or — on an [`Engine::with_table`] engine running the table's
/// policy — its position in the table's flat link buffer.
#[derive(Clone, Copy, Debug)]
struct PacketSlot {
    t_inject: f64,
    /// Injection ordinal — stable across slot recycling, so the fault
    /// layer's per-packet corruption hash agrees with the reference
    /// oracle (whose packet index *is* the ordinal).
    pkt: u64,
    /// The packet's current router; for a table-routed packet, the index
    /// of its next link in [`RouteTable::flat_links`] instead.
    at: u32,
    /// Hops remaining (counts down to the ejection stage).
    remaining: u32,
    /// Total hops of the route (`hops - remaining` is the current hop
    /// index, the fault hash's stable per-hop key).
    hops: u32,
    /// ARQ retransmissions already spent on the current hop.
    attempt: u32,
    dst: u32,
    /// The rest of an oblivious route: its leg target and axis order.
    /// Adaptive packets take only its hop count, and table-routed ones
    /// leave it at the default.
    program: RouteProgram,
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
/// Construction builds the arenas (allocations proportional to the
/// topology's modules and links, never to router pairs); traffic
/// patterns read the topology itself. [`Engine::run`] recycles every
/// buffer across calls.
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
    /// Its unit-step table is the link source of every hop not read from
    /// `table`.
    topo: Topology,
    /// The policy of the last run — before the first, the one the engine
    /// was built for.
    routing: RoutingKind,
    /// The prebuilt table of an [`Engine::with_table`] engine, read by
    /// runs under its policy. Shared behind an [`Arc`]: sweep workers
    /// clone the prototype engine, and the table is read-only.
    table: Option<Arc<RouteTable>>,
    num_links: usize,
    heap: EventHeap,
    packets: Vec<PacketSlot>,
    free: Vec<u32>,
    link_free: Vec<f64>,
    /// Per-(link, VC) earliest-free times — the queue-state the adaptive
    /// policy reads per hop. Sized `num_links ×`
    /// [`safe_vcs`](RoutingKind::safe_vcs) per run; timing is
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
    /// Builds an engine for `topo` with dimension-order routing.
    ///
    /// # Panics
    ///
    /// Panics if the topology has fewer than two modules or lacks a unit
    /// step of its raster (see [`Engine::with_routing`]).
    pub fn new(topo: &Topology) -> Self {
        Self::with_routing(topo, RoutingKind::DimensionOrder)
    }

    /// Builds an engine for `topo` that routes every packet by its
    /// policy's [`RouteProgram`] — under `routing`, or whatever policy a
    /// later [`Engine::run`] asks for. No route table is built.
    ///
    /// The programs step along the topology's unit-step links, so
    /// construction checks in O(routers) that every unit step inside the
    /// raster has one: the engine fails here, not mid-run. That is
    /// exactly routability for dimension-order, O1TURN, RLB and adaptive
    /// routing (a neighbour pair's only minimal route is the direct
    /// step), and sufficient for Valiant.
    ///
    /// # Panics
    ///
    /// Panics if the topology has fewer than two modules, the policy is
    /// invalid, or the topology lacks a unit step (naming the router,
    /// axis and direction) — pillar meshes and hybrid boards do; build
    /// those around their own tables with [`Engine::with_table`].
    pub fn with_routing(topo: &Topology, routing: RoutingKind) -> Self {
        assert!(topo.num_modules() >= 2, "need at least two modules");
        if let Some(problem) = routing.problem() {
            panic!("invalid routing policy: {problem}");
        }
        assert_unit_steps(topo, routing);
        Self::build(topo, routing, None)
    }

    /// Builds an engine around a prebuilt route table — the entry point
    /// for expanded grids ([`crate::icdb`]) and irregular
    /// topologies whose tables come from [`RouteTable::from_routes`]
    /// rather than the mesh policy programs.
    ///
    /// [`Engine::run`] reads the table as long as
    /// `config.routing == table.kind()`. A config asking for another
    /// policy routes by [`RouteProgram`]s instead, after the unit-step
    /// check [`Engine::with_routing`] makes at construction — which
    /// panics on topologies (pillar meshes, hybrid boards) the programs
    /// cannot route, so pass configs whose routing matches the table.
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
        Self::build(topo, routes.kind(), Some(routes))
    }

    fn build(topo: &Topology, routing: RoutingKind, table: Option<Arc<RouteTable>>) -> Self {
        Engine {
            topo: topo.clone(),
            routing,
            table,
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

    /// Routing policy of the engine's last run; before the first, the
    /// policy it was built for (its table's, for [`Engine::with_table`]).
    pub fn routing(&self) -> RoutingKind {
        self.routing
    }

    /// Runs one simulation, reusing the engine's arenas.
    ///
    /// Any policy runs without a rebuild: packets step their
    /// [`RouteProgram`]s, adaptive packets scan their productive links,
    /// and an [`Engine::with_table`] engine reads its table under the
    /// table's policy. Such an engine asked for another policy first
    /// checks that every unit step of its topology has a link, before
    /// the first event.
    ///
    /// # Panics
    ///
    /// Panics if the injection rate is not positive, the traffic pattern
    /// / routing policy / fault config is invalid for this topology, or a
    /// table engine's topology lacks a unit step the requested policy
    /// needs.
    pub fn run(&mut self, config: &DesConfig) -> DesResult {
        assert!(
            config.injection_rate > 0.0,
            "injection rate must be positive"
        );
        let n = self.topo.num_modules();
        assert!(n >= 2, "need at least two modules");
        if let Some(problem) = config.traffic.problem(n) {
            panic!("invalid traffic pattern: {problem}");
        }
        if let Some(problem) = config.fault.problem() {
            panic!("invalid fault config: {problem}");
        }
        if let Some(problem) = config.routing.problem() {
            panic!("invalid routing policy: {problem}");
        }
        if self
            .table
            .as_ref()
            .is_some_and(|t| t.kind() != config.routing)
        {
            assert_unit_steps(&self.topo, config.routing);
        }
        self.routing = config.routing;

        let Engine {
            topo,
            routing: _,
            table,
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
        let route_choices = config.routing.choices();
        let adaptive = config.routing == RoutingKind::Adaptive;
        // The table, when this run reads one (adaptive runs scan instead).
        let table: Option<&RouteTable> = table
            .as_deref()
            .filter(|t| !adaptive && t.kind() == config.routing);
        let dims = topo.dims();
        let vcs = config.routing.safe_vcs();
        let params = RouterParams::default();

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
                let dst = config.traffic.dest(module, topo, &mut rng);
                let measured = injected >= config.warmup_packets && injected < total_tracked;
                let choice = route_choice(config.seed, injected as u64, module, dst, route_choices);
                // A table-routed packet starts at its route's span in the
                // flat link buffer; every other packet at its source
                // router with its route program. Adaptive packets take
                // only the program's hop count, the Manhattan distance
                // (adaptive routing is minimal), and their VC: the
                // virtual network, fixed here for the packet's life.
                let src_r = topo.router_of(module);
                let dst_r = topo.router_of(dst);
                let (at, hops, program) = match table {
                    Some(table) => {
                        let span = table.span_choice(module, dst, choice);
                        (span.start, span.len(), RouteProgram::default())
                    }
                    None => {
                        let coord = |r| topo.coord(r);
                        let (program, [first, second], _) =
                            RouteProgram::plan(dims, config.routing, src_r, dst_r, choice, coord);
                        (src_r, first + second, program)
                    }
                };
                let vc = if adaptive {
                    adaptive_network(topo.coord(src_r), topo.coord(dst_r)) as u8
                } else {
                    0
                };
                let slot = PacketSlot {
                    t_inject: now,
                    pkt: injected as u64,
                    at: at as u32,
                    remaining: hops as u32,
                    hops: hops as u32,
                    attempt: 0,
                    dst: dst as u32,
                    program,
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
                let ready = entry(&mut seq, now + params.routing_delay, READY_TAG | pid);
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
                let svc = exp_sample(&mut rng, params.service_time);
                let p = packets[pid];
                if p.remaining > 0 {
                    // Inter-router link stage. A corrupted transmission
                    // still occupies the link for the full service time
                    // (the receiver only detects the bad frame on
                    // arrival). `next_at` is where the packet stands once
                    // across; it and the stepped `program` are kept only
                    // if the hop succeeds, so a retry takes the same step.
                    let mut program = p.program;
                    let (l, next_at) = if adaptive {
                        // Congestion-aware choice among the productive
                        // links (one per unfinished dimension): ascending
                        // (server-free, vc-free, link id). A pure
                        // function of queue state — shared verbatim with
                        // the reference oracle, so no RNG and no
                        // bit-divergence. All-idle ties fall to the
                        // lowest link id, i.e. dimension order at low
                        // load; an ARQ retry re-runs the scan and may
                        // steer around the congestion it just hit.
                        let cur = p.at as usize;
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
                        (best, topo.links()[best].dst as u32)
                    } else if let Some(table) = table {
                        (table.flat_links()[p.at as usize] as usize, p.at + 1)
                    } else {
                        // The first step of the route program's next run;
                        // the unit-step check at construction (or before
                        // this run, for a table engine) guarantees its link.
                        let cur = p.at as usize;
                        let dst_r = topo.router_of(p.dst as usize);
                        let (axis, positive, _) = program
                            .next_run(topo.coord(cur), dst_r, |r| topo.coord(r))
                            .expect("a packet with hops left has a next run");
                        let l = topo
                            .step_link(cur, axis, positive)
                            .expect("every unit step has a link");
                        (l, topo.links()[l].dst as u32)
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
                    let corrupted = faults
                        && link_p[l] > 0.0
                        && corrupt_unit(config.seed, p.pkt, p.hops - p.remaining, p.attempt)
                            < link_p[l];
                    if !corrupted {
                        packets[pid].at = next_at;
                        packets[pid].program = program;
                        packets[pid].remaining -= 1;
                        packets[pid].attempt = 0;
                        // Next router pipeline, then next queue.
                        let ready = entry(
                            &mut seq,
                            finish + params.routing_delay,
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

    /// One policy of each kind the engine routes differently.
    const POLICIES: [RoutingKind; 5] = [
        RoutingKind::DimensionOrder,
        RoutingKind::O1Turn,
        RoutingKind::Valiant { choices: 8 },
        RoutingKind::RlbValiant { choices: 3 },
        RoutingKind::Adaptive,
    ];

    #[test]
    fn policy_switch_matches_a_fresh_engine() {
        // One engine serves configs with different routing kinds — table
        // engines included — and each run matches a fresh engine built
        // for that policy.
        let topo = Topology::mesh3d(3, 3, 3);
        let base = DesConfig {
            warmup_packets: 200,
            measured_packets: 2_000,
            ..DesConfig::default()
        };
        let mut engine = Engine::new(&topo);
        let mut tabled = Engine::with_table(&topo, Arc::new(RouteTable::new(&topo)));
        for routing in [
            RoutingKind::O1Turn,
            RoutingKind::valiant(),
            RoutingKind::Adaptive,
            RoutingKind::DimensionOrder,
        ] {
            let cfg = DesConfig { routing, ..base };
            let want = Engine::with_routing(&topo, routing).run(&cfg);
            assert_eq!(engine.run(&cfg), want, "{}", routing.name());
            assert_eq!(engine.routing(), routing);
            assert_eq!(tabled.run(&cfg), want, "table engine, {}", routing.name());
        }
    }

    #[test]
    fn with_table_matches_with_routing_bit_for_bit() {
        // An engine around an icdb table reads the CSR; one without steps
        // route programs. Same routes, same runs.
        use crate::icdb::ExpandedGrid;
        let topo = Topology::mesh3d(3, 3, 3);
        let grid = ExpandedGrid::mesh3d(3, 3, 3);
        for routing in POLICIES {
            let cfg = DesConfig {
                routing,
                warmup_packets: 200,
                measured_packets: 2_000,
                ..DesConfig::default()
            };
            let table = Arc::new(RouteTable::from_routes(&topo, routing, |a, b, c, out| {
                grid.route_into(routing, a, b, c, out)
            }));
            assert_eq!(
                Engine::with_table(&topo, table).run(&cfg),
                Engine::with_routing(&topo, routing).run(&cfg),
                "{}",
                routing.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "no link leaves router")]
    fn with_routing_rejects_a_pillar_mesh_at_construction() {
        // Only every second column carries vertical links.
        let pillar = crate::irregular::PillarMesh3d::new(4, 4, 2, 2);
        Engine::with_routing(pillar.topology(), RoutingKind::DimensionOrder);
    }

    #[test]
    #[should_panic(expected = "along axis 0 (+) for the o1turn route")]
    fn hybrid_engine_asked_for_o1turn_fails_before_the_first_event() {
        // The +x steps across the board gap are radio links spanning a
        // board pitch, not unit steps.
        let h = crate::icdb::HybridBoards::with_radio_count(2, [4, 4, 2], 1);
        let mut engine = Engine::with_table(h.topology(), Arc::new(h.route_table()));
        engine.run(&DesConfig {
            routing: RoutingKind::O1Turn,
            ..DesConfig::default()
        });
    }

    #[test]
    fn with_routing_scales_past_any_route_table() {
        // 4096 routers under valiant:8: an all-pairs table would hold
        // 4096² · 8 routes (about 16 GiB); the engine holds none and still
        // matches the table-free oracle bit for bit.
        let topo = Topology::mesh3d(16, 16, 16);
        let cfg = DesConfig {
            routing: RoutingKind::valiant(),
            injection_rate: 0.002,
            warmup_packets: 200,
            measured_packets: 1_000,
            ..DesConfig::default()
        };
        let got = Engine::with_routing(&topo, cfg.routing).run(&cfg);
        assert!(got.completed && got.delivered == 1_000);
        assert_eq!(got, crate::des::reference::simulate(&topo, &cfg));
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
