//! The original per-event-allocating simulator, retained as the
//! correctness oracle for the arena engine.
//!
//! This is the PR-1 `decoder::reference` pattern applied to the DES: the
//! code below is the pre-refactor simulator, kept unoptimized on purpose.
//! It pushes a fresh `Event` and a fresh `Packet` (with a freshly walked
//! link `Vec`) for everything it schedules, and its event heap is keyed
//! on raw `f64` time — exactly the behaviour
//! [`crate::des::engine`] removes. The `des` module tests assert that the
//! two simulators produce bit-identical [`DesResult`]s, and the `des_sim`
//! benches measure the speedup against it.
//!
//! Only uniform traffic is implemented here (the pre-refactor simulator
//! knew nothing else): [`simulate`] panics, naming the pattern, when the
//! `traffic` field of [`DesConfig`] asks for any other, rather than
//! simulating a different workload than the engine it is compared with.
//! Routing policies **are** implemented — the oracle picks the same
//! per-packet [`route_choice`] the engine does and then walks the chosen
//! route into a fresh link list with [`crate::routing::walk_route`], so
//! the `des` module tests can pin the engine's route programs bit-for-bit.
//!
//! The fault/ARQ path of [`crate::des::fault`] is re-materialized here
//! in the same naive style: per-hop error probabilities are recomputed
//! from the config on every transmission (no precomputed per-link
//! table), retries push fresh heap events, and the corruption decision
//! shares the engine's pure `(seed, packet, hop, attempt)` hash — so
//! the bit-identical contract extends to faulty runs.
//!
//! Adaptive routing is re-materialized naively too: every hop re-derives
//! the productive candidate links from the packet's coordinates, one
//! [`Topology::step_link`] lookup per unfinished dimension, and applies
//! the same pure (server-free, vc-free, link id) comparison the engine's
//! arena loop uses — congestion-aware decisions never touch the RNG, so
//! the bit-identical contract survives them. The engine reads the same
//! unit-step table, so that table is checked on its own against the
//! closed-form [`crate::icdb::ExpandedGrid::link_id`].

use super::fault::corrupt_unit;
use super::traffic::{TrafficKind, TrafficPattern};
use super::{DesConfig, DesResult};
use crate::analytic::RouterParams;
use crate::routing::{adaptive_network, route_choice, walk_topology, RoutingKind};
use crate::topology::Topology;
use rand::Rng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use wi_num::rng::seeded_rng;
use wi_num::stats::Running;

/// Total-ordering wrapper for event timestamps.
#[derive(Clone, Copy, Debug, PartialEq)]
struct TimeKey(f64);

impl Eq for TimeKey {}

impl PartialOrd for TimeKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for TimeKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Clone, Copy, Debug)]
enum Event {
    /// A module's next packet injection.
    Inject { module: usize },
    /// A packet is ready to join the queue of its next stage.
    Ready { packet: usize },
}

struct Packet {
    t_inject: f64,
    /// Link ids along the route (empty under adaptive routing, which has
    /// no precomputed route — every hop is re-derived from queue state).
    links: Vec<u32>,
    dst_module: usize,
    next_stage: usize,
    /// Inter-router hops the packet must make (`links.len()` for
    /// precomputed routes, the Manhattan distance under adaptive).
    total_hops: usize,
    /// Current router (meaningful under adaptive routing only).
    cur_router: usize,
    /// Virtual channel: the packet's Linder–Harden virtual network under
    /// adaptive routing, 0 otherwise.
    vc: usize,
    /// ARQ retransmissions already spent on the current hop.
    attempt: u32,
    measured: bool,
}

/// Runs the reference simulation (uniform traffic only).
///
/// # Panics
///
/// Panics if the traffic pattern is not [`TrafficKind::Uniform`], the
/// injection rate is not positive or the topology has fewer than two
/// modules.
pub fn simulate(topo: &Topology, config: &DesConfig) -> DesResult {
    assert!(
        config.traffic == TrafficKind::Uniform,
        "des::reference simulates uniform traffic only, not {}",
        config.traffic.name()
    );
    assert!(
        config.injection_rate > 0.0,
        "injection rate must be positive"
    );
    let n = topo.num_modules();
    assert!(n >= 2, "need at least two modules");

    let mut rng = seeded_rng(config.seed);
    let mut heap: BinaryHeap<Reverse<(TimeKey, u64, usize)>> = BinaryHeap::new();
    // Events stored separately so the heap stays Copy-friendly.
    let mut events: Vec<Event> = Vec::new();
    let mut seq = 0u64;
    let mut push = |heap: &mut BinaryHeap<_>, events: &mut Vec<Event>, t: f64, e: Event| {
        events.push(e);
        let id = events.len() - 1;
        seq += 1;
        heap.push(Reverse((TimeKey(t), seq, id)));
    };

    let adaptive = config.routing == RoutingKind::Adaptive;
    let vcs = config.routing.safe_vcs();
    let params = RouterParams::default();
    let mut link_free = vec![0.0f64; topo.num_links()];
    let mut vc_free = vec![0.0f64; if adaptive { topo.num_links() * vcs } else { 0 }];
    let mut ej_free = vec![0.0f64; n];
    let mut packets: Vec<Packet> = Vec::new();

    let mut injected = 0usize;
    let total_tracked = config.warmup_packets + config.measured_packets;
    let mut delivered_measured = 0usize;
    let mut dropped_measured = 0usize;
    let mut retries_total = 0u64;
    let mut link_retries = vec![0u64; topo.num_links()];
    let mut stats = Running::new();
    let mut event_count = 0u64;

    let exp_sample = |rng: &mut rand::rngs::StdRng, mean: f64| -> f64 {
        let u: f64 = 1.0 - rng.gen::<f64>();
        -mean * u.ln()
    };

    // Seed one injection per module.
    for m in 0..n {
        let t = exp_sample(&mut rng, 1.0 / config.injection_rate);
        push(&mut heap, &mut events, t, Event::Inject { module: m });
    }

    while let Some(Reverse((TimeKey(now), _, eid))) = heap.pop() {
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
        match events[eid] {
            Event::Inject { module } => {
                // Uniform destination, excluding self.
                let mut dst = rng.gen_range(0..n - 1);
                if dst >= module {
                    dst += 1;
                }
                let choice = route_choice(
                    config.seed,
                    injected as u64,
                    module,
                    dst,
                    config.routing.choices(),
                );
                let measured = injected >= config.warmup_packets && injected < total_tracked;
                let src_r = topo.router_of(module);
                let dst_r = topo.router_of(dst);
                let (links, total_hops, cur_router, vc) = if adaptive {
                    (
                        Vec::new(),
                        topo.router_distance(src_r, dst_r),
                        src_r,
                        adaptive_network(topo.coord(src_r), topo.coord(dst_r)),
                    )
                } else {
                    let mut links = Vec::new();
                    walk_topology(topo, config.routing, src_r, dst_r, choice, &mut links);
                    let hops = links.len();
                    (links, hops, 0, 0)
                };
                packets.push(Packet {
                    t_inject: now,
                    links,
                    dst_module: dst,
                    next_stage: 0,
                    total_hops,
                    cur_router,
                    vc,
                    attempt: 0,
                    measured,
                });
                injected += 1;
                let pid = packets.len() - 1;
                // Traverse the source router pipeline, then queue.
                push(
                    &mut heap,
                    &mut events,
                    now + params.routing_delay,
                    Event::Ready { packet: pid },
                );
                // Keep offering load until measurement finishes.
                if delivered_measured + dropped_measured < config.measured_packets {
                    let t_next = now + exp_sample(&mut rng, 1.0 / config.injection_rate);
                    push(&mut heap, &mut events, t_next, Event::Inject { module });
                }
            }
            Event::Ready { packet } => {
                let svc = exp_sample(&mut rng, params.service_time);
                let stage = packets[packet].next_stage;
                if stage < packets[packet].total_hops {
                    // Inter-router link stage. A corrupted transmission
                    // still occupies the link for the full service time.
                    let l = if adaptive {
                        // Naive re-derivation of the congestion-aware
                        // choice: look up every productive neighbor link
                        // and apply the same pure (server-free, vc-free,
                        // link id) order the arena engine computes.
                        let cur = packets[packet].cur_router;
                        let here = topo.coord(cur);
                        let target = topo.coord(topo.router_of(packets[packet].dst_module));
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
                                vc_free[cand * vcs + packets[packet].vc].max(now),
                                cand as u32,
                            );
                            if key < best_key {
                                best_key = key;
                                best = cand;
                            }
                        }
                        best
                    } else {
                        packets[packet].links[stage] as usize
                    };
                    let start = now.max(link_free[l]);
                    let finish = start + svc;
                    link_free[l] = finish;
                    if adaptive {
                        vc_free[l * vcs + packets[packet].vc] = finish;
                    }
                    // Naive re-derivation of the per-hop error
                    // probability (the engine precomputes it per link);
                    // the corruption decision is the shared pure hash, so
                    // no RNG is consumed.
                    let p_err = config.fault.static_link_p(topo, l, config.seed);
                    let attempt = packets[packet].attempt;
                    let corrupted = p_err > 0.0
                        && corrupt_unit(config.seed, packet as u64, stage as u32, attempt) < p_err;
                    if !corrupted {
                        if adaptive {
                            packets[packet].cur_router = topo.links()[l].dst;
                        }
                        packets[packet].next_stage += 1;
                        packets[packet].attempt = 0;
                        // Next router pipeline, then next queue.
                        push(
                            &mut heap,
                            &mut events,
                            finish + params.routing_delay,
                            Event::Ready { packet },
                        );
                    } else if attempt >= config.fault.arq.max_retries {
                        // ARQ exhausted: the packet is dropped (no
                        // further event is scheduled for it).
                        if packets[packet].measured {
                            dropped_measured += 1;
                            if delivered_measured + dropped_measured >= config.measured_packets {
                                break;
                            }
                        }
                    } else {
                        // Retransmit the same hop after timeout + backoff.
                        packets[packet].attempt += 1;
                        retries_total += 1;
                        link_retries[l] += 1;
                        push(
                            &mut heap,
                            &mut events,
                            finish + config.fault.rto(attempt),
                            Event::Ready { packet },
                        );
                    }
                } else {
                    // Ejection stage.
                    let m = packets[packet].dst_module;
                    let start = now.max(ej_free[m]);
                    let finish = start + svc;
                    ej_free[m] = finish;
                    if packets[packet].measured {
                        stats.push(finish - packets[packet].t_inject);
                        delivered_measured += 1;
                        if delivered_measured + dropped_measured >= config.measured_packets {
                            break;
                        }
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
