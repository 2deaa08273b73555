//! The MPLS/IP data plane: one probe, one walk.
//!
//! [`probe`] injects a single traceroute probe (a TTL-limited packet)
//! at a vantage point and walks it router by router, reproducing the
//! behaviours LPR later decodes:
//!
//! * IP TTL decrement, and — inside tunnels — LSE-TTL decrement with
//!   `ttl-propagate` copying the IP TTL into the pushed entry (§2.3);
//! * label push at the ingress LER (LDP towards the BGP next-hop's
//!   loopback, or one of the pair's RSVP-TE LSPs selected per
//!   destination prefix — the *multi-FEC on destination basis* the
//!   paper singles out);
//! * label swap with per-router LDP scope, per-LSP RSVP-TE labels;
//! * penultimate-hop popping (implicit-null) or UHP (explicit-null);
//! * ECMP across equal-cost next hops **and** parallel links, hashed on
//!   the flow identifier (Paris traceroute keeps it constant per
//!   trace);
//! * RFC 4950 label-stack quoting in `time-exceeded` replies, with the
//!   reply sourced from the incoming interface.
//!
//! Invisible tunnels (`ttl-propagate` off) are modelled as a teleport:
//! interior LSRs neither decrement the IP TTL nor appear in traces.

use crate::internet::{splitmix64, Internet, TunnelVisibility};
use crate::rsvp::TeLsp;
use crate::topology::{AsId, RouterId, Topology};
use lpr_core::label::{Label, Lse};
use std::net::Ipv4Addr;

/// The outcome of one probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProbeReply {
    /// TTL expired at a router.
    TimeExceeded {
        /// The expiring router.
        router: RouterId,
        /// Reply source: the incoming interface of the probe.
        addr: Ipv4Addr,
        /// RFC 4950 quoted label stack (empty when the packet carried
        /// no labels or the router does not implement the extension).
        stack: Vec<Lse>,
        /// The reply detoured via the tunnel tail before returning
        /// (an interior LSR of an implicit tunnel cannot route the
        /// ICMP itself) — the probe layer inflates the hop's RTT by
        /// [`crate::probe::UTURN_DETOUR_US`], TNT's RTLA signature.
        uturn: bool,
    },
    /// The destination replied.
    Echo {
        /// The destination address.
        addr: Ipv4Addr,
    },
    /// No route to the destination (or unknown endpoint).
    Unreachable,
}

/// How a [`probe_ladder`] walk ended, after its recorded expiry events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum LadderEnd {
    /// The destination replies to every TTL beyond the recorded events.
    Echo {
        /// The destination address.
        addr: Ipv4Addr,
    },
    /// TTLs beyond the recorded events go unanswered (no route, or an
    /// unknown endpoint: with zero events recorded every TTL is
    /// unanswered).
    Unreachable,
    /// `max_events` expiries were recorded before any terminal.
    Truncated,
}

#[derive(Debug)]
enum TunnelKind<'a> {
    Ldp { ingress: RouterId, egress: RouterId },
    Te { lsp: &'a TeLsp, pos: usize },
    /// Only the VPN service label remains (the transport label was
    /// popped by the penultimate router): the packet is on its final
    /// hop towards the egress PE, which pops the service label.
    Service,
}

#[derive(Debug)]
struct Tunnel<'a> {
    kind: TunnelKind<'a>,
    /// The (transport) label the packet carried when arriving at the
    /// current router (what RFC 4950 would quote at the top).
    arriving: Option<Label>,
    /// The bottom-of-stack VPN service label, when the pair carries
    /// RFC 4364 traffic.
    service: Option<Label>,
    /// How this tunnel presents itself to traceroute. Anything but
    /// [`TunnelVisibility::Explicit`] comes from the pair's
    /// [`crate::internet::VisibilityMix`] assignment and alters what
    /// the expiry events show (stack suppression, u-turn RTTs, the
    /// opaque one-hop stack).
    vis: TunnelVisibility,
}

impl Tunnel<'_> {
    /// The RFC 4950 stack quoted when a probe expires here.
    ///
    /// The quoted TTL is always exactly 1: the LSE TTL is pushed as a
    /// copy of the remaining IP TTL (`ttl-propagate`) and both
    /// decrement once per visible hop, so the entry whose TTL runs out
    /// is received with TTL 1 — never 0, never more.
    fn quoted_stack(&self) -> Vec<Lse> {
        let mut stack = Vec::new();
        match self.kind {
            TunnelKind::Service => {
                if let Some(svc) = self.service {
                    stack.push(Lse::new(svc, 0, true, 1));
                }
            }
            _ => {
                if let Some(top) = self.arriving {
                    stack.push(Lse::new(top, 0, self.service.is_none(), 1));
                    if let Some(svc) = self.service {
                        stack.push(Lse::new(svc, 0, true, 1));
                    }
                }
            }
        }
        stack
    }

    /// The quirky stack an opaque tunnel's tail LSR quotes: a single
    /// entry whose LSE TTL is 255 — a *fresh*, non-propagated entry
    /// (the whole LSP collapsed into this one hop), where propagated
    /// entries always expire at exactly TTL 1. Quoted regardless of
    /// the AS's RFC 4950 knob: the implausible TTL *is* the artifact
    /// TNT keys its opaque trigger on.
    fn opaque_stack(&self) -> Vec<Lse> {
        match self.arriving {
            Some(top) => vec![Lse::new(top, 0, true, 255)],
            None => Vec::new(),
        }
    }
}

/// One hidden- or invisible-tunnel traversal a forwarding walk made —
/// ground truth the revelation property tests check against. Recorded
/// only when `probe_ladder` is handed an oracle sink, and only for
/// LDP tunnels whose visibility is not explicit (explicit tunnels need
/// no revelation).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct OracleTraversal {
    /// The AS the tunnel runs through.
    pub as_id: AsId,
    /// Ingress LER.
    pub ingress: RouterId,
    /// Egress LER.
    pub egress: RouterId,
    /// The address the trace shows for the ingress LER (its arrival
    /// interface) — what a revelation trigger reports as the tunnel's
    /// near end.
    pub ingress_addr: Ipv4Addr,
    /// The address the trace shows for the egress LER, once the walk
    /// arrives there (`None` when the walk ended inside the tunnel).
    pub egress_addr: Option<Ipv4Addr>,
    /// How the tunnel presented itself.
    pub visibility: TunnelVisibility,
    /// Arrival addresses of the interior LSRs this flow's LSP pins,
    /// in order (empty for an ingress adjacent to its egress).
    pub interior: Vec<Ipv4Addr>,
}

/// Flow-hash selection of one index among `n`.
fn pick(flow: u64, router: RouterId, n: usize, salt: u64) -> usize {
    debug_assert!(n > 0);
    (splitmix64(flow ^ ((router.0 as u64) << 32) ^ (salt << 56)) % n as u64) as usize
}

/// Hash-domain salt for equal-cost **next-hop** choice.
pub const ECMP_SALT: u64 = 0x22;

/// Hash-domain salt for **parallel-link** (bundle member) choice; a
/// distinct domain from [`ECMP_SALT`] so the two levels of balancing
/// decorrelate even at the same router.
pub const LINK_SALT: u64 = 0x11;

/// The explicit Paris flow-id → ECMP-hash mapping: the equal-cost
/// next-hop index a flow identifier selects at `router` when `n` next
/// hops are on offer. This *is* the function the forwarding walk
/// applies (per-flow load balancing: constant within a trace), exposed
/// so an MDA prober can steer flows deterministically towards a chosen
/// branch instead of sampling the flow space blind.
pub fn ecmp_index(flow: u64, router: RouterId, n: usize) -> usize {
    pick(flow, router, n, ECMP_SALT)
}

/// The parallel-link member index a flow identifier selects at
/// `router` across an `n`-wide bundle — the [`ecmp_index`] companion
/// for the second balancing level.
pub fn link_index(flow: u64, router: RouterId, n: usize) -> usize {
    pick(flow, router, n, LINK_SALT)
}

/// Searches the flow space around `base` for identifiers covering every
/// ECMP index at `router`: slot `i` of the result satisfies
/// `ecmp_index(flow, router, n) == i`. The search is deterministic
/// (seeded walks of `splitmix64`), and with a uniform hash the expected
/// cost is `O(n log n)` trials; a slot that stays uncovered after the
/// bounded search falls back to `base` (vanishingly unlikely for the
/// fan-outs real routers have).
pub fn steering_flows(base: u64, router: RouterId, n: usize) -> Vec<u64> {
    let mut out: Vec<Option<u64>> = vec![None; n];
    let mut found = 0usize;
    for attempt in 0..(64 * n.max(1) as u64) {
        let flow = if attempt == 0 {
            base
        } else {
            splitmix64(base ^ (attempt << 7) ^ ((router.0 as u64) << 40))
        };
        let i = ecmp_index(flow, router, n);
        if out[i].is_none() {
            out[i] = Some(flow);
            found += 1;
            if found == n {
                break;
            }
        }
    }
    out.into_iter().map(|slot| slot.unwrap_or(base)).collect()
}

/// The per-/24 selection key used for BGP tie-breaking and TE LSP
/// binding (the FEC is destination-prefix based).
pub fn prefix_key(dst: Ipv4Addr) -> u64 {
    splitmix64((u32::from(dst) >> 8) as u64)
}

/// Chooses one of the (possibly parallel) links from `cur` towards the
/// *known* adjacent router `next`; returns the chosen interface id's
/// peer-side arrival address.
fn pick_link(topo: &Topology, cur: RouterId, next: RouterId, flow: u64) -> Option<Ipv4Addr> {
    let mut ifaces: Vec<_> = topo
        .intra_neighbors(cur)
        .filter(|(_, peer)| *peer == next)
        .map(|(iface, _)| iface.id)
        .collect();
    ifaces.sort();
    if ifaces.is_empty() {
        return None;
    }
    let chosen = ifaces[pick(flow, cur, ifaces.len(), LINK_SALT)];
    Some(topo.iface(topo.iface(chosen).peer).addr)
}

/// Walks the flow's ECMP choice chain from `from` towards `to` — the
/// router sequence an LDP tunnel for this flow pins (`gate` is the
/// tunnel ingress, the ECMP gate key the data plane uses along an
/// LSP). Returns the interior routers strictly between the endpoints,
/// each with the arrival address a trace would show, or `None` when no
/// route exists.
fn flow_path_interior(
    net: &Internet,
    as_id: AsId,
    from: RouterId,
    to: RouterId,
    gate: RouterId,
    flow: u64,
) -> Option<Vec<(RouterId, Ipv4Addr)>> {
    let topo = &net.topo;
    let mut out = Vec::new();
    let mut w = from;
    loop {
        let nhs = net.ecmp_nexthops(as_id, w, to, gate);
        if nhs.is_empty() {
            return None;
        }
        let iface_id = nhs[pick(flow, w, nhs.len(), ECMP_SALT)];
        let peer_iface = topo.iface(topo.iface(iface_id).peer);
        if peer_iface.router == to {
            return Some(out);
        }
        out.push((peer_iface.router, peer_iface.addr));
        if out.len() > 4096 {
            return None; // unreachable on sane topologies
        }
        w = peer_iface.router;
    }
}

/// Sends one probe with the given TTL from a vantage point towards a
/// destination; `flow` is the Paris flow identifier (constant per
/// trace).
///
/// Implemented on the single-walk `probe_ladder`: since path choice
/// never depends on the TTL, the reply to TTL `t` is the `t`-th expiry
/// event of one walk (or the walk's terminal beyond the last expiry).
pub fn probe(net: &Internet, vp: Ipv4Addr, dst: Ipv4Addr, probe_ttl: u8, flow: u64) -> ProbeReply {
    // TTL 0 expires on first arrival exactly like TTL 1.
    let want = (probe_ttl as usize).max(1);
    let mut events = Vec::new();
    match probe_ladder(net, vp, dst, flow, want, &mut events, None) {
        LadderEnd::Truncated => events.pop().expect("truncated ladder recorded events"),
        LadderEnd::Echo { addr } => ProbeReply::Echo { addr },
        LadderEnd::Unreachable => ProbeReply::Unreachable,
    }
}

/// Walks the forwarding path from `vp` towards `dst` **once**, pushing
/// onto `out` the [`ProbeReply::TimeExceeded`] a probe of TTL
/// `out.len() + 1` would get — every walk step consumes exactly one TTL
/// unit, so the i-th arrival is where the i-th TTL dies. Returns how
/// the path ends for every TTL past the recorded events.
///
/// This turns the O(hops²) per-TTL re-walk of a traceroute ladder into
/// a single O(hops) pass; [`probe`] remains as the one-TTL view.
pub(crate) fn probe_ladder(
    net: &Internet,
    vp: Ipv4Addr,
    dst: Ipv4Addr,
    flow: u64,
    max_events: usize,
    out: &mut Vec<ProbeReply>,
    mut oracle: Option<&mut Vec<OracleTraversal>>,
) -> LadderEnd {
    let topo = &net.topo;
    let Some(vp_at) = net.vp_attachment(vp) else {
        return LadderEnd::Unreachable;
    };
    // Infrastructure destinations (revelation probes aimed at a router
    // address a trace exposed) are reached via the IGP and — unless the
    // AS binds infrastructure FECs — never label-switched: TNT's DPR
    // hinges on exactly this.
    let (dest_at, infra_dest) = match net.dest_attachment(dst) {
        Some(at) => (Some(at), false),
        None => match net.infra_attachment(dst) {
            Some(at) => (Some(at), true),
            None => (None, false),
        },
    };

    let mut cur = vp_at.router;
    let mut arrival = topo.router(cur).loopback;
    let mut tunnel: Option<Tunnel<'_>> = None;
    let mut entered_as = true;
    // Index into the oracle sink of the traversal whose egress the
    // walk has not reached yet (tunnels are sequential, so one slot).
    let mut pending_oracle: Option<usize> = None;

    loop {
        let as_id = topo.router(cur).as_id;
        let cfg = net.config(as_id);

        // Oracle bookkeeping: a pending traversal completes when the
        // walk arrives at its egress; record the address a trace shows.
        if let (Some(orc), Some(idx)) = (oracle.as_deref_mut(), pending_oracle) {
            if orc[idx].egress == cur {
                orc[idx].egress_addr = Some(arrival);
                pending_oracle = None;
            }
        }

        // --- TTL expiry on arrival: the probe whose last TTL unit was
        // consumed reaching this router dies here. ---------------------
        let stack = match &tunnel {
            Some(t) if t.vis == TunnelVisibility::Opaque => t.opaque_stack(),
            Some(t) if cfg.rfc4950 && t.vis != TunnelVisibility::Implicit => t.quoted_stack(),
            _ => Vec::new(),
        };
        let uturn = matches!(
            &tunnel,
            Some(t) if t.vis == TunnelVisibility::Implicit
                && matches!(t.kind, TunnelKind::Ldp { egress, .. } if egress != cur)
        );
        out.push(ProbeReply::TimeExceeded { router: cur, addr: arrival, stack, uturn });
        if out.len() >= max_events {
            return LadderEnd::Truncated;
        }

        // --- UHP: explicit-null arrives at the egress LER, which pops
        // and routes the inner packet. A lone service label (PHP'd
        // transport) is likewise popped by the egress PE.
        if let Some(t) = &tunnel {
            let at_service_end = matches!(t.kind, TunnelKind::Service);
            if t.arriving == Some(Label::IPV4_EXPLICIT_NULL) || at_service_end {
                tunnel = None;
            }
        }

        // --- Local delivery ------------------------------------------
        if tunnel.is_none() {
            if let Some(at) = dest_at {
                if at.router == cur {
                    return LadderEnd::Echo { addr: dst };
                }
            }
        }

        // --- Forwarding ----------------------------------------------
        match tunnel.take() {
            Some(Tunnel { kind: TunnelKind::Te { lsp, pos }, service, .. }) => {
                let next = lsp.path[pos + 1];
                let Some(next_arrival) = pick_link(topo, cur, next, flow) else {
                    return LadderEnd::Unreachable;
                };
                let arr = lsp.arriving_label(pos + 1);
                let at_egress = pos + 1 == lsp.path.len() - 1;
                if arr.is_none() && at_egress {
                    // PHP: the transport label pops here. Without a
                    // service label the egress receives plain IP;
                    // with one, the service entry rides the last hop.
                    if service.is_some() {
                        tunnel = Some(Tunnel {
                            kind: TunnelKind::Service,
                            arriving: None,
                            service,
                            vis: TunnelVisibility::Explicit,
                        });
                    }
                } else {
                    tunnel = Some(Tunnel {
                        kind: TunnelKind::Te { lsp, pos: pos + 1 },
                        arriving: arr,
                        service,
                        vis: TunnelVisibility::Explicit,
                    });
                }
                cur = next;
                arrival = next_arrival;
                entered_as = false;
            }
            // A lone service label is popped on arrival at the egress
            // PE (handled above); it never reaches the forwarding
            // stage.
            Some(Tunnel { kind: TunnelKind::Service, .. }) => {
                return LadderEnd::Unreachable;
            }
            Some(Tunnel { kind: TunnelKind::Ldp { ingress, egress }, service, vis, .. }) => {
                let nhs = net.ecmp_nexthops(as_id, cur, egress, ingress);
                if nhs.is_empty() {
                    return LadderEnd::Unreachable;
                }
                // An opaque tunnel's artifact is its tail LSR's single
                // quirky hop; past the tail the walk is ordinary.
                let vis = if vis == TunnelVisibility::Opaque {
                    TunnelVisibility::Explicit
                } else {
                    vis
                };
                let iface_id = nhs[pick(flow, cur, nhs.len(), ECMP_SALT)];
                let peer_iface = topo.iface(topo.iface(iface_id).peer);
                let next = peer_iface.router;
                let ldp = net.ldp(as_id).expect("LDP tunnel implies LDP state");
                tunnel = match ldp.advertised(next, egress) {
                    crate::ldp::LdpLabel::Label(l) => Some(Tunnel {
                        kind: TunnelKind::Ldp { ingress, egress },
                        arriving: Some(l),
                        service,
                        vis,
                    }),
                    crate::ldp::LdpLabel::ImplicitNull => {
                        if service.is_some() {
                            Some(Tunnel {
                                kind: TunnelKind::Service,
                                arriving: None,
                                service,
                                vis: TunnelVisibility::Explicit,
                            })
                        } else {
                            None
                        }
                    }
                    crate::ldp::LdpLabel::ExplicitNull => Some(Tunnel {
                        kind: TunnelKind::Ldp { ingress, egress },
                        arriving: Some(Label::IPV4_EXPLICIT_NULL),
                        service,
                        vis,
                    }),
                };
                cur = next;
                arrival = peer_iface.addr;
                entered_as = false;
            }
            None => {
                // Plain IP: figure out the intra-AS target.
                let internal = dest_at.filter(|at| at.as_id == as_id);
                let target = if let Some(at) = internal {
                    at.router
                } else {
                    let Some(at) = dest_at else { return LadderEnd::Unreachable };
                    let Some(opt) = net.bgp().egress_for(as_id, at.as_id, prefix_key(dst))
                    else {
                        return LadderEnd::Unreachable;
                    };
                    if opt.egress == cur {
                        // Leave the AS over the chosen peering link.
                        let peer_iface = topo.iface(topo.iface(opt.out_iface).peer);
                        cur = peer_iface.router;
                        arrival = peer_iface.addr;
                        entered_as = true;
                        continue;
                    }
                    opt.egress
                };

                // Ingress LER behaviour: push a label when this AS
                // tunnels this pair and the packet just entered.
                let may_tunnel = entered_as
                    && cfg.enabled
                    && cur != target
                    && (internal.is_none() || cfg.tunnel_internal_dests)
                    && (!infra_dest || cfg.infra_in_fec)
                    && net.pair_deployed(as_id, cur, target);

                // Per-pair visibility of the would-be LDP tunnel. TE
                // pairs stay explicit, and a legacy `ttl-propagate off`
                // AS hides every deployed pair without consulting the
                // mix.
                let legacy_invisible = !cfg.ttl_propagate;
                let vis = if may_tunnel
                    && !legacy_invisible
                    && !net.pair_te(as_id, cur, target)
                {
                    net.pair_visibility(as_id, cur, target)
                } else {
                    TunnelVisibility::Explicit
                };

                if may_tunnel && (legacy_invisible || vis != TunnelVisibility::Explicit) {
                    if let Some(orc) = oracle.as_deref_mut() {
                        let interior = flow_path_interior(net, as_id, cur, target, cur, flow)
                            .unwrap_or_default();
                        orc.push(OracleTraversal {
                            as_id,
                            ingress: cur,
                            egress: target,
                            ingress_addr: arrival,
                            egress_addr: None,
                            visibility: if legacy_invisible {
                                TunnelVisibility::Invisible
                            } else {
                                vis
                            },
                            interior: interior.into_iter().map(|(_, a)| a).collect(),
                        });
                        pending_oracle = Some(orc.len() - 1);
                    }
                }

                if may_tunnel && (legacy_invisible || vis == TunnelVisibility::Invisible) {
                    // Invisible tunnel: interior hops neither decrement
                    // the IP TTL nor reply; the packet reappears at the
                    // tunnel tail.
                    let loopback = topo.router(target).loopback;
                    if !legacy_invisible {
                        // Mix-driven invisible pair: the ingress
                        // pipelines the pop, so the egress also answers
                        // the TTL that died inside the tunnel — the
                        // duplicate-IP artifact TNT's DPR triggers on.
                        out.push(ProbeReply::TimeExceeded {
                            router: target,
                            addr: loopback,
                            stack: Vec::new(),
                            uturn: false,
                        });
                        if out.len() >= max_events {
                            return LadderEnd::Truncated;
                        }
                    }
                    cur = target;
                    arrival = loopback;
                    entered_as = false;
                    continue;
                }

                if may_tunnel && vis == TunnelVisibility::Opaque {
                    let Some(interior) =
                        flow_path_interior(net, as_id, cur, target, cur, flow)
                    else {
                        return LadderEnd::Unreachable;
                    };
                    if let Some(&(tail, tail_addr)) = interior.last() {
                        // The LSP collapses into its tail LSR: one
                        // labelled hop quoting a fresh (TTL 255) LSE,
                        // then the ordinary step to the egress.
                        let ldp = net.ldp(as_id).expect("MPLS enabled implies LDP state");
                        let label = match ldp.advertised(tail, target) {
                            crate::ldp::LdpLabel::Label(l) => Some(l),
                            crate::ldp::LdpLabel::ExplicitNull => {
                                Some(Label::IPV4_EXPLICIT_NULL)
                            }
                            crate::ldp::LdpLabel::ImplicitNull => None,
                        };
                        tunnel = Some(Tunnel {
                            kind: TunnelKind::Ldp { ingress: cur, egress: target },
                            arriving: label,
                            service: None,
                            vis: TunnelVisibility::Opaque,
                        });
                        cur = tail;
                        arrival = tail_addr;
                        entered_as = false;
                        continue;
                    }
                    // Ingress adjacent to its egress: nothing to
                    // collapse; fall through to the ordinary hop (the
                    // LDP push below sees implicit-null).
                }

                // VPN pairs stack a per-VRF service label under the
                // transport label (external destinations only: the
                // customer is identified by the destination AS).
                let service = if may_tunnel
                    && internal.is_none()
                    && net.pair_vpn(as_id, cur, target)
                {
                    dest_at.map(|at| {
                        net.service_label(target, topo.as_of(at.as_id).asn)
                    })
                } else {
                    None
                };

                if may_tunnel && net.pair_te(as_id, cur, target) {
                    let lsps = net.te_lsps(as_id, cur, target);
                    let lsp = &lsps[(prefix_key(dst) % lsps.len() as u64) as usize];
                    let next = lsp.path[1];
                    let Some(next_arrival) = pick_link(topo, cur, next, flow) else {
                        return LadderEnd::Unreachable;
                    };
                    let arr = lsp.arriving_label(1);
                    if arr.is_none() && lsp.path.len() == 2 && service.is_none() {
                        // One-hop TE tunnel with PHP: never visible.
                    } else if arr.is_none() && lsp.path.len() == 2 {
                        // One-hop tunnel, but the service label still
                        // rides to the egress PE.
                        tunnel = Some(Tunnel {
                            kind: TunnelKind::Service,
                            arriving: None,
                            service,
                            vis: TunnelVisibility::Explicit,
                        });
                    } else {
                        tunnel = Some(Tunnel {
                            kind: TunnelKind::Te { lsp, pos: 1 },
                            arriving: arr,
                            service,
                            vis: TunnelVisibility::Explicit,
                        });
                    }
                    cur = next;
                    arrival = next_arrival;
                    entered_as = false;
                    continue;
                }

                let nhs = net.ecmp_nexthops(as_id, cur, target, cur);
                if nhs.is_empty() {
                    return LadderEnd::Unreachable;
                }
                let iface_id = nhs[pick(flow, cur, nhs.len(), ECMP_SALT)];
                let peer_iface = topo.iface(topo.iface(iface_id).peer);
                let next = peer_iface.router;

                if may_tunnel {
                    // LDP push: the label is whatever the downstream
                    // router advertised for the egress FEC.
                    let ldp = net.ldp(as_id).expect("MPLS enabled implies LDP state");
                    tunnel = match ldp.advertised(next, target) {
                        crate::ldp::LdpLabel::Label(l) => Some(Tunnel {
                            kind: TunnelKind::Ldp { ingress: cur, egress: target },
                            arriving: Some(l),
                            service,
                            vis,
                        }),
                        // Adjacent egress with PHP: the transport
                        // entry is never visible, but a service label
                        // still rides the hop.
                        crate::ldp::LdpLabel::ImplicitNull => service.map(|_| Tunnel {
                            kind: TunnelKind::Service,
                            arriving: None,
                            service,
                            vis: TunnelVisibility::Explicit,
                        }),
                        crate::ldp::LdpLabel::ExplicitNull => Some(Tunnel {
                            kind: TunnelKind::Ldp { ingress: cur, egress: target },
                            arriving: Some(Label::IPV4_EXPLICIT_NULL),
                            service,
                            vis,
                        }),
                    };
                }
                cur = next;
                arrival = peer_iface.addr;
                entered_as = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::internet::{MplsConfig, TePathMode};
    use crate::topology::{AsSpec, Topology, TopologyParams};
    use crate::vendor::Vendor;
    use lpr_core::lsp::Asn;
    use std::collections::BTreeMap;

    fn build(cfg: MplsConfig) -> Internet {
        let specs = vec![
            AsSpec::transit(
                1,
                "t",
                Vendor::Juniper,
                TopologyParams { core_routers: 4, border_routers: 2, ..Default::default() },
            ),
            AsSpec::stub(100, "src", 0, 1),
            AsSpec::stub(200, "dst", 2, 0),
        ];
        let peerings = vec![(Asn(100), Asn(1), 1), (Asn(1), Asn(200), 1)];
        let topo = Topology::build(&specs, &peerings);
        let mut configs = BTreeMap::new();
        configs.insert(Asn(1), cfg);
        Internet::new(topo, &configs)
    }

    fn endpoints(net: &Internet) -> (Ipv4Addr, Ipv4Addr) {
        let vp = net.topo.vantage_points()[0].0;
        let dst = net.topo.destinations(1)[0];
        (vp, dst)
    }

    /// Runs the full TTL ladder and returns the replies.
    fn ladder(net: &Internet, vp: Ipv4Addr, dst: Ipv4Addr) -> Vec<ProbeReply> {
        let flow = 42u64;
        let mut out = Vec::new();
        for ttl in 1..=32 {
            let r = probe(net, vp, dst, ttl, flow);
            let done = matches!(r, ProbeReply::Echo { .. });
            out.push(r);
            if done {
                break;
            }
        }
        out
    }

    #[test]
    fn trace_reaches_destination() {
        let net = build(MplsConfig::disabled());
        let (vp, dst) = endpoints(&net);
        let replies = ladder(&net, vp, dst);
        assert!(matches!(replies.last(), Some(ProbeReply::Echo { .. })));
        // Without MPLS no reply carries labels.
        for r in &replies {
            if let ProbeReply::TimeExceeded { stack, .. } = r {
                assert!(stack.is_empty());
            }
        }
    }

    #[test]
    fn paris_flow_is_path_stable() {
        let net = build(MplsConfig::ldp_default());
        let (vp, dst) = endpoints(&net);
        let a = ladder(&net, vp, dst);
        let b = ladder(&net, vp, dst);
        assert_eq!(a, b);
    }

    #[test]
    fn ldp_tunnel_is_visible_with_propagation() {
        let net = build(MplsConfig::ldp_default());
        let (vp, dst) = endpoints(&net);
        let replies = ladder(&net, vp, dst);
        let labelled = replies
            .iter()
            .filter(|r| matches!(r, ProbeReply::TimeExceeded { stack, .. } if !stack.is_empty()))
            .count();
        assert!(labelled >= 1, "expected labelled hops, got {replies:?}");
        assert!(matches!(replies.last(), Some(ProbeReply::Echo { .. })));
    }

    #[test]
    fn no_ttl_propagate_hides_the_tunnel() {
        let mut cfg = MplsConfig::ldp_default();
        cfg.ttl_propagate = false;
        let net = build(cfg);
        let (vp, dst) = endpoints(&net);
        let visible = ladder(&net, vp, dst);
        for r in &visible {
            if let ProbeReply::TimeExceeded { stack, .. } = r {
                assert!(stack.is_empty());
            }
        }
        // The invisible tunnel also shortens the apparent path.
        let net2 = build(MplsConfig::ldp_default());
        let full = ladder(&net2, vp, dst);
        assert!(visible.len() < full.len());
    }

    #[test]
    fn no_rfc4950_yields_implicit_tunnel() {
        let mut cfg = MplsConfig::ldp_default();
        cfg.rfc4950 = false;
        let net = build(cfg);
        let (vp, dst) = endpoints(&net);
        let replies = ladder(&net, vp, dst);
        // Hops exist (TTL propagated) but no labels are quoted.
        for r in &replies {
            if let ProbeReply::TimeExceeded { stack, .. } = r {
                assert!(stack.is_empty());
            }
        }
        let net2 = build(MplsConfig::ldp_default());
        assert_eq!(replies.len(), ladder(&net2, vp, dst).len());
    }

    #[test]
    fn php_hides_label_at_egress() {
        let net = build(MplsConfig::ldp_default());
        let (vp, dst) = endpoints(&net);
        let replies = ladder(&net, vp, dst);
        // Find the labelled run; the hop right after it must be
        // unlabelled (the egress LER after PHP).
        let mut last_labelled = None;
        for (i, r) in replies.iter().enumerate() {
            if let ProbeReply::TimeExceeded { stack, .. } = r {
                if !stack.is_empty() {
                    last_labelled = Some(i);
                }
            }
        }
        let i = last_labelled.expect("labelled hops");
        match &replies[i + 1] {
            ProbeReply::TimeExceeded { stack, .. } => assert!(stack.is_empty()),
            ProbeReply::Echo { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn uhp_shows_explicit_null_at_egress() {
        let mut cfg = MplsConfig::ldp_default();
        cfg.php = false;
        let net = build(cfg);
        let (vp, dst) = endpoints(&net);
        let replies = ladder(&net, vp, dst);
        let nulls = replies
            .iter()
            .filter(|r| {
                matches!(r, ProbeReply::TimeExceeded { stack, .. }
                    if stack.first().map(|l| l.label) == Some(Label::IPV4_EXPLICIT_NULL))
            })
            .count();
        assert_eq!(nulls, 1, "{replies:?}");
        assert!(matches!(replies.last(), Some(ProbeReply::Echo { .. })));
    }

    #[test]
    fn te_lsps_differ_in_labels_by_destination_prefix() {
        let net = build(MplsConfig::with_te(1.0, 4, TePathMode::SamePath));
        let vp = net.topo.vantage_points()[0].0;
        // Two destinations in different /24s of the same stub.
        let dests = net.topo.destinations(1);
        assert!(dests.len() >= 2);
        let mut label_seqs = std::collections::BTreeSet::new();
        for &dst in &dests[..2] {
            let labels: Vec<u32> = ladder(&net, vp, dst)
                .iter()
                .filter_map(|r| match r {
                    ProbeReply::TimeExceeded { stack, .. } if !stack.is_empty() => {
                        Some(stack[0].label.value())
                    }
                    _ => None,
                })
                .collect();
            assert!(!labels.is_empty());
            label_seqs.insert(labels);
        }
        assert_eq!(label_seqs.len(), 2, "distinct FECs must expose distinct labels");
    }

    #[test]
    fn unknown_endpoints_are_unreachable() {
        let net = build(MplsConfig::disabled());
        let (vp, dst) = endpoints(&net);
        assert_eq!(
            probe(&net, Ipv4Addr::new(1, 2, 3, 4), dst, 5, 1),
            ProbeReply::Unreachable
        );
        assert_eq!(
            probe(&net, vp, Ipv4Addr::new(1, 2, 3, 4), 5, 1),
            ProbeReply::Unreachable
        );
    }

    #[test]
    fn reply_addresses_are_interface_addresses() {
        let net = build(MplsConfig::ldp_default());
        let (vp, dst) = endpoints(&net);
        let rib = net.topo.rib();
        for r in ladder(&net, vp, dst) {
            if let ProbeReply::TimeExceeded { addr, .. } = r {
                assert!(rib.lookup(addr).is_some(), "{addr} unmapped");
            }
        }
    }
}

#[cfg(test)]
mod corner_tests {
    use super::*;
    use crate::internet::MplsConfig;
    use crate::topology::{AsSpec, Topology, TopologyParams};
    use crate::vendor::Vendor;
    use lpr_core::lsp::Asn;
    use std::collections::BTreeMap;

    fn tiny() -> Internet {
        let specs = vec![
            AsSpec::transit(1, "t", Vendor::Cisco, TopologyParams::default()),
            AsSpec::stub(100, "src", 0, 1),
            AsSpec::stub(200, "dst", 1, 0),
        ];
        let peerings = vec![(Asn(100), Asn(1), 1), (Asn(1), Asn(200), 1)];
        let topo = Topology::build(&specs, &peerings);
        let mut configs = BTreeMap::new();
        configs.insert(Asn(1), MplsConfig::ldp_default());
        Internet::new(topo, &configs)
    }

    #[test]
    fn ttl_one_expires_at_the_gateway() {
        let net = tiny();
        let vp = net.topo.vantage_points()[0].0;
        let dst = net.topo.destinations(1)[0];
        match probe(&net, vp, dst, 1, 7) {
            ProbeReply::TimeExceeded { router, stack, .. } => {
                assert_eq!(router, net.vp_attachment(vp).unwrap().router);
                assert!(stack.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn huge_ttl_reaches_the_destination() {
        let net = tiny();
        let vp = net.topo.vantage_points()[0].0;
        let dst = net.topo.destinations(1)[0];
        assert_eq!(probe(&net, vp, dst, 255, 7), ProbeReply::Echo { addr: dst });
    }

    #[test]
    fn every_ttl_gets_exactly_one_terminal_answer() {
        // For each TTL the probe either expires at one router or
        // reaches the destination; once reached, every larger TTL
        // reaches too (no flapping).
        let net = tiny();
        let vp = net.topo.vantage_points()[0].0;
        let dst = net.topo.destinations(1)[0];
        let mut reached_at = None;
        for ttl in 1..=32u8 {
            match probe(&net, vp, dst, ttl, 99) {
                ProbeReply::Echo { .. } => {
                    reached_at.get_or_insert(ttl);
                }
                ProbeReply::TimeExceeded { .. } => {
                    assert!(reached_at.is_none(), "expired after reaching at {reached_at:?}");
                }
                ProbeReply::Unreachable => panic!("unreachable at ttl {ttl}"),
            }
        }
        assert!(reached_at.is_some());
    }

    #[test]
    fn distinct_flows_agree_on_hop_count_without_ecmp() {
        // The default chain has a single path: every flow must see the
        // identical hop sequence.
        let net = tiny();
        let vp = net.topo.vantage_points()[0].0;
        let dst = net.topo.destinations(1)[0];
        let path = |flow: u64| {
            let mut hops = Vec::new();
            for ttl in 1..=32u8 {
                match probe(&net, vp, dst, ttl, flow) {
                    ProbeReply::TimeExceeded { addr, .. } => hops.push(addr),
                    ProbeReply::Echo { .. } => break,
                    ProbeReply::Unreachable => panic!("unreachable"),
                }
            }
            hops
        };
        assert_eq!(path(1), path(2));
        assert_eq!(path(2), path(0xFFFF_FFFF_FFFF_FFFF));
    }
}
