//! The traceroute data model consumed by LPR.
//!
//! LPR is format-agnostic: any traceroute dataset can be analysed as long
//! as explicit MPLS tunnels can be retrieved from it (paper §3, footnote
//! 2). This module defines that minimal in-memory representation. The
//! `warts` crate converts scamper's binary dumps into it; the `netsim`
//! crate produces it directly.

use crate::label::{LabelStack, Lse};
use std::fmt;
use std::net::Ipv4Addr;

/// One traceroute hop: the reply (or lack thereof) elicited by the probe
/// with a given TTL.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Hop {
    /// TTL of the probe that elicited this reply.
    pub probe_ttl: u8,
    /// Address that sourced the ICMP reply; `None` for an anonymous
    /// (non-responding) hop.
    pub addr: Option<Ipv4Addr>,
    /// Round-trip time in microseconds (0 when unknown).
    pub rtt_us: u32,
    /// MPLS label stack quoted via the RFC 4950 ICMP extension, outermost
    /// entry first. Empty when the hop exposed no label, either because
    /// the packet was unlabelled or because the router does not implement
    /// the extension.
    pub stack: LabelStack,
}

impl Hop {
    /// An anonymous hop: the probe expired but nothing replied (or the
    /// reply was lost).
    pub fn anonymous(probe_ttl: u8) -> Self {
        Hop { probe_ttl, addr: None, rtt_us: 0, stack: LabelStack::empty() }
    }

    /// A responsive, unlabelled hop.
    pub fn responsive(probe_ttl: u8, addr: Ipv4Addr) -> Self {
        Hop { probe_ttl, addr: Some(addr), rtt_us: 0, stack: LabelStack::empty() }
    }

    /// A responsive hop quoting an MPLS label stack (outermost first).
    pub fn labelled(probe_ttl: u8, addr: Ipv4Addr, stack: &[Lse]) -> Self {
        Hop {
            probe_ttl,
            addr: Some(addr),
            rtt_us: 0,
            stack: LabelStack::from_entries(stack),
        }
    }

    /// Whether the hop replied at all.
    pub fn is_responsive(&self) -> bool {
        self.addr.is_some()
    }

    /// Whether the hop exposed an MPLS label stack.
    pub fn is_labelled(&self) -> bool {
        !self.stack.is_empty()
    }
}

impl fmt::Debug for Hop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.addr {
            Some(a) => write!(f, "{} {} {:?}", self.probe_ttl, a, self.stack),
            None => write!(f, "{} *", self.probe_ttl),
        }
    }
}

/// A single traceroute: the ordered hop list from a vantage point towards
/// a destination.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Vantage-point (monitor) address.
    pub src: Ipv4Addr,
    /// Probed destination.
    pub dst: Ipv4Addr,
    /// Hops, ordered by probe TTL (not necessarily contiguous:
    /// anonymous hops may be represented either as explicit [`Hop`]s with
    /// `addr == None` or as gaps in the TTL sequence — tunnel extraction
    /// handles both).
    pub hops: Vec<Hop>,
    /// Whether the destination itself replied (trace completed).
    pub reached: bool,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr) -> Self {
        Trace { src, dst, hops: Vec::new(), reached: false }
    }

    /// Appends a hop. Hops must be pushed in increasing probe-TTL order;
    /// this is asserted in debug builds.
    pub fn push_hop(&mut self, hop: Hop) {
        debug_assert!(
            self.hops.last().is_none_or(|h| h.probe_ttl < hop.probe_ttl),
            "hops must be pushed in increasing TTL order"
        );
        self.hops.push(hop);
    }

    /// Number of hops recorded (including anonymous ones).
    pub fn len(&self) -> usize {
        self.hops.len()
    }

    /// True if the trace holds no hops.
    pub fn is_empty(&self) -> bool {
        self.hops.is_empty()
    }

    /// Whether any hop exposes an MPLS label stack — i.e. the trace
    /// traverses at least one *explicit* tunnel (used for Fig. 5a).
    pub fn has_mpls(&self) -> bool {
        self.hops.iter().any(Hop::is_labelled)
    }

    /// Iterates over responsive hops.
    pub fn responsive_hops(&self) -> impl Iterator<Item = &Hop> {
        self.hops.iter().filter(|h| h.is_responsive())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, o)
    }

    #[test]
    fn hop_kinds() {
        assert!(!Hop::anonymous(1).is_responsive());
        assert!(Hop::responsive(1, ip(1)).is_responsive());
        assert!(!Hop::responsive(1, ip(1)).is_labelled());
        assert!(Hop::labelled(1, ip(1), &[Lse::transit(16, 255)]).is_labelled());
    }

    #[test]
    fn trace_has_mpls() {
        let mut t = Trace::new(ip(100), ip(200));
        t.push_hop(Hop::responsive(1, ip(1)));
        assert!(!t.has_mpls());
        t.push_hop(Hop::labelled(2, ip(2), &[Lse::transit(16, 255)]));
        assert!(t.has_mpls());
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn trace_rejects_out_of_order_hops() {
        let mut t = Trace::new(ip(100), ip(200));
        t.push_hop(Hop::responsive(2, ip(1)));
        t.push_hop(Hop::responsive(1, ip(2)));
    }

    #[test]
    fn hop_is_no_larger_than_with_a_vec_stack() {
        // Campaign generation holds every trace of a cycle in memory, so
        // the inline label stack must never grow a hop.
        #[allow(dead_code)]
        struct VecHop {
            probe_ttl: u8,
            addr: Option<Ipv4Addr>,
            rtt_us: u32,
            stack: Vec<Lse>,
        }
        assert!(std::mem::size_of::<Hop>() <= std::mem::size_of::<VecHop>());
    }

    #[test]
    fn responsive_iter_skips_anonymous() {
        let mut t = Trace::new(ip(100), ip(200));
        t.push_hop(Hop::responsive(1, ip(1)));
        t.push_hop(Hop::anonymous(2));
        t.push_hop(Hop::responsive(3, ip(3)));
        assert_eq!(t.responsive_hops().count(), 2);
    }
}
