//! Conversions between warts records and the `lpr-core` trace model.
//!
//! warts stores only *replies*; unresponsive probes appear as gaps in
//! the probe-TTL sequence. The conversion to [`lpr_core::trace::Trace`]
//! materialises those gaps as anonymous hops so the downstream tunnel
//! extraction sees the same picture a scamper text dump shows. IPv6
//! hops are skipped (the LPR analysis, like the paper's dataset, is
//! IPv4; a trace with an IPv6 endpoint converts to `None`).

use crate::addr::{Addr, AddrTableReader};
use crate::buf::Cursor;
use crate::error::WartsError;
use crate::file::{check_consumed, RecordType};
use crate::icmpext::{mpls_stack_of, IcmpExt};
use crate::trace::{HopRecord, StopReason, TraceBody, TraceRecord};
use lpr_core::label::LabelStack;
use lpr_core::trace::{Hop, Trace};
use std::net::Ipv4Addr;

/// What [`decode_trace_into`] made of a trace record body that decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Decoded {
    /// The trace was written into the caller's [`Trace`].
    Trace,
    /// An endpoint is IPv6: outside the analysis, like
    /// [`trace_to_core`]'s `Ok(None)`.
    NotIpv4,
    /// The record decoded, but a hop's MPLS object is malformed: the
    /// error [`trace_to_core`] returns for the owned record.
    ConvertFailed(WartsError),
}

/// Converts a warts trace record into the core trace model.
///
/// Returns `Ok(None)` for IPv6 traces. Multiple replies for the same
/// probe TTL (per-attempt duplicates) keep the first one, matching how
/// the paper's single-path Paris traceroute data behaves. TTL gaps
/// become anonymous hops; IPv6 hops are skipped.
///
/// This is the adapter for owned records (tests, examples, `lpr dump`);
/// ingest decodes bytes straight to the core model with
/// [`decode_trace_into`], which applies the same rules.
pub fn trace_to_core(rec: &TraceRecord) -> Result<Option<Trace>, WartsError> {
    let mut trace = Trace::new(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED);
    let mut conv = Converter::start(&mut trace, rec.src, rec.dst, rec.stop_reason, rec.first_hop);
    for hop in &rec.hops {
        conv.hop(hop.probe_ttl, hop.addr, hop.rtt_us, || mpls_stack_of(&hop.icmp_exts));
    }
    match conv.finish() {
        Decoded::Trace => Ok(Some(trace)),
        Decoded::NotIpv4 => Ok(None),
        Decoded::ConvertFailed(e) => Err(e),
    }
}

/// Decodes one trace record body straight into `trace`, reusing its
/// hop buffer: the result equals [`trace_to_core`] applied to
/// [`TraceRecord::read`] of the same body, with no record built and no
/// heap allocation once `trace` has grown to the longest trace seen
/// (label stacks deeper than `LabelStack::INLINE` excepted).
///
/// `Err` means the body does not decode (a lenient reader's skip);
/// [`Decoded::ConvertFailed`] means it decodes but cannot convert. The
/// contents of `trace` are unspecified unless the result is
/// `Ok(Decoded::Trace)`.
pub fn decode_trace_into(
    body: &[u8],
    addrs: &mut AddrTableReader,
    trace: &mut Trace,
) -> Result<Decoded, WartsError> {
    decode_trace_counted(body, addrs, trace).map(|(decoded, _)| decoded)
}

/// [`decode_trace_into`], also counting the ICMP extension objects that
/// are not MPLS stacks (the `warts.unknown_icmp_ext` tally).
pub(crate) fn decode_trace_counted(
    body: &[u8],
    addrs: &mut AddrTableReader,
    trace: &mut Trace,
) -> Result<(Decoded, u64), WartsError> {
    let mut cur = Cursor::new(body);
    let mut walk = TraceBody::open(&mut cur, addrs)?;
    let h = walk.header;
    let mut conv = Converter::start(trace, h.src, h.dst, h.stop_reason, h.first_hop);
    let mut unknown_exts = 0u64;
    while let Some(hop) = walk.next_hop()? {
        unknown_exts += hop.icmp_exts.count_non_mpls();
        conv.hop(hop.probe_ttl, hop.addr, hop.rtt_us, || hop.icmp_exts.mpls_stack());
    }
    check_consumed(&cur, RecordType::Trace as u16, body.len())?;
    Ok((conv.finish(), unknown_exts))
}

/// The warts→core conversion rules, fed one hop at a time — shared by
/// [`trace_to_core`] and [`decode_trace_into`] so the two cannot drift.
struct Converter<'t> {
    trace: &'t mut Trace,
    ipv4: bool,
    failed: Option<WartsError>,
    /// The next TTL a hop would fill without a gap.
    expected_ttl: u8,
    last_ttl: u8,
}

impl<'t> Converter<'t> {
    fn start(
        trace: &'t mut Trace,
        src: Addr,
        dst: Addr,
        stop_reason: StopReason,
        first_hop: Option<u8>,
    ) -> Self {
        let endpoints = src.as_v4().zip(dst.as_v4());
        if let Some((src, dst)) = endpoints {
            trace.src = src;
            trace.dst = dst;
            trace.reached = stop_reason == StopReason::Completed;
            trace.hops.clear();
        }
        Converter {
            trace,
            ipv4: endpoints.is_some(),
            failed: None,
            expected_ttl: first_hop.unwrap_or(1),
            last_ttl: 0,
        }
    }

    /// One hop record; `stack` decodes its MPLS extension, and runs only
    /// for hops the trace keeps.
    fn hop(
        &mut self,
        probe_ttl: u8,
        addr: Addr,
        rtt_us: u32,
        stack: impl FnOnce() -> Result<Option<LabelStack>, WartsError>,
    ) {
        if !self.ipv4 || self.failed.is_some() || probe_ttl <= self.last_ttl {
            return; // outside the analysis, already failed, or a duplicate reply
        }
        let Some(addr) = addr.as_v4() else {
            return;
        };
        let stack = match stack() {
            Ok(stack) => stack.unwrap_or_default(),
            Err(e) => {
                self.failed = Some(e);
                return;
            }
        };
        while self.expected_ttl < probe_ttl {
            self.trace.push_hop(Hop::anonymous(self.expected_ttl));
            self.expected_ttl += 1;
        }
        self.last_ttl = probe_ttl;
        self.expected_ttl = probe_ttl.saturating_add(1);
        self.trace.push_hop(Hop { probe_ttl, addr: Some(addr), rtt_us, stack });
    }

    fn finish(self) -> Decoded {
        match (self.ipv4, self.failed) {
            (false, _) => Decoded::NotIpv4,
            (true, Some(e)) => Decoded::ConvertFailed(e),
            (true, None) => Decoded::Trace,
        }
    }
}

/// Converts a core trace into a warts record (the writer-side inverse
/// of [`trace_to_core`]). Anonymous hops are dropped — warts records
/// replies only. `list_id`/`cycle_id` are the file-local ids the trace
/// should reference.
pub fn trace_to_record(trace: &Trace, list_id: u32, cycle_id: u32) -> TraceRecord {
    let mut rec = TraceRecord::new(Addr::V4(trace.src), Addr::V4(trace.dst));
    rec.list_id = Some(list_id);
    rec.cycle_id = Some(cycle_id);
    rec.stop_reason = if trace.reached { StopReason::Completed } else { StopReason::GapLimit };
    for hop in &trace.hops {
        let addr = match hop.addr {
            Some(a) => a,
            None => continue,
        };
        let mut h = HopRecord::reply(hop.probe_ttl, Addr::V4(addr), hop.rtt_us);
        // Destination replies are echo replies, intermediate hops are
        // time-exceeded; both carry extensions only when labelled.
        let is_dst = addr == trace.dst;
        h.icmp_type_code = Some(if is_dst { 0x0000 } else { 0x0B00 });
        if !hop.stack.is_empty() {
            h.icmp_exts = vec![IcmpExt::mpls(&hop.stack)];
        }
        rec.hops.push(h);
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpr_core::label::Lse;
    use std::net::Ipv4Addr;

    fn ip(o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, o)
    }

    fn sample_core_trace() -> Trace {
        let mut t = Trace::new(ip(100), ip(200));
        t.push_hop(Hop::responsive(1, ip(1)));
        t.push_hop(Hop::labelled(2, ip(2), &[Lse::transit(300_000, 254)]));
        t.push_hop(Hop::anonymous(3));
        t.push_hop(Hop::responsive(4, ip(4)));
        t.push_hop(Hop::responsive(5, ip(200)));
        t.reached = true;
        t
    }

    #[test]
    fn core_to_record_to_core() {
        let t = sample_core_trace();
        let rec = trace_to_record(&t, 1, 1);
        assert_eq!(rec.hops.len(), 4); // anonymous hop dropped
        let back = trace_to_core(&rec).unwrap().unwrap();
        // The anonymous hop reappears as a TTL gap materialisation.
        assert_eq!(back.hops.len(), t.hops.len());
        assert_eq!(back, t);
    }

    #[test]
    fn leading_gap_materialises_anonymous_hops() {
        let mut rec = TraceRecord::new(Addr::V4(ip(100)), Addr::V4(ip(200)));
        rec.hops = vec![HopRecord::reply(3, Addr::V4(ip(3)), 500)];
        let t = trace_to_core(&rec).unwrap().unwrap();
        assert_eq!(t.hops.len(), 3);
        assert!(!t.hops[0].is_responsive());
        assert!(!t.hops[1].is_responsive());
        assert_eq!(t.hops[2].addr, Some(ip(3)));
    }

    #[test]
    fn duplicate_ttl_replies_keep_first() {
        let mut rec = TraceRecord::new(Addr::V4(ip(100)), Addr::V4(ip(200)));
        rec.hops = vec![
            HopRecord::reply(1, Addr::V4(ip(1)), 500),
            HopRecord::reply(1, Addr::V4(ip(7)), 700),
            HopRecord::reply(2, Addr::V4(ip(2)), 900),
        ];
        let t = trace_to_core(&rec).unwrap().unwrap();
        assert_eq!(t.hops.len(), 2);
        assert_eq!(t.hops[0].addr, Some(ip(1)));
    }

    #[test]
    fn ipv6_trace_is_skipped() {
        let rec = TraceRecord::new(
            Addr::V6("2001:db8::1".parse().unwrap()),
            Addr::V4(ip(200)),
        );
        assert_eq!(trace_to_core(&rec).unwrap(), None);
    }

    #[test]
    fn mpls_stack_survives_conversion() {
        let t = sample_core_trace();
        let rec = trace_to_record(&t, 1, 1);
        let labelled = rec.hops.iter().find(|h| !h.icmp_exts.is_empty()).unwrap();
        let stack = mpls_stack_of(&labelled.icmp_exts).unwrap().unwrap();
        assert_eq!(stack.top().unwrap().label.value(), 300_000);
    }

    #[test]
    fn stop_reason_maps_to_reached() {
        let mut t = sample_core_trace();
        t.reached = false;
        let rec = trace_to_record(&t, 1, 1);
        assert_eq!(rec.stop_reason, StopReason::GapLimit);
        let back = trace_to_core(&rec).unwrap().unwrap();
        assert!(!back.reached);
    }

    /// Encodes `rec` alone (fresh dictionary) and decodes it directly.
    fn direct(rec: &TraceRecord) -> (Result<Decoded, WartsError>, Trace) {
        let mut body = bytes::BytesMut::new();
        rec.write(&mut body, &mut crate::addr::AddrTableWriter::new());
        let mut trace = Trace::new(ip(0), ip(0));
        let decoded = decode_trace_into(&body, &mut AddrTableReader::new(), &mut trace);
        (decoded, trace)
    }

    #[test]
    fn direct_decode_equals_owned_conversion() {
        let mut rec = trace_to_record(&sample_core_trace(), 1, 1);
        rec.hops.insert(1, HopRecord::reply(1, Addr::V4(ip(9)), 1)); // duplicate TTL 1
        rec.hops.insert(2, HopRecord::reply(2, Addr::V6("2001:db8::2".parse().unwrap()), 1));
        let (decoded, trace) = direct(&rec);
        assert_eq!(decoded, Ok(Decoded::Trace));
        assert_eq!(trace, trace_to_core(&rec).unwrap().unwrap());
        assert_eq!(trace, sample_core_trace());
    }

    #[test]
    fn direct_decode_reports_ipv6_and_convert_failures() {
        let v6 = TraceRecord::new(Addr::V6("2001:db8::1".parse().unwrap()), Addr::V4(ip(200)));
        assert_eq!(direct(&v6).0, Ok(Decoded::NotIpv4));

        let mut bad = trace_to_record(&sample_core_trace(), 1, 1);
        bad.hops[1].icmp_exts = vec![IcmpExt { class: 1, kind: 1, data: vec![0; 5] }];
        let expect = trace_to_core(&bad).unwrap_err();
        assert_eq!(direct(&bad).0, Ok(Decoded::ConvertFailed(expect)));
    }

    #[test]
    fn direct_decode_checks_the_body_length() {
        let rec = trace_to_record(&sample_core_trace(), 1, 1);
        let mut body = bytes::BytesMut::new();
        rec.write(&mut body, &mut crate::addr::AddrTableWriter::new());
        let mut padded = body.to_vec();
        padded.push(0);
        let mut trace = Trace::new(ip(0), ip(0));
        let got = decode_trace_into(&padded, &mut AddrTableReader::new(), &mut trace);
        assert!(matches!(got, Err(WartsError::LengthMismatch { .. })), "{got:?}");
    }

    #[test]
    fn deep_decoded_stack_is_still_quarantined() {
        let mut t = sample_core_trace();
        let deep: Vec<Lse> = (0..33).map(|i| Lse::transit(16 + i, 254)).collect();
        t.hops[1] = Hop::labelled(2, ip(2), &deep);
        let (decoded, trace) = direct(&trace_to_record(&t, 1, 1));
        assert_eq!(decoded, Ok(Decoded::Trace));
        assert_eq!(trace.hops[1].stack.depth(), 33);
        assert_eq!(
            lpr_core::quarantine::validate_trace(&trace),
            Err(lpr_core::quarantine::QuarantineReason::ExcessStackDepth)
        );
    }
}
