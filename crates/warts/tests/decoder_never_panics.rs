//! Decoder-never-panics: the warts reader survives arbitrary
//! corruption of real streams.
//!
//! `lpr-chaos` corrupts a realistic encoded stream (bit flips, cut
//! bodies, inflated lengths, smashed magics) across more than a
//! thousand seeded cases; the strict reader may error but must not
//! panic, and the lenient reader must additionally drain every stream
//! to a clean end with reconciling skip counts. Over hundreds more, the
//! direct decode into core traces must agree record by record with the
//! owned decode followed by `trace_to_core`.

use lpr_chaos::corrupt_warts_bytes;
use proptest::prelude::*;
use std::net::Ipv4Addr;
use warts::{
    decode_record_body, decode_trace_into, AddrTableReader, Decoded, HopRecord, IcmpExt,
    Record, RecordType, SkipReason, TraceRecord, WartsError, WartsStreamReader,
};
use lpr_core::label::Lse;
use lpr_core::trace::Trace;

fn a(o: u8) -> warts::Addr {
    warts::Addr::V4(Ipv4Addr::new(10, 0, 0, o))
}

/// A realistic stream: list, cycle, MPLS-labelled traces sharing
/// dictionary addresses, cycle stop.
fn sample_stream() -> Vec<u8> {
    let mut w = warts::WartsWriter::new();
    let list = w.list(1, "chaos");
    let cycle = w.cycle_start(list, 1, 0);
    for i in 0..6u8 {
        let mut t = TraceRecord::new(a(1), a(200 + i % 8));
        let mut labelled = HopRecord::reply(2, a(20 + i), 900);
        labelled.icmp_exts = vec![IcmpExt::mpls(
            &[Lse::transit(1000 + i as u32, 254), Lse::transit(7, 253)]
                .into_iter()
                .collect(),
        )];
        t.hops = vec![
            HopRecord::reply(1, a(10 + i), 500),
            labelled,
            HopRecord::reply(3, a(200 + i % 8), 1500),
        ];
        w.trace(&t);
    }
    w.cycle_stop(cycle, 6);
    w.into_bytes()
}

/// Drains a lenient reader; panics bubble to proptest, errors fail the
/// property (a byte slice cannot produce IO errors, so lenient mode
/// must always reach a clean end).
fn drain_lenient(bytes: &[u8]) -> (u64, u64) {
    let mut r = WartsStreamReader::new(bytes).lenient();
    let mut decoded = 0u64;
    while r.next_record().expect("lenient over in-memory bytes cannot error").is_some() {
        decoded += 1;
    }
    let per_reason: u64 = SkipReason::ALL
        .iter()
        .map(|rs| r.skip_counts().get(rs).copied().unwrap_or(0))
        .sum();
    assert_eq!(per_reason, r.skipped_total(), "per-reason counts cover every skip");
    (decoded, r.skipped_total())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(550))]

    /// ≥550 corrupted streams: strict may error, lenient must survive.
    #[test]
    fn corrupted_streams_never_panic(seed in any::<u64>(), rate in 0.01f64..1.0) {
        let (bytes, counts) = corrupt_warts_bytes(&sample_stream(), seed, rate);

        // Strict streaming: drain until first error or clean end.
        let mut strict = WartsStreamReader::new(bytes.as_slice());
        while let Ok(Some(_)) = strict.next_record() {}

        // Lenient streaming: always a clean end, and when corruption
        // actually landed somewhere, it is either absorbed by a skip or
        // harmless to decode — but never fatal.
        let (decoded, _skipped) = drain_lenient(&bytes);
        let total = 14u64; // list + cycle start/stop + 6 traces + addr use
        prop_assert!(decoded <= total);
        if counts.total() == 0 {
            let (all, skipped) = drain_lenient(&sample_stream());
            prop_assert_eq!(all, 9, "pristine stream decodes fully");
            prop_assert_eq!(skipped, 0);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    /// ≥500 corrupted *trace-record* streams plus raw byte soup mixed
    /// in: lenient decode of whatever survives feeds the core
    /// conversion without panicking either.
    #[test]
    fn salvaged_records_convert_without_panicking(
        seed in any::<u64>(),
        rate in 0.05f64..0.6,
        soup in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut bytes = sample_stream();
        let split = bytes.len() / 2;
        // Splice garbage mid-stream, then corrupt the whole thing.
        let mut spliced = bytes[..split].to_vec();
        spliced.extend_from_slice(&soup);
        spliced.extend_from_slice(&bytes[split..]);
        bytes = corrupt_warts_bytes(&spliced, seed, rate).0;

        let mut r = WartsStreamReader::new(bytes.as_slice()).lenient();
        while let Some(rec) = r.next_record().expect("lenient cannot error on bytes") {
            if let Record::Trace(t) = rec {
                // Salvaged records may still carry nonsense; conversion
                // may reject them but must not panic.
                let _ = warts::trace_to_core(&t);
            }
        }
    }
}

/// [`sample_stream`] plus the record shapes conversion treats
/// specially: an IPv6 trace, an IPv6 hop, a duplicate reply for a TTL,
/// a TTL gap, a malformed MPLS object and a stack deeper than a label
/// stack holds inline.
fn mixed_stream() -> Vec<u8> {
    let mut w = warts::WartsWriter::new();
    let list = w.list(1, "direct");
    let cycle = w.cycle_start(list, 1, 0);
    let v6: warts::Addr = "2001:db8::1".parse::<std::net::Ipv6Addr>().unwrap().into();
    for i in 0..6u8 {
        let mut t = TraceRecord::new(a(1), a(200 + i));
        t.stop_reason = warts::StopReason::Completed;
        let mut labelled = HopRecord::reply(3, a(20 + i), 900);
        let depth = 1 + i as u32 % 4;
        labelled.icmp_exts = vec![
            IcmpExt { class: 9, kind: 9, data: vec![i] },
            IcmpExt::mpls(&(0..depth).map(|d| Lse::transit(1000 + d, 254)).collect()),
        ];
        t.hops = vec![
            HopRecord::reply(1, a(10 + i), 500),
            HopRecord::reply(1, a(11 + i), 510), // duplicate reply for TTL 1
            HopRecord::reply(2, v6, 700),        // IPv6 hop: skipped
            labelled,
            HopRecord::reply(6, a(200 + i), 1500), // TTLs 4-5 unanswered
        ];
        w.trace(&t);
    }
    let mut bad = TraceRecord::new(a(1), a(250));
    let mut hop = HopRecord::reply(2, a(30), 900);
    hop.icmp_exts = vec![IcmpExt { class: 1, kind: 1, data: vec![1, 2, 3] }];
    bad.hops = vec![HopRecord::reply(1, a(31), 100), hop];
    w.trace(&bad);
    w.trace(&TraceRecord::new(v6, a(251)));
    w.cycle_stop(cycle, 6);
    w.into_bytes()
}

/// Every `(type, body)` a scan of `bytes` can frame: a magic and a
/// body length that fits, else slide one byte. Garbage that happens to
/// frame is included: more for the decoders to reject.
fn frames(bytes: &[u8]) -> Vec<(u16, &[u8])> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos + 8 <= bytes.len() {
        let h = &bytes[pos..pos + 8];
        let len = u32::from_be_bytes([h[4], h[5], h[6], h[7]]) as usize;
        if u16::from_be_bytes([h[0], h[1]]) == warts::WARTS_MAGIC && len <= bytes.len() - pos - 8 {
            out.push((u16::from_be_bytes([h[2], h[3]]), &bytes[pos + 8..pos + 8 + len]));
            pos += 8 + len;
        } else {
            pos += 1;
        }
    }
    out
}

/// How one trace body fared, in both decoders' shared vocabulary.
#[derive(Debug, PartialEq)]
enum Outcome {
    Trace(Trace),
    NotIpv4,
    ConvertFailed(WartsError),
    DecodeFailed(WartsError),
}

/// Owned decode then `trace_to_core`.
fn owned(body: &[u8], addrs: &mut AddrTableReader) -> Outcome {
    match decode_record_body(RecordType::Trace as u16, body, addrs) {
        Ok(Record::Trace(rec)) => match warts::trace_to_core(&rec) {
            Ok(Some(t)) => Outcome::Trace(t),
            Ok(None) => Outcome::NotIpv4,
            Err(e) => Outcome::ConvertFailed(e),
        },
        Ok(other) => panic!("a trace body decoded as {other:?}"),
        Err(e) => Outcome::DecodeFailed(e),
    }
}

/// The direct decode into a reused trace.
fn direct(body: &[u8], addrs: &mut AddrTableReader, scratch: &mut Trace) -> Outcome {
    match decode_trace_into(body, addrs, scratch) {
        Ok(Decoded::Trace) => Outcome::Trace(scratch.clone()),
        Ok(Decoded::NotIpv4) => Outcome::NotIpv4,
        Ok(Decoded::ConvertFailed(e)) => Outcome::ConvertFailed(e),
        Err(e) => Outcome::DecodeFailed(e),
    }
}

/// ≥500 corrupted streams: the direct decode and the owned decode plus
/// conversion give the same outcome for every record (the same trace,
/// the same error), and leave the address table in the same state.
#[test]
fn direct_decode_matches_owned_decode_on_corrupted_streams() {
    let pristine = mixed_stream();
    let mut seen = [0u64; 4];
    for seed in 0..600u64 {
        let rate = [0.0, 0.02, 0.05, 0.1, 0.3, 0.6][seed as usize % 6];
        let (bytes, _) = corrupt_warts_bytes(&pristine, seed, rate);
        let (mut owned_addrs, mut direct_addrs) = (AddrTableReader::new(), AddrTableReader::new());
        // One scratch trace per stream, reused record after record.
        let unspecified = std::net::Ipv4Addr::UNSPECIFIED;
        let mut scratch = Trace::new(unspecified, unspecified);
        for (record_type, body) in frames(&bytes) {
            if record_type != RecordType::Trace as u16 {
                // Other records still teach both tables their addresses.
                let a = decode_record_body(record_type, body, &mut owned_addrs);
                let b = decode_record_body(record_type, body, &mut direct_addrs);
                assert_eq!(a, b, "seed {seed}");
                continue;
            }
            let expect = owned(body, &mut owned_addrs);
            let got = direct(body, &mut direct_addrs, &mut scratch);
            assert_eq!(got, expect, "seed {seed} rate {rate}");
            assert_eq!(direct_addrs.snapshot(), owned_addrs.snapshot(), "seed {seed}");
            seen[match expect {
                Outcome::Trace(_) => 0,
                Outcome::NotIpv4 => 1,
                Outcome::ConvertFailed(_) => 2,
                Outcome::DecodeFailed(_) => 3,
            }] += 1;
        }
    }
    assert!(seen.iter().all(|&n| n > 0), "every outcome exercised: {seen:?}");
}
