//! Record-index robustness under corruption: `lpr-chaos` smashes
//! magics, flips bits, truncates and inflates bodies across hundreds of
//! seeded cases. The index build validates records without building
//! them, yet must never panic and must equal the sequential lenient
//! full decode: same spans, per-reason skip tallies, resync byte count
//! and address table. An indexed range decode against the preloaded
//! dictionary must reproduce the sequential record stream record for
//! record, and so must the direct decode into core traces. Hand-built
//! edge cases pin the corners corruption rarely hits.

use lpr_chaos::corrupt_warts_bytes;
use lpr_core::label::Lse;
use lpr_core::lsp::Asn;
use lpr_core::trace::Trace;
use lpr_corpus::{ingest_cycle, Corpus, IngestOptions, RecordIndex};
use proptest::prelude::*;
use std::net::Ipv4Addr;
use warts::{
    decode_record_body, decode_trace_into, trace_to_core, AddrTableReader, Decoded, HopRecord,
    IcmpExt, Record, RecordSpan, RecordType, SkipReason, TraceRecord, WartsStreamReader,
    WartsWriter,
};

fn a(o: u8) -> warts::Addr {
    warts::Addr::V4(Ipv4Addr::new(10, 0, 0, o))
}

/// A realistic stream: list, cycle, MPLS-labelled traces sharing
/// dictionary addresses, cycle stop.
fn sample_stream() -> Vec<u8> {
    let mut w = WartsWriter::new();
    let list = w.list(1, "chaos");
    let cycle = w.cycle_start(list, 1, 0);
    for i in 0..8u8 {
        let mut t = TraceRecord::new(a(1), a(200 + i % 8));
        let mut labelled = HopRecord::reply(2, a(20 + i), 900);
        labelled.icmp_exts = vec![IcmpExt::mpls(
            &[Lse::transit(1000 + i as u32, 254), Lse::transit(7, 253)].into_iter().collect(),
        )];
        t.hops = vec![
            HopRecord::reply(1, a(10 + i), 500),
            labelled,
            HopRecord::reply(3, a(200 + i % 8), 1500),
        ];
        w.trace(&t);
    }
    w.cycle_stop(cycle, 8);
    w.into_bytes()
}

/// A sequential lenient full decode: every record built, with its span,
/// plus the reader's final skip, resync and dictionary state.
struct Sequential {
    records: Vec<Record>,
    spans: Vec<RecordSpan>,
    skips: Vec<(SkipReason, u64)>,
    resync: u64,
    addr_table: Vec<warts::Addr>,
}

fn sequential_decode(bytes: &[u8]) -> Sequential {
    let mut r = WartsStreamReader::new(bytes).lenient().elide_unsupported_bodies();
    let (mut records, mut spans) = (Vec::new(), Vec::new());
    while let Some(rec) = r.next_record().expect("lenient over bytes cannot error") {
        records.push(rec);
        spans.push(r.last_record_span().expect("a decoded record has a span"));
    }
    Sequential {
        records,
        spans,
        skips: r.skip_counts().iter().map(|(&k, &v)| (k, v)).collect(),
        resync: r.resync_bytes(),
        addr_table: r.addr_snapshot(),
    }
}

fn ingest_mapper(addr: Ipv4Addr) -> Option<Asn> {
    Some(Asn(addr.octets()[1] as u32))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    /// Corrupted corpora: index build never panics and its accounting
    /// IS the sequential lenient full decoder's, down to every span and
    /// the address table.
    #[test]
    fn index_build_matches_sequential_lenient_decode(
        seed in any::<u64>(),
        rate in 0.01f64..0.9,
    ) {
        let (bytes, _) = corrupt_warts_bytes(&sample_stream(), seed, rate);
        let index = RecordIndex::build(&bytes);
        let seq = sequential_decode(&bytes);

        prop_assert_eq!(&index.records, &seq.spans);
        prop_assert_eq!(
            index.skipped().into_iter().collect::<Vec<_>>(),
            seq.skips,
            "per-reason skip tallies must match the sequential decoder"
        );
        prop_assert_eq!(index.resync_bytes, seq.resync);
        prop_assert_eq!(&index.addr_table, &seq.addr_table);
        let traces =
            seq.records.iter().filter(|r| matches!(r, Record::Trace(_))).count() as u64;
        prop_assert_eq!(index.traces, traces);
    }

    /// Indexed range decode (full-dictionary preload) reproduces the
    /// sequential record stream exactly, from any range start, and the
    /// direct decode reproduces its conversion to core traces.
    #[test]
    fn indexed_decode_reproduces_sequential_records(
        seed in any::<u64>(),
        rate in 0.01f64..0.6,
    ) {
        let (bytes, _) = corrupt_warts_bytes(&sample_stream(), seed, rate);
        let index = RecordIndex::build(&bytes);
        let seq = sequential_decode(&bytes);

        // Decode each indexed record independently, as a range shard
        // would: fresh reader state per record, full dictionary
        // preloaded.
        let mut trace = Trace::new(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED);
        for (span, expect) in index.records.iter().zip(&seq.records) {
            let start = span.offset as usize + 8;
            let body = &bytes[start..start + span.body_len as usize];
            let mut addrs = AddrTableReader::preloaded(&index.addr_table);
            let got = decode_record_body(span.record_type, body, &mut addrs)
                .expect("indexed records decoded once already");
            prop_assert_eq!(&got, expect);
            if let Record::Trace(rec) = expect {
                let mut addrs = AddrTableReader::preloaded(&index.addr_table);
                let direct = decode_trace_into(body, &mut addrs, &mut trace)
                    .expect("indexed records decoded once already");
                match (trace_to_core(rec), direct) {
                    (Ok(Some(t)), Decoded::Trace) => prop_assert_eq!(&trace, &t),
                    (Ok(None), Decoded::NotIpv4) => {}
                    (Err(a), Decoded::ConvertFailed(b)) => prop_assert_eq!(a, b),
                    (owned, direct) => {
                        prop_assert!(false, "owned {:?} vs direct {:?}", owned, direct)
                    }
                }
            }
        }
    }

    /// Serialization survives corruption end-to-end: whatever the scan
    /// produced roundtrips through the cache encoding.
    #[test]
    fn index_serialization_roundtrips_after_corruption(
        seed in any::<u64>(),
        rate in 0.05f64..0.9,
    ) {
        let (bytes, _) = corrupt_warts_bytes(&sample_stream(), seed, rate);
        let index = RecordIndex::build(&bytes);
        let restored = RecordIndex::from_bytes(&index.to_bytes()).unwrap();
        prop_assert_eq!(restored, index);
    }
}

/// Warts framing of one record body.
fn framed(record_type: RecordType, body: &[u8]) -> Vec<u8> {
    let mut out = warts::WARTS_MAGIC.to_be_bytes().to_vec();
    out.extend_from_slice(&(record_type as u16).to_be_bytes());
    out.extend_from_slice(&(body.len() as u32).to_be_bytes());
    out.extend_from_slice(body);
    out
}

/// A warts flag bitfield with `flags` set, `bytes` long (7 flags per
/// byte, high bit = another byte follows).
fn flag_bytes(flags: &[u16], bytes: usize) -> Vec<u8> {
    let mut out = vec![0u8; bytes];
    for &n in flags {
        out[(n as usize - 1) / 7] |= 1 << ((n - 1) % 7);
    }
    let last = out.len() - 1;
    for b in &mut out[..last] {
        *b |= 0x80;
    }
    out
}

/// A hand-encoded trace body: hop count, source and destination (each
/// an already-encoded address parameter), then hops of probe TTL and
/// encoded address.
fn raw_trace(src: &[u8], dst: &[u8], hops: &[(u8, &[u8])]) -> Vec<u8> {
    // Trace flags: 19 hop count, 26 source, 27 destination.
    let mut body = flag_bytes(&[19, 26, 27], 4);
    let params = [&(hops.len() as u16).to_be_bytes()[..], src, dst].concat();
    body.extend_from_slice(&(params.len() as u16).to_be_bytes());
    body.extend_from_slice(&params);
    for (ttl, addr) in hops {
        // Hop flags: 2 probe TTL, 18 address.
        body.extend_from_slice(&flag_bytes(&[2, 18], 3));
        let params = [&[*ttl][..], addr].concat();
        body.extend_from_slice(&(params.len() as u16).to_be_bytes());
        body.extend_from_slice(&params);
    }
    body
}

/// Embed-form address parameter (first occurrence).
fn embed(o: [u8; 4]) -> Vec<u8> {
    [&[4u8, 1][..], &o].concat()
}

/// Reference-form address parameter.
fn reference(id: u32) -> Vec<u8> {
    [&[0u8][..], &id.to_be_bytes()].concat()
}

fn corpus_of(name: &str, bytes: &[u8]) -> (Corpus, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("lpr-idx-edge-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cycle.warts");
    std::fs::write(&path, bytes).unwrap();
    (Corpus::open_with(&[path], false, None).unwrap(), dir)
}

#[test]
fn malformed_mpls_object_is_indexed_and_fails_conversion() {
    let mut w = WartsWriter::new();
    let list = w.list(1, "edge");
    let cycle = w.cycle_start(list, 1, 0);
    let mut bad = TraceRecord::new(a(1), a(99));
    let mut hop = HopRecord::reply(1, a(2), 100);
    // A structurally valid extension block whose MPLS object is not a
    // whole number of label-stack entries.
    hop.icmp_exts = vec![IcmpExt { class: 1, kind: 1, data: vec![1, 2, 3] }];
    bad.hops = vec![hop, HopRecord::reply(2, a(99), 200)];
    w.trace(&bad);
    w.trace(&TraceRecord::new(a(1), a(98)));
    w.cycle_stop(cycle, 1);
    let bytes = w.into_bytes();

    let (corpus, dir) = corpus_of("mpls", &bytes);
    let index = &corpus.files[0].index;
    assert_eq!(index.skipped_total(), 0, "a decode-level success");
    assert_eq!(index.traces, 2, "the malformed trace is indexed");
    let (_, report) = ingest_cycle(&corpus, &ingest_mapper, IngestOptions::new(1), None);
    assert_eq!(report.convert_failures, 1);
    assert_eq!(report.skipped_total(), 0);
    let (traces, convert_failures) = lpr_corpus::ingest::load_traces(&corpus);
    assert_eq!((traces.len(), convert_failures), (1, 1));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn overlong_flag_bitfield_with_a_high_unknown_flag_is_an_unsupported_skip() {
    // Twelve flag bytes, three past what a flag set stores inline, with
    // trace flags 19/26/27 set and an unknown flag 80 in the last byte.
    let mut body = flag_bytes(&[19, 26, 27, 80], 12);
    let params = [&0u16.to_be_bytes()[..], &embed([10, 0, 0, 1]), &embed([10, 0, 0, 2])].concat();
    body.extend_from_slice(&(params.len() as u16).to_be_bytes());
    body.extend_from_slice(&params);
    let good = raw_trace(&embed([10, 0, 0, 3]), &embed([10, 0, 0, 4]), &[]);
    let bytes = [framed(RecordType::Trace, &body), framed(RecordType::Trace, &good)].concat();

    let index = RecordIndex::build(&bytes);
    let seq = sequential_decode(&bytes);
    assert_eq!(seq.skips, vec![(SkipReason::Unsupported, 1)]);
    assert_eq!(index.skipped().into_iter().collect::<Vec<_>>(), seq.skips);
    assert_eq!(index.records, seq.spans);
    assert_eq!(index.records.len(), 1, "only the well-formed trace is indexed");
    // The walk stopped at flag 80, after learning the two embedded
    // endpoint addresses, exactly like the full decode.
    assert_eq!(index.addr_table, seq.addr_table);
    assert_eq!(index.addr_table.len(), 4);
}

#[test]
fn embed_form_duplicate_after_the_preload_resolves_as_sequentially() {
    let (x, y, z) = ([10, 1, 0, 1], [10, 1, 0, 2], [10, 1, 0, 3]);
    // Ids: 0 = x, 1 = y; the second record embeds x again (id 2, a
    // duplicate) and z (id 3); the third references the duplicate.
    let records = [
        raw_trace(&embed(x), &embed(y), &[(1, &reference(0)[..])]),
        raw_trace(&embed(x), &embed(z), &[(1, &reference(1)[..]), (3, &reference(2)[..])]),
        raw_trace(&reference(2), &reference(3), &[(2, &embed(y)[..]), (3, &reference(4)[..])]),
    ];
    let bytes: Vec<u8> = records.iter().flat_map(|b| framed(RecordType::Trace, b)).collect();

    let index = RecordIndex::build(&bytes);
    let seq = sequential_decode(&bytes);
    assert_eq!(index.skipped_total(), 0);
    assert_eq!(index.records, seq.spans);
    assert_eq!(index.addr_table, seq.addr_table);
    assert_eq!(index.addr_table.len(), 5, "x, y, x again, z, y again");
    let mut trace = Trace::new(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED);
    for (span, expect) in index.records.iter().zip(&seq.records) {
        let start = span.offset as usize + 8;
        let body = &bytes[start..start + span.body_len as usize];
        let mut addrs = AddrTableReader::preloaded(&index.addr_table);
        assert_eq!(&decode_record_body(span.record_type, body, &mut addrs).unwrap(), expect);
        let Record::Trace(rec) = expect else { panic!("trace records only") };
        let mut addrs = AddrTableReader::preloaded(&index.addr_table);
        assert_eq!(decode_trace_into(body, &mut addrs, &mut trace), Ok(Decoded::Trace));
        assert_eq!(Some(&trace), trace_to_core(rec).unwrap().as_ref());
    }
    let Record::Trace(third) = &seq.records[2] else { panic!("trace records only") };
    assert_eq!(third.src, warts::Addr::V4(x.into()));
    assert_eq!(third.hops[1].addr, warts::Addr::V4(y.into()));

    // The ingest path agrees with a sequential load.
    let (corpus, dir) = corpus_of("dup", &bytes);
    let (traces, convert_failures) = lpr_corpus::ingest::load_traces(&corpus);
    assert_eq!(convert_failures, 0);
    let expect: Vec<Trace> = seq
        .records
        .iter()
        .map(|r| match r {
            Record::Trace(t) => trace_to_core(t).unwrap().unwrap(),
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(traces, expect);
    std::fs::remove_dir_all(dir).ok();
}
