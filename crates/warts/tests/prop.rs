//! Property tests for the warts codec.
//!
//! 1. Arbitrary trace records survive a write→read roundtrip bit-exact.
//! 2. Arbitrary byte soup never panics the reader (it may error).
//! 3. Bit-flip corruption of a valid file never panics the reader.

use proptest::prelude::*;
use std::net::Ipv4Addr;
use warts::{
    HopRecord, IcmpExt, PingRecord, PingReply, Record, StopReason, TraceRecord, WartsStreamReader,
    WartsWriter,
};
use lpr_core::label::{LabelStack, Lse};

fn arb_addr() -> impl Strategy<Value = warts::Addr> {
    any::<u32>().prop_map(|v| warts::Addr::V4(Ipv4Addr::from(v)))
}

fn arb_stack() -> impl Strategy<Value = LabelStack> {
    proptest::collection::vec((0u32..=0xFFFFF, 0u8..8, any::<bool>(), any::<u8>()), 0..4)
        .prop_map(|entries| {
            entries
                .into_iter()
                .map(|(l, tc, s, ttl)| Lse::new(lpr_core::label::Label::new(l), tc, s, ttl))
                .collect()
        })
}

prop_compose! {
    fn arb_hop()(
        addr in arb_addr(),
        probe_ttl in 1u8..64,
        rtt in 0u32..10_000_000,
        reply_ttl in proptest::option::of(any::<u8>()),
        probe_id in proptest::option::of(any::<u8>()),
        icmp_tc in proptest::option::of(any::<u16>()),
        reply_size in proptest::option::of(any::<u16>()),
        quoted_ttl in proptest::option::of(any::<u8>()),
        stack in arb_stack(),
    ) -> HopRecord {
        let mut h = HopRecord::reply(probe_ttl, addr, rtt);
        h.reply_ttl = reply_ttl;
        h.probe_id = probe_id;
        h.icmp_type_code = icmp_tc;
        h.reply_size = reply_size;
        h.quoted_ttl = quoted_ttl;
        if !stack.is_empty() {
            h.icmp_exts = vec![IcmpExt::mpls(&stack)];
        }
        h
    }
}

prop_compose! {
    fn arb_trace()(
        src in arb_addr(),
        dst in arb_addr(),
        start in proptest::option::of((any::<u32>(), 0u32..1_000_000)),
        completed in any::<bool>(),
        hops in proptest::collection::vec(arb_hop(), 0..12),
    ) -> TraceRecord {
        let mut t = TraceRecord::new(src, dst);
        t.start = start;
        t.stop_reason = if completed { StopReason::Completed } else { StopReason::GapLimit };
        t.hops = hops;
        t
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn roundtrip_traces(traces in proptest::collection::vec(arb_trace(), 1..8)) {
        let mut w = WartsWriter::new();
        let list = w.list(1, "prop");
        let cycle = w.cycle_start(list, 1, 0);
        for t in &traces {
            w.trace(t);
        }
        w.cycle_stop(cycle, 1);
        let bytes = w.into_bytes();

        let mut reader = WartsStreamReader::new(bytes.as_slice());
        let mut got = Vec::new();
        while let Some(rec) = reader.next_record().unwrap() {
            if let Record::Trace(t) = rec {
                got.push(t);
            }
        }
        // list/cycle ids are filled in by the writer's defaults; compare
        // the payload fields.
        prop_assert_eq!(got.len(), traces.len());
        for (g, t) in got.iter().zip(&traces) {
            prop_assert_eq!(g.src, t.src);
            prop_assert_eq!(g.dst, t.dst);
            prop_assert_eq!(g.start, t.start);
            prop_assert_eq!(g.stop_reason, t.stop_reason);
            prop_assert_eq!(&g.hops, &t.hops);
        }
    }

    #[test]
    fn roundtrip_pings(
        src in arb_addr(),
        dst in arb_addr(),
        rtts in proptest::collection::vec(0u32..10_000_000, 0..6),
        stop in proptest::option::of(any::<u8>()),
    ) {
        let mut rec = PingRecord::new(src, dst);
        rec.stop_reason = stop;
        rec.ping_sent = Some(rtts.len() as u16);
        rec.replies = rtts
            .iter()
            .enumerate()
            .map(|(i, &rtt)| {
                let mut r = PingReply::echo(dst, rtt);
                r.probe_id = Some(i as u16);
                r
            })
            .collect();
        let mut w = WartsWriter::new();
        w.ping(&rec);
        let bytes = w.into_bytes();
        let mut reader = WartsStreamReader::new(bytes.as_slice());
        match reader.next_record().unwrap().unwrap() {
            Record::Ping(back) => prop_assert_eq!(back, rec),
            other => prop_assert!(false, "unexpected {:?}", other),
        }
    }

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut reader = WartsStreamReader::new(bytes.as_slice());
        // Either records or an error — never a panic, never an infinite
        // loop (bounded by input length).
        let mut n = 0usize;
        loop {
            match reader.next_record() {
                Ok(None) => break,
                Ok(Some(_)) => n += 1,
                Err(_) => break,
            }
            prop_assert!(n <= bytes.len());
        }
    }

    #[test]
    fn corrupted_valid_file_never_panics(
        trace in arb_trace(),
        flip_at in any::<proptest::sample::Index>(),
        flip_bit in 0u8..8,
    ) {
        let mut w = WartsWriter::new();
        w.trace(&trace);
        let mut bytes = w.into_bytes();
        if !bytes.is_empty() {
            let i = flip_at.index(bytes.len());
            bytes[i] ^= 1 << flip_bit;
        }
        let mut reader = WartsStreamReader::new(bytes.as_slice());
        while let Ok(Some(_)) = reader.next_record() {}
    }
}
