//! Allocation budget of the out-of-core ingest path.
//!
//! A counting global allocator tallies, per thread, every allocation
//! (and reallocation) made while a generated multi-file corpus is
//! indexed and decoded. The budget:
//!
//! - decode straight into a reused `Trace` → `validate_trace` →
//!   `extract_tunnels_into` makes at most 2 allocations per trace
//!   (what remains is the `lsrs` list of each extracted tunnel);
//! - `RecordIndex::build` makes at most 1 allocation per record,
//!   amortised (it validates records without building them).

use lpr_core::label::Lse;
use lpr_core::quarantine::validate_trace;
use lpr_core::trace::{Hop, Trace};
use lpr_core::tunnel::{extract_tunnels_into, RawTunnel};
use lpr_corpus::{Corpus, RecordIndex};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use warts::{decode_trace_into, AddrTableReader, Decoded, RecordType};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations this thread made while running `f`.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

fn ip(a: u8, b: u8, o: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, a, b, o)
}

/// Ark-like traces: most cross one explicit tunnel (one or two
/// labels), some cross two, some have unresponsive hops, a few quote a
/// stack deeper than the inline capacity.
fn workload() -> Vec<Trace> {
    let mut traces = Vec::new();
    for i in 0..3000u32 {
        let (a, b) = ((i % 50) as u8, (i / 50) as u8);
        let dst = Ipv4Addr::new(192, 0, (i / 200) as u8, (i % 200) as u8);
        let mut t = Trace::new(Ipv4Addr::new(203, 0, 113, (i % 7) as u8), dst);
        t.push_hop(Hop::responsive(1, ip(a, b, 1)));
        t.push_hop(Hop::responsive(2, ip(a, b, 2)));
        let depth = match i % 50 {
            0 => 3,
            n if n % 3 == 0 => 2,
            _ => 1,
        };
        let stack: Vec<Lse> = (0..depth).map(|d| Lse::transit(16 + i % 97 + d, 250)).collect();
        t.push_hop(Hop::labelled(3, ip(a, b, 3), &stack));
        t.push_hop(Hop::labelled(4, ip(a, b, 4), &stack));
        let mut ttl = 5;
        if i % 4 == 0 {
            ttl += 1; // TTL 5 unanswered: a gap the decode fills
        }
        t.push_hop(Hop::responsive(ttl, ip(a, b, 5)));
        if i % 5 == 0 {
            // A second tunnel further along.
            t.push_hop(Hop::labelled(ttl + 1, ip(a, b, 6), &[Lse::transit(300 + i % 11, 250)]));
            t.push_hop(Hop::responsive(ttl + 2, ip(a, b, 7)));
            ttl += 2;
        }
        t.push_hop(Hop::responsive(ttl + 1, dst));
        t.reached = true;
        traces.push(t);
    }
    traces
}

fn corpus(name: &str) -> (Corpus, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("lpr-alloc-{name}-{}", std::process::id()));
    let paths = lpr_corpus::write_corpus_files(&dir, "cycle", &workload(), 4).unwrap();
    (Corpus::open_with(&paths, false, None).unwrap(), dir)
}

#[test]
fn decode_validate_extract_stays_within_two_allocations_per_trace() {
    let (corpus, dir) = corpus("decode");
    let mut tunnel_count = 0usize;
    let (traces, allocs) = allocs_during(|| {
        let mut trace = Trace::new(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED);
        let mut tunnels: Vec<RawTunnel> = Vec::new();
        let mut traces = 0u64;
        for file in &corpus.files {
            let mut addrs = AddrTableReader::preloaded(&file.index.addr_table);
            for (rec, span) in file.index.records.iter().enumerate() {
                if span.record_type != RecordType::Trace as u16 {
                    continue;
                }
                let decoded = decode_trace_into(file.body(rec), &mut addrs, &mut trace);
                assert_eq!(decoded, Ok(Decoded::Trace));
                assert_eq!(validate_trace(&trace), Ok(()));
                tunnels.clear();
                extract_tunnels_into(&trace, &mut tunnels);
                tunnel_count += tunnels.len();
                traces += 1;
            }
        }
        traces
    });
    assert_eq!(traces, 3000);
    assert!(tunnel_count >= 3000, "every trace crosses a tunnel: {tunnel_count}");
    let per_trace = allocs as f64 / traces as f64;
    assert!(
        per_trace <= 2.0,
        "decode → validate → extract made {allocs} allocations for {traces} traces \
         ({per_trace:.2}/trace)"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn index_build_stays_within_one_allocation_per_record() {
    let (corpus, dir) = corpus("index");
    for file in &corpus.files {
        let (index, allocs) = allocs_during(|| RecordIndex::build(file.bytes()));
        assert_eq!(index, file.index, "a rebuild reproduces the open's index");
        let records = index.records.len() as u64;
        assert!(records > 700, "file holds a quarter of the cycle: {records}");
        assert!(
            allocs <= records,
            "RecordIndex::build made {allocs} allocations for {records} records"
        );
    }
    std::fs::remove_dir_all(dir).ok();
}
