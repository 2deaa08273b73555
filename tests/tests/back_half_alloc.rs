//! Allocation budget of the pipeline's back half.
//!
//! A counting global allocator tallies, per thread, every allocation
//! (and reallocation) made while one snapshot of a standard-world cycle
//! is assembled into IOTPs and classified. The budget:
//!
//! - `build_iotps` + `classify_iotp` make at most 32 allocations per
//!   IOTP: hop signatures are compared in place, so the cost follows an
//!   IOTP's branches, not its observations;
//! - feeding every LSP a second time, as a duplicate observation, adds
//!   no allocation at all;
//! - in-memory `persistent_flags` over an empty window allocates only
//!   its result `Vec`.

use ark_dataset::campaign::{generate_snapshot, CampaignOptions};
use ark_dataset::world::standard_world;
use lpr_core::classify::{classify_iotp, Class};
use lpr_core::filter::{
    attribute_and_filter, build_iotps, iotp_kept, persistent_flags, transit_diversity_keys,
    FilterConfig,
};
use lpr_core::lsp::{Iotp, IotpKey, Lsp};
use lpr_core::quarantine::validate_trace;
use lpr_core::tunnel::{extract_tunnels_into, RawTunnel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot may already be gone while a thread exits.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting only touches a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `alloc` contract is passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `alloc_zeroed` contract is passed on as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, hence from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`.
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

/// The classification input of one standard-world snapshot: the LSPs
/// that pass the per-LSP filters and TransitDiversity, and the kept
/// IOTP keys. Cycle 40 has TE in several ASes, so every class occurs.
fn classify_input() -> (Vec<Lsp>, Vec<IotpKey>) {
    let world = standard_world();
    let traces = generate_snapshot(&world, 40, 0, &CampaignOptions::default());
    let mut tunnels: Vec<RawTunnel> = Vec::new();
    for trace in traces.iter().filter(|t| validate_trace(t).is_ok()) {
        extract_tunnels_into(trace, &mut tunnels);
    }
    let mut lsps = attribute_and_filter(&tunnels, world.rib()).lsps;
    let keep = transit_diversity_keys(&lsps);
    lsps.retain(|l| iotp_kept(&keep, l.iotp_key()));
    (lsps, keep)
}

fn assemble_and_classify(lsps: &[Lsp], keep: &[IotpKey]) -> Vec<(Iotp, Class)> {
    build_iotps(lsps, keep)
        .into_iter()
        .map(|iotp| {
            let class = classify_iotp(&iotp).class;
            (iotp, class)
        })
        .collect()
}

#[test]
fn back_half_allocation_budget() {
    let (lsps, keep) = classify_input();
    let (classified, allocs) = allocs_during(|| assemble_and_classify(&lsps, &keep));
    let iotps = classified.len() as u64;
    assert!(iotps >= 50, "the snapshot yields a real IOTP set: {iotps}");
    assert!(
        lsps.len() as u64 > 5 * iotps,
        "IOTPs merge many observations"
    );
    for class in [Class::MonoLsp, Class::MultiFec] {
        assert!(
            classified.iter().any(|(_, c)| *c == class),
            "no {class} IOTP"
        );
    }
    assert!(
        classified
            .iter()
            .any(|(_, c)| matches!(c, Class::MonoFec(_))),
        "no Mono-FEC IOTP"
    );
    let per_iotp = allocs as f64 / iotps as f64;
    assert!(
        per_iotp <= 32.0,
        "build_iotps + classify_iotp made {allocs} allocations for {iotps} IOTPs \
         ({per_iotp:.1}/IOTP) from {} LSPs",
        lsps.len()
    );

    // Every LSP again, as a second observation of a known branch.
    let doubled: Vec<Lsp> = lsps.iter().chain(&lsps).cloned().collect();
    let (reclassified, doubled_allocs) = allocs_during(|| assemble_and_classify(&doubled, &keep));
    assert_eq!(
        doubled_allocs, allocs,
        "duplicate observations allocate nothing"
    );
    assert_eq!(reclassified.len(), classified.len());
    for ((a, ca), (b, cb)) in classified.iter().zip(&reclassified) {
        assert_eq!((&a.key, ca), (&b.key, cb));
        assert_eq!(a.width(), b.width());
        let (na, nb) = (
            a.branches.iter().map(|br| br.observations).sum::<usize>(),
            b.branches.iter().map(|br| br.observations).sum::<usize>(),
        );
        assert_eq!(2 * na, nb);
    }

    // A window with no future snapshot: the result `Vec` and nothing
    // else, however many LSPs are probed.
    let (flags, flag_allocs) =
        allocs_during(|| persistent_flags(&lsps, &[], &FilterConfig::default()));
    assert_eq!(flags, vec![false; lsps.len()]);
    assert_eq!(flag_allocs, 1, "empty-window Persistence builds no LspKey");
}
