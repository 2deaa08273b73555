//! Oracle test for IOTP assembly and Algorithm 1.
//!
//! The library compares hop signatures in place and finds common IP
//! addresses with one sort-and-scan. This file keeps the straightforward
//! formulation as a reference: `Iotp::absorb` over `(address, label
//! vector)` signatures, and `common_ip_labels` as a `BTreeMap` of branch
//! sets and label-vector sets per address. Random LSP sets must give
//! equal IOTPs (branches, observations, destination ASes) and equal
//! classifications, down to the order of `multi_label_ips`, for
//! per-IOTP, alias-rescue and egress-tree classification.

use lpr_core::alias::classify_with_alias_heuristic;
use lpr_core::classify::{classify_iotp, Class, Classification, MonoFecKind};
use lpr_core::filter::build_iotps;
use lpr_core::label::{Label, LabelStack, Lse};
use lpr_core::lsp::{Asn, Branch, Iotp, IotpKey, Lsp, LspHop};
use lpr_core::tree::{build_fec_trees, classify_tree, TreeClass};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

// ---- reference implementation -------------------------------------------

fn signature(hops: &[LspHop]) -> Vec<(Ipv4Addr, Vec<Label>)> {
    hops.iter().map(|h| (h.addr, h.labels())).collect()
}

fn reference_absorb(iotp: &mut Iotp, lsp: &Lsp) {
    let sig = signature(&lsp.hops);
    for b in &mut iotp.branches {
        if signature(&b.hops) == sig {
            if let Some(a) = lsp.dst_asn {
                b.dst_asns.insert(a);
            }
            b.observations += 1;
            return;
        }
    }
    let dst_asns = lsp.dst_asn.into_iter().collect();
    iotp.branches.push(Branch {
        hops: lsp.hops.clone(),
        dst_asns,
        observations: 1,
    });
}

fn reference_build_iotps(lsps: &[Lsp], keep: &[IotpKey]) -> Vec<Iotp> {
    let mut map: BTreeMap<IotpKey, Iotp> = BTreeMap::new();
    for l in lsps {
        let k = l.iotp_key();
        if keep.binary_search(&k).is_ok() {
            reference_absorb(map.entry(k).or_insert_with(|| Iotp::new(k)), l);
        }
    }
    map.into_values().collect()
}

fn common_ip_labels(iotp: &Iotp) -> BTreeMap<Ipv4Addr, BTreeSet<Vec<Label>>> {
    let mut seen: BTreeMap<Ipv4Addr, (BTreeSet<usize>, BTreeSet<Vec<Label>>)> = BTreeMap::new();
    for (bi, branch) in iotp.branches.iter().enumerate() {
        for hop in &branch.hops {
            let entry = seen.entry(hop.addr).or_default();
            entry.0.insert(bi);
            entry.1.insert(hop.labels());
        }
    }
    seen.into_iter()
        .filter(|(_, (branches, _))| branches.len() >= 2)
        .map(|(addr, (_, labels))| (addr, labels))
        .collect()
}

fn multi_label(common: &BTreeMap<Ipv4Addr, BTreeSet<Vec<Label>>>) -> Vec<Ipv4Addr> {
    common
        .iter()
        .filter(|(_, labels)| labels.len() > 1)
        .map(|(addr, _)| *addr)
        .collect()
}

fn reference_mono_fec_kind(iotp: &Iotp) -> MonoFecKind {
    let sigs: BTreeSet<Vec<Vec<Label>>> = iotp
        .branches
        .iter()
        .map(|b| b.hops.iter().map(|h| h.labels()).collect())
        .collect();
    if sigs.len() <= 1 {
        MonoFecKind::ParallelLinks
    } else {
        MonoFecKind::RoutersDisjoint
    }
}

fn reference_classify(iotp: &Iotp) -> Classification {
    let none = |class| Classification {
        class,
        common_ips: 0,
        multi_label_ips: Vec::new(),
    };
    if iotp.branches.len() <= 1 {
        return none(Class::MonoLsp);
    }
    let common = common_ip_labels(iotp);
    if common.is_empty() {
        return none(Class::Unclassified);
    }
    let multi_label_ips = multi_label(&common);
    let class = if multi_label_ips.is_empty() {
        Class::MonoFec(reference_mono_fec_kind(iotp))
    } else {
        Class::MultiFec
    };
    Classification {
        class,
        common_ips: common.len(),
        multi_label_ips,
    }
}

fn reference_alias(iotp: &Iotp) -> Classification {
    let base = reference_classify(iotp);
    if base.class != Class::Unclassified {
        return base;
    }
    let mut penultimate: BTreeSet<Vec<Label>> = BTreeSet::new();
    for branch in &iotp.branches {
        match branch.hops.last() {
            Some(h) => {
                penultimate.insert(h.labels());
            }
            None => return base,
        }
    }
    let class = if penultimate.len() > 1 {
        Class::MultiFec
    } else {
        Class::MonoFec(reference_mono_fec_kind(iotp))
    };
    Classification {
        class,
        common_ips: 1,
        multi_label_ips: Vec::new(),
    }
}

fn reference_tree_class(branches: &Iotp) -> TreeClass {
    if branches.width() <= 1 {
        return TreeClass::SingleBranch;
    }
    let common = common_ip_labels(branches);
    if common.is_empty() {
        return TreeClass::NoConvergence;
    }
    let conflicting = multi_label(&common);
    if conflicting.is_empty() {
        TreeClass::ConsistentLdp
    } else {
        TreeClass::MultiFec { conflicting }
    }
}

// ---- generators ----------------------------------------------------------

fn ip(o: u8) -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, o)
}

/// A hop from small pools, so addresses repeat within and across
/// branches and labels collide. Depth 0 is an unlabelled hop; depth 3
/// and 4 spill past the inline stack.
fn arb_hop() -> impl Strategy<Value = LspHop> {
    (
        2u8..8,
        proptest::collection::vec((16u32..19, 0u8..8, any::<u8>()), 0..5),
    )
        .prop_map(|(o, entries)| {
            let depth = entries.len();
            let stack = entries
                .into_iter()
                .enumerate()
                .map(|(i, (l, tc, ttl))| Lse::new(Label::new(l), tc, i + 1 == depth, ttl))
                .collect();
            LspHop::new(ip(o), stack)
        })
}

/// An LSP over two ASes, two ingresses and two egresses, possibly with
/// no hops and possibly without a destination AS.
fn arb_lsp() -> impl Strategy<Value = Lsp> {
    (
        0u32..2,
        0u8..2,
        0u8..2,
        proptest::collection::vec(arb_hop(), 0..5),
        proptest::option::of(100u32..104),
    )
        .prop_map(|(asn, ingress, egress, hops, dst_asn)| Lsp {
            asn: Asn(65000 + asn),
            ingress: ip(1 + ingress),
            egress: ip(98 + egress),
            hops,
            dst: Ipv4Addr::new(192, 0, 2, 1),
            dst_asn: dst_asn.map(Asn),
        })
}

/// Fresh LSPs plus re-observations of earlier ones that differ only in
/// TC, S and TTL (and possibly in the destination AS). Half the sets are
/// labelled LDP-style, each address always quoting the same stack, so
/// that Mono-FEC IOTPs are common too.
fn arb_lsps() -> impl Strategy<Value = Vec<Lsp>> {
    (
        proptest::collection::vec(arb_lsp(), 1..12),
        proptest::collection::vec(
            (any::<prop::sample::Index>(), any::<u8>(), 100u32..104),
            0..12,
        ),
        any::<bool>(),
    )
        .prop_map(|(mut lsps, repeats, per_address)| {
            if per_address {
                for hop in lsps.iter_mut().flat_map(|l| &mut l.hops) {
                    let o = hop.addr.octets()[3] as u32;
                    let depth = 1 + o % 3;
                    hop.stack = (0..depth).map(|i| Lse::transit(16 + o + i, 200)).collect();
                }
            }
            for (pick, noise, dst) in repeats {
                let mut again = lsps[pick.index(lsps.len())].clone();
                for hop in &mut again.hops {
                    hop.stack = hop
                        .stack
                        .entries()
                        .iter()
                        .map(|e| Lse::new(e.label, e.tc ^ noise, !e.bottom, e.ttl ^ noise))
                        .collect();
                }
                if noise % 3 == 0 {
                    again.dst_asn = Some(Asn(dst));
                }
                lsps.push(again);
            }
            lsps
        })
}

fn all_keys(lsps: &[Lsp]) -> Vec<IotpKey> {
    let mut keys: Vec<IotpKey> = lsps.iter().map(|l| l.iotp_key()).collect();
    keys.sort();
    keys.dedup();
    keys
}

// ---- properties ----------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn iotps_and_classes_match_the_reference(lsps in arb_lsps()) {
        let keep = all_keys(&lsps);
        let iotps = build_iotps(&lsps, &keep);
        prop_assert_eq!(&iotps, &reference_build_iotps(&lsps, &keep));
        for iotp in &iotps {
            prop_assert_eq!(classify_iotp(iotp), reference_classify(iotp), "{:?}", iotp);
            prop_assert_eq!(classify_with_alias_heuristic(iotp), reference_alias(iotp));
        }
    }

    #[test]
    fn trees_match_the_reference(lsps in arb_lsps()) {
        for tree in build_fec_trees(&lsps) {
            let mut reference = Iotp::new(tree.branches.key);
            for l in lsps.iter().filter(|l| (l.asn, l.egress) == (tree.asn, tree.egress)) {
                let mut view = l.clone();
                view.ingress = Ipv4Addr::UNSPECIFIED;
                reference_absorb(&mut reference, &view);
            }
            prop_assert_eq!(&tree.branches, &reference);
            prop_assert_eq!(classify_tree(&tree), reference_tree_class(&reference));
        }
    }
}

#[test]
fn generators_reach_the_listed_cases() {
    // The properties above only mean something if the generated sets
    // contain every shape the comparison has to get right.
    let mut rng = TestRng::deterministic("generators_reach_the_listed_cases");
    let (mut repeated_addr, mut ttl_only, mut deep, mut no_hops, mut multi, mut mono) =
        (0, 0, 0, 0, 0, 0);
    for _ in 0..512 {
        let lsps = arb_lsps().generate(&mut rng);
        for l in &lsps {
            let addrs: BTreeSet<_> = l.hops.iter().map(|h| h.addr).collect();
            repeated_addr += usize::from(addrs.len() < l.hops.len());
            deep += usize::from(l.hops.iter().any(|h| h.stack.depth() > LabelStack::INLINE));
            no_hops += usize::from(l.hops.is_empty());
        }
        for (i, a) in lsps.iter().enumerate() {
            ttl_only += lsps[..i]
                .iter()
                .filter(|b| a.key() == b.key() && a.hops != b.hops)
                .count();
        }
        for iotp in build_iotps(&lsps, &all_keys(&lsps)) {
            match classify_iotp(&iotp).class {
                Class::MultiFec => multi += 1,
                Class::MonoFec(_) => mono += 1,
                _ => {}
            }
        }
    }
    for (what, n) in [
        ("address repeated within a branch", repeated_addr),
        ("hops differing only in TC/S/TTL", ttl_only),
        ("stacks deeper than the inline capacity", deep),
        ("branches with no hops", no_hops),
        ("Multi-FEC IOTPs", multi),
        ("Mono-FEC IOTPs", mono),
    ] {
        assert!(n >= 20, "only {n} cases with {what}");
    }
}
