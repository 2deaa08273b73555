//! LSP-tree analysis: the §5 extension that indexes LSPs through the
//! **Egress LER only**.
//!
//! LDP builds an LSP-*tree* per FEC: packets entering at different
//! Ingress LERs but leaving at the same Egress LER converge, and once
//! two branches meet at an LSR they carry the **same** label onwards
//! (per-router label scope). Grouping the observed LSPs by
//! `(AS, egress)` instead of `(AS, ingress, egress)` therefore:
//!
//! * indexes LSPs that per-IOTP analysis would drop (an ingress that
//!   reaches only one destination AS still contributes to the tree);
//! * gives a stronger Multi-FEC test: any LSR of the tree exposing two
//!   labels for the same egress cannot be running plain LDP;
//! * naturally generalises to DAGs when ECMP splits branches (the
//!   paper's closing remark).

use crate::classify::common_ip_labels;
use crate::label::Label;
use crate::lsp::{Asn, Iotp, IotpKey, Lsp};
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// All observed LSPs of one AS converging on one Egress LER.
#[derive(Clone, Debug)]
pub struct FecTree {
    /// The AS owning the tree.
    pub asn: Asn,
    /// The Egress LER (the FEC's BGP next-hop).
    pub egress: Ipv4Addr,
    /// The distinct ingress LERs feeding the tree.
    pub ingresses: BTreeSet<Ipv4Addr>,
    /// The underlying per-ingress IOTP views (reusing the IOTP
    /// machinery for branch dedup).
    pub branches: Iotp,
}

/// Classification of a FEC tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeClass {
    /// Only one LSP feeds this egress: nothing to compare.
    SingleBranch,
    /// Every convergence LSR exposes a single label: consistent with
    /// one LDP LSP-tree (possibly a DAG under ECMP).
    ConsistentLdp,
    /// At least one LSR exposes several labels for the same egress:
    /// several FECs terminate there — RSVP-TE.
    MultiFec {
        /// The LSRs with conflicting labels.
        conflicting: Vec<Ipv4Addr>,
    },
    /// Branches never share a labelled LSR (PHP everywhere): no
    /// conclusion from the tree either.
    NoConvergence,
}

/// Builds the per-`(AS, egress)` trees from filtered LSPs.
///
/// Unlike [`crate::filter::transit_diversity_keys`], no destination-AS
/// diversity is required: indexing by egress alone is exactly what
/// lets more LSPs participate (§5).
pub fn build_fec_trees(lsps: &[Lsp]) -> Vec<FecTree> {
    let mut grouped: BTreeMap<(Asn, Ipv4Addr), Vec<&Lsp>> = BTreeMap::new();
    for l in lsps {
        grouped.entry((l.asn, l.egress)).or_default().push(l);
    }
    grouped
        .into_iter()
        .map(|((asn, egress), lsps)| {
            // Branch bookkeeping reuses Iotp with a synthetic key: the
            // ingress slot is zeroed since the tree spans ingresses.
            let key = IotpKey { asn, ingress: Ipv4Addr::UNSPECIFIED, egress };
            let mut branches = Iotp::new(key);
            let mut ingresses = BTreeSet::new();
            for l in lsps {
                ingresses.insert(l.ingress);
                let mut tree_view = l.clone();
                tree_view.ingress = Ipv4Addr::UNSPECIFIED;
                branches.absorb(&tree_view);
            }
            FecTree { asn, egress, ingresses, branches }
        })
        .collect()
}

/// Classifies one tree.
pub fn classify_tree(tree: &FecTree) -> TreeClass {
    if tree.branches.width() <= 1 {
        return TreeClass::SingleBranch;
    }
    let common = common_ip_labels(&tree.branches);
    if common.is_empty() {
        return TreeClass::NoConvergence;
    }
    let conflicting: Vec<Ipv4Addr> = common
        .iter()
        .filter(|(_, labels)| labels.len() > 1)
        .map(|(addr, _)| *addr)
        .collect();
    if conflicting.is_empty() {
        TreeClass::ConsistentLdp
    } else {
        TreeClass::MultiFec { conflicting }
    }
}

/// The labels observed at one LSR across a whole tree (diagnostic
/// helper used by reports and tests).
pub fn labels_at(tree: &FecTree, lsr: Ipv4Addr) -> BTreeSet<Vec<Label>> {
    tree.branches
        .branches
        .iter()
        .flat_map(|b| b.hops.iter())
        .filter(|h| h.addr == lsr)
        .map(|h| h.labels())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::{LabelStack, Lse};
    use crate::lsp::LspHop;

    fn ip(o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, o)
    }

    fn lsp(ingress: u8, hops: &[(u8, u32)], dst_asn: u32) -> Lsp {
        Lsp {
            asn: Asn(65000),
            ingress: ip(ingress),
            egress: ip(9),
            hops: hops
                .iter()
                .map(|&(o, l)| {
                    LspHop::new(ip(o), LabelStack::from_entries(&[Lse::transit(l, 255)]))
                })
                .collect(),
            dst: Ipv4Addr::new(192, 0, 2, 1),
            dst_asn: Some(Asn(dst_asn)),
        }
    }

    #[test]
    fn ldp_tree_from_two_ingresses_is_consistent() {
        // Two ingresses converge on LSR ip(5); LDP gives both branches
        // the same label there.
        let lsps =
            vec![lsp(1, &[(2, 100), (5, 400)], 100), lsp(3, &[(4, 200), (5, 400)], 100)];
        let trees = build_fec_trees(&lsps);
        assert_eq!(trees.len(), 1);
        let tree = &trees[0];
        assert_eq!(tree.ingresses.len(), 2);
        assert_eq!(classify_tree(tree), TreeClass::ConsistentLdp);
        assert_eq!(labels_at(tree, ip(5)).len(), 1);
    }

    #[test]
    fn te_tree_shows_conflicting_labels() {
        let lsps =
            vec![lsp(1, &[(2, 100), (5, 400)], 100), lsp(3, &[(4, 200), (5, 401)], 100)];
        let trees = build_fec_trees(&lsps);
        match classify_tree(&trees[0]) {
            TreeClass::MultiFec { conflicting } => assert_eq!(conflicting, vec![ip(5)]),
            other => panic!("expected MultiFec, got {other:?}"),
        }
    }

    #[test]
    fn single_branch_tree() {
        let lsps = vec![lsp(1, &[(2, 100)], 100)];
        let trees = build_fec_trees(&lsps);
        assert_eq!(classify_tree(&trees[0]), TreeClass::SingleBranch);
    }

    #[test]
    fn php_only_tree_has_no_convergence() {
        let lsps = vec![lsp(1, &[(2, 100)], 100), lsp(3, &[(4, 200)], 100)];
        let trees = build_fec_trees(&lsps);
        assert_eq!(classify_tree(&trees[0]), TreeClass::NoConvergence);
    }

    #[test]
    fn trees_split_by_egress_and_as() {
        let mut a = lsp(1, &[(2, 100)], 100);
        let mut b = lsp(1, &[(2, 100)], 100);
        a.egress = ip(8);
        b.egress = ip(9);
        let mut c = lsp(1, &[(2, 100)], 100);
        c.asn = Asn(65001);
        let trees = build_fec_trees(&[a, b, c]);
        assert_eq!(trees.len(), 3);
    }

    #[test]
    fn tree_indexes_lsps_that_iotps_drop() {
        // Each ingress reaches only ONE destination AS: the
        // TransitDiversity filter would reject both IOTPs, yet the
        // egress-rooted tree still classifies them.
        let lsps =
            vec![lsp(1, &[(2, 100), (5, 400)], 100), lsp(3, &[(4, 200), (5, 400)], 101)];
        let keep = crate::filter::transit_diversity_keys(&lsps);
        assert!(keep.is_empty(), "per-IOTP analysis drops these LSPs");
        let trees = build_fec_trees(&lsps);
        assert_eq!(classify_tree(&trees[0]), TreeClass::ConsistentLdp);
    }
}
