//! MDA / MDA-Lite stochastic multipath probing.
//!
//! The exhaustive way to see a destination's ECMP diversity is to walk
//! the TTL ladder under *every* flow identifier in a fixed budget —
//! [`ProbingStrategy::Exhaustive`], which real campaigns cannot
//! afford. Paris traceroute's Multipath Detection Algorithm (MDA) and
//! its MDA-Lite successor (*Multilevel MDA-Lite Paris Traceroute*,
//! arXiv:1809.10070) replace the enumeration with a statistical
//! stopping rule built on the table-driven `n_k` thresholds: having
//! observed `k` distinct outcomes, keep probing until
//! [`nk_threshold`]`(k)` flow-varied walks have failed to show a
//! `(k+1)`-th — at which point the hypothesis "there is another
//! branch" is rejected at the configured confidence. Here the rule is
//! applied to the distinct *transit paths* a destination (or a /24
//! host group) exposes, with per-TTL interface widths driving MDA's
//! steered per-hop re-confirmation.
//!
//! Two stochastic modes are implemented on top of the same sweep:
//!
//! * [`ProbingStrategy::MdaLite`] assumes per-flow load balancing (true
//!   of this data plane and of most deployed routers): every flow-varied
//!   ladder walk gives a full vertical view, so per-TTL interface
//!   counts alone drive the stopping rule and no hop is re-confirmed.
//! * [`ProbingStrategy::Mda`] adds the classic per-hop re-confirmation:
//!   after the vertical sweep settles, each divergent hop is re-probed
//!   with flows *steered* through every ECMP index via the explicit
//!   flow-id→hash mapping ([`crate::dataplane::steering_flows`])
//!   instead of sampling the flow space blind. Costlier in probes,
//!   immune to the per-flow assumption.
//!
//! [`ProbingStrategy::Exhaustive`] remains the oracle: consume the
//! whole candidate budget. Campaign integration lives in
//! [`Prober::campaign_with_budget`], which applies the same stopping
//! rule per `(vp, /24)` host group.

use crate::dataplane::{probe_ladder, steering_flows, ProbeReply};
use crate::internet::splitmix64;
use crate::probe::{ProbeCore, Prober};
use lpr_chaos::FaultCounts;
use lpr_core::trace::Trace;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// How a campaign (or a single-destination discovery) spends probes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ProbingStrategy {
    /// Probe every candidate — each `(vp, dst)` pair of the probing
    /// list, every flow of a discovery budget. The oracle the
    /// stochastic modes are measured against, and the default (it is
    /// what the paper's campaign shape pins).
    #[default]
    Exhaustive,
    /// Full MDA: stopping rule plus per-hop re-confirmation with
    /// hash-steered flows.
    Mda,
    /// MDA-Lite: stopping rule on vertical per-TTL interface counts
    /// only (assumes per-flow load balancing).
    MdaLite,
}

impl ProbingStrategy {
    /// The CLI/report spelling.
    pub fn name(self) -> &'static str {
        match self {
            ProbingStrategy::Exhaustive => "exhaustive",
            ProbingStrategy::Mda => "mda",
            ProbingStrategy::MdaLite => "mda-lite",
        }
    }

    /// Parses the CLI spelling (`exhaustive`, `mda`, `mda-lite`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "exhaustive" => Some(ProbingStrategy::Exhaustive),
            "mda" => Some(ProbingStrategy::Mda),
            "mda-lite" | "mdalite" => Some(ProbingStrategy::MdaLite),
            _ => None,
        }
    }
}

/// The stopping-rule confidence campaigns use (the paper value: rule
/// out an unseen branch at 95%).
pub const DEFAULT_CONFIDENCE: f64 = 0.95;

/// Single-destination discovery parameters.
#[derive(Clone, Debug)]
pub struct MdaOptions {
    /// Probing mode; [`ProbingStrategy::Exhaustive`] sweeps the whole
    /// `max_flows` budget and is the oracle.
    pub strategy: ProbingStrategy,
    /// Stopping-rule confidence (fraction, e.g. `0.95`).
    pub confidence: f64,
    /// Hard cap on flow-varied ladder walks per destination; the
    /// stopping rule stops earlier, the cap never lets it run longer.
    pub max_flows: usize,
}

impl Default for MdaOptions {
    fn default() -> Self {
        MdaOptions {
            strategy: ProbingStrategy::MdaLite,
            confidence: DEFAULT_CONFIDENCE,
            max_flows: 64,
        }
    }
}

/// What one multipath discovery found and what it cost.
#[derive(Clone, Debug)]
pub struct MdaDiscovery {
    /// Distinct IP paths observed (responsive-hop address sequences,
    /// sorted).
    pub paths: Vec<Vec<Ipv4Addr>>,
    /// Flow-varied ladder walks traced (excluding re-confirmation).
    pub flows_traced: u64,
    /// Probe packets spent, re-confirmation included.
    pub probes_sent: u64,
    /// Steered per-hop re-confirmation walks (MDA mode only).
    pub confirmations: u64,
    /// The stopping rule wanted more flows than `max_flows` allowed.
    pub exhausted: bool,
}

/// The MDA `n_k` stopping threshold: the smallest number of probes
/// that, having shown only `k` distinct interfaces at a hop, rejects
/// the hypothesis of a `(k+1)`-th equally-balanced branch at the given
/// confidence. Computed from the exact inclusion–exclusion miss
/// probability, reproducing the published table — at 95%:
/// `n_1..=n_8 = 6, 11, 16, 21, 27, 33, 38, 44`.
pub fn nk_threshold(k: usize, confidence: f64) -> usize {
    nk_threshold_from(k, confidence, k + 1)
}

/// [`nk_threshold`] with the linear search started at `floor` (clamped
/// up to `k + 1`). `n_k` is monotone in `k`, so a sweep that already
/// knows `n_{k-1}` resumes from there instead of re-scanning — the
/// difference between O(k·n_k) and O(n_k − n_{k-1}) threshold work per
/// newly discovered path, which matters on the campaign hot path.
fn nk_threshold_from(k: usize, confidence: f64, floor: usize) -> usize {
    if k == 0 {
        return 1;
    }
    let alpha = (1.0 - confidence).clamp(1e-12, 0.5);
    let mut n = floor.max(k + 1);
    while miss_probability(k, n) >= alpha && n < 10_000 {
        n += 1;
    }
    n
}

/// P(at least one of `k + 1` uniformly-balanced interfaces is unseen
/// after `n` probes), by inclusion–exclusion.
fn miss_probability(k: usize, n: usize) -> f64 {
    let kp1 = (k + 1) as f64;
    let mut p = 0.0;
    let mut binom = 1.0; // C(k+1, i), updated incrementally
    for i in 1..=k {
        binom *= (kp1 - i as f64 + 1.0) / i as f64;
        let term = binom * ((kp1 - i as f64) / kp1).powi(n as i32);
        if i % 2 == 1 {
            p += term;
        } else {
            p -= term;
        }
    }
    p
}

/// Accumulated state of one stopping-rule sweep.
///
/// The sweep sits on the campaign's per-probe hot path, so its
/// bookkeeping is sized to cost less than the probes it saves: path
/// identity is a 64-bit FNV-1a fingerprint in a small sorted vector
/// (not a set of cloned address sequences), per-TTL interface sets are
/// maintained only when full-MDA re-confirmation will read them, and
/// the `n_k` threshold is memoised per distinct path count.
#[derive(Default)]
struct Sweep {
    traces: Vec<Trace>,
    /// Fingerprints of the distinct transit paths seen so far
    /// (responsive-hop address sequences, the destination's own echo
    /// excluded so hosts sharing a /24 don't trivially count as
    /// distinct) — what the stopping rule enumerates. Sorted; a 64-bit
    /// collision would merely stop a sweep one path early at odds far
    /// below the stopping rule's own 5% error budget.
    paths: Vec<u64>,
    /// Distinct responsive interfaces per TTL — the per-hop widths MDA
    /// re-confirmation steers against. Populated only under
    /// [`Sweep::track_widths`]; MDA-Lite never reads them.
    per_ttl: BTreeMap<u8, BTreeSet<Ipv4Addr>>,
    /// Whether [`Sweep::observe`] maintains `per_ttl` (MDA mode only).
    track_widths: bool,
    /// Per-TTL widths already re-confirmed with steered flows, so a
    /// repeat confirmation pass skips hops it has settled.
    confirmed: BTreeMap<u8, usize>,
    /// Stopping-rule confidence, fixed at construction.
    confidence: f64,
    /// Memoised `(k, n_k)` of the last [`Sweep::required`] call.
    nk_memo: (usize, usize),
    probes: u64,
    confirmations: u64,
    exhausted: bool,
}

impl Sweep {
    fn new(strategy: ProbingStrategy, confidence: f64) -> Self {
        Sweep {
            track_widths: strategy == ProbingStrategy::Mda,
            confidence,
            nk_memo: (usize::MAX, 0),
            ..Sweep::default()
        }
    }

    fn observe(&mut self, trace: &Trace) {
        let mut fp = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
        for h in trace.responsive_hops() {
            let addr = h.addr.expect("responsive");
            if self.track_widths {
                self.per_ttl.entry(h.probe_ttl).or_default().insert(addr);
            }
            if addr != trace.dst {
                fp = (fp ^ u64::from(u32::from(addr))).wrapping_mul(0x100_0000_01b3);
            }
        }
        if let Err(i) = self.paths.binary_search(&fp) {
            self.paths.insert(i, fp);
        }
    }

    /// Flows the stopping rule currently demands: having seen `k`
    /// distinct transit paths, `n_k` flows must fail to show a
    /// `(k+1)`-th before the enumeration is declared complete.
    fn required(&mut self) -> usize {
        let k = self.paths.len();
        if self.nk_memo.0 != k {
            // Paths only accumulate, so the previous threshold is a
            // valid floor for the next search.
            self.nk_memo = (k, nk_threshold_from(k, self.confidence, self.nk_memo.1));
        }
        self.nk_memo.1
    }
}

/// Runs one stopping-rule sweep over an ordered candidate list of
/// `(dst, flow)` ladder walks. Exhaustive consumes every candidate;
/// the stochastic modes stop once the widest hop's `n_k` threshold is
/// met (or the candidates run out — `exhausted`). MDA additionally
/// re-confirms every divergent hop with steered flows, and re-enters
/// the vertical sweep when confirmation widened a hop.
fn stopping_sweep(
    core: ProbeCore<'_>,
    vp: Ipv4Addr,
    candidates: &[(Ipv4Addr, u64)],
    strategy: ProbingStrategy,
    confidence: f64,
    injected: &mut FaultCounts,
) -> Sweep {
    let mut sw = Sweep::new(strategy, confidence);
    let mut used = 0usize;
    loop {
        loop {
            let wanted = match strategy {
                ProbingStrategy::Exhaustive => candidates.len(),
                _ => sw.required(),
            };
            if used >= wanted.min(candidates.len()) {
                sw.exhausted = wanted > candidates.len();
                break;
            }
            let (dst, flow) = candidates[used];
            let (trace, probes) = core.trace_with_flow_counted(vp, dst, flow, injected);
            sw.probes += probes;
            // The oracle consumes every candidate regardless, so it
            // skips the stopping-rule bookkeeping entirely.
            if strategy != ProbingStrategy::Exhaustive {
                sw.observe(&trace);
            }
            sw.traces.push(trace);
            used += 1;
        }
        if strategy != ProbingStrategy::Mda || candidates.is_empty() {
            break;
        }
        if !confirm_hops(core, vp, candidates[0], &mut sw) {
            break;
        }
    }
    sw
}

/// Whether a hop's current width still needs steered re-confirmation.
fn needs_confirmation(sw: &Sweep, ttl: u8, width: usize) -> bool {
    width >= 2 && width > sw.confirmed.get(&ttl).copied().unwrap_or(0)
}

/// MDA's per-hop re-confirmation: one reconnaissance walk identifies
/// the routers along the base flow's path, then every hop whose
/// *successor* TTL shows several interfaces is re-probed with flows
/// steered through each ECMP index of that router. Returns whether any
/// hop widened (the caller then re-enters the vertical sweep, because
/// a wider hop raises the stopping threshold).
fn confirm_hops(
    core: ProbeCore<'_>,
    vp: Ipv4Addr,
    base: (Ipv4Addr, u64),
    sw: &mut Sweep,
) -> bool {
    let (dst, base_flow) = base;
    let max = core.opts.max_ttl as usize;
    let mut events = Vec::new();
    let _ = probe_ladder(core.net, vp, dst, base_flow, max, &mut events, None);
    let mut grew = false;
    for (i, ev) in events.iter().enumerate() {
        let ProbeReply::TimeExceeded { router, .. } = ev else { continue };
        let next_ttl = i as u8 + 2;
        let width = sw.per_ttl.get(&next_ttl).map_or(0, |set| set.len());
        if !needs_confirmation(sw, next_ttl, width) {
            continue;
        }
        sw.confirmed.insert(next_ttl, width);
        for flow in steering_flows(base_flow, *router, width) {
            let mut walk = Vec::new();
            let _ = probe_ladder(core.net, vp, dst, flow, max, &mut walk, None);
            sw.probes += walk.len() as u64;
            sw.confirmations += 1;
            for (j, step) in walk.iter().enumerate() {
                if let ProbeReply::TimeExceeded { addr, .. } = step {
                    grew |= sw
                        .per_ttl
                        .entry(j as u8 + 1)
                        .or_default()
                        .insert(*addr);
                }
            }
        }
    }
    grew
}

/// One `(vp, /24 host group)` unit of a stochastic campaign: hosts are
/// probed in order under their own Paris flows (within a /24 the hosts
/// *are* the flow variation — same prefix FEC, different hashes) until
/// the stopping rule settles or the hosts run out. Returns the emitted
/// traces — byte-identical to what the exhaustive campaign would emit
/// for the probed pairs — plus the group's budget tallies.
pub(crate) fn probe_group(
    core: ProbeCore<'_>,
    vp: Ipv4Addr,
    hosts: &[Ipv4Addr],
    strategy: ProbingStrategy,
    injected: &mut FaultCounts,
) -> (Vec<Trace>, crate::probe::ProbeBudget) {
    let candidates: Vec<(Ipv4Addr, u64)> =
        hosts.iter().map(|&dst| (dst, core.flow(vp, dst))).collect();
    let sw = stopping_sweep(core, vp, &candidates, strategy, DEFAULT_CONFIDENCE, injected);
    let mut budget = crate::probe::ProbeBudget {
        flows_traced: sw.traces.len() as u64,
        probes_sent: sw.probes,
        confirmations: sw.confirmations,
        ..Default::default()
    };
    if sw.exhausted {
        budget.groups_exhausted = 1;
    } else {
        budget.groups_stopped = 1;
    }
    (sw.traces, budget)
}

/// Splits a destination list into runs sharing a /24 — the host groups
/// the campaign stopping rule operates on. The probing list keeps a
/// prefix's hosts adjacent, so a linear scan suffices.
pub(crate) fn prefix_groups(dsts: &[Ipv4Addr]) -> Vec<(usize, usize)> {
    let mut groups = Vec::new();
    let mut start = 0usize;
    for i in 1..=dsts.len() {
        if i == dsts.len() || u32::from(dsts[i]) >> 8 != u32::from(dsts[start]) >> 8 {
            groups.push((start, i));
            start = i;
        }
    }
    groups
}

impl Prober<'_> {
    /// MDA multipath discovery towards one destination: traces the
    /// destination under up to `max_flows` flow identifiers, derived
    /// from `(vp, dst, k)`, and stops by the [`nk_threshold`] rule
    /// instead of a fixed count (or sweeps the whole budget under
    /// [`ProbingStrategy::Exhaustive`] — the oracle). Returns the
    /// distinct IP paths plus the probe bill.
    pub fn mda_discover(
        &self,
        vp: Ipv4Addr,
        dst: Ipv4Addr,
        opts: &MdaOptions,
    ) -> MdaDiscovery {
        let core = self.core();
        let mut injected = FaultCounts::default();
        let candidates: Vec<(Ipv4Addr, u64)> = (0..opts.max_flows.max(1))
            .map(|k| {
                let flow = splitmix64(
                    (u32::from(vp) as u64)
                        ^ ((u32::from(dst) as u64) << 32)
                        ^ (k as u64) << 17,
                );
                (dst, flow)
            })
            .collect();
        let sw = stopping_sweep(
            core,
            vp,
            &candidates,
            opts.strategy,
            opts.confidence,
            &mut injected,
        );
        self.merge_injected(injected);
        let paths: BTreeSet<Vec<Ipv4Addr>> = sw
            .traces
            .iter()
            .map(|t| t.responsive_hops().map(|h| h.addr.expect("responsive")).collect())
            .collect();
        MdaDiscovery {
            paths: paths.into_iter().collect(),
            flows_traced: sw.traces.len() as u64,
            probes_sent: sw.probes,
            confirmations: sw.confirmations,
            exhausted: sw.exhausted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataplane::ecmp_index;
    use crate::internet::{Internet, MplsConfig};
    use crate::probe::{ProbeOptions, Prober};
    use crate::topology::{AsSpec, RouterId, Topology, TopologyParams};
    use crate::vendor::Vendor;
    use lpr_core::lsp::Asn;

    /// A transit rich in forwarding diversity: balanced ECMP diamonds
    /// *and* parallel link bundles, so both hash domains engage.
    fn ecmp_world() -> Internet {
        let specs = vec![
            AsSpec::transit(
                1,
                "t",
                Vendor::Cisco,
                TopologyParams {
                    core_routers: 6,
                    border_routers: 2,
                    ecmp_diamonds: 2,
                    parallel_bundles: 1,
                    parallel_width: 2,
                    ..Default::default()
                },
            ),
            AsSpec::stub(100, "src", 0, 1),
            AsSpec::stub(200, "dst", 4, 0),
        ];
        let peerings = vec![(Asn(100), Asn(1), 1), (Asn(1), Asn(200), 1)];
        let topo = Topology::build(&specs, &peerings);
        let mut configs = std::collections::BTreeMap::new();
        configs.insert(Asn(1), MplsConfig::ldp_default());
        Internet::new(topo, &configs)
    }

    #[test]
    fn nk_thresholds_match_the_mda_table() {
        // The published 95%-confidence MDA table.
        let expected = [6, 11, 16, 21, 27, 33, 38, 44];
        for (k, want) in expected.iter().enumerate() {
            assert_eq!(nk_threshold(k + 1, 0.95), *want, "n_{}", k + 1);
        }
        // Higher confidence demands more probes, never fewer.
        for k in 1..=8 {
            assert!(nk_threshold(k, 0.99) > nk_threshold(k, 0.95), "k = {k}");
        }
        // Degenerate start: the first probe is always allowed.
        assert_eq!(nk_threshold(0, 0.95), 1);
    }

    #[test]
    fn steering_flows_cover_every_ecmp_index() {
        for router in [0u32, 3, 17, 41] {
            let router = RouterId(router);
            for n in 2..=5usize {
                let flows = steering_flows(0xFEED, router, n);
                assert_eq!(flows.len(), n);
                for (i, flow) in flows.iter().enumerate() {
                    assert_eq!(ecmp_index(*flow, router, n), i, "router {router:?} n {n}");
                }
            }
        }
    }

    #[test]
    fn stochastic_discovery_is_a_subset_of_the_oracle_with_high_recall() {
        let net = ecmp_world();
        let prober = Prober::new(&net, ProbeOptions::default());
        let vps: Vec<_> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
        let dsts = net.topo.destinations(1);
        let oracle_opts = MdaOptions {
            strategy: ProbingStrategy::Exhaustive,
            ..MdaOptions::default()
        };
        let (mut found, mut total) = (0usize, 0usize);
        let (mut oracle_probes, mut lite_probes, mut mda_probes) = (0u64, 0u64, 0u64);
        for &vp in &vps {
            for &dst in &dsts {
                let oracle = prober.mda_discover(vp, dst, &oracle_opts);
                let lite = prober.mda_discover(vp, dst, &MdaOptions::default());
                let mda = prober.mda_discover(
                    vp,
                    dst,
                    &MdaOptions { strategy: ProbingStrategy::Mda, ..MdaOptions::default() },
                );
                let oracle_set: std::collections::BTreeSet<_> =
                    oracle.paths.iter().collect();
                for p in lite.paths.iter().chain(&mda.paths) {
                    assert!(
                        oracle_set.contains(p),
                        "stochastic path not in the exhaustive enumeration ({vp} -> {dst})"
                    );
                }
                total += oracle.paths.len();
                found += lite.paths.iter().filter(|p| oracle_set.contains(*p)).count();
                oracle_probes += oracle.probes_sent;
                lite_probes += lite.probes_sent;
                mda_probes += mda.probes_sent;
            }
        }
        assert!(total > 0, "the diamond topology must show diversity somewhere");
        let recall = found as f64 / total as f64;
        assert!(recall >= 0.95, "MDA-Lite recall {recall:.3} below the 95% bar");
        assert!(
            lite_probes < oracle_probes,
            "the stopping rule must beat the exhaustive budget \
             ({lite_probes} vs {oracle_probes})"
        );
        assert!(
            mda_probes >= lite_probes,
            "per-hop re-confirmation cannot be free ({mda_probes} vs {lite_probes})"
        );
    }

    #[test]
    fn campaign_stopping_rule_is_deterministic_and_cheaper() {
        let net = ecmp_world();
        let vps: Vec<_> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
        let dsts = net.topo.destinations(32);
        let run = |strategy: ProbingStrategy, threads: usize| {
            let prober = Prober::new(
                &net,
                ProbeOptions { probing: strategy, ..ProbeOptions::default() },
            );
            prober.campaign_with_budget(&vps, &dsts, threads)
        };
        let (ex_traces, ex_budget) = run(ProbingStrategy::Exhaustive, 1);
        assert_eq!(ex_budget.pairs_probed, ex_budget.pairs_total);
        assert_eq!(ex_budget.pairs_pruned, 0);
        for strategy in [ProbingStrategy::MdaLite, ProbingStrategy::Mda] {
            let (seq, budget) = run(strategy, 1);
            for threads in [2usize, 8] {
                let (par, par_budget) = run(strategy, threads);
                assert_eq!(par, seq, "{strategy:?} diverged at {threads} threads");
                assert_eq!(par_budget, budget, "{strategy:?} budget at {threads} threads");
            }
            assert!(
                budget.pairs_pruned > 0,
                "{strategy:?} pruned nothing out of {} pairs",
                budget.pairs_total
            );
            assert!(
                budget.probes_sent < ex_budget.probes_sent,
                "{strategy:?} spent {} probes, exhaustive {}",
                budget.probes_sent,
                ex_budget.probes_sent
            );
            // Every emitted trace is exactly the exhaustive campaign's
            // trace for that pair (a filtered subset, not a variation).
            let ex_by_key: std::collections::BTreeMap<_, _> =
                ex_traces.iter().map(|t| ((t.src, t.dst), t)).collect();
            for t in &seq {
                assert_eq!(ex_by_key[&(t.src, t.dst)], t);
            }
        }
    }

    #[test]
    fn prefix_groups_split_on_slash24_boundaries() {
        let dsts: Vec<Ipv4Addr> = vec![
            "10.0.0.1".parse().unwrap(),
            "10.0.0.2".parse().unwrap(),
            "10.0.1.1".parse().unwrap(),
            "10.0.2.1".parse().unwrap(),
            "10.0.2.2".parse().unwrap(),
            "10.0.2.3".parse().unwrap(),
        ];
        assert_eq!(prefix_groups(&dsts), vec![(0, 2), (2, 3), (3, 6)]);
        assert_eq!(prefix_groups(&[]), Vec::<(usize, usize)>::new());
    }
}