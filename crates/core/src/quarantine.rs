//! Per-trace quarantine: structural validation of degraded input.
//!
//! The LPR filters handle *semantically* degraded traces — anonymous
//! hops feed IncompleteLsp, hidden or truncated label stacks surface as
//! Unclassified IOTPs. What they cannot handle is *structurally* broken
//! input: duplicated or reordered replies violate the
//! strictly-increasing-TTL invariant every downstream stage assumes.
//! Such traces are quarantined at ingest — counted, attributed a
//! [`QuarantineReason`], and excluded — instead of corrupting the run
//! or panicking it. The [`DegradedReport`] carried on
//! [`crate::pipeline::PipelineOutput`] reconciles exactly:
//! `kept + quarantined == traces ingested`.

use crate::trace::Trace;
use std::collections::BTreeMap;

/// Most hops a credible traceroute can hold (TTL is a `u8`; anything
/// longer than 255 entries cannot be a single TTL ladder).
pub const MAX_TRACE_HOPS: usize = 255;

/// Deepest quoted label stack accepted (RFC 4950 encodes 4-byte LSEs in
/// a length-capped extension object; real stacks stay in single
/// digits — 32 already indicates corruption).
pub const MAX_QUOTED_STACK_DEPTH: usize = 32;

/// Why a trace (or a whole shard) was quarantined at ingest.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QuarantineReason {
    /// More hops than a TTL ladder can produce.
    TooManyHops,
    /// Two hops answering the same probe TTL (duplicated reply).
    DuplicateTtl,
    /// Probe TTLs not in increasing order (reordered replies).
    NonMonotonicTtl,
    /// A quoted label stack deeper than [`MAX_QUOTED_STACK_DEPTH`].
    ExcessStackDepth,
    /// The trace sat in a parallel ingest shard whose worker panicked;
    /// the whole shard is quarantined rather than tearing down the run.
    PoisonedShard,
}

impl QuarantineReason {
    /// Every reason, in display order.
    pub const ALL: [QuarantineReason; 5] = [
        QuarantineReason::TooManyHops,
        QuarantineReason::DuplicateTtl,
        QuarantineReason::NonMonotonicTtl,
        QuarantineReason::ExcessStackDepth,
        QuarantineReason::PoisonedShard,
    ];

    /// Short machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            QuarantineReason::TooManyHops => "too_many_hops",
            QuarantineReason::DuplicateTtl => "duplicate_ttl",
            QuarantineReason::NonMonotonicTtl => "non_monotonic_ttl",
            QuarantineReason::ExcessStackDepth => "excess_stack_depth",
            QuarantineReason::PoisonedShard => "poisoned_shard",
        }
    }

    /// The telemetry counter this reason tallies under (a constant from
    /// [`lpr_obs::names`], the workspace metric vocabulary).
    pub fn counter_name(self) -> &'static str {
        match self {
            QuarantineReason::TooManyHops => lpr_obs::names::QUARANTINE_TOO_MANY_HOPS,
            QuarantineReason::DuplicateTtl => lpr_obs::names::QUARANTINE_DUPLICATE_TTL,
            QuarantineReason::NonMonotonicTtl => lpr_obs::names::QUARANTINE_NON_MONOTONIC_TTL,
            QuarantineReason::ExcessStackDepth => lpr_obs::names::QUARANTINE_EXCESS_STACK_DEPTH,
            QuarantineReason::PoisonedShard => lpr_obs::names::QUARANTINE_POISONED_SHARD,
        }
    }
}

/// Checks the structural invariants every pipeline stage assumes.
///
/// Pure and deterministic, so the sequential and parallel ingest paths
/// quarantine exactly the same traces.
pub fn validate_trace(trace: &Trace) -> Result<(), QuarantineReason> {
    if trace.hops.len() > MAX_TRACE_HOPS {
        return Err(QuarantineReason::TooManyHops);
    }
    let mut last: Option<u8> = None;
    for hop in &trace.hops {
        if hop.stack.depth() > MAX_QUOTED_STACK_DEPTH {
            return Err(QuarantineReason::ExcessStackDepth);
        }
        if let Some(prev) = last {
            if hop.probe_ttl == prev {
                return Err(QuarantineReason::DuplicateTtl);
            }
            if hop.probe_ttl < prev {
                return Err(QuarantineReason::NonMonotonicTtl);
            }
        }
        last = Some(hop.probe_ttl);
    }
    Ok(())
}

/// Kept/quarantined accounting for one ingest run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DegradedReport {
    /// Traces that passed validation and entered the pipeline.
    pub kept: u64,
    /// Traces excluded, per reason.
    pub quarantined: BTreeMap<QuarantineReason, u64>,
}

impl DegradedReport {
    /// Total traces quarantined.
    pub fn quarantined_total(&self) -> u64 {
        self.quarantined.values().sum()
    }

    /// Total traces seen (kept + quarantined).
    pub fn ingested(&self) -> u64 {
        self.kept + self.quarantined_total()
    }

    /// Whether nothing was quarantined.
    pub fn is_clean(&self) -> bool {
        self.quarantined.is_empty()
    }

    /// Counts one quarantined trace.
    pub fn note(&mut self, reason: QuarantineReason) {
        *self.quarantined.entry(reason).or_default() += 1;
    }

    /// Counts `n` quarantined traces under one reason.
    pub fn note_many(&mut self, reason: QuarantineReason, n: u64) {
        if n > 0 {
            *self.quarantined.entry(reason).or_default() += n;
        }
    }

    /// Accumulates another report (shard merge: plain sums).
    pub fn merge(&mut self, other: &DegradedReport) {
        self.kept += other.kept;
        for (reason, n) in &other.quarantined {
            *self.quarantined.entry(*reason).or_default() += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Lse;
    use crate::trace::Hop;
    use std::net::Ipv4Addr;

    fn ip(o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, o)
    }

    fn valid_trace() -> Trace {
        let mut t = Trace::new(ip(1), ip(200));
        t.push_hop(Hop::responsive(1, ip(2)));
        t.push_hop(Hop::labelled(3, ip(3), &[Lse::transit(100, 254)]));
        t.push_hop(Hop::anonymous(4));
        t
    }

    #[test]
    fn valid_traces_pass() {
        assert_eq!(validate_trace(&valid_trace()), Ok(()));
        assert_eq!(validate_trace(&Trace::new(ip(1), ip(2))), Ok(()));
    }

    #[test]
    fn duplicate_ttl_is_caught() {
        let mut t = valid_trace();
        t.hops.push(t.hops[2].clone());
        assert_eq!(validate_trace(&t), Err(QuarantineReason::DuplicateTtl));
    }

    #[test]
    fn reordered_ttls_are_caught() {
        let mut t = valid_trace();
        t.hops.swap(0, 1);
        assert_eq!(validate_trace(&t), Err(QuarantineReason::NonMonotonicTtl));
    }

    #[test]
    fn excess_stack_depth_is_caught() {
        let mut t = valid_trace();
        let deep: Vec<Lse> = (0..40).map(|i| Lse::transit(i, 254)).collect();
        t.hops[1] = Hop::labelled(3, ip(3), &deep);
        assert_eq!(validate_trace(&t), Err(QuarantineReason::ExcessStackDepth));
    }

    #[test]
    fn stack_depth_limit_holds_past_the_inline_capacity() {
        // Both sides of the limit sit far beyond the stack's inline
        // capacity, so the heap-spilled representation is what is checked.
        let mut t = valid_trace();
        let at_limit: Vec<Lse> =
            (0..MAX_QUOTED_STACK_DEPTH as u32).map(|i| Lse::transit(16 + i, 254)).collect();
        t.hops[1] = Hop::labelled(3, ip(3), &at_limit);
        assert_eq!(validate_trace(&t), Ok(()));
        let mut over = t.hops[1].stack.clone();
        over.push(Lse::transit(99, 254));
        assert_eq!(over.depth(), 33);
        t.hops[1].stack = over;
        assert_eq!(validate_trace(&t), Err(QuarantineReason::ExcessStackDepth));
    }

    #[test]
    fn too_many_hops_is_caught() {
        let mut t = Trace::new(ip(1), ip(200));
        t.hops = (0..300u32).map(|i| Hop::anonymous((i % 250 + 1) as u8)).collect();
        assert_eq!(validate_trace(&t), Err(QuarantineReason::TooManyHops));
    }

    #[test]
    fn report_reconciles_and_merges() {
        let mut a = DegradedReport { kept: 5, ..Default::default() };
        a.note(QuarantineReason::DuplicateTtl);
        a.note(QuarantineReason::DuplicateTtl);
        a.note_many(QuarantineReason::PoisonedShard, 3);
        a.note_many(QuarantineReason::TooManyHops, 0);
        assert_eq!(a.quarantined_total(), 5);
        assert_eq!(a.ingested(), 10);
        assert!(!a.is_clean());

        let mut b = DegradedReport { kept: 2, ..Default::default() };
        b.note(QuarantineReason::DuplicateTtl);
        b.merge(&a);
        assert_eq!(b.kept, 7);
        assert_eq!(b.quarantined[&QuarantineReason::DuplicateTtl], 3);
        assert_eq!(b.ingested(), 13);
        assert!(DegradedReport::default().is_clean());
    }
}
