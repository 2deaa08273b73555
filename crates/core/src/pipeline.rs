//! End-to-end LPR pipeline: traces in, classified IOTPs out (Fig. 3).
//!
//! [`Pipeline::run`] chains tunnel extraction, the five filters and the
//! classification, and returns both the classified IOTPs and the
//! bookkeeping needed by the paper's evaluation (Table 1 survival
//! proportions, dynamic-AS tags, per-class tallies).
//!
//! There is one way into the pipeline. Each of its three sources — a
//! trace slice ([`Pipeline::run`], [`Pipeline::run_par`]), an indexed
//! corpus (`lpr_corpus::ingest_cycle`) and a stream of pushed traces
//! ([`CycleAccumulator`]) — builds an [`IngestState`] through the one
//! per-trace ingest loop, [`CycleAccumulator::push_trace`], and ends
//! in the one back half, [`Pipeline::finish_stages_windowed`].

use crate::classify::{classify_iotp, Class, Classification};
use crate::filter::{
    build_iotps, iotp_kept, lsp_keys_of_tunnels, partition_by_flags,
    persistent_flags, reinject_dynamic, transit_diversity_keys, AsMapper, FilterConfig,
    FilterReport, FilterStage,
};
use crate::lsp::{Asn, Iotp, IotpKey, Lsp, LspKey};
use crate::quarantine::{validate_trace, DegradedReport};
use crate::stream::CycleAccumulator;
use crate::trace::Trace;
use crate::tunnel::{extract_tunnels_into, RawTunnel};
use std::collections::BTreeSet;

/// The LPR pipeline.
#[derive(Clone, Debug, Default)]
pub struct Pipeline {
    /// Filter configuration.
    pub config: FilterConfig,
    /// Classify `Unclassified` IOTPs with the §5 penultimate-hop alias
    /// heuristic ([`crate::alias`]). Off by default — the paper
    /// reports its results without it.
    pub alias_rescue: bool,
    /// Skip the TransitDiversity filter (ablation support): IOTPs
    /// reaching a single destination AS are then kept and classified.
    pub skip_transit_diversity: bool,
}

/// Everything the pipeline produced for one measurement cycle.
///
/// `PartialEq` is structural over the full output (classified IOTPs in
/// order, report, dynamic ASes): the parallel pipeline's determinism
/// guarantee is checked as `seq_output == par_output`.
#[derive(Debug, PartialEq)]
pub struct PipelineOutput {
    /// Classified IOTPs, ordered by key.
    pub iotps: Vec<(Iotp, Classification)>,
    /// LSP survival accounting across the filters (Table 1).
    pub report: FilterReport,
    /// ASes tagged dynamic by the Persistence filter (§4.5).
    pub dynamic_ases: BTreeSet<Asn>,
    /// Kept/quarantined trace accounting from ingest.
    pub degraded: DegradedReport,
}

impl PipelineOutput {
    /// Tally of IOTPs per class, in the paper's display order
    /// (Mono-LSP, Multi-FEC, Mono-FEC, Unclassified).
    pub fn class_counts(&self) -> ClassCounts {
        let mut counts = ClassCounts::default();
        for (_, c) in &self.iotps {
            counts.add(c.class);
        }
        counts
    }

    /// Tally of IOTPs per class restricted to one AS.
    pub fn class_counts_for(&self, asn: Asn) -> ClassCounts {
        let mut counts = ClassCounts::default();
        for (iotp, c) in &self.iotps {
            if iotp.key.asn == asn {
                counts.add(c.class);
            }
        }
        counts
    }

    /// The ASes owning at least one classified IOTP.
    pub fn ases(&self) -> BTreeSet<Asn> {
        self.iotps.iter().map(|(i, _)| i.key.asn).collect()
    }
}

/// Per-class IOTP tallies, as plotted in Figs. 6b and 10–15.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Mono-LSP IOTPs.
    pub mono_lsp: usize,
    /// Multi-FEC IOTPs.
    pub multi_fec: usize,
    /// ECMP Mono-FEC IOTPs, parallel-links subclass.
    pub mono_fec_parallel: usize,
    /// ECMP Mono-FEC IOTPs, routers-disjoint subclass.
    pub mono_fec_disjoint: usize,
    /// Unclassified IOTPs.
    pub unclassified: usize,
}

impl ClassCounts {
    /// Adds one IOTP of the given class.
    pub fn add(&mut self, class: Class) {
        use crate::classify::MonoFecKind::*;
        match class {
            Class::MonoLsp => self.mono_lsp += 1,
            Class::MultiFec => self.multi_fec += 1,
            Class::MonoFec(ParallelLinks) => self.mono_fec_parallel += 1,
            Class::MonoFec(RoutersDisjoint) => self.mono_fec_disjoint += 1,
            Class::Unclassified => self.unclassified += 1,
        }
    }

    /// Total ECMP Mono-FEC IOTPs (both subclasses).
    pub fn mono_fec(&self) -> usize {
        self.mono_fec_parallel + self.mono_fec_disjoint
    }

    /// Total IOTPs.
    pub fn total(&self) -> usize {
        self.mono_lsp + self.multi_fec + self.mono_fec() + self.unclassified
    }

    /// `(mono_lsp, multi_fec, mono_fec, unclassified)` as fractions of
    /// the total; all zeros when the tally is empty.
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total();
        if t == 0 {
            return [0.0; 4];
        }
        let t = t as f64;
        [
            self.mono_lsp as f64 / t,
            self.multi_fec as f64 / t,
            self.mono_fec() as f64 / t,
            self.unclassified as f64 / t,
        ]
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &ClassCounts) {
        self.mono_lsp += other.mono_lsp;
        self.multi_fec += other.multi_fec;
        self.mono_fec_parallel += other.mono_fec_parallel;
        self.mono_fec_disjoint += other.mono_fec_disjoint;
        self.unclassified += other.unclassified;
    }
}

/// The Persistence filter's re-observation window: one LSP key set per
/// future snapshot, either held in memory (the default at demo scale)
/// or spilled to sorted on-disk files by [`crate::spill::KeySpiller`]
/// (the out-of-core path, where a window of `BTreeSet`s would defeat
/// bounded-memory ingest).
///
/// Both forms answer the same membership question over the same keys,
/// so [`Pipeline::finish_stages_windowed`] produces identical output
/// either way.
#[derive(Clone, Copy, Debug)]
pub enum PersistenceWindow<'a> {
    /// In-memory per-snapshot key sets.
    Mem(&'a [BTreeSet<LspKey>]),
    /// Spilled per-snapshot key files (see [`crate::spill`]).
    Spilled(&'a [crate::spill::SpilledKeys]),
}

/// One measurement cycle's contribution to an [`IngestState`]: the
/// provenance record that makes merged states *evictable*.
///
/// An `IngestState` built from several cycles keeps, per cycle, how
/// many of its `lsps` (a contiguous run, in merge order) and how much
/// of every aggregate count came from that cycle, so
/// [`IngestState::evict_before`] can age a cycle out of the state by
/// dropping its LSP run and subtracting its counts — no recompute over
/// the surviving cycles.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CycleSegment {
    /// The cycle this segment's traces belong to (0 for untagged
    /// single-shot runs).
    pub cycle: u64,
    /// How many of the owning state's `lsps` (a contiguous run at this
    /// segment's position) came from this cycle.
    pub lsps: usize,
    /// Traces ingested for this cycle.
    pub traces_in: u64,
    /// Tunnels entering the filter pipeline for this cycle.
    pub input: usize,
    /// Count after IncompleteLsp.
    pub after_incomplete: usize,
    /// Count after IntraAs.
    pub after_intra_as: usize,
    /// Tunnel-extraction time, µs.
    pub extraction_us: u64,
    /// Attribution/filter time, µs.
    pub attribution_us: u64,
    /// Kept/quarantined trace accounting for this cycle.
    pub degraded: DegradedReport,
}

impl CycleSegment {
    /// Folds `other` (same cycle) into this segment.
    fn absorb(&mut self, other: &CycleSegment) {
        debug_assert_eq!(self.cycle, other.cycle);
        self.lsps += other.lsps;
        self.traces_in += other.traces_in;
        self.input += other.input;
        self.after_incomplete += other.after_incomplete;
        self.after_intra_as += other.after_intra_as;
        self.extraction_us = self.extraction_us.saturating_add(other.extraction_us);
        self.attribution_us = self.attribution_us.saturating_add(other.attribution_us);
        self.degraded.merge(&other.degraded);
    }
}

/// Accumulated state of the pipeline's *ingest* half: tunnel extraction
/// plus the fused per-LSP filters (IncompleteLsp, IntraAS, TargetAS).
///
/// Unlike [`crate::stream::CycleAccumulator`] this is an owned,
/// `Send`-able value, so parallel workers can each build one over a
/// shard of traces and hand it back across the thread boundary;
/// [`IngestState::merge`] combines shards. Merging in shard order over
/// contiguous shards reproduces the sequential ingest exactly (counts
/// are sums; `lsps` concatenates in input order).
///
/// The state is also **windowed**: [`IngestState::tag_cycle`] stamps a
/// freshly-ingested state with its cycle id, merges accumulate the
/// per-cycle provenance in `segments`, and
/// [`IngestState::evict_before`] drops whole cycles again — the
/// long-running `lpr serve` reconcile loop keeps one such state per
/// window and never recomputes the survivors.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IngestState {
    /// LSPs surviving the per-LSP filters, in input order.
    pub lsps: Vec<Lsp>,
    /// Traces ingested.
    pub traces_in: u64,
    /// Tunnels entering the filter pipeline.
    pub input: usize,
    /// Count after IncompleteLsp.
    pub after_incomplete: usize,
    /// Count after IntraAs.
    pub after_intra_as: usize,
    /// Accumulated tunnel-extraction time, µs (CPU time when summed
    /// across parallel workers).
    pub extraction_us: u64,
    /// Accumulated attribution/filter time, µs (ditto).
    pub attribution_us: u64,
    /// Kept/quarantined trace accounting for this shard.
    pub degraded: DegradedReport,
    /// Per-cycle provenance, in merge order, tiling `lsps` exactly.
    /// Empty means "untagged": the whole state implicitly belongs to
    /// cycle 0 (the shape every single-shot constructor produces).
    pub segments: Vec<CycleSegment>,
}

impl IngestState {
    /// The whole state expressed as one [`CycleSegment`] of the given
    /// cycle.
    fn as_segment(&self, cycle: u64) -> CycleSegment {
        CycleSegment {
            cycle,
            lsps: self.lsps.len(),
            traces_in: self.traces_in,
            input: self.input,
            after_incomplete: self.after_incomplete,
            after_intra_as: self.after_intra_as,
            extraction_us: self.extraction_us,
            attribution_us: self.attribution_us,
            degraded: self.degraded.clone(),
        }
    }

    /// Whether nothing has been ingested into this state at all (the
    /// `Default` shape).
    pub fn is_untouched(&self) -> bool {
        self.lsps.is_empty()
            && self.traces_in == 0
            && self.input == 0
            && self.after_incomplete == 0
            && self.after_intra_as == 0
            && self.extraction_us == 0
            && self.attribution_us == 0
            && self.degraded == DegradedReport::default()
            && self.segments.is_empty()
    }

    /// Materialises the implicit cycle-0 segment of an untagged state,
    /// restoring the invariant that non-empty states carry provenance.
    fn normalize(&mut self) {
        if self.segments.is_empty() && !self.is_untouched() {
            self.segments = vec![self.as_segment(0)];
        }
    }

    /// Stamps the whole state as belonging to `cycle`, collapsing any
    /// existing provenance into one segment. Call this on the state a
    /// single cycle's ingest produced, before merging it into a
    /// windowed state.
    pub fn tag_cycle(&mut self, cycle: u64) {
        if self.is_untouched() {
            return;
        }
        self.segments = vec![self.as_segment(cycle)];
    }

    /// Cycle ids present in this state, ascending and unique.
    pub fn cycles(&self) -> Vec<u64> {
        if self.segments.is_empty() {
            return if self.is_untouched() { Vec::new() } else { vec![0] };
        }
        let mut ids: Vec<u64> = self.segments.iter().map(|s| s.cycle).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Appends another shard's (or cycle's) state; order of merges must
    /// follow shard (= input) order for LSP order to match the
    /// sequential run. Provenance concatenates, coalescing adjacent
    /// segments of the same cycle.
    pub fn merge(&mut self, mut other: IngestState) {
        self.normalize();
        other.normalize();
        self.lsps.append(&mut other.lsps);
        self.traces_in += other.traces_in;
        self.input += other.input;
        self.after_incomplete += other.after_incomplete;
        self.after_intra_as += other.after_intra_as;
        self.extraction_us = self.extraction_us.saturating_add(other.extraction_us);
        self.attribution_us = self.attribution_us.saturating_add(other.attribution_us);
        self.degraded.merge(&other.degraded);
        for seg in other.segments.drain(..) {
            match self.segments.last_mut() {
                Some(last) if last.cycle == seg.cycle => last.absorb(&seg),
                _ => self.segments.push(seg),
            }
        }
    }

    /// Ages out every cycle older than `cycle`: their LSP runs are
    /// dropped from `lsps` and their counts subtracted from the
    /// aggregates, leaving exactly the state a from-scratch merge of
    /// the surviving cycles would have built. Returns the evicted
    /// segments (empty when nothing aged out).
    pub fn evict_before(&mut self, cycle: u64) -> Vec<CycleSegment> {
        self.normalize();
        if self.segments.iter().all(|s| s.cycle >= cycle) {
            return Vec::new();
        }
        let segments = std::mem::take(&mut self.segments);
        let lsps = std::mem::take(&mut self.lsps);
        *self = IngestState::default();
        let mut evicted = Vec::new();
        let mut offset = 0usize;
        for seg in segments {
            let range = offset..offset + seg.lsps;
            offset = range.end;
            if seg.cycle >= cycle {
                let mut part = IngestState {
                    lsps: lsps[range].to_vec(),
                    traces_in: seg.traces_in,
                    input: seg.input,
                    after_incomplete: seg.after_incomplete,
                    after_intra_as: seg.after_intra_as,
                    extraction_us: seg.extraction_us,
                    attribution_us: seg.attribution_us,
                    degraded: seg.degraded.clone(),
                    segments: Vec::new(),
                };
                part.segments = vec![seg];
                self.merge(part);
            } else {
                evicted.push(seg);
            }
        }
        evicted
    }
}

impl Pipeline {
    /// Builds a pipeline with the given filter configuration.
    pub fn new(config: FilterConfig) -> Self {
        Pipeline { config, alias_rescue: false, skip_transit_diversity: false }
    }

    /// Enables the §5 penultimate-hop alias rescue for `Unclassified`
    /// IOTPs.
    pub fn with_alias_rescue(mut self) -> Self {
        self.alias_rescue = true;
        self
    }

    /// Runs LPR over one cycle of traces, on the caller's thread and
    /// unrecorded: one [`CycleAccumulator`] pass, then
    /// [`Pipeline::finish_stages`]. [`Pipeline::run_par`] is the
    /// threaded and recorded form of the same run.
    ///
    /// `future_keys` carries, for each of the following snapshots of the
    /// same month (in order), the set of LSP keys observed there; it
    /// feeds the Persistence filter. Pass `&[]` (with
    /// `persistence_window = 0`) to skip persistence, as Fig. 16 does.
    pub fn run(
        &self,
        traces: &[Trace],
        mapper: &dyn AsMapper,
        future_keys: &[BTreeSet<LspKey>],
    ) -> PipelineOutput {
        let ingest = CycleAccumulator::ingest(mapper, traces);
        self.finish_stages(ingest, future_keys, None, lpr_par::ShardOptions::new(1))
    }

    /// The aggregate back half of the pipeline — TransitDiversity,
    /// Persistence, classification — over an already-ingested
    /// [`IngestState`].
    ///
    /// The in-memory-window shorthand for
    /// [`Pipeline::finish_stages_windowed`], the one back half every
    /// source (trace slice, corpus, stream) funnels into. `opts` with
    /// one thread runs every shard inline on the caller's thread, so
    /// the sequential and parallel paths cannot drift: determinism of
    /// the parallel pipeline reduces to determinism of the shard
    /// merges.
    pub fn finish_stages(
        &self,
        ingest: IngestState,
        future_keys: &[BTreeSet<LspKey>],
        recorder: Option<&lpr_obs::Recorder>,
        opts: lpr_par::ShardOptions,
    ) -> PipelineOutput {
        match self.finish_stages_windowed(ingest, PersistenceWindow::Mem(future_keys), recorder, opts)
        {
            Ok(out) => out,
            // The in-memory window performs no IO.
            Err(e) => unreachable!("in-memory persistence cannot fail: {e}"),
        }
    }

    /// [`Pipeline::finish_stages`] generalised over the persistence
    /// window representation. The [`PersistenceWindow::Spilled`] form
    /// probes sorted on-disk key files (hence the `io::Result`); it
    /// computes flags in one aggregate merge-join pass, so no per-worker
    /// Persistence telemetry rows are emitted on that path.
    pub fn finish_stages_windowed(
        &self,
        ingest: IngestState,
        window: PersistenceWindow<'_>,
        recorder: Option<&lpr_obs::Recorder>,
        opts: lpr_par::ShardOptions,
    ) -> std::io::Result<PipelineOutput> {
        let parallel = opts.effective_threads() > 1;
        let disabled = lpr_obs::Tracer::disabled();
        let tracer = recorder.map_or(&disabled, |r| r.tracer());
        let mut report = FilterReport { input: ingest.input, ..Default::default() };
        report.remaining.insert(FilterStage::IncompleteLsp, ingest.after_incomplete);
        report.remaining.insert(FilterStage::IntraAs, ingest.after_intra_as);
        report.remaining.insert(FilterStage::TargetAs, ingest.lsps.len());
        let mut timer = lpr_obs::StageTimer::start();

        // TransitDiversity (per IOTP, counted in LSPs). `keep` is a
        // sorted key slice; membership below is a binary search and the
        // IOTP key is computed once per LSP.
        let td_span = tracer.span("stage:TransitDiversity");
        let keep: Vec<IotpKey> = if self.skip_transit_diversity {
            let mut keys: Vec<_> = ingest.lsps.iter().map(|l| l.iotp_key()).collect();
            keys.sort_unstable();
            keys.dedup();
            keys
        } else {
            transit_diversity_keys(&ingest.lsps)
        };
        let mut lsps = ingest.lsps;
        lsps.retain(|l| iotp_kept(&keep, l.iotp_key()));
        drop(td_span);
        let transit_us = lpr_obs::time::duration_us(timer.lap("transit_diversity"));
        report.remaining.insert(FilterStage::TransitDiversity, lsps.len());

        // Persistence. The expensive per-LSP half (LspKey construction +
        // window probes) shards across workers; the order-sensitive
        // partition and the per-AS dynamic reinjection stay sequential.
        let persist_span = tracer.span("stage:Persistence");
        // Per-worker Persistence rows `(worker, busy_us, input, output)`
        // — filled by the sharded in-memory path, empty for the spilled
        // aggregate pass.
        let mut persist_rows: Vec<(usize, u64, u64, u64)> = Vec::new();
        let flags: Vec<bool> = match window {
            PersistenceWindow::Mem(future_keys) => {
                let flags_run = lpr_par::map_shards_traced(
                    &lsps,
                    opts,
                    lpr_par::ShardTrace::new(tracer, persist_span.context()),
                    |_, shard| persistent_flags(shard, future_keys, &self.config),
                )
                .expect_ok();
                let mut flag_outputs = Vec::new();
                let mut flags: Vec<bool> = Vec::with_capacity(lsps.len());
                for (shard, out) in flags_run.outputs.into_iter().enumerate() {
                    flag_outputs.push((
                        shard,
                        out.iter().filter(|&&f| f).count() as u64,
                        out.len() as u64,
                    ));
                    flags.extend(out);
                }
                if parallel {
                    let mut per_worker: std::collections::BTreeMap<usize, (u64, u64)> =
                        std::collections::BTreeMap::new();
                    for (shard, kept_n, len) in &flag_outputs {
                        let w = flags_run.shard_workers.get(*shard).copied().unwrap_or(0);
                        let e = per_worker.entry(w).or_default();
                        e.0 += len;
                        e.1 += kept_n;
                    }
                    for (w, (input, output)) in &per_worker {
                        let busy = flags_run
                            .workers
                            .iter()
                            .find(|s| s.worker == *w)
                            .map_or(0, |s| s.busy_us);
                        persist_rows.push((*w, busy, *input, *output));
                    }
                }
                flags
            }
            PersistenceWindow::Spilled(snapshots) => {
                crate::spill::persistent_flags_spilled(&lsps, snapshots, &self.config)?
            }
        };
        let (kept, dropped) = partition_by_flags(lsps, &flags);
        let persisted = reinject_dynamic(kept, dropped, &self.config);
        drop(persist_span);
        let persistence_us = lpr_obs::time::duration_us(timer.lap("persistence"));
        report
            .remaining
            .insert(FilterStage::Persistence, persisted.strictly_persistent);

        // Classification. IOTPs are rebuilt from the persistent LSPs and
        // re-checked for transit diversity membership (an IOTP may have
        // lost branches to Persistence but it keeps its destination
        // diversity by construction of `keep`). `build_iotps` returns
        // them sorted and key-unique, so shards classify disjoint key
        // ranges and a shard-order concat preserves key order.
        let iotps = build_iotps(&persisted.lsps, &keep);
        let class_span = tracer.span("stage:Classification");
        let class_run = lpr_par::map_shards_traced(
            &iotps,
            opts,
            lpr_par::ShardTrace::new(tracer, class_span.context()),
            |_, shard| {
                shard
                    .iter()
                    .map(|iotp| {
                        if self.alias_rescue {
                            crate::alias::classify_with_alias_heuristic(iotp)
                        } else {
                            classify_iotp(iotp)
                        }
                    })
                    .collect::<Vec<Classification>>()
            },
        )
        .expect_ok();
        let classes: Vec<Classification> = class_run.outputs.into_iter().flatten().collect();
        let iotps: Vec<(Iotp, Classification)> = iotps.into_iter().zip(classes).collect();
        drop(class_span);
        let classification_us = lpr_obs::time::duration_us(timer.lap("classification"));

        let output = PipelineOutput {
            iotps,
            report,
            dynamic_ases: persisted.dynamic_ases,
            degraded: ingest.degraded,
        };
        if let Some(rec) = recorder {
            if ingest.traces_in > 0 {
                rec.record_stage(
                    "TunnelExtraction",
                    ingest.extraction_us,
                    ingest.traces_in,
                    output.report.input as u64,
                );
                rec.counter(lpr_obs::names::PIPELINE_TRACES).add(ingest.traces_in);
            }
            if output.degraded.ingested() > 0 {
                rec.counter(lpr_obs::names::PIPELINE_TRACES_KEPT).add(output.degraded.kept);
                rec.counter(lpr_obs::names::PIPELINE_TRACES_QUARANTINED)
                    .add(output.degraded.quarantined_total());
                for (reason, n) in &output.degraded.quarantined {
                    rec.counter(reason.counter_name()).add(*n);
                    // One warn event per reason, carrying the count —
                    // traces reconcile against the quarantine counters.
                    tracer.event(
                        tracer.default_parent(),
                        lpr_obs::Level::Warn,
                        "quarantine",
                        vec![
                            (
                                "reason".to_string(),
                                lpr_obs::FieldValue::Str(reason.name().to_string()),
                            ),
                            ("n".to_string(), lpr_obs::FieldValue::U64(*n)),
                        ],
                    );
                }
            }
            record_filter_stages(
                rec,
                &output.report,
                [ingest.attribution_us, 0, 0, transit_us, persistence_us],
            );
            rec.record_stage(
                "Classification",
                classification_us,
                output.report.remaining.get(&FilterStage::Persistence).copied().unwrap_or(0)
                    as u64,
                output.iotps.len() as u64,
            );
            if parallel {
                // Per-worker stage rows (`worker{N}/...`): inputs sum to
                // the aggregate stage's input, outputs to its output.
                for (w, busy, input, output) in &persist_rows {
                    rec.record_worker_stage(
                        *w,
                        FilterStage::Persistence.name(),
                        *busy,
                        *input,
                        *output,
                    );
                }
                for stat in &class_run.workers {
                    rec.record_worker_stage(
                        stat.worker,
                        "Classification",
                        stat.busy_us,
                        stat.items,
                        stat.items,
                    );
                }
            }
            rec.counter(lpr_obs::names::PIPELINE_TUNNELS).add(output.report.input as u64);
            rec.counter(lpr_obs::names::PIPELINE_IOTPS_CLASSIFIED).add(output.iotps.len() as u64);
            rec.counter(lpr_obs::names::PIPELINE_DYNAMIC_ASES).add(output.dynamic_ases.len() as u64);
        }
        Ok(output)
    }

    /// Convenience: the per-snapshot LSP key sets used by Persistence,
    /// computed from raw traces (the body every shard of
    /// [`Pipeline::snapshot_keys_par`] runs).
    pub fn snapshot_keys(traces: &[Trace]) -> BTreeSet<LspKey> {
        // Quarantined traces contribute no keys, matching what an ingest
        // run over the same snapshot would keep.
        let mut tunnels: Vec<RawTunnel> = Vec::new();
        for trace in traces {
            if validate_trace(trace).is_ok() {
                extract_tunnels_into(trace, &mut tunnels);
            }
        }
        lsp_keys_of_tunnels(&tunnels)
    }
}

/// Records one telemetry stage per filter, named after
/// [`FilterStage::name`] and chained so each stage's input is the
/// previous stage's output (starting from [`FilterReport::input`]).
/// `wall_us` gives the per-stage wall time in [`FilterStage::ALL`]
/// order.
fn record_filter_stages(
    recorder: &lpr_obs::Recorder,
    report: &FilterReport,
    wall_us: [u64; FilterStage::ALL.len()],
) {
    let mut input = report.input as u64;
    for (stage, us) in FilterStage::ALL.iter().zip(wall_us) {
        let output = report.remaining.get(stage).copied().unwrap_or(0) as u64;
        recorder.record_stage(stage.name(), us, input, output);
        input = output;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Lse;
    use crate::trace::Hop;
    use std::net::Ipv4Addr;

    fn ip(a: u8, o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, a, 0, o)
    }

    fn mapper(addr: Ipv4Addr) -> Option<Asn> {
        let o = addr.octets();
        match o[0] {
            10 => Some(Asn(o[1] as u32)),
            192 => Some(Asn(100)),
            198 => Some(Asn(101)),
            _ => None,
        }
    }

    /// A trace crossing AS1's two-LSR tunnel towards `dst`.
    fn mpls_trace(dst: Ipv4Addr, labels: [u32; 2], lsr_octets: [u8; 2]) -> Trace {
        let mut t = Trace::new(Ipv4Addr::new(203, 0, 113, 5), dst);
        t.push_hop(Hop::responsive(1, ip(1, 1)));
        t.push_hop(Hop::labelled(2, ip(1, lsr_octets[0]), &[Lse::transit(labels[0], 254)]));
        t.push_hop(Hop::labelled(3, ip(1, lsr_octets[1]), &[Lse::transit(labels[1], 253)]));
        t.push_hop(Hop::responsive(4, ip(1, 9)));
        t.push_hop(Hop::responsive(5, dst));
        t.reached = true;
        t
    }

    #[test]
    fn end_to_end_multi_fec() {
        // Two destinations in different ASes, same IP path, different
        // labels at the same LSRs => Multi-FEC.
        let traces = vec![
            mpls_trace(Ipv4Addr::new(192, 0, 2, 7), [100, 200], [2, 3]),
            mpls_trace(Ipv4Addr::new(198, 51, 100, 7), [101, 201], [2, 3]),
        ];
        let keys = Pipeline::snapshot_keys(&traces);
        let pipeline = Pipeline::default();
        let out = pipeline.run(&traces, &mapper, &[keys.clone(), keys]);
        assert_eq!(out.iotps.len(), 1);
        assert_eq!(out.iotps[0].1.class, Class::MultiFec);
        assert_eq!(out.class_counts().multi_fec, 1);
        assert_eq!(out.report.proportion_after(FilterStage::Persistence), 1.0);
    }

    #[test]
    fn end_to_end_mono_lsp() {
        let traces = vec![
            mpls_trace(Ipv4Addr::new(192, 0, 2, 7), [100, 200], [2, 3]),
            mpls_trace(Ipv4Addr::new(198, 51, 100, 7), [100, 200], [2, 3]),
        ];
        let keys = Pipeline::snapshot_keys(&traces);
        let out = Pipeline::default().run(&traces, &mapper, &[keys]);
        assert_eq!(out.class_counts().mono_lsp, 1);
    }

    #[test]
    fn single_destination_iotp_is_filtered_out() {
        let traces = vec![mpls_trace(Ipv4Addr::new(192, 0, 2, 7), [100, 200], [2, 3])];
        let keys = Pipeline::snapshot_keys(&traces);
        let out = Pipeline::default().run(&traces, &mapper, &[keys]);
        assert!(out.iotps.is_empty());
        assert_eq!(out.report.remaining[&FilterStage::TargetAs], 1);
        assert_eq!(out.report.remaining[&FilterStage::TransitDiversity], 0);
    }

    #[test]
    fn nonpersistent_lsps_drop_and_reinject() {
        let traces = vec![
            mpls_trace(Ipv4Addr::new(192, 0, 2, 7), [100, 200], [2, 3]),
            mpls_trace(Ipv4Addr::new(198, 51, 100, 7), [101, 201], [2, 3]),
        ];
        // Empty future snapshots: nothing persists; the whole AS1 set
        // vanishes; reinjection kicks in and tags AS1 dynamic.
        let out =
            Pipeline::default().run(&traces, &mapper, &[BTreeSet::new(), BTreeSet::new()]);
        assert_eq!(out.report.remaining[&FilterStage::Persistence], 0);
        assert!(out.dynamic_ases.contains(&Asn(1)));
        assert_eq!(out.iotps.len(), 1);
    }

    #[test]
    fn alias_rescue_is_plumbed_through() {
        // A PHP tunnel whose LSPs never share a labelled IP: base
        // pipeline says Unclassified, alias rescue reclassifies.
        let mk = |lsr_octet: u8, label: u32, dst: Ipv4Addr| {
            let mut t = Trace::new(Ipv4Addr::new(203, 0, 113, 5), dst);
            t.push_hop(Hop::responsive(1, ip(1, 1)));
            t.push_hop(Hop::labelled(2, ip(1, lsr_octet), &[Lse::transit(label, 254)]));
            t.push_hop(Hop::responsive(3, ip(1, 9)));
            t.push_hop(Hop::responsive(4, dst));
            t.reached = true;
            t
        };
        let traces = vec![
            mk(2, 100, Ipv4Addr::new(192, 0, 2, 7)),
            mk(3, 101, Ipv4Addr::new(198, 51, 100, 7)),
        ];
        let keys = Pipeline::snapshot_keys(&traces);
        let base = Pipeline::default().run(&traces, &mapper, std::slice::from_ref(&keys));
        assert_eq!(base.class_counts().unclassified, 1);
        let rescued =
            Pipeline::default().with_alias_rescue().run(&traces, &mapper, &[keys]);
        assert_eq!(rescued.class_counts().unclassified, 0);
        assert_eq!(rescued.class_counts().multi_fec, 1);
    }

    #[test]
    fn recorded_stages_reconcile_with_filter_report() {
        let traces = vec![
            mpls_trace(Ipv4Addr::new(192, 0, 2, 7), [100, 200], [2, 3]),
            mpls_trace(Ipv4Addr::new(198, 51, 100, 7), [101, 201], [2, 3]),
        ];
        let keys = Pipeline::snapshot_keys(&traces);
        let rec = lpr_obs::Recorder::new("test");
        let out =
            Pipeline::default().run_par(&traces, &mapper, &[keys.clone(), keys], 1, Some(&rec));
        let telemetry = rec.finish();

        // Filter stages chain exactly: input of stage k equals output of
        // stage k-1, starting from the report's input tunnel count.
        let mut input = out.report.input as u64;
        for stage in FilterStage::ALL {
            let s = telemetry.stage(stage.name()).unwrap_or_else(|| panic!("{}", stage.name()));
            assert_eq!(s.input, input, "{} input", stage.name());
            assert_eq!(s.output, out.report.remaining[&stage] as u64, "{} output", stage.name());
            input = s.output;
        }
        let extraction = telemetry.stage("TunnelExtraction").unwrap();
        assert_eq!(extraction.input, traces.len() as u64);
        assert_eq!(extraction.output, out.report.input as u64);
        let classification = telemetry.stage("Classification").unwrap();
        assert_eq!(classification.output, out.iotps.len() as u64);
        assert_eq!(telemetry.counter("pipeline.traces"), traces.len() as u64);
        assert_eq!(telemetry.counter("pipeline.tunnels"), out.report.input as u64);
        assert_eq!(telemetry.counter("pipeline.iotps_classified"), out.iotps.len() as u64);
    }

    #[test]
    fn recorder_is_optional_and_unrecorded_runs_match() {
        let traces = vec![
            mpls_trace(Ipv4Addr::new(192, 0, 2, 7), [100, 200], [2, 3]),
            mpls_trace(Ipv4Addr::new(198, 51, 100, 7), [101, 201], [2, 3]),
        ];
        let keys = Pipeline::snapshot_keys(&traces);
        let future = std::slice::from_ref(&keys);
        let plain = Pipeline::default().run(&traces, &mapper, future);
        for threads in [1usize, 4] {
            let rec = lpr_obs::Recorder::new("test");
            let unrecorded = Pipeline::default().run_par(&traces, &mapper, future, threads, None);
            let recorded =
                Pipeline::default().run_par(&traces, &mapper, future, threads, Some(&rec));
            assert_eq!(plain.report, recorded.report, "threads={threads}");
            assert_eq!(plain.class_counts(), recorded.class_counts(), "threads={threads}");
            assert_eq!(recorded, unrecorded, "threads={threads}");
            assert_eq!(recorded, plain, "threads={threads}");
        }
    }

    #[test]
    fn degraded_traces_are_quarantined_not_fatal() {
        use crate::quarantine::QuarantineReason;
        let clean = vec![
            mpls_trace(Ipv4Addr::new(192, 0, 2, 7), [100, 200], [2, 3]),
            mpls_trace(Ipv4Addr::new(198, 51, 100, 7), [101, 201], [2, 3]),
        ];
        let mut broken = clean.clone();
        let mut dup = mpls_trace(Ipv4Addr::new(192, 0, 2, 8), [100, 200], [2, 3]);
        dup.hops.push(dup.hops.last().unwrap().clone()); // duplicated reply
        broken.push(dup);
        let mut rev = mpls_trace(Ipv4Addr::new(198, 51, 100, 8), [100, 200], [2, 3]);
        rev.hops.swap(0, 3); // reordered replies
        broken.push(rev);

        let keys = Pipeline::snapshot_keys(&broken);
        assert_eq!(keys, Pipeline::snapshot_keys(&clean), "quarantined traces yield no keys");

        let rec = lpr_obs::Recorder::new("degraded");
        let out = Pipeline::default().run_par(
            &broken,
            &mapper,
            std::slice::from_ref(&keys),
            1,
            Some(&rec),
        );
        assert_eq!(out.degraded.kept, 2);
        assert_eq!(out.degraded.quarantined[&QuarantineReason::DuplicateTtl], 1);
        assert_eq!(out.degraded.quarantined[&QuarantineReason::NonMonotonicTtl], 1);
        assert_eq!(out.degraded.ingested(), broken.len() as u64);

        // The surviving pipeline matches a run over only the clean traces.
        let clean_out = Pipeline::default().run(&clean, &mapper, &[keys]);
        assert_eq!(out.iotps, clean_out.iotps);
        assert_eq!(out.report, clean_out.report);

        // Telemetry reconciles: kept + quarantined == traces ingested.
        let telemetry = rec.finish();
        assert_eq!(telemetry.counter("pipeline.traces"), broken.len() as u64);
        assert_eq!(telemetry.counter("pipeline.traces_kept"), 2);
        assert_eq!(telemetry.counter("pipeline.traces_quarantined"), 2);
        assert_eq!(
            telemetry.counter(QuarantineReason::DuplicateTtl.counter_name())
                + telemetry.counter(QuarantineReason::NonMonotonicTtl.counter_name()),
            telemetry.counter("pipeline.traces_quarantined"),
        );
    }

    #[test]
    fn class_counts_helpers() {
        let mut c = ClassCounts::default();
        c.add(Class::MonoLsp);
        c.add(Class::MultiFec);
        c.add(Class::MonoFec(crate::classify::MonoFecKind::ParallelLinks));
        c.add(Class::MonoFec(crate::classify::MonoFecKind::RoutersDisjoint));
        assert_eq!(c.total(), 4);
        assert_eq!(c.mono_fec(), 2);
        let f = c.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        let mut d = ClassCounts::default();
        d.merge(&c);
        assert_eq!(d, c);
        assert_eq!(ClassCounts::default().fractions(), [0.0; 4]);
    }
}
