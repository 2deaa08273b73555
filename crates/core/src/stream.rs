//! Streaming ingestion for Internet-scale cycles.
//!
//! The paper's dataset holds ~14 million LSPs *per cycle*; holding every
//! raw trace in memory before running [`crate::pipeline::Pipeline`] is
//! wasteful when the per-LSP filters (IncompleteLsp, IntraAs, TargetAs)
//! can run trace by trace as a warts file is read. [`CycleAccumulator`]
//! does exactly that: push traces one at a time — only the surviving
//! [`Lsp`](crate::lsp::Lsp)s are retained — then hand the accumulated
//! [`IngestState`] to [`Pipeline::finish_stages`] for the aggregate
//! stages (TransitDiversity, Persistence, classification).
//!
//! This is the pipeline's one per-trace ingest loop: [`Pipeline::run`],
//! the workers of [`Pipeline::run_par`] and the out-of-core
//! `lpr_corpus::ingest_cycle` all push their traces through it.
//!
//! ```
//! use lpr_core::prelude::*;
//! use lpr_core::stream::CycleAccumulator;
//! # use lpr_core::lsp::Asn;
//! # use std::net::Ipv4Addr;
//! # let mapper = |addr: Ipv4Addr| -> Option<Asn> {
//! #     match addr.octets()[0] { 10 => Some(Asn(1)), 192 => Some(Asn(2)), _ => None }
//! # };
//! # let traces: Vec<Trace> = Vec::new();
//!
//! let mut acc = CycleAccumulator::new(&mapper);
//! for trace in &traces {
//!     acc.push_trace(trace); // e.g. while streaming a warts file
//! }
//! let out = Pipeline::default().finish_stages(
//!     acc.into_state(),
//!     &[],
//!     None,
//!     lpr_par::ShardOptions::new(1),
//! );
//! # assert_eq!(out.iotps.len(), 0);
//! ```
//!
//! [`Pipeline::run`]: crate::pipeline::Pipeline::run
//! [`Pipeline::run_par`]: crate::pipeline::Pipeline::run_par
//! [`Pipeline::finish_stages`]: crate::pipeline::Pipeline::finish_stages

use crate::filter::{attribute_and_filter, AsMapper};
use crate::pipeline::IngestState;
use crate::quarantine::validate_trace;
use crate::trace::Trace;
use crate::tunnel::{extract_tunnels_into, RawTunnel};

/// Incremental, bounded-memory front end of the LPR pipeline.
pub struct CycleAccumulator<'m> {
    mapper: &'m dyn AsMapper,
    state: IngestState,
    /// Scratch buffer for per-trace tunnel extraction, reused across
    /// [`CycleAccumulator::push_trace`] calls so the steady state
    /// allocates nothing per trace.
    scratch: Vec<RawTunnel>,
}

impl<'m> CycleAccumulator<'m> {
    /// Starts an empty cycle bound to an IP2AS mapper.
    pub fn new(mapper: &'m dyn AsMapper) -> Self {
        CycleAccumulator { mapper, state: IngestState::default(), scratch: Vec::new() }
    }

    /// The ingest state of a whole trace slice, pushed in order.
    pub(crate) fn ingest(mapper: &'m dyn AsMapper, traces: &[Trace]) -> IngestState {
        let mut acc = CycleAccumulator::new(mapper);
        for trace in traces {
            acc.push_trace(trace);
        }
        acc.into_state()
    }

    /// Ingests one trace: validates it, extracts its explicit tunnels
    /// and runs the per-LSP filters immediately. Structurally broken
    /// traces are quarantined (counted on the eventual
    /// [`PipelineOutput::degraded`](crate::pipeline::PipelineOutput)
    /// report) instead of entering the pipeline.
    pub fn push_trace(&mut self, trace: &Trace) {
        let sw = lpr_obs::Stopwatch::start();
        self.state.traces_in += 1;
        if let Err(reason) = validate_trace(trace) {
            self.state.degraded.note(reason);
            self.state.extraction_us =
                self.state.extraction_us.saturating_add(sw.elapsed_us());
            return;
        }
        self.state.degraded.kept += 1;
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        extract_tunnels_into(trace, &mut scratch);
        self.state.extraction_us = self.state.extraction_us.saturating_add(sw.elapsed_us());
        self.push_tunnels(&scratch);
        self.scratch = scratch;
    }

    /// Runs the fused per-LSP filters over one trace's tunnels.
    fn push_tunnels(&mut self, tunnels: &[RawTunnel]) {
        let sw = lpr_obs::Stopwatch::start();
        self.state.input += tunnels.len();
        let out = attribute_and_filter(tunnels, self.mapper);
        self.state.after_incomplete += out.after_incomplete;
        self.state.after_intra_as += out.after_intra_as;
        self.state.lsps.extend(out.lsps);
        self.state.attribution_us = self.state.attribution_us.saturating_add(sw.elapsed_us());
    }

    /// LSPs retained so far (post per-LSP filters).
    pub fn retained(&self) -> usize {
        self.state.lsps.len()
    }

    /// Hands back the accumulated ingest state — an owned, `Send`-able
    /// value that `Pipeline::finish_stages` finishes, and that the
    /// parallel pipeline's workers return across thread boundaries
    /// (the accumulator itself borrows its mapper and cannot leave the
    /// worker).
    pub fn into_state(self) -> IngestState {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::FilterStage;
    use crate::label::Lse;
    use crate::lsp::Asn;
    use crate::pipeline::{Pipeline, PipelineOutput};
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

    fn mpls_trace(dst: Ipv4Addr, labels: [u32; 2], lsrs: [u8; 2]) -> Trace {
        let mut t = Trace::new(Ipv4Addr::new(203, 0, 113, 5), dst);
        t.push_hop(Hop::responsive(1, ip(1, 1)));
        t.push_hop(Hop::labelled(2, ip(1, lsrs[0]), &[Lse::transit(labels[0], 254)]));
        t.push_hop(Hop::labelled(3, ip(1, lsrs[1]), &[Lse::transit(labels[1], 253)]));
        t.push_hop(Hop::responsive(4, ip(1, 9)));
        t.push_hop(Hop::responsive(5, dst));
        t.reached = true;
        t
    }

    fn sample_traces() -> Vec<Trace> {
        vec![
            mpls_trace(Ipv4Addr::new(192, 0, 2, 7), [100, 200], [2, 3]),
            mpls_trace(Ipv4Addr::new(198, 51, 100, 7), [101, 201], [2, 3]),
            mpls_trace(Ipv4Addr::new(192, 0, 2, 9), [100, 200], [2, 3]),
        ]
    }

    /// Streams `traces` through an accumulator and finishes at one
    /// thread.
    fn stream(
        pipeline: &Pipeline,
        traces: &[Trace],
        future_keys: &[std::collections::BTreeSet<crate::lsp::LspKey>],
        recorder: Option<&lpr_obs::Recorder>,
    ) -> PipelineOutput {
        let mut acc = CycleAccumulator::new(&mapper);
        for t in traces {
            acc.push_trace(t);
        }
        let opts = lpr_par::ShardOptions::new(1);
        pipeline.finish_stages(acc.into_state(), future_keys, recorder, opts)
    }

    #[test]
    fn streaming_equals_batch() {
        let traces = sample_traces();
        let keys = Pipeline::snapshot_keys(&traces);
        let pipeline = Pipeline::default();

        let batch = pipeline.run(&traces, &mapper, std::slice::from_ref(&keys));
        let streamed = stream(&pipeline, &traces, std::slice::from_ref(&keys), None);

        assert_eq!(streamed.report, batch.report);
        assert_eq!(streamed.class_counts(), batch.class_counts());
        assert_eq!(streamed.dynamic_ases, batch.dynamic_ases);
        assert_eq!(streamed.iotps.len(), batch.iotps.len());
        for ((ia, ca), (ib, cb)) in streamed.iotps.iter().zip(&batch.iotps) {
            assert_eq!(ia.key, ib.key);
            assert_eq!(ca, cb);
        }
        assert_eq!(streamed, batch, "streaming and batch outputs must be identical");
    }

    #[test]
    fn memory_is_bounded_by_surviving_lsps() {
        // Traces whose tunnels fail the per-LSP filters retain nothing.
        let mut t = Trace::new(Ipv4Addr::new(203, 0, 113, 5), ip(1, 200));
        t.push_hop(Hop::responsive(1, ip(1, 1)));
        t.push_hop(Hop::labelled(2, ip(1, 2), &[Lse::transit(100, 254)]));
        t.push_hop(Hop::responsive(3, ip(1, 9)));
        t.push_hop(Hop::responsive(4, ip(1, 200))); // dst inside the AS
        t.reached = true;

        let mut acc = CycleAccumulator::new(&mapper);
        for _ in 0..100 {
            acc.push_trace(&t);
        }
        assert_eq!(acc.retained(), 0, "TargetAS-failing LSPs must not accumulate");
        let out = Pipeline::default().finish_stages(
            acc.into_state(),
            &[],
            None,
            lpr_par::ShardOptions::new(1),
        );
        assert_eq!(out.report.input, 100);
        assert!(out.iotps.is_empty());
    }

    #[test]
    fn streaming_telemetry_reconciles_with_report() {
        let traces = sample_traces();
        let keys = Pipeline::snapshot_keys(&traces);
        let rec = lpr_obs::Recorder::new("stream");
        let out = stream(&Pipeline::default(), &traces, &[keys], Some(&rec));
        let telemetry = rec.finish();

        let extraction = telemetry.stage("TunnelExtraction").unwrap();
        assert_eq!(extraction.input, traces.len() as u64);
        assert_eq!(extraction.output, out.report.input as u64);
        let mut input = out.report.input as u64;
        for stage in FilterStage::ALL {
            let s = telemetry.stage(stage.name()).unwrap_or_else(|| panic!("{}", stage.name()));
            assert_eq!(s.input, input, "{} input", stage.name());
            assert_eq!(s.output, out.report.remaining[&stage] as u64, "{} output", stage.name());
            input = s.output;
        }
        assert_eq!(telemetry.stage("Classification").unwrap().output, out.iotps.len() as u64);
    }

    #[test]
    fn streaming_respects_pipeline_options() {
        let traces = sample_traces();
        let pipeline = Pipeline { skip_transit_diversity: true, ..Pipeline::default() };
        let keys = Pipeline::snapshot_keys(&traces);
        let out = stream(&pipeline, &traces, std::slice::from_ref(&keys), None);
        let batch = pipeline.run(&traces, &mapper, &[keys]);
        assert_eq!(out.report, batch.report, "full FilterReport must agree");
        assert_eq!(out, batch, "streaming and batch outputs must be identical");
    }
}
