//! Parallel front end of the LPR pipeline.
//!
//! The pipeline's hot path is embarrassingly parallel per trace (tunnel
//! extraction + the fused per-LSP filters) and per IOTP
//! (classification). This module shards that work over
//! [`lpr_par::map_shards`] while keeping the output **byte-identical**
//! to the sequential [`Pipeline::run`] for any thread count:
//!
//! - Traces are cut into contiguous shards; each worker pushes its
//!   shard through its own [`CycleAccumulator`] and hands back an
//!   owned [`IngestState`]. Merging shard states *in shard order*
//!   reproduces the sequential LSP order exactly, and every count is a
//!   plain sum.
//! - The aggregate stages (TransitDiversity → Persistence →
//!   classification) then run through the same
//!   [`Pipeline::finish_stages`] the sequential path uses, which in
//!   turn shards the per-LSP persistence probe and the per-IOTP
//!   classification.
//!
//! With `threads <= 1` every shard runs inline on the caller's thread —
//! [`Pipeline::run_par`] *is* the sequential pipeline then, not an
//! emulation of it.

use crate::filter::AsMapper;
use crate::lsp::LspKey;
use crate::pipeline::{IngestState, Pipeline, PipelineOutput};
use crate::quarantine::QuarantineReason;
use crate::stream::CycleAccumulator;
use crate::trace::Trace;
use lpr_par::ShardOptions;
use std::collections::BTreeSet;

impl Pipeline {
    /// [`Pipeline::run`] sharded across `threads` workers (`0` means the
    /// machine's available parallelism) and recorded into `recorder`
    /// when one is given: the one threaded and traced entry over a
    /// trace slice. The output is identical to [`Pipeline::run`] for
    /// any thread count, recorded or not.
    ///
    /// Aggregate stage rows carry the same names and input/output
    /// counts at every thread count (per-LSP stage times are summed
    /// worker CPU time in a parallel run). When more than one worker
    /// actually runs, additional `worker{N}/<stage>` rows record each
    /// worker's busy time and item counts. The run's `threads` field is
    /// always set.
    pub fn run_par(
        &self,
        traces: &[Trace],
        mapper: &(dyn AsMapper + Sync),
        future_keys: &[BTreeSet<LspKey>],
        threads: usize,
        recorder: Option<&lpr_obs::Recorder>,
    ) -> PipelineOutput {
        let opts = ShardOptions::new(threads);
        let parallel = opts.effective_threads() > 1;
        if let Some(rec) = recorder {
            rec.set_threads(opts.effective_threads() as u64);
        }
        let disabled = lpr_obs::Tracer::disabled();
        let tracer = recorder.map_or(&disabled, |r| r.tracer());

        // Shards are caught: a panicking worker closure poisons only its
        // own shard, whose traces are then quarantined wholesale instead
        // of tearing down the run (the panic itself is deterministic per
        // shard, so so is the quarantine).
        let ingest_span = tracer.span("stage:Ingest");
        let run = lpr_par::map_shards_traced(
            traces,
            opts,
            lpr_par::ShardTrace::new(tracer, ingest_span.context()),
            |_, shard| CycleAccumulator::ingest(mapper, shard),
        );

        // Shard-order merge: LSPs concatenate in input order, counts sum.
        let mut shard_outputs = Vec::with_capacity(run.outputs.len());
        let mut ingest = IngestState::default();
        let mut poisoned = 0u64;
        for (shard, result) in run.outputs.into_iter().enumerate() {
            match result {
                Ok(state) => {
                    shard_outputs.push((shard, state.lsps.len() as u64));
                    ingest.merge(state);
                }
                Err(_poisoned_shard) => {
                    let n = run.shard_lens.get(shard).copied().unwrap_or(0) as u64;
                    // Merged (not field-poked) so the quarantined shard
                    // lands in the per-cycle provenance like any other.
                    let mut degraded = crate::quarantine::DegradedReport::default();
                    degraded.note_many(QuarantineReason::PoisonedShard, n);
                    ingest.merge(IngestState {
                        traces_in: n,
                        degraded,
                        ..IngestState::default()
                    });
                    poisoned += 1;
                    shard_outputs.push((shard, 0));
                }
            }
        }
        drop(ingest_span);
        if let Some(rec) = recorder {
            if poisoned > 0 {
                rec.counter(lpr_obs::names::PAR_POISONED_SHARDS).add(poisoned);
            }
            if parallel {
                let mut per_worker: std::collections::BTreeMap<usize, u64> =
                    std::collections::BTreeMap::new();
                for (shard, surviving) in &shard_outputs {
                    let w = run.shard_workers.get(*shard).copied().unwrap_or(0);
                    *per_worker.entry(w).or_default() += surviving;
                }
                for stat in &run.workers {
                    let surviving = per_worker.get(&stat.worker).copied().unwrap_or(0);
                    rec.record_worker_stage(
                        stat.worker,
                        "Ingest",
                        stat.busy_us,
                        stat.items,
                        surviving,
                    );
                }
            }
        }

        self.finish_stages(ingest, future_keys, recorder, opts)
    }

    /// Parallel [`Pipeline::snapshot_keys`]: the per-snapshot LSP key
    /// sets the Persistence filter matches against, computed by sharding
    /// traces across workers and unioning the per-shard key sets (a set
    /// union is order-insensitive, so the result is identical to the
    /// sequential one).
    pub fn snapshot_keys_par(traces: &[Trace], threads: usize) -> BTreeSet<LspKey> {
        let run = lpr_par::map_shards(traces, ShardOptions::new(threads), |_, shard| {
            Pipeline::snapshot_keys(shard)
        });
        run.outputs.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Lse;
    use crate::lsp::Asn;
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

    /// A trace crossing AS`asn`'s two-LSR tunnel towards `dst`.
    fn mpls_trace(asn: u8, dst: Ipv4Addr, labels: [u32; 2], lsrs: [u8; 2]) -> Trace {
        let mut t = Trace::new(Ipv4Addr::new(203, 0, 113, 5), dst);
        t.push_hop(Hop::responsive(1, ip(asn, 1)));
        t.push_hop(Hop::labelled(2, ip(asn, lsrs[0]), &[Lse::transit(labels[0], 254)]));
        t.push_hop(Hop::labelled(3, ip(asn, lsrs[1]), &[Lse::transit(labels[1], 253)]));
        t.push_hop(Hop::responsive(4, ip(asn, 9)));
        t.push_hop(Hop::responsive(5, dst));
        t.reached = true;
        t
    }

    /// A mixed workload: several ASes, diverse and non-diverse IOTPs,
    /// some non-persistent LSPs.
    fn workload() -> Vec<Trace> {
        let mut traces = Vec::new();
        for asn in 1..=6u8 {
            for i in 0..10u32 {
                let dst = if i % 2 == 0 {
                    Ipv4Addr::new(192, 0, 2, 10 + i as u8)
                } else {
                    Ipv4Addr::new(198, 51, 100, 10 + i as u8)
                };
                traces.push(mpls_trace(asn, dst, [100 + i % 3, 200 + i % 3], [2, 3]));
            }
        }
        traces
    }

    #[test]
    fn parallel_run_is_byte_identical_to_sequential() {
        let traces = workload();
        let keys = Pipeline::snapshot_keys(&traces);
        let pipeline = Pipeline::default();
        let seq = pipeline.run(&traces, &mapper, std::slice::from_ref(&keys));
        for threads in [1usize, 2, 3, 4, 8] {
            let par =
                pipeline.run_par(&traces, &mapper, std::slice::from_ref(&keys), threads, None);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn parallel_snapshot_keys_match_sequential() {
        let traces = workload();
        let seq = Pipeline::snapshot_keys(&traces);
        for threads in [1usize, 2, 4, 7] {
            assert_eq!(Pipeline::snapshot_keys_par(&traces, threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn parallel_options_are_respected() {
        let traces = workload();
        let keys = Pipeline::snapshot_keys(&traces);
        let mut pipeline = Pipeline::default().with_alias_rescue();
        pipeline.skip_transit_diversity = true;
        let seq = pipeline.run(&traces, &mapper, std::slice::from_ref(&keys));
        let par = pipeline.run_par(&traces, &mapper, std::slice::from_ref(&keys), 4, None);
        assert_eq!(par, seq);
    }

    #[test]
    fn parallel_telemetry_reconciles_with_sequential_counts() {
        let traces = workload();
        let keys = Pipeline::snapshot_keys(&traces);
        let pipeline = Pipeline::default();

        let rec = lpr_obs::Recorder::new("par");
        let out =
            pipeline.run_par(&traces, &mapper, std::slice::from_ref(&keys), 4, Some(&rec));
        let telemetry = rec.finish();
        assert_eq!(telemetry.threads, 4);

        // Aggregate filter stages chain exactly as in the sequential run.
        let mut input = out.report.input as u64;
        for stage in crate::filter::FilterStage::ALL {
            let s = telemetry.stage(stage.name()).unwrap_or_else(|| panic!("{}", stage.name()));
            assert_eq!(s.input, input, "{} input", stage.name());
            assert_eq!(s.output, out.report.remaining[&stage] as u64, "{} output", stage.name());
            input = s.output;
        }

        // Worker rows sum-reconcile with the aggregate stages.
        let ingest: Vec<_> = telemetry.worker_stages("Ingest");
        assert!(!ingest.is_empty(), "worker ingest rows expected");
        assert_eq!(
            ingest.iter().map(|s| s.input).sum::<u64>(),
            traces.len() as u64,
            "worker ingest inputs cover every trace"
        );
        assert_eq!(
            ingest.iter().map(|s| s.output).sum::<u64>(),
            out.report.remaining[&crate::filter::FilterStage::TargetAs] as u64,
            "worker ingest outputs sum to the TargetAS survivors"
        );
        let classify: Vec<_> = telemetry.worker_stages("Classification");
        assert!(!classify.is_empty(), "worker classification rows expected");
        assert_eq!(
            classify.iter().map(|s| s.output).sum::<u64>(),
            out.iotps.len() as u64,
            "worker classification outputs sum to the classified IOTPs"
        );
        let persist: Vec<_> = telemetry.worker_stages("Persistence");
        assert_eq!(
            persist.iter().map(|s| s.input).sum::<u64>(),
            out.report.remaining[&crate::filter::FilterStage::TransitDiversity] as u64,
        );
        assert_eq!(
            persist.iter().map(|s| s.output).sum::<u64>(),
            out.report.remaining[&crate::filter::FilterStage::Persistence] as u64,
        );
    }

    #[test]
    fn quarantine_is_identical_across_thread_counts() {
        // Sprinkle structurally-broken traces through the workload; the
        // quarantine (and hence the whole output, degraded report
        // included) must not depend on sharding.
        let mut traces = workload();
        for i in [3usize, 17, 40] {
            let mut t = traces[i].clone();
            t.hops.push(t.hops[2].clone()); // duplicated reply
            traces.insert(i, t);
        }
        let keys = Pipeline::snapshot_keys(&traces);
        let pipeline = Pipeline::default();
        let seq = pipeline.run(&traces, &mapper, std::slice::from_ref(&keys));
        assert_eq!(seq.degraded.quarantined_total(), 3);
        assert_eq!(seq.degraded.ingested(), traces.len() as u64);
        for threads in [1usize, 2, 3, 4, 8] {
            let par =
                pipeline.run_par(&traces, &mapper, std::slice::from_ref(&keys), threads, None);
            assert_eq!(par, seq, "threads={threads}");
        }
    }

    #[test]
    fn panicking_worker_quarantines_its_shard() {
        // A mapper that panics on one sentinel address: the shard
        // holding that trace is quarantined as PoisonedShard, every
        // other shard classifies normally and the run completes.
        let bomb = Ipv4Addr::new(10, 66, 0, 1);
        let volatile_mapper = move |addr: Ipv4Addr| -> Option<Asn> {
            assert_ne!(addr, bomb, "mapper hit the poisoned address");
            mapper(addr)
        };
        // Several shards' worth of traces (shards hold >= 64 items), so
        // the bomb's shard is a strict subset of the input.
        let mut traces = Vec::new();
        for _ in 0..5 {
            traces.extend(workload());
        }
        let n_clean = traces.len();
        let mut t = mpls_trace(66, Ipv4Addr::new(192, 0, 2, 99), [1, 2], [2, 3]);
        t.hops[0] = Hop::responsive(1, bomb);
        traces.insert(traces.len() / 2, t);

        let keys = Pipeline::snapshot_keys_par(&traces, 1);
        let pipeline = Pipeline::default();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out =
            pipeline.run_par(&traces, &volatile_mapper, std::slice::from_ref(&keys), 4, None);
        std::panic::set_hook(prev);

        use crate::quarantine::QuarantineReason;
        let poisoned = out.degraded.quarantined[&QuarantineReason::PoisonedShard];
        assert!(poisoned >= 1, "the bomb trace's shard is quarantined");
        assert!(
            poisoned < traces.len() as u64,
            "only the bomb's shard is quarantined, not the whole run"
        );
        assert_eq!(out.degraded.ingested(), traces.len() as u64);
        assert_eq!(out.degraded.kept, n_clean as u64 + 1 - poisoned);
        assert!(!out.iotps.is_empty(), "surviving shards still classify");
    }

    #[test]
    fn single_threaded_run_records_no_worker_rows() {
        let traces = workload();
        let keys = Pipeline::snapshot_keys(&traces);
        let rec = lpr_obs::Recorder::new("seq");
        Pipeline::default().run_par(
            &traces,
            &mapper,
            std::slice::from_ref(&keys),
            1,
            Some(&rec),
        );
        let telemetry = rec.finish();
        assert_eq!(telemetry.threads, 1);
        assert!(telemetry.worker_stages("Ingest").is_empty());
        assert!(telemetry.worker_stages("Classification").is_empty());
    }
}
