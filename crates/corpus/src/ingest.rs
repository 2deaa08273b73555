//! Indexed, sharded, bounded-memory ingest.
//!
//! [`ingest_cycle`] is the out-of-core counterpart of the in-memory
//! pipeline's trace ingest ([`lpr_core::Pipeline::run_par`]'s
//! front half): it cuts every file's record index into contiguous
//! [`RangeTask`]s and maps them over [`lpr_par::map_shards`]. Each
//! task decodes its trace records straight out of the file mapping
//! into one reused [`Trace`] (against a borrow of the file's full
//! address dictionary) and filters them **one at a time** through a
//! [`CycleAccumulator`], and hands back an owned [`IngestState`];
//! merging the states in task order reproduces the sequential ingest
//! exactly. Peak memory is the surviving LSPs plus one record body per
//! worker — never the corpus, never the trace list.

use crate::corpus::{Corpus, DecodeReport};
use lpr_core::filter::{lsp_keys_of_tunnels, AsMapper};
use lpr_core::lsp::LspKey;
use lpr_core::pipeline::IngestState;
use lpr_core::spill::{KeySpiller, SpilledKeys};
use lpr_core::stream::CycleAccumulator;
use lpr_core::trace::Trace;
use lpr_core::tunnel::RawTunnel;
use std::collections::BTreeSet;
use std::io;
use std::path::Path;
use std::net::Ipv4Addr;
use warts::{decode_trace_into, Decoded, RecordType};

/// How the ingest shards its work.
#[derive(Clone, Copy, Debug)]
pub struct IngestOptions {
    /// Worker threads (0 = available parallelism), as in
    /// [`lpr_par::ShardOptions`].
    pub threads: usize,
    /// Indexed records per [`RangeTask`]: small enough that large
    /// files split across workers, large enough to amortize the
    /// per-task dictionary preload.
    pub records_per_task: usize,
}

impl IngestOptions {
    /// Options for `threads` workers with the default task geometry.
    pub fn new(threads: usize) -> Self {
        IngestOptions { threads, records_per_task: 4096 }
    }
}

/// One contiguous slice of one file's record index.
#[derive(Clone, Copy, Debug)]
pub struct RangeTask {
    /// Index into [`Corpus::files`].
    pub file: usize,
    /// First record (inclusive) in that file's index.
    pub start: usize,
    /// Last record (exclusive).
    pub end: usize,
}

/// Cuts the corpus into decode tasks, in cycle order.
pub fn range_tasks(corpus: &Corpus, records_per_task: usize) -> Vec<RangeTask> {
    let per_task = records_per_task.max(1);
    let mut tasks = Vec::new();
    for (file, cf) in corpus.files.iter().enumerate() {
        let n = cf.index.records.len();
        let mut start = 0;
        while start < n {
            let end = (start + per_task).min(n);
            tasks.push(RangeTask { file, start, end });
            start = end;
        }
    }
    tasks
}

fn shard_opts(threads: usize) -> lpr_par::ShardOptions {
    // Tasks are coarse units already; let every task be schedulable on
    // its own rather than grouping 64 of them per shard.
    lpr_par::ShardOptions { threads, shards_per_thread: 4, min_shard_len: 1 }
}

/// Decodes the trace records of one task and feeds each to `push`.
/// Returns `(convert_failures, decode_errors)`.
///
/// Each record is decoded once, straight from the mapping into one
/// reused [`Trace`], against a borrow of the file's dictionary: the
/// steady state allocates nothing per trace.
fn decode_task(
    corpus: &Corpus,
    task: &RangeTask,
    mut push: impl FnMut(&Trace),
) -> (u64, u64) {
    let file = &corpus.files[task.file];
    let bytes = file.bytes();
    // Preload the file's complete dictionary: every reference id a
    // record can carry resolves below the preload, so range-local
    // decode equals sequential decode (embed-form occurrences append
    // duplicates past it, which nothing references).
    let mut addrs = warts::AddrTableReader::preloaded(&file.index.addr_table);
    let mut trace = Trace::new(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED);
    let mut convert_failures = 0u64;
    let mut decode_errors = 0u64;
    for span in &file.index.records[task.start..task.end] {
        if span.record_type != RecordType::Trace as u16 {
            continue;
        }
        let start = span.offset as usize + 8;
        let body = &bytes[start..start + span.body_len as usize];
        match decode_trace_into(body, &mut addrs, &mut trace) {
            Ok(Decoded::Trace) => push(&trace),
            Ok(Decoded::NotIpv4) => {} // outside the paper's dataset
            Ok(Decoded::ConvertFailed(_)) => convert_failures += 1,
            // The index only records successful decodes, so this is
            // unreachable in practice; counted, not fatal.
            Err(_) => decode_errors += 1,
        }
    }
    (convert_failures, decode_errors)
}

/// Runs the pipeline's ingest half over an indexed corpus: sharded
/// zero-copy decode, per-trace validation/extraction/filtering, shard-
/// order merge. The result feeds
/// [`lpr_core::Pipeline::finish_stages_windowed`] and is byte-identical
/// to the in-memory ingest over the same traces at any thread count.
pub fn ingest_cycle(
    corpus: &Corpus,
    mapper: &(dyn AsMapper + Sync),
    opts: IngestOptions,
    recorder: Option<&lpr_obs::Recorder>,
) -> (IngestState, DecodeReport) {
    let tasks = range_tasks(corpus, opts.records_per_task);
    let run = lpr_par::map_shards(&tasks, shard_opts(opts.threads), |_, shard| {
        let mut state = IngestState::default();
        let mut convert_failures = 0u64;
        let mut decode_errors = 0u64;
        let mut mpls_traces = 0u64;
        for task in shard {
            let mut acc = CycleAccumulator::new(mapper);
            let (cf, de) = decode_task(corpus, task, |trace| {
                if trace.has_mpls() {
                    mpls_traces += 1;
                }
                acc.push_trace(trace);
            });
            convert_failures += cf;
            decode_errors += de;
            state.merge(acc.into_state());
        }
        (state, convert_failures, decode_errors, mpls_traces)
    });

    let mut ingest = IngestState::default();
    let mut report = corpus.decode_report();
    let mut decode_errors = 0u64;
    for (state, cf, de, mpls) in run.outputs {
        ingest.merge(state);
        report.convert_failures += cf;
        decode_errors += de;
        report.mpls_traces += mpls;
    }
    if let Some(rec) = recorder {
        rec.counter(lpr_obs::names::INGEST_SPILLED_TRACES).add(ingest.traces_in);
        if decode_errors > 0 {
            rec.counter(lpr_obs::names::CORPUS_SHARD_DECODE_ERRORS).add(decode_errors);
        }
    }
    (ingest, report)
}

/// The per-task key extraction shared by both snapshot-key paths.
fn task_keys(corpus: &Corpus, task: &RangeTask) -> BTreeSet<LspKey> {
    let mut tunnels: Vec<RawTunnel> = Vec::new();
    decode_task(corpus, task, |trace| {
        if lpr_core::quarantine::validate_trace(trace).is_ok() {
            lpr_core::extract_tunnels_into(trace, &mut tunnels);
        }
    });
    lsp_keys_of_tunnels(&tunnels)
}

/// The corpus's LSP key set (what [`lpr_core::Pipeline::snapshot_keys`]
/// computes from an in-memory trace list), sharded. Set unions are
/// order-insensitive, so the result matches the sequential one.
pub fn snapshot_keys(corpus: &Corpus, threads: usize) -> BTreeSet<LspKey> {
    let tasks = range_tasks(corpus, IngestOptions::new(threads).records_per_task);
    let run = lpr_par::map_shards(&tasks, shard_opts(threads), |_, shard| {
        let mut keys = BTreeSet::new();
        for task in shard {
            keys.extend(task_keys(corpus, task));
        }
        keys
    });
    let mut keys = BTreeSet::new();
    for shard in run.outputs {
        keys.extend(shard);
    }
    keys
}

/// Out-of-core [`snapshot_keys`]: the keys go to a sorted spill file
/// under `dir` instead of an in-memory set. Tasks are processed in
/// bounded batches (decode parallel, spill sequential), so peak memory
/// is one batch's keys plus the spiller's run buffer — the future
/// snapshots of a persistence window never coexist in RAM.
pub fn spill_snapshot_keys(
    corpus: &Corpus,
    dir: &Path,
    label: &str,
    threads: usize,
    recorder: Option<&lpr_obs::Recorder>,
) -> io::Result<SpilledKeys> {
    let tasks = range_tasks(corpus, IngestOptions::new(threads).records_per_task);
    let mut spiller = KeySpiller::new(dir, label)?;
    for batch in tasks.chunks(64) {
        let run = lpr_par::map_shards(batch, shard_opts(threads), |_, shard| {
            let mut keys = BTreeSet::new();
            for task in shard {
                keys.extend(task_keys(corpus, task));
            }
            keys
        });
        for keys in run.outputs {
            for key in &keys {
                spiller.push(key)?;
            }
        }
    }
    let spilled = spiller.finish()?;
    if let Some(rec) = recorder {
        rec.counter(lpr_obs::names::INGEST_SPILLED_KEYS).add(spilled.count);
        rec.counter(lpr_obs::names::INGEST_SPILL_BYTES).add(spilled.bytes);
    }
    Ok(spilled)
}

/// Sequentially loads every trace of the corpus, in cycle order — the
/// in-memory reference the out-of-core path is checked against.
/// Returns the traces and the convert-failure count.
pub fn load_traces(corpus: &Corpus) -> (Vec<Trace>, u64) {
    let mut traces = Vec::new();
    let mut convert_failures = 0u64;
    for file in 0..corpus.files.len() {
        let n = corpus.files[file].index.records.len();
        let task = RangeTask { file, start: 0, end: n };
        let (cf, _) = decode_task(corpus, &task, |trace| traces.push(trace.clone()));
        convert_failures += cf;
    }
    (traces, convert_failures)
}
