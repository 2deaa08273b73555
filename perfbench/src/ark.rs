//! `ark-cycle`: one Ark cycle turned into classified IOTPs, cold and
//! out of core at one thread. Work falls on `corpus`, `warts` and the
//! front half of `core`; `netsim` only generates the inputs in set-up.

use crate::layers::{back_half, extract, fingerprint, Layers, OpCosts};
use crate::metrics::{put, put_median, Values};
use crate::{
    alloc, procfs, push_all, push_memory, put_medians, repeat, spawn_worker, stats, timed, Args,
    Outcome, Series, SETUP_REPS,
};
use lpr_core::filter::{attribute_and_filter, FilterConfig};
use lpr_core::pipeline::{IngestState, PersistenceWindow, Pipeline, PipelineOutput};
use lpr_core::spill::{KeySpiller, SpilledKeys};
use lpr_core::trace::Trace;
use lpr_corpus::{ingest_cycle, Corpus, IngestOptions};
use lpr_obs::json::JsonValue;
use std::path::{Path, PathBuf};

const SCALE: usize = 10;
const CYCLE: usize = 40;
const SNAPSHOTS: usize = 3;
const CORPUS_FILES: usize = 4;

fn pipeline() -> Pipeline {
    Pipeline::new(FilterConfig {
        persistence_window: SNAPSHOTS - 1,
        ..Default::default()
    })
}

/// The inputs one op reads, as set-up leaves them on disk.
struct Inputs {
    corpus: Vec<PathBuf>,
    spilled: Vec<SpilledKeys>,
    rib: PathBuf,
    /// Fingerprint of the in-memory reference output.
    expect: u64,
}

/// Generates the campaign, writes snapshot 0 as a warts corpus, spills
/// snapshots 1.. as key files, and computes the oracle: an in-memory
/// `Pipeline::run` over the same traces.
fn setup(dir: &Path, seed: u64) -> Result<Inputs, String> {
    let _ = std::fs::remove_dir_all(dir);
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let world = ark_dataset::scaled_world(SCALE);
    let opts = ark_dataset::CampaignOptions {
        snapshots: SNAPSHOTS,
        seed,
        hosts_per_prefix: ark_dataset::scale_hosts_per_prefix(SCALE),
        threads: 1,
        ..Default::default()
    };
    let mut primary = Vec::new();
    let mut corpus = Vec::new();
    let mut future = Vec::new();
    let mut spilled = Vec::new();
    for snap in 0..SNAPSHOTS {
        let traces = ark_dataset::generate_snapshot(&world, CYCLE, snap, &opts);
        if snap == 0 {
            corpus =
                lpr_corpus::write_corpus_files(&dir.join("corpus"), "cycle", &traces, CORPUS_FILES)
                    .map_err(io)?;
            primary = traces;
        } else {
            let keys = Pipeline::snapshot_keys(&traces);
            let mut spiller =
                KeySpiller::new(&dir.join("spill"), &format!("next{}", snap - 1)).map_err(io)?;
            for key in &keys {
                spiller.push(key).map_err(io)?;
            }
            spilled.push(spiller.finish().map_err(io)?);
            future.push(keys);
        }
    }
    let expect = fingerprint(&pipeline().run(&primary, world.rib(), &future));
    let rib = dir.join("rib.txt");
    std::fs::write(&rib, ip2as::to_rib_string(world.rib())).map_err(io)?;
    let inputs = Inputs {
        corpus,
        spilled,
        rib,
        expect,
    };
    std::fs::write(dir.join("job.json"), job_json(&inputs).render()).map_err(io)?;
    Ok(inputs)
}

fn job_json(inputs: &Inputs) -> JsonValue {
    let path = |p: &Path| JsonValue::Str(p.display().to_string());
    JsonValue::Object(vec![
        (
            "corpus".into(),
            JsonValue::Array(inputs.corpus.iter().map(|p| path(p)).collect()),
        ),
        (
            "spilled".into(),
            JsonValue::Array(
                inputs
                    .spilled
                    .iter()
                    .map(|s| {
                        JsonValue::Array(vec![
                            path(&s.path),
                            JsonValue::Int(s.count as i128),
                            JsonValue::Int(s.bytes as i128),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("rib".into(), path(&inputs.rib)),
        (
            "expect".into(),
            JsonValue::Str(format!("{:#018x}", inputs.expect)),
        ),
    ])
}

fn read_job(dir: &Path) -> Result<Inputs, String> {
    let text =
        std::fs::read_to_string(dir.join("job.json")).map_err(|e| format!("job.json: {e}"))?;
    let doc = lpr_obs::json::parse(&text).map_err(|e| format!("job.json: {e:?}"))?;
    let bad = || "job.json: malformed".to_string();
    let str_of = |v: &JsonValue| v.as_str().map(PathBuf::from).ok_or_else(bad);
    let list = |k: &str| doc.get(k).and_then(JsonValue::as_array).ok_or_else(bad);
    let corpus = list("corpus")?
        .iter()
        .map(str_of)
        .collect::<Result<_, _>>()?;
    let spilled = list("spilled")?
        .iter()
        .map(|s| {
            let s = s.as_array().ok_or_else(bad)?;
            Ok(SpilledKeys {
                path: str_of(s.first().ok_or_else(bad)?)?,
                count: s.get(1).and_then(JsonValue::as_u64).ok_or_else(bad)?,
                bytes: s.get(2).and_then(JsonValue::as_u64).ok_or_else(bad)?,
            })
        })
        .collect::<Result<_, String>>()?;
    let expect = doc
        .get("expect")
        .and_then(JsonValue::as_str)
        .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
        .ok_or_else(bad)?;
    Ok(Inputs {
        corpus,
        spilled,
        rib: str_of(doc.get("rib").ok_or_else(bad)?)?,
        expect,
    })
}

fn load_rib(path: &Path) -> Result<ip2as::Ip2AsTrie, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    ip2as::parse_rib(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One op: open the corpus cold (no index cache), ingest it at one
/// thread, and run the back half against the spilled window.
fn op(inputs: &Inputs, rib: &ip2as::Ip2AsTrie) -> Result<(PipelineOutput, u64), String> {
    let corpus = Corpus::open_with(&inputs.corpus, false, None).map_err(|e| e.to_string())?;
    let (ingest, report) = ingest_cycle(&corpus, rib, IngestOptions::new(1), None);
    if report.skipped_total() > 0 || report.convert_failures > 0 {
        return Err(format!("corpus decoded with damage: {report:?}"));
    }
    let out = pipeline()
        .finish_stages_windowed(
            ingest,
            PersistenceWindow::Spilled(&inputs.spilled),
            None,
            lpr_par::ShardOptions::new(1),
        )
        .map_err(|e| e.to_string())?;
    Ok((out, corpus.total_traces()))
}

/// The same op, one public call per span: stream decode, conversion,
/// extraction and attribution per file, then the back half stage by
/// stage. Also sweeps `Ip2AsTrie::lookup` over every hop address,
/// beside the op.
fn traced_op(
    layers: &mut Layers,
    inputs: &Inputs,
    rib: &ip2as::Ip2AsTrie,
    counts: &mut Counts,
) -> Result<PipelineOutput, String> {
    let corpus = layers
        .call("corpus.open", || {
            Corpus::open_with(&inputs.corpus, false, None)
        })
        .map_err(|e| e.to_string())?;
    counts.records = corpus.total_records();
    let mut ingest = IngestState::default();
    for file in &corpus.files {
        let records = layers.call("warts.decode", || decode_traces(file.bytes()))?;
        counts.bytes += file.bytes().len() as u64;
        counts.traces += records.len() as u64;
        let traces = layers.call("warts.convert", || -> Result<Vec<Trace>, String> {
            let mut traces = Vec::with_capacity(records.len());
            for rec in records {
                match warts::trace_to_core(&rec) {
                    Ok(Some(t)) => traces.push(t),
                    Ok(None) => {}
                    Err(e) => return Err(format!("trace_to_core: {e}")),
                }
            }
            Ok(traces)
        })?;
        counts.lookups += layers.aside("ip2as.lookup", || lookup_sweep(&traces, rib));
        ingest.traces_in += traces.len() as u64;
        // Each call consumes its input, so freeing it is charged to the
        // layer that used it last.
        let (tunnels, degraded) = layers.call("core.extract", || {
            let out = extract(&traces);
            drop(traces);
            out
        });
        ingest.input += tunnels.len();
        let attributed = layers.call("core.attribute", || {
            let attributed = attribute_and_filter(&tunnels, rib);
            drop(tunnels);
            attributed
        });
        ingest.after_incomplete += attributed.after_incomplete;
        ingest.after_intra_as += attributed.after_intra_as;
        ingest.lsps.extend(attributed.lsps);
        ingest.degraded.merge(&degraded);
    }
    counts.resident = layers.aside("mem.sample", procfs::resident_self);
    drop(corpus);
    back_half(
        layers,
        &pipeline(),
        ingest,
        PersistenceWindow::Spilled(&inputs.spilled),
    )
    .map_err(|e| e.to_string())
}

/// Decodes every trace record of one file with the streaming reader.
fn decode_traces(bytes: &[u8]) -> Result<Vec<warts::TraceRecord>, String> {
    let mut reader = warts::WartsStreamReader::new(bytes);
    let mut out = Vec::new();
    while let Some(record) = reader.next_record().map_err(|e| format!("decode: {e:?}"))? {
        if let warts::Record::Trace(t) = record {
            out.push(t);
        }
    }
    Ok(out)
}

/// Looks up every responding hop address; returns the lookup count.
fn lookup_sweep(traces: &[Trace], rib: &ip2as::Ip2AsTrie) -> u64 {
    let mut n = 0u64;
    for hop in traces.iter().flat_map(|t| &t.hops) {
        if let Some(addr) = hop.addr {
            std::hint::black_box(rib.lookup(std::hint::black_box(addr)));
            n += 1;
        }
    }
    n
}

/// Item counts of one traced op, the bases of its per-item ratios.
#[derive(Default)]
struct Counts {
    records: u64,
    traces: u64,
    bytes: u64,
    lookups: u64,
    /// Resident split with the whole corpus mapped and every LSP held.
    resident: Option<procfs::Resident>,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = args.data_dir();
    let mut setup_s = Vec::new();
    let mut held_out_ok = false;
    for rep in 0..SETUP_REPS {
        let seed = if rep == 0 {
            args.held_out_seed()
        } else {
            args.seed
        };
        let (inputs, secs) = timed(|| setup(&dir, seed));
        let inputs = inputs?;
        setup_s.push(secs);
        if rep == 0 {
            let rib = load_rib(&inputs.rib)?;
            held_out_ok =
                op(&inputs, &rib).is_ok_and(|(out, _)| fingerprint(&out) == inputs.expect);
        }
    }
    let mut outcome = spawn_worker(args)?;
    outcome.checks_ok &= held_out_ok;
    put_median(&mut outcome.values, "setup_s", &setup_s);
    outcome
        .notes
        .push(("held_out_passed".into(), JsonValue::Bool(held_out_ok)));
    Ok(outcome)
}

pub fn worker(args: &Args) -> Result<Outcome, String> {
    let inputs = read_job(&args.data_dir())?;
    let rib = load_rib(&inputs.rib)?;
    let untraced_budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    // Each op is checked as it finishes, so no output outlives its op.
    let runs = repeat(untraced_budget, || {
        let (result, secs) = timed(|| op(&inputs, &rib));
        (
            result.map(|(out, traces)| (fingerprint(&out) == inputs.expect, traces)),
            secs,
        )
    });
    let mut attempted = runs.len() as u64;
    let mut failed = 0u64;
    let mut series = Series::new();
    for (result, secs) in &runs {
        match result {
            Ok((true, traces)) => {
                let rate = *traces as f64 / secs;
                // One trace per (vp, dst) pair in an exhaustive corpus.
                push_all(
                    &mut series,
                    [
                        ("freshness_p50_ms", secs * 1e3),
                        ("traces_per_s", rate),
                        ("pairs_per_s", rate),
                    ],
                );
            }
            Ok(_) => failed += 1,
            Err(e) => {
                eprintln!("ark-cycle op: {e}");
                failed += 1;
            }
        }
    }
    if args.trace {
        let untraced = series
            .get("freshness_p50_ms")
            .and_then(|s| stats::median(s))
            .unwrap_or(f64::NAN);
        let tracer = lpr_obs::Tracer::new(lpr_obs::Level::Info);
        let traced = repeat(args.seconds - untraced_budget, || {
            alloc::reset_peak();
            let mut layers = Layers::start(&tracer, "ark-cycle");
            let mut counts = Counts::default();
            let out = traced_op(&mut layers, &inputs, &rib, &mut counts);
            let costs = layers.finish();
            let samples = out.map(|out| {
                (fingerprint(&out) == inputs.expect)
                    .then(|| layer_values(&costs, &counts, &out, untraced))
            });
            (samples, counts.resident, alloc::heap_peak())
        });
        for (samples, resident, heap) in traced {
            attempted += 1;
            match samples {
                Ok(Some(samples)) => {
                    push_all(&mut series, samples);
                    push_memory(&mut series, resident, heap);
                }
                Ok(None) => failed += 1,
                Err(e) => {
                    eprintln!("ark-cycle traced op: {e}");
                    failed += 1;
                }
            }
        }
        crate::write_trace(&tracer, &args.trace_path())?;
    }
    let mut values = Values::new();
    put_medians(&mut values, &series);
    let peak = procfs::peak_rss_mb(std::process::id()).ok_or("VmHWM unreadable")?;
    put(&mut values, "peak_rss_mb", peak, 1);
    Ok(Outcome {
        attempted,
        failed,
        checks_ok: true,
        values,
        notes: Vec::new(),
    })
}

fn layer_values(
    costs: &OpCosts,
    counts: &Counts,
    out: &PipelineOutput,
    untraced_ms: f64,
) -> Vec<(&'static str, f64)> {
    let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    let traces = counts.traces;
    let decode = costs.leaf("warts.decode");
    let lookup = costs.aside("ip2as.lookup");
    vec![
        ("corpus.open_ms", costs.leaf("corpus.open").ms),
        (
            "corpus.index_allocs_per_record",
            per(costs.leaf("corpus.open").allocs, counts.records),
        ),
        ("corpus.records", counts.records as f64),
        ("warts.traces", traces as f64),
        ("warts.decode_ms", decode.ms),
        (
            "warts.decode_mb_per_s",
            counts.bytes as f64 / 1e6 / (decode.ms / 1e3),
        ),
        ("warts.decode_allocs_per_trace", per(decode.allocs, traces)),
        ("warts.convert_ms", costs.leaf("warts.convert").ms),
        (
            "warts.convert_allocs_per_trace",
            per(costs.leaf("warts.convert").allocs, traces),
        ),
        ("core.extract_ms", costs.leaf("core.extract").ms),
        (
            "core.extract_allocs_per_trace",
            per(costs.leaf("core.extract").allocs, traces),
        ),
        ("core.attribute_ms", costs.leaf("core.attribute").ms),
        (
            "ip2as.lookup_ns",
            lookup.ms * 1e6 / counts.lookups.max(1) as f64,
        ),
        ("ip2as.lookups", counts.lookups as f64),
        ("core.diversity_ms", costs.leaf("core.diversity").ms),
        ("core.persistence_ms", costs.leaf("core.persistence").ms),
        ("core.classify_ms", costs.leaf("core.classify").ms),
        (
            "core.classify_allocs_per_iotp",
            per(costs.leaf("core.classify").allocs, out.iotps.len() as u64),
        ),
        ("core.lsps_in", out.report.input as f64),
        ("core.iotps", out.iotps.len() as f64),
        ("unattributed_ms", costs.unattributed_ms()),
        ("op.traced_ms", costs.total_ms),
        ("op.untraced_ms", untraced_ms),
        ("trace_overhead_ratio", costs.total_ms / untraced_ms),
    ]
}
