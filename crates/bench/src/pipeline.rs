use crate::{
    campaign_fingerprint, counting_alloc, probe_ceiling_breached, probing_json, say_budget,
    sweep_json, usage_error, AT_LEAST_1, CAMPAIGN_THREADS,
};
use lpr_core::pipeline::Pipeline;
use lpr_core::prelude::*;
use lpr_obs::args::{self, Arg, ArgError, TraceOut};
use lpr_obs::json::JsonValue;
use lpr_obs::Recorder;
use std::io::Write;
use std::net::Ipv4Addr;

/// Default sweep: powers of two from 1 up to the machine's available
/// parallelism, always reaching at least 4 so the identity check has a
/// multi-threaded point even on small runners.
fn default_sweep() -> Vec<usize> {
    let max = lpr_par::available_threads().max(4);
    let mut ns = vec![1usize];
    while *ns.last().expect("non-empty") * 2 <= max {
        let next = ns.last().expect("non-empty") * 2;
        ns.push(next);
    }
    ns
}

fn parse_sweep(spec: &str) -> Result<Vec<usize>, String> {
    let mut ns: Vec<usize> = Vec::new();
    for part in spec.split(',') {
        let n: usize = part.trim().parse().map_err(|e| format!("`{part}`: {e}"))?;
        if n == 0 {
            return Err("wants thread counts >= 1".to_string());
        }
        ns.push(n);
    }
    ns.sort_unstable();
    ns.dedup();
    if ns.first() != Some(&1) {
        ns.insert(0, 1); // the sequential reference is always swept
    }
    Ok(ns)
}

/// This process's peak resident set size in bytes (Linux `VmHWM`), or
/// `None` off Linux / when the parse fails.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Resets the kernel's RSS high-water mark (`echo 5 >
/// /proc/self/clear_refs`) so the next [`peak_rss_bytes`] reading
/// covers only the phase that follows. `false` when unsupported.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Satellite self-check for the zero-copy decode of `Unsupported`
/// record bodies: decodes one large unknown-type record with and
/// without `elide_unsupported_bodies`, measuring allocated bytes via
/// the counting allocator. Eliding must remove the body-sized copy —
/// the kept-body pass has to allocate at least half a body more than
/// the elided pass. Returns the JSON verdict and whether it held.
fn unsupported_elide_check() -> (JsonValue, bool) {
    const BODY: usize = 4 << 20;
    let mut bytes = Vec::with_capacity(8 + BODY);
    bytes.extend_from_slice(&0x1205u16.to_be_bytes()); // warts magic
    bytes.extend_from_slice(&0x00F0u16.to_be_bytes()); // unknown type
    bytes.extend_from_slice(&(BODY as u32).to_be_bytes());
    bytes.resize(8 + BODY, 0x5a);

    let decode = |elide: bool| -> u64 {
        let mut reader = warts::WartsStreamReader::new(bytes.as_slice());
        if elide {
            reader = reader.elide_unsupported_bodies();
        }
        let before = counting_alloc::bytes();
        while let Ok(Some(_)) = reader.next_record() {}
        counting_alloc::bytes() - before
    };
    let kept = decode(false);
    let elided = decode(true);
    let ok = kept.saturating_sub(elided) >= BODY as u64 / 2;
    let verdict = JsonValue::Object(vec![
        ("body_bytes".to_string(), JsonValue::Int(BODY as i128)),
        ("kept_alloc_bytes".to_string(), JsonValue::Int(kept as i128)),
        ("elided_alloc_bytes".to_string(), JsonValue::Int(elided as i128)),
        ("ok".to_string(), JsonValue::Bool(ok)),
    ]);
    (verdict, ok)
}

/// Thread counts every out-of-core ingest is verified at; byte-identical
/// `PipelineOutput` across all of them is part of the acceptance bar.
const INGEST_THREADS: [usize; 4] = [1, 2, 4, 8];

/// How many files a corpus cycle is split across: one per ~100K traces,
/// at least 4 so multi-file sharding is always exercised.
fn corpus_file_count(traces: usize) -> usize {
    (traces / 100_000).clamp(4, 64)
}

/// The measurements of one out-of-core ingest phase, rendered under
/// `"ingest"` in the report.
struct IngestStats {
    scale: usize,
    threads: usize,
    corpus_files: u64,
    corpus_bytes: u64,
    corpus_records: u64,
    traces: u64,
    lsps_in: u64,
    wall_us: u64,
    spilled_window: bool,
    matches_all: bool,
    peak_rss: Option<u64>,
    peak_heap: u64,
}

impl IngestStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("scale".to_string(), JsonValue::Int(self.scale as i128)),
            ("threads".to_string(), JsonValue::Int(self.threads as i128)),
            (
                "threads_checked".to_string(),
                JsonValue::Array(
                    INGEST_THREADS.iter().map(|&n| JsonValue::Int(n as i128)).collect(),
                ),
            ),
            ("corpus_files".to_string(), JsonValue::Int(self.corpus_files as i128)),
            ("corpus_bytes".to_string(), JsonValue::Int(self.corpus_bytes as i128)),
            ("corpus_records".to_string(), JsonValue::Int(self.corpus_records as i128)),
            ("traces".to_string(), JsonValue::Int(self.traces as i128)),
            ("lsps_in".to_string(), JsonValue::Int(self.lsps_in as i128)),
            ("wall_us".to_string(), JsonValue::Int(self.wall_us as i128)),
            ("traces_per_s".to_string(), JsonValue::Float(self.per_s(self.traces))),
            ("bytes_per_s".to_string(), JsonValue::Float(self.per_s(self.corpus_bytes))),
            ("spilled_window".to_string(), JsonValue::Bool(self.spilled_window)),
            ("matches_across_threads".to_string(), JsonValue::Bool(self.matches_all)),
            (
                "peak_resident_bytes".to_string(),
                match self.peak_rss {
                    Some(b) => JsonValue::Int(b as i128),
                    None => JsonValue::Null,
                },
            ),
            ("peak_heap_bytes".to_string(), JsonValue::Int(self.peak_heap as i128)),
        ])
    }

    /// `items` per second of the measured ingest run (its wall is at
    /// least 1 µs).
    fn per_s(&self, items: u64) -> f64 {
        items as f64 / (self.wall_us as f64 / 1e6)
    }

    fn say(&self) {
        say!(
            "out-of-core ingest: {} traces over {} files ({} bytes), {} LSPs in, \
             {} us, {:.0} traces/s, {:.0} bytes/s",
            self.traces,
            self.corpus_files,
            self.corpus_bytes,
            self.lsps_in,
            self.wall_us,
            self.per_s(self.traces),
            self.per_s(self.corpus_bytes),
        );
        match self.peak_rss {
            Some(b) => {
                say!(
                    "  ingest-phase peak: {b} resident bytes, {} live-heap bytes",
                    self.peak_heap
                );
            }
            None => {
                say!(
                    "  ingest-phase peak: resident bytes unavailable, {} live-heap bytes",
                    self.peak_heap
                );
            }
        }
        say!(
            "  thread identity {:?}: {}",
            INGEST_THREADS,
            if self.matches_all { "output identical" } else { "OUTPUT DIVERGED" },
        );
    }
}

/// Applies `--mem-ceiling-bytes` to an ingest phase's peak RSS.
/// Returns `true` when the ceiling was breached (the run must fail).
fn ceiling_breached(stats: &IngestStats, ceiling: Option<u64>) -> bool {
    let Some(ceiling) = ceiling else { return false };
    match stats.peak_rss {
        Some(peak) if peak > ceiling => {
            eprintln!(
                "FAIL: ingest-phase peak resident bytes {peak} exceed the \
                 --mem-ceiling-bytes {ceiling}"
            );
            true
        }
        Some(_) => false,
        None => {
            eprintln!(
                "warning: --mem-ceiling-bytes skipped: no resettable RSS \
                 high-water mark on this kernel"
            );
            false
        }
    }
}

/// `pipeline`'s flags. The demo-scale run and the `--scale` run both
/// read this one struct.
struct PipelineArgs {
    out_path: String,
    snapshots: usize,
    cycle: usize,
    threads: usize,
    sweep: Option<Vec<usize>>,
    max_campaign_share: Option<f64>,
    scale: usize,
    mem_ceiling: Option<u64>,
    probing: netsim::ProbingStrategy,
    max_probes_per_dst: Option<f64>,
    trace: TraceOut,
}

impl PipelineArgs {
    fn parse(args: &[String]) -> Result<PipelineArgs, ArgError> {
        let mut p = PipelineArgs {
            out_path: "BENCH_pipeline.json".to_string(),
            snapshots: 3,
            cycle: 40,
            threads: 1,
            sweep: None,
            max_campaign_share: None,
            scale: 1,
            mem_ceiling: None,
            probing: netsim::ProbingStrategy::Exhaustive,
            max_probes_per_dst: None,
            trace: TraceOut::default(),
        };
        args::each(args, |arg, a| {
            match arg {
                Arg::Flag("--out") => p.out_path = a.value()?,
                Arg::Flag("--snapshots") => p.snapshots = a.parse_where(|n| *n >= 1, AT_LEAST_1)?,
                Arg::Flag("--cycle") => p.cycle = a.parse()?,
                Arg::Flag("--threads") => p.threads = a.parse_where(|n| *n >= 1, AT_LEAST_1)?,
                Arg::Flag("--threads-sweep") => {
                    // Optional value: a comma-separated thread-count list.
                    let listed =
                        a.peek().is_some_and(|v| v.starts_with(|c: char| c.is_ascii_digit()));
                    p.sweep = Some(if listed {
                        parse_sweep(&a.value()?).map_err(|e| a.error(e))?
                    } else {
                        default_sweep()
                    });
                }
                Arg::Flag("--max-campaign-share") => {
                    let share =
                        a.parse_where(|f| *f > 0.0 && *f <= 1.0, "wants a fraction in (0, 1]")?;
                    p.max_campaign_share = Some(share);
                }
                Arg::Flag("--scale") => p.scale = a.parse_where(|n| *n >= 1, AT_LEAST_1)?,
                Arg::Flag("--mem-ceiling-bytes") => p.mem_ceiling = Some(a.parse()?),
                Arg::Flag("--probing") => {
                    let v = a.value()?;
                    p.probing = netsim::ProbingStrategy::parse(&v).ok_or_else(|| {
                        a.error(format!("`{v}` is not a strategy (exhaustive|mda|mda-lite)"))
                    })?;
                }
                Arg::Flag("--max-probes-per-dst") => {
                    let max = a.parse_where(|f| *f > 0.0, "wants a positive number")?;
                    p.max_probes_per_dst = Some(max);
                }
                Arg::Flag(flag) if p.trace.accept(flag, a)? => {}
                _ => return Err(a.unknown()),
            }
            Ok(())
        })?;
        if p.scale > 1 && p.sweep.is_some() {
            return Err(ArgError(
                "--threads-sweep is demo-scale only; drop it or use --scale 1".to_string(),
            ));
        }
        Ok(p)
    }
}

/// What one `pipeline` run measured, on either path: the demo-scale
/// run or the `--scale` run. [`pipeline`] gates, reports and prints it.
struct PipelineRun {
    /// The instrumented run's output.
    out: lpr_core::pipeline::PipelineOutput,
    /// Traces the instrumented run ingested.
    traces: u64,
    /// The campaign's probe budget.
    budget: netsim::ProbeBudget,
    /// The out-of-core ingest phase.
    ingest: IngestStats,
    /// Pipeline sweep `(threads, matches_sequential)` rows.
    sweep_rows: Vec<(usize, bool)>,
    /// Campaign sweep `(threads, matches_sequential)` rows.
    campaign_rows: Vec<(usize, bool)>,
    /// Golden-fingerprint verdict; `None` when the shape was non-default
    /// and the check did not run.
    golden: Option<bool>,
    /// Whether any output diverged from its reference.
    diverged: bool,
}

pub(crate) fn pipeline(args: &[String]) -> i32 {
    let p = match PipelineArgs::parse(args) {
        Ok(p) => p,
        Err(e) => return usage_error(e),
    };
    let tracer = p.trace.tracer();
    let recorder = Recorder::new("lpr-bench pipeline").with_tracer(tracer.clone());
    let run_span =
        tracer.span(if p.scale > 1 { "run:bench-pipeline-scaled" } else { "run:bench-pipeline" });
    tracer.set_default_parent(run_span.context());
    netsim::igp::spf_cache_reset();
    let run = if p.scale > 1 {
        pipeline_scaled(&p, &recorder)
    } else {
        pipeline_demo(&p, &recorder)
    };
    let mut run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };

    // Zero-copy Unsupported decode: eliding bodies must remove the
    // body-sized allocation (measured after the ingest-phase peak
    // readings so the check's own buffers stay out of them).
    let (elide_verdict, elide_ok) = unsupported_elide_check();
    if !elide_ok {
        eprintln!(
            "FAIL: eliding Unsupported bodies did not remove the body-sized \
             decode allocation"
        );
        run.diverged = true;
    }

    let telemetry = recorder.finish();

    // CI perf tripwire: GenerateCampaign's share of total stage time.
    // Per-worker rows ("worker0/Ingest", ...) re-count time already in
    // their parent stage, so only top-level stages enter the sum.
    let campaign_share = {
        let total: u64 = telemetry
            .stages
            .iter()
            .filter(|s| !s.name.contains('/'))
            .map(|s| s.wall_us)
            .sum();
        let campaign = telemetry
            .stages
            .iter()
            .find(|s| s.name == "GenerateCampaign")
            .map_or(0, |s| s.wall_us);
        campaign as f64 / total.max(1) as f64
    };
    let mut share_exceeded = false;
    if let Some(ceiling) = p.max_campaign_share {
        share_exceeded = campaign_share > ceiling;
        if share_exceeded {
            eprintln!(
                "FAIL: GenerateCampaign takes {:.1}% of stage wall time \
                 (ceiling {:.1}%)",
                campaign_share * 100.0,
                ceiling * 100.0,
            );
        }
    }
    let mem_breached = ceiling_breached(&run.ingest, p.mem_ceiling);
    let probes_exceeded = probe_ceiling_breached(&run.budget, p.max_probes_per_dst);

    let report = render_report(&telemetry, &run, &p, campaign_share, elide_verdict);
    if let Err(e) = std::fs::write(&p.out_path, &report) {
        eprintln!("{}: {e}", p.out_path);
        return 1;
    }

    say!(
        "{} traces, {} LSPs in, {} IOTPs classified, {} thread(s)",
        run.traces,
        run.out.report.input,
        run.out.iotps.len(),
        telemetry.threads,
    );
    say!(
        "GenerateCampaign share of stage wall time: {:.1}%",
        campaign_share * 100.0
    );
    for &(n, matches) in &run.sweep_rows {
        say!(
            "  pipeline threads={n:<3} {}",
            if matches { "output identical" } else { "OUTPUT DIVERGED" },
        );
    }
    for &(n, matches) in &run.campaign_rows {
        say!(
            "  campaign threads={n:<3} {}",
            if matches { "bytes identical" } else { "BYTES DIVERGED" },
        );
    }
    if let Some(matches) = run.golden {
        say!("golden campaign fingerprint: {}", if matches { "match" } else { "MISMATCH" });
    }
    say_budget(p.probing, &run.budget);
    run.ingest.say();
    say!(
        "unsupported-body elide: {}",
        if elide_ok { "zero-copy (body-sized allocation removed)" } else { "COPY SURVIVED" }
    );
    let (hits, misses) = netsim::Internet::spf_cache_stats();
    say!(
        "spf cache: {hits} hits / {misses} misses ({:.0}% hit rate)",
        100.0 * hits as f64 / (hits + misses).max(1) as f64
    );
    say!("wrote {}", p.out_path);
    tracer.set_default_parent(lpr_obs::SpanContext::ROOT);
    drop(run_span);
    if let Err(e) = p.trace.write(&tracer) {
        eprintln!("{e}");
        return 1;
    }
    if run.diverged {
        eprintln!("determinism self-check failed");
        return 1;
    }
    if share_exceeded || mem_breached || probes_exceeded {
        return 1;
    }
    0
}

/// The demo-scale run: the longitudinal world at one cycle, encoded
/// and decoded through warts, the pipeline at `--threads` (or swept),
/// the campaign sweep and golden check under `--threads-sweep`, and the
/// out-of-core leg over the same cycle.
fn pipeline_demo(p: &PipelineArgs, recorder: &Recorder) -> Result<PipelineRun, String> {
    let tracer = recorder.tracer();
    let mut diverged = false;

    // Demo-scale campaign: the longitudinal world at one cycle, with
    // enough extra snapshots to feed the Persistence filter.
    let campaign_span = tracer.span("stage:GenerateCampaign");
    let sw = lpr_obs::Stopwatch::start();
    let world = ark_dataset::standard_world();
    let opts = ark_dataset::CampaignOptions {
        snapshots: p.snapshots,
        probing: p.probing,
        ..Default::default()
    };
    let data = ark_dataset::generate_cycle(&world, p.cycle, &opts);
    let traces = &data.snapshots[0];
    drop(campaign_span);
    recorder.record_stage("GenerateCampaign", sw.elapsed_us(), 0, traces.len() as u64);

    // Golden self-check: at the default campaign shape, the encoded
    // bytes must match the fingerprint captured before the dense-SPF /
    // probe-ladder / parallel-probing rewrite. Any drift means the
    // optimisations changed observable output and the run fails.
    let golden_checked = p.cycle == 40
        && p.snapshots == 3
        && p.sweep.is_some()
        && p.probing == netsim::ProbingStrategy::Exhaustive;
    let golden = golden_checked.then(|| {
        let fp = campaign_fingerprint(&data.snapshots);
        if fp != GOLDEN_CAMPAIGN_FNV {
            eprintln!(
                "FAIL: campaign fingerprint {fp:#018x} != pinned golden \
                 {GOLDEN_CAMPAIGN_FNV:#018x}"
            );
            diverged = true;
        }
        fp == GOLDEN_CAMPAIGN_FNV
    });

    // Round-trip through the warts codec so the pipeline ingests real
    // decoded records, tallied by the stream reader itself.
    let encode_span = tracer.span("stage:WartsEncode");
    let sw = lpr_obs::Stopwatch::start();
    let mut writer = warts::WartsWriter::new();
    let list = writer.list(1, "bench");
    let cyc = writer.cycle_start(list, 1, 0);
    for t in traces {
        writer.trace(&warts::trace_to_record(t, list, cyc));
    }
    writer.cycle_stop(cyc, 1);
    let bytes = writer.into_bytes();
    drop(encode_span);
    recorder.record_stage(
        "WartsEncode",
        sw.elapsed_us(),
        traces.len() as u64,
        bytes.len() as u64,
    );

    let decode_span = tracer.span("stage:WartsDecode");
    let sw = lpr_obs::Stopwatch::start();
    let metrics = warts::StreamMetrics::from_recorder(recorder);
    let mut decoded = Vec::new();
    let mut reader = warts::WartsStreamReader::new(bytes.as_slice()).with_metrics(metrics);
    let mut trace = Trace::new(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED);
    while let Some(step) =
        reader.next_trace_into(&mut trace).map_err(|e| format!("warts decode failed: {e}"))?
    {
        if let warts::Decoded::Trace = step {
            decoded.push(trace.clone());
        }
    }
    drop(decode_span);
    recorder.record_stage(
        "WartsDecode",
        sw.elapsed_us(),
        bytes.len() as u64,
        decoded.len() as u64,
    );

    // The pipeline proper: the Persistence future-key computation plus
    // the full filter/classify run — every stage the `--threads` knob
    // shards.
    let run_with = |threads: usize, rec: Option<&Recorder>| {
        let future: Vec<_> = data.snapshots[1..]
            .iter()
            .map(|t| Pipeline::snapshot_keys_par(t, threads))
            .collect();
        let pipeline = Pipeline::new(FilterConfig {
            persistence_window: future.len(),
            ..Default::default()
        });
        pipeline.run_par(&decoded, world.rib(), &future, threads, rec)
    };

    // Sweep mode: verify every thread count's output is byte-identical
    // to the sequential run's.
    let mut threads = p.threads;
    let mut sweep_rows: Vec<(usize, bool)> = Vec::new();
    let mut seq_out = None;
    if let Some(ns) = &p.sweep {
        let reference = run_with(1, None);
        for &n in ns {
            let matches = n == 1 || run_with(n, None) == reference;
            if !matches {
                eprintln!("FAIL: --threads {n} output diverges from the sequential run");
                diverged = true;
            }
            sweep_rows.push((n, matches));
        }
        threads = ns.last().copied().unwrap_or(1);
        seq_out = Some(reference);
    }

    // Campaign thread-sweep: regenerate the cycle at each probing
    // thread count. The shard-order merge in `campaign_par` makes the
    // traces byte-identical for any count — verified here against the
    // sequential campaign generated above.
    let mut campaign_rows: Vec<(usize, bool)> = Vec::new();
    if p.sweep.is_some() {
        for n in CAMPAIGN_THREADS {
            let copts = ark_dataset::CampaignOptions { threads: n, ..opts.clone() };
            let d = ark_dataset::generate_cycle(&world, p.cycle, &copts);
            let matches = d.snapshots == data.snapshots;
            if !matches {
                eprintln!(
                    "FAIL: campaign at {n} probing thread(s) diverges from the \
                     sequential campaign"
                );
                diverged = true;
            }
            campaign_rows.push((n, matches));
        }
    }

    // The instrumented run (at the sweep's top thread count, or
    // `--threads`): its telemetry is what lands in the report.
    let out = run_with(threads, Some(recorder));
    if let Some(reference) = &seq_out {
        if out != *reference {
            eprintln!("FAIL: instrumented --threads {threads} output diverges");
            diverged = true;
        }
    }

    // Out-of-core corpus stages + byte-identity self-check: the same
    // cycle through mmap'd multi-file ingest must reproduce the
    // in-memory pipeline exactly, at every thread count, with both
    // persistence-window representations.
    let (ingest, ooc_diverged) =
        out_of_core_demo(recorder, &world, &data.snapshots, &decoded, threads)?;
    Ok(PipelineRun {
        out,
        traces: decoded.len() as u64,
        budget: data.budget,
        ingest,
        sweep_rows,
        campaign_rows,
        golden,
        diverged: diverged || ooc_diverged,
    })
}

/// The demo-scale out-of-core leg of `lpr-bench pipeline`: writes the
/// decoded cycle as a multi-file corpus, indexes it (cold, then cached),
/// spills the persistence window, and verifies that the out-of-core
/// pipeline reproduces the in-memory pipeline byte-for-byte at every
/// [`INGEST_THREADS`] count — with the in-memory window — and at
/// `threads` with the spilled window (the instrumented, measured run).
/// Returns the phase's measurements and whether anything diverged.
fn out_of_core_demo(
    recorder: &Recorder,
    world: &ark_dataset::World,
    snapshots: &[Vec<lpr_core::trace::Trace>],
    decoded: &[lpr_core::trace::Trace],
    threads: usize,
) -> Result<(IngestStats, bool), String> {
    use lpr_core::pipeline::PersistenceWindow;
    use lpr_core::spill::KeySpiller;

    let tracer = recorder.tracer();
    let tmp = std::env::temp_dir().join(format!("lpr-bench-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let mut diverged = false;

    let span = tracer.span("stage:CorpusWrite");
    let sw = lpr_obs::Stopwatch::start();
    let paths =
        lpr_corpus::write_corpus_files(&tmp, "bench", decoded, corpus_file_count(decoded.len()))
            .map_err(|e| format!("corpus write: {e}"))?;
    drop(span);
    let written: u64 =
        paths.iter().filter_map(|p| std::fs::metadata(p).ok()).map(|m| m.len()).sum();
    recorder.record_stage("CorpusWrite", sw.elapsed_us(), decoded.len() as u64, written);

    // Open twice: the first open builds and caches every `.lpridx`, the
    // second must hit all of them — both land in the corpus.* counters,
    // so a cache-staleness regression shows up as an index_hits drift.
    let span = tracer.span("stage:IndexBuild");
    let sw = lpr_obs::Stopwatch::start();
    let cold = lpr_corpus::Corpus::open_with(&paths, true, Some(recorder))
        .map_err(|e| format!("corpus index build: {e}"))?;
    drop(cold);
    let corpus = lpr_corpus::Corpus::open_with(&paths, true, Some(recorder))
        .map_err(|e| format!("corpus index reload: {e}"))?;
    drop(span);
    recorder.record_stage("IndexBuild", sw.elapsed_us(), paths.len() as u64, corpus.total_records());

    // The in-memory reference runs over the traces loaded back from the
    // corpus itself, so the comparison isolates the ingest machinery
    // from the (already golden-checked) encode round-trip.
    let (ref_traces, _cf) = lpr_corpus::ingest::load_traces(&corpus);
    let future: Vec<_> =
        snapshots[1..].iter().map(|t| Pipeline::snapshot_keys_par(t, 1)).collect();
    let pl = Pipeline::new(FilterConfig {
        persistence_window: future.len(),
        ..Default::default()
    });
    let reference = pl.run_par(&ref_traces, world.rib(), &future, 1, None);
    drop(ref_traces);

    // The same future keys, as sorted on-disk spill files.
    let spill_dir = tmp.join("spill");
    let mut spilled = Vec::new();
    for (i, keys) in future.iter().enumerate() {
        let mut sp = KeySpiller::new(&spill_dir, &format!("next{i}"))
            .map_err(|e| format!("key spill: {e}"))?;
        for key in keys {
            sp.push(key).map_err(|e| format!("key spill: {e}"))?;
        }
        spilled.push(sp.finish().map_err(|e| format!("key spill: {e}"))?);
    }

    // Identity sweep: out-of-core ingest at every thread count, against
    // the in-memory persistence window.
    for &n in &INGEST_THREADS {
        let (ingest, _rep) = lpr_corpus::ingest_cycle(
            &corpus,
            world.rib(),
            lpr_corpus::IngestOptions::new(n),
            None,
        );
        let o = pl
            .finish_stages_windowed(
                ingest,
                PersistenceWindow::Mem(&future),
                None,
                lpr_par::ShardOptions::new(n),
            )
            .map_err(|e| format!("out-of-core pipeline: {e}"))?;
        if o != reference {
            eprintln!(
                "FAIL: out-of-core ingest at {n} thread(s) diverges from the \
                 in-memory pipeline"
            );
            diverged = true;
        }
    }

    // The measured run: spilled window, `threads` workers, counters on.
    counting_alloc::heap_reset_peak();
    let rss_reset = reset_peak_rss();
    let span = tracer.span("stage:OutOfCoreIngest");
    let sw = lpr_obs::Stopwatch::start();
    let (ingest, _rep) = lpr_corpus::ingest_cycle(
        &corpus,
        world.rib(),
        lpr_corpus::IngestOptions::new(threads),
        Some(recorder),
    );
    let o = pl
        .finish_stages_windowed(
            ingest,
            PersistenceWindow::Spilled(&spilled),
            None,
            lpr_par::ShardOptions::new(threads),
        )
        .map_err(|e| format!("out-of-core pipeline: {e}"))?;
    let wall = sw.elapsed_us().max(1);
    drop(span);
    recorder.record_stage("OutOfCoreIngest", wall, corpus.total_traces(), o.report.input as u64);
    if o != reference {
        eprintln!(
            "FAIL: out-of-core ingest with the spilled persistence window \
             diverges from the in-memory pipeline"
        );
        diverged = true;
    }

    let stats = IngestStats {
        scale: 1,
        threads,
        corpus_files: paths.len() as u64,
        corpus_bytes: corpus.total_bytes(),
        corpus_records: corpus.total_records(),
        traces: corpus.total_traces(),
        lsps_in: o.report.input as u64,
        wall_us: wall,
        spilled_window: true,
        matches_all: !diverged,
        peak_rss: if rss_reset { peak_rss_bytes() } else { None },
        peak_heap: counting_alloc::heap_peak(),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    Ok((stats, diverged))
}

/// The paper-scale flow (`--scale` > 1): the cycle never exists in
/// memory as a whole. Each snapshot is generated, persisted (snapshot 0
/// becomes the multi-file corpus; later snapshots spill their LSP keys
/// to sorted files) and dropped; the pipeline then runs purely
/// out-of-core, with the 1/2/4/8 thread identity check against the run
/// at `--threads` and the ingest-phase peak-memory accounting.
fn pipeline_scaled(p: &PipelineArgs, recorder: &Recorder) -> Result<PipelineRun, String> {
    use lpr_core::pipeline::PersistenceWindow;
    use lpr_core::spill::KeySpiller;

    let tracer = recorder.tracer();
    let mut diverged = false;

    let tmp = std::env::temp_dir().join(format!("lpr-bench-scale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let spill_dir = tmp.join("spill");

    let world = ark_dataset::scaled_world(p.scale);
    let copts = ark_dataset::CampaignOptions {
        snapshots: p.snapshots,
        hosts_per_prefix: ark_dataset::scale_hosts_per_prefix(p.scale),
        threads: p.threads,
        probing: p.probing,
        ..Default::default()
    };
    say!(
        "scaled campaign: scale {}, {} VPs, {} prefixes, {} hosts/prefix",
        p.scale,
        world.all_vps().len(),
        world.all_destinations(1).len(),
        copts.hosts_per_prefix,
    );

    // Generate-and-persist, one snapshot resident at a time.
    let mut campaign_wall = 0u64;
    let mut write_wall = 0u64;
    let mut spill_wall = 0u64;
    let mut total_traces = 0u64;
    let mut cycle_traces = 0u64;
    let mut paths = Vec::new();
    let mut spilled = Vec::new();
    let mut spilled_keys_total = 0u64;
    let mut budget = netsim::ProbeBudget::default();
    for snap in 0..p.snapshots {
        let span = tracer.span(format!("snapshot:{snap}"));
        let sw = lpr_obs::Stopwatch::start();
        let (traces, snap_budget) =
            ark_dataset::generate_snapshot_with_budget(&world, p.cycle, snap, &copts);
        budget.merge(&snap_budget);
        campaign_wall += sw.elapsed_us();
        total_traces += traces.len() as u64;
        if snap == 0 {
            let sw = lpr_obs::Stopwatch::start();
            cycle_traces = traces.len() as u64;
            paths = lpr_corpus::write_corpus_files(
                &tmp,
                "cycle",
                &traces,
                corpus_file_count(traces.len()),
            )
            .map_err(|e| format!("corpus write: {e}"))?;
            write_wall += sw.elapsed_us();
        } else {
            let sw = lpr_obs::Stopwatch::start();
            let keys = Pipeline::snapshot_keys_par(&traces, p.threads);
            let spill = (|| -> std::io::Result<_> {
                let mut sp = KeySpiller::new(&spill_dir, &format!("next{}", snap - 1))?;
                for key in &keys {
                    sp.push(key)?;
                }
                sp.finish()
            })();
            let sp = spill.map_err(|e| format!("key spill: {e}"))?;
            spilled_keys_total += sp.count;
            spilled.push(sp);
            spill_wall += sw.elapsed_us();
        }
        drop(span);
        say!("  snapshot {snap}: {} traces generated and persisted", traces.len());
    }
    let written: u64 =
        paths.iter().filter_map(|p| std::fs::metadata(p).ok()).map(|m| m.len()).sum();
    recorder.record_stage("GenerateCampaign", campaign_wall, 0, total_traces);
    recorder.record_stage("CorpusWrite", write_wall, cycle_traces, written);
    recorder.record_stage(
        "SpillFutureKeys",
        spill_wall,
        total_traces - cycle_traces,
        spilled_keys_total,
    );

    // Ingest phase: everything from here runs out-of-core, and the
    // peak-memory accounting starts here.
    counting_alloc::heap_reset_peak();
    let rss_reset = reset_peak_rss();

    let span = tracer.span("stage:IndexBuild");
    let sw = lpr_obs::Stopwatch::start();
    let corpus = lpr_corpus::Corpus::open_with(&paths, true, Some(recorder))
        .map_err(|e| format!("corpus index build: {e}"))?;
    drop(span);
    recorder.record_stage("IndexBuild", sw.elapsed_us(), paths.len() as u64, corpus.total_records());

    let pl = Pipeline::new(FilterConfig {
        persistence_window: spilled.len(),
        ..Default::default()
    });
    let run_ooc = |n: usize, rec: Option<&Recorder>| {
        let (ingest, _rep) =
            lpr_corpus::ingest_cycle(&corpus, world.rib(), lpr_corpus::IngestOptions::new(n), rec);
        pl.finish_stages_windowed(
            ingest,
            PersistenceWindow::Spilled(&spilled),
            None,
            lpr_par::ShardOptions::new(n),
        )
    };

    // The measured run at `--threads`, then the identity sweep against
    // it at every other INGEST_THREADS count.
    let span = tracer.span("stage:OutOfCoreIngest");
    let sw = lpr_obs::Stopwatch::start();
    let out = run_ooc(p.threads, Some(recorder)).map_err(|e| format!("out-of-core pipeline: {e}"))?;
    let wall = sw.elapsed_us().max(1);
    drop(span);
    recorder.record_stage("OutOfCoreIngest", wall, corpus.total_traces(), out.report.input as u64);
    for &n in &INGEST_THREADS {
        if n == p.threads {
            continue;
        }
        let o = run_ooc(n, None)
            .map_err(|e| format!("out-of-core pipeline at {n} thread(s): {e}"))?;
        if o != out {
            eprintln!(
                "FAIL: out-of-core ingest at {n} thread(s) diverges from the \
                 --threads {} run",
                p.threads
            );
            diverged = true;
        }
    }

    let ingest = IngestStats {
        scale: p.scale,
        threads: p.threads,
        corpus_files: paths.len() as u64,
        corpus_bytes: corpus.total_bytes(),
        corpus_records: corpus.total_records(),
        traces: corpus.total_traces(),
        lsps_in: out.report.input as u64,
        wall_us: wall,
        spilled_window: true,
        matches_all: !diverged,
        peak_rss: if rss_reset { peak_rss_bytes() } else { None },
        peak_heap: counting_alloc::heap_peak(),
    };
    let traces = corpus.total_traces();
    drop(corpus);
    let _ = std::fs::remove_dir_all(&tmp);
    Ok(PipelineRun {
        out,
        traces,
        budget,
        ingest,
        sweep_rows: Vec::new(),
        campaign_rows: Vec::new(),
        golden: None,
        diverged,
    })
}

/// FNV-1a fingerprint of the default-shape campaign's warts encoding,
/// captured before the dense-SPF / probe-ladder / parallel-probing
/// rewrite. Byte-for-byte equality with the old implementation is the
/// contract those optimisations must keep.
const GOLDEN_CAMPAIGN_FNV: u64 = 0x814958413857ec30;

/// The pipeline report: the run telemetry under `"telemetry"` (still
/// readable with `RunTelemetry::from_json`) plus `"campaign_share"`, the
/// SPF cache tallies, the ingest, probing and elide sections, and — when
/// the matching mode ran — `"thread_sweep"`, `"campaign_sweep"` and
/// `"golden_fingerprint"`.
fn render_report(
    telemetry: &lpr_obs::RunTelemetry,
    run: &PipelineRun,
    p: &PipelineArgs,
    campaign_share: f64,
    unsupported_elide: JsonValue,
) -> String {
    let inner = lpr_obs::json::parse(&telemetry.to_json()).expect("own JSON parses");
    let (spf_hits, spf_misses) = netsim::Internet::spf_cache_stats();
    let out = &run.out;
    let mut fields = vec![
        ("bench".to_string(), JsonValue::Str("pipeline".to_string())),
        ("iotps".to_string(), JsonValue::Int(out.iotps.len() as i128)),
        ("lsps_in".to_string(), JsonValue::Int(out.report.input as i128)),
        ("threads".to_string(), JsonValue::Int(telemetry.threads as i128)),
        ("telemetry".to_string(), inner),
        ("campaign_share".to_string(), JsonValue::Float(campaign_share)),
        (
            "spf_cache".to_string(),
            JsonValue::Object(vec![
                ("hits".to_string(), JsonValue::Int(spf_hits as i128)),
                ("misses".to_string(), JsonValue::Int(spf_misses as i128)),
                (
                    "hit_rate".to_string(),
                    JsonValue::Float(
                        spf_hits as f64 / (spf_hits + spf_misses).max(1) as f64,
                    ),
                ),
            ]),
        ),
    ];
    if !run.sweep_rows.is_empty() {
        fields.push(("thread_sweep".to_string(), sweep_json(&run.sweep_rows)));
    }
    if !run.campaign_rows.is_empty() {
        fields.push(("campaign_sweep".to_string(), sweep_json(&run.campaign_rows)));
    }
    if let Some(matches) = run.golden {
        fields.push((
            "golden_fingerprint".to_string(),
            JsonValue::Object(vec![
                (
                    "expected".to_string(),
                    JsonValue::Str(format!("{GOLDEN_CAMPAIGN_FNV:#018x}")),
                ),
                ("matches".to_string(), JsonValue::Bool(matches)),
            ]),
        ));
    }
    fields.push(("ingest".to_string(), run.ingest.to_json()));
    fields.push(("probing".to_string(), probing_json(p.probing, &run.budget)));
    fields.push(("unsupported_elide".to_string(), unsupported_elide));
    JsonValue::Object(fields).render_pretty()
}
