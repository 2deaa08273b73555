//! `lpr-bench` — the workspace benchmark harness.
//!
//! A plain binary (no `cargo bench`/Criterion dependency): it drives
//! the demo-scale pipeline through the `lpr-obs` instrumentation and
//! writes the telemetry as `BENCH_pipeline.json`, so CI and the paper's
//! Table 1 timing notes come from the same machinery as `lpr classify
//! --metrics`.
//!
//! ```text
//! lpr-bench pipeline [--out BENCH_pipeline.json] [--snapshots N] [--cycle N]
//!                    [--threads N] [--threads-sweep [1,2,4,...]] [--alloc]
//!                    [--max-campaign-share F]
//! lpr-bench help
//! ```
//!
//! `--threads-sweep` benchmarks the parallel pipeline across thread
//! counts, sweeps campaign generation across probing threads 1–8,
//! writes both speedup curves into the JSON report, and
//! **self-checks determinism**: the run fails (exit 1) if any thread
//! count produces output differing from the sequential run, or if the
//! default-shape campaign drifts from its pinned golden fingerprint.
//! `--alloc` attributes allocation counts to stages;
//! `--max-campaign-share` is the CI perf-regression tripwire.

#![deny(unsafe_code)]

use lpr_core::pipeline::Pipeline;
use lpr_core::prelude::*;
use lpr_obs::json::JsonValue;
use lpr_obs::Recorder;
use std::io::Write;
use std::net::Ipv4Addr;

/// A counting wrapper around the system allocator: two relaxed atomics
/// per allocation, read by `--alloc` to attribute allocation counts and
/// bytes to pipeline stages. Counting is always on (the overhead is
/// noise next to a malloc), reporting is opt-in.
mod counting_alloc {
    #![allow(unsafe_code)]

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);
    /// Live heap bytes (allocated minus freed); signed because a
    /// relaxed race can transiently observe a free before its alloc.
    static LIVE: AtomicI64 = AtomicI64::new(0);
    /// High-water mark of [`LIVE`] since the last [`heap_reset_peak`].
    static PEAK: AtomicI64 = AtomicI64::new(0);

    fn grow(delta: i64) {
        let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }

    /// Forwards to [`System`], tallying calls and requested bytes.
    pub struct CountingAlloc;

    // SAFETY: defers every allocation verbatim to `System`; the only
    // additions are relaxed counter increments, which allocate nothing.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            grow(layout.size() as i64);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            grow(new_size as i64 - layout.size() as i64);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// Running totals `(allocations, bytes)` since process start.
    pub fn snapshot() -> (u64, u64) {
        (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
    }

    /// Live-heap high-water mark, bytes, since [`heap_reset_peak`] (or
    /// process start).
    pub fn heap_peak() -> u64 {
        PEAK.load(Ordering::Relaxed).max(0) as u64
    }

    /// Restarts the high-water mark from the current live-heap size, so
    /// the next [`heap_peak`] reading covers only the phase that follows.
    pub fn heap_reset_peak() {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: counting_alloc::CountingAlloc = counting_alloc::CountingAlloc;

/// Prints to stdout, swallowing broken-pipe errors (`lpr-bench ... |
/// head` must not panic).
macro_rules! say {
    ($($arg:tt)*) => {
        let _ = writeln!(std::io::stdout(), $($arg)*);
    };
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(|s| s.as_str()) {
        Some("pipeline") => pipeline(&args[1..]),
        Some("mda") => mda_cmd(&args[1..]),
        Some("revelation") => revelation_cmd(&args[1..]),
        Some("chaos") => chaos(&args[1..]),
        Some("serve") => serve_soak(&args[1..]),
        Some("corrupt") => corrupt_cmd(&args[1..]),
        Some("compare") => compare_cmd(&args[1..]),
        Some("baseline") => baseline_cmd(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            say!("{USAGE}");
            0
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}`\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

const USAGE: &str = "\
lpr-bench — LPR pipeline benchmark harness

USAGE:
  lpr-bench pipeline [--out BENCH_pipeline.json] [--snapshots N] [--cycle N]
                     [--threads N] [--threads-sweep [1,2,4,...]] [--alloc]
                     [--max-campaign-share F] [--scale N]
                     [--probing exhaustive|mda|mda-lite]
                     [--max-probes-per-dst F]
                     [--mem-ceiling-bytes N] [--trace-out trace.json]
                     [--trace-level debug|info|warn|error]
  lpr-bench mda      [--out BENCH_mda.json] [--cycle N] [--hosts N]
                     [--max-probes-per-dst F]
  lpr-bench revelation [--out BENCH_revelation.json] [--cycle N]
                     [--mix explicit:F,implicit:F,invisible:F,opaque:F]
  lpr-bench chaos    [--out BENCH_chaos.json] [--seed N]
                     [--rates 0,0.02,0.05,0.1] [--snapshots N] [--cycle N]
                     [--drift-bound F] [--trace-out trace.json]
                     [--trace-level debug|info|warn|error]
  lpr-bench serve    [--cycles N] [--chaos-rate F] [--seed N] [--threads N]
                     [--out BENCH_serve.json] [--keep-spool]
  lpr-bench corrupt  <in.warts> --out <out.warts> [--rate F] [--seed N]
  lpr-bench compare  <current.json> --against <baseline.json>
                     [--threshold F] [--diff-out DIFF.json]
  lpr-bench baseline <BENCH_pipeline.json> [--out results/BENCH_baseline.json]
  lpr-bench help

`pipeline` generates the standard demo-scale campaign, round-trips it
through the warts codec, runs the full LPR pipeline under lpr-obs
instrumentation, and writes per-stage wall time plus records/sec
throughput as JSON.

`--threads N` runs the pipeline on N worker threads (default 1, the
sequential path). `--threads-sweep` runs every thread count in the
given comma-separated list (default: powers of two up to the machine's
available parallelism), records the speedup curve under
\"thread_sweep\" in the JSON report, and exits non-zero if any thread
count's output diverges from the sequential run. The sweep also
re-generates the campaign at probing thread counts 1, 2, 4 and 8
(\"campaign_sweep\"); every regeneration must be byte-identical to the
sequential campaign, and at the default --cycle/--snapshots shape the
encoded bytes must additionally match a pinned golden fingerprint
captured before the perf rewrite.

`--alloc` attributes allocation counts (calls and requested bytes,
tallied by a counting global allocator) to each stage, written under
\"allocations\" in the report.

`--max-campaign-share F` exits non-zero when GenerateCampaign takes
more than fraction F of the total stage wall time — the CI smoke
signal that campaign generation has not regressed back to dominating
the run.

`--scale N` grows the campaign towards paper scale (N=1 is the default
demo shape; larger N multiplies destinations via a wider transit core
and denser prefixes). At scale 1 the run additionally writes the cycle
as a multi-file warts corpus, builds/loads the per-file record indexes,
and re-runs the pipeline through the out-of-core mmap ingest at thread
counts 1/2/4/8, failing (exit 1) unless every run's PipelineOutput is
byte-identical to the in-memory pipeline over the same corpus (both
with the in-memory and the spilled persistence window). Past scale 1
the run never holds the cycle in memory: each snapshot is generated,
written to the corpus (snapshot 0) or spilled to sorted key files
(later snapshots), and dropped; the pipeline then runs purely
out-of-core, with the same 1/2/4/8 thread identity check against the
single-threaded out-of-core run. Either way the report gains an
\"ingest\" section with traces/sec, bytes/sec, peak resident bytes
(Linux VmHWM, reset before the ingest phase) and the live-heap
high-water mark.

`--probing` selects the campaign's probing strategy: `exhaustive`
(default — every `(vp, dst)` pair, the golden campaign shape), `mda`
or `mda-lite` (the statistical stopping rules, which prune each
`(vp, /24)` host group once further path diversity is ruled out at 95%
confidence). Every run writes a \"probing\" report section with the
strategy and probe-budget tallies (pairs probed/pruned, flows traced,
probe packets sent, probes per destination); `lpr-bench compare` holds
those tallies to strict equality. The golden-fingerprint check only
runs under the exhaustive default. `--max-probes-per-dst F` exits
non-zero when the campaign spends more than F probe packets per
requested destination — the CI tripwire that the stopping rules keep
paying for themselves.

`mda` benchmarks the stopping rules themselves: first the
probes-vs-recall curve (MDA-Lite under a sweep of flow caps against
the exhaustive oracle, per `(vp, dst)` pair — the `fig_mda_recall.csv`
series), then a full-campaign comparison at `--hosts` hosts per
destination /24: exhaustive vs MDA-Lite wall time and probe budgets,
byte-identity of the MDA-Lite campaign across probing thread counts
1/2/4/8, and the IOTP recall of the pruned campaign against the
exhaustive cycle's classified IOTP set. The report lands in `--out`
(default BENCH_mda.json) with a top-level \"passed\": IOTP recall must
reach 0.95, every thread count must agree byte-for-byte, the stopping
rule must actually save probes, and `--max-probes-per-dst` (when
given) must hold.

`revelation` gates the TNT-style tunnel-revelation phase: one cycle is
rendered under `--mix` (a tunnel-visibility mix hiding part of the
MPLS deployment; default explicit:0.4,implicit:0.2,invisible:0.2,\
opaque:0.2), the campaign runs with revelation at probing thread
counts 1/2/4/8 — traces, probe budget and revealed evidence must all
be byte-identical to the sequential run — and the cycle is analysed
twice, plain LPR vs LPR with the revealed evidence applied. The report
lands in `--out` (default BENCH_revelation.json) with a top-level
\"passed\": the IOTP count must rise, the Unclassified share must not
grow, at least one tunnel must actually be revealed, the DPR probe
overhead must be accounted, and every thread count must agree.

`--mem-ceiling-bytes N` exits non-zero when the ingest phase's peak
resident bytes exceed N — the CI guard that out-of-core stays
out-of-core. Skipped (with a warning) when the kernel does not expose
a resettable RSS high-water mark.

`chaos` sweeps seeded fault-injection rates over the same golden
campaign: each rate degrades the traces with an `lpr-chaos`
`FaultPlan`, byte-corrupts the encoded warts stream, decodes it with
the lenient reader, and runs the pipeline with quarantine enabled. The
report records, per rate, the injected faults, skipped/quarantined
tallies, class counts and the class-share drift against the rate-0
baseline. Everything derives from `--seed`, so the JSON is
byte-identical across runs and thread counts — no wall times are
recorded. Exit is non-zero if any thread count 1..8 diverges, the
kept/quarantined tallies fail to reconcile with the decoded traces, or
drift exceeds `--drift-bound` (default 0.5).

`--trace-out` (both subcommands) writes a hierarchical span trace of
the run as Chrome trace_event JSON — load it in chrome://tracing or
Perfetto, or validate it with `lpr trace-check`.

`serve` soaks the `lpr serve` daemon: it starts the daemon against a
temp spool, then drops N cycles of clean campaign files interleaved
with `--chaos-rate` byte-corrupted copies, polling the live endpoint
throughout. Exit is non-zero unless (a) the final snapshot's pipeline
section is byte-identical to the batch pipeline over the clean subset,
(b) every corrupted file lands in `spool/quarantine/` with a structured
reason file, (c) the kept/quarantined tallies reconcile exactly with
the files dropped, and (d) no request ever got a 5xx. The report goes
to `--out` (default BENCH_serve.json); `--keep-spool` leaves the spool
on disk for inspection.

`corrupt` byte-corrupts a warts file with the seeded `lpr-chaos`
corruption walk (the CI smoke helper for exercising the daemon's
quarantine path): `--rate` is the per-record corruption probability
(default 0.1), `--seed` the deterministic seed (default 1).

`compare` diffs two BENCH_pipeline.json reports: per-stage wall time
and allocations must stay under `1 + --threshold` (default 0.5) times
the baseline, and IOTP/LSP/counter tallies must match exactly. Stages
whose baseline wall is 0 (a committed wall-free baseline) skip the
timing check. Exit is non-zero on any regression or count mismatch;
`--diff-out` writes the machine-readable diff.

`baseline` strips the nondeterministic measurements (wall times,
throughput, sweeps, allocations, campaign share) out of a report,
producing the committable form under results/BENCH_baseline.json that
CI compares every run against.";

/// Default sweep: powers of two from 1 up to the machine's available
/// parallelism, always reaching at least 4 so the speedup curve has a
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
        let n: usize =
            part.trim().parse().map_err(|e| format!("--threads-sweep `{part}`: {e}"))?;
        if n == 0 {
            return Err("--threads-sweep wants thread counts >= 1".to_string());
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
        let before = counting_alloc::snapshot().1;
        while let Ok(Some(_)) = reader.next_record() {}
        counting_alloc::snapshot().1 - before
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
            (
                "traces_per_s".to_string(),
                lpr_bench::throughput_json(self.wall_us, self.traces),
            ),
            (
                "bytes_per_s".to_string(),
                lpr_bench::throughput_json(self.wall_us, self.corpus_bytes),
            ),
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

    fn say(&self) {
        say!(
            "out-of-core ingest: {} traces over {} files ({} bytes), {} LSPs in, \
             {} us, {} traces/s, {} bytes/s",
            self.traces,
            self.corpus_files,
            self.corpus_bytes,
            self.lsps_in,
            self.wall_us,
            lpr_bench::throughput_text(self.wall_us, self.traces),
            lpr_bench::throughput_text(self.wall_us, self.corpus_bytes),
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

fn pipeline(args: &[String]) -> i32 {
    let mut out_path = "BENCH_pipeline.json".to_string();
    let mut snapshots = 3usize;
    let mut cycle = 40usize;
    let mut threads = 1usize;
    let mut sweep: Option<Vec<usize>> = None;
    let mut alloc = false;
    let mut max_campaign_share: Option<f64> = None;
    let mut scale = 1usize;
    let mut mem_ceiling: Option<u64> = None;
    let mut probing = netsim::ProbingStrategy::Exhaustive;
    let mut max_probes_per_dst: Option<f64> = None;
    let mut trace_out: Option<String> = None;
    let mut trace_level = lpr_obs::Level::Info;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let want = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
            it.next().cloned().ok_or_else(|| format!("{flag} wants a value"))
        };
        let parsed = match a.as_str() {
            "--out" => want(&mut it, "--out").map(|v| out_path = v),
            "--snapshots" => want(&mut it, "--snapshots").and_then(|v| {
                v.parse().map(|n| snapshots = n).map_err(|e| format!("--snapshots: {e}"))
            }),
            "--cycle" => want(&mut it, "--cycle").and_then(|v| {
                v.parse().map(|n| cycle = n).map_err(|e| format!("--cycle: {e}"))
            }),
            "--threads" => want(&mut it, "--threads").and_then(|v| {
                v.parse::<usize>()
                    .map_err(|e| format!("--threads: {e}"))
                    .and_then(|n| {
                        if n == 0 {
                            Err("--threads wants at least 1".to_string())
                        } else {
                            threads = n;
                            Ok(())
                        }
                    })
            }),
            "--threads-sweep" => {
                // Optional value: a comma-separated thread-count list.
                let explicit = it
                    .clone()
                    .next()
                    .filter(|v| v.chars().next().is_some_and(|c| c.is_ascii_digit()));
                if explicit.is_some() {
                    it.next();
                }
                match explicit {
                    Some(spec) => parse_sweep(spec).map(|ns| sweep = Some(ns)),
                    None => {
                        sweep = Some(default_sweep());
                        Ok(())
                    }
                }
            }
            "--alloc" => {
                alloc = true;
                Ok(())
            }
            "--max-campaign-share" => {
                want(&mut it, "--max-campaign-share").and_then(|v| {
                    v.parse::<f64>()
                        .map_err(|e| format!("--max-campaign-share: {e}"))
                        .and_then(|f| {
                            if f > 0.0 && f <= 1.0 {
                                max_campaign_share = Some(f);
                                Ok(())
                            } else {
                                Err("--max-campaign-share wants a fraction in (0, 1]".to_string())
                            }
                        })
                })
            }
            "--scale" => want(&mut it, "--scale").and_then(|v| {
                v.parse::<usize>().map_err(|e| format!("--scale: {e}")).and_then(|n| {
                    if n == 0 {
                        Err("--scale wants at least 1".to_string())
                    } else {
                        scale = n;
                        Ok(())
                    }
                })
            }),
            "--mem-ceiling-bytes" => want(&mut it, "--mem-ceiling-bytes").and_then(|v| {
                v.parse::<u64>()
                    .map_err(|e| format!("--mem-ceiling-bytes: {e}"))
                    .map(|n| mem_ceiling = Some(n))
            }),
            "--probing" => want(&mut it, "--probing").and_then(|v| {
                netsim::ProbingStrategy::parse(&v).map(|s| probing = s).ok_or_else(|| {
                    format!("--probing `{v}` is not a strategy (exhaustive|mda|mda-lite)")
                })
            }),
            "--max-probes-per-dst" => want(&mut it, "--max-probes-per-dst").and_then(|v| {
                v.parse::<f64>()
                    .map_err(|e| format!("--max-probes-per-dst: {e}"))
                    .and_then(|f| {
                        if f > 0.0 {
                            max_probes_per_dst = Some(f);
                            Ok(())
                        } else {
                            Err("--max-probes-per-dst wants a positive number".to_string())
                        }
                    })
            }),
            "--trace-out" => want(&mut it, "--trace-out").map(|v| trace_out = Some(v)),
            "--trace-level" => want(&mut it, "--trace-level").and_then(|v| {
                lpr_obs::Level::parse(&v)
                    .map(|l| trace_level = l)
                    .ok_or_else(|| format!("--trace-level `{v}` is not a level"))
            }),
            other => Err(format!("unknown flag {other}")),
        };
        if let Err(e) = parsed {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    }
    if snapshots == 0 {
        eprintln!("--snapshots must be at least 1");
        return 2;
    }
    if scale > 1 {
        if sweep.is_some() {
            eprintln!("--threads-sweep is demo-scale only; drop it or use --scale 1");
            return 2;
        }
        return pipeline_scaled(ScaledParams {
            out_path,
            snapshots,
            cycle,
            threads,
            scale,
            mem_ceiling,
            max_campaign_share,
            probing,
            max_probes_per_dst,
            trace_out,
            trace_level,
        });
    }

    let tracer = match &trace_out {
        Some(_) => lpr_obs::Tracer::new(trace_level),
        None => lpr_obs::Tracer::disabled(),
    };
    let recorder = Recorder::new("lpr-bench pipeline").with_tracer(tracer.clone());
    let run_span = tracer.span("run:bench-pipeline");
    tracer.set_default_parent(run_span.context());
    let mut diverged = false;
    // Per-stage allocation deltas: (stage, allocations, bytes).
    let mut alloc_rows: Vec<(&'static str, u64, u64)> = Vec::new();
    netsim::igp::spf_cache_reset();

    // Demo-scale campaign: the longitudinal world at one cycle, with
    // enough extra snapshots to feed the Persistence filter.
    let alloc0 = counting_alloc::snapshot();
    let campaign_span = tracer.span("stage:GenerateCampaign");
    let sw = lpr_obs::Stopwatch::start();
    let world = ark_dataset::standard_world();
    let opts = ark_dataset::CampaignOptions { snapshots, probing, ..Default::default() };
    let data = ark_dataset::generate_cycle(&world, cycle, &opts);
    let traces = &data.snapshots[0];
    drop(campaign_span);
    recorder.record_stage("GenerateCampaign", sw.elapsed_us(), 0, traces.len() as u64);
    let alloc1 = counting_alloc::snapshot();
    alloc_rows.push(("GenerateCampaign", alloc1.0 - alloc0.0, alloc1.1 - alloc0.1));

    // Golden self-check: at the default campaign shape, the encoded
    // bytes must match the fingerprint captured before the dense-SPF /
    // probe-ladder / parallel-probing rewrite. Any drift means the
    // optimisations changed observable output and the run fails.
    let golden_checked = cycle == 40
        && snapshots == 3
        && sweep.is_some()
        && probing == netsim::ProbingStrategy::Exhaustive;
    let mut golden_matches = true;
    if golden_checked {
        let fp = campaign_fingerprint(&data.snapshots);
        golden_matches = fp == GOLDEN_CAMPAIGN_FNV;
        if !golden_matches {
            eprintln!(
                "FAIL: campaign fingerprint {fp:#018x} != pinned golden \
                 {GOLDEN_CAMPAIGN_FNV:#018x}"
            );
            diverged = true;
        }
    }

    // Round-trip through the warts codec so ingest throughput reflects
    // real record decoding, tallied by the stream reader itself.
    let alloc0 = counting_alloc::snapshot();
    let encode_span = tracer.span("stage:WartsEncode");
    let sw = lpr_obs::Stopwatch::start();
    let mut writer = warts::WartsWriter::new();
    let list = writer.list(1, "bench");
    let cyc = writer.cycle_start(list, 1, 0);
    for t in traces {
        writer.trace(&warts::trace_to_record(t, list, cyc)).expect("encode");
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
    let alloc1 = counting_alloc::snapshot();
    alloc_rows.push(("WartsEncode", alloc1.0 - alloc0.0, alloc1.1 - alloc0.1));

    let alloc0 = counting_alloc::snapshot();
    let decode_span = tracer.span("stage:WartsDecode");
    let sw = lpr_obs::Stopwatch::start();
    let metrics = warts::StreamMetrics::from_recorder(&recorder);
    let mut decoded = Vec::new();
    let mut reader = warts::WartsStreamReader::new(bytes.as_slice()).with_metrics(metrics);
    let mut trace = Trace::new(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED);
    loop {
        match reader.next_trace_into(&mut trace) {
            Ok(Some(warts::Decoded::Trace)) => decoded.push(trace.clone()),
            Ok(Some(_)) => {}
            Ok(None) => break,
            Err(e) => {
                eprintln!("warts decode failed: {e}");
                return 1;
            }
        }
    }
    drop(decode_span);
    recorder.record_stage(
        "WartsDecode",
        sw.elapsed_us(),
        bytes.len() as u64,
        decoded.len() as u64,
    );
    let alloc1 = counting_alloc::snapshot();
    alloc_rows.push(("WartsDecode", alloc1.0 - alloc0.0, alloc1.1 - alloc0.1));

    // The pipeline proper: the timed region covers the Persistence
    // future-key computation plus the full filter/classify run — every
    // stage the `--threads` knob shards.
    let run_with = |threads: usize, rec: Option<&Recorder>| {
        let sw = lpr_obs::Stopwatch::start();
        let future: Vec<_> = data.snapshots[1..]
            .iter()
            .map(|t| Pipeline::snapshot_keys_par(t, threads))
            .collect();
        let pipeline = Pipeline::new(FilterConfig {
            persistence_window: future.len(),
            ..Default::default()
        });
        let out = pipeline.run_par(&decoded, world.rib(), &future, threads, rec);
        (out, sw.elapsed_us().max(1))
    };

    // Sweep mode: time every thread count (best of SWEEP_REPS), verify
    // each output is byte-identical to the sequential run's.
    const SWEEP_REPS: usize = 3;
    let mut sweep_rows: Vec<(usize, u64, bool)> = Vec::new();
    let mut seq_out = None;
    if let Some(ns) = &sweep {
        let (reference, mut seq_wall) = run_with(1, None);
        for _ in 1..SWEEP_REPS {
            seq_wall = seq_wall.min(run_with(1, None).1);
        }
        for &n in ns {
            if n == 1 {
                sweep_rows.push((1, seq_wall, true));
                continue;
            }
            let (out, mut wall) = run_with(n, None);
            for _ in 1..SWEEP_REPS {
                wall = wall.min(run_with(n, None).1);
            }
            let matches = out == reference;
            if !matches {
                eprintln!("FAIL: --threads {n} output diverges from the sequential run");
                diverged = true;
            }
            sweep_rows.push((n, wall, matches));
        }
        threads = ns.last().copied().unwrap_or(1);
        seq_out = Some(reference);
    }

    // Campaign thread-sweep: regenerate the cycle at each probing
    // thread count. The shard-order merge in `campaign_par` makes the
    // traces byte-identical for any count — verified here against the
    // sequential campaign generated above.
    let mut campaign_rows: Vec<(usize, u64, bool)> = Vec::new();
    if sweep.is_some() {
        for n in CAMPAIGN_THREADS {
            let copts = ark_dataset::CampaignOptions {
                snapshots,
                threads: n,
                probing,
                ..Default::default()
            };
            let sw = lpr_obs::Stopwatch::start();
            let d = ark_dataset::generate_cycle(&world, cycle, &copts);
            let wall = sw.elapsed_us().max(1);
            let matches = d.snapshots == data.snapshots;
            if !matches {
                eprintln!(
                    "FAIL: campaign at {n} probing thread(s) diverges from the \
                     sequential campaign"
                );
                diverged = true;
            }
            campaign_rows.push((n, wall, matches));
        }
    }

    // The instrumented run (at the sweep's top thread count, or
    // `--threads`): its telemetry is what lands in the report.
    let alloc0 = counting_alloc::snapshot();
    let (out, _) = run_with(threads, Some(&recorder));
    let alloc1 = counting_alloc::snapshot();
    alloc_rows.push(("Pipeline", alloc1.0 - alloc0.0, alloc1.1 - alloc0.1));
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
    let (ooc_stats, ooc_diverged) = match out_of_core_demo(
        &recorder,
        &tracer,
        &world,
        &data.snapshots,
        &decoded,
        threads,
        &mut alloc_rows,
    ) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    if ooc_diverged {
        diverged = true;
    }

    // Zero-copy Unsupported decode: eliding bodies must remove the
    // body-sized allocation (measured after the peak readings above so
    // the check's own buffers stay out of the ingest-phase peaks).
    let (elide_verdict, elide_ok) = unsupported_elide_check();
    if !elide_ok {
        eprintln!(
            "FAIL: eliding Unsupported bodies did not remove the body-sized \
             decode allocation"
        );
        diverged = true;
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
    if let Some(ceiling) = max_campaign_share {
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

    let mem_breached = ceiling_breached(&ooc_stats, mem_ceiling);
    let probes_exceeded = probe_ceiling_breached(&data.budget, max_probes_per_dst);

    let extras = ReportExtras {
        sweep_rows: &sweep_rows,
        campaign_rows: &campaign_rows,
        campaign_traces: traces.len() as u64,
        campaign_share,
        golden: golden_checked.then_some(golden_matches),
        alloc_rows: alloc.then_some(&alloc_rows[..]),
        spf_cache: netsim::Internet::spf_cache_stats(),
        ingest: Some(ooc_stats.to_json()),
        probing: Some(probing_json(probing, &data.budget)),
        unsupported_elide: Some(elide_verdict),
    };
    let report = render_report(&telemetry, &out, &extras);
    if let Err(e) = std::fs::write(&out_path, &report) {
        eprintln!("{out_path}: {e}");
        return 1;
    }

    say!(
        "{} traces, {} LSPs in, {} IOTPs classified, {} us total, {} thread(s)",
        decoded.len(),
        out.report.input,
        out.iotps.len(),
        telemetry.total_wall_us,
        telemetry.threads,
    );
    for s in &telemetry.stages {
        let rate = lpr_bench::throughput_text(s.wall_us, s.input);
        say!(
            "  {:<18} {:>8} -> {:<8} {:>10} us  {:>12} items/s",
            s.name,
            s.input,
            s.output,
            s.wall_us,
            rate,
        );
    }
    say!(
        "GenerateCampaign share of stage wall time: {:.1}%",
        campaign_share * 100.0
    );
    if alloc {
        say!("allocations by stage:");
        for (name, allocs, bytes) in &alloc_rows {
            say!("  {:<18} {:>12} allocs  {:>14} bytes", name, allocs, bytes);
        }
    }
    let avail = lpr_par::available_threads();
    if !sweep_rows.is_empty() {
        let seq_wall = sweep_rows[0].1;
        say!("thread sweep ({} traces/run, best of {SWEEP_REPS}):", decoded.len());
        for (n, wall, matches) in &sweep_rows {
            say!(
                "  threads={:<3} {:>10} us  {:>12} traces/s  speedup {:>5.2}x  {}",
                n,
                wall,
                lpr_bench::throughput_text(*wall, decoded.len() as u64),
                lpr_bench::speedup(seq_wall, *wall),
                if *matches { "output identical" } else { "OUTPUT DIVERGED" },
            );
        }
        // A regression signal, not an error: parallel slower than
        // sequential is expected on a 1-core runner, suspicious on a
        // multi-core one.
        if avail > 1 {
            for &(n, wall, _) in &sweep_rows {
                if n > 1 && n <= avail && wall > seq_wall {
                    say!(
                        "warning: pipeline at {n} threads is slower than sequential \
                         ({wall} us vs {seq_wall} us) on a {avail}-core host"
                    );
                }
            }
        }
    }
    if !campaign_rows.is_empty() {
        let seq_wall = campaign_rows[0].1;
        say!("campaign sweep ({} traces x {snapshots} snapshots):", traces.len());
        for &(n, wall, matches) in &campaign_rows {
            say!(
                "  threads={:<3} {:>10} us  speedup {:>5.2}x  {}",
                n,
                wall,
                lpr_bench::speedup(seq_wall, wall),
                if matches { "bytes identical" } else { "BYTES DIVERGED" },
            );
        }
        if avail > 1 {
            for &(n, wall, _) in &campaign_rows {
                if n > 1 && n <= avail && wall > seq_wall {
                    say!(
                        "warning: campaign at {n} probing threads is slower than \
                         sequential ({wall} us vs {seq_wall} us) on a {avail}-core host"
                    );
                }
            }
        }
    }
    if golden_checked {
        say!(
            "golden campaign fingerprint: {}",
            if golden_matches { "match" } else { "MISMATCH" }
        );
    }
    say_budget(probing, &data.budget);
    ooc_stats.say();
    say!(
        "unsupported-body elide: {}",
        if elide_ok { "zero-copy (body-sized allocation removed)" } else { "COPY SURVIVED" }
    );
    let (hits, misses) = extras.spf_cache;
    say!(
        "spf cache: {hits} hits / {misses} misses ({:.0}% hit rate)",
        100.0 * hits as f64 / (hits + misses).max(1) as f64
    );
    say!("wrote {out_path}");
    tracer.set_default_parent(lpr_obs::SpanContext::ROOT);
    drop(run_span);
    if let Some(path) = &trace_out {
        if !write_trace(&tracer, path) {
            return 1;
        }
    }
    if diverged {
        eprintln!("determinism self-check failed");
        return 1;
    }
    if share_exceeded || mem_breached || probes_exceeded {
        return 1;
    }
    0
}

/// The `mda` subcommand: benchmarks the stochastic prober against the
/// exhaustive oracle — the per-pair probes-vs-recall curve, then a
/// full-campaign cost/recall comparison with the thread-identity
/// self-check (see USAGE for the pass bar).
fn mda_cmd(args: &[String]) -> i32 {
    use std::collections::BTreeSet;

    let mut out_path = "BENCH_mda.json".to_string();
    let mut cycle = 40usize;
    let mut hosts = 24usize;
    let mut max_probes_per_dst: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let want = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
            it.next().cloned().ok_or_else(|| format!("{flag} wants a value"))
        };
        let parsed = match a.as_str() {
            "--out" => want(&mut it, "--out").map(|v| out_path = v),
            "--cycle" => want(&mut it, "--cycle").and_then(|v| {
                v.parse().map(|n| cycle = n).map_err(|e| format!("--cycle: {e}"))
            }),
            "--hosts" => want(&mut it, "--hosts").and_then(|v| {
                v.parse::<usize>().map_err(|e| format!("--hosts: {e}")).and_then(|n| {
                    if n == 0 {
                        Err("--hosts wants at least 1".to_string())
                    } else {
                        hosts = n;
                        Ok(())
                    }
                })
            }),
            "--max-probes-per-dst" => want(&mut it, "--max-probes-per-dst").and_then(|v| {
                v.parse::<f64>()
                    .map_err(|e| format!("--max-probes-per-dst: {e}"))
                    .and_then(|f| {
                        if f > 0.0 {
                            max_probes_per_dst = Some(f);
                            Ok(())
                        } else {
                            Err("--max-probes-per-dst wants a positive number".to_string())
                        }
                    })
            }),
            other => Err(format!("unknown flag {other}")),
        };
        if let Err(e) = parsed {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    }

    let world = ark_dataset::standard_world();

    // Phase 1: the per-(vp, dst) recall curve — MDA-Lite flow caps vs
    // the exhaustive oracle, the series behind fig_mda_recall.csv.
    say!(
        "recall curve: MDA-Lite caps {:?} vs the {}-flow exhaustive oracle …",
        experiments::mda_recall::CAPS,
        experiments::mda_recall::ORACLE_FLOWS,
    );
    let points = experiments::mda_recall::run(&world, cycle);
    for p in &points {
        say!(
            "  {:<10} cap={:<3} {:>8.1} probes/dst  {:>6.2} flows/dst  recall {:.3}",
            p.mode,
            p.max_flows,
            p.probes_per_dst,
            p.flows_per_dst,
            p.path_recall,
        );
    }

    // Phase 2: whole campaigns at a host density where the /24 host
    // groups give the stopping rule real flow variation to prune.
    say!("campaign comparison at {hosts} hosts/prefix, cycle {cycle} …");
    let iotp_keys = |data: &ark_dataset::campaign::CycleData| -> BTreeSet<lpr_core::lsp::IotpKey> {
        ark_dataset::campaign::analyze_cycle(&world, data, 2)
            .output
            .iotps
            .iter()
            .map(|(iotp, _)| iotp.key)
            .collect()
    };
    let generate = |probing: netsim::ProbingStrategy, threads: usize| {
        let opts = ark_dataset::CampaignOptions {
            hosts_per_prefix: hosts,
            probing,
            threads,
            ..Default::default()
        };
        let sw = lpr_obs::Stopwatch::start();
        let data = ark_dataset::generate_cycle(&world, cycle, &opts);
        (data, sw.elapsed_us().max(1))
    };

    // The exhaustive oracle is distilled to its IOTP set, budget and
    // trace count right away: at most one cycle's traces stay resident
    // at a time, so no later wall pays page pressure for data a
    // previous run only kept around to compare against.
    let (exhaustive, ex_wall) = generate(netsim::ProbingStrategy::Exhaustive, 1);
    let ex_traces = exhaustive.snapshots.iter().map(Vec::len).sum::<usize>();
    let ex_budget = exhaustive.budget;
    say!("  exhaustive: {:>10} us  {ex_traces} traces", ex_wall);
    say_budget(netsim::ProbingStrategy::Exhaustive, &ex_budget);
    let ex_iotps = iotp_keys(&exhaustive);
    drop(exhaustive);

    // MDA-Lite at every campaign thread count; the sequential run is
    // the reference the others must reproduce byte-for-byte, checked
    // through the warts-encoded campaign fingerprint plus the exact
    // budget so each run's traces can be dropped immediately.
    let mut lite_ref: Option<(u64, netsim::ProbeBudget)> = None;
    let mut lite_wall = 0u64;
    let mut lite_traces = 0usize;
    let mut lite_iotps = BTreeSet::new();
    let mut matches_all = true;
    let mut sweep_rows: Vec<(usize, u64, bool)> = Vec::new();
    for &n in &CAMPAIGN_THREADS {
        let (d, wall) = generate(netsim::ProbingStrategy::MdaLite, n);
        let fp = campaign_fingerprint(&d.snapshots);
        let matches = match lite_ref {
            None => true,
            Some((ref_fp, ref_budget)) => fp == ref_fp && d.budget == ref_budget,
        };
        if !matches {
            eprintln!(
                "FAIL: MDA-Lite campaign at {n} probing thread(s) diverges from \
                 the sequential campaign"
            );
            matches_all = false;
        }
        sweep_rows.push((n, wall, matches));
        say!(
            "  mda-lite @{n} threads: {:>10} us  {}",
            wall,
            if matches { "bytes identical" } else { "BYTES DIVERGED" },
        );
        if lite_ref.is_none() {
            lite_wall = wall;
            lite_traces = d.snapshots.iter().map(Vec::len).sum::<usize>();
            lite_iotps = iotp_keys(&d);
            lite_ref = Some((fp, d.budget));
        }
    }
    let (_, lite_budget) = lite_ref.expect("CAMPAIGN_THREADS is non-empty");
    say_budget(netsim::ProbingStrategy::MdaLite, &lite_budget);

    // Transit-diversity recall: the classified IOTP set of the pruned
    // campaign against the exhaustive cycle's.
    let recovered = ex_iotps.intersection(&lite_iotps).count();
    let iotp_recall = recovered as f64 / ex_iotps.len().max(1) as f64;
    let probe_reduction =
        1.0 - lite_budget.probes_sent as f64 / ex_budget.probes_sent.max(1) as f64;
    let tripwire_ok = !probe_ceiling_breached(&lite_budget, max_probes_per_dst);
    say!(
        "  IOTP recall {recovered}/{} = {iotp_recall:.3}; probes {} -> {} \
         ({:.1}% saved); campaign speedup {:.2}x",
        ex_iotps.len(),
        ex_budget.probes_sent,
        lite_budget.probes_sent,
        probe_reduction * 100.0,
        lpr_bench::speedup(ex_wall, lite_wall),
    );

    let passed =
        iotp_recall >= 0.95 && matches_all && probe_reduction > 0.0 && tripwire_ok;
    let curve = JsonValue::Array(
        points
            .iter()
            .map(|p| {
                JsonValue::Object(vec![
                    ("mode".to_string(), JsonValue::Str(p.mode.to_string())),
                    ("max_flows".to_string(), JsonValue::Int(p.max_flows as i128)),
                    ("probes_per_dst".to_string(), JsonValue::Float(p.probes_per_dst)),
                    ("flows_per_dst".to_string(), JsonValue::Float(p.flows_per_dst)),
                    ("path_recall".to_string(), JsonValue::Float(p.path_recall)),
                ])
            })
            .collect(),
    );
    let campaign_side = |wall: u64,
                         strategy: netsim::ProbingStrategy,
                         budget: &netsim::ProbeBudget,
                         iotps: usize| {
        JsonValue::Object(vec![
            ("wall_us".to_string(), JsonValue::Int(wall as i128)),
            ("iotps".to_string(), JsonValue::Int(iotps as i128)),
            ("budget".to_string(), probing_json(strategy, budget)),
        ])
    };
    let report = JsonValue::Object(vec![
        ("bench".to_string(), JsonValue::Str("mda".to_string())),
        ("cycle".to_string(), JsonValue::Int(cycle as i128)),
        ("hosts_per_prefix".to_string(), JsonValue::Int(hosts as i128)),
        ("recall_curve".to_string(), curve),
        (
            "campaign".to_string(),
            JsonValue::Object(vec![
                (
                    "exhaustive".to_string(),
                    campaign_side(
                        ex_wall,
                        netsim::ProbingStrategy::Exhaustive,
                        &ex_budget,
                        ex_iotps.len(),
                    ),
                ),
                (
                    "mda_lite".to_string(),
                    campaign_side(
                        lite_wall,
                        netsim::ProbingStrategy::MdaLite,
                        &lite_budget,
                        lite_iotps.len(),
                    ),
                ),
                ("thread_sweep".to_string(), sweep_json(&sweep_rows, lite_traces as u64)),
                ("iotp_recall".to_string(), JsonValue::Float(iotp_recall)),
                ("probe_reduction".to_string(), JsonValue::Float(probe_reduction)),
                (
                    "speedup".to_string(),
                    JsonValue::Float(lpr_bench::speedup(ex_wall, lite_wall)),
                ),
                ("matches_across_threads".to_string(), JsonValue::Bool(matches_all)),
            ]),
        ),
        (
            "tripwire".to_string(),
            JsonValue::Object(vec![
                (
                    "max_probes_per_dst".to_string(),
                    match max_probes_per_dst {
                        Some(f) => JsonValue::Float(f),
                        None => JsonValue::Null,
                    },
                ),
                (
                    "probes_per_dst".to_string(),
                    JsonValue::Float(lite_budget.probes_per_pair()),
                ),
                ("ok".to_string(), JsonValue::Bool(tripwire_ok)),
            ]),
        ),
        ("passed".to_string(), JsonValue::Bool(passed)),
    ])
    .render_pretty();
    if let Err(e) = std::fs::write(&out_path, &report) {
        eprintln!("{out_path}: {e}");
        return 1;
    }
    say!("wrote {out_path}");
    if passed {
        0
    } else {
        eprintln!("FAIL: the MDA acceptance bar was not met (see {out_path})");
        1
    }
}

/// `lpr-bench revelation`: the A/B gate for the TNT-style revelation
/// phase. Renders one cycle under a tunnel-visibility mix that hides
/// part of the MPLS deployment, runs the campaign with revelation at
/// probing thread counts 1/2/4/8 (byte-identity required), and
/// analyses the cycle twice — plain LPR vs LPR plus revealed evidence.
/// Passes when revelation recovers diversity (IOTP count rises, the
/// Unclassified share does not grow), at least one tunnel was actually
/// revealed, the probe overhead is accounted, and every thread count
/// reproduced the sequential run byte-for-byte.
fn revelation_cmd(args: &[String]) -> i32 {
    let mut out_path = "BENCH_revelation.json".to_string();
    let mut cycle = 40usize;
    let mut mix = netsim::VisibilityMix {
        explicit: 0.4,
        implicit: 0.2,
        invisible: 0.2,
        opaque: 0.2,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let want = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
            it.next().cloned().ok_or_else(|| format!("{flag} wants a value"))
        };
        let parsed = match a.as_str() {
            "--out" => want(&mut it, "--out").map(|v| out_path = v),
            "--cycle" => want(&mut it, "--cycle").and_then(|v| {
                v.parse().map(|n| cycle = n).map_err(|e| format!("--cycle: {e}"))
            }),
            "--mix" => want(&mut it, "--mix").and_then(|v| {
                netsim::VisibilityMix::parse(&v)
                    .map(|m| mix = m)
                    .ok_or_else(|| format!("--mix: cannot parse `{v}`"))
            }),
            other => Err(format!("unknown flag {other}")),
        };
        if let Err(e) = parsed {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    }

    let world = ark_dataset::standard_world();
    let reveal_opts = netsim::RevelationOptions::default();
    let generate = |threads: usize| {
        let opts = ark_dataset::CampaignOptions {
            visibility: Some(mix),
            threads,
            ..Default::default()
        };
        let sw = lpr_obs::Stopwatch::start();
        let out =
            ark_dataset::generate_cycle_with_revelation(&world, cycle, &opts, &reveal_opts);
        (out, sw.elapsed_us().max(1))
    };

    say!("revelation campaign: cycle {cycle}, mix {} …", mix.render());
    let ((data, evidence), seq_wall) = generate(1);
    let ref_fp = campaign_fingerprint(&data.snapshots);
    let traces = data.snapshots.iter().map(Vec::len).sum::<usize>();
    say!("  sequential: {seq_wall:>10} us  {traces} traces  {} candidates", evidence.len());

    // Thread sweep: traces, budget and evidence must all reproduce the
    // sequential run exactly at every probing thread count.
    let mut matches_all = true;
    let mut sweep_rows: Vec<(usize, u64, bool)> = vec![(1, seq_wall, true)];
    for &n in &CAMPAIGN_THREADS[1..] {
        let ((d, ev), wall) = generate(n);
        let matches = campaign_fingerprint(&d.snapshots) == ref_fp
            && d.budget == data.budget
            && ev == evidence;
        if !matches {
            eprintln!(
                "FAIL: revelation campaign at {n} probing thread(s) diverges from \
                 the sequential campaign"
            );
            matches_all = false;
        }
        sweep_rows.push((n, wall, matches));
        say!(
            "  revelation @{n} threads: {:>10} us  {}",
            wall,
            if matches { "bytes identical" } else { "BYTES DIVERGED" },
        );
    }

    // A/B: the same traces analysed without and with the evidence.
    let base = ark_dataset::analyze_cycle(&world, &data, 2);
    let revealed = ark_dataset::analyze_cycle_revealed(&world, &data, 2, &evidence);
    let base_counts = base.output.class_counts();
    let rev_counts = revealed.output.class_counts();
    let base_share =
        base_counts.unclassified as f64 / base_counts.total().max(1) as f64;
    let rev_share = rev_counts.unclassified as f64 / rev_counts.total().max(1) as f64;
    let revealed_tunnels = evidence
        .iter()
        .filter(|e| e.status == lpr_core::reveal::RevelationStatus::Revealed)
        .count() as u64;
    let base_probes = (data.budget.probes_sent - data.budget.revelation_probes).max(1);
    let overhead = data.budget.revelation_probes as f64 / base_probes as f64;
    say!(
        "  A/B: IOTPs {} -> {}; unclassified share {:.3} -> {:.3}; \
         {} of {} candidates revealed; {} DPR probes ({:.1}% overhead)",
        base_counts.total(),
        rev_counts.total(),
        base_share,
        rev_share,
        revealed_tunnels,
        data.budget.revelation_triggers,
        data.budget.revelation_probes,
        overhead * 100.0,
    );

    let diversity_recovered =
        rev_counts.total() > base_counts.total() && rev_share <= base_share;
    let passed = diversity_recovered
        && revealed_tunnels > 0
        && data.budget.revelation_probes > 0
        && matches_all;

    let side = |counts: &lpr_core::pipeline::ClassCounts| {
        JsonValue::Object(vec![
            ("iotps".to_string(), JsonValue::Int(counts.total() as i128)),
            ("mono_lsp".to_string(), JsonValue::Int(counts.mono_lsp as i128)),
            ("multi_fec".to_string(), JsonValue::Int(counts.multi_fec as i128)),
            ("mono_fec".to_string(), JsonValue::Int(counts.mono_fec() as i128)),
            ("unclassified".to_string(), JsonValue::Int(counts.unclassified as i128)),
        ])
    };
    let report = JsonValue::Object(vec![
        ("bench".to_string(), JsonValue::Str("revelation".to_string())),
        ("cycle".to_string(), JsonValue::Int(cycle as i128)),
        ("mix".to_string(), JsonValue::Str(mix.render())),
        ("traces".to_string(), JsonValue::Int(traces as i128)),
        ("base".to_string(), side(&base_counts)),
        ("revealed".to_string(), side(&rev_counts)),
        (
            "revelation".to_string(),
            JsonValue::Object(vec![
                (
                    "triggers".to_string(),
                    JsonValue::Int(data.budget.revelation_triggers as i128),
                ),
                ("revealed".to_string(), JsonValue::Int(revealed_tunnels as i128)),
                (
                    "probes".to_string(),
                    JsonValue::Int(data.budget.revelation_probes as i128),
                ),
                ("probe_overhead".to_string(), JsonValue::Float(overhead)),
            ]),
        ),
        ("thread_sweep".to_string(), sweep_json(&sweep_rows, traces as u64)),
        ("matches_across_threads".to_string(), JsonValue::Bool(matches_all)),
        ("diversity_recovered".to_string(), JsonValue::Bool(diversity_recovered)),
        ("passed".to_string(), JsonValue::Bool(passed)),
    ])
    .render_pretty();
    if let Err(e) = std::fs::write(&out_path, &report) {
        eprintln!("{out_path}: {e}");
        return 1;
    }
    say!("wrote {out_path}");
    if passed {
        0
    } else {
        eprintln!("FAIL: the revelation acceptance bar was not met (see {out_path})");
        1
    }
}

/// The demo-scale out-of-core leg of `lpr-bench pipeline`: writes the
/// decoded cycle as a multi-file corpus, indexes it (cold, then cached),
/// spills the persistence window, and verifies that the out-of-core
/// pipeline reproduces the in-memory pipeline byte-for-byte at every
/// [`INGEST_THREADS`] count — with the in-memory window — and at
/// `threads` with the spilled window (the instrumented, measured run).
/// Returns the phase's measurements and whether anything diverged.
#[allow(clippy::too_many_arguments)]
fn out_of_core_demo(
    recorder: &Recorder,
    tracer: &lpr_obs::Tracer,
    world: &ark_dataset::World,
    snapshots: &[Vec<lpr_core::trace::Trace>],
    decoded: &[lpr_core::trace::Trace],
    threads: usize,
    alloc_rows: &mut Vec<(&'static str, u64, u64)>,
) -> Result<(IngestStats, bool), String> {
    use lpr_core::pipeline::PersistenceWindow;
    use lpr_core::spill::KeySpiller;

    let tmp = std::env::temp_dir().join(format!("lpr-bench-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let mut diverged = false;

    let alloc0 = counting_alloc::snapshot();
    let span = tracer.span("stage:CorpusWrite");
    let sw = lpr_obs::Stopwatch::start();
    let paths =
        lpr_corpus::write_corpus_files(&tmp, "bench", decoded, corpus_file_count(decoded.len()))
            .map_err(|e| format!("corpus write: {e}"))?;
    drop(span);
    let written: u64 =
        paths.iter().filter_map(|p| std::fs::metadata(p).ok()).map(|m| m.len()).sum();
    recorder.record_stage("CorpusWrite", sw.elapsed_us(), decoded.len() as u64, written);
    let alloc1 = counting_alloc::snapshot();
    alloc_rows.push(("CorpusWrite", alloc1.0 - alloc0.0, alloc1.1 - alloc0.1));

    // Open twice: the first open builds and caches every `.lpridx`, the
    // second must hit all of them — both land in the corpus.* counters,
    // so a cache-staleness regression shows up as an index_hits drift.
    let alloc0 = counting_alloc::snapshot();
    let span = tracer.span("stage:IndexBuild");
    let sw = lpr_obs::Stopwatch::start();
    let cold = lpr_corpus::Corpus::open_with(&paths, true, Some(recorder))
        .map_err(|e| format!("corpus index build: {e}"))?;
    drop(cold);
    let corpus = lpr_corpus::Corpus::open_with(&paths, true, Some(recorder))
        .map_err(|e| format!("corpus index reload: {e}"))?;
    drop(span);
    recorder.record_stage("IndexBuild", sw.elapsed_us(), paths.len() as u64, corpus.total_records());
    let alloc1 = counting_alloc::snapshot();
    alloc_rows.push(("IndexBuild", alloc1.0 - alloc0.0, alloc1.1 - alloc0.1));

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
    let alloc0 = counting_alloc::snapshot();
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
    let alloc1 = counting_alloc::snapshot();
    alloc_rows.push(("OutOfCoreIngest", alloc1.0 - alloc0.0, alloc1.1 - alloc0.1));
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

/// Everything `pipeline_scaled` needs from the flag parser.
struct ScaledParams {
    out_path: String,
    snapshots: usize,
    cycle: usize,
    threads: usize,
    scale: usize,
    mem_ceiling: Option<u64>,
    probing: netsim::ProbingStrategy,
    max_probes_per_dst: Option<f64>,
    max_campaign_share: Option<f64>,
    trace_out: Option<String>,
    trace_level: lpr_obs::Level,
}

/// The paper-scale flow (`--scale` > 1): the cycle never exists in
/// memory as a whole. Each snapshot is generated, persisted (snapshot 0
/// becomes the multi-file corpus; later snapshots spill their LSP keys
/// to sorted files) and dropped; the pipeline then runs purely
/// out-of-core, with the 1/2/4/8 thread identity check against the run
/// at `--threads` and the ingest-phase peak-memory accounting.
fn pipeline_scaled(p: ScaledParams) -> i32 {
    use lpr_core::pipeline::PersistenceWindow;
    use lpr_core::spill::KeySpiller;

    let tracer = match &p.trace_out {
        Some(_) => lpr_obs::Tracer::new(p.trace_level),
        None => lpr_obs::Tracer::disabled(),
    };
    let recorder = Recorder::new("lpr-bench pipeline").with_tracer(tracer.clone());
    let run_span = tracer.span("run:bench-pipeline-scaled");
    tracer.set_default_parent(run_span.context());
    netsim::igp::spf_cache_reset();
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
            paths = match lpr_corpus::write_corpus_files(
                &tmp,
                "cycle",
                &traces,
                corpus_file_count(traces.len()),
            ) {
                Ok(paths) => paths,
                Err(e) => {
                    eprintln!("corpus write: {e}");
                    return 1;
                }
            };
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
            match spill {
                Ok(sp) => {
                    spilled_keys_total += sp.count;
                    spilled.push(sp);
                }
                Err(e) => {
                    eprintln!("key spill: {e}");
                    return 1;
                }
            }
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
    let corpus = match lpr_corpus::Corpus::open_with(&paths, true, Some(&recorder)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("corpus index build: {e}");
            return 1;
        }
    };
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
    let out = match run_ooc(p.threads, Some(&recorder)) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("out-of-core pipeline: {e}");
            return 1;
        }
    };
    let wall = sw.elapsed_us().max(1);
    drop(span);
    recorder.record_stage("OutOfCoreIngest", wall, corpus.total_traces(), out.report.input as u64);
    for &n in &INGEST_THREADS {
        if n == p.threads {
            continue;
        }
        match run_ooc(n, None) {
            Ok(o) => {
                if o != out {
                    eprintln!(
                        "FAIL: out-of-core ingest at {n} thread(s) diverges from the \
                         --threads {} run",
                        p.threads
                    );
                    diverged = true;
                }
            }
            Err(e) => {
                eprintln!("out-of-core pipeline at {n} thread(s): {e}");
                return 1;
            }
        }
    }

    let stats = IngestStats {
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
    let mem_breached = ceiling_breached(&stats, p.mem_ceiling);

    let (elide_verdict, elide_ok) = unsupported_elide_check();
    if !elide_ok {
        eprintln!(
            "FAIL: eliding Unsupported bodies did not remove the body-sized \
             decode allocation"
        );
        diverged = true;
    }

    let telemetry = recorder.finish();
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
                "FAIL: GenerateCampaign takes {:.1}% of stage wall time (ceiling {:.1}%)",
                campaign_share * 100.0,
                ceiling * 100.0,
            );
        }
    }

    let probes_exceeded = probe_ceiling_breached(&budget, p.max_probes_per_dst);
    let extras = ReportExtras {
        sweep_rows: &[],
        campaign_rows: &[],
        campaign_traces: cycle_traces,
        campaign_share,
        golden: None,
        alloc_rows: None,
        spf_cache: netsim::Internet::spf_cache_stats(),
        ingest: Some(stats.to_json()),
        probing: Some(probing_json(p.probing, &budget)),
        unsupported_elide: Some(elide_verdict),
    };
    let report = render_report(&telemetry, &out, &extras);
    if let Err(e) = std::fs::write(&p.out_path, &report) {
        eprintln!("{}: {e}", p.out_path);
        return 1;
    }

    say!(
        "{} traces, {} LSPs in, {} IOTPs classified, {} us total, {} thread(s)",
        corpus.total_traces(),
        out.report.input,
        out.iotps.len(),
        telemetry.total_wall_us,
        telemetry.threads,
    );
    for s in &telemetry.stages {
        let rate = lpr_bench::throughput_text(s.wall_us, s.input);
        say!(
            "  {:<18} {:>8} -> {:<8} {:>10} us  {:>12} items/s",
            s.name,
            s.input,
            s.output,
            s.wall_us,
            rate,
        );
    }
    say_budget(p.probing, &budget);
    stats.say();
    say!(
        "unsupported-body elide: {}",
        if elide_ok { "zero-copy (body-sized allocation removed)" } else { "COPY SURVIVED" }
    );
    say!("wrote {}", p.out_path);
    let _ = std::fs::remove_dir_all(&tmp);
    tracer.set_default_parent(lpr_obs::SpanContext::ROOT);
    drop(run_span);
    if let Some(path) = &p.trace_out {
        if !write_trace(&tracer, path) {
            return 1;
        }
    }
    if diverged {
        eprintln!("determinism self-check failed");
        return 1;
    }
    if share_exceeded || mem_breached || probes_exceeded {
        return 1;
    }
    0
}

/// Probing thread counts the campaign sweep regenerates the cycle at;
/// byte-identity across all of them is part of the acceptance bar.
const CAMPAIGN_THREADS: [usize; 4] = [1, 2, 4, 8];

/// FNV-1a fingerprint of the default-shape campaign's warts encoding,
/// captured before the dense-SPF / probe-ladder / parallel-probing
/// rewrite. Byte-for-byte equality with the old implementation is the
/// contract those optimisations must keep.
const GOLDEN_CAMPAIGN_FNV: u64 = 0x814958413857ec30;

/// Combines the per-snapshot warts encodings into one order-sensitive
/// FNV-1a fingerprint (each snapshot's hash is rotated by its index so
/// snapshot swaps change the result).
fn campaign_fingerprint(snapshots: &[Vec<lpr_core::trace::Trace>]) -> u64 {
    let mut combined = 0u64;
    for (snap, traces) in snapshots.iter().enumerate() {
        let mut w = warts::WartsWriter::new();
        let list = w.list(1, "bench");
        let cyc = w.cycle_start(list, 1, 0);
        for t in traces {
            w.trace(&warts::trace_to_record(t, list, cyc)).expect("encode");
        }
        w.cycle_stop(cyc, 1);
        let mut h: u64 = 0xcbf29ce484222325;
        for &b in w.into_bytes().iter() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        combined ^= h.rotate_left(snap as u32 * 21);
    }
    combined
}

/// Parses a comma-separated fault-rate list; the rate-0 baseline is
/// always swept first so every row has a drift reference.
fn parse_rates(spec: &str) -> Result<Vec<f64>, String> {
    let mut rates: Vec<f64> = Vec::new();
    for part in spec.split(',') {
        let r: f64 = part.trim().parse().map_err(|e| format!("--rates `{part}`: {e}"))?;
        if !(0.0..=1.0).contains(&r) {
            return Err(format!("--rates `{part}`: fault rates live in [0, 1]"));
        }
        rates.push(r);
    }
    rates.sort_by(|a, b| a.partial_cmp(b).expect("no NaN past the range check"));
    rates.dedup();
    if rates.first() != Some(&0.0) {
        rates.insert(0, 0.0);
    }
    Ok(rates)
}

/// Thread counts every chaos rate is verified at: the acceptance bar is
/// byte-identical `PipelineOutput` from 1 through 8 workers.
const CHAOS_THREADS: [usize; 4] = [1, 2, 4, 8];

/// The fixed fixture for the chaos sweep's revelation leg: one Juniper
/// transit AS whose tunnel-visibility mix hides most of the deployment
/// from plain traceroute, so the revelation phase has real work that
/// the injected trigger/DPR faults can take away.
fn chaos_revelation_net() -> netsim::Internet {
    let mut cfg = netsim::MplsConfig::ldp_default();
    // Half the LER pairs stay explicit so the pipeline keeps a stable
    // base of label-visible IOTPs: class shares then move by a bounded
    // amount when a fault knocks out a revealed candidate, instead of
    // swinging the whole (tiny) denominator.
    cfg.visibility = netsim::VisibilityMix {
        explicit: 0.25,
        implicit: 0.25,
        invisible: 0.3,
        opaque: 0.2,
    };
    let specs = vec![
        netsim::AsSpec::transit(
            65000,
            "transit",
            netsim::Vendor::Juniper,
            netsim::TopologyParams {
                core_routers: 12,
                border_routers: 6,
                ecmp_diamonds: 2,
                ..Default::default()
            },
        ),
        netsim::AsSpec::stub(100, "src-a", 0, 2),
        netsim::AsSpec::stub(101, "src-b", 0, 2),
        netsim::AsSpec::stub(200, "dst-a", 4, 0),
        netsim::AsSpec::stub(201, "dst-b", 4, 0),
        netsim::AsSpec::stub(202, "dst-c", 4, 0),
        netsim::AsSpec::stub(203, "dst-d", 4, 0),
    ];
    let peerings = vec![
        netsim::Peering::new(Asn(100), Asn(65000)).at_b(0),
        netsim::Peering::new(Asn(101), Asn(65000)).at_b(3),
        netsim::Peering::new(Asn(65000), Asn(200)).at_a(1),
        netsim::Peering::new(Asn(65000), Asn(201)).at_a(2),
        netsim::Peering::new(Asn(65000), Asn(202)).at_a(4),
        netsim::Peering::new(Asn(65000), Asn(203)).at_a(5),
    ];
    let topo = netsim::Topology::build_with_peerings(&specs, &peerings);
    let mut configs = std::collections::BTreeMap::new();
    configs.insert(Asn(65000), cfg);
    netsim::Internet::new(topo, &configs)
}

/// Per-reason quarantine tallies as JSON fields, in `QuarantineReason`
/// declaration order (only reasons that fired appear).
fn quarantine_fields(report: &lpr_core::quarantine::DegradedReport) -> Vec<(String, JsonValue)> {
    lpr_core::quarantine::QuarantineReason::ALL
        .iter()
        .filter_map(|r| {
            report.quarantined.get(r).map(|&n| (r.name().to_string(), JsonValue::Int(n as i128)))
        })
        .collect()
}

fn chaos(args: &[String]) -> i32 {
    let mut out_path = "BENCH_chaos.json".to_string();
    let mut seed = 42u64;
    let mut rates = vec![0.0, 0.02, 0.05, 0.10];
    let mut snapshots = 3usize;
    let mut cycle = 40usize;
    let mut drift_bound = 0.5f64;
    let mut trace_out: Option<String> = None;
    let mut trace_level = lpr_obs::Level::Info;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let want = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
            it.next().cloned().ok_or_else(|| format!("{flag} wants a value"))
        };
        let parsed = match a.as_str() {
            "--out" => want(&mut it, "--out").map(|v| out_path = v),
            "--seed" => want(&mut it, "--seed").and_then(|v| {
                v.parse().map(|n| seed = n).map_err(|e| format!("--seed: {e}"))
            }),
            "--rates" => {
                want(&mut it, "--rates").and_then(|v| parse_rates(&v).map(|rs| rates = rs))
            }
            "--snapshots" => want(&mut it, "--snapshots").and_then(|v| {
                v.parse().map(|n| snapshots = n).map_err(|e| format!("--snapshots: {e}"))
            }),
            "--cycle" => want(&mut it, "--cycle").and_then(|v| {
                v.parse().map(|n| cycle = n).map_err(|e| format!("--cycle: {e}"))
            }),
            "--drift-bound" => want(&mut it, "--drift-bound").and_then(|v| {
                v.parse()
                    .map(|b| drift_bound = b)
                    .map_err(|e| format!("--drift-bound: {e}"))
            }),
            "--trace-out" => want(&mut it, "--trace-out").map(|v| trace_out = Some(v)),
            "--trace-level" => want(&mut it, "--trace-level").and_then(|v| {
                lpr_obs::Level::parse(&v)
                    .map(|l| trace_level = l)
                    .ok_or_else(|| format!("--trace-level `{v}` is not a level"))
            }),
            other => Err(format!("unknown flag {other}")),
        };
        if let Err(e) = parsed {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    }
    if snapshots == 0 {
        eprintln!("--snapshots must be at least 1");
        return 2;
    }

    // The golden campaign every rate degrades a fresh copy of. Future
    // snapshots stay clean: the Persistence reference is held fixed so a
    // row's drift isolates the effect of faults on the measured cycle.
    let world = ark_dataset::standard_world();
    let opts = ark_dataset::CampaignOptions { snapshots, ..Default::default() };
    let data = ark_dataset::generate_cycle(&world, cycle, &opts);
    let golden = &data.snapshots[0];
    let future: Vec<_> =
        data.snapshots[1..].iter().map(|t| Pipeline::snapshot_keys_par(t, 1)).collect();
    let pipeline = Pipeline::new(FilterConfig {
        persistence_window: future.len(),
        ..Default::default()
    });

    say!(
        "chaos sweep: seed {seed}, {} golden traces, rates {:?}, drift bound {drift_bound}",
        golden.len(),
        rates
    );

    // The trace journal is observational only: the chaos report itself
    // stays byte-reproducible (the trace file carries the wall times).
    let tracer = match &trace_out {
        Some(_) => lpr_obs::Tracer::new(trace_level),
        None => lpr_obs::Tracer::disabled(),
    };
    let run_span = tracer.span("run:bench-chaos");
    tracer.set_default_parent(run_span.context());

    // Runs the pipeline over `input` at every thread count in
    // `CHAOS_THREADS`, returning the sequential output and whether all
    // counts agreed byte-for-byte.
    let run_all = |input: &[lpr_core::trace::Trace]| {
        let reference = pipeline.run_par(input, world.rib(), &future, 1, None);
        let mut matches_all = true;
        for &threads in &CHAOS_THREADS[1..] {
            let out = pipeline.run_par(input, world.rib(), &future, threads, None);
            if out != reference {
                matches_all = false;
            }
        }
        (reference, matches_all)
    };

    let mut rows: Vec<JsonValue> = Vec::new();
    let mut baseline: Option<[f64; 4]> = None;
    let mut failed = false;
    for &rate in &rates {
        let rate_span = tracer.span(format!("rate:{rate}"));
        let plan = lpr_chaos::FaultPlan::uniform(seed, rate);
        let mut traces = golden.clone();
        let faults = plan.degrade_traces(&mut traces);

        // Direct path: the degraded traces go straight into the
        // pipeline, so structural faults (duplicated/reordered replies)
        // reach the quarantine layer intact. Class-share drift is
        // measured here, uncontaminated by byte-level corruption.
        let (direct, direct_matches) = run_all(&traces);
        let direct_reconciled = direct.degraded.ingested() == traces.len() as u64
            && direct.degraded.kept + direct.degraded.quarantined_total()
                == traces.len() as u64;
        let counts = direct.class_counts();
        let shares = counts.fractions();
        let base = *baseline.get_or_insert(shares);
        let drift = shares
            .iter()
            .zip(base.iter())
            .map(|(s, b)| (s - b).abs())
            .fold(0.0f64, f64::max);
        let drift_ok = drift <= drift_bound;

        // Bytes path: encode, corrupt at the byte level, decode with
        // the lenient reader, then classify whatever survived. (The
        // warts→core conversion scrubs out-of-order TTLs, so this path
        // exercises skip-and-resync rather than the quarantine.)
        let mut writer = warts::WartsWriter::new();
        let list = writer.list(1, "chaos");
        let cyc = writer.cycle_start(list, 1, 0);
        for t in &traces {
            writer.trace(&warts::trace_to_record(t, list, cyc)).expect("encode");
        }
        writer.cycle_stop(cyc, 1);
        let bytes = writer.into_bytes();
        let (bytes, corruption) = lpr_chaos::corrupt_warts_bytes(&bytes, seed, plan.corruption);

        let mut reader = warts::WartsStreamReader::new(bytes.as_slice()).lenient();
        let mut decoded = Vec::new();
        let mut convert_failures = 0u64;
        let mut trace = Trace::new(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED);
        loop {
            match reader.next_trace_into(&mut trace) {
                Ok(Some(warts::Decoded::Trace)) => decoded.push(trace.clone()),
                Ok(Some(warts::Decoded::NotIpv4)) => {}
                Ok(Some(warts::Decoded::ConvertFailed(_))) => convert_failures += 1,
                Ok(None) => break,
                Err(e) => {
                    eprintln!("FAIL: rate {rate}: lenient decode aborted: {e}");
                    return 1;
                }
            }
        }
        let skips = reader.skip_counts().clone();
        let resync_bytes = reader.resync_bytes();

        let (decoded_out, bytes_matches) = run_all(&decoded);
        let bytes_reconciled = decoded_out.degraded.ingested() == decoded.len() as u64
            && decoded_out.degraded.kept + decoded_out.degraded.quarantined_total()
                == decoded.len() as u64;

        if !direct_matches || !bytes_matches {
            eprintln!("FAIL: rate {rate}: output diverges across thread counts");
        }
        if !direct_reconciled || !bytes_reconciled {
            eprintln!("FAIL: rate {rate}: kept + quarantined != traces ingested");
        }
        if !drift_ok {
            eprintln!(
                "FAIL: rate {rate}: class-share drift {drift:.3} exceeds bound {drift_bound}"
            );
        }
        let row_ok = direct_matches
            && bytes_matches
            && direct_reconciled
            && bytes_reconciled
            && drift_ok;
        if !row_ok {
            failed = true;
        }
        rate_span.event(
            if row_ok { lpr_obs::Level::Info } else { lpr_obs::Level::Error },
            "chaos-row",
            vec![
                ("rate".to_string(), lpr_obs::FieldValue::Str(rate.to_string())),
                ("faults".to_string(), lpr_obs::FieldValue::U64(faults.total() as u64)),
                ("kept".to_string(), lpr_obs::FieldValue::U64(direct.degraded.kept)),
                (
                    "quarantined".to_string(),
                    lpr_obs::FieldValue::U64(direct.degraded.quarantined_total()),
                ),
                (
                    "ok".to_string(),
                    lpr_obs::FieldValue::Str(if row_ok { "true" } else { "false" }.to_string()),
                ),
            ],
        );

        say!(
            "  rate {rate:<5} faults {:>5}  direct: kept {:>4} quar {:>3} iotps {:>3} \
             unclass {:.2} drift {:.3} | bytes: corrupt {:>3} skipped {:>4} decoded {:>4} \
             iotps {:>3}  {}",
            faults.total(),
            direct.degraded.kept,
            direct.degraded.quarantined_total(),
            counts.total(),
            shares[3],
            drift,
            corruption.total(),
            reader.skipped_total(),
            decoded.len(),
            decoded_out.class_counts().total(),
            if row_ok { "ok" } else { "FAIL" },
        );

        let skip_fields: Vec<(String, JsonValue)> = warts::SkipReason::ALL
            .iter()
            .filter_map(|r| {
                skips.get(r).map(|&n| (r.name().to_string(), JsonValue::Int(n as i128)))
            })
            .collect();
        let decoded_counts = decoded_out.class_counts();
        rows.push(JsonValue::Object(vec![
            ("rate".to_string(), JsonValue::Float(rate)),
            ("traces_generated".to_string(), JsonValue::Int(traces.len() as i128)),
            (
                "faults_injected".to_string(),
                JsonValue::Object(vec![
                    ("lost".to_string(), JsonValue::Int(faults.lost as i128)),
                    ("rate_limited".to_string(), JsonValue::Int(faults.rate_limited as i128)),
                    ("php_silenced".to_string(), JsonValue::Int(faults.php_silenced as i128)),
                    (
                        "truncated_exts".to_string(),
                        JsonValue::Int(faults.truncated_exts as i128),
                    ),
                    ("duplicated".to_string(), JsonValue::Int(faults.duplicated as i128)),
                    ("reordered".to_string(), JsonValue::Int(faults.reordered as i128)),
                    ("total".to_string(), JsonValue::Int(faults.total() as i128)),
                ]),
            ),
            (
                "direct".to_string(),
                JsonValue::Object(vec![
                    ("traces_kept".to_string(), JsonValue::Int(direct.degraded.kept as i128)),
                    (
                        "quarantined".to_string(),
                        JsonValue::Object(quarantine_fields(&direct.degraded)),
                    ),
                    (
                        "quarantined_total".to_string(),
                        JsonValue::Int(direct.degraded.quarantined_total() as i128),
                    ),
                    (
                        "classes".to_string(),
                        JsonValue::Object(vec![
                            ("mono_lsp".to_string(), JsonValue::Int(counts.mono_lsp as i128)),
                            ("multi_fec".to_string(), JsonValue::Int(counts.multi_fec as i128)),
                            (
                                "mono_fec_parallel".to_string(),
                                JsonValue::Int(counts.mono_fec_parallel as i128),
                            ),
                            (
                                "mono_fec_disjoint".to_string(),
                                JsonValue::Int(counts.mono_fec_disjoint as i128),
                            ),
                            (
                                "unclassified".to_string(),
                                JsonValue::Int(counts.unclassified as i128),
                            ),
                            ("total".to_string(), JsonValue::Int(counts.total() as i128)),
                        ]),
                    ),
                    (
                        "class_shares".to_string(),
                        JsonValue::Object(vec![
                            ("mono_lsp".to_string(), JsonValue::Float(shares[0])),
                            ("multi_fec".to_string(), JsonValue::Float(shares[1])),
                            ("mono_fec".to_string(), JsonValue::Float(shares[2])),
                            ("unclassified".to_string(), JsonValue::Float(shares[3])),
                        ]),
                    ),
                    ("drift".to_string(), JsonValue::Float(drift)),
                    ("matches_across_threads".to_string(), JsonValue::Bool(direct_matches)),
                    ("reconciled".to_string(), JsonValue::Bool(direct_reconciled)),
                ]),
            ),
            (
                "bytes".to_string(),
                JsonValue::Object(vec![
                    (
                        "corrupted_records".to_string(),
                        JsonValue::Object(vec![
                            (
                                "bit_flips".to_string(),
                                JsonValue::Int(corruption.bit_flips as i128),
                            ),
                            (
                                "truncated_bodies".to_string(),
                                JsonValue::Int(corruption.truncated_bodies as i128),
                            ),
                            (
                                "bad_lengths".to_string(),
                                JsonValue::Int(corruption.bad_lengths as i128),
                            ),
                            (
                                "bad_magics".to_string(),
                                JsonValue::Int(corruption.bad_magics as i128),
                            ),
                            ("total".to_string(), JsonValue::Int(corruption.total() as i128)),
                        ]),
                    ),
                    ("skipped_records".to_string(), JsonValue::Object(skip_fields)),
                    (
                        "skipped_total".to_string(),
                        JsonValue::Int(reader.skipped_total() as i128),
                    ),
                    ("resync_bytes".to_string(), JsonValue::Int(resync_bytes as i128)),
                    ("decoded_traces".to_string(), JsonValue::Int(decoded.len() as i128)),
                    (
                        "convert_failures".to_string(),
                        JsonValue::Int(convert_failures as i128),
                    ),
                    (
                        "traces_kept".to_string(),
                        JsonValue::Int(decoded_out.degraded.kept as i128),
                    ),
                    (
                        "quarantined_total".to_string(),
                        JsonValue::Int(decoded_out.degraded.quarantined_total() as i128),
                    ),
                    ("iotps".to_string(), JsonValue::Int(decoded_counts.total() as i128)),
                    ("matches_across_threads".to_string(), JsonValue::Bool(bytes_matches)),
                    ("reconciled".to_string(), JsonValue::Bool(bytes_reconciled)),
                ]),
            ),
        ]));
    }

    // Revelation leg: the prober-level faults (lost trigger replies,
    // rate-limited DPR walks) swept at the same rates over a fixed
    // netsim fixture whose tunnel-visibility mix hides part of the
    // deployment. The plan touches only revelation probes, so the base
    // traces are identical to the clean run and faults can only remove
    // evidence: the revealed count must fall monotonically towards the
    // clean baseline, the Unclassified share must not shrink, every
    // thread count must agree byte-for-byte, and the class shares stay
    // inside the same drift bound as the main sweep.
    let reveal_net = chaos_revelation_net();
    let reveal_vps: Vec<std::net::Ipv4Addr> =
        reveal_net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
    let reveal_dsts = reveal_net.topo.destinations(2);
    let reveal_opts = netsim::RevelationOptions::default();
    let mut reveal_rows: Vec<JsonValue> = Vec::new();
    let mut reveal_baseline: Option<([f64; 4], u64)> = None;
    for &rate in &rates {
        // Trigger loss and DPR rate limiting hash per LER pair / per
        // flow, and the fixture only has a handful of pairs — the
        // sweep's byte-level rates are amplified so its low end still
        // knocks out real candidates.
        let plan = {
            let mut p = lpr_chaos::FaultPlan::none(seed.wrapping_mul(0x9e37_79b9));
            p.trigger_loss = (rate * 5.0).min(1.0);
            p.dpr_rate_limit = (rate * 5.0).min(1.0);
            p
        };
        let run_at = |threads: usize| {
            let prober = netsim::Prober::new(&reveal_net, netsim::ProbeOptions::default())
                .with_faults(plan);
            let out = prober.campaign_with_revelation(
                &reveal_vps,
                &reveal_dsts,
                threads,
                &reveal_opts,
            );
            (out, prober.injected_faults())
        };
        let ((traces, budget, evidence), injected) = run_at(1);
        let mut reveal_matches = true;
        for &threads in &CHAOS_THREADS[1..] {
            let ((t, b, e), _) = run_at(threads);
            if t != traces || b != budget || e != evidence {
                reveal_matches = false;
            }
        }
        let keys = Pipeline::snapshot_keys(&traces);
        let reveal_rib = reveal_net.topo.rib();
        let mut out =
            Pipeline::default().run(&traces, &reveal_rib, &[keys.clone(), keys]);
        lpr_core::reveal::apply_revelations(&mut out, &evidence, None);
        let counts = out.class_counts();
        let shares = counts.fractions();
        let (base_shares, base_revealed) =
            *reveal_baseline.get_or_insert((shares, budget.revelation_revealed));
        let drift = shares
            .iter()
            .zip(base_shares.iter())
            .map(|(s, b)| (s - b).abs())
            .fold(0.0f64, f64::max);
        let drift_ok = drift <= drift_bound;
        let monotone = budget.revelation_revealed <= base_revealed
            && shares[3] >= base_shares[3];
        if !reveal_matches {
            eprintln!("FAIL: revelation rate {rate}: output diverges across thread counts");
        }
        if !drift_ok {
            eprintln!(
                "FAIL: revelation rate {rate}: class-share drift {drift:.3} exceeds \
                 bound {drift_bound}"
            );
        }
        if !monotone {
            eprintln!(
                "FAIL: revelation rate {rate}: faults fabricated evidence \
                 (revealed {} > clean {base_revealed}, or Unclassified share shrank)",
                budget.revelation_revealed,
            );
        }
        let row_ok = reveal_matches && drift_ok && monotone;
        if !row_ok {
            failed = true;
        }
        say!(
            "  revelation rate {rate:<5} triggers-lost {:>3} dpr-limited {:>3}  \
             candidates {:>3} revealed {:>3} probes {:>5}  unclass {:.2} drift {:.3}  {}",
            injected.trigger_replies_lost,
            injected.dpr_rate_limited,
            budget.revelation_triggers,
            budget.revelation_revealed,
            budget.revelation_probes,
            shares[3],
            drift,
            if row_ok { "ok" } else { "FAIL" },
        );
        reveal_rows.push(JsonValue::Object(vec![
            ("rate".to_string(), JsonValue::Float(rate)),
            (
                "trigger_replies_lost".to_string(),
                JsonValue::Int(injected.trigger_replies_lost as i128),
            ),
            (
                "dpr_rate_limited".to_string(),
                JsonValue::Int(injected.dpr_rate_limited as i128),
            ),
            ("candidates".to_string(), JsonValue::Int(budget.revelation_triggers as i128)),
            ("revealed".to_string(), JsonValue::Int(budget.revelation_revealed as i128)),
            ("probes".to_string(), JsonValue::Int(budget.revelation_probes as i128)),
            (
                "class_shares".to_string(),
                JsonValue::Object(vec![
                    ("mono_lsp".to_string(), JsonValue::Float(shares[0])),
                    ("multi_fec".to_string(), JsonValue::Float(shares[1])),
                    ("mono_fec".to_string(), JsonValue::Float(shares[2])),
                    ("unclassified".to_string(), JsonValue::Float(shares[3])),
                ]),
            ),
            ("drift".to_string(), JsonValue::Float(drift)),
            ("matches_across_threads".to_string(), JsonValue::Bool(reveal_matches)),
            ("monotone".to_string(), JsonValue::Bool(monotone)),
        ]));
    }

    // Deliberately no wall times anywhere in this report: identical
    // seed + rates must yield a byte-identical BENCH_chaos.json.
    let report = JsonValue::Object(vec![
        ("bench".to_string(), JsonValue::Str("chaos".to_string())),
        ("seed".to_string(), JsonValue::Int(seed as i128)),
        ("cycle".to_string(), JsonValue::Int(cycle as i128)),
        ("snapshots".to_string(), JsonValue::Int(snapshots as i128)),
        ("drift_bound".to_string(), JsonValue::Float(drift_bound)),
        (
            "threads_checked".to_string(),
            JsonValue::Array(
                CHAOS_THREADS.iter().map(|&n| JsonValue::Int(n as i128)).collect(),
            ),
        ),
        ("rates".to_string(), JsonValue::Array(rates.iter().map(|&r| JsonValue::Float(r)).collect())),
        ("rows".to_string(), JsonValue::Array(rows)),
        ("revelation".to_string(), JsonValue::Array(reveal_rows)),
        ("passed".to_string(), JsonValue::Bool(!failed)),
    ])
    .render_pretty();
    if let Err(e) = std::fs::write(&out_path, &report) {
        eprintln!("{out_path}: {e}");
        return 1;
    }
    say!("wrote {out_path}");
    tracer.set_default_parent(lpr_obs::SpanContext::ROOT);
    drop(run_span);
    if let Some(path) = &trace_out {
        if !write_trace(&tracer, path) {
            return 1;
        }
    }
    if failed {
        eprintln!("chaos sweep failed (determinism, reconciliation, or drift)");
        return 1;
    }
    0
}

/// Writes the tracer's journal as Chrome trace JSON, warning when the
/// ring wrapped. Returns `false` on I/O failure.
fn write_trace(tracer: &lpr_obs::Tracer, path: &str) -> bool {
    let snapshot = tracer.snapshot();
    if snapshot.dropped > 0 {
        eprintln!(
            "warning: trace journal wrapped, {} oldest events overwritten",
            snapshot.dropped
        );
    }
    match std::fs::write(path, lpr_obs::export::chrome_trace(&snapshot)) {
        Ok(()) => {
            say!("wrote {path}");
            true
        }
        Err(e) => {
            eprintln!("{path}: {e}");
            false
        }
    }
}

fn compare_cmd(args: &[String]) -> i32 {
    let mut current_path: Option<String> = None;
    let mut against: Option<String> = None;
    let mut threshold = 0.5f64;
    let mut diff_out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let want = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
            it.next().cloned().ok_or_else(|| format!("{flag} wants a value"))
        };
        let parsed = match a.as_str() {
            "--against" => want(&mut it, "--against").map(|v| against = Some(v)),
            "--threshold" => want(&mut it, "--threshold").and_then(|v| {
                v.parse::<f64>().map_err(|e| format!("--threshold: {e}")).and_then(|f| {
                    if f > 0.0 {
                        threshold = f;
                        Ok(())
                    } else {
                        Err("--threshold wants a positive fraction".to_string())
                    }
                })
            }),
            "--diff-out" => want(&mut it, "--diff-out").map(|v| diff_out = Some(v)),
            other if !other.starts_with("--") && current_path.is_none() => {
                current_path = Some(other.to_string());
                Ok(())
            }
            other => Err(format!("unknown flag {other}")),
        };
        if let Err(e) = parsed {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    }
    let (Some(current_path), Some(against)) = (current_path, against) else {
        eprintln!("compare wants <current.json> --against <baseline.json>\n{USAGE}");
        return 2;
    };

    let load = |path: &str| -> Result<JsonValue, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        lpr_obs::json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (current, baseline) = match (load(&current_path), load(&against)) {
        (Ok(c), Ok(b)) => (c, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return 1;
        }
    };

    let outcome = lpr_bench::compare::run(&current, &baseline, threshold);
    say!("comparing {current_path} against {against} (threshold {threshold})");
    for row in &outcome.stages {
        match (row.baseline_wall_us, row.ratio) {
            (Some(base), Some(ratio)) => {
                say!(
                    "  {:<18} {:>10} us -> {:>10} us  {:>5.2}x  {}",
                    row.name,
                    base,
                    row.current_wall_us,
                    ratio,
                    if row.regressed { "REGRESSED" } else { "ok" },
                );
            }
            _ => {
                say!(
                    "  {:<18}        n/a -> {:>10} us    n/a  skipped",
                    row.name,
                    row.current_wall_us,
                );
            }
        }
    }
    for line in &outcome.skipped {
        say!("  skipped: {line}");
    }
    for skip in &outcome.sections_skipped {
        say!("  section skipped: {} ({})", skip.section, skip.reason);
    }
    for line in &outcome.mismatches {
        eprintln!("FAIL: {line}");
    }
    for line in &outcome.regressions {
        eprintln!("FAIL: {line}");
    }
    if let Some(path) = diff_out {
        if let Err(e) = std::fs::write(&path, outcome.to_json(threshold)) {
            eprintln!("{path}: {e}");
            return 1;
        }
        say!("wrote {path}");
    }
    if outcome.passed() {
        say!("compare: ok");
        0
    } else {
        eprintln!("compare: regression past threshold or count mismatch");
        1
    }
}

fn baseline_cmd(args: &[String]) -> i32 {
    let mut in_path: Option<String> = None;
    let mut out_path = "results/BENCH_baseline.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let parsed = match a.as_str() {
            "--out" => it
                .next()
                .cloned()
                .map(|v| out_path = v)
                .ok_or_else(|| "--out wants a value".to_string()),
            other if !other.starts_with("--") && in_path.is_none() => {
                in_path = Some(other.to_string());
                Ok(())
            }
            other => Err(format!("unknown flag {other}")),
        };
        if let Err(e) = parsed {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    }
    let Some(in_path) = in_path else {
        eprintln!("baseline wants <BENCH_pipeline.json>\n{USAGE}");
        return 2;
    };
    let report = match std::fs::read_to_string(&in_path)
        .map_err(|e| format!("{in_path}: {e}"))
        .and_then(|text| lpr_obs::json::parse(&text).map_err(|e| format!("{in_path}: {e}")))
    {
        Ok(v) => v,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let stripped = lpr_bench::compare::strip_nondeterministic(&report).render_pretty();
    if let Err(e) = std::fs::write(&out_path, stripped) {
        eprintln!("{out_path}: {e}");
        return 1;
    }
    say!("wrote {out_path} (wall-time-free baseline of {in_path})");
    0
}

/// Everything `render_report` attaches beyond the raw telemetry.
struct ReportExtras<'a> {
    /// Pipeline sweep `(threads, wall_us, matches_sequential)` rows.
    sweep_rows: &'a [(usize, u64, bool)],
    /// Campaign sweep `(threads, wall_us, matches_sequential)` rows.
    campaign_rows: &'a [(usize, u64, bool)],
    /// Traces per campaign snapshot (campaign-sweep throughput basis).
    campaign_traces: u64,
    /// GenerateCampaign's fraction of total stage wall time.
    campaign_share: f64,
    /// Golden-fingerprint verdict; `None` when the shape was non-default
    /// and the check did not run.
    golden: Option<bool>,
    /// Per-stage `(stage, allocations, bytes)`; `None` without `--alloc`.
    alloc_rows: Option<&'a [(&'static str, u64, u64)]>,
    /// Process-wide SPF cache `(hits, misses)` over the whole run.
    spf_cache: (u64, u64),
    /// The out-of-core ingest phase's measurements (see
    /// [`IngestStats::to_json`]); `None` when the phase did not run.
    ingest: Option<JsonValue>,
    /// Probing strategy and probe-budget tallies (see [`probing_json`]).
    probing: Option<JsonValue>,
    /// The zero-copy Unsupported-body decode verdict.
    unsupported_elide: Option<JsonValue>,
}

/// The "probing" report section: the campaign's strategy plus its
/// probe-budget tallies. `lpr-bench compare` holds every count to
/// strict equality and `probes_per_dst` to the ratio threshold, so the
/// field names here are load-bearing.
fn probing_json(strategy: netsim::ProbingStrategy, b: &netsim::ProbeBudget) -> JsonValue {
    JsonValue::Object(vec![
        ("strategy".to_string(), JsonValue::Str(strategy.name().to_string())),
        ("pairs_total".to_string(), JsonValue::Int(b.pairs_total as i128)),
        ("pairs_probed".to_string(), JsonValue::Int(b.pairs_probed as i128)),
        ("pairs_pruned".to_string(), JsonValue::Int(b.pairs_pruned as i128)),
        ("flows_traced".to_string(), JsonValue::Int(b.flows_traced as i128)),
        ("probes_sent".to_string(), JsonValue::Int(b.probes_sent as i128)),
        ("confirmations".to_string(), JsonValue::Int(b.confirmations as i128)),
        ("probes_per_dst".to_string(), JsonValue::Float(b.probes_per_pair())),
    ])
}

/// The stdout line matching the "probing" report section.
fn say_budget(strategy: netsim::ProbingStrategy, b: &netsim::ProbeBudget) {
    say!(
        "probing [{}]: {} probes over {}/{} pairs ({} pruned), {:.2} probes/dst",
        strategy.name(),
        b.probes_sent,
        b.pairs_probed,
        b.pairs_total,
        b.pairs_pruned,
        b.probes_per_pair(),
    );
}

/// The `--max-probes-per-dst` CI tripwire: true (and a FAIL line) when
/// the campaign overspent its per-destination probe ceiling.
fn probe_ceiling_breached(b: &netsim::ProbeBudget, ceiling: Option<f64>) -> bool {
    match ceiling {
        Some(limit) if b.probes_per_pair() > limit => {
            eprintln!(
                "FAIL: campaign spent {:.2} probes per destination (ceiling {limit:.2})",
                b.probes_per_pair(),
            );
            true
        }
        _ => false,
    }
}

/// A sweep table as JSON rows. `speedup` stays relative to the
/// sequential row; `speedup_vs_best` is relative to the fastest row, so
/// a regression at high thread counts is visible even when every point
/// beats sequential. Each row carries the host's parallelism because a
/// speedup below 1 is only a signal when cores were actually available.
fn sweep_json(rows: &[(usize, u64, bool)], items: u64) -> JsonValue {
    let seq_wall = rows[0].1;
    let best_wall = rows.iter().map(|&(_, wall, _)| wall).min().unwrap_or(1);
    let avail = lpr_par::available_threads();
    JsonValue::Array(
        rows.iter()
            .map(|&(n, wall, matches)| {
                JsonValue::Object(vec![
                    ("threads".to_string(), JsonValue::Int(n as i128)),
                    ("wall_us".to_string(), JsonValue::Int(wall as i128)),
                    ("traces_per_s".to_string(), lpr_bench::throughput_json(wall, items)),
                    (
                        "speedup".to_string(),
                        JsonValue::Float(lpr_bench::speedup(seq_wall, wall)),
                    ),
                    (
                        "speedup_vs_best".to_string(),
                        JsonValue::Float(lpr_bench::speedup(best_wall, wall)),
                    ),
                    (
                        "available_parallelism".to_string(),
                        JsonValue::Int(avail as i128),
                    ),
                    ("matches_sequential".to_string(), JsonValue::Bool(matches)),
                ])
            })
            .collect(),
    )
}

/// Wraps the run telemetry with a derived per-stage throughput table:
/// the telemetry document under `"telemetry"` (still readable with
/// `RunTelemetry::from_json`) plus `"throughput_per_s"` mapping each
/// stage to records/sec (`null` for stages too fast to time — a zero
/// would read as "stalled"), `"campaign_share"`, the SPF cache tallies,
/// and — when the matching mode ran — `"thread_sweep"`,
/// `"campaign_sweep"`, `"golden_fingerprint"` and `"allocations"`.
fn render_report(
    telemetry: &lpr_obs::RunTelemetry,
    out: &lpr_core::pipeline::PipelineOutput,
    extras: &ReportExtras<'_>,
) -> String {
    let inner = lpr_obs::json::parse(&telemetry.to_json()).expect("own JSON parses");
    let throughput: Vec<(String, JsonValue)> = telemetry
        .stages
        .iter()
        .map(|s| (s.name.clone(), lpr_bench::throughput_json(s.wall_us, s.input)))
        .collect();
    let traces = telemetry.counter("pipeline.traces");
    let (spf_hits, spf_misses) = extras.spf_cache;
    let mut fields = vec![
        ("bench".to_string(), JsonValue::Str("pipeline".to_string())),
        ("iotps".to_string(), JsonValue::Int(out.iotps.len() as i128)),
        ("lsps_in".to_string(), JsonValue::Int(out.report.input as i128)),
        ("threads".to_string(), JsonValue::Int(telemetry.threads as i128)),
        (
            // Speedup curves saturate here: a sweep point above this
            // count times-shares cores rather than adding them.
            "available_parallelism".to_string(),
            JsonValue::Int(lpr_par::available_threads() as i128),
        ),
        ("telemetry".to_string(), inner),
        ("throughput_per_s".to_string(), JsonValue::Object(throughput)),
        ("campaign_share".to_string(), JsonValue::Float(extras.campaign_share)),
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
    if !extras.sweep_rows.is_empty() {
        fields.push(("thread_sweep".to_string(), sweep_json(extras.sweep_rows, traces)));
    }
    if !extras.campaign_rows.is_empty() {
        fields.push((
            "campaign_sweep".to_string(),
            sweep_json(extras.campaign_rows, extras.campaign_traces),
        ));
    }
    if let Some(matches) = extras.golden {
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
    if let Some(ingest) = &extras.ingest {
        fields.push(("ingest".to_string(), ingest.clone()));
    }
    if let Some(probing) = &extras.probing {
        fields.push(("probing".to_string(), probing.clone()));
    }
    if let Some(elide) = &extras.unsupported_elide {
        fields.push(("unsupported_elide".to_string(), elide.clone()));
    }
    if let Some(rows) = extras.alloc_rows {
        fields.push((
            "allocations".to_string(),
            JsonValue::Object(
                rows.iter()
                    .map(|&(name, allocs, bytes)| {
                        (
                            name.to_string(),
                            JsonValue::Object(vec![
                                ("allocs".to_string(), JsonValue::Int(allocs as i128)),
                                ("bytes".to_string(), JsonValue::Int(bytes as i128)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ));
    }
    JsonValue::Object(fields).render_pretty()
}

/// What the soak expects the daemon to do with one dropped file,
/// decided with the daemon's own acceptance predicate (local decode).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Expect {
    Kept,
    Quarantined,
}

/// Runs the daemon's accept-or-quarantine predicate locally over
/// `bytes` (via a scratch file), so the soak's expectations are exact
/// rather than probabilistic: whatever the chaos walk produced, the
/// soak and the daemon judge it with the same rules.
fn predict_verdict(
    scratch_dir: &std::path::Path,
    name: &str,
    bytes: &[u8],
    rib: &ip2as::Ip2AsTrie,
    threads: usize,
) -> Expect {
    let scratch = scratch_dir.join(name);
    if std::fs::write(&scratch, bytes).is_err() {
        return Expect::Quarantined;
    }
    let verdict = (|| {
        let corpus =
            lpr_corpus::Corpus::open_with(std::slice::from_ref(&scratch), false, None).ok()?;
        if !corpus.skipped_files.is_empty() {
            // Looks still-growing forever: the grace counter will
            // quarantine it.
            return Some(Expect::Quarantined);
        }
        let (_state, report) =
            lpr_corpus::ingest_cycle(&corpus, rib, lpr_corpus::IngestOptions::new(threads), None);
        Some(
            if report.skipped_total() > 0
                || report.convert_failures > 0
                || report.resync_bytes > 0
            {
                Expect::Quarantined
            } else {
                Expect::Kept
            },
        )
    })();
    let _ = std::fs::remove_file(&scratch);
    verdict.unwrap_or(Expect::Quarantined)
}

/// The batch half of the serve/batch identity check: ingest the kept
/// files with their daemon-assigned cycle ids, run the pipeline back
/// half, and render the same snapshot section the daemon serves.
fn batch_pipeline_render(
    kept: &[(u64, std::path::PathBuf)],
    rib: &ip2as::Ip2AsTrie,
    threads: usize,
) -> String {
    let mut window = lpr_core::pipeline::IngestState::default();
    for (cycle, path) in kept {
        let corpus = lpr_corpus::Corpus::open_with(std::slice::from_ref(path), false, None)
            .expect("batch reopen of a kept spool file");
        let (mut state, _report) =
            lpr_corpus::ingest_cycle(&corpus, rib, lpr_corpus::IngestOptions::new(threads), None);
        state.tag_cycle(*cycle);
        window.merge(state);
    }
    let out = Pipeline::default().finish_stages(
        window,
        &[],
        None,
        lpr_par::ShardOptions::new(threads),
    );
    lpr_serve::snapshot_pipeline_json(&out).render()
}

/// `lpr-bench serve` — the daemon soak: N cycles of clean +
/// chaos-corrupted spool drops against a live `lpr serve`, with the
/// acceptance gate from the robustness contract (clean-subset identity,
/// complete quarantine, exact reconciliation, never a 5xx).
fn serve_soak(args: &[String]) -> i32 {
    let mut cycles = 5usize;
    let mut chaos_rate = 0.10f64;
    let mut seed = 1u64;
    let mut threads = 1usize;
    let mut out_path = "BENCH_serve.json".to_string();
    let mut keep_spool = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let want = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
            it.next().cloned().ok_or_else(|| format!("{flag} wants a value"))
        };
        let parsed = match a.as_str() {
            "--cycles" => want(&mut it, "--cycles").and_then(|v| {
                v.parse().map(|n| cycles = n).map_err(|e| format!("--cycles: {e}"))
            }),
            "--chaos-rate" => want(&mut it, "--chaos-rate").and_then(|v| {
                v.parse()
                    .map_err(|e| format!("--chaos-rate: {e}"))
                    .and_then(|f: f64| {
                        if (0.0..=1.0).contains(&f) {
                            chaos_rate = f;
                            Ok(())
                        } else {
                            Err("--chaos-rate wants a fraction in [0,1]".to_string())
                        }
                    })
            }),
            "--seed" => want(&mut it, "--seed")
                .and_then(|v| v.parse().map(|n| seed = n).map_err(|e| format!("--seed: {e}"))),
            "--threads" => want(&mut it, "--threads").and_then(|v| {
                v.parse().map(|n| threads = n).map_err(|e| format!("--threads: {e}"))
            }),
            "--out" => want(&mut it, "--out").map(|v| out_path = v),
            "--keep-spool" => {
                keep_spool = true;
                Ok(())
            }
            other => Err(format!("unknown flag {other}")),
        };
        if let Err(e) = parsed {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    }
    if cycles == 0 {
        eprintln!("--cycles wants at least 1\n{USAGE}");
        return 2;
    }

    let world = ark_dataset::standard_world();
    let rib = world.rib();

    let root = std::env::temp_dir().join(format!("lpr-bench-serve-{}", std::process::id()));
    let spool = root.join("spool");
    let staging = root.join("staging");
    for d in [&spool, &staging] {
        if let Err(e) = std::fs::create_dir_all(d) {
            eprintln!("FAIL: {}: {e}", d.display());
            return 1;
        }
    }
    let rib_path = root.join("rib.txt");
    if let Err(e) = std::fs::write(&rib_path, ip2as::to_rib_string(rib)) {
        eprintln!("FAIL: {}: {e}", rib_path.display());
        return 1;
    }

    let mut cfg = lpr_serve::ServeConfig::new(spool.clone(), rib_path);
    cfg.threads = threads;
    cfg.tick = std::time::Duration::from_millis(20);
    // Hold every kept cycle: the soak checks identity over the full
    // clean subset (eviction has its own coverage in lpr-serve).
    cfg.window = 2 * cycles + 2;
    cfg.growing_grace = 3;
    cfg.retries = 1;
    cfg.backoff_base = std::time::Duration::from_millis(10);
    let handle = match lpr_serve::Server::start(cfg) {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("FAIL: daemon did not start: {e}");
            return 1;
        }
    };
    let addr = handle.addr();
    say!("lpr-bench serve: daemon on http://{addr}, spool {}", spool.display());

    // Every request the soak makes goes through here; a single 5xx
    // anywhere fails the run.
    let mut worst_status = 0u16;
    let request = |path: &str, worst: &mut u16| -> Option<String> {
        match lpr_serve::http::get(addr, path) {
            Ok((status, body)) => {
                *worst = (*worst).max(status);
                Some(body)
            }
            Err(e) => {
                eprintln!("FAIL: GET {path}: {e}");
                *worst = (*worst).max(599);
                None
            }
        }
    };

    let deadline = std::time::Duration::from_secs(60);
    let mut expected_kept: Vec<(u64, std::path::PathBuf)> = Vec::new();
    let mut expected_quarantined: Vec<String> = Vec::new();
    let mut next_cycle = 0u64;
    let mut dropped = 0usize;
    let mut wait_failed = false;

    'soak: for i in 0..cycles {
        // One fresh campaign cycle per iteration: the window genuinely
        // accumulates distinct measurement content.
        let opts = ark_dataset::CampaignOptions {
            snapshots: 1,
            seed: seed.wrapping_add(i as u64),
            ..Default::default()
        };
        let data = ark_dataset::generate_cycle(&world, 40 + i, &opts);
        let mut writer = warts::WartsWriter::new();
        let list = writer.list(1, "soak");
        let cyc = writer.cycle_start(list, 1, 0);
        for t in &data.snapshots[0] {
            writer.trace(&warts::trace_to_record(t, list, cyc)).expect("encode");
        }
        writer.cycle_stop(cyc, 1);
        let clean = writer.into_bytes();
        let (corrupted, _counts) =
            lpr_chaos::corrupt_warts_bytes(&clean, seed.wrapping_add(i as u64), chaos_rate);

        for (tag, bytes) in [("clean", &clean), ("chaos", &corrupted)] {
            let name = format!("c{i:03}-{tag}.warts");
            match predict_verdict(&staging, &name, bytes, rib, threads) {
                Expect::Kept => {
                    expected_kept.push((next_cycle, spool.join(&name)));
                    next_cycle += 1;
                }
                Expect::Quarantined => expected_quarantined.push(name.clone()),
            }
            // Stage-then-rename: the daemon never sees a half-written
            // drop.
            let stage = staging.join(&name);
            if std::fs::write(&stage, bytes).is_err()
                || std::fs::rename(&stage, spool.join(&name)).is_err()
            {
                eprintln!("FAIL: could not drop {name} into the spool");
                wait_failed = true;
                break 'soak;
            }
            dropped += 1;

            // Wait for the drop to settle (ingested or quarantined).
            let started = std::time::Instant::now();
            loop {
                let Some(body) = request("/snapshot", &mut worst_status) else {
                    wait_failed = true;
                    break 'soak;
                };
                let processed = lpr_obs::json::parse(&body)
                    .ok()
                    .and_then(|doc| doc.get("files")?.get("processed")?.as_u64())
                    .unwrap_or(0);
                if processed >= dropped as u64 {
                    break;
                }
                if started.elapsed() > deadline {
                    eprintln!("FAIL: {name} did not settle within {deadline:?}");
                    wait_failed = true;
                    break 'soak;
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            // Liveness probes between drops (the no-5xx clause covers
            // every route, not just /snapshot).
            request("/healthz", &mut worst_status);
            request("/readyz", &mut worst_status);
        }
    }

    let final_snapshot = request("/snapshot", &mut worst_status);
    request("/report/per-as", &mut worst_status);
    let metrics_body = request("/metrics", &mut worst_status);
    // An unknown path must 404, never 5xx.
    request("/definitely-not-a-route", &mut worst_status);
    handle.stop();

    let doc = final_snapshot.as_deref().and_then(|b| lpr_obs::json::parse(b).ok());
    let files_count = |key: &str| -> u64 {
        doc.as_ref()
            .and_then(|d| d.get("files")?.get(key)?.as_u64())
            .unwrap_or(u64::MAX)
    };
    let kept_count = files_count("kept");
    let quarantined_count = files_count("quarantined");
    let pending_count = files_count("pending");

    // (c) exact reconciliation: kept + quarantined == dropped, nothing
    // pending, and both sides match the locally-predicted split.
    let reconciled = !wait_failed
        && kept_count == expected_kept.len() as u64
        && quarantined_count == expected_quarantined.len() as u64
        && kept_count + quarantined_count == dropped as u64
        && pending_count == 0;

    // (b) every corrupted drop is in quarantine, on disk and in the
    // snapshot, each with a structured reason.
    let snapshot_quarantine: Vec<(String, String)> = doc
        .as_ref()
        .and_then(|d| d.get("quarantined_files")?.as_array())
        .unwrap_or_default()
        .iter()
        .filter_map(|row| {
            Some((
                row.get("file")?.as_str()?.to_string(),
                row.get("reason")?.as_str()?.to_string(),
            ))
        })
        .collect();
    let mut quarantine_complete = !wait_failed;
    for name in &expected_quarantined {
        let on_disk = spool.join("quarantine").join(name).is_file();
        let reason_file = spool.join("quarantine").join(format!("{name}.reason.json"));
        let reason_ok = std::fs::read_to_string(&reason_file)
            .ok()
            .and_then(|text| lpr_obs::json::parse(&text).ok())
            .and_then(|r| Some(!r.get("reason")?.as_str()?.is_empty()))
            .unwrap_or(false);
        let in_snapshot =
            snapshot_quarantine.iter().any(|(f, r)| f == name && !r.is_empty());
        if !(on_disk && reason_ok && in_snapshot) {
            eprintln!(
                "FAIL: {name} not fully quarantined \
                 (moved {on_disk}, reason file {reason_ok}, snapshot row {in_snapshot})"
            );
            quarantine_complete = false;
        }
    }

    // (a) clean-subset identity: the served pipeline section must be
    // byte-identical to the batch pipeline over the kept files.
    let serve_pipeline =
        doc.as_ref().and_then(|d| d.get("pipeline")).map(|p| p.render()).unwrap_or_default();
    let batch_pipeline = if wait_failed {
        String::new()
    } else {
        batch_pipeline_render(&expected_kept, rib, threads)
    };
    let identical = !wait_failed && !serve_pipeline.is_empty() && serve_pipeline == batch_pipeline;
    if !identical && !wait_failed {
        eprintln!("FAIL: served snapshot diverges from the batch pipeline over the clean subset");
    }

    // (d) never a 5xx.
    let no_5xx = worst_status < 500;
    if !no_5xx {
        eprintln!("FAIL: observed HTTP status {worst_status}");
    }
    let metrics_sane = metrics_body
        .as_deref()
        .is_some_and(|m| m.contains("serve_reconcile_ticks") && m.contains("serve_files_ingested"));

    let fingerprint_of = |rendered: &str| -> String {
        lpr_obs::json::parse(rendered)
            .ok()
            .and_then(|p| Some(p.get("fingerprint")?.as_str()?.to_string()))
            .unwrap_or_default()
    };
    let passed = identical && quarantine_complete && reconciled && no_5xx && metrics_sane;
    let report = JsonValue::Object(vec![
        ("bench".to_string(), JsonValue::Str("serve".to_string())),
        ("cycles".to_string(), JsonValue::Int(cycles as i128)),
        ("chaos_rate".to_string(), JsonValue::Float(chaos_rate)),
        ("seed".to_string(), JsonValue::Int(seed as i128)),
        ("threads".to_string(), JsonValue::Int(threads as i128)),
        (
            "files".to_string(),
            JsonValue::Object(vec![
                ("dropped".to_string(), JsonValue::Int(dropped as i128)),
                ("kept".to_string(), JsonValue::Int(expected_kept.len() as i128)),
                (
                    "quarantined".to_string(),
                    JsonValue::Int(expected_quarantined.len() as i128),
                ),
            ]),
        ),
        (
            "serve_fingerprint".to_string(),
            JsonValue::Str(fingerprint_of(&serve_pipeline)),
        ),
        (
            "batch_fingerprint".to_string(),
            JsonValue::Str(fingerprint_of(&batch_pipeline)),
        ),
        ("clean_subset_identical".to_string(), JsonValue::Bool(identical)),
        ("quarantine_complete".to_string(), JsonValue::Bool(quarantine_complete)),
        ("reconciled".to_string(), JsonValue::Bool(reconciled)),
        ("worst_status".to_string(), JsonValue::Int(worst_status as i128)),
        ("no_5xx".to_string(), JsonValue::Bool(no_5xx)),
        ("metrics_exposed".to_string(), JsonValue::Bool(metrics_sane)),
        ("passed".to_string(), JsonValue::Bool(passed)),
    ]);
    if let Err(e) = std::fs::write(&out_path, report.render_pretty()) {
        eprintln!("FAIL: {out_path}: {e}");
        return 1;
    }
    say!(
        "soak: {dropped} drops -> {} kept, {} quarantined | identity {} | reconcile {} | \
         worst HTTP {worst_status} | wrote {out_path}",
        expected_kept.len(),
        expected_quarantined.len(),
        if identical { "ok" } else { "DIVERGED" },
        if reconciled { "exact" } else { "BROKEN" },
    );
    if keep_spool {
        say!("spool kept at {}", root.display());
    } else {
        let _ = std::fs::remove_dir_all(&root);
    }
    if passed {
        0
    } else {
        1
    }
}

/// `lpr-bench corrupt` — seeded byte corruption of a warts file, the
/// smoke-test helper for the daemon's quarantine path.
fn corrupt_cmd(args: &[String]) -> i32 {
    let mut input: Option<String> = None;
    let mut output: Option<String> = None;
    let mut rate = 0.10f64;
    let mut seed = 1u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let want = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
            it.next().cloned().ok_or_else(|| format!("{flag} wants a value"))
        };
        let parsed = match a.as_str() {
            "--out" => want(&mut it, "--out").map(|v| output = Some(v)),
            "--rate" => want(&mut it, "--rate")
                .and_then(|v| v.parse().map(|f| rate = f).map_err(|e| format!("--rate: {e}"))),
            "--seed" => want(&mut it, "--seed")
                .and_then(|v| v.parse().map(|n| seed = n).map_err(|e| format!("--seed: {e}"))),
            other if !other.starts_with("--") && input.is_none() => {
                input = Some(other.to_string());
                Ok(())
            }
            other => Err(format!("unknown flag {other}")),
        };
        if let Err(e) = parsed {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    }
    let (Some(input), Some(output)) = (input, output) else {
        eprintln!("corrupt wants <in.warts> --out <out.warts>\n{USAGE}");
        return 2;
    };
    let bytes = match std::fs::read(&input) {
        Ok(bytes) => bytes,
        Err(e) => {
            eprintln!("{input}: {e}");
            return 1;
        }
    };
    let (corrupted, counts) = lpr_chaos::corrupt_warts_bytes(&bytes, seed, rate);
    if let Err(e) = std::fs::write(&output, &corrupted) {
        eprintln!("{output}: {e}");
        return 1;
    }
    say!(
        "{input} -> {output}: {} bit flips, {} truncated bodies, {} bad lengths, \
         {} bad magics (rate {rate}, seed {seed})",
        counts.bit_flips,
        counts.truncated_bodies,
        counts.bad_lengths,
        counts.bad_magics,
    );
    0
}

#[cfg(test)]
mod tests {
    use super::parse_rates;

    #[test]
    fn rates_are_sorted_deduped_and_anchored_at_zero() {
        assert_eq!(parse_rates("0.1,0.02,0.02").unwrap(), vec![0.0, 0.02, 0.1]);
        assert_eq!(parse_rates("0,0.05").unwrap(), vec![0.0, 0.05]);
    }

    #[test]
    fn rates_outside_the_unit_interval_are_rejected
    () {
        assert!(parse_rates("1.5").is_err());
        assert!(parse_rates("-0.1").is_err());
        assert!(parse_rates("nope").is_err());
    }
}
