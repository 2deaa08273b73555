//! `lpr-bench` — correctness gates for LPR's answers.
//!
//! A plain binary (no `cargo bench`/Criterion dependency). Each
//! subcommand runs one gate and exits non-zero when it fails: the golden
//! Ark campaign and thread identity of Algorithm 1's output
//! (`pipeline`), MDA-Lite recall against the exhaustive oracle (`mda`),
//! TNT-style revelation (`revelation`), the fault-injection sweep
//! (`chaos`), the `lpr serve` soak (`serve`), and the strict count
//! comparison against the committed baseline (`compare`). Timings come
//! from `perfbench/`, not from here; see `lpr-bench help` for the flags.

#![deny(unsafe_code)]

use lpr_obs::args::ArgError;
use lpr_obs::json::JsonValue;
use std::io::Write;

/// A counting wrapper around the system allocator: relaxed atomics per
/// allocation, read by the Unsupported-body elide check (requested
/// bytes) and the ingest phase's live-heap high-water mark.
mod counting_alloc {
    #![allow(unsafe_code)]

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

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

    /// Forwards to [`System`], tallying requested bytes.
    pub struct CountingAlloc;

    // SAFETY: defers every allocation verbatim to `System`; the only
    // additions are relaxed counter increments, which allocate nothing.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            grow(layout.size() as i64);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            grow(new_size as i64 - layout.size() as i64);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// Bytes requested since process start.
    pub fn bytes() -> u64 {
        BYTES.load(Ordering::Relaxed)
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

/// `pipeline`: the demo-scale and `--scale` runs and their gates.
mod pipeline;
/// `mda`: MDA-Lite against the exhaustive oracle.
mod mda;
/// `revelation`: the TNT-style revelation A/B gate.
mod revelation;
/// `chaos`: the seeded fault-injection sweep.
mod chaos;
/// `serve`: the `lpr serve` daemon soak.
mod soak;
/// `corrupt`, `compare` and `baseline`: the file-in, file-out helpers.
mod tools;

use chaos::chaos;
use mda::mda_cmd;
use pipeline::pipeline;
use revelation::revelation_cmd;
use soak::serve_soak;
use tools::{baseline_cmd, compare_cmd, corrupt_cmd};

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
lpr-bench — correctness gates for the LPR pipeline

USAGE:
  lpr-bench pipeline [--out BENCH_pipeline.json] [--snapshots N] [--cycle N]
                     [--threads N] [--threads-sweep [1,2,4,...]]
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
                     [--diff-out DIFF.json]
  lpr-bench baseline <BENCH_pipeline.json> [--out results/BENCH_baseline.json]
  lpr-bench help

`pipeline` generates the standard demo-scale campaign, round-trips it
through the warts codec, runs the full LPR pipeline under lpr-obs
instrumentation, and writes the per-stage counts as JSON. Timing is
not its job: perfbench/ (perfbench/run.sh) is the benchmark.

`--threads N` runs the pipeline on N worker threads (default 1, the
sequential path). `--threads-sweep` runs every thread count in the
given comma-separated list (default: powers of two up to the machine's
available parallelism, at least 4), records under \"thread_sweep\"
whether each count's output matched the sequential run, and exits
non-zero if any diverges. The sweep also re-generates the campaign at
probing thread counts 1, 2, 4 and 8 (\"campaign_sweep\"); every
regeneration must be byte-identical to the sequential campaign, and at
the default --cycle/--snapshots shape the encoded bytes must
additionally match a pinned golden fingerprint captured before the perf
rewrite. `--threads-sweep` is demo-scale only: with `--scale` above 1
it is rejected.

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
destination /24: exhaustive vs MDA-Lite probe budgets,
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

`compare` holds a BENCH_pipeline.json report to a baseline's
deterministic counts: top-level stage input/output, IOTPs, input LSPs,
every counter, and the ingest and probing tallies must match exactly,
and a count the baseline carries must not be missing. Wall times, rates
and allocations are never compared. Exit is non-zero on any mismatch;
`--diff-out` writes the machine-readable diff.

`baseline` strips the nondeterministic measurements (wall times, sweeps,
campaign share, ingest rates and peak memory) out of a report,
producing the committable form under results/BENCH_baseline.json that
CI compares every run against.";

/// Reports a malformed command line, then the usage text; exit code 2.
fn usage_error(e: ArgError) -> i32 {
    eprintln!("{e}\n{USAGE}");
    2
}

/// The range message of flags counting something that cannot be zero.
const AT_LEAST_1: &str = "wants at least 1";

/// Probing thread counts the campaign sweep regenerates the cycle at;
/// byte-identity across all of them is part of the acceptance bar.
const CAMPAIGN_THREADS: [usize; 4] = [1, 2, 4, 8];

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
            w.trace(&warts::trace_to_record(t, list, cyc));
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

/// The "probing" report section: the campaign's strategy plus its
/// probe-budget tallies. `lpr-bench compare` holds every count to
/// strict equality, so the field names here are load-bearing.
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

/// A thread-identity sweep as JSON rows: each thread count and whether
/// its output matched the sequential run's.
fn sweep_json(rows: &[(usize, bool)]) -> JsonValue {
    JsonValue::Array(
        rows.iter()
            .map(|&(n, matches)| {
                JsonValue::Object(vec![
                    ("threads".to_string(), JsonValue::Int(n as i128)),
                    ("matches_sequential".to_string(), JsonValue::Bool(matches)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::chaos::parse_rates;

    #[test]
    fn rates_are_sorted_deduped_and_anchored_at_zero() {
        assert_eq!(parse_rates("0.1,0.02,0.02").unwrap(), vec![0.0, 0.02, 0.1]);
        assert_eq!(parse_rates("0,0.05").unwrap(), vec![0.0, 0.05]);
    }

    #[test]
    fn rates_outside_the_unit_interval_are_rejected() {
        assert!(parse_rates("1.5").is_err());
        assert!(parse_rates("-0.1").is_err());
        assert!(parse_rates("nope").is_err());
    }
}
