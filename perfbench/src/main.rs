//! The repository benchmark: three workloads that each put most of
//! their work on a different group of layers (see `README.md`).
//!
//! `lpr-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --lpr <path to lpr> --work <dir>` sets the workload up from the seed,
//! measures it for the given time, checks every op against an oracle,
//! and prints the metrics by name with their units, a self-description
//! line, and, last, the one-line JSON result. It exits non-zero when an
//! oracle fails. `run.sh` builds everything and supplies `--lpr` and
//! `--work`.

mod alloc;
mod ark;
mod layers;
mod metrics;
mod probe;
mod procfs;
mod serve;
mod stats;

use lpr_obs::json::JsonValue;
use metrics::Values;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str =
    "usage: lpr-perfbench [worker] --workload <ark-cycle|probe-campaign|serve-window> \
--seed <n> --seconds <s> --trace <0|1> --lpr <lpr binary> --work <dir>";

/// Set-up repetitions per run; `setup_s` is their median. The first
/// one uses the held-out seed.
pub const SETUP_REPS: usize = 3;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed (`CampaignOptions::seed`).
    pub seed: u64,
    /// Measurement time.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// The `lpr` binary (serve-window's daemon, trace validation).
    pub lpr: PathBuf,
    /// Scratch directory for inputs and the trace file.
    pub work: PathBuf,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let get = |flag: &str| -> Result<String, String> {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .ok_or(format!("missing {flag}"))?;
            argv.get(i + 1)
                .cloned()
                .ok_or(format!("{flag} wants a value"))
        };
        let workload = get("--workload")?;
        if !["ark-cycle", "probe-campaign", "serve-window"].contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err("--seconds wants a value in (0, 600]".into());
        }
        let trace = match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace wants 0 or 1, not {other}")),
        };
        Ok(Args {
            workload,
            seed,
            seconds: Duration::from_secs_f64(seconds),
            trace,
            lpr: PathBuf::from(get("--lpr")?),
            work: PathBuf::from(get("--work")?),
        })
    }

    /// The seed whose inputs are checked once per run beside the timed
    /// ones, so the workload is known to pass on a seed it was not
    /// tuned on.
    pub fn held_out_seed(&self) -> u64 {
        self.seed ^ 0x9E37_79B9_7F4A_7C15
    }

    /// This run's input directory (removed when the run ends).
    pub fn data_dir(&self) -> PathBuf {
        self.work.join(format!("{}-data", self.workload))
    }

    /// Where the traced run writes its Chrome trace.
    pub fn trace_path(&self) -> PathBuf {
        self.work.join(format!("trace-{}.json", self.workload))
    }

    fn to_argv(&self) -> Vec<String> {
        vec![
            "--workload".into(),
            self.workload.clone(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.as_secs_f64().to_string(),
            "--trace".into(),
            if self.trace { "1" } else { "0" }.into(),
            "--lpr".into(),
            self.lpr.display().to_string(),
            "--work".into(),
            self.work.display().to_string(),
        ]
    }
}

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops (and, on serve-window, requests) attempted.
    pub attempted: u64,
    /// Of those, failed: an error, an oracle mismatch, a non-200
    /// response or a drop not fresh by its deadline.
    pub failed: u64,
    /// Run-level oracles (final snapshot identity, request counters,
    /// held-out seed, trace validity) all held.
    pub checks_ok: bool,
    /// Measured values by metric name.
    pub values: Values,
    /// Extra self-description fields.
    pub notes: Vec<(String, JsonValue)>,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (worker, flags) = match argv.first().map(String::as_str) {
        Some("worker") => (true, &argv[1..]),
        _ => (false, &argv[..]),
    };
    let args = match Args::parse(flags) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("lpr-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let code = if worker {
        worker_main(&args)
    } else {
        run_main(&args)
    };
    std::process::exit(code);
}

fn run_main(args: &Args) -> i32 {
    let data = args.data_dir();
    let outcome = std::fs::create_dir_all(&data)
        .map_err(|e| format!("{}: {e}", data.display()))
        .and_then(|()| match args.workload.as_str() {
            "ark-cycle" => ark::run(args),
            "probe-campaign" => probe::run(args),
            _ => serve::run(args),
        });
    let _ = std::fs::remove_dir_all(&data);
    let mut outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lpr-perfbench {}: {e}", args.workload);
            return 1;
        }
    };
    if args.trace {
        outcome.checks_ok &= trace_check(&args.lpr, &args.trace_path());
    }
    let correct = outcome.failed == 0 && outcome.checks_ok;
    metrics::put(
        &mut outcome.values,
        "failed_ratio",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted as usize,
    );
    let line = match metrics::result_line(
        correct,
        outcome.attempted.max(1),
        outcome.failed,
        args.trace,
        &outcome.values,
    ) {
        Ok(line) => line,
        Err(e) => {
            eprintln!("lpr-perfbench {}: {e}", args.workload);
            return 1;
        }
    };
    let mut out = std::io::stdout().lock();
    let _ = print_values(&mut out, &outcome.values);
    let _ = writeln!(out, "{}", describe(args, &outcome).render());
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
    if correct {
        0
    } else {
        eprintln!(
            "lpr-perfbench {}: an oracle failed (see above)",
            args.workload
        );
        1
    }
}

fn unit_of(name: &str) -> &'static str {
    metrics::END_TO_END
        .iter()
        .chain(metrics::PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

fn print_values(out: &mut impl Write, values: &Values) -> std::io::Result<()> {
    for (name, v) in values {
        writeln!(
            out,
            "{name:<34} {:>16.4} {:<14} (n={})",
            v.value,
            unit_of(name),
            v.samples
        )?;
    }
    Ok(())
}

/// The self-description line: inputs, machine and sample counts.
fn describe(args: &Args, outcome: &Outcome) -> JsonValue {
    let samples = outcome
        .values
        .iter()
        .map(|(k, v)| (k.clone(), JsonValue::Int(v.samples as i128)))
        .collect();
    let mut fields = vec![
        ("workload".into(), JsonValue::Str(args.workload.clone())),
        ("seed".into(), JsonValue::Int(args.seed as i128)),
        (
            "held_out_seed".into(),
            JsonValue::Int(args.held_out_seed() as i128),
        ),
        (
            "seconds".into(),
            JsonValue::Float(args.seconds.as_secs_f64()),
        ),
        ("trace".into(), JsonValue::Bool(args.trace)),
        ("git_rev".into(), JsonValue::Str(git_rev())),
        (
            "nproc".into(),
            JsonValue::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i128),
        ),
        ("cpu_model".into(), JsonValue::Str(cpu_model())),
        ("samples".into(), JsonValue::Object(samples)),
    ];
    fields.extend(outcome.notes.iter().cloned());
    JsonValue::Object(vec![("bench".into(), JsonValue::Object(fields))])
}

/// The checkout's commit, read from `.git` in the working directory
/// only (a source-only checkout has none).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({r})")),
        None => head,
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs `lpr trace-check` on the traced run's Chrome trace.
fn trace_check(lpr: &Path, trace: &Path) -> bool {
    let status = Command::new(lpr)
        .arg("trace-check")
        .arg(trace)
        .stdout(Stdio::null())
        .status();
    match status {
        Ok(s) if s.success() => true,
        Ok(s) => {
            eprintln!("lpr trace-check {}: {s}", trace.display());
            false
        }
        Err(e) => {
            eprintln!("lpr trace-check: {e}");
            false
        }
    }
}

/// Writes a tracer's journal as Chrome trace JSON.
pub fn write_trace(tracer: &lpr_obs::Tracer, path: &Path) -> Result<(), String> {
    let snapshot = tracer.snapshot();
    if snapshot.dropped > 0 {
        return Err(format!(
            "trace journal wrapped ({} events lost)",
            snapshot.dropped
        ));
    }
    std::fs::write(path, lpr_obs::export::chrome_trace(&snapshot))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs the timed (or traced) part of a workload in a fresh child
/// process, so `peak_rss_mb` covers that work and not the set-up.
pub fn spawn_worker(args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .arg("worker")
        .args(args.to_argv())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("worker: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or("");
    let doc = lpr_obs::json::parse(line)
        .map_err(|e| format!("worker ({}) printed no result: {e:?}", out.status))?;
    let int = |k: &str| {
        doc.get(k)
            .and_then(JsonValue::as_u64)
            .ok_or(format!("worker result lacks {k}"))
    };
    let mut values = Values::new();
    for (name, pair) in doc
        .get("values")
        .and_then(JsonValue::as_object)
        .unwrap_or(&[])
    {
        let pair = pair.as_array().unwrap_or(&[]);
        if let (Some(v), Some(n)) = (
            pair.first().and_then(JsonValue::as_f64),
            pair.get(1).and_then(JsonValue::as_u64),
        ) {
            metrics::put(&mut values, name, v, n as usize);
        }
    }
    Ok(Outcome {
        attempted: int("attempted")?,
        failed: int("failed")?,
        checks_ok: out.status.success()
            && doc
                .get("checks_ok")
                .is_some_and(|v| *v == JsonValue::Bool(true)),
        values,
        notes: doc
            .get("notes")
            .and_then(JsonValue::as_object)
            .unwrap_or(&[])
            .to_vec(),
    })
}

fn worker_main(args: &Args) -> i32 {
    let outcome = match args.workload.as_str() {
        "ark-cycle" => ark::worker(args),
        "probe-campaign" => probe::worker(args),
        other => Err(format!("{other} has no worker")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("lpr-perfbench worker {}: {e}", args.workload);
            return 1;
        }
    };
    let values = outcome
        .values
        .iter()
        .map(|(k, v)| {
            let pair = vec![JsonValue::Float(v.value), JsonValue::Int(v.samples as i128)];
            (k.clone(), JsonValue::Array(pair))
        })
        .collect();
    let doc = JsonValue::Object(vec![
        (
            "attempted".into(),
            JsonValue::Int(outcome.attempted as i128),
        ),
        ("failed".into(), JsonValue::Int(outcome.failed as i128)),
        ("checks_ok".into(), JsonValue::Bool(outcome.checks_ok)),
        ("values".into(), JsonValue::Object(values)),
        ("notes".into(), JsonValue::Object(outcome.notes)),
    ]);
    println!("{}", doc.render());
    0
}

/// Runs `op` back to back until `budget` has elapsed, at least once.
pub fn repeat<T>(budget: Duration, mut op: impl FnMut() -> T) -> Vec<T> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || started.elapsed() < budget {
        out.push(op());
    }
    out
}

/// Times `f`, returning its result and the wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Per-op samples by metric name; a run reports their medians.
pub type Series = std::collections::BTreeMap<&'static str, Vec<f64>>;

/// Adds one sample per `(name, value)` pair.
pub fn push_all(series: &mut Series, samples: impl IntoIterator<Item = (&'static str, f64)>) {
    for (name, value) in samples {
        series.entry(name).or_default().push(value);
    }
}

/// Adds one traced op's resident split and live-heap peak.
pub fn push_memory(series: &mut Series, resident: Option<procfs::Resident>, heap_peak: u64) {
    if let Some(r) = resident {
        push_all(
            series,
            [("mem.anon_mb", r.anon_mb), ("mem.file_mb", r.file_mb)],
        );
    }
    push_all(
        series,
        [("mem.heap_peak_mb", heap_peak as f64 / (1 << 20) as f64)],
    );
}

/// Records the median of every series.
pub fn put_medians(values: &mut Values, series: &Series) {
    for (name, s) in series {
        metrics::put_median(values, name, s);
    }
}
