//! `serve-window`: a live `lpr serve` daemon fed by an open-loop
//! generator that drops cycle files at a fixed rate, while one
//! closed-loop reader alternates `GET /snapshot` and `GET /metrics`.
//! Work falls on `serve` and on `corpus` + `core` run incrementally.

use crate::layers::{back_half, fingerprint, Layers};
use crate::metrics::{put, put_median, Values};
use crate::{
    alloc, procfs, push_all, push_memory, put_medians, stats, timed, Args, Outcome, Series,
    SETUP_REPS,
};
use lpr_core::pipeline::{IngestState, PersistenceWindow, Pipeline};
use lpr_corpus::{ingest_cycle, Corpus, IngestOptions};
use lpr_obs::json::JsonValue;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Cycles kept in the daemon's window; also the number of distinct
/// cycle files the generator rotates through.
const WINDOW: usize = 8;
const FIRST_CYCLE: usize = 33;
/// Drops per second: about half the daemon's steady-state capacity at
/// this window on a 2-core machine, so the queue stays short.
const RATE: f64 = 4.0;
const TICK_MS: &str = "5";
/// A drop not visible in `/snapshot` this long after it was due fails.
const FRESH_DEADLINE: Duration = Duration::from_secs(5);
/// The reader's think time between requests. Without it the reader and
/// the daemon's HTTP thread would keep both cores busy, and freshness
/// would measure CPU contention rather than the daemon's work.
const THINK: Duration = Duration::from_millis(5);
/// Timed drops replayed in-process by the traced run.
const REPLAY_DROPS: usize = 16;

/// The cycle files the generator rotates through.
struct Sources {
    files: Vec<PathBuf>,
    traces: Vec<u64>,
    rib: PathBuf,
}

fn generate(dir: &Path, seed: u64) -> Result<Sources, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    let world = ark_dataset::standard_world();
    let opts = ark_dataset::CampaignOptions {
        snapshots: 1,
        seed,
        ..Default::default()
    };
    let mut files = Vec::new();
    let mut traces = Vec::new();
    for cycle in FIRST_CYCLE..FIRST_CYCLE + WINDOW {
        let t = ark_dataset::generate_snapshot(&world, cycle, 0, &opts);
        let paths =
            lpr_corpus::write_corpus_files(dir, &format!("cycle{cycle}"), &t, 1).map_err(io)?;
        files.extend(paths);
        traces.push(t.len() as u64);
    }
    let rib = dir.join("rib.txt");
    std::fs::write(&rib, ip2as::to_rib_string(world.rib())).map_err(io)?;
    Ok(Sources { files, traces, rib })
}

/// Drop `k` carries the rotation's `k mod WINDOW`-th cycle under a
/// fresh, monotonically increasing name.
fn drop_name(k: usize) -> String {
    format!("d{k:06}.warts")
}

/// Publishes drop `k`: hard-link (or copy) into a staging directory,
/// then rename into the spool, so the daemon never sees a partial file.
fn publish(sources: &Sources, staging: &Path, spool: &Path, k: usize) -> std::io::Result<()> {
    let src = &sources.files[k % WINDOW];
    let staged = staging.join(drop_name(k));
    if std::fs::hard_link(src, &staged).is_err() {
        std::fs::copy(src, &staged)?;
    }
    std::fs::rename(&staged, spool.join(drop_name(k)))
}

/// A running `lpr serve` child and the client's request count.
struct Daemon {
    child: Child,
    /// Held open so the daemon's stdout never breaks.
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
    requests: u64,
}

impl Daemon {
    fn start(lpr: &Path, spool: &Path, rib: &Path) -> Result<Daemon, String> {
        let window = WINDOW.to_string();
        let mut child = Command::new(lpr)
            .arg("serve")
            .arg("--spool")
            .arg(spool)
            .arg("--rib")
            .arg(rib)
            .args(["--window", &window, "--tick-ms", TICK_MS, "--threads", "1"])
            .args(["--addr", "127.0.0.1:0"])
            // The daemon ingests each drop on a fresh thread; with
            // glibc's default arenas its VmHWM then depends on which
            // arena each thread is handed (34 or 40 MiB, run to run).
            // One arena makes `peak_rss_mb` measure the daemon's work.
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("{}: {e}", lpr.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = line
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
                requests: 0,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("lpr serve did not report its address: {line:?}"))
            }
        }
    }

    /// One GET, timed client-side from connect to last byte.
    fn get(&mut self, path: &str) -> (std::io::Result<(u16, String)>, f64) {
        self.requests += 1;
        let (res, secs) = timed(|| lpr_serve::http::get(self.addr, path));
        (res, secs * 1e3)
    }

    /// `files.kept` of a `/snapshot` body.
    fn kept(body: &str) -> Option<usize> {
        let doc = lpr_obs::json::parse(body).ok()?;
        doc.get("files")?.get("kept")?.as_u64().map(|n| n as usize)
    }

    /// Polls `/snapshot` until `n` files are kept.
    fn wait_kept(&mut self, n: usize, deadline: Instant) -> Result<(), String> {
        loop {
            if let (Ok((200, body)), _) = self.get("/snapshot") {
                if Daemon::kept(&body).is_some_and(|k| k >= n) {
                    return Ok(());
                }
            }
            if Instant::now() > deadline {
                return Err(format!("daemon did not keep {n} files in time"));
            }
            std::thread::sleep(THINK);
        }
    }

    /// Peak resident set of the daemon, MiB (read while it runs).
    fn peak_rss_mb(&self) -> Option<f64> {
        procfs::peak_rss_mb(self.child.id())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The batch reference for the window's last `WINDOW` drops: the
/// rendered `pipeline` section the daemon's `/snapshot` must carry.
fn batch_pipeline(
    sources: &Sources,
    rib: &ip2as::Ip2AsTrie,
    drops: std::ops::Range<usize>,
) -> Result<String, String> {
    let mut window = IngestState::default();
    for (cycle, k) in drops.enumerate() {
        let path = &sources.files[k % WINDOW];
        let corpus = Corpus::open_with(std::slice::from_ref(path), false, None)
            .map_err(|e| e.to_string())?;
        let (mut state, _) = ingest_cycle(&corpus, rib, IngestOptions::new(1), None);
        state.tag_cycle(cycle as u64);
        window.merge(state);
    }
    let out = Pipeline::default().finish_stages(window, &[], None, lpr_par::ShardOptions::new(1));
    Ok(lpr_serve::snapshot_pipeline_json(&out).render())
}

/// Whether the daemon's current `/snapshot` pipeline section equals
/// `expect`.
fn snapshot_matches(daemon: &mut Daemon, expect: &str) -> bool {
    match daemon.get("/snapshot") {
        (Ok((200, body)), _) => lpr_obs::json::parse(&body)
            .ok()
            .and_then(|doc| doc.get("pipeline").map(JsonValue::render))
            .is_some_and(|got| got == expect),
        _ => false,
    }
}

/// One set-up: cycle files, daemon start, and the window warm-up (the
/// first `WINDOW` drops, on the generator's schedule, not timed).
struct Setup {
    sources: Sources,
    rib: ip2as::Ip2AsTrie,
    daemon: Daemon,
    spool: PathBuf,
    staging: PathBuf,
}

fn setup(args: &Args, dir: &Path, seed: u64) -> Result<Setup, String> {
    let _ = std::fs::remove_dir_all(dir);
    let spool = dir.join("spool");
    let staging = dir.join("staging");
    for d in [&spool, &staging] {
        std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
    }
    let sources = generate(&dir.join("cycles"), seed)?;
    let rib = ip2as::parse_rib(&std::fs::read_to_string(&sources.rib).map_err(|e| e.to_string())?)
        .map_err(|e| e.to_string())?;
    let mut daemon = Daemon::start(&args.lpr, &spool, &sources.rib)?;
    let t0 = Instant::now();
    for k in 0..WINDOW {
        sleep_until(t0 + due(k, RATE));
        publish(&sources, &staging, &spool, k).map_err(|e| format!("drop {k}: {e}"))?;
    }
    daemon.wait_kept(WINDOW, Instant::now() + Duration::from_secs(60))?;
    Ok(Setup {
        sources,
        rib,
        daemon,
        spool,
        staging,
    })
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// When the `j`-th drop of a schedule is due, from the schedule start.
fn due(j: usize, rate: f64) -> Duration {
    Duration::from_secs_f64(j as f64 / rate)
}

/// Drops that became visible with one `/snapshot`: `kept` rose from
/// `seen` to `kept` at `observed` (since the timed schedule began).
/// Returns `(timed index, freshness ms)` for each timed drop among them;
/// the first `warmup` drops and drops past the `n` timed ones are not
/// timed.
fn newly_fresh(
    seen: usize,
    kept: usize,
    warmup: usize,
    n: usize,
    observed: Duration,
    rate: f64,
) -> Vec<(usize, f64)> {
    (seen.max(warmup)..kept.min(warmup + n))
        .map(|k| {
            let j = k - warmup;
            (
                j,
                (observed.as_secs_f64() - due(j, rate).as_secs_f64()) * 1e3,
            )
        })
        .collect()
}

/// What the timed phase measured.
#[derive(Default)]
struct Live {
    fresh_ms: Vec<Option<f64>>,
    http_ms: Vec<f64>,
    late_ms: Vec<f64>,
    requests: u64,
    bad_responses: u64,
    failed_drops: u64,
}

/// The timed phase: the generator thread publishes `n` drops at
/// `RATE` while this thread reads in a closed loop.
fn live(s: &mut Setup, n: usize) -> Result<Live, String> {
    let t1 = Instant::now();
    let stop_at = t1 + due(n, RATE) + FRESH_DEADLINE;
    let mut live = Live {
        fresh_ms: vec![None; n],
        ..Default::default()
    };
    let (sources, staging, spool) = (&s.sources, &s.staging, &s.spool);
    let daemon = &mut s.daemon;
    let late = std::thread::scope(|scope| {
        let generator = scope.spawn(move || -> std::io::Result<Vec<f64>> {
            let mut late = Vec::with_capacity(n);
            for j in 0..n {
                let t = t1 + due(j, RATE);
                sleep_until(t);
                late.push(t.elapsed().as_secs_f64() * 1e3);
                publish(sources, staging, spool, WINDOW + j)?;
            }
            Ok(late)
        });
        let mut seen = WINDOW;
        let paths = ["/snapshot", "/metrics"];
        let mut i = 0usize;
        while seen < WINDOW + n && Instant::now() < stop_at {
            let path = paths[i % 2];
            i += 1;
            std::thread::sleep(THINK);
            let (res, ms) = daemon.get(path);
            live.requests += 1;
            live.http_ms.push(ms);
            match res {
                Ok((200, body)) if path == "/snapshot" => {
                    let observed = t1.elapsed();
                    let Some(kept) = Daemon::kept(&body) else {
                        live.bad_responses += 1;
                        continue;
                    };
                    for (j, ms) in newly_fresh(seen, kept, WINDOW, n, observed, RATE) {
                        live.fresh_ms[j] = Some(ms);
                    }
                    seen = seen.max(kept);
                }
                Ok((200, _)) => {}
                _ => live.bad_responses += 1,
            }
        }
        generator.join().expect("generator thread panicked")
    });
    live.late_ms = late.map_err(|e| format!("generator: {e}"))?;
    let deadline_ms = FRESH_DEADLINE.as_secs_f64() * 1e3;
    live.failed_drops = live
        .fresh_ms
        .iter()
        .filter(|f| !f.is_some_and(|ms| ms <= deadline_ms))
        .count() as u64;
    Ok(live)
}

/// The daemon's own `serve.http_requests` counter from `/metrics`.
fn served_requests(daemon: &mut Daemon) -> Option<u64> {
    match daemon.get("/metrics") {
        (Ok((200, body)), _) => body.lines().find_map(|l| {
            l.strip_prefix("serve_http_requests ")
                .and_then(|v| v.trim().parse().ok())
        }),
        _ => None,
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let dir = args.data_dir();
    let mut setup_s = Vec::new();
    let mut held_out_ok = false;
    let mut kept_setup = None;
    for rep in 0..SETUP_REPS {
        let seed = if rep == 0 {
            args.held_out_seed()
        } else {
            args.seed
        };
        let (s, secs) = timed(|| setup(args, &dir.join(format!("rep{rep}")), seed));
        let mut s = s?;
        setup_s.push(secs);
        if rep == 0 {
            let expect = batch_pipeline(&s.sources, &s.rib, 0..WINDOW)?;
            held_out_ok = snapshot_matches(&mut s.daemon, &expect);
        }
        if rep + 1 == SETUP_REPS {
            kept_setup = Some(s);
        } else {
            drop(s);
            let _ = std::fs::remove_dir_all(dir.join(format!("rep{rep}")));
        }
    }
    let mut s = kept_setup.expect("at least one set-up");

    let n = ((args.seconds.as_secs_f64() * RATE) as usize).max(1);
    let live = live(&mut s, n)?;
    let expect = batch_pipeline(&s.sources, &s.rib, n..n + WINDOW)?;
    let final_ok = snapshot_matches(&mut s.daemon, &expect);
    let served = served_requests(&mut s.daemon);
    let counter_ok = served == Some(s.daemon.requests);
    let peak = s.daemon.peak_rss_mb().ok_or("daemon VmHWM unreadable")?;
    if !final_ok {
        eprintln!("serve-window: final /snapshot differs from batch finish_stages over the last {WINDOW} cycles");
    }
    if !counter_ok {
        eprintln!(
            "serve-window: daemon counted {served:?} requests, client sent {}",
            s.daemon.requests
        );
    }
    drop(s.daemon);

    let mut values = Values::new();
    let fresh: Vec<f64> = live.fresh_ms.iter().flatten().copied().collect();
    let rates: Vec<f64> = live
        .fresh_ms
        .iter()
        .enumerate()
        .filter_map(|(j, f)| {
            f.map(|ms| s.sources.traces[(WINDOW + j) % WINDOW] as f64 / (ms / 1e3))
        })
        .collect();
    let mut percentile = |name: &str, series: &[f64], pct: u32| match stats::percentile(series, pct)
    {
        Some(v) => put(&mut values, name, v, series.len()),
        None => eprintln!(
            "serve-window: {name} not reported: {} samples leave fewer than {} beyond p{pct}",
            series.len(),
            stats::MIN_BEYOND
        ),
    };
    percentile("freshness_p90_ms", &fresh, 90);
    percentile("http_p99_ms", &live.http_ms, 99);
    put_median(&mut values, "freshness_p50_ms", &fresh);
    // Each trace of a drop is one (vp, dst) pair's measurement.
    put_median(&mut values, "traces_per_s", &rates);
    put_median(&mut values, "pairs_per_s", &rates);
    put_median(&mut values, "http_p50_ms", &live.http_ms);
    put(&mut values, "peak_rss_mb", peak, 1);
    put(
        &mut values,
        "serve.http_requests",
        served.unwrap_or(0) as f64,
        1,
    );
    let max_late = live.late_ms.iter().copied().fold(0.0, f64::max);
    put(
        &mut values,
        "serve.gen_late_ms",
        max_late,
        live.late_ms.len(),
    );
    put_median(&mut values, "setup_s", &setup_s);
    let mut checks_ok = held_out_ok && final_ok && counter_ok;
    if args.trace {
        checks_ok &= replay(args, &s.sources, &s.rib, &mut values)?;
    }
    Ok(Outcome {
        attempted: n as u64 + live.requests,
        failed: live.failed_drops + live.bad_responses,
        checks_ok,
        values,
        notes: vec![
            ("held_out_passed".into(), JsonValue::Bool(held_out_ok)),
            (
                "final_snapshot_matches_batch".into(),
                JsonValue::Bool(final_ok),
            ),
            (
                "request_counter_matches".into(),
                JsonValue::Bool(counter_ok),
            ),
            ("drop_rate_per_s".into(), JsonValue::Float(RATE)),
            ("timed_drops".into(), JsonValue::Int(n as i128)),
        ],
    })
}

/// The traced run's replay of the daemon's per-drop work on the same
/// drop sequence, in-process: untraced first (the baseline), then one
/// public call per span. Returns whether both replays rendered the
/// same bodies for every drop.
fn replay(
    args: &Args,
    sources: &Sources,
    rib: &ip2as::Ip2AsTrie,
    values: &mut Values,
) -> Result<bool, String> {
    let drops = WINDOW + REPLAY_DROPS;
    let mut state = IngestState::default();
    let mut untraced_ms = Vec::new();
    let mut bodies = Vec::new();
    for k in 0..drops {
        let (rendered, secs) = timed(|| -> Result<(String, String), String> {
            let path = &sources.files[k % WINDOW];
            let corpus = Corpus::open_with(std::slice::from_ref(path), false, None)
                .map_err(|e| e.to_string())?;
            let (mut st, _) = ingest_cycle(&corpus, rib, IngestOptions::new(1), None);
            st.tag_cycle(k as u64);
            state.merge(st);
            if state.cycles().len() > WINDOW {
                state.evict_before((k + 1 - WINDOW) as u64);
            }
            let out = Pipeline::default().finish_stages(
                state.clone(),
                &[],
                None,
                lpr_par::ShardOptions::new(1),
            );
            Ok((
                lpr_serve::snapshot_pipeline_json(&out).render(),
                lpr_serve::per_as_json(&out).render(),
            ))
        });
        if k >= WINDOW {
            untraced_ms.push(secs * 1e3);
        }
        bodies.push(fingerprint(&rendered?));
    }
    let untraced = stats::median(&untraced_ms).unwrap_or(f64::NAN);

    let tracer = lpr_obs::Tracer::new(lpr_obs::Level::Info);
    let mut state = IngestState::default();
    let mut series = Series::new();
    let mut same = true;
    for (k, body) in bodies.iter().enumerate() {
        alloc::reset_peak();
        let mut layers = Layers::start(&tracer, "serve-drop");
        let path = &sources.files[k % WINDOW];
        let records = layers.group("serve.ingest", |layers| -> Result<u64, String> {
            let corpus = layers
                .call("corpus.open", || {
                    Corpus::open_with(std::slice::from_ref(path), false, None)
                })
                .map_err(|e| e.to_string())?;
            layers.call("serve.ingest_cycle", || {
                let (mut st, _) = ingest_cycle(&corpus, rib, IngestOptions::new(1), None);
                st.tag_cycle(k as u64);
                state.merge(st);
                if state.cycles().len() > WINDOW {
                    state.evict_before((k + 1 - WINDOW) as u64);
                }
            });
            Ok(corpus.total_records())
        })?;
        let window = layers.call("serve.window_clone", || state.clone());
        let out = layers
            .group("serve.rebuild", |layers| {
                back_half(
                    layers,
                    &Pipeline::default(),
                    window,
                    PersistenceWindow::Mem(&[]),
                )
            })
            .map_err(|e| e.to_string())?;
        let rendered = layers.call("serve.render", || {
            (
                lpr_serve::snapshot_pipeline_json(&out).render(),
                lpr_serve::per_as_json(&out).render(),
            )
        });
        let resident = layers.aside("mem.sample", procfs::resident_self);
        let costs = layers.finish();
        same &= fingerprint(&rendered) == *body;
        if k < WINDOW {
            continue;
        }
        let per = |n: u64, d: u64| n as f64 / d.max(1) as f64;
        let open = costs.leaf("corpus.open");
        let classify = costs.leaf("core.classify");
        push_all(
            &mut series,
            [
                ("corpus.open_ms", open.ms),
                ("corpus.index_allocs_per_record", per(open.allocs, records)),
                ("corpus.records", records as f64),
                ("serve.ingest_ms", costs.group("serve.ingest").ms),
                ("serve.window_clone_ms", costs.leaf("serve.window_clone").ms),
                ("serve.rebuild_ms", costs.group("serve.rebuild").ms),
                ("serve.render_ms", costs.leaf("serve.render").ms),
                ("core.diversity_ms", costs.leaf("core.diversity").ms),
                ("core.persistence_ms", costs.leaf("core.persistence").ms),
                ("core.classify_ms", classify.ms),
                (
                    "core.classify_allocs_per_iotp",
                    per(classify.allocs, out.iotps.len() as u64),
                ),
                ("core.lsps_in", out.report.input as f64),
                ("core.iotps", out.iotps.len() as f64),
                ("unattributed_ms", costs.unattributed_ms()),
                ("op.traced_ms", costs.total_ms),
                ("op.untraced_ms", untraced),
                ("trace_overhead_ratio", costs.total_ms / untraced),
            ],
        );
        push_memory(&mut series, resident, alloc::heap_peak());
    }
    put_medians(values, &series);
    crate::write_trace(&tracer, &args.trace_path())?;
    if !same {
        eprintln!("serve-window: traced replay rendered different bodies than the untraced replay");
    }
    Ok(same)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drops_are_due_on_the_rate_grid() {
        assert_eq!(due(0, 4.0), Duration::ZERO);
        assert_eq!(due(6, 4.0), Duration::from_millis(1500));
    }

    #[test]
    fn freshness_counts_from_the_due_time() {
        // Window of 8 warm-up drops; kept rose from 8 to 10 when the
        // snapshot came back 700 ms into the timed schedule at 4/s:
        // timed drops 0 (due 0 ms) and 1 (due 250 ms) became visible.
        let fresh = newly_fresh(8, 10, 8, 100, Duration::from_millis(700), 4.0);
        assert_eq!(fresh.len(), 2);
        assert_eq!(fresh[0].0, 0);
        assert!((fresh[0].1 - 700.0).abs() < 1e-9);
        assert_eq!(fresh[1].0, 1);
        assert!((fresh[1].1 - 450.0).abs() < 1e-9);
    }

    #[test]
    fn warm_up_and_untimed_drops_are_not_timed() {
        // Warm-up drops becoming visible produce no sample.
        assert!(newly_fresh(3, 8, 8, 100, Duration::from_secs(1), 4.0).is_empty());
        // Only the 2 timed drops exist even if more were counted.
        let fresh = newly_fresh(8, 20, 8, 2, Duration::from_secs(1), 4.0);
        assert_eq!(fresh.iter().map(|f| f.0).collect::<Vec<_>>(), vec![0, 1]);
        // A snapshot that shows no new drop yields nothing.
        assert!(newly_fresh(12, 12, 8, 100, Duration::from_secs(9), 4.0).is_empty());
    }

    #[test]
    fn drop_names_sort_in_drop_order() {
        assert!(drop_name(9) < drop_name(10));
        assert!(drop_name(99_999) < drop_name(100_000));
    }
}
