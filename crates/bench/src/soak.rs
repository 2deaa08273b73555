use crate::{usage_error, AT_LEAST_1};
use lpr_core::pipeline::Pipeline;
use lpr_obs::args::{self, Arg};
use lpr_obs::json::JsonValue;
use std::io::Write;

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
pub(crate) fn serve_soak(args: &[String]) -> i32 {
    let mut cycles = 5usize;
    let mut chaos_rate = 0.10f64;
    let mut seed = 1u64;
    let mut threads = 1usize;
    let mut out_path = "BENCH_serve.json".to_string();
    let mut keep_spool = false;
    let parsed = args::each(args, |arg, a| {
        match arg {
            Arg::Flag("--cycles") => cycles = a.parse_where(|n| *n >= 1, AT_LEAST_1)?,
            Arg::Flag("--chaos-rate") => {
                chaos_rate =
                    a.parse_where(|f| (0.0..=1.0).contains(f), "wants a fraction in [0,1]")?
            }
            Arg::Flag("--seed") => seed = a.parse()?,
            Arg::Flag("--threads") => threads = a.parse()?,
            Arg::Flag("--out") => out_path = a.value()?,
            Arg::Flag("--keep-spool") => keep_spool = true,
            _ => return Err(a.unknown()),
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return usage_error(e);
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
            writer.trace(&warts::trace_to_record(t, list, cyc));
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
