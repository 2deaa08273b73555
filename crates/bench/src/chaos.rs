use crate::{usage_error, AT_LEAST_1};
use lpr_core::pipeline::Pipeline;
use lpr_core::prelude::*;
use lpr_obs::args::{self, Arg, TraceOut};
use lpr_obs::json::JsonValue;
use std::io::Write;
use std::net::Ipv4Addr;

/// Parses a comma-separated fault-rate list; the rate-0 baseline is
/// always swept first so every row has a drift reference.
pub(crate) fn parse_rates(spec: &str) -> Result<Vec<f64>, String> {
    let mut rates: Vec<f64> = Vec::new();
    for part in spec.split(',') {
        let r: f64 = part.trim().parse().map_err(|e| format!("`{part}`: {e}"))?;
        if !(0.0..=1.0).contains(&r) {
            return Err(format!("`{part}`: fault rates live in [0, 1]"));
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

pub(crate) fn chaos(args: &[String]) -> i32 {
    let mut out_path = "BENCH_chaos.json".to_string();
    let mut seed = 42u64;
    let mut rates = vec![0.0, 0.02, 0.05, 0.10];
    let mut snapshots = 3usize;
    let mut cycle = 40usize;
    let mut drift_bound = 0.5f64;
    let mut trace = TraceOut::default();
    let parsed = args::each(args, |arg, a| {
        match arg {
            Arg::Flag("--out") => out_path = a.value()?,
            Arg::Flag("--seed") => seed = a.parse()?,
            Arg::Flag("--rates") => rates = parse_rates(&a.value()?).map_err(|e| a.error(e))?,
            Arg::Flag("--snapshots") => snapshots = a.parse_where(|n| *n >= 1, AT_LEAST_1)?,
            Arg::Flag("--cycle") => cycle = a.parse()?,
            Arg::Flag("--drift-bound") => drift_bound = a.parse()?,
            Arg::Flag(flag) if trace.accept(flag, a)? => {}
            _ => return Err(a.unknown()),
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return usage_error(e);
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
    let tracer = trace.tracer();
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
            writer.trace(&warts::trace_to_record(t, list, cyc));
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
    if let Err(e) = trace.write(&tracer) {
        eprintln!("{e}");
        return 1;
    }
    if failed {
        eprintln!("chaos sweep failed (determinism, reconciliation, or drift)");
        return 1;
    }
    0
}
