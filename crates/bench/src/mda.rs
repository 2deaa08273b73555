use crate::{
    campaign_fingerprint, probe_ceiling_breached, probing_json, say_budget, sweep_json,
    usage_error, AT_LEAST_1, CAMPAIGN_THREADS,
};
use lpr_obs::args::{self, Arg};
use lpr_obs::json::JsonValue;
use std::io::Write;

/// The `mda` subcommand: gates the stochastic prober against the
/// exhaustive oracle — the per-pair probes-vs-recall curve, then a
/// full-campaign probe-budget/recall comparison with the
/// thread-identity self-check (see USAGE for the pass bar).
pub(crate) fn mda_cmd(args: &[String]) -> i32 {
    use std::collections::BTreeSet;

    let mut out_path = "BENCH_mda.json".to_string();
    let mut cycle = 40usize;
    let mut hosts = 24usize;
    let mut max_probes_per_dst: Option<f64> = None;
    let parsed = args::each(args, |arg, a| {
        match arg {
            Arg::Flag("--out") => out_path = a.value()?,
            Arg::Flag("--cycle") => cycle = a.parse()?,
            Arg::Flag("--hosts") => hosts = a.parse_where(|n| *n >= 1, AT_LEAST_1)?,
            Arg::Flag("--max-probes-per-dst") => {
                let max = a.parse_where(|f| *f > 0.0, "wants a positive number")?;
                max_probes_per_dst = Some(max);
            }
            _ => return Err(a.unknown()),
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return usage_error(e);
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
        ark_dataset::generate_cycle(&world, cycle, &opts)
    };

    // The exhaustive oracle is distilled to its IOTP set, budget and
    // trace count right away: at most one cycle's traces stay resident
    // at a time.
    let exhaustive = generate(netsim::ProbingStrategy::Exhaustive, 1);
    let ex_traces = exhaustive.snapshots.iter().map(Vec::len).sum::<usize>();
    let ex_budget = exhaustive.budget;
    say!("  exhaustive: {ex_traces} traces");
    say_budget(netsim::ProbingStrategy::Exhaustive, &ex_budget);
    let ex_iotps = iotp_keys(&exhaustive);
    drop(exhaustive);

    // MDA-Lite at every campaign thread count; the sequential run is
    // the reference the others must reproduce byte-for-byte, checked
    // through the warts-encoded campaign fingerprint plus the exact
    // budget so each run's traces can be dropped immediately.
    let mut lite_ref: Option<(u64, netsim::ProbeBudget)> = None;
    let mut lite_iotps = BTreeSet::new();
    let mut matches_all = true;
    let mut sweep_rows: Vec<(usize, bool)> = Vec::new();
    for &n in &CAMPAIGN_THREADS {
        let d = generate(netsim::ProbingStrategy::MdaLite, n);
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
        sweep_rows.push((n, matches));
        say!(
            "  mda-lite @{n} threads: {}",
            if matches { "bytes identical" } else { "BYTES DIVERGED" },
        );
        if lite_ref.is_none() {
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
        "  IOTP recall {recovered}/{} = {iotp_recall:.3}; probes {} -> {} ({:.1}% saved)",
        ex_iotps.len(),
        ex_budget.probes_sent,
        lite_budget.probes_sent,
        probe_reduction * 100.0,
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
    let campaign_side = |strategy: netsim::ProbingStrategy,
                         budget: &netsim::ProbeBudget,
                         iotps: usize| {
        JsonValue::Object(vec![
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
                        netsim::ProbingStrategy::Exhaustive,
                        &ex_budget,
                        ex_iotps.len(),
                    ),
                ),
                (
                    "mda_lite".to_string(),
                    campaign_side(
                        netsim::ProbingStrategy::MdaLite,
                        &lite_budget,
                        lite_iotps.len(),
                    ),
                ),
                ("thread_sweep".to_string(), sweep_json(&sweep_rows)),
                ("iotp_recall".to_string(), JsonValue::Float(iotp_recall)),
                ("probe_reduction".to_string(), JsonValue::Float(probe_reduction)),
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
