use crate::{campaign_fingerprint, sweep_json, usage_error, CAMPAIGN_THREADS};
use lpr_obs::args::{self, Arg};
use lpr_obs::json::JsonValue;
use std::io::Write;

/// `lpr-bench revelation`: the A/B gate for the TNT-style revelation
/// phase. Renders one cycle under a tunnel-visibility mix that hides
/// part of the MPLS deployment, runs the campaign with revelation at
/// probing thread counts 1/2/4/8 (byte-identity required), and
/// analyses the cycle twice — plain LPR vs LPR plus revealed evidence.
/// Passes when revelation recovers diversity (IOTP count rises, the
/// Unclassified share does not grow), at least one tunnel was actually
/// revealed, the probe overhead is accounted, and every thread count
/// reproduced the sequential run byte-for-byte.
pub(crate) fn revelation_cmd(args: &[String]) -> i32 {
    let mut out_path = "BENCH_revelation.json".to_string();
    let mut cycle = 40usize;
    let mut mix = netsim::VisibilityMix {
        explicit: 0.4,
        implicit: 0.2,
        invisible: 0.2,
        opaque: 0.2,
    };
    let parsed = args::each(args, |arg, a| {
        match arg {
            Arg::Flag("--out") => out_path = a.value()?,
            Arg::Flag("--cycle") => cycle = a.parse()?,
            Arg::Flag("--mix") => {
                let v = a.value()?;
                mix = netsim::VisibilityMix::parse(&v)
                    .ok_or_else(|| a.error(format!("cannot parse `{v}`")))?;
            }
            _ => return Err(a.unknown()),
        }
        Ok(())
    });
    if let Err(e) = parsed {
        return usage_error(e);
    }

    let world = ark_dataset::standard_world();
    let reveal_opts = netsim::RevelationOptions::default();
    let generate = |threads: usize| {
        let opts = ark_dataset::CampaignOptions {
            visibility: Some(mix),
            threads,
            ..Default::default()
        };
        ark_dataset::generate_cycle_with_revelation(&world, cycle, &opts, &reveal_opts)
    };

    say!("revelation campaign: cycle {cycle}, mix {} …", mix.render());
    let (data, evidence) = generate(1);
    let ref_fp = campaign_fingerprint(&data.snapshots);
    let traces = data.snapshots.iter().map(Vec::len).sum::<usize>();
    say!("  sequential: {traces} traces  {} candidates", evidence.len());

    // Thread sweep: traces, budget and evidence must all reproduce the
    // sequential run exactly at every probing thread count.
    let mut matches_all = true;
    let mut sweep_rows: Vec<(usize, bool)> = vec![(1, true)];
    for &n in &CAMPAIGN_THREADS[1..] {
        let (d, ev) = generate(n);
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
        sweep_rows.push((n, matches));
        say!(
            "  revelation @{n} threads: {}",
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
        ("thread_sweep".to_string(), sweep_json(&sweep_rows)),
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
