//! `probe-campaign`: simulate and probe one cycle with MDA-Lite and TNT
//! revelation, then analyse it in memory. The only workload where
//! `netsim` does the op's work; it never touches `warts` or `corpus`.

use crate::layers::{back_half, extract, fingerprint, Layers, OpCosts};
use crate::metrics::{put, put_median, Values};
use crate::{
    alloc, procfs, push_all, push_memory, put_medians, repeat, stats, timed, Args, Outcome, Series,
    SETUP_REPS,
};
use ark_dataset::{CampaignOptions, CycleAnalysis, World};
use lpr_core::filter::{attribute_and_filter, FilterConfig};
use lpr_core::pipeline::{IngestState, PersistenceWindow, Pipeline, PipelineOutput};
use lpr_core::report::CycleReport;
use lpr_core::reveal::apply_revelations;
use lpr_obs::json::JsonValue;
use netsim::{
    Internet, ProbeBudget, ProbeOptions, Prober, ProbingStrategy, RevelationOptions, VisibilityMix,
};

const SCALE: usize = 4;
const CYCLE: usize = 40;
const SNAPSHOTS: usize = 3;
/// Hosts per destination /24: 235,872 requested pairs per op.
const HOSTS_PER_PREFIX: usize = 4;
/// Persistence window `j`.
const J: usize = 2;
const VISIBILITY: &str = "explicit:0.4,implicit:0.2,invisible:0.2,opaque:0.2";

fn options(seed: u64) -> CampaignOptions {
    CampaignOptions {
        snapshots: SNAPSHOTS,
        seed,
        hosts_per_prefix: HOSTS_PER_PREFIX,
        threads: 1,
        probing: ProbingStrategy::MdaLite,
        visibility: Some(VisibilityMix::parse(VISIBILITY).expect("visibility mix literal parses")),
        ..Default::default()
    }
}

/// What one op produced, fingerprinted for the byte-identity check.
struct OpResult {
    output: PipelineOutput,
    report: CycleReport,
    budget: ProbeBudget,
    traces: u64,
}

impl OpResult {
    fn fingerprint(&self) -> u64 {
        fingerprint(&(&self.output, &self.report, &self.budget))
    }

    /// The op's own invariants: budget accounting and class tallies.
    fn consistent(&self) -> bool {
        let b = &self.budget;
        b.pairs_probed + b.pairs_pruned == b.pairs_total
            && b.revelation_revealed <= b.revelation_triggers
            && self.output.class_counts().total() == self.output.iotps.len()
    }
}

/// One op: the cycle with revelation, then the revealed analysis.
fn op(world: &World, opts: &CampaignOptions) -> OpResult {
    netsim::igp::spf_cache_reset();
    let (data, evidence) = ark_dataset::generate_cycle_with_revelation(
        world,
        CYCLE,
        opts,
        &RevelationOptions::default(),
    );
    let CycleAnalysis { output, report } =
        ark_dataset::analyze_cycle_revealed(world, &data, J, &evidence);
    let traces = data.snapshots.iter().map(|s| s.len() as u64).sum();
    OpResult {
        output,
        report,
        budget: data.budget,
        traces,
    }
}

/// The same op, one public call per span. The primary snapshot is
/// probed a second time without revelation, beside the op, so the
/// revelation phase's cost is the difference.
fn traced_op(layers: &mut Layers, world: &World, opts: &CampaignOptions) -> OpResult {
    netsim::igp::spf_cache_reset();
    let mut configs = ark_dataset::configs_for_cycle(CYCLE);
    if let Some(mix) = opts.visibility {
        for cfg in configs.values_mut().filter(|c| c.enabled) {
            cfg.visibility = mix;
        }
    }
    let net = layers.call("netsim.control_plane", || {
        Internet::new(world.topo.clone(), &configs)
    });
    let (vps, dsts) = ark_dataset::campaign::probing_list(world, CYCLE, opts);
    let prober = Prober::new(
        &net,
        ProbeOptions {
            seed: opts.seed,
            snapshot_salt: (CYCLE as u64) << 8,
            flow_churn_rate: 0.0,
            probing: opts.probing,
            ..ProbeOptions::default()
        },
    );
    let reveal = RevelationOptions::default();
    let (primary, mut budget, evidence) = layers.call("netsim.primary_probe", || {
        prober.campaign_with_revelation(&vps, &dsts, opts.threads, &reveal)
    });
    layers.aside("netsim.primary_without_revelation", || {
        std::hint::black_box(prober.campaign_with_budget(&vps, &dsts, opts.threads));
    });
    let mut snapshots = vec![primary];
    for snap in 1..SNAPSHOTS {
        let (traces, b) = layers.call("dataset.snapshot", || {
            ark_dataset::generate_snapshot_with_budget(world, CYCLE, snap, opts)
        });
        budget.merge(&b);
        snapshots.push(traces);
    }

    let pipeline = Pipeline::new(FilterConfig {
        persistence_window: J,
        ..Default::default()
    });
    let mut output = layers.group("core.pipeline_inmem", |layers| {
        let future: Vec<_> = snapshots[1..]
            .iter()
            .take(J)
            .map(|traces| layers.call("core.persistence", || Pipeline::snapshot_keys(traces)))
            .collect();
        let primary = &snapshots[0];
        let (tunnels, degraded) = layers.call("core.extract", || extract(primary));
        let attributed = layers.call("core.attribute", || {
            attribute_and_filter(&tunnels, world.rib())
        });
        let ingest = IngestState {
            traces_in: primary.len() as u64,
            input: tunnels.len(),
            after_incomplete: attributed.after_incomplete,
            after_intra_as: attributed.after_intra_as,
            lsps: attributed.lsps,
            degraded,
            ..Default::default()
        };
        back_half(layers, &pipeline, ingest, PersistenceWindow::Mem(&future))
            .expect("the in-memory window performs no IO")
    });
    layers.call("core.reveal", || {
        apply_revelations(&mut output, &evidence, None)
    });
    let report = layers.call("dataset.report", || {
        CycleReport::build(&snapshots[0], &output, world.rib())
    });
    let traces = snapshots.iter().map(|s| s.len() as u64).sum();
    OpResult {
        output,
        report,
        budget,
        traces,
    }
}

/// `probe-campaign` generates its inputs inside the op, so the worker
/// does all of the run.
pub fn run(args: &Args) -> Result<Outcome, String> {
    crate::spawn_worker(args)
}

pub fn worker(args: &Args) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut world = None;
    for _ in 0..SETUP_REPS {
        let (w, secs) = timed(|| ark_dataset::scaled_world(SCALE));
        setup_s.push(secs);
        world = Some(w);
    }
    let world = world.expect("at least one set-up");
    let held_out = op(&world, &options(args.held_out_seed()));
    let held_out_ok = held_out.consistent();
    drop(held_out);

    let opts = options(args.seed);
    let mut first: Option<u64> = None;
    let mut check = |r: &OpResult| -> bool {
        let fp = r.fingerprint();
        r.consistent() && *first.get_or_insert(fp) == fp
    };
    let untraced_budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };
    // Each op is checked as it finishes, so no output outlives its op.
    let runs = repeat(untraced_budget, || {
        let (r, secs) = timed(|| op(&world, &opts));
        (check(&r).then_some((r.budget.pairs_total, r.traces)), secs)
    });
    let mut attempted = runs.len() as u64;
    let mut failed = 0u64;
    let mut series = Series::new();
    for (ok, secs) in &runs {
        match ok {
            Some((pairs, traces)) => push_all(
                &mut series,
                [
                    ("freshness_p50_ms", secs * 1e3),
                    ("traces_per_s", *traces as f64 / secs),
                    ("pairs_per_s", *pairs as f64 / secs),
                ],
            ),
            None => failed += 1,
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
            let mut layers = Layers::start(&tracer, "probe-campaign");
            let r = traced_op(&mut layers, &world, &opts);
            let spf = netsim::igp::spf_cache_stats();
            let resident = procfs::resident_self();
            let costs = layers.finish();
            let samples = check(&r).then(|| layer_values(&costs, &r, spf, untraced));
            (samples, resident, alloc::heap_peak())
        });
        for (samples, resident, heap) in traced {
            attempted += 1;
            match samples {
                Some(samples) => {
                    push_all(&mut series, samples);
                    push_memory(&mut series, resident, heap);
                }
                None => failed += 1,
            }
        }
        crate::write_trace(&tracer, &args.trace_path())?;
    }
    let mut values = Values::new();
    put_medians(&mut values, &series);
    put_median(&mut values, "setup_s", &setup_s);
    let peak = procfs::peak_rss_mb(std::process::id()).ok_or("VmHWM unreadable")?;
    put(&mut values, "peak_rss_mb", peak, 1);
    Ok(Outcome {
        attempted,
        failed,
        checks_ok: held_out_ok,
        values,
        notes: vec![("held_out_passed".into(), JsonValue::Bool(held_out_ok))],
    })
}

fn layer_values(
    costs: &OpCosts,
    r: &OpResult,
    spf: (u64, u64),
    untraced_ms: f64,
) -> Vec<(&'static str, f64)> {
    let b = &r.budget;
    let ratio = |n: u64, d: u64| n as f64 / d.max(1) as f64;
    let primary = costs.leaf("netsim.primary_probe").ms;
    let snapshots = costs.leaf("dataset.snapshot").ms;
    let plain = costs.aside("netsim.primary_without_revelation").ms;
    vec![
        (
            "netsim.control_plane_ms",
            costs.leaf("netsim.control_plane").ms,
        ),
        ("netsim.spf_hit_ratio", ratio(spf.0, spf.0 + spf.1)),
        ("dataset.snapshot_ms", snapshots / (SNAPSHOTS - 1) as f64),
        ("netsim.pairs_total", b.pairs_total as f64),
        ("netsim.probes_sent", b.probes_sent as f64),
        (
            "netsim.probes_per_pair",
            ratio(b.probes_sent, b.pairs_total),
        ),
        (
            "netsim.mda_pruned_ratio",
            ratio(b.pairs_pruned, b.pairs_total),
        ),
        (
            "netsim.ns_per_probe",
            (primary + snapshots) * 1e6 / b.probes_sent.max(1) as f64,
        ),
        ("netsim.revelation_ms", primary - plain),
        ("netsim.revelation_probes", b.revelation_probes as f64),
        (
            "netsim.revealed_ratio",
            ratio(b.revelation_revealed, b.revelation_triggers),
        ),
        ("core.extract_ms", costs.leaf("core.extract").ms),
        (
            "core.extract_allocs_per_trace",
            ratio(
                costs.leaf("core.extract").allocs,
                r.output.degraded.ingested(),
            ),
        ),
        ("core.attribute_ms", costs.leaf("core.attribute").ms),
        ("core.diversity_ms", costs.leaf("core.diversity").ms),
        ("core.persistence_ms", costs.leaf("core.persistence").ms),
        ("core.classify_ms", costs.leaf("core.classify").ms),
        (
            "core.classify_allocs_per_iotp",
            ratio(
                costs.leaf("core.classify").allocs,
                r.output.iotps.len() as u64,
            ),
        ),
        (
            "core.pipeline_inmem_ms",
            costs.group("core.pipeline_inmem").ms,
        ),
        ("core.reveal_ms", costs.leaf("core.reveal").ms),
        ("dataset.report_ms", costs.leaf("dataset.report").ms),
        ("core.lsps_in", r.output.report.input as f64),
        ("core.iotps", r.output.iotps.len() as f64),
        ("unattributed_ms", costs.unattributed_ms()),
        ("op.traced_ms", costs.total_ms),
        ("op.untraced_ms", untraced_ms),
        ("trace_overhead_ratio", costs.total_ms / untraced_ms),
    ]
}
