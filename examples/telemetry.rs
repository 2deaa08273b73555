//! Telemetry: run the LPR pipeline under `lpr-obs` instrumentation —
//! probe counters, per-filter stage timings that reconcile with the
//! Table 1 funnel, the machine-readable JSON document `lpr classify
//! --metrics` writes, and the hierarchical span journal behind
//! `--trace-out` (here rendered as folded stacks).
//!
//! ```sh
//! cargo run -p lpr-examples --bin telemetry
//! ```

use lpr_core::prelude::*;
use netsim::{
    AsSpec, Internet, MplsConfig, Peering, ProbeOptions, Prober, TePathMode, Topology,
    TopologyParams, Vendor,
};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

fn main() {
    // A transit ISP between a monitor stub and two customer stubs —
    // the same shape as `lpr demo`.
    let specs = vec![
        AsSpec::transit(
            65000,
            "demo-transit",
            Vendor::Juniper,
            TopologyParams {
                core_routers: 6,
                border_routers: 3,
                ecmp_diamonds: 1,
                parallel_bundles: 1,
                ..TopologyParams::default()
            },
        ),
        AsSpec::stub(64600, "monitors", 0, 2),
        AsSpec::stub(64700, "customer-a", 3, 0),
        AsSpec::stub(64701, "customer-b", 3, 0),
    ];
    let peerings = vec![
        Peering::new(Asn(64600), Asn(65000)).at_b(0),
        Peering::new(Asn(65000), Asn(64700)).at_a(1),
        Peering::new(Asn(65000), Asn(64701)).at_a(1),
    ];
    let topo = Topology::build_with_peerings(&specs, &peerings);
    let rib = topo.rib();
    let mut configs = BTreeMap::new();
    configs.insert(Asn(65000), MplsConfig::with_te(0.5, 2, TePathMode::SamePath));
    let net = Internet::new(topo, &configs);

    // One Recorder observes everything: the prober tallies `probe.*`
    // counters and the RFC 4950 stack-depth histogram while the
    // pipeline records one timed stage per filter. The attached Tracer
    // additionally journals hierarchical spans — everything recorded
    // below the root span nests under `run:telemetry-example`.
    let tracer = lpr_obs::Tracer::new(lpr_obs::Level::Debug);
    let recorder = lpr_obs::Recorder::new("telemetry example").with_tracer(tracer.clone());
    let run_span = tracer.span("run:telemetry-example");
    tracer.set_default_parent(run_span.context());

    let prober = Prober::new(&net, ProbeOptions::default()).with_recorder(&recorder);
    let vps: Vec<Ipv4Addr> = net.topo.vantage_points().iter().map(|(a, _)| *a).collect();
    let dsts = net.topo.destinations(1);
    let traces = {
        let campaign_span = tracer.span("campaign");
        let traces = prober.campaign(&vps, &dsts);
        campaign_span.event(
            lpr_obs::Level::Info,
            "campaign-complete",
            vec![("traces".to_string(), lpr_obs::FieldValue::U64(traces.len() as u64))],
        );
        traces
    };

    let keys = Pipeline::snapshot_keys(&traces);
    let pipeline = Pipeline::new(FilterConfig { persistence_window: 1, ..Default::default() });
    let out = pipeline.run_par(&traces, &rib, &[keys], 1, Some(&recorder));

    // Close the root span before snapshotting so every span has an end.
    tracer.set_default_parent(lpr_obs::SpanContext::ROOT);
    drop(run_span);

    let telemetry = recorder.finish();
    println!("=== stages (counts chain through the Table 1 funnel) ===");
    for s in &telemetry.stages {
        println!(
            "{:<18} {:>6} -> {:<6} {:>8} us",
            s.name, s.input, s.output, s.wall_us,
        );
    }
    for stage in FilterStage::ALL {
        let s = telemetry.stage(stage.name()).expect("every filter is a stage");
        assert_eq!(s.output, out.report.remaining[&stage] as u64);
    }

    println!("\n=== counters ===");
    for (name, value) in &telemetry.counters {
        println!("{name:<28} {value}");
    }
    let depths = &telemetry.histograms["probe.stack_depth"];
    println!("\nquoted label-stack depths: {depths:?}");

    // The span journal behind `lpr classify --trace-out`: folded-stack
    // lines ready for flamegraph.pl; `lpr_obs::export::chrome_trace`
    // renders the same snapshot for chrome://tracing / Perfetto.
    let snapshot = tracer.snapshot();
    let events = snapshot
        .events
        .iter()
        .filter(|e| matches!(e, lpr_obs::TraceEvent::Event { .. }))
        .count();
    println!("\n=== span journal ({events} events; folded stacks, self-time in us) ===");
    print!("{}", lpr_obs::export::folded_stacks(&snapshot));

    // The exact document `lpr classify --metrics out.json` writes; it
    // round-trips losslessly.
    let json = telemetry.to_json();
    let back = lpr_obs::RunTelemetry::from_json(&json).expect("round-trip");
    assert_eq!(back, telemetry);
    println!("\n=== telemetry JSON ===\n{json}");
}
