//! The `experiments` binary: regenerate any table or figure of the
//! paper's evaluation.
//!
//! ```text
//! experiments <command> [--cycles N] [--trace-out trace.json]
//!             [--trace-level debug|info|warn|error]
//!
//! commands:
//!   fig5      global MPLS deployment over 60 cycles (Fig. 5a/5b)
//!   table1    filter survival proportions (Table 1)
//!   fig6      persistence-window sweep (Fig. 6a/6b)
//!   fig789    IOTP length/width/symmetry (Figs. 7, 8a, 8b, 9)
//!   peras     per-AS classification series (Figs. 10-15, Fig. 13)
//!   table2    per-AS address statistics (Table 2)
//!   fig16     Level3 April 2012 daily roll-out (Fig. 16)
//!   fig17     label re-optimisation sawtooth (Fig. 17)
//!   ablations design-choice ablations (filters, §5 rescue)
//!   validation §5 Paris-MDA ground-truth check of the classes
//!   mda       MDA-Lite probes-per-destination vs diversity recall
//!   revelation TNT-style revelation A/B across visibility mixes
//!   summary   the abstract's three headline outcomes, recomputed
//!   all       everything above
//! ```
//!
//! CSV outputs land under `results/` (override with
//! `LPR_RESULTS_DIR`).
//!
//! With `--trace-out` the run records a hierarchical span journal
//! (`run:experiments` → one `exp:<name>` span per regenerator, plus a
//! `longitudinal` span for the shared 60-cycle render) and writes it
//! as Chrome trace JSON — loadable in `chrome://tracing` or Perfetto,
//! or foldable into a flamegraph via `lpr_obs::export::folded_stacks`.

use experiments::{
    ablations, fig16, fig17, fig6, fig789, longitudinal, mda_recall, revelation, summary,
    validation,
};
use lpr_obs::args::{self, Arg, ArgError, TraceOut};

/// Runs one regenerator under an `exp:<name>` span so the trace shows
/// where the wall time of an `all` run actually goes.
fn with_span(tracer: &lpr_obs::Tracer, name: &str, f: impl FnOnce()) {
    let _span = tracer.span(format!("exp:{name}"));
    f();
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, cycles, trace) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("experiments: {e}");
            std::process::exit(2);
        }
    };
    let cmd = cmd.as_str();
    let tracer = trace.tracer();
    let run_span = tracer.span("run:experiments");
    tracer.set_default_parent(run_span.context());

    let world = ark_dataset::standard_world();
    eprintln!(
        "[world] {} ASes, {} routers, {} interfaces; {} monitors, {} destinations",
        world.topo.ases.len(),
        world.topo.routers.len(),
        world.topo.ifaces.len(),
        world.all_vps().len(),
        world.all_destinations(1).len(),
    );
    for asn in world.featured {
        let as_id = world.topo.as_by_asn(asn).expect("featured").id;
        let s = netsim::stats::as_stats(&world.topo, as_id);
        eprintln!(
            "[world]   {asn}: {} routers ({} borders), {} intra links, diameter {}, {} ECMP pairs",
            s.routers, s.borders, s.intra_links, s.diameter, s.ecmp_pairs,
        );
    }

    let needs_longitudinal =
        matches!(cmd, "fig5" | "table1" | "peras" | "table2" | "summary" | "all");
    let rows = if needs_longitudinal {
        eprintln!("[longitudinal] rendering {cycles} cycles × 3 snapshots …");
        let span = tracer.span("longitudinal");
        let rows = longitudinal::run(&world, cycles);
        drop(span);
        tracer.event(
            run_span.context(),
            lpr_obs::Level::Info,
            "longitudinal-rendered",
            vec![
                ("cycles".to_string(), lpr_obs::FieldValue::U64(cycles as u64)),
                ("rows".to_string(), lpr_obs::FieldValue::U64(rows.len() as u64)),
            ],
        );
        Some(rows)
    } else {
        None
    };

    match cmd {
        "fig5" => with_span(&tracer, "fig5", || longitudinal::emit_fig5(rows.as_ref().unwrap())),
        "table1" => {
            with_span(&tracer, "table1", || longitudinal::emit_table1(rows.as_ref().unwrap()))
        }
        "peras" => with_span(&tracer, "peras", || longitudinal::emit_per_as(rows.as_ref().unwrap())),
        "table2" => {
            with_span(&tracer, "table2", || longitudinal::emit_table2(rows.as_ref().unwrap(), &world))
        }
        "fig6" => with_span(&tracer, "fig6", || fig6::emit(&fig6::run(&world, 29))),
        "fig789" => with_span(&tracer, "fig789", || fig789::emit(&fig789::run(&world, 60))),
        "fig16" => with_span(&tracer, "fig16", || fig16::emit(&fig16::run(&world))),
        "fig17" => with_span(&tracer, "fig17", || fig17::emit(&fig17::run(&world))),
        "ablations" => with_span(&tracer, "ablations", || ablations::emit(&ablations::run(&world, 45))),
        "validation" => {
            with_span(&tracer, "validation", || validation::emit(&validation::run(&world, 45, 24)))
        }
        "mda" => with_span(&tracer, "mda", || mda_recall::emit(&mda_recall::run(&world, 40))),
        "revelation" => {
            with_span(&tracer, "revelation", || revelation::emit(&revelation::run(&world, 40)))
        }
        "summary" => {
            with_span(&tracer, "summary", || summary::emit(&summary::run(rows.as_ref().unwrap())))
        }
        "all" => {
            let rows = rows.as_ref().unwrap();
            with_span(&tracer, "fig5", || longitudinal::emit_fig5(rows));
            with_span(&tracer, "table1", || longitudinal::emit_table1(rows));
            with_span(&tracer, "peras", || longitudinal::emit_per_as(rows));
            with_span(&tracer, "table2", || longitudinal::emit_table2(rows, &world));
            with_span(&tracer, "fig6", || fig6::emit(&fig6::run(&world, 29)));
            with_span(&tracer, "fig789", || fig789::emit(&fig789::run(&world, 60)));
            with_span(&tracer, "fig16", || fig16::emit(&fig16::run(&world)));
            with_span(&tracer, "fig17", || fig17::emit(&fig17::run(&world)));
            with_span(&tracer, "ablations", || ablations::emit(&ablations::run(&world, 45)));
            with_span(&tracer, "validation", || validation::emit(&validation::run(&world, 45, 24)));
            with_span(&tracer, "mda", || mda_recall::emit(&mda_recall::run(&world, 40)));
            with_span(&tracer, "revelation", || revelation::emit(&revelation::run(&world, 40)));
            with_span(&tracer, "summary", || summary::emit(&summary::run(rows)));
        }
        other => {
            eprintln!("unknown command `{other}`; see --help in the crate docs");
            std::process::exit(2);
        }
    }

    tracer.set_default_parent(lpr_obs::SpanContext::ROOT);
    drop(run_span);
    if let Err(e) = trace.write(&tracer) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

/// Parses `[command] [--cycles N] [--trace-out F] [--trace-level L]`;
/// the command defaults to `all`.
fn parse(args: &[String]) -> Result<(String, usize, TraceOut), ArgError> {
    let (mut cmd, mut cycles, mut trace) = (None, ark_dataset::CYCLES, TraceOut::default());
    args::each(args, |arg, a| {
        match arg {
            Arg::Positional(c) if cmd.is_none() => cmd = Some(c.to_string()),
            Arg::Flag("--cycles") => cycles = a.parse()?,
            Arg::Flag(flag) if trace.accept(flag, a)? => {}
            _ => return Err(a.unknown()),
        }
        Ok(())
    })?;
    Ok((cmd.unwrap_or_else(|| "all".to_string()), cycles, trace))
}
