//! Ablations over LPR's design choices (not a paper figure, but the
//! design decisions §3 and §5 discuss):
//!
//! * the **TransitDiversity** filter — what happens to the
//!   classification when single-destination IOTPs are kept;
//! * the **Persistence** filter — what routing noise does to the class
//!   mix when not removed;
//! * the **§5 alias rescue** — how much of the Unclassified class it
//!   recovers and where those IOTPs land.

use crate::output::{announce, f3, print_table, write_csv};
use ark_dataset::campaign::{generate_cycle, CampaignOptions};
use ark_dataset::World;
use lpr_core::filter::FilterConfig;
use lpr_core::pipeline::{ClassCounts, Pipeline};

/// One ablation variant's result.
#[derive(Clone, Debug)]
pub struct Variant {
    /// Variant label.
    pub name: &'static str,
    /// The classification tally it produces.
    pub counts: ClassCounts,
}

/// Runs every variant on one rendered cycle.
pub fn run(world: &World, cycle: usize) -> Vec<Variant> {
    let opts = CampaignOptions::default();
    let data = generate_cycle(world, cycle, &opts);
    // `0` threads = the machine's available parallelism; the parallel
    // pipeline is output-identical to the sequential one.
    let futures: Vec<_> = data.snapshots[1..]
        .iter()
        .map(|t| Pipeline::snapshot_keys_par(t, 0))
        .collect();
    let traces = &data.snapshots[0];
    let rib = world.rib();

    let base = Pipeline::new(FilterConfig { persistence_window: 2, ..Default::default() });
    let mut variants = Vec::new();

    let run_with =
        |p: &Pipeline, j: usize| p.run_par(traces, rib, &futures[..j], 0, None).class_counts();

    variants.push(Variant { name: "baseline (paper settings)", counts: run_with(&base, 2) });

    let no_persistence =
        Pipeline::new(FilterConfig { persistence_window: 0, ..Default::default() });
    variants.push(Variant { name: "no Persistence filter", counts: run_with(&no_persistence, 0) });

    let mut no_diversity = base.clone();
    no_diversity.skip_transit_diversity = true;
    variants.push(Variant { name: "no TransitDiversity filter", counts: run_with(&no_diversity, 2) });

    let rescued = base.clone().with_alias_rescue();
    variants.push(Variant { name: "with alias rescue (§5)", counts: run_with(&rescued, 2) });

    variants
}

/// Prints and writes the ablation table.
pub fn emit(variants: &[Variant]) {
    let rows: Vec<Vec<String>> = variants
        .iter()
        .map(|v| {
            let c = &v.counts;
            let f = c.fractions();
            vec![
                v.name.to_string(),
                c.total().to_string(),
                f3(f[0]),
                f3(f[1]),
                f3(f[2]),
                f3(f[3]),
            ]
        })
        .collect();
    print_table(
        "Ablations — classification under variant pipelines (cycle 45)",
        &["variant", "iotps", "mono_lsp", "multi_fec", "mono_fec", "unclassified"],
        &rows,
    );
    let path = write_csv(
        "ablations.csv",
        &["variant", "iotps", "mono_lsp", "multi_fec", "mono_fec", "unclassified"],
        &rows,
    );
    announce("Ablations", &path);
}
