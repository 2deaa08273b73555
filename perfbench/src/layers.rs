//! The traced run's instrument: each public call into a layer runs
//! inside an `lpr_obs` span opened here, with its wall time and the
//! allocations it made charged to the layer. The pipeline's back half
//! is rebuilt from its public stage functions so every stage can be
//! timed on its own.

use crate::alloc;
use lpr_core::filter::{
    build_iotps, iotp_kept, partition_by_flags, persistent_flags, reinject_dynamic,
    transit_diversity_keys, FilterReport, FilterStage,
};
use lpr_core::pipeline::{IngestState, PersistenceWindow, Pipeline, PipelineOutput};
use lpr_core::quarantine::{validate_trace, DegradedReport};
use lpr_core::tunnel::{extract_tunnels_into, RawTunnel};
use lpr_core::{classify_iotp, Iotp, Lsp, Trace};
use lpr_obs::{Span, Tracer};
use std::collections::BTreeMap;
use std::time::Instant;

/// Time and allocation calls charged to one layer call site.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    /// Wall time, ms.
    pub ms: f64,
    /// Allocation calls.
    pub allocs: u64,
}

impl Cost {
    fn add(&mut self, ms: f64, allocs: u64) {
        self.ms += ms;
        self.allocs += allocs;
    }
}

/// One traced op in progress.
pub struct Layers {
    tracer: Tracer,
    /// The span new calls nest under.
    parent: Span,
    started: Instant,
    /// Calls whose times add up to the op (leaves of the span tree).
    leaves: BTreeMap<&'static str, Cost>,
    /// Spans that group leaves; not added to the op again.
    groups: BTreeMap<&'static str, Cost>,
    /// Measurements made beside the op, excluded from its total.
    aside: BTreeMap<&'static str, Cost>,
}

/// The costs of one finished traced op.
#[derive(Debug, Default)]
pub struct OpCosts {
    /// Op wall time minus the side measurements, ms.
    pub total_ms: f64,
    leaves: BTreeMap<&'static str, Cost>,
    groups: BTreeMap<&'static str, Cost>,
    aside: BTreeMap<&'static str, Cost>,
}

impl OpCosts {
    /// A leaf layer's cost (zero when the op never called it).
    pub fn leaf(&self, name: &str) -> Cost {
        self.leaves.get(name).copied().unwrap_or_default()
    }

    /// A group's cost.
    pub fn group(&self, name: &str) -> Cost {
        self.groups.get(name).copied().unwrap_or_default()
    }

    /// A side measurement's cost.
    pub fn aside(&self, name: &str) -> Cost {
        self.aside.get(name).copied().unwrap_or_default()
    }

    /// Op time no leaf span accounts for, ms.
    pub fn unattributed_ms(&self) -> f64 {
        self.total_ms - self.leaves.values().map(|c| c.ms).sum::<f64>()
    }
}

enum Kind {
    Leaf,
    Group,
    Aside,
}

impl Layers {
    /// Opens the op's root span `op:<name>`.
    pub fn start(tracer: &Tracer, name: &str) -> Layers {
        Layers {
            tracer: tracer.clone(),
            parent: tracer.span(format!("op:{name}")),
            started: Instant::now(),
            leaves: BTreeMap::new(),
            groups: BTreeMap::new(),
            aside: BTreeMap::new(),
        }
    }

    fn timed<T>(&mut self, kind: Kind, name: &'static str, f: impl FnOnce(&mut Layers) -> T) -> T {
        let span = self.tracer.span_under(self.parent.context(), name);
        let span = std::mem::replace(&mut self.parent, span);
        let allocs = alloc::allocs();
        let t0 = Instant::now();
        let out = f(self);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let allocs = alloc::allocs() - allocs;
        drop(std::mem::replace(&mut self.parent, span));
        let map = match kind {
            Kind::Leaf => &mut self.leaves,
            Kind::Group => &mut self.groups,
            Kind::Aside => &mut self.aside,
        };
        map.entry(name).or_default().add(ms, allocs);
        out
    }

    /// Runs one public call into a layer as a leaf span.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(Kind::Leaf, name, |_| f())
    }

    /// Runs `f` inside a grouping span; its leaves nest under it.
    pub fn group<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Layers) -> T) -> T {
        self.timed(Kind::Group, name, f)
    }

    /// Runs a measurement the untraced op does not make (a lookup
    /// sweep, a counterfactual probe run); its time is kept out of the
    /// op total.
    pub fn aside<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.timed(Kind::Aside, name, |_| f())
    }

    /// Closes the op span and returns the costs.
    pub fn finish(self) -> OpCosts {
        let wall_ms = self.started.elapsed().as_secs_f64() * 1e3;
        let aside_ms: f64 = self.aside.values().map(|c| c.ms).sum();
        OpCosts {
            total_ms: wall_ms - aside_ms,
            leaves: self.leaves,
            groups: self.groups,
            aside: self.aside,
        }
    }
}

/// Tunnel extraction as the pipeline's in-memory front end runs it:
/// quarantine structurally broken traces, extract from the rest.
pub fn extract(traces: &[Trace]) -> (Vec<RawTunnel>, DegradedReport) {
    let mut tunnels = Vec::new();
    let mut degraded = DegradedReport::default();
    for trace in traces {
        match validate_trace(trace) {
            Ok(()) => {
                degraded.kept += 1;
                extract_tunnels_into(trace, &mut tunnels);
            }
            Err(reason) => degraded.note(reason),
        }
    }
    (tunnels, degraded)
}

/// The pipeline's back half — TransitDiversity, Persistence,
/// classification — as [`Pipeline::finish_stages_windowed`] runs it at
/// one thread and with alias rescue off, one public stage call per
/// `core.*` span. The caller checks the result against the untraced
/// op's output.
pub fn back_half(
    layers: &mut Layers,
    pipeline: &Pipeline,
    ingest: IngestState,
    window: PersistenceWindow<'_>,
) -> std::io::Result<PipelineOutput> {
    let mut report = FilterReport {
        input: ingest.input,
        ..Default::default()
    };
    report
        .remaining
        .insert(FilterStage::IncompleteLsp, ingest.after_incomplete);
    report
        .remaining
        .insert(FilterStage::IntraAs, ingest.after_intra_as);
    report
        .remaining
        .insert(FilterStage::TargetAs, ingest.lsps.len());

    let mut lsps = ingest.lsps;
    let keep = layers.call("core.diversity", || {
        let keep = transit_diversity_keys(&lsps);
        lsps.retain(|l| iotp_kept(&keep, l.iotp_key()));
        keep
    });
    report
        .remaining
        .insert(FilterStage::TransitDiversity, lsps.len());

    let config = &pipeline.config;
    let persisted = layers.call("core.persistence", || -> std::io::Result<_> {
        let flags = match window {
            PersistenceWindow::Mem(future) => persistent_flags(&lsps, future, config),
            PersistenceWindow::Spilled(spilled) => {
                lpr_core::spill::persistent_flags_spilled(&lsps, spilled, config)?
            }
        };
        let (kept, dropped) = partition_by_flags(lsps, &flags);
        Ok(reinject_dynamic(kept, dropped, config))
    })?;
    report
        .remaining
        .insert(FilterStage::Persistence, persisted.strictly_persistent);

    let lsps: Vec<Lsp> = persisted.lsps;
    let iotps = layers.call("core.classify", || {
        let iotps: Vec<Iotp> = build_iotps(&lsps, &keep);
        iotps
            .into_iter()
            .map(|iotp| {
                let class = classify_iotp(&iotp);
                (iotp, class)
            })
            .collect::<Vec<_>>()
    });
    Ok(PipelineOutput {
        iotps,
        report,
        dynamic_ases: persisted.dynamic_ases,
        degraded: ingest.degraded,
    })
}

/// A structural fingerprint of any `Debug` value: two outputs are
/// byte-identical when their fingerprints (and counts) agree.
pub fn fingerprint(value: &impl std::fmt::Debug) -> u64 {
    lpr_serve::fnv1a64(format!("{value:?}").as_bytes())
}
