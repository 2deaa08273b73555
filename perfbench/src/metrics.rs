//! The metric catalogue (mirrored by `BENCHMARK.json`) and the result
//! document the benchmark prints.

use lpr_obs::json::JsonValue;
use std::collections::BTreeMap;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: [(&str, &str); 5] = [
    ("traces_per_s", "traces/s"),
    ("pairs_per_s", "pairs/s"),
    ("freshness_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every traced run. A layer the
/// workload's op never calls reads 0 with 0 samples.
pub const PER_LAYER: [(&str, &str); 51] = [
    ("corpus.open_ms", "ms"),
    ("corpus.index_allocs_per_record", "allocs/record"),
    ("warts.decode_ms", "ms"),
    ("warts.decode_mb_per_s", "MB/s"),
    ("warts.decode_allocs_per_trace", "allocs/trace"),
    ("warts.convert_ms", "ms"),
    ("warts.convert_allocs_per_trace", "allocs/trace"),
    ("core.extract_ms", "ms"),
    ("core.extract_allocs_per_trace", "allocs/trace"),
    ("core.attribute_ms", "ms"),
    ("ip2as.lookup_ns", "ns"),
    ("ip2as.lookups", "count"),
    ("core.diversity_ms", "ms"),
    ("core.persistence_ms", "ms"),
    ("core.classify_ms", "ms"),
    ("core.classify_allocs_per_iotp", "allocs/iotp"),
    ("core.lsps_in", "count"),
    ("core.iotps", "count"),
    ("netsim.control_plane_ms", "ms"),
    ("netsim.spf_hit_ratio", "ratio"),
    ("dataset.snapshot_ms", "ms"),
    ("netsim.probes_sent", "count"),
    ("netsim.probes_per_pair", "probes/pair"),
    ("netsim.mda_pruned_ratio", "ratio"),
    ("netsim.ns_per_probe", "ns"),
    ("netsim.revelation_ms", "ms"),
    ("netsim.revelation_probes", "count"),
    ("netsim.revealed_ratio", "ratio"),
    ("core.pipeline_inmem_ms", "ms"),
    ("core.reveal_ms", "ms"),
    ("dataset.report_ms", "ms"),
    ("serve.ingest_ms", "ms"),
    ("serve.window_clone_ms", "ms"),
    ("serve.rebuild_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.http_requests", "count"),
    ("serve.gen_late_ms", "ms"),
    ("freshness_p90_ms", "ms"),
    ("http_p50_ms", "ms"),
    ("http_p99_ms", "ms"),
    ("failed_ratio", "fraction"),
    ("unattributed_ms", "ms"),
    ("trace_overhead_ratio", "ratio"),
    ("mem.anon_mb", "MiB"),
    ("mem.file_mb", "MiB"),
    ("mem.heap_peak_mb", "MiB"),
    ("op.traced_ms", "ms"),
    ("op.untraced_ms", "ms"),
    ("corpus.records", "count"),
    ("warts.traces", "count"),
    ("netsim.pairs_total", "count"),
];

/// One reported value with its sample count.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    /// The value (a median when `samples > 1`).
    pub value: f64,
    /// Measurements behind it.
    pub samples: usize,
}

/// Named values collected by a run, keyed by metric name.
pub type Values = BTreeMap<String, Value>;

/// Records `value` under `name` from `samples` measurements.
pub fn put(values: &mut Values, name: &str, value: f64, samples: usize) {
    values.insert(name.to_string(), Value { value, samples });
}

/// Records the median of `series` (nothing for an empty series).
pub fn put_median(values: &mut Values, name: &str, series: &[f64]) {
    if let Some(m) = crate::stats::median(series) {
        put(values, name, m, series.len());
    }
}

/// The catalogue this run reports from: end-to-end without tracing,
/// per-layer with it.
pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// The result line: `correct`, `attempted`, `failed` and every metric
/// of the catalogue. Missing per-layer metrics read 0 (layer not
/// called); a missing end-to-end metric is a benchmark bug.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    trace: bool,
    values: &Values,
) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &(name, unit) in catalogue(trace) {
        let value = match values.get(name) {
            Some(v) => v.value,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite"));
        }
        metrics.push((
            name.to_string(),
            JsonValue::Object(vec![
                ("value".into(), JsonValue::Float(value)),
                ("unit".into(), JsonValue::Str(unit.to_string())),
            ]),
        ));
    }
    Ok(JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::Int(attempted as i128)),
        ("failed".into(), JsonValue::Int(failed as i128)),
        ("metrics".into(), JsonValue::Object(metrics)),
    ])
    .render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(JsonValue::as_str).expect("name and unit");
                (field("name").to_string(), field("unit").to_string())
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = lpr_obs::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names(&doc, "end_to_end"), own(&END_TO_END));
        assert_eq!(names(&doc, "per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn result_line_fills_uncalled_layers_and_refuses_gaps() {
        let mut values = Values::new();
        put(&mut values, "setup_s", 1.5, 3);
        assert!(result_line(true, 1, 0, false, &values).is_err());
        let line = result_line(true, 1, 0, true, &values).unwrap();
        let doc = lpr_obs::json::parse(&line).unwrap();
        let metrics = doc.get("metrics").and_then(JsonValue::as_object).unwrap();
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_u64), Some(1));
    }
}
