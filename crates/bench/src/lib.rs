//! # lpr-bench — correctness gates for LPR's answers
//!
//! `lpr-bench` checks that the system still gives the paper's answers:
//! the golden Ark campaign fingerprint, byte-identical Algorithm 1
//! output at every thread count, MDA-Lite recall against the exhaustive
//! oracle, TNT-style tunnel revelation, the fault-injection sweep and
//! the `lpr serve` soak. Each subcommand exits non-zero when its gate
//! fails. Timings are not its job: `perfbench/` is the repository's
//! benchmark and the only source of wall times, rates and allocation
//! counts.
//!
//! This library holds the part of the binary that wants unit tests:
//! the [`compare`] engine behind `lpr-bench compare` and
//! `lpr-bench baseline`.

#![forbid(unsafe_code)]

use lpr_obs::json::JsonValue;

pub mod compare {
    //! The `lpr-bench compare` engine: holds a `BENCH_pipeline.json`
    //! report to the deterministic counts of a baseline report.
    //!
    //! Every count is compared exactly: top-level stage input/output
    //! (worker rows re-count their parent's items), IOTPs, input LSPs,
    //! every telemetry counter, and the counts of the optional
    //! `"ingest"` and `"probing"` sections. These are fixed for a given
    //! campaign shape, so any drift is a correctness change, not noise.
    //! A count the baseline carries but the current report lacks is a
    //! mismatch too; one only the current report carries is skipped.
    //! Wall times, rates and allocation tallies are measurements and are
    //! never compared.

    use super::JsonValue;
    use std::collections::BTreeMap;

    /// An optional report section skipped wholesale: one report carries
    /// it, the other does not (or they are not comparable). Structured
    /// so CI can route "section missing" separately from a hard count
    /// mismatch — a baseline captured before a section existed must not
    /// fail the comparison.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct SectionSkip {
        /// Section key in the report document (e.g. `"ingest"`).
        pub section: String,
        /// Why the section was not compared.
        pub reason: String,
    }

    /// Everything `lpr-bench compare` decides and reports.
    #[derive(Clone, Debug, Default)]
    pub struct Outcome {
        /// Strict count mismatches (always failures).
        pub mismatches: Vec<String>,
        /// Counts the baseline does not carry, so nothing checks them.
        pub skipped: Vec<String>,
        /// Whole optional sections skipped with a structured reason
        /// (never failures).
        pub sections_skipped: Vec<SectionSkip>,
    }

    impl Outcome {
        /// A comparison passes when no count mismatched.
        pub fn passed(&self) -> bool {
            self.mismatches.is_empty()
        }

        /// The diff document CI uploads as an artifact.
        pub fn to_json(&self) -> String {
            let strs = |items: &[String]| {
                JsonValue::Array(items.iter().map(|s| JsonValue::Str(s.clone())).collect())
            };
            let sections = self
                .sections_skipped
                .iter()
                .map(|s| {
                    JsonValue::Object(vec![
                        ("section".to_string(), JsonValue::Str(s.section.clone())),
                        ("reason".to_string(), JsonValue::Str(s.reason.clone())),
                    ])
                })
                .collect();
            JsonValue::Object(vec![
                ("bench".to_string(), JsonValue::Str("compare".to_string())),
                ("passed".to_string(), JsonValue::Bool(self.passed())),
                ("mismatches".to_string(), strs(&self.mismatches)),
                ("skipped".to_string(), strs(&self.skipped)),
                ("sections_skipped".to_string(), JsonValue::Array(sections)),
            ])
            .render_pretty()
        }

        /// Holds every count in `baseline` to exact equality with the
        /// same-named count in `current`; each name is reported with
        /// `prefix` in front.
        fn exact(
            &mut self,
            prefix: &str,
            current: Vec<(String, u64)>,
            baseline: Vec<(String, u64)>,
        ) {
            let current: BTreeMap<String, u64> = current.into_iter().collect();
            let base_names: Vec<&str> = baseline.iter().map(|(name, _)| name.as_str()).collect();
            for (name, base) in &baseline {
                match current.get(name) {
                    Some(&cur) if cur != *base => self
                        .mismatches
                        .push(format!("{prefix}{name}: {cur} differs from baseline {base}")),
                    Some(_) => {}
                    None => self.mismatches.push(format!(
                        "{prefix}{name}: in the baseline ({base}) but missing from the \
                         current report"
                    )),
                }
            }
            for name in current.keys().filter(|name| !base_names.contains(&name.as_str())) {
                self.skipped.push(format!("{prefix}{name}: absent from baseline"));
            }
        }

        /// Both reports' copies of the optional section `key`, when both
        /// carry it and agree on its `shape` field; otherwise a
        /// structured skip (`differ` says why when the shapes differ).
        fn sections<'a>(
            &mut self,
            current: &'a JsonValue,
            baseline: &'a JsonValue,
            key: &str,
            shape: &str,
            differ: &str,
        ) -> Option<(&'a JsonValue, &'a JsonValue)> {
            let of = |report: &'a JsonValue| report.get(key).filter(|v| v.as_object().is_some());
            let reason = match (of(current), of(baseline)) {
                (Some(cur), Some(base)) if cur.get(shape) == base.get(shape) => {
                    return Some((cur, base))
                }
                (Some(_), Some(_)) => differ,
                (None, None) => return None,
                (Some(_), None) => "absent from baseline report",
                (None, Some(_)) => "absent from current report",
            };
            self.sections_skipped
                .push(SectionSkip { section: key.to_string(), reason: reason.to_string() });
            None
        }
    }

    /// The deterministic tallies of the `"ingest"` section.
    const INGEST_COUNTS: [&str; 5] =
        ["corpus_files", "corpus_bytes", "corpus_records", "traces", "lsps_in"];

    /// The probe-budget tallies of the `"probing"` section.
    const PROBING_COUNTS: [&str; 6] = [
        "pairs_total",
        "pairs_probed",
        "pairs_pruned",
        "flows_traced",
        "probes_sent",
        "confirmations",
    ];

    /// The integer fields of `value` named in `keys`, in `keys` order.
    fn pick(value: &JsonValue, keys: &[&str]) -> Vec<(String, u64)> {
        keys.iter().filter_map(|key| Some((key.to_string(), value.get(key)?.as_u64()?))).collect()
    }

    /// Top-level stage counts of a report, as `"<stage> input"` and
    /// `"<stage> output"`, in document order; worker rows
    /// (`worker0/...`) excluded.
    fn stage_counts(report: &JsonValue) -> Vec<(String, u64)> {
        let stages = report.get("telemetry").and_then(|t| t.get("stages")?.as_array());
        let mut counts = Vec::new();
        for stage in stages.unwrap_or_default() {
            let Some(name) = stage.get("name").and_then(|n| n.as_str()) else { continue };
            if name.contains('/') {
                continue;
            }
            for side in ["input", "output"] {
                if let Some(n) = stage.get(side).and_then(|v| v.as_u64()) {
                    counts.push((format!("{name} {side}"), n));
                }
            }
        }
        counts
    }

    fn counters_of(report: &JsonValue) -> Vec<(String, u64)> {
        let counters = report.get("telemetry").and_then(|t| t.get("counters")?.as_object());
        counters
            .unwrap_or_default()
            .iter()
            .filter_map(|(name, v)| Some((name.clone(), v.as_u64()?)))
            .collect()
    }

    /// Diffs the counts of `current` against `baseline`.
    pub fn run(current: &JsonValue, baseline: &JsonValue) -> Outcome {
        let mut outcome = Outcome::default();
        outcome.exact("stage ", stage_counts(current), stage_counts(baseline));
        let totals = ["iotps", "lsps_in"];
        outcome.exact("", pick(current, &totals), pick(baseline, &totals));
        outcome.exact("counter ", counters_of(current), counters_of(baseline));
        // Out-of-core ingest counts compare only between runs at the
        // same --scale; its rates, walls and peak memory never do.
        if let Some((cur, base)) = outcome.sections(
            current,
            baseline,
            "ingest",
            "scale",
            "reports ran at different --scale",
        ) {
            outcome.exact("ingest.", pick(cur, &INGEST_COUNTS), pick(base, &INGEST_COUNTS));
        }
        // Probe budgets are deterministic for a given strategy; the
        // derived probes-per-destination rate follows from the exactly
        // compared probes_sent and pairs_total.
        if let Some((cur, base)) = outcome.sections(
            current,
            baseline,
            "probing",
            "strategy",
            "reports used different probing strategies",
        ) {
            outcome.exact("probing.", pick(cur, &PROBING_COUNTS), pick(base, &PROBING_COUNTS));
        }
        outcome
    }

    /// Strips the nondeterministic measurements out of a report,
    /// producing the committable baseline form: stage and total wall
    /// times zeroed; the sweeps (their thread lists follow the host's
    /// parallelism), SPF cache stats and `campaign_share` removed; and
    /// the `"ingest"` section's rates/walls/peak-memory readings (plus
    /// the elide check's allocation tallies) nulled. Counts, counters,
    /// the golden fingerprint and the whole `"probing"` section stay, as
    /// they are the deterministic contract `compare` checks strictly.
    pub fn strip_nondeterministic(report: &JsonValue) -> JsonValue {
        let Some(fields) = report.as_object() else {
            return report.clone();
        };
        let kept: Vec<(String, JsonValue)> = fields
            .iter()
            .filter(|(key, _)| {
                !matches!(
                    key.as_str(),
                    "campaign_share" | "thread_sweep" | "campaign_sweep" | "spf_cache"
                )
            })
            .map(|(key, value)| {
                let value = match key.as_str() {
                    "telemetry" => zero_telemetry_walls(value),
                    "ingest" => null_fields(
                        value,
                        &[
                            "wall_us",
                            "traces_per_s",
                            "bytes_per_s",
                            "peak_resident_bytes",
                            "peak_heap_bytes",
                        ],
                    ),
                    "unsupported_elide" => null_fields(
                        value,
                        &["kept_alloc_bytes", "elided_alloc_bytes"],
                    ),
                    _ => value.clone(),
                };
                (key.clone(), value)
            })
            .collect();
        JsonValue::Object(kept)
    }

    fn null_fields(value: &JsonValue, nulled: &[&str]) -> JsonValue {
        let Some(fields) = value.as_object() else {
            return value.clone();
        };
        JsonValue::Object(
            fields
                .iter()
                .map(|(key, v)| {
                    let v = if nulled.contains(&key.as_str()) { JsonValue::Null } else { v.clone() };
                    (key.clone(), v)
                })
                .collect(),
        )
    }

    fn zero_telemetry_walls(telemetry: &JsonValue) -> JsonValue {
        let Some(fields) = telemetry.as_object() else {
            return telemetry.clone();
        };
        JsonValue::Object(
            fields
                .iter()
                .map(|(key, value)| {
                    let value = match key.as_str() {
                        "total_wall_us" => JsonValue::Int(0),
                        "stages" => JsonValue::Array(
                            value
                                .as_array()
                                .map(|stages| stages.iter().map(zero_stage_wall).collect())
                                .unwrap_or_default(),
                        ),
                        _ => value.clone(),
                    };
                    (key.clone(), value)
                })
                .collect(),
        )
    }

    fn zero_stage_wall(stage: &JsonValue) -> JsonValue {
        let Some(fields) = stage.as_object() else {
            return stage.clone();
        };
        JsonValue::Object(
            fields
                .iter()
                .map(|(key, value)| {
                    let value =
                        if key == "wall_us" { JsonValue::Int(0) } else { value.clone() };
                    (key.clone(), value)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lpr_obs::json;

    fn sample_report(classify_wall: u64) -> json::JsonValue {
        json::parse(&format!(
            r#"{{
              "bench": "pipeline",
              "iotps": 12,
              "lsps_in": 48,
              "campaign_share": 0.4,
              "telemetry": {{
                "label": "t",
                "total_wall_us": {total},
                "threads": 1,
                "stages": [
                  {{"name": "Ingest", "wall_us": 100, "input": 60, "output": 48}},
                  {{"name": "Classification", "wall_us": {classify_wall}, "input": 48, "output": 12}},
                  {{"name": "worker0/Ingest", "wall_us": 90, "input": 60, "output": 48}}
                ],
                "counters": {{"pipeline.traces": 60, "pipeline.traces_kept": 60}}
              }},
              "allocations": {{
                "Pipeline": {{"allocs": 1000, "bytes": 5000}}
              }}
            }}"#,
            total = 100 + classify_wall,
        ))
        .expect("sample parses")
    }

    /// `report` without any object field named `doomed` and without any
    /// array element whose `"name"` is `doomed`, at every depth.
    fn without(report: &JsonValue, doomed: &str) -> JsonValue {
        match report {
            JsonValue::Object(fields) => JsonValue::Object(
                fields
                    .iter()
                    .filter(|(key, _)| key != doomed)
                    .map(|(key, v)| (key.clone(), without(v, doomed)))
                    .collect(),
            ),
            JsonValue::Array(items) => JsonValue::Array(
                items
                    .iter()
                    .filter(|item| item.get("name").and_then(|n| n.as_str()) != Some(doomed))
                    .map(|item| without(item, doomed))
                    .collect(),
            ),
            other => other.clone(),
        }
    }

    #[test]
    fn self_compare_passes() {
        let report = sample_report(200);
        let outcome = compare::run(&report, &report);
        assert!(outcome.passed(), "{outcome:?}");
        // Worker rows never enter the comparison.
        assert!(outcome.skipped.is_empty(), "{outcome:?}");
        assert!(outcome.to_json().contains("\"passed\": true"));
    }

    #[test]
    fn count_drift_is_a_mismatch_even_when_fast() {
        let baseline = sample_report(200);
        let text = sample_report(100).render_pretty().replace("\"iotps\": 12", "\"iotps\": 11");
        let outcome = compare::run(&json::parse(&text).unwrap(), &baseline);
        assert!(!outcome.passed());
        assert!(outcome.mismatches.iter().any(|m| m.starts_with("iotps:")));
        assert!(outcome.to_json().contains("\"passed\": false"));
    }

    #[test]
    fn counter_drift_is_a_mismatch() {
        let baseline = sample_report(200);
        let text = sample_report(200)
            .render_pretty()
            .replace("\"pipeline.traces_kept\": 60", "\"pipeline.traces_kept\": 59");
        let outcome = compare::run(&json::parse(&text).unwrap(), &baseline);
        assert!(!outcome.passed());
        assert!(outcome.mismatches.iter().any(|m| m.contains("pipeline.traces_kept")));
    }

    #[test]
    fn stage_missing_from_the_current_report_is_a_mismatch() {
        let baseline = sample_report(200);
        let outcome = compare::run(&without(&baseline, "Classification"), &baseline);
        assert!(!outcome.passed());
        assert!(
            outcome.mismatches.iter().any(|m| m.starts_with("stage Classification input:")),
            "{outcome:?}"
        );
        // The other direction is a new stage: reported, not failed.
        let outcome = compare::run(&baseline, &without(&baseline, "Classification"));
        assert!(outcome.passed(), "{outcome:?}");
        assert!(outcome.skipped.iter().any(|s| s.starts_with("stage Classification")));
    }

    #[test]
    fn counter_missing_from_the_current_report_is_a_mismatch() {
        let baseline = sample_report(200);
        let outcome = compare::run(&without(&baseline, "pipeline.traces_kept"), &baseline);
        assert!(!outcome.passed());
        assert!(
            outcome.mismatches.iter().any(|m| m.starts_with("counter pipeline.traces_kept:")),
            "{outcome:?}"
        );
    }

    #[test]
    fn totals_missing_from_the_current_report_are_mismatches() {
        let baseline = sample_report(200);
        for key in ["iotps", "lsps_in"] {
            let outcome = compare::run(&without(&baseline, key), &baseline);
            assert!(!outcome.passed(), "{key}");
            assert!(
                outcome.mismatches.iter().any(|m| m.starts_with(&format!("{key}:"))),
                "{outcome:?}"
            );
        }
    }

    #[test]
    fn stripped_baseline_skips_wall_checks_but_keeps_counts() {
        let baseline = compare::strip_nondeterministic(&sample_report(200));
        // 10x slower than the (stripped) baseline: passes...
        let outcome = compare::run(&sample_report(2000), &baseline);
        assert!(outcome.passed(), "{outcome:?}");
        // ...but count drift still fails against the stripped form.
        let drifted = sample_report(200)
            .render_pretty()
            .replace("\"input\": 60,", "\"input\": 61,");
        let outcome = compare::run(&json::parse(&drifted).unwrap(), &baseline);
        assert!(!outcome.passed());
    }

    fn sample_report_with_ingest(traces: u64, wall_us: u64) -> json::JsonValue {
        let base = sample_report(200).render_pretty();
        let with_ingest = base.replacen(
            "\"bench\": \"pipeline\",",
            &format!(
                r#""bench": "pipeline",
                "ingest": {{
                  "scale": 1,
                  "corpus_files": 4,
                  "corpus_bytes": 9000,
                  "corpus_records": 70,
                  "traces": {traces},
                  "lsps_in": 48,
                  "wall_us": {wall_us},
                  "traces_per_s": 123.0,
                  "bytes_per_s": 456.0,
                  "peak_resident_bytes": 1048576,
                  "peak_heap_bytes": 2048
                }},"#
            ),
            1,
        );
        json::parse(&with_ingest).expect("ingest sample parses")
    }

    #[test]
    fn missing_optional_section_is_a_structured_skip_not_a_failure() {
        // Baseline predates the ingest section: the comparison still
        // passes, and the absence is reported structurally (section +
        // reason), not as a count mismatch or a bare string.
        let outcome = compare::run(&sample_report_with_ingest(60, 100), &sample_report(200));
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!(
            outcome.sections_skipped,
            vec![compare::SectionSkip {
                section: "ingest".to_string(),
                reason: "absent from baseline report".to_string(),
            }]
        );
        assert!(
            !outcome.skipped.iter().any(|s| s.starts_with("ingest")),
            "section-level skip must not leak into the row-level list: {outcome:?}"
        );
        let json = outcome.to_json();
        assert!(json.contains("\"sections_skipped\""), "{json}");
        assert!(json.contains("\"section\": \"ingest\""), "{json}");
        assert!(json.contains("\"reason\": \"absent from baseline report\""), "{json}");

        // The mirror direction names the other report.
        let outcome = compare::run(&sample_report(200), &sample_report_with_ingest(60, 100));
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!(outcome.sections_skipped[0].reason, "absent from current report");
    }

    #[test]
    fn ingest_count_drift_is_a_mismatch_but_rates_are_not_compared() {
        let baseline = sample_report_with_ingest(60, 100);
        // Slower wall, same counts: passes.
        let outcome = compare::run(&sample_report_with_ingest(60, 99_000), &baseline);
        assert!(outcome.passed(), "{outcome:?}");
        // Trace-count drift: strict failure.
        let outcome = compare::run(&sample_report_with_ingest(59, 100), &baseline);
        assert!(!outcome.passed());
        assert!(outcome.mismatches.iter().any(|m| m.starts_with("ingest.traces:")));
    }

    #[test]
    fn stripped_ingest_keeps_counts_and_nulls_measurements() {
        let stripped = compare::strip_nondeterministic(&sample_report_with_ingest(60, 100));
        let ingest = stripped.get("ingest").expect("ingest survives the strip");
        assert_eq!(ingest.get("traces").and_then(|v| v.as_u64()), Some(60));
        assert_eq!(ingest.get("corpus_bytes").and_then(|v| v.as_u64()), Some(9000));
        for key in
            ["wall_us", "traces_per_s", "bytes_per_s", "peak_resident_bytes", "peak_heap_bytes"]
        {
            assert_eq!(ingest.get(key), Some(&JsonValue::Null), "{key} should be nulled");
        }
        // The stripped form still count-checks strictly against a drift.
        let outcome = compare::run(&sample_report_with_ingest(59, 100), &stripped);
        assert!(!outcome.passed());
    }

    fn sample_report_with_probing(probes_sent: u64, probes_per_dst: f64) -> json::JsonValue {
        let base = sample_report(200).render_pretty();
        let with_probing = base.replacen(
            "\"bench\": \"pipeline\",",
            &format!(
                r#""bench": "pipeline",
                "probing": {{
                  "strategy": "mda-lite",
                  "pairs_total": 648,
                  "pairs_probed": 500,
                  "pairs_pruned": 148,
                  "flows_traced": 500,
                  "probes_sent": {probes_sent},
                  "confirmations": 0,
                  "probes_per_dst": {probes_per_dst}
                }},"#
            ),
            1,
        );
        json::parse(&with_probing).expect("probing sample parses")
    }

    #[test]
    fn probing_self_compare_passes_and_absence_is_a_structured_skip() {
        let report = sample_report_with_probing(4000, 6.17);
        let outcome = compare::run(&report, &report);
        assert!(outcome.passed(), "{outcome:?}");
        assert!(outcome.sections_skipped.is_empty(), "{outcome:?}");

        // A baseline predating the section: structured skip, not a failure.
        let outcome = compare::run(&report, &sample_report(200));
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!(
            outcome.sections_skipped,
            vec![compare::SectionSkip {
                section: "probing".to_string(),
                reason: "absent from baseline report".to_string(),
            }]
        );
    }

    #[test]
    fn probing_strategy_mismatch_is_a_structured_skip() {
        let baseline = sample_report_with_probing(4000, 6.17);
        let text = sample_report_with_probing(9999, 99.0)
            .render_pretty()
            .replace("\"strategy\": \"mda-lite\"", "\"strategy\": \"exhaustive\"");
        let outcome = compare::run(&json::parse(&text).unwrap(), &baseline);
        // Different strategies are not comparable: no count mismatch.
        assert!(outcome.passed(), "{outcome:?}");
        assert_eq!(outcome.sections_skipped[0].section, "probing");
        assert_eq!(
            outcome.sections_skipped[0].reason,
            "reports used different probing strategies"
        );
    }

    #[test]
    fn strip_keeps_the_probing_section_wholesale() {
        let stripped =
            compare::strip_nondeterministic(&sample_report_with_probing(4000, 6.17));
        let probing = stripped.get("probing").expect("probing survives the strip");
        assert_eq!(probing.get("probes_sent").and_then(|v| v.as_u64()), Some(4000));
        assert_eq!(probing.get("probes_per_dst").and_then(|v| v.as_f64()), Some(6.17));
        // The stripped form still count-checks strictly.
        let outcome = compare::run(&sample_report_with_probing(3999, 6.17), &stripped);
        assert!(!outcome.passed());
    }

    /// A report carrying every kind of measurement `lpr-bench` ever
    /// wrote, each scaled by `x`, over fixed counts (bar `probes_sent`).
    fn measured_report(x: u64, probes_sent: u64) -> json::JsonValue {
        let xf = x as f64;
        json::parse(&format!(
            r#"{{
              "bench": "pipeline",
              "iotps": 12,
              "lsps_in": 48,
              "campaign_share": {share},
              "throughput_per_s": {{"Ingest": {rate}}},
              "telemetry": {{
                "total_wall_us": {total},
                "stages": [
                  {{"name": "Ingest", "wall_us": {wall}, "input": 60, "output": 48}},
                  {{"name": "Classification", "wall_us": {wall}, "input": 48, "output": 12}}
                ],
                "counters": {{"pipeline.traces": 60}}
              }},
              "thread_sweep": [
                {{"threads": 1, "wall_us": {wall}, "traces_per_s": {rate}, "speedup": {xf},
                  "matches_sequential": true}}
              ],
              "ingest": {{
                "scale": 1, "corpus_files": 4, "corpus_bytes": 9000,
                "corpus_records": 70, "traces": 60, "lsps_in": 48,
                "wall_us": {wall}, "traces_per_s": {rate}, "bytes_per_s": {rate},
                "peak_resident_bytes": {bytes}, "peak_heap_bytes": {bytes}
              }},
              "probing": {{
                "strategy": "exhaustive", "pairs_total": 648, "pairs_probed": 648,
                "pairs_pruned": 0, "flows_traced": 648, "probes_sent": {probes_sent},
                "confirmations": 0, "probes_per_dst": {ppd}
              }},
              "unsupported_elide": {{"kept_alloc_bytes": {bytes}, "elided_alloc_bytes": {x}}},
              "allocations": {{"Pipeline": {{"allocs": {allocs}, "bytes": {bytes}}}}}
            }}"#,
            share = 0.05 * xf,
            rate = 1234.5 * xf,
            total = 300 * x,
            wall = 150 * x,
            bytes = 4096 * x,
            allocs = 1000 * x,
            ppd = 6.17 * xf,
        ))
        .expect("measured sample parses")
    }

    #[test]
    fn tenfold_measurements_pass_but_one_more_probe_fails() {
        let baseline = measured_report(1, 4000);
        let outcome = compare::run(&measured_report(10, 4000), &baseline);
        assert!(outcome.passed(), "{outcome:?}");
        assert!(outcome.sections_skipped.is_empty(), "{outcome:?}");
        let outcome = compare::run(&measured_report(1, 4001), &baseline);
        assert!(!outcome.passed());
        assert_eq!(
            outcome.mismatches,
            vec!["probing.probes_sent: 4001 differs from baseline 4000".to_string()]
        );
    }
}
