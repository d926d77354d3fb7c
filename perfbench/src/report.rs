//! The metrics the benchmark prints, by name and unit, and the result
//! line. `BENCHMARK.json` at the repository root lists the same names.

use std::fmt::Write as _;

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_qps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("geomean_ms.hsp", "ms"),
    ("geomean_ms.cdp", "ms"),
    ("ok_share", "share"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by a traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rdf.ntriples_parse_s", "s"),
    ("store.build_s", "s"),
    ("rdf.decode_ms", "ms"),
    ("rdf.decoded_cells", "count"),
    ("sparql.parse_ms", "ms"),
    ("sparql.canon_ms", "ms"),
    ("core.plan_ms", "ms"),
    ("baseline.plan_ms", "ms"),
    ("engine.exec_ms", "ms"),
    ("engine.intermediate_rows", "count"),
    ("engine.pipeline_rows_avoided", "count"),
    ("engine.pool_hit_ratio", "ratio"),
    ("engine.governor_mem_peak_bytes", "bytes"),
    ("engine.merged_scans", "count"),
    ("engine.pool_batches", "count"),
    ("engine.cross_query_switches", "count"),
    ("results.render_ms", "ms"),
    ("results.bytes", "bytes"),
    ("session.query_ms", "ms"),
    ("session.overhead_ms", "ms"),
    ("extended.query_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("cache.result_hit_ratio", "ratio"),
    ("cache.plan_hit_ratio", "ratio"),
    ("cache.invalidations", "count"),
    ("update.publish_ms", "ms"),
    ("store.delta_rows", "count"),
    ("store.compactions", "count"),
    ("serve.rejected", "count"),
    ("serve.errors", "count"),
    ("error_share", "share"),
    ("trace.overhead_ms", "ms"),
    ("trace.spans", "count"),
    ("workload.repeat_share", "share"),
    ("workload.shapes", "count"),
    ("workload.extended_share", "share"),
    ("workload.updates_sent", "count"),
];

/// Metric values by name, in the order they were set.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The `metrics` object over `table`, each value with its unit.
    /// Panics if a metric of the table was never set: every run must
    /// print every metric.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self
                .get(name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"));
            if i > 0 {
                out.push_str(", ");
            }
            write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(value)
            )
            .expect("writing to a String");
        }
        out.push('}');
        out
    }
}

/// A JSON number; non-finite values (nothing measured) print as `null`.
pub fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn string(value: &str) -> String {
    let mut out = String::from("\"");
    for c in value.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics_json: &str) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}",
        failed == 0 && attempted > 0
    )
}
