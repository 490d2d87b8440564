//! The unified metrics registry and its export formats.
//!
//! Every stats surface in the stack (`DecisionCacheStats`,
//! `GuardStats`, `ProverStats`, `PoolStats`, the interpose counters,
//! the stage histograms, the replication counters) implements
//! [`Collect`]: it registers its own quantities under stable names
//! into one [`MetricsRegistry`], which renders them all as one
//! [`TelemetrySnapshot`] — Prometheus-style text exposition or JSON,
//! both hand-rolled (this crate is dependency-free).
//!
//! The registry is a *collection* surface, not a recording one: hot
//! paths keep bumping their own striped atomics and histograms; a
//! snapshot call polls those sources once and freezes the values.

use crate::hist::HistogramSnapshot;

/// One sampled metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Monotone counter.
    Counter(u64),
    /// Point-in-time level (may go down).
    Gauge(i64),
    /// Distribution summary.
    Histogram(HistogramSnapshot),
}

/// One named, sampled metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    /// Stable exposition name (`snake_case`, `nexus_` prefix by
    /// convention).
    pub name: String,
    /// One-line human description.
    pub help: String,
    /// The sampled value.
    pub value: SampleValue,
}

/// Collects named metric samples and freezes them into a
/// [`TelemetrySnapshot`].
///
/// ```
/// use nexus_obs::{Histogram, MetricsRegistry};
///
/// let h = Histogram::new();
/// h.record(250);
///
/// let mut reg = MetricsRegistry::new();
/// reg.counter("nexus_demo_hits_total", "demo hits", 3);
/// reg.gauge("nexus_demo_depth", "demo backlog", 2);
/// reg.histogram("nexus_demo_latency_ns", "demo latency", h.snapshot());
/// let snap = reg.finish();
/// assert!(snap.render_text().contains("nexus_demo_hits_total 3"));
/// assert!(snap.render_json().contains("\"nexus_demo_depth\""));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Vec<MetricSample>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Register a counter sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) -> &mut Self {
        self.metrics.push(MetricSample {
            name: name.to_string(),
            help: help.to_string(),
            value: SampleValue::Counter(value),
        });
        self
    }

    /// Register a gauge sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: i64) -> &mut Self {
        self.metrics.push(MetricSample {
            name: name.to_string(),
            help: help.to_string(),
            value: SampleValue::Gauge(value),
        });
        self
    }

    /// Register a histogram sample.
    pub fn histogram(&mut self, name: &str, help: &str, snapshot: HistogramSnapshot) -> &mut Self {
        self.metrics.push(MetricSample {
            name: name.to_string(),
            help: help.to_string(),
            value: SampleValue::Histogram(snapshot),
        });
        self
    }

    /// Freeze into a snapshot.
    pub fn finish(self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            metrics: self.metrics,
        }
    }
}

/// A stats surface that registers its own samples. Implemented next
/// to each stats struct, in the crate that owns it, so the holder of
/// several subsystems (the kernel, a cluster node) collects by walking
/// them instead of restating their fields.
pub trait Collect {
    /// Register every sample this surface owns, in a stable order.
    fn collect(&self, r: &mut MetricsRegistry);
}

/// A frozen set of metric samples with text and JSON renderers.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetrySnapshot {
    /// The samples, in registration order.
    pub metrics: Vec<MetricSample>,
}

impl TelemetrySnapshot {
    /// Look up a sample by name.
    pub fn get(&self, name: &str) -> Option<&MetricSample> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Prometheus-style text exposition: `# HELP` / `# TYPE` preamble
    /// per metric; histograms render as summaries (quantile series
    /// plus `_sum` and `_count`).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("# HELP {} {}\n", m.name, m.help));
            match &m.value {
                SampleValue::Counter(v) => {
                    out.push_str(&format!("# TYPE {} counter\n{} {}\n", m.name, m.name, v));
                }
                SampleValue::Gauge(v) => {
                    out.push_str(&format!("# TYPE {} gauge\n{} {}\n", m.name, m.name, v));
                }
                SampleValue::Histogram(h) => {
                    out.push_str(&format!("# TYPE {} summary\n", m.name));
                    for (q, v) in [
                        ("0.5", h.p50()),
                        ("0.9", h.p90()),
                        ("0.99", h.p99()),
                        ("0.999", h.p999()),
                    ] {
                        out.push_str(&format!("{}{{quantile=\"{}\"}} {}\n", m.name, q, v));
                    }
                    out.push_str(&format!("{}_sum {}\n", m.name, h.sum));
                    out.push_str(&format!("{}_count {}\n", m.name, h.count));
                }
            }
        }
        out
    }

    /// JSON object keyed by metric name. Counters and gauges render
    /// as numbers; histograms as
    /// `{"count", "sum", "mean", "p50", "p90", "p99", "p999", "max"}`.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_string(&m.name));
            out.push(':');
            match &m.value {
                SampleValue::Counter(v) => out.push_str(&v.to_string()),
                SampleValue::Gauge(v) => out.push_str(&v.to_string()),
                SampleValue::Histogram(h) => {
                    out.push_str(&format!(
                        "{{\"count\":{},\"sum\":{},\"mean\":{:.1},\"p50\":{},\"p90\":{},\
                         \"p99\":{},\"p999\":{},\"max\":{}}}",
                        h.count,
                        h.sum,
                        h.mean(),
                        h.p50(),
                        h.p90(),
                        h.p99(),
                        h.p999(),
                        h.max()
                    ));
                }
            }
        }
        out.push('}');
        out
    }
}

/// Render `s` as a JSON string literal (quoted, escaped).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn sample() -> TelemetrySnapshot {
        let h = Histogram::new();
        for v in [100u64, 200, 300] {
            h.record(v);
        }
        let mut reg = MetricsRegistry::new();
        reg.counter("nexus_hits_total", "cache hits", 42)
            .gauge("nexus_queue_depth", "backlog", -1)
            .histogram("nexus_lat_ns", "latency", h.snapshot());
        reg.finish()
    }

    #[test]
    fn text_exposition_has_help_type_and_quantiles() {
        let text = sample().render_text();
        assert!(text.contains("# HELP nexus_hits_total cache hits"));
        assert!(text.contains("# TYPE nexus_hits_total counter"));
        assert!(text.contains("nexus_hits_total 42"));
        assert!(text.contains("nexus_queue_depth -1"));
        assert!(text.contains("# TYPE nexus_lat_ns summary"));
        assert!(text.contains("nexus_lat_ns{quantile=\"0.99\"}"));
        assert!(text.contains("nexus_lat_ns_count 3"));
        assert!(text.contains("nexus_lat_ns_sum 600"));
    }

    #[test]
    fn json_is_well_formed_and_keyed_by_name() {
        let snap = sample();
        let json = snap.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"nexus_hits_total\":42"));
        assert!(json.contains("\"nexus_queue_depth\":-1"));
        assert!(json.contains("\"count\":3"));
        assert!(snap.get("nexus_lat_ns").is_some());
        assert!(snap.get("nope").is_none());
    }

    #[test]
    fn json_string_escapes_control_characters() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
