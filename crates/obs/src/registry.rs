//! The unified metrics registry and its export formats.
//!
//! Every stats surface in the stack implements [`Collect`]: it
//! registers its own quantities under stable names into one
//! [`MetricsRegistry`], which renders them all as one
//! [`TelemetrySnapshot`] — Prometheus-style text exposition or JSON,
//! both hand-rolled (this crate is dependency-free). A leaf surface is
//! a [`counters!`](crate::counters) table, which writes its `Collect`;
//! the impls written by hand are the ones that *compose* other
//! surfaces (the kernel, the stage timers, the audit journal).
//!
//! The registry is a *collection* surface, not a recording one: hot
//! paths keep bumping their own cells and histograms; a snapshot call
//! polls those sources once and freezes the values.

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

/// Declare a stats surface as a table: **one row per counter** — doc
/// comment, field, cell (`plain` | `striped`, see [`crate::cell`]),
/// kind (`counter` | `gauge`), metric name, help — and get the live
/// struct of cells, the frozen all-`u64` struct, the `snapshot()` that
/// reads one into the other, and the frozen struct's [`Collect`], all
/// in row order. A new counter is one new row next to the code that
/// bumps it.
///
/// ```
/// nexus_obs::counters! {
///     /// Door statistics.
///     pub struct DoorStats, live DoorCounters {
///         /// Times the door opened.
///         opened: striped counter "demo_door_opened_total" "door openings",
///         /// Most people through in one opening.
///         widest: plain gauge "demo_door_widest" "largest group admitted",
///     }
/// }
///
/// let door = DoorCounters::default();
/// door.opened.add(1);
/// door.widest.max(3);
/// assert_eq!(door.snapshot(), DoorStats { opened: 1, widest: 3 });
/// ```
///
/// The live struct is `pub(crate)`: cells are their owner's state, the
/// frozen struct is what leaves the crate. A gauge derived at read
/// time (a queue depth) is a row whose cell is never bumped; its owner
/// overwrites it with struct-update syntax over `snapshot()`.
///
/// A surface mutated through `&mut` needs no cells: without
/// `, live Name` and the cell column, only the struct and its
/// `Collect` are generated. That form may embed one other surface,
/// collected first: `struct Outer(inner: Inner) { rows }`.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $Stats:ident, live $Live:ident {
            $(
                $(#[$fmeta:meta])*
                $field:ident: $cell:ident $kind:ident $name:literal $help:literal
            ),* $(,)?
        }
    ) => {
        $crate::counters! {
            $(#[$meta])*
            $vis struct $Stats { $( $(#[$fmeta])* $field: $kind $name $help ),* }
        }

        #[derive(Default)]
        pub(crate) struct $Live {
            $( $(#[$fmeta])* pub $field: $crate::counters!(@cell $cell), )*
        }

        impl $Live {
            /// Read every cell once.
            pub fn snapshot(&self) -> $Stats {
                $Stats { $( $field: self.$field.get(), )* }
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $Stats:ident
            $(( $(#[$emeta:meta])* $embedded:ident: $Embedded:ty ))?
        {
            $(
                $(#[$fmeta:meta])*
                $field:ident: $kind:ident $name:literal $help:literal
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $Stats {
            $( $(#[$emeta])* pub $embedded: $Embedded, )?
            $( $(#[$fmeta])* pub $field: u64, )*
        }

        impl $crate::Collect for $Stats {
            fn collect(&self, r: &mut $crate::MetricsRegistry) {
                $( $crate::Collect::collect(&self.$embedded, r); )?
                $( r.$kind($name, $help, $crate::counters!(@$kind self.$field)); )*
            }
        }
    };
    (@cell plain) => { $crate::Plain };
    (@cell striped) => { $crate::Striped };
    (@counter $v:expr) => { $v };
    (@gauge $v:expr) => { i64::try_from($v).unwrap_or(i64::MAX) };
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

    crate::counters! {
        /// A surface with one row of each shape.
        pub struct DemoStats, live DemoCounters {
            /// Bumped off the hot path.
            cold: plain counter "demo_cold_total" "a plain counter",
            /// Bumped by every thread.
            hot: striped counter "demo_hot_total" "a striped counter",
            /// A high-water mark.
            peak: plain gauge "demo_peak" "a gauge",
        }
    }

    #[test]
    fn counters_table_yields_the_declared_rows_in_order() {
        let live = DemoCounters::default();
        live.cold.add(2);
        live.hot.add(3);
        live.hot.add(4);
        live.peak.max(9);
        live.peak.max(5);
        let frozen = live.snapshot();
        assert_eq!(
            frozen,
            DemoStats {
                cold: 2,
                hot: 7,
                peak: 9
            }
        );
        let mut reg = MetricsRegistry::new();
        frozen.collect(&mut reg);
        let rows: Vec<String> = reg
            .finish()
            .metrics
            .iter()
            .map(|m| format!("{} {:?} {}", m.name, m.value, m.help))
            .collect();
        assert_eq!(
            rows,
            [
                "demo_cold_total Counter(2) a plain counter",
                "demo_hot_total Counter(7) a striped counter",
                "demo_peak Gauge(9) a gauge",
            ]
        );
    }

    #[test]
    fn json_string_escapes_control_characters() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
