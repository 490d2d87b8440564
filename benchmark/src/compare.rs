//! Sets of runs and their comparison: one row per workload ×
//! end-to-end metric, with both medians and quartiles, the relative
//! change, the metric's bound and a verdict.

use crate::metrics::{bound, END_TO_END, WORKLOADS};
use crate::report::{get, metrics_of, num, obj};
use crate::stats::{quartiles, spread};
use serde::Value;

/// Every run of one workload in a set.
#[derive(Debug, Default, Clone)]
pub struct Entry {
    /// Checked calls, summed over the runs.
    pub attempted: u64,
    /// Wrong or failed calls, summed over the runs.
    pub failed: u64,
    /// Per end-to-end metric, its value in each run.
    pub metrics: Vec<(String, Vec<f64>)>,
}

/// A set of runs of one build: per workload, the value of every
/// end-to-end metric in every run.
#[derive(Debug, Default, Clone)]
pub struct RunSet {
    /// (workload, its runs), in the order first added.
    pub workloads: Vec<(String, Entry)>,
}

impl RunSet {
    /// Index of `workload`'s entry, created empty if absent.
    fn entry(&mut self, workload: &str) -> usize {
        match self.workloads.iter().position(|(w, _)| w == workload) {
            Some(at) => at,
            None => {
                self.workloads
                    .push((workload.to_string(), Entry::default()));
                self.workloads.len() - 1
            }
        }
    }

    /// Add one run's result line.
    pub fn add(&mut self, workload: &str, line: &Value) {
        let at = self.entry(workload);
        let entry = &mut self.workloads[at].1;
        entry.attempted += get(line, "attempted").and_then(num).unwrap_or(0.0) as u64;
        entry.failed += get(line, "failed").and_then(num).unwrap_or(0.0) as u64;
        for (name, value) in metrics_of(line) {
            match entry.metrics.iter_mut().find(|(n, _)| *n == name) {
                Some((_, values)) => values.push(value),
                None => entry.metrics.push((name, vec![value])),
            }
        }
    }

    /// Append every run of `other`.
    pub fn merge(&mut self, other: &RunSet) {
        for (w, theirs) in &other.workloads {
            let at = self.entry(w);
            let ours = &mut self.workloads[at].1;
            ours.attempted += theirs.attempted;
            ours.failed += theirs.failed;
            for (name, values) in &theirs.metrics {
                match ours.metrics.iter_mut().find(|(n, _)| n == name) {
                    Some((_, vs)) => vs.extend(values),
                    None => ours.metrics.push((name.clone(), values.clone())),
                }
            }
        }
    }

    /// As JSON: `{workload: {attempted, failed, metrics: {name: [values]}}}`.
    pub fn to_json(&self) -> Value {
        let workloads = self
            .workloads
            .iter()
            .map(|(w, e)| {
                let metrics = e
                    .metrics
                    .iter()
                    .map(|(n, vs)| {
                        (
                            n.as_str(),
                            Value::Seq(vs.iter().map(|&v| Value::F64(v)).collect()),
                        )
                    })
                    .collect();
                let entry = obj(vec![
                    ("attempted", Value::U64(e.attempted)),
                    ("failed", Value::U64(e.failed)),
                    ("metrics", obj(metrics)),
                ]);
                (w.as_str(), entry)
            })
            .collect();
        obj(workloads)
    }

    /// Back from [`to_json`](Self::to_json)'s form.
    pub fn from_json(v: &Value) -> Result<RunSet, String> {
        let mut set = RunSet::default();
        for (w, e) in v.as_map().ok_or("a run set is a JSON object")? {
            let w = w.as_str().ok_or("workload names are strings")?;
            let count = |key| get(e, key).and_then(num).ok_or(format!("{w}: no `{key}`"));
            let mut entry = Entry {
                attempted: count("attempted")? as u64,
                failed: count("failed")? as u64,
                metrics: Vec::new(),
            };
            let metrics = get(e, "metrics").and_then(Value::as_map);
            for (name, values) in metrics.ok_or(format!("{w}: no `metrics`"))? {
                let name = name.as_str().ok_or("metric names are strings")?;
                let values = values.as_seq().ok_or(format!("{w}.{name}: not a list"))?;
                let values: Option<Vec<f64>> = values.iter().map(num).collect();
                entry.metrics.push((
                    name.to_string(),
                    values.ok_or(format!("{w}.{name}: not numbers"))?,
                ));
            }
            set.workloads.push((w.to_string(), entry));
        }
        Ok(set)
    }

    /// The runs of a workload × metric; `None` when there are none.
    fn values(&self, workload: &str, metric: &str) -> Option<&[f64]> {
        let (_, entry) = self.workloads.iter().find(|(w, _)| w == workload)?;
        let (_, values) = entry.metrics.iter().find(|(n, _)| n == metric)?;
        (!values.is_empty()).then_some(values)
    }

    /// Wrong or failed calls over all workloads.
    pub fn failed(&self) -> u64 {
        self.workloads.iter().map(|(_, e)| e.failed).sum()
    }
}

/// What a row concludes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// A set's own inter-quartile spread exceeds the bound, so the
    /// medians cannot be told apart (unless every run of B reads
    /// better than every run of A).
    Unresolved,
}

impl Verdict {
    /// `ok` / `regressed` / `unresolved`.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One workload × end-to-end metric.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// End-to-end metric.
    pub metric: &'static str,
    /// (q1, median, q3) of set A.
    pub a: (f64, f64, f64),
    /// (q1, median, q3) of set B.
    pub b: (f64, f64, f64),
    /// (B median − A median) / A median; positive is worse.
    pub delta: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

/// Compare set B against set A (the baseline). A workload × metric
/// that either set lacks is an error: a comparison that skipped it
/// would pass without having looked.
pub fn compare(a: &RunSet, b: &RunSet) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for workload in WORKLOADS {
        for (metric, ..) in END_TO_END {
            let bound = bound(workload, metric);
            let missing = |set| format!("set {set} has no runs of {workload} {metric}");
            let va = a.values(workload, metric).ok_or_else(|| missing("A"))?;
            let vb = b.values(workload, metric).ok_or_else(|| missing("B"))?;
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let delta = (qb.1 - qa.1) / qa.1;
            let noisy = spread(va) > bound || spread(vb) > bound;
            let all_better = vb.iter().copied().fold(f64::MIN, f64::max)
                < va.iter().copied().fold(f64::MAX, f64::min);
            let verdict = if noisy && !all_better {
                Verdict::Unresolved
            } else if delta > bound {
                Verdict::Regressed
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric,
                a: qa,
                b: qb,
                delta,
                bound,
                verdict,
            });
        }
    }
    Ok(rows)
}

/// The rows as an aligned text table.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<15} {:<13} {:>34} {:>34} {:>8} {:>6}  verdict\n",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "delta", "bound"
    );
    let cell = |q: (f64, f64, f64)| format!("{:.4} [{:.4}, {:.4}]", q.1, q.0, q.2);
    for r in rows {
        out += &format!(
            "{:<15} {:<13} {:>34} {:>34} {:>+7.2}% {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            cell(r.a),
            cell(r.b),
            r.delta * 100.0,
            r.bound * 100.0,
            r.verdict.name()
        );
    }
    out
}

/// The rows as JSON.
pub fn rows_json(rows: &[Row]) -> Value {
    let triple = |q: (f64, f64, f64)| {
        obj(vec![
            ("q1", Value::F64(q.0)),
            ("median", Value::F64(q.1)),
            ("q3", Value::F64(q.2)),
        ])
    };
    Value::Seq(
        rows.iter()
            .map(|r| {
                obj(vec![
                    ("workload", Value::Str(r.workload.clone())),
                    ("metric", Value::Str(r.metric.to_string())),
                    ("a", triple(r.a)),
                    ("b", triple(r.b)),
                    ("delta", Value::F64(r.delta)),
                    ("bound", Value::F64(r.bound)),
                    ("verdict", Value::Str(r.verdict.name().to_string())),
                ])
            })
            .collect(),
    )
}

/// True when the comparison must fail the command: a regressed row,
/// or any wrong verdict in either set.
pub fn fails(rows: &[Row], a: &RunSet, b: &RunSet) -> bool {
    rows.iter().any(|r| r.verdict == Verdict::Regressed) || a.failed() + b.failed() > 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{parse, render as to_text, result_line};

    /// A complete set: every workload × metric, `read_p50_ns` of
    /// `hit_steady` as given and 1.0 everywhere else.
    fn set(read_p50: &[f64], failed: u64) -> RunSet {
        let mut s = RunSet::default();
        for workload in WORKLOADS {
            for &v in read_p50 {
                let metrics: Vec<(&str, f64)> = END_TO_END
                    .iter()
                    .map(|&(m, ..)| match (workload, m) {
                        ("hit_steady", "read_p50_ns") => (m, v),
                        _ => (m, 1.0),
                    })
                    .collect();
                let failed = if workload == "hit_steady" { failed } else { 0 };
                s.add(
                    workload,
                    &parse(&result_line(100, failed, &metrics)).unwrap(),
                );
            }
        }
        s
    }

    fn verdict_of(a: &[f64], b: &[f64]) -> Verdict {
        compare(&set(a, 0), &set(b, 0))
            .unwrap()
            .into_iter()
            .find(|r| r.metric == "read_p50_ns")
            .unwrap()
            .verdict
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let b = bound("hit_steady", "read_p50_ns");
        let base = [270.0, 270.5, 271.0, 271.5, 272.0];
        assert_eq!(verdict_of(&base, &base), Verdict::Ok);
        // Worse by four fifths of the bound is inside it, by six
        // fifths is not.
        let worse_by = |share: f64| base.map(|v| v * (1.0 + share * b));
        assert_eq!(verdict_of(&base, &worse_by(0.8)), Verdict::Ok);
        assert_eq!(verdict_of(&base, &worse_by(1.2)), Verdict::Regressed);
        // A set whose own quartiles are further apart than the bound
        // resolves nothing …
        let noisy = [1.0 - 2.0 * b, 1.0 - b, 1.0, 1.0 + b, 1.0 + 2.0 * b].map(|f| 271.0 * f);
        assert_eq!(verdict_of(&noisy, &base), Verdict::Unresolved);
        // … unless every run of B beats every run of A.
        assert_eq!(verdict_of(&noisy, &base.map(|v| v * 0.5)), Verdict::Ok);
    }

    /// The bound is the workload's own: a change `miss_prove`'s noise
    /// would swallow is a regression on `hit_steady`.
    #[test]
    fn the_bound_is_per_workload() {
        assert!(bound("hit_steady", "read_p50_ns") < bound("miss_prove", "read_p50_ns"));
        let rows = compare(&set(&[270.0, 271.0], 0), &set(&[270.0, 271.0], 0)).unwrap();
        let of = |w: &str| {
            let row = rows
                .iter()
                .find(|r| r.workload == w && r.metric == "read_p50_ns");
            row.unwrap().bound
        };
        assert_eq!(of("hit_steady"), bound("hit_steady", "read_p50_ns"));
        assert_eq!(of("miss_prove"), bound("miss_prove", "read_p50_ns"));
    }

    #[test]
    fn a_failed_call_fails_the_comparison_even_with_equal_medians() {
        let (a, b) = (set(&[270.0, 271.0], 0), set(&[270.0, 271.0], 1));
        let rows = compare(&a, &b).unwrap();
        assert!(rows.iter().all(|r| r.verdict == Verdict::Ok));
        assert!(fails(&rows, &a, &b));
        assert!(!fails(&rows, &a, &a));
    }

    #[test]
    fn a_missing_workload_or_metric_is_an_error_not_a_pass() {
        let whole = set(&[270.0, 271.0], 0);
        let mut no_cluster = whole.clone();
        no_cluster.workloads.retain(|(w, _)| w != "cluster_revoke");
        let err = compare(&whole, &no_cluster).unwrap_err();
        assert!(
            err.contains("set B") && err.contains("cluster_revoke"),
            "{err}"
        );
        let mut no_rss = whole.clone();
        no_rss.workloads[0]
            .1
            .metrics
            .retain(|(m, _)| m != "peak_rss_mb");
        let err = compare(&no_rss, &whole).unwrap_err();
        assert!(
            err.contains("set A") && err.contains("peak_rss_mb"),
            "{err}"
        );
    }

    #[test]
    fn run_sets_survive_a_json_round_trip() {
        let a = set(&[270.5, 271.25, 272.0], 0);
        let back = RunSet::from_json(&parse(&to_text(&a.to_json())).unwrap()).unwrap();
        assert_eq!(
            back.values("hit_steady", "read_p50_ns"),
            a.values("hit_steady", "read_p50_ns")
        );
        assert_eq!(back.workloads[0].1.attempted, 300);
    }
}
