//! The metric catalogue: every name `BENCHMARK.json` lists, with its
//! unit and direction, the bounds of the end-to-end metrics, and for
//! each per-layer metric the end-to-end metric it should move on which
//! workload. `bench` prints exactly these (tests hold the two files
//! together); README.md says what each one measures.

/// The four workloads, in the order they are listed everywhere.
pub const WORKLOADS: [&str; 4] = ["hit_steady", "miss_prove", "policy_churn", "cluster_revoke"];

/// An end-to-end metric: (name, unit, bound). All are better lower.
/// `bound` is what `BENCHMARK.json` carries, the share of the parent's
/// median by which the metric may worsen on any workload before a
/// change is rejected: the loosest of its [`BOUNDS`] column, since the
/// file has room for one bound per metric.
pub const END_TO_END: [(&str, &str, f64); 6] = [
    ("read_p50_ns", "ns", 0.15),
    ("read_p75_ns", "ns", 0.25),
    ("write_p50_us", "us", 0.25),
    ("cycle_p50_us", "us", 0.25),
    ("setup_s", "s", 0.25),
    ("peak_rss_mb", "MB", 0.05),
];

/// `bench compare`'s bound for each workload (rows, in [`WORKLOADS`]
/// order) × end-to-end metric (columns, in [`END_TO_END`] order): three
/// times the widest spread between identical runs measured on this
/// host (README.md, "Noise"), rounded up to 5, 10, 15 or 25 %.
pub const BOUNDS: [[f64; 6]; 4] = [
    [0.05, 0.05, 0.10, 0.25, 0.25, 0.05],
    [0.15, 0.25, 0.25, 0.25, 0.25, 0.05],
    [0.10, 0.15, 0.10, 0.10, 0.25, 0.05],
    [0.05, 0.10, 0.25, 0.25, 0.25, 0.05],
];

/// [`BOUNDS`] entry of a workload × end-to-end metric.
pub fn bound(workload: &str, metric: &str) -> f64 {
    let row = WORKLOADS.iter().position(|&w| w == workload);
    let column = END_TO_END.iter().position(|&(m, ..)| m == metric);
    match (row, column) {
        (Some(row), Some(column)) => BOUNDS[row][column],
        _ => panic!("{workload} × {metric} is not in the catalogue"),
    }
}

// The `moves` targets most per-layer metrics share.
const HIT: &str = "read_p50_ns/hit_steady";
const MISS: &str = "read_p50_ns/miss_prove";
const CHURN: &str = "read_p50_ns/policy_churn";
const MOVE_LABEL: &str = "write_p50_us/policy_churn,miss_prove";
const REVOKE: &str = "write_p50_us/cluster_revoke";
const SETUP: &str = "setup_s/hit_steady,miss_prove,policy_churn";
const NONE: &str = "-";

/// A per-layer metric: (name, unit, better, moves). `moves` names the
/// end-to-end metric and the workloads a change of this number should
/// show on, as `metric/workload[,workload]` — on every other pairing
/// the prediction is "no change" — or `-` for the `driver.*` metrics,
/// which describe the measuring itself. (`BENCHMARK.json` may carry
/// only name, unit and direction; the traced run prints `moves` beside
/// each value.) README.md says where each value comes from: a driver
/// span, a stats count or a `layers` probe.
pub const PER_LAYER: [(&str, &str, &str, &str); 70] = [
    // kernel
    ("kernel.null_syscall_ns", "ns", "lower", HIT),
    ("kernel.config_read_ns", "ns", "lower", HIT),
    ("kernel.unattributed_hit_ns", "ns", "lower", HIT),
    ("kernel.authorize_refill_us", "us", "lower", CHURN),
    ("kernel.async_submit_ns", "ns", "lower", MISS),
    ("kernel.ticket_wait_us", "us", "lower", MISS),
    ("kernel.transfer_label_us", "us", "lower", MOVE_LABEL),
    ("kernel.revocation_fence_us", "us", "lower", MOVE_LABEL),
    ("kernel.mint_credential_us", "us", "lower", MOVE_LABEL),
    ("kernel.revoke_credential_us", "us", "lower", MOVE_LABEL),
    (
        "kernel.setgoal_us",
        "us",
        "lower",
        "write_p50_us/hit_steady",
    ),
    ("kernel.spawn_us", "us", "lower", SETUP),
    ("kernel.kernel_label_us", "us", "lower", SETUP),
    // core
    ("core.opname_from_ns", "ns", "lower", HIT),
    ("core.cachekey_build_ns", "ns", "lower", HIT),
    ("core.dcache_lookup_hit_ns", "ns", "lower", HIT),
    ("core.dcache_lookup_miss_ns", "ns", "lower", HIT),
    ("core.dcache_insert_if_ns", "ns", "lower", CHURN),
    ("core.goal_effective_ns", "ns", "lower", CHURN),
    ("core.label_snapshot_ns", "ns", "lower", CHURN),
    (
        "core.dcache_clear_us",
        "us",
        "lower",
        "write_p50_us/policy_churn",
    ),
    ("core.guard_prove_batch_us", "us", "lower", MISS),
    (
        "core.dcache_hit_ratio",
        "ratio",
        "higher",
        "read_p50_ns/hit_steady,miss_prove,policy_churn",
    ),
    (
        "core.dcache_invalidations_per_write",
        "count",
        "lower",
        "write_p50_us/hit_steady,policy_churn",
    ),
    ("core.dcache_collisions", "count", "lower", HIT),
    ("core.read_retries", "count", "lower", HIT),
    ("core.read_fallbacks", "count", "lower", HIT),
    // nal
    (
        "nal.normalize_us",
        "us",
        "lower",
        "read_p50_ns/miss_prove,policy_churn",
    ),
    ("nal.prove_us", "us", "lower", MISS),
    ("nal.prove_batch_us_per_goal", "us", "lower", MISS),
    ("nal.check_us", "us", "lower", MISS),
    ("nal.cred_fingerprint_us", "us", "lower", MISS),
    ("nal.parse_us", "us", "lower", SETUP),
    ("nal.memo_hit_ratio", "ratio", "higher", MISS),
    ("nal.batch_share_ratio", "ratio", "higher", MISS),
    // authzd
    ("authzd.submit_ns", "ns", "lower", MISS),
    ("authzd.roundtrip_us", "us", "lower", MISS),
    (
        "authzd.quiesce_idle_us",
        "us",
        "lower",
        "write_p50_us/miss_prove",
    ),
    ("authzd.avg_batch", "count", "higher", MISS),
    ("authzd.rejected", "count", "lower", MISS),
    ("authzd.executor_panics", "count", "lower", MISS),
    // obs
    ("obs.hist_record_ns", "ns", "lower", HIT),
    ("obs.audit_push_ns", "ns", "lower", HIT),
    ("obs.telemetry_snapshot_us", "us", "lower", HIT),
    ("obs.hit_overhead_ratio", "ratio", "lower", HIT),
    ("obs.audit_dropped", "count", "lower", HIT),
    // dist
    ("dist.revoke_broadcast_us", "us", "lower", REVOKE),
    ("dist.step_us", "us", "lower", REVOKE),
    ("dist.steps_per_revoke", "count", "lower", REVOKE),
    ("dist.msgs_per_revoke", "count", "lower", REVOKE),
    (
        "dist.mint_converge_us",
        "us",
        "lower",
        "cycle_p50_us/cluster_revoke",
    ),
    ("dist.envelope_sign_us", "us", "lower", REVOKE),
    ("dist.envelope_verify_us", "us", "lower", REVOKE),
    ("dist.message_verify_us", "us", "lower", REVOKE),
    ("dist.brb_handle_us", "us", "lower", REVOKE),
    ("dist.orset_apply_us", "us", "lower", REVOKE),
    ("dist.remote_revoke_apply_us", "us", "lower", REVOKE),
    ("dist.lossy_revoke_p50_us", "us", "lower", REVOKE),
    ("dist.brb_rejected", "count", "lower", REVOKE),
    // driver
    ("driver.ops_s", "1/s", "higher", NONE),
    ("driver.cpu_ns_per_op", "ns", "lower", NONE),
    ("driver.read_p99_ns", "ns", "lower", NONE),
    ("driver.write_p75_us", "us", "lower", NONE),
    ("driver.write_p99_us", "us", "lower", NONE),
    ("driver.timer_ns", "ns", "lower", NONE),
    ("driver.resident_pairs", "count", "higher", NONE),
    ("driver.samples_read", "count", "higher", NONE),
    ("driver.samples_write", "count", "higher", NONE),
    ("driver.trace_overhead_ratio", "ratio", "lower", NONE),
    ("driver.cycle_drift_ratio", "ratio", "lower", NONE),
];

/// Unit of a catalogued metric (end-to-end or per-layer).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|&(n, u, _)| (n, u))
        .chain(PER_LAYER.iter().map(|&(n, u, ..)| (n, u)))
        .find(|&(n, _)| n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{get, num, parse};

    /// `BENCHMARK.json` lists exactly the catalogue: same names, same
    /// order, same units, directions and bounds.
    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json =
            parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON");
        let field = |entry: &serde::Value, key: &str| {
            get(entry, key).and_then(|v| v.as_str().map(String::from))
        };
        let list = |key: &str| {
            get(&json, key)
                .and_then(|v| v.as_seq().map(<[_]>::to_vec))
                .expect(key)
        };

        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| field(w, "name").unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);

        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, (name, unit, bound)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name").as_deref(), Some(name));
            assert_eq!(field(entry, "unit").as_deref(), Some(unit));
            assert_eq!(field(entry, "better").as_deref(), Some("lower"));
            assert_eq!(get(entry, "bound").and_then(num), Some(bound));
        }

        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, (name, unit, better, _)) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name").as_deref(), Some(name));
            assert_eq!(field(entry, "unit").as_deref(), Some(unit));
            assert_eq!(field(entry, "better").as_deref(), Some(better));
        }
    }

    /// The one bound per metric that `BENCHMARK.json` carries is the
    /// loosest of the per-workload bounds `compare` applies.
    #[test]
    fn benchmark_json_bounds_are_the_loosest_per_workload_bounds() {
        for (column, (metric, _, listed)) in END_TO_END.iter().enumerate() {
            let loosest = BOUNDS.iter().map(|row| row[column]).fold(0.0, f64::max);
            assert_eq!(*listed, loosest, "{metric}");
            assert!(loosest <= 0.25, "the contract caps a bound at 25 %");
        }
    }

    /// Every per-layer metric names the end-to-end metric and the
    /// workloads it should move (or `-`: it describes the measuring).
    #[test]
    fn every_per_layer_metric_says_what_it_should_move() {
        for (name, .., moves) in PER_LAYER {
            if moves == "-" {
                assert!(name.starts_with("driver."), "{name}");
                continue;
            }
            let (metric, workloads) = moves.split_once('/').expect(name);
            assert!(END_TO_END.iter().any(|&(m, ..)| m == metric), "{name}");
            assert!(
                workloads.split(',').all(|w| WORKLOADS.contains(&w)),
                "{name}"
            );
        }
    }
}
