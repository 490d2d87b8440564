//! The report generator behind `reproduce`: each figure runs once into
//! its point list, the table is printed from it, and the same points
//! go into one JSON document (`reproduce --json <path>`), so runs can
//! be diffed, plotted, and regression-gated without scraping the
//! printed tables.
//!
//! The document is a single object with one key per figure; each
//! figure's value is the point list the printed table renders, as an
//! array of objects keyed by the point-struct field names. A `meta`
//! object records the mode and workload knobs a whole run used.

use crate::{fig11, fig12, fig4, fig5, fig6, fig7, fig7a, fig8, fig9, table1};
use serde::Value;

/// Workload sizes for one report run (the `quick`/full split the
/// printed tables use, plus the fig12 A/B knobs).
#[derive(Debug, Clone)]
pub struct ReportConfig {
    /// `"quick"`, `"full"`, or `"smoke"` — recorded in `meta`.
    pub mode: &'static str,
    /// Iterations for table1/fig4/fig5/fig6.
    pub iters: u64,
    /// Packets per fig7 configuration.
    pub pkts: u64,
    /// Requests per fig8 cell.
    pub reqs: u64,
    /// Authorizations per fig7a mode.
    pub fig7a_auths: u64,
    /// Iterations for the fig9 scalability curve.
    pub fig9_iters: u64,
    /// Iterations for the fig9 hit-path curve.
    pub hits_iters: u64,
    /// Measurement window for the fig9 back-pressure mode.
    pub bp_window_ms: u64,
    /// Iterations for the fig9 prover mode.
    pub prover_iters: u64,
    /// Hits per fig12 rep.
    pub fig12_iters: u64,
    /// Interleaved fig12 reps per mode.
    pub fig12_reps: usize,
    /// Timed revocation rounds per fig11 cluster size.
    pub fig11_revocations: u64,
    /// Authorization calls per fig11 cluster size.
    pub fig11_authz: u64,
}

impl ReportConfig {
    /// The `reproduce quick` workload sizes.
    pub fn quick() -> Self {
        ReportConfig {
            mode: "quick",
            iters: 300,
            pkts: 2_000,
            reqs: 50,
            fig7a_auths: 300,
            fig9_iters: 300,
            hits_iters: 20_000,
            bp_window_ms: 500,
            prover_iters: 100,
            // fig12 keeps the full sizes even in quick mode: one rep is
            // ~30 ms, and short runs are too noisy for its 5% bound.
            fig12_iters: 100_000,
            fig12_reps: 5,
            fig11_revocations: 10,
            fig11_authz: 2_000,
        }
    }

    /// The full (no-argument `reproduce`) workload sizes.
    pub fn full() -> Self {
        ReportConfig {
            mode: "full",
            iters: 2_000,
            pkts: 20_000,
            reqs: 300,
            fig7a_auths: 1_000,
            fig9_iters: 2_000,
            hits_iters: 200_000,
            bp_window_ms: 1_500,
            prover_iters: 600,
            fig12_iters: 100_000,
            fig12_reps: 5,
            fig11_revocations: 40,
            fig11_authz: 10_000,
        }
    }

    /// Minimal sizes for tests: every figure still runs, nothing is
    /// statistically meaningful.
    pub fn smoke() -> Self {
        ReportConfig {
            mode: "smoke",
            iters: 5,
            pkts: 50,
            reqs: 2,
            fig7a_auths: 5,
            fig9_iters: 5,
            hits_iters: 200,
            bp_window_ms: 50,
            prover_iters: 4,
            fig12_iters: 200,
            fig12_reps: 1,
            fig11_revocations: 1,
            fig11_authz: 50,
        }
    }
}

fn key(k: &str) -> Value {
    Value::Str(k.to_string())
}

fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (key(k), v)).collect())
}

fn s(x: &str) -> Value {
    Value::Str(x.to_string())
}

fn f(x: f64) -> Value {
    Value::F64(x)
}

fn u(x: u64) -> Value {
    Value::U64(x)
}

/// Every figure key `generate` emits, in document order.
pub const FIGURES: [&str; 13] = [
    "table1",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "fig7a",
    "fig8",
    "fig9",
    "fig9_hits",
    "fig9_bp",
    "fig9_prover",
    "fig11",
    "fig12",
];

fn meta(cfg: &ReportConfig) -> Value {
    obj(vec![
        ("mode", s(cfg.mode)),
        ("iters", u(cfg.iters)),
        ("pkts", u(cfg.pkts)),
        ("reqs", u(cfg.reqs)),
    ])
}

/// Run one figure **once** at `cfg`'s sizes, print its table in the
/// paper's layout, and return the very same points as JSON — so what a
/// reader sees and what `--json` records can never disagree. `None`
/// for an unknown key.
pub fn section(figure: &str, cfg: &ReportConfig) -> Option<Value> {
    let v = match figure {
        "table1" => {
            println!("=== Table 1: system call overhead (ns/call) ===");
            println!(
                "{:<14} {:>12} {:>12} {:>12}",
                "call", "Nexus bare", "Nexus", "direct"
            );
            let rows = table1::run(cfg.iters);
            for r in &rows {
                println!(
                    "{:<14} {:>12.0} {:>12.0} {:>12.0}",
                    r.call, r.bare_ns, r.nexus_ns, r.direct_ns
                );
            }
            rows_of(&rows, |r| {
                vec![
                    ("call", s(r.call)),
                    ("bare_ns", f(r.bare_ns)),
                    ("nexus_ns", f(r.nexus_ns)),
                    ("direct_ns", f(r.direct_ns)),
                ]
            })
        }
        "fig4" => {
            println!("\n=== Figure 4: authorization cost (ns/call) ===");
            println!("{:<12} {:>14} {:>14}", "case", "kernel cache", "no cache");
            let pts = fig4::run(cfg.iters);
            for p in &pts {
                println!(
                    "{:<12} {:>14.0} {:>14.0}",
                    p.case, p.cached_ns, p.uncached_ns
                );
            }
            rows_of(&pts, |p| {
                vec![
                    ("case", s(p.case)),
                    ("cached_ns", f(p.cached_ns)),
                    ("uncached_ns", f(p.uncached_ns)),
                ]
            })
        }
        "fig5" => {
            println!("\n=== Figure 5: proof evaluation cost (ns/check) ===");
            println!(
                "{:<10} {:>7} {:>12} {:>12}",
                "family", "#rules", "eval (E)", "full (F)"
            );
            let pts = fig5::run(cfg.iters.min(500), 20);
            for p in &pts {
                println!(
                    "{:<10} {:>7} {:>12.0} {:>12.0}",
                    p.family, p.rules, p.eval_ns, p.full_ns
                );
            }
            rows_of(&pts, |p| {
                vec![
                    ("family", s(p.family)),
                    ("rules", u(p.rules as u64)),
                    ("eval_ns", f(p.eval_ns)),
                    ("full_ns", f(p.full_ns)),
                ]
            })
        }
        "fig6" => {
            println!("\n=== Figure 6: control operation overhead (ns/op) ===");
            let pts = fig6::run(cfg.iters);
            for p in &pts {
                println!("{:<16} {:>12.0}", p.op, p.ns);
            }
            rows_of(&pts, |p| vec![("op", s(p.op)), ("ns", f(p.ns))])
        }
        "fig7" => {
            println!("\n=== Figure 7: interposition overhead (packets/s) ===");
            println!("{:<10} {:>12} {:>12}", "config", "100 B", "1500 B");
            let pts = fig7::run(cfg.pkts);
            for c in fig7::Config::ALL {
                let pps = |size: usize| {
                    pts.iter()
                        .find(|p| p.config == c.name() && p.pkt_size == size)
                        .map_or(f64::NAN, |p| p.pps)
                };
                println!("{:<10} {:>12.0} {:>12.0}", c.name(), pps(100), pps(1500));
            }
            rows_of(&pts, |p| {
                vec![
                    ("config", s(p.config)),
                    ("pkt_size", u(p.pkt_size as u64)),
                    ("pps", f(p.pps)),
                ]
            })
        }
        "fig7a" => {
            println!(
                "\n=== Figure 7a: analysis cost vs credential reuse (CertiPics upload gate) ==="
            );
            println!(
                "{:<20} {:>14} {:>8} {:>10} {:>8}",
                "mode", "ns/auth", "auths", "analyses", "minted"
            );
            let pts = fig7a::run(cfg.fig7a_auths);
            for p in &pts {
                println!(
                    "{:<20} {:>14.0} {:>8} {:>10} {:>8}",
                    p.mode, p.ns_per_auth, p.auths, p.analyses, p.minted
                );
            }
            println!(
                "(credential reuse vs re-analysis per auth: {:.1}x — acceptance bound ≥ 5x; \
                 {}-stage encoder, forced re-attest = revoke + analyze + re-mint + epoch flush)",
                fig7a::speedup(&pts),
                fig7a::ENCODER_WIDTH
            );
            rows_of(&pts, |p| {
                vec![
                    ("mode", s(p.mode)),
                    ("ns_per_auth", f(p.ns_per_auth)),
                    ("auths", u(p.auths)),
                    ("analyses", u(p.analyses)),
                    ("minted", u(p.minted)),
                ]
            })
        }
        "fig8" => {
            println!("\n=== Figure 8: application throughput (requests/s) ===");
            let pts = fig8::run(cfg.reqs);
            print_fig8(&pts);
            rows_of(&pts, |p| {
                vec![
                    ("kind", s(p.kind)),
                    ("column", s(p.column)),
                    ("variant", s(p.variant)),
                    ("size", u(p.size as u64)),
                    ("rps", f(p.rps)),
                ]
            })
        }
        "fig9" => {
            println!("\n=== Figure 9: authorization scalability (ops/s, shared Arc<Nexus>) ===");
            println!(
                "{:<8} {:>14} {:>14} {:>8}",
                "threads", "sync inline", "async batched", "ratio"
            );
            let pts = fig9::run(cfg.fig9_iters);
            for p in &pts {
                println!(
                    "{:<8} {:>14.0} {:>14.0} {:>7.2}x",
                    p.threads,
                    p.sync_ops_per_s,
                    p.async_ops_per_s,
                    p.async_ops_per_s / p.sync_ops_per_s
                );
            }
            println!("(cache-miss-heavy: decision cache off, 32-disjunct ground goal)");
            rows_of(&pts, |p| {
                vec![
                    ("threads", u(p.threads as u64)),
                    ("sync_ops_per_s", f(p.sync_ops_per_s)),
                    ("async_ops_per_s", f(p.async_ops_per_s)),
                ]
            })
        }
        "fig9_hits" => {
            println!("\n=== Figure 9 (hit path): seqlock decision-cache probe ===");
            println!(
                "{:<8} {:>14} {:>10} {:>10}",
                "threads", "hits/s", "retries", "fallbacks"
            );
            let pts = fig9::run_hits(cfg.hits_iters);
            for p in &pts {
                println!(
                    "{:<8} {:>14.0} {:>10} {:>10}",
                    p.threads, p.ops_per_s, p.read_retries, p.read_fallbacks
                );
            }
            println!(
                "(hit-dominated: all threads authorize one primed cached allow; with no \
                 writer running the probe must never retry or fall back)"
            );
            rows_of(&pts, |p| {
                vec![
                    ("threads", u(p.threads as u64)),
                    ("ops_per_s", f(p.ops_per_s)),
                    ("read_retries", u(p.read_retries)),
                    ("read_fallbacks", u(p.read_fallbacks)),
                ]
            })
        }
        "fig9_bp" => {
            println!("\n=== Figure 9 (back-pressure): one stuck external authority ===");
            println!(
                "{:<10} {:>16} {:>14} {:>10}",
                "config", "embedded ops/s", "ext submitted", "rejected"
            );
            let pts = fig9::run_back_pressure(cfg.bp_window_ms);
            for p in &pts {
                println!(
                    "{:<10} {:>16.0} {:>14} {:>10}",
                    p.mode, p.embedded_ops_per_s, p.external_submitted, p.rejected
                );
            }
            let ops = |mode: &str| {
                pts.iter()
                    .find(|p| p.mode == mode)
                    .map_or(f64::NAN, |p| p.embedded_ops_per_s)
            };
            println!(
                "(isolated embedded degradation vs baseline: {:.1}% — acceptance bound < 20%; \
                 rejected submissions faulted immediately to the inline path)",
                100.0 * (1.0 - ops("isolated") / ops("baseline"))
            );
            rows_of(&pts, |p| {
                vec![
                    ("mode", s(p.mode)),
                    ("embedded_ops_per_s", f(p.embedded_ops_per_s)),
                    ("external_submitted", u(p.external_submitted)),
                    ("rejected", u(p.rejected)),
                ]
            })
        }
        "fig9_prover" => {
            println!("\n=== Figure 9 (prover): batch-aware proof search ===");
            println!(
                "{:>12} {:>12} {:>12} {:>12} {:>10}",
                "ops/s", "memo hits", "hit rate", "share rate", "avg batch"
            );
            let p = fig9::run_prover(cfg.prover_iters);
            println!(
                "{:>12.0} {:>12} {:>11.1}% {:>11.1}% {:>10.1}",
                p.ops_per_s,
                p.memo_hits,
                100.0 * p.memo_hit_rate(),
                100.0 * p.share_rate(),
                p.avg_batch
            );
            println!(
                "(proof-heavy auto-prove workload, {}-hop delegation chain × {} conjuncts)",
                fig9::PROVER_CHAIN_LEN,
                fig9::PROVER_GOAL_WIDTH
            );
            obj(vec![
                ("ops_per_s", f(p.ops_per_s)),
                ("memo_hits", u(p.memo_hits)),
                ("memo_misses", u(p.memo_misses)),
                ("proofs", u(p.proofs)),
                ("groups", u(p.groups)),
                ("avg_batch", f(p.avg_batch)),
            ])
        }
        "fig11" => {
            println!("\n=== Figure 11: distributed Nexus (BFT-replicated credentials) ===");
            println!(
                "{:<8} {:>18} {:>16} {:>16}",
                "nodes", "revoke lat (µs)", "msgs/revoke", "authz ops/s"
            );
            let pts = fig11::run(cfg.fig11_revocations, cfg.fig11_authz);
            for p in &pts {
                println!(
                    "{:<8} {:>18.1} {:>16.1} {:>16.0}",
                    p.nodes, p.revoke_latency_us, p.msgs_per_revoke, p.authz_ops_per_s
                );
            }
            println!(
                "(in-process cluster over the deterministic simulator; latency = \
                 broadcast to applied-on-every-node, fence included; {} \
                 revocation rounds and {} round-robin authorizations per size; \
                 reads stay node-local — only credential writes pay for agreement)",
                cfg.fig11_revocations, cfg.fig11_authz
            );
            rows_of(&pts, |p| {
                vec![
                    ("nodes", u(p.nodes as u64)),
                    ("revoke_latency_us", f(p.revoke_latency_us)),
                    ("msgs_per_revoke", f(p.msgs_per_revoke)),
                    ("authz_ops_per_s", f(p.authz_ops_per_s)),
                    ("revocations", u(p.revocations)),
                ]
            })
        }
        "fig12" => {
            println!("\n=== Figure 12: telemetry overhead (primed hit path, 1 thread) ===");
            let r = fig12::run(cfg.fig12_iters, cfg.fig12_reps);
            println!("{:<12} {:>14} {:>16}", "mode", "hit ops/s", "audit events");
            println!(
                "{:<12} {:>14.0} {:>16}",
                "disabled", r.disabled_ops_per_s, 0
            );
            println!(
                "{:<12} {:>14.0} {:>16}",
                "enabled", r.enabled_ops_per_s, r.audit_recorded
            );
            println!(
                "(telemetry-on overhead: {:.2}% — acceptance bound < 5%; medians of {} \
                 interleaved reps; enabled = stage timers + audit journal + 1-in-64 hit sampling)",
                r.overhead_pct(),
                r.reps
            );
            obj(vec![
                ("disabled_ops_per_s", f(r.disabled_ops_per_s)),
                ("enabled_ops_per_s", f(r.enabled_ops_per_s)),
                ("overhead_pct", f(r.overhead_pct())),
                ("audit_recorded", u(r.audit_recorded)),
                ("reps", u(r.reps as u64)),
            ])
        }
        _ => return None,
    };
    Some(v)
}

/// One JSON object per point, keyed by the point-struct field names.
fn rows_of<T>(pts: &[T], fields: impl Fn(&T) -> Vec<(&'static str, Value)>) -> Value {
    Value::Seq(pts.iter().map(|p| obj(fields(p))).collect())
}

/// Figure 8's grid: one sub-table per (file kind, column), a row per
/// size, a column per variant.
fn print_fig8(pts: &[fig8::Point]) {
    for kind in ["static", "www"] {
        for column in ["access control", "introspection", "attested storage"] {
            println!("\n-- {kind} files / {column} --");
            let mut variants: Vec<&str> = Vec::new();
            for p in pts.iter().filter(|p| p.kind == kind && p.column == column) {
                if !variants.contains(&p.variant) {
                    variants.push(p.variant);
                }
            }
            print!("{:<10}", "size");
            for v in &variants {
                print!(" {v:>12}");
            }
            println!();
            for size in fig8::SIZES {
                print!("{size:<10}");
                for v in &variants {
                    let rps = pts
                        .iter()
                        .find(|p| {
                            p.kind == kind
                                && p.column == column
                                && p.variant == *v
                                && p.size == size
                        })
                        .map_or(f64::NAN, |p| p.rps);
                    print!(" {rps:>12.0}");
                }
                println!();
            }
        }
    }
}

/// Run `figures` (keys from [`FIGURES`]) at `cfg`'s sizes, printing
/// each table as it completes, and render the combined JSON document:
/// one key per figure, plus `meta` when the run covers every figure.
pub fn generate(figures: &[&str], cfg: &ReportConfig) -> String {
    let mut doc: Vec<(Value, Value)> = Vec::new();
    if figures == FIGURES {
        doc.push((key("meta"), meta(cfg)));
    }
    for fig in figures {
        doc.push((key(fig), section(fig, cfg).expect("known figure")));
    }
    serde_json::to_string(&Value::Map(doc)).expect("report serialization is infallible")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every figure must appear in the emitted JSON, and the document
    /// must parse back with the workspace JSON parser.
    #[test]
    fn report_json_parses_and_covers_every_figure() {
        let _guard = crate::timing_guard();
        let json = generate(&FIGURES, &ReportConfig::smoke());
        let doc: Value = serde_json::from_str(&json).expect("report must be valid JSON");
        let map = doc.as_map().expect("report must be one object");
        let keys: Vec<&str> = map.iter().filter_map(|(k, _)| k.as_str()).collect();
        for expected in [
            "meta",
            "table1",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig7a",
            "fig8",
            "fig9",
            "fig9_hits",
            "fig9_bp",
            "fig9_prover",
            "fig11",
            "fig12",
        ] {
            assert!(keys.contains(&expected), "report missing {expected}");
        }
        // Figure arrays are non-empty objects with the advertised keys.
        let fig4 = map
            .iter()
            .find(|(k, _)| k.as_str() == Some("fig4"))
            .and_then(|(_, v)| v.as_seq())
            .expect("fig4 must be an array");
        assert!(!fig4.is_empty());
        assert!(fig4[0]
            .as_map()
            .is_some_and(|m| m.iter().any(|(k, _)| k.as_str() == Some("cached_ns"))));
        // fig11 round-trips one row per cluster size.
        let fig11 = map
            .iter()
            .find(|(k, _)| k.as_str() == Some("fig11"))
            .and_then(|(_, v)| v.as_seq())
            .expect("fig11 must be an array");
        assert_eq!(fig11.len(), crate::fig11::NODE_COUNTS.len());
        for row in fig11 {
            let m = row.as_map().expect("fig11 row must be an object");
            for field in [
                "nodes",
                "revoke_latency_us",
                "msgs_per_revoke",
                "authz_ops_per_s",
                "revocations",
            ] {
                assert!(
                    m.iter().any(|(k, _)| k.as_str() == Some(field)),
                    "fig11 row missing {field}"
                );
            }
        }
        // fig12 carries the A/B summary.
        let fig12 = map
            .iter()
            .find(|(k, _)| k.as_str() == Some("fig12"))
            .and_then(|(_, v)| v.as_map())
            .expect("fig12 must be an object");
        assert!(fig12
            .iter()
            .any(|(k, _)| k.as_str() == Some("overhead_pct")));
    }
}
