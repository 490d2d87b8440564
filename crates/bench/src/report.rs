//! The report generator behind `reproduce`: each figure runs once into
//! its point list, the table is printed from it, and the same points
//! go into one JSON document (`reproduce --json <path>`), so runs can
//! be diffed, plotted, and regression-gated without scraping the
//! printed tables.
//!
//! The document is a single object with one key per figure; each
//! figure's value is the point list the printed table renders, as an
//! array of objects keyed by the point-struct field names (the point
//! structs derive `Serialize`, so a row is stated once). A `meta`
//! object records the [`ReportConfig`] a whole run used.

use crate::{fig4, fig5, fig6, fig7, fig7a, fig8, table1};
use serde::{Serialize, Value};

/// Workload sizes for one report run (the `quick`/full split the
/// printed tables use).
#[derive(Debug, Clone, Serialize)]
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
        }
    }
}

/// Every figure key `generate` emits, in document order.
pub const FIGURES: [&str; 7] = ["table1", "fig4", "fig5", "fig6", "fig7", "fig7a", "fig8"];

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
            serde_json::to_value(&rows)
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
            serde_json::to_value(&pts)
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
            serde_json::to_value(&pts)
        }
        "fig6" => {
            println!("\n=== Figure 6: control operation overhead (ns/op) ===");
            let pts = fig6::run(cfg.iters);
            for p in &pts {
                println!("{:<16} {:>12.0}", p.op, p.ns);
            }
            serde_json::to_value(&pts)
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
            serde_json::to_value(&pts)
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
                 {}-stage encoder, forced re-attest = revoke + analyze + re-mint + fence)",
                fig7a::speedup(&pts),
                fig7a::ENCODER_WIDTH
            );
            serde_json::to_value(&pts)
        }
        "fig8" => {
            println!("\n=== Figure 8: application throughput (requests/s) ===");
            let pts = fig8::run(cfg.reqs);
            print_fig8(&pts);
            serde_json::to_value(&pts)
        }
        _ => return None,
    };
    Some(v)
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
        doc.push((Value::Str("meta".into()), serde_json::to_value(cfg)));
    }
    for fig in figures {
        doc.push((
            Value::Str(fig.to_string()),
            section(fig, cfg).expect("known figure"),
        ));
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
            "meta", "table1", "fig4", "fig5", "fig6", "fig7", "fig7a", "fig8",
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
    }
}
