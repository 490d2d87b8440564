//! Regenerate every table and figure of the paper's evaluation (§5)
//! — plus the beyond-the-paper Figure 7a analysis-vs-reuse bench, the
//! Figure 9 scalability curves, the Figure 11 distributed-Nexus bench
//! and the Figure 12 telemetry-overhead A/B — and print them in the
//! paper's layout.
//!
//! Usage:
//! `cargo run --release -p nexus-bench --bin reproduce \
//!    [quick|fig9|<figure>] [--json <path>]`
//!
//! No argument runs every figure at the full sizes, `quick` at the
//! quick sizes (`nexus_bench::report::ReportConfig` holds both). A
//! figure key from `nexus_bench::report::FIGURES` (hyphens accepted:
//! `fig7a`, `fig9-hits`, `fig9-bp`, `fig9-prover`, `fig11`, `fig12`, …)
//! runs just that figure at the full sizes; `fig9` runs all four
//! Figure 9 modes.
//!
//! Each figure runs once: its table is printed from the measured
//! points, and `--json <path>` additionally writes those same points
//! to `path` (see `nexus_bench::report`).

use nexus_bench::report::{self, ReportConfig, FIGURES};

fn usage() -> ! {
    eprintln!("usage: reproduce [quick|fig9|<figure>] [--json <path>]");
    eprintln!("figures: {}", FIGURES.join(" "));
    std::process::exit(2);
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = args.iter().position(|a| a == "--json").map(|i| {
        if i + 1 >= args.len() {
            eprintln!("--json requires a path");
            usage();
        }
        let path = args.remove(i + 1);
        args.remove(i);
        path
    });
    let (figures, cfg): (Vec<&str>, ReportConfig) = match args.as_slice() {
        [] => (FIGURES.to_vec(), ReportConfig::full()),
        [a] if a == "quick" => (FIGURES.to_vec(), ReportConfig::quick()),
        [a] => {
            let key = a.replace('-', "_");
            let figures: Vec<&str> = FIGURES
                .iter()
                .copied()
                .filter(|f| *f == key || (key == "fig9" && f.starts_with("fig9")))
                .collect();
            if figures.is_empty() {
                eprintln!("unknown argument: {a:?}");
                usage();
            }
            (figures, ReportConfig::full())
        }
        other => {
            eprintln!("unknown argument(s): {other:?}");
            usage();
        }
    };
    let json = report::generate(&figures, &cfg);
    if let Some(path) = json_path {
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("\nmachine-readable results written to {path}");
    }
    println!("\n(see \"Paper vs. measured\" in README.md for the paper-vs-measured discussion)");
}
