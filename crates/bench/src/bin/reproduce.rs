//! Regenerate the tables and figures of the paper's evaluation (§5:
//! Table 1, Figures 4–8) — plus the beyond-the-paper Figure 7a
//! analysis-vs-reuse bench — and print them in the paper's layout.
//!
//! Usage:
//! `cargo run --release -p nexus-bench --bin reproduce \
//!    [quick|<figure>] [--json <path>]`
//!
//! No argument runs every figure at the full sizes, `quick` at the
//! quick sizes (`nexus_bench::report::ReportConfig` holds both). A
//! figure key from `nexus_bench::report::FIGURES` (`table1`, `fig4`,
//! …, `fig7a`, `fig8`) runs just that figure at the full sizes.
//!
//! Each figure runs once: its table is printed from the measured
//! points, and `--json <path>` additionally writes those same points
//! to `path` (see `nexus_bench::report`).

use nexus_bench::report::{self, ReportConfig, FIGURES};

fn usage() -> ! {
    eprintln!("usage: reproduce [quick|<figure>] [--json <path>]");
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
        [a] => match FIGURES.iter().find(|f| *f == a) {
            Some(figure) => (vec![*figure], ReportConfig::full()),
            None => {
                eprintln!("unknown argument: {a:?}");
                usage();
            }
        },
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
