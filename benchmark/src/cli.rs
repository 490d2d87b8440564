//! The `bench` command line.
//!
//! ```text
//! bench --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//! bench --smoke
//! bench compare <a.json> <b.json>
//! bench repeat --sets 2 --runs 5
//! ```

use crate::compare::{compare, fails, render, rows_json, RunSet};
use crate::driver::{measure, peak_rss_mb, timer_ns, RunResult, Workload};
use crate::metrics::{unit_of, PER_LAYER, WORKLOADS};
use crate::report::{self, obj, result_line};
use crate::stats::{quantile, quartiles, segment_floors, sorted};
use crate::workloads::{ClusterRevoke, HitSteady, MissProve, PolicyChurn};
use serde::Value;
use std::path::PathBuf;
use std::process::Command;

/// World builds timed per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// `run_seconds` of BENCHMARK.json: `--seconds` when the flag is
/// absent, and the length of every run `repeat` and `--smoke` size.
const DEFAULT_SECONDS: usize = 10;
/// A traced run measures this share of the cycles, a smoke run that.
const TRACE_DIVISOR: usize = 8;
const SMOKE_DIVISOR: usize = 64;

/// Process exit code for a run with `failed` wrong or failed calls.
pub fn exit_code(failed: u64) -> u8 {
    u8::from(failed > 0)
}

/// Run the command line; returns the process exit code.
pub fn main(args: &[String]) -> u8 {
    match run(args) {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("bench: {msg}");
            eprintln!(
                "usage: bench --workload <{}> --seed <n> [--seconds <s>] [--trace <0|1>]\n       \
                 bench --smoke | compare <a.json> <b.json> | repeat --sets <n> --runs <n>",
                WORKLOADS.join("|")
            );
            2
        }
    }
}

/// `--key value` pairs of `args`; anything else is an error.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or(format!("unexpected argument `{key}`"))?;
        let value = it.next().ok_or(format!("`{key}` needs a value"))?;
        out.push((name, value.as_str()));
    }
    Ok(out)
}

fn flag<T: std::str::FromStr>(flags: &[(&str, &str)], name: &str) -> Result<Option<T>, String> {
    match flags.iter().find(|(k, _)| *k == name) {
        None => Ok(None),
        Some((_, v)) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("bad value `{v}` for --{name}")),
    }
}

fn known(flags: &[(&str, &str)], names: &[&str]) -> Result<(), String> {
    match flags.iter().find(|(k, _)| !names.contains(k)) {
        Some((k, _)) => Err(format!("unknown flag --{k}")),
        None => Ok(()),
    }
}

/// Pin the process to one CPU (see [`crate::affinity`]) and say so;
/// returns how many CPUs it could use before.
fn pin() -> usize {
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    match crate::affinity::pin_to_one_cpu() {
        Some(cpu) => println!("pinned to CPU {cpu}, one of the {cpus} this process may use"),
        None => println!("could not pin to one CPU; using all {cpus}, vCPU wake-ups included"),
    }
    cpus
}

fn run(args: &[String]) -> Result<u8, String> {
    match args.first().map(String::as_str) {
        Some("--smoke") if args.len() == 1 => {
            pin();
            Ok(smoke())
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare_files(a, b),
            _ => Err("compare takes two run-set files".into()),
        },
        Some("repeat") => {
            let f = flags(&args[1..])?;
            known(&f, &["sets", "runs"])?;
            let sets = flag(&f, "sets")?.unwrap_or(2usize);
            let runs = flag(&f, "runs")?.unwrap_or(5usize);
            if sets < 2 || runs < 2 {
                return Err("repeat needs at least 2 sets of at least 2 runs".into());
            }
            repeat(sets, runs, pin())
        }
        _ => {
            let f = flags(args)?;
            known(&f, &["workload", "seed", "seconds", "trace"])?;
            let workload: String = flag(&f, "workload")?.ok_or("--workload is required")?;
            let seed: u64 = flag(&f, "seed")?.ok_or("--seed is required")?;
            let seconds = flag(&f, "seconds")?.unwrap_or(DEFAULT_SECONDS);
            if !(1..=60).contains(&seconds) {
                return Err("--seconds is between 1 and 60".into());
            }
            let traced = match flag::<u8>(&f, "trace")?.unwrap_or(0) {
                0 => false,
                1 => true,
                _ => return Err("--trace is 0 or 1".into()),
            };
            pin();
            match workload.as_str() {
                "hit_steady" => one::<HitSteady>(seed, seconds, traced),
                "miss_prove" => one::<MissProve>(seed, seconds, traced),
                "policy_churn" => one::<PolicyChurn>(seed, seconds, traced),
                "cluster_revoke" => one::<ClusterRevoke>(seed, seconds, traced),
                other => Err(format!("unknown workload `{other}`")),
            }
        }
    }
}

/// Cycles for `--seconds`, divided for the shorter modes.
fn cycles<W: Workload>(seconds: usize, divisor: usize) -> usize {
    (W::CYCLES_PER_10S * seconds / 10 / divisor).max(1)
}

fn one<W: Workload>(seed: u64, seconds: usize, traced: bool) -> Result<u8, String> {
    if traced {
        per_layer::<W>(seed, seconds)
    } else {
        Ok(end_to_end::<W>(seed, seconds))
    }
}

fn print_metric(name: &str, value: f64, unit: &str, note: &str) {
    println!("{name:<36} {value:>16.4} {unit:<6} {note}");
}

/// The untraced run: every end-to-end metric, then the result line.
fn end_to_end<W: Workload>(seed: u64, seconds: usize) -> u8 {
    let n = cycles::<W>(seconds, 1);
    let r = measure::<W>(seed, n, SETUPS, false);
    let metrics = r.end_to_end();
    println!(
        "{}: seed {seed}, {n} cycles, one generator thread, closed loop; measured {:.2} s",
        W::NAME,
        r.wall_s
    );
    let samples = |name: &str| match name {
        "read_p50_ns" | "read_p75_ns" => format!(
            "n={} batches, {} reads",
            r.rec.reads_ns.len(),
            r.rec.read_ops
        ),
        "write_p50_us" => format!("n={}", r.rec.writes_ns.len()),
        "cycle_p50_us" => format!("n={}", r.rec.cycles_ns.len()),
        "setup_s" => format!("n={} builds", r.rec.setups_s.len()),
        _ => format!(
            "VmHWM when the measured run ended; {:.1} MB at exit, after the other builds",
            peak_rss_mb()
        ),
    };
    for &(name, value) in &metrics {
        print_metric(name, value, unit_of(name), &samples(name));
    }
    print_metric(
        "fail_ratio",
        r.fail_ratio(),
        "ratio",
        &format!("{} of {} checked calls", r.rec.failed, r.rec.attempted),
    );
    println!("{}", result_line(r.rec.attempted, r.rec.failed, &metrics));
    exit_code(r.rec.failed)
}

/// The benchmark's own directory (where `out/` and `baseline/` live).
fn bench_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

/// Build and run the `layers` binary; returns its probe metrics.
fn probes(seed: u64) -> Result<Vec<(String, f64)>, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "run",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
        ])
        .arg(bench_dir().join("Cargo.toml"))
        .args(["--bin", "layers", "--", "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("cannot run cargo for `layers`: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    if !out.status.success() {
        return Err(format!(
            "`layers` failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let last = text.lines().last().ok_or("`layers` printed nothing")?;
    Ok(report::metrics_of(&report::parse(last)?))
}

/// `driver.*`: what the traced run says about the measuring itself.
fn driver_metrics(plain: &RunResult, traced: &RunResult) -> Vec<(&'static str, f64)> {
    let reads = sorted(&traced.rec.reads_ns);
    let writes = sorted(&traced.rec.writes_ns);
    let cycles = segment_floors(&traced.rec.cycles_ns, 0.5);
    vec![
        ("driver.ops_s", traced.rec.read_ops as f64 / traced.wall_s),
        (
            "driver.cpu_ns_per_op",
            traced.cpu_s * 1e9 / traced.rec.read_ops as f64,
        ),
        ("driver.read_p99_ns", quantile(&reads, 0.99)),
        ("driver.write_p75_us", quantile(&writes, 0.75) / 1e3),
        ("driver.write_p99_us", quantile(&writes, 0.99) / 1e3),
        ("driver.timer_ns", timer_ns()),
        ("driver.samples_read", reads.len() as f64),
        ("driver.samples_write", writes.len() as f64),
        (
            "driver.trace_overhead_ratio",
            quantile(&reads, 0.5) / quantile(&sorted(&plain.rec.reads_ns), 0.5),
        ),
        // What a cycle costs at the end of the run over what it cost
        // at the start: growth with history, which the gated medians
        // show only half of.
        (
            "driver.cycle_drift_ratio",
            cycles[cycles.len() - 1] / cycles[0],
        ),
    ]
}

/// The traced run: the workload untraced then traced at 1/8 of its
/// cycles, the spans written out, `layers` for the probes; then every
/// per-layer metric and the result line. A metric this workload does
/// not exercise (another workload's span or count) reads 0.
fn per_layer<W: Workload>(seed: u64, seconds: usize) -> Result<u8, String> {
    let n = cycles::<W>(seconds, TRACE_DIVISOR);
    let plain = measure::<W>(seed, n, 1, false);
    let traced = measure::<W>(seed, n, 1, true);

    let dir = bench_dir().join("out");
    let path = dir.join(format!("trace-{}.json", W::NAME));
    let trace = obj(vec![
        ("workload", Value::Str(W::NAME.into())),
        ("seed", Value::U64(seed)),
        ("cycles", Value::U64(n as u64)),
        ("cycles_sampled_one_in", Value::U64(W::TRACE_EVERY as u64)),
        ("spans", traced.rec.spans_json()),
    ]);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, report::render(&trace)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "{}: seed {seed}, {n} cycles untraced then traced (1 cycle in {}), {} spans -> {}",
        W::NAME,
        W::TRACE_EVERY,
        traced.rec.spans.len(),
        path.display()
    );

    let probes = probes(seed)?;
    let mut measured: Vec<(&str, f64)> = traced.layers.clone();
    measured.extend(driver_metrics(&plain, &traced));
    measured.extend(probes.iter().map(|(n, v)| (n.as_str(), *v)));
    let metrics: Vec<(&str, f64)> = PER_LAYER
        .iter()
        .map(|&(name, ..)| {
            let value = measured
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            (name, value)
        })
        .collect();
    for (&(name, value), &(_, unit, _, moves)) in metrics.iter().zip(&PER_LAYER) {
        let note = match moves {
            "-" => "describes the measuring".to_string(),
            _ => format!("should move {moves}"),
        };
        print_metric(name, value, unit, &note);
    }
    let (attempted, failed) = (
        plain.rec.attempted + traced.rec.attempted,
        plain.rec.failed + traced.rec.failed,
    );
    println!("{}", result_line(attempted, failed, &metrics));
    Ok(exit_code(failed))
}

/// Every workload at 1/64 of its cycles, all verification on.
fn smoke() -> u8 {
    fn go<W: Workload>() -> u64 {
        let r = measure::<W>(1, cycles::<W>(DEFAULT_SECONDS, SMOKE_DIVISOR), 1, false);
        let e = r.end_to_end();
        println!(
            "{:<15} {:>6} cycles  read_p50 {:>10.1} ns  write_p50 {:>9.2} us  {} of {} checked calls wrong",
            W::NAME,
            r.rec.cycles_ns.len(),
            e[0].1,
            e[2].1,
            r.rec.failed,
            r.rec.attempted
        );
        r.rec.failed
    }
    exit_code(go::<HitSteady>() + go::<MissProve>() + go::<PolicyChurn>() + go::<ClusterRevoke>())
}

fn read_set(path: &str) -> Result<RunSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    RunSet::from_json(&report::parse(&text)?).map_err(|e| format!("{path}: {e}"))
}

fn compare_files(a: &str, b: &str) -> Result<u8, String> {
    let (a, b) = (read_set(a)?, read_set(b)?);
    let rows = compare(&a, &b)?;
    print!("{}", render(&rows));
    Ok(u8::from(fails(&rows, &a, &b)))
}

/// One fresh process per workload run, so `peak_rss_mb` is the
/// workload's own.
fn child_run(workload: &str, seed: u64) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &DEFAULT_SECONDS.to_string(), "--trace", "0"])
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text
        .lines()
        .last()
        .ok_or(format!("{workload}: no result line"))?;
    report::parse(last)
}

/// `sets` sets of `runs` runs of this build, interleaved (A B B A …),
/// each set compared against the first; the comparison goes to
/// `baseline/noise.json` and the medians over all runs to
/// `baseline/seed.json`.
fn repeat(sets: usize, runs: usize, cpus: usize) -> Result<u8, String> {
    let mut all = vec![RunSet::default(); sets];
    for run in 0..runs {
        let order: Vec<usize> = if run % 2 == 0 {
            (0..sets).collect()
        } else {
            (0..sets).rev().collect()
        };
        for workload in WORKLOADS {
            for &s in &order {
                let seed = 1 + run as u64;
                eprintln!(
                    "repeat: run {}/{runs} set {} {workload} seed {seed}",
                    run + 1,
                    set_name(s)
                );
                all[s].add(workload, &child_run(workload, seed)?);
            }
        }
    }
    let mut failed = false;
    let mut comparisons = Vec::new();
    for (s, other) in all.iter().enumerate().skip(1) {
        let rows = compare(&all[0], other)?;
        println!("set A against set {}:\n{}", set_name(s), render(&rows));
        failed |= fails(&rows, &all[0], other);
        comparisons.push(rows_json(&rows));
    }

    let mut merged = RunSet::default();
    all.iter().for_each(|set| merged.merge(set));
    let medians = merged
        .workloads
        .iter()
        .map(|(w, e)| {
            let metrics = e
                .metrics
                .iter()
                .map(|(n, vs)| {
                    let (q1, median, q3) = quartiles(vs);
                    let row = obj(vec![
                        ("median", Value::F64(median)),
                        ("q1", Value::F64(q1)),
                        ("q3", Value::F64(q3)),
                        ("unit", Value::Str(unit_of(n).into())),
                        ("runs", Value::U64(vs.len() as u64)),
                    ]);
                    (n.as_str(), row)
                })
                .collect();
            (w.as_str(), obj(metrics))
        })
        .collect();

    let shape = vec![
        ("sets", Value::U64(sets as u64)),
        ("runs_per_set", Value::U64(runs as u64)),
        ("seconds", Value::U64(DEFAULT_SECONDS as u64)),
        ("cpus", Value::U64(cpus as u64)),
    ];
    let mut noise = shape.clone();
    noise.push((
        "sets_of_runs",
        Value::Seq(all.iter().map(RunSet::to_json).collect()),
    ));
    noise.push(("set_a_against_each_other_set", Value::Seq(comparisons)));
    let mut seed = shape;
    seed.push(("workloads", obj(medians)));

    let dir = bench_dir().join("baseline");
    let write = |name: &str, v: Value| {
        let path = dir.join(name);
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, report::render(&v) + "\n"))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok::<(), String>(())
    };
    write("noise.json", obj(noise))?;
    write("seed.json", obj(seed))?;
    Ok(u8::from(failed))
}

fn set_name(s: usize) -> char {
    (b'A' + s as u8) as char
}
