//! The measuring loop every workload shares: timed read batches,
//! timed writes, counted verification probes, and — in a traced run —
//! in-memory spans around the driver's own calls.
//!
//! Shape (README.md has the reasons): closed loop, one generator
//! thread, a fixed number of cycles. A cycle is a run of timed *reads*
//! taken in fixed batches (per-op latency = batch wall / batch size, so
//! one clock read is spread over the batch), timed *writes* that must
//! invalidate, and untimed *verification* whose expected verdicts the
//! script knows.

use crate::stats::{median, steady_quantile};
use serde::Value;
use std::time::Instant;

/// One span of the traced run.
#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based id, unique in the run.
    pub id: u32,
    /// Id of the enclosing span (0 = none).
    pub parent: u32,
    /// Span name (`cycle`, `read_batch`, `write`, …).
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

/// A span in progress (or, untraced, just its start time).
pub struct Open {
    id: u32,
    t0: Instant,
}

/// Samples, counts and (traced) spans of one run.
pub struct Recorder {
    epoch: Instant,
    tracing: bool,
    /// Cleared for the cycles a sampled trace skips.
    sampling: bool,
    stack: Vec<u32>,
    /// Spans recorded so far (empty when untraced).
    pub spans: Vec<Span>,
    /// Per-op read latency of each batch, ns.
    pub reads_ns: Vec<f64>,
    /// Latency of each write, ns.
    pub writes_ns: Vec<f64>,
    /// Wall time of each cycle, ns.
    pub cycles_ns: Vec<f64>,
    /// Wall time of each complete world build, s.
    pub setups_s: Vec<f64>,
    /// Timed reads issued.
    pub read_ops: u64,
    /// Calls whose outcome was checked.
    pub attempted: u64,
    /// Checked calls that erred or returned another verdict than the
    /// script expected.
    pub failed: u64,
}

impl Recorder {
    /// A recorder; `tracing` turns span recording on.
    pub fn new(tracing: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            tracing,
            sampling: true,
            stack: Vec::new(),
            spans: Vec::new(),
            reads_ns: Vec::new(),
            writes_ns: Vec::new(),
            cycles_ns: Vec::new(),
            setups_s: Vec::new(),
            read_ops: 0,
            attempted: 0,
            failed: 0,
        }
    }

    /// Open a span. Untraced this is one clock read.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let t0 = Instant::now();
        let id = if self.tracing && self.sampling {
            let id = self.spans.len() as u32 + 1;
            let start_ns = (t0 - self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied().unwrap_or(0),
                name,
                start_ns,
                end_ns: start_ns,
            });
            self.stack.push(id);
            id
        } else {
            0
        };
        Open { id, t0 }
    }

    /// Close a span; returns its duration in ns.
    pub fn end(&mut self, open: Open) -> u64 {
        let ns = open.t0.elapsed().as_nanos() as u64;
        if open.id != 0 {
            let span = &mut self.spans[open.id as usize - 1];
            span.end_ns = span.start_ns + ns;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(open.id), "spans close innermost first");
        }
        ns
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let open = self.begin(name);
        let r = f(self);
        self.end(open);
        r
    }

    /// One cycle; `sampled` says whether a traced run records it.
    pub fn cycle(&mut self, sampled: bool, f: impl FnOnce(&mut Recorder)) {
        self.sampling = sampled;
        let open = self.begin("cycle");
        f(self);
        let ns = self.end(open);
        self.sampling = true;
        self.cycles_ns.push(ns as f64);
    }

    /// A timed batch of `ops` reads; `f` returns how many came back
    /// with the expected verdict.
    pub fn read_batch(&mut self, ops: u64, f: impl FnOnce(&mut Recorder) -> u64) {
        let open = self.begin("read_batch");
        let ok = f(self);
        let ns = self.end(open);
        self.reads_ns.push(ns as f64 / ops as f64);
        self.read_ops += ops;
        self.check_many(ops, ok);
    }

    /// A timed write; `f` returns whether it succeeded.
    pub fn write(&mut self, f: impl FnOnce(&mut Recorder) -> bool) {
        let open = self.begin("write");
        let ok = f(self);
        let ns = self.end(open);
        self.writes_ns.push(ns as f64);
        self.check(ok);
    }

    /// Count one checked call.
    pub fn check(&mut self, ok: bool) {
        self.check_many(1, u64::from(ok));
    }

    /// Count `n` checked calls of which `ok` were right.
    pub fn check_many(&mut self, n: u64, ok: u64) {
        self.attempted += n;
        self.failed += n - ok.min(n);
    }

    /// Median duration (ns) of the spans called `name`; 0 when the
    /// run recorded none (untraced, or another workload's span).
    pub fn span_median_ns(&self, name: &str) -> f64 {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect();
        if d.is_empty() {
            0.0
        } else {
            median(&d)
        }
    }

    /// [`span_median_ns`](Self::span_median_ns) in µs.
    pub fn span_median_us(&self, name: &str) -> f64 {
        self.span_median_ns(name) / 1e3
    }

    /// The spans as a JSON array of `{id, parent, name, start_ns, end_ns}`.
    pub fn spans_json(&self) -> Value {
        Value::Seq(
            self.spans
                .iter()
                .map(|s| {
                    crate::report::obj(vec![
                        ("id", Value::U64(s.id.into())),
                        ("parent", Value::U64(s.parent.into())),
                        ("name", Value::Str(s.name.into())),
                        ("start_ns", Value::U64(s.start_ns)),
                        ("end_ns", Value::U64(s.end_ns)),
                    ])
                })
                .collect(),
        )
    }
}

/// A workload: a world, a seeded op script over it, and the cycle loop.
pub trait Workload: Sized {
    /// Name, as in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Cycles measured per 10 s of `--seconds`, sized on the code this
    /// benchmark was defined on. Fixed: it does not follow the code
    /// under test, so counters repeat exactly and a slower program
    /// runs longer instead of measuring less.
    const CYCLES_PER_10S: usize;
    /// One in how many cycles a traced run records.
    const TRACE_EVERY: usize = 1;
    /// The generated inputs.
    type Script: PartialEq + std::fmt::Debug;

    /// Build the world: boot → populate → warm → select the read set.
    /// Everything here is `setup_s`.
    fn build(seed: u64, rec: &mut Recorder) -> Self;
    /// Generate the op script for `cycles` cycles from the seed.
    fn script(&self, seed: u64, cycles: usize) -> Self::Script;
    /// Run the script, recording into `rec`.
    fn run(&mut self, script: &Self::Script, rec: &mut Recorder);
    /// What this run says about single layers, as (per-layer metric,
    /// value): counts accumulated over `run`, and medians of the spans
    /// a traced run recorded around the workload's own calls.
    fn layer_metrics(&self, rec: &Recorder) -> Vec<(&'static str, f64)>;
}

/// Everything one measured run produced.
pub struct RunResult {
    /// The recorder, with samples, checks and spans.
    pub rec: Recorder,
    /// The workload's per-layer counts and span medians.
    pub layers: Vec<(&'static str, f64)>,
    /// Wall time of the measured phase, s.
    pub wall_s: f64,
    /// Process CPU time spent in the measured phase, s.
    pub cpu_s: f64,
    /// `VmHWM` when the measured phase ended, MB.
    pub peak_rss_mb: f64,
}

/// Build `W`'s world, run `cycles` cycles of its script on it and take
/// the memory high-water mark; then build the world `setups − 1` more
/// times, for `setup_s` alone.
///
/// The extra builds come last so that `peak_rss_mb` is the peak of one
/// world built, warmed and measured: memory that grows per read, per
/// write or per fence moves it. Built first, they made it a coin —
/// every build of `miss_prove` starts two pool threads, and which of
/// them inherits the malloc arena the previous build's worker filled
/// decided whether the process peaked at 10.9 or 15.8 MB.
pub fn measure<W: Workload>(seed: u64, cycles: usize, setups: usize, tracing: bool) -> RunResult {
    let mut rec = Recorder::new(tracing);
    let t0 = Instant::now();
    let mut world = W::build(seed, &mut rec);
    rec.setups_s.push(t0.elapsed().as_secs_f64());
    let script = world.script(seed, cycles);
    let (cpu0, t0) = (cpu_seconds(), Instant::now());
    world.run(&script, &mut rec);
    let (wall_s, cpu_s) = (t0.elapsed().as_secs_f64(), cpu_seconds() - cpu0);
    let layers = world.layer_metrics(&rec);
    let peak_rss_mb = peak_rss_mb();
    drop(world);
    for _ in 1..setups {
        let t0 = Instant::now();
        let world = W::build(seed, &mut rec);
        rec.setups_s.push(t0.elapsed().as_secs_f64());
        drop(world);
    }
    RunResult {
        rec,
        layers,
        wall_s,
        cpu_s,
        peak_rss_mb,
    }
}

impl RunResult {
    /// The end-to-end metrics, in catalogue order. The latencies are
    /// [`steady_quantile`]s.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64)> {
        let rec = &self.rec;
        vec![
            ("read_p50_ns", steady_quantile(&rec.reads_ns, 0.5)),
            ("read_p75_ns", steady_quantile(&rec.reads_ns, 0.75)),
            ("write_p50_us", steady_quantile(&rec.writes_ns, 0.5) / 1e3),
            ("cycle_p50_us", steady_quantile(&rec.cycles_ns, 0.5) / 1e3),
            ("setup_s", median(&rec.setups_s)),
            ("peak_rss_mb", self.peak_rss_mb),
        ]
    }

    /// failed / attempted.
    pub fn fail_ratio(&self) -> f64 {
        self.rec.failed as f64 / self.rec.attempted.max(1) as f64
    }
}

/// `VmHWM` of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// User + system CPU time of this process, s (`/proc/self/stat`,
/// 10 ms ticks).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime
    // are the 14th and 15th fields overall.
    let after = stat.rsplit(')').next().unwrap_or("");
    let f: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|s| s.parse::<f64>().ok()).unwrap_or(0.0);
    (ticks(11) + ticks(12)) / 100.0
}

/// Median cost of one `Instant::now()` pair, ns.
pub fn timer_ns() -> f64 {
    let samples: Vec<f64> = (0..64)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..255 {
                std::hint::black_box(Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / 256.0
        })
        .collect();
    median(&samples)
}
