//! The repository benchmark: three seeded, single-threaded, closed-loop
//! workloads (one client that waits for each reply) driven through the
//! public `KoshaMount` / `SimCluster` / `KoshaNode` APIs on `SimNetwork`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload andrew|zipf|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` runs the workload on fresh clusters as [`Workload::plan`]
//! lays out for `S` seconds and prints the end-to-end metrics.
//! `--trace 1` alternates untraced and traced repetitions of one sub-seed
//! for `S` seconds and prints the per-layer metrics, span self times and
//! the tracing overhead; it also runs the determinism, second-seed and (for
//! `churn`) library cross-checks. Either way every client op is checked
//! against a shadow model, the last stdout line is one JSON object, and
//! the exit code is non-zero when any check failed. See README.md.

mod andrew;
mod bench;
mod calib;
mod churn;
mod cputime;
mod layers;
mod shadow;
mod stats;
mod trace;
mod zipf;

use bench::RepResult;
use cputime::Stopwatch;
use stats::{median, quantile, ratio, supported_percentile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Most placements a run measures.
const MAX_PLACEMENTS: usize = 64;

/// Reference runs before each repetition (see calib.rs).
const REFS_PER_REP: usize = 3;

/// Least set-ups timed per placement for `setup_s` (set-up-only runs
/// add to the passes' own).
const SETUPS_PER_PLACEMENT: usize = 7;

/// How a `--trace 0` run spends its repetitions. The first pass runs
/// sub-seeds `0..wide` of `--seed`; the virtual-time, count and byte
/// metrics pool them, so none hinges on where one seed happened to put
/// the data (and, on `churn`, which machines the trace fails). Every
/// later pass runs sub-seeds `0..timed` again; the time metrics take,
/// call by call, the best of the passes (see [`best_of`]).
struct Plan {
    wide: usize,
    timed: usize,
    passes: usize,
}

impl Plan {
    /// Sub-seed index of repetition `i`.
    fn placement(&self, i: usize) -> usize {
        if i < self.wide {
            i
        } else {
            (i - self.wide) % self.timed
        }
    }

    /// Repetitions in all.
    fn reps(&self) -> usize {
        self.wide + (self.passes - 1) * self.timed
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Andrew,
    Zipf,
    Churn,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "andrew" => Some(Workload::Andrew),
            "zipf" => Some(Workload::Zipf),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Andrew => "andrew",
            Workload::Zipf => "zipf",
            Workload::Churn => "churn",
        }
    }

    /// The repetitions of a `--trace 0` run of about `seconds`. The
    /// counts are sized for 30 s on a 2-vCPU x86 VM; other lengths scale
    /// the placements.
    fn plan(self, seconds: u64) -> Plan {
        let (wide, timed, passes) = match self {
            Workload::Andrew => (9, 3, 5),
            Workload::Zipf => (4, 2, 12),
            Workload::Churn => (8, 2, 7),
        };
        let scale = |n: usize| {
            ((n as f64 * seconds as f64 / 30.0).round() as usize).clamp(1, MAX_PLACEMENTS)
        };
        let wide = scale(wide);
        Plan {
            wide,
            timed: scale(timed).min(wide),
            passes,
        }
    }

    /// Sub-seed `k` of `seed`: distinct seeds never share a sub-seed.
    fn sub_seed(self, seed: u64, k: usize) -> u64 {
        seed.wrapping_mul(MAX_PLACEMENTS as u64)
            .wrapping_add((k % MAX_PLACEMENTS) as u64)
    }

    /// One repetition: set-up, timed phase, verification.
    fn run(self, seed: u64, traced: bool) -> RepResult {
        match self {
            Workload::Andrew => andrew::setup(seed, traced).run(),
            Workload::Zipf => zipf::setup(seed, traced).run(),
            Workload::Churn => churn::setup(churn::spec(seed), traced).run(),
        }
    }

    /// CPU seconds of one set-up alone (boot and preload).
    fn setup_cpu_s(self, seed: u64) -> f64 {
        fn time<T>(f: impl FnOnce() -> T) -> f64 {
            let t = Stopwatch::start();
            let booted = f();
            let s = t.cpu_s();
            drop(booted);
            s
        }
        match self {
            Workload::Andrew => time(|| andrew::setup(seed, false)),
            Workload::Zipf => time(|| zipf::setup(seed, false)),
            Workload::Churn => time(|| churn::setup(churn::spec(seed), false)),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Outcome of a run: the human-readable report, the checks, and the
/// metrics for the final JSON line.
struct Report {
    text: String,
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn new(a: &Args, mode: &str) -> Report {
        Report {
            text: format!(
                "perfbench {mode}: workload={} seed={} seconds={} \
                 (closed loop, 1 client, 1 thread)\n",
                a.workload.name(),
                a.seed,
                a.seconds
            ),
            failures: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, samples: String) {
        self.line(format!("{name:<20} {value:>16.4} {unit:<6} {samples}"));
        self.metrics.push((name, value, unit));
    }

    fn line(&mut self, s: String) {
        self.text.push_str(&s);
        self.text.push('\n');
    }

    /// Checks every repetition's client ops and read-back, and that
    /// repetitions of one sub-seed agree on everything that must repeat.
    /// `reps[i]` ran sub-seed `placement(i)`.
    fn check_reps(&mut self, w: Workload, reps: &[&RepResult], placement: impl Fn(usize) -> usize) {
        let mut first_of: BTreeMap<usize, String> = BTreeMap::new();
        for (i, r) in reps.iter().enumerate() {
            self.check(r.attempted > 0, || format!("rep {i}: no client ops"));
            self.check(r.failed == 0 && r.other_failures == 0, || {
                format!(
                    "rep {i}: {} failed ops, {} failed set-up checks; first: {}",
                    r.failed,
                    r.other_failures,
                    r.first_failure.clone().unwrap_or_default()
                )
            });
            // Without injected faults nothing acked may be lost; under
            // churn losses are measured, not forbidden.
            self.check(w == Workload::Churn || r.lost == 0, || {
                format!("rep {i}: {} of {} acked mutations lost", r.lost, r.acked)
            });
            let sig = r.deterministic_signature();
            let first = first_of.entry(placement(i)).or_insert_with(|| sig.clone());
            self.check(*first == sig, || {
                format!("rep {i} differs from an earlier run of its sub-seed:\n  {first}\n  {sig}")
            });
        }
    }

    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failures.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Peak resident memory of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Call by call, the least of each pass's samples: on a shared host a
/// call's CPU time swings by half between moments when the core runs
/// at full speed and moments when other tenants slow it, and the least
/// of a few passes, taken seconds apart, is almost always a full-speed
/// sample. `None` when the passes made different numbers of calls.
fn best_of<'a>(mut passes: impl Iterator<Item = &'a [u64]>) -> Option<Vec<u64>> {
    let mut best = passes.next()?.to_vec();
    for p in passes {
        if p.len() != best.len() {
            return None;
        }
        for (b, &x) in best.iter_mut().zip(p) {
            *b = (*b).min(x);
        }
    }
    Some(best)
}

/// Sorted union of the samples `f` picks from each repetition.
fn pooled(reps: &[RepResult], f: impl Fn(&RepResult) -> &[u64]) -> Vec<u64> {
    let mut v: Vec<u64> = reps.iter().flat_map(|r| f(r).iter().copied()).collect();
    v.sort_unstable();
    v
}

fn untraced(a: &Args) -> Report {
    let mut rep = Report::new(a, "end-to-end");
    let w = a.workload;
    let plan = w.plan(a.seconds);
    let mut reps = Vec::new();
    let mut refs = Vec::new();
    for i in 0..plan.reps() {
        refs.extend((0..REFS_PER_REP).map(|_| calib::reference_cpu_s()));
        reps.push(w.run(w.sub_seed(a.seed, plan.placement(i)), false));
    }
    rep.check_reps(w, &reps.iter().collect::<Vec<_>>(), |i| plan.placement(i));
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    rep.attempted = attempted;
    rep.failed = reps.iter().map(|r| r.failed).sum();

    // Time is CPU time (see cputime.rs); each call counts with the least
    // CPU time any pass gave it (see `best_of`), and all of it is scaled
    // by the host's full speed in this run, the best of the reference
    // runs (see calib.rs), to the time it takes on the nominal host.
    let placed = &reps[..plan.wide];
    let sum = |f: fn(&RepResult) -> u64| placed.iter().map(f).sum::<u64>() as f64;
    // The repetitions of each timed sub-seed, one per pass.
    let passes_of: Vec<Vec<&RepResult>> = (0..plan.timed)
        .map(|k| {
            (0..reps.len())
                .filter(|&i| plan.placement(i) == k)
                .map(|i| &reps[i])
                .collect()
        })
        .collect();
    let mut best_op = Vec::new();
    let mut best_timed_ns = 0u64;
    let mut best_ops = 0u64;
    let mut per_placement = Vec::new();
    for k in 0..plan.timed {
        let seg = best_of(passes_of[k].iter().map(|r| &r.seg_ns[..]));
        let op = best_of(passes_of[k].iter().map(|r| &r.cpu_ns[..]));
        rep.check(seg.is_some() && op.is_some(), || {
            format!("sub-seed {k}: passes made different calls")
        });
        let ns = seg.unwrap_or_default().iter().sum::<u64>();
        best_timed_ns += ns;
        best_ops += reps[k].attempted;
        best_op.extend(op.unwrap_or_default());
        let passes: Vec<String> = passes_of[k]
            .iter()
            .map(|r| format!("{:.3}", r.timed_cpu_s))
            .collect();
        per_placement.push(format!(
            "  sub-seed {k}: {} ops, {:.3} virtual s; timed CPU s per pass {}, best of them per call {:.3}",
            reps[k].attempted,
            reps[k].virt_ns as f64 / 1e9,
            passes.join(" "),
            ns as f64 / 1e9
        ));
    }
    best_op.sort_unstable();
    let best_timed_s = best_timed_ns as f64 / 1e9;
    let placed_ops = sum(|r| r.attempted);
    let setups: Vec<f64> = (0..plan.timed)
        .map(|k| {
            let mut s: Vec<f64> = passes_of[k].iter().map(|r| r.setup_cpu_s).collect();
            s.extend((s.len()..SETUPS_PER_PLACEMENT).map(|_| w.setup_cpu_s(w.sub_seed(a.seed, k))));
            s.into_iter().fold(f64::INFINITY, f64::min)
        })
        .collect();

    let ref_s = refs.iter().copied().fold(f64::INFINITY, f64::min);
    let scale = calib::NOMINAL_S / ref_s;
    let best_timed_s = best_timed_s * scale;
    let timed_s: f64 = reps.iter().map(|r| r.timed_s).sum();
    let timed_cpu_s: f64 = reps.iter().map(|r| r.timed_cpu_s).sum();
    let wall = pooled(&reps, |r| &r.wall_ns);
    rep.line(format!(
        "{} sub-seeds, the first {} of them in {} passes: {attempted} client ops in \
         {timed_s:.3} s timed, {timed_cpu_s:.3} CPU s",
        plan.wide, plan.timed, plan.passes
    ));
    for l in per_placement {
        rep.line(l);
    }
    rep.line(format!(
        "wall time, for reference: {:.1} ops/s, op p50 {:.1} us, op p99 {:.1} us",
        ratio(attempted as f64, timed_s),
        quantile(&wall, 0.5) / 1e3,
        quantile(&wall, 0.99) / 1e3
    ));
    rep.line(format!(
        "reference run: best {ref_s:.6} CPU s of {} (median {:.6}); times below are \
         CPU times scaled by {scale:.4} to a host where the best run takes {} s",
        refs.len(),
        median(&refs),
        calib::NOMINAL_S
    ));
    rep.line(format!(
        "{:<20} {:>16} {:<6} samples",
        "metric", "value", "unit"
    ));
    let tail = |n: usize| {
        format!(
            "n={n}, highest supported percentile p{}",
            supported_percentile(n)
        )
    };
    rep.metric(
        "setup_s",
        median(&setups) * scale,
        "s",
        format!(
            "median over {} sub-seeds of the least of {} set-ups",
            plan.timed,
            plan.passes.max(SETUPS_PER_PLACEMENT)
        ),
    );
    rep.metric(
        "ops_per_norm_cpu_s",
        ratio(best_ops as f64, best_timed_s),
        "1/s",
        format!(
            "{best_ops} ops in {best_timed_s:.3} s, best of {} passes per call",
            plan.passes
        ),
    );
    rep.metric(
        "op_norm_cpu_p50_us",
        quantile(&best_op, 0.5) / 1e3 * scale,
        "us",
        format!("n={}, best of {} passes per op", best_op.len(), plan.passes),
    );
    rep.metric(
        "op_norm_cpu_p99_us",
        quantile(&best_op, 0.99) / 1e3 * scale,
        "us",
        format!(
            "{}, best of {} passes per op",
            tail(best_op.len()),
            plan.passes
        ),
    );
    for (class, (p50, p99)) in [
        ("read_vlat_p50_us", "read_vlat_p99_us"),
        ("write_vlat_p50_us", "write_vlat_p99_us"),
        ("meta_vlat_p50_us", "meta_vlat_p99_us"),
    ]
    .into_iter()
    .enumerate()
    {
        let v = pooled(placed, |r| &r.vlat[class]);
        rep.metric(p50, quantile(&v, 0.5) / 1e3, "us", format!("n={}", v.len()));
        rep.metric(p99, quantile(&v, 0.99) / 1e3, "us", tail(v.len()));
    }
    rep.metric(
        "fresh_ratio",
        1.0 - ratio(sum(|r| r.stale), placed_ops),
        "ratio",
        format!("{} stale answers of {placed_ops} ops", sum(|r| r.stale)),
    );
    let failed_ratio = ratio(rep.failed as f64, attempted as f64);
    rep.metric(
        "ok_ratio",
        1.0 - failed_ratio,
        "ratio",
        format!("failed_ratio={failed_ratio} of {attempted} ops"),
    );
    let lost_ratio = ratio(sum(|r| r.lost), sum(|r| r.acked));
    rep.metric(
        "durable_ratio",
        1.0 - lost_ratio,
        "ratio",
        format!(
            "lost_ratio={lost_ratio} of {} acked mutations",
            sum(|r| r.acked)
        ),
    );
    let bytes = sum(|r| r.net.total_bytes());
    rep.metric(
        "net_bytes_per_op",
        ratio(bytes, placed_ops),
        "B/op",
        format!("{bytes} B over {placed_ops} ops"),
    );
    let (stored, live) = (sum(|r| r.stored_bytes), sum(|r| r.live_bytes));
    rep.metric(
        "space_amp",
        ratio(stored, live),
        "ratio",
        format!("{stored} B stored / {live} B live"),
    );
    rep.metric(
        "peak_rss_mb",
        peak_rss_mb(),
        "MB",
        "process peak".to_string(),
    );
    rep
}

fn traced(a: &Args) -> Report {
    let mut rep = Report::new(a, "traced");
    let deadline = Instant::now() + Duration::from_secs(a.seconds);
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let seed = a.workload.sub_seed(a.seed, 0);
    loop {
        plain.push(a.workload.run(seed, false));
        traced.push(a.workload.run(seed, true));
        if Instant::now() >= deadline {
            break;
        }
    }
    // Tracing must not change anything the system does: untraced and
    // traced repetitions of one seed agree exactly.
    rep.check_reps(
        a.workload,
        &plain.iter().chain(&traced).collect::<Vec<_>>(),
        |_| 0,
    );
    rep.attempted = traced.iter().map(|r| r.attempted).sum();
    rep.failed = traced.iter().map(|r| r.failed).sum();

    let other = a.workload.sub_seed(a.seed, 1);
    let second = a.workload.run(other, false);
    rep.check_reps(a.workload, &[&second], |_| 1);
    rep.line(format!(
        "second seed {other}: {} ops, {} failed, {} of {} acked mutations lost",
        second.attempted, second.failed, second.lost, second.acked
    ));
    if a.workload == Workload::Churn {
        let (ours, lib) = churn::cross_check(seed);
        rep.line(format!(
            "churn cross-check (acked, survived, lost): driver {ours:?}, run_churn {lib:?}"
        ));
        rep.check(ours == lib, || {
            format!("churn driver {ours:?} disagrees with run_churn {lib:?}")
        });
    }

    let overheads: Vec<f64> = plain
        .iter()
        .zip(&traced)
        .map(|(p, t)| {
            ratio(
                p.attempted as f64 / p.timed_cpu_s,
                t.attempted as f64 / t.timed_cpu_s,
            )
        })
        .collect();
    rep.line(format!(
        "{} untraced/traced pairs; tracing overhead (untraced / traced ops per CPU second): {:.4}",
        overheads.len(),
        median(&overheads)
    ));

    let first = &traced[0];
    rep.line(format!(
        "{:<28} {:>8} {:>12} {:>12} {:>10}",
        "span", "count", "total_ms", "self_ms", "rpc_calls"
    ));
    for (name, s) in &first.spans {
        rep.line(format!(
            "{name:<28} {:>8} {:>12.3} {:>12.3} {:>10}",
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.net.total_calls()
        ));
    }
    let dir = std::path::Path::new("perfbench/out");
    let file = dir.join(format!("spans-{}-{}.jsonl", a.workload.name(), a.seed));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&file, &first.spans_jsonl)) {
        Ok(()) => rep.line(format!("spans written to {}", file.display())),
        Err(e) => rep.line(format!("spans not written ({}): {e}", file.display())),
    }

    rep.line(format!("{:<36} {:>16} unit", "layer metric", "value"));
    for &(name, unit, _) in layers::METRICS {
        let value = if name == "trace.overhead_ratio" {
            median(&overheads)
        } else {
            let per_rep: Vec<f64> = traced.iter().map(|r| r.layers[name]).collect();
            median(&per_rep)
        };
        rep.line(format!("{name:<36} {value:>16.4} {unit}"));
        rep.metrics.push((name, value, unit));
    }
    rep
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload andrew|zipf|churn \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let mut report = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    for &(name, value, _) in &report.metrics.clone() {
        report.check(value.is_finite(), || format!("{name} is not finite"));
    }
    print!("{}", report.text);
    for f in &report.failures {
        println!("CHECK FAILED: {f}");
    }
    println!("{}", report.json());
    if report.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
