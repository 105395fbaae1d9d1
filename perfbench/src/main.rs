//! The repository benchmark. One run measures one workload for a fixed
//! window and prints its metrics; the last line of standard output is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload edit_query --seed 1 --seconds 10 --trace 0
//! ```
//!
//! A run is a number of rounds, each a set-up, a segment of the timed
//! window and (on workloads without a journal of their own) a restart
//! probe. Rounds run until `--seconds` have gone, and `--seed` sets
//! their inputs: round `i` of one seed has the same inputs in every
//! run, so two builds run on one seed measure the same sequence of
//! rounds, the faster one further along it. A round the hypervisor
//! stole much time from is run again. The process is pinned to one CPU
//! (see `host::pin_to_one_cpu`).
//! Medians and set-up are wall-clock time, and tails and rates process
//! CPU time (see `common::cpu_ns`), all scaled by the host's speed at
//! the start of the round (see `host`); each latency is the median over
//! blocks of samples (see `common::BLOCK`) of that block's figure, and
//! each rate the median over rounds.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
//! workload twice on the same seed, untraced and then traced, and
//! prints the per-layer metrics, including the tracing overhead.
//! Workloads and metrics are described in `BENCHMARK.json` at the root
//! of the repository.

mod common;
mod durable_edits;
mod edit_query;
mod host;
mod socket_reads;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use common::{peak_rss_mb, Rec, Recs, Segment, Settings};
use dai_core::explain::CellOutcome;
use stats::{iqr_share, median, Summary};

/// Largest share of the window the ledger may leave unattributed.
const MAX_RESIDUAL: f64 = 0.10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    EditQuery,
    SocketReads,
    DurableEdits,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "edit_query" => Some(Workload::EditQuery),
            "socket_reads" => Some(Workload::SocketReads),
            "durable_edits" => Some(Workload::DurableEdits),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::EditQuery => "edit_query",
            Workload::SocketReads => "socket_reads",
            Workload::DurableEdits => "durable_edits",
        }
    }

    /// Client threads, and the most connections open at once (the
    /// restart probe's follower holds one; on socket_reads it runs after
    /// the readers have closed).
    fn clients(self, s: &Settings) -> (usize, usize) {
        match self {
            Workload::EditQuery => (1, 1),
            Workload::SocketReads => (1, s.clients),
            // The workload client and the follower's leader connection.
            Workload::DurableEdits => (1, 2),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let v = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(v > 0.0 && v <= 600.0) {
                    return Err(format!("--seconds {v} out of range (0, 600]"));
                }
                seconds = Some(v)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One pass over a workload.
struct Pass {
    /// Rounds kept.
    rounds: u64,
    /// Peak resident memory after [`MIN_ROUNDS`] rounds, MiB.
    peak_rss: f64,
    setup_s: Vec<f64>,
    /// Window, set-up and probe records merged.
    rec: Rec,
    /// Process CPU time of the window less the trace-only extras, ns.
    cpu_ns: f64,
    /// Host speed index of each round.
    host_speed: Vec<f64>,
    /// Share of the virtual CPUs' time stolen in each kept round.
    steal: Vec<f64>,
    /// Rounds run again because of steal.
    retries: usize,
    /// Operations and answers per CPU second spent in the operations'
    /// calls, for each window segment.
    ops_rates: Vec<f64>,
    answer_rates: Vec<f64>,
    /// Window ledger (wall clock): the window, and time in calls,
    /// generation, checks and trace-only extras.
    covered_ns: u64,
    ledger: [u64; 4],
}

impl Pass {
    fn residual_share(&self) -> f64 {
        1.0 - self.ledger.iter().sum::<u64>() as f64 / self.covered_ns.max(1) as f64
    }
}

/// Fewest rounds in a pass, however long they take. `peak_rss_mb` is
/// read when this many have run, so it covers the same rounds however
/// many more a faster build or host gets through (the peak over 28 and
/// over 41 rounds differed by 10%).
const MIN_ROUNDS: u64 = 16;

/// A round is run again when the hypervisor stole more than this share
/// of the virtual CPUs' time while it ran. Stolen time inflates process
/// CPU times too: on a 2-vCPU guest, socket_reads' query_tail_ms read
/// 0.17 ms in a run with 6% steal and 0.31 ms in one with 55%.
const STEAL_OK: f64 = 0.10;
/// Most attempts at one round; the one with the least steal is kept.
const MAX_ATTEMPTS: usize = 3;
/// Retries may take at most this share of `--seconds` of a pass.
const RETRY_SHARE: f64 = 0.5;

/// One attempt at round `i` in records of its own, with the share of
/// the virtual CPUs' time stolen while it ran.
fn attempt(w: Workload, s: &Settings, traced: bool, i: u64) -> (f64, Recs) {
    let mut recs = Recs::new(traced);
    let (t0, steal0) = (Instant::now(), host::steal_ticks());
    recs.start_round();
    match w {
        Workload::EditQuery => edit_query::round(s, &mut recs, i),
        Workload::SocketReads => socket_reads::round(s, &mut recs, i),
        Workload::DurableEdits => durable_edits::round(s, &mut recs, i),
    }
    (host::steal_share(steal0, t0.elapsed().as_secs_f64()), recs)
}

/// Runs the rounds of one pass: exactly `rounds` of them when given,
/// else rounds while the next one is expected to end within `--seconds`
/// of the pass's start (at least [`MIN_ROUNDS`]). A round's inputs
/// depend only on the seed and its number, so a retried round measures
/// the same work, and a faster build measures more rounds of the same
/// sequence.
fn pass(w: Workload, s: &Settings, traced: bool, rounds: Option<u64>) -> Pass {
    let mut recs = Recs::new(traced);
    let mut steal = Vec::new();
    let mut retries = 0;
    let mut budget = RETRY_SHARE * s.seconds;
    let start = Instant::now();
    let more = |i: u64| match rounds {
        Some(n) => i < n,
        None => {
            let spent = start.elapsed().as_secs_f64();
            i < MIN_ROUNDS || spent + spent / i as f64 <= s.seconds
        }
    };
    let mut i = 0;
    let mut peak_rss = 0.0;
    while more(i) {
        let (mut share, mut kept) = attempt(w, s, traced, i);
        for _ in 1..MAX_ATTEMPTS {
            if share <= STEAL_OK || budget <= 0.0 {
                break;
            }
            let t0 = Instant::now();
            let (again_share, again) = attempt(w, s, traced, i);
            budget -= t0.elapsed().as_secs_f64();
            retries += 1;
            if again_share < share {
                share = again_share;
                recs.absorb_outcomes(std::mem::replace(&mut kept, again));
            } else {
                recs.absorb_outcomes(again);
            }
        }
        steal.push(share);
        recs.absorb(kept);
        i += 1;
        if i == MIN_ROUNDS {
            peak_rss = peak_rss_mb();
        }
    }
    let Recs {
        setup,
        window: mut rec,
        probe,
        setup_s,
        window_cpu_ns,
        window_wall_ns,
        host_speed,
    } = recs;
    let ledger = [rec.call_ns, rec.gen_ns, rec.check_ns, rec.extra_ns];
    let rate = |x: u64, seg: &Segment| x as f64 * 1e9 / seg.op_cpu_ns.max(1.0);
    let ops_rates = rec.segments.iter().map(|g| rate(g.ops, g)).collect();
    let answer_rates = rec.segments.iter().map(|g| rate(g.answers, g)).collect();
    rec.absorb(setup);
    rec.absorb(probe);
    Pass {
        rounds: i,
        peak_rss,
        setup_s,
        rec,
        cpu_ns: window_cpu_ns,
        host_speed,
        steal,
        retries,
        ops_rates,
        answer_rates,
        covered_ns: window_wall_ns,
        ledger,
    }
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of an untraced pass, with notes (tail
/// percentiles and sample counts) for the report.
fn end_to_end(p: &Pass, notes: &mut Vec<String>, missing: &mut Vec<String>) -> Vec<Metric> {
    let r = &p.rec;
    let mut out = vec![];
    let (lo, hi) = p
        .host_speed
        .iter()
        .fold((f64::MAX, 0.0f64), |(a, b), &x| (a.min(x), b.max(x)));
    notes.push(format!(
        "host speed index: median {:.3}, range {lo:.3}..{hi:.3} over {} rounds (times are scaled by it)",
        median(&p.host_speed),
        p.host_speed.len()
    ));
    notes.push(format!(
        "host steal: median {:.1}%, max {:.1}% of CPU time over the kept rounds; {} reruns of rounds above {}%",
        100.0 * median(&p.steal),
        100.0 * p.steal.iter().copied().fold(0.0, f64::max),
        p.retries,
        100.0 * STEAL_OK
    ));
    if p.setup_s.len() < 2 {
        missing.push("setup_s".to_string());
    } else {
        out.push(m("setup_s", median(&p.setup_s), "s"));
        notes.push(format!(
            "setup_s: median of {} set-ups, IQR {:.1}% of it",
            p.setup_s.len(),
            100.0 * iqr_share(&p.setup_s)
        ));
    }
    let cpu = [&r.query_ns, &r.edit_ns, &r.sweep_ns];
    for ((what, xs), cpu) in ["query", "edit", "sweep"].iter().zip(&r.wall_ns).zip(cpu) {
        for (clock, xs) in [("all samples, wall clock", xs), ("all samples, CPU", cpu)] {
            if let Some(sm) = stats::summarize(xs) {
                notes.push(format!(
                    "{clock} {what}: p50 {:.4} ms, p{} {:.4} ms over {} samples",
                    sm.p50 / 1e6,
                    sm.tail_pct,
                    sm.tail / 1e6,
                    sm.n
                ));
            }
        }
    }
    let segs = &r.segments;
    let mut latency = |what: &str,
                       pick: fn(&Segment) -> &[Summary],
                       p50: &'static str,
                       tail: &'static str| {
        let sums: Vec<Summary> = segs.iter().flat_map(pick).copied().collect();
        if sums.is_empty() {
            missing.push(format!("{p50}/{tail}"));
            return;
        }
        let p50s: Vec<f64> = sums.iter().map(|x| x.p50).collect();
        let tails: Vec<f64> = sums.iter().map(|x| x.tail).collect();
        out.push(m(p50, median(&p50s) / 1e6, "ms"));
        out.push(m(tail, median(&tails) / 1e6, "ms"));
        let (lo, hi) = sums.iter().fold((f64::MAX, 0.0f64), |(a, b), x| {
            (a.min(x.tail_pct), b.max(x.tail_pct))
        });
        let n: usize = sums.iter().map(|x| x.n).sum();
        notes.push(format!(
            "{p50} (wall clock), {tail} (CPU): median over {} blocks of each block's p50 and p{lo}..p{hi} ({n} {what} samples in all)",
            sums.len()
        ));
    };
    latency("query", |g| &g.query, "query_p50_ms", "query_tail_ms");
    latency("edit", |g| &g.edit, "edit_p50_ms", "edit_tail_ms");
    latency("sweep", |g| &g.sweep, "sweep_p50_ms", "sweep_tail_ms");
    if p.ops_rates.is_empty() {
        missing.push("ops_per_s/answers_per_s".to_string());
    } else {
        out.push(m("ops_per_s", median(&p.ops_rates), "1/s"));
        out.push(m("answers_per_s", median(&p.answer_rates), "1/s"));
        notes.push(format!(
            "ops_per_s, answers_per_s: median over {} segments, per CPU second inside the operations' calls",
            p.ops_rates.len()
        ));
    }
    for (name, xs) in [
        ("catch_up_ms", &r.catch_up_ns),
        ("recover_ms", &r.recover_ns),
    ] {
        if xs.is_empty() {
            missing.push(name.to_string());
        } else {
            out.push(m(name, median(xs) / 1e6, "ms"));
            let iqr = if xs.len() >= 2 {
                100.0 * iqr_share(xs)
            } else {
                0.0
            };
            notes.push(format!(
                "{name}: median of {} samples, IQR {iqr:.1}% of it",
                xs.len()
            ));
        }
    }
    out.push(m("peak_rss_mb", p.peak_rss, "MiB"));
    out
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn med_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// The per-layer metrics of a traced pass; `overhead` is the traced
/// window's process CPU time, less the trace-only extras (replays,
/// codec timing, explain captures), over the untraced window's.
fn per_layer(p: &Pass, overhead: f64) -> Vec<Metric> {
    let r = &p.rec;
    let d = &r.deltas;
    let l = &r.layer;
    let q = d.queries as f64;
    let ex = &l.explains;
    let sum =
        |f: &dyn Fn(&dai_core::explain::ExplainReport) -> u64| ex.iter().map(f).sum::<u64>() as f64;
    let computed_ns = sum(&|e| e.outcome_ns(CellOutcome::Computed));
    let computed_cells = sum(&|e| e.outcome_cells(CellOutcome::Computed));
    let (eval, work, span) = (
        sum(&|e| e.eval_ns),
        sum(&|e| e.work_ns),
        sum(&|e| e.span_ns),
    );
    let n_ex = ex.len() as f64;
    let journal_edits = d.journal_edits as f64;
    vec![
        m("lang.program_edges", mean(&d.program_edges), "count"),
        m("lang.program_locs", mean(&d.program_locs), "count"),
        m(
            "domains.computed_ns_per_cell",
            ratio(computed_ns, computed_cells),
            "ns",
        ),
        m(
            "domains.fix_ns_per_sweep",
            ratio(sum(&|e| e.fix_ns()), n_ex),
            "ns",
        ),
        m(
            "core.cells_computed",
            ratio(d.computed as f64, q),
            "1/query",
        ),
        m(
            "core.cells_memo_matched",
            ratio(d.memo_matched as f64, q),
            "1/query",
        ),
        m("core.cells_reused", ratio(d.reused as f64, q), "1/query"),
        m("core.unrolls", ratio(d.unrolls as f64, q), "1/query"),
        m(
            "core.fix_converged",
            ratio(d.fix_converged as f64, q),
            "1/query",
        ),
        m("core.cone_walks", ratio(d.cone_walks as f64, q), "1/query"),
        m("core.cone_cells", ratio(d.cone_cells as f64, q), "1/query"),
        m("core.eval_ns", ratio(eval, n_ex), "ns"),
        m("core.work_ns", ratio(work, n_ex), "ns"),
        m("core.span_ns", ratio(span, n_ex), "ns"),
        m(
            "core.unattributed_share",
            if eval > 0.0 { 1.0 - work / eval } else { 0.0 },
            "ratio",
        ),
        m("memo.hits", d.memo_hits as f64, "count"),
        m("memo.misses", d.memo_misses as f64, "count"),
        m(
            "memo.hit_rate",
            ratio(d.memo_hits as f64, (d.memo_hits + d.memo_misses) as f64),
            "ratio",
        ),
        m("memo.evictions", d.memo_evictions as f64, "count"),
        m(
            "engine.session_locks_per_query",
            ratio(d.session_locks as f64, q),
            "1/query",
        ),
        m(
            "engine.coalesced_share",
            ratio(d.coalesced as f64, (d.coalesced + d.singleton) as f64),
            "ratio",
        ),
        m(
            "engine.lock_wait_ns",
            ratio(sum(&|e| e.lock_wait_ns), n_ex),
            "ns",
        ),
        m(
            "engine.lock_held_ns",
            ratio(sum(&|e| e.lock_held_ns), n_ex),
            "ns",
        ),
        m("engine.edit_ms", med_or_zero(&l.engine_edit_ns) / 1e6, "ms"),
        m("persist.encode_us", med_or_zero(&l.encode_ns) / 1e3, "us"),
        m("persist.decode_us", med_or_zero(&l.decode_ns) / 1e3, "us"),
        m("persist.answer_bytes", mean(&l.answer_bytes), "bytes"),
        m(
            "journal.frames_per_edit",
            ratio(d.journal_frames as f64, journal_edits),
            "1/edit",
        ),
        m(
            "journal.bytes_per_edit",
            ratio(d.journal_bytes as f64, journal_edits),
            "bytes/edit",
        ),
        m(
            "journal.open_ms",
            med_or_zero(&l.journal_open_ns) / 1e6,
            "ms",
        ),
        m(
            "rpc.query_overhead_us",
            (med_or_zero(&l.rpc_query_ns) - med_or_zero(&l.local_query_ns)) / 1e3,
            "us",
        ),
        m(
            "rpc.sweep_overhead_us",
            (med_or_zero(&l.rpc_sweep_ns) - med_or_zero(&l.local_sweep_ns)) / 1e3,
            "us",
        ),
        m(
            "rpc.sync_batch_ms",
            med_or_zero(&l.sync_batch_ns) / 1e6,
            "ms",
        ),
        m("rpc.frames_per_sync", mean(&l.sync_frames), "count"),
        m("rpc.overloaded", r.calls.refused as f64, "count"),
        m("trace.overhead", overhead, "ratio"),
    ]
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// HEAD of the git checkout in the working directory, read from the
/// `.git` directory itself (so nothing outside the checkout is read).
fn git_head() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|p| {
                    p.lines()
                        .find(|l| l.ends_with(r))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
    }
}

fn json_str(s: &str) -> String {
    let mut o = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload edit_query|socket_reads|durable_edits --seed N --seconds S [--trace 0|1]");
            std::process::exit(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // `nproc` before pinning, which would make it print 1.
    let nproc_cmd = command_line("nproc", &[]);
    let pinned = host::pin_to_one_cpu();
    let run_dir = PathBuf::from(".bench_build").join("perfbench-run");
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("perfbench: cannot create {}: {e}", run_dir.display());
        std::process::exit(2);
    }
    let s = Settings {
        seed: args.seed,
        seconds: args.seconds,
        // One engine worker: with two on a 2-vCPU host, where each woken
        // worker landed moved the CPU cost of socket_reads' hover tail
        // by up to 70% between runs (IQR 26% of the median over ten
        // runs, against 5% with one worker).
        workers: 1,
        clients: nproc.min(2),
        run_dir,
    };
    let w = args.workload;
    dai_trace::config().set_enabled(false);

    let untraced = pass(w, &s, false, None);
    let mut notes = Vec::new();
    let mut missing = Vec::new();
    let (traced, metrics) = if args.trace {
        dai_trace::drain();
        dai_trace::config().set_enabled(true);
        // The same rounds as the untraced pass, so trace.overhead
        // compares the same work.
        let traced = pass(w, &s, true, Some(untraced.rounds));
        dai_trace::config().set_enabled(false);
        let overhead = traced.cpu_ns / untraced.cpu_ns.max(1.0);
        match trace::finish(&s.run_dir.join(format!("trace-{}.json", w.name()))) {
            Ok(summary) => {
                for (label, t) in &summary.labels {
                    notes.push(format!(
                        "span {label}: {} spans, total {:.3} ms, self {:.3} ms",
                        t.count,
                        t.total_ns as f64 / 1e6,
                        t.self_ns as f64 / 1e6
                    ));
                }
                notes.push(format!(
                    "trace: {} internal probe records not kept, {} records dropped",
                    summary.internal, summary.dropped
                ));
            }
            Err(e) => notes.push(format!("trace export failed: {e}")),
        }
        let metrics = per_layer(&traced, overhead);
        (Some(traced), metrics)
    } else {
        (None, end_to_end(&untraced, &mut notes, &mut missing))
    };

    // Both passes of a traced run must be correct and accounted for.
    let passes: Vec<&Pass> = std::iter::once(&untraced).chain(traced.as_ref()).collect();
    let shown = passes[passes.len() - 1];
    let mut calls = stats::Calls::default();
    let mut problems: Vec<String> = Vec::new();
    for p in &passes {
        calls.absorb(&p.rec.calls);
        problems.extend(p.rec.failures.iter().cloned());
        let residual = p.residual_share();
        if !(-0.001..=MAX_RESIDUAL).contains(&residual) {
            problems.push(format!(
                "window ledger: {:.2}% of the window unattributed (allowed 0..{}%)",
                residual * 100.0,
                MAX_RESIDUAL * 100.0
            ));
        }
    }
    for what in &missing {
        problems.push(format!("no samples for {what}"));
    }
    let correct = problems.is_empty() && calls.failed() == 0;

    let (threads, connections) = w.clients(&s);
    let provenance = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\
         \"available_parallelism\":{},\"rustc\":{},\"git_head\":{},\"profile\":{},\
         \"trace_probes\":{},\"engine_workers\":{},\"client_threads\":{},\"connections\":{},\
         \"pinned_cpu\":{},\"rounds\":{}}}",
        json_str(w.name()),
        args.seed,
        args.seconds,
        args.trace,
        json_str(&nproc_cmd),
        nproc,
        json_str(&command_line("rustc", &["-V"])),
        json_str(&git_head()),
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        dai_trace::TraceConfig::probes_compiled(),
        s.workers,
        threads,
        connections,
        pinned.map_or("null".to_string(), |c| c.to_string()),
        untraced.rounds,
    );
    println!("provenance {provenance}");
    for mt in &metrics {
        println!("metric {} {} {}", mt.name, json_num(mt.value), mt.unit);
    }
    println!(
        "metric failed_ops {} share ({} of {} calls: {} errored, {} refused, {} wrong)",
        calls.failed_share(),
        calls.failed(),
        calls.attempted,
        calls.errored,
        calls.refused,
        calls.wrong
    );
    let share = |ns: u64| 100.0 * ns as f64 / shown.covered_ns.max(1) as f64;
    let [in_calls, gen, checks, extras] = shown.ledger;
    println!(
        "ledger window {:.3} s wall clock: calls {:.1}%, generator {:.1}%, checks {:.1}%, trace extras {:.1}%, unattributed {:.2}%",
        shown.covered_ns as f64 / 1e9,
        share(in_calls),
        share(gen),
        share(checks),
        share(extras),
        100.0 * shown.residual_share()
    );
    for n in &notes {
        println!("note {n}");
    }
    for p in &problems {
        println!("problem {p}");
    }
    let mut body = String::new();
    for (i, mt) in metrics.iter().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let _ = write!(
            body,
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(mt.name),
            json_num(mt.value),
            json_str(mt.unit)
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        correct,
        calls.attempted,
        calls.failed(),
        body
    );
    if !correct {
        std::process::exit(1);
    }
}
