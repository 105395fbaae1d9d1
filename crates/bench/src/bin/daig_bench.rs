//! Records (or checks) the interned-DAIG bench artifact `BENCH_daig.json`.
//!
//! ```text
//! # Record the full artifact (PR 1 workload/seed, medians of 7 sweeps):
//! $ cargo run --release --bin daig_bench -- --out BENCH_daig.json \
//!       --before-remeasured 45991
//!
//! # CI smoke: validate the committed artifact and fail on a >30%
//! # single-worker throughput regression against its smoke point:
//! $ cargo run --release --bin daig_bench -- --check BENCH_daig.json
//!
//! # CI trace-smoke: print the smoke median alone (machine-readable) …
//! $ BASE=$(cargo run --release -p dai-bench --no-default-features \
//!       --bin daig_bench -- --smoke-qps)
//! # … then gate a probes-compiled build against it at 5%:
//! $ cargo run --release --bin daig_bench -- --baseline-qps "$BASE" \
//!       --max-regress 0.05
//!
//! # CI explain-smoke: serve the fig10 octagon sweep with cost
//! # attribution on (cold + warm), abort unless the accounting identity
//! # holds and work/span ≥ 1, and print the full per-cell reports as
//! # JSON on stdout (human summary goes to stderr):
//! $ cargo run --release --bin daig_bench -- --explain > explain_fig10.json
//! ```

use dai_bench::daig_bench::{
    measure_explain, measure_micro, measure_throughput, to_json, validate_artifact, DaigBenchParams,
};

/// The single-worker qps recorded in PR 1's `BENCH_engine.json`
/// (workers=1 point; sessions 8, grow 40, seed 379422).
const PR1_FILE_QPS: f64 = 55697.9;

fn main() {
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut profile = "full".to_string();
    let mut before_remeasured: Option<f64> = None;
    let mut max_regress = 0.30f64;
    let mut smoke_qps_only = false;
    let mut explain_only = false;
    let mut baseline_qps: Option<f64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out_path = args.next(),
            "--check" => check_path = args.next(),
            "--profile" => profile = args.next().unwrap_or_default(),
            "--smoke-qps" => smoke_qps_only = true,
            "--explain" => explain_only = true,
            "--baseline-qps" => {
                baseline_qps = Some(
                    args.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--baseline-qps takes a qps number")),
                );
            }
            "--before-remeasured" => {
                before_remeasured = args.next().and_then(|s| s.parse().ok());
            }
            "--max-regress" => {
                max_regress = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--max-regress takes a fraction"));
            }
            "--help" | "-h" => {
                println!(
                    "usage: daig_bench [--out FILE.json] [--check FILE.json] \
                     [--profile full|smoke] [--before-remeasured QPS] [--max-regress 0.30] \
                     [--smoke-qps] [--baseline-qps QPS] [--explain]"
                );
                return;
            }
            other => die(&format!("unknown flag `{other}` (try --help)")),
        }
    }

    // `--smoke-qps`: the smoke median alone on stdout, so CI can capture
    // a baseline number from one build (say, probes compiled out) and
    // feed it to another via `--baseline-qps`.
    if smoke_qps_only {
        let smoke = measure_throughput(&DaigBenchParams::smoke());
        println!("{:.1}", smoke.median());
        return;
    }

    // `--explain`: the CI explain-smoke gate. Serves the fig10 octagon
    // sweep with attribution on; `measure_explain` aborts unless both
    // captures are accounting-exact against the engine's counters, and
    // the gate below enforces work/span ≥ 1 (span is a path through the
    // work, so a ratio under 1 means the capture is lying). The per-cell
    // reports go to stdout as one JSON object for artifact upload.
    if explain_only {
        let ex = measure_explain();
        eprintln!(
            "explain (fig10 octagon, cold): {} cells, {} fixes, work {} ns, span {} ns, \
             work/span {:.2}x",
            ex.cold.cells.len(),
            ex.cold.fixes.len(),
            ex.cold.work_ns,
            ex.cold.span_ns,
            ex.cold.parallelism()
        );
        eprintln!(
            "explain (fig10 octagon, warm): {} cells, work {} ns, work/span {:.2}x",
            ex.warm.cells.len(),
            ex.warm.work_ns,
            ex.warm.parallelism()
        );
        if ex.cold.parallelism() < 1.0 || ex.warm.parallelism() < 1.0 {
            die("explain capture reports work/span < 1.0 — span exceeds attributed work");
        }
        eprintln!("explain accounting identity holds on both captures — OK");
        println!(
            "{{\"workload\": \"fig10_synthetic_octagon\",\n \"cold\": {},\n \"warm\": {}}}",
            ex.cold.to_json(10),
            ex.warm.to_json(10)
        );
        return;
    }

    // `--baseline-qps`: gate this build's smoke median against a number
    // measured elsewhere — the trace-smoke CI job's probes-compiled vs
    // no-probe comparison.
    if let Some(base) = baseline_qps {
        let smoke = measure_throughput(&DaigBenchParams::smoke());
        let measured = smoke.median();
        let floor = base * (1.0 - max_regress);
        println!(
            "trace probes compiled: {}; runtime tracing enabled: {}",
            dai_trace::TraceConfig::probes_compiled(),
            dai_trace::config().is_enabled(),
        );
        println!(
            "measured smoke median {measured:.1} qps vs baseline {base:.1} \
             (floor {floor:.1}, tolerance {max_regress})"
        );
        if measured < floor {
            die(&format!(
                "warm-path qps regressed vs baseline: measured {measured:.1} < floor {floor:.1} \
                 (baseline {base:.1}, tolerance {max_regress})"
            ));
        }
        println!("warm-path throughput within {max_regress} of the baseline — OK");
        return;
    }

    if let Some(path) = check_path {
        let committed =
            std::fs::read_to_string(&path).unwrap_or_else(|e| die(&format!("read {path}: {e}")));
        let committed_smoke =
            validate_artifact(&committed).unwrap_or_else(|e| die(&format!("invalid {path}: {e}")));
        println!(
            "{path}: all required fields present; committed smoke median {committed_smoke:.1} qps"
        );
        let smoke = measure_throughput(&DaigBenchParams::smoke());
        let measured = smoke.median();
        println!(
            "measured smoke median: {measured:.1} qps ({} queries/sweep)",
            smoke.queries
        );
        let floor = committed_smoke * (1.0 - max_regress);
        if measured < floor {
            die(&format!(
                "single-worker qps regressed: measured {measured:.1} < floor {floor:.1} \
                 (committed {committed_smoke:.1}, tolerance {max_regress})"
            ));
        }
        println!("throughput within {max_regress} of the committed smoke point — OK");
        return;
    }

    let params = match profile.as_str() {
        "full" => DaigBenchParams::full(),
        "smoke" => DaigBenchParams::smoke(),
        other => die(&format!("unknown profile `{other}`")),
    };
    // Smoke first, from a near-cold process: `--check` re-measures the
    // smoke point at process start, so recording it after minutes of
    // full-profile load would bake in a systematically hot committed
    // number and make the 30% regression floor flaky.
    println!("measuring smoke profile…");
    let smoke = measure_throughput(&DaigBenchParams::smoke());
    println!("smoke: median {:.1} qps", smoke.median());
    println!("measuring {profile} profile ({} repeats)…", params.repeats);
    let full = measure_throughput(&params);
    println!(
        "after: {} queries/sweep, median {:.1} qps, best {:.1} qps",
        full.queries,
        full.median(),
        full.best()
    );
    println!("measuring explain attribution (fig10 cold + warm sweeps)…");
    let explain = measure_explain();
    println!(
        "explain: cold {} cells / {} fixes, work/span {:.2}x; warm {} cells, work/span {:.2}x \
         (accounting exact on both)",
        explain.cold.cells.len(),
        explain.cold.fixes.len(),
        explain.cold.parallelism(),
        explain.warm.cells.len(),
        explain.warm.parallelism()
    );
    println!("measuring representation micro-costs…");
    let micro = measure_micro();
    println!(
        "micro: initial_daig {:.0} ns, cold exit query {:.0} ns, edit+requery {:.0} ns, \
         cone_walks {} (unrolls {})",
        micro.initial_daig_ns,
        micro.cold_exit_query_ns,
        micro.edit_requery_ns,
        micro.cone_walks,
        micro.unrolls
    );
    println!(
        "speedup vs PR 1 file ({PR1_FILE_QPS:.1}): {:.2}x",
        full.median() / PR1_FILE_QPS
    );
    if let Some(q) = before_remeasured {
        println!(
            "speedup vs remeasured baseline ({q:.1}): {:.2}x",
            full.median() / q
        );
    }

    let json = to_json(
        &profile,
        &params,
        &full,
        &smoke,
        &micro,
        &explain,
        PR1_FILE_QPS,
        before_remeasured,
    );
    match out_path {
        Some(path) => {
            std::fs::write(&path, json).unwrap_or_else(|e| die(&format!("write {path}: {e}")));
            println!("artifact written to {path}");
        }
        None => print!("{json}"),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("daig_bench: {msg}");
    std::process::exit(2);
}
