//! The DAIG representation microbench behind `BENCH_daig.json`.
//!
//! Measures two things about the interned-id DAIG (PR 2):
//!
//! 1. **End-to-end single-worker throughput** on the Fig. 10 synthetic
//!    octagon workload — the same sweep `BENCH_engine.json` records
//!    (sessions grown by random edits, then every `(function, location)`
//!    queried through the engine), repeated several times because
//!    single-CPU container timing is noisy; the medians are what count.
//! 2. **Representation micro-costs**: `initial_daig` construction,
//!    a cold demanded exit query, an edit-plus-requery round trip, and a
//!    counter check that the demanded cone is traversed exactly once per
//!    evaluation no matter how many times loops unroll.
//!
//! The `--check` mode is the CI contract: it validates a committed
//! `BENCH_daig.json` (fields present), re-runs the smoke profile, and
//! fails on a large throughput regression against the committed smoke
//! point.

use dai_core::analysis::FuncAnalysis;
use dai_core::explain::{CellOutcome, ExplainReport};
use dai_core::query::{IntraResolver, QueryStats};
use dai_domains::OctagonDomain;
use dai_lang::cfg::lower_program;
use dai_lang::parser::parse_program;
use dai_memo::MemoTable;
use std::time::Instant;

use crate::engine_scaling::{run_scaling, ScalingParams};

/// Workload sizes for one measurement.
#[derive(Debug, Clone)]
pub struct DaigBenchParams {
    /// Engine sessions.
    pub sessions: usize,
    /// Random edits growing each session before measurement.
    pub grow_edits: usize,
    /// Workload seed (the PR 1 baseline used 379422).
    pub seed: u64,
    /// Full-sweep repetitions (medians reported).
    pub repeats: usize,
}

impl DaigBenchParams {
    /// The profile matching the PR 1 `BENCH_engine.json` recording.
    pub fn full() -> DaigBenchParams {
        DaigBenchParams {
            sessions: 8,
            grow_edits: 40,
            seed: 379422,
            repeats: 7,
        }
    }

    /// A seconds-scale profile for CI smoke runs.
    pub fn smoke() -> DaigBenchParams {
        DaigBenchParams {
            sessions: 2,
            grow_edits: 6,
            seed: 379422,
            repeats: 3,
        }
    }
}

/// One measured throughput series.
#[derive(Debug, Clone)]
pub struct Throughput {
    /// Queries per sweep.
    pub queries: usize,
    /// Per-repeat queries/second, unsorted.
    pub runs: Vec<f64>,
}

impl Throughput {
    /// The median of the runs.
    pub fn median(&self) -> f64 {
        let mut v = self.runs.clone();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return 0.0;
        }
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    }

    /// The best run.
    pub fn best(&self) -> f64 {
        self.runs.iter().copied().fold(0.0, f64::max)
    }
}

/// Representation micro-costs and the incrementality witness.
#[derive(Debug, Clone)]
pub struct MicroCosts {
    /// `initial_daig` construction over the loopy reference function.
    pub initial_daig_ns: f64,
    /// Cold demanded exit query (sequential evaluator, octagon).
    pub cold_exit_query_ns: f64,
    /// Statement relabel + exit re-query (incremental path).
    pub edit_requery_ns: f64,
    /// Unrolls the cold query performed.
    pub unrolls: u64,
    /// Demanded-cone traversals the *engine scheduler* performed for one
    /// exit evaluation of the same function (must be 1 — the whole point
    /// of incremental cone maintenance).
    pub cone_walks: u64,
}

const LOOPY: &str = "function f(n) { var i = 0; var s = 0; \
                     while (i < 9) { var j = 0; while (j < 4) { s = s + j; j = j + 1; } i = i + 1; } \
                     return s; }";

/// The fig10 explain captures behind the artifact's `"explain"` section:
/// one session grown by the sweep's edit mix, the whole-program sweep
/// served twice with cost attribution on — **cold** (the union cone
/// computed from scratch; the work/span figure the paper's demanded-cone
/// parallelism argument is about) and **warm** (the same sweep re-served
/// against the populated DAIG, so reuse dominates and the attributed
/// work collapses).
#[derive(Debug, Clone)]
pub struct ExplainFig10 {
    /// The cold-sweep capture.
    pub cold: ExplainReport,
    /// The warm re-sweep capture.
    pub warm: ExplainReport,
}

/// Measures [`ExplainFig10`] on the grown fig10 octagon workload. Both
/// captures have the accounting identity checked against the engine's
/// `QueryStats` delta before this returns — a report that disagrees
/// with the counters aborts the bench rather than recording fiction.
pub fn measure_explain() -> ExplainFig10 {
    use dai_engine::{Engine, EngineConfig, Request};
    let engine: Engine<OctagonDomain> = Engine::with_config(EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    });
    let id = engine.open_session(
        "explain-bench".to_string(),
        crate::workload::Workload::initial_program(),
    );
    let defaults = DaigBenchParams::full();
    let mut gen = crate::workload::Workload::new(defaults.seed);
    for _ in 0..defaults.grow_edits {
        let program = engine.program_of(id).expect("session open");
        let edit: dai_core::driver::ProgramEdit = gen.next_edit(&program);
        engine
            .request(Request::Edit { session: id, edit })
            .expect("bench edit applies");
    }
    let program = engine.program_of(id).expect("session open");
    let mut targets: Vec<(String, dai_lang::Loc)> = Vec::new();
    for cfg in program.cfgs() {
        for loc in cfg.locs() {
            targets.push((cfg.name().to_string(), loc));
        }
    }
    targets.sort();

    let capture = |label: &str| {
        let before = engine.stats().query_stats;
        let report = engine.explain_sweep(id, &targets).expect("explain sweep");
        let delta = engine.stats().query_stats.delta(&before);
        report
            .check_accounting(&delta)
            .unwrap_or_else(|e| panic!("{label} explain capture is not accounting-exact: {e}"));
        report
    };
    let cold = capture("cold");
    let warm = capture("warm");
    ExplainFig10 { cold, warm }
}

/// Runs the end-to-end single-worker sweep `repeats` times.
pub fn measure_throughput(params: &DaigBenchParams) -> Throughput {
    let mut runs = Vec::with_capacity(params.repeats);
    let mut queries = 0;
    for _ in 0..params.repeats {
        let run = run_scaling(&ScalingParams {
            sessions: params.sessions,
            grow_edits: params.grow_edits,
            worker_counts: vec![1],
            seed: params.seed,
        });
        let p = run.points.first().expect("one point per sweep");
        queries = p.queries;
        runs.push(p.qps);
    }
    Throughput { queries, runs }
}

/// Measures the representation micro-costs on the loopy reference
/// function.
pub fn measure_micro() -> MicroCosts {
    let cfg = lower_program(&parse_program(LOOPY).expect("loopy parses"))
        .expect("loopy lowers")
        .cfgs()[0]
        .clone();

    let iters = 400u32;
    let t0 = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(dai_core::build::initial_daig::<OctagonDomain>(
            &cfg,
            OctagonDomain::top(),
        ));
    }
    let initial_daig_ns = t0.elapsed().as_nanos() as f64 / iters as f64;

    // Cold demanded exit query (sequential evaluator).
    let cold_iters = 50u32;
    let mut unrolls = 0;
    let t0 = Instant::now();
    for _ in 0..cold_iters {
        let mut fa: FuncAnalysis<OctagonDomain> =
            FuncAnalysis::new(cfg.clone(), OctagonDomain::top());
        let mut memo = MemoTable::new();
        let mut stats = QueryStats::default();
        fa.query_exit(&mut memo, &mut IntraResolver, &mut stats)
            .expect("cold query succeeds");
        unrolls = stats.unrolls;
    }
    let cold_exit_query_ns = t0.elapsed().as_nanos() as f64 / cold_iters as f64;

    // Edit + requery round trip on a warm analysis.
    let mut fa: FuncAnalysis<OctagonDomain> = FuncAnalysis::new(cfg.clone(), OctagonDomain::top());
    let mut memo = MemoTable::new();
    let mut stats = QueryStats::default();
    fa.query_exit(&mut memo, &mut IntraResolver, &mut stats)
        .expect("warm-up query succeeds");
    let edit_edge = fa
        .cfg()
        .edges()
        .find(|e| e.stmt.to_string() == "s = (s + j)")
        .expect("edit target exists")
        .id;
    let edit_iters = 100u32;
    let t0 = Instant::now();
    for i in 0..edit_iters {
        let stmt = dai_lang::Stmt::Assign(
            "s".into(),
            dai_lang::parse_expr(&format!("s + j + {}", i % 2)).expect("expr parses"),
        );
        fa.relabel(edit_edge, stmt).expect("relabel succeeds");
        fa.query_exit(&mut memo, &mut IntraResolver, &mut stats)
            .expect("requery succeeds");
    }
    let edit_requery_ns = t0.elapsed().as_nanos() as f64 / edit_iters as f64;

    // Incrementality witness: one engine-side evaluation, however many
    // unrolls it takes, walks the cone once.
    let pool = dai_engine::WorkerPool::new(1);
    let memo = dai_memo::SharedMemoTable::new(4);
    let mut fa: FuncAnalysis<OctagonDomain> = FuncAnalysis::new(cfg.clone(), OctagonDomain::top());
    let mut estats = QueryStats::default();
    let exit = dai_core::Name::State {
        loc: fa.cfg().exit(),
        ctx: dai_core::IterCtx::root(),
    };
    dai_engine::evaluate_targets(
        &mut fa,
        &[exit],
        &memo,
        &IntraResolver,
        &pool.handle(),
        &mut estats,
    )
    .expect("engine evaluation succeeds");

    MicroCosts {
        initial_daig_ns,
        cold_exit_query_ns,
        edit_requery_ns,
        unrolls,
        cone_walks: estats.cone_walks,
    }
}

/// Renders the JSON artifact.
#[allow(clippy::too_many_arguments)]
pub fn to_json(
    profile: &str,
    params: &DaigBenchParams,
    full: &Throughput,
    smoke: &Throughput,
    micro: &MicroCosts,
    explain: &ExplainFig10,
    before_file_qps: f64,
    before_remeasured_qps: Option<f64>,
) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"daig_interned\",\n");
    out.push_str("  \"workload\": \"fig10_synthetic_octagon\",\n");
    out.push_str(&format!("  \"profile\": \"{profile}\",\n"));
    out.push_str(&format!(
        "  \"host_cpus\": {},\n",
        std::thread::available_parallelism().map_or(0, usize::from)
    ));
    out.push_str(&format!(
        "  \"sessions\": {}, \"grow_edits\": {}, \"seed\": {}, \"repeats\": {},\n",
        params.sessions, params.grow_edits, params.seed, params.repeats
    ));
    let runs = |t: &Throughput| {
        t.runs
            .iter()
            .map(|q| format!("{q:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    out.push_str("  \"before\": {\n");
    out.push_str(&format!("    \"pr1_file_qps\": {before_file_qps:.1},\n"));
    match before_remeasured_qps {
        Some(q) => out.push_str(&format!(
            "    \"remeasured_qps_median\": {q:.1},\n    \"remeasured_how\": \"PR 1 binary rebuilt from its commit and interleaved A/B on this host\"\n"
        )),
        None => out.push_str("    \"remeasured_qps_median\": null\n"),
    }
    out.push_str("  },\n");
    out.push_str(&format!(
        "  \"after\": {{\"workers\": 1, \"queries\": {}, \"qps_median\": {:.1}, \"qps_best\": {:.1}, \"runs\": [{}]}},\n",
        full.queries,
        full.median(),
        full.best(),
        runs(full)
    ));
    out.push_str(&format!(
        "  \"smoke\": {{\"queries\": {}, \"qps_median\": {:.1}, \"runs\": [{}]}},\n",
        smoke.queries,
        smoke.median(),
        runs(smoke)
    ));
    out.push_str(&format!(
        "  \"speedup_vs_pr1_file\": {:.2},\n",
        full.median() / before_file_qps
    ));
    if let Some(q) = before_remeasured_qps {
        out.push_str(&format!(
            "  \"speedup_vs_remeasured\": {:.2},\n",
            full.median() / q
        ));
    }
    let report_json = |r: &ExplainReport| {
        format!(
            "{{\"cells\": {}, \"computed\": {}, \"memo_matched\": {}, \"reused\": {}, \
             \"fixes\": {}, \"unrolls\": {}, \"work_ns\": {}, \"span_ns\": {}, \
             \"work_span_parallelism\": {:.2}, \"lock_wait_ns\": {}, \"lock_held_ns\": {}, \
             \"eval_ns\": {}}}",
            r.cells.len(),
            r.outcome_cells(CellOutcome::Computed),
            r.outcome_cells(CellOutcome::MemoMatched),
            r.outcome_cells(CellOutcome::Reused),
            r.fixes.len(),
            r.unrolls(),
            r.work_ns,
            r.span_ns,
            r.parallelism(),
            r.lock_wait_ns,
            r.lock_held_ns,
            r.eval_ns
        )
    };
    out.push_str(&format!(
        "  \"explain\": {{\n    \"domain\": \"{}\", \"accounting\": \"exact\",\n",
        explain.cold.domain
    ));
    out.push_str(&format!(
        "    \"cold\": {},\n    \"warm\": {}\n  }},\n",
        report_json(&explain.cold),
        report_json(&explain.warm)
    ));
    out.push_str(&format!(
        "  \"micro\": {{\"initial_daig_ns\": {:.0}, \"cold_exit_query_ns\": {:.0}, \"edit_requery_ns\": {:.0}, \"unrolls\": {}, \"cone_walks\": {}}}\n",
        micro.initial_daig_ns,
        micro.cold_exit_query_ns,
        micro.edit_requery_ns,
        micro.unrolls,
        micro.cone_walks
    ));
    out.push_str("}\n");
    out
}

/// Fields the CI check requires in a committed `BENCH_daig.json`, paired
/// with the smoke-point extractor. Returns the committed smoke median.
///
/// # Errors
///
/// A human-readable description of the first missing field.
pub fn validate_artifact(json: &str) -> Result<f64, String> {
    for field in [
        "\"bench\"",
        "\"workload\"",
        "\"before\"",
        "\"after\"",
        "\"smoke\"",
        "\"qps_median\"",
        "\"speedup_vs_pr1_file\"",
        "\"explain\"",
        "\"work_span_parallelism\"",
        "\"micro\"",
        "\"cone_walks\"",
    ] {
        if !json.contains(field) {
            return Err(format!("BENCH_daig.json is missing field {field}"));
        }
    }
    // Extract the smoke median: the `"qps_median"` inside the "smoke"
    // object (the artifact is written by `to_json`, so plain scanning is
    // reliable).
    let smoke_at = json
        .find("\"smoke\"")
        .ok_or_else(|| "missing smoke section".to_string())?;
    let tail = &json[smoke_at..];
    let key = "\"qps_median\": ";
    let at = tail
        .find(key)
        .ok_or_else(|| "smoke section lacks qps_median".to_string())?;
    let rest = &tail[at + key.len()..];
    let end = rest
        .find([',', '}'])
        .ok_or_else(|| "malformed smoke qps_median".to_string())?;
    rest[..end]
        .trim()
        .parse::<f64>()
        .map_err(|e| format!("smoke qps_median is not a number: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_profile_measures_and_serializes() {
        let params = DaigBenchParams {
            sessions: 1,
            grow_edits: 2,
            seed: 7,
            repeats: 2,
        };
        let t = measure_throughput(&params);
        assert_eq!(t.runs.len(), 2);
        assert!(t.median() > 0.0);
        assert!(t.best() >= t.median());
        let micro = measure_micro();
        assert!(micro.initial_daig_ns > 0.0);
        assert!(micro.unrolls >= 2, "loopy function must unroll");
        assert_eq!(micro.cone_walks, 1, "cone traversed once despite unrolls");
        // Explain: accounting identity is checked inside measure_explain;
        // here the structural shape of the two captures.
        let explain = measure_explain();
        assert!(!explain.cold.cells.is_empty(), "cold cone has cells");
        assert!(explain.cold.parallelism() >= 1.0, "span never exceeds work");
        assert!(
            explain.cold.outcome_cells(CellOutcome::Computed) > 0,
            "a cold sweep computes"
        );
        assert_eq!(
            explain.warm.outcome_cells(CellOutcome::Computed),
            0,
            "a warm re-sweep recomputes nothing"
        );
        let json = to_json(
            "smoke",
            &params,
            &t,
            &t,
            &micro,
            &explain,
            55697.9,
            Some(45991.0),
        );
        let committed_median = validate_artifact(&json).expect("artifact validates");
        // The artifact rounds to one decimal place.
        assert!((committed_median - t.median()).abs() <= 0.05 + 1e-9);
    }

    #[test]
    fn validate_rejects_missing_fields() {
        assert!(validate_artifact("{}").is_err());
        assert!(validate_artifact("{\"bench\": 1}").is_err());
    }
}
