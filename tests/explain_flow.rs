//! The cost-attribution acceptance gate: an explain capture must be
//! **accounting-honest** — every number in an [`ExplainReport`] must
//! agree with the engine's own counters and with the report's internal
//! structure — across the capture lifecycle:
//!
//! * a cold sweep attributes the whole union cone (accounting identity
//!   against the `QueryStats` delta, work = sum of the parts, span ≤
//!   work);
//! * a warm re-sweep attributes pure reuse (zero work, zero span);
//! * after an edit, the attribution splits: the edited function's cone
//!   recomputes, untouched functions stay reused, and the identity
//!   still holds;
//! * captures fold into `EngineStats::explain` and the metrics registry;
//! * an interprocedural engine refuses attribution with a structured
//!   error instead of a wrong report;
//! * a live report survives the binary `EXPL` frame byte-identically,
//!   and every truncation or byte flip of that frame is rejected.

use dai_core::driver::ProgramEdit;
use dai_core::explain::{CellOutcome, ExplainReport};
use dai_core::interproc::ContextPolicy;
use dai_domains::OctagonDomain;
use dai_engine::{Engine, EngineConfig, Request, ResolverChoice, SessionId};
use dai_lang::{Loc, Symbol};

/// Three functions — two with loops (so fix cells appear), one
/// straight-line — so a whole-program sweep mixes outcomes.
const PROGRAM: &str = "\
    function f(n) { var i = 0; var s = 0; \
        while (i < 9) { s = s + i; i = i + 1; } return s; } \
    function g(n) { var j = 0; var t = 1; \
        while (j < 4) { t = t + t; j = j + 1; } return t; } \
    function h(n) { var x = 2; var y = x + 3; return y; }";

fn sweep_targets(engine: &Engine<OctagonDomain>, session: SessionId) -> Vec<(String, Loc)> {
    let program = engine.program_of(session).unwrap();
    let mut targets: Vec<(String, Loc)> = Vec::new();
    for cfg in program.cfgs() {
        for loc in cfg.locs() {
            targets.push((cfg.name().to_string(), loc));
        }
    }
    targets.sort();
    targets
}

/// The keys of a flat one-line JSON object, in order: every quoted
/// token directly followed by a colon.
fn json_keys(json: &str) -> Vec<&str> {
    let parts: Vec<&str> = json.split('"').collect();
    parts
        .windows(2)
        .filter(|w| w[1].starts_with(':'))
        .map(|w| w[0])
        .collect()
}

/// Captures one explain sweep and checks the accounting identity
/// against the engine's counter delta before handing the report back.
fn capture(
    engine: &Engine<OctagonDomain>,
    session: SessionId,
    targets: &[(String, Loc)],
) -> ExplainReport {
    let before = engine.stats().query_stats;
    let report = engine.explain_sweep(session, targets).unwrap();
    let delta = engine.stats().query_stats.delta(&before);
    report.check_accounting(&delta).unwrap();
    report
}

/// The report's internal structure: outcomes partition the cells, work
/// is exactly the sum of the attributed parts, the span is a path
/// through that work, and finish times are consistent with walls.
fn assert_internally_consistent(report: &ExplainReport) {
    let by_outcome = report.outcome_cells(CellOutcome::Computed)
        + report.outcome_cells(CellOutcome::MemoMatched)
        + report.outcome_cells(CellOutcome::Reused);
    assert_eq!(by_outcome, report.cells.len() as u64);
    let cell_work: u64 = report.cells.iter().map(|c| c.wall_ns).sum();
    assert_eq!(report.work_ns, cell_work + report.fix_ns());
    assert!(report.span_ns <= report.work_ns, "span exceeds work");
    assert!(report.parallelism() >= 1.0);
    for cell in &report.cells {
        assert!(
            cell.finish_ns >= cell.wall_ns,
            "finish before own wall for {:?}",
            cell.cell
        );
    }
}

#[test]
fn cold_sweep_attributes_the_whole_cone_exactly() {
    let engine: Engine<OctagonDomain> = Engine::new(2);
    let session = engine.open_session_src("cold", PROGRAM).unwrap();
    let targets = sweep_targets(&engine, session);

    let report = capture(&engine, session, &targets);
    assert_internally_consistent(&report);
    assert_eq!(report.domain, "octagon");
    // Schema lock: the report's JSON keys, report level then per cell.
    assert_eq!(
        json_keys(&report.to_json(0)),
        [
            "domain",
            "cells",
            "computed",
            "memo_matched",
            "reused",
            "fixes",
            "converged_fixes",
            "unrolls",
            "work_ns",
            "span_ns",
            "parallelism",
            "lock_wait_ns",
            "lock_held_ns",
            "eval_ns",
            "computed_ns",
            "memo_matched_ns",
            "fix_ns",
            "hottest",
        ]
    );
    let one_hot = report.to_json(1);
    let cell_json = &one_hot[one_hot.find("\"hottest\"").unwrap()..];
    assert_eq!(
        json_keys(cell_json),
        ["hottest", "cell", "outcome", "wall_ns", "finish_ns"]
    );
    assert!(
        report.outcome_cells(CellOutcome::Computed) > 0,
        "a cold sweep computes"
    );
    assert!(!report.fixes.is_empty(), "two loops must leave fix records");
    assert!(report.unrolls() > 0, "the loops unroll under octagon");
    assert!(report.converged_fixes() > 0, "the loops converge");

    // Hottest cells are the computed work, sorted hot-first.
    let hottest = report.hottest(5);
    assert!(!hottest.is_empty());
    for pair in hottest.windows(2) {
        assert!(pair[0].wall_ns >= pair[1].wall_ns);
    }
}

#[test]
fn warm_resweep_attributes_pure_reuse() {
    let engine: Engine<OctagonDomain> = Engine::new(1);
    let session = engine.open_session_src("warm", PROGRAM).unwrap();
    let targets = sweep_targets(&engine, session);

    capture(&engine, session, &targets);
    let warm = capture(&engine, session, &targets);
    assert_internally_consistent(&warm);
    assert_eq!(
        warm.outcome_cells(CellOutcome::Computed),
        0,
        "a warm re-sweep recomputes nothing"
    );
    assert_eq!(
        warm.outcome_cells(CellOutcome::Reused),
        warm.cells.len() as u64,
        "every warm cell is a reuse"
    );
    assert!(warm.fixes.is_empty(), "no fix iterates on a warm sweep");
    assert_eq!(warm.work_ns, 0, "reuse is free by construction");
    assert_eq!(warm.span_ns, 0);
}

#[test]
fn edit_invalidation_splits_the_attribution() {
    let engine: Engine<OctagonDomain> = Engine::new(1);
    let session = engine.open_session_src("edit", PROGRAM).unwrap();
    let targets = sweep_targets(&engine, session);
    capture(&engine, session, &targets);

    // Touch one statement of `f`; `g` and `h` keep their values.
    let program = engine.program_of(session).unwrap();
    let edge = program
        .by_name("f")
        .unwrap()
        .edges()
        .find(|e| e.stmt.to_string() == "s = (s + i)")
        .expect("edit target exists")
        .id;
    drop(program);
    engine
        .request(Request::Edit {
            session,
            edit: ProgramEdit::Relabel {
                func: Symbol::new("f"),
                edge,
                stmt: dai_lang::Stmt::Assign(
                    "s".into(),
                    dai_lang::parse_expr("s + i + 1").unwrap(),
                ),
            },
        })
        .unwrap();

    let report = capture(&engine, session, &targets);
    assert_internally_consistent(&report);
    assert!(
        report.outcome_cells(CellOutcome::Computed) > 0,
        "the edited cone recomputes"
    );
    assert!(
        report.outcome_cells(CellOutcome::Reused) > 0,
        "untouched functions stay reused"
    );
}

#[test]
fn captures_fold_into_engine_stats_and_metrics() {
    let engine: Engine<OctagonDomain> = Engine::new(1);
    let session = engine.open_session_src("totals", PROGRAM).unwrap();
    let targets = sweep_targets(&engine, session);

    let first = capture(&engine, session, &targets);
    let second = capture(&engine, session, &targets);

    let stats = engine.stats();
    assert_eq!(stats.explain.reports, 2);
    assert_eq!(
        stats.explain.cells,
        (first.cells.len() + second.cells.len()) as u64
    );
    assert_eq!(
        stats.explain.fixes,
        (first.fixes.len() + second.fixes.len()) as u64
    );
    assert_eq!(stats.explain.work_ns, first.work_ns + second.work_ns);
    assert_eq!(stats.explain.domains, vec![("octagon".to_string(), 2)]);
    assert_eq!(
        engine.last_explain().as_ref(),
        Some(&second),
        "last_explain tracks the most recent capture"
    );

    stats.publish_metrics();
    let text = dai_trace::metrics().render_prometheus();
    assert!(
        text.contains("dai_explain_reports 2"),
        "missing gauge:\n{text}"
    );
    assert!(
        text.contains("dai_explain_eval_seconds_octagon"),
        "missing per-domain latency histogram:\n{text}"
    );
}

#[test]
fn interprocedural_engines_refuse_attribution() {
    let engine: Engine<OctagonDomain> = Engine::with_config(EngineConfig {
        workers: 1,
        resolver: ResolverChoice::Interproc {
            policy: ContextPolicy::CallString(1),
        },
        ..EngineConfig::default()
    });
    let session = engine.open_session_src("inter", PROGRAM).unwrap();
    let targets = sweep_targets(&engine, session);
    let err = engine.explain_sweep(session, &targets).unwrap_err();
    assert!(
        err.to_string().contains("intraprocedural"),
        "unexpected error: {err}"
    );
    // The refusal is structured: the session still answers queries.
    let program = engine.program_of(session).unwrap();
    let exit = program.by_name("h").unwrap().exit();
    engine.query(session, "h", exit).unwrap();
}

#[test]
fn live_report_survives_the_expl_frame_and_rejects_damage() {
    let engine: Engine<OctagonDomain> = Engine::new(1);
    let session = engine.open_session_src("frame", PROGRAM).unwrap();
    let targets = sweep_targets(&engine, session);
    let report = capture(&engine, session, &targets);

    let frame = dai_persist::encode_explain_frame(&report);
    assert_eq!(
        dai_persist::decode_explain_frame(&frame).expect("live report decodes"),
        report
    );

    // Every truncation prefix is rejected, never misread.
    for len in 0..frame.len() {
        assert!(
            dai_persist::decode_explain_frame(&frame[..len]).is_err(),
            "truncation to {len} bytes decoded"
        );
    }
    // Every single-byte flip is rejected: the checksum covers the
    // payload, and the header fields are validated individually.
    for at in 0..frame.len() {
        let mut bad = frame.clone();
        bad[at] ^= 0xff;
        assert!(
            dai_persist::decode_explain_frame(&bad).is_err(),
            "byte flip at {at} decoded"
        );
    }
}
