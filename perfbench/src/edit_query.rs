//! `edit_query`: the paper's interactive loop (§7.3) on an in-process
//! `Engine<OctagonDomain>` with one session and the default `Intra`
//! resolver. Each trial grows a program from the skeleton by
//! [`EDITS`] random edits (85/10/5 statement/if/while inserts), with
//! five random-location queries after every edit and a checked
//! whole-program sweep every [`CHECKPOINT`] edits. Each trial runs on
//! a fresh engine and its own derived seed.

use dai_bench::workload::Workload;
use dai_engine::Service;

use crate::common::{
    matches_oracle, op_id, restart_probe, sub_seed, targets, History, Op, Rec, Recs, Settings, Via,
};

/// Edits per trial.
pub const EDITS: usize = 200;
/// Queries after each edit (the paper's five).
pub const QUERIES_PER_EDIT: usize = 5;
/// Edits between checked sweeps.
pub const CHECKPOINT: usize = 10;

/// One set-up: engine start, skeleton session, warm sweep.
pub fn setup(s: &Settings, rec: &mut Rec) {
    let engine = s.engine();
    let source = Workload::initial_source();
    if let Some(session) = rec.call(
        Op::Scaffold,
        Via::Engine,
        |_| 0,
        || engine.open("setup", &source),
    ) {
        if let Ok(program) = engine.program_of(session) {
            let t = targets(&program);
            rec.call(
                Op::Scaffold,
                Via::Engine,
                |_| 0,
                || {
                    Service::query_sweep(&engine, session, &t)
                        .into_iter()
                        .collect::<Result<Vec<_>, _>>()
                },
            );
        }
    }
}

/// Set-ups per round (set-up is cheap, so it repeats for a steady
/// median).
pub const SETUPS_PER_ROUND: usize = 7;
/// Trials per round: 1200 edits, 6000 queries and 120 sweeps, so each
/// round's tails (one per block, see `common::BLOCK`) are p95, p95 and
/// p90.
pub const ROUND_TRIALS: u64 = 6;

/// Round `round`: set-ups, then [`ROUND_TRIALS`] trials, then the
/// restart probe on the last trial's edit history.
pub fn round(s: &Settings, recs: &mut Recs, round: u64) {
    for _ in 0..SETUPS_PER_ROUND {
        recs.setup(|r| setup(s, r));
    }
    let history = recs.window(|r| {
        let mut last = History::default();
        for t in 0..ROUND_TRIALS {
            last = trial(s, r, sub_seed(s.seed, round * ROUND_TRIALS + t));
        }
        last
    });
    restart_probe(s, &mut recs.probe, &history);
}

fn trial(s: &Settings, rec: &mut Rec, seed: u64) -> History {
    let engine = rec
        .call(Op::Scaffold, Via::Engine, |_| 0, || Ok(s.engine()))
        .expect("engine start is infallible");
    let source = Workload::initial_source();
    let mut history = History {
        source: source.clone(),
        edits: Vec::with_capacity(EDITS),
    };
    let Some(session) = rec.call(
        Op::Scaffold,
        Via::Engine,
        |_| 0,
        || engine.open("edit_query", &source),
    ) else {
        return history;
    };
    let before = engine.stats();
    let mut gen = Workload::new(seed);
    for step in 1..=EDITS {
        let Some(program) = rec.gen(|| engine.program_of(session).ok()) else {
            rec.fail("program_of failed".to_string());
            break;
        };
        let edit = rec.gen(|| gen.next_edit(&program));
        if !rec.edit(Via::Engine, &engine, session, &edit) {
            continue;
        }
        if rec.traced {
            rec.layer.engine_edit_ns.push(rec.last_ns);
        }
        history.edits.push(edit);
        // Freeing a program copy is input-generation work: do it inside
        // the ledger so the window stays accounted for.
        rec.gen(move || drop(program));
        let Some(program) = rec.gen(|| engine.program_of(session).ok()) else {
            break;
        };
        let queries = rec.gen(|| gen.next_queries(&program, QUERIES_PER_EDIT));
        for (func, loc) in queries {
            let id = op_id();
            let answer = rec.call_id(
                id,
                Op::Query,
                Via::Engine,
                |_| 1,
                || engine.query(session, func.as_str(), loc),
            );
            if let Some(answer) = answer {
                rec.codec(id, std::slice::from_ref(&answer));
            }
        }
        rec.collect_spans();
        if step % CHECKPOINT == 0 {
            let t = rec.gen(|| targets(&program));
            rec.explain(&engine, session, &t);
            if let Some(answers) = rec.sweep(Via::Engine, &engine, session, &t) {
                rec.check_with(|| {
                    let verdict = matches_oracle(&program, &t, &answers);
                    drop(answers);
                    verdict
                });
            }
            rec.gen(move || drop(t));
        }
        rec.gen(move || drop(program));
    }
    rec.stats_delta(&before, &engine.stats());
    if let Ok(program) = engine.program_of(session) {
        rec.deltas.note_program(&program);
    }
    rec.call(
        Op::Scaffold,
        Via::Engine,
        |_| 0,
        || Service::close(&engine, session),
    );
    rec.call(
        Op::Scaffold,
        Via::Engine,
        |_| 0,
        || {
            drop(engine);
            Ok(())
        },
    );
    history
}
