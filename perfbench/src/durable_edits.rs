//! `durable_edits`: writes beside the reads of `socket_reads`. The
//! leader engine has a journal attached (`JournalConfig` default,
//! `Durability::Fast`) and is served on a Unix socket. A `Client`
//! streams the §7.3 edits as `edit` frames, each followed by five
//! `query` frames. After every burst of [`BURST`] edits a `Replica` on
//! a second in-process engine catches up and answers the burst's last
//! queries, which must equal the leader's. Every [`CHECKPOINT`] edits
//! the leader and follower sweep the whole program and must agree on
//! answers and DOT bytes, and a fresh engine recovers from a copy of
//! the journal (`open_journal` plus one sweep) and must agree too.
//! Each trial of [`EDITS`] edits runs on a fresh leader, journal and
//! follower.

use dai_bench::workload::Workload;
use dai_engine::{Service, SessionId};
use dai_rpc::Client;

use crate::common::{op_id, sub_seed, targets, Durable, Op, Rec, Recs, Settings, Via, BURST, D};

/// Edits per trial.
pub const EDITS: usize = 150;
/// Edits between checked sweeps and recoveries (a multiple of
/// [`BURST`]).
pub const CHECKPOINT: usize = 10;
/// Queries after each edit.
pub const QUERIES_PER_EDIT: usize = 5;

/// The follower's id for the leader's first session: a fresh engine
/// numbers replayed sessions from 1.
const FOLLOWER_SESSION: SessionId = SessionId(1);

/// One set-up: leader with a fresh journal, its server, the follower,
/// and the workload's client connection.
pub fn setup(s: &Settings, rec: &mut Rec) {
    if let Some(d) = rec.call(Op::Scaffold, Via::Rpc, |_| 0, || Durable::start(s, "setup")) {
        rec.call(
            Op::Scaffold,
            Via::Rpc,
            |_| 0,
            || Client::<D>::connect_addr(d.server.addr()),
        );
        d.stop();
    }
}

/// Set-ups per round (set-up is cheap, so it repeats for a steady
/// median).
pub const SETUPS_PER_ROUND: usize = 7;
/// Trials per round: 600 edits, 3000 queries and 60 sweeps, so each
/// round's tails (one per block, see `common::BLOCK`) are p95, p95 and
/// p75.
pub const ROUND_TRIALS: u64 = 4;

/// Round `round`: set-ups, then [`ROUND_TRIALS`] trials.
pub fn round(s: &Settings, recs: &mut Recs, round: u64) {
    for _ in 0..SETUPS_PER_ROUND {
        recs.setup(|r| setup(s, r));
    }
    recs.window(|r| {
        for t in 0..ROUND_TRIALS {
            trial(s, r, sub_seed(s.seed, round * ROUND_TRIALS + t));
        }
    });
}

fn trial(s: &Settings, rec: &mut Rec, seed: u64) {
    let Some(d) = rec.call(
        Op::Scaffold,
        Via::Rpc,
        |_| 0,
        || Durable::start(s, "durable"),
    ) else {
        return;
    };
    if let Some(client) = rec.call(
        Op::Scaffold,
        Via::Rpc,
        |_| 0,
        || Client::<D>::connect_addr(d.server.addr()),
    ) {
        stream(s, rec, &d, &client, seed);
        rec.call(
            Op::Scaffold,
            Via::Rpc,
            |_| 0,
            || {
                drop(client);
                Ok(())
            },
        );
    }
    rec.call(
        Op::Scaffold,
        Via::Rpc,
        |_| 0,
        || {
            d.stop();
            Ok(())
        },
    );
}

fn stream(s: &Settings, rec: &mut Rec, d: &Durable, client: &Client<D>, seed: u64) {
    let leader = d.leader.as_ref();
    let follower = d.replica.engine().as_ref();
    let source = Workload::initial_source();
    let Some(session) = rec.call(
        Op::Scaffold,
        Via::Rpc,
        |_| 0,
        || client.open("durable", &source),
    ) else {
        return;
    };
    // Traced run: a shadow engine mirrors the edits for `engine.edit_ms`.
    let shadow = rec.traced.then(|| {
        rec.extra(|_| {
            let e = s.engine();
            let id = e.open("shadow", &source).expect("the skeleton parses");
            (e, id)
        })
    });
    let before = leader.stats();
    let follower_before = follower.stats();
    let bytes0 = d.journal_bytes();
    let mut gen = Workload::new(seed);
    for step in 1..=EDITS {
        let Some(program) = rec.gen(|| leader.program_of(session).ok()) else {
            rec.fail("program_of failed".to_string());
            return;
        };
        let edit = rec.gen(|| gen.next_edit(&program));
        rec.gen(move || drop(program));
        let id = op_id();
        if rec
            .call_id(
                id,
                Op::Edit,
                Via::Rpc,
                |_| 0,
                || client.edit(session, &edit),
            )
            .is_none()
        {
            continue;
        }
        if let Some((shadow, shadow_session)) = &shadow {
            rec.replay_edit(id, shadow, *shadow_session, &edit);
        }
        let Some(program) = rec.gen(|| leader.program_of(session).ok()) else {
            return;
        };
        let queries = rec.gen(|| gen.next_queries(&program, QUERIES_PER_EDIT));
        let mut answered = Vec::new();
        for (func, loc) in queries {
            let id = op_id();
            let got = rec.call_id(
                id,
                Op::Query,
                Via::Rpc,
                |_| 1,
                || client.query(session, func.as_str(), loc),
            );
            if let Some(got) = got {
                rec.replay_query(id, leader, session, func.as_str(), loc, &got);
                answered.push((func.to_string(), loc, got));
            }
        }
        rec.collect_spans();
        if step % BURST == 0 && d.catch_up(rec) {
            for (func, loc, want) in &answered {
                if let Some(got) = rec.call(
                    Op::Scaffold,
                    Via::Engine,
                    |_| 0,
                    || follower.query(FOLLOWER_SESSION, func, *loc),
                ) {
                    rec.check(
                        || format!("follower {func}:{loc} != leader"),
                        || &got == want,
                    );
                }
            }
        }
        if step % CHECKPOINT == 0 {
            checkpoint(s, rec, d, client, session, &program);
        }
        rec.gen(move || drop((program, answered)));
    }
    rec.stats_delta(&before, &leader.stats());
    rec.stats_delta(&follower_before, &follower.stats());
    let after = leader.stats();
    rec.deltas.journal_frames +=
        after.replication.journal_frames - before.replication.journal_frames;
    rec.deltas.journal_edits += after.edits - before.edits;
    rec.deltas.journal_bytes += d.journal_bytes() - bytes0;
    if let Ok(p) = leader.program_of(session) {
        rec.deltas.note_program(&p);
    }
    if let Some(shadow) = shadow {
        rec.extra(move |_| drop(shadow));
    }
}

/// Leader and caught-up follower sweep and compare answers and DOT
/// bytes; then a fresh engine recovers from the journal and compares.
fn checkpoint(
    s: &Settings,
    rec: &mut Rec,
    d: &Durable,
    client: &Client<D>,
    session: SessionId,
    program: &dai_lang::cfg::LoweredProgram,
) {
    let follower = d.replica.engine().as_ref();
    let t = rec.gen(|| targets(program));
    let id = op_id();
    let Some(want) = rec.call_id(
        id,
        Op::Sweep,
        Via::Rpc,
        |v: &Vec<D>| v.len() as u64,
        || {
            Service::query_sweep(client, session, &t)
                .into_iter()
                .collect()
        },
    ) else {
        return;
    };
    rec.replay_sweep(id, d.leader.as_ref(), session, &t, &want);
    // The follower caught up after this step's burst (CHECKPOINT is a
    // multiple of BURST), and sweeps append no journal frames.
    rec.explain(follower, FOLLOWER_SESSION, &t);
    let got: Option<Vec<D>> = rec.call(
        Op::Scaffold,
        Via::Engine,
        |_| 0,
        || {
            Service::query_sweep(follower, FOLLOWER_SESSION, &t)
                .into_iter()
                .collect()
        },
    );
    if let Some(got) = got {
        rec.check(
            || "caught-up follower sweep != leader".to_string(),
            || got == want,
        );
    }
    let dots = (
        rec.call(Op::Scaffold, Via::Rpc, |_| 0, || client.snapshot(session)),
        rec.call(
            Op::Scaffold,
            Via::Engine,
            |_| 0,
            || Service::snapshot(follower, FOLLOWER_SESSION),
        ),
    );
    if let (Some(lead), Some(follow)) = dots {
        rec.check(
            || "caught-up follower DOT != leader".to_string(),
            || lead.functions == follow.functions,
        );
    }
    d.recover(s, rec, FOLLOWER_SESSION, &t, &want);
}
