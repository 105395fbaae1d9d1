//! `socket_reads`: a `dai_rpc::Server` on a Unix socket with one
//! session per connection. Set-up grows each session with §7.3 edits
//! sent as `edit` frames from the connection's own seed until it has
//! [`GROW_LOCS`] locations, then warms it with one sweep. In the
//! window each connection runs a seeded
//! closed-loop read mix: single-location `query` frames (hover),
//! `pipeline_queries` over one function's locations, and whole-program
//! `query_sweep` frames. Every answer is a reuse, so the time goes to
//! framing, the event loop, coalescing, the wire codec and session
//! locks.

use std::collections::HashMap;
use std::sync::Arc;

use dai_bench::workload::Workload;
use dai_engine::{Engine, Service, SessionId};
use dai_lang::Loc;
use dai_rpc::{Client, Server};

use crate::common::{
    op_id, restart_probe, sub_seed, targets, History, Op, Rec, Recs, Settings, Targets, Via, D,
};

/// Set-up grows each connection's session until it has this many
/// locations, so every seed serves programs of one size. The size is
/// an assumption, not taken from observed use: a little below the
/// ~270 locations `edit_query`'s 200-edit trials end with (its
/// `lang.program_locs`). Sweep and pipeline latencies and
/// `answers_per_s` on this workload grow with it.
pub const GROW_LOCS: usize = 250;
/// Most edits set-up spends growing one session.
const MAX_GROW: usize = 1000;
/// Read operations per round: about 3500 hovers and 250 sweeps, so
/// each round's tails (one per block, see `common::BLOCK`) are p95.
pub const ROUND_OPS: u64 = 5000;

/// Round `round`: a set-up growing its own sessions, [`ROUND_OPS`]
/// reads on them, then the restart probe on one session's history.
pub fn round(s: &Settings, recs: &mut Recs, round: u64) {
    let Some(setup) = recs.setup(|r| setup(s, r, round)) else {
        recs.setup.fail("socket_reads set-up failed".to_string());
        return;
    };
    recs.window(|r| window(s, r, &setup, round));
    let history = setup.conns[round as usize % setup.conns.len()]
        .history
        .clone();
    // Close the readers first, so no more than `clients` connections
    // are ever open at once.
    setup.stop();
    restart_probe(s, &mut recs.probe, &history);
}

/// Read mix: share of hover queries, then of pipelined batches (the
/// rest are sweeps). The shares are assumptions, not taken from any
/// record of editor traffic: mostly hovers, a per-function batch now
/// and then, a rare whole-program sweep. They decide `ops_per_s` and
/// `answers_per_s` on this workload (batches and sweeps carry most of
/// the answers) and how its time splits between framing and
/// coalescing; the per-kind latencies do not depend on them.
pub const HOVER: f64 = 0.70;
/// Share of pipelined per-function batches.
pub const PIPELINE: f64 = 0.25;

/// One connection and the session it owns.
pub struct Conn {
    client: Client<D>,
    session: SessionId,
    targets: Targets,
    funcs: Vec<(String, Vec<Loc>)>,
    truth: HashMap<(String, Loc), D>,
    history: History,
}

/// A served engine with its grown, warmed connections.
pub struct Setup {
    engine: Arc<Engine<D>>,
    server: Server<D>,
    conns: Vec<Conn>,
}

impl Setup {
    /// Closes the connections and stops the server.
    pub fn stop(self) {
        drop(self.conns);
        self.server.shutdown();
        drop(self.engine);
    }
}

/// Starts the engine and server, and grows and warms one session per
/// connection, from seeds of its own for each round.
pub fn setup(s: &Settings, rec: &mut Rec, round: u64) -> Option<Setup> {
    let engine = Arc::new(s.engine());
    let server = rec.call(
        Op::Scaffold,
        Via::Rpc,
        |_| 0,
        || {
            Server::bind(&s.socket("reads"), Arc::clone(&engine)).map_err(|e| {
                dai_engine::EngineError::Remote {
                    code: "transport",
                    message: e.to_string(),
                }
            })
        },
    )?;
    let source = Workload::initial_source();
    let mut conns = Vec::new();
    for c in 0..s.clients {
        let client = rec.call(
            Op::Scaffold,
            Via::Rpc,
            |_| 0,
            || Client::connect_addr(server.addr()),
        )?;
        let session = rec.call(
            Op::Scaffold,
            Via::Rpc,
            |_| 0,
            || client.open(&format!("reader-{c}"), &source),
        )?;
        let mut gen = Workload::new(sub_seed(s.seed, 1000 + round * s.clients as u64 + c as u64));
        let mut history = History {
            source: source.clone(),
            edits: Vec::new(),
        };
        for _ in 0..MAX_GROW {
            let program = engine.program_of(session).ok()?;
            if program.cfgs().iter().map(|c| c.locs().len()).sum::<usize>() >= GROW_LOCS {
                break;
            }
            let edit = gen.next_edit(&program);
            if rec.edit(Via::Rpc, &client, session, &edit) {
                history.edits.push(edit);
            }
        }
        let program = engine.program_of(session).ok()?;
        let t = targets(&program);
        rec.explain(&engine, session, &t);
        let answers: Vec<D> = rec.call(
            Op::Scaffold,
            Via::Rpc,
            |_| 0,
            || {
                Service::query_sweep(&client, session, &t)
                    .into_iter()
                    .collect()
            },
        )?;
        let local: Vec<D> = rec.call(
            Op::Scaffold,
            Via::Engine,
            |_| 0,
            || {
                Service::query_sweep(engine.as_ref(), session, &t)
                    .into_iter()
                    .collect()
            },
        )?;
        rec.check(
            || format!("warm sweep of reader-{c}: socket != in-process"),
            || answers == local,
        );
        let truth = t.iter().cloned().zip(local).collect();
        let mut funcs: Vec<(String, Vec<Loc>)> = Vec::new();
        for (f, l) in &t {
            match funcs.last_mut() {
                Some((g, locs)) if g == f => locs.push(*l),
                _ => funcs.push((f.clone(), vec![*l])),
            }
        }
        conns.push(Conn {
            client,
            session,
            targets: t,
            funcs,
            truth,
            history,
        });
    }
    Some(Setup {
        engine,
        server,
        conns,
    })
}

/// A small deterministic generator for the read mix.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = sub_seed(self.0, 0x5EED);
        self.0
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Runs [`ROUND_OPS`] reads from one client thread, taking the
/// connections in turn (a closed loop: each call waits for its reply).
fn window(s: &Settings, rec: &mut Rec, setup: &Setup, round: u64) {
    let before = setup.engine.stats();
    let n = setup.conns.len() as u64;
    let mut mixes: Vec<Mix> = (0..n)
        .map(|c| Mix(sub_seed(s.seed, 2000 + round * n + c)))
        .collect();
    for done in 1..=ROUND_OPS {
        let c = done as usize % setup.conns.len();
        read(rec, &setup.engine, &setup.conns[c], &mut mixes[c]);
        if done % 64 == 0 {
            rec.collect_spans();
        }
    }
    rec.stats_delta(&before, &setup.engine.stats());
    for conn in &setup.conns {
        if let Ok(p) = setup.engine.program_of(conn.session) {
            rec.deltas.note_program(&p);
        }
    }
}

/// One read of the mix on `conn`.
fn read(r: &mut Rec, engine: &Engine<D>, conn: &Conn, mix: &mut Mix) {
    let roll = r.gen(|| mix.unit());
    let id = op_id();
    if roll < HOVER {
        let (func, loc) = r.gen(|| conn.targets[mix.below(conn.targets.len())].clone());
        let got = r.call_id(
            id,
            Op::Query,
            Via::Rpc,
            |_| 1,
            || conn.client.query(conn.session, &func, loc),
        );
        if let Some(got) = got {
            r.check(
                || format!("hover {func}:{loc}: socket != in-process"),
                || conn.truth.get(&(func.clone(), loc)) == Some(&got),
            );
            r.replay_query(id, engine, conn.session, &func, loc, &got);
        }
    } else if roll < HOVER + PIPELINE {
        let (func, locs) = r.gen(|| &conn.funcs[mix.below(conn.funcs.len())]);
        let got = r.call_id(
            id,
            Op::Pipeline,
            Via::Rpc,
            |v: &Vec<D>| v.len() as u64,
            || {
                conn.client
                    .pipeline_queries(conn.session, func, locs)
                    .into_iter()
                    .collect()
            },
        );
        if let Some(got) = got {
            r.check(
                || format!("pipeline over {func}: socket != in-process"),
                || {
                    locs.iter()
                        .zip(&got)
                        .all(|(l, a)| conn.truth.get(&(func.clone(), *l)) == Some(a))
                },
            );
            r.codec(id, &got);
        }
    } else {
        let got = r.call_id(
            id,
            Op::Sweep,
            Via::Rpc,
            |v: &Vec<D>| v.len() as u64,
            || {
                Service::query_sweep(&conn.client, conn.session, &conn.targets)
                    .into_iter()
                    .collect()
            },
        );
        if let Some(got) = got {
            r.check(
                || "sweep: socket != in-process".to_string(),
                || {
                    conn.targets
                        .iter()
                        .zip(&got)
                        .all(|(t, a)| conn.truth.get(t) == Some(a))
                },
            );
            r.replay_sweep(id, engine, conn.session, &conn.targets, &got);
        }
    }
}
