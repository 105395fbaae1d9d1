//! Shared machinery of the three workloads: timed calls with their
//! trace spans, the wall-window ledger, answer checks, per-round
//! records, and the restart probe (journal, follower catch-up and
//! recovery) that rounds of the workloads without a journal end with.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dai_core::batch::batch_analyze;
use dai_core::driver::ProgramEdit;
use dai_core::explain::ExplainReport;
use dai_core::query::IntraResolver;
use dai_domains::{AbstractDomain, OctagonDomain};
use dai_engine::{
    Engine, EngineConfig, EngineError, EngineStats, JournalConfig, Service, SessionId,
};
use dai_lang::cfg::LoweredProgram;
use dai_lang::Loc;
use dai_persist::{Persist, Reader, Writer};
use dai_rpc::{Addr, Client, Replica, Server, DEFAULT_PULL_BATCH};
use dai_trace::Site;

use crate::stats::{summarize, Calls, Summary};

/// CPU time of this whole process (every thread), ns.
///
/// Tails and rates are measured on this clock rather than the wall
/// clock: the benchmark is a closed loop with one call outstanding, so
/// the process CPU time a call takes is the work every layer (client,
/// event loop, engine workers) did for it. Time the hypervisor of a
/// shared host stole from the virtual CPUs moved wall-clock tails, and
/// so means and rates, by several times between runs on a 2-vCPU
/// guest; it moves CPU time much less, though not to nothing (rounds
/// under heavy steal are rerun, see `STEAL_OK` in `main`). Medians,
/// which steal moves far less, are wall-clock time, so they also see
/// time a call spends waiting.
pub fn cpu_ns() -> u64 {
    // The `Timespec` below is the 64-bit Linux layout.
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    compile_error!("perfbench reads the process CPU clock through the 64-bit Linux ABI");
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id
    // is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    (ts.sec as u64) * 1_000_000_000 + ts.nsec as u64
}

/// The analysed domain of every workload.
pub type D = OctagonDomain;

/// A `(function, location)` sweep target list.
pub type Targets = Vec<(String, Loc)>;

/// Run-wide settings shared by the workloads.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Workload seed.
    pub seed: u64,
    /// Nominal length of the timed window, seconds; it sizes the work.
    pub seconds: f64,
    /// Engine worker threads per engine.
    pub workers: usize,
    /// Client threads / connections (at most `nproc`).
    pub clients: usize,
    /// Directory inside the checkout for run files (sockets, journals).
    pub run_dir: PathBuf,
}

impl Settings {
    /// A fresh engine with the configured worker count and defaults
    /// otherwise (default `Intra` resolver, `Fast` durability).
    pub fn engine(&self) -> Engine<D> {
        Engine::with_config(EngineConfig {
            workers: self.workers,
            ..EngineConfig::default()
        })
    }

    /// A path in the run directory for `tag`, unique to this process.
    pub fn path(&self, tag: &str) -> PathBuf {
        self.run_dir.join(format!("{tag}-{}", std::process::id()))
    }

    /// A Unix socket address for `tag`. Relative, so the 108-byte
    /// socket path limit holds however deep the checkout sits.
    pub fn socket(&self, tag: &str) -> Addr {
        Addr::Unix(
            self.path(&format!("{tag}.sock"))
                .to_string_lossy()
                .into_owned(),
        )
    }
}

/// What an operation was, for latency samples and trace labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A single-location query.
    Query,
    /// A program edit.
    Edit,
    /// A whole-program sweep.
    Sweep,
    /// Pipelined single-query frames over one function.
    Pipeline,
    /// Follower catch-up after an edit burst.
    CatchUp,
    /// `open_journal` plus the first answered sweep on a fresh engine.
    Recover,
    /// Session/engine/connection scaffolding (open, close, snapshot,
    /// stats): counted as calls, not as workload operations.
    Scaffold,
}

/// Which crate's public surface a call goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Via {
    /// `dai_engine::Engine`, in process.
    Engine,
    /// `dai_rpc::Client` / `Replica`, over a socket.
    Rpc,
    /// `dai_engine::Engine::open_journal` and the journal file.
    Journal,
}

macro_rules! sites {
    ($($name:ident = $label:expr;)*) => {
        $(static $name: Site = Site::new($label);)*
    };
}

sites! {
    ENGINE_QUERY = "bench.engine.query";
    ENGINE_EDIT = "bench.engine.edit";
    ENGINE_SWEEP = "bench.engine.sweep";
    ENGINE_SCAFFOLD = "bench.engine.scaffold";
    RPC_QUERY = "bench.rpc.query";
    RPC_EDIT = "bench.rpc.edit";
    RPC_SWEEP = "bench.rpc.sweep";
    RPC_PIPELINE = "bench.rpc.pipeline";
    RPC_CATCH_UP = "bench.rpc.catch_up";
    RPC_SCAFFOLD = "bench.rpc.scaffold";
    JOURNAL_RECOVER = "bench.journal.recover";
    OTHER = "bench.other";
    REPLAY = "bench.replay.engine";
    CODEC = "bench.codec.persist";
    EXPLAIN = "bench.explain.engine";
    GEN = "bench.gen";
    CHECK = "bench.check";
}

fn site(op: Op, via: Via) -> &'static Site {
    match (via, op) {
        (Via::Engine, Op::Query) => &ENGINE_QUERY,
        (Via::Engine, Op::Edit) => &ENGINE_EDIT,
        (Via::Engine, Op::Sweep) => &ENGINE_SWEEP,
        (Via::Engine, Op::Scaffold) => &ENGINE_SCAFFOLD,
        (Via::Rpc, Op::Query) => &RPC_QUERY,
        (Via::Rpc, Op::Edit) => &RPC_EDIT,
        (Via::Rpc, Op::Sweep) => &RPC_SWEEP,
        (Via::Rpc, Op::Pipeline) => &RPC_PIPELINE,
        (Via::Rpc, Op::CatchUp) => &RPC_CATCH_UP,
        (Via::Rpc, Op::Scaffold) => &RPC_SCAFFOLD,
        (Via::Journal, Op::Recover) => &JOURNAL_RECOVER,
        _ => &OTHER,
    }
}

/// Operation ids: every span of one operation carries the same id.
static NEXT_OP: AtomicU64 = AtomicU64::new(1);

/// A fresh operation id.
pub fn op_id() -> u64 {
    NEXT_OP.fetch_add(1, Ordering::Relaxed)
}

/// Samples only the traced run collects.
#[derive(Debug, Clone, Default)]
pub struct LayerSamples {
    /// Socket single-query calls, CPU ns (as all times here but the
    /// codec's, which are monotonic-clock ns; all are scaled by the
    /// host speed index).
    pub rpc_query_ns: Vec<f64>,
    /// In-process replays of socket single queries, ns.
    pub local_query_ns: Vec<f64>,
    /// Socket sweeps, ns.
    pub rpc_sweep_ns: Vec<f64>,
    /// In-process replays of socket sweeps, ns.
    pub local_sweep_ns: Vec<f64>,
    /// `Persist` encode time per answer, ns.
    pub encode_ns: Vec<f64>,
    /// `Persist` decode time per answer, ns.
    pub decode_ns: Vec<f64>,
    /// Encoded answer sizes, bytes.
    pub answer_bytes: Vec<f64>,
    /// `Replica::sync_batch` calls, ns.
    pub sync_batch_ns: Vec<f64>,
    /// Frames applied per `sync_batch` call.
    pub sync_frames: Vec<f64>,
    /// `Engine::open_journal` alone.
    pub journal_open_ns: Vec<f64>,
    /// In-process `Engine` edit calls, ns.
    pub engine_edit_ns: Vec<f64>,
    /// Explain captures (each passed `check_accounting`).
    pub explains: Vec<ExplainReport>,
}

/// Counters read from public stats deltas.
#[derive(Debug, Clone, Default)]
pub struct Deltas {
    /// Queries answered (engine `queries`).
    pub queries: u64,
    /// Session-lock acquisitions.
    pub session_locks: u64,
    /// Coalesced-batch members.
    pub coalesced: u64,
    /// Singleton queries.
    pub singleton: u64,
    /// Cells computed (`Q-Miss`).
    pub computed: u64,
    /// Cells memo-matched (`Q-Match`).
    pub memo_matched: u64,
    /// Cells reused.
    pub reused: u64,
    /// Loop unrollings.
    pub unrolls: u64,
    /// Converged fixed points.
    pub fix_converged: u64,
    /// Demanded-cone walks.
    pub cone_walks: u64,
    /// Cells loaded by cone walks.
    pub cone_cells: u64,
    /// Memo hits.
    pub memo_hits: u64,
    /// Memo misses.
    pub memo_misses: u64,
    /// Memo evictions.
    pub memo_evictions: u64,
    /// Journal frames appended.
    pub journal_frames: u64,
    /// Journal bytes appended.
    pub journal_bytes: u64,
    /// Edits applied on journaled engines.
    pub journal_edits: u64,
    /// Program edges at the end of each window unit.
    pub program_edges: Vec<f64>,
    /// Program locations at the end of each window unit.
    pub program_locs: Vec<f64>,
}

impl Deltas {
    /// Adds the difference `after - before` of one engine's stats, and
    /// checks `coalesced + singleton == queries` on it.
    pub fn absorb(&mut self, before: &EngineStats, after: &EngineStats) -> Result<(), String> {
        let queries = after.queries - before.queries;
        let coalesced = after.batch.coalesced_queries - before.batch.coalesced_queries;
        let singleton = after.batch.singleton_queries - before.batch.singleton_queries;
        if coalesced + singleton != queries {
            return Err(format!(
                "stats delta: coalesced {coalesced} + singleton {singleton} != queries {queries}"
            ));
        }
        let q = after.query_stats.delta(&before.query_stats);
        self.queries += queries;
        self.coalesced += coalesced;
        self.singleton += singleton;
        self.session_locks += after.session_locks - before.session_locks;
        self.computed += q.computed;
        self.memo_matched += q.memo_matched;
        self.reused += q.reused;
        self.unrolls += q.unrolls;
        self.fix_converged += q.fix_converged;
        self.cone_walks += q.cone_walks;
        self.cone_cells += q.cone_cells;
        self.memo_hits += after.memo.hits - before.memo.hits;
        self.memo_misses += after.memo.misses - before.memo.misses;
        self.memo_evictions += after.memo.evictions - before.memo.evictions;
        Ok(())
    }

    /// Records the size of a program at the end of a window unit.
    pub fn note_program(&mut self, program: &LoweredProgram) {
        let edges: usize = program.cfgs().iter().map(|c| c.edge_count()).sum();
        let locs: usize = program.cfgs().iter().map(|c| c.locs().len()).sum();
        self.program_edges.push(edges as f64);
        self.program_locs.push(locs as f64);
    }
}

/// One thread's record of a window: latency samples, call outcomes and
/// the ledger of where the wall time went. Every time is multiplied by
/// [`Rec::scale`].
#[derive(Debug, Default)]
pub struct Rec {
    /// Whether trace-only extras (replays, codec timing, explain) run.
    pub traced: bool,
    /// CPU time of the last successful timed call, ns.
    pub last_ns: f64,
    /// Factor every CPU time is multiplied by: this round's host speed
    /// index (see [`crate::host`]).
    pub scale: f64,
    /// Single-query latencies, CPU ns (they give the tails).
    pub query_ns: Vec<f64>,
    /// Wall-clock latencies of queries, edits and sweeps, ns, one per
    /// CPU sample above and below (they give the medians).
    pub wall_ns: [Vec<f64>; 3],
    /// Edit latencies, CPU ns.
    pub edit_ns: Vec<f64>,
    /// Sweep latencies, CPU ns.
    pub sweep_ns: Vec<f64>,
    /// Follower catch-up times, wall-clock ns.
    pub catch_up_ns: Vec<f64>,
    /// Recovery times, wall-clock ns.
    pub recover_ns: Vec<f64>,
    /// Workload operations completed (queries, edits, sweeps, batches).
    pub ops: u64,
    /// Locations answered (a sweep or batch counts its members).
    pub answers: u64,
    /// Process CPU time inside the calls of those operations, ns: what
    /// the rates divide by, so input generation, answer checks and the
    /// oracle do not count. CPU rather than wall clock because a rate is
    /// a mean, and the few calls the hypervisor stalls would move it.
    pub op_cpu_ns: f64,
    /// Every public call, with its outcome.
    pub calls: Calls,
    /// Ledger (wall clock): time inside timed calls.
    pub call_ns: u64,
    /// Ledger: input generation.
    pub gen_ns: u64,
    /// Ledger: answer checks.
    pub check_ns: u64,
    /// Ledger: trace-only extras.
    pub extra_ns: u64,
    /// Process CPU time of the trace-only extras, ns (left out of
    /// `trace.overhead`).
    pub extra_cpu_ns: f64,
    /// The first few failure messages.
    pub failures: Vec<String>,
    /// Per-layer samples (traced run).
    pub layer: LayerSamples,
    /// Stats deltas.
    pub deltas: Deltas,
    /// Closed segments of this record.
    pub segments: Vec<Segment>,
    /// Where the open segment starts: sample counts, ops, answers, time.
    mark: Mark,
}

/// One segment of a window: a fixed slice of its work (a group of
/// trials, or a block of one connection's reads). End-to-end figures
/// are medians over segments, so a burst of interference on the host
/// moves a few segments rather than the reported value.
#[derive(Debug, Clone, Default)]
pub struct Segment {
    /// Single-query latency summaries, one per block, ns.
    pub query: Vec<Summary>,
    /// Edit latency summaries, one per block, ns.
    pub edit: Vec<Summary>,
    /// Sweep latency summaries, one per block, ns.
    pub sweep: Vec<Summary>,
    /// Workload operations completed in the segment.
    pub ops: u64,
    /// Locations answered in the segment.
    pub answers: u64,
    /// Process CPU time inside the segment's operations, ns.
    pub op_cpu_ns: f64,
}

#[derive(Debug, Default)]
struct Mark {
    query: usize,
    edit: usize,
    sweep: usize,
    ops: u64,
    answers: u64,
    op_cpu_ns: f64,
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

/// Latency samples are summarised in blocks of consecutive samples, at
/// least this many and fewer than twice as many (one smaller block when
/// a segment has fewer). The highest percentile with
/// [`crate::stats::TAIL_MIN_BEYOND`] samples beyond it in a block of
/// 500 to 999 samples is p95, the paper's own tail ("95% of queries
/// within 1.2 s", Fig. 10). A p99 or beyond rests on the few calls a
/// neighbour on a shared host disturbs, and moved by up to 28% between
/// runs of unchanged code.
pub const BLOCK: usize = 500;

/// A segment's latency summaries, one per block: the median of the
/// block's wall-clock samples, and the tail (with its percentile and
/// count) of its CPU samples.
fn latency(cpu: &[f64], wall: &[f64]) -> Vec<Summary> {
    let blocks = (cpu.len() / BLOCK).max(1);
    (0..blocks)
        .filter_map(|b| {
            let (lo, hi) = (b * cpu.len() / blocks, (b + 1) * cpu.len() / blocks);
            let tail = summarize(&cpu[lo..hi])?;
            Some(Summary {
                p50: summarize(&wall[lo..hi])?.p50,
                ..tail
            })
        })
        .collect()
}

impl Rec {
    /// A record for a traced or untraced window.
    pub fn new(traced: bool) -> Rec {
        let mut rec = Rec {
            traced,
            scale: 1.0,
            ..Rec::default()
        };
        rec.begin();
        rec
    }

    /// Starts a segment here, dropping whatever happened since the
    /// last cut from every segment.
    pub fn begin(&mut self) {
        self.mark = Mark {
            query: self.query_ns.len(),
            edit: self.edit_ns.len(),
            sweep: self.sweep_ns.len(),
            ops: self.ops,
            answers: self.answers,
            op_cpu_ns: self.op_cpu_ns,
        };
    }

    /// Closes the open segment and starts the next one.
    pub fn cut(&mut self) {
        let m = &self.mark;
        let w = &self.wall_ns;
        let seg = Segment {
            query: latency(&self.query_ns[m.query..], &w[0][m.query..]),
            edit: latency(&self.edit_ns[m.edit..], &w[1][m.edit..]),
            sweep: latency(&self.sweep_ns[m.sweep..], &w[2][m.sweep..]),
            ops: self.ops - m.ops,
            answers: self.answers - m.answers,
            op_cpu_ns: self.op_cpu_ns - m.op_cpu_ns,
        };
        self.segments.push(seg);
        self.begin();
    }

    /// Notes a failure message (the first few are kept for the report).
    pub fn fail(&mut self, msg: String) {
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    /// Makes one timed public call under operation id `id`.
    /// `answers` says how many locations an `Ok` answered.
    pub fn call_id<T>(
        &mut self,
        id: u64,
        op: Op,
        via: Via,
        answers: impl FnOnce(&T) -> u64,
        f: impl FnOnce() -> Result<T, EngineError>,
    ) -> Option<T> {
        let guard = dai_trace::site_span(site(op, via), id);
        let t0 = Instant::now();
        let c0 = cpu_ns();
        let out = f();
        let cpu = (cpu_ns() - c0) as f64 * self.scale;
        let ns = elapsed_ns(t0);
        drop(guard);
        self.call_ns += ns;
        self.calls.attempted += 1;
        match out {
            Ok(v) => {
                self.last_ns = cpu;
                let wall = ns as f64 * self.scale;
                match op {
                    Op::Query => {
                        self.query_ns.push(cpu);
                        self.wall_ns[0].push(wall);
                    }
                    Op::Edit => {
                        self.edit_ns.push(cpu);
                        self.wall_ns[1].push(wall);
                    }
                    Op::Sweep => {
                        self.sweep_ns.push(cpu);
                        self.wall_ns[2].push(wall);
                    }
                    Op::CatchUp => self.catch_up_ns.push(wall),
                    Op::Recover => self.recover_ns.push(wall),
                    Op::Pipeline | Op::Scaffold => {}
                }
                if matches!(op, Op::Query | Op::Edit | Op::Sweep | Op::Pipeline) {
                    self.ops += 1;
                    self.answers += answers(&v);
                    self.op_cpu_ns += cpu;
                }
                Some(v)
            }
            Err(e) => {
                match &e {
                    EngineError::Remote { code, .. } if *code == "overload" => {
                        self.calls.refused += 1
                    }
                    _ => self.calls.errored += 1,
                }
                self.fail(format!("{op:?} via {via:?}: {e}"));
                None
            }
        }
    }

    /// [`Rec::call_id`] under a fresh operation id.
    pub fn call<T>(
        &mut self,
        op: Op,
        via: Via,
        answers: impl FnOnce(&T) -> u64,
        f: impl FnOnce() -> Result<T, EngineError>,
    ) -> Option<T> {
        self.call_id(op_id(), op, via, answers, f)
    }

    /// A whole sweep; every member must succeed.
    pub fn sweep<S: Service<D>>(
        &mut self,
        via: Via,
        service: &S,
        session: SessionId,
        targets: &[(String, Loc)],
    ) -> Option<Vec<D>> {
        self.call(
            Op::Sweep,
            via,
            |v: &Vec<D>| v.len() as u64,
            || service.query_sweep(session, targets).into_iter().collect(),
        )
    }

    /// An edit.
    pub fn edit<S: Service<D>>(
        &mut self,
        via: Via,
        service: &S,
        session: SessionId,
        edit: &ProgramEdit,
    ) -> bool {
        self.call(Op::Edit, via, |_| 0, || service.edit(session, edit))
            .is_some()
    }

    /// Times input generation.
    pub fn gen<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let _g = dai_trace::site_span(&GEN, 0);
        let t0 = Instant::now();
        let out = f();
        self.gen_ns += elapsed_ns(t0);
        out
    }

    /// Times an answer check; a `false` result counts one wrong call,
    /// described by `what`.
    pub fn check(&mut self, what: impl FnOnce() -> String, f: impl FnOnce() -> bool) {
        self.check_with(|| if f() { Ok(()) } else { Err(what()) });
    }

    /// Times an answer check; an `Err` counts one wrong call.
    pub fn check_with(&mut self, f: impl FnOnce() -> Result<(), String>) {
        let _g = dai_trace::site_span(&CHECK, 0);
        let t0 = Instant::now();
        let verdict = f();
        self.check_ns += elapsed_ns(t0);
        if let Err(msg) = verdict {
            self.calls.wrong += 1;
            self.fail(format!("wrong answer: {msg}"));
        }
    }

    /// Times trace-only extra work (replays, codec timing, explain):
    /// wall clock for the ledger, CPU to leave it out of
    /// `trace.overhead`.
    pub fn extra<T>(&mut self, f: impl FnOnce(&mut Rec) -> T) -> T {
        let (t0, c0) = (Instant::now(), cpu_ns());
        let out = f(self);
        self.extra_cpu_ns += (cpu_ns() - c0) as f64 * self.scale;
        self.extra_ns += elapsed_ns(t0);
        out
    }

    /// Traced run: drains the recorder into the span store. Its wall
    /// time goes to the ledger's extras, but its CPU time stays in
    /// `trace.overhead`: consuming the records is part of what tracing
    /// costs.
    pub fn collect_spans(&mut self) {
        if self.traced {
            let t0 = Instant::now();
            crate::trace::collect();
            self.extra_ns += elapsed_ns(t0);
        }
    }

    /// Traced run: replays the socket query just made in process on the
    /// serving engine, and times the `Persist` codec on the answer.
    pub fn replay_query(
        &mut self,
        id: u64,
        engine: &Engine<D>,
        session: SessionId,
        func: &str,
        loc: Loc,
        answer: &D,
    ) {
        if !self.traced {
            return;
        }
        self.layer.rpc_query_ns.push(self.last_ns);
        self.extra(|r| {
            let _g = dai_trace::site_span(&REPLAY, id);
            let c0 = cpu_ns();
            let local = engine.query(session, func, loc);
            r.layer
                .local_query_ns
                .push((cpu_ns() - c0) as f64 * r.scale);
            if local.as_ref().ok() != Some(answer) {
                r.fail(format!("in-process replay of {func}:{loc} differs"));
                r.calls.wrong += 1;
            }
        });
        self.codec(id, std::slice::from_ref(answer));
    }

    /// Traced run: replays the socket sweep just made in process on the
    /// serving engine, and times the `Persist` codec on the answers.
    pub fn replay_sweep(
        &mut self,
        id: u64,
        engine: &Engine<D>,
        session: SessionId,
        targets: &[(String, Loc)],
        answers: &[D],
    ) {
        if !self.traced {
            return;
        }
        self.layer.rpc_sweep_ns.push(self.last_ns);
        self.extra(|r| {
            let _g = dai_trace::site_span(&REPLAY, id);
            let c0 = cpu_ns();
            let local: Result<Vec<D>, _> = Service::query_sweep(engine, session, targets)
                .into_iter()
                .collect();
            r.layer
                .local_sweep_ns
                .push((cpu_ns() - c0) as f64 * r.scale);
            if local.as_deref().ok() != Some(answers) {
                r.fail("in-process replay of a sweep differs".to_string());
                r.calls.wrong += 1;
            }
        });
        self.codec(id, answers);
    }

    /// Traced run: replays the socket edit just made in process on a
    /// shadow engine that mirrors the edit stream (no journal, no
    /// queries), timing the `dai-engine` edit alone.
    pub fn replay_edit(
        &mut self,
        id: u64,
        shadow: &Engine<D>,
        session: SessionId,
        edit: &ProgramEdit,
    ) {
        if !self.traced {
            return;
        }
        self.extra(|r| {
            let _g = dai_trace::site_span(&REPLAY, id);
            let c0 = cpu_ns();
            match Service::edit(shadow, session, edit) {
                Ok(_) => r
                    .layer
                    .engine_edit_ns
                    .push((cpu_ns() - c0) as f64 * r.scale),
                Err(e) => {
                    r.calls.errored += 1;
                    r.fail(format!("shadow edit: {e}"));
                }
            }
            r.calls.attempted += 1;
        });
    }

    /// Traced run: times `Persist` encode and decode of each answer.
    pub fn codec(&mut self, id: u64, answers: &[D]) {
        if !self.traced {
            return;
        }
        self.extra(|r| {
            let _g = dai_trace::site_span(&CODEC, id);
            for a in answers {
                let t0 = Instant::now();
                let mut w = Writer::new();
                a.put(&mut w);
                let bytes = w.into_bytes();
                let t1 = Instant::now();
                let mut rd = Reader::new(&bytes);
                let back = D::get(&mut rd);
                let t2 = Instant::now();
                r.layer
                    .encode_ns
                    .push((t1 - t0).as_nanos() as f64 * r.scale);
                r.layer
                    .decode_ns
                    .push((t2 - t1).as_nanos() as f64 * r.scale);
                r.layer.answer_bytes.push(bytes.len() as f64);
                if back.as_ref().ok() != Some(a) {
                    r.fail("Persist round trip changed an answer".to_string());
                    r.calls.wrong += 1;
                }
            }
        });
    }

    /// Traced run: an explain capture over `targets` on an engine no
    /// other thread is using, checked with `check_accounting` against
    /// the engine's `QueryStats` delta.
    pub fn explain(&mut self, engine: &Engine<D>, session: SessionId, targets: &[(String, Loc)]) {
        if !self.traced {
            return;
        }
        self.extra(|r| {
            let _g = dai_trace::site_span(&EXPLAIN, 0);
            let before = engine.stats().query_stats;
            match Service::explain(engine, session, targets) {
                Ok(report) => {
                    let delta = engine.stats().query_stats.delta(&before);
                    match report.check_accounting(&delta) {
                        Ok(()) => r.layer.explains.push(report),
                        Err(e) => {
                            r.calls.wrong += 1;
                            r.fail(format!("explain accounting: {e}"));
                        }
                    }
                }
                Err(e) => {
                    r.calls.errored += 1;
                    r.fail(format!("explain: {e}"));
                }
            }
            r.calls.attempted += 1;
        });
    }

    /// Merges another record (a thread's, a set-up's or a probe's)
    /// into this one. The open segments of both stay open: cut first.
    pub fn absorb(&mut self, o: Rec) {
        self.segments.extend(o.segments);
        self.query_ns.extend(o.query_ns);
        for (a, b) in self.wall_ns.iter_mut().zip(o.wall_ns) {
            a.extend(b);
        }
        self.edit_ns.extend(o.edit_ns);
        self.sweep_ns.extend(o.sweep_ns);
        self.catch_up_ns.extend(o.catch_up_ns);
        self.recover_ns.extend(o.recover_ns);
        self.ops += o.ops;
        self.answers += o.answers;
        self.op_cpu_ns += o.op_cpu_ns;
        self.calls.absorb(&o.calls);
        self.call_ns += o.call_ns;
        self.gen_ns += o.gen_ns;
        self.check_ns += o.check_ns;
        self.extra_ns += o.extra_ns;
        self.extra_cpu_ns += o.extra_cpu_ns;
        for f in o.failures {
            self.fail(f);
        }
        let (l, m) = (&mut self.layer, o.layer);
        l.rpc_query_ns.extend(m.rpc_query_ns);
        l.local_query_ns.extend(m.local_query_ns);
        l.rpc_sweep_ns.extend(m.rpc_sweep_ns);
        l.local_sweep_ns.extend(m.local_sweep_ns);
        l.encode_ns.extend(m.encode_ns);
        l.decode_ns.extend(m.decode_ns);
        l.answer_bytes.extend(m.answer_bytes);
        l.sync_batch_ns.extend(m.sync_batch_ns);
        l.sync_frames.extend(m.sync_frames);
        l.journal_open_ns.extend(m.journal_open_ns);
        l.engine_edit_ns.extend(m.engine_edit_ns);
        l.explains.extend(m.explains);
        let (d, e) = (&mut self.deltas, o.deltas);
        d.queries += e.queries;
        d.session_locks += e.session_locks;
        d.coalesced += e.coalesced;
        d.singleton += e.singleton;
        d.computed += e.computed;
        d.memo_matched += e.memo_matched;
        d.reused += e.reused;
        d.unrolls += e.unrolls;
        d.fix_converged += e.fix_converged;
        d.cone_walks += e.cone_walks;
        d.cone_cells += e.cone_cells;
        d.memo_hits += e.memo_hits;
        d.memo_misses += e.memo_misses;
        d.memo_evictions += e.memo_evictions;
        d.journal_frames += e.journal_frames;
        d.journal_bytes += e.journal_bytes;
        d.journal_edits += e.journal_edits;
        d.program_edges.extend(e.program_edges);
        d.program_locs.extend(e.program_locs);
    }

    /// Absorbs one engine's stats delta, failing the run when the
    /// coalescing identity does not hold on it.
    pub fn stats_delta(&mut self, before: &EngineStats, after: &EngineStats) {
        if let Err(e) = self.deltas.absorb(before, after) {
            self.calls.wrong += 1;
            self.fail(e);
        }
    }
}

/// The records of one pass, filled round by round. A round is one
/// set-up (or a few, when set-up is cheap), one window segment and, on
/// workloads without a journal of their own, one restart probe, so
/// every metric is sampled all through the run rather than in one
/// stretch of it.
#[derive(Debug)]
pub struct Recs {
    /// Set-up calls (the growing edits of `socket_reads`).
    pub setup: Rec,
    /// The timed window.
    pub window: Rec,
    /// Restart probes.
    pub probe: Rec,
    /// Wall-clock seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Process CPU time inside window segments, less that of the
    /// trace-only extras, ns.
    pub window_cpu_ns: f64,
    /// Wall time inside window segments, ns (the ledger's window).
    pub window_wall_ns: u64,
    /// Host speed index measured at the start of each round.
    pub host_speed: Vec<f64>,
}

impl Recs {
    /// Empty records for a traced or untraced pass.
    pub fn new(traced: bool) -> Recs {
        Recs {
            setup: Rec::new(traced),
            window: Rec::new(traced),
            probe: Rec::new(traced),
            setup_s: Vec::new(),
            window_cpu_ns: 0.0,
            window_wall_ns: 0,
            host_speed: Vec::new(),
        }
    }

    /// Merges the records of a later round into these.
    pub fn absorb(&mut self, o: Recs) {
        self.setup.absorb(o.setup);
        self.window.absorb(o.window);
        self.probe.absorb(o.probe);
        self.setup_s.extend(o.setup_s);
        self.window_cpu_ns += o.window_cpu_ns;
        self.window_wall_ns += o.window_wall_ns;
        self.host_speed.extend(o.host_speed);
    }

    /// Keeps what a discarded attempt at a round called and got wrong,
    /// but none of its times: its calls and failures still count.
    pub fn absorb_outcomes(&mut self, o: Recs) {
        for rec in [o.setup, o.window, o.probe] {
            self.window.calls.absorb(&rec.calls);
            for f in rec.failures {
                self.window.fail(f);
            }
        }
    }

    /// Starts a round: measures the host speed index and scales this
    /// round's times by it.
    pub fn start_round(&mut self) {
        let speed = crate::host::speed_index();
        self.host_speed.push(speed);
        for rec in [&mut self.setup, &mut self.window, &mut self.probe] {
            rec.scale = speed;
        }
    }

    /// Runs and times one set-up, then closes its segment.
    pub fn setup<T>(&mut self, f: impl FnOnce(&mut Rec) -> T) -> T {
        let t0 = Instant::now();
        let out = f(&mut self.setup);
        self.setup_s
            .push(elapsed_ns(t0) as f64 * self.setup.scale / 1e9);
        self.setup.cut();
        out
    }

    /// Runs one window segment and closes it.
    pub fn window<T>(&mut self, f: impl FnOnce(&mut Rec) -> T) -> T {
        let (t0, c0, e0) = (Instant::now(), cpu_ns(), self.window.extra_cpu_ns);
        self.window.begin();
        let out = f(&mut self.window);
        self.window.cut();
        self.window_cpu_ns +=
            (cpu_ns() - c0) as f64 * self.window.scale - (self.window.extra_cpu_ns - e0);
        self.window_wall_ns += elapsed_ns(t0);
        out
    }
}

/// Every `(function, location)` of `program`, sorted (one coalesced
/// batch per function when swept).
pub fn targets(program: &LoweredProgram) -> Targets {
    let mut t: Targets = program
        .cfgs()
        .iter()
        .flat_map(|cfg| cfg.locs().into_iter().map(|l| (cfg.name().to_string(), l)))
        .collect();
    t.sort();
    t
}

/// The from-scratch oracle (`batch_analyze` under the intraprocedural
/// resolver every session uses) at every target of `program`.
pub fn oracle(program: &LoweredProgram) -> Result<BTreeMap<(String, Loc), D>, String> {
    let mut out = BTreeMap::new();
    for cfg in program.cfgs() {
        let states = batch_analyze(cfg, D::entry_default(cfg.params()), &mut IntraResolver)
            .map_err(|e| format!("oracle on {}: {e}", cfg.name()))?;
        for (loc, d) in states {
            out.insert((cfg.name().to_string(), loc), d);
        }
    }
    Ok(out)
}

/// Compares sweep answers with the oracle; the first mismatch, if any.
pub fn matches_oracle(
    program: &LoweredProgram,
    targets: &[(String, Loc)],
    answers: &[D],
) -> Result<(), String> {
    let truth = oracle(program)?;
    for ((func, loc), got) in targets.iter().zip(answers) {
        match truth.get(&(func.clone(), *loc)) {
            Some(want) if want == got => {}
            Some(_) => return Err(format!("{func}:{loc} differs from the batch oracle")),
            None => return Err(format!("{func}:{loc} missing from the batch oracle")),
        }
    }
    Ok(())
}

/// The edit history the restart probe replays: initial source and the
/// edits applied to it, in order.
#[derive(Debug, Clone, Default)]
pub struct History {
    /// Source of the session's first program.
    pub source: String,
    /// Edits in application order.
    pub edits: Vec<ProgramEdit>,
}

/// Edits per burst between follower catch-ups.
pub const BURST: usize = 10;

/// A journaled leader served over a Unix socket, with a follower
/// `Replica` on a second in-process engine.
pub struct Durable {
    /// The leader engine (journal attached).
    pub leader: Arc<Engine<D>>,
    /// The leader's socket server.
    pub server: Server<D>,
    /// The follower.
    pub replica: Replica<D>,
    /// The leader's journal file.
    pub journal: PathBuf,
}

impl Durable {
    /// Starts a leader with a fresh journal at `tag`, its server, and
    /// a follower connected to it.
    pub fn start(s: &Settings, tag: &str) -> Result<Durable, EngineError> {
        let journal = s.path(&format!("{tag}.daij"));
        let _ = std::fs::remove_file(&journal);
        let leader = Arc::new(s.engine());
        leader.open_journal(&journal, JournalConfig::default())?;
        let server =
            Server::bind(&s.socket(tag), Arc::clone(&leader)).map_err(|e| EngineError::Remote {
                code: "transport",
                message: e.to_string(),
            })?;
        let client = Client::connect_addr(server.addr())?;
        let replica = Replica::new(client, Arc::new(s.engine()));
        Ok(Durable {
            leader,
            server,
            replica,
            journal,
        })
    }

    /// Brings the follower to lag 0. The untraced run times
    /// `Replica::catch_up`; the traced run makes the same pulls with
    /// `sync_batch` so each pull is timed too.
    pub fn catch_up(&self, rec: &mut Rec) -> bool {
        if !rec.traced {
            return rec
                .call(Op::CatchUp, Via::Rpc, |_| 0, || self.replica.catch_up())
                .is_some();
        }
        let id = op_id();
        let scale = rec.scale;
        let mut pulls: Vec<(f64, f64)> = Vec::new();
        let done = rec.call_id(
            id,
            Op::CatchUp,
            Via::Rpc,
            |_| 0,
            || loop {
                let c0 = cpu_ns();
                let out = self.replica.sync_batch(DEFAULT_PULL_BATCH)?;
                pulls.push(((cpu_ns() - c0) as f64 * scale, out.applied as f64));
                if out.lag == 0 {
                    return Ok(());
                }
                if out.applied == 0 {
                    return Err(EngineError::Remote {
                        code: "protocol",
                        message: "follower lags but the leader serves nothing".to_string(),
                    });
                }
            },
        );
        for (ns, frames) in pulls {
            rec.layer.sync_batch_ns.push(ns);
            rec.layer.sync_frames.push(frames);
        }
        done.is_some()
    }

    /// Journal bytes on disk.
    pub fn journal_bytes(&self) -> u64 {
        std::fs::metadata(&self.journal)
            .map(|m| m.len())
            .unwrap_or(0)
    }

    /// Crash recovery: a fresh engine opens a copy of the leader's
    /// journal and answers one sweep; the answers must equal `want`.
    /// The copy keeps the recovered engine from appending to the
    /// leader's file.
    pub fn recover(
        &self,
        s: &Settings,
        rec: &mut Rec,
        session: SessionId,
        targets: &[(String, Loc)],
        want: &[D],
    ) {
        let copy = s.path("recover.daij");
        if let Err(e) = std::fs::copy(&self.journal, &copy) {
            rec.calls.attempted += 1;
            rec.calls.errored += 1;
            rec.fail(format!("copy journal: {e}"));
            return;
        }
        let fresh = s.engine();
        let traced = rec.traced;
        let mut open_ns = 0;
        let answers = rec.call(
            Op::Recover,
            Via::Journal,
            |_| 0,
            || {
                let c0 = cpu_ns();
                fresh.open_journal(&copy, JournalConfig::default())?;
                open_ns = cpu_ns() - c0;
                Service::query_sweep(&fresh, session, targets)
                    .into_iter()
                    .collect::<Result<Vec<D>, _>>()
            },
        );
        if traced {
            rec.layer.journal_open_ns.push(open_ns as f64 * rec.scale);
        }
        if let Some(answers) = answers {
            rec.check(
                || "recovered engine differs from the leader".to_string(),
                || answers == want,
            );
        }
        drop(fresh);
        let _ = std::fs::remove_file(&copy);
    }

    /// Stops the server and removes the journal.
    pub fn stop(self) {
        let Durable {
            leader,
            server,
            replica,
            journal,
        } = self;
        drop(replica);
        server.shutdown();
        drop(leader);
        let _ = std::fs::remove_file(&journal);
    }
}

/// The restart probe every workload without a journal of its own ends
/// with: the workload's last edit history is replayed in process
/// through a journaled leader in bursts of [`BURST`] edits, a follower
/// catches up after each burst, and a fresh engine recovers from the
/// journal. It gives `catch_up_ms`, `recover_ms` and the journal and
/// replication layer figures on workloads whose own loop never touches
/// a journal.
pub fn restart_probe(s: &Settings, rec: &mut Rec, history: &History) {
    let durable = match Durable::start(s, "probe") {
        Ok(d) => d,
        Err(e) => {
            rec.calls.attempted += 1;
            rec.calls.errored += 1;
            rec.fail(format!("restart probe start: {e}"));
            return;
        }
    };
    let leader = Arc::clone(&durable.leader);
    let Some(session) = rec.call(
        Op::Scaffold,
        Via::Engine,
        |_| 0,
        || leader.open("probe", &history.source),
    ) else {
        durable.stop();
        return;
    };
    let bytes0 = durable.journal_bytes();
    let before = leader.stats();
    for burst in history.edits.chunks(BURST) {
        for edit in burst {
            let ok = rec
                .call(
                    Op::Scaffold,
                    Via::Engine,
                    |_| 0,
                    || Service::edit(leader.as_ref(), session, edit),
                )
                .is_some();
            if rec.traced && ok {
                rec.layer.engine_edit_ns.push(rec.last_ns);
            }
        }
        durable.catch_up(rec);
    }
    let after = leader.stats();
    rec.deltas.journal_frames +=
        after.replication.journal_frames - before.replication.journal_frames;
    rec.deltas.journal_bytes += durable.journal_bytes() - bytes0;
    rec.deltas.journal_edits += after.edits - before.edits;
    let program = leader.program_of(session).ok();
    if let Some(program) = program {
        let t = targets(&program);
        if let Some(want) = rec.call(
            Op::Scaffold,
            Via::Engine,
            |_| 0,
            || {
                Service::query_sweep(leader.as_ref(), session, &t)
                    .into_iter()
                    .collect::<Result<Vec<D>, _>>()
            },
        ) {
            for _ in 0..RECOVERIES {
                durable.recover(s, rec, session, &t, &want);
            }
        }
    }
    durable.stop();
}

/// Recoveries the restart probe times (their median is `recover_ms`).
pub const RECOVERIES: usize = 2;

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A 64-bit mix of `seed` and `salt` (splitmix64), for per-trial and
/// per-connection seeds derived from the workload seed.
pub fn sub_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_medians_are_wall_clock_and_tails_cpu() {
        let cpu: Vec<f64> = (1..=100).map(f64::from).collect();
        let wall: Vec<f64> = cpu.iter().map(|x| x * 10.0).collect();
        let s = latency(&cpu, &wall);
        assert_eq!(s.len(), 1);
        assert_eq!(s[0].p50, 500.0);
        assert_eq!((s[0].n, s[0].tail_pct, s[0].tail), (100, 90.0, 90.0));
        assert!(latency(&[], &[]).is_empty());
    }

    #[test]
    fn blocks_hold_500_to_999_samples_and_their_tail_is_p95() {
        for n in [500, 999, 1000, 1499, 6000, 52_596] {
            let cpu: Vec<f64> = (1..=n).map(|x| x as f64).collect();
            let blocks = latency(&cpu, &cpu);
            assert_eq!(blocks.len(), n / BLOCK);
            assert_eq!(blocks.iter().map(|b| b.n).sum::<usize>(), n);
            for b in &blocks {
                assert!((BLOCK..2 * BLOCK).contains(&b.n), "{n}: block of {}", b.n);
                assert_eq!(b.tail_pct, 95.0);
            }
        }
        // A segment with fewer samples is one block with a lower tail.
        let cpu: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(latency(&cpu, &cpu)[0].tail_pct, 90.0);
    }

    #[test]
    fn calls_are_classified_as_errored_refused_or_wrong() {
        let mut rec = Rec::new(false);
        let ok = rec.call(Op::Query, Via::Rpc, |_| 1, || Ok(()));
        assert_eq!(ok, Some(()));
        let refused = rec.call(
            Op::Query,
            Via::Rpc,
            |_| 1,
            || -> Result<(), _> {
                Err(EngineError::Remote {
                    code: "overload",
                    message: "write queue full".to_string(),
                })
            },
        );
        assert_eq!(refused, None);
        let errored = rec.call(
            Op::Edit,
            Via::Engine,
            |_| 0,
            || -> Result<(), _> {
                Err(EngineError::Remote {
                    code: "transport",
                    message: "reset".to_string(),
                })
            },
        );
        assert_eq!(errored, None);
        rec.check(|| "wrong".to_string(), || false);
        rec.check(|| "right".to_string(), || true);
        assert_eq!(
            rec.calls,
            Calls {
                attempted: 3,
                errored: 1,
                refused: 1,
                wrong: 1,
            }
        );
        assert_eq!(rec.calls.failed_share(), 1.0);
        // Only the successful call is a completed operation with a sample.
        assert_eq!((rec.ops, rec.answers, rec.query_ns.len()), (1, 1, 1));
        assert_eq!(rec.failures.len(), 3);
    }
}
