//! Socket vs in-process dispatch behind `BENCH_rpc.json`.
//!
//! `dai-rpc` puts the engine's request stream behind a wire protocol;
//! this harness quantifies what the wire costs — and what the sweep
//! frame preserves — on the Fig. 10 synthetic octagon workload. A
//! session is grown by the same deterministic edit script on three
//! fresh, identically configured services, and the full
//! `(function × location)` sweep is then measured three ways:
//!
//! * **in-process sweep** — `Engine::submit_query_sweep` through the
//!   [`Service`] trait: PR 4's coalesced dispatch, the baseline;
//! * **socket sweep** — the same sweep as **one** wire frame through a
//!   `dai-rpc` [`Client`]: the server routes it into
//!   `submit_query_sweep`, so it must reproduce the in-process
//!   lock/cone profile exactly (one session-lock acquisition and one
//!   union-cone traversal per function), paying only frame codec +
//!   socket latency on top;
//! * **socket per-query** — one `Query` frame per target: every query is
//!   its own synchronous round-trip and its own singleton drain — the
//!   shape an RPC client that ignores batching would produce.
//!
//! Wall-clock is noisy on shared hosts, so the CI gate
//! ([`check_invariants`]) asserts only deterministic counters: identical
//! answers across all three paths, the socket sweep matching the
//! in-process sweep's `BatchStats` lock/walk profile, and the sweep
//! frame taking strictly fewer session locks than per-query frames.

use dai_core::driver::ProgramEdit;
use dai_domains::OctagonDomain;
use dai_engine::{Engine, EngineStats, Service, SessionId};
use dai_lang::Loc;
use dai_rpc::{Addr, Client, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::batch_bench::SweepCounters;
use crate::workload::Workload;

type D = OctagonDomain;

/// Parameters of one socket-vs-in-process measurement.
#[derive(Debug, Clone)]
pub struct RpcBenchParams {
    /// Random edits growing the session before the sweeps.
    pub grow_edits: usize,
    /// Workload seed.
    pub seed: u64,
    /// Warm-sweep repetitions per variant (medians reported).
    pub repeats: usize,
}

impl RpcBenchParams {
    /// The recording profile (matches the other Fig. 10 engine
    /// baselines' workload; repeats are higher than theirs because the
    /// 1-CPU scheduler round-trips under every variant here make
    /// per-sweep wall-clock jittery, and the median needs the samples).
    pub fn full() -> RpcBenchParams {
        RpcBenchParams {
            grow_edits: 40,
            seed: 379422,
            repeats: 25,
        }
    }

    /// A seconds-scale profile for CI smoke runs.
    pub fn smoke() -> RpcBenchParams {
        RpcBenchParams {
            grow_edits: 8,
            seed: 379422,
            repeats: 3,
        }
    }
}

/// One variant's measurement (same shape as `batch_bench`'s).
#[derive(Debug, Clone)]
pub struct VariantResult {
    /// Queries per sweep.
    pub queries: usize,
    /// Wall-clock of the cold sweep.
    pub cold: Duration,
    /// Median wall-clock of the warm sweeps.
    pub warm_median: Duration,
    /// Counter deltas of the cold sweep.
    pub cold_counters: SweepCounters,
    /// Counter deltas summed over all warm sweeps.
    pub warm_counters: SweepCounters,
}

impl VariantResult {
    /// Warm-sweep throughput (queries per second) from the median sweep.
    pub fn warm_qps(&self) -> f64 {
        self.queries as f64 / self.warm_median.as_secs_f64().max(1e-12)
    }
}

/// One point of the saturation matrix: `conns` concurrent connections,
/// each keeping `depth` sweep frames in flight (written back-to-back
/// before any response is read), repeating until its share of sweeps
/// is answered.
#[derive(Debug, Clone)]
pub struct SaturationPoint {
    /// Concurrent connections (each with its own session).
    pub conns: usize,
    /// In-flight sweep frames per connection.
    pub depth: usize,
    /// Queries answered across all connections during the timed window.
    pub total_queries: usize,
    /// The slowest connection's wall-clock for its share.
    pub elapsed: Duration,
}

impl SaturationPoint {
    /// Aggregate throughput at this point (queries per second).
    pub fn qps(&self) -> f64 {
        self.total_queries as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }
}

/// A complete comparison.
#[derive(Debug, Clone)]
pub struct RpcBenchResult {
    /// `available_parallelism` at measurement time.
    pub host_cpus: usize,
    /// Functions in the sweep (one coalesced batch each for sweeps).
    pub functions: usize,
    /// The in-process coalesced sweep (the baseline).
    pub in_process: VariantResult,
    /// Saturated in-process throughput: the best aggregate qps over
    /// [1, 2, 4] threads of warm sweeps against one engine (each thread
    /// its own session) — the like-for-like denominator for the
    /// saturated socket points, and far more stable on a 1-CPU host
    /// than a single stream's medians (blocking round-trip gaps, which
    /// the scheduler times inconsistently, are filled with other
    /// threads' work on both sides of the ratio).
    pub in_process_saturated_qps: f64,
    /// The whole sweep as one wire frame.
    pub socket_sweep: VariantResult,
    /// One wire frame per query.
    pub socket_per_query: VariantResult,
    /// The sweep as per-function bursts of pipelined single-query
    /// frames: written back-to-back, coalesced by the server's event
    /// loop into per-run engine batches.
    pub socket_pipelined: VariantResult,
    /// The connection-count × frame-shape saturation matrix.
    pub saturation: Vec<SaturationPoint>,
    /// Every sweep of every variant answered every query identically.
    pub answers_identical: bool,
}

impl RpcBenchResult {
    /// Peak saturated socket throughput over the connection × depth
    /// matrix, relative to peak saturated in-process throughput — the
    /// number the ≥ 60% acceptance gate reads. Throughput is compared
    /// at saturation on both sides (idle round-trip gaps filled by
    /// concurrent work), not at single-stream latency.
    pub fn socket_vs_in_process_qps_ratio(&self) -> f64 {
        let best = self
            .saturation
            .iter()
            .map(SaturationPoint::qps)
            .fold(0.0f64, f64::max);
        best / self.in_process_saturated_qps.max(1e-12)
    }
}

/// The deterministic edit script: replaying `Workload` edits through a
/// scratch in-process engine once, so every variant can apply the
/// *recorded* sequence through its own [`Service`] without needing
/// program introspection over the wire.
fn edit_script(params: &RpcBenchParams) -> (String, Vec<ProgramEdit>, Vec<(String, Loc)>) {
    let source = Workload::initial_source();
    let engine: Engine<D> = Engine::new(1);
    let session = engine
        .open_session_src("rpc-bench-gen", &source)
        .expect("initial source parses");
    let mut gen = Workload::new(params.seed);
    let mut edits = Vec::with_capacity(params.grow_edits);
    for _ in 0..params.grow_edits {
        let program = engine.program_of(session).expect("session open");
        let edit = gen.next_edit(&program);
        Service::<D>::edit(&engine, session, &edit).expect("bench edit applies");
        edits.push(edit);
    }
    let program = engine.program_of(session).expect("session open");
    let mut targets = Vec::new();
    for cfg in program.cfgs() {
        for loc in cfg.locs() {
            targets.push((cfg.name().to_string(), loc));
        }
    }
    targets.sort();
    (source, edits, targets)
}

/// Opens a session on `service` and replays the grow script.
fn grow<S: Service<D>>(service: &S, name: &str, source: &str, edits: &[ProgramEdit]) -> SessionId {
    let session = service.open(name, source).expect("bench session opens");
    for edit in edits {
        service.edit(session, edit).expect("bench edit applies");
    }
    session
}

fn delta(before: &EngineStats, after: &EngineStats) -> SweepCounters {
    SweepCounters {
        queries: after.queries - before.queries,
        session_locks: after.session_locks - before.session_locks,
        batch: dai_engine::BatchStats {
            batches: after.batch.batches - before.batch.batches,
            coalesced_queries: after.batch.coalesced_queries - before.batch.coalesced_queries,
            singleton_queries: after.batch.singleton_queries - before.batch.singleton_queries,
            union_cone_cells: after.batch.union_cone_cells - before.batch.union_cone_cells,
            union_cone_walks: after.batch.union_cone_walks - before.batch.union_cone_walks,
        },
    }
}

fn median(mut v: Vec<Duration>) -> Duration {
    v.sort();
    v[v.len() / 2]
}

/// Measures one variant: cold sweep, then warm repeats, with counter
/// deltas read through the service's own `stats()` (so the socket
/// variants prove the wire carries the accounting too).
fn measure<S: Service<D>>(
    service: &S,
    session: SessionId,
    targets: &[(String, Loc)],
    repeats: usize,
    sweep: impl Fn(&S, SessionId, &[(String, Loc)]) -> Vec<D>,
) -> (VariantResult, Vec<D>) {
    let before = service.stats().expect("stats");
    let t0 = Instant::now();
    let answers = sweep(service, session, targets);
    let cold = t0.elapsed();
    let cold_counters = delta(&before, &service.stats().expect("stats"));
    let mut warm = Vec::with_capacity(repeats.max(1));
    let before = service.stats().expect("stats");
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        let again = sweep(service, session, targets);
        warm.push(t0.elapsed());
        assert_eq!(again, answers, "warm sweep must answer identically");
    }
    let warm_counters = delta(&before, &service.stats().expect("stats"));
    (
        VariantResult {
            queries: targets.len(),
            cold,
            warm_median: median(warm),
            cold_counters,
            warm_counters,
        },
        answers,
    )
}

fn sweep_batched<S: Service<D>>(
    service: &S,
    session: SessionId,
    targets: &[(String, Loc)],
) -> Vec<D> {
    service
        .query_sweep(session, targets)
        .into_iter()
        .map(|r| r.expect("bench query succeeds"))
        .collect()
}

fn sweep_per_query<S: Service<D>>(
    service: &S,
    session: SessionId,
    targets: &[(String, Loc)],
) -> Vec<D> {
    targets
        .iter()
        .map(|(f, loc)| {
            service
                .query(session, f, *loc)
                .expect("bench query succeeds")
        })
        .collect()
}

/// The sweep as pipelined single-query frames: one
/// [`Client::pipeline_queries`] burst per function run (`targets` is
/// sorted, so runs are contiguous), every frame written before any
/// response is read.
fn sweep_pipelined(client: &Client<D>, session: SessionId, targets: &[(String, Loc)]) -> Vec<D> {
    let mut answers = Vec::with_capacity(targets.len());
    let mut i = 0;
    while i < targets.len() {
        let func = &targets[i].0;
        let run_end = i + targets[i..].iter().take_while(|(f, _)| f == func).count();
        let locs: Vec<Loc> = targets[i..run_end].iter().map(|(_, l)| *l).collect();
        answers.extend(
            client
                .pipeline_queries(session, func, &locs)
                .into_iter()
                .map(|r| r.expect("bench query succeeds")),
        );
        i = run_end;
    }
    answers
}

/// One saturation point: `conns` client threads, each over its own
/// connection and session, issuing warm sweeps in pipelined windows of
/// `depth` frames until `repeats` windows are answered. Aggregate qps
/// divides the total answered queries by the slowest thread's window.
fn measure_saturation(
    server: &Server<D>,
    source: &str,
    edits: &[ProgramEdit],
    targets: &[(String, Loc)],
    conns: usize,
    depth: usize,
    repeats: usize,
) -> SaturationPoint {
    let repeats = repeats.max(1);
    let start = Arc::new(std::sync::Barrier::new(conns));
    let threads: Vec<std::thread::JoinHandle<Duration>> = (0..conns)
        .map(|i| {
            let addr = server.addr().clone();
            let source = source.to_string();
            let edits = edits.to_vec();
            let targets = targets.to_vec();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let client: Client<D> =
                    Client::connect_addr(&addr).expect("saturation client connects");
                let name = format!("rpc-bench-sat-{i}");
                let session = grow(&client, &name, &source, &edits);
                let reference = sweep_batched(&client, session, &targets); // warm the memo
                start.wait();
                let t0 = Instant::now();
                for _ in 0..repeats {
                    for answers in client.pipeline_sweeps(session, &targets, depth) {
                        let answers: Vec<D> = answers
                            .into_iter()
                            .map(|r| r.expect("bench query succeeds"))
                            .collect();
                        assert_eq!(
                            answers, reference,
                            "saturated sweep must answer identically"
                        );
                    }
                }
                t0.elapsed()
            })
        })
        .collect();
    let elapsed = threads
        .into_iter()
        .map(|t| t.join().expect("saturation thread completes"))
        .max()
        .unwrap_or_default();
    SaturationPoint {
        conns,
        depth,
        total_queries: conns * repeats * depth * targets.len(),
        elapsed,
    }
}

/// Saturated in-process throughput at one thread count: `threads`
/// bench threads over one engine, each warm-sweeping its own session
/// `repeats × depth_budget` times (the same sweep budget a saturation
/// point at that connection count runs).
fn measure_in_process_saturation(
    engine: &Arc<Engine<D>>,
    source: &str,
    edits: &[ProgramEdit],
    targets: &[(String, Loc)],
    threads: usize,
    sweeps: usize,
) -> f64 {
    let start = Arc::new(std::sync::Barrier::new(threads));
    let handles: Vec<std::thread::JoinHandle<Duration>> = (0..threads)
        .map(|i| {
            let engine = Arc::clone(engine);
            let source = source.to_string();
            let edits = edits.to_vec();
            let targets = targets.to_vec();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let name = format!("rpc-bench-inproc-sat-{i}");
                let session = grow(engine.as_ref(), &name, &source, &edits);
                let reference = sweep_batched(engine.as_ref(), session, &targets);
                start.wait();
                let t0 = Instant::now();
                for _ in 0..sweeps {
                    let again = sweep_batched(engine.as_ref(), session, &targets);
                    assert_eq!(again, reference, "saturated sweep must answer identically");
                }
                t0.elapsed()
            })
        })
        .collect();
    let elapsed = handles
        .into_iter()
        .map(|t| t.join().expect("saturation thread completes"))
        .max()
        .unwrap_or_default();
    (threads * sweeps * targets.len()) as f64 / elapsed.as_secs_f64().max(1e-12)
}

/// A fresh single-worker engine (the profile every committed Fig. 10
/// baseline uses).
fn fresh_engine() -> Arc<Engine<D>> {
    Arc::new(Engine::new(1))
}

/// A throwaway Unix socket path unique to this process.
fn scratch_socket(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!("dai-rpc-bench-{tag}-{}.sock", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// Runs the full three-way comparison.
pub fn run_rpc_bench(params: &RpcBenchParams) -> RpcBenchResult {
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (source, edits, targets) = edit_script(params);
    let functions = {
        let mut fs: Vec<&String> = targets.iter().map(|(f, _)| f).collect();
        fs.dedup();
        fs.len()
    };

    // In-process baseline.
    let engine = fresh_engine();
    let session = grow(engine.as_ref(), "rpc-bench", &source, &edits);
    let (in_process, reference) = measure(
        engine.as_ref(),
        session,
        &targets,
        params.repeats,
        sweep_batched,
    );

    // Saturated in-process baseline: fresh engine, best over the same
    // thread counts the socket matrix uses, with the depth-8 sweep
    // budget so both sides time comparable windows.
    let sat_engine = fresh_engine();
    let in_process_saturated_qps = [1usize, 2, 4]
        .into_iter()
        .map(|threads| {
            measure_in_process_saturation(
                &sat_engine,
                &source,
                &edits,
                &targets,
                threads,
                params.repeats.max(1) * 8,
            )
        })
        .fold(0.0f64, f64::max);

    // Socket sweep: whole sweep as one frame.
    let server = Server::bind(&Addr::Unix(scratch_socket("sweep")), fresh_engine())
        .expect("bench server binds");
    let client: Client<D> = Client::connect_addr(server.addr()).expect("bench client connects");
    let session = grow(&client, "rpc-bench", &source, &edits);
    let (socket_sweep, sweep_answers) =
        measure(&client, session, &targets, params.repeats, sweep_batched);
    drop(client);
    server.shutdown();

    // Socket per-query: one frame per target.
    let server = Server::bind(&Addr::Unix(scratch_socket("per-query")), fresh_engine())
        .expect("bench server binds");
    let client: Client<D> = Client::connect_addr(server.addr()).expect("bench client connects");
    let session = grow(&client, "rpc-bench", &source, &edits);
    let (socket_per_query, per_query_answers) =
        measure(&client, session, &targets, params.repeats, sweep_per_query);
    drop(client);
    server.shutdown();

    // Socket pipelined: per-function bursts of single-query frames,
    // coalesced back into batches by the server's event loop.
    let server = Server::bind(&Addr::Unix(scratch_socket("pipelined")), fresh_engine())
        .expect("bench server binds");
    let client: Client<D> = Client::connect_addr(server.addr()).expect("bench client connects");
    let session = grow(&client, "rpc-bench", &source, &edits);
    let (socket_pipelined, pipelined_answers) =
        measure(&client, session, &targets, params.repeats, |c, s, t| {
            sweep_pipelined(c, s, t)
        });
    drop(client);
    server.shutdown();

    // Saturation matrix: one shared server/engine, per-connection
    // sessions. Depth amortizes syscall/scheduling round trips across
    // an in-flight window; connections add concurrent load on top.
    let server = Server::bind(&Addr::Unix(scratch_socket("saturation")), fresh_engine())
        .expect("bench server binds");
    let mut saturation = Vec::new();
    for conns in [1usize, 2, 4] {
        for depth in [1usize, 4, 8] {
            saturation.push(measure_saturation(
                &server,
                &source,
                &edits,
                &targets,
                conns,
                depth,
                params.repeats,
            ));
        }
    }
    server.shutdown();

    RpcBenchResult {
        host_cpus,
        functions,
        in_process,
        in_process_saturated_qps,
        socket_sweep,
        socket_per_query,
        socket_pipelined,
        saturation,
        answers_identical: reference == sweep_answers
            && reference == per_query_answers
            && reference == pipelined_answers,
    }
}

/// The invariants the acceptance gate (and CI) assert, independent of
/// timing noise.
///
/// # Errors
///
/// A human-readable description of the first violated invariant.
pub fn check_invariants(r: &RpcBenchResult) -> Result<(), String> {
    if !r.answers_identical {
        return Err("socket paths answered differently from the in-process sweep".to_string());
    }
    let inproc = &r.in_process.cold_counters;
    let sweep = &r.socket_sweep.cold_counters;
    let per_query = &r.socket_per_query.cold_counters;
    // The sweep frame must reproduce the in-process batched profile
    // exactly: the wire adds codec + transport, never extra locks or
    // cone traversals.
    if sweep.session_locks != inproc.session_locks {
        return Err(format!(
            "socket sweep changed the lock profile: {} locks vs {} in-process",
            sweep.session_locks, inproc.session_locks
        ));
    }
    if sweep.batch != inproc.batch {
        return Err(format!(
            "socket sweep changed the batch profile: {:?} vs {:?} in-process",
            sweep.batch, inproc.batch
        ));
    }
    if sweep.session_locks >= per_query.session_locks {
        return Err(format!(
            "sweep frame did not reduce lock acquisitions: {} >= {}",
            sweep.session_locks, per_query.session_locks
        ));
    }
    if per_query.batch.coalesced_queries != 0 {
        return Err(format!(
            "synchronous per-query frames unexpectedly coalesced {} queries",
            per_query.batch.coalesced_queries
        ));
    }
    if per_query.batch.singleton_queries != per_query.queries {
        return Err(format!(
            "per-query accounting broken: {} singletons for {} queries",
            per_query.batch.singleton_queries, per_query.queries
        ));
    }
    if sweep.batch.coalesced_queries + sweep.batch.singleton_queries != sweep.queries {
        return Err(format!(
            "sweep accounting broken: {} coalesced + {} singleton != {} queries",
            sweep.batch.coalesced_queries, sweep.batch.singleton_queries, sweep.queries
        ));
    }
    if sweep.batch.union_cone_walks != sweep.batch.batches {
        return Err(format!(
            "a cold coalesced batch must traverse exactly one union cone: \
             {} walks for {} batches",
            sweep.batch.union_cone_walks, sweep.batch.batches
        ));
    }
    let warm = &r.socket_sweep.warm_counters;
    if warm.batch.union_cone_walks != 0 {
        return Err(format!(
            "warm socket sweeps must answer without cone traversals, saw {}",
            warm.batch.union_cone_walks
        ));
    }
    // Pipelined per-query frames must keep the coalesced shape: every
    // session lock serves a whole drained batch (locks == batches +
    // singletons, so locks ≈ batches), never one lock per query. The
    // event loop may split a burst across reads, so allow a few extra
    // batches — but nowhere near one per query.
    let piped = &r.socket_pipelined.cold_counters;
    if piped.session_locks != piped.batch.batches + piped.batch.singleton_queries {
        return Err(format!(
            "pipelined lock accounting broken: {} locks vs {} batches + {} singletons",
            piped.session_locks, piped.batch.batches, piped.batch.singleton_queries
        ));
    }
    if piped.session_locks * 4 > piped.queries.max(1) {
        return Err(format!(
            "pipelined frames degenerated toward per-query locking: \
             {} locks for {} queries",
            piped.session_locks, piped.queries
        ));
    }
    if r.saturation.is_empty() {
        return Err("saturation matrix is empty".to_string());
    }
    for p in &r.saturation {
        if p.total_queries == 0 || p.elapsed.is_zero() {
            return Err(format!(
                "degenerate saturation point: {} queries in {:?} ({} conns, depth {})",
                p.total_queries, p.elapsed, p.conns, p.depth
            ));
        }
    }
    Ok(())
}

fn counters_json(c: &SweepCounters) -> String {
    format!(
        "{{\"queries\": {}, \"session_locks\": {}, \"batches\": {}, \
         \"coalesced_queries\": {}, \"singleton_queries\": {}, \
         \"union_cone_cells\": {}, \"union_cone_walks\": {}}}",
        c.queries,
        c.session_locks,
        c.batch.batches,
        c.batch.coalesced_queries,
        c.batch.singleton_queries,
        c.batch.union_cone_cells,
        c.batch.union_cone_walks
    )
}

fn variant_json(v: &VariantResult) -> String {
    format!(
        "{{\n    \"queries\": {}, \"cold_ms\": {:.3}, \"warm_ms_median\": {:.3}, \
         \"warm_qps_median\": {:.1},\n    \"cold_counters\": {},\n    \"warm_counters\": {}\n  }}",
        v.queries,
        v.cold.as_secs_f64() * 1e3,
        v.warm_median.as_secs_f64() * 1e3,
        v.warm_qps(),
        counters_json(&v.cold_counters),
        counters_json(&v.warm_counters)
    )
}

/// Renders the JSON artifact (hand-rolled; the workspace is offline).
pub fn to_json(profile: &str, params: &RpcBenchParams, r: &RpcBenchResult) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"rpc\",\n");
    s.push_str("  \"workload\": \"fig10_synthetic_octagon\",\n");
    s.push_str("  \"transport\": \"unix-socket\",\n");
    s.push_str(&format!("  \"profile\": \"{profile}\",\n"));
    s.push_str(&format!("  \"host_cpus\": {},\n", r.host_cpus));
    s.push_str("  \"host_cpus_provenance\": \"available_parallelism at measurement time\",\n");
    s.push_str(&format!(
        "  \"grow_edits\": {}, \"seed\": {}, \"repeats\": {},\n",
        params.grow_edits, params.seed, params.repeats
    ));
    s.push_str(&format!("  \"functions\": {},\n", r.functions));
    s.push_str(&format!(
        "  \"in_process\": {},\n",
        variant_json(&r.in_process)
    ));
    s.push_str(&format!(
        "  \"in_process_saturated_qps\": {:.1},\n",
        r.in_process_saturated_qps
    ));
    s.push_str(&format!(
        "  \"socket_sweep\": {},\n",
        variant_json(&r.socket_sweep)
    ));
    s.push_str(&format!(
        "  \"socket_per_query\": {},\n",
        variant_json(&r.socket_per_query)
    ));
    s.push_str(&format!(
        "  \"socket_pipelined\": {},\n",
        variant_json(&r.socket_pipelined)
    ));
    s.push_str("  \"saturation\": [\n");
    for (i, p) in r.saturation.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"conns\": {}, \"depth\": {}, \"total_queries\": {}, \
             \"elapsed_ms\": {:.3}, \"qps\": {:.1}}}{}\n",
            p.conns,
            p.depth,
            p.total_queries,
            p.elapsed.as_secs_f64() * 1e3,
            p.qps(),
            if i + 1 < r.saturation.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str(&format!(
        "  \"lock_ratio_sweep_vs_per_query\": {:.4},\n",
        r.socket_sweep.cold_counters.session_locks as f64
            / (r.socket_per_query.cold_counters.session_locks as f64).max(1.0)
    ));
    s.push_str(&format!(
        "  \"warm_qps_ratio_sweep_vs_per_query\": {:.4},\n",
        r.socket_sweep.warm_qps() / r.socket_per_query.warm_qps().max(1e-12)
    ));
    s.push_str(&format!(
        "  \"warm_qps_ratio_socket_vs_in_process_single_stream\": {:.4},\n",
        r.socket_sweep.warm_qps() / r.in_process.warm_qps().max(1e-12)
    ));
    s.push_str(&format!(
        "  \"warm_qps_ratio_socket_vs_in_process\": {:.4},\n",
        r.socket_vs_in_process_qps_ratio()
    ));
    s.push_str(&format!(
        "  \"answers_identical\": {}\n",
        r.answers_identical
    ));
    s.push_str("}\n");
    s
}

/// Validates a committed `BENCH_rpc.json` (required fields present and
/// the recorded invariants hold).
///
/// # Errors
///
/// A human-readable description of the first problem.
pub fn validate_artifact(json: &str) -> Result<(), String> {
    for field in [
        "\"bench\": \"rpc\"",
        "\"workload\"",
        "\"transport\"",
        "\"host_cpus\"",
        "\"functions\"",
        "\"in_process\"",
        "\"in_process_saturated_qps\"",
        "\"socket_sweep\"",
        "\"socket_per_query\"",
        "\"socket_pipelined\"",
        "\"saturation\"",
        "\"session_locks\"",
        "\"union_cone_walks\"",
        "\"lock_ratio_sweep_vs_per_query\"",
        "\"warm_qps_ratio_socket_vs_in_process\"",
        "\"answers_identical\": true",
    ] {
        if !json.contains(field) {
            return Err(format!("BENCH_rpc.json is missing {field}"));
        }
    }
    Ok(())
}

/// The recorded-throughput acceptance gate, applied to the *committed*
/// `BENCH_rpc.json` (never to a live smoke run, whose miniature
/// workload would make wall-clock CI-noisy): saturated socket sweep
/// throughput must hold ≥ 60% of the in-process baseline.
///
/// # Errors
///
/// A human-readable description when the recorded ratio is unreadable
/// or below the gate.
pub fn validate_recorded_gate(json: &str) -> Result<(), String> {
    let ratio = extract_number(json, "\"warm_qps_ratio_socket_vs_in_process\":")
        .ok_or("BENCH_rpc.json: unreadable warm_qps_ratio_socket_vs_in_process")?;
    if ratio < 0.60 {
        return Err(format!(
            "recorded socket/in-process throughput ratio {ratio:.4} is below the 0.60 gate"
        ));
    }
    Ok(())
}

/// Pulls the number following `key` out of the hand-rolled JSON.
fn extract_number(json: &str, key: &str) -> Option<f64> {
    let rest = &json[json.find(key)? + key.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_socket_sweep_matches_in_process_profile() {
        let params = RpcBenchParams {
            grow_edits: 4,
            seed: 7,
            repeats: 1,
        };
        let r = run_rpc_bench(&params);
        check_invariants(&r).unwrap();
        assert!(r.functions >= 2, "fig10 workload has several functions");
        assert!(
            r.socket_sweep.cold_counters.batch.union_cone_cells > 0,
            "cold sweeps load union cones"
        );
        let json = to_json("smoke", &params, &r);
        validate_artifact(&json).unwrap();
    }
}
