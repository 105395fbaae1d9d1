//! End-to-end contract of the `dai-rpc` wire API: a socket client must
//! be indistinguishable — answer for answer, DOT byte for DOT byte —
//! from the in-process engine, and no hostile bytes may take the server
//! (or even just the connection) down.
//!
//! * **equality** — on the Fig. 10 synthetic octagon workload (and a
//!   loopy single-function program), every `(function, location)` answer
//!   and the final session DOT obtained through a socket `Client`
//!   byte-match the in-process `Engine` path, under both
//!   `ResolverChoice::Intra` and `Interproc`, with two concurrent client
//!   connections;
//! * **ownership** — sessions die with their connection unless handed
//!   off explicitly;
//! * **hostility** — truncations, bit flips, bad checksums, wrong
//!   protocol versions, and oversized declared lengths each produce a
//!   structured `WireError` (or a clean connection close for
//!   unresyncable cuts), never a panic, and the server keeps serving —
//!   mirroring `persistence.rs`'s every-truncation-prefix sweep.

use dai_core::driver::ProgramEdit;
use dai_domains::{IntervalDomain, OctagonDomain};
use dai_engine::{
    Engine, EngineConfig, EngineError, ResolverChoice, Service, SessionId, SessionSnapshot,
};
use dai_lang::Loc;
use dai_persist::frame::{read_frame_id, write_frame_id, FrameHeader, FrameReadError};
use dai_persist::{PersistDomain, FRAME_HEADER_LEN, FRAME_ID_LEN};
use dai_rpc::{
    Addr, Client, Server, WireError, WireRequest, WireResponse, MAX_FRAME_LEN, PROTOCOL_VERSION,
    TAG_REQUEST, TAG_RESPONSE,
};
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dai_bench::workload::Workload;
use proptest::prelude::*;

const LOOPY: &str = "function f(n) { var i = 0; var s = 0; \
                     while (i < 9) { s = s + i; i = i + 1; } \
                     return s; }";

/// A unique scratch path for sockets and snapshots.
fn scratch(tag: &str) -> String {
    std::env::temp_dir()
        .join(format!(
            "dai-rpc-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
        .to_string_lossy()
        .into_owned()
}

/// Replays `grow` Workload edits through a scratch engine, returning the
/// deterministic (source, edit script, sorted sweep targets).
fn fig10_script(grow: usize, seed: u64) -> (String, Vec<ProgramEdit>, Vec<(String, Loc)>) {
    let source = Workload::initial_source();
    let engine: Engine<OctagonDomain> = Engine::new(1);
    let session = engine.open_session_src("gen", &source).unwrap();
    let mut gen = Workload::new(seed);
    let mut edits = Vec::new();
    for _ in 0..grow {
        let program = engine.program_of(session).unwrap();
        let edit = gen.next_edit(&program);
        Service::<OctagonDomain>::edit(&engine, session, &edit).unwrap();
        edits.push(edit);
    }
    let program = engine.program_of(session).unwrap();
    let mut targets = Vec::new();
    for cfg in program.cfgs() {
        for loc in cfg.locs() {
            targets.push((cfg.name().to_string(), loc));
        }
    }
    targets.sort();
    (source, edits, targets)
}

/// Opens a session named `name`, replays `edits`, sweeps `targets`, and
/// snapshots — the whole client lifecycle, over any service.
fn run_session<D: PersistDomain, S: Service<D>>(
    service: &S,
    name: &str,
    source: &str,
    edits: &[ProgramEdit],
    targets: &[(String, Loc)],
) -> (Vec<Result<D, String>>, SessionSnapshot) {
    let session = service.open(name, source).unwrap();
    for edit in edits {
        service.edit(session, edit).unwrap();
    }
    let answers = service
        .query_sweep(session, targets)
        .into_iter()
        .map(|r| r.map_err(|e| e.to_string()))
        .collect();
    let snapshot = service.snapshot(session).unwrap();
    (answers, snapshot)
}

fn engine_with(resolver: ResolverChoice) -> Arc<Engine<OctagonDomain>> {
    Arc::new(Engine::with_config(EngineConfig {
        workers: 1,
        resolver,
        ..EngineConfig::default()
    }))
}

/// The acceptance gate: socket answers and DOT bytes == in-process, with
/// two concurrent connections, under the given resolver.
fn socket_matches_in_process(resolver: ResolverChoice, tag: &str) {
    let (source, edits, targets) = fig10_script(10, 379422);
    // In-process reference.
    let (reference, reference_snap) = run_session(
        engine_with(resolver).as_ref(),
        "e2e",
        &source,
        &edits,
        &targets,
    );
    assert!(
        reference.iter().all(|r| r.is_ok()),
        "reference sweep answers"
    );
    // One server, two concurrent client connections doing the identical
    // lifecycle against their own sessions.
    let server = Server::bind(&Addr::Unix(scratch(tag)), engine_with(resolver)).unwrap();
    let addr = server.addr().to_string();
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let addr = addr.clone();
            let source = source.clone();
            let edits = edits.clone();
            let targets = targets.clone();
            // Named so any trace records they produce resolve to a real
            // thread name, never the recorder's `thread-{id}` fallback.
            std::thread::Builder::new()
                .name(format!("e2e-client-{i}"))
                .spawn(move || {
                    let client: Client<OctagonDomain> = Client::connect(&addr).unwrap();
                    run_session(&client, "e2e", &source, &edits, &targets)
                })
                .expect("spawn e2e client thread")
        })
        .collect();
    for worker in workers {
        let (answers, snap) = worker.join().unwrap();
        assert_eq!(answers, reference, "socket sweep answers differ");
        assert_eq!(
            snap, reference_snap,
            "socket session DOT is not byte-identical"
        );
    }
    server.shutdown();
}

#[test]
fn fig10_socket_equals_in_process_intra() {
    socket_matches_in_process(ResolverChoice::Intra, "intra");
}

#[test]
fn fig10_socket_equals_in_process_interproc() {
    socket_matches_in_process(
        ResolverChoice::Interproc {
            policy: dai_core::interproc::ContextPolicy::CallString(1),
        },
        "interproc",
    );
}

#[test]
fn loopy_program_roundtrips_with_unrolling() {
    let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::new(2));
    let server = Server::bind(&Addr::Unix(scratch("loopy")), Arc::clone(&engine)).unwrap();
    let client: Client<IntervalDomain> = Client::connect(&server.addr().to_string()).unwrap();
    let session = client.open("loopy", LOOPY).unwrap();
    let program = engine.program_of(session).unwrap();
    let cfg = program.by_name("f").unwrap();
    let targets: Vec<(String, Loc)> = cfg.locs().iter().map(|&l| ("f".to_string(), l)).collect();
    let remote: Vec<IntervalDomain> = client
        .query_sweep(session, &targets)
        .into_iter()
        .map(|r| r.unwrap())
        .collect();
    // In-process oracle on a fresh engine.
    let oracle_engine: Engine<IntervalDomain> = Engine::new(1);
    let oracle_session = oracle_engine.open_session_src("loopy", LOOPY).unwrap();
    for ((_, loc), got) in targets.iter().zip(&remote) {
        let want = oracle_engine.query(oracle_session, "f", *loc).unwrap();
        assert_eq!(*got, want, "socket answer differs at {loc}");
    }
    // The DOTs byte-match too (both sessions demanded the same cones).
    let remote_snap = client.snapshot(session).unwrap();
    let local_snap = Service::<IntervalDomain>::snapshot(&oracle_engine, oracle_session).unwrap();
    assert_eq!(remote_snap, local_snap);
    server.shutdown();
}

#[test]
fn sessions_die_with_their_connection_unless_handed_off() {
    let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::new(1));
    let server = Server::bind(&Addr::Unix(scratch("ownership")), Arc::clone(&engine)).unwrap();
    let addr = server.addr().to_string();
    let exit_of = |session: SessionId| {
        engine
            .program_of(session)
            .unwrap()
            .by_name("f")
            .unwrap()
            .exit()
    };

    // Without handoff: the session is closed when its connection ends.
    let client: Client<IntervalDomain> = Client::connect(&addr).unwrap();
    let orphan = client.open("orphan", LOOPY).unwrap();
    assert!(client.query(orphan, "f", exit_of(orphan)).is_ok());
    drop(client);
    // The connection handler closes owned sessions as it unwinds; poll
    // until the close lands (the disconnect is asynchronous).
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        match engine.program_of(orphan) {
            Err(EngineError::NoSuchSession(_)) => break,
            Ok(_) if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            other => panic!("orphaned session not closed: {other:?}"),
        }
    }

    // With handoff: the session survives and another connection uses it.
    let client: Client<IntervalDomain> = Client::connect(&addr).unwrap();
    let kept = client.open("kept", LOOPY).unwrap();
    let exit = exit_of(kept);
    let before = client.query(kept, "f", exit).unwrap();
    assert!(client.handoff(kept).unwrap(), "first handoff owns");
    assert!(!client.handoff(kept).unwrap(), "second handoff is a no-op");
    drop(client);
    let client2: Client<IntervalDomain> = Client::connect(&addr).unwrap();
    assert_eq!(client2.query(kept, "f", exit).unwrap(), before);
    // Closing an adopted session works from any connection.
    assert!(client2.close(kept).unwrap());
    server.shutdown();
}

#[test]
fn wire_stats_carry_batch_and_persist_counters() {
    let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::new(1));
    let server = Server::bind(&Addr::Unix(scratch("stats")), engine).unwrap();
    let client: Client<IntervalDomain> = Client::connect(&server.addr().to_string()).unwrap();
    let session = client.open("stats", LOOPY).unwrap();
    let targets: Vec<(String, Loc)> = {
        let snap_engine = server.engine();
        let program = snap_engine.program_of(session).unwrap();
        let cfg = program.by_name("f").unwrap();
        cfg.locs().iter().map(|&l| ("f".to_string(), l)).collect()
    };
    let before = client.stats().unwrap();
    for r in client.query_sweep(session, &targets) {
        r.unwrap();
    }
    let after = client.stats().unwrap();
    // The remote client can assert coalescing happened: one batch, one
    // lock, one union-cone walk, every member coalesced.
    assert_eq!(after.session_locks - before.session_locks, 1);
    assert_eq!(after.batch.batches - before.batch.batches, 1);
    assert_eq!(
        after.batch.coalesced_queries - before.batch.coalesced_queries,
        targets.len() as u64
    );
    assert_eq!(
        after.batch.union_cone_walks - before.batch.union_cone_walks,
        1
    );
    // And that persistence happened: saves/loads travel in the stats.
    let snap_path = scratch("stats-snapshot.daip");
    let saved = client.save(session, &snap_path).unwrap();
    assert!(saved.bytes > 0 && saved.funcs == 1);
    let (restored, outcome) = client.load(&snap_path).unwrap();
    assert!(outcome.is_warm(), "{outcome:?}");
    assert_ne!(restored, session);
    let after_persist = client.stats().unwrap();
    assert_eq!(after_persist.saves - after.saves, 1);
    assert_eq!(after_persist.loads - after.loads, 1);
    // The restored session answers over the wire too.
    let (f, loc) = targets.last().unwrap().clone();
    assert_eq!(
        client.query(restored, &f, loc).unwrap(),
        client.query(session, &f, loc).unwrap()
    );
    let _ = std::fs::remove_file(&snap_path);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Hostile frames.
// ---------------------------------------------------------------------

/// Where a frame's payload starts: after the fixed header and the request
/// id every RPC frame carries.
const PAYLOAD_AT: usize = FRAME_HEADER_LEN + FRAME_ID_LEN;

/// One frame in the RPC layout: header, request `id`, payload, checksum.
fn frame_of(tag: [u8; 4], version: u16, id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame_id(&mut out, tag, version, id, payload);
    out
}

/// The request id a (possibly damaged) frame carries, as a reader sees it.
fn id_in(frame: &[u8]) -> u64 {
    u64::from_le_bytes(frame[FRAME_HEADER_LEN..PAYLOAD_AT].try_into().unwrap())
}

/// A raw (frame-level) connection, for crafting hostile bytes a typed
/// `Client` cannot send. Every frame it writes carries a request id.
struct RawConn {
    stream: UnixStream,
    next_id: u64,
}

impl RawConn {
    /// Connects without saying hello.
    fn open(path: &str) -> RawConn {
        RawConn {
            stream: UnixStream::connect(path).expect("server socket accepts"),
            next_id: 1,
        }
    }

    /// Connects and completes the hello exchange.
    fn connect(path: &str) -> RawConn {
        let mut conn = RawConn::open(path);
        let id = conn.hello_at(PROTOCOL_VERSION);
        match conn.read_response() {
            Some((echo, WireResponse::HelloOk { .. })) if echo == id => conn,
            other => panic!("hello failed: {other:?}"),
        }
    }

    /// Sends an interval hello framed at `version`; returns its id.
    fn hello_at(&mut self, version: u16) -> u64 {
        let hello = dai_rpc::proto::encode_message(&WireRequest::Hello {
            domain: IntervalDomain::domain_tag(),
            auth: None,
        });
        self.send_frame(TAG_REQUEST, version, &hello)
    }

    fn send_raw(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send");
        self.stream.flush().expect("flush");
    }

    /// Sends one frame under a fresh request id and returns the id.
    fn send_frame(&mut self, tag: [u8; 4], version: u16, payload: &[u8]) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.send_raw(&frame_of(tag, version, id, payload));
        id
    }

    /// Sends one well-formed request frame and returns its id.
    fn send_request(&mut self, payload: &[u8]) -> u64 {
        self.send_frame(TAG_REQUEST, PROTOCOL_VERSION, payload)
    }

    /// Reads one response and its echoed id, or `None` when the server
    /// closed the connection instead.
    fn read_response(&mut self) -> Option<(u64, WireResponse)> {
        match read_frame_id(&mut self.stream, MAX_FRAME_LEN) {
            Ok(frame) => {
                assert_eq!(frame.header.tag, TAG_RESPONSE);
                assert_eq!(frame.header.version, PROTOCOL_VERSION);
                let payload = frame.payload.expect("server frames are well-formed");
                let response = dai_rpc::proto::decode_message::<WireResponse>(&payload).unwrap();
                Some((frame.id, response))
            }
            Err(FrameReadError::Eof) | Err(FrameReadError::Truncated) => None,
            Err(e) => panic!("client-side read failed oddly: {e}"),
        }
    }

    /// Reads one response and asserts it is an error answering `id`.
    fn expect_error(&mut self, id: u64) -> WireError {
        match self.read_response() {
            Some((echo, WireResponse::Error(e))) => {
                assert_eq!(echo, id, "the error must echo the request id ({e})");
                e
            }
            other => panic!("id {id}: expected an error, got {other:?}"),
        }
    }

    /// Sends a valid `Stats` request and asserts it is answered under its
    /// id — the probe that the connection survived whatever came before.
    fn assert_alive(&mut self) {
        let payload = dai_rpc::proto::encode_message(&WireRequest::Stats);
        let id = self.send_request(&payload);
        match self.read_response() {
            Some((echo, WireResponse::Stats(_))) if echo == id => {}
            other => panic!("connection did not survive: {other:?}"),
        }
    }

    /// Sends `bytes`, half-closes, and drains until the server closes the
    /// read side — the clean outcome for a frame with no resync point.
    fn send_and_hang_up(mut self, bytes: &[u8]) {
        self.send_raw(bytes);
        self.stream
            .shutdown(std::net::Shutdown::Write)
            .expect("half-close");
        while self.read_response().is_some() {}
    }
}

fn hostile_server() -> (Server<IntervalDomain>, String) {
    let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::new(1));
    let server = Server::bind(&Addr::Unix(scratch("hostile")), engine).unwrap();
    let path = match server.addr() {
        Addr::Unix(p) => p.clone(),
        other => panic!("expected unix addr, got {other}"),
    };
    (server, path)
}

#[test]
fn bad_checksum_answers_wire_error_and_connection_survives() {
    let (server, path) = hostile_server();
    let mut conn = RawConn::connect(&path);
    let payload = dai_rpc::proto::encode_message(&WireRequest::Stats);
    let mut frame = frame_of(TAG_REQUEST, PROTOCOL_VERSION, 77, &payload);
    // Flip one payload byte: the checksum must catch it.
    frame[PAYLOAD_AT] ^= 0xFF;
    conn.send_raw(&frame);
    let e = conn.expect_error(77);
    assert_eq!(e.code(), "protocol", "{e}");
    conn.assert_alive();
    server.shutdown();
}

#[test]
fn wrong_protocol_version_answers_structured_error_and_survives() {
    let (server, path) = hostile_server();
    // A hello one version behind — what a client of the previous
    // protocol sends — is refused in protocol, and a corrected hello on
    // the same connection succeeds.
    let mut conn = RawConn::open(&path);
    let id = conn.hello_at(PROTOCOL_VERSION - 1);
    match conn.expect_error(id) {
        WireError::UnsupportedVersion { got, want } => {
            assert_eq!((got, want), (PROTOCOL_VERSION - 1, PROTOCOL_VERSION));
        }
        other => panic!("expected version error, got {other:?}"),
    }
    let id = conn.hello_at(PROTOCOL_VERSION);
    assert!(matches!(
        conn.read_response(),
        Some((echo, WireResponse::HelloOk { .. })) if echo == id
    ));
    // After the hello, older and newer versions alike travel in the one
    // id layout: each frame is consumed whole, answered under its own id,
    // and the stream stays in sync for the next request.
    let payload = dai_rpc::proto::encode_message(&WireRequest::Stats);
    for version in [2, PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 41] {
        let id = conn.send_frame(TAG_REQUEST, version, &payload);
        match conn.expect_error(id) {
            WireError::UnsupportedVersion { got, want } => {
                assert_eq!((got, want), (version, PROTOCOL_VERSION));
            }
            other => panic!("v{version}: expected version error, got {other:?}"),
        }
        conn.assert_alive();
    }
    server.shutdown();
}

#[test]
fn oversized_declared_length_rejected_before_allocation_and_survives() {
    let (server, path) = hostile_server();
    let mut conn = RawConn::connect(&path);
    // A header declaring a multi-terabyte payload, with nothing behind
    // its id: the server must answer from the header and id alone
    // (allocating nothing) and stay in sync for the next real frame.
    let header = FrameHeader {
        tag: TAG_REQUEST,
        version: PROTOCOL_VERSION,
        len: 1 << 42,
    };
    let mut bytes = header.encode().to_vec();
    bytes.extend_from_slice(&31u64.to_le_bytes());
    conn.send_raw(&bytes);
    let e = conn.expect_error(31);
    assert_eq!(e.code(), "protocol");
    assert!(e.to_string().contains("exceeds"), "{e}");
    conn.assert_alive();
    server.shutdown();
}

#[test]
fn undecodable_and_misdirected_payloads_answer_wire_errors() {
    let (server, path) = hostile_server();
    let mut conn = RawConn::connect(&path);
    // Garbage payload under a valid frame (checksum fine, bytes absurd).
    let id = conn.send_request(&[0xFE, 0xDC, 0xBA]);
    assert_eq!(conn.expect_error(id).code(), "protocol");
    // Trailing bytes after a valid request are a violation, not padding.
    let mut padded = dai_rpc::proto::encode_message(&WireRequest::Stats);
    padded.extend_from_slice(b"padding");
    let id = conn.send_request(&padded);
    assert_eq!(conn.expect_error(id).code(), "protocol");
    // A response-tagged frame sent at the server: still id-framed, so
    // its id is echoed too.
    let payload = dai_rpc::proto::encode_message(&WireRequest::Stats);
    let id = conn.send_frame(TAG_RESPONSE, PROTOCOL_VERSION, &payload);
    assert_eq!(conn.expect_error(id).code(), "protocol");
    conn.assert_alive();
    server.shutdown();
}

#[test]
fn client_refuses_to_send_oversized_frames_and_stays_usable() {
    // A request whose encoding exceeds the frame bound must be rejected
    // client-side *before* hitting the wire — the server would answer
    // from the header alone and then misparse the payload bytes as
    // garbage frames, desynchronizing the connection.
    let (server, path) = hostile_server();
    let client: Client<IntervalDomain> = Client::connect(&format!("unix:{path}")).unwrap();
    let huge = "x".repeat(MAX_FRAME_LEN + 1);
    match client.open("huge", &huge) {
        Err(EngineError::Remote { code, message }) => {
            assert_eq!(code, "protocol");
            assert!(message.contains("exceeds"), "{message}");
        }
        other => panic!("expected a client-side bound rejection, got {other:?}"),
    }
    // Nothing was sent: the connection is still in sync.
    let session = client.open("after", LOOPY).unwrap();
    assert!(client.close(session).unwrap());
    server.shutdown();
}

#[test]
fn requests_before_hello_are_rejected_in_protocol() {
    let (server, path) = hostile_server();
    let mut conn = RawConn::open(&path);
    let payload = dai_rpc::proto::encode_message(&WireRequest::Stats);
    let id = conn.send_request(&payload);
    let e = conn.expect_error(id);
    assert_eq!(e.code(), "protocol");
    assert!(e.to_string().contains("hello"), "{e}");
    server.shutdown();
}

#[test]
fn domain_mismatch_is_a_structured_error() {
    let (server, path) = hostile_server(); // serves IntervalDomain
    let err = match Client::<OctagonDomain>::connect(&format!("unix:{path}")) {
        Err(e) => e,
        Ok(_) => panic!("octagon client connected to an interval server"),
    };
    match err {
        EngineError::Remote { code, message } => {
            assert_eq!(code, "domain");
            assert!(
                message.contains("octagon") && message.contains("interval"),
                "{message}"
            );
        }
        other => panic!("expected domain mismatch, got {other}"),
    }
    // The rejection did not hurt the server: the right domain connects.
    let ok = Client::<IntervalDomain>::connect(&format!("unix:{path}"));
    assert!(ok.is_ok());
    server.shutdown();
}

#[test]
fn every_truncation_prefix_is_handled_cleanly() {
    // The socket mirror of persistence.rs's every-truncation-prefix
    // sweep: for each proper prefix of a valid request frame, a fresh
    // connection sends the prefix and hangs up; the server must neither
    // panic nor stop serving. (A cut frame has no resync point, so the
    // clean outcome for the cut connection is a close — the guarantee
    // under test is server survival plus clean teardown, exactly like a
    // truncated snapshot file degrading instead of crashing.)
    let (server, path) = hostile_server();
    let payload = dai_rpc::proto::encode_message(&WireRequest::Query {
        session: 1,
        func: "f".to_string(),
        loc: Loc(3),
    });
    let frame = frame_of(TAG_REQUEST, PROTOCOL_VERSION, 5, &payload);
    for cut in 0..frame.len() {
        // A response would only arrive for a prefix that happens to be a
        // complete frame; EOF is the expected outcome.
        RawConn::connect(&path).send_and_hang_up(&frame[..cut]);
    }
    // After the whole sweep, the server still serves typed clients.
    let client: Client<IntervalDomain> = Client::connect(&format!("unix:{path}")).unwrap();
    let session = client.open("after-sweep", LOOPY).unwrap();
    let exit = server
        .engine()
        .program_of(session)
        .unwrap()
        .by_name("f")
        .unwrap()
        .exit();
    assert!(client.query(session, "f", exit).is_ok());
    server.shutdown();
}

/// The pure-decode half of the hostile sweep: whatever bytes arrive,
/// message decoding returns a structured error rather than panicking or
/// over-allocating. This is the layer the socket tests drive end to
/// end; fuzzing it directly covers orders of magnitude more inputs per
/// second than a connection per case would.
fn decode_never_panics(bytes: &[u8]) {
    let _ = dai_rpc::proto::decode_message::<WireRequest>(bytes);
    let _ = dai_rpc::proto::decode_message::<WireResponse>(bytes);
    let _ = dai_persist::split_frame(bytes);
    let _ = dai_persist::decode_trace_frame(bytes);
    let _ = read_frame_id(&mut &bytes[..], MAX_FRAME_LEN);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn fuzzed_frames_decode_to_errors_not_panics(seed in 0u64..1_000_000) {
        // Deterministic pseudo-random mutations of a real frame: flips,
        // truncations, and splices at seed-chosen positions, plus raw
        // seed-derived garbage.
        let payload = dai_rpc::proto::encode_message(&WireRequest::Sweep {
            session: seed,
            targets: vec![("main".to_string(), Loc(seed as u32 % 17))],
        });
        let frame = frame_of(TAG_REQUEST, PROTOCOL_VERSION, seed, &payload);
        let a = (seed as usize) % frame.len();
        let b = (seed as usize / 7) % frame.len();
        decode_never_panics(&frame[..a]);
        let mut flipped = frame.clone();
        flipped[a] ^= (seed % 255) as u8 + 1;
        decode_never_panics(&flipped);
        let mut spliced = frame[..a].to_vec();
        spliced.extend_from_slice(&frame[b..]);
        decode_never_panics(&spliced);
        let garbage: Vec<u8> = (0..(seed % 64)).map(|i| (seed >> (i % 8)) as u8).collect();
        decode_never_panics(&garbage);
    }
}

// ---------------------------------------------------------------------
// Trace & metrics over the wire.
// ---------------------------------------------------------------------

/// A seed-derived trace dump: the generator shared by the roundtrip
/// proptests below. Index tables are kept consistent with the records
/// (the persist codec rejects out-of-range label/thread indices).
fn arbitrary_dump(seed: u64) -> dai_engine::TraceDump {
    let labels = vec![
        "engine.session_lock".to_string(),
        "engine.cone_walk".to_string(),
        "engine.cells".to_string(),
    ];
    let threads = vec!["dai-worker-0".to_string(), "dai-rpc-conn-3".to_string()];
    let records = (0..(seed % 9))
        .map(|i| {
            let start = seed.rotate_left(i as u32).wrapping_mul(i + 1);
            dai_trace::Record {
                label: (i % labels.len() as u64) as u32,
                thread: (i % threads.len() as u64) as u32,
                kind: if (seed >> i) & 1 == 0 {
                    dai_trace::RecordKind::Span
                } else {
                    dai_trace::RecordKind::Event
                },
                start_ns: start,
                end_ns: start.saturating_add(seed % 1_000),
                arg: seed ^ i,
            }
        })
        .collect();
    let dropped = seed % 5;
    dai_engine::TraceDump {
        records,
        labels,
        threads,
        dropped,
        dropped_by_thread: vec![dropped / 2, dropped - dropped / 2],
    }
}

#[test]
fn trace_and_metrics_roundtrip_over_socket() {
    let (server, path) = hostile_server();
    let client: Client<IntervalDomain> = Client::connect(&format!("unix:{path}")).unwrap();
    client.trace_enable().unwrap();
    let session = client.open("traced", LOOPY).unwrap();
    let exit = server
        .engine()
        .program_of(session)
        .unwrap()
        .by_name("f")
        .unwrap()
        .exit();
    client.query(session, "f", exit).unwrap();
    let dump = client.trace_dump().unwrap();
    client.trace_disable().unwrap();
    // Index tables stayed consistent across the wire.
    for r in &dump.records {
        assert!(
            (r.label as usize) < dump.labels.len(),
            "label index in range"
        );
        assert!(
            (r.thread as usize) < dump.threads.len(),
            "thread index in range"
        );
    }
    if dai_trace::TraceConfig::probes_compiled() {
        assert!(!dump.records.is_empty(), "a traced query left no records");
        assert!(
            dump.labels.iter().any(|l| l == "engine.session_lock"),
            "query path spans missing from {:?}",
            dump.labels
        );
    } else {
        assert!(dump.records.is_empty(), "no-probe build recorded spans");
    }
    // Metrics exposition carries the engine counters for the query above.
    let text = client.metrics().unwrap();
    assert!(text.contains("# TYPE dai_engine_queries gauge"), "{text}");
    assert!(
        text.contains("dai_engine_batch_serve_seconds_bucket"),
        "{text}"
    );
    server.shutdown();
}

/// The hostile sweep of one request payload, framed at the current
/// version: every proper prefix on a fresh connection (clean close), and
/// every byte flip after the header — request id, payload and checksum —
/// on one connection (each answered with a `protocol` error echoing the
/// id as the server read it; the connection survives to the next
/// request). Header flips can desync, so they run on fresh connections.
fn sweep_truncations_and_flips(path: &str, payload: &[u8]) {
    let frame = frame_of(TAG_REQUEST, PROTOCOL_VERSION, 0x5EED, payload);
    for cut in 0..frame.len() {
        RawConn::connect(path).send_and_hang_up(&frame[..cut]);
    }
    let mut conn = RawConn::connect(path);
    for i in FRAME_HEADER_LEN..frame.len() {
        let mut flipped = frame.clone();
        flipped[i] ^= 0xFF;
        conn.send_raw(&flipped);
        let e = conn.expect_error(id_in(&flipped));
        assert_eq!(e.code(), "protocol", "flip at {i}: {e}");
    }
    conn.assert_alive();
    for i in 0..FRAME_HEADER_LEN {
        let mut flipped = frame.clone();
        flipped[i] ^= 0xFF;
        RawConn::connect(path).send_and_hang_up(&flipped);
    }
}

#[test]
fn trace_and_metrics_requests_survive_truncations_and_flips() {
    // The hostile sweeps of the two wire messages: every proper prefix
    // of a valid frame and every byte flip (see
    // `sweep_truncations_and_flips`).
    let (server, path) = hostile_server();
    let payloads = [
        dai_rpc::proto::encode_message(&WireRequest::Trace {
            op: dai_engine::TraceOp::Dump,
        }),
        dai_rpc::proto::encode_message(&WireRequest::Metrics),
    ];
    for payload in &payloads {
        sweep_truncations_and_flips(&path, payload);
    }
    // The server outlived both sweeps.
    let client: Client<IntervalDomain> = Client::connect(&format!("unix:{path}")).unwrap();
    assert!(client.metrics().is_ok());
    server.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

    #[test]
    fn trace_wire_messages_roundtrip(seed in 0u64..1_000_000) {
        let dump = arbitrary_dump(seed);
        // Wire response roundtrip.
        let encoded = dai_rpc::proto::encode_message(&WireResponse::Trace(dump.clone()));
        match dai_rpc::proto::decode_message::<WireResponse>(&encoded) {
            Ok(WireResponse::Trace(back)) => prop_assert_eq!(&back, &dump),
            other => panic!("bad decode: {other:?}"),
        }
        // Request roundtrips for all three ops and the metrics pair.
        use dai_engine::TraceOp;
        for op in [TraceOp::Enable, TraceOp::Disable, TraceOp::Dump] {
            let bytes = dai_rpc::proto::encode_message(&WireRequest::Trace { op });
            prop_assert!(matches!(
                dai_rpc::proto::decode_message::<WireRequest>(&bytes),
                Ok(WireRequest::Trace { op: got }) if got == op
            ));
        }
        let bytes = dai_rpc::proto::encode_message(&WireRequest::Metrics);
        prop_assert!(matches!(
            dai_rpc::proto::decode_message::<WireRequest>(&bytes),
            Ok(WireRequest::Metrics)
        ));
        let text = format!("# TYPE x counter\nx {seed}\n");
        let bytes = dai_rpc::proto::encode_message(&WireResponse::Metrics { text: text.clone() });
        match dai_rpc::proto::decode_message::<WireResponse>(&bytes) {
            Ok(WireResponse::Metrics { text: got }) => prop_assert_eq!(got, text),
            other => panic!("bad decode: {other:?}"),
        }
    }

    #[test]
    fn trace_binary_frame_roundtrips_and_rejects_mutations(seed in 0u64..1_000_000) {
        let dump = arbitrary_dump(seed);
        let frame = dai_persist::encode_trace_frame(&dump);
        let back = dai_persist::decode_trace_frame(&frame)
            .unwrap_or_else(|e| panic!("own frame rejected: {e}"));
        prop_assert_eq!(&back, &dump);
        // Every proper prefix is a structured error, never a panic.
        for cut in 0..frame.len() {
            prop_assert!(dai_persist::decode_trace_frame(&frame[..cut]).is_err());
        }
        // Every single-byte flip is checksum- (or header-) caught.
        for i in 0..frame.len() {
            let mut flipped = frame.clone();
            flipped[i] ^= 0xFF;
            prop_assert!(dai_persist::decode_trace_frame(&flipped).is_err());
        }
    }
}

// ---------------------------------------------------------------------
// Explain over the wire.
// ---------------------------------------------------------------------

#[test]
fn explain_over_socket_is_byte_identical_to_in_process() {
    let (server, path) = hostile_server();
    let client: Client<IntervalDomain> = Client::connect(&format!("unix:{path}")).unwrap();
    let session = client.open("explain", LOOPY).unwrap();
    let targets: Vec<(String, Loc)> = {
        let program = server.engine().program_of(session).unwrap();
        let cfg = program.by_name("f").unwrap();
        cfg.locs().iter().map(|&l| ("f".to_string(), l)).collect()
    };
    let remote = client.explain(session, &targets).unwrap();
    // The engine keeps the report it just served; the socket copy must
    // equal it — and re-encode to the identical EXPL frame bytes, the
    // same binary form `explain --json` artifacts use on disk.
    let local = server
        .engine()
        .last_explain()
        .expect("the engine kept the report it served");
    assert_eq!(remote, local);
    assert_eq!(
        dai_persist::encode_explain_frame(&remote),
        dai_persist::encode_explain_frame(&local),
        "socket-fetched report does not re-encode byte-identically"
    );
    // A real capture travelled: a cold loopy sweep computes cells, runs
    // a fix, and its accounting matches the engine's own counters.
    assert!(!remote.cells.is_empty(), "no cells attributed");
    assert!(!remote.fixes.is_empty(), "loopy sweep ran no fixpoint");
    assert!(remote.parallelism() >= 1.0);
    let stats = client.stats().unwrap();
    remote
        .check_accounting(&stats.query_stats)
        .expect("wire report disagrees with engine counters");
    server.shutdown();
}

#[test]
fn explain_on_an_interprocedural_server_is_a_structured_error() {
    let engine = engine_with(ResolverChoice::Interproc {
        policy: dai_core::interproc::ContextPolicy::CallString(1),
    });
    let server = Server::bind(&Addr::Unix(scratch("explain-inter")), engine).unwrap();
    let client: Client<OctagonDomain> = Client::connect(&server.addr().to_string()).unwrap();
    let session = client.open("explain-inter", LOOPY).unwrap();
    let program = server.engine().program_of(session).unwrap();
    let exit = program.by_name("f").unwrap().exit();
    let err = client
        .explain(session, &[("f".to_string(), exit)])
        .expect_err("explain must refuse the interprocedural backend");
    assert!(
        err.to_string().contains("intraprocedural"),
        "unexpected error: {err}"
    );
    // The refusal is in protocol: the connection still serves queries.
    assert!(client.query(session, "f", exit).is_ok());
    server.shutdown();
}

#[test]
fn explain_requests_survive_truncations_and_flips() {
    // The hostile sweep of the explain wire message, mirroring the
    // trace/metrics sweeps above.
    let (server, path) = hostile_server();
    let payload = dai_rpc::proto::encode_message(&WireRequest::Explain {
        session: 1,
        targets: vec![("f".to_string(), Loc(2))],
    });
    sweep_truncations_and_flips(&path, &payload);
    // The server outlived the sweep and still explains.
    let client: Client<IntervalDomain> = Client::connect(&format!("unix:{path}")).unwrap();
    let session = client.open("after-hostile", LOOPY).unwrap();
    let exit = server
        .engine()
        .program_of(session)
        .unwrap()
        .by_name("f")
        .unwrap()
        .exit();
    assert!(client.explain(session, &[("f".to_string(), exit)]).is_ok());
    server.shutdown();
}

#[test]
fn every_single_byte_flip_is_handled_cleanly() {
    // Bit-flip sweep over a whole valid frame: each position is flipped
    // on its own fresh connection. Depending on the position the server
    // sees a bad tag, a bad version, a lying length, a damaged id, a
    // checksum mismatch, or an undecodable payload — every one must end in a
    // structured error or a clean close, and the server must survive
    // them all.
    let (server, path) = hostile_server();
    let payload = dai_rpc::proto::encode_message(&WireRequest::Stats);
    let frame = frame_of(TAG_REQUEST, PROTOCOL_VERSION, 3, &payload);
    for i in 0..frame.len() {
        let mut flipped = frame.clone();
        flipped[i] ^= 0xFF;
        // Either a structured response (error, or Stats when the flip
        // landed somewhere harmless… it never is, but the contract is
        // "no panic, no hang") or a clean close.
        RawConn::connect(&path).send_and_hang_up(&flipped);
    }
    let client: Client<IntervalDomain> = Client::connect(&format!("unix:{path}")).unwrap();
    assert!(Service::<IntervalDomain>::stats(&client).is_ok());
    server.shutdown();
}

// ---------------------------------------------------------------------
// Multiplexed pipelining, auth, version refusal, shutdown churn.
// ---------------------------------------------------------------------

#[test]
fn hostile_pipelining_keeps_stream_in_sync_and_answers_every_id() {
    // The pipelining hostile sweep: valid pipelined queries with an
    // oversized-declared frame and a checksum-damaged frame spliced
    // between them, all written in ONE burst. The stream must stay at
    // frame boundaries, every id — hostile or not — must be answered,
    // and the connection must survive to serve the next request.
    let (server, path) = hostile_server();
    let mut conn = RawConn::connect(&path);

    // A real session to query, set up over the same raw connection.
    let open = dai_rpc::proto::encode_message(&WireRequest::Open {
        name: "hp".to_string(),
        source: LOOPY.to_string(),
    });
    let id = conn.send_request(&open);
    let session = match conn.read_response() {
        Some((echo, WireResponse::Opened { session })) if echo == id => session,
        other => panic!("open failed: {other:?}"),
    };
    let locs: Vec<Loc> = {
        let program = server.engine().program_of(SessionId(session)).unwrap();
        program.by_name("f").unwrap().locs()
    };

    let query = |loc: Loc| {
        dai_rpc::proto::encode_message(&WireRequest::Query {
            session,
            func: "f".to_string(),
            loc,
        })
    };
    let valid = |id: u64, loc: Loc| frame_of(TAG_REQUEST, PROTOCOL_VERSION, id, &query(loc));
    // id 10: valid query.
    let mut burst = valid(10, locs[0]);
    // id 11: header declaring a multi-terabyte payload — the server must
    // reject from the header+id alone and resume at the next byte.
    let lying = FrameHeader {
        tag: TAG_REQUEST,
        version: PROTOCOL_VERSION,
        len: 1 << 42,
    };
    burst.extend_from_slice(&lying.encode());
    burst.extend_from_slice(&11u64.to_le_bytes());
    // id 12: valid query.
    burst.extend(valid(12, locs[1 % locs.len()]));
    // id 13: checksum-damaged frame (payload byte flipped after framing).
    let mut damaged = valid(13, locs[0]);
    damaged[PAYLOAD_AT] ^= 0xFF;
    burst.extend(damaged);
    // id 14: valid query.
    burst.extend(valid(14, locs[2 % locs.len()]));
    conn.send_raw(&burst);

    // Five ids in flight; answers may arrive in any order.
    let mut answers = std::collections::HashMap::new();
    for _ in 0..5 {
        let (id, response) = conn.read_response().expect("server keeps the connection");
        assert!(
            answers.insert(id, response).is_none(),
            "id {id} answered twice"
        );
    }
    for id in [10u64, 12, 14] {
        match answers.remove(&id) {
            Some(WireResponse::State(_)) => {}
            other => panic!("id {id}: expected a state, got {other:?}"),
        }
    }
    match answers.remove(&11) {
        Some(WireResponse::Error(e)) => {
            assert_eq!(e.code(), "protocol");
            assert!(e.to_string().contains("exceeds"), "{e}");
        }
        other => panic!("id 11: expected the oversize rejection, got {other:?}"),
    }
    match answers.remove(&13) {
        Some(WireResponse::Error(e)) => {
            assert_eq!(e.code(), "protocol");
            assert!(e.to_string().contains("checksum"), "{e}");
        }
        other => panic!("id 13: expected the checksum rejection, got {other:?}"),
    }
    assert!(answers.is_empty(), "unexpected extra answers: {answers:?}");

    // The connection survived the whole splice.
    conn.assert_alive();
    server.shutdown();
}

#[test]
fn pipelined_per_query_frames_reproduce_the_coalesced_lock_profile() {
    // The tentpole's acceptance check: a client that pipelines plain
    // per-query frames over one socket gets the engine's coalesced
    // profile — session locks ≈ batches, not ≈ queries — because the
    // server's event loop batches adjacent same-function query frames
    // into one `submit_query_batch` call.
    let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::new(1));
    let server = Server::bind(&Addr::Unix(scratch("pipeline")), Arc::clone(&engine)).unwrap();
    let client: Client<IntervalDomain> = Client::connect(&server.addr().to_string()).unwrap();
    let session = client.open("pipeline", LOOPY).unwrap();
    let locs: Vec<Loc> = engine
        .program_of(session)
        .unwrap()
        .by_name("f")
        .unwrap()
        .locs();
    let before = client.stats().unwrap();
    let answers = client.pipeline_queries(session, "f", &locs);
    let after = client.stats().unwrap();

    // Every pipelined id answered, and correctly: the answers match the
    // serial oracle on a fresh engine.
    assert_eq!(answers.len(), locs.len());
    let oracle: Engine<IntervalDomain> = Engine::new(1);
    let oracle_session = oracle.open_session_src("oracle", LOOPY).unwrap();
    for (loc, got) in locs.iter().zip(&answers) {
        let want = oracle.query(oracle_session, "f", *loc).unwrap();
        assert_eq!(
            got.as_ref().unwrap(),
            &want,
            "pipelined answer differs at {loc}"
        );
    }

    // The lock profile is the batched one. The burst may land in more
    // than one read drain (the loop can wake mid-write), so don't pin
    // "exactly one batch" — the assertions that matter are one lock per
    // drain and drains ≪ queries.
    let locks = after.session_locks - before.session_locks;
    let batches = after.batch.batches - before.batch.batches;
    let coalesced = after.batch.coalesced_queries - before.batch.coalesced_queries;
    let singleton = after.batch.singleton_queries - before.batch.singleton_queries;
    assert_eq!(
        coalesced + singleton,
        locs.len() as u64,
        "every query served"
    );
    assert_eq!(locks, batches + singleton, "one session lock per drain");
    assert!(
        locks * 4 <= locs.len() as u64,
        "pipelined frames did not coalesce: {locks} session locks for {} queries",
        locs.len()
    );
    server.shutdown();
}

#[test]
fn auth_token_gates_the_hello_exchange() {
    let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::new(1));
    let server = dai_rpc::Server::bind_with(
        &Addr::Unix(scratch("auth")),
        engine,
        dai_rpc::ServerConfig {
            auth_token: Some("s3cret".to_string()),
        },
    )
    .unwrap();
    let addr = Addr::parse(&server.addr().to_string()).unwrap();

    // Missing and wrong tokens: structured `unauthorized`, no session.
    for bad in [None, Some("wrong".to_string())] {
        let got =
            Client::<IntervalDomain>::connect_with(&addr, dai_rpc::ClientOptions { auth: bad });
        match got {
            Err(EngineError::Remote { code, .. }) => assert_eq!(code, "unauthorized"),
            other => panic!("expected unauthorized, got {:?}", other.err()),
        }
    }

    // The right token connects and serves.
    let client = Client::<IntervalDomain>::connect_with(
        &addr,
        dai_rpc::ClientOptions {
            auth: Some("s3cret".to_string()),
        },
    )
    .unwrap();
    let session = client.open("authed", LOOPY).unwrap();
    assert!(client.close(session).unwrap());

    // A rejected hello leaves the connection usable for a retry — the
    // server answers in protocol rather than hanging up.
    server.shutdown();
}

#[test]
fn client_takes_a_refused_version_as_final() {
    // A stand-in for a server of an older protocol answers each hello
    // from its header and id alone — `UnsupportedVersion` naming the
    // older version — so it never blocks on a payload layout. Whether the
    // refusal is framed at the client's own version (readable: the case a
    // negotiating client would downshift on) or at the older one, the
    // client must fail with code `version` on that one connection and
    // never reconnect to renegotiate.
    for own_framing in [true, false] {
        let path = scratch(if own_framing {
            "refusal-own"
        } else {
            "refusal-older"
        });
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).unwrap();
        listener.set_nonblocking(true).unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let older_server = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut accepted = Vec::new();
                while !done.load(Ordering::SeqCst) {
                    let mut stream = match listener.accept() {
                        Ok((stream, _)) => stream,
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(std::time::Duration::from_millis(5));
                            continue;
                        }
                        Err(e) => panic!("accept failed: {e}"),
                    };
                    stream.set_nonblocking(false).unwrap();
                    let mut pre = [0u8; PAYLOAD_AT];
                    stream.read_exact(&mut pre).unwrap();
                    let header = FrameHeader::decode(pre[..FRAME_HEADER_LEN].try_into().unwrap());
                    let older = header.version - 1;
                    let refusal = dai_rpc::proto::encode_message(&WireResponse::Error(
                        WireError::UnsupportedVersion {
                            got: header.version,
                            want: older,
                        },
                    ));
                    let framed_at = if own_framing { header.version } else { older };
                    stream
                        .write_all(&frame_of(TAG_RESPONSE, framed_at, id_in(&pre), &refusal))
                        .unwrap();
                    accepted.push(stream);
                }
                accepted.len()
            })
        };
        let got = Client::<IntervalDomain>::connect_addr(&Addr::Unix(path.clone()));
        done.store(true, Ordering::SeqCst);
        let accepted = older_server.join().expect("stand-in server must not panic");
        match got {
            Err(EngineError::Remote { code, .. }) => assert_eq!(code, "version"),
            other => panic!("expected a version refusal, got {:?}", other.err()),
        }
        assert_eq!(
            accepted, 1,
            "the client reconnected to renegotiate (own framing: {own_framing})"
        );
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn shutdown_survives_a_connection_churn_storm() {
    // Connections being opened, used, and dropped *while the server is
    // shutting down* must neither panic (the old per-connection handler
    // table had a join/remove race here) nor hang the shutdown.
    let engine: Arc<Engine<IntervalDomain>> = Arc::new(Engine::new(1));
    let server = Server::bind(&Addr::Unix(scratch("churn")), engine).unwrap();
    let addr = server.addr().to_string();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let churners: Vec<_> = (0..3)
        .map(|i| {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("churn-{i}"))
                .spawn(move || {
                    let mut connected = 0usize;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        // Failures are expected once shutdown begins; the
                        // invariant is no panic and no hang.
                        if let Ok(client) = Client::<IntervalDomain>::connect(&addr) {
                            connected += 1;
                            if connected.is_multiple_of(2) {
                                let _ = client.open("churn", LOOPY);
                            }
                        }
                    }
                    connected
                })
                .expect("spawn churner")
        })
        .collect();
    // Let the storm build, then shut down in the middle of it.
    std::thread::sleep(std::time::Duration::from_millis(100));
    server.shutdown();
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut total = 0;
    for churner in churners {
        total += churner.join().expect("churner must not panic");
    }
    assert!(total > 0, "the storm never connected at all");
}
