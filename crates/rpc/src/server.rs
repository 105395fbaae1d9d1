//! The socket front end: one [`dai_engine::Engine`], many connections,
//! one event loop.
//!
//! A [`Server`] binds a TCP or Unix socket and routes decoded
//! [`WireRequest`] frames into the engine it wraps. Connections are not
//! threads: a single readiness event loop (epoll, hand-rolled — no
//! dependency, matching the rest of the stack) owns every nonblocking
//! socket, parses frames incrementally out of per-connection read
//! buffers, and dispatches queries as [`dai_engine::Ticket`]s whose
//! completion hooks wake the loop through a self-pipe. One connection
//! can therefore carry **many in-flight requests** (every frame carries
//! a request id; responses may complete out of order), and the loop
//! never blocks on the engine.
//!
//! ## Pipelined coalescing
//!
//! Adjacent `Query` frames against the same `(session, function)` that
//! arrive in one read drain are submitted through
//! [`dai_engine::Engine::submit_query_batch`] as **one** batch — one
//! session-lock acquisition, one union-cone evaluation — while each
//! frame keeps its own request id and gets its own response. A client
//! that pipelines per-query frames over one socket reproduces the
//! in-process coalesced lock profile without ever building an explicit
//! batch. Runs break at any non-query frame, so an interleaved `Edit`
//! keeps its submission-order fencing semantics.
//!
//! ## Backpressure
//!
//! Per-connection buffers are bounded in both directions. A connection
//! whose write queue backlog passes the soft cap (or that has too many
//! requests in flight) stops being *read* — its socket fills, the peer's
//! sends stall, and memory stays put. If the backlog still passes the
//! hard cap (responses already owed can be large), further responses are
//! replaced with a structured [`WireError::Overloaded`] carrying the
//! same request id — the peer always learns the fate of every request,
//! and the server never buffers unboundedly for a slow reader.
//!
//! ## Session ownership
//!
//! Sessions a connection opens ([`WireRequest::Open`]) or restores
//! ([`WireRequest::Load`]) are **owned by that connection**: when it
//! disconnects, they are closed — a crashed IDE does not leak sessions
//! into a long-lived server. [`WireRequest::Handoff`] releases a session
//! to the engine (the explicit handoff), after which it survives the
//! connection. (A `Load` whose connection dies before the restore
//! completes also leaves the session engine-owned, as if handed off.)
//!
//! ## Hostile bytes
//!
//! Malformed traffic is answered in protocol, not with a dropped
//! connection: a damaged frame (checksum mismatch), an oversized
//! declared length (rejected from the header and id alone), an
//! undecodable payload, or a frame with the wrong protocol version each
//! produce one structured [`WireError`] response — with the offending frame's
//! request id echoed (every frame carries one, whatever its tag or
//! version) — and parsing continues at the next frame boundary. Only
//! transport EOF/errors end a connection, and ending a connection never
//! takes the server down.

use dai_engine::{Engine, EngineError, Request, Response, SessionId, Ticket};
use dai_persist::frame::{
    checksum_with_id, write_frame_id, FrameHeader, FRAME_HEADER_LEN, FRAME_ID_LEN,
    FRAME_TRAILER_LEN,
};
use dai_persist::PersistDomain;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::raw::c_int;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::proto::{
    decode_message, encode_message, WireError, WireRequest, WireResponse, WireState, MAX_FRAME_LEN,
    PROTOCOL_VERSION, TAG_REQUEST, TAG_RESPONSE,
};

/// Write-queue backlog (bytes) above which a connection stops being
/// read: the peer's own sends stall instead of the server buffering.
const SOFT_WRITE_CAP: usize = 1 << 20;

/// Write-queue backlog (bytes) above which further responses are
/// replaced with [`WireError::Overloaded`] (the id still answers). The
/// backlog can legitimately exceed the *soft* cap by responses already
/// owed, so the hard cap bounds worst-case memory per connection at
/// roughly `HARD_WRITE_CAP + MAX_FRAME_LEN`.
const HARD_WRITE_CAP: usize = 8 << 20;

/// In-flight request cap per connection; reads stall above it.
const MAX_INFLIGHT: usize = 1024;

// ---------------------------------------------------------------------
// epoll via the platform libc that std already links: no new deps.
// ---------------------------------------------------------------------

const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;

#[repr(C, packed)]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
}

/// An owned epoll instance.
struct Epoll {
    fd: RawFd,
}

impl Epoll {
    fn new() -> std::io::Result<Epoll> {
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        let rc = unsafe { epoll_ctl(self.fd, op, fd, &mut ev) };
        if rc < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(())
    }

    fn add(&self, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, events, token)
    }

    fn modify(&self, fd: RawFd, events: u32, token: u64) -> std::io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, events, token)
    }

    fn del(&self, fd: RawFd) {
        let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, 0);
    }

    /// Waits for readiness, retrying `EINTR`. Returns the filled prefix.
    fn wait<'a>(&self, events: &'a mut [EpollEvent]) -> std::io::Result<&'a [EpollEvent]> {
        loop {
            let rc = unsafe { epoll_wait(self.fd, events.as_mut_ptr(), events.len() as c_int, -1) };
            if rc >= 0 {
                return Ok(&events[..rc as usize]);
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

// ---------------------------------------------------------------------
// Addresses, listeners, streams.
// ---------------------------------------------------------------------

/// A parsed bind/connect address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Addr {
    /// A TCP socket address (host:port).
    Tcp(String),
    /// A Unix domain socket path.
    Unix(String),
}

impl Addr {
    /// Parses `"tcp:HOST:PORT"`, `"unix:PATH"`, a bare `/path` (unix), or
    /// a bare `HOST:PORT` (tcp).
    ///
    /// # Errors
    ///
    /// A human-readable description of an unrecognizable address.
    pub fn parse(s: &str) -> Result<Addr, String> {
        if let Some(rest) = s.strip_prefix("tcp:") {
            return Ok(Addr::Tcp(rest.to_string()));
        }
        if let Some(rest) = s.strip_prefix("unix:") {
            return Ok(Addr::Unix(rest.to_string()));
        }
        if s.starts_with('/') || s.starts_with('.') {
            return Ok(Addr::Unix(s.to_string()));
        }
        if s.contains(':') {
            return Ok(Addr::Tcp(s.to_string()));
        }
        Err(format!(
            "unrecognized address `{s}` (use tcp:HOST:PORT, unix:PATH, HOST:PORT, or /path)"
        ))
    }
}

impl std::fmt::Display for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Addr::Tcp(a) => write!(f, "tcp:{a}"),
            Addr::Unix(p) => write!(f, "unix:{p}"),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    Unix(UnixListener),
}

impl Listener {
    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(true),
            Listener::Unix(l) => l.set_nonblocking(true),
        }
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => l.as_raw_fd(),
            Listener::Unix(l) => l.as_raw_fd(),
        }
    }

    fn accept(&self) -> std::io::Result<Stream> {
        Ok(match self {
            Listener::Tcp(l) => Stream::Tcp(l.accept()?.0),
            Listener::Unix(l) => Stream::Unix(l.accept()?.0),
        })
    }
}

pub(crate) enum Stream {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Stream {
    fn shutdown(&self) {
        let _ = match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }

    pub(crate) fn connect(addr: &Addr) -> std::io::Result<Stream> {
        let stream = match addr {
            Addr::Tcp(a) => Stream::Tcp(TcpStream::connect(a)?),
            Addr::Unix(p) => Stream::Unix(UnixStream::connect(p)?),
        };
        tune_stream(&stream);
        Ok(stream)
    }

    fn set_nonblocking(&self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_nonblocking(true),
            Stream::Unix(s) => s.set_nonblocking(true),
        }
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => s.as_raw_fd(),
            Stream::Unix(s) => s.as_raw_fd(),
        }
    }
}

/// Per-socket transport tuning, applied to accepted *and* dialed
/// streams: `TCP_NODELAY`, so the small request/response frames
/// pipelining is made of leave immediately instead of sitting out a
/// Nagle round-trip. Unix sockets need (and take) no tuning.
pub(crate) fn tune_stream(stream: &Stream) {
    if let Stream::Tcp(s) = stream {
        let _ = s.set_nodelay(true);
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            Stream::Unix(s) => s.flush(),
        }
    }
}

// ---------------------------------------------------------------------
// Server handle.
// ---------------------------------------------------------------------

/// Server-side configuration for [`Server::bind_with`].
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// When set, every hello must present this token
    /// ([`WireRequest::Hello`]'s `auth` field); mismatch or absence
    /// answers [`WireError::Unauthorized`]. Compared constant-time.
    pub auth_token: Option<String>,
}

/// A bound socket server serving one engine to many connections.
pub struct Server<D: PersistDomain> {
    engine: Arc<Engine<D>>,
    addr: Addr,
    stop: Arc<AtomicBool>,
    waker: Arc<UnixStream>,
    event_loop: Option<JoinHandle<()>>,
}

impl<D: PersistDomain> Server<D> {
    /// Binds `addr` and starts the event loop against `engine`. For
    /// `tcp:host:0` the kernel assigns the port; read the result from
    /// [`Server::addr`]. A pre-existing Unix socket path is replaced.
    ///
    /// # Errors
    ///
    /// [`std::io::Error`] from binding or epoll setup.
    pub fn bind(addr: &Addr, engine: Arc<Engine<D>>) -> std::io::Result<Server<D>> {
        Server::bind_with(addr, engine, ServerConfig::default())
    }

    /// [`Server::bind`] with explicit [`ServerConfig`] (auth token).
    ///
    /// # Errors
    ///
    /// As [`Server::bind`].
    pub fn bind_with(
        addr: &Addr,
        engine: Arc<Engine<D>>,
        config: ServerConfig,
    ) -> std::io::Result<Server<D>> {
        let (listener, bound) = match addr {
            Addr::Tcp(a) => {
                let l = TcpListener::bind(a)?;
                let actual = Addr::Tcp(l.local_addr()?.to_string());
                (Listener::Tcp(l), actual)
            }
            Addr::Unix(p) => {
                // Replace a stale socket file from a previous run.
                let _ = std::fs::remove_file(p);
                (Listener::Unix(UnixListener::bind(p)?), addr.clone())
            }
        };
        listener.set_nonblocking()?;
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;
        let waker_tx = Arc::new(waker_tx);
        let stop = Arc::new(AtomicBool::new(false));
        let mut event_loop = EventLoop {
            ep: Epoll::new()?,
            listener,
            waker_rx,
            engine: Arc::clone(&engine),
            auth_token: config.auth_token,
            stop: Arc::clone(&stop),
            completion: Arc::new(CompletionQueue {
                ready: Mutex::new(Vec::new()),
                waker: Arc::clone(&waker_tx),
            }),
            conns: HashMap::new(),
            next_conn: 0,
            encode_cache: EncodeCache::new(),
        };
        event_loop
            .ep
            .add(event_loop.listener.raw_fd(), EPOLLIN, TOKEN_LISTENER)?;
        event_loop
            .ep
            .add(event_loop.waker_rx.as_raw_fd(), EPOLLIN, TOKEN_WAKER)?;
        let handle = std::thread::Builder::new()
            .name("dai-rpc-loop".to_string())
            .spawn(move || event_loop.run())
            .expect("spawn rpc event loop");
        Ok(Server {
            engine,
            addr: bound,
            stop,
            waker: waker_tx,
            event_loop: Some(handle),
        })
    }

    /// The bound address (with the kernel-assigned port for `tcp:…:0`),
    /// in the form [`Addr::parse`] and clients accept.
    pub fn addr(&self) -> &Addr {
        &self.addr
    }

    /// The served engine.
    pub fn engine(&self) -> &Arc<Engine<D>> {
        &self.engine
    }

    /// Stops the event loop, closes every connection (sessions still
    /// owned by connections are closed with them), and removes a Unix
    /// socket file. In-flight requests resolve engine-side; their
    /// responses are dropped with the connections.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = (&*self.waker).write(&[1u8]);
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        if let Addr::Unix(p) = &self.addr {
            let _ = std::fs::remove_file(p);
        }
    }
}

impl<D: PersistDomain> Drop for Server<D> {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

// ---------------------------------------------------------------------
// The event loop.
// ---------------------------------------------------------------------

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// Ticket-completion fan-in: engine workers push `(conn, seq)` and poke
/// the self-pipe; the loop drains under one short lock hold.
struct CompletionQueue {
    ready: Mutex<Vec<(u64, u64)>>,
    waker: Arc<UnixStream>,
}

impl CompletionQueue {
    fn push(&self, conn: u64, seq: u64) {
        self.ready
            .lock()
            .expect("completion queue poisoned")
            .push((conn, seq));
        // A full (or closed, post-shutdown) pipe is fine: a byte is
        // already in flight, or nobody is listening anymore.
        let _ = (&*self.waker).write(&[1u8]);
    }

    fn drain(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *self.ready.lock().expect("completion queue poisoned"))
    }
}

/// One queued reply slot, in request-arrival order.
struct Pending<D> {
    seq: u64,
    id: u64,
    state: PendState<D>,
}

enum PendState<D> {
    /// Resolved; waiting for the next flush.
    /// Boxed: a resolved response dwarfs the ticket variants, and most
    /// queue entries at any instant are still tickets.
    Ready(Box<WireResponse>),
    /// One engine ticket (single query, edit, save, load, stats, …).
    One(Ticket<D>),
    /// A query batch or sweep: one response carrying every member.
    Many(Vec<Ticket<D>>),
}

struct Conn<D> {
    stream: Stream,
    fd: RawFd,
    rbuf: Vec<u8>,
    rpos: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    hello_done: bool,
    owned: HashSet<SessionId>,
    pending: VecDeque<Pending<D>>,
    next_seq: u64,
    interest: u32,
    peer_eof: bool,
    dead: bool,
}

impl<D> Conn<D> {
    fn backlog(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// Whether new request bytes should stop being consumed.
    fn stalled(&self) -> bool {
        self.backlog() > SOFT_WRITE_CAP || self.pending.len() >= MAX_INFLIGHT
    }
}

struct EventLoop<D: PersistDomain> {
    ep: Epoll,
    listener: Listener,
    waker_rx: UnixStream,
    engine: Arc<Engine<D>>,
    auth_token: Option<String>,
    stop: Arc<AtomicBool>,
    completion: Arc<CompletionQueue>,
    conns: HashMap<u64, Conn<D>>,
    next_conn: u64,
    encode_cache: EncodeCache<D>,
}

/// Memoizes [`WireState::encode`] per state identity (see
/// [`PersistDomain::encode_identity`]). The engine's memo tables hand
/// the *same* shared state handle back on warm repeats, so a warm
/// sweep's per-member encodes collapse into map hits. Each entry pins a
/// clone of its state: address-derived identity tokens are only unique
/// while the allocation lives, so the cache keeps it alive.
///
/// Domains without a cheap identity (`encode_identity() == None`)
/// bypass the cache entirely.
struct EncodeCache<D> {
    map: HashMap<u64, (D, Vec<u8>), dai_memo::FxBuild>,
}

impl<D: PersistDomain> EncodeCache<D> {
    /// Entry bound; the whole map is dropped when it fills, which also
    /// releases every pinned state (no stale tokens can survive).
    const CAP: usize = 4096;

    fn new() -> Self {
        EncodeCache {
            map: HashMap::default(),
        }
    }

    fn encode(&mut self, d: &D) -> WireState {
        let Some(key) = d.encode_identity() else {
            return WireState::encode(d);
        };
        if let Some((_pin, bytes)) = self.map.get(&key) {
            return WireState(bytes.clone());
        }
        let state = WireState::encode(d);
        if self.map.len() >= Self::CAP {
            self.map.clear();
        }
        self.map.insert(key, (d.clone(), state.0.clone()));
        state
    }
}

/// One frame parsed off the front of a connection's read buffer.
enum Parsed {
    /// Not enough buffered bytes for the next boundary yet.
    Incomplete,
    /// A complete frame (damaged payloads arrive as `payload: None`).
    Frame {
        header: FrameHeader,
        id: u64,
        payload_ok: bool,
        consumed: usize,
    },
    /// A header whose declared length exceeds the bound; only the
    /// header and id are consumed.
    Oversized {
        header: FrameHeader,
        id: u64,
        consumed: usize,
    },
}

/// Bytes before a frame's payload: the fixed header and the request id.
const PAYLOAD_OFFSET: usize = FRAME_HEADER_LEN + FRAME_ID_LEN;

/// Splits one request frame off `buf` without copying the payload (the
/// payload is decoded in place; only its verification result travels).
fn parse_frame(buf: &[u8]) -> Parsed {
    if buf.len() < PAYLOAD_OFFSET {
        return Parsed::Incomplete;
    }
    let header = FrameHeader::decode(
        buf[..FRAME_HEADER_LEN]
            .try_into()
            .expect("checked header length"),
    );
    let id = u64::from_le_bytes(
        buf[FRAME_HEADER_LEN..PAYLOAD_OFFSET]
            .try_into()
            .expect("8 id bytes"),
    );
    if header.len > MAX_FRAME_LEN as u64 {
        return Parsed::Oversized {
            header,
            id,
            consumed: PAYLOAD_OFFSET,
        };
    }
    let len = header.len as usize;
    let total = PAYLOAD_OFFSET + len + FRAME_TRAILER_LEN;
    if buf.len() < total {
        return Parsed::Incomplete;
    }
    let payload = &buf[PAYLOAD_OFFSET..PAYLOAD_OFFSET + len];
    let sum = u64::from_le_bytes(
        buf[PAYLOAD_OFFSET + len..total]
            .try_into()
            .expect("8 checksum bytes"),
    );
    Parsed::Frame {
        header,
        id,
        payload_ok: checksum_with_id(payload, id) == sum,
        consumed: total,
    }
}

/// A run of adjacent same-`(session, function)` query frames being
/// collected for one coalesced batch submission.
struct QueryRun {
    session: u64,
    func: String,
    members: Vec<(dai_lang::Loc, u64, u64)>, // (loc, seq, id)
}

impl<D: PersistDomain> EventLoop<D> {
    fn run(&mut self) {
        let mut events = [EpollEvent { events: 0, data: 0 }; 64];
        // Not a while-let: the handlers below re-borrow `self` mutably,
        // so the wait result must be detached from the loop condition.
        #[allow(clippy::while_let_loop)]
        loop {
            let ready: Vec<EpollEvent> = match self.ep.wait(&mut events) {
                Ok(evs) => evs.to_vec(),
                Err(_) => break,
            };
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            let mut touched: Vec<u64> = Vec::new();
            for ev in &ready {
                let token = ev.data;
                let kinds = ev.events;
                match token {
                    TOKEN_LISTENER => self.accept_all(),
                    TOKEN_WAKER => self.drain_waker(),
                    conn_id => {
                        if let Some(conn) = self.conns.get_mut(&conn_id) {
                            if kinds & (EPOLLERR | EPOLLHUP) != 0 {
                                conn.dead = true;
                            }
                            touched.push(conn_id);
                        }
                    }
                }
            }
            // Ticket completions resolve pending entries to Ready.
            for (conn_id, seq) in self.completion.drain() {
                self.resolve(conn_id, seq);
                touched.push(conn_id);
            }
            touched.sort_unstable();
            touched.dedup();
            for conn_id in touched {
                self.pump(conn_id);
            }
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
        }
        // Shutdown: close every connection and the sessions it owns.
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            self.close_conn(id);
        }
    }

    fn accept_all(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok(s) => s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            if stream.set_nonblocking().is_err() {
                continue;
            }
            tune_stream(&stream);
            let conn_id = self.next_conn;
            self.next_conn += 1;
            let fd = stream.raw_fd();
            let interest = EPOLLIN | EPOLLRDHUP;
            if self.ep.add(fd, interest, conn_id).is_err() {
                continue;
            }
            self.conns.insert(
                conn_id,
                Conn {
                    stream,
                    fd,
                    rbuf: Vec::new(),
                    rpos: 0,
                    wbuf: Vec::new(),
                    wpos: 0,
                    hello_done: false,
                    owned: HashSet::new(),
                    pending: VecDeque::new(),
                    next_seq: 0,
                    interest,
                    peer_eof: false,
                    dead: false,
                },
            );
        }
    }

    fn drain_waker(&mut self) {
        let mut buf = [0u8; 256];
        loop {
            match (&self.waker_rx).read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Marks the pending entry `(conn, seq)` Ready by taking its
    /// completed tickets. Completions for dead connections are dropped.
    fn resolve(&mut self, conn_id: u64, seq: u64) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        let Some(entry) = conn.pending.iter_mut().find(|p| p.seq == seq) else {
            return;
        };
        // Placeholder, immediately overwritten below; never observed.
        let placeholder = PendState::Ready(Box::new(WireResponse::Error(WireError::Disconnected)));
        let state = std::mem::replace(&mut entry.state, placeholder);
        let response = match state {
            PendState::Ready(r) => *r,
            PendState::One(ticket) => {
                let result = ticket.try_take().unwrap_or(Err(EngineError::Disconnected));
                response_to_wire(result, &mut conn.owned, &mut self.encode_cache)
            }
            PendState::Many(tickets) => {
                let cache = &mut self.encode_cache;
                let members = tickets
                    .iter()
                    .map(|t| {
                        t.try_take()
                            .unwrap_or(Err(EngineError::Disconnected))
                            .and_then(Response::state_or_invariant)
                            .map(|d| cache.encode(&d))
                            .map_err(|e| WireError::from_engine(&e))
                    })
                    .collect();
                WireResponse::States(members)
            }
        };
        entry.state = PendState::Ready(Box::new(response));
    }

    /// Makes every kind of progress available on one connection: parse
    /// and dispatch buffered requests, flush resolved responses into the
    /// write buffer, push the write buffer into the socket, then settle
    /// epoll interest — and close the connection when it is finished.
    fn pump(&mut self, conn_id: u64) {
        // Not a while-let: `process_rbuf` needs `&mut self`, so the
        // connection must be re-fetched around it rather than held.
        #[allow(clippy::while_let_loop)]
        loop {
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                return;
            };
            if conn.dead {
                break;
            }
            let mut progressed = false;
            // Read newly arrived bytes (unless backpressure stalls us).
            if !conn.stalled() && !conn.peer_eof {
                match read_available(conn) {
                    Ok(_) => {}
                    Err(_) => conn.dead = true,
                }
            }
            if !conn.dead {
                progressed |= self.process_rbuf(conn_id);
            }
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                return;
            };
            progressed |= flush_ready(conn);
            progressed |= flush_writes(conn);
            if !progressed || conn.dead {
                break;
            }
        }
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        let finished = conn.peer_eof && conn.pending.is_empty() && conn.backlog() == 0;
        if conn.dead || finished {
            self.close_conn(conn_id);
            return;
        }
        let want_read = !conn.stalled() && !conn.peer_eof;
        let mut interest = EPOLLRDHUP;
        if want_read {
            interest |= EPOLLIN;
        }
        if conn.backlog() > 0 {
            interest |= EPOLLOUT;
        }
        if interest != conn.interest {
            if self.ep.modify(conn.fd, interest, conn_id).is_err() {
                self.close_conn(conn_id);
                return;
            }
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                conn.interest = interest;
            }
        }
    }

    /// Parses complete frames out of the read buffer and dispatches
    /// them, coalescing adjacent same-key query frames into one engine
    /// batch. Returns whether any frame was consumed.
    fn process_rbuf(&mut self, conn_id: u64) -> bool {
        let mut any = false;
        let mut run: Option<QueryRun> = None;
        // Not a while-let: `dispatch_frame` needs `&mut self`, so the
        // connection must be re-fetched around it rather than held.
        #[allow(clippy::while_let_loop)]
        loop {
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                break;
            };
            if conn.stalled() {
                break;
            }
            let parsed = parse_frame(&conn.rbuf[conn.rpos..]);
            match parsed {
                Parsed::Incomplete => break,
                Parsed::Oversized {
                    header,
                    id,
                    consumed,
                } => {
                    conn.rpos += consumed;
                    any = true;
                    self.flush_run(conn_id, &mut run);
                    let err = WireError::Protocol(format!(
                        "declared frame length {} exceeds the {MAX_FRAME_LEN}-byte bound",
                        header.len
                    ));
                    self.push_ready(conn_id, id, WireResponse::Error(err));
                }
                Parsed::Frame {
                    header,
                    id,
                    payload_ok,
                    consumed,
                } => {
                    any = true;
                    self.dispatch_frame(conn_id, header, id, payload_ok, consumed, &mut run);
                }
            }
        }
        self.flush_run(conn_id, &mut run);
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            if conn.rpos > 0 {
                conn.rbuf.drain(..conn.rpos);
                conn.rpos = 0;
            }
        }
        any
    }

    /// Handles one complete frame: protocol checks, hello gating, then
    /// request routing. Query frames extend (or start) the coalescing
    /// run; everything else flushes it first, preserving submission
    /// order across the engine's edit fences.
    fn dispatch_frame(
        &mut self,
        conn_id: u64,
        header: FrameHeader,
        id: u64,
        payload_ok: bool,
        consumed: usize,
        run: &mut Option<QueryRun>,
    ) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        let payload_start = conn.rpos + PAYLOAD_OFFSET;
        let payload_range = payload_start..payload_start + header.len as usize;
        conn.rpos += consumed;

        if header.tag != TAG_REQUEST {
            self.flush_run(conn_id, run);
            let err = WireError::Protocol(format!(
                "unexpected frame tag {:?} (want {:?})",
                header.tag, TAG_REQUEST
            ));
            self.push_ready(conn_id, id, WireResponse::Error(err));
            return;
        }
        if header.version != PROTOCOL_VERSION {
            self.flush_run(conn_id, run);
            let err = WireError::UnsupportedVersion {
                got: header.version,
                want: PROTOCOL_VERSION,
            };
            self.push_ready(conn_id, id, WireResponse::Error(err));
            return;
        }
        if !payload_ok {
            self.flush_run(conn_id, run);
            let err = WireError::Protocol("frame checksum mismatch".to_string());
            self.push_ready(conn_id, id, WireResponse::Error(err));
            return;
        }
        let request = {
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                return;
            };
            let payload = &conn.rbuf[payload_range];
            let _decode_span = dai_trace::span!("rpc.decode", payload.len());
            decode_message::<WireRequest>(payload)
        };
        let request = match request {
            Ok(r) => r,
            Err(e) => {
                self.flush_run(conn_id, run);
                let err = WireError::Protocol(format!("undecodable request payload: {e}"));
                self.push_ready(conn_id, id, WireResponse::Error(err));
                return;
            }
        };
        let _dispatch_span = dai_trace::span!("rpc.dispatch");
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        if !conn.hello_done {
            self.flush_run(conn_id, run);
            let response = self.handle_hello(conn_id, request);
            self.push_ready(conn_id, id, response);
            return;
        }
        match request {
            WireRequest::Query { session, func, loc } => {
                // Extend the coalescing run, or flush and start another.
                let matches = run
                    .as_ref()
                    .is_some_and(|r| r.session == session && r.func == func);
                if !matches {
                    self.flush_run(conn_id, run);
                }
                let Some(conn) = self.conns.get_mut(&conn_id) else {
                    return;
                };
                let seq = conn.next_seq;
                conn.next_seq += 1;
                match run {
                    Some(r) if matches => r.members.push((loc, seq, id)),
                    _ => {
                        *run = Some(QueryRun {
                            session,
                            func,
                            members: vec![(loc, seq, id)],
                        });
                    }
                }
            }
            other => {
                self.flush_run(conn_id, run);
                self.handle_request(conn_id, id, other);
            }
        }
    }

    /// Submits a collected query run as **one** coalesced engine batch;
    /// every member keeps its own pending entry (and id), so each query
    /// frame still gets its own response.
    fn flush_run(&mut self, conn_id: u64, run: &mut Option<QueryRun>) {
        let Some(r) = run.take() else {
            return;
        };
        let locs: Vec<dai_lang::Loc> = r.members.iter().map(|(l, _, _)| *l).collect();
        let tickets = self
            .engine
            .submit_query_batch(SessionId(r.session), &r.func, &locs);
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        for (ticket, (_, seq, id)) in tickets.into_iter().zip(r.members) {
            arm_group(
                std::slice::from_ref(&ticket),
                conn_id,
                seq,
                &self.completion,
            );
            conn.pending.push_back(Pending {
                seq,
                id,
                state: PendState::One(ticket),
            });
        }
    }

    /// The gate every connection starts behind: the first decoded
    /// message must be a hello naming the right domain (and presenting
    /// the auth token, when the server requires one).
    fn handle_hello(&mut self, conn_id: u64, request: WireRequest) -> WireResponse {
        match request {
            WireRequest::Hello { domain, auth } => {
                if domain != D::domain_tag() {
                    return WireResponse::Error(WireError::DomainMismatch {
                        client: domain,
                        server: D::domain_tag(),
                    });
                }
                if let Some(want) = &self.auth_token {
                    let ok = auth
                        .as_deref()
                        .is_some_and(|got| constant_time_eq(got.as_bytes(), want.as_bytes()));
                    if !ok {
                        return WireResponse::Error(WireError::Unauthorized);
                    }
                }
                let Some(conn) = self.conns.get_mut(&conn_id) else {
                    return WireResponse::Error(WireError::Disconnected);
                };
                conn.hello_done = true;
                WireResponse::HelloOk {
                    domain,
                    protocol: PROTOCOL_VERSION,
                }
            }
            other => WireResponse::Error(WireError::Protocol(format!(
                "first message must be a hello, got {}",
                request_name(&other)
            ))),
        }
    }

    /// Routes one post-hello, non-`Query` request. Engine-backed
    /// requests become tickets (the loop never blocks on them); the
    /// session-table and introspection requests answer immediately.
    fn handle_request(&mut self, conn_id: u64, id: u64, request: WireRequest) {
        let engine = Arc::clone(&self.engine);
        match request {
            WireRequest::Hello { .. } => {
                self.push_ready(
                    conn_id,
                    id,
                    WireResponse::Error(WireError::Protocol(
                        "hello already exchanged on this connection".to_string(),
                    )),
                );
            }
            WireRequest::Query { .. } => unreachable!("query frames travel the coalescing run"),
            WireRequest::QueryBatch {
                session,
                func,
                locs,
            } => {
                // One wire frame → one deliberate coalesced batch.
                let tickets = engine.submit_query_batch(SessionId(session), &func, &locs);
                self.push_tickets(conn_id, id, tickets);
            }
            WireRequest::Sweep { session, targets } => {
                // One wire frame → the engine's sweep path: one
                // coalesced batch per contiguous function run.
                let tickets = {
                    let _submit_span = dai_trace::span!("rpc.submit");
                    engine.submit_query_sweep(SessionId(session), &targets)
                };
                self.push_tickets(conn_id, id, tickets);
            }
            WireRequest::Edit { session, edit } => {
                let ticket = engine.submit(Request::Edit {
                    session: SessionId(session),
                    edit,
                });
                self.push_ticket(conn_id, id, ticket);
            }
            WireRequest::Snapshot { session } => {
                let ticket = engine.submit(Request::Snapshot {
                    session: SessionId(session),
                });
                self.push_ticket(conn_id, id, ticket);
            }
            WireRequest::Save { session, path } => {
                let ticket = engine.submit(Request::Save {
                    session: SessionId(session),
                    path,
                });
                self.push_ticket(conn_id, id, ticket);
            }
            WireRequest::Load { path } => {
                // Ownership of the restored session is recorded at
                // completion time (see `response_to_wire`).
                let ticket = engine.submit(Request::Load { path });
                self.push_ticket(conn_id, id, ticket);
            }
            WireRequest::Stats => {
                let ticket = engine.submit(Request::Stats);
                self.push_ticket(conn_id, id, ticket);
            }
            WireRequest::Open { name, source } => {
                let response = match engine.open_session_src(name, &source) {
                    Ok(sid) => {
                        if let Some(conn) = self.conns.get_mut(&conn_id) {
                            conn.owned.insert(sid);
                        }
                        WireResponse::Opened { session: sid.0 }
                    }
                    Err(e) => WireResponse::Error(WireError::from_engine(&e)),
                };
                self.push_ready(conn_id, id, response);
            }
            WireRequest::Close { session } => {
                let sid = SessionId(session);
                if let Some(conn) = self.conns.get_mut(&conn_id) {
                    conn.owned.remove(&sid);
                }
                let response = WireResponse::Closed {
                    existed: engine.close_session(sid),
                };
                self.push_ready(conn_id, id, response);
            }
            WireRequest::Handoff { session } => {
                let owned = self
                    .conns
                    .get_mut(&conn_id)
                    .is_some_and(|c| c.owned.remove(&SessionId(session)));
                self.push_ready(conn_id, id, WireResponse::Released { owned });
            }
            WireRequest::Trace { op } => {
                let dump = match op {
                    dai_engine::TraceOp::Enable => {
                        engine.set_tracing(true);
                        Default::default()
                    }
                    dai_engine::TraceOp::Disable => {
                        engine.set_tracing(false);
                        Default::default()
                    }
                    dai_engine::TraceOp::Dump => engine.drain_trace(),
                };
                self.push_ready(conn_id, id, WireResponse::Trace(dump));
            }
            WireRequest::Metrics => {
                let response = WireResponse::Metrics {
                    text: engine.metrics_text(),
                };
                self.push_ready(conn_id, id, response);
            }
            WireRequest::Explain { session, targets } => {
                // One wire frame → one attributed sweep, served
                // synchronously under the session lock (see
                // `Engine::explain_sweep`). The capture is quick and
                // deliberate; it is the one request the loop waits out.
                let response = match dai_engine::Service::explain(
                    engine.as_ref(),
                    SessionId(session),
                    &targets,
                ) {
                    Ok(report) => WireResponse::Explain(report),
                    Err(e) => WireResponse::Error(WireError::from_engine(&e)),
                };
                self.push_ready(conn_id, id, response);
            }
            WireRequest::Subscribe { after, max } => {
                // Served straight off the leader's journal file: the
                // frames ship verbatim (disk format == wire format), so
                // the loop only pays one bounded read, not an engine
                // round trip.
                let response = match engine.journal() {
                    None => WireResponse::Error(WireError::Rejected {
                        kind: "no-journal".to_string(),
                        message: "server has no journal attached (nothing to replicate)"
                            .to_string(),
                    }),
                    Some(journal) => match journal.frames_since(after, max) {
                        Ok(batch) => WireResponse::Stream {
                            head_seq: journal.last_seq(),
                            last_seq: batch.last_seq,
                            count: batch.count,
                            frames: batch.bytes,
                        },
                        Err(e) => WireResponse::Error(WireError::Persist(e.to_string())),
                    },
                };
                self.push_ready(conn_id, id, response);
            }
        }
    }

    fn push_ready(&mut self, conn_id: u64, id: u64, response: WireResponse) {
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            let seq = conn.next_seq;
            conn.next_seq += 1;
            conn.pending.push_back(Pending {
                seq,
                id,
                state: PendState::Ready(Box::new(response)),
            });
        }
    }

    fn push_ticket(&mut self, conn_id: u64, id: u64, ticket: Ticket<D>) {
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            let seq = conn.next_seq;
            conn.next_seq += 1;
            arm_group(
                std::slice::from_ref(&ticket),
                conn_id,
                seq,
                &self.completion,
            );
            conn.pending.push_back(Pending {
                seq,
                id,
                state: PendState::One(ticket),
            });
        }
    }

    fn push_tickets(&mut self, conn_id: u64, id: u64, tickets: Vec<Ticket<D>>) {
        if let Some(conn) = self.conns.get_mut(&conn_id) {
            let seq = conn.next_seq;
            conn.next_seq += 1;
            if tickets.is_empty() {
                conn.pending.push_back(Pending {
                    seq,
                    id,
                    state: PendState::Ready(Box::new(WireResponse::States(Vec::new()))),
                });
                return;
            }
            {
                let _arm_span = dai_trace::span!("rpc.arm", tickets.len());
                arm_group(&tickets, conn_id, seq, &self.completion);
            }
            conn.pending.push_back(Pending {
                seq,
                id,
                state: PendState::Many(tickets),
            });
        }
    }

    fn close_conn(&mut self, conn_id: u64) {
        let Some(conn) = self.conns.remove(&conn_id) else {
            return;
        };
        self.ep.del(conn.fd);
        for session in conn.owned {
            self.engine.close_session(session);
        }
        conn.stream.shutdown();
    }
}

/// Registers the group-completion hook on each ticket: the *last*
/// member to resolve pushes `(conn, seq)` and wakes the loop. Hooks run
/// on engine worker threads and do constant work.
fn arm_group<D>(tickets: &[Ticket<D>], conn_id: u64, seq: u64, completion: &Arc<CompletionQueue>) {
    let remaining = Arc::new(AtomicUsize::new(tickets.len()));
    for ticket in tickets {
        let remaining = Arc::clone(&remaining);
        let completion = Arc::clone(completion);
        ticket.on_ready(move || {
            if remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                completion.push(conn_id, seq);
            }
        });
    }
}

/// Maps a completed engine response onto its wire form. `Loaded`
/// responses register session ownership here — completion time — since
/// the restore runs async to the loop.
fn response_to_wire<D: PersistDomain>(
    result: Result<Response<D>, EngineError>,
    owned: &mut HashSet<SessionId>,
    cache: &mut EncodeCache<D>,
) -> WireResponse {
    match result {
        Err(e) => WireResponse::Error(WireError::from_engine(&e)),
        Ok(Response::State(d)) => WireResponse::State(cache.encode(&d)),
        Ok(Response::Edited(outcome)) => WireResponse::Edited(outcome),
        Ok(Response::Snapshot(snap)) => WireResponse::Snapshot(snap),
        Ok(Response::Saved(outcome)) => WireResponse::Saved(outcome),
        Ok(Response::Loaded { session, outcome }) => {
            owned.insert(session);
            WireResponse::Loaded {
                session: session.0,
                outcome,
            }
        }
        Ok(Response::Stats(stats)) => WireResponse::Stats(stats),
    }
}

/// Reads whatever the socket has, growing the read buffer. Flags EOF on
/// a clean peer close.
///
/// # Errors
///
/// Transport failures (the connection is then torn down).
fn read_available<D>(conn: &mut Conn<D>) -> std::io::Result<()> {
    let mut chunk = [0u8; 64 * 1024];
    loop {
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.peer_eof = true;
                return Ok(());
            }
            Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Encodes every resolved response into the write buffer, in whatever
/// order the engine completed them (out-of-order completion is the
/// point of request ids). Returns whether any response was encoded.
fn flush_ready<D>(conn: &mut Conn<D>) -> bool {
    let mut any = false;
    let mut i = 0;
    while i < conn.pending.len() {
        if matches!(conn.pending[i].state, PendState::Ready(_)) {
            let entry = conn.pending.remove(i).expect("indexed entry");
            let PendState::Ready(response) = entry.state else {
                unreachable!("matched Ready above")
            };
            encode_response(conn, entry.id, *response);
            any = true;
        } else {
            i += 1;
        }
    }
    any
}

/// Appends one response frame to the connection's write buffer,
/// applying the two response-side guards: the overload hard cap and the
/// oversized-response replacement.
fn encode_response<D>(conn: &mut Conn<D>, id: u64, mut response: WireResponse) {
    if conn.backlog() > HARD_WRITE_CAP {
        // The peer reads too slowly for the responses it keeps
        // requesting: drop the payload, keep the id answered.
        response = WireResponse::Error(WireError::Overloaded);
    }
    let _encode_span = dai_trace::span!("rpc.encode");
    let mut payload = encode_message(&response);
    if payload.len() > MAX_FRAME_LEN {
        payload = encode_message(&WireResponse::Error(WireError::Protocol(format!(
            "response of {} bytes exceeds the {MAX_FRAME_LEN}-byte frame bound",
            payload.len()
        ))));
    }
    write_frame_id(&mut conn.wbuf, TAG_RESPONSE, PROTOCOL_VERSION, id, &payload);
}

/// Pushes buffered response bytes into the socket until it would block.
/// Returns whether any byte moved.
fn flush_writes<D>(conn: &mut Conn<D>) -> bool {
    let mut any = false;
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => {
                conn.wpos += n;
                any = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.wpos == conn.wbuf.len() && conn.wpos > 0 {
        conn.wbuf.clear();
        conn.wpos = 0;
    } else if conn.wpos > SOFT_WRITE_CAP {
        conn.wbuf.drain(..conn.wpos);
        conn.wpos = 0;
    }
    any
}

/// Constant-time byte equality: every byte pair is visited regardless
/// of where the first mismatch sits, so response timing does not leak
/// how much of a guessed token matched. Length is folded in rather than
/// early-returned for the same reason.
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    let mut diff = (a.len() ^ b.len()) as u8;
    let n = a.len().max(b.len());
    for i in 0..n {
        let x = a.get(i).copied().unwrap_or(0);
        let y = b.get(i).copied().unwrap_or(0);
        diff |= x ^ y;
    }
    diff == 0
}

fn request_name(r: &WireRequest) -> &'static str {
    match r {
        WireRequest::Hello { .. } => "hello",
        WireRequest::Open { .. } => "open",
        WireRequest::Close { .. } => "close",
        WireRequest::Query { .. } => "query",
        WireRequest::QueryBatch { .. } => "query-batch",
        WireRequest::Sweep { .. } => "sweep",
        WireRequest::Edit { .. } => "edit",
        WireRequest::Snapshot { .. } => "snapshot",
        WireRequest::Save { .. } => "save",
        WireRequest::Load { .. } => "load",
        WireRequest::Stats => "stats",
        WireRequest::Handoff { .. } => "handoff",
        WireRequest::Trace { .. } => "trace",
        WireRequest::Metrics => "metrics",
        WireRequest::Explain { .. } => "explain",
        WireRequest::Subscribe { .. } => "subscribe",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tune_stream_sets_nodelay_on_both_ends() {
        // The helper runs on accepted server-side streams and dialed
        // client-side streams alike; assert the option actually lands.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let dialed = TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        assert!(!accepted.nodelay().unwrap(), "fresh socket starts Nagled");
        let server_side = Stream::Tcp(accepted);
        tune_stream(&server_side);
        let Stream::Tcp(accepted) = &server_side else {
            unreachable!()
        };
        assert!(
            accepted.nodelay().unwrap(),
            "accepted stream must be NODELAY"
        );
        drop(dialed);
        // The client constructor path (`Stream::connect`) tunes too.
        let connected = Stream::connect(&Addr::Tcp(addr.to_string())).unwrap();
        let Stream::Tcp(s) = &connected else {
            unreachable!()
        };
        assert!(s.nodelay().unwrap(), "dialed stream must be NODELAY");
    }

    #[test]
    fn constant_time_eq_matches_plain_equality() {
        let cases: [(&[u8], &[u8]); 6] = [
            (b"", b""),
            (b"a", b"a"),
            (b"a", b"b"),
            (b"secret", b"secret"),
            (b"secret", b"secret2"),
            (b"", b"x"),
        ];
        for (a, b) in cases {
            assert_eq!(constant_time_eq(a, b), a == b, "{a:?} vs {b:?}");
        }
    }
}
