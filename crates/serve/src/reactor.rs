//! Event-driven connection core: the one TCP server of the workspace.
//!
//! It serves three [`FrameHandler`]s: the model [`Service`], the shard
//! [`Router`], and the fleet worker (`reds_fleet::worker`), whose
//! protocol rides the same envelope. Every frame passes through one
//! front, [`FrameHandler::handle_frame`]: it parses the line, reads the
//! id, builds the `ok`/error envelope, turns a panic into `internal`
//! carrying the request's id, and reports a shutdown. A handler keeps
//! only its decode and its dispatch.
//!
//! [`Service`]: crate::server::Service
//! [`Router`]: crate::router::Router
//!
//! One reactor thread owns every socket. It multiplexes readiness with
//! `epoll(7)` on Linux (`poll(2)` elsewhere — both via direct FFI, with
//! no libc crate; with the SIMD kernels of `reds-metamodel`, the only
//! `unsafe` code in the workspace),
//! feeds raw bytes through the shared [`wire::FrameBuffer`] framing,
//! and hands complete frames to a small executor pool. Replies flow
//! back over an in-memory bus plus a socketpair wakeup, and are
//! re-sequenced per connection before writing, so a client that
//! pipelines requests still receives answers strictly in request
//! order — bit-compatible with the old sequential handler.
//!
//! The boundary semantics are unchanged from the threaded server:
//!
//! * admission control happens at accept time (`too_busy` frame, then
//!   close) under the same `max_connections` cap and message;
//! * an oversized frame is answered once (`too_large`), the rest of
//!   the over-long line is drained (bounded) so the error survives the
//!   peer's send buffer, and the connection closes;
//! * empty lines are skipped, torn trailing lines at EOF are served,
//!   and a handler panic is a structured `internal` error (the front's),
//!   never a dead server.
//!
//! What scales differently: idle connections cost a registry entry
//! instead of a parked thread, and per-connection pipelining is capped
//! ([`PIPELINE_CAP`]) by pausing read interest instead of blocking a
//! thread.
//!
//! Two ways to stop: a shutdown (a handler's flag or
//! [`ServerHandle::shutdown`](crate::server::ServerHandle::shutdown))
//! drains — no new connections, in-flight requests answered — while an
//! abort ([`FrameHandler::aborted`]) drops the listener and every
//! connection at once and writes no further reply, as a killed process
//! would.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use reds_json::Json;

use crate::protocol::{
    error_response, ok_response, small_uint, ServeError, ServeLimits, WireError,
};
use crate::wire::{FrameBuffer, FrameEvent};

use self::sys::Poller;

/// How long one poller wait may block; bounds shutdown-flag latency
/// exactly like the old per-connection read timeout did.
const TICK: Duration = Duration::from_millis(100);

/// Requests one connection may have dispatched-but-unanswered before
/// the reactor pauses reading from it (backpressure on pipelining
/// abuse; normal request/response clients never hit it).
const PIPELINE_CAP: usize = 32;

/// Read buffer size per `read(2)` call.
const READ_CHUNK: usize = 64 * 1024;

/// How long a draining server waits for in-flight requests before
/// force-closing their connections.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// A request protocol served by the reactor: how to decode a frame and
/// how to serve the decoded request. Everything else about a frame is
/// the front's, [`FrameHandler::handle_frame`].
///
/// Implemented by [`crate::server::Service`] (a model registry behind
/// the full command set), [`crate::router::Router`] (a shard fan-out)
/// and the fleet worker.
///
/// Frames of one connection may run on several executors at once, so a
/// frame can be handled after the one that followed it on the wire;
/// replies still go out in request order.
pub trait FrameHandler: Send + Sync + 'static {
    /// A decoded request.
    type Request;
    /// A refusal, answered in the error envelope.
    type Error: WireError;

    /// Decodes one parsed frame.
    fn decode(&self, doc: &Json) -> Result<Self::Request, Self::Error>;

    /// `true` when `request` asks the server to stop once it is
    /// answered.
    fn stops(&self, request: &Self::Request) -> bool;

    /// Serves one decoded request: the reply's `result`, or a refusal.
    fn dispatch(&self, request: Self::Request) -> Result<Json, Self::Error>;

    /// `true` once the server must die as a killed process would: from
    /// then on no reply is written, and within one poll tick the
    /// listener and every connection close, with no drain. The fleet
    /// worker's crash hook uses it; serving handlers never abort.
    fn aborted(&self) -> bool {
        false
    }

    /// The front: the one path from a request line to its reply, for
    /// every handler and every frame the reactor serves. Returns the
    /// reply and whether the server should stop once it is delivered.
    ///
    /// A line that is not JSON is answered `parse` with id 0. Otherwise
    /// the id is read once, by [`small_uint`] (0 when absent or not an
    /// integer in `0..=u32::MAX`), and every reply to the frame carries
    /// it: the result, a decode or dispatch refusal, and the `internal`
    /// error a panic anywhere in the frame becomes. Only a shutdown
    /// request that was answered `ok` stops the server. Handlers do not
    /// override this.
    fn handle_frame(&self, line: &str) -> (Json, bool) {
        let mut id = 0;
        let reply = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let doc = match reds_json::from_str(line) {
                Ok(doc) => doc,
                Err(e) => return (error_response(0, &ServeError::parse(e.to_string())), false),
            };
            id = doc.get("id").and_then(small_uint).unwrap_or(0);
            let served = self.decode(&doc).and_then(|request| {
                let stop = self.stops(&request);
                self.dispatch(request).map(|result| (result, stop))
            });
            match served {
                Ok((result, stop)) => (ok_response(id, result), stop),
                Err(e) => (error_response(id, &e), false),
            }
        }));
        reply.unwrap_or_else(|_| {
            let err = ServeError::internal("request handler panicked; see server log");
            (error_response(id, &err), false)
        })
    }
}

/// Connection gauges the `info` command reports; shared between the
/// reactor (which maintains them) and the handler (which reads them).
#[derive(Debug, Default)]
pub struct ConnGauges {
    /// Connections accepted since startup (admitted or not).
    pub connections: AtomicU64,
    /// Connections currently being served.
    pub active_connections: AtomicUsize,
    /// Connections turned away with `too_busy` at the admission gate.
    pub rejected_connections: AtomicU64,
}

/// Wakes the reactor from its poll wait (one byte down a socketpair).
#[derive(Clone)]
pub(crate) struct Waker {
    tx: Arc<UnixStream>,
}

impl Waker {
    fn wake(&self) {
        // A full pipe already guarantees a pending wakeup; all other
        // errors mean the reactor is gone. Either way: best effort.
        let _ = (&*self.tx).write(&[1u8]);
    }

    pub(crate) fn nudge(&self) {
        self.wake();
    }
}

struct WorkItem {
    token: u64,
    seq: u64,
    line: Vec<u8>,
}

struct WorkState {
    queue: VecDeque<WorkItem>,
    closed: bool,
}

struct WorkQueue {
    state: Mutex<WorkState>,
    ready: Condvar,
}

impl WorkQueue {
    fn new() -> Self {
        Self {
            state: Mutex::new(WorkState {
                queue: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    fn push(&self, item: WorkItem) {
        self.state
            .lock()
            .expect("work queue poisoned")
            .queue
            .push_back(item);
        self.ready.notify_one();
    }

    fn pop(&self) -> Option<WorkItem> {
        let mut state = self.state.lock().expect("work queue poisoned");
        loop {
            if let Some(item) = state.queue.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).expect("work queue poisoned");
        }
    }

    fn close(&self) {
        self.state.lock().expect("work queue poisoned").closed = true;
        self.ready.notify_all();
    }
}

struct Reply {
    token: u64,
    seq: u64,
    frame: Vec<u8>,
    shutdown: bool,
}

/// Executor → reactor reply bus.
struct ReplyBus {
    pending: Mutex<Vec<Reply>>,
}

impl ReplyBus {
    fn new() -> Self {
        Self {
            pending: Mutex::new(Vec::new()),
        }
    }

    fn push(&self, reply: Reply) {
        self.pending.lock().expect("reply bus poisoned").push(reply);
    }

    fn drain(&self) -> Vec<Reply> {
        std::mem::take(&mut *self.pending.lock().expect("reply bus poisoned"))
    }
}

/// Per-connection state owned by the reactor thread.
struct Conn {
    stream: TcpStream,
    fb: FrameBuffer,
    /// Bytes queued for the peer; `out_pos` marks how much is written.
    out: Vec<u8>,
    out_pos: usize,
    /// Next sequence number to assign to an incoming frame.
    next_seq: u64,
    /// Sequence number the next emitted reply must carry — replies
    /// completing out of order park in `parked` until their turn.
    next_reply: u64,
    parked: BTreeMap<u64, (Vec<u8>, bool)>,
    /// Frames dispatched (or locally parked) but not yet emitted.
    in_flight: usize,
    /// No more reads or dispatches; finish replies, flush, close.
    read_closed: bool,
    /// Oversized frame seen: close once the discard completes and the
    /// error response is flushed.
    close_when_drained: bool,
    /// Read interest withdrawn because `in_flight` hit the cap.
    paused: bool,
    /// Interest bits currently registered with the poller.
    registered: (bool, bool),
}

impl Conn {
    fn new(stream: TcpStream, max_frame_bytes: usize) -> Self {
        Self {
            stream,
            fb: FrameBuffer::new(max_frame_bytes),
            out: Vec::new(),
            out_pos: 0,
            next_seq: 0,
            next_reply: 0,
            parked: BTreeMap::new(),
            in_flight: 0,
            read_closed: false,
            close_when_drained: false,
            paused: false,
            registered: (true, false),
        }
    }

    fn out_done(&self) -> bool {
        self.out_pos >= self.out.len()
    }

    fn wants_read(&self) -> bool {
        !self.read_closed && !self.paused
    }

    fn wants_write(&self) -> bool {
        !self.out_done()
    }

    /// `true` when nothing more will ever happen on this connection.
    fn finished(&self) -> bool {
        if !self.out_done() {
            return false;
        }
        if self.close_when_drained {
            // Oversized: the error (and every earlier reply) must be
            // emitted, and the discard must finish so the flushed error
            // is not destroyed by a reset — unless the drain budget ran
            // out (then `read_closed` is already set).
            return self.in_flight == 0 && (!self.fb.discarding() || self.read_closed);
        }
        self.read_closed && self.in_flight == 0
    }
}

const WAKE_TOKEN: u64 = 0;
const LISTENER_TOKEN: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

struct Reactor<H> {
    poller: Poller,
    listener: Option<TcpListener>,
    wake_rx: UnixStream,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    handler: Arc<H>,
    handler_work: Arc<WorkQueue>,
    replies: Arc<ReplyBus>,
    limits: ServeLimits,
    gauges: Arc<ConnGauges>,
    stop: Arc<AtomicBool>,
    draining: bool,
    drain_deadline: Instant,
    scratch: Vec<u8>,
}

impl<H: FrameHandler> Reactor<H> {
    fn run(&mut self) -> io::Result<()> {
        let mut events = Vec::new();
        loop {
            self.poller.wait(&mut events, TICK)?;
            if self.handler.aborted() {
                return Ok(()); // dropping the reactor closes every socket
            }
            for ev in events.drain(..) {
                match ev.token {
                    WAKE_TOKEN => self.drain_wake_pipe(),
                    LISTENER_TOKEN => self.accept_ready(),
                    token => {
                        if ev.writable {
                            self.flush(token);
                        }
                        if ev.readable {
                            self.read_ready(token);
                        }
                    }
                }
            }
            self.pump_replies();
            if self.stop.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if self.draining {
                let expired = Instant::now() >= self.drain_deadline;
                if expired {
                    let tokens: Vec<u64> = self.conns.keys().copied().collect();
                    for token in tokens {
                        self.close_conn(token);
                    }
                }
                if self.conns.is_empty() {
                    return Ok(());
                }
            }
        }
    }

    fn drain_wake_pipe(&mut self) {
        let mut buf = [0u8; 64];
        loop {
            match self.wake_rx.read(&mut buf) {
                Ok(0) => return,
                Ok(_) => continue,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept errors (aborted handshakes, fd
                // pressure): skip this readiness round.
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        self.gauges.connections.fetch_add(1, Ordering::Relaxed);
        // Admission control: beyond `max_connections` concurrently
        // served sockets, answer with a structured `too_busy` frame and
        // close instead of registering the connection. Counted here so
        // a burst of accepts cannot race past the cap.
        let active = self.gauges.active_connections.load(Ordering::SeqCst);
        if self.draining || active >= self.limits.max_connections {
            self.gauges
                .rejected_connections
                .fetch_add(1, Ordering::Relaxed);
            let err = ServeError::too_busy(format!(
                "server is at its limit of {} concurrent connections; retry later",
                self.limits.max_connections
            ));
            // Accepted sockets are blocking; bound the courtesy write
            // so a peer that never reads cannot stall the reactor.
            let mut stream = stream;
            let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
            let _ = crate::wire::write_frame(&mut stream, &error_response(0, &err));
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        stream.set_nodelay(true).ok();
        let token = self.next_token;
        self.next_token += 1;
        if self
            .poller
            .add(stream.as_raw_fd(), token, true, false)
            .is_err()
        {
            return;
        }
        self.gauges
            .active_connections
            .fetch_add(1, Ordering::SeqCst);
        self.conns
            .insert(token, Conn::new(stream, self.limits.max_frame_bytes));
    }

    fn read_ready(&mut self, token: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if !conn.wants_read() {
                break;
            }
            let n = match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.read_closed = true;
                    // A torn trailing line (no newline before EOF) is
                    // still a frame, matching the blocking reader.
                    if let Some(line) = conn.fb.take_trailing() {
                        Self::dispatch(&self.handler_work, conn, token, line);
                    }
                    break;
                }
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(token);
                    return;
                }
            };
            let chunk = std::mem::take(&mut self.scratch);
            self.feed(token, &chunk[..n]);
            self.scratch = chunk;
        }
        // Locally produced replies (the too_large error) park without
        // going through the executor bus; sequence them in here.
        if let Some(conn) = self.conns.get_mut(&token) {
            let _ = Self::advance(conn);
        }
        self.flush(token);
        self.after_progress(token);
    }

    /// Runs the framing state machine over freshly read bytes.
    fn feed(&mut self, token: u64, mut input: &[u8]) {
        let drain_budget = self.limits.max_frame_bytes.saturating_mul(8);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        while !input.is_empty() && !conn.read_closed {
            let (used, event) = conn.fb.push(input);
            input = &input[used..];
            match event {
                Some(FrameEvent::Frame(line)) => {
                    if line.iter().all(|b| b.is_ascii_whitespace()) {
                        continue; // blank lines are ignored, not errors
                    }
                    Self::dispatch(&self.handler_work, conn, token, line);
                    if conn.in_flight >= PIPELINE_CAP {
                        conn.paused = true;
                    }
                }
                Some(FrameEvent::TooLarge) => {
                    // Answer once, then drain the rest of the over-long
                    // line before closing — the peer is typically still
                    // blocked writing it, and closing with unread data
                    // in the receive buffer resets the connection,
                    // destroying this very error response.
                    let err = ServeError::too_large(format!(
                        "frame exceeds {} bytes",
                        self.limits.max_frame_bytes
                    ));
                    let frame = error_response(0, &err).to_string_compact().into_bytes();
                    let seq = conn.next_seq;
                    conn.next_seq += 1;
                    conn.in_flight += 1;
                    conn.parked.insert(seq, (frame, false));
                    conn.close_when_drained = true;
                }
                Some(FrameEvent::DrainEnd) => {
                    // The rejected line ended; nothing after it is
                    // served (the old reader closed here too).
                    conn.read_closed = true;
                }
                None => {}
            }
            if conn.fb.discarding() && conn.fb.discarded() > drain_budget {
                // An endless line cannot pin the connection.
                conn.read_closed = true;
            }
        }
    }

    fn dispatch(work: &WorkQueue, conn: &mut Conn, token: u64, line: Vec<u8>) {
        let seq = conn.next_seq;
        conn.next_seq += 1;
        conn.in_flight += 1;
        work.push(WorkItem { token, seq, line });
    }

    fn pump_replies(&mut self) {
        let mut request_stop = false;
        for reply in self.replies.drain() {
            let Some(conn) = self.conns.get_mut(&reply.token) else {
                continue; // connection died while the request ran
            };
            conn.parked.insert(reply.seq, (reply.frame, reply.shutdown));
            if Self::advance(conn) {
                request_stop = true;
            }
            self.flush(reply.token);
            self.after_progress(reply.token);
        }
        if request_stop {
            self.stop.store(true, Ordering::SeqCst);
        }
    }

    /// Emits parked replies in sequence order; returns whether one of
    /// them requested server shutdown.
    fn advance(conn: &mut Conn) -> bool {
        let mut request_stop = false;
        while let Some((frame, shutdown)) = conn.parked.remove(&conn.next_reply) {
            conn.next_reply += 1;
            conn.in_flight -= 1;
            conn.out.extend_from_slice(&frame);
            conn.out.push(b'\n');
            if shutdown {
                conn.read_closed = true;
                request_stop = true;
            }
        }
        if conn.paused && conn.in_flight < PIPELINE_CAP {
            conn.paused = false;
        }
        request_stop
    }

    fn flush(&mut self, token: u64) {
        if self.handler.aborted() {
            return;
        }
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let mut dead = false;
        while !conn.out_done() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if dead {
            self.close_conn(token);
            return;
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            if conn.out_done() {
                conn.out.clear();
                conn.out_pos = 0;
            }
        }
    }

    /// Re-registers poller interest and closes the connection if it is
    /// finished — called after every state change.
    fn after_progress(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.finished() {
            self.close_conn(token);
            return;
        }
        let want = (conn.wants_read(), conn.wants_write());
        if want != conn.registered {
            let fd = conn.stream.as_raw_fd();
            if self.poller.modify(fd, token, want.0, want.1).is_ok() {
                conn.registered = want;
            }
        }
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.remove(conn.stream.as_raw_fd());
            self.gauges
                .active_connections
                .fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Stops accepting, stops reading, lets in-flight requests finish
    /// (bounded by [`DRAIN_DEADLINE`]), then the run loop exits.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Instant::now() + DRAIN_DEADLINE;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.remove(listener.as_raw_fd());
            // Dropping the listener closes it: new connections are
            // refused from this point on.
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.read_closed = true;
            }
            self.after_progress(token);
        }
    }
}

/// Everything `ServerHandle` needs to control a running reactor.
pub(crate) struct ReactorParts {
    pub(crate) thread: std::thread::JoinHandle<()>,
    pub(crate) waker: Waker,
}

/// Spawns the reactor thread and its executor pool over an
/// already-bound listener.
pub(crate) fn spawn_reactor<H: FrameHandler>(
    listener: TcpListener,
    handler: Arc<H>,
    limits: ServeLimits,
    gauges: Arc<ConnGauges>,
    stop: Arc<AtomicBool>,
) -> io::Result<ReactorParts> {
    listener.set_nonblocking(true)?;
    let (wake_tx, wake_rx) = UnixStream::pair()?;
    wake_tx.set_nonblocking(true)?;
    wake_rx.set_nonblocking(true)?;
    let waker = Waker {
        tx: Arc::new(wake_tx),
    };

    let mut poller = Poller::new()?;
    poller.add(wake_rx.as_raw_fd(), WAKE_TOKEN, true, false)?;
    poller.add(listener.as_raw_fd(), LISTENER_TOKEN, true, false)?;

    let work = Arc::new(WorkQueue::new());
    let replies = Arc::new(ReplyBus::new());

    // Enough executors that the discover gate — not the pool — is the
    // concurrency limit, plus headroom for cheap requests to overtake
    // long discovers.
    let executors = (limits.max_active_discovers + 2).clamp(2, 16);
    let mut executor_threads = Vec::with_capacity(executors);
    for i in 0..executors {
        let work = Arc::clone(&work);
        let replies = Arc::clone(&replies);
        let handler = Arc::clone(&handler);
        let waker = waker.clone();
        executor_threads.push(
            std::thread::Builder::new()
                .name(format!("reds-exec-{i}"))
                .spawn(move || executor_loop(&work, handler.as_ref(), &replies, &waker))?,
        );
    }

    let mut reactor = Reactor {
        poller,
        listener: Some(listener),
        wake_rx,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        handler,
        handler_work: Arc::clone(&work),
        replies,
        limits,
        gauges,
        stop,
        draining: false,
        drain_deadline: Instant::now(),
        scratch: vec![0u8; READ_CHUNK],
    };
    let thread = std::thread::Builder::new()
        .name("reds-reactor".to_string())
        .spawn(move || {
            if let Err(e) = reactor.run() {
                eprintln!("reds-serve reactor error: {e}");
            }
            drop(reactor); // close remaining sockets before the join
            work.close();
            for t in executor_threads {
                let _ = t.join();
            }
        })?;
    Ok(ReactorParts { thread, waker })
}

fn executor_loop<H: FrameHandler>(
    work: &WorkQueue,
    handler: &H,
    replies: &ReplyBus,
    waker: &Waker,
) {
    while let Some(item) = work.pop() {
        // The front turns every panic of the frame into a reply.
        let (response, shutdown) = handler.handle_frame(&String::from_utf8_lossy(&item.line));
        replies.push(Reply {
            token: item.token,
            seq: item.seq,
            frame: response.to_string_compact().into_bytes(),
            shutdown,
        });
        waker.wake();
    }
}

/// Readiness event delivered by a [`Poller`] backend.
struct PollEvent {
    token: u64,
    readable: bool,
    writable: bool,
}

/// Name of the compiled-in readiness backend (reported by `info`).
pub fn poller_backend() -> &'static str {
    sys::BACKEND
}

#[cfg(target_os = "linux")]
mod sys {
    //! `epoll(7)` via direct FFI. std already links libc on unix
    //! targets, so declaring the handful of symbols we need avoids a
    //! libc crate dependency.

    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    use super::PollEvent;

    pub(crate) const BACKEND: &str = "epoll";

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLL_CLOEXEC: i32 = 0o2000000;

    /// Mirrors `struct epoll_event`; packed on x86-64 only, exactly as
    /// the kernel ABI demands.
    #[derive(Clone, Copy)]
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    fn interest(read: bool, write: bool) -> u32 {
        let mut bits = 0;
        if read {
            bits |= EPOLLIN;
        }
        if write {
            bits |= EPOLLOUT;
        }
        bits
    }

    pub(crate) struct Poller {
        epfd: RawFd,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Self> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Self { epfd })
        }

        fn ctl(&self, op: i32, fd: RawFd, event: *mut EpollEvent) -> io::Result<()> {
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, event) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        pub(crate) fn add(
            &mut self,
            fd: RawFd,
            token: u64,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest(read, write),
                data: token,
            };
            self.ctl(EPOLL_CTL_ADD, fd, &mut ev)
        }

        pub(crate) fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: interest(read, write),
                data: token,
            };
            self.ctl(EPOLL_CTL_MOD, fd, &mut ev)
        }

        pub(crate) fn remove(&mut self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, std::ptr::null_mut())
        }

        pub(crate) fn wait(
            &mut self,
            out: &mut Vec<PollEvent>,
            timeout: Duration,
        ) -> io::Result<()> {
            const MAX_EVENTS: usize = 128;
            let mut raw = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    raw.as_mut_ptr(),
                    MAX_EVENTS as i32,
                    timeout.as_millis() as i32,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            out.clear();
            for ev in raw.iter().take(n as usize) {
                // Copy out of the (possibly packed) struct before use.
                let bits = ev.events;
                let token = ev.data;
                out.push(PollEvent {
                    token,
                    // HUP/ERR surface as readability so the read path
                    // observes the EOF / error directly.
                    readable: bits & (EPOLLIN | EPOLLHUP | EPOLLERR) != 0,
                    writable: bits & (EPOLLOUT | EPOLLERR) != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod sys {
    //! Portable `poll(2)` fallback for non-Linux unix targets, same
    //! direct-FFI pattern as the epoll backend.

    use std::io;
    use std::os::fd::RawFd;
    use std::time::Duration;

    use super::PollEvent;

    pub(crate) const BACKEND: &str = "poll";

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: RawFd,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u32, timeout: i32) -> i32;
    }

    fn interest(read: bool, write: bool) -> i16 {
        let mut bits = 0;
        if read {
            bits |= POLLIN;
        }
        if write {
            bits |= POLLOUT;
        }
        bits
    }

    pub(crate) struct Poller {
        /// (fd, token, interest-bits) registrations.
        entries: Vec<(RawFd, u64, i16)>,
    }

    impl Poller {
        pub(crate) fn new() -> io::Result<Self> {
            Ok(Self {
                entries: Vec::new(),
            })
        }

        pub(crate) fn add(
            &mut self,
            fd: RawFd,
            token: u64,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            self.entries.push((fd, token, interest(read, write)));
            Ok(())
        }

        pub(crate) fn modify(
            &mut self,
            fd: RawFd,
            token: u64,
            read: bool,
            write: bool,
        ) -> io::Result<()> {
            for entry in &mut self.entries {
                if entry.0 == fd {
                    entry.1 = token;
                    entry.2 = interest(read, write);
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub(crate) fn remove(&mut self, fd: RawFd) -> io::Result<()> {
            self.entries.retain(|entry| entry.0 != fd);
            Ok(())
        }

        pub(crate) fn wait(
            &mut self,
            out: &mut Vec<PollEvent>,
            timeout: Duration,
        ) -> io::Result<()> {
            let mut fds: Vec<PollFd> = self
                .entries
                .iter()
                .map(|&(fd, _, events)| PollFd {
                    fd,
                    events,
                    revents: 0,
                })
                .collect();
            let n = unsafe {
                poll(
                    fds.as_mut_ptr(),
                    fds.len() as u32,
                    timeout.as_millis() as i32,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            out.clear();
            for (pollfd, &(_, token, _)) in fds.iter().zip(&self.entries) {
                let bits = pollfd.revents;
                if bits == 0 {
                    continue;
                }
                out.push(PollEvent {
                    token,
                    readable: bits & (POLLIN | POLLHUP | POLLERR) != 0,
                    writable: bits & (POLLOUT | POLLERR) != 0,
                });
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::server::serve_handler;

    /// Decodes a frame to its `cmd`; `stop…` commands stop the server,
    /// and dispatch answers `echo` and `stop`, panics on `panic` and
    /// refuses everything else.
    struct Stub;

    impl FrameHandler for Stub {
        type Request = String;
        type Error = ServeError;

        fn decode(&self, doc: &Json) -> Result<String, ServeError> {
            doc.get("cmd")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| ServeError::parse("missing 'cmd'"))
        }

        fn stops(&self, cmd: &String) -> bool {
            cmd.starts_with("stop")
        }

        fn dispatch(&self, cmd: String) -> Result<Json, ServeError> {
            match cmd.as_str() {
                "echo" | "stop" => Ok(Json::str(cmd)),
                "panic" => panic!("the stub handler panics on purpose"),
                _ => Err(ServeError::bad_request(format!("refused '{cmd}'"))),
            }
        }
    }

    #[test]
    fn the_front_answers_every_frame_with_its_id_and_stops_only_on_an_answered_shutdown() {
        // (frame, reply id, error code or None for ok, stops)
        let cases: [(&str, u64, Option<&str>, bool); 12] = [
            ("not json", 0, Some("parse"), false),
            (r#"{"id":7,"cmd":"echo"}"#, 7, None, false),
            // Decode and dispatch refusals keep the request's id.
            (r#"{"id":8}"#, 8, Some("parse"), false),
            (r#"{"id":9,"cmd":"nope"}"#, 9, Some("bad_request"), false),
            // A panic anywhere in the frame is `internal` with its id.
            (r#"{"id":10,"cmd":"panic"}"#, 10, Some("internal"), false),
            // Ids outside 0..=u32::MAX, or not integers, read as 0.
            (
                r#"{"id":4294967295,"cmd":"echo"}"#,
                4_294_967_295,
                None,
                false,
            ),
            (r#"{"id":4294967296,"cmd":"echo"}"#, 0, None, false),
            (r#"{"id":-1,"cmd":"echo"}"#, 0, None, false),
            (r#"{"id":"5","cmd":"echo"}"#, 0, None, false),
            // Only a shutdown that is answered ok stops the server.
            (r#"{"id":11,"cmd":"stop"}"#, 11, None, true),
            (r#"{"id":12.5,"cmd":"stop"}"#, 0, None, true),
            (
                r#"{"id":13,"cmd":"stop-refused"}"#,
                13,
                Some("bad_request"),
                false,
            ),
        ];
        for (line, id, code, stops) in cases {
            let (reply, stop) = Stub.handle_frame(line);
            assert_eq!(stop, stops, "{line} → {reply}");
            let expected = match code {
                None => ok_response(id, reply.get("result").cloned().expect("result")),
                Some(code) => {
                    let message = reply
                        .get("error")
                        .and_then(|e| e.get("message"))
                        .and_then(Json::as_str)
                        .expect("message");
                    error_response(id, &(code, message))
                }
            };
            assert_eq!(reply, expected, "{line}");
        }
        let (reply, _) = Stub.handle_frame(r#"{"id":7,"cmd":"echo"}"#);
        assert_eq!(
            reply.to_string_compact(),
            r#"{"id":7,"ok":true,"result":"echo"}"#
        );
    }

    #[test]
    fn a_connection_serves_its_next_frame_after_a_handler_panic() {
        let limits = ServeLimits::default();
        let server = serve_handler(
            Arc::new(Stub),
            "127.0.0.1:0",
            limits,
            Arc::new(ConnGauges::default()),
        )
        .expect("binds");
        let mut client = Client::connect(server.addr()).expect("connects");
        client
            .set_timeout(Some(Duration::from_secs(10)))
            .expect("timeout");
        let reply = client
            .send_raw_line(r#"{"id":3,"cmd":"panic"}"#)
            .expect("the panic is answered");
        assert_eq!(reply.get("id").and_then(Json::as_f64), Some(3.0));
        let code = reply.get("error").and_then(|e| e.get("code"));
        assert_eq!(code.and_then(Json::as_str), Some("internal"));
        let reply = client
            .send_raw_line(r#"{"id":4,"cmd":"echo"}"#)
            .expect("the same connection serves on");
        assert_eq!(
            reply.to_string_compact(),
            r#"{"id":4,"ok":true,"result":"echo"}"#
        );
        server.shutdown();
    }
}
