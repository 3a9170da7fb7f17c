//! `std::net` TCP front end over the in-process [`Server`]: a fixed
//! pool of reader threads multiplexing nonblocking connections, each
//! reader blocked in `poll(2)` until a socket or its doorbell has news.
//!
//! The thread-per-connection acceptor this replaces spent one OS
//! thread (stack, scheduler slot, park/unpark churn) per connection —
//! exactly the per-unit overhead the paper's small-shape analysis
//! warns against, applied to connections instead of GEMM tiles. Here
//! one acceptor thread admits connections up to a configurable cap
//! ([`DEFAULT_MAX_CONNECTIONS`] unless overridden via
//! [`TcpServer::bind_with_max_conns`]), refusing over-cap connects
//! with a typed [`ERR_BUSY`](crate::wire::ERR_BUSY) reply, and hands
//! each admitted stream round-robin to one of [`READER_THREADS`]
//! reader threads. Each reader sweeps its connections: resolve
//! finished [`Ticket`]s in FIFO order per connection,
//! flush buffered reply bytes, read the bytes `poll(2)` reported, and
//! re-frame them incrementally — a frame split across any number of
//! reads is reassembled byte-for-byte. Requests are submitted through
//! the shared [`Client`] and **never awaited on the reader thread**:
//! the reader keeps the ticket next to the connection, and the reply
//! rings the reader's [`Doorbell`] when it is fulfilled. So thousands
//! of idle or slow connections cost buffers, not threads, one stalled
//! request never blocks the other connections on its reader, and a
//! finished reply is flushed when it exists, not on a timer.
//!
//! Waiting is event-driven. When a sweep moves nothing, the reader
//! arms its doorbell, re-checks what can ring it (its tickets, its
//! inbox of new streams, the stop flag) and blocks in `poll(2)` on the
//! doorbell's socket pair and every unparked connection: `POLLIN`
//! while the connection is within its intake bounds, `POLLOUT` while
//! reply bytes wait to be flushed. A completed reply, the acceptor and
//! shutdown each ring the doorbell; the ring writes one byte only while
//! the reader is armed (see [`crate::doorbell`] for why no ring is
//! lost). With no connection parked the reader blocks with no timeout.
//!
//! `poll(2)` costs time per socket, so a connection quiet for 4 ms
//! with nothing owed is *parked*: taken out of the poll set. While any
//! connection is parked the reader wakes at least every millisecond and
//! probes a rotating seventh of the parked set with one zero-timeout
//! `poll(2)`, so a parked connection's first request waits under 8 ms
//! and an idle flood costs a fraction of a syscall per connection per
//! millisecond.
//!
//! Fairness and backpressure are explicit: at most
//! [`FRAMES_PER_SWEEP`] frames are decoded per connection per sweep
//! (the slow-reader starvation bound — one firehose connection cannot
//! monopolize its reader), and a connection whose reply buffer or
//! pending-reply queue is over the high-water mark stops being read
//! until it drains. Malformed payloads get a typed protocol-error
//! reply and the connection stays up; an oversized length prefix
//! desynchronizes the stream, so the reader queues one error reply
//! and closes after flushing it.
//!
//! `STATS` frames are answered from the same process state a local
//! report would see: a single-shard server renders
//! `Smm::stats_report` byte-identically to the in-process path, and a
//! sharded server renders the aggregated [`FleetReport`](crate::FleetReport)
//! (per-shard sections plus the merged fleet view).
//!
//! Shutdown never relies on read timeouts: [`TcpServer::shutdown`]
//! raises the stop flag, rings every reader's doorbell, wakes the
//! acceptor with a self-connection, and joins everything before
//! draining the inner [`Server`].
//!
//! `poll(2)` and Unix-domain socket pairs are POSIX, so this module is
//! built on unix targets only.

use std::collections::VecDeque;
use std::ffi::c_short;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use smm_core::Smm;

use crate::clock;
use crate::doorbell::{Doorbell, Ring};
use crate::poll::{self, PollFd, SocketWake, POLLIN, POLLOUT};
use crate::request::{GemmRequest, Rejected, Ticket};
use crate::server::{Client, ServeStats, Server};
use crate::shard::gather_fleet;
use crate::wire::{self, FrameRead, WireMsg, ERR_PROTOCOL};

/// Default cap on concurrent TCP connections — see
/// [`TcpServer::bind_with_max_conns`] to tune it. The multiplexed
/// front end holds an idle connection for the cost of its buffers, so
/// the default is 16× the old thread-per-connection cap of 256.
pub const DEFAULT_MAX_CONNECTIONS: usize = 4096;

/// Number of reader threads multiplexing the admitted connections.
/// Two is enough to overlap frame parsing with reply flushing on the
/// small hosts this targets; connections are assigned round-robin at
/// accept and never migrate.
pub const READER_THREADS: usize = 2;

/// Per-connection fairness bound: at most this many frames are
/// decoded from one connection in one reader sweep. A connection
/// blasting pipelined requests yields to its reader-mates after this
/// many, so sweep latency for every other connection on the same
/// reader is bounded.
pub const FRAMES_PER_SWEEP: usize = 32;

/// Stop reading from a connection whose un-flushed reply bytes exceed
/// this; reading resumes once the peer drains below it.
const WBUF_HIGH: usize = 1 << 20;

/// Stop reading from a connection with this many unanswered requests
/// in flight; resumes as replies complete.
const PENDING_HIGH: usize = 256;

/// Quiet time after which a connection with nothing owed is parked:
/// taken out of the poll set and probed in slices instead. Measured in
/// time, not sweeps: sweeps come whenever any connection on the reader
/// has news, so a sweep count would park a connection for its
/// reader-mates' business.
const PARK_AFTER: Duration = Duration::from_millis(4);

/// Longest a reader with parked connections blocks before its next
/// parked probe.
const PARKED_PROBE_PERIOD: Duration = Duration::from_millis(1);

/// Each probe covers this fraction of the parked set, so every parked
/// connection is probed within this many periods, about 7.7 ms: the
/// longest a parked connection's first request waits. Fewer slices
/// pick it up sooner at a proportional CPU cost, since a zero-timeout
/// probe costs about 0.4 µs per idle TCP socket (2-vCPU x86 host).
const PARKED_SLICES: usize = 7;

/// One reader thread's mailbox: streams the acceptor handed over, and
/// the doorbell that tells the blocked reader about them, about its
/// completed replies, and about shutdown.
struct ReaderShared {
    inbox: Mutex<Vec<TcpStream>>,
    bell: Arc<Doorbell<SocketWake>>,
}

struct TcpShared {
    /// Stop flag for the acceptor and readers; relaxed — it is only a
    /// one-way latch, shutdown rings each reader's doorbell after
    /// raising it (the doorbell's AcqRel swaps order the store before
    /// a blocked reader's re-check), and the joins in `shutdown`
    /// provide the final synchronization.
    stop: AtomicBool,
    client: Client<f32>,
    /// Handles to every shard runtime, so a `STATS` frame can be
    /// answered with the same per-shard `TelemetryReport`s that
    /// `Smm::stats_report` yields in-process (and, for one shard,
    /// byte-identically to it).
    smms: Vec<Arc<Smm<f32>>>,
    /// Live-connection count the `max_connections` cap is enforced
    /// against. Relaxed — only the acceptor increments (so admission
    /// never races itself) and only readers decrement; transient
    /// staleness can refuse a connect a moment late or early, which
    /// the typed busy reply already tells callers to expect.
    conn_count: AtomicUsize,
    /// Concurrent-connection cap; accepts beyond it are answered with
    /// a typed busy reply and closed.
    max_connections: usize,
    /// One mailbox per reader thread, indexed like the threads.
    readers: Vec<ReaderShared>,
}

/// One reply owed to a connection, in request order.
enum PendingReply {
    /// Already-encoded payload waiting to be framed out.
    Ready(Vec<u8>),
    /// A submitted request whose ticket rings the reader when done.
    Waiting {
        ticket: Ticket<f32>,
        m: usize,
        n: usize,
    },
}

/// Per-connection multiplexing state owned by one reader thread.
struct Conn {
    stream: TcpStream,
    /// Bytes read but not yet consumed by the framer.
    rbuf: Vec<u8>,
    /// Encoded reply frames not yet written; `wpos` is the flush
    /// cursor (partial nonblocking writes resume from it).
    wbuf: Vec<u8>,
    wpos: usize,
    /// Replies owed, FIFO in request order — wire clients expect
    /// replies in submission order on one connection.
    pending: VecDeque<PendingReply>,
    /// Reading stopped (peer EOF or stream desync); the connection is
    /// dropped once every owed reply is flushed.
    closing: bool,
    /// A read may find bytes: set by `poll(2)` (and for a new or
    /// unparked stream), cleared when a read would block.
    can_read: bool,
    /// A write may go through: cleared when a write would block, set
    /// again by `poll(2)`.
    can_write: bool,
    /// Last sweep that moved anything (or the accept); the connection
    /// parks after [`PARK_AFTER`] without one.
    last_progress: Instant,
}

impl Conn {
    fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            pending: VecDeque::new(),
            closing: false,
            can_read: true,
            can_write: true,
            last_progress: now,
        }
    }

    fn queue_frame(&mut self, payload: &[u8]) {
        self.wbuf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(payload);
    }

    /// Within the backpressure bounds: a slow reader (growing `wbuf`)
    /// or a deep pipeline (growing `pending`) stops being read until
    /// it drains.
    fn may_intake(&self) -> bool {
        !self.closing
            && self.wbuf.len() - self.wpos < WBUF_HIGH
            && self.pending.len() < PENDING_HIGH
    }

    /// The events to poll this connection for; none when it waits on
    /// its tickets alone.
    fn interest(&self) -> c_short {
        let mut events = 0;
        if self.may_intake() {
            events |= POLLIN;
        }
        if self.wpos < self.wbuf.len() {
            events |= POLLOUT;
        }
        events
    }

    /// The reply owed first can be framed now — the one event a
    /// connection's socket cannot report, so the doorbell does.
    fn reply_ready(&self) -> bool {
        match self.pending.front() {
            Some(PendingReply::Ready(_)) => true,
            Some(PendingReply::Waiting { ticket, .. }) => ticket.is_ready(),
            None => false,
        }
    }

    /// A whole frame, or an oversized length prefix that ends the
    /// stream, is already buffered.
    fn frame_buffered(&self) -> bool {
        frame_len(&self.rbuf)
            .is_some_and(|len| len > wire::MAX_PAYLOAD || self.rbuf.len() >= 4 + len)
    }

    /// Nothing owed, buffered or closing: only the socket can bring
    /// news, so a probe suffices.
    fn parkable(&self) -> bool {
        self.pending.is_empty() && !self.closing && self.wbuf.is_empty()
    }
}

/// The payload length a buffer's 4-byte prefix announces, once the
/// prefix is in.
fn frame_len(buf: &[u8]) -> Option<usize> {
    let prefix: [u8; 4] = buf.get(..4)?.try_into().expect("a 4-byte slice");
    Some(u32::from_le_bytes(prefix) as usize)
}

/// A TCP server speaking the [`wire`] protocol in front
/// of an in-process [`Server<f32>`] (single-shard or sharded). Stop
/// with [`TcpServer::shutdown`] (also run on drop), which joins the
/// acceptor and reader threads and gracefully drains the inner
/// server.
pub struct TcpServer {
    shared: Arc<TcpShared>,
    server: Option<Server<f32>>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    readers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("addr", &self.addr)
            .field("shards", &self.shared.smms.len())
            .finish_non_exhaustive()
    }
}

impl TcpServer {
    /// Bind `addr` (use port 0 for an ephemeral port — see
    /// [`TcpServer::local_addr`]) and start serving `server` over it,
    /// with the [`DEFAULT_MAX_CONNECTIONS`] concurrent-connection cap.
    pub fn bind(server: Server<f32>, addr: impl ToSocketAddrs) -> std::io::Result<TcpServer> {
        TcpServer::bind_with_max_conns(server, addr, DEFAULT_MAX_CONNECTIONS)
    }

    /// [`TcpServer::bind`] with an explicit concurrent-connection cap
    /// (clamped to at least 1). Connections accepted while the cap is
    /// reached get one [`ERR_BUSY`](crate::wire::ERR_BUSY) reply frame
    /// — carrying the cap in its detail field — and are closed, so a
    /// flood of connections cannot grow memory without bound (threads
    /// are fixed regardless: one acceptor plus [`READER_THREADS`]
    /// readers).
    pub fn bind_with_max_conns(
        server: Server<f32>,
        addr: impl ToSocketAddrs,
        max_connections: usize,
    ) -> std::io::Result<TcpServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let readers = (0..READER_THREADS)
            .map(|_| {
                Ok(ReaderShared {
                    inbox: Mutex::new(Vec::new()),
                    bell: Arc::new(Doorbell::new(SocketWake::new()?)),
                })
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        let shared = Arc::new(TcpShared {
            stop: AtomicBool::new(false),
            client: server.client(),
            smms: server.smms().to_vec(),
            conn_count: AtomicUsize::new(0),
            max_connections: max_connections.max(1),
            readers,
        });
        let readers = (0..READER_THREADS)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("smm-serve-reader-{i}"))
                    .spawn(move || reader_loop(&shared, &shared.readers[i]))
                    .expect("failed to spawn serve reader")
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("smm-serve-accept".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("failed to spawn serve acceptor")
        };
        Ok(TcpServer {
            shared,
            server: Some(server),
            addr,
            acceptor: Some(acceptor),
            readers,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of runtime shards behind this front end.
    pub fn shards(&self) -> usize {
        self.shared.smms.len()
    }

    /// Serving counters of the inner server (fleet-wide sums on a
    /// sharded server).
    pub fn stats(&self) -> ServeStats {
        self.shared.client.stats()
    }

    /// Stop accepting, close live connections, join every reader, and
    /// gracefully drain the inner server. Returns the final counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.shutdown_inner();
        let server = self.server.take().expect("shutdown runs once");
        server.shutdown()
    }

    fn shutdown_inner(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        // Readers block in poll(2) until something rings: they wake,
        // see `stop`, drop their connections (closing the streams),
        // and exit.
        for reader in &self.shared.readers {
            reader.bell.ring();
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for reader in self.readers.drain(..) {
            let _ = reader.join();
        }
    }
}

impl Drop for TcpServer {
    fn drop(&mut self) {
        self.shutdown_inner();
        // The inner Server's own Drop performs the graceful drain if
        // `shutdown` was not called explicitly.
    }
}

fn accept_loop(listener: &TcpListener, shared: &TcpShared) {
    let mut next = 0usize;
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::Relaxed) {
            return;
        }
        let Ok(mut stream) = stream else { continue };
        // Request/reply with small frames: Nagle only adds latency.
        let _ = stream.set_nodelay(true);
        if shared.conn_count.load(Ordering::Relaxed) >= shared.max_connections {
            let busy = wire::encode_reply_err(
                wire::ERR_BUSY,
                shared.max_connections as u32,
                &format!("connection limit reached (max {})", shared.max_connections),
            );
            let _ = wire::write_frame(&mut stream, &busy);
            let _ = stream.flush();
            continue;
        }
        // The readers only ever sweep nonblocking streams; refuse a
        // stream we cannot switch rather than risk a blocking read on
        // a reader thread.
        if stream.set_nonblocking(true).is_err() {
            continue;
        }
        shared.conn_count.fetch_add(1, Ordering::Relaxed);
        let reader = &shared.readers[next];
        reader.inbox.lock().unwrap().push(stream);
        reader.bell.ring();
        next = (next + 1) % shared.readers.len();
    }
}

/// One reader thread: sweep the active connections, probe the parked
/// ones when due, and block in `poll(2)` when nothing moved — until
/// stop.
fn reader_loop(shared: &TcpShared, me: &ReaderShared) {
    // The completion hook every ticket this reader submits carries.
    let hook: Arc<dyn Ring> = me.bell.clone();
    let mut active: Vec<Conn> = Vec::new();
    let mut parked: Vec<Conn> = Vec::new();
    let mut probe_at = 0usize;
    let mut next_probe = clock::now();
    let mut fds: Vec<PollFd> = Vec::new();
    loop {
        if shared.stop.load(Ordering::Relaxed) {
            // Dropping the streams closes them, unblocking any peer
            // mid-read; in-flight tickets are answered (or rejected)
            // by the inner server's own drain.
            shared
                .conn_count
                .fetch_sub(active.len() + parked.len(), Ordering::Relaxed);
            return;
        }
        let now = clock::now();
        let mut progress = false;
        {
            let mut inbox = me.inbox.lock().unwrap();
            if !inbox.is_empty() {
                progress = true;
                active.extend(inbox.drain(..).map(|stream| Conn::new(stream, now)));
            }
        }
        let mut i = 0;
        while i < active.len() {
            let conn = &mut active[i];
            let (moved, drop_conn) = sweep_conn(conn, shared, &hook);
            if moved {
                conn.last_progress = now;
                progress = true;
            }
            let park =
                conn.parkable() && now.saturating_duration_since(conn.last_progress) >= PARK_AFTER;
            if drop_conn {
                active.swap_remove(i);
                shared.conn_count.fetch_sub(1, Ordering::Relaxed);
            } else if park {
                parked.push(active.swap_remove(i));
            } else {
                i += 1;
            }
        }
        if !parked.is_empty() && now >= next_probe {
            next_probe = now + PARKED_PROBE_PERIOD;
            progress |= probe_parked(&mut parked, &mut active, &mut probe_at, &mut fds, now);
        }

        // Poll the doorbell and every active connection that wants an
        // event. After progress, only refresh readiness (timeout 0) and
        // sweep again; otherwise arm, re-check and block.
        fds.clear();
        fds.push(PollFd::new(me.bell.waker().fd(), POLLIN));
        fds.extend(active.iter().map(|c| match c.interest() {
            0 => PollFd::skip(),
            events => PollFd::new(c.stream.as_raw_fd(), events),
        }));
        // Errors other than EINTR (retried inside) need invalid
        // arguments or an out-of-memory kernel; the sweep retries.
        if progress {
            let _ = poll::wait(&mut fds, Some(Duration::ZERO));
        } else {
            let timeout = (!parked.is_empty()).then(|| next_probe.saturating_duration_since(now));
            me.bell.block_unless(
                || {
                    shared.stop.load(Ordering::Relaxed)
                        || !me.inbox.lock().unwrap().is_empty()
                        || active.iter().any(Conn::reply_ready)
                },
                || {
                    let _ = poll::wait(&mut fds, timeout);
                },
            );
        }
        if fds[0].readable() {
            me.bell.waker().drain();
        }
        for (conn, fd) in active.iter_mut().zip(&fds[1..]) {
            conn.can_read |= fd.readable();
            conn.can_write |= fd.writable();
        }
    }
}

/// Probe the next [`PARKED_SLICES`]-th of the parked connections with
/// one zero-timeout `poll(2)` and move those with news back to the
/// active set. Returns whether any moved.
fn probe_parked(
    parked: &mut Vec<Conn>,
    active: &mut Vec<Conn>,
    at: &mut usize,
    fds: &mut Vec<PollFd>,
    now: Instant,
) -> bool {
    if *at >= parked.len() {
        *at = 0;
    }
    let start = *at;
    let end = (start + parked.len().div_ceil(PARKED_SLICES)).min(parked.len());
    *at = end;
    fds.clear();
    fds.extend(
        parked[start..end]
            .iter()
            .map(|c| PollFd::new(c.stream.as_raw_fd(), POLLIN)),
    );
    if !matches!(poll::wait(fds, Some(Duration::ZERO)), Ok(n) if n > 0) {
        return false;
    }
    // Back to front, so each removal leaves the lower entries of the
    // slice in place; `remove` keeps the rotation order for the rest.
    for j in (0..fds.len()).rev() {
        if fds[j].readable() {
            let mut conn = parked.remove(start + j);
            conn.can_read = true;
            conn.last_progress = now;
            active.push(conn);
            *at -= 1;
        }
    }
    true
}

/// One multiplexing pass over one connection: resolve finished
/// tickets, flush, read what `poll(2)` reported, decode up to
/// [`FRAMES_PER_SWEEP`] frames. Returns `(made_progress,
/// drop_connection)`.
fn sweep_conn(conn: &mut Conn, shared: &TcpShared, bell: &Arc<dyn Ring>) -> (bool, bool) {
    let mut progress = false;

    // 1. Resolve owed replies in FIFO order; a still-pending ticket at
    //    the front blocks later (possibly finished) ones, preserving
    //    the per-connection reply order wire clients rely on.
    while let Some(front) = conn.pending.front_mut() {
        let payload = match front {
            PendingReply::Ready(_) => {
                let Some(PendingReply::Ready(p)) = conn.pending.pop_front() else {
                    unreachable!("front was Ready");
                };
                p
            }
            PendingReply::Waiting { ticket, m, n } => match ticket.try_take() {
                None => break,
                Some(Ok(c)) => {
                    let p = wire::encode_reply_ok(*m, *n, &c);
                    conn.pending.pop_front();
                    p
                }
                Some(Err(rej)) => {
                    let (code, detail) = wire::rejection_code(&rej);
                    let p = wire::encode_reply_err(code, detail, &rej.to_string());
                    conn.pending.pop_front();
                    p
                }
            },
        };
        conn.queue_frame(&payload);
        progress = true;
    }

    // 2. Flush buffered reply bytes (partial writes resume at wpos).
    while conn.can_write && conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return (true, true),
            Ok(n) => {
                conn.wpos += n;
                progress = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => conn.can_write = false,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return (true, true),
        }
    }
    if conn.wpos == conn.wbuf.len() && !conn.wbuf.is_empty() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }

    // 3. Intake: read and decode only while the connection is within
    //    its backpressure bounds. Bytes are read only when no whole
    //    frame is buffered, so a backlog waits in the socket (pushing
    //    back on the peer through TCP flow control), not in `rbuf`.
    if conn.may_intake() {
        if conn.can_read && !conn.frame_buffered() {
            let mut chunk = [0u8; 16 * 1024];
            // Bounded reads per sweep: one connection's firehose cannot
            // starve its reader-mates of sweeps.
            for _ in 0..4 {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.closing = true;
                        progress = true;
                        break;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&chunk[..n]);
                        progress = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        conn.can_read = false;
                        break;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return (true, true),
                }
            }
        }
        // Decode in place behind a cursor; the consumed prefix is
        // dropped once per sweep, not once per frame.
        let mut at = 0;
        for _ in 0..FRAMES_PER_SWEEP {
            if conn.closing || conn.pending.len() >= PENDING_HIGH {
                break;
            }
            let Some(len) = frame_len(&conn.rbuf[at..]) else {
                break;
            };
            if len > wire::MAX_PAYLOAD {
                // The stream is out of sync; answer once, flush, close.
                let err = wire::encode_reply_err(
                    ERR_PROTOCOL,
                    0,
                    &format!("frame of {len} bytes exceeds cap of {}", wire::MAX_PAYLOAD),
                );
                conn.pending.push_back(PendingReply::Ready(err));
                conn.closing = true;
                progress = true;
                break;
            }
            let Some(frame) = conn.rbuf.get(at + 4..at + 4 + len) else {
                break;
            };
            handle_frame(&mut conn.pending, shared, bell, frame);
            at += 4 + len;
            progress = true;
        }
        conn.rbuf.drain(..at);
    }

    // 4. A closing connection is dropped once every owed reply has
    //    been encoded and flushed.
    let drained = conn.closing && conn.pending.is_empty() && conn.wpos == conn.wbuf.len();
    (progress, drained)
}

/// Decode one frame and queue its (eventual) reply on the connection.
fn handle_frame(
    pending: &mut VecDeque<PendingReply>,
    shared: &TcpShared,
    bell: &Arc<dyn Ring>,
    frame: &[u8],
) {
    let reply = match wire::decode_payload(frame) {
        Ok(WireMsg::Request(req)) => {
            let (m, n) = (req.m, req.n);
            match shared.client.submit_ringing(req, bell) {
                Ok(ticket) => PendingReply::Waiting { ticket, m, n },
                Err(rej) => {
                    let (code, detail) = wire::rejection_code(&rej);
                    PendingReply::Ready(wire::encode_reply_err(code, detail, &rej.to_string()))
                }
            }
        }
        Ok(WireMsg::Stats { format }) => PendingReply::Ready(answer_stats(shared, format)),
        Ok(_) => PendingReply::Ready(wire::encode_reply_err(
            ERR_PROTOCOL,
            0,
            "reply opcode sent to server",
        )),
        // Framing is intact (length prefix was honoured), so a garbage
        // payload only poisons this one message.
        Err(msg) => PendingReply::Ready(wire::encode_reply_err(ERR_PROTOCOL, 0, &msg)),
    };
    pending.push_back(reply);
}

/// Render the live telemetry in the requested wire format. One shard:
/// exactly what the in-process `Smm::stats_report` would show — same
/// shards, same rate window, same slow-request exemplars — so a
/// remote scrape and a local report never disagree. Sharded: the
/// aggregated [`FleetReport`](crate::FleetReport) with per-shard
/// sections and the merged fleet view.
fn answer_stats(shared: &TcpShared, format: u8) -> Vec<u8> {
    let body = if shared.smms.len() <= 1 {
        let report = shared.smms[0].stats_report();
        match format {
            wire::STATS_JSON => report.to_json(),
            wire::STATS_PROMETHEUS => report.to_prometheus(),
            _ => report.to_string(),
        }
    } else {
        let fleet = gather_fleet(&shared.smms, |i| shared.client.shard_stats(i));
        match format {
            wire::STATS_JSON => fleet.to_json(),
            wire::STATS_PROMETHEUS => fleet.to_prometheus(),
            _ => fleet.to_string(),
        }
    };
    wire::encode_stats_reply(format, &body)
}

/// A blocking single-connection client for the wire protocol.
#[derive(Debug)]
pub struct TcpClient {
    stream: TcpStream,
}

impl TcpClient {
    /// Connect to a [`TcpServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        // Request/reply with small frames: Nagle only adds latency.
        stream.set_nodelay(true)?;
        Ok(TcpClient { stream })
    }

    /// Wrap an already-connected stream.
    pub fn from_stream(stream: TcpStream) -> TcpClient {
        TcpClient { stream }
    }

    /// Submit one request and block for its reply. Transport and
    /// framing failures map to [`Rejected::Protocol`]; server-side
    /// backpressure, deadline, shutdown, and connection-limit
    /// rejections come back as their original [`Rejected`] variants.
    /// A server-side validation failure ([`Rejected::Invalid`]) cannot
    /// carry its structured [`SmmError`](smm_core::SmmError) across
    /// the wire and arrives as [`Rejected::Protocol`] with the
    /// server's `invalid request: ...` message.
    pub fn call(&mut self, req: &GemmRequest<f32>) -> Result<Vec<f32>, Rejected> {
        let io_err = |e: std::io::Error| Rejected::Protocol(format!("transport: {e}"));
        wire::write_frame(&mut self.stream, &wire::encode_request(req)).map_err(io_err)?;
        let payload = match wire::read_frame(&mut self.stream).map_err(io_err)? {
            FrameRead::Frame(p) => p,
            FrameRead::Eof => {
                return Err(Rejected::Protocol("connection closed before reply".into()))
            }
            FrameRead::TooLarge(len) => {
                return Err(Rejected::Protocol(format!("oversized reply frame ({len})")))
            }
        };
        match wire::decode_payload(&payload).map_err(Rejected::Protocol)? {
            WireMsg::ReplyOk { c, .. } => Ok(c),
            WireMsg::ReplyErr { code, detail, msg } => {
                Err(wire::rejection_from_wire(code, detail, &msg))
            }
            WireMsg::Request(_) => Err(Rejected::Protocol("request opcode in reply".into())),
            other => Err(Rejected::Protocol(format!(
                "unexpected reply to request: {other:?}"
            ))),
        }
    }

    /// Scrape the server's live telemetry report. `format` is one of
    /// [`wire::STATS_TEXT`], [`wire::STATS_JSON`],
    /// [`wire::STATS_PROMETHEUS`]; the returned string is the rendered
    /// report body — on a single-shard server byte-identical to what
    /// the server's own `Smm::stats_report` would produce in that
    /// format at scrape time, on a sharded server the fleet report.
    pub fn stats(&mut self, format: u8) -> Result<String, Rejected> {
        let io_err = |e: std::io::Error| Rejected::Protocol(format!("transport: {e}"));
        wire::write_frame(&mut self.stream, &wire::encode_stats(format)).map_err(io_err)?;
        let payload = match wire::read_frame(&mut self.stream).map_err(io_err)? {
            FrameRead::Frame(p) => p,
            FrameRead::Eof => {
                return Err(Rejected::Protocol("connection closed before reply".into()))
            }
            FrameRead::TooLarge(len) => {
                return Err(Rejected::Protocol(format!("oversized reply frame ({len})")))
            }
        };
        match wire::decode_payload(&payload).map_err(Rejected::Protocol)? {
            WireMsg::StatsReply { body, .. } => Ok(body),
            WireMsg::ReplyErr { code, detail, msg } => {
                Err(wire::rejection_from_wire(code, detail, &msg))
            }
            other => Err(Rejected::Protocol(format!(
                "unexpected reply to stats: {other:?}"
            ))),
        }
    }
}
