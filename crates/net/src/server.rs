//! The server side of the wire: the one readiness event loop every
//! frame-speaking server runs, and [`EngineServer`], which puts one
//! [`SearchEngine`] behind it.
//!
//! The loop (crate-internal `FrameServer`) is one thread that owns the
//! nonblocking listener and every connection, parsing frames
//! incrementally out of per-connection read buffers and flushing replies
//! from write buffers, while a small worker pool computes the answers.
//! Because replies carry the request's correlation id, one connection
//! can have many requests in flight and the replies go out in completion
//! order — a slow search does not block the pings and estimates
//! pipelined behind it. Deadlines (connection idle, per-request compute)
//! live in a timer wheel rather than socket-level read timeouts. A
//! server built on the loop supplies only the name its
//! [`Message::HelloAck`] advertises and the function turning a decoded
//! request into a reply: [`EngineServer`] answers engine requests,
//! [`ReplicaServer`](crate::ReplicaServer) answers federation requests.
//!
//! Two connection modes exist, chosen by the client's opening
//! [`Message::Hello`]:
//!
//! * **request connections** (`subscribe: false`) carry calls — for an
//!   engine: search, true usefulness (single or batched), snapshot
//!   fetch, ping — any number in flight per connection;
//! * **subscriber connections** (`subscribe: true`) are held open and
//!   receive a pushed [`Message::InvalidateNotice`] whenever
//!   [`EngineServer::replace_engine`] swaps the collection. This is what
//!   lets a broker learn of collection changes without polling or
//!   sweeping: staleness travels *from* the engine *to* the broker.
//!
//! The server never panics on a misbehaving peer: undecodable frames, a
//! non-Hello opening frame, and request kinds the server does not serve
//! get a typed [`Message::Error`] reply (when the socket still writes)
//! and the connection is dropped.

use crate::frame::{encode_frame_into, parse_frame};
use crate::metrics::metrics;
use crate::timer::TimerWheel;
use crate::wire::Message;
use parking_lot::{Mutex, RwLock};
use seu_engine::SearchEngine;
use seu_metasearch::{EngineSnapshot, RemoteHit};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Idle cap on request connections: a client that connects and then goes
/// silent for this long is dropped rather than holding server state
/// forever. Subscriber connections are exempt.
const REQUEST_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Event-loop sleep bounds when no connection has traffic: start fine,
/// double up to the cap so an idle server costs microloops, not a core.
const IDLE_SLEEP_MIN: Duration = Duration::from_micros(250);
const IDLE_SLEEP_MAX: Duration = Duration::from_millis(2);

/// Write-buffer cap per connection; a subscriber that stops reading
/// while broadcasts pile up is dropped at this point instead of growing
/// the buffer without bound.
const MAX_WRITE_BUFFER: usize = 64 << 20;

/// Tuning for a frame server ([`EngineServer::bind_with`],
/// [`ReplicaServer::bind_with`](crate::ReplicaServer::bind_with)).
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads computing replies — the server's capacity model:
    /// at most this many requests compute at once, the rest queue. 0
    /// picks `available_parallelism` clamped to [2, 8].
    pub workers: usize,
    /// Idle cap on request connections.
    pub idle_timeout: Duration,
    /// Server-side deadline on one in-flight request: past it, the
    /// requester gets a typed error and the eventual result is dropped.
    pub request_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            idle_timeout: REQUEST_IDLE_TIMEOUT,
            request_timeout: Duration::from_secs(30),
        }
    }
}

/// Turns a decoded request into its reply on a worker thread; `None`
/// marks a request kind the server does not serve (the peer gets a typed
/// error and the connection closes).
pub(crate) type Answer = Box<dyn Fn(Message) -> Option<Message> + Send + Sync>;

/// State the loop, its workers, and the owning server share.
struct Shared {
    name: String,
    config: ServerConfig,
    answer: Answer,
    shutting_down: AtomicBool,
    /// Live subscriber count (incremented *before* the ack is queued, so
    /// a client that has its ack is already counted).
    subscribers: AtomicUsize,
    /// Pending broadcast frames, drained by the loop.
    broadcasts: Mutex<Vec<(u8, Vec<u8>)>>,
    wake: Wake,
}

/// Wakes the event loop out of its idle sleep (new completion,
/// broadcast, or shutdown).
struct Wake {
    flag: std::sync::Mutex<bool>,
    cv: std::sync::Condvar,
}

impl Wake {
    fn new() -> Wake {
        Wake {
            flag: std::sync::Mutex::new(false),
            cv: std::sync::Condvar::new(),
        }
    }

    fn notify(&self) {
        let mut flag = self.flag.lock().unwrap_or_else(|e| e.into_inner());
        *flag = true;
        self.cv.notify_all();
    }

    /// Sleeps up to `timeout` unless a notification is (or arrives)
    /// pending; consumes the pending flag.
    fn wait(&self, timeout: Duration) {
        let mut flag = self.flag.lock().unwrap_or_else(|e| e.into_inner());
        if !*flag {
            flag = match self.cv.wait_timeout(flag, timeout) {
                Ok((g, _)) => g,
                Err(e) => e.into_inner().0,
            };
        }
        *flag = false;
    }
}

/// A listener speaking frames: the event loop on its own thread, serving
/// `answer` under `name`. Dropping it stops the loop, closes every
/// connection, and joins the loop and its workers.
pub(crate) struct FrameServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl FrameServer {
    /// Binds `addr` (port 0 for ephemeral) and starts the loop.
    pub(crate) fn bind(
        name: String,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        answer: Answer,
    ) -> std::io::Result<FrameServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            name,
            config,
            answer,
            shutting_down: AtomicBool::new(false),
            subscribers: AtomicUsize::new(0),
            broadcasts: Mutex::new(Vec::new()),
            wake: Wake::new(),
        });
        let loop_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name(format!("seu-net-loop-{}", shared.name))
            .spawn(move || event_loop(listener, loop_shared))?;
        Ok(FrameServer {
            shared,
            addr,
            thread: Some(thread),
        })
    }

    pub(crate) fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub(crate) fn name(&self) -> &str {
        &self.shared.name
    }

    pub(crate) fn subscriber_count(&self) -> usize {
        self.shared.subscribers.load(Ordering::SeqCst)
    }

    /// Queues `message` for every subscriber and returns how many were
    /// registered at the call. Delivery is asynchronous: each of them
    /// either receives the frame or is detected dead and dropped.
    pub(crate) fn broadcast(&self, message: &Message) -> usize {
        let notified = self.subscriber_count();
        self.shared.broadcasts.lock().push(message.encode());
        self.shared.wake.notify();
        notified
    }
}

impl Drop for FrameServer {
    fn drop(&mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.wake.notify();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A [`SearchEngine`] served over TCP, with push invalidation to
/// subscribed brokers.
pub struct EngineServer {
    engine: Arc<RwLock<Arc<SearchEngine>>>,
    epoch: AtomicU64,
    server: FrameServer,
}

impl EngineServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `engine` under `name` with the default configuration.
    pub fn bind(
        name: impl Into<String>,
        engine: SearchEngine,
        addr: impl ToSocketAddrs,
    ) -> std::io::Result<EngineServer> {
        EngineServer::bind_with(name, engine, addr, ServerConfig::default())
    }

    /// [`EngineServer::bind`] with explicit capacity and deadlines.
    pub fn bind_with(
        name: impl Into<String>,
        engine: SearchEngine,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<EngineServer> {
        let name = name.into();
        let engine = Arc::new(RwLock::new(Arc::new(engine)));
        let (served, advertised) = (Arc::clone(&engine), name.clone());
        let answer: Answer = Box::new(move |request| {
            let engine = Arc::clone(&served.read());
            answer(&advertised, &engine, request)
        });
        Ok(EngineServer {
            engine,
            epoch: AtomicU64::new(0),
            server: FrameServer::bind(name, addr, config, answer)?,
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// The advertised engine name.
    pub fn name(&self) -> &str {
        self.server.name()
    }

    /// The server-side change epoch: how many times [`replace_engine`]
    /// has swapped the collection.
    ///
    /// [`replace_engine`]: EngineServer::replace_engine
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Live subscriber connections.
    pub fn subscriber_count(&self) -> usize {
        self.server.subscriber_count()
    }

    /// Swaps the served collection and pushes an
    /// [`Message::InvalidateNotice`] with the new fingerprint to every
    /// subscriber. Returns the number of subscribers the notice goes to
    /// (delivery is asynchronous: the count is of registered subscribers
    /// at the swap, each of which either receives the notice or is
    /// detected dead and dropped).
    pub fn replace_engine(&self, engine: SearchEngine) -> usize {
        let fingerprint = engine.fingerprint();
        *self.engine.write() = Arc::new(engine);
        let epoch = self.epoch.fetch_add(1, Ordering::SeqCst) + 1;
        self.server.broadcast(&Message::InvalidateNotice {
            name: self.name().to_string(),
            fingerprint,
            epoch,
        })
    }

    /// Stops accepting, closes every connection, and joins the loop and
    /// its workers (dropping the server does the same).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl std::fmt::Debug for EngineServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineServer")
            .field("name", &self.name())
            .field("addr", &self.addr())
            .field("epoch", &self.epoch())
            .field("subscribers", &self.subscriber_count())
            .finish()
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum ConnKind {
    /// Accepted but no Hello yet.
    Handshake,
    Request,
    Subscriber,
}

struct EventConn {
    stream: TcpStream,
    kind: ConnKind,
    /// Guards against a completed job landing on a recycled slot.
    gen: u64,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    /// Flushed prefix of `wbuf`.
    wstart: usize,
    last_activity: Instant,
    /// Flush the write buffer, then close.
    closing: bool,
    dead: bool,
}

impl EventConn {
    fn enqueue(&mut self, corr: u64, message: &Message) {
        let (kind, payload) = message.encode();
        encode_frame_into(&mut self.wbuf, corr, kind, &payload);
    }
}

/// Deadlines the timer wheel tracks for the loop.
enum Deadline {
    ConnIdle { slot: usize, gen: u64 },
    Request { slot: usize, gen: u64, corr: u64 },
}

/// A request handed to the worker pool.
struct Job {
    slot: usize,
    gen: u64,
    corr: u64,
    kind: u8,
    request: Message,
}

/// A computed reply on its way back to the loop; `close` ends the
/// connection once the reply is flushed.
struct Done {
    slot: usize,
    gen: u64,
    corr: u64,
    reply: Message,
    close: bool,
}

fn conn_mut(conns: &mut [Option<EventConn>], slot: usize, gen: u64) -> Option<&mut EventConn> {
    conns
        .get_mut(slot)
        .and_then(|c| c.as_mut())
        .filter(|c| c.gen == gen && !c.dead)
}

fn event_loop(listener: TcpListener, state: Arc<Shared>) {
    let workers = if state.config.workers > 0 {
        state.config.workers
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .clamp(2, 8)
    };
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(std::sync::Mutex::new(job_rx));
    let completions: Arc<std::sync::Mutex<Vec<Done>>> = Arc::new(std::sync::Mutex::new(Vec::new()));
    let worker_threads: Vec<JoinHandle<()>> = (0..workers)
        .map(|i| {
            let rx = Arc::clone(&job_rx);
            let done = Arc::clone(&completions);
            let st = Arc::clone(&state);
            std::thread::Builder::new()
                .name(format!("seu-net-worker-{}-{i}", st.name))
                .spawn(move || worker_loop(rx, done, st))
                .expect("spawning worker thread")
        })
        .collect();

    let mut conns: Vec<Option<EventConn>> = Vec::new();
    let mut free_slots: Vec<usize> = Vec::new();
    let mut next_gen: u64 = 1;
    let mut wheel: TimerWheel<Deadline> = TimerWheel::new(Duration::from_millis(25), 512);
    let mut req_deadlines: HashMap<(usize, u64, u64), crate::timer::TimerKey> = HashMap::new();
    let mut expired: Vec<Deadline> = Vec::new();
    let mut idle_sleep = IDLE_SLEEP_MIN;
    let m = metrics();

    loop {
        if state.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let mut activity = false;
        let now = Instant::now();

        // New connections.
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    activity = true;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    m.server_connections.inc();
                    m.server_active_connections.add(1.0);
                    let gen = next_gen;
                    next_gen += 1;
                    let conn = EventConn {
                        stream,
                        kind: ConnKind::Handshake,
                        gen,
                        rbuf: Vec::new(),
                        wbuf: Vec::new(),
                        wstart: 0,
                        last_activity: now,
                        closing: false,
                        dead: false,
                    };
                    let slot = match free_slots.pop() {
                        Some(s) => {
                            conns[s] = Some(conn);
                            s
                        }
                        None => {
                            conns.push(Some(conn));
                            conns.len() - 1
                        }
                    };
                    wheel.insert(
                        now,
                        state.config.idle_timeout,
                        Deadline::ConnIdle { slot, gen },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        // Finished jobs → write buffers (unless their deadline already
        // fired, in which case the requester was told and moved on).
        let done: Vec<Done> = {
            let mut lock = completions.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *lock)
        };
        for d in done {
            activity = true;
            match req_deadlines.remove(&(d.slot, d.gen, d.corr)) {
                Some(key) => {
                    wheel.cancel(key);
                }
                None => continue,
            }
            if let Some(conn) = conn_mut(&mut conns, d.slot, d.gen) {
                conn.enqueue(d.corr, &d.reply);
                conn.closing |= d.close;
            }
        }

        // Pending broadcasts → every subscriber's write buffer.
        let notices: Vec<(u8, Vec<u8>)> = {
            let mut lock = state.broadcasts.lock();
            std::mem::take(&mut *lock)
        };
        for (kind, payload) in &notices {
            activity = true;
            for conn in conns.iter_mut().flatten() {
                if conn.kind == ConnKind::Subscriber && !conn.dead && !conn.closing {
                    encode_frame_into(&mut conn.wbuf, 0, *kind, payload);
                    m.push_notices_sent.inc();
                }
            }
        }

        // Readable data → frames → inline replies or worker jobs.
        for (slot, entry) in conns.iter_mut().enumerate() {
            let Some(conn) = entry.as_mut() else {
                continue;
            };
            if conn.dead || conn.closing {
                continue;
            }
            let mut buf = [0u8; 16 * 1024];
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        // Peer closed; flush anything already queued.
                        conn.closing = true;
                        activity = true;
                        break;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&buf[..n]);
                        conn.last_activity = now;
                        activity = true;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            if conn.dead {
                continue;
            }
            // Drain complete frames from the read buffer.
            let mut consumed = 0;
            loop {
                match parse_frame(&conn.rbuf[consumed..], crate::frame::MAX_FRAME_BYTES) {
                    Ok(Some((frame, used))) => {
                        consumed += used;
                        handle_frame(
                            &state,
                            conn,
                            slot,
                            frame,
                            &job_tx,
                            &mut wheel,
                            &mut req_deadlines,
                            now,
                        );
                        if conn.closing || conn.dead {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(e) => {
                        conn.enqueue(
                            0,
                            &Message::Error {
                                detail: format!("invalid frame: {e}"),
                            },
                        );
                        conn.closing = true;
                        break;
                    }
                }
            }
            if consumed > 0 {
                conn.rbuf.drain(..consumed);
            }
        }

        // Deadlines.
        wheel.advance(now, &mut expired);
        for deadline in expired.drain(..) {
            match deadline {
                Deadline::ConnIdle { slot, gen } => {
                    if let Some(conn) = conn_mut(&mut conns, slot, gen) {
                        if conn.kind == ConnKind::Subscriber {
                            continue; // long-lived by design
                        }
                        let idle = now.saturating_duration_since(conn.last_activity);
                        if idle >= state.config.idle_timeout {
                            conn.dead = true;
                            activity = true;
                        } else {
                            wheel.insert(
                                now,
                                state.config.idle_timeout - idle,
                                Deadline::ConnIdle { slot, gen },
                            );
                        }
                    }
                }
                Deadline::Request { slot, gen, corr } => {
                    if req_deadlines.remove(&(slot, gen, corr)).is_some() {
                        m.server_deadline_drops.inc();
                        if let Some(conn) = conn_mut(&mut conns, slot, gen) {
                            conn.enqueue(
                                corr,
                                &Message::Error {
                                    detail: format!(
                                        "request deadline ({:?}) exceeded",
                                        state.config.request_timeout
                                    ),
                                },
                            );
                            activity = true;
                        }
                    }
                }
            }
        }

        // Flush write buffers; reap finished and dead connections.
        for (slot, entry) in conns.iter_mut().enumerate() {
            let Some(conn) = entry.as_mut() else {
                continue;
            };
            if !conn.dead && conn.wstart < conn.wbuf.len() {
                loop {
                    match conn.stream.write(&conn.wbuf[conn.wstart..]) {
                        Ok(0) => {
                            conn.dead = true;
                            break;
                        }
                        Ok(n) => {
                            conn.wstart += n;
                            activity = true;
                            if conn.wstart == conn.wbuf.len() {
                                conn.wbuf.clear();
                                conn.wstart = 0;
                                break;
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                        Err(_) => {
                            conn.dead = true;
                            break;
                        }
                    }
                }
                if conn.wbuf.len() - conn.wstart > MAX_WRITE_BUFFER {
                    conn.dead = true; // slow consumer
                }
            }
            if conn.closing && conn.wstart >= conn.wbuf.len() {
                conn.dead = true;
            }
            if conn.dead {
                if conn.kind == ConnKind::Subscriber {
                    state.subscribers.fetch_sub(1, Ordering::SeqCst);
                    m.server_subscribers.add(-1.0);
                }
                let _ = conn.stream.shutdown(Shutdown::Both);
                m.server_active_connections.add(-1.0);
                *entry = None;
                free_slots.push(slot);
                activity = true;
            }
        }

        if activity {
            idle_sleep = IDLE_SLEEP_MIN;
        } else {
            state.wake.wait(idle_sleep);
            idle_sleep = (idle_sleep * 2).min(IDLE_SLEEP_MAX);
        }
    }

    // Shutdown: refuse new connections, close every live one, then
    // drain the worker pool.
    drop(listener);
    for conn in conns.iter_mut().flatten() {
        if conn.kind == ConnKind::Subscriber {
            state.subscribers.fetch_sub(1, Ordering::SeqCst);
            metrics().server_subscribers.add(-1.0);
        }
        let _ = conn.stream.shutdown(Shutdown::Both);
        metrics().server_active_connections.add(-1.0);
    }
    drop(job_tx);
    for t in worker_threads {
        let _ = t.join();
    }
}

/// Routes one parsed frame: handshake transitions, inline pongs, or a
/// job for the worker pool (with its deadline armed).
#[allow(clippy::too_many_arguments)]
fn handle_frame(
    state: &Shared,
    conn: &mut EventConn,
    slot: usize,
    frame: crate::frame::Frame,
    job_tx: &mpsc::Sender<Job>,
    wheel: &mut TimerWheel<Deadline>,
    req_deadlines: &mut HashMap<(usize, u64, u64), crate::timer::TimerKey>,
    now: Instant,
) {
    let m = metrics();
    match conn.kind {
        ConnKind::Handshake => {
            match Message::decode(frame.kind, &frame.payload) {
                Ok(Message::Hello { subscribe }) => {
                    if subscribe {
                        conn.kind = ConnKind::Subscriber;
                        // Count first, ack second: a client holding its
                        // ack is guaranteed to be in the next
                        // replace_engine's subscriber count.
                        state.subscribers.fetch_add(1, Ordering::SeqCst);
                        m.server_subscribers.add(1.0);
                    } else {
                        conn.kind = ConnKind::Request;
                    }
                    // Echoing the correlation id doubles as capability
                    // negotiation: a nonzero echo tells the client this
                    // server multiplexes.
                    conn.enqueue(
                        frame.corr,
                        &Message::HelloAck {
                            name: state.name.clone(),
                        },
                    );
                }
                Ok(_) => {
                    conn.enqueue(
                        frame.corr,
                        &Message::Error {
                            detail: format!("expected Hello, got message kind {}", frame.kind),
                        },
                    );
                    conn.closing = true;
                }
                Err(e) => {
                    conn.enqueue(
                        frame.corr,
                        &Message::Error {
                            detail: format!("undecodable request: {e}"),
                        },
                    );
                    conn.closing = true;
                }
            }
        }
        ConnKind::Request => {
            m.server_requests.inc();
            match Message::decode(frame.kind, &frame.payload) {
                Ok(Message::Ping) => conn.enqueue(frame.corr, &Message::Pong),
                Ok(request) => {
                    let key = wheel.insert(
                        now,
                        state.config.request_timeout,
                        Deadline::Request {
                            slot,
                            gen: conn.gen,
                            corr: frame.corr,
                        },
                    );
                    req_deadlines.insert((slot, conn.gen, frame.corr), key);
                    let _ = job_tx.send(Job {
                        slot,
                        gen: conn.gen,
                        corr: frame.corr,
                        kind: frame.kind,
                        request,
                    });
                }
                Err(e) => {
                    conn.enqueue(
                        frame.corr,
                        &Message::Error {
                            detail: format!("undecodable request: {e}"),
                        },
                    );
                    conn.closing = true;
                }
            }
        }
        // Subscribers carry no requests; stray frames are ignored.
        ConnKind::Subscriber => {}
    }
}

fn worker_loop(
    job_rx: Arc<std::sync::Mutex<mpsc::Receiver<Job>>>,
    completions: Arc<std::sync::Mutex<Vec<Done>>>,
    state: Arc<Shared>,
) {
    loop {
        // Holding the lock across recv serializes the *wait*, not the
        // work: the holder releases as soon as a job arrives.
        let job = {
            let rx = job_rx.lock().unwrap_or_else(|e| e.into_inner());
            rx.recv()
        };
        let Ok(job) = job else { return };
        let (reply, close) = match (state.answer)(job.request) {
            Some(reply) => (reply, false),
            None => (
                Message::Error {
                    detail: format!("{} does not serve message kind {}", state.name, job.kind),
                },
                true,
            ),
        };
        completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Done {
                slot: job.slot,
                gen: job.gen,
                corr: job.corr,
                reply,
                close,
            });
        state.wake.notify();
    }
}

/// The engine's answer function: search, true usefulness (single or
/// batched), and snapshot fetch against the currently served engine.
fn answer(name: &str, engine: &SearchEngine, request: Message) -> Option<Message> {
    let hits_of = |query: &str, threshold: f64| -> Vec<RemoteHit> {
        let c = engine.collection();
        let q = c.query_from_text(query);
        engine
            .search_threshold(&q, threshold)
            .into_iter()
            .map(|h| RemoteHit {
                doc: c.doc(h.doc).name.clone(),
                sim: h.sim,
            })
            .collect()
    };
    Some(match request {
        Message::SearchDocs { query, threshold } => Message::SearchResults {
            hits: hits_of(&query, threshold),
        },
        Message::TracedSearchDocs {
            query,
            threshold,
            trace_id,
            parent_span,
            sampled,
        } => {
            metrics().server_traced_searches.inc();
            let started = std::time::Instant::now();
            let start_unix_ns = seu_obs::unix_now_ns();
            let hits = hits_of(&query, threshold);
            // Author the server-side span by hand: there is no tracer on
            // this side, just an id minted into the caller's trace. The
            // caller grafts it under its dispatch span via the parent
            // link carried in the request.
            let spans = if sampled {
                vec![seu_obs::SpanRecord {
                    id: seu_obs::new_span_id(),
                    parent: seu_obs::SpanId(parent_span),
                    name: "remote_search".to_string(),
                    start_unix_ns,
                    duration_ns: started.elapsed().as_nanos() as u64,
                    attrs: vec![
                        ("engine".to_string(), name.to_string()),
                        ("hits".to_string(), hits.len().to_string()),
                        ("trace_id".to_string(), seu_obs::TraceId(trace_id).to_hex()),
                    ],
                }]
            } else {
                Vec::new()
            };
            Message::TracedSearchResults { hits, spans }
        }
        Message::Estimate { query, threshold } => {
            let q = engine.collection().query_from_text(&query);
            let u = engine.true_usefulness(&q, threshold);
            Message::Usefulness {
                no_doc: u.no_doc,
                avg_sim: u.avg_sim,
                max_sim: u.max_sim,
            }
        }
        Message::EstimateBatch { queries, threshold } => {
            metrics().server_batch_requests.inc();
            let c = engine.collection();
            let results = queries
                .iter()
                .map(|query| {
                    let q = c.query_from_text(query);
                    engine.true_usefulness(&q, threshold)
                })
                .collect();
            Message::UsefulnessBatch { results }
        }
        Message::GetRepresentative => Message::Representative {
            snapshot: EngineSnapshot::of_engine(name, engine),
        },
        _ => return None,
    })
}
