//! The client side of the wire: [`RemoteEngine`], a TCP client
//! implementing [`RemoteTransport`] so a broker can register an engine
//! living in another process with `Broker::register_remote`, and the
//! connection pool under it, which
//! [`RemoteReplica`](crate::RemoteReplica) shares.
//!
//! The client keeps a small **connection pool** shared by every clone
//! of the same `RemoteEngine`. Each pooled connection is multiplexed:
//! requests are stamped with a fresh correlation id, a dedicated reader
//! thread routes reply frames back to their callers by id, and many
//! calls are in flight on one socket at once (up to a pipeline depth
//! per connection; more connections are dialed on demand up to the pool
//! cap). Per-request deadlines are enforced by the waiting caller — a
//! wait on its own reply channel bounded by
//! [`RemoteEngineConfig::call_timeout`] — not
//! by socket-level read timeouts, so one slow request never delays the
//! replies interleaved behind it.
//!
//! Peers that do not echo correlation ids (handshake ack comes back
//! with `corr = 0`) are served **sequentially**: one exchange at a time
//! per connection, replies matched positionally. That keeps old-style
//! single-frame servers and test fakes working unchanged.
//!
//! Dialing resolves every address the name maps to and tries each in
//! order (IPv4/IPv6 dual-stack hosts fall through to the next address
//! on connect failure). Retries are bounded and **transient-only**:
//! refused connections and connections lost mid-exchange are retried
//! with exponential backoff capped at [`RemoteEngine::max_backoff`];
//! deadline misses, protocol violations, and remote-reported errors are
//! not (a timeout retried is a deadline doubled, and a protocol error
//! will not get better by asking again). A call that fails with a lost
//! connection on a *reused* pooled connection is transparently retried
//! once on a freshly dialed one — a stale pooled socket is a fact of
//! pooling, not a remote failure — before the retry policy is charged.

use crate::frame::{io_error, read_frame, write_frame_corr};
use crate::metrics::metrics;
use crate::wire::Message;
use seu_engine::{Fingerprint, TrueUsefulness};
use seu_metasearch::{
    EngineSnapshot, RemoteHit, RemoteTransport, TransportError, TransportErrorKind,
};
use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// In-flight requests one multiplexed connection carries before the
/// pool prefers dialing another.
const PIPELINE_DEPTH: usize = 32;

/// Default pool size per remote engine.
const DEFAULT_MAX_CONNS: usize = 8;

/// Default ceiling on the exponential retry backoff.
const DEFAULT_MAX_BACKOFF: Duration = Duration::from_secs(2);

/// Timeouts and retry policy for a [`RemoteEngine`].
#[derive(Debug, Clone, Copy)]
pub struct RemoteEngineConfig {
    /// Deadline for establishing a connection.
    pub connect_timeout: Duration,
    /// Per-call deadline from sending the request to seeing its reply.
    pub call_timeout: Duration,
    /// Additional attempts after a transient failure (refused or
    /// connection lost — never timeouts or protocol errors).
    pub retries: u32,
    /// Backoff before the first retry; doubles per subsequent retry,
    /// capped at [`RemoteEngine::max_backoff`].
    pub backoff: Duration,
}

impl Default for RemoteEngineConfig {
    fn default() -> Self {
        RemoteEngineConfig {
            connect_timeout: Duration::from_secs(1),
            call_timeout: Duration::from_secs(5),
            retries: 2,
            backoff: Duration::from_millis(25),
        }
    }
}

/// The growth `backoff * 2^attempt`, saturating, clamped to `cap`.
fn backoff_delay(base: Duration, attempt: u32, cap: Duration) -> Duration {
    base.saturating_mul(2u32.saturating_pow(attempt)).min(cap)
}

/// Where the reader thread (or a connection-death sweep) delivers one
/// waiting caller's reply. One channel per request wakes exactly that
/// caller, not every caller pipelined on the connection.
type ReplySlot = mpsc::SyncSender<Result<Message, TransportError>>;

/// One pooled connection: a locked writer half, a reader thread routing
/// replies to `pending` callers by correlation id, and bookkeeping for
/// the pool's load balancing.
struct Conn {
    writer: Mutex<TcpStream>,
    pending: Mutex<HashMap<u64, ReplySlot>>,
    /// Whether the peer echoes correlation ids (negotiated at
    /// handshake: we send a nonzero id on Hello; a multiplex-capable
    /// server echoes it on the ack, anything else comes back 0).
    mux: bool,
    /// Serializes exchanges on non-mux connections (one in flight).
    serial: Mutex<()>,
    alive: AtomicBool,
    in_flight: AtomicUsize,
}

impl Conn {
    fn kill(&self) {
        self.alive.store(false, Ordering::Release);
        if let Ok(w) = self.writer.lock() {
            let _ = w.shutdown(Shutdown::Both);
        }
    }
}

fn lock_unpoisoned<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The connection pool and call path shared by every clone of one
/// [`RemoteEngine`] or [`RemoteReplica`](crate::RemoteReplica).
pub(crate) struct Pool {
    addrs: Vec<SocketAddr>,
    config: RemoteEngineConfig,
    max_backoff: Duration,
    max_conns: usize,
    next_corr: AtomicU64,
    conns: Mutex<Vec<Arc<Conn>>>,
}

impl Pool {
    /// Resolves `addr` to every address it maps to; no connection is
    /// made until the first call.
    pub(crate) fn resolve(
        addr: impl ToSocketAddrs,
        config: RemoteEngineConfig,
    ) -> Result<Pool, TransportError> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| io_error(&e, "resolving address"))?
            .collect();
        if addrs.is_empty() {
            return Err(TransportError::new(
                TransportErrorKind::Refused,
                "address resolved to nothing",
            ));
        }
        Ok(Pool::new(addrs, config))
    }

    fn new(addrs: Vec<SocketAddr>, config: RemoteEngineConfig) -> Pool {
        Pool {
            addrs,
            config,
            max_backoff: DEFAULT_MAX_BACKOFF,
            max_conns: DEFAULT_MAX_CONNS,
            next_corr: AtomicU64::new(1),
            conns: Mutex::new(Vec::new()),
        }
    }

    /// Connects to the first address that answers, falling through the
    /// rest of the resolved set on failure.
    fn connect_any(&self) -> Result<TcpStream, TransportError> {
        let mut last: Option<TransportError> = None;
        for addr in &self.addrs {
            match TcpStream::connect_timeout(addr, self.config.connect_timeout) {
                Ok(stream) => return Ok(stream),
                Err(e) => last = Some(io_error(&e, &format!("connecting to {addr}"))),
            }
        }
        Err(last.unwrap_or_else(|| {
            TransportError::new(TransportErrorKind::Refused, "address resolved to nothing")
        }))
    }

    /// Opens a connection and completes the Hello handshake, returning
    /// the stream, whether the peer multiplexes (we send a nonzero
    /// correlation id on Hello; a multiplex-capable server echoes it on
    /// the ack, anything else comes back 0), and the advertised name.
    fn handshake(&self, subscribe: bool) -> Result<(TcpStream, bool, String), TransportError> {
        let mut stream = self.connect_any()?;
        stream
            .set_read_timeout(Some(self.config.call_timeout))
            .and_then(|()| stream.set_write_timeout(Some(self.config.call_timeout)))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|e| io_error(&e, "configuring socket"))?;
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let (kind, payload) = Message::Hello { subscribe }.encode();
        write_frame_corr(&mut stream, corr, kind, &payload)?;
        let ack = read_frame(&mut stream)?;
        match Message::decode(ack.kind, &ack.payload)? {
            Message::HelloAck { name } => Ok((stream, ack.corr == corr, name)),
            other => Err(unexpected("HelloAck", &other)),
        }
    }

    /// Dials, handshakes, and spawns the reader thread for a new pooled
    /// connection.
    fn dial(&self) -> Result<Arc<Conn>, TransportError> {
        let (stream, mux, _) = self.handshake(false)?;
        // The reader thread blocks until a frame arrives; deadlines are
        // enforced by the waiting callers instead.
        stream
            .set_read_timeout(None)
            .map_err(|e| io_error(&e, "configuring socket"))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| io_error(&e, "cloning pooled stream"))?;
        let conn = Arc::new(Conn {
            writer: Mutex::new(stream),
            pending: Mutex::new(HashMap::new()),
            mux,
            serial: Mutex::new(()),
            alive: AtomicBool::new(true),
            in_flight: AtomicUsize::new(0),
        });
        let for_reader = Arc::clone(&conn);
        std::thread::Builder::new()
            .name("seu-net-reader".to_string())
            .spawn(move || reader_loop(for_reader, read_half))
            .map_err(|e| io_error(&e, "spawning reader thread"))?;
        metrics().client_connects.inc();
        Ok(conn)
    }

    /// Picks a connection for one call: a multiplexed connection with
    /// spare pipeline depth, an idle sequential one, a freshly dialed
    /// one while under the cap, or (saturated) the least loaded. The
    /// returned flag says whether the connection was dialed for this
    /// call — reused connections get one transparent redial on a lost
    /// connection, fresh ones do not.
    fn acquire(&self) -> Result<(Arc<Conn>, bool), TransportError> {
        let mut conns = lock_unpoisoned(&self.conns);
        conns.retain(|c| c.alive.load(Ordering::Acquire));
        let mut best: Option<&Arc<Conn>> = None;
        for c in conns.iter().filter(|c| c.mux) {
            let load = c.in_flight.load(Ordering::Relaxed);
            if load < PIPELINE_DEPTH
                && best.is_none_or(|b| load < b.in_flight.load(Ordering::Relaxed))
            {
                best = Some(c);
            }
        }
        if let Some(c) = best {
            return Ok((Arc::clone(c), false));
        }
        if let Some(c) = conns
            .iter()
            .find(|c| !c.mux && c.in_flight.load(Ordering::Relaxed) == 0)
        {
            return Ok((Arc::clone(c), false));
        }
        if conns.len() < self.max_conns {
            let conn = self.dial()?;
            conns.push(Arc::clone(&conn));
            return Ok((conn, true));
        }
        let c = conns
            .iter()
            .min_by_key(|c| c.in_flight.load(Ordering::Relaxed))
            .expect("pool cap is at least one");
        Ok((Arc::clone(c), false))
    }

    /// Dials a replacement connection and registers it with the pool
    /// (the stale-connection retry path).
    fn redial(&self) -> Result<Arc<Conn>, TransportError> {
        let conn = self.dial()?;
        lock_unpoisoned(&self.conns).push(Arc::clone(&conn));
        Ok(conn)
    }

    /// Sends `request` on `conn` and waits for its reply, bounded by
    /// the call timeout.
    fn exchange(&self, conn: &Conn, request: &Message) -> Result<Message, TransportError> {
        // Non-mux peers match replies positionally: hold the exchange
        // serial for the whole send-and-wait.
        let _serial = if conn.mux {
            None
        } else {
            Some(lock_unpoisoned(&conn.serial))
        };
        let corr = self.next_corr.fetch_add(1, Ordering::Relaxed);
        let (slot, reply) = mpsc::sync_channel(1);
        lock_unpoisoned(&conn.pending).insert(corr, slot);
        let (kind, payload) = request.encode();
        let sent = {
            let mut writer = lock_unpoisoned(&conn.writer);
            write_frame_corr(&mut *writer, corr, kind, &payload)
        };
        if let Err(e) = sent {
            lock_unpoisoned(&conn.pending).remove(&corr);
            // A partial frame may be on the wire; nothing after it can
            // be trusted.
            conn.kill();
            return Err(e);
        }
        if !conn.alive.load(Ordering::Acquire) {
            // The reader may have swept `pending` before our slot
            // existed; do not wait a full timeout to learn that.
            lock_unpoisoned(&conn.pending).remove(&corr);
            return Err(TransportError::new(
                TransportErrorKind::ConnectionLost,
                "connection died before the request was sent",
            ));
        }
        match reply.recv_timeout(self.config.call_timeout) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                lock_unpoisoned(&conn.pending).remove(&corr);
                if !conn.mux {
                    // A sequential peer still owes a reply; the stream
                    // is desynchronized for any future exchange.
                    conn.kill();
                }
                Err(TransportError::new(
                    TransportErrorKind::Timeout,
                    format!(
                        "no reply within {:?} (corr {corr})",
                        self.config.call_timeout
                    ),
                ))
            }
            // Every sender is gone without a reply: the connection was
            // torn down under us.
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(TransportError::new(
                TransportErrorKind::ConnectionLost,
                "connection closed before the reply arrived",
            )),
        }
    }

    /// One attempt: acquire a pooled connection and exchange on it. A
    /// lost connection on a *reused* pooled socket is retried once on a
    /// fresh dial before surfacing.
    fn call_once(&self, request: &Message) -> Result<Message, TransportError> {
        let (conn, fresh) = self.acquire()?;
        conn.in_flight.fetch_add(1, Ordering::Relaxed);
        let first = self.exchange(&conn, request);
        conn.in_flight.fetch_sub(1, Ordering::Relaxed);
        let reply = match first {
            Err(e) if !fresh && e.kind == TransportErrorKind::ConnectionLost => {
                let conn = self.redial()?;
                conn.in_flight.fetch_add(1, Ordering::Relaxed);
                let second = self.exchange(&conn, request);
                conn.in_flight.fetch_sub(1, Ordering::Relaxed);
                second?
            }
            other => other?,
        };
        match reply {
            Message::Error { detail } => {
                Err(TransportError::new(TransportErrorKind::Remote, detail))
            }
            other => Ok(other),
        }
    }

    /// Sends `request` with the configured retry policy, recording
    /// latency and failure metrics. The latency histogram times each
    /// attempt individually — backoff sleeps are not wire time.
    pub(crate) fn call(&self, request: &Message) -> Result<Message, TransportError> {
        let m = metrics();
        let mut attempt = 0;
        let result = loop {
            let timer = m.rpc_latency.start_timer();
            let outcome = self.call_once(request);
            timer.stop();
            match outcome {
                Ok(reply) => break Ok(reply),
                Err(e) => {
                    let transient = matches!(
                        e.kind,
                        TransportErrorKind::Refused | TransportErrorKind::ConnectionLost
                    );
                    if !transient || attempt >= self.config.retries {
                        break Err(e);
                    }
                    m.client_retries.inc();
                    std::thread::sleep(backoff_delay(
                        self.config.backoff,
                        attempt,
                        self.max_backoff,
                    ));
                    attempt += 1;
                }
            }
        };
        if let Err(e) = &result {
            if e.kind == TransportErrorKind::Timeout {
                m.client_timeouts.inc();
            } else {
                m.client_failures.inc();
            }
        }
        result
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Shut the sockets down so the detached reader threads see EOF
        // and exit rather than blocking forever on their cloned halves.
        for conn in lock_unpoisoned(&self.conns).iter() {
            conn.kill();
        }
    }
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("addrs", &self.addrs)
            .field("max_conns", &self.max_conns)
            .finish()
    }
}

/// Routes reply frames to their waiting callers until the connection
/// dies, then fails every still-pending request with the death reason.
fn reader_loop(conn: Arc<Conn>, mut stream: TcpStream) {
    loop {
        match read_frame(&mut stream) {
            Ok(frame) => {
                let result = Message::decode(frame.kind, &frame.payload);
                let fatal_decode = result.is_err();
                {
                    let mut pending = lock_unpoisoned(&conn.pending);
                    let target = if pending.contains_key(&frame.corr) {
                        Some(frame.corr)
                    } else if !conn.mux && pending.len() == 1 {
                        // Sequential peers do not echo ids: the single
                        // outstanding request owns every reply.
                        pending.keys().next().copied()
                    } else {
                        None
                    };
                    match target.and_then(|corr| pending.remove(&corr)) {
                        // The channel holds one reply, so this never
                        // blocks; a caller that timed out is gone.
                        Some(slot) => {
                            let _ = slot.send(result);
                        }
                        None => metrics().client_late_replies.inc(),
                    }
                }
                if fatal_decode {
                    // Framing survived but the payload is garbage; the
                    // stream can no longer be trusted.
                    conn.kill();
                    return;
                }
            }
            Err(e) => {
                conn.alive.store(false, Ordering::Release);
                for (_, slot) in lock_unpoisoned(&conn.pending).drain() {
                    let _ = slot.send(Err(e.clone()));
                }
                return;
            }
        }
    }
}

/// A TCP client for one [`EngineServer`](crate::EngineServer), usable as
/// the transport behind a broker's remote engine registration. Clones
/// share one connection pool.
#[derive(Debug, Clone)]
pub struct RemoteEngine {
    pool: Arc<Pool>,
    /// Set once a peer rejects the traced search kind; shared across
    /// clones so the whole broker stops re-probing a legacy engine.
    peer_lacks_tracing: Arc<AtomicBool>,
    /// Ditto for the batched estimate kind.
    peer_lacks_batch: Arc<AtomicBool>,
}

impl RemoteEngine {
    /// Creates a client for the engine at `addr` with default timeouts.
    /// Resolution happens here; no connection is made until the first
    /// call.
    pub fn new(addr: impl ToSocketAddrs) -> Result<RemoteEngine, TransportError> {
        RemoteEngine::with_config(addr, RemoteEngineConfig::default())
    }

    /// Creates a client with explicit timeouts and retry policy. Every
    /// address `addr` resolves to is kept; connects fall through the
    /// list in order.
    pub fn with_config(
        addr: impl ToSocketAddrs,
        config: RemoteEngineConfig,
    ) -> Result<RemoteEngine, TransportError> {
        Ok(RemoteEngine {
            pool: Arc::new(Pool::resolve(addr, config)?),
            peer_lacks_tracing: Arc::new(AtomicBool::new(false)),
            peer_lacks_batch: Arc::new(AtomicBool::new(false)),
        })
    }

    fn tweak(self, f: impl FnOnce(&mut Pool)) -> RemoteEngine {
        let mut pool = Pool::new(self.pool.addrs.clone(), self.pool.config);
        pool.max_backoff = self.pool.max_backoff;
        pool.max_conns = self.pool.max_conns;
        f(&mut pool);
        RemoteEngine {
            pool: Arc::new(pool),
            peer_lacks_tracing: self.peer_lacks_tracing,
            peer_lacks_batch: self.peer_lacks_batch,
        }
    }

    /// Caps the exponential retry backoff (default 2 s): with `n`
    /// retries configured, the worst-case sleep is `min(backoff * 2^n,
    /// cap)` per retry rather than an unbounded doubling.
    pub fn max_backoff(self, cap: Duration) -> RemoteEngine {
        self.tweak(|p| p.max_backoff = cap)
    }

    /// Sets the connection-pool cap (default 8, minimum 1).
    pub fn pool_connections(self, n: usize) -> RemoteEngine {
        self.tweak(|p| p.max_conns = n.max(1))
    }

    /// Liveness probe: a full request/reply round trip on a pooled
    /// connection.
    pub fn ping(&self) -> Result<(), TransportError> {
        match self.pool.call(&Message::Ping)? {
            Message::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Opens a subscription connection: the engine server will push an
    /// invalidation notice over it whenever its collection changes, and
    /// `on_notice(name, fingerprint, epoch)` runs (on a dedicated reader
    /// thread) for each. The subscription lives until the returned
    /// handle is closed or dropped, or the server goes away.
    pub fn subscribe_with(
        &self,
        on_notice: impl Fn(&str, Fingerprint, u64) + Send + 'static,
    ) -> Result<Subscription, TransportError> {
        let (stream, _, name) = self.pool.handshake(true)?;
        // Notices arrive whenever the engine changes — block indefinitely.
        stream
            .set_read_timeout(None)
            .map_err(|e| io_error(&e, "configuring subscription socket"))?;
        let read_half = stream
            .try_clone()
            .map_err(|e| io_error(&e, "cloning subscription stream"))?;
        let thread = std::thread::Builder::new()
            .name(format!("seu-net-subscribe-{name}"))
            .spawn(move || subscription_loop(read_half, on_notice))
            .map_err(|e| io_error(&e, "spawning subscription reader"))?;
        Ok(Subscription {
            engine: name,
            stream,
            thread: Some(thread),
        })
    }
}

fn subscription_loop(mut stream: TcpStream, on_notice: impl Fn(&str, Fingerprint, u64)) {
    loop {
        let message =
            match read_frame(&mut stream).and_then(|f| Message::decode(f.kind, &f.payload)) {
                Ok(m) => m,
                Err(_) => return,
            };
        if let Message::InvalidateNotice {
            name,
            fingerprint,
            epoch,
        } = message
        {
            metrics().push_notices_received.inc();
            on_notice(&name, fingerprint, epoch);
        }
    }
}

/// A live push-invalidation subscription; dropping it disconnects.
pub struct Subscription {
    engine: String,
    stream: TcpStream,
    thread: Option<JoinHandle<()>>,
}

impl Subscription {
    /// The advertised name of the engine this subscription watches.
    pub fn engine(&self) -> &str {
        &self.engine
    }

    /// Disconnects and joins the reader thread.
    pub fn close(mut self) {
        self.disconnect();
    }

    fn disconnect(&mut self) {
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.disconnect();
    }
}

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("engine", &self.engine)
            .finish()
    }
}

/// A typed protocol error for a reply of the wrong kind (the kind byte,
/// not a debug print: replies can be snapshot-sized).
pub(crate) fn unexpected(wanted: &str, got: &Message) -> TransportError {
    TransportError::new(
        TransportErrorKind::Protocol,
        format!("expected {wanted}, got message kind {}", got.encode().0),
    )
}

impl RemoteTransport for RemoteEngine {
    fn endpoint(&self) -> String {
        self.pool.addrs[0].to_string()
    }

    fn search(
        &self,
        query_text: &str,
        threshold: f64,
        ctx: Option<&seu_obs::TraceContext>,
    ) -> Result<(Vec<RemoteHit>, Vec<seu_obs::SpanRecord>), TransportError> {
        // Untraced and unsampled requests go over the wire exactly as
        // before the traced kind existed: byte-identical frames, no span
        // shipping. Ditto once a peer has rejected the kind — remembered
        // across clones so a legacy engine is probed at most once.
        let ctx = match ctx {
            Some(ctx) if ctx.sampled && !self.peer_lacks_tracing.load(Ordering::Relaxed) => ctx,
            _ => {
                return match self.pool.call(&Message::SearchDocs {
                    query: query_text.to_string(),
                    threshold,
                })? {
                    Message::SearchResults { hits } => Ok((hits, Vec::new())),
                    other => Err(unexpected("SearchResults", &other)),
                };
            }
        };
        let request = Message::TracedSearchDocs {
            query: query_text.to_string(),
            threshold,
            trace_id: ctx.trace_id.0,
            parent_span: ctx.parent_span.0,
            sampled: ctx.sampled,
        };
        match self.pool.call(&request) {
            Ok(Message::TracedSearchResults { hits, spans }) => Ok((hits, spans)),
            Ok(other) => Err(unexpected("TracedSearchResults", &other)),
            Err(e) if e.kind == TransportErrorKind::Remote => {
                // An old server answers an unknown kind with Error.
                // Remember and fall back to the plain message.
                self.peer_lacks_tracing.store(true, Ordering::Relaxed);
                metrics().client_trace_fallbacks.inc();
                self.search(query_text, threshold, None)
            }
            Err(e) => Err(e),
        }
    }

    fn true_usefulness(
        &self,
        query_text: &str,
        threshold: f64,
    ) -> Result<TrueUsefulness, TransportError> {
        let reply = self.pool.call(&Message::Estimate {
            query: query_text.to_string(),
            threshold,
        })?;
        reply
            .as_usefulness()
            .ok_or_else(|| unexpected("Usefulness", &reply))
    }

    fn true_usefulness_batch(
        &self,
        queries: &[String],
        threshold: f64,
    ) -> Result<Vec<TrueUsefulness>, TransportError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let per_query = || -> Result<Vec<TrueUsefulness>, TransportError> {
            queries
                .iter()
                .map(|q| self.true_usefulness(q, threshold))
                .collect()
        };
        if self.peer_lacks_batch.load(Ordering::Relaxed) {
            return per_query();
        }
        match self.pool.call(&Message::EstimateBatch {
            queries: queries.to_vec(),
            threshold,
        }) {
            Ok(Message::UsefulnessBatch { results }) if results.len() == queries.len() => {
                Ok(results)
            }
            Ok(Message::UsefulnessBatch { results }) => Err(TransportError::new(
                TransportErrorKind::Protocol,
                format!(
                    "batch of {} queries answered with {} results",
                    queries.len(),
                    results.len()
                ),
            )),
            Ok(other) => Err(unexpected("UsefulnessBatch", &other)),
            Err(e) if e.kind == TransportErrorKind::Remote => {
                // An old server answers the batch kind with Error; fall
                // back to per-query estimates and remember.
                self.peer_lacks_batch.store(true, Ordering::Relaxed);
                metrics().client_batch_fallbacks.inc();
                per_query()
            }
            Err(e) => Err(e),
        }
    }

    fn fetch_snapshot(&self) -> Result<EngineSnapshot, TransportError> {
        match self.pool.call(&Message::GetRepresentative)? {
            Message::Representative { snapshot } => Ok(snapshot),
            other => Err(unexpected("Representative", &other)),
        }
    }
}
