//! The broker service: a JSONL socket server in front of a shared
//! [`Broker`].
//!
//! One reader thread per connection parses request lines, posts them
//! on its shard's queue and then serves that shard itself: the thread
//! holding the shard's serve token takes the queue in ticks, opens a
//! fresh contention epoch per tick, and serves every request in
//! arrival order, writing each response line back with a single
//! write. A reader that finds the token taken goes back to reading;
//! the holder serves its frame, and re-checks the queue after dropping
//! the token, so no frame is stranded. Once the holder's own frames
//! are answered it hands the token to the next reader that posts, so
//! its own connection is read again within a tick or two however busy
//! the shard stays. Ticks keep the epoch semantics of the
//! [`crate::TrafficBoard`] meaningful — requests landing in the same
//! tick contend with each other — and give natural backpressure: a
//! slow broker grows the tick instead of the thread count. At any
//! shard count the server runs one accept thread and one reader per
//! connection, and no other.
//!
//! This module holds the threads, the sockets and the serve tokens;
//! every decision — what a tick takes, which frames merge, when the
//! token changes hands — is a call into [`crate::shard`].
//!
//! Robustness rules (specified in `docs/PROTOCOL.md`, operational
//! guidance in `docs/OPERATIONS.md`):
//!
//! * Frames are capped at [`MAX_FRAME`] bytes. An oversized frame gets
//!   a typed `wire` error and the rest of the line is discarded; the
//!   connection stays usable.
//! * A connection that drops — cleanly or mid-frame — has every lease
//!   it acquired revoked and reclaimed on its shard's next tick.
//! * A reply write that blocks longer than [`WRITE_TIMEOUT`] cuts its
//!   peer off the same way, so a client that stops reading holds its
//!   shard for at most that long.
//! * Telemetry is wait-free at emission: broker events land in
//!   per-thread rings; the serve binary's background collector drains
//!   them to the trace file,
//!   so the buffered tail of a `--trace` file survives even a panic
//!   unwinding a serving thread.
//! * [`Client`] offers capped exponential backoff retries
//!   ([`RetryPolicy`]) for transient errors and per-request deadlines
//!   ([`Client::set_deadline`]).
//!
//! Addresses: `unix:/path/to.sock`, `tcp:host:port`, or a bare
//! `host:port` (TCP). Tests bind `tcp:127.0.0.1:0` and read the
//! chosen port back from [`Server::local_addr`].

use crate::broker::{Broker, Lease};
use crate::shard::{self, Admission, Frame, Step, Turn};
use crate::wire::{Request, Response};
use crate::{LeaseId, ServiceError, TenantSpec};
use hetmem_alloc::{AllocRequest, Fallback};
use hetmem_core::AttrId;
use hetmem_telemetry::{Event, RetryExhausted, SpillForwarded, TelemetrySink};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, TryLockError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Hard cap on one request or response line, newline included. A peer
/// that sends a longer frame gets a typed `wire` error and the rest of
/// the oversized line is discarded.
pub const MAX_FRAME: usize = 64 * 1024;

/// A connected client stream (either family).
#[derive(Debug)]
enum Conn {
    Tcp(TcpStream),
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    fn shutdown(&self) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            Conn::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    fn set_read_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(dur),
            Conn::Unix(s) => s.set_read_timeout(dur),
        }
    }

    fn set_write_timeout(&self, dur: Option<Duration>) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_write_timeout(dur),
            Conn::Unix(s) => s.set_write_timeout(dur),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}

enum Bound {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

/// One connection as its work items see it. Every frame it sends, and
/// its hang-up, carry an `Arc` of this, so whichever thread serves them
/// can answer and track the leases the connection holds.
struct Peer {
    /// Connection id; the connection's frames go to shard `id mod S`.
    id: u64,
    /// The write half, locked for one whole reply line at a time;
    /// `None` once a reply could not be written.
    writer: Mutex<Option<Conn>>,
    /// One lock for the hang-up mark and the held leases, so a grant
    /// racing the hang-up is revoked exactly once.
    state: Mutex<PeerState>,
}

#[derive(Default)]
struct PeerState {
    /// The connection hung up; a later grant is revoked on the spot.
    dead: bool,
    /// Leases granted to this connection and not yet freed.
    leases: Vec<LeaseId>,
}

impl Peer {
    /// Writes one response frame with a single write. A peer whose
    /// write fails or outlasts [`WRITE_TIMEOUT`] is cut off: its socket
    /// is shut down, its leases are revoked, and later replies to it
    /// are dropped.
    fn send(&self, broker: &Broker, response: &Response) {
        let mut line = response.to_json();
        line.push('\n');
        let mut writer = self.writer.lock().expect("conn poisoned");
        let Some(conn) = writer.as_mut() else {
            return;
        };
        if conn.write_all(line.as_bytes()).is_err() {
            conn.shutdown();
            *writer = None;
            drop(writer);
            self.hang_up(broker);
        }
    }

    /// Records a grant, or revokes it when the connection is already
    /// cut off: an earlier reply write to it failed, in this tick or a
    /// previous one.
    fn granted(&self, broker: &Broker, lease: LeaseId) {
        let dead = {
            let mut state = self.state.lock().expect("peer poisoned");
            if !state.dead {
                state.leases.push(lease);
            }
            state.dead
        };
        if dead {
            let _ = broker.revoke(lease, "disconnect");
        }
    }

    fn freed(&self, lease: LeaseId) {
        self.state.lock().expect("peer poisoned").leases.retain(|l| *l != lease);
    }

    /// Marks the connection dead and revokes every lease it still holds.
    fn hang_up(&self, broker: &Broker) {
        let held = {
            let mut state = self.state.lock().expect("peer poisoned");
            state.dead = true;
            std::mem::take(&mut state.leases)
        };
        for lease in held {
            // Already expired ids come back UnknownLease; that's fine.
            let _ = broker.revoke(lease, "disconnect");
        }
    }
}

/// One unit of serve work.
enum Work {
    /// A (possibly malformed) request frame from `peer`.
    Request { peer: Arc<Peer>, request: Result<Request, ServiceError> },
    /// `peer` hung up; its leases must be revoked.
    Disconnect { peer: Arc<Peer> },
}

impl Frame for Work {
    fn conn(&self) -> u64 {
        match self {
            Work::Request { peer, .. } | Work::Disconnect { peer } => peer.id,
        }
    }

    fn admission(&self, broker: &Broker) -> Option<Admission> {
        let Work::Request {
            request: Ok(Request::Alloc { tenant, size, criterion, fallback, label, ttl }),
            ..
        } = self
        else {
            return None;
        };
        Some(Admission {
            tenant: broker
                .tenant_id(tenant)
                .ok_or_else(|| ServiceError::UnknownTenant(tenant.clone())),
            req: alloc_request(*size, *criterion, *fallback, label.clone()),
            ttl: *ttl,
        })
    }
}

/// Reads and discards bytes until a newline. Returns `false` when the
/// stream ends first (the peer is gone).
fn discard_to_newline<R: BufRead>(reader: &mut R) -> bool {
    let mut chunk = Vec::new();
    loop {
        chunk.clear();
        match reader.by_ref().take(MAX_FRAME as u64).read_until(b'\n', &mut chunk) {
            Ok(0) | Err(_) => return false,
            Ok(_) if chunk.last() == Some(&b'\n') => return true,
            Ok(_) => continue,
        }
    }
}

/// How long one reply write may block. A peer that stops reading holds
/// its shard's serve token for at most this long, then is cut off.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// The running service.
pub struct Server {
    plane: Arc<Plane>,
    /// A handle on every open connection, keyed by connection id, so
    /// shutdown can unblock its reader. The reader removes its entry
    /// when it exits, closing the handle with the connection.
    conns: Arc<Mutex<HashMap<u64, Conn>>>,
    accept_thread: Option<JoinHandle<()>>,
    local_addr: String,
    sock_path: Option<PathBuf>,
}

/// A serve-side observer of accepted requests: called with the
/// current service epoch and each well-formed request, in exactly the
/// order they are served. `hetmem-serve --record` wires this to a
/// wire-log writer so the run can be replayed later.
pub type RequestRecorder = Box<dyn FnMut(u64, &Request) + Send>;

/// What every serving thread shares: the shard queues, one serve token
/// per shard, the recorder and the stop flag.
struct Plane {
    queues: shard::Plane<Work>,
    /// Held by the one thread serving a shard's ticks. They guard no
    /// data, so a panic while serving leaves nothing to repair.
    tokens: Vec<Mutex<()>>,
    recorder: Mutex<Option<RequestRecorder>>,
    stop: AtomicBool,
}

impl Server {
    /// Binds `addr` and starts accepting connections.
    pub fn bind(broker: Arc<Broker>, addr: &str) -> Result<Server, ServiceError> {
        Server::bind_with(broker, addr, None)
    }

    /// [`Server::bind`] with an optional [`RequestRecorder`] invoked
    /// by the serving thread for every accepted (parsed) request
    /// frame, stamped with the epoch it executes in. Malformed frames
    /// are answered but never recorded — they have no effect on broker
    /// state, so a replay that skips them converges to the same state.
    pub fn bind_with(
        broker: Arc<Broker>,
        addr: &str,
        recorder: Option<RequestRecorder>,
    ) -> Result<Server, ServiceError> {
        Server::bind_sharded(broker, addr, recorder, 1)
    }

    /// [`Server::bind_with`] over a serve plane of `shards` shards
    /// ([`crate::shard`]; `0` counts as `1`): one queue and one serve
    /// token per shard, connections routed to shard `conn_id mod S`,
    /// and consecutive mergeable same-tenant `alloc` frames in a tick
    /// batched through one [`Broker::acquire_batch`] planning walk
    /// (`batch_coalesced` telemetry).
    ///
    /// Recording composes only with the single-shard plane: a wire log
    /// replays serially, and neither a cross-shard thread interleaving
    /// nor a coalesced walk is reconstructible from it. Passing a
    /// recorder with `shards > 1` is refused with a `wire` error.
    pub fn bind_sharded(
        broker: Arc<Broker>,
        addr: &str,
        recorder: Option<RequestRecorder>,
        shards: u32,
    ) -> Result<Server, ServiceError> {
        let shards = shards.max(1);
        if recorder.is_some() && shards > 1 {
            return Err(ServiceError::Wire(
                "recording requires the single-shard plane (shards=1)".into(),
            ));
        }
        let io = |e: std::io::Error| ServiceError::Io(e.to_string());
        let bound = if let Some(path) = addr.strip_prefix("unix:") {
            let path = PathBuf::from(path);
            // A previous run's socket file would make bind fail.
            let _ = std::fs::remove_file(&path);
            Bound::Unix(UnixListener::bind(&path).map_err(io)?, path)
        } else {
            let hostport = addr.strip_prefix("tcp:").unwrap_or(addr);
            Bound::Tcp(TcpListener::bind(hostport).map_err(io)?)
        };
        let (local_addr, sock_path) = match &bound {
            Bound::Tcp(l) => (format!("tcp:{}", l.local_addr().map_err(io)?), None),
            Bound::Unix(_, path) => (format!("unix:{}", path.display()), Some(path.clone())),
        };

        // S shards tick the broker S times per service round; fold
        // those ticks into one epoch so contention windows and TTL
        // aging stay round-wide.
        broker.set_dispatch_planes(shards);
        let plane = Arc::new(Plane {
            queues: shard::Plane::new(broker, shards),
            tokens: (0..shards).map(|_| Mutex::new(())).collect(),
            recorder: Mutex::new(recorder),
            stop: AtomicBool::new(false),
        });
        let conns: Arc<Mutex<HashMap<u64, Conn>>> = Arc::new(Mutex::new(HashMap::new()));

        let accept_thread = {
            let plane = plane.clone();
            let conns = conns.clone();
            let next_conn_id = AtomicU64::new(0);
            std::thread::spawn(move || loop {
                let conn = match &bound {
                    Bound::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
                    Bound::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
                };
                if plane.stop.load(Ordering::SeqCst) {
                    return;
                }
                let Ok(conn) = conn else {
                    continue;
                };
                let Ok(write_half) = conn.try_clone() else {
                    continue;
                };
                let _ = conn.set_write_timeout(Some(WRITE_TIMEOUT));
                let id = next_conn_id.fetch_add(1, Ordering::Relaxed);
                if let Ok(handle) = conn.try_clone() {
                    conns.lock().expect("conns poisoned").insert(id, handle);
                }
                let peer = Arc::new(Peer {
                    id,
                    writer: Mutex::new(Some(write_half)),
                    state: Mutex::new(PeerState::default()),
                });
                let plane = plane.clone();
                let conns = conns.clone();
                std::thread::spawn(move || {
                    plane.read_frames(&peer, conn);
                    conns.lock().expect("conns poisoned").remove(&peer.id);
                });
            })
        };

        Ok(Server { plane, conns, accept_thread: Some(accept_thread), local_addr, sock_path })
    }

    /// The bound address in connectable form (`tcp:127.0.0.1:PORT` or
    /// `unix:/path`).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// The broker behind the socket.
    pub fn broker(&self) -> &Arc<Broker> {
        self.plane.queues.broker()
    }

    /// Stops accepting, serves nothing further, and waits out any tick
    /// in flight. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        if self.plane.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept thread with a throwaway connection.
        let _ = Client::connect(&self.local_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Unblock connection readers, and any reply write stuck on a
        // peer that stopped reading.
        for (_, conn) in self.conns.lock().expect("conns poisoned").drain() {
            conn.shutdown();
        }
        // Whoever takes a token after this sees `stop` and serves
        // nothing; a tick already running finishes first.
        for token in &self.plane.tokens {
            drop(token.lock().unwrap_or_else(PoisonError::into_inner));
        }
        if let Some(path) = self.sock_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Plane {
    fn broker(&self) -> &Broker {
        self.queues.broker()
    }

    /// A connection's reader: parses frames onto the connection's
    /// shard and serves that shard, until the peer hangs up or the
    /// server stops.
    fn read_frames(&self, peer: &Arc<Peer>, conn: Conn) {
        let s = self.queues.shard_of(peer.id);
        let post = |request| self.queues.post(Work::Request { peer: peer.clone(), request });
        let mut reader = BufReader::new(conn);
        while !self.stop.load(Ordering::SeqCst) {
            let mut buf = Vec::new();
            let n = reader
                .by_ref()
                .take(MAX_FRAME as u64 + 1)
                .read_until(b'\n', &mut buf)
                .unwrap_or_default();
            let complete = buf.last() == Some(&b'\n');
            let alive = if complete {
                match String::from_utf8(buf) {
                    Ok(line) if line.trim().is_empty() => {}
                    Ok(line) => post(Request::from_json(line.trim_end())),
                    Err(_) => post(Err(ServiceError::Wire("frame is not valid UTF-8".into()))),
                }
                true
            } else if n > MAX_FRAME {
                post(Err(ServiceError::Wire(format!("frame exceeds {MAX_FRAME} bytes"))));
                discard_to_newline(&mut reader)
            } else {
                // EOF, possibly mid-frame: the peer died. Nothing to
                // answer.
                false
            };
            if !alive {
                self.queues.post(Work::Disconnect { peer: peer.clone() });
                self.serve(s);
                return;
            }
            // Frames the peer pipelined are already buffered: post them
            // too, so they share this tick instead of opening one each.
            if !reader.buffer().contains(&b'\n') {
                self.serve(s);
            }
        }
    }

    /// Serves shard `s` tick by tick until its queue is empty,
    /// unless another thread holds the shard's serve token; that thread
    /// then serves whatever was posted. A holder re-checks the queue
    /// after dropping the token, so a frame posted while it was
    /// finishing is never stranded.
    ///
    /// A reader does not serve others indefinitely: once its own frames
    /// are answered it hands the token to a reader that stands by for it
    /// ([`shard::Plane::stand_by`]) and goes back to reading.
    fn serve(&self, s: usize) {
        loop {
            let mut standby = false;
            let token = match self.tokens[s].try_lock() {
                Ok(token) => token,
                Err(TryLockError::Poisoned(token)) => token.into_inner(),
                Err(TryLockError::WouldBlock) => {
                    if !self.queues.stand_by(s) {
                        return;
                    }
                    standby = true;
                    self.tokens[s].lock().unwrap_or_else(PoisonError::into_inner)
                }
            };
            let mut turn = Turn::reader(standby);
            let handed_over = loop {
                if self.stop.load(Ordering::SeqCst) {
                    break true;
                }
                match self.queues.next(s, &mut turn) {
                    Step::Tick(tick) => {
                        // One tick = one contention epoch (per shard).
                        self.broker().advance_epoch();
                        self.queues.serve_tick(s, tick, |work, outcome| self.answer(work, outcome));
                    }
                    Step::HandOver => break true,
                    Step::Release => break false,
                }
            };
            drop(token);
            if handed_over || !self.queues.has_work(s) {
                return;
            }
        }
    }

    /// Answers one served frame: an `alloc` with the outcome the plane
    /// admitted, anything else by serving it here.
    fn answer(&self, work: Work, outcome: Option<Result<Lease, ServiceError>>) {
        let broker = self.broker();
        let (peer, request) = match work {
            Work::Disconnect { peer } => return peer.hang_up(broker),
            Work::Request { peer, request } => (peer, request),
        };
        let response = match request {
            Ok(request) => {
                if let Some(rec) = self.recorder.lock().expect("recorder poisoned").as_mut() {
                    rec(broker.epoch(), &request);
                }
                let freeing = match &request {
                    Request::Free { lease, .. } => Some(LeaseId(*lease)),
                    _ => None,
                };
                let resp = match outcome {
                    Some(Ok(lease)) => granted(&lease),
                    Some(Err(e)) => Response::from_error(&e),
                    None => serve_with_shards(broker, request, self.tokens.len() as u32),
                };
                match (&resp, freeing) {
                    (Response::Granted { lease, .. }, _) => peer.granted(broker, LeaseId(*lease)),
                    (Response::Freed, Some(lease)) => peer.freed(lease),
                    _ => {}
                }
                resp
            }
            Err(e) => Response::from_error(&e),
        };
        peer.send(broker, &response);
    }
}

/// The allocation request a wire `alloc` or `forward` frame asks for.
fn alloc_request(
    size: u64,
    criterion: AttrId,
    fallback: Fallback,
    label: Option<String>,
) -> AllocRequest {
    let req = AllocRequest::new(size).criterion(criterion).fallback(fallback);
    match label {
        Some(label) => req.label(label),
        None => req,
    }
}

/// The `granted` reply for `lease`.
fn granted(lease: &Lease) -> Response {
    Response::Granted {
        lease: lease.id().0,
        size: lease.size(),
        placement: lease.placement().to_vec(),
        fast_bytes: lease.fast_bytes(),
    }
}

/// Serves one already-parsed request against the broker.
pub fn serve(broker: &Broker, request: Request) -> Response {
    serve_with_shards(broker, request, 1)
}

/// [`serve`] for a broker fronted by `shards` dispatch shards — the
/// count is reported in `stats` responses.
pub fn serve_with_shards(broker: &Broker, request: Request, shards: u32) -> Response {
    let outcome = (|| match request {
        Request::Register { tenant, priority, quota, reserve } => {
            let mut spec = TenantSpec::new(tenant).priority(priority);
            for (kind, bytes) in quota {
                spec = spec.quota(kind, bytes);
            }
            for (kind, bytes) in reserve {
                spec = spec.reserve(kind, bytes);
            }
            let id = broker.register(spec)?;
            Ok(Response::Registered { tenant_id: id.0 })
        }
        Request::Alloc { tenant, size, criterion, fallback, label, ttl } => {
            let id = broker
                .tenant_id(&tenant)
                .ok_or_else(|| ServiceError::UnknownTenant(tenant.clone()))?;
            // The broker keeps the lease record; the wire client holds
            // only the id and frees through it.
            let req = alloc_request(size, criterion, fallback, label);
            Ok(granted(&broker.acquire_with_ttl(id, &req, ttl)?))
        }
        Request::Renew { tenant, lease } => {
            let id = broker
                .tenant_id(&tenant)
                .ok_or_else(|| ServiceError::UnknownTenant(tenant.clone()))?;
            let expires_at = broker.renew(id, LeaseId(lease))?;
            Ok(Response::Renewed { lease, expires_at })
        }
        Request::Heartbeat { tenant } => {
            let id = broker
                .tenant_id(&tenant)
                .ok_or_else(|| ServiceError::UnknownTenant(tenant.clone()))?;
            let renewed = broker.heartbeat(id)?;
            Ok(Response::HeartbeatAck { renewed })
        }
        Request::Free { tenant, lease } => {
            let id = broker
                .tenant_id(&tenant)
                .ok_or_else(|| ServiceError::UnknownTenant(tenant.clone()))?;
            let holder =
                broker.lease_owner(LeaseId(lease)).ok_or(ServiceError::UnknownLease(lease))?;
            if holder != id {
                return Err(ServiceError::UnknownLease(lease));
            }
            broker.release_by_id(LeaseId(lease))?;
            Ok(Response::Freed)
        }
        Request::Stats => Ok(Response::Stats {
            tenants: broker.tenants(),
            nodes: broker.node_usage(),
            shards,
            guided: broker.guided_overhead(),
        }),
        Request::Forward { origin, tenant, size, criterion, fallback, label, ttl } => {
            let id = broker
                .tenant_id(&tenant)
                .ok_or_else(|| ServiceError::UnknownTenant(tenant.clone()))?;
            let req = alloc_request(size, criterion, fallback, label);
            let lease = match broker.acquire_with_ttl(id, &req, ttl) {
                Ok(lease) => lease,
                // The forwarder ranked this broker on a digest that
                // promised room; a shortfall here means that digest no
                // longer reflects reality.
                Err(ServiceError::Admission { .. }) => {
                    return Err(ServiceError::StaleDigest { peer: broker.id() });
                }
                Err(e) => return Err(e),
            };
            // Emitted here — not in the federation — so a per-broker
            // wire-log replay of the forward frame regenerates it and
            // the trailer summaries stay byte-identical.
            let sink = broker.sink_handle();
            if sink.enabled() {
                sink.emit(Event::SpillForwarded(SpillForwarded {
                    broker: broker.id(),
                    origin,
                    tenant,
                    size,
                    fast_bytes: lease.fast_bytes(),
                    cost_ns: spill_cost_ns(size),
                }));
            }
            Ok(granted(&lease))
        }
        Request::Digest => Ok(Response::Digest {
            broker: broker.id(),
            epoch: broker.epoch(),
            tiers: broker.capacity_digest(),
        }),
    })();
    outcome.unwrap_or_else(|e: ServiceError| Response::from_error(&e))
}

/// Deterministic cost model for one cross-broker spill forward: a
/// fixed interconnect round trip plus a bytes-proportional transfer
/// term (~12.5 GB/s). Purely synthetic — the simulator has no real
/// network — but stable across runs, so spill-latency benchmarks are
/// bit-identical.
pub fn spill_cost_ns(bytes: u64) -> f64 {
    const FORWARD_RTT_NS: f64 = 2_500.0;
    const NS_PER_BYTE: f64 = 0.08;
    FORWARD_RTT_NS + bytes as f64 * NS_PER_BYTE
}

/// Capped exponential backoff schedule for [`Client::call_with_retry`].
///
/// The schedule is a pure function of the attempt number, so tests can
/// assert on it without sleeping:
///
/// ```
/// use hetmem_service::server::RetryPolicy;
/// let p = RetryPolicy { max_attempts: 5, base_delay_ms: 10, max_delay_ms: 50 };
/// let delays: Vec<u64> = (1..5).map(|a| p.delay_ms(a)).collect();
/// assert_eq!(delays, vec![10, 20, 40, 50]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts including the first (so 1 = no retries).
    pub max_attempts: u32,
    /// Delay before the first retry, milliseconds.
    pub base_delay_ms: u64,
    /// Ceiling on any single delay, milliseconds.
    pub max_delay_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_attempts: 4, base_delay_ms: 5, max_delay_ms: 100 }
    }
}

impl RetryPolicy {
    /// The delay before retry number `attempt` (1-based): the base
    /// delay doubled per prior retry, capped at `max_delay_ms`.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let shift = attempt.saturating_sub(1).min(62);
        self.base_delay_ms.saturating_mul(1u64 << shift).min(self.max_delay_ms)
    }
}

/// A blocking JSONL client for the service socket, with optional
/// per-request deadlines and transient-error retries.
pub struct Client {
    addr: String,
    reader: BufReader<Conn>,
    writer: Conn,
    deadline: Option<Duration>,
    retry: RetryPolicy,
    sink: TelemetrySink,
}

impl Client {
    /// Connects to an address in [`Server::local_addr`] form.
    pub fn connect(addr: &str) -> Result<Client, ServiceError> {
        let (reader, writer) = Client::open(addr)?;
        Ok(Client {
            addr: addr.to_string(),
            reader,
            writer,
            deadline: None,
            retry: RetryPolicy::default(),
            sink: TelemetrySink::disabled(),
        })
    }

    fn open(addr: &str) -> Result<(BufReader<Conn>, Conn), ServiceError> {
        let io = |e: std::io::Error| ServiceError::Io(e.to_string());
        let conn = if let Some(path) = addr.strip_prefix("unix:") {
            Conn::Unix(UnixStream::connect(path).map_err(io)?)
        } else {
            let hostport = addr.strip_prefix("tcp:").unwrap_or(addr);
            Conn::Tcp(TcpStream::connect(hostport).map_err(io)?)
        };
        let writer = conn.try_clone().map_err(io)?;
        Ok((BufReader::new(conn), writer))
    }

    /// Sets (or clears) the per-request response deadline. A call that
    /// waits longer than this returns
    /// [`ServiceError::DeadlineExceeded`]; the retry loop then
    /// reconnects, because a late response would desynchronise the
    /// stream.
    pub fn set_deadline(&mut self, deadline: Option<Duration>) -> Result<(), ServiceError> {
        self.reader
            .get_ref()
            .set_read_timeout(deadline)
            .map_err(|e| ServiceError::Io(e.to_string()))?;
        self.deadline = deadline;
        Ok(())
    }

    /// Replaces the retry schedule used by [`Client::call_with_retry`].
    pub fn set_retry_policy(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Attaches a telemetry sink; exhausted retries emit
    /// [`RetryExhausted`] events through it.
    pub fn set_sink(&mut self, sink: TelemetrySink) {
        self.sink = sink;
    }

    /// Drops the current stream and dials the stored address again,
    /// reapplying the deadline.
    pub fn reconnect(&mut self) -> Result<(), ServiceError> {
        let (reader, writer) = Client::open(&self.addr)?;
        self.reader = reader;
        self.writer = writer;
        if let Some(deadline) = self.deadline {
            self.reader
                .get_ref()
                .set_read_timeout(Some(deadline))
                .map_err(|e| ServiceError::Io(e.to_string()))?;
        }
        Ok(())
    }

    /// Sends one request and blocks for its response (no retries).
    pub fn call(&mut self, request: &Request) -> Result<Response, ServiceError> {
        let io = |e: std::io::Error| ServiceError::Io(e.to_string());
        // One write per frame, so the server never wakes on half a line.
        let mut line = request.to_json();
        line.push('\n');
        self.writer.write_all(line.as_bytes()).map_err(io)?;
        line.clear();
        let n = match self.reader.read_line(&mut line) {
            Ok(n) => n,
            Err(e)
                if self.deadline.is_some()
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Err(ServiceError::DeadlineExceeded(format!("op {:?}", request.op())));
            }
            Err(e) => return Err(io(e)),
        };
        if n == 0 {
            return Err(ServiceError::Io("server closed the connection".into()));
        }
        Response::from_json(line.trim_end())
    }

    /// Like [`Client::call`], but retries transient failures
    /// ([`ServiceError::is_transient`] — stalls, socket errors, missed
    /// deadlines) with the capped exponential backoff of the configured
    /// [`RetryPolicy`]. Socket and deadline failures reconnect before
    /// retrying. When the budget runs out, the last error is returned
    /// and a `retry_exhausted` event is emitted if a recorder is
    /// attached.
    pub fn call_with_retry(&mut self, request: &Request) -> Result<Response, ServiceError> {
        let mut attempt: u32 = 1;
        loop {
            let err = match self.call(request) {
                // A stalled broker reports success=0 over the wire; it
                // is the one server-side error worth retrying.
                Ok(Response::Error { code, .. }) if code == "stalled" => ServiceError::Stalled,
                Ok(resp) => return Ok(resp),
                Err(e) => e,
            };
            if !err.is_transient() || attempt >= self.retry.max_attempts {
                if err.is_transient() && self.sink.enabled() {
                    self.sink.emit(Event::RetryExhausted(RetryExhausted {
                        tenant: request.tenant().unwrap_or("").to_string(),
                        op: request.op().to_string(),
                        attempts: attempt as u64,
                        last_error: err.to_string(),
                    }));
                }
                return Err(err);
            }
            let delay = self.retry.delay_ms(attempt);
            if delay > 0 {
                std::thread::sleep(Duration::from_millis(delay));
            }
            if matches!(err, ServiceError::Io(_) | ServiceError::DeadlineExceeded(_)) {
                // A failed reconnect surfaces as Io on the next call.
                let _ = self.reconnect();
            }
            attempt += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArbitrationPolicy;
    use hetmem_core::discovery;
    use hetmem_memsim::Machine;

    fn serve_knl() -> Server {
        let machine = Arc::new(Machine::knl_snc4_flat());
        let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
        let broker = Arc::new(Broker::new(machine, attrs, ArbitrationPolicy::FairShare));
        Server::bind(broker, "tcp:127.0.0.1:0").expect("bind")
    }

    fn register(client: &mut Client, name: &str) {
        let resp = client
            .call(&Request::Register {
                tenant: name.into(),
                priority: crate::Priority::Normal,
                quota: vec![],
                reserve: vec![],
            })
            .expect("register");
        assert!(matches!(resp, Response::Registered { .. }), "{resp:?}");
    }

    #[test]
    fn register_alloc_free_over_the_socket() {
        let mut server = serve_knl();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        register(&mut client, "t");
        let resp = client
            .call(&Request::Alloc {
                tenant: "t".into(),
                size: 1 << 20,
                criterion: hetmem_core::attr::BANDWIDTH,
                fallback: hetmem_alloc::Fallback::PartialSpill,
                label: Some("buf".into()),
                ttl: None,
            })
            .expect("alloc");
        let Response::Granted { lease, size, fast_bytes, .. } = resp else {
            panic!("expected grant, got {resp:?}");
        };
        assert_eq!(size, 1 << 20);
        assert_eq!(fast_bytes, 1 << 20, "KNL MCDRAM should win the bandwidth ranking");
        assert_eq!(server.broker().live_leases(), 1);
        let resp = client.call(&Request::Free { tenant: "t".into(), lease }).expect("free");
        assert!(matches!(resp, Response::Freed), "{resp:?}");
        assert_eq!(server.broker().live_leases(), 0);
        server.broker().check_invariants().expect("clean");
        server.shutdown();
    }

    #[test]
    fn errors_keep_the_connection_usable() {
        let mut server = serve_knl();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        // Alloc for an unregistered tenant fails but does not hang up.
        let resp = client
            .call(&Request::Alloc {
                tenant: "ghost".into(),
                size: 4096,
                criterion: hetmem_core::attr::CAPACITY,
                fallback: hetmem_alloc::Fallback::NextTarget,
                label: None,
                ttl: None,
            })
            .expect("call");
        let Response::Error { code, .. } = &resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(code, "unknown_tenant");
        // Freeing someone else's lease is refused.
        register(&mut client, "t");
        let resp = client.call(&Request::Free { tenant: "t".into(), lease: 99 }).expect("call");
        let Response::Error { code, .. } = &resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(code, "unknown_lease");
        let resp = client.call(&Request::Stats).expect("stats");
        let Response::Stats { tenants, nodes, shards, guided } = resp else {
            panic!("expected stats");
        };
        assert_eq!(tenants.len(), 1);
        assert_eq!(nodes.len(), 8, "KNL SNC-4 flat has 8 NUMA nodes");
        assert_eq!(shards, 1, "default plane is one shard");
        assert_eq!(guided, None, "guidance is off unless enabled");
        server.shutdown();
    }

    #[test]
    fn renew_and_heartbeat_over_the_socket() {
        let mut server = serve_knl();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        register(&mut client, "t");
        let resp = client
            .call(&Request::Alloc {
                tenant: "t".into(),
                size: 4096,
                criterion: hetmem_core::attr::CAPACITY,
                fallback: hetmem_alloc::Fallback::PartialSpill,
                label: None,
                ttl: Some(1000),
            })
            .expect("alloc");
        let Response::Granted { lease, .. } = resp else {
            panic!("expected grant, got {resp:?}");
        };
        let resp = client.call(&Request::Renew { tenant: "t".into(), lease }).expect("renew");
        let Response::Renewed { lease: renewed, expires_at } = resp else {
            panic!("expected renewed, got {resp:?}");
        };
        assert_eq!(renewed, lease);
        assert!(expires_at.is_some(), "a TTL'd lease has a deadline");
        let resp = client.call(&Request::Heartbeat { tenant: "t".into() }).expect("heartbeat");
        assert_eq!(resp, Response::HeartbeatAck { renewed: 1 });
        // Renewing a lease we do not own is refused.
        let resp = client.call(&Request::Renew { tenant: "t".into(), lease: 99 }).expect("call");
        let Response::Error { code, .. } = &resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(code, "unknown_lease");
        server.shutdown();
    }

    #[test]
    fn disconnect_revokes_the_connections_leases() {
        let mut server = serve_knl();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        register(&mut client, "t");
        let resp = client
            .call(&Request::Alloc {
                tenant: "t".into(),
                size: 1 << 20,
                criterion: hetmem_core::attr::BANDWIDTH,
                fallback: hetmem_alloc::Fallback::PartialSpill,
                label: None,
                ttl: None,
            })
            .expect("alloc");
        assert!(matches!(resp, Response::Granted { .. }), "{resp:?}");
        assert_eq!(server.broker().live_leases(), 1);
        drop(client);
        // The reader thread posts the disconnect and its shard's next
        // tick revokes. Wait on the revoked count: a revocation drops
        // the lease first and bumps the count last.
        for _ in 0..200 {
            if server.broker().robustness().revoked > 0 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.broker().live_leases(), 0, "disconnect reclaims the lease");
        assert_eq!(server.broker().robustness().revoked, 1);
        server.broker().check_invariants().expect("clean");
        server.shutdown();
    }

    #[test]
    fn oversized_frames_get_a_typed_error_and_the_conn_survives() {
        let mut server = serve_knl();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        // Hand-write a frame one byte over the cap.
        let huge = format!("{{\"op\":\"stats\",\"pad\":\"{}\"}}\n", "x".repeat(MAX_FRAME));
        client.writer.write_all(huge.as_bytes()).expect("write");
        client.writer.flush().expect("flush");
        let mut line = String::new();
        client.reader.read_line(&mut line).expect("read");
        let resp = Response::from_json(line.trim_end()).expect("parse");
        let Response::Error { code, error } = &resp else {
            panic!("expected error, got {resp:?}");
        };
        assert_eq!(code, "wire");
        assert!(error.contains("exceeds"), "{error}");
        // The same connection still serves well-formed requests.
        let resp = client.call(&Request::Stats).expect("stats");
        assert!(matches!(resp, Response::Stats { .. }), "{resp:?}");
        server.shutdown();
    }

    #[test]
    fn retry_policy_caps_and_call_with_retry_rides_out_a_stall() {
        let p = RetryPolicy { max_attempts: 10, base_delay_ms: 1, max_delay_ms: 8 };
        assert_eq!(
            (1..8).map(|a| p.delay_ms(a)).collect::<Vec<_>>(),
            vec![1, 2, 4, 8, 8, 8, 8],
            "doubling then capped"
        );
        let mut server = serve_knl();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        register(&mut client, "t");
        // Stall the broker for two epochs; each request batch advances
        // one epoch, so a couple of retries ride it out.
        server.broker().set_alloc_stall(2);
        client.set_retry_policy(RetryPolicy { max_attempts: 8, base_delay_ms: 0, max_delay_ms: 0 });
        let resp = client
            .call_with_retry(&Request::Alloc {
                tenant: "t".into(),
                size: 4096,
                criterion: hetmem_core::attr::CAPACITY,
                fallback: hetmem_alloc::Fallback::PartialSpill,
                label: None,
                ttl: None,
            })
            .expect("retries ride out the stall");
        assert!(matches!(resp, Response::Granted { .. }), "{resp:?}");
        server.shutdown();
    }

    /// A `stats` frame from a peer that hung up; its reply is dropped.
    fn stats_from_a_gone_peer() -> Work {
        let peer = Peer { id: u64::MAX, writer: Mutex::new(None), state: Mutex::default() };
        Work::Request { peer: Arc::new(peer), request: Ok(Request::Stats) }
    }

    /// Stands in for a reader holding shard 0's token past its first
    /// tick: `holder` takes two ticks, so it wants relief. The caller
    /// holds the token.
    fn take_two_ticks(plane: &Plane, holder: &mut Turn) {
        for _ in 0..2 {
            plane.queues.post(stats_from_a_gone_peer());
            assert!(matches!(plane.queues.next(0, holder), Step::Tick(_)));
        }
    }

    #[test]
    fn a_reader_relieves_a_holder_whose_own_frames_are_answered() {
        let mut server = serve_knl();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client.set_deadline(Some(Duration::from_secs(10))).expect("deadline");
        let plane = server.plane.clone();
        let token = plane.tokens[0].lock().expect("token");
        let mut holder = Turn::reader(false);
        take_two_ticks(&plane, &mut holder);
        let caller = std::thread::spawn(move || client.call(&Request::Stats));
        // The client's reader posts its frame, finds the token taken
        // and waits for it instead of going back to reading.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !plane.queues.standing_by(0) {
            assert!(std::time::Instant::now() < deadline, "no reader stood by");
            std::thread::sleep(Duration::from_millis(1));
        }
        // The holder hands the token over; the standby serves the frame.
        assert!(matches!(plane.queues.next(0, &mut holder), Step::HandOver));
        drop(token);
        let resp = caller.join().expect("caller").expect("answered by the standby");
        assert!(matches!(resp, Response::Stats { .. }), "{resp:?}");
        assert!(!plane.queues.standing_by(0));
        server.shutdown();
    }

    #[test]
    fn unix_socket_roundtrip() {
        let machine = Arc::new(Machine::knl_snc4_flat());
        let attrs = Arc::new(discovery::from_firmware(&machine, true).expect("attrs"));
        let broker = Arc::new(Broker::new(machine, attrs, ArbitrationPolicy::Fcfs));
        let path =
            std::env::temp_dir().join(format!("hetmem-serve-test-{}.sock", std::process::id()));
        let mut server = Server::bind(broker, &format!("unix:{}", path.display())).expect("bind");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        register(&mut client, "u");
        server.shutdown();
        assert!(!path.exists(), "socket file is cleaned up on shutdown");
    }
}
