//! The broker service: a JSONL socket server in front of a shared
//! [`Broker`].
//!
//! One reader thread per connection parses request lines, posts them
//! on its shard's queue and then serves that shard itself: the thread
//! holding the shard's serve token drains the queue in batches
//! ("ticks"), opens a fresh contention epoch per batch, and serves
//! every request in arrival order, writing each response line back
//! with a single write. A reader that finds the token taken goes back
//! to reading; the holder serves its frame, and re-checks the queue
//! after dropping the token, so no frame is stranded. Once the
//! holder's own frames are answered it hands the token to the next
//! reader that posts, so its own connection is read again within a
//! tick or two however busy the shard stays. Batching keeps
//! the epoch semantics of the [`crate::TrafficBoard`] meaningful —
//! requests landing in the same tick contend with each other — and
//! gives natural backpressure: a slow broker grows the batch instead
//! of the thread count. With more than one shard, each shard also
//! keeps one thread that steals from its busiest sibling while its own
//! queue is idle.
//!
//! Robustness rules (specified in `docs/PROTOCOL.md`, operational
//! guidance in `docs/OPERATIONS.md`):
//!
//! * Frames are capped at [`MAX_FRAME`] bytes. An oversized frame gets
//!   a typed `wire` error and the rest of the line is discarded; the
//!   connection stays usable.
//! * A connection that drops — cleanly or mid-frame — has every lease
//!   it acquired revoked and reclaimed on its shard's next tick.
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

use crate::broker::Broker;
use crate::shard::ShardConfig;
use crate::wire::{Request, Response};
use crate::{LeaseId, ServiceError, TenantSpec};
use hetmem_alloc::{AllocRequest, Fallback};
use hetmem_core::AttrId;
use hetmem_telemetry::{Event, RetryExhausted, ShardSteal, SpillForwarded, TelemetrySink};
use std::collections::{HashMap, VecDeque};
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
    /// The write half, locked for one whole reply line at a time.
    writer: Mutex<Conn>,
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
    /// Writes one response frame with a single write.
    fn send(&self, response: &Response) {
        let mut line = response.to_json();
        line.push('\n');
        let _ = self.writer.lock().expect("conn poisoned").write_all(line.as_bytes());
    }

    /// Records a grant, or revokes it when the connection already hung
    /// up (a stolen frame served after its peer's disconnect).
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

/// One admission queue and the token of the thread serving it.
#[derive(Default)]
struct Shard {
    pending: Mutex<VecDeque<Work>>,
    /// Held by the one thread serving this shard's ticks. It guards no
    /// data, so a panic while serving leaves nothing to repair.
    serving: Mutex<()>,
    /// The token is held by a reader whose own frames are answered, so
    /// its connection may be waiting to be read: it wants relief.
    relief_wanted: AtomicBool,
    /// A reader is blocked on `serving` to relieve the holder (at most
    /// one per shard).
    standby: AtomicBool,
}

impl Shard {
    fn post(&self, work: Work) {
        self.pending.lock().expect("queue poisoned").push_back(work);
    }

    fn take(&self) -> Vec<Work> {
        self.pending.lock().expect("queue poisoned").drain(..).collect()
    }

    fn is_idle(&self) -> bool {
        self.pending.lock().expect("queue poisoned").is_empty()
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

/// How often a shard's steal thread looks for work on its siblings
/// while its own queue is idle. Only sharded servers have steal
/// threads; with one shard the readers alone serve.
const STEAL_POLL: Duration = Duration::from_millis(2);

/// The running service.
pub struct Server {
    plane: Arc<Plane>,
    /// A handle on every open connection, keyed by connection id, so
    /// shutdown can unblock its reader. The reader removes its entry
    /// when it exits, closing the handle with the connection.
    conns: Arc<Mutex<HashMap<u64, Conn>>>,
    accept_thread: Option<JoinHandle<()>>,
    steal_threads: Vec<JoinHandle<()>>,
    local_addr: String,
    sock_path: Option<PathBuf>,
    config: ShardConfig,
}

/// A serve-side observer of accepted requests: called with the
/// current service epoch and each well-formed request, in exactly the
/// order they are served. `hetmem-serve --record` wires this to a
/// wire-log writer so the run can be replayed later.
pub type RequestRecorder = Box<dyn FnMut(u64, &Request) + Send>;

/// What every serving thread shares: the broker, the shard queues and
/// the plane's settings.
struct Plane {
    broker: Arc<Broker>,
    shards: Vec<Shard>,
    coalesce: bool,
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
        Server::bind_sharded(broker, addr, recorder, ShardConfig::default())
    }

    /// [`Server::bind_with`] over a sharded serve plane: one queue per
    /// shard, connections routed to shard `conn_id mod S`, one steal
    /// thread per shard taking the back half of the longest sibling
    /// queue while its own is idle (`shard_steal` telemetry), and —
    /// when [`ShardConfig::coalesce`] is set — consecutive mergeable
    /// same-tenant `alloc` frames in a tick batched through one
    /// [`Broker::acquire_batch`] planning walk (`batch_coalesced`
    /// telemetry).
    ///
    /// Recording composes only with the single-shard plane: a wire log
    /// replays serially, and neither a cross-shard thread interleaving
    /// nor a coalesced walk is reconstructible from it. Passing a
    /// recorder with `shards > 1` or coalescing on is refused with a
    /// `wire` error.
    pub fn bind_sharded(
        broker: Arc<Broker>,
        addr: &str,
        recorder: Option<RequestRecorder>,
        config: ShardConfig,
    ) -> Result<Server, ServiceError> {
        if recorder.is_some() && (config.effective_shards() > 1 || config.coalesce) {
            return Err(ServiceError::Wire(
                "recording requires the single-shard plane \
                 (shards=1, coalescing off)"
                    .into(),
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

        let shards = config.effective_shards() as usize;
        // S shards tick the broker S times per service round; fold
        // those ticks into one epoch so contention windows and TTL
        // aging stay round-wide.
        broker.set_dispatch_planes(shards as u32);
        let plane = Arc::new(Plane {
            broker,
            shards: (0..shards).map(|_| Shard::default()).collect(),
            coalesce: config.coalesce,
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
                let id = next_conn_id.fetch_add(1, Ordering::Relaxed);
                if let Ok(handle) = conn.try_clone() {
                    conns.lock().expect("conns poisoned").insert(id, handle);
                }
                let peer = Arc::new(Peer {
                    id,
                    writer: Mutex::new(write_half),
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

        let steal_threads = if shards > 1 {
            (0..shards)
                .map(|s| {
                    let plane = plane.clone();
                    std::thread::spawn(move || {
                        while !plane.stop.load(Ordering::SeqCst) {
                            std::thread::sleep(STEAL_POLL);
                            plane.serve(s, false);
                        }
                    })
                })
                .collect()
        } else {
            Vec::new()
        };

        Ok(Server {
            plane,
            conns,
            accept_thread: Some(accept_thread),
            steal_threads,
            local_addr,
            sock_path,
            config,
        })
    }

    /// The bound address in connectable form (`tcp:127.0.0.1:PORT` or
    /// `unix:/path`).
    pub fn local_addr(&self) -> &str {
        &self.local_addr
    }

    /// The broker behind the socket.
    pub fn broker(&self) -> &Arc<Broker> {
        &self.plane.broker
    }

    /// The dispatch-plane shape this server runs.
    pub fn shard_config(&self) -> &ShardConfig {
        &self.config
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
        for t in self.steal_threads.drain(..) {
            let _ = t.join();
        }
        // Whoever takes a token after this sees `stop` and serves
        // nothing; a tick already running finishes first.
        for shard in &self.plane.shards {
            drop(shard.serving.lock().unwrap_or_else(PoisonError::into_inner));
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
    /// A connection's reader: parses frames onto the connection's
    /// shard and serves that shard, until the peer hangs up or the
    /// server stops.
    fn read_frames(&self, peer: &Arc<Peer>, conn: Conn) {
        // A connection's frames always land on one shard, so with one
        // shard they are served in request order. With more, a steal
        // serves a queue's tail while its head is served, so pipelined
        // frames can be reordered.
        let s = (peer.id % self.shards.len() as u64) as usize;
        let shard = &self.shards[s];
        let post = |request| shard.post(Work::Request { peer: peer.clone(), request });
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
                shard.post(Work::Disconnect { peer: peer.clone() });
                self.serve(s, true);
                return;
            }
            // Frames the peer pipelined are already buffered: post them
            // too, so they share this tick instead of opening one each.
            if !reader.buffer().contains(&b'\n') {
                self.serve(s, true);
            }
        }
    }

    /// Serves shard `s` tick by tick until its queue is empty, unless
    /// another thread holds the shard's serve token; that thread then
    /// serves whatever was posted. A holder re-checks the queue after
    /// dropping the token, so a frame posted while it was finishing is
    /// never stranded.
    ///
    /// A connection's `reader` does not serve others indefinitely:
    /// after its first tick its own frames are answered, and as soon as
    /// another reader of the shard is waiting to take over, it hands
    /// the token on and goes back to reading. A reader that finds the
    /// token with such a holder becomes that standby (one per shard)
    /// and waits for the token instead of going back to reading, so the
    /// hand-off never strands a frame. The steal thread (`!reader`)
    /// first takes one batch off its busiest sibling if its own queue
    /// is idle, and serves until the queue is empty.
    fn serve(&self, s: usize, reader: bool) {
        let shard = &self.shards[s];
        let mut steal = !reader;
        loop {
            let token = match shard.serving.try_lock() {
                Ok(token) => token,
                Err(TryLockError::Poisoned(token)) => token.into_inner(),
                Err(TryLockError::WouldBlock) => {
                    if !reader
                        || !shard.relief_wanted.load(Ordering::SeqCst)
                        || shard.standby.swap(true, Ordering::SeqCst)
                    {
                        return;
                    }
                    let token = shard.serving.lock().unwrap_or_else(PoisonError::into_inner);
                    shard.standby.store(false, Ordering::SeqCst);
                    token
                }
            };
            let mut relieved = false;
            while !self.stop.load(Ordering::SeqCst) {
                let mut batch = shard.take();
                if batch.is_empty() && std::mem::take(&mut steal) {
                    batch = self.steal_batch(s);
                }
                if batch.is_empty() {
                    break;
                }
                // One drained batch = one service tick = one contention
                // epoch (per shard).
                self.broker.advance_epoch();
                self.serve_batch(s as u32, batch);
                if reader {
                    relieved = shard.standby.load(Ordering::SeqCst);
                    if relieved {
                        break;
                    }
                    shard.relief_wanted.store(true, Ordering::SeqCst);
                }
            }
            shard.relief_wanted.store(false, Ordering::SeqCst);
            drop(token);
            if relieved || self.stop.load(Ordering::SeqCst) || shard.is_idle() {
                return;
            }
        }
    }

    /// Takes the back half of the longest sibling queue (≥ 2 pending)
    /// for an idle shard, emitting one `shard_steal` event. The victim
    /// keeps its queue head but serves it concurrently with the stolen
    /// tail, so one connection's pipelined frames can be served out of
    /// order; the protocol promises order only on one shard.
    fn steal_batch(&self, thief: usize) -> Vec<Work> {
        let mut best: Option<(usize, usize)> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            if i == thief {
                continue;
            }
            let len = shard.pending.lock().expect("queue poisoned").len();
            if len >= 2 && best.is_none_or(|(best_len, _)| len > best_len) {
                best = Some((len, i));
            }
        }
        let Some((_, victim)) = best else {
            return Vec::new();
        };
        let stolen: Vec<Work> = {
            let mut pending = self.shards[victim].pending.lock().expect("queue poisoned");
            let len = pending.len();
            if len < 2 {
                // The victim drained between the scan and the lock.
                return Vec::new();
            }
            pending.split_off(len - len / 2).into_iter().collect()
        };
        let sink = self.broker.sink_handle();
        if sink.enabled() {
            sink.emit(Event::ShardSteal(ShardSteal {
                broker: self.broker.id(),
                thief: thief as u32,
                victim: victim as u32,
                stolen: stolen.len() as u64,
            }));
        }
        stolen
    }

    /// Serves one tick. With coalescing on, consecutive mergeable
    /// same-tenant `alloc` frames are batched through one
    /// [`Broker::acquire_batch`] walk; everything else takes the
    /// serial path.
    fn serve_batch(&self, shard: u32, batch: Vec<Work>) {
        let mut items: Vec<Option<Work>> = batch.into_iter().map(Some).collect();
        let mut i = 0;
        while i < items.len() {
            if self.coalesce {
                let mut j = i;
                while j < items.len()
                    && alloc_key(items[i].as_ref().expect("item taken"))
                        .zip(alloc_key(items[j].as_ref().expect("item taken")))
                        .is_some_and(|(a, b)| a == b)
                {
                    j += 1;
                }
                if j - i >= 2 {
                    let run: Vec<Work> =
                        items[i..j].iter_mut().map(|s| s.take().expect("item taken")).collect();
                    self.serve_run(shard, run);
                    i = j;
                    continue;
                }
            }
            self.serve_one(items[i].take().expect("item taken"));
            i += 1;
        }
    }

    /// Serves one coalescable run (all items well-formed `alloc`
    /// frames with equal keys) through a single
    /// [`Broker::acquire_batch`] call, fanning the grants back out to
    /// each frame's connection.
    fn serve_run(&self, shard: u32, run: Vec<Work>) {
        let broker = &self.broker;
        let mut tenant_name = String::new();
        let mut ttl = None;
        let mut reqs = Vec::with_capacity(run.len());
        let mut peers = Vec::with_capacity(run.len());
        for item in run {
            let Work::Request {
                peer,
                request: Ok(Request::Alloc { tenant, size, criterion, fallback, label, ttl: t }),
            } = item
            else {
                unreachable!("serve_run only receives well-formed alloc frames");
            };
            tenant_name = tenant;
            ttl = t;
            let mut req = AllocRequest::new(size).criterion(criterion).fallback(fallback);
            if let Some(label) = label {
                req = req.label(label);
            }
            reqs.push(req);
            peers.push(peer);
        }
        let outcomes = match broker.tenant_id(&tenant_name) {
            Some(id) => broker.acquire_batch(id, &reqs, ttl, shard),
            None => {
                let e = ServiceError::UnknownTenant(tenant_name.clone());
                reqs.iter().map(|_| Err(e.clone())).collect()
            }
        };
        for (peer, outcome) in peers.into_iter().zip(outcomes) {
            let response = match outcome {
                Ok(lease) => {
                    peer.granted(broker, lease.id());
                    Response::Granted {
                        lease: lease.id().0,
                        size: lease.size(),
                        placement: lease.placement().to_vec(),
                        fast_bytes: lease.fast_bytes(),
                    }
                }
                Err(e) => Response::from_error(&e),
            };
            peer.send(&response);
        }
    }

    /// Serves one work item on the serial path — the single-shard
    /// semantics, verbatim.
    fn serve_one(&self, item: Work) {
        let broker = &self.broker;
        match item {
            Work::Disconnect { peer } => peer.hang_up(broker),
            Work::Request { peer, request } => {
                let response = match request {
                    Ok(request) => {
                        if let Some(rec) = self.recorder.lock().expect("recorder poisoned").as_mut()
                        {
                            rec(broker.epoch(), &request);
                        }
                        let freeing = match &request {
                            Request::Free { lease, .. } => Some(LeaseId(*lease)),
                            _ => None,
                        };
                        let resp = serve_with_shards(broker, request, self.shards.len() as u32);
                        match (&resp, freeing) {
                            (Response::Granted { lease, .. }, _) => {
                                peer.granted(broker, LeaseId(*lease))
                            }
                            (Response::Freed, Some(lease)) => peer.freed(lease),
                            _ => {}
                        }
                        resp
                    }
                    Err(e) => Response::from_error(&e),
                };
                peer.send(&response);
            }
        }
    }
}

/// The coalescing key of a work item: `Some` only for well-formed
/// `alloc` frames, equal only when a merged planning walk is
/// admissible (same tenant, criterion, fallback and TTL — labels may
/// differ; wire allocs have no initiator or scope knobs).
fn alloc_key(work: &Work) -> Option<(&str, AttrId, Fallback, Option<u64>)> {
    match work {
        Work::Request {
            request: Ok(Request::Alloc { tenant, criterion, fallback, ttl, .. }),
            ..
        } => Some((tenant.as_str(), *criterion, *fallback, *ttl)),
        _ => None,
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
            let mut req = AllocRequest::new(size).criterion(criterion).fallback(fallback);
            if let Some(label) = label {
                req = req.label(label);
            }
            // The broker keeps the lease record; the wire client holds
            // only the id and frees through it.
            let lease = broker.acquire_with_ttl(id, &req, ttl)?;
            Ok(Response::Granted {
                lease: lease.id().0,
                size: lease.size(),
                placement: lease.placement().to_vec(),
                fast_bytes: lease.fast_bytes(),
            })
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
            let mut req = AllocRequest::new(size).criterion(criterion).fallback(fallback);
            if let Some(label) = label {
                req = req.label(label);
            }
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
            Ok(Response::Granted {
                lease: lease.id().0,
                size: lease.size(),
                placement: lease.placement().to_vec(),
                fast_bytes: lease.fast_bytes(),
            })
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

    #[test]
    fn a_reader_relieves_a_holder_whose_own_frames_are_answered() {
        let mut server = serve_knl();
        let mut client = Client::connect(server.local_addr()).expect("connect");
        client.set_deadline(Some(Duration::from_secs(10))).expect("deadline");
        let shard = &server.plane.shards[0];
        // Stand in for a holder past its first tick.
        let token = shard.serving.lock().expect("token");
        shard.relief_wanted.store(true, Ordering::SeqCst);
        let caller = std::thread::spawn(move || client.call(&Request::Stats));
        // The client's reader posts its frame, finds the token taken
        // and waits for it instead of going back to reading.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !shard.standby.load(Ordering::SeqCst) {
            assert!(std::time::Instant::now() < deadline, "no reader stood by");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Hand the token over: the standby serves the frame.
        shard.relief_wanted.store(false, Ordering::SeqCst);
        drop(token);
        let resp = caller.join().expect("caller").expect("answered by the standby");
        assert!(matches!(resp, Response::Stats { .. }), "{resp:?}");
        assert!(!shard.standby.load(Ordering::SeqCst));
        server.shutdown();
    }
}
