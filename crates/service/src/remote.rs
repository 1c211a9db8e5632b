//! The distributed plane: remote shards over memlist-framed RPC.
//!
//! A single-node [`AllocationService`] routes
//! every request to a local worker thread. This module stretches the
//! same shard math across machines:
//!
//! * [`NodeServer`] exposes one service over TCP — it answers
//!   [`Message::Submit`] and [`Message::Mutate`] frames with the exact
//!   replies the in-process API produces.
//! * [`RemoteShard`] is the client of one node: a framed connection with
//!   socket timeouts, a bounded [`RetryPolicy`] with doubling backoff,
//!   lock-free [`NetStats`] counters and optional flight-recorder
//!   events ([`EventKind::FrameSent`] … [`EventKind::FrameTimedOut`]).
//!   A dead node degrades into [`Outcome::Unavailable`], never a hang.
//! * [`ClusterClient`] is the front-end: it asks a
//!   [`Placement`] where the owning shard of each
//!   request lives and routes to the local service or the owning node.
//!   Because placement never changes *which* shard owns a type (see
//!   [`rqfa_core::placement::shard_index`]), a cluster answers
//!   bit-identically to one big single-node service — the invariant
//!   `tests/distributed.rs` proves under byte-level fault injection.
//! * [`replicate_shard`] / [`serve_follower`] implement leader → follower
//!   replication: the shard's dual-slot snapshot container ships in
//!   chunks, then the WAL tail streams as exact log frames, each
//!   acknowledged. On leader death the follower
//!   [promotes](rqfa_net::Follower::promote) and serves the same answers.
//! * [`Supervisor`] closes the detect→decide→act loop: heartbeat probes
//!   renew each node's lease in a [`FailureDetector`]; when a node's
//!   lease decays to [`Liveness::Down`], the supervisor bumps the
//!   cluster's fencing epoch, runs the node's registered promotion hook
//!   (promote the follower, spawn a replacement server, restore
//!   redundancy) and repoints placement via
//!   [`ClusterClient::set_node`] — all driven by the injected clock, so
//!   failover is deterministic under a `ManualClock`.
//!
//! ## Fencing
//!
//! Every [`Message::Mutate`] carries the sender's cluster epoch. A node
//! server remembers the highest epoch it has ever seen and **rejects**
//! mutations stamped lower — so a stale leader reconnecting after a
//! partition (its client still holding the pre-failover epoch) cannot
//! mutate state behind the promoted leader's back. Split-brain writes
//! are refused at the wire, not merely discouraged. Submits are
//! read-only and stay unfenced.
//!
//! ## Duplicate-delivery discipline
//!
//! The transport retries on failure, so frames are delivered *at least
//! once*. The two RPC families absorb duplicates differently:
//!
//! * **Submit** is read-only: a duplicated submit is simply answered
//!   twice, and the client matches replies by id (stale replies for
//!   earlier ids are skipped).
//! * **Mutate** is not idempotent, so the server deduplicates: a mutate
//!   frame byte-identical to the immediately preceding one on the same
//!   connection is treated as a transport duplicate — it is neither
//!   re-applied nor re-acknowledged. (A client never sends two identical
//!   mutations back-to-back on one connection without awaiting the ack
//!   between them, so this window of one is exact.)

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rqfa_core::placement::{NodeId, Placement, ShardSite};
use rqfa_core::{CaseMutation, Generation, QosClass, Request};
use rqfa_net::{
    connect_loopback, snapshot_stream, CircuitBreaker, FailureDetector, Follower, FollowerEvent,
    FrameConn, Heartbeat, Liveness, Message, MutateAck, NetError, NetStats, RetryPolicy, TailAck,
    WireOutcome, WireReply,
};
use rqfa_telemetry::{clock::micros_between, EventKind, FlightRecorder, SharedClock};

use crate::{shard, AllocationService, Outcome, Reply, ServiceError};

/// Everything a remote-shard transport stream must be. Blanket-implemented
/// for every `Read + Write + Send` type, so tests can wrap a
/// [`TcpStream`] in a [`rqfa_net::FaultyStream`] and hand it to the same
/// client code production uses.
pub trait RemoteStream: Read + Write + Send {}

impl<S: Read + Write + Send> RemoteStream for S {}

/// Produces a fresh transport stream per (re)connection attempt.
pub type StreamFactory =
    Box<dyn Fn() -> Result<Box<dyn RemoteStream>, NetError> + Send + Sync>;

fn net_err(error: NetError) -> ServiceError {
    ServiceError::Remote(error.to_string())
}

/// Converts a service outcome to its wire mirror.
///
/// # Errors
///
/// [`NetError::Malformed`] for outcomes this protocol version cannot
/// express (impossible for outcomes the service actually produces).
pub fn outcome_to_wire(outcome: &Outcome) -> Result<WireOutcome, NetError> {
    Ok(match outcome {
        Outcome::Allocated {
            best,
            evaluated,
            cached,
        } => WireOutcome::Allocated {
            best: *best,
            evaluated: *evaluated as u64,
            cached: *cached,
        },
        Outcome::ShedQueueFull => WireOutcome::ShedQueueFull,
        Outcome::ShedDeadline => WireOutcome::ShedDeadline,
        Outcome::Failed(error) => WireOutcome::Failed(error.clone()),
        Outcome::Unavailable { attempts } => WireOutcome::Unavailable {
            attempts: *attempts,
        },
        Outcome::ShedPredicted { late_us } => WireOutcome::ShedPredicted { late_us: *late_us },
    })
}

/// Converts a wire outcome back into the service's vocabulary.
pub fn outcome_from_wire(outcome: WireOutcome) -> Outcome {
    match outcome {
        WireOutcome::Allocated {
            best,
            evaluated,
            cached,
        } => Outcome::Allocated {
            best,
            evaluated: usize::try_from(evaluated).unwrap_or(usize::MAX),
            cached,
        },
        WireOutcome::ShedQueueFull => Outcome::ShedQueueFull,
        WireOutcome::ShedDeadline => Outcome::ShedDeadline,
        WireOutcome::Failed(error) => Outcome::Failed(error),
        WireOutcome::Unavailable { attempts } => Outcome::Unavailable { attempts },
        WireOutcome::ShedPredicted { late_us } => Outcome::ShedPredicted { late_us },
    }
}

// ---------------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------------

/// Serves one [`AllocationService`] over TCP loopback: every accepted
/// connection gets its own thread answering [`Message::Submit`] and
/// [`Message::Mutate`] frames. [`NodeServer::shutdown`] stops accepting,
/// closes every connection and joins all threads — the harness's "kill a
/// node" switch.
pub struct NodeServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Highest mutation epoch this node has ever seen (the fence).
    fence: Arc<AtomicU64>,
    accept_thread: Option<JoinHandle<()>>,
    /// Threads of the connections still open at the last accept.
    conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl NodeServer {
    /// Binds an ephemeral loopback port and starts serving `service`
    /// with the fence at epoch 0 (every mutation epoch accepted until a
    /// higher one arrives).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Remote`] if the listener cannot be bound.
    pub fn spawn(service: Arc<AllocationService>) -> Result<NodeServer, ServiceError> {
        NodeServer::spawn_fenced(service, 0)
    }

    /// As [`NodeServer::spawn`], but born with the fence already at
    /// `epoch` — the failover path: a server spawned over a promoted
    /// follower starts at the promotion epoch, so the deposed leader's
    /// older-epoch mutations are rejected from the first frame.
    pub fn spawn_fenced(
        service: Arc<AllocationService>,
        epoch: u64,
    ) -> Result<NodeServer, ServiceError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| ServiceError::Remote(format!("bind loopback listener: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| ServiceError::Remote(format!("resolve listener address: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServiceError::Remote(format!("arm nonblocking accept: {e}")))?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let fence = Arc::new(AtomicU64::new(epoch));
        let conn_threads: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let accept_flag = Arc::clone(&shutdown);
        let accept_fence = Arc::clone(&fence);
        let accept_threads = Arc::clone(&conn_threads);
        let accept_thread = std::thread::spawn(move || loop {
            if accept_flag.load(Ordering::Acquire) {
                break;
            }
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let service = Arc::clone(&service);
                    let flag = Arc::clone(&accept_flag);
                    let fence = Arc::clone(&accept_fence);
                    let handle =
                        std::thread::spawn(move || serve_connection(&service, stream, &flag, &fence));
                    let mut threads = accept_threads
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    // Reap closed connections, so a client that keeps
                    // reconnecting cannot grow the list: it holds live
                    // connections only.
                    let (closed, open): (Vec<_>, Vec<_>) = std::mem::take(&mut *threads)
                        .into_iter()
                        .partition(JoinHandle::is_finished);
                    for thread in closed {
                        let _ = thread.join(); // finished: returns at once
                    }
                    *threads = open;
                    threads.push(handle);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Err(_) => break,
            }
        });
        Ok(NodeServer {
            addr,
            shutdown,
            fence,
            accept_thread: Some(accept_thread),
            conn_threads,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The highest mutation epoch this node has seen (the fence).
    pub fn fence_epoch(&self) -> u64 {
        self.fence.load(Ordering::Acquire)
    }

    /// Kills the node: stops accepting, unwinds every connection thread
    /// (each polls the shutdown flag between frames) and joins them all.
    /// In-flight requests already handed to the service still complete
    /// inside the service; their replies just never reach the wire.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        let handles = std::mem::take(
            &mut *self
                .conn_threads
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for NodeServer {
    fn drop(&mut self) {
        // A dropped-without-shutdown server still stops serving; the
        // threads observe the flag and exit (unjoined, reaped at process
        // exit). `shutdown` is the clean path.
        self.shutdown.store(true, Ordering::Release);
    }
}

/// One connection's serve loop: strictly request → reply, closing on any
/// protocol violation or transport damage (the client reconnects).
fn serve_connection(
    service: &AllocationService,
    stream: TcpStream,
    shutdown: &AtomicBool,
    fence: &AtomicU64,
) {
    // A short read timeout turns the blocking recv into a poll so the
    // thread notices `shutdown` within ~25 ms even on an idle connection.
    if stream
        .set_read_timeout(Some(Duration::from_millis(25)))
        .is_err()
    {
        return;
    }
    let _ = stream.set_nodelay(true);
    let mut conn = FrameConn::new(stream);
    let mut last_mutate: Option<(u64, CaseMutation)> = None;
    while !shutdown.load(Ordering::Acquire) {
        let message = match conn.recv() {
            Ok((message, _bytes)) => message,
            Err(NetError::Timeout) => continue,
            // Truncation, desync, CRC damage, EOF: the framing is gone —
            // drop the connection and let the client's retry establish a
            // fresh one.
            Err(_) => return,
        };
        match message {
            Message::Submit(submit) => {
                let id = submit.id;
                let ticket = match submit.deadline_us {
                    Some(us) => service.submit_with_deadline(
                        submit.request,
                        submit.class,
                        Duration::from_micros(us),
                    ),
                    None => service.submit(submit.request, submit.class),
                };
                let Some(reply) = ticket.wait() else { return };
                let Ok(outcome) = outcome_to_wire(&reply.outcome) else {
                    return;
                };
                let wire = WireReply {
                    // The node's internal ids are its own; the wire reply
                    // echoes the *caller's* id.
                    id,
                    class: reply.class,
                    outcome,
                    latency_us: reply.latency_us,
                };
                if conn.send(&Message::Reply(wire)).is_err() {
                    return;
                }
            }
            Message::Mutate { epoch, mutation } => {
                if last_mutate.as_ref() == Some(&(epoch, mutation.clone())) {
                    // Transport duplicate (see the module docs): already
                    // answered — swallow it.
                    continue;
                }
                // The fence: remember the highest epoch ever seen and
                // reject anything older — a stale leader's mutation is
                // refused *before* it can touch state (no split-brain).
                let seen = fence.fetch_max(epoch, Ordering::AcqRel).max(epoch);
                let ack = if epoch < seen {
                    MutateAck {
                        generation: 0,
                        error: Some(format!(
                            "fenced: mutation epoch {epoch} is stale (node epoch {seen})"
                        )),
                    }
                } else {
                    match service.apply_mutation(&mutation) {
                        Ok(_inverse) => {
                            let owner = shard::route(mutation.type_id(), service.shard_count());
                            MutateAck {
                                generation: service.shard_generation(owner).raw(),
                                error: None,
                            }
                        }
                        Err(error) => MutateAck {
                            generation: 0,
                            error: Some(error.to_string()),
                        },
                    }
                };
                last_mutate = Some((epoch, mutation));
                if conn.send(&Message::MutateAck(ack)).is_err() {
                    return;
                }
            }
            Message::Heartbeat(probe) => {
                // Liveness probe: echo the node id, answering with this
                // node's fence epoch and its shard-0 generation (the
                // one-shard-per-node convention of the cluster harness)
                // so the prober learns both liveness and progress.
                let echo = Heartbeat {
                    node: probe.node,
                    epoch: fence.load(Ordering::Acquire),
                    generation: service.shard_generation(0).raw(),
                };
                if conn.send(&Message::Heartbeat(echo)).is_err() {
                    return;
                }
            }
            // Replies, acks and replication frames have no business
            // arriving at a node server: protocol violation, close.
            _ => return,
        }
    }
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

struct Tracer {
    recorder: Arc<FlightRecorder>,
    clock: SharedClock,
    epoch: Instant,
}

/// The client of one remote node: a cached framed connection plus the
/// retry loop that makes every call either answer or fail *boundedly*.
///
/// All transport failures follow one discipline: drop the connection,
/// count the attempt, back off (doubling), reconnect through the stream
/// factory and resend. When the [`RetryPolicy`] budget is exhausted the
/// call returns the attempt count and the caller surfaces
/// [`Outcome::Unavailable`] — the caller's liveness never depends on the
/// node's.
pub struct RemoteShard {
    factory: StreamFactory,
    policy: RetryPolicy,
    stats: Arc<NetStats>,
    conn: Mutex<Option<FrameConn<Box<dyn RemoteStream>>>>,
    tracer: Option<Tracer>,
    /// Optional circuit breaker: when open, calls fail fast with
    /// attempt count 0 instead of burning the whole retry budget
    /// against a node that is known-dead (see [`CircuitBreaker`]).
    breaker: Option<Arc<CircuitBreaker>>,
}

impl RemoteShard {
    /// A client drawing fresh streams from `factory` under `policy`.
    pub fn new(factory: StreamFactory, policy: RetryPolicy) -> RemoteShard {
        RemoteShard {
            factory,
            policy,
            stats: Arc::new(NetStats::new()),
            conn: Mutex::new(None),
            tracer: None,
            breaker: None,
        }
    }

    /// A TCP client of `addr` with `timeout` armed on connect, read and
    /// write.
    pub fn tcp(addr: SocketAddr, timeout: Duration, policy: RetryPolicy) -> RemoteShard {
        RemoteShard::new(
            Box::new(move || {
                connect_loopback(addr, timeout)
                    .map(|stream| Box::new(stream) as Box<dyn RemoteStream>)
            }),
            policy,
        )
    }

    /// Arms net-plane flight recording: every frame sent/received and
    /// every retry/timeout lands in `recorder` stamped by `clock`
    /// (timestamps are µs since this call).
    pub fn with_recorder(
        mut self,
        recorder: Arc<FlightRecorder>,
        clock: SharedClock,
    ) -> RemoteShard {
        let epoch = clock.now();
        self.tracer = Some(Tracer {
            recorder,
            clock,
            epoch,
        });
        self
    }

    /// Guards every call with `breaker`: an exhausted retry budget
    /// counts one failure, a trip makes later calls fail fast (attempt
    /// count 0) until the breaker's clock-driven probe re-closes it.
    #[must_use]
    pub fn with_breaker(mut self, breaker: Arc<CircuitBreaker>) -> RemoteShard {
        self.breaker = Some(breaker);
        self
    }

    /// This client's circuit breaker, if one is attached.
    pub fn breaker(&self) -> Option<Arc<CircuitBreaker>> {
        self.breaker.clone()
    }

    /// This client's transport counters.
    pub fn stats(&self) -> Arc<NetStats> {
        Arc::clone(&self.stats)
    }

    fn record(&self, request_id: u64, class: QosClass, kind: EventKind, arg: u64) {
        if let Some(tracer) = &self.tracer {
            let at_us = micros_between(tracer.epoch, tracer.clock.now());
            #[allow(clippy::cast_possible_truncation)]
            tracer
                .recorder
                .record(at_us, request_id, class.index() as u8, kind, arg);
        }
    }

    /// Submits over the wire; `Err(attempts)` when the node stayed
    /// unreachable through the whole retry budget.
    pub fn call_submit(&self, submit: rqfa_net::Submit) -> Result<WireReply, u32> {
        let id = submit.id;
        let class = submit.class;
        self.call(id, class, &Message::Submit(submit), |message| match message {
            Message::Reply(reply) if reply.id == id => Some(reply),
            // Stale replies (duplicated frames of earlier calls) are
            // skipped by id — never misattributed.
            _ => None,
        })
    }

    /// Applies a mutation over the wire, stamped with the caller's
    /// cluster `epoch` (the server rejects stale epochs — see the
    /// module's fencing docs); `Err(attempts)` on exhaustion.
    pub fn call_mutate(&self, epoch: u64, mutation: &CaseMutation) -> Result<MutateAck, u32> {
        // Control-plane events are traced under request id 0, class HIGH.
        self.call(
            0,
            QosClass::High,
            &Message::Mutate {
                epoch,
                mutation: mutation.clone(),
            },
            |message| match message {
                Message::MutateAck(ack) => Some(ack),
                _ => None,
            },
        )
    }

    /// Probes the node's liveness: sends a heartbeat carrying `node`
    /// and returns the server's echo (fence epoch + shard-0
    /// generation); `Err(attempts)` when the node stayed unreachable.
    pub fn call_heartbeat(&self, node: u16) -> Result<Heartbeat, u32> {
        let probe = Heartbeat {
            node,
            epoch: 0,
            generation: 0,
        };
        self.call(
            u64::from(node),
            QosClass::Critical,
            &Message::Heartbeat(probe),
            |message| match message {
                Message::Heartbeat(echo) => Some(echo),
                _ => None,
            },
        )
    }

    /// One request/response exchange under the retry discipline.
    fn call<T>(
        &self,
        trace_id: u64,
        class: QosClass,
        message: &Message,
        matcher: impl Fn(Message) -> Option<T>,
    ) -> Result<T, u32> {
        // Degradation ladder, rung one: an open breaker fails the call
        // *before* any transport work. Attempt count 0 distinguishes
        // the fast-fail from a genuinely exhausted retry budget.
        if let Some(breaker) = &self.breaker {
            if !breaker.admit() {
                return Err(0);
            }
        }
        let mut guard = self
            .conn
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for attempt in 0..self.policy.attempts {
            if attempt > 0 {
                self.stats.on_retry();
                self.record(trace_id, class, EventKind::FrameRetried, u64::from(attempt));
                std::thread::sleep(self.policy.backoff(attempt));
            }
            let mut conn = match guard.take() {
                Some(conn) => conn,
                None => match (self.factory)() {
                    Ok(stream) => FrameConn::new(stream),
                    Err(_) => continue,
                },
            };
            match conn.send(message) {
                Ok(bytes) => {
                    self.stats.on_sent(bytes);
                    // `arg` is the frame's payload size in words (frame
                    // minus 3 header and 2 trailer words).
                    self.record(
                        trace_id,
                        class,
                        EventKind::FrameSent,
                        (bytes as u64 / 2).saturating_sub(5),
                    );
                }
                Err(error) => {
                    self.note_failure(trace_id, class, attempt, &error);
                    continue;
                }
            }
            loop {
                match conn.recv() {
                    Ok((reply, bytes)) => {
                        self.stats.on_received(bytes);
                        self.record(
                            trace_id,
                            class,
                            EventKind::FrameReceived,
                            (bytes as u64 / 2).saturating_sub(5),
                        );
                        if let Some(value) = matcher(reply) {
                            *guard = Some(conn);
                            if let Some(breaker) = &self.breaker {
                                breaker.on_success();
                            }
                            return Ok(value);
                        }
                    }
                    Err(error) => {
                        self.note_failure(trace_id, class, attempt, &error);
                        break;
                    }
                }
            }
        }
        // One exhausted call = one breaker failure (not one per
        // attempt): the retry budget already oversamples the node.
        if let Some(breaker) = &self.breaker {
            breaker.on_failure();
        }
        Err(self.policy.attempts)
    }

    fn note_failure(&self, trace_id: u64, class: QosClass, attempt: u32, error: &NetError) {
        if matches!(error, NetError::Timeout) {
            self.stats.on_timeout();
            self.record(
                trace_id,
                class,
                EventKind::FrameTimedOut,
                u64::from(attempt + 1),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Cluster front-end
// ---------------------------------------------------------------------------

/// Routes requests and mutations across a cluster by asking a
/// [`Placement`] where each function type's shard lives, then calling
/// the local service or the owning node's [`RemoteShard`].
///
/// Ids are assigned by the client (sequential from 0), so a cluster's
/// reply stream is directly comparable to a single-node oracle fed the
/// same requests in the same order.
pub struct ClusterClient {
    placement: Box<dyn Placement>,
    local: Option<Arc<AllocationService>>,
    remotes: RwLock<HashMap<NodeId, Arc<RemoteShard>>>,
    /// The cluster epoch: bumped by every promotion, stamped on every
    /// mutation so a fenced node can reject a stale leader's writes.
    epoch: AtomicU64,
    next_id: AtomicU64,
}

impl ClusterClient {
    /// A client over `placement`. `local` serves the
    /// [`ShardSite::Local`] sites (pass `None` for a placement that is
    /// fully remote). The cluster epoch starts at 1 (epoch 0 is the
    /// "never promoted" floor every node server is born fenced at).
    pub fn new(
        placement: Box<dyn Placement>,
        local: Option<Arc<AllocationService>>,
    ) -> ClusterClient {
        ClusterClient {
            placement,
            local,
            remotes: RwLock::new(HashMap::new()),
            epoch: AtomicU64::new(1),
            next_id: AtomicU64::new(0),
        }
    }

    /// Registers the client of node `node`. Replaces any previous client
    /// for that node — the failover path points a node id at its promoted
    /// replacement with exactly this call (`&self`, so a supervisor can
    /// repoint placement while submitters hold the client).
    pub fn set_node(&self, node: NodeId, shard: RemoteShard) {
        self.remotes
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(node, Arc::new(shard));
    }

    /// The client of node `node`, if one is registered.
    pub fn remote(&self, node: NodeId) -> Option<Arc<RemoteShard>> {
        self.remotes
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(&node)
            .cloned()
    }

    /// Every node id with a registered client, ascending.
    pub fn node_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self
            .remotes
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .keys()
            .copied()
            .collect();
        ids.sort_unstable_by_key(|node| node.raw());
        ids
    }

    /// The current cluster epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Advances the cluster epoch (one promotion = one bump), returning
    /// the new value. Mutations sent after the bump carry it, fencing
    /// out any leader deposed by the promotion.
    pub fn bump_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Submits a request, blocking until its reply (remote hops resolve
    /// within the bounded retry budget, so this never hangs).
    ///
    /// # Panics
    ///
    /// Panics if the placement routes to a local site with no local
    /// service, or to a node never registered with
    /// [`ClusterClient::set_node`] — both are wiring errors, not runtime
    /// conditions.
    pub fn submit(&self, request: Request, class: QosClass) -> Reply {
        self.submit_inner(request, class, None)
    }

    /// Submits a request with an explicit relative deadline.
    ///
    /// # Panics
    ///
    /// As [`ClusterClient::submit`].
    pub fn submit_with_deadline(
        &self,
        request: Request,
        class: QosClass,
        deadline: Duration,
    ) -> Reply {
        #[allow(clippy::cast_possible_truncation)]
        self.submit_inner(request, class, Some(deadline.as_micros() as u64))
    }

    fn submit_inner(&self, request: Request, class: QosClass, deadline_us: Option<u64>) -> Reply {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        match self.placement.site(request.type_id()) {
            ShardSite::Local { .. } => {
                let service = self
                    .local
                    .as_ref()
                    .expect("placement routed to a local site but no local service is attached");
                let ticket = match deadline_us {
                    Some(us) => {
                        service.submit_with_deadline(request, class, Duration::from_micros(us))
                    }
                    None => service.submit(request, class),
                };
                let mut reply = ticket.wait().expect("local service answered");
                // The local service numbers its own requests; the cluster
                // reply carries the *cluster* id.
                reply.id = id;
                reply
            }
            ShardSite::Remote { node, .. } => {
                // Clone the Arc out of the lock before the (blocking)
                // call so a concurrent failover's `set_node` never
                // waits on a submitter's retry budget.
                let remote = self
                    .remote(node)
                    .unwrap_or_else(|| panic!("no client registered for {node}"));
                let submit = rqfa_net::Submit {
                    id,
                    class,
                    deadline_us,
                    request,
                };
                match remote.call_submit(submit) {
                    Ok(reply) => Reply {
                        id: reply.id,
                        class: reply.class,
                        outcome: outcome_from_wire(reply.outcome),
                        latency_us: reply.latency_us,
                    },
                    Err(attempts) => Reply {
                        id,
                        class,
                        outcome: Outcome::Unavailable { attempts },
                        latency_us: 0,
                    },
                }
            }
        }
    }

    /// Applies a mutation on the owning shard's site, returning the
    /// owning shard's generation after the apply.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Remote`] when the owning node rejected the
    /// mutation or stayed unreachable through the retry budget; local
    /// sites fail as the in-process API does.
    ///
    /// # Panics
    ///
    /// As [`ClusterClient::submit`] for wiring errors.
    pub fn apply_mutation(&self, mutation: &CaseMutation) -> Result<Generation, ServiceError> {
        match self.placement.site(mutation.type_id()) {
            ShardSite::Local { shard } => {
                let service = self
                    .local
                    .as_ref()
                    .expect("placement routed to a local site but no local service is attached");
                service.apply_mutation(mutation)?;
                Ok(service.shard_generation(shard))
            }
            ShardSite::Remote { node, .. } => {
                let remote = self
                    .remote(node)
                    .unwrap_or_else(|| panic!("no client registered for {node}"));
                match remote.call_mutate(self.epoch(), mutation) {
                    Ok(MutateAck { error: None, generation }) => {
                        Ok(Generation::from_raw(generation))
                    }
                    Ok(MutateAck {
                        error: Some(message),
                        ..
                    }) => Err(ServiceError::Remote(message)),
                    Err(attempts) => Err(ServiceError::Remote(format!(
                        "{node} unreachable after {attempts} attempt(s)"
                    ))),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Supervision
// ---------------------------------------------------------------------------

/// A node's promotion hook: given the new cluster epoch, promote the
/// node's follower, spawn a replacement server fenced at that epoch
/// (see [`NodeServer::spawn_fenced`]) and return the client of the
/// replacement. Restoring redundancy (re-seeding a fresh follower via
/// [`replicate_shard`]) is also this hook's contract — the supervisor
/// only decides *when*.
pub type PromoteFn = Box<dyn FnMut(u64) -> Result<RemoteShard, ServiceError> + Send>;

/// One supervision decision, as reported by [`Supervisor::tick`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorEvent {
    /// The node answered its heartbeat probe; its lease was renewed.
    Beat {
        /// The probed node.
        node: NodeId,
    },
    /// The node's lease decayed to [`Liveness::Down`] and its standby
    /// was promoted under the new cluster epoch.
    Promoted {
        /// The replaced node.
        node: NodeId,
        /// The cluster epoch the promotion established.
        epoch: u64,
    },
    /// The node is down but promotion failed (or no standby is
    /// registered); the supervisor retries next tick.
    PromotionFailed {
        /// The down node.
        node: NodeId,
        /// Why the promotion hook failed.
        error: String,
    },
}

/// The supervision loop: probes every registered node each
/// [`tick`](Supervisor::tick), feeds the answers to a
/// [`FailureDetector`], and on a `Down` verdict executes the fenced
/// failover — bump the [`ClusterClient`] epoch, run the node's
/// [`PromoteFn`], repoint placement with [`ClusterClient::set_node`].
///
/// The supervisor owns no threads and reads no wall clock: the harness
/// (or a production pacer) calls `tick` at its chosen cadence, and all
/// lease arithmetic flows through the detector's injected
/// [`rqfa_telemetry::Clock`] — which is what makes the chaos tests in
/// `tests/distributed.rs` deterministic.
pub struct Supervisor {
    client: Arc<ClusterClient>,
    detector: Arc<FailureDetector>,
    standbys: HashMap<NodeId, PromoteFn>,
    recorder: Option<Arc<FlightRecorder>>,
    clock: Option<(SharedClock, Instant)>,
}

impl Supervisor {
    /// A supervisor over `client`, judging liveness with `detector`.
    /// Nodes are discovered from the client's registry each tick;
    /// failover requires a standby registered via
    /// [`Supervisor::register_standby`].
    pub fn new(client: Arc<ClusterClient>, detector: Arc<FailureDetector>) -> Supervisor {
        Supervisor {
            client,
            detector,
            standbys: HashMap::new(),
            recorder: None,
            clock: None,
        }
    }

    /// Arms flight recording: promotions land in `recorder` as
    /// [`EventKind::NodePromoted`] stamped by `clock` (µs since this
    /// call), with the node id in the request-id field and the new
    /// epoch as the argument.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Arc<FlightRecorder>, clock: SharedClock) -> Supervisor {
        let epoch = clock.now();
        self.recorder = Some(recorder);
        self.clock = Some((clock, epoch));
        self
    }

    /// Registers `promote` as node `node`'s failover hook. One standby
    /// per node; registering again replaces the hook.
    pub fn register_standby(&mut self, node: NodeId, promote: PromoteFn) {
        self.standbys.insert(node, promote);
    }

    /// This supervisor's failure detector.
    pub fn detector(&self) -> Arc<FailureDetector> {
        Arc::clone(&self.detector)
    }

    /// One supervision round: probe every registered node, renew leases
    /// for the ones that answer, and run the fenced failover for any
    /// whose lease has decayed to `Down`. Returns what happened, in
    /// node-id order.
    pub fn tick(&mut self) -> Vec<SupervisorEvent> {
        let mut events = Vec::new();
        for node in self.client.node_ids() {
            let Some(remote) = self.client.remote(node) else {
                continue;
            };
            let node_u16 = node.raw();
            if remote.call_heartbeat(node_u16).is_ok() {
                self.detector.beat(node_u16);
                events.push(SupervisorEvent::Beat { node });
                continue;
            }
            // Probe failed: let the *lease* decide. A single missed
            // probe inside the lease window is noise, not a failure —
            // this is the no-false-promotion invariant.
            if self.detector.assess(node_u16) != Liveness::Down {
                continue;
            }
            events.push(self.fail_over(node, node_u16));
        }
        events
    }

    fn fail_over(&mut self, node: NodeId, node_u16: u16) -> SupervisorEvent {
        let Some(mut promote) = self.standbys.remove(&node) else {
            return SupervisorEvent::PromotionFailed {
                node,
                error: format!("no standby registered for {node}"),
            };
        };
        // The epoch bump happens *before* the promotion runs, so the
        // replacement server is born fenced at the new epoch and the
        // deposed leader's clients are stale from this instant.
        let epoch = self.client.bump_epoch();
        match promote(epoch) {
            Ok(replacement) => {
                self.client.set_node(node, replacement);
                // The promoted node is alive by construction: reset its
                // lease so the next tick judges the replacement, not
                // the corpse.
                self.detector.beat(node_u16);
                if let (Some(recorder), Some((clock, since))) = (&self.recorder, &self.clock) {
                    recorder.record(
                        micros_between(*since, clock.now()),
                        u64::from(node_u16),
                        0,
                        EventKind::NodePromoted,
                        epoch,
                    );
                }
                SupervisorEvent::Promoted { node, epoch }
            }
            Err(error) => {
                // Put the hook back for a retry next tick. The epoch
                // bump is *not* rolled back: epochs only move forward.
                self.standbys.insert(node, promote);
                SupervisorEvent::PromotionFailed {
                    node,
                    error: error.to_string(),
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Replication
// ---------------------------------------------------------------------------

/// Leader side of one replication round: ships shard `shard`'s snapshot
/// container in `chunk_words`-sized windows, awaits the follower's
/// install ack, then streams the WAL tail frame by frame, awaiting an
/// ack per record. Returns the generation the follower reached.
///
/// # Errors
///
/// [`ServiceError::Remote`] when the stream dies or the follower
/// misacknowledges (the caller re-ships after a
/// [`Follower::reset`]); the shard-export errors of
/// [`AllocationService::export_shard_snapshot`].
pub fn replicate_shard<S: Read + Write>(
    service: &AllocationService,
    shard: usize,
    conn: &mut FrameConn<S>,
    chunk_words: usize,
) -> Result<Generation, ServiceError> {
    let (container, generation) = service.export_shard_snapshot(shard)?;
    let messages = snapshot_stream(&container, generation, chunk_words).map_err(net_err)?;
    for message in &messages {
        conn.send(message).map_err(net_err)?;
    }
    expect_ack(conn, generation.raw())?;
    let mut reached = generation;
    for stamped in service.shard_wal_tail(shard, generation)? {
        let stamp = stamped.generation;
        conn.send(&Message::TailFrame(stamped)).map_err(net_err)?;
        expect_ack(conn, stamp.raw())?;
        reached = stamp;
    }
    Ok(reached)
}

fn expect_ack<S: Read + Write>(conn: &mut FrameConn<S>, want: u64) -> Result<(), ServiceError> {
    match conn.recv() {
        Ok((Message::TailAck(TailAck { generation }), _)) if generation == want => Ok(()),
        Ok((other, _)) => Err(ServiceError::Remote(format!(
            "unexpected replication response: {other:?}"
        ))),
        Err(error) => Err(ServiceError::Remote(format!(
            "replication stream failed: {error}"
        ))),
    }
}

/// Follower side of a replication stream: feeds every received message
/// through the [`Follower`] state machine and acknowledges installs and
/// applies with the follower's generation. Returns cleanly when the
/// leader closes (or tears) the stream — the follower keeps whatever
/// consistent prefix it reached, ready for another round or promotion.
///
/// # Errors
///
/// [`ServiceError::Remote`] on protocol violations (chunk gaps,
/// generation gaps, corrupt containers) — the caller should
/// [`Follower::reset`] and request a fresh ship.
pub fn serve_follower<S: Read + Write>(
    conn: &mut FrameConn<S>,
    follower: &mut Follower,
) -> Result<(), ServiceError> {
    loop {
        let message = match conn.recv() {
            Ok((message, _bytes)) => message,
            // Stream end (leader done or killed): keep the prefix.
            Err(NetError::Truncated | NetError::Timeout) => return Ok(()),
            Err(error) => return Err(net_err(error)),
        };
        match follower.ingest(&message).map_err(net_err)? {
            FollowerEvent::Progress => {}
            FollowerEvent::Installed { generation } | FollowerEvent::Applied { generation } => {
                conn.send(&Message::TailAck(TailAck {
                    generation: generation.raw(),
                }))
                .map_err(net_err)?;
            }
            FollowerEvent::Ignored => {
                // Duplicate tail frame: re-ack the current generation so
                // the leader's per-record handshake still advances.
                let generation = follower.generation().map_or(0, Generation::raw);
                conn.send(&Message::TailAck(TailAck { generation }))
                    .map_err(net_err)?;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqfa_core::{paper, TypeId};
    use rqfa_net::WireOutcome;

    #[test]
    fn outcomes_convert_losslessly_both_ways() {
        let outcomes = vec![
            Outcome::ShedQueueFull,
            Outcome::ShedDeadline,
            Outcome::Failed(rqfa_core::CoreError::UnknownType {
                type_id: TypeId::new(9).unwrap(),
            }),
            Outcome::Unavailable { attempts: 3 },
            Outcome::ShedPredicted { late_us: 1_250 },
        ];
        for outcome in outcomes {
            let wire = outcome_to_wire(&outcome).unwrap();
            assert_eq!(outcome_from_wire(wire), outcome);
        }
    }

    #[test]
    fn allocated_evaluated_counts_survive_the_round_trip() {
        let wire = WireOutcome::Allocated {
            best: rqfa_core::Scored {
                impl_id: rqfa_core::ImplId::new(4).unwrap(),
                target: rqfa_core::ExecutionTarget::Dsp,
                similarity: rqfa_fixed::Q15::ONE,
            },
            evaluated: 123,
            cached: true,
        };
        let outcome = outcome_from_wire(wire.clone());
        assert_eq!(outcome_to_wire(&outcome).unwrap(), wire);
    }

    #[test]
    fn node_server_answers_the_paper_request_over_tcp() {
        let service = Arc::new(
            AllocationService::new(
                &paper::table1_case_base(),
                &crate::ServiceConfig::default().with_shards(2),
            )
            .expect("valid service config"),
        );
        let server = NodeServer::spawn(Arc::clone(&service)).unwrap();
        let remote = RemoteShard::tcp(
            server.addr(),
            Duration::from_millis(500),
            RetryPolicy::loopback(),
        );
        let reply = remote
            .call_submit(rqfa_net::Submit {
                id: 41,
                class: QosClass::High,
                deadline_us: None,
                request: paper::table1_request().unwrap(),
            })
            .unwrap();
        assert_eq!(reply.id, 41);
        match reply.outcome {
            WireOutcome::Allocated { best, .. } => assert_eq!(best.impl_id, paper::IMPL_DSP),
            other => panic!("unexpected outcome: {other:?}"),
        }
        let stats = remote.stats();
        assert_eq!(stats.frames_sent.load(Ordering::Relaxed), 1);
        assert_eq!(stats.frames_received.load(Ordering::Relaxed), 1);
        server.shutdown();
        // A killed node degrades into a bounded Unavailable, not a hang.
        let after = remote.call_submit(rqfa_net::Submit {
            id: 42,
            class: QosClass::High,
            deadline_us: None,
            request: paper::table1_request().unwrap(),
        });
        assert_eq!(after, Err(RetryPolicy::loopback().attempts));
        if let Some(service) = Arc::into_inner(service) {
            service.shutdown();
        }
    }

    #[test]
    fn breaker_fast_fails_and_recovers_via_half_open() {
        let service = Arc::new(
            AllocationService::new(
                &paper::table1_case_base(),
                &crate::ServiceConfig::default().with_shards(1),
            )
            .expect("valid service config"),
        );
        let server = NodeServer::spawn(Arc::clone(&service)).unwrap();
        let addr = server.addr();
        // A severable link: while `cut`, every (re)connection attempt
        // fails before touching the live server.
        let cut = Arc::new(AtomicBool::new(true));
        let cut_in_factory = Arc::clone(&cut);
        let clock = Arc::new(rqfa_telemetry::ManualClock::new());
        let breaker = Arc::new(CircuitBreaker::new(
            Arc::clone(&clock) as SharedClock,
            0,
            2,
            1_000,
        ));
        let remote = RemoteShard::new(
            Box::new(move || {
                if cut_in_factory.load(Ordering::SeqCst) {
                    return Err(NetError::Timeout);
                }
                connect_loopback(addr, Duration::from_millis(500))
                    .map(|stream| Box::new(stream) as Box<dyn RemoteStream>)
            }),
            RetryPolicy {
                attempts: 1,
                base_backoff: Duration::from_micros(1),
                jitter_seed: 0,
            },
        )
        .with_breaker(Arc::clone(&breaker));
        let submit = |id| rqfa_net::Submit {
            id,
            class: QosClass::High,
            deadline_us: None,
            request: paper::table1_request().unwrap(),
        };
        // Two exhausted calls trip the threshold-2 breaker.
        assert_eq!(remote.call_submit(submit(0)), Err(1));
        assert_eq!(remote.call_submit(submit(1)), Err(1));
        assert_eq!(breaker.opens(), 1);
        // Open: the next call fails fast — attempt count 0 and zero
        // transport work, not a burned retry budget.
        assert_eq!(remote.call_submit(submit(2)), Err(0));
        assert_eq!(breaker.fast_fails(), 1);
        assert_eq!(remote.stats().frames_sent.load(Ordering::Relaxed), 0);
        // After the cooldown the single half-open probe re-closes it.
        clock.advance_us(1_000);
        cut.store(false, Ordering::SeqCst);
        let reply = remote.call_submit(submit(3)).expect("probe call lands");
        assert_eq!(reply.id, 3);
        assert_eq!(breaker.state(), rqfa_net::BreakerState::Closed);
        assert_eq!(remote.call_submit(submit(4)).expect("closed again").id, 4);
        server.shutdown();
        if let Some(service) = Arc::into_inner(service) {
            service.shutdown();
        }
    }

    #[test]
    fn remote_mutations_apply_once_and_report_generations() {
        let service = Arc::new(
            AllocationService::new(
                &paper::table1_case_base(),
                &crate::ServiceConfig::default().with_shards(1),
            )
            .expect("valid service config"),
        );
        let server = NodeServer::spawn(Arc::clone(&service)).unwrap();
        let remote = RemoteShard::tcp(
            server.addr(),
            Duration::from_millis(100),
            RetryPolicy::loopback(),
        );
        let evict = CaseMutation::Evict {
            type_id: paper::FIR_EQUALIZER,
            impl_id: paper::IMPL_GP,
        };
        let ack = remote.call_mutate(1, &evict).unwrap();
        assert_eq!(ack, MutateAck { generation: 1, error: None });
        // The same eviction again looks like a transport duplicate on
        // this connection, so the server swallows it; the client times
        // out, reconnects, and the re-sent call is then applied — where
        // it fails (already evicted) and reports the remote error.
        let again = remote.call_mutate(1, &evict).unwrap();
        assert!(again.error.is_some());
        assert!(remote.stats().retries.load(Ordering::Relaxed) >= 1);
        assert_eq!(service.shard_generation(0).raw(), 1);
        server.shutdown();
        if let Some(service) = Arc::into_inner(service) {
            service.shutdown();
        }
    }

    #[test]
    fn connection_threads_stay_bounded_by_live_connections() {
        // Each accept reaps the connections closed before it, so after a
        // connect/disconnect storm only live connections stay tracked.
        let service = Arc::new(
            AllocationService::new(&paper::table1_case_base(), &crate::ServiceConfig::default())
                .expect("valid service config"),
        );
        let server = NodeServer::spawn(Arc::clone(&service)).unwrap();
        let tracked = || {
            server
                .conn_threads
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .len()
        };
        let connect = || std::net::TcpStream::connect(server.addr()).unwrap();
        // A probe's full round trip proves the server accepted it, and so
        // every connection queued before it; its accept reaps every
        // connection already closed, leaving the live ones plus the probe.
        let probe = || {
            let remote = RemoteShard::tcp(
                server.addr(),
                Duration::from_millis(500),
                RetryPolicy::loopback(),
            );
            let submit = rqfa_net::Submit {
                id: 0,
                class: QosClass::High,
                deadline_us: None,
                request: paper::table1_request().unwrap(),
            };
            remote.call_submit(submit).expect("probe answered");
        };
        let live = [connect(), connect()];
        for _ in 0..64 {
            drop(connect());
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            probe();
            std::thread::sleep(Duration::from_millis(20));
            if tracked() <= live.len() + 1 || std::time::Instant::now() > deadline {
                break;
            }
        }
        assert!(
            tracked() <= live.len() + 1,
            "{} connection threads tracked for {} live connections",
            tracked(),
            live.len()
        );
        drop(live);
        server.shutdown();
        if let Some(service) = Arc::into_inner(service) {
            service.shutdown();
        }
    }
}
