//! The sharded case-base store and its worker threads.
//!
//! Function types are partitioned across N shards by `TypeId` (modulo N —
//! type ids are dense in practice, so the spread is even). Each shard owns
//! a private [`CaseBase`] slice behind a mutex, a private
//! [`RetrievalCache`], a [`ClassQueue`] and one worker thread running a
//! [`PlaneEngine`]. Because retrieval only ever touches the requested
//! type's subtree, a shard answers exactly as the single big engine would
//! over the merged case base — sharding changes *where* a request runs,
//! never *what* it answers (the integration suite asserts this).
//!
//! Mutations (retain/revise/evict) lock the owning shard's case base
//! directly; the bumped generation counter invalidates that shard's cache
//! on the workers' next lookup. A *durable* shard additionally owns a
//! [`DurableCaseBase`] — its write-ahead log is appended under the same
//! lock before the mutation is acknowledged, so the log can never run
//! behind the state the workers serve from.
//!
//! Checkpoints (snapshot + log compaction) run in **two phases** so their
//! I/O never stalls the shard's retrievals: phase 1 clones the state and
//! checks the stale snapshot slot out under the store lock (cheap), the
//! snapshot write then runs with the lock *released*, and phase 2
//! re-locks only to reinstall the slot and trim the already-snapshotted
//! log prefix (bounded read + atomic replace). A per-shard checkpoint
//! mutex serializes checkpoints against each other — never against
//! retrievals; automatic checkpoints triggered by the mutation cadence
//! simply skip a beat when one is already in flight.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use rqfa_core::{CaseBase, CaseMutation, CoreError, Generation, PlaneEngine, Retrieval, TypeId};
use rqfa_fixed::Q15;
use rqfa_persist::{DurableCaseBase, FileStore, PendingCheckpoint, PersistError, WrittenCheckpoint};
use rqfa_telemetry::{clock::micros_between, EventKind, FlightRecorder, SharedClock, TraceDump};

use crate::cache::{CacheLookup, RetrievalCache};
use crate::error::ServiceError;
use crate::metrics::{BatchDeltas, ServiceMetrics};
use crate::queue::ClassQueue;
use crate::{Job, Outcome, Reply, ServiceConfig};

/// Routes a function type to its owning shard — the service's placement
/// function, delegating to [`rqfa_core::placement::shard_index`] so every
/// layer (local workers, remote nodes, replication) agrees on ownership.
///
/// # Panics
///
/// With `shards == 0` — a shard count is validated at service
/// construction ([`ServiceError::Config`]),
/// never silently clamped here.
pub fn route(type_id: TypeId, shards: usize) -> usize {
    rqfa_core::placement::shard_index(type_id, shards)
}

/// Splits a case base into per-shard slices. Slice `i` holds every
/// function type with `route(id, n) == i`; all slices share the (cloned)
/// bounds table and inherit the source's generation — a service built
/// over a promoted replica resumes counting at the replica's generation
/// instead of rewinding to genesis. A slice may be empty (`None`) when
/// no type routes to it.
///
/// # Panics
///
/// With `shards == 0` (see [`route`]).
pub fn partition(case_base: &CaseBase, shards: usize) -> Vec<Option<CaseBase>> {
    assert!(shards > 0, "partition requires at least one shard");
    let mut buckets: Vec<Vec<rqfa_core::FunctionType>> = vec![Vec::new(); shards];
    for ty in case_base.function_types() {
        buckets[route(ty.id(), shards)].push(ty.clone());
    }
    buckets
        .into_iter()
        .map(|types| {
            if types.is_empty() {
                None
            } else {
                let mut slice = CaseBase::new(case_base.bounds().clone(), types)
                    .expect("slices of a valid case base stay valid");
                slice.restore_generation(case_base.generation());
                Some(slice)
            }
        })
        .collect()
}

/// What one shard serves retrievals from and applies mutations to.
///
/// The worker thread only ever reads [`ShardStore::case_base`]; the
/// mutation path goes through [`ShardStore::apply`], which for a durable
/// shard is write-ahead: validate + apply in memory, append to the WAL,
/// roll back if the append fails.
pub(crate) enum ShardStore {
    /// No function type routes to this shard.
    Empty,
    /// In-memory only (the pre-persistence behaviour).
    Ephemeral(CaseBase),
    /// WAL + snapshot backed.
    Durable(Box<DurableCaseBase<FileStore>>),
}

impl ShardStore {
    /// The case base served by this shard, if any.
    pub(crate) fn case_base(&self) -> Option<&CaseBase> {
        match self {
            ShardStore::Empty => None,
            ShardStore::Ephemeral(cb) => Some(cb),
            ShardStore::Durable(durable) => Some(durable.case_base()),
        }
    }

    /// The generation the cache stamps results with.
    pub(crate) fn generation(&self) -> Generation {
        self.case_base()
            .map_or(Generation::GENESIS, CaseBase::generation)
    }

    /// Applies a mutation, returning its inverse (durably for a durable
    /// shard — the mutation is in the WAL before this returns `Ok`).
    pub(crate) fn apply(&mut self, mutation: &CaseMutation) -> Result<CaseMutation, ServiceError> {
        match self {
            ShardStore::Empty => Err(ServiceError::Core(CoreError::UnknownType {
                type_id: mutation.type_id(),
            })),
            ShardStore::Ephemeral(cb) => cb.apply_mutation(mutation).map_err(ServiceError::Core),
            ShardStore::Durable(durable) => durable.apply(mutation).map_err(ServiceError::from),
        }
    }

    /// Applies a whole batch of mutations, returning their inverses in
    /// order. All-or-nothing in memory; on a durable shard the batch is
    /// one group-committed WAL append (a single fsync).
    pub(crate) fn apply_batch(
        &mut self,
        mutations: &[CaseMutation],
    ) -> Result<Vec<CaseMutation>, ServiceError> {
        let Some(first) = mutations.first() else {
            return Ok(Vec::new());
        };
        match self {
            ShardStore::Empty => Err(ServiceError::Core(CoreError::UnknownType {
                type_id: first.type_id(),
            })),
            ShardStore::Ephemeral(cb) => cb
                .apply_mutations_atomic(mutations)
                .map_err(ServiceError::Core),
            ShardStore::Durable(durable) => {
                durable.apply_batch(mutations).map_err(ServiceError::from)
            }
        }
    }

    /// Phase 1 of a checkpoint: checks the stale snapshot slot out with a
    /// clone of the state. `None` for shards with nothing to checkpoint.
    pub(crate) fn checkpoint_begin(
        &mut self,
    ) -> Result<Option<PendingCheckpoint<FileStore>>, PersistError> {
        match self {
            ShardStore::Durable(durable) => durable.checkpoint_begin().map(Some),
            _ => Ok(None),
        }
    }

    /// Phase 3 of a checkpoint: reinstalls the slot and trims the log.
    pub(crate) fn checkpoint_finish(
        &mut self,
        written: WrittenCheckpoint<FileStore>,
    ) -> Result<(), PersistError> {
        match self {
            ShardStore::Durable(durable) => durable.checkpoint_finish(written),
            _ => Ok(()),
        }
    }
}

/// One shard: queue, store, worker thread, and checkpoint cadence.
pub(crate) struct Shard {
    pub(crate) queue: Arc<ClassQueue>,
    pub(crate) store: Arc<Mutex<ShardStore>>,
    /// This shard's flight recorder (`None` = tracing disabled).
    pub(crate) recorder: Option<Arc<FlightRecorder>>,
    /// Serializes checkpoints against each other (never against the
    /// store lock — retrievals keep flowing during checkpoint I/O).
    checkpoint_lock: Mutex<()>,
    /// Acknowledged mutations since the last checkpoint *began*.
    since_checkpoint: AtomicU64,
    /// Auto-checkpoint after this many mutations (0 = manual only).
    snapshot_every: u64,
    /// Parked error of the last failed automatic checkpoint.
    checkpoint_error: Mutex<Option<PersistError>>,
    worker: Option<JoinHandle<()>>,
}

impl Shard {
    /// Spawns the shard worker over `store`. `epoch` is the service-wide
    /// zero point of trace timestamps.
    pub(crate) fn spawn(
        index: usize,
        store: ShardStore,
        config: &ServiceConfig,
        metrics: Arc<ServiceMetrics>,
        epoch: Instant,
    ) -> Shard {
        // Only durable stores have anything to checkpoint; an ephemeral
        // shard with a live cadence would pointlessly re-take the store
        // lock (held by the worker across whole batches) on every
        // mutation past the threshold.
        let snapshot_every = match store {
            ShardStore::Durable(_) => config.snapshot_every,
            _ => 0,
        };
        let recorder = (config.trace_capacity > 0)
            .then(|| Arc::new(FlightRecorder::new(config.trace_capacity)));
        let (queue, ctx) = assemble(
            config,
            Arc::clone(&metrics),
            Arc::clone(&config.clock),
            recorder.clone(),
            epoch,
        );
        let queue = Arc::new(queue);
        let store = Arc::new(Mutex::new(store));
        let worker_queue = Arc::clone(&queue);
        let worker_store = Arc::clone(&store);
        let batch_size = config.batch_size.max(1);
        let worker = std::thread::Builder::new()
            .name(format!("rqfa-shard-{index}"))
            .spawn(move || run_worker(&worker_queue, &worker_store, &metrics, batch_size, ctx))
            .expect("spawn shard worker");
        Shard {
            queue,
            store,
            recorder,
            checkpoint_lock: Mutex::new(()),
            since_checkpoint: AtomicU64::new(0),
            snapshot_every,
            checkpoint_error: Mutex::new(None),
            worker: Some(worker),
        }
    }

    /// Applies a mutation to this shard's store under its lock, returning
    /// the inverse mutation, then runs the auto-checkpoint cadence.
    pub(crate) fn apply(&self, mutation: &CaseMutation) -> Result<CaseMutation, ServiceError> {
        let inverse = self.store.lock().expect("store poisoned").apply(mutation)?;
        self.after_acknowledged(1);
        Ok(inverse)
    }

    /// Applies a batch (one group commit on a durable shard) and runs the
    /// auto-checkpoint cadence.
    pub(crate) fn apply_batch(
        &self,
        mutations: &[CaseMutation],
    ) -> Result<Vec<CaseMutation>, ServiceError> {
        let inverses = self
            .store
            .lock()
            .expect("store poisoned")
            .apply_batch(mutations)?;
        self.after_acknowledged(inverses.len() as u64);
        Ok(inverses)
    }

    /// Bumps the checkpoint debt and, when the cadence is due, runs an
    /// automatic checkpoint. A checkpoint already in flight makes this a
    /// no-op (the debt keeps accumulating and re-triggers); a failed
    /// automatic checkpoint parks its error for
    /// [`Shard::take_checkpoint_error`] instead of failing the apply —
    /// the mutation itself is already durable in the WAL.
    fn after_acknowledged(&self, count: u64) {
        if self.snapshot_every == 0 || count == 0 {
            return;
        }
        let due = self.since_checkpoint.fetch_add(count, Ordering::Relaxed) + count;
        if due < self.snapshot_every {
            return;
        }
        let Ok(guard) = self.checkpoint_lock.try_lock() else {
            return; // one is in flight; it will absorb this debt
        };
        if let Err(e) = self.checkpoint_locked() {
            *self.checkpoint_error.lock().expect("error slot poisoned") = Some(e);
        }
        drop(guard);
    }

    /// Forces a checkpoint on this shard's store (durable shards only).
    pub(crate) fn checkpoint(&self) -> Result<(), PersistError> {
        let _guard = self.checkpoint_lock.lock().expect("checkpoint poisoned");
        self.checkpoint_locked()
    }

    /// The two-phase checkpoint body. Caller holds `checkpoint_lock`;
    /// the store lock is only taken for the cheap begin/finish phases,
    /// so retrievals and mutations keep flowing during the snapshot
    /// write.
    fn checkpoint_locked(&self) -> Result<(), PersistError> {
        let (pending, counted) = {
            let mut store = self.store.lock().expect("store poisoned");
            match store.checkpoint_begin()? {
                Some(pending) => (pending, self.since_checkpoint.load(Ordering::Relaxed)),
                None => return Ok(()), // nothing durable to checkpoint
            }
        };
        let written = pending.write(); // the expensive I/O — off-lock
        let result = self
            .store
            .lock()
            .expect("store poisoned")
            .checkpoint_finish(written);
        if result.is_ok() {
            // Only the debt captured at begin is paid off — mutations
            // acknowledged during the write are the *next* checkpoint's
            // debt. A failed checkpoint keeps the full debt, so the next
            // mutation retries instead of waiting out another interval.
            self.since_checkpoint.fetch_sub(counted, Ordering::Relaxed);
        }
        result
    }

    /// Drains this shard's parked automatic-checkpoint error, if any.
    pub(crate) fn take_checkpoint_error(&self) -> Option<PersistError> {
        self.checkpoint_error
            .lock()
            .expect("error slot poisoned")
            .take()
    }

    /// The durable store's write-path counters (`None` for ephemeral and
    /// empty shards). The returned block reads lock-free afterwards.
    pub(crate) fn persist_stats(&self) -> Option<Arc<rqfa_persist::PersistStats>> {
        match &*self.store.lock().expect("store poisoned") {
            ShardStore::Durable(durable) => Some(durable.stats()),
            _ => None,
        }
    }

    /// Exports this durable shard's snapshot container (the replication
    /// transfer unit) together with the generation it captures. The
    /// store lock is held only for the in-memory encode.
    pub(crate) fn export_snapshot(&self) -> Result<(Vec<u8>, Generation), ServiceError> {
        match &*self.store.lock().expect("store poisoned") {
            ShardStore::Durable(durable) => {
                let bytes = durable.export_snapshot()?;
                Ok((bytes, durable.generation()))
            }
            _ => Err(ServiceError::Remote(
                "only durable shards replicate (no WAL to stream)".into(),
            )),
        }
    }

    /// This durable shard's WAL records newer than `through` — the tail a
    /// leader streams to a follower holding a snapshot at `through`.
    pub(crate) fn wal_tail(
        &self,
        through: Generation,
    ) -> Result<Vec<rqfa_persist::StampedMutation>, ServiceError> {
        match &*self.store.lock().expect("store poisoned") {
            ShardStore::Durable(durable) => Ok(durable.wal_tail(through)?),
            _ => Err(ServiceError::Remote(
                "only durable shards replicate (no WAL to stream)".into(),
            )),
        }
    }

    /// The generation of this shard's served case base.
    pub(crate) fn generation(&self) -> Generation {
        self.store.lock().expect("store poisoned").generation()
    }

    /// Signals shutdown and joins the worker, draining queued jobs first.
    pub(crate) fn join(&mut self) {
        self.queue.shutdown();
        if let Some(handle) = self.worker.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        self.join();
    }
}

/// The reusable per-worker state of the retrieval hot path: the compiled
/// plane engine (scratch arena + plane, recompiled on generation change),
/// the shard's result cache, and the batch-local coalescing buffers.
///
/// Everything here is sized by the first few batches and reused after, so
/// the steady-state engine path allocates nothing per request (the
/// per-batch job vectors from the queue are the only churn).
pub(crate) struct WorkerContext {
    engine: PlaneEngine,
    cache: RetrievalCache,
    /// Engine results of the current batch's leaders, reused.
    results: Vec<Result<Retrieval<Q15>, CoreError>>,
    /// Batch-local map: fingerprint → leader index in `pending`.
    seen: HashMap<u64, usize>,
    /// Coalesced within-batch duplicates: `(leader index, job)`.
    followers: Vec<(usize, Job)>,
    /// Injected time source (stamps batches and latencies).
    clock: SharedClock,
    /// Zero point of trace timestamps.
    epoch: Instant,
    /// Flight recorder for pipeline events (`None` = tracing off).
    recorder: Option<Arc<FlightRecorder>>,
    /// The current batch's outcome deltas, committed batch-atomically.
    deltas: BatchDeltas,
}

/// Builds one shard's queue and worker context from `config`: the one
/// assembly the live shard, the replay driver and the batch harness
/// share. The time source, flight recorder and trace `epoch` are
/// arguments rather than read from `config`, because the replay runs a
/// private manual clock and one recorder shared by all its shards.
pub(crate) fn assemble(
    config: &ServiceConfig,
    metrics: Arc<ServiceMetrics>,
    clock: SharedClock,
    recorder: Option<Arc<FlightRecorder>>,
    epoch: Instant,
) -> (ClassQueue, WorkerContext) {
    let queue = ClassQueue::new(
        config.queue_capacity,
        config.arbiter(),
        config.scheduling,
        config.promotion_margin_us,
        metrics,
    )
    .with_telemetry(Arc::clone(&clock), recorder.clone(), epoch)
    .with_predictive_shed(config.predictive_shed);
    let ctx = WorkerContext {
        engine: PlaneEngine::with_kernel(config.kernel_path),
        cache: RetrievalCache::with_policy(
            config.cache_capacity,
            config.cache_policy,
            config.cache_admission,
        ),
        results: Vec::new(),
        seen: HashMap::new(),
        followers: Vec::new(),
        clock,
        epoch,
        recorder,
        deltas: BatchDeltas::default(),
    };
    (queue, ctx)
}

/// The worker loop: pop a batch, process it against the (locked) store,
/// and feed the measured service time (store-lock wait included — it is
/// part of what the next lane head will wait out) back to the queue's
/// estimator. Under a frozen [`ManualClock`]
/// (`rqfa_telemetry::ManualClock`) every measurement is 0, so the
/// estimator stays cold and the scheduler keeps its configured margins —
/// deterministic tests see the historical behaviour.
fn run_worker(
    queue: &ClassQueue,
    store: &Mutex<ShardStore>,
    metrics: &ServiceMetrics,
    batch_size: usize,
    mut ctx: WorkerContext,
) {
    while let Some(batch) = queue.pop_batch(batch_size) {
        if batch.is_empty() {
            continue;
        }
        let served = batch.len();
        let started = ctx.clock.now();
        let store = store.lock().expect("store poisoned");
        process_batch(batch, &store, metrics, &mut ctx);
        drop(store);
        queue
            .estimator()
            .observe(micros_between(started, ctx.clock.now()), served);
    }
}

/// One batch's trace stamp: the recorder (if tracing) plus the batch
/// timestamp every event of this batch carries.
struct BatchTrace<'a> {
    at_us: u64,
    recorder: Option<&'a FlightRecorder>,
}

impl BatchTrace<'_> {
    fn record(&self, job: &Job, kind: EventKind, arg: u64) {
        if let Some(recorder) = self.recorder {
            recorder.record(self.at_us, job.id, job.class.index() as u8, kind, arg);
        }
    }
}

/// Processes one dispatched batch: shed expired jobs, answer cache hits,
/// **coalesce within-batch duplicates**, run the remaining *leaders*
/// through the plane kernel's batch API, fan replies out, repeat.
///
/// Coalescing: identical fingerprints inside one batch are scored once.
/// The first miss becomes the *leader* (counted as one cache miss); every
/// later duplicate becomes a *follower* that skips the cache probe and
/// the engine entirely and is served a copy of the leader's result,
/// counted — and flagged in its reply — as a cache hit. The admission
/// filter is told about each coalesced repeat
/// ([`RetrievalCache::note_repeat`]) so the leader's insert is not
/// bounced as a one-hit wonder. Normative semantics: `docs/retrieval.md`.
pub(crate) fn process_batch(
    batch: Vec<Job>,
    store: &ShardStore,
    metrics: &ServiceMetrics,
    ctx: &mut WorkerContext,
) {
    metrics.batches.fetch_add(1, Ordering::Relaxed);
    metrics
        .batched_requests
        .fetch_add(batch.len() as u64, Ordering::Relaxed);
    // One clock read stamps the whole batch: dispatch events, deadline
    // checks and reply latencies all see the same `now`, which keeps a
    // manual-clock replay exactly reproducible.
    let now = ctx.clock.now();
    let trace = BatchTrace {
        at_us: micros_between(ctx.epoch, now),
        recorder: ctx.recorder.as_deref(),
    };
    let generation = store.generation();

    // Pass 1: deadline shedding, cache lookups, duplicate coalescing.
    // Leaders keep their pass-1 fingerprint so the insert in pass 2 does
    // not re-hash the constraint list.
    let mut pending: Vec<(u64, Job)> = Vec::with_capacity(batch.len());
    ctx.seen.clear();
    for job in batch {
        trace.record(&job, EventKind::Dispatched, 0);
        let waited_us = micros_between(job.enqueued_at, now);
        if let Some(deadline) = job.deadline {
            if job.class.sheddable() && now > deadline {
                ctx.deltas.class(job.class).shed_deadline += 1;
                trace.record(&job, EventKind::ShedDeadline, 0);
                job.reply(Outcome::ShedDeadline, waited_us, metrics);
                continue;
            }
        }
        let fingerprint = job.request.fingerprint();
        if let Some(&leader) = ctx.seen.get(&fingerprint) {
            // Within-batch duplicate: one computation will serve it.
            ctx.cache.note_repeat(fingerprint);
            ctx.followers.push((leader, job));
            continue;
        }
        match ctx.cache.lookup_outcome(fingerprint, generation) {
            CacheLookup::Hit(hit) => {
                trace.record(&job, EventKind::CacheHit, 0);
                finish(job, hit, true, now, &trace, &mut ctx.deltas, metrics);
                continue;
            }
            CacheLookup::Miss { stale } => {
                let deltas = ctx.deltas.class(job.class);
                deltas.cache_misses += 1;
                if stale {
                    deltas.cache_stale += 1;
                    trace.record(&job, EventKind::CacheStale, 0);
                } else {
                    trace.record(&job, EventKind::CacheMiss, 0);
                }
            }
        }
        ctx.seen.insert(fingerprint, pending.len());
        pending.push((fingerprint, job));
    }

    // Pass 2: one batched plane-kernel call for every leader.
    'serve: {
        if pending.is_empty() {
            debug_assert!(ctx.followers.is_empty(), "followers imply a leader");
            break 'serve;
        }
        match store.case_base() {
            Some(case_base) => {
                {
                    let requests: Vec<&rqfa_core::Request> =
                        pending.iter().map(|(_, j)| &j.request).collect();
                    ctx.engine
                        .retrieve_batch_into(case_base, &requests, &mut ctx.results);
                }
                let generation = case_base.generation();
                for result in ctx.results.iter().flatten() {
                    ctx.deltas.add_ops(&result.ops);
                }
                // Followers first (they read the leaders' results), counted
                // as cache hits — the coalesced "1 miss + N−1 hits" account.
                for (leader, job) in ctx.followers.drain(..) {
                    match &ctx.results[leader] {
                        Ok(retrieval) => {
                            trace.record(&job, EventKind::CacheHit, 1);
                            finish(
                                job,
                                retrieval.clone(),
                                true,
                                now,
                                &trace,
                                &mut ctx.deltas,
                                metrics,
                            );
                        }
                        Err(error) => {
                            // A failed leader fails its followers identically;
                            // the follower's probe-that-never-was counts as a
                            // miss so per-class cache counters keep summing to
                            // the served total.
                            let deltas = ctx.deltas.class(job.class);
                            deltas.cache_misses += 1;
                            deltas.failed += 1;
                            trace.record(&job, EventKind::Failed, 0);
                            let waited_us = micros_between(job.enqueued_at, now);
                            job.reply(Outcome::Failed(error.clone()), waited_us, metrics);
                        }
                    }
                }
                for ((fingerprint, job), result) in pending.into_iter().zip(ctx.results.drain(..)) {
                    match result {
                        Ok(retrieval) => {
                            trace.record(&job, EventKind::Scored, retrieval.evaluated as u64);
                            ctx.cache.insert(fingerprint, generation, &retrieval);
                            finish(job, retrieval, false, now, &trace, &mut ctx.deltas, metrics);
                        }
                        Err(error) => {
                            ctx.deltas.class(job.class).failed += 1;
                            trace.record(&job, EventKind::Failed, 0);
                            let waited_us = micros_between(job.enqueued_at, now);
                            job.reply(Outcome::Failed(error), waited_us, metrics);
                        }
                    }
                }
            }
            None => {
                // Empty shard: no type routes here, so the type is unknown.
                let mut fail = |job: Job, count_miss: bool| {
                    let deltas = ctx.deltas.class(job.class);
                    if count_miss {
                        deltas.cache_misses += 1;
                    }
                    deltas.failed += 1;
                    trace.record(&job, EventKind::Failed, 0);
                    let type_id = job.request.type_id();
                    let waited_us = micros_between(job.enqueued_at, now);
                    job.reply(
                        Outcome::Failed(CoreError::UnknownType { type_id }),
                        waited_us,
                        metrics,
                    );
                };
                for (_, job) in ctx.followers.drain(..) {
                    fail(job, true);
                }
                for (_, job) in pending {
                    fail(job, false);
                }
            }
        }
    }
    // One commit per batch: a concurrent snapshot sees either none or all
    // of this batch's outcome counters (the snapshot-consistency
    // invariant the observability suite samples under load).
    metrics.commit(&ctx.deltas);
    ctx.deltas.clear();
}

/// Completes one job with a retrieval result. Latency and deadline
/// misses are judged against the batch's `now` stamp.
fn finish(
    job: Job,
    retrieval: rqfa_core::Retrieval<rqfa_fixed::Q15>,
    cached: bool,
    now: Instant,
    trace: &BatchTrace<'_>,
    deltas: &mut BatchDeltas,
    metrics: &ServiceMetrics,
) {
    let class = job.class;
    let latency_us = micros_between(job.enqueued_at, now);
    // Served, but late? CRITICAL is never shed, so an expired deadline
    // surfaces here as a miss instead.
    if job.deadline.is_some_and(|d| now > d) {
        deltas.class(class).missed_deadline += 1;
    }
    let outcome = match retrieval.best {
        Some(best) => {
            deltas.class(class).completed += 1;
            if cached {
                deltas.class(class).cache_hits += 1;
            }
            trace.record(&job, EventKind::Replied, u64::from(cached));
            Outcome::Allocated {
                best,
                evaluated: retrieval.evaluated,
                cached,
            }
        }
        // Unreachable for a validated case base; reported honestly anyway.
        None => {
            deltas.class(class).failed += 1;
            trace.record(&job, EventKind::Failed, 0);
            Outcome::Failed(CoreError::UnknownType {
                type_id: job.request.type_id(),
            })
        }
    };
    job.reply(outcome, latency_us, metrics);
}

/// Drives the worker's batch-processing path synchronously, without
/// worker threads or wall-clock dependence: the caller decides exactly
/// which jobs form one dispatch batch, which makes coalescing and cache
/// accounting deterministic and assertable. Construct jobs with
/// [`crate::testkit::job`].
///
/// Not part of the stable API — test support only.
#[doc(hidden)]
pub struct BatchHarness {
    store: ShardStore,
    metrics: Arc<ServiceMetrics>,
    ctx: WorkerContext,
}

impl BatchHarness {
    /// A harness over an ephemeral copy of `case_base`, with the cache
    /// configured from `config` (capacity / policy / admission) and the
    /// clock / flight recorder taken from the same config.
    pub fn new(case_base: &CaseBase, config: &ServiceConfig) -> BatchHarness {
        let recorder = (config.trace_capacity > 0)
            .then(|| Arc::new(FlightRecorder::new(config.trace_capacity)));
        let metrics = Arc::new(ServiceMetrics::default());
        // The caller composes every batch itself, so the shard's queue
        // goes unused.
        let (_, ctx) = assemble(
            config,
            Arc::clone(&metrics),
            Arc::clone(&config.clock),
            recorder,
            config.clock.now(),
        );
        BatchHarness {
            store: ShardStore::Ephemeral(case_base.clone()),
            metrics,
            ctx,
        }
    }

    /// Drains the harness's flight recorder (empty when tracing is off).
    pub fn drain_trace(&self) -> TraceDump {
        match &self.ctx.recorder {
            Some(recorder) => recorder.drain(),
            None => TraceDump::default(),
        }
    }

    /// Processes `batch` exactly as one worker dispatch round would.
    pub fn run_batch(&mut self, batch: Vec<Job>) {
        process_batch(batch, &self.store, &self.metrics, &mut self.ctx);
    }

    /// Applies a mutation to the underlying store (bumps the generation,
    /// so the next batch invalidates the cache and recompiles the plane).
    pub fn apply(&mut self, mutation: &CaseMutation) -> Result<CaseMutation, ServiceError> {
        self.store.apply(mutation)
    }

    /// Metrics accumulated by the processed batches.
    pub fn metrics(&self) -> crate::MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// The result cache's counter set.
    pub fn cache_stats(&self) -> rqfa_cache::CacheStats {
        self.ctx.cache.cache_stats()
    }

    /// Live result-cache entries.
    pub fn cache_len(&self) -> usize {
        self.ctx.cache.len()
    }

    /// Plane (re)compilations performed by the worker's engine.
    pub fn engine_recompiles(&self) -> u64 {
        self.ctx.engine.recompiles()
    }

    /// Scratch-arena growth events of the worker's engine.
    pub fn scratch_grows(&self) -> u64 {
        self.ctx.engine.scratch_grows()
    }
}

impl Job {
    /// Sends the reply and records the latency sample. Shed replies stay
    /// out of the histogram — a near-zero "latency" for dropped work
    /// would drown the p50/p99 of the traffic actually served. A send
    /// error means the caller dropped its ticket — the result is simply
    /// discarded.
    pub(crate) fn reply(self, outcome: Outcome, latency_us: u64, metrics: &ServiceMetrics) {
        if !outcome.is_shed() {
            metrics.class(self.class).latency.record(latency_us);
        }
        let _ = self.reply_tx.send(Reply {
            id: self.id,
            class: self.class,
            outcome,
            latency_us,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqfa_core::paper;

    #[test]
    fn partition_covers_every_type_exactly_once() {
        let cb = paper::table1_case_base();
        for shards in 1..=4 {
            let slices = partition(&cb, shards);
            assert_eq!(slices.len(), shards);
            let total: usize = slices
                .iter()
                .flatten()
                .map(CaseBase::type_count)
                .sum();
            assert_eq!(total, cb.type_count());
            for slice in slices.iter().flatten() {
                for ty in slice.function_types() {
                    assert_eq!(
                        slice.function_types().len(),
                        slice.type_count(),
                    );
                    // Every type landed on its routed shard.
                    let original = cb.function_type(ty.id()).unwrap();
                    assert_eq!(original, ty);
                }
            }
        }
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        for raw in 1..50u16 {
            let id = TypeId::new(raw).unwrap();
            for shards in 1..=8 {
                let s = route(id, shards);
                assert!(s < shards);
                assert_eq!(s, route(id, shards));
            }
        }
    }

    #[test]
    fn single_shard_partition_is_the_whole_case_base() {
        let cb = paper::table1_case_base();
        let slices = partition(&cb, 1);
        assert_eq!(slices[0].as_ref().unwrap(), &cb);
    }
}
