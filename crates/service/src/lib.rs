//! # rqfa-service — a sharded, batched, QoS-class-aware allocation service
//!
//! The paper's retrieval unit answers one allocation request at a time
//! on-chip. This crate turns that single-shot engine into a service layer
//! that multiplexes *many* requesters over shared retrieval resources with
//! per-class guarantees — the shape hardware QoS enforcement and NoC
//! virtualization literature converges on:
//!
//! * **Sharding** ([`shard`]): function types partition across N shards,
//!   each owned by a worker thread with a private
//!   [`FixedEngine`](rqfa_core::FixedEngine) — since
//!   retrieval only touches the requested type's subtree, shard answers
//!   are bit-identical to one big engine over the merged case base.
//! * **Batching + deadline-aware QoS scheduling** ([`queue`], [`sched`]):
//!   per-class lanes ordered earliest-deadline-first, drained in weighted
//!   round-robin (8:4:2:1) with bounded slack promotion for lane heads
//!   about to miss their budget, per-class deadline budgets and
//!   per-request deadlines ([`AllocationService::submit_with_deadline`]),
//!   and urgency-tiered admission limits that shed by **largest slack
//!   first** under overload — CRITICAL is never shed, ever. The full
//!   model lives in `docs/scheduling.md`.
//! * **Result caching** ([`cache`]): retrievals are memoized by request
//!   fingerprint and stamped with the case-base generation counter; any
//!   retain/revise/evict invalidates the shard's cache wholesale. The
//!   eviction policy is a QoS knob ([`ServiceConfig::cache_policy`]:
//!   FIFO, LRU, or 2Q, plus an optional one-hit-wonder admission
//!   filter), backed by the workspace-wide `rqfa-cache` store — the
//!   normative model lives in `docs/caching.md`.
//! * **Metrics** ([`metrics`]): per-class p50/p99 latency, hit rate and
//!   shed counts from lock-free counters, with batch-granular snapshot
//!   consistency and a [`MetricSource`]
//!   bridge into the workspace metrics registry.
//! * **Observability** (`rqfa-telemetry`): the service clock is
//!   injectable ([`ServiceConfig::with_clock`]) so schedulers, deadline
//!   checks and latency stamps run against a
//!   [`ManualClock`] in tests and replays;
//!   [`ServiceConfig::with_trace_capacity`] arms a per-shard
//!   [flight recorder](rqfa_telemetry::FlightRecorder) whose events
//!   reconstruct per-request timelines
//!   ([`AllocationService::drain_trace`]). `docs/observability.md` has
//!   the full model.
//! * **Deterministic replay** ([`replay`]): a single-threaded
//!   discrete-event driver that pushes a timestamped trace through the
//!   real queue/scheduler/batch pipeline under a manual clock — same
//!   code, reproducible latencies.
//!
//! ## Quick start
//!
//! ```
//! use rqfa_core::{paper, QosClass};
//! use rqfa_service::{AllocationService, Outcome, ServiceConfig};
//!
//! let service = AllocationService::new(
//!     &paper::table1_case_base(),
//!     &ServiceConfig::default().with_shards(2),
//! )?;
//! let ticket = service.submit(paper::table1_request()?, QosClass::High);
//! let reply = ticket.wait().expect("service alive");
//! match reply.outcome {
//!     Outcome::Allocated { best, .. } => assert_eq!(best.impl_id, paper::IMPL_DSP),
//!     other => panic!("unexpected outcome: {other:?}"),
//! }
//! service.shutdown();
//! # Ok::<(), rqfa_service::ServiceError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod error;
pub mod metrics;
pub mod queue;
pub mod remote;
pub mod replay;
pub mod sched;
pub mod shard;

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rqfa_core::{CaseBase, CaseMutation, CoreError, ImplVariant, QosClass, Request, Scored, TypeId};

// The kernel-path knob is part of the service configuration surface.
pub use rqfa_core::KernelPath;
use rqfa_fixed::Q15;
use rqfa_persist::{
    DurableCaseBase, FileStore, PersistError, PersistPolicy, RecoveryReport, Store, StoreSet,
};
use rqfa_telemetry::{monotonic, MetricSource, Registry};

pub use error::ServiceError;
pub use metrics::{ClassSnapshot, MetricsSnapshot, ServiceMetrics};
pub use rqfa_cache::{CachePolicy, CacheStats};
pub use rqfa_telemetry::{
    Clock, ManualClock, MonotonicClock, RequestTimeline, SharedClock, StageBreakdown, TraceDump,
};
pub use sched::{ArbiterMode, Pick, SchedMode, ServiceTimeEstimator, WeightedArbiter};

/// First line of the durable-state manifest file.
const MANIFEST_HEADER: &str = "rqfa-durable-service v1";
/// Manifest file name inside a durable-state directory.
const MANIFEST_FILE: &str = "MANIFEST";

/// Configuration of an [`AllocationService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Number of shards / worker threads (min 1).
    pub shards: usize,
    /// Maximum jobs dispatched per scheduling round of one worker.
    pub batch_size: usize,
    /// Per-shard queue bound across classes. Admission limits step with
    /// urgency: LOW is refused at `1×` this bound, MEDIUM at `2×`, HIGH
    /// at `4×`; CRITICAL is always admitted.
    pub queue_capacity: usize,
    /// Per-shard result-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Eviction policy of the per-shard result cache. FIFO (the
    /// historical default) has zero per-hit bookkeeping and serves the
    /// bursty repeat traffic of §3 well; LRU and 2Q keep a zipf-skewed
    /// hot set resident (see `docs/caching.md` and the
    /// `service_throughput` policy A/B).
    pub cache_policy: CachePolicy,
    /// Whether the per-shard cache runs a one-hit-wonder admission
    /// filter: a fingerprint must be sighted twice before its result is
    /// cached at all (the first sighting is only remembered, even while
    /// the cache has free room). Off by default (the historical
    /// behaviour).
    pub cache_admission: bool,
    /// Per-class queueing-delay budget in µs, indexed by
    /// [`QosClass::index`]. The budget defines a sheddable job's
    /// *effective deadline* (submit time + budget) unless the request
    /// carried an explicit deadline
    /// ([`AllocationService::submit_with_deadline`]); a job whose
    /// effective deadline has expired when the worker picks it up is
    /// dropped. `None` disables the budget; CRITICAL ignores its budget
    /// entirely (never shed, but a served-late CRITICAL request counts as
    /// a [`missed deadline`](ClassSnapshot::missed_deadline)).
    pub deadline_budget_us: [Option<u64>; QosClass::COUNT],
    /// How jobs are ordered within a class lane: earliest-deadline-first
    /// (default) or strict arrival order (the A/B baseline).
    pub scheduling: SchedMode,
    /// Which arbitration policy decides the next lane each batch slot is
    /// drawn from: strict priority, credit WRR with bounded slack
    /// promotion (default), dynamic priority under measured urgency
    /// margins, or sliding-window fair-share bandwidth regulation. See
    /// [`ArbiterMode`] and `docs/scheduling.md`.
    pub arbiter_mode: ArbiterMode,
    /// A lane head within this many µs of its effective deadline is
    /// *urgent*: the scheduler may serve it ahead of the weighted order
    /// (bounded by [`ServiceConfig::promotions_per_round`]). `0` promotes
    /// only already-overdue heads, which is usually too late — size it
    /// around one batch's service time. Ignored in FIFO mode.
    pub promotion_margin_us: u64,
    /// How many times per scheduling round an urgent, out-of-credit lane
    /// may be served anyway. Bounds priority inversion: CRITICAL's share
    /// never drops below `weight / (Σ weights + promotions_per_round)`.
    pub promotions_per_round: u32,
    /// Weighted-round-robin credit per class, indexed by
    /// [`QosClass::index`].
    pub class_weights: [u32; QosClass::COUNT],
    /// Durable shards checkpoint (snapshot + WAL compaction) after this
    /// many acknowledged mutations; `0` checkpoints only on
    /// [`AllocationService::checkpoint`]. Ignored by ephemeral services.
    ///
    /// A checkpoint runs under the owning shard's store lock, so the
    /// shard serves no retrievals for its duration (snapshot write +
    /// fsync + log rewrite). Latency-sensitive deployments with frequent
    /// mutations should set `0` and run explicit
    /// [`AllocationService::checkpoint`]s from a maintenance context at
    /// quiet moments instead.
    pub snapshot_every: u64,
    /// The time source of the whole request path: admission stamps, EDF
    /// ordering, slack promotion, dispatch-time deadline checks and
    /// reply latencies all read this clock — never `Instant::now()`
    /// directly. Defaults to the monotonic wall clock; inject a
    /// [`ManualClock`] for deterministic tests and trace replays.
    pub clock: SharedClock,
    /// Per-shard flight-recorder capacity in events. `0` (the default)
    /// disables tracing entirely — no recorder is allocated and the
    /// request path records nothing. When armed, each shard keeps the
    /// newest `trace_capacity` events in a fixed ring (zero allocation
    /// per event); drain them with [`AllocationService::drain_trace`].
    pub trace_capacity: usize,
    /// Whether admission refuses deadlined sheddable jobs the measured
    /// service rate predicts cannot finish in time even if queued
    /// (answered with [`Outcome::ShedPredicted`] immediately). Off by
    /// default; has no effect until the shard's estimator is warm. The
    /// degradation lever that keeps doomed LOW work from clogging
    /// queues — and burning remote retry budgets — while a node is
    /// down (see `docs/distribution.md`).
    pub predictive_shed: bool,
    /// Kernel path of the per-shard plane engines:
    /// [`KernelPath::Auto`] (default) runtime-detects the wide SIMD
    /// kernel, [`KernelPath::ForceScalar`] pins the scalar loops. Either
    /// way results are bit-identical; this is a performance/debugging
    /// knob (the CI fallback lane forces scalar).
    pub kernel_path: KernelPath,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            shards: 1,
            batch_size: 32,
            queue_capacity: 4096,
            cache_capacity: 1 << 16,
            cache_policy: CachePolicy::Fifo,
            cache_admission: false,
            deadline_budget_us: [None; QosClass::COUNT],
            scheduling: SchedMode::Edf,
            arbiter_mode: ArbiterMode::WeightedRoundRobin,
            promotion_margin_us: 0,
            promotions_per_round: WeightedArbiter::DEFAULT_PROMOTIONS,
            class_weights: QosClass::ALL.map(QosClass::weight),
            snapshot_every: PersistPolicy::default().snapshot_every,
            clock: monotonic(),
            trace_capacity: 0,
            predictive_shed: false,
            kernel_path: KernelPath::default(),
        }
    }
}

impl ServiceConfig {
    /// Sets the shard count. The value is stored as given — a zero shard
    /// count is rejected at service construction with
    /// [`ServiceError::Config`], never silently clamped.
    pub fn with_shards(mut self, shards: usize) -> ServiceConfig {
        self.shards = shards;
        self
    }

    /// Sets the dispatch batch size.
    pub fn with_batch_size(mut self, batch_size: usize) -> ServiceConfig {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Sets the per-shard queue bound.
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServiceConfig {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Sets the per-shard cache capacity (0 disables caching).
    pub fn with_cache_capacity(mut self, capacity: usize) -> ServiceConfig {
        self.cache_capacity = capacity;
        self
    }

    /// Sets the per-shard cache eviction policy.
    pub fn with_cache_policy(mut self, policy: CachePolicy) -> ServiceConfig {
        self.cache_policy = policy;
        self
    }

    /// Enables/disables the one-hit-wonder admission filter.
    pub fn with_cache_admission(mut self, admission: bool) -> ServiceConfig {
        self.cache_admission = admission;
        self
    }

    /// Sets one class's queueing-delay budget.
    pub fn with_deadline_budget_us(mut self, class: QosClass, budget_us: u64) -> ServiceConfig {
        self.deadline_budget_us[class.index()] = Some(budget_us);
        self
    }

    /// Sets the within-lane scheduling mode (EDF vs FIFO baseline).
    pub fn with_scheduling(mut self, mode: SchedMode) -> ServiceConfig {
        self.scheduling = mode;
        self
    }

    /// Selects the cross-lane arbitration policy (see [`ArbiterMode`]).
    pub fn with_arbiter_mode(mut self, mode: ArbiterMode) -> ServiceConfig {
        self.arbiter_mode = mode;
        self
    }

    /// Sets the slack margin (µs) under which a lane head is promoted.
    pub fn with_promotion_margin_us(mut self, margin_us: u64) -> ServiceConfig {
        self.promotion_margin_us = margin_us;
        self
    }

    /// Sets the per-round bound on out-of-credit promotions.
    pub fn with_promotions_per_round(mut self, per_round: u32) -> ServiceConfig {
        self.promotions_per_round = per_round;
        self
    }

    /// Sets the durable checkpoint cadence (0 = manual only).
    pub fn with_snapshot_every(mut self, mutations: u64) -> ServiceConfig {
        self.snapshot_every = mutations;
        self
    }

    /// Injects the request-path time source (see
    /// [`ServiceConfig::clock`]).
    pub fn with_clock(mut self, clock: SharedClock) -> ServiceConfig {
        self.clock = clock;
        self
    }

    /// Arms per-shard flight recording with the given ring capacity in
    /// events (0 disables tracing).
    pub fn with_trace_capacity(mut self, capacity: usize) -> ServiceConfig {
        self.trace_capacity = capacity;
        self
    }

    /// Enables predictive shedding at admission (see
    /// [`ServiceConfig::predictive_shed`]).
    pub fn with_predictive_shed(mut self, on: bool) -> ServiceConfig {
        self.predictive_shed = on;
        self
    }

    /// Pins the plane-kernel path of every shard worker (see
    /// [`ServiceConfig::kernel_path`]).
    pub fn with_kernel_path(mut self, path: KernelPath) -> ServiceConfig {
        self.kernel_path = path;
        self
    }

    /// The arbiter the configuration describes.
    pub(crate) fn arbiter(&self) -> WeightedArbiter {
        WeightedArbiter::with_weights(self.class_weights)
            .with_promotions(self.promotions_per_round)
            .with_mode(self.arbiter_mode)
    }
}

/// Validates a configuration before any shard state is built or touched.
fn validate_config(config: &ServiceConfig) -> Result<(), ServiceError> {
    if config.shards == 0 {
        return Err(ServiceError::Config(
            "shards must be at least 1 (routing is type_id % shards)".into(),
        ));
    }
    Ok(())
}

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Retrieval succeeded.
    Allocated {
        /// The winning implementation variant.
        best: Scored<Q15>,
        /// Variants evaluated to produce this result. A cached reply
        /// reports the count recorded when the entry was computed — use
        /// `cached`, not this field, to tell hits from fresh retrievals.
        evaluated: usize,
        /// Whether the result came from the shard's result cache.
        cached: bool,
    },
    /// Shed at admission: the shard queue was full (LOW only).
    ShedQueueFull,
    /// Shed at dispatch: the job outlived its class deadline budget.
    ShedDeadline,
    /// Retrieval failed (e.g. unknown function type).
    Failed(CoreError),
    /// The owning shard lives on a remote node that stayed unreachable
    /// through the transport's bounded retry budget (see
    /// [`remote`]). Produced client-side — a dead node degrades the
    /// requests routed to it into this explicit outcome, never a hang.
    Unavailable {
        /// Connection/send attempts made before giving up.
        attempts: u32,
    },
    /// Shed at admission by *prediction*: the measured service rate
    /// ([`ServiceTimeEstimator`]) said the deadline could not be met
    /// even if the job were queued, so it was refused fast instead of
    /// occupying a slot only to shed at dispatch (enable with
    /// [`ServiceConfig::with_predictive_shed`]).
    ShedPredicted {
        /// Predicted completion lateness had the job been queued, µs.
        late_us: u64,
    },
}

impl Outcome {
    /// Whether the request was shed (any way).
    pub fn is_shed(&self) -> bool {
        matches!(
            self,
            Outcome::ShedQueueFull | Outcome::ShedDeadline | Outcome::ShedPredicted { .. }
        )
    }
}

/// The service's answer to one submitted request.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// The id [`AllocationService::submit`] handed out.
    pub id: u64,
    /// The request's QoS class.
    pub class: QosClass,
    /// What happened.
    pub outcome: Outcome,
    /// End-to-end latency (submit → reply), µs.
    pub latency_us: u64,
}

/// One queued allocation request (internal).
#[derive(Debug)]
pub struct Job {
    pub(crate) id: u64,
    pub(crate) class: QosClass,
    pub(crate) request: Request,
    pub(crate) enqueued_at: Instant,
    /// Effective deadline: the explicit per-request deadline, else
    /// submit time + class budget, else none (EDF far horizon).
    pub(crate) deadline: Option<Instant>,
    pub(crate) reply_tx: mpsc::Sender<Reply>,
}

impl Job {
    /// A job submitted at `now`, plus the receiver its reply arrives on.
    /// Its effective deadline is computed here, once: the explicit
    /// `deadline`, else the class budget from `budget_us` for a
    /// sheddable class, else none.
    pub(crate) fn new(
        id: u64,
        class: QosClass,
        request: Request,
        now: Instant,
        deadline: Option<Duration>,
        budget_us: &[Option<u64>; QosClass::COUNT],
    ) -> (Job, mpsc::Receiver<Reply>) {
        let budget = budget_us[class.index()]
            .filter(|_| class.sheddable())
            .map(Duration::from_micros);
        let (reply_tx, rx) = mpsc::channel();
        let job = Job {
            id,
            class,
            request,
            enqueued_at: now,
            deadline: deadline.or(budget).map(|d| now + d),
            reply_tx,
        };
        (job, rx)
    }

    /// The id [`AllocationService::submit`] handed out.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The job's QoS class.
    pub fn class(&self) -> QosClass {
        self.class
    }

    /// The job's effective deadline, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

/// A handle to one in-flight request.
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    class: QosClass,
    rx: mpsc::Receiver<Reply>,
}

impl Ticket {
    /// The request id (matches [`Reply::id`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The request's QoS class.
    pub fn class(&self) -> QosClass {
        self.class
    }

    /// Blocks until the reply arrives. `None` only if the service was torn
    /// down without answering (worker panic) — a drained shutdown replies
    /// to everything first.
    pub fn wait(self) -> Option<Reply> {
        self.rx.recv().ok()
    }

    /// Non-blocking poll.
    pub fn try_wait(&self) -> Option<Reply> {
        self.rx.try_recv().ok()
    }

    /// Blocks up to `timeout` for the reply.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Reply> {
        self.rx.recv_timeout(timeout).ok()
    }
}

/// The sharded, batched, QoS-class-aware allocation service.
///
/// See the [crate docs](crate) for the architecture. The service owns a
/// private copy of the case base (split into shard slices); run-time
/// learning flows through [`AllocationService::retain_variant`] and
/// friends, which mutate the owning shard and invalidate its cache.
pub struct AllocationService {
    shards: Vec<shard::Shard>,
    metrics: Arc<ServiceMetrics>,
    next_id: AtomicU64,
    deadline_budget_us: [Option<u64>; QosClass::COUNT],
}

impl AllocationService {
    /// Builds an ephemeral (in-memory) service over a snapshot of
    /// `case_base` and spawns one worker thread per shard. Learned
    /// mutations do not survive the process — see
    /// [`AllocationService::durable_create`].
    ///
    /// # Errors
    ///
    /// [`ServiceError::Config`] for an invalid configuration (zero
    /// shards) — routing is `type_id % shards`, so a shard count of 0
    /// has no meaning and must not silently degrade to 1.
    pub fn new(
        case_base: &CaseBase,
        config: &ServiceConfig,
    ) -> Result<AllocationService, ServiceError> {
        validate_config(config)?;
        let slices = shard::partition(case_base, config.shards);
        let stores = slices
            .into_iter()
            .map(|slice| match slice {
                Some(cb) => shard::ShardStore::Ephemeral(cb),
                None => shard::ShardStore::Empty,
            })
            .collect();
        Ok(AllocationService::from_stores(stores, config))
    }

    /// Builds a *durable* service: each non-empty shard gets its own
    /// write-ahead log and snapshot pair under `dir/shard-<i>/`, seeded
    /// with a genesis snapshot of its slice of `case_base`. Any previous
    /// durable state in `dir` is discarded.
    ///
    /// ```
    /// use rqfa_core::paper;
    /// use rqfa_service::{AllocationService, ServiceConfig};
    ///
    /// let dir = std::env::temp_dir().join("rqfa-durable-doctest");
    /// let config = ServiceConfig::default().with_shards(2);
    ///
    /// // Create durable state, learn something, "crash" (drop without a
    /// // checkpoint)…
    /// let service =
    ///     AllocationService::durable_create(&paper::table1_case_base(), &dir, &config)?;
    /// service.evict_variant(paper::FIR_EQUALIZER, paper::IMPL_GP)?;
    /// drop(service);
    ///
    /// // …and recover: the shard layout comes from the on-disk MANIFEST,
    /// // the mutation replays from the WAL, and answers are bit-identical
    /// // to a service that never crashed.
    /// let (recovered, reports) = AllocationService::durable_recover(&dir, &config)?;
    /// let replayed: usize = reports.iter().flatten().map(|r| r.replayed).sum();
    /// assert_eq!(replayed, 1);
    /// recovered.shutdown();
    /// # std::fs::remove_dir_all(&dir).ok();
    /// # Ok::<(), rqfa_service::ServiceError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`ServiceError::Persist`] on store initialization failures,
    /// [`ServiceError::Manifest`] if the manifest cannot be written.
    pub fn durable_create(
        case_base: &CaseBase,
        dir: &Path,
        config: &ServiceConfig,
    ) -> Result<AllocationService, ServiceError> {
        validate_config(config)?;
        // Discard previous durable state up front: a stale `shard-<i>`
        // directory from an older layout would otherwise resurrect on
        // the next recover (e.g. a shard whose slice is empty now writes
        // nothing, so the old directory would win).
        if dir.is_dir() {
            let _ = std::fs::remove_file(dir.join(MANIFEST_FILE));
            let entries = std::fs::read_dir(dir)
                .map_err(|e| ServiceError::Manifest(format!("scan {}: {e}", dir.display())))?;
            for entry in entries.flatten() {
                if entry.file_name().to_string_lossy().starts_with("shard-") {
                    std::fs::remove_dir_all(entry.path()).map_err(|e| {
                        ServiceError::Manifest(format!("purge stale shard state: {e}"))
                    })?;
                }
            }
        }
        // The shard drives the checkpoint cadence itself (two-phase, off
        // the store lock); the inner durable case base must never
        // auto-checkpoint under the lock.
        let policy = PersistPolicy::manual();
        let slices = shard::partition(case_base, config.shards);
        let mut stores = Vec::with_capacity(slices.len());
        for (index, slice) in slices.into_iter().enumerate() {
            match slice {
                Some(cb) => {
                    let set = StoreSet::in_dir(&dir.join(format!("shard-{index}")))?;
                    let durable = DurableCaseBase::create(&cb, set, policy)?;
                    stores.push(shard::ShardStore::Durable(Box::new(durable)));
                }
                None => stores.push(shard::ShardStore::Empty),
            }
        }
        // The manifest records *which* shards hold durable state, so a
        // lost shard directory is a loud recovery error, never a silent
        // empty shard. Written with the same durability discipline as
        // every other persistent file (atomic replace + fsync via
        // FileStore) — it is the one file recovery cannot do without.
        let durable_shards: Vec<String> = stores
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s, shard::ShardStore::Durable(_)))
            .map(|(i, _)| i.to_string())
            .collect();
        let manifest = format!(
            "{MANIFEST_HEADER}\nshards={}\ndurable={}\n",
            stores.len(),
            durable_shards.join(",")
        );
        std::fs::create_dir_all(dir).map_err(|e| ServiceError::Manifest(e.to_string()))?;
        FileStore::new(dir.join(MANIFEST_FILE))
            .replace(manifest.as_bytes())
            .map_err(|e| ServiceError::Manifest(format!("write {MANIFEST_FILE}: {e}")))?;
        Ok(AllocationService::from_stores(stores, config))
    }

    /// Recovers a durable service from `dir`: reads the manifest, then
    /// per shard picks the newest valid snapshot and replays that shard's
    /// WAL on top. A recovered service answers every request
    /// bit-identically to one that never crashed (the workspace recovery
    /// harness asserts this).
    ///
    /// The shard count comes from the manifest — `config.shards` is
    /// ignored, because the type→shard routing must match the layout the
    /// logs were written under.
    ///
    /// Returns the service plus one [`RecoveryReport`] per shard
    /// (`None` for shards that never held state).
    ///
    /// # Errors
    ///
    /// [`ServiceError::Manifest`] for a missing/bad manifest,
    /// [`ServiceError::Persist`] for unrecoverable shard state.
    pub fn durable_recover(
        dir: &Path,
        config: &ServiceConfig,
    ) -> Result<(AllocationService, Vec<Option<RecoveryReport>>), ServiceError> {
        let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE))
            .map_err(|e| ServiceError::Manifest(format!("read {MANIFEST_FILE}: {e}")))?;
        let mut lines = manifest.lines();
        if lines.next() != Some(MANIFEST_HEADER) {
            return Err(ServiceError::Manifest("unknown header".into()));
        }
        let shards: usize = lines
            .next()
            .and_then(|l| l.strip_prefix("shards="))
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| ServiceError::Manifest("missing shards= line".into()))?;
        if shards == 0 {
            return Err(ServiceError::Manifest("zero shards".into()));
        }
        let durable_set: Vec<usize> = match lines.next().and_then(|l| l.strip_prefix("durable=")) {
            Some("") => Vec::new(),
            Some(list) => list
                .split(',')
                .map(|n| {
                    let index: usize = n
                        .parse()
                        .map_err(|_| ServiceError::Manifest(format!("bad durable index {n:?}")))?;
                    if index >= shards {
                        return Err(ServiceError::Manifest(format!(
                            "durable index {index} out of range for {shards} shard(s)"
                        )));
                    }
                    Ok(index)
                })
                .collect::<Result<_, _>>()?,
            None => return Err(ServiceError::Manifest("missing durable= line".into())),
        };
        // As in durable_create: checkpoint cadence is shard-driven.
        let policy = PersistPolicy::manual();
        let mut stores = Vec::with_capacity(shards);
        let mut reports = Vec::with_capacity(shards);
        for index in 0..shards {
            if !durable_set.contains(&index) {
                stores.push(shard::ShardStore::Empty);
                reports.push(None);
                continue;
            }
            let shard_dir = dir.join(format!("shard-{index}"));
            if !shard_dir.is_dir() {
                // Losing a shard's state must be a loud error, not a
                // silent UnknownType degradation for its types.
                return Err(ServiceError::Manifest(format!(
                    "manifest lists shard-{index} as durable but its directory is missing"
                )));
            }
            let set = StoreSet::in_dir(&shard_dir)?;
            let (durable, report) = DurableCaseBase::recover(set, policy)?;
            stores.push(shard::ShardStore::Durable(Box::new(durable)));
            reports.push(Some(report));
        }
        Ok((AllocationService::from_stores(stores, config), reports))
    }

    /// Spawns the workers over prepared shard stores.
    fn from_stores(stores: Vec<shard::ShardStore>, config: &ServiceConfig) -> AllocationService {
        let metrics = Arc::new(ServiceMetrics::default());
        // Trace timestamps are µs offsets from this instant (the moment
        // the service was built), so every shard's events share one
        // timebase.
        let epoch = config.clock.now();
        let shards = stores
            .into_iter()
            .enumerate()
            .map(|(index, store)| {
                shard::Shard::spawn(index, store, config, Arc::clone(&metrics), epoch)
            })
            .collect();
        AllocationService {
            shards,
            metrics,
            next_id: AtomicU64::new(0),
            deadline_budget_us: config.deadline_budget_us,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Exports shard `shard`'s snapshot container (the replication
    /// transfer unit — the same dual-slot image format checkpoints
    /// write) together with the generation it captures.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Remote`] unless the shard is durable (replication
    /// needs a WAL to stream the tail from).
    pub fn export_shard_snapshot(
        &self,
        shard: usize,
    ) -> Result<(Vec<u8>, rqfa_core::Generation), ServiceError> {
        self.shards[shard].export_snapshot()
    }

    /// Shard `shard`'s write-ahead-log records newer than `through` —
    /// the tail a leader streams to a follower holding a snapshot at
    /// generation `through`.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Remote`] unless the shard is durable;
    /// [`ServiceError::Persist`] if the log cannot be read.
    pub fn shard_wal_tail(
        &self,
        shard: usize,
        through: rqfa_core::Generation,
    ) -> Result<Vec<rqfa_persist::StampedMutation>, ServiceError> {
        self.shards[shard].wal_tail(through)
    }

    /// The generation of shard `shard`'s served case base.
    pub fn shard_generation(&self, shard: usize) -> rqfa_core::Generation {
        self.shards[shard].generation()
    }

    /// Submits a request in the given QoS class. Always returns a ticket;
    /// a request shed at admission gets its `ShedQueueFull` reply
    /// immediately. The job's effective deadline is the class budget
    /// (sheddable classes only); use
    /// [`AllocationService::submit_with_deadline`] for per-request
    /// deadlines.
    pub fn submit(&self, request: Request, class: QosClass) -> Ticket {
        self.submit_inner(request, class, None)
    }

    /// Submits a request that must complete within `deadline` from now.
    /// The explicit deadline overrides the class budget for EDF ordering,
    /// slack promotion, displacement *and* dispatch shedding — except
    /// that CRITICAL is still never shed: a late CRITICAL request is
    /// served anyway and counted as a
    /// [`missed deadline`](ClassSnapshot::missed_deadline).
    pub fn submit_with_deadline(
        &self,
        request: Request,
        class: QosClass,
        deadline: Duration,
    ) -> Ticket {
        self.submit_inner(request, class, Some(deadline))
    }

    fn submit_inner(
        &self,
        request: Request,
        class: QosClass,
        deadline: Option<Duration>,
    ) -> Ticket {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[shard::route(request.type_id(), self.shards.len())];
        let rx = shard
            .queue
            .submit(id, class, request, deadline, &self.deadline_budget_us);
        Ticket { id, class, rx }
    }

    /// Seeds shard `shard`'s measured service-time estimator with one
    /// observed batch (`batch_us` µs over `jobs` jobs) — exactly what
    /// the shard worker feeds it after a real dispatch. Lets harnesses
    /// under a frozen [`ManualClock`] (where measured batch durations
    /// are zero) warm the predictive-shedding and dynamic-margin
    /// machinery from a cost model instead.
    pub fn prime_service_estimate(&self, shard: usize, batch_us: u64, jobs: usize) {
        self.shards[shard].queue.estimator().observe(batch_us, jobs);
    }

    /// Applies any [`CaseMutation`] on the shard owning its function
    /// type, returning the inverse mutation. On a durable service the
    /// mutation is in that shard's write-ahead log before this returns
    /// `Ok` — a crash afterwards cannot lose it.
    ///
    /// An *automatic* checkpoint that fails afterwards does not fail the
    /// apply (the mutation itself is durable); poll
    /// [`AllocationService::take_checkpoint_errors`] or force
    /// [`AllocationService::checkpoint`] to observe such failures before
    /// the un-compacted log grows unboundedly.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Core`] for invariant violations (nothing is
    /// logged), [`ServiceError::Persist`] when durability fails (the
    /// in-memory state is rolled back so memory never runs ahead of the
    /// log).
    pub fn apply_mutation(&self, mutation: &CaseMutation) -> Result<CaseMutation, ServiceError> {
        self.shard_for(mutation.type_id()).apply(mutation)
    }

    /// Applies a batch of mutations with **group commit**: the batch is
    /// split by owning shard (relative order preserved — mutations of
    /// one function type always target one shard) and each shard's group
    /// becomes a single write-ahead append, i.e. one fsync per shard per
    /// call instead of one per mutation. Returns the inverse mutations
    /// in input order.
    ///
    /// Atomicity is **per shard**: a shard's group applies all-or-nothing,
    /// but a failure in one shard does not roll back groups already
    /// committed on other shards — the error reports the first failing
    /// shard and every prior shard's group stays acknowledged (each was
    /// already durable).
    ///
    /// # Errors
    ///
    /// Same conditions as [`AllocationService::apply_mutation`].
    pub fn apply_mutations(
        &self,
        mutations: &[CaseMutation],
    ) -> Result<Vec<CaseMutation>, ServiceError> {
        // Group by shard, remembering each mutation's input slot.
        let mut groups: Vec<(Vec<usize>, Vec<CaseMutation>)> =
            (0..self.shards.len()).map(|_| Default::default()).collect();
        for (slot, mutation) in mutations.iter().enumerate() {
            let shard = shard::route(mutation.type_id(), self.shards.len());
            groups[shard].0.push(slot);
            groups[shard].1.push(mutation.clone());
        }
        let mut inverses: Vec<Option<CaseMutation>> = vec![None; mutations.len()];
        for (shard, (slots, group)) in self.shards.iter().zip(groups) {
            if group.is_empty() {
                continue;
            }
            let group_inverses = shard.apply_batch(&group)?;
            for (slot, inverse) in slots.into_iter().zip(group_inverses) {
                inverses[slot] = Some(inverse);
            }
        }
        Ok(inverses
            .into_iter()
            .map(|inv| inv.expect("every mutation was grouped exactly once"))
            .collect())
    }

    /// *Retain* step routed to the owning shard; bumps that shard's
    /// generation counter, invalidating its cached results.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AllocationService::apply_mutation`].
    pub fn retain_variant(
        &self,
        type_id: TypeId,
        variant: ImplVariant,
    ) -> Result<(), ServiceError> {
        self.apply_mutation(&CaseMutation::Retain { type_id, variant })
            .map(|_| ())
    }

    /// *Revise* step routed to the owning shard.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AllocationService::apply_mutation`].
    pub fn revise_variant(
        &self,
        type_id: TypeId,
        revised: ImplVariant,
    ) -> Result<(), ServiceError> {
        self.apply_mutation(&CaseMutation::Revise {
            type_id,
            variant: revised,
        })
        .map(|_| ())
    }

    /// Eviction routed to the owning shard.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AllocationService::apply_mutation`].
    pub fn evict_variant(
        &self,
        type_id: TypeId,
        impl_id: rqfa_core::ImplId,
    ) -> Result<ImplVariant, ServiceError> {
        match self.apply_mutation(&CaseMutation::Evict { type_id, impl_id })? {
            CaseMutation::Retain { variant, .. } => Ok(variant),
            other => unreachable!("inverse of evict is retain, got {other:?}"),
        }
    }

    /// Forces a checkpoint (snapshot + WAL compaction) on every durable
    /// shard — e.g. before a planned shutdown, to make the next recovery
    /// replay-free. No-op on an ephemeral service.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Persist`] if any shard's checkpoint fails; earlier
    /// shards' checkpoints remain in effect (each shard checkpoints
    /// independently, and no acknowledged mutation is ever at risk).
    pub fn checkpoint(&self) -> Result<(), ServiceError> {
        for shard in &self.shards {
            shard.checkpoint()?;
        }
        Ok(())
    }

    /// Drains the errors of failed *automatic* checkpoints, as
    /// `(shard index, error)` pairs. Automatic checkpoints run inside
    /// [`AllocationService::apply_mutation`] and do not fail the apply
    /// (the mutation is already durable in the WAL), so an operator must
    /// poll this — or run explicit [`AllocationService::checkpoint`]s —
    /// to notice a shard whose snapshots are failing while its log
    /// grows. Empty on ephemeral services and in healthy operation.
    pub fn take_checkpoint_errors(&self) -> Vec<(usize, PersistError)> {
        self.shards
            .iter()
            .enumerate()
            .filter_map(|(index, shard)| {
                shard.take_checkpoint_error().map(|e| (index, e))
            })
            .collect()
    }

    /// Jobs currently queued across all shards.
    pub fn pending(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// A point-in-time metrics snapshot.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Drains every shard's flight recorder into one merged dump
    /// (empty when tracing is off — see
    /// [`ServiceConfig::with_trace_capacity`]). Timestamps are µs since
    /// the service was built, shared across shards; the drain is
    /// non-destructive and safe under live traffic.
    pub fn drain_trace(&self) -> TraceDump {
        TraceDump::merge(
            self.shards
                .iter()
                .filter_map(|shard| shard.recorder.as_ref())
                .map(|recorder| recorder.drain()),
        )
    }

    /// Registers this service's metric sources on `registry`: the
    /// service counters under `prefix`, and each durable shard's persist
    /// counters under `prefix/shard-<i>/persist`.
    pub fn register_metrics(&self, registry: &Registry, prefix: &str) {
        registry.register(prefix, Arc::clone(&self.metrics) as Arc<dyn MetricSource>);
        for (index, shard) in self.shards.iter().enumerate() {
            if let Some(stats) = shard.persist_stats() {
                registry.register(format!("{prefix}/shard-{index}/persist"), stats);
            }
        }
    }

    /// Drains every queue, joins the workers and returns the final
    /// metrics. Every submitted request is answered before this returns.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        for shard in &mut self.shards {
            shard.join();
        }
        self.metrics.snapshot()
    }

    fn shard_for(&self, type_id: TypeId) -> &shard::Shard {
        &self.shards[shard::route(type_id, self.shards.len())]
    }
}

/// Deterministic construction of internal [`Job`]s, so queue- and
/// scheduler-level properties (EDF order, anti-starvation, shed
/// determinism) can be asserted from the workspace test suites without
/// going through live worker threads and wall-clock timing.
///
/// Not part of the stable API — test support only.
#[doc(hidden)]
pub mod testkit {
    use super::*;

    pub use crate::shard::BatchHarness;

    /// Builds a job with an explicit enqueue instant and effective
    /// deadline, plus the receiver its reply (if any) arrives on.
    pub fn job(
        id: u64,
        class: QosClass,
        request: Request,
        enqueued_at: Instant,
        deadline: Option<Instant>,
    ) -> (Job, mpsc::Receiver<Reply>) {
        let no_budget = [None; QosClass::COUNT];
        let (mut job, rx) = Job::new(id, class, request, enqueued_at, None, &no_budget);
        job.deadline = deadline;
        (job, rx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rqfa_core::paper;

    #[test]
    fn answers_the_paper_example() {
        let service = AllocationService::new(
            &paper::table1_case_base(),
            &ServiceConfig::default().with_shards(2),
        ).expect("valid service config");
        let ticket = service.submit(paper::table1_request().unwrap(), QosClass::Medium);
        let reply = ticket.wait().unwrap();
        match reply.outcome {
            Outcome::Allocated { best, cached, .. } => {
                assert_eq!(best.impl_id, paper::IMPL_DSP);
                assert!(!cached);
            }
            other => panic!("unexpected: {other:?}"),
        }
        let snap = service.shutdown();
        assert_eq!(snap.class(QosClass::Medium).completed, 1);
    }

    #[test]
    fn repeat_requests_hit_the_cache() {
        let service =
            AllocationService::new(&paper::table1_case_base(), &ServiceConfig::default()).expect("valid service config");
        let request = paper::table1_request().unwrap();
        let first = service.submit(request.clone(), QosClass::High).wait().unwrap();
        let second = service.submit(request, QosClass::High).wait().unwrap();
        let (a, b) = match (&first.outcome, &second.outcome) {
            (
                Outcome::Allocated { best: a, cached: ca, .. },
                Outcome::Allocated { best: b, cached: cb, .. },
            ) => {
                assert!(!ca);
                assert!(cb, "second identical request must be a cache hit");
                (*a, *b)
            }
            other => panic!("unexpected: {other:?}"),
        };
        assert_eq!(a, b);
        assert_eq!(service.shutdown().class(QosClass::High).cache_hits, 1);
    }

    #[test]
    fn unknown_type_fails_cleanly() {
        let service =
            AllocationService::new(&paper::table1_case_base(), &ServiceConfig::default().with_shards(3)).expect("valid service config");
        let request = Request::builder(TypeId::new(57).unwrap())
            .constraint(rqfa_core::AttrId::new(1).unwrap(), 1)
            .build()
            .unwrap();
        let reply = service.submit(request, QosClass::Low).wait().unwrap();
        assert!(matches!(
            reply.outcome,
            Outcome::Failed(CoreError::UnknownType { .. })
        ));
        service.shutdown();
    }

    #[test]
    fn recover_refuses_when_a_durable_shard_directory_is_missing() {
        // Losing a shard's on-disk state must fail recovery loudly, not
        // degrade its types into silent UnknownType replies.
        let dir = std::env::temp_dir().join(format!(
            "rqfa-durable-missing-shard-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let service = AllocationService::durable_create(
            &paper::table1_case_base(),
            &dir,
            &ServiceConfig::default().with_shards(3),
        )
        .unwrap();
        assert!(service.take_checkpoint_errors().is_empty());
        service.shutdown();
        std::fs::remove_dir_all(dir.join("shard-2")).unwrap();
        let result = AllocationService::durable_recover(&dir, &ServiceConfig::default());
        match result {
            Err(ServiceError::Manifest(message)) => {
                assert!(message.contains("shard-2"), "{message}");
            }
            Err(other) => panic!("wrong error kind: {other}"),
            Ok(_) => panic!("missing shard state must not recover silently"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_create_purges_stale_shard_directories() {
        // Regression: re-creating durable state in a directory used to
        // leave old `shard-<i>` dirs behind; a shard empty under the new
        // layout would then resurrect the *old* case base on recover.
        let dir = std::env::temp_dir().join(format!(
            "rqfa-durable-purge-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Layout 1: 2 types over 3 shards → shard-1 and shard-2 durable.
        let first = AllocationService::durable_create(
            &paper::table1_case_base(),
            &dir,
            &ServiceConfig::default().with_shards(3),
        )
        .unwrap();
        first.shutdown();
        assert!(dir.join("shard-2").is_dir());

        // Layout 2: only FIR (TypeId 1) over 2 shards → shard-1 only.
        let cb = CaseBase::new(
            paper::table1_case_base().bounds().clone(),
            vec![paper::table1_case_base().function_types()[0].clone()],
        )
        .unwrap();
        let second = AllocationService::durable_create(
            &cb,
            &dir,
            &ServiceConfig::default().with_shards(2),
        )
        .unwrap();
        second.shutdown();
        assert!(
            !dir.join("shard-2").is_dir(),
            "stale shard dir from the old layout must be purged"
        );

        // Recovery serves the new layout: FFT (TypeId 2) is unknown now.
        let (recovered, reports) = AllocationService::durable_recover(
            &dir,
            &ServiceConfig::default(),
        )
        .unwrap();
        assert_eq!(reports.len(), 2);
        let request = Request::builder(TypeId::new(2).unwrap())
            .constraint(rqfa_core::AttrId::new(1).unwrap(), 10)
            .build()
            .unwrap();
        let reply = recovered.submit(request, QosClass::Medium).wait().unwrap();
        assert!(matches!(
            reply.outcome,
            Outcome::Failed(CoreError::UnknownType { .. })
        ));
        recovered.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn zero_shards_is_a_config_error_not_a_clamp() {
        // Regression: `with_shards(0)` used to clamp silently to one
        // shard, making `shards=0` mean something it shouldn't. Now the
        // value is stored verbatim and construction refuses it loudly.
        assert_eq!(ServiceConfig::default().with_shards(0).shards, 0);
        let Err(err) = AllocationService::new(
            &paper::table1_case_base(),
            &ServiceConfig::default().with_shards(0),
        ) else {
            panic!("zero shards must be rejected")
        };
        assert!(matches!(err, ServiceError::Config(_)), "{err}");
        // The durable constructor validates before touching the disk.
        let dir = std::env::temp_dir().join(format!("rqfa-zero-shards-{}", std::process::id()));
        let Err(err) = AllocationService::durable_create(
            &paper::table1_case_base(),
            &dir,
            &ServiceConfig::default().with_shards(0),
        ) else {
            panic!("zero shards must be rejected")
        };
        assert!(matches!(err, ServiceError::Config(_)), "{err}");
        assert!(!dir.exists(), "rejected config must not create state");
    }

    #[test]
    fn shutdown_answers_everything_first() {
        let service = AllocationService::new(
            &paper::table1_case_base(),
            &ServiceConfig::default().with_batch_size(2),
        ).expect("valid service config");
        let tickets: Vec<Ticket> = (0..50)
            .map(|_| service.submit(paper::table1_request().unwrap(), QosClass::Low))
            .collect();
        service.shutdown();
        for ticket in tickets {
            assert!(ticket.wait().is_some());
        }
    }
}
