//! The per-shard batching request queue with deadline-aware lanes.
//!
//! One [`ClassQueue`] feeds each shard worker: four class-indexed lanes
//! behind one mutex, a condvar to park the worker when idle, and the
//! [`WeightedArbiter`] deciding which lane
//! each batch slot is drawn from.
//!
//! ## Lane ordering
//!
//! Each lane is an ordered map keyed by `(sort key, sequence)`. In
//! [`SchedMode::Edf`] the sort key is the job's *effective deadline*
//! (its explicit per-request deadline, else enqueue time + class
//! budget); a job with no deadline at all carries an explicit
//! no-deadline sentinel that orders **after every instant**, so *any*
//! explicit deadline — however far in the future — sorts ahead of the
//! deadline-free backlog, and deadline-free jobs keep arrival order
//! among themselves. The lane head is therefore always the job closest
//! to missing — earliest-deadline-first. In [`SchedMode::Fifo`] the sort
//! key is the enqueue time, reproducing strict arrival order. The
//! monotonic sequence breaks ties deterministically, so two runs over the
//! same trace dispatch — and shed — identically.
//!
//! ## Overload policy
//!
//! Admission limits step with urgency so total queue memory stays
//! bounded while less-urgent traffic sheds first: a LOW job is refused
//! once `capacity` jobs are queued, MEDIUM at `2 × capacity`, HIGH at
//! `4 × capacity`; CRITICAL is always admitted — it must never be shed.
//! At its limit a sheddable class sheds by **largest slack first**: if
//! the newcomer's effective deadline is nearer than the lane's
//! largest-slack resident, that resident is displaced (it had the most
//! schedule room to lose) and the newcomer admitted; otherwise the
//! newcomer — itself the largest-slack job — bounces. With no deadlines
//! in play the newcomer always has the largest key, so this degrades to
//! the classic refuse-the-arrival policy (and `Fifo` mode keeps it
//! exactly). On top of admission control, effective deadlines shed
//! HIGH/MEDIUM/LOW at *dispatch* once they have expired — work that can
//! still meet its deadline is never refused by the budget.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use rqfa_core::{QosClass, Request};
use rqfa_telemetry::{clock::micros_between, monotonic, EventKind, SharedClock, TraceSink};

use crate::metrics::ServiceMetrics;
use crate::sched::{ArbiterMode, SchedMode, ServiceTimeEstimator, WeightedArbiter};
use crate::{Job, Outcome, Reply};

/// A lane's sort key: explicit instants order chronologically, and the
/// no-deadline sentinel orders after **every** instant (the derived
/// `Ord` follows variant order). The former 1-year sort *horizon*
/// misordered here: an explicit deadline beyond the horizon sorted
/// behind deadline-free jobs and was displaced first as "largest slack".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SortKey {
    /// Order by this instant: the effective deadline (EDF) or the
    /// enqueue time (FIFO).
    At(Instant),
    /// EDF job with no deadline at all: behind every deadlined job, in
    /// arrival order among themselves (via the tie-breaking sequence).
    NoDeadline,
}

/// How [`ClassQueue::push`] disposed of a job.
#[derive(Debug)]
pub enum Admission {
    /// The job was queued.
    Admitted,
    /// The job was queued by displacing the same-class resident with the
    /// largest slack — the displaced job must be answered as shed.
    Displaced(Job),
    /// The job was refused (class limit reached and the job itself holds
    /// the largest slack, or the queue is shut down).
    Refused(Job),
    /// Predictive shed: the measured service rate says the job's
    /// deadline cannot be met even if queued, so it is refused *fast*
    /// instead of occupying a slot it is doomed to shed at dispatch.
    /// Carries the predicted lateness in µs.
    Doomed {
        /// The refused job (the caller answers it).
        job: Job,
        /// Predicted completion lateness had the job been queued, µs.
        late_us: u64,
    },
}

struct Inner {
    lanes: [BTreeMap<(SortKey, u64), Job>; QosClass::COUNT],
    arbiter: WeightedArbiter,
    len: usize,
    seq: u64,
    shutdown: bool,
}

impl Inner {
    fn backlogged(&self) -> [bool; QosClass::COUNT] {
        [
            !self.lanes[0].is_empty(),
            !self.lanes[1].is_empty(),
            !self.lanes[2].is_empty(),
            !self.lanes[3].is_empty(),
        ]
    }

    /// Which lane heads are within `margin` of their effective deadline
    /// *and still viable*. An already-expired head is deliberately not
    /// urgent: promoting it spends rescue bandwidth on a job that sheds
    /// at dispatch anyway — it drains at the lane's weighted rate
    /// instead.
    fn urgent(&self, now: Instant, margin: Duration) -> [bool; QosClass::COUNT] {
        let mut urgent = [false; QosClass::COUNT];
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some((_, head)) = lane.first_key_value() {
                if let Some(deadline) = head.deadline {
                    urgent[i] =
                        now <= deadline && deadline.saturating_duration_since(now) <= margin;
                }
            }
        }
        urgent
    }
}

/// A bounded, class-aware, deadline-aware MPSC job queue feeding one
/// shard worker.
pub struct ClassQueue {
    inner: Mutex<Inner>,
    available: Condvar,
    capacity: usize,
    mode: SchedMode,
    promotion_margin: Duration,
    metrics: Arc<ServiceMetrics>,
    /// Time source for urgency checks and trace timestamps — injected so
    /// the scheduler is drivable deterministically.
    clock: SharedClock,
    /// Where admission and `Scheduled` events go (detached = tracing
    /// off); stamped in µs since the clock's origin.
    trace: TraceSink,
    /// Measured batch-service-time estimator, fed by the shard worker.
    /// While cold (never fed) it reports 0: fixed margins, no
    /// deadline-aware batch composition, no predictive shedding.
    estimator: ServiceTimeEstimator,
    /// Whether admission refuses deadlined sheddable jobs the estimator
    /// predicts cannot finish in time even if queued (see
    /// [`Admission::Doomed`]). Off by default.
    predictive_shed: bool,
}

impl ClassQueue {
    /// A queue admitting at most `capacity` jobs (min 1) across classes,
    /// ordered per `mode`, scheduled by `arbiter`; lane heads within
    /// `promotion_margin_us` of their deadline are flagged urgent to the
    /// arbiter (EDF mode only). Promotions are counted into `metrics`.
    /// Uses the wall clock and no tracing; see
    /// [`ClassQueue::with_telemetry`].
    pub fn new(
        capacity: usize,
        arbiter: WeightedArbiter,
        mode: SchedMode,
        promotion_margin_us: u64,
        metrics: Arc<ServiceMetrics>,
    ) -> ClassQueue {
        ClassQueue {
            inner: Mutex::new(Inner {
                lanes: Default::default(),
                arbiter,
                len: 0,
                seq: 0,
                shutdown: false,
            }),
            available: Condvar::new(),
            capacity: capacity.max(1),
            mode,
            promotion_margin: Duration::from_micros(promotion_margin_us),
            metrics,
            clock: monotonic(),
            trace: TraceSink::default(),
            estimator: ServiceTimeEstimator::new(),
            predictive_shed: false,
        }
    }

    /// Replaces the queue's time source and trace sink. Stamps count
    /// from the clock's origin, so queues sharing a clock share a time
    /// base.
    pub fn with_telemetry(mut self, clock: SharedClock, trace: TraceSink) -> ClassQueue {
        self.clock = clock;
        self.trace = trace;
        self
    }

    /// Enables predictive shedding at admission (dormant while the
    /// estimator is cold).
    pub fn with_predictive_shed(mut self, on: bool) -> ClassQueue {
        self.predictive_shed = on;
        self
    }

    /// The shard's measured service-time estimator. The worker feeds it
    /// each batch's service time; with it the queue (in EDF mode) sizes
    /// the [`ArbiterMode::DynamicPriority`] urgency margin from live
    /// measurement ([`ServiceTimeEstimator::margin_us`], falling back to
    /// the configured fixed margin while cold) and stops filling a
    /// batch when the next pick would make an already-picked job miss
    /// its effective deadline.
    pub(crate) fn estimator(&self) -> &ServiceTimeEstimator {
        &self.estimator
    }

    /// Predicted lateness (µs) of a deadlined sheddable job arriving
    /// now, from the warm estimator's per-job rate over the current
    /// backlog: with `n` jobs already queued the newcomer completes
    /// after roughly `(n + 1) × per_job_us`. `None` = viable (or not
    /// predictable: predictive shedding off, cold estimator, CRITICAL,
    /// or no deadline).
    fn predicted_lateness(&self, job: &Job, queued: usize, now: Instant) -> Option<u64> {
        if !self.predictive_shed || !job.class.sheddable() {
            return None;
        }
        let deadline = job.deadline?;
        if self.estimator.samples() == 0 {
            return None;
        }
        let per_job = self.estimator.per_job_us();
        let predicted_us = per_job.checked_mul(queued as u64 + 1)?;
        let completes = now + Duration::from_micros(predicted_us);
        if completes > deadline {
            Some(micros_between(deadline, completes))
        } else {
            None
        }
    }

    /// The lane sort key of a job under this queue's mode.
    fn sort_key(&self, job: &Job) -> SortKey {
        match self.mode {
            SchedMode::Fifo => SortKey::At(job.enqueued_at),
            SchedMode::Edf => job.deadline.map_or(SortKey::NoDeadline, SortKey::At),
        }
    }

    /// The service front end: admits request `id`, submitted now, and
    /// returns the receiver its reply arrives on. Counts the request as
    /// submitted, records its `Submitted` event and the admission
    /// outcome (`Admitted`, `Displaced`, `Refused`, `ShedQueueFull`,
    /// `ShedPredicted`), and answers at once whatever admission sheds: a
    /// displaced resident, a refused newcomer or a doomed one. The live
    /// service and the deterministic replay both submit through here.
    pub(crate) fn submit(
        &self,
        id: u64,
        class: QosClass,
        request: Request,
        deadline: Option<Duration>,
        budget_us: &[Option<u64>; QosClass::COUNT],
    ) -> mpsc::Receiver<Reply> {
        self.metrics
            .class(class)
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        let now = self.clock.now();
        let at_us = self.clock.us_at(now);
        let record = |request_id: u64, class: QosClass, kind: EventKind, arg: u64| {
            self.trace
                .record_at(at_us, request_id, class.index() as u8, kind, arg);
        };
        record(id, class, EventKind::Submitted, 0);
        let (job, rx) = Job::new(id, class, request, now, deadline, budget_us);
        let shed_queue_full = |class: QosClass| {
            self.metrics
                .class(class)
                .shed_queue_full
                .fetch_add(1, Ordering::Relaxed);
        };
        match self.push(job) {
            Admission::Admitted => record(id, class, EventKind::Admitted, 0),
            Admission::Displaced(victim) => {
                // The newcomer took the largest-slack resident's slot.
                record(id, class, EventKind::Admitted, 0);
                record(victim.id, victim.class, EventKind::Displaced, id);
                record(victim.id, victim.class, EventKind::ShedQueueFull, 0);
                shed_queue_full(victim.class);
                let waited = micros_between(victim.enqueued_at, now);
                victim.reply(Outcome::ShedQueueFull, waited, &self.metrics);
            }
            Admission::Refused(job) => {
                record(id, class, EventKind::Refused, 0);
                record(id, class, EventKind::ShedQueueFull, 0);
                shed_queue_full(class);
                job.reply(Outcome::ShedQueueFull, 0, &self.metrics);
            }
            Admission::Doomed { job, late_us } => {
                record(id, class, EventKind::Refused, 0);
                record(id, class, EventKind::ShedPredicted, late_us);
                self.metrics
                    .class(class)
                    .shed_predicted
                    .fetch_add(1, Ordering::Relaxed);
                job.reply(Outcome::ShedPredicted { late_us }, 0, &self.metrics);
            }
        }
        rx
    }

    /// Enqueues a job. See [`Admission`] for the three outcomes; the
    /// class's admission limit is LOW: 1× capacity, MEDIUM: 2×, HIGH:
    /// 4×, CRITICAL: unlimited.
    pub fn push(&self, job: Job) -> Admission {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.shutdown {
            return Admission::Refused(job);
        }
        if let Some(late_us) = self.predicted_lateness(&job, inner.len, self.clock.now()) {
            // Refuse-fast: the measured service rate says this job
            // sheds at dispatch anyway; answering now costs nothing and
            // keeps the doomed work from occupying a queue slot.
            drop(inner);
            return Admission::Doomed { job, late_us };
        }
        let limit = match job.class {
            QosClass::Critical => usize::MAX,
            QosClass::High => self.capacity.saturating_mul(4),
            QosClass::Medium => self.capacity.saturating_mul(2),
            QosClass::Low => self.capacity,
        };
        let key = (self.sort_key(&job), inner.seq);
        inner.seq += 1;
        if inner.len >= limit {
            // Shed by largest slack: the lane's last key is its
            // largest-slack resident. Strict `<` keeps the no-deadline
            // (and Fifo) case on the classic refuse-the-arrival policy.
            let lane = &mut inner.lanes[job.class.index()];
            if job.class.sheddable() {
                if let Some((&last_key, _)) = lane.last_key_value() {
                    if key.0 < last_key.0 {
                        let (_, victim) = lane.pop_last().expect("lane non-empty");
                        lane.insert(key, job);
                        drop(inner);
                        self.available.notify_one();
                        return Admission::Displaced(victim);
                    }
                }
            }
            return Admission::Refused(job);
        }
        inner.lanes[job.class.index()].insert(key, job);
        inner.len += 1;
        drop(inner);
        self.available.notify_one();
        Admission::Admitted
    }

    /// Pops the next batch of up to `max` jobs, blocking while the queue
    /// is empty. Returns `None` once the queue is shut down *and* drained,
    /// which is the worker's signal to exit.
    pub fn pop_batch(&self, max: usize) -> Option<Vec<Job>> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if inner.len > 0 {
                break;
            }
            if inner.shutdown {
                return None;
            }
            inner = self.available.wait(inner).expect("queue poisoned");
        }
        // DYNAMIC_PRIORITY sizes the urgency margin from measurement;
        // every other mode keeps the configured fixed margin. The
        // estimator is written only by this shard's worker — the thread
        // running this very loop — so both reads are stable across the
        // whole fill.
        let margin = match inner.arbiter.mode() {
            ArbiterMode::DynamicPriority => Duration::from_micros(
                self.estimator
                    .margin_us(self.promotion_margin.as_micros() as u64),
            ),
            _ => self.promotion_margin,
        };
        self.metrics.sched_margin_us.set(margin.as_micros() as u64);
        let per_job_us = self.estimator.per_job_us();
        // Tightest effective deadline among jobs already picked — the
        // deadline-aware composition bound.
        let mut tightest: Option<Instant> = None;
        let mut batch = Vec::with_capacity(max.min(inner.len));
        while batch.len() < max {
            // Re-stamp every pick: under a real clock the urgency flags
            // and `Scheduled` trace stamps must not go stale across a
            // long batch. A frozen manual clock returns the same instant
            // each read, so deterministic replays are unaffected.
            let now = self.clock.now();
            if self.mode == SchedMode::Edf && per_job_us > 0 {
                if let Some(tight) = tightest {
                    // Stop filling when the estimator says one more pick
                    // would turn an already-picked job from meeting its
                    // deadline into missing it. An already-late batch
                    // keeps filling — stopping cannot unmiss it.
                    let len = batch.len() as u64;
                    let finish = now + Duration::from_micros(per_job_us * len);
                    let next = now + Duration::from_micros(per_job_us * (len + 1));
                    if finish <= tight && next > tight {
                        break;
                    }
                }
            }
            let Some(pick) = ({
                let backlogged = inner.backlogged();
                let urgent = match self.mode {
                    SchedMode::Edf => inner.urgent(now, margin),
                    SchedMode::Fifo => [false; QosClass::COUNT],
                };
                inner.arbiter.pick_urgent(backlogged, urgent)
            }) else {
                break;
            };
            let (_, job) = inner.lanes[pick.class.index()]
                .pop_first()
                .expect("arbiter picked a backlogged lane");
            let class_metrics = self.metrics.class(pick.class);
            class_metrics.picks.fetch_add(1, Ordering::Relaxed);
            if pick.promoted {
                class_metrics.promoted.fetch_add(1, Ordering::Relaxed);
            }
            self.trace.record_at(
                self.clock.us_at(now),
                job.id,
                job.class.index() as u8,
                EventKind::Scheduled,
                u64::from(pick.promoted),
            );
            if self.mode == SchedMode::Edf {
                if let Some(deadline) = job.deadline {
                    tightest = Some(tightest.map_or(deadline, |t| t.min(deadline)));
                }
            }
            inner.len -= 1;
            batch.push(job);
        }
        Some(batch)
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").len
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Initiates shutdown: new pushes are refused, blocked workers wake,
    /// and `pop_batch` drains the backlog before returning `None`.
    pub fn shutdown(&self) {
        self.inner.lock().expect("queue poisoned").shutdown = true;
        self.available.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use rqfa_core::ids::{AttrId, TypeId};
    use rqfa_core::Request;

    fn request() -> Request {
        Request::builder(TypeId::new(1).unwrap())
            .constraint(AttrId::new(1).unwrap(), 5)
            .build()
            .unwrap()
    }

    fn job(id: u64, class: QosClass) -> Job {
        testkit::job(id, class, request(), Instant::now(), None).0
    }

    fn deadline_job(id: u64, class: QosClass, base: Instant, deadline_us: u64) -> Job {
        testkit::job(
            id,
            class,
            request(),
            base,
            Some(base + Duration::from_micros(deadline_us)),
        )
        .0
    }

    fn queue(capacity: usize) -> ClassQueue {
        queue_mode(capacity, SchedMode::Edf)
    }

    fn queue_mode(capacity: usize, mode: SchedMode) -> ClassQueue {
        ClassQueue::new(
            capacity,
            WeightedArbiter::new(),
            mode,
            0,
            Arc::new(ServiceMetrics::default()),
        )
    }

    fn push_ok(q: &ClassQueue, job: Job) {
        assert!(matches!(q.push(job), Admission::Admitted));
    }

    #[test]
    fn fifo_within_class_weighted_across_classes() {
        // Without deadlines EDF degrades to arrival order inside a lane.
        let q = queue(64);
        for id in 0..4 {
            push_ok(&q, job(id, QosClass::Low));
        }
        for id in 4..8 {
            push_ok(&q, job(id, QosClass::Critical));
        }
        let batch = q.pop_batch(8).unwrap();
        assert_eq!(batch.len(), 8);
        // Critical jobs dominate the front of the batch.
        assert_eq!(batch[0].class, QosClass::Critical);
        let crit_ids: Vec<u64> = batch
            .iter()
            .filter(|j| j.class == QosClass::Critical)
            .map(|j| j.id)
            .collect();
        assert_eq!(crit_ids, [4, 5, 6, 7], "arrival order inside a class");
    }

    #[test]
    fn edf_orders_a_lane_by_effective_deadline() {
        let q = queue(64);
        let base = Instant::now();
        // Insertion order 0..4 with deadlines 40/10/30/20 ms — and one
        // deadline-free job that must sort behind all of them.
        for (id, us) in [(0, 40_000u64), (1, 10_000), (2, 30_000), (3, 20_000)] {
            push_ok(&q, deadline_job(id, QosClass::High, base, us));
        }
        push_ok(&q, testkit::job(4, QosClass::High, request(), base, None).0);
        let order: Vec<u64> = q.pop_batch(8).unwrap().iter().map(|j| j.id).collect();
        assert_eq!(order, [1, 3, 2, 0, 4], "earliest deadline first");
    }

    #[test]
    fn fifo_mode_ignores_deadlines() {
        let q = queue_mode(64, SchedMode::Fifo);
        let base = Instant::now();
        for (id, us) in [(0, 40_000u64), (1, 10_000), (2, 30_000), (3, 20_000)] {
            push_ok(&q, deadline_job(id, QosClass::High, base, us));
        }
        let order: Vec<u64> = q.pop_batch(8).unwrap().iter().map(|j| j.id).collect();
        assert_eq!(order, [0, 1, 2, 3], "strict arrival order");
    }

    #[test]
    fn low_is_refused_when_full_but_critical_is_not() {
        let q = queue(2);
        push_ok(&q, job(0, QosClass::Low));
        push_ok(&q, job(1, QosClass::Low));
        assert!(matches!(q.push(job(2, QosClass::Low)), Admission::Refused(_)));
        push_ok(&q, job(3, QosClass::Critical));
        push_ok(&q, job(4, QosClass::High));
        assert_eq!(q.len(), 4);
    }

    #[test]
    fn admission_limits_step_with_urgency() {
        // capacity 2 → LOW refused at 2, MEDIUM at 4, HIGH at 8,
        // CRITICAL never: total memory stays bounded for sheddable
        // classes even with no deadline budgets configured.
        let q = queue(2);
        let fill = |q: &ClassQueue, class, n: u64| {
            (0..n)
                .filter(|&i| matches!(q.push(job(i, class)), Admission::Admitted))
                .count()
        };
        assert_eq!(fill(&q, QosClass::Low, 10), 2);
        assert_eq!(fill(&q, QosClass::Medium, 10), 2); // len 2 → stops at 4
        assert_eq!(fill(&q, QosClass::High, 10), 4); // len 4 → stops at 8
        assert!(matches!(q.push(job(99, QosClass::Medium)), Admission::Refused(_)));
        assert!(matches!(q.push(job(99, QosClass::Low)), Admission::Refused(_)));
        assert_eq!(fill(&q, QosClass::Critical, 10), 10); // unbounded
        assert_eq!(q.len(), 18);
    }

    #[test]
    fn overload_displaces_the_largest_slack_resident() {
        let q = queue(3);
        let base = Instant::now();
        push_ok(&q, deadline_job(0, QosClass::Low, base, 40_000));
        push_ok(&q, deadline_job(1, QosClass::Low, base, 10_000));
        push_ok(&q, deadline_job(2, QosClass::Low, base, 30_000));
        // Full. A tighter newcomer displaces id 0 (largest slack)…
        match q.push(deadline_job(3, QosClass::Low, base, 5_000)) {
            Admission::Displaced(victim) => assert_eq!(victim.id, 0),
            other => panic!("expected displacement, got {other:?}"),
        }
        // …while a looser newcomer (now the largest slack itself) bounces.
        match q.push(deadline_job(4, QosClass::Low, base, 50_000)) {
            Admission::Refused(refused) => assert_eq!(refused.id, 4),
            other => panic!("expected refusal, got {other:?}"),
        }
        assert_eq!(q.len(), 3);
        let order: Vec<u64> = q.pop_batch(8).unwrap().iter().map(|j| j.id).collect();
        assert_eq!(order, [3, 1, 2], "survivors dispatch EDF");
    }

    #[test]
    fn far_deadline_sorts_before_no_deadline() {
        // Regression: an explicit deadline beyond the old 1-year sort
        // horizon used to sort *behind* deadline-free jobs — and was
        // displaced first as "largest slack" under overload. Any
        // explicit deadline must order before the no-deadline sentinel.
        let q = queue(2);
        let base = Instant::now();
        let two_years_us = 2 * 365 * 24 * 3600 * 1_000_000u64;
        push_ok(&q, testkit::job(0, QosClass::Low, request(), base, None).0);
        push_ok(&q, deadline_job(1, QosClass::Low, base, two_years_us));
        // Full. The tight newcomer must displace the no-deadline job,
        // not the far-deadline one.
        match q.push(deadline_job(2, QosClass::Low, base, 1_000)) {
            Admission::Displaced(victim) => {
                assert_eq!(victim.id, 0, "the deadline-free job holds the largest slack");
            }
            other => panic!("expected displacement, got {other:?}"),
        }
        let order: Vec<u64> = q.pop_batch(8).unwrap().iter().map(|j| j.id).collect();
        assert_eq!(order, [2, 1], "far deadline dispatches before none");
    }

    /// Tiny deterministic generator (splitmix64) for the mixed-trace
    /// property test below.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn sort_order_matches_the_documented_contract_under_mixed_traces() {
        // Property: over random mixes of no-deadline / near-deadline /
        // far-deadline jobs (far: beyond the old 1-year horizon), one
        // lane's pop order equals the documented total order in both
        // modes — EDF: explicit deadlines ascending then deadline-free
        // in arrival order, ties by sequence; FIFO: strict arrival
        // order, deadlines ignored.
        let year_us = 365u64 * 24 * 3600 * 1_000_000;
        for seed in 0..8u64 {
            for mode in [SchedMode::Edf, SchedMode::Fifo] {
                let mut state = seed ^ 0xEDF0;
                let q = queue_mode(1024, mode);
                let base = Instant::now();
                // (id, absolute deadline in µs from base, if any);
                // arrival instants strictly increase with id.
                let mut jobs: Vec<(u64, Option<u64>)> = Vec::new();
                for id in 0..64u64 {
                    let deadline_us = match splitmix(&mut state) % 3 {
                        0 => None,
                        1 => Some(id + splitmix(&mut state) % 100_000),
                        _ => Some(id + year_us + splitmix(&mut state) % year_us),
                    };
                    let enqueued = base + Duration::from_micros(id);
                    let deadline =
                        deadline_us.map(|at| base + Duration::from_micros(at));
                    push_ok(
                        &q,
                        testkit::job(id, QosClass::High, request(), enqueued, deadline).0,
                    );
                    jobs.push((id, deadline_us));
                }
                let mut expected: Vec<u64> = jobs.iter().map(|&(id, _)| id).collect();
                if mode == SchedMode::Edf {
                    // Push order == sequence order, so (deadline-free
                    // last, deadline ascending, id) is the contract.
                    expected.sort_by_key(|&id| {
                        let (_, deadline) = jobs[usize::try_from(id).unwrap()];
                        (deadline.is_none(), deadline.unwrap_or(0), id)
                    });
                }
                let order: Vec<u64> =
                    q.pop_batch(jobs.len()).unwrap().iter().map(|j| j.id).collect();
                assert_eq!(order, expected, "mode {mode:?}, seed {seed}");
            }
        }
    }

    /// A clock that jumps forward one fixed step on every read — makes
    /// the per-pick clock re-read in `pop_batch` observable.
    #[derive(Debug)]
    struct TickingClock {
        base: Instant,
        step_us: u64,
        reads: std::sync::atomic::AtomicU64,
    }

    impl rqfa_telemetry::Clock for TickingClock {
        fn now(&self) -> Instant {
            let n = self.reads.fetch_add(1, Ordering::SeqCst);
            self.base + Duration::from_micros(self.step_us * n)
        }

        fn origin(&self) -> Instant {
            self.base
        }
    }

    #[test]
    fn scheduled_stamps_re_read_the_clock_per_pick() {
        // Regression: `pop_batch` used to read the clock once before the
        // fill loop, so every `Scheduled` event in a batch carried the
        // same stamp (and urgency went stale) under an advancing clock.
        let clock: SharedClock = Arc::new(TickingClock {
            base: Instant::now(),
            step_us: 10,
            reads: std::sync::atomic::AtomicU64::new(0),
        });
        let trace = TraceSink::with_capacity(64);
        let q = ClassQueue::new(
            64,
            WeightedArbiter::new(),
            SchedMode::Edf,
            0,
            Arc::new(ServiceMetrics::default()),
        )
        .with_telemetry(Arc::clone(&clock), trace.clone());
        for id in 0..4 {
            push_ok(&q, job(id, QosClass::High));
        }
        assert_eq!(q.pop_batch(4).unwrap().len(), 4);
        let stamps: Vec<u64> = trace
            .drain()
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Scheduled)
            .map(|e| e.at_us)
            .collect();
        assert_eq!(stamps.len(), 4);
        for pair in stamps.windows(2) {
            assert!(pair[1] > pair[0], "each pick re-reads the clock: {stamps:?}");
        }
    }

    #[test]
    fn expired_heads_are_not_urgent() {
        // Regression: an already-expired lane head used to flag its lane
        // urgent (slack saturates to zero ≤ margin), so promotions spent
        // rescue bandwidth on jobs that shed at dispatch anyway. An
        // expired head must drain at the lane's weighted rate; a viable
        // head inside the margin must still be promoted.
        let manual = Arc::new(rqfa_telemetry::ManualClock::new());
        let clock: SharedClock = Arc::clone(&manual) as SharedClock;
        let base = clock.now();
        let metrics = Arc::new(ServiceMetrics::default());
        let q = ClassQueue::new(
            64,
            WeightedArbiter::new(),
            SchedMode::Edf,
            1_000,
            Arc::clone(&metrics),
        )
        .with_telemetry(Arc::clone(&clock), TraceSink::default());
        push_ok(&q, deadline_job(0, QosClass::Low, base, 100));
        for id in 1..4 {
            push_ok(&q, job(id, QosClass::Critical));
        }
        manual.advance_us(200); // LOW's head is now 100 µs past its deadline
        let first = q.pop_batch(1).unwrap();
        assert_eq!(first[0].class, QosClass::Critical, "expired head attracts no promotion");
        assert_eq!(metrics.class(QosClass::Low).promoted.load(Ordering::Relaxed), 0);
        // Control: the same shape with a still-viable head inside the
        // margin is promoted ahead of CRITICAL as before.
        let metrics2 = Arc::new(ServiceMetrics::default());
        let q2 = ClassQueue::new(
            64,
            WeightedArbiter::new(),
            SchedMode::Edf,
            1_000,
            Arc::clone(&metrics2),
        )
        .with_telemetry(Arc::clone(&clock), TraceSink::default());
        push_ok(&q2, deadline_job(10, QosClass::Low, clock.now(), 500));
        for id in 11..14 {
            push_ok(&q2, job(id, QosClass::Critical));
        }
        let next = q2.pop_batch(1).unwrap();
        assert_eq!(next[0].id, 10, "viable head inside the margin jumps the order");
        assert_eq!(metrics2.class(QosClass::Low).promoted.load(Ordering::Relaxed), 1);
    }

    /// An EDF queue on `clock` whose estimator has seen one batch of
    /// `batch_us` µs over `jobs` jobs (`jobs == 0` leaves it cold).
    fn estimated_queue(clock: &SharedClock, batch_us: u64, jobs: usize) -> ClassQueue {
        let q = queue(64).with_telemetry(Arc::clone(clock), TraceSink::default());
        q.estimator().observe(batch_us, jobs);
        q
    }

    #[test]
    fn estimator_caps_the_batch_at_the_tightest_picked_deadline() {
        // 50 µs estimated per job against a 100 µs deadline: two picks
        // fit, a third would turn job 0 from meeting its deadline into
        // missing it, so the fill stops at 2 of max 8.
        let clock: SharedClock = Arc::new(rqfa_telemetry::ManualClock::new());
        let base = clock.now();
        let q = estimated_queue(&clock, 100, 2);
        push_ok(&q, deadline_job(0, QosClass::High, base, 100));
        for id in 1..8 {
            push_ok(&q, job(id, QosClass::High));
        }
        let batch = q.pop_batch(8).unwrap();
        assert_eq!(batch.len(), 2, "fill stops before an estimated miss");
        assert_eq!(batch[0].id, 0);
        assert_eq!(q.len(), 6);
    }

    #[test]
    fn an_already_late_batch_keeps_filling() {
        // 100 µs estimated per job against a 50 µs deadline: job 0 is
        // late after its own service time alone. Capping the batch
        // cannot unmiss it, so the fill must keep going to max.
        let clock: SharedClock = Arc::new(rqfa_telemetry::ManualClock::new());
        let base = clock.now();
        let q = estimated_queue(&clock, 100, 1);
        push_ok(&q, deadline_job(0, QosClass::High, base, 50));
        for id in 1..8 {
            push_ok(&q, job(id, QosClass::High));
        }
        assert_eq!(q.pop_batch(8).unwrap().len(), 8);
    }

    #[test]
    fn predictive_shedding_dooms_only_the_truly_doomed() {
        // 100 µs estimated per job. Five jobs already queued, so a
        // newcomer completes at ~(5+1)×100 = 600 µs.
        let clock: SharedClock = Arc::new(rqfa_telemetry::ManualClock::new());
        let base = clock.now();
        let q = estimated_queue(&clock, 100, 1).with_predictive_shed(true);
        for id in 0..5 {
            push_ok(&q, job(id, QosClass::Low));
        }
        // Doomed: 300 µs deadline against a 600 µs predicted completion.
        match q.push(deadline_job(10, QosClass::Low, base, 300)) {
            Admission::Doomed { job, late_us } => {
                assert_eq!(job.id, 10);
                assert_eq!(late_us, 300, "predicted 600 µs against a 300 µs deadline");
            }
            other => panic!("expected Doomed, got {other:?}"),
        }
        // Viable: 1 ms of slack admits normally.
        push_ok(&q, deadline_job(11, QosClass::Low, base, 1_000));
        // No deadline: nothing to predict against.
        push_ok(&q, job(12, QosClass::Low));
        // CRITICAL is never sheddable, predicted lateness or not.
        push_ok(&q, deadline_job(13, QosClass::Critical, base, 1));
    }

    #[test]
    fn predictive_shedding_stays_dormant_when_cold_or_disabled() {
        let clock: SharedClock = Arc::new(rqfa_telemetry::ManualClock::new());
        let base = clock.now();
        // Cold estimator (no samples): admit even hopeless deadlines.
        let cold = estimated_queue(&clock, 0, 0).with_predictive_shed(true);
        for id in 0..5 {
            push_ok(&cold, job(id, QosClass::Low));
        }
        push_ok(&cold, deadline_job(10, QosClass::Low, base, 1));
        // Feature off: a warm estimator must not shed either.
        let off = estimated_queue(&clock, 100, 1);
        for id in 0..5 {
            push_ok(&off, job(id, QosClass::Low));
        }
        push_ok(&off, deadline_job(10, QosClass::Low, base, 1));
    }

    #[test]
    fn pop_respects_batch_limit() {
        let q = queue(64);
        for id in 0..10 {
            push_ok(&q, job(id, QosClass::Medium));
        }
        assert_eq!(q.pop_batch(4).unwrap().len(), 4);
        assert_eq!(q.len(), 6);
    }

    #[test]
    fn shutdown_drains_then_ends() {
        let q = queue(64);
        push_ok(&q, job(0, QosClass::Low));
        q.shutdown();
        assert!(matches!(q.push(job(1, QosClass::Critical)), Admission::Refused(_)));
        assert_eq!(q.pop_batch(8).unwrap().len(), 1);
        assert!(q.pop_batch(8).is_none());
    }

    #[test]
    fn blocked_pop_wakes_on_push() {
        let q = Arc::new(queue(8));
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || q2.pop_batch(1).map(|b| b.len()));
        std::thread::sleep(std::time::Duration::from_millis(20));
        push_ok(&q, job(0, QosClass::High));
        assert_eq!(handle.join().unwrap(), Some(1));
    }
}
