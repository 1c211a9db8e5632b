//! Deterministic trace replay through the real service pipeline.
//!
//! The live [`AllocationService`](crate::AllocationService) is
//! intentionally concurrent: worker threads race the submitters, so two
//! runs of the same workload interleave differently and produce different
//! latency histograms. That is correct for production and useless for a
//! regression trajectory. [`TraceDriver`] removes exactly the two sources
//! of nondeterminism — threads and the wall clock — and keeps everything
//! else. Each shard is built by the service's own shard assembly, and
//! arrivals enter through the service's own admission front end on the
//! real [`ClassQueue`] (same admission limits, displacement, predictive
//! shedding, EDF lanes, weighted arbiter, promotions), so every
//! [`ServiceConfig`] knob acts here as it does live. Batches run
//! through the real worker batch path (same coalescing, cache, plane
//! kernel, metrics commit), all under a [`ManualClock`] driven by a
//! single-threaded discrete-event loop. All shards share one flight
//! recorder, so the trace keeps the global order of events.
//!
//! ## Event model
//!
//! Time advances only to the next *event*: an arrival instant from the
//! trace, or the instant a busy shard becomes free. At each event time
//! `t`, arrivals at `t` are submitted first, then every shard that is
//! free and backlogged dispatches one batch. A dispatched batch is
//! *processed at* `t` (queue wait is the reply latency, exactly as in the
//! live service where a worker stamps the batch when it picks it up) and
//! occupies its shard until `t + cost(batch)`, where
//! [`CostModel`] prices a batch as `dispatch_overhead_us` plus
//! `per_request_us` per job. Shards dispatch in ascending index order;
//! ties between arrivals are broken by trace order. Every choice is
//! total-ordered, so a replay is bit-identical across runs and machines —
//! `service_trace` in `rqfa-bench` replays its workload twice and asserts
//! exactly that before writing a BENCH artifact.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use rqfa_core::{CaseBase, QosClass, Request};
use rqfa_telemetry::{FlightRecorder, ManualClock, SharedClock, TraceDump};

use crate::metrics::ServiceMetrics;
use crate::queue::ClassQueue;
use crate::shard::{self, ShardStore, WorkerContext};
use crate::{MetricsSnapshot, Reply, ServiceConfig};

/// Deterministic service-time model of one dispatched batch.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// Fixed cost of one dispatch round (lock, plane check, fan-out), µs.
    pub dispatch_overhead_us: u64,
    /// Marginal cost per job in the batch, µs.
    pub per_request_us: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            dispatch_overhead_us: 50,
            per_request_us: 25,
        }
    }
}

impl CostModel {
    /// Service time of a batch of `jobs` jobs, µs (min 1, so a shard
    /// never dispatches twice at one instant).
    pub fn batch_us(&self, jobs: usize) -> u64 {
        (self.dispatch_overhead_us + self.per_request_us * jobs as u64).max(1)
    }
}

/// One timestamped request of a replayable trace.
#[derive(Debug, Clone)]
pub struct TraceArrival {
    /// Submission instant, µs from the start of the replay.
    pub at_us: u64,
    /// QoS class the request is submitted in.
    pub class: QosClass,
    /// Explicit per-request deadline, µs after submission (`None` falls
    /// back to the class budget, as in the live service).
    pub deadline_us: Option<u64>,
    /// The allocation request itself.
    pub request: Request,
}

/// What one replay produced.
#[derive(Debug)]
pub struct TraceReport {
    /// Every reply, in request-id order (one per trace arrival).
    pub replies: Vec<Reply>,
    /// The final metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// The merged flight-recorder dump (tracing is always on in a
    /// replay, sized by [`ServiceConfig::trace_capacity`] or a default).
    pub trace: TraceDump,
}

/// One replayed shard: real queue, real worker context and a free-at
/// stamp. The queue's service-time estimator is fed from the cost
/// model, so the adaptive scheduler modes close their loop
/// deterministically.
struct ReplayShard {
    queue: ClassQueue,
    store: ShardStore,
    ctx: WorkerContext,
    free_at_us: u64,
}

/// The single-threaded discrete-event driver. See the module docs.
pub struct TraceDriver {
    config: ServiceConfig,
    cost: CostModel,
    case_base: CaseBase,
}

impl TraceDriver {
    /// A driver over `case_base`, sharded and tuned by `config`.
    /// `config.clock` is ignored — the driver owns a private
    /// [`ManualClock`]; `config.trace_capacity` of 0 is raised to a
    /// default so the replay always yields a trace.
    pub fn new(case_base: &CaseBase, config: &ServiceConfig, cost: CostModel) -> TraceDriver {
        let mut config = config.clone();
        if config.trace_capacity == 0 {
            config.trace_capacity = 1 << 16;
        }
        TraceDriver {
            config,
            cost,
            case_base: case_base.clone(),
        }
    }

    /// Replays `arrivals` (sorted by `at_us` internally, trace order
    /// breaking ties) and returns replies, metrics and the event trace.
    /// Deterministic: identical inputs give an identical report.
    pub fn run(&self, arrivals: &[TraceArrival]) -> TraceReport {
        let clock = Arc::new(ManualClock::new());
        let shared: SharedClock = Arc::clone(&clock) as SharedClock;
        let epoch = shared.now();
        let metrics = Arc::new(ServiceMetrics::default());
        let recorder = Arc::new(FlightRecorder::new(self.config.trace_capacity));

        let mut shards: Vec<ReplayShard> = shard::partition(&self.case_base, self.config.shards)
            .into_iter()
            .map(|slice| {
                let (queue, ctx) = shard::assemble(
                    &self.config,
                    Arc::clone(&metrics),
                    Arc::clone(&shared),
                    Some(Arc::clone(&recorder)),
                    epoch,
                );
                ReplayShard {
                    queue,
                    store: match slice {
                        Some(cb) => ShardStore::Ephemeral(cb),
                        None => ShardStore::Empty,
                    },
                    ctx,
                    free_at_us: 0,
                }
            })
            .collect();

        // Stable sort: equal-instant arrivals keep trace order.
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        order.sort_by_key(|&i| arrivals[i].at_us);

        let batch_size = self.config.batch_size.max(1);
        let mut receivers: Vec<mpsc::Receiver<Reply>> = Vec::with_capacity(arrivals.len());
        let mut next = 0usize; // index into `order`
        loop {
            // The next event: an arrival, or a backlogged shard freeing up.
            let next_arrival = order.get(next).map(|&i| arrivals[i].at_us);
            let next_free = shards
                .iter()
                .filter(|s| !s.queue.is_empty())
                .map(|s| s.free_at_us)
                .min();
            let t = match (next_arrival, next_free) {
                (Some(a), Some(f)) => a.min(f),
                (Some(a), None) => a,
                (None, Some(f)) => f,
                (None, None) => break,
            };
            clock.set_us(t);

            // Arrivals first at equal instants: in the live service a job
            // must be queued before a worker can pick it up.
            while let Some(&i) = order.get(next) {
                if arrivals[i].at_us > t {
                    break;
                }
                let arrival = &arrivals[i];
                let shard = &shards[shard::route(arrival.request.type_id(), shards.len())];
                receivers.push(shard.queue.submit(
                    i as u64,
                    arrival.class,
                    arrival.request.clone(),
                    arrival.deadline_us.map(Duration::from_micros),
                    &self.config.deadline_budget_us,
                ));
                next += 1;
            }

            // Then every free, backlogged shard dispatches one batch,
            // processed at `t` and occupying the shard for its cost.
            for shard in &mut shards {
                if shard.free_at_us > t || shard.queue.is_empty() {
                    continue;
                }
                let batch = shard
                    .queue
                    .pop_batch(batch_size)
                    .expect("backlogged queue yields a batch");
                let served = batch.len();
                shard::process_batch(batch, &shard.store, &metrics, &mut shard.ctx);
                let batch_us = self.cost.batch_us(served);
                // The live worker measures elapsed wall time around the
                // batch; here the cost model *is* the truth, so the
                // estimator sees exactly what the event loop charges —
                // the adaptive modes replay bit-identically.
                shard.queue.estimator().observe(batch_us, served);
                shard.free_at_us = t + batch_us;
            }
        }

        let mut replies: Vec<Reply> = receivers
            .into_iter()
            .map(|rx| rx.try_recv().expect("drained replay answers every job"))
            .collect();
        replies.sort_by_key(|r| r.id);
        TraceReport {
            replies,
            metrics: metrics.snapshot(),
            trace: recorder.drain(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Outcome;
    use rqfa_core::paper;
    use rqfa_telemetry::EventKind;

    fn arrivals(n: u64, gap_us: u64) -> Vec<TraceArrival> {
        (0..n)
            .map(|i| TraceArrival {
                at_us: i * gap_us,
                class: QosClass::ALL[(i % 4) as usize],
                deadline_us: Some(5_000),
                request: paper::table1_request().unwrap(),
            })
            .collect()
    }

    #[test]
    fn replay_is_deterministic() {
        let cb = paper::table1_case_base();
        let config = ServiceConfig::default().with_shards(2).with_batch_size(4);
        let driver = TraceDriver::new(&cb, &config, CostModel::default());
        let trace = arrivals(64, 40);
        let a = driver.run(&trace);
        let b = driver.run(&trace);
        assert_eq!(a.replies, b.replies);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.trace.events.len(), b.trace.events.len());
    }

    #[test]
    fn every_arbiter_mode_replays_bit_identically() {
        // The adaptive modes close their feedback loop through the
        // estimator; fed from the cost model it is as deterministic as
        // the event loop itself, so replays stay bit-identical.
        let cb = paper::table1_case_base();
        for mode in crate::sched::ArbiterMode::ALL {
            let config = ServiceConfig::default()
                .with_shards(2)
                .with_batch_size(4)
                .with_arbiter_mode(mode);
            let driver = TraceDriver::new(&cb, &config, CostModel::default());
            let trace = arrivals(96, 20);
            let a = driver.run(&trace);
            let b = driver.run(&trace);
            assert_eq!(a.replies, b.replies, "{mode:?}");
            assert_eq!(a.metrics, b.metrics, "{mode:?}");
            assert_eq!(a.trace.events.len(), b.trace.events.len(), "{mode:?}");
        }
    }

    #[test]
    fn latencies_equal_queue_wait_under_the_cost_model() {
        // One shard, arrivals back to back: the second batch waits for
        // the first batch's service time.
        let cb = paper::table1_case_base();
        let config = ServiceConfig::default().with_shards(1).with_batch_size(1);
        let cost = CostModel {
            dispatch_overhead_us: 100,
            per_request_us: 0,
        };
        let driver = TraceDriver::new(&cb, &config, cost);
        let trace = vec![
            TraceArrival {
                at_us: 0,
                class: QosClass::Critical,
                deadline_us: None,
                request: paper::table1_request().unwrap(),
            },
            TraceArrival {
                at_us: 0,
                class: QosClass::Critical,
                deadline_us: None,
                request: paper::table1_request().unwrap(),
            },
        ];
        let report = driver.run(&trace);
        assert_eq!(report.replies[0].latency_us, 0, "dispatched at arrival");
        assert_eq!(
            report.replies[1].latency_us, 100,
            "waited out the first batch's service time"
        );
    }

    #[test]
    fn expired_deadlines_shed_at_dispatch() {
        let cb = paper::table1_case_base();
        let config = ServiceConfig::default().with_shards(1).with_batch_size(1);
        let cost = CostModel {
            dispatch_overhead_us: 10_000,
            per_request_us: 0,
        };
        let driver = TraceDriver::new(&cb, &config, cost);
        let mut trace = arrivals(1, 0);
        trace.push(TraceArrival {
            at_us: 1,
            class: QosClass::Low,
            deadline_us: Some(50), // expires while the first batch runs
            request: paper::table1_request().unwrap(),
        });
        let report = driver.run(&trace);
        assert_eq!(report.replies[1].outcome, Outcome::ShedDeadline);
        assert_eq!(report.metrics.class(QosClass::Low).shed_deadline, 1);
    }

    #[test]
    fn predictive_shedding_replays_like_the_live_service() {
        // The replay admits through the service's own front end, so
        // predictive shedding applies as it does live. One shard, batch
        // 4: 200 LOW arrivals 5 µs apart outrun the cost model's 25 µs
        // per job, and once the estimator is warm the backlog dooms
        // 300 µs deadlines.
        let cb = paper::table1_case_base();
        let config = ServiceConfig::default()
            .with_shards(1)
            .with_batch_size(4)
            .with_predictive_shed(true);
        let driver = TraceDriver::new(&cb, &config, CostModel::default());
        let trace: Vec<TraceArrival> = (0..200)
            .map(|i| TraceArrival {
                at_us: i * 5,
                class: QosClass::Low,
                deadline_us: Some(300),
                request: paper::table1_request().unwrap(),
            })
            .collect();
        let report = driver.run(&trace);
        let predicted = report
            .replies
            .iter()
            .filter(|r| matches!(r.outcome, Outcome::ShedPredicted { .. }))
            .count() as u64;
        assert!(predicted > 0, "a warm estimator sheds doomed LOW work");
        assert_eq!(
            report.metrics.class(QosClass::Low).shed_predicted,
            predicted
        );
        let events = report
            .trace
            .events
            .iter()
            .filter(|e| e.kind == EventKind::ShedPredicted)
            .count() as u64;
        assert_eq!(
            events, predicted,
            "one ShedPredicted event per predicted shed"
        );
    }
}
