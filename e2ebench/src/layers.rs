//! Per-layer replays: each workload's own inputs fed straight into the
//! public functions of one layer at a time, timed from outside.
//!
//! | layer            | functions called                                        |
//! |------------------|---------------------------------------------------------|
//! | `core.kernel`    | `PlaneEngine::retrieve_batch_into`, `RetrievalPlane::compile` |
//! | `core.engine`    | `FixedEngine::retrieve` (the naive reference)           |
//! | `cache`          | `RetrievalCache::lookup` / `insert`                     |
//! | `service.queue`  | `ClassQueue::push` / `pop_batch` on `testkit::job`s     |
//! | `service.shard`  | `AllocationService::submit` / `Ticket::wait`            |
//! | `net.wire`       | `encode_message` / `decode_frame` + `decode_message`    |
//! | `service.remote` | `RemoteShard::call_submit` against a loopback `NodeServer` |
//! | `persist`        | `AllocationService::apply_mutation` on a durable service, `durable_recover` |

use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rqfa_core::{CaseBase, FixedEngine, KernelPath, PlaneEngine, Request, RetrievalPlane};
use rqfa_net::{decode_frame, decode_message, encode_message, Message, RetryPolicy, Submit};
use rqfa_service::cache::RetrievalCache;
use rqfa_service::queue::ClassQueue;
use rqfa_service::remote::{outcome_to_wire, NodeServer, RemoteShard};
use rqfa_service::{
    shard, testkit, AllocationService, Outcome, ServiceConfig, ServiceMetrics, WeightedArbiter,
};
use rqfa_telemetry::{EventKind, Registry};
use rqfa_workloads::{ClassedArrival, MutationGen};

use crate::openloop::nanos;
use crate::report::Report;
use crate::stats::{self, allocations, median, quartiles};

/// What the replays read: the workload's case base, service
/// configuration and arrival stream.
pub struct Inputs<'a> {
    pub case_base: &'a CaseBase,
    pub config: &'a ServiceConfig,
    pub stream: &'a [ClassedArrival],
    pub seed: u64,
    pub state_dir: &'a Path,
}

/// Layer costs the ledgers use.
#[derive(Debug, Default, Clone, Copy)]
pub struct Costs {
    pub kernel_ns: f64,
    pub lookup_ns: f64,
    pub insert_ns: f64,
    pub submit_ns: f64,
    pub per_req_us: f64,
    pub remote_rtt_us: f64,
    pub codec_ns: f64,
    pub persist_apply_us: f64,
    pub retries: u64,
    pub timeouts: u64,
}

/// Runs every replay, appending its metrics to `report`.
pub fn measure(inputs: &Inputs<'_>, report: &mut Report) -> Costs {
    let mut costs = Costs::default();
    kernel(inputs, report, &mut costs);
    cache(inputs, report, &mut costs);
    queue(inputs, report);
    shard_path(inputs, report, &mut costs);
    wire(inputs, report, &mut costs);
    remote(inputs, report, &mut costs);
    persist(inputs, report, &mut costs);
    costs
}

fn variants_per_type(case_base: &CaseBase) -> usize {
    (case_base.variant_count() / case_base.type_count().max(1)).max(1)
}

/// The stream's first occurrences: what a cold cache would miss.
fn miss_stream(stream: &[ClassedArrival], limit: usize) -> Vec<&Request> {
    let mut seen = HashSet::new();
    stream
        .iter()
        .map(|a| &a.request)
        .filter(|r| seen.insert(r.fingerprint()))
        .take(limit)
        .collect()
}

/// Paired wide/scalar trials alternate which side runs first.
const KERNEL_PAIRS: usize = 21;
const BATCH: usize = 32;

fn kernel(inputs: &Inputs<'_>, report: &mut Report, costs: &mut Costs) {
    let cb = inputs.case_base;
    let per_type = variants_per_type(cb);
    // About 2 M variant evaluations per trial.
    let misses = miss_stream(inputs.stream, (2_000_000 / per_type).clamp(256, 4096));
    let n = misses.len().max(1) as f64;
    let batches: Vec<&[&Request]> = misses.chunks(BATCH).collect();
    let mut wide = PlaneEngine::with_kernel(KernelPath::Auto);
    let mut scalar = PlaneEngine::with_kernel(KernelPath::ForceScalar);
    let mut out = Vec::new();
    let trial = |engine: &mut PlaneEngine, out: &mut Vec<_>| {
        let started = Instant::now();
        for batch in &batches {
            engine.retrieve_batch_into(cb, batch, out);
            black_box(out.len());
        }
        nanos(started.elapsed()) as f64
    };
    // Warm both engines (plane compile, scratch growth).
    trial(&mut wide, &mut out);
    trial(&mut scalar, &mut out);
    let (mut wide_ns, mut scalar_ns, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..KERNEL_PAIRS {
        let (w, s) = if pair % 2 == 0 {
            let w = trial(&mut wide, &mut out);
            (w, trial(&mut scalar, &mut out))
        } else {
            let s = trial(&mut scalar, &mut out);
            (trial(&mut wide, &mut out), s)
        };
        wide_ns.push(w / n);
        scalar_ns.push(s / n);
        ratios.push(s / w);
    }
    let before = allocations();
    trial(&mut wide, &mut out);
    let allocs = (allocations() - before) as f64 / n;
    let mut evaluated = 0usize;
    for batch in &batches {
        wide.retrieve_batch_into(cb, batch, &mut out);
        evaluated += out.iter().flatten().map(|r| r.evaluated).sum::<usize>();
    }
    let (q1, mid, q3) = quartiles(&ratios);
    costs.kernel_ns = median(&wide_ns);
    report.layer(
        "core.kernel.ns_per_req",
        "ns",
        costs.kernel_ns,
        KERNEL_PAIRS,
    );
    report.layer(
        "core.kernel.scalar_ns_per_req",
        "ns",
        median(&scalar_ns),
        KERNEL_PAIRS,
    );
    report.layer("core.kernel.wide_over_scalar", "ratio", mid, KERNEL_PAIRS);
    report.layer("core.kernel.wide_over_scalar_q1", "ratio", q1, KERNEL_PAIRS);
    report.layer("core.kernel.wide_over_scalar_q3", "ratio", q3, KERNEL_PAIRS);
    report.layer(
        "core.kernel.variants_per_miss",
        "count",
        evaluated as f64 / n,
        misses.len(),
    );
    report.layer("core.kernel.allocs_per_req", "count", allocs, misses.len());
    report.note(format!(
        "core.kernel: {} path over {} misses in batches of {BATCH}",
        wide.kernel_path(),
        misses.len()
    ));

    let slice = shard::partition(cb, inputs.config.shards)
        .into_iter()
        .flatten()
        .next()
        .expect("the case base is not empty");
    let compiles: Vec<f64> = (0..9)
        .map(|_| {
            let started = Instant::now();
            black_box(RetrievalPlane::compile(&slice));
            stats::micros(started.elapsed())
        })
        .collect();
    report.layer(
        "core.kernel.compile_us",
        "us",
        median(&compiles),
        compiles.len(),
    );

    // The naive engine is an order of magnitude slower: a quarter of
    // the kernel's set keeps its trials about as long.
    let naive_set = &misses[..misses.len().min((2_000_000 / per_type).clamp(64, 4096) / 4)];
    let engine = FixedEngine::new();
    let naive: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            for request in naive_set {
                black_box(engine.retrieve(cb, request).ok());
            }
            nanos(started.elapsed()) as f64 / naive_set.len().max(1) as f64
        })
        .collect();
    report.layer("core.engine.ns_per_req", "ns", median(&naive), naive.len());
}

/// Requests the cache replay walks (the stream's first ones).
const CACHE_REPLAY: usize = 100_000;

fn cache(inputs: &Inputs<'_>, report: &mut Report, costs: &mut Costs) {
    let config = inputs.config;
    let generation = inputs.case_base.generation();
    // The cached payload does not change what a lookup or insert costs,
    // so every entry holds the retrieval of the stream's first request.
    let payload = PlaneEngine::new()
        .retrieve(inputs.case_base, &inputs.stream[0].request)
        .expect("stream requests name known types");
    let fingerprints: Vec<u64> = inputs
        .stream
        .iter()
        .take(CACHE_REPLAY)
        .map(|a| a.request.fingerprint())
        .collect();
    let new_cache = || {
        RetrievalCache::with_policy(
            config.cache_capacity,
            config.cache_policy,
            config.cache_admission,
        )
    };
    // Fill with the first half (lookup, insert on miss), then time
    // lookups of the second half: hits and misses in the workload's own
    // proportion.
    let (first, second) = fingerprints.split_at(fingerprints.len() / 2);
    let mut cache = new_cache();
    for &fp in first {
        if cache.lookup(fp, generation).is_none() {
            cache.insert(fp, generation, &payload);
        }
    }
    let lookups: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            for &fp in second {
                black_box(cache.lookup(fp, generation));
            }
            nanos(started.elapsed()) as f64 / second.len().max(1) as f64
        })
        .collect();
    costs.lookup_ns = median(&lookups);
    // Insert every distinct fingerprint into a fresh cache, in stream
    // order (a full cache evicts on each insert, as the service's does).
    let mut seen = HashSet::new();
    let distinct: Vec<u64> = fingerprints
        .iter()
        .copied()
        .filter(|fp| seen.insert(*fp))
        .collect();
    let mut cache = new_cache();
    let started = Instant::now();
    for &fp in &distinct {
        cache.insert(fp, generation, &payload);
    }
    costs.insert_ns = nanos(started.elapsed()) as f64 / distinct.len().max(1) as f64;
    report.layer("cache.lookup_ns", "ns", costs.lookup_ns, second.len());
    report.layer("cache.insert_ns", "ns", costs.insert_ns, distinct.len());
}

/// Arrivals the queue replay pushes.
const QUEUE_REPLAY: usize = 16_384;

fn queue(inputs: &Inputs<'_>, report: &mut Report) {
    let config = inputs.config;
    let arrivals = &inputs.stream[..inputs.stream.len().min(QUEUE_REPLAY)];
    let mut push_ns = Vec::new();
    let mut pop_ns = Vec::new();
    for _ in 0..3 {
        let queue = ClassQueue::new(
            config.queue_capacity,
            WeightedArbiter::with_weights(config.class_weights)
                .with_promotions(config.promotions_per_round)
                .with_mode(config.arbiter_mode),
            config.scheduling,
            config.promotion_margin_us,
            Arc::new(ServiceMetrics::default()),
        );
        let base = Instant::now();
        let mut receivers = Vec::with_capacity(arrivals.len());
        let mut jobs = Vec::with_capacity(arrivals.len());
        for (i, a) in arrivals.iter().enumerate() {
            let enqueued = base + Duration::from_micros(a.at_us);
            let deadline = config.deadline_budget_us[a.class.index()]
                .filter(|_| a.class.sheddable())
                .map(|us| enqueued + Duration::from_micros(us));
            let (job, rx) = testkit::job(i as u64, a.class, a.request.clone(), enqueued, deadline);
            jobs.push(job);
            receivers.push(rx);
        }
        let mut popped = Vec::with_capacity(arrivals.len());
        let (mut push, mut pop) = (Duration::ZERO, Duration::ZERO);
        let mut jobs = jobs.into_iter();
        loop {
            let chunk: Vec<_> = jobs.by_ref().take(2 * BATCH).collect();
            if chunk.is_empty() {
                break;
            }
            let started = Instant::now();
            for job in chunk {
                black_box(queue.push(job));
            }
            push += started.elapsed();
            let started = Instant::now();
            while !queue.is_empty() {
                popped.push(queue.pop_batch(config.batch_size).expect("queue is open"));
            }
            pop += started.elapsed();
        }
        let n = arrivals.len().max(1) as f64;
        push_ns.push(nanos(push) as f64 / n);
        pop_ns.push(nanos(pop) as f64 / n);
    }
    report.layer(
        "service.queue.push_ns",
        "ns",
        median(&push_ns),
        arrivals.len(),
    );
    report.layer(
        "service.queue.pop_ns_per_job",
        "ns",
        median(&pop_ns),
        arrivals.len(),
    );
}

/// Requests of the synchronous (one at a time) shard replay.
const SYNC_REPLAY: usize = 2_000;
/// Requests of the pipelined replay, submitted in bursts.
const PIPELINE_REPLAY: usize = 8_192;
const PIPELINE_BURST: usize = 256;
/// Batch sizes of the batch-cost fit.
const FIT_BATCHES: [usize; 6] = [1, 2, 4, 8, 16, 32];

fn requests(
    stream: &[ClassedArrival],
    skip: usize,
    count: usize,
) -> Vec<(Request, rqfa_core::QosClass)> {
    stream
        .iter()
        .cycle()
        .skip(skip)
        .take(count)
        .map(|a| (a.request.clone(), a.class))
        .collect()
}

fn shard_path(inputs: &Inputs<'_>, report: &mut Report, costs: &mut Costs) {
    let service =
        AllocationService::new(inputs.case_base, inputs.config).expect("valid service config");
    for (request, class) in requests(inputs.stream, 0, 500) {
        service
            .submit(request, class)
            .wait()
            .expect("service answers");
    }
    // Synchronous submit → wait, one request at a time.
    let sync = requests(inputs.stream, 500, SYNC_REPLAY);
    let mut rtt = Vec::with_capacity(sync.len());
    let before = allocations();
    for (request, class) in sync {
        let started = Instant::now();
        let reply = service.submit(request, class).wait();
        rtt.push(nanos(started.elapsed()));
        black_box(reply);
    }
    let allocs = (allocations() - before) as f64 / SYNC_REPLAY as f64;
    let rtt = stats::latency(&mut rtt);
    // Pipelined: a burst of submits, then wait for all of them.
    let pipelined = requests(inputs.stream, 500 + SYNC_REPLAY, PIPELINE_REPLAY);
    let (mut submit, mut total) = (Vec::new(), Vec::new());
    let mut bursts = pipelined.into_iter();
    loop {
        let burst: Vec<_> = bursts.by_ref().take(PIPELINE_BURST).collect();
        if burst.is_empty() {
            break;
        }
        let k = burst.len() as f64;
        let started = Instant::now();
        let tickets: Vec<_> = burst
            .into_iter()
            .map(|(r, c)| service.submit(r, c))
            .collect();
        let submitted = started.elapsed();
        for ticket in tickets {
            black_box(ticket.wait());
        }
        submit.push(nanos(submitted) as f64 / k);
        total.push(nanos(started.elapsed()) as f64 / k);
    }
    service.shutdown();
    costs.submit_ns = median(&submit);
    report.layer(
        "service.shard.submit_ns",
        "ns",
        costs.submit_ns,
        submit.len(),
    );
    report.layer("service.shard.sync_rtt_us", "us", rtt.p50_us, rtt.samples);
    report.layer(
        "service.shard.pipelined_ns_per_req",
        "ns",
        median(&total),
        total.len(),
    );
    report.layer("service.shard.allocs_per_req", "count", allocs, SYNC_REPLAY);

    batch_fit(inputs, report, costs);
}

/// Fits a dispatched batch's service time, `batch_fixed + k × per_req`,
/// the shape `replay::CostModel` prices batches with. For each batch
/// size k, one traced single-shard service takes a burst submitted
/// faster than it drains, so its worker runs back to back; the flight
/// recorder stamps each batch's jobs `Dispatched` at the batch's start,
/// and the span from the first start to the last, over the jobs
/// dispatched before the last batch, is the mean time per k-batch.
fn batch_fit(inputs: &Inputs<'_>, report: &mut Report, costs: &mut Costs) {
    let mut points = Vec::new();
    let mut offset = 0;
    for &k in &FIT_BATCHES {
        let burst = (40 * k).clamp(400, 2_000);
        let config = inputs
            .config
            .clone()
            .with_shards(1)
            .with_batch_size(k)
            .with_trace_capacity((burst * 16).next_power_of_two());
        let service =
            AllocationService::new(inputs.case_base, &config).expect("valid service config");
        for (request, class) in requests(inputs.stream, 0, 200) {
            service
                .submit(request, class)
                .wait()
                .expect("service answers");
        }
        let _ = service.drain_trace();
        let jobs = requests(inputs.stream, offset, burst);
        offset += burst;
        let tickets: Vec<_> = jobs
            .into_iter()
            .map(|(r, c)| service.submit(r, c))
            .collect();
        for ticket in tickets {
            black_box(ticket.wait());
        }
        let mut starts: Vec<u64> = service
            .drain_trace()
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Dispatched)
            .map(|e| e.at_us)
            .collect();
        service.shutdown();
        starts.sort_unstable();
        let (first, last) = (starts[0], starts[starts.len() - 1]);
        let before_last = starts.iter().filter(|&&t| t < last).count();
        if before_last >= k {
            let batches = before_last as f64 / k as f64;
            points.push((k as f64, (last - first) as f64 / batches));
        }
    }
    let (fixed, per_req) = least_squares(&points);
    costs.per_req_us = per_req;
    report.layer("service.shard.batch_fixed_us", "us", fixed, points.len());
    report.layer("service.shard.per_req_us", "us", per_req, points.len());
    report.note(format!(
        "service.shard fit: a batch of k costs {fixed:.2} µs + k × {per_req:.3} µs \
         (replay::CostModel assumes 50 µs + k × 25 µs); points {}",
        points
            .iter()
            .map(|(k, us)| format!("{k}:{us:.1}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
}

/// Intercept and slope of the least-squares line through `points`.
fn least_squares(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let (sx, sy) = points
        .iter()
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    let (mx, my) = (sx / n, sy / n);
    let sxx: f64 = points.iter().map(|(x, _)| (x - mx) * (x - mx)).sum();
    let sxy: f64 = points.iter().map(|(x, y)| (x - mx) * (y - my)).sum();
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    (my - slope * mx, slope)
}

/// Requests of the codec replay.
const WIRE_REPLAY: usize = 4_096;

fn wire(inputs: &Inputs<'_>, report: &mut Report, costs: &mut Costs) {
    let mut engine = PlaneEngine::new();
    let messages: Vec<(Message, Message)> = inputs
        .stream
        .iter()
        .take(WIRE_REPLAY)
        .enumerate()
        .map(|(i, a)| {
            let retrieval = engine
                .retrieve(inputs.case_base, &a.request)
                .expect("stream requests name known types");
            let outcome = Outcome::Allocated {
                best: retrieval.best.expect("every type has a variant"),
                evaluated: retrieval.evaluated,
                cached: false,
            };
            let submit = Message::Submit(Submit {
                id: i as u64,
                class: a.class,
                deadline_us: None,
                request: a.request.clone(),
            });
            let reply = Message::Reply(rqfa_net::WireReply {
                id: i as u64,
                class: a.class,
                outcome: outcome_to_wire(&outcome).expect("allocations encode"),
                latency_us: 20,
            });
            (submit, reply)
        })
        .collect();
    let n = messages.len().max(1) as f64;
    let mut bytes = 0usize;
    let trials: Vec<f64> = (0..5)
        .map(|_| {
            bytes = 0;
            let started = Instant::now();
            for (submit, reply) in &messages {
                for message in [submit, reply] {
                    let encoded = encode_message(message).expect("message encodes");
                    bytes += encoded.len();
                    let frame = decode_frame(&encoded).expect("frame decodes");
                    black_box(decode_message(&frame).expect("message decodes"));
                }
            }
            nanos(started.elapsed()) as f64 / n
        })
        .collect();
    costs.codec_ns = median(&trials);
    report.layer(
        "net.wire.codec_ns_per_req",
        "ns",
        costs.codec_ns,
        messages.len(),
    );
    report.layer(
        "net.wire.bytes_per_req",
        "bytes",
        bytes as f64 / n,
        messages.len(),
    );
}

/// Calls of the idle-node round-trip replay.
const REMOTE_REPLAY: usize = 2_000;

pub fn loopback_policy(seed: u64) -> RetryPolicy {
    RetryPolicy {
        attempts: 3,
        base_backoff: Duration::from_millis(1),
        jitter_seed: seed,
    }
}

/// Socket timeout of every benchmark connection: far above any healthy
/// loopback round trip, so a timeout means a fault.
pub const REMOTE_TIMEOUT: Duration = Duration::from_secs(2);

fn remote(inputs: &Inputs<'_>, report: &mut Report, costs: &mut Costs) {
    let single = inputs.config.clone().with_shards(1);
    let service =
        Arc::new(AllocationService::new(inputs.case_base, &single).expect("valid service config"));
    let server = NodeServer::spawn(Arc::clone(&service)).expect("loopback listener binds");
    let client = RemoteShard::tcp(server.addr(), REMOTE_TIMEOUT, loopback_policy(inputs.seed));
    let mut rtt = Vec::with_capacity(REMOTE_REPLAY);
    for (i, (request, class)) in requests(inputs.stream, 0, 200 + REMOTE_REPLAY)
        .into_iter()
        .enumerate()
    {
        let submit = Submit {
            id: i as u64,
            class,
            deadline_us: None,
            request,
        };
        let started = Instant::now();
        let reply = client.call_submit(submit);
        if i >= 200 {
            rtt.push(nanos(started.elapsed()));
        }
        if reply.is_err() {
            report.problem(format!("loopback call {i} failed"));
        }
    }
    let net = client.stats();
    costs.retries = net.retries.load(std::sync::atomic::Ordering::Relaxed);
    costs.timeouts = net.timeouts.load(std::sync::atomic::Ordering::Relaxed);
    server.shutdown();
    drop(client);
    let rtt = stats::latency(&mut rtt);
    costs.remote_rtt_us = rtt.p50_us;
    report.layer("service.remote.rtt_us_p50", "us", rtt.p50_us, rtt.samples);
}

/// Mutations of the durable-apply replay.
const PERSIST_REPLAY: usize = 256;

fn persist(inputs: &Inputs<'_>, report: &mut Report, costs: &mut Costs) {
    let dir = inputs.state_dir.join("persist-replay");
    let single = inputs.config.clone().with_shards(1);
    // One durable shard holds its slice of the case base. A snapshot
    // image addresses at most 64 Ki words; a slice too large for one is
    // replayed on its largest prefix of types that fits.
    let slice = shard::partition(inputs.case_base, inputs.config.shards)
        .into_iter()
        .flatten()
        .next()
        .expect("the case base is not empty");
    let types = slice.function_types();
    let mut keep = types.len();
    let (case_base, service) = loop {
        let prefix = CaseBase::new(slice.bounds().clone(), types[..keep].to_vec())
            .expect("a prefix of a valid case base");
        match AllocationService::durable_create(&prefix, &dir, &single) {
            Ok(service) => break (prefix, service),
            Err(rqfa_service::ServiceError::Persist(e)) if keep > 1 => {
                report.note(format!(
                    "persist: {keep} types do not fit one snapshot ({e})"
                ));
                keep /= 2;
            }
            Err(e) => panic!("durable state directory is writable: {e}"),
        }
    };
    report.note(format!(
        "persist: replayed over {keep} of the {} types of one shard",
        types.len()
    ));
    let registry = Registry::new();
    service.register_metrics(&registry, "svc");
    let read = |name: &str| {
        registry
            .snapshot()
            .value(&format!("svc/shard-0/persist/{name}"))
            .unwrap_or(0.0)
    };
    let mut gen = MutationGen::new(&case_base, inputs.seed ^ 0x9E37_79B9);
    let mut apply = Vec::with_capacity(PERSIST_REPLAY);
    let mut wal_growth = Vec::new();
    let mut rejected = 0;
    for _ in 0..PERSIST_REPLAY {
        let mutation = gen.next_mutation();
        let wal_before = read("wal_bytes_since_checkpoint");
        let started = Instant::now();
        let applied = service.apply_mutation(&mutation);
        apply.push(nanos(started.elapsed()));
        rejected += u64::from(applied.is_err());
        let wal_after = read("wal_bytes_since_checkpoint");
        // The gauge restarts at each checkpoint; growth is only read
        // between checkpoints.
        if wal_after > wal_before {
            wal_growth.push(wal_after - wal_before);
        }
    }
    if rejected > 0 {
        report.problem(format!(
            "durable replay rejected {rejected} valid mutations"
        ));
    }
    let appends = read("appends");
    let mutations = read("appended_mutations").max(1.0);
    let checkpoints = read("checkpoints");
    service.shutdown();
    let recovers: Vec<f64> = (0..3)
        .map(|_| {
            let started = Instant::now();
            let (recovered, _) =
                AllocationService::durable_recover(&dir, &single).expect("durable state recovers");
            let ms = started.elapsed().as_secs_f64() * 1e3;
            recovered.shutdown();
            ms
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let apply = stats::latency(&mut apply);
    costs.persist_apply_us = apply.p50_us;
    let wal = if wal_growth.is_empty() {
        0.0
    } else {
        wal_growth.iter().sum::<f64>() / wal_growth.len() as f64
    };
    report.layer("persist.apply_us_p50", "us", apply.p50_us, apply.samples);
    report.layer("persist.apply_us_p90", "us", apply.p90_us, apply.samples);
    // One data sync per WAL append (the store's `append`).
    report.layer(
        "persist.fsyncs_per_mutation",
        "count",
        appends / mutations,
        PERSIST_REPLAY,
    );
    report.layer(
        "persist.checkpoints_per_mutation",
        "count",
        checkpoints / mutations,
        PERSIST_REPLAY,
    );
    report.layer(
        "persist.wal_bytes_per_mutation",
        "bytes",
        wal,
        wal_growth.len(),
    );
    report.layer(
        "persist.recover_ms",
        "ms",
        median(&recovers),
        recovers.len(),
    );
}
