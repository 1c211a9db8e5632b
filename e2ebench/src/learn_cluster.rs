//! `learn_cluster`: two loopback `NodeServer`s, each over a durable
//! single-shard service with a file WAL (every mutation is synced), and
//! a `ClusterClient` on `NodeMap` placement serving two closed-loop
//! client threads. Each thread owns a disjoint set of function types
//! and its own `MutationGen` over that set, and issues one learning
//! mutation per 20 zipf reads. Every drawn mutation is undone by the
//! client's next one (see `PairedGen`), so the case base keeps its size
//! however long the run is.
//!
//! Why: the wire codec, the loopback RPC and the WAL carry this
//! workload, and each mutation bumps its shard's generation, so reads
//! after it meet stale cache entries and a plane recompile. A write-path
//! change that costs reads shows here.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rqfa_core::{CaseBase, CaseMutation, NodeId, NodeMap, QosClass};
use rqfa_net::NetStats;
use rqfa_service::remote::{ClusterClient, NodeServer, RemoteShard};
use rqfa_service::{shard, AllocationService, MetricsSnapshot, Outcome, ServiceConfig};
use rqfa_workloads::{CaseGen, ClassedArrival, TrafficGen};

use crate::check::{check_one, Oracle, Tally};
use crate::inproc::Ctx;
use crate::layers::{self, loopback_policy, Inputs, REMOTE_TIMEOUT};
use crate::openloop::nanos;
use crate::paired::PairedGen;
use crate::report::Report;
use crate::stats::{self, median, quantile, MAX_STOLEN};

const NODES: usize = 2;
const CLIENTS: usize = 2;
/// One mutation per this many operations (one per 20 reads).
const MUTATE_EVERY: usize = 21;
const SETUPS: usize = 11;
const WARM: usize = 500;

pub fn case_base(seed: u64) -> CaseBase {
    CaseGen::new(24, 24, 8, 10).seed(seed ^ 0x1EA2).build()
}

/// The function types client `t` owns: disjoint across clients, and
/// each client's set spans both nodes.
fn owned(case_base: &CaseBase, client: usize) -> CaseBase {
    let types = case_base
        .function_types()
        .iter()
        .filter(|ty| (usize::from(ty.id().raw()) - 1) / NODES % CLIENTS == client)
        .cloned()
        .collect();
    CaseBase::new(case_base.bounds().clone(), types).expect("a subset of a valid case base")
}

/// The zipf read stream of one client (cycled if the run outlasts it).
fn reads(owned: &CaseBase, seed: u64, seconds: f64) -> Vec<ClassedArrival> {
    // The default mix offers 7 200 arrivals per second; three seconds of
    // it per measured second outlasts any closed loop seen so far. Past
    // 20 measured seconds the stream is cycled rather than grown, which
    // keeps a long run's memory in bounds.
    TrafficGen::zipf_skewed(owned)
        .seed(seed)
        .duration_us((seconds.min(20.0) * 3e6) as u64)
        .generate()
}

struct Cluster {
    services: Vec<Arc<AllocationService>>,
    servers: Vec<NodeServer>,
    client: Arc<ClusterClient>,
    net: Vec<Arc<NetStats>>,
}

impl Cluster {
    fn start(case_base: &CaseBase, dir: &Path, config: &ServiceConfig, seed: u64) -> Cluster {
        let placement = NodeMap::new((0..NODES).map(|n| Some(node(n))).collect());
        let client = Arc::new(ClusterClient::new(Box::new(placement), None));
        let mut cluster = Cluster {
            services: Vec::new(),
            servers: Vec::new(),
            client,
            net: Vec::new(),
        };
        for (n, slice) in shard::partition(case_base, NODES).into_iter().enumerate() {
            let slice = slice.expect("every node holds types");
            let service = Arc::new(
                AllocationService::durable_create(&slice, &dir.join(format!("node-{n}")), config)
                    .expect("durable state directory is writable"),
            );
            let server = NodeServer::spawn(Arc::clone(&service)).expect("loopback listener binds");
            let remote = RemoteShard::tcp(
                server.addr(),
                REMOTE_TIMEOUT,
                loopback_policy(seed ^ n as u64),
            );
            cluster.net.push(remote.stats());
            cluster.client.set_node(node(n), remote);
            cluster.services.push(service);
            cluster.servers.push(server);
        }
        cluster
    }

    fn stop(self) {
        for server in self.servers {
            server.shutdown();
        }
        drop(self.client);
        for service in self.services {
            if let Ok(service) = Arc::try_unwrap(service) {
                service.shutdown();
            }
        }
    }

    fn retries_and_timeouts(&self) -> (u64, u64) {
        self.net.iter().fold((0, 0), |(r, t), s| {
            (
                r + s.retries.load(Ordering::Relaxed),
                t + s.timeouts.load(Ordering::Relaxed),
            )
        })
    }

    fn metrics(&self) -> Vec<MetricsSnapshot> {
        self.services.iter().map(|s| s.metrics()).collect()
    }
}

fn node(n: usize) -> NodeId {
    NodeId::new(u16::try_from(n).expect("small cluster"))
}

/// Starts the cluster `SETUPS` times (case base, durable create, nodes,
/// client, warm-up); keeps the last and returns the median set-up time.
fn setup(seed: u64, dir: &Path, config: &ServiceConfig, times: usize) -> (CaseBase, Cluster, f64) {
    let warm: Vec<_> = reads(&case_base(seed), seed ^ 0x3A3A, 1.0)
        .into_iter()
        .take(WARM)
        .collect();
    let mut took = Vec::with_capacity(times);
    let mut kept: Option<(CaseBase, Cluster)> = None;
    for _ in 0..times {
        if let Some((_, previous)) = kept.take() {
            previous.stop();
        }
        let started = Instant::now();
        let case_base = case_base(seed);
        let cluster = Cluster::start(&case_base, dir, config, seed);
        for a in &warm {
            cluster.client.submit(a.request.clone(), a.class);
        }
        took.push(started.elapsed().as_secs_f64());
        kept = Some((case_base, cluster));
    }
    let (case_base, cluster) = kept.expect("at least one set-up");
    (case_base, cluster, median(&took))
}

/// One operation of a client's closed loop.
enum Op {
    Read {
        index: usize,
        class: QosClass,
        ns: u64,
        outcome: Outcome,
    },
    Mutate {
        mutation: CaseMutation,
        ns: u64,
        ok: bool,
    },
}

/// One client thread's inputs, generator state and the log of the
/// round in progress.
struct Client {
    reads: Vec<ClassedArrival>,
    gen: PairedGen,
    /// The client's types as of its last checked operation.
    checked: CaseBase,
    /// Set by a rejected mutation: from then on `checked` no longer
    /// follows the cluster, so the client's reads go unchecked (the
    /// rejection itself fails the run).
    diverged: bool,
    next: usize,
    ops: usize,
    log: Vec<Op>,
}

fn clients(case_base: &CaseBase, seed: u64, seconds: f64) -> Vec<Client> {
    (0..CLIENTS)
        .map(|t| {
            let owned = owned(case_base, t);
            Client {
                reads: reads(&owned, seed ^ ((t as u64 + 1) << 20), seconds),
                gen: PairedGen::new(&owned, seed ^ 0x3C_0000 ^ t as u64),
                checked: owned,
                diverged: false,
                next: 0,
                ops: 0,
                log: Vec::new(),
            }
        })
        .collect()
}

/// Runs every client's closed loop for `seconds`, one thread each,
/// logging each operation.
fn drive(cluster: &Cluster, clients: &mut [Client], seconds: f64) {
    let client = &cluster.client;
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    std::thread::scope(|scope| {
        for c in clients.iter_mut() {
            scope.spawn(move || {
                while Instant::now() < end {
                    c.ops += 1;
                    if c.ops % MUTATE_EVERY == 0 {
                        let mutation = c.gen.next_mutation();
                        let began = Instant::now();
                        let ok = client.apply_mutation(&mutation).is_ok();
                        let ns = nanos(began.elapsed());
                        c.log.push(Op::Mutate { mutation, ns, ok });
                    } else {
                        let index = c.next % c.reads.len();
                        c.next += 1;
                        let a = &c.reads[index];
                        let request = a.request.clone();
                        let began = Instant::now();
                        let reply = client.submit(request, a.class);
                        let ns = nanos(began.elapsed());
                        c.log.push(Op::Read {
                            index,
                            class: a.class,
                            ns,
                            outcome: reply.outcome,
                        });
                    }
                }
            });
        }
    });
}

/// Checks a client's round against its own case-base copy, mutated in
/// step with its acknowledged mutations, and moves the round's
/// latencies into `w`. It runs between rounds, outside the timed loop,
/// so however long the run, only one round of replies is held.
/// Returns the round's rejected mutations.
fn check_round(c: &mut Client, w: &mut Window, tally: &mut Tally) -> u64 {
    let log = std::mem::take(&mut c.log);
    let mut rejected = 0;
    let mut segment: Vec<(usize, QosClass, &Outcome)> = Vec::new();
    for op in &log {
        match op {
            Op::Read {
                index,
                class,
                ns,
                outcome,
            } => {
                w.reads.push(*ns);
                if *class == QosClass::Critical {
                    w.critical.push(*ns);
                }
                if !c.diverged {
                    segment.push((*index, *class, outcome));
                }
            }
            Op::Mutate { mutation, ns, ok } => {
                w.mutations.push(*ns);
                verify(&c.checked, &c.reads, &mut segment, tally);
                if !*ok {
                    rejected += 1;
                    c.diverged = true;
                } else if !c.diverged {
                    c.checked
                        .apply_mutation(mutation)
                        .expect("acknowledged mutations apply in issue order");
                }
            }
        }
    }
    verify(&c.checked, &c.reads, &mut segment, tally);
    rejected
}

/// Checks the reads of `segment`, all served by `case_base`.
fn verify(
    case_base: &CaseBase,
    reads: &[ClassedArrival],
    segment: &mut Vec<(usize, QosClass, &Outcome)>,
    tally: &mut Tally,
) {
    let mut oracle = Oracle::new(case_base);
    for (index, class, outcome) in segment.drain(..) {
        check_one(&mut oracle, tally, &reads[index].request, class, outcome);
    }
}

/// Rounds a closed-loop run is cut into; each latency metric is the
/// median over the rounds the hypervisor left alone of that round's
/// quantile, so a disturbance of the machine lasting a second or two
/// costs a round, not the result.
const ROUNDS: usize = 16;

/// The samples (ns) of one round.
#[derive(Default)]
struct Window {
    reads: Vec<u64>,
    critical: Vec<u64>,
    mutations: Vec<u64>,
    seconds: f64,
    stolen: f64,
}

struct Measured {
    windows: Vec<Window>,
    /// Process CPU seconds of the closed loops (the checks excluded).
    cpu_s: f64,
    reads: usize,
    mutations: usize,
    tally: Tally,
    rejected: u64,
}

impl Measured {
    /// Rounds the hypervisor left alone (all of them if it left none).
    fn scored(&self) -> Vec<&Window> {
        let scored: Vec<&Window> = self
            .windows
            .iter()
            .filter(|w| w.stolen <= MAX_STOLEN)
            .collect();
        if scored.is_empty() {
            self.windows.iter().collect()
        } else {
            scored
        }
    }

    /// Median over the scored rounds of each round's latency quantile, µs.
    fn quantile_us(&self, pick: fn(&Window) -> &Vec<u64>, q: f64) -> f64 {
        let per_round: Vec<f64> = self
            .scored()
            .into_iter()
            .filter(|w| !pick(w).is_empty())
            .map(|w| stats::quantile_us(pick(w), q))
            .collect();
        median(&per_round)
    }

    /// Median over the scored rounds of each round's completions per
    /// second.
    fn rate(&self, count: fn(&Window) -> usize) -> f64 {
        let per_round: Vec<f64> = self
            .scored()
            .into_iter()
            .map(|w| count(w) as f64 / w.seconds)
            .collect();
        median(&per_round)
    }

    fn all(&self, pick: fn(&Window) -> &Vec<u64>) -> Vec<u64> {
        self.windows
            .iter()
            .flat_map(|w| pick(w).iter().copied())
            .collect()
    }

    fn unscored(&self) -> usize {
        self.windows
            .iter()
            .filter(|w| w.stolen > MAX_STOLEN)
            .count()
    }
}

fn measure(cluster: &Cluster, case_base: &CaseBase, seed: u64, seconds: f64) -> Measured {
    let mut clients = clients(case_base, seed, seconds);
    let mut m = Measured {
        windows: Vec::with_capacity(ROUNDS),
        cpu_s: 0.0,
        reads: 0,
        mutations: 0,
        tally: Tally::default(),
        rejected: 0,
    };
    for _ in 0..ROUNDS {
        let ticks = stats::cpu_ticks();
        let cpu = stats::process_cpu_s();
        let started = Instant::now();
        drive(cluster, &mut clients, seconds / ROUNDS as f64);
        let mut w = Window {
            seconds: started.elapsed().as_secs_f64(),
            stolen: stats::stolen_since(ticks),
            ..Window::default()
        };
        m.cpu_s += stats::process_cpu_s() - cpu;
        for c in &mut clients {
            m.rejected += check_round(c, &mut w, &mut m.tally);
        }
        m.reads += w.reads.len();
        m.mutations += w.mutations.len();
        m.windows.push(w);
    }
    m
}

fn problems(report: &mut Report, cluster: &Cluster, m: &Measured) {
    if m.tally.mismatches > 0 {
        report.problem(format!(
            "{} replies differ from the FixedEngine oracle",
            m.tally.mismatches
        ));
    }
    if m.tally.critical_shed > 0 {
        report.problem(format!(
            "{} CRITICAL requests were shed",
            m.tally.critical_shed
        ));
    }
    let (retries, timeouts) = cluster.retries_and_timeouts();
    if retries + timeouts > 0 {
        report.problem(format!(
            "clean loopback saw {retries} retries and {timeouts} timeouts"
        ));
    }
    if m.rejected > 0 {
        report.problem(format!("{} valid mutations were rejected", m.rejected));
    }
    report.attempted += (m.reads + m.mutations) as u64;
    report.failed += m.tally.shed + m.tally.failed + m.rejected;
}

pub fn run(ctx: &Ctx<'_>) -> Report {
    let mut report = Report::new("learn_cluster");
    let config = ServiceConfig::default();
    let dir = ctx.state_dir.join("cluster");
    let (case_base, cluster, setup_s) = setup(ctx.seed, &dir, &config, SETUPS);
    let m = measure(&cluster, &case_base, ctx.seed, ctx.seconds);
    let rss = stats::peak_rss_mb();
    problems(&mut report, &cluster, &m);
    cluster.stop();
    let _ = std::fs::remove_dir_all(&dir);

    let reads: fn(&Window) -> &Vec<u64> = |w| &w.reads;
    let critical: fn(&Window) -> &Vec<u64> = |w| &w.critical;
    let mutations: fn(&Window) -> &Vec<u64> = |w| &w.mutations;
    let ops = (m.reads + m.mutations) as f64;
    let failed = m.tally.shed + m.tally.failed + m.rejected;
    let critical_n = m.all(critical).len();
    report.e2e("setup_s", "s", setup_s, SETUPS);
    report.e2e("p50_us", "us", m.quantile_us(reads, 0.5), m.reads);
    report.e2e("p90_us", "us", m.quantile_us(reads, 0.9), m.reads);
    report.e2e(
        "critical_p90_us",
        "us",
        m.quantile_us(critical, 0.9),
        critical_n,
    );
    report.e2e(
        "max_rate_rps",
        "1/s",
        m.rate(|w| w.reads.len() + w.mutations.len()),
        ops as usize,
    );
    report.e2e("throughput_rps", "1/s", m.rate(|w| w.reads.len()), m.reads);
    report.e2e(
        "mutate_p50_us",
        "us",
        m.quantile_us(mutations, 0.5),
        m.mutations,
    );
    report.e2e(
        "mutate_p90_us",
        "us",
        m.quantile_us(mutations, 0.9),
        m.mutations,
    );
    report.e2e(
        "served_share",
        "share",
        1.0 - failed as f64 / ops.max(1.0),
        ops as usize,
    );
    // Closed loop: the client threads are the requesters, and their CPU
    // (the client half of every RPC) is part of what a request costs.
    report.e2e(
        "cpu_us_per_req",
        "us",
        m.cpu_s * 1e6 / ops.max(1.0),
        ops as usize,
    );
    report.e2e("peak_rss_mb", "MiB", rss, 1);
    for w in &m.windows {
        let r = stats::latency(&mut w.reads.clone());
        let mu = stats::latency(&mut w.mutations.clone());
        report.note(format!(
            "round: {} reads p50 {:.0} p90 {:.0} µs, mutate p50 {:.0} p90 {:.0} µs, \
             {:.1}% of CPU stolen{}",
            w.reads.len(),
            r.p50_us,
            r.p90_us,
            mu.p50_us,
            mu.p90_us,
            100.0 * w.stolen,
            if w.stolen > MAX_STOLEN {
                " (not scored)"
            } else {
                ""
            }
        ));
    }
    report.note(format!(
        "p99 {:.1} µs over {} reads; {} of {ROUNDS} rounds not scored \
         (more than {:.0}% of the machine's CPU stolen by the hypervisor); \
         latency metrics are medians of the scored rounds' quantiles",
        stats::quantile_us(&m.all(reads), 0.99),
        m.reads,
        m.unscored(),
        100.0 * MAX_STOLEN
    ));
    report.note(format!(
        "closed loop: {CLIENTS} clients, one mutation per {} reads; max_rate_rps counts reads \
         and mutations, throughput_rps reads only",
        MUTATE_EVERY - 1
    ));
    report
}

/// Node-side stages of every traced request (node ids are node-local,
/// so they are not joined with the client's timings).
#[derive(Default)]
struct NodeStages {
    queue_us: Vec<f64>,
    critical_queue_us: Vec<f64>,
    dispatch_us: Vec<f64>,
    service_us: Vec<f64>,
    reply_us: Vec<f64>,
    dropped: u64,
}

fn node_stages(cluster: &Cluster) -> NodeStages {
    let mut out = NodeStages::default();
    for service in &cluster.services {
        let dump = service.drain_trace();
        out.dropped += dump.dropped;
        for timeline in dump.timelines() {
            let Some(b) = timeline.breakdown() else {
                continue;
            };
            out.queue_us.push(b.queue_us as f64);
            if timeline.class() == Some(QosClass::Critical.index() as u8) {
                out.critical_queue_us.push(b.queue_us as f64);
            }
            out.dispatch_us.push(b.dispatch_us as f64);
            out.service_us.push(b.service_us as f64);
            out.reply_us.push(b.reply_us as f64);
        }
    }
    out
}

pub fn run_traced(ctx: &Ctx<'_>) -> Report {
    let mut report = Report::new("learn_cluster");
    let config = ServiceConfig::default();
    let dir = ctx.state_dir.join("cluster");
    let (case_base, cluster, _) = setup(ctx.seed, &dir, &config, 1);
    let before = cluster.metrics();
    let untraced = measure(&cluster, &case_base, ctx.seed, ctx.seconds * 0.35);
    let after = cluster.metrics();
    problems(&mut report, &cluster, &untraced);
    cluster.stop();
    // The untraced phase's per-node reads: a generous trace ring each.
    let capacity = (untraced.reads * 16).next_power_of_two();
    let traced_config = config.clone().with_trace_capacity(capacity);
    let (_, cluster, _) = setup(ctx.seed, &dir, &traced_config, 1);
    for service in &cluster.services {
        let _ = service.drain_trace();
    }
    let traced = measure(&cluster, &case_base, ctx.seed, ctx.seconds * 0.35);
    let stages = node_stages(&cluster);
    problems(&mut report, &cluster, &traced);
    let (run_retries, run_timeouts) = cluster.retries_and_timeouts();
    cluster.stop();
    let _ = std::fs::remove_dir_all(&dir);

    // Layer replays over the workload's own case base and a zipf read
    // stream over all of it, on one node's configuration.
    let stream = TrafficGen::zipf_skewed(&case_base)
        .seed(ctx.seed ^ 0x51)
        .duration_us(3_000_000)
        .generate();
    let costs = layers::measure(
        &Inputs {
            case_base: &case_base,
            config: &config,
            stream: &stream,
            seed: ctx.seed,
            state_dir: ctx.state_dir,
        },
        &mut report,
    );
    let retries = costs.retries + run_retries;
    let timeouts = costs.timeouts + run_timeouts;
    if costs.retries + costs.timeouts > 0 {
        report.problem(format!(
            "clean loopback replay saw {} retries and {} timeouts",
            costs.retries, costs.timeouts
        ));
    }

    let sum = |snaps: &[MetricsSnapshot], f: fn(&rqfa_service::ClassSnapshot) -> u64| -> u64 {
        snaps.iter().flat_map(|s| s.classes.iter()).map(f).sum()
    };
    let hits = sum(&after, |c| c.cache_hits) - sum(&before, |c| c.cache_hits);
    let misses = sum(&after, |c| c.cache_misses) - sum(&before, |c| c.cache_misses);
    let stale = sum(&after, |c| c.cache_stale) - sum(&before, |c| c.cache_stale);
    let promoted = sum(&after, |c| c.promoted) - sum(&before, |c| c.promoted);
    let batches: u64 = after
        .iter()
        .zip(&before)
        .map(|(a, b)| a.batches - b.batches)
        .sum();
    let batched: u64 = after
        .iter()
        .zip(&before)
        .map(|(a, b)| a.batched_requests - b.batched_requests)
        .sum();
    let lookups = (hits + misses).max(1) as f64;
    let u = stats::latency(&mut untraced.all(|w| &w.reads));
    let t = stats::latency(&mut traced.all(|w| &w.reads));
    let mutate = stats::latency(&mut untraced.all(|w| &w.mutations));
    report.layer(
        "cache.hit_ratio",
        "ratio",
        hits as f64 / lookups,
        lookups as usize,
    );
    report.layer(
        "cache.stale_ratio",
        "ratio",
        stale as f64 / lookups,
        lookups as usize,
    );
    report.layer(
        "service.queue.batch_occupancy",
        "count",
        batched as f64 / batches.max(1) as f64,
        batches as usize,
    );
    report.layer(
        "service.queue.wait_us_p50",
        "us",
        quantile(&stages.queue_us, 0.5),
        stages.queue_us.len(),
    );
    report.layer(
        "service.queue.critical_wait_us_p90",
        "us",
        quantile(&stages.critical_queue_us, 0.9),
        stages.critical_queue_us.len(),
    );
    report.layer("service.queue.promotions", "count", promoted as f64, 0);
    report.layer("service.queue.overload_shed_share", "share", 0.0, 0);
    report.layer(
        "service.shard.dispatch_us_p50",
        "us",
        quantile(&stages.dispatch_us, 0.5),
        stages.dispatch_us.len(),
    );
    report.layer(
        "service.shard.reply_us_p50",
        "us",
        quantile(&stages.reply_us, 0.5),
        stages.reply_us.len(),
    );
    report.layer("service.remote.retries", "count", retries as f64, 0);
    report.layer("service.remote.timeouts", "count", timeouts as f64, 0);
    report.layer(
        "telemetry.trace_overhead",
        "ratio",
        t.p50_us / u.p50_us,
        t.samples,
    );
    report.layer(
        "telemetry.dropped_events",
        "count",
        stages.dropped as f64,
        0,
    );
    // Closed loop: nothing is late and offered equals achieved.
    let achieved = untraced.rate(|w| w.reads.len());
    report.layer("harness.gen_late_p99_us", "us", 0.0, 0);
    report.layer("harness.submit_wait_p99_us", "us", 0.0, 0);
    report.layer("harness.offered_rps", "1/s", achieved, u.samples);
    report.layer("harness.achieved_rps", "1/s", achieved, u.samples);
    report.layer("harness.p99_us", "us", u.p99_us, u.samples);
    report.layer(
        "harness.p99_tail_samples",
        "count",
        (u.samples as f64 * 0.01).floor(),
        u.samples,
    );
    report.layer(
        "harness.invalid_steps",
        "count",
        untraced.unscored() as f64,
        ROUNDS,
    );
    let stolen: Vec<f64> = untraced.windows.iter().map(|w| w.stolen).collect();
    report.layer("harness.stolen_share", "share", median(&stolen), ROUNDS);

    let node_us = quantile(&stages.queue_us, 0.5)
        + quantile(&stages.dispatch_us, 0.5)
        + quantile(&stages.service_us, 0.5)
        + quantile(&stages.reply_us, 0.5);
    let remote_share = costs.remote_rtt_us / u.p50_us;
    let persist_share = costs.persist_apply_us / mutate.p50_us;
    report.layer(
        "ledger.unexplained_us_p50",
        "us",
        u.p50_us - costs.remote_rtt_us,
        u.samples,
    );
    report.layer(
        "ledger.remote_share_of_p50",
        "ratio",
        remote_share,
        u.samples,
    );
    report.layer(
        "ledger.persist_share_of_mutate_p50",
        "ratio",
        persist_share,
        mutate.samples,
    );
    let share = costs.kernel_ns / 1e3 / costs.per_req_us.max(1e-9);
    report.layer("core.kernel.share_of_service", "ratio", share, 0);
    let rows = [
        ("service.remote: idle round trip p50", costs.remote_rtt_us),
        ("  of which node stages p50 (trace)", node_us),
        ("  of which codec (replay)", costs.codec_ns / 1e3),
        (
            "unexplained p50 (contention, 2 clients)",
            u.p50_us - costs.remote_rtt_us,
        ),
    ];
    report.note(format!(
        "ledger: read p50 {:.2} µs untraced, {:.2} µs traced",
        u.p50_us, t.p50_us
    ));
    for (label, value) in rows {
        report.note(format!("  {label:<40} {value:>9.2} µs"));
    }
    report.note(format!(
        "ledger: mutate p50 {:.2} µs; persist apply p50 {:.2} µs ({:.0}%)",
        mutate.p50_us,
        costs.persist_apply_us,
        100.0 * persist_share
    ));
    report
}
