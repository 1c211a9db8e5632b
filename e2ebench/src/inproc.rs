//! The two in-process workloads (`hot_zipf`, `cold_wide`): an
//! `AllocationService` driven open-loop through a ladder of fixed rate
//! steps, its replies checked against the naive oracle.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use rqfa_core::{CaseBase, QosClass, Request, TypeId};
use rqfa_service::{AllocationService, MetricsSnapshot, ServiceConfig, StageBreakdown, Ticket};
use rqfa_workloads::{ClassedArrival, RequestGen, TrafficGen};

use crate::check::{self, Tally};
use crate::layers::{self, Costs, Inputs};
use crate::openloop::{self, nanos, Planned, StepRun};
use crate::paired::PairedGen;
use crate::report::Report;
use crate::stats::{self, median, peak_rss_mb, quantile, MAX_STOLEN};

/// Learning mutations timed per run, spread over its rounds.
const MUTATIONS: usize = 1600;
/// The allocation latency limit `max_rate_rps` is defined by.
const LIMIT_P90_US: f64 = 200.0;

/// One in-process workload.
pub struct Spec {
    pub name: &'static str,
    pub seed_salt: u64,
    pub case_base: fn(u64) -> CaseBase,
    /// Shapes the payloads of a traffic generator over the case base.
    pub traffic: for<'a> fn(TrafficGen<'a>) -> TrafficGen<'a>,
    pub config: ServiceConfig,
    /// Open-loop rate steps `(total req/s, share of the run)`, ascending;
    /// the first is the reference rate.
    pub steps: &'static [(f64, f64)],
    /// The overload step, where shedding LOW is the policy.
    pub overload: Option<(f64, f64)>,
    /// Share of the run spent in a closed-loop saturation phase that
    /// measures `max_rate_rps` directly (when no step ladder can reach
    /// the service's limit).
    pub saturation_share: f64,
    /// Set-ups per run; `setup_s` reports their median.
    pub setups: usize,
    /// Warm-up requests of each set-up: enough to fill every shard's
    /// result cache, so the measured steps see its steady state (a
    /// filling cache resizes its table under the worker).
    pub warm: usize,
}

pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub state_dir: &'a Path,
}

impl Spec {
    fn arrivals(
        &self,
        case_base: &CaseBase,
        seed: u64,
        rate: f64,
        seconds: f64,
    ) -> Vec<ClassedArrival> {
        let mut gen = (self.traffic)(TrafficGen::new(case_base))
            .seed(seed)
            .duration_us((seconds * 1e6) as u64);
        for (class, rps) in class_rates(rate) {
            gen = gen.rate_per_sec(class, rps);
        }
        gen.generate()
    }

    /// Builds the case base, starts the service and pushes `warm`
    /// requests through it, `times` times; keeps the last and returns
    /// the median set-up time.
    fn setup(
        &self,
        seed: u64,
        config: &ServiceConfig,
        times: usize,
    ) -> (CaseBase, AllocationService, f64) {
        let warm = {
            let case_base = (self.case_base)(seed ^ self.seed_salt);
            self.arrivals(&case_base, seed ^ 0x3A3A, 1.1 * self.warm as f64, 1.0)
        };
        let mut took = Vec::with_capacity(times);
        let mut kept: Option<(CaseBase, AllocationService)> = None;
        for _ in 0..times {
            let started = Instant::now();
            let case_base = (self.case_base)(seed ^ self.seed_salt);
            let service = AllocationService::new(&case_base, config).expect("valid service config");
            warm_up(&service, &warm, self.warm);
            took.push(started.elapsed().as_secs_f64());
            if let Some((_, previous)) = kept.replace((case_base, service)) {
                previous.shutdown();
            }
        }
        let (case_base, service) = kept.expect("at least one set-up");
        (case_base, service, median(&took))
    }
}

/// Pushes `count` requests through the service, a window at a time.
fn warm_up(service: &AllocationService, arrivals: &[ClassedArrival], count: usize) {
    const WINDOW: usize = 64;
    let mut left = count;
    let mut next = arrivals.iter().cycle();
    while left > 0 {
        let tickets: Vec<Ticket> = next
            .by_ref()
            .take(left.min(WINDOW))
            .map(|a| service.submit(a.request.clone(), a.class))
            .collect();
        left -= tickets.len();
        for ticket in tickets {
            ticket.wait().expect("service answers warm-up requests");
        }
    }
}

/// Offered rates split over the four classes in the 200:1000:2000:4000
/// mix of `TrafficGen::new`.
fn class_rates(total_rps: f64) -> [(QosClass, f64); 4] {
    let mix = [200.0, 1000.0, 2000.0, 4000.0];
    let sum: f64 = mix.iter().sum();
    QosClass::ALL.map(|c| (c, total_rps * mix[c.index()] / sum))
}

/// What one checked slice of a step left behind.
struct Step {
    run: StepRun,
    tally: Tally,
}

impl Step {
    fn latencies(&self, class: Option<QosClass>) -> Vec<u64> {
        self.run
            .served
            .iter()
            .filter(|s| class.is_none_or(|c| s.class == c))
            .map(|s| s.latency_ns)
            .collect()
    }
}

/// Rounds a run is cut into. Every step runs one slice per round, in
/// ladder order, so a disturbance of the machine lasting a few seconds
/// touches a round or two of every step rather than all of one step;
/// a step reports the median over its scored slices (see
/// `StepRun::valid`) of each slice's figure.
const ROUNDS: usize = 16;

/// One rate step, measured in one slice per round.
struct Ladder {
    rate: f64,
    slices: Vec<Step>,
}

impl Ladder {
    /// Scored slices (all of them if none is, so a step always
    /// reports): see `StepRun::valid`.
    fn valid(&self) -> Vec<&Step> {
        let valid: Vec<&Step> = self.slices.iter().filter(|s| s.run.valid()).collect();
        if valid.is_empty() {
            self.slices.iter().collect()
        } else {
            valid
        }
    }

    fn invalid(&self) -> usize {
        self.slices.iter().filter(|s| !s.run.valid()).count()
    }

    /// Median over valid slices of `f`.
    fn median_of(&self, f: impl Fn(&Step) -> f64) -> f64 {
        median(&self.valid().into_iter().map(f).collect::<Vec<_>>())
    }

    /// Median over the scored slices of each slice's latency quantile, µs.
    fn quantile_us(&self, class: Option<QosClass>, q: f64) -> f64 {
        let per_slice: Vec<f64> = self
            .valid()
            .iter()
            .map(|s| s.latencies(class))
            .filter(|ns| !ns.is_empty())
            .map(|ns| stats::quantile_us(&ns, q))
            .collect();
        median(&per_slice)
    }

    fn samples(&self, class: Option<QosClass>) -> usize {
        self.valid().iter().map(|s| s.latencies(class).len()).sum()
    }

    /// Replies kept pace with arrivals in most slices.
    fn kept_pace(&self) -> bool {
        2 * self.valid().iter().filter(|s| s.run.kept_pace()).count() > self.valid().len()
    }

    fn tally(&self) -> Tally {
        let mut tally = Tally::default();
        for s in &self.slices {
            tally.add(s.tally);
        }
        tally
    }
}

/// Runs one open-loop step of `arrivals` and checks every reply.
fn step(service: &AllocationService, case_base: &CaseBase, arrivals: &[ClassedArrival]) -> Step {
    let plan = arrivals
        .iter()
        .map(|a| Planned {
            due_us: a.at_us,
            class: a.class,
            request: a.request.clone(),
        })
        .collect();
    let run = openloop::run(service, plan);
    let triples: Vec<_> = run
        .served
        .iter()
        .map(|s| (&arrivals[s.index as usize].request, s.class, &s.outcome))
        .collect();
    let tally = check::check_all(case_base, &triples);
    Step { run, tally }
}

/// Closed-loop saturation: two requester threads, each keeping a window
/// of requests in flight, for `seconds`. Returns completions per second
/// and the tally of their checked replies.
fn saturate(
    service: &AllocationService,
    case_base: &CaseBase,
    arrivals: &[ClassedArrival],
    seconds: f64,
) -> (f64, Tally) {
    const THREADS: usize = 2;
    const WINDOW: usize = 32;
    let started = Instant::now();
    let end = started + Duration::from_secs_f64(seconds);
    let results: Vec<Vec<(usize, rqfa_service::Outcome)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let mut next = t * arrivals.len() / THREADS;
                    let mut out = Vec::new();
                    while Instant::now() < end {
                        let tickets: Vec<(usize, Ticket)> = (0..WINDOW)
                            .map(|_| {
                                let index = next % arrivals.len();
                                next += 1;
                                let a = &arrivals[index];
                                (index, service.submit(a.request.clone(), a.class))
                            })
                            .collect();
                        for (index, ticket) in tickets {
                            let reply = ticket.wait().expect("service answers");
                            out.push((index, reply.outcome));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("requester panicked"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    let triples: Vec<_> = results
        .iter()
        .flatten()
        .map(|(i, outcome)| (&arrivals[*i].request, arrivals[*i].class, outcome))
        .collect();
    (
        triples.len() as f64 / elapsed,
        check::check_all(case_base, &triples),
    )
}

/// The rate at which the step ladder's p90 crosses the limit,
/// interpolated in log-latency between the last step within it and the
/// first beyond it (extrapolated from the nearest two steps, by at most
/// half the ladder's span, when every step is on one side). A step
/// whose replies fell behind its arrivals counts as beyond the limit.
fn max_rate(ladder: &[Ladder]) -> f64 {
    let points: Vec<(f64, f64)> = ladder
        .iter()
        .map(|l| {
            let p90 = l.quantile_us(None, 0.9).max(1.0);
            let p90 = if l.kept_pace() {
                p90
            } else {
                p90.max(2.0 * LIMIT_P90_US)
            };
            (l.rate, p90.ln())
        })
        .collect();
    if points.len() < 2 {
        return points.first().map_or(f64::NAN, |p| p.0);
    }
    let limit = LIMIT_P90_US.ln();
    let pair = match points.iter().position(|p| p.1 > limit) {
        Some(0) => (points[0], points[1]),
        Some(i) => (points[i - 1], points[i]),
        None => (points[points.len() - 2], points[points.len() - 1]),
    };
    let ((r0, l0), (r1, l1)) = pair;
    let span = points[points.len() - 1].0 - points[0].0;
    let rate = if l1 > l0 {
        r0 + (limit - l0) / (l1 - l0) * (r1 - r0)
    } else {
        r1 + span / 2.0
    };
    rate.clamp(
        points[0].0 - span / 2.0,
        points[points.len() - 1].0 + span / 2.0,
    )
}

/// Measures learn-to-serve latency: from issuing a learning mutation to
/// the in-memory service until a request of the mutated type, submitted
/// right after, is answered. The answer reflects the mutation (the
/// shard's cache is invalidated and its plane recompiled on that
/// request), so this is how long learning takes to reach requesters.
/// Each answer is checked against the oracle over the mutated case base.
///
/// The learner drives a twin of the measured service (same case base,
/// same configuration), so the traffic's replies keep answering, and
/// being checked against, the unmutated case base.
struct Learner {
    service: AllocationService,
    gen: PairedGen,
    /// One request per function type.
    probes: HashMap<TypeId, Request>,
    tally: Tally,
    rejected: u64,
    /// Latency samples (ns) per batch, with the CPU share the hypervisor
    /// stole meanwhile.
    batches: Vec<(Vec<u64>, f64)>,
}

impl Learner {
    fn new(case_base: &CaseBase, config: &ServiceConfig, seed: u64) -> Learner {
        let mut probes = HashMap::new();
        let count = 50 * case_base.type_count();
        for request in RequestGen::new(case_base)
            .seed(seed)
            .count(count)
            .repeat_fraction(0.0)
            .generate()
        {
            probes.entry(request.type_id()).or_insert(request);
        }
        Learner {
            service: AllocationService::new(case_base, config).expect("valid service config"),
            gen: PairedGen::new(case_base, seed),
            probes,
            tally: Tally::default(),
            rejected: 0,
            batches: Vec::new(),
        }
    }

    /// Times `count` mutations, one at a time.
    fn batch(&mut self, count: usize) {
        let service = &self.service;
        let ticks = stats::cpu_ticks();
        let mut ns = Vec::with_capacity(count);
        for _ in 0..count {
            let mutation = self.gen.next_mutation();
            let probe = self.probes.get(&mutation.type_id()).cloned();
            let started = Instant::now();
            let applied = service.apply_mutation(&mutation);
            let reply = probe
                .as_ref()
                .map(|p| service.submit(p.clone(), QosClass::High).wait());
            ns.push(nanos(started.elapsed()));
            self.rejected += u64::from(applied.is_err());
            if let (Some(probe), Some(Some(reply))) = (probe, reply) {
                let mut oracle = check::Oracle::new(self.gen.case_base());
                check::check_one(
                    &mut oracle,
                    &mut self.tally,
                    &probe,
                    QosClass::High,
                    &reply.outcome,
                );
            }
        }
        self.batches.push((ns, stats::stolen_since(ticks)));
    }

    /// Median over the batches the hypervisor left alone (all of them
    /// if it left none) of each batch's latency quantile, µs.
    fn quantile_us(&self, q: f64) -> f64 {
        let scored = |b: &&(Vec<u64>, f64)| b.1 <= MAX_STOLEN;
        let any = self.batches.iter().any(|b| scored(&b));
        let per_batch: Vec<f64> = self
            .batches
            .iter()
            .filter(|b| !any || scored(b))
            .map(|b| stats::quantile_us(&b.0, q))
            .collect();
        median(&per_batch)
    }
}

fn step_note(label: &str, l: &Ladder) -> String {
    let pooled = |f: fn(&StepRun) -> &Vec<u64>| {
        let mut all: Vec<u64> = l
            .slices
            .iter()
            .flat_map(|s| f(&s.run).iter().copied())
            .collect();
        stats::latency(&mut all)
    };
    let late = pooled(|r| &r.late_ns);
    let own = pooled(|r| &r.harness_late_ns);
    let rounds: Vec<String> = l
        .slices
        .iter()
        .map(|s| {
            let p90 = stats::latency(&mut s.latencies(None)).p90_us;
            let mark = if s.run.valid() { "" } else { "*" };
            format!("{p90:.0}{mark}({:.0}%)", 100.0 * s.run.stolen)
        })
        .collect();
    format!(
        "step {label:<9} offered {:>7.0}/s achieved {:>7.0}/s  p50 {:>7.1} p90 {:>7.1} µs \
         (n={})  lateness p90 {:.1} p99 {:.1} µs, generator's own p90 {:.1} µs  \
         submit {:.0} ns{}\n    p90 by round (* not scored; share of CPU stolen): {}",
        l.median_of(|s| s.run.offered_rps),
        l.median_of(|s| s.run.achieved_rps),
        l.quantile_us(None, 0.5),
        l.quantile_us(None, 0.9),
        l.samples(None),
        late.p90_us,
        late.p99_us,
        own.p90_us,
        l.median_of(|s| s.run.submit_ns),
        if l.kept_pace() { "" } else { "  BACKLOG" },
        rounds.join(" "),
    )
}

fn check_tally(report: &mut Report, label: &str, tally: &Tally) {
    if tally.mismatches > 0 {
        report.problem(format!(
            "{label}: {} replies differ from the FixedEngine oracle",
            tally.mismatches
        ));
    }
    if tally.critical_shed > 0 {
        report.problem(format!(
            "{label}: {} CRITICAL requests were shed",
            tally.critical_shed
        ));
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(spec: &Spec, ctx: &Ctx<'_>) -> Report {
    let mut report = Report::new(spec.name);
    let (case_base, service, setup_s) = spec.setup(ctx.seed, &spec.config, spec.setups);
    let slice_s = ctx.seconds / ROUNDS as f64;
    let ladder_of = |(rate, _): &(f64, f64)| Ladder {
        rate: *rate,
        slices: Vec::with_capacity(ROUNDS),
    };
    let mut ladder: Vec<Ladder> = spec.steps.iter().map(ladder_of).collect();
    let mut overload = spec.overload.as_ref().map(ladder_of);
    let mut saturation = Vec::new();
    let mut saturation_tally = Tally::default();
    let mut learner = Learner::new(&case_base, &spec.config, ctx.seed ^ 0x77);
    for round in 0..ROUNDS {
        let seed = ctx.seed ^ ((round as u64) << 16);
        let planned = spec
            .steps
            .iter()
            .zip(&mut ladder)
            .chain(spec.overload.iter().zip(&mut overload));
        for (i, (&(rate, share), l)) in planned.enumerate() {
            let arrivals =
                spec.arrivals(&case_base, seed ^ ((i as u64) << 8), rate, slice_s * share);
            l.slices.push(step(&service, &case_base, &arrivals));
        }
        if spec.saturation_share > 0.0 {
            let arrivals = spec.arrivals(&case_base, seed ^ 0x5A_0000, spec.steps[0].0, 1.0);
            let ticks = stats::cpu_ticks();
            let (rps, tally) = saturate(
                &service,
                &case_base,
                &arrivals,
                slice_s * spec.saturation_share,
            );
            saturation.push((rps, stats::stolen_since(ticks)));
            saturation_tally.add(tally);
        }
        // Learning runs in every round too, so its samples see the same
        // spread of machine states as the traffic.
        learner.batch(MUTATIONS / ROUNDS);
    }
    let rss = peak_rss_mb();
    service.shutdown();

    let reference = &ladder[0];
    let critical_step = overload.as_ref().unwrap_or(reference);
    let mutate_p50_us = learner.quantile_us(0.5);
    let mutate_p90_us = learner.quantile_us(0.9);
    let (mutate_tally, rejected) = (learner.tally, learner.rejected);
    learner.service.shutdown();
    let max_rate_rps = if saturation.is_empty() {
        max_rate(&ladder)
    } else {
        let scored: Vec<f64> = saturation
            .iter()
            .filter(|s| s.1 <= MAX_STOLEN)
            .map(|s| s.0)
            .collect();
        if scored.is_empty() {
            median(&saturation.iter().map(|s| s.0).collect::<Vec<_>>())
        } else {
            median(&scored)
        }
    };
    // Outside the overload step, every shed, failure and rejected
    // mutation counts against the run.
    let mut tally = saturation_tally;
    check_tally(&mut report, "saturation", &saturation_tally);
    check_tally(&mut report, "learning", &mutate_tally);
    for (i, l) in ladder.iter().enumerate() {
        check_tally(&mut report, &format!("step {i}"), &l.tally());
        tally.add(l.tally());
    }
    let attempted = tally.replies + mutate_tally.replies + MUTATIONS as u64;
    let failed = tally.shed + tally.failed + mutate_tally.shed + mutate_tally.failed + rejected;
    report.attempted = attempted;
    report.failed = failed;
    if let Some(o) = &overload {
        let t = o.tally();
        check_tally(&mut report, "overload", &t);
        report.attempted += t.replies;
        report.failed += t.failed;
    }

    let samples = reference.samples(None);
    report.e2e("setup_s", "s", setup_s, spec.setups);
    report.e2e("p50_us", "us", reference.quantile_us(None, 0.5), samples);
    report.e2e("p90_us", "us", reference.quantile_us(None, 0.9), samples);
    let critical = Some(QosClass::Critical);
    report.e2e(
        "critical_p90_us",
        "us",
        critical_step.quantile_us(critical, 0.9),
        critical_step.samples(critical),
    );
    report.e2e("max_rate_rps", "1/s", max_rate_rps, ROUNDS);
    report.e2e(
        "throughput_rps",
        "1/s",
        reference.median_of(|s| s.run.achieved_rps),
        samples,
    );
    report.e2e("mutate_p50_us", "us", mutate_p50_us, MUTATIONS);
    report.e2e("mutate_p90_us", "us", mutate_p90_us, MUTATIONS);
    report.e2e(
        "served_share",
        "share",
        1.0 - failed as f64 / attempted as f64,
        attempted as usize,
    );
    report.e2e(
        "cpu_us_per_req",
        "us",
        reference.median_of(|s| s.run.service_cpu_s * 1e6 / s.run.served.len().max(1) as f64),
        samples,
    );
    report.e2e("peak_rss_mb", "MiB", rss, 1);

    report.note(format!(
        "p99 {:.1} µs (reference step: median of {} scored rounds of {ROUNDS}, {samples} samples); \
         latency metrics are medians of the scored rounds' quantiles",
        reference.quantile_us(None, 0.99),
        ROUNDS - reference.invalid()
    ));
    for (i, l) in ladder.iter().enumerate() {
        report.note(step_note(&format!("{i}"), l));
    }
    if let Some(o) = &overload {
        report.note(step_note("overload", o));
        report.note(format!(
            "overload: {} of {} requests shed (LOW shedding is the policy there)",
            o.tally().shed,
            o.tally().replies
        ));
    }
    if !saturation.is_empty() {
        report.note(format!(
            "saturation (2 threads × window 32): median {max_rate_rps:.0} req/s over {ROUNDS} rounds"
        ));
    }
    report
}

/// Metric deltas of a service between two snapshots.
struct Delta {
    hits: u64,
    misses: u64,
    stale: u64,
    promoted: u64,
    batches: u64,
    batched: u64,
}

fn delta(before: &MetricsSnapshot, after: &MetricsSnapshot) -> Delta {
    let sum = |s: &MetricsSnapshot, f: fn(&rqfa_service::ClassSnapshot) -> u64| -> u64 {
        s.classes.iter().map(f).sum()
    };
    Delta {
        hits: sum(after, |c| c.cache_hits) - sum(before, |c| c.cache_hits),
        misses: sum(after, |c| c.cache_misses) - sum(before, |c| c.cache_misses),
        stale: sum(after, |c| c.cache_stale) - sum(before, |c| c.cache_stale),
        promoted: sum(after, |c| c.promoted) - sum(before, |c| c.promoted),
        batches: after.batches - before.batches,
        batched: after.batched_requests - before.batched_requests,
    }
}

/// Per-stage times of a traced step, joined per request with the
/// flight recorder.
#[derive(Debug, Default)]
struct Stages {
    queue_us: Vec<f64>,
    critical_queue_us: Vec<f64>,
    dispatch_us: Vec<f64>,
    service_us: Vec<f64>,
    reply_us: Vec<f64>,
    /// End-to-end latency minus generator lateness minus the recorded
    /// stages: the requester's own hand-off (and µs rounding).
    unexplained_us: Vec<f64>,
    dropped_events: u64,
}

fn stages(service: &AllocationService, runs: &[&StepRun]) -> Stages {
    let dump = service.drain_trace();
    let breakdowns: HashMap<u64, StageBreakdown> = dump
        .timelines()
        .into_iter()
        .filter_map(|t| t.breakdown().map(|b| (t.request_id, b)))
        .collect();
    let mut out = Stages {
        dropped_events: dump.dropped,
        ..Stages::default()
    };
    for run in runs {
        for served in &run.served {
            let Some(b) = breakdowns.get(&served.id) else {
                continue;
            };
            out.queue_us.push(b.queue_us as f64);
            if served.class == QosClass::Critical {
                out.critical_queue_us.push(b.queue_us as f64);
            }
            out.dispatch_us.push(b.dispatch_us as f64);
            out.service_us.push(b.service_us as f64);
            out.reply_us.push(b.reply_us as f64);
            let late_us = run.late_ns[served.index as usize] as f64 / 1e3;
            out.unexplained_us
                .push(served.latency_ns as f64 / 1e3 - late_us - b.total_us() as f64);
        }
    }
    out
}

/// The traced run: every per-layer metric, and the ledger.
pub fn run_traced(spec: &Spec, ctx: &Ctx<'_>) -> Report {
    let mut report = Report::new(spec.name);
    let (case_base, service, _) = spec.setup(ctx.seed, &spec.config, 1);
    let (rate, _) = spec.steps[0];
    let reference = spec.arrivals(&case_base, ctx.seed, rate, ctx.seconds * 0.4);

    // The reference step untraced, then the same arrivals traced.
    let before = service.metrics();
    let untraced = step(&service, &case_base, &reference);
    let untraced_delta = delta(&before, &service.metrics());
    service.shutdown();
    // Each shard's ring holds its share of the warm-up and of the traced
    // steps (about seven events a request), so no measured event is
    // overwritten.
    let shards = spec.config.shards.max(1);
    let overload_len = spec
        .overload
        .map_or(0, |(rate, _)| (rate * ctx.seconds * 0.2) as usize);
    let per_shard = (spec.warm + reference.len() + overload_len) / shards;
    let traced_config = spec
        .config
        .clone()
        .with_trace_capacity((per_shard * 8).next_power_of_two());
    let (_, traced_service, _) = spec.setup(ctx.seed, &traced_config, 1);
    let _ = traced_service.drain_trace();
    let before = traced_service.metrics();
    let traced = step(&traced_service, &case_base, &reference);
    let traced_stages = stages(&traced_service, &[&traced.run]);
    let overload = spec.overload.map(|(rate, _)| {
        let arrivals = spec.arrivals(&case_base, ctx.seed ^ 0xF0_0000, rate, ctx.seconds * 0.2);
        let s = step(&traced_service, &case_base, &arrivals);
        let st = stages(&traced_service, &[&s.run]);
        (s, st)
    });
    let traced_delta = delta(&before, &traced_service.metrics());
    traced_service.shutdown();
    for (label, s) in [("untraced", &untraced), ("traced", &traced)] {
        check_tally(&mut report, label, &s.tally);
        report.attempted += s.tally.replies;
        report.failed += s.tally.shed + s.tally.failed;
    }
    if let Some((o, _)) = &overload {
        check_tally(&mut report, "overload", &o.tally);
        report.attempted += o.tally.replies;
        report.failed += o.tally.failed;
    }

    let costs = layers::measure(
        &Inputs {
            case_base: &case_base,
            config: &spec.config,
            stream: &reference,
            seed: ctx.seed,
            state_dir: ctx.state_dir,
        },
        &mut report,
    );
    if costs.retries + costs.timeouts > 0 {
        report.problem(format!(
            "clean loopback saw {} retries and {} timeouts",
            costs.retries, costs.timeouts
        ));
    }

    let u = stats::latency(&mut untraced.latencies(None));
    let t = stats::latency(&mut traced.latencies(None));
    let lookups = (untraced_delta.hits + untraced_delta.misses).max(1) as f64;
    report.layer(
        "cache.hit_ratio",
        "ratio",
        untraced_delta.hits as f64 / lookups,
        lookups as usize,
    );
    report.layer(
        "cache.stale_ratio",
        "ratio",
        untraced_delta.stale as f64 / lookups,
        lookups as usize,
    );
    report.layer(
        "service.queue.batch_occupancy",
        "count",
        untraced_delta.batched as f64 / untraced_delta.batches.max(1) as f64,
        untraced_delta.batches as usize,
    );
    let st = &traced_stages;
    report.layer(
        "service.queue.wait_us_p50",
        "us",
        quantile(&st.queue_us, 0.5),
        st.queue_us.len(),
    );
    let (critical_wait, overload_shed) = match &overload {
        Some((o, ost)) => (
            &ost.critical_queue_us,
            o.tally.shed as f64 / o.tally.replies.max(1) as f64,
        ),
        None => (&st.critical_queue_us, 0.0),
    };
    report.layer(
        "service.queue.critical_wait_us_p90",
        "us",
        quantile(critical_wait, 0.9),
        critical_wait.len(),
    );
    report.layer(
        "service.queue.promotions",
        "count",
        traced_delta.promoted as f64,
        0,
    );
    report.layer(
        "service.queue.overload_shed_share",
        "share",
        overload_shed,
        0,
    );
    report.layer(
        "service.shard.dispatch_us_p50",
        "us",
        quantile(&st.dispatch_us, 0.5),
        st.dispatch_us.len(),
    );
    report.layer(
        "service.shard.reply_us_p50",
        "us",
        quantile(&st.reply_us, 0.5),
        st.reply_us.len(),
    );
    report.layer("service.remote.retries", "count", costs.retries as f64, 0);
    report.layer("service.remote.timeouts", "count", costs.timeouts as f64, 0);
    report.layer(
        "telemetry.trace_overhead",
        "ratio",
        t.p50_us / u.p50_us,
        t.samples,
    );
    report.layer(
        "telemetry.dropped_events",
        "count",
        st.dropped_events as f64,
        0,
    );
    let mut own = untraced.run.harness_late_ns.clone();
    let own = stats::latency(&mut own);
    let mut late = untraced.run.late_ns.clone();
    let late = stats::latency(&mut late);
    report.layer("harness.gen_late_p99_us", "us", own.p99_us, own.samples);
    report.layer(
        "harness.submit_wait_p99_us",
        "us",
        late.p99_us,
        late.samples,
    );
    report.layer(
        "harness.offered_rps",
        "1/s",
        untraced.run.offered_rps,
        late.samples,
    );
    report.layer(
        "harness.achieved_rps",
        "1/s",
        untraced.run.achieved_rps,
        u.samples,
    );
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
        f64::from(u8::from(!untraced.run.valid())),
        1,
    );
    report.layer("harness.stolen_share", "share", untraced.run.stolen, 1);
    // The in-process path crosses neither the network nor the log.
    report.layer("ledger.remote_share_of_p50", "ratio", 0.0, 0);
    report.layer("ledger.persist_share_of_mutate_p50", "ratio", 0.0, 0);
    ledger(
        &mut report,
        &costs,
        &untraced,
        &traced_stages,
        t.p50_us,
        u.p50_us,
        lookups,
        &untraced_delta,
    );
    report
}

#[allow(clippy::too_many_arguments)]
fn ledger(
    report: &mut Report,
    costs: &Costs,
    untraced: &Step,
    st: &Stages,
    traced_p50: f64,
    untraced_p50: f64,
    lookups: f64,
    d: &Delta,
) {
    let mut late = untraced.run.late_ns.clone();
    let late = stats::latency(&mut late);
    let miss_share = d.misses as f64 / lookups;
    let kernel_us = miss_share * costs.kernel_ns / 1e3;
    let cache_us = costs.lookup_ns / 1e3 + miss_share * costs.insert_ns / 1e3;
    // The recorder stamps every event of a batch with the batch's start,
    // so scoring and reply show as 0 in the trace; the replayed kernel
    // and cache costs stand in for them.
    let unexplained = quantile(&st.unexplained_us, 0.5) - kernel_us - cache_us;
    let rows = [
        ("harness: lateness p50", late.p50_us),
        ("service.shard: submit (replay)", costs.submit_ns / 1e3),
        (
            "service.queue: wait p50 (trace)",
            quantile(&st.queue_us, 0.5),
        ),
        (
            "service.shard: dispatch p50 (trace)",
            quantile(&st.dispatch_us, 0.5),
        ),
        ("core.kernel: per request (replay)", kernel_us),
        ("cache: lookup + insert (replay)", cache_us),
        ("unexplained p50 (reply hand-off, wake-ups)", unexplained),
    ];
    report.note(format!(
        "ledger: end-to-end p50 {untraced_p50:.2} µs untraced, {traced_p50:.2} µs traced \
         (miss share {miss_share:.3}, {:.0} ns per miss)",
        costs.kernel_ns
    ));
    for (label, value) in rows {
        report.note(format!("  {label:<44} {value:>9.2} µs"));
    }
    let share = costs.kernel_ns / 1e3 / costs.per_req_us.max(1e-9);
    report.layer(
        "ledger.unexplained_us_p50",
        "us",
        unexplained,
        st.unexplained_us.len(),
    );
    report.layer("core.kernel.share_of_service", "ratio", share, 0);
}
