//! The open-loop load generator of an in-process `AllocationService`.
//!
//! One generator thread submits every arrival at its due time whether
//! or not earlier requests were answered, so a slow service sees a
//! growing queue rather than a politely slowed requester. A reply is
//! timed from its request's *due* time, so a stall also charges the
//! requests it delayed. Replies are observed by collector threads that
//! wait on their tickets in submission order, one for CRITICAL and one
//! for the other classes of each shard. A shard answers one class in
//! submission order, so CRITICAL replies, which the arbiter may send
//! ahead of older requests, are never held back behind them; among the
//! other classes a reply can wait for an older one of the same batch,
//! which costs microseconds at the reference rates. More collectors
//! would observe more exactly but, on a small machine, compete with the
//! service for its cores and make the tail noisier.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use rqfa_core::{QosClass, Request};
use rqfa_service::{shard, AllocationService, Outcome, Ticket};

use crate::stats;

/// One arrival of an open-loop plan.
pub struct Planned {
    pub due_us: u64,
    pub class: QosClass,
    pub request: Request,
}

/// One answered request.
pub struct Served {
    /// Position in the plan.
    pub index: u32,
    /// The id the service gave the request (joins the flight recorder).
    pub id: u64,
    pub class: QosClass,
    /// Due time → reply observed.
    pub latency_ns: u64,
    /// Step start → reply observed.
    pub done_ns: u64,
    pub outcome: Outcome,
}

/// Everything one open-loop step measured.
pub struct StepRun {
    /// Answered requests, in plan order.
    pub served: Vec<Served>,
    /// Lateness per arrival (submit started − due), ns: the generator's
    /// own delay plus any wait for earlier `submit` calls to return.
    pub late_ns: Vec<u64>,
    /// The generator's own share of each arrival's lateness (submit
    /// started − the later of due time and the previous `submit`
    /// returning), ns. Waiting behind a slow `submit` is the service's
    /// doing and stays in the latency; this part is harness delay.
    pub harness_late_ns: Vec<u64>,
    /// Arrivals per second the plan offered.
    pub offered_rps: f64,
    /// Replies per second, from the first due time to the last reply.
    pub achieved_rps: f64,
    /// Process CPU seconds spent serving the step: the whole process
    /// minus the generator thread, plus the generator's time inside
    /// `submit` (the generator spins between arrivals to hold its
    /// schedule, which is harness cost, not service cost).
    pub service_cpu_s: f64,
    /// Mean wall time of one `submit` call, ns.
    pub submit_ns: f64,
    /// Share of the machine's CPU time the hypervisor stole meanwhile.
    pub stolen: f64,
}

impl StepRun {
    /// The generator fell behind its own schedule: its own lateness
    /// exceeds 20 µs for more than a tenth of the arrivals, so part of
    /// what the step would report is harness delay, not service latency.
    pub fn generator_fell_behind(&self) -> bool {
        let mut late = self.harness_late_ns.clone();
        stats::latency(&mut late).p90_us > 20.0
    }

    /// Whether the step is scored: the generator held its schedule and
    /// the hypervisor left the machine alone.
    pub fn valid(&self) -> bool {
        !self.generator_fell_behind() && self.stolen <= stats::MAX_STOLEN
    }

    /// Whether replies kept pace with arrivals (no growing backlog).
    pub fn kept_pace(&self) -> bool {
        self.achieved_rps >= 0.97 * self.offered_rps
    }
}

/// The generator sleeps until this long before the next due time and
/// spins (yielding the core) for the rest, so submits start on time
/// without a busy generator taking a core from the service.
const SPIN_WINDOW: Duration = Duration::from_micros(15);

/// Runs `plan` (ascending due times) against `service` on the calling
/// thread and waits for every reply.
pub fn run(service: &AllocationService, plan: Vec<Planned>) -> StepRun {
    let shards = service.shard_count();
    let n = plan.len();
    let span_us = plan.last().map_or(1, |p| p.due_us.max(1));
    let mut late_ns = Vec::with_capacity(n);
    let mut harness_late_ns = Vec::with_capacity(n);
    let mut submit_ns = 0u64;
    precise_sleeps();
    let ticks_before = stats::cpu_ticks();
    let cpu_before = stats::process_cpu_s();
    let gen_cpu_before = stats::thread_cpu_s();
    let start = Instant::now() + Duration::from_millis(2);
    let mut served: Vec<Served> = std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(2 * shards);
        let mut collectors = Vec::with_capacity(2 * shards);
        for _ in 0..2 * shards {
            let (tx, rx) = mpsc::channel::<(u32, Instant, Ticket)>();
            senders.push(tx);
            collectors.push(scope.spawn(move || collect(&rx, start)));
        }
        let mut free_at = start;
        for (index, planned) in plan.into_iter().enumerate() {
            let due = start + Duration::from_micros(planned.due_us);
            wait_until(due);
            let began = Instant::now();
            harness_late_ns.push(nanos(began.saturating_duration_since(due.max(free_at))));
            let lane = 2 * shard::route(planned.request.type_id(), shards)
                + usize::from(planned.class != QosClass::Critical);
            let ticket = service.submit(planned.request, planned.class);
            let ended = Instant::now();
            free_at = ended;
            late_ns.push(nanos(began.saturating_duration_since(due)));
            submit_ns += nanos(ended - began);
            let index = u32::try_from(index).expect("plan fits u32");
            senders[lane]
                .send((index, due, ticket))
                .expect("collector alive until its sender drops");
        }
        drop(senders);
        collectors
            .into_iter()
            .flat_map(|c| c.join().expect("collector thread panicked"))
            .collect()
    });
    let gen_cpu = stats::thread_cpu_s() - gen_cpu_before;
    let cpu = stats::process_cpu_s() - cpu_before;
    let stolen = stats::stolen_since(ticks_before);
    served.sort_unstable_by_key(|s| s.index);
    let finish_ns = served.iter().map(|s| s.done_ns).max().unwrap_or(1).max(1);
    StepRun {
        offered_rps: n as f64 / (span_us as f64 / 1e6),
        achieved_rps: served.len() as f64 / (finish_ns as f64 / 1e9),
        served,
        late_ns,
        harness_late_ns,
        service_cpu_s: (cpu - gen_cpu + submit_ns as f64 / 1e9).max(0.0),
        submit_ns: submit_ns as f64 / n.max(1) as f64,
        stolen,
    }
}

/// Blocks until `due`: sleeps while the next arrival is far off, spins
/// (yielding the core) for the last stretch.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN_WINDOW {
            std::thread::sleep(left - SPIN_WINDOW);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Shrinks the calling thread's timer slack to 1 ns, so the
/// generator's short sleeps wake within microseconds rather than the
/// default 50 µs late. Refused, it leaves the default; the lateness
/// report shows the cost.
#[cfg(target_os = "linux")]
fn precise_sleeps() {
    const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
    extern "C" {
        fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and
    // touches no memory of ours; a failure changes nothing.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn precise_sleeps() {}

/// Waits on one lane's tickets in submission order.
fn collect(rx: &mpsc::Receiver<(u32, Instant, Ticket)>, start: Instant) -> Vec<Served> {
    let mut out = Vec::new();
    while let Ok((index, due, ticket)) = rx.recv() {
        let id = ticket.id();
        let class = ticket.class();
        let reply = ticket
            .wait()
            .expect("service answers every admitted ticket");
        let seen = Instant::now();
        out.push(Served {
            index,
            id,
            class,
            latency_ns: nanos(seen.saturating_duration_since(due)),
            done_ns: nanos(seen.saturating_duration_since(start)),
            outcome: reply.outcome,
        });
    }
    out
}

pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
