//! End-to-end and per-layer benchmark of the rqfa allocation service.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <hot_zipf|cold_wide|learn_cluster|all> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics a requester sees;
//! `--trace 1` runs the workload again with the service's flight
//! recorder armed and replays the workload's inputs into each layer, and
//! reports the per-layer metrics and the ledger that sets them beside
//! the end-to-end median. Every reply is checked against the naive
//! `FixedEngine` oracle; a failed check makes the run exit non-zero.
//! The last line of standard output is the JSON result.
//!
//! Workloads (each with the layers it was chosen for):
//!
//! * `hot_zipf` — an in-process service (2 shards, default config) over
//!   24 types × 24 variants, fed an open-loop Poisson stream of zipf
//!   payloads at 36 000 req/s in the 200:1000:2000:4000 class mix.
//!   About 98% of requests hit the result cache, so each costs submit,
//!   queue, hand-off and a cache lookup: the hand-off tax. A closed-loop
//!   saturation phase gives its `max_rate_rps`.
//! * `cold_wide` — the same service over 16 types × 2048 variants with
//!   all-fresh payloads: nearly every lookup misses, so the scoring
//!   kernel carries each request and the cache pays an insert. Fixed
//!   rate steps around the measured capacity give `max_rate_rps` (the
//!   rate where p90 crosses 200 µs), and an overload step at 1.3× that
//!   capacity gives `critical_p90_us` (sheds there are the LOW policy,
//!   not failures).
//! * `learn_cluster` — see `learn_cluster.rs`: the wire codec, loopback
//!   RPC and WAL carry it.
//!
//! Every workload reports every end-to-end metric. Where one has no
//! natural meaning it is defined per workload: `max_rate_rps` is the
//! closed-loop saturation throughput on `hot_zipf` and reads plus
//! mutations per second on `learn_cluster`; `mutate_*` is the durable
//! acknowledgement on `learn_cluster` and learn-to-serve latency on the
//! in-process workloads. `served_share` is one minus the failed share,
//! so that it never reads 0.
//!
//! A run is cut into interleaved rounds. A round is not scored when the
//! load generator fell behind its own schedule or the hypervisor stole
//! more than a few percent of the machine's CPU (small virtual machines
//! lose whole milliseconds to it); latency and rate metrics are the
//! median over the scored rounds of each round's figure.

mod check;
mod inproc;
mod layers;
mod learn_cluster;
mod openloop;
mod paired;
mod report;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use rqfa_core::CaseBase;
use rqfa_service::ServiceConfig;
use rqfa_workloads::{CaseGen, Popularity, TrafficGen};

use inproc::{Ctx, Spec};
use report::Report;

#[global_allocator]
static ALLOCATOR: stats::CountingAlloc = stats::CountingAlloc;

const WORKLOADS: [&str; 3] = ["hot_zipf", "cold_wide", "learn_cluster"];

/// The reference rate of `hot_zipf`: the default class mix scaled 5×,
/// well under what one generator thread can hold.
const HOT_RATE: f64 = 36_000.0;

/// Capacity of `cold_wide`'s service on the 2-core reference machine:
/// the rate where its p90 reaches the 200 µs limit.
const COLD_CAPACITY: f64 = 32_000.0;

fn hot_zipf() -> Spec {
    Spec {
        name: "hot_zipf",
        seed_salt: 0x4807,
        case_base: |seed| CaseGen::new(24, 24, 8, 10).seed(seed).build(),
        traffic: |gen| {
            gen.popularity(Popularity::Zipf {
                universe: 2048,
                exponent: 1.1,
            })
        },
        config: ServiceConfig::default().with_shards(2),
        steps: &[(HOT_RATE, 0.8)],
        overload: None,
        saturation_share: 0.2,
        setups: 21,
        warm: 2_000,
    }
}

fn cold_wide() -> Spec {
    // The reference step runs at under a third of capacity, where
    // queues rarely form; the ladder brackets the capacity. The overload
    // step gets the longest share: its CRITICAL tail is the thinnest
    // sample and the noisiest, since queueing amplifies every stall.
    const STEPS: [(f64, f64); 4] = [
        (10_000.0, 0.2),
        (22_000.0, 0.12),
        (29_000.0, 0.12),
        (36_000.0, 0.12),
    ];
    Spec {
        name: "cold_wide",
        seed_salt: 0xC01D,
        case_base: cold_case_base,
        traffic: |gen: TrafficGen<'_>| gen.popularity(Popularity::Mixed).repeat_fraction(0.0),
        config: ServiceConfig::default().with_shards(2),
        steps: &STEPS,
        overload: Some((1.3 * COLD_CAPACITY, 0.44)),
        saturation_share: 0.0,
        // Each set-up fills the caches (about 1.5 s here): three is enough
        // for a median.
        setups: 3,
        warm: 2 * (1 << 16) + 10_000,
    }
}

/// 16 types × 2048 variants: large enough that the kernel is most of a
/// miss's service time (about 10 µs of scoring against a few µs of
/// hand-off on the reference machine).
fn cold_case_base(seed: u64) -> CaseBase {
    CaseGen::new(16, 2048, 8, 10).seed(seed).build()
}

/// Where runs keep durable state, under the working directory.
const STATE_ROOT: &str = ".e2ebench_state";

/// A run's durable-state directory, removed when the run ends (also by
/// a panic's unwinding).
struct StateDir(PathBuf);

impl Drop for StateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The root goes too once no other run uses it.
        let _ = std::fs::remove_dir(STATE_ROOT);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 12.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {} (one of {WORKLOADS:?} or all)",
            args.workload
        ));
    }
    Ok(args)
}

fn run_one(name: &str, ctx: &Ctx<'_>, trace: bool) -> Report {
    match (name, trace) {
        ("hot_zipf", false) => inproc::run(&hot_zipf(), ctx),
        ("hot_zipf", true) => inproc::run_traced(&hot_zipf(), ctx),
        ("cold_wide", false) => inproc::run(&cold_wide(), ctx),
        ("cold_wide", true) => inproc::run_traced(&cold_wide(), ctx),
        ("learn_cluster", false) => learn_cluster::run(ctx),
        ("learn_cluster", true) => learn_cluster::run_traced(ctx),
        _ => unreachable!("workload names are validated"),
    }
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    // Durable state lives under the working directory and is removed
    // at exit.
    let state = StateDir(PathBuf::from(STATE_ROOT).join(std::process::id().to_string()));
    if let Err(e) = std::fs::create_dir_all(&state.0) {
        eprintln!("error: cannot create {}: {e}", state.0.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        state_dir: &state.0,
    };
    let names: Vec<&str> = if args.workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![args.workload.as_str()]
    };
    println!(
        "rqfa e2ebench: seed {} · {} s · trace {} · {} cores · wide kernel {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from),
        rqfa_core::wide_kernel_available()
    );
    let reports: Vec<Report> = names
        .iter()
        .map(|name| {
            let report = run_one(name, &ctx, args.trace);
            report.print();
            report
        })
        .collect();
    drop(state);
    println!("{}", report::result_line(&reports, args.trace));
    if reports.iter().all(Report::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
