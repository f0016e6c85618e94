//! Serving benchmark for the SME GEMM stack, on both of its clocks.
//!
//! ```text
//! servebench --workload <steady-serve|fresh-serve|pretune-restart>
//!            --seed <n> --seconds <n> --trace <0|1> --dir <scratch dir>
//! ```
//!
//! One closed-loop client serves the workload's seeded batches through
//! `Router::dispatch` (plus inline `PretuneDaemon` ticks and restarts),
//! oracle-checks every output outside the timed calls, and prints every
//! metric by name with its unit. The last stdout line is the JSON result:
//! end-to-end metrics with `--trace 0`; with `--trace 1`, per-layer
//! metrics from timing each layer's public calls, plus a Chrome trace.
//!
//! Every run also replays its deterministic prefix on a fresh stack and
//! requires the simulated metrics to repeat exactly. The exit code is 0
//! only when every output was correct and the replay matched.

mod layers;
mod oracle;
mod serve;
mod stats;
mod traffic;

use accel_ref::AccelerateSgemm;
use serve::{Prefix, Session};
use sme_gemm::AnyGemmConfig;
use sme_machine::MachineConfig;
use stats::{geomean, median, result_json, tail, Metrics};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use traffic::{Traffic, Workload};

/// Spans the traced half of a run may keep.
const TRACE_CAPACITY: usize = 1 << 16;

const USAGE: &str = "usage: servebench --workload <steady-serve|fresh-serve|pretune-restart> \
                     --seed <n> --seconds <n> --trace <0|1> --dir <scratch dir>";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut dir) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--dir" => dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        dir: dir.ok_or("--dir is required")?,
    })
}

/// The simulated clock's metrics over a run's deterministic prefix. Every
/// field repeats exactly for a seed.
#[derive(Debug)]
struct Simulated {
    /// Σ nominal flops / Σ placed makespan, in simulated GFLOPS.
    gflops: f64,
    /// Geomean over served FP32 kernels of their modelled GFLOPS over the
    /// Accelerate model's.
    vs_accelerate: f64,
    /// Instructions of the distinct kernels that served the prefix.
    emitted_insts: usize,
    /// Instructions the prefix's requests retired.
    sim_insts: u64,
}

impl Simulated {
    fn of(prefix: &Prefix) -> Simulated {
        let clock_ghz = MachineConfig::apple_m4().p_core.clock_ghz;
        let cycles: f64 = prefix.batches.iter().map(|b| b.makespan).sum();
        let flops: u64 = prefix.batches.iter().map(|b| b.flops).sum();
        let mut emitted_insts = 0;
        let mut ratios = Vec::new();
        for served in prefix.kernels.values() {
            let kernel = served.rebuild();
            emitted_insts += kernel.program().len();
            if let AnyGemmConfig::Fp32(cfg) = served.config {
                let vendor = AccelerateSgemm::new(cfg)
                    .model_gflops()
                    .expect("the vendor model covers every FP32 shape");
                ratios.push(kernel.model_gflops() / vendor);
            }
        }
        Simulated {
            gflops: flops as f64 / cycles * clock_ghz,
            vs_accelerate: geomean(&ratios),
            emitted_insts,
            sim_insts: prefix.batches.iter().map(|b| b.sim_insts).sum(),
        }
    }
}

/// FNV-1a over the bits of every prefix batch record: one number to
/// compare the simulated clock of two runs by.
fn digest(prefix: &Prefix) -> u64 {
    let words = prefix.batches.iter().flat_map(|b| {
        [
            b.makespan.to_bits(),
            b.flops,
            b.sim_insts,
            b.emitted_insts as u64,
        ]
    });
    words.fold(0xcbf2_9ce4_8422_2325, |h, w| {
        w.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = args.dir.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let outcome = run(&args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let (correct, attempted, failed, metrics) = outcome;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(args: &Args, dir: &std::path::Path) -> (bool, u64, u64, Metrics) {
    let workload = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let prefix = workload.prefix_batches();
    println!(
        "workload {} seed {} seconds {} trace {} workers {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let mut traffic = Traffic::new(workload, args.seed);
    let mut session = Session::start(workload, &traffic, dir);
    let (metrics, simulated) = if args.trace {
        session.measure(&mut traffic, budget / 2, prefix, 0, false);
        let untraced = std::mem::take(&mut session.tally);
        let hub = sme_obs::ObsHub::shared(TRACE_CAPACITY);
        session.attach(hub.clone());
        session.measure(&mut traffic, budget / 2, 1, 0, true);
        let metrics = layers::measure(&session, &untraced, &hub, dir);
        let chrome = hub.trace.to_chrome_trace();
        match sme_obs::validate_chrome_trace(&chrome) {
            Ok(events) => {
                let path = args
                    .dir
                    .join(format!("trace-{}-{}.json", workload.name(), args.seed));
                match std::fs::write(&path, &chrome) {
                    Ok(()) => println!("chrome trace: {} ({events} events)", path.display()),
                    Err(e) => println!("chrome trace not written: {e}"),
                }
            }
            Err(e) => {
                println!("chrome trace invalid: {e}");
                session.failed += 1;
            }
        }
        (metrics, Simulated::of(&session.prefix))
    } else {
        session.measure(&mut traffic, budget, prefix, workload.drills(), false);
        let simulated = Simulated::of(&session.prefix);
        (end_to_end(&session, &simulated), simulated)
    };

    // The exact-repeat check: the same seed on a fresh stack must
    // reproduce the start of the prefix's simulated clock bit for bit.
    let window = workload.replay_batches();
    let mut replay_traffic = Traffic::new(workload, args.seed);
    let mut replay = Session::start(workload, &replay_traffic, &dir.join("replay"));
    replay.measure(&mut replay_traffic, Duration::ZERO, window, 0, false);
    let repeated = replay.prefix.batches[..window] == session.prefix.batches[..window];

    let attempted = session.attempted + replay.attempted;
    let failed = session.failed + replay.failed;
    for metric in &metrics.0 {
        println!("{:<40} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    let batches = session.tally.batch_ms.len();
    let (tail_p, _) = tail(&session.tally.batch_ms);
    println!(
        "batch samples {batches}, tail at p{tail_p}; tick samples {}; restart samples {}; setups {}",
        session.tally.tick_ms.len(),
        session.tally.restart_ms.len(),
        session.tally.setup_s.len(),
    );
    println!(
        "failed_ratio {:.6} ({failed} of {attempted} requests); cold restarts {} of {}",
        failed as f64 / attempted.max(1) as f64,
        session.tally.cold_restarts,
        session.tally.restart_ms.len(),
    );
    println!(
        "deterministic prefix: {} batches, sim_gflops {:?}, sim_vs_accelerate {:?}, \
         emitted_insts {}, sim_insts {}, digest {:016x}; first {window} repeated exactly: {repeated}",
        session.prefix.batches.len(),
        simulated.gflops,
        simulated.vs_accelerate,
        simulated.emitted_insts,
        simulated.sim_insts,
        digest(&session.prefix),
    );
    (failed == 0 && repeated, attempted, failed, metrics)
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(session: &Session, simulated: &Simulated) -> Metrics {
    let t = &session.tally;
    let mut m = Metrics::default();
    m.push("requests_per_s", "req/s", t.requests as f64 / t.serving_s);
    m.push("batch_ms_p50", "ms", median(&t.batch_ms));
    m.push("batch_ms_tail", "ms", tail(&t.batch_ms).1);
    m.push("setup_s", "s", median(&t.setup_s));
    m.push("peak_rss_mb", "MiB", t.peak_rss_mb);
    m.push("sim_gflops", "GFLOPS", simulated.gflops);
    m.push("sim_vs_accelerate", "x", simulated.vs_accelerate);
    m.push("tick_ms_p50", "ms", median(&t.tick_ms));
    m.push("restart_ms", "ms", median(&t.restart_ms));
    m
}
