//! Serving-loop trace: drive a synthetic shifting-traffic workload through
//! the full loop — placement-aware dispatch, decayed telemetry, the
//! pretune daemon's tune/warm/persist tick — then simulate a process
//! restart and show that "tomorrow's" traffic is served from a warm cache.
//!
//! The trace has three acts: a *yesterday* phase dominated by one shape
//! set, a *today* phase where the traffic shifts to a different set (the
//! decayed ranking must follow), and a restart where a brand-new router
//! restores the persisted snapshots, ticks once, and serves today's
//! traffic without compiling a single kernel. The binary exits non-zero
//! if any batch's placed makespan exceeds its isolated projection, if the
//! decayed ranking fails to follow the shift, if the post-restart batch is
//! not a pure cache hit, if the repeated-weights packed-operand hit rate
//! fell below 0.9 (on runs long enough to reach it), if an `--slo` rule
//! breached, or if
//! `--check-baseline` finds a regression. `--smoke` runs the tiny CI
//! preset; `--json` writes the per-batch records CI keeps as
//! `BENCH_serving.json`, `--trace` a Chrome trace of the run's causal
//! spans (load it at <https://ui.perfetto.dev>), `--metrics` the final
//! Prometheus metrics snapshot, and `--postmortem` is where an SLO
//! breach's bundle lands (CI uploads it on failure). `--write-baseline`
//! records this run as the new baseline for the perf ratchet.

use sme_bench::{
    chaos_run, maybe_write_json, render_chaos_report, render_serving_trace, serving_baseline,
    serving_run, BaselineStore, ServingTraceOptions,
};

fn main() {
    let opts = ServingTraceOptions::parse_or_exit(std::env::args().skip(1));
    println!(
        "Serving trace — {} yesterday + {} today batches, {} requests per shape\n",
        opts.warm_batches, opts.shifted_batches, opts.requests
    );

    let dir = std::env::temp_dir().join(format!("sme_serving_trace_{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: could not create {}: {e}", dir.display());
        std::process::exit(1);
    }

    if opts.chaos {
        // Chaos mode: same trace, but under the seeded fault schedule —
        // the run passes only if every request completed bit-correct and
        // every snapshot recovered (see the chaos module docs).
        let run = chaos_run(&opts, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        };
        print!("{}", render_chaos_report(&run.report));
        maybe_write_json(&opts.chaos_json, &run.report);
        if !run.report.passed {
            std::process::exit(1);
        }
        return;
    }

    let run = serving_run(&opts, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let trace = &run.trace;

    println!("{}", render_serving_trace(trace));
    maybe_write_json(&opts.json, trace);

    let mut failed = false;
    if !trace.placement_never_worse() {
        eprintln!("error: a batch's placed makespan exceeded its isolated projection");
        failed = true;
    }
    if !trace.shift_followed {
        eprintln!("error: the decayed ranking did not follow the traffic shift");
        failed = true;
    }
    if trace.restart_hit_rate < 1.0 {
        eprintln!(
            "error: the post-restart batch was not served from warm cache (hit rate {:.1}%)",
            100.0 * trace.restart_hit_rate
        );
        failed = true;
    }
    if !trace.seq_gapless() {
        eprintln!("error: the batch records do not carry a gapless sequence");
        failed = true;
    }
    // Repeated weights bound pack misses by (distinct operand sets ×
    // processes); only gate runs long enough that 0.9 is reachable.
    let pack_lookups: usize = trace
        .batches
        .iter()
        .map(|b| b.shapes.len() * opts.requests)
        .sum();
    if pack_lookups >= 90 && trace.pack_hit_rate < 0.9 {
        eprintln!(
            "error: packed-operand hit rate {:.1}% fell below the 90% repeated-weights floor",
            100.0 * trace.pack_hit_rate
        );
        failed = true;
    }

    // The flight recorder's verdicts: any breach dumps the postmortem
    // bundle (when a path was given) and fails the run.
    for breach in &run.breaches {
        eprintln!(
            "error: SLO breach: {} (observed {:.4}, threshold {:.4})",
            breach.rule, breach.observed, breach.threshold
        );
        failed = true;
    }
    if let Some(path) = &opts.postmortem {
        if let Some(bundle) = run.postmortem() {
            // Atomic write + checksum trailer, then read the bundle back
            // through the verifying loader: a postmortem torn by the dying
            // process it describes is worse than none.
            let target = std::path::Path::new(path);
            match sme_runtime::save_snapshot(target, &bundle.render_pretty(), None)
                .map_err(|e| e.to_string())
                .and_then(|()| sme_runtime::read_snapshot(target, None).map_err(|e| e.to_string()))
                .and_then(|text| {
                    serde_json::from_str(&text)
                        .map(|_| ())
                        .map_err(|e| format!("bundle does not parse back: {e}"))
                }) {
                Ok(()) => println!("postmortem: bundle written to {path}"),
                Err(e) => {
                    eprintln!("error: could not write postmortem bundle {path}: {e}");
                    failed = true;
                }
            }
        }
    }

    // The perf ratchet: record this run as the new baseline and/or compare
    // it against the committed one.
    if let Some(path) = &opts.write_baseline {
        match serving_baseline(trace).save(path) {
            Ok(()) => println!("baseline: written to {path}"),
            Err(e) => {
                eprintln!("error: could not write baseline {path}: {e}");
                failed = true;
            }
        }
    }
    if let Some(path) = &opts.check_baseline {
        let machine = sme_machine::MachineConfig::apple_m4();
        match BaselineStore::load_checked(path, &machine) {
            Ok((baseline, _check)) => {
                let report = baseline.compare(&serving_baseline(trace));
                if report.passed() {
                    println!(
                        "baseline: {} metric(s) within tolerance of {path}",
                        report.compared
                    );
                } else {
                    for regression in &report.regressions {
                        eprintln!("error: baseline regression: {regression}");
                    }
                    failed = true;
                }
            }
            Err(e) => {
                eprintln!("error: could not load baseline {path}: {e}");
                failed = true;
            }
        }
    }

    if let Some(path) = &opts.trace {
        match std::fs::read_to_string(path) {
            Ok(json) => match sme_obs::validate_chrome_trace(&json) {
                Ok(events) => println!("trace: {events} events written to {path}"),
                Err(e) => {
                    eprintln!("error: trace artifact {path} is not a valid Chrome trace: {e}");
                    failed = true;
                }
            },
            Err(e) => {
                eprintln!("error: could not read back trace artifact {path}: {e}");
                failed = true;
            }
        }
    }
    if let Some(path) = &opts.metrics {
        println!("metrics: Prometheus snapshot written to {path}");
    }
    if failed {
        std::process::exit(1);
    }
}
