//! Per-layer metrics of a traced run, each taken by timing a public call
//! of one layer from outside, on the configurations the run's
//! deterministic prefix served.
//!
//! Every probe records a `layer.*` span into the run's hub, so the Chrome
//! trace shows the probes beside the serving spans.

use crate::serve::{Session, Tally, CACHE_CAPACITY};
use crate::stats::{median, Metrics};
use sme_gemm::{generate_any_backend, AnyGemmConfig, Backend, RoutedKernel};
use sme_machine::exec::{RunOptions, Simulator};
use sme_machine::MachineConfig;
use sme_obs::ObsHub;
use sme_router::{PretuneDaemon, Router};
use sme_runtime::{tune_any, KernelCache, PackedOperandCache, PlanStore, TunerOptions};
use std::path::Path;
use std::time::Instant;

/// Most prefix kernels the probes run on, taken evenly from the prefix.
const PROBE_KERNELS: usize = 32;
/// Repetitions of each single-call probe (store and snapshot I/O).
const IO_REPS: usize = 5;
/// Configurations tuned at the full `TunerOptions::default()` effort,
/// which is the slowest probe.
const DEFAULT_TUNE_SHAPES: usize = 3;

/// Times one call and records it as a span.
struct Probe<'a> {
    hub: &'a ObsHub,
}

impl Probe<'_> {
    fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let started = Instant::now();
        let out = std::hint::black_box(f());
        let seconds = started.elapsed().as_secs_f64();
        self.hub.trace.record(name, "layer", started, Vec::new());
        (out, seconds)
    }
}

/// All per-layer metrics. `untraced` is the tally of the untraced half of
/// the run, `session` carries the traced half.
pub fn measure(session: &Session, untraced: &Tally, hub: &ObsHub, dir: &Path) -> Metrics {
    let probe = Probe { hub };
    let traced = &session.tally;
    let kernels = &session.prefix.kernels;
    let served: Vec<(AnyGemmConfig, Backend, RoutedKernel)> = kernels
        .values()
        .step_by(kernels.len().div_ceil(PROBE_KERNELS).max(1))
        .map(|k| (k.config, k.backend, k.rebuild()))
        .collect();
    let mut m = Metrics::default();

    // sme-gemm: generation and operand packing.
    let mut generate_us = Vec::new();
    let mut pack_us = Vec::new();
    for (config, backend, _) in &served {
        let (kernel, s) = probe.time("layer.gemm.generate", || {
            generate_any_backend(config, *backend)
        });
        generate_us.push(s * 1e6);
        let kernel = kernel.expect("served kernels regenerate");
        let (_, s) = probe.time("layer.gemm.pack", || kernel.pack_operands(0x5eed));
        pack_us.push(s * 1e6);
    }
    m.push("gemm.generate_us_p50", "us", median(&generate_us));
    m.push("gemm.pack_us_p50", "us", median(&pack_us));
    let emitted: usize = kernels.values().map(|k| k.rebuild().program().len()).sum();
    m.push("gemm.emitted_insts", "count", emitted as f64);

    // sme-machine: functional (with timing, as the service runs it) and
    // timing-only simulation, per retired instruction.
    let (mut functional_ns, mut functional_insts) = (0.0, 0u64);
    let (mut timing_ns, mut timing_insts) = (0.0, 0u64);
    for (_, _, kernel) in &served {
        let mut sim = Simulator::m4_performance();
        let images = kernel.pack_operands(0x5eed);
        let bufs = kernel.allocate_buffers_packed(&mut sim, 0x5eed, &images);
        let (result, s) = probe.time("layer.machine.functional", || {
            kernel.run(&mut sim, bufs, &RunOptions::default())
        });
        functional_ns += s * 1e9;
        functional_insts += result.stats.instructions;
        let (stats, s) = probe.time("layer.machine.timing", || kernel.model_stats());
        timing_ns += s * 1e9;
        timing_insts += stats.instructions;
    }
    m.push(
        "machine.functional_ns_per_inst",
        "ns",
        functional_ns / functional_insts.max(1) as f64,
    );
    m.push(
        "machine.timing_ns_per_inst",
        "ns",
        timing_ns / timing_insts.max(1) as f64,
    );
    let sim_insts: u64 = session.prefix.batches.iter().map(|b| b.sim_insts).sum();
    m.push("machine.sim_insts", "count", sim_insts as f64);
    let (table_err, _) = probe.time("layer.machine.table1", table_one_max_rel_err);
    m.push("machine.table1_max_rel_err", "ratio", table_err);

    // sme-runtime: kernel cache, pack cache, service, tuner, store.
    let lookups = traced.cache.hits + traced.cache.misses;
    m.push(
        "runtime.cache.hit_ratio",
        "ratio",
        traced.cache.hits as f64 / lookups.max(1) as f64,
    );
    m.push(
        "runtime.cache.evictions",
        "count",
        traced.cache.evictions as f64,
    );
    let cache = KernelCache::new(CACHE_CAPACITY);
    let packs = PackedOperandCache::new(CACHE_CAPACITY);
    let (mut miss_us, mut hit_ns) = (Vec::new(), Vec::new());
    let (mut pack_miss_us, mut pack_hit_ns) = (Vec::new(), Vec::new());
    for (config, backend, kernel) in &served {
        let (_, s) = probe.time("layer.runtime.cache.miss", || {
            cache.fetch_any(config, *backend)
        });
        miss_us.push(s * 1e6);
        let (_, s) = probe.time("layer.runtime.cache.hit", || {
            cache.fetch_any(config, *backend)
        });
        hit_ns.push(s * 1e9);
        let (_, s) = probe.time("layer.runtime.pack.miss", || {
            packs.get_or_pack(kernel, 0x5eed)
        });
        pack_miss_us.push(s * 1e6);
        let (_, s) = probe.time("layer.runtime.pack.hit", || {
            packs.get_or_pack(kernel, 0x5eed)
        });
        pack_hit_ns.push(s * 1e9);
    }
    m.push("runtime.cache.hit_ns_p50", "ns", median(&hit_ns));
    m.push("runtime.cache.miss_us_p50", "us", median(&miss_us));
    let pack_lookups = traced.pack.hits + traced.pack.misses;
    m.push(
        "runtime.pack.hit_ratio",
        "ratio",
        traced.pack.hits as f64 / pack_lookups.max(1) as f64,
    );
    m.push("runtime.pack.hit_ns_p50", "ns", median(&pack_hit_ns));
    m.push("runtime.pack.miss_us_p50", "us", median(&pack_miss_us));
    m.push(
        "runtime.pack.resident_mb",
        "MiB",
        session.router().cache().packs().resident_bytes() as f64 / (1 << 20) as f64,
    );
    let replay_ms: Vec<f64> = traced.replay_ms.iter().map(|&(_, r)| r).collect();
    m.push("runtime.service.dispatch_ms_p50", "ms", median(&replay_ms));

    let daemon_effort = session.daemon_config().tuner;
    let configs: Vec<AnyGemmConfig> = {
        let mut configs: Vec<AnyGemmConfig> = served.iter().map(|(c, _, _)| *c).collect();
        configs.dedup();
        configs
    };
    let (tune_ms, tried, pruned) = tune(&probe, &configs, &daemon_effort);
    m.push("runtime.tuner.tune_ms_p50", "ms", tune_ms);
    m.push("runtime.tuner.candidates_tried", "count", tried as f64);
    m.push("runtime.tuner.candidates_pruned", "count", pruned as f64);
    let few = &configs[..configs.len().min(DEFAULT_TUNE_SHAPES)];
    let (tune_ms, tried, pruned) = tune(&probe, few, &TunerOptions::default());
    m.push("runtime.tuner.default_tune_ms_p50", "ms", tune_ms);
    m.push(
        "runtime.tuner.default_candidates_tried",
        "count",
        tried as f64,
    );
    m.push(
        "runtime.tuner.default_candidates_pruned",
        "count",
        pruned as f64,
    );

    let machine = MachineConfig::apple_m4();
    let store = session.router().cache().export_store();
    let store_path = dir.join("probe-plans.json");
    let save_ms = repeat_ms(&probe, "layer.runtime.store.save", || {
        store
            .save(&store_path)
            .expect("the run directory is writable")
    });
    let load_ms = repeat_ms(&probe, "layer.runtime.store.load", || {
        PlanStore::load_recovered(&store_path, &machine)
    });
    m.push("runtime.store.save_ms", "ms", save_ms);
    m.push("runtime.store.load_ms", "ms", load_ms);

    // sme-router: dispatch, its overhead over the service, probes,
    // telemetry snapshots and daemon restore.
    let dispatch_ms: Vec<f64> = traced.replay_ms.iter().map(|&(d, _)| d).collect();
    let overhead_ms: Vec<f64> = traced.replay_ms.iter().map(|&(d, r)| d - r).collect();
    m.push("router.dispatch_ms_p50", "ms", median(&dispatch_ms));
    m.push("router.overhead_ms_p50", "ms", median(&overhead_ms));
    let fresh = Router::new(CACHE_CAPACITY);
    let probe_ms: Vec<f64> = configs
        .iter()
        .map(|config| {
            probe
                .time("layer.router.probe", || fresh.route_any(config))
                .1
                * 1e3
        })
        .collect();
    m.push("router.probe_ms_p50", "ms", median(&probe_ms));
    let telemetry_path = dir.join("probe-telemetry.json");
    let telemetry_ms = repeat_ms(&probe, "layer.router.telemetry.save", || {
        session
            .router()
            .telemetry()
            .save(&telemetry_path)
            .expect("the run directory is writable")
    });
    m.push("router.telemetry.save_ms", "ms", telemetry_ms);
    let restore_ms = repeat_ms(&probe, "layer.router.daemon.restore", || {
        let router = Router::new(CACHE_CAPACITY);
        PretuneDaemon::new(session.daemon_config().clone())
            .restore(&router)
            .expect("restore falls back to empty state, never fails")
    });
    m.push("router.daemon.restore_ms", "ms", restore_ms);
    let restarts = untraced.restart_ms.len() + traced.restart_ms.len();
    m.push(
        "router.daemon.cold_restart_ratio",
        "ratio",
        (untraced.cold_restarts + traced.cold_restarts) as f64 / restarts.max(1) as f64,
    );

    // sme-obs: what tracing costs the serving loop.
    let rps = |t: &Tally| t.requests as f64 / t.serving_s.max(f64::MIN_POSITIVE);
    m.push(
        "obs.trace_overhead_ratio",
        "ratio",
        rps(untraced) / rps(traced),
    );
    m
}

/// Median host ms of tuning each of `configs` at `opts`, and the summed
/// candidate counts (which repeat exactly for a seed).
fn tune(probe: &Probe, configs: &[AnyGemmConfig], opts: &TunerOptions) -> (f64, usize, usize) {
    let (mut ms, mut tried, mut pruned) = (Vec::new(), 0, 0);
    for config in configs {
        let (outcome, s) = probe.time("layer.runtime.tuner.tune", || tune_any(config, opts));
        let outcome = outcome.expect("served shapes tune");
        ms.push(s * 1e3);
        tried += outcome.candidates_tried;
        pruned += outcome.candidates_pruned;
    }
    (median(&ms), tried, pruned)
}

/// Median host ms of [`IO_REPS`] calls of `f`.
fn repeat_ms<T>(probe: &Probe, name: &str, mut f: impl FnMut() -> T) -> f64 {
    let ms: Vec<f64> = (0..IO_REPS)
        .map(|_| probe.time(name, &mut f).1 * 1e3)
        .collect();
    median(&ms)
}

/// Largest relative error of the simulated Table I throughputs (both core
/// kinds) against the paper's published values.
fn table_one_max_rel_err() -> f64 {
    let measured = sme_microbench::table_one(&MachineConfig::apple_m4());
    measured
        .iter()
        .zip(sme_microbench::table_one_reference())
        .flat_map(|(row, (_, _, p, e))| {
            [
                (row.p_core_gops - p).abs() / p,
                (row.e_core_gops - e).abs() / e,
            ]
        })
        .fold(0.0, f64::max)
}
