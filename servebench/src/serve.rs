//! The end-to-end loop: one closed-loop client serving a workload
//! through the public serving API (`Router::dispatch`,
//! `PretuneDaemon::tick` / `restore`), timing each call from outside.
//!
//! The client sends its next batch only after the previous one returned.
//! Oracle checks and simulated-metric bookkeeping run between the timed
//! calls, never inside them.

use crate::oracle;
use crate::traffic::{Step, Traffic, Workload};
use sme_gemm::{
    generate_any_backend, generate_any_routed, AnyGemmConfig, Backend, PlanCandidate, RoutedKernel,
};
use sme_obs::ObsHub;
use sme_router::{PretuneDaemon, PretuneDaemonConfig, RoutedBatchReport, Router};
use sme_runtime::{CacheStats, GemmRequest, PackStats};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Kernel-cache capacity of every router the benchmark builds (the
/// serving trace's size).
pub const CACHE_CAPACITY: usize = 256;

/// A kernel's (configuration, backend) as text: ordered, so walks over
/// the prefix's kernels repeat exactly.
type KernelKey = (String, &'static str);

/// The simulated clock's record of one prefix batch.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchRecord {
    /// Placed makespan, in performance-core cycles.
    pub makespan: f64,
    /// Nominal flops of the batch's requests.
    pub flops: u64,
    /// Simulated instructions the batch's requests retired.
    pub sim_insts: u64,
    /// Instructions emitted by the kernels that served the batch.
    pub emitted_insts: usize,
}

/// A served kernel, by how to rebuild it: the kernel cache compiles the
/// tuned plan when one is installed for the backend, else the backend's
/// default. Keeping recipes instead of kernels keeps hundreds of programs
/// from staying alive and inflating peak RSS.
#[derive(Debug, Clone, Copy)]
pub struct ServedKernel {
    pub config: AnyGemmConfig,
    pub backend: Backend,
    pub plan: Option<PlanCandidate>,
}

impl ServedKernel {
    /// The kernel, generated exactly as the cache generated it.
    pub fn rebuild(&self) -> RoutedKernel {
        self.plan
            .map_or_else(
                || generate_any_backend(&self.config, self.backend),
                |plan| generate_any_routed(&self.config, &plan),
            )
            .expect("served kernels rebuild")
    }
}

/// What the deterministic prefix of a run served: the simulated clock's
/// side of the run, which must repeat exactly for a seed.
#[derive(Debug, Default)]
pub struct Prefix {
    pub batches: Vec<BatchRecord>,
    /// The last kernel that served each (configuration, backend).
    pub kernels: BTreeMap<KernelKey, ServedKernel>,
}

/// Host-time samples and counters of a run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Host ms of each measured `Router::dispatch`.
    pub batch_ms: Vec<f64>,
    /// Host ms of each daemon tick that tuned at least one shape.
    pub tick_ms: Vec<f64>,
    /// Host ms of each restart: new router, restore, tick, first batch.
    pub restart_ms: Vec<f64>,
    /// Host seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Peak RSS when the deterministic prefix completed, in MiB: a fixed
    /// amount of work, so a faster host or program does not read higher.
    pub peak_rss_mb: f64,
    /// Measured requests served.
    pub requests: u64,
    /// Host seconds spent in the measured serving calls.
    pub serving_s: f64,
    /// Restarts whose first batch compiled a kernel (the restored tick
    /// warms only the daemon's hot set, so cold shapes compile).
    pub cold_restarts: u64,
    /// Kernel- and pack-cache counter deltas over measured dispatches.
    pub cache: CacheStats,
    pub pack: PackStats,
    /// Host ms of `GemmService::dispatch_routed` replaying each traced
    /// batch's routes, paired with the batch's own dispatch ms.
    pub replay_ms: Vec<(f64, f64)>,
}

/// One run's serving state: the live router, its daemon, and the tallies.
pub struct Session {
    workload: Workload,
    /// The run's scratch directory; each set-up persists into its own
    /// subdirectory.
    root: PathBuf,
    warmup: Vec<GemmRequest>,
    /// Attached to every router built while set (the traced half of a
    /// `--trace 1` run).
    hub: Option<Arc<ObsHub>>,
    router: Router,
    daemon: PretuneDaemon,
    /// Requests attempted and failed (dispatch failures plus oracle
    /// mismatches), over the whole run.
    pub attempted: u64,
    pub failed: u64,
    pub tally: Tally,
    pub prefix: Prefix,
}

impl Session {
    /// Set up the live serving state in `root`.
    pub fn start(workload: Workload, traffic: &Traffic, root: &Path) -> Session {
        let mut session = Session {
            workload,
            root: root.to_path_buf(),
            warmup: traffic.warmup(),
            hub: None,
            router: Router::new(CACHE_CAPACITY),
            daemon: PretuneDaemon::new(PretuneDaemonConfig::in_dir(root)),
            attempted: 0,
            failed: 0,
            tally: Tally::default(),
            prefix: Prefix::default(),
        };
        session.set_up();
        session
    }

    /// One set-up from nothing, in its own directory, leaving its router
    /// live: build a router, serve the warm-up batch, tick the daemon
    /// (tune the hot shapes and persist), then restart — a new router
    /// restores the snapshots, ticks once and serves the warm-up batch
    /// again.
    fn set_up(&mut self) {
        let started = Instant::now();
        let dir = self
            .root
            .join(format!("setup-{}", self.tally.setup_s.len()));
        std::fs::create_dir_all(&dir).expect("the run directory is writable");
        self.router = Router::new(CACHE_CAPACITY);
        if let Some(hub) = &self.hub {
            self.router.attach_obs(hub.clone());
        }
        self.daemon = PretuneDaemon::new(PretuneDaemonConfig::in_dir(&dir));
        let warmup = self.warmup.clone();
        self.dispatch(&warmup, false, false);
        self.tick();
        self.restart(&warmup, false);
        self.tally.setup_s.push(started.elapsed().as_secs_f64());
    }

    /// A set-up drill beside the live state: set up again from nothing,
    /// then put the live router and daemon back. Drills spread the set-up,
    /// tick and restart samples over the run instead of bunching them at
    /// its start.
    fn drill(&mut self) {
        let router = std::mem::replace(&mut self.router, Router::new(CACHE_CAPACITY));
        let placeholder = PretuneDaemon::new(self.daemon.config().clone());
        let daemon = std::mem::replace(&mut self.daemon, placeholder);
        self.set_up();
        self.router = router;
        self.daemon = daemon;
    }

    /// Attach `hub` to the live router and to every router built from now
    /// on.
    pub fn attach(&mut self, hub: Arc<ObsHub>) {
        self.router.attach_obs(hub.clone());
        self.hub = Some(hub);
    }

    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Serve measured batches for `budget` of serving time, and at least
    /// `min_batches`, running `drills` set-up drills evenly spread over
    /// the budget (their time is not part of it). With `replay`, each
    /// batch's routes are also replayed through the service, outside the
    /// serving tally.
    pub fn measure(
        &mut self,
        traffic: &mut Traffic,
        budget: Duration,
        min_batches: usize,
        drills: u32,
        replay: bool,
    ) {
        let mut started = Instant::now();
        let mut served = 0;
        let mut drilled = 0;
        while served < min_batches || started.elapsed() < budget {
            // The batch right after a drill runs on caches and allocator
            // state the drill disturbed: it is served, checked and part of
            // the prefix, but its host time belongs to the benchmark.
            let mut timed = true;
            if drilled < drills && started.elapsed() >= budget * (drilled + 1) / (drills + 1) {
                let drill_started = Instant::now();
                self.drill();
                started += drill_started.elapsed();
                drilled += 1;
                timed = false;
            }
            let Step {
                requests,
                restart_after,
            } = traffic.next_step();
            let (report, seconds) = self.dispatch(&requests, true, timed);
            if timed {
                self.tally.serving_s += seconds;
            }
            if replay {
                self.replay(&requests, &report, seconds * 1e3);
            }
            served += 1;
            if self.workload == Workload::Pretune {
                self.tally.serving_s += self.tick();
            }
            if restart_after {
                self.tally.serving_s += self.restart(&requests, true);
                served += 1;
            }
        }
    }

    /// One timed `Router::dispatch`, then (untimed) the oracle check and,
    /// while `measured`, the counter deltas and prefix bookkeeping, and
    /// while also `timed`, the host-time sample. Returns the report and the
    /// dispatch's host seconds.
    fn dispatch(
        &mut self,
        requests: &[GemmRequest],
        measured: bool,
        timed: bool,
    ) -> (RoutedBatchReport, f64) {
        let cache_before = self.router.cache().stats();
        let pack_before = self.router.cache().packs().stats();
        let started = Instant::now();
        let report = self
            .router
            .dispatch(requests)
            .expect("the service reports failures per request, never per batch");
        let seconds = started.elapsed().as_secs_f64();
        self.record_span("bench.dispatch", started, requests.len());
        self.check(requests, &report.batch);
        if measured {
            let cache_after = self.router.cache().stats();
            let pack_after = self.router.cache().packs().stats();
            self.tally.cache.hits += cache_after.hits - cache_before.hits;
            self.tally.cache.misses += cache_after.misses - cache_before.misses;
            self.tally.cache.evictions += cache_after.evictions - cache_before.evictions;
            self.tally.pack.hits += pack_after.hits - pack_before.hits;
            self.tally.pack.misses += pack_after.misses - pack_before.misses;
            if timed {
                self.tally.batch_ms.push(seconds * 1e3);
                self.tally.requests += requests.len() as u64;
            }
            self.record_prefix(&report);
        }
        (report, seconds)
    }

    /// Oracle-check every output; count failures.
    fn check(&mut self, requests: &[GemmRequest], report: &sme_runtime::BatchReport) {
        let started = Instant::now();
        self.attempted += requests.len() as u64;
        self.failed += report.failures.len() as u64;
        for (index, (request, output)) in requests.iter().zip(&report.outputs).enumerate() {
            let failed_here = report.failures.iter().any(|f| f.index == index);
            if !failed_here && !oracle::check(request, output) {
                eprintln!("oracle mismatch: {} seed {}", request.config, request.seed);
                self.failed += 1;
            }
        }
        self.record_span("bench.oracle", started, requests.len());
    }

    fn record_prefix(&mut self, report: &RoutedBatchReport) {
        if self.prefix.batches.len() >= self.workload.prefix_batches() {
            return;
        }
        let mut emitted_insts = 0;
        for group in &report.batch.per_config {
            let cache = self.router.cache();
            if let Some(kernel) = cache.peek_backend_any(&group.config, group.backend) {
                emitted_insts += kernel.program().len();
            }
            let served = ServedKernel {
                config: group.config,
                backend: group.backend,
                plan: cache
                    .lookup_tuned_any(&group.config)
                    .map(|record| record.candidate)
                    .filter(|plan| plan.backend == group.backend),
            };
            self.prefix
                .kernels
                .insert((group.config.to_string(), group.backend.name()), served);
        }
        self.prefix.batches.push(BatchRecord {
            makespan: report.placement.makespan_cycles(),
            flops: report.batch.total_flops(),
            sim_insts: report.batch.total.instructions,
            emitted_insts,
        });
        if self.prefix.batches.len() == self.workload.prefix_batches() {
            self.tally.peak_rss_mb = crate::stats::peak_rss_mb();
        }
    }

    /// Replay a batch's final routes through `GemmService::dispatch_routed`
    /// on the same warm state, pairing its host ms with the dispatch's.
    fn replay(&mut self, requests: &[GemmRequest], report: &RoutedBatchReport, dispatch_ms: f64) {
        let routes: HashMap<AnyGemmConfig, Backend> = report
            .batch
            .per_config
            .iter()
            .map(|group| (group.config, group.backend))
            .collect();
        let started = Instant::now();
        let replayed = self
            .router
            .service()
            .dispatch_routed(requests, |config| routes[config])
            .expect("the service reports failures per request, never per batch");
        let replay_ms = started.elapsed().as_secs_f64() * 1e3;
        self.record_span("bench.service_replay", started, requests.len());
        self.tally.replay_ms.push((dispatch_ms, replay_ms));
        self.check(requests, &replayed);
    }

    /// One timed daemon tick; returns its host seconds.
    fn tick(&mut self) -> f64 {
        let started = Instant::now();
        let report = self
            .daemon
            .tick(&self.router)
            .expect("ticks persist into the run directory");
        let seconds = started.elapsed().as_secs_f64();
        self.record_span("bench.tick", started, report.tuned.len());
        if !report.tuned.is_empty() {
            self.tally.tick_ms.push(seconds * 1e3);
        }
        seconds
    }

    /// A simulated process restart: a new router and daemon restore the
    /// persisted snapshots, tick once and serve `requests`. A restart whose
    /// batch compiled a kernel counts as cold. Returns the restart's host
    /// seconds (oracle checks excluded).
    fn restart(&mut self, requests: &[GemmRequest], measured: bool) -> f64 {
        // The old process is gone before the new one starts: free its
        // router first, outside the timed interval.
        self.router = Router::new(CACHE_CAPACITY);
        let started = Instant::now();
        let router = Router::new(CACHE_CAPACITY);
        if let Some(hub) = &self.hub {
            router.attach_obs(hub.clone());
        }
        let daemon = PretuneDaemon::new(self.daemon.config().clone());
        daemon
            .restore(&router)
            .expect("restore falls back to empty state, never fails");
        self.router = router;
        self.daemon = daemon;
        let mut seconds = started.elapsed().as_secs_f64();
        seconds += self.tick();
        let cached = |router: &Router| (router.cache().len(), router.cache().stats().evictions);
        let before = cached(&self.router);
        let (_, dispatch_s) = self.dispatch(requests, measured, measured);
        seconds += dispatch_s;
        // A compile on the restart batch grows the cache or evicts.
        if cached(&self.router) != before {
            self.tally.cold_restarts += 1;
        }
        self.tally.restart_ms.push(seconds * 1e3);
        self.record_span("bench.restart", started, requests.len());
        seconds
    }

    fn record_span(&self, name: &str, started: Instant, items: usize) {
        if let Some(hub) = &self.hub {
            hub.trace.record(
                name,
                "bench",
                started,
                vec![(
                    "items".to_string(),
                    serde::json::Value::Number(items as f64),
                )],
            );
        }
    }

    /// The live daemon's configuration (its snapshot paths and effort).
    pub fn daemon_config(&self) -> &PretuneDaemonConfig {
        self.daemon.config()
    }
}
