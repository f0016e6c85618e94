//! Per-shape traffic telemetry: who is actually calling, with what — and
//! **lately**.
//!
//! The runtime's `KernelCache` counts hits and misses globally, which
//! answers "is caching working?" but not the serving questions the ROADMAP
//! poses: **which shapes dominate actual compute right now**, so that
//! exactly those can be pre-tuned, and **how does that knowledge survive a
//! restart**. The [`TelemetryRegistry`] closes both gaps:
//!
//! * every dispatched batch is folded into a per-[`AnyGemmConfig`] record
//!   of request counts, cumulative simulated cycles, the backend that
//!   served each group and the group's cache outcome;
//! * alongside the raw all-time totals, each shape carries **exponentially
//!   decayed** request and cycle counters. The registry keeps a monotonic
//!   *epoch* counter (the router advances it once per dispatched batch);
//!   a counter recorded `d` epochs ago contributes `retention^d` of its
//!   original weight, so [`TelemetryRegistry::top_shapes`] follows
//!   *shifting* traffic instead of being dominated by all-time history;
//! * the whole registry round-trips through a versioned,
//!   machine-fingerprinted JSON snapshot
//!   ([`TelemetryRegistry::save`] / [`TelemetryRegistry::load_checked`]),
//!   mirroring the plan store's format discipline: a snapshot taken
//!   against a different timing calibration warns and is discarded, since
//!   its recorded cycles (and therefore its hot-shape ranking) were
//!   simulated on a different machine model.
//!
//! Ranking is by **decayed cumulative cycles** (cost), with decayed and
//! raw request counts as tie-breaks: a shape called rarely but costing
//! millions of cycles per call dominates the machine and must reach the
//! pretuner ahead of a cheap-but-chatty shape.

use serde::Serialize;
use sme_gemm::{AnyGemmConfig, BLayout, Backend, Beta, Dtype, GemmConfig, WideningGemmConfig};
use sme_machine::MachineConfig;
use sme_runtime::{BatchReport, FaultInjector, FingerprintCheck};
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::Mutex;

/// Version stamp written into the telemetry snapshot JSON document.
/// Version 1 is the initial persistent format: a `machine_fingerprint`
/// stamp (16-digit hex, like the plan store's), the decay `retention`
/// factor, `total_requests`, and per-shape entries carrying both the raw
/// all-time counters and the decayed counters normalized to the snapshot
/// instant.
pub const TELEMETRY_SNAPSHOT_VERSION: u64 = 1;

/// Default per-epoch retention of the decayed counters: a half-life of 16
/// epochs (one epoch = one dispatched batch), so traffic from ~50 batches
/// ago has faded below 12% weight — long enough to smooth bursts, short
/// enough that a traffic shift reorders the ranking within a phase.
pub const DEFAULT_DECAY_HALF_LIFE: f64 = 16.0;

/// Errors reported while loading or parsing a persisted telemetry
/// snapshot.
#[derive(Debug)]
pub enum TelemetryError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The document is not valid JSON or not a valid snapshot.
    Format(String),
}

impl fmt::Display for TelemetryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetryError::Io(e) => write!(f, "telemetry snapshot I/O error: {e}"),
            TelemetryError::Format(msg) => write!(f, "telemetry snapshot format error: {msg}"),
        }
    }
}

impl std::error::Error for TelemetryError {}

impl From<std::io::Error> for TelemetryError {
    fn from(e: std::io::Error) -> Self {
        TelemetryError::Io(e)
    }
}

/// Accumulated traffic statistics for one configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShapeStats {
    /// The configuration.
    pub config: AnyGemmConfig,
    /// Requests dispatched for this shape (all-time).
    pub requests: u64,
    /// Simulated cycles spent executing this shape's kernels (summed over
    /// all requests, all-time).
    pub cycles: f64,
    /// Exponentially decayed request count, normalized to the registry's
    /// current epoch.
    pub decayed_requests: f64,
    /// Exponentially decayed cycle count, normalized to the registry's
    /// current epoch — the primary ranking key of
    /// [`TelemetryRegistry::top_shapes`].
    pub decayed_cycles: f64,
    /// Requests served by the SME backend.
    pub sme_requests: u64,
    /// Requests served by the Neon backend.
    pub neon_requests: u64,
    /// Kernel fetches for this shape served from the cache.
    pub cache_hits: u64,
    /// Kernel fetches for this shape that compiled.
    pub cache_misses: u64,
}

impl ShapeStats {
    /// Fraction of this shape's kernel fetches served from the cache
    /// (0 when the shape has never fetched).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// The backend that served the majority of this shape's requests (ties
    /// go to SME, the default engine).
    pub fn dominant_backend(&self) -> Backend {
        if self.neon_requests > self.sme_requests {
            Backend::Neon
        } else {
            Backend::Sme
        }
    }

    /// The stats as a JSON object — the shape entries of the postmortem
    /// bundle's `telemetry_top_shapes` section.
    pub fn to_json_value(&self) -> serde::json::Value {
        use serde::json::Value;
        Value::Object(vec![
            ("config".to_string(), Value::String(self.config.to_string())),
            ("requests".to_string(), Value::Number(self.requests as f64)),
            ("cycles".to_string(), Value::Number(self.cycles)),
            (
                "decayed_requests".to_string(),
                Value::Number(self.decayed_requests),
            ),
            (
                "decayed_cycles".to_string(),
                Value::Number(self.decayed_cycles),
            ),
            (
                "dominant_backend".to_string(),
                Value::String(self.dominant_backend().name().to_string()),
            ),
            (
                "cache_hit_rate".to_string(),
                Value::Number(self.cache_hit_rate()),
            ),
        ])
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ShapeEntry {
    requests: u64,
    cycles: f64,
    /// Decayed counters, valid as of `last_epoch` (lazy decay: scaled
    /// forward only when the entry is touched or read).
    decayed_requests: f64,
    decayed_cycles: f64,
    last_epoch: u64,
    sme_requests: u64,
    neon_requests: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl ShapeEntry {
    /// The decayed counters normalized to `epoch`.
    fn decayed_at(&self, epoch: u64, retention: f64) -> (f64, f64) {
        let fade = retention.powi(epoch.saturating_sub(self.last_epoch) as i32);
        (self.decayed_requests * fade, self.decayed_cycles * fade)
    }

    /// Bring the lazy decay up to `epoch` so fresh traffic can be added.
    fn roll_to(&mut self, epoch: u64, retention: f64) {
        let (requests, cycles) = self.decayed_at(epoch, retention);
        self.decayed_requests = requests;
        self.decayed_cycles = cycles;
        self.last_epoch = epoch;
    }
}

/// Everything behind one lock, so any snapshot — JSON or ranking — is a
/// single consistent view (`total_requests` always equals the sum over the
/// shape entries, even under concurrent writers).
#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<AnyGemmConfig, ShapeEntry>,
    epoch: u64,
    total_requests: u64,
}

/// Thread-safe registry of per-shape traffic statistics with exponentially
/// decayed hot-shape tracking and a persistent snapshot format (see the
/// module docs).
#[derive(Debug)]
pub struct TelemetryRegistry {
    inner: Mutex<Inner>,
    /// Per-epoch retention factor of the decayed counters (in `(0, 1]`).
    retention: f64,
    machine_fingerprint: Option<u64>,
}

impl Default for TelemetryRegistry {
    fn default() -> Self {
        TelemetryRegistry::new()
    }
}

impl TelemetryRegistry {
    /// Lock the registry, recovering from poison instead of panicking: the
    /// counters are structurally valid at every instruction boundary, so a
    /// writer that panicked mid-update costs at most one partially-counted
    /// group — the recorded traffic is kept, not cleared.
    fn lock_inner(&self) -> std::sync::MutexGuard<'_, Inner> {
        sme_runtime::poison::lock(&self.inner, "telemetry registry")
    }

    /// An empty registry with the default decay half-life
    /// ([`DEFAULT_DECAY_HALF_LIFE`] epochs), unstamped.
    pub fn new() -> Self {
        TelemetryRegistry::with_half_life(DEFAULT_DECAY_HALF_LIFE)
    }

    /// An empty registry whose decayed counters halve every `half_life`
    /// epochs (values < 0.5 clamp to 0.5; `f64::INFINITY` disables decay).
    pub fn with_half_life(half_life: f64) -> Self {
        let retention = if half_life.is_infinite() {
            1.0
        } else {
            0.5f64.powf(1.0 / half_life.max(0.5))
        };
        TelemetryRegistry {
            inner: Mutex::new(Inner::default()),
            retention,
            machine_fingerprint: None,
        }
    }

    /// An empty registry stamped with `machine`'s timing fingerprint (the
    /// cycles it will record are simulated on that model).
    pub fn for_machine(machine: &MachineConfig) -> Self {
        let mut registry = TelemetryRegistry::new();
        registry.stamp(machine);
        registry
    }

    /// Stamp the registry with `machine`'s timing fingerprint, declaring
    /// that its recorded cycles were simulated on that model.
    pub fn stamp(&mut self, machine: &MachineConfig) {
        self.machine_fingerprint = Some(machine.fingerprint());
    }

    /// The recorded machine fingerprint, if the registry is stamped.
    pub fn machine_fingerprint(&self) -> Option<u64> {
        self.machine_fingerprint
    }

    /// The per-epoch retention factor of the decayed counters.
    pub fn retention(&self) -> f64 {
        self.retention
    }

    /// The current epoch (number of [`advance_epoch`] calls — one per
    /// dispatched batch under the router).
    ///
    /// [`advance_epoch`]: TelemetryRegistry::advance_epoch
    pub fn epoch(&self) -> u64 {
        self.lock_inner().epoch
    }

    /// Advance the decay clock by one epoch. The router calls this once
    /// per dispatched batch, so "hot" means "hot over the last few dozen
    /// batches", not "hot since boot".
    pub fn advance_epoch(&self) {
        self.lock_inner().epoch += 1;
    }

    /// Record one dispatched group: `requests` executions of `config` on
    /// `backend` costing `cycles` simulated cycles in total, whose single
    /// kernel fetch hit (`cache_hit`) or compiled.
    pub fn record_group(
        &self,
        config: &AnyGemmConfig,
        backend: Backend,
        requests: u64,
        cycles: f64,
        cache_hit: bool,
    ) {
        let mut inner = self.lock_inner();
        let epoch = inner.epoch;
        let retention = self.retention;
        inner.total_requests += requests;
        let entry = inner.entries.entry(*config).or_default();
        entry.roll_to(epoch, retention);
        entry.requests += requests;
        entry.cycles += cycles;
        entry.decayed_requests += requests as f64;
        entry.decayed_cycles += cycles;
        match backend {
            Backend::Sme => entry.sme_requests += requests,
            Backend::Neon => entry.neon_requests += requests,
        }
        if cache_hit {
            entry.cache_hits += 1;
        } else {
            entry.cache_misses += 1;
        }
    }

    /// Fold a whole dispatched batch into the registry (one
    /// [`record_group`](TelemetryRegistry::record_group) per per-config
    /// report). Does **not** advance the epoch; the caller decides the
    /// decay clock (the router ticks it once per batch).
    pub fn record_batch(&self, report: &BatchReport) {
        for group in &report.per_config {
            self.record_group(
                &group.config,
                group.backend,
                group.requests as u64,
                group.stats.cycles,
                group.cache_hit,
            );
        }
    }

    /// Number of distinct shapes seen.
    pub fn len(&self) -> usize {
        self.lock_inner().entries.len()
    }

    /// `true` if no traffic has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total requests recorded across all shapes.
    pub fn total_requests(&self) -> u64 {
        self.lock_inner().total_requests
    }

    /// Statistics for one shape, if it has been seen.
    pub fn shape(&self, config: &AnyGemmConfig) -> Option<ShapeStats> {
        let inner = self.lock_inner();
        inner
            .entries
            .get(config)
            .map(|e| stats_for(config, e, inner.epoch, self.retention))
    }

    /// The `n` hottest shapes, ranked by **decayed cumulative cycles**
    /// (the cost the shape is imposing on the machine *lately*), with
    /// decayed requests, raw requests and then the shape itself as
    /// tie-breaks — the order is fully deterministic.
    ///
    /// A low-request/high-cycles shape that dominates actual compute
    /// outranks a chatty-but-cheap shape, so `Router::pretune_hot` spends
    /// its tuning budget where the cycles are.
    pub fn top_shapes(&self, n: usize) -> Vec<ShapeStats> {
        let inner = self.lock_inner();
        let mut all = collect_stats(&inner, self.retention);
        rank_shapes(&mut all);
        all.truncate(n);
        all
    }

    /// Discard all recorded traffic (the epoch clock keeps running).
    pub fn clear(&self) {
        let mut inner = self.lock_inner();
        inner.entries.clear();
        inner.total_requests = 0;
    }

    /// Render the registry as a JSON document (shapes in
    /// [`top_shapes`](TelemetryRegistry::top_shapes) order), the format
    /// the README documents for operational dashboards and the payload of
    /// [`TelemetryRegistry::save`].
    ///
    /// The whole document is built from **one** lock acquisition, so the
    /// snapshot is internally consistent even under concurrent writers:
    /// `total_requests` always equals the sum of the per-shape `requests`.
    pub fn to_json(&self) -> String {
        #[derive(Serialize)]
        struct Shape {
            dtype: Dtype,
            m: usize,
            n: usize,
            k: usize,
            lda: Option<usize>,
            ldb: Option<usize>,
            ldc: Option<usize>,
            b_layout: Option<BLayout>,
            beta: Option<Beta>,
            c_transfer: sme_gemm::ZaTransferStrategy,
            requests: u64,
            cycles: f64,
            decayed_requests: f64,
            decayed_cycles: f64,
            sme_requests: u64,
            neon_requests: u64,
            cache_hits: u64,
            cache_misses: u64,
            cache_hit_rate: f64,
        }
        #[derive(Serialize)]
        struct Doc {
            version: u64,
            machine_fingerprint: Option<String>,
            retention: f64,
            total_requests: u64,
            shapes: Vec<Shape>,
        }
        // One lock: totals and shapes come from the same consistent view.
        let (total_requests, shapes) = {
            let inner = self.lock_inner();
            let mut all = collect_stats(&inner, self.retention);
            rank_shapes(&mut all);
            (inner.total_requests, all)
        };
        let doc = Doc {
            version: TELEMETRY_SNAPSHOT_VERSION,
            machine_fingerprint: self.machine_fingerprint.map(|fp| format!("{fp:016x}")),
            retention: self.retention,
            total_requests,
            shapes: shapes
                .into_iter()
                .map(|s| {
                    let c_transfer = match &s.config {
                        AnyGemmConfig::Fp32(c) => c.c_transfer,
                        AnyGemmConfig::WideningBf16(c) => c.c_transfer,
                    };
                    Shape {
                        dtype: s.config.dtype(),
                        m: s.config.m(),
                        n: s.config.n(),
                        k: s.config.k(),
                        lda: s.config.as_fp32().map(|c| c.lda),
                        ldb: s.config.as_fp32().map(|c| c.ldb),
                        ldc: s.config.as_fp32().map(|c| c.ldc),
                        b_layout: s.config.as_fp32().map(|c| c.b_layout),
                        beta: s.config.as_fp32().map(|c| c.beta),
                        c_transfer,
                        requests: s.requests,
                        cycles: s.cycles,
                        decayed_requests: s.decayed_requests,
                        decayed_cycles: s.decayed_cycles,
                        sme_requests: s.sme_requests,
                        neon_requests: s.neon_requests,
                        cache_hits: s.cache_hits,
                        cache_misses: s.cache_misses,
                        cache_hit_rate: s.cache_hit_rate(),
                    }
                })
                .collect(),
        };
        serde_json::to_string_pretty(&doc).expect("shim serialization is total")
    }

    /// Parse a snapshot produced by [`TelemetryRegistry::to_json`].
    ///
    /// Decayed counters load normalized to epoch 0 of the new registry, so
    /// the relative decayed ranking at snapshot time is preserved exactly
    /// across the restart.
    pub fn from_json(text: &str) -> Result<Self, TelemetryError> {
        let fail = |msg: &str| TelemetryError::Format(msg.to_string());
        let doc = serde_json::from_str(text)
            .map_err(|e| TelemetryError::Format(format!("invalid JSON: {e}")))?;
        match doc.get("version").and_then(|v| v.as_u64()) {
            Some(TELEMETRY_SNAPSHOT_VERSION) => {}
            Some(other) => {
                return Err(TelemetryError::Format(format!(
                    "unsupported telemetry snapshot version {other} \
                     (expected {TELEMETRY_SNAPSHOT_VERSION})"
                )))
            }
            None => return Err(fail("missing `version` field")),
        }
        let machine_fingerprint = match doc.get("machine_fingerprint") {
            None | Some(serde_json::Value::Null) => None,
            Some(v) => {
                let hex = v
                    .as_str()
                    .ok_or_else(|| fail("`machine_fingerprint` must be a hex string"))?;
                Some(
                    u64::from_str_radix(hex, 16)
                        .map_err(|_| fail(&format!("invalid machine fingerprint `{hex}`")))?,
                )
            }
        };
        let retention = doc
            .get("retention")
            .and_then(|v| v.as_f64())
            .ok_or_else(|| fail("missing number field `retention`"))?;
        if !(retention > 0.0 && retention <= 1.0) {
            return Err(fail(&format!(
                "retention {retention} outside (0, 1]; the decay would diverge"
            )));
        }
        let shapes = doc
            .get("shapes")
            .and_then(|v| v.as_array())
            .ok_or_else(|| fail("missing `shapes` array"))?;
        let mut entries = HashMap::new();
        let mut total_requests = 0u64;
        for shape in shapes {
            let dim = |name: &str| -> Result<usize, TelemetryError> {
                shape
                    .get(name)
                    .and_then(|v| v.as_u64())
                    .map(|v| v as usize)
                    .ok_or_else(|| fail(&format!("shape missing integer field `{name}`")))
            };
            let count = |name: &str| -> Result<u64, TelemetryError> {
                shape
                    .get(name)
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| fail(&format!("shape missing integer field `{name}`")))
            };
            let number = |name: &str| -> Result<f64, TelemetryError> {
                shape
                    .get(name)
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| fail(&format!("shape missing number field `{name}`")))
            };
            let text_field = |name: &str| -> Result<&str, TelemetryError> {
                shape
                    .get(name)
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| fail(&format!("shape missing string field `{name}`")))
            };
            let dtype_name = text_field("dtype")?;
            let dtype = Dtype::from_name(dtype_name)
                .ok_or_else(|| fail(&format!("unknown dtype `{dtype_name}`")))?;
            let c_transfer = match text_field("c_transfer")? {
                "Direct" => sme_gemm::ZaTransferStrategy::Direct,
                "TwoStep" => sme_gemm::ZaTransferStrategy::TwoStep,
                other => return Err(fail(&format!("unknown c_transfer `{other}`"))),
            };
            let config = match dtype {
                Dtype::Fp32 => {
                    let b_layout = match text_field("b_layout")? {
                        "RowMajor" => BLayout::RowMajor,
                        "ColMajor" => BLayout::ColMajor,
                        other => return Err(fail(&format!("unknown b_layout `{other}`"))),
                    };
                    let beta = match text_field("beta")? {
                        "Zero" => Beta::Zero,
                        "One" => Beta::One,
                        other => return Err(fail(&format!("unknown beta `{other}`"))),
                    };
                    let cfg = GemmConfig {
                        m: dim("m")?,
                        n: dim("n")?,
                        k: dim("k")?,
                        lda: dim("lda")?,
                        ldb: dim("ldb")?,
                        ldc: dim("ldc")?,
                        b_layout,
                        beta,
                        c_transfer,
                    };
                    cfg.validate()
                        .map_err(|e| fail(&format!("invalid recorded configuration: {e}")))?;
                    AnyGemmConfig::Fp32(cfg)
                }
                Dtype::WideningBf16 => {
                    let cfg = WideningGemmConfig::new(dim("m")?, dim("n")?, dim("k")?)
                        .map_err(|e| fail(&format!("invalid recorded configuration: {e}")))?
                        .with_c_transfer(c_transfer);
                    AnyGemmConfig::WideningBf16(cfg)
                }
            };
            let requests = count("requests")?;
            total_requests = total_requests.saturating_add(requests);
            entries.insert(
                config,
                ShapeEntry {
                    requests,
                    cycles: number("cycles")?,
                    decayed_requests: number("decayed_requests")?,
                    decayed_cycles: number("decayed_cycles")?,
                    last_epoch: 0,
                    sme_requests: count("sme_requests")?,
                    neon_requests: count("neon_requests")?,
                    cache_hits: count("cache_hits")?,
                    cache_misses: count("cache_misses")?,
                },
            );
        }
        Ok(TelemetryRegistry {
            inner: Mutex::new(Inner {
                entries,
                epoch: 0,
                total_requests,
            }),
            retention,
            machine_fingerprint,
        })
    }

    /// Write the snapshot JSON document to a file — atomically (temp +
    /// fsync + rename), with a checksum trailer, keeping the previous
    /// generation at `<path>.bak` (see [`sme_runtime::save_snapshot`]).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), TelemetryError> {
        self.save_with_faults(path, None)
    }

    /// [`TelemetryRegistry::save`] through the fault-injection hooks of
    /// `faults`.
    pub fn save_with_faults(
        &self,
        path: impl AsRef<Path>,
        faults: Option<&dyn FaultInjector>,
    ) -> Result<(), TelemetryError> {
        sme_runtime::save_snapshot(path.as_ref(), &self.to_json(), faults)?;
        Ok(())
    }

    /// Load a snapshot previously written with [`TelemetryRegistry::save`].
    /// The checksum trailer is verified when present; trailer-less legacy
    /// documents still load.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, TelemetryError> {
        match sme_runtime::read_snapshot(path.as_ref(), None) {
            Ok(text) => TelemetryRegistry::from_json(&text),
            Err(sme_runtime::SnapshotError::Io(e)) => Err(TelemetryError::Io(e)),
            Err(sme_runtime::SnapshotError::Corrupt(msg)) => Err(TelemetryError::Format(msg)),
        }
    }

    /// Compare the snapshot's fingerprint against `machine`'s current
    /// timing parameters.
    pub fn fingerprint_check(&self, machine: &MachineConfig) -> FingerprintCheck {
        let current = machine.fingerprint();
        match self.machine_fingerprint {
            None => FingerprintCheck::Unstamped,
            Some(stored) if stored == current => FingerprintCheck::Match,
            Some(stored) => FingerprintCheck::Mismatch { stored, current },
        }
    }

    /// Load a persisted snapshot and validate it against `machine`'s
    /// timing fingerprint, mirroring `PlanStore::load_checked`.
    ///
    /// On a fingerprint mismatch the stale traffic is **discarded** — the
    /// returned registry is empty but stamped for `machine`, since the
    /// snapshot's cycle counts (and therefore its hot-shape ranking) were
    /// simulated against a different calibration — and a warning naming
    /// both fingerprints is printed to stderr. Unstamped snapshots load
    /// as-is with [`FingerprintCheck::Unstamped`].
    /// *Corruption* is handled differently from staleness: if the primary
    /// document is unreadable, fails its checksum trailer, or does not
    /// parse, the `.bak` previous generation (kept by every
    /// [`TelemetryRegistry::save`]) is tried before giving up, and the
    /// original error is returned only when both generations are bad.
    pub fn load_checked(
        path: impl AsRef<Path>,
        machine: &MachineConfig,
    ) -> Result<(Self, FingerprintCheck), TelemetryError> {
        let path = path.as_ref();
        let registry = match TelemetryRegistry::load(path) {
            Ok(registry) => registry,
            Err(TelemetryError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(TelemetryError::Io(e));
            }
            Err(primary) => match TelemetryRegistry::load(sme_runtime::backup_path(path)) {
                Ok(previous) => {
                    eprintln!(
                        "warning: telemetry snapshot {} is corrupt ({primary}); \
                         recovered {} shape(s) from the previous generation",
                        path.display(),
                        previous.len()
                    );
                    previous
                }
                Err(_) => return Err(primary),
            },
        };
        let check = registry.fingerprint_check(machine);
        if let FingerprintCheck::Mismatch { stored, current } = check {
            eprintln!(
                "warning: telemetry snapshot {} was recorded against machine \
                 fingerprint {stored:016x} but the current model is {current:016x}; \
                 discarding its {} stale shape(s) — the decayed ranking will rebuild",
                path.display(),
                registry.len()
            );
            return Ok((TelemetryRegistry::for_machine(machine), check));
        }
        Ok((registry, check))
    }

    /// Replace this registry's recorded traffic and decay state with
    /// `other`'s (the restore half of a restart: the router owns its
    /// registry, so a loaded snapshot is absorbed in place).
    pub fn restore_from(&self, other: TelemetryRegistry) {
        let mut inner = self.lock_inner();
        *inner = other.inner.into_inner().unwrap_or_else(|p| p.into_inner());
    }

    /// Load with the full degradation ladder: primary generation → `.bak`
    /// previous generation → empty, applying the fingerprint staleness
    /// check to whichever generation served.
    ///
    /// Unlike [`TelemetryRegistry::load_checked`] this never fails:
    /// *corruption* (torn writes, bit-flips, unparseable JSON, injected
    /// I/O faults) recovers from the previous generation, *staleness*
    /// (fingerprint mismatch) discards to an empty re-stamped registry,
    /// and a missing file is a fresh start. The [`RecoveredTelemetry`]
    /// says which rung served.
    pub fn load_recovered(path: impl AsRef<Path>, machine: &MachineConfig) -> RecoveredTelemetry {
        TelemetryRegistry::load_recovered_with_faults(path, machine, None)
    }

    /// [`TelemetryRegistry::load_recovered`] through the fault-injection
    /// hooks of `faults`.
    pub fn load_recovered_with_faults(
        path: impl AsRef<Path>,
        machine: &MachineConfig,
        faults: Option<&dyn FaultInjector>,
    ) -> RecoveredTelemetry {
        let path = path.as_ref();
        let recovered = sme_runtime::load_with_recovery(path, faults, TelemetryRegistry::from_json);
        let source = recovered.source;
        let detail = recovered.detail;
        if let Some(d) = detail.as_deref() {
            eprintln!("warning: telemetry snapshot {}: {d}", path.display());
        }
        match recovered.value {
            Some(registry) => {
                let check = registry.fingerprint_check(machine);
                if let FingerprintCheck::Mismatch { stored, current } = check {
                    eprintln!(
                        "warning: telemetry snapshot {} was recorded against machine \
                         fingerprint {stored:016x} but the current model is {current:016x}; \
                         discarding its {} stale shape(s) — the decayed ranking will rebuild",
                        path.display(),
                        registry.len()
                    );
                    return RecoveredTelemetry {
                        registry: TelemetryRegistry::for_machine(machine),
                        check,
                        source,
                        detail,
                    };
                }
                RecoveredTelemetry {
                    registry,
                    check,
                    source,
                    detail,
                }
            }
            None => RecoveredTelemetry {
                registry: TelemetryRegistry::for_machine(machine),
                check: FingerprintCheck::Match,
                source,
                detail,
            },
        }
    }
}

/// The outcome of [`TelemetryRegistry::load_recovered`]: the registry that
/// will serve, its fingerprint verdict, and which on-disk generation it
/// came from.
#[derive(Debug)]
pub struct RecoveredTelemetry {
    /// The registry to serve from (possibly empty).
    pub registry: TelemetryRegistry,
    /// Fingerprint verdict for the generation that served.
    pub check: FingerprintCheck,
    /// Which generation served.
    pub source: sme_runtime::SnapshotSource,
    /// Why the primary (and possibly backup) generation was rejected.
    pub detail: Option<String>,
}

fn collect_stats(inner: &Inner, retention: f64) -> Vec<ShapeStats> {
    inner
        .entries
        .iter()
        .map(|(c, e)| stats_for(c, e, inner.epoch, retention))
        .collect()
}

/// Sort hottest-first: decayed cycles, then decayed requests, then raw
/// requests, then the deterministic shape key.
fn rank_shapes(all: &mut [ShapeStats]) {
    all.sort_by(|a, b| {
        b.decayed_cycles
            .partial_cmp(&a.decayed_cycles)
            .expect("cycles are finite")
            .then(
                b.decayed_requests
                    .partial_cmp(&a.decayed_requests)
                    .expect("requests are finite"),
            )
            .then(b.requests.cmp(&a.requests))
            .then(a.config.ordering_key().cmp(&b.config.ordering_key()))
    });
}

fn stats_for(config: &AnyGemmConfig, e: &ShapeEntry, epoch: u64, retention: f64) -> ShapeStats {
    let (decayed_requests, decayed_cycles) = e.decayed_at(epoch, retention);
    ShapeStats {
        config: *config,
        requests: e.requests,
        cycles: e.cycles,
        decayed_requests,
        decayed_cycles,
        sme_requests: e.sme_requests,
        neon_requests: e.neon_requests,
        cache_hits: e.cache_hits,
        cache_misses: e.cache_misses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sme_gemm::GemmConfig;

    #[test]
    fn groups_accumulate_per_shape() {
        let telemetry = TelemetryRegistry::new();
        let hot: AnyGemmConfig = GemmConfig::abt(32, 32, 16).into();
        let cold: AnyGemmConfig = GemmConfig::abt(64, 64, 16).into();
        telemetry.record_group(&hot, Backend::Sme, 5, 100.0, false);
        telemetry.record_group(&hot, Backend::Sme, 7, 140.0, true);
        telemetry.record_group(&hot, Backend::Neon, 2, 40.0, true);
        telemetry.record_group(&cold, Backend::Sme, 1, 900.0, false);

        assert_eq!(telemetry.len(), 2);
        assert_eq!(telemetry.total_requests(), 15);
        let stats = telemetry.shape(&hot).unwrap();
        assert_eq!(stats.requests, 14);
        assert_eq!(stats.cycles, 280.0);
        assert_eq!(stats.sme_requests, 12);
        assert_eq!(stats.neon_requests, 2);
        assert_eq!((stats.cache_hits, stats.cache_misses), (2, 1));
        assert!((stats.cache_hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(stats.dominant_backend(), Backend::Sme);

        // Ranking is by cumulative cycles (cost), not request count: the
        // rarely-called shape that burns 900 cycles per call dominates the
        // machine and leads the ranking despite 14× fewer requests.
        let top = telemetry.top_shapes(10);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].config, cold);
        assert_eq!(top[1].config, hot);
        assert_eq!(telemetry.top_shapes(1).len(), 1);

        telemetry.clear();
        assert!(telemetry.is_empty());
        assert_eq!(telemetry.shape(&hot), None);
    }

    #[test]
    fn decayed_ranking_follows_shifting_traffic() {
        // Half-life of one epoch: yesterday's traffic fades fast.
        let telemetry = TelemetryRegistry::with_half_life(1.0);
        let yesterday: AnyGemmConfig = GemmConfig::abt(64, 64, 64).into();
        let today: AnyGemmConfig = GemmConfig::abt(32, 32, 32).into();

        // Epochs 0..4: heavy traffic on `yesterday`.
        for _ in 0..4 {
            telemetry.record_group(&yesterday, Backend::Sme, 10, 1000.0, true);
            telemetry.advance_epoch();
        }
        assert_eq!(telemetry.top_shapes(1)[0].config, yesterday);

        // Epochs 4..10: traffic shifts to `today`, with a fraction of the
        // per-epoch volume — all-time totals still favour `yesterday`.
        for _ in 0..6 {
            telemetry.record_group(&today, Backend::Sme, 2, 300.0, true);
            telemetry.advance_epoch();
        }
        let top = telemetry.top_shapes(2);
        assert_eq!(top[0].config, today, "decayed ranking follows the shift");
        let y = telemetry.shape(&yesterday).unwrap();
        let t = telemetry.shape(&today).unwrap();
        assert!(
            y.cycles > t.cycles,
            "all-time totals still favour yesterday"
        );
        assert!(
            y.decayed_cycles < t.decayed_cycles,
            "decayed cycles do not: {} vs {}",
            y.decayed_cycles,
            t.decayed_cycles
        );
        // The decayed counters never exceed the raw totals.
        assert!(y.decayed_requests <= y.requests as f64 + 1e-9);
        assert!(t.decayed_cycles <= t.cycles + 1e-9);
    }

    #[test]
    fn ranking_prefers_cycles_with_request_tie_breaks() {
        let telemetry = TelemetryRegistry::new();
        let chatty: AnyGemmConfig = GemmConfig::abt(16, 4, 4).into();
        let heavy: AnyGemmConfig = GemmConfig::abt(96, 96, 64).into();
        let twin: AnyGemmConfig = GemmConfig::abt(96, 96, 32).into();
        // 100 cheap requests vs 2 expensive ones.
        telemetry.record_group(&chatty, Backend::Neon, 100, 500.0, true);
        telemetry.record_group(&heavy, Backend::Sme, 2, 90_000.0, true);
        // Same cycles as `heavy`, fewer requests: loses the tie-break.
        telemetry.record_group(&twin, Backend::Sme, 1, 90_000.0, true);
        let top = telemetry.top_shapes(3);
        assert_eq!(top[0].config, heavy, "cycles outrank request counts");
        assert_eq!(top[1].config, twin, "requests break the cycles tie");
        assert_eq!(top[2].config, chatty);
    }

    #[test]
    fn json_snapshot_lists_shapes_with_hit_rates() {
        let telemetry = TelemetryRegistry::new();
        telemetry.record_group(
            &GemmConfig::abt(16, 4, 8).into(),
            Backend::Neon,
            3,
            120.0,
            false,
        );
        let json = telemetry.to_json();
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"total_requests\": 3"));
        assert!(json.contains("\"neon_requests\": 3"));
        assert!(json.contains("\"cache_hit_rate\": 0"));
        // The document is machine-readable with the vendored parser.
        let value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            value
                .get("shapes")
                .and_then(|s| s.as_array())
                .map(|a| a.len()),
            Some(1)
        );
    }

    #[test]
    fn json_snapshot_is_consistent_under_concurrent_writers() {
        // Regression test for the old two-lock snapshot: `total_requests`
        // and the shape list were read under separate lock acquisitions,
        // so a concurrent `record_group` could land between them and the
        // document's total disagreed with the sum over its shapes. The
        // snapshot is now built from one consistent view.
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let telemetry = Arc::new(TelemetryRegistry::new());
        let stop = Arc::new(AtomicBool::new(false));
        let shapes: Vec<AnyGemmConfig> = (1..=4)
            .map(|i| GemmConfig::abt(16 * i, 16, 8).into())
            .collect();

        std::thread::scope(|scope| {
            for offset in 0..3 {
                let telemetry = telemetry.clone();
                let stop = stop.clone();
                let shapes = shapes.clone();
                scope.spawn(move || {
                    let mut i = offset;
                    while !stop.load(Ordering::Relaxed) {
                        let cfg = &shapes[i % shapes.len()];
                        telemetry.record_group(cfg, Backend::Sme, 3, 10.0, true);
                        i += 1;
                    }
                });
            }
            for _ in 0..50 {
                let doc = serde_json::from_str(&telemetry.to_json()).unwrap();
                let total = doc
                    .get("total_requests")
                    .and_then(|v| v.as_u64())
                    .expect("snapshot carries the total");
                let sum: u64 = doc
                    .get("shapes")
                    .and_then(|v| v.as_array())
                    .expect("snapshot carries the shapes")
                    .iter()
                    .map(|s| s.get("requests").and_then(|v| v.as_u64()).unwrap())
                    .sum();
                assert_eq!(
                    total, sum,
                    "snapshot total must equal the sum over its shapes"
                );
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn snapshot_round_trips_and_preserves_decayed_ranking() {
        let machine = MachineConfig::apple_m4();
        let telemetry = TelemetryRegistry::for_machine(&machine);
        let fp32: AnyGemmConfig = GemmConfig::abt(48, 48, 16).into();
        let wide: AnyGemmConfig = WideningGemmConfig::new(32, 32, 8).unwrap().into();
        telemetry.record_group(&fp32, Backend::Sme, 4, 4000.0, false);
        telemetry.advance_epoch();
        telemetry.advance_epoch();
        telemetry.record_group(&wide, Backend::Neon, 2, 900.0, true);

        let path = std::env::temp_dir().join("sme_router_telemetry_roundtrip.json");
        telemetry.save(&path).unwrap();
        let (loaded, check) = TelemetryRegistry::load_checked(&path, &machine).unwrap();
        assert_eq!(check, FingerprintCheck::Match);
        assert_eq!(loaded.total_requests(), 6);
        assert_eq!(loaded.len(), 2);

        // Raw totals and backend splits survive…
        let f = loaded.shape(&fp32).unwrap();
        assert_eq!((f.requests, f.sme_requests, f.cache_misses), (4, 4, 1));
        assert_eq!(f.cycles, 4000.0);
        // …and the decayed values come back normalized, preserving the
        // ranking at snapshot time exactly.
        let before: Vec<AnyGemmConfig> =
            telemetry.top_shapes(10).iter().map(|s| s.config).collect();
        let after: Vec<AnyGemmConfig> = loaded.top_shapes(10).iter().map(|s| s.config).collect();
        assert_eq!(before, after);
        let orig = telemetry.shape(&fp32).unwrap();
        assert!((f.decayed_cycles - orig.decayed_cycles).abs() < 1e-9);
        assert!(f.decayed_cycles < f.cycles, "two epochs of decay applied");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stale_fingerprint_snapshots_are_discarded() {
        let machine = MachineConfig::apple_m4();
        let telemetry = TelemetryRegistry::for_machine(&machine);
        telemetry.record_group(
            &GemmConfig::abt(32, 32, 8).into(),
            Backend::Sme,
            5,
            50.0,
            true,
        );
        let path = std::env::temp_dir().join("sme_router_telemetry_stale.json");
        telemetry.save(&path).unwrap();

        let mut recalibrated = MachineConfig::apple_m4();
        recalibrated.p_core.clock_ghz = 4.0;
        let (loaded, check) = TelemetryRegistry::load_checked(&path, &recalibrated).unwrap();
        assert!(matches!(check, FingerprintCheck::Mismatch { .. }));
        assert!(loaded.is_empty(), "stale traffic must not seed the ranking");
        assert_eq!(
            loaded.machine_fingerprint(),
            Some(recalibrated.fingerprint()),
            "the returned registry is stamped for the current machine"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn malformed_snapshots_are_rejected_with_context() {
        let cases = [
            ("not json", "invalid JSON"),
            ("{}", "version"),
            (
                r#"{"version": 9, "retention": 0.9, "shapes": []}"#,
                "version 9",
            ),
            (r#"{"version": 1, "retention": 0.9}"#, "shapes"),
            (
                r#"{"version": 1, "retention": 2.5, "shapes": []}"#,
                "retention",
            ),
            (
                r#"{"version": 1, "retention": 0.9, "shapes": [{}]}"#,
                "missing",
            ),
            (
                r#"{"version": 1, "machine_fingerprint": "xyz", "retention": 0.9,
                    "shapes": []}"#,
                "machine fingerprint",
            ),
            (
                r#"{"version": 1, "retention": 0.9, "shapes": [{"dtype": "Fp16",
                    "m": 8, "n": 8, "k": 8, "c_transfer": "TwoStep"}]}"#,
                "unknown dtype",
            ),
            (
                r#"{"version": 1, "retention": 0.9, "shapes": [{"dtype": "Fp32",
                    "m": 0, "n": 8, "k": 8, "lda": 8, "ldb": 8, "ldc": 8,
                    "b_layout": "RowMajor", "beta": "One", "c_transfer": "TwoStep",
                    "requests": 1, "cycles": 1,
                    "decayed_requests": 1, "decayed_cycles": 1, "sme_requests": 1,
                    "neon_requests": 0, "cache_hits": 1, "cache_misses": 0}]}"#,
                "invalid recorded configuration",
            ),
        ];
        for (text, needle) in cases {
            match TelemetryRegistry::from_json(text) {
                Err(TelemetryError::Format(msg)) => {
                    assert!(msg.contains(needle), "{needle:?} not in {msg:?}")
                }
                other => panic!("expected Format error for {text:?}, got {other:?}"),
            }
        }
    }
}
