//! The perf-baseline sentinel: a persisted, machine-fingerprinted record
//! of what the serving bench *used to* measure, and the comparison that
//! turns `BENCH_*.json` artifacts from publish-and-forget into a ratchet.
//!
//! A [`BaselineStore`] mirrors the `PlanStore` persistence contract — a
//! versioned JSON document stamped with the machine model's timing
//! fingerprint, loaded through [`BaselineStore::load_checked`] which
//! warns and discards on a fingerprint mismatch — and holds two sorted
//! maps: per-shape simulated cycles (one entry per serving-trace shape)
//! and serving-bench summary metrics (makespans, hit rates).
//!
//! [`BaselineStore::compare`] checks a current run against the stored
//! baseline with direction-aware per-metric tolerances: cycle-like
//! metrics regress when they grow past `(1 + REL_TOLERANCE) × baseline`,
//! and hit-rate-like metrics (name containing `hit_rate`) regress when
//! they fall more than [`HIT_RATE_TOLERANCE`] below the baseline. The
//! `serving` binary's `--check-baseline` exits non-zero on any
//! regression.

use serde::json::Value;
use sme_machine::MachineConfig;
use sme_runtime::FingerprintCheck;
use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

/// Version stamp written into the baseline JSON document.
pub const BASELINE_VERSION: u64 = 1;

/// Relative growth tolerance for higher-is-worse metrics (cycles,
/// makespans, seconds): the model is deterministic, so 10% headroom only
/// absorbs intentional small model changes, not real regressions.
pub const REL_TOLERANCE: f64 = 0.10;

/// Absolute drop tolerance for lower-is-worse metrics (names containing
/// `hit_rate`, which live on a 0..=1 scale).
pub const HIT_RATE_TOLERANCE: f64 = 0.02;

/// Errors reported while loading, parsing or writing a baseline file.
#[derive(Debug)]
pub enum BaselineError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The document is not valid JSON or not a valid baseline.
    Format(String),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Io(e) => write!(f, "baseline I/O error: {e}"),
            BaselineError::Format(msg) => write!(f, "baseline format error: {msg}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<std::io::Error> for BaselineError {
    fn from(e: std::io::Error) -> Self {
        BaselineError::Io(e)
    }
}

/// One metric that moved past its tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRegression {
    /// The regressed metric (shape entries are prefixed `shape_cycles:`).
    pub metric: String,
    /// The stored baseline value.
    pub baseline: f64,
    /// The current run's value.
    pub current: f64,
    /// The bound the current value crossed.
    pub limit: f64,
}

impl fmt::Display for MetricRegression {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: baseline {:.4}, current {:.4}, limit {:.4}",
            self.metric, self.baseline, self.current, self.limit
        )
    }
}

/// The outcome of comparing a current run against a stored baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCheckReport {
    /// Metrics that crossed their tolerance, in sorted name order.
    pub regressions: Vec<MetricRegression>,
    /// How many metrics were present in both stores and compared.
    pub compared: usize,
}

impl BaselineCheckReport {
    /// `true` when nothing regressed.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Persisted serving-bench baseline: summary metrics plus per-shape
/// simulated cycles, stamped with the machine model's fingerprint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BaselineStore {
    machine_fingerprint: Option<u64>,
    metrics: BTreeMap<String, f64>,
    shapes: BTreeMap<String, f64>,
}

impl BaselineStore {
    /// An empty, unstamped baseline.
    pub fn new() -> Self {
        BaselineStore::default()
    }

    /// An empty baseline stamped with `machine`'s timing fingerprint.
    pub fn for_machine(machine: &MachineConfig) -> Self {
        let mut store = BaselineStore::new();
        store.stamp(machine);
        store
    }

    /// Stamp the baseline with `machine`'s timing fingerprint.
    pub fn stamp(&mut self, machine: &MachineConfig) {
        self.machine_fingerprint = Some(machine.fingerprint());
    }

    /// The recorded machine fingerprint, if the baseline is stamped.
    pub fn machine_fingerprint(&self) -> Option<u64> {
        self.machine_fingerprint
    }

    /// Compare the baseline's fingerprint against `machine`'s current
    /// timing parameters (same verdicts as `PlanStore::fingerprint_check`).
    pub fn fingerprint_check(&self, machine: &MachineConfig) -> FingerprintCheck {
        let current = machine.fingerprint();
        match self.machine_fingerprint {
            None => FingerprintCheck::Unstamped,
            Some(stored) if stored == current => FingerprintCheck::Match,
            Some(stored) => FingerprintCheck::Mismatch { stored, current },
        }
    }

    /// Record a summary metric (overwrites a previous value).
    pub fn set_metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// A recorded summary metric.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Record a shape's simulated per-request cycles, keyed by the shape's
    /// display form.
    pub fn set_shape_cycles(&mut self, shape: impl Into<String>, cycles: f64) {
        self.shapes.insert(shape.into(), cycles);
    }

    /// A recorded shape's simulated cycles.
    pub fn shape_cycles(&self, shape: &str) -> Option<f64> {
        self.shapes.get(shape).copied()
    }

    /// Number of recorded entries (metrics + shapes).
    pub fn len(&self) -> usize {
        self.metrics.len() + self.shapes.len()
    }

    /// `true` when nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty() && self.shapes.is_empty()
    }

    /// Compare `current` against this baseline. Only entries present in
    /// **both** stores are compared (a new metric cannot regress; a
    /// deleted one is a review question, not a gate). Direction is
    /// per-metric: names containing `hit_rate` must not fall more than
    /// [`HIT_RATE_TOLERANCE`] below baseline; everything else must not
    /// grow past `(1 + REL_TOLERANCE) × baseline`.
    pub fn compare(&self, current: &BaselineStore) -> BaselineCheckReport {
        let mut regressions = Vec::new();
        let mut compared = 0;
        let entries = self
            .metrics
            .iter()
            .map(|(name, &value)| (name.clone(), value, current.metric(name)))
            .chain(self.shapes.iter().map(|(shape, &value)| {
                (
                    format!("shape_cycles:{shape}"),
                    value,
                    current.shape_cycles(shape),
                )
            }));
        for (name, baseline, observed) in entries {
            let Some(observed) = observed else { continue };
            compared += 1;
            if name.contains("hit_rate") {
                let limit = baseline - HIT_RATE_TOLERANCE;
                if observed < limit {
                    regressions.push(MetricRegression {
                        metric: name,
                        baseline,
                        current: observed,
                        limit,
                    });
                }
            } else {
                let limit = baseline * (1.0 + REL_TOLERANCE);
                if observed > limit {
                    regressions.push(MetricRegression {
                        metric: name,
                        baseline,
                        current: observed,
                        limit,
                    });
                }
            }
        }
        BaselineCheckReport {
            regressions,
            compared,
        }
    }

    /// Serialise as a versioned JSON document with deterministically
    /// sorted keys (the maps are `BTreeMap`s, so the output is diffable).
    pub fn to_json(&self) -> String {
        let to_object = |map: &BTreeMap<String, f64>| {
            Value::Object(
                map.iter()
                    .map(|(name, &value)| (name.clone(), Value::Number(value)))
                    .collect(),
            )
        };
        let mut fields = vec![(
            "version".to_string(),
            Value::Number(BASELINE_VERSION as f64),
        )];
        if let Some(fp) = self.machine_fingerprint {
            fields.push((
                "machine_fingerprint".to_string(),
                Value::String(format!("{fp:016x}")),
            ));
        }
        fields.push(("metrics".to_string(), to_object(&self.metrics)));
        fields.push(("shape_cycles".to_string(), to_object(&self.shapes)));
        Value::Object(fields).render_pretty()
    }

    /// Parse a document produced by [`BaselineStore::to_json`].
    pub fn from_json(text: &str) -> Result<Self, BaselineError> {
        let doc: Value =
            serde_json::from_str(text).map_err(|e| BaselineError::Format(format!("{e}")))?;
        match doc.get("version").and_then(Value::as_u64) {
            Some(BASELINE_VERSION) => {}
            Some(other) => {
                return Err(BaselineError::Format(format!(
                    "unsupported baseline version {other} (expected {BASELINE_VERSION})"
                )))
            }
            None => {
                return Err(BaselineError::Format(
                    "missing or non-numeric \"version\" field".into(),
                ))
            }
        }
        let machine_fingerprint = match doc.get("machine_fingerprint") {
            None => None,
            Some(value) => {
                let text = value.as_str().ok_or_else(|| {
                    BaselineError::Format("\"machine_fingerprint\" must be a hex string".into())
                })?;
                Some(u64::from_str_radix(text, 16).map_err(|e| {
                    BaselineError::Format(format!("bad machine_fingerprint {text:?}: {e}"))
                })?)
            }
        };
        let parse_map = |key: &str| -> Result<BTreeMap<String, f64>, BaselineError> {
            let mut map = BTreeMap::new();
            let Some(section) = doc.get(key) else {
                return Err(BaselineError::Format(format!("missing \"{key}\" section")));
            };
            let entries = section.as_object().ok_or_else(|| {
                BaselineError::Format(format!("\"{key}\" must be an object of numbers"))
            })?;
            for (name, value) in entries {
                let value = value.as_f64().ok_or_else(|| {
                    BaselineError::Format(format!("\"{key}\".\"{name}\" must be a number"))
                })?;
                if !value.is_finite() {
                    return Err(BaselineError::Format(format!(
                        "\"{key}\".\"{name}\" must be finite"
                    )));
                }
                map.insert(name.clone(), value);
            }
            Ok(map)
        };
        Ok(BaselineStore {
            machine_fingerprint,
            metrics: parse_map("metrics")?,
            shapes: parse_map("shape_cycles")?,
        })
    }

    /// Write the baseline to `path` — atomically (temp + fsync + rename),
    /// with a checksum trailer, keeping the previous generation at
    /// `<path>.bak` (see [`sme_runtime::save_snapshot`]).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), BaselineError> {
        sme_runtime::save_snapshot(path.as_ref(), &self.to_json(), None)?;
        Ok(())
    }

    /// Load a baseline from `path`. The checksum trailer is verified when
    /// present; trailer-less legacy documents (including the committed
    /// `BENCH_baseline.json`) still load.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, BaselineError> {
        match sme_runtime::read_snapshot(path.as_ref(), None) {
            Ok(text) => BaselineStore::from_json(&text),
            Err(sme_runtime::SnapshotError::Io(e)) => Err(BaselineError::Io(e)),
            Err(sme_runtime::SnapshotError::Corrupt(msg)) => Err(BaselineError::Format(msg)),
        }
    }

    /// Load a baseline and validate it against `machine`'s fingerprint.
    /// On mismatch the stale baseline is **discarded** — the returned
    /// store is empty but stamped for `machine` (so a subsequent compare
    /// passes vacuously: runs on different timing models are not
    /// comparable) — and a warning naming both fingerprints is printed to
    /// stderr, mirroring `PlanStore::load_checked`.
    ///
    /// *Corruption* is handled differently from staleness: if the primary
    /// document is unreadable, fails its checksum trailer, or does not
    /// parse, the `.bak` previous generation (kept by every
    /// [`BaselineStore::save`]) is tried before giving up, and the
    /// original error is returned only when both generations are bad.
    pub fn load_checked(
        path: impl AsRef<Path>,
        machine: &MachineConfig,
    ) -> Result<(Self, FingerprintCheck), BaselineError> {
        let path = path.as_ref();
        let store = match BaselineStore::load(path) {
            Ok(store) => store,
            Err(BaselineError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(BaselineError::Io(e));
            }
            Err(primary) => match BaselineStore::load(sme_runtime::backup_path(path)) {
                Ok(previous) => {
                    eprintln!(
                        "warning: baseline {} is corrupt ({primary}); recovered \
                         {} entr(y/ies) from the previous generation",
                        path.display(),
                        previous.len()
                    );
                    previous
                }
                Err(_) => return Err(primary),
            },
        };
        let check = store.fingerprint_check(machine);
        if let FingerprintCheck::Mismatch { stored, current } = check {
            eprintln!(
                "warning: baseline {} was recorded for machine fingerprint \
                 {stored:016x} but the current model is {current:016x}; \
                 discarding its {} entr(y/ies) — re-record with --write-baseline",
                path.display(),
                store.len()
            );
            return Ok((BaselineStore::for_machine(machine), check));
        }
        Ok((store, check))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BaselineStore {
        let mut store = BaselineStore::for_machine(&MachineConfig::apple_m4());
        store.set_metric("serving_today_makespan_placed_mean", 1000.0);
        store.set_metric("serving_restart_hit_rate", 1.0);
        store.set_shape_cycles("f32 64x64x32 A*B^T", 500.0);
        store
    }

    #[test]
    fn json_round_trip_is_lossless_and_sorted() {
        let store = sample();
        let text = store.to_json();
        let reloaded = BaselineStore::from_json(&text).unwrap();
        assert_eq!(reloaded, store);
        // Keys render in sorted order (diffable artifact).
        let makespan = text.find("serving_today_makespan_placed_mean").unwrap();
        let hit_rate = text.find("serving_restart_hit_rate").unwrap();
        assert!(hit_rate < makespan, "r < t in sorted order");
        assert!(text.contains("\"version\""));
        assert_eq!(
            reloaded.machine_fingerprint(),
            Some(MachineConfig::apple_m4().fingerprint())
        );
    }

    #[test]
    fn malformed_documents_are_rejected_with_context() {
        let cases: Vec<(&str, &str)> = vec![
            ("not json", "baseline format error"),
            ("{}", "version"),
            ("{\"version\": 99}", "unsupported baseline version 99"),
            (
                "{\"version\": 1, \"metrics\": {}}",
                "missing \"shape_cycles\" section",
            ),
            (
                "{\"version\": 1, \"metrics\": 5, \"shape_cycles\": {}}",
                "\"metrics\" must be an object",
            ),
            (
                "{\"version\": 1, \"metrics\": {\"x\": \"fast\"}, \"shape_cycles\": {}}",
                "\"metrics\".\"x\" must be a number",
            ),
            (
                "{\"version\": 1, \"machine_fingerprint\": 12, \
                 \"metrics\": {}, \"shape_cycles\": {}}",
                "hex string",
            ),
            (
                "{\"version\": 1, \"machine_fingerprint\": \"xyz!\", \
                 \"metrics\": {}, \"shape_cycles\": {}}",
                "bad machine_fingerprint",
            ),
        ];
        for (doc, needle) in cases {
            let err = BaselineStore::from_json(doc).unwrap_err().to_string();
            assert!(err.contains(needle), "{doc}: {err}");
        }
    }

    #[test]
    fn compare_is_direction_aware() {
        let baseline = sample();

        // An identical run passes.
        let report = baseline.compare(&baseline.clone());
        assert!(report.passed());
        assert_eq!(report.compared, 3);

        // Cycles growing past the relative tolerance regress…
        let mut slower = baseline.clone();
        slower.set_metric("serving_today_makespan_placed_mean", 1200.0);
        let report = baseline.compare(&slower);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(
            report.regressions[0].metric,
            "serving_today_makespan_placed_mean"
        );
        assert!(report.regressions[0].limit < 1200.0);
        // …while shrinking ones (an improvement) pass.
        let mut faster = baseline.clone();
        faster.set_metric("serving_today_makespan_placed_mean", 500.0);
        assert!(baseline.compare(&faster).passed());

        // Hit rates are floors: a drop regresses, a (impossible) rise
        // passes.
        let mut cold = baseline.clone();
        cold.set_metric("serving_restart_hit_rate", 0.5);
        let report = baseline.compare(&cold);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(report.regressions[0].metric, "serving_restart_hit_rate");

        // Per-shape cycles are ceilings too, reported with the prefix.
        let mut shape_slow = baseline.clone();
        shape_slow.set_shape_cycles("f32 64x64x32 A*B^T", 600.0);
        let report = baseline.compare(&shape_slow);
        assert_eq!(report.regressions.len(), 1);
        assert_eq!(
            report.regressions[0].metric,
            "shape_cycles:f32 64x64x32 A*B^T"
        );

        // Entries missing on either side are skipped, not failed.
        let mut sparse = BaselineStore::for_machine(&MachineConfig::apple_m4());
        sparse.set_metric("serving_restart_hit_rate", 1.0);
        let report = baseline.compare(&sparse);
        assert!(report.passed());
        assert_eq!(report.compared, 1);
    }

    #[test]
    fn load_checked_discards_stale_baselines() {
        let dir = std::env::temp_dir().join(format!("sme_baseline_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("baseline.json");
        sample().save(&path).unwrap();

        // Same machine: the baseline loads intact.
        let machine = MachineConfig::apple_m4();
        let (loaded, check) = BaselineStore::load_checked(&path, &machine).unwrap();
        assert_eq!(check, FingerprintCheck::Match);
        assert_eq!(loaded.len(), 3);

        // A recalibrated machine: warn, discard, return empty-but-stamped.
        let mut recalibrated = MachineConfig::apple_m4();
        recalibrated.p_core.clock_ghz = 4.0;
        let (loaded, check) = BaselineStore::load_checked(&path, &recalibrated).unwrap();
        assert!(matches!(check, FingerprintCheck::Mismatch { .. }));
        assert!(loaded.is_empty());
        assert_eq!(
            loaded.machine_fingerprint(),
            Some(recalibrated.fingerprint())
        );
        // A vacuous compare passes: different models are not comparable.
        assert!(loaded.compare(&sample()).passed());

        std::fs::remove_dir_all(&dir).unwrap();
    }
}
