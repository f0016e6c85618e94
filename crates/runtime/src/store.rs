//! Persistent store of autotuned plan winners.
//!
//! The tuner is expensive (it generates and timing-simulates every
//! candidate), so winners are worth keeping across runs. A [`PlanStore`]
//! maps a *normalized* [`AnyGemmConfig`] — the datatype family, shape,
//! leading dimensions, layout and accumulation mode, with the tunable
//! code-generation knobs reset — to the winning [`PlanCandidate`] and its
//! scores, and round-trips through a small versioned JSON document (see
//! [`PlanStore::to_json`]).
//!
//! A record never stores the expanded block list: a [`PlanKind`] is enough
//! to re-derive the plan deterministically, which keeps the document tiny
//! and immune to staleness in the block geometry itself.

use crate::fault::FaultInjector;
use serde::Serialize;
use sme_gemm::{
    AnyGemmConfig, BLayout, Backend, Beta, Dtype, GemmConfig, PlanCandidate, PlanKind,
    WideningGemmConfig, ZaTransferStrategy,
};
use sme_machine::MachineConfig;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;

/// Version stamp written into the JSON document, and the only version
/// [`PlanStore::from_json`] accepts. Every entry carries a `dtype` tag
/// (`"Fp32"` or `"WideningBf16"`), the winning `backend`, `plan` and
/// `c_transfer`; widening entries write `null` for the FP32-only fields
/// (`lda`/`ldb`/`ldc`/`b_layout`/`beta`). A document of any other version
/// is rejected, so [`PlanStore::load_recovered`] serves an empty store and
/// the shapes are simply re-tuned.
pub const PLAN_STORE_VERSION: u64 = 5;

/// The tuning result stored for one normalized configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TunedRecord {
    /// The winning candidate.
    pub candidate: PlanCandidate,
    /// Simulated cycles of the winner.
    pub tuned_cycles: f64,
    /// Simulated cycles of the default (untuned) candidate, kept so that
    /// reports can show the achieved improvement without re-simulating.
    pub default_cycles: f64,
}

impl TunedRecord {
    /// Speed-up of the winner over the default plan (≥ 1 by construction:
    /// the tuner's candidate set always contains the default).
    pub fn speedup(&self) -> f64 {
        if self.tuned_cycles == 0.0 {
            1.0
        } else {
            self.default_cycles / self.tuned_cycles
        }
    }
}

/// Errors reported while loading or parsing a persisted plan store.
#[derive(Debug)]
pub enum PlanStoreError {
    /// The file could not be read or written.
    Io(std::io::Error),
    /// The document is not valid JSON or not a valid plan store.
    Format(String),
}

impl fmt::Display for PlanStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanStoreError::Io(e) => write!(f, "plan store I/O error: {e}"),
            PlanStoreError::Format(msg) => write!(f, "plan store format error: {msg}"),
        }
    }
}

impl std::error::Error for PlanStoreError {}

impl From<std::io::Error> for PlanStoreError {
    fn from(e: std::io::Error) -> Self {
        PlanStoreError::Io(e)
    }
}

/// The result of comparing a store's machine fingerprint against the
/// current timing model (see [`PlanStore::fingerprint_check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FingerprintCheck {
    /// The store was tuned on a machine model with identical timing
    /// parameters — its winners are trustworthy.
    Match,
    /// The store carries no fingerprint (saved or built in memory without
    /// [`PlanStore::stamp`]).
    Unstamped,
    /// The store was tuned against different timing parameters; its winners
    /// may be stale.
    Mismatch {
        /// Fingerprint recorded in the store.
        stored: u64,
        /// Fingerprint of the current machine model.
        current: u64,
    },
}

/// In-memory map of tuned winners, keyed by normalized configuration, plus
/// the fingerprint of the machine model the winners were tuned on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PlanStore {
    entries: HashMap<AnyGemmConfig, TunedRecord>,
    machine_fingerprint: Option<u64>,
}

/// Normalize an FP32 configuration to its tuning key: the tunable knob
/// (`c_transfer`) is reset to a fixed value so that requests differing
/// only in it share one tuned winner.
pub fn tune_key(cfg: &GemmConfig) -> GemmConfig {
    cfg.with_c_transfer(ZaTransferStrategy::TwoStep)
}

/// Normalize a configuration of either datatype to its tuning key (the
/// dtype-generic twin of [`tune_key`]).
pub fn tune_key_any(cfg: &AnyGemmConfig) -> AnyGemmConfig {
    match cfg {
        AnyGemmConfig::Fp32(c) => AnyGemmConfig::Fp32(tune_key(c)),
        AnyGemmConfig::WideningBf16(c) => {
            AnyGemmConfig::WideningBf16(c.with_c_transfer(ZaTransferStrategy::TwoStep))
        }
    }
}

impl PlanStore {
    /// An empty, unstamped store.
    pub fn new() -> Self {
        PlanStore::default()
    }

    /// An empty store stamped with `machine`'s timing fingerprint.
    pub fn for_machine(machine: &MachineConfig) -> Self {
        let mut store = PlanStore::new();
        store.stamp(machine);
        store
    }

    /// Stamp the store with `machine`'s timing fingerprint, declaring that
    /// its winners were tuned against that model.
    pub fn stamp(&mut self, machine: &MachineConfig) {
        self.machine_fingerprint = Some(machine.fingerprint());
    }

    /// The recorded machine fingerprint, if the store is stamped.
    pub fn machine_fingerprint(&self) -> Option<u64> {
        self.machine_fingerprint
    }

    /// Compare the store's fingerprint against `machine`'s current timing
    /// parameters.
    pub fn fingerprint_check(&self, machine: &MachineConfig) -> FingerprintCheck {
        let current = machine.fingerprint();
        match self.machine_fingerprint {
            None => FingerprintCheck::Unstamped,
            Some(stored) if stored == current => FingerprintCheck::Match,
            Some(stored) => FingerprintCheck::Mismatch { stored, current },
        }
    }

    /// Load a persisted store and validate it against `machine`'s timing
    /// fingerprint.
    ///
    /// On a fingerprint mismatch the stale winners are **discarded** — the
    /// returned store is empty but stamped for `machine`, so callers
    /// re-tune (and re-persist) instead of silently dispatching plans tuned
    /// for a different calibration — and a warning naming both fingerprints
    /// is printed to stderr. Unstamped stores load as-is with
    /// [`FingerprintCheck::Unstamped`]; the caller decides whether to trust
    /// them.
    ///
    /// *Corruption* is handled differently from staleness: if the primary
    /// document is unreadable, fails its checksum trailer, or does not
    /// parse, the `.bak` previous generation (kept by every
    /// [`PlanStore::save`]) is tried before giving up, and the original
    /// error is returned only when both generations are bad.
    pub fn load_checked(
        path: impl AsRef<Path>,
        machine: &MachineConfig,
    ) -> Result<(Self, FingerprintCheck), PlanStoreError> {
        let path = path.as_ref();
        let store = match PlanStore::load(path) {
            Ok(store) => store,
            Err(PlanStoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(PlanStoreError::Io(e));
            }
            Err(primary) => match PlanStore::load(crate::persist::backup_path(path)) {
                Ok(previous) => {
                    eprintln!(
                        "warning: plan store {} is corrupt ({primary}); \
                         recovered {} winner(s) from the previous generation",
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
                "warning: plan store {} was tuned for machine fingerprint \
                 {stored:016x} but the current model is {current:016x}; \
                 discarding its {} stale winner(s) — re-tune and re-save",
                path.display(),
                store.len()
            );
            return Ok((PlanStore::for_machine(machine), check));
        }
        Ok((store, check))
    }

    /// Number of tuned winners.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no winners are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record the winner for an FP32 configuration (normalized internally).
    /// Returns the previous record, if any.
    pub fn insert(&mut self, cfg: &GemmConfig, record: TunedRecord) -> Option<TunedRecord> {
        self.insert_any(&AnyGemmConfig::Fp32(*cfg), record)
    }

    /// Record the winner for a configuration of either datatype
    /// (normalized internally). Returns the previous record, if any.
    pub fn insert_any(&mut self, cfg: &AnyGemmConfig, record: TunedRecord) -> Option<TunedRecord> {
        self.entries.insert(tune_key_any(cfg), record)
    }

    /// Look up the winner for an FP32 configuration (normalized
    /// internally).
    pub fn lookup(&self, cfg: &GemmConfig) -> Option<&TunedRecord> {
        self.lookup_any(&AnyGemmConfig::Fp32(*cfg))
    }

    /// Look up the winner for a configuration of either datatype
    /// (normalized internally).
    pub fn lookup_any(&self, cfg: &AnyGemmConfig) -> Option<&TunedRecord> {
        self.entries.get(&tune_key_any(cfg))
    }

    /// Iterate over `(normalized config, record)` pairs in unspecified
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (&AnyGemmConfig, &TunedRecord)> {
        self.entries.iter()
    }

    /// Serialize to the versioned JSON document, with entries sorted by
    /// datatype then shape so the output is deterministic. The machine
    /// fingerprint, when stamped, is written as a 16-digit hex string (JSON
    /// numbers cannot carry 64 bits losslessly). Widening entries write
    /// `null` for the FP32-only fields.
    pub fn to_json(&self) -> String {
        #[derive(Serialize)]
        struct Entry {
            dtype: String,
            m: usize,
            n: usize,
            k: usize,
            lda: Option<usize>,
            ldb: Option<usize>,
            ldc: Option<usize>,
            b_layout: Option<BLayout>,
            beta: Option<Beta>,
            backend: String,
            plan: String,
            c_transfer: ZaTransferStrategy,
            tuned_cycles: f64,
            default_cycles: f64,
        }
        #[derive(Serialize)]
        struct Doc {
            version: u64,
            machine_fingerprint: Option<String>,
            entries: Vec<Entry>,
        }
        let mut pairs: Vec<(&AnyGemmConfig, &TunedRecord)> = self.entries.iter().collect();
        pairs.sort_by_key(|(c, _)| c.ordering_key());
        let doc = Doc {
            version: PLAN_STORE_VERSION,
            machine_fingerprint: self.machine_fingerprint.map(|fp| format!("{fp:016x}")),
            entries: pairs
                .into_iter()
                .map(|(any, r)| {
                    let base = Entry {
                        dtype: any.dtype().name().to_string(),
                        m: any.m(),
                        n: any.n(),
                        k: any.k(),
                        lda: None,
                        ldb: None,
                        ldc: None,
                        b_layout: None,
                        beta: None,
                        backend: r.candidate.backend.name().to_string(),
                        plan: r.candidate.kind.name().to_string(),
                        c_transfer: r.candidate.c_transfer,
                        tuned_cycles: r.tuned_cycles,
                        default_cycles: r.default_cycles,
                    };
                    match any {
                        AnyGemmConfig::Fp32(c) => Entry {
                            lda: Some(c.lda),
                            ldb: Some(c.ldb),
                            ldc: Some(c.ldc),
                            b_layout: Some(c.b_layout),
                            beta: Some(c.beta),
                            ..base
                        },
                        AnyGemmConfig::WideningBf16(_) => base,
                    }
                })
                .collect(),
        };
        serde_json::to_string_pretty(&doc).expect("shim serialization is total")
    }

    /// Parse a document produced by [`PlanStore::to_json`].
    pub fn from_json(text: &str) -> Result<Self, PlanStoreError> {
        let fail = |msg: &str| PlanStoreError::Format(msg.to_string());
        let doc = serde_json::from_str(text)
            .map_err(|e| PlanStoreError::Format(format!("invalid JSON: {e}")))?;
        match doc.get("version").and_then(|v| v.as_u64()) {
            Some(PLAN_STORE_VERSION) => {}
            Some(other) => {
                return Err(PlanStoreError::Format(format!(
                    "unsupported plan store version {other} (expected {PLAN_STORE_VERSION})"
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
        let entries = doc
            .get("entries")
            .and_then(|v| v.as_array())
            .ok_or_else(|| fail("missing `entries` array"))?;
        let mut store = PlanStore::new();
        for entry in entries {
            let dim = |name: &str| -> Result<usize, PlanStoreError> {
                entry
                    .get(name)
                    .and_then(|v| v.as_u64())
                    .map(|v| v as usize)
                    .ok_or_else(|| fail(&format!("entry missing integer field `{name}`")))
            };
            let text_field = |name: &str| -> Result<&str, PlanStoreError> {
                entry
                    .get(name)
                    .and_then(|v| v.as_str())
                    .ok_or_else(|| fail(&format!("entry missing string field `{name}`")))
            };
            let cycles = |name: &str| -> Result<f64, PlanStoreError> {
                entry
                    .get(name)
                    .and_then(|v| v.as_f64())
                    .ok_or_else(|| fail(&format!("entry missing number field `{name}`")))
            };
            let dtype_name = text_field("dtype")?;
            let dtype = Dtype::from_name(dtype_name)
                .ok_or_else(|| fail(&format!("unknown dtype `{dtype_name}`")))?;
            let c_transfer = match text_field("c_transfer")? {
                "Direct" => ZaTransferStrategy::Direct,
                "TwoStep" => ZaTransferStrategy::TwoStep,
                other => return Err(fail(&format!("unknown c_transfer `{other}`"))),
            };
            let plan_name = text_field("plan")?;
            let kind = PlanKind::from_name(plan_name)
                .ok_or_else(|| fail(&format!("unknown plan kind `{plan_name}`")))?;
            let backend_name = text_field("backend")?;
            let backend = Backend::from_name(backend_name)
                .ok_or_else(|| fail(&format!("unknown backend `{backend_name}`")))?;
            let key = match dtype {
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
                    let key = GemmConfig {
                        m: dim("m")?,
                        n: dim("n")?,
                        k: dim("k")?,
                        lda: dim("lda")?,
                        ldb: dim("ldb")?,
                        ldc: dim("ldc")?,
                        b_layout,
                        beta,
                        c_transfer: ZaTransferStrategy::TwoStep,
                    };
                    key.validate()
                        .map_err(|e| fail(&format!("invalid stored configuration: {e}")))?;
                    if b_layout == BLayout::ColMajor && kind != PlanKind::ColumnPanels {
                        return Err(fail(&format!(
                            "plan kind `{plan_name}` is incompatible with column-major B \
                             (only ColumnPanels is)"
                        )));
                    }
                    // A Neon winner must describe a shape the Neon generator
                    // can actually compile, or every request for it would
                    // fall back at dispatch time.
                    if backend == Backend::Neon {
                        sme_gemm::neon_supports(&key).map_err(|e| {
                            fail(&format!("stored Neon winner is not Neon-compilable: {e}"))
                        })?;
                    }
                    AnyGemmConfig::Fp32(key)
                }
                Dtype::WideningBf16 => {
                    let key = WideningGemmConfig::new(dim("m")?, dim("n")?, dim("k")?)
                        .map_err(|e| fail(&format!("invalid stored configuration: {e}")))?;
                    // Validate the candidate against the widening
                    // generators' grids, mirroring the FP32 checks above.
                    match backend {
                        Backend::Sme => {
                            sme_gemm::sme_widening_supports(&key).map_err(|e| {
                                fail(&format!("stored SME widening winner off the grid: {e}"))
                            })?;
                            // Edge tiles are predicated, so any homogeneous
                            // or heterogeneous plan compiles; only the
                            // column-panel kind (meaningless for the
                            // pre-packed operands) is rejected.
                            match kind {
                                PlanKind::Homogeneous(_) | PlanKind::Heterogeneous => {}
                                _ => {
                                    return Err(fail(&format!(
                                        "plan kind `{plan_name}` is incompatible with the \
                                         widening generator"
                                    )))
                                }
                            }
                        }
                        Backend::Neon => {
                            sme_gemm::neon_widening_supports(&key).map_err(|e| {
                                fail(&format!(
                                    "stored Neon widening winner is not compilable: {e}"
                                ))
                            })?;
                        }
                    }
                    AnyGemmConfig::WideningBf16(key)
                }
            };
            let record = TunedRecord {
                candidate: PlanCandidate {
                    backend,
                    kind,
                    c_transfer,
                },
                tuned_cycles: cycles("tuned_cycles")?,
                default_cycles: cycles("default_cycles")?,
            };
            store.entries.insert(key, record);
        }
        store.machine_fingerprint = machine_fingerprint;
        Ok(store)
    }

    /// Write the JSON document to a file — atomically (temp + fsync +
    /// rename), with a checksum trailer, keeping the previous generation at
    /// `<path>.bak` (see [`crate::persist::save_snapshot`]).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PlanStoreError> {
        self.save_with_faults(path, None)
    }

    /// [`PlanStore::save`] through the fault-injection hooks of `faults`.
    pub fn save_with_faults(
        &self,
        path: impl AsRef<Path>,
        faults: Option<&dyn FaultInjector>,
    ) -> Result<(), PlanStoreError> {
        crate::persist::save_snapshot(path.as_ref(), &self.to_json(), faults)?;
        Ok(())
    }

    /// Load a store previously written with [`PlanStore::save`]. The
    /// checksum trailer is verified when present; trailer-less legacy
    /// documents still load.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PlanStoreError> {
        match crate::persist::read_snapshot(path.as_ref(), None) {
            Ok(text) => PlanStore::from_json(&text),
            Err(crate::persist::SnapshotError::Io(e)) => Err(PlanStoreError::Io(e)),
            Err(crate::persist::SnapshotError::Corrupt(msg)) => Err(PlanStoreError::Format(msg)),
        }
    }

    /// Load with the full degradation ladder: primary generation → `.bak`
    /// previous generation → empty, applying the fingerprint staleness
    /// check to whichever generation served.
    ///
    /// Unlike [`PlanStore::load_checked`] this never fails: *corruption*
    /// (torn writes, bit-flips, unparseable JSON, injected I/O faults)
    /// recovers from the previous generation, *staleness* (fingerprint
    /// mismatch) discards to an empty re-stamped store, and a missing file
    /// is a fresh start. The [`RecoveredStore`] says which rung served.
    pub fn load_recovered(path: impl AsRef<Path>, machine: &MachineConfig) -> RecoveredStore {
        PlanStore::load_recovered_with_faults(path, machine, None)
    }

    /// [`PlanStore::load_recovered`] through the fault-injection hooks of
    /// `faults`.
    pub fn load_recovered_with_faults(
        path: impl AsRef<Path>,
        machine: &MachineConfig,
        faults: Option<&dyn FaultInjector>,
    ) -> RecoveredStore {
        let path = path.as_ref();
        let recovered = crate::persist::load_with_recovery(path, faults, PlanStore::from_json);
        let source = recovered.source;
        let detail = recovered.detail;
        if let Some(d) = detail.as_deref() {
            eprintln!("warning: plan store {}: {d}", path.display());
        }
        match recovered.value {
            Some(store) => {
                let check = store.fingerprint_check(machine);
                if let FingerprintCheck::Mismatch { stored, current } = check {
                    eprintln!(
                        "warning: plan store {} was tuned for machine fingerprint \
                         {stored:016x} but the current model is {current:016x}; \
                         discarding its {} stale winner(s) — re-tune and re-save",
                        path.display(),
                        store.len()
                    );
                    return RecoveredStore {
                        store: PlanStore::for_machine(machine),
                        check,
                        source,
                        detail,
                    };
                }
                RecoveredStore {
                    store,
                    check,
                    source,
                    detail,
                }
            }
            None => RecoveredStore {
                store: PlanStore::for_machine(machine),
                check: FingerprintCheck::Match,
                source,
                detail,
            },
        }
    }
}

/// The outcome of [`PlanStore::load_recovered`]: the store that will serve,
/// its fingerprint verdict, and which on-disk generation it came from.
#[derive(Debug)]
pub struct RecoveredStore {
    /// The store to serve from (possibly empty).
    pub store: PlanStore,
    /// Fingerprint verdict for the generation that served.
    pub check: FingerprintCheck,
    /// Which generation served.
    pub source: crate::persist::SnapshotSource,
    /// Why the primary (and possibly backup) generation was rejected.
    pub detail: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sme_gemm::RegisterBlocking;

    fn sample_record(kind: PlanKind) -> TunedRecord {
        TunedRecord {
            candidate: PlanCandidate {
                backend: Backend::Sme,
                kind,
                c_transfer: ZaTransferStrategy::Direct,
            },
            tuned_cycles: 1200.5,
            default_cycles: 1500.25,
        }
    }

    fn widening_record() -> TunedRecord {
        TunedRecord {
            candidate: PlanCandidate {
                backend: Backend::Sme,
                kind: PlanKind::Homogeneous(RegisterBlocking::B32x32),
                c_transfer: ZaTransferStrategy::TwoStep,
            },
            tuned_cycles: 800.0,
            default_cycles: 900.0,
        }
    }

    #[test]
    fn lookup_is_knob_insensitive() {
        let mut store = PlanStore::new();
        let cfg = GemmConfig::abt(64, 48, 32);
        store.insert(&cfg, sample_record(PlanKind::Heterogeneous));
        // A request differing only in the tunable knob hits the same record.
        let variant = cfg.with_c_transfer(ZaTransferStrategy::Direct);
        assert!(store.lookup(&variant).is_some());
        // A different shape does not.
        assert!(store.lookup(&GemmConfig::abt(64, 48, 33)).is_none());
        // The same is true across the widening family.
        let wide = WideningGemmConfig::new(32, 32, 8).unwrap();
        store.insert_any(&wide.into(), widening_record());
        let variant: AnyGemmConfig = wide.with_c_transfer(ZaTransferStrategy::Direct).into();
        assert!(store.lookup_any(&variant).is_some());
        // Dtypes never alias: the FP32 record for the same shape is
        // separate.
        let fp32_same_shape: AnyGemmConfig = GemmConfig::abt(32, 32, 8).into();
        assert!(store.lookup_any(&fp32_same_shape).is_none());
    }

    #[test]
    fn json_round_trip_preserves_every_field() {
        let mut store = PlanStore::new();
        store.insert(
            &GemmConfig::abt(80, 80, 512),
            sample_record(PlanKind::Homogeneous(RegisterBlocking::B16x64)),
        );
        store.insert(
            &GemmConfig::ab(33, 47, 64).with_leading_dims(40, 64, 40),
            sample_record(PlanKind::ColumnPanels),
        );
        let json = store.to_json();
        let parsed = PlanStore::from_json(&json).unwrap();
        assert_eq!(parsed, store);
        assert_eq!(parsed.len(), 2);
        let rec = parsed.lookup(&GemmConfig::abt(80, 80, 512)).unwrap();
        assert_eq!(
            rec.candidate.kind,
            PlanKind::Homogeneous(RegisterBlocking::B16x64)
        );
        assert_eq!(rec.candidate.c_transfer, ZaTransferStrategy::Direct);
        assert_eq!(rec.tuned_cycles, 1200.5);
        assert!((rec.speedup() - 1500.25 / 1200.5).abs() < 1e-12);
    }

    #[test]
    fn mixed_v3_documents_round_trip_with_dtype_tags() {
        // Dtype tags date from format v3 and are still written: a store
        // carrying both datatype families and both backends serializes
        // with dtype tags and reloads identically.
        let mut store = PlanStore::new();
        store.insert(
            &GemmConfig::abt(64, 64, 32),
            sample_record(PlanKind::Heterogeneous),
        );
        let wide = WideningGemmConfig::new(64, 32, 8).unwrap();
        store.insert_any(&wide.into(), widening_record());
        let neon_wide = WideningGemmConfig::new(16, 4, 4).unwrap();
        store.insert_any(
            &neon_wide.into(),
            TunedRecord {
                candidate: PlanCandidate {
                    backend: Backend::Neon,
                    kind: PlanKind::Homogeneous(RegisterBlocking::B32x32),
                    c_transfer: ZaTransferStrategy::TwoStep,
                },
                tuned_cycles: 50.0,
                default_cycles: 50.0,
            },
        );
        let json = store.to_json();
        assert!(json.contains(&format!("\"version\": {PLAN_STORE_VERSION}")));
        assert!(json.contains("\"dtype\": \"Fp32\""));
        assert!(json.contains("\"dtype\": \"WideningBf16\""));
        // Widening entries have no FP32 layout fields.
        assert!(json.contains("\"lda\": null"));
        let parsed = PlanStore::from_json(&json).unwrap();
        assert_eq!(parsed, store);
        let rec = parsed.lookup_any(&wide.into()).unwrap();
        assert_eq!(rec.candidate.backend, Backend::Sme);
        assert_eq!(
            rec.candidate.kind,
            PlanKind::Homogeneous(RegisterBlocking::B32x32)
        );
        assert_eq!(
            parsed
                .lookup_any(&neon_wide.into())
                .unwrap()
                .candidate
                .backend,
            Backend::Neon
        );
    }

    #[test]
    fn older_documents_recover_as_an_empty_store() {
        // A document of an earlier format version is not migrated: the
        // recovery ladder rejects both generations, reports why, and
        // serves an empty store stamped for the current machine, so the
        // shapes are re-tuned.
        use crate::persist::SnapshotSource;
        let machine = MachineConfig::apple_m4();
        let path = std::env::temp_dir().join(format!(
            "sme_runtime_old_version_{}.json",
            std::process::id()
        ));
        std::fs::write(
            &path,
            r#"{"version": 4, "entries": [{"dtype": "Fp32", "m": 48, "n": 48, "k": 16,
                "lda": 48, "ldb": 48, "ldc": 48, "b_layout": "RowMajor", "beta": "One",
                "backend": "Sme", "plan": "Homogeneous16x64", "c_transfer": "Direct",
                "tuned_cycles": 100, "default_cycles": 150}]}"#,
        )
        .unwrap();
        let recovered = PlanStore::load_recovered(&path, &machine);
        assert!(recovered.store.is_empty());
        assert_eq!(recovered.source, SnapshotSource::Empty);
        assert_eq!(
            recovered.store.machine_fingerprint(),
            Some(machine.fingerprint())
        );
        let detail = recovered.detail.expect("the rejection is explained");
        assert!(detail.contains("version 4"), "{detail}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn serialized_output_is_deterministic_and_versioned() {
        let mut store = PlanStore::new();
        for mn in [96, 32, 64] {
            store.insert(
                &GemmConfig::abt(mn, mn, 16),
                sample_record(PlanKind::Heterogeneous),
            );
        }
        store.insert_any(
            &WideningGemmConfig::new(32, 32, 8).unwrap().into(),
            widening_record(),
        );
        let a = store.to_json();
        let b = store.clone().to_json();
        assert_eq!(a, b);
        assert!(a.contains(&format!("\"version\": {PLAN_STORE_VERSION}")));
        // Sorted by dtype then shape: 32 before 64 before 96, widening last.
        let p32 = a.find("\"m\": 32").unwrap();
        let p64 = a.find("\"m\": 64").unwrap();
        let p96 = a.find("\"m\": 96").unwrap();
        let pwide = a.find("WideningBf16").unwrap();
        assert!(p32 < p64 && p64 < p96 && p96 < pwide);
    }

    #[test]
    fn malformed_documents_are_rejected_with_context() {
        // A valid one-entry FP32 document; each case corrupts one field.
        let fp32 = r#"{"version": 5, "entries": [{"dtype": "Fp32", "m": 8, "n": 8, "k": 8,
            "lda": 8, "ldb": 8, "ldc": 8, "b_layout": "RowMajor", "beta": "One",
            "backend": "Sme", "plan": "Heterogeneous", "c_transfer": "TwoStep",
            "tuned_cycles": 1, "default_cycles": 1}]}"#;
        assert_eq!(PlanStore::from_json(fp32).unwrap().len(), 1);
        let widening = |m: usize, k: usize, backend: &str, plan: &str| {
            format!(
                r#"{{"version": 5, "entries": [{{"dtype": "WideningBf16", "m": {m}, "n": 32,
                   "k": {k}, "backend": "{backend}", "plan": "{plan}",
                   "c_transfer": "TwoStep", "tuned_cycles": 1, "default_cycles": 1}}]}}"#
            )
        };
        let cases = [
            ("not json".to_string(), "invalid JSON"),
            ("{}".to_string(), "version"),
            (r#"{"version": 4, "entries": []}"#.to_string(), "version 4"),
            (r#"{"version": 5}"#.to_string(), "entries"),
            (r#"{"version": 5, "entries": [{}]}"#.to_string(), "missing"),
            (
                r#"{"version": 5, "machine_fingerprint": "xyz", "entries": []}"#.to_string(),
                "machine fingerprint",
            ),
            (
                // A non-string, non-null fingerprint is corruption, not
                // "unstamped" — treating it as absent would silently keep
                // winners from an unknown calibration.
                r#"{"version": 5, "machine_fingerprint": true, "entries": []}"#.to_string(),
                "hex string",
            ),
            (fp32.replace("Fp32", "Fp16"), "unknown dtype"),
            (fp32.replace("Sme", "Sve"), "unknown backend"),
            (fp32.replace("RowMajor", "Diagonal"), "b_layout"),
            (fp32.replace("Heterogeneous", "NoSuchPlan"), "plan kind"),
            (fp32.replace("TwoStep", "Sideways"), "c_transfer"),
            (
                fp32.replace(r#""m": 8"#, r#""m": 0"#),
                "invalid stored configuration",
            ),
            (
                fp32.replace("RowMajor", "ColMajor"),
                "incompatible with column-major",
            ),
            (
                // A Neon winner for column-major B can never dispatch (the
                // Neon generator is row-major-B only).
                fp32.replace("RowMajor", "ColMajor")
                    .replace("Sme", "Neon")
                    .replace("Heterogeneous", "ColumnPanels"),
                "Neon-compilable",
            ),
            (
                // An odd k is off the widening envelope grid entirely.
                widening(24, 7, "Sme", "Homogeneous32x32"),
                "invalid stored configuration",
            ),
            (
                // The column-panel kind never drives the widening
                // generator (the pre-packed operands have no column-major
                // panels to transpose).
                widening(32, 8, "Sme", "ColumnPanels"),
                "incompatible with the widening generator",
            ),
            (
                // m = 12 is off even the widening envelope grid.
                widening(12, 8, "Neon", "Homogeneous32x32"),
                "invalid stored configuration",
            ),
        ];
        for (text, needle) in cases {
            match PlanStore::from_json(&text) {
                Err(PlanStoreError::Format(msg)) => {
                    assert!(msg.contains(needle), "{needle:?} not in {msg:?}")
                }
                other => panic!("expected Format error for {text:?}, got {other:?}"),
            }
        }
    }

    #[test]
    fn fingerprint_round_trips_and_detects_recalibration() {
        use sme_machine::MachineConfig;
        let machine = MachineConfig::apple_m4();
        let mut store = PlanStore::for_machine(&machine);
        store.insert(
            &GemmConfig::abt(32, 32, 16),
            sample_record(PlanKind::Heterogeneous),
        );
        assert_eq!(store.fingerprint_check(&machine), FingerprintCheck::Match);

        let json = store.to_json();
        assert!(json.contains("machine_fingerprint"));
        let reloaded = PlanStore::from_json(&json).unwrap();
        assert_eq!(reloaded, store);
        assert_eq!(
            reloaded.machine_fingerprint(),
            Some(machine.fingerprint()),
            "fingerprint survives the JSON round trip"
        );

        // A recalibrated machine model is detected as a mismatch.
        let mut recalibrated = MachineConfig::apple_m4();
        recalibrated.p_core.clock_ghz = 4.0;
        assert!(matches!(
            reloaded.fingerprint_check(&recalibrated),
            FingerprintCheck::Mismatch { .. }
        ));
        // An unstamped store is reported as such, not as a mismatch.
        assert_eq!(
            PlanStore::new().fingerprint_check(&machine),
            FingerprintCheck::Unstamped
        );
    }

    #[test]
    fn load_checked_discards_stale_winners() {
        use sme_machine::MachineConfig;
        let machine = MachineConfig::apple_m4();
        let mut store = PlanStore::for_machine(&machine);
        let cfg = GemmConfig::abt(64, 64, 32);
        store.insert(&cfg, sample_record(PlanKind::Heterogeneous));
        // A widening winner goes stale with the rest of the store.
        store.insert_any(
            &WideningGemmConfig::new(32, 32, 8).unwrap().into(),
            widening_record(),
        );
        let path = std::env::temp_dir().join("sme_runtime_fingerprint_test.json");
        store.save(&path).unwrap();

        // Same machine: winners survive.
        let (same, check) = PlanStore::load_checked(&path, &machine).unwrap();
        assert_eq!(check, FingerprintCheck::Match);
        assert!(same.lookup(&cfg).is_some());

        // Different timing calibration: winners are dropped and the store
        // comes back stamped for the *current* machine, ready to re-tune.
        let mut recalibrated = MachineConfig::apple_m4();
        recalibrated.multicore.sme_units = 1;
        let (retune, check) = PlanStore::load_checked(&path, &recalibrated).unwrap();
        assert!(matches!(check, FingerprintCheck::Mismatch { .. }));
        assert!(retune.is_empty(), "stale winners must not be dispatched");
        assert_eq!(
            retune.machine_fingerprint(),
            Some(recalibrated.fingerprint())
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let mut store = PlanStore::new();
        store.insert(
            &GemmConfig::abt(48, 48, 48),
            sample_record(PlanKind::Heterogeneous),
        );
        let path = std::env::temp_dir().join("sme_runtime_plan_store_test.json");
        store.save(&path).unwrap();
        let loaded = PlanStore::load(&path).unwrap();
        assert_eq!(loaded, store);
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            PlanStore::load("/nonexistent/plan/store.json"),
            Err(PlanStoreError::Io(_))
        ));
    }
}
