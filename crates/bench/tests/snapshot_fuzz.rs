//! Crash-safety fuzz for every snapshot loader in the workspace: the plan
//! store, the telemetry snapshot, the perf
//! baseline, and the postmortem bundle. Random truncation, bit flips,
//! spliced garbage and outright non-JSON bytes must surface as `Err` (or a
//! recovered/empty store) — never as a panic. A corrupt file on disk may
//! cost tuned state; it must not take down the process that finds it.

use proptest::collection::vec;
use proptest::prelude::*;
use sme_bench::BaselineStore;
use sme_gemm::{
    Backend, GemmConfig, PlanCandidate, PlanKind, RegisterBlocking, WideningGemmConfig,
};
use sme_machine::MachineConfig;
use sme_router::TelemetryRegistry;
use sme_runtime::{PlanStore, TunedRecord};
use std::path::PathBuf;

/// A stamped plan store holding an FP32 and a widening winner.
fn plan_doc() -> String {
    let mut store = PlanStore::for_machine(&MachineConfig::apple_m4());
    let record = |kind| TunedRecord {
        candidate: PlanCandidate {
            kind,
            ..PlanCandidate::default_for(&GemmConfig::abt(48, 48, 16))
        },
        tuned_cycles: 100.0,
        default_cycles: 150.0,
    };
    store.insert(
        &GemmConfig::abt(48, 48, 16),
        record(PlanKind::Homogeneous(RegisterBlocking::B16x64)),
    );
    store.insert_any(
        &WideningGemmConfig::new(32, 32, 8).unwrap().into(),
        record(PlanKind::Homogeneous(RegisterBlocking::B32x32)),
    );
    store.to_json()
}

fn telemetry_doc() -> String {
    let registry = TelemetryRegistry::for_machine(&MachineConfig::apple_m4());
    registry.record_group(
        &GemmConfig::abt(64, 64, 32).into(),
        Backend::Sme,
        4,
        1000.0,
        true,
    );
    registry.advance_epoch();
    registry.to_json()
}

fn baseline_doc() -> String {
    let mut store = BaselineStore::for_machine(&MachineConfig::apple_m4());
    store.set_metric("restart_hit_rate", 1.0);
    store.set_shape_cycles("Fp32 64x64x32", 123.0);
    store.to_json()
}

/// One way of damaging a document on disk.
#[derive(Debug, Clone)]
enum Damage {
    /// Torn write: only a prefix reached the disk.
    Truncate(usize),
    /// Silent media corruption: one bit flipped somewhere.
    FlipBit { byte: usize, bit: u8 },
    /// Interleaved write from another process: bytes spliced in.
    Splice { at: usize, bytes: Vec<u8> },
    /// The file is not ours at all.
    Garbage(Vec<u8>),
}

fn damage_strategy() -> impl Strategy<Value = Damage> {
    prop_oneof![
        (0usize..4096).prop_map(Damage::Truncate).boxed(),
        (0usize..4096, 0u8..8)
            .prop_map(|(byte, bit)| Damage::FlipBit { byte, bit })
            .boxed(),
        (0usize..4096, vec(0u8..255, 1..64))
            .prop_map(|(at, bytes)| Damage::Splice { at, bytes })
            .boxed(),
        vec(0u8..255, 0..256).prop_map(Damage::Garbage).boxed(),
    ]
}

fn apply(doc: &str, damage: &Damage) -> Vec<u8> {
    let mut bytes = doc.as_bytes().to_vec();
    match damage {
        Damage::Truncate(n) => {
            let cut = n % bytes.len().max(1);
            bytes.truncate(cut);
        }
        Damage::FlipBit { byte, bit } => {
            if !bytes.is_empty() {
                let i = byte % bytes.len();
                bytes[i] ^= 1 << bit;
            }
        }
        Damage::Splice { at, bytes: extra } => {
            let i = at % (bytes.len() + 1);
            for (j, b) in extra.iter().enumerate() {
                bytes.insert(i + j, *b);
            }
        }
        Damage::Garbage(raw) => bytes = raw.clone(),
    }
    bytes
}

/// Write the damaged bytes as both the primary and its `.bak` generation,
/// so the recovery ladder's backup branch chews on damaged input too.
fn write_damaged(name: &str, bytes: &[u8]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sme_snapfuzz_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join(name);
    std::fs::write(&path, bytes).expect("write primary");
    std::fs::write(sme_runtime::backup_path(&path), bytes).expect("write backup");
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plan_store_loaders_never_panic(damage in damage_strategy()) {
        let bytes = apply(&plan_doc(), &damage);
        let path = write_damaged("plans.json", &bytes);
        let machine = MachineConfig::apple_m4();
        let _ = PlanStore::load(&path);
        let _ = PlanStore::load_checked(&path, &machine);
        let _ = PlanStore::load_recovered(&path, &machine);
    }

    #[test]
    fn telemetry_loaders_never_panic(damage in damage_strategy()) {
        let bytes = apply(&telemetry_doc(), &damage);
        let path = write_damaged("telemetry.json", &bytes);
        let machine = MachineConfig::apple_m4();
        let _ = TelemetryRegistry::load(&path);
        let _ = TelemetryRegistry::load_checked(&path, &machine);
        let _ = TelemetryRegistry::load_recovered(&path, &machine);
    }

    #[test]
    fn baseline_loaders_never_panic(damage in damage_strategy()) {
        let bytes = apply(&baseline_doc(), &damage);
        let path = write_damaged("baseline.json", &bytes);
        let _ = BaselineStore::load(&path);
        let _ = BaselineStore::load_checked(&path, &MachineConfig::apple_m4());
    }

    #[test]
    fn postmortem_loader_never_panics(damage in damage_strategy()) {
        let doc = r#"{"breaches": [{"rule": "makespan-p99", "observed": 2.5,
            "threshold": 2.0}], "spans": [], "metrics": {}}"#;
        let bytes = apply(doc, &damage);
        let path = write_damaged("postmortem.json", &bytes);
        // The postmortem "loader" is the verifying snapshot reader plus a
        // JSON parse — the same pair the serving binary runs after writing
        // a bundle.
        if let Ok(text) = sme_runtime::read_snapshot(&path, None) {
            let _ = serde_json::from_str(&text);
        }
    }
}
