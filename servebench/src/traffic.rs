//! The three seeded workloads, as streams of request batches.
//!
//! Every input the serving stack sees is generated here from the workload
//! seed: shapes, operand seeds, and the phase structure. The same seed
//! always yields the same stream.

use sme_gemm::{AnyGemmConfig, GemmConfig, WideningGemmConfig};
use sme_runtime::GemmRequest;
use std::collections::HashSet;

/// Which traffic mix a run serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The serving trace's six shapes plus one column-major-B shape,
    /// 4 requests each with one fixed operand seed per shape: after
    /// warm-up every kernel, probe and packed operand is a cache hit.
    Steady,
    /// Three never-seen shapes per batch, 2 requests each with fresh
    /// operand seeds: every batch generates, probes and packs.
    Fresh,
    /// Phases of three new hot shapes; the pretune daemon ticks after
    /// every batch and the process restarts at every phase end.
    Pretune,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Steady, Workload::Fresh, Workload::Pretune];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady-serve",
            Workload::Fresh => "fresh-serve",
            Workload::Pretune => "pretune-restart",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// How many measured batches the deterministic prefix spans: the
    /// simulated metrics are taken over exactly these batches, so they
    /// repeat exactly for a seed however fast the host is. Long enough
    /// that the seeded shape mix averages out between seeds.
    pub fn prefix_batches(self) -> usize {
        match self {
            Workload::Steady => 8,
            Workload::Fresh => 384,
            // Whole phases, restart batches included.
            Workload::Pretune => 96 * (PHASE_BATCHES + 1),
        }
    }

    /// Set-up drills spread over an untraced run after the first set-up.
    /// On steady-serve and fresh-serve every tick that tunes and every
    /// restart comes from a set-up, so these set the sample counts of
    /// `tick_ms_p50` and `restart_ms` there; fresh-serve's set-ups are
    /// cheap, so it runs more.
    pub fn drills(self) -> u32 {
        match self {
            Workload::Steady => 24,
            Workload::Fresh => 48,
            Workload::Pretune => 16,
        }
    }

    /// How many prefix batches the exact-repeat check replays on a fresh
    /// stack.
    pub fn replay_batches(self) -> usize {
        match self {
            Workload::Steady => 4,
            Workload::Fresh => 12,
            Workload::Pretune => 2 * (PHASE_BATCHES + 1),
        }
    }
}

/// Requests per shape in a steady-serve batch.
const STEADY_REQUESTS: usize = 4;
/// Requests per shape in fresh-serve and pretune-restart batches.
const SHAPE_REQUESTS: usize = 2;
/// Shapes per fresh-serve batch and per pretune-restart phase.
const SHAPES_PER_BATCH: usize = 3;
/// Batches served per pretune-restart phase before the restart.
pub const PHASE_BATCHES: usize = 4;

/// SplitMix64: a small, fully specified generator, so a seed means the
/// same stream on every platform and toolchain.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value from `lo..=hi` in steps of `step`.
    fn pick(&mut self, lo: usize, hi: usize, step: usize) -> usize {
        lo + (self.next() % ((hi - lo) / step + 1) as u64) as usize * step
    }
}

/// What to do after a batch.
#[derive(Debug)]
pub struct Step {
    pub requests: Vec<GemmRequest>,
    /// Restart the process after this batch and serve it again on the
    /// restored router (pretune-restart phase ends).
    pub restart_after: bool,
}

/// A workload's batch stream.
#[derive(Debug)]
pub struct Traffic {
    workload: Workload,
    rng: Rng,
    seen: HashSet<AnyGemmConfig>,
    /// The repeated batch: steady-serve's only batch, or the current
    /// pretune-restart phase's batch.
    repeated: Vec<GemmRequest>,
    served_in_phase: usize,
}

impl Traffic {
    pub fn new(workload: Workload, seed: u64) -> Traffic {
        let mut traffic = Traffic {
            workload,
            rng: Rng(seed),
            seen: HashSet::new(),
            repeated: Vec::new(),
            served_in_phase: PHASE_BATCHES,
        };
        for request in fixed_warmup() {
            traffic.seen.insert(request.config);
        }
        if workload == Workload::Steady {
            traffic.repeated = traffic.steady_batch();
        }
        traffic
    }

    /// The batch every set-up serves before measuring: steady-serve's own
    /// batch, and a fixed three-shape batch for the other two workloads
    /// (so set-up and its daemon tick cost the same for every seed).
    pub fn warmup(&self) -> Vec<GemmRequest> {
        match self.workload {
            Workload::Steady => self.repeated.clone(),
            Workload::Fresh | Workload::Pretune => fixed_warmup(),
        }
    }

    /// The next measured batch.
    pub fn next_step(&mut self) -> Step {
        match self.workload {
            Workload::Steady => Step {
                requests: self.repeated.clone(),
                restart_after: false,
            },
            Workload::Fresh => {
                let mut requests = Vec::new();
                for _ in 0..SHAPES_PER_BATCH {
                    let config = self.new_shape(4, 64, 4, 4, 128);
                    for _ in 0..SHAPE_REQUESTS {
                        requests.push(GemmRequest {
                            config,
                            seed: self.rng.next(),
                        });
                    }
                }
                Step {
                    requests,
                    restart_after: false,
                }
            }
            Workload::Pretune => {
                if self.served_in_phase == PHASE_BATCHES {
                    self.served_in_phase = 0;
                    self.repeated.clear();
                    for _ in 0..SHAPES_PER_BATCH {
                        let config = self.new_shape(16, 64, 8, 16, 64);
                        // Hot shapes carry repeated weights: one operand
                        // seed per shape for the whole phase.
                        let seed = self.rng.next();
                        for _ in 0..SHAPE_REQUESTS {
                            self.repeated.push(GemmRequest { config, seed });
                        }
                    }
                }
                self.served_in_phase += 1;
                Step {
                    requests: self.repeated.clone(),
                    restart_after: self.served_in_phase == PHASE_BATCHES,
                }
            }
        }
    }

    /// Steady-serve's batch: the serving trace's six shapes plus one
    /// column-major-B shape (which Neon cannot serve), each with one
    /// operand seed from the stream. The shapes are fixed, so the host
    /// work per batch is the same for every seed.
    fn steady_batch(&mut self) -> Vec<GemmRequest> {
        let widening = |m, n, k| -> AnyGemmConfig {
            WideningGemmConfig::new(m, n, k)
                .expect("serving-trace widening shapes are on the envelope grid")
                .into()
        };
        let shapes: [AnyGemmConfig; 7] = [
            GemmConfig::abt(64, 64, 32).into(),
            widening(64, 64, 8),
            GemmConfig::abt(16, 4, 16).into(),
            GemmConfig::abt(48, 48, 32).into(),
            widening(32, 32, 64),
            GemmConfig::abt(16, 8, 16).into(),
            GemmConfig::ab(32, 32, 32).into(),
        ];
        let mut batch = Vec::new();
        for config in shapes {
            let seed = self.rng.next();
            for _ in 0..STEADY_REQUESTS {
                batch.push(GemmRequest { config, seed });
            }
        }
        batch
    }

    /// A shape this stream has not produced before: FP32 A·Bᵀ, FP32 A·B
    /// (column-major B) or BF16 widening, with M and N from `lo..=hi` in
    /// steps of `step` and K from `step..=k_hi` in steps of `step` (M
    /// rounded up to the widening grid's multiple of 8).
    fn new_shape(
        &mut self,
        lo: usize,
        hi: usize,
        step: usize,
        k_lo: usize,
        k_hi: usize,
    ) -> AnyGemmConfig {
        loop {
            let m = self.rng.pick(lo, hi, step);
            let n = self.rng.pick(lo, hi, step);
            let k = self.rng.pick(k_lo, k_hi, step);
            let config: AnyGemmConfig = match self.rng.next() % 3 {
                0 => GemmConfig::abt(m, n, k).into(),
                1 => GemmConfig::ab(m, n, k).into(),
                _ => WideningGemmConfig::new(m.div_ceil(8) * 8, n, k)
                    .expect("M is a multiple of 8, N and K are even")
                    .into(),
            };
            if self.seen.insert(config) {
                return config;
            }
        }
    }
}

/// The fixed warm-up batch of fresh-serve and pretune-restart.
fn fixed_warmup() -> Vec<GemmRequest> {
    let shapes: [AnyGemmConfig; 3] = [
        GemmConfig::abt(32, 32, 64).into(),
        GemmConfig::ab(24, 40, 32).into(),
        WideningGemmConfig::new(32, 16, 64)
            .expect("on the envelope grid")
            .into(),
    ];
    shapes
        .iter()
        .enumerate()
        .flat_map(|(i, &config)| {
            (0..SHAPE_REQUESTS).map(move |r| GemmRequest {
                config,
                seed: 7000 + (i * SHAPE_REQUESTS + r) as u64,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(workload: Workload, seed: u64, n: usize) -> Vec<Vec<GemmRequest>> {
        let mut traffic = Traffic::new(workload, seed);
        (0..n).map(|_| traffic.next_step().requests).collect()
    }

    #[test]
    fn a_seed_fixes_the_stream() {
        for workload in Workload::ALL {
            assert_eq!(stream(workload, 3, 12), stream(workload, 3, 12));
            assert_ne!(stream(workload, 3, 12), stream(workload, 4, 12));
        }
    }

    #[test]
    fn fresh_shapes_are_never_repeated() {
        let mut seen = HashSet::new();
        for batch in stream(Workload::Fresh, 9, 200) {
            let shapes: HashSet<_> = batch.iter().map(|r| r.config).collect();
            assert_eq!(shapes.len(), SHAPES_PER_BATCH);
            for shape in shapes {
                assert!(seen.insert(shape), "{shape} repeated");
            }
        }
    }

    #[test]
    fn pretune_phases_restart_after_their_last_batch() {
        let mut traffic = Traffic::new(Workload::Pretune, 1);
        let steps: Vec<Step> = (0..2 * PHASE_BATCHES)
            .map(|_| traffic.next_step())
            .collect();
        let restarts: Vec<bool> = steps.iter().map(|s| s.restart_after).collect();
        assert_eq!(restarts.iter().filter(|&&r| r).count(), 2);
        assert!(restarts[PHASE_BATCHES - 1]);
        assert_eq!(steps[0].requests, steps[PHASE_BATCHES - 1].requests);
        assert_ne!(steps[0].requests, steps[PHASE_BATCHES].requests);
    }
}
