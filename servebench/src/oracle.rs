//! The output oracle: every served request is recomputed on the host
//! from its seed, outside the timed intervals.
//!
//! FP32 outputs must bit-match the scalar `gemm_reference`; BF16 widening
//! outputs must lie within `WIDENING_REL_TOL` of the BF16-rounded
//! `widening_reference`. The operands are re-derived with the same seeding
//! scheme the kernels' buffers use (A from `seed`, B from
//! `seed ^ 0x1111_1111`, C from `seed ^ 0x2222_2222`).

use sme_gemm::reference::{fill_matrix, gemm_reference};
use sme_gemm::{widening_reference, widening_rel_error, AnyGemmConfig, WIDENING_REL_TOL};
use sme_runtime::GemmRequest;

/// Whether `output` is a correct answer to `request`.
pub fn check(request: &GemmRequest, output: &[f32]) -> bool {
    let reference = expected(request);
    match request.config {
        AnyGemmConfig::Fp32(_) => output == reference.as_slice(),
        AnyGemmConfig::WideningBf16(_) => {
            output.len() == reference.len()
                && widening_rel_error(output, &reference) < WIDENING_REL_TOL
        }
    }
}

/// The oracle's output for one request.
fn expected(request: &GemmRequest) -> Vec<f32> {
    let seeded = |len: usize, seed: u64| {
        let mut data = vec![0.0f32; len];
        fill_matrix(seed, &mut data);
        data
    };
    let seed = request.seed;
    match &request.config {
        AnyGemmConfig::Fp32(cfg) => {
            let a = seeded(cfg.a_len(), seed);
            let b = seeded(cfg.b_len(), seed ^ 0x1111_1111);
            let mut c = seeded(cfg.c_len(), seed ^ 0x2222_2222);
            gemm_reference(cfg, &a, &b, &mut c);
            c
        }
        AnyGemmConfig::WideningBf16(cfg) => {
            let a = seeded(cfg.m * cfg.k, seed);
            let b = seeded(cfg.k * cfg.n, seed ^ 0x1111_1111);
            let mut c = seeded(cfg.c_len(), seed ^ 0x2222_2222);
            widening_reference(cfg, &a, &b, &mut c);
            c
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sme_gemm::{GemmConfig, WideningGemmConfig};
    use sme_runtime::GemmService;

    #[test]
    fn served_outputs_pass_and_a_changed_element_fails() {
        let requests = [
            GemmRequest::fp32(GemmConfig::abt(16, 8, 16), 3),
            GemmRequest::widening(WideningGemmConfig::new(16, 8, 16).expect("on the grid"), 4),
        ];
        let report = GemmService::new(8)
            .dispatch(&requests)
            .expect("valid requests");
        for (request, output) in requests.iter().zip(&report.outputs) {
            assert!(check(request, output), "{}", request.config);
            let mut wrong = output.clone();
            wrong[5] += 0.5;
            assert!(!check(request, &wrong), "{}", request.config);
        }
    }
}
