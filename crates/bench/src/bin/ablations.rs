//! Ablation study of the generator's design choices called out in DESIGN.md:
//! register-blocking strategy, ZA transfer strategy and the cost of the
//! in-kernel B transposition.

use sme_bench::SweepOptions;
use sme_gemm::{
    generate, generate_with_plan, plan_homogeneous, GemmConfig, RegisterBlocking,
    ZaTransferStrategy,
};

fn gflops(cfg: &GemmConfig) -> f64 {
    generate(cfg).map(|k| k.model_gflops()).unwrap_or(0.0)
}

fn main() {
    let opts = SweepOptions::parse_or_exit(std::env::args().skip(1));
    let k = opts.k;
    println!("Ablations (modelled FP32 GFLOPS on one M4 performance core, K = {k})\n");

    println!("-- register blocking (C += A*B^T, M = N = 80) --");
    let cfg = GemmConfig::abt(80, 80, k);
    println!("  heterogeneous (default)      : {:7.0}", gflops(&cfg));
    for blocking in [
        RegisterBlocking::B32x32,
        RegisterBlocking::B16x64,
        RegisterBlocking::B64x16,
    ] {
        let plan = plan_homogeneous(80, 80, blocking);
        let g = generate_with_plan(&cfg, Some(plan))
            .map(|k| k.model_gflops())
            .unwrap_or(0.0);
        println!("  homogeneous {blocking:?}       : {g:7.0}");
    }

    println!("\n-- ZA transfer strategy for the C block (M = N = 128) --");
    let base = GemmConfig::abt(128, 128, k);
    println!(
        "  two-step (ld1w/st1w + mova)  : {:7.0}",
        gflops(&base.with_c_transfer(ZaTransferStrategy::TwoStep))
    );
    println!(
        "  direct (ldr/str za)          : {:7.0}",
        gflops(&base.with_c_transfer(ZaTransferStrategy::Direct))
    );

    println!("\n-- B layout: direct outer products vs in-kernel transposition --");
    for mn in [64usize, 128, 256] {
        let abt = gflops(&GemmConfig::abt(mn, mn, k));
        let ab = gflops(&GemmConfig::ab(mn, mn, k));
        println!(
            "  M = N = {mn:3}: row-major B {abt:7.0}   column-major B {ab:7.0}   ({:4.1}% cost)",
            100.0 * (1.0 - ab / abt)
        );
    }
}
