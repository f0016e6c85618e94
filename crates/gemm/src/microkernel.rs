//! Microkernel emission: the register conventions of the generated kernels
//! and the code for one block instance (predicate setup, accumulator
//! load/zero, the contraction loop of Lst. 4, accumulator store).

use crate::blocking::{BlockInstance, TILE};
use crate::config::{Beta, GemmConfig};
use crate::loads::{emit_c_transfer, emit_zero_tiles, TransferDir};
use sme_isa::asm::Assembler;
use sme_isa::inst::{ScalarInst, SmeInst, SveInst};
use sme_isa::regs::{PReg, PnReg, XReg, ZReg};
use sme_isa::types::ElementType;

// Register conventions shared by all emitted kernels. The calling
// convention follows LIBXSMM: X0 = A, X1 = B, X2 = C (all simulated
// addresses). The remaining assignments are internal to the generator.

/// Pointer to A (kernel argument 0).
pub(crate) const ARG_A: u8 = 0;
/// Pointer to B (kernel argument 1).
pub(crate) const ARG_B: u8 = 1;
/// Pointer to C (kernel argument 2).
pub(crate) const ARG_C: u8 = 2;
/// Per-block cursor into A.
pub(crate) const A_PTR: u8 = 3;
/// Per-block cursor into B (or the transposed scratch panel).
pub(crate) const B_PTR: u8 = 4;
/// Per-block base pointer into C.
pub(crate) const C_PTR: u8 = 5;
/// Base of the transposed-B scratch buffer (column-major B only).
pub(crate) const SCRATCH: u8 = 6;
/// Contraction-loop counter.
pub(crate) const K_CNT: u8 = 7;
/// Scratch register for immediate materialisation.
pub(crate) const TMP0: u8 = 8;
/// A column stride in bytes (`lda * 4`).
pub(crate) const LDA_B: u8 = 9;
/// B contraction-step stride in bytes (`ldb * 4`, or 128 for the scratch
/// panel).
pub(crate) const BK_STRIDE: u8 = 10;
/// C column stride in bytes (`ldc * 4`).
pub(crate) const LDC_B: u8 = 11;
/// ZA slice-index register (the architectural W12).
pub(crate) const W12: u8 = 12;
/// Per-column cursor used by accumulator transfers and the transposer.
pub(crate) const COL_PTR: u8 = 13;
/// Scratch register (whilelt limits).
pub(crate) const TMP1: u8 = 14;
/// Original B column stride in bytes (`ldb * 4`) for the transposer.
pub(crate) const LDB_B: u8 = 17;

/// First Z register holding A values (one per 16-row group).
pub(crate) const ZA_A: u8 = 0;
/// First Z register holding B values (one per 16-column group).
pub(crate) const ZB_B: u8 = 4;
/// First Z register used to stage accumulator columns during two-step
/// transfers.
pub(crate) const ZC_STAGE: u8 = 8;

/// Predicate register for row group `rg` (masks A values / C rows).
pub(crate) fn row_pred(rg: usize) -> PReg {
    PReg::new(rg as u8)
}

/// Predicate register for column group `cg` (masks B values / C columns).
pub(crate) fn col_pred(cg: usize) -> PReg {
    PReg::new(4 + cg as u8)
}

/// Predicate-as-counter register governing multi-vector A / C-column loads.
pub(crate) fn a_counter() -> PnReg {
    PnReg::new(8)
}

/// Predicate-as-counter register governing multi-vector B loads.
pub(crate) fn b_counter() -> PnReg {
    PnReg::new(9)
}

/// Predicate register masking single-vector packed-BF16 A loads of the
/// widening microkernel (halfword lanes: two packed elements per row).
///
/// `ld1h`'s governing-predicate field is 3 bits, so this must sit in
/// P0–P7. P3 is free whenever the register is actually consumed: a
/// single-vector A load means one active row group, so of the row
/// predicates only [`row_pred`]`(0)` is live (more groups switch the load
/// to the counter-governed multi-vector form, which never reads this).
pub(crate) fn wa_pred() -> PReg {
    PReg::new(3)
}

/// Predicate register masking single-vector packed-BF16 B loads of the
/// widening microkernel. P7 by the same argument as [`wa_pred`]: a
/// single-vector B load means only [`col_pred`]`(0)` is live.
pub(crate) fn wb_pred() -> PReg {
    PReg::new(7)
}

/// Counter register governing multi-vector packed-BF16 A loads of the
/// widening microkernel (counts halfword elements, i.e. `2 × rows`).
pub(crate) fn wa_counter() -> PnReg {
    PnReg::new(12)
}

/// Counter register governing multi-vector packed-BF16 B loads of the
/// widening microkernel.
pub(crate) fn wb_counter() -> PnReg {
    PnReg::new(13)
}

pub(crate) fn xr(n: u8) -> XReg {
    XReg::new(n)
}

pub(crate) fn zr(n: u8) -> ZReg {
    ZReg::new(n)
}

/// Where the microkernel reads B from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BSource {
    /// Directly from the row-major B operand (the `C += A·Bᵀ` case).
    RowMajor,
    /// From the transposed scratch panel built by
    /// [`crate::transpose::emit_panel_transpose`]; the payload is the first
    /// column of the panel.
    Scratch {
        /// Absolute index of the panel's first column.
        panel_col0: usize,
    },
}

/// Emit `mov <reg>, #value; whilelt <pred>.<t>, xzr, <reg>` — a predicate
/// covering the first `value` lanes of width `elem`.
pub(crate) fn emit_lane_predicate(
    asm: &mut Assembler,
    pred: PReg,
    lanes: usize,
    elem: ElementType,
) {
    asm.push(ScalarInst::mov_imm16(xr(TMP1), lanes as u16));
    asm.push(SveInst::Whilelt {
        pd: pred,
        elem,
        rn: XReg::XZR,
        rm: xr(TMP1),
    });
}

/// Emit a predicate-as-counter covering the first `count` lanes of width
/// `elem` across a `vecs`-vector group.
pub(crate) fn emit_counter_predicate(
    asm: &mut Assembler,
    pn: PnReg,
    count: usize,
    vecs: usize,
    elem: ElementType,
) {
    asm.push(ScalarInst::mov_imm16(xr(TMP1), count as u16));
    asm.push(SveInst::WhileltCnt {
        pn,
        elem,
        rn: XReg::XZR,
        rm: xr(TMP1),
        vl: if vecs >= 4 { 4 } else { 2 },
    });
}

/// Number of vector registers used by a multi-vector load covering `groups`
/// 16-lane groups (1, 2 or 4; three groups round up to a four-register
/// load).
pub(crate) fn load_vectors(groups: usize) -> usize {
    match groups {
        0 | 1 => 1,
        2 => 2,
        _ => 4,
    }
}

/// Emit the predicate setup for one block: per-group lane predicates plus
/// the multi-vector load counters.
pub(crate) fn emit_block_predicates(asm: &mut Assembler, block: &BlockInstance) {
    let rows = block.rows;
    let cols = block.cols;
    for rg in 0..block.active_row_groups() {
        let lanes = TILE.min(rows - rg * TILE);
        emit_lane_predicate(asm, row_pred(rg), lanes, ElementType::F32);
    }
    for cg in 0..block.active_col_groups() {
        let lanes = TILE.min(cols - cg * TILE);
        emit_lane_predicate(asm, col_pred(cg), lanes, ElementType::F32);
    }
    if load_vectors(block.active_row_groups()) > 1 {
        emit_counter_predicate(
            asm,
            a_counter(),
            rows,
            load_vectors(block.active_row_groups()),
            ElementType::F32,
        );
    }
    if load_vectors(block.active_col_groups()) > 1 {
        emit_counter_predicate(
            asm,
            b_counter(),
            cols,
            load_vectors(block.active_col_groups()),
            ElementType::F32,
        );
    }
}

/// Emit a load of `groups` 16-lane groups starting at Z register `z_first`
/// from the pointer register `ptr` (the Lst. 4 operand loads).
pub(crate) fn emit_operand_load(
    asm: &mut Assembler,
    z_first: u8,
    groups: usize,
    single_pred: PReg,
    counter: PnReg,
    ptr: u8,
) {
    let vecs = load_vectors(groups);
    if vecs == 1 {
        asm.push(SveInst::ld1w(zr(z_first), single_pred, xr(ptr), 0));
    } else {
        asm.push(SveInst::ld1w_multi(
            zr(z_first),
            vecs as u8,
            counter,
            xr(ptr),
            0,
        ));
    }
}

/// Emit the pointer initialisation for one block.
pub(crate) fn emit_block_pointers(
    asm: &mut Assembler,
    cfg: &GemmConfig,
    block: &BlockInstance,
    b_source: BSource,
) {
    // A cursor: column 0 of the block's rows.
    asm.push(ScalarInst::MovReg {
        rd: xr(A_PTR),
        rn: xr(ARG_A),
    });
    if block.row0 > 0 {
        asm.add_imm(xr(A_PTR), xr(A_PTR), (block.row0 * 4) as u64);
    }
    // B cursor.
    match b_source {
        BSource::RowMajor => {
            asm.push(ScalarInst::MovReg {
                rd: xr(B_PTR),
                rn: xr(ARG_B),
            });
            if block.col0 > 0 {
                asm.add_imm(xr(B_PTR), xr(B_PTR), (block.col0 * 4) as u64);
            }
        }
        BSource::Scratch { panel_col0 } => {
            asm.push(ScalarInst::MovReg {
                rd: xr(B_PTR),
                rn: xr(SCRATCH),
            });
            let off = (block.col0 - panel_col0) * 4;
            if off > 0 {
                asm.add_imm(xr(B_PTR), xr(B_PTR), off as u64);
            }
        }
    }
    // C base pointer.
    let c_off = cfg.c_offset(block.row0, block.col0) as u64;
    asm.push(ScalarInst::MovReg {
        rd: xr(C_PTR),
        rn: xr(ARG_C),
    });
    if c_off > 0 {
        if c_off < (1 << 24) {
            asm.add_imm(xr(C_PTR), xr(C_PTR), c_off);
        } else {
            asm.mov_imm64(xr(TMP0), c_off);
            asm.push(ScalarInst::AddReg {
                rd: xr(C_PTR),
                rn: xr(C_PTR),
                rm: xr(TMP0),
                shift: None,
            });
        }
    }
}

/// Emit the contraction loop (Lst. 4): per step, load one column of A and
/// one row of B, bump the cursors and issue one FMOPA per active tile.
pub(crate) fn emit_k_loop(asm: &mut Assembler, cfg: &GemmConfig, block: &BlockInstance) {
    asm.mov_imm64(xr(K_CNT), cfg.k as u64);
    let top = asm.new_label();
    asm.bind(top);
    asm.push(ScalarInst::SubImm {
        rd: xr(K_CNT),
        rn: xr(K_CNT),
        imm12: 1,
        shift12: false,
    });
    emit_k_step(asm, block);
    asm.cbnz(xr(K_CNT), top);
}

/// One contraction step: operand loads, cursor bumps, FMOPAs.
fn emit_k_step(asm: &mut Assembler, block: &BlockInstance) {
    emit_operand_load(
        asm,
        ZA_A,
        block.active_row_groups(),
        row_pred(0),
        a_counter(),
        A_PTR,
    );
    emit_operand_load(
        asm,
        ZB_B,
        block.active_col_groups(),
        col_pred(0),
        b_counter(),
        B_PTR,
    );
    asm.push(ScalarInst::AddReg {
        rd: xr(A_PTR),
        rn: xr(A_PTR),
        rm: xr(LDA_B),
        shift: None,
    });
    asm.push(ScalarInst::AddReg {
        rd: xr(B_PTR),
        rn: xr(B_PTR),
        rm: xr(BK_STRIDE),
        shift: None,
    });
    for cg in 0..block.active_col_groups() {
        for rg in 0..block.active_row_groups() {
            let tile = block.blocking.tile_index(rg, cg);
            asm.push(SmeInst::fmopa_f32(
                tile,
                col_pred(cg),
                row_pred(rg),
                zr(ZB_B + cg as u8),
                zr(ZA_A + rg as u8),
            ));
        }
    }
}

/// Emit the complete code for one block instance: predicates, pointers,
/// accumulator initialisation, contraction loop and write-back.
pub fn emit_block(asm: &mut Assembler, cfg: &GemmConfig, block: &BlockInstance, b_source: BSource) {
    emit_block_predicates(asm, block);
    emit_block_pointers(asm, cfg, block, b_source);
    match cfg.beta {
        Beta::Zero => emit_zero_tiles(asm, block),
        Beta::One => emit_c_transfer(asm, cfg, block, TransferDir::Load),
    }
    emit_k_loop(asm, cfg, block);
    emit_c_transfer(asm, cfg, block, TransferDir::Store);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::RegisterBlocking;
    use sme_isa::inst::Inst;

    fn full_block(blocking: RegisterBlocking) -> BlockInstance {
        BlockInstance {
            row0: 0,
            col0: 0,
            rows: blocking.rows(),
            cols: blocking.cols(),
            blocking,
        }
    }

    #[test]
    fn load_vector_rounding() {
        assert_eq!(load_vectors(1), 1);
        assert_eq!(load_vectors(2), 2);
        assert_eq!(load_vectors(3), 4);
        assert_eq!(load_vectors(4), 4);
    }

    #[test]
    fn k_step_matches_listing_four_shape() {
        // A full 32x32 block must generate the Lst. 4 inner loop: two
        // multi-vector loads, two address bumps, four FMOPAs per step.
        let cfg = GemmConfig::abt(32, 32, 8);
        let block = full_block(RegisterBlocking::B32x32);
        let mut asm = Assembler::new("k_step");
        emit_k_step(&mut asm, &block);
        let program = asm.finish();
        let loads = program.count_matching(|i| matches!(i, Inst::Sve(SveInst::Ld1Multi { .. })));
        let fmopas = program.count_matching(|i| matches!(i, Inst::Sme(SmeInst::Fmopa { .. })));
        let adds = program.count_matching(|i| matches!(i, Inst::Scalar(ScalarInst::AddReg { .. })));
        assert_eq!(loads, 2);
        assert_eq!(fmopas, 4);
        assert_eq!(adds, 2);
        assert_eq!(program.len(), 8);
        let _ = cfg;
    }

    #[test]
    fn tile_and_operand_wiring_follows_listing_four() {
        let block = full_block(RegisterBlocking::B32x32);
        let mut asm = Assembler::new("wiring");
        emit_k_step(&mut asm, &block);
        let program = asm.finish();
        let fmopas: Vec<_> = program
            .insts()
            .iter()
            .filter_map(|i| match i {
                Inst::Sme(SmeInst::Fmopa { tile, zn, zm, .. }) => {
                    Some((*tile, zn.index(), zm.index()))
                }
                _ => None,
            })
            .collect();
        // Tiles 0..3 each updated once; zn comes from the B registers (z4+),
        // zm from the A registers (z0+), matching
        //   fmopa za0.s, …, z2.s, z0.s   (paper Lst. 4, adjusted registers).
        assert_eq!(fmopas.len(), 4);
        let mut tiles: Vec<u8> = fmopas.iter().map(|f| f.0).collect();
        tiles.sort_unstable();
        assert_eq!(tiles, vec![0, 1, 2, 3]);
        for (_, zn, zm) in fmopas {
            assert!((4..8).contains(&zn), "B operand register z{zn}");
            assert!(zm < 4, "A operand register z{zm}");
        }
    }

    #[test]
    fn thin_blockings_use_the_right_load_shapes() {
        let mut asm = Assembler::new("b16x64");
        emit_k_step(&mut asm, &full_block(RegisterBlocking::B16x64));
        let program = asm.finish();
        let single = program.count_matching(|i| matches!(i, Inst::Sve(SveInst::Ld1 { .. })));
        let multi4 =
            program.count_matching(|i| matches!(i, Inst::Sve(SveInst::Ld1Multi { count: 4, .. })));
        let fmopas = program.count_matching(|i| matches!(i, Inst::Sme(SmeInst::Fmopa { .. })));
        assert_eq!(single, 1, "A is one 16-element vector");
        assert_eq!(multi4, 1, "B is a four-vector group");
        assert_eq!(fmopas, 4);

        let mut asm = Assembler::new("b64x16");
        emit_k_step(&mut asm, &full_block(RegisterBlocking::B64x16));
        let program = asm.finish();
        let single = program.count_matching(|i| matches!(i, Inst::Sve(SveInst::Ld1 { .. })));
        let multi4 =
            program.count_matching(|i| matches!(i, Inst::Sve(SveInst::Ld1Multi { count: 4, .. })));
        assert_eq!(single, 1, "B is one 16-element vector");
        assert_eq!(multi4, 1, "A is a four-vector group");
    }

    #[test]
    fn masked_blocks_emit_partial_predicates() {
        let block = BlockInstance {
            row0: 64,
            col0: 64,
            rows: 9,
            cols: 13,
            blocking: RegisterBlocking::B32x32,
        };
        let mut asm = Assembler::new("masked");
        emit_block_predicates(&mut asm, &block);
        let program = asm.finish();
        // One row-group predicate and one column-group predicate, each set
        // up with a mov of the partial count.
        let whilelts = program.count_matching(|i| matches!(i, Inst::Sve(SveInst::Whilelt { .. })));
        assert_eq!(whilelts, 2);
        let movs: Vec<u16> = program
            .insts()
            .iter()
            .filter_map(|i| match i {
                Inst::Scalar(ScalarInst::MovZ { imm16, .. }) => Some(*imm16),
                _ => None,
            })
            .collect();
        assert!(movs.contains(&9));
        assert!(movs.contains(&13));
    }
}
