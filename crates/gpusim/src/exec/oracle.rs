//! The per-lane `Op` interpreter the micro-op executor replaced, kept as a
//! test oracle, and the differential property test that holds the two
//! together.
//!
//! The oracle matches on [`Instruction`]/[`Op`] and evaluates guards, `RZ`
//! and `PT` lane by lane on every step — the direct reading of the ISA
//! semantics. `micro_ops_match_the_per_lane_oracle` runs both on seeded
//! random instruction streams (every `Op`, every guard form, partial and
//! divergent masks, `RZ`/`PT` operands, destinations aliasing sources,
//! 32/64/128-bit shared and global accesses, in- and out-of-bounds) and
//! requires identical warp state, memory, [`MemTrace`] and [`ExecError`]
//! after every step.

use sass::isa::*;
use sass::reg::{Pred, Reg};

use super::{advance_ctx, push_ctx, remove_ctx, ExecEnv, ExecError, MemTrace, StepEvent, Warp};
use super::{WarpCtx, WARP_SIZE};
use crate::memory::MemError;

fn read_reg(warp: &Warp, r: Reg, lane: usize) -> u32 {
    if r.is_rz() {
        0
    } else {
        warp.regs[r.0 as usize][lane]
    }
}

fn write_reg(warp: &mut Warp, r: Reg, lane: usize, v: u32) {
    if !r.is_rz() {
        warp.regs[r.0 as usize][lane] = v;
    }
}

fn read_pred(warp: &Warp, p: Pred, lane: usize) -> bool {
    if p.is_pt() {
        true
    } else {
        warp.preds[p.0 as usize][lane]
    }
}

fn write_pred(warp: &mut Warp, p: Pred, lane: usize, v: bool) {
    if !p.is_pt() {
        warp.preds[p.0 as usize][lane] = v;
    }
}

fn f(bits: u32) -> f32 {
    f32::from_bits(bits)
}

fn neg_f(bits: u32, neg: bool) -> u32 {
    if neg {
        bits ^ 0x8000_0000
    } else {
        bits
    }
}

fn neg_f2(bits: u32, neg: bool) -> u32 {
    if neg {
        bits ^ 0x8000_8000
    } else {
        bits
    }
}

fn neg_i(v: u32, neg: bool) -> u32 {
    if neg {
        v.wrapping_neg()
    } else {
        v
    }
}

fn lanes(mask: u32) -> impl Iterator<Item = usize> {
    (0..32).filter(move |l| mask & (1 << l) != 0)
}

/// One step of the per-lane interpreter: same contract as
/// [`super::step_into`], on the raw instruction stream.
pub(super) fn step(
    warp: &mut Warp,
    insts: &[Instruction],
    env: &mut ExecEnv<'_>,
    warp_idx: u32,
    trace: &mut MemTrace,
) -> Result<StepEvent, Box<ExecError>> {
    trace.reset();
    let ctx = match warp.current_ctx() {
        Some(c) => c,
        None => {
            warp.exited = true;
            return Ok(StepEvent::Exited);
        }
    };
    let pc = ctx.pc;
    let inst = match insts.get(pc as usize) {
        Some(i) => *i,
        None => {
            return Err(Box::new(ExecError {
                ctaid: env.ctaid,
                warp: warp_idx,
                pc,
                inst: "<end of code>".into(),
                msg: "fell off the end of the instruction stream (missing EXIT?)".into(),
            }))
        }
    };
    let fail = |msg: String| {
        Box::new(ExecError {
            ctaid: env.ctaid,
            warp: warp_idx,
            pc,
            inst: sass::disasm::inst_text(&inst),
            msg,
        })
    };

    let mut exec_mask = 0u32;
    if inst.guard.pred.is_pt() {
        if !inst.guard.neg {
            exec_mask = ctx.mask;
        }
    } else {
        for lane in 0..32 {
            if ctx.mask & (1 << lane) != 0
                && read_pred(warp, inst.guard.pred, lane) != inst.guard.neg
            {
                exec_mask |= 1 << lane;
            }
        }
    }

    match inst.op {
        Op::Exit => {
            remove_ctx(warp, pc);
            if ctx.mask & !exec_mask != 0 {
                push_ctx(
                    warp,
                    WarpCtx {
                        mask: ctx.mask & !exec_mask,
                        pc: pc + 1,
                    },
                );
            }
            if warp.ctxs.is_empty() {
                warp.exited = true;
                return Ok(StepEvent::Exited);
            }
            return Ok(StepEvent::Executed);
        }
        Op::Bra { target } => {
            remove_ctx(warp, pc);
            if exec_mask != 0 {
                push_ctx(
                    warp,
                    WarpCtx {
                        mask: exec_mask,
                        pc: target,
                    },
                );
            }
            if ctx.mask & !exec_mask != 0 {
                push_ctx(
                    warp,
                    WarpCtx {
                        mask: ctx.mask & !exec_mask,
                        pc: pc + 1,
                    },
                );
            }
            return Ok(StepEvent::Executed);
        }
        Op::BarSync => {
            if warp.ctxs.len() > 1 {
                return Err(fail(
                    "BAR.SYNC in divergent control flow is not supported".into(),
                ));
            }
            advance_ctx(warp, pc);
            return Ok(StepEvent::Barrier);
        }
        _ => {}
    }

    trace.exec_mask = exec_mask;
    let cbank = env.cbank;
    let bd = env.block_dim;
    let ctaid = env.ctaid;
    macro_rules! srcb {
        ($b:expr, $lane:expr) => {
            match $b {
                SrcB::Reg(r) => read_reg(warp, r, $lane),
                SrcB::Imm(v) => v,
                SrcB::Const(off) => cbank.read_u32(off),
            }
        };
    }

    match inst.op {
        Op::Ffma {
            d,
            a,
            b,
            c,
            neg_b,
            neg_c,
        } => {
            for lane in lanes(exec_mask) {
                let va = f(read_reg(warp, a, lane));
                let vb = f(neg_f(srcb!(b, lane), neg_b));
                let vc = f(neg_f(read_reg(warp, c, lane), neg_c));
                write_reg(warp, d, lane, va.mul_add(vb, vc).to_bits());
            }
        }
        Op::Fadd {
            d,
            a,
            neg_a,
            b,
            neg_b,
        } => {
            for lane in lanes(exec_mask) {
                let va = f(neg_f(read_reg(warp, a, lane), neg_a));
                let vb = f(neg_f(srcb!(b, lane), neg_b));
                write_reg(warp, d, lane, (va + vb).to_bits());
            }
        }
        Op::Fmul { d, a, b, neg_b } => {
            for lane in lanes(exec_mask) {
                let va = f(read_reg(warp, a, lane));
                let vb = f(neg_f(srcb!(b, lane), neg_b));
                write_reg(warp, d, lane, (va * vb).to_bits());
            }
        }
        Op::Hfma2 { d, a, b, c } => {
            for lane in lanes(exec_mask) {
                let (a0, a1) = sass::half::unpack_half2(read_reg(warp, a, lane));
                let (b0, b1) = sass::half::unpack_half2(srcb!(b, lane));
                let (c0, c1) = sass::half::unpack_half2(read_reg(warp, c, lane));
                let v = sass::half::pack_half2(a0.mul_add(b0, c0), a1.mul_add(b1, c1));
                write_reg(warp, d, lane, v);
            }
        }
        Op::Hadd2 {
            d,
            a,
            neg_a,
            b,
            neg_b,
        } => {
            for lane in lanes(exec_mask) {
                let (a0, a1) = sass::half::unpack_half2(neg_f2(read_reg(warp, a, lane), neg_a));
                let (b0, b1) = sass::half::unpack_half2(neg_f2(srcb!(b, lane), neg_b));
                write_reg(warp, d, lane, sass::half::pack_half2(a0 + b0, a1 + b1));
            }
        }
        Op::Hmul2 { d, a, b } => {
            for lane in lanes(exec_mask) {
                let (a0, a1) = sass::half::unpack_half2(read_reg(warp, a, lane));
                let (b0, b1) = sass::half::unpack_half2(srcb!(b, lane));
                write_reg(warp, d, lane, sass::half::pack_half2(a0 * b0, a1 * b1));
            }
        }
        Op::Fsetp {
            p,
            cmp,
            a,
            b,
            combine,
        } => {
            for lane in lanes(exec_mask) {
                let va = f(read_reg(warp, a, lane));
                let vb = f(srcb!(b, lane));
                let base = cmp.eval_f32(va, vb);
                let comb = read_pred(warp, combine.pred, lane) != combine.neg;
                write_pred(warp, p, lane, base && comb);
            }
        }
        Op::Iadd3 {
            d,
            a,
            neg_a,
            b,
            neg_b,
            c,
            neg_c,
        } => {
            for lane in lanes(exec_mask) {
                let va = neg_i(read_reg(warp, a, lane), neg_a);
                let vb = neg_i(srcb!(b, lane), neg_b);
                let vc = neg_i(read_reg(warp, c, lane), neg_c);
                write_reg(warp, d, lane, va.wrapping_add(vb).wrapping_add(vc));
            }
        }
        Op::Imad { d, a, b, c } => {
            for lane in lanes(exec_mask) {
                let v = read_reg(warp, a, lane)
                    .wrapping_mul(srcb!(b, lane))
                    .wrapping_add(read_reg(warp, c, lane));
                write_reg(warp, d, lane, v);
            }
        }
        Op::ImadHi { d, a, b, c } => {
            for lane in lanes(exec_mask) {
                let prod = read_reg(warp, a, lane) as u64 * srcb!(b, lane) as u64;
                let v = ((prod >> 32) as u32).wrapping_add(read_reg(warp, c, lane));
                write_reg(warp, d, lane, v);
            }
        }
        Op::ImadWide { d, a, b, c } => {
            for lane in lanes(exec_mask) {
                let clo = read_reg(warp, c, lane) as u64;
                let chi = read_reg(warp, c.offset(1), lane) as u64;
                let prod = read_reg(warp, a, lane) as u64 * srcb!(b, lane) as u64;
                let sum = prod.wrapping_add(clo | (chi << 32));
                write_reg(warp, d, lane, sum as u32);
                write_reg(warp, d.offset(1), lane, (sum >> 32) as u32);
            }
        }
        Op::Lea { d, a, b, shift } => {
            // `wrapping_shl` is what `<<` does in a release build; spelled
            // out so shift counts of 32 and more do not panic in debug.
            for lane in lanes(exec_mask) {
                let v =
                    srcb!(b, lane).wrapping_add(read_reg(warp, a, lane).wrapping_shl(shift as u32));
                write_reg(warp, d, lane, v);
            }
        }
        Op::Lop3 { d, a, b, c, lut } => {
            for lane in lanes(exec_mask) {
                let v = super::lop3(
                    read_reg(warp, a, lane),
                    srcb!(b, lane),
                    read_reg(warp, c, lane),
                    lut,
                );
                write_reg(warp, d, lane, v);
            }
        }
        Op::Shf {
            d,
            lo,
            shift,
            hi,
            right,
            u32_mode,
        } => {
            for lane in lanes(exec_mask) {
                let n = srcb!(shift, lane) & 63;
                let vlo = read_reg(warp, lo, lane);
                let vhi = read_reg(warp, hi, lane);
                let v = if u32_mode {
                    let n = n & 31;
                    if right {
                        vlo >> n
                    } else {
                        vlo << n
                    }
                } else {
                    let wide = (vhi as u64) << 32 | vlo as u64;
                    if right {
                        (wide >> n) as u32
                    } else {
                        ((wide << n) >> 32) as u32
                    }
                };
                write_reg(warp, d, lane, v);
            }
        }
        Op::Mov { d, b } => {
            for lane in lanes(exec_mask) {
                let v = srcb!(b, lane);
                write_reg(warp, d, lane, v);
            }
        }
        Op::Sel { d, a, b, p } => {
            for lane in lanes(exec_mask) {
                let sel = read_pred(warp, p.pred, lane) != p.neg;
                let v = if sel {
                    read_reg(warp, a, lane)
                } else {
                    srcb!(b, lane)
                };
                write_reg(warp, d, lane, v);
            }
        }
        Op::Isetp {
            p,
            cmp,
            u32: unsigned,
            a,
            b,
            combine,
        } => {
            for lane in lanes(exec_mask) {
                let va = read_reg(warp, a, lane);
                let vb = srcb!(b, lane);
                let base = if unsigned {
                    cmp.eval_i64(va as i64, vb as i64)
                } else {
                    cmp.eval_i64(va as i32 as i64, vb as i32 as i64)
                };
                let comb = read_pred(warp, combine.pred, lane) != combine.neg;
                write_pred(warp, p, lane, base && comb);
            }
        }
        Op::P2r { d, a, mask } => {
            for lane in lanes(exec_mask) {
                let mut bits = 0u32;
                for i in 0..7 {
                    if warp.preds[i][lane] {
                        bits |= 1 << i;
                    }
                }
                let v = (read_reg(warp, a, lane) & !mask) | (bits & mask);
                write_reg(warp, d, lane, v);
            }
        }
        Op::R2p { a, mask } => {
            for lane in lanes(exec_mask) {
                let v = read_reg(warp, a, lane);
                for i in 0..7u32 {
                    if mask & (1 << i) != 0 {
                        warp.preds[i as usize][lane] = v & (1 << i) != 0;
                    }
                }
            }
        }
        Op::S2r { d, sr } => {
            for lane in lanes(exec_mask) {
                let linear = warp.base_tid + lane as u32;
                let v = match sr {
                    SpecialReg::TidX => linear % bd[0],
                    SpecialReg::TidY => (linear / bd[0]) % bd[1],
                    SpecialReg::TidZ => linear / (bd[0] * bd[1]),
                    SpecialReg::CtaidX => ctaid[0],
                    SpecialReg::CtaidY => ctaid[1],
                    SpecialReg::CtaidZ => ctaid[2],
                    SpecialReg::LaneId => lane as u32,
                    SpecialReg::WarpId => linear / WARP_SIZE,
                };
                write_reg(warp, d, lane, v);
            }
        }
        Op::Ld {
            space,
            width,
            d,
            addr,
        } => {
            trace.width = width.bytes();
            trace.is_store = false;
            match space {
                MemSpace::Global => {
                    for lane in lanes(exec_mask) {
                        let lo = read_reg(warp, addr.base, lane) as u64;
                        let hi = read_reg(warp, addr.base.offset(1), lane) as u64;
                        let a = (lo | (hi << 32)).wrapping_add(addr.offset as i64 as u64);
                        trace.global_addrs.push(a);
                        let mut buf = [0u8; 16];
                        let n = width.bytes() as usize;
                        buf[..n].copy_from_slice(
                            env.global
                                .read(a, n)
                                .map_err(|e: MemError| fail(format!("lane {lane}: {e}")))?,
                        );
                        for i in 0..width.regs() {
                            let off = i as usize * 4;
                            write_reg(
                                warp,
                                d.offset(i),
                                lane,
                                u32::from_le_bytes(buf[off..off + 4].try_into().unwrap()),
                            );
                        }
                    }
                }
                MemSpace::Shared => {
                    for lane in lanes(exec_mask) {
                        let a = read_reg(warp, addr.base, lane).wrapping_add(addr.offset as u32);
                        trace.shared_addrs.push(a);
                        let end = a as usize + width.bytes() as usize;
                        if end > env.smem.len() {
                            return Err(fail(format!(
                                "lane {lane}: shared load at {a:#x} past smem size {:#x}",
                                env.smem.len()
                            )));
                        }
                        for i in 0..width.regs() {
                            let off = a as usize + i as usize * 4;
                            let v = u32::from_le_bytes(env.smem[off..off + 4].try_into().unwrap());
                            write_reg(warp, d.offset(i), lane, v);
                        }
                    }
                }
            }
        }
        Op::St {
            space,
            width,
            addr,
            src,
        } => {
            trace.width = width.bytes();
            trace.is_store = true;
            match space {
                MemSpace::Global => {
                    for lane in lanes(exec_mask) {
                        let lo = read_reg(warp, addr.base, lane) as u64;
                        let hi = read_reg(warp, addr.base.offset(1), lane) as u64;
                        let a = (lo | (hi << 32)).wrapping_add(addr.offset as i64 as u64);
                        trace.global_addrs.push(a);
                        let mut buf = [0u8; 16];
                        for i in 0..width.regs() {
                            buf[i as usize * 4..i as usize * 4 + 4].copy_from_slice(
                                &read_reg(warp, src.offset(i), lane).to_le_bytes(),
                            );
                        }
                        env.global
                            .write(a, &buf[..width.bytes() as usize])
                            .map_err(|e| fail(format!("lane {lane}: {e}")))?;
                    }
                }
                MemSpace::Shared => {
                    for lane in lanes(exec_mask) {
                        let a = read_reg(warp, addr.base, lane).wrapping_add(addr.offset as u32);
                        trace.shared_addrs.push(a);
                        let end = a as usize + width.bytes() as usize;
                        if end > env.smem.len() {
                            return Err(fail(format!(
                                "lane {lane}: shared store at {a:#x} past smem size {:#x}",
                                env.smem.len()
                            )));
                        }
                        for i in 0..width.regs() {
                            let off = a as usize + i as usize * 4;
                            env.smem[off..off + 4].copy_from_slice(
                                &read_reg(warp, src.offset(i), lane).to_le_bytes(),
                            );
                        }
                    }
                }
            }
        }
        Op::Nop => {}
        Op::Exit | Op::Bra { .. } | Op::BarSync => unreachable!("handled above"),
    }

    advance_ctx(warp, pc);
    Ok(StepEvent::Executed)
}

mod differential {
    use super::*;
    use crate::decode::decode_insts;
    use crate::memory::{ConstBank, GlobalMemory};
    use sass::reg::{PT, RZ};
    use tensor::XorShiftRng;

    /// The workspace's seeded generator with the draws the generators
    /// below need.
    struct Rng(XorShiftRng);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0.next_u64()
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
        fn chance(&mut self, num: u64, den: u64) -> bool {
            self.below(den) < num
        }
        fn u32(&mut self) -> u32 {
            (self.next() >> 32) as u32
        }
    }

    /// Registers of the random warps. R12:R13 hold a global pointer and R14
    /// a shared offset per lane; random ops may overwrite them.
    const NUM_REGS: u16 = 16;
    const ARENA: u64 = 0x1000_0000;
    const ARENA_BYTES: usize = 8192;
    const SMEM_BYTES: usize = 4096;

    fn reg(rng: &mut Rng) -> Reg {
        if rng.chance(1, 8) {
            RZ
        } else {
            Reg(rng.below(NUM_REGS as u64) as u8)
        }
    }

    /// First register of a `n`-register vector operand that fits the file.
    fn vreg(rng: &mut Rng, n: u8) -> Reg {
        if rng.chance(1, 8) {
            RZ
        } else {
            Reg(rng.below(NUM_REGS as u64 - n as u64 + 1) as u8)
        }
    }

    fn pred(rng: &mut Rng) -> Pred {
        if rng.chance(1, 4) {
            PT
        } else {
            Pred(rng.below(7) as u8)
        }
    }

    fn psrc(rng: &mut Rng) -> PredSrc {
        PredSrc {
            pred: pred(rng),
            neg: rng.chance(1, 2),
        }
    }

    fn srcb(rng: &mut Rng) -> SrcB {
        match rng.below(4) {
            0 | 1 => SrcB::Reg(reg(rng)),
            2 => SrcB::Imm(rng.u32()),
            // Parameters, launch dims and past-the-end (reads zero).
            _ => SrcB::Const(rng.below(0x1c0) as u16),
        }
    }

    fn width(rng: &mut Rng) -> MemWidth {
        [MemWidth::B32, MemWidth::B64, MemWidth::B128][rng.below(3) as usize]
    }

    fn cmp(rng: &mut Rng) -> CmpOp {
        [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ][rng.below(6) as usize]
    }

    fn b(rng: &mut Rng) -> bool {
        rng.chance(1, 2)
    }

    /// A memory operand: usually the prepared base register with a small
    /// offset, sometimes a large offset or an arbitrary base (faults).
    fn addr(rng: &mut Rng, space: MemSpace) -> Addr {
        let base = match (rng.chance(1, 8), space) {
            (true, MemSpace::Global) => vreg(rng, 2),
            (true, MemSpace::Shared) => reg(rng),
            (false, MemSpace::Global) => Reg(12),
            (false, MemSpace::Shared) => Reg(14),
        };
        let offset = if rng.chance(1, 8) {
            rng.below(1 << 16) as i32 - (1 << 15)
        } else {
            rng.below(64) as i32 * 4 - 32
        };
        Addr { base, offset }
    }

    fn op(rng: &mut Rng, len: u32) -> Op {
        match rng.below(27) {
            0..=2 => Op::Ffma {
                d: reg(rng),
                a: reg(rng),
                b: srcb(rng),
                c: reg(rng),
                neg_b: b(rng),
                neg_c: b(rng),
            },
            3 => Op::Fadd {
                d: reg(rng),
                a: reg(rng),
                neg_a: b(rng),
                b: srcb(rng),
                neg_b: b(rng),
            },
            4 => Op::Fmul {
                d: reg(rng),
                a: reg(rng),
                b: srcb(rng),
                neg_b: b(rng),
            },
            5 => Op::Hfma2 {
                d: reg(rng),
                a: reg(rng),
                b: srcb(rng),
                c: reg(rng),
            },
            6 => Op::Hadd2 {
                d: reg(rng),
                a: reg(rng),
                neg_a: b(rng),
                b: srcb(rng),
                neg_b: b(rng),
            },
            7 => Op::Hmul2 {
                d: reg(rng),
                a: reg(rng),
                b: srcb(rng),
            },
            8 => Op::Fsetp {
                p: pred(rng),
                cmp: cmp(rng),
                a: reg(rng),
                b: srcb(rng),
                combine: psrc(rng),
            },
            9 => Op::Iadd3 {
                d: reg(rng),
                a: reg(rng),
                neg_a: b(rng),
                b: srcb(rng),
                neg_b: b(rng),
                c: reg(rng),
                neg_c: b(rng),
            },
            10 => Op::Imad {
                d: reg(rng),
                a: reg(rng),
                b: srcb(rng),
                c: reg(rng),
            },
            11 => Op::ImadHi {
                d: reg(rng),
                a: reg(rng),
                b: srcb(rng),
                c: reg(rng),
            },
            12 => Op::ImadWide {
                d: vreg(rng, 2),
                a: reg(rng),
                b: srcb(rng),
                c: vreg(rng, 2),
            },
            13 => Op::Lea {
                d: reg(rng),
                a: reg(rng),
                b: srcb(rng),
                shift: rng.below(40) as u8,
            },
            14 => Op::Lop3 {
                d: reg(rng),
                a: reg(rng),
                b: srcb(rng),
                c: reg(rng),
                lut: rng.below(256) as u8,
            },
            15 => Op::Shf {
                d: reg(rng),
                lo: reg(rng),
                shift: srcb(rng),
                hi: reg(rng),
                right: b(rng),
                u32_mode: b(rng),
            },
            16 => Op::Mov {
                d: reg(rng),
                b: srcb(rng),
            },
            17 => Op::Sel {
                d: reg(rng),
                a: reg(rng),
                b: srcb(rng),
                p: psrc(rng),
            },
            18 => Op::Isetp {
                p: pred(rng),
                cmp: cmp(rng),
                u32: b(rng),
                a: reg(rng),
                b: srcb(rng),
                combine: psrc(rng),
            },
            19 => Op::P2r {
                d: reg(rng),
                a: reg(rng),
                mask: rng.u32(),
            },
            20 => Op::R2p {
                a: reg(rng),
                mask: rng.u32(),
            },
            21 => Op::S2r {
                d: reg(rng),
                sr: SpecialReg::ALL[rng.below(8) as usize],
            },
            22 | 23 => {
                let (space, width) = (space(rng), width(rng));
                Op::Ld {
                    space,
                    width,
                    d: vreg(rng, width.regs()),
                    addr: addr(rng, space),
                }
            }
            24 | 25 => {
                let (space, width) = (space(rng), width(rng));
                Op::St {
                    space,
                    width,
                    addr: addr(rng, space),
                    src: vreg(rng, width.regs()),
                }
            }
            _ => match rng.below(4) {
                // Forward and backward branches, past the end included.
                0 | 1 => Op::Bra {
                    target: rng.below(len as u64 + 2) as u32,
                },
                2 => Op::BarSync,
                _ => Op::Nop,
            },
        }
    }

    fn space(rng: &mut Rng) -> MemSpace {
        if b(rng) {
            MemSpace::Global
        } else {
            MemSpace::Shared
        }
    }

    fn program(rng: &mut Rng) -> Vec<Instruction> {
        let len = 4 + rng.below(16) as u32;
        let mut insts: Vec<Instruction> = (0..len)
            .map(|_| {
                let guard = match rng.below(4) {
                    0 | 1 => PredGuard::always(),
                    2 => PredGuard::on(pred(rng)),
                    _ => PredGuard::on_not(pred(rng)),
                };
                let exit = rng.chance(1, 16);
                let op = if exit { Op::Exit } else { op(rng, len) };
                Instruction::new(op).with_guard(guard)
            })
            .collect();
        insts.push(Instruction::new(Op::Exit));
        insts
    }

    /// A warp with random registers and predicates, the prepared address
    /// registers, and a full, partial or divergent set of contexts.
    fn warp(rng: &mut Rng, len: u32) -> Warp {
        let mut w = Warp::new(NUM_REGS, 32, 32);
        for row in w.regs.iter_mut().take(NUM_REGS as usize) {
            for v in row.iter_mut() {
                *v = match rng.below(4) {
                    0 => rng.u32() & 0xff,
                    1 => (rng.below(2000) as f32 / 16.0 - 60.0).to_bits(),
                    _ => rng.u32(),
                };
            }
        }
        for row in w.preds.iter_mut() {
            let bits = rng.u32();
            for (lane, p) in row.iter_mut().enumerate() {
                *p = bits & (1 << lane) != 0;
            }
        }
        // Global pointer pair: ascending lanes at a random stride, so high
        // lanes of a wide stride (or a random start) run off the arena.
        let stride = [0u64, 4, 8, 16, 32, 64][rng.below(6) as usize];
        let start = match rng.below(8) {
            0 => u64::MAX - 64,
            1 => rng.next(),
            _ => ARENA + rng.below(ARENA_BYTES as u64 / 2),
        };
        let sstride = [0u32, 4, 8, 16, 32, 36][rng.below(6) as usize];
        let sstart = rng.below(SMEM_BYTES as u64 / 2) as u32;
        for lane in 0..32 {
            let a = start.wrapping_add(stride * lane as u64);
            w.regs[12][lane] = a as u32;
            w.regs[13][lane] = (a >> 32) as u32;
            w.regs[14][lane] = sstart + sstride * lane as u32;
        }
        w.ctxs = match rng.below(4) {
            0 => vec![WarpCtx {
                mask: rng.u32() | 1,
                pc: 0,
            }],
            1 => {
                let m = rng.u32();
                let m = if m == 0 || m == u32::MAX { 0xffff } else { m };
                vec![
                    WarpCtx { mask: m, pc: 0 },
                    WarpCtx {
                        mask: !m,
                        pc: rng.below(len as u64) as u32,
                    },
                ]
            }
            _ => vec![WarpCtx {
                mask: u32::MAX,
                pc: 0,
            }],
        };
        w
    }

    /// Equal warp state: the architectural registers and the zero row (the
    /// sink row holds whatever `RZ` destinations wrote), predicates,
    /// contexts and the exit flag.
    fn same_state(a: &Warp, b: &Warp) -> bool {
        let rows = NUM_REGS as usize + 1;
        a.regs[..rows] == b.regs[..rows]
            && a.preds == b.preds
            && a.ctxs == b.ctxs
            && a.exited == b.exited
    }

    /// True if the register files differ only in lanes where both hold a
    /// NaN. IEEE 754 leaves the payload of an operation on two NaNs open and
    /// Rust lets the compiler pick which operand's NaN propagates, so a
    /// vectorized row and a scalar lane may legitimately disagree there.
    fn nan_payloads_differ(got: &Warp, want: &Warp) -> bool {
        let words = |w: &Warp| w.regs[..NUM_REGS as usize].concat();
        let (g, w) = (words(got), words(want));
        g != w
            && g.iter()
                .zip(&w)
                .all(|(&g, &w)| g == w || (f(g).is_nan() && f(w).is_nan()))
    }

    #[test]
    fn micro_ops_match_the_per_lane_oracle() {
        let mut rng = Rng(XorShiftRng::new(0x5eed_d1ff));
        // Steps, faulting cases, memory steps that completed / faulted,
        // cases cut short by a NaN-payload difference.
        let mut stats = [0usize; 5];
        for case in 0..6000 {
            let insts = program(&mut rng);
            let table = decode_insts(&insts, None, NUM_REGS);
            let params: Vec<u8> = (0..64).map(|_| rng.below(256) as u8).collect();
            let cbank = ConstBank::new([64, 2, 1], [3, 2, 2], &params);
            let ctaid = [rng.below(3) as u32, rng.below(2) as u32, 1];
            let mut want_w = warp(&mut rng, insts.len() as u32);
            let mut got_w = want_w.clone();
            let mut want_g = GlobalMemory::new(ARENA_BYTES);
            want_g.alloc(ARENA_BYTES as u64);
            let init: Vec<f32> = (0..ARENA_BYTES / 4).map(|_| f(rng.u32())).collect();
            want_g.upload_f32(ARENA, &init).unwrap();
            let mut got_g = GlobalMemory::new(ARENA_BYTES);
            got_g.alloc(ARENA_BYTES as u64);
            got_g.upload_f32(ARENA, &init).unwrap();
            let mut want_s: Vec<u8> = (0..SMEM_BYTES).map(|_| rng.below(256) as u8).collect();
            let mut got_s = want_s.clone();
            let (mut want_t, mut got_t) = (MemTrace::default(), MemTrace::default());
            for step_no in 0..48 {
                let pc = want_w.current_ctx().map(|c| c.pc);
                let want = {
                    let mut env = ExecEnv {
                        global: &mut want_g,
                        smem: &mut want_s,
                        cbank: &cbank,
                        ctaid,
                        block_dim: [64, 2, 1],
                    };
                    step(&mut want_w, &insts, &mut env, 1, &mut want_t)
                };
                let got = {
                    let mut env = ExecEnv {
                        global: &mut got_g,
                        smem: &mut got_s,
                        cbank: &cbank,
                        ctaid,
                        block_dim: [64, 2, 1],
                    };
                    super::super::step_into(&mut got_w, &table, &insts, &mut env, 1, &mut got_t)
                };
                let ctx = || {
                    let text: Vec<String> = insts.iter().map(sass::disasm::inst_text).collect();
                    format!("case {case} step {step_no}, pc {pc:?}\n{}", text.join("\n"))
                };
                stats[0] += 1;
                if !want_t.global_addrs.is_empty() || !want_t.shared_addrs.is_empty() {
                    stats[2 + want.is_err() as usize] += 1;
                }
                if nan_payloads_differ(&got_w, &want_w) {
                    // Later steps may turn the payload bits into addresses
                    // or integers; the case has nothing more to compare.
                    stats[4] += 1;
                    break;
                }
                assert!(same_state(&got_w, &want_w), "warp state: {}", ctx());
                let arena = |g: &GlobalMemory| g.read(ARENA, ARENA_BYTES).unwrap().to_vec();
                assert!(arena(&got_g) == arena(&want_g), "global memory: {}", ctx());
                assert!(got_s == want_s, "shared memory: {}", ctx());
                assert_eq!(got_t, want_t, "trace: {}", ctx());
                match (got, want) {
                    (Ok(g), Ok(w)) => {
                        assert_eq!(g, w, "event: {}", ctx());
                        if w == StepEvent::Exited {
                            break;
                        }
                    }
                    (Err(g), Err(w)) => {
                        assert_eq!(
                            (g.ctaid, g.warp, g.pc, &g.inst, &g.msg),
                            (w.ctaid, w.warp, w.pc, &w.inst, &w.msg),
                            "error: {}",
                            ctx()
                        );
                        stats[1] += 1;
                        break;
                    }
                    (g, w) => panic!("outcome {g:?} vs {w:?}: {}", ctx()),
                }
            }
        }
        // The generator must actually reach the interesting paths.
        let [steps, faults, mem_ok, mem_fault, nan_cut] = stats;
        assert!(steps > 40_000, "{steps} steps");
        assert!(faults > 1_000, "{faults} faulting cases");
        assert!(mem_ok > 3_000, "{mem_ok} completed memory steps");
        assert!(mem_fault > 300, "{mem_fault} faulting memory steps");
        assert!(nan_cut < 60, "{nan_cut} cases cut short by NaN payloads");
    }
}
