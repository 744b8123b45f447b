//! The micro-op table: one decoded form per PC, for functional execution
//! and timing alike.
//!
//! Every consumer of an instruction stream — the functional launchers
//! ([`crate::launch`]), the cycle-level wave loop ([`crate::timing`]), the
//! full-device model ([`crate::device_sim`]) and the tuner's batch timer
//! ([`crate::batch`]) — steps through the same flat [`MicroOp`] table, built
//! once per launch by [`decode_module`]. Nothing downstream pattern-matches
//! [`Op`], evaluates `@PT` or tests for `RZ` again. A micro-op carries:
//!
//! * **what it does** ([`Exec`]): register operands resolved to rows of the
//!   warp's register file — an `RZ` source names the file's zero row and an
//!   `RZ` destination its sink row (see [`crate::exec::Warp`]), so no lane
//!   loop tests for `RZ`; vector operands expanded to one row per register;
//!   immediates, const-bank offsets, memory offsets and branch targets as
//!   plain operands; the guard and predicate sources with `PT` folded to a
//!   constant ([`PredRead`]);
//! * **how the timing model sees it**: pipe class and FLOP count, the
//!   control-code fields the scheduler consults every cycle (`wait_mask`,
//!   stall count, yield/reuse flags, read/write barriers), the source
//!   occurrences of `Op::src_regs()` as a fixed array (reuse accounting,
//!   strict-writeback poison checks, reuse-cache latching) and the distinct
//!   source registers with their per-bank counts for the conflict test — the
//!   micro-op knows statically whether a conflict is even possible (fewer
//!   than three distinct same-parity sources can never conflict, since the
//!   reuse cache only ever removes bank reads) and otherwise resolves it by
//!   discounting reuse-covered registers.
//!
//! The table is built per launch and per tuner candidate, so the micro-op
//! is kept compact: narrow integer fields, no copy of the instruction.
//!
//! Everything here is observationally identical to the direct computation on
//! [`Instruction`]: `gpusim/tests/{exec,hotloop,device}_identity.rs` pin the
//! end-to-end contract, the executor's differential test (`exec/oracle.rs`)
//! pins execution against the per-lane interpreter it replaced, and the unit
//! tests below pin the per-field equivalences.

use sass::isa::{CmpOp, Instruction, MemSpace, Op, PredGuard, PredSrc, SpecialReg, SrcB};
use sass::reg::{Pred, Reg};
use sass::Module;

/// Classification for pipe assignment.
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
pub(crate) enum PipeKind {
    Fp32,
    Int,
    Mio,
    Ctrl,
    None,
}

/// Memory-space classification of an MIO instruction.
#[derive(PartialEq, Eq, Clone, Copy, Debug)]
pub(crate) enum MemKind {
    NotMem,
    Shared,
    Global,
}

/// Upper bound on `Op::src_regs()` occurrences (STG.E.128 to global memory:
/// a 64-bit base pair in slot 0 plus four data registers in slot 2).
pub(crate) const MAX_SRCS: usize = 6;

/// Index of a row in a warp's register file (`Warp::regs`).
pub(crate) type Row = u16;

/// The flexible B operand with its register resolved to a row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SrcRow {
    Row(Row),
    Imm(u32),
    /// Byte offset into constant bank 0.
    Const(u16),
}

/// A predicate read — a guard or a predicate source operand — with `PT`
/// folded to a constant: the value per lane is `preds[p][lane] != neg`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum PredRead {
    Const(bool),
    Lane { p: u8, neg: bool },
}

impl PredRead {
    fn of(pred: Pred, neg: bool) -> PredRead {
        if pred.is_pt() {
            PredRead::Const(!neg)
        } else {
            PredRead::Lane { p: pred.0, neg }
        }
    }

    fn guard(g: PredGuard) -> PredRead {
        PredRead::of(g.pred, g.neg)
    }

    fn src(s: PredSrc) -> PredRead {
        PredRead::of(s.pred, s.neg)
    }
}

/// A load or store with its operands resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct MemOp {
    pub store: bool,
    pub space: MemSpace,
    /// 32-bit registers moved per lane: 1, 2 or 4.
    pub nregs: u8,
    /// Data rows, one per register moved: the destinations of a load, the
    /// sources of a store.
    pub data: [Row; 4],
    /// Address rows `[lo, hi]`; shared accesses use `lo` only.
    pub addr: [Row; 2],
    /// Signed byte offset added to the base address.
    pub offset: i32,
}

/// What executing an instruction does, with every operand resolved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Exec {
    Ffma {
        d: Row,
        a: Row,
        b: SrcRow,
        c: Row,
        neg_b: bool,
        neg_c: bool,
    },
    Fadd {
        d: Row,
        a: Row,
        neg_a: bool,
        b: SrcRow,
        neg_b: bool,
    },
    Fmul {
        d: Row,
        a: Row,
        b: SrcRow,
        neg_b: bool,
    },
    Hfma2 {
        d: Row,
        a: Row,
        b: SrcRow,
        c: Row,
    },
    Hadd2 {
        d: Row,
        a: Row,
        neg_a: bool,
        b: SrcRow,
        neg_b: bool,
    },
    Hmul2 {
        d: Row,
        a: Row,
        b: SrcRow,
    },
    /// `p` is `None` for a `PT` destination (the result is discarded).
    Fsetp {
        p: Option<u8>,
        cmp: CmpOp,
        a: Row,
        b: SrcRow,
        combine: PredRead,
    },
    Iadd3 {
        d: Row,
        a: Row,
        neg_a: bool,
        b: SrcRow,
        neg_b: bool,
        c: Row,
        neg_c: bool,
    },
    Imad {
        d: Row,
        a: Row,
        b: SrcRow,
        c: Row,
    },
    ImadHi {
        d: Row,
        a: Row,
        b: SrcRow,
        c: Row,
    },
    /// 64-bit result into `d[0]` (low word) then `d[1]` (high word); the
    /// 64-bit addend is `(c[0], c[1])`.
    ImadWide {
        d: [Row; 2],
        a: Row,
        b: SrcRow,
        c: [Row; 2],
    },
    Lea {
        d: Row,
        a: Row,
        b: SrcRow,
        shift: u8,
    },
    Lop3 {
        d: Row,
        a: Row,
        b: SrcRow,
        c: Row,
        lut: u8,
    },
    Shf {
        d: Row,
        lo: Row,
        shift: SrcRow,
        hi: Row,
        right: bool,
        u32_mode: bool,
    },
    Mov {
        d: Row,
        b: SrcRow,
    },
    Sel {
        d: Row,
        a: Row,
        b: SrcRow,
        p: PredRead,
    },
    Isetp {
        p: Option<u8>,
        cmp: CmpOp,
        unsigned: bool,
        a: Row,
        b: SrcRow,
        combine: PredRead,
    },
    P2r {
        d: Row,
        a: Row,
        mask: u32,
    },
    R2p {
        a: Row,
        mask: u32,
    },
    S2r {
        d: Row,
        sr: SpecialReg,
    },
    Mem(MemOp),
    Bra {
        target: u32,
    },
    Exit,
    BarSync,
    Nop,
    /// An operand names a register outside the kernel's register file (a
    /// module whose declared `num_regs` undercounts its code): executing it
    /// is an error rather than an out-of-bounds panic.
    BadReg(Reg),
}

/// Flat per-PC micro-op: everything execution and the timing loop need
/// about an instruction without touching [`Op`] again.
#[derive(Clone)]
pub(crate) struct MicroOp {
    pub exec: Exec,
    pub guard: PredRead,
    pub pipe: PipeKind,
    pub mem: MemKind,
    /// FP32 FLOPs of the whole warp (per-lane FLOPs × 32).
    pub flops_x32: u16,
    /// Issue-to-next-issue stall from the control code, floored at 1.
    pub stall_cycles: u8,
    pub yield_flag: bool,
    pub reuse: u8,
    pub wait_mask: u8,
    pub write_bar: Option<u8>,
    pub read_bar: Option<u8>,
    /// PC inside the accounting region of this launch.
    pub in_region: bool,
    /// `(first dst reg, reg count)` of a load that participates in strict
    /// writeback (an `Op::Ld` with a real destination and a write barrier).
    pub strict_ld: Option<(u8, u8)>,
    /// `Op::src_regs()` occurrences, in order (RZ already excluded).
    srcs: [(u8, Reg); MAX_SRCS],
    nsrcs: u8,
    /// First source occurrence per operand slot — what `.reuse` latches.
    pub reuse_latch: [Option<Reg>; 4],
    /// Distinct source registers with the slot-mask of where they appear.
    uniq: [(Reg, u8); MAX_SRCS],
    nuniq: u8,
    /// Distinct source registers by index parity (the two 64-bit banks).
    /// Three distinct same-parity reads stall the FP32 pipe one extra cycle.
    even: u8,
    odd: u8,
    /// Static screen: with fewer than three distinct sources in either bank
    /// the access can never conflict, whatever the reuse cache holds.
    maybe_conflict: bool,
}

fn pipe_of(op: &Op) -> PipeKind {
    match op {
        Op::Ffma { .. }
        | Op::Fadd { .. }
        | Op::Fmul { .. }
        | Op::Fsetp { .. }
        | Op::Hfma2 { .. }
        | Op::Hadd2 { .. }
        | Op::Hmul2 { .. } => PipeKind::Fp32,
        Op::Iadd3 { .. }
        | Op::Imad { .. }
        | Op::ImadHi { .. }
        | Op::ImadWide { .. }
        | Op::Lea { .. }
        | Op::Lop3 { .. }
        | Op::Shf { .. }
        | Op::Mov { .. }
        | Op::Sel { .. }
        | Op::Isetp { .. }
        | Op::P2r { .. }
        | Op::R2p { .. }
        | Op::S2r { .. } => PipeKind::Int,
        Op::Ld { .. } | Op::St { .. } => PipeKind::Mio,
        Op::Bra { .. } | Op::Exit | Op::BarSync => PipeKind::Ctrl,
        Op::Nop => PipeKind::None,
    }
}

/// FP32 FLOPs per lane for an op.
fn flops_of(op: &Op) -> u16 {
    match op {
        Op::Ffma { .. } => 2,
        Op::Fadd { .. } | Op::Fmul { .. } => 1,
        // Paired fp16 ops do two element-operations per lane (§8.3's 2×).
        Op::Hfma2 { .. } => 4,
        Op::Hadd2 { .. } | Op::Hmul2 { .. } => 2,
        _ => 0,
    }
}

fn strict_ld_of(inst: &Instruction) -> Option<(u8, u8)> {
    match inst.op {
        Op::Ld { d, width, .. } if !d.is_rz() && inst.ctrl.write_bar.is_some() => {
            Some((d.0, width.regs()))
        }
        _ => None,
    }
}

/// Rows of a register file of `num_regs` architectural registers: `RZ`
/// reads the zero row and writes the sink row that follow them.
struct Rows {
    num_regs: u16,
}

impl Rows {
    fn src(&self, r: Reg) -> Result<Row, Reg> {
        match r {
            r if r.is_rz() => Ok(self.num_regs),
            r if (r.0 as u16) < self.num_regs => Ok(r.0 as Row),
            r => Err(r),
        }
    }

    fn dst(&self, r: Reg) -> Result<Row, Reg> {
        match r {
            r if r.is_rz() => Ok(self.num_regs + 1),
            r => self.src(r),
        }
    }

    fn b(&self, b: SrcB) -> Result<SrcRow, Reg> {
        Ok(match b {
            SrcB::Reg(r) => SrcRow::Row(self.src(r)?),
            SrcB::Imm(v) => SrcRow::Imm(v),
            SrcB::Const(off) => SrcRow::Const(off),
        })
    }

    /// Address rows: a 64-bit pair for global memory, one register (the
    /// `hi` slot repeats it, unused) for shared memory.
    fn addr(&self, base: Reg, space: MemSpace) -> Result<[Row; 2], Reg> {
        match space {
            MemSpace::Global => self.vec(base, 2, false),
            MemSpace::Shared => Ok([self.src(base)?; 2]),
        }
    }

    /// `n` consecutive registers from `r` (saturating like `Reg::offset`).
    fn vec<const N: usize>(&self, r: Reg, n: u8, dst: bool) -> Result<[Row; N], Reg> {
        let mut rows = [0; N];
        for (i, row) in rows.iter_mut().enumerate().take(n as usize) {
            let ri = r.offset(i as u8);
            *row = if dst { self.dst(ri)? } else { self.src(ri)? };
        }
        Ok(rows)
    }
}

/// Resolve `op`'s operands against a file of `num_regs` registers.
fn exec_of(op: &Op, num_regs: u16) -> Result<Exec, Reg> {
    let r = Rows { num_regs };
    let pred_dst = |p: Pred| (!p.is_pt()).then_some(p.0);
    Ok(match *op {
        Op::Ffma {
            d,
            a,
            b,
            c,
            neg_b,
            neg_c,
        } => Exec::Ffma {
            d: r.dst(d)?,
            a: r.src(a)?,
            b: r.b(b)?,
            c: r.src(c)?,
            neg_b,
            neg_c,
        },
        Op::Fadd {
            d,
            a,
            neg_a,
            b,
            neg_b,
        } => Exec::Fadd {
            d: r.dst(d)?,
            a: r.src(a)?,
            neg_a,
            b: r.b(b)?,
            neg_b,
        },
        Op::Fmul { d, a, b, neg_b } => Exec::Fmul {
            d: r.dst(d)?,
            a: r.src(a)?,
            b: r.b(b)?,
            neg_b,
        },
        Op::Hfma2 { d, a, b, c } => Exec::Hfma2 {
            d: r.dst(d)?,
            a: r.src(a)?,
            b: r.b(b)?,
            c: r.src(c)?,
        },
        Op::Hadd2 {
            d,
            a,
            neg_a,
            b,
            neg_b,
        } => Exec::Hadd2 {
            d: r.dst(d)?,
            a: r.src(a)?,
            neg_a,
            b: r.b(b)?,
            neg_b,
        },
        Op::Hmul2 { d, a, b } => Exec::Hmul2 {
            d: r.dst(d)?,
            a: r.src(a)?,
            b: r.b(b)?,
        },
        Op::Fsetp {
            p,
            cmp,
            a,
            b,
            combine,
        } => Exec::Fsetp {
            p: pred_dst(p),
            cmp,
            a: r.src(a)?,
            b: r.b(b)?,
            combine: PredRead::src(combine),
        },
        Op::Iadd3 {
            d,
            a,
            neg_a,
            b,
            neg_b,
            c,
            neg_c,
        } => Exec::Iadd3 {
            d: r.dst(d)?,
            a: r.src(a)?,
            neg_a,
            b: r.b(b)?,
            neg_b,
            c: r.src(c)?,
            neg_c,
        },
        Op::Imad { d, a, b, c } => Exec::Imad {
            d: r.dst(d)?,
            a: r.src(a)?,
            b: r.b(b)?,
            c: r.src(c)?,
        },
        Op::ImadHi { d, a, b, c } => Exec::ImadHi {
            d: r.dst(d)?,
            a: r.src(a)?,
            b: r.b(b)?,
            c: r.src(c)?,
        },
        Op::ImadWide { d, a, b, c } => Exec::ImadWide {
            d: r.vec(d, 2, true)?,
            a: r.src(a)?,
            b: r.b(b)?,
            c: r.vec(c, 2, false)?,
        },
        Op::Lea { d, a, b, shift } => Exec::Lea {
            d: r.dst(d)?,
            a: r.src(a)?,
            b: r.b(b)?,
            shift,
        },
        Op::Lop3 { d, a, b, c, lut } => Exec::Lop3 {
            d: r.dst(d)?,
            a: r.src(a)?,
            b: r.b(b)?,
            c: r.src(c)?,
            lut,
        },
        Op::Shf {
            d,
            lo,
            shift,
            hi,
            right,
            u32_mode,
        } => Exec::Shf {
            d: r.dst(d)?,
            lo: r.src(lo)?,
            shift: r.b(shift)?,
            hi: r.src(hi)?,
            right,
            u32_mode,
        },
        Op::Mov { d, b } => Exec::Mov {
            d: r.dst(d)?,
            b: r.b(b)?,
        },
        Op::Sel { d, a, b, p } => Exec::Sel {
            d: r.dst(d)?,
            a: r.src(a)?,
            b: r.b(b)?,
            p: PredRead::src(p),
        },
        Op::Isetp {
            p,
            cmp,
            u32,
            a,
            b,
            combine,
        } => Exec::Isetp {
            p: pred_dst(p),
            cmp,
            unsigned: u32,
            a: r.src(a)?,
            b: r.b(b)?,
            combine: PredRead::src(combine),
        },
        Op::P2r { d, a, mask } => Exec::P2r {
            d: r.dst(d)?,
            a: r.src(a)?,
            mask,
        },
        Op::R2p { a, mask } => Exec::R2p { a: r.src(a)?, mask },
        Op::S2r { d, sr } => Exec::S2r { d: r.dst(d)?, sr },
        Op::Ld {
            space,
            width,
            d,
            addr,
        } => Exec::Mem(MemOp {
            store: false,
            space,
            nregs: width.regs(),
            data: r.vec(d, width.regs(), true)?,
            addr: r.addr(addr.base, space)?,
            offset: addr.offset,
        }),
        Op::St {
            space,
            width,
            addr,
            src,
        } => Exec::Mem(MemOp {
            store: true,
            space,
            nregs: width.regs(),
            data: r.vec(src, width.regs(), false)?,
            addr: r.addr(addr.base, space)?,
            offset: addr.offset,
        }),
        Op::Bra { target } => Exec::Bra { target },
        Op::Exit => Exec::Exit,
        Op::BarSync => Exec::BarSync,
        Op::Nop => Exec::Nop,
    })
}

impl MicroOp {
    pub fn decode(inst: &Instruction, pc: u32, region: Option<(u32, u32)>, num_regs: u16) -> Self {
        let op = &inst.op;
        let occurrences = op.src_regs();
        assert!(
            occurrences.len() <= MAX_SRCS,
            "instruction has {} source occurrences (descriptor cap {MAX_SRCS})",
            occurrences.len()
        );
        let mut srcs = [(0u8, Reg(0)); MAX_SRCS];
        let mut reuse_latch = [None; 4];
        let mut uniq: [(Reg, u8); MAX_SRCS] = [(Reg(0), 0); MAX_SRCS];
        let mut nuniq = 0usize;
        let (mut even, mut odd) = (0u8, 0u8);
        for (i, &(slot, r)) in occurrences.iter().enumerate() {
            srcs[i] = (slot, r);
            let latch = &mut reuse_latch[slot as usize];
            if latch.is_none() {
                *latch = Some(r);
            }
            match uniq[..nuniq].iter_mut().find(|(u, _)| *u == r) {
                Some((_, slots)) => *slots |= 1 << slot,
                None => {
                    uniq[nuniq] = (r, 1 << slot);
                    nuniq += 1;
                    if r.0 & 1 == 0 {
                        even += 1;
                    } else {
                        odd += 1;
                    }
                }
            }
        }
        let mem = match op {
            Op::Ld { space, .. } | Op::St { space, .. } => match space {
                MemSpace::Shared => MemKind::Shared,
                MemSpace::Global => MemKind::Global,
            },
            _ => MemKind::NotMem,
        };
        MicroOp {
            exec: exec_of(op, num_regs).unwrap_or_else(Exec::BadReg),
            guard: PredRead::guard(inst.guard),
            pipe: pipe_of(op),
            mem,
            flops_x32: flops_of(op) * 32,
            stall_cycles: inst.ctrl.stall.max(1),
            yield_flag: inst.ctrl.yield_flag,
            reuse: inst.ctrl.reuse,
            wait_mask: inst.ctrl.wait_mask,
            write_bar: inst.ctrl.write_bar,
            read_bar: inst.ctrl.read_bar,
            in_region: region.is_none_or(|(a, b)| pc >= a && pc < b),
            strict_ld: strict_ld_of(inst),
            srcs,
            nsrcs: occurrences.len() as u8,
            reuse_latch,
            uniq,
            nuniq: nuniq as u8,
            even,
            odd,
            maybe_conflict: even >= 3 || odd >= 3,
        }
    }

    /// Source occurrences in `Op::src_regs()` order (RZ never appears).
    #[inline]
    pub fn srcs(&self) -> &[(u8, Reg)] {
        &self.srcs[..self.nsrcs as usize]
    }

    /// Refresh the control-code-derived fields from `inst` without redoing
    /// the operand analysis. This is the batch-evaluation fast path
    /// ([`crate::batch::BatchTimer`]): a schedule-tuner candidate differs
    /// from its baseline only in control codes and instruction order, so the
    /// op-derived fields (execution operands, pipe, FLOPs, source lists, bank
    /// counts) can be cloned from the baseline micro-op of the *same*
    /// instruction and only this part recomputed. `inst.op` and `inst.guard`
    /// must match the instruction this micro-op was decoded from.
    pub fn repatch_ctrl(&mut self, inst: &Instruction, pc: u32, region: Option<(u32, u32)>) {
        self.stall_cycles = inst.ctrl.stall.max(1);
        self.yield_flag = inst.ctrl.yield_flag;
        self.reuse = inst.ctrl.reuse;
        self.wait_mask = inst.ctrl.wait_mask;
        self.write_bar = inst.ctrl.write_bar;
        self.read_bar = inst.ctrl.read_bar;
        self.in_region = region.is_none_or(|(a, b)| pc >= a && pc < b);
        self.strict_ld = strict_ld_of(inst);
    }

    /// Extra FP32-pipe cycle from a register-bank conflict, given the warp's
    /// current reuse-cache state.
    ///
    /// Volta/Turing have two 64-bit banks (even/odd register index). Per the
    /// paper's footnote 6, an FFMA whose three source registers all fall in
    /// one bank occupies the pipe one extra cycle; operands served from the
    /// reuse cache don't touch the bank. A register reads its bank iff *some*
    /// slot naming it is not covered by the cache.
    #[inline]
    pub fn bank_conflict(&self, reuse_cache: &[Option<Reg>; 4]) -> bool {
        if !self.maybe_conflict {
            return false;
        }
        let (mut even, mut odd) = (self.even, self.odd);
        for &(r, slots) in &self.uniq[..self.nuniq as usize] {
            let mut banked = false;
            for sl in 0..4u8 {
                if slots & (1 << sl) != 0 && reuse_cache[sl as usize] != Some(r) {
                    banked = true;
                    break;
                }
            }
            if !banked {
                if r.0 & 1 == 0 {
                    even -= 1;
                } else {
                    odd -= 1;
                }
            }
        }
        even >= 3 || odd >= 3
    }
}

/// Architectural registers per thread of `module`'s warps (at least one, so
/// every file has a row to name).
pub(crate) fn num_regs_of(module: &Module) -> u16 {
    module.info.num_regs.max(1)
}

/// Build the micro-op table for a launch of `module`: one entry per PC,
/// with register rows resolved for warps of [`num_regs_of`] registers.
pub(crate) fn decode_module(module: &Module, region: Option<(u32, u32)>) -> Vec<MicroOp> {
    decode_insts(&module.insts, region, num_regs_of(module))
}

/// [`decode_module`] for a bare instruction stream and register-file size.
pub(crate) fn decode_insts(
    insts: &[Instruction],
    region: Option<(u32, u32)>,
    num_regs: u16,
) -> Vec<MicroOp> {
    insts
        .iter()
        .enumerate()
        .map(|(pc, inst)| MicroOp::decode(inst, pc as u32, region, num_regs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sass::assemble;

    /// The pre-descriptor implementation of the conflict test, kept as the
    /// reference the bitmask version must match for every reuse state.
    fn reference_conflict(inst: &Instruction, reuse_cache: &[Option<Reg>; 4]) -> bool {
        let mut even = Vec::new();
        let mut odd = Vec::new();
        for (slot, r) in inst.op.src_regs() {
            if r.is_rz() {
                continue;
            }
            if reuse_cache[slot as usize] == Some(r) {
                continue;
            }
            let v = if r.0 & 1 == 0 { &mut even } else { &mut odd };
            if !v.contains(&r) {
                v.push(r);
            }
        }
        even.len() >= 3 || odd.len() >= 3
    }

    fn sample_module() -> sass::Module {
        assemble(
            r#"
.kernel mix
.params 16
    --:-:-:Y:1  S2R R0, SR_TID.X;
    --:-:-:Y:6  MOV R10, c[0x0][0x160];
    --:-:-:Y:6  MOV R11, c[0x0][0x164];
    --:-:-:Y:1  FFMA R4, R2, R4, R6;
    --:-:-:Y:1  FFMA R5, R2, R4.reuse, R7;
    --:-:-:Y:1  FFMA R6, R3, R5, R9;
    --:-:-:Y:1  FADD R8, R2, R4;
    --:-:-:Y:6  IMAD.WIDE.U32 R2, R0, 0x10, R10;
    --:-:0:-:2  LDG.E.128 R4, [R2];
    --:-:-:Y:2  STG.E.128 [R2], R4;
    01:-:-:Y:4  IADD3 R12, R4, R5, R6;
    --:-:-:Y:5  EXIT;
"#,
        )
        .unwrap()
    }

    #[test]
    fn descriptor_matches_direct_computation() {
        let m = sample_module();
        let table = decode_module(&m, Some((3, 7)));
        for (pc, (inst, d)) in m.insts.iter().zip(&table).enumerate() {
            assert_eq!(d.flops_x32, flops_of(&inst.op) * 32, "pc {pc}");
            assert_eq!(d.stall_cycles, inst.ctrl.stall.max(1), "pc {pc}");
            assert_eq!(d.yield_flag, inst.ctrl.yield_flag, "pc {pc}");
            assert_eq!(d.wait_mask, inst.ctrl.wait_mask, "pc {pc}");
            assert_eq!(d.write_bar, inst.ctrl.write_bar, "pc {pc}");
            assert_eq!(d.read_bar, inst.ctrl.read_bar, "pc {pc}");
            assert_eq!(d.in_region, (3..7).contains(&(pc as u32)), "pc {pc}");
            assert_eq!(d.srcs(), inst.op.src_regs().as_slice(), "pc {pc}");
            for sl in 0..4u8 {
                let first = inst
                    .op
                    .src_regs()
                    .into_iter()
                    .find(|(s, _)| *s == sl)
                    .map(|(_, r)| r);
                assert_eq!(d.reuse_latch[sl as usize], first, "pc {pc} slot {sl}");
            }
        }
        // Pipe/mem classification spot checks.
        assert_eq!(table[0].pipe, PipeKind::Int); // S2R
        assert_eq!(table[3].pipe, PipeKind::Fp32); // FFMA
        assert_eq!(table[8].pipe, PipeKind::Mio); // LDG
        assert_eq!(table[8].mem, MemKind::Global);
        assert_eq!(table[11].pipe, PipeKind::Ctrl); // EXIT
                                                    // Strict-writeback eligibility: the LDG carries a write barrier and
                                                    // a real destination; the STG must not qualify.
        assert_eq!(table[8].strict_ld, Some((4, 4)));
        assert_eq!(table[9].strict_ld, None);
    }

    #[test]
    fn bank_conflict_matches_reference_for_all_reuse_states() {
        let m = sample_module();
        let table = decode_module(&m, None);
        // Enumerate reuse-cache states over the registers each instruction
        // actually names (plus None and an unrelated register).
        for (pc, (inst, d)) in m.insts.iter().zip(&table).enumerate() {
            let mut regs: Vec<Option<Reg>> = vec![None, Some(Reg(99))];
            regs.extend(inst.op.src_regs().iter().map(|&(_, r)| Some(r)));
            for &a in &regs {
                for &b in &regs {
                    for &c in &regs {
                        let cache = [a, b, c, None];
                        assert_eq!(
                            d.bank_conflict(&cache),
                            reference_conflict(inst, &cache),
                            "pc {pc} cache {cache:?}"
                        );
                    }
                }
            }
        }
    }

    /// Three distinct even sources conflict; the static screen filters a
    /// two-source op before any per-issue work.
    #[test]
    fn static_screen_and_masks() {
        let m = assemble(
            ".kernel t\n--:-:-:Y:1 FFMA R8, R2, R4, R6;\n--:-:-:Y:1 FADD R8, R2, R4;\nEXIT;\n",
        )
        .unwrap();
        let t = decode_module(&m, None);
        assert!(t[0].maybe_conflict);
        assert!(t[0].bank_conflict(&[None; 4]));
        // Covering one even source by reuse removes the conflict.
        assert!(!t[0].bank_conflict(&[Some(Reg(2)), None, None, None]));
        assert!(!t[1].maybe_conflict);
        assert!(!t[1].bank_conflict(&[None; 4]));
    }

    /// The table is built per launch and per tuner candidate (thousands of
    /// PCs for the fused kernel), so a micro-op must stay no larger than the
    /// timing-only descriptor it replaced.
    #[test]
    fn micro_op_stays_compact() {
        let size = std::mem::size_of::<MicroOp>();
        assert!(size <= 96, "MicroOp is {size} bytes");
    }

    /// Operands resolve to rows: `RZ` reads the zero row and writes the sink
    /// row, vector operands expand (saturating at R254 like `Reg::offset`),
    /// `PT` folds to a constant and an out-of-file register is flagged.
    #[test]
    fn operands_resolve_to_rows() {
        let m = assemble(
            r#"
.kernel rows
    --:-:-:Y:1  FFMA RZ, R2, RZ, R3;
    --:-:-:Y:1  @!P2 LDS.128 R4, [RZ+0x10];
    --:-:-:Y:1  @!PT IMAD.WIDE.U32 R6, R1, 0x4, RZ;
    --:-:-:Y:1  ISETP.LT.AND PT, PT, R1, 0x3, !P1;
    --:-:-:Y:1  EXIT;
"#,
        )
        .unwrap();
        let n = 8u16;
        let t = decode_insts(&m.insts, None, n);
        let (zero, sink) = (n, n + 1);
        assert_eq!(
            t[0].exec,
            Exec::Ffma {
                d: sink,
                a: 2,
                b: SrcRow::Row(zero),
                c: 3,
                neg_b: false,
                neg_c: false
            }
        );
        assert_eq!(t[0].guard, PredRead::Const(true));
        assert_eq!(
            t[1].exec,
            Exec::Mem(MemOp {
                store: false,
                space: MemSpace::Shared,
                nregs: 4,
                data: [4, 5, 6, 7],
                addr: [zero, zero],
                offset: 0x10
            })
        );
        assert_eq!(t[1].guard, PredRead::Lane { p: 2, neg: true });
        assert_eq!(t[2].guard, PredRead::Const(false));
        assert_eq!(
            t[2].exec,
            Exec::ImadWide {
                d: [6, 7],
                a: 1,
                b: SrcRow::Imm(4),
                c: [zero, zero]
            }
        );
        assert!(matches!(
            t[3].exec,
            Exec::Isetp {
                p: None,
                combine: PredRead::Lane { p: 1, neg: true },
                ..
            }
        ));
        // A 7-register file cannot hold R7 of the LDS.128.
        let t = decode_insts(&m.insts, None, 7);
        assert_eq!(t[1].exec, Exec::BadReg(Reg(7)));
        // Saturation: a 128-bit load at R253 writes R253, R254, R254, R254.
        let ld = Instruction::new(sass::isa::build::lds(
            sass::isa::MemWidth::B128,
            Reg(253),
            Reg(0),
            0,
        ));
        let t = decode_insts(&[ld], None, 255);
        match t[0].exec {
            Exec::Mem(m) => assert_eq!(m.data, [253, 254, 254, 254]),
            other => panic!("{other:?}"),
        }
    }
}
