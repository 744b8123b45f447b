//! Functional (architectural) execution of warps over the micro-op table.
//!
//! `step_into` executes the next instruction of one warp from the decoded
//! `MicroOp` table of `crate::decode`. It is the one executor behind the
//! functional launchers ([`crate::launch`]) and the cycle-level SM model in
//! [`crate::timing`], which executes every issued instruction functionally so
//! that memory addresses — and therefore bank conflicts and cache behaviour —
//! are exact rather than statistical.
//!
//! Execution works on whole 32-lane register rows. A data instruction
//! computes its result row lane by lane straight from the source rows (no
//! per-lane operand decoding: `RZ` is the file's zero row, immediates and
//! constants are splats) and writes it back under the execution mask — the
//! whole row when every lane executes, the executing lanes otherwise. Every
//! lane reads only its own lane of each source, so a destination that
//! aliases a source is safe. A memory instruction resolves all lane
//! addresses into a fixed array, bounds-checks the executing lanes in lane
//! order and then moves fixed-width words per lane; a fault names the first
//! bad lane, and the lanes before it still take effect, exactly as a
//! lane-by-lane interpreter behaves.
//!
//! Divergence is handled SIMT-style with a set of `(mask, pc)` execution
//! contexts per warp; the context with the smallest PC runs next, and
//! contexts at equal PCs merge (a simple reconvergence rule that is exact
//! for the structured control flow our kernels use).
//!
//! The per-lane `Op` interpreter this executor replaced survives only as the
//! test oracle of `exec/oracle.rs`, whose differential test runs both on
//! seeded random instruction streams and requires identical warp state,
//! memory traces and errors.

use sass::isa::{Instruction, MemSpace, SpecialReg};

use crate::decode::{decode_insts, Exec, MemOp, MicroOp, PredRead, Row, SrcRow};
use crate::memory::{ConstBank, GlobalMemory, MemError};

#[cfg(test)]
mod oracle;

/// Maximum lanes per warp.
pub const WARP_SIZE: u32 = 32;

/// One register (or any 32-bit quantity) across the lanes of a warp.
type Lanes = [u32; WARP_SIZE as usize];

/// One divergence context.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarpCtx {
    /// Active-lane mask.
    pub mask: u32,
    /// Next instruction index.
    pub pc: u32,
}

/// Architectural state of one warp.
#[derive(Clone, Debug)]
pub struct Warp {
    /// Register file: `regs[r][lane]` for the `num_regs` architectural
    /// registers, followed by the two rows the decoder points `RZ` at: the
    /// zero row (read by `RZ` sources, never written) and the sink row
    /// (written by `RZ` destinations, never read).
    pub regs: Vec<Lanes>,
    /// Predicate file: `preds[p][lane]`, p in 0..7.
    pub preds: [[bool; WARP_SIZE as usize]; 7],
    /// Divergence contexts (invariant: non-empty unless exited; disjoint
    /// masks).
    pub ctxs: Vec<WarpCtx>,
    /// Linear thread id of lane 0 within the block.
    pub base_tid: u32,
    /// True once all lanes have exited.
    pub exited: bool,
}

impl Warp {
    /// Fresh warp: `num_regs` registers, all zero, one context at PC 0.
    pub fn new(num_regs: u16, base_tid: u32, lanes: u32) -> Self {
        assert!((1..=WARP_SIZE).contains(&lanes));
        let mask = if lanes == 32 {
            u32::MAX
        } else {
            (1u32 << lanes) - 1
        };
        Warp {
            regs: vec![[0u32; 32]; num_regs as usize + 2],
            preds: [[false; 32]; 7],
            ctxs: vec![WarpCtx { mask, pc: 0 }],
            base_tid,
            exited: false,
        }
    }

    /// Architectural registers per lane (the file without its `RZ` rows).
    pub(crate) fn num_regs(&self) -> u16 {
        (self.regs.len() - 2) as u16
    }

    /// The context that executes next (lowest PC), if any.
    pub fn current_ctx(&self) -> Option<WarpCtx> {
        match self.ctxs.as_slice() {
            // Converged warp: the common case needs no scan.
            [only] => Some(*only),
            ctxs => ctxs.iter().copied().min_by_key(|c| c.pc),
        }
    }
}

/// What a single step did — the caller (block runner or timing model)
/// schedules around these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepEvent {
    /// A non-synchronizing instruction was executed.
    Executed,
    /// A `BAR.SYNC` was executed; the warp is now waiting at the barrier.
    Barrier,
    /// The warp has fully exited.
    Exited,
}

/// Execution environment for one block.
pub struct ExecEnv<'a> {
    pub global: &'a mut GlobalMemory,
    pub smem: &'a mut [u8],
    pub cbank: &'a ConstBank,
    pub ctaid: [u32; 3],
    pub block_dim: [u32; 3],
}

/// Execution error with full context.
#[derive(Clone, Debug)]
pub struct ExecError {
    pub ctaid: [u32; 3],
    pub warp: u32,
    pub pc: u32,
    pub inst: String,
    pub msg: String,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "block ({},{},{}) warp {} pc {}: {} — {}",
            self.ctaid[0], self.ctaid[1], self.ctaid[2], self.warp, self.pc, self.inst, self.msg
        )
    }
}

impl std::error::Error for ExecError {}

/// Side-channel describing the memory behaviour of an executed instruction,
/// consumed by the timing model. Empty for non-memory instructions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemTrace {
    /// Byte addresses touched, one per active lane (global space).
    pub global_addrs: Vec<u64>,
    /// Byte addresses touched, one per active lane (shared space).
    pub shared_addrs: Vec<u32>,
    /// Access width in bytes.
    pub width: u32,
    /// True for a store.
    pub is_store: bool,
    /// Lanes that executed the instruction (guard ∧ divergence mask).
    pub exec_mask: u32,
}

impl MemTrace {
    /// Back to the empty (`Default`) trace, keeping the address buffers'
    /// capacity for the next step.
    fn reset(&mut self) {
        self.global_addrs.clear();
        self.shared_addrs.clear();
        self.width = 0;
        self.is_store = false;
        self.exec_mask = 0;
    }
}

/// Execute one instruction of `insts` for `warp` and return the event and
/// (for memory instructions) the per-lane address trace. A single-stepping
/// convenience: it decodes `insts` on every call, so loops decode once
/// (`crate::decode`) and step the table with `step_into`.
pub fn step(
    warp: &mut Warp,
    insts: &[Instruction],
    env: &mut ExecEnv<'_>,
    warp_idx: u32,
) -> Result<(StepEvent, MemTrace), ExecError> {
    let table = decode_insts(insts, None, warp.num_regs());
    let mut trace = MemTrace::default();
    let event = step_into(warp, &table, insts, env, warp_idx, &mut trace).map_err(|e| *e)?;
    Ok((event, trace))
}

/// Execute the next micro-op of `warp` from `table`, writing the address
/// trace into a caller-owned buffer (reset first), so loops that step
/// millions of warp-instructions reuse one allocation. `table` must be
/// decoded for the warp's register-file size from `insts`, which is read
/// only to render an error. The error is boxed to keep the `Result` small
/// on the hot path.
pub(crate) fn step_into(
    warp: &mut Warp,
    table: &[MicroOp],
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
    let Some(op) = table.get(pc as usize) else {
        return Err(Box::new(ExecError {
            ctaid: env.ctaid,
            warp: warp_idx,
            pc,
            inst: "<end of code>".into(),
            msg: "fell off the end of the instruction stream (missing EXIT?)".into(),
        }));
    };
    let ctaid = env.ctaid;
    let fail = |msg: String| {
        Box::new(ExecError {
            ctaid,
            warp: warp_idx,
            pc,
            inst: sass::disasm::inst_text(&insts[pc as usize]),
            msg,
        })
    };

    let exec_mask = ctx.mask & pred_mask(&warp.preds, op.guard);
    match op.exec {
        // Control flow rewrites the contexts.
        Exec::Exit => {
            // Exit the executing lanes; the rest continue at pc+1.
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
        Exec::Bra { target } => {
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
        Exec::BarSync => {
            if warp.ctxs.len() > 1 {
                return Err(fail(
                    "BAR.SYNC in divergent control flow is not supported".into(),
                ));
            }
            advance_ctx(warp, pc);
            return Ok(StepEvent::Barrier);
        }
        Exec::BadReg(r) => {
            return Err(fail(format!(
                "{r} is outside the kernel's {}-register file",
                warp.num_regs()
            )));
        }
        Exec::Mem(m) => {
            trace.exec_mask = exec_mask;
            mem_op(&mut warp.regs, &m, env, exec_mask, trace).map_err(fail)?;
        }
        ref data => {
            trace.exec_mask = exec_mask;
            alu(warp, data, env, exec_mask);
        }
    }
    advance_ctx(warp, pc);
    Ok(StepEvent::Executed)
}

/// Per-lane value of a predicate read as a lane mask.
#[inline]
fn pred_mask(preds: &[[bool; WARP_SIZE as usize]; 7], p: PredRead) -> u32 {
    match p {
        PredRead::Const(true) => u32::MAX,
        PredRead::Const(false) => 0,
        PredRead::Lane { p, neg } => {
            let mut m = 0u32;
            for (lane, &v) in preds[p as usize].iter().enumerate() {
                m |= (v as u32) << lane;
            }
            if neg {
                !m
            } else {
                m
            }
        }
    }
}

/// Lanes set in `mask`, ascending.
#[inline]
fn lanes(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// A B operand ready for row execution: a register row or a splat.
#[derive(Clone, Copy)]
enum Src {
    Row(Row),
    Splat(u32),
}

impl Src {
    #[inline]
    fn of(b: SrcRow, cbank: &ConstBank) -> Src {
        match b {
            SrcRow::Row(r) => Src::Row(r),
            SrcRow::Imm(v) => Src::Splat(v),
            SrcRow::Const(off) => Src::Splat(cbank.read_u32(off)),
        }
    }
}

/// Write the executing lanes of `out` into `row`.
#[inline(always)]
fn write_row(row: &mut Lanes, out: &Lanes, mask: u32) {
    if mask == u32::MAX {
        *row = *out;
    } else {
        for lane in lanes(mask) {
            row[lane] = out[lane];
        }
    }
}

/// The row kernel of every three-operand data op: `d[l] = f(l, a[l], b[l],
/// c[l])` for the lanes in `mask`. The result row is computed from the
/// source rows where they lie, then written back under the mask; every lane
/// reads only its own lane of the sources, so any of them may alias `d`.
/// Unused operands may name any row.
#[inline(always)]
fn rows3(
    regs: &mut [Lanes],
    mask: u32,
    d: Row,
    a: Row,
    b: Src,
    c: Row,
    f: impl Fn(usize, u32, u32, u32) -> u32,
) {
    let mut out: Lanes = [0; 32];
    {
        let splat;
        let rb = match b {
            Src::Row(r) => &regs[r as usize],
            Src::Splat(v) => {
                splat = [v; 32];
                &splat
            }
        };
        let (ra, rc) = (&regs[a as usize], &regs[c as usize]);
        for (l, o) in out.iter_mut().enumerate() {
            *o = f(l, ra[l], rb[l], rc[l]);
        }
    }
    write_row(&mut regs[d as usize], &out, mask);
}

/// `a OP b` over the lanes as a lane mask (the comparison half of the
/// `SETP` ops).
#[inline(always)]
fn cmp_rows(regs: &[Lanes], a: Row, b: Src, f: impl Fn(u32, u32) -> bool) -> u32 {
    let ra = &regs[a as usize];
    let mut m = 0u32;
    for lane in 0..32 {
        let vb = match b {
            Src::Row(r) => regs[r as usize][lane],
            Src::Splat(v) => v,
        };
        m |= (f(ra[lane], vb) as u32) << lane;
    }
    m
}

/// `FFMA` rows: `d = a * (b ^ nb) + (c ^ nc)` with fused rounding, where
/// `nb`/`nc` are sign-flip masks.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn ffma_rows(regs: &mut [Lanes], mask: u32, d: Row, a: Row, b: Src, c: Row, nb: u32, nc: u32) {
    rows3(regs, mask, d, a, b, c, |_, x, y, z| {
        f(x).mul_add(f(y ^ nb), f(z ^ nc)).to_bits()
    })
}

/// `HFMA2` rows: paired fp16 FMA computed in f32, each half rounded to f16
/// (the hardware's fp16 accumulate behaviour, §8.3).
#[inline(always)]
fn hfma2_rows(regs: &mut [Lanes], mask: u32, d: Row, a: Row, b: Src, c: Row) {
    use sass::half::{pack_half2, unpack_half2};
    rows3(regs, mask, d, a, b, c, |_, x, y, z| {
        let ((a0, a1), (b0, b1), (c0, c1)) = (unpack_half2(x), unpack_half2(y), unpack_half2(z));
        pack_half2(a0.mul_add(b0, c0), a1.mul_add(b1, c1))
    })
}

/// The fused multiply-add ops, compiled with the FMA target feature when
/// the host has it, so `f32::mul_add` becomes `vfmadd` instead of a libm
/// call per lane. Both are IEEE correctly rounded: the bits are identical.
#[derive(Clone, Copy)]
enum Fused {
    Ffma { nb: u32, nc: u32 },
    Hfma2,
}

#[inline(always)]
fn fused_rows(regs: &mut [Lanes], mask: u32, op: Fused, d: Row, a: Row, b: Src, c: Row) {
    match op {
        Fused::Ffma { nb, nc } => ffma_rows(regs, mask, d, a, b, c, nb, nc),
        Fused::Hfma2 => hfma2_rows(regs, mask, d, a, b, c),
    }
}

fn fused(regs: &mut [Lanes], mask: u32, op: Fused, d: Row, a: Row, b: Src, c: Row) {
    #[cfg(target_arch = "x86_64")]
    {
        /// # Safety
        /// The host must support the FMA instructions.
        #[target_feature(enable = "fma")]
        unsafe fn fused_fma(
            regs: &mut [Lanes],
            mask: u32,
            op: Fused,
            d: Row,
            a: Row,
            b: Src,
            c: Row,
        ) {
            fused_rows(regs, mask, op, d, a, b, c)
        }
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: the FMA feature was just detected at runtime.
            return unsafe { fused_fma(regs, mask, op, d, a, b, c) };
        }
    }
    fused_rows(regs, mask, op, d, a, b, c)
}

#[inline(always)]
fn f(bits: u32) -> f32 {
    f32::from_bits(bits)
}

/// Sign-flip mask of an fp32 operand negation.
#[inline(always)]
fn sign(neg: bool) -> u32 {
    if neg {
        0x8000_0000
    } else {
        0
    }
}

/// Sign-flip mask negating both halves of a half2 word.
#[inline(always)]
fn sign2(neg: bool) -> u32 {
    if neg {
        0x8000_8000
    } else {
        0
    }
}

#[inline(always)]
fn neg_i(v: u32, neg: bool) -> u32 {
    if neg {
        v.wrapping_neg()
    } else {
        v
    }
}

fn lop3(a: u32, b: u32, c: u32, lut: u8) -> u32 {
    let mut r = 0u32;
    if lut & 0x01 != 0 {
        r |= !a & !b & !c;
    }
    if lut & 0x02 != 0 {
        r |= !a & !b & c;
    }
    if lut & 0x04 != 0 {
        r |= !a & b & !c;
    }
    if lut & 0x08 != 0 {
        r |= !a & b & c;
    }
    if lut & 0x10 != 0 {
        r |= a & !b & !c;
    }
    if lut & 0x20 != 0 {
        r |= a & !b & c;
    }
    if lut & 0x40 != 0 {
        r |= a & b & !c;
    }
    if lut & 0x80 != 0 {
        r |= a & b & c;
    }
    r
}

/// Execute a non-memory data micro-op on the lanes of `mask`.
fn alu(warp: &mut Warp, e: &Exec, env: &ExecEnv<'_>, mask: u32) {
    use sass::half::{pack_half2, unpack_half2};
    let src = |b: SrcRow| Src::of(b, env.cbank);
    let regs = &mut warp.regs[..];
    match *e {
        Exec::Ffma {
            d,
            a,
            b,
            c,
            neg_b,
            neg_c,
        } => {
            let op = Fused::Ffma {
                nb: sign(neg_b),
                nc: sign(neg_c),
            };
            fused(regs, mask, op, d, a, src(b), c)
        }
        Exec::Fadd {
            d,
            a,
            neg_a,
            b,
            neg_b,
        } => {
            let (na, nb) = (sign(neg_a), sign(neg_b));
            rows3(regs, mask, d, a, src(b), a, |_, x, y, _| {
                (f(x ^ na) + f(y ^ nb)).to_bits()
            })
        }
        Exec::Fmul { d, a, b, neg_b } => {
            let nb = sign(neg_b);
            rows3(regs, mask, d, a, src(b), a, |_, x, y, _| {
                (f(x) * f(y ^ nb)).to_bits()
            })
        }
        Exec::Hfma2 { d, a, b, c } => fused(regs, mask, Fused::Hfma2, d, a, src(b), c),
        Exec::Hadd2 {
            d,
            a,
            neg_a,
            b,
            neg_b,
        } => {
            let (na, nb) = (sign2(neg_a), sign2(neg_b));
            rows3(regs, mask, d, a, src(b), a, |_, x, y, _| {
                let ((a0, a1), (b0, b1)) = (unpack_half2(x ^ na), unpack_half2(y ^ nb));
                pack_half2(a0 + b0, a1 + b1)
            })
        }
        Exec::Hmul2 { d, a, b } => rows3(regs, mask, d, a, src(b), a, |_, x, y, _| {
            let ((a0, a1), (b0, b1)) = (unpack_half2(x), unpack_half2(y));
            pack_half2(a0 * b0, a1 * b1)
        }),
        Exec::Fsetp {
            p,
            cmp,
            a,
            b,
            combine,
        } => {
            if let Some(p) = p {
                let hit = cmp_rows(regs, a, src(b), |x, y| cmp.eval_f32(f(x), f(y)));
                let comb = pred_mask(&warp.preds, combine);
                set_preds(&mut warp.preds[p as usize], hit & comb, mask);
            }
        }
        Exec::Iadd3 {
            d,
            a,
            neg_a,
            b,
            neg_b,
            c,
            neg_c,
        } => rows3(regs, mask, d, a, src(b), c, |_, x, y, z| {
            neg_i(x, neg_a)
                .wrapping_add(neg_i(y, neg_b))
                .wrapping_add(neg_i(z, neg_c))
        }),
        Exec::Imad { d, a, b, c } => rows3(regs, mask, d, a, src(b), c, |_, x, y, z| {
            x.wrapping_mul(y).wrapping_add(z)
        }),
        Exec::ImadHi { d, a, b, c } => rows3(regs, mask, d, a, src(b), c, |_, x, y, z| {
            (((x as u64 * y as u64) >> 32) as u32).wrapping_add(z)
        }),
        Exec::ImadWide { d, a, b, c } => {
            // Both result words come from the sources as they were before
            // either is written; the high word lands last.
            let mut hi: Lanes = [0; 32];
            let lo: Lanes = {
                let b = src(b);
                let (ra, c0, c1) = (
                    &regs[a as usize],
                    &regs[c[0] as usize],
                    &regs[c[1] as usize],
                );
                std::array::from_fn(|l| {
                    let vb = match b {
                        Src::Row(r) => regs[r as usize][l],
                        Src::Splat(v) => v,
                    };
                    let sum = (ra[l] as u64 * vb as u64)
                        .wrapping_add(c0[l] as u64 | (c1[l] as u64) << 32);
                    hi[l] = (sum >> 32) as u32;
                    sum as u32
                })
            };
            write_row(&mut regs[d[0] as usize], &lo, mask);
            write_row(&mut regs[d[1] as usize], &hi, mask);
        }
        Exec::Lea { d, a, b, shift } => rows3(regs, mask, d, a, src(b), a, |_, x, y, _| {
            y.wrapping_add(x.wrapping_shl(shift as u32))
        }),
        Exec::Lop3 { d, a, b, c, lut } => {
            rows3(regs, mask, d, a, src(b), c, |_, x, y, z| lop3(x, y, z, lut))
        }
        Exec::Shf {
            d,
            lo,
            shift,
            hi,
            right,
            u32_mode,
        } => rows3(regs, mask, d, lo, src(shift), hi, |_, vlo, n, vhi| {
            let n = n & 63;
            if u32_mode {
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
            }
        }),
        Exec::Mov { d, b } => rows3(regs, mask, d, d, src(b), d, |_, _, y, _| y),
        Exec::Sel { d, a, b, p } => {
            let pick = pred_mask(&warp.preds, p);
            rows3(regs, mask, d, a, src(b), a, |l, x, y, _| {
                if pick & (1 << l) != 0 {
                    x
                } else {
                    y
                }
            })
        }
        Exec::Isetp {
            p,
            cmp,
            unsigned,
            a,
            b,
            combine,
        } => {
            if let Some(p) = p {
                let hit = cmp_rows(regs, a, src(b), |x, y| {
                    if unsigned {
                        cmp.eval_i64(x as i64, y as i64)
                    } else {
                        cmp.eval_i64(x as i32 as i64, y as i32 as i64)
                    }
                });
                let comb = pred_mask(&warp.preds, combine);
                set_preds(&mut warp.preds[p as usize], hit & comb, mask);
            }
        }
        Exec::P2r { d, a, mask: m } => {
            let mut bits: Lanes = [0; 32];
            for (i, row) in warp.preds.iter().enumerate() {
                for (b, &v) in bits.iter_mut().zip(row) {
                    *b |= (v as u32) << i;
                }
            }
            rows3(regs, mask, d, a, Src::Splat(0), a, |l, x, _, _| {
                (x & !m) | (bits[l] & m)
            })
        }
        Exec::R2p { a, mask: m } => {
            let ra = &warp.regs[a as usize];
            for lane in lanes(mask) {
                for (i, row) in warp.preds.iter_mut().enumerate() {
                    if m & (1 << i) != 0 {
                        row[lane] = ra[lane] & (1 << i) != 0;
                    }
                }
            }
        }
        Exec::S2r { d, sr } => {
            let (bd, ctaid) = (env.block_dim, env.ctaid);
            let rd = &mut regs[d as usize];
            for lane in lanes(mask) {
                let linear = warp.base_tid + lane as u32;
                rd[lane] = match sr {
                    SpecialReg::TidX => linear % bd[0],
                    SpecialReg::TidY => (linear / bd[0]) % bd[1],
                    SpecialReg::TidZ => linear / (bd[0] * bd[1]),
                    SpecialReg::CtaidX => ctaid[0],
                    SpecialReg::CtaidY => ctaid[1],
                    SpecialReg::CtaidZ => ctaid[2],
                    SpecialReg::LaneId => lane as u32,
                    SpecialReg::WarpId => linear / WARP_SIZE,
                };
            }
        }
        Exec::Nop => {}
        Exec::Mem(_) | Exec::Bra { .. } | Exec::Exit | Exec::BarSync | Exec::BadReg(_) => {
            unreachable!("handled by step_into")
        }
    }
}

/// Set `row[lane] = value bit` for the lanes of `mask`.
#[inline]
fn set_preds(row: &mut [bool; WARP_SIZE as usize], value: u32, mask: u32) {
    for lane in lanes(mask) {
        row[lane] = value & (1 << lane) != 0;
    }
}

/// Execute a load or store on the lanes of `mask`; the error is the message
/// naming the first faulting lane.
fn mem_op(
    regs: &mut [Lanes],
    m: &MemOp,
    env: &mut ExecEnv<'_>,
    mask: u32,
    trace: &mut MemTrace,
) -> Result<(), String> {
    trace.width = m.nregs as u32 * 4;
    trace.is_store = m.store;
    match (m.space, m.nregs) {
        (MemSpace::Shared, 1) => shared::<1>(regs, m, env.smem, mask, trace),
        (MemSpace::Shared, 2) => shared::<2>(regs, m, env.smem, mask, trace),
        (MemSpace::Shared, _) => shared::<4>(regs, m, env.smem, mask, trace),
        (MemSpace::Global, 1) => global::<1>(regs, m, env.global, mask, trace),
        (MemSpace::Global, 2) => global::<2>(regs, m, env.global, mask, trace),
        (MemSpace::Global, _) => global::<4>(regs, m, env.global, mask, trace),
    }
}

/// A shared-memory access of `N` words per lane.
fn shared<const N: usize>(
    regs: &mut [Lanes],
    m: &MemOp,
    smem: &mut [u8],
    mask: u32,
    trace: &mut MemTrace,
) -> Result<(), String> {
    let base = &regs[m.addr[0] as usize];
    let addrs: [u32; 32] = std::array::from_fn(|l| base[l].wrapping_add(m.offset as u32));
    let size = smem.len();
    let locate = |a: u32| (a as usize + 4 * N <= size).then_some(a as usize);
    match move_words::<u32, N>(regs, m, mask, &addrs, &mut trace.shared_addrs, smem, locate) {
        None => Ok(()),
        Some(lane) => Err(format!(
            "lane {lane}: shared {} at {:#x} past smem size {size:#x}",
            if m.store { "store" } else { "load" },
            addrs[lane]
        )),
    }
}

/// A global-memory access of `N` words per lane (64-bit base pair).
fn global<const N: usize>(
    regs: &mut [Lanes],
    m: &MemOp,
    mem: &mut GlobalMemory,
    mask: u32,
    trace: &mut MemTrace,
) -> Result<(), String> {
    let (lo, hi) = (&regs[m.addr[0] as usize], &regs[m.addr[1] as usize]);
    let addrs: [u64; 32] = std::array::from_fn(|l| {
        (lo[l] as u64 | (hi[l] as u64) << 32).wrapping_add(m.offset as i64 as u64)
    });
    let locator = mem.locator();
    let locate = |a: u64| locator(a, 4 * N);
    match move_words::<u64, N>(
        regs,
        m,
        mask,
        &addrs,
        &mut trace.global_addrs,
        mem.bytes_mut(),
        locate,
    ) {
        None => Ok(()),
        Some(lane) => Err(format!(
            "lane {lane}: {}",
            MemError::OutOfBounds {
                addr: addrs[lane],
                len: 4 * N,
            }
        )),
    }
}

/// The body of every load and store: record the executing lanes' addresses
/// in the trace and bounds-check them in lane order (`locate` maps an
/// address to its byte offset in `mem`, or `None` if the access does not
/// fit), then move `N` little-endian words per lane between `mem` and the
/// data rows for every lane before the first faulting one. Returns the
/// faulting lane, if any; the trace then ends with its address.
#[inline(always)]
fn move_words<A: Copy, const N: usize>(
    regs: &mut [Lanes],
    m: &MemOp,
    mask: u32,
    addrs: &[A; 32],
    seen: &mut Vec<A>,
    mem: &mut [u8],
    locate: impl Fn(A) -> Option<usize>,
) -> Option<usize> {
    // Locate every lane (idle lanes too: their offsets go unused).
    let mut offs = [0usize; 32];
    let mut bad = 0u32;
    for (lane, (o, &a)) in offs.iter_mut().zip(addrs).enumerate() {
        match locate(a) {
            Some(off) => *o = off,
            None => bad |= 1 << lane,
        }
    }
    let fault = (bad & mask != 0).then(|| (bad & mask).trailing_zeros() as usize);
    // The trace lists the executing lanes up to the faulting one.
    let shown = fault.map_or(mask, |lane| mask & (u32::MAX >> (31 - lane)));
    if shown == u32::MAX {
        seen.extend_from_slice(addrs);
    } else {
        seen.extend(lanes(shown).map(|lane| addrs[lane]));
    }
    let done = fault.map_or(mask, |lane| mask & ((1u32 << lane) - 1));
    let data: [usize; N] = std::array::from_fn(|i| m.data[i] as usize);
    // Lane-major, so overlapping store lanes resolve in lane order and a
    // row named twice (saturated vector, `RZ` sink) ends with its last word.
    if m.store {
        for lane in lanes(done) {
            let dst = &mut mem[offs[lane]..offs[lane] + 4 * N];
            for (w, &r) in dst.chunks_exact_mut(4).zip(&data) {
                w.copy_from_slice(&regs[r][lane].to_le_bytes());
            }
        }
    } else {
        for lane in lanes(done) {
            let src = &mem[offs[lane]..offs[lane] + 4 * N];
            for (w, &r) in src.chunks_exact(4).zip(&data) {
                regs[r][lane] = u32::from_le_bytes(w.try_into().unwrap());
            }
        }
    }
    fault
}

fn remove_ctx(warp: &mut Warp, pc: u32) {
    warp.ctxs.retain(|c| c.pc != pc);
}

fn push_ctx(warp: &mut Warp, ctx: WarpCtx) {
    // Merge with an existing context at the same PC (reconvergence).
    for c in &mut warp.ctxs {
        if c.pc == ctx.pc {
            c.mask |= ctx.mask;
            return;
        }
    }
    warp.ctxs.push(ctx);
}

fn advance_ctx(warp: &mut Warp, pc: u32) {
    // Converged warp stepping its only context: move it in place.
    if let [only] = warp.ctxs.as_mut_slice() {
        if only.pc == pc && only.mask != 0 {
            only.pc = pc + 1;
            return;
        }
    }
    let mut moved = 0u32;
    warp.ctxs.retain(|c| {
        if c.pc == pc {
            moved |= c.mask;
            false
        } else {
            true
        }
    });
    if moved != 0 {
        push_ctx(
            warp,
            WarpCtx {
                mask: moved,
                pc: pc + 1,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{ConstBank, GlobalMemory, ParamBuilder};
    use sass::isa::build::*;
    use sass::isa::*;
    use sass::reg::{Pred, Reg, RZ};

    fn env_fixture<'a>(
        global: &'a mut GlobalMemory,
        smem: &'a mut [u8],
        cbank: &'a ConstBank,
    ) -> ExecEnv<'a> {
        // Lifetimes: caller holds the storage.
        ExecEnv {
            global,
            smem,
            cbank,
            ctaid: [3, 2, 1],
            block_dim: [64, 1, 1],
        }
    }

    fn run_insts(
        insts: Vec<Instruction>,
        setup: impl FnOnce(&mut Warp, &mut GlobalMemory),
    ) -> (Warp, GlobalMemory) {
        let mut insts = insts;
        insts.push(Instruction::new(Op::Exit));
        let mut global = GlobalMemory::new(1 << 20);
        let mut smem = vec![0u8; 48 * 1024];
        let cbank = ConstBank::new(
            [64, 1, 1],
            [8, 8, 8],
            &ParamBuilder::new().push_u32(42).push_u32(7).build(),
        );
        let mut warp = Warp::new(64, 0, 32);
        setup(&mut warp, &mut global);
        let mut env = ExecEnv {
            global: &mut global,
            smem: &mut smem,
            cbank: &cbank,
            ctaid: [3, 2, 1],
            block_dim: [64, 1, 1],
        };
        for _ in 0..10_000 {
            match step(&mut warp, &insts, &mut env, 0).unwrap().0 {
                StepEvent::Exited => break,
                StepEvent::Barrier => panic!("unexpected barrier"),
                StepEvent::Executed => {}
            }
        }
        assert!(warp.exited, "warp did not exit");
        (warp, global)
    }

    #[test]
    fn ffma_and_fadd_semantics() {
        let (w, _) = run_insts(
            vec![
                Instruction::new(mov(Reg(1), 3.0f32)),
                Instruction::new(mov(Reg(2), 4.0f32)),
                Instruction::new(mov(Reg(3), 10.0f32)),
                Instruction::new(ffma(Reg(4), Reg(1), Reg(2), Reg(3))),
                Instruction::new(fsub(Reg(5), Reg(4), Reg(3))),
                Instruction::new(Op::Ffma {
                    d: Reg(6),
                    a: Reg(1),
                    b: SrcB::Reg(Reg(2)),
                    c: Reg(3),
                    neg_b: true,
                    neg_c: true,
                }),
            ],
            |_, _| {},
        );
        assert_eq!(f32::from_bits(w.regs[4][0]), 22.0);
        assert_eq!(f32::from_bits(w.regs[5][7]), 12.0);
        assert_eq!(f32::from_bits(w.regs[6][31]), -22.0);
    }

    #[test]
    fn integer_ops() {
        let (w, _) = run_insts(
            vec![
                Instruction::new(mov(Reg(1), 100u32)),
                Instruction::new(iadd3(Reg(2), Reg(1), 28u32, Reg(1))), // 228
                Instruction::new(imad(Reg(3), Reg(1), 3u32, Reg(2))),   // 528
                Instruction::new(isub(Reg(4), Reg(3), Reg(1))),         // 428
                Instruction::new(shl(Reg(5), Reg(1), 4)),               // 1600
                Instruction::new(shr(Reg(6), Reg(5), 2)),               // 400
                Instruction::new(and(Reg(7), Reg(1), 0x6cu32)),         // 0x64 & 0x6c = 0x64
                Instruction::new(or(Reg(8), Reg(1), 0x1u32)),
                Instruction::new(xor(Reg(9), Reg(1), Reg(1))),
                Instruction::new(lea(Reg(10), Reg(1), 5u32, 2)), // 5 + 100*4 = 405
            ],
            |_, _| {},
        );
        assert_eq!(w.regs[2][0], 228);
        assert_eq!(w.regs[3][0], 528);
        assert_eq!(w.regs[4][0], 428);
        assert_eq!(w.regs[5][0], 1600);
        assert_eq!(w.regs[6][0], 400);
        assert_eq!(w.regs[7][0], 0x64);
        assert_eq!(w.regs[8][0], 101);
        assert_eq!(w.regs[9][0], 0);
        assert_eq!(w.regs[10][0], 405);
    }

    #[test]
    fn imad_wide_builds_64bit_addresses() {
        let (w, _) = run_insts(
            vec![
                Instruction::new(mov(Reg(4), 0x8000_0000u32)), // c lo
                Instruction::new(mov(Reg(5), 0x1u32)),         // c hi
                Instruction::new(mov(Reg(1), 0x4000_0000u32)),
                Instruction::new(imad_wide(Reg(2), Reg(1), 4u32, Reg(4))),
            ],
            |_, _| {},
        );
        // 0x4000_0000 * 4 + 0x1_8000_0000 = 0x2_8000_0000
        assert_eq!(w.regs[2][0], 0x8000_0000);
        assert_eq!(w.regs[3][0], 0x2);
    }

    #[test]
    fn imad_hi_for_magic_division() {
        // Divide 1000 by 28 via magic number: m = ceil(2^34/28)=613566757,
        // shift = 2 (classic magicu). q = hi(1000*m) >> 2 = 35.
        let (w, _) = run_insts(
            vec![
                Instruction::new(mov(Reg(1), 1000u32)),
                Instruction::new(mov(Reg(2), 613566757u32)),
                Instruction::new(Op::ImadHi {
                    d: Reg(3),
                    a: Reg(1),
                    b: SrcB::Reg(Reg(2)),
                    c: RZ,
                }),
                Instruction::new(shr(Reg(4), Reg(3), 2)),
            ],
            |_, _| {},
        );
        assert_eq!(w.regs[4][0], 1000 / 28);
    }

    #[test]
    fn s2r_thread_indices() {
        let (w, _) = run_insts(
            vec![
                Instruction::new(s2r(Reg(1), SpecialReg::TidX)),
                Instruction::new(s2r(Reg(2), SpecialReg::CtaidY)),
                Instruction::new(s2r(Reg(3), SpecialReg::LaneId)),
                Instruction::new(s2r(Reg(4), SpecialReg::WarpId)),
            ],
            |_, _| {},
        );
        assert_eq!(w.regs[1][5], 5);
        assert_eq!(w.regs[2][0], 2);
        assert_eq!(w.regs[3][9], 9);
        assert_eq!(w.regs[4][0], 0);
    }

    #[test]
    fn predicates_and_sel() {
        let (w, _) = run_insts(
            vec![
                Instruction::new(s2r(Reg(1), SpecialReg::LaneId)),
                Instruction::new(isetp(Pred(0), CmpOp::Lt, Reg(1), 16u32)),
                Instruction::new(mov(Reg(2), 111u32)),
                Instruction::new(mov(Reg(3), 222u32)),
                Instruction::new(Op::Sel {
                    d: Reg(4),
                    a: Reg(2),
                    b: SrcB::Reg(Reg(3)),
                    p: PredSrc::of(Pred(0)),
                }),
            ],
            |_, _| {},
        );
        assert_eq!(w.regs[4][3], 111);
        assert_eq!(w.regs[4][20], 222);
    }

    #[test]
    fn p2r_r2p_round_trip() {
        let (w, _) = run_insts(
            vec![
                Instruction::new(s2r(Reg(1), SpecialReg::LaneId)),
                // P0 = lane < 8, P1 = lane is even, P2 = lane >= 30.
                Instruction::new(isetp(Pred(0), CmpOp::Lt, Reg(1), 8u32)),
                Instruction::new(and(Reg(2), Reg(1), 1u32)),
                Instruction::new(isetp(Pred(1), CmpOp::Eq, Reg(2), 0u32)),
                Instruction::new(isetp(Pred(2), CmpOp::Ge, Reg(1), 30u32)),
                // Pack into R3, clobber preds, unpack.
                Instruction::new(Op::P2r {
                    d: Reg(3),
                    a: RZ,
                    mask: 0x7f,
                }),
                Instruction::new(isetp(Pred(0), CmpOp::Ge, Reg(1), 0u32)), // true
                Instruction::new(isetp(Pred(1), CmpOp::Ge, Reg(1), 0u32)),
                Instruction::new(isetp(Pred(2), CmpOp::Ge, Reg(1), 0u32)),
                Instruction::new(Op::R2p {
                    a: Reg(3),
                    mask: 0x7,
                }),
                // Read back via SEL.
                Instruction::new(Op::Sel {
                    d: Reg(4),
                    a: Reg(1),
                    b: SrcB::Imm(999),
                    p: PredSrc::of(Pred(0)),
                }),
                Instruction::new(Op::Sel {
                    d: Reg(5),
                    a: Reg(1),
                    b: SrcB::Imm(999),
                    p: PredSrc::of(Pred(1)),
                }),
                Instruction::new(Op::Sel {
                    d: Reg(6),
                    a: Reg(1),
                    b: SrcB::Imm(999),
                    p: PredSrc::of(Pred(2)),
                }),
            ],
            |_, _| {},
        );
        assert_eq!(w.regs[4][5], 5); // P0 true for lane 5
        assert_eq!(w.regs[4][9], 999);
        assert_eq!(w.regs[5][4], 4); // even lane
        assert_eq!(w.regs[5][5], 999);
        assert_eq!(w.regs[6][31], 31);
        assert_eq!(w.regs[6][2], 999);
    }

    #[test]
    fn global_memory_round_trip_and_predication() {
        let (w, g) = run_insts(
            vec![
                // R2:R3 = base pointer from params? use direct setup value.
                Instruction::new(s2r(Reg(1), SpecialReg::LaneId)),
                Instruction::new(shl(Reg(6), Reg(1), 2)),
                Instruction::new(iadd3(Reg(2), Reg(6), Reg(4), RZ)),
                Instruction::new(mov(Reg(3), Reg(5))),
                // Guarded load: only lanes < 16 load.
                Instruction::new(isetp(Pred(1), CmpOp::Lt, Reg(1), 16u32)),
                Instruction::new(mov(Reg(8), 0xdeadu32)),
                Instruction::new(ldg(MemWidth::B32, Reg(8), Reg(2), 0))
                    .with_guard(PredGuard::on(Pred(1))),
                // All lanes store R8 to base + 256 + lane*4.
                Instruction::new(stg(MemWidth::B32, Reg(2), 256, Reg(8))),
            ],
            |w, g| {
                let p = g.alloc(1024);
                let vals: Vec<f32> = (0..32).map(|i| i as f32).collect();
                g.upload_f32(p, &vals).unwrap();
                for lane in 0..32 {
                    w.regs[4][lane] = p as u32;
                    w.regs[5][lane] = (p >> 32) as u32;
                }
            },
        );
        assert_eq!(f32::from_bits(w.regs[8][3]), 3.0);
        assert_eq!(w.regs[8][20], 0xdead, "guarded-off lane keeps old value");
        let base = 0x1000_0000u64; // first alloc
        let stored = g.download_f32(base + 256, 32).unwrap();
        assert_eq!(stored[7], 7.0);
        assert_eq!(stored[25], f32::from_bits(0xdead));
    }

    #[test]
    fn shared_memory_and_vector_widths() {
        let (w, _) = run_insts(
            vec![
                Instruction::new(s2r(Reg(1), SpecialReg::LaneId)),
                Instruction::new(shl(Reg(2), Reg(1), 4)),
                Instruction::new(mov(Reg(4), 1.0f32)),
                Instruction::new(mov(Reg(5), 2.0f32)),
                Instruction::new(mov(Reg(6), 3.0f32)),
                Instruction::new(mov(Reg(7), 4.0f32)),
                Instruction::new(sts(MemWidth::B128, Reg(2), 0, Reg(4))),
                Instruction::new(lds(MemWidth::B64, Reg(8), Reg(2), 8)),
            ],
            |_, _| {},
        );
        assert_eq!(f32::from_bits(w.regs[8][0]), 3.0);
        assert_eq!(f32::from_bits(w.regs[9][0]), 4.0);
    }

    #[test]
    fn divergent_branch_reconverges() {
        // if (lane < 4) R2 = 7; else R2 = 9;  then all lanes R3 = R2 + 1.
        let insts = vec![
            /* 0 */ Instruction::new(s2r(Reg(1), SpecialReg::LaneId)),
            /* 1 */ Instruction::new(isetp(Pred(0), CmpOp::Ge, Reg(1), 4u32)),
            /* 2 */
            Instruction::new(Op::Bra { target: 5 }).with_guard(PredGuard::on(Pred(0))),
            /* 3 */ Instruction::new(mov(Reg(2), 7u32)),
            /* 4 */ Instruction::new(Op::Bra { target: 6 }),
            /* 5 */ Instruction::new(mov(Reg(2), 9u32)),
            /* 6 */ Instruction::new(iadd3(Reg(3), Reg(2), 1u32, RZ)),
        ];
        let (w, _) = run_insts(insts, |_, _| {});
        assert_eq!(w.regs[3][0], 8);
        assert_eq!(w.regs[3][3], 8);
        assert_eq!(w.regs[3][4], 10);
        assert_eq!(w.regs[3][31], 10);
    }

    #[test]
    fn loop_with_backward_branch() {
        // R2 = sum of 1..=10 via a loop.
        let insts = vec![
            /* 0 */ Instruction::new(mov(Reg(1), 10u32)),
            /* 1 */ Instruction::new(mov(Reg(2), 0u32)),
            /* 2 */ Instruction::new(iadd3(Reg(2), Reg(2), Reg(1), RZ)),
            /* 3 */ Instruction::new(iadd3(Reg(1), Reg(1), (-1i32) as u32, RZ)),
            /* 4 */ Instruction::new(isetp(Pred(0), CmpOp::Gt, Reg(1), 0u32)),
            /* 5 */
            Instruction::new(Op::Bra { target: 2 }).with_guard(PredGuard::on(Pred(0))),
        ];
        let (w, _) = run_insts(insts, |_, _| {});
        assert_eq!(w.regs[2][0], 55);
    }

    #[test]
    fn const_bank_reads() {
        let (w, _) = run_insts(
            vec![
                Instruction::new(mov(Reg(1), SrcB::Const(0x160))),
                Instruction::new(mov(Reg(2), SrcB::Const(0x164))),
                Instruction::new(mov(Reg(3), SrcB::Const(0x0))), // blockDim.x
                Instruction::new(mov(Reg(4), SrcB::Const(0x10))), // gridDim.y
            ],
            |_, _| {},
        );
        assert_eq!(w.regs[1][0], 42);
        assert_eq!(w.regs[2][0], 7);
        assert_eq!(w.regs[3][0], 64);
        assert_eq!(w.regs[4][0], 8);
    }

    #[test]
    fn oob_global_access_reports_context() {
        let insts = vec![
            Instruction::new(mov(Reg(2), 0u32)),
            Instruction::new(mov(Reg(3), 0u32)),
            Instruction::new(ldg(MemWidth::B32, Reg(4), Reg(2), 0)),
            Instruction::new(Op::Exit),
        ];
        let mut global = GlobalMemory::new(1024);
        let mut smem = vec![0u8; 0];
        let cbank = ConstBank::new([32, 1, 1], [1, 1, 1], &[]);
        let mut warp = Warp::new(16, 0, 32);
        let mut env = env_fixture(&mut global, &mut smem, &cbank);
        let mut res = Ok((StepEvent::Executed, MemTrace::default()));
        for _ in 0..4 {
            res = step(&mut warp, &insts, &mut env, 5);
            if res.is_err() {
                break;
            }
        }
        let err = res.unwrap_err();
        assert_eq!(err.warp, 5);
        assert_eq!(err.pc, 2);
        assert!(err.msg.contains("out-of-bounds"), "{err}");
        assert!(err.inst.contains("LDG"), "{err}");
    }

    #[test]
    fn partial_warp_masks_inactive_lanes() {
        let mut global = GlobalMemory::new(1024);
        let mut smem = vec![0u8; 256];
        let cbank = ConstBank::new([8, 1, 1], [1, 1, 1], &[]);
        // Block of 8 threads: only lanes 0-7 active.
        let mut warp = Warp::new(16, 0, 8);
        let insts = vec![
            Instruction::new(mov(Reg(1), 5u32)),
            Instruction::new(Op::Exit),
        ];
        let mut env = env_fixture(&mut global, &mut smem, &cbank);
        loop {
            if step(&mut warp, &insts, &mut env, 0).unwrap().0 == StepEvent::Exited {
                break;
            }
        }
        assert_eq!(warp.regs[1][7], 5);
        assert_eq!(warp.regs[1][8], 0, "inactive lane untouched");
    }
}
