//! Batch evaluation of schedule-tuner candidates.
//!
//! The schedule autotuner (`sass::tune`) evaluates thousands of candidate
//! streams that all share one baseline's *instructions* and differ only in
//! control codes and intra-block order. Building a fresh micro-op table per
//! candidate would redo the operand analysis (execution operands, source
//! lists, bank-parity masks, reuse latches) for every proposal even though
//! none of it changed. [`BatchTimer`] decodes the baseline once, then serves
//! each candidate by cloning the baseline micro-op of the *same instruction*
//! (located through the tuner's position map) and re-patching only the
//! control-code-derived fields (`MicroOp::repatch_ctrl`).
//!
//! `gpusim/tests/batch_identity.rs` pins that this path is result-identical
//! to a fresh [`time_kernel`] on every candidate shape the tuner produces.

use crate::decode::{decode_module, MicroOp};
use crate::launch::{Gpu, LaunchDims, LaunchError};
use crate::timing::{time_kernel, time_kernel_with_table, KernelTiming, TimingOptions};
use sass::Module;

/// Reusable micro-op table for timing many schedule variants of one
/// baseline module.
///
/// `Clone` hands each chain of a parallel search (`sass::island`) its own
/// scratch space over the *same* decoded baseline, so the operand analysis
/// is still done exactly once per module no matter how many islands evaluate
/// candidates concurrently (the clone shares no mutable state — `scratch`
/// starts empty).
#[derive(Clone)]
pub struct BatchTimer {
    /// Baseline micro-ops, decoded with `region: None` (the per-candidate
    /// region is re-patched in, since reorders move PCs across markers).
    base: Vec<MicroOp>,
    /// Register-file size the baseline rows were resolved for.
    num_regs: u16,
    /// Baseline instructions, kept to `debug_assert` that the position map
    /// really points each candidate instruction at its own micro-op.
    #[cfg(debug_assertions)]
    base_insts: Vec<sass::Instruction>,
    scratch: Vec<MicroOp>,
}

impl BatchTimer {
    /// Decode `base` once. Candidates handed to [`BatchTimer::time`] must be
    /// permutations of this module's instruction list (with arbitrary
    /// control codes).
    pub fn new(base: &Module) -> BatchTimer {
        BatchTimer {
            base: decode_module(base, None),
            num_regs: base.info.num_regs,
            #[cfg(debug_assertions)]
            base_insts: base.insts.clone(),
            scratch: Vec::new(),
        }
    }

    /// Time `candidate`, whose instruction at position `i` is baseline
    /// instruction `perm[i]`. Falls back to a fresh decode when the shapes
    /// don't match (different length or register count — e.g. a candidate
    /// from some other module), so the call is always safe.
    pub fn time(
        &mut self,
        gpu: &mut Gpu,
        candidate: &Module,
        perm: &[u32],
        dims: LaunchDims,
        params: &[u8],
        opts: TimingOptions,
    ) -> Result<KernelTiming, LaunchError> {
        let n = candidate.insts.len();
        if perm.len() != n || self.base.len() != n || candidate.info.num_regs != self.num_regs {
            return time_kernel(gpu, candidate, dims, params, opts);
        }
        self.scratch.clear();
        for (pc, inst) in candidate.insts.iter().enumerate() {
            let src = perm[pc] as usize;
            #[cfg(debug_assertions)]
            debug_assert_eq!(
                (self.base_insts[src].op, self.base_insts[src].guard),
                (inst.op, inst.guard),
                "position map mismatch at pc {pc}: perm says baseline {src}"
            );
            let mut d = self.base[src].clone();
            d.repatch_ctrl(inst, pc as u32, opts.region);
            self.scratch.push(d);
        }
        time_kernel_with_table(gpu, candidate, dims, params, opts, &self.scratch)
    }
}
