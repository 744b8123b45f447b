//! The fused-kernel timing rig: the one place that sizes, allocates and
//! parameterizes the simulator set-up for timing a [`FusedKernel`].
//!
//! Every timing of the fused kernel — the conv API's per-algorithm timing,
//! the serving planner's schedule replay and tuning, the autotuner's
//! objective — goes through a [`FusedRig`], so they all time the kernel
//! against the same device addresses. The buffer layout is fixed:
//!
//! | order | buffer | bytes |
//! |---|---|---|
//! | 0 | input (CHWN) | `4·C·H·W·N` |
//! | 1 | filter (CRSK), read only by the FX kernel | `4·C·9·K` |
//! | 2 | transformed filter `(C,4,4,K)` | `4·C·16·K` |
//! | 3 | output (KHWN) | `4·K·H·W·N` |
//!
//! allocated in that order on a fresh [`Gpu`] per timing, so the kernel
//! parameters built once at rig construction stay valid for every run.

use gpusim::{
    time_kernel_device, timing, BatchTimer, DevPtr, DeviceOptions, DeviceSpec, Gpu, KernelTiming,
    LaunchDims, LaunchError, ParamBuilder, Region, TimingOptions,
};
use sass::tune::TuneRegion;
use sass::{Instruction, Module};

use crate::filter_transform::emit_filter_transform;
use crate::winograd_fused::{FusedConfig, FusedKernel};

/// Simulator set-up for timing one emitted fused kernel and schedule
/// variants of it (same instructions, other order or control codes).
/// Built by [`FusedKernel::rig`].
#[derive(Clone)]
pub struct FusedRig {
    pub device: DeviceSpec,
    /// Region timing options: the kernel's main loop as the region of
    /// interest, everything else default.
    pub opts: TimingOptions,
    /// The kernel's named phases as the schedule tuner's move regions.
    pub tune_regions: Vec<TuneRegion>,
    // The module, launch, parameters, buffers and decoded timer below all
    // describe one kernel at one layout, so they stay private.
    config: FusedConfig,
    module: Module,
    dims: LaunchDims,
    params: Vec<u8>,
    /// Named kernel phases, copied into every profile the rig returns.
    regions: Vec<Region>,
    bytes: [u64; 4],
    ptrs: [DevPtr; 4],
    capacity: usize,
    timer: BatchTimer,
}

impl FusedKernel {
    /// The timing rig for this kernel on `device`.
    pub fn rig(&self, device: &DeviceSpec) -> FusedRig {
        let c = &self.config;
        let (c_, h, w, n, k) = (
            u64::from(c.c),
            u64::from(c.h),
            u64::from(c.w),
            u64::from(c.n),
            u64::from(c.k),
        );
        let bytes = [
            c_ * h * w * n * 4,
            c_ * 9 * k * 4,
            c_ * 16 * k * 4,
            k * h * w * n * 4,
        ];
        let total: u64 = bytes.iter().sum();
        // Headroom for allocation alignment; capacity is not part of any
        // result or digest.
        let capacity = ((total + total / 2 + (1 << 24)) as usize).next_power_of_two();
        let mut gpu = Gpu::new(device.clone(), capacity);
        let ptrs = bytes.map(|b| gpu.alloc(b));
        FusedRig {
            device: device.clone(),
            config: self.config,
            module: self.module.clone(),
            dims: self.launch_dims(),
            params: self.params(ptrs[0], ptrs[2], ptrs[3]),
            opts: TimingOptions {
                region: Some(self.region),
                ..Default::default()
            },
            regions: self.regions.clone(),
            tune_regions: self
                .regions
                .iter()
                .map(|r| TuneRegion {
                    name: r.name.clone(),
                    start: r.start,
                    end: r.end,
                })
                .collect(),
            bytes,
            ptrs,
            capacity,
            timer: BatchTimer::new(&self.module),
        }
    }
}

impl FusedRig {
    /// The module the rig was built from (the schedule baseline).
    pub fn module(&self) -> &Module {
        &self.module
    }

    pub fn dims(&self) -> LaunchDims {
        self.dims
    }

    /// Kernel parameters, pointing into the buffers [`FusedRig::gpu`]
    /// allocates.
    pub fn params(&self) -> &[u8] {
        &self.params
    }

    /// A fresh device with the rig's buffers allocated (all zero), at the
    /// addresses [`FusedRig::params`] point to.
    pub fn gpu(&self) -> Gpu {
        let mut gpu = Gpu::new(self.device.clone(), self.capacity);
        for &b in &self.bytes {
            gpu.alloc(b);
        }
        gpu
    }

    /// The baseline module with its instruction list replaced (a schedule
    /// candidate or tuning result).
    pub fn with_insts(&self, insts: Vec<Instruction>) -> Module {
        self.module.with_insts(insts)
    }

    /// One-wave timing of `module` on a fresh device under `opts`
    /// (profile, counters, ...) with the rig's region.
    pub fn time_wave(
        &self,
        module: &Module,
        opts: TimingOptions,
    ) -> Result<KernelTiming, LaunchError> {
        let opts = self.in_region(opts);
        let t = timing::time_kernel(&mut self.gpu(), module, self.dims, &self.params, opts)?;
        Ok(self.with_regions(t))
    }

    /// Full-device (multi-wave) timing of `module` on a fresh device under
    /// `opts` with the rig's region.
    pub fn time_device(
        &self,
        module: &Module,
        opts: TimingOptions,
    ) -> Result<KernelTiming, LaunchError> {
        let dopts = DeviceOptions {
            base: self.in_region(opts),
            ..Default::default()
        };
        let t = time_kernel_device(&mut self.gpu(), module, self.dims, &self.params, dopts)?;
        Ok(self.with_regions(t))
    }

    /// Full-device timing of the standalone filter-transform (FX) kernel
    /// that produces this kernel's transformed filter, over the rig's
    /// filter and transformed-filter buffers.
    pub fn time_filter_transform(&self) -> Result<KernelTiming, LaunchError> {
        let (c, k) = (self.config.c, self.config.k);
        let fx = emit_filter_transform(c, k);
        let params = ParamBuilder::new()
            .push_ptr(self.ptrs[1])
            .push_ptr(self.ptrs[2])
            .build();
        time_kernel_device(
            &mut self.gpu(),
            &fx,
            LaunchDims::linear(c * k / 256, 256),
            &params,
            DeviceOptions::default(),
        )
    }

    /// A fresh decoded-descriptor timer over the baseline module, for
    /// [`FusedRig::time_candidate`].
    pub fn timer(&self) -> BatchTimer {
        self.timer.clone()
    }

    /// One-wave timing of a schedule candidate under the region options,
    /// where candidate instruction `i` is baseline instruction `perm[i]`.
    pub fn time_candidate(
        &self,
        timer: &mut BatchTimer,
        candidate: &Module,
        perm: &[u32],
    ) -> Result<KernelTiming, LaunchError> {
        timer.time(
            &mut self.gpu(),
            candidate,
            perm,
            self.dims,
            &self.params,
            self.opts,
        )
    }

    /// The schedule tuner's objective: one-wave cycles of the candidate
    /// instruction list, `None` if it fails to run.
    pub fn objective(&self) -> impl FnMut(&[Instruction], &[u32]) -> Option<u64> + Send + '_ {
        let mut timer = self.timer();
        move |insts: &[Instruction], perm: &[u32]| {
            self.time_candidate(&mut timer, &self.with_insts(insts.to_vec()), perm)
                .ok()
                .map(|t| t.wave_cycles)
        }
    }

    fn in_region(&self, opts: TimingOptions) -> TimingOptions {
        TimingOptions {
            region: self.opts.region,
            ..opts
        }
    }

    fn with_regions(&self, mut t: KernelTiming) -> KernelTiming {
        if let Some(prof) = t.profile.as_mut() {
            prof.regions = self.regions.clone();
        }
        t
    }
}
