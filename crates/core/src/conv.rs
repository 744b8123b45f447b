//! The public convolution API: every algorithm the paper evaluates, runnable
//! functionally (validated against the direct reference) and timeable on the
//! simulated V100 / RTX 2070.
//!
//! | [`Algo`] | paper name (§7.3) | execution | timing |
//! |---|---|---|---|
//! | `OursFused` | this paper | SASS on simulator | cycle model |
//! | `CudnnWinograd` | `WINOGRAD` (fused, cuDNN-like) | SASS on simulator | cycle model |
//! | `ImplicitPrecompGemm` | `IMPLICIT_PRECOMP_GEMM` | SASS SGEMM on simulator | cycle model |
//! | `ImplicitGemm` | `IMPLICIT_GEMM` | SASS SGEMM + index-recompute ops | cycle model |
//! | `Gemm` | `GEMM` | im2col + SASS SGEMM | cycle model + im2col traffic |
//! | `WinogradNonfused` | `WINOGRAD_NONFUSED` (F(4×4,3×3)) | host transforms + SASS batched GEMM | cycle model + transform traffic |
//! | `Fft` | `FFT` | host FFT convolution | analytic roofline model |
//! | `FftTiling` | `FFT_TILING` (32×32 tiles) | host tiled FFT | analytic roofline model |
//!
//! The analytic components (marked "traffic"/"roofline") cover the
//! memory-bound phases cuDNN runs as separate kernels; DESIGN.md §1
//! documents the substitution.

use gpusim::digest::module_digest;
use gpusim::{
    time_kernel_device, DeviceOptions, DeviceSpec, Digest, Gpu, KernelTiming, LaunchDims,
    ParamBuilder, TimingOptions,
};
use kernels::filter_transform::emit_filter_transform;
use kernels::gemm::{GemmConfig, GemmKernel};
use kernels::{FusedConfig, FusedKernel};
use tensor::{LayoutKind, Tensor4};

use crate::fft::{conv2d_fft, conv2d_fft_tiled, fft_size_full};
use crate::im2col::im2col;
use crate::reference::ConvProblem;
use crate::transforms::Variant;
use crate::winograd_host::NonFusedPipeline;

/// Kernel launch overhead charged per kernel in timing estimates (CUDA
/// event-measured launches cost a few microseconds; matters for Conv5-sized
/// layers).
pub const LAUNCH_OVERHEAD_S: f64 = 3.0e-6;

/// Achievable fraction of peak DRAM bandwidth for the analytically-timed
/// memory-bound phases (strided transform kernels typically sustain
/// 70–80% of peak).
pub const MEM_EFF: f64 = 0.75;

/// The algorithms of Figures 12–14.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algo {
    OursFused,
    CudnnWinograd,
    Gemm,
    ImplicitGemm,
    ImplicitPrecompGemm,
    WinogradNonfused,
    Fft,
    FftTiling,
}

impl Algo {
    pub const ALL: [Algo; 8] = [
        Algo::OursFused,
        Algo::CudnnWinograd,
        Algo::Gemm,
        Algo::ImplicitGemm,
        Algo::ImplicitPrecompGemm,
        Algo::WinogradNonfused,
        Algo::Fft,
        Algo::FftTiling,
    ];

    /// cuDNN-style display name.
    pub fn name(self) -> &'static str {
        match self {
            Algo::OursFused => "OURS",
            Algo::CudnnWinograd => "WINOGRAD",
            Algo::Gemm => "GEMM",
            Algo::ImplicitGemm => "IMPLICIT_GEMM",
            Algo::ImplicitPrecompGemm => "IMPLICIT_PRECOMP_GEMM",
            Algo::WinogradNonfused => "WINOGRAD_NONFUSED",
            Algo::Fft => "FFT",
            Algo::FftTiling => "FFT_TILING",
        }
    }
}

/// Timing result for one algorithm on one problem.
#[derive(Clone, Debug)]
pub struct AlgoTiming {
    pub algo: Algo,
    /// Total estimated time, seconds.
    pub time_s: f64,
    /// Effective throughput against *direct-convolution* FLOPs (the usual
    /// "conv TFLOPS" figure of merit).
    pub tflops_effective: f64,
    /// Cycle-model result of the dominant kernel, when one ran.
    pub kernel: Option<KernelTiming>,
    /// Phase breakdown: (label, seconds).
    pub phases: Vec<(String, f64)>,
}

/// Functional output of [`Conv::run`].
pub struct ConvOutput {
    /// NCHW output tensor.
    pub output: Tensor4,
}

/// A convolution bound to a device.
pub struct Conv {
    pub problem: ConvProblem,
    pub device: DeviceSpec,
}

impl Conv {
    pub fn new(problem: ConvProblem, device: DeviceSpec) -> Self {
        assert_eq!(
            (problem.r, problem.s, problem.pad),
            (3, 3, 1),
            "the GPU paths cover 3×3 pad-1 stride-1"
        );
        Conv { problem, device }
    }

    /// Workspace bytes the algorithm needs beyond in/out/filter (Fig. 14).
    pub fn workspace_bytes(&self, algo: Algo) -> u64 {
        let p = &self.problem;
        let (n, c, h, w, k) = (p.n as u64, p.c as u64, p.h as u64, p.w as u64, p.k as u64);
        match algo {
            // 16·K·C transformed filter (§7.3: "a small workspace to hold
            // 16KC transformed filter data").
            Algo::OursFused | Algo::CudnnWinograd => 16 * k * c * 4,
            // Column matrix (C·R·S) × (N·OH·OW).
            Algo::Gemm => c * 9 * n * h * w * 4,
            Algo::ImplicitGemm => 0,
            Algo::ImplicitPrecompGemm => c * 9 * 4, // offset table only
            Algo::WinogradNonfused => NonFusedPipeline::plan(p, Variant::F4x4).workspace_bytes(),
            Algo::Fft => {
                let s = fft_size_full(p) as u64;
                (n * c + k * c + n * k) * s * s * 8
            }
            Algo::FftTiling => {
                let s = 32u64;
                let step = s - 2;
                let tiles = h.div_ceil(step) * w.div_ceil(step);
                (n * c * tiles + k * c + n * k * tiles) * s * s * 8
            }
        }
    }

    /// Run the algorithm functionally. Input NCHW, filter KCRS; output NCHW.
    pub fn run(&self, algo: Algo, input: &Tensor4, filter: &Tensor4) -> ConvOutput {
        let p = &self.problem;
        assert_eq!(input.dims(), [p.n, p.c, p.h, p.w]);
        assert_eq!(filter.dims(), [p.k, p.c, 3, 3]);
        let output = match algo {
            Algo::OursFused | Algo::CudnnWinograd => self.run_fused(algo, input, filter),
            Algo::Gemm | Algo::ImplicitGemm | Algo::ImplicitPrecompGemm => {
                self.run_gemm_based(algo, input, filter)
            }
            Algo::WinogradNonfused => {
                NonFusedPipeline::plan(p, Variant::F4x4).run(p, input, filter)
            }
            Algo::Fft => conv2d_fft(p, input, filter),
            Algo::FftTiling => conv2d_fft_tiled(p, input, filter, 32),
        };
        ConvOutput { output }
    }

    /// Estimate time for the algorithm on the bound device (synthetic data).
    pub fn time(&self, algo: Algo) -> AlgoTiming {
        let p = &self.problem;
        let mut phases: Vec<(String, f64)> = Vec::new();
        let mut kernel: Option<KernelTiming> = None;
        match algo {
            Algo::OursFused | Algo::CudnnWinograd => {
                let (fxt, ft) = self.time_fused(algo, TimingOptions::default());
                phases.push(("filter_transform".into(), fxt + LAUNCH_OVERHEAD_S));
                phases.push(("fused_winograd".into(), ft.time_s + LAUNCH_OVERHEAD_S));
                kernel = Some(ft);
            }
            Algo::ImplicitPrecompGemm | Algo::ImplicitGemm => {
                let t = self.time_gemm_kernel(algo, TimingOptions::default());
                phases.push(("implicit_gemm".into(), t.time_s + LAUNCH_OVERHEAD_S));
                kernel = Some(t);
            }
            Algo::Gemm => {
                // Explicit im2col: a memory-bound expansion pass, then GEMM.
                let col_bytes = (p.c * 9 * p.n * p.h * p.w) as f64 * 4.0;
                let in_bytes = p.input_len() as f64 * 4.0;
                phases.push((
                    "im2col".into(),
                    (in_bytes + col_bytes) / (self.device.dram_bw * MEM_EFF) + LAUNCH_OVERHEAD_S,
                ));
                let t = self.time_gemm_kernel(algo, TimingOptions::default());
                phases.push(("gemm".into(), t.time_s + LAUNCH_OVERHEAD_S));
                kernel = Some(t);
            }
            Algo::WinogradNonfused => {
                let plan = NonFusedPipeline::plan(p, Variant::F4x4);
                // Input transform: read input, write 2.25× expanded data.
                let bw = self.device.dram_bw * MEM_EFF;
                let itf_bytes = (p.input_len() + plan.transformed_input_len) as f64 * 4.0;
                phases.push(("input_transform".into(), itf_bytes / bw + LAUNCH_OVERHEAD_S));
                // Filter transform (usually amortized; charged anyway).
                let ftf_bytes = (p.filter_len() + plan.transformed_filter_len) as f64 * 4.0;
                phases.push((
                    "filter_transform".into(),
                    ftf_bytes / bw + LAUNCH_OVERHEAD_S,
                ));
                // 36-batched GEMM on the simulator.
                let t = self.time_nonfused_gemm(TimingOptions::default());
                phases.push(("batched_gemm".into(), t.time_s + LAUNCH_OVERHEAD_S));
                kernel = Some(t);
                // Output transform: read 36·K·tiles, write output.
                let otf_bytes = (plan.transformed_output_len + p.output_len()) as f64 * 4.0;
                phases.push((
                    "output_transform".into(),
                    otf_bytes / (self.device.dram_bw * MEM_EFF) + LAUNCH_OVERHEAD_S,
                ));
            }
            Algo::Fft => {
                phases = self.fft_phases(fft_size_full(p), 1);
            }
            Algo::FftTiling => {
                let step = 32 - 2;
                let tiles = p.h.div_ceil(step) * p.w.div_ceil(step);
                phases = self.fft_phases(32, tiles);
            }
        }
        let time_s: f64 = phases.iter().map(|(_, t)| t).sum();
        AlgoTiming {
            algo,
            time_s,
            tflops_effective: p.direct_flops() / time_s / 1e12,
            kernel,
            phases,
        }
    }

    // ---- fused Winograd paths ------------------------------------------------

    fn fused_config(&self, algo: Algo) -> FusedConfig {
        let p = &self.problem;
        match algo {
            Algo::OursFused => {
                FusedConfig::ours(p.c as u32, p.h as u32, p.w as u32, p.n as u32, p.k as u32)
            }
            Algo::CudnnWinograd => {
                FusedConfig::cudnn_like(p.c as u32, p.h as u32, p.w as u32, p.n as u32, p.k as u32)
            }
            _ => unreachable!(),
        }
    }

    fn run_fused(&self, algo: Algo, input: &Tensor4, filter: &Tensor4) -> Tensor4 {
        let tf = self.transform_filter(filter);
        self.run_fused_pretransformed(algo, input, &tf)
    }

    /// Run the standalone filter-transform (FX) kernel on the simulated
    /// device: KCRS filter in, `C×4×4×K` transformed array (`F̂ = G F Gᵀ`)
    /// out. This is the data the fused kernels consume; a pure function of
    /// the filter bytes, so the network runtime hoists it behind
    /// `kernels::filter_transform::transform_cache_key` and replays the
    /// result across batches/requests bit-identically.
    pub fn transform_filter(&self, filter: &Tensor4) -> Vec<f32> {
        let p = &self.problem;
        assert_eq!(filter.dims(), [p.k, p.c, 3, 3]);
        let crsk = filter.to_layout(LayoutKind::Crsk);
        let mut gpu = self.gpu_for((crsk.len() + 16 * p.c * p.k) as u64 * 4 + (1 << 20));
        let d_filt = gpu.alloc_upload_f32(crsk.as_slice());
        let d_tf = gpu.alloc((p.c * 16 * p.k) as u64 * 4);
        let fx = emit_filter_transform(p.c as u32, p.k as u32);
        let fx_params = ParamBuilder::new().push_ptr(d_filt).push_ptr(d_tf).build();
        gpu.launch_parallel(
            &fx,
            LaunchDims::linear((p.c * p.k / 256) as u32, 256),
            &fx_params,
        )
        .expect("filter transform kernel");
        gpu.mem.download_f32(d_tf, p.c * 16 * p.k).unwrap()
    }

    /// Fused-path execution from an already-transformed filter (the hoisted
    /// transform-cache path). `tf` must be [`Conv::transform_filter`] output
    /// for this problem's filter; [`Conv::run`] is exactly the composition
    /// of the two, so executing through a transform cache is bit-identical
    /// to the on-the-fly path.
    pub fn run_fused_pretransformed(&self, algo: Algo, input: &Tensor4, tf: &[f32]) -> Tensor4 {
        let p = &self.problem;
        assert!(
            matches!(algo, Algo::OursFused | Algo::CudnnWinograd),
            "pretransformed execution covers the fused algorithms"
        );
        assert_eq!(input.dims(), [p.n, p.c, p.h, p.w]);
        assert_eq!(tf.len(), p.c * 16 * p.k, "transformed filter length");
        let cfg = self.fused_config(algo);
        // Ours reads CHWN (§4.2); the cuDNN-like kernel reads NCHW (§7).
        let chwn = if cfg.input_nchw {
            input.clone()
        } else {
            input.to_layout(LayoutKind::Chwn)
        };
        let mut gpu = self
            .gpu_for((chwn.len() + 16 * p.c * p.k + p.k * p.h * p.w * p.n) as u64 * 4 + (1 << 20));
        let d_in = gpu.alloc_upload_f32(chwn.as_slice());
        let d_tf = gpu.alloc_upload_f32(tf);
        let d_out = gpu.alloc((p.k * p.h * p.w * p.n) as u64 * 4);

        let kern = FusedKernel::emit(cfg);
        let params = kern.params(d_in, d_tf, d_out);
        gpu.launch_parallel(&kern.module, kern.launch_dims(), &params)
            .expect("fused winograd kernel");

        let raw = gpu.mem.download_f32(d_out, p.k * p.h * p.w * p.n).unwrap();
        if cfg.input_nchw {
            // The NCHW-path kernel writes NCHW directly (K = channel axis).
            Tensor4::from_vec(LayoutKind::Nchw, [p.n, p.k, p.h, p.w], raw)
        } else {
            // KHWN → NCHW.
            let mut out = Tensor4::zeros(LayoutKind::Nchw, [p.n, p.k, p.h, p.w]);
            for k in 0..p.k {
                for y in 0..p.h {
                    for x in 0..p.w {
                        for n in 0..p.n {
                            out.set([n, k, y, x], raw[((k * p.h + y) * p.w + x) * p.n + n]);
                        }
                    }
                }
            }
            out
        }
    }

    /// Filter-transform seconds and the fused kernel's device timing under
    /// `opts`, with the kernel's main loop as the timed region.
    fn time_fused(&self, algo: Algo, opts: TimingOptions) -> (f64, KernelTiming) {
        let rig = FusedKernel::emit(self.fused_config(algo)).rig(&self.device);
        let fxt = rig
            .time_filter_transform()
            .expect("filter transform timing");
        let t = rig
            .time_device(rig.module(), opts)
            .expect("fused kernel timing");
        (fxt.time_s, t)
    }

    /// Cycle-model timing of the algorithm's dominant kernel under `opts`:
    /// `counters` attaches hardware counters (see `gpusim::counters`),
    /// `profile` the `simprof` per-line stall profile (a fused kernel's
    /// profile carries its named setup / prologue / main loop / output
    /// transform regions, so reports can fold lines into kernel phases).
    /// `None` for the analytically-modeled FFT algorithms, which run no
    /// simulated kernel. Counters and profiles leave the timing numbers
    /// bit-identical to [`Conv::time`]'s, so both share its cache digest
    /// (see `gpusim::digest`).
    pub fn time_kernel(&self, algo: Algo, opts: TimingOptions) -> Option<KernelTiming> {
        match algo {
            Algo::OursFused | Algo::CudnnWinograd => Some(self.time_fused(algo, opts).1),
            Algo::Gemm | Algo::ImplicitGemm | Algo::ImplicitPrecompGemm => {
                Some(self.time_gemm_kernel(algo, opts))
            }
            Algo::WinogradNonfused => Some(self.time_nonfused_gemm(opts)),
            Algo::Fft | Algo::FftTiling => None,
        }
    }

    /// Fused-kernel timing with the full-device wave timeline attached:
    /// per-SM [`gpusim::WaveSpan`]s the `convbench --trace` export renders
    /// as one Chrome-trace lane per SM. Runs the device model in `exact`
    /// mode so every SM lane is individually simulated (the default mode
    /// would trace only one representative SM per dispatch class); the
    /// timing therefore matches `exact: true`, not the default fast path.
    pub fn time_fused_traced(&self, algo: Algo) -> (KernelTiming, gpusim::DeviceTrace) {
        let rig = FusedKernel::emit(self.fused_config(algo)).rig(&self.device);
        gpusim::time_kernel_device_traced(
            &mut rig.gpu(),
            rig.module(),
            rig.dims(),
            rig.params(),
            DeviceOptions {
                base: rig.opts,
                exact: true,
                ..Default::default()
            },
        )
        .expect("fused kernel traced timing")
    }

    /// Cross-check of the two timing models on this problem's fused kernel:
    /// `(one_wave, device)`. The retained one-wave analytic path and the
    /// full-device simulation must agree on grids that are an exact multiple
    /// of one device wave; on partial-tail grids the difference is the
    /// one-wave model's overcharge (recorded by the `multiwave` experiment
    /// binary).
    pub fn time_fused_crosscheck(&self, algo: Algo) -> (KernelTiming, KernelTiming) {
        let rig = FusedKernel::emit(self.fused_config(algo)).rig(&self.device);
        let one_wave = rig
            .time_wave(rig.module(), rig.opts)
            .expect("one-wave fused timing");
        let device = rig
            .time_device(rig.module(), rig.opts)
            .expect("device fused timing");
        (one_wave, device)
    }

    /// Main-loop-only timing of a fused configuration under `opts`
    /// (Figures 7–9, §7.2): the one-wave timing and the main-loop region's
    /// TFLOP/s.
    pub fn time_fused_mainloop(
        &self,
        mut cfg: FusedConfig,
        opts: TimingOptions,
    ) -> (KernelTiming, f64) {
        cfg.main_loop_only = true;
        let rig = FusedKernel::emit(cfg).rig(&self.device);
        let t = rig.time_wave(rig.module(), opts).expect("main loop timing");
        let tflops = t.region_tflops(&self.device, cfg.mainloop_flops_per_block());
        (t, tflops)
    }

    /// The paper's default fused configuration for this problem.
    pub fn ours_config(&self) -> FusedConfig {
        self.fused_config(Algo::OursFused)
    }

    // ---- GEMM-based paths ------------------------------------------------------

    fn gemm_dims(&self) -> (u32, u32, u32) {
        let p = &self.problem;
        let m = p.k as u32;
        let ncols = (p.n * p.h * p.w) as u32;
        let n_pad = ncols.div_ceil(128) * 128;
        let kd = (p.c * 9) as u32;
        (m, n_pad, kd)
    }

    fn gemm_config(&self, algo: Algo) -> GemmConfig {
        let (m, n, kd) = self.gemm_dims();
        let mut cfg = GemmConfig::new(m, n, kd);
        if algo == Algo::ImplicitGemm {
            // Index recomputation per loaded B element (≈ the div/mod chain
            // cuDNN's non-precomputed variant executes).
            cfg.extra_index_ops = 6;
        }
        cfg
    }

    fn run_gemm_based(&self, algo: Algo, input: &Tensor4, filter: &Tensor4) -> Tensor4 {
        let p = &self.problem;
        let (m, n_pad, kd) = self.gemm_dims();
        let ncols = p.n * p.h * p.w;
        // A (transposed, Kd×M): filter as CRS×K.
        let crsk = filter.to_layout(LayoutKind::Crsk); // (C,R,S,K) == CRS×K
                                                       // B (Kd×N): im2col, padded to n_pad columns.
        let cols = im2col(p, input);
        let mut b = vec![0.0f32; (kd * n_pad) as usize];
        for row in 0..kd as usize {
            b[row * n_pad as usize..row * n_pad as usize + ncols]
                .copy_from_slice(&cols[row * ncols..(row + 1) * ncols]);
        }
        let kern = GemmKernel::emit(self.gemm_config(algo));
        let mut gpu = self.gpu_for(((kd * m + kd * n_pad + m * n_pad) as u64) * 4 + (1 << 20));
        let da = gpu.alloc_upload_f32(crsk.as_slice());
        let db = gpu.alloc_upload_f32(&b);
        let dc = gpu.alloc((m * n_pad) as u64 * 4);
        gpu.launch_parallel(&kern.module, kern.launch_dims(), &kern.params(da, db, dc))
            .expect("gemm kernel");
        let c = gpu.mem.download_f32(dc, (m * n_pad) as usize).unwrap();
        // C is K × (N·OH·OW) padded; repack to NCHW.
        let mut out = Tensor4::zeros(LayoutKind::Nchw, [p.n, p.k, p.h, p.w]);
        for k in 0..p.k {
            for n in 0..p.n {
                for y in 0..p.h {
                    for x in 0..p.w {
                        out.set(
                            [n, k, y, x],
                            c[k * n_pad as usize + (n * p.h + y) * p.w + x],
                        );
                    }
                }
            }
        }
        out
    }

    fn time_gemm_kernel(&self, algo: Algo, opts: TimingOptions) -> KernelTiming {
        let (m, n_pad, kd) = self.gemm_dims();
        let kern = GemmKernel::emit(self.gemm_config(algo));
        let mut gpu = self.gpu_for(((kd * m + kd * n_pad + m * n_pad) as u64) * 4 + (1 << 20));
        let da = gpu.alloc((kd * m) as u64 * 4);
        let db = gpu.alloc((kd * n_pad) as u64 * 4);
        let dc = gpu.alloc((m * n_pad) as u64 * 4);
        time_kernel_device(
            &mut gpu,
            &kern.module,
            kern.launch_dims(),
            &kern.params(da, db, dc),
            DeviceOptions {
                base: opts,
                ..Default::default()
            },
        )
        .expect("gemm timing")
    }

    fn time_nonfused_gemm(&self, opts: TimingOptions) -> KernelTiming {
        let p = &self.problem;
        // 36 batches of [K×C] × [C×tiles] with F(4×4,3×3) tiling.
        let tiles = (p.out_h().div_ceil(4) * p.out_w().div_ceil(4) * p.n) as u32;
        let n_pad = tiles.div_ceil(128) * 128;
        let cfg = GemmConfig::new(p.k as u32, n_pad, p.c as u32).batched(36);
        let kern = GemmKernel::emit(cfg);
        let bytes = 36u64
            * ((p.k * p.c) as u64 + (p.c as u64 * n_pad as u64) + (p.k as u64 * n_pad as u64))
            * 4;
        let mut gpu = self.gpu_for(bytes + (1 << 20));
        let da = gpu.alloc(36 * (p.c * p.k) as u64 * 4);
        let db = gpu.alloc(36 * p.c as u64 * n_pad as u64 * 4);
        let dc = gpu.alloc(36 * p.k as u64 * n_pad as u64 * 4);
        time_kernel_device(
            &mut gpu,
            &kern.module,
            kern.launch_dims(),
            &kern.params(da, db, dc),
            DeviceOptions {
                base: opts,
                ..Default::default()
            },
        )
        .expect("nonfused gemm timing")
    }

    // ---- FFT analytic model ------------------------------------------------------

    /// Roofline phases for FFT-based convolution with transform size `s` and
    /// `tiles` tiles per image (1 = full-image FFT).
    fn fft_phases(&self, s: usize, tiles: usize) -> Vec<(String, f64)> {
        let p = &self.problem;
        let dev = &self.device;
        let s2 = (s * s) as f64;
        let lg = (s as f64).log2();
        // One 2-D complex FFT: 2·S rows/cols × 5·S·log2 S ≈ 10·S²·log2 S.
        let fft2d_flops = 10.0 * s2 * lg;
        let cplx = 8.0; // bytes per complex f32
        let roof = |flops: f64, bytes: f64| {
            (flops / dev.peak_fp32_flops()).max(bytes / (dev.dram_bw * MEM_EFF))
        };

        let n_in = (p.n * p.c * tiles) as f64;
        let n_f = (p.k * p.c) as f64;
        let n_out = (p.n * p.k * tiles) as f64;
        let mut phases = Vec::new();
        phases.push((
            "fft_input".into(),
            roof(n_in * fft2d_flops, n_in * s2 * (4.0 + cplx)) + LAUNCH_OVERHEAD_S,
        ));
        phases.push((
            "fft_filter".into(),
            roof(n_f * fft2d_flops, n_f * (9.0 * 4.0 + s2 * cplx)) + LAUNCH_OVERHEAD_S,
        ));
        // Pointwise complex multiply-accumulate over channels — a batched
        // S²-deep CGEMM. With standard tiling each operand streams from DRAM
        // O(1) times; charge two passes (read + accumulate round trips).
        let macs = (p.n * p.k * p.c * tiles) as f64 * s2;
        let traffic = (n_in + n_f + n_out) * s2 * cplx * 2.0;
        phases.push((
            "cgemm_pointwise".into(),
            roof(macs * 8.0, traffic) + LAUNCH_OVERHEAD_S,
        ));
        phases.push((
            "ifft_output".into(),
            roof(n_out * fft2d_flops, n_out * s2 * (cplx + 4.0)) + LAUNCH_OVERHEAD_S,
        ));
        phases
    }

    fn gpu_for(&self, bytes: u64) -> Gpu {
        // Headroom for allocation alignment and rounding.
        let cap = (bytes + bytes / 2 + (1 << 24)) as usize;
        Gpu::new(self.device.clone(), cap.next_power_of_two())
    }

    // ---- content digests for the sweep cache -----------------------------------

    /// Everything every timing path depends on besides the kernels: device,
    /// problem shape, and the analytic-model constants.
    fn base_digest(&self) -> Digest {
        let p = &self.problem;
        let mut d = Digest::new();
        // Timing-model semantics version: kernel timings moved when the
        // full-device multi-wave model replaced one-wave extrapolation, so
        // every Conv-level cache entry must move with them.
        d.u32(gpusim::TIMING_MODEL_VERSION);
        self.device.digest_into(&mut d);
        for v in [p.n, p.c, p.h, p.w, p.k, p.r, p.s, p.pad] {
            d.u64(v as u64);
        }
        d.f64(LAUNCH_OVERHEAD_S).f64(MEM_EFF);
        d
    }

    /// Content address of [`Conv::time`] for `algo`: device + problem +
    /// model constants + the exact bytes and launch geometry of every kernel
    /// the path simulates. Emission is pure codegen (microseconds), so
    /// computing the digest is cheap relative to a simulation; a change to a
    /// kernel emitter changes the program bytes and hence the address, while
    /// unrelated kernels keep their cache entries.
    pub fn time_digest(&self, algo: Algo) -> Digest {
        let p = &self.problem;
        let mut d = self.base_digest();
        d.str(algo.name());
        match algo {
            Algo::OursFused | Algo::CudnnWinograd => {
                let fx = emit_filter_transform(p.c as u32, p.k as u32);
                module_digest(&fx, &mut d);
                LaunchDims::linear((p.c * p.k / 256) as u32, 256).digest_into(&mut d);
                let kern = FusedKernel::emit(self.fused_config(algo));
                module_digest(&kern.module, &mut d);
                kern.launch_dims().digest_into(&mut d);
                d.u32(kern.region.0).u32(kern.region.1);
            }
            Algo::Gemm | Algo::ImplicitGemm | Algo::ImplicitPrecompGemm => {
                let kern = GemmKernel::emit(self.gemm_config(algo));
                module_digest(&kern.module, &mut d);
                kern.launch_dims().digest_into(&mut d);
            }
            Algo::WinogradNonfused => {
                let tiles = (p.out_h().div_ceil(4) * p.out_w().div_ceil(4) * p.n) as u32;
                let n_pad = tiles.div_ceil(128) * 128;
                let cfg = GemmConfig::new(p.k as u32, n_pad, p.c as u32).batched(36);
                let kern = GemmKernel::emit(cfg);
                module_digest(&kern.module, &mut d);
                kern.launch_dims().digest_into(&mut d);
            }
            // Purely analytic: device + problem + constants say it all.
            Algo::Fft | Algo::FftTiling => {}
        }
        d
    }

    /// Content address of [`Conv::time_fused_mainloop`] for `cfg` (the
    /// Figures 7–9 sweeps): device + problem + constants + the emitted
    /// main-loop-only kernel's bytes, launch geometry, timed region, and the
    /// FLOP count the region TFLOPS figure divides by.
    pub fn mainloop_digest(&self, mut cfg: FusedConfig) -> Digest {
        cfg.main_loop_only = true;
        let kern = FusedKernel::emit(cfg);
        let mut d = self.base_digest();
        d.str("mainloop");
        module_digest(&kern.module, &mut d);
        kern.launch_dims().digest_into(&mut d);
        d.u32(kern.region.0).u32(kern.region.1);
        d.f64(cfg.mainloop_flops_per_block());
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::conv2d_direct;
    use tensor::allclose;

    fn small_problem() -> ConvProblem {
        ConvProblem::resnet3x3(32, 8, 8, 64)
    }

    fn data(p: &ConvProblem) -> (Tensor4, Tensor4) {
        (
            Tensor4::random(LayoutKind::Nchw, [p.n, p.c, p.h, p.w], -1.0, 1.0, 7),
            Tensor4::random(LayoutKind::Kcrs, [p.k, p.c, 3, 3], -1.0, 1.0, 8),
        )
    }

    #[test]
    fn ours_fused_matches_direct() {
        let p = small_problem();
        let (input, filter) = data(&p);
        let conv = Conv::new(p, DeviceSpec::v100());
        let want = conv2d_direct(&p, &input, &filter);
        let got = conv.run(Algo::OursFused, &input, &filter);
        assert!(allclose(want.as_slice(), got.output.as_slice(), 1e-3, 1e-3));
    }

    #[test]
    fn cudnn_winograd_matches_direct() {
        let p = ConvProblem::resnet3x3(32, 64, 7, 64);
        let (input, filter) = data(&p);
        let conv = Conv::new(p, DeviceSpec::rtx2070());
        let want = conv2d_direct(&p, &input, &filter);
        let got = conv.run(Algo::CudnnWinograd, &input, &filter);
        assert!(allclose(want.as_slice(), got.output.as_slice(), 1e-3, 1e-3));
    }

    #[test]
    fn gemm_algos_match_direct() {
        let p = small_problem();
        let (input, filter) = data(&p);
        let conv = Conv::new(p, DeviceSpec::v100());
        let want = conv2d_direct(&p, &input, &filter);
        for algo in [Algo::Gemm, Algo::ImplicitGemm, Algo::ImplicitPrecompGemm] {
            let got = conv.run(algo, &input, &filter);
            assert!(
                allclose(want.as_slice(), got.output.as_slice(), 1e-3, 1e-3),
                "{algo:?}"
            );
        }
    }

    #[test]
    fn host_algos_match_direct() {
        let p = ConvProblem::resnet3x3(2, 8, 8, 8);
        let (input, filter) = data(&p);
        let conv = Conv::new(p, DeviceSpec::v100());
        let want = conv2d_direct(&p, &input, &filter);
        for algo in [Algo::WinogradNonfused, Algo::Fft, Algo::FftTiling] {
            let got = conv.run(algo, &input, &filter);
            assert!(
                allclose(want.as_slice(), got.output.as_slice(), 1e-2, 1e-2),
                "{algo:?}"
            );
        }
    }

    #[test]
    fn workspace_ordering_matches_fig14() {
        // FFT variants need far more workspace than ours (Fig. 14).
        let p = ConvProblem::resnet3x3(32, 64, 56, 64);
        let conv = Conv::new(p, DeviceSpec::v100());
        let ours = conv.workspace_bytes(Algo::OursFused);
        assert_eq!(ours, 16 * 64 * 64 * 4); // 0.25 MB for Conv2 (§7.3)
        assert!(conv.workspace_bytes(Algo::Fft) > 100 * ours);
        assert_eq!(conv.workspace_bytes(Algo::ImplicitGemm), 0);
        assert!(conv.workspace_bytes(Algo::WinogradNonfused) > ours);
    }

    #[test]
    fn time_digests_separate_algos_and_problems() {
        let conv = Conv::new(ConvProblem::resnet3x3(32, 64, 14, 64), DeviceSpec::v100());
        let a = conv.time_digest(Algo::OursFused).hex();
        // Deterministic, and sensitive to algorithm, problem, and device.
        assert_eq!(a, conv.time_digest(Algo::OursFused).hex());
        assert_ne!(a, conv.time_digest(Algo::CudnnWinograd).hex());
        let bigger = Conv::new(ConvProblem::resnet3x3(64, 64, 14, 64), DeviceSpec::v100());
        assert_ne!(a, bigger.time_digest(Algo::OursFused).hex());
        let turing = Conv::new(
            ConvProblem::resnet3x3(32, 64, 14, 64),
            DeviceSpec::rtx2070(),
        );
        assert_ne!(a, turing.time_digest(Algo::OursFused).hex());
        // The main-loop sweep digest is its own namespace.
        assert_ne!(a, conv.mainloop_digest(conv.ours_config()).hex());
    }

    #[test]
    fn timing_runs_and_orders_sanely() {
        // Small-ish layer: ours must beat the cuDNN-like fused kernel and
        // the GEMM path in simulated time.
        let p = ConvProblem::resnet3x3(32, 64, 14, 64);
        let conv = Conv::new(p, DeviceSpec::rtx2070());
        let ours = conv.time(Algo::OursFused);
        let gemm = conv.time(Algo::ImplicitPrecompGemm);
        assert!(ours.time_s > 0.0 && gemm.time_s > 0.0);
        assert!(
            ours.time_s < gemm.time_s,
            "ours {} vs gemm {}",
            ours.time_s,
            gemm.time_s
        );
        assert!(!ours.phases.is_empty());
    }
}
