//! `gpusim` — a functional and cycle-level simulator of the NVIDIA
//! Volta/Turing SM micro-architecture.
//!
//! This crate is the hardware substrate for the Winograd reproduction: the
//! paper's experiments run on a V100 and an RTX 2070, and every optimization
//! it studies is a property of mechanisms this simulator implements
//! explicitly:
//!
//! * 4 warp schedulers per SM with the **yield-flag** issue policy (§5.1.4,
//!   §6.1) — one extra cycle and loss of the reuse cache on a warp switch;
//! * two 64-bit **register banks** with operand **reuse caches** (§5.2.2):
//!   a 3-source FFMA whose operands collide in one bank occupies the FP32
//!   pipe for an extra cycle unless `.reuse` covers the collision;
//! * 32-bank **shared memory** with exact conflict detection, including the
//!   two-phase service of `LDS.128` (the subtlety behind the paper's Fig. 3
//!   lane arrangement);
//! * **scoreboard wait barriers** (6 per warp) and stall counts from each
//!   instruction's control code — the hardware trusts the assembler;
//! * an L2/DRAM model with sector-level coalescing and bandwidth accounting;
//! * CUDA **occupancy** rules (registers / shared memory / thread limits)
//!   that reproduce the V100-vs-RTX2070 difference of §7.1.
//!
//! Every launch decodes its instruction stream once into a flat per-PC
//! micro-op table (`decode`) that both functional execution and timing
//! step through. Functional execution ([`exec`], [`launch`]) is exact and
//! runs on whole 32-lane register rows. Timing has two levels sharing one
//! cycle-level wave loop: [`timing`] times a single wave of resident blocks
//! on one SM and extrapolates analytically across waves (the cheap
//! inner-loop model, exact on grids that are a whole multiple of full
//! waves), while [`device_sim`] dispatches every block of the launch to its
//! SM and simulates every SM to completion on run-to-completion worker
//! threads (SMs are independent, so results are the same for any worker
//! count) — so partial last waves and tail imbalance are timed instead of
//! rounded up. [`timeq`] is the deterministic event queue of the wave
//! loop's scoreboard completions.

pub mod batch;
pub mod counters;
pub(crate) mod decode;
pub mod device;
pub mod device_sim;
pub mod digest;
pub mod exec;
pub mod launch;
pub mod memory;
pub mod simprof;
pub mod timeq;
pub mod timing;

pub use batch::BatchTimer;
pub use counters::HwCounters;
pub use device::{Arch, DeviceSpec};
pub use device_sim::{
    time_kernel_device, time_kernel_device_traced, DeviceOptions, DeviceTrace, WaveSpan,
};
pub use digest::{timing_digest, Digest, TIMING_MODEL_VERSION};
pub use exec::{ExecEnv, ExecError, StepEvent, Warp, WARP_SIZE};
pub use launch::{ExecCounters, Gpu, LaunchDims, LaunchError};
pub use memory::{ConstBank, DevPtr, GlobalMemory, MemError, ParamBuilder, PARAM_BASE};
pub use simprof::{IssueEvent, KernelProfile, LineProfile, Region, StallBreakdown, StallCause};
pub use timeq::TimeQueue;
pub use timing::{KernelTiming, TimingOptions};
