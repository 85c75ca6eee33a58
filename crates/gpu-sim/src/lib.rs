//! A cycle-level GPU timing simulator.
//!
//! This crate is the substrate for the LaPerm reproduction: it models the
//! parts of a Kepler-class GPU that matter for thread-block (TB)
//! scheduling studies — stream multiprocessors (SMXs) with warp
//! schedulers, per-SMX L1 caches, a shared L2, a DRAM latency/bandwidth
//! model, the kernel management unit (KMU), the kernel distributor unit
//! (KDU), and a pluggable SMX-level TB scheduler.
//!
//! Kernels are described by *TB programs* — per-warp instruction streams
//! of compute, memory, barrier, and device-launch operations with concrete
//! addresses — supplied by a [`program::ProgramSource`]. Device-side
//! launches (CUDA Dynamic Parallelism or Dynamic Thread Block Launch) are
//! routed through a pluggable [`launch::DynamicLaunchModel`].
//!
//! # Example
//!
//! ```
//! use gpu_sim::config::GpuConfig;
//! use gpu_sim::engine::Simulator;
//! use gpu_sim::program::{ProgramSource, TbProgram, TbOp, KernelKindId};
//! use gpu_sim::kernel::ResourceReq;
//!
//! struct Trivial;
//! impl ProgramSource for Trivial {
//!     fn tb_program(&self, _kind: KernelKindId, _param: u64, _tb: u32) -> TbProgram {
//!         TbProgram::new(vec![TbOp::Compute(8)])
//!     }
//! }
//!
//! let mut sim = Simulator::new(GpuConfig::small_test(), Box::new(Trivial));
//! sim.launch_host_kernel(KernelKindId(0), 0, 4, ResourceReq::new(64, 16, 0));
//! let stats = sim.run_to_completion().unwrap();
//! assert!(stats.cycles > 0);
//! ```

// The engine must degrade gracefully, not panic: every fallible lookup
// returns an Option/Result that the engine converts into a structured
// `SimError`. Tests opt back in locally.
#![deny(clippy::unwrap_used)]

pub mod cache;
pub mod coalesce;
pub mod component;
pub mod config;
pub mod dram;
pub mod engine;
pub mod error;
pub mod fault;
pub mod kdu;
pub mod kernel;
pub mod kmu;
pub mod launch;
pub mod lowered;
pub mod mem;
pub mod program;
pub mod smem;
pub mod smx;
pub mod stats;
pub mod tb_sched;
pub mod trace;
pub mod types;
pub mod warp;
pub mod warp_sched;

pub use config::GpuConfig;
pub use engine::Simulator;
pub use error::SimError;
pub use stats::SimStats;
