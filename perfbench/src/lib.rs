//! The LaPerm reproduction's benchmark: three ci-scale sweep workloads,
//! end-to-end host-time metrics from an untraced run, and per-layer
//! metrics from a traced run that times each layer's calls from outside.
//! See `perfbench/README.md` for the workloads, metrics and layer map.

#![deny(clippy::unwrap_used)]

pub mod bench;
pub mod cli;
pub mod layers;
pub mod output;
pub mod stats;
