//! The repository benchmark: two workloads over the study pipeline,
//! end-to-end metrics from untraced runs and per-layer metrics from a
//! separate traced run. See `perfbench/NOTES.md`.

pub mod probe;
pub mod spec;
pub mod trace;
pub mod workloads;
