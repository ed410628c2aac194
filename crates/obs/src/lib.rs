//! Observability for the study pipeline: the machine-readable run report.
//!
//! The ROADMAP's contract is that every PR makes a hot path *measurably*
//! faster — which requires the pipeline to emit machine-readable metrics
//! in the first place. This crate is that substrate, kept deliberately
//! std-only (the workspace builds fully offline):
//!
//! - [`report`] — [`report::RunReport`], the aggregate a completed run
//!   hands to callers: simulation phases ([`report::PhaseStat`]) and
//!   per-shard throughput, per-figure analysis timings, per-granularity
//!   actioning timings, storage and fault counts, all rendering to text
//!   and to JSON. Every number is stored in exactly one typed field;
//!   totals and rates are derived from those fields when serialized;
//! - [`json`] — a hand-rolled [`json::Json`] value with a serializer that
//!   never emits `Infinity` or `NaN` (non-finite numbers become `null`),
//!   because the report's consumers are JSON parsers with no tolerance
//!   for IEEE special values.
//!
//! Instrumentation is passive: the report observes the pipeline but
//! never feeds back into it, so enabling it cannot change simulated
//! output (the serial-vs-parallel byte-equivalence contract is tested
//! with instrumentation both on and off).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod report;

pub use json::Json;
pub use report::{
    ActioningStat, FaultStat, FigureStat, IncrementalStat, PhaseStat, RunReport, ShardStat,
    SweepStat,
};
