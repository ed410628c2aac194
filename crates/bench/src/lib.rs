//! The benchmark and reproduction binaries' shared code: the command-line
//! parsing `repro` and `bench_run` share ([`cli`]).
//!
//! The binaries are `repro` (renders every table and figure),
//! `bench_run` (writes the run report, which times every pass) and
//! `bench_kernels` (the columnar-kernel microbenchmarks). The one
//! `cargo bench` target, `ablations`, prints the DESIGN.md §5a
//! mechanism-attribution table.

pub mod cli;
