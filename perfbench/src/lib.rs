//! # perfbench
//!
//! The repository benchmark. It drives the real `matchd` binary over
//! loopback with one load-generator process, checks every served outcome
//! against the batch engine, and reports the end-to-end metrics of
//! `BENCHMARK.json` (untraced run) or its per-layer metrics (traced run).
//! See `README.md` in this directory for the workloads and the layer map.

pub mod bench;
pub mod daemon;
pub mod drive;
pub mod fedpass;
pub mod gate;
pub mod host;
pub mod run;
pub mod schedule;
pub mod spans;
pub mod stats;
pub mod wire;
pub mod workload;
