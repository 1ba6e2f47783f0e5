//! # imageproof-ledger
//!
//! The repository's benchmark (ROADMAP aim 1: measured performance, end
//! to end and layer by layer). Four named workloads, eight end-to-end
//! metrics a user of the system sees (SP time, VO size, client
//! verification time — the three costs the paper's §VII reports — plus
//! set-up, memory and owner updates), and per-layer attribution taken from
//! outside the library crates by timing calls into their public functions.
//! `README.md` beside this crate has the tables and how to run.
//!
//! * [`spec`] — the contract: names, units, directions, bounds;
//!   `BENCHMARK.json` is rendered from it.
//! * [`fixture`] — data set, ADS build, shard launch, seeded inputs.
//! * [`ops`] — the timed client operations and their correctness gate.
//! * [`trace`] — the traced pass: layer children vs composites,
//!   calibration floors, thread speed-ups.
//! * [`run`] — one run of one workload in this process.
//! * [`repeat`] — the same run in fresh child processes, compared.
//! * [`stats`], [`tally`], [`json`] — order statistics, per-layer sample
//!   means, and a minimal JSON reader.

pub mod cli;
pub mod fixture;
pub mod json;
pub mod ops;
pub mod repeat;
pub mod run;
pub mod spec;
pub mod stats;
pub mod tally;
pub mod trace;
