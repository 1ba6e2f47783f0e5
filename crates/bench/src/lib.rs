//! Experiment infrastructure for the `figures` binary, which regenerates
//! every figure of the paper's evaluation (§VII) from one query-and-verify
//! pass per point ([`measure::measure`]), and for the `ablation` bench.
//!
//! The paper's testbed is a 256 GB Xeon server over MirFlickr1M; this
//! reproduction scales every axis down by the same factors (see
//! `DESIGN.md` §3.4) while keeping the *relative* sweeps identical, so the
//! figures' shapes — which scheme wins, by what factor, and each metric's
//! trend along the swept axis — are comparable.

pub mod fixture;
pub mod measure;
pub mod table;

pub use fixture::{Fixture, FixtureConfig};
pub use table::Table;
