//! # dice-benchmark — one repeatable benchmark for the DiCE engine
//!
//! Four long campaign workloads ([`workloads`]), end-to-end metrics timed
//! from outside the engine with tracing off ([`e2e`]), and a separate
//! traced run that replays every round through public functions with a
//! span around each call into a layer ([`pipeline`], [`traced`]). The
//! metric catalogue lives in [`metrics`]; `BENCHMARK.json` at the
//! repository root repeats it for the driver. See `README.md`.
//!
//! Two binaries share this library: `dice-benchmark` (end to end, plus the
//! `compare` subcommand) and `dice-benchmark-trace` (the traced run, with
//! the counting allocator of [`alloc`] installed).

#![warn(missing_docs)]

pub mod alloc;
pub mod calib;
pub mod cli;
pub mod compare;
pub mod e2e;
pub mod host;
pub mod metrics;
pub mod pipeline;
pub mod procfs;
pub mod spans;
pub mod stats;
pub mod sweep;
pub mod traced;
pub mod wire;
pub mod workloads;
