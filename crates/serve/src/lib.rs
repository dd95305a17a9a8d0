//! # hstencil-serve
//!
//! Stencil-as-a-service: an admission-controlled, batching job server
//! over the native executor (ROADMAP item 2, DESIGN.md §13).
//!
//! A job is `(pattern, radius, coefficients, grid, sweeps)`. Jobs are
//! submitted concurrently from any number of threads, pass admission
//! control (a bounded queue with a typed, immediate
//! [`JobError::QueueFull`] rejection), and are batched by batch key
//! (pattern, radius, shape class, width bucket) so kernel-dispatch
//! resolution amortizes across a batch. A cache-resident job then
//! runs whole on the executor thread; a streaming job runs on the
//! global [`hstencil_core::ThreadPool`] with its grid sharded into
//! bands that recompute ghosts instead of exchanging halos. The
//! pipeline is a chain of explicit stages connected by bounded
//! channels (the DAM-RS `Context`/`Sender`/`Receiver` shape), so
//! backpressure propagates end to end and per-stage queue depth /
//! service time, and a fixed-size latency histogram, are observable
//! through [`Server::snapshot`].
//!
//! The crate ships with its harness: [`loadgen`] drives a server from a
//! seeded, wall-clock-free arrival schedule
//! ([`hstencil_testkit::load`]), and [`loadgen::reference_result`] is
//! the bit-identity oracle every served job must match exactly. The
//! failure paths are first-class too — [`job::Fault`] injects kernel
//! panics (driving the pool's `LANE_PANICKED` containment) and
//! deterministic executor stalls for the admission tests.

pub mod job;
mod latency;
pub mod loadgen;
pub mod server;
pub mod stage;

pub use job::{Fault, Hold, JobError, JobHandle, JobId, JobRequest};
pub use loadgen::{job_for, reference_result, run_open_loop, Pace, RunOutcome};
pub use server::{ServeConfig, Server, ServerSnapshot};
pub use stage::{Context, StageSnapshot};
