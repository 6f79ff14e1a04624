//! # wb-serve — the multi-tenant simulation daemon
//!
//! `whiteboard serve` turns the shared-whiteboard machine into a daemon:
//! clients submit explore / campaign / bulk jobs for any registry protocol
//! over a line-delimited JSON protocol on a Unix-domain socket, receive job
//! IDs immediately, stream progress events, and fetch final reports that are
//! **byte-identical** to what the CLI's `--json` paths print.
//!
//! The crate is three layers:
//!
//! - [`jobs`] — the deterministic job layer: a [`jobs::JobSpec`] names a
//!   tier × protocol × model × graph family, [`jobs::run_job`] executes it
//!   and returns a timing-free canonical JSON report. The CLI's `explore`,
//!   `campaign` and `bulk` commands call this directly and render its
//!   report, which is what makes daemon/CLI byte-identity a structural
//!   property instead of a test assertion.
//! - [`wire`] — the `wb-serve/v1` protocol: strict request parsing with
//!   stable structured error codes (`bad_json`, `bad_request`, `oversized`,
//!   `queue_full`, `shutting_down`, `unknown_job`, `job_failed`).
//! - [`daemon`] / [`client`] — the server (bounded queue, fixed worker pool
//!   on [`wb_par::ClosableQueue`], per-job cancellation, graceful drain) and
//!   a small synchronous client used by `whiteboard submit` and the tests.

pub mod client;
pub mod daemon;
pub mod jobs;
pub mod wire;

pub use client::{Client, ClientError};
pub use daemon::{Daemon, ServeConfig};
pub use jobs::{run_job, JobKind, JobReport, JobSpec};
pub use wire::{ErrorCode, WireError};
