//! The repository benchmark: seeded `run_job` workloads, timed end to end
//! with tracing off, and a traced run that breaks each pass down by layer.
//! See `README.md` beside this crate for the workloads and metrics.

pub mod layers;
pub mod machine;
pub mod replay;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod traced;
pub mod workloads;
