//! Execution engine for the four shared-whiteboard models of Becker et al.
//!
//! The paper (§2) defines a machine in which each node of a labeled graph
//! writes **exactly one** bounded-size message on a shared whiteboard, under an
//! adversarial scheduler, with four synchronization disciplines:
//!
//! | | frozen at activation | composed at write time |
//! |---|---|---|
//! | simultaneous | `SIMASYNC` | `SIMSYNC` |
//! | free | `ASYNC` | `SYNC` |
//!
//! This crate is that machine:
//!
//! - [`protocol`] — the [`Protocol`]/[`Node`] traits (what a protocol author
//!   implements) and the [`LocalView`] a node is allowed to see;
//! - [`board`] — the whiteboard: an append-only sequence of bit-string
//!   messages;
//! - [`model`] — the four models and their capability lattice;
//! - [`engine`] — the round loop: activation phase, adversarial pick, write,
//!   observation; bit-budget enforcement; deadlock (corrupted-configuration)
//!   detection; execution reports;
//! - [`adversary`] — schedulers: min/max-ID, seeded-random, priority
//!   permutations;
//! - [`exhaustive`] — model checking: runs a protocol under *every* adversary
//!   choice sequence (the paper's ∀-adversary quantifier, made executable for
//!   small instances) — a state-deduplicating worklist explorer plus the
//!   naive factorial DFS it is cross-checked against;
//! - [`fault`] — first-class fault plans (`crash:f` / `lossy:f`): crash-stop
//!   writers and lossy boards that compose with all four models and every
//!   execution tier (see `docs/FAULTS.md`);
//! - [`adapt`] — the Lemma 4 inclusions as executable wrappers: any protocol of
//!   a weaker model runs unchanged (same outputs) in every stronger model;
//! - [`certificate`] — machine-checkable exploration certificates: a
//!   certifying walk that serializes the distinct-configuration DAG,
//!   terminal verdicts, and counterexample witnesses for independent
//!   re-checking by the tiny `wb-verify` crate (`docs/CERTIFICATES.md`);
//! - [`bulk`] — the bulk tier: columnar execution of simultaneous protocols
//!   with a sharded board and parallel round batches, for single runs at
//!   `n ≥ 10⁵` (differentially pinned against the step engine).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapt;
pub mod adversary;
pub mod board;
pub mod bulk;
pub mod certificate;
pub mod engine;
pub mod exhaustive;
pub mod fault;
pub mod model;
pub mod protocol;

pub use adversary::{
    Adversary, CrashyAdversary, FnAdversary, LenientScheduleAdversary, MaxIdAdversary,
    MinIdAdversary, PriorityAdversary, RandomAdversary, ReplayError, ScheduleAdversary,
};
pub use board::{Entry, Whiteboard};
pub use bulk::{
    bulk_model, identity_schedule, run_bulk, run_bulk_crashed, shuffled_schedule, BulkBoard,
    BulkConfig, BulkProtocol, BulkReport, Oblivious, UnsupportedBulkModel,
};
pub use certificate::{
    certify, CertificateEdge, CertificateScenario, CertificateTerminal, CertificateWitness,
    CertifiedExploration, ExplorationCertificate,
};
pub use engine::{run, run_traced, CanonicalState, Engine, Outcome, RunReport, TraceRow};
pub use exhaustive::{
    assert_explored, explore, explore_parallel, explore_parallel_with, explore_with, DedupPolicy,
    ExplorationReport, ExploreConfig, NaiveReport, ReductionPolicy, ReductionStats,
    ScheduleFailure,
};
pub use fault::{FaultKind, FaultPlan};
pub use model::Model;
pub use protocol::{Commutativity, LocalView, Node, Protocol};
