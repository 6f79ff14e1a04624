//! Certificate tamper battery: every registry protocol certifies and
//! independently verifies on small graphs, and every mutation class a
//! certificate can suffer is rejected with a structured error naming the
//! offending edge, terminal, or witness.
//!
//! The mutations are applied to the *struct* and re-serialized through
//! [`ExplorationCertificate::to_json_line`], which recomputes the document
//! digest honestly — so each test exercises the semantic replay checks in
//! `wb-verify`, not the byte-level digest gate (that gate gets its own
//! tests at the bottom, plus property coverage in `tests/property_based.rs`).

use wb_bench::certify::{certify_spec, CertifiedRun, Provenance};
use wb_core::registry::{self, BoundOracle, ProtocolVisitor, PROTOCOLS};
use wb_graph::enumerate::all_graphs;
use wb_graph::{generators, Graph};
use wb_runtime::certificate::CertificateEdge;
use wb_runtime::{explore_with, Engine, ExploreConfig, FaultPlan, Protocol};
use wb_verify::{machine::Machine, verify_line, VerifyError};

/// Certify `spec` on `g` under its native model.
fn certified(spec: &str, g: &Graph) -> CertifiedRun {
    certify_spec(
        spec,
        g,
        None,
        Provenance::default(),
        &ExploreConfig::default(),
    )
    .unwrap_or_else(|e| panic!("{spec} must certify: {e}"))
}

/// The known off-promise instance for `async-bipartite-bfs`: a triangle
/// with a pendant tail, whose exploration deadlocks (witness-bearing).
fn triangle_tail() -> Graph {
    Graph::from_edges(5, &[(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
}

// ---------------------------------------------------------------------------
// Valid certificates: the whole registry, small graphs.
// ---------------------------------------------------------------------------

/// `(distinct states, terminals, merged, failures)` of the plain explorer
/// on the same protocol, graph and plan as a certificate.
struct ExploreCounts<'a> {
    g: &'a Graph,
    config: &'a ExploreConfig,
}

impl ProtocolVisitor for ExploreCounts<'_> {
    type Result = (u64, u64, u64, usize);

    fn visit<P, B>(self, protocol: P, bind: B) -> Self::Result
    where
        P: Protocol + Clone + Send + Sync,
        P::Node: Send + Sync,
        P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
        B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
    {
        let oracle = bind(self.g);
        let report = explore_with(&protocol, self.g, self.config, |o, died| oracle(o, died));
        (
            report.distinct_states,
            report.terminals,
            report.merged,
            report.failures.len(),
        )
    }
}

/// Every registry protocol on every labeled graph with n ≤ 4, fault-free
/// and under `crash:1`: each certificate passes `wb-verify`, and its counts
/// equal the plain explorer's. `wb-verify` replays its own machine, so this
/// checks the explorer's reachable graph independently across the registry.
#[test]
fn every_registry_protocol_certifies_and_verifies() {
    for faults in [None, Some(FaultPlan::crash_stop(1))] {
        let config = ExploreConfig::default().with_faults(faults);
        for g in (1..=4).flat_map(all_graphs) {
            for info in PROTOCOLS {
                let label = format!("{} on {g:?} ({faults:?})", info.name);
                let run = certify_spec(info.name, &g, None, Provenance::default(), &config)
                    .unwrap_or_else(|e| panic!("{label} must certify: {e}"));
                let summary = verify_line(&run.certificate.to_json_line())
                    .unwrap_or_else(|e| panic!("fresh {label} certificate must verify: {e}"));
                assert_eq!(summary.protocol, info.name);
                assert_eq!(summary.states, run.distinct_states, "{label}");
                assert_eq!(summary.terminals as u64, run.terminals, "{label}");
                assert_eq!(summary.failures, run.failures, "{label}");
                let explored = registry::dispatch(
                    info.name,
                    g.n(),
                    ExploreCounts {
                        g: &g,
                        config: &config,
                    },
                )
                .unwrap();
                assert_eq!(
                    explored,
                    (run.distinct_states, run.terminals, run.merged, run.failures),
                    "{label}: certificate and explorer disagree"
                );
            }
        }
    }
}

#[test]
fn witness_bearing_certificate_verifies_end_to_end() {
    let run = certified("async-bipartite-bfs", &triangle_tail());
    assert!(run.failures > 0, "triangle-tail must deadlock");
    let summary = verify_line(&run.certificate.to_json_line())
        .expect("witness-bearing certificate must verify");
    assert_eq!(summary.failures, run.failures);
}

// ---------------------------------------------------------------------------
// Fingerprint parity: the verifier's naive Machine must hash configurations
// exactly like the engine's canonical fingerprint, on every model.
// ---------------------------------------------------------------------------

struct Parity<'a> {
    g: &'a Graph,
}

impl ProtocolVisitor for Parity<'_> {
    type Result = Result<(), String>;

    fn visit<P, B>(self, protocol: P, _bind: B) -> Self::Result
    where
        P: Protocol + Clone + Send + Sync,
        P::Node: Send + Sync,
        P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
        B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
    {
        let mut engine = Engine::new(&protocol, self.g);
        engine.activation_phase();
        let mut machine = Machine::new(&protocol, self.g);
        assert_eq!(
            engine.canonical_fingerprint().as_u128(),
            machine.hash(),
            "initial configuration hash diverges"
        );
        // Drive one greedy schedule to completion, comparing after every
        // write: this crosses every hash ingredient (statuses, frozen
        // messages, board entries) for this protocol's model.
        let mut steps = 0;
        while let Some(&pick) = engine.active_set().first() {
            engine.step(pick);
            engine.activation_phase();
            machine
                .step(pick)
                .map_err(|f| format!("machine refused step {pick}: {f}"))?;
            assert_eq!(
                engine.canonical_fingerprint().as_u128(),
                machine.hash(),
                "hash diverges after step {steps} (pick {pick})"
            );
            steps += 1;
        }
        assert!(!machine.has_active(), "machine lags the engine's schedule");
        Ok(())
    }
}

#[test]
fn fingerprint_parity() {
    // One protocol per native model of the lattice, plus the off-promise
    // witness instance (exercises deadlocked boards).
    for (spec, g) in [
        ("build", generators::path(4)),
        ("mis:1", generators::cycle(4)),
        ("bfs", generators::path(4)),
        ("async-bipartite-bfs", generators::path(4)),
        ("async-bipartite-bfs", triangle_tail()),
    ] {
        registry::dispatch(spec, g.n(), Parity { g: &g })
            .unwrap_or_else(|e| panic!("{spec}: {e}"))
            .unwrap_or_else(|e| panic!("{spec}: {e}"));
    }
}

// ---------------------------------------------------------------------------
// Tamper battery: each mutation class is rejected with the structured error
// naming the offending edge / terminal / witness.
// ---------------------------------------------------------------------------

/// Base certificate for the edge/terminal mutations: small, passing, with a
/// non-trivial transition DAG.
fn base() -> CertifiedRun {
    certified("mis:1", &generators::path(4))
}

#[test]
fn tamper_dropped_edge_is_rejected() {
    let mut run = base();
    let initial = run.certificate.initial;
    let pos = run
        .certificate
        .edges
        .iter()
        .position(|e| e.from == initial)
        .expect("initial configuration has outgoing edges");
    let dropped = run.certificate.edges.remove(pos);
    let err = verify_line(&run.certificate.to_json_line()).unwrap_err();
    assert_eq!(
        err,
        VerifyError::MissingEdge {
            config: dropped.from,
            writer: dropped.writer,
        }
    );
}

#[test]
fn tamper_forged_edge_is_rejected() {
    let mut run = base();
    // A source hash no replay reaches: the walk completes, then the
    // unused-edge sweep names the forgery.
    let forged = CertificateEdge {
        from: u128::MAX,
        writer: 1,
        crash: false,
        to: run.certificate.initial,
    };
    run.certificate.edges.push(forged.clone());
    run.certificate.edges.sort();
    let err = verify_line(&run.certificate.to_json_line()).unwrap_err();
    assert_eq!(
        err,
        VerifyError::UnreachableEdge {
            from: forged.from,
            writer: forged.writer,
        }
    );
}

#[test]
fn tamper_stale_edge_target_is_rejected() {
    let mut run = base();
    let initial = run.certificate.initial;
    let pos = run
        .certificate
        .edges
        .iter()
        .position(|e| e.from == initial)
        .expect("initial configuration has outgoing edges");
    let honest_to = run.certificate.edges[pos].to;
    run.certificate.edges[pos].to ^= 1;
    let mutated = run.certificate.edges[pos].clone();
    let err = verify_line(&run.certificate.to_json_line()).unwrap_err();
    assert_eq!(
        err,
        VerifyError::EdgeTargetMismatch {
            from: mutated.from,
            writer: mutated.writer,
            claimed: mutated.to,
            actual: honest_to,
        }
    );
}

#[test]
fn tamper_flipped_verdict_is_rejected() {
    let mut run = base();
    let t = &mut run.certificate.terminals[0];
    t.verdict = !t.verdict;
    let (config, claimed) = (t.config, t.verdict);
    let err = verify_line(&run.certificate.to_json_line()).unwrap_err();
    assert_eq!(err, VerifyError::TerminalVerdict { config, claimed });
}

#[test]
fn tamper_truncated_terminal_set_is_rejected() {
    let mut run = base();
    let removed = run.certificate.terminals.remove(0);
    let err = verify_line(&run.certificate.to_json_line()).unwrap_err();
    assert_eq!(
        err,
        VerifyError::MissingTerminal {
            config: removed.config,
        }
    );
}

#[test]
fn tamper_stale_initial_hash_is_rejected() {
    let mut run = base();
    let honest = run.certificate.initial;
    run.certificate.initial ^= 1;
    let err = verify_line(&run.certificate.to_json_line()).unwrap_err();
    assert_eq!(
        err,
        VerifyError::InitialMismatch {
            claimed: honest ^ 1,
            actual: honest,
        }
    );
}

#[test]
fn tamper_reordered_witness_is_rejected() {
    let mut run = certified("async-bipartite-bfs", &triangle_tail());
    assert!(!run.certificate.witnesses.is_empty());
    let w = &mut run.certificate.witnesses[0];
    assert!(
        w.schedule.len() >= 2,
        "witness schedule long enough to reorder"
    );
    let original = w.schedule.clone();
    w.schedule.reverse();
    if w.schedule == original {
        // Palindromic schedule: rotate instead so the replay truly diverges.
        w.schedule.rotate_left(1);
    }
    assert_ne!(w.schedule, original);
    let err = verify_line(&run.certificate.to_json_line()).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::WitnessStep { witness: 0, .. }
                | VerifyError::WitnessTrace { witness: 0, .. }
        ),
        "reordered witness must fail strict replay naming witness 0, got {err}"
    );
}

#[test]
fn tamper_state_count_is_rejected() {
    let mut run = base();
    let honest = run.certificate.states;
    run.certificate.states += 1;
    let err = verify_line(&run.certificate.to_json_line()).unwrap_err();
    assert_eq!(
        err,
        VerifyError::StateCount {
            claimed: honest + 1,
            actual: honest,
        }
    );
}

// ---------------------------------------------------------------------------
// Faulted certificates: the recorded fault schedule is replayed, and every
// way of lying about it — stripping the plan, inflating the budget, dropping
// or relabeling crash edges, forging a witness's died set — is rejected.
// ---------------------------------------------------------------------------

/// Certify `spec` on `g` under a `crash:1` fault plan.
fn certified_faulted(spec: &str, g: &Graph) -> CertifiedRun {
    certify_spec(
        spec,
        g,
        None,
        Provenance::default(),
        &ExploreConfig::default().with_faults(Some(FaultPlan::crash_stop(1))),
    )
    .unwrap_or_else(|e| panic!("{spec} must certify under crash:1: {e}"))
}

#[test]
fn faulted_certificate_records_the_plan_and_verifies() {
    let run = certified_faulted("mis:1", &generators::path(4));
    assert_eq!(run.certificate.faults.as_deref(), Some("crash:1"));
    assert!(
        run.certificate.edges.iter().any(|e| e.crash),
        "a crash:1 exploration must branch over at least one dying write"
    );
    let line = run.certificate.to_json_line();
    assert!(line.contains(r#""faults":"crash:1""#));
    let summary =
        verify_line(&line).expect("fresh faulted certificate must replay under its own plan");
    assert_eq!(summary.states, run.distinct_states);
}

#[test]
fn tamper_stripped_fault_plan_is_rejected() {
    // Erasing the plan leaves crash-marked edges in a nominally fault-free
    // document: the parser's structural gate refuses it before replay.
    let mut run = certified_faulted("mis:1", &generators::path(4));
    run.certificate.faults = None;
    let err = verify_line(&run.certificate.to_json_line()).unwrap_err();
    assert!(
        matches!(err, VerifyError::Field { field: "edges", .. }),
        "stripping the fault plan must orphan the crash edges, got {err}"
    );
}

#[test]
fn tamper_inflated_fault_budget_is_rejected() {
    // Claiming crash:2 over a crash:1 DAG owes crash edges the exploration
    // never took (configurations with one crash already spent the budget).
    let mut run = certified_faulted("mis:1", &generators::path(4));
    run.certificate.faults = Some("crash:2".into());
    let err = verify_line(&run.certificate.to_json_line()).unwrap_err();
    assert!(
        matches!(err, VerifyError::MissingEdge { .. }),
        "an inflated budget must demand crash edges that do not exist, got {err}"
    );
}

#[test]
fn tamper_dropped_crash_edge_is_rejected() {
    let mut run = certified_faulted("mis:1", &generators::path(4));
    let initial = run.certificate.initial;
    let pos = run
        .certificate
        .edges
        .iter()
        .position(|e| e.from == initial && e.crash)
        .expect("initial configuration has crash edges under crash:1");
    let dropped = run.certificate.edges.remove(pos);
    let err = verify_line(&run.certificate.to_json_line()).unwrap_err();
    assert_eq!(
        err,
        VerifyError::MissingEdge {
            config: dropped.from,
            writer: dropped.writer,
        }
    );
}

#[test]
fn tamper_relabeled_crash_flag_is_rejected() {
    // Flipping a crash edge's marker claims the write landed on an edge
    // whose target hash says it died — colliding with the honest survive
    // edge for the same (config, writer) pair, which the parser's
    // duplicate-edge gate catches before replay.
    let mut run = certified_faulted("mis:1", &generators::path(4));
    let initial = run.certificate.initial;
    let pos = run
        .certificate
        .edges
        .iter()
        .position(|e| e.from == initial && e.crash)
        .expect("initial configuration has crash edges under crash:1");
    run.certificate.edges[pos].crash = false;
    run.certificate.edges.sort();
    let err = verify_line(&run.certificate.to_json_line()).unwrap_err();
    assert!(
        matches!(err, VerifyError::DuplicateEdge { .. }),
        "a relabeled crash flag must break the edge accounting, got {err}"
    );
}

#[test]
fn tamper_witness_died_set_is_rejected() {
    // Forging a witness's crash schedule diverges from the pinned hash
    // trace at the first affected step: the same picks with a different
    // fate visit different configurations.
    let mut run = certified_faulted("async-bipartite-bfs", &triangle_tail());
    assert!(
        !run.certificate.witnesses.is_empty(),
        "triangle-tail must still fail under crash:1"
    );
    let w = &mut run.certificate.witnesses[0];
    if w.died.is_empty() {
        w.died = vec![w.schedule[0]];
    } else {
        w.died.clear();
    }
    let err = verify_line(&run.certificate.to_json_line()).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::WitnessTrace { witness: 0, .. }
                | VerifyError::WitnessStep { witness: 0, .. }
                | VerifyError::WitnessShape { witness: 0, .. }
        ),
        "a forged died set must fail strict replay naming witness 0, got {err}"
    );
}

// ---------------------------------------------------------------------------
// Byte-level gates: anything that is not the one canonical spelling of the
// body is rejected before replay even starts.
// ---------------------------------------------------------------------------

#[test]
fn tamper_corrupted_bytes_are_rejected_by_digest_gate() {
    let line = base().certificate.to_json_line();
    // Flip one digit inside the states field, leaving the digest untouched.
    let idx = line.find("\"states\":").expect("states key present") + "\"states\":".len();
    let mut bytes = line.into_bytes();
    bytes[idx] = if bytes[idx] == b'9' {
        b'8'
    } else {
        bytes[idx] + 1
    };
    let corrupted = String::from_utf8(bytes).unwrap();
    let err = verify_line(&corrupted).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::DigestMismatch | VerifyError::NonCanonical | VerifyError::Malformed(_)
        ),
        "byte corruption must trip a pre-replay gate, got {err}"
    );
}

#[test]
fn non_canonical_spelling_is_rejected() {
    let line = base().certificate.to_json_line();
    let padded = line.replacen(",\"edges\":", ", \"edges\":", 1);
    assert_ne!(line, padded);
    assert_eq!(verify_line(&padded).unwrap_err(), VerifyError::NonCanonical);
}

#[test]
fn wrong_format_version_is_rejected() {
    // The format tag is emitted by the serializer, not stored on the
    // struct, so the swap happens at the byte level — and the digest gate
    // fires first, which is exactly the point: a forged version cannot
    // borrow a real document's digest.
    let line = base().certificate.to_json_line();
    let forged = line.replacen("wb-cert/v1", "wb-cert/v9", 1);
    assert_ne!(line, forged);
    let err = verify_line(&forged).unwrap_err();
    assert!(
        matches!(
            err,
            VerifyError::DigestMismatch | VerifyError::Version { .. }
        ),
        "forged version tag must be rejected, got {err}"
    );
}
