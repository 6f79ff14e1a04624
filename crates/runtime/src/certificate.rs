//! Machine-checkable exploration certificates (`wb-cert/v1`).
//!
//! The schedule explorer ([`crate::exhaustive`]) collapses the `n!` schedule
//! tree into the DAG of distinct configurations — but its verdicts are only
//! as trustworthy as the optimization stack that produced them (undo-log
//! branching, 128-bit fingerprint dedup, a sharded seen-set). This
//! module serializes a run as an [`ExplorationCertificate`] that a
//! deliberately small, engine-independent verifier (the `wb-verify` crate)
//! re-checks edge by edge: the proof-certificate / counterexample-trace
//! split. The full format specification and the verifier's trust argument
//! are in `docs/CERTIFICATES.md`.
//!
//! A certificate names every distinct configuration by its 128-bit canonical
//! fingerprint ([`wb_math::hash::Digest128`] over the canonical encoding)
//! and records:
//!
//! - the **initial** configuration hash (after the first activation phase);
//! - every **transition edge** `(config, writer, config')`, sorted — the
//!   claim that the reachable DAG is exactly this edge set;
//! - the **terminal set** with the oracle verdict and rendered outcome of
//!   each terminal — the claim that these are all the schedule-distinct
//!   results;
//! - a **witness** per failing terminal: the schedule, its hash trace, and
//!   the failing outcome — a strict counterexample trace;
//! - protocol / model / graph metadata, and a whole-document digest so any
//!   byte-level corruption is detectable before semantic checking starts.
//!
//! Under a fault plan ([`crate::fault::FaultPlan`] via
//! [`ExploreConfig::faults`]) the walk also branches over which scheduled
//! writes die: crash edges carry a fourth marker element, witnesses record
//! which picks died, and the plan's spec string is recorded in a top-level
//! `faults` field so the verifier replays the same fault schedule. A
//! fault-free certificate (no plan, or an inert `crash:0`/`lossy:0` plan)
//! serializes byte-identically to the pre-fault format.
//!
//! [`certify`] produces the certificate with the explorer's own generation
//! step — one worker, unreduced, without a frontier cap — plus an edge log
//! that records every transition the walk takes and every terminal it
//! judges. Witness traces come from replaying each failure's
//! schedule, and witnesses are sorted into depth-first order (the
//! breadth-first walk meets failures shortest-first).
//!
//! ## Soundness boundary
//!
//! Certification inherits the explorer's dedup soundness rule: configuration
//! hashes cover statuses, freeze slots and board content but *not* the write
//! order, so they are only sound for order-oblivious protocols. A caller
//! requesting [`DedupPolicy::Off`] (the escape hatch for transcript-valued
//! outputs) is refused — such runs have no sound configuration-DAG quotient
//! to certify.

use crate::engine::{Engine, Outcome};
use crate::exhaustive::{
    explore_logged, DedupPolicy, EdgeLog, ExplorationReport, ExploreConfig, ReductionPolicy,
    ScheduleFailure,
};
use crate::model::Model;
use crate::protocol::Protocol;
use std::cell::RefCell;
use std::fmt::Debug;
use wb_graph::{Graph, NodeId};
use wb_math::hash::{hex128, Digest128};
use wb_math::json::Json;

/// The format tag every `v1` certificate carries.
pub const FORMAT: &str = "wb-cert/v1";

/// One transition of the distinct-configuration DAG: in configuration
/// `from`, the adversary picks `writer`, yielding configuration `to`. Under
/// a fault plan, `crash` marks edges where the pick's write died — the
/// message was composed and budget-checked but never reached the board.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct CertificateEdge {
    /// Source configuration hash.
    pub from: u128,
    /// The active node whose write this edge is.
    pub writer: NodeId,
    /// Whether the write died on this edge (always `false` fault-free).
    pub crash: bool,
    /// Resulting configuration hash.
    pub to: u128,
}

/// One terminal configuration (empty active set) with its claimed verdict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertificateTerminal {
    /// Terminal configuration hash.
    pub config: u128,
    /// Whether the registry oracle accepted the outcome.
    pub verdict: bool,
    /// `Debug` rendering of the outcome (success value or deadlock set).
    pub outcome: String,
}

/// A counterexample trace: one witness schedule per failing terminal.
///
/// The `trace` pins the configuration hash after every step, so "strict
/// replay" is meaningful: a reordered or otherwise tampered schedule
/// diverges from the trace at the first bad position even when the permuted
/// schedule would still be legal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CertificateWitness {
    /// The adversary's picks, in order.
    pub schedule: Vec<NodeId>,
    /// Configuration hash after each pick (post-activation).
    pub trace: Vec<u128>,
    /// Which scheduled picks' writes died, in crash order. Always empty for
    /// fault-free runs (and then omitted from the serialized form).
    pub died: Vec<NodeId>,
    /// `Debug` rendering of the failing outcome.
    pub outcome: String,
}

/// A serialized-form exploration proof: see the module docs for the claim
/// structure and `docs/CERTIFICATES.md` for the byte-level format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExplorationCertificate {
    /// Registry protocol spec (e.g. `"mis:1"`) — verdicts are bound to this
    /// spec's registry oracle.
    pub protocol: String,
    /// The model the run executed under (the promotion target if the
    /// protocol was wrapped in [`crate::adapt::Promote`]).
    pub model: Model,
    /// Number of nodes.
    pub n: usize,
    /// The instance graph's edges, ascending.
    pub graph_edges: Vec<(NodeId, NodeId)>,
    /// Workload family label, if the graph came from a named family.
    pub family: Option<String>,
    /// Workload seed, if the graph came from a seeded family.
    pub seed: Option<u64>,
    /// The fault plan in force, as its spec string (e.g. `"crash:1"`).
    /// `None` for fault-free runs — including inert plans — keeping their
    /// serialized form byte-identical to pre-fault certificates.
    pub faults: Option<String>,
    /// The reduction policy the caller's exploration ran under (e.g.
    /// `"dpor+symmetry"`), recorded for provenance. The certifying walk
    /// itself is **always unreduced** — every active-writer edge is present
    /// regardless of this field — so reduced explorations still verify
    /// through `wb-verify`'s unreduced replay machine. `None` when the
    /// policy is `off`, keeping those certificates byte-identical to the
    /// pre-reduction format.
    pub reduction: Option<String>,
    /// Initial configuration hash (after the first activation phase).
    pub initial: u128,
    /// All transition edges, sorted by `(from, writer, crash, to)`.
    pub edges: Vec<CertificateEdge>,
    /// All terminal configurations, sorted by hash.
    pub terminals: Vec<CertificateTerminal>,
    /// One witness per failing terminal, in depth-first order: sorted by
    /// schedule, pick by pick, a pick's write before its crash.
    pub witnesses: Vec<CertificateWitness>,
    /// Number of distinct configurations (must equal `1 +` the number of
    /// distinct edge targets; re-counted by the verifier).
    pub states: u64,
}

impl ExplorationCertificate {
    /// The certificate body as a JSON value, without the document digest.
    fn body_json(&self) -> Json {
        let mut obj = std::collections::BTreeMap::new();
        obj.insert("format".into(), Json::Str(FORMAT.into()));
        obj.insert("protocol".into(), Json::Str(self.protocol.clone()));
        obj.insert("model".into(), Json::Str(self.model.to_string()));
        obj.insert("n".into(), Json::Num(self.n as f64));
        obj.insert(
            "graph".into(),
            Json::Arr(
                self.graph_edges
                    .iter()
                    .map(|&(u, v)| Json::Arr(vec![Json::Num(u as f64), Json::Num(v as f64)]))
                    .collect(),
            ),
        );
        obj.insert(
            "family".into(),
            match &self.family {
                Some(f) => Json::Str(f.clone()),
                None => Json::Null,
            },
        );
        obj.insert(
            "seed".into(),
            match self.seed {
                // As a string: u64 seeds do not fit losslessly in a JSON f64.
                Some(s) => Json::Str(s.to_string()),
                None => Json::Null,
            },
        );
        if let Some(spec) = &self.faults {
            obj.insert("faults".into(), Json::Str(spec.clone()));
        }
        if let Some(policy) = &self.reduction {
            obj.insert("reduction".into(), Json::Str(policy.clone()));
        }
        obj.insert("initial".into(), Json::Str(hex128(self.initial)));
        obj.insert(
            "edges".into(),
            Json::Arr(
                self.edges
                    .iter()
                    .map(|e| {
                        let mut arr = vec![
                            Json::Str(hex128(e.from)),
                            Json::Num(e.writer as f64),
                            Json::Str(hex128(e.to)),
                        ];
                        if e.crash {
                            arr.push(Json::Num(1.0));
                        }
                        Json::Arr(arr)
                    })
                    .collect(),
            ),
        );
        obj.insert(
            "terminals".into(),
            Json::Arr(
                self.terminals
                    .iter()
                    .map(|t| {
                        let mut m = std::collections::BTreeMap::new();
                        m.insert("config".into(), Json::Str(hex128(t.config)));
                        m.insert("verdict".into(), Json::Bool(t.verdict));
                        m.insert("outcome".into(), Json::Str(t.outcome.clone()));
                        Json::Obj(m)
                    })
                    .collect(),
            ),
        );
        obj.insert(
            "witnesses".into(),
            Json::Arr(
                self.witnesses
                    .iter()
                    .map(|w| {
                        let mut m = std::collections::BTreeMap::new();
                        m.insert(
                            "schedule".into(),
                            Json::Arr(w.schedule.iter().map(|&v| Json::Num(v as f64)).collect()),
                        );
                        m.insert(
                            "trace".into(),
                            Json::Arr(w.trace.iter().map(|&h| Json::Str(hex128(h))).collect()),
                        );
                        if self.faults.is_some() {
                            m.insert(
                                "died".into(),
                                Json::Arr(w.died.iter().map(|&v| Json::Num(v as f64)).collect()),
                            );
                        }
                        m.insert("outcome".into(), Json::Str(w.outcome.clone()));
                        Json::Obj(m)
                    })
                    .collect(),
            ),
        );
        obj.insert("states".into(), Json::Num(self.states as f64));
        Json::Obj(obj)
    }

    /// Serialize as one canonical JSON line (no trailing newline), digest
    /// included. This is the certificate wire format: the verifier requires
    /// the document to be in this exact normal form, re-derives the digest
    /// from the body, and only then starts semantic re-checking.
    pub fn to_json_line(&self) -> String {
        let body = self.body_json();
        let mut digest = Digest128::new();
        digest.put_bytes(body.to_string().as_bytes());
        let Json::Obj(mut obj) = body else {
            unreachable!("body_json builds an object")
        };
        obj.insert("digest".into(), Json::Str(hex128(digest.finish())));
        Json::Obj(obj).to_string()
    }
}

/// A certified exploration: the certificate plus the ordinary exploration
/// report (outcome multiset, failures with witness schedules) so callers can
/// keep using the report-shaped downstream plumbing.
pub struct CertifiedExploration<O> {
    /// The serialized-form proof.
    pub certificate: ExplorationCertificate,
    /// The sequential explorer's report of the certifying walk: what
    /// [`crate::exhaustive::explore_with`] returns on the same run without
    /// reduction and frontier cap, except that `failures` is sorted like
    /// the certificate's witnesses.
    pub report: ExplorationReport<O>,
}

/// Non-graph metadata recorded into a certificate: the registry spec the
/// verifier will re-resolve, and the optional workload provenance.
pub struct CertificateScenario<'a> {
    /// Registry protocol spec (e.g. `"build:2"`).
    pub protocol: &'a str,
    /// Workload family label, if any.
    pub family: Option<&'a str>,
    /// Workload seed, if any.
    pub seed: Option<u64>,
}

/// Exhaustively explore `protocol` on `g` and emit a certificate of the run.
///
/// `check` judges every distinct terminal outcome given the crashed set of
/// that terminal, exactly as in [`crate::exhaustive::explore_with`]; for a
/// certificate that *verifies*, it must be the registry oracle bound to `g`
/// (the independent verifier re-derives verdicts from the registry by
/// `scenario.protocol`, so any other predicate is exposed as a verdict
/// mismatch). With `config.faults` set to a non-inert plan, the walk also
/// branches over which scheduled writes die, up to the plan's budget.
///
/// The walk is the sequential explorer with fingerprint dedup, no
/// reduction and no frontier cap, plus an edge log that records every
/// transition it takes. Errors instead of truncating:
/// a partial walk proves nothing, so exceeding `config.max_states` is an
/// error, and [`DedupPolicy::Off`] is refused outright (see the module docs
/// on the soundness boundary). `config.max_frontier` and
/// `config.reduction` do not change the walk; the policy is recorded as
/// provenance only.
pub fn certify<P, C>(
    protocol: &P,
    g: &Graph,
    scenario: &CertificateScenario<'_>,
    config: &ExploreConfig,
    check: C,
) -> Result<CertifiedExploration<P::Output>, String>
where
    P: Protocol,
    P::Output: Clone + Debug,
    C: Fn(&Outcome<P::Output>, &[NodeId]) -> bool,
{
    if config.dedup == DedupPolicy::Off {
        return Err(
            "certificates require configuration dedup: with DedupPolicy::Off the run has no \
             sound distinct-configuration DAG to certify (transcript-valued protocols fall \
             outside the certificate format)"
                .into(),
        );
    }

    let walk = ExploreConfig {
        max_frontier: usize::MAX,
        reduction: ReductionPolicy::Off,
        ..config.clone()
    };
    let mut log = EdgeLog::default();
    // The explorer judges terminals in the order the edge log records them.
    let verdicts = RefCell::new(Vec::new());
    let judge = |outcome: &Outcome<P::Output>, died: &[NodeId]| {
        let verdict = check(outcome, died);
        verdicts.borrow_mut().push(verdict);
        verdict
    };
    let mut report = explore_logged(protocol, g, &walk, &judge, &mut log);
    if report.truncated {
        return Err(format!(
            "exploration exceeded max_states = {}: a truncated walk cannot be certified",
            config.max_states
        ));
    }

    let mut edges = log.edges;
    edges.sort_unstable();
    let mut terminals: Vec<CertificateTerminal> = log
        .terminals
        .into_iter()
        .zip(&report.outcomes)
        .zip(verdicts.into_inner())
        .map(|((config, outcome), verdict)| CertificateTerminal {
            config,
            verdict,
            outcome: format!("{outcome:?}"),
        })
        .collect();
    terminals.sort_by_key(|t| t.config);
    // Depth-first order: lexicographic by pick, a pick's write before its
    // crash. The breadth-first walk meets failures shortest-first.
    report.failures.sort_by_cached_key(|f| {
        f.schedule
            .iter()
            .map(|v| (*v, f.died.contains(v)))
            .collect::<Vec<_>>()
    });
    let witnesses = report
        .failures
        .iter()
        .map(|f| CertificateWitness {
            schedule: f.schedule.clone(),
            trace: replay_trace(protocol, g, f),
            died: f.died.clone(),
            outcome: format!("{:?}", f.outcome),
        })
        .collect();
    let certificate = ExplorationCertificate {
        protocol: scenario.protocol.to_string(),
        model: protocol.model(),
        n: g.n(),
        graph_edges: g.edges().collect(),
        family: scenario.family.map(str::to_string),
        seed: scenario.seed,
        faults: config.faults.filter(|p| !p.is_inert()).map(|p| p.spec()),
        reduction: (config.reduction != ReductionPolicy::Off).then(|| config.reduction.to_string()),
        initial: log.initial,
        edges,
        terminals,
        witnesses,
        states: report.distinct_states,
    };
    Ok(CertifiedExploration {
        certificate,
        report,
    })
}

/// Replay a failure's schedule from the initial configuration, hashing the
/// configuration after every pick: the witness's strict-replay trace.
fn replay_trace<P: Protocol>(
    protocol: &P,
    g: &Graph,
    failure: &ScheduleFailure<P::Output>,
) -> Vec<u128> {
    let mut engine = Engine::new(protocol, g);
    engine.activation_phase();
    failure
        .schedule
        .iter()
        .map(|&pick| {
            if failure.died.contains(&pick) {
                engine.step_crash(pick);
            } else {
                engine.step(pick);
            }
            engine.activation_phase();
            engine.canonical_fingerprint().as_u128()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::toys::*;
    use crate::exhaustive::explore;
    use std::collections::HashSet;
    use wb_graph::generators;

    fn scenario() -> CertificateScenario<'static> {
        CertificateScenario {
            protocol: "toy",
            family: None,
            seed: None,
        }
    }

    #[test]
    fn certified_walk_matches_explore_counts() {
        let g = generators::path(4);
        let certified = certify(
            &EchoId,
            &g,
            &scenario(),
            &ExploreConfig::default(),
            |o, _| o.is_success(),
        )
        .unwrap();
        let explored = explore(&EchoId, &g, &ExploreConfig::default(), |o| o.is_success());
        assert_eq!(certified.report.distinct_states, explored.distinct_states);
        assert_eq!(certified.report.terminals, explored.terminals);
        assert_eq!(certified.report.merged, explored.merged);
        assert_eq!(
            certified.certificate.states,
            certified.report.distinct_states
        );
        // Every distinct non-initial configuration is some edge's target.
        let targets: HashSet<u128> = certified.certificate.edges.iter().map(|e| e.to).collect();
        assert_eq!(
            targets.len() as u64 + 1,
            certified.certificate.states,
            "edge targets + initial = distinct configurations"
        );
    }

    #[test]
    fn failing_terminals_get_witnesses_with_traces() {
        let g = generators::path(3);
        let certified = certify(
            &EchoId,
            &g,
            &scenario(),
            &ExploreConfig::default(),
            |_, _| false, // judge everything a failure
        )
        .unwrap();
        assert!(!certified.certificate.witnesses.is_empty());
        for w in &certified.certificate.witnesses {
            assert_eq!(w.schedule.len(), w.trace.len());
            assert_eq!(w.schedule.len(), 3, "every node writes exactly once");
        }
        let failing = certified
            .certificate
            .terminals
            .iter()
            .filter(|t| !t.verdict)
            .count();
        assert_eq!(failing, certified.certificate.witnesses.len());
    }

    #[test]
    fn dedup_off_is_refused() {
        let g = generators::path(3);
        let config = ExploreConfig {
            dedup: DedupPolicy::Off,
            ..ExploreConfig::default()
        };
        let err = certify(&FrozenSeenCount, &g, &scenario(), &config, |_, _| true)
            .err()
            .expect("transcript-valued runs must refuse certification");
        assert!(err.contains("DedupPolicy::Off"), "{err}");
    }

    #[test]
    fn state_cap_is_an_error_not_a_truncation() {
        let g = generators::clique(5);
        let config = ExploreConfig {
            max_states: 4,
            ..ExploreConfig::default()
        };
        let err = certify(&EchoId, &g, &scenario(), &config, |_, _| true)
            .err()
            .expect("overflow must error");
        assert!(err.contains("max_states"), "{err}");
    }

    #[test]
    fn json_line_is_single_line_and_reparses() {
        let g = generators::cycle(3);
        let certified = certify(
            &SeenCount,
            &g,
            &scenario(),
            &ExploreConfig::default(),
            |o, _| o.is_success(),
        )
        .unwrap();
        let line = certified.certificate.to_json_line();
        assert!(!line.contains('\n'));
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("format").and_then(Json::as_str), Some(FORMAT));
        // Canonical form: parse → emit is the identity on emitted lines.
        assert_eq!(parsed.to_string(), line);
    }

    #[test]
    fn inert_fault_plan_certifies_byte_identically() {
        use crate::fault::FaultPlan;
        let g = generators::path(3);
        let plain = certify(
            &EchoId,
            &g,
            &scenario(),
            &ExploreConfig::default(),
            |o, _| o.is_success(),
        )
        .unwrap();
        let config = ExploreConfig::default().with_faults(Some(FaultPlan::crash_stop(0)));
        let inert = certify(&EchoId, &g, &scenario(), &config, |o, _| o.is_success()).unwrap();
        assert_eq!(
            plain.certificate.to_json_line(),
            inert.certificate.to_json_line()
        );
        assert!(inert.certificate.faults.is_none());
    }

    #[test]
    fn faulted_walk_records_crash_edges_and_died_witnesses() {
        use crate::fault::FaultPlan;
        let g = generators::path(3);
        let config = ExploreConfig::default().with_faults(Some(FaultPlan::crash_stop(1)));
        // Degraded oracle: the echoed id list must be exactly the survivors.
        let certified = certify(&EchoId, &g, &scenario(), &config, |o, died| match o {
            Outcome::Success(ids) => {
                ids.len() + died.len() == 3 && ids.iter().all(|v| !died.contains(v))
            }
            Outcome::Deadlock { .. } => false,
        })
        .unwrap();
        assert_eq!(certified.certificate.faults.as_deref(), Some("crash:1"));
        assert!(
            certified.certificate.edges.iter().any(|e| e.crash),
            "a crash:1 walk must branch over dying writes"
        );
        // EchoId tolerates any single crash, so the degraded oracle accepts
        // every terminal and no witnesses are emitted.
        assert!(certified.certificate.terminals.iter().all(|t| t.verdict));
        assert!(certified.certificate.witnesses.is_empty());

        // A strict (fault-blind) oracle fails exactly the crashed terminals,
        // and each witness names its casualties.
        let strict = certify(&EchoId, &g, &scenario(), &config, |o, _| match o {
            Outcome::Success(ids) => ids.len() == 3,
            Outcome::Deadlock { .. } => false,
        })
        .unwrap();
        assert!(!strict.certificate.witnesses.is_empty());
        assert!(strict
            .certificate
            .witnesses
            .iter()
            .all(|w| w.died.len() == 1));
        let line = strict.certificate.to_json_line();
        assert!(line.contains("\"faults\":\"crash:1\""), "{line}");
        assert!(line.contains("\"died\":["), "{line}");
        // Crash edges serialize as 4-element arrays ending in 1.
        assert!(line.contains(",1]"), "{line}");
    }

    #[test]
    fn witnesses_come_in_depth_first_order() {
        use crate::fault::FaultPlan;
        // Chain activates 1, 2, 3 in turn; a crash stalls everyone after
        // the casualty, so terminals end at different depths.
        let g = generators::path(3);
        let config = ExploreConfig::default().with_faults(Some(FaultPlan::crash_stop(1)));
        let certified = certify(&Chain, &g, &scenario(), &config, |_, _| false).unwrap();
        let witnesses: Vec<(Vec<NodeId>, Vec<NodeId>)> = certified
            .certificate
            .witnesses
            .iter()
            .map(|w| (w.schedule.clone(), w.died.clone()))
            .collect();
        assert_eq!(
            witnesses,
            vec![
                (vec![1, 2, 3], vec![]),
                (vec![1, 2, 3], vec![3]),
                (vec![1, 2], vec![2]),
                (vec![1], vec![1]),
            ]
        );
    }
}
