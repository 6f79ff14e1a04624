//! The deterministic job layer: one spec type and one entry point for every
//! execution tier.
//!
//! A job is an `explore`, `campaign`, or `bulk` run of any registry protocol
//! on any graph-family instance, and [`run_job`] renders its result as a
//! **deterministic** JSON report: no timestamps, no wall-clock rates, seeds
//! as strings, sorted keys. Every `whiteboard explore`, `campaign` and
//! `bulk` invocation, text or `--json`, and the [`crate::daemon`] call this
//! same function, which is what makes the daemon's reports *byte-identical*
//! to the CLI equivalents — the invariant the serve test-suite pins.
//!
//! Timing is a property of one run on one machine, not of the result, so it
//! never appears here; callers that want throughput numbers measure around
//! [`run_job`] (the CLI prints them in its text reports or to stderr).

use std::collections::BTreeMap;

use wb_bench::json::Json;
use wb_core::registry::{self, BoundOracle, BulkVisitor, ProtocolVisitor};
use wb_graph::Graph;
use wb_runtime::adapt::Promote;
use wb_runtime::bulk::{
    bulk_model, run_bulk, run_bulk_crashed, shuffled_schedule, BulkConfig, BulkProtocol,
};
use wb_runtime::exhaustive::{explore_parallel_with, explore_with, ExploreConfig, ReductionPolicy};
use wb_runtime::{DedupPolicy, FaultPlan, Model, Outcome, Protocol};
use wb_sim::{run_campaign_with, CampaignConfig, CampaignLabels, SamplerKind};

/// Which execution tier a job runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// Exhaustive schedule-space exploration (`whiteboard explore`).
    Explore,
    /// Monte Carlo schedule campaign (`whiteboard campaign`).
    Campaign,
    /// One columnar bulk execution (`whiteboard bulk`).
    Bulk,
}

impl JobKind {
    /// Parse a wire/CLI kind name.
    pub fn parse(s: &str) -> Result<JobKind, String> {
        match s {
            "explore" => Ok(JobKind::Explore),
            "campaign" => Ok(JobKind::Campaign),
            "bulk" => Ok(JobKind::Bulk),
            other => Err(format!(
                "unknown job kind '{other}' (expected explore|campaign|bulk)"
            )),
        }
    }

    /// The wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Explore => "explore",
            JobKind::Campaign => "campaign",
            JobKind::Bulk => "bulk",
        }
    }
}

/// Everything needed to run one job. The `whiteboard` CLI writes its job
/// flags over [`JobSpec::new`]'s defaults, so a flag left out means the same
/// on the command line as on the wire.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Execution tier.
    pub kind: JobKind,
    /// Registry protocol spec, e.g. `"mis:1"`.
    pub protocol: String,
    /// Graph-family spec (the CLI's `--workload` / `--graph-family`).
    pub workload: String,
    /// Instance size.
    pub n: usize,
    /// Seed for the workload instance, bulk schedule, and campaign trials.
    pub seed: u64,
    /// Model override (`"native"` = the protocol's own model).
    pub model: String,
    /// Campaign trial count.
    pub trials: u64,
    /// Campaign sampler name.
    pub sampler: String,
    /// Sharding grain (campaign trial batch / bulk board shard size).
    pub batch: Option<usize>,
    /// Exploration state cap.
    pub max_states: u64,
    /// Exploration dedup policy name.
    pub dedup: String,
    /// Exploration reduction policy name (`off|dpor|symmetry|dpor+symmetry`).
    /// `"off"` keeps every report byte-identical to the unreduced schema.
    pub reduction: String,
    /// Explore across the thread pool.
    pub par: bool,
    /// Explore: also run the dedup-off walk and report the savings.
    pub compare_naive: bool,
    /// Fault-plan spec (`crash:f` / `lossy:f`; the CLI's `--faults`).
    /// `None` — and a plan with budget 0 — keep every report byte-identical
    /// to the fault-free schema.
    pub faults: Option<String>,
    /// Wall-clock deadline, in milliseconds from submission. A job still
    /// queued (or whose run outlasts the deadline) is cancelled with the
    /// structured `deadline_exceeded` error. `None` = no deadline.
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    /// A spec with the defaults for `kind`: the campaign tier runs MIS and
    /// the others BUILD, explore at n = 6 and the others at n = 100. The CLI
    /// takes its defaults for these tiers from here.
    pub fn new(kind: JobKind) -> JobSpec {
        JobSpec {
            kind,
            protocol: match kind {
                JobKind::Campaign => "mis:1".into(),
                _ => "build:1".into(),
            },
            workload: "tree".into(),
            n: match kind {
                JobKind::Explore => 6,
                _ => 100,
            },
            seed: 1,
            model: "native".into(),
            trials: 10_000,
            sampler: "uniform".into(),
            batch: None,
            max_states: 1 << 20,
            dedup: "canonical".into(),
            reduction: "off".into(),
            par: false,
            compare_naive: false,
            faults: None,
            deadline_ms: None,
        }
    }
}

/// The rendered result of one job.
#[derive(Clone, Debug, PartialEq)]
pub struct JobReport {
    /// Deterministic report object (sorted keys, no timing).
    pub json: Json,
    /// `"PASS"`, `"FAIL"`, or `"INCONCLUSIVE"` — the report's own verdict
    /// (a job whose protocol violates its oracle still *completes*; the
    /// verdict carries the violation).
    pub verdict: String,
}

impl JobReport {
    /// The canonical one-line rendering (what the CLI prints on stdout).
    pub fn line(&self) -> String {
        self.json.to_string()
    }
}

/// Parse a `--model` spec: `None` means "the protocol's native model"; the
/// free models also answer to their paper-style `f`-prefixed names.
pub fn parse_model(spec: &str) -> Result<Option<Model>, String> {
    Ok(match spec {
        "native" => None,
        "simasync" | "sasync" => Some(Model::SimAsync),
        "simsync" | "ssync" => Some(Model::SimSync),
        "async" | "fasync" => Some(Model::Async),
        "sync" | "fsync" => Some(Model::Sync),
        other => {
            return Err(format!(
                "unknown model '{other}' (expected native|simasync|simsync|async|sync|fasync|fsync)"
            ))
        }
    })
}

/// Parse a bulk-tier `--model` spec. All four models parse — the free
/// targets `sync`/`async` run simultaneous-native protocols through the
/// event-driven bulk scheduler — and the per-protocol feasibility check
/// (no demotions; the target must include the native model) happens after
/// registry resolution, via [`wb_runtime::bulk::bulk_model`].
pub fn parse_bulk_model(spec: &str) -> Result<Option<Model>, String> {
    parse_model(spec)
}

/// Parse a `--faults` spec into a plan that actually drops writes: `None`
/// in, or an inert plan (`crash:0` / `lossy:0`), comes out as `None`, so
/// every downstream report stays byte-identical to the fault-free path.
pub fn parse_faults(spec: Option<&str>) -> Result<Option<FaultPlan>, String> {
    match spec {
        None => Ok(None),
        Some(s) => {
            let plan: FaultPlan = s.parse()?;
            Ok(Some(plan).filter(|p| !p.is_inert()))
        }
    }
}

/// Parse a `--dedup` policy name.
pub fn parse_dedup(spec: &str) -> Result<DedupPolicy, String> {
    Ok(match spec {
        "canonical" | "fingerprint" | "fp" => DedupPolicy::Canonical,
        "exact" => DedupPolicy::Exact,
        "off" | "none" => DedupPolicy::Off,
        other => return Err(format!("unknown dedup policy '{other}'")),
    })
}

/// Parse a `--reduction` policy name and check it against the dedup policy:
/// both reductions are defined relative to the deduplicating explorer (DPOR
/// prunes transitions *because* they would merge; the symmetry quotient
/// canonicalizes the dedup key), so combining them with `--dedup off` is a
/// spec error, not a silent no-op.
pub fn parse_reduction(spec: &str, dedup: DedupPolicy) -> Result<ReductionPolicy, String> {
    let policy: ReductionPolicy = spec.parse()?;
    if policy != ReductionPolicy::Off && dedup == DedupPolicy::Off {
        return Err(format!(
            "--reduction {policy} requires state deduplication; drop --dedup off \
             (the reductions prune relative to the deduplicated state graph)"
        ));
    }
    Ok(policy)
}

/// Round to `digits` decimal places so derived ratios print as short,
/// stable literals (e.g. `19.57`, not sixteen digits of float noise).
fn round_to(x: f64, digits: u32) -> f64 {
    let scale = 10f64.powi(digits as i32);
    (x * scale).round() / scale
}

/// Run one job to completion and render its deterministic report.
///
/// `Err` means the job could not run at all (unknown protocol, bad model,
/// unbuildable workload); a run whose protocol violates its oracle is an
/// `Ok` report with verdict `"FAIL"`.
pub fn run_job(spec: &JobSpec) -> Result<JobReport, String> {
    match spec.kind {
        JobKind::Explore => run_explore(spec),
        JobKind::Campaign => run_campaign_job(spec),
        JobKind::Bulk => run_bulk_job(spec),
    }
}

fn make_workload(spec: &JobSpec) -> Result<Graph, String> {
    wb_core::workload::graph_family(&spec.workload, spec.n, spec.seed)
}

/// The exploration config a spec asks for: its state cap, dedup policy,
/// fault plan and reduction. Explore jobs and the CLI's certifying walks
/// (`whiteboard certify`, `explore --certify`) all build theirs here.
pub fn explore_config(spec: &JobSpec) -> Result<ExploreConfig, String> {
    let faults = parse_faults(spec.faults.as_deref())?;
    let dedup = parse_dedup(&spec.dedup)?;
    Ok(ExploreConfig::default()
        .with_max_states(spec.max_states)
        .with_dedup(dedup)
        .with_faults(faults)
        .with_reduction(parse_reduction(&spec.reduction, dedup)?))
}

fn run_explore(spec: &JobSpec) -> Result<JobReport, String> {
    let g = make_workload(spec)?;
    let config = explore_config(spec)?;

    struct ExploreJob<'a> {
        spec: &'a JobSpec,
        g: &'a Graph,
        config: ExploreConfig,
    }

    impl ProtocolVisitor for ExploreJob<'_> {
        type Result = JobReport;
        fn visit<P, B>(self, protocol: P, bind: B) -> JobReport
        where
            P: Protocol + Clone + Send + Sync,
            P::Node: Send + Sync,
            P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
            B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
        {
            let (spec, g) = (self.spec, self.g);
            let oracle = bind(g);
            let pred = |out: &Outcome<P::Output>, died: &[wb_graph::NodeId]| oracle(out, died);
            let report = if spec.par {
                explore_parallel_with(&protocol, g, &self.config, &pred)
            } else {
                explore_with(&protocol, g, &self.config, &pred)
            };
            let verdict = if !report.failures.is_empty() {
                "FAIL"
            } else if report.truncated {
                "INCONCLUSIVE"
            } else {
                "PASS"
            };
            let mut obj = BTreeMap::new();
            obj.insert("schema".into(), Json::Str("wb-serve/explore/v1".into()));
            obj.insert("protocol".into(), Json::Str(spec.protocol.clone()));
            obj.insert("workload".into(), Json::Str(spec.workload.clone()));
            obj.insert("n".into(), Json::Num(g.n() as f64));
            obj.insert("dedup".into(), Json::Str(spec.dedup.clone()));
            obj.insert("par".into(), Json::Bool(spec.par));
            obj.insert(
                "distinct_states".into(),
                Json::Num(report.distinct_states as f64),
            );
            obj.insert("terminals".into(), Json::Num(report.terminals as f64));
            obj.insert("merged".into(), Json::Num(report.merged as f64));
            obj.insert(
                "dedup_ratio".into(),
                Json::Num(round_to(report.dedup_ratio(), 3)),
            );
            obj.insert(
                "peak_frontier".into(),
                Json::Num(report.peak_frontier as f64),
            );
            obj.insert("truncated".into(), Json::Bool(report.truncated));
            obj.insert("failures".into(), Json::Num(report.failures.len() as f64));
            if let Some(plan) = &self.config.faults {
                obj.insert("faults".into(), Json::Str(plan.spec()));
            }
            // Present only for reduced explorations, mirroring "faults": the
            // default report stays byte-identical to the unreduced schema.
            if let Some(stats) = &report.reduction {
                obj.insert("reduction".into(), Json::Str(stats.policy.to_string()));
                let mut r = BTreeMap::new();
                r.insert("dpor_active".into(), Json::Bool(stats.dpor_active));
                r.insert("symmetry_active".into(), Json::Bool(stats.symmetry_active));
                r.insert("group_order".into(), Json::Num(stats.group_order as f64));
                r.insert(
                    "sleep_skipped".into(),
                    Json::Num(stats.sleep_skipped as f64),
                );
                r.insert(
                    "orbit_terminals".into(),
                    Json::Num(stats.orbit_terminals as f64),
                );
                r.insert("reexpansions".into(), Json::Num(stats.reexpansions as f64));
                r.insert("generated".into(), Json::Num(report.generated() as f64));
                obj.insert("reduction_stats".into(), Json::Obj(r));
            }
            if spec.compare_naive {
                let off = ExploreConfig::default()
                    .without_dedup()
                    .with_max_states(spec.max_states)
                    .with_faults(self.config.faults);
                let naive = explore_with(&protocol, g, &off, &pred);
                obj.insert(
                    "naive_states".into(),
                    Json::Num(naive.distinct_states as f64),
                );
                obj.insert("naive_schedules".into(), Json::Num(naive.terminals as f64));
                obj.insert("naive_truncated".into(), Json::Bool(naive.truncated));
                obj.insert(
                    "dedup_savings".into(),
                    Json::Num(round_to(
                        naive.distinct_states as f64 / report.distinct_states.max(1) as f64,
                        2,
                    )),
                );
            }
            obj.insert("verdict".into(), Json::Str(verdict.into()));
            JobReport {
                json: Json::Obj(obj),
                verdict: verdict.into(),
            }
        }
    }

    registry::dispatch(
        &spec.protocol,
        spec.n,
        ExploreJob {
            spec,
            g: &g,
            config,
        },
    )
}

fn run_campaign_job(spec: &JobSpec) -> Result<JobReport, String> {
    let g = make_workload(spec)?;
    let target = parse_model(&spec.model)?;

    struct CampaignJob<'a> {
        spec: &'a JobSpec,
        g: &'a Graph,
        target: Option<Model>,
    }

    fn drive_native<P, C>(spec: &JobSpec, g: &Graph, p: &P, pred: C) -> Result<JobReport, String>
    where
        P: Protocol + Sync,
        P::Output: std::fmt::Debug,
        C: Fn(&Outcome<P::Output>, &[wb_graph::NodeId]) -> bool + Sync,
    {
        let sampler = SamplerKind::parse(&spec.sampler)?;
        let mut config = CampaignConfig::default()
            .with_trials(spec.trials)
            .with_seed(spec.seed)
            .with_sampler(sampler)
            .with_faults(parse_faults(spec.faults.as_deref())?);
        if let Some(batch) = spec.batch {
            config = config.with_batch(batch);
        }
        let labels = CampaignLabels {
            protocol: spec.protocol.clone(),
            model: p.model().to_string(),
            family: spec.workload.clone(),
        };
        let report = run_campaign_with(p, g, &config, &labels, &pred);
        Ok(JobReport {
            verdict: report.verdict().into(),
            json: report.to_json(),
        })
    }

    impl ProtocolVisitor for CampaignJob<'_> {
        type Result = Result<JobReport, String>;
        fn visit<P, B>(self, protocol: P, bind: B) -> Self::Result
        where
            P: Protocol + Clone + Send + Sync,
            P::Node: Send + Sync,
            P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
            B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
        {
            let (spec, g) = (self.spec, self.g);
            let oracle = bind(g);
            let pred = |out: &Outcome<P::Output>, died: &[wb_graph::NodeId]| oracle(out, died);
            match self.target {
                Some(m) if m != protocol.model() => {
                    if !m.includes(protocol.model()) {
                        return Err(format!(
                            "cannot demote {} protocol '{}' to {m}",
                            protocol.model(),
                            spec.protocol
                        ));
                    }
                    drive_native(spec, g, &Promote::new(protocol, m), pred)
                }
                _ => drive_native(spec, g, &protocol, pred),
            }
        }
    }

    registry::dispatch(
        &spec.protocol,
        spec.n,
        CampaignJob {
            spec,
            g: &g,
            target,
        },
    )?
}

fn run_bulk_job(spec: &JobSpec) -> Result<JobReport, String> {
    let g = make_workload(spec)?;
    let target = parse_bulk_model(&spec.model)?;
    let faults = parse_faults(spec.faults.as_deref())?;
    if let Some(plan) = &faults {
        if plan.kind() == wb_runtime::FaultKind::Lossy {
            return Err(format!(
                "the bulk tier executes crash-stop fault plans only, not {} (lossy \
                 suppression is an adaptive mid-run adversary; use `explore` or `campaign`)",
                plan.spec()
            ));
        }
    }

    struct BulkJob<'a> {
        spec: &'a JobSpec,
        g: &'a Graph,
        target: Option<Model>,
        faults: Option<FaultPlan>,
    }

    impl BulkVisitor for BulkJob<'_> {
        type Result = Result<JobReport, String>;
        fn visit<P, B>(self, protocol: P, bind: B) -> Self::Result
        where
            P: BulkProtocol + Send + Sync,
            P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
            B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
        {
            let (spec, g) = (self.spec, self.g);
            let n = g.n();
            let model = bulk_model(protocol.model(), self.target)
                .map_err(|e| format!("protocol '{}': {e}", spec.protocol))?;
            let schedule = shuffled_schedule(n, spec.seed);
            let config = BulkConfig::default().with_batch(spec.batch.unwrap_or(4096));
            let report = match &self.faults {
                Some(plan) => {
                    let victims = plan.sample_victims(n, spec.seed)?;
                    run_bulk_crashed(&protocol, g, &schedule, self.target, &config, &victims)
                }
                None => run_bulk(&protocol, g, &schedule, self.target, &config),
            }
            .expect("bulk model pre-validated");
            let oracle = bind(g);
            let verdict = if oracle(&report.outcome, &report.crashed) {
                "PASS"
            } else {
                "FAIL"
            };
            let mut obj = BTreeMap::new();
            obj.insert("schema".into(), Json::Str("wb-serve/bulk/v1".into()));
            obj.insert("protocol".into(), Json::Str(spec.protocol.clone()));
            obj.insert("model".into(), Json::Str(model.to_string()));
            obj.insert("family".into(), Json::Str(spec.workload.clone()));
            obj.insert("n".into(), Json::Num(n as f64));
            obj.insert("rounds".into(), Json::Num(report.rounds as f64));
            obj.insert(
                "shards".into(),
                Json::Num(report.board.shard_count() as f64),
            );
            obj.insert(
                "board_payload_bytes".into(),
                Json::Num(report.board.payload_bytes() as f64),
            );
            obj.insert(
                "board_index_bytes".into(),
                Json::Num(report.board.index_bytes() as f64),
            );
            obj.insert("total_bits".into(), Json::Num(report.total_bits() as f64));
            obj.insert(
                "max_message_bits".into(),
                Json::Num(report.max_message_bits() as f64),
            );
            if let Some(plan) = &self.faults {
                obj.insert("faults".into(), Json::Str(plan.spec()));
                obj.insert(
                    "died".into(),
                    Json::Arr(
                        report
                            .crashed
                            .iter()
                            .map(|&v| Json::Num(v as f64))
                            .collect(),
                    ),
                );
            }
            obj.insert("verdict".into(), Json::Str(verdict.into()));
            Ok(JobReport {
                json: Json::Obj(obj),
                verdict: verdict.into(),
            })
        }
    }

    registry::dispatch_bulk(
        &spec.protocol,
        spec.n,
        BulkJob {
            spec,
            g: &g,
            target,
            faults,
        },
    )?
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explore_job_is_deterministic_and_passes() {
        let mut spec = JobSpec::new(JobKind::Explore);
        spec.protocol = "mis:1".into();
        spec.workload = "path".into();
        spec.n = 6;
        spec.compare_naive = true;
        let a = run_job(&spec).unwrap();
        let b = run_job(&spec).unwrap();
        assert_eq!(a, b, "explore reports are deterministic");
        assert_eq!(a.verdict, "PASS");
        let line = a.line();
        assert!(line.contains("\"distinct_states\":100"), "{line}");
        assert!(line.contains("\"naive_states\":1957"), "{line}");
        assert!(line.contains("\"dedup_savings\":19.57"), "{line}");
        assert!(!line.contains("wall"), "no timing in reports: {line}");
    }

    #[test]
    fn campaign_job_matches_direct_run_campaign_bytes() {
        let mut spec = JobSpec::new(JobKind::Campaign);
        spec.protocol = "mis:1".into();
        spec.workload = "path".into();
        spec.n = 6;
        spec.trials = 500;
        spec.seed = 7;
        let report = run_job(&spec).unwrap();
        assert_eq!(report.verdict, "PASS");
        assert!(report.line().contains("\"schema\":\"wb-sim/campaign/v1\""));
        assert_eq!(report.line(), run_job(&spec).unwrap().line());
    }

    #[test]
    fn bulk_job_reports_board_bytes() {
        let mut spec = JobSpec::new(JobKind::Bulk);
        spec.protocol = "build:2".into();
        spec.workload = "kdeg-lin:2".into();
        spec.n = 500;
        let report = run_job(&spec).unwrap();
        assert_eq!(report.verdict, "PASS");
        assert!(
            report.line().contains("\"rounds\":500"),
            "{}",
            report.line()
        );
        assert!(report.line().contains("\"board_payload_bytes\":"));
    }

    #[test]
    fn bulk_job_runs_free_targets_and_refuses_demotions() {
        let mut spec = JobSpec::new(JobKind::Bulk);
        spec.protocol = "mis:1".into();
        spec.workload = "gnp-lin:4".into();
        spec.n = 300;
        spec.model = "sync".into();
        let sync = run_job(&spec).unwrap();
        assert_eq!(sync.verdict, "PASS");
        assert!(
            sync.line().contains("\"model\":\"SYNC\""),
            "{}",
            sync.line()
        );
        spec.model = "async".into();
        let r#async = run_job(&spec).unwrap();
        assert_eq!(r#async.verdict, "PASS");
        assert!(
            r#async.line().contains("\"model\":\"ASYNC\""),
            "{}",
            r#async.line()
        );
        spec.model = "simasync".into();
        let err = run_job(&spec).unwrap_err();
        assert!(err.contains("cannot demote SIMSYNC"), "{err}");
        assert!(err.contains("mis:1"), "{err}");
    }

    #[test]
    fn jobs_reject_bad_specs_without_panicking() {
        let mut spec = JobSpec::new(JobKind::Explore);
        spec.protocol = "frobnicate".into();
        assert!(run_job(&spec).is_err());
        let mut spec = JobSpec::new(JobKind::Bulk);
        spec.protocol = "bfs".into();
        assert!(run_job(&spec).unwrap_err().contains("simultaneous"));
        let mut spec = JobSpec::new(JobKind::Campaign);
        spec.protocol = "mis:1".into();
        spec.model = "simasync".into();
        assert!(run_job(&spec).unwrap_err().contains("cannot demote"));
        let mut spec = JobSpec::new(JobKind::Campaign);
        spec.sampler = "bogus".into();
        spec.trials = 1;
        assert!(run_job(&spec).unwrap_err().contains("unknown sampler"));
    }

    #[test]
    fn empty_instances_are_errors_for_every_kind() {
        for kind in [JobKind::Explore, JobKind::Campaign, JobKind::Bulk] {
            let mut spec = JobSpec::new(kind);
            spec.n = 0;
            let err = run_job(&spec).unwrap_err();
            assert!(err.contains("needs n ≥ 1"), "{kind:?}: {err}");
        }
    }

    #[test]
    fn unrepresentable_build_bounds_are_errors_for_every_kind() {
        for kind in [JobKind::Explore, JobKind::Campaign, JobKind::Bulk] {
            for protocol in ["build:4294967297", "build-mixed:4294967297", "build:70000"] {
                let mut spec = JobSpec::new(kind);
                spec.protocol = protocol.into();
                spec.n = 3;
                let err = run_job(&spec).unwrap_err();
                assert!(
                    err.contains("would need more than"),
                    "{kind:?} {protocol}: {err}"
                );
            }
        }
    }

    #[test]
    fn kind_names_round_trip() {
        for kind in [JobKind::Explore, JobKind::Campaign, JobKind::Bulk] {
            assert_eq!(JobKind::parse(kind.name()).unwrap(), kind);
        }
        assert!(JobKind::parse("verify").is_err());
    }
}
