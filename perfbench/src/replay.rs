//! Traced replicas of `wb_serve::run_job`.
//!
//! Each replica follows `run_job`'s composition for its kind — the same
//! `graph_family` instance, registry dispatch, engine entry point, config
//! and oracle — with the protocol wrapped in [`crate::traced`] timers and
//! spans around the graph generator, the engine call and the oracle. It
//! returns the timings plus the counts its engine reported, keyed by the
//! field names of the `run_job` report, so [`cross_check`] can prove the
//! replica ran the same program.

use std::collections::BTreeMap;

use crate::trace::{self, Hook, HookTotals};
use crate::traced::{TracedBulk, TracedProtocol};
use wb_core::registry::{self, BoundOracle, BulkVisitor, ProtocolVisitor};
use wb_graph::{Graph, NodeId};
use wb_math::json::Json;
use wb_runtime::bulk::{
    bulk_model, run_bulk, run_bulk_crashed, shuffled_schedule, BulkConfig, BulkProtocol,
};
use wb_runtime::exhaustive::{explore_parallel_with, explore_with, ExploreConfig};
use wb_runtime::{FaultPlan, Model, Outcome, Protocol};
use wb_serve::jobs::{parse_bulk_model, parse_dedup, parse_faults, parse_model, parse_reduction};
use wb_serve::{JobKind, JobSpec};
use wb_sim::{run_campaign_with, CampaignConfig, CampaignLabels, SamplerKind};

/// Timings and counts of one traced job.
#[derive(Clone, Debug)]
pub struct JobTrace {
    /// The job's tier.
    pub kind: JobKind,
    /// Whole-job span, nanoseconds.
    pub job_ns: u64,
    /// `graph_family` span.
    pub gen_ns: u64,
    /// Engine span (`run_bulk`, `explore_*`, `run_campaign_with`).
    pub engine_ns: u64,
    /// Engine span minus the union of its hook spans.
    pub engine_self_ns: u64,
    /// Hook calls and busy time inside the engine span.
    pub hooks: HookTotals,
    /// Oracle span after the engine (bulk jobs; the other tiers call the
    /// oracle inside the engine and count it as [`Hook::Oracle`]).
    pub post_oracle_ns: u64,
    /// Whether the oracle accepted the run.
    pub pass: bool,
    /// Engine counts under their `run_job` report field names (nested
    /// fields joined with `.`).
    pub counts: BTreeMap<&'static str, f64>,
}

/// Whether a job's engine may call hooks from several threads at once, so
/// its self time needs the interval union rather than a plain sum.
fn parallel(spec: &JobSpec) -> bool {
    match spec.kind {
        JobKind::Explore => spec.par,
        _ => wb_par::num_threads() > 1,
    }
}

/// Run `spec` traced. Errors mirror `run_job`'s refusals.
pub fn run_traced(spec: &JobSpec) -> Result<JobTrace, String> {
    let job_start = trace::now_ns();
    let g = wb_core::workload::graph_family(&spec.workload, spec.n, spec.seed)?;
    let gen_ns = trace::now_ns() - job_start;
    trace::take();
    trace::set_intervals(parallel(spec));
    let mut out = match spec.kind {
        JobKind::Explore => explore(spec, &g),
        JobKind::Campaign => campaign(spec, &g),
        JobKind::Bulk => bulk(spec, &g),
    };
    trace::set_intervals(false);
    if let Ok(t) = &mut out {
        t.gen_ns = gen_ns;
        t.job_ns = trace::now_ns() - job_start;
    }
    out
}

/// Close an engine span: drain the hooks it caused and compute self time.
fn close_engine(start: u64, end: u64) -> (HookTotals, u64) {
    let mut hooks = trace::take();
    let self_ns = if hooks.intervals.is_empty() {
        (end - start).saturating_sub(hooks.busy_ns())
    } else {
        trace::self_time_ns((start, end), &mut hooks.intervals)
    };
    hooks.intervals = Vec::new();
    (hooks, self_ns)
}

fn blank(kind: JobKind) -> JobTrace {
    JobTrace {
        kind,
        job_ns: 0,
        gen_ns: 0,
        engine_ns: 0,
        engine_self_ns: 0,
        hooks: HookTotals::default(),
        post_oracle_ns: 0,
        pass: false,
        counts: BTreeMap::new(),
    }
}

fn bulk(spec: &JobSpec, g: &Graph) -> Result<JobTrace, String> {
    let target = parse_bulk_model(&spec.model)?;
    let faults = parse_faults(spec.faults.as_deref())?;

    struct Replica<'a> {
        spec: &'a JobSpec,
        g: &'a Graph,
        target: Option<Model>,
        faults: Option<FaultPlan>,
    }

    impl BulkVisitor for Replica<'_> {
        type Result = Result<JobTrace, String>;
        fn visit<P, B>(self, protocol: P, bind: B) -> Self::Result
        where
            P: BulkProtocol + Send + Sync,
            P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
            B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
        {
            let (spec, g) = (self.spec, self.g);
            let n = g.n();
            bulk_model(protocol.model(), self.target)
                .map_err(|e| format!("protocol '{}': {e}", spec.protocol))?;
            let schedule = shuffled_schedule(n, spec.seed);
            let config = BulkConfig::default().with_batch(spec.batch.unwrap_or(4096));
            let traced = TracedBulk(protocol);
            let start = trace::now_ns();
            let report = match &self.faults {
                Some(plan) => {
                    let victims = plan.sample_victims(n, spec.seed)?;
                    run_bulk_crashed(&traced, g, &schedule, self.target, &config, &victims)
                }
                None => run_bulk(&traced, g, &schedule, self.target, &config),
            }
            .map_err(|e| e.to_string())?;
            let end = trace::now_ns();
            let (hooks, self_ns) = close_engine(start, end);
            let oracle = bind(g);
            let pass = oracle(&report.outcome, &report.crashed);
            let mut t = blank(JobKind::Bulk);
            t.post_oracle_ns = trace::now_ns() - end;
            t.engine_ns = end - start;
            t.engine_self_ns = self_ns;
            t.hooks = hooks;
            t.pass = pass;
            t.counts = BTreeMap::from([
                ("rounds", report.rounds as f64),
                ("shards", report.board.shard_count() as f64),
                ("board_payload_bytes", report.board.payload_bytes() as f64),
                ("board_index_bytes", report.board.index_bytes() as f64),
                ("total_bits", report.total_bits() as f64),
                ("max_message_bits", report.max_message_bits() as f64),
            ]);
            Ok(t)
        }
    }

    registry::dispatch_bulk(
        &spec.protocol,
        spec.n,
        Replica {
            spec,
            g,
            target,
            faults,
        },
    )?
}

fn explore(spec: &JobSpec, g: &Graph) -> Result<JobTrace, String> {
    let faults = parse_faults(spec.faults.as_deref())?;
    let dedup = parse_dedup(&spec.dedup)?;
    let config = ExploreConfig::default()
        .with_max_states(spec.max_states)
        .with_dedup(dedup)
        .with_faults(faults)
        .with_reduction(parse_reduction(&spec.reduction, dedup)?);
    if spec.compare_naive {
        return Err("the traced replay does not replicate compare_naive".into());
    }

    struct Replica<'a> {
        spec: &'a JobSpec,
        g: &'a Graph,
        config: ExploreConfig,
    }

    impl ProtocolVisitor for Replica<'_> {
        type Result = JobTrace;
        fn visit<P, B>(self, protocol: P, bind: B) -> JobTrace
        where
            P: Protocol + Clone + Send + Sync,
            P::Node: Send + Sync,
            P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
            B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
        {
            let oracle = bind(self.g);
            let pred = |out: &Outcome<P::Output>, died: &[NodeId]| {
                let _span = trace::hook(Hook::Oracle);
                oracle(out, died)
            };
            let traced = TracedProtocol(protocol);
            let start = trace::now_ns();
            let report = if self.spec.par {
                explore_parallel_with(&traced, self.g, &self.config, &pred)
            } else {
                explore_with(&traced, self.g, &self.config, &pred)
            };
            let end = trace::now_ns();
            let (hooks, self_ns) = close_engine(start, end);
            let mut t = blank(JobKind::Explore);
            t.engine_ns = end - start;
            t.engine_self_ns = self_ns;
            t.hooks = hooks;
            t.pass = report.failures.is_empty() && !report.truncated;
            t.counts = BTreeMap::from([
                ("distinct_states", report.distinct_states as f64),
                ("terminals", report.terminals as f64),
                ("merged", report.merged as f64),
                ("peak_frontier", report.peak_frontier as f64),
                ("failures", report.failures.len() as f64),
                ("generated", report.generated() as f64),
            ]);
            if let Some(stats) = &report.reduction {
                t.counts.extend([
                    ("reduction_stats.generated", report.generated() as f64),
                    ("reduction_stats.sleep_skipped", stats.sleep_skipped as f64),
                    ("reduction_stats.reexpansions", stats.reexpansions as f64),
                    (
                        "reduction_stats.orbit_terminals",
                        stats.orbit_terminals as f64,
                    ),
                    ("reduction_stats.group_order", stats.group_order as f64),
                ]);
            }
            t
        }
    }

    registry::dispatch(&spec.protocol, spec.n, Replica { spec, g, config })
}

fn campaign(spec: &JobSpec, g: &Graph) -> Result<JobTrace, String> {
    if parse_model(&spec.model)?.is_some() {
        return Err("the traced replay runs campaigns under the native model only".into());
    }

    struct Replica<'a> {
        spec: &'a JobSpec,
        g: &'a Graph,
    }

    impl ProtocolVisitor for Replica<'_> {
        type Result = Result<JobTrace, String>;
        fn visit<P, B>(self, protocol: P, bind: B) -> Self::Result
        where
            P: Protocol + Clone + Send + Sync,
            P::Node: Send + Sync,
            P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
            B: for<'g> Fn(&'g Graph) -> BoundOracle<'g, P::Output> + Send + Sync,
        {
            let (spec, g) = (self.spec, self.g);
            let oracle = bind(g);
            let pred = |out: &Outcome<P::Output>, died: &[NodeId]| {
                let _span = trace::hook(Hook::Oracle);
                oracle(out, died)
            };
            let mut config = CampaignConfig::default()
                .with_trials(spec.trials)
                .with_seed(spec.seed)
                .with_sampler(SamplerKind::parse(&spec.sampler)?)
                .with_faults(parse_faults(spec.faults.as_deref())?);
            if let Some(batch) = spec.batch {
                config = config.with_batch(batch);
            }
            let labels = CampaignLabels {
                protocol: spec.protocol.clone(),
                model: protocol.model().to_string(),
                family: spec.workload.clone(),
            };
            let traced = TracedProtocol(protocol);
            let start = trace::now_ns();
            let report = run_campaign_with(&traced, g, &config, &labels, &pred);
            let end = trace::now_ns();
            let (hooks, self_ns) = close_engine(start, end);
            let mut t = blank(JobKind::Campaign);
            t.engine_ns = end - start;
            t.engine_self_ns = self_ns;
            t.hooks = hooks;
            t.pass = report.verdict() == "PASS";
            t.counts = BTreeMap::from([
                ("trials", report.trials as f64),
                ("passed", report.passed as f64),
                ("deadlocks", report.deadlocks as f64),
                ("distinct_outcomes", report.distinct_outcomes as f64),
            ]);
            Ok(t)
        }
    }

    registry::dispatch(&spec.protocol, spec.n, Replica { spec, g })?
}

/// Compare a replica's counts with the fields of the untraced report; the
/// error names every field that differs.
pub fn cross_check(trace: &JobTrace, report: &Json) -> Result<(), String> {
    let mut bad = Vec::new();
    for (&key, &want) in &trace.counts {
        if key == "generated" {
            // Not a report field outside `reduction_stats`.
            continue;
        }
        let got = key
            .split('.')
            .try_fold(report, |obj, part| obj.get(part))
            .and_then(Json::as_f64);
        if got != Some(want) {
            bad.push(format!("{key}: traced {want}, report {got:?}"));
        }
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("; "))
    }
}
