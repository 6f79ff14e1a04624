//! Per-layer metrics from the traced run.
//!
//! Every name here is listed in `BENCHMARK.json`'s `per_layer`; a layer a
//! workload does not run reports 0. Times are medians over traced passes
//! of per-pass sums; counts are per pass and repeat exactly.

use std::collections::BTreeMap;

use crate::replay::JobTrace;
use crate::run::Outcome;
use crate::serve::LoopPass;
use crate::stats::median;
use crate::trace::Hook;
use crate::traced::STEP_HOOKS;
use wb_serve::{JobKind, JobSpec};

/// Every per-layer metric with its unit, in print order.
pub const METRICS: &[(&str, &str)] = &[
    ("workload.gen_s", "s"),
    ("job.self_s", "s"),
    ("bulk.init_s", "s"),
    ("bulk.compose_busy_s", "s"),
    ("bulk.compose_calls", "count"),
    ("bulk.observe_s", "s"),
    ("bulk.observe_calls", "count"),
    ("bulk.referee_s", "s"),
    ("bulk.oracle_s", "s"),
    ("bulk.engine_self_s", "s"),
    ("bulk.board_payload_bytes", "B"),
    ("bulk.board_index_bytes", "B"),
    ("bulk.index_per_payload", "ratio"),
    ("bulk.total_bits", "bit"),
    ("explore.self_s", "s"),
    ("explore.protocol_s", "s"),
    ("explore.protocol_calls", "count"),
    ("explore.oracle_s", "s"),
    ("explore.leaf_checks", "count"),
    ("explore.states", "count"),
    ("explore.generated", "count"),
    ("explore.merged", "count"),
    ("explore.terminals", "count"),
    ("explore.peak_frontier", "count"),
    ("explore.sleep_skipped", "count"),
    ("explore.reexpansions", "count"),
    ("explore.useful_ratio", "ratio"),
    ("explore.par_speedup", "ratio"),
    ("campaign.trials", "count"),
    ("campaign.distinct_outcomes", "count"),
    ("campaign.protocol_s", "s"),
    ("campaign.oracle_s", "s"),
    ("campaign.self_s", "s"),
    ("serve.submit_rtt_p50_s", "s"),
    ("serve.status_rtt_p50_s", "s"),
    ("serve.queue_wait_p50_s", "s"),
    ("serve.run_p50_s.explore", "s"),
    ("serve.run_p50_s.campaign", "s"),
    ("serve.run_p50_s.bulk", "s"),
    ("serve.reply_bytes", "B"),
    ("serve.serialize_s", "s"),
    ("serve.queue_full", "count"),
    ("trace.untraced_pass_p50_s", "s"),
    ("trace.traced_pass_p50_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.accounted_s", "s"),
];

fn ns(x: u64) -> f64 {
    x as f64 * 1e-9
}

/// The layer values of one traced pass.
fn pass_layers(traces: &[JobTrace]) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut add = |k: &'static str, v: f64| *m.entry(k).or_default() += v;
    let mut peak_frontier = 0f64;
    for t in traces {
        let count = |k: &str| t.counts.get(k).copied().unwrap_or(0.0);
        add("workload.gen_s", ns(t.gen_ns));
        add(
            "job.self_s",
            ns(t.job_ns - t.gen_ns - t.engine_ns - t.post_oracle_ns),
        );
        add("trace.accounted_s", ns(t.job_ns));
        let h = &t.hooks;
        match t.kind {
            JobKind::Bulk => {
                add("bulk.init_s", h.secs(Hook::Init));
                add("bulk.compose_busy_s", h.secs(Hook::Compose));
                add("bulk.compose_calls", h.calls(Hook::Compose) as f64);
                add("bulk.observe_s", h.secs(Hook::Observe));
                add("bulk.observe_calls", h.calls(Hook::Observe) as f64);
                add("bulk.referee_s", h.secs(Hook::Output));
                add("bulk.oracle_s", ns(t.post_oracle_ns));
                add("bulk.engine_self_s", ns(t.engine_self_ns));
                add("bulk.board_payload_bytes", count("board_payload_bytes"));
                add("bulk.board_index_bytes", count("board_index_bytes"));
                add("bulk.total_bits", count("total_bits"));
            }
            JobKind::Explore => {
                add("explore.self_s", ns(t.engine_self_ns));
                add("explore.protocol_s", h.secs_of(&STEP_HOOKS));
                add("explore.protocol_calls", h.calls_of(&STEP_HOOKS) as f64);
                add("explore.oracle_s", h.secs(Hook::Oracle));
                add("explore.leaf_checks", h.calls(Hook::Oracle) as f64);
                add("explore.states", count("distinct_states"));
                add("explore.generated", count("generated"));
                add("explore.merged", count("merged"));
                add("explore.terminals", count("terminals"));
                add(
                    "explore.sleep_skipped",
                    count("reduction_stats.sleep_skipped"),
                );
                add(
                    "explore.reexpansions",
                    count("reduction_stats.reexpansions"),
                );
                peak_frontier = peak_frontier.max(count("peak_frontier"));
            }
            JobKind::Campaign => {
                add("campaign.trials", count("trials"));
                add("campaign.distinct_outcomes", count("distinct_outcomes"));
                add("campaign.protocol_s", h.secs_of(&STEP_HOOKS));
                add("campaign.oracle_s", h.secs(Hook::Oracle));
                add("campaign.self_s", ns(t.engine_self_ns));
            }
        }
    }
    m.insert("explore.peak_frontier", peak_frontier);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let index = ratio(
        m.get("bulk.board_index_bytes").copied().unwrap_or(0.0),
        m.get("bulk.board_payload_bytes").copied().unwrap_or(0.0),
    );
    let useful = ratio(
        m.get("explore.states").copied().unwrap_or(0.0),
        m.get("explore.generated").copied().unwrap_or(0.0),
    );
    m.insert("bulk.index_per_payload", index);
    m.insert("explore.useful_ratio", useful);
    m
}

/// Median sequential-over-parallel job time, over every explore job that
/// has a `par` twin in the list; 0 when there is none.
fn par_speedup(jobs: &[JobSpec], plain: &[(f64, Vec<f64>)]) -> f64 {
    let job_median = |i: usize| median(&plain.iter().map(|p| p.1[i]).collect::<Vec<_>>());
    let mut ratios = Vec::new();
    for (i, seq) in jobs.iter().enumerate() {
        if seq.kind != JobKind::Explore || seq.par {
            continue;
        }
        let twin = JobSpec {
            par: true,
            seed: 0,
            ..seq.clone()
        };
        if let Some(j) = jobs.iter().position(|p| {
            JobSpec {
                seed: 0,
                ..p.clone()
            } == twin
        }) {
            ratios.push(job_median(i) / job_median(j));
        }
    }
    median(&ratios)
}

/// Push every per-layer metric onto `out`.
pub fn report(
    out: &mut Outcome,
    jobs: &[JobSpec],
    plain: &[(f64, Vec<f64>)],
    traced: &[(f64, Vec<JobTrace>)],
    serve: &[LoopPass],
    serialize_s: f64,
) {
    let per_pass: Vec<BTreeMap<&str, f64>> = traced.iter().map(|(_, t)| pass_layers(t)).collect();
    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for &(name, _) in METRICS {
        let xs: Vec<f64> = per_pass
            .iter()
            .map(|m| m.get(name).copied().unwrap_or(0.0))
            .collect();
        values.insert(name, median(&xs));
    }
    let untraced = median(&plain.iter().map(|p| p.0).collect::<Vec<_>>());
    let traced_p50 = median(&traced.iter().map(|p| p.0).collect::<Vec<_>>());
    values.insert("trace.untraced_pass_p50_s", untraced);
    values.insert("trace.traced_pass_p50_s", traced_p50);
    values.insert("trace.overhead_s", traced_p50 - untraced);
    values.insert("explore.par_speedup", par_speedup(jobs, plain));

    if !serve.is_empty() {
        let all = |f: fn(&LoopPass) -> &Vec<f64>| -> Vec<f64> {
            serve.iter().flat_map(|p| f(p).iter().copied()).collect()
        };
        values.insert("serve.submit_rtt_p50_s", median(&all(|p| &p.submit_rtt_s)));
        values.insert("serve.status_rtt_p50_s", median(&all(|p| &p.status_rtt_s)));
        values.insert("serve.queue_wait_p50_s", median(&all(|p| &p.queue_wait_s)));
        for (name, kind) in [
            ("serve.run_p50_s.explore", JobKind::Explore),
            ("serve.run_p50_s.campaign", JobKind::Campaign),
            ("serve.run_p50_s.bulk", JobKind::Bulk),
        ] {
            let xs: Vec<f64> = serve
                .iter()
                .flat_map(|p| p.run_s.iter().filter(|r| r.0 == kind).map(|r| r.1))
                .collect();
            values.insert(name, median(&xs));
        }
        let bytes: Vec<f64> = serve.iter().map(|p| p.reply_bytes as f64).collect();
        values.insert("serve.reply_bytes", median(&bytes));
        values.insert("serve.serialize_s", serialize_s);
        values.insert(
            "serve.queue_full",
            serve.iter().map(|p| p.queue_full as f64).sum(),
        );
    }

    let accounted = values["trace.accounted_s"];
    let overhead = values["trace.overhead_s"];
    for &(name, unit) in METRICS {
        let note = match name {
            "trace.accounted_s" => format!(
                "self times + child spans per traced pass; minus untraced pass_p50 = {:+.4} s \
                 against overhead {overhead:+.4} s",
                accounted - untraced
            ),
            "trace.untraced_pass_p50_s" => format!("median of {} in-process passes", plain.len()),
            "trace.traced_pass_p50_s" => format!("median of {} traced passes", traced.len()),
            _ => String::new(),
        };
        out.push(name, values[name], unit, note);
    }
}
