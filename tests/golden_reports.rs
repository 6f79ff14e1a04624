//! Byte-level goldens for the exhaustive tier: `run_job` explore reports
//! and `wb-cert/v1` certificates.
//!
//! Each golden file holds one line per fixed job, in the order listed
//! below. The specs cover every branch of the explorer's expansion step:
//! sequential and parallel walks at fault budgets 0, 1 and 2, each
//! reduction policy with and without a crash, exact dedup under a lossy
//! plan, the dedup-off comparison walk, and a walk cut short by its state
//! cap. The certificates cover fault-free and `crash:1` walks under every
//! model, and the witness-bearing off-promise instance, so witness order
//! and traces are pinned too.

use wb_bench::certify::{certify_spec, Provenance};
use wb_graph::{generators, Graph};
use wb_runtime::{ExploreConfig, FaultPlan, Model};
use wb_serve::{run_job, JobKind, JobSpec};

/// One explore job: `(protocol, workload, n, tweak)`.
type ExploreCase = (&'static str, &'static str, usize, fn(&mut JobSpec));

fn explore_cases() -> Vec<ExploreCase> {
    vec![
        ("mis:1", "path", 6, |_| {}),
        ("mis:1", "path", 6, |s| s.par = true),
        ("bfs", "cycle", 5, |s| s.faults = Some("crash:1".into())),
        ("bfs", "cycle", 5, |s| {
            s.faults = Some("crash:1".into());
            s.par = true;
        }),
        ("build:1", "tree", 6, |s| s.faults = Some("crash:2".into())),
        ("build:1", "tree", 6, |s| {
            s.faults = Some("crash:2".into());
            s.par = true;
        }),
        ("mis:1", "cycle", 6, |s| s.reduction = "dpor".into()),
        ("mis:1", "cycle", 6, |s| s.reduction = "symmetry".into()),
        ("mis:1", "cycle", 6, |s| {
            s.reduction = "dpor+symmetry".into()
        }),
        ("mis:1", "cycle", 6, |s| {
            s.reduction = "dpor".into();
            s.faults = Some("crash:1".into());
        }),
        ("mis:1", "cycle", 6, |s| {
            s.reduction = "symmetry".into();
            s.faults = Some("crash:1".into());
        }),
        ("mis:1", "cycle", 6, |s| {
            s.reduction = "dpor+symmetry".into();
            s.faults = Some("crash:1".into());
        }),
        ("eob-bfs", "eob", 6, |s| {
            s.dedup = "exact".into();
            s.faults = Some("lossy:1".into());
        }),
        ("async-bipartite-bfs", "clique", 5, |s| {
            s.compare_naive = true;
            s.faults = Some("crash:1".into());
        }),
        ("mis:1", "path", 8, |s| {
            s.faults = Some("crash:1".into());
            s.max_states = 50;
        }),
    ]
}

fn explore_lines() -> String {
    let mut out = String::new();
    for (protocol, workload, n, tweak) in explore_cases() {
        let mut spec = JobSpec::new(JobKind::Explore);
        spec.protocol = protocol.into();
        spec.workload = workload.into();
        spec.n = n;
        tweak(&mut spec);
        let report = run_job(&spec).unwrap_or_else(|e| panic!("{spec:?}: {e}"));
        out.push_str(&report.line());
        out.push('\n');
    }
    out
}

/// The off-promise instance for `async-bipartite-bfs`: a triangle with a
/// pendant tail, whose exploration deadlocks.
fn triangle_tail() -> Graph {
    Graph::from_edges(5, &[(1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
}

/// One certificate: `(protocol, family, graph, model, faults)`.
type CertificateCase = (
    &'static str,
    Option<&'static str>,
    Graph,
    Option<Model>,
    Option<FaultPlan>,
);

fn certificate_lines() -> String {
    let crash1 = Some(FaultPlan::crash_stop(1));
    let cases: Vec<CertificateCase> = vec![
        ("mis:1", Some("cycle"), generators::cycle(5), None, None),
        ("build:1", Some("path"), generators::path(4), None, crash1),
        ("bfs", Some("path"), generators::path(4), None, crash1),
        ("eob-bfs", Some("path"), generators::path(4), None, crash1),
        (
            "mis:1",
            Some("cycle"),
            generators::cycle(4),
            Some(Model::Sync),
            crash1,
        ),
        ("async-bipartite-bfs", None, triangle_tail(), None, None),
        ("async-bipartite-bfs", None, triangle_tail(), None, crash1),
    ];
    let mut out = String::new();
    for (spec, family, g, model, faults) in cases {
        let provenance = Provenance {
            family,
            seed: family.map(|_| 1),
        };
        let config = ExploreConfig::default().with_faults(faults);
        let run = certify_spec(spec, &g, model, provenance, &config)
            .unwrap_or_else(|e| panic!("{spec} must certify: {e}"));
        out.push_str(&run.certificate.to_json_line());
        out.push('\n');
    }
    out
}

fn golden(name: &str) -> String {
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e} (regen: cargo test --test golden_reports -- --ignored regen)",
            path.display()
        )
    })
}

/// Compare line by line first, so a drift names the job that moved.
fn assert_same_lines(rendered: &str, golden: &str, what: &str) {
    for (i, (got, want)) in rendered.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "{what} line {} drifted from the golden", i + 1);
    }
    assert_eq!(
        rendered, golden,
        "{what}: line count or trailing bytes differ"
    );
}

#[test]
fn explore_reports_match_the_golden_bytes() {
    assert_same_lines(
        &explore_lines(),
        &golden("explore_reports.jsonl"),
        "explore report",
    );
}

#[test]
fn certificates_match_the_golden_bytes() {
    let rendered = certificate_lines();
    assert_same_lines(&rendered, &golden("certificates.jsonl"), "certificate");
    for line in rendered.lines() {
        wb_verify::verify_line(line).expect("golden certificate must verify");
    }
}

/// DPOR's sleep-skip counter on an instance where its two rules differ: a
/// fault-free walk stops counting when it hands its engine to the last
/// child, a faulted walk counts every sleeping pick.
#[test]
fn sleep_skip_counts_are_pinned() {
    for (faults, want) in [(None, 87), (Some("crash:1"), 387)] {
        let mut spec = JobSpec::new(JobKind::Explore);
        spec.protocol = "mis:1".into();
        spec.workload = "tree".into();
        spec.n = 6;
        spec.seed = 2;
        spec.reduction = "dpor".into();
        spec.faults = faults.map(String::from);
        let line = run_job(&spec).unwrap().line();
        assert!(
            line.contains(&format!("\"sleep_skipped\":{want},")),
            "{faults:?}: {line}"
        );
    }
}

/// A parallel explore job prints the sequential report, apart from `"par"`,
/// on every run. Beside the golden cases, two instances where workers race
/// for the same states: a DPOR walk whose wake-ups depend on arrival order,
/// and a walk its state cap stops mid-generation.
#[test]
fn parallel_reports_equal_sequential_ones() {
    let mut cases = explore_cases();
    cases.push(("mis:1", "gnp:4", 12, |s| s.reduction = "dpor".into()));
    cases.push(("mis:1", "cycle", 10, |s| s.max_states = 300));
    for (protocol, workload, n, tweak) in cases {
        let mut spec = JobSpec::new(JobKind::Explore);
        spec.protocol = protocol.into();
        spec.workload = workload.into();
        spec.n = n;
        tweak(&mut spec);
        spec.par = false;
        let sequential = run_job(&spec).unwrap().line();
        spec.par = true;
        for run in 1..=3 {
            let parallel = run_job(&spec).unwrap().line();
            assert_eq!(
                parallel.replace("\"par\":true", "\"par\":false"),
                sequential,
                "{protocol} {workload} n={n}, parallel run {run}"
            );
        }
    }
}

/// Rewrite both golden files. Ignored by default; run explicitly only when
/// the report or certificate schema changes on purpose.
#[test]
#[ignore = "rewrites tests/golden; run explicitly"]
fn regen() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("explore_reports.jsonl"), explore_lines()).unwrap();
    std::fs::write(dir.join("certificates.jsonl"), certificate_lines()).unwrap();
}
