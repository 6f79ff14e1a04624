//! End-to-end tests of the `whiteboard` CLI binary.

use std::process::Command;

fn whiteboard(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_whiteboard"))
        .args(args)
        .output()
        .expect("binary runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

/// Like [`whiteboard`], but keeping stdout separate from stderr — the
/// campaign's JSON report is deterministic on stdout while timing goes to
/// stderr, and the byte-stability assertions must not mix the two.
fn whiteboard_stdout(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_whiteboard"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn run_build_on_tree() {
    let (ok, out) = whiteboard(&[
        "run",
        "--protocol",
        "build:1",
        "--workload",
        "tree",
        "--n",
        "64",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("rebuilt exactly = true"), "{out}");
}

#[test]
fn run_rejects_cycle_under_forest_protocol() {
    let (ok, out) = whiteboard(&[
        "run",
        "--protocol",
        "build:1",
        "--workload",
        "cycle",
        "--n",
        "30",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("rejected"), "{out}");
}

#[test]
fn run_mis_reports_validity() {
    let (ok, out) = whiteboard(&[
        "run",
        "--protocol",
        "mis:3",
        "--workload",
        "gnp:4",
        "--n",
        "50",
        "--adversary",
        "max",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("valid = true"), "{out}");
}

#[test]
fn run_sweeps_multiple_sizes() {
    let (ok, out) = whiteboard(&[
        "run",
        "--protocol",
        "bfs",
        "--workload",
        "gnp:3",
        "--n",
        "20,40,80",
    ]);
    assert!(ok, "{out}");
    assert_eq!(out.matches("matches reference = true").count(), 3, "{out}");
}

#[test]
fn trace_flag_prints_rounds() {
    let (ok, out) = whiteboard(&[
        "run",
        "--protocol",
        "eob-bfs",
        "--workload",
        "eob",
        "--n",
        "21",
        "--trace",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("round  active  writer  bits"), "{out}");
}

#[test]
fn check_is_exhaustive_and_bounded() {
    let (ok, out) = whiteboard(&["check", "--protocol", "mis:2", "--n", "3"]);
    assert!(ok, "{out}");
    assert!(out.contains("exhaustive check passed"), "{out}");
    let (ok, out) = whiteboard(&["check", "--protocol", "bfs", "--n", "9"]);
    assert!(!ok);
    assert!(out.contains("--n ≤ 5"), "{out}");
}

#[test]
fn explore_prints_the_report_and_dedup_stats() {
    let (ok, out) = whiteboard(&[
        "explore",
        "--protocol",
        "mis:1",
        "--workload",
        "path",
        "--n",
        "6",
        "--compare-naive",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("distinct states"), "{out}");
    assert!(out.contains("dedup ratio"), "{out}");
    assert!(out.contains("naive (no dedup)"), "{out}");
    assert!(out.contains("verdict         : PASS"), "{out}");
}

#[test]
fn explore_json_emits_machine_readable_report() {
    let (ok, out) = whiteboard(&[
        "explore",
        "--protocol",
        "mis:1",
        "--workload",
        "path",
        "--n",
        "6",
        "--json",
        "--compare-naive",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("\"distinct_states\":100"), "{out}");
    assert!(out.contains("\"verdict\":\"PASS\""), "{out}");
    assert!(out.contains("\"schema\":\"wb-serve/explore/v1\""), "{out}");
    assert!(out.contains("\"dedup\":\"canonical\""), "{out}");
    // --compare-naive lands in the JSON too, not just the human report.
    assert!(out.contains("\"naive_states\":1957"), "{out}");
    assert!(out.contains("\"dedup_savings\":19.57"), "{out}");
    // Timing stays on stderr: the report is deterministic.
    assert!(!out.contains("states_per_sec"), "{out}");
}

#[test]
fn explore_json_is_deterministic_for_a_fixed_seed() {
    let args = [
        "explore",
        "--protocol",
        "mis:1",
        "--workload",
        "path",
        "--n",
        "6",
        "--json",
    ];
    let (ok_a, a) = whiteboard_stdout(&args);
    let (ok_b, b) = whiteboard_stdout(&args);
    assert!(ok_a && ok_b, "{a}{b}");
    assert_eq!(a, b, "explore --json must be byte-identical across runs");
}

#[test]
fn explore_dedup_modes_agree() {
    // Fingerprint (default) and exact snapshots must report identical
    // state counts; `off` walks the full tree.
    let run = |dedup: &str| {
        let (ok, out) = whiteboard(&[
            "explore",
            "--protocol",
            "build:1",
            "--workload",
            "path",
            "--n",
            "6",
            "--dedup",
            dedup,
            "--json",
        ]);
        assert!(ok, "{out}");
        out
    };
    let fp = run("canonical");
    let exact = run("exact");
    assert!(fp.contains("\"distinct_states\":64"), "{fp}");
    assert!(exact.contains("\"distinct_states\":64"), "{exact}");
    let off = run("off");
    assert!(off.contains("\"distinct_states\":1957"), "{off}");

    let (ok, out) = whiteboard(&[
        "explore",
        "--protocol",
        "mis:1",
        "--workload",
        "path",
        "--n",
        "4",
        "--dedup",
        "bogus",
    ]);
    assert!(!ok);
    assert!(out.contains("unknown dedup policy"), "{out}");
}

#[test]
fn explore_reduction_policies_match_off_and_report_stats() {
    // The reduced walks must agree with the unreduced one on every
    // observable: distinct states, terminals, verdict. Stats only appear
    // when a reduction is on, keeping the off-policy JSON byte-stable.
    let run = |reduction: &str| {
        let (ok, out) = whiteboard_stdout(&[
            "explore",
            "--protocol",
            "mis:1",
            "--workload",
            "cycle",
            "--n",
            "6",
            "--reduction",
            reduction,
            "--json",
        ]);
        assert!(ok, "{out}");
        out
    };
    let off = run("off");
    assert!(off.contains("\"distinct_states\":88"), "{off}");
    assert!(!off.contains("\"reduction\""), "{off}");
    for policy in ["dpor", "symmetry", "dpor+symmetry"] {
        let reduced = run(policy);
        assert!(reduced.contains("\"terminals\":2"), "{policy}: {reduced}");
        assert!(
            reduced.contains("\"verdict\":\"PASS\""),
            "{policy}: {reduced}"
        );
        assert!(
            reduced.contains(&format!("\"reduction\":\"{policy}\"")),
            "{policy}: {reduced}"
        );
        assert!(
            reduced.contains("\"reduction_stats\":"),
            "{policy}: {reduced}"
        );
    }
    // DPOR prunes transitions, never states: the count is preserved.
    assert!(run("dpor").contains("\"distinct_states\":88"));

    // Reductions prune relative to the deduplicated state graph, so
    // `--dedup off` is refused with the reason.
    let (ok, out) = whiteboard(&[
        "explore",
        "--protocol",
        "mis:1",
        "--workload",
        "cycle",
        "--n",
        "5",
        "--reduction",
        "dpor",
        "--dedup",
        "off",
    ]);
    assert!(!ok);
    assert!(out.contains("requires state deduplication"), "{out}");
    let (ok, out) = whiteboard(&[
        "explore",
        "--protocol",
        "mis:1",
        "--n",
        "4",
        "--reduction",
        "bogus",
    ]);
    assert!(!ok);
    assert!(out.contains("unknown reduction policy"), "{out}");
}

#[test]
fn explore_json_rate_fields_are_finite_and_sane() {
    // The dedup-ratio field goes through the zero-division guards on
    // `ExplorationReport`, and timing fields must NOT appear — the report
    // is deterministic, with wall-clock numbers on stderr only.
    let (ok, out) = whiteboard_stdout(&[
        "explore",
        "--protocol",
        "mis:1",
        "--workload",
        "path",
        "--n",
        "5",
        "--json",
    ]);
    assert!(ok, "{out}");
    let doc = wb_bench::json::Json::parse(out.trim()).expect("explore --json emits valid JSON");
    let ratio = doc
        .get("dedup_ratio")
        .and_then(wb_bench::json::Json::as_f64)
        .expect("dedup_ratio present");
    assert!(ratio.is_finite() && ratio >= 1.0, "dedup_ratio = {ratio}");
    assert!(doc.get("wall_sec").is_none(), "{out}");
    assert!(doc.get("states_per_sec").is_none(), "{out}");
}

#[test]
fn campaign_reports_pass_and_throughput() {
    let (ok, out) = whiteboard(&[
        "campaign",
        "--protocol",
        "mis:1",
        "--graph-family",
        "gnp",
        "--n",
        "40",
        "--trials",
        "2000",
        "--seed",
        "5",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("passed / failed : 2000 / 0"), "{out}");
    assert!(out.contains("verdict         : PASS"), "{out}");
    assert!(out.contains("trials/sec"), "{out}");
}

#[test]
fn campaign_json_is_deterministic_for_a_fixed_seed() {
    let args = [
        "campaign",
        "--protocol",
        "mis:1",
        "--graph-family",
        "path",
        "--n",
        "6",
        "--trials",
        "3000",
        "--seed",
        "99",
        "--model",
        "fsync",
        "--json",
    ];
    let (ok_a, a) = whiteboard_stdout(&args);
    let (ok_b, b) = whiteboard_stdout(&args);
    assert!(ok_a && ok_b, "{a}{b}");
    assert_eq!(a, b, "fixed seed must give byte-identical JSON");
    assert!(a.contains("\"schema\":\"wb-sim/campaign/v1\""), "{a}");
    assert!(
        a.contains("\"model\":\"SYNC\""),
        "fsync promotes to SYNC: {a}"
    );
    assert!(a.contains("\"verdict\":\"PASS\""), "{a}");
    wb_bench::json::Json::parse(a.trim()).expect("campaign --json emits valid JSON");
}

#[test]
fn campaign_shrinks_injected_failures_to_corpus_witnesses() {
    // The Open Problem 3 ablation graph (triangle with tail) deadlocks the
    // async bipartite BFS on every schedule: the campaign must find it,
    // shrink it, and write a corpus fixture that replays.
    let dir = std::env::temp_dir().join("wb_cli_campaign_test");
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("ablation.txt");
    std::fs::write(&graph_path, "5\n1 2\n2 3\n1 3\n3 4\n4 5\n").unwrap();
    let fixture_path = dir.join("witness.ron");
    let family = format!("file:{}", graph_path.display());
    let (ok, out) = whiteboard(&[
        "campaign",
        "--protocol",
        "async-bipartite-bfs",
        "--graph-family",
        &family,
        "--n",
        "5",
        "--trials",
        "500",
        "--seed",
        "9",
        "--shrink",
        "--shrink-out",
        fixture_path.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("verdict         : FAIL"), "{out}");
    assert!(out.contains("shrunk witness"), "{out}");
    assert!(out.contains("wrote shrunk witness fixture"), "{out}");
    let fixture = shared_whiteboard::corpus::WitnessFixture::load(&fixture_path).unwrap();
    assert_eq!(fixture.protocol, "async-bipartite-bfs");
    fixture.replay().expect("shrunk fixture replays");
    let _ = std::fs::remove_file(&fixture_path);
    let _ = std::fs::remove_file(&graph_path);
}

#[test]
fn campaign_rejects_bad_specs_cleanly() {
    let (ok, out) = whiteboard(&[
        "campaign",
        "--protocol",
        "mis:1",
        "--n",
        "5",
        "--trials",
        "10",
        "--sampler",
        "bogus",
    ]);
    assert!(!ok);
    assert!(out.contains("unknown sampler"), "{out}");
    let (ok, out) = whiteboard(&[
        "campaign",
        "--protocol",
        "mis:1",
        "--n",
        "5",
        "--trials",
        "10",
        "--model",
        "bogus",
    ]);
    assert!(!ok);
    assert!(out.contains("unknown model"), "{out}");
    // MIS is SIMSYNC-native: demotion to SIMASYNC must be refused.
    let (ok, out) = whiteboard(&[
        "campaign",
        "--protocol",
        "mis:1",
        "--n",
        "5",
        "--trials",
        "10",
        "--model",
        "simasync",
    ]);
    assert!(!ok);
    assert!(out.contains("cannot demote"), "{out}");
}

#[test]
fn explore_parallel_truncation_is_reported_not_fatal() {
    // A tight state cap: partial result, INCONCLUSIVE verdict, exit 0.
    let (ok, out) = whiteboard(&[
        "explore",
        "--protocol",
        "bfs",
        "--workload",
        "clique",
        "--n",
        "7",
        "--par",
        "--max-states",
        "5",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("truncated       : YES"), "{out}");
    assert!(out.contains("INCONCLUSIVE"), "{out}");
}

#[test]
fn bulk_runs_both_engine_paths_and_reports_throughput() {
    // SIMSYNC columnar path (MIS) on the linear-time sparse family.
    let (ok, out) = whiteboard(&[
        "bulk",
        "--protocol",
        "mis:1",
        "--graph-family",
        "gnp-lin:4",
        "--n",
        "3000",
        "--seed",
        "5",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("rounds/sec"), "{out}");
    assert!(out.contains("verdict         : PASS"), "{out}");
    // SIMASYNC parallel path (BUILD), JSON form.
    let (ok, out) = whiteboard_stdout(&[
        "bulk",
        "--protocol",
        "build:2",
        "--graph-family",
        "kdeg-lin:2",
        "--n",
        "2000",
        "--json",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("\"verdict\":\"PASS\""), "{out}");
    assert!(out.contains("\"rounds\":2000"), "{out}");
    assert!(out.contains("\"board_payload_bytes\":"), "{out}");
    assert!(out.contains("\"schema\":\"wb-serve/bulk/v1\""), "{out}");
    // Timing stays on stderr: the report is deterministic.
    assert!(!out.contains("rounds_per_sec"), "{out}");
    wb_bench::json::Json::parse(out.trim()).expect("bulk --json emits valid JSON");
}

#[test]
fn bulk_rejects_free_native_protocols_and_demotions() {
    // The rejection must name the offending protocol, its model, and the
    // supported alternatives — not just wave at "simultaneous".
    let (ok, out) = whiteboard(&["bulk", "--protocol", "bfs", "--n", "100"]);
    assert!(!ok);
    assert!(out.contains("protocol 'bfs'"), "{out}");
    assert!(out.contains("the free model SYNC"), "{out}");
    assert!(out.contains("simultaneous-native protocols only"), "{out}");
    assert!(out.contains("SIMASYNC or SIMSYNC"), "{out}");
    // An ASYNC-native protocol is named with its own model.
    let (ok, out) = whiteboard(&["bulk", "--protocol", "eob-bfs", "--n", "100"]);
    assert!(!ok);
    assert!(out.contains("protocol 'eob-bfs'"), "{out}");
    assert!(out.contains("the free model ASYNC"), "{out}");
    assert!(out.contains("SIMASYNC or SIMSYNC"), "{out}");
    // Demotion is refused with the structured runtime error naming the
    // supported set.
    let (ok, out) = whiteboard(&[
        "bulk",
        "--protocol",
        "mis:1",
        "--n",
        "100",
        "--model",
        "simasync",
    ]);
    assert!(!ok);
    assert!(out.contains("protocol 'mis:1'"), "{out}");
    assert!(
        out.contains("cannot demote SIMSYNC protocol to SIMASYNC"),
        "{out}"
    );
    assert!(
        out.contains("runs it under SIMSYNC, ASYNC or SYNC only"),
        "{out}"
    );
}

#[test]
fn bulk_accepts_free_targets_through_the_event_scheduler() {
    // SYNC target: the schedule-ordered event loop on a SIMSYNC protocol.
    let (ok, out) = whiteboard(&[
        "bulk",
        "--protocol",
        "mis:1",
        "--graph-family",
        "gnp-lin:4",
        "--n",
        "2000",
        "--model",
        "sync",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("@ SYNC"), "{out}");
    assert!(out.contains("verdict         : PASS"), "{out}");
    // ASYNC target: the Lemma 4 sequential-activation chain, JSON form.
    let (ok, out) = whiteboard_stdout(&[
        "bulk",
        "--protocol",
        "mis:1",
        "--graph-family",
        "gnp-lin:4",
        "--n",
        "2000",
        "--model",
        "async",
        "--json",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("\"model\":\"ASYNC\""), "{out}");
    assert!(out.contains("\"verdict\":\"PASS\""), "{out}");
    assert!(out.contains("\"rounds\":2000"), "{out}");
    // A SIMASYNC-native protocol rides the parallel path under any target.
    let (ok, out) = whiteboard(&[
        "bulk",
        "--protocol",
        "build:2",
        "--graph-family",
        "kdeg-lin:2",
        "--n",
        "2000",
        "--model",
        "async",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("@ ASYNC"), "{out}");
    assert!(out.contains("verdict         : PASS"), "{out}");
}

#[test]
fn fault_plans_flow_through_every_tier_and_refusals_are_structured() {
    // Faulted explore: the plan is echoed and the degraded verdict passes.
    let (ok, out) = whiteboard(&[
        "explore",
        "--protocol",
        "mis:1",
        "--workload",
        "path",
        "--n",
        "4",
        "--faults",
        "crash:1",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("faults          : crash:1"), "{out}");
    assert!(out.contains("verdict         : PASS"), "{out}");
    // Faulted campaign, JSON form: the plan rides in the report.
    let (ok, out) = whiteboard_stdout(&[
        "campaign",
        "--protocol",
        "mis:1",
        "--n",
        "12",
        "--trials",
        "20",
        "--faults",
        "crash:1",
        "--json",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("\"faults\":\"crash:1\""), "{out}");
    // Faulted bulk names its victims.
    let (ok, out) = whiteboard(&[
        "bulk",
        "--protocol",
        "mis:1",
        "--n",
        "200",
        "--faults",
        "crash:2",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("faults          : crash:2 (died"), "{out}");
    // Bulk refuses lossy plans with the reason and the escape route.
    let (ok, out) = whiteboard(&[
        "bulk",
        "--protocol",
        "mis:1",
        "--n",
        "200",
        "--faults",
        "lossy:1",
    ]);
    assert!(!ok);
    assert!(out.contains("crash-stop fault plans only"), "{out}");
    assert!(out.contains("`explore` or `campaign`"), "{out}");
    // Shrinking replays fault-free, so faulted campaigns refuse --shrink.
    let (ok, out) = whiteboard(&[
        "campaign",
        "--protocol",
        "mis:1",
        "--n",
        "12",
        "--trials",
        "20",
        "--faults",
        "crash:1",
        "--shrink",
    ]);
    assert!(!ok);
    assert!(
        out.contains("--shrink replays schedules fault-free"),
        "{out}"
    );
    // Malformed plans are named.
    let (ok, out) = whiteboard(&[
        "explore",
        "--protocol",
        "mis:1",
        "--n",
        "4",
        "--faults",
        "melt:3",
    ]);
    assert!(!ok);
    assert!(out.contains("melt"), "{out}");
}

#[test]
fn list_marks_bulk_tier_protocols() {
    let (ok, out) = whiteboard(&["list"]);
    assert!(ok);
    assert!(out.contains("[bulk]"), "{out}");
    assert!(out.contains("Thm 5"), "{out}");
    // Free-model rows carry no bulk marker.
    let bfs_line = out
        .lines()
        .find(|l| l.trim_start().starts_with("bfs"))
        .unwrap();
    assert!(!bfs_line.contains("[bulk]"), "{bfs_line}");
}

#[test]
fn capacity_table_prints_verdicts() {
    let (ok, out) = whiteboard(&["capacity", "--n", "4096"]);
    assert!(ok, "{out}");
    assert!(out.contains("IMPOSSIBLE"), "{out}");
    assert!(out.contains("labeled trees"), "{out}");
}

#[test]
fn list_shows_protocols() {
    let (ok, out) = whiteboard(&["list"]);
    assert!(ok);
    assert!(out.contains("build:K") && out.contains("eob-bfs"), "{out}");
}

#[test]
fn connectivity_and_statistics_protocols() {
    let (ok, out) = whiteboard(&[
        "run",
        "--protocol",
        "connectivity",
        "--workload",
        "two-cliques",
        "--n",
        "12",
    ]);
    assert!(ok, "{out}");
    assert!(
        out.contains("connected = false (2 components; truth: false)"),
        "{out}"
    );
    let (ok, out) = whiteboard(&[
        "run",
        "--protocol",
        "edge-count",
        "--workload",
        "clique",
        "--n",
        "10",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("m = 45 (truth: 45)"), "{out}");
    let (ok, out) = whiteboard(&[
        "run",
        "--protocol",
        "degree-stats",
        "--workload",
        "cycle",
        "--n",
        "9",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("regular Some(2)"), "{out}");
}

#[test]
fn mixed_build_handles_dense_inputs() {
    let (ok, out) = whiteboard(&[
        "run",
        "--protocol",
        "build-mixed:2",
        "--workload",
        "mixed:2",
        "--n",
        "60",
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("rebuilt exactly = true"), "{out}");
}

#[test]
fn zero_nodes_is_an_error_not_a_panic() {
    for args in [
        &["explore", "--n", "0"][..],
        &["explore", "--n", "0", "--json"],
        &["certify", "--n", "0"],
        &["campaign", "--n", "0"],
        &["campaign", "--n", "0", "--json"],
        &["run", "--n", "0"],
        &["bulk", "--n", "0"],
        &["bulk", "--n", "0", "--json"],
    ] {
        let (ok, out) = whiteboard(args);
        assert!(!ok, "{args:?}: {out}");
        assert!(out.contains("needs n ≥ 1"), "{args:?}: {out}");
        assert!(!out.contains("panicked"), "{args:?}: {out}");
    }
    let (ok, out) = whiteboard(&["check", "--n", "0"]);
    assert!(!ok, "{out}");
    assert!(out.contains("1 ≤ --n ≤ 5"), "{out}");
    assert!(!out.contains("panicked"), "{out}");
}

#[test]
fn unrepresentable_build_bounds_are_errors_not_aborts() {
    // K = 2³² + 1 used to abort allocating its power sums (exit 134), and
    // K = 70 000 at n = 3 wrapped the u32 budget and panicked in bulk.
    for args in [
        &[
            "bulk",
            "--protocol",
            "build:4294967297",
            "--graph-family",
            "kdeg-lin:2",
            "--n",
            "50",
            "--json",
        ][..],
        &["bulk", "--protocol", "build:4294967297", "--n", "50"],
        &["bulk", "--protocol", "build-mixed:4294967297", "--n", "50"],
        &[
            "bulk",
            "--protocol",
            "build:70000",
            "--graph-family",
            "kdeg-lin:2",
            "--n",
            "3",
        ],
        &[
            "explore",
            "--protocol",
            "build:4294967297",
            "--workload",
            "path",
            "--n",
            "3",
        ],
        &[
            "explore",
            "--protocol",
            "build-mixed:4294967297",
            "--workload",
            "path",
            "--n",
            "3",
            "--json",
        ],
        &["run", "--protocol", "build:4294967297", "--n", "5"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_whiteboard"))
            .args(args)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert!(
            err.contains("would need more than 4294967295 bits"),
            "{args:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn file_workload_loads_edge_lists() {
    let dir = std::env::temp_dir().join("wb_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("input.txt");
    std::fs::write(&path, "5\n1 2\n2 3\n3 4\n4 5\n").unwrap();
    let spec = format!("file:{}", path.display());
    let (ok, out) = whiteboard(&["run", "--protocol", "bfs", "--workload", &spec, "--n", "0"]);
    assert!(ok, "{out}");
    assert!(out.contains("matches reference = true"), "{out}");
    let (ok, out) = whiteboard(&[
        "run",
        "--protocol",
        "bfs",
        "--workload",
        "file:/nonexistent",
    ]);
    assert!(!ok);
    assert!(out.contains("cannot load"), "{out}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn dot_subcommand_emits_graphviz() {
    let (ok, out) = whiteboard(&["dot", "--workload", "cycle", "--n", "6"]);
    assert!(ok, "{out}");
    assert!(out.starts_with("graph whiteboard {"), "{out}");
    assert_eq!(out.matches(" -- ").count(), 6, "{out}");
    let (ok, out) = whiteboard(&["dot", "--workload", "path", "--n", "4", "--protocol", "bfs"]);
    assert!(ok, "{out}");
    assert!(out.contains("doublecircle"), "{out}");
}

#[test]
fn unknown_flags_fail_cleanly() {
    let (ok, out) = whiteboard(&["run", "--bogus"]);
    assert!(!ok);
    assert!(out.contains("unknown flag"), "{out}");
    let (ok, out) = whiteboard(&["frobnicate"]);
    assert!(!ok);
    assert!(out.contains("unknown command"), "{out}");
}

/// Every subcommand rejects unknown and duplicate flags with a usage error
/// naming the offending flag — a typo'd or repeated flag must never be
/// silently ignored.
#[test]
fn every_subcommand_rejects_unknown_and_duplicate_flags() {
    const SUBCOMMANDS: &[&str] = &[
        "run", "check", "explore", "campaign", "bulk", "capacity", "certify", "verify", "dot",
        "serve", "submit", "status", "shutdown", "list",
    ];
    for cmd in SUBCOMMANDS {
        let (ok, out) = whiteboard(&[cmd, "--frobnicate"]);
        assert!(!ok, "{cmd} accepted an unknown flag: {out}");
        assert!(
            out.contains("unknown flag '--frobnicate'"),
            "{cmd} did not name the unknown flag: {out}"
        );
        let (ok, out) = whiteboard(&[cmd, "--seed", "1", "--seed", "2"]);
        assert!(!ok, "{cmd} accepted a duplicate flag: {out}");
        assert!(
            out.contains("duplicate flag '--seed'"),
            "{cmd} did not name the duplicate flag: {out}"
        );
    }
}

#[test]
fn strict_parsing_catches_stray_and_malformed_arguments() {
    // `--workload` and `--graph-family` are one flag under two names.
    let (ok, out) = whiteboard(&[
        "campaign",
        "--workload",
        "path",
        "--graph-family",
        "gnp",
        "--n",
        "5",
        "--trials",
        "1",
    ]);
    assert!(!ok);
    assert!(out.contains("duplicate flag '--graph-family'"), "{out}");
    // A flag where a value belongs is reported, not consumed.
    let (ok, out) = whiteboard(&["explore", "--protocol", "--json"]);
    assert!(!ok);
    assert!(out.contains("--protocol expects a value"), "{out}");
    // Stray positionals are errors everywhere except `verify`.
    let (ok, out) = whiteboard(&["run", "extra-word"]);
    assert!(!ok);
    assert!(out.contains("unexpected argument 'extra-word'"), "{out}");
    // A command that runs one instance refuses an `--n` list instead of
    // running its first value.
    let (ok, out) = whiteboard(&[
        "explore",
        "--protocol",
        "mis:1",
        "--workload",
        "path",
        "--n",
        "4,5",
        "--json",
    ]);
    assert!(!ok, "{out}");
    assert!(out.contains("takes a single --n value"), "{out}");
    assert!(!out.contains("\"schema\""), "{out}");
    for args in [
        &["campaign", "--n", "4,5"][..],
        &["check", "--n", "3,4"],
        &["dot", "--n", "4,5"],
        &["submit", "--kind", "explore", "--n", "4,5"],
    ] {
        let (ok, out) = whiteboard(args);
        assert!(!ok, "{args:?}: {out}");
        assert!(out.contains("takes a single --n value"), "{args:?}: {out}");
    }
    // `--batch 0` is refused by the parser, as the wire refuses it, so
    // `submit` and the matching `--json` command agree.
    for args in [
        &[
            "bulk",
            "--protocol",
            "build:1",
            "--workload",
            "path",
            "--n",
            "10",
            "--batch",
            "0",
            "--json",
        ][..],
        &[
            "campaign",
            "--protocol",
            "mis:1",
            "--n",
            "5",
            "--batch",
            "0",
        ],
        &["submit", "--kind", "bulk", "--batch", "0"],
    ] {
        let (ok, out) = whiteboard(args);
        assert!(!ok, "{args:?}: {out}");
        assert!(
            out.contains("--batch must be at least 1"),
            "{args:?}: {out}"
        );
        assert!(!out.contains("\"schema\""), "{args:?}: {out}");
    }
}

#[test]
fn absent_n_takes_each_command_default() {
    // `check` enumerates all graphs at n = 4 by default.
    let (ok, out) = whiteboard(&["check", "--protocol", "mis:1"]);
    assert!(ok, "{out}");
    assert!(out.contains("(n = 4)"), "{out}");
    // `explore` takes the job layer's default, so the CLI and a wire job
    // that leaves out `n` print the same report.
    let (ok, out) = whiteboard_stdout(&[
        "explore",
        "--protocol",
        "mis:1",
        "--workload",
        "path",
        "--json",
    ]);
    assert!(ok, "{out}");
    let spec = wb_serve::JobSpec {
        protocol: "mis:1".into(),
        workload: "path".into(),
        ..wb_serve::JobSpec::new(wb_serve::JobKind::Explore)
    };
    let direct = wb_serve::run_job(&spec).expect("job runs").line();
    assert_eq!(out, direct + "\n");
}

#[test]
fn run_accepts_every_registry_protocol() {
    // `run` keeps its own protocol table; it must know every name the
    // registry lists.
    for p in wb_core::registry::PROTOCOLS {
        let (ok, out) = whiteboard(&[
            "run",
            "--protocol",
            p.name,
            "--workload",
            "path",
            "--n",
            "4",
        ]);
        assert!(ok, "{}: {out}", p.name);
    }
}

/// Runs one invocation as text and again with `--json`; both must exit
/// alike. Returns the text stdout and the parsed report.
fn text_and_report(args: &[&str]) -> (String, wb_bench::json::Json) {
    let run = |json: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_whiteboard"));
        cmd.args(args);
        if json {
            cmd.arg("--json");
        }
        cmd.output().expect("binary runs")
    };
    let (text, json) = (run(false), run(true));
    assert_eq!(text.status.code(), json.status.code(), "{args:?}");
    let report = String::from_utf8_lossy(&json.stdout);
    (
        String::from_utf8_lossy(&text.stdout).into_owned(),
        wb_bench::json::Json::parse(report.trim()).expect("--json emits one report"),
    )
}

#[test]
fn text_output_renders_the_report() {
    use wb_bench::json::Json;
    let num = |r: &Json, key: &str| {
        r.get(key)
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("no number '{key}' in {r}")) as u64
    };
    let text = |r: &Json, key: &str| {
        r.get(key)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("no string '{key}' in {r}"))
            .to_string()
    };
    let ids = |r: &Json, key: &str| -> Vec<u64> {
        r.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("no list '{key}' in {r}"))
            .iter()
            .map(|v| v.as_f64().expect("node ID") as u64)
            .collect()
    };
    let check = |out: &str, lines: Vec<String>| {
        for line in lines {
            assert!(out.contains(&line), "missing '{line}' in:\n{out}");
        }
    };
    let explore_lines = |r: &Json| {
        let verdict = text(r, "verdict");
        vec![
            format!("(n = {})\n", num(r, "n")),
            format!("  distinct states : {}\n", num(r, "distinct_states")),
            format!("  terminal configs: {}\n", num(r, "terminals")),
            format!("  merged branches : {} (", num(r, "merged")),
            format!("  peak frontier   : {}\n", num(r, "peak_frontier")),
            format!(
                "  truncated       : {}",
                if r.get("truncated") == Some(&Json::Bool(true)) {
                    "YES"
                } else {
                    "no\n"
                }
            ),
            match verdict.as_str() {
                "FAIL" => format!(
                    "  verdict         : FAIL ({} failing terminal(s);",
                    num(r, "failures")
                ),
                v => format!("  verdict         : {v} ("),
            },
        ]
    };

    let dir = std::env::temp_dir().join(format!("wb_cli_render_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("ablation.txt");
    std::fs::write(&graph_path, "5\n1 2\n2 3\n1 3\n3 4\n4 5\n").unwrap();
    let ablation = format!("file:{}", graph_path.display());

    // Reduced explore with the naive comparison.
    let (out, r) = text_and_report(&[
        "explore",
        "--protocol",
        "mis:1",
        "--workload",
        "cycle",
        "--n",
        "6",
        "--compare-naive",
        "--reduction",
        "dpor",
    ]);
    let stats = r.get("reduction_stats").expect("reduced report");
    let mut lines = explore_lines(&r);
    lines.push(format!(
        "naive (no dedup): {} states, {} schedules",
        num(&r, "naive_states"),
        num(&r, "naive_schedules")
    ));
    lines.push(format!(
        "— {} generated, {} sleep-skipped, {} orbit terminals, {} re-expansions\n",
        num(stats, "generated"),
        num(stats, "sleep_skipped"),
        num(stats, "orbit_terminals"),
        num(stats, "reexpansions")
    ));
    check(&out, lines);

    // A failing explore on the Open Problem 3 ablation graph.
    let (out, r) = text_and_report(&[
        "explore",
        "--protocol",
        "async-bipartite-bfs",
        "--workload",
        &ablation,
        "--n",
        "5",
    ]);
    assert_eq!(text(&r, "verdict"), "FAIL");
    check(&out, explore_lines(&r));

    // An explore truncated by its state cap.
    let (out, r) = text_and_report(&[
        "explore",
        "--protocol",
        "mis:1",
        "--workload",
        "path",
        "--n",
        "6",
        "--max-states",
        "20",
    ]);
    assert_eq!(text(&r, "verdict"), "INCONCLUSIVE");
    check(&out, explore_lines(&r));

    // A faulted campaign with witnesses.
    let (out, r) = text_and_report(&[
        "campaign",
        "--protocol",
        "async-bipartite-bfs",
        "--graph-family",
        &ablation,
        "--n",
        "5",
        "--trials",
        "200",
        "--seed",
        "9",
        "--faults",
        "crash:1",
    ]);
    let witnesses = r.get("witnesses").and_then(Json::as_arr).unwrap();
    assert!(!witnesses.is_empty(), "{r}");
    let mut lines = vec![
        format!("(n = {})\n", num(&r, "n")),
        format!(
            "  trials          : {} (sampler {}, seed {})\n",
            num(&r, "trials"),
            text(&r, "sampler"),
            text(&r, "seed")
        ),
        format!("  faults          : {}\n", text(&r, "faults")),
        format!(
            "  passed / failed : {} / {} (deadlocks {})\n",
            num(&r, "passed"),
            num(&r, "failed"),
            num(&r, "deadlocks")
        ),
        format!("  distinct outcomes: {}\n", num(&r, "distinct_outcomes")),
        format!("  verdict         : {}\n", text(&r, "verdict")),
    ];
    for w in witnesses.iter().take(3) {
        let died = ids(w, "died");
        lines.push(format!(
            "  FAIL trial {} (seed {}): write order {:?}{} → {}\n",
            num(w, "trial"),
            text(w, "seed"),
            ids(w, "schedule"),
            if died.is_empty() {
                String::new()
            } else {
                format!(" (died {died:?})")
            },
            text(w, "outcome")
        ));
    }
    assert_eq!(
        out.matches("  FAIL trial ").count(),
        witnesses.len().min(3),
        "{out}"
    );
    check(&out, lines);

    // A faulted bulk run names its crashed writers.
    let (out, r) = text_and_report(&[
        "bulk",
        "--protocol",
        "mis:1",
        "--n",
        "200",
        "--faults",
        "crash:2",
    ]);
    assert_eq!(ids(&r, "died").len(), 2, "{r}");
    check(
        &out,
        vec![
            format!("(n = {})\n", num(&r, "n")),
            format!(
                "  faults          : {} (died {:?})\n",
                text(&r, "faults"),
                ids(&r, "died")
            ),
            format!("  rounds          : {} in ", num(&r, "rounds")),
            format!(
                "  board           : {} bytes payload + {} bytes index, {} shards\n",
                num(&r, "board_payload_bytes"),
                num(&r, "board_index_bytes"),
                num(&r, "shards")
            ),
            format!(
                "  messages        : {} bits total, {} bits/msg max\n",
                num(&r, "total_bits"),
                num(&r, "max_message_bits")
            ),
            format!("  verdict         : {}\n", text(&r, "verdict")),
        ],
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn certify_then_verify_round_trips() {
    let dir = std::env::temp_dir().join("wb_cli_certify_test");
    std::fs::create_dir_all(&dir).unwrap();
    let cert_path = dir.join("mis.jsonl");
    let (ok, out) = whiteboard(&[
        "certify",
        "--protocol",
        "mis:1",
        "--workload",
        "path",
        "--n",
        "3,4",
        "--model",
        "sync",
        "--out",
        cert_path.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    assert!(out.contains("certified mis:1"), "{out}");
    let (ok, out) = whiteboard(&["verify", cert_path.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert_eq!(out.matches("PASS mis:1 SYNC").count(), 2, "{out}");
    assert!(out.contains("verified 2 certificate(s)"), "{out}");
    let _ = std::fs::remove_file(&cert_path);
}

#[test]
fn certify_without_out_writes_jsonl_to_stdout() {
    let (ok, out) = whiteboard_stdout(&[
        "certify",
        "--protocol",
        "build:1",
        "--workload",
        "tree",
        "--n",
        "3",
    ]);
    assert!(ok, "{out}");
    assert!(out.starts_with("{\"digest\":\"0x"), "{out}");
    assert_eq!(out.lines().count(), 1, "{out}");
}

#[test]
fn certify_refuses_dedup_off() {
    let (ok, out) = whiteboard(&[
        "certify",
        "--protocol",
        "mis:1",
        "--n",
        "3",
        "--dedup",
        "off",
    ]);
    assert!(!ok);
    assert!(out.contains("DedupPolicy::Off"), "{out}");
}

#[test]
fn verify_rejects_a_corrupted_certificate_file() {
    let dir = std::env::temp_dir().join("wb_cli_verify_tamper_test");
    std::fs::create_dir_all(&dir).unwrap();
    let cert_path = dir.join("cert.jsonl");
    let (ok, out) = whiteboard(&[
        "certify",
        "--protocol",
        "two-cliques",
        "--workload",
        "two-cliques",
        "--n",
        "4",
        "--out",
        cert_path.to_str().unwrap(),
    ]);
    assert!(ok, "{out}");
    let mut text = std::fs::read_to_string(&cert_path).unwrap();
    // Flip the claimed state count (keeping the digest stale).
    let pos = text.find("\"states\":").expect("states field") + "\"states\":".len();
    let digit = text.as_bytes()[pos];
    let flipped = if digit == b'9' { b'8' } else { digit + 1 };
    // SAFETY-free byte edit via String rebuild.
    text.replace_range(pos..pos + 1, std::str::from_utf8(&[flipped]).unwrap());
    std::fs::write(&cert_path, &text).unwrap();
    let (ok, out) = whiteboard(&["verify", cert_path.to_str().unwrap()]);
    assert!(!ok);
    assert!(out.contains("FAIL"), "{out}");
    assert!(out.contains("digest"), "{out}");
    let _ = std::fs::remove_file(&cert_path);
}

/// End-to-end daemon smoke through the CLI client subcommands: start
/// `whiteboard serve`, submit one job per tier, and check the returned
/// reports are byte-identical to the direct `--json` commands; then status,
/// graceful shutdown, and daemon exit.
#[test]
fn serve_submit_status_shutdown_round_trip() {
    let dir = std::env::temp_dir().join(format!("wb_cli_serve_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("wb.sock");
    let socket_str = socket.to_str().unwrap();
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_whiteboard"))
        .args(["serve", "--socket", socket_str, "--workers", "2"])
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("daemon starts");
    // Wait for the socket to appear.
    for _ in 0..200 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    assert!(socket.exists(), "daemon never bound its socket");

    // One job per tier, each vs the direct CLI `--json` equivalent.
    let explore_args = [
        "--protocol",
        "mis:1",
        "--workload",
        "path",
        "--n",
        "6",
        "--json",
    ];
    let campaign_args = [
        "--protocol",
        "mis:1",
        "--graph-family",
        "gnp",
        "--n",
        "30",
        "--trials",
        "500",
        "--seed",
        "5",
        "--json",
    ];
    let bulk_args = [
        "--protocol",
        "build:2",
        "--graph-family",
        "kdeg-lin:2",
        "--n",
        "1000",
        "--seed",
        "3",
        "--json",
    ];
    for (kind, args) in [
        ("explore", &explore_args[..]),
        ("campaign", &campaign_args[..]),
        ("bulk", &bulk_args[..]),
    ] {
        let mut cli: Vec<&str> = vec![kind];
        cli.extend(args.iter().filter(|a| **a != "--json"));
        let mut submit: Vec<&str> = vec!["submit", "--socket", socket_str, "--kind", kind];
        submit.extend(cli[1..].iter());
        let mut direct: Vec<&str> = vec![kind];
        direct.extend(args.iter());
        let (ok_d, via_daemon) = whiteboard_stdout(&submit);
        let (ok_c, via_cli) = whiteboard_stdout(&direct);
        assert!(ok_d && ok_c, "{kind}: {via_daemon}{via_cli}");
        assert_eq!(
            via_daemon, via_cli,
            "{kind}: daemon report must be byte-identical to the CLI report"
        );
    }

    // Roster shows three completed jobs.
    let (ok, out) = whiteboard_stdout(&["status", "--socket", socket_str]);
    assert!(ok, "{out}");
    let doc = wb_bench::json::Json::parse(out.trim()).expect("status emits valid JSON");
    let jobs = doc
        .get("jobs")
        .and_then(wb_bench::json::Json::as_arr)
        .expect("jobs array");
    assert_eq!(jobs.len(), 3, "{out}");
    assert!(out.matches("\"state\":\"done\"").count() == 3, "{out}");

    // Single-job status carries the full report.
    let (ok, out) = whiteboard_stdout(&["status", "--socket", socket_str, "--job", "1"]);
    assert!(ok, "{out}");
    assert!(out.contains("\"report\":"), "{out}");

    let (ok, _) = whiteboard(&["shutdown", "--socket", socket_str]);
    assert!(ok);
    let status = daemon.wait().expect("daemon exits after shutdown");
    assert!(status.success(), "daemon exited nonzero: {status:?}");
    assert!(!socket.exists(), "socket file removed on exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explore_certify_flag_emits_a_verifiable_certificate() {
    // The ablation graph deadlocks async-bipartite-bfs: explore exits
    // nonzero (failing terminals) but must still write the certificate,
    // which carries the witnesses and verifies independently.
    let dir = std::env::temp_dir().join("wb_cli_explore_certify_test");
    std::fs::create_dir_all(&dir).unwrap();
    let graph_path = dir.join("ablation.txt");
    std::fs::write(&graph_path, "5\n1 2\n2 3\n1 3\n3 4\n4 5\n").unwrap();
    let cert_path = dir.join("explore.jsonl");
    let family = format!("file:{}", graph_path.display());
    let (ok, out) = whiteboard(&[
        "explore",
        "--protocol",
        "async-bipartite-bfs",
        "--workload",
        &family,
        "--n",
        "5",
        "--certify",
        cert_path.to_str().unwrap(),
    ]);
    assert!(!ok, "deadlocks must fail the explore verdict: {out}");
    assert!(out.contains("certificate:"), "{out}");
    let (ok, out) = whiteboard(&["verify", cert_path.to_str().unwrap()]);
    assert!(ok, "{out}");
    assert!(out.contains("PASS async-bipartite-bfs"), "{out}");
    assert!(!out.contains("failures=0"), "{out}");
    let _ = std::fs::remove_file(&cert_path);
    let _ = std::fs::remove_file(&graph_path);
}
