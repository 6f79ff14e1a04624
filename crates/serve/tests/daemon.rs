//! Integration tests of the `whiteboard serve` daemon: concurrency,
//! byte-identity with the direct job layer, backpressure, hostile input,
//! cancellation, and graceful shutdown.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use wb_bench::json::Json;
use wb_serve::jobs::{run_job, JobKind, JobSpec};
use wb_serve::{Client, ClientError, Daemon, ServeConfig};

static NEXT_SOCKET: AtomicU64 = AtomicU64::new(0);

fn socket_path() -> PathBuf {
    let id = NEXT_SOCKET.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("wb-serve-test-{}-{id}.sock", std::process::id()))
}

/// Start a daemon on a fresh socket and run `body` against it; shuts the
/// daemon down (if the body didn't) and joins it before returning.
fn with_daemon<R>(config: ServeConfig, body: impl FnOnce(&PathBuf) -> R) -> R {
    let path = socket_path();
    let daemon = Daemon::bind(&path, config).expect("bind");
    let handle = std::thread::spawn(move || daemon.run().expect("daemon run"));
    // The socket exists as soon as bind returns, so clients can connect
    // immediately; the accept loop picks them up.
    let result = body(&path);
    if let Ok(mut c) = Client::connect(&path) {
        let _ = c.shutdown();
    }
    handle.join().expect("daemon thread");
    let _ = std::fs::remove_file(&path);
    result
}

fn spec(kind: JobKind, protocol: &str, workload: &str, n: usize, seed: u64) -> JobSpec {
    let mut s = JobSpec::new(kind);
    s.protocol = protocol.into();
    s.workload = workload.into();
    s.n = n;
    s.seed = seed;
    if kind == JobKind::Campaign {
        s.trials = 200;
    }
    s
}

#[test]
fn hello_reports_protocol_and_limits() {
    with_daemon(ServeConfig::default(), |path| {
        let mut c = Client::connect(path).expect("connect");
        assert_eq!(c.hello().expect("hello"), "wb-serve/v1");
    });
}

/// The tentpole acceptance bar: >= 100 concurrent jobs, mixed kinds, across
/// more than three registry protocols, every report byte-identical to the
/// direct job layer (which the CLI `--json` paths also use).
#[test]
fn hundred_concurrent_mixed_jobs_match_the_cli_byte_for_byte() {
    // 9 protocol/kind pairs x 12 seeds => 108 jobs.
    let mut specs: Vec<JobSpec> = Vec::new();
    for seed in 1..=12u64 {
        for proto in ["mis:1", "build:1", "two-cliques", "edge-count"] {
            specs.push(spec(JobKind::Explore, proto, "path", 5, seed));
        }
        for proto in ["mis:1", "bfs", "connectivity"] {
            specs.push(spec(JobKind::Campaign, proto, "gnp", 20, seed));
        }
        for proto in ["mis:1", "build:2"] {
            specs.push(spec(JobKind::Bulk, proto, "kdeg-lin:2", 500, seed));
        }
    }
    assert!(specs.len() >= 100, "need >= 100 jobs, have {}", specs.len());

    // Expected bytes from the direct job layer, computed serially.
    let expected: Vec<String> = specs
        .iter()
        .map(|s| run_job(s).expect("direct job runs").line())
        .collect();

    let config = ServeConfig {
        workers: 4,
        queue_cap: 256,
        ..ServeConfig::default()
    };
    with_daemon(config, |path| {
        // 8 client threads submit-and-wait concurrently over the job mix.
        let got: Vec<(usize, String)> = std::thread::scope(|scope| {
            let specs = &specs;
            let mut handles = Vec::new();
            for chunk in 0..8usize {
                handles.push(scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut c = Client::connect(path).expect("connect");
                    for (i, s) in specs.iter().enumerate() {
                        if i % 8 != chunk {
                            continue;
                        }
                        let (line, _verdict) = c.run(s).expect("job runs");
                        out.push((i, line));
                    }
                    out
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("client thread"))
                .collect()
        });
        assert_eq!(got.len(), specs.len());
        for (i, line) in got {
            assert_eq!(
                line, expected[i],
                "job {i} ({:?} {}) differs from the direct run",
                specs[i].kind, specs[i].protocol
            );
        }
    });
}

#[test]
fn full_queue_returns_queue_full_not_blocking() {
    // One worker, capacity 2: stuff the queue with slow-ish jobs, then keep
    // submitting until the structured backpressure error comes back.
    let config = ServeConfig {
        workers: 1,
        queue_cap: 2,
        ..ServeConfig::default()
    };
    with_daemon(config, |path| {
        let mut c = Client::connect(path).expect("connect");
        let slow = spec(JobKind::Campaign, "mis:1", "gnp", 40, 1);
        let mut saw_queue_full = false;
        let mut accepted = Vec::new();
        for _ in 0..50 {
            match c.submit(&slow) {
                Ok(id) => accepted.push(id),
                Err(ClientError::Server(e)) => {
                    assert_eq!(e.code, "queue_full", "{e}");
                    saw_queue_full = true;
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(saw_queue_full, "never hit backpressure");
        // Rejected submits cost nothing: every accepted ID still completes.
        for id in accepted {
            let event = c.wait(id).expect("accepted job completes");
            let ev = event.get("event").and_then(Json::as_str);
            assert_eq!(ev, Some("done"), "{event}");
        }
    });
}

/// Malformed, hostile, and oversized requests each get a structured error
/// and the daemon keeps serving — the "panic-proof front door" guarantee.
#[test]
fn malformed_requests_get_structured_errors_and_the_daemon_survives() {
    let config = ServeConfig {
        workers: 1,
        queue_cap: 8,
        max_line_bytes: 4096,
        ..ServeConfig::default()
    };
    with_daemon(config, |path| {
        let mut c = Client::connect(path).expect("connect");
        let battery: &[(&str, &str)] = &[
            ("{not json at all", "bad_json"),
            ("[1,2,3]", "bad_request"),
            ("\"just a string\"", "bad_request"),
            (r#"{"op":"frobnicate"}"#, "bad_request"),
            (r#"{"no_op_field":true}"#, "bad_request"),
            (r#"{"op":"submit"}"#, "bad_request"),
            (r#"{"op":"submit","kind":"teleport"}"#, "bad_request"),
            (
                r#"{"op":"submit","kind":"explore","n":"six"}"#,
                "bad_request",
            ),
            (
                r#"{"op":"submit","kind":"explore","trails":5}"#,
                "bad_request",
            ),
            (r#"{"op":"submit","kind":"explore","n":-4}"#, "bad_request"),
            (r#"{"op":"wait"}"#, "bad_request"),
            (r#"{"op":"wait","job":2.5}"#, "bad_request"),
            (r#"{"op":"status","job":999}"#, "unknown_job"),
            (r#"{"op":"cancel","job":999}"#, "unknown_job"),
        ];
        for (line, want_code) in battery {
            let reply = c.raw(line).expect("daemon still replies");
            assert!(
                reply.contains(&format!("\"code\":\"{want_code}\"")),
                "request {line:?}: expected {want_code}, got {reply}"
            );
            assert!(reply.contains("\"ok\":false"), "{reply}");
        }
        // An oversized line: rejected with `oversized`, rest discarded.
        let huge = format!(
            r#"{{"op":"submit","kind":"explore","protocol":"{}"}}"#,
            "x".repeat(8192)
        );
        let reply = c.raw(&huge).expect("daemon still replies");
        assert!(reply.contains("\"code\":\"oversized\""), "{reply}");
        // A submit whose *execution* fails (unknown protocol) is accepted,
        // then reported as failed — without hurting the daemon.
        let bad = spec(JobKind::Explore, "no-such-protocol", "path", 4, 1);
        let id = c.submit(&bad).expect("submit accepted");
        let event = c.wait(id).expect("job terminates");
        let ev = event.get("event").and_then(Json::as_str);
        assert_eq!(ev, Some("failed"), "{event}");
        // The daemon is still fully alive: a good job runs to completion.
        let good = spec(JobKind::Explore, "mis:1", "path", 4, 1);
        let (line, verdict) = c.run(&good).expect("daemon survived the battery");
        assert_eq!(verdict, "PASS");
        assert_eq!(line, run_job(&good).unwrap().line());
    });
}

#[test]
fn cancel_skips_queued_jobs_and_discards_running_results() {
    let config = ServeConfig {
        workers: 1,
        queue_cap: 16,
        ..ServeConfig::default()
    };
    with_daemon(config, |path| {
        let mut c = Client::connect(path).expect("connect");
        // Fill the single worker, then cancel a still-queued job.
        let ids: Vec<u64> = (0..4)
            .map(|i| {
                c.submit(&spec(JobKind::Campaign, "mis:1", "gnp", 30, i + 1))
                    .expect("submit")
            })
            .collect();
        let last = *ids.last().unwrap();
        let cancelled = c.cancel(last).expect("cancel round-trips");
        if cancelled {
            let event = c.wait(last).expect("job terminates");
            let ev = event.get("event").and_then(Json::as_str);
            assert_eq!(ev, Some("cancelled"), "{event}");
        }
        // Cancelling an unknown job is a structured error, not a panic.
        match c.cancel(99_999) {
            Err(ClientError::Server(e)) => assert_eq!(e.code, "unknown_job"),
            other => panic!("expected unknown_job, got {other:?}"),
        }
    });
}

/// Per-job wall-clock deadlines: a job still queued when its deadline
/// passes is cancelled with the structured `deadline_exceeded` error, while
/// a generous deadline changes nothing.
#[test]
fn deadlines_expire_queued_jobs_with_structured_errors() {
    // One worker: a slow job blocks the queue so the deadlined job behind
    // it deterministically expires before a worker ever picks it up.
    let config = ServeConfig {
        workers: 1,
        queue_cap: 16,
        ..ServeConfig::default()
    };
    with_daemon(config, |path| {
        let mut c = Client::connect(path).expect("connect");
        let mut slow = spec(JobKind::Campaign, "mis:1", "gnp", 60, 1);
        slow.trials = 10_000;
        let _slow_id = c.submit(&slow).expect("submit slow");

        let mut doomed = spec(JobKind::Explore, "mis:1", "path", 5, 2);
        doomed.deadline_ms = Some(50);
        let doomed_id = c.submit(&doomed).expect("submit doomed");

        let mut relaxed = spec(JobKind::Explore, "mis:1", "path", 5, 3);
        relaxed.deadline_ms = Some(60_000);
        let relaxed_id = c.submit(&relaxed).expect("submit relaxed");

        // The doomed job terminates with the structured deadline error.
        let event = c.wait(doomed_id).expect("doomed job terminates");
        assert_eq!(
            event.get("event").and_then(Json::as_str),
            Some("deadline_exceeded"),
            "{event}"
        );
        assert_eq!(
            event.get("code").and_then(Json::as_str),
            Some("deadline_exceeded"),
            "{event}"
        );
        let error = event.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(
            error.contains("deadline of 50ms exceeded while queued"),
            "{event}"
        );
        // Terminal means terminal: an expired job cannot be cancelled.
        assert!(!c.cancel(doomed_id).expect("cancel round-trips"));
        // `Client::run` surfaces the expiry as a structured server error.
        match c.run(&doomed) {
            Err(ClientError::Server(e)) => assert_eq!(e.code, "deadline_exceeded", "{e}"),
            other => panic!("expected deadline_exceeded, got {other:?}"),
        }
        // A deadline with slack is inert: same report as the direct layer.
        let event = c.wait(relaxed_id).expect("relaxed job completes");
        assert_eq!(
            event.get("event").and_then(Json::as_str),
            Some("done"),
            "{event}"
        );
        let mut no_deadline = relaxed.clone();
        no_deadline.deadline_ms = None;
        assert_eq!(
            event.get("report").expect("report").to_string(),
            run_job(&no_deadline).expect("direct job").line(),
            "a met deadline must not perturb the report"
        );
    });
}

/// A running job that outlasts its deadline has its result discarded and
/// records the structured `deadline_exceeded` error.
#[test]
fn deadlines_discard_results_of_overrunning_jobs() {
    let config = ServeConfig {
        workers: 1,
        queue_cap: 4,
        ..ServeConfig::default()
    };
    with_daemon(config, |path| {
        let mut c = Client::connect(path).expect("connect");
        let mut overrun = spec(JobKind::Campaign, "mis:1", "gnp", 60, 1);
        overrun.trials = 10_000;
        overrun.deadline_ms = Some(20);
        let id = c.submit(&overrun).expect("submit");
        let event = c.wait(id).expect("job terminates");
        assert_eq!(
            event.get("event").and_then(Json::as_str),
            Some("deadline_exceeded"),
            "{event}"
        );
        let error = event.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(error.contains("deadline of 20ms exceeded"), "{event}");
        assert!(event.get("report").is_none(), "result must be discarded");
    });
}

/// A job asking for an empty instance ends `failed` with the workload
/// error, its worker survives to run the next job, and `shutdown` drains.
#[test]
fn zero_node_jobs_fail_and_the_daemon_still_drains() {
    let config = ServeConfig {
        workers: 1,
        queue_cap: 8,
        ..ServeConfig::default()
    };
    let path = socket_path();
    let daemon = Daemon::bind(&path, config).expect("bind");
    let handle = std::thread::spawn(move || daemon.run().expect("daemon run"));

    let mut c = Client::connect(&path).expect("connect");
    for kind in [JobKind::Explore, JobKind::Campaign, JobKind::Bulk] {
        let id = c
            .submit(&spec(kind, "mis:1", "path", 0, 1))
            .expect("submit accepted");
        let event = c.wait(id).expect("job terminates");
        assert_eq!(
            event.get("event").and_then(Json::as_str),
            Some("failed"),
            "{event}"
        );
        assert!(event.to_string().contains("needs n"), "{event}");
    }
    let good = spec(JobKind::Explore, "mis:1", "path", 4, 1);
    let (line, verdict) = c.run(&good).expect("the worker survived");
    assert_eq!(verdict, "PASS");
    assert_eq!(line, run_job(&good).unwrap().line());

    c.shutdown().expect("shutdown accepted");
    let accepted = handle.join().expect("daemon thread");
    assert_eq!(accepted, 4, "daemon lost track of accepted jobs");
    assert!(!path.exists(), "socket file not removed after drain");
}

/// Graceful shutdown: accepted jobs all complete (none lost), job IDs stay
/// unique and dense, and post-shutdown submits get `shutting_down`.
#[test]
fn graceful_shutdown_drains_without_losing_or_duplicating_jobs() {
    let config = ServeConfig {
        workers: 2,
        queue_cap: 64,
        ..ServeConfig::default()
    };
    let path = socket_path();
    let daemon = Daemon::bind(&path, config).expect("bind");
    let handle = std::thread::spawn(move || daemon.run().expect("daemon run"));

    let mut c = Client::connect(&path).expect("connect");
    let mut ids = Vec::new();
    for i in 0..12u64 {
        ids.push(
            c.submit(&spec(JobKind::Explore, "mis:1", "path", 5, i + 1))
                .expect("submit"),
        );
    }
    // IDs are unique and dense from 1.
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), ids.len(), "duplicate job IDs: {ids:?}");
    assert_eq!(sorted, (1..=12).collect::<Vec<_>>(), "{ids:?}");

    // Shutdown while work is still queued; the daemon must drain it all.
    let mut c2 = Client::connect(&path).expect("second client");
    c2.shutdown().expect("shutdown accepted");
    // New submits are refused with the structured draining error.
    match c2.submit(&spec(JobKind::Explore, "mis:1", "path", 4, 1)) {
        Err(ClientError::Server(e)) => assert_eq!(e.code, "shutting_down", "{e}"),
        other => panic!("expected shutting_down, got {other:?}"),
    }
    let accepted = handle.join().expect("daemon thread");
    assert_eq!(accepted, 12, "daemon lost track of accepted jobs");

    // Every job reached `done` before the daemon exited: re-binding a fresh
    // daemon proves the socket was released, and the drain loop in `run`
    // only exits once all jobs are terminal (asserted by construction, but
    // the wait above would have hung otherwise).
    assert!(!path.exists(), "socket file not removed after drain");
}
