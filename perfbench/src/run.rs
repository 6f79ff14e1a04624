//! The two kinds of run: untraced (end-to-end metrics) and traced
//! (per-layer metrics).

use std::path::PathBuf;
use std::time::Instant;

use crate::layers;
use crate::machine;
use crate::replay::{self, JobTrace};
use crate::serve::{self, Conn, DaemonProc, Expected, LoopPass};
use crate::stats;
use crate::workloads::{self, Workload};
use wb_math::json::Json;
use wb_serve::{run_job, JobReport, JobSpec};

/// Set-ups whose median is `setup_s`: untimed warm-up passes in-process,
/// and on `serve-mix` daemon start-ups, each with its warm-up pass.
pub const SETUPS: usize = 3;

/// One metric as printed.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// How it was taken (sample count, percentile), for the human lines.
    pub note: String,
}

/// The outcome of one run.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that failed, were refused, were not PASS, or returned wrong
    /// report bytes.
    pub failed: u64,
    /// Other correctness failures (trace cross-checks).
    pub problems: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Every report was right and every cross-check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty() && self.attempted > 0
    }

    pub(crate) fn push(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    fn problem(&mut self, why: String) {
        if self.problems.len() < 10 {
            self.problems.push(why);
        }
    }
}

/// In-process job lists with their reference reports.
struct Refs {
    jobs: Vec<JobSpec>,
    reports: Vec<JobReport>,
    lines: Vec<String>,
}

impl Refs {
    /// Run every job once; every one must complete with verdict PASS.
    fn build(jobs: Vec<JobSpec>, out: &mut Outcome) -> Result<Refs, String> {
        let mut reports = Vec::new();
        for spec in &jobs {
            out.attempted += 1;
            let report = run_job(spec).map_err(|e| format!("reference run failed: {e}"))?;
            if report.verdict != "PASS" {
                return Err(format!(
                    "reference run of {} {} n={} is {}",
                    spec.protocol, spec.workload, spec.n, report.verdict
                ));
            }
            reports.push(report);
        }
        let lines = reports.iter().map(JobReport::line).collect();
        Ok(Refs {
            jobs,
            reports,
            lines,
        })
    }

    /// Units of work one pass does: bulk rounds, explored states, or jobs.
    fn work(&self, w: Workload) -> f64 {
        let field = match w {
            Workload::BulkBuild => "rounds",
            Workload::Explore => "distinct_states",
            Workload::ServeMix => return self.jobs.len() as f64,
        };
        self.reports
            .iter()
            .filter_map(|r| r.json.get(field).and_then(Json::as_f64))
            .sum()
    }
}

/// One in-process pass: run every job with `run_job`, time each, and
/// compare its report line with the reference.
struct Pass {
    wall_s: f64,
    job_s: Vec<f64>,
}

fn pass(refs: &Refs, out: &mut Outcome) -> Pass {
    let start = Instant::now();
    let mut job_s = Vec::with_capacity(refs.jobs.len());
    for (spec, want) in refs.jobs.iter().zip(&refs.lines) {
        out.attempted += 1;
        let t = Instant::now();
        let result = run_job(spec);
        job_s.push(t.elapsed().as_secs_f64());
        match result {
            Ok(r) if r.verdict == "PASS" && r.line() == *want => {}
            Ok(r) => {
                out.failed += 1;
                out.problem(format!(
                    "{} {} n={}: verdict {} or report bytes differ from the reference",
                    spec.protocol, spec.workload, spec.n, r.verdict
                ));
            }
            Err(e) => {
                out.failed += 1;
                out.problem(format!("{} failed: {e}", spec.protocol));
            }
        }
    }
    Pass {
        wall_s: start.elapsed().as_secs_f64(),
        job_s,
    }
}

/// Repeat `step` until `seconds` have passed (at least once).
fn repeat<T>(seconds: f64, mut step: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut all = vec![step()];
    while start.elapsed().as_secs_f64() < seconds {
        all.push(step());
    }
    all
}

fn timing(out: &mut Outcome, prefix: &str, unit_samples: &[f64], what: &str) {
    let tail = stats::tail(unit_samples);
    let spread = stats::quartile_spread(unit_samples).unwrap_or(0.0);
    out.push(
        &format!("{prefix}_p50_s"),
        stats::median(unit_samples),
        "s",
        format!(
            "median of {} {what}; quartile spread {spread:.3} of the median",
            unit_samples.len()
        ),
    );
    out.push(
        &format!("{prefix}_tail_s"),
        tail.value,
        "s",
        format!(
            "p{:.1} of {} {what} (highest percentile with >= 10 beyond; the maximum below {} samples)",
            tail.percentile,
            tail.samples,
            stats::TAIL_MIN_SAMPLES
        ),
    );
}

/// `jobs_per_s` from the median pass, not the total time: one slow pass
/// moves a mean over a run, and the median it leaves alone.
fn jobs_per_s(out: &mut Outcome, jobs_per_pass: usize, pass_p50_s: f64) {
    out.push(
        "jobs_per_s",
        jobs_per_pass as f64 / pass_p50_s,
        "1/s",
        format!("{jobs_per_pass} jobs per pass / pass_p50_s"),
    );
}

/// The end-to-end run: tracing off.
pub fn untraced(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let jobs = w.jobs(seed);
    if w == Workload::ServeMix {
        return untraced_serve(jobs, seed, seconds, out);
    }
    let mut warmups = Vec::new();
    let t = Instant::now();
    let refs = Refs::build(jobs, &mut out)?;
    warmups.push(t.elapsed().as_secs_f64());
    for _ in 1..SETUPS {
        warmups.push(pass(&refs, &mut out).wall_s);
    }
    let passes = repeat(seconds, || pass(&refs, &mut out));
    let wall: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let p50 = stats::median(&wall);
    out.push(
        "setup_s",
        stats::median(&warmups),
        "s",
        format!("median of {SETUPS} untimed warm-up passes"),
    );
    timing(&mut out, "pass", &wall, "passes");
    out.push(
        "work_per_s",
        refs.work(w) / p50,
        "1/s",
        match w {
            Workload::Explore => "states_per_s: distinct states per pass / pass_p50_s",
            _ => "rounds_per_s: bulk rounds per pass / pass_p50_s",
        },
    );
    jobs_per_s(&mut out, refs.jobs.len(), p50);
    // One synchronous client whose request is the pass.
    timing(
        &mut out,
        "latency",
        &wall,
        "passes (the in-process client's requests)",
    );
    // The whole run's peak: one pass's peak hangs on how much freed memory
    // the allocator kept from the passes before, which the parallel
    // explorer's thread timing changes from pass to pass.
    out.push(
        "peak_rss_mb",
        machine::peak_rss_mb("self").ok_or("cannot read VmHWM")?,
        "MB",
        "VmHWM of the benchmark process over the whole run",
    );
    Ok(out)
}

/// Where the daemon's socket goes: a relative path under the checkout
/// (socket paths are limited to about 100 bytes).
fn socket_path() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir.join(format!("serve-{}.sock", std::process::id())))
}

/// A running daemon with the client connections that drive it.
struct Served {
    daemon: DaemonProc,
    conns: Vec<Conn>,
    want: Vec<Expected>,
    passes: u64,
}

impl Served {
    /// Spawn the daemon, wait for its `hello` and connect the clients.
    fn start(refs: &Refs) -> Result<Served, String> {
        let (daemon, _) = DaemonProc::spawn(&socket_path()?)?;
        let conns = (0..serve::CONNECTIONS)
            .map(|_| daemon.connect())
            .collect::<Result<Vec<_>, _>>()?;
        let want = refs
            .jobs
            .iter()
            .zip(&refs.reports)
            .map(|(spec, report)| Expected::new(spec, report))
            .collect();
        Ok(Served {
            daemon,
            conns,
            want,
            passes: 0,
        })
    }

    /// One closed-loop pass in a fresh seeded order, counted into `out`.
    /// Its `peak_mb` is the daemon's peak so far: the daemon keeps every
    /// finished job, so only a daemon's first pass gives a peak that does
    /// not grow with the jobs before it.
    fn pass(&mut self, refs: &Refs, seed: u64, out: &mut Outcome) -> LoopPass {
        let order = workloads::pass_order(seed, self.passes, refs.jobs.len());
        self.passes += 1;
        let mut p = serve::run_pass(&mut self.conns, &refs.jobs, &self.want, &order);
        p.peak_mb = machine::peak_rss_mb(&self.daemon.pid());
        out.attempted += p.attempted;
        out.failed += p.failed;
        for e in &p.errors {
            out.problem(e.clone());
        }
        p
    }

    /// Close the clients, then drain and reap the daemon.
    fn shutdown(self) -> Result<(), String> {
        drop(self.conns);
        self.daemon.shutdown()
    }
}

/// Set the daemon up [`SETUPS`] times: spawn it, wait for its `hello`, and
/// drive one untimed pass. All but the last daemon are shut down again.
/// Returns the last one with the set-up times and each daemon's peak memory
/// after its first pass.
fn start_served(
    refs: &Refs,
    seed: u64,
    out: &mut Outcome,
) -> Result<(Served, Vec<f64>, Vec<f64>), String> {
    let mut setups = Vec::new();
    let mut peaks = Vec::new();
    loop {
        let start = Instant::now();
        let mut served = Served::start(refs)?;
        let warm = served.pass(refs, seed, out);
        setups.push(start.elapsed().as_secs_f64());
        peaks.push(warm.peak_mb.ok_or("cannot read the daemon's VmHWM")?);
        if setups.len() == SETUPS {
            return Ok((served, setups, peaks));
        }
        served.shutdown()?;
    }
}

fn untraced_serve(
    jobs: Vec<JobSpec>,
    seed: u64,
    seconds: f64,
    mut out: Outcome,
) -> Result<Outcome, String> {
    let refs = Refs::build(jobs, &mut out)?;
    let (mut served, setups, peaks) = start_served(&refs, seed, &mut out)?;
    let passes = repeat(seconds, || served.pass(&refs, seed, &mut out));
    served.shutdown()?;
    let wall: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    let latency: Vec<f64> = passes.iter().flat_map(|p| p.latency_s.clone()).collect();
    let p50 = stats::median(&wall);
    out.push(
        "setup_s",
        stats::median(&setups),
        "s",
        format!("median of {SETUPS} daemon set-ups: spawn, hello and one untimed pass"),
    );
    timing(&mut out, "pass", &wall, "passes");
    out.push(
        "work_per_s",
        refs.work(Workload::ServeMix) / p50,
        "1/s",
        "jobs per pass / pass_p50_s",
    );
    jobs_per_s(&mut out, refs.jobs.len(), p50);
    timing(
        &mut out,
        "latency",
        &latency,
        "jobs (submit sent to terminal event)",
    );
    out.push(
        "peak_rss_mb",
        stats::median(&peaks),
        "MB",
        format!("median over {SETUPS} daemons of the VmHWM after their first pass"),
    );
    Ok(out)
}

/// One traced pass: every job replayed with spans, cross-checked against
/// its reference report.
fn traced_pass(refs: &Refs, parsed: &[Json], out: &mut Outcome) -> (f64, Vec<JobTrace>) {
    let start = Instant::now();
    let mut traces = Vec::new();
    for (spec, reference) in refs.jobs.iter().zip(parsed) {
        out.attempted += 1;
        match replay::run_traced(spec) {
            Ok(t) => {
                if !t.pass {
                    out.failed += 1;
                    out.problem(format!("traced {} did not pass", spec.protocol));
                }
                if let Err(e) = replay::cross_check(&t, reference) {
                    out.failed += 1;
                    out.problem(format!("traced {} disagrees: {e}", spec.protocol));
                }
                traces.push(t);
            }
            Err(e) => {
                out.failed += 1;
                out.problem(format!("traced {} failed: {e}", spec.protocol));
            }
        }
    }
    (start.elapsed().as_secs_f64(), traces)
}

/// The traced run: untraced passes for the overhead baseline alternating
/// with traced passes for the per-layer metrics.
pub fn traced(w: Workload, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let refs = Refs::build(w.jobs(seed), &mut out)?;
    let parsed: Vec<Json> = refs.reports.iter().map(|r| r.json.clone()).collect();
    let mut serve_passes = Vec::new();
    let in_process = if w == Workload::ServeMix {
        let mut served = Served::start(&refs)?;
        served.pass(&refs, seed, &mut out);
        serve_passes = repeat(seconds / 2.0, || served.pass(&refs, seed, &mut out));
        served.shutdown()?;
        seconds / 2.0
    } else {
        seconds
    };
    // Alternate untraced and traced passes so both see the same machine.
    let (plain, traced): (Vec<Pass>, Vec<_>) = repeat(in_process, || {
        (pass(&refs, &mut out), traced_pass(&refs, &parsed, &mut out))
    })
    .into_iter()
    .unzip();
    let serialize = repeat(0.2, || serialize_pass(&refs));
    layers::report(
        &mut out,
        &refs.jobs,
        &plain
            .iter()
            .map(|p| (p.wall_s, p.job_s.clone()))
            .collect::<Vec<_>>(),
        &traced,
        &serve_passes,
        if w == Workload::ServeMix {
            stats::median(&serialize)
        } else {
            0.0
        },
    );
    Ok(out)
}

/// Seconds to build the terminal event lines of one pass from the
/// reference reports, as the daemon's `wait` does.
fn serialize_pass(refs: &Refs) -> f64 {
    let start = Instant::now();
    let bytes: usize = refs
        .jobs
        .iter()
        .zip(&refs.reports)
        .map(|(spec, r)| serve::terminal_line(spec, 1, r.verdict.clone(), r.json.clone()).len())
        .sum();
    std::hint::black_box(bytes);
    start.elapsed().as_secs_f64()
}
