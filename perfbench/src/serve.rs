//! The `serve-mix` side: the daemon process and the closed-loop clients
//! that time it at the socket.
//!
//! The daemon is this benchmark's own executable re-run with `--daemon`,
//! which does what `whiteboard serve` does: `Daemon::bind` then `run`. Each
//! client connection keeps up to [`WINDOW`] jobs in flight: it submits,
//! probes the new job's `status`, and once the window is full it `wait`s on
//! its oldest job, reading the `queued` → `running` → terminal event stream
//! with a timestamp per line.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use wb_math::json::Json;
use wb_serve::jobs::JobReport;
use wb_serve::{wire, Daemon, JobKind, JobSpec, ServeConfig};

/// Daemon worker threads. One worker with `WB_THREADS=1` keeps the jobs on
/// one core and leaves the other to the clients and the daemon's
/// connection threads. Two workers made each pass wait on the slower of
/// two busy cores, and their peak memory varied with the interleaving.
pub const WORKERS: usize = 1;
/// Client connections.
pub const CONNECTIONS: usize = 2;
/// Jobs each connection keeps in flight, so more jobs are in flight than
/// there are workers and most wait in the queue.
pub const WINDOW: usize = 2;

/// Entry point of the `--daemon SOCKET` child process.
pub fn daemon_main(socket: &Path) -> ExitCode {
    let config = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    match Daemon::bind(socket, config).and_then(Daemon::run) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

/// A running daemon child. Dropping it kills and reaps the process if it is
/// still alive.
pub struct DaemonProc {
    child: Child,
    socket: PathBuf,
}

impl DaemonProc {
    /// Spawn the daemon on `socket` and wait for its first `hello` reply.
    /// Returns the process and the seconds from spawn to that reply.
    pub fn spawn(socket: &Path) -> Result<(DaemonProc, f64), String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let start = Instant::now();
        let child = Command::new(exe)
            .arg("--daemon")
            .arg(socket)
            .env("WB_THREADS", "1")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn the daemon: {e}"))?;
        let mut daemon = DaemonProc {
            child,
            socket: socket.to_path_buf(),
        };
        loop {
            if let Ok(stream) = UnixStream::connect(socket) {
                let mut conn = Conn::new(stream)?;
                let reply = conn.request(r#"{"op":"hello"}"#)?;
                if !reply.contains(wire::PROTOCOL) {
                    return Err(format!("unexpected hello reply: {reply}"));
                }
                return Ok((daemon, start.elapsed().as_secs_f64()));
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("the daemon exited during start-up: {status}"));
            }
            if start.elapsed() > Duration::from_secs(30) {
                return Err("the daemon did not answer hello within 30 s".into());
            }
            // Retry at once: the daemon's accept loop takes a connection
            // that is waiting when it first polls, and otherwise sleeps
            // 20 ms, so a slower retry makes the start-up time bimodal.
            std::thread::yield_now();
        }
    }

    /// The daemon's process ID, as `/proc` names it.
    pub fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Open a client connection.
    pub fn connect(&self) -> Result<Conn, String> {
        let stream = UnixStream::connect(&self.socket)
            .map_err(|e| format!("cannot connect to the daemon: {e}"))?;
        Conn::new(stream)
    }

    /// Ask the daemon to drain and exit, and reap it.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.connect()?.request(r#"{"op":"shutdown"}"#)?;
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(60) {
            if let Ok(Some(_)) = self.child.try_wait() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("the daemon did not exit within 60 s of shutdown".into())
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One line-oriented client connection.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn new(stream: UnixStream) -> Result<Conn, String> {
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}")
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("socket write: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("the daemon closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("socket read: {e}")),
        }
    }

    fn request(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }
}

/// The terminal `done` event the daemon must send for a job, split around
/// the report so a received line is checked without re-serializing it.
#[derive(Clone, Debug)]
pub struct Expected {
    kind: JobKind,
    head: String,
    report: String,
    tail: String,
}

/// Placeholder the expected event is rendered with, then split at.
const MARK: &str = "@report@";

impl Expected {
    /// The `done` event for `spec` whose reference report is `report`,
    /// rendered by the daemon's own line builder for job 0.
    pub fn new(spec: &JobSpec, report: &JobReport) -> Expected {
        let line = terminal_line(spec, 0, report.verdict.clone(), Json::Str(MARK.into()));
        let (head, tail) = line
            .split_once(&format!("\"{MARK}\""))
            .expect("the placeholder is rendered verbatim");
        Expected {
            kind: spec.kind,
            head: head.to_string(),
            report: report.line(),
            tail: tail.to_string(),
        }
    }

    /// Whether `line` is exactly this event for job `id`.
    fn matches(&self, line: &str, id: u64) -> bool {
        let head = self.head.replacen("\"job\":0", &format!("\"job\":{id}"), 1);
        line.len() == head.len() + self.report.len() + self.tail.len()
            && line.starts_with(&head)
            && line.ends_with(&self.tail)
            && line[head.len()..line.len() - self.tail.len()] == self.report
    }
}

/// The daemon's terminal `done` event for a job, built as `wait` builds it.
pub fn terminal_line(spec: &JobSpec, id: u64, verdict: String, report: Json) -> String {
    wire::event_line(
        "done",
        vec![
            ("job", Json::Num(id as f64)),
            ("kind", Json::Str(spec.kind.name().into())),
            ("protocol", Json::Str(spec.protocol.clone())),
            ("verdict", Json::Str(verdict)),
            ("report", report),
        ],
    )
}

/// What one pass of the closed loop observed.
#[derive(Clone, Debug, Default)]
pub struct LoopPass {
    /// First submit to last terminal event, seconds.
    pub wall_s: f64,
    /// Submit sent → terminal event received, per job.
    pub latency_s: Vec<f64>,
    /// Submit round trips.
    pub submit_rtt_s: Vec<f64>,
    /// `status` round trips.
    pub status_rtt_s: Vec<f64>,
    /// Submit → `running` event, for jobs whose `running` event arrived
    /// after a `queued` one (the transition was seen live).
    pub queue_wait_s: Vec<f64>,
    /// `running` → terminal event by job kind, for the same jobs.
    pub run_s: Vec<(JobKind, f64)>,
    /// Bytes of the terminal event lines, less their job IDs.
    pub reply_bytes: u64,
    /// Jobs submitted.
    pub attempted: u64,
    /// Jobs refused, failed, not PASS, or with wrong report bytes.
    pub failed: u64,
    /// `queue_full` refusals (also counted in `failed`).
    pub queue_full: u64,
    /// The first few failure descriptions.
    pub errors: Vec<String>,
    /// The daemon's peak resident memory since it started, read after the
    /// pass, MB.
    pub peak_mb: Option<f64>,
}

impl LoopPass {
    fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(why);
        }
    }

    fn absorb(&mut self, other: LoopPass) {
        self.latency_s.extend(other.latency_s);
        self.submit_rtt_s.extend(other.submit_rtt_s);
        self.status_rtt_s.extend(other.status_rtt_s);
        self.queue_wait_s.extend(other.queue_wait_s);
        self.run_s.extend(other.run_s);
        self.reply_bytes += other.reply_bytes;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.queue_full += other.queue_full;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
    }
}

/// Run one pass of `jobs` over `conns` in the given `order` (a permutation
/// of the job indices): the `i`-th job of the order goes to connection
/// `i % conns.len()`, and every connection runs its share concurrently.
pub fn run_pass(
    conns: &mut [Conn],
    jobs: &[JobSpec],
    expected: &[Expected],
    order: &[usize],
) -> LoopPass {
    let start = Instant::now();
    let k = conns.len();
    let parts: Vec<LoopPass> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let mine: Vec<usize> = order.iter().skip(c).step_by(k).copied().collect();
                scope.spawn(move || drive(conn, &mine, jobs, expected))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let mut pass = LoopPass::default();
    for part in parts {
        pass.absorb(part);
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

struct InFlight {
    index: usize,
    id: u64,
    submitted: Instant,
}

fn drive(conn: &mut Conn, mine: &[usize], jobs: &[JobSpec], expected: &[Expected]) -> LoopPass {
    let mut log = LoopPass::default();
    let mut window: VecDeque<InFlight> = VecDeque::new();
    for &index in mine {
        if window.len() == WINDOW {
            let oldest = window.pop_front().expect("window is full");
            finish(conn, oldest, expected, &mut log);
        }
        log.attempted += 1;
        let submitted = Instant::now();
        let reply = match conn.request(&wire::submit_line(&jobs[index])) {
            Ok(r) => r,
            Err(e) => {
                log.fail(e);
                continue;
            }
        };
        log.submit_rtt_s.push(submitted.elapsed().as_secs_f64());
        let doc = Json::parse(&reply).unwrap_or(Json::Null);
        let Some(id) = doc.get("job").and_then(Json::as_f64) else {
            if doc.get("code").and_then(Json::as_str) == Some("queue_full") {
                log.queue_full += 1;
            }
            log.fail(format!("submit refused: {reply}"));
            continue;
        };
        let id = id as u64;
        let probe = Instant::now();
        match conn.request(&format!(r#"{{"op":"status","job":{id}}}"#)) {
            Ok(_) => log.status_rtt_s.push(probe.elapsed().as_secs_f64()),
            Err(e) => log.fail(e),
        }
        window.push_back(InFlight {
            index,
            id,
            submitted,
        });
    }
    while let Some(oldest) = window.pop_front() {
        finish(conn, oldest, expected, &mut log);
    }
    log
}

/// `wait` on one job and record its event stream.
fn finish(conn: &mut Conn, job: InFlight, expected: &[Expected], log: &mut LoopPass) {
    if let Err(e) = conn.send(&format!(r#"{{"op":"wait","job":{}}}"#, job.id)) {
        log.fail(e);
        return;
    }
    let mut saw_queued = false;
    let mut running: Option<Instant> = None;
    loop {
        let line = match conn.recv() {
            Ok(l) => l,
            Err(e) => {
                log.fail(e);
                return;
            }
        };
        let now = Instant::now();
        // Terminal lines carry the report and can be large: read the
        // event name from the head only.
        let event = line
            .strip_prefix("{\"event\":\"")
            .and_then(|rest| rest.split('"').next())
            .unwrap_or("");
        match event {
            "queued" => saw_queued = true,
            "running" => {
                if saw_queued {
                    running = Some(now);
                    log.queue_wait_s.push((now - job.submitted).as_secs_f64());
                }
            }
            "done" | "failed" | "cancelled" | "deadline_exceeded" => {
                log.latency_s.push((now - job.submitted).as_secs_f64());
                // Less the job ID, so the count repeats from pass to pass.
                log.reply_bytes += (line.len() - job.id.to_string().len()) as u64;
                let want = &expected[job.index];
                if let Some(started) = running {
                    log.run_s.push((want.kind, (now - started).as_secs_f64()));
                }
                if !want.matches(&line, job.id) {
                    let head: String = line.chars().take(160).collect();
                    log.fail(format!(
                        "job {} ended with unexpected bytes: {head}",
                        job.id
                    ));
                }
                return;
            }
            _ => {
                log.fail(format!("unexpected line while waiting: {line}"));
                return;
            }
        }
    }
}
