//! `whiteboard` — command-line driver for the shared-whiteboard protocols.
//!
//! ```text
//! whiteboard run   --protocol build:2 --workload kdeg:2 --n 200 [--seed S] [--adversary random:7] [--trace]
//! whiteboard check --protocol mis:1 --n 4            # exhaustive schedules on all n-node graphs
//! whiteboard explore --protocol mis:1 --workload path --n 6 [--max-states M] [--par] [--compare-naive]
//!                    [--dedup canonical|exact|off] [--reduction off|dpor|symmetry|dpor+symmetry]
//!                    [--json]
//!                                                    # schedule-space explorer report (dedup stats);
//!                                                    # --reduction applies the sound state-space
//!                                                    # reductions (sleep-set DPOR / automorphism
//!                                                    # quotient); --json emits one machine-readable
//!                                                    # object
//! whiteboard campaign --protocol mis:1 --graph-family gnp --n 100 --trials 1000000
//!                     [--model native|simasync|simsync|async|sync|fasync|fsync]
//!                     [--sampler uniform|priority|crashy] [--seed S] [--json]
//!                     [--shrink] [--shrink-out PATH]
//!                                                    # Monte Carlo schedule campaign (statistical
//!                                                    # tier, n past the exhaustive frontier);
//!                                                    # failures auto-shrink to minimal witnesses
//! whiteboard bulk --protocol build:2 --graph-family kdeg:2 --n 100000
//!                 [--model native|simasync|simsync|async|sync] [--seed S] [--batch B] [--json]
//!                                                    # bulk tier: one columnar execution at
//!                                                    # n ≥ 10⁵ (simultaneous-native protocols,
//!                                                    # under any model that includes the native
//!                                                    # one), rounds/sec + board bytes reported
//! whiteboard capacity --n 1024,4096                  # Lemma 3 table
//! whiteboard serve --socket PATH [--workers W] [--queue-cap Q]
//!                                                    # multi-tenant daemon: submit explore /
//!                                                    # campaign / bulk jobs over a local socket
//! whiteboard submit --socket PATH --kind explore|campaign|bulk [job flags] [--no-wait]
//!                                                    # client: submit one job; by default waits
//!                                                    # and prints the report (byte-identical to
//!                                                    # the corresponding `--json` command)
//! whiteboard status --socket PATH [--job N]          # client: job roster or one job's report
//! whiteboard shutdown --socket PATH                  # client: drain the daemon and exit it
//! whiteboard list                                    # protocols & workloads
//! ```
//!
//! Protocols and their correctness oracles resolve through the shared
//! [`wb_core::registry`], so `check`, `explore`, `campaign`, and `bulk` all
//! select scenarios from one table. Argument parsing is hand-rolled (no CLI
//! crate on the approved dependency list) and strict: unknown or duplicate
//! flags and stray positional arguments are usage errors naming the
//! offending token. Every run is reproducible from `--seed`.
//!
//! `explore`, `campaign` and `bulk` build one [`JobSpec`] per instance and
//! run it through [`wb_serve::run_job`], the function the `serve` daemon
//! runs. `--json` prints the job's report line, which is deterministic and
//! therefore byte-identical to the daemon's report for the same job; the
//! text form is a rendering of that same report.
//!
//! - **Defaults.** Job flags start from [`JobSpec::new`] for the command's
//!   tier (for `submit`, the `--kind` tier). An absent `--n` therefore means
//!   n = 6 for `explore` and n = 100 for `campaign` and `bulk`; `check`
//!   defaults to n = 4, `dot` to n = 20, and `run`, `certify` and `capacity`
//!   to n = 100. `run`, `bulk`, `certify` and `capacity` sweep a
//!   comma-separated `--n` list; every other command refuses a list.
//! - **Rates.** Wall times and the states/sec, trials/sec and rounds/sec
//!   rates cover the whole job: graph generation, the oracle and, with
//!   `--compare-naive`, the naive walk. They go to the text report or, with
//!   `--json`, to stderr, never into the JSON.
//! - **Witnesses.** A failing `explore` prints how many terminals fail and
//!   points at `--certify PATH`, whose certificate records replayable
//!   witness schedules that `verify` re-checks. The `wb-serve/explore/v1`
//!   report carries no schedules. With or without `--par` the explorer
//!   settles every transition in the same order, so its witnesses would be
//!   deterministic; adding them is a schema change left open.

use shared_whiteboard::corpus::WitnessFixture;
use shared_whiteboard::prelude::*;
use std::process::ExitCode;
use std::time::Instant;
use wb_bench::json::Json;
use wb_core::registry;
use wb_core::workload::{graph_family, split_spec};
use wb_math::counting::MessageRegime;
use wb_reductions::lemma3::{verdict, Family};
use wb_runtime::run_traced;
use wb_serve::jobs::{explore_config, parse_faults, parse_model, JobKind, JobReport, JobSpec};
use wb_serve::{run_job, Client, Daemon, ServeConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::FAILURE;
    };
    let opts = match Opts::parse(cmd, &args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            return ExitCode::FAILURE;
        }
    };
    let result = match cmd.as_str() {
        "run" => cmd_run(&opts),
        "check" => cmd_check(&opts),
        "explore" => cmd_explore(&opts),
        "campaign" => cmd_campaign(&opts),
        "bulk" => cmd_bulk(&opts),
        "capacity" => cmd_capacity(&opts),
        "certify" => cmd_certify(&opts),
        "verify" => cmd_verify(&opts),
        "dot" => cmd_dot(&opts),
        "serve" => cmd_serve(&opts),
        "submit" => cmd_submit(&opts),
        "status" => cmd_status(&opts),
        "shutdown" => cmd_shutdown(&opts),
        "list" => {
            cmd_list();
            Ok(())
        }
        other => Err(format!("unknown command '{other}'")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "usage: whiteboard <run|check|explore|campaign|bulk|capacity|certify|verify|dot|\
         serve|submit|status|shutdown|list> \
         [--protocol P] [--workload W | --graph-family W] [--n N[,N..]] [--seed S] \
         [--adversary min|max|random:S] [--trace] \
         [--max-states M] [--par] [--compare-naive] [--dedup canonical|exact|off] \
         [--reduction off|dpor|symmetry|dpor+symmetry] [--json] \
         [--trials T] [--sampler uniform|priority|crashy] [--batch B] \
         [--model native|simasync|simsync|async|sync|fasync|fsync] [--shrink] [--shrink-out PATH] \
         [--faults crash:F|lossy:F] [--certify PATH] [--out PATH] \
         [--socket PATH] [--workers W] [--queue-cap Q] [--kind explore|campaign|bulk] \
         [--job N] [--no-wait] [--deadline-ms MS] [FILE..]"
    );
}

struct Opts {
    /// The job flags (`--protocol`, `--workload`, `--n`, `--seed`,
    /// `--model`, `--faults`, ...), written over [`JobSpec::new`]'s
    /// defaults for this command's tier. Commands outside the job layer
    /// read the same fields.
    spec: JobSpec,
    /// Every `--n` value, for the commands that sweep a list (`run`,
    /// `bulk`, `certify`, `capacity`); `spec.n` holds the first.
    ns: Vec<usize>,
    adversary: String,
    trace: bool,
    json: bool,
    shrink: bool,
    shrink_out: Option<String>,
    /// `explore --certify PATH`: also emit a `wb-cert/v1` line to PATH.
    certify: Option<String>,
    /// `certify --out PATH`: certificate destination (default stdout).
    out: Option<String>,
    /// Daemon socket path (`serve` binds it; `submit`/`status`/`shutdown`
    /// connect to it).
    socket: Option<String>,
    /// `serve --workers W`: worker-pool size.
    workers: usize,
    /// `serve --queue-cap Q`: bounded job-queue capacity.
    queue_cap: usize,
    /// `submit --kind explore|campaign|bulk`: which execution tier.
    kind: Option<JobKind>,
    /// `status --job N`: restrict to one job.
    job: Option<u64>,
    /// `submit --no-wait`: print the job ID instead of waiting for the report.
    no_wait: bool,
    /// Positional arguments (`verify` takes certificate files).
    files: Vec<String>,
}

impl Opts {
    fn parse(cmd: &str, args: &[String]) -> Result<Opts, String> {
        // Job flags are written over the defaults of the command's tier, and
        // `submit` names its tier with `--kind`: read that flag first.
        let kind = match cmd {
            "submit" => args
                .iter()
                .position(|a| a == "--kind")
                .and_then(|i| args.get(i + 1))
                .filter(|k| !k.starts_with("--"))
                .map(|k| JobKind::parse(k))
                .transpose()?,
            _ => None,
        };
        let mut spec = JobSpec::new(match cmd {
            "campaign" => JobKind::Campaign,
            "bulk" => JobKind::Bulk,
            _ => kind.unwrap_or(JobKind::Explore),
        });
        // Commands outside the job layer keep their own instance sizes.
        spec.n = match cmd {
            "check" => 4,
            "dot" => 20,
            "run" | "certify" | "capacity" => 100,
            _ => spec.n,
        };
        let mut o = Opts {
            ns: vec![spec.n],
            spec,
            adversary: "random:1".into(),
            trace: false,
            json: false,
            shrink: false,
            shrink_out: None,
            certify: None,
            out: None,
            socket: None,
            workers: 2,
            queue_cap: 64,
            kind,
            job: None,
            no_wait: false,
            files: Vec::new(),
        };
        let mut seen: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a.starts_with("--") {
                // `--workload` / `--graph-family` are spellings of one flag;
                // count them as one for duplicate detection.
                let canonical = if a == "--graph-family" {
                    "--workload".to_string()
                } else {
                    a.clone()
                };
                if seen.contains(&canonical) {
                    return Err(format!("duplicate flag '{a}'"));
                }
                seen.push(canonical);
            }
            let mut value = |name: &str| match it.next() {
                Some(v) if v.starts_with("--") => {
                    Err(format!("{name} expects a value, got flag '{v}'"))
                }
                Some(v) => Ok(v.clone()),
                None => Err(format!("{name} expects a value")),
            };
            match a.as_str() {
                "--protocol" => o.spec.protocol = value("--protocol")?,
                "--workload" | "--graph-family" => o.spec.workload = value(a)?,
                "--n" => {
                    let list = value("--n")?;
                    o.ns = list
                        .split(',')
                        .map(|s| s.trim().parse::<usize>().map_err(|e| e.to_string()))
                        .collect::<Result<_, _>>()?;
                    if o.ns.len() > 1 && !matches!(cmd, "run" | "bulk" | "certify" | "capacity") {
                        return Err(format!(
                            "{cmd} takes a single --n value, not the list '{list}'"
                        ));
                    }
                    o.spec.n = o.ns[0];
                }
                "--seed" => {
                    o.spec.seed = value("--seed")?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?
                }
                "--adversary" => o.adversary = value("--adversary")?,
                "--trace" => o.trace = true,
                "--max-states" => {
                    o.spec.max_states = value("--max-states")?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?
                }
                "--par" => o.spec.par = true,
                "--compare-naive" => o.spec.compare_naive = true,
                "--dedup" => o.spec.dedup = value("--dedup")?,
                "--reduction" => o.spec.reduction = value("--reduction")?,
                "--json" => o.json = true,
                "--trials" => {
                    o.spec.trials = value("--trials")?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?
                }
                "--sampler" => o.spec.sampler = value("--sampler")?,
                "--model" => o.spec.model = value("--model")?,
                "--batch" => {
                    let batch: usize = value("--batch")?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?;
                    if batch == 0 {
                        return Err("--batch must be at least 1".into());
                    }
                    o.spec.batch = Some(batch);
                }
                "--faults" => o.spec.faults = Some(value("--faults")?),
                "--deadline-ms" => {
                    let ms: u64 = value("--deadline-ms")?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?;
                    if ms == 0 {
                        return Err("--deadline-ms must be at least 1".into());
                    }
                    o.spec.deadline_ms = Some(ms);
                }
                "--shrink" => o.shrink = true,
                "--shrink-out" => {
                    o.shrink = true;
                    o.shrink_out = Some(value("--shrink-out")?);
                }
                "--certify" => o.certify = Some(value("--certify")?),
                "--out" => o.out = Some(value("--out")?),
                "--socket" => o.socket = Some(value("--socket")?),
                "--workers" => {
                    o.workers = value("--workers")?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?;
                    if o.workers == 0 {
                        return Err("--workers must be at least 1".into());
                    }
                }
                "--queue-cap" => {
                    o.queue_cap = value("--queue-cap")?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?;
                    if o.queue_cap == 0 {
                        return Err("--queue-cap must be at least 1".into());
                    }
                }
                "--kind" => {
                    // Parsed into `kind` before the loop.
                    value("--kind")?;
                }
                "--job" => {
                    o.job = Some(
                        value("--job")?
                            .parse()
                            .map_err(|e: std::num::ParseIntError| e.to_string())?,
                    )
                }
                "--no-wait" => o.no_wait = true,
                other if !other.starts_with("--") => {
                    // Only `verify` takes positionals (certificate files);
                    // anywhere else a stray word is a typo, not input.
                    if cmd == "verify" {
                        o.files.push(other.to_string());
                    } else {
                        return Err(format!(
                            "unexpected argument '{other}' (only `verify` takes positional \
                             arguments)"
                        ));
                    }
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(o)
    }

    fn make_adversary(&self) -> Result<Box<dyn Adversary>, String> {
        let (kind, arg) = split_spec(&self.adversary);
        Ok(match kind {
            "min" => Box::new(MinIdAdversary),
            "max" => Box::new(MaxIdAdversary),
            "random" => Box::new(RandomAdversary::new(arg.unwrap_or(self.spec.seed))),
            other => return Err(format!("unknown adversary '{other}'")),
        })
    }
}

/// Unwrap a terminal outcome, or explain why there is none. Protocols whose
/// referee reads the full board always terminate on the engine's schedules,
/// but a structured error beats a panic if an adversary ever deadlocks one:
/// the CLI exits nonzero with this message instead of unwinding.
fn success_outcome<T>(spec: &str, outcome: Outcome<T>) -> Result<T, String> {
    match outcome {
        Outcome::Success(v) => Ok(v),
        Outcome::Deadlock { awake } => Err(format!(
            "protocol '{spec}' produced no outcome: deadlock with {} node(s) still awake {awake:?}",
            awake.len()
        )),
    }
}

/// Run one protocol and summarize; returns a one-line verdict.
fn run_one(
    proto_spec: &str,
    g: &Graph,
    adversary: &mut dyn Adversary,
    trace: bool,
) -> Result<String, String> {
    let n = g.n();
    registry::check_budget(proto_spec, n)?;
    let (kind, arg) = split_spec(proto_spec);
    let k = arg.unwrap_or(2) as usize;
    macro_rules! drive {
        ($p:expr, $fmt:expr) => {{
            let p = $p;
            let (report, rows) = run_traced(&p, g, adversary);
            if trace {
                print_trace(&rows);
            }
            // MIS and 2-CLIQUES implement both `Protocol` and
            // `BulkProtocol` (same budgets): name the trait explicitly.
            let budget = Protocol::budget_bits(&p, n);
            let stats = format!(
                "[{} bits/msg max, budget {budget}, {} rounds]",
                report.max_message_bits(),
                report.write_order.len()
            );
            let verdict: Result<String, String> = $fmt(report);
            Ok(format!("{} {stats}", verdict?))
        }};
    }
    match kind {
        "build" => drive!(BuildDegenerate::new(k.max(1)), |r: RunReport<
            Result<Graph, BuildError>,
        >| {
            Ok(match r.outcome {
                Outcome::Success(Ok(h)) => format!("BUILD ok: rebuilt exactly = {}", &h == g),
                Outcome::Success(Err(e)) => format!("BUILD rejected: {e:?}"),
                Outcome::Deadlock { awake } => format!("deadlock: {awake:?}"),
            })
        }),
        "build-mixed" => drive!(wb_core::BuildMixed::new(k.max(1)), |r: RunReport<
            Result<Graph, BuildError>,
        >| {
            Ok(match r.outcome {
                Outcome::Success(Ok(h)) => format!("BUILD-MIXED ok: rebuilt exactly = {}", &h == g),
                Outcome::Success(Err(e)) => format!("BUILD-MIXED rejected: {e:?}"),
                Outcome::Deadlock { awake } => format!("deadlock: {awake:?}"),
            })
        }),
        "naive" => drive!(NaiveBuild, |r: RunReport<Graph>| {
            Ok(format!(
                "NAIVE BUILD: rebuilt exactly = {}",
                matches!(r.outcome, Outcome::Success(ref h) if h == g)
            ))
        }),
        "mis" => {
            let root = (arg.unwrap_or(1) as NodeId).clamp(1, n as NodeId);
            drive!(MisGreedy::new(root), |r: RunReport<Vec<NodeId>>| {
                Ok(match r.outcome {
                    Outcome::Success(set) => format!(
                        "MIS(root {root}): |S| = {}, valid = {}",
                        set.len(),
                        checks::is_rooted_mis(g, &set, root)
                    ),
                    Outcome::Deadlock { awake } => format!("deadlock: {awake:?}"),
                })
            })
        }
        "bfs" => drive!(SyncBfs, |r: RunReport<checks::BfsForest>| {
            Ok(match r.outcome {
                Outcome::Success(f) => format!(
                    "SYNC BFS: {} roots, max layer {}, matches reference = {}",
                    f.roots.len(),
                    f.layer.iter().max().copied().unwrap_or(0),
                    f == checks::bfs_forest(g)
                ),
                Outcome::Deadlock { awake } => format!("deadlock: {awake:?}"),
            })
        }),
        "eob-bfs" => drive!(EobBfs, |r: RunReport<BfsOutput>| {
            Ok(match r.outcome {
                Outcome::Success(BfsOutput::Forest(f)) => {
                    format!("EOB-BFS: forest ok = {}", f == checks::bfs_forest(g))
                }
                Outcome::Success(BfsOutput::NotEvenOddBipartite) => {
                    "EOB-BFS: input is not even-odd bipartite".into()
                }
                Outcome::Deadlock { awake } => format!("deadlock: {awake:?}"),
            })
        }),
        "async-bipartite-bfs" => drive!(AsyncBipartiteBfs, |r: RunReport<checks::BfsForest>| {
            Ok(match r.outcome {
                Outcome::Success(f) => {
                    format!(
                        "ASYNC BIPARTITE BFS: forest ok = {}",
                        f == checks::bfs_forest(g)
                    )
                }
                Outcome::Deadlock { awake } => format!("deadlock: {awake:?}"),
            })
        }),
        "spanning" => drive!(wb_core::SpanningForestSync, |r: RunReport<
            wb_core::SpanningForest,
        >| {
            Ok(match r.outcome {
                Outcome::Success(sf) => format!(
                    "SPANNING-FOREST: {} tree edges, {} roots",
                    sf.edges.len(),
                    sf.roots.len()
                ),
                Outcome::Deadlock { awake } => format!("deadlock: {awake:?}"),
            })
        }),
        "two-cliques" => drive!(TwoCliques, |r: RunReport<
            wb_core::two_cliques::TwoCliquesVerdict,
        >| {
            Ok(format!(
                "2-CLIQUES: {:?} (truth: {})",
                success_outcome(proto_spec, r.outcome)?,
                checks::is_two_cliques(g)
            ))
        }),
        "two-cliques-rand" => {
            drive!(
                TwoCliquesRandomized::new(arg.unwrap_or(7), 24),
                |r: RunReport<wb_core::two_cliques::TwoCliquesVerdict>| {
                    Ok(format!(
                        "2-CLIQUES (randomized): {:?} (truth: {})",
                        success_outcome(proto_spec, r.outcome)?,
                        checks::is_two_cliques(g)
                    ))
                }
            )
        }
        "subgraph" => drive!(SubgraphPrefix::new(k.max(1)), |r: RunReport<Graph>| {
            Ok(format!(
                "SUBGRAPH_{k}: exact = {}",
                matches!(r.outcome, Outcome::Success(ref h) if *h == g.induced_prefix(k.max(1).min(n)))
            ))
        }),
        "triangle" => drive!(TriangleFullRow, |r: RunReport<bool>| {
            Ok(format!(
                "TRIANGLE (Θ(n) bits): {:?} (truth: {})",
                success_outcome(proto_spec, r.outcome)?,
                checks::has_triangle(g)
            ))
        }),
        "square" => drive!(SquareFullRow, |r: RunReport<bool>| {
            Ok(format!(
                "SQUARE (Θ(n) bits): {:?} (truth: {})",
                success_outcome(proto_spec, r.outcome)?,
                checks::has_square(g)
            ))
        }),
        "diameter3" => drive!(DiameterAtMost3FullRow, |r: RunReport<bool>| {
            Ok(format!(
                "DIAMETER ≤ 3 (Θ(n) bits): {:?}",
                success_outcome(proto_spec, r.outcome)?
            ))
        }),
        "connectivity" => drive!(ConnectivitySync, |r: RunReport<ConnectivityReport>| {
            Ok(match r.outcome {
                Outcome::Success(rep) => format!(
                    "CONNECTIVITY: connected = {} ({} components; truth: {})",
                    rep.connected,
                    rep.components,
                    checks::is_connected(g)
                ),
                Outcome::Deadlock { awake } => format!("deadlock: {awake:?}"),
            })
        }),
        "edge-count" => drive!(EdgeCount, |r: RunReport<usize>| {
            Ok(format!(
                "EDGE-COUNT: m = {:?} (truth: {})",
                success_outcome(proto_spec, r.outcome)?,
                g.m()
            ))
        }),
        "degree-stats" => drive!(DegreeStats, |r: RunReport<DegreeSummary>| {
            let s = success_outcome(proto_spec, r.outcome)?;
            Ok(format!(
                "DEGREE-STATS: max {} isolated {} regular {:?}",
                s.max_degree, s.isolated, s.regular
            ))
        }),
        other => Err(format!("unknown protocol '{other}'")),
    }
}

fn cmd_dot(o: &Opts) -> Result<(), String> {
    let s = &o.spec;
    let g = graph_family(&s.workload, s.n, s.seed)?;
    if s.protocol.starts_with("bfs") {
        let forest = checks::bfs_forest(&g);
        print!(
            "{}",
            wb_graph::dot::forest_to_dot(&g, &forest, "whiteboard")
        );
    } else {
        print!("{}", wb_graph::dot::graph_to_dot(&g, "whiteboard"));
    }
    Ok(())
}

fn print_trace(rows: &[wb_runtime::TraceRow]) {
    println!("  round  active  writer  bits");
    for r in rows.iter().take(60) {
        println!(
            "  {:>5}  {:>6}  {:>6}  {:>4}",
            r.round, r.active_before, r.writer, r.message_bits
        );
    }
    if rows.len() > 60 {
        println!("  … ({} more rounds)", rows.len() - 60);
    }
}

fn cmd_run(o: &Opts) -> Result<(), String> {
    let s = &o.spec;
    for &n in &o.ns {
        let g = graph_family(&s.workload, n, s.seed)?;
        let mut adv = o.make_adversary()?;
        let line = run_one(&s.protocol, &g, adv.as_mut(), o.trace)?;
        println!("n={n:>6} {}: {line}", s.workload);
    }
    Ok(())
}

fn cmd_check(o: &Opts) -> Result<(), String> {
    // Exhaustive model checking over all labeled graphs on n nodes: every
    // registry protocol is checkable against its oracle (the per-protocol
    // match arms this command used to carry live in `wb_core::registry`).
    let n = o.spec.n;
    if n == 0 || n > 5 {
        return Err("check enumerates all graphs; use 1 ≤ --n ≤ 5".into());
    }

    struct CheckAllGraphs {
        n: usize,
        spec: String,
    }

    impl registry::ProtocolVisitor for CheckAllGraphs {
        type Result = Result<(u64, u64), String>;
        fn visit<P, B>(self, protocol: P, bind: B) -> Self::Result
        where
            P: Protocol + Clone + Send + Sync,
            P::Node: Send + Sync,
            P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
            B: for<'g> Fn(&'g Graph) -> registry::BoundOracle<'g, P::Output> + Send + Sync,
        {
            let config = ExploreConfig::default();
            let mut graphs = 0u64;
            let mut states = 0u64;
            for g in enumerate::all_graphs(self.n) {
                graphs += 1;
                let oracle = bind(&g);
                let report = explore(&protocol, &g, &config, |out| oracle(out, &[]));
                if report.truncated {
                    return Err(format!("{}: truncated on {g:?}", self.spec));
                }
                if let Some(f) = report.failures.first() {
                    return Err(format!(
                        "{}: oracle violated on {g:?} under write order {:?}: {:?}",
                        self.spec, f.schedule, f.outcome
                    ));
                }
                states += report.distinct_states;
            }
            Ok((graphs, states))
        }
    }

    let (graphs, states) = registry::dispatch(
        &o.spec.protocol,
        n,
        CheckAllGraphs {
            n,
            spec: o.spec.protocol.clone(),
        },
    )??;
    println!(
        "exhaustive check passed: protocol {} on all {graphs} graphs (n = {n}), \
         {states} distinct states explored",
        o.spec.protocol
    );
    Ok(())
}

/// Run one job through the job layer the daemon also runs, timed end to
/// end; the wall time in seconds comes with the report.
fn run_timed(spec: &JobSpec) -> Result<(JobReport, f64), String> {
    let start = Instant::now();
    let report = run_job(spec)?;
    Ok((report, start.elapsed().as_secs_f64()))
}

/// `count` per second of `wall`; 0 when no time was measured.
fn per_sec(count: u64, wall: f64) -> f64 {
    if wall > 0.0 {
        count as f64 / wall
    } else {
        0.0
    }
}

// Field readers for the text renderings. `run_job` writes every field they
// read, so a missing one is a bug in this file, not bad input.

fn count(report: &Json, key: &str) -> u64 {
    report
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("report has no number '{key}'")) as u64
}

fn text<'a>(report: &'a Json, key: &str) -> &'a str {
    report
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("report has no string '{key}'"))
}

fn flag(report: &Json, key: &str) -> bool {
    matches!(report.get(key), Some(Json::Bool(true)))
}

/// A list of node IDs (a schedule or the crashed writers); empty if absent.
fn ids(report: &Json, key: &str) -> Vec<NodeId> {
    let list = report.get(key).and_then(Json::as_arr).unwrap_or_default();
    list.iter()
        .filter_map(Json::as_f64)
        .map(|v| v as NodeId)
        .collect()
}

/// Schedule-space exploration of one protocol on one workload graph: the
/// job's report line with `--json`, its text rendering otherwise. Exits
/// nonzero when a terminal configuration violates the oracle.
fn cmd_explore(o: &Opts) -> Result<(), String> {
    let s = &o.spec;
    // `--certify PATH`: additionally run the certifying walk and write one
    // `wb-cert/v1` line. Emitted before the report so a FAIL verdict (which
    // makes this command exit nonzero) still leaves the certificate — the
    // failing case is exactly the one worth re-checking independently.
    if let Some(path) = &o.certify {
        let g = graph_family(&s.workload, s.n, s.seed)?;
        let run = wb_bench::certify::certify_spec(
            &s.protocol,
            &g,
            None,
            wb_bench::certify::Provenance {
                family: Some(&s.workload),
                seed: Some(s.seed),
            },
            &explore_config(s)?,
        )?;
        std::fs::write(path, run.certificate.to_json_line() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!(
            "certificate: {} states, {} terminals, {} failing -> {path}",
            run.distinct_states, run.terminals, run.failures
        );
    }

    let (report, wall) = run_timed(s)?;
    if o.json {
        eprintln!("explore wall: {wall:.3}s");
        println!("{}", report.line());
    } else {
        print_explore(s, &report.json, wall);
    }
    match report.verdict.as_str() {
        "FAIL" => Err("exploration found failing terminal(s)".into()),
        _ => Ok(()),
    }
}

fn print_explore(s: &JobSpec, r: &Json, wall: f64) {
    let states = count(r, "distinct_states");
    if s.compare_naive {
        let naive = count(r, "naive_states");
        println!(
            "naive (no dedup): {} states, {} schedules{} — dedup saves {:.1}x",
            naive,
            count(r, "naive_schedules"),
            if flag(r, "naive_truncated") {
                " (truncated)"
            } else {
                ""
            },
            naive as f64 / states.max(1) as f64
        );
    }
    println!(
        "exploring {} on {} (n = {})",
        text(r, "protocol"),
        text(r, "workload"),
        count(r, "n")
    );
    println!("  distinct states : {states}");
    println!("  terminal configs: {}", count(r, "terminals"));
    let merged = count(r, "merged");
    // Recomputed from the counts: the report's `dedup_ratio` is rounded.
    let ratio = if states == 0 {
        1.0
    } else {
        (states + merged) as f64 / states as f64
    };
    println!("  merged branches : {merged} (dedup ratio {ratio:.1}x)");
    println!("  peak frontier   : {}", count(r, "peak_frontier"));
    println!(
        "  wall            : {wall:.3}s ({:.0} states/sec)",
        per_sec(states, wall)
    );
    println!(
        "  truncated       : {}",
        if flag(r, "truncated") {
            "YES (partial result)"
        } else {
            "no"
        }
    );
    // The flag as given: the report names only plans that drop writes.
    if let Some(plan) = &s.faults {
        println!("  faults          : {plan}");
    }
    if let Some(stats) = r.get("reduction_stats") {
        let on_off = |key| if flag(stats, key) { "on" } else { "off" };
        println!(
            "  reduction       : {} (dpor {}, symmetry {}{}) — {} generated, \
             {} sleep-skipped, {} orbit terminals, {} re-expansions",
            text(r, "reduction"),
            on_off("dpor_active"),
            on_off("symmetry_active"),
            if flag(stats, "symmetry_active") {
                format!(", |Aut| = {}", count(stats, "group_order"))
            } else {
                String::new()
            },
            count(stats, "generated"),
            count(stats, "sleep_skipped"),
            count(stats, "orbit_terminals"),
            count(stats, "reexpansions")
        );
    }
    match text(r, "verdict") {
        "PASS" => println!(
            "  verdict         : PASS (every reachable configuration satisfies the oracle)"
        ),
        "INCONCLUSIVE" => println!("  verdict         : INCONCLUSIVE (truncated)"),
        _ => println!(
            "  verdict         : FAIL ({} failing terminal(s); --certify PATH records \
             replayable witnesses)",
            count(r, "failures")
        ),
    }
}

/// Emit machine-checkable exploration certificates: one certified
/// exhaustive walk per `--n` value, each serialized as one `wb-cert/v1`
/// JSON line to `--out PATH` (or stdout). Run summaries go to stderr so
/// stdout stays pure JSONL. See `docs/CERTIFICATES.md`.
fn cmd_certify(o: &Opts) -> Result<(), String> {
    let s = &o.spec;
    let model = parse_model(&s.model)?;
    let config = explore_config(s)?;
    let mut lines = String::new();
    for &n in &o.ns {
        let g = graph_family(&s.workload, n, s.seed)?;
        let run = wb_bench::certify::certify_spec(
            &s.protocol,
            &g,
            model,
            wb_bench::certify::Provenance {
                family: Some(&s.workload),
                seed: Some(s.seed),
            },
            &config,
        )?;
        eprintln!(
            "certified {} on {} (n = {}, {}): {} states, {} terminals, {} failing",
            s.protocol,
            s.workload,
            n,
            run.certificate.model,
            run.distinct_states,
            run.terminals,
            run.failures
        );
        lines.push_str(&run.certificate.to_json_line());
        lines.push('\n');
    }
    match &o.out {
        Some(path) => {
            std::fs::write(path, lines).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("wrote {} certificate(s) to {path}", o.ns.len());
        }
        None => print!("{lines}"),
    }
    Ok(())
}

/// Re-check certificate files through the independent `wb-verify` crate:
/// one verdict line per certificate (PASS with the established summary, or
/// the structured rejection), nonzero exit if any fails.
fn cmd_verify(o: &Opts) -> Result<(), String> {
    if o.files.is_empty() {
        return Err("verify expects at least one certificate file".into());
    }
    let (mut total, mut bad) = (0usize, 0usize);
    for path in &o.files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            total += 1;
            match wb_verify::verify_line(line) {
                Ok(s) => println!(
                    "{path}:{}: PASS {} {} n={} states={} terminals={} failures={}",
                    i + 1,
                    s.protocol,
                    s.model,
                    s.n,
                    s.states,
                    s.terminals,
                    s.failures
                ),
                Err(e) => {
                    bad += 1;
                    println!("{path}:{}: FAIL {e}", i + 1);
                }
            }
        }
    }
    if bad == 0 {
        eprintln!("verified {total} certificate(s)");
        Ok(())
    } else {
        Err(format!(
            "{bad} of {total} certificate(s) failed verification"
        ))
    }
}

/// Monte Carlo schedule campaign of one protocol on one graph-family
/// instance: `--trials` seeded random schedules (each independently
/// replayable from `--seed` + trial index), outcomes classified against the
/// protocol's oracle, failures kept as witnesses and — with `--shrink` —
/// the first one delta-debugged to a locally minimal schedule.
/// `--shrink-out PATH` additionally writes the minimal witness as a
/// `tests/corpus`-format fixture (native model only: corpus replay runs the
/// native protocol).
///
/// The report (and its `--json` rendering) is deterministic for a fixed
/// seed — independent of thread count and sharding — so timing goes to
/// stderr, never into the JSON. A failing campaign still exits 0: finding
/// the failure is the campaign's job.
fn cmd_campaign(o: &Opts) -> Result<(), String> {
    let s = &o.spec;
    if o.shrink && parse_faults(s.faults.as_deref())?.is_some() {
        return Err(
            "--shrink replays schedules fault-free and cannot minimize faulted witnesses; \
             drop --faults or --shrink/--shrink-out"
                .into(),
        );
    }
    let target = parse_model(&s.model)?;
    if let (Some(_), Some(m)) = (&o.shrink_out, target) {
        if registry::info(split_spec(&s.protocol).0).is_some_and(|p| p.model != m) {
            return Err(
                "--shrink-out requires the protocol's native model (corpus replay \
                 runs the native protocol)"
                    .into(),
            );
        }
    }

    let (report, wall) = run_timed(s)?;
    let witnesses = report
        .json
        .get("witnesses")
        .and_then(Json::as_arr)
        .unwrap_or_default();
    let shrunk = match witnesses.first() {
        Some(w) if o.shrink => {
            let g = graph_family(&s.workload, s.n, s.seed)?;
            let step = ShrinkFirstWitness {
                spec: &s.protocol,
                g: &g,
                schedule: &ids(w, "schedule"),
                target,
                fixture: o.shrink_out.as_deref(),
            };
            Some(registry::dispatch(&s.protocol, s.n, step)??)
        }
        _ => None,
    };
    if let (Some(path), None) = (&o.shrink_out, &shrunk) {
        eprintln!("no failing trials: nothing written to {path}");
    }

    let trials_per_sec = per_sec(count(&report.json, "trials"), wall);
    if o.json {
        let mut json = report.json;
        if let (Json::Obj(map), Some(w)) = (&mut json, &shrunk) {
            map.insert(
                "shrunk_schedule".into(),
                Json::Arr(w.schedule.iter().map(|&v| Json::Num(v as f64)).collect()),
            );
            map.insert("shrunk_outcome".into(), Json::Str(w.outcome.clone()));
            map.insert("shrink_replays".into(), Json::Num(w.replays as f64));
        }
        println!("{json}");
        eprintln!("campaign wall: {wall:.3}s ({trials_per_sec:.0} trials/sec)");
        return Ok(());
    }
    let r = &report.json;
    println!(
        "campaign: {} @ {} on {} (n = {})",
        text(r, "protocol"),
        text(r, "model"),
        text(r, "family"),
        count(r, "n")
    );
    println!(
        "  trials          : {} (sampler {}, seed {})",
        count(r, "trials"),
        text(r, "sampler"),
        text(r, "seed")
    );
    if r.get("faults").is_some() {
        println!("  faults          : {}", text(r, "faults"));
    }
    println!(
        "  passed / failed : {} / {} (deadlocks {})",
        count(r, "passed"),
        count(r, "failed"),
        count(r, "deadlocks")
    );
    println!("  distinct outcomes: {}", count(r, "distinct_outcomes"));
    println!("  wall            : {wall:.3}s ({trials_per_sec:.0} trials/sec)");
    for w in witnesses.iter().take(3) {
        let died = ids(w, "died");
        println!(
            "  FAIL trial {} (seed {}): write order {:?}{} → {}",
            count(w, "trial"),
            text(w, "seed"),
            ids(w, "schedule"),
            if died.is_empty() {
                String::new()
            } else {
                format!(" (died {died:?})")
            },
            text(w, "outcome")
        );
    }
    if let Some(w) = &shrunk {
        println!(
            "  shrunk witness  : {:?} (len {} → {}, {} replays)",
            w.schedule,
            w.original_len,
            w.schedule.len(),
            w.replays
        );
    }
    println!("  verdict         : {}", text(r, "verdict"));
    Ok(())
}

/// Registry visitor for `campaign --shrink`: delta-debug a failing schedule
/// of the resolved protocol, promoted to `target` as the campaign ran it,
/// and with `fixture` save the minimal witness as a corpus fixture.
struct ShrinkFirstWitness<'a> {
    spec: &'a str,
    g: &'a Graph,
    schedule: &'a [NodeId],
    target: Option<Model>,
    fixture: Option<&'a str>,
}

impl registry::ProtocolVisitor for ShrinkFirstWitness<'_> {
    type Result = Result<ShrinkReport, String>;
    fn visit<P, B>(self, protocol: P, bind: B) -> Self::Result
    where
        P: Protocol + Clone + Send + Sync,
        P::Node: Send + Sync,
        P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
        B: for<'g> Fn(&'g Graph) -> registry::BoundOracle<'g, P::Output> + Send + Sync,
    {
        let g = self.g;
        let oracle = bind(g);
        // Shrinking replays fault-free; `cmd_campaign` refuses a live plan.
        let fails = |out: &Outcome<P::Output>| !oracle(out, &[]);
        match self.target {
            // `run_job` refused demotions, and `cmd_campaign` refused
            // `--shrink-out` here.
            Some(m) if m != protocol.model() => {
                shrink_schedule(&Promote::new(protocol, m), g, self.schedule, fails, 20_000)
            }
            _ => {
                let shrunk = shrink_schedule(&protocol, g, self.schedule, fails, 20_000)?;
                if let Some(path) = self.fixture {
                    // Strict replay of the minimal schedule pins the outcome
                    // the fixture must reproduce.
                    let schedule = shrunk.schedule.clone();
                    let replayed = run(&protocol, g, &mut ScheduleAdversary::new(schedule.clone()));
                    let failure = ScheduleFailure {
                        schedule,
                        died: Vec::new(),
                        outcome: replayed.outcome,
                    };
                    let fixture =
                        WitnessFixture::from_failure("campaign-shrunk", self.spec, g, &failure);
                    fixture
                        .save(std::path::Path::new(path))
                        .map_err(|e| format!("cannot write {path}: {e}"))?;
                    // Self-check through the corpus replay registry before
                    // telling the user the witness is durable.
                    fixture.replay()?;
                    eprintln!("wrote shrunk witness fixture to {path}");
                }
                Ok(shrunk)
            }
        }
    }
}

/// One columnar bulk execution (third tier): a seeded random schedule of a
/// simultaneous-native protocol at `n` up to 10⁵ and beyond — under its
/// native model or any free target that includes it (`--model sync|async`
/// drives the event-driven scheduler) — verified against the registry
/// oracle, with rounds/sec and board bytes reported. Sweeps every `--n`
/// value like `run` does.
fn cmd_bulk(o: &Opts) -> Result<(), String> {
    for &n in &o.ns {
        let (report, wall) = run_timed(&JobSpec {
            n,
            ..o.spec.clone()
        })?;
        if o.json {
            eprintln!("bulk wall: {wall:.3}s");
            println!("{}", report.line());
        } else {
            let r = &report.json;
            let rounds = count(r, "rounds");
            println!(
                "bulk: {} @ {} on {} (n = {})",
                text(r, "protocol"),
                text(r, "model"),
                text(r, "family"),
                count(r, "n")
            );
            if r.get("faults").is_some() {
                println!(
                    "  faults          : {} (died {:?})",
                    text(r, "faults"),
                    ids(r, "died")
                );
            }
            println!(
                "  rounds          : {rounds} in {wall:.3}s ({:.0} rounds/sec)",
                per_sec(rounds, wall)
            );
            println!(
                "  board           : {} bytes payload + {} bytes index, {} shards",
                count(r, "board_payload_bytes"),
                count(r, "board_index_bytes"),
                count(r, "shards")
            );
            println!(
                "  messages        : {} bits total, {} bits/msg max",
                count(r, "total_bits"),
                count(r, "max_message_bits")
            );
            println!("  verdict         : {}", text(r, "verdict"));
        }
        if report.verdict == "FAIL" {
            return Err("bulk outcome violated the oracle".into());
        }
    }
    Ok(())
}

/// The socket path every daemon subcommand needs.
fn require_socket(o: &Opts, cmd: &str) -> Result<std::path::PathBuf, String> {
    o.socket
        .as_deref()
        .map(std::path::PathBuf::from)
        .ok_or_else(|| format!("{cmd} requires --socket PATH"))
}

/// Connect to a running daemon, with a hint when there is none.
fn connect(o: &Opts, cmd: &str) -> Result<Client, String> {
    let path = require_socket(o, cmd)?;
    Client::connect(&path).map_err(|e| {
        format!(
            "cannot connect to daemon at {} ({e}); start one with \
             `whiteboard serve --socket {}`",
            path.display(),
            path.display()
        )
    })
}

/// Run the multi-tenant daemon in the foreground until a client sends
/// `shutdown`. Logs to stderr; the socket file is removed on exit.
fn cmd_serve(o: &Opts) -> Result<(), String> {
    let path = require_socket(o, "serve")?;
    let config = ServeConfig {
        workers: o.workers,
        queue_cap: o.queue_cap,
        ..ServeConfig::default()
    };
    let daemon =
        Daemon::bind(&path, config).map_err(|e| format!("cannot bind {}: {e}", path.display()))?;
    daemon.run().map_err(|e| format!("daemon failed: {e}"))?;
    Ok(())
}

/// Submit one job to a running daemon. By default waits for completion and
/// prints the report line — byte-identical to the corresponding `--json`
/// command; `--no-wait` prints `{"job":N}` immediately instead.
fn cmd_submit(o: &Opts) -> Result<(), String> {
    if o.kind.is_none() {
        return Err("submit requires --kind explore|campaign|bulk".into());
    }
    let mut client = connect(o, "submit")?;
    if o.no_wait {
        let id = client.submit(&o.spec).map_err(|e| e.to_string())?;
        println!("{{\"job\":{id}}}");
        return Ok(());
    }
    let (line, verdict) = client.run(&o.spec).map_err(|e| e.to_string())?;
    println!("{line}");
    if verdict == "FAIL" {
        Err("job completed with verdict FAIL".into())
    } else {
        Ok(())
    }
}

/// Print the daemon's job roster (or one job's full record) as one JSON line.
fn cmd_status(o: &Opts) -> Result<(), String> {
    let mut client = connect(o, "status")?;
    let reply = client.status(o.job).map_err(|e| e.to_string())?;
    println!("{reply}");
    Ok(())
}

/// Ask the daemon to drain running jobs, refuse new ones, and exit.
fn cmd_shutdown(o: &Opts) -> Result<(), String> {
    let mut client = connect(o, "shutdown")?;
    client.shutdown().map_err(|e| e.to_string())?;
    eprintln!("daemon is draining; it exits once queued jobs finish");
    Ok(())
}

fn cmd_capacity(o: &Opts) -> Result<(), String> {
    println!(
        "{:>28} {:>9} {:>8} {:>14} {:>14} {:>11}",
        "family", "f(n)", "n", "required", "capacity", "verdict"
    );
    for family in [
        Family::LabeledTrees,
        Family::BipartiteFixedHalves,
        Family::EvenOddBipartite,
        Family::AllGraphs,
    ] {
        for regime in [
            MessageRegime::LogN { c: 4 },
            MessageRegime::SqrtN,
            MessageRegime::Linear,
        ] {
            for &n in &o.ns {
                let v = verdict(family, n as u64, regime);
                println!(
                    "{:>28} {:>9} {:>8} {:>14} {:>14} {:>11}",
                    family.name(),
                    regime.name(),
                    n,
                    v.required_bits,
                    v.capacity_bits,
                    if v.impossible() { "IMPOSSIBLE" } else { "open" }
                );
            }
        }
    }
    Ok(())
}

fn cmd_list() {
    println!("protocols (from the shared registry; [bulk] = runnable on the bulk tier):");
    for p in registry::PROTOCOLS {
        println!(
            "  {:<22} {:<40} ({}, {}){}",
            p.spec,
            p.summary,
            p.model,
            p.paper,
            if p.bulk { " [bulk]" } else { "" }
        );
    }
    println!("workloads: tree forest ktree:K kdeg:K mixed:K gnp:DEG eob bipartite");
    println!("           two-cliques impostor clique cycle path file:PATH (edge list)");
    println!("adversaries: min max random:SEED");
    println!("campaign samplers: uniform priority crashy (see `whiteboard campaign`)");
    println!(
        "tiers: check/explore ≲ n=8 · campaign ≲ n=10² · bulk ≥ n=10⁵ \
         (simultaneous-native, any target model that includes the native one)"
    );
}
