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
//! offending token. Every run is reproducible from `--seed`, and every
//! `--json` report is deterministic — timing goes to stderr, never into the
//! JSON — which is what lets the `serve` daemon promise byte-identical
//! reports.

use shared_whiteboard::prelude::*;
use std::process::ExitCode;
use wb_math::counting::MessageRegime;
use wb_reductions::lemma3::{verdict, Family};
use wb_runtime::run_traced;
use wb_serve::jobs::{
    parse_bulk_model, parse_dedup, parse_faults, parse_model, parse_reduction, JobKind, JobSpec,
};
use wb_serve::{Client, Daemon, ServeConfig};
use wb_sim::{run_campaign_with, shrink_schedule, CampaignConfig, CampaignLabels, SamplerKind};

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
    protocol: String,
    protocol_explicit: bool,
    workload: String,
    ns: Vec<usize>,
    seed: u64,
    adversary: String,
    trace: bool,
    max_states: u64,
    par: bool,
    compare_naive: bool,
    dedup: String,
    /// Reduction policy for `explore` / `certify`
    /// (`off|dpor|symmetry|dpor+symmetry`).
    reduction: String,
    json: bool,
    trials: u64,
    sampler: String,
    model: String,
    shrink: bool,
    shrink_out: Option<String>,
    /// Fault-plan spec (`crash:f` / `lossy:f`) for explore / campaign /
    /// bulk / certify; `None` (and budget 0) = today's fault-free behavior.
    faults: Option<String>,
    /// `submit --deadline-ms MS`: per-job wall-clock deadline enforced by
    /// the daemon.
    deadline_ms: Option<u64>,
    /// Sharding grain: board shard size for `bulk`, trial batch for
    /// `campaign`. `None` = each command's default.
    batch: Option<usize>,
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
    kind: Option<String>,
    /// `status --job N`: restrict to one job.
    job: Option<u64>,
    /// `submit --no-wait`: print the job ID instead of waiting for the report.
    no_wait: bool,
    /// Positional arguments (`verify` takes certificate files).
    files: Vec<String>,
}

impl Opts {
    fn parse(cmd: &str, args: &[String]) -> Result<Opts, String> {
        let mut o = Opts {
            protocol: "build:1".into(),
            protocol_explicit: false,
            workload: "tree".into(),
            ns: vec![100],
            seed: 1,
            adversary: "random:1".into(),
            trace: false,
            max_states: 1 << 20,
            par: false,
            compare_naive: false,
            dedup: "canonical".into(),
            reduction: "off".into(),
            json: false,
            trials: 10_000,
            sampler: "uniform".into(),
            model: "native".into(),
            shrink: false,
            shrink_out: None,
            faults: None,
            deadline_ms: None,
            batch: None,
            certify: None,
            out: None,
            socket: None,
            workers: 2,
            queue_cap: 64,
            kind: None,
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
                "--protocol" => {
                    o.protocol = value("--protocol")?;
                    o.protocol_explicit = true;
                }
                "--workload" | "--graph-family" => o.workload = value(a)?,
                "--n" => {
                    o.ns = value("--n")?
                        .split(',')
                        .map(|s| s.trim().parse::<usize>().map_err(|e| e.to_string()))
                        .collect::<Result<_, _>>()?;
                }
                "--seed" => {
                    o.seed = value("--seed")?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?
                }
                "--adversary" => o.adversary = value("--adversary")?,
                "--trace" => o.trace = true,
                "--max-states" => {
                    o.max_states = value("--max-states")?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?
                }
                "--par" => o.par = true,
                "--compare-naive" => o.compare_naive = true,
                "--dedup" => o.dedup = value("--dedup")?,
                "--reduction" => o.reduction = value("--reduction")?,
                "--json" => o.json = true,
                "--trials" => {
                    o.trials = value("--trials")?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?
                }
                "--sampler" => o.sampler = value("--sampler")?,
                "--model" => o.model = value("--model")?,
                "--batch" => {
                    o.batch = Some(
                        value("--batch")?
                            .parse()
                            .map_err(|e: std::num::ParseIntError| e.to_string())?,
                    )
                }
                "--faults" => o.faults = Some(value("--faults")?),
                "--deadline-ms" => {
                    let ms: u64 = value("--deadline-ms")?
                        .parse()
                        .map_err(|e: std::num::ParseIntError| e.to_string())?;
                    if ms == 0 {
                        return Err("--deadline-ms must be at least 1".into());
                    }
                    o.deadline_ms = Some(ms);
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
                "--kind" => o.kind = Some(value("--kind")?),
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
            "random" => Box::new(RandomAdversary::new(arg.unwrap_or(self.seed))),
            other => return Err(format!("unknown adversary '{other}'")),
        })
    }
}

use wb_core::registry;
use wb_core::workload::split_spec;

/// Graph-family selection is shared with the campaign engine and the
/// experiment binaries — see `wb_core::workload`.
fn make_workload(spec: &str, n: usize, seed: u64) -> Result<Graph, String> {
    wb_core::workload::graph_family(spec, n, seed)
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
    let n = *o.ns.first().unwrap_or(&20);
    let g = make_workload(&o.workload, n, o.seed)?;
    if o.protocol.starts_with("bfs") {
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
    for &n in &o.ns {
        let g = make_workload(&o.workload, n, o.seed)?;
        let mut adv = o.make_adversary()?;
        let line = run_one(&o.protocol, &g, adv.as_mut(), o.trace)?;
        println!("n={n:>6} {}: {line}", o.workload);
    }
    Ok(())
}

fn cmd_check(o: &Opts) -> Result<(), String> {
    // Exhaustive model checking over all labeled graphs on n nodes: every
    // registry protocol is checkable against its oracle (the per-protocol
    // match arms this command used to carry live in `wb_core::registry`).
    let n = *o.ns.first().unwrap_or(&4);
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
        &o.protocol,
        n,
        CheckAllGraphs {
            n,
            spec: o.protocol.clone(),
        },
    )??;
    println!(
        "exhaustive check passed: protocol {} on all {graphs} graphs (n = {n}), \
         {states} distinct states explored",
        o.protocol
    );
    Ok(())
}

/// Build the daemon-layer job spec equivalent to this invocation's flags —
/// `explore --json`, `bulk --json`, and `submit` all go through this, which
/// is what makes daemon reports byte-identical to CLI reports.
fn job_spec_from_opts(kind: JobKind, o: &Opts, n: usize) -> JobSpec {
    let mut spec = JobSpec::new(kind);
    if o.protocol_explicit {
        spec.protocol = o.protocol.clone();
    }
    spec.workload = o.workload.clone();
    spec.n = n;
    spec.seed = o.seed;
    spec.model = o.model.clone();
    spec.trials = o.trials;
    spec.sampler = o.sampler.clone();
    spec.batch = o.batch;
    spec.max_states = o.max_states;
    spec.dedup = o.dedup.clone();
    spec.reduction = o.reduction.clone();
    spec.par = o.par;
    spec.compare_naive = o.compare_naive;
    spec.faults = o.faults.clone();
    spec.deadline_ms = o.deadline_ms;
    spec
}

/// Schedule-space exploration of one protocol on one workload graph,
/// printing the structured report (distinct states, dedup ratio, failures)
/// or — with `--json` — one machine-readable object (deterministic: timing
/// goes to stderr, and the daemon emits the identical bytes for the same
/// job).
fn cmd_explore(o: &Opts) -> Result<(), String> {
    use wb_runtime::exhaustive::{
        explore_parallel_with, explore_with, ExplorationReport, ExploreConfig,
    };
    let n = *o.ns.first().unwrap_or(&6);
    let g = make_workload(&o.workload, n, o.seed)?;
    let faults = parse_faults(o.faults.as_deref())?;
    let dedup = parse_dedup(&o.dedup)?;
    let config = ExploreConfig::default()
        .with_max_states(o.max_states)
        .with_dedup(dedup)
        .with_faults(faults)
        .with_reduction(parse_reduction(&o.reduction, dedup)?);

    // `--certify PATH`: additionally run the certifying walk and write one
    // `wb-cert/v1` line. Emitted before the report so a FAIL verdict (which
    // makes this command exit nonzero) still leaves the certificate — the
    // failing case is exactly the one worth re-checking independently.
    if let Some(path) = &o.certify {
        let run = wb_bench::certify::certify_spec(
            &o.protocol,
            &g,
            None,
            wb_bench::certify::Provenance {
                family: Some(&o.workload),
                seed: Some(o.seed),
            },
            &config,
        )?;
        std::fs::write(path, run.certificate.to_json_line() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!(
            "certificate: {} states, {} terminals, {} failing -> {path}",
            run.distinct_states, run.terminals, run.failures
        );
    }

    // `--json` goes through the daemon's job layer: one deterministic
    // canonical object on stdout (timing on stderr), byte-identical to what
    // `whiteboard serve` returns for the same spec.
    if o.json {
        let spec = job_spec_from_opts(JobKind::Explore, o, n);
        let start = std::time::Instant::now();
        let report = wb_serve::run_job(&spec)?;
        eprintln!("explore wall: {:.3}s", start.elapsed().as_secs_f64());
        println!("{}", report.line());
        return match report.verdict.as_str() {
            "FAIL" => Err("exploration found failing terminal(s)".into()),
            _ => Ok(()),
        };
    }

    /// `(states, schedules, truncated)` of the dedup-off comparison walk.
    type NaiveStats = (u64, u64, bool);

    fn print_report<O: std::fmt::Debug>(
        o: &Opts,
        g: &Graph,
        report: &ExplorationReport<O>,
        wall_sec: f64,
        naive: Option<NaiveStats>,
    ) -> Result<(), String> {
        let verdict = if !report.failures.is_empty() {
            "FAIL"
        } else if report.truncated {
            "INCONCLUSIVE"
        } else {
            "PASS"
        };
        if let Some((states, schedules, truncated)) = naive {
            println!(
                "naive (no dedup): {} states, {} schedules{} — dedup saves {:.1}x",
                states,
                schedules,
                if truncated { " (truncated)" } else { "" },
                states as f64 / report.distinct_states.max(1) as f64
            );
        }
        println!("exploring {} on {} (n = {})", o.protocol, o.workload, g.n());
        println!("  distinct states : {}", report.distinct_states);
        println!("  terminal configs: {}", report.terminals);
        println!(
            "  merged branches : {} (dedup ratio {:.1}x)",
            report.merged,
            report.dedup_ratio()
        );
        println!("  peak frontier   : {}", report.peak_frontier);
        println!("  states/sec      : {:.0}", report.states_per_sec(wall_sec));
        println!(
            "  truncated       : {}",
            if report.truncated {
                "YES (partial result)"
            } else {
                "no"
            }
        );
        if let Some(plan) = &o.faults {
            println!("  faults          : {plan}");
        }
        if let Some(stats) = &report.reduction {
            println!(
                "  reduction       : {} (dpor {}, symmetry {}{}) — {} generated, \
                 {} sleep-skipped, {} orbit terminals, {} re-expansions",
                stats.policy,
                if stats.dpor_active { "on" } else { "off" },
                if stats.symmetry_active { "on" } else { "off" },
                if stats.symmetry_active {
                    format!(", |Aut| = {}", stats.group_order)
                } else {
                    String::new()
                },
                report.generated(),
                stats.sleep_skipped,
                stats.orbit_terminals,
                stats.reexpansions
            );
        }
        for f in report.failures.iter().take(5) {
            if f.died.is_empty() {
                println!("  FAIL under write order {:?}: {:?}", f.schedule, f.outcome);
            } else {
                println!(
                    "  FAIL under write order {:?} (died {:?}): {:?}",
                    f.schedule, f.died, f.outcome
                );
            }
        }
        match verdict {
            "PASS" => println!(
                "  verdict         : PASS (every reachable configuration satisfies the oracle)"
            ),
            "INCONCLUSIVE" => println!("  verdict         : INCONCLUSIVE (truncated)"),
            _ => {}
        }
        if report.failures.is_empty() {
            Ok(())
        } else {
            Err(format!("{} failing terminal(s)", report.failures.len()))
        }
    }

    /// Registry visitor: explore the resolved protocol against its oracle.
    struct ExploreOne<'a> {
        o: &'a Opts,
        g: &'a Graph,
        config: ExploreConfig,
        faults: Option<wb_runtime::FaultPlan>,
    }

    impl registry::ProtocolVisitor for ExploreOne<'_> {
        type Result = Result<(), String>;
        fn visit<P, B>(self, protocol: P, bind: B) -> Self::Result
        where
            P: Protocol + Clone + Send + Sync,
            P::Node: Send + Sync,
            P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
            B: for<'g> Fn(&'g Graph) -> registry::BoundOracle<'g, P::Output> + Send + Sync,
        {
            let (o, g) = (self.o, self.g);
            let oracle = bind(g);
            let pred = |out: &Outcome<P::Output>, died: &[NodeId]| oracle(out, died);
            let start = std::time::Instant::now();
            let report = if o.par {
                explore_parallel_with(&protocol, g, &self.config, &pred)
            } else {
                explore_with(&protocol, g, &self.config, &pred)
            };
            let wall_sec = start.elapsed().as_secs_f64();
            let naive = o.compare_naive.then(|| {
                let off = ExploreConfig::default()
                    .without_dedup()
                    .with_max_states(o.max_states)
                    .with_faults(self.faults);
                let naive = explore_with(&protocol, g, &off, &pred);
                (naive.distinct_states, naive.terminals, naive.truncated)
            });
            print_report(o, g, &report, wall_sec, naive)
        }
    }

    registry::dispatch(
        &o.protocol,
        n,
        ExploreOne {
            o,
            g: &g,
            config,
            faults,
        },
    )?
}

/// Emit machine-checkable exploration certificates: one certified
/// exhaustive walk per `--n` value, each serialized as one `wb-cert/v1`
/// JSON line to `--out PATH` (or stdout). Run summaries go to stderr so
/// stdout stays pure JSONL. See `docs/CERTIFICATES.md`.
fn cmd_certify(o: &Opts) -> Result<(), String> {
    let model = parse_model(&o.model)?;
    let dedup = parse_dedup(&o.dedup)?;
    let config = wb_runtime::ExploreConfig::default()
        .with_max_states(o.max_states)
        .with_dedup(dedup)
        .with_faults(parse_faults(o.faults.as_deref())?)
        .with_reduction(parse_reduction(&o.reduction, dedup)?);
    let mut lines = String::new();
    for &n in &o.ns {
        let g = make_workload(&o.workload, n, o.seed)?;
        let run = wb_bench::certify::certify_spec(
            &o.protocol,
            &g,
            model,
            wb_bench::certify::Provenance {
                family: Some(&o.workload),
                seed: Some(o.seed),
            },
            &config,
        )?;
        eprintln!(
            "certified {} on {} (n = {}, {}): {} states, {} terminals, {} failing",
            o.protocol,
            o.workload,
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
/// delta-debugged to locally minimal schedules. `--shrink-out PATH`
/// additionally writes the minimal witness as a `tests/corpus`-format
/// fixture (native model only: corpus replay runs the native protocol).
///
/// The report (and its `--json` rendering) is deterministic for a fixed
/// seed — independent of thread count and sharding — so timing goes to
/// stderr, never into the JSON.
fn cmd_campaign(o: &Opts) -> Result<(), String> {
    let n = *o.ns.first().unwrap_or(&100);
    let g = make_workload(&o.workload, n, o.seed)?;
    let target = parse_model(&o.model)?;
    let faults = parse_faults(o.faults.as_deref())?;
    if faults.is_some() && o.shrink {
        return Err(
            "--shrink replays schedules fault-free and cannot minimize faulted witnesses; \
             drop --faults or --shrink/--shrink-out"
                .into(),
        );
    }
    // The campaign's default protocol is MIS (cheap per-trial work, genuinely
    // schedule-dependent outcomes) rather than the global BUILD default.
    let spec = if o.protocol_explicit {
        o.protocol.clone()
    } else {
        "mis:1".into()
    };

    /// Everything `drive` needs beyond the protocol and predicate.
    struct Ctx<'a> {
        o: &'a Opts,
        g: &'a Graph,
        spec: String,
        target: Option<Model>,
        faults: Option<wb_runtime::FaultPlan>,
    }

    fn drive<P, C>(ctx: &Ctx, p: P, pred: C) -> Result<(), String>
    where
        P: Protocol + Sync,
        P::Output: std::fmt::Debug,
        C: Fn(&Outcome<P::Output>, &[NodeId]) -> bool + Sync,
    {
        match ctx.target {
            Some(m) if m != p.model() => {
                if !m.includes(p.model()) {
                    return Err(format!(
                        "cannot demote {} protocol '{}' to {m}",
                        p.model(),
                        ctx.spec
                    ));
                }
                if ctx.o.shrink_out.is_some() {
                    return Err(
                        "--shrink-out requires the protocol's native model (corpus replay \
                         runs the native protocol)"
                            .into(),
                    );
                }
                drive_native(ctx, &Promote::new(p, m), pred)
            }
            _ => drive_native(ctx, &p, pred),
        }
    }

    fn drive_native<P, C>(ctx: &Ctx, p: &P, pred: C) -> Result<(), String>
    where
        P: Protocol + Sync,
        P::Output: std::fmt::Debug,
        C: Fn(&Outcome<P::Output>, &[NodeId]) -> bool + Sync,
    {
        use wb_sim::json::Json;
        let o = ctx.o;
        let g = ctx.g;
        let sampler = SamplerKind::parse(&o.sampler)?;
        let mut config = CampaignConfig::default()
            .with_trials(o.trials)
            .with_seed(o.seed)
            .with_sampler(sampler)
            .with_faults(ctx.faults);
        if let Some(batch) = o.batch {
            config = config.with_batch(batch);
        }
        let labels = CampaignLabels {
            protocol: ctx.spec.clone(),
            model: p.model().to_string(),
            family: o.workload.clone(),
        };
        let start = std::time::Instant::now();
        let report = run_campaign_with(p, g, &config, &labels, &pred);
        let wall_sec = start.elapsed().as_secs_f64();
        let trials_per_sec = if wall_sec > 0.0 {
            report.trials as f64 / wall_sec
        } else {
            0.0
        };

        let shrunk = match (o.shrink, report.witnesses.first()) {
            // Shrinking replays schedules fault-free (the CLI refuses the
            // combination of --shrink and a live --faults plan up front).
            (true, Some(w)) => Some(shrink_schedule(
                p,
                g,
                &w.schedule,
                |outcome| !pred(outcome, &[]),
                20_000,
            )?),
            _ => None,
        };

        if let Some(path) = &o.shrink_out {
            if let Some(s) = &shrunk {
                use shared_whiteboard::corpus::WitnessFixture;
                // Strict replay of the minimal schedule pins the outcome the
                // fixture must reproduce.
                let replayed = run(p, g, &mut ScheduleAdversary::new(s.schedule.clone()));
                let failure = ScheduleFailure {
                    schedule: s.schedule.clone(),
                    died: Vec::new(),
                    outcome: replayed.outcome,
                };
                let fixture =
                    WitnessFixture::from_failure("campaign-shrunk", &ctx.spec, g, &failure);
                fixture
                    .save(std::path::Path::new(path))
                    .map_err(|e| format!("cannot write {path}: {e}"))?;
                // Self-check through the corpus replay registry before
                // telling the user the witness is durable.
                fixture.replay()?;
                eprintln!("wrote shrunk witness fixture to {path}");
            } else {
                eprintln!("no failing trials: nothing written to {path}");
            }
        }

        if o.json {
            let mut json = report.to_json();
            if let (Json::Obj(map), Some(s)) = (&mut json, &shrunk) {
                map.insert(
                    "shrunk_schedule".into(),
                    Json::Arr(s.schedule.iter().map(|&v| Json::Num(v as f64)).collect()),
                );
                map.insert("shrunk_outcome".into(), Json::Str(s.outcome.clone()));
                map.insert("shrink_replays".into(), Json::Num(s.replays as f64));
            }
            println!("{json}");
            eprintln!("campaign wall: {wall_sec:.3}s ({trials_per_sec:.0} trials/sec)");
        } else {
            println!(
                "campaign: {} @ {} on {} (n = {})",
                ctx.spec,
                labels.model,
                o.workload,
                g.n()
            );
            println!(
                "  trials          : {} (sampler {}, seed {})",
                report.trials, report.sampler, report.seed
            );
            if let Some(plan) = &report.faults {
                println!("  faults          : {plan}");
            }
            println!(
                "  passed / failed : {} / {} (deadlocks {})",
                report.passed, report.failed, report.deadlocks
            );
            println!("  distinct outcomes: {}", report.distinct_outcomes);
            println!("  wall            : {wall_sec:.3}s ({trials_per_sec:.0} trials/sec)");
            for w in report.witnesses.iter().take(3) {
                if w.died.is_empty() {
                    println!(
                        "  FAIL trial {} (seed {}): write order {:?} → {}",
                        w.trial, w.seed, w.schedule, w.outcome
                    );
                } else {
                    println!(
                        "  FAIL trial {} (seed {}): write order {:?} (died {:?}) → {}",
                        w.trial, w.seed, w.schedule, w.died, w.outcome
                    );
                }
            }
            if let Some(s) = &shrunk {
                println!(
                    "  shrunk witness  : {:?} (len {} → {}, {} replays)",
                    s.schedule,
                    s.original_len,
                    s.schedule.len(),
                    s.replays
                );
            }
            println!("  verdict         : {}", report.verdict());
        }
        Ok(())
    }

    /// Registry visitor: run the campaign with the resolved protocol and
    /// its instance-bound oracle.
    struct CampaignOne<'a> {
        ctx: Ctx<'a>,
    }

    impl registry::ProtocolVisitor for CampaignOne<'_> {
        type Result = Result<(), String>;
        fn visit<P, B>(self, protocol: P, bind: B) -> Self::Result
        where
            P: Protocol + Clone + Send + Sync,
            P::Node: Send + Sync,
            P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
            B: for<'g> Fn(&'g Graph) -> registry::BoundOracle<'g, P::Output> + Send + Sync,
        {
            let oracle = bind(self.ctx.g);
            let pred = move |out: &Outcome<P::Output>, died: &[NodeId]| oracle(out, died);
            drive(&self.ctx, protocol, pred)
        }
    }

    let ctx = Ctx {
        o,
        g: &g,
        spec: spec.clone(),
        target,
        faults,
    };
    registry::dispatch(&spec, n, CampaignOne { ctx })?
}

/// One columnar bulk execution (third tier): a seeded random schedule of a
/// simultaneous-native protocol at `n` up to 10⁵ and beyond — under its
/// native model or any free target that includes it (`--model sync|async`
/// drives the event-driven scheduler) — verified against the registry
/// oracle, with rounds/sec and board bytes reported. Sweeps every `--n`
/// value like `run` does.
fn cmd_bulk(o: &Opts) -> Result<(), String> {
    use wb_runtime::bulk::{bulk_model, run_bulk, run_bulk_crashed, shuffled_schedule, BulkConfig};

    struct BulkOne<'a> {
        o: &'a Opts,
        g: &'a Graph,
        target: Option<Model>,
        /// Crash-stop only; lossy plans are refused before dispatch.
        faults: Option<wb_runtime::FaultPlan>,
    }

    impl registry::BulkVisitor for BulkOne<'_> {
        type Result = Result<(), String>;
        fn visit<P, B>(self, protocol: P, bind: B) -> Self::Result
        where
            P: wb_runtime::BulkProtocol + Send + Sync,
            P::Output: Clone + PartialEq + std::fmt::Debug + Send + Sync,
            B: for<'g> Fn(&'g Graph) -> registry::BoundOracle<'g, P::Output> + Send + Sync,
        {
            let (o, g) = (self.o, self.g);
            let n = g.n();
            let model = bulk_model(protocol.model(), self.target)
                .map_err(|e| format!("protocol '{}': {e}", o.protocol))?;
            let schedule = shuffled_schedule(n, o.seed);
            let config = BulkConfig::default().with_batch(o.batch.unwrap_or(4096));
            let start = std::time::Instant::now();
            let report = match self.faults {
                Some(plan) => {
                    let victims = plan.sample_victims(n, o.seed)?;
                    run_bulk_crashed(&protocol, g, &schedule, self.target, &config, &victims)
                }
                None => run_bulk(&protocol, g, &schedule, self.target, &config),
            }
            .expect("bulk model pre-validated");
            let wall_sec = start.elapsed().as_secs_f64();
            let rounds_per_sec = if wall_sec > 0.0 {
                report.rounds as f64 / wall_sec
            } else {
                0.0
            };
            let oracle = bind(g);
            let pass = oracle(&report.outcome, &report.crashed);
            let verdict = if pass { "PASS" } else { "FAIL" };
            println!("bulk: {} @ {model} on {} (n = {n})", o.protocol, o.workload);
            if let Some(plan) = self.faults {
                println!(
                    "  faults          : {} (died {:?})",
                    plan.spec(),
                    report.crashed
                );
            }
            println!(
                "  rounds          : {} in {wall_sec:.3}s ({rounds_per_sec:.0} rounds/sec)",
                report.rounds
            );
            println!(
                "  board           : {} bytes payload + {} bytes index, {} shards",
                report.board.payload_bytes(),
                report.board.index_bytes(),
                report.board.shard_count()
            );
            println!(
                "  messages        : {} bits total, {} bits/msg max (budget {})",
                report.total_bits(),
                report.max_message_bits(),
                protocol.budget_bits(n)
            );
            println!("  verdict         : {verdict}");
            if pass {
                Ok(())
            } else {
                Err("bulk outcome violated the oracle".into())
            }
        }
    }

    let target = parse_bulk_model(&o.model)?;
    let faults = parse_faults(o.faults.as_deref())?;
    if let Some(plan) = &faults {
        if plan.kind() == wb_runtime::FaultKind::Lossy {
            return Err(format!(
                "the bulk tier executes crash-stop fault plans only, not {} (lossy \
                 suppression is an adaptive mid-run adversary; use `explore` or `campaign`)",
                plan.spec()
            ));
        }
    }
    for &n in &o.ns {
        // `--json` delegates to the daemon's job layer: deterministic
        // canonical object on stdout, timing on stderr, byte-identical to
        // what `whiteboard serve` returns for the same spec.
        if o.json {
            let spec = job_spec_from_opts(JobKind::Bulk, o, n);
            let start = std::time::Instant::now();
            let report = wb_serve::run_job(&spec)?;
            eprintln!("bulk wall: {:.3}s", start.elapsed().as_secs_f64());
            println!("{}", report.line());
            if report.verdict == "FAIL" {
                return Err("bulk outcome violated the oracle".into());
            }
            continue;
        }
        let g = make_workload(&o.workload, n, o.seed)?;
        registry::dispatch_bulk(
            &o.protocol,
            n,
            BulkOne {
                o,
                g: &g,
                target,
                faults,
            },
        )??;
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
    let kind_name = o
        .kind
        .as_deref()
        .ok_or("submit requires --kind explore|campaign|bulk")?;
    let kind = JobKind::parse(kind_name)?;
    let n = *o.ns.first().unwrap_or(&100);
    let spec = job_spec_from_opts(kind, o, n);
    let mut client = connect(o, "submit")?;
    if o.no_wait {
        let id = client.submit(&spec).map_err(|e| e.to_string())?;
        println!("{{\"job\":{id}}}");
        return Ok(());
    }
    let (line, verdict) = client.run(&spec).map_err(|e| e.to_string())?;
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
