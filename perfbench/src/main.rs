//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints its metrics, one per line with unit and
//! notes, then the machine stamp, then the result as one JSON line:
//! `{"attempted":..,"correct":..,"failed":..,"metrics":{name:{"unit":..,"value":..}}}`.
//! `--trace 0` gives the end-to-end metrics, `--trace 1` the per-layer
//! ones. Exits non-zero on any wrong report or failed cross-check.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use wb_math::json::Json;
use wb_perfbench::machine::Stamp;
use wb_perfbench::run::{self, Outcome};
use wb_perfbench::serve;
use wb_perfbench::workloads::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value()?)?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn result_line(out: &Outcome, correct: bool) -> String {
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            let value = BTreeMap::from([
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::Str(m.unit.into())),
            ]);
            (m.name.clone(), Json::Obj(value))
        })
        .collect();
    Json::Obj(BTreeMap::from([
        ("correct".to_string(), Json::Bool(correct)),
        ("attempted".to_string(), Json::Num(out.attempted as f64)),
        ("failed".to_string(), Json::Num(out.failed as f64)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]))
    .to_string()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, socket] = argv.as_slice() {
        if flag == "--daemon" {
            return serve::daemon_main(Path::new(socket));
        }
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload bulk-build|explore|serve-mix --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    if args.workload == Workload::ServeMix {
        // The daemon runs each job on one thread; the in-process reference
        // and traced replays do the same. Set before any thread starts.
        std::env::set_var("WB_THREADS", "1");
    }
    let stamp = Stamp::new(args.seed);
    let result = if args.trace {
        run::traced(args.workload, args.seed, args.seconds)
    } else {
        run::untraced(args.workload, args.seed, args.seconds)
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            return ExitCode::FAILURE;
        }
    };
    let finite = out.metrics.iter().all(|m| m.value.is_finite());
    let correct = out.correct() && finite;
    println!(
        "# workload {} ({} run, {} s)",
        args.workload.name(),
        if args.trace { "traced" } else { "untraced" },
        args.seconds
    );
    for m in &out.metrics {
        println!("{:<28} {:>16.6} {:<6} {}", m.name, m.value, m.unit, m.note);
    }
    println!(
        "# attempted {} failed {} fail_frac {:.6}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    for p in &out.problems {
        println!("# problem: {p}");
    }
    println!("# stamp {}", stamp.line());
    println!("{}", result_line(&out, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
