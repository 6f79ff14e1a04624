//! The machine stamp printed with every result, and peak memory.

use std::path::Path;

/// Where and how a result was measured.
#[derive(Clone, Debug)]
pub struct Stamp {
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Cargo profile of the benchmark binary.
    pub profile: &'static str,
    /// `WB_THREADS` as the measured code sees it (`unset` when absent).
    pub wb_threads: String,
    /// Commit of the checkout, or `unknown` outside a git work tree.
    pub commit: String,
    /// The workload seed.
    pub seed: u64,
}

impl Stamp {
    /// Stamp for a run with `seed`.
    pub fn new(seed: u64) -> Stamp {
        Stamp {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            wb_threads: std::env::var("WB_THREADS").unwrap_or_else(|_| "unset".into()),
            commit: git_commit(Path::new(".git")).unwrap_or_else(|| "unknown".into()),
            seed,
        }
    }

    /// One-line rendering.
    pub fn line(&self) -> String {
        format!(
            "nproc={} rustc=\"{}\" profile={} WB_THREADS={} commit={} seed={}",
            self.nproc, self.rustc, self.profile, self.wb_threads, self.commit, self.seed
        )
    }
}

/// Resolve `HEAD` from a `.git` directory without running git: a detached
/// hash, a loose ref, or a packed ref.
fn git_commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(name)) {
        return Some(hash.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (hash, refname) = line.split_once(' ')?;
        (refname == name).then(|| hash.to_string())
    })
}

/// Peak resident set size of process `pid` (`"self"` for this one) in MB,
/// from the `VmHWM` line of `/proc/<pid>/status`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
