//! The workloads: fixed job lists, made from the workload seed.

use wb_serve::{JobKind, JobSpec};

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// One native-SIMASYNC BUILD(2) bulk job at n = 10⁵.
    BulkBuild,
    /// Four exhaustive explorations, sequential and parallel.
    Explore,
    /// A mix of small jobs through the daemon's socket.
    ServeMix,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::BulkBuild, Workload::Explore, Workload::ServeMix];

    /// Parse a workload name.
    pub fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload '{name}' (expected {})", names.join("|"))
            })
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkBuild => "bulk-build",
            Workload::Explore => "explore",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// The jobs of one pass, made from `seed`: the same seed gives the same
    /// list, job seeds and order.
    pub fn jobs(self, seed: u64) -> Vec<JobSpec> {
        let mut rng = SplitMix(seed);
        let mut jobs = match self {
            Workload::BulkBuild => vec![bulk("build:2", "kdeg-lin:2", 100_000, "native")],
            Workload::Explore => {
                let seq = explore("build:1", "path", 18);
                let par = JobSpec {
                    par: true,
                    ..seq.clone()
                };
                let reduced = JobSpec {
                    reduction: "dpor+symmetry".into(),
                    ..explore("mis:1", "cycle", 14)
                };
                let faulted = JobSpec {
                    faults: Some("crash:1".into()),
                    ..explore("mis:1", "cycle", 12)
                };
                vec![seq, par, reduced, faulted]
            }
            Workload::ServeMix => {
                let faulted = JobSpec {
                    faults: Some("crash:1".into()),
                    ..explore("mis:1", "cycle", 11)
                };
                let mix = [
                    campaign("uniform", None),
                    campaign("crashy", None),
                    campaign("uniform", Some("crash:2")),
                    faulted,
                    explore("build:1", "path", 13),
                    bulk("build:2", "kdeg-lin:2", 10_000, "native"),
                    bulk("edge-count", "gnp-lin:4", 10_000, "native"),
                    // The event-driven scheduler, incremental observe and
                    // the O(|set|²) MIS oracle on the bulk tier.
                    bulk("mis:1", "gnp-lin:4", 10_000, "sync"),
                ];
                // Several instances of each job (each gets its own seed
                // below), so one pass covers several n = 50 campaign graphs
                // rather than hanging on one.
                mix.iter()
                    .cycle()
                    .take(SERVE_VARIANTS * mix.len())
                    .cloned()
                    .collect()
            }
        };
        for job in &mut jobs {
            job.seed = rng.next() >> 1;
        }
        // The order is part of the input too.
        shuffle(&mut jobs, &mut rng);
        jobs
    }
}

/// The order `serve-mix` submits its jobs in on pass `pass`: a fresh seeded
/// permutation of `0..len` each pass, so one run averages over many
/// queueing patterns instead of repeating one.
pub fn pass_order(seed: u64, pass: u64, len: usize) -> Vec<usize> {
    let mut rng = SplitMix(seed ^ pass.wrapping_mul(0xA24B_AED4_963E_E407));
    let mut order: Vec<usize> = (0..len).collect();
    shuffle(&mut order, &mut rng);
    order
}

/// Seeded Fisher–Yates.
fn shuffle<T>(items: &mut [T], rng: &mut SplitMix) {
    for i in (1..items.len()).rev() {
        items.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
}

/// Instances of each `serve-mix` job in one pass.
pub const SERVE_VARIANTS: usize = 2;

fn bulk(protocol: &str, workload: &str, n: usize, model: &str) -> JobSpec {
    JobSpec {
        protocol: protocol.into(),
        workload: workload.into(),
        n,
        model: model.into(),
        ..JobSpec::new(JobKind::Bulk)
    }
}

fn explore(protocol: &str, workload: &str, n: usize) -> JobSpec {
    JobSpec {
        protocol: protocol.into(),
        workload: workload.into(),
        n,
        ..JobSpec::new(JobKind::Explore)
    }
}

fn campaign(sampler: &str, faults: Option<&str>) -> JobSpec {
    JobSpec {
        protocol: "mis:1".into(),
        workload: "gnp:4".into(),
        n: 50,
        trials: 2_000,
        sampler: sampler.into(),
        faults: faults.map(Into::into),
        ..JobSpec::new(JobKind::Campaign)
    }
}

/// SplitMix64: a tiny seeded generator for job seeds and order.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}
