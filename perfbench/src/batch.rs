//! The two batch workloads: `pairs_membound` and `sweep_issuebound`.

use crate::check::{job_checksum, job_id, Checks};
use crate::gen::{job_seed, sweep_points};
use mask_common::config::{DesignKind, GpuConfig, JobOptions};
use mask_common::snapshot::Fnv1a;
use mask_common::stats::SimStats;
use mask_core::{
    BaselineCache, CacheStats, JobPool, PairRunner, PrefixCache, PrefixCacheStats, RunOptions,
    SimJob,
};
use mask_gpu::AppSpec;
use mask_workloads::{app_by_name, AppPair, AppProfile};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Worker threads of every pool the benchmark builds.
pub const WORKERS: usize = 2;

/// Memory-heavy paper pairs: each issues 0.5–0.7 page walks and 1.1–1.9
/// DRAM requests per simulated cycle on the full 30-SM machine.
const MEMBOUND_PAIRS: [(&str, &str); 4] = [
    ("CONS", "LPS"),
    ("TRD", "MUM"),
    ("SC", "FWT"),
    ("SCAN", "HISTO"),
];
const PAIR_DESIGNS: [DesignKind; 2] = [DesignKind::SharedTlb, DesignKind::Mask];
/// Cycles per job, of which `PAIR_WARMUP` are warm-up (one MASK epoch).
const PAIR_CYCLES: u64 = 300_000;
const PAIR_WARMUP: u64 = 100_000;

/// The sweep's pair, 15+15 SMs, runs at the 30-instructions-per-cycle
/// issue ceiling with few walks and DRAM requests.
const SWEEP_APPS: (&str, &str) = ("HISTO", "GUP");
const SWEEP_TOKENS: usize = 4;
const SWEEP_MARGINS: usize = 3;
const SWEEP_CYCLES: u64 = 300_000;
/// Below the 100k-cycle epoch: the swept knobs act only at epoch ends, so
/// every job shares one warm-up snapshot. At or above the epoch the
/// prefix key hashes the knobs and sharing silently stops.
const SWEEP_WARMUP: u64 = 90_000;

fn profile(name: &str) -> &'static AppProfile {
    app_by_name(name).expect("the benchmark names known applications")
}

/// A `WORKERS`-thread pool with caches of its own, so nothing it runs can
/// be answered from an earlier run's results (the `JobPool` defaults are
/// the process-wide caches); returned with its caches.
#[must_use]
pub fn fresh_pool() -> (JobPool, Arc<BaselineCache>, Arc<PrefixCache>) {
    let baseline = BaselineCache::new();
    let prefix = PrefixCache::in_memory();
    let pool = JobPool::with_workers(WORKERS)
        .with_cache(Arc::clone(&baseline))
        .with_prefix_cache(Arc::clone(&prefix));
    (pool, baseline, prefix)
}

/// Which batch workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// One `PairRunner::run_pairs` batch of memory-heavy pairs.
    Pairs,
    /// One `JobPool::run_batch` of MASK knob settings on one pair.
    Sweep,
}

/// Everything built before the first timed call.
pub struct Setup {
    kind: Kind,
    runner: PairRunner,
    pairs: Vec<AppPair>,
    /// The jobs the batch submits, in submission order.
    pub jobs: Vec<SimJob>,
    baseline: Arc<BaselineCache>,
    prefix: Arc<PrefixCache>,
}

/// What one batch returned.
pub struct Outcome {
    /// `(output id, checksum)` for every output the batch returns.
    pub outputs: Vec<(String, u64)>,
    /// Alone-baseline cache counters after the batch.
    pub baseline: CacheStats,
    /// Warm-up prefix cache counters after the batch.
    pub prefix: PrefixCacheStats,
}

impl Setup {
    /// Builds the job list and a fresh pool.
    #[must_use]
    pub fn new(kind: Kind, seed: u64) -> Setup {
        let (pool, baseline, prefix) = fresh_pool();
        let (opts, pairs, jobs) = match kind {
            Kind::Pairs => {
                let opts = RunOptions {
                    n_cores: 30,
                    max_cycles: PAIR_CYCLES,
                    seed: job_seed(seed),
                    warmup_cycles: PAIR_WARMUP,
                    gpu: GpuConfig::maxwell(),
                    jobs: JobOptions::with_workers(WORKERS),
                };
                let pairs: Vec<AppPair> = MEMBOUND_PAIRS
                    .iter()
                    .map(|&(a, b)| AppPair {
                        a: profile(a),
                        b: profile(b),
                    })
                    .collect();
                let jobs = pair_jobs(&opts, &pairs);
                (opts, pairs, jobs)
            }
            Kind::Sweep => {
                let opts = RunOptions {
                    jobs: JobOptions::with_workers(WORKERS),
                    ..RunOptions::default()
                };
                (opts, Vec::new(), sweep_jobs(seed))
            }
        };
        Setup {
            kind,
            runner: PairRunner::with_pool(opts, pool),
            pairs,
            jobs,
            baseline,
            prefix,
        }
    }

    /// Runs the batch once.
    #[must_use]
    pub fn run(&self) -> Outcome {
        let outputs = match self.kind {
            Kind::Pairs => {
                // Outcomes come pair-major, design-minor, as do the shared
                // jobs in `self.jobs`.
                let outcomes = self.runner.run_pairs(&self.pairs, &PAIR_DESIGNS);
                let shared = (0..self.jobs.len()).filter(|&i| !self.jobs[i].is_alone());
                outcomes
                    .iter()
                    .zip(shared)
                    .map(|(o, i)| outcome_output(&self.jobs[i], &o.stats, &o.alone_ipc))
                    .collect()
            }
            Kind::Sweep => {
                let stats = self.runner.pool().run_batch(&self.jobs);
                self.outputs_from(&stats.iter().collect::<Vec<_>>())
            }
        };
        Outcome {
            outputs,
            baseline: self.baseline.stats(),
            prefix: self.prefix.stats(),
        }
    }

    /// The outputs the batch returns, computed from every job's full
    /// statistics (`stats[i]` for `self.jobs[i]`): what the untraced run
    /// must have returned if its jobs computed `stats`.
    #[must_use]
    pub fn outputs_from(&self, stats: &[&SimStats]) -> Vec<(String, u64)> {
        match self.kind {
            Kind::Pairs => (0..self.jobs.len())
                .filter(|&i| !self.jobs[i].is_alone())
                .map(|i| {
                    let alone: Vec<f64> = (1..=self.jobs[i].specs.len())
                        .map(|k| stats[i + k].apps[0].ipc())
                        .collect();
                    outcome_output(&self.jobs[i], stats[i], &alone)
                })
                .collect(),
            Kind::Sweep => self
                .jobs
                .iter()
                .zip(stats)
                .map(|(job, s)| (job_id(job), job_checksum(job, s)))
                .collect(),
        }
    }

    /// Distinct jobs the batch submits (equal keys simulate once).
    #[must_use]
    pub fn unique_jobs(&self) -> usize {
        self.jobs
            .iter()
            .map(SimJob::key)
            .collect::<BTreeSet<_>>()
            .len()
    }
}

/// One pair outcome as an output: its checksum covers the shared run's
/// full statistics and the alone-baseline IPCs.
fn outcome_output(shared: &SimJob, stats: &SimStats, alone_ipc: &[f64]) -> (String, u64) {
    let mut h = Fnv1a::new();
    h.write_u64(job_checksum(shared, stats));
    for ipc in alone_ipc {
        h.write_u64(ipc.to_bits());
    }
    let name: Vec<&str> = shared.specs.iter().map(|s| s.profile.name).collect();
    let id = format!("outcome/{}/{}", name.join("_"), shared.design.label());
    (id, h.finish())
}

/// The jobs `PairRunner::run_pairs` plans for `pairs` × `PAIR_DESIGNS`, in
/// its order: per pair and design, the shared run, then each app alone.
fn pair_jobs(opts: &RunOptions, pairs: &[AppPair]) -> Vec<SimJob> {
    let half = opts.n_cores / 2;
    let mut jobs = Vec::new();
    for pair in pairs {
        let placement = [
            AppSpec {
                profile: pair.a,
                n_cores: half,
            },
            AppSpec {
                profile: pair.b,
                n_cores: opts.n_cores - half,
            },
        ];
        for design in PAIR_DESIGNS {
            let job = |specs: Vec<AppSpec>| SimJob {
                design,
                specs,
                max_cycles: opts.max_cycles,
                warmup_cycles: opts.warmup_cycles,
                seed: opts.seed,
                gpu: opts.gpu.clone(),
            };
            jobs.push(job(placement.to_vec()));
            for spec in placement {
                jobs.push(job(vec![spec]));
            }
        }
    }
    jobs
}

/// MASK jobs on the sweep pair, one per seeded knob setting, sharing one
/// simulator seed and so one warm-up.
fn sweep_jobs(seed: u64) -> Vec<SimJob> {
    let sim_seed = job_seed(seed);
    sweep_points(seed, SWEEP_TOKENS, SWEEP_MARGINS)
        .into_iter()
        .map(|(tokens, margin)| {
            let mut gpu = GpuConfig::maxwell();
            gpu.mask.initial_tokens_frac = tokens;
            gpu.mask.bypass_margin = margin;
            SimJob {
                design: DesignKind::Mask,
                specs: vec![
                    AppSpec {
                        profile: profile(SWEEP_APPS.0),
                        n_cores: 15,
                    },
                    AppSpec {
                        profile: profile(SWEEP_APPS.1),
                        n_cores: 15,
                    },
                ],
                max_cycles: SWEEP_CYCLES,
                warmup_cycles: SWEEP_WARMUP,
                seed: sim_seed,
                gpu,
            }
        })
        .collect()
}

/// Checks every output of one batch.
pub fn check_outputs(checks: &mut Checks, outcome: &Outcome) {
    for (id, sum) in &outcome.outputs {
        checks.check(id, *sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_batch_plans_shared_and_alone_jobs() {
        let setup = Setup::new(Kind::Pairs, 3);
        assert_eq!(setup.jobs.len(), 4 * 2 * 3);
        assert_eq!(setup.unique_jobs(), 24);
        assert_eq!(setup.jobs.iter().filter(|j| j.is_alone()).count(), 16);
        assert!(setup.jobs.iter().all(|j| j.warmup_is_epoch_safe()));
    }

    #[test]
    fn sweep_jobs_share_one_warm_up() {
        let setup = Setup::new(Kind::Sweep, 3);
        assert_eq!(setup.unique_jobs(), SWEEP_TOKENS * SWEEP_MARGINS);
        let keys: BTreeSet<_> = setup.jobs.iter().map(SimJob::prefix_key).collect();
        assert_eq!(keys.len(), 1);
        assert!(SWEEP_WARMUP < GpuConfig::maxwell().mask.epoch_cycles);
    }
}
