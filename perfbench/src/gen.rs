//! Every input the benchmark generates, derived from the `--seed` argument.
//!
//! The program under test receives only what these functions return: job
//! seeds, sweep points, the `maskd` job catalogue, and the request plan
//! (arrival times, tenants, Zipf draws). Each generator draws from its own
//! named stream, so adding a draw to one cannot shift another.

use mask_common::config::DesignKind;
use mask_common::snapshot::Fnv1a;
use mask_workloads::pairs::PAIR_NAMES;
use maskd::wire::{GpuOverrides, JobSpec};

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The generator for `stream` under the run's `seed`.
    #[must_use]
    pub fn new(seed: u64, stream: &str) -> Rng {
        let mut h = Fnv1a::new();
        h.write(stream.as_bytes());
        Rng(seed ^ h.finish())
    }

    /// Next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// The simulator PRNG seed every job of a batch workload uses.
#[must_use]
pub fn job_seed(seed: u64) -> u64 {
    Rng::new(seed, "job-seed").next_u64()
}

/// `n_tokens × n_margins` MASK knob settings for the warm-start sweep:
/// `initial_tokens_frac` in `[0.5, 1.0)` and `bypass_margin` in
/// `[0.0, 0.1)`, both read only at epoch ends.
#[must_use]
pub fn sweep_points(seed: u64, n_tokens: usize, n_margins: usize) -> Vec<(f64, f64)> {
    let mut rng = Rng::new(seed, "sweep-points");
    let tokens: Vec<f64> = (0..n_tokens).map(|_| 0.5 + 0.5 * rng.unit()).collect();
    let margins: Vec<f64> = (0..n_margins).map(|_| 0.1 * rng.unit()).collect();
    tokens
        .iter()
        .flat_map(|&t| margins.iter().map(move |&m| (t, m)))
        .collect()
}

/// Zipf distribution over ranks `0..n`: `P(k) ∝ 1 / (k + 1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks with exponent `s`.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Zipf {
        let weights: Vec<f64> = (1..=n).map(|k| (k as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Probability of each rank.
    #[must_use]
    pub fn probs(&self) -> Vec<f64> {
        let mut prev = 0.0;
        self.cdf
            .iter()
            .map(|&c| {
                let p = c - prev;
                prev = c;
                p
            })
            .collect()
    }

    /// One draw.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Expected share of `draws` draws that repeat an earlier draw: with
    /// a result store in front of the simulator, the expected store-hit
    /// ratio when no duplicate is still in flight.
    #[must_use]
    pub fn expected_repeat_ratio(&self, draws: usize) -> f64 {
        let distinct: f64 = self
            .probs()
            .iter()
            .map(|p| 1.0 - (1.0 - p).powf(draws as f64))
            .sum();
        1.0 - distinct / draws as f64
    }
}

/// Shape of the `maskd_zipf` traffic.
#[derive(Clone, Copy, Debug)]
pub struct Traffic {
    /// Distinct jobs in the catalogue.
    pub catalogue: usize,
    /// Zipf exponent of the draws over the catalogue.
    pub zipf_s: f64,
    /// Mean arrivals per second over all tenants.
    pub rate: f64,
    /// Tenants sharing the arrivals.
    pub tenants: usize,
    /// Every `long_every`-th distinct job, in order of first request,
    /// runs `LONG_FACTOR` times longer.
    pub long_every: usize,
}

/// Cycles of a short catalogue job.
pub const SHORT_CYCLES: u64 = 5_000;
/// How many times longer a long catalogue job runs. Longer ones raise the
/// second moment of the daemon's service time: on a slower host short jobs
/// then queue behind them in a few long bursts, and the latency tail hinges
/// on how many bursts a run happens to catch.
pub const LONG_FACTOR: u64 = 4;
/// Warm-up of every catalogue job; it ends before the first epoch, so
/// every job takes the engine's warm-up snapshot path.
pub const CATALOGUE_WARMUP: u64 = 1_000;

/// The seeded catalogue of short `maskd` jobs: 2+2 SMs of a paper pair,
/// 16 warps per SM, `SharedTLB` or `MASK`, and a simulator seed of its own.
#[must_use]
pub fn catalogue(seed: u64, traffic: &Traffic) -> Vec<JobSpec> {
    let mut rng = Rng::new(seed, "catalogue");
    let designs = [DesignKind::SharedTlb, DesignKind::Mask];
    (0..traffic.catalogue)
        .map(|_| {
            let (a, b) = PAIR_NAMES[rng.below(PAIR_NAMES.len())];
            JobSpec {
                tenant: String::new(),
                design: designs[rng.below(designs.len())],
                apps: vec![(a.to_owned(), 2), (b.to_owned(), 2)],
                max_cycles: SHORT_CYCLES,
                warmup_cycles: CATALOGUE_WARMUP,
                seed: rng.next_u64(),
                gpu: "maxwell".to_owned(),
                overrides: GpuOverrides {
                    warps_per_core: Some(16),
                    ..GpuOverrides::default()
                },
            }
        })
        .collect()
}

/// Makes every `traffic.long_every`-th distinct job of `plan`, in order of
/// first request, run `LONG_FACTOR` times longer. Long jobs are then a
/// fixed share of the simulations, spread over the whole run, so the
/// latency tail does not hinge on how many long jobs a seed happens to
/// draw or where they cluster.
pub fn lengthen(jobs: &mut [JobSpec], plan: &[Request], traffic: &Traffic) {
    let mut seen = vec![false; jobs.len()];
    let mut distinct = 0;
    for r in plan {
        if !std::mem::replace(&mut seen[r.entry], true) {
            distinct += 1;
            if distinct % traffic.long_every == 0 {
                jobs[r.entry].max_cycles = SHORT_CYCLES * LONG_FACTOR;
            }
        }
    }
}

/// One scheduled request of the open loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Request {
    /// Scheduled send time, seconds after the loop starts.
    pub at_s: f64,
    /// Submitting tenant.
    pub tenant: usize,
    /// Catalogue index of the job.
    pub entry: usize,
}

/// The open-loop schedule: Poisson arrivals at `traffic.rate` for
/// `duration_s` seconds, each from a uniformly chosen tenant (so every
/// tenant's arrivals are Poisson too), each job a Zipf draw over the
/// catalogue. A longer duration extends the same schedule.
#[must_use]
pub fn request_plan(seed: u64, traffic: &Traffic, duration_s: f64) -> Vec<Request> {
    let mut rng = Rng::new(seed, "requests");
    let zipf = Zipf::new(traffic.catalogue, traffic.zipf_s);
    let mut plan = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / traffic.rate;
        if t >= duration_s {
            return plan;
        }
        plan.push(Request {
            at_s: t,
            tenant: rng.below(traffic.tenants),
            entry: zipf.sample(&mut rng),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::TRAFFIC;

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(job_seed(7), job_seed(7));
        assert_eq!(sweep_points(7, 4, 3), sweep_points(7, 4, 3));
        assert_eq!(catalogue(7, &TRAFFIC), catalogue(7, &TRAFFIC));
        assert_eq!(
            request_plan(7, &TRAFFIC, 5.0),
            request_plan(7, &TRAFFIC, 5.0)
        );
    }

    #[test]
    fn another_seed_other_inputs() {
        assert_ne!(job_seed(7), job_seed(8));
        assert_ne!(sweep_points(7, 4, 3), sweep_points(8, 4, 3));
        assert_ne!(catalogue(7, &TRAFFIC), catalogue(8, &TRAFFIC));
        assert_ne!(
            request_plan(7, &TRAFFIC, 5.0),
            request_plan(8, &TRAFFIC, 5.0)
        );
    }

    #[test]
    fn streams_are_independent() {
        let mut a = Rng::new(7, "a");
        let mut b = Rng::new(7, "b");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn longer_runs_extend_the_same_schedule() {
        let short = request_plan(3, &TRAFFIC, 4.0);
        let long = request_plan(3, &TRAFFIC, 8.0);
        assert_eq!(short[..], long[..short.len()]);
        let rate = long.len() as f64 / 8.0;
        assert!((rate - TRAFFIC.rate).abs() < 0.25 * TRAFFIC.rate, "{rate}");
        assert!(long.iter().all(|r| r.tenant < TRAFFIC.tenants));
    }

    #[test]
    fn sweep_points_stay_in_range_and_distinct() {
        let pts = sweep_points(11, 4, 3);
        assert_eq!(pts.len(), 12);
        for &(t, m) in &pts {
            assert!((0.5..1.0).contains(&t) && (0.0..0.1).contains(&m));
        }
        for (i, a) in pts.iter().enumerate() {
            assert!(pts[i + 1..].iter().all(|b| b != a));
        }
    }

    #[test]
    fn catalogue_has_the_documented_shape() {
        let mut cat = catalogue(5, &TRAFFIC);
        assert_eq!(cat.len(), TRAFFIC.catalogue);
        let plan = request_plan(5, &TRAFFIC, 10.0);
        lengthen(&mut cat, &plan, &TRAFFIC);
        let mut entries: Vec<usize> = plan.iter().map(|r| r.entry).collect();
        entries.sort_unstable();
        entries.dedup();
        let long = cat.iter().filter(|j| j.max_cycles > SHORT_CYCLES).count();
        assert_eq!(long, entries.len() / TRAFFIC.long_every);
        assert!(
            entries
                .iter()
                .filter(|&&e| cat[e].max_cycles > SHORT_CYCLES)
                .count()
                == long
        );
        for job in &cat {
            assert_eq!(job.apps.iter().map(|a| a.1).sum::<usize>(), 4);
            assert!(job.to_sim_job().specs.len() == 2, "apps resolve");
        }
    }

    #[test]
    fn zipf_draws_repeat_at_the_expected_ratio() {
        let zipf = Zipf::new(TRAFFIC.catalogue, TRAFFIC.zipf_s);
        let p: f64 = zipf.probs().iter().sum();
        assert!((p - 1.0).abs() < 1e-9);
        let draws = 1100;
        let expected = zipf.expected_repeat_ratio(draws);
        // The catalogue is sized for about a third of the requests to be
        // repeats, inside the 0.3–0.7 store-hit band the workload targets.
        assert!((0.33..0.45).contains(&expected), "{expected}");
        let mut observed = 0.0;
        let trials = 20;
        for seed in 0..trials {
            let mut rng = Rng::new(seed, "zipf-test");
            let mut seen = vec![false; TRAFFIC.catalogue];
            let mut repeats = 0;
            for _ in 0..draws {
                let k = zipf.sample(&mut rng);
                repeats += usize::from(seen[k]);
                seen[k] = true;
            }
            observed += repeats as f64 / draws as f64;
        }
        observed /= trials as f64;
        assert!(
            (observed - expected).abs() < 0.02,
            "{observed} vs {expected}"
        );
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(100, 1.0);
        let probs = zipf.probs();
        assert!(probs.windows(2).all(|w| w[0] > w[1]));
        let mut rng = Rng::new(1, "zipf-rank");
        let zeros = (0..10_000).filter(|_| zipf.sample(&mut rng) == 0).count();
        let share = zeros as f64 / 10_000.0;
        assert!((share - probs[0]).abs() < 0.02, "{share} vs {}", probs[0]);
    }
}
