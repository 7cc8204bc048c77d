//! Output checks: one FNV checksum per result, compared with the
//! references committed under `refs/` for the default seed, and with every
//! earlier result of the same id in the run.

use mask_common::snapshot::Fnv1a;
use mask_common::stats::SimStats;
use mask_core::SimJob;
use maskd::store::{result_checksum, result_key};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// The seed whose outputs have committed references.
pub const DEFAULT_SEED: u64 = 1;

/// Checksums of every output at [`DEFAULT_SEED`], one `id checksum` line
/// each, regenerated with `--write-refs`.
const REFS: [(&str, &str); 3] = [
    ("pairs_membound", include_str!("../refs/pairs_membound.txt")),
    (
        "sweep_issuebound",
        include_str!("../refs/sweep_issuebound.txt"),
    ),
    ("maskd_zipf", include_str!("../refs/maskd_zipf.txt")),
];

/// Where `--write-refs` puts a workload's reference file.
#[must_use]
pub fn refs_path(workload: &str) -> String {
    format!("{}/refs/{workload}.txt", env!("CARGO_MANIFEST_DIR"))
}

/// Output id of a job: its content address, as `maskd` computes it.
#[must_use]
pub fn job_id(job: &SimJob) -> String {
    format!("job/{:016x}", result_key(job))
}

/// Checksum of a job's full statistics: the checksum of the sealed
/// envelope `maskd` would store for it.
#[must_use]
pub fn job_checksum(job: &SimJob, stats: &SimStats) -> u64 {
    result_checksum(result_key(job), stats)
}

fn parse_refs(text: &str) -> BTreeMap<String, u64> {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (id, sum) = l.split_once(' ')?;
            Some((id.to_owned(), u64::from_str_radix(sum.trim(), 16).ok()?))
        })
        .collect()
}

/// Running tally of checked outputs.
#[derive(Debug, Default)]
pub struct Checks {
    refs: Option<BTreeMap<String, u64>>,
    seen: BTreeMap<String, u64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: errors, refusals and wrong outputs.
    pub failed: u64,
    /// What went wrong, for the log.
    pub problems: Vec<String>,
}

impl Checks {
    /// Checks for `workload`; reference checksums apply at the default
    /// seed only.
    #[must_use]
    pub fn new(workload: &str, seed: u64) -> Checks {
        let refs = (seed == DEFAULT_SEED).then(|| {
            REFS.iter()
                .find(|(w, _)| *w == workload)
                .map_or_else(BTreeMap::new, |(_, text)| parse_refs(text))
        });
        Checks {
            refs,
            ..Checks::default()
        }
    }

    /// Whether `checksum` agrees with the reference for `id` and with the
    /// first output of `id` in this run, which it records.
    fn agrees(&mut self, id: &str, checksum: u64) -> bool {
        let mut ok = true;
        let first = *self.seen.entry(id.to_owned()).or_insert(checksum);
        if first != checksum {
            self.problem(format!(
                "{id}: checksum {checksum:016x}, earlier in this run {first:016x}"
            ));
            ok = false;
        }
        let want = self.refs.as_ref().map(|refs| refs.get(id).copied());
        match want {
            Some(Some(want)) if want != checksum => {
                self.problem(format!(
                    "{id}: checksum {checksum:016x}, reference {want:016x}"
                ));
                false
            }
            Some(None) => {
                self.problem(format!("{id}: no reference checksum"));
                false
            }
            _ => ok,
        }
    }

    fn problem(&mut self, what: String) {
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// One operation whose output has checksum `checksum`.
    pub fn check(&mut self, id: &str, checksum: u64) {
        self.attempted += 1;
        if !self.agrees(id, checksum) {
            self.failed += 1;
        }
    }

    /// One operation that failed before producing an output.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        self.problem(what);
    }

    /// A second, independent computation of an output already checked:
    /// a disagreement fails one more operation.
    pub fn confirm(&mut self, id: &str, checksum: u64) {
        if !self.agrees(id, checksum) {
            self.failed = (self.failed + 1).min(self.attempted);
        }
    }

    /// Every checksum seen, one `id checksum` line each, sorted by id.
    #[must_use]
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (id, sum) in &self.seen {
            let _ = writeln!(out, "{id} {sum:016x}");
        }
        out
    }

    /// FNV digest of [`Checks::lines`]: equal digests mean equal outputs.
    #[must_use]
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write(self.lines().as_bytes());
        h.finish()
    }

    /// Number of distinct outputs seen.
    #[must_use]
    pub fn distinct(&self) -> usize {
        self.seen.len()
    }

    /// Writes [`Checks::lines`] to `path`.
    ///
    /// # Errors
    ///
    /// Any error creating the directory or writing the file.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, format!("# {header}\n{}", self.lines()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mask_common::config::{DesignKind, GpuConfig};
    use mask_gpu::AppSpec;
    use mask_workloads::app_by_name;

    fn sample_stats() -> SimStats {
        let mut s = SimStats::new(2, 8);
        s.cycles = 12_345;
        s.dram_bus_busy = 678;
        s.apps[0].instructions = 9_001;
        s.apps[0].l1_tlb.record(true);
        s.apps[0].l1_tlb.record(false);
        s.apps[1].dram_translation.requests = 42;
        s.apps[1].l2_translation[3].record(true);
        s
    }

    fn sample_job() -> SimJob {
        SimJob {
            design: DesignKind::Mask,
            specs: vec![
                AppSpec {
                    profile: app_by_name("HISTO").expect("known app"),
                    n_cores: 2,
                },
                AppSpec {
                    profile: app_by_name("GUP").expect("known app"),
                    n_cores: 2,
                },
            ],
            max_cycles: 5_000,
            warmup_cycles: 1_000,
            seed: 7,
            gpu: GpuConfig::maxwell(),
        }
    }

    #[test]
    fn checksum_is_stable() {
        let job = sample_job();
        let stats = sample_stats();
        let sum = job_checksum(&job, &stats);
        assert_eq!(sum, job_checksum(&job.clone(), &stats.clone()));
        // Pinned: a change here means every committed reference is stale.
        assert_eq!(job_id(&job), "job/b7a460a6c78bbc84");
        assert_eq!(sum, 0x825b_efd1_9d47_c366);
    }

    #[test]
    fn checksum_covers_every_counter() {
        let job = sample_job();
        let base = job_checksum(&job, &sample_stats());
        let mut s = sample_stats();
        s.apps[1].l2_translation[3].hits += 1;
        assert_ne!(job_checksum(&job, &s), base);
        let mut s = sample_stats();
        s.dram_bus_busy += 1;
        assert_ne!(job_checksum(&job, &s), base);
        // The job itself is in the id, not the checksum.
        let mut other = sample_job();
        other.seed += 1;
        assert_ne!(job_id(&other), job_id(&job));
    }

    #[test]
    fn disagreement_fails_the_operation() {
        let mut c = Checks::new("none", 99);
        c.check("a", 1);
        c.check("a", 1);
        c.check("a", 2);
        assert_eq!((c.attempted, c.failed), (3, 1));
        c.confirm("a", 1);
        assert_eq!(c.failed, 1);
        c.confirm("a", 3);
        assert_eq!(c.failed, 2);
        c.fail("refused".into());
        assert_eq!((c.attempted, c.failed), (4, 3));
    }

    #[test]
    fn references_apply_at_the_default_seed_only() {
        let mut c = Checks {
            refs: Some(parse_refs("# comment\nx 00000000000000ff\n")),
            ..Checks::default()
        };
        c.check("x", 0xff);
        c.check("x", 0xfe);
        c.check("y", 1);
        assert_eq!((c.attempted, c.failed), (3, 2));
        assert!(Checks::new("pairs_membound", DEFAULT_SEED + 1)
            .refs
            .is_none());
    }

    #[test]
    fn digest_depends_on_every_line() {
        let mut a = Checks::default();
        a.check("p", 1);
        a.check("q", 2);
        let mut b = Checks::default();
        b.check("q", 2);
        b.check("p", 1);
        assert_eq!(a.digest(), b.digest());
        b.check("r", 3);
        assert_ne!(a.digest(), b.digest());
    }
}
