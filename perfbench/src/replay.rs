//! The traced replay: a workload's unique jobs re-run through `GpuSim`'s
//! public phase calls, with a span around each call.
//!
//! The replay follows the job engine's plan: equal `SimJob::key`s simulate
//! once, and jobs with equal `prefix_key`s share one warm-up — the first to
//! reach it simulates and encodes the snapshot and keeps its live
//! simulator, the others restore from the bytes. Each encoded snapshot is
//! also restored once into a fresh simulator, so restore cost is measured
//! even on a workload whose plan never restores. The replay's statistics
//! must equal the untraced run's, job for job; that is what makes its
//! phase times describe the program being measured.

use crate::report::Metrics;
use crate::spans::{durations_ms, total_ns, SpanId, Tracer};
use crate::stats::{median, ratio};
use mask_common::config::{ShardOptions, SimConfig};
use mask_common::snapshot::PrefixKey;
use mask_common::stats::SimStats;
use mask_core::SimJob;
use mask_gpu::GpuSim;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One replayed job.
pub struct Replayed {
    /// Index of the job in the submitted list (the first, for duplicates).
    pub index: usize,
    /// Its measured statistics.
    pub stats: SimStats,
    /// Warm-up cycles this job simulated itself (0 when restored).
    pub warmup_simulated: u64,
}

/// Everything the replay measured.
pub struct Replay {
    /// One entry per unique job, in key order.
    pub jobs: Vec<Replayed>,
    /// Sizes of the encoded snapshots, in bytes.
    pub snapshot_bytes: Vec<usize>,
}

type Cell = Arc<OnceLock<Arc<Vec<u8>>>>;

/// The warm-up length the engine applies: at most half the run.
fn warmup_eff(job: &SimJob) -> u64 {
    job.warmup_cycles.min(job.max_cycles / 2)
}

/// The simulator configuration the engine builds for `job`, on the serial
/// SM frontend.
fn sim_config(job: &SimJob) -> SimConfig {
    let mut gpu = job.gpu.clone();
    gpu.n_cores = job.specs.iter().map(|s| s.n_cores).sum();
    SimConfig {
        gpu,
        design: job.design.spec(),
        max_cycles: job.max_cycles,
        seed: job.seed,
        sm_shards: ShardOptions::with_shards(1),
    }
}

/// Replays the unique jobs of `jobs` on `workers` threads under a
/// `replay` span.
#[must_use]
pub fn replay(jobs: &[SimJob], workers: usize, tracer: &Tracer) -> Replay {
    let mut unique: BTreeMap<_, usize> = BTreeMap::new();
    for (i, job) in jobs.iter().enumerate() {
        unique.entry(job.key()).or_insert(i);
    }
    let work: Vec<usize> = unique.into_values().collect();
    let cells: Mutex<BTreeMap<PrefixKey, Cell>> = Mutex::new(BTreeMap::new());
    let snapshot_bytes = Mutex::new(Vec::new());
    let next = AtomicUsize::new(0);
    let mut out: Vec<Replayed> = tracer.time("replay", 0, None, |root| {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers.min(work.len()).max(1))
                .map(|_| {
                    s.spawn(|| {
                        let mut done = Vec::new();
                        loop {
                            let slot = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&i) = work.get(slot) else { break };
                            done.push(replay_job(
                                i,
                                &jobs[i],
                                &cells,
                                &snapshot_bytes,
                                tracer,
                                root,
                            ));
                        }
                        done
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("a replay worker panicked"))
                .collect()
        })
    });
    out.sort_by_key(|r| r.index);
    Replay {
        jobs: out,
        snapshot_bytes: snapshot_bytes
            .into_inner()
            .expect("a replay worker panicked"),
    }
}

fn replay_job(
    index: usize,
    job: &SimJob,
    cells: &Mutex<BTreeMap<PrefixKey, Cell>>,
    snapshot_bytes: &Mutex<Vec<usize>>,
    tracer: &Tracer,
    root: SpanId,
) -> Replayed {
    let id = index as u64;
    tracer.time("job", id, Some(root), |span| {
        let cfg = sim_config(job);
        let build = || {
            tracer.time("gpu.build", id, Some(span), |_| {
                GpuSim::new(&cfg, &job.specs)
            })
        };
        let warmup = warmup_eff(job);
        let mut warmup_simulated = 0;
        let mut sim = if warmup > 0 && job.warmup_is_epoch_safe() {
            let key = job.prefix_key();
            let cell = Arc::clone(
                cells
                    .lock()
                    .expect("a replay worker panicked")
                    .entry(key)
                    .or_default(),
            );
            let mut warmed = None;
            let bytes = cell.get_or_init(|| {
                let mut sim = build();
                tracer.time("gpu.warmup", id, Some(span), |_| sim.run(warmup));
                let bytes = tracer.time("snapshot.encode", id, Some(span), |_| {
                    sim.encode_snapshot(key)
                });
                snapshot_bytes
                    .lock()
                    .expect("a replay worker panicked")
                    .push(bytes.len());
                warmed = Some(sim);
                Arc::new(bytes)
            });
            let restore = |sim: &mut GpuSim| {
                tracer.time("snapshot.restore", id, Some(span), |_| {
                    sim.restore_snapshot(bytes, key)
                        .expect("a freshly encoded snapshot restores");
                });
            };
            match warmed {
                Some(sim) => {
                    warmup_simulated = warmup;
                    restore(&mut build());
                    sim
                }
                None => {
                    let mut sim = build();
                    restore(&mut sim);
                    sim
                }
            }
        } else {
            let mut sim = build();
            tracer.time("gpu.warmup", id, Some(span), |_| sim.run(warmup));
            warmup_simulated = warmup;
            sim
        };
        sim.reset_stats();
        tracer.time("gpu.measured", id, Some(span), |measured| {
            let epoch = job.gpu.mask.epoch_cycles;
            while sim.now() < job.max_cycles {
                let next = sim
                    .now()
                    .checked_div(epoch)
                    .map_or(job.max_cycles, |e| ((e + 1) * epoch).min(job.max_cycles));
                let cycles = next - sim.now();
                tracer.time("gpu.epoch", id, Some(measured), |_| sim.run(cycles));
            }
            tracer.time("gpu.sync_stats", id, Some(measured), |_| sim.sync_stats());
        });
        Replayed {
            index,
            stats: sim.stats().clone(),
            warmup_simulated,
        }
    })
}

/// Simulated events of the measured phase: instructions plus every TLB,
/// walk, cache and DRAM access counted in `s`.
#[must_use]
pub fn events(s: &SimStats) -> u64 {
    s.apps
        .iter()
        .map(|a| {
            a.instructions
                + a.l1_tlb.accesses
                + a.l2_tlb.accesses
                + a.walks_started
                + a.pwc.accesses
                + a.l2_data.accesses
                + a.l2_translation.iter().map(|h| h.accesses).sum::<u64>()
                + a.dram_data.requests
                + a.dram_translation.requests
        })
        .sum()
}

/// Host-time metrics of the `gpu` and `snapshot` layers, from the spans.
pub fn layer_metrics(m: &mut Metrics, replay: &Replay, tracer: &Tracer) {
    let spans = tracer.spans();
    let warmup_cycles: u64 = replay.jobs.iter().map(|r| r.warmup_simulated).sum();
    let measured_cycles: u64 = replay.jobs.iter().map(|r| r.stats.cycles).sum();
    let measured_events: u64 = replay.jobs.iter().map(|r| events(&r.stats)).sum();
    let measured_ns = total_ns(&spans, "gpu.epoch");
    m.set("gpu.build_ms", median(&durations_ms(&spans, "gpu.build")));
    m.set(
        "gpu.warmup_ns_per_cycle",
        ratio(total_ns(&spans, "gpu.warmup"), warmup_cycles),
    );
    m.set(
        "gpu.measured_ns_per_cycle",
        ratio(measured_ns, measured_cycles),
    );
    m.set("gpu.ns_per_event", ratio(measured_ns, measured_events));
    m.set(
        "snapshot.encode_ms",
        median(&durations_ms(&spans, "snapshot.encode")),
    );
    m.set(
        "snapshot.restore_ms",
        median(&durations_ms(&spans, "snapshot.restore")),
    );
    let bytes: Vec<f64> = replay
        .snapshot_bytes
        .iter()
        .map(|&b| b as f64 / 1e6)
        .collect();
    m.set("snapshot.mb", median(&bytes));
    m.set("trace.replayed_jobs", replay.jobs.len() as f64);
    m.set("sim.events", measured_events as f64);
}

/// Simulated work per simulated cycle, summed over `stats`: exact counts
/// that a change which only speeds up the simulator must leave identical.
pub fn work_metrics(m: &mut Metrics, stats: &[&SimStats]) {
    let cycles: u64 = stats.iter().map(|s| s.cycles).sum();
    let sum = |f: &dyn Fn(&mask_common::AppStats) -> u64| -> u64 {
        stats.iter().flat_map(|s| &s.apps).map(f).sum()
    };
    let per_cycle = |n: u64| ratio(n, cycles);
    let l2_tlb = sum(&|a| a.l2_tlb.accesses);
    let row = |a: &mask_common::AppStats| {
        let (d, x) = (&a.dram_data, &a.dram_translation);
        (
            d.row_hits + x.row_hits,
            d.row_hits
                + d.row_misses
                + d.row_conflicts
                + x.row_hits
                + x.row_misses
                + x.row_conflicts,
        )
    };
    m.set("sim.cycles", cycles as f64);
    m.set("core.ipc", per_cycle(sum(&|a| a.instructions)));
    m.set("tlb.l1_per_cycle", per_cycle(sum(&|a| a.l1_tlb.accesses)));
    m.set("tlb.l2_per_cycle", per_cycle(l2_tlb));
    m.set(
        "tlb.l2_miss_ratio",
        ratio(sum(&|a| a.l2_tlb.misses()), l2_tlb),
    );
    m.set(
        "pagetable.walks_per_cycle",
        per_cycle(sum(&|a| a.walks_started)),
    );
    m.set(
        "pagetable.pwc_per_cycle",
        per_cycle(sum(&|a| a.pwc.accesses)),
    );
    m.set(
        "cache.l2_data_per_cycle",
        per_cycle(sum(&|a| a.l2_data.accesses)),
    );
    m.set(
        "cache.l2_xlat_per_cycle",
        per_cycle(sum(&|a| a.l2_translation.iter().map(|h| h.accesses).sum())),
    );
    m.set(
        "cache.l2_xlat_bypassed_per_cycle",
        per_cycle(sum(&|a| a.l2_translation_bypassed)),
    );
    m.set(
        "dram.data_per_cycle",
        per_cycle(sum(&|a| a.dram_data.requests)),
    );
    m.set(
        "dram.xlat_per_cycle",
        per_cycle(sum(&|a| a.dram_translation.requests)),
    );
    m.set(
        "dram.row_hit_ratio",
        ratio(sum(&|a| row(a).0), sum(&|a| row(a).1)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::fresh_pool;
    use crate::spans::durations_ms;
    use mask_common::config::{DesignKind, GpuConfig};
    use mask_gpu::AppSpec;
    use mask_workloads::app_by_name;

    fn job(tokens: f64, apps: &[&str]) -> SimJob {
        let mut gpu = GpuConfig::maxwell();
        gpu.warps_per_core = 16;
        gpu.mask.initial_tokens_frac = tokens;
        SimJob {
            design: DesignKind::Mask,
            specs: apps
                .iter()
                .map(|a| AppSpec {
                    profile: app_by_name(a).expect("known app"),
                    n_cores: 2,
                })
                .collect(),
            max_cycles: 4_000,
            warmup_cycles: 1_000,
            seed: 3,
            gpu,
        }
    }

    #[test]
    fn replay_matches_the_engine() {
        // Two knob settings sharing a warm-up, a duplicate, and an alone job.
        let jobs = vec![
            job(0.6, &["HISTO", "GUP"]),
            job(0.9, &["HISTO", "GUP"]),
            job(0.6, &["HISTO", "GUP"]),
            job(0.6, &["HISTO"]),
        ];
        let engine = fresh_pool().0.run_batch(&jobs);
        let tracer = Tracer::new();
        let rep = replay(&jobs, 2, &tracer);
        assert_eq!(rep.jobs.len(), 3);
        for r in &rep.jobs {
            assert_eq!(r.stats, engine[r.index], "job {}", r.index);
        }
        let spans = tracer.spans();
        // One encode per warm-up prefix; every encode also restored once.
        assert_eq!(durations_ms(&spans, "snapshot.encode").len(), 2);
        assert_eq!(durations_ms(&spans, "snapshot.restore").len(), 3);
        let warmed: u64 = rep.jobs.iter().map(|r| r.warmup_simulated).sum();
        assert_eq!(warmed, 2 * 1_000);
    }
}
