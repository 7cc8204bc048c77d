//! Direct measurements of the `engine`, `store` and `wire` layers.

use crate::report::Metrics;
use crate::stats::{median, ratio};
use mask_common::stats::SimStats;
use mask_core::{CacheStats, PrefixCacheStats};
use maskd::json;
use maskd::wire::{stats_from_value, stats_to_value};
use maskd::ResultStore;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Job-engine counters of one run.
pub fn engine_metrics(
    m: &mut Metrics,
    submitted: usize,
    simulated: usize,
    baseline: CacheStats,
    prefix: PrefixCacheStats,
) {
    m.set("engine.jobs_submitted", submitted as f64);
    m.set("engine.jobs_simulated", simulated as f64);
    m.set("engine.baseline_hits", baseline.hits as f64);
    m.set("engine.prefix_hits", prefix.hits as f64);
    m.set("engine.prefix_misses", prefix.misses as f64);
    m.set(
        "engine.prefix_hit_ratio",
        ratio(prefix.hits, prefix.hits + prefix.misses),
    );
}

/// Times `insert` and then `get` of every `(key, result)` on a fresh
/// disk-backed `ResultStore` in `dir`, as the daemon calls them. Returns
/// how many results read back different from what was stored.
pub fn store_metrics(m: &mut Metrics, results: &[(u64, &SimStats)], dir: &Path) -> usize {
    let store = ResultStore::with_dir(dir.to_path_buf(), None);
    let mut inserts = Vec::with_capacity(results.len());
    for (key, stats) in results {
        let t = Instant::now();
        store.insert(*key, stats);
        inserts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut gets = Vec::with_capacity(results.len());
    let mut wrong = 0;
    for (key, stats) in results {
        let t = Instant::now();
        let got = store.get(*key);
        gets.push(t.elapsed().as_secs_f64() * 1e6);
        wrong += usize::from(got.as_ref() != Some(*stats));
    }
    m.set("store.insert_us", median(&inserts));
    m.set("store.get_us", median(&gets));
    wrong
}

/// Documents encoded and decoded per result by [`wire_metrics`].
const WIRE_REPS: usize = 20;

/// Times encoding each result as the JSON document `maskd` serves and
/// decoding it back. Returns how many documents decoded to a different
/// result.
pub fn wire_metrics(m: &mut Metrics, results: &[&SimStats]) -> usize {
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut wrong = 0;
    for stats in results {
        for _ in 0..WIRE_REPS {
            let t = Instant::now();
            let text = black_box(stats_to_value(black_box(stats)).serialize());
            enc.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            let back = json::parse(black_box(&text))
                .ok()
                .and_then(|v| stats_from_value(&v).ok());
            dec.push(t.elapsed().as_secs_f64() * 1e6);
            wrong += usize::from(back.as_ref() != Some(*stats));
        }
    }
    m.set("wire.encode_us", median(&enc));
    m.set("wire.decode_us", median(&dec));
    wrong
}
