//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--write-refs]
//! ```
//!
//! An untraced run (`--trace 0`) times the workload for about `--seconds`
//! and reports the end-to-end metrics; a traced run (`--trace 1`) runs it
//! with spans around every layer call (a batch workload also once
//! untraced, to compare) and reports the per-layer metrics. Both check
//! every output. The last line of standard output is one JSON object:
//! `correct`, `attempted`, `failed` and `metrics`. See README.md for the
//! workloads and metrics.

mod batch;
mod check;
mod gen;
mod layers;
mod replay;
mod report;
mod serve;
mod spans;
mod stats;

use batch::{check_outputs, Kind, Setup, WORKERS};
use check::{job_checksum, job_id, refs_path, Checks, DEFAULT_SEED};
use mask_common::config::{JobOptions, ShardOptions, SpecOptions};
use mask_common::stats::SimStats;
use replay::{layer_metrics, replay, work_metrics};
use report::{Metrics, END_TO_END, PER_LAYER};
use spans::{write_json, Tracer};
use stats::{median, percentile, supports};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// The workloads; BENCHMARK.json and README.md say why each is here.
pub const WORKLOADS: [&str; 3] = ["pairs_membound", "sweep_issuebound", "maskd_zipf"];

/// A set-up runs once, after other work has displaced its data from the
/// core's caches. Timed back to back in a loop it would run warm, several
/// times faster than the real one and swinging with host state, so each
/// sample first overwrites a buffer larger than a core's private caches.
/// `setup_s` is the median sample.
const SETUP_SAMPLES: usize = 200;
const EVICT_BYTES: usize = 8 << 20;

/// Times calls on cold private caches.
struct Cold(Vec<u8>);

impl Cold {
    fn new() -> Cold {
        Cold(vec![0; EVICT_BYTES])
    }

    /// Runs `f` after overwriting the eviction buffer; returns its result
    /// and its time in seconds.
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let fill = self.0[0].wrapping_add(1);
        self.0.fill(fill);
        black_box(&self.0);
        let t = Instant::now();
        let out = f();
        (out, t.elapsed().as_secs_f64())
    }
}

/// Cold daemon boots timed per `maskd_zipf` run; `setup_s` is their median.
const BOOT_SAMPLES: usize = 101;

/// Metrics printed in addition to the listed ones.
const EXTRAS: [(&str, &str); 12] = [
    ("failed_frac", "ratio"),
    ("latency_samples", "count"),
    ("maskd.submit_ms_p50", "ms"),
    ("maskd.submit_ms_p99", "ms"),
    ("maskd.wait_ms_p50", "ms"),
    ("maskd.wait_ms_p99", "ms"),
    ("loadgen.late_p99_ms", "ms"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_refs: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: DEFAULT_SEED,
        seconds: 35.0,
        trace: false,
        write_refs: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-refs" {
            args.write_refs = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload = WORKLOADS
                    .into_iter()
                    .find(|w| *w == value)
                    .ok_or(format!("unknown workload {value}"))?;
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

/// Clears every `MASK*` variable before any thread starts, so the
/// environment cannot change worker counts, sharding, speculation,
/// snapshot stores, tracing or daemon settings. Returns the names cleared.
fn pin_env() -> Vec<String> {
    let found: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MASK"))
        .collect();
    for k in &found {
        std::env::remove_var(k);
    }
    found
}

fn env_line(cleared: &[String]) -> String {
    format!(
        "env MASK_JOBS={:?} (pools built with {WORKERS} workers) MASK_SM_SHARDS={} \
         MASK_SPEC_SEGMENTS={} MASK_SNAPSHOT_DIR=unset (in-memory prefix cache per run) \
         MASK_TRACE=unset MASKD_*=defaults (loopback ephemeral port, store per run) cleared={cleared:?}",
        JobOptions::default().requested(),
        ShardOptions::default().requested(),
        SpecOptions::default().requested(),
    )
}

fn first_line(path: &str, prefix: &str) -> String {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|t| {
            t.lines().find(|l| l.starts_with(prefix)).map(|l| {
                l[prefix.len()..]
                    .trim_start_matches([' ', '\t', ':'])
                    .trim()
                    .to_owned()
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    // Only the checkout's own repository: git would otherwise report the
    // commit of any repository that happens to enclose it.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
        })
        .and_then(Result::ok)
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(
            || "none (not a git checkout)".to_owned(),
            |c| c.trim().to_owned(),
        );
    format!(
        "host nproc={nproc} cpu={:?} kernel={:?} rustc={:?} commit={commit}",
        first_line("/proc/cpuinfo", "model name"),
        first_line("/proc/sys/kernel/osrelease", ""),
        env!("PERFBENCH_RUSTC"),
    )
}

/// The process's resident-memory high-water mark, in MB.
fn peak_rss_mb() -> f64 {
    let kib: f64 = first_line("/proc/self/status", "VmHWM")
        .trim_end_matches("kB")
        .trim()
        .parse()
        .unwrap_or(0.0);
    kib * 1024.0 / 1e6
}

/// `SETUP_SAMPLES` cold set-ups, in seconds.
fn setup_samples(kind: Kind, seed: u64) -> Vec<f64> {
    let mut cold = Cold::new();
    (0..SETUP_SAMPLES)
        .map(|_| cold.time(|| black_box(Setup::new(kind, black_box(seed)))).1)
        .collect()
}

/// The median and tail of `latency_ms`. `latency_p95_ms` is the listed
/// tail: one host stall delays a dozen consecutive requests of the open
/// loop, so the ten samples beyond p99 are often a single event, and
/// `latency_p99_ms` (printed) swings with whether a run caught one.
fn latency_metrics(m: &mut Metrics, latency_ms: &[f64]) {
    m.set("latency_p50_ms", percentile(latency_ms, 50.0));
    m.set("latency_p95_ms", percentile(latency_ms, 95.0));
    m.set("latency_p99_ms", percentile(latency_ms, 99.0));
    m.set("latency_samples", latency_ms.len() as f64);
    if !supports(latency_ms.len(), 99.0) {
        println!(
            "note: {} latency samples; p99 needs {} for ten beyond it",
            latency_ms.len(),
            stats::samples_needed(99.0)
        );
    }
}

/// Untraced batch run: whole batches, each on a fresh set-up, while the
/// next is expected to end within `seconds`. The first batch only warms
/// the allocator and the page tables of the process, as in any program
/// that runs more than one batch: its outputs are checked, its time is
/// not reported. Every job's result comes back when the batch returns, so
/// each job's latency is its batch's wall time.
fn batch_timed(kind: Kind, args: &Args, checks: &mut Checks) -> Metrics {
    let setups = setup_samples(kind, args.seed);
    let start = Instant::now();
    check_outputs(checks, &Setup::new(kind, args.seed).run());
    let mut walls = Vec::new();
    let mut latency_ms = Vec::new();
    loop {
        let setup = Setup::new(kind, args.seed);
        let t = Instant::now();
        let out = setup.run();
        let wall = t.elapsed().as_secs_f64();
        walls.push(wall);
        latency_ms.extend(std::iter::repeat_n(wall * 1e3, setup.jobs.len()));
        check_outputs(checks, &out);
        // The last batch predicts the next: host speed drifts over a run.
        if start.elapsed().as_secs_f64() + wall > args.seconds {
            break;
        }
    }
    let mut m = Metrics::default();
    m.set("peak_rss_mb", peak_rss_mb());
    m.set("setup_s", median(&setups));
    m.set("wall_s", median(&walls));
    latency_metrics(&mut m, &latency_ms);
    println!("batches {} walls_s {walls:?}", walls.len());
    m
}

/// Traced batch run: the batch once untraced, then the traced replay of
/// its unique jobs, whose outputs must equal the untraced run's.
fn batch_traced(
    kind: Kind,
    args: &Args,
    checks: &mut Checks,
    tmp: &Path,
    tracer: &Tracer,
) -> Metrics {
    let mut m = Metrics::default();
    let setup = Setup::new(kind, args.seed);
    let t = Instant::now();
    let out = setup.run();
    let untraced = t.elapsed().as_secs_f64();
    check_outputs(checks, &out);
    layers::engine_metrics(
        &mut m,
        setup.jobs.len(),
        setup.unique_jobs() - usize::try_from(out.baseline.hits).unwrap_or(0),
        out.baseline,
        out.prefix,
    );
    let t = Instant::now();
    let rep = replay(&setup.jobs, WORKERS, tracer);
    let traced = t.elapsed().as_secs_f64();
    let mut by_key = BTreeMap::new();
    for r in &rep.jobs {
        let job = &setup.jobs[r.index];
        checks.check(&job_id(job), job_checksum(job, &r.stats));
        by_key.insert(job.key(), &r.stats);
    }
    let by_job: Vec<&SimStats> = setup.jobs.iter().map(|j| by_key[&j.key()]).collect();
    for (id, sum) in setup.outputs_from(&by_job) {
        checks.confirm(&id, sum);
    }
    layer_metrics(&mut m, &rep, tracer);
    let stats: Vec<&SimStats> = rep.jobs.iter().map(|r| &r.stats).collect();
    work_metrics(&mut m, &stats);
    let keyed: Vec<(u64, &SimStats)> = rep
        .jobs
        .iter()
        .map(|r| (maskd::result_key(&setup.jobs[r.index]), &r.stats))
        .collect();
    probe_store_and_wire(&mut m, checks, &keyed, tmp);
    m.set("trace.untraced_wall_s", untraced);
    m.set("trace.traced_wall_s", traced);
    m.set("trace.overhead_s", traced - untraced);
    m
}

fn probe_store_and_wire(
    m: &mut Metrics,
    checks: &mut Checks,
    keyed: &[(u64, &SimStats)],
    tmp: &Path,
) {
    let wrong = layers::store_metrics(m, keyed, &tmp.join("store-probe"));
    if wrong > 0 {
        checks.fail(format!("{wrong} results read back from the store differ"));
    }
    let stats: Vec<&SimStats> = keyed.iter().map(|(_, s)| *s).collect();
    let wrong = layers::wire_metrics(m, &stats);
    if wrong > 0 {
        checks.fail(format!("{wrong} result documents decode differently"));
    }
}

/// Untraced `maskd_zipf` run: boots daemons to time set-up, then one open
/// loop on the last.
fn maskd_timed(args: &Args, checks: &mut Checks, tmp: &Path) -> Result<Metrics, String> {
    let inputs = serve::Inputs::new(args.seed, args.seconds);
    let mut cold = Cold::new();
    let mut boots = Vec::new();
    let mut daemon = None;
    for n in 0..BOOT_SAMPLES {
        if let Some(old) = daemon.take() {
            serve::Daemon::shutdown(old);
        }
        let (booted, secs) = cold.time(|| serve::Daemon::boot(&tmp.join(format!("store-{n}"))));
        daemon = Some(booted?.ready()?);
        boots.push(secs);
    }
    let daemon = daemon.expect("at least one boot");
    let run = serve::open_loop(&daemon, &inputs.jobs, &inputs.plan, None, checks);
    let mut m = Metrics::default();
    m.set("peak_rss_mb", peak_rss_mb());
    daemon.shutdown();
    serve::confirm_locally(checks, &serve::simulated_jobs(&inputs.jobs, &run));
    m.set("setup_s", median(&boots));
    m.set("wall_s", run.wall.as_secs_f64());
    latency_metrics(&mut m, &run.latency_ms);
    serve::loop_metrics(&mut m, &run);
    Ok(m)
}

/// Traced `maskd_zipf` run: one open loop with spans on a fresh daemon,
/// then the traced replay of every job the daemon simulated. Its tracing
/// overhead is its `wall_s` and latencies against an untraced run's.
fn maskd_traced(
    args: &Args,
    checks: &mut Checks,
    tmp: &Path,
    tracer: &Tracer,
) -> Result<Metrics, String> {
    let inputs = serve::Inputs::new(args.seed, args.seconds);
    let daemon = serve::Daemon::boot_ready(&tmp.join("store"))?;
    let run = serve::open_loop(&daemon, &inputs.jobs, &inputs.plan, Some(tracer), checks);
    let mut m = Metrics::default();
    serve::loop_metrics(&mut m, &run);
    serve::engine_counters(&mut m, &daemon, &run);
    daemon.shutdown();
    let jobs = serve::simulated_jobs(&inputs.jobs, &run);
    let rep = replay(&jobs, WORKERS, tracer);
    for r in &rep.jobs {
        checks.confirm(
            &job_id(&jobs[r.index]),
            job_checksum(&jobs[r.index], &r.stats),
        );
    }
    layer_metrics(&mut m, &rep, tracer);
    let stats: Vec<&SimStats> = rep.jobs.iter().map(|r| &r.stats).collect();
    work_metrics(&mut m, &stats);
    let keyed: Vec<(u64, &SimStats)> = rep
        .jobs
        .iter()
        .map(|r| (maskd::result_key(&jobs[r.index]), &r.stats))
        .collect();
    probe_store_and_wire(&mut m, checks, &keyed, tmp);
    m.set("trace.traced_wall_s", run.wall.as_secs_f64());
    latency_metrics(&mut m, &run.latency_ms);
    Ok(m)
}

/// The batch workload `workload` names, or `None` for `maskd_zipf`.
fn batch_kind(workload: &str) -> Option<Kind> {
    match workload {
        "pairs_membound" => Some(Kind::Pairs),
        "sweep_issuebound" => Some(Kind::Sweep),
        _ => None,
    }
}

fn run(args: &Args, checks: &mut Checks, tmp: &Path) -> Result<Metrics, String> {
    let kind = batch_kind(args.workload);
    if !args.trace {
        return match kind {
            Some(kind) => Ok(batch_timed(kind, args, checks)),
            None => maskd_timed(args, checks, tmp),
        };
    }
    let tracer = Tracer::new();
    let m = match kind {
        Some(kind) => batch_traced(kind, args, checks, tmp, &tracer),
        None => maskd_traced(args, checks, tmp, &tracer)?,
    };
    let path = out_dir().join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    write_json(&path, &tracer.spans()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!(
        "spans {} written to {}",
        tracer.spans().len(),
        path.display()
    );
    Ok(m)
}

/// Longest run the `maskd_zipf` references cover, in seconds.
const REFS_SECONDS: f64 = 60.0;

/// Writes `refs/<workload>.txt` for the default seed. For a batch
/// workload: every output of an untraced batch and of the replay. For
/// `maskd_zipf`: every catalogue job a run of up to `REFS_SECONDS` can
/// request, computed by a local job pool, not by the daemon.
fn write_refs(args: &Args) -> ExitCode {
    if args.seed != DEFAULT_SEED {
        eprintln!("perfbench: references are written at seed {DEFAULT_SEED}");
        return ExitCode::FAILURE;
    }
    let mut checks = Checks::default();
    if let Some(kind) = batch_kind(args.workload) {
        let tmp = out_dir().join(format!("tmp-{}", std::process::id()));
        batch_traced(kind, args, &mut checks, &tmp, &Tracer::new());
        let _ = std::fs::remove_dir_all(&tmp);
    } else {
        let inputs = serve::Inputs::new(DEFAULT_SEED, REFS_SECONDS);
        let mut entries: Vec<usize> = inputs.plan.iter().map(|r| r.entry).collect();
        entries.sort_unstable();
        entries.dedup();
        let jobs: Vec<_> = entries
            .iter()
            .map(|&e| inputs.jobs[e].to_sim_job())
            .collect();
        for (job, stats) in jobs.iter().zip(batch::fresh_pool().0.run_batch(&jobs)) {
            checks.check(&job_id(job), job_checksum(job, &stats));
        }
    }
    if checks.failed > 0 {
        eprintln!("perfbench: references are written from a clean run");
        return ExitCode::FAILURE;
    }
    let path = PathBuf::from(refs_path(args.workload));
    let header = format!(
        "{} seed {DEFAULT_SEED}: output id, FNV checksum",
        args.workload
    );
    if let Err(e) = checks.write(&path, &header) {
        eprintln!("perfbench: writing {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!(
        "{} references written to {}",
        checks.distinct(),
        path.display()
    );
    ExitCode::SUCCESS
}

/// Where runs leave their traces and checksums, inside the checkout.
fn out_dir() -> PathBuf {
    PathBuf::from("target/perfbench")
}

fn main() -> ExitCode {
    let cleared = pin_env();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--write-refs]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", host_line());
    println!("{}", env_line(&cleared));
    if args.write_refs {
        return write_refs(&args);
    }
    let tmp = out_dir().join(format!("tmp-{}", std::process::id()));
    let mut checks = Checks::new(args.workload, args.seed);
    let result = run(&args, &mut checks, &tmp);
    let _ = std::fs::remove_dir_all(&tmp);
    let mut m = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &checks.problems {
        eprintln!("check failed: {p}");
    }
    let sums = out_dir().join(format!("checksums-{}-seed{}.txt", args.workload, args.seed));
    let header = format!("{} seed {}", args.workload, args.seed);
    if let Err(e) = checks.write(&sums, &header) {
        eprintln!("perfbench: writing {}: {e}", sums.display());
    }
    println!(
        "checksums {:016x} over {} outputs ({}) in {}",
        checks.digest(),
        checks.distinct(),
        if args.seed == DEFAULT_SEED {
            "checked against refs/"
        } else {
            "no reference at this seed"
        },
        sums.display()
    );
    m.set("failed_frac", stats::ratio(checks.failed, checks.attempted));
    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    m.print(listed, &EXTRAS);
    println!("{}", m.result_line(listed, &checks));
    ExitCode::SUCCESS
}
