//! The `maskd_zipf` workload: an open loop against an in-process daemon.
//!
//! Three tenants send Poisson arrivals; each request is a Zipf draw over a
//! seeded catalogue of short jobs, so about a third of the requests repeat
//! a job the store already holds. The generator is one process with two
//! threads and at most two open connections: the sender submits on
//! schedule and fetches store hits itself; the waiter follows queued jobs
//! in submission order until their result is in hand. Latency runs from
//! each request's scheduled send time to that moment, so a stall charges
//! every request it delays.

use crate::batch::fresh_pool;
use crate::check::{job_id, Checks};
use crate::gen::{catalogue, lengthen, request_plan, Request, Traffic, Zipf};
use crate::report::Metrics;
use crate::spans::Tracer;
use crate::stats::{ms, percentile, ratio};
use mask_common::stats::SimStats;
use mask_core::{BaselineCache, PrefixCache, SimJob};
use maskd::json::Value;
use maskd::store::result_checksum;
use maskd::wire::JobSpec;
use maskd::{result_key, Client, ClientError, DaemonConfig, DaemonHandle};
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The traffic: about 1100 requests arrive in a 35 s run, enough for a
/// p99 with ten samples beyond it, while the daemon stays far from
/// saturation, so a slower host stretches latencies instead of queueing
/// them. About 37% of the requests are store hits: the median then falls
/// among the fastest simulated requests, not where the hit path meets the
/// simulated one, which would make it jump between the two.
pub const TRAFFIC: Traffic = Traffic {
    catalogue: 4_000,
    zipf_s: 0.8,
    rate: 33.0,
    tenants: 3,
    long_every: 10,
};

/// The end of a run left for the last results to come back.
const DRAIN_S: f64 = 1.0;

/// A booted daemon with caches of its own.
pub struct Daemon {
    handle: DaemonHandle,
    client: Client,
    prefix: Arc<PrefixCache>,
    baseline: Arc<BaselineCache>,
}

impl Daemon {
    /// Boots a daemon on a loopback port with a fresh 2-worker pool and an
    /// on-disk store in `dir`: the store's open-time cleanup scan, the
    /// bound listener and the acceptor and dispatcher threads.
    ///
    /// # Errors
    ///
    /// Binding the port failed.
    pub fn boot(dir: &Path) -> Result<Daemon, String> {
        let (pool, baseline, prefix) = fresh_pool();
        let cfg = DaemonConfig {
            addr: "127.0.0.1:0".to_owned(),
            store_dir: Some(dir.to_path_buf()),
            ..DaemonConfig::default()
        };
        let handle =
            maskd::Daemon::spawn_with_pool(cfg, pool).map_err(|e| format!("daemon boot: {e}"))?;
        Ok(Daemon {
            client: Client::new(handle.addr().to_string()),
            handle,
            prefix,
            baseline,
        })
    }

    /// Boots a daemon (see [`Daemon::boot`]) and waits until it answers
    /// `/healthz`.
    ///
    /// # Errors
    ///
    /// Binding the port, or the health check, failed.
    pub fn boot_ready(dir: &Path) -> Result<Daemon, String> {
        Daemon::boot(dir)?.ready()
    }

    /// The daemon, once it answers `/healthz`.
    ///
    /// # Errors
    ///
    /// The health check failed; the daemon is shut down.
    pub fn ready(self) -> Result<Daemon, String> {
        match self.client.healthz() {
            Ok(true) => Ok(self),
            other => {
                self.shutdown();
                Err(format!("daemon health check: {other:?}"))
            }
        }
    }

    /// Stops the daemon and joins its threads.
    pub fn shutdown(self) {
        self.handle.shutdown();
    }
}

/// When one request reached each step.
#[derive(Clone, Copy)]
struct Times {
    due: Instant,
    sent: Instant,
    replied: Instant,
    /// End of the events stream (queued jobs only).
    streamed: Option<Instant>,
}

/// What one request ended with.
enum Outcome {
    Served {
        result: SimStats,
        hit: bool,
        done: Instant,
    },
    Refused(String),
    Failed(String),
}

/// Everything one open loop measured.
pub struct Loop {
    /// Requests in the schedule.
    pub sent: usize,
    /// Per served request: scheduled send to result in hand, ms.
    pub latency_ms: Vec<f64>,
    /// Per request: the `POST /jobs` round trip, ms.
    pub submit_ms: Vec<f64>,
    /// Per served request: submission reply to result in hand, ms.
    pub wait_ms: Vec<f64>,
    /// Per request: how late the sender sent it, ms.
    pub late_ms: Vec<f64>,
    /// First scheduled send to last result.
    pub wall: Duration,
    /// Requests refused with 429 or 503.
    pub refused: u64,
    /// Served results: `(catalogue entry, result, store hit)`.
    pub served: Vec<(usize, SimStats, bool)>,
    /// Submissions answered from the store, per `GET /store/stats`.
    pub store_hits: u64,
    /// Jobs the daemon handed to its pool, per `GET /store/stats`.
    pub simulated: u64,
}

fn rejected(e: ClientError) -> Outcome {
    match e {
        ClientError::Http { status, body } if status == 429 || status == 503 => {
            Outcome::Refused(format!("HTTP {status}: {body}"))
        }
        other => Outcome::Failed(other.to_string()),
    }
}

/// `GET /jobs/{id}`: the result of a finished job.
fn fetch(client: &Client, id: u64, hit: bool) -> Outcome {
    match client.job(id) {
        Ok(reply) => match (reply.status.as_str(), reply.result) {
            ("done", Some(result)) => Outcome::Served {
                result,
                hit,
                done: Instant::now(),
            },
            (status, _) => Outcome::Failed(format!("job {id} is `{status}` without a result")),
        },
        Err(e) => Outcome::Failed(e.to_string()),
    }
}

/// Runs the schedule `plan` against `daemon` and checks every result.
/// With a tracer, each served request gets a `request` span (scheduled
/// send to result) with `maskd.submit`, `maskd.wait` (queued jobs only)
/// and `maskd.fetch` children.
pub fn open_loop(
    daemon: &Daemon,
    jobs: &[JobSpec],
    plan: &[Request],
    tracer: Option<&Tracer>,
    checks: &mut Checks,
) -> Loop {
    let client = &daemon.client;
    let start = Instant::now() + Duration::from_millis(20);
    let due = |r: &Request| start + Duration::from_secs_f64(r.at_s);
    let mut ended: Vec<Option<(Times, Outcome)>> = (0..plan.len()).map(|_| None).collect();
    let (tx, rx) = mpsc::channel::<(usize, u64, Times)>();
    let waited = std::thread::scope(|s| {
        let waiter = s.spawn(move || {
            let mut done = Vec::new();
            for (i, id, mut times) in rx {
                let out = match client.events(id) {
                    Ok(_) => {
                        times.streamed = Some(Instant::now());
                        fetch(client, id, false)
                    }
                    Err(e) => Outcome::Failed(e.to_string()),
                };
                done.push((i, times, out));
            }
            done
        });
        for (i, req) in plan.iter().enumerate() {
            let due = due(req);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let sent = Instant::now();
            let mut spec = jobs[req.entry].clone();
            spec.tenant = format!("tenant{}", req.tenant);
            let reply = client.submit(&spec);
            let times = Times {
                due,
                sent,
                replied: Instant::now(),
                streamed: None,
            };
            ended[i] = match reply {
                Ok(r) if r.store_hit => Some((times, fetch(client, r.id, true))),
                Ok(r) => {
                    tx.send((i, r.id, times))
                        .expect("the waiter outlives the sender");
                    None
                }
                Err(e) => Some((times, rejected(e))),
            };
        }
        drop(tx);
        waiter.join().expect("the waiter thread panicked")
    });
    for (i, times, out) in waited {
        ended[i] = Some((times, out));
    }
    let first_due = plan.first().map_or(start, due);
    let mut run = Loop {
        sent: plan.len(),
        latency_ms: Vec::new(),
        submit_ms: Vec::new(),
        wait_ms: Vec::new(),
        late_ms: Vec::new(),
        wall: Duration::ZERO,
        refused: 0,
        served: Vec::new(),
        store_hits: 0,
        simulated: 0,
    };
    let mut last = first_due;
    for (i, (req, end)) in plan.iter().zip(ended).enumerate() {
        let (t, out) = end.expect("every request ends");
        run.late_ms.push(ms(t.sent - t.due));
        run.submit_ms.push(ms(t.replied - t.sent));
        match out {
            Outcome::Served { result, hit, done } => {
                let job = jobs[req.entry].to_sim_job();
                checks.check(&job_id(&job), result_checksum(result_key(&job), &result));
                run.latency_ms.push(ms(done - t.due));
                run.wait_ms.push(ms(done - t.replied));
                last = last.max(done);
                run.served.push((req.entry, result, hit));
                if let Some(tr) = tracer {
                    let id = i as u64;
                    let parent = Some(tr.record("request", id, None, t.due, done));
                    tr.record("maskd.submit", id, parent, t.sent, t.replied);
                    let fetched = t.streamed.unwrap_or(t.replied);
                    if t.streamed.is_some() {
                        tr.record("maskd.wait", id, parent, t.replied, fetched);
                    }
                    tr.record("maskd.fetch", id, parent, fetched, done);
                }
            }
            Outcome::Refused(e) => {
                run.refused += 1;
                checks.fail(e);
            }
            Outcome::Failed(e) => checks.fail(e),
        }
    }
    run.wall = last - first_due;
    match client.store_stats() {
        Ok(doc) => {
            let sched = doc.get("scheduler");
            let count = |k| {
                sched
                    .and_then(|s| s.get(k))
                    .and_then(Value::as_u64)
                    .unwrap_or(0)
            };
            run.store_hits = count("store_hits");
            run.simulated = count("simulated_jobs");
        }
        Err(e) => checks.fail(format!("GET /store/stats: {e}")),
    }
    run
}

/// The unique jobs `run` handed to the simulator.
#[must_use]
pub fn simulated_jobs(jobs: &[JobSpec], run: &Loop) -> Vec<SimJob> {
    let mut seen = std::collections::BTreeSet::new();
    run.served
        .iter()
        .filter(|(entry, _, hit)| !hit && seen.insert(*entry))
        .map(|(entry, _, _)| jobs[*entry].to_sim_job())
        .collect()
}

/// Re-runs `jobs` through a fresh local pool and confirms the results the
/// daemon served for them: its HTTP, JSON and store layers must hand back
/// exactly what the engine computes.
pub fn confirm_locally(checks: &mut Checks, jobs: &[SimJob]) {
    for (job, stats) in jobs.iter().zip(fresh_pool().0.run_batch(jobs)) {
        checks.confirm(&job_id(job), result_checksum(result_key(job), &stats));
    }
}

/// The generated inputs of one run.
pub struct Inputs {
    /// The job catalogue.
    pub jobs: Vec<JobSpec>,
    /// The request schedule.
    pub plan: Vec<Request>,
}

impl Inputs {
    /// The catalogue and the schedule for a run of `seconds`.
    #[must_use]
    pub fn new(seed: u64, seconds: f64) -> Inputs {
        let plan = request_plan(seed, &TRAFFIC, (seconds - DRAIN_S).max(1.0));
        let zipf = Zipf::new(TRAFFIC.catalogue, TRAFFIC.zipf_s);
        println!(
            "requests {} at {}/s from {} tenants; expected store-hit ratio {:.3} without in-flight duplicates",
            plan.len(),
            TRAFFIC.rate,
            TRAFFIC.tenants,
            zipf.expected_repeat_ratio(plan.len())
        );
        let mut jobs = catalogue(seed, &TRAFFIC);
        lengthen(&mut jobs, &plan, &TRAFFIC);
        Inputs { jobs, plan }
    }
}

/// `maskd` and load-generator metrics of one loop.
pub fn loop_metrics(m: &mut Metrics, run: &Loop) {
    m.set("maskd.submit_ms_p50", percentile(&run.submit_ms, 50.0));
    m.set("maskd.submit_ms_p99", percentile(&run.submit_ms, 99.0));
    m.set("maskd.wait_ms_p50", percentile(&run.wait_ms, 50.0));
    m.set("maskd.wait_ms_p99", percentile(&run.wait_ms, 99.0));
    m.set(
        "maskd.store_hit_ratio",
        ratio(run.store_hits, run.store_hits + run.simulated),
    );
    m.set("maskd.jobs_simulated", run.simulated as f64);
    m.set("maskd.refused", run.refused as f64);
    m.set("loadgen.sent", run.sent as f64);
    m.set("loadgen.late_p99_ms", percentile(&run.late_ms, 99.0));
}

/// Engine counters of a daemon's pool after a loop.
pub fn engine_counters(m: &mut Metrics, daemon: &Daemon, run: &Loop) {
    let prefix = daemon.prefix.stats();
    crate::layers::engine_metrics(
        m,
        usize::try_from(run.simulated).unwrap_or(usize::MAX),
        usize::try_from(prefix.hits + prefix.misses).unwrap_or(usize::MAX),
        daemon.baseline.stats(),
        prefix,
    );
}
