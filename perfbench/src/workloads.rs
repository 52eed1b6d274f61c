//! The four workloads and their end-to-end pass.
//!
//! Each pass stands the system up several times from the generated rows
//! (the median is `setup_s`), keeps the last stand-up, drives it from one
//! client thread in a closed loop for the run's seconds, and hands every
//! outcome to the oracle after the timed phase.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use privtopk_core::distributed::{run_distributed_batch, NetworkKind};
use privtopk_core::service::{QueryTicket, ServiceOutcome, ServiceRuntime, ServiceStats};
use privtopk_core::{BatchJob, ProtocolConfig, RoundPolicy, Schedule, StartPolicy};
use privtopk_datagen::PrivateDatabase;
use privtopk_domain::{NodeId, TopKVector, Value, ValueDomain};
use privtopk_federation::{Federation, FederationService, QueryOutcome, QuerySpec};
use privtopk_store::NodeStore;

use crate::gen::{self, query_seed, SEED_POOL};
use crate::oracle::{self, Observed, Oracle, Verdict};
use crate::probe::{self, HostTicks};
use crate::trace::Tracer;

/// Members of every federation.
pub const MEMBERS: usize = 6;
/// The paper's precision bound; with the default schedule it resolves
/// to 7 rounds, so a query costs n·r + n − 1 = 47 messages.
pub const EPSILON: f64 = 1e-6;
/// Queries of the node-agreement check on the federation workloads.
const CHECK_QUERIES: u64 = 16;
/// The paced writer lands one `insert_many` of this many rows ...
const WRITE_ROWS: usize = 10;
/// ... every this often, into the stores in turn: 1 000 rows/s, the
/// rate the CLI's `query --store-dir --write-rate` example uses.
const WRITE_PERIOD: Duration = Duration::from_millis(10);
/// Rows per `insert_many` when the stores are first filled.
const INGEST_CHUNK: usize = 65_536;
/// The measured phase is cut into windows of this many seconds, each
/// recording its own throughput, CPU time, latency quantiles and host
/// steal share (see `stats::least_disturbed`).
const WINDOW_SECONDS: f64 = 1.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `Federation::serve`, closed loop.
    Serve,
    /// `run_distributed_batch`, back to back.
    Batch,
    /// `ServiceRuntime::start_from_sources` over `NodeStore` snapshots,
    /// closed loop, with a paced writer.
    Store,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    pub k: usize,
    pub rows_per_member: usize,
    /// Queries the client keeps outstanding (pipeline depth for the
    /// services); for the batch, queries per call.
    pub concurrency: usize,
    pub network: NetworkKind,
    /// Stand-ups per run; `setup_s` is their median.
    pub standups: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "serve-d1",
        kind: Kind::Serve,
        k: 8,
        rows_per_member: 100_000,
        concurrency: 1,
        network: NetworkKind::InMemory,
        standups: 7,
    },
    Workload {
        name: "batch-1024",
        kind: Kind::Batch,
        k: 32,
        rows_per_member: 100_000,
        concurrency: 1024,
        network: NetworkKind::InMemory,
        standups: 7,
    },
    Workload {
        name: "store-tcp-d16",
        kind: Kind::Store,
        k: 8,
        rows_per_member: 1_000_000,
        concurrency: 16,
        network: NetworkKind::Tcp,
        standups: 7,
    },
    Workload {
        name: "lossy-d16",
        kind: Kind::Serve,
        k: 8,
        rows_per_member: 100_000,
        concurrency: 16,
        network: NetworkKind::LossyInMemory {
            drop_probability: 0.02,
        },
        standups: 7,
    },
];

pub fn protocol_config(k: usize) -> ProtocolConfig {
    ProtocolConfig::topk(k)
        .with_domain(ValueDomain::paper_default())
        .with_schedule(Schedule::paper_default())
        .with_rounds(RoundPolicy::Precision { epsilon: EPSILON })
}

/// What the benchmark generated for one run.
pub struct Inputs {
    pub seed: u64,
    pub config: ProtocolConfig,
    /// The benchmark's own sorted top-k of each member's rows.
    pub locals: Vec<TopKVector>,
    /// The benchmark's own multiset top-k of all rows.
    pub truth: TopKVector,
    /// Member rows; empty for the store workload, whose rows were
    /// streamed into `stores` and dropped.
    pub rows: Vec<Vec<Value>>,
    /// One store directory per member (store workload only).
    pub stores: Vec<PathBuf>,
}

impl Inputs {
    pub fn generate(w: &Workload, seed: u64, scratch: &Path) -> Result<Inputs, String> {
        let mut locals = Vec::with_capacity(MEMBERS);
        let mut truth = gen::sorted_topk([], w.k);
        let mut rows = Vec::new();
        let mut stores = Vec::new();
        for m in 0..MEMBERS {
            let member = gen::member_rows(seed, m, w.rows_per_member);
            locals.push(gen::sorted_topk([member.as_slice()], w.k));
            truth = gen::sorted_topk([truth.as_slice(), member.as_slice()], w.k);
            if w.kind == Kind::Store {
                let dir = scratch.join(format!("store{m}"));
                let store = NodeStore::create(&dir, ValueDomain::paper_default())
                    .map_err(|e| format!("create store: {e}"))?;
                for chunk in member.chunks(INGEST_CHUNK) {
                    store
                        .insert_many(chunk.iter().copied())
                        .map_err(|e| format!("fill store: {e}"))?;
                }
                stores.push(dir);
            } else {
                rows.push(member);
            }
        }
        let mut config = protocol_config(w.k);
        if w.kind == Kind::Batch {
            // Under the default random anonymous start every query draws
            // its own ring order, and the 1024 queries split into
            // hundreds of lock-step groups of one or two; a fixed start
            // keeps them in one group, so each hop carries one
            // 1024-entry frame.
            config = config.with_start(StartPolicy::Fixed);
        }
        Ok(Inputs {
            seed,
            config,
            locals,
            truth,
            rows,
            stores,
        })
    }

    pub fn oracle(&self) -> Oracle {
        Oracle::new(
            self.config.clone(),
            self.locals.clone(),
            &self.truth,
            self.seed,
        )
    }
}

/// The paced writer's tally.
#[derive(Debug, Default)]
pub struct Writes {
    pub attempted: u64,
    pub failed: u64,
    pub rows: u64,
    pub insert_ns: u64,
    /// Rows acknowledged per store.
    pub acked: Vec<u64>,
}

/// Completed queries, process CPU time and latency samples over one
/// window of the measured phase.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub seconds: f64,
    pub queries: u64,
    pub cpu_ms: f64,
    /// The window's entries in `Pass::latencies_ms`.
    pub latencies: std::ops::Range<usize>,
    /// Host steal share over the window.
    pub steal: f64,
}

/// Accumulates measured work into windows of `WINDOW_SECONDS`.
struct Windows {
    open: Window,
    host: HostTicks,
    done: Vec<Window>,
}

impl Windows {
    fn new() -> Self {
        Windows {
            open: Window::default(),
            host: HostTicks::now(),
            done: Vec::new(),
        }
    }

    /// Adds measured work; closes the window once it spans a window.
    /// `latencies` is every sample of the pass so far.
    fn add(&mut self, seconds: f64, queries: u64, cpu_ms: f64, latencies: &[f64]) {
        self.open.seconds += seconds;
        self.open.queries += queries;
        self.open.cpu_ms += cpu_ms;
        if self.open.seconds >= WINDOW_SECONDS {
            self.open.latencies.end = latencies.len();
            let host = HostTicks::now();
            self.open.steal = host.steal_share_since(&self.host);
            self.host = host;
            let next = latencies.len()..latencies.len();
            self.done.push(std::mem::replace(
                &mut self.open,
                Window {
                    latencies: next,
                    ..Window::default()
                },
            ));
        }
    }
}

/// Everything the end-to-end pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub queries: u64,
    pub failed: u64,
    /// Queries whose outcome the oracle rejected (also in `failed`).
    pub wrong: u64,
    /// Seed-pool entries left out because the engine itself misses the
    /// true top-k on them (see `oracle`).
    pub left_out: usize,
    /// Whether the screened pool was fit to run on.
    pub pool_sound: bool,
    /// Node-agreement check queries, and those that failed.
    pub checks: u64,
    pub checks_failed: u64,
    /// Per query, or per batch call for the batch workload.
    pub latencies_ms: Vec<f64>,
    pub windows: Vec<Window>,
    pub bytes: u64,
    pub frames: u64,
    pub retransmissions: u64,
    pub re_acks: u64,
    pub queue_wait_mean_us: f64,
    pub setup_s: Vec<f64>,
    pub steal_share: f64,
    pub rss_peak_mb: f64,
    pub writes: Writes,
    pub durable: Option<bool>,
}

impl Pass {
    fn judge(&mut self, oracle: &Oracle, observed: &[Observed]) {
        for o in observed {
            match oracle.judge(o) {
                Verdict::Ok => {}
                verdict => {
                    if self.wrong < 3 {
                        eprintln!("oracle: query {} rejected: {verdict:?}", o.seed_index);
                    }
                    self.failed += 1;
                    self.wrong += 1;
                }
            }
        }
    }
}

/// A standing service the closed loop can drive.
trait Service {
    type Outcome;
    fn submit(&mut self, seed: u64) -> Result<QueryTicket, String>;
    fn collect(&mut self, ticket: QueryTicket) -> Result<Self::Outcome, String>;
    fn observe(outcome: &Self::Outcome, seed_index: u64) -> Observed;
    fn stats(&self) -> ServiceStats;
}

impl Service for FederationService {
    type Outcome = QueryOutcome;

    fn submit(&mut self, seed: u64) -> Result<QueryTicket, String> {
        FederationService::submit(self, seed).map_err(|e| e.to_string())
    }

    fn collect(&mut self, ticket: QueryTicket) -> Result<QueryOutcome, String> {
        FederationService::collect(self, ticket).map_err(|e| e.to_string())
    }

    fn observe(outcome: &QueryOutcome, seed_index: u64) -> Observed {
        // The federation service hands back the answer only; node
        // agreement is checked on a runtime of its own (`node_check`).
        Observed::new(seed_index, outcome.values(), &[], outcome.transcript())
    }

    fn stats(&self) -> ServiceStats {
        FederationService::stats(self)
    }
}

struct Runtime {
    runtime: ServiceRuntime,
    config: ProtocolConfig,
}

impl Service for Runtime {
    type Outcome = ServiceOutcome;

    fn submit(&mut self, seed: u64) -> Result<QueryTicket, String> {
        self.runtime
            .submit(&self.config, seed)
            .map_err(|e| e.to_string())
    }

    fn collect(&mut self, ticket: QueryTicket) -> Result<ServiceOutcome, String> {
        self.runtime.collect(ticket).map_err(|e| e.to_string())
    }

    fn observe(outcome: &ServiceOutcome, seed_index: u64) -> Observed {
        Observed::new(
            seed_index,
            outcome.transcript.result().as_slice(),
            &outcome.per_node_results,
            &outcome.transcript,
        )
    }

    fn stats(&self) -> ServiceStats {
        self.runtime.stats()
    }
}

/// Drives `svc` from this thread with `concurrency` queries outstanding
/// until `seconds` have passed, then drains. Query `i` runs under the
/// seed of pool entry `pool[i mod pool.len()]`. Latency runs from the
/// start of `submit` to the return of `collect`; answers are kept as
/// fingerprints for the oracle.
fn closed_loop<S: Service>(
    svc: &mut S,
    seed: u64,
    pool: &[u64],
    concurrency: usize,
    seconds: f64,
    tracer: &mut Tracer,
    pass: &mut Pass,
) -> Vec<Observed> {
    let mut outstanding: VecDeque<(QueryTicket, u64, u64, Instant)> = VecDeque::new();
    let mut observed = Vec::new();
    let before = svc.stats();
    let (cpu0, host0) = (probe::cpu_ms(), HostTicks::now());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut windows = Windows::new();
    // The open window's start and CPU reading: the clocks and /proc/stat
    // are read once per window, not once per query.
    let (mut window_start, mut window_cpu, mut window_queries) = (start, cpu0, 0);
    let mut next = 0u64;
    loop {
        while outstanding.len() < concurrency && Instant::now() < deadline {
            let index = pool[(next % pool.len() as u64) as usize];
            let t0 = Instant::now();
            let submitted = svc.submit(query_seed(seed, index));
            tracer.span("service.submit", None, Some(next), 1, t0, Instant::now());
            match submitted {
                Ok(ticket) => outstanding.push_back((ticket, index, next, t0)),
                Err(e) => {
                    eprintln!("submit failed: {e}");
                    pass.failed += 1;
                }
            }
            next += 1;
        }
        let Some((ticket, index, query, t0)) = outstanding.pop_front() else {
            break;
        };
        let c0 = Instant::now();
        let collected = svc.collect(ticket);
        let end = Instant::now();
        tracer.span("service.collect", None, Some(query), 1, c0, end);
        match collected {
            Ok(outcome) => {
                pass.latencies_ms.push((end - t0).as_secs_f64() * 1e3);
                observed.push(S::observe(&outcome, index));
                window_queries += 1;
                let span = (end - window_start).as_secs_f64();
                if end < deadline && span >= WINDOW_SECONDS {
                    let cpu = probe::cpu_ms();
                    windows.add(span, window_queries, cpu - window_cpu, &pass.latencies_ms);
                    (window_start, window_cpu, window_queries) = (end, cpu, 0);
                }
            }
            Err(e) => {
                eprintln!("collect failed: {e}");
                pass.failed += 1;
            }
        }
    }
    pass.windows = windows.done;
    pass.steal_share = HostTicks::now().steal_share_since(&host0);
    pass.queries = next;
    let after = svc.stats();
    pass.bytes = after.bytes_sent - before.bytes_sent;
    pass.frames = after.frames_sent - before.frames_sent;
    pass.retransmissions = after.retransmissions - before.retransmissions;
    pass.re_acks = after.re_acks - before.re_acks;
    pass.queue_wait_mean_us = after.queue_wait.mean_ns() / 1e3;
    observed
}

/// Stands the system up `times` times and records each stand-up's time;
/// all but the last are torn down again.
fn stand_up<T>(
    times: usize,
    pass: &mut Pass,
    mut make: impl FnMut() -> Result<T, String>,
    mut tear_down: impl FnMut(T) -> Result<(), String>,
) -> Result<T, String> {
    let mut kept = None;
    for _ in 0..times {
        if let Some(previous) = kept.take() {
            tear_down(previous)?;
        }
        let t0 = Instant::now();
        let made = make()?;
        pass.setup_s.push(t0.elapsed().as_secs_f64());
        kept = Some(made);
    }
    kept.ok_or_else(|| "no stand-up".to_string())
}

pub fn databases(rows: &[Vec<Value>]) -> Result<Vec<PrivateDatabase>, String> {
    rows.iter()
        .enumerate()
        .map(|(i, r)| {
            PrivateDatabase::from_values(
                NodeId::new(i),
                ValueDomain::paper_default(),
                r.iter().copied(),
            )
            .map_err(|e| format!("database: {e}"))
        })
        .collect()
}

/// Runs the workload's end-to-end pass.
pub fn run(
    w: &Workload,
    inputs: &Inputs,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut oracle = inputs.oracle();
    let screened = oracle.screen(SEED_POOL);
    pass.left_out = screened.left_out.len();
    pass.pool_sound = oracle::sound(&screened);
    // An unsound pool is run whole, so that every miss shows as a
    // failed query.
    let pool = if pass.pool_sound {
        screened.kept
    } else {
        (0..SEED_POOL).collect()
    };
    match w.kind {
        Kind::Serve => {
            let spec = QuerySpec::top_k("value", w.k).with_epsilon(EPSILON);
            let federation = Federation::new(databases(&inputs.rows)?)
                .map_err(|e| format!("federation: {e}"))?;
            let mut svc = stand_up(
                w.standups,
                &mut pass,
                || {
                    federation
                        .serve(&spec, w.network, w.concurrency)
                        .map_err(|e| format!("serve: {e}"))
                },
                |svc| svc.shutdown().map_err(|e| format!("shutdown: {e}")),
            )?;
            let observed = closed_loop(
                &mut svc,
                inputs.seed,
                &pool,
                w.concurrency,
                seconds,
                tracer,
                &mut pass,
            );
            svc.shutdown().map_err(|e| format!("shutdown: {e}"))?;
            pass.judge(&oracle, &observed);
            let checked = node_check(w, inputs, &pool);
            pass.checks = CHECK_QUERIES;
            let before = pass.failed;
            match checked {
                Ok(observed) => pass.judge(&oracle, &observed),
                Err(e) => {
                    eprintln!("node check failed: {e}");
                    pass.failed += CHECK_QUERIES;
                }
            }
            pass.checks_failed = pass.failed - before;
        }
        Kind::Batch => {
            let members = databases(&inputs.rows)?;
            let jobs = stand_up(
                w.standups,
                &mut pass,
                || {
                    let locals = members
                        .iter()
                        .map(|m| m.local_topk(w.k).map_err(|e| format!("local top-k: {e}")))
                        .collect::<Result<Vec<_>, _>>()?;
                    Ok(pool
                        .iter()
                        .cycle()
                        .take(w.concurrency)
                        .map(|&i| {
                            BatchJob::new(
                                inputs.config.clone(),
                                locals.clone(),
                                query_seed(inputs.seed, i),
                            )
                        })
                        .collect::<Vec<_>>())
                },
                |_| Ok(()),
            )?;
            batch_loop(&jobs, &pool, seconds, &oracle, &mut pass);
        }
        Kind::Store => {
            let (stores, runtime) = stand_up(
                w.standups,
                &mut pass,
                || {
                    let stores = inputs
                        .stores
                        .iter()
                        .map(|d| NodeStore::open(d).map_err(|e| format!("open store: {e}")))
                        .collect::<Result<Vec<_>, _>>()?;
                    let snapshots = stores
                        .iter()
                        .map(|s| s.snapshot_for_k(w.k).map_err(|e| format!("snapshot: {e}")))
                        .collect::<Result<Vec<_>, _>>()?;
                    let runtime = ServiceRuntime::start_from_sources(
                        &snapshots,
                        w.k,
                        w.network,
                        w.concurrency,
                    )
                    .map_err(|e| format!("start: {e}"))?;
                    Ok((stores, runtime))
                },
                |(_, runtime)| runtime.shutdown().map_err(|e| format!("shutdown: {e}")),
            )?;
            let mut svc = Runtime {
                runtime,
                config: inputs.config.clone(),
            };
            let stop = AtomicBool::new(false);
            let observed = std::thread::scope(|s| {
                let writer = s.spawn(|| paced_writer(&stores, inputs.seed, &stop));
                let observed = closed_loop(
                    &mut svc,
                    inputs.seed,
                    &pool,
                    w.concurrency,
                    seconds,
                    tracer,
                    &mut pass,
                );
                stop.store(true, Ordering::Relaxed);
                pass.writes = writer.join().expect("writer thread panicked");
                observed
            });
            svc.runtime
                .shutdown()
                .map_err(|e| format!("shutdown: {e}"))?;
            drop(stores);
            pass.judge(&oracle, &observed);
            pass.durable = Some(durable(w, inputs, &pass.writes)?);
        }
    }
    pass.rss_peak_mb = probe::rss_peak_mb();
    Ok(pass)
}

/// Back-to-back batch calls until their summed duration reaches
/// `seconds`. Job `q` runs pool entry `pool[q mod pool.len()]`. Only
/// the calls are timed: each batch's 1024 outcomes go to the oracle
/// between calls, outside the measured time.
fn batch_loop(jobs: &[BatchJob], pool: &[u64], seconds: f64, oracle: &Oracle, pass: &mut Pass) {
    let host0 = HostTicks::now();
    let mut windows = Windows::new();
    let mut busy = 0.0;
    while busy < seconds {
        let cpu0 = probe::cpu_ms();
        let t0 = Instant::now();
        let outcome = run_distributed_batch(jobs, NetworkKind::InMemory);
        let took = t0.elapsed().as_secs_f64();
        let cpu = probe::cpu_ms() - cpu0;
        busy += took;
        windows.add(took, jobs.len() as u64, cpu, &pass.latencies_ms);
        pass.latencies_ms.push(took * 1e3);
        pass.queries += jobs.len() as u64;
        match outcome {
            Ok(out) => {
                pass.bytes += out.bytes_sent;
                pass.frames += out.frames_sent;
                let observed: Vec<Observed> = (0..jobs.len())
                    .map(|q| {
                        let t = &out.transcripts[q];
                        let index = pool[q % pool.len()];
                        Observed::new(index, t.result().as_slice(), &out.per_node_results[q], t)
                    })
                    .collect();
                pass.judge(oracle, &observed);
            }
            Err(e) => {
                eprintln!("batch failed: {e}");
                pass.failed += jobs.len() as u64;
            }
        }
    }
    pass.steal_share = HostTicks::now().steal_share_since(&host0);
    pass.windows = windows.done;
}

/// `FederationService::collect` returns only the answer, so node
/// agreement on the federation workloads is checked on a service
/// runtime stood up from the same local vectors, network and depth.
fn node_check(w: &Workload, inputs: &Inputs, pool: &[u64]) -> Result<Vec<Observed>, String> {
    let mut runtime = ServiceRuntime::start(&inputs.locals, w.network, w.concurrency)
        .map_err(|e| e.to_string())?;
    let entries: Vec<u64> = pool
        .iter()
        .copied()
        .cycle()
        .take(CHECK_QUERIES as usize)
        .collect();
    let work: Vec<(ProtocolConfig, u64)> = entries
        .iter()
        .map(|&i| (inputs.config.clone(), query_seed(inputs.seed, i)))
        .collect();
    let outcomes = runtime.run_workload(&work).map_err(|e| e.to_string());
    runtime.shutdown().map_err(|e| e.to_string())?;
    Ok(outcomes?
        .iter()
        .zip(entries)
        .map(|(o, i)| Runtime::observe(o, i))
        .collect())
}

/// Lands `WRITE_ROWS` rows every `WRITE_PERIOD`, round robin over the
/// stores, until `stop` is set.
fn paced_writer(stores: &[NodeStore], seed: u64, stop: &AtomicBool) -> Writes {
    let mut writes = Writes {
        acked: vec![0; stores.len()],
        ..Writes::default()
    };
    let start = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let due = start + WRITE_PERIOD * writes.attempted as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let target = writes.attempted as usize % stores.len();
        let rows = gen::writer_rows(seed, writes.attempted, WRITE_ROWS);
        let t0 = Instant::now();
        let landed = stores[target].insert_many(rows);
        writes.insert_ns += t0.elapsed().as_nanos() as u64;
        writes.attempted += 1;
        match landed {
            Ok(()) => {
                writes.rows += WRITE_ROWS as u64;
                writes.acked[target] += WRITE_ROWS as u64;
            }
            Err(e) => {
                eprintln!("write failed: {e}");
                writes.failed += 1;
            }
        }
    }
    writes
}

/// Reopens every store and checks that it holds its initial rows plus
/// every row the writer had acknowledged.
fn durable(w: &Workload, inputs: &Inputs, writes: &Writes) -> Result<bool, String> {
    let mut ok = true;
    for (dir, acked) in inputs.stores.iter().zip(&writes.acked) {
        let rows = NodeStore::open(dir)
            .map_err(|e| format!("reopen store: {e}"))?
            .stats()
            .rows;
        let expected = w.rows_per_member as u64 + acked;
        if rows != expected {
            eprintln!(
                "durability: {} holds {rows} rows, expected {expected}",
                dir.display()
            );
            ok = false;
        }
    }
    Ok(ok)
}
