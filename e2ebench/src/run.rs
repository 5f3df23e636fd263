//! Workload drivers: set-up (servers, stores, prefill), the timed
//! closed loop, reply verification and the end-to-end metrics.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use ss_server::{
    Balancer, Client, JobReport, RetryPolicy, ServeOptions, Server, ServerHandle, ServerStats,
    ShardSpec,
};

use crate::inputs::{
    churn_input, cold_input, cold_list, cold_profile, warm_inputs, warm_order, ChurnDraws, Input,
    Workload, CHURN_KEYS, HELD_OUT_SEED,
};
use crate::metrics::Outcome;
use crate::verify::{check_golden, check_reply, golden_inputs, reference, Reference};

/// Worker threads per server.
pub const WORKERS: usize = 2;
/// Memory-tier budget of each churn-fleet shard: well below the
/// population's working set, so evictions and disk hits interleave
/// with memory hits.
pub const CHURN_CACHE_BYTES: usize = 1 << 20;
/// Memory-tier budget of the cold-mix server: small enough that the
/// tier fills within the first seconds and the window measures a
/// server in steady state (never-seen inputs miss at any size).
pub const COLD_CACHE_BYTES: usize = 16 << 20;
/// Replication factor of the churn fleet (every key on both shards).
pub const CHURN_REPLICAS: usize = 2;
/// Longest a refused (`Busy`) submission is retried before it counts
/// as failed.
const BUSY_DEADLINE: Duration = Duration::from_secs(30);
/// Threads of the untimed in-process reference runs.
const REFERENCE_THREADS: usize = 2;

/// One run's command-line parameters.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

/// One finished submission of the timed loop.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Input id (see [`Env::input`]).
    pub id: u64,
    /// Submit-to-report time seen by the client.
    pub latency_us: f64,
    /// The report, or why there is none.
    pub result: Result<JobReport, String>,
    /// Whether the balancer's first choice served the job (fleet only).
    pub owner_first: bool,
    /// Shards the balancer skipped (fleet only).
    pub failovers: u32,
}

/// The servers of one set-up and the scratch directories they own.
pub struct Env {
    /// Which workload this serves.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// One handle per server.
    pub handles: Vec<ServerHandle>,
    /// Their addresses, in ring order.
    pub peers: Vec<String>,
    /// Warm-repeat inputs (precomputed; regenerating them per job would
    /// measure the generator).
    warm: Vec<Input>,
    /// Churn-fleet population inputs.
    population: Vec<Input>,
    /// Prefill replies, by input id.
    pub prefill: Vec<(u64, JobReport)>,
    /// Time spent binding, spawning and prefilling.
    pub setup_s: f64,
}

impl Env {
    /// Input `id` of this workload.
    pub fn input(&self, id: u64) -> Input {
        match self.workload {
            Workload::ColdMix => cold_input(self.seed, id),
            Workload::WarmRepeat => self.warm[id as usize].clone(),
            Workload::ChurnFleet => match self.population.get(id as usize) {
                Some(input) => input.clone(),
                None => churn_input(self.seed, id),
            },
        }
    }

    /// The profile or registry name of input `id`.
    pub fn label(&self, id: u64) -> &'static str {
        match self.workload {
            Workload::ColdMix => cold_profile(self.seed, id).name,
            Workload::WarmRepeat => self.warm[id as usize].label,
            Workload::ChurnFleet => self.population[0].label,
        }
    }

    /// The ids whose TDV and TSL the run reports (fixed per seed).
    pub fn fixed_list(&self) -> Vec<u64> {
        match self.workload {
            Workload::ColdMix => cold_list().collect(),
            Workload::WarmRepeat => (0..self.warm.len() as u64).collect(),
            Workload::ChurnFleet => (0..CHURN_KEYS).collect(),
        }
    }

    /// Every server's counters, in ring order.
    pub fn stats(&self) -> Vec<ServerStats> {
        self.handles.iter().map(ServerHandle::stats).collect()
    }

    /// Stops every server (their threads are joined).
    pub fn shutdown(self) {
        for handle in self.handles {
            handle.shutdown();
        }
    }
}

/// Bench-owned scratch space inside the working directory, removed
/// when dropped.
pub struct Scratch(PathBuf);

impl Scratch {
    /// Creates `.e2ebench_tmp/<pid>` under the working directory.
    ///
    /// # Panics
    ///
    /// When the directory cannot be created.
    pub fn new() -> Scratch {
        let dir = PathBuf::from(".e2ebench_tmp").join(std::process::id().to_string());
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create the benchmark's scratch directory");
        Scratch(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Default for Scratch {
    fn default() -> Self {
        Scratch::new()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
        // the parent is shared by concurrent runs: remove it only empty
        if let Some(parent) = self.0.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

fn policy(seed: u64) -> RetryPolicy {
    RetryPolicy::seeded(seed).with_deadline(BUSY_DEADLINE)
}

/// A client with tracing set as asked.
fn connect(addr: &str, tracing: bool) -> Result<Client, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    client.set_tracing(tracing);
    Ok(client)
}

/// A balancer over `peers` with tracing set as asked.
fn balancer(peers: &[String], seed: u64, tracing: bool) -> Balancer {
    let mut balancer = Balancer::new(peers.to_vec())
        .expect("a two-shard ring is valid")
        .with_policy(policy(seed));
    balancer.set_tracing(tracing);
    balancer
}

/// Binds and spawns the workload's servers, prefills them, and times
/// both. `rep` names the store directories of this set-up.
///
/// # Errors
///
/// A bind, connect or prefill failure.
pub fn setup(workload: Workload, seed: u64, scratch: &Path, rep: usize) -> Result<Env, String> {
    let warm = match workload {
        Workload::WarmRepeat => warm_inputs(),
        _ => Vec::new(),
    };
    let population: Vec<Input> = match workload {
        Workload::ChurnFleet => (0..CHURN_KEYS).map(|id| churn_input(seed, id)).collect(),
        _ => Vec::new(),
    };
    let started = Instant::now();
    let mut servers = Vec::new();
    for shard in 0..workload.shards() {
        let options = match workload {
            Workload::ChurnFleet => ServeOptions {
                workers: WORKERS,
                cache_bytes: CHURN_CACHE_BYTES,
                store_dir: Some(scratch.join(format!("setup{rep}-shard{shard}"))),
                replicas: CHURN_REPLICAS,
                ..ServeOptions::default()
            },
            Workload::ColdMix => ServeOptions {
                workers: WORKERS,
                cache_bytes: COLD_CACHE_BYTES,
                ..ServeOptions::default()
            },
            Workload::WarmRepeat => ServeOptions {
                workers: WORKERS,
                ..ServeOptions::default()
            },
        };
        servers.push(Server::bind(&options).map_err(|e| format!("bind: {e}"))?);
    }
    let peers: Vec<String> = servers
        .iter()
        .map(|s| s.local_addr().map(|a| a.to_string()))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("local addr: {e}"))?;
    let sharded = workload.shards() > 1;
    let handles = servers
        .into_iter()
        .enumerate()
        .map(|(id, mut server)| {
            if sharded {
                server
                    .set_shards(ShardSpec {
                        peers: peers.clone(),
                        id,
                        epoch: 0,
                    })
                    .expect("ring of distinct loopback addresses");
            }
            server.spawn()
        })
        .collect();
    let mut env = Env {
        workload,
        seed,
        handles,
        peers,
        warm,
        population,
        prefill: Vec::new(),
        setup_s: 0.0,
    };
    match workload {
        Workload::ColdMix => {}
        Workload::WarmRepeat => {
            let mut client = connect(&env.peers[0], false)?;
            for (id, input) in env.warm.iter().enumerate() {
                let (_, report) = client
                    .run_with(&input.spec, &mut policy(seed))
                    .map_err(|e| format!("prefill {}: {e}", input.label))?;
                env.prefill.push((id as u64, report));
            }
        }
        Workload::ChurnFleet => {
            let mut fleet = balancer(&env.peers, seed, false);
            for (id, input) in env.population.iter().enumerate() {
                let run = fleet
                    .run(&input.spec)
                    .map_err(|e| format!("prefill key {id}: {e}"))?;
                env.prefill.push((id as u64, run.report));
            }
            // replication is write-behind: set-up ends once every key
            // has its warm copy on the other shard
            settle_replication(&env, CHURN_KEYS)?;
        }
    }
    env.setup_s = started.elapsed().as_secs_f64();
    Ok(env)
}

/// Waits until the fleet has received at least `want` replicas and
/// every push sent has landed.
fn settle_replication(env: &Env, want: u64) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = env.stats();
        let sent: u64 = stats.iter().map(|s| s.replicas_sent).sum();
        let received: u64 = stats.iter().map(|s| s.replicas_received).sum();
        if received >= want && sent == received {
            return Ok(());
        }
        if Instant::now() > deadline {
            return Err(format!(
                "replication did not settle: {received} of {want} replicas received, {sent} sent"
            ));
        }
        thread::sleep(Duration::from_millis(2));
    }
}

/// Waits until replication pushes stop changing the fleet's counters
/// (the write-behind queue has drained).
pub fn drain_replication(env: &Env) {
    if env.workload.shards() < 2 {
        return;
    }
    let mut last = None;
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        let stats = env.stats();
        let now: (u64, u64, u64) = (
            stats.iter().map(|s| s.replicas_sent).sum(),
            stats.iter().map(|s| s.replicas_received).sum(),
            stats.iter().map(|s| s.replica_queue_drops).sum(),
        );
        if last == Some(now) && now.0 == now.1 {
            return;
        }
        last = Some(now);
        thread::sleep(Duration::from_millis(20));
    }
}

/// The request stream shared by every pass of a run: cold-mix input
/// ids and churn-fleet draws continue across passes, so no pass
/// resubmits another pass's never-seen inputs.
pub struct Stream {
    next_cold: AtomicU64,
    churn: Mutex<ChurnDraws>,
}

impl Stream {
    /// The stream of workload seed `seed`.
    pub fn new(seed: u64) -> Stream {
        Stream {
            next_cold: AtomicU64::new(0),
            churn: Mutex::new(ChurnDraws::new(seed)),
        }
    }
}

/// Per-client loop state.
enum Driver {
    Single {
        addr: String,
        client: Option<Client>,
        order: Vec<usize>,
    },
    Fleet(Box<Balancer>),
}

/// The timed closed loop: every client submits, waits for the report,
/// and submits again until `seconds` pass or `stop` is raised. Returns
/// the samples and the window's length (until the last client's final
/// report).
pub fn closed_loop(
    env: &Env,
    seconds: f64,
    tracing: bool,
    stream: &Stream,
    stop: &AtomicBool,
) -> (Vec<Sample>, f64) {
    // connections open before the window; a job only reconnects after
    // a failure
    let drivers: Vec<Driver> = match env.workload {
        Workload::ChurnFleet => {
            let mut fleet = balancer(&env.peers, env.seed, tracing);
            fleet.stats();
            vec![Driver::Fleet(Box::new(fleet))]
        }
        workload => (0..workload.clients())
            .map(|c| Driver::Single {
                addr: env.peers[0].clone(),
                client: connect(&env.peers[0], tracing).ok(),
                order: match workload {
                    // enough seeded rounds for any window
                    Workload::WarmRepeat => warm_order(env.seed, c, 1024),
                    _ => Vec::new(),
                },
            })
            .collect(),
    };
    let samples = Mutex::new(Vec::new());
    let window = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    thread::scope(|scope| {
        for (c, mut driver) in drivers.into_iter().enumerate() {
            let samples = &samples;
            scope.spawn(move || {
                let mut mine = Vec::new();
                let mut n = 0usize;
                while started.elapsed() < window && !stop.load(Ordering::Relaxed) {
                    mine.push(submit(env, &mut driver, c, n, tracing, stream));
                    n += 1;
                }
                samples.lock().expect("samples mutex").extend(mine);
            });
        }
    });
    let elapsed = started.elapsed().as_secs_f64();
    (samples.into_inner().expect("samples mutex"), elapsed)
}

/// One submission of one client.
fn submit(
    env: &Env,
    driver: &mut Driver,
    c: usize,
    n: usize,
    tracing: bool,
    stream: &Stream,
) -> Sample {
    match driver {
        Driver::Single {
            addr,
            client,
            order,
        } => {
            let id = match env.workload {
                Workload::WarmRepeat => order[n % order.len()] as u64,
                _ => stream.next_cold.fetch_add(1, Ordering::Relaxed),
            };
            let input = env.input(id);
            let seed = env.seed ^ ((c as u64) << 32) ^ n as u64;
            let t = Instant::now();
            let result = match client.take().map_or_else(|| connect(addr, tracing), Ok) {
                Ok(mut conn) => match conn.run_with(&input.spec, &mut policy(seed)) {
                    Ok((_, report)) => {
                        *client = Some(conn);
                        Ok(report)
                    }
                    // the connection is dropped: the next job reconnects
                    Err(e) => Err(e.to_string()),
                },
                Err(e) => Err(e),
            };
            Sample {
                id,
                latency_us: t.elapsed().as_secs_f64() * 1e6,
                result,
                owner_first: false,
                failovers: 0,
            }
        }
        Driver::Fleet(balancer) => {
            let id = stream
                .churn
                .lock()
                .expect("draws mutex")
                .next()
                .expect("endless draws");
            let input = env.input(id);
            let t = Instant::now();
            let result = balancer.run(&input.spec);
            let latency_us = t.elapsed().as_secs_f64() * 1e6;
            match result {
                Ok(run) => Sample {
                    id,
                    latency_us,
                    owner_first: run.failovers == 0
                        && run.shard == balancer.ring().owner(ss_server::cache_key(&input.spec)),
                    failovers: run.failovers,
                    result: Ok(run.report),
                },
                Err(e) => Sample {
                    id,
                    latency_us,
                    result: Err(e.to_string()),
                    owner_first: false,
                    failovers: 0,
                },
            }
        }
    }
}

/// Maps `f` over `items` on `threads` scoped threads, keeping order.
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicU64::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                if i >= items.len() {
                    return;
                }
                let r = f(&items[i]);
                out.lock().expect("par_map mutex")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("par_map mutex")
        .into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

/// Reference runs for every id in `ids`.
pub fn references(env: &Env, ids: &BTreeSet<u64>) -> HashMap<u64, Result<Reference, String>> {
    let ids: Vec<u64> = ids.iter().copied().collect();
    let refs = par_map(&ids, REFERENCE_THREADS, |&id| reference(&env.input(id)));
    ids.into_iter().zip(refs).collect()
}

/// What [`verify`] found.
pub struct Verified {
    /// Reference runs by input id.
    pub refs: HashMap<u64, Result<Reference, String>>,
    /// Per sample: whether its reply checked out.
    pub ok: Vec<bool>,
}

/// Checks every sample and prefill reply against its reference,
/// counting attempts and failures into `out`.
pub fn verify(env: &Env, samples: &[Sample], out: &mut Outcome) -> Verified {
    let ids: BTreeSet<u64> = samples
        .iter()
        .map(|s| s.id)
        .chain(env.prefill.iter().map(|(id, _)| *id))
        .chain(env.fixed_list())
        .collect();
    let refs = references(env, &ids);
    let check = |id: u64, report: &JobReport| match &refs[&id] {
        Ok(want) => check_reply(report, want),
        Err(e) => Err(format!("reference run failed: {e}")),
    };
    for (id, report) in &env.prefill {
        out.attempted += 1;
        if let Err(e) = check(*id, report) {
            out.fail(format!("prefill input {id}: {e}"));
        }
    }
    let mut ok = Vec::with_capacity(samples.len());
    for s in samples {
        out.attempted += 1;
        let checked = s.result.clone().and_then(|r| check(s.id, &r));
        ok.push(checked.is_ok());
        if let Err(e) = checked {
            out.fail(format!("input {id}: {e}", id = s.id));
        }
    }
    Verified { refs, ok }
}

/// Serves the nine golden inputs on a fresh server and checks them
/// against the corpus rows.
pub fn golden(out: &mut Outcome) {
    let served = (|| -> Result<Vec<(&'static str, JobReport)>, String> {
        let handle = Server::bind(&ServeOptions {
            workers: WORKERS,
            ..ServeOptions::default()
        })
        .map_err(|e| format!("bind: {e}"))?
        .spawn();
        let mut client = connect(&handle.addr().to_string(), false)?;
        let replies = golden_inputs()
            .into_iter()
            .map(|input| {
                client
                    .run_with(&input.spec, &mut policy(0))
                    .map(|(_, r)| (input.label, r))
                    .map_err(|e| format!("golden {}: {e}", input.label))
            })
            .collect();
        handle.shutdown();
        replies
    })();
    out.attempted += 9;
    match served.and_then(|replies| check_golden(&replies)) {
        Ok(()) => {}
        Err(e) => out.fail(format!("golden corpus: {e}")),
    }
}

/// The served reply of every fixed-list id: from the prefill, from the
/// window, or (when the window never reached it) served now, untimed.
fn fixed_replies(env: &Env, samples: &[Sample], out: &mut Outcome) -> Vec<JobReport> {
    let mut served: HashMap<u64, JobReport> = HashMap::new();
    let window = samples
        .iter()
        .filter_map(|s| s.result.as_ref().ok().map(|r| (s.id, r)));
    for (id, report) in env.prefill.iter().map(|(id, r)| (*id, r)).chain(window) {
        served.entry(id).or_insert(*report);
    }
    let mut replies = Vec::new();
    for id in env.fixed_list() {
        if let Some(report) = served.get(&id) {
            replies.push(*report);
            continue;
        }
        out.attempted += 1;
        let input = env.input(id);
        let reply = connect(&env.peers[0], false).and_then(|mut c| {
            c.run_with(&input.spec, &mut policy(id))
                .map_err(|e| e.to_string())
        });
        match reply.and_then(|(_, r)| {
            reference(&input).and_then(|want| check_reply(&r, &want))?;
            Ok(r)
        }) {
            Ok(r) => replies.push(r),
            Err(e) => out.fail(format!("fixed-list input {id}: {e}")),
        }
    }
    replies
}

/// Linear-interpolated quantile of unsorted values (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set of this process in MB (`VmHWM`), 0 when the
/// platform does not expose it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-ups per untraced run (their median is `setup_s`).
fn setup_reps(workload: Workload) -> usize {
    match workload {
        Workload::ColdMix => 25,
        Workload::WarmRepeat | Workload::ChurnFleet => 3,
    }
}

/// Sets up `reps` times, keeping the last environment and every
/// set-up time.
fn setup_repeated(args: &Args, scratch: &Path, reps: usize) -> Result<(Env, Vec<f64>), String> {
    let mut times = Vec::new();
    let mut env = None;
    for rep in 0..reps {
        if let Some(old) = env.take() {
            Env::shutdown(old);
        }
        let fresh = setup(args.workload, args.seed, scratch, rep)?;
        times.push(fresh.setup_s);
        env = Some(fresh);
    }
    Ok((env.expect("at least one set-up"), times))
}

/// The context every result is stamped with.
pub fn stamp(args: &Args, env: &Env, out: &mut Outcome) {
    let fixed: Vec<Input> = env
        .fixed_list()
        .into_iter()
        .map(|id| env.input(id))
        .collect();
    let cubes: usize = fixed.iter().map(|i| i.set.len()).sum();
    let bytes: usize = fixed.iter().map(|i| i.spec.set_text.len()).sum();
    let parallelism = thread::available_parallelism().map_or(0, |n| n.get());
    for (k, v) in [
        ("workload", args.workload.name().to_string()),
        ("seed", args.seed.to_string()),
        ("held_out_seed", HELD_OUT_SEED.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("available_parallelism", parallelism.to_string()),
        ("clients", args.workload.clients().to_string()),
        ("workers_per_shard", WORKERS.to_string()),
        ("shards", args.workload.shards().to_string()),
        ("fixed_inputs", fixed.len().to_string()),
        ("fixed_input_cubes", cubes.to_string()),
        ("fixed_input_bytes", bytes.to_string()),
        ("commit", commit()),
    ] {
        out.stamp.push((k.to_string(), v));
    }
}

/// The checked-out commit, read from `.git` in the working directory
/// ("unknown" outside a git checkout).
pub fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(reference) {
        return hash.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one workload end to end and returns its outcome.
pub fn run(args: &Args) -> Outcome {
    let scratch = Scratch::new();
    let mut out = Outcome::default();
    if args.trace {
        crate::trace::run_traced(args, &scratch, &mut out);
    } else {
        run_untraced(args, &scratch, &mut out);
    }
    out
}

fn run_untraced(args: &Args, scratch: &Scratch, out: &mut Outcome) {
    let (env, setups) = match setup_repeated(args, scratch.path(), setup_reps(args.workload)) {
        Ok(done) => done,
        Err(e) => {
            out.fail(format!("set-up: {e}"));
            return;
        }
    };
    stamp(args, &env, out);
    let stream = Stream::new(args.seed);
    let no_stop = AtomicBool::new(false);
    let (samples, elapsed) = closed_loop(&env, args.seconds, false, &stream, &no_stop);
    let peak = peak_rss_mb();
    drain_replication(&env);
    let verified = verify(&env, &samples, out);
    let fixed = fixed_replies(&env, &samples, out);
    let labels: Vec<&str> = samples.iter().map(|s| env.label(s.id)).collect();
    env.shutdown();
    if args.workload == Workload::WarmRepeat {
        golden(out);
    }

    // failed jobs count in `failed`, never in latency or rate
    let ok: Vec<f64> = samples
        .iter()
        .zip(&verified.ok)
        .filter(|(_, ok)| **ok)
        .map(|(s, _)| s.latency_us / 1e3)
        .collect();
    let n = ok.len() as u64;
    let mut by_label: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for ((s, ok), label) in samples.iter().zip(&verified.ok).zip(&labels) {
        if *ok {
            by_label.entry(label).or_default().push(s.latency_us / 1e3);
        }
    }
    for (label, lat) in by_label {
        out.notes.push(format!(
            "latency {label:<10} n={:<6} p50 {:>9.3} ms  p90 {:>9.3} ms",
            lat.len(),
            quantile(&lat, 0.5),
            quantile(&lat, 0.9)
        ));
    }
    out.put("latency_p50_ms", quantile(&ok, 0.5), n);
    out.put("latency_p90_ms", quantile(&ok, 0.9), n);
    out.put("jobs_per_s", n as f64 / elapsed, samples.len() as u64);
    out.put("setup_s", quantile(&setups, 0.5), setups.len() as u64);
    out.put("peak_rss_mb", peak, 1);
    out.put(
        "tdv_bits",
        fixed.iter().map(|r| r.tdv as f64).sum(),
        fixed.len() as u64,
    );
    out.put(
        "tsl_vectors",
        fixed.iter().map(|r| r.tsl_proposed as f64).sum(),
        fixed.len() as u64,
    );
}
