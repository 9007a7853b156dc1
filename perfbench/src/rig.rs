//! Set-up pieces every workload shares: the trained pen model, seeded
//! sensor sessions, the server, the clients and the bit-identity check.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cqm_appliance::pen::train_pen;
use cqm_core::model::CqmModel;
use cqm_core::pipeline::QualifiedClassification;
use cqm_core::Quality;
use cqm_sensors::node::NodeConfig;
use cqm_sensors::user::UserStyle;
use cqm_sensors::{Scenario, SensorNode};
use cqm_serve::{
    ClientConfig, CqmClient, CqmServer, Engine, EngineScratch, ModelSource, ServeError,
    ServedModel, ServerConfig, ServerHealth,
};

use crate::trace::Tracer;

pub type Error = Box<dyn std::error::Error + Send + Sync>;
pub type Result<T> = std::result::Result<T, Error>;

/// Seed of the pen training corpus. The model is the program under test,
/// so it stays fixed; `--seed` varies only the traffic.
pub const TRAIN_SEED: u64 = 2026;

/// Server worker threads.
pub const WORKERS: usize = 2;

/// Requests each connection sends before timing starts.
pub const WARMUP_REQUESTS: usize = 300;

/// SplitMix64 step: derives independent seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small seeded generator for traffic choices (tenant picks).
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(mix(seed, 0x5EED))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Train the AwarePen stack and wrap it as a served model.
pub fn train_model(tr: &mut Tracer, parent: u64) -> Result<ServedModel> {
    let build = tr.time("train.pen", parent, || train_pen(TRAIN_SEED, 1))?;
    Ok(ServedModel::new(
        build.classifier.clone(),
        CqmModel::from_trained(&build.trained_cqm, "perfbench pen"),
    )?)
}

/// One seeded AwarePen session: `balanced_session` then
/// `write_think_write`, sensed by a node with its own seed and user style.
pub struct Session {
    pub cues: Vec<Vec<f64>>,
}

pub fn pen_session(seed: u64, pen: usize) -> Result<Session> {
    let styles = UserStyle::population();
    let style = styles[pen % styles.len()];
    let mut node = SensorNode::new(NodeConfig::default(), style, mix(seed, pen as u64 + 1))?;
    let scenario = Scenario::balanced_session()?.then(&Scenario::write_think_write()?);
    let windows = node.run_scenario(&scenario)?;
    Ok(Session {
        cues: windows.into_iter().map(|w| w.cues).collect(),
    })
}

/// The in-process answers the served ones must match bit for bit.
pub fn expected(engine: &Engine, cues: &[Vec<f64>]) -> Result<Vec<QualifiedClassification>> {
    let mut scratch = EngineScratch::new();
    cues.iter()
        .map(|c| Ok(engine.classify_one(c, &mut scratch)?))
        .collect()
}

/// Same class, same decision, and the same quality bits (or ε on both
/// sides).
pub fn identical(a: &QualifiedClassification, b: &QualifiedClassification) -> bool {
    let quality_same = match (a.quality, b.quality) {
        (Quality::Value(x), Quality::Value(y)) => x.to_bits() == y.to_bits(),
        (Quality::Epsilon, Quality::Epsilon) => true,
        _ => false,
    };
    a.class == b.class && quality_same && a.decision == b.decision
}

pub fn start_server(
    tr: &mut Tracer,
    parent: u64,
    model: ServedModel,
    config: ServerConfig,
) -> Result<CqmServer> {
    let server = tr.time("server.start", parent, || {
        CqmServer::start(ModelSource::Fresh(model), config)
    })?;
    Ok(server)
}

pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    }
}

/// Client settings: overload answers (a tenant mid warm-load) are retried
/// after a short seeded backoff, so a retry costs tens of microseconds,
/// not the default 10 ms, and enough times to outlast a warm-load slowed
/// by a host stall; the call deadline still bounds the whole call.
pub fn client_config(seed: u64) -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_secs(5),
        io_timeout: Duration::from_secs(10),
        retries: 100,
        backoff_base: Duration::from_micros(50),
        backoff_cap: Duration::from_millis(2),
        call_deadline: Duration::from_secs(30),
        retry_transport: true,
        session_id: None,
        seed,
    }
}

pub fn connect(tr: &mut Tracer, parent: u64, addr: SocketAddr, seed: u64) -> Result<CqmClient> {
    let client = tr.time("client.connect", parent, || {
        CqmClient::connect(addr, client_config(seed))
    })?;
    Ok(client)
}

/// A running server with its connected clients.
pub struct Live {
    pub server: CqmServer,
    pub clients: Vec<CqmClient>,
    /// The server's checkpoint store, removed when it stops.
    pub store: Option<PathBuf>,
}

impl Live {
    pub fn stop(self) -> Result<ServerHealth> {
        drop(self.clients);
        let health = self.server.shutdown()?;
        if let Some(store) = self.store {
            std::fs::remove_dir_all(store)?;
        }
        Ok(health)
    }
}

/// A fresh checkpoint-store directory under the run's work directory.
pub fn new_store(work_dir: &Path) -> Result<PathBuf> {
    static STORES: AtomicU64 = AtomicU64::new(0);
    let dir = work_dir.join(format!("store-{}", STORES.fetch_add(1, Ordering::Relaxed)));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Outcome of one request as the benchmark scores it.
pub enum Verdict {
    /// Answered, bit-identical to the in-process answer.
    Match,
    /// Answered, but not bit-identical: a wrong answer.
    Mismatch,
}

/// Tally of one measured phase.
#[derive(Debug, Default)]
pub struct Phase {
    pub name: &'static str,
    /// `open` (paced) or `closed`.
    pub shape: &'static str,
    pub conns: usize,
    /// Offered rate of an open-loop phase.
    pub offered_rps: Option<f64>,
    pub sent: u64,
    pub ok: u64,
    /// Typed errors and exhausted retries.
    pub errors: u64,
    /// Answers that were not bit-identical.
    pub mismatched: u64,
    pub rows: u64,
    pub retries: u64,
    pub elapsed_s: f64,
    /// Process CPU time spent during the phase, in seconds.
    pub cpu_s: f64,
    /// Round trips in microseconds (open loop: from each due time).
    pub latencies_us: Vec<f64>,
    /// When each of those requests completed, in seconds since the
    /// phase started.
    pub done_s: Vec<f64>,
    /// How late each open-loop request was sent, in microseconds.
    pub lag_us: Vec<f64>,
    /// Requests answered correctly within the latency limit.
    pub within_slo: u64,
    pub first_error: Option<String>,
}

impl Phase {
    pub fn new(name: &'static str, shape: &'static str, conns: usize) -> Self {
        Phase {
            name,
            shape,
            conns,
            ..Phase::default()
        }
    }

    pub fn failed(&self) -> u64 {
        self.errors + self.mismatched
    }

    /// Fold one request's outcome in.
    pub fn record(
        &mut self,
        outcome: std::result::Result<Verdict, ServeError>,
        latency_us: f64,
        done_s: f64,
        rows: u64,
        slo_us: f64,
    ) {
        self.sent += 1;
        match outcome {
            Ok(Verdict::Match) => {
                self.ok += 1;
                self.rows += rows;
                self.latencies_us.push(latency_us);
                self.done_s.push(done_s);
                if latency_us <= slo_us {
                    self.within_slo += 1;
                }
            }
            Ok(Verdict::Mismatch) => {
                self.mismatched += 1;
            }
            Err(e) => {
                self.errors += 1;
                if self.first_error.is_none() {
                    self.first_error = Some(e.to_string());
                }
            }
        }
    }

    pub fn merge(&mut self, other: Phase) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.errors += other.errors;
        self.mismatched += other.mismatched;
        self.rows += other.rows;
        self.retries += other.retries;
        self.within_slo += other.within_slo;
        self.latencies_us.extend(other.latencies_us);
        self.done_s.extend(other.done_s);
        self.lag_us.extend(other.lag_us);
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
    }

    pub fn req_per_s(&self) -> f64 {
        self.ok as f64 / self.elapsed_s.max(f64::MIN_POSITIVE)
    }
}

/// Run `call(client, conn, k)` back to back on every client until
/// `budget` runs out, one thread per client. Every call is a
/// `client.call` span under `parent`; `alongside` runs on the calling
/// thread meanwhile (the fleet's swaps).
pub fn closed_loop<F>(
    clients: &mut [CqmClient],
    budget: Duration,
    tr: &mut Tracer,
    parent: u64,
    rows_per_call: u64,
    call: &F,
    alongside: impl FnOnce(Instant, &mut Tracer),
) -> Phase
where
    F: Fn(&mut CqmClient, usize, u64) -> std::result::Result<Verdict, ServeError> + Sync,
{
    let cpu0 = cpu_seconds().unwrap_or(f64::NAN);
    let start = Instant::now();
    let deadline = start + budget;
    let mut phase = Phase::new("closed", "closed", clients.len());
    let forks: Vec<Tracer> = (0..clients.len()).map(|c| tr.fork(c as u64 + 1)).collect();
    let results: Vec<(Phase, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(forks)
            .enumerate()
            .map(|(c, (client, mut ctr))| {
                scope.spawn(move || {
                    let mut tally = Phase::new("closed", "closed", 1);
                    let mut k = 0u64;
                    while Instant::now() < deadline {
                        let req = ((c as u64 + 1) << 32) | k;
                        let span = ctr.open("client.call", parent, req);
                        let t0 = Instant::now();
                        let outcome = call(client, c, k);
                        let done = Instant::now();
                        ctr.close(span);
                        tally.retries += u64::from(client.last_attempts().saturating_sub(1));
                        tally.record(
                            outcome,
                            (done - t0).as_secs_f64() * 1e6,
                            (done - start).as_secs_f64(),
                            rows_per_call,
                            f64::INFINITY,
                        );
                        k += 1;
                    }
                    (tally, ctr)
                })
            })
            .collect();
        alongside(deadline, tr);
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop generator thread panicked"))
            .collect()
    });
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase.cpu_s = cpu_seconds().unwrap_or(f64::NAN) - cpu0;
    for (tally, ctr) in results {
        phase.merge(tally);
        tr.absorb(ctr);
    }
    phase
}

/// Send `warmup` requests per client before timing, so connections,
/// sessions and caches are live.
pub fn warm_up<F>(clients: &mut [CqmClient], warmup: usize, call: &F) -> Result<()>
where
    F: Fn(&mut CqmClient, usize, u64) -> std::result::Result<Verdict, ServeError> + Sync,
{
    for (c, client) in clients.iter_mut().enumerate() {
        for k in 0..warmup {
            if let Verdict::Mismatch = call(client, c, k as u64)? {
                return Err("warm-up answer differs from the in-process answer".into());
            }
        }
    }
    Ok(())
}

/// CPU time this process has used, all threads together, in seconds
/// (`utime + stime` from `/proc/self/stat`, in 100 Hz ticks). Time the
/// host steals from the VM is not charged to it.
pub fn cpu_seconds() -> Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    let after_comm = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = after_comm.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64> {
        Ok(fields
            .get(i)
            .ok_or("short /proc/self/stat")?
            .parse::<f64>()?)
    };
    // Fields 14 and 15 of the line; the state (field 3) is index 0 here.
    Ok((ticks(11)? + ticks(12)?) / 100.0)
}

/// CPU time the host has stolen from this VM, all vCPUs together, in
/// seconds (the `steal` column of `/proc/stat`, in 100 Hz ticks).
pub fn steal_seconds() -> Result<f64> {
    let stat = std::fs::read_to_string("/proc/stat")?;
    let cpu = stat.lines().next().ok_or("empty /proc/stat")?;
    // "cpu user nice system idle iowait irq softirq steal ..."
    let steal = cpu
        .split_whitespace()
        .nth(8)
        .ok_or("no steal column in /proc/stat")?;
    Ok(steal.parse::<f64>()? / 100.0)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("VmHWM missing from /proc/self/status")?;
    Ok(kb / 1024.0)
}
