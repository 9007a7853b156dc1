//! The CQM service benchmark.
//!
//! Starts an in-process `CqmServer` with the trained AwarePen model and
//! drives it over loopback TCP through the public `cqm-serve` client:
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload office --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Every served answer is compared bit for bit with the in-process
//! `Engine` on the same model. The last line of standard output is one
//! JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The process exits non-zero on any wrong
//! answer or broken invariant. See `perfbench/README.md` for the metric
//! map and why each workload exists.

mod batch;
mod drift;
mod fleet;
mod office;
mod probe;
mod report;
mod rig;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cqm_serve::ServerHealth;

use crate::probe::FrameBytes;
use crate::rig::{Live, Phase, Result};
use crate::trace::Tracer;

/// Rounds per run. Each round sets the workload up afresh: trains the
/// model, generates the inputs and starts a server. `setup_s` is the
/// median of these set-ups.
const ROUNDS: usize = 5;

/// Servers each round starts and measures in turn, each for an equal
/// share of `--seconds`. A fresh server samples another thread placement,
/// which on a small VM moves latency more than anything else between
/// processes.
const SERVERS: usize = 8;

/// Where results, spans and scratch checkpoints go, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = "perfbench/out";

pub const WORKLOADS: [&str; 4] = ["office", "batch", "fleet", "drift"];

/// What every workload is given.
pub struct Ctx {
    pub seed: u64,
    /// Generator threads and connections: `available_parallelism`, at most 4.
    pub gens: usize,
    /// The `office` latency limit, in microseconds.
    pub slo_us: f64,
    /// Scratch directory for checkpoint stores.
    pub work_dir: PathBuf,
}

/// What one measurement pass produced.
#[derive(Default)]
pub struct Measured {
    pub phases: Vec<Phase>,
    /// Phase whose latencies are reported.
    pub latency_phase: usize,
    /// Phase whose throughput is reported.
    pub throughput_phase: usize,
    /// Requests routed to a named (non-default) tenant.
    pub tenant_requests: u64,
    /// Shift onset to promotion, per drift episode.
    pub recover_ms: Vec<f64>,
    /// Observations from shift onset to confirmed drift, per episode.
    pub detect_obs: Vec<f64>,
    pub retrains: u64,
    pub promotions: u64,
    pub rejections: u64,
}

impl Measured {
    fn attempted(&self) -> u64 {
        self.phases.iter().map(|p| p.sent).sum()
    }

    fn failed(&self) -> u64 {
        self.phases.iter().map(Phase::failed).sum()
    }

    fn mismatched(&self) -> u64 {
        self.phases.iter().map(|p| p.mismatched).sum()
    }

    fn latency(&self) -> &Phase {
        &self.phases[self.latency_phase]
    }

    fn throughput(&self) -> &Phase {
        &self.phases[self.throughput_phase]
    }
}

/// What the traced run's layer probes found.
pub struct Probed {
    pub frames: FrameBytes,
    /// Cue rows in one request of the workload.
    pub rows_per_request: usize,
    pub ckpt_bytes: u64,
}

/// A workload with its model trained and its inputs generated.
pub trait Workload {
    /// Start a server on the prepared inputs, connect and warm up.
    fn start(&mut self, ctx: &Ctx, tr: &mut Tracer, parent: u64) -> Result<()>;
    fn measure(&mut self, budget: Duration, tr: &mut Tracer, parent: u64) -> Result<Measured>;
    fn probe(&mut self, tr: &mut Tracer, parent: u64) -> Result<Probed>;
    /// The running server and its clients.
    fn live(&self) -> Option<&Live>;
    fn take_live(&mut self) -> Option<Live>;

    fn health(&self) -> Result<ServerHealth> {
        Ok(self.live().ok_or("no server is running")?.server.health())
    }

    /// Stop the running server; returns its final health.
    fn stop(&mut self) -> Result<ServerHealth> {
        self.take_live().ok_or("no server is running")?.stop()
    }
}

fn setup(
    name: &str,
    ctx: &Ctx,
    round: usize,
    tr: &mut Tracer,
    parent: u64,
) -> Result<Box<dyn Workload>> {
    Ok(match name {
        "office" => Box::new(office::setup(ctx, tr, parent)?),
        "batch" => Box::new(batch::setup(ctx, tr, parent)?),
        "fleet" => Box::new(fleet::setup(ctx, tr, parent)?),
        "drift" => Box::new(drift::setup(ctx, round, tr, parent)?),
        other => return Err(format!("unknown workload {other:?}").into()),
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <office|batch|fleet|drift> --seed <n> \
                     --seconds <n> --trace <0|1>";

fn parse_args(raw: &[String]) -> std::result::Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} is missing its value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return Err(format!("bad flag or value: {flag} {value}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed <n> is required")?,
        seconds: seconds.ok_or("--seconds <n> (n > 0) is required")?,
        trace: trace.ok_or("--trace <0|1> is required")?,
    })
}

/// The `office` latency limit, fixed once in `BENCHMARK.json` as the
/// words `latency limit <n> us` in the office workload's `why`.
fn slo_limit_us() -> Result<f64> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json from the working directory: {e}"))?;
    let rest = text
        .split("latency limit ")
        .nth(1)
        .ok_or("BENCHMARK.json states no `latency limit <n> us`")?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    if !rest[digits.len()..].starts_with(" us") {
        return Err("BENCHMARK.json latency limit is not in `us`".into());
    }
    Ok(digits.parse::<f64>()?)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// One server's share of a run.
pub struct Round {
    /// Full set-up time, for the first server of each round.
    pub setup_s: Option<f64>,
    pub untraced: Measured,
    /// The traced pass of a `--trace 1` run.
    pub traced: Option<Measured>,
    /// Server health before and after the measured passes.
    pub before: ServerHealth,
    pub after: ServerHealth,
    /// Health returned by the server's shutdown.
    pub last: ServerHealth,
    /// Share of the VM's CPU the host stole while this server was
    /// measured.
    pub steal_share: f64,
    /// Whether the end-to-end figures use this server: the half of the
    /// run's servers the host stole least from.
    pub kept: bool,
}

/// Run `ROUNDS` × `SERVERS` measured servers, probe the layers at the end
/// of the last traced one, and report. Returns whether every answer was
/// right and every invariant held.
fn run(args: &Args) -> Result<bool> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let out_dir = PathBuf::from(OUT_DIR);
    let ctx = Ctx {
        seed: args.seed,
        gens: nproc.clamp(1, 4),
        slo_us: slo_limit_us()?,
        work_dir: out_dir.join(format!("work-{}", std::process::id())),
    };
    std::fs::create_dir_all(&ctx.work_dir)?;
    let mut tr = Tracer::new(args.trace, Instant::now());
    let share = Duration::from_secs_f64(args.seconds / (ROUNDS * SERVERS) as f64);

    let mut rounds = Vec::with_capacity(ROUNDS * SERVERS);
    let mut probed = None;
    for r in 0..ROUNDS {
        tr.set_enabled(args.trace);
        let span = tr.open("setup", 0, 0);
        let t0 = Instant::now();
        let mut w = setup(&args.workload, &ctx, r, &mut tr, span.id())?;
        w.start(&ctx, &mut tr, span.id())?;
        let mut setup_s = Some(t0.elapsed().as_secs_f64());
        tr.close(span);
        for s in 0..SERVERS {
            if s > 0 {
                let span = tr.open("restart", 0, 0);
                w.start(&ctx, &mut tr, span.id())?;
                tr.close(span);
            }
            let before = w.health()?;
            let (steal0, t0) = (rig::steal_seconds()?, Instant::now());
            let (untraced, traced) = if args.trace {
                tr.set_enabled(false);
                let untraced = w.measure(share / 2, &mut tr, 0)?;
                tr.set_enabled(true);
                let span = tr.open("measure", 0, 0);
                let traced = w.measure(share / 2, &mut tr, span.id())?;
                tr.close(span);
                (untraced, Some(traced))
            } else {
                (w.measure(share, &mut tr, 0)?, None)
            };
            let after = w.health()?;
            let steal_share =
                (rig::steal_seconds()? - steal0) / (t0.elapsed().as_secs_f64() * nproc as f64);
            if args.trace && r + 1 == ROUNDS && s + 1 == SERVERS {
                let span = tr.open("probe", 0, 0);
                probed = Some(w.probe(&mut tr, span.id())?);
                tr.close(span);
            }
            let last = w.stop()?;
            rounds.push(Round {
                setup_s: setup_s.take(),
                untraced,
                traced,
                before,
                after,
                last,
                steal_share,
                kept: false,
            });
        }
    }
    let mut by_steal: Vec<usize> = (0..rounds.len()).collect();
    by_steal.sort_by(|&a, &b| rounds[a].steal_share.total_cmp(&rounds[b].steal_share));
    for &i in &by_steal[..rounds.len() / 2] {
        rounds[i].kept = true;
    }
    std::fs::remove_dir_all(&ctx.work_dir)?;

    let report = report::Report {
        args,
        nproc,
        ctx: &ctx,
        rounds: &rounds,
        probed: probed.as_ref(),
        spans: tr.spans(),
        rss_mb: rig::peak_rss_mb()?,
    };
    report.emit(&out_dir)
}
