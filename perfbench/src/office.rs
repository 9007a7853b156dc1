//! `office`: one pen per generator thread, each replaying a seeded
//! AwarePen session as single-window `Classify` requests to the default
//! tenant. A paced open-loop phase gives the latencies and the SLO share;
//! a closed-loop phase gives the throughput.

use std::time::{Duration, Instant};

use cqm_core::pipeline::QualifiedClassification;
use cqm_serve::{CqmClient, Engine, ServedModel};

use crate::probe;
use crate::rig::{self, Live, Phase, Result, Session, Verdict};
use crate::trace::Tracer;
use crate::{Ctx, Measured, Probed, Workload};

/// Offered rate of the paced phase, across all pens: about an eighth of
/// the closed-loop capacity on two cores, so the queue stays short even
/// when a shared host takes a fifth of the CPU away.
pub const OFFERED_RPS: f64 = 4000.0;

/// Share of the measured time spent in the paced phase.
const PACED_SHARE: f64 = 0.5;

pub struct Office {
    model: ServedModel,
    sessions: Vec<Session>,
    expected: Vec<Vec<QualifiedClassification>>,
    engine: Engine,
    slo_us: f64,
    live: Option<Live>,
}

pub fn setup(ctx: &Ctx, tr: &mut Tracer, parent: u64) -> Result<Office> {
    let model = rig::train_model(tr, parent)?;
    let engine = Engine::new(&model)?;
    let gen = tr.open("inputs.generate", parent, 0);
    let sessions = (0..ctx.gens)
        .map(|p| rig::pen_session(ctx.seed, p))
        .collect::<Result<Vec<_>>>()?;
    let expected = sessions
        .iter()
        .map(|s| rig::expected(&engine, &s.cues))
        .collect::<Result<Vec<_>>>()?;
    tr.close(gen);
    Ok(Office {
        model,
        sessions,
        expected,
        engine,
        slo_us: ctx.slo_us,
        live: None,
    })
}

fn classify(
    client: &mut CqmClient,
    session: &Session,
    expected: &[QualifiedClassification],
    k: u64,
) -> std::result::Result<Verdict, cqm_serve::ServeError> {
    let i = (k as usize) % session.cues.len();
    let got = client.classify(&session.cues[i])?;
    Ok(if rig::identical(&got, &expected[i]) {
        Verdict::Match
    } else {
        Verdict::Mismatch
    })
}

/// Sleep until `due`. The generator threads run with a 1 µs timer
/// slack, so a sleep ends within microseconds of its due time without
/// spinning on the cores the server needs.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Lower the calling thread's timer slack from the default 50 µs to 1 µs.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    use std::os::raw::{c_int, c_ulong};
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    const PR_SET_TIMERSLACK: c_int = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only sets
    // the calling thread's timer slack; no memory is passed or read.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1_000 as c_ulong);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

impl Office {
    /// Open loop: pen `p` sends its `k`-th window at a fixed due time,
    /// whether or not earlier answers have arrived, and each latency runs
    /// from the due time.
    fn paced(
        clients: &mut [CqmClient],
        sessions: &[Session],
        expected: &[Vec<QualifiedClassification>],
        slo_us: f64,
        budget: Duration,
        tr: &mut Tracer,
        parent: u64,
    ) -> Phase {
        let pens = clients.len();
        let interval = Duration::from_secs_f64(pens as f64 / OFFERED_RPS);
        // Lead time for the pen threads to start before the first request
        // is due, so thread start-up does not back up the schedule.
        let start = Instant::now() + Duration::from_millis(20);
        let end = start + budget;
        let forks: Vec<Tracer> = (0..pens).map(|p| tr.fork(p as u64 + 1)).collect();
        let results: Vec<(Phase, Tracer)> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(forks)
                .enumerate()
                .map(|(p, (client, mut ptr))| {
                    let offset = interval.mul_f64(p as f64 / pens as f64);
                    scope.spawn(move || {
                        tighten_timer_slack();
                        let mut tally = Phase::new("paced", "open", 1);
                        for k in 0u64.. {
                            let due = start + offset + interval.mul_f64(k as f64);
                            if due >= end {
                                break;
                            }
                            wait_until(due);
                            let sent = Instant::now();
                            tally.lag_us.push((sent - due).as_secs_f64() * 1e6);
                            let req = ((p as u64 + 1) << 32) | k;
                            let span = ptr.open("client.call", parent, req);
                            let outcome = classify(client, &sessions[p], &expected[p], k);
                            let done = Instant::now();
                            ptr.close(span);
                            tally.retries += u64::from(client.last_attempts().saturating_sub(1));
                            tally.record(
                                outcome,
                                (done - due).as_secs_f64() * 1e6,
                                (done - start).as_secs_f64(),
                                1,
                                slo_us,
                            );
                        }
                        (tally, ptr)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("paced generator thread panicked"))
                .collect()
        });
        let mut phase = Phase::new("paced", "open", pens);
        phase.offered_rps = Some(OFFERED_RPS);
        phase.elapsed_s = budget.as_secs_f64();
        for (tally, ptr) in results {
            phase.merge(tally);
            tr.absorb(ptr);
        }
        phase
    }
}

impl Workload for Office {
    fn start(&mut self, ctx: &Ctx, tr: &mut Tracer, parent: u64) -> Result<()> {
        let server = rig::start_server(tr, parent, self.model.clone(), rig::server_config())?;
        let mut clients = (0..ctx.gens)
            .map(|p| {
                rig::connect(
                    tr,
                    parent,
                    server.local_addr(),
                    rig::mix(ctx.seed, 100 + p as u64),
                )
            })
            .collect::<Result<Vec<_>>>()?;
        let (sessions, expected) = (&self.sessions, &self.expected);
        tr.time("warmup", parent, || {
            rig::warm_up(&mut clients, rig::WARMUP_REQUESTS, &|client, c, k| {
                classify(client, &sessions[c], &expected[c], k)
            })
        })?;
        self.live = Some(Live {
            server,
            clients,
            store: None,
        });
        Ok(())
    }

    fn measure(&mut self, budget: Duration, tr: &mut Tracer, parent: u64) -> Result<Measured> {
        let Office {
            sessions,
            expected,
            slo_us,
            live,
            ..
        } = self;
        let clients = &mut live.as_mut().ok_or("no server is running")?.clients;
        let span = tr.open("phase.paced", parent, 0);
        let paced = Office::paced(
            clients,
            sessions,
            expected,
            *slo_us,
            budget.mul_f64(PACED_SHARE),
            tr,
            span.id(),
        );
        tr.close(span);
        let span = tr.open("phase.closed", parent, 0);
        let closed = rig::closed_loop(
            clients,
            budget.mul_f64(1.0 - PACED_SHARE),
            tr,
            span.id(),
            1,
            &|client, c, k| classify(client, &sessions[c], &expected[c], k),
            |_, _| {},
        );
        tr.close(span);
        Ok(Measured {
            phases: vec![paced, closed],
            latency_phase: 0,
            throughput_phase: 1,
            ..Measured::default()
        })
    }

    fn probe(&mut self, tr: &mut Tracer, parent: u64) -> Result<Probed> {
        let session = &self.sessions[0];
        let (requests, responses) = probe::classify_messages(
            session
                .cues
                .iter()
                .zip(&self.expected[0])
                .map(|(cues, answer)| (None, cues.as_slice(), *answer)),
        );
        let frames = probe::codec(tr, parent, &requests, &responses)?;
        probe::kernel(tr, parent, &self.engine, &session.cues, &self.expected[0])?;
        Ok(Probed {
            frames,
            rows_per_request: 1,
            ckpt_bytes: 0,
        })
    }

    fn live(&self) -> Option<&Live> {
        self.live.as_ref()
    }

    fn take_live(&mut self) -> Option<Live> {
        self.live.take()
    }
}
