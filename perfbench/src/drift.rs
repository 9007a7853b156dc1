//! `drift`: one pen per generator thread, each on a tenant of its own.
//! A pen's windows are served over the wire while the same labelled stream
//! feeds the pen's `AdaptationSupervisor`. Each seeded episode starts from
//! the trained model and replays a session of the pen's usual user; then
//! the context shifts. The shift is a cue-region shift, as in
//! `adaptbench`: traffic concentrates on windows the model answers with a
//! quality below its threshold although the class is right (the measure
//! is now miscalibrated there), interleaved with ordinary windows. The
//! supervisor must confirm the drift, retrain, validate and promote the
//! candidate through `swap_model`, retraining every `STEP_EVERY` windows
//! until one is promoted. A plain user-style change
//! (`SensorNode::set_style`) was tried first: with the pen model it either
//! raised no drift or produced candidates that never beat the live model,
//! so it cannot drive an episode on every seed. The only workload that
//! runs `cqm-adapt`.
//!
//! The pens run side by side, as `office`'s do, so the cores stay busy. A
//! single pen alternates between waiting for the wire and adapting, and
//! its rate then follows how fast the host wakes an idle vCPU.

use std::path::Path;
use std::time::{Duration, Instant};

use cqm_adapt::{AdaptationConfig, AdaptationOutcome, AdaptationSupervisor, DriftState};
use cqm_core::classifier::ClassId;
use cqm_core::pipeline::QualifiedClassification;
use cqm_core::Quality;
use cqm_sensors::node::NodeConfig;
use cqm_sensors::user::UserStyle;
use cqm_sensors::{Scenario, SensorNode};
use cqm_serve::{CqmClient, CqmServer, Engine, FleetConfig, ServeCheckpoint, ServedModel};

use crate::probe;
use crate::rig::{self, Live, Phase, Result, Verdict};
use crate::trace::Tracer;
use crate::{Ctx, Measured, Probed, Workload};

/// Most shifted windows an episode may take to promote a candidate.
const MAX_SHIFTED: usize = 2000;
/// Sessions sensed to find windows of the shifted region.
const REGION_SESSIONS: usize = 8;
/// Length of the shifted stream (cycled).
const SHIFTED_LEN: usize = 2000;
/// Windows between retrains once drift is confirmed. A retrain costs
/// about as much as twenty round trips, and most episodes promote their
/// first candidate; stepping on every window would let the few episodes
/// whose candidates keep losing (up to 40 retrains in a row) decide the
/// run's throughput.
const STEP_EVERY: usize = 8;
/// Stream sets drawn per round; a pen's episodes cycle through them.
const SETS: usize = 4;

/// A labelled window stream with the base model's answers.
#[derive(Default)]
struct Stream {
    cues: Vec<Vec<f64>>,
    truth: Vec<ClassId>,
    expected: Vec<QualifiedClassification>,
}

impl Stream {
    /// `sessions` AwarePen sessions sensed by `node`, with true labels.
    fn sensed(node: &mut SensorNode, sessions: usize, engine: &Engine) -> Result<Stream> {
        let scenario = Scenario::balanced_session()?.then(&Scenario::write_think_write()?);
        let mut out = Stream::default();
        for _ in 0..sessions {
            for w in node.run_scenario(&scenario)? {
                out.truth.push(ClassId(w.truth.index()));
                out.cues.push(w.cues);
            }
        }
        out.expected = rig::expected(engine, &out.cues)?;
        Ok(out)
    }

    fn push(&mut self, from: &Stream, i: usize, truth: ClassId) {
        self.cues.push(from.cues[i].clone());
        self.truth.push(truth);
        self.expected.push(from.expected[i]);
    }

    /// The shifted stream: windows the model discards with a real quality
    /// value, labelled with the class it gave (right after the shift),
    /// alternating with ordinary windows under their true labels.
    fn shifted(region: &Stream, ordinary: &Stream) -> Result<Stream> {
        let low: Vec<usize> = (0..region.cues.len())
            .filter(|&i| {
                let a = &region.expected[i];
                !a.decision.is_accept() && matches!(a.quality, Quality::Value(_))
            })
            .collect();
        if low.is_empty() {
            return Err("no discarded windows to build the shifted region from".into());
        }
        let mut out = Stream::default();
        for k in 0..SHIFTED_LEN {
            if k % 2 == 0 {
                let i = low[(k / 2) % low.len()];
                out.push(region, i, region.expected[i].class);
            } else {
                let i = (k / 2) % ordinary.cues.len();
                out.push(ordinary, i, ordinary.truth[i]);
            }
        }
        Ok(out)
    }
}

/// One seeded draw of a pen's traffic: a session of its usual user and
/// the shifted stream that follows.
struct Streams {
    usual: Stream,
    shifted: Stream,
}

impl Streams {
    fn sensed(seed: u64, engine: &Engine) -> Result<Streams> {
        let mut node = SensorNode::new(NodeConfig::default(), UserStyle::default(), seed)?;
        let usual = Stream::sensed(&mut node, 1, engine)?;
        let region = Stream::sensed(&mut node, REGION_SESSIONS, engine)?;
        let ordinary = Stream::sensed(&mut node, 2, engine)?;
        Ok(Streams {
            shifted: Stream::shifted(&region, &ordinary)?,
            usual,
        })
    }
}

/// One pen: its tenant and where its episodes stand.
struct Pen {
    tenant: String,
    /// Episodes this pen has run, over the whole run.
    episodes: u64,
    /// Whether the pen's tenant serves a promoted model, so the next
    /// episode has to reset it first.
    promoted: bool,
}

pub struct Drift {
    base: ServedModel,
    engine: Engine,
    sets: Vec<Streams>,
    pens: Vec<Pen>,
    seed: u64,
    live: Option<Live>,
}

/// Each round draws its own stream sets, so a run averages over
/// `ROUNDS × SETS` draws: how many candidates an episode needs before one
/// is promoted depends on the draw.
pub fn setup(ctx: &Ctx, round: usize, tr: &mut Tracer, parent: u64) -> Result<Drift> {
    let base = rig::train_model(tr, parent)?;
    let engine = Engine::new(&base)?;
    let gen = tr.open("inputs.generate", parent, 0);
    let sets = (0..SETS)
        .map(|s| {
            Streams::sensed(
                rig::mix(ctx.seed, 0xD21F7 + (round * SETS + s) as u64),
                &engine,
            )
        })
        .collect::<Result<Vec<_>>>()?;
    tr.close(gen);
    let pens = (0..ctx.gens)
        .map(|p| Pen {
            tenant: format!("pen-{p}"),
            episodes: 0,
            promoted: false,
        })
        .collect();
    Ok(Drift {
        base,
        engine,
        sets,
        pens,
        seed: ctx.seed,
        live: None,
    })
}

/// Serve window `i` of `stream` on `tenant` and check the answer.
fn serve(
    client: &mut CqmClient,
    tenant: &str,
    stream: &Stream,
    i: usize,
) -> std::result::Result<Verdict, cqm_serve::ServeError> {
    let got = client.classify_for(Some(tenant), &stream.cues[i])?;
    Ok(if rig::identical(&got, &stream.expected[i]) {
        Verdict::Match
    } else {
        Verdict::Mismatch
    })
}

/// What one pen's episodes add to the pass.
#[derive(Default)]
struct Tally {
    detect_obs: Vec<f64>,
    recover_ms: Vec<f64>,
    retrains: u64,
    rejections: u64,
    promotions: u64,
}

/// Everything one pen's episodes touch.
struct Episodes<'a> {
    server: &'a CqmServer,
    client: &'a mut CqmClient,
    pen: &'a mut Pen,
    sets: &'a [Streams],
    /// Lane of this pen in request ids: pen index + 1.
    lane: u64,
    base: &'a ServedModel,
    store: &'a Path,
    phase: Phase,
    /// When the pass started; completion times are relative to it.
    start: Instant,
    parent: u64,
}

impl Episodes<'_> {
    /// One served, observed window: a `client.call` span and an
    /// `adapt.observe` span.
    fn window(
        &mut self,
        sup: &mut AdaptationSupervisor,
        shifted: bool,
        i: usize,
        req: u64,
        tr: &mut Tracer,
    ) -> Result<DriftState> {
        let set = &self.sets[(self.pen.episodes % SETS as u64) as usize];
        let stream = if shifted { &set.shifted } else { &set.usual };
        let span = tr.open("client.call", self.parent, req);
        let t0 = Instant::now();
        let outcome = serve(self.client, &self.pen.tenant, stream, i);
        let done = Instant::now();
        tr.close(span);
        self.phase.retries += u64::from(self.client.last_attempts().saturating_sub(1));
        self.phase.record(
            outcome,
            (done - t0).as_secs_f64() * 1e6,
            (done - self.start).as_secs_f64(),
            1,
            f64::INFINITY,
        );
        let span = tr.open("adapt.observe", self.parent, req);
        let state = sup.observe(&stream.cues[i], stream.truth[i])?;
        tr.close(span);
        Ok(state)
    }

    /// The pen's next episode: reset its tenant to the trained model,
    /// replay a session of the usual user, shift, and run the supervisor
    /// until it promotes a candidate.
    fn run(&mut self, seed: u64, tally: &mut Tally, tr: &mut Tracer) -> Result<()> {
        let parent = self.parent;
        let (server, base) = (self.server, self.base);
        self.pen.episodes += 1;
        let e = (self.lane << 32) | self.pen.episodes;
        let set = &self.sets[(self.pen.episodes % SETS as u64) as usize];
        let tenant = self.pen.tenant.clone();
        if self.pen.promoted {
            tr.time("drift.reset", parent, || {
                server.swap_model(&tenant, base.clone())
            })?;
            self.pen.promoted = false;
        }
        let mut sup = AdaptationSupervisor::new(
            AdaptationConfig::default(),
            base.clone(),
            tenant.as_str(),
            self.store.join(format!("validate-{tenant}")),
        )?;
        // Seeded starting points, so each episode sees other windows.
        let from_usual = rig::mix(seed, e) as usize;
        let from_shifted = rig::mix(seed, !e) as usize;
        let req = |k: usize| (e << 16) | k as u64;
        let n = set.usual.cues.len();
        for k in 0..n {
            self.window(&mut sup, false, (from_usual + k) % n, req(k), tr)?;
        }
        let onset = Instant::now();
        let observed_at_onset = sup.stats().observed;
        let mut detect_obs = None;
        let mut next_step = 0;
        for k in 0..MAX_SHIFTED {
            let i = (from_shifted + k) % set.shifted.cues.len();
            if self.window(&mut sup, true, i, req(n + k), tr)? != DriftState::Drift {
                continue;
            }
            detect_obs.get_or_insert(sup.stats().observed - observed_at_onset);
            if k < next_step {
                continue;
            }
            next_step = k + STEP_EVERY;
            let span = tr.open("adapt.step", parent, 0);
            let step_id = span.id();
            let outcome = sup.step_with(|model| {
                tr.time("registry.swap", step_id, || {
                    server.swap_model(&tenant, model.clone())
                })
                .map_err(Into::into)
            })?;
            tr.close(span);
            if let AdaptationOutcome::Promoted { .. } = outcome {
                self.pen.promoted = true;
                let stats = sup.stats();
                tally.detect_obs.push(detect_obs.unwrap_or(0) as f64);
                tally.recover_ms.push(onset.elapsed().as_secs_f64() * 1e3);
                tally.retrains += stats.retrains;
                tally.rejections += stats.rejections;
                tally.promotions += 1;
                return Ok(());
            }
        }
        Err(format!(
            "drift episode {} of {tenant} promoted no candidate in {MAX_SHIFTED} shifted windows",
            self.pen.episodes
        )
        .into())
    }
}

impl Workload for Drift {
    fn start(&mut self, ctx: &Ctx, tr: &mut Tracer, parent: u64) -> Result<()> {
        let store = rig::new_store(&ctx.work_dir)?;
        let mut config = rig::server_config();
        let usual = &self.sets[0].usual;
        config.fleet = FleetConfig {
            store_dir: Some(store.clone()),
            probe_cues: usual
                .cues
                .iter()
                .step_by(usual.cues.len() / 4)
                .cloned()
                .collect(),
            ..FleetConfig::default()
        };
        let server = rig::start_server(tr, parent, self.base.clone(), config)?;
        for pen in &mut self.pens {
            tr.time("registry.install", parent, || {
                server.install_model(&pen.tenant, self.base.clone())
            })?;
            pen.promoted = false;
        }
        let mut clients = (0..self.pens.len())
            .map(|p| {
                rig::connect(
                    tr,
                    parent,
                    server.local_addr(),
                    rig::mix(ctx.seed, 400 + p as u64),
                )
            })
            .collect::<Result<Vec<_>>>()?;
        let (pens, sets) = (&self.pens, &self.sets);
        tr.time("warmup", parent, || {
            rig::warm_up(&mut clients, rig::WARMUP_REQUESTS, &|client, c, k| {
                let usual = &sets[c % SETS].usual;
                serve(
                    client,
                    &pens[c].tenant,
                    usual,
                    k as usize % usual.cues.len(),
                )
            })
        })?;
        self.live = Some(Live {
            server,
            clients,
            store: Some(store),
        });
        Ok(())
    }

    /// Every pen runs episodes on its own thread until `budget` is spent;
    /// each finishes the episode it is in.
    fn measure(&mut self, budget: Duration, tr: &mut Tracer, parent: u64) -> Result<Measured> {
        let Drift {
            base,
            sets,
            pens,
            seed,
            live,
            ..
        } = self;
        let (base, sets, seed) = (&*base, &sets[..], *seed);
        let live = live.as_mut().ok_or("no server is running")?;
        let store = live.store.as_deref().ok_or("drift runs with a store")?;
        let server = &live.server;
        let span = tr.open("phase.episodes", parent, 0);
        let parent = span.id();
        let cpu0 = rig::cpu_seconds()?;
        let start = Instant::now();
        let forks: Vec<Tracer> = (0..pens.len()).map(|p| tr.fork(p as u64 + 1)).collect();
        let lanes: Vec<Result<(Phase, Tally, Tracer)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = live
                .clients
                .iter_mut()
                .zip(pens.iter_mut())
                .zip(forks)
                .enumerate()
                .map(|(p, ((client, pen), mut ptr))| {
                    scope.spawn(move || {
                        let mut episodes = Episodes {
                            server,
                            client,
                            pen,
                            sets,
                            lane: p as u64 + 1,
                            base,
                            store,
                            phase: Phase::new("episodes", "closed", 1),
                            start,
                            parent,
                        };
                        let mut tally = Tally::default();
                        while start.elapsed() < budget {
                            episodes.run(seed, &mut tally, &mut ptr)?;
                        }
                        Ok((episodes.phase, tally, ptr))
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("drift pen thread panicked"))
                .collect()
        });
        let mut phase = Phase::new("episodes", "closed", pens.len());
        phase.elapsed_s = start.elapsed().as_secs_f64();
        phase.cpu_s = rig::cpu_seconds()? - cpu0;
        let mut m = Measured::default();
        for lane in lanes {
            let (lane_phase, tally, ptr) = lane?;
            phase.merge(lane_phase);
            tr.absorb(ptr);
            m.detect_obs.extend(tally.detect_obs);
            m.recover_ms.extend(tally.recover_ms);
            m.retrains += tally.retrains;
            m.rejections += tally.rejections;
            m.promotions += tally.promotions;
        }
        tr.close(span);
        m.tenant_requests = phase.sent;
        m.phases.push(phase);
        Ok(m)
    }

    fn probe(&mut self, tr: &mut Tracer, parent: u64) -> Result<Probed> {
        let pen = &self.pens[0];
        let usual = &self.sets[0].usual;
        let (requests, responses) = probe::classify_messages(
            usual
                .cues
                .iter()
                .zip(&usual.expected)
                .map(|(cues, answer)| (Some(pen.tenant.as_str()), cues.as_slice(), *answer)),
        );
        let frames = probe::codec(tr, parent, &requests, &responses)?;
        probe::kernel(tr, parent, &self.engine, &usual.cues, &usual.expected)?;
        let ckpt = ServeCheckpoint {
            seq: 1,
            model: self.base.clone(),
        };
        let store = self
            .live
            .as_ref()
            .and_then(|l| l.store.as_ref())
            .ok_or("no server is running")?;
        let ckpt_bytes = probe::persist(tr, parent, store, &ckpt)?;
        Ok(Probed {
            frames,
            rows_per_request: 1,
            ckpt_bytes,
        })
    }

    fn live(&self) -> Option<&Live> {
        self.live.as_ref()
    }

    fn take_live(&mut self) -> Option<Live> {
        self.live.take()
    }
}
