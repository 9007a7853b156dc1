//! `fleet`: 16 tenants behind an LRU of 4 live models and a checkpoint
//! store, read in a closed loop with seeded, skewed popularity, while the
//! main thread swaps the hottest tenants' models a fixed number of times.
//! The only workload that runs the registry's warm-load and eviction and
//! persist's checkpoint I/O.

use std::time::{Duration, Instant};

use cqm_core::model::CqmModel;
use cqm_core::pipeline::QualifiedClassification;
use cqm_serve::{
    CqmClient, CqmServer, Engine, FleetConfig, ServeCheckpoint, ServeError, ServedModel,
};

use crate::probe;
use crate::rig::{self, Live, Result, Rng, Verdict};
use crate::trace::Tracer;
use crate::{Ctx, Measured, Probed, Workload};

pub const TENANTS: usize = 16;
pub const MAX_ACTIVE: usize = 4;
/// Zipf exponent of tenant popularity: the hot few fit in the LRU, the
/// tail warm-loads.
const ZIPF_S: f64 = 2.0;
/// Hot-tenant swaps per measured pass, spread evenly over it.
pub const SWAPS: usize = 12;
/// Tenants the swaps rotate over (the most popular ones).
const SWAP_TENANTS: usize = 3;
/// Length of each connection's seeded request plan (cycled).
const PLAN_LEN: usize = 8192;
/// Sensor windows the requests draw their cues from.
const SESSIONS: usize = 2;

pub struct Fleet {
    base: ServedModel,
    names: Vec<String>,
    models: Vec<ServedModel>,
    cues: Vec<Vec<f64>>,
    /// `expected[tenant][cue]`.
    expected: Vec<Vec<QualifiedClassification>>,
    /// Per connection: `(tenant, cue)` pairs.
    plans: Vec<Vec<(u16, u16)>>,
    /// Tenants by popularity, most popular first.
    ranked: Vec<usize>,
    engine0: Engine,
    swaps: u64,
    live: Option<Live>,
}

/// `model` with another threshold and note.
fn variant(model: &ServedModel, threshold: f64, note: &str) -> Result<ServedModel> {
    Ok(ServedModel::new(
        model.classifier().clone(),
        CqmModel {
            threshold,
            note: note.to_string(),
            ..model.model().clone()
        },
    )?)
}

/// Tenant `i`'s model: the pen model at its own operating threshold, so
/// tenants answer with different accept/discard verdicts.
fn tenant_model(base: &ServedModel, i: usize, note: &str) -> Result<ServedModel> {
    let offset = (i as f64 - (TENANTS as f64 - 1.0) / 2.0) * 0.01;
    variant(
        base,
        (base.model().threshold + offset).clamp(0.0, 1.0),
        note,
    )
}

pub fn setup(ctx: &Ctx, tr: &mut Tracer, parent: u64) -> Result<Fleet> {
    let base = rig::train_model(tr, parent)?;
    let gen = tr.open("inputs.generate", parent, 0);
    let names: Vec<String> = (0..TENANTS).map(|i| format!("tenant-{i:02}")).collect();
    let models = (0..TENANTS)
        .map(|i| tenant_model(&base, i, &names[i]))
        .collect::<Result<Vec<_>>>()?;
    let mut cues = Vec::new();
    for p in 0..SESSIONS {
        cues.extend(rig::pen_session(ctx.seed, p)?.cues);
    }
    let engines = models
        .iter()
        .map(Engine::new)
        .collect::<std::result::Result<Vec<_>, _>>()?;
    let expected = engines
        .iter()
        .map(|e| rig::expected(e, &cues))
        .collect::<Result<Vec<_>>>()?;
    // Seeded popularity: a random ranking of the tenants, Zipf weights.
    let mut rng = Rng::new(rig::mix(ctx.seed, 0xF1EE7));
    let mut ranked: Vec<usize> = (0..TENANTS).collect();
    for i in (1..TENANTS).rev() {
        ranked.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
    }
    let weights: Vec<f64> = (0..TENANTS)
        .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let plans: Vec<Vec<(u16, u16)>> = (0..ctx.gens)
        .map(|_| {
            (0..PLAN_LEN)
                .map(|_| {
                    let mut x = rng.unit() * total;
                    let mut rank = 0;
                    while rank + 1 < TENANTS && x >= weights[rank] {
                        x -= weights[rank];
                        rank += 1;
                    }
                    let cue = rng.next_u64() % cues.len() as u64;
                    (ranked[rank] as u16, cue as u16)
                })
                .collect()
        })
        .collect();
    tr.close(gen);
    Ok(Fleet {
        base,
        names,
        models,
        cues,
        expected,
        plans,
        ranked,
        engine0: engines.into_iter().next().ok_or("no tenants")?,
        swaps: 0,
        live: None,
    })
}

fn classify(
    client: &mut CqmClient,
    names: &[String],
    cues: &[Vec<f64>],
    expected: &[Vec<QualifiedClassification>],
    plan: &[(u16, u16)],
    k: u64,
) -> std::result::Result<Verdict, cqm_serve::ServeError> {
    let (t, c) = plan[(k as usize) % plan.len()];
    let (t, c) = (usize::from(t), usize::from(c));
    let got = client.classify_for(Some(&names[t]), &cues[c])?;
    Ok(if rig::identical(&got, &expected[t][c]) {
        Verdict::Match
    } else {
        Verdict::Mismatch
    })
}

/// Most times one swap is retried while its tenant is warm-loading.
const SWAP_ATTEMPTS: usize = 100;

/// Swap `tenant`'s model, retrying while the tenant is mid warm-load (the
/// registry refuses such a swap as retryable). Refused attempts are
/// `registry.swap_busy` spans; the one that lands is `registry.swap`.
fn swap(
    server: &CqmServer,
    tenant: &str,
    model: ServedModel,
    tr: &mut Tracer,
    parent: u64,
) -> Result<()> {
    for _ in 0..SWAP_ATTEMPTS {
        let span = tr.open("registry.swap", parent, 0);
        match server.swap_model(tenant, model.clone()) {
            Ok(_) => {
                tr.close(span);
                return Ok(());
            }
            Err(ServeError::InvalidConfig(msg)) if msg.contains("warm-loading") => {
                tr.close(span.renamed("registry.swap_busy"));
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => return Err(e.into()),
        }
    }
    Err(format!("swap of {tenant} stayed busy for {SWAP_ATTEMPTS} attempts").into())
}

impl Workload for Fleet {
    fn start(&mut self, ctx: &Ctx, tr: &mut Tracer, parent: u64) -> Result<()> {
        let store = rig::new_store(&ctx.work_dir)?;
        let mut config = rig::server_config();
        config.fleet = FleetConfig {
            max_active: MAX_ACTIVE,
            store_dir: Some(store.clone()),
            probe_cues: self
                .cues
                .iter()
                .step_by(self.cues.len() / 4)
                .cloned()
                .collect(),
            ..FleetConfig::default()
        };
        let server = rig::start_server(tr, parent, self.base.clone(), config)?;
        for (name, model) in self.names.iter().zip(&self.models) {
            tr.time("registry.install", parent, || {
                server.install_model(name, model.clone())
            })?;
        }
        let mut clients = (0..ctx.gens)
            .map(|c| {
                rig::connect(
                    tr,
                    parent,
                    server.local_addr(),
                    rig::mix(ctx.seed, 300 + c as u64),
                )
            })
            .collect::<Result<Vec<_>>>()?;
        let (names, cues, expected, plans) = (&self.names, &self.cues, &self.expected, &self.plans);
        tr.time("warmup", parent, || {
            rig::warm_up(&mut clients, rig::WARMUP_REQUESTS, &|client, c, k| {
                classify(client, names, cues, expected, &plans[c], k)
            })
        })?;
        self.live = Some(Live {
            server,
            clients,
            store: Some(store),
        });
        Ok(())
    }

    fn measure(&mut self, budget: Duration, tr: &mut Tracer, parent: u64) -> Result<Measured> {
        let span = tr.open("phase.closed", parent, 0);
        let phase_id = span.id();
        let Fleet {
            live,
            names,
            models,
            cues,
            expected,
            plans,
            ranked,
            swaps,
            ..
        } = self;
        let Live {
            server, clients, ..
        } = live.as_mut().ok_or("no server is running")?;
        let server = &*server;
        let mut swap_error: Option<String> = None;
        let closed = rig::closed_loop(
            clients,
            budget,
            tr,
            phase_id,
            1,
            &|client, c, k| classify(client, names, cues, expected, &plans[c], k),
            |deadline, tr| {
                // Swap the hottest tenants at evenly spaced times. Each
                // candidate answers exactly like the model it replaces, so
                // the readers' expected answers stay valid.
                let start = Instant::now();
                let gap = deadline.saturating_duration_since(start) / (SWAPS as u32 + 1);
                for i in 0..SWAPS {
                    std::thread::sleep(
                        (start + gap * (i as u32 + 1)).saturating_duration_since(Instant::now()),
                    );
                    let t = ranked[i % SWAP_TENANTS];
                    *swaps += 1;
                    let m = &models[t];
                    let note = format!("{} gen {swaps}", names[t]);
                    let result = variant(m, m.model().threshold, &note)
                        .and_then(|m| swap(server, &names[t], m, tr, phase_id));
                    if let Err(e) = result {
                        swap_error.get_or_insert(e.to_string());
                    }
                }
            },
        );
        tr.close(span);
        if let Some(e) = swap_error {
            return Err(format!("hot-tenant swap failed: {e}").into());
        }
        Ok(Measured {
            tenant_requests: closed.sent,
            phases: vec![closed],
            ..Measured::default()
        })
    }

    fn probe(&mut self, tr: &mut Tracer, parent: u64) -> Result<Probed> {
        let plan = &self.plans[0][..self.cues.len()];
        let (requests, responses) = probe::classify_messages(plan.iter().map(|&(t, c)| {
            let (t, c) = (usize::from(t), usize::from(c));
            (
                Some(self.names[t].as_str()),
                self.cues[c].as_slice(),
                self.expected[t][c],
            )
        }));
        let frames = probe::codec(tr, parent, &requests, &responses)?;
        probe::kernel(tr, parent, &self.engine0, &self.cues, &self.expected[0])?;
        let ckpt = ServeCheckpoint {
            seq: 1,
            model: self.models[0].clone(),
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
