//! `batch`: every connection sends `ClassifyBatch` requests of 64 seeded
//! sensor windows back to back. Codec and kernel dominate each round trip
//! and the thread handoff is amortized over the rows.

use std::time::Duration;

use cqm_core::pipeline::QualifiedClassification;
use cqm_serve::{CqmClient, Engine, Request, RequestId, Response, ServedModel};

use crate::probe::{self, SLAB_ROWS};
use crate::rig::{self, Live, Result, Rng, Verdict};
use crate::trace::Tracer;
use crate::{Ctx, Measured, Probed, Workload};

/// Distinct batches each run cycles through.
const BATCHES: usize = 32;
/// Pen sessions the rows are drawn from.
const SESSIONS: usize = 4;

pub struct Batch {
    model: ServedModel,
    batches: Vec<Vec<Vec<f64>>>,
    expected: Vec<Vec<QualifiedClassification>>,
    engine: Engine,
    live: Option<Live>,
}

pub fn setup(ctx: &Ctx, tr: &mut Tracer, parent: u64) -> Result<Batch> {
    let model = rig::train_model(tr, parent)?;
    let engine = Engine::new(&model)?;
    let gen = tr.open("inputs.generate", parent, 0);
    let mut pool = Vec::new();
    for p in 0..SESSIONS {
        pool.extend(rig::pen_session(ctx.seed, p)?.cues);
    }
    let mut rng = Rng::new(rig::mix(ctx.seed, 0xBA7C));
    let batches: Vec<Vec<Vec<f64>>> = (0..BATCHES)
        .map(|_| {
            (0..SLAB_ROWS)
                .map(|_| pool[(rng.next_u64() % pool.len() as u64) as usize].clone())
                .collect()
        })
        .collect();
    let expected = batches
        .iter()
        .map(|b| rig::expected(&engine, b))
        .collect::<Result<Vec<_>>>()?;
    tr.close(gen);
    Ok(Batch {
        model,
        batches,
        expected,
        engine,
        live: None,
    })
}

fn classify(
    client: &mut CqmClient,
    batches: &[Vec<Vec<f64>>],
    expected: &[Vec<QualifiedClassification>],
    c: usize,
    k: u64,
) -> std::result::Result<Verdict, cqm_serve::ServeError> {
    let b = (c * 7 + k as usize) % batches.len();
    let got = client.classify_batch(&batches[b])?;
    let same = got.len() == expected[b].len()
        && got
            .iter()
            .zip(&expected[b])
            .all(|(g, w)| rig::identical(g, w));
    Ok(if same {
        Verdict::Match
    } else {
        Verdict::Mismatch
    })
}

impl Workload for Batch {
    fn start(&mut self, ctx: &Ctx, tr: &mut Tracer, parent: u64) -> Result<()> {
        let server = rig::start_server(tr, parent, self.model.clone(), rig::server_config())?;
        let mut clients = (0..ctx.gens)
            .map(|c| {
                rig::connect(
                    tr,
                    parent,
                    server.local_addr(),
                    rig::mix(ctx.seed, 200 + c as u64),
                )
            })
            .collect::<Result<Vec<_>>>()?;
        let (batches, expected) = (&self.batches, &self.expected);
        tr.time("warmup", parent, || {
            rig::warm_up(&mut clients, rig::WARMUP_REQUESTS / 10, &|client, c, k| {
                classify(client, batches, expected, c, k)
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
        let Batch {
            batches,
            expected,
            live,
            ..
        } = self;
        let clients = &mut live.as_mut().ok_or("no server is running")?.clients;
        let span = tr.open("phase.closed", parent, 0);
        let closed = rig::closed_loop(
            clients,
            budget,
            tr,
            span.id(),
            SLAB_ROWS as u64,
            &|client, c, k| classify(client, batches, expected, c, k),
            |_, _| {},
        );
        tr.close(span);
        Ok(Measured {
            phases: vec![closed],
            ..Measured::default()
        })
    }

    fn probe(&mut self, tr: &mut Tracer, parent: u64) -> Result<Probed> {
        let requests: Vec<Request> = self
            .batches
            .iter()
            .enumerate()
            .map(|(i, rows)| Request::ClassifyBatch {
                id: RequestId {
                    session: 1,
                    request: i as u64 + 1,
                },
                tenant: None,
                rows: rows.clone(),
            })
            .collect();
        let responses: Vec<Response> = self
            .expected
            .iter()
            .map(|results| Response::ClassifiedBatch {
                results: results.clone(),
            })
            .collect();
        let frames = probe::codec(tr, parent, &requests, &responses)?;
        let rows: Vec<Vec<f64>> = self.batches.concat();
        let want: Vec<QualifiedClassification> = self.expected.concat();
        probe::kernel(tr, parent, &self.engine, &rows, &want)?;
        Ok(Probed {
            frames,
            rows_per_request: SLAB_ROWS,
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
