//! Metrics, invariant checks and output.
//!
//! Standard output gets run metadata, one line per phase and round, one
//! `metric` line per end-to-end metric (and one `layer` line per
//! per-layer metric in a traced run), then the result JSON as the last
//! line. The full result, and in a traced run the spans, are also written
//! under `perfbench/out/`.

use std::fmt::Write as _;
use std::path::Path;

use cqm_serve::ServerHealth;

use crate::rig::{Phase, Result};
use crate::stats::{median, percentile, windows, Window};
use crate::trace::{self, Span};
use crate::{Args, Ctx, Measured, Probed, Round};

/// Consecutive completions per latency/throughput window.
pub const WINDOW: usize = 1000;
// Each window's nearest-rank p99 has ten samples beyond it.
const _: () = assert!(WINDOW / 100 >= 10 && WINDOW.is_multiple_of(100));

/// Fewest windows a pass may report from.
const MIN_WINDOWS: usize = 5;

/// End-to-end metrics in the result JSON of an untraced run.
pub const END_TO_END: [&str; 6] = [
    "latency_p50_us",
    "req_per_s",
    "rows_per_s",
    "cpu_us_per_req",
    "peak_rss_mb",
    "setup_s",
];

pub struct Report<'a> {
    pub args: &'a Args,
    pub nproc: usize,
    pub ctx: &'a Ctx,
    pub rounds: &'a [Round],
    /// What the last round's layer probes found (traced runs only).
    pub probed: Option<&'a Probed>,
    pub spans: &'a [Span],
    pub rss_mb: f64,
}

/// One metric as printed and reported; `None` where the workload does
/// not define it.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: Option<f64>,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: Some(value),
    }
}

/// A number as JSON; non-finite values have no JSON form.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The revision of the working directory's own git checkout, if it is
/// one; git is not allowed to look above it.
fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Median per-op duration of spans named `name`, divided by `div`.
fn span_median(spans: &[Span], name: &str, div: f64) -> f64 {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::per_op_ns)
        .collect();
    median(&v) / div
}

/// Windows over the phases' latencies, each phase in completion order
/// and the phases one after another.
fn phase_windows<'p>(phases: impl Iterator<Item = &'p Phase>) -> Vec<Window> {
    let mut ordered = Vec::new();
    for p in phases {
        let mut by_done: Vec<(f64, f64)> = p
            .done_s
            .iter()
            .copied()
            .zip(p.latencies_us.iter().copied())
            .collect();
        by_done.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        ordered.extend(by_done.into_iter().map(|(_, l)| l));
    }
    windows(&ordered, WINDOW)
}

/// Which pass of each round a metric is taken from.
#[derive(Clone, Copy)]
enum Pass {
    Untraced,
    Traced,
}

impl Report<'_> {
    /// One pass of every server, or of the kept servers only.
    fn servers(&self, pass: Pass, kept_only: bool) -> impl Iterator<Item = &Measured> {
        self.rounds
            .iter()
            .filter(move |r| r.kept || !kept_only)
            .filter_map(move |r| match pass {
                Pass::Untraced => Some(&r.untraced),
                Pass::Traced => r.traced.as_ref(),
            })
    }

    /// One pass of the kept servers: what the timing figures use.
    fn pass(&self, pass: Pass) -> impl Iterator<Item = &Measured> {
        self.servers(pass, true)
    }

    /// Every measured pass of every server: what correctness, counters
    /// and failures use.
    fn all(&self) -> impl Iterator<Item = &Measured> {
        self.servers(Pass::Untraced, false)
            .chain(self.servers(Pass::Traced, false))
    }

    fn attempted(&self) -> u64 {
        self.all().map(Measured::attempted).sum()
    }

    fn failed(&self) -> u64 {
        self.all().map(Measured::failed).sum()
    }

    /// A health counter's growth over the measured passes, summed over
    /// rounds.
    fn delta(&self, f: impl Fn(&ServerHealth) -> u64) -> f64 {
        self.rounds
            .iter()
            .map(|r| f(&r.after).saturating_sub(f(&r.before)))
            .sum::<u64>() as f64
    }

    fn latency_windows(&self, pass: Pass) -> Vec<Window> {
        phase_windows(self.pass(pass).map(Measured::latency))
    }

    /// Requests per second of each server's throughput phase.
    fn throughputs(&self, pass: Pass) -> Vec<f64> {
        self.pass(pass)
            .map(|m| m.throughput().req_per_s())
            .collect()
    }

    /// Every end-to-end metric of one pass. Latencies are medians over
    /// windows of `WINDOW` consecutive completions, pooled over the
    /// servers; throughput is the median over the servers.
    fn end_to_end(&self, pass: Pass) -> Vec<Metric> {
        let lat = self.latency_windows(pass);
        let p50s: Vec<f64> = lat.iter().map(|w| w.p50).collect();
        let p99s: Vec<f64> = lat.iter().map(|w| w.p99).collect();
        let rates = self.throughputs(pass);
        let (rows, ok, cpu_s) = self
            .pass(pass)
            .map(Measured::throughput)
            .fold((0, 0, 0.0), |(r, o, c), p| {
                (r + p.rows, o + p.ok, c + p.cpu_s)
            });
        let open: Vec<&Phase> = self
            .pass(pass)
            .flat_map(|m| m.phases.iter())
            .filter(|p| p.shape == "open")
            .collect();
        let (within, sent) = open
            .iter()
            .fold((0, 0), |(w, s), p| (w + p.within_slo, s + p.sent));
        let (failed, attempted) = self
            .servers(pass, false)
            .fold((0, 0), |(f, a), m| (f + m.failed(), a + m.attempted()));
        let recover: Vec<f64> = self.pass(pass).flat_map(|m| m.recover_ms.clone()).collect();
        let setup: Vec<f64> = self.rounds.iter().filter_map(|r| r.setup_s).collect();
        vec![
            metric("latency_p50_us", "us", median(&p50s)),
            metric("latency_p99_us", "us", median(&p99s)),
            metric("req_per_s", "1/s", median(&rates)),
            metric(
                "rows_per_s",
                "1/s",
                median(&rates) * rows as f64 / ok.max(1) as f64,
            ),
            metric("cpu_us_per_req", "us", cpu_s * 1e6 / ok.max(1) as f64),
            metric("peak_rss_mb", "MB", self.rss_mb),
            metric("setup_s", "s", median(&setup)),
            Metric {
                name: "slo_attain",
                unit: "ratio",
                value: (!open.is_empty()).then(|| within as f64 / sent.max(1) as f64),
            },
            metric(
                "error_rate",
                "ratio",
                failed as f64 / attempted.max(1) as f64,
            ),
            Metric {
                name: "adapt_recover_ms",
                unit: "ms",
                value: (!recover.is_empty()).then(|| median(&recover)),
            },
        ]
    }

    /// Per-layer metrics of a traced run.
    fn per_layer(&self, probed: &Probed) -> Vec<Metric> {
        let s = self.spans;
        let codec: f64 = [
            "codec.req_encode",
            "codec.req_decode",
            "codec.resp_encode",
            "codec.resp_decode",
        ]
        .iter()
        .map(|n| span_median(s, n, 1e3))
        .sum();
        let kernel_us = if probed.rows_per_request == 1 {
            span_median(s, "kernel.one", 1e3)
        } else {
            span_median(s, "kernel.rows", 1e3) * probed.rows_per_request as f64
        };
        let tenant_requests: u64 = self.all().map(|m| m.tenant_requests).sum();
        let warm_loads = self.delta(|x| x.warm_loads);
        let hit_ratio = if tenant_requests == 0 {
            0.0
        } else {
            1.0 - warm_loads / tenant_requests as f64
        };
        let phases = || self.all().flat_map(|m| m.phases.iter());
        let lag: Vec<f64> = phases().flat_map(|p| p.lag_us.iter().copied()).collect();
        let retries: u64 = phases().map(|p| p.retries).sum();
        let sum = |f: fn(&Measured) -> u64| self.all().map(f).sum::<u64>() as f64;
        let detect: Vec<f64> = self.all().flat_map(|m| m.detect_obs.clone()).collect();
        let untraced = self.end_to_end(Pass::Untraced);
        let traced = self.end_to_end(Pass::Traced);
        let get = |m: &[Metric], name: &str| {
            m.iter()
                .find(|x| x.name == name)
                .and_then(|x| x.value)
                .unwrap_or(0.0)
        };
        let highwater = self.rounds.iter().map(|r| r.after.queue_highwater).max();
        let duplicates: u64 = self
            .rounds
            .iter()
            .map(|r| r.last.duplicate_executions)
            .sum();
        vec![
            metric("train.pen_ms", "ms", span_median(s, "train.pen", 1e6)),
            metric("kernel.one_ns", "ns", span_median(s, "kernel.one", 1.0)),
            metric("kernel.row_ns", "ns", span_median(s, "kernel.rows", 1.0)),
            metric(
                "codec.req_encode_us",
                "us",
                span_median(s, "codec.req_encode", 1e3),
            ),
            metric(
                "codec.req_decode_us",
                "us",
                span_median(s, "codec.req_decode", 1e3),
            ),
            metric(
                "codec.resp_encode_us",
                "us",
                span_median(s, "codec.resp_encode", 1e3),
            ),
            metric(
                "codec.resp_decode_us",
                "us",
                span_median(s, "codec.resp_decode", 1e3),
            ),
            metric("codec.req_bytes", "B", probed.frames.req),
            metric("codec.resp_bytes", "B", probed.frames.resp),
            metric(
                "client.connect_us",
                "us",
                span_median(s, "client.connect", 1e3),
            ),
            metric("client.overload_retries", "count", retries as f64),
            metric("client.gen_lag_us", "us", percentile(&lag, 0.99)),
            metric("server.start_ms", "ms", span_median(s, "server.start", 1e6)),
            metric(
                "server.residual_p50_us",
                "us",
                median(&self.round_trips()) - codec - kernel_us,
            ),
            metric(
                "server.queue_highwater",
                "count",
                highwater.unwrap_or(0) as f64,
            ),
            metric("server.rejected", "count", self.delta(|x| x.rejected)),
            metric("server.shed", "count", self.delta(|x| x.shed)),
            metric(
                "server.session_errors",
                "count",
                self.delta(|x| x.session_errors),
            ),
            metric("server.dedup_hits", "count", self.delta(|x| x.dedup_hits)),
            metric("server.duplicate_executions", "count", duplicates as f64),
            metric("registry.hit_ratio", "ratio", hit_ratio),
            metric("registry.warm_loads", "count", warm_loads),
            metric("registry.evictions", "count", self.delta(|x| x.evictions)),
            metric(
                "registry.swap_ms",
                "ms",
                span_median(s, "registry.swap", 1e6),
            ),
            metric("registry.swaps", "count", self.delta(|x| x.swaps)),
            metric(
                "registry.swap_rollbacks",
                "count",
                self.delta(|x| x.swap_rollbacks),
            ),
            metric(
                "registry.tenant_overloads",
                "count",
                self.delta(|x| x.tenant_overloads),
            ),
            metric("persist.save_ms", "ms", span_median(s, "persist.save", 1e6)),
            metric("persist.load_ms", "ms", span_median(s, "persist.load", 1e6)),
            metric("persist.ckpt_bytes", "B", probed.ckpt_bytes as f64),
            metric(
                "adapt.observe_us",
                "us",
                span_median(s, "adapt.observe", 1e3),
            ),
            metric("adapt.step_ms", "ms", span_median(s, "adapt.step", 1e6)),
            metric("adapt.detect_obs", "count", median(&detect)),
            metric("adapt.retrains", "count", sum(|m| m.retrains)),
            metric("adapt.promotions", "count", sum(|m| m.promotions)),
            metric("adapt.rejections", "count", sum(|m| m.rejections)),
            metric("adapt.recover_ms", "ms", get(&traced, "adapt_recover_ms")),
            metric("e2e.latency_p99_us", "us", get(&untraced, "latency_p99_us")),
            metric("e2e.slo_attain", "ratio", get(&traced, "slo_attain")),
            metric(
                "trace.overhead_p50_us",
                "us",
                get(&traced, "latency_p50_us") - get(&untraced, "latency_p50_us"),
            ),
            metric(
                "trace.overhead_req_per_s",
                "1/s",
                get(&untraced, "req_per_s") - get(&traced, "req_per_s"),
            ),
            metric("trace.spans", "count", s.len() as f64),
        ]
    }

    /// Durations (µs) of the traced `client.call` spans of the latency
    /// phase: send to answer, without an open loop's wait for the due
    /// time.
    fn round_trips(&self) -> Vec<f64> {
        let Some(m) = self.pass(Pass::Traced).next() else {
            return Vec::new();
        };
        let phase = format!("phase.{}", m.latency().name);
        let parents: std::collections::BTreeSet<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == phase)
            .map(|s| s.id)
            .collect();
        self.spans
            .iter()
            .filter(|s| s.name == "client.call" && parents.contains(&s.parent))
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect()
    }

    /// Broken invariants; empty when the run is correct.
    fn violations(&self, layers: &[Metric]) -> Vec<String> {
        let mut bad = Vec::new();
        let mismatched: u64 = self.all().map(Measured::mismatched).sum();
        if mismatched > 0 {
            bad.push(format!(
                "{mismatched} served answers differ from the in-process answers"
            ));
        }
        let duplicates: u64 = self
            .rounds
            .iter()
            .map(|r| r.last.duplicate_executions)
            .sum();
        if duplicates > 0 {
            bad.push(format!("the server executed {duplicates} requests twice"));
        }
        for (pass, label) in [(Pass::Untraced, "untraced"), (Pass::Traced, "traced")] {
            if self.pass(pass).next().is_none() {
                continue;
            }
            let windows = self.latency_windows(pass).len();
            if windows < MIN_WINDOWS {
                bad.push(format!(
                    "{label}: {windows} latency windows of {WINDOW}, want {MIN_WINDOWS}"
                ));
            }
        }
        let workload = self.args.workload.as_str();
        let registry = [
            self.delta(|x| x.warm_loads),
            self.delta(|x| x.evictions),
            self.delta(|x| x.swaps),
            self.delta(|x| x.swap_rollbacks),
            self.delta(|x| x.tenant_overloads),
        ];
        match workload {
            "office" | "batch" => {
                if registry.iter().any(|&v| v != 0.0) {
                    bad.push(format!("{workload} touched the registry: {registry:?}"));
                }
                let stray = self
                    .spans
                    .iter()
                    .filter(|s| s.name.starts_with("persist.") || s.name.starts_with("adapt."))
                    .count();
                if stray > 0 {
                    bad.push(format!("{workload} made {stray} persist/adapt calls"));
                }
            }
            "fleet" => {
                if let Some(hit) = layers
                    .iter()
                    .find(|m| m.name == "registry.hit_ratio")
                    .and_then(|m| m.value)
                {
                    if !(hit > 0.0 && hit < 1.0) {
                        bad.push(format!(
                            "fleet hit ratio {hit} is not strictly inside (0, 1)"
                        ));
                    }
                }
                if registry[2] == 0.0 || registry[3] != 0.0 {
                    bad.push(format!(
                        "fleet made {} swaps with {} rollbacks (want some, and none)",
                        registry[2], registry[3]
                    ));
                }
            }
            "drift" => {
                if self.all().any(|m| m.recover_ms.is_empty()) {
                    bad.push("a drift pass promoted no candidate".into());
                }
                if registry[3] != 0.0 {
                    bad.push(format!("drift swaps rolled back {} times", registry[3]));
                }
            }
            _ => {}
        }
        bad
    }

    /// One JSON line per phase per round, printed as a summary line too.
    fn phase_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (r, round) in self.rounds.iter().enumerate() {
            println!(
                "server {r} steal_share={:.4} kept={}",
                round.steal_share, round.kept
            );
            for (pass, m) in [
                ("untraced", Some(&round.untraced)),
                ("traced", round.traced.as_ref()),
            ] {
                let Some(m) = m else { continue };
                for p in &m.phases {
                    let (p50, p99) = (
                        percentile(&p.latencies_us, 0.5),
                        percentile(&p.latencies_us, 0.99),
                    );
                    println!(
                        "phase round={r} {pass}/{} {} conns={} sent={} ok={} failed={} \
                         rows={} samples={} p50_us={p50:.1} p99_us={p99:.1} per_s={:.1}",
                        p.name,
                        p.shape,
                        p.conns,
                        p.sent,
                        p.ok,
                        p.failed(),
                        p.rows,
                        p.latencies_us.len(),
                        p.req_per_s(),
                    );
                    if let Some(e) = &p.first_error {
                        println!("phase round={r} {pass}/{} first error: {e}", p.name);
                    }
                    lines.push(format!(
                        "{{\"round\":{r},\"pass\":\"{pass}\",\"name\":\"{}\",\"shape\":\"{}\",\
                         \"conns\":{},\"offered_rps\":{},\"sent\":{},\"ok\":{},\"failed\":{},\
                         \"mismatched\":{},\"rows\":{},\"retries\":{},\"elapsed_s\":{},\
                         \"samples\":{},\"p50_us\":{},\"p99_us\":{},\"lag_p99_us\":{},\
                         \"first_error\":{}}}",
                        p.name,
                        p.shape,
                        p.conns,
                        p.offered_rps.map_or("null".into(), num),
                        p.sent,
                        p.ok,
                        p.failed(),
                        p.mismatched,
                        p.rows,
                        p.retries,
                        num(p.elapsed_s),
                        p.latencies_us.len(),
                        num(p50),
                        num(p99),
                        num(percentile(&p.lag_us, 0.99)),
                        p.first_error
                            .as_ref()
                            .map_or("null".into(), |e| format!("{e:?}")),
                    ));
                }
            }
        }
        lines
    }

    /// Print everything, write the result (and span) files, and print
    /// the result JSON last. Returns whether the run was correct.
    pub fn emit(&self, out_dir: &Path) -> Result<bool> {
        let a = self.args;
        let lat = self.latency_windows(Pass::Untraced);
        let pooled: Vec<f64> = self
            .pass(Pass::Untraced)
            .flat_map(|m| m.latency().latencies_us.iter().copied())
            .collect();
        let lag: Vec<f64> = self
            .pass(Pass::Untraced)
            .flat_map(|m| m.phases.iter())
            .flat_map(|p| p.lag_us.iter().copied())
            .collect();
        let mut meta = vec![
            ("workload", format!("\"{}\"", a.workload)),
            ("seed", a.seed.to_string()),
            ("seconds", num(a.seconds)),
            ("trace", a.trace.to_string()),
            ("available_parallelism", self.nproc.to_string()),
            ("gen_threads", self.ctx.gens.to_string()),
            ("server_workers", crate::rig::WORKERS.to_string()),
            ("servers", self.rounds.len().to_string()),
            (
                "servers_kept",
                self.rounds.iter().filter(|r| r.kept).count().to_string(),
            ),
            (
                "steal_share_kept_max",
                num(self
                    .rounds
                    .iter()
                    .filter(|r| r.kept)
                    .map(|r| r.steal_share)
                    .fold(0.0, f64::max)),
            ),
            (
                "steal_share_max",
                num(self
                    .rounds
                    .iter()
                    .map(|r| r.steal_share)
                    .fold(0.0, f64::max)),
            ),
            ("git_rev", format!("\"{}\"", git_rev())),
            ("slo_us", num(self.ctx.slo_us)),
            ("window", WINDOW.to_string()),
            ("latency_samples", pooled.len().to_string()),
            ("latency_windows", lat.len().to_string()),
            ("latency_p99_pooled_us", num(percentile(&pooled, 0.99))),
            ("gen_lag_p99_us", num(percentile(&lag, 0.99))),
        ];
        if a.workload == "office" {
            meta.push(("offered_rps", num(crate::office::OFFERED_RPS)));
        }
        for (k, v) in &meta {
            println!("meta {k}={v}");
        }
        let p99: Vec<String> = lat.iter().map(|w| format!("{:.0}", w.p99)).collect();
        println!("windows p99_us=[{}]", p99.join(","));
        let phases = self.phase_lines();

        let e2e = self.end_to_end(Pass::Untraced);
        for m in &e2e {
            match m.value {
                Some(v) => println!("metric {} {v} {}", m.name, m.unit),
                None => println!("metric {} n/a {}", m.name, m.unit),
            }
        }
        let layers = self.probed.map(|p| self.per_layer(p)).unwrap_or_default();
        for m in &layers {
            println!(
                "layer {} {} {}",
                m.name,
                m.value.unwrap_or(f64::NAN),
                m.unit
            );
        }
        let self_times = trace::self_times(self.spans);
        for (name, t) in &self_times {
            println!(
                "self {name} count={} total_ms={:.3} self_ms={:.3}",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }

        let bad = self.violations(&layers);
        for b in &bad {
            println!("FAILED {b}");
        }
        let correct = bad.is_empty();

        let as_json = |m: &Metric| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                m.value.map_or("null".into(), num),
                m.unit
            )
        };
        let reported: Vec<String> = if a.trace {
            layers.iter().map(as_json).collect()
        } else {
            e2e.iter()
                .filter(|m| END_TO_END.contains(&m.name))
                .map(as_json)
                .collect()
        };
        let result = format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted(),
            self.failed(),
            reported.join(",")
        );

        let mut full = String::from("{");
        for (k, v) in &meta {
            let _ = write!(full, "\"{k}\":{v},");
        }
        let setup: Vec<String> = self
            .rounds
            .iter()
            .filter_map(|r| r.setup_s)
            .map(num)
            .collect();
        let _ = write!(full, "\"setup_s\":[{}],", setup.join(","));
        let _ = write!(full, "\"phases\":[{}],", phases.join(","));
        let e2e_json: Vec<String> = e2e.iter().map(as_json).collect();
        let _ = write!(full, "\"end_to_end\":{{{}}},", e2e_json.join(","));
        let layer_json: Vec<String> = layers.iter().map(as_json).collect();
        let _ = write!(full, "\"per_layer\":{{{}}},", layer_json.join(","));
        let selfs: Vec<String> = self_times
            .iter()
            .map(|(n, t)| {
                format!(
                    "\"{n}\":{{\"count\":{},\"total_ms\":{},\"self_ms\":{}}}",
                    t.count,
                    num(t.total_ns as f64 / 1e6),
                    num(t.self_ns as f64 / 1e6)
                )
            })
            .collect();
        let _ = write!(full, "\"self_time\":{{{}}},", selfs.join(","));
        let violations: Vec<String> = bad.iter().map(|b| format!("{b:?}")).collect();
        let _ = write!(
            full,
            "\"violations\":[{}],\"result\":{result}}}",
            violations.join(",")
        );

        let stem = format!("{}-seed{}-trace{}", a.workload, a.seed, u8::from(a.trace));
        std::fs::create_dir_all(out_dir)?;
        std::fs::write(out_dir.join(format!("{stem}.json")), full + "\n")?;
        if a.trace {
            std::fs::write(
                out_dir.join(format!("{stem}.spans.csv")),
                trace::to_csv(self.spans),
            )?;
        }
        println!("{result}");
        Ok(correct)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::FrameBytes;

    /// `(name, unit)` of every metric `BENCHMARK.json` declares, and its
    /// workload names.
    fn declared() -> (Vec<(String, String)>, Vec<String>) {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let mut metrics = Vec::new();
        let mut workloads = Vec::new();
        for entry in text.split("\"name\": \"").skip(1) {
            let name = entry.split('"').next().expect("quoted name").to_string();
            // Each entry runs to the next name, so only metrics have a unit.
            match entry.split("\"unit\": \"").nth(1) {
                Some(rest) => {
                    metrics.push((name, rest.split('"').next().expect("unit").to_string()))
                }
                None => workloads.push(name),
            }
        }
        (metrics, workloads)
    }

    #[test]
    fn benchmark_json_declares_exactly_what_a_run_reports() {
        let args = Args {
            workload: "office".into(),
            seed: 1,
            seconds: 1.0,
            trace: true,
        };
        let ctx = Ctx {
            seed: 1,
            gens: 1,
            slo_us: 500.0,
            work_dir: std::path::PathBuf::new(),
        };
        let report = Report {
            args: &args,
            nproc: 1,
            ctx: &ctx,
            rounds: &[],
            probed: None,
            spans: &[],
            rss_mb: 1.0,
        };
        let probed = Probed {
            frames: FrameBytes {
                req: 1.0,
                resp: 1.0,
            },
            rows_per_request: 1,
            ckpt_bytes: 1,
        };
        let mut reported: Vec<(String, String)> = report
            .per_layer(&probed)
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        reported.extend(
            report
                .end_to_end(Pass::Untraced)
                .iter()
                .filter(|m| END_TO_END.contains(&m.name))
                .map(|m| (m.name.to_string(), m.unit.to_string())),
        );
        let (mut declared, workloads) = declared();
        reported.sort();
        declared.sort();
        assert_eq!(reported, declared);
        assert_eq!(workloads, crate::WORKLOADS);
    }
}
