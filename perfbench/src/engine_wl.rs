//! The engine workloads: a closed loop of update batches through the
//! sequential library engine, in-process.
//!
//! * `bfs-lj` — BFS on the highly connected LJ profile, DAP.
//! * `sssp-wk` — SSSP on the narrow, long-path WK profile, DAP.
//!
//! Batches run back to back. The library engine is synchronous, so the
//! open-loop figures (`converge_*`, `query_*`, `sustained_updates_per_s`)
//! queue the measured per-batch service times through fixed offered
//! rates ([`ladder::lindley`]). Queries are read-your-writes: a caller
//! reads a vertex right behind each batch it submits.

use std::hint::black_box;
use std::time::Instant;

use jetstream_core::{EngineConfig, StreamingEngine};
use jetstream_graph::gen::DatasetProfile;
use jetstream_graph::rng::DetRng;
use jetstream_graph::{UpdateBatch, VertexId};
use jetstream_serve::queries;

use crate::gate::Alg;
use crate::input::{self, Stream};
use crate::ladder::{self, Rung};
use crate::layers::{self, Capture, Msg};
use crate::span::Spans;
use crate::util::{median, percentile, Metrics, Tally};
use crate::Args;

pub struct EngineSpec {
    pub profile: DatasetProfile,
    pub scale: u32,
    pub alg: Alg,
    /// The low and the high fixed offered rate, updates/s. The
    /// sustained-rate ladder starts at `low_rate`.
    pub low_rate: f64,
    pub high_rate: f64,
    /// Converge p99 limit of a passing rung, ms.
    pub p99_limit_ms: f64,
}

/// Engine constructions plus initial computes timed for `setup_s`.
const SETUP_REPS: usize = 40;
/// Point queries timed together after each batch; their mean is one
/// query's service time.
const QUERIES_PER_BATCH: usize = 16;
/// Batches between correctness checkpoints (and one after the loop).
const CHECK_EVERY: usize = 256;
/// Batches replayed through every layer in the traced run.
const REPLAY_BATCHES: usize = 96;
/// Of those, batches replayed again with the engine's operation trace on.
const PHASE_BATCHES: usize = 32;
/// Updates per wire message when the batches are replayed through the
/// serving layers.
const MSG_UPDATES: usize = 32;

#[derive(Default)]
struct ClosedLoop {
    service_ms: Vec<f64>,
    sizes: Vec<usize>,
    query_ms: Vec<f64>,
    /// The first batches applied, kept for the layer replays.
    kept: Vec<UpdateBatch>,
}

/// One run's input and bookkeeping.
struct Runner<'a> {
    spec: &'a EngineSpec,
    stream: Stream,
    tally: Tally,
    rng: DetRng,
}

impl Runner<'_> {
    /// Applies the stream's next batches until `budget_s` of apply time
    /// has been spent, keeping the first `keep` of them, and checking
    /// correctness every [`CHECK_EVERY`] batches and at the end, outside
    /// the timed region. With `spans`, each batch is a span with the apply
    /// as its child.
    fn closed_loop(
        &mut self,
        eng: &mut StreamingEngine,
        budget_s: f64,
        keep: usize,
        mut spans: Option<&mut Spans>,
    ) -> ClosedLoop {
        let mut out = ClosedLoop::default();
        let n = eng.values().len() as u64;
        let mut spent_ms = 0.0;
        while spent_ms < budget_s * 1e3 {
            let run = out.service_ms.len() as u64;
            let batch = self.stream.next_batch();
            let t = Instant::now();
            let ok = match spans.as_deref_mut() {
                None => eng.apply_update_batch(black_box(&batch)).is_ok(),
                Some(sp) => {
                    let root = sp.open("batch", None, run);
                    let (_, r) = sp.time("core.engine.apply", Some(root), run, || {
                        eng.apply_update_batch(black_box(&batch))
                    });
                    sp.close(root);
                    r.is_ok()
                }
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            out.service_ms.push(ms);
            out.sizes.push(batch.len());
            self.tally.check(ok);
            spent_ms += ms;
            let q = Instant::now();
            for _ in 0..QUERIES_PER_BATCH {
                black_box(query(eng, black_box((self.rng.next_u64() % n) as u32)));
            }
            out.query_ms.push(q.elapsed().as_secs_f64() * 1e3 / QUERIES_PER_BATCH as f64);
            if out.kept.len() < keep {
                out.kept.push(batch);
            }
            if out.service_ms.len().is_multiple_of(CHECK_EVERY) {
                self.checkpoint(eng);
            }
        }
        self.checkpoint(eng);
        out
    }

    /// `validate_converged` plus the oracle on the engine's current graph.
    fn checkpoint(&mut self, eng: &StreamingEngine) {
        let valid = eng.validate_converged();
        if let Err(e) = &valid {
            eprintln!("perfbench: gate miss: validate_converged: {e}");
        }
        self.tally.check(valid.is_ok());
        self.tally.check(self.spec.alg.matches(eng.values(), eng.graph()));
    }
}

/// A point query as the server answers it: the vertex's value and its
/// dependence path. Returns something derived from both so the work
/// cannot be optimised away.
fn query(eng: &StreamingEngine, v: VertexId) -> f64 {
    let value = queries::vertex_value(eng, v).unwrap_or(f64::NAN);
    value + queries::dependence_path(eng, v).len() as f64
}

/// Read-your-writes point-query latency at offered rate `rate`: each
/// batch's caller reads a vertex right after submitting the batch, so the
/// query is due with the batch, waits for it to converge, then takes the
/// measured query time.
fn query_latency(cl: &ClosedLoop, rate: f64) -> Vec<f64> {
    let (due, done) = ladder::lindley(&cl.service_ms, &cl.sizes, rate);
    due.iter().zip(&done).zip(&cl.query_ms).map(|((d, c), q)| (c - d) * 1e3 + q).collect()
}

pub fn run(spec: &EngineSpec, args: &Args) -> (Tally, Metrics) {
    let batch_size = spec.profile.scaled_batch(100_000, spec.scale);
    let stream = Stream::new(spec.profile, spec.scale, batch_size, args.seed);
    let mut d =
        Runner { spec, stream, tally: Tally::default(), rng: DetRng::seed_from_u64(args.seed) };

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut eng = None;
    for _ in 0..SETUP_REPS {
        let graph = d.stream.base.clone();
        let t = Instant::now();
        let mut e = StreamingEngine::new(spec.alg.build(), graph, EngineConfig::default());
        e.initial_compute();
        setup_s.push(t.elapsed().as_secs_f64());
        eng = Some(e);
    }
    let mut eng = eng.expect("invariant: SETUP_REPS > 0 builds an engine");
    d.checkpoint(&eng);

    let mut m = Metrics::default();
    if !args.trace {
        let cl = d.closed_loop(&mut eng, args.seconds, 0, None);
        let total_ms: f64 = cl.service_ms.iter().sum();
        m.put("setup_s", median(&setup_s), "s");
        m.put("updates_per_s", cl.sizes.iter().sum::<usize>() as f64 / (total_ms / 1e3), "1/s");
        m.put("batch_p50_ms", percentile(&cl.service_ms, 0.5), "ms");
        m.put("batch_p90_ms", percentile(&cl.service_ms, 0.9), "ms");
        m.put(
            "sustained_updates_per_s",
            ladder::sustained(&cl.service_ms, &cl.sizes, spec.low_rate, spec.p99_limit_ms),
            "1/s",
        );
        for (tag, rate) in [("low", spec.low_rate), ("high", spec.high_rate)] {
            let rung = Rung::new(&cl.service_ms, &cl.sizes, rate);
            m.put(format!("converge_p50_ms.{tag}"), rung.p50(), "ms");
            m.put(format!("converge_p99_ms.{tag}"), rung.p99(), "ms");
        }
        let q = query_latency(&cl, spec.high_rate);
        m.put("query_p50_ms", percentile(&q, 0.5), "ms");
        m.put("query_p99_ms", percentile(&q, 0.99), "ms");
        m.put("peak_rss_mb", crate::util::peak_rss_mb(), "MB");
        m.put("error_rate", d.tally.error_rate(), "frac");
        return (d.tally, m);
    }

    // Traced run: an untraced half for the overhead baseline, a traced
    // half with a span per batch, then the first traced batches replayed
    // through every layer.
    let half = args.seconds / 2.0;
    let plain = d.closed_loop(&mut eng, half, 0, None);
    let before = eng.graph().clone();
    let mut spans = Spans::new();
    let traced = d.closed_loop(&mut eng, half, REPLAY_BATCHES, Some(&mut spans));
    let overhead = spans.mean_ns("batch") / 1e6 / crate::util::mean(&plain.service_ms) - 1.0;
    let batches = traced.kept;
    let messages: Vec<Msg> = batches
        .iter()
        .enumerate()
        .flat_map(|(i, b)| {
            let msgs = input::messages(b, MSG_UPDATES);
            let last = msgs.len() - 1;
            msgs.into_iter().enumerate().map(move |(k, updates)| Msg {
                at_ns: i as u64 * 1_000_000,
                updates,
                flush_after: k == last,
            })
        })
        .collect();
    let cap = Capture { alg: spec.alg, before: &before, batches: &batches, messages: &messages };
    layers::replay(&mut spans, &cap, PHASE_BATCHES, &mut d.tally, &mut m);
    m.put("trace.overhead_frac", overhead, "frac");
    if let Some(path) = &args.trace_out {
        if let Err(e) = spans.write_jsonl(path) {
            eprintln!("perfbench: writing {}: {e}", path.display());
            d.tally.check(false);
        }
    }
    (d.tally, m)
}
