//! Per-layer figures for the traced run: a workload's captured input is
//! replayed through each layer's public entry point, from outside the
//! program, with a span around every call.
//!
//! | layer            | entry point replayed                                  |
//! |------------------|-------------------------------------------------------|
//! | `graph.mutable`  | `AdjacencyGraph::apply_batch` on a copy               |
//! | `graph.dcsr`     | `CsrPair::apply_batch` on a copy                      |
//! | `core.engine`    | `StreamingEngine::{classify_batch, apply_update_batch}` |
//! | `core.queue`     | `queue_stats()` deltas around those applies           |
//! | `core.sharded`   | `ShardedEngine` (async, 2 shards) `apply_update_batch`  |
//! | `serve.protocol` | `encode_request` / `decode_request` per message       |
//! | `serve.admission`| `Admission::admit` over the message stream            |
//! | `serve.backend`  | `Backend::apply_admitted` on a fresh volatile backend |
//!
//! The graph replays are attributed as children of the engine apply span
//! of the same batch, so the engine's self time excludes graph upkeep.

use std::hint::black_box;

use jetstream_algorithms::UpdateKind;
use jetstream_core::{
    DeleteStrategy, EngineConfig, ExecutionMode, Phase, QueueStats, RunStats, ShardedEngine,
    StreamingEngine,
};
use jetstream_graph::{AdjacencyGraph, EdgeUpdate, UpdateBatch};
use jetstream_serve::admission::{Admission, FlushPolicy, SealedBatch};
use jetstream_serve::backend::Backend;
use jetstream_serve::protocol::{decode_request, encode_request, Request};

use crate::gate::Alg;
use crate::span::Spans;
use crate::util::{Metrics, Tally};

/// Shards of the async sharded replay.
const SHARDS: usize = 2;

/// One update message as a client sent it.
pub struct Msg {
    /// Send time, ns on the run's clock (drives admission deadlines).
    pub at_ns: u64,
    pub updates: Vec<EdgeUpdate>,
    /// The client asked for a flush right after this message.
    pub flush_after: bool,
}

/// A workload's input as the layers saw it.
pub struct Capture<'a> {
    pub alg: Alg,
    /// Graph state before the first batch.
    pub before: &'a AdjacencyGraph,
    /// Engine batches, in apply order.
    pub batches: &'a [UpdateBatch],
    /// Wire messages whose admission produced those batches.
    pub messages: &'a [Msg],
}

/// The streaming phases of a selective algorithm (`IntermediateCompute`
/// runs only for accumulative ones).
const STREAMING_PHASES: [Phase; 5] = [
    Phase::DeleteSetup,
    Phase::DeletePropagation,
    Phase::RequestSetup,
    Phase::InsertSetup,
    Phase::Recompute,
];

/// Replays `cap` through every layer; `phase_batches` of them again with
/// the engine's operation trace on.
pub fn replay(
    spans: &mut Spans,
    cap: &Capture,
    phase_batches: usize,
    tally: &mut Tally,
    m: &mut Metrics,
) {
    let updates: usize = cap.batches.iter().map(UpdateBatch::len).sum();
    let nb = cap.batches.len().max(1) as f64;
    let per_update = updates.max(1) as f64;

    // core.engine + core.queue, with the graph replays as children.
    let mut seq =
        StreamingEngine::new(cap.alg.build(), cap.before.clone(), EngineConfig::default());
    seq.initial_compute();
    let mut host = cap.before.clone();
    let mut csr = cap.before.snapshot_pair();
    let mut stats = RunStats::default();
    let (mut safe_del, mut dels) = (0usize, 0usize);
    let q0 = seq.queue_stats();
    for (i, b) in cap.batches.iter().enumerate() {
        let run = i as u64;
        let (_, class) = spans.time("core.engine.classify", None, run, || seq.classify_batch(b));
        safe_del += class.safe_deletes;
        dels += b.deletions().len();
        let (apply, res) = spans.time("core.engine.apply", None, run, || seq.apply_update_batch(b));
        tally.check(res.is_ok());
        stats += res.unwrap_or_default();
        let (_, r) = spans.time("graph.mutable.apply", Some(apply), run, || host.apply_batch(b));
        tally.check(r.is_ok());
        let (_, r) = spans.time("graph.dcsr.apply", Some(apply), run, || csr.apply_batch(b));
        tally.check(r.is_ok());
    }
    tally.check(cap.alg.matches(seq.values(), seq.graph()));
    let q = delta(seq.queue_stats(), q0);
    m.put("graph.mutable.apply_us_per_batch", spans.mean_ns("graph.mutable.apply") / 1e3, "us");
    m.put("graph.dcsr.apply_us_per_batch", spans.mean_ns("graph.dcsr.apply") / 1e3, "us");
    m.put("core.engine.apply_ms_per_batch", spans.mean_ns("core.engine.apply") / 1e6, "ms");
    m.put("core.engine.self_ms_per_batch", spans.mean_self_ns("core.engine.apply") / 1e6, "ms");
    m.put("core.engine.classify_us_per_batch", spans.mean_ns("core.engine.classify") / 1e3, "us");
    m.put("core.engine.safe_delete_frac", safe_del as f64 / dels.max(1) as f64, "frac");
    for (name, v) in [
        ("events_processed", stats.events_processed),
        ("events_generated", stats.events_generated),
        ("edge_reads", stats.edge_reads),
        ("vertex_writes", stats.vertex_writes),
        ("resets", stats.resets),
        ("delete_events", stats.delete_events),
        ("request_events", stats.request_events),
        ("rounds", stats.rounds),
        ("spilled_events", stats.spilled_events),
    ] {
        m.put(format!("core.engine.stats.{name}_per_batch"), v as f64 / nb, "count");
    }
    m.put("core.queue.inserts_per_update", q.inserts as f64 / per_update, "count");
    m.put("core.queue.coalesced_frac", q.coalesced as f64 / q.inserts.max(1) as f64, "frac");
    m.put("core.queue.overflowed_per_batch", q.overflowed as f64 / nb, "count");
    m.put("core.queue.drained_per_update", q.drained as f64 / per_update, "count");

    phase_counts(cap, phase_batches, m);

    // core.sharded, against the sequential replay above.
    let mut sharded =
        ShardedEngine::new(cap.alg.build(), cap.before.clone(), EngineConfig::default(), SHARDS);
    sharded.set_execution_mode(ExecutionMode::Async);
    sharded.initial_compute();
    let sq0 = sharded.queue_stats();
    let mut sharded_events = 0u64;
    for (i, b) in cap.batches.iter().enumerate() {
        let (_, r) =
            spans.time("core.sharded.apply", None, i as u64, || sharded.apply_update_batch(b));
        tally.check(r.is_ok());
        sharded_events += r.map_or(0, |s| s.events_processed);
    }
    tally.check(cap.alg.matches(sharded.values(), sharded.graph()));
    let sq = delta(sharded.queue_stats(), sq0);
    m.put("core.sharded.apply_ms_per_batch", spans.mean_ns("core.sharded.apply") / 1e6, "ms");
    m.put(
        "core.sharded.queue_inserts_vs_seq",
        sq.inserts as f64 / q.inserts.max(1) as f64,
        "ratio",
    );
    m.put(
        "core.sharded.events_processed_vs_seq",
        sharded_events as f64 / stats.events_processed.max(1) as f64,
        "ratio",
    );

    serve_layers(spans, cap, tally, m);
}

fn delta(after: QueueStats, before: QueueStats) -> QueueStats {
    QueueStats {
        inserts: after.inserts - before.inserts,
        coalesced: after.coalesced - before.coalesced,
        overflowed: after.overflowed - before.overflowed,
        drained: after.drained - before.drained,
    }
}

/// Per-phase operation, edge-read and round counts from the engine's own
/// operation trace (`set_tracing` / `take_trace`), per batch.
fn phase_counts(cap: &Capture, n: usize, m: &mut Metrics) {
    let mut e = StreamingEngine::new(cap.alg.build(), cap.before.clone(), EngineConfig::default());
    e.initial_compute();
    e.set_tracing(true);
    let mut sums = [(0u64, 0u64, 0u64); STREAMING_PHASES.len()];
    let batches = &cap.batches[..n.min(cap.batches.len())];
    for b in batches {
        if e.apply_update_batch(b).is_err() {
            break;
        }
        let trace = e.take_trace();
        for p in &trace.phases {
            let Some(k) = STREAMING_PHASES.iter().position(|&q| q == p.phase) else { continue };
            sums[k].2 += p.rounds.len() as u64;
            for r in &p.rounds {
                sums[k].0 += r.ops.len() as u64;
                sums[k].1 += r.ops.iter().map(|o| u64::from(o.edges_read)).sum::<u64>();
            }
        }
    }
    let nb = batches.len().max(1) as f64;
    for (phase, (ops, edges, rounds)) in STREAMING_PHASES.iter().zip(sums) {
        let label = phase.label();
        m.put(format!("core.engine.phase.{label}.ops_per_batch"), ops as f64 / nb, "count");
        m.put(
            format!("core.engine.phase.{label}.edges_read_per_batch"),
            edges as f64 / nb,
            "count",
        );
        m.put(format!("core.engine.phase.{label}.rounds_per_batch"), rounds as f64 / nb, "count");
    }
}

fn serve_layers(spans: &mut Spans, cap: &Capture, tally: &mut Tally, m: &mut Metrics) {
    // serve.protocol: every message through the codec.
    let (mut bytes, mut updates) = (0usize, 0usize);
    for (i, msg) in cap.messages.iter().enumerate() {
        let req = Request::Update { token: i as u64, updates: msg.updates.clone() };
        let (_, wire) =
            spans.time("serve.protocol.encode", None, i as u64, || encode_request(black_box(&req)));
        let (_, back) = spans
            .time("serve.protocol.decode", None, i as u64, || decode_request(black_box(&wire)));
        tally.check(back.as_ref() == Ok(&req));
        bytes += wire.len();
        updates += msg.updates.len();
    }
    let per_update = updates.max(1) as f64;
    m.put(
        "serve.protocol.encode_ns_per_update",
        spans.total_ns("serve.protocol.encode") / per_update,
        "ns",
    );
    m.put(
        "serve.protocol.decode_ns_per_update",
        spans.total_ns("serve.protocol.decode") / per_update,
        "ns",
    );
    m.put("serve.protocol.bytes_per_update", bytes as f64 / per_update, "B");

    // serve.admission: the message stream through a fresh front-end over
    // an evolving copy of the graph; sealed batches apply to the copy.
    let mut adm = Admission::fresh(FlushPolicy::default());
    let mut graph = cap.before.clone();
    let mut sealed_sizes = Vec::new();
    let mut absorb = |graph: &mut AdjacencyGraph, s: SealedBatch, tally: &mut Tally| {
        sealed_sizes.push(s.batch.len());
        tally.check(graph.apply_batch(&s.batch).is_ok());
    };
    for (i, msg) in cap.messages.iter().enumerate() {
        if let Some(s) = adm.flush_due(msg.at_ns) {
            absorb(&mut graph, s, tally);
        }
        let (_, r) = spans.time("serve.admission.admit", None, i as u64, || {
            adm.admit(1, i as u64, &msg.updates, &graph, msg.at_ns)
        });
        tally.check(r.is_ok());
        for s in r.map(|ok| ok.sealed).unwrap_or_default() {
            absorb(&mut graph, s, tally);
        }
        if msg.flush_after {
            if let Some(s) = adm.force_flush() {
                absorb(&mut graph, s, tally);
            }
        }
    }
    if let Some(s) = adm.force_flush() {
        absorb(&mut graph, s, tally);
    }
    m.put(
        "serve.admission.admit_ns_per_update",
        spans.total_ns("serve.admission.admit") / per_update,
        "ns",
    );
    m.put(
        "serve.admission.updates_per_batch",
        sealed_sizes.iter().sum::<usize>() as f64 / sealed_sizes.len().max(1) as f64,
        "count",
    );

    // serve.backend: the engine batches through a fresh volatile backend.
    let mut engine =
        StreamingEngine::new(cap.alg.build(), cap.before.clone(), EngineConfig::default());
    engine.initial_compute();
    let mut backend = Backend::Volatile(Box::new(engine));
    let fast_eligible = backend.config().delete_strategy == DeleteStrategy::Dap
        && backend.algorithm().kind() == UpdateKind::Selective;
    let (mut fast, mut safe, mut total_updates) = (0usize, 0usize, 0usize);
    for (i, b) in cap.batches.iter().enumerate() {
        let (_, r) =
            spans.time("serve.backend.apply", None, i as u64, || backend.apply_admitted(b));
        tally.check(r.is_ok());
        if let Ok((_, class)) = r {
            fast +=
                usize::from(fast_eligible && class.all_deletes_safe() && !b.deletions().is_empty());
            safe += class.safe();
            total_updates += b.len();
        }
    }
    m.put("serve.backend.apply_ms_per_batch", spans.mean_ns("serve.backend.apply") / 1e6, "ms");
    m.put("serve.admission.fast_path_frac", fast as f64 / cap.batches.len().max(1) as f64, "frac");
    m.put("serve.admission.safe_update_frac", safe as f64 / total_updates.max(1) as f64, "frac");
}
