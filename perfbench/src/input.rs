//! Seeded update streams.
//!
//! Every batch comes from `EdgeStream` with a 50/50 insert/delete mix:
//! deleted edges go back to its insertion pool, so the stream never runs
//! dry and the graph size stays steady however long a run lasts.
//! `EdgeStream::next_batch` walks the whole edge set on every call, so
//! each call asks for a large chunk (the size of the insertion pool) that
//! is then cut into batches of the workload's size, each with an equal
//! share of the chunk's deletions and insertions. A chunk never touches
//! one edge twice, so its batches apply in order. Chunks are made on
//! demand, outside the timed region, so no batch repeats in a run of any
//! length and the input never has to be held in memory.

use std::collections::VecDeque;

use jetstream_graph::gen::{DatasetProfile, EdgeStream};
use jetstream_graph::{AdjacencyGraph, EdgeUpdate, UpdateBatch};

/// Share of the profile's edges held out of the base graph as the
/// insertion pool.
const HOLDOUT: f64 = 0.1;

/// A base graph and the endless batch sequence that runs over it.
pub struct Stream {
    pub base: AdjacencyGraph,
    edges: EdgeStream,
    batch_size: usize,
    pending: VecDeque<UpdateBatch>,
}

impl Stream {
    /// A stream of batches of `batch_size` updates over the profile's
    /// graph, split by `seed`.
    pub fn new(profile: DatasetProfile, scale: u32, batch_size: usize, seed: u64) -> Stream {
        let edges = EdgeStream::new(&profile.generate(scale), HOLDOUT, seed);
        Stream { base: edges.graph().clone(), edges, batch_size, pending: VecDeque::new() }
    }

    /// The next batch; the stream's batches apply in order from `base`.
    pub fn next_batch(&mut self) -> UpdateBatch {
        loop {
            if let Some(b) = self.pending.pop_front() {
                return b;
            }
            let chunk = self.edges.next_batch(self.edges.pool_len().max(self.batch_size), 0.5);
            self.pending.extend(split(&chunk, chunk.len().div_ceil(self.batch_size)));
        }
    }
}

/// Splits a batch into `parts` batches, each with an equal share of its
/// deletions and insertions. Any split of one batch applies in order,
/// because a batch never touches the same edge twice.
fn split(batch: &UpdateBatch, parts: usize) -> Vec<UpdateBatch> {
    split_updates(batch, parts).into_iter().map(|m| m.into_iter().collect()).collect()
}

/// Splits a batch into wire messages of at most about `per_msg` updates,
/// mixed as in [`split`].
pub fn messages(batch: &UpdateBatch, per_msg: usize) -> Vec<Vec<EdgeUpdate>> {
    split_updates(batch, batch.len().div_ceil(per_msg))
}

fn split_updates(batch: &UpdateBatch, parts: usize) -> Vec<Vec<EdgeUpdate>> {
    let dels: Vec<EdgeUpdate> = batch
        .deletions()
        .iter()
        .map(|&(source, target)| EdgeUpdate::Delete { source, target })
        .collect();
    let ins: Vec<EdgeUpdate> = batch
        .insertions()
        .iter()
        .map(|&(source, target, weight)| EdgeUpdate::Insert { source, target, weight })
        .collect();
    let n_msgs = parts.max(1);
    let mut out = vec![Vec::new(); n_msgs];
    for (i, u) in dels.into_iter().enumerate() {
        out[i * n_msgs / batch.deletions().len().max(1)].push(u);
    }
    for (i, u) in ins.into_iter().enumerate() {
        out[i * n_msgs / batch.insertions().len().max(1)].push(u);
    }
    out.retain(|m| !m.is_empty());
    out
}
