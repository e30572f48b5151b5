//! Point queries answered from converged engine state between batches.
//!
//! The server applies batches synchronously on its engine thread, so any
//! moment it reads these answers the engine is converged; queries never
//! force a flush (clients wanting read-your-writes send `Flush` first —
//! DESIGN.md §15.3).
//!
//! Queries read a [`QueryState`] — a borrowed view of the converged
//! values, dependency tree, and impacted set — so the same answer logic
//! serves every backend: the sequential [`StreamingEngine`] and the
//! [`ShardedEngine`] (superstep or async) convert into it for free.

use jetstream_algorithms::Algorithm;
use jetstream_core::{ShardedEngine, StreamingEngine};
use jetstream_graph::VertexId;

/// Borrowed converged state, the common query surface of every engine.
#[derive(Clone, Copy)]
pub struct QueryState<'a> {
    /// Converged per-vertex values.
    pub values: &'a [f64],
    /// Recorded `Leads-To` dependency parents (§5.2).
    pub dependencies: &'a [Option<VertexId>],
    /// Vertices reset by the most recent batch's delete recovery.
    pub impacted: &'a [VertexId],
    /// The evaluated algorithm: its initializer tells roots from
    /// unreached vertices.
    pub alg: &'a dyn Algorithm,
}

impl<'a> From<&'a StreamingEngine> for QueryState<'a> {
    fn from(engine: &'a StreamingEngine) -> Self {
        QueryState {
            values: engine.values(),
            dependencies: engine.dependencies(),
            impacted: engine.last_impacted(),
            alg: engine.algorithm(),
        }
    }
}

impl<'a> From<&'a ShardedEngine> for QueryState<'a> {
    fn from(engine: &'a ShardedEngine) -> Self {
        QueryState {
            values: engine.values(),
            dependencies: engine.dependencies(),
            impacted: engine.last_impacted(),
            alg: engine.algorithm(),
        }
    }
}

/// The converged value of `vertex`, or `None` when it is out of range.
pub fn vertex_value<'a>(state: impl Into<QueryState<'a>>, vertex: VertexId) -> Option<f64> {
    state.into().values.get(vertex as usize).copied()
}

/// The vertices impacted (reset during deletion recovery, Fig. 10) by the
/// most recent batch, ascending. Insert-only batches impact no vertices.
pub fn impacted<'a>(state: impl Into<QueryState<'a>>) -> Vec<VertexId> {
    let mut out = state.into().impacted.to_vec();
    out.sort_unstable();
    out
}

/// The dependence chain from the tree root to `vertex`, in root-first
/// order.
///
/// Walks the engine's recorded `Leads-To` dependencies (§5.2) backwards
/// from `vertex`; the walk is capped at `num_vertices` hops, so a
/// (never-expected) cycle in the recorded tree terminates instead of
/// spinning. Returns an empty chain when the vertex is out of range or
/// unreached: it has no recorded dependency and the algorithm's
/// initializer does not seed it (it is not a root).
pub fn dependence_path<'a>(state: impl Into<QueryState<'a>>, vertex: VertexId) -> Vec<VertexId> {
    let state = state.into();
    let deps = state.dependencies;
    // A vertex heads a chain only if it has a recorded parent or is a
    // root the initializer seeds; unreached vertices have no path.
    match deps.get(vertex as usize) {
        Some(Some(_)) => {}
        Some(None) if state.alg.initial_event(vertex).is_some() => {}
        _ => return Vec::new(),
    }
    let mut chain = vec![vertex];
    let mut at = vertex;
    for _ in 0..deps.len() {
        match deps.get(at as usize).copied().flatten() {
            Some(parent) => {
                if chain.contains(&parent) {
                    // Defensive cycle guard; a converged DAP tree is acyclic.
                    break;
                }
                chain.push(parent);
                at = parent;
            }
            None => break,
        }
    }
    chain.reverse();
    chain
}

#[cfg(test)]
mod tests {
    // Test code: aborting on setup failure is the right behavior here.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use jetstream_algorithms::Workload;
    use jetstream_core::{EngineConfig, StreamingEngine};
    use jetstream_graph::AdjacencyGraph;

    fn line_engine() -> StreamingEngine {
        let mut g = AdjacencyGraph::new(5);
        for v in 0..4u32 {
            g.insert_edge(v, v + 1, 1.0).unwrap();
        }
        let mut e = StreamingEngine::new(Workload::Sssp.instantiate(0), g, EngineConfig::default());
        e.initial_compute();
        e
    }

    #[test]
    fn value_query_bounds_checks() {
        let e = line_engine();
        assert_eq!(vertex_value(&e, 3), Some(3.0));
        assert_eq!(vertex_value(&e, 99), None);
    }

    #[test]
    fn dependence_path_walks_root_first() {
        let e = line_engine();
        assert_eq!(dependence_path(&e, 4), vec![0, 1, 2, 3, 4]);
        assert_eq!(dependence_path(&e, 0), vec![0]);
        assert!(dependence_path(&e, 99).is_empty());
    }

    #[test]
    fn unreached_vertex_has_an_empty_path() {
        // Vertex 3 has no in-edges: SSSP from 0 never reaches it, so it
        // keeps the identity value, no parent, and is not the root.
        let mut g = AdjacencyGraph::new(4);
        g.insert_edge(0, 1, 1.0).unwrap();
        g.insert_edge(1, 2, 1.0).unwrap();
        g.insert_edge(3, 2, 5.0).unwrap();
        let mut e = StreamingEngine::new(Workload::Sssp.instantiate(0), g, EngineConfig::default());
        e.initial_compute();
        assert_eq!(vertex_value(&e, 3), Some(f64::INFINITY));
        assert!(dependence_path(&e, 3).is_empty());
        assert_eq!(dependence_path(&e, 2), vec![0, 1, 2]);
        assert_eq!(dependence_path(&e, 0), vec![0]);
    }

    #[test]
    fn impacted_is_sorted() {
        let mut e = line_engine();
        let mut batch = jetstream_graph::UpdateBatch::new();
        // Deleting 1->2 severs the line: 2, 3, 4 are reset and recovered.
        batch.delete(1, 2);
        e.apply_update_batch(&batch).unwrap();
        let imp = impacted(&e);
        assert!(imp.windows(2).all(|w| w[0] < w[1]));
        assert!(imp.contains(&2), "{imp:?}");
    }
}
