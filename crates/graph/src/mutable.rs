use crate::{Csr, CsrPair, GraphError, UpdateBatch, VertexId, Weight};

/// Host-side mutable, versioned graph.
///
/// The paper leaves evolving-edge-list maintenance to a software graph
/// versioning framework on the host (§4.7) which, after each batch, writes a
/// fresh CSR for the mutated graph into accelerator memory and swaps the
/// pointer. `AdjacencyGraph` is that framework: a simple directed graph with
/// a monotonically increasing version counter whose rows *are* the CSR the
/// engines read — a thin validating shell over the gapped, delta-maintained
/// [`CsrPair`] of DESIGN.md §17, exposed through [`pair`](Self::pair).
/// [`snapshot`](AdjacencyGraph::snapshot) /
/// [`snapshot_pair`](AdjacencyGraph::snapshot_pair) still produce dense
/// from-scratch CSR images.
///
/// Rows are sorted by target, so iteration order is deterministic and
/// lookups are a binary search (`O(log degree)`); an edit shifts within the
/// row's slack (`O(degree)`). Every mutation is validated before anything
/// changes, so errors leave the graph — rows and arena layout — untouched.
#[derive(Debug, Clone, Default)]
pub struct AdjacencyGraph {
    pair: CsrPair,
    version: u64,
    // Reusable validation scratch for `validate_batch`: sorted probe slices
    // that replace per-batch set allocations. Always empty between calls;
    // excluded from equality.
    scratch_deleted: Vec<(VertexId, VertexId)>,
    scratch_pending: Vec<(VertexId, VertexId)>,
}

/// Two graphs are equal when they have the same vertices and edges; the
/// version counter and the CSR's physical layout are maintenance metadata
/// and do not affect equality.
impl PartialEq for AdjacencyGraph {
    fn eq(&self, other: &Self) -> bool {
        self.pair == other.pair
    }
}

/// A batch that [`AdjacencyGraph::validate_batch`] accepted against one
/// version of the graph; [`AdjacencyGraph::commit_batch`] applies it.
///
/// Splitting validation from the commit lets a caller read the *old*
/// adjacency after it knows the batch is valid — the selective flow runs
/// delete propagation on the pre-batch rows and commits at the §3.5 swap
/// point.
#[derive(Debug)]
#[must_use = "a validated batch does nothing until it is committed"]
pub struct ValidatedBatch<'b> {
    batch: &'b UpdateBatch,
    version: u64,
}

impl AdjacencyGraph {
    /// Creates a graph with `num_vertices` vertices and no edges.
    pub fn new(num_vertices: usize) -> Self {
        AdjacencyGraph::from_pair(CsrPair::new(Csr::empty(num_vertices)))
    }

    fn from_pair(pair: CsrPair) -> Self {
        AdjacencyGraph {
            pair,
            version: 0,
            scratch_deleted: Vec::new(),
            scratch_pending: Vec::new(),
        }
    }

    /// Builds a graph from an edge list, ignoring duplicate edges (the
    /// first occurrence wins), self-loops and out-of-range endpoints
    /// (common in raw synthetic edge streams).
    pub fn from_edges(num_vertices: usize, edges: &[(VertexId, VertexId, Weight)]) -> Self {
        // cast-ok: VertexId is u32 -> usize is lossless on the >=32-bit targets we support
        let in_range = |v: VertexId| (v as usize) < num_vertices;
        let mut kept: Vec<(VertexId, VertexId, Weight)> = edges
            .iter()
            .copied()
            .filter(|&(u, v, _)| u != v && in_range(u) && in_range(v))
            .collect();
        // Stable sort: the first occurrence of a pair stays first, and
        // `dedup_by_key` keeps it.
        kept.sort_by_key(|&(u, v, _)| (u, v));
        kept.dedup_by_key(|&mut (u, v, _)| (u, v));
        AdjacencyGraph::from_pair(CsrPair::new(Csr::from_edges(num_vertices, &kept)))
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.pair.num_vertices()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.pair.num_edges()
    }

    /// Version counter; incremented once per successful mutation or batch.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The maintained out- and in-edge CSR of the current version — the
    /// image the engines traverse (no copy, no rebuild).
    pub fn pair(&self) -> &CsrPair {
        &self.pair
    }

    fn check_vertex(&self, v: VertexId) -> Result<(), GraphError> {
        // cast-ok: VertexId is u32 -> usize is lossless on the >=32-bit targets we support
        if (v as usize) < self.num_vertices() {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange { vertex: v, num_vertices: self.num_vertices() })
        }
    }

    /// Inserts edge `u -> v` with `weight`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::DuplicateEdge`] if the edge exists,
    /// [`GraphError::SelfLoop`] if `u == v`, or
    /// [`GraphError::VertexOutOfRange`] for bad endpoints.
    pub fn insert_edge(
        &mut self,
        u: VertexId,
        v: VertexId,
        weight: Weight,
    ) -> Result<(), GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        self.pair.out.insert_sorted(u, v, weight)?;
        #[allow(clippy::expect_used)] // invariant: the in-view mirrors the out-view
        self.pair.inc.insert_sorted(v, u, weight).expect("invariant: in-view mirrors out-view");
        self.pair.maybe_compact();
        self.version += 1;
        Ok(())
    }

    /// Removes edge `u -> v`, returning its weight.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingEdge`] if absent or
    /// [`GraphError::VertexOutOfRange`] for bad endpoints.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> Result<Weight, GraphError> {
        let w = self.pair.out.remove_sorted(u, v)?;
        #[allow(clippy::expect_used)] // invariant: the in-view mirrors the out-view
        self.pair.inc.remove_sorted(v, u).expect("invariant: in-view mirrors out-view");
        self.pair.maybe_compact();
        self.version += 1;
        Ok(w)
    }

    /// Weight of edge `u -> v`, if present.
    pub fn edge_weight(&self, u: VertexId, v: VertexId) -> Option<Weight> {
        self.pair.out.edge_weight(u, v)
    }

    /// True if edge `u -> v` exists.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.pair.out.has_edge(u, v)
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: VertexId) -> usize {
        self.pair.out.degree(v)
    }

    /// Iterates `v`'s out-edges in ascending target order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = (VertexId, Weight)> + '_ {
        self.pair.out.neighbors(v).map(|e| (e.other, e.weight))
    }

    /// Applies a whole update batch atomically: validates every update first,
    /// then mutates. On error the graph is unchanged.
    ///
    /// Deletions are validated against the pre-batch graph and insertions
    /// must not duplicate surviving edges. A batch may delete an edge and
    /// re-insert it (a weight change), but may delete each edge at most
    /// once.
    ///
    /// # Errors
    ///
    /// Returns the first validation error found; the graph is left untouched.
    // hot-path
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<(), GraphError> {
        let validated = self.validate_batch(batch)?;
        self.commit_batch(validated);
        Ok(())
    }

    /// The validation half of [`apply_batch`](Self::apply_batch): checks
    /// `batch` against the current version without changing the graph.
    ///
    /// # Errors
    ///
    /// Returns the first validation error found, in the order
    /// [`apply_batch`](Self::apply_batch) documents.
    // hot-path
    pub fn validate_batch<'b>(
        &mut self,
        batch: &'b UpdateBatch,
    ) -> Result<ValidatedBatch<'b>, GraphError> {
        let mut deleted = std::mem::take(&mut self.scratch_deleted);
        let mut pending = std::mem::take(&mut self.scratch_pending);
        let result = self.validate_with(batch, &mut deleted, &mut pending);
        deleted.clear();
        pending.clear();
        self.scratch_deleted = deleted;
        self.scratch_pending = pending;
        result.map(|()| ValidatedBatch { batch, version: self.version })
    }

    // hot-path
    fn validate_with(
        &self,
        batch: &UpdateBatch,
        deleted: &mut Vec<(VertexId, VertexId)>,
        pending: &mut Vec<(VertexId, VertexId)>,
    ) -> Result<(), GraphError> {
        // Validate deletions against the pre-batch graph. A batch may
        // delete each edge at most once; a repeat is deleting an edge the
        // batch already removed.
        deleted.extend_from_slice(batch.deletions());
        deleted.sort_unstable();
        for (a, b) in deleted.iter().zip(deleted.iter().skip(1)) {
            if a == b {
                return Err(GraphError::MissingEdge { source: a.0, target: a.1 });
            }
        }
        for &(u, v) in batch.deletions() {
            self.check_vertex(u)?;
            self.check_vertex(v)?;
            if !self.has_edge(u, v) {
                return Err(GraphError::MissingEdge { source: u, target: v });
            }
        }
        // Validate insertions against the graph state after deletions,
        // probing the sorted scratch slices instead of allocating sets.
        pending.extend(batch.insertions().iter().map(|&(u, v, _)| (u, v)));
        pending.sort_unstable();
        for (a, b) in pending.iter().zip(pending.iter().skip(1)) {
            if a == b {
                return Err(GraphError::DuplicateEdge { source: a.0, target: a.1 });
            }
        }
        for &(u, v, _) in batch.insertions() {
            self.check_vertex(u)?;
            self.check_vertex(v)?;
            if u == v {
                return Err(GraphError::SelfLoop { vertex: u });
            }
            if self.has_edge(u, v) && deleted.binary_search(&(u, v)).is_err() {
                return Err(GraphError::DuplicateEdge { source: u, target: v });
            }
        }
        Ok(())
    }

    /// The commit half of [`apply_batch`](Self::apply_batch): applies a
    /// batch validated against this version, maintaining both CSR views in
    /// place.
    ///
    /// # Panics
    ///
    /// Panics if the graph changed since `validated` was produced.
    // hot-path
    pub fn commit_batch(&mut self, validated: ValidatedBatch<'_>) {
        assert_eq!(validated.version, self.version, "invariant: commit of a stale validation");
        #[allow(clippy::expect_used)] // invariant: the batch was validated against this version
        self.pair
            .apply_batch(validated.batch)
            .expect("invariant: a validated batch applies to its graph version");
        self.version += 1;
    }

    /// Produces the dense out-edge CSR snapshot of the current version.
    pub fn snapshot(&self) -> Csr {
        let edges: Vec<(VertexId, VertexId, Weight)> = self.iter_edges().collect();
        Csr::from_edges(self.num_vertices(), &edges)
    }

    /// Produces both out-edge and in-edge CSR snapshots, rebuilt from
    /// scratch (dense, independent of the maintained layout).
    pub fn snapshot_pair(&self) -> CsrPair {
        CsrPair::new(self.snapshot())
    }

    /// Iterates all edges as `(source, target, weight)` triples.
    pub fn iter_edges(&self) -> impl Iterator<Item = (VertexId, VertexId, Weight)> + '_ {
        self.pair.out.iter_edges()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_delete_roundtrip() {
        let mut g = AdjacencyGraph::new(3);
        g.insert_edge(0, 1, 5.0).expect("insert of an in-range edge should succeed");
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(5.0));
        assert_eq!(g.delete_edge(0, 1).expect("insert of an in-range edge should succeed"), 5.0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut g = AdjacencyGraph::new(3);
        g.insert_edge(0, 1, 5.0).expect("insert of an in-range edge should succeed");
        assert_eq!(
            g.insert_edge(0, 1, 6.0),
            Err(GraphError::DuplicateEdge { source: 0, target: 1 })
        );
    }

    #[test]
    fn self_loop_rejected() {
        let mut g = AdjacencyGraph::new(3);
        assert_eq!(g.insert_edge(1, 1, 1.0), Err(GraphError::SelfLoop { vertex: 1 }));
    }

    #[test]
    fn missing_delete_rejected() {
        let mut g = AdjacencyGraph::new(3);
        assert_eq!(g.delete_edge(0, 2), Err(GraphError::MissingEdge { source: 0, target: 2 }));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut g = AdjacencyGraph::new(2);
        assert!(matches!(
            g.insert_edge(0, 9, 1.0),
            Err(GraphError::VertexOutOfRange { vertex: 9, .. })
        ));
    }

    #[test]
    fn snapshot_matches_graph() {
        let mut g = AdjacencyGraph::new(4);
        g.insert_edge(0, 1, 1.0).expect("insert of an in-range edge should succeed");
        g.insert_edge(0, 2, 2.0).expect("insert of an in-range edge should succeed");
        g.insert_edge(2, 3, 3.0).expect("insert of an in-range edge should succeed");
        let csr = g.snapshot();
        assert_eq!(csr.num_edges(), 3);
        assert_eq!(csr.edge_weight(0, 2), Some(2.0));
        assert_eq!(csr.edge_weight(2, 3), Some(3.0));
        assert_eq!(g.snapshot_pair(), *g.pair());
    }

    #[test]
    fn batch_application_is_atomic_on_error() {
        let mut g = AdjacencyGraph::new(4);
        g.insert_edge(0, 1, 1.0).expect("insert of an in-range edge should succeed");
        let before = g.clone();
        let mut batch = UpdateBatch::new();
        batch.insert(1, 2, 1.0);
        batch.delete(2, 3); // missing: must abort the whole batch
        assert!(g.apply_batch(&batch).is_err());
        assert_eq!(g, before);
    }

    #[test]
    fn batch_weight_change_delete_then_insert() {
        let mut g = AdjacencyGraph::new(3);
        g.insert_edge(0, 1, 1.0).expect("insert of an in-range edge should succeed");
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        batch.insert(0, 1, 9.0);
        g.apply_batch(&batch).expect("batch touches only in-range vertices");
        assert_eq!(g.edge_weight(0, 1), Some(9.0));
        assert_eq!(g.pair().inc.edge_weight(1, 0), Some(9.0));
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn batch_duplicate_insert_of_surviving_edge_rejected() {
        let mut g = AdjacencyGraph::new(3);
        g.insert_edge(0, 1, 1.0).expect("insert of an in-range edge should succeed");
        let mut batch = UpdateBatch::new();
        batch.insert(0, 1, 2.0);
        assert!(g.apply_batch(&batch).is_err());
    }

    #[test]
    fn batch_double_insert_same_edge_rejected() {
        let mut g = AdjacencyGraph::new(3);
        let mut batch = UpdateBatch::new();
        batch.insert(0, 1, 2.0);
        batch.insert(0, 1, 3.0);
        assert!(g.apply_batch(&batch).is_err());
    }

    #[test]
    fn batch_double_delete_same_edge_rejected() {
        let mut g = AdjacencyGraph::new(3);
        g.insert_edge(0, 1, 1.0).expect("insert of an in-range edge should succeed");
        let before = g.clone();
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        batch.delete(0, 1); // would corrupt num_edges if committed
        assert!(g.apply_batch(&batch).is_err());
        assert_eq!(g, before);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn version_increments() {
        let mut g = AdjacencyGraph::new(3);
        assert_eq!(g.version(), 0);
        g.insert_edge(0, 1, 1.0).expect("insert of an in-range edge should succeed");
        assert_eq!(g.version(), 1);
        let mut batch = UpdateBatch::new();
        batch.insert(1, 2, 1.0);
        g.apply_batch(&batch).expect("batch touches only in-range vertices");
        assert_eq!(g.version(), 2);
    }

    #[test]
    fn from_edges_skips_duplicates_and_loops() {
        let g = AdjacencyGraph::from_edges(
            3,
            &[(0, 1, 1.0), (0, 1, 2.0), (2, 2, 3.0), (0, 3, 1.0), (3, 0, 1.0)],
        );
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0, 1), Some(1.0));
        assert_eq!(g.pair().validate(), Ok(()));
    }

    // Id == num_vertices is the first out-of-range id: a batch naming it
    // is rejected with the exact vertex count, before anything changes.
    #[test]
    fn batch_vertex_equal_to_the_count_is_rejected() {
        let mut g = AdjacencyGraph::new(3);
        g.insert_edge(0, 1, 1.0).expect("insert of an in-range edge should succeed");
        let mut batch = UpdateBatch::new();
        batch.insert(1, 2, 1.0);
        batch.insert(0, 3, 1.0);
        assert_eq!(
            g.apply_batch(&batch),
            Err(GraphError::VertexOutOfRange { vertex: 3, num_vertices: 3 })
        );
        let mut batch = UpdateBatch::new();
        batch.delete(3, 0);
        assert_eq!(
            g.apply_batch(&batch),
            Err(GraphError::VertexOutOfRange { vertex: 3, num_vertices: 3 })
        );
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.version(), 1);
    }

    #[test]
    fn validate_then_commit_reads_old_rows_in_between() {
        let mut g = AdjacencyGraph::new(3);
        g.insert_edge(0, 1, 1.0).expect("insert of an in-range edge should succeed");
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        batch.insert(1, 2, 2.0);
        let validated = g.validate_batch(&batch).expect("batch is valid");
        // Validation changes nothing: the old rows stay readable.
        assert_eq!(g.version(), 1);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 2));
        g.commit_batch(validated);
        assert_eq!(g.version(), 2);
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.pair().inc.edge_weight(2, 1), Some(2.0));
    }

    #[test]
    #[should_panic(expected = "stale validation")]
    fn commit_of_a_stale_validation_panics() {
        let mut g = AdjacencyGraph::new(3);
        let mut batch = UpdateBatch::new();
        batch.insert(0, 1, 1.0);
        let validated = g.validate_batch(&batch).expect("batch is valid");
        g.insert_edge(0, 1, 5.0).expect("insert of an in-range edge should succeed");
        g.commit_batch(validated);
    }

    #[test]
    fn insert_edge_errors_leave_both_views_untouched() {
        let mut g = AdjacencyGraph::new(3);
        g.insert_edge(0, 1, 1.0).expect("insert of an in-range edge should succeed");
        let before = g.clone();
        assert!(g.insert_edge(0, 1, 2.0).is_err());
        assert!(g.insert_edge(2, 2, 2.0).is_err());
        assert!(g.insert_edge(0, 3, 2.0).is_err());
        assert!(g.delete_edge(1, 0).is_err());
        assert_eq!(g, before);
        assert_eq!(g.version(), before.version());
        assert_eq!(g.pair().validate(), Ok(()));
    }
}
