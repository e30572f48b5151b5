//! Delta maintenance for the gapped CSR (DESIGN.md §17).
//!
//! The paper's host loop (§4.7) conceptually writes a *fresh* CSR after
//! every batch; rebuilding is `O(E)` even when the batch touches a handful
//! of rows. This module makes the [`Csr`] of `csr.rs` *delta-maintainable*
//! instead: [`CsrPair::apply_batch`] edits both the out- and in-edge views
//! in place in `O(Σ degree(touched) · log degree)` — binary-search each
//! touched row, shift within the row's slack, and only relocate a row to
//! the arena tail when it outgrows its slots (PMA-style amortized growth).
//! Deletes shift within the row and leave the freed slot as reusable
//! slack; relocation abandons the old extent as a tombstoned hole. When
//! dead + slack space exceeds the live edge count (plus a fixed slop so
//! tiny graphs never thrash), the arena is compacted in `O(V + E)` —
//! amortized over the ≥ `E` maintenance operations it took to create that
//! much garbage, so the per-update cost stays `O(degree)`. Compaction
//! keeps a quarter of each row's length as slack, so the rows a churning
//! stream keeps editing do not all relocate (and re-create the garbage)
//! right after it.
//!
//! # Contract
//!
//! Maintenance assumes a *simple* graph (no parallel edges), which is what
//! [`AdjacencyGraph`](crate::AdjacencyGraph) — the validating shell the
//! engines mutate — enforces before it calls in here; rows with parallel
//! edges (possible via [`Csr::from_edges`]) remain readable but must not be
//! maintained. [`CsrPair::apply_batch`] itself does not validate: on `Err`
//! the pair may be partially updated and must be discarded.

use crate::{Csr, CsrPair, GraphError, UpdateBatch, VertexId, Weight};

/// Smallest slot count a relocated row receives: rows that grow once tend
/// to grow again, so even degree-1 rows get room for a few more edges.
const MIN_ROW_CAP: usize = 4;

/// Fixed compaction slop: dead + slack space below this never triggers a
/// compaction, so small graphs keep their slack instead of re-densifying
/// after every batch.
const COMPACT_SLOP: usize = 64;

/// Compaction leaves each row `len / COMPACT_SLACK_DIV` slack slots, so
/// inserts into recently compacted rows land in place instead of
/// relocating the row and making garbage again.
const COMPACT_SLACK_DIV: usize = 4;

impl Csr {
    /// Inserts `u -> v` with weight `w`, keeping row `u` sorted.
    ///
    /// `O(degree(u))`: binary search plus an in-row shift; amortized the
    /// same when the row relocates for growth.
    ///
    /// # Errors
    ///
    /// [`GraphError::DuplicateEdge`] if the edge exists,
    /// [`GraphError::VertexOutOfRange`] for bad endpoints.
    pub fn insert_sorted(&mut self, u: VertexId, v: VertexId, w: Weight) -> Result<(), GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        // cast-ok: VertexId is u32 -> usize is lossless on the >=32-bit targets we support
        let ui = u as usize;
        // panic-ok: check_vertex proved ui < num_vertices, and every descriptor array has that length
        let (start, len, cap) = (self.starts[ui], self.lens[ui], self.caps[ui]);
        // panic-ok: validate() invariant: a row's extent start + cap lies inside the arena, and len <= cap
        match self.targets[start..start + len].binary_search(&v) {
            Ok(_) => Err(GraphError::DuplicateEdge { source: u, target: v }),
            Err(pos) => {
                if len < cap {
                    // Room in the row's slack: shift the tail one slot right.
                    self.targets.copy_within(start + pos..start + len, start + pos + 1);
                    self.weights.copy_within(start + pos..start + len, start + pos + 1);
                    // panic-ok: pos <= len < cap, so the slot is inside the row's extent
                    self.targets[start + pos] = v;
                    // panic-ok: the weight arena has the target arena's length
                    self.weights[start + pos] = w;
                } else {
                    self.relocate_insert(ui, pos, v, w);
                }
                // panic-ok: check_vertex proved ui < num_vertices, and every descriptor array has that length
                self.lens[ui] += 1;
                self.live += 1;
                Ok(())
            }
        }
    }

    /// Removes `u -> v`, returning its weight. The freed slot becomes
    /// slack at the row's tail; `O(degree(u))`.
    ///
    /// # Errors
    ///
    /// [`GraphError::MissingEdge`] if absent,
    /// [`GraphError::VertexOutOfRange`] for bad endpoints.
    pub fn remove_sorted(&mut self, u: VertexId, v: VertexId) -> Result<Weight, GraphError> {
        self.check_vertex(u)?;
        self.check_vertex(v)?;
        // cast-ok: VertexId is u32 -> usize is lossless on the >=32-bit targets we support
        let ui = u as usize;
        // panic-ok: check_vertex proved ui < num_vertices, and every descriptor array has that length
        let (start, len) = (self.starts[ui], self.lens[ui]);
        // panic-ok: validate() invariant: a row's extent start + cap lies inside the arena, and len <= cap
        match self.targets[start..start + len].binary_search(&v) {
            Ok(pos) => {
                // panic-ok: pos is a binary_search hit inside the row's live extent
                let w = self.weights[start + pos];
                self.targets.copy_within(start + pos + 1..start + len, start + pos);
                self.weights.copy_within(start + pos + 1..start + len, start + pos);
                // panic-ok: check_vertex proved ui < num_vertices, and every descriptor array has that length
                self.lens[ui] -= 1;
                self.live -= 1;
                Ok(w)
            }
            Err(_) => Err(GraphError::MissingEdge { source: u, target: v }),
        }
    }

    fn check_vertex(&self, v: VertexId) -> Result<(), GraphError> {
        // cast-ok: VertexId is u32 -> usize is lossless on the >=32-bit targets we support
        if (v as usize) < self.starts.len() {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange { vertex: v, num_vertices: self.starts.len() })
        }
    }

    /// Moves row `ui` to the arena tail with fresh slack (1.5x growth, at
    /// least [`MIN_ROW_CAP`] slots), inserting `(v, w)` at `pos` on the
    /// way. The old extent is abandoned as a tombstoned hole for the next
    /// compaction.
    fn relocate_insert(&mut self, ui: usize, pos: usize, v: VertexId, w: Weight) {
        // panic-ok: callers pass a row index that check_vertex proved in range
        let (old_start, len) = (self.starts[ui], self.lens[ui]);
        let new_cap = (len + len / 2 + 1).max(MIN_ROW_CAP);
        let new_start = self.targets.len();
        self.targets.resize(new_start + new_cap, 0);
        self.weights.resize(new_start + new_cap, 0.0);
        self.targets.copy_within(old_start..old_start + pos, new_start);
        self.weights.copy_within(old_start..old_start + pos, new_start);
        // panic-ok: pos <= len < new_cap, and both arenas were just resized past new_start + new_cap
        self.targets[new_start + pos] = v;
        // panic-ok: pos <= len < new_cap, and both arenas were just resized past new_start + new_cap
        self.weights[new_start + pos] = w;
        self.targets.copy_within(old_start + pos..old_start + len, new_start + pos + 1);
        self.weights.copy_within(old_start + pos..old_start + len, new_start + pos + 1);
        // panic-ok: callers pass a row index that check_vertex proved in range
        self.starts[ui] = new_start;
        // panic-ok: callers pass a row index that check_vertex proved in range
        self.caps[ui] = new_cap;
    }

    /// Compacts the arena (no holes, a quarter of each row as slack) when
    /// dead + slack space exceeds the live edge count plus a fixed slop. `O(V + E)`, amortized over the maintenance that produced the
    /// garbage.
    pub fn maybe_compact(&mut self) -> bool {
        if self.targets.len() > self.live * 2 + COMPACT_SLOP {
            self.compact();
            true
        } else {
            false
        }
    }

    /// Lays every row out afresh in vertex order with `len / 4` zeroed
    /// slack slots, dropping holes: the arena ends at most `1.25 · live`
    /// slots, well under the `2 · live + slop` trigger.
    fn compact(&mut self) {
        let slots = self.live + self.live / COMPACT_SLACK_DIV;
        let mut targets = Vec::with_capacity(slots);
        let mut weights = Vec::with_capacity(slots);
        let rows = self.starts.iter_mut().zip(&self.lens).zip(&mut self.caps);
        for ((start, &len), cap) in rows {
            let old = *start;
            *start = targets.len();
            *cap = len + len / COMPACT_SLACK_DIV;
            // panic-ok: validate() invariant: a row's extent start + cap lies inside the arena, and len <= cap
            targets.extend_from_slice(&self.targets[old..old + len]);
            // panic-ok: validate() invariant: a row's extent start + cap lies inside the arena, and len <= cap
            weights.extend_from_slice(&self.weights[old..old + len]);
            targets.resize(targets.len() + *cap - len, 0);
            weights.resize(weights.len() + *cap - len, 0.0);
        }
        self.targets = targets;
        self.weights = weights;
    }
}

impl CsrPair {
    /// Applies an update batch to both views in place: deletions first,
    /// then insertions, mirroring
    /// [`AdjacencyGraph::apply_batch`](crate::AdjacencyGraph::apply_batch)
    /// so the maintained pair stays bit-identical to a from-scratch
    /// rebuild of the mutated host graph — rows, iteration order, weights,
    /// and out/in duality.
    ///
    /// Cost: `O(Σ degree(touched) · log degree)` plus an amortized
    /// compaction; compare `O(E)` for `snapshot_pair()`.
    ///
    /// # Errors
    ///
    /// Returns the first [`GraphError`] hit (missing deletion, duplicate
    /// insertion, out-of-range endpoint). **On error the pair may be
    /// partially updated and must be discarded** — validate batches first,
    /// as [`AdjacencyGraph::apply_batch`](crate::AdjacencyGraph::apply_batch)
    /// does.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<(), GraphError> {
        for &(u, v) in batch.deletions() {
            self.out.remove_sorted(u, v)?;
            self.inc.remove_sorted(v, u)?;
        }
        for &(u, v, w) in batch.insertions() {
            if u == v {
                return Err(GraphError::SelfLoop { vertex: u });
            }
            self.out.insert_sorted(u, v, w)?;
            self.inc.insert_sorted(v, u, w)?;
        }
        self.maybe_compact();
        Ok(())
    }

    /// Runs [`Csr::maybe_compact`] on both views.
    pub(crate) fn maybe_compact(&mut self) {
        self.out.maybe_compact();
        self.inc.maybe_compact();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair_of(edges: &[(VertexId, VertexId, Weight)], n: usize) -> CsrPair {
        CsrPair::new(Csr::from_edges(n, edges))
    }

    #[test]
    fn insert_into_slack_and_relocation() {
        let mut g = Csr::from_edges(4, &[(0, 1, 1.0)]);
        // Dense build: row 0 has no slack, first insert relocates.
        assert_eq!(g.caps[0], 1);
        g.insert_sorted(0, 3, 3.0).expect("insert of a new edge succeeds");
        assert!(g.caps[0] >= MIN_ROW_CAP);
        // Second insert lands in the fresh slack, sorted into place.
        g.insert_sorted(0, 2, 2.0).expect("insert of a new edge succeeds");
        let ns: Vec<_> = g.neighbors(0).map(|e| e.other).collect();
        assert_eq!(ns, vec![1, 2, 3]);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn remove_leaves_reusable_slack() {
        let mut g = Csr::from_edges(3, &[(0, 1, 1.0), (0, 2, 2.0)]);
        assert_eq!(g.remove_sorted(0, 1).expect("edge exists"), 1.0);
        let before = g.arena_slots();
        // Re-inserting reuses the freed slot: no arena growth.
        g.insert_sorted(0, 1, 9.0).expect("insert of a new edge succeeds");
        assert_eq!(g.arena_slots(), before);
        assert_eq!(g.edge_weight(0, 1), Some(9.0));
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn duplicate_and_missing_are_typed_errors() {
        let mut g = Csr::from_edges(3, &[(0, 1, 1.0)]);
        assert_eq!(
            g.insert_sorted(0, 1, 2.0),
            Err(GraphError::DuplicateEdge { source: 0, target: 1 })
        );
        assert_eq!(g.remove_sorted(1, 0), Err(GraphError::MissingEdge { source: 1, target: 0 }));
        assert!(matches!(
            g.insert_sorted(0, 9, 1.0),
            Err(GraphError::VertexOutOfRange { vertex: 9, .. })
        ));
    }

    #[test]
    fn pair_apply_batch_matches_rebuild() {
        let mut pair = pair_of(&[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0)], 4);
        let mut batch = UpdateBatch::new();
        batch.delete(1, 2);
        batch.insert(1, 3, 4.0);
        batch.insert(3, 0, 5.0);
        pair.apply_batch(&batch).expect("valid batch applies");
        let rebuilt = pair_of(&[(0, 1, 1.0), (2, 0, 3.0), (1, 3, 4.0), (3, 0, 5.0)], 4);
        assert_eq!(pair, rebuilt);
        assert_eq!(pair.validate(), Ok(()));
    }

    #[test]
    fn compaction_keeps_a_quarter_of_each_row_as_slack() {
        // Rows of 40, 9, 3 and 0 edges; rows 0 and 1 then grow by one,
        // relocating to the arena tail and leaving holes behind.
        let mut edges: Vec<(VertexId, VertexId, Weight)> = (1..=40).map(|v| (0, v, 1.0)).collect();
        edges.extend((2..=10).map(|v| (1, v, 2.0)));
        edges.extend((3..=5).map(|v| (2, v, 3.0)));
        let mut g = Csr::from_edges(48, &edges);
        g.insert_sorted(0, 41, 4.0).expect("insert of a new edge succeeds");
        g.insert_sorted(1, 11, 5.0).expect("insert of a new edge succeeds");
        g.remove_sorted(0, 41).expect("edge exists");
        g.remove_sorted(1, 11).expect("edge exists");
        let rows: Vec<Vec<VertexId>> = (0..4).map(|u| g.neighbor_targets(u).to_vec()).collect();
        g.compact();
        assert_eq!(g.validate(), Ok(()));
        // Rows in vertex order, no holes, cap = len + len / 4.
        assert_eq!(&g.starts[..4], &[0, 50, 61, 64]);
        assert_eq!(&g.caps[..4], &[50, 11, 3, 0]);
        assert_eq!(g.arena_slots(), 64);
        for (u, row) in rows.iter().enumerate() {
            assert_eq!(g.neighbor_targets(u as VertexId), row.as_slice());
            let (start, len, cap) = (g.starts[u], g.lens[u], g.caps[u]);
            assert!(g.targets[start + len..start + cap].iter().all(|&t| t == 0));
            assert!(g.weights[start + len..start + cap].iter().all(|&w| w == 0.0));
        }
        // The slack absorbs inserts in place: no relocation, no growth.
        for v in 41..=47 {
            g.insert_sorted(0, v, 6.0).expect("insert of a new edge succeeds");
        }
        assert_eq!(g.starts[0], 0);
        assert_eq!(g.arena_slots(), 64);
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn pair_rejects_self_loop_insertion() {
        let mut pair = pair_of(&[(0, 1, 1.0)], 3);
        let mut batch = UpdateBatch::new();
        batch.insert(2, 2, 1.0);
        assert_eq!(pair.apply_batch(&batch), Err(GraphError::SelfLoop { vertex: 2 }));
    }

    // kills jm-0fa5ac00 (dcsr.rs len-off-by-one in check_vertex): the
    // error must report the true vertex-set size, not an off-by-one.
    #[test]
    fn out_of_range_error_reports_the_exact_vertex_count() {
        let mut g = Csr::from_edges(3, &[(0, 1, 1.0)]);
        assert_eq!(
            g.insert_sorted(0, 9, 1.0),
            Err(GraphError::VertexOutOfRange { vertex: 9, num_vertices: 3 })
        );
        assert_eq!(
            g.remove_sorted(7, 0),
            Err(GraphError::VertexOutOfRange { vertex: 7, num_vertices: 3 })
        );
    }

    // Kills jm-713f6271 (`<` -> `<=` in check_vertex) and jm-0fa5accf
    // (len-off-by-one on the same bound): id == num_vertices is the first
    // out-of-range id — it must be rejected, not index one past the rows.
    #[test]
    fn vertex_equal_to_the_count_is_the_first_rejected_id() {
        let mut g = Csr::from_edges(3, &[(0, 1, 1.0)]);
        assert_eq!(
            g.insert_sorted(0, 3, 1.0),
            Err(GraphError::VertexOutOfRange { vertex: 3, num_vertices: 3 })
        );
        assert_eq!(
            g.remove_sorted(3, 0),
            Err(GraphError::VertexOutOfRange { vertex: 3, num_vertices: 3 })
        );
    }

    // Kills jm-ac86c58b (`>` -> `>=` in maybe_compact): the compaction
    // trigger is strict — at exactly `2*live + slop` arena slots the arena
    // is left alone; one more dead slot compacts.
    #[test]
    fn compaction_triggers_strictly_above_the_garbage_bound() {
        let edges: Vec<(VertexId, VertexId, Weight)> = (1..=76u32).map(|v| (0, v, 1.0)).collect();
        let mut g = Csr::from_edges(77, &edges);
        assert_eq!(g.arena_slots(), 76, "from_edges lays rows out dense");
        let mut compactions = 0;
        for v in 1..=71u32 {
            g.remove_sorted(0, v).expect("edge (0, v) was inserted above");
            let over_bound = g.arena_slots() > 2 * g.num_edges() + COMPACT_SLOP;
            assert_eq!(g.maybe_compact(), over_bound, "after removing target {v}");
            if over_bound {
                compactions += 1;
            }
        }
        assert_eq!(compactions, 1, "exactly one removal crosses the bound");
        // The compaction left the 5 survivors a quarter-row of slack.
        assert_eq!((g.num_edges(), g.caps[0], g.arena_slots()), (5, 6, 6));
    }

    // kills jm-0fa5ad55 (dcsr.rs len-off-by-one: relocation start past the
    // tail would leak a permanent one-slot hole per relocation) and
    // jm-93cee4d3 (dcsr.rs const-01: slack must be zero-filled, the value
    // compaction and debug dumps rely on).
    #[test]
    fn relocation_appends_exactly_at_the_arena_tail() {
        let mut g = Csr::from_edges(4, &[(0, 1, 1.0), (1, 2, 2.0)]);
        // Dense build: row 0 (start 0, len 1, cap 1) relocates on insert.
        g.insert_sorted(0, 3, 3.0).expect("insert of a new edge succeeds");
        assert_eq!(g.starts[0], 2, "relocated row must start at the old arena tail");
        assert_eq!(g.caps[0], MIN_ROW_CAP);
        assert_eq!(g.targets.len(), 2 + MIN_ROW_CAP, "no hole between old tail and new row");
        let (start, len, cap) = (g.starts[0], g.lens[0], g.caps[0]);
        assert_eq!(&g.targets[start..start + len], &[1, 3]);
        assert!(
            g.targets[start + len..start + cap].iter().all(|&t| t == 0),
            "slack slots must be zero-filled"
        );
        assert_eq!(g.validate(), Ok(()));
    }

    #[test]
    fn delete_then_reinsert_same_batch_is_a_weight_change() {
        let mut pair = pair_of(&[(0, 1, 1.0), (1, 0, 2.0)], 2);
        let mut batch = UpdateBatch::new();
        batch.delete(0, 1);
        batch.insert(0, 1, 7.5);
        pair.apply_batch(&batch).expect("valid batch applies");
        assert_eq!(pair.out.edge_weight(0, 1), Some(7.5));
        assert_eq!(pair.inc.edge_weight(1, 0), Some(7.5));
        assert_eq!(pair.num_edges(), 2);
    }
}
