//! Differential fuzz suite for the delta-maintained CSR (DESIGN.md §17).
//!
//! The contract of `CsrPair::apply_batch` is that incremental maintenance
//! is *bit-identical* to a from-scratch `Csr::from_edges` rebuild of the
//! mutated graph: same rows, same ascending neighbor order, same weights,
//! and exact out/in duality. Every test here drives a maintained pair, the
//! CSR-backed `AdjacencyGraph`, and [`RefGraph`] — an independent
//! `BTreeMap` model of the graph's batch semantics — through the same
//! batch sequence and compares full traversals after every batch, through
//! slack growth, row relocations, tombstoned deletes, and compaction.

// Demo/test code: aborting on setup failure is the right behavior here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::collections::BTreeMap;

use jetstream_graph::rng::DetRng;
use jetstream_graph::{
    gen, AdjacencyGraph, Csr, CsrPair, GraphError, UpdateBatch, VertexId, Weight,
};

/// The reference model: one `BTreeMap` per row, with the batch validation
/// order `AdjacencyGraph::apply_batch` documents (duplicate deletions,
/// then each deletion in batch order, then duplicate insertions, then
/// each insertion in batch order) and an all-or-nothing commit.
#[derive(Debug, Clone, PartialEq)]
struct RefGraph {
    rows: Vec<BTreeMap<VertexId, Weight>>,
}

impl RefGraph {
    fn of(g: &AdjacencyGraph) -> Self {
        let mut rows = vec![BTreeMap::new(); g.num_vertices()];
        for (u, v, w) in g.iter_edges() {
            rows[u as usize].insert(v, w);
        }
        RefGraph { rows }
    }

    fn check(&self, v: VertexId) -> Result<(), GraphError> {
        if (v as usize) < self.rows.len() {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange { vertex: v, num_vertices: self.rows.len() })
        }
    }

    fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.rows.get(u as usize).is_some_and(|r| r.contains_key(&v))
    }

    fn apply_batch(&mut self, batch: &UpdateBatch) -> Result<(), GraphError> {
        let mut deleted = batch.deletions().to_vec();
        deleted.sort_unstable();
        if let Some(w) = deleted.windows(2).find(|w| w[0] == w[1]) {
            return Err(GraphError::MissingEdge { source: w[0].0, target: w[0].1 });
        }
        for &(u, v) in batch.deletions() {
            self.check(u)?;
            self.check(v)?;
            if !self.has_edge(u, v) {
                return Err(GraphError::MissingEdge { source: u, target: v });
            }
        }
        let mut pending: Vec<_> = batch.insertions().iter().map(|&(u, v, _)| (u, v)).collect();
        pending.sort_unstable();
        if let Some(w) = pending.windows(2).find(|w| w[0] == w[1]) {
            return Err(GraphError::DuplicateEdge { source: w[0].0, target: w[0].1 });
        }
        for &(u, v, _) in batch.insertions() {
            self.check(u)?;
            self.check(v)?;
            if u == v {
                return Err(GraphError::SelfLoop { vertex: u });
            }
            if self.has_edge(u, v) && deleted.binary_search(&(u, v)).is_err() {
                return Err(GraphError::DuplicateEdge { source: u, target: v });
            }
        }
        for &(u, v) in batch.deletions() {
            self.rows[u as usize].remove(&v);
        }
        for &(u, v, w) in batch.insertions() {
            self.rows[u as usize].insert(v, w);
        }
        Ok(())
    }

    fn edges(&self) -> Vec<(VertexId, VertexId, Weight)> {
        let mut out = Vec::new();
        for (u, row) in self.rows.iter().enumerate() {
            out.extend(row.iter().map(|(&v, &w)| (u as VertexId, v, w)));
        }
        out
    }

    /// A from-scratch dense rebuild of both views.
    fn rebuild(&self) -> CsrPair {
        CsrPair::new(Csr::from_edges(self.rows.len(), &self.edges()))
    }
}

/// Compares a maintained pair against a from-scratch rebuild of the
/// reference: structural equality, exact traversal sequences, and
/// internal validity.
fn assert_identical(maintained: &CsrPair, reference: &RefGraph, ctx: &str) {
    assert_eq!(maintained.validate(), Ok(()), "{ctx}: maintained pair must validate");
    let rebuilt = reference.rebuild();
    assert_eq!(maintained.out, rebuilt.out, "{ctx}: out view differs from rebuild");
    assert_eq!(maintained.inc, rebuilt.inc, "{ctx}: in view differs from rebuild");
    // Traversal is the contract: the exact edge sequence the kernel would
    // dereference, not just set equality.
    let a: Vec<_> = maintained.out.iter_edges().collect();
    let b: Vec<_> = rebuilt.out.iter_edges().collect();
    assert_eq!(a, b, "{ctx}: out traversal sequence");
    let a: Vec<_> = maintained.inc.iter_edges().collect();
    let b: Vec<_> = rebuilt.inc.iter_edges().collect();
    assert_eq!(a, b, "{ctx}: in traversal sequence");
}

/// Applies `batch` to the CSR-backed graph, a separately maintained pair,
/// and the reference; all three must accept it.
fn apply_all(
    host: &mut AdjacencyGraph,
    maintained: &mut CsrPair,
    reference: &mut RefGraph,
    batch: &UpdateBatch,
) {
    reference.apply_batch(batch).expect("test batches are valid by construction");
    host.apply_batch(batch).expect("the graph accepts what the reference accepts");
    maintained.apply_batch(batch).expect("a validated batch applies to the pair");
}

/// Both maintenance paths — the graph's own pair and the separately
/// maintained one — against the reference.
fn assert_all_identical(
    host: &AdjacencyGraph,
    maintained: &CsrPair,
    reference: &RefGraph,
    ctx: &str,
) {
    assert_identical(maintained, reference, ctx);
    assert_identical(host.pair(), reference, &format!("{ctx} (graph)"));
}

fn vid(rng: &mut DetRng, n: usize) -> VertexId {
    rng.gen_index(n) as VertexId // cast-ok: test graphs have far fewer than 2^32 vertices
}

/// A churn batch: deletes a random subset of existing edges, re-inserts
/// some of them with fresh weights in the *same* batch (weight changes),
/// and inserts fresh edges — the full shape `AdjacencyGraph::apply_batch`
/// accepts.
fn churn_batch(
    host: &AdjacencyGraph,
    rng: &mut DetRng,
    max_inserts: usize,
    max_deletes: usize,
) -> UpdateBatch {
    let n = host.num_vertices();
    let mut batch = UpdateBatch::new();
    let edges: Vec<(VertexId, VertexId, f64)> = host.iter_edges().collect();
    let deletes = max_deletes.min(edges.len());
    let mut picked: Vec<usize> = Vec::new();
    while picked.len() < deletes {
        let i = rng.gen_index(edges.len());
        if !picked.contains(&i) {
            picked.push(i);
        }
    }
    let mut deleted: Vec<(VertexId, VertexId)> = Vec::new();
    for &i in &picked {
        let (u, v, _) = edges[i];
        batch.delete(u, v);
        deleted.push((u, v));
    }
    let mut pending: Vec<(VertexId, VertexId)> = Vec::new();
    for _ in 0..max_inserts {
        // ~30% of insertions re-insert an edge deleted earlier in this
        // batch — the delete-then-reinsert weight-change path.
        if !deleted.is_empty() && rng.gen_bool(0.3) {
            let (u, v) = deleted[rng.gen_index(deleted.len())];
            if !pending.contains(&(u, v)) {
                pending.push((u, v));
                batch.insert(u, v, rng.gen_f64() * 4.0 + 0.5);
            }
            continue;
        }
        for _ in 0..32 {
            let u = vid(rng, n);
            let v = vid(rng, n);
            let survives = host.has_edge(u, v) && !deleted.contains(&(u, v));
            if u != v && !survives && !pending.contains(&(u, v)) {
                pending.push((u, v));
                batch.insert(u, v, rng.gen_f64() * 4.0 + 0.5);
                break;
            }
        }
    }
    batch
}

/// Drives `batches` churn batches over an R-MAT-ish start graph, checking
/// the maintained pair against the oracle after every batch. Returns how
/// many times the arena visibly shrank (compactions observed).
fn run_differential(seed: u64, num_vertices: usize, start_edges: usize, batches: usize) -> usize {
    let mut rng = DetRng::seed_from_u64(seed);
    let mut host = gen::erdos_renyi(num_vertices, start_edges, seed ^ 0x9e37);
    let mut maintained = host.snapshot_pair();
    let mut reference = RefGraph::of(&host);
    let mut compactions = 0;
    for step in 0..batches {
        let inserts = rng.gen_range(1, 9);
        let deletes = rng.gen_range(0, 7);
        let batch = churn_batch(&host, &mut rng, inserts, deletes);
        let before = maintained.out.arena_slots() + maintained.inc.arena_slots();
        apply_all(&mut host, &mut maintained, &mut reference, &batch);
        if maintained.out.arena_slots() + maintained.inc.arena_slots() < before {
            compactions += 1;
        }
        // The compaction policy bounds garbage: after every batch each
        // view's arena is at most twice the live edges plus the slop.
        assert!(
            maintained.out.arena_slots() <= 2 * maintained.out.num_edges() + 64,
            "seed {seed} step {step}: out arena exceeds the compaction bound"
        );
        assert!(
            maintained.inc.arena_slots() <= 2 * maintained.inc.num_edges() + 64,
            "seed {seed} step {step}: in arena exceeds the compaction bound"
        );
        assert_all_identical(&host, &maintained, &reference, &format!("seed {seed} step {step}"));
    }
    compactions
}

#[test]
fn fuzzed_maintenance_matches_rebuild_across_seeds() {
    // 4 seeds x 300 batches = 1200 random insert/delete/reinsert batches,
    // each checked edge-for-edge against the from-scratch rebuild.
    let mut total_compactions = 0;
    for seed in [11, 23, 47, 91] {
        total_compactions += run_differential(seed, 48, 180, 300);
    }
    // The churn is heavy enough that the compaction path must have fired;
    // otherwise the suite is not exercising relocation garbage at all.
    assert!(total_compactions > 0, "no compaction ever triggered — fuzz too gentle");
}

/// Rebuilds `batch` with one invalid update spliced in at a random
/// position: a missing or repeated deletion, a duplicate or repeated
/// insertion, a self-loop, or an out-of-range id (from exactly
/// `num_vertices` up).
fn corrupt(batch: &UpdateBatch, host: &AdjacencyGraph, rng: &mut DetRng) -> UpdateBatch {
    let n = host.num_vertices();
    let mut dels = batch.deletions().to_vec();
    let mut ins = batch.insertions().to_vec();
    let out_of_range = n as VertexId + rng.gen_index(3) as VertexId;
    let at = |rng: &mut DetRng, len: usize| rng.gen_index(len + 1);
    match rng.gen_index(7) {
        0 => loop {
            // Missing deletion: an in-range pair that is not an edge.
            let (u, v) = (vid(rng, n), vid(rng, n));
            if u != v && !host.has_edge(u, v) {
                dels.insert(at(rng, dels.len()), (u, v));
                break;
            }
        },
        1 => {
            // Double deletion of the same existing edge.
            let (u, v, _) = host.iter_edges().nth(rng.gen_index(host.num_edges())).expect("edge");
            if !dels.contains(&(u, v)) {
                dels.insert(at(rng, dels.len()), (u, v));
            }
            dels.insert(at(rng, dels.len()), (u, v));
        }
        2 => loop {
            // Duplicate insertion of an edge that survives the batch.
            let (u, v, _) = host.iter_edges().nth(rng.gen_index(host.num_edges())).expect("edge");
            if !dels.contains(&(u, v)) && !ins.iter().any(|&(a, b, _)| (a, b) == (u, v)) {
                ins.insert(at(rng, ins.len()), (u, v, 1.0));
                break;
            }
        },
        3 => {
            // The same insertion twice in one batch.
            let (u, v) = (vid(rng, n), (vid(rng, n) + 1) % n as VertexId);
            ins.insert(at(rng, ins.len()), (u, v, 2.0));
            ins.insert(at(rng, ins.len()), (u, v, 3.0));
        }
        4 => {
            let u = vid(rng, n);
            ins.insert(at(rng, ins.len()), (u, u, 1.0));
        }
        5 => {
            let (u, v) = if rng.gen_bool(0.5) {
                (out_of_range, vid(rng, n))
            } else {
                (vid(rng, n), out_of_range)
            };
            dels.insert(at(rng, dels.len()), (u, v));
        }
        _ => {
            let (u, v) = if rng.gen_bool(0.5) {
                (out_of_range, vid(rng, n))
            } else {
                (vid(rng, n), out_of_range)
            };
            ins.insert(at(rng, ins.len()), (u, v, 1.0));
        }
    }
    let mut bad = UpdateBatch::new();
    for (u, v) in dels {
        bad.delete(u, v);
    }
    for (u, v, w) in ins {
        bad.insert(u, v, w);
    }
    bad
}

#[test]
fn graph_batches_match_the_reference_including_invalid_ones() {
    // The CSR-backed `AdjacencyGraph::apply_batch` against the `BTreeMap`
    // reference under churn, with about half the batches made invalid
    // (sometimes twice over, so the *first* error is what is compared).
    // A rejected batch must return the reference's error and leave the
    // graph untouched: equal rows, unchanged version, and the exact same
    // arena layout, slack and holes included.
    let mut rejected = 0;
    for seed in [3u64, 17, 29] {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut host = gen::erdos_renyi(40, 160, seed ^ 0x51);
        let mut reference = RefGraph::of(&host);
        for step in 0..250 {
            let ctx = format!("seed {seed} step {step}");
            let inserts = rng.gen_range(1, 9);
            let deletes = rng.gen_range(0, 7);
            let mut batch = churn_batch(&host, &mut rng, inserts, deletes);
            if rng.gen_bool(0.5) {
                batch = corrupt(&batch, &host, &mut rng);
                if rng.gen_bool(0.3) {
                    batch = corrupt(&batch, &host, &mut rng);
                }
            }
            let before = host.clone();
            let layout = format!("{:?}", host.pair());
            let expected = reference.apply_batch(&batch);
            assert_eq!(host.apply_batch(&batch), expected, "{ctx}: first error");
            match expected {
                Ok(()) => {
                    assert_eq!(host.version(), before.version() + 1, "{ctx}: version");
                    assert_identical(host.pair(), &reference, &ctx);
                }
                Err(_) => {
                    rejected += 1;
                    assert_eq!(host, before, "{ctx}: rejected batch changed the graph");
                    assert_eq!(host.version(), before.version(), "{ctx}: version moved");
                    assert_eq!(format!("{:?}", host.pair()), layout, "{ctx}: layout moved");
                }
            }
            assert_eq!(RefGraph::of(&host), reference, "{ctx}: rows");
        }
    }
    assert!(rejected > 200, "only {rejected} batches were rejected — corruption too gentle");
}

#[test]
fn dense_graph_heavy_delete_churn() {
    // Small dense graph, deletion-heavy batches: rows shrink to empty and
    // grow back, keeping lots of slack and tombstoned extents in play.
    let mut rng = DetRng::seed_from_u64(7);
    let mut host = gen::erdos_renyi(16, 120, 3);
    let mut maintained = host.snapshot_pair();
    let mut reference = RefGraph::of(&host);
    for step in 0..200 {
        let batch = churn_batch(&host, &mut rng, 3, 8);
        apply_all(&mut host, &mut maintained, &mut reference, &batch);
        assert_all_identical(&host, &maintained, &reference, &format!("dense step {step}"));
    }
}

#[test]
fn empty_rows_stay_empty_and_reusable() {
    // Vertices 8..16 start isolated (empty rows in both views); edges are
    // later attached to them and removed again.
    let mut host = AdjacencyGraph::new(16);
    for v in 1..8u32 {
        host.insert_edge(0, v, v as f64).expect("insert of an in-range edge should succeed");
    }
    let mut maintained = host.snapshot_pair();
    let mut reference = RefGraph::of(&host);
    assert_all_identical(&host, &maintained, &reference, "isolated start");

    let mut batch = UpdateBatch::new();
    for v in 8..16u32 {
        batch.insert(v, 0, 1.0);
        batch.insert(0, v, 2.0);
    }
    apply_all(&mut host, &mut maintained, &mut reference, &batch);
    assert_all_identical(&host, &maintained, &reference, "attach isolated");

    let mut batch = UpdateBatch::new();
    for v in 8..16u32 {
        batch.delete(v, 0);
        batch.delete(0, v);
    }
    apply_all(&mut host, &mut maintained, &mut reference, &batch);
    assert_all_identical(&host, &maintained, &reference, "detach isolated");
    for v in 8..16u32 {
        assert_eq!(maintained.out.degree(v), 0);
        assert_eq!(maintained.inc.degree(v), 0);
    }
}

#[test]
fn max_degree_hub_grows_and_shrinks() {
    // A hub with an out-edge to every other vertex: the maximum-degree row
    // relocates repeatedly as it grows one edge at a time, then shrinks
    // back through single deletes.
    let n = 256usize;
    let mut host = AdjacencyGraph::new(n);
    let mut maintained = host.snapshot_pair();
    let mut reference = RefGraph::of(&host);
    for v in 1..n as u32 {
        let mut batch = UpdateBatch::new();
        batch.insert(0, v, f64::from(v));
        apply_all(&mut host, &mut maintained, &mut reference, &batch);
    }
    assert_eq!(maintained.out.degree(0), n - 1);
    assert_all_identical(&host, &maintained, &reference, "hub fully grown");
    // Delete every other spoke, then reinsert them with new weights.
    let mut batch = UpdateBatch::new();
    for v in (1..n as u32).step_by(2) {
        batch.delete(0, v);
    }
    apply_all(&mut host, &mut maintained, &mut reference, &batch);
    assert_all_identical(&host, &maintained, &reference, "hub half drained");
    let mut batch = UpdateBatch::new();
    for v in (1..n as u32).step_by(2) {
        batch.insert(0, v, 0.25);
    }
    apply_all(&mut host, &mut maintained, &mut reference, &batch);
    assert_all_identical(&host, &maintained, &reference, "hub refilled");
}

#[test]
fn delete_then_reinsert_same_batch_matches_oracle() {
    let mut host = gen::erdos_renyi(20, 60, 13);
    let mut maintained = host.snapshot_pair();
    let mut reference = RefGraph::of(&host);
    let edges: Vec<_> = host.iter_edges().collect();
    let mut batch = UpdateBatch::new();
    // Reweight the first five edges in a single batch.
    for &(u, v, w) in edges.iter().take(5) {
        batch.delete(u, v);
        batch.insert(u, v, w + 10.0);
    }
    apply_all(&mut host, &mut maintained, &mut reference, &batch);
    assert_all_identical(&host, &maintained, &reference, "same-batch reweight");
    for &(u, v, w) in edges.iter().take(5) {
        assert_eq!(maintained.out.edge_weight(u, v), Some(w + 10.0));
        assert_eq!(maintained.inc.edge_weight(v, u), Some(w + 10.0));
    }
}

#[test]
fn generator_batches_also_round_trip() {
    // `gen::random_batch` is what the engines and benches feed through the
    // maintenance path; make sure its shape is covered too.
    let mut host = gen::erdos_renyi(64, 400, 29);
    let mut maintained = host.snapshot_pair();
    let mut reference = RefGraph::of(&host);
    for i in 0..100u64 {
        let batch = gen::random_batch(&host, 6, 3, 1000 + i);
        apply_all(&mut host, &mut maintained, &mut reference, &batch);
        assert_all_identical(&host, &maintained, &reference, &format!("generator step {i}"));
    }
}
