//! Input-stability pin: the dataset generators and the update stream are
//! the benchmark's inputs, so a change to the graph representation must
//! leave them bit-identical. Each test hashes an edge list (ids plus
//! weight bits, in iteration order) and compares it with a hash recorded
//! before the mutable graph moved onto the gapped CSR.

#![allow(clippy::expect_used)] // test code: a failed setup step should abort the test

use jetstream_graph::gen::{DatasetProfile, EdgeStream};
use jetstream_graph::{UpdateBatch, VertexId, Weight};

/// FNV-1a over a stream of 64-bit words.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn edge(&mut self, u: VertexId, v: VertexId, w: Weight) {
        self.word(u64::from(u));
        self.word(u64::from(v));
        self.word(w.to_bits());
    }
}

fn hash_edges(edges: impl Iterator<Item = (VertexId, VertexId, Weight)>) -> (usize, u64) {
    let mut h = Fnv::new();
    let mut n = 0;
    for (u, v, w) in edges {
        h.edge(u, v, w);
        n += 1;
    }
    (n, h.0)
}

fn hash_batch(batch: &UpdateBatch) -> u64 {
    let mut h = Fnv::new();
    for &(u, v) in batch.deletions() {
        h.word(u64::from(u));
        h.word(u64::from(v));
    }
    h.word(u64::MAX);
    for &(u, v, w) in batch.insertions() {
        h.edge(u, v, w);
    }
    h.0
}

#[test]
fn livejournal_profile_edges_are_unchanged() {
    let g = DatasetProfile::LiveJournal.generate(100);
    assert_eq!(hash_edges(g.iter_edges()), (LJ_EDGES, LJ_HASH));
}

#[test]
fn wikipedia_profile_edges_are_unchanged() {
    let g = DatasetProfile::Wikipedia.generate(100);
    assert_eq!(hash_edges(g.iter_edges()), (WK_EDGES, WK_HASH));
}

#[test]
fn edge_stream_batches_are_unchanged() {
    let full = DatasetProfile::Wikipedia.generate(100);
    let mut stream = EdgeStream::new(&full, 0.1, 7);
    assert_eq!(hash_edges(stream.graph().iter_edges()), STREAM_BASE);
    let hashes: Vec<u64> = (0..4).map(|_| hash_batch(&stream.next_batch(2000, 0.5))).collect();
    assert_eq!(hashes, STREAM_BATCHES);
    assert_eq!(hash_edges(stream.graph().iter_edges()), STREAM_AFTER);
}

// Recorded from the BTreeMap-backed `AdjacencyGraph`, whose iteration
// order (ascending source, then target) the CSR-backed graph keeps.
const LJ_EDGES: usize = 689_900;
const LJ_HASH: u64 = 6_857_118_738_579_478_936;
const WK_EDGES: usize = 450_300;
const WK_HASH: u64 = 11_321_665_099_971_961_254;
const STREAM_BASE: (usize, u64) = (405_270, 3_509_720_718_175_249_280);
const STREAM_BATCHES: [u64; 4] = [
    3_222_113_314_404_138_140,
    4_783_826_787_254_994_638,
    1_550_309_328_373_053_196,
    10_415_021_442_760_176_193,
];
const STREAM_AFTER: (usize, u64) = (405_270, 6_595_704_913_211_989_364);
