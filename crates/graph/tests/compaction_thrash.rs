//! Compaction thrash regression (DESIGN.md §17.2).
//!
//! Under steady 50/50 churn, compaction must stay rare once the rows a
//! stream edits have found their size. A policy that compacts rows back
//! to zero slack makes the next insert into almost any row relocate it
//! and re-create the garbage: on this graph it compacted about every 40
//! batches. Keeping a quarter-row of slack through compaction stops that.

#![allow(clippy::expect_used)] // test code: a failed setup step should abort the test

use jetstream_graph::gen::{self, EdgeStream};
use jetstream_graph::CsrPair;

fn compacted(pair: &CsrPair, before: usize) -> bool {
    pair.out.arena_slots() + pair.inc.arena_slots() < before
}

#[test]
fn steady_churn_compacts_rarely() {
    let full = gen::rmat(4096, 48_000, gen::RmatParams::default(), 5);
    let mut stream = EdgeStream::new(&full, 0.1, 9);
    let mut pair = stream.graph().pair().clone();
    let mut warmup_compactions = 0;
    let mut steady_compactions = 0;
    for step in 0..1250 {
        let batch = stream.next_batch(100, 0.5);
        let before = pair.out.arena_slots() + pair.inc.arena_slots();
        pair.apply_batch(&batch).expect("stream batches are valid by construction");
        if compacted(&pair, before) {
            if step < 250 {
                warmup_compactions += 1;
            } else {
                steady_compactions += 1;
            }
        }
    }
    assert_eq!(pair, *stream.graph().pair(), "both maintenance paths agree");
    assert!(warmup_compactions > 0, "the dense start never compacted — warm-up too short");
    assert!(
        steady_compactions <= 1,
        "{steady_compactions} compactions in 1000 steady-state batches"
    );
}
