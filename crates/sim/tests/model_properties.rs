//! Property-based tests on the timing substrate: conservation and
//! monotonicity laws the DRAM model must satisfy for any access pattern,
//! determinism of the DES kernel under arbitrary seeding, and the replay's
//! charge for re-approximation's in-edge pulls.

use jetstream_algorithms::Bfs;
use jetstream_core::trace::Trace;
use jetstream_core::{DeleteStrategy, EngineConfig, Phase, StreamingEngine};
use jetstream_graph::{gen, UpdateBatch};
use jetstream_sim::crossbar::{run_crossbar, Flit};
use jetstream_sim::dram::Dram;
use jetstream_sim::{AcceleratorSim, SimConfig, LINE_BYTES};
use jetstream_testkit::{run_cases, DetRng};

fn arb_addrs(rng: &mut DetRng, max_len: usize, bits: u32) -> Vec<u64> {
    let n = rng.gen_range(1, max_len);
    (0..n).map(|_| rng.gen_range(0, 1usize << bits) as u64).collect()
}

/// Every access is counted once, bytes move in whole lines, and row
/// hits never exceed total accesses.
#[test]
fn dram_accounting_is_conserved() {
    run_cases("dram_accounting_is_conserved", 64, |rng| {
        let addrs = arb_addrs(rng, 200, 24);
        let write_mask: Vec<bool> = (0..addrs.len()).map(|_| rng.gen_bool(0.5)).collect();
        let mut dram = Dram::new(&SimConfig::graphpulse());
        let mut t = 0;
        for (i, &addr) in addrs.iter().enumerate() {
            let done = dram.access(addr & !(LINE_BYTES - 1), t, write_mask[i]);
            assert!(done > t, "completion must be after issue");
            t = done.saturating_sub(10); // overlapping issue stream
        }
        let stats = dram.stats();
        assert_eq!(stats.reads + stats.writes, addrs.len() as u64);
        assert_eq!(stats.bytes_transferred, addrs.len() as u64 * LINE_BYTES);
        assert!(stats.row_hits <= stats.reads + stats.writes);
    });
}

/// Completion times never precede the request time, and the channel
/// drain time bounds every completion.
#[test]
fn dram_time_is_monotone() {
    run_cases("dram_time_is_monotone", 64, |rng| {
        let addrs = arb_addrs(rng, 100, 20);
        let mut dram = Dram::new(&SimConfig::graphpulse());
        let mut last_done = 0;
        for (i, &addr) in addrs.iter().enumerate() {
            let at = i as u64 * 2;
            let done = dram.access(addr & !(LINE_BYTES - 1), at, false);
            assert!(done >= at);
            last_done = last_done.max(done);
        }
        assert!(dram.drain_cycle() >= last_done.saturating_sub(64));
    });
}

/// Sequential streams are at least as fast as random ones of the same
/// length (row-buffer locality can only help).
#[test]
fn dram_sequential_not_slower_than_random() {
    run_cases("dram_sequential_not_slower_than_random", 64, |rng| {
        let seed_addrs: Vec<u64> =
            (0..rng.gen_range(16, 64)).map(|_| rng.gen_range(0, 1 << 24) as u64).collect();
        let n = seed_addrs.len() as u64;
        let mut seq = Dram::new(&SimConfig::graphpulse());
        let mut t_seq = 0;
        for i in 0..n {
            t_seq = t_seq.max(seq.access(i * LINE_BYTES, 0, false));
        }
        let mut rnd = Dram::new(&SimConfig::graphpulse());
        let mut t_rnd = 0;
        for &a in &seed_addrs {
            t_rnd = t_rnd.max(rnd.access(a & !(LINE_BYTES - 1), 0, false));
        }
        assert!(
            seq.stats().row_hits >= rnd.stats().row_hits || t_seq <= t_rnd,
            "sequential ({t_seq}) should exploit at least as much locality as random ({t_rnd})"
        );
    });
}

/// The crossbar delivers every flit exactly once, never finishes before
/// the per-port lower bounds, and is deterministic.
#[test]
fn crossbar_delivers_everything_deterministically() {
    run_cases("crossbar_delivers_everything_deterministically", 64, |rng| {
        let n = rng.gen_range(1, 120);
        let flits: Vec<(u64, Flit)> = (0..n)
            .map(|_| {
                let at = rng.gen_range(0, 20) as u64;
                let input = rng.gen_range(0, 8);
                let output = rng.gen_range(0, 8);
                (at, Flit { input, output })
            })
            .collect();
        let a = run_crossbar(8, &flits);
        let b = run_crossbar(8, &flits);
        assert_eq!(a, b);
        assert_eq!(a.delivered, flits.len() as u64);
        // Lower bound: the most loaded output port needs one cycle per
        // flit after the earliest arrival.
        let mut per_output = [0u64; 8];
        for &(_, f) in &flits {
            per_output[f.output] += 1;
        }
        let max_load = per_output.iter().copied().max().unwrap_or(0);
        assert!(
            a.finish_time + 1 >= max_load,
            "finish {} cannot beat the output-port bound {max_load}",
            a.finish_time
        );
    });
}

/// Re-approximation reads the value of every in-neighbour of a reset
/// vertex, so replaying a batch's request-setup phase alone must issue at
/// least one DRAM read per pulled in-edge (`request_events`) and consume
/// one vertex record for each: the simulated accelerator pays for the
/// pull the software engine does.
#[test]
fn request_setup_charges_one_vertex_read_per_pulled_in_edge() {
    run_cases("request_setup_charges_one_vertex_read_per_pulled_in_edge", 16, |rng| {
        let n = rng.gen_range(64, 256);
        let g = gen::erdos_renyi(n, n * rng.gen_range(4, 12), rng.next_u64());
        let config = EngineConfig { delete_strategy: DeleteStrategy::Tag, ..Default::default() };
        let mut engine = StreamingEngine::new(Box::new(Bfs::new(0)), g, config);
        engine.initial_compute();
        let mut batch = UpdateBatch::new();
        for (u, v, _) in engine.csr().out.iter_edges() {
            if rng.gen_bool(0.1) {
                batch.delete(u, v);
            }
        }
        engine.set_tracing(true);
        let stats = engine.apply_update_batch(&batch).expect("deletions of existing edges");
        let full = engine.take_trace();
        let trace = Trace {
            phases: full
                .phases
                .iter()
                .filter(|p| p.phase == Phase::RequestSetup)
                .cloned()
                .collect(),
            targets: full.targets.clone(),
        };
        let config = SimConfig::jetstream(DeleteStrategy::Tag);
        let vertex_bytes = config.vertex_bytes;
        let report = AcceleratorSim::new(config).replay(&trace, engine.csr());
        assert!(
            report.dram.reads >= stats.request_events,
            "{} DRAM reads for {} pulled in-edges",
            report.dram.reads,
            stats.request_events
        );
        assert!(report.bytes_used >= stats.request_events * vertex_bytes);
    });
}
