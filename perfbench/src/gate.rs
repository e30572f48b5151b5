//! The correctness gate: engine values against the algorithm's oracle on
//! the same graph, with the repository-wide contract for selective
//! algorithms, `oracle::values_match` (`VALUE_TOLERANCE`). Misses are
//! counted, never tolerated away.
//!
//! Both workloads run selective algorithms. The accumulative regime
//! (`values_match_tol(accumulative_tolerance(epsilon))`) returns with an
//! accumulative workload; see `perfbench/README.md` for why there is none.

use jetstream_algorithms::{oracle, Algorithm, Bfs, Sssp, Value};
use jetstream_core::{EngineConfig, StreamingEngine};
use jetstream_graph::{gen, AdjacencyGraph, UpdateBatch};

/// The two algorithms the workloads run.
#[derive(Debug, Clone, Copy)]
pub enum Alg {
    Sssp { root: u32 },
    Bfs { root: u32 },
}

impl Alg {
    pub fn build(self) -> Box<dyn Algorithm> {
        match self {
            Alg::Sssp { root } => Box::new(Sssp::new(root)),
            Alg::Bfs { root } => Box::new(Bfs::new(root)),
        }
    }

    /// Reference values on `graph`.
    pub fn oracle(self, graph: &AdjacencyGraph) -> Vec<Value> {
        let csr = graph.snapshot();
        match self {
            Alg::Sssp { root } => oracle::sssp(&csr, root),
            Alg::Bfs { root } => oracle::bfs(&csr, root),
        }
    }

    /// Do `values` match the oracle on `graph` within the contract? A
    /// miss is reported on stderr with its size.
    pub fn matches(self, values: &[Value], graph: &AdjacencyGraph) -> bool {
        let reference = self.oracle(graph);
        let ok = oracle::values_match(values, &reference);
        if !ok {
            let wrong = values.iter().zip(&reference).filter(|(x, y)| x != y).count();
            eprintln!("perfbench: gate miss: {self:?} values vs oracle, {wrong} vertices differ");
        }
        ok
    }
}

/// Vacuity self-test: the gate must flag a perturbed value vector and a
/// dropped update, for both algorithms. Runs before every measurement; a
/// gate that passes everything would make `correct` meaningless.
pub fn self_test() -> Result<(), String> {
    for alg in [Alg::Sssp { root: 0 }, Alg::Bfs { root: 0 }] {
        let base = gen::erdos_renyi(64, 320, 11);
        // An update whose loss changes the fixed point: a shortcut from
        // the root straight to its farthest vertex.
        let before = alg.oracle(&base);
        let far = (1..64u32)
            .filter(|&v| !base.has_edge(0, v) && before[v as usize] > 1.0)
            .max_by(|&a, &b| before[a as usize].total_cmp(&before[b as usize]))
            .ok_or("self-test graph has no candidate edge")?;
        let mut batch = UpdateBatch::new();
        batch.insert(0, far, 1.0);
        let mut full = base.clone();
        full.apply_batch(&batch).map_err(|e| e.to_string())?;

        let mut engine = StreamingEngine::new(alg.build(), base.clone(), EngineConfig::default());
        engine.initial_compute();
        engine.apply_update_batch(&batch).map_err(|e| e.to_string())?;
        if !alg.matches(engine.values(), &full) {
            return Err(format!("{alg:?}: gate rejects a correct run"));
        }
        // One value moved to twice the contract's tolerance.
        let mut perturbed = engine.values().to_vec();
        let v = perturbed.iter().position(|x| x.is_finite() && *x > 0.0).unwrap_or(0);
        perturbed[v] += 2.0 * oracle::VALUE_TOLERANCE * perturbed[v].abs().max(1.0);
        if oracle::values_match(&perturbed, &alg.oracle(&full)) {
            return Err(format!("{alg:?}: gate accepts a perturbed value vector"));
        }
        let mut dropped = StreamingEngine::new(alg.build(), base, EngineConfig::default());
        dropped.initial_compute();
        if oracle::values_match(dropped.values(), &alg.oracle(&full)) {
            return Err(format!("{alg:?}: gate accepts a run that dropped an update"));
        }
    }
    Ok(())
}
