use jetstream_algorithms::{Algorithm, EdgeCtx, UpdateKind, Value};
use jetstream_graph::{AdjacencyGraph, CsrPair, EdgeUpdate, GraphError, UpdateBatch, VertexId};

use crate::event::Event;
use crate::kernel::{self, ExecState, KernelCtx};
use crate::queue::{CoalescingQueue, QueueStats};
use crate::stats::{Phase, RunStats};
use crate::trace::{OpKind, Trace, TraceBuilder, TraceOp};

/// Delete-propagation strategy (§3.4 base algorithm and the §5 optimizations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeleteStrategy {
    /// Baseline tagging: every delete event resets its target (Algorithm 4).
    Tag,
    /// Value-aware propagation: a delete is discarded when the receiver's
    /// state is strictly more progressed than the deleted contribution
    /// (§5.1).
    Vap,
    /// Dependency-aware propagation: a delete only resets its target when
    /// the target's recorded dependency matches the delete's source (§5.2).
    /// This is JetStream's best configuration and the default.
    #[default]
    Dap,
}

impl DeleteStrategy {
    /// All strategies in the paper's Fig. 12 order (Base, +VAP, +DAP).
    pub const ALL: [DeleteStrategy; 3] =
        [DeleteStrategy::Tag, DeleteStrategy::Vap, DeleteStrategy::Dap];

    /// Label used in Fig. 12.
    pub fn label(self) -> &'static str {
        match self {
            DeleteStrategy::Tag => "Base",
            DeleteStrategy::Vap => "+VAP",
            DeleteStrategy::Dap => "+DAP",
        }
    }
}

/// How accumulative algorithms revert deleted contributions (§3.5,
/// Algorithms 3 & 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccumulativeRecovery {
    /// The paper's literal Algorithm 6: negative events converge on the
    /// sink-transformed intermediate graph, then re-insertion events
    /// converge on the new graph. Both waves carry full contribution
    /// magnitudes, so kept edges are rolled back and replayed in separate
    /// phases without cancelling.
    TwoPhase,
    /// Coalesced recovery (default): rollback (old-context) and replay
    /// (new-context) events are queued together, so the `-old` and `+new`
    /// contributions of every *kept* edge coalesce to a near-zero net
    /// delta before processing, and one computation on the new graph
    /// converges. Algebraically equivalent — the net seed plus incremental
    /// forwarding telescopes to `V_final·d/deg_new − V_old·d/deg_old` per
    /// edge — but the work scales with the batch instead of with the
    /// touched vertices' total contribution mass.
    #[default]
    Coalesced,
}

/// RisGraph-style admission classification of a single streaming update
/// against the engine's converged state (see PAPERS.md: RisGraph classifies
/// updates as *safe* — applicable without rescheduling a full incremental
/// re-evaluation — vs *unsafe*).
///
/// The classification is a pre-check, not a semantic change: applying a
/// safe update through the full [`StreamingEngine::apply_update_batch`]
/// machinery produces bit-identical values — the delete wave provably
/// resets nothing — so [`StreamingEngine::apply_admitted_batch`] may skip
/// scheduling it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateSafety {
    /// The update cannot invalidate any converged value: a monotone
    /// insertion (it can only improve targets through the normal insert
    /// flow), or a deletion of an edge the dependence tree does not use.
    Safe,
    /// The update may force resets and re-approximation: a deletion of a
    /// `Leads-To` tree edge, or any update under a configuration where the
    /// dependence tree is not maintained (non-DAP, accumulative).
    Unsafe,
}

/// Per-batch tally of [`UpdateSafety`] classifications, computed by
/// [`StreamingEngine::classify_batch`] against the pre-batch converged
/// state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchClassification {
    /// Insertions classified safe (selective algorithms: all of them).
    pub safe_inserts: usize,
    /// Insertions classified unsafe (accumulative algorithms: the source's
    /// contribution factor changes, forcing rollback/replay).
    pub unsafe_inserts: usize,
    /// Deletions of non-tree edges (provably no resets under DAP).
    pub safe_deletes: usize,
    /// Deletions that may reset their target and cascade.
    pub unsafe_deletes: usize,
}

impl BatchClassification {
    /// Total updates classified safe.
    pub fn safe(&self) -> usize {
        self.safe_inserts + self.safe_deletes
    }

    /// Total updates classified unsafe.
    pub fn unsafe_total(&self) -> usize {
        self.unsafe_inserts + self.unsafe_deletes
    }

    /// True when every deletion in the batch is provably safe, so the
    /// delete-propagation phases can be skipped wholesale.
    pub fn all_deletes_safe(&self) -> bool {
        self.unsafe_deletes == 0
    }
}

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// How deletions are propagated and pruned (selective algorithms).
    pub delete_strategy: DeleteStrategy,
    /// How deleted contributions are reverted (accumulative algorithms).
    pub accumulative_recovery: AccumulativeRecovery,
    /// Number of queue bins (16 in the modelled hardware).
    pub num_bins: usize,
    /// On-chip queue capacity in vertices. Graphs with more vertices are
    /// processed in slices: the engine drains one slice's events at a
    /// time, and events targeting an inactive slice are counted as spills
    /// to off-chip memory (§4.7). `None` (the default) fits any graph.
    pub queue_capacity: Option<usize>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            delete_strategy: DeleteStrategy::default(),
            accumulative_recovery: AccumulativeRecovery::default(),
            num_bins: 16,
            queue_capacity: None,
        }
    }
}

/// The JetStream functional engine.
///
/// Runs any [`Algorithm`] with the event-driven execution model of
/// GraphPulse (Algorithm 1) and supports streaming update batches with the
/// JetStream recovery flows:
///
/// * selective algorithms: delete tagging → impacted reset → in-edge pull
///   re-approximation → insertion events → recompute (Algorithms 4 & 5);
/// * accumulative algorithms: sink transform → negative deltas on the
///   intermediate graph → re-insertion events → recompute (Algorithms 3 & 6,
///   Fig. 5).
///
/// # Example
///
/// ```
/// use jetstream_core::{StreamingEngine, EngineConfig};
/// use jetstream_algorithms::Sssp;
/// use jetstream_graph::{AdjacencyGraph, UpdateBatch};
///
/// # fn main() -> Result<(), jetstream_graph::GraphError> {
/// let mut g = AdjacencyGraph::new(3);
/// g.insert_edge(0, 1, 4.0)?;
/// g.insert_edge(1, 2, 1.0)?;
///
/// let mut engine = StreamingEngine::new(Box::new(Sssp::new(0)), g, EngineConfig::default());
/// engine.initial_compute();
/// assert_eq!(engine.values()[2], 5.0);
///
/// let mut batch = UpdateBatch::new();
/// batch.insert(0, 2, 2.0); // a shortcut appears
/// engine.apply_update_batch(&batch)?;
/// assert_eq!(engine.values()[2], 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StreamingEngine {
    alg: Box<dyn Algorithm>,
    /// The one evolving graph: its maintained CSR pair is what every
    /// phase traverses.
    host: AdjacencyGraph,
    values: Vec<Value>,
    dependency: Vec<Option<VertexId>>,
    impacted: Vec<VertexId>,
    queue: CoalescingQueue,
    config: EngineConfig,
    /// Slice currently being drained (`active_slice * capacity ..`),
    /// meaningful only while the graph is partitioned (§4.7).
    active_slice: usize,
    stats: RunStats,
    tracer: TraceBuilder,
    /// Reusable round buffer for [`run_queue`](StreamingEngine::run_queue):
    /// grows to the high-water event count once, then steady-state drains
    /// allocate nothing.
    round_scratch: Vec<Event>,
    /// Reusable per-batch scratch (same lifetime story as `round_scratch`):
    /// touched vertices of an accumulative batch, their captured old
    /// out-edges (flattened, with prefix bounds), their value snapshot, a
    /// neighbor buffer for phases that emit while reading the CSR, and the
    /// events pulled for one reset vertex. All empty between batches.
    touched_scratch: Vec<VertexId>,
    old_edge_scratch: Vec<(VertexId, Value)>,
    old_edge_bounds: Vec<usize>,
    state_scratch: Vec<Value>,
    edge_scratch: Vec<(VertexId, Value)>,
    pull_scratch: Vec<Event>,
}

/// Why restored checkpoint state cannot be mounted on a graph.
///
/// Produced by [`StreamingEngine::from_checkpoint`]; the durable-store crate
/// maps this into its own error type when recovering from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// A state vector's length does not match the graph's vertex count.
    LengthMismatch {
        /// Which vector mismatched (`"values"` or `"dependency"`).
        what: &'static str,
        /// Length of the supplied vector.
        found: usize,
        /// Vertex count of the supplied graph.
        num_vertices: usize,
    },
    /// A recorded Leads-To dependence refers to an edge absent from the
    /// graph — state and graph are from different moments in the stream.
    DanglingDependency {
        /// The vertex whose dependence is dangling.
        vertex: VertexId,
        /// The recorded source it claims to depend on.
        leads_to: VertexId,
    },
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::LengthMismatch { what, found, num_vertices } => write!(
                f,
                "{what} vector has length {found} but the graph has {num_vertices} vertices"
            ),
            CheckpointError::DanglingDependency { vertex, leads_to } => write!(
                f,
                "vertex {vertex} leads-to {leads_to}, but edge {leads_to} -> {vertex} \
                 is not in the graph"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Checks that restored checkpoint state can belong to `host`: vector
/// lengths match the vertex count and every recorded Leads-To dependence is
/// an edge of the graph. Shared by [`StreamingEngine::from_checkpoint`] and
/// [`ShardedEngine::from_checkpoint`](crate::ShardedEngine::from_checkpoint).
pub(crate) fn check_checkpoint_state(
    host: &AdjacencyGraph,
    values: &[Value],
    dependency: &[Option<VertexId>],
) -> Result<(), CheckpointError> {
    let n = host.num_vertices();
    if values.len() != n {
        return Err(CheckpointError::LengthMismatch {
            what: "values",
            found: values.len(),
            num_vertices: n,
        });
    }
    if dependency.len() != n {
        return Err(CheckpointError::LengthMismatch {
            what: "dependency",
            found: dependency.len(),
            num_vertices: n,
        });
    }
    for (v, dep) in dependency.iter().enumerate() {
        if let Some(u) = dep {
            // cast-ok: index < num_vertices <= u32::MAX, enforced at graph construction
            if !host.has_edge(*u, v as VertexId) {
                return Err(CheckpointError::DanglingDependency {
                    vertex: v as VertexId, // cast-ok: index < num_vertices <= u32::MAX, enforced at graph construction
                    leads_to: *u,
                });
            }
        }
    }
    Ok(())
}

impl StreamingEngine {
    /// Creates an engine over `host` (the evolving graph) for `alg`.
    pub fn new(alg: Box<dyn Algorithm>, host: AdjacencyGraph, config: EngineConfig) -> Self {
        let n = host.num_vertices();
        let identity = alg.identity();
        StreamingEngine {
            queue: CoalescingQueue::new(n, config.num_bins),
            values: vec![identity; n],
            dependency: vec![None; n],
            impacted: Vec::new(),
            alg,
            host,
            config,
            active_slice: 0,
            stats: RunStats::default(),
            tracer: TraceBuilder::default(),
            round_scratch: Vec::new(),
            touched_scratch: Vec::new(),
            old_edge_scratch: Vec::new(),
            old_edge_bounds: Vec::new(),
            state_scratch: Vec::new(),
            edge_scratch: Vec::new(),
            pull_scratch: Vec::new(),
        }
    }

    /// Warm-starts an engine from previously converged state — the durable
    /// counterpart of the recoverable approximation of §3.4.
    ///
    /// `values` and `dependency` must be the `values()` / `dependencies()`
    /// of an engine that had converged over `host` with the same algorithm.
    /// No recomputation happens: the event queue starts empty and the next
    /// `apply_update_batch` proceeds incrementally from the restored state,
    /// exactly as it would have on the original engine.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] when the restored state cannot belong to
    /// `host`: mismatched lengths, or a dependence edge that does not exist
    /// in the graph. Value-level convergence is *not* re-derived here (that
    /// would be a cold start); callers wanting the full check can run
    /// [`validate_converged`](StreamingEngine::validate_converged) on the
    /// returned engine.
    pub fn from_checkpoint(
        alg: Box<dyn Algorithm>,
        host: AdjacencyGraph,
        values: Vec<Value>,
        dependency: Vec<Option<VertexId>>,
        config: EngineConfig,
    ) -> Result<Self, CheckpointError> {
        check_checkpoint_state(&host, &values, &dependency)?;
        let n = host.num_vertices();
        Ok(StreamingEngine {
            queue: CoalescingQueue::new(n, config.num_bins),
            values,
            dependency,
            impacted: Vec::new(),
            alg,
            host,
            config,
            active_slice: 0,
            stats: RunStats::default(),
            tracer: TraceBuilder::default(),
            round_scratch: Vec::new(),
            touched_scratch: Vec::new(),
            old_edge_scratch: Vec::new(),
            old_edge_bounds: Vec::new(),
            state_scratch: Vec::new(),
            edge_scratch: Vec::new(),
            pull_scratch: Vec::new(),
        })
    }

    /// Number of slices the graph is partitioned into (1 when it fits the
    /// configured queue capacity).
    pub fn num_slices(&self) -> usize {
        match self.config.queue_capacity {
            Some(cap) if cap > 0 => self.values.len().div_ceil(cap).max(1),
            _ => 1,
        }
    }

    /// The algorithm being evaluated.
    pub fn algorithm(&self) -> &dyn Algorithm {
        self.alg.as_ref()
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// Current converged (or in-progress) vertex values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// The host-side evolving graph.
    pub fn graph(&self) -> &AdjacencyGraph {
        &self.host
    }

    /// The active CSR pair: the host graph's own rows.
    pub fn csr(&self) -> &CsrPair {
        self.host.pair()
    }

    /// Vertices reset during the most recent streaming batch (Fig. 10).
    pub fn last_impacted(&self) -> &[VertexId] {
        &self.impacted
    }

    /// The recorded dependency (`Leads-To`) source of each vertex under DAP
    /// (§5.2): the vertex whose contribution last changed this vertex's
    /// state, or `None` for initializer-seeded or reset vertices.
    pub fn dependencies(&self) -> &[Option<VertexId>] {
        &self.dependency
    }

    /// Cumulative queue statistics.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Enables or disables operation tracing (for the cycle simulator).
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracer.set_enabled(enabled);
    }

    /// Takes the trace recorded since tracing was enabled (or the last take).
    pub fn take_trace(&mut self) -> Trace {
        self.tracer.take()
    }

    /// Runs the static (cold) evaluation from scratch on the current graph
    /// version — the GraphPulse execution flow (§4.6.1).
    pub fn initial_compute(&mut self) -> RunStats {
        self.stats = RunStats::default();
        let identity = self.alg.identity();
        self.values.fill(identity);
        self.dependency.fill(None);
        self.tracer.begin_phase(Phase::Initial);
        for (v, val) in self.alg.initial_events(&self.host.pair().out) {
            let targets_start = self.tracer.targets_start();
            self.emit(Event::regular(v, val));
            self.tracer.push_target(v);
            self.tracer.push_op(TraceOp {
                vertex: v,
                kind: OpKind::StreamRead,
                changed: true,
                edges_read: 0,
                targets_start,
                targets_len: 1,
            });
        }
        self.tracer.end_round();
        self.run_queue(Phase::Initial, None);
        self.stats.events_coalesced = self.queue.stats().coalesced;
        #[cfg(feature = "strict-invariants")]
        debug_assert_eq!(self.validate_converged(), Ok(()), "post-compute invariant violated");
        self.stats
    }

    /// Applies a streaming update batch and incrementally reevaluates the
    /// query (the JetStream flow, §4.6.2).
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] when the batch is invalid against the
    /// current graph version (the graph and query state are unchanged).
    pub fn apply_update_batch(&mut self, batch: &UpdateBatch) -> Result<RunStats, GraphError> {
        self.stats = RunStats::default();
        let coalesced_before = self.queue.stats().coalesced;
        match self.alg.kind() {
            UpdateKind::Selective => self.stream_selective(batch)?,
            UpdateKind::Accumulative => self.stream_accumulative(batch)?,
        }
        self.stats.events_coalesced = self.queue.stats().coalesced - coalesced_before;
        #[cfg(feature = "strict-invariants")]
        debug_assert_eq!(self.validate_converged(), Ok(()), "post-batch invariant violated");
        Ok(self.stats)
    }

    /// Checks the engine's cross-structure invariants after a completed
    /// computation, returning a description of the first violation found:
    ///
    /// * the event queue is fully drained and internally consistent;
    /// * the active CSR pair is structurally valid and direction-symmetric;
    /// * under DAP, every recorded `Leads-To` dependency (§5.2) is an edge
    ///   of the active graph — a dangling dependency means a deleted edge's
    ///   contribution survived recovery (the recoverable-approximation
    ///   property of §3.4 would be broken);
    /// * selective algorithms: the values are a fixed point — no edge can
    ///   still improve its target, i.e. for every edge `u -> v` the
    ///   contribution `u` currently sends over it reduces into `v`'s value
    ///   without changing it;
    /// * accumulative algorithms: every value is finite (the rollback and
    ///   replay waves of Fig. 5 must cancel, never diverge).
    ///
    /// Always compiled; `apply_update_batch` and `initial_compute` wire it
    /// into a debug assertion under the `strict-invariants` feature.
    pub fn validate_converged(&self) -> Result<(), String> {
        if !self.queue.is_empty() {
            return Err(format!("queue still holds {} events", self.queue.len()));
        }
        self.queue.validate().map_err(|e| format!("queue: {e}"))?;
        self.host.pair().validate().map_err(|e| format!("csr: {e}"))?;
        kernel::validate_converged_values(
            self.alg.as_ref(),
            self.host.pair(),
            &self.values,
            &self.dependency,
            self.config.delete_strategy,
        )
    }

    /// Classifies a single insertion against the converged state.
    ///
    /// Selective (monotone) algorithms admit any insertion safely: the new
    /// edge can only *improve* its target, which the ordinary insert flow
    /// handles without delete recovery. Accumulative algorithms are always
    /// unsafe: an out-edge changes the source's contribution factor
    /// (`1/deg` or `w/wsum`), forcing the rollback/replay waves of Fig. 5.
    pub fn classify_insert(&self) -> UpdateSafety {
        match self.alg.kind() {
            UpdateKind::Selective => UpdateSafety::Safe,
            UpdateKind::Accumulative => UpdateSafety::Unsafe,
        }
    }

    /// Classifies a single deletion against the converged state: the
    /// RisGraph safe/unsafe pre-check, realized on JetStream's dependence
    /// tree (§5.2).
    ///
    /// Under DAP, a delete event for edge `u -> v` resets `v` only when
    /// `v`'s recorded `Leads-To` dependency is exactly `u` and `v` holds a
    /// non-identity value (see the kernel's reset guard). Both facts are
    /// readable in O(1) *before* the batch is scheduled, so a deletion of a
    /// non-tree edge is provably a no-op for the query state: every other
    /// vertex's value is still supported by its intact dependence chain.
    ///
    /// Anything that cannot be proven safe — a tree-edge delete, a non-DAP
    /// strategy, an accumulative algorithm, an out-of-range id (left for
    /// the apply path to reject with a typed error) — is `Unsafe`.
    pub fn classify_delete(&self, source: VertexId, target: VertexId) -> UpdateSafety {
        if !self.dap_active() {
            return UpdateSafety::Unsafe;
        }
        // cast-ok: VertexId is u32 -> usize is lossless on the >=32-bit targets we support
        let Some(&value) = self.values.get(target as usize) else {
            return UpdateSafety::Unsafe;
        };
        if value == self.alg.identity() {
            // The kernel never resets an identity-valued vertex, whatever
            // its dependency says.
            return UpdateSafety::Safe;
        }
        // cast-ok: VertexId is u32 -> usize is lossless on the >=32-bit targets we support
        if self.dependency[target as usize] == Some(source) {
            UpdateSafety::Unsafe
        } else {
            UpdateSafety::Safe
        }
    }

    /// Classifies one wire update against the converged state.
    pub fn classify_update(&self, update: &EdgeUpdate) -> UpdateSafety {
        match *update {
            EdgeUpdate::Insert { .. } => self.classify_insert(),
            EdgeUpdate::Delete { source, target } => self.classify_delete(source, target),
        }
    }

    /// Tallies [`classify_update`](StreamingEngine::classify_update) over a
    /// whole batch against the *pre-batch* converged state.
    ///
    /// The tally stays valid for every deletion in the batch even though
    /// they apply together: a safe deletion resets nothing, so it cannot
    /// flip another deletion's classification mid-batch.
    pub fn classify_batch(&self, batch: &UpdateBatch) -> BatchClassification {
        let mut class = BatchClassification::default();
        match self.classify_insert() {
            UpdateSafety::Safe => class.safe_inserts = batch.insertions().len(),
            UpdateSafety::Unsafe => class.unsafe_inserts = batch.insertions().len(),
        }
        for &(u, v) in batch.deletions() {
            match self.classify_delete(u, v) {
                UpdateSafety::Safe => class.safe_deletes += 1,
                UpdateSafety::Unsafe => class.unsafe_deletes += 1,
            }
        }
        class
    }

    /// Applies a streaming batch through the admission pre-check: when
    /// every deletion is provably safe (DAP, non-tree edges), the delete
    /// setup/propagation/re-approximation phases are skipped entirely and
    /// only the insert flow runs — the RisGraph-style fast path for
    /// monotone-safe updates. Otherwise this is exactly
    /// [`apply_update_batch`](StreamingEngine::apply_update_batch).
    ///
    /// Values, dependencies, and the impacted set are bit-identical to the
    /// full path either way (the skipped delete wave is a proven no-op on
    /// all three); [`RunStats`] and queue statistics reflect the work
    /// actually performed, so the fast path reports fewer events.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] when the batch is invalid against the
    /// current graph version (the graph and query state are unchanged).
    pub fn apply_admitted_batch(
        &mut self,
        batch: &UpdateBatch,
    ) -> Result<(RunStats, BatchClassification), GraphError> {
        let class = self.classify_batch(batch);
        if !(self.dap_active() && class.all_deletes_safe() && !batch.deletions().is_empty()) {
            // Nothing to skip (or nothing provably skippable): run the
            // full flow. Insert-only selective batches already take the
            // cheap path inside `stream_selective` (no delete events, no
            // impacted vertices), so they need no special casing here.
            return self.apply_update_batch(batch).map(|stats| (stats, class));
        }
        self.stats = RunStats::default();
        let coalesced_before = self.queue.stats().coalesced;
        // `apply_batch` validates the whole batch (missing deletions,
        // duplicate insertions, out-of-range ids) before mutating, so a
        // rejected batch leaves the engine untouched, exactly like the
        // full path. The CSR rows are then maintained in place in
        // O(batch · degree) instead of rebuilt in O(E).
        self.host.apply_batch(batch)?;
        self.impacted.clear();
        // Phase 4 of the selective flow: inserted edges become regular
        // events on the new graph; the delete phases are skipped because
        // classification proved them no-ops.
        self.stream_inserts(batch.insertions());
        self.tracer.begin_phase(Phase::Recompute);
        self.run_queue(Phase::Recompute, None);
        self.stats.events_coalesced = self.queue.stats().coalesced - coalesced_before;
        #[cfg(feature = "strict-invariants")]
        debug_assert_eq!(self.validate_converged(), Ok(()), "post-batch invariant violated");
        Ok((self.stats, class))
    }

    /// Applies the batch and recomputes from scratch — the GraphPulse
    /// "cold-start" baseline the paper compares against.
    ///
    /// # Errors
    ///
    /// Returns a [`GraphError`] when the batch is invalid.
    pub fn cold_restart(&mut self, batch: &UpdateBatch) -> Result<RunStats, GraphError> {
        self.host.apply_batch(batch)?;
        Ok(self.initial_compute())
    }

    // ------------------------------------------------------------------
    // Event-loop machinery
    // ------------------------------------------------------------------

    fn emit(&mut self, event: Event) {
        self.stats.events_generated += 1;
        if let Some(cap) = self.config.queue_capacity {
            // cast-ok: VertexId is u32 -> usize is lossless on the >=32-bit targets we support
            if cap > 0 && (event.target as usize) / cap != self.active_slice {
                self.stats.spilled_events += 1;
            }
        }
        self.queue.insert(event, self.alg.as_ref());
    }

    /// Drains the queue in canonical supersteps until empty.
    ///
    /// A round is the snapshot of everything queued at round start: every
    /// slot event in ascending vertex order, then the overflow events in
    /// arrival order. Events emitted while processing (and deletes spilled
    /// to overflow) always belong to the *next* round — the double-buffered
    /// schedule of the paper's §4.3 scheduler, where a round completes when
    /// every bin has drained once and all processing lanes idle.
    ///
    /// This schedule is what [`ShardedEngine`](crate::ShardedEngine)
    /// reproduces with parallel workers: because a round's event set and
    /// the order events coalesce into the next round's queue are both fixed
    /// here, a sharded run is bit-identical to this loop for any shard
    /// count.
    ///
    /// Events traverse `graph` when given (TwoPhase's intermediate graph)
    /// and the host graph otherwise.
    fn run_queue(&mut self, phase: Phase, graph: Option<&CsrPair>) {
        // Slicing (§4.7) only affects spill accounting under this schedule:
        // while processing an event, the slice of its target is on-chip and
        // emissions leaving that slice count as spills.
        let slice_cap = if self.num_slices() > 1 { self.config.queue_capacity } else { None };
        // Swap the round buffer out of `self` so draining into it can
        // coexist with the `&mut self` event processing below; it goes back
        // at the end, so the allocation survives across rounds and calls.
        let mut events = std::mem::take(&mut self.round_scratch);
        while !self.queue.is_empty() {
            events.clear();
            self.queue.take_all_into(&mut events);
            let pending = self.queue.overflow_len();
            events.reserve(pending);
            for _ in 0..pending {
                let Some(ev) = self.queue.pop_overflow() else { break };
                events.push(ev);
            }
            for &ev in &events {
                if let Some(cap) = slice_cap {
                    self.active_slice = ev.target as usize / cap; // cast-ok: VertexId is u32 -> usize is lossless on the >=32-bit targets we support
                }
                self.process_event(ev, graph);
            }
            self.active_slice = 0;
            self.stats.rounds += 1;
            self.tracer.end_round();
            #[cfg(feature = "strict-invariants")]
            self.queue.debug_validate();
        }
        self.round_scratch = events;
        let _ = phase;
    }

    fn process_event(&mut self, ev: Event, graph: Option<&CsrPair>) {
        let cx = KernelCtx {
            alg: self.alg.as_ref(),
            csr: graph.unwrap_or(self.host.pair()),
            delete_strategy: self.config.delete_strategy,
        };
        let mut st = SeqState {
            values: &mut self.values,
            dependency: &mut self.dependency,
            queue: &mut self.queue,
            stats: &mut self.stats,
            tracer: &mut self.tracer,
            impacted: &mut self.impacted,
            queue_capacity: self.config.queue_capacity,
            active_slice: self.active_slice,
        };
        kernel::process_event(&cx, &mut st, ev);
    }

    fn weight_sum(&self, u: VertexId) -> Value {
        if self.alg.needs_weight_sum() {
            self.host.pair().out.neighbors(u).map(|e| e.weight).sum()
        } else {
            0.0
        }
    }

    fn dap_active(&self) -> bool {
        self.config.delete_strategy == DeleteStrategy::Dap
            && self.alg.kind() == UpdateKind::Selective
    }

    // ------------------------------------------------------------------
    // Selective (monotonic) streaming flow — Algorithms 4 & 5
    // ------------------------------------------------------------------

    fn stream_selective(&mut self, batch: &UpdateBatch) -> Result<(), GraphError> {
        // Capture deleted-edge weights and validate the batch without
        // mutating: the delete phases still run on the old rows, and the
        // batch commits at the §3.5 swap point below.
        let deleted: Vec<(VertexId, VertexId, Value)> = batch
            .deletions()
            .iter()
            .map(|&(u, v)| {
                self.host
                    .edge_weight(u, v)
                    .map(|w| (u, v, w))
                    .ok_or(GraphError::MissingEdge { source: u, target: v })
            })
            .collect::<Result<_, _>>()?;
        let validated = self.host.validate_batch(batch)?;
        self.impacted.clear();

        // DAP must keep per-source delete events distinct from the very
        // first event on: two deletions targeting the same vertex carry
        // different source ids and must both be examined (§5.2).
        self.queue.set_coalesce_deletes(self.config.delete_strategy != DeleteStrategy::Dap);

        // Phase 1 — stream deleted edges into delete events (Algorithm 4,
        // ProcessDeletesSelective; §4.6.2 "Delete Setup and Preparation").
        self.tracer.begin_phase(Phase::DeleteSetup);
        for (u, v, w) in deleted {
            self.stats.stream_reads += 1;
            self.stats.vertex_reads += 1; // source state read
            let targets_start = self.tracer.targets_start();
            let event = match self.config.delete_strategy {
                DeleteStrategy::Tag => Some(Event::delete(u, v, self.alg.identity())),
                DeleteStrategy::Vap => {
                    // Payload carries the contribution that flowed over the
                    // deleted edge; if the source never propagated there is
                    // nothing to revert.
                    let state = self.values[u as usize]; // cast-ok: VertexId is u32 -> usize is lossless on the >=32-bit targets we support
                    let deg = self.host.pair().out.degree(u);
                    let wsum = self.weight_sum(u);
                    let ctx = EdgeCtx { weight: w, out_degree: deg, weight_sum: wsum };
                    self.alg
                        .propagate(state, state, &ctx)
                        .map(|payload| Event::delete(u, v, payload))
                }
                DeleteStrategy::Dap => Some(Event::delete(u, v, self.alg.identity())),
            };
            let emitted = event.is_some();
            if let Some(ev) = event {
                self.emit(ev);
                self.tracer.push_target(v);
            }
            self.tracer.push_op(TraceOp {
                vertex: u,
                kind: OpKind::StreamRead,
                changed: emitted,
                edges_read: 0,
                targets_start,
                targets_len: emitted as u32, // cast-ok: count bounded by num_edges < 2^32, checked at graph construction
            });
        }
        self.tracer.end_round();

        // Phase 2 — delete propagation on the *old* graph: tag and reset
        // every potentially impacted vertex (Algorithm 4, ResetImpacted).
        self.tracer.begin_phase(Phase::DeletePropagation);
        self.run_queue(Phase::DeletePropagation, None);
        self.queue.set_coalesce_deletes(true);

        // Graph switches to the new version (§3.5): the rows are
        // maintained in place in O(batch · degree) instead of rebuilt.
        self.host.commit_batch(validated);

        // Phase 3 — re-approximate each impacted vertex by pulling its
        // in-edges (Algorithm 4, Reapproximate; DESIGN.md §3.1).
        self.tracer.begin_phase(Phase::RequestSetup);
        let impacted = std::mem::take(&mut self.impacted);
        let mut pulled = std::mem::take(&mut self.pull_scratch);
        for &x in &impacted {
            pulled.clear();
            let cx = KernelCtx {
                alg: self.alg.as_ref(),
                csr: self.host.pair(),
                delete_strategy: self.config.delete_strategy,
            };
            let in_deg = kernel::pull_in_edges(&cx, &self.values, x, &mut self.stats, &mut pulled);
            let targets_start = self.tracer.targets_start();
            for &ev in &pulled {
                self.emit(ev);
                self.tracer.push_target(x);
            }
            self.tracer.push_op(TraceOp {
                vertex: x,
                kind: OpKind::RequestSetup,
                changed: in_deg > 0 || !pulled.is_empty(),
                edges_read: in_deg,
                targets_start,
                targets_len: pulled.len() as u32, // cast-ok: count bounded by num_edges < 2^32, checked at graph construction
            });
        }
        self.impacted = impacted;
        pulled.clear();
        self.pull_scratch = pulled;
        self.tracer.end_round();

        // Phase 4 — stream inserted edges into regular events
        // (Algorithm 2); they coalesce with the pulled events.
        self.stream_inserts(batch.insertions());

        // Phase 5 — incremental reevaluation on the new graph.
        self.tracer.begin_phase(Phase::Recompute);
        self.run_queue(Phase::Recompute, None);
        Ok(())
    }

    fn stream_inserts(&mut self, insertions: &[(VertexId, VertexId, Value)]) {
        self.tracer.begin_phase(Phase::InsertSetup);
        for &(u, v, w) in insertions {
            self.stats.stream_reads += 1;
            self.stats.vertex_reads += 1;
            let state = self.values[u as usize]; // cast-ok: VertexId is u32 -> usize is lossless on the >=32-bit targets we support
            let deg = self.host.pair().out.degree(u);
            let wsum = self.weight_sum(u);
            let ctx = EdgeCtx { weight: w, out_degree: deg, weight_sum: wsum };
            let targets_start = self.tracer.targets_start();
            let delta = self.alg.propagate(state, state, &ctx);
            let emitted = delta.is_some();
            if let Some(d) = delta {
                let event = if self.dap_active() {
                    Event::regular_from(u, v, d)
                } else {
                    Event::regular(v, d)
                };
                self.emit(event);
                self.tracer.push_target(v);
            }
            self.tracer.push_op(TraceOp {
                vertex: u,
                kind: OpKind::StreamRead,
                changed: emitted,
                edges_read: 0,
                targets_start,
                targets_len: emitted as u32, // cast-ok: count bounded by num_edges < 2^32, checked at graph construction
            });
        }
        self.tracer.end_round();
    }

    // ------------------------------------------------------------------
    // Accumulative streaming flow — Algorithms 3 & 6, Fig. 5
    // ------------------------------------------------------------------

    fn stream_accumulative(&mut self, batch: &UpdateBatch) -> Result<(), GraphError> {
        // Per-batch scratch (sorted touched ids, flattened old out-edges
        // with prefix bounds, value snapshot) is swapped out of `self` so
        // the body can borrow it alongside `&mut self`; it goes back at
        // the end, so steady-state streaming allocates nothing.
        let mut touched = std::mem::take(&mut self.touched_scratch);
        let mut old_edges = std::mem::take(&mut self.old_edge_scratch);
        let mut bounds = std::mem::take(&mut self.old_edge_bounds);
        let mut snapshot = std::mem::take(&mut self.state_scratch);
        let result = self.stream_accumulative_with(
            batch,
            &mut touched,
            &mut old_edges,
            &mut bounds,
            &mut snapshot,
        );
        touched.clear();
        old_edges.clear();
        bounds.clear();
        snapshot.clear();
        self.touched_scratch = touched;
        self.old_edge_scratch = old_edges;
        self.old_edge_bounds = bounds;
        self.state_scratch = snapshot;
        result
    }

    fn stream_accumulative_with(
        &mut self,
        batch: &UpdateBatch,
        touched: &mut Vec<VertexId>,
        old_edges: &mut Vec<(VertexId, Value)>,
        bounds: &mut Vec<usize>,
        snapshot: &mut Vec<Value>,
    ) -> Result<(), GraphError> {
        // `touched` vertices have an out-edge added or deleted: their
        // per-edge contribution factor (1/deg or w/wsum) changes, so the
        // sink transform of Fig. 5 removes *all* their out-edges first.
        touched.extend(batch.deletions().iter().map(|&(u, _)| u));
        touched.extend(batch.insertions().iter().map(|&(u, _, _)| u));
        touched.sort_unstable();
        touched.dedup();
        // Only the touched vertices' out-edge lists change when the batch
        // applies, so capturing those slices (flattened; row `i` lives at
        // `old_edges[bounds[i]..bounds[i+1]]`) replaces the former full
        // `self.host.clone()` (O(batch) instead of O(V + E) per batch).
        bounds.push(0);
        for &u in touched.iter() {
            old_edges.extend(self.host.neighbors(u));
            bounds.push(old_edges.len());
        }
        // The graph advances to the new version in O(batch · degree);
        // phases that need the *old* adjacency use the captured slices.
        self.host.apply_batch(batch)?;
        self.impacted.clear();

        // Phase 1 — negative events for every old out-edge of a touched
        // vertex, using the old degree/weight-sum (Algorithm 3).
        self.tracer.begin_phase(Phase::DeleteSetup);
        snapshot.extend(touched.iter().map(|&u| self.values[u as usize])); // cast-ok: VertexId is u32 -> usize is lossless on the >=32-bit targets we support
        for (i, (&u, &state)) in touched.iter().zip(snapshot.iter()).enumerate() {
            let row = &old_edges[bounds[i]..bounds[i + 1]];
            let deg = row.len();
            let wsum: Value =
                if self.alg.needs_weight_sum() { row.iter().map(|&(_, w)| w).sum() } else { 0.0 };
            self.stats.vertex_reads += 1;
            let targets_start = self.tracer.targets_start();
            let mut generated = 0u32;
            for &(v, w) in row {
                self.stats.stream_reads += 1;
                let ctx = EdgeCtx { weight: w, out_degree: deg, weight_sum: wsum };
                if let Some(c) = self.alg.cumulative_edge_contribution(state, &ctx) {
                    if self.alg.changes_state(0.0, c) {
                        self.emit(Event::regular(v, -c));
                        self.tracer.push_target(v);
                        generated += 1;
                    }
                }
            }
            self.tracer.push_op(TraceOp {
                vertex: u,
                kind: OpKind::StreamRead,
                changed: generated > 0,
                edges_read: deg as u32, // cast-ok: count bounded by num_edges < 2^32, checked at graph construction
                targets_start,
                targets_len: generated,
            });
        }
        self.tracer.end_round();

        if self.config.accumulative_recovery == AccumulativeRecovery::TwoPhase {
            // Compute on the intermediate graph: the old graph with all
            // touched vertices turned into sinks, breaking every cyclic
            // path through them (Fig. 5b). Untouched vertices' out-edges
            // are identical before and after the batch, so the new host
            // filtered by `touched` yields exactly the old graph's
            // non-touched edges; the drain traverses that graph instead of
            // the host's.
            let intermediate_edges: Vec<(VertexId, VertexId, Value)> = self
                .host
                .iter_edges()
                .filter(|(u, _, _)| touched.binary_search(u).is_err())
                .collect();
            let intermediate = CsrPair::new(jetstream_graph::Csr::from_edges(
                self.host.num_vertices(),
                &intermediate_edges,
            ));
            self.tracer.begin_phase(Phase::IntermediateCompute);
            self.run_queue(Phase::IntermediateCompute, Some(&intermediate));
        }

        // Phase 2 — re-insertion events for every *new* out-edge of a
        // touched vertex, using the new degree/weight-sum (Fig. 5c). Under
        // coalesced recovery these merge in the queue with the pending
        // negative events, cancelling the rollback of kept edges.
        self.tracer.begin_phase(Phase::InsertSetup);
        let mut edges = std::mem::take(&mut self.edge_scratch);
        for (&u, &old_state) in touched.iter().zip(snapshot.iter()) {
            let deg = self.host.pair().out.degree(u);
            let wsum: Value = if self.alg.needs_weight_sum() {
                self.host.pair().out.neighbors(u).map(|e| e.weight).sum()
            } else {
                0.0
            };
            // Two-phase recovery replays whatever state the intermediate
            // convergence left; coalesced recovery replays the same
            // snapshot the rollback used.
            let state = match self.config.accumulative_recovery {
                AccumulativeRecovery::TwoPhase => self.values[u as usize], // cast-ok: VertexId is u32 -> usize is lossless on the >=32-bit targets we support
                AccumulativeRecovery::Coalesced => old_state,
            };
            self.stats.vertex_reads += 1;
            let targets_start = self.tracer.targets_start();
            let mut generated = 0u32;
            edges.clear();
            edges.extend(self.host.pair().out.neighbors(u).map(|e| (e.other, e.weight)));
            for &(v, w) in &edges {
                self.stats.stream_reads += 1;
                let ctx = EdgeCtx { weight: w, out_degree: deg, weight_sum: wsum };
                if let Some(c) = self.alg.cumulative_edge_contribution(state, &ctx) {
                    if self.alg.changes_state(0.0, c) {
                        self.emit(Event::regular(v, c));
                        self.tracer.push_target(v);
                        generated += 1;
                    }
                }
            }
            self.tracer.push_op(TraceOp {
                vertex: u,
                kind: OpKind::StreamRead,
                changed: generated > 0,
                edges_read: deg as u32, // cast-ok: count bounded by num_edges < 2^32, checked at graph construction
                targets_start,
                targets_len: generated,
            });
        }
        edges.clear();
        self.edge_scratch = edges;
        self.tracer.end_round();

        // Phase 3 — recompute on the new graph version.
        self.tracer.begin_phase(Phase::Recompute);
        self.run_queue(Phase::Recompute, None);
        Ok(())
    }
}

/// [`ExecState`] backed by the sequential engine's global vectors, queue,
/// and tracer. Built from disjoint field borrows so the kernel can hold the
/// CSR and algorithm immutably alongside it.
struct SeqState<'a> {
    values: &'a mut [Value],
    dependency: &'a mut [Option<VertexId>],
    queue: &'a mut CoalescingQueue,
    stats: &'a mut RunStats,
    tracer: &'a mut TraceBuilder,
    impacted: &'a mut Vec<VertexId>,
    queue_capacity: Option<usize>,
    active_slice: usize,
}

impl ExecState for SeqState<'_> {
    fn value(&self, v: VertexId) -> Value {
        // panic-ok: values/dependency are sized num_vertices and every VertexId the engine sees is range-checked at queue insert
        self.values[v as usize] // cast-ok: VertexId is u32 -> usize is lossless on the >=32-bit targets we support
    }

    fn set_value(&mut self, v: VertexId, x: Value) {
        // panic-ok: values/dependency are sized num_vertices and every VertexId the engine sees is range-checked at queue insert
        self.values[v as usize] = x; // cast-ok: VertexId is u32 -> usize is lossless on the >=32-bit targets we support
    }

    fn dependency(&self, v: VertexId) -> Option<VertexId> {
        // panic-ok: values/dependency are sized num_vertices and every VertexId the engine sees is range-checked at queue insert
        self.dependency[v as usize] // cast-ok: VertexId is u32 -> usize is lossless on the >=32-bit targets we support
    }

    fn set_dependency(&mut self, v: VertexId, d: Option<VertexId>) {
        // panic-ok: values/dependency are sized num_vertices and every VertexId the engine sees is range-checked at queue insert
        self.dependency[v as usize] = d; // cast-ok: VertexId is u32 -> usize is lossless on the >=32-bit targets we support
    }

    fn stats(&mut self) -> &mut RunStats {
        self.stats
    }

    fn impacted(&mut self, v: VertexId) {
        self.impacted.push(v);
    }

    fn emit(&mut self, alg: &dyn Algorithm, ev: Event) {
        // Mirrors `StreamingEngine::emit` (used by the phase drivers):
        // count the emission, account a spill when it leaves the active
        // slice (§4.7), insert into the coalescing queue.
        self.stats.events_generated += 1;
        if let Some(cap) = self.queue_capacity {
            // cast-ok: VertexId is u32 -> usize is lossless on the >=32-bit targets we support
            if cap > 0 && (ev.target as usize) / cap != self.active_slice {
                self.stats.spilled_events += 1;
            }
        }
        self.queue.insert(ev, alg);
    }

    fn trace_targets_start(&mut self) -> u32 {
        self.tracer.targets_start()
    }

    fn trace_push_target(&mut self, v: VertexId) {
        self.tracer.push_target(v);
    }

    fn trace_push_op(&mut self, op: TraceOp) {
        self.tracer.push_op(op);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jetstream_algorithms::Sssp;

    fn chain() -> AdjacencyGraph {
        let mut g = AdjacencyGraph::new(4);
        g.insert_edge(0, 1, 1.0).unwrap();
        g.insert_edge(1, 2, 2.0).unwrap();
        g.insert_edge(2, 3, 3.0).unwrap();
        g
    }

    #[test]
    fn default_config_is_dap_coalesced_16_bins() {
        let c = EngineConfig::default();
        assert_eq!(c.delete_strategy, DeleteStrategy::Dap);
        assert_eq!(c.accumulative_recovery, AccumulativeRecovery::Coalesced);
        assert_eq!(c.num_bins, 16);
    }

    #[test]
    fn strategy_labels_match_figure12() {
        let labels: Vec<_> = DeleteStrategy::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels, vec!["Base", "+VAP", "+DAP"]);
    }

    // Kills mutant jm-c20f8248 (`cap > 0` -> `cap >= 0` in `num_slices`):
    // a zero capacity must fall back to a single slice, never reach the
    // `div_ceil(0)` division.
    #[test]
    fn zero_queue_capacity_means_a_single_slice() {
        let config = EngineConfig { queue_capacity: Some(0), ..EngineConfig::default() };
        let mut e = StreamingEngine::new(Box::new(Sssp::new(0)), chain(), config);
        assert_eq!(e.num_slices(), 1);
        e.initial_compute();
        assert_eq!(e.values(), &[0.0, 1.0, 3.0, 6.0]);
    }

    #[test]
    fn initial_compute_on_chain() {
        let mut e = StreamingEngine::new(Box::new(Sssp::new(0)), chain(), EngineConfig::default());
        let stats = e.initial_compute();
        assert_eq!(e.values(), &[0.0, 1.0, 3.0, 6.0]);
        assert_eq!(stats.events_processed, 4);
        assert_eq!(stats.vertex_writes, 4);
    }

    #[test]
    fn initial_compute_is_idempotent() {
        let mut e = StreamingEngine::new(Box::new(Sssp::new(0)), chain(), EngineConfig::default());
        e.initial_compute();
        let first = e.values().to_vec();
        e.initial_compute();
        assert_eq!(e.values(), &first[..]);
    }

    #[test]
    fn accessors_expose_engine_state() {
        let mut e = StreamingEngine::new(Box::new(Sssp::new(0)), chain(), EngineConfig::default());
        assert_eq!(e.algorithm().name(), "SSSP");
        assert_eq!(e.graph().num_edges(), 3);
        assert_eq!(e.csr().num_edges(), 3);
        assert_eq!(e.config().num_bins, 16);
        e.initial_compute();
        assert!(e.queue_stats().inserts > 0);
        assert!(e.last_impacted().is_empty());
        // Under DAP, each chain vertex depends on its predecessor.
        assert_eq!(e.dependencies()[1], Some(0));
        assert_eq!(e.dependencies()[2], Some(1));
        assert_eq!(e.dependencies()[3], Some(2));
        assert_eq!(e.dependencies()[0], None); // seeded by the initializer
    }

    #[test]
    fn tracing_off_by_default_yields_empty_trace() {
        let mut e = StreamingEngine::new(Box::new(Sssp::new(0)), chain(), EngineConfig::default());
        e.initial_compute();
        assert_eq!(e.take_trace().num_ops(), 0);
    }
}
