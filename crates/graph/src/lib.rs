//! Graph substrate for the JetStream streaming graph accelerator.
//!
//! This crate provides everything the engine, simulator, and baselines need to
//! represent and evolve graphs:
//!
//! * [`Csr`] — compressed sparse row adjacency, the storage format the
//!   accelerator reads from its device memory (§4.7 of the paper).
//! * [`CsrPair`] — out-edge and in-edge CSR for the same graph; JetStream
//!   needs incoming edges to re-approximate reset vertices during recovery.
//! * [`AdjacencyGraph`] — the host-side mutable, versioned graph. The paper
//!   assumes the host maintains the evolving edge list and hands the
//!   accelerator a CSR of each version; `AdjacencyGraph` plays that role
//!   by validating batches in front of a delta-maintained [`CsrPair`] that
//!   the engines read directly.
//! * [`UpdateBatch`] / [`EdgeUpdate`] — batched edge insertions and deletions
//!   (graph *mutations* in the paper's terminology).
//! * [`gen`] — deterministic synthetic dataset generators standing in for the
//!   paper's five real-world graphs (Table 2), plus streaming batch
//!   generators.
//! * [`partition`] — minimum-edge-cut graph slicing (the paper uses PuLP).
//! * [`io`] — edge-list and update-stream file formats.
//! * [`versioned`] — multi-version CSR storage with O(1) pointer swap, the
//!   host-side graph versioning framework §4.7 assumes (GraphOne/Version
//!   Traveler stand-in).
//!
//! # Example
//!
//! ```
//! use jetstream_graph::{AdjacencyGraph, UpdateBatch};
//!
//! # fn main() -> Result<(), jetstream_graph::GraphError> {
//! let mut g = AdjacencyGraph::new(4);
//! g.insert_edge(0, 1, 2.0)?;
//! g.insert_edge(1, 2, 3.0)?;
//!
//! let csr = g.snapshot();
//! assert_eq!(csr.num_edges(), 2);
//!
//! let mut batch = UpdateBatch::new();
//! batch.insert(2, 3, 1.0);
//! batch.delete(0, 1);
//! g.apply_batch(&batch)?;
//! assert_eq!(g.num_edges(), 2);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod csr;
mod dcsr;
mod error;
mod mutable;
mod update;

pub mod gen;
pub mod io;
pub mod partition;
pub mod rng;
pub mod versioned;

pub use csr::{Csr, CsrPair, EdgeRef};
pub use error::GraphError;
pub use mutable::{AdjacencyGraph, ValidatedBatch};
pub use update::{EdgeUpdate, UpdateBatch, UpdateRejection};

/// Identifier of a vertex. Graphs are addressed `0..num_vertices`.
pub type VertexId = u32;

/// Edge weight / vertex value scalar used throughout the system.
pub type Weight = f64;
