//! Software streaming-graph baselines for JetStream.
//!
//! The paper compares JetStream against the two state-of-the-art software
//! frameworks that support edge deletions:
//!
//! * **KickStarter** (Vora et al., ASPLOS'17) for *selective* (monotonic)
//!   algorithms — implemented in [`KickStarter`]: BSP push-style value
//!   iteration with a dependency tree; on deletion it tags the transitively
//!   dependent vertices, resets them, *trims* their approximations by
//!   re-reading all in-neighbor states (JetStream's re-approximation reads
//!   the same in-neighbours, as queued events), and reconverges
//!   synchronously.
//! * **GraphBolt** (Mariappan & Vora, EuroSys'19) for *accumulative*
//!   algorithms — implemented in [`GraphBolt`]: synchronous (Jacobi)
//!   iterations with per-iteration aggregation history; a mutation
//!   invalidates a frontier of vertices at iteration 1 and the refinement
//!   propagates forward through the stored iterations, recomputing only
//!   changed aggregations.
//!
//! Both expose the same `initial_compute` / `apply_batch` API as the
//! JetStream engine so that the benchmark harness can time all three systems
//! on identical workloads. Results are validated against the sequential
//! oracles in tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graphbolt;
mod kickstarter;
mod stats;

pub mod parallel;

pub use graphbolt::GraphBolt;
pub use kickstarter::KickStarter;
pub use stats::SoftwareStats;
