//! Open-loop latency at fixed offered rates, and the sustained-rate rule.
//!
//! The library engine is synchronous, so the workloads run a closed loop
//! and queue its measured per-batch service times through each offered
//! rate ([`lindley`]). A rung is a fixed offered rate in updates per
//! second. Each batch is timed from the moment it was *due*, so a stall
//! also charges the wait it imposes on everything queued behind it. A rung
//! passes when its converge p99 is within the workload's limit and the
//! backlog did not grow (the last quarter's median latency is also within
//! the limit). The ladder climbs from the workload's low rate in steps of
//! [`LADDER_STEP`], finer than any regression bound, and the sustained
//! rate is the delivered rate of the highest rung that passes before the
//! first one that fails.

use crate::util::{median, percentile};

/// Ratio between neighbouring rungs of the sustained-rate ladder.
pub const LADDER_STEP: f64 = 1.02;
/// Rungs climbed at most (the low rate times about 4e8).
const MAX_RUNGS: usize = 1000;

#[derive(Debug, Clone)]
pub struct Rung {
    /// Converge latency per batch, ms, in due order.
    pub latency_ms: Vec<f64>,
    /// Updates converged per second of the rung's span.
    pub delivered: f64,
}

impl Rung {
    /// Queues the closed loop's batches through offered rate `rate`.
    pub fn new(service_ms: &[f64], sizes: &[usize], rate: f64) -> Rung {
        let (due, done) = lindley(service_ms, sizes, rate);
        let latency_ms = due.iter().zip(&done).map(|(d, c)| (c - d) * 1e3).collect();
        let delivered = sizes.iter().sum::<usize>() as f64 / done.last().copied().unwrap_or(0.0);
        Rung { latency_ms, delivered }
    }

    pub fn p50(&self) -> f64 {
        percentile(&self.latency_ms, 0.5)
    }

    pub fn p99(&self) -> f64 {
        percentile(&self.latency_ms, 0.99)
    }

    pub fn passes(&self, limit_ms: f64) -> bool {
        let tail = &self.latency_ms[self.latency_ms.len() * 3 / 4..];
        self.p99() <= limit_ms && median(tail) <= limit_ms
    }
}

/// Delivered rate of the highest passing rung of the ladder that starts
/// at `low_rate`, climbing until a rung fails; 0 when the first fails.
pub fn sustained(service_ms: &[f64], sizes: &[usize], low_rate: f64, limit_ms: f64) -> f64 {
    let mut best = 0.0;
    let mut rate = low_rate;
    for _ in 0..MAX_RUNGS {
        let rung = Rung::new(service_ms, sizes, rate);
        if !rung.passes(limit_ms) {
            break;
        }
        best = rung.delivered;
        rate *= LADDER_STEP;
    }
    best
}

/// Queue a synchronous engine through an open loop: batch `i` (of
/// `sizes[i]` updates) is due when the offered rate has produced its
/// updates, starts when it is due and the engine is free, and takes its
/// measured service time. Returns per-batch due and completion times, s.
pub fn lindley(service_ms: &[f64], sizes: &[usize], rate: f64) -> (Vec<f64>, Vec<f64>) {
    let mut due = Vec::with_capacity(sizes.len());
    let mut done = Vec::with_capacity(sizes.len());
    let (mut produced, mut free_at) = (0usize, 0.0f64);
    for (&s, &n) in service_ms.iter().zip(sizes) {
        produced += n;
        let d = produced as f64 / rate;
        free_at = free_at.max(d) + s / 1e3;
        due.push(d);
        done.push(free_at);
    }
    (due, done)
}
