//! Observability for the Kosha reproduction.
//!
//! The paper evaluates Kosha purely by external wall-clock measurement
//! (Modified Andrew Benchmark, §5/§6); the only internal visibility the
//! prototype had was printf. This crate gives every layer of the
//! reproduction the instrumentation-first tooling the DHT-storage
//! literature uses to attribute cost:
//!
//! * [`Histogram`] — a lock-free log-linear latency histogram (atomic
//!   buckets, ~6% relative error) with p50/p95/p99/max and lossless
//!   merge,
//! * [`Registry`] — named counters, gauges, and histograms with a
//!   Prometheus-style text exposition ([`Registry::render`]) and a
//!   compact JSON dump ([`Registry::to_json`]) for benches,
//! * [`Journal`] — a bounded ring buffer of structured events stamped
//!   with the transport clock ([`crate::journal::Event`]) and an op-id
//!   for causality, scoped per node,
//! * [`trace`] — Dapper-style causal tracing: per-node span buffers
//!   ([`Tracer`]) whose ids propagate through the RPC wire header, plus
//!   a collector/analyzer that reconstructs span trees and attributes
//!   critical-path time (parallel fan-out charged as `max`, not sum).
//!
//! The crate has zero dependencies (it sits *below* `kosha-rpc` in the
//! dependency graph, so every layer can use it). Time is plain `u64`
//! nanoseconds; callers stamp events from whatever clock their transport
//! uses (`SimTime` under `SimNetwork`, monotonic wall time under
//! `ThreadedNetwork`), keeping output deterministic in simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod histogram;
pub mod journal;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use histogram::Histogram;
pub use journal::{Event, Journal};
pub use recorder::{HeatEntry, ReadHeat, Recorder, Series};
pub use registry::{Counter, Gauge, Registry};
pub use trace::{SpanContext, SpanRecord, Tracer};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One observability domain: a metrics registry plus an event journal
/// sharing an op-id sequence. Layers within one node (or one transport)
/// share a single `Obs` so their metrics and events correlate.
#[derive(Debug)]
pub struct Obs {
    /// Named metrics.
    pub registry: Registry,
    /// Structured event ring.
    pub journal: Journal,
    /// Causal-trace span buffer (see [`trace`]).
    pub tracer: Tracer,
    /// Flight-recorder time-series store (see [`recorder`]).
    pub recorder: Recorder,
    next_op: AtomicU64,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::with_journal_capacity(Journal::DEFAULT_CAPACITY)
    }
}

impl Obs {
    /// New domain with the default journal capacity.
    #[must_use]
    pub fn new() -> Arc<Self> {
        Arc::new(Obs::default())
    }

    /// New domain whose journal keeps the last `capacity` events.
    #[must_use]
    pub fn with_journal_capacity(capacity: usize) -> Self {
        Obs {
            registry: Registry::new(),
            journal: Journal::new(capacity),
            tracer: Tracer::default(),
            recorder: Recorder::default(),
            next_op: AtomicU64::new(1),
        }
    }

    /// Allocates the next operation id (used to correlate journal events
    /// belonging to one logical operation across layers).
    pub fn next_op_id(&self) -> u64 {
        self.next_op.fetch_add(1, Ordering::Relaxed)
    }

    /// One sampler tick at `t_nanos`: publishes the self gauges, then
    /// samples every recorder source. Every sampler (node pumps and the
    /// transports) ticks its domain through this one call.
    pub fn tick(&self, t_nanos: u64) {
        self.export_self_gauges();
        self.recorder.sample_all(t_nanos);
    }

    /// Self-observability: publishes this domain's own telemetry-loss
    /// counters as registry gauges, so silent drops (journal ring full,
    /// tracer buffer full, recorder series budget exhausted) are visible
    /// through the same exposition as everything else. Cheap (four
    /// atomic loads, four atomic stores).
    fn export_self_gauges(&self) {
        self.registry
            .gauge("kosha_obs_journal_dropped_total")
            .set(self.journal.dropped() as i64);
        self.registry
            .gauge("kosha_obs_trace_dropped_total")
            .set(self.tracer.dropped() as i64);
        self.registry
            .gauge("kosha_obs_recorder_dropped_total")
            .set(self.recorder.dropped() as i64);
        self.registry
            .gauge("kosha_obs_recorder_downsamples_total")
            .set(self.recorder.downsamples() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_ids_are_unique_and_monotonic() {
        let obs = Obs::new();
        let a = obs.next_op_id();
        let b = obs.next_op_id();
        assert!(b > a);
    }

    #[test]
    fn self_gauges_expose_telemetry_loss() {
        let obs = Obs::with_journal_capacity(2);
        obs.journal.record(0, 1, "k", 1, "a");
        obs.journal.record(1, 1, "k", 2, "b");
        obs.journal.record(2, 1, "k", 3, "c"); // ring full → one drop
        obs.tick(3);
        assert_eq!(
            obs.registry.gauge("kosha_obs_journal_dropped_total").get(),
            1
        );
        assert_eq!(obs.registry.gauge("kosha_obs_trace_dropped_total").get(), 0);
        assert_eq!(
            obs.registry.gauge("kosha_obs_recorder_dropped_total").get(),
            0
        );
        assert_eq!(
            obs.registry
                .gauge("kosha_obs_recorder_downsamples_total")
                .get(),
            0
        );
    }

    #[test]
    fn recorder_ceiling_overflow_surfaces_in_self_gauges() {
        // Churn past the series ceiling must show up in the standard
        // exposition (`kosha_obs_recorder_dropped_total`), not vanish.
        let obs = Obs::default();
        for i in 0..recorder::DEFAULT_MAX_SERIES {
            obs.recorder.record(&format!("s{i:04}"), 1, 0);
        }
        obs.recorder.record("one-too-many", 2, 0);
        obs.recorder.record("two-too-many", 2, 0);
        obs.tick(3);
        assert_eq!(
            obs.registry.gauge("kosha_obs_recorder_dropped_total").get(),
            2
        );
        assert_eq!(
            obs.recorder.series_count(),
            recorder::DEFAULT_MAX_SERIES,
            "ceiling held without eviction"
        );
    }

    #[test]
    fn registry_and_journal_share_a_domain() {
        let obs = Obs::new();
        obs.registry.counter("x_total").inc();
        let op = obs.next_op_id();
        obs.journal.record(0, 7, "test", op, "hello");
        assert_eq!(obs.registry.counter("x_total").get(), 1);
        assert_eq!(obs.journal.len(), 1);
    }
}
