//! Operational counters for a koshad instance.
//!
//! The paper's prototype was evaluated by external measurement only;
//! production operators need visibility into what the daemon is doing.
//! Each counter is a handle into the node's [`kosha_obs::Registry`]
//! (named `kosha_*_total`), so the same numbers appear in the node's
//! Prometheus-style exposition and through [`crate::KoshaNode::stats`].
//! They are updated by the client-side interposition layer
//! and the primary-side replica manager; tests also use them to assert
//! that a scenario exercised the intended mechanism, e.g. that a
//! failover actually promoted a replica rather than finding the data by
//! luck.

use kosha_obs::{Counter, Obs};
use std::sync::Arc;

/// Monotonic counters describing a node's Kosha activity. Handles into
/// the owning node's metric registry; bump with `stats.failovers.inc()`.
#[derive(Debug)]
pub struct KoshaStats {
    /// Virtual-filesystem operations served by this koshad to local
    /// applications (`kosha_fs_ops_total`).
    pub fs_ops: Arc<Counter>,
    /// Failovers performed: a node was declared dead and cached
    /// locations were rebound (§4.4; `kosha_failovers_total`).
    pub failovers: Arc<Counter>,
    /// Replica-to-primary promotions performed on this node (§4.4;
    /// `kosha_promotions_total`).
    pub promotions: Arc<Counter>,
    /// Anchors migrated *away* to a new owner (§4.3.1;
    /// `kosha_migrations_out_total`).
    pub migrations_out: Arc<Counter>,
    /// Anchors received from a previous owner (§4.3.1;
    /// `kosha_migrations_in_total`).
    pub migrations_in: Arc<Counter>,
    /// Full replica pushes completed to neighbor nodes (§4.2;
    /// `kosha_replica_pushes_total`).
    pub replica_pushes: Arc<Counter>,
    /// Full replica pushes skipped because the anchor's content digest
    /// and target set matched the last acknowledged push
    /// (`kosha_replica_push_skips_total`).
    pub replica_push_skips: Arc<Counter>,
    /// Anchors pulled from a neighbor's replica area because this node
    /// became owner without holding a copy
    /// (`kosha_replica_pulls_total`).
    pub replica_pulls: Arc<Counter>,
    /// Directory-placement redirections caused by full nodes (§3.3;
    /// `kosha_redirections_total`).
    pub redirections: Arc<Counter>,
    /// READs served from a replica instead of the primary (§4.2's
    /// read-spreading optimization; `kosha_replica_reads_total`).
    pub replica_reads: Arc<Counter>,
    /// Mirror fan-outs that failed on a replica target, leaving that
    /// replica behind the primary until the next full push
    /// (`kosha_replica_mirror_failures_total`).
    pub replica_mirror_failures: Arc<Counter>,
    /// Replica reads that reused a cached replica file handle, skipping
    /// the mount + lookup RPCs (`kosha_replica_handle_hits_total`).
    pub replica_handle_hits: Arc<Counter>,
    /// Ops enqueued on write-behind replica queues instead of being
    /// mirrored synchronously, counted per target queue — the same unit
    /// as [`KoshaStats::writeback_flushed_ops`]
    /// (`kosha_writeback_enqueued_total`).
    pub writeback_enqueued: Arc<Counter>,
    /// Write-behind flush rounds completed (one per barrier or pump
    /// tick that found queued ops; `kosha_writeback_flushes_total`).
    pub writeback_flushes: Arc<Counter>,
    /// Replica ops actually shipped by write-behind flushes, after
    /// coalescing (`kosha_writeback_flushed_ops_total`). The coalesce
    /// ratio is `writeback_enqueued / writeback_flushed_ops`.
    pub writeback_flushed_ops: Arc<Counter>,
    /// Queued ops eliminated by coalescing before a flush
    /// (`kosha_writeback_coalesced_ops_total`).
    pub writeback_coalesced_ops: Arc<Counter>,
    /// Replica-lag events: a write-behind queue was dropped on an
    /// unreachable target, or a promotion found a lag marker — either
    /// way the divergence was journaled rather than silently served
    /// (`kosha_replica_lag_total`).
    pub replica_lag_events: Arc<Counter>,
    /// Stale replica slots garbage-collected by the maintenance pass:
    /// the anchor's owner confirmed this node is no longer a replica
    /// target, so the leftover copy was dropped
    /// (`kosha_replica_gc_total`).
    pub replica_gc: Arc<Counter>,
    /// Heat-driven hot-copy pushes: an object crossed the configured
    /// heat threshold and the primary placed an extra read-only cached
    /// copy beyond K (DESIGN.md §16; `kosha_hot_pushes_total`).
    pub hot_pushes: Arc<Counter>,
    /// Hot copies dropped: heat decayed below the shed threshold, the
    /// object was removed, or a holder left the candidate set
    /// (`kosha_hot_drops_total`).
    pub hot_drops: Arc<Counter>,
    /// Lease invalidations: a mutation to a hot object immediately
    /// voided its outstanding hot-copy leases so no reader can see
    /// pre-write data (`kosha_hot_lease_invalidations_total`).
    pub hot_lease_invalidations: Arc<Counter>,
}

impl KoshaStats {
    /// Resolves (or creates) every counter in `obs`'s registry.
    #[must_use]
    pub fn new(obs: &Obs) -> Self {
        let c = |name: &str| {
            let counter = obs.registry.counter(name);
            // Every koshad counter doubles as a flight-recorder source,
            // so samplers capture its evolution (rates, not just totals).
            obs.recorder.watch_counter(name, &counter);
            counter
        };
        KoshaStats {
            fs_ops: c("kosha_fs_ops_total"),
            failovers: c("kosha_failovers_total"),
            promotions: c("kosha_promotions_total"),
            migrations_out: c("kosha_migrations_out_total"),
            migrations_in: c("kosha_migrations_in_total"),
            replica_pushes: c("kosha_replica_pushes_total"),
            replica_push_skips: c("kosha_replica_push_skips_total"),
            replica_pulls: c("kosha_replica_pulls_total"),
            redirections: c("kosha_redirections_total"),
            replica_reads: c("kosha_replica_reads_total"),
            replica_mirror_failures: c("kosha_replica_mirror_failures_total"),
            replica_handle_hits: c("kosha_replica_handle_hits_total"),
            writeback_enqueued: c("kosha_writeback_enqueued_total"),
            writeback_flushes: c("kosha_writeback_flushes_total"),
            writeback_flushed_ops: c("kosha_writeback_flushed_ops_total"),
            writeback_coalesced_ops: c("kosha_writeback_coalesced_ops_total"),
            replica_lag_events: c("kosha_replica_lag_total"),
            replica_gc: c("kosha_replica_gc_total"),
            hot_pushes: c("kosha_hot_pushes_total"),
            hot_drops: c("kosha_hot_drops_total"),
            hot_lease_invalidations: c("kosha_hot_lease_invalidations_total"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_surface_in_the_registry() {
        let obs = Obs::new();
        let s = KoshaStats::new(&obs);
        s.failovers.inc();
        s.promotions.inc();
        s.promotions.inc();
        assert_eq!(s.failovers.get(), 1);
        assert_eq!(s.promotions.get(), 2);
        assert_eq!(s.fs_ops.get(), 0);
        assert_eq!(obs.registry.counter("kosha_failovers_total").get(), 1);
        assert_eq!(obs.registry.counter("kosha_promotions_total").get(), 2);
        let text = obs.registry.render();
        assert!(text.contains("kosha_failovers_total 1"), "{text}");
    }
}
