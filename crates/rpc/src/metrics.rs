//! Per-service transport metrics, shared by [`crate::SimNetwork`] and
//! [`crate::ThreadedNetwork`].
//!
//! Both transports account every RPC to the same metric family, labeled
//! by destination [`ServiceId`]:
//!
//! * `rpc_calls_total{service=...}` — attempts, including failures,
//! * `rpc_local_calls_total{service=...}` — loopback (same-host) calls,
//! * `rpc_failed_calls_total{service=...}` — calls that returned an
//!   error (dead node, missing service, handler failure),
//! * `rpc_bytes_total{service=...}` — request + response wire bytes,
//! * `rpc_latency_nanos{service=...}` — round-trip latency histogram,
//!   measured as a delta on the transport's own clock (virtual under
//!   `SimNetwork`, so values are deterministic).
//!
//! Handles are resolved once at construction; the per-call path is a few
//! relaxed atomic adds with no locking.
//!
//! The per-service inflight/latency/call series are registered with the
//! domain's flight recorder so samplers can capture their evolution over
//! time. The smoothed per-link latency map is transport state, not
//! telemetry: it stays out of the registry and the recorder, whose size
//! would otherwise grow with the number of links.

use crate::network::{NodeAddr, ServiceId};
use kosha_obs::registry::labeled;
use kosha_obs::{Counter, Gauge, Histogram, Obs};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Metric handles for one destination service.
pub(crate) struct SvcMetrics {
    pub calls: Arc<Counter>,
    pub local: Arc<Counter>,
    pub failed: Arc<Counter>,
    pub bytes: Arc<Counter>,
    pub latency: Arc<Histogram>,
    /// Calls currently in flight (`rpc_inflight{service=...}`): raised
    /// on entry to `call`, lowered on exit, so fan-out depth is visible
    /// live without tracing enabled.
    pub inflight: Arc<Gauge>,
}

/// RAII guard: decrements an inflight gauge on drop (early returns and
/// handler panics both lower it).
pub(crate) struct InflightGuard(Arc<Gauge>);

impl InflightGuard {
    pub fn enter(g: &Arc<Gauge>) -> Self {
        g.add(1);
        InflightGuard(Arc::clone(g))
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.0.add(-1);
    }
}

/// All per-service handles plus the owning [`Obs`] domain.
pub(crate) struct NetMetrics {
    obs: Arc<Obs>,
    per_service: Vec<SvcMetrics>,
    /// Sizes of `call_many` batches (`rpc_fanout_batch_size`).
    pub fanout_batch: Arc<Histogram>,
    /// Smoothed round-trip latency per directed `(source, destination)`
    /// link (EWMA, α = 1/8 like TCP's SRTT), fed by every completed
    /// call. Keying by link rather than destination alone matters on
    /// non-uniform networks: node A's calls to C must not color node
    /// B's estimate of C, or background maintenance traffic from far
    /// peers would perturb every reader's nearest-replica choice. Backs
    /// [`crate::Network::peer_latency_nanos`] for latency-aware replica
    /// selection.
    peer_latency: RwLock<HashMap<(u64, u64), u64>>,
}

impl NetMetrics {
    pub fn new() -> Self {
        let obs = Obs::new();
        let per_service = ServiceId::ALL
            .iter()
            .map(|s| {
                let l = s.name();
                SvcMetrics {
                    calls: obs
                        .registry
                        .counter(&format!("rpc_calls_total{{service=\"{l}\"}}")),
                    local: obs
                        .registry
                        .counter(&format!("rpc_local_calls_total{{service=\"{l}\"}}")),
                    failed: obs
                        .registry
                        .counter(&format!("rpc_failed_calls_total{{service=\"{l}\"}}")),
                    bytes: obs
                        .registry
                        .counter(&format!("rpc_bytes_total{{service=\"{l}\"}}")),
                    latency: obs
                        .registry
                        .histogram(&format!("rpc_latency_nanos{{service=\"{l}\"}}")),
                    inflight: obs
                        .registry
                        .gauge(&format!("rpc_inflight{{service=\"{l}\"}}")),
                }
            })
            .collect();
        let fanout_batch = obs.registry.histogram("rpc_fanout_batch_size");
        let m = NetMetrics {
            obs,
            per_service,
            fanout_batch,
            peer_latency: RwLock::new(HashMap::new()),
        };
        // Arm the flight recorder: in-flight depth, attempt counters,
        // and tail latency per service evolve into time-series on every
        // sampler tick (no-ops until something calls `sample_all`).
        let rec = &m.obs.recorder;
        for s in ServiceId::ALL {
            let svc = m.svc(s);
            let l = s.name();
            rec.watch_gauge(&labeled("rpc_inflight", &[("service", l)]), &svc.inflight);
            rec.watch_counter(&labeled("rpc_calls_total", &[("service", l)]), &svc.calls);
            rec.watch_histogram_pct(
                &format!("{}:p99", labeled("rpc_latency_nanos", &[("service", l)])),
                &svc.latency,
                99,
            );
        }
        m
    }

    /// Folds one completed round trip into the link's EWMA.
    pub fn note_peer_latency(&self, from: NodeAddr, to: NodeAddr, nanos: u64) {
        self.peer_latency
            .write()
            .entry((from.0, to.0))
            .and_modify(|ewma| *ewma = (*ewma * 7 + nanos) / 8)
            .or_insert(nanos);
    }

    /// The link's smoothed latency as observed by `from`'s own
    /// completed calls, if it has made any.
    pub fn peer_latency(&self, from: NodeAddr, to: NodeAddr) -> Option<u64> {
        self.peer_latency.read().get(&(from.0, to.0)).copied()
    }

    /// Retires a departed peer's latency state: drops every link EWMA
    /// touching it, as source or destination. Called on transport
    /// `detach`; without it the link map grows without bound under
    /// churn.
    pub fn prune_peer(&self, addr: NodeAddr) {
        self.peer_latency
            .write()
            .retain(|&(f, t), _| f != addr.0 && t != addr.0);
    }

    /// The observability domain (for exposition and tests).
    pub fn obs(&self) -> Arc<Obs> {
        Arc::clone(&self.obs)
    }

    /// The transport's span buffer (RPC client spans land here).
    pub fn tracer(&self) -> &kosha_obs::Tracer {
        &self.obs.tracer
    }

    /// Handles for one service.
    pub fn svc(&self, s: ServiceId) -> &SvcMetrics {
        &self.per_service[s.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_service_is_preregistered() {
        let m = NetMetrics::new();
        let names = m.obs().registry.names();
        for s in ServiceId::ALL {
            assert!(
                names
                    .iter()
                    .any(|n| n.starts_with("rpc_calls_total") && n.contains(s.name())),
                "missing calls metric for {s:?} in {names:?}"
            );
        }
        m.svc(ServiceId::Nfs).calls.inc();
        assert_eq!(
            m.obs()
                .registry
                .counter("rpc_calls_total{service=\"nfs\"}")
                .get(),
            1
        );
    }

    #[test]
    fn inflight_gauge_tracks_guard_lifetime() {
        let m = NetMetrics::new();
        let g = &m.svc(ServiceId::KoshaReplica).inflight;
        assert_eq!(g.get(), 0);
        {
            let _a = InflightGuard::enter(g);
            let _b = InflightGuard::enter(g);
            assert_eq!(g.get(), 2);
        }
        assert_eq!(g.get(), 0);
        assert_eq!(
            m.obs()
                .registry
                .gauge("rpc_inflight{service=\"replica\"}")
                .get(),
            0
        );
    }

    #[test]
    fn peer_latency_ewma_smooths() {
        let m = NetMetrics::new();
        let from = NodeAddr(1);
        let to = NodeAddr(5);
        assert_eq!(m.peer_latency(from, to), None);
        m.note_peer_latency(from, to, 800);
        assert_eq!(m.peer_latency(from, to), Some(800));
        m.note_peer_latency(from, to, 0);
        // One zero sample drags the estimate down by 1/8th.
        assert_eq!(m.peer_latency(from, to), Some(700));
        assert_eq!(m.peer_latency(from, NodeAddr(6)), None);
        // The reverse direction is a distinct link.
        assert_eq!(m.peer_latency(to, from), None);
    }

    #[test]
    fn peer_latency_is_per_source_link() {
        let m = NetMetrics::new();
        let c = NodeAddr(3);
        // A sits next to C, B is far away: B's slow calls must not
        // disturb A's estimate of C, or background traffic would
        // corrupt every reader's nearest-replica pick.
        m.note_peer_latency(NodeAddr(1), c, 100);
        m.note_peer_latency(NodeAddr(2), c, 9_000);
        assert_eq!(m.peer_latency(NodeAddr(1), c), Some(100));
        assert_eq!(m.peer_latency(NodeAddr(2), c), Some(9_000));
    }

    #[test]
    fn prune_peer_drops_every_link_touching_the_peer() {
        let m = NetMetrics::new();
        m.note_peer_latency(NodeAddr(1), NodeAddr(7), 400);
        m.note_peer_latency(NodeAddr(7), NodeAddr(8), 500);
        m.note_peer_latency(NodeAddr(1), NodeAddr(8), 600);

        // Pruning peer 7 drops links where it is source OR destination.
        m.prune_peer(NodeAddr(7));
        assert_eq!(m.peer_latency(NodeAddr(1), NodeAddr(7)), None);
        assert_eq!(m.peer_latency(NodeAddr(7), NodeAddr(8)), None);
        // The surviving link is untouched.
        assert_eq!(m.peer_latency(NodeAddr(1), NodeAddr(8)), Some(600));
        // Pruning an unknown peer is a no-op.
        m.prune_peer(NodeAddr(99));
        assert_eq!(m.peer_latency(NodeAddr(1), NodeAddr(8)), Some(600));
        // A returning peer starts its EWMA from scratch.
        m.note_peer_latency(NodeAddr(1), NodeAddr(7), 1000);
        assert_eq!(m.peer_latency(NodeAddr(1), NodeAddr(7)), Some(1000));
    }

    #[test]
    fn service_series_are_recorder_sources() {
        let m = NetMetrics::new();
        m.svc(ServiceId::Nfs).calls.inc();
        m.obs().recorder.sample_all(7);
        assert_eq!(
            m.obs().recorder.last("rpc_calls_total{service=\"nfs\"}"),
            Some((7, 1))
        );
        assert!(m
            .obs()
            .recorder
            .series_names()
            .iter()
            .any(|n| n == "rpc_latency_nanos{service=\"nfs\"}:p99"));
    }

    #[test]
    fn fanout_batch_histogram_is_registered() {
        let m = NetMetrics::new();
        m.fanout_batch.record(3);
        assert_eq!(
            m.obs().registry.histogram("rpc_fanout_batch_size").count(),
            1
        );
    }
}
