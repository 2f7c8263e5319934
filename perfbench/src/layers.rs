//! Per-layer metrics of a traced repetition: the benchmark's own spans
//! around each layer's public calls, plus deltas of the program's own
//! registry counters over the timed phase.

use crate::stats::{median, ratio};
use crate::trace::{NetSnap, Tracer, SERVICES};
use kosha_obs::Histogram;
use kosha_rpc::Clock;
use kosha_sim::SimCluster;
use std::collections::BTreeMap;
use std::time::Instant;

/// Every per-layer metric: name, unit, and which direction is better.
pub const METRICS: &[(&str, &str, &str)] = &[
    ("rpc.sched.busy_ms", "ms", "lower"),
    ("rpc.sched.events", "count", "lower"),
    ("rpc.sched.ns_per_event", "ns", "lower"),
    ("rpc.sched.cmp_per_event", "cmp/event", "lower"),
    ("rpc.sched.heap_hwm", "count", "lower"),
    ("rpc.calls.nfs", "calls/op", "lower"),
    ("rpc.calls.kosha", "calls/op", "lower"),
    ("rpc.calls.koshafs", "calls/op", "lower"),
    ("rpc.calls.replica", "calls/op", "lower"),
    ("rpc.calls.pastry", "calls/op", "lower"),
    ("rpc.bytes.nfs", "B/op", "lower"),
    ("rpc.bytes.kosha", "B/op", "lower"),
    ("rpc.bytes.koshafs", "B/op", "lower"),
    ("rpc.bytes.replica", "B/op", "lower"),
    ("rpc.bytes.pastry", "B/op", "lower"),
    ("rpc.errors", "count", "lower"),
    ("rpc.fanout_p50", "calls", "higher"),
    ("core.mount.busy_ms", "ms", "lower"),
    ("core.mount.rpcs_per_op", "calls/op", "lower"),
    ("nfs.ops.lookup", "ops/op", "lower"),
    ("nfs.ops.lookuppath", "ops/op", "lower"),
    ("nfs.ops.getattr", "ops/op", "lower"),
    ("nfs.ops.read", "ops/op", "lower"),
    ("nfs.ops.write", "ops/op", "lower"),
    ("nfs.ops.create", "ops/op", "lower"),
    ("nfs.ops.mkdir", "ops/op", "lower"),
    ("nfs.ops.readdir", "ops/op", "lower"),
    ("core.resolve.failovers", "count", "lower"),
    ("core.resolve.redirections", "count", "lower"),
    ("core.writeback.enqueued", "count", "lower"),
    ("core.writeback.flushed", "count", "lower"),
    ("core.writeback.flushes", "count", "lower"),
    ("core.writeback.queue_hwm", "count", "lower"),
    ("core.writeback.coalesced_ratio", "ratio", "higher"),
    ("core.replica.pushes", "count", "lower"),
    ("core.replica.push_skip_ratio", "ratio", "higher"),
    ("core.replica.mirror_failures", "count", "lower"),
    ("core.hot.pushes", "count", "lower"),
    ("core.hot.drops", "count", "lower"),
    ("core.hot.lease_invalidations", "count", "lower"),
    ("core.hot.replica_read_share", "ratio", "higher"),
    ("core.hot.handle_hit_ratio", "ratio", "higher"),
    ("core.maintain.busy_ms", "ms", "lower"),
    ("core.maintain.rpcs.nfs", "count", "lower"),
    ("core.maintain.rpcs.kosha", "count", "lower"),
    ("core.maintain.rpcs.koshafs", "count", "lower"),
    ("core.maintain.rpcs.replica", "count", "lower"),
    ("core.maintain.rpcs.pastry", "count", "lower"),
    ("core.maintain.pastry_bytes_share", "ratio", "lower"),
    ("core.audit.busy_ms", "ms", "lower"),
    ("core.audit.rpcs", "count", "lower"),
    ("core.audit.divergent_peak", "count", "lower"),
    ("pastry.route_hops_p50", "hops", "lower"),
    ("pastry.route_failures", "count", "lower"),
    ("pastry.leaf_repairs", "count", "lower"),
    ("vfs.ops_per_op", "ops/op", "lower"),
    ("vfs.stored_bytes", "B", "lower"),
    ("obs.registry_names", "count", "lower"),
    ("obs.recorder_series", "count", "lower"),
    ("obs.recorder_dropped", "count", "lower"),
    ("obs.recorder_ticks", "count", "lower"),
    ("obs.sample_ns", "ns", "lower"),
    ("obs.sample_share", "ratio", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
];

/// Node-registry counters summed across the cluster, in this order.
const NODE_COUNTERS: &[&str] = &[
    "nfs_server_ops_total{proc=\"lookup\"}",
    "nfs_server_ops_total{proc=\"lookup_path\"}",
    "nfs_server_ops_total{proc=\"getattr\"}",
    "nfs_server_ops_total{proc=\"read\"}",
    "nfs_server_ops_total{proc=\"write\"}",
    "nfs_server_ops_total{proc=\"create\"}",
    "nfs_server_ops_total{proc=\"mkdir\"}",
    "nfs_server_ops_total{proc=\"readdir\"}",
    "kosha_failovers_total",
    "kosha_redirections_total",
    "kosha_writeback_enqueued_total",
    "kosha_writeback_flushed_ops_total",
    "kosha_writeback_flushes_total",
    "kosha_writeback_coalesced_ops_total",
    "kosha_replica_pushes_total",
    "kosha_replica_push_skips_total",
    "kosha_replica_mirror_failures_total",
    "kosha_hot_pushes_total",
    "kosha_hot_drops_total",
    "kosha_hot_lease_invalidations_total",
    "kosha_replica_reads_total",
    "kosha_replica_handle_hits_total",
    "pastry_route_failures_total",
    "pastry_leaf_repairs_total",
    "kosha_fs_ops_total",
];

/// [`NODE_COUNTERS`] summed over every node at one instant.
pub struct NodeSnap(Vec<u64>);

impl NodeSnap {
    /// Reads the counters of every node.
    pub fn read(cluster: &SimCluster) -> NodeSnap {
        let mut sums = vec![0u64; NODE_COUNTERS.len()];
        for node in &cluster.nodes {
            let obs = node.obs();
            for (sum, name) in sums.iter_mut().zip(NODE_COUNTERS) {
                *sum += obs.registry.counter(name).get();
            }
        }
        NodeSnap(sums)
    }

    /// Growth from `earlier` to `self`.
    pub fn since(&self, earlier: &NodeSnap) -> NodeSnap {
        NodeSnap(self.0.iter().zip(&earlier.0).map(|(a, b)| a - b).collect())
    }

    fn get(&self, name: &str) -> f64 {
        let i = NODE_COUNTERS
            .iter()
            .position(|n| *n == name)
            .expect("a listed node counter");
        self.0[i] as f64
    }
}

/// Deepest write-behind queue on any node right now.
pub fn writeback_depth_max(cluster: &SimCluster) -> i64 {
    cluster
        .nodes
        .iter()
        .map(|n| n.obs().registry.gauge("kosha_writeback_queue_depth").get())
        .max()
        .unwrap_or(0)
}

/// What [`compute`] derives the layer metrics from.
pub struct Inputs<'a> {
    /// The cluster after the timed phase.
    pub cluster: &'a SimCluster,
    /// The spans of the timed phase.
    pub tracer: &'a Tracer,
    /// Transport counter growth over the timed phase.
    pub net: &'a NetSnap,
    /// Node counter growth over the timed phase.
    pub nodes: &'a NodeSnap,
    /// Timed client ops.
    pub client_ops: u64,
    /// Wall seconds of the timed phase.
    pub timed_s: f64,
    /// Transport recorder ticks during the timed phase.
    pub recorder_ticks: u64,
    /// Largest `objects_divergent` any audit pass reported.
    pub audit_peak: u64,
    /// Deepest write-behind queue seen at a client-op boundary.
    pub queue_hwm: i64,
    /// Bytes held across all node stores.
    pub stored_bytes: u64,
}

/// Median wall time of one transport recorder `sample_all`, probed
/// after the timed phase.
fn sample_ns(cluster: &SimCluster) -> f64 {
    let obs = cluster.net.obs();
    let now = cluster.net.virtual_clock().now().0;
    let runs: Vec<f64> = (0..21)
        .map(|_| {
            let t = Instant::now();
            obs.recorder.sample_all(now);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&runs)
}

/// Derives every metric of [`METRICS`] except `trace.overhead_ratio`,
/// which needs an untraced twin run.
pub fn compute(x: &Inputs) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let ops = x.client_ops as f64;
    let ms = |ns: u64| ns as f64 / 1e6;
    let net_obs = x.cluster.net.obs();

    let sched = x.tracer.layer("rpc.sched:");
    m.insert("rpc.sched.busy_ms", ms(sched.total_ns));
    m.insert("rpc.sched.events", x.net.events as f64);
    m.insert(
        "rpc.sched.ns_per_event",
        ratio(sched.total_ns as f64, sched.net.events as f64),
    );
    m.insert(
        "rpc.sched.cmp_per_event",
        ratio(x.net.cmps as f64, x.net.events as f64),
    );
    m.insert(
        "rpc.sched.heap_hwm",
        net_obs.registry.gauge("kosha_sched_heap_depth_hwm").get() as f64,
    );

    const CALLS: [&str; 5] = [
        "rpc.calls.nfs",
        "rpc.calls.kosha",
        "rpc.calls.koshafs",
        "rpc.calls.replica",
        "rpc.calls.pastry",
    ];
    const BYTES: [&str; 5] = [
        "rpc.bytes.nfs",
        "rpc.bytes.kosha",
        "rpc.bytes.koshafs",
        "rpc.bytes.replica",
        "rpc.bytes.pastry",
    ];
    const MAINTAIN: [&str; 5] = [
        "core.maintain.rpcs.nfs",
        "core.maintain.rpcs.kosha",
        "core.maintain.rpcs.koshafs",
        "core.maintain.rpcs.replica",
        "core.maintain.rpcs.pastry",
    ];
    let maintain = x.tracer.layer("core.maintain");
    for i in 0..SERVICES.len() {
        m.insert(CALLS[i], ratio(x.net.calls[i] as f64, ops));
        m.insert(BYTES[i], ratio(x.net.bytes[i] as f64, ops));
        m.insert(MAINTAIN[i], maintain.net.calls[i] as f64);
    }
    m.insert("rpc.errors", x.net.failed as f64);
    m.insert(
        "rpc.fanout_p50",
        net_obs
            .registry
            .histogram("rpc_fanout_batch_size")
            .quantile(0.5) as f64,
    );

    let mount = x.tracer.layer("core.mount:");
    m.insert("core.mount.busy_ms", ms(mount.total_ns));
    m.insert(
        "core.mount.rpcs_per_op",
        ratio(mount.net.total_calls() as f64, ops),
    );

    let n = |name: &str| x.nodes.get(name);
    for (metric, proc) in [
        ("nfs.ops.lookup", "lookup"),
        ("nfs.ops.lookuppath", "lookup_path"),
        ("nfs.ops.getattr", "getattr"),
        ("nfs.ops.read", "read"),
        ("nfs.ops.write", "write"),
        ("nfs.ops.create", "create"),
        ("nfs.ops.mkdir", "mkdir"),
        ("nfs.ops.readdir", "readdir"),
    ] {
        let c = n(&format!("nfs_server_ops_total{{proc=\"{proc}\"}}"));
        m.insert(metric, ratio(c, ops));
    }
    m.insert("core.resolve.failovers", n("kosha_failovers_total"));
    m.insert("core.resolve.redirections", n("kosha_redirections_total"));

    let enqueued = n("kosha_writeback_enqueued_total");
    m.insert("core.writeback.enqueued", enqueued);
    m.insert(
        "core.writeback.flushed",
        n("kosha_writeback_flushed_ops_total"),
    );
    m.insert("core.writeback.flushes", n("kosha_writeback_flushes_total"));
    m.insert("core.writeback.queue_hwm", x.queue_hwm as f64);
    m.insert(
        "core.writeback.coalesced_ratio",
        ratio(n("kosha_writeback_coalesced_ops_total"), enqueued),
    );

    let pushes = n("kosha_replica_pushes_total");
    let skips = n("kosha_replica_push_skips_total");
    m.insert("core.replica.pushes", pushes);
    m.insert("core.replica.push_skip_ratio", ratio(skips, pushes + skips));
    m.insert(
        "core.replica.mirror_failures",
        n("kosha_replica_mirror_failures_total"),
    );

    let replica_reads = n("kosha_replica_reads_total");
    m.insert("core.hot.pushes", n("kosha_hot_pushes_total"));
    m.insert("core.hot.drops", n("kosha_hot_drops_total"));
    m.insert(
        "core.hot.lease_invalidations",
        n("kosha_hot_lease_invalidations_total"),
    );
    m.insert(
        "core.hot.replica_read_share",
        ratio(replica_reads, n("nfs_server_ops_total{proc=\"read\"}")),
    );
    m.insert(
        "core.hot.handle_hit_ratio",
        ratio(n("kosha_replica_handle_hits_total"), replica_reads),
    );

    m.insert("core.maintain.busy_ms", ms(maintain.total_ns));
    m.insert(
        "core.maintain.pastry_bytes_share",
        ratio(
            maintain.net.bytes[4] as f64,
            maintain.net.total_bytes() as f64,
        ),
    );

    let audit = x.tracer.layer("core.audit");
    m.insert("core.audit.busy_ms", ms(audit.total_ns));
    m.insert("core.audit.rpcs", audit.net.total_calls() as f64);
    m.insert("core.audit.divergent_peak", x.audit_peak as f64);

    let hops = Histogram::new();
    for node in &x.cluster.nodes {
        hops.merge_from(&node.obs().registry.histogram("pastry_route_hops"));
    }
    m.insert("pastry.route_hops_p50", hops.quantile(0.5) as f64);
    m.insert("pastry.route_failures", n("pastry_route_failures_total"));
    m.insert("pastry.leaf_repairs", n("pastry_leaf_repairs_total"));

    m.insert("vfs.ops_per_op", ratio(n("kosha_fs_ops_total"), ops));
    m.insert("vfs.stored_bytes", x.stored_bytes as f64);

    let mut names = net_obs.registry.names().len();
    let mut series = net_obs.recorder.series_count();
    let mut dropped = net_obs.recorder.dropped();
    for node in &x.cluster.nodes {
        let obs = node.obs();
        names += obs.registry.names().len();
        series += obs.recorder.series_count();
        dropped += obs.recorder.dropped();
    }
    m.insert("obs.registry_names", names as f64);
    m.insert("obs.recorder_series", series as f64);
    m.insert("obs.recorder_dropped", dropped as f64);
    m.insert("obs.recorder_ticks", x.recorder_ticks as f64);
    let sample = sample_ns(x.cluster);
    m.insert("obs.sample_ns", sample);
    m.insert(
        "obs.sample_share",
        ratio(x.recorder_ticks as f64 * sample, x.timed_s * 1e9),
    );
    m
}
