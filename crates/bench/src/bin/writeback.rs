//! Deterministic report on write-behind replication: per-mutation
//! latency with the K-replica mirror on vs off the client's critical
//! path, replica RPC totals (coalescing must ship *fewer* ops than
//! synchronous mirroring), and the coalesce ratio itself.
//!
//! Two identical clusters run the same sequential-write workload — one
//! with `ReplicationMode::Sync` (every mutation fans out to K replicas
//! before the client's WRITE returns), one with
//! `ReplicationMode::WriteBehind` (mutations enqueue on per-target
//! queues and ship as coalesced batches at the closing COMMIT barrier).
//! Everything runs on the virtual clock with seeded ids, so two runs
//! emit byte-identical output; the JSON summary is also written to
//! `BENCH_writeback.json` for CI's determinism check.

use kosha::{KoshaConfig, KoshaMount, KoshaNode, ReplicationMode};
use kosha_id::node_id_from_seed;
use kosha_nfs::NfsClient;
use kosha_obs::trace::build_traces;
use kosha_obs::SpanRecord;
use kosha_rpc::{LatencyModel, Network, NodeAddr, ServiceId, SimNetwork};
use std::sync::Arc;
use std::time::Duration;

const NODES: usize = 8;
const REPLICAS: usize = 3;
const WRITE_OPS: usize = 64;
const WRITE_BYTES: usize = 256;
const FILE: &str = "/wb/data/stream.bin";

struct Cluster {
    net: Arc<SimNetwork>,
    nodes: Vec<Arc<KoshaNode>>,
}

fn build_cluster(cfg: KoshaConfig) -> Cluster {
    let net = SimNetwork::new(LatencyModel::default());
    let mut nodes = Vec::new();
    for i in 0..NODES {
        let id = node_id_from_seed(&format!("kosha-host-{i}"));
        let (node, mux) = KoshaNode::build(
            cfg.clone(),
            id,
            NodeAddr(i as u64),
            net.clone() as Arc<dyn Network>,
        );
        net.attach(node.addr(), mux);
        node.join(if i == 0 { None } else { Some(NodeAddr(0)) })
            .expect("join");
        nodes.push(node);
    }
    Cluster { net, nodes }
}

fn mount(c: &Cluster, node: usize) -> KoshaMount {
    KoshaMount::new(
        c.net.clone() as Arc<dyn Network>,
        c.nodes[node].addr(),
        c.nodes[node].addr(),
    )
    .expect("mount")
}

fn collect_spans(c: &Cluster) -> Vec<SpanRecord> {
    let mut spans = c.net.obs().tracer.take();
    for n in &c.nodes {
        spans.extend(n.obs().tracer.take());
    }
    spans
}

struct RunResult {
    p50_write_nanos: u64,
    total_nanos: u64,
    replica_rpcs: u64,
    enqueued: u64,
    flushed_ops: u64,
    coalesced_ops: u64,
    mirror_on_critical_path: bool,
}

fn run(mode: ReplicationMode) -> RunResult {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = REPLICAS;
    cfg.replication_mode = mode;
    let c = build_cluster(cfg);
    mount(&c, 0).mkdir_p("/wb/data").expect("mkdir");
    // Run the workload on the anchor's primary — the machine whose user
    // owns the data, the paper's common case — so the measured WRITE is
    // a loopback apply plus (under sync) the K-replica mirror.
    let primary = c
        .nodes
        .iter()
        .position(|n| n.hosted_anchors().iter().any(|(p, _)| p == "/wb"))
        .expect("anchor hosted");
    let m = mount(&c, primary);
    m.write_file(FILE, b"").expect("create");
    collect_spans(&c); // discard setup noise

    let clock = c.net.clock();
    let replica_counter = c
        .net
        .obs()
        .registry
        .counter("rpc_calls_total{service=\"replica\"}");
    let rpcs_before = replica_counter.get();

    // Sequential appends against a pre-resolved handle — each measured
    // op is exactly one WRITE RPC to the koshad, per-op latency on the
    // virtual clock.
    let nfs = NfsClient::with_service(
        c.net.clone() as Arc<dyn Network>,
        c.nodes[primary].addr(),
        ServiceId::KoshaFs,
    );
    let koshad = c.nodes[primary].addr();
    let (fh, _) = m.stat(FILE).expect("stat");
    let mut lat = Vec::with_capacity(WRITE_OPS);
    let t0 = clock.now();
    for i in 0..WRITE_OPS {
        let before = clock.now();
        nfs.write(
            koshad,
            fh,
            (i * WRITE_BYTES) as u64,
            &[i as u8; WRITE_BYTES],
        )
        .expect("write");
        lat.push(clock.now().since_nanos(before));
    }
    // Close the durability window; under write-behind this is the COMMIT
    // barrier that flushes the coalesced queues.
    m.commit(FILE).expect("commit");
    let total_nanos = clock.now().since_nanos(t0);

    // One more traced append to see what the client's WRITE waits on.
    let client = c.nodes[primary].addr().0;
    c.net.obs().tracer.root(
        "write:traced",
        client,
        || clock.now().0,
        || {
            m.write_at(FILE, (WRITE_OPS * WRITE_BYTES) as u64, &[0xAB; WRITE_BYTES])
                .expect("traced write");
        },
    );
    let traces = build_traces(collect_spans(&c));
    let mirror_on_critical_path = traces
        .iter()
        .filter(|t| t.root_span().name == "write:traced")
        .any(|t| t.critical_path().iter().any(|(n, _)| n == "kosha:mirror"));
    m.commit(FILE).expect("final commit");

    lat.sort_unstable();
    let (mut enqueued, mut flushed_ops, mut coalesced_ops) = (0, 0, 0);
    for n in &c.nodes {
        let s = n.stats();
        enqueued += s.writeback_enqueued.get();
        flushed_ops += s.writeback_flushed_ops.get();
        coalesced_ops += s.writeback_coalesced_ops.get();
    }
    RunResult {
        p50_write_nanos: lat[WRITE_OPS / 2],
        total_nanos,
        replica_rpcs: replica_counter.get() - rpcs_before,
        enqueued,
        flushed_ops,
        coalesced_ops,
        mirror_on_critical_path,
    }
}

fn main() {
    let json_only = std::env::args().any(|a| a == "--json");

    let sync = run(ReplicationMode::Sync);
    let wb = run(ReplicationMode::WriteBehind {
        queue_ops: 256,
        flush_interval: Duration::from_millis(5),
    });

    let speedup_x100 = sync.p50_write_nanos * 100 / wb.p50_write_nanos.max(1);
    let coalesce_ratio_x100 = wb.enqueued * 100 / wb.flushed_ops.max(1);
    let json = format!(
        concat!(
            "{{\n",
            "  \"k\": {},\n",
            "  \"ops\": {},\n",
            "  \"write_bytes\": {},\n",
            "  \"sync\": {{\n",
            "    \"p50_write_nanos\": {},\n",
            "    \"total_nanos\": {},\n",
            "    \"replica_rpcs\": {},\n",
            "    \"mirror_on_critical_path\": {}\n",
            "  }},\n",
            "  \"write_behind\": {{\n",
            "    \"p50_write_nanos\": {},\n",
            "    \"total_nanos\": {},\n",
            "    \"replica_rpcs\": {},\n",
            "    \"enqueued_ops\": {},\n",
            "    \"flushed_ops\": {},\n",
            "    \"coalesced_ops\": {},\n",
            "    \"mirror_on_critical_path\": {}\n",
            "  }},\n",
            "  \"p50_speedup_x100\": {},\n",
            "  \"coalesce_ratio_x100\": {}\n",
            "}}"
        ),
        REPLICAS,
        WRITE_OPS,
        WRITE_BYTES,
        sync.p50_write_nanos,
        sync.total_nanos,
        sync.replica_rpcs,
        sync.mirror_on_critical_path,
        wb.p50_write_nanos,
        wb.total_nanos,
        wb.replica_rpcs,
        wb.enqueued,
        wb.flushed_ops,
        wb.coalesced_ops,
        wb.mirror_on_critical_path,
        speedup_x100,
        coalesce_ratio_x100,
    );
    std::fs::write("BENCH_writeback.json", format!("{json}\n"))
        .expect("write BENCH_writeback.json");

    if json_only {
        println!("{json}");
    } else {
        println!("==== write-behind replication report ====");
        println!(
            "cluster: {NODES} nodes, K={REPLICAS}; {WRITE_OPS} sequential {WRITE_BYTES}B writes + COMMIT (virtual time)"
        );
        println!(
            "  sync:         p50 {} ns/write, {} ns total, {} replica RPCs, mirror on critical path: {}",
            sync.p50_write_nanos, sync.total_nanos, sync.replica_rpcs, sync.mirror_on_critical_path
        );
        println!(
            "  write-behind: p50 {} ns/write, {} ns total, {} replica RPCs, mirror on critical path: {}",
            wb.p50_write_nanos, wb.total_nanos, wb.replica_rpcs, wb.mirror_on_critical_path
        );
        println!(
            "  p50 speedup:  {}.{:02}x",
            speedup_x100 / 100,
            speedup_x100 % 100
        );
        println!(
            "  coalescing:   {} enqueued -> {} shipped ({} merged away), ratio {}.{:02}",
            wb.enqueued,
            wb.flushed_ops,
            wb.coalesced_ops,
            coalesce_ratio_x100 / 100,
            coalesce_ratio_x100 % 100
        );
        println!("wrote BENCH_writeback.json");
    }

    assert!(
        speedup_x100 >= 200,
        "write-behind p50 speedup below 2x: {speedup_x100}/100"
    );
    assert!(
        coalesce_ratio_x100 > 100,
        "coalescing shipped as many ops as were enqueued: {coalesce_ratio_x100}/100"
    );
    assert!(
        wb.replica_rpcs <= sync.replica_rpcs,
        "write-behind issued more replica RPCs ({}) than sync ({})",
        wb.replica_rpcs,
        sync.replica_rpcs
    );
    assert!(
        sync.mirror_on_critical_path,
        "sync mode should mirror on the WRITE critical path"
    );
    assert!(
        !wb.mirror_on_critical_path,
        "write-behind left the mirror on the WRITE critical path"
    );
}
