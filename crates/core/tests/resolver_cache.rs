//! Resolver cache behavior: directory-cache hits avoid RPCs, the
//! compound LOOKUPPATH walk cuts resolution round trips against the
//! per-component baseline, and an exhausted failover retry budget
//! surfaces the underlying transport error instead of masking it.

use kosha::{KoshaConfig, KoshaMount, KoshaNode};
use kosha_id::node_id_from_seed;
use kosha_nfs::{NfsError, NfsStatus};
use kosha_rpc::{Network, NodeAddr, SimNetwork};
use std::sync::Arc;

struct Cluster {
    net: Arc<SimNetwork>,
    nodes: Vec<Arc<KoshaNode>>,
}

fn build_cluster(n: usize, cfg: KoshaConfig) -> Cluster {
    let net = SimNetwork::new_zero_latency();
    let mut nodes = Vec::new();
    for i in 0..n {
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

fn nfs_calls(c: &Cluster) -> u64 {
    c.net
        .obs()
        .registry
        .counter("rpc_calls_total{service=\"nfs\"}")
        .get()
}

#[test]
fn dir_cache_hit_avoids_resolution_rpcs() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 0;
    let c = build_cluster(4, cfg);
    // Create from node 1 so the gateway's resolution cache stays cold.
    let m1 = mount(&c, 1);
    m1.mkdir_p("/cache/sub/deep").unwrap();
    m1.write_file("/cache/sub/deep/f", b"x").unwrap();

    let m0 = mount(&c, 0);
    let before_first = nfs_calls(&c);
    m0.readdir("/cache/sub/deep").unwrap();
    let first = nfs_calls(&c) - before_first;
    let before_second = nfs_calls(&c);
    m0.readdir("/cache/sub/deep").unwrap();
    let second = nfs_calls(&c) - before_second;
    assert!(
        second < first,
        "cache hit did not reduce RPCs: cold={first} warm={second}"
    );
    assert!(
        second <= 1,
        "cached readdir should cost at most one NFS RPC, took {second}"
    );
}

#[test]
fn compound_lookup_reduces_resolution_rpcs() {
    // Measures the §4.4 re-resolution path: after a cache flush the
    // gateway still holds virtual handles with full paths but no
    // locations, so the next operation must resolve a deep path in one
    // go — one LOOKUPPATH per server (compound) vs one LOOKUP per
    // component (baseline).
    let resolve_cost = |compound: bool| -> u64 {
        let mut cfg = KoshaConfig::for_tests();
        cfg.distribution_level = 1;
        cfg.replicas = 0;
        cfg.compound_lookup = compound;
        let c = build_cluster(4, cfg);
        let m = mount(&c, 0);
        m.mkdir_p("/deep/a/b/c").unwrap();
        m.write_file("/deep/a/b/c/f", b"z").unwrap();
        assert_eq!(m.read_file("/deep/a/b/c/f").unwrap(), b"z");
        c.nodes[0].flush_caches();
        let before = nfs_calls(&c);
        assert_eq!(m.read_file("/deep/a/b/c/f").unwrap(), b"z");
        nfs_calls(&c) - before
    };
    let compound = resolve_cost(true);
    let per_component = resolve_cost(false);
    assert!(
        compound < per_component,
        "compound walk took {compound} NFS RPCs, per-component {per_component}"
    );
}

#[test]
fn per_component_baseline_still_resolves() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.compound_lookup = false;
    let c = build_cluster(4, cfg);
    let m = mount(&c, 0);
    m.mkdir_p("/base/sub").unwrap();
    m.write_file("/base/sub/f", b"old walk").unwrap();
    assert_eq!(m.read_file("/base/sub/f").unwrap(), b"old walk");
    let m2 = mount(&c, 2);
    assert_eq!(m2.read_file("/base/sub/f").unwrap(), b"old walk");
}

#[test]
fn exhausted_retry_budget_returns_underlying_error() {
    let mut cfg = KoshaConfig::for_tests();
    cfg.distribution_level = 1;
    cfg.replicas = 0;
    cfg.failover_retries = 0;
    let c = build_cluster(4, cfg);
    mount(&c, 0).mkdir_p("/retrybox").unwrap();
    mount(&c, 0).write_file("/retrybox/f", b"y").unwrap();
    let primary = c
        .nodes
        .iter()
        .find(|n| n.hosted_anchors().iter().any(|(p, _)| p == "/retrybox"))
        .expect("anchor hosted")
        .addr();
    // Read through a gateway that is not the primary, so the failure is
    // remote; warm its cache first so the read targets the dead node.
    let gateway = (0..c.nodes.len())
        .find(|&i| c.nodes[i].addr() != primary)
        .unwrap();
    let m = mount(&c, gateway);
    assert_eq!(m.read_file("/retrybox/f").unwrap(), b"y");
    c.net.fail_node(primary);
    // With no retry budget the transport failure propagates instead of
    // being retried away: the loopback boundary reports it as IO (the
    // NFS rendering of an unreachable server), and the gateway performed
    // no failover.
    match m.read_file("/retrybox/f") {
        Err(NfsError::Status(NfsStatus::Io)) => {}
        other => panic!("expected the underlying IO error, got {other:?}"),
    }
    assert_eq!(
        c.nodes[gateway].stats().failovers.get(),
        0,
        "a zero budget must not trigger failover retries"
    );
}
