//! Property tests for the Kosha control protocol and the end-to-end
//! placement invariants of small clusters.

use kosha::control::{KoshaReply, KoshaReplyFrame, KoshaRequest, MigrateItem, MigrateKind};
use kosha::{KoshaConfig, KoshaMount, KoshaNode};
use kosha_id::node_id_from_seed;
use kosha_nfs::messages::WireSetAttr;
use kosha_rpc::{Network, NodeAddr, SimNetwork, WireRead, WireWrite};
use kosha_vfs::SetAttr;
use proptest::prelude::*;
use std::sync::Arc;

fn arb_path() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z0-9]{1,10}", 1..5)
        .prop_map(|comps| format!("/{}", comps.join("/")))
}

fn arb_item() -> impl Strategy<Value = MigrateItem> {
    (
        "[a-z/]{0,16}",
        prop_oneof![
            Just(MigrateKind::Dir),
            proptest::collection::vec(any::<u8>(), 0..128).prop_map(MigrateKind::Bytes),
            any::<u64>().prop_map(MigrateKind::Sparse),
            "[a-z#0-9]{1,16}".prop_map(|target| MigrateKind::Symlink { target }),
        ],
        0u32..0o10000,
        any::<u32>(),
        any::<u32>(),
    )
        .prop_map(|(rel_path, kind, mode, uid, gid)| MigrateItem {
            rel_path,
            kind,
            mode,
            uid,
            gid,
        })
}

fn arb_request() -> impl Strategy<Value = KoshaRequest> {
    prop_oneof![
        (
            arb_path(),
            0u32..0o10000,
            any::<u32>(),
            any::<u32>(),
            proptest::option::of(any::<u64>())
        )
            .prop_map(|(path, mode, uid, gid, size)| KoshaRequest::CreateFile {
                path,
                mode,
                uid,
                gid,
                size
            }),
        (arb_path(), 0u32..0o10000, any::<u32>(), any::<u32>()).prop_map(
            |(path, mode, uid, gid)| KoshaRequest::MkdirLocal {
                path,
                mode,
                uid,
                gid
            }
        ),
        (
            arb_path(),
            "[a-z#0-9]{1,16}",
            0u32..0o10000,
            any::<u32>(),
            any::<u32>()
        )
            .prop_map(
                |(path, routing_name, mode, uid, gid)| KoshaRequest::MkdirAnchor {
                    path,
                    routing_name,
                    mode,
                    uid,
                    gid
                }
            ),
        (arb_path(), "[a-z#0-9]{1,16}", any::<u32>(), any::<u32>()).prop_map(
            |(path, target, uid, gid)| KoshaRequest::PlaceLink {
                path,
                target,
                uid,
                gid
            }
        ),
        (
            arb_path(),
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..128)
        )
            .prop_map(|(path, offset, data)| KoshaRequest::Write { path, offset, data }),
        (arb_path(), proptest::option::of(any::<u64>())).prop_map(|(path, size)| {
            KoshaRequest::SetAttr {
                path,
                sattr: WireSetAttr(SetAttr {
                    size,
                    ..Default::default()
                }),
            }
        }),
        arb_path().prop_map(|path| KoshaRequest::Remove { path }),
        arb_path().prop_map(|path| KoshaRequest::Rmdir { path }),
        arb_path().prop_map(|path| KoshaRequest::RmdirAnchor { path }),
        arb_path().prop_map(|path| KoshaRequest::RemoveLink { path }),
        (arb_path(), arb_path()).prop_map(|(from, to)| KoshaRequest::RenameLocal { from, to }),
        (arb_path(), arb_path()).prop_map(|(from, to)| KoshaRequest::RenameAnchorDir { from, to }),
        (arb_path(), "[a-z#0-9]{1,16}")
            .prop_map(|(path, routing)| KoshaRequest::EnsureAnchor { path, routing }),
        Just(KoshaRequest::StoreStats),
        Just(KoshaRequest::ListAnchors),
        (
            arb_path(),
            "[a-z#0-9]{1,16}",
            proptest::collection::vec(arb_item(), 0..4)
        )
            .prop_map(|(path, routing_name, items)| KoshaRequest::TransferAnchor {
                path,
                routing_name,
                items
            }),
        arb_path().prop_map(|path| KoshaRequest::ExportReplicaSlot { path }),
        arb_path().prop_map(|path| KoshaRequest::ReplicaTargets { path }),
    ]
}

proptest! {
    #[test]
    fn control_requests_round_trip(req in arb_request()) {
        let bytes = req.encode();
        prop_assert_eq!(KoshaRequest::decode(&bytes).unwrap(), req);
    }

    #[test]
    fn control_replies_round_trip(reply in prop_oneof![
        Just(KoshaReply::Done),
        any::<bool>().prop_map(KoshaReply::DoneBool),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(capacity, used, free)| KoshaReply::Stats { capacity, used, free }),
        proptest::collection::vec(("[a-z/]{1,12}", "[a-z#0-9]{1,12}"), 0..8)
            .prop_map(|v| KoshaReply::Anchors(v.into_iter().collect())),
        proptest::collection::vec(any::<u64>(), 0..8)
            .prop_map(|v| KoshaReply::Nodes(v.into_iter().map(NodeAddr).collect())),
        proptest::collection::vec(arb_item(), 0..4).prop_map(KoshaReply::Items),
    ]) {
        let frame = KoshaReplyFrame(Ok(reply));
        let bytes = frame.encode();
        prop_assert_eq!(KoshaReplyFrame::decode(&bytes).unwrap(), frame);
    }

    #[test]
    fn control_decoder_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = KoshaRequest::decode(&bytes);
        let _ = KoshaReplyFrame::decode(&bytes);
    }
}

// End-to-end placement invariant: whatever tree of directories and
// files we create, every hosted anchor is recorded on exactly the node
// its routing name maps to, and every file remains readable with the
// bytes written.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn placement_invariants_hold(
        names in proptest::collection::vec("[a-z]{1,8}", 1..10),
        level in 1usize..3,
        nodes in 2usize..7,
    ) {
        let net = SimNetwork::new_zero_latency();
        let mut cfg = KoshaConfig::for_tests();
        cfg.distribution_level = level;
        cfg.replicas = 1;
        let mut cluster = Vec::new();
        for i in 0..nodes {
            let id = node_id_from_seed(&format!("prop-host-{i}"));
            let (node, mux) = KoshaNode::build(
                cfg.clone(),
                id,
                NodeAddr(i as u64),
                net.clone() as Arc<dyn Network>,
            );
            net.attach(node.addr(), mux);
            node.join(if i == 0 { None } else { Some(NodeAddr(0)) }).unwrap();
            cluster.push(node);
        }
        let m = KoshaMount::new(net.clone() as Arc<dyn Network>, NodeAddr(0), NodeAddr(0)).unwrap();
        let mut expected: Vec<(String, Vec<u8>)> = Vec::new();
        for (i, name) in names.iter().enumerate() {
            let dir = format!("/{name}{i}/sub");
            m.mkdir_p(&dir).unwrap();
            let path = format!("{dir}/f{i}");
            let data = vec![i as u8; 64 + i];
            m.write_file(&path, &data).unwrap();
            expected.push((path, data));
        }
        // Every file readable with correct content, from any gateway.
        let m2 = KoshaMount::new(net.clone() as Arc<dyn Network>, NodeAddr((nodes - 1) as u64), NodeAddr((nodes - 1) as u64)).unwrap();
        for (path, data) in &expected {
            prop_assert_eq!(&m2.read_file(path).unwrap(), data);
        }
        // Anchor/owner agreement.
        for node in &cluster {
            for (path, routing) in node.hosted_anchors() {
                let owner = node.pastry().route_owner(kosha_id::dir_key(&routing)).unwrap();
                prop_assert_eq!(owner.id, node.id(), "anchor {} misplaced", path);
            }
        }
    }
}
