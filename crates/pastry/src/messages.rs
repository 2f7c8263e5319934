//! Overlay protocol messages and their wire encodings.

use kosha_id::Id;
use kosha_rpc::{wire_enum, wire_struct, NodeAddr};

wire_struct! {
    /// A node's overlay identity: its Pastry id plus its physical address.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct NodeInfo {
        /// Pastry node identifier (changes if the machine is reincarnated).
        pub id: Id,
        /// Physical address on the transport.
        pub addr: NodeAddr,
    }
}

wire_enum! {
    /// Requests a node's overlay service answers.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum PastryRequest {
        /// "Which node should handle `key` next?" — one step of iterative
        /// routing. `exclude` lists addresses the caller has observed to be
        /// dead so the hop proposes an alternative.
        NextHop = 0 {
            /// Routing key.
            key: Id,
            /// Known-dead addresses to route around.
            exclude: Vec<NodeAddr>,
        },
        /// Fetch routing-table row `row` (used during join: the `i`-th node on
        /// the join route supplies row `i`).
        GetRow = 1 {
            /// Row index.
            row: u32,
        },
        /// Fetch the node's current leaf set (join and repair).
        GetLeafSet = 2,
        /// "I exist; add me to your tables." Sent by a joined node to every
        /// node it learned of, and by maintenance when links are refreshed.
        Announce = 3 {
            /// The announcing node.
            node: NodeInfo,
        },
        /// Graceful departure notice.
        Depart = 4 {
            /// The departing node.
            node: NodeInfo,
        },
        /// Liveness probe.
        Ping = 5,
    }
}

wire_enum! {
    /// Replies to [`PastryRequest`]s.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum PastryReply {
        /// Next-hop decision: if `owner` the replying node is the key's owner;
        /// otherwise `next` names a strictly better hop (or `None` if the node
        /// knows no better live candidate, in which case the replier is the
        /// best known owner).
        NextHop = 0 {
            /// Better hop toward the key, if one exists.
            next: Option<NodeInfo>,
            /// True if the replying node owns the key.
            owner: bool,
        },
        /// One routing-table row (non-empty entries only).
        Row = 1 {
            /// Entries present in the row.
            entries: Vec<NodeInfo>,
        },
        /// The node's leaf set members (both sides, deduplicated), plus the
        /// node itself.
        LeafSet = 2 {
            /// The replying node.
            me: NodeInfo,
            /// Leaf set members.
            members: Vec<NodeInfo>,
        },
        /// Generic acknowledgement.
        Ack = 3,
        /// Ping response carrying the node's current identity (a reincarnated
        /// node answers with its *new* id, letting callers detect staleness).
        Pong = 4 {
            /// The responding node.
            node: NodeInfo,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosha_rpc::wire::assert_golden;
    use kosha_rpc::WireRead;

    fn ni(id: u128, addr: u64) -> NodeInfo {
        NodeInfo {
            id: Id(id),
            addr: NodeAddr(addr),
        }
    }

    #[test]
    fn requests_golden() {
        assert_golden(
            &PastryRequest::NextHop {
                key: Id(42),
                exclude: vec![NodeAddr(1), NodeAddr(9)],
            },
            "002a0000000000000000000000000000000200000001000000000000000900000000000000",
        );
        assert_golden(&PastryRequest::GetRow { row: 7 }, "0107000000");
        assert_golden(&PastryRequest::GetLeafSet, "02");
        assert_golden(
            &PastryRequest::Announce { node: ni(5, 3) },
            "03050000000000000000000000000000000300000000000000",
        );
        assert_golden(
            &PastryRequest::Depart { node: ni(5, 3) },
            "04050000000000000000000000000000000300000000000000",
        );
        assert_golden(&PastryRequest::Ping, "05");
    }

    #[test]
    fn replies_golden() {
        assert_golden(
            &PastryReply::NextHop {
                next: Some(ni(1, 2)),
                owner: false,
            },
            "000101000000000000000000000000000000020000000000000000",
        );
        assert_golden(
            &PastryReply::NextHop {
                next: None,
                owner: true,
            },
            "000001",
        );
        assert_golden(
            &PastryReply::Row {
                entries: vec![ni(1, 2), ni(3, 4)],
            },
            "0102000000010000000000000000000000000000000200000000000000030000000000000000000000000000000400000000000000",
        );
        assert_golden(
            &PastryReply::LeafSet {
                me: ni(9, 9),
                members: vec![ni(1, 2)],
            },
            "0209000000000000000000000000000000090000000000000001000000010000000000000000000000000000000200000000000000",
        );
        assert_golden(&PastryReply::Ack, "03");
        assert_golden(
            &PastryReply::Pong { node: ni(8, 8) },
            "04080000000000000000000000000000000800000000000000",
        );
    }

    #[test]
    fn bad_tag_rejected() {
        assert!(PastryRequest::decode(&[99]).is_err());
        assert!(PastryReply::decode(&[99]).is_err());
    }
}
