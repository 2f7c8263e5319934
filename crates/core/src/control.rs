//! The koshad-to-koshad control protocol.
//!
//! Mutations must execute at the *primary replica* so it can fan them out
//! to the K replica nodes (§4.2: "The primary replica is responsible for
//! maintaining K replicas"), so the client-side koshad ships them here by
//! virtual path. Reads and lookups bypass this service and use direct NFS
//! against the primary's store. The protocol also carries promotion
//! queries (fault handling, §4.4) and anchor migration (§4.3).

use kosha_nfs::messages::{WireAttr, WireSetAttr};
use kosha_nfs::{Fh, NfsStatus};
use kosha_rpc::{wire_enum, wire_struct};
use kosha_vfs::{ExportItem, ExportKind};

wire_struct! {
    /// One object pushed during anchor migration or replica repair.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct MigrateItem {
        /// Path relative to the anchor root ("" = the anchor directory).
        pub rel_path: String,
        /// Object payload.
        pub kind: MigrateKind,
        /// Permission bits.
        pub mode: u32,
        /// Owner uid.
        pub uid: u32,
        /// Owner gid.
        pub gid: u32,
    }
}

wire_enum! {
    /// Payload variants for [`MigrateItem`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum MigrateKind {
        /// Directory.
        Dir = 0,
        /// Regular file with contents.
        Bytes = 1 (Vec<u8>),
        /// Sparse (size-only) file.
        Sparse = 2 (u64),
        /// Symlink (user or special).
        Symlink = 3 {
            /// Link target.
            target: String,
        },
    }
}

impl From<ExportItem> for MigrateItem {
    fn from(e: ExportItem) -> Self {
        MigrateItem {
            rel_path: e.rel_path,
            kind: match e.kind {
                ExportKind::Dir => MigrateKind::Dir,
                ExportKind::Bytes(b) => MigrateKind::Bytes(b),
                ExportKind::Sparse(n) => MigrateKind::Sparse(n),
                ExportKind::Symlink { target } => MigrateKind::Symlink { target },
            },
            mode: e.mode,
            uid: e.uid,
            gid: e.gid,
        }
    }
}

wire_struct! {
    /// One store or replica slot's consistency digest, as reported by
    /// [`KoshaRequest::AuditScan`]. The digest is a SHA-1 over the slot
    /// subtree's canonical serialization with Kosha-internal bookkeeping
    /// files (`.kosha_anchor`, `.kosha_lag`, `MIGRATION_NOT_COMPLETE`)
    /// excluded, so a primary copy and an up-to-date replica copy hash
    /// identically (see `kosha::audit::tree_digest`).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct AuditEntry {
        /// Slot directory name (`@` + 16 hex of the anchor-path SHA-1).
        pub slot: String,
        /// Anchor virtual path, when the reporting node knows it (primaries
        /// do; replica holders report `""` and the auditor joins on `slot`).
        pub path: String,
        /// False for a `/kosha_store` (primary) copy, true for a
        /// `/kosha_replica` copy.
        pub replica: bool,
        /// Lower-case 40-hex SHA-1 of the canonical subtree serialization.
        pub digest: String,
        /// Payload bytes in the slot (file contents + symlink targets),
        /// internal files excluded.
        pub bytes: u64,
        /// Objects in the slot (files, dirs, symlinks below the slot root),
        /// internal files excluded.
        pub files: u64,
        /// A `.kosha_lag` marker is present: the copy is known to be behind
        /// an unflushed write-behind window.
        pub lag_marker: bool,
        /// A `MIGRATION_NOT_COMPLETE` flag is present: the copy is mid-push
        /// and expected to diverge until the bracket closes.
        pub migrating: bool,
        /// A `.kosha_hot` lease marker is present: the slot holds read-only
        /// heat-driven cached copies, not a durable K replica. Hot slots
        /// carry only the leased objects, so their digests are expected to
        /// differ from the primary's; the auditor counts them separately
        /// instead of reporting divergence/over-replication (DESIGN.md §16).
        pub hot: bool,
    }
}

wire_enum! {
    /// Requests handled by a node's Kosha control service. Every path is a
    /// full virtual path (relative to `/kosha`, normalized). Each label is
    /// the request kind's short stable name, used to label trace spans
    /// (`kosha:{name}` on the control service, `replica:{name}` on the
    /// replica service) and journal details. Tags 15–17 carried the
    /// per-object migration messages that `TransferAnchor` replaced; they
    /// are retired and never reused.
    #[derive(Debug, Clone, PartialEq)]
    pub enum KoshaRequest {
        /// Create a regular file (primary of the parent directory). `size`
        /// creates a quota-charged sparse file (simulation inserts).
        CreateFile = 0 "create_file" {
            /// Virtual path of the new file.
            path: String,
            /// Permission bits.
            mode: u32,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
            /// Sparse size, if any.
            size: Option<u64>,
        },
        /// Create a non-distributed directory (depth > level) on the node
        /// holding its parent.
        MkdirLocal = 1 "mkdir_local" {
            /// Virtual path of the new directory.
            path: String,
            /// Permission bits.
            mode: u32,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
        },
        /// Materialize a distributed directory on this node: create the empty
        /// ancestor hierarchy, the directory itself, and the anchor metadata.
        MkdirAnchor = 2 "mkdir_anchor" {
            /// Virtual path of the new anchor directory.
            path: String,
            /// The (possibly salted) name this anchor is routed by.
            routing_name: String,
            /// Permission bits.
            mode: u32,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
        },
        /// Place a special link in a parent directory hosted on this node
        /// (§3.1, §3.3). `path` is the link's own virtual path.
        PlaceLink = 3 "place_link" {
            /// Virtual path of the link (parent's listing entry).
            path: String,
            /// Routing name the link points at (`name` or `name#salt`).
            target: String,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
        },
        /// Create a user-level symlink (lives with its parent directory).
        SymlinkFile = 4 "symlink_file" {
            /// Virtual path of the symlink.
            path: String,
            /// Target string (opaque to Kosha).
            target: String,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
        },
        /// Write data to a file.
        Write = 5 "write" {
            /// Virtual path of the file.
            path: String,
            /// Byte offset.
            offset: u64,
            /// Data.
            data: Vec<u8>,
        },
        /// Update attributes of a file or directory hosted on this node.
        SetAttr = 6 "setattr" {
            /// Virtual path.
            path: String,
            /// Attribute changes.
            sattr: WireSetAttr,
        },
        /// Remove a file or user symlink.
        Remove = 7 "remove" {
            /// Virtual path.
            path: String,
        },
        /// Remove an empty non-distributed directory.
        Rmdir = 8 "rmdir" {
            /// Virtual path.
            path: String,
        },
        /// Tear down a distributed directory hosted on this node: verify
        /// empty, remove it, prune the now-empty ancestor hierarchy (§4.1.5).
        RmdirAnchor = 9 "rmdir_anchor" {
            /// Virtual path of the anchor directory.
            path: String,
        },
        /// Remove the special link entry for a deleted/migrated distributed
        /// directory from its parent's listing on this node.
        RemoveLink = 10 "remove_link" {
            /// Virtual path of the link.
            path: String,
        },
        /// Rename an entry where both source and destination live on this
        /// node (same-parent renames and local moves). Renames a special link
        /// without touching its target, per §4.1.4.
        RenameLocal = 11 "rename_local" {
            /// Source virtual path.
            from: String,
            /// Destination virtual path.
            to: String,
        },
        /// Rename the materialized directory of an anchor hosted on this node
        /// (the "rename on B" half of §4.1.4's two-node link rename).
        RenameAnchorDir = 12 "rename_anchor_dir" {
            /// Current anchor virtual path.
            from: String,
            /// New anchor virtual path.
            to: String,
        },
        /// Resolution/fault handling: make sure this node serves the anchor
        /// at `path`. If the anchor is in the store, a no-op; if it is only in
        /// the replica area, promote it (§4.4); if it is the root anchor and
        /// absent everywhere, create it empty. Replies `DoneBool(promoted)`;
        /// fails with `NoEnt` if the anchor cannot be served.
        EnsureAnchor = 13 "ensure_anchor" {
            /// Anchor virtual path.
            path: String,
            /// Routing name the caller used to reach this node.
            routing: String,
        },
        /// Query `(capacity, used, free)` of this node's contributed space —
        /// the fullness test behind redirection (§3.3).
        StoreStats = 14 "store_stats",
        /// Introspection: list `(anchor_path, routing_name)` pairs hosted
        /// here (tests and experiment harnesses).
        ListAnchors = 18 "list_anchors",
        /// Ask the primary for the current replica holders of the anchor
        /// covering `path` (read-from-replica optimization, §4.2).
        ReplicaTargets = 19 "replica_targets" {
            /// Virtual path whose covering anchor's replicas are wanted.
            path: String,
        },
        /// Replica maintenance (served on `ServiceId::KoshaReplica`): replace
        /// the receiver's replica copy of `path` with the batched subtree in
        /// one round trip, bracketed by the `MIGRATION_NOT_COMPLETE` flag.
        MigrateBatch = 20 "migrate_batch" {
            /// Anchor virtual path.
            path: String,
            /// The full subtree, in parent-before-child order.
            items: Vec<MigrateItem>,
        },
        /// Replica maintenance (served on `ServiceId::KoshaReplica`): apply
        /// one mutation to the receiver's replica area. The primary fans the
        /// same op out to all K replica holders concurrently. Handlers touch
        /// only local state — no nested RPCs — so concurrent fan-outs
        /// between primaries cannot form call cycles.
        ReplicaApply = 21 "replica_apply" {
            /// The mutation, mirroring the primary's own store change.
            op: ReplicaOp,
        },
        /// Replica maintenance (served on `ServiceId::KoshaReplica`): apply a
        /// coalesced batch of mutations in order, in one round trip — the
        /// write-behind pump's flush unit. Like `ReplicaApply`, handlers
        /// touch only local state, so the service stays cycle-free.
        ReplicaApplyBatch = 22 "replica_apply_batch" {
            /// The mutations, in primary apply order (post-coalescing).
            ops: Vec<ReplicaOp>,
        },
        /// Flush barrier: drain this primary's write-behind queues
        /// synchronously before replying. Sent by koshad on NFS COMMIT; a
        /// no-op under synchronous replication.
        Flush = 23 "flush" {
            /// Virtual path the barrier was issued against (journaled).
            path: String,
        },
        /// Anti-entropy audit: digest every store and replica slot held by
        /// the receiver and reply with one [`AuditEntry`] per slot. The
        /// handler reads only local state (no nested RPCs), so the audit
        /// pass can fan out to every node concurrently without risking call
        /// cycles.
        AuditScan = 24 "audit_scan",
        /// Replica-slot garbage-collection probe: like `ReplicaTargets`, but
        /// keyed by the replica-area slot name — holders know their slots,
        /// not necessarily the anchor's virtual path. The owner replies with
        /// the anchor's current replica holders, or `NoEnt` when it hosts no
        /// anchor for `slot` (the holder then keeps its copy, conservatively).
        ReplicaTargetsBySlot = 25 "replica_targets_by_slot" {
            /// Slot directory name (`@` + 16 hex digits of the routing key).
            slot: String,
            /// Transport address of the probing holder. When the answer does
            /// not list this node the holder will drop its copy, so the owner
            /// voids its full-push memo for the anchor — the next maintenance
            /// pass re-pushes even if the holder later rejoins the target set
            /// with the primary content unchanged.
            holder: u64,
        },
        /// Heat-driven read scaling (served on `ServiceId::KoshaReplica`):
        /// place or refresh one read-only cached copy of a hot object in the
        /// receiver's replica area, leased until `expires_nanos` and stamped
        /// with the primary's mutation sequence. The request carries the full
        /// object payload, so the handler touches only local state (no nested
        /// RPCs) like every other replica-service handler (DESIGN.md §16).
        HotReplicaPush = 26 "hot_replica_push" {
            /// Covering anchor virtual path of the hot object.
            anchor: String,
            /// The anchor's routing name (recorded in the slot's
            /// `.kosha_anchor` so replica-slot GC can find the owner).
            routing: String,
            /// Virtual path of the hot object.
            path: String,
            /// Primary mutation sequence the pushed payload reflects.
            seq: u64,
            /// Lease expiry in virtual nanoseconds.
            expires_nanos: u64,
            /// The object itself (`rel_path` relative to the anchor root,
            /// parent directories implied).
            item: MigrateItem,
        },
        /// Heat-driven read scaling (served on `ServiceId::KoshaReplica`):
        /// revoke the receiver's hot copy of `path` — heat decayed, the
        /// object was mutated without a refresh, or it was removed. A no-op
        /// when the receiver's slot carries no `.kosha_hot` lease for the
        /// path (e.g. the slot became a durable replica in the meantime).
        HotReplicaDrop = 27 "hot_replica_drop" {
            /// Covering anchor virtual path.
            anchor: String,
            /// Virtual path of the object whose lease is revoked.
            path: String,
        },
        /// Migration (§4.3.1): adopt the anchor at `path` with its whole
        /// subtree in one round trip. The receiver merges `items` into any
        /// copy it already holds (same-named entries are replaced, others
        /// kept), records the routing name, and starts replicating it.
        TransferAnchor = 28 "transfer_anchor" {
            /// Anchor virtual path.
            path: String,
            /// Routing name of the anchor.
            routing_name: String,
            /// The full subtree, in parent-before-child order.
            items: Vec<MigrateItem>,
        },
        /// Neighbour pull (served on `ServiceId::KoshaReplica`): reply with
        /// the receiver's durable replica copy of the anchor at `path` as
        /// `Items`, or `NoEnt` when it holds none (a slot of leased hot
        /// copies does not count). Reads only local state.
        ExportReplicaSlot = 29 "export_replica_slot" {
            /// Anchor virtual path.
            path: String,
        },
    }
}

wire_enum! {
    /// One replicated mutation, shipped by the primary to each replica
    /// holder after it has applied the change to its own store (§4.2).
    /// Paths are full virtual paths; the receiver derives the covering
    /// anchor (and thus the replica-area slot) itself, and treats already-
    /// done outcomes (`Exist` on creates, `NoEnt` on removes) as success so
    /// replays are idempotent.
    #[derive(Debug, Clone, PartialEq)]
    pub enum ReplicaOp {
        /// Ensure the replica directory for `path` (a directory) exists.
        Mkdir = 0 {
            /// Virtual path of the directory.
            path: String,
        },
        /// Create a regular (or sparse, when `size` is set) file.
        Create = 1 {
            /// Virtual path of the file.
            path: String,
            /// Permission bits.
            mode: u32,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
            /// Sparse size, if any.
            size: Option<u64>,
        },
        /// Create a symlink (special or user-level; `mode` distinguishes).
        Symlink = 2 {
            /// Virtual path of the link.
            path: String,
            /// Link target.
            target: String,
            /// Permission bits (sticky bit marks special links).
            mode: u32,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
        },
        /// Write data (creating the file if the replica lacks it).
        Write = 3 {
            /// Virtual path of the file.
            path: String,
            /// Byte offset.
            offset: u64,
            /// Data.
            data: Vec<u8>,
        },
        /// Update attributes.
        SetAttr = 4 {
            /// Virtual path.
            path: String,
            /// Attribute changes.
            sattr: WireSetAttr,
        },
        /// Remove a file or symlink.
        Remove = 5 {
            /// Virtual path.
            path: String,
        },
        /// Remove an empty directory.
        Rmdir = 6 {
            /// Virtual path.
            path: String,
        },
        /// Drop the whole replica copy of an anchor (anchor teardown).
        RemoveSlot = 7 {
            /// Anchor virtual path.
            anchor: String,
        },
        /// Rename an entry (both paths under anchors this replica mirrors).
        Rename = 8 {
            /// Source virtual path.
            from: String,
            /// Destination virtual path.
            to: String,
        },
        /// Rename an anchor's replica slot (anchor directory rename).
        RenameSlot = 9 {
            /// Current anchor virtual path.
            from: String,
            /// New anchor virtual path.
            to: String,
        },
        /// Write-behind lag marker. With `bytes > 0`, stamps the replica
        /// slot as *behind* the primary by at least that many queued payload
        /// bytes; with `bytes == 0`, clears the stamp (the flush carrying it
        /// brought the slot current). A node promoting a slot that still
        /// carries a stamp knows data was lost and journals `replica_lag`
        /// instead of silently serving stale bytes.
        LagMark = 10 {
            /// Anchor virtual path of the stamped slot.
            anchor: String,
            /// Lower bound of queued payload bytes (0 = clear).
            bytes: u64,
        },
    }
}

wire_enum! {
    /// Successful control replies; the wire frame is [`KoshaReplyFrame`].
    /// Tags are not in listing order: `Handle` was added later, as tag 4.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum KoshaReply {
        /// Acknowledged.
        Done = 0,
        /// A created object's real handle and attributes (CreateFile,
        /// MkdirLocal) — saves the caller a LOOKUP round trip, like NFS
        /// CREATE's post-op handle.
        Handle = 4 {
            /// Real handle on the replying node.
            fh: Fh,
            /// Attributes at creation.
            attr: WireAttr,
        },
        /// Boolean outcome (promotion happened or not).
        DoneBool = 1 (bool),
        /// Store statistics.
        Stats = 2 {
            /// Total contributed bytes.
            capacity: u64,
            /// Bytes used.
            used: u64,
            /// Bytes free.
            free: u64,
        },
        /// Hosted anchors: `(virtual path, routing name)`.
        Anchors = 3 (Vec<(String, String)>),
        /// Node addresses (replica holders).
        Nodes = 5 (Vec<kosha_rpc::NodeAddr>),
        /// Per-slot consistency digests (`AuditScan`), slot order.
        Audit = 6 (Vec<AuditEntry>),
        /// An exported slot subtree (`ExportReplicaSlot`), parent before
        /// child.
        Items = 7 (Vec<MigrateItem>),
    }
}

wire_struct! {
    /// Wire frame for control replies: status byte 0 followed by a
    /// [`KoshaReply`], or a non-zero [`NfsStatus`] tag, exactly like the
    /// NFS reply frame.
    #[derive(Debug, Clone, PartialEq)]
    pub struct KoshaReplyFrame(pub Result<KoshaReply, NfsStatus>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosha_rpc::wire::assert_golden;
    use kosha_rpc::WireRead;
    use kosha_vfs::{Attr, FileType, SetAttr};

    fn item(rel_path: &str, kind: MigrateKind) -> MigrateItem {
        MigrateItem {
            rel_path: rel_path.into(),
            kind,
            mode: 0o644,
            uid: 1,
            gid: 2,
        }
    }

    #[test]
    fn requests_golden() {
        assert_golden(
            &KoshaRequest::CreateFile {
                path: "/a/f".into(),
                mode: 0o644,
                uid: 1,
                gid: 2,
                size: Some(100),
            },
            "00040000002f612f66a40100000100000002000000016400000000000000",
        );
        assert_golden(
            &KoshaRequest::CreateFile {
                path: "/a/g".into(),
                mode: 0o600,
                uid: 0,
                gid: 0,
                size: None,
            },
            "00040000002f612f6780010000000000000000000000",
        );
        assert_golden(
            &KoshaRequest::MkdirLocal {
                path: "/a/b/c".into(),
                mode: 0o755,
                uid: 0,
                gid: 0,
            },
            "01060000002f612f622f63ed0100000000000000000000",
        );
        assert_golden(
            &KoshaRequest::MkdirAnchor {
                path: "/a".into(),
                routing_name: "a#77".into(),
                mode: 0o755,
                uid: 0,
                gid: 0,
            },
            "02020000002f610400000061233737ed0100000000000000000000",
        );
        assert_golden(
            &KoshaRequest::PlaceLink {
                path: "/a".into(),
                target: "a#77".into(),
                uid: 0,
                gid: 0,
            },
            "03020000002f6104000000612337370000000000000000",
        );
        assert_golden(
            &KoshaRequest::SymlinkFile {
                path: "/a/l".into(),
                target: "whatever".into(),
                uid: 0,
                gid: 0,
            },
            "04040000002f612f6c0800000077686174657665720000000000000000",
        );
        assert_golden(
            &KoshaRequest::Write {
                path: "/a/f".into(),
                offset: 9,
                data: vec![1, 2],
            },
            "05040000002f612f660900000000000000020000000102",
        );
        assert_golden(
            &KoshaRequest::SetAttr {
                path: "/a/f".into(),
                sattr: WireSetAttr(SetAttr {
                    size: Some(3),
                    ..Default::default()
                }),
            },
            "06040000002f612f660000000103000000000000000000",
        );
        assert_golden(
            &KoshaRequest::Remove {
                path: "/a/f".into(),
            },
            "07040000002f612f66",
        );
        assert_golden(
            &KoshaRequest::Rmdir {
                path: "/a/d".into(),
            },
            "08040000002f612f64",
        );
        assert_golden(
            &KoshaRequest::RmdirAnchor { path: "/a".into() },
            "09020000002f61",
        );
        assert_golden(
            &KoshaRequest::RemoveLink { path: "/a".into() },
            "0a020000002f61",
        );
        assert_golden(
            &KoshaRequest::RenameLocal {
                from: "/a/x".into(),
                to: "/a/y".into(),
            },
            "0b040000002f612f78040000002f612f79",
        );
        assert_golden(
            &KoshaRequest::RenameAnchorDir {
                from: "/a".into(),
                to: "/b".into(),
            },
            "0c020000002f61020000002f62",
        );
        assert_golden(
            &KoshaRequest::EnsureAnchor {
                path: "/a".into(),
                routing: "a#3".into(),
            },
            "0d020000002f6103000000612333",
        );
        assert_golden(&KoshaRequest::StoreStats, "0e");
        // Tags 15-17 (the per-object migration messages) are retired.
        for retired in [0x0f, 0x10, 0x11] {
            assert!(KoshaRequest::decode(&[retired]).is_err());
        }
        assert_golden(&KoshaRequest::ListAnchors, "12");
        assert_golden(
            &KoshaRequest::ReplicaTargets { path: "/a".into() },
            "13020000002f61",
        );
        assert_golden(
            &KoshaRequest::MigrateBatch {
                path: "/a".into(),
                items: vec![
                    MigrateItem {
                        rel_path: "d".into(),
                        kind: MigrateKind::Dir,
                        mode: 0o755,
                        uid: 1,
                        gid: 2,
                    },
                    item("d/f", MigrateKind::Bytes(vec![5; 3])),
                ],
            },
            "14020000002f6102000000010000006400ed010000010000000200000003000000642f660103000000050505a40100000100000002000000",
        );
        assert_golden(
            &KoshaRequest::ReplicaApply {
                op: ReplicaOp::Write {
                    path: "/a/f".into(),
                    offset: 4,
                    data: vec![9, 8],
                },
            },
            "1503040000002f612f660400000000000000020000000908",
        );
        assert_golden(
            &KoshaRequest::ReplicaApplyBatch {
                ops: vec![
                    ReplicaOp::Create {
                        path: "/a/f".into(),
                        mode: 0o644,
                        uid: 1,
                        gid: 2,
                        size: None,
                    },
                    ReplicaOp::Write {
                        path: "/a/f".into(),
                        offset: 0,
                        data: vec![3, 4],
                    },
                    ReplicaOp::LagMark {
                        anchor: "/a".into(),
                        bytes: 0,
                    },
                ],
            },
            "160300000001040000002f612f66a401000001000000020000000003040000002f612f6600000000000000000200000003040a020000002f610000000000000000",
        );
        assert_golden(
            &KoshaRequest::Flush {
                path: "/a/f".into(),
            },
            "17040000002f612f66",
        );
        assert_golden(&KoshaRequest::AuditScan, "18");
        assert_golden(
            &KoshaRequest::ReplicaTargetsBySlot {
                slot: "@00c0ffee00c0ffee".into(),
                holder: 7,
            },
            "191100000040303063306666656530306330666665650700000000000000",
        );
        assert_golden(
            &KoshaRequest::HotReplicaPush {
                anchor: "/a".into(),
                routing: "a#2".into(),
                path: "/a/hot".into(),
                seq: 17,
                expires_nanos: 9_000_000_000,
                item: item("hot", MigrateKind::Bytes(vec![6; 5])),
            },
            "1a020000002f6103000000612332060000002f612f686f741100000000000000001a71180200000003000000686f7401050000000606060606a40100000100000002000000",
        );
        assert_golden(
            &KoshaRequest::HotReplicaDrop {
                anchor: "/a".into(),
                path: "/a/hot".into(),
            },
            "1b020000002f61060000002f612f686f74",
        );
        assert_golden(
            &KoshaRequest::TransferAnchor {
                path: "/a".into(),
                routing_name: "a".into(),
                items: vec![item("f", MigrateKind::Bytes(vec![7; 3]))],
            },
            "1c020000002f6101000000610100000001000000660103000000070707a40100000100000002000000",
        );
        assert_golden(
            &KoshaRequest::ExportReplicaSlot { path: "/a".into() },
            "1d020000002f61",
        );
    }

    #[test]
    fn request_names_are_stable() {
        assert_eq!(KoshaRequest::StoreStats.name(), "store_stats");
        assert_eq!(
            KoshaRequest::ReplicaTargetsBySlot {
                slot: String::new(),
                holder: 0,
            }
            .name(),
            "replica_targets_by_slot"
        );
        assert_eq!(
            KoshaRequest::SetAttr {
                path: String::new(),
                sattr: WireSetAttr(SetAttr::default()),
            }
            .name(),
            "setattr"
        );
    }

    #[test]
    fn replies_golden() {
        let mut attr = Attr::new(FileType::Regular, 0o644, 1, 2, 99);
        attr.atime = 5;
        attr.mtime = 6;
        attr.ctime = 7;
        assert_golden(&KoshaReplyFrame(Ok(KoshaReply::Done)), "0000");
        assert_golden(
            &KoshaReplyFrame(Ok(KoshaReply::Handle {
                fh: Fh { ino: 42, gen: 3 },
                attr: WireAttr(attr),
            })),
            "00042a000000000000000300000000a40100000100000002000000000000000000000001000000050000000000000006000000000000000700000000000000",
        );
        assert_golden(&KoshaReplyFrame(Ok(KoshaReply::DoneBool(true))), "000101");
        assert_golden(
            &KoshaReplyFrame(Ok(KoshaReply::Stats {
                capacity: 10,
                used: 3,
                free: 7,
            })),
            "00020a0000000000000003000000000000000700000000000000",
        );
        assert_golden(
            &KoshaReplyFrame(Ok(KoshaReply::Anchors(vec![
                ("/a".into(), "a#1".into()),
                ("/b".into(), "b".into()),
            ]))),
            "000302000000020000002f6103000000612331020000002f620100000062",
        );
        assert_golden(
            &KoshaReplyFrame(Ok(KoshaReply::Nodes(vec![
                kosha_rpc::NodeAddr(3),
                kosha_rpc::NodeAddr(9),
            ]))),
            "00050200000003000000000000000900000000000000",
        );
        assert_golden(
            &KoshaReplyFrame(Ok(KoshaReply::Audit(vec![
                AuditEntry {
                    slot: "@00d4c05e3b0b08e1".into(),
                    path: "/a".into(),
                    replica: false,
                    digest: "da39a3ee5e6b4b0d3255bfef95601890afd80709".into(),
                    bytes: 4096,
                    files: 12,
                    lag_marker: false,
                    migrating: false,
                    hot: false,
                },
                AuditEntry {
                    slot: "@00d4c05e3b0b08e1".into(),
                    path: String::new(),
                    replica: true,
                    digest: "b6589fc6ab0dc82cf12099d1c2d40ab994e8410c".into(),
                    bytes: 4000,
                    files: 11,
                    lag_marker: true,
                    migrating: true,
                    hot: true,
                },
            ]))),
            "000602000000110000004030306434633035653362306230386531020000002f6100280000006461333961336565356536623462306433323535626665663935363031383930616664383037303900100000000000000c0000000000000000000011000000403030643463303565336230623038653100000000012800000062363538396663366162306463383263663132303939643163326434306162393934653834313063a00f0000000000000b00000000000000010101",
        );
        assert_golden(
            &KoshaReplyFrame(Ok(KoshaReply::Items(vec![item("d", MigrateKind::Dir)]))),
            "000701000000010000006400a40100000100000002000000",
        );
        assert_golden(&KoshaReplyFrame(Err(NfsStatus::NoSpc)), "06");
        assert_golden(&KoshaReplyFrame(Err(NfsStatus::NotEmpty)), "05");
        assert_golden(&KoshaReplyFrame(Err(NfsStatus::Io)), "0b");
        // Status 0 is the success marker; unknown statuses are rejected.
        assert!(KoshaReplyFrame::decode(&[12]).is_err());
        assert!(KoshaReplyFrame::decode(&[0, 99]).is_err());
    }

    #[test]
    fn replica_ops_golden() {
        assert_golden(
            &ReplicaOp::Mkdir {
                path: "/a/d".into(),
            },
            "00040000002f612f64",
        );
        assert_golden(
            &ReplicaOp::Create {
                path: "/a/f".into(),
                mode: 0o644,
                uid: 1,
                gid: 2,
                size: Some(64),
            },
            "01040000002f612f66a40100000100000002000000014000000000000000",
        );
        assert_golden(
            &ReplicaOp::Symlink {
                path: "/a/l".into(),
                target: "t#1".into(),
                mode: 0o1777,
                uid: 0,
                gid: 0,
            },
            "02040000002f612f6c03000000742331ff0300000000000000000000",
        );
        assert_golden(
            &ReplicaOp::Write {
                path: "/a/f".into(),
                offset: 0,
                data: vec![1],
            },
            "03040000002f612f6600000000000000000100000001",
        );
        assert_golden(
            &ReplicaOp::SetAttr {
                path: "/a/f".into(),
                sattr: WireSetAttr(SetAttr {
                    size: Some(2),
                    ..Default::default()
                }),
            },
            "04040000002f612f660000000102000000000000000000",
        );
        assert_golden(
            &ReplicaOp::Remove {
                path: "/a/f".into(),
            },
            "05040000002f612f66",
        );
        assert_golden(
            &ReplicaOp::Rmdir {
                path: "/a/d".into(),
            },
            "06040000002f612f64",
        );
        assert_golden(
            &ReplicaOp::RemoveSlot {
                anchor: "/a".into(),
            },
            "07020000002f61",
        );
        assert_golden(
            &ReplicaOp::Rename {
                from: "/a/x".into(),
                to: "/a/y".into(),
            },
            "08040000002f612f78040000002f612f79",
        );
        assert_golden(
            &ReplicaOp::RenameSlot {
                from: "/a".into(),
                to: "/b".into(),
            },
            "09020000002f61020000002f62",
        );
        assert_golden(
            &ReplicaOp::LagMark {
                anchor: "/a".into(),
                bytes: 4096,
            },
            "0a020000002f610010000000000000",
        );
    }

    #[test]
    fn migrate_items_golden() {
        assert_golden(
            &item("a/b", MigrateKind::Dir),
            "03000000612f6200a40100000100000002000000",
        );
        assert_golden(
            &item("a/b", MigrateKind::Bytes(vec![1, 2, 3])),
            "03000000612f620103000000010203a40100000100000002000000",
        );
        assert_golden(
            &item("a/b", MigrateKind::Sparse(1 << 40)),
            "03000000612f62020000000000010000a40100000100000002000000",
        );
        assert_golden(
            &item(
                "a/b",
                MigrateKind::Symlink {
                    target: "t#1".into(),
                },
            ),
            "03000000612f620303000000742331a40100000100000002000000",
        );
    }
}
