//! Primary-replica duties: executing mutations on the local store,
//! fanning them out to the K replicas (§4.2), promoting replicas after
//! failures (§4.4), and migrating anchors when the key space shifts
//! (§4.3).

use crate::control::{
    KoshaReply, KoshaReplyFrame, KoshaRequest, MigrateItem, MigrateKind, ReplicaOp,
};
use crate::node::{ControlService, KoshaNode, ReplicaService};
use crate::paths::{
    anchor_slot, is_internal_name, slot_local_path, Area, ANCHOR_META, HOT_MARK, LAG_MARK,
    MIGRATION_FLAG,
};
use kosha_nfs::{Fh, NfsReply, NfsRequest, NfsResult, NfsServer, NfsStatus};
use kosha_pastry::NodeInfo;
use kosha_rpc::{NodeAddr, RpcError, RpcHandler, RpcRequest, RpcResponse, ServiceId, WireRead};
use kosha_vfs::path::parent_and_name;
use kosha_vfs::SetAttr;
use std::collections::HashMap;

/// Mode bits used for special links (sticky bit marks them).
pub const SPECIAL_LINK_MODE: u32 = 0o1777;
/// Mode bits for user symlinks.
pub const USER_LINK_MODE: u32 = 0o777;

impl KoshaNode {
    // ---- local store addressing ----------------------------------------

    fn hosted(&self, anchor: &str) -> bool {
        self.anchors.lock().contains_key(anchor)
    }

    fn routing_of(&self, anchor: &str) -> Option<String> {
        self.anchors.lock().get(anchor).cloned()
    }

    /// Store path of the parent directory of `vpath`, plus the entry
    /// name. Fails `NoEnt` if this node does not host the covering
    /// anchor (the caller misrouted or we lost ownership).
    fn local_entry(&self, area: Area, vpath: &str) -> Result<(String, String), NfsStatus> {
        let (pp, name) = parent_and_name(vpath).ok_or(NfsStatus::Inval)?;
        let anchor = self.covering_anchor(pp);
        if !self.hosted(&anchor) {
            return Err(NfsStatus::NoEnt);
        }
        Ok((slot_local_path(area, &anchor, pp), name.to_string()))
    }

    /// Store path of an arbitrary object: the slot root for a hosted
    /// anchor directory, otherwise an entry within its parent's slot.
    pub(crate) fn local_object(&self, area: Area, vpath: &str) -> Result<String, NfsStatus> {
        if vpath == "/" || self.hosted(vpath) {
            let anchor = if vpath == "/" { "/" } else { vpath };
            if !self.hosted(anchor) {
                return Err(NfsStatus::NoEnt);
            }
            return Ok(slot_local_path(area, anchor, vpath));
        }
        let (pdir, name) = self.local_entry(area, vpath)?;
        Ok(format!("{pdir}/{name}"))
    }

    pub(crate) fn fh_of(&self, store_path: &str) -> Result<Fh, NfsStatus> {
        self.store
            .with_store(|v| v.resolve(store_path))
            .map(|(id, _)| Fh::from_file_id(id))
            .map_err(Into::into)
    }

    pub(crate) fn apply(&self, req: NfsRequest) -> Result<NfsReply, NfsStatus> {
        self.store.apply(req)
    }

    // ---- internal files ---------------------------------------------------

    /// Reads one of Kosha's small internal files (`.kosha_anchor`,
    /// `.kosha_lag`, `.kosha_hot`) at the node-local `path`, without
    /// charging the store; `None` when it is absent.
    pub(crate) fn read_internal(&self, path: &str) -> Option<String> {
        self.store.with_store(|v| {
            let (id, attr) = v.resolve(path).ok()?;
            let (data, _) = v.read(id, 0, attr.size as u32).ok()?;
            String::from_utf8(data).ok()
        })
    }

    /// Rewrites the internal file `name` in `dir` with `data`: looks it
    /// up, creates it when missing, truncates it (a shorter text must
    /// not keep stale trailing bytes), then writes. `fresh_dir` skips
    /// the lookup when the caller has just made `dir`, so the name
    /// cannot exist yet.
    pub(crate) fn write_internal(
        &self,
        dir: Fh,
        name: &str,
        data: Vec<u8>,
        fresh_dir: bool,
    ) -> Result<(), NfsStatus> {
        let found = if fresh_dir {
            Err(NfsStatus::NoEnt)
        } else {
            self.apply(NfsRequest::Lookup {
                dir,
                name: name.into(),
            })
        };
        let fh = match found {
            Ok(NfsReply::Handle { fh, .. }) => fh,
            Err(NfsStatus::NoEnt) => match self.apply(NfsRequest::Create {
                dir,
                name: name.into(),
                mode: 0o600,
                uid: 0,
                gid: 0,
            })? {
                NfsReply::Handle { fh, .. } => fh,
                _ => return Err(NfsStatus::Io),
            },
            Err(e) => return Err(e),
            Ok(_) => return Err(NfsStatus::Io),
        };
        self.apply(NfsRequest::Setattr {
            fh,
            sattr: kosha_nfs::messages::WireSetAttr(SetAttr {
                size: Some(0),
                ..Default::default()
            }),
        })?;
        self.apply(NfsRequest::Write {
            fh,
            offset: 0,
            data,
        })
        .map(|_| ())
    }

    fn read_anchor_meta(&self, anchor: &str) -> Option<String> {
        let slot_path = slot_local_path(Area::Store, anchor, anchor);
        self.read_internal(&format!("{slot_path}/{ANCHOR_META}"))
    }

    // ---- replication ------------------------------------------------------

    pub(crate) fn replica_addrs(&self) -> Vec<NodeAddr> {
        self.pastry
            .replica_targets(self.cfg.replicas)
            .into_iter()
            .map(|n| n.addr)
            .collect()
    }

    /// Fans one replicated mutation out to every replica target
    /// concurrently (§4.2) as a single `ReplicaApply` control RPC per
    /// target on the dedicated replica service. Every failed target is
    /// counted and journaled with its node id (and, via the journal's
    /// ambient-trace stamping, linked to the active trace) so degraded
    /// replication is fully attributable; the next full push
    /// ([`Self::ensure_replicas`]) heals the copy.
    fn mirror_op(&self, op: ReplicaOp) {
        let targets = self.replica_addrs();
        if targets.is_empty() {
            return;
        }
        if let Some(queue_ops) = self.write_behind_queue_ops() {
            // Write-behind (DESIGN.md §11): queue instead of fanning out
            // on the client's critical path. Flush barriers and the
            // transport pump drain the queues.
            self.enqueue_replica_op(op, &targets, queue_ops);
            return;
        }
        let clock = self.net.clock();
        self.obs.tracer.child(
            || "kosha:mirror".to_string(),
            self.info.addr.0,
            || clock.now().0,
            || {
                let req =
                    RpcRequest::new(ServiceId::KoshaReplica, &KoshaRequest::ReplicaApply { op });
                let batch = targets.iter().map(|a| (*a, req.clone())).collect();
                let results = self.net.call_many(self.info.addr, batch);
                for (addr, result) in targets.into_iter().zip(results) {
                    self.note_mirror_result(addr, mirror_succeeded(result));
                }
            },
        );
    }

    /// Records one replica target's mirror outcome: every failure bumps
    /// `replica_mirror_failures` and journals the missed target's node
    /// id, so a batch that loses several replicas reports all of them,
    /// not just the first.
    pub(crate) fn note_mirror_result(&self, addr: NodeAddr, ok: bool) {
        if ok {
            return;
        }
        // A missed mutation (or dropped flush batch) leaves some replica
        // behind the primary while the primary's own content digest may
        // not change again — void the full-push memo so the next
        // maintenance pass re-pushes and heals the divergence.
        self.replica_push_memo.lock().clear();
        self.stats.replica_mirror_failures.inc();
        self.journal(
            "mirror_failure",
            format!("replica on node {} missed a mirrored mutation", addr.0),
        );
    }

    /// Pushes a full, fresh copy of `anchor` to every replica target in
    /// parallel, each as one batched `MigrateBatch` RPC bracketed by the
    /// `MIGRATION_NOT_COMPLETE` flag on the receiving side (§4.4).
    ///
    /// The push is skipped when the anchor's content digest and target
    /// set both match the last fully-acknowledged push (the memo on
    /// [`KoshaNode::replica_push_memo`]): a no-op bracket replace would
    /// still destroy and recreate every holder-side file, invalidating
    /// readers' cached replica handles and putting a full-tree transfer
    /// on the wire each maintenance tick. The memo is voided by any
    /// mirror/push failure and by a holder leaving the target set, so
    /// every divergence source still converges through this path.
    pub(crate) fn ensure_replicas(&self, anchor: &str) {
        if self.cfg.replicas == 0 {
            return;
        }
        if self.routing_of(anchor).is_none() {
            return;
        }
        let targets = self.replica_addrs();
        if targets.is_empty() {
            return;
        }
        let slot_path = slot_local_path(Area::Store, anchor, anchor);
        let Ok(exported) = self.store.with_store(|v| v.export_tree(&slot_path)) else {
            return;
        };
        let digest = crate::audit::tree_digest(&exported);
        if self
            .replica_push_memo
            .lock()
            .get(anchor)
            .is_some_and(|(d, t)| *d == digest && *t == targets)
        {
            self.stats.replica_push_skips.inc();
            return;
        }
        let items: Vec<MigrateItem> = exported.into_iter().map(MigrateItem::from).collect();
        let req = RpcRequest::new(
            ServiceId::KoshaReplica,
            &KoshaRequest::MigrateBatch {
                path: anchor.to_string(),
                items,
            },
        );
        let clock = self.net.clock();
        let mut all_ok = true;
        self.obs.tracer.child(
            || "kosha:replica_push".to_string(),
            self.info.addr.0,
            || clock.now().0,
            || {
                let batch = targets.iter().map(|a| (*a, req.clone())).collect();
                let results = self.net.call_many(self.info.addr, batch);
                for (addr, result) in targets.iter().zip(results) {
                    let ok = mirror_succeeded(result);
                    if ok {
                        self.stats.replica_pushes.inc();
                    } else {
                        all_ok = false;
                    }
                    self.note_mirror_result(*addr, ok);
                }
            },
        );
        if all_ok {
            self.replica_push_memo
                .lock()
                .insert(anchor.to_string(), (digest, targets));
        }
    }

    // ---- the replica service (receiving side) -----------------------------

    /// Local replica-area directory for `vdir` (creating the chain), the
    /// receiving-side counterpart of the primary's old per-RPC
    /// `mkdir_path` walk.
    pub(crate) fn replica_dir_local(&self, anchor: &str, vdir: &str) -> Result<Fh, NfsStatus> {
        let p = slot_local_path(Area::Replica, anchor, vdir);
        self.store
            .with_store(|v| v.mkdir_p(&p, 0o700))
            .map(Fh::from_file_id)
            .map_err(Into::into)
    }

    /// Serves the replica-maintenance service: only replica-area
    /// requests (mirrored ops, full pushes, slot exports for the
    /// neighbour pull, and hot-copy push/drop) are
    /// valid here, and all of them touch purely local state (no nested
    /// RPCs), preserving the transports' deadlock discipline.
    pub(crate) fn handle_replica(&self, req: KoshaRequest) -> Result<KoshaReply, NfsStatus> {
        match req {
            KoshaRequest::ReplicaApply { op } => {
                self.apply_replica_op(op)?;
                Ok(KoshaReply::Done)
            }
            KoshaRequest::ReplicaApplyBatch { ops } => {
                // Apply in order and stop at the first failure: a partly
                // applied batch must leave the slot's lag marker set (the
                // clears ride at the batch tail), so a later promotion of
                // this copy still reports the divergence.
                for op in ops {
                    self.apply_replica_op(op)?;
                }
                Ok(KoshaReply::Done)
            }
            KoshaRequest::MigrateBatch { path, items } => {
                self.install_replica_slot(&path, &items)?;
                Ok(KoshaReply::Done)
            }
            KoshaRequest::ExportReplicaSlot { path } => {
                if !self.holds_durable_replica(&path) {
                    return Err(NfsStatus::NoEnt);
                }
                let slot_path = slot_local_path(Area::Replica, &path, &path);
                let items = self
                    .store
                    .with_store(|v| v.export_tree(&slot_path))
                    .map_err(NfsStatus::from)?;
                Ok(KoshaReply::Items(
                    items.into_iter().map(MigrateItem::from).collect(),
                ))
            }
            KoshaRequest::HotReplicaPush {
                anchor,
                routing,
                path,
                seq,
                expires_nanos,
                item,
            } => {
                self.receive_hot_push(&anchor, &routing, &path, seq, expires_nanos, &item)?;
                Ok(KoshaReply::Done)
            }
            KoshaRequest::HotReplicaDrop { anchor, path } => {
                self.receive_hot_drop(&anchor, &path)?;
                Ok(KoshaReply::Done)
            }
            _ => Err(NfsStatus::NotSupp),
        }
    }

    /// Applies one mirrored mutation to the local replica area.
    /// Already-done outcomes (`Exist` on creates, `NoEnt` on removes and
    /// renames) count as success so replays and re-pushes are idempotent.
    pub(crate) fn apply_replica_op(&self, op: ReplicaOp) -> Result<(), NfsStatus> {
        match op {
            ReplicaOp::Mkdir { path } => {
                let anchor = self.covering_anchor(&path);
                self.replica_dir_local(&anchor, &path).map(|_| ())
            }
            ReplicaOp::Create {
                path,
                mode,
                uid,
                gid,
                size,
            } => {
                let (pp, name) = parent_and_name(&path).ok_or(NfsStatus::Inval)?;
                let anchor = self.covering_anchor(pp);
                let dir = self.replica_dir_local(&anchor, pp)?;
                let name = name.to_string();
                let r = match size {
                    None => self.apply(NfsRequest::Create {
                        dir,
                        name,
                        mode,
                        uid,
                        gid,
                    }),
                    Some(sz) => self.apply(NfsRequest::CreateSized {
                        dir,
                        name,
                        size: sz,
                        mode,
                        uid,
                        gid,
                    }),
                };
                absorb(r, NfsStatus::Exist)
            }
            ReplicaOp::Symlink {
                path,
                target,
                mode,
                uid,
                gid,
            } => {
                let (pp, name) = parent_and_name(&path).ok_or(NfsStatus::Inval)?;
                let anchor = self.covering_anchor(pp);
                let dir = self.replica_dir_local(&anchor, pp)?;
                absorb(
                    self.apply(NfsRequest::Symlink {
                        dir,
                        name: name.to_string(),
                        target,
                        mode,
                        uid,
                        gid,
                    }),
                    NfsStatus::Exist,
                )
            }
            ReplicaOp::Write { path, offset, data } => {
                let (pp, name) = parent_and_name(&path).ok_or(NfsStatus::Inval)?;
                let anchor = self.covering_anchor(pp);
                let dir = self.replica_dir_local(&anchor, pp)?;
                let fh = match self.apply(NfsRequest::Lookup {
                    dir,
                    name: name.to_string(),
                }) {
                    Ok(NfsReply::Handle { fh, .. }) => fh,
                    Err(NfsStatus::NoEnt) => match self.apply(NfsRequest::Create {
                        dir,
                        name: name.to_string(),
                        mode: 0o644,
                        uid: 0,
                        gid: 0,
                    })? {
                        NfsReply::Handle { fh, .. } => fh,
                        _ => return Err(NfsStatus::Io),
                    },
                    Err(e) => return Err(e),
                    Ok(_) => return Err(NfsStatus::Io),
                };
                self.apply(NfsRequest::Write { fh, offset, data })
                    .map(|_| ())
            }
            ReplicaOp::SetAttr { path, sattr } => {
                let (pp, name) = parent_and_name(&path).ok_or(NfsStatus::Inval)?;
                let anchor = self.covering_anchor(pp);
                let dir = self.replica_dir_local(&anchor, pp)?;
                let fh = match self.apply(NfsRequest::Lookup {
                    dir,
                    name: name.to_string(),
                })? {
                    NfsReply::Handle { fh, .. } => fh,
                    _ => return Err(NfsStatus::Io),
                };
                self.apply(NfsRequest::Setattr { fh, sattr }).map(|_| ())
            }
            ReplicaOp::Remove { path } => {
                let (pp, name) = parent_and_name(&path).ok_or(NfsStatus::Inval)?;
                let anchor = self.covering_anchor(pp);
                let dir = self.replica_dir_local(&anchor, pp)?;
                absorb(
                    self.apply(NfsRequest::Remove {
                        dir,
                        name: name.to_string(),
                    }),
                    NfsStatus::NoEnt,
                )
            }
            ReplicaOp::Rmdir { path } => {
                let (pp, name) = parent_and_name(&path).ok_or(NfsStatus::Inval)?;
                let anchor = self.covering_anchor(pp);
                let dir = self.replica_dir_local(&anchor, pp)?;
                absorb(
                    self.apply(NfsRequest::Rmdir {
                        dir,
                        name: name.to_string(),
                    }),
                    NfsStatus::NoEnt,
                )
            }
            ReplicaOp::RemoveSlot { anchor } => {
                let rarea = self.fh_of(&format!("/{}", Area::Replica.dir_name()))?;
                absorb(
                    self.apply(NfsRequest::RemoveTree {
                        dir: rarea,
                        name: anchor_slot(&anchor),
                    }),
                    NfsStatus::NoEnt,
                )
            }
            ReplicaOp::Rename { from, to } => {
                let (fp, fname) = parent_and_name(&from).ok_or(NfsStatus::Inval)?;
                let (tp, tname) = parent_and_name(&to).ok_or(NfsStatus::Inval)?;
                let fanchor = self.covering_anchor(fp);
                let tanchor = self.covering_anchor(tp);
                let sdir = self.replica_dir_local(&fanchor, fp)?;
                let ddir = self.replica_dir_local(&tanchor, tp)?;
                absorb(
                    self.apply(NfsRequest::Rename {
                        sdir,
                        sname: fname.to_string(),
                        ddir,
                        dname: tname.to_string(),
                    }),
                    NfsStatus::NoEnt,
                )
            }
            ReplicaOp::LagMark { anchor, bytes } => {
                let dir = self.replica_dir_local(&anchor, &anchor)?;
                if bytes == 0 {
                    // Clear: the flush batch carrying this op brought the
                    // slot up to date.
                    return absorb(
                        self.apply(NfsRequest::Remove {
                            dir,
                            name: LAG_MARK.into(),
                        }),
                        NfsStatus::NoEnt,
                    );
                }
                self.write_internal(dir, LAG_MARK, bytes.to_string().into_bytes(), false)
            }
            ReplicaOp::RenameSlot { from, to } => {
                let rarea = self.fh_of(&format!("/{}", Area::Replica.dir_name()))?;
                absorb(
                    self.apply(NfsRequest::Rename {
                        sdir: rarea,
                        sname: anchor_slot(&from),
                        ddir: rarea,
                        dname: anchor_slot(&to),
                    }),
                    NfsStatus::NoEnt,
                )
            }
        }
    }

    /// Installs a complete anchor copy into a freshly wiped replica
    /// slot, bracketed by the `MIGRATION_NOT_COMPLETE` flag (§4.4's
    /// consistency bracket): the receiving end of the replica push and
    /// of the neighbour pull.
    fn install_replica_slot(&self, anchor: &str, items: &[MigrateItem]) -> Result<(), NfsStatus> {
        let rarea = self.fh_of(&format!("/{}", Area::Replica.dir_name()))?;
        let slot = anchor_slot(anchor);
        let _ = self.apply(NfsRequest::RemoveTree {
            dir: rarea,
            name: slot.clone(),
        });
        let aroot = match self.apply(NfsRequest::Mkdir {
            dir: rarea,
            name: slot,
            mode: 0o700,
            uid: 0,
            gid: 0,
        })? {
            NfsReply::Handle { fh, .. } => fh,
            _ => return Err(NfsStatus::Io),
        };
        self.apply(NfsRequest::Create {
            dir: aroot,
            name: MIGRATION_FLAG.into(),
            mode: 0o600,
            uid: 0,
            gid: 0,
        })?;
        install_items(&self.store, aroot, items)?;
        self.apply(NfsRequest::Remove {
            dir: aroot,
            name: MIGRATION_FLAG.into(),
        })?;
        Ok(())
    }

    /// Whether this node's replica slot for `anchor` is a durable copy:
    /// present, and not a slot of leased hot copies (`.kosha_hot`,
    /// DESIGN.md §16), which holds only the hot objects and must never
    /// become the primary copy.
    fn holds_durable_replica(&self, anchor: &str) -> bool {
        let slot = slot_local_path(Area::Replica, anchor, anchor);
        self.store.with_store(|v| {
            v.resolve(&slot).is_ok() && v.resolve(&format!("{slot}/{HOT_MARK}")).is_err()
        })
    }

    // ---- promotion & migration -------------------------------------------

    /// Checks a freshly promoted (or pulled) store copy of `anchor` for
    /// a write-behind lag marker left behind by the failed primary. A
    /// present marker means this copy is missing ops the primary had
    /// queued but never flushed: the divergence is journaled as
    /// `replica_lag` with the stamped payload-byte lower bound — failover
    /// never *silently* serves stale data — and the marker is removed
    /// from the now-authoritative copy.
    fn consume_lag_marker(&self, anchor: &str) {
        let slot_path = slot_local_path(Area::Store, anchor, anchor);
        let Some(text) = self.read_internal(&format!("{slot_path}/{LAG_MARK}")) else {
            return;
        };
        let bytes = text.trim().parse::<u64>().unwrap_or(0);
        if let Ok(dir) = self.fh_of(&slot_path) {
            let _ = self.apply(NfsRequest::Remove {
                dir,
                name: LAG_MARK.into(),
            });
        }
        self.stats.replica_lag_events.inc();
        self.journal(
            "replica_lag",
            format!(
                "promoted copy of {anchor:?} is missing at least {bytes} payload \
                 bytes the failed primary never flushed"
            ),
        );
    }

    /// Moves `anchor` from the replica area into the store and starts
    /// serving it as primary (§4.4's transparent failover end-state).
    /// `routing` stands in when the copy carries no anchor meta;
    /// `pulled` marks a copy just fetched from a neighbour, which counts
    /// as a pull rather than a promotion.
    fn promote_anchor(&self, anchor: &str, routing: &str, pulled: bool) -> Result<(), NfsStatus> {
        let slot = anchor_slot(anchor);
        self.store
            .with_store(|v| {
                let (rparent, _) = v.resolve(&format!("/{}", Area::Replica.dir_name()))?;
                let (sparent, _) = v.resolve(&format!("/{}", Area::Store.dir_name()))?;
                let _ = v.remove_tree(sparent, &slot); // drop any stale store copy
                v.rename(rparent, &slot, sparent, &slot)
            })
            .map_err(NfsStatus::from)?;
        // If the old primary died mid-push, the flag file is present; the
        // content is our best (and only reachable) copy — serve it and
        // refresh the other replicas from it.
        let slot_path = slot_local_path(Area::Store, anchor, anchor);
        if let Ok(dir) = self.fh_of(&slot_path) {
            let _ = self.apply(NfsRequest::Remove {
                dir,
                name: MIGRATION_FLAG.into(),
            });
        }
        self.consume_lag_marker(anchor);
        let routing = self
            .read_anchor_meta(anchor)
            .unwrap_or_else(|| routing.to_string());
        self.anchors.lock().insert(anchor.to_string(), routing);
        if pulled {
            self.stats.replica_pulls.inc();
            self.journal(
                "replica_pull",
                format!("pulled {anchor:?} from a neighbor replica"),
            );
        } else {
            self.stats.promotions.inc();
            self.journal(
                "promotion",
                format!("replica of {anchor:?} promoted to primary"),
            );
        }
        self.ensure_replicas(anchor);
        Ok(())
    }

    /// Asks each leaf-set member in turn for its durable replica of
    /// `anchor` (one `ExportReplicaSlot` RPC) and promotes the first copy
    /// returned. Returns true on success. This covers the corner the
    /// paper's §4.4 glosses over: with few replicas, the node that
    /// becomes numerically closest after a failure is not always one of
    /// the replica holders.
    fn pull_anchor_from_neighbors(&self, anchor: &str, routing: &str) -> bool {
        let req = RpcRequest::new(
            ServiceId::KoshaReplica,
            &KoshaRequest::ExportReplicaSlot {
                path: anchor.to_string(),
            },
        );
        self.pastry.leaf_members().into_iter().any(|m| {
            let reply = self.net.call(self.info.addr, m.addr, req.clone());
            let Ok(KoshaReplyFrame(Ok(KoshaReply::Items(items)))) =
                reply.and_then(|r| r.decode::<KoshaReplyFrame>())
            else {
                return false;
            };
            self.install_replica_slot(anchor, &items).is_ok()
                && self.promote_anchor(anchor, routing, true).is_ok()
        })
    }

    /// Sends the anchor's subtree to `owner` (the node the key space now
    /// assigns it to) in one `TransferAnchor` RPC and demotes the local
    /// copy to a replica (§4.3.1: "the files are copied to the new node,
    /// and their copy on N becomes one of the replicas").
    pub(crate) fn transfer_anchor(
        &self,
        anchor: &str,
        routing: &str,
        owner: NodeInfo,
    ) -> NfsResult<()> {
        let slot_path = slot_local_path(Area::Store, anchor, anchor);
        let items: Vec<MigrateItem> = self
            .store
            .with_store(|v| v.export_tree(&slot_path))
            .map_err(|e| kosha_nfs::NfsError::Status(e.into()))?
            .into_iter()
            .map(MigrateItem::from)
            .collect();
        self.control(
            owner.addr,
            &KoshaRequest::TransferAnchor {
                path: anchor.to_string(),
                routing_name: routing.to_string(),
                items,
            },
        )?;
        self.demote_anchor(anchor);
        self.stats.migrations_out.inc();
        self.journal(
            "migration_out",
            format!("anchor {anchor:?} handed to new owner"),
        );
        Ok(())
    }

    /// Demotes a hosted anchor to a replica copy (after migrating it).
    fn demote_anchor(&self, anchor: &str) {
        // Hot-copy leases die with the primaryship: the new owner tracks
        // its own heat and spawns its own copies if demand persists.
        self.hot_forget_anchor(anchor);
        self.replica_push_memo.lock().remove(anchor);
        self.anchors.lock().remove(anchor);
        let slot = anchor_slot(anchor);
        let _ = self.store.with_store(|v| {
            let (sparent, _) = v.resolve(&format!("/{}", Area::Store.dir_name()))?;
            let (rparent, _) = v.resolve(&format!("/{}", Area::Replica.dir_name()))?;
            let _ = v.remove_tree(rparent, &slot);
            v.rename(sparent, &slot, rparent, &slot)
        });
        self.invalidate_dir_subtree(anchor);
        let mut c = self.client.lock();
        c.dir_cache.remove(anchor);
        drop(c);
    }

    /// Reacts to leaf-set changes: migrate anchors whose keys now map to
    /// another node, refresh replicas for the rest (§4.3).
    pub(crate) fn on_leaf_change(&self, _joined: Option<NodeInfo>) {
        // Flush barrier: migration and replica refresh below must never
        // run against replicas that are behind the write-behind queues.
        self.flush_replication();
        for (path, routing) in self.hosted_anchors() {
            match self.owner_of(&routing) {
                Ok(owner) if owner.id != self.info.id => {
                    let _ = self.transfer_anchor(&path, &routing, owner);
                }
                Ok(_) => self.ensure_replicas(&path),
                Err(_) => {}
            }
        }
    }

    /// Garbage-collects stale replica slots: for every slot in the
    /// replica area, asks the anchor's current owner whether this node
    /// is still one of its replica targets, and drops the copy only on a
    /// positive "no". Leaf-set churn silently shrinks an anchor's target
    /// set, and [`Self::ensure_replicas`] only refreshes *current*
    /// targets — an ex-holder's copy would otherwise diverge forever and
    /// show up as over-replication in every audit. Conservative on every
    /// uncertain answer (owner unreachable, `NoEnt`, missing anchor
    /// meta): a stale copy is an audit nuisance, a wrongly dropped one
    /// is data loss. Returns the number of slots dropped. Called from
    /// [`KoshaNode::maintain`], never from the leaf-change hook, so its
    /// per-slot owner round-trips stay off the failover critical path.
    pub fn gc_replica_slots(&self) -> u64 {
        let root = format!("/{}", Area::Replica.dir_name());
        let slots: Vec<String> = self.store.with_store(|v| {
            let Ok((dir, _)) = v.resolve(&root) else {
                return Vec::new();
            };
            v.readdir(dir)
                .map(|entries| {
                    entries
                        .into_iter()
                        .filter(|e| e.name.starts_with('@'))
                        .map(|e| e.name)
                        .collect()
                })
                .unwrap_or_default()
        });
        let mut dropped = 0u64;
        for slot in slots {
            // The anchor meta inside the slot carries the ROUTING name
            // (what the DHT keys on), which is exactly what we need to
            // find the owner. No meta → keep; the copy may still be
            // mid-migration.
            let Some(routing) = self.read_internal(&format!("{root}/{slot}/{ANCHOR_META}")) else {
                continue;
            };
            let Ok(owner) = self.owner_of(&routing) else {
                continue;
            };
            if owner.id == self.info.id {
                // We own the anchor ourselves; promotion/demotion paths
                // manage the slot, not GC.
                continue;
            }
            let Ok(KoshaReply::Nodes(targets)) = self.control(
                owner.addr,
                &KoshaRequest::ReplicaTargetsBySlot {
                    slot: slot.clone(),
                    holder: self.info.addr.0,
                },
            ) else {
                continue;
            };
            if targets.contains(&self.info.addr) {
                continue;
            }
            let removed = self
                .store
                .with_store(|v| {
                    let (rparent, _) = v.resolve(&root)?;
                    v.remove_tree(rparent, &slot)
                })
                .is_ok();
            if removed {
                dropped += 1;
                self.stats.replica_gc.inc();
                self.journal(
                    "replica_gc",
                    format!("dropped stale replica slot {slot} (no longer a target)"),
                );
            }
        }
        dropped
    }

    // ---- the control handler ----------------------------------------------

    pub(crate) fn handle_control(&self, req: KoshaRequest) -> Result<KoshaReply, NfsStatus> {
        match req {
            KoshaRequest::CreateFile {
                path,
                mode,
                uid,
                gid,
                size,
            } => {
                let (pdir, name) = self.local_entry(Area::Store, &path)?;
                let dir = self.fh_of(&pdir)?;
                let reply = match size {
                    None => self.apply(NfsRequest::Create {
                        dir,
                        name: name.clone(),
                        mode,
                        uid,
                        gid,
                    })?,
                    Some(sz) => self.apply(NfsRequest::CreateSized {
                        dir,
                        name: name.clone(),
                        size: sz,
                        mode,
                        uid,
                        gid,
                    })?,
                };
                // lint: allow(L007) fresh create: Remove/Rmdir void leases when a path dies, so a new name has no hot copy
                self.mirror_op(ReplicaOp::Create {
                    path,
                    mode,
                    uid,
                    gid,
                    size,
                });
                match reply {
                    NfsReply::Handle { fh, attr } => Ok(KoshaReply::Handle { fh, attr }),
                    _ => Ok(KoshaReply::Done),
                }
            }
            KoshaRequest::MkdirLocal {
                path,
                mode,
                uid,
                gid,
            } => {
                let (pdir, name) = self.local_entry(Area::Store, &path)?;
                let dir = self.fh_of(&pdir)?;
                let reply = self.apply(NfsRequest::Mkdir {
                    dir,
                    name,
                    mode,
                    uid,
                    gid,
                })?;
                // lint: allow(L007) fresh mkdir: a newly created directory name has no hot copy to void
                self.mirror_op(ReplicaOp::Mkdir { path });
                match reply {
                    NfsReply::Handle { fh, attr } => Ok(KoshaReply::Handle { fh, attr }),
                    _ => Ok(KoshaReply::Done),
                }
            }
            KoshaRequest::MkdirAnchor {
                path,
                routing_name,
                mode,
                uid,
                gid,
            } => {
                let slot = anchor_slot(&path);
                let sarea = format!("/{}", Area::Store.dir_name());
                let exists = self
                    .store
                    .with_store(|v| v.resolve(&format!("{sarea}/{slot}")).is_ok());
                if exists {
                    return Err(NfsStatus::Exist);
                }
                let dir = self.fh_of(&sarea)?;
                let NfsReply::Handle { fh: root, .. } = self.apply(NfsRequest::Mkdir {
                    dir,
                    name: slot,
                    mode,
                    uid,
                    gid,
                })?
                else {
                    return Err(NfsStatus::Io);
                };
                self.write_internal(root, ANCHOR_META, routing_name.clone().into_bytes(), true)?;
                self.anchors.lock().insert(path.clone(), routing_name);
                self.ensure_replicas(&path);
                Ok(KoshaReply::Done)
            }
            KoshaRequest::PlaceLink {
                path,
                target,
                uid,
                gid,
            } => {
                let (pdir, name) = self.local_entry(Area::Store, &path)?;
                let dir = self.fh_of(&pdir)?;
                self.apply(NfsRequest::Symlink {
                    dir,
                    name: name.clone(),
                    target: target.clone(),
                    mode: SPECIAL_LINK_MODE,
                    uid,
                    gid,
                })?;
                // lint: allow(L007) fresh symlink: a newly created link name has no hot copy to void
                self.mirror_op(ReplicaOp::Symlink {
                    path,
                    target,
                    mode: SPECIAL_LINK_MODE,
                    uid,
                    gid,
                });
                Ok(KoshaReply::Done)
            }
            KoshaRequest::SymlinkFile {
                path,
                target,
                uid,
                gid,
            } => {
                let (pdir, name) = self.local_entry(Area::Store, &path)?;
                let dir = self.fh_of(&pdir)?;
                self.apply(NfsRequest::Symlink {
                    dir,
                    name,
                    target: target.clone(),
                    mode: USER_LINK_MODE,
                    uid,
                    gid,
                })?;
                // lint: allow(L007) fresh symlink: a newly created link name has no hot copy to void
                self.mirror_op(ReplicaOp::Symlink {
                    path,
                    target,
                    mode: USER_LINK_MODE,
                    uid,
                    gid,
                });
                Ok(KoshaReply::Done)
            }
            KoshaRequest::Write { path, offset, data } => {
                let obj = self.local_object(Area::Store, &path)?;
                let fh = self.fh_of(&obj)?;
                self.apply(NfsRequest::Write {
                    fh,
                    offset,
                    data: data.clone(),
                })?;
                // Void any hot-copy leases before acknowledging: a
                // reader fetching targets after this reply must never be
                // steered to a copy holding pre-write data.
                self.hot_invalidate(&path);
                self.mirror_op(ReplicaOp::Write { path, offset, data });
                Ok(KoshaReply::Done)
            }
            KoshaRequest::SetAttr { path, sattr } => {
                let obj = self.local_object(Area::Store, &path)?;
                let fh = self.fh_of(&obj)?;
                self.apply(NfsRequest::Setattr {
                    fh,
                    sattr: sattr.clone(),
                })?;
                self.hot_invalidate(&path);
                self.mirror_op(ReplicaOp::SetAttr { path, sattr });
                Ok(KoshaReply::Done)
            }
            KoshaRequest::Remove { path } | KoshaRequest::RemoveLink { path } => {
                let (pdir, name) = self.local_entry(Area::Store, &path)?;
                let dir = self.fh_of(&pdir)?;
                self.apply(NfsRequest::Remove {
                    dir,
                    name: name.clone(),
                })?;
                // The object is gone: drop its heat slot and revoke any
                // hot copies instead of leaving them to decay.
                self.hot_forget_object(&path);
                self.mirror_op(ReplicaOp::Remove { path });
                Ok(KoshaReply::Done)
            }
            KoshaRequest::Rmdir { path } => {
                let (pdir, name) = self.local_entry(Area::Store, &path)?;
                let dir = self.fh_of(&pdir)?;
                self.apply(NfsRequest::Rmdir {
                    dir,
                    name: name.clone(),
                })?;
                // lint: allow(L007) rmdir of an empty dir: hot leases cover file bodies and anchor slots, neither exists here
                self.mirror_op(ReplicaOp::Rmdir { path });
                Ok(KoshaReply::Done)
            }
            KoshaRequest::RmdirAnchor { path } => {
                if !self.hosted(&path) {
                    return Err(NfsStatus::NoEnt);
                }
                let slot_path = slot_local_path(Area::Store, &path, &path);
                // Empty check, ignoring Kosha-internal metadata.
                let non_internal = self
                    .store
                    .with_store(|v| {
                        let (id, _) = v.resolve(&slot_path)?;
                        Ok::<_, kosha_vfs::VfsError>(
                            v.readdir(id)?
                                .into_iter()
                                .filter(|e| !is_internal_name(&e.name))
                                .count(),
                        )
                    })
                    .map_err(NfsStatus::from)?;
                if non_internal > 0 {
                    return Err(NfsStatus::NotEmpty);
                }
                let slot = anchor_slot(&path);
                let sdir = self.fh_of(&format!("/{}", Area::Store.dir_name()))?;
                self.apply(NfsRequest::RemoveTree {
                    dir: sdir,
                    name: slot.clone(),
                })?;
                self.anchors.lock().remove(&path);
                self.hot_forget_anchor(&path);
                self.mirror_op(ReplicaOp::RemoveSlot { anchor: path });
                Ok(KoshaReply::Done)
            }
            KoshaRequest::RenameLocal { from, to } => {
                let (fpdir, fname) = self.local_entry(Area::Store, &from)?;
                let (tpdir, tname) = self.local_entry(Area::Store, &to)?;
                let sdir = self.fh_of(&fpdir)?;
                let ddir = self.fh_of(&tpdir)?;
                self.apply(NfsRequest::Rename {
                    sdir,
                    sname: fname.clone(),
                    ddir,
                    dname: tname.clone(),
                })?;
                // Hot copies are keyed by path: both the vacated source
                // and the overwritten destination lose theirs.
                self.hot_forget_object(&from);
                self.hot_forget_object(&to);
                self.mirror_op(ReplicaOp::Rename { from, to });
                Ok(KoshaReply::Done)
            }
            KoshaRequest::RenameAnchorDir { from, to } => {
                let Some(routing) = self.routing_of(&from) else {
                    return Err(NfsStatus::NoEnt);
                };
                let fslot = anchor_slot(&from);
                let tslot = anchor_slot(&to);
                let sarea = self.fh_of(&format!("/{}", Area::Store.dir_name()))?;
                self.apply(NfsRequest::Rename {
                    sdir: sarea,
                    sname: fslot.clone(),
                    ddir: sarea,
                    dname: tslot.clone(),
                })?;
                {
                    let mut a = self.anchors.lock();
                    a.remove(&from);
                    a.insert(to.clone(), routing);
                }
                // Void hot copies keyed by the old anchor name before the
                // mirror fan-out acks: a hot holder that kept serving
                // `from` would hand out reads of a directory that no
                // longer exists under that path.
                self.hot_forget_anchor(&from);
                self.mirror_op(ReplicaOp::RenameSlot { from, to });
                Ok(KoshaReply::Done)
            }
            KoshaRequest::EnsureAnchor { path, routing } => {
                let slot_path = slot_local_path(Area::Store, &path, &path);
                let in_store = self.store.with_store(|v| v.resolve(&slot_path).is_ok());
                if in_store {
                    if !self.hosted(&path) {
                        let r = self
                            .read_anchor_meta(&path)
                            .unwrap_or_else(|| routing.clone());
                        self.anchors.lock().insert(path, r);
                    }
                    return Ok(KoshaReply::DoneBool(false));
                }
                if self.holds_durable_replica(&path) {
                    self.promote_anchor(&path, &routing, false)?;
                    return Ok(KoshaReply::DoneBool(true));
                }
                // We own the key but hold no durable copy: none at all
                // (e.g. K=1 and the sole replica sits on the *other*
                // neighbor of the failed primary), or only leased hot
                // copies, which the pulled slot replaces. Pull the anchor
                // from whichever leaf-set member still holds a durable
                // replica, then serve it.
                if self.pull_anchor_from_neighbors(&path, &routing) {
                    return Ok(KoshaReply::DoneBool(true));
                }
                if path == "/" {
                    // Brand-new deployment (or new root owner with no data
                    // yet): create the root anchor empty.
                    let dir = self.fh_of(&format!("/{}", Area::Store.dir_name()))?;
                    let NfsReply::Handle { fh: root, .. } = self.apply(NfsRequest::Mkdir {
                        dir,
                        name: anchor_slot("/"),
                        mode: 0o755,
                        uid: 0,
                        gid: 0,
                    })?
                    else {
                        return Err(NfsStatus::Io);
                    };
                    self.anchors.lock().insert("/".into(), routing.clone());
                    self.write_internal(root, ANCHOR_META, routing.into_bytes(), true)?;
                    self.ensure_replicas("/");
                    return Ok(KoshaReply::DoneBool(false));
                }
                Err(NfsStatus::NoEnt)
            }
            KoshaRequest::StoreStats => {
                let (capacity, used, free) = self.store.with_store(|v| v.fsstat());
                Ok(KoshaReply::Stats {
                    capacity,
                    used,
                    free,
                })
            }
            KoshaRequest::TransferAnchor {
                path,
                routing_name,
                items,
            } => {
                // Merge semantics: do NOT wipe an existing copy. A
                // recovered node may receive its own anchor back from a
                // node that served (a possibly empty or partial) interim
                // copy during an outage; wiping would lose every entry
                // the interim copy never saw. Transferred items replace
                // same-named entries; everything else survives.
                let slot_path = slot_local_path(Area::Store, &path, &path);
                let root = self
                    .store
                    .with_store(|v| v.mkdir_p(&slot_path, 0o755))
                    .map(Fh::from_file_id)
                    .map_err(NfsStatus::from)?;
                install_items(&self.store, root, &items)?;
                self.write_internal(root, ANCHOR_META, routing_name.clone().into_bytes(), false)?;
                self.anchors.lock().insert(path.clone(), routing_name);
                self.stats.migrations_in.inc();
                self.journal(
                    "migration_in",
                    format!("anchor {path:?} received from previous owner"),
                );
                self.ensure_replicas(&path);
                Ok(KoshaReply::Done)
            }
            KoshaRequest::ListAnchors => Ok(KoshaReply::Anchors(self.hosted_anchors())),
            KoshaRequest::AuditScan => {
                // Anti-entropy scan: digest every local slot. Local
                // state only — the auditor fans this out cluster-wide,
                // and a handler that issued nested RPCs could deadlock
                // two nodes auditing each other.
                Ok(KoshaReply::Audit(self.audit_scan()))
            }
            KoshaRequest::Flush { path } => {
                // NFS COMMIT barrier: the client fsynced, so every queued
                // write-behind op must reach the replicas before we ack.
                // A no-op under `Sync` replication (nothing is queued).
                self.journal("flush_barrier", format!("COMMIT barrier for {path:?}"));
                self.flush_replication();
                Ok(KoshaReply::Done)
            }
            // Replica maintenance is served on its own leaf service
            // (`ServiceId::KoshaReplica`), not the control service.
            KoshaRequest::MigrateBatch { .. }
            | KoshaRequest::ExportReplicaSlot { .. }
            | KoshaRequest::ReplicaApply { .. }
            | KoshaRequest::ReplicaApplyBatch { .. }
            | KoshaRequest::HotReplicaPush { .. }
            | KoshaRequest::HotReplicaDrop { .. } => Err(NfsStatus::NotSupp),
            KoshaRequest::ReplicaTargets { path } => {
                let anchor = self.covering_anchor(&path);
                if !self.hosted(&anchor) {
                    return Err(NfsStatus::NoEnt);
                }
                // Every replica-assisted read lands here, so this is
                // where the primary measures per-object demand — and,
                // past the heat threshold, where it spawns extra cached
                // copies and advertises their (valid-lease) holders
                // alongside the K durable targets (DESIGN.md §16).
                let mut targets = self.replica_addrs();
                for a in self.hot_read_extras(&path, &anchor) {
                    if !targets.contains(&a) {
                        targets.push(a);
                    }
                }
                Ok(KoshaReply::Nodes(targets))
            }
            KoshaRequest::ReplicaTargetsBySlot { slot, holder } => {
                // GC probe: a replica holder only knows the slot name, so
                // map it back through our hosted-anchor table. `NoEnt`
                // (we don't host it) tells the holder to keep its copy —
                // never to drop anything.
                let anchor = self
                    .anchors
                    .lock()
                    .keys()
                    .find(|p| anchor_slot(p) == slot)
                    .cloned();
                let Some(anchor) = anchor else {
                    return Err(NfsStatus::NoEnt);
                };
                // Vouch for hot-copy holders too: their slots carry our
                // anchor meta, and GC must not collect a copy we still
                // track (orphans — dead or demoted primary — get no such
                // vouching and age out).
                let mut targets = self.replica_addrs();
                for a in self.hot_holders_for_slot(&slot) {
                    if !targets.contains(&a) {
                        targets.push(a);
                    }
                }
                if !targets.contains(&NodeAddr(holder)) {
                    // The probing holder is about to drop its copy: void
                    // the push memo so a later return to the target set
                    // gets a fresh full push even with content unchanged.
                    self.replica_push_memo.lock().remove(&anchor);
                }
                Ok(KoshaReply::Nodes(targets))
            }
        }
    }
}

/// Whether a mirror RPC's outcome means the replica applied the change.
pub(crate) fn mirror_succeeded(result: Result<RpcResponse, RpcError>) -> bool {
    matches!(
        result.and_then(|r| r.decode::<KoshaReplyFrame>()),
        Ok(KoshaReplyFrame(Ok(_)))
    )
}

/// Treats `benign` as success (idempotent replica mutations).
fn absorb(r: Result<NfsReply, NfsStatus>, benign: NfsStatus) -> Result<(), NfsStatus> {
    match r {
        Ok(_) => Ok(()),
        Err(e) if e == benign => Ok(()),
        Err(e) => Err(e),
    }
}

/// Installs exported `items` (parent before child, `""` = the root
/// itself, which is skipped) below the directory `root`. Each item is
/// created; a name that already exists is merged into when both are
/// directories and replaced otherwise. On a freshly made `root` this is
/// exactly one create (plus one write per file body) per item. Items
/// whose parent was not installed are skipped.
fn install_items(store: &NfsServer, root: Fh, items: &[MigrateItem]) -> Result<(), NfsStatus> {
    let mut dirs: HashMap<&str, Fh> = HashMap::new();
    dirs.insert("", root);
    for item in items.iter().filter(|i| !i.rel_path.is_empty()) {
        let (prel, name) = item
            .rel_path
            .rsplit_once('/')
            .unwrap_or(("", &item.rel_path));
        let Some(&dir) = dirs.get(prel) else {
            continue;
        };
        let fh = match install_item(store, dir, name, item) {
            Err(NfsStatus::Exist) => {
                let NfsReply::Handle { fh, attr } = store.apply(NfsRequest::Lookup {
                    dir,
                    name: name.to_string(),
                })?
                else {
                    return Err(NfsStatus::Io);
                };
                let is_dir = attr.0.ftype == kosha_vfs::FileType::Directory;
                if is_dir && item.kind == MigrateKind::Dir {
                    fh
                } else {
                    let old = name.to_string();
                    store.apply(if is_dir {
                        NfsRequest::RemoveTree { dir, name: old }
                    } else {
                        NfsRequest::Remove { dir, name: old }
                    })?;
                    install_item(store, dir, name, item)?
                }
            }
            r => r?,
        };
        if item.kind == MigrateKind::Dir {
            dirs.insert(&item.rel_path, fh);
        }
    }
    Ok(())
}

/// Creates one exported object as `name` in `dir`; returns its handle.
fn install_item(
    store: &NfsServer,
    dir: Fh,
    name: &str,
    item: &MigrateItem,
) -> Result<Fh, NfsStatus> {
    let name = name.to_string();
    let (mode, uid, gid) = (item.mode, item.uid, item.gid);
    let reply = match &item.kind {
        MigrateKind::Dir => store.apply(NfsRequest::Mkdir {
            dir,
            name,
            mode,
            uid,
            gid,
        })?,
        MigrateKind::Bytes(data) => {
            let reply = store.apply(NfsRequest::Create {
                dir,
                name,
                mode,
                uid,
                gid,
            })?;
            if let NfsReply::Handle { fh, .. } = reply {
                store.apply(NfsRequest::Write {
                    fh,
                    offset: 0,
                    data: data.clone(),
                })?;
            }
            reply
        }
        MigrateKind::Sparse(size) => store.apply(NfsRequest::CreateSized {
            dir,
            name,
            size: *size,
            mode,
            uid,
            gid,
        })?,
        MigrateKind::Symlink { target } => store.apply(NfsRequest::Symlink {
            dir,
            name,
            target: target.clone(),
            mode,
            uid,
            gid,
        })?,
    };
    match reply {
        NfsReply::Handle { fh, .. } => Ok(fh),
        _ => Err(NfsStatus::Io),
    }
}

impl RpcHandler for ControlService {
    // lint: allow(L005) designed one-level nesting: the control plane fans out to leaf replica/lease services only, and those handlers are verified RPC-free by this same rule
    fn handle(&self, _from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
        let req = KoshaRequest::decode(body)?;
        let k = &self.0;
        let name = req.name();
        let clock = k.net.clock();
        let result = k.obs.tracer.child(
            || format!("kosha:{name}"),
            k.info.addr.0,
            || clock.now().0,
            || k.handle_control(req),
        );
        Ok(RpcResponse::new(&KoshaReplyFrame(result)))
    }
}

impl RpcHandler for ReplicaService {
    fn handle(&self, _from: NodeAddr, body: &[u8]) -> Result<RpcResponse, RpcError> {
        let req = KoshaRequest::decode(body)?;
        let k = &self.0;
        let name = req.name();
        let clock = k.net.clock();
        let result = k.obs.tracer.child(
            || format!("replica:{name}"),
            k.info.addr.0,
            || clock.now().0,
            || k.handle_replica(req),
        );
        Ok(RpcResponse::new(&KoshaReplyFrame(result)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::tree_digest;
    use kosha_nfs::DiskModel;
    use kosha_rpc::VirtualClock;
    use kosha_vfs::{ExportItem, Vfs};
    use std::sync::Arc;

    /// The sender's anchor: a directory, a file with bytes, a symlink,
    /// a sparse file and a top-level file.
    fn sender() -> Vec<ExportItem> {
        let mut v = Vfs::new(1 << 20);
        let sub = v.mkdir_p("/src/sub", 0o750).unwrap();
        let (f, _) = v.create(sub, "data.bin", 0o640, 3, 4).unwrap();
        v.write(f, 0, b"payload").unwrap();
        v.symlink(sub, "link", "data.bin", 0o777, 3, 4).unwrap();
        let (src, _) = v.resolve("/src").unwrap();
        v.create_sized(src, "sparse", 1 << 12, 0o600, 3, 4).unwrap();
        let (n, _) = v.create(src, "note", 0o644, 0, 0).unwrap();
        v.write(n, 0, b"n").unwrap();
        v.export_tree("/src").unwrap()
    }

    /// A receiver whose `/dst` already holds every sender name with other
    /// content or another type, plus `extra` entries only it has.
    fn receiver(extra: bool) -> (Arc<NfsServer>, Fh) {
        let s = NfsServer::new(Vfs::new(1 << 20), VirtualClock::new(), DiskModel::zero());
        let root = s.with_store(|v| {
            let sub = v.mkdir_p("/dst/sub", 0o700).unwrap();
            let (f, _) = v.create(sub, "data.bin", 0o600, 0, 0).unwrap();
            v.write(f, 0, b"stale bytes").unwrap();
            v.create(sub, "link", 0o600, 0, 0).unwrap();
            let note = v.mkdir_p("/dst/note", 0o700).unwrap();
            v.create(note, "inner", 0o600, 0, 0).unwrap();
            let (root, _) = v.resolve("/dst").unwrap();
            v.symlink(root, "sparse", "elsewhere", 0o777, 0, 0).unwrap();
            if extra {
                v.create(root, "only_here", 0o600, 0, 0).unwrap();
                v.create(sub, "local", 0o600, 0, 0).unwrap();
            }
            root
        });
        (s, Fh::from_file_id(root))
    }

    fn items(exported: &[ExportItem]) -> Vec<MigrateItem> {
        exported.iter().cloned().map(MigrateItem::from).collect()
    }

    #[test]
    fn replace_install_reproduces_the_sender_digest() {
        let exported = sender();
        let (s, root) = receiver(false);
        install_items(&s, root, &items(&exported)).unwrap();
        let installed = s.with_store(|v| v.export_tree("/dst")).unwrap();
        assert_eq!(tree_digest(&installed), tree_digest(&exported));

        // On an empty root the same items install one-for-one too.
        let fresh = NfsServer::new(Vfs::new(1 << 20), VirtualClock::new(), DiskModel::zero());
        let root = fresh.with_store(|v| v.mkdir_p("/dst", 0o700)).unwrap();
        install_items(&fresh, Fh::from_file_id(root), &items(&exported)).unwrap();
        let installed = fresh.with_store(|v| v.export_tree("/dst")).unwrap();
        assert_eq!(tree_digest(&installed), tree_digest(&exported));
    }

    #[test]
    fn merge_install_keeps_receiver_only_entries() {
        let exported = sender();
        let (s, root) = receiver(true);
        install_items(&s, root, &items(&exported)).unwrap();
        let installed = s.with_store(|v| v.export_tree("/dst")).unwrap();
        let paths: Vec<&str> = installed.iter().map(|i| i.rel_path.as_str()).collect();
        assert!(paths.contains(&"only_here"), "{paths:?}");
        assert!(paths.contains(&"sub/local"), "{paths:?}");
        // Everything else is exactly the sender's tree.
        let shared: Vec<ExportItem> = installed
            .into_iter()
            .filter(|i| i.rel_path != "only_here" && i.rel_path != "sub/local")
            .collect();
        assert_eq!(tree_digest(&shared), tree_digest(&exported));
    }
}
