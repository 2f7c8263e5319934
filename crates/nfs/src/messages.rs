//! NFS procedure set and wire encodings.

use kosha_rpc::{wire_enum, wire_struct, NodeAddr, RpcError};
use kosha_vfs::{Attr, DirEntry, FileId, FileType, SetAttr, VfsError};

wire_struct! {
    /// An opaque NFS file handle. Only the issuing server can interpret it;
    /// clients (and Kosha's virtual-handle table) treat it as a token. It is
    /// the wire form of a [`kosha_vfs::FileId`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct Fh {
        /// Server-side inode number.
        pub ino: u64,
        /// Server-side store generation (stale after a purge).
        pub gen: u32,
    }
}

impl Fh {
    /// Converts from the store's identity type.
    #[must_use]
    pub fn from_file_id(id: FileId) -> Self {
        Fh {
            ino: id.ino,
            gen: id.gen,
        }
    }

    /// Converts back to the store's identity type (server side only).
    #[must_use]
    pub fn to_file_id(self) -> FileId {
        FileId {
            ino: self.ino,
            gen: self.gen,
        }
    }
}

wire_enum! {
    /// NFSv3-style status codes (`nfsstat3` subset). Tag 0 is never used:
    /// it marks success in a reply frame.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum NfsStatus {
        /// `NFS3ERR_NOENT`
        NoEnt = 1,
        /// `NFS3ERR_NOTDIR`
        NotDir = 2,
        /// `NFS3ERR_ISDIR`
        IsDir = 3,
        /// `NFS3ERR_EXIST`
        Exist = 4,
        /// `NFS3ERR_NOTEMPTY`
        NotEmpty = 5,
        /// `NFS3ERR_NOSPC` — triggers Kosha's directory redirection.
        NoSpc = 6,
        /// `NFS3ERR_STALE`
        Stale = 7,
        /// `NFS3ERR_INVAL`
        Inval = 8,
        /// `NFS3ERR_NAMETOOLONG`
        NameTooLong = 9,
        /// `NFS3ERR_NOTSUPP`
        NotSupp = 10,
        /// `NFS3ERR_IO` (catch-all server failure)
        Io = 11,
    }
}

impl From<VfsError> for NfsStatus {
    fn from(e: VfsError) -> Self {
        match e {
            VfsError::NoEnt => NfsStatus::NoEnt,
            VfsError::NotDir => NfsStatus::NotDir,
            VfsError::IsDir => NfsStatus::IsDir,
            VfsError::Exist => NfsStatus::Exist,
            VfsError::NotEmpty => NfsStatus::NotEmpty,
            VfsError::NoSpc => NfsStatus::NoSpc,
            VfsError::Stale => NfsStatus::Stale,
            VfsError::Inval => NfsStatus::Inval,
            VfsError::NameTooLong => NfsStatus::NameTooLong,
            VfsError::NotSupp => NfsStatus::NotSupp,
            VfsError::NotFile => NfsStatus::Inval,
        }
    }
}

impl std::fmt::Display for NfsStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// A client-visible NFS failure: a protocol status from the server, or a
/// transport-level error (the signal Kosha's fault handling consumes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfsError {
    /// Protocol status returned by a live server.
    Status(NfsStatus),
    /// The server could not be reached (node failure).
    Rpc(RpcError),
}

impl std::fmt::Display for NfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NfsError::Status(s) => write!(f, "nfs status {s}"),
            NfsError::Rpc(e) => write!(f, "nfs transport error: {e}"),
        }
    }
}

impl std::error::Error for NfsError {}

impl From<RpcError> for NfsError {
    fn from(e: RpcError) -> Self {
        NfsError::Rpc(e)
    }
}

impl From<NfsStatus> for NfsError {
    fn from(s: NfsStatus) -> Self {
        NfsError::Status(s)
    }
}

/// Convenience alias for client-side results.
pub type NfsResult<T> = Result<T, NfsError>;

wire_enum! {
    /// Wire tags of [`FileType`] (`ftype3` subset).
    pub FileTypeTag for FileType {
        Regular = 0,
        Directory = 1,
        Symlink = 2,
    }
}

wire_struct! {
    /// Wire form of [`kosha_vfs::Attr`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireAttr(pub Attr {
        ftype: FileType as FileTypeTag,
        mode: u32,
        uid: u32,
        gid: u32,
        size: u64,
        nlink: u32,
        atime: u64,
        mtime: u64,
        ctime: u64,
    });
}

wire_struct! {
    /// Wire form of [`kosha_vfs::SetAttr`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct WireSetAttr(pub SetAttr {
        mode: Option<u32>,
        uid: Option<u32>,
        gid: Option<u32>,
        size: Option<u64>,
        atime: Option<u64>,
        mtime: Option<u64>,
    });
}

wire_struct! {
    /// Wire form of a directory entry.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WireDirEntry {
        /// Entry name.
        pub name: String,
        /// Entry handle.
        pub fh: Fh,
        /// Entry type.
        pub ftype: FileType as FileTypeTag,
    }
}

impl From<DirEntry> for WireDirEntry {
    fn from(e: DirEntry) -> Self {
        WireDirEntry {
            name: e.name,
            fh: Fh::from_file_id(e.id),
            ftype: e.ftype,
        }
    }
}

wire_struct! {
    /// One resolved step of a compound [`NfsRequest::LookupPath`] walk.
    ///
    /// For symlinks the server piggybacks the link target so the client can
    /// decide — without a follow-up READLINK — whether the link is a Kosha
    /// special link it must chase to another server.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct WirePathNode {
        /// Handle of the resolved component.
        pub fh: Fh,
        /// Attributes of the resolved component.
        pub attr: WireAttr,
        /// The link target, present iff the component is a symlink.
        pub link_target: Option<String>,
    }
}

wire_enum! {
    /// The NFS procedure set. `Mount` plays the role of the MOUNT protocol's
    /// `MNT` (hand out the export's root handle); `CreateSized` and
    /// `RemoveTree` are documented extensions used by the simulation harness
    /// and the replica manager respectively. Labels name the procedure in
    /// per-procedure metrics (`proc="lookup_path"`) and `nfsc:` spans; tags
    /// are independent of listing order (ACCESS was added later, as tag 18).
    #[derive(Debug, Clone, PartialEq)]
    pub enum NfsRequest {
        /// No-op liveness probe (NFSPROC3_NULL).
        Null = 0 "null",
        /// MOUNT-lite: fetch the export's root handle.
        Mount = 1 "mount",
        /// Fetch attributes.
        Getattr = 2 "getattr" {
            /// Object handle.
            fh: Fh,
        },
        /// Update attributes.
        Setattr = 3 "setattr" {
            /// Object handle.
            fh: Fh,
            /// Fields to change.
            sattr: WireSetAttr,
        },
        /// Look up `name` in directory `dir`. As in NFSv3, the RPC carries the
        /// *parent handle* and a single component, never a full path
        /// (Section 4.1.3).
        Lookup = 4 "lookup" {
            /// Parent directory handle.
            dir: Fh,
            /// Child name.
            name: String,
        },
        /// Read a symlink target.
        Readlink = 5 "readlink" {
            /// Symlink handle.
            fh: Fh,
        },
        /// Permission probe (NFSv3 ACCESS): which of the requested bits the
        /// identity holds on the object.
        Access = 18 "access" {
            /// Object handle.
            fh: Fh,
            /// Requesting uid (AUTH_UNIX credential).
            uid: u32,
            /// Requesting gid.
            gid: u32,
            /// Requested permission bits (`ACCESS_READ|WRITE|EXEC`).
            want: u32,
        },
        /// Read file data.
        Read = 6 "read" {
            /// File handle.
            fh: Fh,
            /// Byte offset.
            offset: u64,
            /// Maximum bytes to return.
            count: u32,
        },
        /// Write file data.
        Write = 7 "write" {
            /// File handle.
            fh: Fh,
            /// Byte offset.
            offset: u64,
            /// Data to write.
            data: Vec<u8>,
        },
        /// Create a regular file.
        Create = 8 "create" {
            /// Parent directory handle.
            dir: Fh,
            /// New file name.
            name: String,
            /// Permission bits.
            mode: u32,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
        },
        /// Extension: create a quota-charged sparse file of `size` bytes
        /// (trace-driven simulations only; see DESIGN.md).
        CreateSized = 9 "create_sized" {
            /// Parent directory handle.
            dir: Fh,
            /// New file name.
            name: String,
            /// Logical size in bytes.
            size: u64,
            /// Permission bits.
            mode: u32,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
        },
        /// Create a directory.
        Mkdir = 10 "mkdir" {
            /// Parent directory handle.
            dir: Fh,
            /// New directory name.
            name: String,
            /// Permission bits.
            mode: u32,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
        },
        /// Create a symbolic link (Kosha special links included).
        Symlink = 11 "symlink" {
            /// Parent directory handle.
            dir: Fh,
            /// Link name.
            name: String,
            /// Link target.
            target: String,
            /// Permission bits (`0o1777` marks a Kosha special link).
            mode: u32,
            /// Owner uid.
            uid: u32,
            /// Owner gid.
            gid: u32,
        },
        /// Remove a file or symlink.
        Remove = 12 "remove" {
            /// Parent directory handle.
            dir: Fh,
            /// Name to remove.
            name: String,
        },
        /// Remove an empty directory.
        Rmdir = 13 "rmdir" {
            /// Parent directory handle.
            dir: Fh,
            /// Name to remove.
            name: String,
        },
        /// Extension: recursively remove a subtree (replica teardown and purge
        /// of redirected hierarchies).
        RemoveTree = 14 "remove_tree" {
            /// Parent directory handle.
            dir: Fh,
            /// Subtree root name.
            name: String,
        },
        /// Rename within the export.
        Rename = 15 "rename" {
            /// Source directory handle.
            sdir: Fh,
            /// Source name.
            sname: String,
            /// Destination directory handle.
            ddir: Fh,
            /// Destination name.
            dname: String,
        },
        /// List a directory (READDIRPLUS-style: names, handles, types).
        Readdir = 16 "readdir" {
            /// Directory handle.
            dir: Fh,
        },
        /// Filesystem statistics (capacity/used/free), used by Kosha's
        /// redirection to test node fullness.
        Fsstat = 17 "fsstat",
        /// Extension: compound lookup. Walks as many `/`-separated components
        /// of `path` under `dir` as this server can resolve locally and
        /// returns one [`WirePathNode`] per resolved component. The walk
        /// stops early (with the partial prefix) at a symlink or other
        /// non-directory in the middle of the path, leaving the client to
        /// decide whether to chase a special link to another server. An
        /// error on the *first* component is a status reply; errors later
        /// return the successfully resolved prefix.
        LookupPath = 19 "lookup_path" {
            /// Directory handle the walk starts from.
            dir: Fh,
            /// Relative path, components separated by `/` (no leading slash).
            path: String,
        },
        /// COMMIT (NFSv3): make previously-written data for the file
        /// durable. The plain store server acknowledges immediately (its
        /// writes are synchronous); the koshad loopback server treats it as
        /// a write-behind replication flush barrier (DESIGN.md §11).
        Commit = 20 "commit" {
            /// File handle.
            fh: Fh,
        },
    }
}

wire_enum! {
    /// Successful procedure results. The full reply on the wire is
    /// [`NfsReplyFrame`].
    #[derive(Debug, Clone, PartialEq)]
    pub enum NfsReply {
        /// NULL / acknowledgements (SETATTR piggybacks attrs instead).
        Void = 0,
        /// Root handle from `Mount`.
        Root = 1 {
            /// The export's root directory handle.
            fh: Fh,
        },
        /// Attributes (GETATTR, SETATTR).
        Attr = 2 {
            /// Current attributes.
            attr: WireAttr,
        },
        /// Handle plus attributes (LOOKUP, CREATE, MKDIR, SYMLINK).
        Handle = 3 {
            /// Object handle.
            fh: Fh,
            /// Object attributes.
            attr: WireAttr,
        },
        /// Symlink target (READLINK).
        Target = 4 {
            /// The link's target string.
            target: String,
        },
        /// File data (READ).
        Data = 5 {
            /// Bytes read.
            data: Vec<u8>,
            /// True if the read reached end of file.
            eof: bool,
        },
        /// Bytes written (WRITE).
        Written = 6 {
            /// Count of bytes accepted.
            count: u32,
        },
        /// Directory listing (READDIR).
        Entries = 7 {
            /// Directory entries in name order.
            entries: Vec<WireDirEntry>,
        },
        /// Granted permission bits (ACCESS).
        Granted = 9 {
            /// Subset of the requested bits the identity holds.
            granted: u32,
        },
        /// Filesystem statistics (FSSTAT).
        Stat = 8 {
            /// Total bytes contributed.
            capacity: u64,
            /// Bytes in use.
            used: u64,
            /// Bytes free.
            free: u64,
        },
        /// Resolved prefix of a compound walk (LOOKUPPATH), one node per
        /// component in walk order. May be shorter than the requested path.
        PathNodes = 10 {
            /// Resolved components, outermost first.
            nodes: Vec<WirePathNode>,
        },
    }
}

wire_struct! {
    /// The outermost reply frame: status byte 0 followed by an [`NfsReply`],
    /// or a non-zero [`NfsStatus`] tag.
    #[derive(Debug, Clone, PartialEq)]
    pub struct NfsReplyFrame(pub Result<NfsReply, NfsStatus>);
}

/// Identifies an NFS export on the network: which node, for clarity in
/// multi-store tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExportRef {
    /// Server address.
    pub addr: NodeAddr,
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosha_rpc::wire::assert_golden;
    use kosha_rpc::{WireRead, WireWrite};

    #[test]
    fn requests_golden() {
        let fh = Fh { ino: 42, gen: 3 };
        assert_golden(&NfsRequest::Null, "00");
        assert_golden(&NfsRequest::Mount, "01");
        assert_golden(&NfsRequest::Getattr { fh }, "022a0000000000000003000000");
        assert_golden(
            &NfsRequest::Setattr {
                fh,
                sattr: WireSetAttr(SetAttr {
                    mode: Some(0o600),
                    size: Some(10),
                    ..Default::default()
                }),
            },
            "032a000000000000000300000001800100000000010a000000000000000000",
        );
        assert_golden(
            &NfsRequest::Setattr {
                fh,
                sattr: WireSetAttr(SetAttr {
                    mode: Some(0o600),
                    uid: Some(1),
                    gid: Some(2),
                    size: Some(10),
                    atime: Some(11),
                    mtime: Some(12),
                }),
            },
            "032a0000000000000003000000018001000001010000000102000000010a00000000000000010b00000000000000010c00000000000000",
        );
        assert_golden(
            &NfsRequest::Lookup {
                dir: fh,
                name: "x".into(),
            },
            "042a00000000000000030000000100000078",
        );
        assert_golden(&NfsRequest::Readlink { fh }, "052a0000000000000003000000");
        assert_golden(
            &NfsRequest::Access {
                fh,
                uid: 10,
                gid: 20,
                want: 0x7,
            },
            "122a00000000000000030000000a0000001400000007000000",
        );
        assert_golden(
            &NfsRequest::Read {
                fh,
                offset: 5,
                count: 100,
            },
            "062a0000000000000003000000050000000000000064000000",
        );
        assert_golden(
            &NfsRequest::Write {
                fh,
                offset: 0,
                data: vec![1, 2, 3],
            },
            "072a0000000000000003000000000000000000000003000000010203",
        );
        assert_golden(
            &NfsRequest::Create {
                dir: fh,
                name: "f".into(),
                mode: 0o644,
                uid: 1,
                gid: 2,
            },
            "082a00000000000000030000000100000066a40100000100000002000000",
        );
        assert_golden(
            &NfsRequest::CreateSized {
                dir: fh,
                name: "s".into(),
                size: 1 << 30,
                mode: 0o644,
                uid: 1,
                gid: 2,
            },
            "092a000000000000000300000001000000730000004000000000a40100000100000002000000",
        );
        assert_golden(
            &NfsRequest::Mkdir {
                dir: fh,
                name: "d".into(),
                mode: 0o755,
                uid: 0,
                gid: 0,
            },
            "0a2a00000000000000030000000100000064ed0100000000000000000000",
        );
        assert_golden(
            &NfsRequest::Symlink {
                dir: fh,
                name: "l".into(),
                target: "t#9".into(),
                mode: 0o1777,
                uid: 0,
                gid: 0,
            },
            "0b2a0000000000000003000000010000006c03000000742339ff0300000000000000000000",
        );
        assert_golden(
            &NfsRequest::Remove {
                dir: fh,
                name: "f".into(),
            },
            "0c2a00000000000000030000000100000066",
        );
        assert_golden(
            &NfsRequest::Rmdir {
                dir: fh,
                name: "d".into(),
            },
            "0d2a00000000000000030000000100000064",
        );
        assert_golden(
            &NfsRequest::RemoveTree {
                dir: fh,
                name: "d".into(),
            },
            "0e2a00000000000000030000000100000064",
        );
        assert_golden(
            &NfsRequest::Rename {
                sdir: fh,
                sname: "a".into(),
                ddir: Fh { ino: 43, gen: 3 },
                dname: "b".into(),
            },
            "0f2a000000000000000300000001000000612b00000000000000030000000100000062",
        );
        assert_golden(
            &NfsRequest::Readdir { dir: fh },
            "102a0000000000000003000000",
        );
        assert_golden(&NfsRequest::Fsstat, "11");
        assert_golden(
            &NfsRequest::LookupPath {
                dir: fh,
                path: "a/b/c".into(),
            },
            "132a000000000000000300000005000000612f622f63",
        );
        assert_golden(&NfsRequest::Commit { fh }, "142a0000000000000003000000");
    }

    #[test]
    fn proc_labels_are_stable() {
        let fh = Fh { ino: 1, gen: 1 };
        assert_eq!(NfsRequest::NAMES.len(), 21);
        assert_eq!(NfsRequest::Null.name(), "null");
        assert_eq!(NfsRequest::Null.index(), 0);
        let access = NfsRequest::Access {
            fh,
            uid: 0,
            gid: 0,
            want: 0,
        };
        assert_eq!(access.name(), "access");
        assert_eq!(access.index(), 6);
        let walk = NfsRequest::LookupPath {
            dir: fh,
            path: String::new(),
        };
        assert_eq!(walk.name(), "lookup_path");
        assert_eq!(walk.index(), 19);
        assert_eq!(NfsRequest::Commit { fh }.index(), 20);
        assert_eq!(NfsRequest::NAMES[20], "commit");
    }

    #[test]
    fn reply_frames_golden() {
        let fh = Fh { ino: 7, gen: 1 };
        let mut file = Attr::new(FileType::Regular, 0o644, 1, 2, 99);
        file.size = 10;
        let attr = WireAttr(file);
        assert_golden(&NfsReplyFrame(Ok(NfsReply::Void)), "0000");
        assert_golden(
            &NfsReplyFrame(Ok(NfsReply::Root { fh })),
            "0001070000000000000001000000",
        );
        assert_golden(&NfsReplyFrame(Ok(NfsReply::Attr { attr: attr.clone() })), "000200a401000001000000020000000a0000000000000001000000630000000000000063000000000000006300000000000000");
        assert_golden(
            &NfsReplyFrame(Ok(NfsReply::Attr {
                attr: WireAttr(Attr::new(FileType::Directory, 0o755, 0, 0, 5)),
            })),
            "000201ed0100000000000000000000000000000000000002000000050000000000000005000000000000000500000000000000",
        );
        assert_golden(
            &NfsReplyFrame(Ok(NfsReply::Handle {
                fh,
                attr: WireAttr(Attr::new(FileType::Symlink, 0o1777, 0, 0, 6)),
            })),
            "000307000000000000000100000002ff0300000000000000000000000000000000000001000000060000000000000006000000000000000600000000000000",
        );
        assert_golden(
            &NfsReplyFrame(Ok(NfsReply::Target {
                target: "x#1".into(),
            })),
            "000403000000782331",
        );
        assert_golden(
            &NfsReplyFrame(Ok(NfsReply::Data {
                data: vec![9; 10],
                eof: true,
            })),
            "00050a0000000909090909090909090901",
        );
        assert_golden(
            &NfsReplyFrame(Ok(NfsReply::Written { count: 10 })),
            "00060a000000",
        );
        assert_golden(
            &NfsReplyFrame(Ok(NfsReply::Entries {
                entries: vec![
                    WireDirEntry {
                        name: "e".into(),
                        fh,
                        ftype: FileType::Symlink,
                    },
                    WireDirEntry {
                        name: "f".into(),
                        fh: Fh { ino: 8, gen: 1 },
                        ftype: FileType::Regular,
                    },
                    WireDirEntry {
                        name: "g".into(),
                        fh: Fh { ino: 9, gen: 1 },
                        ftype: FileType::Directory,
                    },
                ],
            })),
            "000703000000010000006507000000000000000100000002010000006608000000000000000100000000010000006709000000000000000100000001",
        );
        assert_golden(
            &NfsReplyFrame(Ok(NfsReply::Stat {
                capacity: 100,
                used: 10,
                free: 90,
            })),
            "000864000000000000000a000000000000005a00000000000000",
        );
        assert_golden(
            &NfsReplyFrame(Ok(NfsReply::Granted { granted: 0x5 })),
            "000905000000",
        );
        assert_golden(
            &NfsReplyFrame(Ok(NfsReply::PathNodes {
                nodes: vec![
                    WirePathNode {
                        fh,
                        attr: attr.clone(),
                        link_target: None,
                    },
                    WirePathNode {
                        fh,
                        attr,
                        link_target: Some("@1234#5".into()),
                    },
                ],
            })),
            "000a0200000007000000000000000100000000a401000001000000020000000a00000000000000010000006300000000000000630000000000000063000000000000000007000000000000000100000000a401000001000000020000000a0000000000000001000000630000000000000063000000000000006300000000000000010700000040313233342335",
        );
    }

    #[test]
    fn status_frames_golden() {
        assert_golden(&NfsReplyFrame(Err(NfsStatus::NoEnt)), "01");
        assert_golden(&NfsReplyFrame(Err(NfsStatus::NotDir)), "02");
        assert_golden(&NfsReplyFrame(Err(NfsStatus::IsDir)), "03");
        assert_golden(&NfsReplyFrame(Err(NfsStatus::Exist)), "04");
        assert_golden(&NfsReplyFrame(Err(NfsStatus::NotEmpty)), "05");
        assert_golden(&NfsReplyFrame(Err(NfsStatus::NoSpc)), "06");
        assert_golden(&NfsReplyFrame(Err(NfsStatus::Stale)), "07");
        assert_golden(&NfsReplyFrame(Err(NfsStatus::Inval)), "08");
        assert_golden(&NfsReplyFrame(Err(NfsStatus::NameTooLong)), "09");
        assert_golden(&NfsReplyFrame(Err(NfsStatus::NotSupp)), "0a");
        assert_golden(&NfsReplyFrame(Err(NfsStatus::Io)), "0b");
        assert!(NfsReplyFrame::decode(&[12]).is_err());
        assert!(NfsRequest::decode(&[21]).is_err());
        assert!(NfsReplyFrame::decode(&[0, 11]).is_err());
    }

    #[test]
    fn vfs_error_mapping_is_total() {
        use kosha_vfs::VfsError::*;
        for e in [
            NoEnt,
            NotDir,
            IsDir,
            Exist,
            NotEmpty,
            NoSpc,
            Stale,
            Inval,
            NameTooLong,
            NotSupp,
            NotFile,
        ] {
            let s: NfsStatus = e.into();
            // Every status survives a wire round trip.
            let frame = NfsReplyFrame(Err(s));
            let b = frame.encode();
            assert_eq!(NfsReplyFrame::decode(&b).unwrap(), frame);
        }
    }
}
