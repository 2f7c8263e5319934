//! Shadow model of what the mount must show: the tree's shape and each
//! file's last acknowledged content, plus the digest of every acked
//! version so a final read-back can tell which write survived.

use kosha_nfs::client::ClientDirEntry;
use kosha_vfs::{Attr, FileType};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

struct ShadowFile {
    data: Vec<u8>,
    /// Digest of each acked version, oldest first.
    versions: Vec<u64>,
}

/// Expected tree: directories and files by normalized path.
#[derive(Default)]
pub struct Shadow {
    dirs: BTreeSet<String>,
    files: BTreeMap<String, ShadowFile>,
}

fn digest(data: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    data.hash(&mut h);
    h.finish()
}

fn parent(path: &str) -> &str {
    match path.rfind('/') {
        Some(0) | None => "/",
        Some(i) => &path[..i],
    }
}

impl Shadow {
    /// Records an acked `mkdir -p`.
    pub fn mkdir_p(&mut self, path: &str) {
        let mut p = path;
        while p != "/" && self.dirs.insert(p.to_string()) {
            p = parent(p);
        }
    }

    /// Records an acked whole-file write.
    pub fn write(&mut self, path: &str, data: &[u8]) {
        let f = self.files.entry(path.to_string()).or_insert(ShadowFile {
            data: Vec::new(),
            versions: Vec::new(),
        });
        f.data = data.to_vec();
        f.versions.push(digest(data));
    }

    /// Records an acked in-place write at `offset` of an existing file.
    pub fn write_at(&mut self, path: &str, offset: usize, data: &[u8]) {
        let f = self
            .files
            .get_mut(path)
            .expect("write_at targets a known file");
        if f.data.len() < offset + data.len() {
            f.data.resize(offset + data.len(), 0);
        }
        f.data[offset..offset + data.len()].copy_from_slice(data);
        f.versions.push(digest(&f.data));
    }

    /// Length of a known file.
    pub fn len(&self, path: &str) -> usize {
        self.files.get(path).map_or(0, |f| f.data.len())
    }

    /// Whether `path` is a known file or directory.
    pub fn exists(&self, path: &str) -> bool {
        path == "/" || self.files.contains_key(path) || self.dirs.contains(path)
    }

    /// Whether `got` is the last acked content of `path`.
    pub fn check_read(&self, path: &str, got: &[u8]) -> bool {
        self.files.get(path).is_some_and(|f| f.data == got)
    }

    /// Whether `got` is bytes `offset..offset+count` of the last acked
    /// content (short at end of file, as NFS READ is).
    pub fn check_read_at(&self, path: &str, offset: usize, count: usize, got: &[u8]) -> bool {
        self.files.get(path).is_some_and(|f| {
            let end = (offset + count).min(f.data.len());
            f.data.get(offset..end) == Some(got)
        })
    }

    /// Whether `attr` matches the shadow entry at `path`.
    pub fn check_stat(&self, path: &str, attr: &Attr) -> bool {
        if let Some(f) = self.files.get(path) {
            attr.ftype == FileType::Regular && attr.size == f.data.len() as u64
        } else {
            self.dirs.contains(path) && attr.ftype == FileType::Directory
        }
    }

    /// Whether a listing of `dir` holds exactly the shadow's children,
    /// with matching types.
    pub fn check_readdir(&self, dir: &str, got: &[ClientDirEntry]) -> bool {
        let prefix = if dir == "/" {
            "/".to_string()
        } else {
            format!("{dir}/")
        };
        let child = |p: &String| -> Option<String> {
            let rest = p.strip_prefix(&prefix)?;
            (!rest.is_empty() && !rest.contains('/')).then(|| rest.to_string())
        };
        let mut want: Vec<(String, FileType)> = self
            .dirs
            .range(prefix.clone()..)
            .take_while(|p| p.starts_with(&prefix))
            .filter_map(|p| child(p).map(|n| (n, FileType::Directory)))
            .chain(
                self.files
                    .range(prefix.clone()..)
                    .take_while(|(p, _)| p.starts_with(&prefix))
                    .filter_map(|(p, _)| child(p).map(|n| (n, FileType::Regular))),
            )
            .collect();
        let mut have: Vec<(String, FileType)> = got
            .iter()
            .filter(|e| e.name != "." && e.name != "..")
            .map(|e| (e.name.clone(), e.ftype))
            .collect();
        want.sort_by(|a, b| a.0.cmp(&b.0));
        have.sort_by(|a, b| a.0.cmp(&b.0));
        want == have
    }

    /// Bytes of live user data (the denominator of space amplification).
    pub fn live_bytes(&self) -> u64 {
        self.files.values().map(|f| f.data.len() as u64).sum()
    }

    /// Reads every file back through `read` and classifies its acked
    /// versions: a file whose content is version `i` kept versions
    /// `0..=i`; later versions, or all of them when the content matches
    /// none, were lost. Returns `(acked, lost)`.
    pub fn readback(&self, mut read: impl FnMut(&str) -> Option<Vec<u8>>) -> (u64, u64) {
        let mut acked = 0u64;
        let mut lost = 0u64;
        for (path, f) in &self.files {
            let n = f.versions.len() as u64;
            acked += n;
            let kept = read(path)
                .and_then(|got| f.versions.iter().rposition(|&v| v == digest(&got)))
                .map_or(0, |i| i as u64 + 1);
            lost += n - kept;
        }
        (acked, lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kosha_nfs::Fh;

    fn entry(name: &str, ftype: FileType) -> ClientDirEntry {
        ClientDirEntry {
            name: name.to_string(),
            fh: Fh { ino: 0, gen: 0 },
            ftype,
        }
    }

    #[test]
    fn readdir_lists_direct_children_only() {
        let mut s = Shadow::default();
        s.mkdir_p("/a/b/c");
        s.write("/a/f", b"x");
        s.write("/a/b/g", b"y");
        assert!(s.check_readdir(
            "/a",
            &[
                entry("b", FileType::Directory),
                entry("f", FileType::Regular)
            ]
        ));
        assert!(!s.check_readdir("/a", &[entry("b", FileType::Directory)]));
        assert!(s.check_readdir("/", &[entry("a", FileType::Directory)]));
    }

    #[test]
    fn readback_counts_versions_after_the_surviving_one_as_lost() {
        let mut s = Shadow::default();
        s.write("/f", b"v1");
        s.write("/f", b"v2");
        s.write("/f", b"v3");
        s.write("/g", b"only");
        let (acked, lost) = s.readback(|p| match p {
            "/f" => Some(b"v2".to_vec()),
            _ => None,
        });
        assert_eq!((acked, lost), (4, 2));
    }

    #[test]
    fn write_at_extends_and_overwrites() {
        let mut s = Shadow::default();
        s.write("/f", b"abcd");
        s.write_at("/f", 2, b"XYZ");
        assert!(s.check_read("/f", b"abXYZ"));
        assert!(s.check_read_at("/f", 3, 10, b"YZ"));
    }
}
