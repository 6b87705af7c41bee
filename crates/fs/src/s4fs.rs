//! [`S4FileServer`]: the S4 client, translating NFS-style operations
//! into S4 RPCs (§4.1.2).
//!
//! * Files, directories, and symlinks are overlaid on objects; a
//!   directory object's data is its entry table, a symlink object's data
//!   is its target.
//! * The NFS file handle *is* the ObjectID.
//! * The file type and mode live in the object's opaque attribute space.
//! * After every state-modifying operation the client sends a `Sync` RPC
//!   ("since this RPC does not return until the synchronization is
//!   complete, NFSv2 semantics are supported even though the drive
//!   normally caches writes").
//! * Read-only attribute and directory caches absorb repeat lookups. A
//!   directory mutation takes its directory out of the cache, edits the
//!   entries in place and puts it back only once the drive has accepted
//!   every request.
//!
//! Time-travel variants (`*_at`) expose the drive's time-based access for
//! the recovery tools; they bypass the caches.

use std::collections::HashMap;

use s4_clock::sync::Mutex;

use s4_clock::SimTime;
use s4_core::{ObjectId, Request, RequestContext, Response};

use crate::server::{FileAttr, FileKind, FileServer, FsError, FsResult, Handle};
use crate::transport::Transport;

/// Translator configuration.
#[derive(Clone, Copy, Debug)]
pub struct S4FsConfig {
    /// Send `Sync` after every mutating operation (NFSv2 semantics).
    pub sync_per_op: bool,
    /// Serve repeated `getattr` calls from a read-only cache.
    pub attr_cache: bool,
    /// Serve repeated directory reads from a read-only cache.
    pub dir_cache: bool,
    /// Combine the drive operations of one file-system operation into a
    /// single batched RPC (§4.1.2: "the drive also supports batching of
    /// setattr, getattr, and sync operations with create, read, write,
    /// and append operations ... to minimize the number of RPC calls").
    pub batch_rpcs: bool,
}

impl Default for S4FsConfig {
    fn default() -> Self {
        S4FsConfig {
            sync_per_op: true,
            attr_cache: true,
            dir_cache: true,
            batch_rpcs: true,
        }
    }
}

/// One directory entry: name, handle and kind.
type Entry = (String, Handle, FileKind);

/// A directory as the translator holds it: its entries in slot order and
/// the encoded table the drive stores for them.
struct Dir {
    entries: Vec<Entry>,
    table: Vec<u8>,
}

impl Dir {
    fn position(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|(n, _, _)| n == name)
    }

    /// Re-encodes the edited entries into `table` and returns the
    /// Write/Truncate requests that update the drive's copy, touching only
    /// the 4 KiB blocks that changed (as a real file system updates only
    /// the affected directory blocks; rewriting the whole table would
    /// generate artificial version churn on the drive).
    fn update_requests(&mut self, dir: Handle) -> Vec<Request> {
        const BS: usize = 4096;
        let old = std::mem::replace(&mut self.table, encode_dir(&self.entries));
        let new = &self.table;
        let mut reqs = Vec::new();
        for lo in (0..new.len()).step_by(BS) {
            let hi = (lo + BS).min(new.len());
            // A short last block is unchanged only if the old table ended
            // at the same byte.
            if old.get(lo..hi) == Some(&new[lo..hi]) && (hi - lo == BS || old.len() == hi) {
                continue;
            }
            reqs.push(Request::Write {
                oid: ObjectId(dir),
                offset: lo as u64,
                data: new[lo..hi].to_vec(),
            });
        }
        if old.len() > new.len() {
            reqs.push(Request::Truncate {
                oid: ObjectId(dir),
                len: new.len() as u64,
            });
        }
        reqs
    }
}

#[derive(Default)]
struct Caches {
    attr: HashMap<Handle, FileAttr>,
    dir: HashMap<Handle, Dir>,
}

/// The S4 client / NFS translator.
pub struct S4FileServer<T: Transport> {
    transport: T,
    ctx: RequestContext,
    root: Handle,
    config: S4FsConfig,
    caches: Mutex<Caches>,
}

const DIR_ENTRY_OVERHEAD: usize = 11;

fn encode_dir(entries: &[(String, Handle, FileKind)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + entries.len() * 24);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for (name, h, kind) in entries {
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&h.to_le_bytes());
        out.push(match kind {
            FileKind::File => 1,
            FileKind::Dir => 2,
            FileKind::Symlink => 3,
        });
    }
    out
}

fn decode_dir(data: &[u8]) -> FsResult<Vec<(String, Handle, FileKind)>> {
    if data.is_empty() {
        return Ok(Vec::new());
    }
    if data.len() < 4 {
        return Err(FsError::Storage("directory blob truncated".into()));
    }
    let n = u32::from_le_bytes(data[0..4].try_into().unwrap()) as usize;
    let mut pos = 4;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if pos + 2 > data.len() {
            return Err(FsError::Storage("directory entry truncated".into()));
        }
        let nl = u16::from_le_bytes(data[pos..pos + 2].try_into().unwrap()) as usize;
        pos += 2;
        if pos + nl + 9 > data.len() {
            return Err(FsError::Storage("directory name truncated".into()));
        }
        let name = String::from_utf8(data[pos..pos + nl].to_vec())
            .map_err(|_| FsError::Storage("directory name utf8".into()))?;
        pos += nl;
        let h = u64::from_le_bytes(data[pos..pos + 8].try_into().unwrap());
        pos += 8;
        let kind = match data[pos] {
            1 => FileKind::File,
            2 => FileKind::Dir,
            3 => FileKind::Symlink,
            _ => return Err(FsError::Storage("directory entry kind".into())),
        };
        pos += 1;
        out.push((name, h, kind));
    }
    let _ = DIR_ENTRY_OVERHEAD;
    Ok(out)
}

fn encode_fattr(kind: FileKind, mode: u16) -> Vec<u8> {
    let mut out = Vec::with_capacity(3);
    out.push(match kind {
        FileKind::File => 1,
        FileKind::Dir => 2,
        FileKind::Symlink => 3,
    });
    out.extend_from_slice(&mode.to_le_bytes());
    out
}

fn decode_fattr(blob: &[u8]) -> (FileKind, u16) {
    if blob.len() < 3 {
        return (FileKind::File, 0o644);
    }
    let kind = match blob[0] {
        2 => FileKind::Dir,
        3 => FileKind::Symlink,
        _ => FileKind::File,
    };
    (kind, u16::from_le_bytes(blob[1..3].try_into().unwrap()))
}

impl<T: Transport> S4FileServer<T> {
    /// Mounts the file system exported under `partition`, creating it (an
    /// empty root directory) if the partition does not exist yet.
    pub fn mount(
        transport: T,
        ctx: RequestContext,
        partition: &str,
        config: S4FsConfig,
    ) -> FsResult<Self> {
        let root = match transport.call(
            &ctx,
            &Request::PMount {
                name: partition.into(),
                time: None,
            },
        ) {
            Ok(Response::Mounted(oid)) => oid.0,
            Ok(other) => return Err(FsError::Storage(format!("bad PMount response {other:?}"))),
            Err(FsError::NotFound) => {
                // First mount: create the root directory object.
                let oid = match transport.call(&ctx, &Request::Create)? {
                    Response::Created(oid) => oid,
                    other => {
                        return Err(FsError::Storage(format!("bad Create response {other:?}")))
                    }
                };
                transport.call(
                    &ctx,
                    &Request::SetAttr {
                        oid,
                        attrs: encode_fattr(FileKind::Dir, 0o755),
                    },
                )?;
                transport.call(
                    &ctx,
                    &Request::PCreate {
                        name: partition.into(),
                        oid,
                    },
                )?;
                transport.call(&ctx, &Request::Sync)?;
                oid.0
            }
            Err(e) => return Err(e),
        };
        Ok(S4FileServer {
            transport,
            ctx,
            root,
            config,
            caches: Mutex::new(Caches::default()),
        })
    }

    /// The transport (and through it, the drive for loopback setups).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Consumes the file server, returning its transport (used to unmount
    /// the underlying drive cleanly).
    pub fn into_transport(self) -> T {
        self.transport
    }

    /// The request context this client stamps on RPCs.
    pub fn context(&self) -> &RequestContext {
        &self.ctx
    }

    fn call(&self, req: &Request) -> FsResult<Response> {
        self.transport.call(&self.ctx, req)
    }

    /// Runs a mutating operation's drive requests, appending the NFSv2
    /// per-op Sync, as one batched RPC when configured (one network round
    /// trip) or as individual calls otherwise. Returns the sub-responses
    /// (exclusive of the Sync).
    fn run_mutation(&self, reqs: Vec<Request>) -> FsResult<Vec<Response>> {
        self.run_requests(reqs, true)
    }

    /// Like [`Self::run_mutation`] but lets multi-step operations defer
    /// the Sync to their final batch (one durable point per NFS op).
    fn run_requests(&self, mut reqs: Vec<Request>, sync: bool) -> FsResult<Vec<Response>> {
        let n = reqs.len();
        if sync && self.config.sync_per_op {
            reqs.push(Request::Sync);
        }
        if self.config.batch_rpcs && reqs.len() > 1 {
            match self.call(&Request::Batch(reqs))? {
                Response::Batch(mut rs) => {
                    rs.truncate(n);
                    Ok(rs)
                }
                other => Err(FsError::Storage(format!("bad Batch response {other:?}"))),
            }
        } else {
            let mut out = Vec::with_capacity(n);
            for r in &reqs {
                out.push(self.call(r)?);
            }
            out.truncate(n);
            Ok(out)
        }
    }

    fn read_object(
        &self,
        h: Handle,
        offset: u64,
        len: u64,
        time: Option<SimTime>,
    ) -> FsResult<Vec<u8>> {
        match self.call(&Request::Read {
            oid: ObjectId(h),
            offset,
            len,
            time,
        })? {
            Response::Data(d) => Ok(d),
            other => Err(FsError::Storage(format!("bad Read response {other:?}"))),
        }
    }

    fn getattr_raw(&self, h: Handle, time: Option<SimTime>) -> FsResult<FileAttr> {
        match self.call(&Request::GetAttr {
            oid: ObjectId(h),
            time,
        })? {
            Response::Attrs(a) => {
                let (kind, mode) = decode_fattr(&a.opaque);
                Ok(FileAttr {
                    kind,
                    size: a.size,
                    mtime: a.modified,
                    mode,
                })
            }
            other => Err(FsError::Storage(format!("bad GetAttr response {other:?}"))),
        }
    }

    /// Reads `dir` from the drive, bypassing the directory cache.
    fn fetch_dir(&self, dir: Handle) -> FsResult<Dir> {
        let attr = self.getattr_cached(dir)?;
        if attr.kind != FileKind::Dir {
            return Err(FsError::NotADirectory);
        }
        let table = self.read_object(dir, 0, attr.size, None)?;
        Ok(Dir {
            entries: decode_dir(&table)?,
            table,
        })
    }

    /// Runs `f` over `dir`'s entries without copying them: under the
    /// cache lock on a hit, or over a fresh read (then cached) on a miss.
    fn with_entries<R>(&self, dir: Handle, f: impl FnOnce(&[Entry]) -> R) -> FsResult<R> {
        if self.config.dir_cache {
            if let Some(hit) = self.caches.lock().dir.get(&dir) {
                return Ok(f(&hit.entries));
            }
        }
        let d = self.fetch_dir(dir)?;
        let r = f(&d.entries);
        self.cache_dir(dir, d);
        Ok(r)
    }

    fn cache_dir(&self, dir: Handle, d: Dir) {
        if self.config.dir_cache {
            self.caches.lock().dir.insert(dir, d);
        }
    }

    /// Takes `dir` out of the directory cache, or reads it from the drive
    /// on a miss. Until the mutation hands it back the cache holds no
    /// copy of it.
    fn take_dir(&self, dir: Handle) -> FsResult<Dir> {
        if self.config.dir_cache {
            if let Some(d) = self.caches.lock().dir.remove(&dir) {
                return Ok(d);
            }
        }
        self.fetch_dir(dir)
    }

    /// The one path of every directory mutation. Takes `dirs` out of the
    /// cache (or reads them on a miss) and lets `edit` check the op and
    /// edit their entries in place, returning the op's own requests; a
    /// refusing `edit` must leave the entries untouched. The changed
    /// directory blocks and the per-op Sync then go out with those
    /// requests, and the directories go back only if every request
    /// succeeded. A single-drive batch keeps the sub-requests before the
    /// one that fails, so after a failure the drive's table may be old,
    /// new or between: the cache drops the directories and their
    /// attributes instead.
    fn mutate_dirs<R>(
        &self,
        dirs: &[Handle],
        edit: impl FnOnce(&mut [Dir]) -> FsResult<(Vec<Request>, R)>,
    ) -> FsResult<R> {
        let put_back = |taken: Vec<Dir>| {
            for (&dir, d) in dirs.iter().zip(taken) {
                self.cache_dir(dir, d);
            }
        };
        let mut taken: Vec<Dir> = dirs
            .iter()
            .map(|&d| self.take_dir(d))
            .collect::<FsResult<_>>()?;
        let (mut reqs, out) = match edit(&mut taken) {
            Ok(edited) => edited,
            Err(e) => {
                put_back(taken);
                return Err(e);
            }
        };
        for (&dir, d) in dirs.iter().zip(&mut taken) {
            reqs.extend(d.update_requests(dir));
        }
        let sent = self.run_mutation(reqs);
        for &dir in dirs {
            self.invalidate(dir);
        }
        sent?;
        put_back(taken);
        Ok(out)
    }

    fn getattr_cached(&self, h: Handle) -> FsResult<FileAttr> {
        if self.config.attr_cache {
            if let Some(hit) = self.caches.lock().attr.get(&h) {
                return Ok(hit.clone());
            }
        }
        let attr = self.getattr_raw(h, None)?;
        if self.config.attr_cache {
            self.caches.lock().attr.insert(h, attr.clone());
        }
        Ok(attr)
    }

    fn create_node(&self, dir: Handle, name: &str, kind: FileKind, mode: u16) -> FsResult<Handle> {
        if name.is_empty() || name.len() > 255 || name.contains('/') {
            return Err(FsError::Invalid("file name"));
        }
        self.mutate_dirs(&[dir], |d| {
            if d[0].position(name).is_some() {
                return Err(FsError::Exists);
            }
            // Two round trips: Create (the directory entry must embed the
            // drive-assigned id), then SetAttr + directory-block updates +
            // the single per-op Sync as one batch.
            let oid = match self.run_requests(vec![Request::Create], false)?.first() {
                Some(Response::Created(oid)) => *oid,
                other => return Err(FsError::Storage(format!("bad Create response {other:?}"))),
            };
            d[0].entries.push((name.to_string(), oid.0, kind));
            let attrs = encode_fattr(kind, mode);
            Ok((vec![Request::SetAttr { oid, attrs }], oid.0))
        })
    }

    /// Swap-removes slot `idx` of `d` and returns the request deleting its
    /// object. The vacated slot is refilled from the end, so only the
    /// affected directory blocks change (FFS-style slot reuse).
    fn unlink(&self, d: &mut Dir, idx: usize) -> Request {
        let (_, h, _) = d.entries.swap_remove(idx);
        self.invalidate(h);
        Request::Delete { oid: ObjectId(h) }
    }

    fn invalidate(&self, h: Handle) {
        let mut caches = self.caches.lock();
        caches.attr.remove(&h);
        caches.dir.remove(&h);
    }

    // ------------------------------------------------------------------
    // Time-travel extensions (§3.6 "time-enhanced" interfaces).
    // ------------------------------------------------------------------

    /// Lists `dir` as it was at `time`.
    pub fn readdir_at(
        &self,
        dir: Handle,
        time: SimTime,
    ) -> FsResult<Vec<(String, Handle, FileKind)>> {
        let attr = self.getattr_raw(dir, Some(time))?;
        let blob = self.read_object(dir, 0, attr.size, Some(time))?;
        decode_dir(&blob)
    }

    /// Resolves `name` in `dir` as of `time`.
    pub fn lookup_at(&self, dir: Handle, name: &str, time: SimTime) -> FsResult<Handle> {
        self.readdir_at(dir, time)?
            .into_iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, h, _)| h)
            .ok_or(FsError::NotFound)
    }

    /// Reads a file's contents as of `time`.
    pub fn read_at(&self, file: Handle, offset: u64, len: u64, time: SimTime) -> FsResult<Vec<u8>> {
        self.read_object(file, offset, len, Some(time))
    }

    /// Attributes as of `time`.
    pub fn getattr_at(&self, file: Handle, time: SimTime) -> FsResult<FileAttr> {
        self.getattr_raw(file, Some(time))
    }

    /// Resolves a path as of `time`.
    pub fn resolve_path_at(&self, path: &str, time: SimTime) -> FsResult<Handle> {
        let mut h = self.root;
        for part in path.split('/').filter(|p| !p.is_empty()) {
            h = self.lookup_at(h, part, time)?;
        }
        Ok(h)
    }
}

impl<T: Transport> FileServer for S4FileServer<T> {
    fn root(&self) -> Handle {
        self.root
    }

    fn lookup(&self, dir: Handle, name: &str) -> FsResult<Handle> {
        self.with_entries(dir, |entries| {
            entries
                .iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, h, _)| *h)
        })?
        .ok_or(FsError::NotFound)
    }

    fn create(&self, dir: Handle, name: &str) -> FsResult<Handle> {
        self.create_node(dir, name, FileKind::File, 0o644)
    }

    fn mkdir(&self, dir: Handle, name: &str) -> FsResult<Handle> {
        self.create_node(dir, name, FileKind::Dir, 0o755)
    }

    fn symlink(&self, dir: Handle, name: &str, target: &str) -> FsResult<Handle> {
        let h = self.create_node(dir, name, FileKind::Symlink, 0o777)?;
        self.run_mutation(vec![Request::Write {
            oid: ObjectId(h),
            offset: 0,
            data: target.as_bytes().to_vec(),
        }])?;
        self.invalidate(h);
        Ok(h)
    }

    fn readlink(&self, file: Handle) -> FsResult<String> {
        let attr = self.getattr_cached(file)?;
        if attr.kind != FileKind::Symlink {
            return Err(FsError::Invalid("not a symlink"));
        }
        let data = self.read_object(file, 0, attr.size, None)?;
        String::from_utf8(data).map_err(|_| FsError::Storage("symlink target utf8".into()))
    }

    fn read(&self, file: Handle, offset: u64, len: u64) -> FsResult<Vec<u8>> {
        self.read_object(file, offset, len, None)
    }

    fn write(&self, file: Handle, offset: u64, data: &[u8]) -> FsResult<()> {
        self.run_mutation(vec![Request::Write {
            oid: ObjectId(file),
            offset,
            data: data.to_vec(),
        }])?;
        self.invalidate(file);
        Ok(())
    }

    fn getattr(&self, file: Handle) -> FsResult<FileAttr> {
        self.getattr_cached(file)
    }

    fn truncate(&self, file: Handle, size: u64) -> FsResult<()> {
        self.run_mutation(vec![Request::Truncate {
            oid: ObjectId(file),
            len: size,
        }])?;
        self.invalidate(file);
        Ok(())
    }

    fn remove(&self, dir: Handle, name: &str) -> FsResult<()> {
        self.mutate_dirs(&[dir], |d| {
            let d = &mut d[0];
            let idx = d.position(name).ok_or(FsError::NotFound)?;
            if d.entries[idx].2 == FileKind::Dir {
                return Err(FsError::Invalid("is a directory"));
            }
            Ok((vec![self.unlink(d, idx)], ()))
        })
    }

    fn rmdir(&self, dir: Handle, name: &str) -> FsResult<()> {
        self.mutate_dirs(&[dir], |d| {
            let d = &mut d[0];
            let idx = d.position(name).ok_or(FsError::NotFound)?;
            let (_, h, kind) = &d.entries[idx];
            if *kind != FileKind::Dir {
                return Err(FsError::NotADirectory);
            }
            if !self.with_entries(*h, <[Entry]>::is_empty)? {
                return Err(FsError::NotEmpty);
            }
            Ok((vec![self.unlink(d, idx)], ()))
        })
    }

    fn rename(
        &self,
        from_dir: Handle,
        from_name: &str,
        to_dir: Handle,
        to_name: &str,
    ) -> FsResult<()> {
        // NFS rename overwrites an existing target.
        if from_dir == to_dir {
            return self.mutate_dirs(&[from_dir], |d| {
                let d = &mut d[0];
                let mut idx = d.position(from_name).ok_or(FsError::NotFound)?;
                let mut reqs = Vec::new();
                if let Some(t) = d.position(to_name).filter(|&t| t != idx) {
                    reqs.push(self.unlink(d, t));
                    if idx == d.entries.len() {
                        idx = t; // the swap-remove moved the source into `t`
                    }
                }
                d.entries[idx].0 = to_name.to_string();
                Ok((reqs, ()))
            });
        }
        self.mutate_dirs(&[from_dir, to_dir], |d| {
            let [from, to] = d else {
                unreachable!("two directories taken")
            };
            let idx = from.position(from_name).ok_or(FsError::NotFound)?;
            let mut reqs = Vec::new();
            if let Some(t) = to.position(to_name) {
                reqs.push(self.unlink(to, t));
            }
            let (_, h, kind) = from.entries.swap_remove(idx);
            to.entries.push((to_name.to_string(), h, kind));
            Ok((reqs, ()))
        })
    }

    fn readdir(&self, dir: Handle) -> FsResult<Vec<Entry>> {
        self.with_entries(dir, <[Entry]>::to_vec)
    }

    fn now(&self) -> SimTime {
        self.transport.clock().now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_codec_round_trip() {
        let entries = vec![
            ("a.txt".to_string(), 10, FileKind::File),
            ("subdir".to_string(), 11, FileKind::Dir),
            ("link".to_string(), 12, FileKind::Symlink),
        ];
        assert_eq!(decode_dir(&encode_dir(&entries)).unwrap(), entries);
        assert!(decode_dir(&[]).unwrap().is_empty());
        assert!(decode_dir(&[1, 2]).is_err());
    }

    #[test]
    fn fattr_codec() {
        let blob = encode_fattr(FileKind::Dir, 0o755);
        assert_eq!(decode_fattr(&blob), (FileKind::Dir, 0o755));
        // Unknown blobs default sanely.
        assert_eq!(decode_fattr(&[]), (FileKind::File, 0o644));
    }
}
