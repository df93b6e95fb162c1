//! Per-node virtual filesystem.
//!
//! Each node owns a flat path → file map that survives process crashes and
//! restarts (it models the node's disk). Descriptors belong to a process
//! and are discarded on crash, so a crash mid-sequence leaves exactly the
//! bytes written so far — the mechanism behind corrupted-snapshot bugs such
//! as `RedisRaft-NEW`.
//!
//! The node's descriptor table is also the one place that knows which path
//! a descriptor names: the kernel reads it before every fd-based call and
//! shows it to the hook chain as [`crate::SyscallArgs::fd_path`].

use std::collections::BTreeMap;
use std::ops::Bound;
use std::rc::Rc;

use rose_events::{Errno, Fd, Pid};

use crate::syscalls::{FileMeta, OpenFlags, SysResult, SysRet};

/// Default permission bits for newly created files.
pub const DEFAULT_MODE: u32 = 0o644;

/// A file on the simulated disk.
#[derive(Debug, Clone, Default)]
pub struct FileNode {
    /// File contents.
    pub data: Vec<u8>,
    /// Permission bits.
    pub mode: u32,
}

/// An open-file description of one process.
#[derive(Debug, Clone)]
struct OpenFile {
    pid: Pid,
    fd: Fd,
    /// The path the descriptor was opened on, shared with the key of
    /// `files` while that file exists. Descriptors track paths, not inodes:
    /// after a rename or unlink this still names the old path, and every
    /// use looks it up by content.
    path: Rc<str>,
    offset: usize,
    flags: OpenFlags,
}

/// One node's filesystem plus the descriptors of its processes.
#[derive(Debug, Default)]
pub struct Vfs {
    /// The disk. Each path is stored once; descriptors share the key.
    files: BTreeMap<Rc<str>, FileNode>,
    /// Every open descriptor of every process of the node. A handful are
    /// open at a time and each call names one `(pid, fd)`, so a scan of a
    /// flat table beats a tree of trees.
    open: Vec<OpenFile>,
    next_fd: u32,
}

impl Vfs {
    /// An empty filesystem.
    pub fn new() -> Self {
        Vfs {
            files: BTreeMap::new(),
            open: Vec::new(),
            next_fd: 3,
        }
    }

    /// Pre-populates a file (test/setup helper; models deployment state).
    pub fn install(&mut self, path: impl Into<String>, data: Vec<u8>, mode: u32) {
        self.files
            .insert(Rc::from(path.into()), FileNode { data, mode });
    }

    /// Direct read of a file's bytes, bypassing the syscall layer (used by
    /// oracles and tests, never by applications).
    pub fn peek(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(|f| f.data.as_slice())
    }

    /// Lists all paths currently on disk.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(|p| &**p)
    }

    /// Drops the descriptors of a crashed process. Disk contents stay.
    pub fn drop_process(&mut self, pid: Pid) {
        self.open.retain(|o| o.pid != pid);
    }

    /// The owner of every open descriptor.
    pub(crate) fn descriptor_owners(&self) -> impl Iterator<Item = Pid> + '_ {
        self.open.iter().map(|o| o.pid)
    }

    /// Where `pid`'s descriptor `fd` sits in the table. The newest
    /// descriptors are the busiest, so the scan starts from the back.
    fn slot(&self, pid: Pid, fd: Fd) -> Result<usize, Errno> {
        self.open
            .iter()
            .rposition(|o| o.fd == fd && o.pid == pid)
            .ok_or(Errno::Ebadf)
    }

    fn allocate(&mut self, pid: Pid, path: Rc<str>, offset: usize, flags: OpenFlags) -> SysResult {
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        self.open.push(OpenFile {
            pid,
            fd,
            path,
            offset,
            flags,
        });
        Ok(SysRet::Fd(fd))
    }

    /// Resolves the path behind a descriptor, if open.
    pub fn fd_path(&self, pid: Pid, fd: Fd) -> Option<&str> {
        self.fd_path_shared(pid, fd).map(|path| &**path)
    }

    /// [`Vfs::fd_path`] as the descriptor's own handle, which a caller can
    /// clone (no copy) to keep the path across later calls into the
    /// filesystem.
    pub(crate) fn fd_path_shared(&self, pid: Pid, fd: Fd) -> Option<&Rc<str>> {
        self.slot(pid, fd).ok().map(|i| &self.open[i].path)
    }

    /// `open`/`openat`.
    pub fn open(&mut self, pid: Pid, path: &str, flags: OpenFlags) -> SysResult {
        // One probe of the disk, with write access for the truncating
        // open: the first key at or after `path` is `path` or the file does
        // not exist. The path is copied only when the call creates the
        // file; a descriptor on an existing file shares the disk's key.
        let existing = self
            .files
            .range_mut::<str, _>((Bound::Included(path), Bound::Unbounded))
            .next()
            .filter(|(key, _)| &***key == path);
        let (path, offset) = match (flags, existing) {
            (OpenFlags::Read, None) => return Err(Errno::Enoent),
            (OpenFlags::Read, Some((_, node))) if node.mode & 0o400 == 0 => {
                return Err(Errno::Eacces)
            }
            (OpenFlags::Read, Some((key, _))) => (key.clone(), 0),
            (OpenFlags::Write, Some((key, node))) => {
                node.data.clear();
                (key.clone(), 0)
            }
            (OpenFlags::Append, Some((key, node))) => (key.clone(), node.data.len()),
            (OpenFlags::Write | OpenFlags::Append, None) => {
                let path: Rc<str> = Rc::from(path);
                let node = FileNode {
                    data: Vec::new(),
                    mode: DEFAULT_MODE,
                };
                self.files.insert(path.clone(), node);
                (path, 0)
            }
        };
        self.allocate(pid, path, offset, flags)
    }

    /// `close`.
    pub fn close(&mut self, pid: Pid, fd: Fd) -> SysResult {
        let slot = self.slot(pid, fd)?;
        self.open.swap_remove(slot);
        Ok(SysRet::Unit)
    }

    /// `read` of up to `len` bytes from the descriptor's current offset.
    pub fn read(&mut self, pid: Pid, fd: Fd, len: usize) -> SysResult {
        let slot = self.slot(pid, fd)?;
        let of = &mut self.open[slot];
        let node = self.files.get(&*of.path).ok_or(Errno::Eio)?;
        let end = (of.offset + len).min(node.data.len());
        let out = node.data[of.offset.min(node.data.len())..end].to_vec();
        of.offset = end;
        Ok(SysRet::Bytes(out))
    }

    /// `write` of `data` at the descriptor's current offset.
    pub fn write(&mut self, pid: Pid, fd: Fd, data: &[u8]) -> SysResult {
        let slot = self.slot(pid, fd)?;
        let of = &mut self.open[slot];
        if matches!(of.flags, OpenFlags::Read) {
            return Err(Errno::Ebadf);
        }
        let node = self.files.get_mut(&*of.path).ok_or(Errno::Eio)?;
        let end = of.offset + data.len();
        if node.data.len() < end {
            node.data.resize(end, 0);
        }
        node.data[of.offset..end].copy_from_slice(data);
        of.offset = end;
        Ok(SysRet::Len(data.len()))
    }

    /// `fsync` (a no-op on success: the simulated disk is write-through).
    pub fn fsync(&mut self, pid: Pid, fd: Fd) -> SysResult {
        let of = &self.open[self.slot(pid, fd)?];
        if self.files.contains_key(&*of.path) {
            Ok(SysRet::Unit)
        } else {
            Err(Errno::Eio)
        }
    }

    /// `stat` by path.
    pub fn stat(&self, path: &str) -> SysResult {
        let node = self.files.get(path).ok_or(Errno::Enoent)?;
        Ok(SysRet::Meta(FileMeta {
            size: node.data.len() as u64,
            mode: node.mode,
        }))
    }

    /// `fstat` by descriptor.
    pub fn fstat(&self, pid: Pid, fd: Fd) -> SysResult {
        self.stat(&self.open[self.slot(pid, fd)?].path)
    }

    /// `rename`. Open descriptors keep operating on the old inode contents
    /// via their recorded path; like Linux, renaming underneath an open fd
    /// is permitted (descriptors here track paths, a simplification).
    pub fn rename(&mut self, from: &str, to: &str) -> SysResult {
        let node = self.files.remove(from).ok_or(Errno::Enoent)?;
        self.files.insert(Rc::from(to), node);
        Ok(SysRet::Unit)
    }

    /// `unlink`.
    pub fn unlink(&mut self, path: &str) -> SysResult {
        self.files
            .remove(path)
            .map(|_| SysRet::Unit)
            .ok_or(Errno::Enoent)
    }

    /// `dup`.
    pub fn dup(&mut self, pid: Pid, fd: Fd) -> SysResult {
        let of = &self.open[self.slot(pid, fd)?];
        let (path, offset, flags) = (of.path.clone(), of.offset, of.flags);
        self.allocate(pid, path, offset, flags)
    }

    /// `readlink` (the simulated fs has no symlinks; always `ENOENT` unless a
    /// file exists, in which case `EINVAL` — matching Linux semantics of
    /// readlink on a regular file). The benign `readlink` failures common in
    /// JVM deployments (paper §6.2) come from here.
    pub fn readlink(&self, path: &str) -> SysResult {
        if self.files.contains_key(path) {
            Err(Errno::Einval)
        } else {
            Err(Errno::Enoent)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: Pid = Pid(1);

    fn open_fd(v: &mut Vfs, path: &str, flags: OpenFlags) -> Fd {
        match v.open(P, path, flags).unwrap() {
            SysRet::Fd(fd) => fd,
            _ => unreachable!(),
        }
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut v = Vfs::new();
        let fd = open_fd(&mut v, "/a", OpenFlags::Write);
        v.write(P, fd, b"hello").unwrap();
        v.close(P, fd).unwrap();
        let fd = open_fd(&mut v, "/a", OpenFlags::Read);
        assert_eq!(v.read(P, fd, 10).unwrap(), SysRet::Bytes(b"hello".to_vec()));
        // Subsequent read is at EOF.
        assert_eq!(v.read(P, fd, 10).unwrap(), SysRet::Bytes(vec![]));
    }

    #[test]
    fn open_missing_for_read_is_enoent() {
        let mut v = Vfs::new();
        assert_eq!(
            v.open(P, "/missing", OpenFlags::Read).unwrap_err(),
            Errno::Enoent
        );
    }

    #[test]
    fn open_unreadable_is_eacces() {
        let mut v = Vfs::new();
        v.install("/secret", b"k".to_vec(), 0o000);
        assert_eq!(
            v.open(P, "/secret", OpenFlags::Read).unwrap_err(),
            Errno::Eacces
        );
    }

    #[test]
    fn append_continues_at_end() {
        let mut v = Vfs::new();
        v.install("/log", b"ab".to_vec(), DEFAULT_MODE);
        let fd = open_fd(&mut v, "/log", OpenFlags::Append);
        v.write(P, fd, b"cd").unwrap();
        assert_eq!(v.peek("/log").unwrap(), b"abcd");
    }

    #[test]
    fn write_mode_truncates() {
        let mut v = Vfs::new();
        v.install("/f", b"old-contents".to_vec(), DEFAULT_MODE);
        let fd = open_fd(&mut v, "/f", OpenFlags::Write);
        v.write(P, fd, b"new").unwrap();
        assert_eq!(v.peek("/f").unwrap(), b"new");
    }

    #[test]
    fn crash_drops_fds_but_keeps_partial_writes() {
        let mut v = Vfs::new();
        let fd = open_fd(&mut v, "/snap", OpenFlags::Write);
        v.write(P, fd, b"partial").unwrap();
        // Crash: fd table gone, bytes stay.
        v.drop_process(P);
        assert_eq!(v.close(P, fd).unwrap_err(), Errno::Ebadf);
        assert_eq!(v.peek("/snap").unwrap(), b"partial");
    }

    #[test]
    fn rename_and_unlink() {
        let mut v = Vfs::new();
        v.install("/tmp.0", b"x".to_vec(), DEFAULT_MODE);
        v.rename("/tmp.0", "/final").unwrap();
        assert!(v.peek("/tmp.0").is_none());
        assert_eq!(v.peek("/final").unwrap(), b"x");
        v.unlink("/final").unwrap();
        assert_eq!(v.unlink("/final").unwrap_err(), Errno::Enoent);
    }

    #[test]
    fn stat_and_fstat_agree() {
        let mut v = Vfs::new();
        v.install("/d", vec![0u8; 42], DEFAULT_MODE);
        let fd = open_fd(&mut v, "/d", OpenFlags::Read);
        let by_path = v.stat("/d").unwrap();
        let by_fd = v.fstat(P, fd).unwrap();
        assert_eq!(by_path, by_fd);
        match by_path {
            SysRet::Meta(m) => assert_eq!(m.size, 42),
            _ => unreachable!(),
        }
    }

    #[test]
    fn dup_shares_path_but_not_offset_updates() {
        let mut v = Vfs::new();
        v.install("/d", b"abcdef".to_vec(), DEFAULT_MODE);
        let fd = open_fd(&mut v, "/d", OpenFlags::Read);
        v.read(P, fd, 2).unwrap();
        let fd2 = match v.dup(P, fd).unwrap() {
            SysRet::Fd(f) => f,
            _ => unreachable!(),
        };
        // The dup'd descriptor starts at the snapshot of the offset.
        assert_eq!(v.read(P, fd2, 2).unwrap(), SysRet::Bytes(b"cd".to_vec()));
    }

    #[test]
    fn fd_path_resolves() {
        let mut v = Vfs::new();
        let fd = open_fd(&mut v, "/x/y", OpenFlags::Write);
        assert_eq!(v.fd_path(P, fd), Some("/x/y"));
        assert_eq!(v.fd_path(P, Fd(999)), None);
    }

    #[test]
    fn readlink_matches_linux_semantics() {
        let mut v = Vfs::new();
        assert_eq!(v.readlink("/none").unwrap_err(), Errno::Enoent);
        v.install("/plain", vec![], DEFAULT_MODE);
        assert_eq!(v.readlink("/plain").unwrap_err(), Errno::Einval);
    }
}
