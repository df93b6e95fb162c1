//! Per-node virtual filesystem.
//!
//! Each node owns a flat path → file map that survives process crashes and
//! restarts (it models the node's disk). Descriptor tables are per process
//! and are discarded on crash, so a crash mid-sequence leaves exactly the
//! bytes written so far — the mechanism behind corrupted-snapshot bugs such
//! as `RedisRaft-NEW`.

use std::collections::BTreeMap;

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

/// An open-file description in a process descriptor table.
#[derive(Debug, Clone)]
struct OpenFile {
    path: String,
    offset: usize,
    flags: OpenFlags,
}

/// One node's filesystem plus the descriptor tables of its processes.
#[derive(Debug, Default)]
pub struct Vfs {
    files: BTreeMap<String, FileNode>,
    /// Per-process descriptor tables.
    fd_tables: BTreeMap<Pid, BTreeMap<Fd, OpenFile>>,
    next_fd: u32,
}

impl Vfs {
    /// An empty filesystem.
    pub fn new() -> Self {
        Vfs {
            files: BTreeMap::new(),
            fd_tables: BTreeMap::new(),
            next_fd: 3,
        }
    }

    /// Pre-populates a file (test/setup helper; models deployment state).
    pub fn install(&mut self, path: impl Into<String>, data: Vec<u8>, mode: u32) {
        self.files.insert(path.into(), FileNode { data, mode });
    }

    /// Direct read of a file's bytes, bypassing the syscall layer (used by
    /// oracles and tests, never by applications).
    pub fn peek(&self, path: &str) -> Option<&[u8]> {
        self.files.get(path).map(|f| f.data.as_slice())
    }

    /// Lists all paths currently on disk.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }

    /// Drops the descriptor table of a crashed process. Disk contents stay.
    pub fn drop_process(&mut self, pid: Pid) {
        self.fd_tables.remove(&pid);
    }

    fn table(&mut self, pid: Pid) -> &mut BTreeMap<Fd, OpenFile> {
        self.fd_tables.entry(pid).or_default()
    }

    /// An open descriptor of `pid`, by reference: `read`/`write`/`fsync`
    /// run once per I/O call and must not copy the description's path.
    fn open_file(
        fd_tables: &mut BTreeMap<Pid, BTreeMap<Fd, OpenFile>>,
        pid: Pid,
        fd: Fd,
    ) -> Result<&mut OpenFile, Errno> {
        fd_tables
            .get_mut(&pid)
            .and_then(|t| t.get_mut(&fd))
            .ok_or(Errno::Ebadf)
    }

    /// Resolves the path behind a descriptor, if open.
    pub fn fd_path(&self, pid: Pid, fd: Fd) -> Option<&str> {
        self.fd_tables
            .get(&pid)
            .and_then(|t| t.get(&fd))
            .map(|o| o.path.as_str())
    }

    /// `open`/`openat`.
    pub fn open(&mut self, pid: Pid, path: &str, flags: OpenFlags) -> SysResult {
        // The path is copied for the descriptor, and once more only when the
        // call creates the file.
        let offset = match (flags, self.files.get_mut(path)) {
            (OpenFlags::Read, None) => return Err(Errno::Enoent),
            (OpenFlags::Read, Some(node)) if node.mode & 0o400 == 0 => return Err(Errno::Eacces),
            (OpenFlags::Read, Some(_)) => 0,
            (OpenFlags::Write, Some(node)) => {
                node.data.clear();
                0
            }
            (OpenFlags::Append, Some(node)) => node.data.len(),
            (OpenFlags::Write | OpenFlags::Append, None) => {
                let node = FileNode {
                    data: Vec::new(),
                    mode: DEFAULT_MODE,
                };
                self.files.insert(path.to_string(), node);
                0
            }
        };
        let fd = Fd(self.next_fd);
        self.next_fd += 1;
        self.table(pid).insert(
            fd,
            OpenFile {
                path: path.to_string(),
                offset,
                flags,
            },
        );
        Ok(SysRet::Fd(fd))
    }

    /// `close`.
    pub fn close(&mut self, pid: Pid, fd: Fd) -> SysResult {
        self.table(pid)
            .remove(&fd)
            .map(|_| SysRet::Unit)
            .ok_or(Errno::Ebadf)
    }

    /// `read` of up to `len` bytes from the descriptor's current offset.
    pub fn read(&mut self, pid: Pid, fd: Fd, len: usize) -> SysResult {
        let of = Self::open_file(&mut self.fd_tables, pid, fd)?;
        let node = self.files.get(&of.path).ok_or(Errno::Eio)?;
        let end = (of.offset + len).min(node.data.len());
        let out = node.data[of.offset.min(node.data.len())..end].to_vec();
        of.offset = end;
        Ok(SysRet::Bytes(out))
    }

    /// `write` of `data` at the descriptor's current offset.
    pub fn write(&mut self, pid: Pid, fd: Fd, data: &[u8]) -> SysResult {
        let of = Self::open_file(&mut self.fd_tables, pid, fd)?;
        if matches!(of.flags, OpenFlags::Read) {
            return Err(Errno::Ebadf);
        }
        let node = self.files.get_mut(&of.path).ok_or(Errno::Eio)?;
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
        let of = Self::open_file(&mut self.fd_tables, pid, fd)?;
        if self.files.contains_key(&of.path) {
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
        let of = self
            .fd_tables
            .get(&pid)
            .and_then(|t| t.get(&fd))
            .ok_or(Errno::Ebadf)?;
        self.stat(&of.path)
    }

    /// `rename`. Open descriptors keep operating on the old inode contents
    /// via their recorded path; like Linux, renaming underneath an open fd
    /// is permitted (descriptors here track paths, a simplification).
    pub fn rename(&mut self, from: &str, to: &str) -> SysResult {
        let node = self.files.remove(from).ok_or(Errno::Enoent)?;
        self.files.insert(to.to_string(), node);
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
        let of = self.table(pid).get(&fd).ok_or(Errno::Ebadf)?.clone();
        let new = Fd(self.next_fd);
        self.next_fd += 1;
        self.table(pid).insert(new, of);
        Ok(SysRet::Fd(new))
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

    /// Changes permission bits (setup helper for permission bugs).
    pub fn chmod(&mut self, path: &str, mode: u32) -> Result<(), Errno> {
        self.files
            .get_mut(path)
            .map(|f| f.mode = mode)
            .ok_or(Errno::Enoent)
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
