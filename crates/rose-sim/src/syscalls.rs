//! System-call argument and result types.
//!
//! Applications invoke system calls through [`crate::app::NodeCtx`]; the
//! kernel routes every invocation through the hook chain (injector override
//! at `sys_enter`, tracer at `sys_exit`) before and after executing it
//! against the per-node VFS and network state.

use rose_events::{Errno, Fd, IpAddr, SyscallId};
use serde::{Deserialize, Serialize};

/// Flags for `open`/`openat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpenFlags {
    /// Open an existing file for reading.
    Read,
    /// Create (or truncate) a file for writing.
    Write,
    /// Open (creating if needed) for appending.
    Append,
}

/// File metadata returned by `stat`/`fstat`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileMeta {
    /// File size in bytes.
    pub size: u64,
    /// Unix-style permission bits.
    pub mode: u32,
}

/// The argument record of one system-call invocation, as visible to the
/// hook chain (this is what eBPF probes see at `sys_enter`). Like the
/// registers of a real call it points into the caller's memory: the path
/// and the write buffer are borrowed for the duration of the call, and a
/// hook copies them only when it records something.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyscallArgs<'a> {
    /// Which call.
    pub call: SyscallId,
    /// Path argument, for path-based calls.
    pub path: Option<&'a str>,
    /// Descriptor argument, for fd-based calls.
    pub fd: Option<Fd>,
    /// The path `fd` names in the calling process's descriptor table when
    /// the call is made (`None` when `fd` is absent or not open) — the same
    /// answer at `sys_enter` and `sys_exit`, also for the `close` that ends
    /// it. Filled in by the kernel; what a caller puts here is overwritten.
    /// The descriptor table is the only place that tracks descriptors, so
    /// no hook keeps a map of its own.
    pub fd_path: Option<&'a str>,
    /// Peer address, for network calls.
    pub peer: Option<IpAddr>,
    /// Byte count involved (write length, requested read length).
    pub len: usize,
    /// Data being written (`write` passes the full buffer; the `IO content`
    /// tracing baseline copies up to its first 128 bytes).
    pub data_prefix: Option<&'a [u8]>,
    /// Open mode, for `open`/`openat`.
    pub flags: Option<OpenFlags>,
}

impl<'a> SyscallArgs<'a> {
    /// An argument record with only the call id set.
    pub fn bare(call: SyscallId) -> Self {
        SyscallArgs {
            call,
            path: None,
            fd: None,
            fd_path: None,
            peer: None,
            len: 0,
            data_prefix: None,
            flags: None,
        }
    }

    /// Sets the open mode.
    pub fn with_flags(mut self, flags: OpenFlags) -> Self {
        self.flags = Some(flags);
        self
    }

    /// Sets the path argument.
    pub fn with_path(mut self, path: &'a str) -> Self {
        self.path = Some(path);
        self
    }

    /// Sets the write buffer (and the byte count to its length).
    pub fn with_data(mut self, data: &'a [u8]) -> Self {
        self.data_prefix = Some(data);
        self.len = data.len();
        self
    }

    /// Sets the descriptor argument.
    pub fn with_fd(mut self, fd: Fd) -> Self {
        self.fd = Some(fd);
        self
    }

    /// Sets the peer address argument.
    pub fn with_peer(mut self, peer: IpAddr) -> Self {
        self.peer = Some(peer);
        self
    }

    /// Sets the byte count.
    pub fn with_len(mut self, len: usize) -> Self {
        self.len = len;
        self
    }
}

/// Successful return values of system calls.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SysRet {
    /// A new descriptor (`open`, `dup`, `accept`).
    Fd(Fd),
    /// Data read.
    Bytes(Vec<u8>),
    /// Byte count written.
    Len(usize),
    /// File metadata (`stat`, `fstat`).
    Meta(FileMeta),
    /// Path read back (`readlink`).
    Path(String),
    /// Nothing (`close`, `fsync`, `rename`, `unlink`, `connect`, `send`).
    Unit,
}

/// The result of a system call: a value or an `errno`.
pub type SysResult = Result<SysRet, Errno>;

/// Convenience accessors used by applications.
pub trait SysResultExt {
    /// Extracts the descriptor from an `open`-style result.
    fn fd(self) -> Result<Fd, Errno>;
    /// Extracts the data from a `read`-style result.
    fn bytes(self) -> Result<Vec<u8>, Errno>;
    /// Extracts metadata from a `stat`-style result.
    fn meta(self) -> Result<FileMeta, Errno>;
}

impl SysResultExt for SysResult {
    fn fd(self) -> Result<Fd, Errno> {
        match self? {
            SysRet::Fd(fd) => Ok(fd),
            other => unreachable!("syscall returned {other:?}, expected fd"),
        }
    }

    fn bytes(self) -> Result<Vec<u8>, Errno> {
        match self? {
            SysRet::Bytes(b) => Ok(b),
            other => unreachable!("syscall returned {other:?}, expected bytes"),
        }
    }

    fn meta(self) -> Result<FileMeta, Errno> {
        match self? {
            SysRet::Meta(m) => Ok(m),
            other => unreachable!("syscall returned {other:?}, expected metadata"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let a = SyscallArgs::bare(SyscallId::Write)
            .with_fd(Fd(4))
            .with_len(100);
        assert_eq!(a.call, SyscallId::Write);
        assert_eq!(a.fd, Some(Fd(4)));
        assert_eq!(a.len, 100);
        assert!(a.path.is_none());
    }

    #[test]
    fn result_ext_unwraps_variants() {
        let r: SysResult = Ok(SysRet::Fd(Fd(7)));
        assert_eq!(r.fd().unwrap(), Fd(7));
        let r: SysResult = Err(Errno::Eio);
        assert_eq!(r.bytes().unwrap_err(), Errno::Eio);
    }
}
