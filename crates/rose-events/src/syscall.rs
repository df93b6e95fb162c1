//! The simulated system-call surface and error codes.
//!
//! The paper observes applications exclusively through the system-call
//! boundary. This module enumerates the calls the simulated kernel exposes
//! (a realistic subset of the Linux file/network API that the eight target
//! systems exercise) and the `errno` values faults are reported with.

use core::fmt;

use serde::{Deserialize, Serialize};

/// A system call identifier.
///
/// These mirror the Linux calls named in the paper's evaluation
/// (`open`/`openat`, `read`, `write`, `close`, `stat`/`fstat`, `connect`,
/// `accept`, …). Calls are grouped by how the tracer contextualizes them:
/// path-based calls record the filename, fd-based calls record the
/// descriptor, and socket calls record peer addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum SyscallId {
    Open,
    Openat,
    Close,
    Read,
    Write,
    Fsync,
    Stat,
    Fstat,
    Rename,
    Unlink,
    Dup,
    Readlink,
    Connect,
    Accept,
    Send,
    Recv,
}

// `SyscallId::bit` leaves a `u32` mask at least one free bit.
const _: () = assert!(SyscallId::ALL.len() < u32::BITS as usize);

impl SyscallId {
    /// All system calls, in a stable order.
    pub const ALL: [SyscallId; 16] = [
        SyscallId::Open,
        SyscallId::Openat,
        SyscallId::Close,
        SyscallId::Read,
        SyscallId::Write,
        SyscallId::Fsync,
        SyscallId::Stat,
        SyscallId::Fstat,
        SyscallId::Rename,
        SyscallId::Unlink,
        SyscallId::Dup,
        SyscallId::Readlink,
        SyscallId::Connect,
        SyscallId::Accept,
        SyscallId::Send,
        SyscallId::Recv,
    ];

    /// This call's bit in a set of syscalls kept as a `u32` mask (the hooks'
    /// per-node and per-context tables); bits from `ALL.len()` up are free.
    pub const fn bit(self) -> u32 {
        1 << self as u32
    }

    /// Calls that take a path name directly rather than a file descriptor.
    ///
    /// For these the tracer records the user-space path argument at
    /// `sys_enter` and copies it only if the call fails (§5.2).
    pub const fn is_path_based(self) -> bool {
        matches!(
            self,
            SyscallId::Open
                | SyscallId::Openat
                | SyscallId::Stat
                | SyscallId::Rename
                | SyscallId::Unlink
                | SyscallId::Readlink
        )
    }

    /// The symbolic Linux name.
    pub const fn name(self) -> &'static str {
        match self {
            SyscallId::Open => "open",
            SyscallId::Openat => "openat",
            SyscallId::Close => "close",
            SyscallId::Read => "read",
            SyscallId::Write => "write",
            SyscallId::Fsync => "fsync",
            SyscallId::Stat => "stat",
            SyscallId::Fstat => "fstat",
            SyscallId::Rename => "rename",
            SyscallId::Unlink => "unlink",
            SyscallId::Dup => "dup",
            SyscallId::Readlink => "readlink",
            SyscallId::Connect => "connect",
            SyscallId::Accept => "accept",
            SyscallId::Send => "send",
            SyscallId::Recv => "recv",
        }
    }
}

impl fmt::Display for SyscallId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An `errno` value returned by a failed system call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Errno {
    /// Operation not permitted.
    Eperm,
    /// No such file or directory.
    Enoent,
    /// I/O error.
    Eio,
    /// Bad file descriptor.
    Ebadf,
    /// Permission denied.
    Eacces,
    /// Device or resource busy.
    Ebusy,
    /// File exists.
    Eexist,
    /// Invalid argument.
    Einval,
    /// No space left on device.
    Enospc,
    /// Broken pipe.
    Epipe,
    /// Resource temporarily unavailable.
    Eagain,
    /// Connection reset by peer.
    Econnreset,
    /// Connection refused.
    Econnrefused,
    /// Connection timed out.
    Etimedout,
    /// Host is unreachable.
    Ehostunreach,
    /// Interrupted system call.
    Eintr,
}

impl Errno {
    /// All error codes, in a stable order (the binary codec indexes into
    /// this table, so the order is part of the `.rosetrace` format).
    pub const ALL: [Errno; 16] = [
        Errno::Eperm,
        Errno::Enoent,
        Errno::Eio,
        Errno::Ebadf,
        Errno::Eacces,
        Errno::Ebusy,
        Errno::Eexist,
        Errno::Einval,
        Errno::Enospc,
        Errno::Epipe,
        Errno::Eagain,
        Errno::Econnreset,
        Errno::Econnrefused,
        Errno::Etimedout,
        Errno::Ehostunreach,
        Errno::Eintr,
    ];

    /// The numeric Linux value (x86-64).
    pub const fn code(self) -> i32 {
        match self {
            Errno::Eperm => 1,
            Errno::Enoent => 2,
            Errno::Eio => 5,
            Errno::Ebadf => 9,
            Errno::Eacces => 13,
            Errno::Ebusy => 16,
            Errno::Eexist => 17,
            Errno::Einval => 22,
            Errno::Enospc => 28,
            Errno::Epipe => 32,
            Errno::Eagain => 11,
            Errno::Econnreset => 104,
            Errno::Econnrefused => 111,
            Errno::Etimedout => 110,
            Errno::Ehostunreach => 113,
            Errno::Eintr => 4,
        }
    }

    /// The symbolic name.
    pub const fn name(self) -> &'static str {
        match self {
            Errno::Eperm => "EPERM",
            Errno::Enoent => "ENOENT",
            Errno::Eio => "EIO",
            Errno::Ebadf => "EBADF",
            Errno::Eacces => "EACCES",
            Errno::Ebusy => "EBUSY",
            Errno::Eexist => "EEXIST",
            Errno::Einval => "EINVAL",
            Errno::Enospc => "ENOSPC",
            Errno::Epipe => "EPIPE",
            Errno::Eagain => "EAGAIN",
            Errno::Econnreset => "ECONNRESET",
            Errno::Econnrefused => "ECONNREFUSED",
            Errno::Etimedout => "ETIMEDOUT",
            Errno::Ehostunreach => "EHOSTUNREACH",
            Errno::Eintr => "EINTR",
        }
    }
}

impl fmt::Display for Errno {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errno_codes_match_linux() {
        assert_eq!(Errno::Enoent.code(), 2);
        assert_eq!(Errno::Eio.code(), 5);
        assert_eq!(Errno::Econnrefused.code(), 111);
        assert_eq!(Errno::Eacces.code(), 13);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SyscallId::Openat.name(), "openat");
        assert_eq!(Errno::Etimedout.to_string(), "ETIMEDOUT");
    }

    #[test]
    fn errno_all_is_complete_and_duplicate_free() {
        let mut codes: Vec<i32> = Errno::ALL.iter().map(|e| e.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), Errno::ALL.len());
    }
}
