//! Application and client interfaces.
//!
//! A target system is written as an [`Application`]: a per-node state
//! machine driven by start/message/timer callbacks, interacting with its
//! environment **only** through the [`NodeCtx`] — which routes every file
//! and network operation through the simulated kernel's syscall layer, the
//! very boundary Rose instruments. Workload generators implement
//! [`ClientDriver`] and live outside the traced cluster, like Jepsen
//! clients.

use std::any::Any;
use std::fmt;
use std::ops::{Deref, DerefMut};

use rand::rngs::SmallRng;
use rose_events::{Errno, Fd, NodeId, Pid, SimDuration, SimTime, SyscallId};

use crate::kernel::{AppPanic, Endpoint, Item, SimCore};
use crate::state::{ClientId, OpOutcome};
use crate::syscalls::{FileMeta, OpenFlags, SysResultExt, SyscallArgs};

/// A distributed application under test: one instance per node.
///
/// Instances are created by the cluster's node factory at boot and after
/// every restart; all durable state must live in the node's filesystem and
/// be re-read in [`Application::on_start`] — exactly the recovery code paths
/// where external-fault-induced bugs hide.
pub trait Application: 'static {
    /// The message type exchanged between nodes and with clients.
    type Msg: Clone + fmt::Debug + 'static;

    /// Process start (first boot and every restart).
    fn on_start(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>);

    /// A message from a peer node arrived.
    fn on_message(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// A request from a workload client arrived.
    fn on_client_request(
        &mut self,
        ctx: &mut NodeCtx<'_, Self::Msg>,
        client: ClientId,
        req: Self::Msg,
    ) {
        let _ = (ctx, client, req);
    }

    /// A timer set through [`NodeCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut NodeCtx<'_, Self::Msg>, tag: u64);

    /// The implicit `recv` for an incoming message failed (injected SCF on
    /// `recv`). The message is lost; the application sees the error exactly
    /// as a failed socket read. `from` is `None` for client connections.
    fn on_recv_error(
        &mut self,
        ctx: &mut NodeCtx<'_, Self::Msg>,
        from: Option<NodeId>,
        errno: Errno,
    ) {
        let _ = (ctx, from, errno);
    }
}

/// A workload client: drives the cluster from outside the traced boundary.
pub trait ClientDriver<M>: Any {
    /// Called once when the simulation starts.
    fn on_start(&mut self, ctx: &mut ClientCtx<'_, M>);

    /// A client timer fired.
    fn on_timer(&mut self, ctx: &mut ClientCtx<'_, M>, tag: u64);

    /// A node replied.
    fn on_reply(&mut self, ctx: &mut ClientCtx<'_, M>, from: NodeId, msg: M);
}

/// The kernel-boundary handle applications run against.
///
/// Every method that touches the environment is a system call: it runs the
/// full hook chain (injection override, tracing) before and after executing.
/// An injected kill signal unwinds out of the current callback at that exact
/// point — partial work (e.g. half-written files) persists.
///
/// The calling context hooks see — the execution-index key — is the chain
/// of [`FnScope`]s live on the pid: [`NodeCtx::function`] enters one, and
/// it ends where its block does.
pub struct NodeCtx<'a, M> {
    pub(crate) core: &'a mut SimCore<M>,
    pub(crate) node: NodeId,
    pub(crate) pid: Pid,
}

impl<'a, M: Clone + fmt::Debug + 'static> NodeCtx<'a, M> {
    /// Builds a context for direct kernel interaction outside the event
    /// loop. Intended for tests and harnesses; injected crash signals raised
    /// through a scratch context are deferred rather than unwound.
    pub fn scratch(core: &'a mut SimCore<M>, node: NodeId, pid: Pid) -> Self {
        NodeCtx { core, node, pid }
    }

    /// This node's id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The pid the current work is attributed to (a child pid inside
    /// [`NodeCtx::as_child`]).
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Number of nodes in the cluster.
    pub fn cluster_size(&self) -> u32 {
        self.core.node_count()
    }

    /// All peer node ids (excluding this node).
    pub fn peers(&self) -> Vec<NodeId> {
        let me = self.node;
        self.core.node_ids().filter(|n| *n != me).collect()
    }

    /// How many times this node's process has restarted (0 = first boot).
    pub fn generation(&self) -> u32 {
        self.core.generations[self.node.0 as usize]
    }

    /// The run RNG, for application-level timing jitter.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.core.rng
    }

    /// Writes a log line (bug oracles grep these).
    pub fn log(&mut self, line: impl Into<String>) {
        self.core.log(self.node, line.into());
    }

    /// Aborts the process with a fatal application error — a failed
    /// assertion or uncaught exception. The message is logged and the node
    /// crashes (and is restarted by the supervisor, where configured).
    pub fn panic(&mut self, message: impl Into<String>) -> ! {
        let message = message.into();
        self.core.log(self.node, format!("PANIC: {message}"));
        std::panic::panic_any(AppPanic { message })
    }

    // --- Timers and messaging -------------------------------------------

    /// Arms a timer that fires `delay` from now with the given tag.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        let ep = Endpoint::Node(self.node);
        self.core.schedule_in(delay, Item::Timer { ep, tag });
    }

    /// Sends a message to a peer node (a `send` system call followed by a
    /// network transit; TC filters may drop it silently downstream).
    pub fn send(&mut self, to: NodeId, msg: M) -> Result<(), Errno> {
        let args = SyscallArgs::bare(SyscallId::Send)
            .with_peer(to.ip())
            .with_len(64);
        self.core.syscall(self.node, self.pid, args)?;
        let latency = self.core.sample_latency() + self.core.drain_busy(self.node);
        let item = Item::Deliver {
            to: Endpoint::Node(to),
            from: Endpoint::Node(self.node),
            msg,
            // Captured at send time: the frontier may advance before the
            // message is delivered.
            cause: self.core.causal.send_cause(self.node),
        };
        self.core.schedule_in(latency, item);
        Ok(())
    }

    /// Sends a message to every peer.
    pub fn broadcast(&mut self, msg: M) {
        for p in self.core.node_ids() {
            if p != self.node {
                // Send errors to individual peers are ignored, like UDP
                // fan-out.
                let _ = self.send(p, msg.clone());
            }
        }
    }

    /// Replies to a workload client.
    pub fn reply(&mut self, client: ClientId, msg: M) -> Result<(), Errno> {
        let args = SyscallArgs::bare(SyscallId::Send)
            .with_peer(Endpoint::Client(client).ip())
            .with_len(64);
        self.core.syscall(self.node, self.pid, args)?;
        let latency = self.core.sample_latency() + self.core.drain_busy(self.node);
        let item = Item::Deliver {
            to: Endpoint::Client(client),
            from: Endpoint::Node(self.node),
            msg,
            // Clients live outside the traced boundary: replies carry no
            // provenance.
            cause: None,
        };
        self.core.schedule_in(latency, item);
        Ok(())
    }

    /// Establishes a connection to a peer (`connect`): fails with
    /// `ETIMEDOUT` under a partition and `ECONNREFUSED` if the peer is down.
    pub fn connect(&mut self, to: NodeId) -> Result<(), Errno> {
        let args = SyscallArgs::bare(SyscallId::Connect).with_peer(to.ip());
        self.core.syscall(self.node, self.pid, args).map(|_| ())
    }

    /// Accepts a pending connection (`accept`). In the simulation this is a
    /// pure injection point: the body always succeeds.
    pub fn accept(&mut self) -> Result<(), Errno> {
        let args = SyscallArgs::bare(SyscallId::Accept);
        self.core.syscall(self.node, self.pid, args).map(|_| ())
    }

    // --- Filesystem ------------------------------------------------------

    /// `open(path)` for reading.
    pub fn open_read(&mut self, path: &str) -> Result<Fd, Errno> {
        self.open(path, OpenFlags::Read)
    }

    /// `open(path)` with explicit flags.
    pub fn open(&mut self, path: &str, flags: OpenFlags) -> Result<Fd, Errno> {
        let args = SyscallArgs::bare(SyscallId::Openat)
            .with_path(path)
            .with_flags(flags);
        self.core.syscall(self.node, self.pid, args).fd()
    }

    /// `read(fd, len)`.
    pub fn read(&mut self, fd: Fd, len: usize) -> Result<Vec<u8>, Errno> {
        let args = SyscallArgs::bare(SyscallId::Read).with_fd(fd).with_len(len);
        self.core.syscall(self.node, self.pid, args).bytes()
    }

    /// `write(fd, data)`.
    pub fn write(&mut self, fd: Fd, data: &[u8]) -> Result<usize, Errno> {
        let args = SyscallArgs::bare(SyscallId::Write)
            .with_fd(fd)
            .with_data(data);
        match self.core.syscall(self.node, self.pid, args)? {
            crate::syscalls::SysRet::Len(n) => Ok(n),
            _ => Ok(data.len()),
        }
    }

    /// `fsync(fd)`.
    pub fn fsync(&mut self, fd: Fd) -> Result<(), Errno> {
        let args = SyscallArgs::bare(SyscallId::Fsync).with_fd(fd);
        self.core.syscall(self.node, self.pid, args).map(|_| ())
    }

    /// `close(fd)`.
    pub fn close(&mut self, fd: Fd) -> Result<(), Errno> {
        let args = SyscallArgs::bare(SyscallId::Close).with_fd(fd);
        self.core.syscall(self.node, self.pid, args).map(|_| ())
    }

    /// `stat(path)`.
    pub fn stat(&mut self, path: &str) -> Result<FileMeta, Errno> {
        let args = SyscallArgs::bare(SyscallId::Stat).with_path(path);
        self.core.syscall(self.node, self.pid, args).meta()
    }

    /// `fstat(fd)`.
    pub fn fstat(&mut self, fd: Fd) -> Result<FileMeta, Errno> {
        let args = SyscallArgs::bare(SyscallId::Fstat).with_fd(fd);
        self.core.syscall(self.node, self.pid, args).meta()
    }

    /// `rename(from, to)`.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), Errno> {
        let joined = format!("{from}\0{to}");
        let args = SyscallArgs::bare(SyscallId::Rename).with_path(&joined);
        self.core.syscall(self.node, self.pid, args).map(|_| ())
    }

    /// `unlink(path)`.
    pub fn unlink(&mut self, path: &str) -> Result<(), Errno> {
        let args = SyscallArgs::bare(SyscallId::Unlink).with_path(path);
        self.core.syscall(self.node, self.pid, args).map(|_| ())
    }

    /// `readlink(path)` — common JVM-style probing; fails benignly.
    pub fn readlink(&mut self, path: &str) -> Result<(), Errno> {
        let args = SyscallArgs::bare(SyscallId::Readlink).with_path(path);
        self.core.syscall(self.node, self.pid, args).map(|_| ())
    }

    /// Directory-listing analogue (`getdents`): paths on this node's disk
    /// starting with `prefix`. Not an injection point.
    pub fn list_paths(&self, prefix: &str) -> Vec<String> {
        self.core.vfs[self.node.0 as usize]
            .paths()
            .filter(|p| p.starts_with(prefix))
            .map(str::to_string)
            .collect()
    }

    /// Convenience: reads the whole file.
    pub fn read_file(&mut self, path: &str) -> Result<Vec<u8>, Errno> {
        let fd = self.open_read(path)?;
        let mut out = Vec::new();
        loop {
            let chunk = self.read(fd, 4096)?;
            if chunk.is_empty() {
                break;
            }
            out.extend_from_slice(&chunk);
        }
        self.close(fd)?;
        Ok(out)
    }

    /// Convenience: creates/truncates the file with the given contents and
    /// fsyncs it.
    pub fn write_file(&mut self, path: &str, data: &[u8]) -> Result<(), Errno> {
        let fd = self.open(path, OpenFlags::Write)?;
        self.write(fd, data)?;
        self.fsync(fd)?;
        self.close(fd)
    }

    // --- Instrumentation points -----------------------------------------

    /// Enters a named application function — the uprobe site — and returns
    /// the scope of its body. The scope derefs to this context, and
    /// dropping it leaves the function: at the end of its block, on an early
    /// `return` or `?`, and on an unwinding crash alike.
    ///
    /// A body that makes syscalls shadows the context with its scope,
    /// `let ctx = &mut ctx.function("f");`; a pure body is the one statement
    /// `let _ = ctx.function("f");`.
    ///
    /// # Panics
    ///
    /// Unwinds with [`CrashPayload`](crate::CrashPayload) on an injected
    /// kill at the entry probe, like every syscall.
    pub fn function<'s>(&'s mut self, name: &str) -> FnScope<'s, 'a, M> {
        self.core.push_function(self.pid, name);
        self.core.fire_uprobe(self.node, self.pid, None);
        FnScope { ctx: self }
    }

    /// Marks an instrumentable offset inside the innermost entered function
    /// (a binary address Level 3 probes).
    ///
    /// # Panics
    ///
    /// Panics if called outside a [`FnScope`] — an application programming
    /// error.
    pub fn at_offset(&mut self, offset: u32) {
        self.core.fire_uprobe(self.node, self.pid, Some(offset));
    }

    /// Runs `f` attributed to a freshly forked child helper pid — the
    /// child-process scenario of the paper's §5.4. Its probes name this
    /// node ([`crate::HookEnv::node`]).
    pub fn as_child<R>(&mut self, f: impl FnOnce(&mut NodeCtx<'_, M>) -> R) -> R {
        let child = self
            .core
            .procs
            .spawn_child(self.pid, self.core.now)
            .expect("parent process exists");
        let prev = std::mem::replace(&mut self.pid, child);
        let out = f(self);
        self.pid = prev;
        self.core.exit_process(self.node, child);
        out
    }
}

/// The body of an application function entered through
/// [`NodeCtx::function`]: the context, one call deeper. Dropping the scope
/// leaves the function, so every entry has its exit and a callback cannot
/// return inside a function it entered.
#[must_use = "dropping the scope leaves the function at once"]
pub struct FnScope<'s, 'a, M> {
    ctx: &'s mut NodeCtx<'a, M>,
}

impl<'a, M> Deref for FnScope<'_, 'a, M> {
    type Target = NodeCtx<'a, M>;

    fn deref(&self) -> &Self::Target {
        self.ctx
    }
}

impl<M> DerefMut for FnScope<'_, '_, M> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.ctx
    }
}

impl<M> Drop for FnScope<'_, '_, M> {
    fn drop(&mut self) {
        self.ctx.core.pop_function(self.ctx.pid);
    }
}

/// The handle workload clients run against.
pub struct ClientCtx<'a, M> {
    pub(crate) core: &'a mut SimCore<M>,
    pub(crate) id: ClientId,
}

impl<'a, M: Clone + fmt::Debug + 'static> ClientCtx<'a, M> {
    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Number of nodes in the cluster.
    pub fn cluster_size(&self) -> u32 {
        self.core.node_count()
    }

    /// The run RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.core.rng
    }

    /// Arms a client timer.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        let ep = Endpoint::Client(self.id);
        self.core.schedule_in(delay, Item::Timer { ep, tag });
    }

    /// Sends a request to a node. Requests to down nodes are silently lost
    /// (the client must use timeouts).
    pub fn send(&mut self, to: NodeId, msg: M) {
        let latency = self.core.sample_latency();
        let item = Item::Deliver {
            to: Endpoint::Node(to),
            from: Endpoint::Client(self.id),
            msg,
            cause: None,
        };
        self.core.schedule_in(latency, item);
    }

    /// Records an operation invocation in the Jepsen-style history.
    pub fn invoke(&mut self, op: impl Into<String>) -> usize {
        let now = self.core.now;
        self.core.history.invoke(self.id, op.into(), now)
    }

    /// Completes a previously invoked operation.
    pub fn complete(&mut self, idx: usize, outcome: OpOutcome) {
        let now = self.core.now;
        self.core.history.complete(idx, now, outcome);
    }

    /// Writes a log line attributed to this client.
    pub fn log(&mut self, line: impl Into<String>) {
        let pseudo = NodeId(10_000 + self.id.0);
        self.core.log(pseudo, line.into());
    }
}
