//! `SyscallArgs::fd_path` against the bookkeeping it replaced.
//!
//! Tracer, executor and profiling hook each used to keep their own
//! `(pid, fd) → path` map, updated at `sys_exit` from successful
//! `open`/`close`/`dup`. [`Reference`] is that logic, kept as the test's
//! oracle: at every probe it compares the kernel's answer with its own, over
//! a script that walks through everything a descriptor can go through.

use std::collections::BTreeMap;

use rose_events::{Errno, Fd, NodeId, Pid, SimDuration, SyscallId};

use crate::syscalls::SysResultExt;
use crate::{
    Application, HookEffects, HookEnv, KernelHook, NodeCtx, OpenFlags, Sim, SimConfig, SysResult,
    SysRet, SyscallArgs,
};

/// The descriptor map as the hooks kept it.
#[derive(Default)]
struct Reference {
    known: BTreeMap<(Pid, Fd), String>,
    /// Probes checked.
    checked: u32,
    mismatches: Vec<String>,
    /// `(call, fd_path, failed)` of every fd-based call, in order.
    seen: Vec<(SyscallId, Option<String>, bool)>,
}

impl Reference {
    fn check(&mut self, probe: &str, env: &HookEnv, args: &SyscallArgs) {
        let own = args
            .fd
            .and_then(|fd| self.known.get(&(env.pid, fd)))
            .map(String::as_str);
        self.checked += 1;
        if args.fd_path != own {
            self.mismatches.push(format!(
                "{probe} of {:?} by {}: kernel says {:?}, the map {own:?}",
                args.call, env.pid, args.fd_path
            ));
        }
    }
}

impl KernelHook for Reference {
    fn name(&self) -> &'static str {
        "fd-map-reference"
    }

    fn sys_enter(&mut self, env: &HookEnv, args: &SyscallArgs, _fx: &mut HookEffects) {
        self.check("sys_enter", env, args);
    }

    fn sys_exit(
        &mut self,
        env: &HookEnv,
        args: &SyscallArgs,
        result: &SysResult,
        _fx: &mut HookEffects,
    ) {
        self.check("sys_exit", env, args);
        if args.fd.is_some() {
            let path = args.fd_path.map(str::to_string);
            self.seen.push((args.call, path, result.is_err()));
        }
        // Maintain the fd → path map from successful open/close/dup.
        if let Ok(ret) = result {
            match (args.call, ret) {
                (SyscallId::Open | SyscallId::Openat, SysRet::Fd(fd)) => {
                    if let Some(p) = args.path {
                        self.known.insert((env.pid, *fd), p.to_string());
                    }
                }
                (SyscallId::Close, _) => {
                    if let Some(fd) = args.fd {
                        self.known.remove(&(env.pid, fd));
                    }
                }
                (SyscallId::Dup, SysRet::Fd(new)) => {
                    if let Some(fd) = args.fd {
                        if let Some(p) = self.known.get(&(env.pid, fd)).cloned() {
                            self.known.insert((env.pid, *new), p);
                        }
                    }
                }
                _ => {}
            }
        }
    }
}

/// An injector ahead of the reference in the chain: fails every `open` of
/// `/denied`, and the first `close` of a descriptor on `/keep`.
#[derive(Default)]
struct Override {
    close_failed: bool,
}

impl KernelHook for Override {
    fn name(&self) -> &'static str {
        "override"
    }

    fn sys_enter(&mut self, _env: &HookEnv, args: &SyscallArgs, fx: &mut HookEffects) {
        match args.call {
            SyscallId::Openat if args.path == Some("/denied") => fx.set_override(Errno::Eacces),
            SyscallId::Close if args.fd_path == Some("/keep") && !self.close_failed => {
                self.close_failed = true;
                fx.set_override(Errno::Eintr);
            }
            _ => {}
        }
    }
}

/// The script. First boot: the whole descriptor life cycle, then a crash
/// with a descriptor open. Second boot: the descriptors of the dead process
/// mean nothing to the new one.
struct Script;

impl Script {
    fn dup(ctx: &mut NodeCtx<'_, ()>, fd: Fd) -> Result<Fd, Errno> {
        // No target issues `dup`, so `NodeCtx` has no wrapper for it.
        let args = SyscallArgs::bare(SyscallId::Dup).with_fd(fd);
        ctx.core.syscall(ctx.node, ctx.pid, args).fd()
    }

    fn first_boot(ctx: &mut NodeCtx<'_, ()>) {
        // open / write / fsync / read / fstat / close.
        let a = ctx.open("/a", OpenFlags::Write).unwrap();
        ctx.write(a, b"one").unwrap();
        ctx.fsync(a).unwrap();
        ctx.read(a, 8).unwrap();
        ctx.fstat(a).unwrap();
        // A second descriptor on an existing file shares its path.
        let a2 = ctx.open_read("/a").unwrap();
        ctx.close(a2).unwrap();
        // `dup`, then the original goes away and the copy lives on.
        let b = Self::dup(ctx, a).unwrap();
        ctx.close(a).unwrap();
        ctx.write(b, b"two").unwrap();
        // The closed descriptor and one never opened name nothing.
        assert_eq!(ctx.write(a, b"x"), Err(Errno::Ebadf));
        assert_eq!(ctx.fsync(Fd(999)), Err(Errno::Ebadf));
        assert_eq!(Self::dup(ctx, a), Err(Errno::Ebadf));
        // Rename under an open descriptor: it keeps naming the old path,
        // which no longer exists.
        ctx.rename("/a", "/a.moved").unwrap();
        assert_eq!(ctx.write(b, b"lost"), Err(Errno::Eio));
        // A new file at the old path is what the descriptor then sees.
        ctx.write_file("/a", b"fresh").unwrap();
        ctx.fsync(b).unwrap();
        ctx.close(b).unwrap();
        // Unlink under an open descriptor.
        let c = ctx.open("/c", OpenFlags::Write).unwrap();
        ctx.unlink("/c").unwrap();
        assert_eq!(ctx.fsync(c), Err(Errno::Eio));
        ctx.close(c).unwrap();
        // A forked helper has a descriptor table of its own: the parent's
        // descriptor means nothing in it, and what it leaves open is reaped.
        let parent_fd = ctx.open("/parent", OpenFlags::Append).unwrap();
        ctx.as_child(|child| {
            assert_eq!(child.write(parent_fd, b"x"), Err(Errno::Ebadf));
            let closed = child.open("/child.closed", OpenFlags::Write).unwrap();
            child.write(closed, b"c").unwrap();
            child.close(closed).unwrap();
            let leaked = child.open("/child.leaked", OpenFlags::Write).unwrap();
            child.write(leaked, b"c").unwrap();
        });
        ctx.write(parent_fd, b"p").unwrap();
        // An `open` an earlier hook overrides opens nothing.
        assert_eq!(ctx.open("/denied", OpenFlags::Write), Err(Errno::Eacces));
        // A `close` an earlier hook overrides closes nothing.
        let keep = ctx.open("/keep", OpenFlags::Write).unwrap();
        assert_eq!(ctx.close(keep), Err(Errno::Eintr));
        ctx.write(keep, b"still open").unwrap();
        ctx.close(keep).unwrap();
        assert_eq!(ctx.write(keep, b"x"), Err(Errno::Ebadf));
        // Die with `/parent` and one more descriptor open.
        let crashy = ctx.open("/crashy", OpenFlags::Write).unwrap();
        ctx.write(crashy, b"half").unwrap();
        ctx.panic("scripted crash");
    }

    fn second_boot(ctx: &mut NodeCtx<'_, ()>) {
        // Descriptor numbers are per node and never reused, so every number
        // the dead process held is free in the new one.
        for fd in 3..20 {
            assert_eq!(ctx.fstat(Fd(fd)), Err(Errno::Ebadf));
        }
        let again = ctx.open("/crashy", OpenFlags::Append).unwrap();
        ctx.write(again, b" more").unwrap();
        ctx.close(again).unwrap();
    }
}

impl Application for Script {
    type Msg = ();

    fn on_start(&mut self, ctx: &mut NodeCtx<'_, ()>) {
        match ctx.generation() {
            0 => Self::first_boot(ctx),
            _ => Self::second_boot(ctx),
        }
    }

    fn on_message(&mut self, _: &mut NodeCtx<'_, ()>, _: NodeId, _: ()) {}

    fn on_timer(&mut self, _: &mut NodeCtx<'_, ()>, _: u64) {}
}

#[test]
fn fd_path_is_what_the_hooks_own_maps_said() {
    let mut sim = Sim::new(SimConfig::new(1, 5), |_| Script);
    sim.add_hook(Box::new(Override::default()));
    sim.add_hook(Box::new(Reference::default()));
    sim.start();
    sim.run_for(SimDuration::from_secs(5));

    // The script ran to its end on both boots: an assertion failing inside
    // it would be one more "process down" line.
    let core = sim.core();
    assert_eq!(core.stats.crashes, 1, "{:?}", core.logs.lines());
    assert_eq!(core.stats.restarts, 1);
    assert!(core.logs.grep("PANIC: scripted crash"));
    assert_eq!(core.vfs[0].peek("/crashy"), Some(&b"half more"[..]));
    assert_eq!(core.vfs[0].peek("/child.leaked"), Some(&b"c"[..]));

    let reference = sim.hook_ref::<Reference>().expect("reference attached");
    assert_eq!(reference.mismatches, Vec::<String>::new());
    assert_eq!(reference.checked as u64, 2 * core.stats.syscalls);

    // The notable moments, as the chain saw them.
    let saw = |call, path: Option<&str>, failed| {
        reference
            .seen
            .contains(&(call, path.map(str::to_string), failed))
    };
    assert!(saw(SyscallId::Dup, Some("/a"), false));
    assert!(saw(SyscallId::Close, Some("/a"), false));
    assert!(
        saw(SyscallId::Write, Some("/a"), true),
        "write after rename"
    );
    assert!(
        saw(SyscallId::Fsync, Some("/c"), true),
        "fsync after unlink"
    );
    assert!(
        saw(SyscallId::Write, None, true),
        "the parent's fd in a child"
    );
    assert!(saw(SyscallId::Write, Some("/child.leaked"), false));
    assert!(
        saw(SyscallId::Close, Some("/keep"), true),
        "overridden close"
    );
    assert!(saw(SyscallId::Write, Some("/keep"), false));
    assert!(saw(SyscallId::Close, Some("/keep"), false));
    assert!(saw(SyscallId::Fstat, None, true), "a dead process's fd");
    assert!(saw(SyscallId::Write, Some("/crashy"), false));
    // The hooks' maps were never pruned at a crash; the kernel's table is.
    assert!(reference.known.values().any(|p| p == "/parent"));
    for (pid, fd) in reference.known.keys() {
        assert_eq!(core.vfs[0].fd_path(*pid, *fd), None);
    }
}
