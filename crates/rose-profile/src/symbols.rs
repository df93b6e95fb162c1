//! Synthetic binary symbol tables.
//!
//! The paper's Profiler extracts function symbols and binary offsets with
//! `readelf`/`addr2line`, and the Analyzer disassembles functions with
//! `objdump` to classify intra-function offsets (§5.1, §5.3). Here every
//! target application ships a [`SymbolTable`] describing its instrumented
//! functions: which source file each belongs to, and the instrumented
//! offsets inside it tagged as system-call sites, call sites, or other —
//! the classification Level 3 uses to prioritize its sweep.

use rose_events::SyscallId;

/// What an intra-function offset does, per the disassembly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OffsetKind {
    /// A call site to a system call (Level 3 priority i).
    SyscallSite(SyscallId),
    /// A call site to another function (priority ii).
    CallSite(String),
    /// Anything else (priority iii).
    Other,
}

impl OffsetKind {
    /// The Level 3 sweep priority: lower is tried first.
    pub fn priority(&self) -> u8 {
        match self {
            OffsetKind::SyscallSite(_) => 0,
            OffsetKind::CallSite(_) => 1,
            OffsetKind::Other => 2,
        }
    }
}

/// One instrumentable offset inside a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OffsetSite {
    /// The offset value applications report via `NodeCtx::at_offset`.
    pub offset: u32,
    /// Disassembly classification.
    pub kind: OffsetKind,
}

/// A function symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionSym {
    /// Symbol name.
    pub name: String,
    /// Source file the symbol is defined in.
    pub file: String,
    /// Instrumentable offsets, in code order.
    pub offsets: Vec<OffsetSite>,
}

/// The symbol table of a target binary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SymbolTable {
    /// All function symbols.
    pub functions: Vec<FunctionSym>,
}

impl SymbolTable {
    /// An empty table.
    pub fn new() -> Self {
        SymbolTable::default()
    }

    /// Builder: adds a function.
    pub fn function(mut self, name: &str, file: &str, offsets: Vec<OffsetSite>) -> Self {
        self.functions.push(FunctionSym {
            name: name.to_string(),
            file: file.to_string(),
            offsets,
        });
        self
    }

    /// Names of the functions defined in any of the given source files —
    /// the developer-provided "list of key system files" resolved to
    /// symbols.
    pub fn functions_in_files<'a>(
        &'a self,
        files: &'a [String],
    ) -> impl Iterator<Item = &'a str> + 'a {
        self.functions
            .iter()
            .filter(move |f| files.iter().any(|x| x == &f.file))
            .map(|f| f.name.as_str())
    }

    /// The source files the table's functions are defined in, each once,
    /// in first-seen order.
    pub fn files(&self) -> Vec<String> {
        let mut files: Vec<String> = Vec::new();
        for f in &self.functions {
            if !files.contains(&f.file) {
                files.push(f.file.clone());
            }
        }
        files
    }

    /// Looks a function up by name.
    pub fn get(&self, name: &str) -> Option<&FunctionSym> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// The Level 3 sweep order for a function: syscall call-sites first,
    /// then call sites to other functions, then the rest — each group in
    /// code order.
    pub fn sweep_order(&self, name: &str) -> Vec<OffsetSite> {
        let Some(f) = self.get(name) else {
            return Vec::new();
        };
        let mut sites = f.offsets.clone();
        sites.sort_by_key(|s| (s.kind.priority(), s.offset));
        sites
    }
}

/// Shorthand constructors for offset sites.
pub mod site {
    use super::{OffsetKind, OffsetSite};
    use rose_events::SyscallId;

    /// A syscall call-site.
    pub fn sys(offset: u32, id: SyscallId) -> OffsetSite {
        OffsetSite {
            offset,
            kind: OffsetKind::SyscallSite(id),
        }
    }

    /// A call site to another function.
    pub fn call(offset: u32, target: &str) -> OffsetSite {
        OffsetSite {
            offset,
            kind: OffsetKind::CallSite(target.to_string()),
        }
    }

    /// A plain offset.
    pub fn other(offset: u32) -> OffsetSite {
        OffsetSite {
            offset,
            kind: OffsetKind::Other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SymbolTable {
        SymbolTable::new()
            .function(
                "storeSnapshotData",
                "snapshot.c",
                vec![
                    site::other(0),
                    site::sys(1, SyscallId::Openat),
                    site::sys(2, SyscallId::Write),
                    site::call(3, "flushMeta"),
                ],
            )
            .function("raftTick", "raft.c", vec![site::other(0)])
    }

    #[test]
    fn file_resolution_matches_paper_workflow() {
        let t = table();
        let files = vec!["snapshot.c".to_string()];
        let fns: Vec<&str> = t.functions_in_files(&files).collect();
        assert_eq!(fns, vec!["storeSnapshotData"]);
    }

    #[test]
    fn files_are_listed_once_in_first_seen_order() {
        let t = table()
            .function("takeSnapshot", "snapshot.c", vec![])
            .function("election", "election.c", vec![]);
        assert_eq!(t.files(), vec!["snapshot.c", "raft.c", "election.c"]);
        assert!(SymbolTable::new().files().is_empty());
    }

    #[test]
    fn sweep_order_prioritizes_syscall_sites() {
        let t = table();
        let order: Vec<u32> = t
            .sweep_order("storeSnapshotData")
            .iter()
            .map(|s| s.offset)
            .collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
        assert!(t.sweep_order("missing").is_empty());
    }
}
