//! Interned calling contexts.
//!
//! A calling context — the chain of application functions live on a
//! process's stack, outermost first — is the key of an execution index
//! (distributed execution indexing, Meiklejohn et al.). The kernel sees one
//! at every probe, so it cannot afford a vector of strings there. A
//! [`ChainTable`] is the run's calling-context tree: every distinct chain
//! gets one [`ChainId`], entering a function is a lookup of the edge
//! `(current chain, function name)`, and two ids are equal exactly when
//! their chains are — there is no fingerprint that could collide. Names
//! are materialised once per distinct chain and handed out by reference
//! wherever a string is actually emitted (an SCF event, a report).

use std::collections::HashMap;

use rose_events::FnvBuildHasher;

/// An interned calling context. Only meaningful together with the
/// [`ChainTable`] that issued it (one per simulated kernel); ids are dense
/// and start at [`ChainId::ROOT`], so they can index a flat table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChainId(u32);

impl ChainId {
    /// The empty chain: outside any instrumented function.
    pub const ROOT: ChainId = ChainId(0);

    /// The id as a table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug)]
struct Chain {
    parent: ChainId,
    /// The whole chain, outermost first (the last entry is this node's own
    /// function).
    names: Vec<String>,
}

/// The calling-context tree of one run.
#[derive(Debug)]
pub struct ChainTable {
    chains: Vec<Chain>,
    /// Function name → the `(parent, child)` edges labelled with it. A
    /// function is entered from a handful of call sites, so the edge list
    /// behind one name stays short and an entry costs one hash probe —
    /// FNV, since the names come from the target's own source and the map
    /// is never iterated.
    edges: HashMap<String, Vec<(ChainId, ChainId)>, FnvBuildHasher>,
}

impl Default for ChainTable {
    fn default() -> Self {
        ChainTable::new()
    }
}

impl ChainTable {
    /// A table holding only the empty chain.
    pub fn new() -> Self {
        ChainTable {
            chains: vec![Chain {
                parent: ChainId::ROOT,
                names: Vec::new(),
            }],
            edges: HashMap::default(),
        }
    }

    /// The chain `parent` extended by one entry of `function`, if that
    /// chain has been seen.
    fn find(&self, parent: ChainId, function: &str) -> Option<ChainId> {
        self.edges
            .get(function)?
            .iter()
            .find_map(|&(p, child)| (p == parent).then_some(child))
    }

    /// The chain `parent` extended by one entry of `function`, interned on
    /// first sight. Allocates only then.
    pub fn enter(&mut self, parent: ChainId, function: &str) -> ChainId {
        if let Some(child) = self.find(parent, function) {
            return child;
        }
        let child = ChainId(u32::try_from(self.chains.len()).expect("fewer than 2^32 chains"));
        let mut names = Vec::with_capacity(self.names(parent).len() + 1);
        names.extend_from_slice(self.names(parent));
        names.push(function.to_string());
        self.chains.push(Chain { parent, names });
        self.edges
            .entry(function.to_string())
            .or_default()
            .push((parent, child));
        child
    }

    /// The chain one function exit up from `id` (the root is its own
    /// parent).
    pub fn parent(&self, id: ChainId) -> ChainId {
        self.chains[id.index()].parent
    }

    /// The function names of a chain, outermost first.
    pub fn names(&self, id: ChainId) -> &[String] {
        &self.chains[id.index()].names
    }

    /// The id of a chain given by name, if this run has entered it. Never
    /// interns: a chain nobody entered cannot be the current one.
    pub fn lookup(&self, names: &[String]) -> Option<ChainId> {
        names
            .iter()
            .try_fold(ChainId::ROOT, |id, name| self.find(id, name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn equal_chains_share_an_id_and_resolve_back() {
        let mut t = ChainTable::new();
        let a = t.enter(ChainId::ROOT, "recover");
        let ab = t.enter(a, "loadSegment");
        assert_eq!(t.enter(ChainId::ROOT, "recover"), a);
        assert_eq!(t.enter(a, "loadSegment"), ab);
        assert_eq!(t.names(ab), strs(&["recover", "loadSegment"]));
        assert_eq!(t.parent(ab), a);
        assert_eq!(t.parent(a), ChainId::ROOT);
        assert_eq!(t.parent(ChainId::ROOT), ChainId::ROOT);
        assert_eq!(t.chains.len(), 3);
    }

    #[test]
    fn same_function_under_different_parents_is_a_different_chain() {
        let mut t = ChainTable::new();
        let a = t.enter(ChainId::ROOT, "a");
        let b = t.enter(ChainId::ROOT, "b");
        let ax = t.enter(a, "x");
        let bx = t.enter(b, "x");
        let x = t.enter(ChainId::ROOT, "x");
        assert!(ax != bx && bx != x && ax != x);
        assert_eq!(t.names(bx), strs(&["b", "x"]));
        // Recursion is a chain of its own, not a cycle.
        let xx = t.enter(x, "x");
        assert_ne!(xx, x);
        assert_eq!(t.names(xx), strs(&["x", "x"]));
    }

    #[test]
    fn lookup_never_interns() {
        let mut t = ChainTable::new();
        assert_eq!(t.lookup(&[]), Some(ChainId::ROOT));
        assert_eq!(t.lookup(&strs(&["a", "b"])), None);
        assert_eq!(t.chains.len(), 1);
        let a = t.enter(ChainId::ROOT, "a");
        let ab = t.enter(a, "b");
        assert_eq!(t.lookup(&strs(&["a", "b"])), Some(ab));
        assert_eq!(t.lookup(&strs(&["b"])), None);
        assert_eq!(t.chains.len(), 3);
    }
}
