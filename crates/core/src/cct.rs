//! The calling-context tree (CCT).
//!
//! TxSampler is a *call-path* profiler (built on HPCToolkit in the paper):
//! every metric is attributed to a full calling context, including contexts
//! reconstructed inside transactions. Nodes are either function frames —
//! keyed by (function, call site, speculative?) — or leaf statements keyed
//! by an instruction pointer. Frames reconstructed from the LBR (i.e.
//! executed speculatively inside a transaction) carry the `speculative`
//! flag; the report renderer displays them under a `begin_in_tx` pseudo
//! node like the paper's GUI (Figure 9).
//!
//! ## Arena layout
//!
//! Nodes live in one flat arena (`Vec<Node>`) in first-child/next-sibling
//! form; child lookup goes through a single open-addressed index per tree
//! mapping `hash(parent, key)` → node id. The sample fast path therefore
//! performs no per-node allocation: a lookup that hits (the steady state —
//! a profile's context set converges quickly) touches only the index and
//! the arena, and a miss appends one arena slot plus one index entry.
//! Node ids are assigned in creation order, so parents always have smaller
//! ids than their children — the invariant [`Cct::merge`],
//! [`Cct::remap_funcs`] and the store loader rely on to resolve parents in
//! a single id-ordered pass.

use txsim_pmu::{FuncId, Ip};

use crate::metrics::Metrics;

/// Identity of a CCT node relative to its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKey {
    /// A function frame entered from `callsite`.
    Frame {
        /// The function this frame executes.
        func: FuncId,
        /// The call instruction in the parent context.
        callsite: Ip,
        /// Reconstructed from LBR inside a transaction.
        speculative: bool,
    },
    /// A leaf statement (sampled instruction).
    Stmt {
        /// The sampled instruction pointer.
        ip: Ip,
        /// Sampled while speculating.
        speculative: bool,
    },
}

impl NodeKey {
    /// The function this node belongs to.
    pub fn func(&self) -> FuncId {
        match self {
            NodeKey::Frame { func, .. } => *func,
            NodeKey::Stmt { ip, .. } => ip.func,
        }
    }

    /// Whether the node was reconstructed from speculative execution.
    pub fn speculative(&self) -> bool {
        match self {
            NodeKey::Frame { speculative, .. } | NodeKey::Stmt { speculative, .. } => *speculative,
        }
    }
}

/// Index of a node within its [`Cct`].
pub type NodeId = u32;

/// The root node id.
pub const ROOT: NodeId = 0;

/// Sentinel for "no node" in the sibling chain and the child index.
const NONE: NodeId = NodeId::MAX;

/// Initial child-index capacity (slots; always a power of two).
const INDEX_INITIAL: usize = 16;

#[derive(Debug, Clone)]
struct Node {
    key: Option<NodeKey>, // None only for the root
    parent: NodeId,
    /// Head of this node's child list (most recently created child first).
    first_child: NodeId,
    /// Next node in the parent's child list.
    next_sibling: NodeId,
    metrics: Metrics,
}

/// An arena-allocated calling-context tree with per-node [`Metrics`].
#[derive(Debug, Clone)]
pub struct Cct {
    nodes: Vec<Node>,
    /// Open-addressed child index: `hash(parent, key) & mask` → node id,
    /// linear probing, [`NONE`] marks an empty slot. Length is always a
    /// power of two; rehashed when more than 7/8 full.
    index: Vec<NodeId>,
}

impl Default for Cct {
    fn default() -> Self {
        Cct::new()
    }
}

/// Mix a (parent, key) pair into an index hash. SplitMix64-style finalizing
/// multiplies over the packed key words; the same golden-ratio constant the
/// conflict directory and histogram tables use.
fn hash_key(parent: NodeId, key: &NodeKey) -> u64 {
    let (tag, func, site_func, line, spec) = match key {
        NodeKey::Frame {
            func,
            callsite,
            speculative,
        } => (
            1u64,
            func.0 as u64,
            callsite.func.0 as u64,
            callsite.line as u64,
            *speculative as u64,
        ),
        NodeKey::Stmt { ip, speculative } => (
            2u64,
            ip.func.0 as u64,
            0,
            ip.line as u64,
            *speculative as u64,
        ),
    };
    let mut h = parent as u64;
    for word in [tag, func, site_func, line, spec] {
        h = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
    }
    h
}

impl Cct {
    /// Create a tree holding only the root.
    pub fn new() -> Self {
        Cct {
            nodes: vec![Node {
                key: None,
                parent: ROOT,
                first_child: NONE,
                next_sibling: NONE,
                metrics: Metrics::default(),
            }],
            index: vec![NONE; INDEX_INITIAL],
        }
    }

    /// Number of nodes including the root.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 1
    }

    /// Child of `parent` with `key`, created on demand.
    ///
    /// The hit path (steady state) is one probe sequence over the child
    /// index — no allocation, no per-node map. A miss appends one arena
    /// node and one index entry; the index rehash above 7/8 load is the
    /// only amortized allocation.
    pub fn child(&mut self, parent: NodeId, key: NodeKey) -> NodeId {
        let mask = self.index.len() - 1;
        let mut slot = (hash_key(parent, &key) as usize) & mask;
        loop {
            let id = self.index[slot];
            if id == NONE {
                break;
            }
            let node = &self.nodes[id as usize];
            if node.parent == parent && node.key == Some(key) {
                obs::count(obs::Counter::CctNodesHit);
                return id;
            }
            slot = (slot + 1) & mask;
        }
        obs::count(obs::Counter::CctNodesCreated);
        let id = self.nodes.len() as NodeId;
        let sibling = self.nodes[parent as usize].first_child;
        self.nodes.push(Node {
            key: Some(key),
            parent,
            first_child: NONE,
            next_sibling: sibling,
            metrics: Metrics::default(),
        });
        self.nodes[parent as usize].first_child = id;
        self.index[slot] = id;
        // Keep the probe sequences short: rehash above 7/8 load (the root
        // is not indexed, hence `len() - 1` live entries).
        if (self.nodes.len() - 1) * 8 > self.index.len() * 7 {
            self.grow_index();
        }
        id
    }

    /// Double the child index and rehash every non-root node into it.
    fn grow_index(&mut self) {
        let cap = self.index.len() * 2;
        let mask = cap - 1;
        let mut index = vec![NONE; cap];
        for (id, node) in self.nodes.iter().enumerate().skip(1) {
            let key = node.key.expect("non-root has key");
            let mut slot = (hash_key(node.parent, &key) as usize) & mask;
            while index[slot] != NONE {
                slot = (slot + 1) & mask;
            }
            index[slot] = id as NodeId;
        }
        self.index = index;
    }

    /// Walk a full path of keys from the root, creating nodes on demand;
    /// returns the final node.
    pub fn path(&mut self, keys: impl IntoIterator<Item = NodeKey>) -> NodeId {
        let mut cur = ROOT;
        for key in keys {
            cur = self.child(cur, key);
        }
        cur
    }

    /// Mutable metrics of `node`.
    pub fn metrics_mut(&mut self, node: NodeId) -> &mut Metrics {
        &mut self.nodes[node as usize].metrics
    }

    /// Metrics of `node` (exclusive).
    pub fn metrics(&self, node: NodeId) -> &Metrics {
        &self.nodes[node as usize].metrics
    }

    /// Key of `node` (`None` for the root).
    pub fn key(&self, node: NodeId) -> Option<NodeKey> {
        self.nodes[node as usize].key
    }

    /// Parent of `node` (the root is its own parent).
    pub fn parent(&self, node: NodeId) -> NodeId {
        self.nodes[node as usize].parent
    }

    /// Child ids of `node`, in unspecified order.
    pub fn children(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let first = self.nodes[node as usize].first_child;
        std::iter::successors((first != NONE).then_some(first), move |&n| {
            let next = self.nodes[n as usize].next_sibling;
            (next != NONE).then_some(next)
        })
    }

    /// The path of keys from the root to `node` (root excluded).
    pub fn path_to(&self, node: NodeId) -> Vec<NodeKey> {
        let mut path = Vec::new();
        let mut cur = node;
        while cur != ROOT {
            path.push(self.nodes[cur as usize].key.expect("non-root has key"));
            cur = self.nodes[cur as usize].parent;
        }
        path.reverse();
        path
    }

    /// Inclusive metrics of `node`: its own plus its whole subtree's.
    pub fn inclusive(&self, node: NodeId) -> Metrics {
        let mut acc = self.nodes[node as usize].metrics;
        let mut stack: Vec<NodeId> = self.children(node).collect();
        while let Some(n) = stack.pop() {
            acc.merge(&self.nodes[n as usize].metrics);
            stack.extend(self.children(n));
        }
        acc
    }

    /// Inclusive metrics of every node, indexed by [`NodeId`]: one sweep in
    /// reverse id order folds each node into its parent, which always has
    /// the smaller id, so every subtree is complete before it is read.
    pub fn inclusive_all(&self) -> Vec<Metrics> {
        let mut acc: Vec<Metrics> = self.nodes.iter().map(|n| n.metrics).collect();
        for id in (1..self.nodes.len()).rev() {
            let child = acc[id];
            acc[self.nodes[id].parent as usize].merge(&child);
        }
        acc
    }

    /// Sum of all nodes' metrics — the whole-program totals.
    pub fn totals(&self) -> Metrics {
        let mut acc = Metrics::default();
        for n in &self.nodes {
            acc.merge(&n.metrics);
        }
        acc
    }

    /// Merge `other` into `self`, matching nodes by path.
    pub fn merge(&mut self, other: &Cct) {
        // Map other's node ids to ours, walking in id order (parents have
        // smaller ids than children by construction).
        let mut map = vec![ROOT; other.nodes.len()];
        for (oid, node) in other.nodes.iter().enumerate() {
            let my_id = if oid == 0 {
                ROOT
            } else {
                let my_parent = map[node.parent as usize];
                self.child(my_parent, node.key.expect("non-root has key"))
            };
            map[oid] = my_id;
            self.nodes[my_id as usize].metrics.merge(&node.metrics);
        }
    }

    /// A copy of this tree with every function id rewritten through `f`
    /// (call sites and statement IPs included). Structure and metrics are
    /// preserved; nodes whose keys collide after remapping are merged.
    ///
    /// This is how the fleet aggregator reconciles divergent func-id
    /// spaces: each instance's ids are rewritten into the fleet's
    /// name-keyed id space before the path-keyed [`Cct::merge`].
    pub fn remap_funcs(&self, f: &mut dyn FnMut(FuncId) -> FuncId) -> Cct {
        let mut out = Cct::new();
        // Walk in id order: parents precede children by construction, so
        // the old→new map is always populated before it is read.
        let mut map = vec![ROOT; self.nodes.len()];
        for (oid, node) in self.nodes.iter().enumerate() {
            let new_id = match node.key {
                None => ROOT,
                Some(key) => {
                    let key = match key {
                        NodeKey::Frame {
                            func,
                            callsite,
                            speculative,
                        } => NodeKey::Frame {
                            func: f(func),
                            callsite: Ip::new(f(callsite.func), callsite.line),
                            speculative,
                        },
                        NodeKey::Stmt { ip, speculative } => NodeKey::Stmt {
                            ip: Ip::new(f(ip.func), ip.line),
                            speculative,
                        },
                    };
                    let parent = map[node.parent as usize];
                    out.child(parent, key)
                }
            };
            map[oid] = new_id;
            out.nodes[new_id as usize].metrics.merge(&node.metrics);
        }
        out
    }

    /// All node ids in depth-first preorder.
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![ROOT];
        while let Some(n) = stack.pop() {
            out.push(n);
            stack.extend(self.children(n));
        }
        out
    }

    /// Find any node whose key matches `pred` (tests and analyses).
    pub fn find(&self, mut pred: impl FnMut(&NodeKey) -> bool) -> Option<NodeId> {
        (1..self.nodes.len() as NodeId).find(|&id| {
            self.nodes[id as usize]
                .key
                .map(|k| pred(&k))
                .unwrap_or(false)
        })
    }

    /// All nodes whose key matches `pred`.
    pub fn find_all(&self, mut pred: impl FnMut(&NodeKey) -> bool) -> Vec<NodeId> {
        (1..self.nodes.len() as NodeId)
            .filter(|&id| {
                self.nodes[id as usize]
                    .key
                    .map(|k| pred(&k))
                    .unwrap_or(false)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(f: u32, line: u32) -> NodeKey {
        NodeKey::Frame {
            func: FuncId(f),
            callsite: Ip::new(FuncId(f.saturating_sub(1)), line),
            speculative: false,
        }
    }

    fn stmt(f: u32, line: u32) -> NodeKey {
        NodeKey::Stmt {
            ip: Ip::new(FuncId(f), line),
            speculative: false,
        }
    }

    #[test]
    fn child_is_idempotent() {
        let mut cct = Cct::new();
        let a = cct.child(ROOT, frame(1, 10));
        let b = cct.child(ROOT, frame(1, 10));
        assert_eq!(a, b);
        assert_eq!(cct.len(), 2);
        let c = cct.child(ROOT, frame(1, 11));
        assert_ne!(a, c);
    }

    #[test]
    fn speculative_flag_distinguishes_nodes() {
        let mut cct = Cct::new();
        let plain = cct.child(ROOT, frame(1, 10));
        let spec = cct.child(
            ROOT,
            NodeKey::Frame {
                func: FuncId(1),
                callsite: Ip::new(FuncId(0), 10),
                speculative: true,
            },
        );
        assert_ne!(plain, spec);
    }

    #[test]
    fn path_walks_and_creates() {
        let mut cct = Cct::new();
        let leaf = cct.path([frame(1, 1), frame(2, 5), stmt(2, 7)]);
        assert_eq!(cct.len(), 4);
        let path = cct.path_to(leaf);
        assert_eq!(path.len(), 3);
        assert_eq!(path[2], stmt(2, 7));
    }

    #[test]
    fn inclusive_sums_subtree() {
        let mut cct = Cct::new();
        let a = cct.path([frame(1, 1)]);
        let b = cct.path([frame(1, 1), frame(2, 2)]);
        let c = cct.path([frame(1, 1), frame(2, 2), stmt(2, 3)]);
        cct.metrics_mut(a).w = 1;
        cct.metrics_mut(b).w = 2;
        cct.metrics_mut(c).w = 4;
        assert_eq!(cct.inclusive(a).w, 7);
        assert_eq!(cct.inclusive(b).w, 6);
        assert_eq!(cct.inclusive(c).w, 4);
        assert_eq!(cct.totals().w, 7);
    }

    #[test]
    fn inclusive_all_matches_inclusive_per_node() {
        let mut cct = Cct::new();
        let leaves = [
            cct.path([frame(1, 1), frame(2, 2), stmt(2, 3)]),
            cct.path([frame(1, 1), stmt(1, 4)]),
            cct.path([frame(3, 1), stmt(3, 9)]),
            cct.path([frame(1, 1), frame(2, 2)]),
        ];
        for (i, &n) in leaves.iter().enumerate() {
            let m = cct.metrics_mut(n);
            m.w = 1 << i;
            m.abort_weight = 10 * (i as u64 + 1);
        }
        let all = cct.inclusive_all();
        assert_eq!(all.len(), cct.len());
        for id in 0..cct.len() as NodeId {
            assert_eq!(all[id as usize], cct.inclusive(id), "node {id}");
        }
        assert_eq!(all[ROOT as usize], cct.totals());
    }

    #[test]
    fn merge_unions_paths_and_adds_metrics() {
        let mut a = Cct::new();
        let n1 = a.path([frame(1, 1), stmt(1, 2)]);
        a.metrics_mut(n1).w = 3;

        let mut b = Cct::new();
        let n2 = b.path([frame(1, 1), stmt(1, 2)]);
        b.metrics_mut(n2).w = 5;
        let n3 = b.path([frame(9, 1)]);
        b.metrics_mut(n3).t = 1;

        a.merge(&b);
        assert_eq!(a.totals().w, 8);
        assert_eq!(a.totals().t, 1);
        let merged = a
            .find(|k| matches!(k, NodeKey::Stmt { ip, .. } if ip.line == 2))
            .unwrap();
        assert_eq!(a.metrics(merged).w, 8);
    }

    #[test]
    fn merge_into_empty_clones() {
        let mut b = Cct::new();
        let n = b.path([frame(1, 1), frame(2, 2), stmt(2, 9)]);
        b.metrics_mut(n).abort_weight = 42;
        let mut a = Cct::new();
        a.merge(&b);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.totals().abort_weight, 42);
    }

    #[test]
    fn remap_funcs_rewrites_ids_and_merges_collisions() {
        let mut cct = Cct::new();
        let a = cct.path([frame(1, 1), stmt(1, 2)]);
        cct.metrics_mut(a).w = 3;
        let b = cct.path([frame(2, 1), stmt(2, 2)]);
        cct.metrics_mut(b).w = 5;

        // Shift every id by 10: structure preserved, ids rewritten.
        let shifted = cct.remap_funcs(&mut |f| FuncId(f.0 + 10));
        assert_eq!(shifted.len(), cct.len());
        assert_eq!(shifted.totals(), cct.totals());
        assert!(shifted
            .find(|k| matches!(k, NodeKey::Stmt { ip, .. } if ip.func == FuncId(11)))
            .is_some());
        assert!(shifted
            .find(|k| matches!(k, NodeKey::Stmt { ip, .. } if ip.func == FuncId(1)))
            .is_none());

        // Collapse both functions onto one id: paths collide and merge.
        let collapsed = cct.remap_funcs(&mut |_| FuncId(7));
        assert_eq!(collapsed.len(), 3, "root + frame + stmt after merge");
        assert_eq!(collapsed.totals().w, 8);
        let leaf = collapsed
            .find(|k| matches!(k, NodeKey::Stmt { .. }))
            .unwrap();
        assert_eq!(collapsed.metrics(leaf).w, 8);
    }

    #[test]
    fn preorder_visits_every_node_once() {
        let mut cct = Cct::new();
        cct.path([frame(1, 1), frame(2, 2)]);
        cct.path([frame(1, 1), frame(3, 3)]);
        cct.path([frame(4, 4)]);
        let order = cct.preorder();
        assert_eq!(order.len(), cct.len());
        let distinct: std::collections::HashSet<_> = order.iter().collect();
        assert_eq!(distinct.len(), order.len());
        assert_eq!(order[0], ROOT);
    }

    #[test]
    fn wide_fanout_survives_index_growth() {
        // Push the child index through several rehashes and verify every
        // child is still found (not duplicated) afterwards.
        let mut cct = Cct::new();
        let ids: Vec<NodeId> = (0..1000).map(|i| cct.child(ROOT, frame(1, i))).collect();
        assert_eq!(cct.len(), 1001);
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(cct.child(ROOT, frame(1, i as u32)), id);
        }
        assert_eq!(cct.len(), 1001, "lookups after growth must not create");
        // The sibling chain covers exactly the created children.
        let children: std::collections::HashSet<NodeId> = cct.children(ROOT).collect();
        assert_eq!(children.len(), 1000);
        assert!(ids.iter().all(|id| children.contains(id)));
    }

    #[test]
    fn same_key_under_different_parents_stays_distinct() {
        let mut cct = Cct::new();
        let a = cct.child(ROOT, frame(1, 1));
        let b = cct.child(ROOT, frame(2, 2));
        let under_a = cct.child(a, stmt(1, 9));
        let under_b = cct.child(b, stmt(1, 9));
        assert_ne!(under_a, under_b);
        assert_eq!(cct.child(a, stmt(1, 9)), under_a);
        assert_eq!(cct.child(b, stmt(1, 9)), under_b);
        assert_eq!(cct.parent(under_a), a);
        assert_eq!(cct.parent(under_b), b);
    }

    #[test]
    fn ids_preserve_parents_before_children() {
        // The id-order invariant merge/remap/store rely on.
        let mut cct = Cct::new();
        cct.path([frame(1, 1), frame(2, 2), stmt(2, 3)]);
        cct.path([frame(1, 1), frame(3, 3)]);
        for id in 1..cct.len() as NodeId {
            assert!(cct.parent(id) < id, "parent of {id} must have a smaller id");
        }
    }
}
