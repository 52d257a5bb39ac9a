//! The topology abstraction behind the simulator.
//!
//! [`Topology`] is the minimal interface the round engine needs from a
//! network: a node count and per-node neighborhoods. A materialized
//! [`Graph`] implements it by slicing its CSR arrays; an
//! [`ImplicitGraph`](super::ImplicitGraph) implements it by *computing* each
//! neighborhood on demand, so million-node deployments never pay for `O(m)`
//! adjacency storage. `Arc<Graph>` implements it too, so a facade can hand
//! the same materialized topology to many runs without cloning the CSR, and
//! so does `&T` for any topology `T`.
//!
//! Neighborhoods are exposed through a small-buffer callback
//! ([`Topology::with_neighbors`]) rather than an iterator: the implicit
//! implementation materializes each queried neighborhood into a reusable
//! cache slot and lends it out as a plain `&[NodeId]`, which keeps the
//! engine's hot resolution loop identical on both paths.

use super::Graph;
use crate::ids::NodeId;
use std::sync::Arc;

/// A network topology the round engine can simulate.
///
/// The contract mirrors [`Graph`]: nodes are `0..node_count()`, the
/// neighborhood of `v` is sorted by id, free of duplicates and self-loops,
/// and symmetric (`u ∈ N(v)` iff `v ∈ N(u)`). Implementations must be
/// deterministic: the same topology value always reports the same
/// neighborhoods, so simulation runs stay reproducible bit-for-bit.
pub trait Topology {
    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// Calls `f` with the sorted neighborhood of `v` and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    fn with_neighbors<R>(&self, v: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R;

    /// The materialized CSR graph behind this topology, if there is one.
    ///
    /// Fault plans that rewrite the topology (churn, mobility) and
    /// algorithms that need global structure (e.g. centralized GST
    /// construction) require `Some`; streamed topologies return `None` and
    /// such callers must fail with a clear error instead of silently
    /// materializing.
    fn as_graph(&self) -> Option<&Graph> {
        None
    }

    /// Replaces the topology with a rebuilt materialized graph (churn or
    /// mobility rewrote the network).
    ///
    /// # Panics
    ///
    /// Panics for topologies that cannot be rebuilt; the engine clamps
    /// topology-rewriting fault plans to materialized graphs up front, so
    /// this is unreachable behind [`Simulator`](crate::Simulator).
    fn replace(&mut self, graph: Graph) {
        let _ = graph;
        panic!(
            "this topology cannot be rebuilt: churn/mobility fault plans \
             require a materialized `Graph`"
        );
    }

    /// Estimated resident bytes of the topology representation itself (CSR
    /// arrays, spatial index, neighborhood cache) — the topology term of the
    /// `peak_state_bytes` accounting.
    fn resident_bytes(&self) -> usize;

    /// Degree of `v`.
    fn degree_of(&self, v: NodeId) -> usize {
        self.with_neighbors(v, <[NodeId]>::len)
    }
}

impl Topology for Graph {
    #[inline]
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    #[inline]
    fn with_neighbors<R>(&self, v: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        f(self.neighbors(v))
    }

    fn as_graph(&self) -> Option<&Graph> {
        Some(self)
    }

    fn replace(&mut self, graph: Graph) {
        *self = graph;
    }

    fn resident_bytes(&self) -> usize {
        csr_bytes(self)
    }
}

impl Topology for Arc<Graph> {
    #[inline]
    fn node_count(&self) -> usize {
        Graph::node_count(self)
    }

    #[inline]
    fn with_neighbors<R>(&self, v: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        f(self.neighbors(v))
    }

    fn as_graph(&self) -> Option<&Graph> {
        Some(self)
    }

    fn replace(&mut self, graph: Graph) {
        // Rebuilds under faults are per-simulator: give this simulator its
        // own copy instead of mutating a topology shared across runs.
        *self = Arc::new(graph);
    }

    fn resident_bytes(&self) -> usize {
        csr_bytes(self)
    }
}

/// A borrowed topology, so a caller can run on a topology it keeps and read
/// it afterwards (for instance
/// [`ImplicitGraph::cache_stats`](super::ImplicitGraph::cache_stats)). A
/// borrow cannot be rebuilt, so it reports no materialized graph and
/// topology-rewriting fault plans are rejected up front.
impl<T: Topology> Topology for &T {
    #[inline]
    fn node_count(&self) -> usize {
        T::node_count(self)
    }

    #[inline]
    fn with_neighbors<R>(&self, v: NodeId, f: impl FnOnce(&[NodeId]) -> R) -> R {
        T::with_neighbors(self, v, f)
    }

    fn resident_bytes(&self) -> usize {
        T::resident_bytes(self)
    }
}

/// Resident bytes of a materialized CSR graph: the offsets array plus both
/// directions of every adjacency entry.
pub(crate) fn csr_bytes(g: &Graph) -> usize {
    (g.node_count() + 1) * std::mem::size_of::<u32>()
        + 2 * g.edge_count() * std::mem::size_of::<NodeId>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::generators;

    fn collect<T: Topology>(t: &T, v: NodeId) -> Vec<NodeId> {
        t.with_neighbors(v, <[NodeId]>::to_vec)
    }

    #[test]
    fn graph_topology_matches_direct_access() {
        let g = generators::grid(4, 3);
        for v in g.node_ids() {
            assert_eq!(collect(&g, v), g.neighbors(v).to_vec());
            assert_eq!(Topology::degree_of(&g, v), g.degree(v));
        }
        assert_eq!(Topology::node_count(&g), 12);
        assert!(g.as_graph().is_some());
    }

    #[test]
    fn arc_graph_shares_without_cloning() {
        let g = Arc::new(generators::path(5));
        let h = Arc::clone(&g);
        assert_eq!(Topology::node_count(&h), 5);
        assert_eq!(collect(&h, NodeId::new(1)), vec![NodeId::new(0), NodeId::new(2)]);
        assert!(h.as_graph().is_some());
    }

    #[test]
    fn arc_replace_does_not_mutate_the_shared_graph() {
        let original = Arc::new(generators::path(4));
        let mut mine = Arc::clone(&original);
        mine.replace(generators::star(4));
        assert_eq!(original.degree(NodeId::new(0)), 1, "shared copy untouched");
        assert_eq!(Topology::degree_of(&mine, NodeId::new(0)), 3);
    }

    #[test]
    fn csr_bytes_counts_offsets_and_adjacency() {
        let g = generators::path(4); // 3 edges
        assert_eq!(g.resident_bytes(), 5 * 4 + 6 * 4);
    }
}
