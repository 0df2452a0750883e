//! Generic undirected multigraph in **CSR layout** (compressed sparse row).
//!
//! Adjacency lives in one flat `neighbors` array indexed by per-node
//! `offsets`, so a node's neighbour row is a contiguous, **sorted** slice —
//! walk transitions are a single uniform index draw into that slice (O(1)),
//! adjacency tests are a binary search over it (O(log deg)), and iterating
//! a row never chases pointers.
//!
//! Mutation is **buffered**: [`Graph::add_edge`] appends to a pending edge
//! list in O(1), and [`Graph::finalize`] merges the buffer into the CSR
//! arrays in one counting-sort pass — O(E + Σ_{touched v} deg v · log deg v)
//! for `E` total edges, so building a graph from an edge batch costs
//! O(E log E) instead of the O(E·deg) of per-edge sorted inserts. Readers
//! (`neighbors`, `degree`, `has_edge`) require a finalized graph; debug
//! builds assert it. [`Graph::add_node`] keeps the graph finalized (a new
//! node has an empty row), so node-only growth never forces a rebuild.

/// Node identifier: index into the graph's node arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// As a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An undirected multigraph. Nodes are dense indices; adjacency is a CSR
/// pair (`offsets`, `neighbors`) whose rows are kept **sorted** so that the
/// second-order walk bias can test adjacency in `O(log deg)`.
#[derive(Debug, Clone)]
pub struct Graph {
    /// CSR row boundaries: node `v`'s row is
    /// `neighbors[offsets[v] as usize..offsets[v + 1] as usize]`.
    /// Invariant (finalized): `offsets.len() == node_count + 1`.
    offsets: Vec<u32>,
    /// Flat neighbour array; each row sorted ascending, duplicates encode
    /// parallel edges (extra transition weight).
    neighbors: Vec<NodeId>,
    /// Edges buffered by [`Graph::add_edge`] since the last finalize.
    pending: Vec<(NodeId, NodeId)>,
    edge_count: usize,
}

impl Default for Graph {
    fn default() -> Self {
        Graph {
            offsets: vec![0],
            neighbors: Vec::new(),
            pending: Vec::new(),
            edge_count: 0,
        }
    }
}

impl Graph {
    /// Empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Add a node, returning its id. Keeps the graph finalized: the new
    /// node's row is empty, so only the offset table grows.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId((self.offsets.len() - 1) as u32);
        // PANICS: never — the offset table always holds at least `[0]`.
        let end = *self.offsets.last().expect("offsets never empty");
        self.offsets.push(end);
        id
    }

    /// Buffer an undirected edge (O(1)); it becomes visible to readers after
    /// the next [`Graph::finalize`]. Parallel edges are allowed (they simply
    /// give the neighbour more transition weight); self-loops are rejected
    /// as a programmer error.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        assert_ne!(
            a, b,
            "self-loops are not meaningful in the bipartite DB graph"
        );
        let n = self.node_count();
        assert!(a.index() < n && b.index() < n, "edge endpoints must exist");
        self.pending.push((a, b));
        self.edge_count += 1;
    }

    /// `true` iff every buffered edge has been merged into the CSR arrays.
    pub fn is_finalized(&self) -> bool {
        self.pending.is_empty()
    }

    /// Merge all buffered edges into the CSR arrays: one counting-sort pass
    /// over old rows plus pending half-edges, then a per-row sort of the
    /// rows that actually grew. Idempotent; a no-op when nothing is pending.
    pub fn finalize(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        let n = self.node_count();
        // New degrees = old degrees + pending contributions.
        // PANICS: in bounds — `windows(2)` slices have length 2.
        let mut degree: Vec<u32> = self.offsets.windows(2).map(|w| w[1] - w[0]).collect();
        for &(a, b) in &self.pending {
            degree[a.index()] += 1;
            degree[b.index()] += 1;
        }
        let mut new_offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        new_offsets.push(0);
        for &d in &degree {
            acc = acc
                .checked_add(d)
                // PANICS: documented capacity limit — the CSR offset table
                // addresses half-edges through u32.
                .expect("graph exceeds u32 half-edge capacity");
            new_offsets.push(acc);
        }
        let mut new_neighbors = vec![NodeId(0); acc as usize];
        // Scatter: old (sorted) rows first, pending half-edges at the tail.
        let mut cursor: Vec<u32> = new_offsets[..n].to_vec();
        for (v, cur) in cursor.iter_mut().enumerate() {
            let row = &self.neighbors[self.offsets[v] as usize..self.offsets[v + 1] as usize];
            let at = *cur as usize;
            new_neighbors[at..at + row.len()].copy_from_slice(row);
            *cur += row.len() as u32;
        }
        for &(a, b) in &self.pending {
            new_neighbors[cursor[a.index()] as usize] = b;
            cursor[a.index()] += 1;
            new_neighbors[cursor[b.index()] as usize] = a;
            cursor[b.index()] += 1;
        }
        // Restore per-row sortedness where the tail grew.
        let mut touched: Vec<u32> = Vec::with_capacity(self.pending.len() * 2);
        for &(a, b) in &self.pending {
            touched.push(a.0);
            touched.push(b.0);
        }
        touched.sort_unstable();
        touched.dedup();
        for v in touched {
            let v = v as usize;
            new_neighbors[new_offsets[v] as usize..new_offsets[v + 1] as usize].sort_unstable();
        }
        self.offsets = new_offsets;
        self.neighbors = new_neighbors;
        self.pending.clear();
    }

    #[inline]
    fn assert_finalized(&self) {
        debug_assert!(
            self.pending.is_empty(),
            "graph read before finalize(): {} buffered edge(s)",
            self.pending.len()
        );
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges (each undirected edge counted once; includes buffered
    /// edges).
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Neighbours of `v`: a contiguous sorted slice, possibly with
    /// duplicates for parallel edges. Requires a finalized graph.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        self.assert_finalized();
        &self.neighbors[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }

    /// Degree of `v` (counting parallel edges). Requires a finalized graph.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.assert_finalized();
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// `true` iff `a` and `b` are adjacent (binary search over the sorted
    /// row). Requires a finalized graph.
    #[inline]
    pub fn has_edge(&self, a: NodeId, b: NodeId) -> bool {
        self.neighbors(a).binary_search(&b).is_ok()
    }

    /// Iterate over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// The CSR arrays `(offsets, neighbors, edge_count)`, for
    /// snapshotting. Requires a finalized graph (a snapshot of buffered
    /// edges would not round-trip through [`Graph::from_csr_parts`]).
    pub fn csr_parts(&self) -> (&[u32], &[NodeId], usize) {
        assert!(self.is_finalized(), "snapshot requires a finalized graph");
        (&self.offsets, &self.neighbors, self.edge_count)
    }

    /// Rebuild a finalized graph from snapshotted CSR arrays (the inverse
    /// of [`Graph::csr_parts`]).
    ///
    /// # Panics
    /// If the CSR invariants are violated (empty or non-monotone offsets,
    /// neighbour array length mismatch, out-of-range neighbour ids).
    pub fn from_csr_parts(offsets: Vec<u32>, neighbors: Vec<NodeId>, edge_count: usize) -> Self {
        assert!(!offsets.is_empty(), "offsets never empty");
        assert_eq!(offsets[0], 0, "offsets must start at 0");
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "offsets monotone");
        assert_eq!(
            *offsets.last().expect("non-empty") as usize,
            neighbors.len(),
            "offsets must cover the neighbour array"
        );
        let n = offsets.len() - 1;
        assert!(
            neighbors.iter().all(|v| v.index() < n),
            "neighbour id out of range"
        );
        Graph {
            offsets,
            neighbors,
            pending: Vec::new(),
            edge_count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> (Graph, [NodeId; 3]) {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.finalize();
        (g, [a, b, c])
    }

    #[test]
    fn counts_and_degrees() {
        let (g, [a, b, c]) = path3();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.degree(a), 1);
        assert_eq!(g.degree(b), 2);
        assert_eq!(g.degree(c), 1);
    }

    #[test]
    fn adjacency_is_sorted_and_searchable() {
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..5).map(|_| g.add_node()).collect();
        g.add_edge(nodes[0], nodes[3]);
        g.add_edge(nodes[0], nodes[1]);
        g.add_edge(nodes[0], nodes[4]);
        g.add_edge(nodes[0], nodes[2]);
        g.finalize();
        let neigh = g.neighbors(nodes[0]);
        assert!(neigh.windows(2).all(|w| w[0] <= w[1]));
        assert!(g.has_edge(nodes[0], nodes[2]));
        assert!(!g.has_edge(nodes[1], nodes[2]));
    }

    #[test]
    fn parallel_edges_increase_weight() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        g.add_edge(a, b);
        g.finalize();
        assert_eq!(g.degree(a), 2);
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn rejects_self_loop() {
        let mut g = Graph::new();
        let a = g.add_node();
        g.add_edge(a, a);
    }

    #[test]
    fn incremental_finalize_matches_batch_build() {
        // Same edges in one batch vs several finalize rounds interleaved
        // with node growth: identical CSR contents.
        let edges = [(0u32, 3u32), (1, 2), (0, 1), (3, 1), (2, 0), (4, 2)];
        let mut batch = Graph::new();
        for _ in 0..5 {
            batch.add_node();
        }
        for &(a, b) in &edges {
            batch.add_edge(NodeId(a), NodeId(b));
        }
        batch.finalize();

        let mut inc = Graph::new();
        for _ in 0..4 {
            inc.add_node();
        }
        for &(a, b) in &edges[..3] {
            inc.add_edge(NodeId(a), NodeId(b));
        }
        inc.finalize();
        inc.add_node();
        for &(a, b) in &edges[3..] {
            inc.add_edge(NodeId(a), NodeId(b));
        }
        inc.finalize();

        assert_eq!(batch.edge_count(), inc.edge_count());
        for v in batch.node_ids() {
            assert_eq!(batch.neighbors(v), inc.neighbors(v), "row of {v:?}");
        }
    }

    #[test]
    fn finalize_is_idempotent_and_add_node_keeps_finalized() {
        let (mut g, [a, _, _]) = path3();
        assert!(g.is_finalized());
        let before = g.neighbors(a).to_vec();
        g.finalize();
        g.finalize();
        assert_eq!(g.neighbors(a), before.as_slice());
        let d = g.add_node();
        assert!(g.is_finalized(), "node growth must not require finalize");
        assert_eq!(g.degree(d), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before finalize")]
    fn debug_read_of_unfinalized_graph_panics() {
        let mut g = Graph::new();
        let a = g.add_node();
        let b = g.add_node();
        g.add_edge(a, b);
        let _ = g.neighbors(a); // not finalized yet
    }
}
