//! A dynamic-graph mutation layer over the CSR substrate.
//!
//! The paper's algorithms color a *static* graph, but serving workloads see
//! edges arriving and leaving continuously. [`DynamicGraph`] applies
//! insert/delete batches ([`UpdateBatch`]) to a [`Graph`] CSR it owns and
//! maintains a **stable edge identity**: every edge ever inserted gets a
//! stable [`EdgeId`] that survives arbitrary later mutations, while the
//! underlying CSR keeps its dense `0..m` internal ids.
//! Each committed batch yields a [`BatchDiff`] describing exactly how the
//! dense id space moved, which is what the incremental recoloring layer
//! (`edgecolor::recolor`) and the incremental verifier
//! (`edgecolor_verify::check_delta`) consume.
//!
//! Batches are applied atomically: if any operation in the batch is invalid
//! (unknown stable id, self loop, duplicate edge) the whole batch is rejected
//! and the graph is left untouched. Within a batch, deletions are applied
//! before insertions, so a batch may delete an edge `{u, v}` and re-insert it
//! (the re-inserted edge receives a *fresh* stable id).
//!
//! A batch of `k` operations costs `O(k · Δ)`, not `O(n + m)`: the CSR is
//! edited in place. Validation probes the live graph with
//! [`Graph::edge_between`] plus a batch-local set, a deletion unlinks the
//! edge from its two endpoints' adjacency slots and keeps internal ids dense
//! by *swap-remove* (the edge with the last internal id takes the freed
//! id), and an insertion is linked into its endpoints' slots at the sorted
//! position and appended under the next internal id. Only an insert into a
//! slot with no slack left pays an `O(n + m)` re-layout, which grants every
//! node fresh slack. Δ is maintained by the graph's degree histogram, so
//! [`Graph::max_degree`] stays `O(1)`. [`BatchDiff::moves`] reports the
//! `O(k)` internal ids that moved, which is all a maintained per-edge
//! array (the coloring of `edgecolor::recolor`) needs to follow the batch.

use crate::coloring::EdgeColoring;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::{EdgeId, NodeId};
use std::collections::{HashMap, HashSet};

/// One atomic batch of edge mutations.
///
/// Deletions refer to **stable** edge ids (as returned in
/// [`BatchDiff::inserted`] or assigned at construction time); insertions are
/// raw endpoint pairs. Deletions are applied before insertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateBatch {
    /// Stable ids of edges to remove.
    pub delete: Vec<EdgeId>,
    /// Endpoint pairs of edges to add.
    pub insert: Vec<(usize, usize)>,
}

impl UpdateBatch {
    /// A batch with no operations.
    pub fn empty() -> Self {
        UpdateBatch::default()
    }

    /// Returns `true` if the batch performs no mutation.
    pub fn is_empty(&self) -> bool {
        self.delete.is_empty() && self.insert.is_empty()
    }

    /// Total number of operations in the batch.
    pub fn len(&self) -> usize {
        self.delete.len() + self.insert.len()
    }
}

/// The result of committing one [`UpdateBatch`]: how the dense (internal) edge
/// id space of the CSR moved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchDiff {
    /// Number of edges before the batch.
    pub old_m: usize,
    /// Number of edges after the batch.
    pub new_m: usize,
    /// Stable ids of the deleted edges (batch order, deduplicated).
    pub deleted: Vec<EdgeId>,
    /// Stable ids assigned to the inserted edges (batch order).
    pub inserted: Vec<EdgeId>,
    /// New **internal** ids of the inserted edges (batch order; parallel to
    /// `inserted`). These are the "dirty" edges a local repair must color;
    /// they are always the top ids `new_m − inserted.len() .. new_m`.
    pub inserted_internal: Vec<EdgeId>,
    /// The surviving edges whose internal id changed, as `(old, new)`
    /// pairs sorted by `new`. Every other survivor keeps its id. Each `old`
    /// is at least `old_m − deleted.len()` and each `new` below it, so the
    /// pairs can be applied to a per-edge array in place, in any order.
    pub moves: Vec<(EdgeId, EdgeId)>,
    /// Endpoints touched by the batch (sorted, deduplicated): the nodes whose
    /// incident edge set changed.
    pub touched_nodes: Vec<NodeId>,
}

impl BatchDiff {
    /// Carries a coloring of the pre-batch graph over to the post-batch dense
    /// id space in place, in `O(|batch|)`: surviving edges keep their
    /// colors, inserted edges are uncolored.
    ///
    /// # Panics
    ///
    /// Panics if `coloring` does not have exactly [`BatchDiff::old_m`]
    /// entries.
    pub fn carry_in_place(&self, coloring: &mut EdgeColoring) {
        assert_eq!(
            coloring.len(),
            self.old_m,
            "coloring does not match the pre-batch edge count"
        );
        for &(old, new) in &self.moves {
            match coloring.color(old) {
                Some(c) => coloring.set(new, c),
                None => coloring.unset(new),
            }
        }
        coloring.resize(self.old_m - self.deleted.len());
        coloring.resize(self.new_m);
    }
}

/// An undirected simple graph under edge insert/delete batches, with stable
/// edge identities layered over the dense CSR ids of [`Graph`].
///
/// # Examples
///
/// ```
/// use distgraph::{DynamicGraph, UpdateBatch};
///
/// let mut dg = DynamicGraph::new(4);
/// let diff = dg
///     .apply(&UpdateBatch { delete: vec![], insert: vec![(0, 1), (1, 2)] })
///     .unwrap();
/// assert_eq!(dg.graph().m(), 2);
/// // Delete the first edge by its stable id; the second edge keeps its
/// // stable id even though its internal (dense) id shifts to 0.
/// let stable = diff.inserted[1];
/// let diff2 = dg
///     .apply(&UpdateBatch { delete: vec![diff.inserted[0]], insert: vec![] })
///     .unwrap();
/// assert_eq!(dg.graph().m(), 1);
/// assert_eq!(dg.internal_id(stable), Some(distgraph::EdgeId::new(0)));
/// // Swap-remove: the last edge took the freed internal id 0.
/// let moved = (distgraph::EdgeId::new(1), distgraph::EdgeId::new(0));
/// assert_eq!(diff2.moves, vec![moved]);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    graph: Graph,
    /// Internal (dense) id → stable id; length `m`.
    stable_of: Vec<EdgeId>,
    /// Stable id → internal id for the edges currently alive.
    internal_of: HashMap<EdgeId, EdgeId>,
    /// Next never-used stable id.
    next_stable: usize,
}

impl DynamicGraph {
    /// An edgeless dynamic graph on `n` nodes.
    pub fn new(n: usize) -> Self {
        DynamicGraph {
            graph: Graph::from_edges(n, &[]).expect("edgeless graph is valid"),
            stable_of: Vec::new(),
            internal_of: HashMap::new(),
            next_stable: 0,
        }
    }

    /// Wraps an existing static graph; every edge's stable id starts equal to
    /// its internal id.
    pub fn from_graph(graph: Graph) -> Self {
        let m = graph.m();
        let stable_of: Vec<EdgeId> = (0..m).map(EdgeId::new).collect();
        let internal_of = stable_of.iter().map(|&e| (e, e)).collect();
        DynamicGraph {
            graph,
            stable_of,
            internal_of,
            next_stable: m,
        }
    }

    /// Reconstructs a dynamic graph from its saved parts: the CSR graph,
    /// the internal-id → stable-id table (length `m`) and the next stable id
    /// to assign. This is the binary-snapshot restore path (`diststore`).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidCsr`] if the table's length does not
    /// match the graph's edge count, a stable id repeats, or a stable id is
    /// `>= next_stable` — each of which a corrupted snapshot could encode.
    pub fn from_saved(
        graph: Graph,
        stable_of: Vec<EdgeId>,
        next_stable: usize,
    ) -> Result<Self, GraphError> {
        if stable_of.len() != graph.m() {
            return Err(GraphError::InvalidCsr {
                detail: format!(
                    "stable-id table has {} entries for {} edges",
                    stable_of.len(),
                    graph.m()
                ),
            });
        }
        let mut internal_of = HashMap::with_capacity(stable_of.len());
        for (internal, &stable) in stable_of.iter().enumerate() {
            if stable.index() >= next_stable {
                return Err(GraphError::InvalidCsr {
                    detail: format!(
                        "stable id {stable} is not below the next-stable watermark {next_stable}"
                    ),
                });
            }
            if internal_of.insert(stable, EdgeId::new(internal)).is_some() {
                return Err(GraphError::InvalidCsr {
                    detail: format!("stable id {stable} assigned to two edges"),
                });
            }
        }
        Ok(DynamicGraph {
            graph,
            stable_of,
            internal_of,
            next_stable,
        })
    }

    /// The current CSR snapshot. Internal (dense) ids of this graph are only
    /// valid until the next [`DynamicGraph::apply`] call.
    #[inline]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The internal-id → stable-id table (length `m`), in internal id
    /// order — together with [`DynamicGraph::next_stable_id`] this is the
    /// state a binary snapshot persists.
    #[inline]
    pub fn stable_table(&self) -> &[EdgeId] {
        &self.stable_of
    }

    /// The next never-used stable id.
    #[inline]
    pub fn next_stable_id(&self) -> usize {
        self.next_stable
    }

    /// Number of nodes (fixed for the lifetime of the dynamic graph).
    #[inline]
    pub fn n(&self) -> usize {
        self.graph.n()
    }

    /// Number of currently live edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.graph.m()
    }

    /// The stable id of the edge with internal id `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e` is out of range for the current graph.
    #[inline]
    pub fn stable_id(&self, e: EdgeId) -> EdgeId {
        self.stable_of[e.index()]
    }

    /// The current internal id of the edge with stable id `stable`, or `None`
    /// if that edge is not alive.
    #[inline]
    pub fn internal_id(&self, stable: EdgeId) -> Option<EdgeId> {
        self.internal_of.get(&stable).copied()
    }

    /// Returns `true` if the edge with stable id `stable` is currently alive.
    pub fn is_live(&self, stable: EdgeId) -> bool {
        self.internal_of.contains_key(&stable)
    }

    /// Iterator over the stable ids of the live edges, in internal id order.
    pub fn stable_edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.stable_of.iter().copied()
    }

    /// Endpoints of a live edge addressed by stable id.
    pub fn endpoints_stable(&self, stable: EdgeId) -> Option<(NodeId, NodeId)> {
        self.internal_id(stable).map(|e| self.graph.endpoints(e))
    }

    /// Applies one batch atomically: all deletions, then all insertions.
    ///
    /// # Errors
    ///
    /// The whole batch is rejected (and the graph left untouched) if any
    /// deletion names a stable id that is not alive (or repeats within the
    /// batch), or any insertion is a self loop, out of range, or duplicates an
    /// edge that exists after the deletions (including earlier insertions of
    /// the same batch).
    ///
    /// # Examples
    ///
    /// ```
    /// use distgraph::{DynamicGraph, EdgeId, Graph, UpdateBatch};
    ///
    /// let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
    /// let mut dg = DynamicGraph::from_graph(g);
    /// let diff = dg.apply(&UpdateBatch {
    ///     delete: vec![EdgeId::new(1)],     // drop (1,2) by stable id
    ///     insert: vec![(0, 3)],             // close the path into a cycle
    /// })?;
    /// assert_eq!(dg.m(), 3);
    /// assert_eq!(diff.inserted.len(), 1);
    /// // Survivors keep their identity across the id compaction:
    /// assert!(dg.is_live(EdgeId::new(0)));
    /// assert!(!dg.is_live(EdgeId::new(1)));
    ///
    /// // Invalid batches are rejected atomically — the graph is untouched.
    /// let before = dg.graph().clone();
    /// assert!(dg.apply(&UpdateBatch { delete: vec![EdgeId::new(1)], insert: vec![] }).is_err());
    /// assert_eq!(dg.graph(), &before);
    /// # Ok::<(), distgraph::GraphError>(())
    /// ```
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<BatchDiff, GraphError> {
        let n = self.n();
        let old_m = self.m();

        // Validate the whole batch before touching anything, so a rejected
        // batch leaves the graph as it was. Deletions first...
        let mut doomed: HashSet<EdgeId> = HashSet::with_capacity(batch.delete.len());
        for &stable in &batch.delete {
            let internal = self
                .internal_id(stable)
                .ok_or(GraphError::UnknownEdge { id: stable.index() })?;
            if !doomed.insert(internal) {
                return Err(GraphError::UnknownEdge { id: stable.index() });
            }
        }
        // ...then insertions against the post-deletion edge set: a live
        // edge blocks an insert unless this batch deletes it.
        let mut fresh: HashSet<(usize, usize)> = HashSet::with_capacity(batch.insert.len());
        for &(u, v) in &batch.insert {
            if u >= n {
                return Err(GraphError::NodeOutOfRange { node: u, n });
            }
            if v >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            let live = self
                .graph
                .edge_between(NodeId::new(u), NodeId::new(v))
                .is_some_and(|e| !doomed.contains(&e));
            if live || !fresh.insert((u.min(v), u.max(v))) {
                return Err(GraphError::DuplicateEdge { u, v });
            }
        }

        // Deletions, in batch order, by swap-remove. `origin` tracks the
        // pre-batch id of every survivor that moved, keyed by its current id.
        let mut touched: Vec<NodeId> = Vec::with_capacity(2 * batch.len());
        let mut origin: HashMap<EdgeId, EdgeId> = HashMap::new();
        for &stable in &batch.delete {
            let e = self
                .internal_of
                .remove(&stable)
                .expect("validated deletion is live");
            let (u, v) = self.graph.endpoints(e);
            touched.extend([u, v]);
            origin.remove(&e);
            self.stable_of.swap_remove(e.index());
            if let Some(last) = self.graph.swap_remove_edge(e) {
                let first = origin.remove(&last).unwrap_or(last);
                origin.insert(e, first);
                self.internal_of.insert(self.stable_of[e.index()], e);
            }
        }
        let mut moves: Vec<(EdgeId, EdgeId)> =
            origin.into_iter().map(|(to, from)| (from, to)).collect();
        moves.sort_unstable_by_key(|&(_, to)| to);

        // Insertions, appended under the next internal ids.
        let mut inserted = Vec::with_capacity(batch.insert.len());
        let mut inserted_internal = Vec::with_capacity(batch.insert.len());
        for &(u, v) in &batch.insert {
            let (u, v) = (NodeId::new(u), NodeId::new(v));
            let e = self.graph.push_edge(u, v);
            let stable = EdgeId::new(self.next_stable);
            self.next_stable += 1;
            self.stable_of.push(stable);
            self.internal_of.insert(stable, e);
            inserted.push(stable);
            inserted_internal.push(e);
            touched.extend([u, v]);
        }
        touched.sort_unstable();
        touched.dedup();

        Ok(BatchDiff {
            old_m,
            new_m: self.m(),
            deleted: batch.delete.clone(),
            inserted,
            inserted_internal,
            moves,
            touched_nodes: touched,
        })
    }

    /// Checks the stable↔internal id bookkeeping invariants; intended for the
    /// fuzz-style test battery.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.stable_of.len() != self.graph.m() {
            return Err(format!(
                "stable_of has {} entries for {} edges",
                self.stable_of.len(),
                self.graph.m()
            ));
        }
        if self.internal_of.len() != self.stable_of.len() {
            return Err(format!(
                "internal_of has {} entries for {} live edges (stable ids not unique?)",
                self.internal_of.len(),
                self.stable_of.len()
            ));
        }
        for (i, &stable) in self.stable_of.iter().enumerate() {
            if stable.index() >= self.next_stable {
                return Err(format!(
                    "live stable id {stable} is not below the allocator watermark {}",
                    self.next_stable
                ));
            }
            match self.internal_of.get(&stable) {
                Some(&internal) if internal == EdgeId::new(i) => {}
                other => {
                    return Err(format!(
                        "stable id {stable} maps to {other:?}, expected internal e{i}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(delete: Vec<EdgeId>, insert: Vec<(usize, usize)>) -> UpdateBatch {
        UpdateBatch { delete, insert }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut dg = DynamicGraph::new(3);
        let diff = dg.apply(&UpdateBatch::empty()).unwrap();
        assert!(UpdateBatch::empty().is_empty());
        assert_eq!(UpdateBatch::empty().len(), 0);
        assert_eq!(diff.new_m, 0);
        assert!(diff.touched_nodes.is_empty());
        dg.validate().unwrap();
    }

    #[test]
    fn insert_then_delete_keeps_stable_ids() {
        let mut dg = DynamicGraph::new(5);
        let d1 = dg
            .apply(&batch(vec![], vec![(0, 1), (1, 2), (2, 3)]))
            .unwrap();
        assert_eq!(d1.inserted.len(), 3);
        assert_eq!(dg.m(), 3);
        let keep = d1.inserted[2];
        let d2 = dg
            .apply(&batch(vec![d1.inserted[0]], vec![(3, 4)]))
            .unwrap();
        assert_eq!(dg.m(), 3);
        // Edge (2,3) survived with a shifted internal id but the same stable id.
        let internal = dg.internal_id(keep).unwrap();
        assert_eq!(
            dg.graph().endpoints(internal),
            (NodeId::new(2), NodeId::new(3))
        );
        assert_eq!(dg.stable_id(internal), keep);
        // The deleted id is dead; the new edge got a fresh stable id.
        assert!(!dg.is_live(d1.inserted[0]));
        assert_eq!(d2.inserted[0], EdgeId::new(3));
        dg.validate().unwrap();
    }

    #[test]
    fn from_graph_seeds_identity_mapping() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let dg = DynamicGraph::from_graph(g);
        for e in dg.graph().edges() {
            assert_eq!(dg.stable_id(e), e);
            assert_eq!(dg.internal_id(e), Some(e));
            assert!(dg.is_live(e));
        }
        assert_eq!(dg.stable_edges().count(), 3);
        assert_eq!(
            dg.endpoints_stable(EdgeId::new(1)),
            Some((NodeId::new(1), NodeId::new(2)))
        );
        dg.validate().unwrap();
    }

    #[test]
    fn batch_is_atomic_on_error() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let mut dg = DynamicGraph::from_graph(g);
        let before = dg.graph().clone();
        // Valid delete followed by an invalid insert: nothing may change.
        let err = dg
            .apply(&batch(vec![EdgeId::new(0)], vec![(2, 2)]))
            .unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { node: 2 });
        assert_eq!(dg.graph(), &before);
        assert!(dg.is_live(EdgeId::new(0)));
        dg.validate().unwrap();
    }

    #[test]
    fn rejects_unknown_and_double_deletes() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let mut dg = DynamicGraph::from_graph(g);
        let err = dg.apply(&batch(vec![EdgeId::new(7)], vec![])).unwrap_err();
        assert_eq!(err, GraphError::UnknownEdge { id: 7 });
        let err = dg
            .apply(&batch(vec![EdgeId::new(0), EdgeId::new(0)], vec![]))
            .unwrap_err();
        assert_eq!(err, GraphError::UnknownEdge { id: 0 });
        assert_eq!(dg.m(), 1);
    }

    #[test]
    fn rejects_duplicate_inserts_against_live_and_batch_edges() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let mut dg = DynamicGraph::from_graph(g);
        assert_eq!(
            dg.apply(&batch(vec![], vec![(1, 0)])).unwrap_err(),
            GraphError::DuplicateEdge { u: 1, v: 0 }
        );
        assert_eq!(
            dg.apply(&batch(vec![], vec![(1, 2), (2, 1)])).unwrap_err(),
            GraphError::DuplicateEdge { u: 2, v: 1 }
        );
        assert_eq!(
            dg.apply(&batch(vec![], vec![(0, 9)])).unwrap_err(),
            GraphError::NodeOutOfRange { node: 9, n: 3 }
        );
    }

    #[test]
    fn delete_then_reinsert_in_one_batch_gets_fresh_id() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let mut dg = DynamicGraph::from_graph(g);
        let diff = dg
            .apply(&batch(vec![EdgeId::new(0)], vec![(0, 1)]))
            .unwrap();
        assert_eq!(diff.deleted, vec![EdgeId::new(0)]);
        assert_eq!(diff.inserted, vec![EdgeId::new(1)]);
        assert_eq!(dg.m(), 1);
        assert!(!dg.is_live(EdgeId::new(0)));
        assert!(dg.is_live(EdgeId::new(1)));
        dg.validate().unwrap();
    }

    #[test]
    fn diff_reports_touched_nodes_and_survivors() {
        let g = Graph::from_edges(5, &[(0, 1), (1, 2), (3, 4)]).unwrap();
        let mut dg = DynamicGraph::from_graph(g);
        let diff = dg
            .apply(&batch(vec![EdgeId::new(1)], vec![(0, 4)]))
            .unwrap();
        assert_eq!(diff.old_m, 3);
        assert_eq!(diff.new_m, 3);
        // Swap-remove: the last edge (3,4) took the deleted edge's id 1;
        // edge 0 kept its id.
        assert_eq!(diff.moves, vec![(EdgeId::new(2), EdgeId::new(1))]);
        assert_eq!(
            dg.graph().endpoints(EdgeId::new(1)),
            (NodeId::new(3), NodeId::new(4))
        );
        assert_eq!(diff.inserted_internal, vec![EdgeId::new(2)]);
        let touched: Vec<usize> = diff.touched_nodes.iter().map(|v| v.index()).collect();
        assert_eq!(touched, vec![0, 1, 2, 4]);
    }

    #[test]
    fn carry_coloring_preserves_survivors_and_blanks_inserts() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        let mut dg = DynamicGraph::from_graph(g);
        let mut coloring = EdgeColoring::empty(3);
        coloring.set(EdgeId::new(0), 5);
        coloring.set(EdgeId::new(1), 6);
        coloring.set(EdgeId::new(2), 7);
        let diff = dg
            .apply(&batch(vec![EdgeId::new(1)], vec![(0, 2)]))
            .unwrap();
        diff.carry_in_place(&mut coloring);
        assert_eq!(coloring.len(), 3);
        assert_eq!(coloring.color(EdgeId::new(0)), Some(5)); // old e0
        assert_eq!(coloring.color(EdgeId::new(1)), Some(7)); // old e2 moved down
        assert_eq!(coloring.color(EdgeId::new(2)), None); // the inserted edge
    }

    #[test]
    fn chained_moves_report_the_pre_batch_id() {
        // Deleting e3 moves e4 into id 3; deleting e1 then moves that same
        // edge (now last) into id 1; deleting e2 (now last) moves nothing.
        // Only the net move of the survivor, 4 → 1, is reported.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]).unwrap();
        let mut dg = DynamicGraph::from_graph(g.clone());
        let mut coloring = EdgeColoring::from_vec((0..5).map(Some).collect());
        let diff = dg
            .apply(&batch(
                vec![EdgeId::new(3), EdgeId::new(1), EdgeId::new(2)],
                vec![(0, 5)],
            ))
            .unwrap();
        assert_eq!(diff.moves, vec![(EdgeId::new(4), EdgeId::new(1))]);
        diff.carry_in_place(&mut coloring);
        assert_eq!(coloring.len(), 3);
        assert_eq!(coloring.color(EdgeId::new(0)), Some(0));
        assert_eq!(coloring.color(EdgeId::new(1)), Some(4));
        assert_eq!(coloring.color(EdgeId::new(2)), None);
        assert_eq!(dg.internal_id(EdgeId::new(4)), Some(EdgeId::new(1)));
        dg.validate().unwrap();
    }

    #[test]
    fn full_slots_relayout_and_stay_logically_equal() {
        // Every slot of a static graph is tight; inserts into full slots
        // re-lay the adjacency out and the graph still equals a rebuild.
        let g = crate::generators::grid_torus(4, 4);
        assert_eq!(g.csr_offsets(), g.degree_offsets().as_slice());
        let mut dg = DynamicGraph::from_graph(g);
        let hub: Vec<(usize, usize)> = [2, 5, 6, 7, 8, 9, 10, 11, 13, 14]
            .into_iter()
            .map(|v| (0, v))
            .collect();
        dg.apply(&batch(vec![], hub)).unwrap();
        assert_ne!(
            dg.graph().csr_offsets(),
            dg.graph().degree_offsets().as_slice()
        );
        let live: Vec<(usize, usize)> = dg
            .graph()
            .edge_list()
            .into_iter()
            .map(|(_, u, v)| (u.index(), v.index()))
            .collect();
        let rebuilt = Graph::from_edges(dg.n(), &live).unwrap();
        assert_eq!(dg.graph(), &rebuilt);
        assert_eq!(dg.graph().max_degree(), 14);
        dg.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "pre-batch edge count")]
    fn carry_coloring_rejects_wrong_length() {
        let g = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let mut dg = DynamicGraph::from_graph(g);
        let diff = dg.apply(&UpdateBatch::empty()).unwrap();
        diff.carry_in_place(&mut EdgeColoring::empty(5));
    }
}
