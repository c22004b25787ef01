//! Fuzz-style property tests for the dynamic-graph mutation layer.
//!
//! Arbitrary interleavings of insert/delete batches are replayed against a
//! naive model (a hash set of endpoint pairs plus an append-only stable-id
//! ledger); after every batch the CSR invariants and the stable↔internal
//! `EdgeId` bijection must hold, and the graph must agree with the model
//! edge for edge. The in-place `apply` is model-checked on top: the edited
//! (possibly slack-carrying) graph must equal a tight `Graph::from_edges`
//! rebuild of its live edges, its tracked Δ must equal a recount, and the
//! diff's id moves must map every survivor to its new internal id. Mirrors
//! the style of `crates/graph/tests/properties.rs`.

use distgraph::{generators, DynamicGraph, EdgeId, Graph, NodeId, UpdateBatch};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// One raw fuzz operation; indices are resolved against the live state when
/// the batch is materialized, so every generated batch is *valid* (invalid
/// batches are exercised separately — they must be rejected atomically).
#[derive(Debug, Clone)]
enum RawOp {
    /// Delete the live edge with index `pick % m` (skipped when empty).
    Delete(usize),
    /// Insert the non-edge derived from `(a, b)` (skipped when it collides).
    Insert(usize, usize),
}

fn raw_ops() -> impl Strategy<Value = Vec<(usize, RawOp)>> {
    // (batch boundary selector, op) pairs: `boundary % 4 == 0` starts a new
    // batch, so interleavings of batch sizes 1..~8 are all exercised.
    proptest::collection::vec((0usize..4, (0usize..3).prop_flat_map(op_strategy)), 1..60)
}

fn op_strategy(kind: usize) -> BoxedOpStrategy {
    BoxedOpStrategy { kind }
}

/// A tiny hand-rolled strategy: the compat proptest has no `prop_oneof`, so
/// the op kind is drawn as an integer and elaborated here.
#[derive(Debug, Clone)]
struct BoxedOpStrategy {
    kind: usize,
}

impl Strategy for BoxedOpStrategy {
    type Value = RawOp;

    fn generate(&self, rng: &mut proptest::test_runner::TestRng) -> RawOp {
        use rand::Rng;
        match self.kind {
            0 => RawOp::Delete(rng.gen_range(0..1024)),
            _ => RawOp::Insert(rng.gen_range(0..1024), rng.gen_range(0..1024)),
        }
    }
}

/// The naive reference model: endpoint pairs of live edges, keyed by stable
/// id, plus the expected next stable id.
struct Model {
    n: usize,
    live: HashMap<EdgeId, (usize, usize)>,
    present: HashSet<(usize, usize)>,
    next_stable: usize,
}

impl Model {
    fn from_graph(g: &Graph) -> Self {
        let mut live = HashMap::new();
        let mut present = HashSet::new();
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            live.insert(e, (u.index(), v.index()));
            present.insert((u.index(), v.index()));
        }
        Model {
            n: g.n(),
            live,
            present,
            next_stable: g.m(),
        }
    }

    /// Materializes raw ops into a valid batch and applies it to the model.
    fn build_and_apply(&mut self, ops: &[RawOp]) -> UpdateBatch {
        let mut batch = UpdateBatch::empty();
        let mut doomed: HashSet<EdgeId> = HashSet::new();
        let mut added: HashSet<(usize, usize)> = HashSet::new();
        for op in ops {
            match *op {
                RawOp::Delete(pick) => {
                    let mut alive: Vec<EdgeId> = self
                        .live
                        .keys()
                        .copied()
                        .filter(|s| !doomed.contains(s))
                        .collect();
                    alive.sort_unstable();
                    if alive.is_empty() {
                        continue;
                    }
                    let stable = alive[pick % alive.len()];
                    doomed.insert(stable);
                    batch.delete.push(stable);
                }
                RawOp::Insert(a, b) => {
                    let (u, v) = (a % self.n, b % self.n);
                    if u == v {
                        continue;
                    }
                    let key = (u.min(v), u.max(v));
                    let deleted_now = doomed.iter().any(|s| self.live[s] == key);
                    let occupied =
                        (self.present.contains(&key) && !deleted_now) || added.contains(&key);
                    if occupied {
                        continue;
                    }
                    added.insert(key);
                    batch.insert.push(key);
                }
            }
        }
        // Apply to the model.
        for stable in &batch.delete {
            let key = self.live.remove(stable).expect("model tracked the edge");
            self.present.remove(&key);
        }
        for &key in &batch.insert {
            let stable = EdgeId::new(self.next_stable);
            self.next_stable += 1;
            self.live.insert(stable, key);
            self.present.insert(key);
        }
        batch
    }
}

/// Checks the CSR invariants of the current snapshot plus the stable-id
/// bijection, and compares the graph against the model.
fn assert_consistent(dg: &DynamicGraph, model: &Model) {
    let g = dg.graph();
    dg.validate().expect("stable-id bookkeeping");

    // CSR invariants (as in properties.rs): degree sums, sorted adjacency,
    // neighbor/endpoint cross-consistency.
    assert_eq!(g.degree_sum(), 2 * g.m(), "handshake lemma");
    for v in g.nodes() {
        let slice = g.neighbors(v);
        assert_eq!(slice.len(), g.degree(v));
        for pair in slice.windows(2) {
            assert!(pair[0].node < pair[1].node, "adjacency not sorted at {v}");
        }
        for nb in slice {
            assert!(g.is_endpoint(nb.edge, v));
            assert_eq!(g.other_endpoint(nb.edge, v), nb.node);
            assert_eq!(g.edge_between(v, nb.node), Some(nb.edge));
        }
    }

    // EdgeId bijection: stable → internal → stable round-trips, and the
    // graph's edge set equals the model's, endpoint for endpoint.
    assert_eq!(g.m(), model.live.len(), "edge count diverged from model");
    for (stable, &(u, v)) in &model.live {
        let internal = dg
            .internal_id(*stable)
            .unwrap_or_else(|| panic!("model edge {stable} not live in the graph"));
        assert_eq!(dg.stable_id(internal), *stable, "bijection broken");
        assert_eq!(
            dg.endpoints_stable(*stable),
            Some((NodeId::new(u), NodeId::new(v)))
        );
        assert_eq!(g.endpoints(internal), (NodeId::new(u), NodeId::new(v)));
    }

    // The in-place layout is logically the tight rebuild of its live edges
    // (same ids, same sorted adjacency), and the tracked Δ is exact.
    let live: Vec<(usize, usize)> = g
        .edge_list()
        .into_iter()
        .map(|(_, u, v)| (u.index(), v.index()))
        .collect();
    let rebuilt = Graph::from_edges(g.n(), &live).expect("live edges form a simple graph");
    assert_eq!(g, &rebuilt, "in-place graph differs from its rebuild");
    let recount = g.nodes().map(|v| g.degree(v)).max().unwrap_or(0);
    assert_eq!(g.max_degree(), recount, "tracked Δ drifted");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn interleaved_batches_preserve_all_invariants(
        (seed_graph, ops) in (0u64..4, 6usize..14).prop_flat_map(|(shape, size)| {
            (Just((shape, size)), raw_ops())
        })
    ) {
        let (shape, size) = seed_graph;
        let g = match shape {
            0 => generators::grid_torus(3.max(size / 2), 3.max(size / 2)),
            1 => generators::path(size * 2),
            2 => generators::random_tree(size * 3, 7 + size as u64),
            _ => generators::erdos_renyi(size * 2, 0.3, size as u64),
        };
        let mut model = Model::from_graph(&g);
        let mut dg = DynamicGraph::from_graph(g);
        assert_consistent(&dg, &model);

        // Split the op stream into batches at the generated boundaries.
        let mut batches: Vec<Vec<RawOp>> = vec![Vec::new()];
        for (boundary, op) in ops {
            if boundary == 0 && !batches.last().unwrap().is_empty() {
                batches.push(Vec::new());
            }
            batches.last_mut().unwrap().push(op);
        }

        for raw in &batches {
            let batch = model.build_and_apply(raw);
            let before: Vec<EdgeId> = dg.stable_table().to_vec();
            let diff = dg.apply(&batch).expect("materialized batches are valid");
            prop_assert_eq!(diff.deleted.len(), batch.delete.len());
            prop_assert_eq!(diff.inserted.len(), batch.insert.len());
            prop_assert_eq!(diff.new_m, model.live.len());
            // Moves: sorted by target, old ids from the vacated tail, new
            // ids below it, and together they map every survivor.
            let kept = diff.old_m - diff.deleted.len();
            for pair in diff.moves.windows(2) {
                prop_assert!(pair[0].1 < pair[1].1, "moves not sorted by target");
            }
            let moved: HashMap<EdgeId, EdgeId> = diff.moves.iter().copied().collect();
            for &(old, new) in &diff.moves {
                prop_assert!(old.index() >= kept && new.index() < kept);
            }
            for (old, stable) in before.iter().enumerate() {
                let old = EdgeId::new(old);
                let expected = if batch.delete.contains(stable) {
                    None
                } else {
                    Some(moved.get(&old).copied().unwrap_or(old))
                };
                prop_assert_eq!(dg.internal_id(*stable), expected, "survivor {} misplaced", stable);
            }
            let fresh: Vec<EdgeId> = (kept..diff.new_m).map(EdgeId::new).collect();
            prop_assert_eq!(&diff.inserted_internal, &fresh);
            assert_consistent(&dg, &model);
        }
    }

    #[test]
    fn invalid_batches_are_rejected_atomically(
        (n, pick, flip) in (4usize..20, 0usize..64, 0u8..3)
    ) {
        let g = generators::cycle(n);
        let mut dg = DynamicGraph::from_graph(g);
        let before_m = dg.m();
        let snapshot = dg.graph().clone();
        let bad = match flip {
            // Unknown stable id mixed into otherwise valid ops.
            0 => UpdateBatch {
                delete: vec![EdgeId::new(pick % n), EdgeId::new(n + 5)],
                insert: vec![(0, 2)],
            },
            // Duplicate of a live edge, after a valid delete elsewhere.
            1 => UpdateBatch {
                delete: vec![EdgeId::new(pick % n)],
                insert: vec![((pick + 2) % n, (pick + 3) % n)],
            },
            // Self loop at the end of a long valid prefix.
            _ => UpdateBatch {
                delete: vec![EdgeId::new(pick % n)],
                insert: vec![(0, 2), (1, 1)],
            },
        };
        // `flip == 1` deletes edge k = pick % n (connecting k and k+1) and
        // re-inserts a *different* live cycle edge, so it is always invalid.
        prop_assert!(dg.apply(&bad).is_err());
        prop_assert_eq!(dg.m(), before_m);
        prop_assert_eq!(dg.graph(), &snapshot);
        dg.validate().expect("rejection left the bookkeeping intact");
    }
}
