//! Round-trip properties of the binary snapshot format: everything that
//! goes in — graph structure, colorings, stable-id tables, permutations —
//! comes back bit-identical, whether served zero-copy or materialized.

use distgraph::{
    reorder_permutation, DynamicGraph, EdgeColoring, EdgeId, Graph, NodeId, ReorderStrategy,
    UpdateBatch,
};
use diststore::{LoadedSnapshot, Snapshot, SnapshotSource};
use proptest::prelude::*;

/// Random simple graph as used across the workspace's property suites.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (2usize..40).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n, 0..n), 0..max_edges.min(120)).prop_map(move |pairs| {
            let mut seen = std::collections::HashSet::new();
            let mut edges = Vec::new();
            for (u, v) in pairs {
                if u == v {
                    continue;
                }
                let key = (u.min(v), u.max(v));
                if seen.insert(key) {
                    edges.push(key);
                }
            }
            Graph::from_edges(n, &edges).expect("sanitized edges are valid")
        })
    })
}

/// A graph plus a partial coloring of roughly half its edges.
fn arb_colored_graph() -> impl Strategy<Value = (Graph, EdgeColoring)> {
    (arb_graph(), 0usize..1000).prop_map(|(g, salt)| {
        let mut coloring = EdgeColoring::empty(g.m());
        for e in g.edges() {
            if (e.index() + salt) % 3 != 0 {
                coloring.set(e, (e.index() * 7 + salt) % 11);
            }
        }
        (g, coloring)
    })
}

/// Asserts the zero-copy view serves exactly the graph's structure.
fn assert_view_matches(snapshot: &Snapshot, g: &Graph) {
    let view = snapshot.view();
    assert_eq!(view.n(), g.n());
    assert_eq!(view.m(), g.m());
    assert_eq!(view.max_degree(), g.max_degree());
    for v in g.nodes() {
        assert_eq!(view.degree(v), g.degree(v));
        let from_view: Vec<_> = view.neighbors(v).collect();
        assert_eq!(from_view.as_slice(), g.neighbors(v));
    }
    for e in g.edges() {
        assert_eq!(view.endpoints(e), g.endpoints(e));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn graph_structure_roundtrips(g in arb_graph()) {
        let bytes = SnapshotSource::graph(&g).encode().expect("encodes");
        let snapshot = Snapshot::from_bytes(bytes).expect("opens");
        assert_view_matches(&snapshot, &g);
        let loaded = LoadedSnapshot::load(&snapshot).expect("materializes");
        prop_assert_eq!(loaded.graph(), &g);
        prop_assert!(loaded.coloring().is_none());
        prop_assert!(loaded.permutation().is_none());
        prop_assert!(!loaded.has_stable_ids());
    }

    #[test]
    fn colorings_roundtrip((g, coloring) in arb_colored_graph()) {
        let bytes = SnapshotSource::graph(&g)
            .with_coloring(&coloring)
            .encode()
            .expect("encodes");
        let snapshot = Snapshot::from_bytes(bytes).expect("opens");
        let view = snapshot.view();
        prop_assert!(view.has_coloring());
        for e in g.edges() {
            prop_assert_eq!(view.color(e), coloring.color(e));
        }
        let loaded = LoadedSnapshot::load(&snapshot).expect("materializes");
        prop_assert_eq!(loaded.coloring(), Some(&coloring));
    }

    #[test]
    fn permutations_roundtrip(g in arb_graph(), strategy_pick in 0usize..3) {
        let strategy = [ReorderStrategy::Degree, ReorderStrategy::Bfs, ReorderStrategy::Rcm]
            [strategy_pick];
        let perm = reorder_permutation(&g, strategy);
        let reordered = g.renumber_nodes(&perm);
        let bytes = SnapshotSource::graph(&reordered)
            .with_permutation(&perm)
            .encode()
            .expect("encodes");
        let snapshot = Snapshot::from_bytes(bytes).expect("opens");
        let view = snapshot.view();
        prop_assert!(view.has_permutation());
        for v in reordered.nodes() {
            prop_assert_eq!(view.original_id(v), Some(perm.old_id(v)));
        }
        let loaded = LoadedSnapshot::load(&snapshot).expect("materializes");
        prop_assert_eq!(loaded.permutation(), Some(&perm));
        prop_assert_eq!(loaded.graph(), &reordered);
    }

    #[test]
    fn dynamic_graphs_roundtrip_with_stable_ids(g in arb_graph(), delete_salt in 0usize..7) {
        // Build a dynamic graph, churn it (delete a stripe of edges, then
        // re-insert those pairs) so stable ids diverge from internal ids,
        // snapshot, and resume.
        let mut dynamic = DynamicGraph::from_graph(g.clone());
        let doomed: Vec<EdgeId> = g
            .edges()
            .filter(|e| e.index() % 5 == delete_salt % 5)
            .collect();
        if !doomed.is_empty() {
            let delete: Vec<EdgeId> = doomed.iter().map(|&e| dynamic.stable_id(e)).collect();
            let pairs: Vec<(usize, usize)> = doomed
                .iter()
                .map(|&e| {
                    let (u, v) = g.endpoints(e);
                    (u.index(), v.index())
                })
                .collect();
            dynamic
                .apply(&UpdateBatch { delete, insert: vec![] })
                .expect("deleting live edges succeeds");
            dynamic
                .apply(&UpdateBatch { delete: vec![], insert: pairs })
                .expect("re-inserting deleted pairs succeeds");
        }
        let bytes = SnapshotSource::dynamic(&dynamic).encode().expect("encodes");
        let snapshot = Snapshot::from_bytes(bytes).expect("opens");
        let view = snapshot.view();
        prop_assert!(view.has_stable_ids());
        prop_assert_eq!(view.next_stable_id(), dynamic.next_stable_id());
        for e in dynamic.graph().edges() {
            prop_assert_eq!(view.stable_id(e), Some(dynamic.stable_id(e)));
        }
        let resumed = LoadedSnapshot::load(&snapshot)
            .expect("materializes")
            .into_dynamic()
            .expect("stable table is consistent");
        prop_assert_eq!(resumed.graph(), dynamic.graph());
        prop_assert_eq!(resumed.stable_table(), dynamic.stable_table());
        prop_assert_eq!(resumed.next_stable_id(), dynamic.next_stable_id());
    }

    #[test]
    fn text_edge_lists_roundtrip(g in arb_graph()) {
        let mut text = format!("p {} {}\n", g.n(), g.m());
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            text.push_str(&format!("{} {}\n", u.index(), v.index()));
        }
        let parsed = diststore::parse_edge_list(&text).expect("parses");
        prop_assert_eq!(parsed, g);
    }
}

#[test]
fn files_roundtrip_through_disk() {
    let g = distgraph::generators::grid_torus(12, 9);
    let coloring = {
        let mut c = EdgeColoring::empty(g.m());
        for e in g.edges() {
            c.set(e, e.index() % 5);
        }
        c
    };
    let path = std::env::temp_dir().join("diststore_disk_roundtrip.snap");
    SnapshotSource::graph(&g)
        .with_coloring(&coloring)
        .write_to(&path)
        .expect("writes");
    let snapshot = Snapshot::open(&path).expect("opens from disk");
    let loaded = LoadedSnapshot::load(&snapshot).expect("materializes");
    assert_eq!(loaded.graph(), &g);
    assert_eq!(loaded.coloring(), Some(&coloring));
    std::fs::remove_file(&path).ok();
}

#[test]
fn snapshot_without_stable_table_resumes_with_identity_ids() {
    let g = distgraph::generators::cycle(10);
    let snapshot = Snapshot::from_bytes(SnapshotSource::graph(&g).encode().unwrap()).unwrap();
    let dynamic = LoadedSnapshot::load(&snapshot)
        .unwrap()
        .into_dynamic()
        .unwrap();
    for e in g.edges() {
        assert_eq!(dynamic.stable_id(e), e);
    }
    assert_eq!(dynamic.next_stable_id(), g.m());
}

#[test]
fn empty_graph_roundtrips() {
    let g = Graph::from_edges(0, &[]).unwrap();
    let snapshot = Snapshot::from_bytes(SnapshotSource::graph(&g).encode().unwrap()).unwrap();
    assert_eq!(snapshot.view().n(), 0);
    assert_eq!(snapshot.view().m(), 0);
    let loaded = LoadedSnapshot::load(&snapshot).unwrap();
    assert_eq!(loaded.graph().n(), 0);
}

#[test]
fn view_serves_neighbors_in_graph_order() {
    let g = Graph::from_edges(5, &[(2, 4), (2, 0), (2, 3), (2, 1)]).unwrap();
    let snapshot = Snapshot::from_bytes(SnapshotSource::graph(&g).encode().unwrap()).unwrap();
    let order: Vec<usize> = snapshot
        .view()
        .neighbors(NodeId::new(2))
        .map(|nb| nb.node.index())
        .collect();
    assert_eq!(order, vec![0, 1, 3, 4]);
}

/// A dynamic graph whose adjacency carries slack (a delete's hole, and the
/// per-node slack of a re-layout forced by inserts into full slots) encodes
/// to exactly the bytes of its tight reload: the format sees only the
/// logical graph.
#[test]
fn adjacency_slack_never_reaches_the_bytes() {
    let mut dynamic = DynamicGraph::from_graph(distgraph::generators::grid_torus(5, 6));
    let spokes: Vec<(usize, usize)> = [2, 3, 4, 7, 8, 9].iter().map(|&v| (0, v)).collect();
    dynamic
        .apply(&UpdateBatch {
            delete: vec![EdgeId::new(9)],
            insert: spokes,
        })
        .expect("valid batch");
    let g = dynamic.graph();
    assert_ne!(
        g.csr_offsets(),
        g.degree_offsets().as_slice(),
        "slack present"
    );

    let bytes = SnapshotSource::dynamic(&dynamic).encode().expect("encodes");
    let snapshot = Snapshot::from_bytes(bytes.clone()).expect("opens");
    let resumed = LoadedSnapshot::load(&snapshot)
        .expect("materializes")
        .into_dynamic()
        .expect("stable table is consistent");
    let tight = resumed.graph();
    assert_eq!(tight.csr_offsets(), tight.degree_offsets().as_slice());
    assert_eq!(tight, g);
    let reencoded = SnapshotSource::dynamic(&resumed).encode().expect("encodes");
    assert_eq!(reencoded, bytes);
}
