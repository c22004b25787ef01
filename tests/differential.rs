//! Differential test battery: independent implementations must agree with
//! the audited checkers, and the dynamic recoloring subsystem must be
//! checker-equivalent to recoloring from scratch.
//!
//! Two layers of cross-checking:
//!
//! 1. On a seeded generator matrix, the paper's LOCAL algorithm and every
//!    baseline (sequential greedy, Misra–Gries, distributed
//!    greedy-by-classes) are funneled through the *same*
//!    `edgecolor_verify` checkers with their respective palette bounds — a
//!    disagreement means either an algorithm or a checker regressed.
//! 2. After N random mutation batches, the locally repaired coloring and a
//!    from-scratch `color_edges_local` run on the final graph must pass the
//!    identical checker suite (properness, completeness, palette budget),
//!    and repairs must be **bit-identical** across
//!    `ExecutionPolicy::Sequential`, `Parallel{2,8}` and `Sharded{2,4,8}`.
//! 3. On the seeded generator matrix, full colorings produced under
//!    `Sharded{2,4,8}` (the partitioned execution substrate of
//!    `crates/shard`) must be bit-identical to the sequential reference.
//! 4. The compacted dirty-subgraph repair (`Recoloring::repair` and
//!    `SelfStabilizing::stabilize`) must be bit-identical — coloring,
//!    touched set, metrics — to a host-sized reference that colors the dirty
//!    edges on an edge subgraph keeping all `n` nodes, with the full ids.

use distgraph::generators::{self, Family, UpdateScenario, UpdateStream};
use distgraph::{DynamicGraph, EdgeColoring, EdgeId, Graph, ListAssignment};
use distsim::{ExecutionPolicy, IdAssignment, Metrics, Model};
use edgecolor::{
    color_edges_local, default_palette, list_edge_coloring, ColoringParams, Recoloring,
    SelfStabilizing,
};
use edgecolor_baselines as baselines;
use edgecolor_verify::{
    check_complete, check_delta, check_palette_size, check_proper_edge_coloring,
};
use proptest::prelude::*;

/// The seeded generator matrix shared by the differential properties.
fn matrix() -> Vec<(String, Graph)> {
    let mut graphs = Vec::new();
    for family in [
        Family::RegularBipartite,
        Family::ErdosRenyi,
        Family::PowerLaw,
        Family::GridTorus,
        Family::RandomTree,
    ] {
        for seed in [3u64, 17] {
            let g = family.generate(96, 6, seed);
            if g.m() > 0 {
                graphs.push((format!("{}(seed {seed})", family.name()), g));
            }
        }
    }
    graphs
}

#[test]
fn all_implementations_pass_the_same_checkers() {
    let params = ColoringParams::new(0.5);
    for (name, g) in matrix() {
        let ids = IdAssignment::scattered(g.n(), 5);
        let delta = g.max_degree();
        let two_delta = default_palette(delta);

        let ours = color_edges_local(&g, &ids, &params)
            .unwrap_or_else(|e| panic!("{name}: LOCAL coloring failed: {e}"));
        let greedy = baselines::greedy_sequential(&g);
        let vizing = baselines::misra_gries(&g);
        let classes = baselines::greedy_by_classes(&g, &ids, Model::Local);

        // The same checker suite judges every implementation.
        for (algo, coloring, palette) in [
            ("ours-local", &ours.coloring, two_delta),
            ("greedy-sequential", &greedy, two_delta),
            ("misra-gries", &vizing, delta + 1),
            ("greedy-by-classes", &classes.coloring, two_delta),
        ] {
            let proper = check_proper_edge_coloring(&g, coloring);
            assert!(proper.is_ok(), "{name}/{algo}: improper: {proper}");
            let complete = check_complete(&g, coloring);
            assert!(complete.is_ok(), "{name}/{algo}: incomplete: {complete}");
            let budget = check_palette_size(coloring, palette);
            assert!(budget.is_ok(), "{name}/{algo}: palette: {budget}");
        }
    }
}

/// Full colorings on the seeded generator matrix are bit-identical between
/// the sequential engine and the sharded substrate at 2, 4 and 8 shards —
/// the differential guarantee the SHARD bench experiment relies on.
#[test]
fn sharded_colorings_match_sequential_on_the_matrix() {
    let params = ColoringParams::new(0.5);
    for (name, g) in matrix() {
        let ids = IdAssignment::scattered(g.n(), 5);
        let reference = color_edges_local(&g, &ids, &params)
            .unwrap_or_else(|e| panic!("{name}: LOCAL coloring failed: {e}"));
        for shards in [2usize, 4, 8] {
            let sharded = params.with_policy(ExecutionPolicy::sharded(shards, 2));
            let outcome = color_edges_local(&g, &ids, &sharded)
                .unwrap_or_else(|e| panic!("{name}: sharded({shards}) failed: {e}"));
            assert_eq!(
                reference.coloring, outcome.coloring,
                "{name}: sharded({shards}) coloring diverged"
            );
            assert_eq!(
                reference.metrics, outcome.metrics,
                "{name}: sharded({shards}) metrics diverged"
            );
        }
    }
}

/// Runs a whole dynamic session (initial coloring + `batches` repairs) under
/// one execution policy and returns the final state.
fn run_dynamic_session(
    initial: &Graph,
    scenario: UpdateScenario,
    stream_seed: u64,
    batches: usize,
    policy: ExecutionPolicy,
) -> (DynamicGraph, Recoloring, usize) {
    let params = ColoringParams::new(0.5).with_policy(policy);
    let ids = IdAssignment::scattered(initial.n(), 9);
    let mut dg = DynamicGraph::from_graph(initial.clone());
    let (mut rec, _) = Recoloring::color_initial(&dg, &ids, &params).expect("valid instance");
    let mut stream = UpdateStream::new(initial.clone(), scenario, stream_seed);
    let mut repaired_total = 0usize;
    for _ in 0..batches {
        let batch = stream.next_batch();
        let diff = dg.apply(&batch).expect("stream batches are valid");
        let report = rec.repair(&dg, &diff, &ids, &params).expect("repairable");
        repaired_total += report.repaired_edges;
        // Every repair is incrementally certified before the next batch.
        check_delta(dg.graph(), rec.coloring(), &report.touched, rec.palette()).assert_ok();
    }
    assert_eq!(dg.graph(), stream.graph(), "consumer diverged from stream");
    (dg, rec, repaired_total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn dynamic_repair_is_checker_equivalent_to_from_scratch(
        (rows, cols, kind, batches, seed) in (
            4usize..7,
            4usize..7,
            0u8..3,
            3usize..8,
            0u64..1000,
        )
    ) {
        let initial = generators::grid_torus(rows, cols);
        let window = initial.m();
        let scenario = match kind {
            0 => UpdateScenario::Churn { inserts: 4, deletes: 4 },
            1 => UpdateScenario::SlidingWindow { window, rate: 5 },
            _ => UpdateScenario::HubAttack { hub: 0, burst: 3, deletes: 1 },
        };

        let (dg, rec, _) = run_dynamic_session(
            &initial,
            scenario,
            seed,
            batches,
            ExecutionPolicy::Sequential,
        );
        let graph = dg.graph();

        // The maintained coloring passes the full checker suite...
        check_proper_edge_coloring(graph, rec.coloring()).assert_ok();
        check_complete(graph, rec.coloring()).assert_ok();
        check_palette_size(rec.coloring(), rec.palette()).assert_ok();

        // ...exactly like a from-scratch recoloring of the final graph
        // (checker equivalence, not color-for-color equality: the budgets
        // differ only in that repair may still hold pre-mutation headroom).
        let params = ColoringParams::new(0.5);
        let ids = IdAssignment::scattered(graph.n(), 9);
        let scratch = color_edges_local(graph, &ids, &params).expect("valid instance");
        let scratch_palette = default_palette(graph.max_degree());
        check_proper_edge_coloring(graph, &scratch.coloring).assert_ok();
        check_complete(graph, &scratch.coloring).assert_ok();
        check_palette_size(&scratch.coloring, scratch_palette).assert_ok();
        // The dynamic budget is never looser than the historical maximum Δ
        // would justify, and never tighter than the from-scratch budget.
        prop_assert!(rec.palette() >= scratch_palette);
    }

    #[test]
    fn dynamic_repair_is_bit_identical_across_execution_policies(
        (rows, cols, kind, seed) in (4usize..6, 4usize..7, 0u8..2, 0u64..1000)
    ) {
        let initial = generators::grid_torus(rows, cols);
        let scenario = match kind {
            0 => UpdateScenario::Churn { inserts: 3, deletes: 3 },
            _ => UpdateScenario::HubAttack { hub: 0, burst: 3, deletes: 0 },
        };
        let batches = 4;
        let (_, sequential, repaired) = run_dynamic_session(
            &initial,
            scenario,
            seed,
            batches,
            ExecutionPolicy::Sequential,
        );
        for policy in [
            ExecutionPolicy::parallel(2),
            ExecutionPolicy::parallel(8),
            ExecutionPolicy::sharded(2, 1),
            ExecutionPolicy::sharded(4, 2),
            ExecutionPolicy::sharded(8, 2),
        ] {
            let (_, session, session_repaired) = run_dynamic_session(
                &initial,
                scenario,
                seed,
                batches,
                policy,
            );
            // (The compat prop_assert_eq! takes no custom message; the
            // policy is part of the strategy inputs echoed on failure.)
            prop_assert_eq!(session.coloring(), sequential.coloring());
            prop_assert_eq!(session.palette(), sequential.palette());
            prop_assert_eq!(session_repaired, repaired);
        }
    }
}

/// The host-sized reference repair: colors `dirty` (uncolored in
/// `coloring`) on the edge subgraph that keeps all `n` host nodes, with the
/// host ids and residual lists against the clean neighbors' colors.
fn host_sized_repair(
    graph: &Graph,
    coloring: &EdgeColoring,
    dirty: &[EdgeId],
    palette: usize,
    ids: &IdAssignment,
    params: &ColoringParams,
) -> (EdgeColoring, Metrics, u32) {
    let keep: std::collections::HashSet<EdgeId> = dirty.iter().copied().collect();
    let (sub, map) = graph.edge_subgraph(|e| keep.contains(&e));
    assert_eq!(sub.n(), graph.n());
    assert_eq!(map, dirty, "reference keeps the dirty edges in host order");
    let lists = ListAssignment::new(
        palette,
        map.iter()
            .map(|&e| {
                let used = coloring.colors_around(graph, e);
                (0..palette).filter(|c| !used.contains(c)).collect()
            })
            .collect(),
    );
    let outcome = list_edge_coloring(&sub, &lists, ids, params).expect("reference repair");
    let mut out = coloring.clone();
    out.merge_mapped(&outcome.coloring, &map);
    (out, outcome.metrics, outcome.outer_iterations)
}

/// The pre-batch coloring carried to the post-batch ids through the stable
/// ids — the `O(m)` way, independent of the diff's id moves.
fn carried_by_stable_id(before: &[(EdgeId, Option<usize>)], dg: &DynamicGraph) -> EdgeColoring {
    let mut out = EdgeColoring::empty(dg.m());
    for &(stable, color) in before {
        if let (Some(e), Some(c)) = (dg.internal_id(stable), color) {
            out.set(e, c);
        }
    }
    out
}

/// Corrupts `count` edges, stabilizes, and checks the healed coloring and
/// metrics against the host-sized reference repair of the same conflict
/// set. Returns the reference's outer degree-reduction iterations, or
/// `None` when the corruption happened to be clean.
fn stabilize_matches_reference(
    session: &mut SelfStabilizing,
    dg: &DynamicGraph,
    seed: u64,
    count: usize,
    ids: &IdAssignment,
    at: &str,
) -> Option<u32> {
    let params = ColoringParams::new(0.5);
    let suspects = session.inject_corruption(dg.graph(), seed, count);
    let corrupted = session.coloring().clone();
    let healed = session.stabilize(dg, &suspects, ids, &params).unwrap();
    check_proper_edge_coloring(dg.graph(), session.coloring()).assert_ok();
    check_complete(dg.graph(), session.coloring()).assert_ok();
    if healed.was_clean() {
        return None;
    }
    let mut stripped = corrupted;
    for &e in &healed.touched {
        stripped.unset(e);
    }
    let (expected, metrics, outer) = host_sized_repair(
        dg.graph(),
        &stripped,
        &healed.touched,
        session.palette(),
        ids,
        &params,
    );
    assert_eq!(session.coloring(), &expected, "{at}: coloring");
    assert_eq!(healed.metrics, metrics, "{at}: metrics");
    Some(outer)
}

/// Compacted repair ≡ host-sized reference, batch by batch, over the three
/// update scenarios on several generators, with fault-injected
/// stabilization conflict sets in between.
#[test]
fn compacted_repair_matches_the_host_sized_reference() {
    let params = ColoringParams::new(0.5);
    let graphs = [
        ("torus", generators::grid_torus(7, 8)),
        ("regular", Family::RegularBipartite.generate(80, 5, 3)),
        ("erdos-renyi", Family::ErdosRenyi.generate(80, 6, 17)),
        ("power-law", Family::PowerLaw.generate(80, 6, 5)),
        ("dense", generators::random_regular(60, 12, 3).unwrap()),
    ];
    let mut compared = (0usize, 0usize, 0u32);
    for (name, g) in graphs {
        let window = g.m();
        for (label, scenario) in [
            (
                "churn",
                UpdateScenario::Churn {
                    inserts: 6,
                    deletes: 6,
                },
            ),
            ("window", UpdateScenario::SlidingWindow { window, rate: 7 }),
            (
                "hub",
                UpdateScenario::HubAttack {
                    hub: 1,
                    burst: 2,
                    deletes: 1,
                },
            ),
        ] {
            let ids = IdAssignment::scattered(g.n(), 9);
            let mut dg = DynamicGraph::from_graph(g.clone());
            let budget = default_palette(g.max_degree() + 2);
            let (rec, _) = Recoloring::with_budget(&dg, &ids, &params, budget).unwrap();
            let mut session = SelfStabilizing::new(rec);
            let mut stream = UpdateStream::new(g.clone(), scenario, 41);
            for round in 0..8u64 {
                let before: Vec<(EdgeId, Option<usize>)> = dg
                    .stable_edges()
                    .zip(dg.graph().edges())
                    .map(|(stable, e)| (stable, session.coloring().color(e)))
                    .collect();
                let diff = dg.apply(&stream.next_batch()).unwrap();
                let report = session.repair(&dg, &diff, &ids, &params).unwrap();
                if !report.full_recolor {
                    let carried = carried_by_stable_id(&before, &dg);
                    let palette = session.palette();
                    let (expected, metrics, _) = host_sized_repair(
                        dg.graph(),
                        &carried,
                        &diff.inserted_internal,
                        palette,
                        &ids,
                        &params,
                    );
                    let at = format!("{name}/{label} batch {round}");
                    assert_eq!(session.coloring(), &expected, "{at}: coloring");
                    assert_eq!(report.touched, diff.inserted_internal, "{at}: touched");
                    assert_eq!(report.metrics, metrics, "{at}: metrics");
                    compared.0 += 1;
                }
                // A fault-corrupted neighborhood: stabilize's conflict set
                // goes through the same compacted repair.
                let at = format!("{name}/{label} stabilize {round}");
                if stabilize_matches_reference(&mut session, &dg, round + 7, 4, &ids, &at).is_some()
                {
                    compared.1 += 1;
                }
            }
            // Corrupting half the graph makes the conflict set dense enough
            // to run the outer defective-coloring iterations as well.
            let at = format!("{name}/{label} heavy stabilize");
            let heavy = dg.m() / 2;
            let outer = stabilize_matches_reference(&mut session, &dg, 99, heavy, &ids, &at);
            compared.2 += outer.expect("half the graph corrupted is never clean");
        }
    }
    assert!(compared.0 >= 60, "too few repairs compared: {compared:?}");
    assert!(
        compared.2 > 0,
        "no conflict set ran an outer iteration: {compared:?}"
    );
    assert!(
        compared.1 >= 60,
        "too few stabilizations compared: {compared:?}"
    );
}
