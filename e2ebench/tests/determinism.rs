//! Determinism contract of the benchmark: generated inputs are a pure
//! function of the seed, and for a fixed seed the exact counts it reports
//! (`local_rounds`, `colors_used`, `sim.messages`, `core.rounds.*`,
//! `core.repaired_edges`) repeat across runs.

use e2ebench::cold;
use e2ebench::inputs::{UpdatePlan, Workload, OPS_PER_UPDATE};
use e2ebench::run::{prepare, Prepared};
use e2ebench::serve::{self, Mirror, Tally};
use e2ebench::trace::Tracer;
use std::collections::HashSet;
use std::path::PathBuf;

/// A fresh directory per test and run, so parallel tests share no files.
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("e2ebench-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn prepared(w: Workload, seed: u64, tag: &str) -> Prepared {
    prepare(w, seed, &scratch(tag)).expect("inputs prepare")
}

#[test]
fn inputs_are_a_pure_function_of_the_seed() {
    for w in Workload::ALL {
        let graph = w.graph();
        assert_eq!(
            graph,
            w.graph(),
            "{}: graph differs between calls",
            w.name()
        );
        let a = UpdatePlan::new(&graph, 7);
        let b = UpdatePlan::new(&graph, 7);
        let c = UpdatePlan::new(&graph, 8);
        for i in [0, 1, 2, 500] {
            assert_eq!(a.update(i), b.update(i));
            assert_eq!(a.lookups(i), b.lookups(i));
        }
        assert_ne!(a.update(1), c.update(1), "{}: seed ignored", w.name());
        assert_ne!(a.lookups(1), c.lookups(1), "{}: seed ignored", w.name());
    }
}

#[test]
fn update_stream_is_always_admissible() {
    let graph = Workload::ServeChurn.graph();
    let plan = UpdatePlan::new(&graph, 3);
    let half = (plan.m() / 2) as u64;
    let mut deleted = HashSet::new();
    for i in 0..plan.capacity() {
        let (delete, insert) = plan.update(i);
        assert_eq!(delete.len(), OPS_PER_UPDATE);
        for d in delete {
            assert!(d < half, "deletes stay in the lower half of the ids");
            assert!(deleted.insert(d), "original edge {d} deleted twice");
        }
        // Inserts re-add exactly the pairs the previous update deleted.
        let want: Vec<(u32, u32)> = match i {
            0 => vec![],
            _ => plan
                .update(i - 1)
                .0
                .iter()
                .map(|&d| {
                    let (u, v) = graph.endpoints(distgraph::EdgeId::new(d as usize));
                    (u.index() as u32, v.index() as u32)
                })
                .collect(),
        };
        assert_eq!(insert, want);
        assert!(plan.lookups(i).iter().all(|&k| k >= half));
    }
}

#[test]
fn cold_counts_repeat_for_a_fixed_seed() {
    let params = cold::params();
    for w in Workload::ALL {
        let outcomes: Vec<cold::ColdOutcome> = (0..2)
            .map(|run| {
                let p = prepared(w, 11, &format!("cold-{}-{run}", w.name()));
                let (_, _, out) =
                    cold::cycle(&p.snapshot, &p.ids, &params, &mut Tracer::new(run == 1))
                        .expect("cold cycle passes its checks");
                out
            })
            .collect();
        assert_eq!(outcomes[0], outcomes[1], "{}: counts differ", w.name());
        assert!(outcomes[0].colors_used < 2 * outcomes[0].max_degree);
        assert!(!outcomes[0].stage_rounds.is_empty());
    }
}

#[test]
fn serve_counts_repeat_for_a_fixed_seed() {
    const UPDATES: usize = 6;
    let runs: Vec<(u64, distgraph::EdgeColoring)> = (0..2)
        .map(|run| {
            let p = prepared(Workload::ServeChurn, 5, &format!("serve-{run}"));
            let (mut served, _) = serve::boot(&p.snapshot).expect("daemon boots");
            let mut mirror = Mirror::boot(&p.snapshot, &served).expect("mirror boots");
            let mut tracer = Tracer::new(true);
            let mut tally = Tally::default();
            for i in 0..UPDATES {
                serve::update(&mut served, &p.plan, i, run == 1, &mut tracer, &mut tally)
                    .expect("transport stays up");
                mirror
                    .apply(&p.plan, i, &mut tracer)
                    .expect("mirror replays");
            }
            let metrics = serve::final_checks(&mut served, &p.plan, UPDATES, &mut tally)
                .expect("final checks run");
            assert_eq!(tally.failed, 0, "{:?}", tally.first_failure);
            assert!(mirror.matches(&served), "replay diverged from the daemon");
            let coloring = served.daemon.core().state_snapshot().coloring().clone();
            served.shutdown();
            (metrics.repaired_edges, coloring)
        })
        .collect();
    assert_eq!(runs[0].0, ((UPDATES - 1) * OPS_PER_UPDATE) as u64);
    assert_eq!(runs[0], runs[1]);
}
