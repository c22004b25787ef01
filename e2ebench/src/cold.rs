//! The cold-start path: snapshot open → first checker-valid coloring.

use crate::trace::{SpanId, Tracer};
use distgraph::Graph;
use distsim::{ExecutionPolicy, IdAssignment, Model, Network};
use diststore::{LoadedSnapshot, Snapshot};
use edgecolor::{color_edges_local, default_palette, ColoringParams};
use edgecolor_verify::{check_complete, check_palette_size, check_proper_edge_coloring};
use std::path::Path;
use std::time::{Duration, Instant};

/// What one cold cycle produced. Every field is exact for a fixed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdOutcome {
    /// Maximum degree of the loaded graph.
    pub max_degree: usize,
    /// `outcome.metrics.rounds` of the coloring run.
    pub rounds: u64,
    /// Distinct colors the coloring uses.
    pub colors_used: usize,
    /// Messages the simulated run sent.
    pub messages: u64,
    /// Bits the simulated run sent.
    pub bits: u64,
    /// Outer degree-reduction iterations.
    pub outer_iterations: u32,
    /// Slack-solver invocations.
    pub solver_calls: u64,
    /// `RoundLedger::rounds_for` of every stage the ledger recorded, in
    /// first-recorded order.
    pub stage_rounds: Vec<(&'static str, u64)>,
}

/// The coloring parameters of the cold path: ε = 0.5 under
/// `ExecutionPolicy::auto()`.
pub fn params() -> ColoringParams {
    ColoringParams::new(0.5).with_policy(ExecutionPolicy::auto())
}

/// One cycle: load the snapshot at `path`, color it, and check the coloring
/// is proper, complete and within `2Δ − 1` colors. Returns the wall time of
/// the whole cycle and of its load, and the outcome, or a description of the
/// first failed check.
///
/// The load makes the two calls `LoadedSnapshot::load_path` makes,
/// `Snapshot::open` then `LoadedSnapshot::load`, so that a traced cycle
/// gives each its own span.
pub fn cycle(
    path: &Path,
    ids: &IdAssignment,
    params: &ColoringParams,
    tracer: &mut Tracer,
) -> Result<(Duration, Duration, ColdOutcome), String> {
    let started = Instant::now();
    let root = tracer.begin("cycle", None, None);
    let snap = tracer.time("store.open", root, None, || Snapshot::open(path));
    let snap = snap.map_err(|e| format!("snapshot open: {e}"))?;
    let loaded = tracer.time("store.decode", root, None, || LoadedSnapshot::load(&snap));
    drop(snap);
    let loaded = loaded.map_err(|e| format!("snapshot load: {e}"))?;
    let load = started.elapsed();
    let graph = loaded.graph();
    let outcome = tracer
        .time("core.color", root, None, || {
            color_edges_local(graph, ids, params)
        })
        .map_err(|e| format!("coloring: {e}"))?;
    check(graph, &outcome.coloring, tracer, root)?;
    tracer.end(root);
    let elapsed = started.elapsed();

    let mut stage_rounds: Vec<(&'static str, u64)> = Vec::new();
    for entry in outcome.ledger.entries() {
        if !stage_rounds.iter().any(|(s, _)| *s == entry.stage) {
            stage_rounds.push((entry.stage, outcome.ledger.rounds_for(entry.stage)));
        }
    }
    Ok((
        elapsed,
        load,
        ColdOutcome {
            max_degree: graph.max_degree(),
            rounds: outcome.metrics.rounds,
            colors_used: outcome.colors_used,
            messages: outcome.metrics.messages,
            bits: outcome.metrics.total_bits,
            outer_iterations: outcome.outer_iterations,
            solver_calls: outcome.solver_calls,
            stage_rounds,
        },
    ))
}

fn check(
    graph: &Graph,
    coloring: &distgraph::EdgeColoring,
    tracer: &mut Tracer,
    root: Option<SpanId>,
) -> Result<(), String> {
    let report = tracer.time("verify.check", root, None, || {
        let mut r = check_proper_edge_coloring(graph, coloring);
        r.merge(check_complete(graph, coloring));
        r.merge(check_palette_size(
            coloring,
            default_palette(graph.max_degree()),
        ));
        r
    });
    match report.violations().first() {
        None => Ok(()),
        Some(first) => Err(format!("coloring fails its checks: {first:?}")),
    }
}

/// Times `rounds` rounds of `Network::broadcast` (one `u64` per node to
/// every neighbor) on `graph` under `policy`, after two warm-up rounds.
/// Returns each round's wall time in milliseconds and the messages one round
/// sends.
pub fn flood_rounds(graph: &Graph, policy: ExecutionPolicy, rounds: usize) -> (Vec<f64>, u64) {
    let mut net = Network::with_policy(graph, Model::Local, policy);
    for _ in 0..2 {
        std::hint::black_box(net.broadcast(|v| v.index() as u64));
    }
    let before = net.metrics().messages;
    let mut times = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        let inbox = net.broadcast(|v| v.index() as u64);
        std::hint::black_box(&inbox);
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let per_round = (net.metrics().messages - before) / rounds.max(1) as u64;
    (times, per_round)
}
