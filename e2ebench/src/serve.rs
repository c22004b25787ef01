//! The serving path: client update → published epoch, with reads beside
//! the writes, against an in-process daemon over loopback TCP.

use crate::inputs::UpdatePlan;
use crate::trace::Tracer;
use distgraph::DynamicGraph;
use distserve::{Client, DaemonHandle, LookupOutcome, MetricsReport, ServeConfig, ServerCore};
use distsim::IdAssignment;
use diststore::LoadedSnapshot;
use edgecolor::{default_palette, ColoringParams, Recoloring, SelfStabilizing};
use edgecolor_verify::{check_complete, check_palette_size, check_proper_edge_coloring};
use std::path::Path;
use std::time::{Duration, Instant};

/// The daemon configuration: defaults, but no tick thread. Batches apply on
/// `Flush` (or an explicit in-process tick), which runs the same
/// `Tenant::tick` a timer would, without making coalescing timing-dependent.
fn config() -> ServeConfig {
    ServeConfig {
        tick_interval_ms: None,
        ..ServeConfig::default()
    }
}

/// A running daemon and one closed-loop client connected to it.
#[derive(Debug)]
pub struct Served {
    /// The in-process daemon.
    pub daemon: DaemonHandle,
    /// The benchmark's client connection (v2 handshake done).
    pub client: Client,
    /// Palette budget of the live session; every served color is below it.
    pub palette: u64,
}

/// Boots a daemon from the snapshot at `path` and connects a client.
/// Returns the served pair and the wall time from snapshot to the first
/// answered handshake.
///
/// # Errors
///
/// Any setup, bind or connect failure.
pub fn boot(path: &Path) -> Result<(Served, Duration), String> {
    let started = Instant::now();
    let core = ServerCore::from_snapshot_path(path, config()).map_err(|e| format!("boot: {e}"))?;
    let daemon = DaemonHandle::spawn(core).map_err(|e| format!("daemon bind: {e}"))?;
    let client = Client::connect(daemon.addr()).map_err(|e| format!("connect: {e}"))?;
    let elapsed = started.elapsed();
    let palette = daemon.core().state_snapshot().stabilizer().palette() as u64;
    Ok((
        Served {
            daemon,
            client,
            palette,
        },
        elapsed,
    ))
}

impl Served {
    /// Closes the client and stops the daemon, joining all its threads.
    pub fn shutdown(self) {
        drop(self.client);
        self.daemon.shutdown();
    }
}

/// Operations attempted and failed, with the first failure's description.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations rejected, errored or answered wrongly.
    pub failed: u64,
    /// What went wrong first.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Records one operation; `Err` marks it failed.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.first_failure.get_or_insert(e);
        }
    }
}

/// Timings of one closed-loop update.
#[derive(Debug, Clone)]
pub struct UpdateSample {
    /// From sending the submit to the flush answer (or, traced, the whole
    /// submit → tick → flush sequence).
    pub visible: Duration,
    /// Round trip of the flush. Without an in-process tick, the flush is
    /// what runs the tick.
    pub flush: Duration,
    /// Round trip of every lookup after the update.
    pub lookups: Vec<Duration>,
    /// The whole update including its lookups.
    pub total: Duration,
}

/// Runs update `i` of `plan`: submit, (in-process tick), flush, then the
/// update's lookups, each checked against the original graph.
///
/// `in_process_tick` calls `ServerCore::tick` through the daemon handle
/// between submit and flush, so the tick gets its own span; the flush then
/// finds the batch applied.
///
/// # Errors
///
/// Transport failures. Rejections and wrong answers are tallied instead.
pub fn update(
    served: &mut Served,
    plan: &UpdatePlan,
    i: usize,
    in_process_tick: bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> Result<UpdateSample, String> {
    let req = Some(i as u64);
    let (delete, insert) = plan.update(i);
    let started = Instant::now();
    let root = tracer.begin("update", None, req);
    let submitted = tracer.time("serve.submit", root, req, || {
        served.client.submit(delete, insert)
    });
    match submitted.map_err(|e| format!("submit {i}: {e}"))? {
        Ok(_) => tally.record(Ok(())),
        Err(r) => tally.record(Err(format!("update {i} rejected: {r}"))),
    }
    if in_process_tick {
        let core = served.daemon.core();
        let ticked = tracer.time("serve.tick", root, req, || core.tick());
        if !ticked {
            tally.record(Err(format!("update {i}: tick found no pending batch")));
        }
    }
    let flush_started = Instant::now();
    let flushed = tracer.time("serve.flush", root, req, || served.client.flush());
    let flush = flush_started.elapsed();
    flushed.map_err(|e| format!("flush {i}: {e}"))?;
    tally.record(Ok(()));
    let visible = started.elapsed();

    let mut lookups = Vec::with_capacity(crate::inputs::LOOKUPS_PER_UPDATE);
    for stable in plan.lookups(i) {
        let t = Instant::now();
        let answer = tracer.time("serve.lookup", root, req, || served.client.lookup(stable));
        lookups.push(t.elapsed());
        let (outcome, _, _) = answer.map_err(|e| format!("lookup {stable}: {e}"))?;
        tally.record(match outcome {
            LookupOutcome::Colored { color, u, v }
                if color < served.palette && plan.endpoints_match(stable, u, v) =>
            {
                Ok(())
            }
            other => Err(format!("lookup {stable} after update {i}: {other:?}")),
        });
    }
    tracer.end(root);
    Ok(UpdateSample {
        visible,
        flush,
        lookups,
        total: started.elapsed(),
    })
}

/// Flushes, then checks the daemon's end state after `updates` updates of
/// `plan` (updates `0..updates`): every submit admitted and applied in its
/// own tick, no full recolor, one repaired edge per insert, no errors, a
/// checker-valid final coloring, and a batch log equal to the submitted
/// batches. Returns the final metrics report.
///
/// # Errors
///
/// Transport failures; failed checks are tallied.
pub fn final_checks(
    served: &mut Served,
    plan: &UpdatePlan,
    updates: usize,
    tally: &mut Tally,
) -> Result<MetricsReport, String> {
    served
        .client
        .flush()
        .map_err(|e| format!("final flush: {e}"))?;
    let metrics = served
        .client
        .metrics()
        .map_err(|e| format!("metrics: {e}"))?;
    let n = updates as u64;
    let inserts = (0..updates)
        .map(|i| plan.update(i).1.len() as u64)
        .sum::<u64>();
    let expect = |ok: bool, what: String| if ok { Ok(()) } else { Err(what) };
    let core = served.daemon.core();
    tally.record(expect(
        metrics.accepted == n && metrics.rejected == 0,
        format!(
            "accepted {} rejected {} of {n} submits",
            metrics.accepted, metrics.rejected
        ),
    ));
    tally.record(expect(
        metrics.ticks == n && metrics.coalesced_batches == n,
        format!(
            "ticks {} coalesced {} for {n} updates",
            metrics.ticks, metrics.coalesced_batches
        ),
    ));
    tally.record(expect(
        metrics.full_recolors == 0 && metrics.repaired_edges == inserts,
        format!(
            "full recolors {} repaired {} for {inserts} inserts",
            metrics.full_recolors, metrics.repaired_edges
        ),
    ));
    tally.record(expect(
        metrics.protocol_errors == 0 && core.internal_errors() == 0 && metrics.conflicts_found == 0,
        format!(
            "protocol errors {} internal errors {} conflicts {}",
            metrics.protocol_errors,
            core.internal_errors(),
            metrics.conflicts_found
        ),
    ));

    let st = core.state_snapshot();
    let graph = st.dynamic().graph();
    let mut report = check_proper_edge_coloring(graph, st.coloring());
    report.merge(check_complete(graph, st.coloring()));
    report.merge(check_palette_size(st.coloring(), st.stabilizer().palette()));
    // The last update's deletes are re-inserted only by the next update.
    let want_m = plan.m() - plan.update(updates - 1).0.len();
    tally.record(expect(
        report.is_ok() && graph.m() == want_m,
        format!(
            "final state: m {} (want {want_m}), first violation {:?}",
            graph.m(),
            report.violations().first()
        ),
    ));
    let log = core.batch_log();
    let log_ok = log.len() == updates
        && log
            .iter()
            .enumerate()
            .all(|(i, (epoch, batch))| *epoch == 1 && *batch == plan.batch(i));
    tally.record(expect(
        log_ok,
        format!(
            "batch log of {} entries differs from the {updates} submitted",
            log.len()
        ),
    ));
    Ok(metrics)
}

/// A second session that replays the daemon's batches outside it, so the
/// parts of a tick can be timed one by one: the state clone, `apply`,
/// `repair` and `stabilize`. It boots from the same snapshot with the
/// tenant's ids, parameters and budget, so its coloring must stay
/// bit-identical to the live one.
#[derive(Debug)]
pub struct Mirror {
    dg: DynamicGraph,
    stab: SelfStabilizing,
    ids: IdAssignment,
    params: ColoringParams,
}

impl Mirror {
    /// Boots the mirror for the daemon serving `served`.
    ///
    /// # Errors
    ///
    /// Snapshot or coloring failures.
    pub fn boot(path: &Path, served: &Served) -> Result<Self, String> {
        let tenant = served.daemon.core().default_tenant();
        let dg = LoadedSnapshot::load_path(path)
            .and_then(LoadedSnapshot::into_dynamic)
            .map_err(|e| format!("mirror load: {e}"))?;
        let ids = tenant.state_snapshot().ids().clone();
        let params = *tenant.params();
        let budget = default_palette(dg.graph().max_degree() + tenant.config().headroom);
        let (rec, _) = Recoloring::with_budget(&dg, &ids, &params, budget)
            .map_err(|e| format!("mirror boot: {e}"))?;
        Ok(Mirror {
            dg,
            stab: SelfStabilizing::new(rec),
            ids,
            params,
        })
    }

    /// Applies update `i` of `plan` the way a tick does: clone the state,
    /// apply the batch, repair, stabilize, then adopt the new state.
    ///
    /// # Errors
    ///
    /// Apply, repair or stabilize failures.
    pub fn apply(
        &mut self,
        plan: &UpdatePlan,
        i: usize,
        tracer: &mut Tracer,
    ) -> Result<(), String> {
        let req = Some(i as u64);
        let batch = plan.batch(i);
        let root = tracer.begin("mirror", None, req);
        let (mut dg, mut stab) = tracer.time("graph.clone", root, req, || {
            (self.dg.clone(), self.stab.clone())
        });
        let diff = tracer
            .time("graph.apply", root, req, || dg.apply(&batch))
            .map_err(|e| format!("mirror apply {i}: {e}"))?;
        let (ids, params) = (&self.ids, &self.params);
        let report = tracer
            .time("core.repair", root, req, || {
                stab.repair(&dg, &diff, ids, params)
            })
            .map_err(|e| format!("mirror repair {i}: {e}"))?;
        tracer
            .time("core.stabilize", root, req, || {
                stab.stabilize(&dg, &report.touched, ids, params)
            })
            .map_err(|e| format!("mirror stabilize {i}: {e}"))?;
        self.dg = dg;
        self.stab = stab;
        tracer.end(root);
        Ok(())
    }

    /// Whether the mirror's graph and coloring equal the daemon's current
    /// state bit for bit.
    pub fn matches(&self, served: &Served) -> bool {
        let st = served.daemon.core().state_snapshot();
        self.dg.stable_table() == st.dynamic().stable_table()
            && self.stab.coloring() == st.coloring()
    }
}
