//! One benchmark run: prepare the seeded inputs, then either the timed run
//! (end-to-end metrics) or the traced run (per-layer metrics).

use crate::cold::{self, ColdOutcome};
use crate::inputs::{UpdatePlan, Workload, COLD_SEED};
use crate::report::RunResult;
use crate::serve::{self, Mirror, Tally};
use crate::stats::{median, summarize};
use crate::trace::Tracer;
use distsim::{ExecutionPolicy, IdAssignment};
use diststore::{LoadedSnapshot, SnapshotSource};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

/// Daemon boots timed for `setup_s` on `serve_churn`, after an untimed
/// warm-up boot; boot `k` is due `k / (SETUP_BOOTS + 1)` into the window.
const SETUP_BOOTS: u32 = 9;
/// First argument that makes the binary boot one daemon, print what
/// [`boot_once`] returns and exit.
pub const BOOT_FLAG: &str = "--boot-once";
/// Fewest timed cold cycles, even past the time budget.
const MIN_CYCLES: usize = 3;
/// Fewest timed updates, even past the time budget.
const MIN_UPDATES: usize = 50;
/// Traced run: cold cycles traced, and as many untraced, interleaved.
const TRACED_CYCLES: usize = 3;
/// Traced run: updates traced, and as many untraced, interleaved.
const TRACED_UPDATES: usize = 30;
/// Traced run: timed `Network::broadcast` rounds.
const FLOOD_ROUNDS: usize = 20;

/// Every ledger stage the cold path can record, reported as
/// `core.rounds.<stage>` (0 when a workload's run skips it).
const STAGES: [&str; 14] = [
    "linial",
    "outer-iter",
    "orientation",
    "orient-game",
    "amplify-split",
    "amplify-fallback",
    "slack-solve",
    "solve-split",
    "solve-finish",
    "defective4",
    "d4-reduce",
    "d4-fold",
    "d4-sweep",
    "greedy-finish",
];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds the timed run measures for.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// A missing, unknown or malformed flag.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    workload = Some(
                        Workload::parse(&value).ok_or_else(|| bad(&format!("one of {names:?}")))?,
                    );
                }
                "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
                "--seconds" => {
                    seconds = Some(
                        value
                            .parse()
                            .ok()
                            .filter(|&s: &u64| s >= 1)
                            .ok_or_else(|| bad("a whole number ≥ 1"))?,
                    )
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("0 or 1")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// The seeded inputs of one run, made before any timing.
#[derive(Debug)]
pub struct Prepared {
    /// The workload graph's snapshot file.
    pub snapshot: PathBuf,
    /// Snapshot size in MiB.
    pub file_mb: f64,
    /// Node ids the cold path colors under.
    pub ids: IdAssignment,
    /// The closed-loop update stream.
    pub plan: UpdatePlan,
}

/// Generates the workload graph, writes its snapshot into `dir`, and derives
/// the cold path's ids and the update stream for `seed`.
///
/// # Errors
///
/// Snapshot encoding or filesystem failures.
pub fn prepare(workload: Workload, seed: u64, dir: &Path) -> Result<Prepared, String> {
    let graph = workload.graph();
    let snapshot = dir.join(format!("{}.dsnap", workload.name()));
    SnapshotSource::graph(&graph)
        .write_to(&snapshot)
        .map_err(|e| format!("writing {}: {e}", snapshot.display()))?;
    let bytes = std::fs::metadata(&snapshot)
        .map_err(|e| format!("stat {}: {e}", snapshot.display()))?
        .len();
    Ok(Prepared {
        snapshot,
        file_mb: bytes as f64 / (1 << 20) as f64,
        ids: IdAssignment::scattered(graph.n(), COLD_SEED),
        plan: UpdatePlan::new(&graph, seed),
    })
}

/// Runs the benchmark: inputs go to `dir`, the traced run's spans to
/// `trace_dir`.
///
/// # Errors
///
/// Set-up, transport or coloring failures that stop the run.
pub fn run(args: &Args, dir: &Path, trace_dir: &Path) -> Result<RunResult, String> {
    let prepared = prepare(args.workload, args.seed, dir)?;
    let mut result = if args.trace {
        let (result, tracer) = traced(&prepared)?;
        std::fs::create_dir_all(trace_dir).map_err(|e| format!("trace dir: {e}"))?;
        let file = trace_dir.join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed));
        tracer
            .write_jsonl(&file)
            .map_err(|e| format!("writing {}: {e}", file.display()))?;
        result
    } else {
        timed(args, &prepared)?
    };
    result.notes.insert(0, host_line());
    Ok(result)
}

/// nproc, the cold path's effective policy threads and the CPU model.
pub fn host_line() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let policy = ExecutionPolicy::auto();
    format!(
        "host nproc={nproc} policy={policy} effective_threads={} cpu=\"{cpu}\"",
        policy.effective_threads()
    )
}

/// A note line with the quartiles and sample count of one timing.
fn quartile_note(name: &str, samples: &[f64]) -> String {
    let s = summarize(samples);
    format!(
        "{name} n={} p25={:.6} p50={:.6} p75={:.6} p95={:.6} p99={:.6}",
        s.n, s.p25, s.p50, s.p75, s.p95, s.p99
    )
}

/// Tallies whether a cold cycle repeated the warm-up's exact counts.
fn check_same(tally: &mut Tally, first: &ColdOutcome, out: &ColdOutcome) {
    tally.record(if out == first {
        Ok(())
    } else {
        Err(format!(
            "cold outcome changed between cycles: {first:?} vs {out:?}"
        ))
    });
}

fn timed(args: &Args, p: &Prepared) -> Result<RunResult, String> {
    let w = args.workload;
    let mut tracer = Tracer::new(false);
    let mut tally = Tally::default();
    let params = cold::params();
    let mut setup = Vec::new();

    // Warm-up: one boot, one cold cycle and one update, untimed.
    let (mut served, _) = serve::boot(&p.snapshot)?;
    if w.setup_is_boot() {
        boot_in_child(p, &mut tally)?;
    }
    let (_, _, first) = cold::cycle(&p.snapshot, &p.ids, &params, &mut tracer)?;
    tally.record(Ok(()));
    serve::update(&mut served, &p.plan, 0, false, &mut tracer, &mut tally)?;

    // Cold cycles and updates interleave over the whole measured window, so
    // both paths sample the same stretch of host speed; whichever path is
    // behind its share of the time goes next. serve_churn's set-up is a
    // daemon boot, timed in a child process at even steps of the window.
    // Other workloads time the load inside every cold cycle instead.
    let window = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let (mut cold_spent, mut serve_spent) = (Duration::ZERO, Duration::ZERO);
    let (mut cycles, mut visible, mut lookups) = (Vec::new(), Vec::new(), Vec::new());
    let mut next = 1;
    loop {
        let over = started.elapsed() >= window;
        let need_boot = w.setup_is_boot() && setup.len() < SETUP_BOOTS as usize;
        let need_cold = cycles.len() < MIN_CYCLES;
        let need_serve = visible.len() < MIN_UPDATES && next < p.plan.capacity();
        if over && !need_boot && !need_cold && !need_serve {
            break;
        }
        let boot_due = window * (setup.len() as u32 + 1) / (SETUP_BOOTS + 1);
        if need_boot && (over || started.elapsed() >= boot_due) {
            setup.push(boot_in_child(p, &mut tally)?);
            continue;
        }
        let spent = (cold_spent + serve_spent).as_secs_f64();
        let cold_turn = if over {
            need_cold
        } else {
            next >= p.plan.capacity() || cold_spent.as_secs_f64() <= w.cold_share() * spent
        };
        if cold_turn {
            let (t, load, out) = cold::cycle(&p.snapshot, &p.ids, &params, &mut tracer)?;
            check_same(&mut tally, &first, &out);
            if !w.setup_is_boot() {
                setup.push(load.as_secs_f64());
            }
            cycles.push(t.as_secs_f64());
            cold_spent += t;
        } else {
            let s = serve::update(&mut served, &p.plan, next, false, &mut tracer, &mut tally)?;
            visible.push(s.visible.as_secs_f64() * 1e3);
            lookups.extend(s.lookups.iter().map(|d| d.as_secs_f64() * 1e6));
            serve_spent += s.total;
            next += 1;
        }
    }
    serve::final_checks(&mut served, &p.plan, next, &mut tally)?;
    served.shutdown();

    let mut r = RunResult::default();
    r.push("setup_s", median(&setup), "s");
    r.push("time_to_coloring_s", median(&cycles), "s");
    r.push("local_rounds", first.rounds as f64, "count");
    r.push("colors_used", first.colors_used as f64, "count");
    r.push(
        "peak_rss_mb",
        crate::peak_rss_mb().unwrap_or(f64::NAN),
        "MB",
    );
    r.push(
        "updates_per_s",
        visible.len() as f64 / serve_spent.as_secs_f64(),
        "1/s",
    );
    r.push(
        "ok_op_share",
        1.0 - tally.failed as f64 / tally.attempted as f64,
        "ratio",
    );
    r.notes = vec![
        quartile_note("setup_s", &setup),
        quartile_note("time_to_coloring_s", &cycles),
        quartile_note("update_visible_ms", &visible),
        quartile_note("lookup_us", &lookups),
        format!(
            "max_degree={} palette_bound={} colors_used={} rounds={}",
            first.max_degree,
            edgecolor::default_palette(first.max_degree),
            first.colors_used,
            first.rounds
        ),
    ];
    Ok(finish(r, tally))
}

/// Boots a daemon on the snapshot at `path` and returns its boot time in
/// seconds and the served graph's node and edge counts, as one line. Run in
/// the child process [`boot_in_child`] starts.
///
/// # Errors
///
/// Boot failures, or a catalog that is not exactly one graph.
pub fn boot_once(path: &Path) -> Result<String, String> {
    let (served, t) = serve::boot(path)?;
    let line = match served.client.catalog() {
        [g] => format!("{} {} {}", t.as_secs_f64(), g.n, g.m),
        other => Err(format!("catalog of {} graphs", other.len()))?,
    };
    served.shutdown();
    Ok(line)
}

/// Boots a daemon on `p`'s snapshot in a child process running this binary
/// with [`BOOT_FLAG`], waits for it to exit, and tallies whether it served
/// the whole graph. Returns the boot time the child measured, in seconds.
///
/// A fresh process per boot is how a user starts the daemon, and it keeps
/// the boots' allocations out of this process's `peak_rss_mb`: in-process
/// reboots leave freed daemon state in the allocator and raise the peak
/// (measured in README.md).
fn boot_in_child(p: &Prepared, tally: &mut Tally) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = Command::new(exe)
        .arg(BOOT_FLAG)
        .arg(&p.snapshot)
        .output()
        .map_err(|e| format!("starting the boot child: {e}"))?;
    let said = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!(
            "boot child {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let bad = || format!("boot child printed {said:?}");
    let mut fields = said.split_whitespace();
    let secs: f64 = fields.next().and_then(|f| f.parse().ok()).ok_or_else(bad)?;
    let counts: Vec<u64> = fields
        .map(|f| f.parse().map_err(|_| bad()))
        .collect::<Result<_, _>>()?;
    let want = [p.ids.len() as u64, p.plan.m() as u64];
    tally.record(if counts == want {
        Ok(())
    } else {
        Err(format!(
            "booted daemon serves n, m = {counts:?}, want {want:?}"
        ))
    });
    Ok(secs)
}

fn finish(mut r: RunResult, tally: Tally) -> RunResult {
    r.correct = tally.failed == 0;
    r.attempted = tally.attempted;
    r.failed = tally.failed;
    if let Some(f) = tally.first_failure {
        r.notes.push(format!("first failure: {f}"));
    }
    r
}

fn traced(p: &Prepared) -> Result<(RunResult, Tracer), String> {
    let mut tracer = Tracer::new(false);
    let mut tally = Tally::default();
    let params = cold::params();

    // Cold path: warm-up, then traced and untraced cycles interleaved.
    let (_, _, first) = cold::cycle(&p.snapshot, &p.ids, &params, &mut tracer)?;
    tally.record(Ok(()));
    let (mut cold_on, mut cold_off) = (0.0, 0.0);
    for k in 0..2 * TRACED_CYCLES {
        let on = k % 2 == 0;
        tracer.set_enabled(on);
        let (t, _, out) = cold::cycle(&p.snapshot, &p.ids, &params, &mut tracer)?;
        check_same(&mut tally, &first, &out);
        *if on { &mut cold_on } else { &mut cold_off } += t.as_secs_f64();
    }
    tracer.set_enabled(true);

    // Round delivery alone, on the same graph and policy.
    let loaded = LoadedSnapshot::load_path(&p.snapshot).map_err(|e| format!("load: {e}"))?;
    let (flood, per_round) =
        cold::flood_rounds(loaded.graph(), ExecutionPolicy::auto(), FLOOD_ROUNDS);
    drop(loaded);

    // Serve path: traced updates tick in-process so the tick has its own
    // span; untraced ones tick in the flush, as the timed run does, and time
    // that flush. A mirror session replays each batch to time the tick's
    // parts.
    let (mut served, _) = serve::boot(&p.snapshot)?;
    let mut mirror = Mirror::boot(&p.snapshot, &served)?;
    let (mut serve_on, mut serve_off) = (0.0, 0.0);
    let (mut wire_lookups, mut visible, mut flushes) = (Vec::new(), Vec::new(), Vec::new());
    let updates = 2 * TRACED_UPDATES + 1;
    for i in 0..updates {
        // Update 0 is the warm-up; then odd updates traced, even untraced.
        let on = i % 2 == 1;
        tracer.set_enabled(on);
        let s = serve::update(&mut served, &p.plan, i, on, &mut tracer, &mut tally)?;
        if i > 0 {
            *if on { &mut serve_on } else { &mut serve_off } += s.total.as_secs_f64();
            wire_lookups.extend(s.lookups.iter().map(|d| d.as_secs_f64() * 1e6));
            visible.push(s.visible.as_secs_f64() * 1e3);
            if !on {
                flushes.push(s.flush.as_secs_f64() * 1e3);
            }
        }
        tracer.set_enabled(true);
        mirror.apply(&p.plan, i, &mut tracer)?;
        let core = served.daemon.core();
        let req = Some(i as u64);
        let root = tracer.begin("inproc", None, req);
        for stable in p.plan.lookups(i) {
            let answer = tracer.time("serve.lookup_inproc", root, req, || core.lookup(stable));
            std::hint::black_box(answer);
        }
        tracer.end(root);
    }
    let metrics = serve::final_checks(&mut served, &p.plan, updates, &mut tally)?;
    tally.record(if mirror.matches(&served) {
        Ok(())
    } else {
        Err("replaying the batch log diverged from the live coloring".into())
    });
    let internal_errors = served.daemon.core().internal_errors();
    served.shutdown();

    let med = |name: &str| median(&tracer.durations_ms(name));
    let mut r = RunResult::default();
    r.push("store.open_ms", med("store.open"), "ms");
    r.push("store.decode_ms", med("store.decode"), "ms");
    r.push("store.file_mb", p.file_mb, "MB");
    r.push("sim.messages", first.messages as f64, "count");
    r.push("sim.bits", first.bits as f64, "count");
    let flood_ms = median(&flood);
    r.push("sim.flood_round_ms", flood_ms, "ms");
    r.push(
        "sim.flood_ns_per_msg",
        flood_ms * 1e6 / per_round.max(1) as f64,
        "ns",
    );
    r.push("core.color_s", med("core.color") / 1e3, "s");
    for stage in STAGES {
        let rounds = first
            .stage_rounds
            .iter()
            .find(|(s, _)| *s == stage)
            .map_or(0, |(_, r)| *r);
        r.push(format!("core.rounds.{stage}"), rounds as f64, "count");
    }
    for (stage, rounds) in &first.stage_rounds {
        if !STAGES.contains(stage) {
            r.notes
                .push(format!("unlisted ledger stage {stage}: {rounds} rounds"));
        }
    }
    r.push(
        "core.outer_iterations",
        f64::from(first.outer_iterations),
        "count",
    );
    r.push("core.solver_calls", first.solver_calls as f64, "count");
    let (clone, apply, repair, stabilize) = (
        med("graph.clone"),
        med("graph.apply"),
        med("core.repair"),
        med("core.stabilize"),
    );
    r.push("core.repair_ms", repair, "ms");
    r.push("core.stabilize_ms", stabilize, "ms");
    r.push(
        "core.repaired_edges",
        metrics.repaired_edges as f64,
        "count",
    );
    r.push("core.full_recolors", metrics.full_recolors as f64, "count");
    r.push("graph.apply_ms", apply, "ms");
    r.push("graph.clone_ms", clone, "ms");
    r.push("verify.check_ms", med("verify.check"), "ms");
    let tick = med("serve.tick");
    let lookup_inproc_us = med("serve.lookup_inproc") * 1e3;
    r.push("serve.submit_us", med("serve.submit") * 1e3, "us");
    r.push("serve.flush_ms", median(&flushes), "ms");
    r.push("serve.tick_ms", tick, "ms");
    r.push(
        "serve.tick_self_ms",
        tick - (clone + apply + repair + stabilize),
        "ms",
    );
    r.push("serve.lookup_inproc_us", lookup_inproc_us, "us");
    // Moved here from the end-to-end set: their spread over 10 seeds
    // exceeded the largest allowed bound (see README.md).
    let look = summarize(&wire_lookups);
    let vis = summarize(&visible);
    r.push("update_visible_p50_ms", vis.p50, "ms");
    r.push("update_visible_p95_ms", vis.p95, "ms");
    r.push("lookup_p50_us", look.p50, "us");
    r.push("lookup_p99_us", look.p99, "us");
    r.push(
        "serve.wire_us",
        med("serve.lookup") * 1e3 - lookup_inproc_us,
        "us",
    );
    r.push("serve.ticks", metrics.ticks as f64, "count");
    r.push(
        "serve.coalesced_batches",
        metrics.coalesced_batches as f64,
        "count",
    );
    r.push("serve.rejected", metrics.rejected as f64, "count");
    r.push(
        "serve.protocol_errors",
        metrics.protocol_errors as f64,
        "count",
    );
    r.push("serve.internal_errors", internal_errors as f64, "count");

    // Layers add up: self time of every layer span under the end-to-end
    // roots, against the roots' wall time.
    let (cold_wall, cold_layers) = tracer.coverage_under("cycle");
    let (serve_wall, serve_layers) = tracer.coverage_under("update");
    let wall = (cold_wall + serve_wall) as f64;
    let layers = (cold_layers + serve_layers) as f64;
    r.push("trace.coverage", layers / wall, "ratio");
    let off = cold_off + serve_off;
    r.push(
        "trace.overhead_pct",
        100.0 * ((cold_on + serve_on) - off) / off,
        "%",
    );
    r.push("trace.unexplained_ms", (wall - layers) / 1e6, "ms");
    r.push(
        "failed_op_share",
        tally.failed as f64 / tally.attempted as f64,
        "ratio",
    );
    r.notes.extend([
        format!(
            "coverage cold={:.4} ({:.3} ms unexplained of {:.1} ms) serve={:.4} ({:.3} ms unexplained of {:.1} ms)",
            cold_layers as f64 / cold_wall as f64,
            (cold_wall as i64 - cold_layers) as f64 / 1e6,
            cold_wall as f64 / 1e6,
            serve_layers as f64 / serve_wall as f64,
            (serve_wall as i64 - serve_layers) as f64 / 1e6,
            serve_wall as f64 / 1e6,
        ),
        format!(
            "overhead cold {:.3}% serve {:.3}% ({} cycles and {} updates each way)",
            100.0 * (cold_on - cold_off) / cold_off,
            100.0 * (serve_on - serve_off) / serve_off,
            TRACED_CYCLES,
            TRACED_UPDATES
        ),
        format!("spans recorded: {}", tracer.spans().len()),
    ]);
    Ok((finish(r, tally), tracer))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        assert_eq!(
            parse("--workload dense_regular --seed 9 --seconds 30 --trace 1"),
            Ok(Args {
                workload: Workload::DenseRegular,
                seed: 9,
                seconds: 30,
                trace: true,
            })
        );
        assert!(parse("--workload nope --seed 9 --seconds 30 --trace 0").is_err());
        assert!(parse("--workload serve_churn --seed 9 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload serve_churn --seed 9 --seconds 30 --trace 2").is_err());
        assert!(parse("--workload serve_churn --seed 9 --seconds 30").is_err());
        assert!(parse("--workload serve_churn --seed 9 --seconds 30 --trace").is_err());
    }
}
