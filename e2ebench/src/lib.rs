//! Outside-in benchmark of the edge-coloring reproduction.
//!
//! Every workload exercises the repository's two user paths on its own
//! graph: a **cold start** (snapshot open → first checker-valid `2Δ−1`
//! coloring) and **closed-loop serving** (client update → published epoch,
//! with reads beside the writes). All timings are taken from outside, around
//! calls into the public API of one crate each (`store`, `sim`, `core`,
//! `graph`, `verify`, `serve`); nothing inside the program is instrumented.
//!
//! See `README.md` in this directory for the workloads, metrics and the
//! layer → end-to-end metric mapping.

pub mod cold;
pub mod inputs;
pub mod report;
pub mod run;
pub mod serve;
pub mod stats;
pub mod trace;

/// Peak resident set size of this process in MiB (`VmHWM`), if the platform
/// exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
