//! Pins the work-independence of a steady-state dynamic tick.
//!
//! A k-edge batch must cost `O(k · Δ)` in `DynamicGraph::apply` and
//! `Recoloring::repair`, independent of `n` and `m`: the graph is edited in
//! place, the coloring follows the diff's `O(k)` id moves, and the repair
//! colors the compacted dirty subgraph. This test wraps the system allocator
//! in a byte counter and runs the same 8-delete + 8-reinsert batch shape on
//! two tori 100× apart in size; any `O(n)` or `O(m)` pass that allocates
//! (an edge-set rebuild, a full coloring copy, a host-sized subgraph) shows
//! up as a byte count that grows with the graph and fails the 2× bound.
//!
//! Both sessions adopt the explicit 4-edge-coloring of an even torus, so no
//! cold coloring of the 400k-edge graph runs (debug builds included). The
//! whole battery lives in one `#[test]` because the counter is global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use distgraph::{generators, DynamicGraph, EdgeColoring, EdgeId, UpdateBatch};
use distsim::{ExecutionPolicy, IdAssignment};
use edgecolor::{default_palette, ColoringParams, Recoloring};

/// System allocator shim counting allocated bytes (alloc sizes plus
/// realloc target sizes); deallocations are not counted.
struct CountingAlloc;

static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const OPS: usize = 8;
const WARMUP: usize = 6;
const MEASURED: usize = 24;

/// The proper 4-edge-coloring of a `rows × cols` torus with both sides
/// even: horizontal edges alternate colors 0/1 along a row, vertical edges
/// 2/3 down a column (edge `2i` leaves node `i` rightwards, `2i + 1`
/// downwards, as `generators::grid_torus` lays them out).
fn torus_coloring(rows: usize, cols: usize) -> EdgeColoring {
    assert!(rows.is_multiple_of(2) && cols.is_multiple_of(2));
    let mut coloring = EdgeColoring::empty(2 * rows * cols);
    for i in 0..rows * cols {
        let (r, c) = (i / cols, i % cols);
        coloring.set(EdgeId::new(2 * i), c % 2);
        coloring.set(EdgeId::new(2 * i + 1), 2 + r % 2);
    }
    coloring
}

/// Bytes allocated by `MEASURED` steady-state `apply + repair` ticks on
/// the `rows × cols` torus. Tick `i` deletes `OPS` original edges spread
/// over the whole graph and re-inserts the pairs tick `i − 1` deleted, so
/// m and Δ stay put and every insert lands in a slot a delete freed.
fn tick_bytes(rows: usize, cols: usize) -> u64 {
    let g = generators::grid_torus(rows, cols);
    let stride = g.m() / (OPS * (WARMUP + MEASURED));
    let mut dg = DynamicGraph::from_graph(g);
    let ids = IdAssignment::contiguous(dg.n());
    let params = ColoringParams::new(0.5).with_policy(ExecutionPolicy::Sequential);
    let palette = default_palette(dg.graph().max_degree());
    let mut rec = Recoloring::adopt(&dg, torus_coloring(rows, cols), palette).unwrap();

    let mut previous: Vec<(usize, usize)> = Vec::new();
    let mut measured = 0;
    for tick in 0..WARMUP + MEASURED {
        let delete: Vec<EdgeId> = (0..OPS)
            .map(|k| EdgeId::new((tick * OPS + k) * stride))
            .collect();
        let pairs: Vec<(usize, usize)> = delete
            .iter()
            .map(|&s| {
                let (u, v) = dg.endpoints_stable(s).expect("original edges die once");
                (u.index(), v.index())
            })
            .collect();
        let batch = UpdateBatch {
            delete,
            insert: std::mem::replace(&mut previous, pairs),
        };
        let before = ALLOC_BYTES.load(Ordering::Relaxed);
        let diff = dg.apply(&batch).unwrap();
        let report = rec.repair(&dg, &diff, &ids, &params).unwrap();
        let spent = ALLOC_BYTES.load(Ordering::Relaxed) - before;
        assert!(!report.full_recolor);
        assert_eq!(report.repaired_edges, batch.insert.len());
        if tick >= WARMUP {
            measured += spent;
        }
    }
    let graph = dg.graph();
    edgecolor_verify::check_proper_edge_coloring(graph, rec.coloring()).assert_ok();
    edgecolor_verify::check_complete(graph, rec.coloring()).assert_ok();
    assert_eq!(graph.max_degree(), 4);
    assert!(graph.nodes().all(|v| graph.degree(v) <= 4));
    measured
}

#[test]
fn steady_state_ticks_allocate_independently_of_graph_size() {
    let small = tick_bytes(40, 50); // 2,000 nodes, 4,000 edges
    let large = tick_bytes(400, 500); // 200,000 nodes, 400,000 edges
    assert!(small > 0 && large > 0);
    assert!(
        large <= 2 * small && small <= 2 * large,
        "{MEASURED} ticks allocated {small} B on the 4k-edge torus but {large} B on \
         the 400k-edge torus: a tick is doing work proportional to the graph"
    );
}
