//! Multi-graph serving battery: one daemon, several tenants, pipelined
//! connections.
//!
//! Three properties pin the v2 registry design:
//!
//! 1. **Isolation + determinism**: clients spread across two tenants
//!    mutate concurrently; afterwards each tenant's coloring is
//!    checker-valid and **bit-identical** to a sequential replay of *its
//!    own* coalesced batch log — tenant logs never bleed into each other.
//! 2. **Out-of-order completion**: on one pipelined connection, a slow
//!    flush on graph 0 and a fast lookup on graph 1 complete out of
//!    submission order, proven by request-id tagging. (Each round's flush
//!    applies a freshly admitted batch pile that drives one hub's degree
//!    past the palette budget, forcing a full recolor of graph 0 —
//!    milliseconds of work against a microsecond lookup — so even on one
//!    CPU at least one of the rounds must invert; we assert exactly that,
//!    not a race-y all-of-them. A local repair of the pile would not do:
//!    it costs O(batch·Δ), about as little as the lookup.)
//! 3. **v1 fallback**: a handshake-less connection keeps full v1 semantics
//!    against graph 0 of the same daemon that is serving v2 tenants.

use distgraph::{generators, DynamicGraph};
use distserve::wire::{LookupOutcome, RejectCode, Request, Response};
use distserve::{
    Client, ClientBuilder, DaemonHandle, PipelinedClient, Rejection, ServeConfig, ServerCore,
    Tenant,
};
use edgecolor::Recoloring;
use edgecolor_verify::{check_complete, check_delta, check_proper_edge_coloring};
use std::time::Duration;

/// Diagonal neighbor on an `rows × cols` torus — never a torus edge, so
/// inserting `(a, diag(a))` is always admissible exactly once.
fn diag(a: usize, rows: usize, cols: usize) -> usize {
    let (r, c) = (a / cols, a % cols);
    ((r + 1) % rows) * cols + (c + 1) % cols
}

fn submit_admitted(client: &mut Client, delete: &[u64], insert: &[(u32, u32)]) {
    loop {
        match client
            .submit(delete.to_vec(), insert.to_vec())
            .expect("transport stays up")
        {
            Ok(_) => return,
            Err(Rejection {
                code: RejectCode::QueueFull | RejectCode::SwapInProgress,
                ..
            }) => std::thread::sleep(Duration::from_micros(200)),
            Err(r) => panic!("admissible batch rejected: {r}"),
        }
    }
}

/// Replays a tenant's coalesced batch log sequentially through a fresh
/// session and asserts the final coloring matches the served one bit for
/// bit (the same strong property `tests/concurrency.rs` pins for the
/// single-graph daemon).
fn assert_replay_bit_identical(tenant: &Tenant, rows: usize, cols: usize) {
    let st = tenant.state_snapshot();
    check_proper_edge_coloring(st.dynamic().graph(), st.coloring()).assert_ok();
    check_complete(st.dynamic().graph(), st.coloring()).assert_ok();

    let mut dg = DynamicGraph::from_graph(generators::grid_torus(rows, cols));
    let max_deg0 = dg.graph().max_degree();
    let ids = st.ids().clone();
    let params = *tenant.params();
    let budget = edgecolor::default_palette(max_deg0 + tenant.config().headroom);
    let (mut rec, _) = Recoloring::with_budget(&dg, &ids, &params, budget).expect("replay boot");
    for (epoch, batch) in &tenant.batch_log() {
        assert_eq!(*epoch, 1, "no swaps in this battery");
        let diff = dg.apply(batch).expect("logged batches replay cleanly");
        let report = rec
            .repair(&dg, &diff, &ids, &params)
            .expect("replay repair");
        check_delta(dg.graph(), rec.coloring(), &report.touched, rec.palette()).assert_ok();
    }
    assert_eq!(dg.graph().m(), st.dynamic().graph().m());
    assert_eq!(
        rec.coloring(),
        st.coloring(),
        "tenant diverged from sequential replay of its own batch log"
    );
}

fn spawn_two_tenants(dims: [(usize, usize); 2], tick_interval_ms: Option<u64>) -> DaemonHandle {
    let config = ServeConfig {
        tick_interval_ms,
        ..ServeConfig::default()
    };
    let tenants = dims
        .iter()
        .enumerate()
        .map(|(k, &(r, c))| {
            Tenant::new(
                format!("t{k}"),
                generators::grid_torus(r, c),
                config.clone(),
            )
            .expect("boot tenant")
        })
        .collect();
    DaemonHandle::spawn(ServerCore::from_tenants(tenants)).expect("bind")
}

/// Property 1: concurrent clients across two tenants; each tenant's final
/// coloring is checker-valid and bit-identical to a sequential replay of
/// its own batch log.
#[test]
fn tenants_isolate_and_replay_bit_identically() {
    const DIMS: [(usize, usize); 2] = [(10, 10), (8, 8)];
    const CLIENTS_PER_GRAPH: usize = 2;
    const OPS: usize = 30;
    let daemon = spawn_two_tenants(DIMS, Some(1));
    let addr = daemon.addr();

    std::thread::scope(|s| {
        for (gid, &(rows, cols)) in DIMS.iter().enumerate() {
            for slot in 0..CLIENTS_PER_GRAPH {
                s.spawn(move || {
                    let (n, m0) = (rows * cols, 2 * rows * cols);
                    let mut client = Client::connect(addr).expect("connect");
                    client.set_graph(gid as u32);
                    let (mut anchor, mut dead) = (slot, slot);
                    for i in 0..OPS {
                        let probe = ((slot * 31 + i * 7) % m0) as u64;
                        let _ = client.lookup(probe).expect("lookup");
                        if i % 2 == 0 && anchor < n {
                            submit_admitted(
                                &mut client,
                                &[],
                                &[(anchor as u32, diag(anchor, rows, cols) as u32)],
                            );
                            anchor += CLIENTS_PER_GRAPH;
                        } else if dead < m0 {
                            submit_admitted(&mut client, &[dead as u64], &[]);
                            dead += CLIENTS_PER_GRAPH;
                        }
                    }
                });
            }
        }
    });

    // Drain both tenants, then audit each independently.
    let mut client = Client::connect(addr).expect("connect");
    for gid in 0..DIMS.len() {
        client.set_graph(gid as u32);
        assert_eq!(client.flush().expect("flush").epoch, 1);
    }
    let core = daemon.core().clone();
    daemon.shutdown();
    assert_eq!(core.internal_errors(), 0);
    for (gid, &(rows, cols)) in DIMS.iter().enumerate() {
        let tenant = &core.tenants()[gid];
        assert_eq!(tenant.queue_depth(), 0, "flush left tenant {gid} behind");
        assert!(
            !tenant.batch_log().is_empty(),
            "tenant {gid} saw no writes at all"
        );
        assert_replay_bit_identical(tenant, rows, cols);
    }
}

/// Property 2: out-of-order completion across graphs on one pipelined
/// connection, demonstrated by request-id tagging.
#[test]
fn pipelined_responses_complete_out_of_order_across_graphs() {
    const ROUNDS: usize = 5;
    const INSERTS_PER_ROUND: usize = 20;
    // Manual ticks only: admissions pile up until the flush applies them
    // all at once. Every pile attaches INSERTS_PER_ROUND new edges to the
    // hub, more than the palette headroom absorbs, so every graph-0 flush
    // runs a full recolor and is reliably slower than a graph-1 lookup.
    let daemon = spawn_two_tenants([(12, 12), (6, 6)], None);
    let mut admitter = Client::connect(daemon.addr()).expect("connect");
    let mut conn = PipelinedClient::connect(daemon.addr()).expect("connect pipelined");

    let (hub, cols, n) = (0usize, 12usize, 144usize);
    let torus_neighbors = [1, cols - 1, cols, n - cols];
    let mut spokes = (hub + 1..n).filter(|v| !torus_neighbors.contains(v));
    let mut inversions = 0usize;
    for _ in 0..ROUNDS {
        for _ in 0..INSERTS_PER_ROUND {
            let spoke = spokes.next().expect("spoke budget exhausted");
            submit_admitted(&mut admitter, &[], &[(hub as u32, spoke as u32)]);
        }
        let slow = conn.send(0, &Request::Flush).expect("send flush");
        let fast = conn
            .send(1, &Request::Lookup { stable: 3 })
            .expect("send lookup");
        let (first_rid, first) = conn.recv_any().expect("first completion");
        let (second_rid, second) = conn.recv_any().expect("second completion");
        assert_eq!(
            [first_rid, second_rid]
                .iter()
                .collect::<std::collections::BTreeSet<_>>(),
            [slow.id(), fast.id()].iter().collect(),
            "both tickets answered exactly once"
        );
        for (rid, resp) in [(first_rid, &first), (second_rid, &second)] {
            if rid == slow.id() {
                assert!(matches!(resp, Response::Flushed { .. }), "got {resp:?}");
            } else {
                assert!(matches!(resp, Response::Color { .. }), "got {resp:?}");
            }
        }
        if first_rid == fast.id() {
            inversions += 1; // the later-submitted lookup finished first
        }
    }
    assert!(
        inversions >= 1,
        "no out-of-order completion in {ROUNDS} rounds: pipelining is not \
         actually decoupling the graphs"
    );
    let slow_side = daemon.core().tenants()[0].metrics(0);
    assert_eq!(
        slow_side.full_recolors, ROUNDS as u64,
        "every graph-0 flush must have run the slow full recolor"
    );
    daemon.shutdown();
}

/// Property 3: handshake-less connections keep v1 semantics against graph
/// 0 of a daemon that is simultaneously serving v2 tenants.
#[test]
fn v1_fallback_serves_graph_zero_alongside_v2_tenants() {
    let daemon = spawn_two_tenants([(6, 6), (5, 5)], None);
    let addr = daemon.addr();

    // A v2 client writes to graph 1...
    let mut v2 = Client::connect(addr).expect("v2 connect");
    assert_eq!(v2.catalog().len(), 2);
    v2.set_graph(1);
    v2.submit(vec![], vec![(0, 6)])
        .expect("submit")
        .expect("admissible");
    assert_eq!(v2.flush().expect("flush").epoch, 1);

    // ...while a handshake-less v1 client works graph 0, full surface.
    let mut v1 = ClientBuilder::new().connect_v1(addr).expect("v1 connect");
    match v1.lookup(0).expect("lookup") {
        (LookupOutcome::Colored { .. }, 1, _) => {}
        other => panic!("v1 lookup answered {other:?}"),
    }
    v1.submit(vec![], vec![(0, 7)])
        .expect("submit")
        .expect("admissible");
    assert_eq!(v1.flush().expect("flush").epoch, 1);
    let m_v1 = v1.metrics().expect("metrics");

    // The v1 write landed on tenant 0 and only tenant 0; the v2 write on
    // tenant 1 and only tenant 1.
    let core = daemon.core();
    let t0 = core.tenants()[0].state_snapshot();
    let t1 = core.tenants()[1].state_snapshot();
    assert_eq!(t0.dynamic().graph().m(), 2 * 36 + 1);
    assert_eq!(t1.dynamic().graph().m(), 2 * 25 + 1);
    assert_eq!(m_v1.m, 2 * 36 + 1, "v1 metrics report graph 0");
    check_proper_edge_coloring(t0.dynamic().graph(), t0.coloring()).assert_ok();
    check_proper_edge_coloring(t1.dynamic().graph(), t1.coloring()).assert_ok();
    daemon.shutdown();
}
