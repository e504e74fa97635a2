//! Integration: what a ring cluster's membership costs the host follows
//! the size of the change, not the size of the cluster.
//!
//! A `Ring` is a handle on one immutable point table per membership
//! epoch (`replication::kernel::ring`): deploying a cluster copies a
//! pointer per node, the first node to see a `MembershipChange` builds
//! the next table and the rest adopt it, and the ownership diff walks
//! each stored key once without allocating unless the key moves. A
//! private table per node (206 tables' worth of bytes at deployment and
//! 410 per change at 200 nodes, when this test was written against the
//! code it replaced) or a `Vec` per stored key shows here as bytes or
//! allocations that follow the node or key count. Exact, not timed:
//! this binary installs [`CountingAlloc`], and a seeded run allocates
//! the same every time.

use rethinking_ec::clocks::LamportTimestamp;
use rethinking_ec::obs::{alloc_totals, CountingAlloc};
use rethinking_ec::replication::kernel::Composition;
use rethinking_ec::replication::quorum::{Msg, QuorumNode, WireVersion};
use rethinking_ec::replication::sharded::{initial_ring, Ring};
use rethinking_ec::simnet::{
    Actor, Duration, FaultSchedule, LatencyModel, NodeId, Sim, SimConfig, SimTime,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const VNODES: usize = 16;

fn comp() -> Composition {
    Composition::quorum(3, 2, 2, true, 2)
}

/// Bytes of one point table: a `(u64, u32)` point per vnode per node.
fn table_bytes(nodes: usize) -> u64 {
    (nodes * VNODES * std::mem::size_of::<(u64, u32)>()) as u64
}

/// `(bytes, allocations)` this thread made while `f` ran.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (bytes, count) = alloc_totals();
    let out = f();
    let (bytes_after, count_after) = alloc_totals();
    (out, bytes_after - bytes, count_after - count)
}

/// Build the cluster's nodes the way `rec_core::deploy` does: one ring,
/// a clone of it per node.
fn nodes_of(nodes: usize, ring: Option<&Ring>) -> Vec<Box<dyn Actor<Msg>>> {
    (0..nodes).map(|_| Box::new(QuorumNode::new(&comp(), ring.cloned())) as _).collect()
}

#[test]
fn deploying_a_cluster_allocates_one_point_table() {
    let nodes = 200;
    let (_flat, flat_bytes, _) = counted(|| nodes_of(nodes, None));
    let (_ring, ring_bytes, _) = counted(|| {
        let ring = initial_ring(&comp(), nodes, VNODES);
        nodes_of(nodes, Some(&ring))
    });
    // Measured 53 512 B: the table, the member set and the `Rc`. The
    // private-table-per-node deployment this replaced: 10 575 008 B.
    let for_the_ring = ring_bytes - flat_bytes;
    assert!(
        for_the_ring >= table_bytes(nodes),
        "{for_the_ring} B cannot hold a {} B point table",
        table_bytes(nodes)
    );
    assert!(
        for_the_ring < 2 * table_bytes(nodes),
        "a {nodes}-node ring deployment allocated {for_the_ring} B more than a flat one: \
         {:.1} point tables",
        for_the_ring as f64 / table_bytes(nodes) as f64
    );
}

/// A `nodes`-node ring cluster with about `keys_per_node` keys on every
/// node (each key on its three owners), run up to just before node 0
/// leaves at 10 ms; no clients, so nothing else is in flight.
fn cluster_before_a_leave(nodes: usize, keys_per_node: usize) -> Sim<Msg> {
    let mut sim: Sim<Msg> = Sim::new(
        SimConfig::default()
            .seed(7)
            .latency(LatencyModel::Constant(Duration::from_millis(1)))
            .faults(FaultSchedule::none().membership(SimTime::from_millis(10), NodeId(0), false)),
    );
    let ring = initial_ring(&comp(), nodes, VNODES);
    for node in nodes_of(nodes, Some(&ring)) {
        sim.add_node(node);
    }
    let ts = LamportTimestamp::new(1, 0);
    for key in 0..(nodes * keys_per_node / 3) as u64 {
        let version = WireVersion { value: key + 1, ts, written_at: 0 };
        for owner in ring.owners(key) {
            sim.inject_at(SimTime::ZERO, owner, owner, Msg::Repair { key, version });
        }
    }
    sim.run_until(SimTime::from_millis(9));
    assert_eq!(sim.inflight_messages(), 0);
    sim
}

/// `(bytes, allocations, pushes sent)` of dispatching the one membership
/// change to every node — not of delivering what it sent, a millisecond
/// later.
fn one_change(nodes: usize, keys_per_node: usize) -> (u64, u64, u64) {
    let mut sim = cluster_before_a_leave(nodes, keys_per_node);
    let stored = sim.key_versions().len();
    assert!(stored >= nodes * keys_per_node * 9 / 10, "{stored} keys stored");
    let (_, bytes, allocs) = counted(|| sim.run_until(SimTime::from_millis(10)));
    (bytes, allocs, sim.inflight_messages())
}

#[test]
fn a_membership_change_builds_one_table_for_the_whole_cluster() {
    // Measured 52 472 B at 200 nodes and 104 776 B at 400; two clones
    // and a rebuild per node made it 20 992 016 B at 200.
    let (bytes_200, ..) = one_change(200, 0);
    assert!(
        bytes_200 >= table_bytes(200) && bytes_200 <= 3 * table_bytes(200),
        "one change at 200 nodes allocated {bytes_200} B: {:.1} point tables",
        bytes_200 as f64 / table_bytes(200) as f64
    );
    // Twice the nodes is twice the points, not four times the copying.
    let (bytes_400, ..) = one_change(400, 0);
    assert!(
        bytes_400 as f64 <= 2.5 * bytes_200 as f64,
        "one change allocated {bytes_200} B at 200 nodes and {bytes_400} B at 400"
    );
}

#[test]
fn a_membership_change_allocates_nothing_for_a_key_that_stays() {
    let nodes = 200;
    let (_, empty_allocs, no_pushes) = one_change(nodes, 0);
    assert_eq!(no_pushes, 0);
    let (_, allocs, pushes) = one_change(nodes, 100);
    assert!(pushes >= 50, "node 0 left and only {pushes} pushes were sent");
    // Per node that stores anything: the two owner buffers of the diff.
    // Per push: its place in the move list, the effect list and the event
    // queue. Per stored key (20 000 of them here): nothing. Measured 313
    // with 99 pushes; the loop this replaced made 35 113.
    let bound = empty_allocs + 2 * nodes as u64 + 4 * pushes;
    assert!(
        allocs <= bound,
        "{allocs} allocations to dispatch one change over {} stored keys with {pushes} pushes \
         (bound {bound})",
        nodes * 100
    );
}
