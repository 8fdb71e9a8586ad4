//! Randomized equivalence suite: the event-driven [`IncrementalFlit`] must be
//! cycle-identical to the retained cycle-loop [`FlitCycleReference`].
//!
//! Seed-driven workloads sweep mesh shapes × virtual-channel counts ×
//! traffic patterns and assert byte-identical `NetLog`s — every record
//! (delivered time, and therefore blocked cycles) and every per-channel
//! utilization figure. Any divergence in switch allocation order, VC
//! assignment, buffer backpressure or idle-time skipping shows up here as
//! a concrete record diff.

use commchar_des::SimTime;
use commchar_mesh::{
    EngineError, FlitCycleReference, IncrementalFlit, MeshConfig, NetEngine, NetMessage, NodeId,
    Routing, Topology,
};

/// Deterministic 64-bit LCG (MMIX constants) — no external RNG crates.
struct Lcg(u64);

impl Lcg {
    fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 =
            self.0.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Uniform-random workload: `count` messages, random pairs, sizes and a
/// bursty injection process that keeps the network contended.
fn workload(seed: u64, nodes: usize, count: usize, spread: u64, max_bytes: u64) -> Vec<NetMessage> {
    let mut rng = Lcg::new(seed);
    let mut msgs = Vec::with_capacity(count);
    let mut t = 0u64;
    for id in 0..count as u64 {
        let src = rng.below(nodes as u64) as u16;
        let mut dst = rng.below(nodes as u64) as u16;
        if dst == src {
            dst = (dst + 1) % nodes as u16;
        }
        // Bursts: ~1 in 4 messages shares its predecessor's inject time.
        if rng.below(4) != 0 {
            t += rng.below(spread);
        }
        msgs.push(NetMessage {
            id,
            src: NodeId(src),
            dst: NodeId(dst),
            bytes: 1 + rng.below(max_bytes) as u32,
            inject: SimTime::from_ticks(t),
        });
    }
    msgs
}

/// Hotspot overlay: the last quarter of the messages all target one node.
fn hotspot(mut msgs: Vec<NetMessage>, nodes: usize) -> Vec<NetMessage> {
    let start = msgs.len() - msgs.len() / 4;
    for m in &mut msgs[start..] {
        m.dst = NodeId((nodes / 2) as u16);
        if m.src == m.dst {
            m.src = NodeId(0);
        }
    }
    msgs.retain(|m| m.src != m.dst);
    msgs
}

fn assert_identical(cfg: MeshConfig, msgs: &[NetMessage], label: &str) {
    let fast = IncrementalFlit::new(cfg).simulate(msgs).unwrap_or_else(|e| panic!("{label}: {e}"));
    let reference = FlitCycleReference::new(cfg).simulate(msgs);
    assert_eq!(fast.records().len(), reference.records().len(), "{label}: record count diverged");
    for (a, b) in fast.records().iter().zip(reference.records()) {
        assert_eq!(a, b, "{label}: record diverged (id {})", b.id);
    }
    assert_eq!(fast.utilization(), reference.utilization(), "{label}: utilization diverged");
}

#[test]
fn event_driven_matches_reference_across_shapes_and_vcs() {
    for &(w, h) in &[(4u16, 4u16), (8, 2), (8, 8)] {
        let nodes = (w as usize) * (h as usize);
        for &vcs in &[1usize, 2, 4] {
            for seed in 0..3u64 {
                let cfg = MeshConfig::new(w, h).with_virtual_channels(vcs);
                let msgs = workload(seed * 31 + vcs as u64, nodes, 120, 6, 96);
                assert_identical(cfg, &msgs, &format!("{w}x{h} vcs={vcs} seed={seed}"));
            }
        }
    }
}

#[test]
fn event_driven_matches_reference_under_hotspot() {
    for &(w, h) in &[(4u16, 4u16), (8, 8)] {
        let nodes = (w as usize) * (h as usize);
        for &vcs in &[1usize, 2] {
            let cfg = MeshConfig::new(w, h).with_virtual_channels(vcs);
            let msgs = hotspot(workload(7 + vcs as u64, nodes, 160, 4, 64), nodes);
            assert_identical(cfg, &msgs, &format!("hotspot {w}x{h} vcs={vcs}"));
        }
    }
}

#[test]
fn event_driven_matches_reference_with_nondefault_router_parameters() {
    // Deeper buffers, slower links, instant routing decisions: exercises
    // the busy_until wheel and the head-ready charge paths differently.
    let cfg = MeshConfig::new(8, 2)
        .with_virtual_channels(2)
        .with_buffer_flits(4)
        .with_router_delay(0)
        .with_link_delay(2);
    let msgs = workload(99, 16, 140, 5, 80);
    assert_identical(cfg, &msgs, "8x2 deep-buffer slow-link");

    let cfg = MeshConfig::new(4, 4).with_buffer_flits(8).with_router_delay(5);
    let msgs = workload(123, 16, 100, 3, 48);
    assert_identical(cfg, &msgs, "4x4 slow-router");
}

#[test]
fn event_driven_matches_reference_on_simultaneous_injections() {
    // Every node fires at t=0 toward a shuffled partner — maximal tie
    // breaking stress for the round-robin allocators.
    for &vcs in &[1usize, 2, 4] {
        let cfg = MeshConfig::new(4, 4).with_virtual_channels(vcs);
        let mut rng = Lcg::new(5 + vcs as u64);
        let msgs: Vec<NetMessage> = (0..16u64)
            .map(|i| NetMessage {
                id: i,
                src: NodeId(i as u16),
                dst: NodeId(((i + 1 + rng.below(14)) % 16) as u16),
                bytes: 8 + rng.below(56) as u32,
                inject: SimTime::ZERO,
            })
            .filter(|m| m.src != m.dst)
            .collect();
        assert_identical(cfg, &msgs, &format!("simultaneous vcs={vcs}"));
    }
}

#[test]
fn event_driven_matches_reference_across_topologies_and_routings() {
    // The full (topology × routing) matrix, sized so every VC-class
    // budget is covered at its minimum and with headroom.
    for topology in [Topology::Mesh, Topology::Torus] {
        for routing in [Routing::Dimension, Routing::Adaptive] {
            let base = MeshConfig::for_nodes_net(16, topology, routing);
            for &vcs in &[base.vc_classes(), base.vc_classes() * 2] {
                let cfg = base.with_virtual_channels(vcs);
                for seed in 0..2u64 {
                    let msgs = workload(seed * 17 + vcs as u64, 16, 120, 6, 96);
                    let label = format!("{topology} {routing} vcs={vcs} seed={seed}");
                    assert_identical(cfg, &msgs, &label);
                }
            }
        }
    }
}

#[test]
fn event_driven_matches_reference_under_torus_hotspot() {
    for routing in [Routing::Dimension, Routing::Adaptive] {
        let cfg = MeshConfig::for_nodes_net(36, Topology::Torus, routing);
        let msgs = hotspot(workload(11, 36, 160, 4, 64), 36);
        assert_identical(cfg, &msgs, &format!("torus hotspot {routing}"));
    }
}

#[test]
fn undersized_vc_budget_is_a_typed_error_not_a_panic() {
    // A torus needs an escape-VC class per dateline state; adaptive
    // routing doubles the budget. Both shortfalls surface as the typed
    // `UnsupportedTopology` error rather than a constructor panic.
    let err = IncrementalFlit::try_new(MeshConfig::new_torus(4, 4)).unwrap_err();
    assert!(
        matches!(
            err,
            EngineError::UnsupportedTopology {
                topology: Topology::Torus,
                routing: Routing::Dimension,
                needed: 2,
                have: 1,
            }
        ),
        "unexpected error: {err}"
    );

    let cfg = MeshConfig::new_torus(4, 4).with_routing(Routing::Adaptive).with_virtual_channels(2);
    let err = IncrementalFlit::try_new(cfg).unwrap_err();
    assert!(
        matches!(err, EngineError::UnsupportedTopology { needed: 4, have: 2, .. }),
        "unexpected error: {err}"
    );
    assert!(IncrementalFlit::try_new(cfg.with_virtual_channels(4)).is_ok());
}
