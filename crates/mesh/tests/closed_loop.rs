//! Randomized equivalence suite: the closed-loop [`IncrementalFlit`]
//! engine fed one message at a time must produce a final log
//! cycle-identical to an all-up-front batch [`NetEngine::simulate`] over the
//! same injection schedule.
//!
//! This is the correctness pin for the committed/speculative design: the
//! incremental engine may only ever commit cycles no future injection can
//! perturb, so however its speculation is promoted or discarded along the
//! way, the drained log — every record and every per-channel utilization
//! figure — must match the batch simulation byte for byte. Every per-send
//! answer is pinned too, against a prefix oracle: send *k* must return
//! message *k*'s delivery in a batch simulation of the first *k + 1*
//! messages — whether the engine speculated or answered an isolated send
//! at zero load. Seed-driven workloads sweep mesh shapes ×
//! virtual-channel counts × traffic patterns, the same harness style that
//! pins the batch router against its retained oracle in `equivalence.rs`.

use commchar_des::SimTime;
use commchar_mesh::{
    EngineError, IncrementalFlit, MeshConfig, NetEngine, NetMessage, NodeId, OnlineWormhole,
    Routing, SendPaths, Topology,
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

/// Contention-free delivery cycle of `m` under `cfg`.
fn zero_load_delivery(cfg: &MeshConfig, m: &NetMessage) -> u64 {
    m.inject.ticks() + cfg.zero_load_latency(m.bytes, cfg.shape.hop_distance(m.src, m.dst))
}

/// Feeds `msgs` one at a time through the closed-loop engine (sorted by
/// injection time, the trait's contract), asserts every answer against the
/// prefix oracle and the drained log byte-identical to a batch simulation
/// of the same slice.
fn assert_closed_loop_identical(cfg: MeshConfig, msgs: &[NetMessage], label: &str) -> SendPaths {
    let batch = IncrementalFlit::new(cfg).simulate(msgs).unwrap_or_else(|e| panic!("{label}: {e}"));

    let mut sorted: Vec<NetMessage> = msgs.to_vec();
    sorted.sort_by_key(|m| (m.inject, m.id));
    let mut engine = IncrementalFlit::new(cfg);
    for (k, &m) in sorted.iter().enumerate() {
        let d = engine.send(m).unwrap_or_else(|e| panic!("{label}: {e}")).ticks();
        assert!(
            d >= zero_load_delivery(&cfg, &m),
            "{label}: delivery {d} beats the zero-load bound (id {})",
            m.id
        );
        // The answer assumes no further traffic: it is message k's
        // delivery once the first k + 1 messages have drained.
        let prefix = IncrementalFlit::new(cfg).simulate(&sorted[..=k]).unwrap();
        let oracle = prefix.records().last().expect("prefix is nonempty");
        assert_eq!(oracle.id, m.id, "{label}: prefix log out of injection order");
        assert_eq!(d, oracle.delivered, "{label}: send {k} (id {}) answered off the oracle", m.id);
    }
    let paths = engine.send_paths();
    let log = engine.finish();

    assert_eq!(log.records().len(), batch.records().len(), "{label}: record count diverged");
    for (a, b) in log.records().iter().zip(batch.records()) {
        assert_eq!(a, b, "{label}: record diverged (id {})", b.id);
    }
    assert_eq!(log.utilization(), batch.utilization(), "{label}: utilization diverged");
    paths
}

#[test]
fn closed_loop_matches_batch_across_shapes_and_vcs() {
    for &(w, h) in &[(4u16, 4u16), (8, 2), (8, 8)] {
        let nodes = (w as usize) * (h as usize);
        for &vcs in &[1usize, 2, 4] {
            for seed in 0..3u64 {
                let cfg = MeshConfig::new(w, h).with_virtual_channels(vcs);
                let msgs = workload(seed * 31 + vcs as u64, nodes, 120, 6, 96);
                assert_closed_loop_identical(cfg, &msgs, &format!("{w}x{h} vcs={vcs} seed={seed}"));
            }
        }
    }
}

#[test]
fn closed_loop_matches_batch_across_topologies_and_routings() {
    // The speculation/commit machinery must be oblivious to the routing
    // policy and the wraparound links: every (topology × routing) cell,
    // at the minimum legal VC budget and with headroom.
    for topology in [Topology::Mesh, Topology::Torus] {
        for routing in [Routing::Dimension, Routing::Adaptive] {
            let base = MeshConfig::for_nodes_net(16, topology, routing);
            for &vcs in &[base.vc_classes(), base.vc_classes() * 2] {
                let cfg = base.with_virtual_channels(vcs);
                let msgs = workload(23 + vcs as u64, 16, 120, 6, 96);
                let label = format!("{topology} {routing} vcs={vcs}");
                assert_closed_loop_identical(cfg, &msgs, &label);
            }
        }
    }
}

#[test]
fn closed_loop_matches_batch_under_hotspot() {
    for &(w, h) in &[(4u16, 4u16), (8, 8)] {
        let nodes = (w as usize) * (h as usize);
        for &vcs in &[1usize, 2] {
            let cfg = MeshConfig::new(w, h).with_virtual_channels(vcs);
            let msgs = hotspot(workload(7 + vcs as u64, nodes, 160, 4, 64), nodes);
            assert_closed_loop_identical(cfg, &msgs, &format!("hotspot {w}x{h} vcs={vcs}"));
        }
    }
}

#[test]
fn closed_loop_matches_batch_with_nondefault_router_parameters() {
    let cfg = MeshConfig::new(8, 2)
        .with_virtual_channels(2)
        .with_buffer_flits(4)
        .with_router_delay(0)
        .with_link_delay(2);
    let msgs = workload(99, 16, 140, 5, 80);
    assert_closed_loop_identical(cfg, &msgs, "8x2 deep-buffer slow-link");

    let cfg = MeshConfig::new(4, 4).with_buffer_flits(8).with_router_delay(5);
    let msgs = workload(123, 16, 100, 3, 48);
    assert_closed_loop_identical(cfg, &msgs, "4x4 slow-router");

    // One-flit buffers: the zero-load formula does not hold there, so
    // every send must take the speculative path and still match.
    let cfg = MeshConfig::new(4, 4).with_buffer_flits(1).with_router_delay(0);
    let msgs = workload(77, 16, 100, 12, 48);
    assert_closed_loop_identical(cfg, &msgs, "4x4 one-flit buffers");
}

#[test]
fn closed_loop_matches_batch_on_simultaneous_injections() {
    // Every node fires at t=0 toward a shuffled partner — maximal
    // speculation churn, since no send's horizon ever passes another's.
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
        assert_closed_loop_identical(cfg, &msgs, &format!("simultaneous vcs={vcs}"));
    }
}

#[test]
fn closed_loop_matches_batch_on_widely_spaced_traffic() {
    // Large gaps between injections: every speculation gets promoted (it
    // finishes well before the next horizon), exercising the cheap path.
    let cfg = MeshConfig::new(4, 4).with_virtual_channels(2);
    let mut msgs = workload(41, 16, 60, 3, 64);
    for (i, m) in msgs.iter_mut().enumerate() {
        m.inject = SimTime::from_ticks(i as u64 * 10_000);
    }
    assert_closed_loop_identical(cfg, &msgs, "widely-spaced");
}

#[test]
fn closed_loop_matches_batch_on_sparse_traffic() {
    // Gaps long enough for most worms to drain before the next injection
    // but not all: isolated sends (answered at zero load) interleave with
    // speculative ones, across every (topology × routing) cell.
    for topology in [Topology::Mesh, Topology::Torus] {
        for routing in [Routing::Dimension, Routing::Adaptive] {
            let base = MeshConfig::for_nodes_net(16, topology, routing);
            // Slow links with no router charge: a just-delivered worm's
            // last channels are still busy when the next head sets out.
            for cfg in [base, base.with_link_delay(3).with_router_delay(0)] {
                let msgs = workload(61, 16, 120, 60, 64);
                let label = format!("sparse {topology} {routing} link={}", cfg.link_delay);
                assert_closed_loop_identical(cfg, &msgs, &label);
            }
        }
    }
}

#[test]
fn closed_loop_matches_batch_when_sends_cross_long_worms() {
    // 2–4 KB worms stream for thousands of cycles, and injections a few
    // hundred cycles apart land while earlier ones are mid-flight: some
    // sends find their footprint free and become ghost worms, and later
    // sends that cross a ghost before its delivery must materialize it.
    for topology in [Topology::Mesh, Topology::Torus] {
        for routing in [Routing::Dimension, Routing::Adaptive] {
            let cfg = MeshConfig::for_nodes_net(16, topology, routing);
            let mut msgs = workload(83, 16, 24, 900, 2048);
            for m in &mut msgs {
                m.bytes += 2047;
            }
            let label = format!("long worms {topology} {routing}");
            let paths = assert_closed_loop_identical(cfg, &msgs, &label);
            assert!(paths.ghosts > 0 && paths.materialized > 0, "{label}: {paths:?}");
            assert!(paths.materialized < paths.ghosts, "{label}: {paths:?}");
        }
    }
}

/// The configurations the zero-load premise is swept over: every
/// (topology × routing) cell at the minimum and twice the minimum VC
/// budget, link delays 1–3 and router delays 0–3.
fn premise_configs() -> Vec<MeshConfig> {
    let mut cfgs = Vec::new();
    for topology in [Topology::Mesh, Topology::Torus] {
        for routing in [Routing::Dimension, Routing::Adaptive] {
            let base = MeshConfig::for_nodes_net(16, topology, routing);
            for vcs in [base.vc_classes(), base.vc_classes() * 2] {
                for link in 1..=3 {
                    for router in 0..=3 {
                        cfgs.push(
                            base.with_virtual_channels(vcs)
                                .with_link_delay(link)
                                .with_router_delay(router),
                        );
                    }
                }
            }
        }
    }
    cfgs
}

#[test]
fn isolated_worm_is_delivered_at_zero_load() {
    // The closed-loop fast path's premise: a worm alone in the network is
    // delivered at exactly `inject + zero_load_latency` whenever buffers
    // hold at least two flits.
    let mut cases = 0;
    for cfg in premise_configs() {
        for buffer in [2, 3, 8] {
            let cfg = cfg.with_buffer_flits(buffer);
            let mut rng = Lcg::new(buffer as u64);
            for pair in 0..10u64 {
                let src = rng.below(16) as u16;
                let dst = (src + 1 + rng.below(15) as u16) % 16;
                for bytes in [1u32, 17, 200] {
                    let m = NetMessage {
                        id: pair,
                        src: NodeId(src),
                        dst: NodeId(dst),
                        bytes,
                        inject: SimTime::from_ticks(5 + pair),
                    };
                    let log = IncrementalFlit::new(cfg).simulate(&[m]).unwrap();
                    assert_eq!(
                        log.records()[0].delivered,
                        zero_load_delivery(&cfg, &m),
                        "{cfg:?}: {src}->{dst} {bytes}B"
                    );
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 8_640);
}

#[test]
fn one_flit_buffers_break_the_zero_load_formula() {
    // Why the fast path requires `buffer_flits >= 2`: with one-flit
    // buffers a lone 1-byte worm 0 -> 15 takes 16 cycles, not the
    // formula's 12, and the closed-loop answer must be the true 16.
    let cfg = MeshConfig::new(4, 4).with_buffer_flits(1).with_router_delay(0);
    let m = NetMessage { id: 0, src: NodeId(0), dst: NodeId(15), bytes: 1, inject: SimTime::ZERO };
    assert_eq!(zero_load_delivery(&cfg, &m), 12);
    let batch = IncrementalFlit::new(cfg).simulate(&[m]).unwrap();
    assert_eq!(batch.records()[0].delivered, 16);
    let mut engine = IncrementalFlit::new(cfg);
    assert_eq!(engine.send(m).unwrap().ticks(), 16);
}

#[test]
fn closed_loop_engines_agree_on_the_contract() {
    // The two NetEngine implementations answer the same feed without
    // error and report the same message population (latencies differ —
    // that delta is exactly what exp_engine_fidelity measures).
    let cfg = MeshConfig::new(4, 4).with_virtual_channels(2);
    let mut msgs = workload(17, 16, 80, 8, 64);
    msgs.sort_by_key(|m| (m.inject, m.id));
    let mut rec = OnlineWormhole::new(cfg);
    let mut flit = IncrementalFlit::new(cfg);
    for &m in &msgs {
        rec.send(m).unwrap();
        flit.send(m).unwrap();
    }
    let a = rec.finish();
    let b = flit.finish();
    assert_eq!(a.records().len(), b.records().len());
    for (ra, rb) in a.records().iter().zip(b.records()) {
        assert_eq!(
            (ra.id, ra.src, ra.dst, ra.bytes, ra.inject),
            (rb.id, rb.src, rb.dst, rb.bytes, rb.inject)
        );
    }
}

#[test]
fn out_of_order_feed_surfaces_as_typed_error() {
    let cfg = MeshConfig::new(4, 4);
    let mut engine = IncrementalFlit::new(cfg);
    engine
        .send(NetMessage {
            id: 0,
            src: NodeId(0),
            dst: NodeId(5),
            bytes: 16,
            inject: SimTime::from_ticks(100),
        })
        .unwrap();
    let err = engine
        .send(NetMessage {
            id: 1,
            src: NodeId(1),
            dst: NodeId(2),
            bytes: 16,
            inject: SimTime::from_ticks(40),
        })
        .unwrap_err();
    assert!(matches!(err, EngineError::OutOfOrder { id: 1, .. }), "{err}");
}
