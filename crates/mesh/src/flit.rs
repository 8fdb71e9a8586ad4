//! Cycle-accurate flit-level wormhole router model with virtual channels,
//! driven by an event wheel instead of a per-cycle full-state scan.
//!
//! Routers have five input ports (one per neighbour plus injection), each
//! with `virtual_channels` finite FIFO buffers; five output ports (plus
//! ejection) whose virtual channels are owned by at most one worm each
//! while the physical channel accepts one flit per `link_delay` cycles;
//! round-robin switch and VC allocation; wormhole flow control. Header
//! flits pay a `router_delay` routing charge at every router; body flits
//! stream behind on the established path.
//!
//! # Event-driven microarchitecture
//!
//! The retained [`FlitCycleReference`](crate::FlitCycleReference) walks
//! every node × port × VC buffer every cycle. This model produces the
//! exact same cycle-by-cycle state evolution while only touching state
//! that has work:
//!
//! - **Hop cursors** — every flit carries the index of its current hop in
//!   its worm's precomputed route (stored in one flat arena, no per-worm
//!   allocation), so "which output does this flit want" is an O(1) array
//!   read instead of a linear route search per candidate per cycle.
//! - **Request queues** — each output port keeps a sorted list of input
//!   buffers whose *head* flit requests it, maintained when a flit becomes
//!   head-of-buffer (landing into an empty buffer, or exposed by a pop).
//!   A cycle's switch-allocation pass visits only outputs with registered
//!   requests, in the reference's node-major/port-minor order; stale
//!   entries are dropped lazily at visit time. New requests registered
//!   *behind* the sweep position join the same cycle, matching the
//!   reference's in-cycle sequential scan.
//! - **Event wheel** — a dirty bitset over output ports plus a
//!   power-of-two time ring replaces both the linear `in_flight` scan and
//!   the O(network) `next_interesting` sweep. Every enabling transition
//!   (a flit landing, a head-ready charge elapsing, a `busy_until`
//!   expiration, an NI injection becoming available, a buffer slot
//!   freeing) either sets the output's dirty bit for the current cycle or
//!   drops the output id into `ring[t & (wheel-1)]` for the cycle the
//!   condition holds; ring slots are promoted into the bitset at the top
//!   of each cycle and the bitset is swept in ascending output order —
//!   the reference's node-major/port-minor order. The ring only needs
//!   `max(link_delay, router_delay) + 2` slots because no enabling event
//!   schedules further ahead than that; arrivals and NI entry times
//!   beyond the horizon wait in a bucketed FIFO and a small heap. Extra
//!   visits are harmless (a visit where nothing can move changes no
//!   state — round-robin pointers and VC owners mutate only on actual
//!   moves), so the visit set only needs to be a *superset* of the
//!   reference's action times — that is what makes the two models
//!   cycle-identical by construction, and the randomized equivalence
//!   suite (`tests/equivalence.rs`) pins it across shapes, VC counts and
//!   seeds.
//! - **Flat storage** — input buffers live in one slab of power-of-two
//!   rings (`bhead`/`blen` arrays, no per-buffer `VecDeque`), request
//!   queues in one stride-indexed array, and the speculative snapshot
//!   reuses every allocation, so the hot loop allocates nothing.
//!
//! With one virtual channel the model reduces to a plain wormhole router
//! and cross-validates the [`OnlineWormhole`](crate::OnlineWormhole)
//! recurrence; with more it quantifies the head-of-line blocking the
//! recurrence model's single-resource channels overstate (the
//! Kumar–Bhuyan question the paper cites). Throughput relative to the
//! reference is tracked in `BENCH_flit.json` (see `scripts/check.sh
//! --bench-smoke`).

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::num::NonZeroU64;

use commchar_des::SimTime;

use crate::engine::{EngineError, NetEngine};
use crate::sink::LogSink;
use crate::{
    MeshConfig, MeshShape, MsgRecord, NetLog, NetMessage, NodeId, StreamingLog, HOP_PORT_BITS,
    HOP_PORT_MASK,
};

mod shard;

const PORT_E: usize = 0;
const PORT_W: usize = 1;
const PORT_S: usize = 2;
const PORT_N: usize = 3;
const PORT_LOCAL: usize = 4; // injection (input) / ejection (output)
const NPORTS: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Head,
    Body,
    Tail,
}

#[derive(Clone, Copy, Debug)]
struct Flit {
    worm: u32,
    kind: Kind,
    /// Earliest cycle this flit may move (router charge for heads).
    ready: u64,
    /// Hop cursor: absolute index into the shared route arena of the hop
    /// this flit is currently at — `routes[hop]` is its requested output
    /// port (the flit's node is implicit in which buffer holds it).
    hop: u32,
}

/// One message in flight. Kept at 56 bytes: the closed-loop engine holds
/// two copies of the worm arena, its largest allocations.
#[derive(Clone, Copy, Debug)]
struct Worm {
    msg: NetMessage,
    /// Offset/length of this worm's route in the shared route arena.
    route_off: u32,
    route_len: u32,
    ejected: u64,
    /// Furthest arena index the head flit has reached (diagnostics).
    head_hop: u32,
    /// Cycle the tail flit reached the destination NI (never cycle 0:
    /// the ejection itself takes `link_delay >= 1`).
    delivered: Option<NonZeroU64>,
}

const _: () = assert!(std::mem::size_of::<Worm>() == 56);

/// A flit in flight on a channel, due to land in `buf` of `node`.
#[derive(Clone, Copy, Debug)]
struct Landing {
    node: u32,
    buf: u32,
    flit: Flit,
}

/// The whole state of one simulation: worms, route arena, buffers, queues
/// and event heaps. [`IncrementalFlit`] keeps a second one as its
/// speculative state, a snapshot of the committed one; `Clone` exists for
/// the sharded drain, which starts every band from a copy.
#[derive(Clone, Debug, Default)]
struct Workspace {
    worms: Vec<Worm>,
    /// Flat route arena shared by all worms: the output port per hop (a
    /// flit's current node is implicit in which buffer holds it).
    routes: Vec<u8>,
    /// Input-buffer slab: buffer `b = node*NPORTS*vcs + port*vcs + vc`
    /// owns `cap` contiguous slots (a power of two) used as a ring —
    /// `slab[b*cap + ((bhead[b] + i) & (cap-1))]` is its `i`-th flit.
    /// One flat allocation replaces a `VecDeque` per buffer.
    slab: Vec<Flit>,
    /// Ring-start slot per buffer.
    bhead: Vec<u32>,
    /// Occupancy per buffer.
    blen: Vec<u32>,
    /// Reserved (in-flight) slots per input buffer (same indexing).
    reserved: Vec<u32>,
    /// Output VC owners, flat: `owners[(node*NPORTS + port) * vcs + vc]`.
    owners: Vec<Option<u32>>,
    /// Per output `node*NPORTS + port`:
    busy_until: Vec<u64>,
    busy_ticks: Vec<u64>,
    rr: Vec<usize>,
    vc_rr: Vec<usize>,
    /// Request queues, flat: output `o` owns `req[o*stride ..]` with
    /// `req_len[o]` live entries — sorted in-node input-buffer indices
    /// whose head flit requests it (may contain stale entries, dropped at
    /// visit). At most `stride` buffers exist per node, so the fixed
    /// stride can never overflow.
    req: Vec<u32>,
    /// Live request count per output.
    req_len: Vec<u8>,
    /// Bitset of outputs to visit in the current cycle: the scan iterates
    /// its set bits ascending — exactly the reference's node-major/
    /// port-minor output order, restricted to outputs with a pending
    /// enabling event. Bits are cleared at visit.
    dirty: Vec<u64>,
    /// The event wheel: `ring[T % K]` holds the outputs to mark dirty at
    /// cycle `T`. Every wakeup is at most `K = max(link, router) + 2`
    /// cycles ahead (busy expiry, head router charge, next-cycle
    /// dependency marks), so a tiny ring replaces a priority queue.
    ring: Vec<Vec<u32>>,
    /// Flits crossing channels, bucketed by arrival time. Every forward
    /// at cycle `t` lands at `t + link_delay`, so arrival times are
    /// nondecreasing and a plain FIFO of buckets suffices — O(1) per
    /// flit, no heap.
    due: VecDeque<(u64, Vec<Landing>)>,
    /// Recycled landing buckets.
    spare: Vec<Vec<Landing>>,
    /// (front entry time, node) per NI queue awaiting injection room.
    ni_events: BinaryHeap<Reverse<(u64, u32)>>,
    /// Latest entry time scheduled in `ni_events` per node (dedup).
    ni_sched: Vec<u64>,
    /// Per-node NI queues of not-yet-injected flits, keyed by entry time
    /// (the prefix max of availabilities — when the flit would enter the
    /// unbounded injection buffer of the reference model).
    pending: Vec<VecDeque<(u64, Flit)>>,
    /// Scratch: ready candidates of the output being visited, with their
    /// head flit (copied once during validation).
    cand: Vec<(u32, Flit)>,
    /// Input port per in-node buffer index (`buf / vcs` as a lookup, so
    /// the per-move division by a runtime VC count disappears).
    port_of: Vec<u8>,
}

/// Event-wheel size for `cfg`: the farthest wakeup an enabling event can
/// schedule (`max(link_delay, router_delay) + 2` cycles), rounded to a
/// power of two so slot lookup is a mask, not a division.
fn wheel_slots(cfg: &MeshConfig) -> u64 {
    (cfg.link_delay.max(cfg.router_delay) + 2).next_power_of_two()
}

impl Workspace {
    /// An idle network: empty buffers, queues and wheel sized for `cfg`.
    fn new(cfg: &MeshConfig) -> Workspace {
        let nodes = cfg.shape.nodes();
        let vcs = cfg.virtual_channels;
        let nbuf = nodes * NPORTS * vcs;
        let nout = nodes * NPORTS;
        let cap = cfg.buffer_flits.next_power_of_two();
        let filler = Flit { worm: 0, kind: Kind::Body, ready: 0, hop: 0 };
        Workspace {
            slab: vec![filler; nbuf * cap],
            bhead: vec![0; nbuf],
            blen: vec![0; nbuf],
            reserved: vec![0; nbuf],
            owners: vec![None; nout * vcs],
            busy_until: vec![0; nout],
            busy_ticks: vec![0; nout],
            rr: vec![0; nout],
            vc_rr: vec![0; nout],
            req: vec![0; nout * NPORTS * vcs],
            req_len: vec![0; nout],
            dirty: vec![0; nout.div_ceil(64)],
            ring: vec![Vec::new(); wheel_slots(cfg) as usize],
            ni_sched: vec![u64::MAX; nodes],
            pending: vec![VecDeque::new(); nodes],
            port_of: (0..NPORTS * vcs).map(|b| (b / vcs) as u8).collect(),
            ..Workspace::default()
        }
    }

    /// Makes `self` a snapshot of `src`, reusing every allocation and
    /// skipping the parts that provably match — the speculative-state
    /// refresh of the closed-loop engine, which must not cost O(history)
    /// per message:
    ///
    /// - `routes` is an append-only arena, so only its new suffix is
    ///   copied;
    /// - worms below the `finalized` watermark (delivered in both states)
    ///   hold their final, state-independent values and are skipped; only
    ///   the mutable tail is refreshed;
    /// - everything else is mesh-sized or in-flight-sized and is copied
    ///   with `clone_from` (capacity kept).
    ///
    /// `self` must be an earlier snapshot of the same run (or empty), so
    /// its arenas are prefixes of `src`'s.
    fn sync_from(&mut self, src: &Workspace, finalized: usize) {
        debug_assert!(finalized <= self.worms.len());
        self.extend_arenas(src);
        self.worms[finalized..].copy_from_slice(&src.worms[finalized..]);
        self.slab.clone_from(&src.slab);
        self.bhead.clone_from(&src.bhead);
        self.blen.clone_from(&src.blen);
        self.reserved.clone_from(&src.reserved);
        self.owners.clone_from(&src.owners);
        self.busy_until.clone_from(&src.busy_until);
        self.busy_ticks.clone_from(&src.busy_ticks);
        self.rr.clone_from(&src.rr);
        self.vc_rr.clone_from(&src.vc_rr);
        self.req.clone_from(&src.req);
        self.req_len.clone_from(&src.req_len);
        self.dirty.clone_from(&src.dirty);
        self.ring.clone_from(&src.ring);
        self.due.clone_from(&src.due);
        self.spare.clone_from(&src.spare);
        self.ni_events.clone_from(&src.ni_events);
        self.ni_sched.clone_from(&src.ni_sched);
        self.pending.clone_from(&src.pending);
        self.cand.clone_from(&src.cand);
        self.port_of.clone_from(&src.port_of);
    }

    /// Adds in-node buffer `buf` to output `o`'s sorted request queue
    /// (`stride` slots per output) unless it is already there.
    #[inline]
    fn insert_request(&mut self, o: usize, stride: usize, buf: u32) {
        let base = o * stride;
        let len = self.req_len[o] as usize;
        // Sorted insert by linear scan — queues hold at most `stride`
        // (tiny) entries, and the common case is "already present".
        let mut pos = len;
        for i in 0..len {
            let cur = self.req[base + i];
            if cur >= buf {
                if cur == buf {
                    return;
                }
                pos = i;
                break;
            }
        }
        self.req.copy_within(base + pos..base + len, base + pos + 1);
        self.req[base + pos] = buf;
        self.req_len[o] = (len + 1) as u8;
    }

    /// Moves a lone worm's state out of `rp`, the private workspace it was
    /// replayed in as worm 0 with its route at offset 0, into `self`,
    /// where it is worm `w` with its route at `off`, and leaves `rp` idle
    /// again. Only the worm's footprint is touched: `outs` (its route
    /// outputs), the input buffers they feed and its source's injection
    /// buffers and NI queue; the wheel slots and landing buckets are
    /// merged. Nothing in `self` uses that footprint, so its buffers,
    /// reservations, owners and NI queue there are empty, and the
    /// per-output fields `rp` was seeded with come back whole — except
    /// `busy_ticks`, which `rp` counted from zero.
    fn absorb(&mut self, rp: &mut Workspace, cfg: &MeshConfig, outs: &[usize], w: u32, off: u32) {
        let vcs = cfg.virtual_channels;
        let stride = NPORTS * vcs;
        let cap = cfg.buffer_flits.next_power_of_two();
        let relabel = |f: Flit| Flit { worm: w, hop: f.hop + off, ..f };
        let src = rp.worms[0].msg.src.index();
        let fed = outs.iter().filter(|&&o| o % NPORTS != PORT_LOCAL).map(|&o| {
            let (dn, dp) = downstream(cfg.shape, o / NPORTS, o % NPORTS);
            dn * stride + dp * vcs
        });
        for first in std::iter::once(src * stride + PORT_LOCAL * vcs).chain(fed) {
            for b in first..first + vcs {
                debug_assert!(
                    self.blen[b] == 0 && self.reserved[b] == 0,
                    "a ghost's buffer is in use"
                );
                let (head, len) = (rp.bhead[b], rp.blen[b]);
                for i in 0..len {
                    let slot = b * cap + ((head + i) as usize & (cap - 1));
                    self.slab[slot] = relabel(rp.slab[slot]);
                }
                self.bhead[b] = std::mem::take(&mut rp.bhead[b]);
                self.blen[b] = std::mem::take(&mut rp.blen[b]);
                self.reserved[b] = std::mem::take(&mut rp.reserved[b]);
            }
        }
        for &o in outs {
            self.rr[o] = std::mem::take(&mut rp.rr[o]);
            self.vc_rr[o] = std::mem::take(&mut rp.vc_rr[o]);
            self.busy_until[o] = std::mem::take(&mut rp.busy_until[o]);
            self.busy_ticks[o] += std::mem::take(&mut rp.busy_ticks[o]);
            for v in o * vcs..(o + 1) * vcs {
                debug_assert!(self.owners[v].is_none(), "a ghost's VC is owned");
                self.owners[v] = rp.owners[v].take().map(|_| w);
            }
            for i in 0..std::mem::take(&mut rp.req_len[o]) as usize {
                self.insert_request(o, stride, rp.req[o * stride + i]);
            }
            let bit = 1u64 << (o % 64);
            if rp.dirty[o / 64] & bit != 0 {
                self.dirty[o / 64] |= bit;
                rp.dirty[o / 64] &= !bit;
            }
        }
        for (slot, from) in self.ring.iter_mut().zip(&mut rp.ring) {
            slot.append(from);
        }
        // Landings are copied, never their buckets: each workspace keeps
        // recycling its own, so neither spare pool grows.
        while let Some((at, mut bucket)) = rp.due.pop_front() {
            let i = self.due.iter().position(|&(t, _)| t >= at).unwrap_or(self.due.len());
            if self.due.get(i).is_none_or(|&(t, _)| t != at) {
                let mut fresh = self.spare.pop().unwrap_or_default();
                fresh.clear();
                self.due.insert(i, (at, fresh));
            }
            let landings = bucket.drain(..).map(|l| Landing { flit: relabel(l.flit), ..l });
            self.due[i].1.extend(landings);
            rp.spare.push(bucket);
        }
        debug_assert!(self.pending[src].is_empty(), "a ghost's NI is in use");
        rp.pending[src].iter_mut().for_each(|(_, f)| *f = relabel(*f));
        std::mem::swap(&mut self.pending[src], &mut rp.pending[src]);
        self.ni_events.extend(rp.ni_events.drain());
        self.ni_sched[src] = std::mem::replace(&mut rp.ni_sched[src], u64::MAX);
        let lone = rp.worms.pop().expect("one replayed worm");
        rp.routes.clear();
        let worm = &mut self.worms[w as usize];
        worm.ejected = lone.ejected;
        worm.head_hop = lone.head_hop + off;
    }

    /// Appends the suffixes of `src`'s append-only arenas (routes and
    /// worms) that this earlier snapshot of the same run lacks. The
    /// appended worms are `src`'s current values; older entries are left
    /// as they were.
    fn extend_arenas(&mut self, src: &Workspace) {
        debug_assert!(self.routes.len() <= src.routes.len());
        debug_assert!(self.worms.len() <= src.worms.len());
        self.routes.extend_from_slice(&src.routes[self.routes.len()..]);
        self.worms.extend_from_slice(&src.worms[self.worms.len()..]);
    }
}

/// The router and input port fed by `node`'s output `port` on `shape`.
/// The wrap arms only ever fire on a torus — a mesh route never walks off
/// an edge.
#[inline]
fn downstream(shape: MeshShape, node: usize, port: usize) -> (usize, usize) {
    let w = shape.width() as usize;
    let nodes = shape.nodes();
    match port {
        PORT_E => (if (node + 1).is_multiple_of(w) { node + 1 - w } else { node + 1 }, PORT_W),
        PORT_W => (if node.is_multiple_of(w) { node + w - 1 } else { node - 1 }, PORT_E),
        PORT_S => (if node + w >= nodes { node + w - nodes } else { node + w }, PORT_N),
        PORT_N => (if node < w { node + nodes - w } else { node - w }, PORT_S),
        _ => unreachable!("ejection has no downstream router"),
    }
}

/// The outputs on a route from `src`, in route order, each paired with its
/// route byte: `node*NPORTS + port` per inter-router hop, then the
/// ejection output.
fn route_outputs<'a>(
    cfg: &'a MeshConfig,
    src: usize,
    route: &'a [u8],
) -> impl Iterator<Item = (usize, u8)> + 'a {
    let mut node = src;
    route.iter().map(move |&hop| {
        let port = (hop & HOP_PORT_MASK) as usize;
        let o = node * NPORTS + port;
        if port != PORT_LOCAL {
            node = downstream(cfg.shape, node, port).0;
        }
        (o, hop)
    })
}

/// The resources worm `w` claims in [`IncrementalFlit`]'s live counts and
/// ghost owners: its source NI (`nodes*NPORTS + src`) and every output on
/// its route (`node*NPORTS + port`, ejection included). The whole route
/// is claimed for the worm's whole life, which is conservative. Worms meet
/// only at shared outputs (and the input buffers those outputs feed) and
/// at a shared source NI, so worms with disjoint footprints never
/// interact — which is what lets a ghost worm stay out of the simulation.
fn footprint<'a>(
    cfg: &'a MeshConfig,
    ws: &'a Workspace,
    w: u32,
) -> impl Iterator<Item = usize> + 'a {
    let worm = &ws.worms[w as usize];
    let src = worm.msg.src.index();
    let route = &ws.routes[worm.route_off as usize..(worm.route_off + worm.route_len) as usize];
    let outputs = route_outputs(cfg, src, route).map(|(o, _)| o);
    std::iter::once(cfg.shape.nodes() * NPORTS + src).chain(outputs)
}

/// The output VCs `[lo, hi)` a head of virtual-channel class `class` may
/// allocate: its class's share of the VC range.
fn class_vcs(cfg: &MeshConfig, class: usize) -> (usize, usize) {
    let (v, n) = (cfg.virtual_channels, cfg.vc_classes());
    (class * v / n, (class + 1) * v / n)
}

/// The cycle `m`'s tail reaches its destination NI through an empty
/// network.
fn zero_load_delivery(cfg: &MeshConfig, m: &NetMessage) -> u64 {
    m.inject.ticks() + cfg.zero_load_latency(m.bytes, cfg.shape.hop_distance(m.src, m.dst))
}

/// Resolves ghost worm `w` in closed form: leaves `ws` as simulating the
/// worm alone would, delivered at `delivered` (its zero-load delivery).
/// Alone, every flit crosses every route output once, and the head finds
/// every VC of its class free, so it takes the first one
/// [`Engine::free_vc`] tries; owners, buffers and reservations end where
/// they started.
///
/// `busy_until` is set on the ejection output only, to `delivered` (the
/// tail's ejection is that output's last move). A transit output's last
/// move is the tail's too, at least a link before its ejection at
/// `delivered - link_delay`. A ghost is only resolved once that cycle is
/// below the horizon of a later send, and every later request at one of
/// its outputs comes from a worm sent since, whose head reaches no output
/// before that horizon. So no visit can tell the earlier (lower)
/// `busy_until` left in place from the true one.
fn resolve_ghost(cfg: &MeshConfig, ws: &mut Workspace, w: u32, delivered: u64) {
    let Workspace { worms, routes, rr, vc_rr, busy_ticks, busy_until, .. } = ws;
    let worm = &mut worms[w as usize];
    let flits = cfg.flits_for(worm.msg.bytes);
    let last = worm.route_off + worm.route_len - 1;
    let route = &routes[worm.route_off as usize..=last as usize];
    let mut eject = 0;
    for (o, hop) in route_outputs(cfg, worm.msg.src.index(), route) {
        rr[o] = rr[o].wrapping_add(flits as usize);
        busy_ticks[o] += flits * cfg.link_delay;
        let (lo, hi) = class_vcs(cfg, (hop >> HOP_PORT_BITS) as usize);
        let vc = lo + vc_rr[o] % (hi - lo);
        vc_rr[o] = if vc + 1 == cfg.virtual_channels { 0 } else { vc + 1 };
        eject = o;
    }
    busy_until[eject] = delivered;
    worm.ejected = flits;
    worm.head_hop = last;
    worm.delivered = Some(NonZeroU64::new(delivered).expect("delivery follows injection"));
}

/// Queues worm `w`'s flits at its source NI in `ws`: the head becomes
/// available `hop_latency` after injection, the body follows at one flit
/// per `link_delay`, and entry times are the running prefix max
/// `entered` of the source's NI. Flits of one message stay contiguous (a
/// worm may never interleave with another in the injection buffer), and
/// messages enter injection VC 0; VC spreading happens at the routers.
/// On the committed state entry times are always at or beyond the safe
/// horizon, so queueing never touches a committed cycle.
fn queue_flits(cfg: &MeshConfig, ws: &mut Workspace, w: u32, entered: &mut u64) {
    let worm = ws.worms[w as usize];
    let m = worm.msg;
    let src = m.src.index();
    let flits = cfg.flits_for(m.bytes);
    let base = m.inject.ticks() + cfg.hop_latency();
    let was_empty = ws.pending[src].is_empty();
    for j in 0..flits {
        let kind = if j == 0 {
            Kind::Head
        } else if j == flits - 1 {
            Kind::Tail
        } else {
            Kind::Body
        };
        let avail = base + j * cfg.link_delay;
        let entry = (*entered).max(avail);
        *entered = entry;
        // Heads are charged their router delay from the entry cycle —
        // when they enter the reference's unbounded injection buffer —
        // which decouples the charge from our *capped* injection
        // buffers: a flit may sit in `pending` past its entry time
        // waiting for a slot without perturbing any observable timing.
        // Body and tail flits keep their raw availability.
        let ready = if kind == Kind::Head { entry + cfg.router_delay } else { avail };
        ws.pending[src].push_back((entry, Flit { worm: w, kind, ready, hop: worm.route_off }));
    }
    // A nonempty queue already has its front's NI event scheduled (the
    // standing invariant of `drain_ni`/`move_flit`); an empty one needs
    // the new front announced.
    if was_empty {
        let e = ws.pending[src].front().expect("flits just queued").0;
        ws.ni_events.push(Reverse((e, src as u32)));
        ws.ni_sched[src] = e;
    }
}

/// Matches MeshShape channel numbering: dirs 0..3, ejection 5.
fn out_channel_id(node: usize, port: usize) -> u32 {
    if port == PORT_LOCAL {
        node as u32 * 6 + 5
    } else {
        node as u32 * 6 + port as u32
    }
}

/// Appends the packed per-hop route bytes from `src` to `dst` under the
/// configuration's routing policy: `class << HOP_PORT_BITS | port` per
/// inter-router hop, then an ejection byte. The class is the
/// virtual-channel class the hop's head allocates from — the torus
/// dateline (escape) discipline and the adaptive XY/YX split live
/// entirely in these bytes, so the engine's hot loop just masks and
/// shifts. Mesh + dimension packs every hop as class 0, the historical
/// plain port byte.
fn build_route(cfg: &MeshConfig, src: NodeId, dst: NodeId, routes: &mut Vec<u8>) {
    cfg.shape.route_hops_into(src, dst, cfg.routing, routes);
}

/// What [`Engine::advance`] runs the event loop toward.
#[derive(Clone, Copy, Debug)]
enum Goal {
    /// Run until every worm is delivered (the batch semantics).
    Drain,
    /// Run until worm `w` is delivered.
    Deliver(u32),
    /// Run every cycle strictly before the horizon, then stop. Cycles
    /// below the horizon are *final* for the closed-loop engine: no
    /// message injected from now on can put a flit into a network
    /// interface earlier than `inject + hop_latency`.
    Before(u64),
}

/// A boundary event crossing between adjacent shards, labeled with the
/// cycle at which the receiver must apply it (before scanning that cycle).
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// A flit completing its channel traversal into a receiver-side input
    /// buffer — the cross-shard form of a [`Workspace::due`] entry.
    Landing(Landing),
    /// A receiver-side pop of input buffer `buf` (global index) that fed
    /// from the receiver's output `out`: the receiver decrements its
    /// `occ` capacity mirror for `buf` and marks `out` dirty — the
    /// cross-shard form of the feeder wakeup in
    /// [`Engine::move_flit`].
    Pop {
        /// Feeder output (global `node*NPORTS + port`) owned by the receiver.
        out: u32,
        /// The popped downstream buffer (global slab index).
        buf: u32,
    },
}

/// Per-shard engine extension: the node range this engine owns plus the
/// capacity mirrors and outboxes that stand in for directly touching a
/// neighbor shard's state. `None` on the serial path — every sharded
/// branch in the engine is one predictable `is_some` test.
#[derive(Debug, Default)]
struct ShardCtx {
    /// First owned node (row-contiguous band, row-major node ids).
    lo: usize,
    /// One past the last owned node.
    hi: usize,
    /// Mirror of `blen + reserved` for the *remote* downstream buffers of
    /// this shard's boundary outputs, indexed like `reserved` (global
    /// buffer index). `+1` at each boundary forward, `-1` on a received
    /// [`Ev::Pop`] — so the capacity check sees exactly what the serial
    /// engine would.
    occ: Vec<u32>,
    /// Owned input buffers fed by a remote shard: their `reserved` is
    /// authoritative on the *upstream* side (`occ`), so landings here
    /// skip the local `reserved` decrement.
    remote_fed: Vec<bool>,
    /// Events for the *predecessor* band (across this shard's north
    /// boundary), flushed at end of cycle. On a mesh that is always the
    /// lower-index neighbor; on a torus, shard 0's predecessor is the
    /// last shard via the wraparound links.
    out_lo: Vec<(u64, Ev)>,
    /// Events for the *successor* band (across the south boundary).
    out_hi: Vec<(u64, Ev)>,
}

impl ShardCtx {
    #[inline]
    fn is_remote(&self, node: usize) -> bool {
        node < self.lo || node >= self.hi
    }

    /// Outbox for the boundary crossed in direction `port`. Bands are
    /// whole rows, so every cross-shard link is vertical and the *port*
    /// names the edge unambiguously — north crosses to the predecessor
    /// band, south to the successor. (Classifying by node index would
    /// misroute torus wrap traffic: shard 0's north-wrap peer has the
    /// numerically highest ids but belongs to the predecessor edge.)
    #[inline]
    fn outbox(&mut self, port: usize) -> &mut Vec<(u64, Ev)> {
        debug_assert!(port == PORT_N || port == PORT_S, "cross-shard links are vertical");
        if port == PORT_N {
            &mut self.out_lo
        } else {
            &mut self.out_hi
        }
    }
}

/// One run of the event loop over a prepared workspace.
struct Engine<'a> {
    cfg: MeshConfig,
    vcs: usize,
    /// Buffers per node (`NPORTS * vcs`).
    stride: usize,
    /// Ring size: `max(link_delay, router_delay) + 2` rounded up to a
    /// power of two — every wakeup an enabling event can schedule lies
    /// within this horizon, and slot lookup is `& (wheel - 1)`.
    wheel: u64,
    /// Slab slots per buffer: `buffer_flits.next_power_of_two()`.
    cap: usize,
    ws: &'a mut Workspace,
    remaining: usize,
    /// Sharded-mode extension (`None` on the serial path).
    shard: Option<&'a mut ShardCtx>,
}

impl<'a> Engine<'a> {
    /// The serial event loop over `ws` with `remaining` worms undelivered.
    fn serial(cfg: &MeshConfig, ws: &'a mut Workspace, remaining: usize) -> Engine<'a> {
        let vcs = cfg.virtual_channels;
        Engine {
            cfg: *cfg,
            vcs,
            stride: NPORTS * vcs,
            wheel: wheel_slots(cfg),
            cap: cfg.buffer_flits.next_power_of_two(),
            ws,
            remaining,
            shard: None,
        }
    }
}

impl Engine<'_> {
    /// Head flit of buffer `b`, if any (a copy — flits are small).
    #[inline]
    fn bfront(&self, b: usize) -> Option<Flit> {
        if self.ws.blen[b] == 0 {
            return None;
        }
        Some(self.ws.slab[b * self.cap + (self.ws.bhead[b] as usize & (self.cap - 1))])
    }

    /// Appends `f` to buffer `b` (capacity is the caller's invariant).
    #[inline]
    fn bpush(&mut self, b: usize, f: Flit) {
        debug_assert!((self.ws.blen[b] as usize) < self.cap);
        let i = (self.ws.bhead[b] + self.ws.blen[b]) as usize & (self.cap - 1);
        self.ws.slab[b * self.cap + i] = f;
        self.ws.blen[b] += 1;
    }

    /// Runs the event loop from `clock` (the last processed cycle, `None`
    /// before the first) until `goal` is met, and returns the new clock.
    ///
    /// The loop never stops *inside* a cycle — only between event times —
    /// so a paused engine resumes exactly where a straight-through run
    /// would be: `advance(Before(c))` then `advance(Drain)` is
    /// cycle-identical to `advance(Drain)` alone, provided any events
    /// added in between lie at or beyond `c`. That property is what lets
    /// the closed-loop engine ([`IncrementalFlit`]) interleave out-of-band
    /// injections with simulation.
    ///
    /// # Errors
    ///
    /// [`EngineError::Wedged`] (with the human-readable report) if the
    /// goal is `Drain` or `Deliver` and the event queues run dry (or the
    /// step guard trips) first.
    fn advance(&mut self, mut clock: Option<u64>, goal: Goal) -> Result<Option<u64>, EngineError> {
        let mut guard: u64 = 0;
        let guard_limit = 200_000_000;
        loop {
            match goal {
                Goal::Drain if self.remaining == 0 => return Ok(clock),
                Goal::Deliver(w) if self.ws.worms[w as usize].delivered.is_some() => {
                    return Ok(clock);
                }
                _ => {}
            }
            let t = match clock {
                Some(c) => self.next_time(c),
                None => self.first_time(),
            };
            let t = match t {
                Some(t) => t,
                None if matches!(goal, Goal::Before(_)) => return Ok(clock),
                None => {
                    return Err(EngineError::Wedged {
                        report: self.wedge_report(clock.unwrap_or(0)),
                    });
                }
            };
            if let Goal::Before(cut) = goal {
                if t >= cut {
                    return Ok(clock);
                }
            }
            guard += 1;
            if guard >= guard_limit {
                return Err(EngineError::Wedged {
                    report: format!(
                        "flit simulation exceeded {guard_limit} steps\n{}",
                        self.wedge_report(t)
                    ),
                });
            }
            self.drain_ni(t);
            self.land_arrivals(t);
            self.promote_ring(t);
            self.scan(t);
            clock = Some(t);
        }
    }

    /// Promotes cycle `t`'s scheduled ring wakeups to dirty bits — the
    /// step between landing arrivals and the allocation sweep.
    #[inline]
    fn promote_ring(&mut self, t: u64) {
        let slot = (t & (self.wheel - 1)) as usize;
        let Workspace { ring, dirty, .. } = &mut *self.ws;
        for o in ring[slot].drain(..) {
            dirty[o as usize / 64] |= 1 << (o % 64);
        }
    }

    /// Schedules output `o` for a visit at future cycle `at`.
    #[inline]
    fn mark_at(&mut self, at: u64, o: u32) {
        self.ws.ring[(at & (self.wheel - 1)) as usize].push(o);
    }

    /// Output port requested by `f` (O(1) via the hop cursor; the class
    /// bits above the port code are masked off).
    #[inline]
    fn flit_port(&self, f: &Flit) -> usize {
        (self.ws.routes[f.hop as usize] & HOP_PORT_MASK) as usize
    }

    /// Registers `flit` (the new head of `node`'s buffer `buf`) with the
    /// output it requests and marks that output dirty; returns the
    /// output's global index. If the flit is still paying its router
    /// charge, the output is also scheduled for a visit when the charge
    /// completes.
    fn register(&mut self, node: usize, buf: usize, flit: Flit, t: u64) -> u32 {
        let out = self.flit_port(&flit);
        let o = node * NPORTS + out;
        self.ws.insert_request(o, self.stride, buf as u32);
        self.ws.dirty[o / 64] |= 1 << (o % 64);
        if flit.ready > t {
            self.mark_at(flit.ready, o as u32);
        }
        o as u32
    }

    /// Appends `flit` to an input buffer, registering a request if it
    /// became head-of-buffer.
    fn push_buffer(&mut self, node: usize, buf: usize, flit: Flit, t: u64) {
        let b = node * self.stride + buf;
        self.bpush(b, flit);
        if self.ws.blen[b] == 1 {
            self.register(node, buf, flit, t);
        }
    }

    /// Moves NI flits whose entry time has arrived into the injection
    /// buffers, as far as capacity allows. Flits held back by a full
    /// buffer are pulled in directly when a pop frees a slot
    /// ([`move_flit`](Engine::move_flit)); their observable timing (head
    /// router charge, head-of-buffer exposure) is fixed by the entry
    /// times precomputed in [`IncrementalFlit::add_worm`], not by when they
    /// physically occupy a slot here.
    fn drain_ni(&mut self, t: u64) {
        let inj_buf = PORT_LOCAL * self.vcs;
        while let Some(&Reverse((entry, node))) = self.ws.ni_events.peek() {
            if entry > t {
                break;
            }
            self.ws.ni_events.pop();
            let node = node as usize;
            let b = node * self.stride + inj_buf;
            while (self.ws.blen[b] as usize) < self.cap {
                match self.ws.pending[node].front() {
                    Some(&(e, flit)) if e <= t => {
                        self.ws.pending[node].pop_front();
                        self.push_buffer(node, inj_buf, flit, t);
                    }
                    _ => break,
                }
            }
            if let Some(&(e, _)) = self.ws.pending[node].front() {
                if e > t && self.ws.ni_sched[node] != e {
                    self.ws.ni_events.push(Reverse((e, node as u32)));
                    self.ws.ni_sched[node] = e;
                }
            }
        }
    }

    /// Lands flits whose channel traversal completed (the reference's
    /// phase 1). Returns whether anything landed.
    fn land_arrivals(&mut self, t: u64) -> bool {
        let mut landed = false;
        while let Some(&(at, _)) = self.ws.due.front() {
            if at > t {
                break;
            }
            let (_, mut bucket) = self.ws.due.pop_front().unwrap();
            for Landing { node, buf, mut flit } in bucket.drain(..) {
                let (node, buf) = (node as usize, buf as usize);
                flit.ready = if flit.kind == Kind::Head { t + self.cfg.router_delay } else { t };
                let b = node * self.stride + buf;
                // Remote-fed buffers are accounted on the upstream side
                // (its `occ` mirror); the local `reserved` stays zero.
                if !self.shard.as_ref().is_some_and(|c| c.remote_fed[b]) {
                    self.ws.reserved[b] -= 1;
                }
                self.push_buffer(node, buf, flit, t);
            }
            self.ws.spare.push(bucket);
            landed = true;
        }
        landed
    }

    /// One cycle of switch + VC allocation over the outputs with work
    /// (the reference's phase 2). Returns whether any flit moved.
    ///
    /// The word is re-read after every visit, so a visit that sets a bit
    /// *ahead* of the scan position (a pop exposing a new head) joins this
    /// same cycle, while one at or behind it waits for the next — the
    /// in-cycle semantics of the reference's sequential pass.
    fn scan(&mut self, t: u64) -> bool {
        let mut moved = false;
        for wi in 0..self.ws.dirty.len() {
            let mut mask = !0u64;
            loop {
                let w = self.ws.dirty[wi] & mask;
                if w == 0 {
                    break;
                }
                let bit = w.trailing_zeros();
                moved |= self.visit_output(wi * 64 + bit as usize, t);
                mask = if bit == 63 { 0 } else { !((1u64 << (bit + 1)) - 1) };
            }
        }
        moved
    }

    /// Visits one output at cycle `t`: validates its request queue, runs
    /// the reference's round-robin selection over the ready candidates,
    /// and moves at most one flit. Visits are only triggered by enabling
    /// events, and a visit that moves nothing changes no model state, so
    /// extra visits are harmless — only a *missing* visit could diverge
    /// from the reference, and every enabling transition schedules one:
    /// - a flit becomes head-of-buffer or its router charge completes
    ///   ([`register`](Engine::register)),
    /// - the channel frees or a VC is released / an owner established
    ///   (the move that occupied it marks `busy_until`),
    /// - downstream capacity frees (the downstream pop marks the feeder).
    fn visit_output(&mut self, o: usize, t: u64) -> bool {
        self.ws.dirty[o / 64] &= !(1 << (o % 64));
        let rlen = self.ws.req_len[o] as usize;
        if rlen == 0 {
            return false;
        }
        if self.ws.busy_until[o] > t {
            return false; // the occupying move scheduled the expiry visit
        }
        let node = o / NPORTS;
        let out = o % NPORTS;
        let base = node * self.stride;
        let rbase = o * self.stride;
        let mut cand = std::mem::take(&mut self.ws.cand);
        cand.clear();
        // One pass: drop stale entries (buffers whose current head no
        // longer requests `o`) in place while collecting the ready
        // candidates with a copy of their head flit.
        let mut keep = 0;
        for i in 0..rlen {
            let buf = self.ws.req[rbase + i];
            if let Some(f) = self.bfront(base + buf as usize) {
                if (self.ws.routes[f.hop as usize] & HOP_PORT_MASK) as usize == out {
                    self.ws.req[rbase + keep] = buf;
                    keep += 1;
                    if f.ready <= t {
                        cand.push((buf, f));
                    }
                }
            }
        }
        self.ws.req_len[o] = keep as u8;

        // Select (buffer, output vc): body/tail flits use their worm's
        // owned VC; heads need a free VC (and downstream space).
        // Round-robin over candidates for fairness. The reduction of the
        // free-running round-robin counter costs one division, paid only
        // when there is an actual contest (`ncand > 1`).
        let mut choice: Option<(usize, usize, Flit)> = None;
        let ncand = cand.len();
        let start = if ncand > 1 { self.ws.rr[o] % ncand } else { 0 };
        for k in 0..ncand {
            let mut idx = start + k;
            if idx >= ncand {
                idx -= ncand;
            }
            let (buf, f) = cand[idx];
            let ovc = match f.kind {
                Kind::Head => {
                    let class = (self.ws.routes[f.hop as usize] >> HOP_PORT_BITS) as usize;
                    match self.free_vc(o, class) {
                        Some(vc) => vc,
                        None => continue,
                    }
                }
                _ => match self.vc_of(o, f.worm) {
                    Some(vc) => vc,
                    None => continue, // owner not established yet
                },
            };
            // Capacity check downstream (ejection always sinks). A remote
            // downstream buffer is checked against this shard's `occ`
            // mirror, which tracks the same `blen + reserved` sum via
            // boundary forwards and received pop credits.
            if out != PORT_LOCAL {
                let (dn, dp) = downstream(self.cfg.shape, node, out);
                let dbuf = dn * self.stride + dp * self.vcs + ovc;
                let occupancy = match &self.shard {
                    Some(ctx) if ctx.is_remote(dn) => ctx.occ[dbuf],
                    _ => self.ws.blen[dbuf] + self.ws.reserved[dbuf],
                };
                if occupancy as usize >= self.cfg.buffer_flits {
                    continue;
                }
            }
            choice = Some((buf as usize, ovc, f));
            break;
        }
        self.ws.cand = cand;
        match choice {
            Some((buf, ovc, f)) => {
                self.move_flit(o, buf, ovc, f, t);
                true
            }
            None => false,
        }
    }

    /// Moves `flit`, the (already validated) head of `buf`, through
    /// output `o` on VC `ovc`.
    fn move_flit(&mut self, o: usize, buf: usize, ovc: usize, flit: Flit, t: u64) {
        let node = o / NPORTS;
        let out = o % NPORTS;
        // Drop the head slot; `flit` is the copy the visit already took.
        let b = node * self.stride + buf;
        self.ws.bhead[b] = ((self.ws.bhead[b] as usize + 1) & (self.cap - 1)) as u32;
        self.ws.blen[b] -= 1;
        let link = self.cfg.link_delay;
        self.ws.busy_until[o] = t + link;
        self.ws.busy_ticks[o] += link;
        self.ws.rr[o] = self.ws.rr[o].wrapping_add(1);
        // Revisit when the channel frees: that is also when a released VC
        // or newly established owner becomes usable, and when the losing
        // candidates of this cycle's round-robin get their next shot.
        self.mark_at(t + link, o as u32);
        // The pop freed one slot in this input buffer: the upstream output
        // feeding it may have been capacity-blocked. Within the reference's
        // pass the freed slot is visible to outputs scanned later the same
        // cycle — the dirty bit joins this sweep if the feeder lies ahead
        // of `o`; at or behind, a next-cycle wakeup stands in for the
        // reference's rescan (all later enablings schedule their own).
        let in_port = self.ws.port_of[buf] as usize;
        if in_port != PORT_LOCAL {
            let (fnode, fport) = downstream(self.cfg.shape, node, in_port);
            let f = (fnode * NPORTS + fport) as u32;
            let remote = self.shard.as_ref().is_some_and(|c| c.is_remote(fnode));
            if remote {
                // The feeder output lives in a neighbor shard: ship the
                // pop as a credit event instead of touching its state.
                // The *label* follows the serial sweep's numeric rule — a
                // numerically lower feeder index `f < o` gets a next-cycle
                // wakeup (label `t + 1`), a higher one same-cycle sweep
                // visibility (label `t`, applied before the receiver scans
                // `t`). The *mailbox* follows the edge (the input port),
                // which differs from the numeric order only on torus wrap
                // links, where it keeps label-`t` credits flowing from
                // numerically lower shards to higher ones.
                let popped = (node * self.stride + buf) as u32;
                let ctx = self.shard.as_mut().expect("checked above");
                let at = if fnode < ctx.lo { t + 1 } else { t };
                ctx.outbox(in_port).push((at, Ev::Pop { out: f, buf: popped }));
            } else {
                self.ws.dirty[f as usize / 64] |= 1 << (f % 64);
                if f as usize <= o {
                    self.mark_at(t + 1, f);
                }
            }
        } else {
            // Injection pop: pull the next NI flit into the freed slot if
            // its entry time has passed (the capped stand-in for the
            // reference's unbounded injection buffer).
            let b = node * self.stride + buf;
            match self.ws.pending[node].front() {
                Some(&(e, nf)) if e <= t => {
                    self.ws.pending[node].pop_front();
                    self.bpush(b, nf);
                }
                Some(&(e, _)) if self.ws.ni_sched[node] != e => {
                    self.ws.ni_events.push(Reverse((e, node as u32)));
                    self.ws.ni_sched[node] = e;
                }
                _ => {}
            }
        }
        match flit.kind {
            Kind::Head => {
                self.ws.owners[o * self.vcs + ovc] = Some(flit.worm);
                self.ws.vc_rr[o] = if ovc + 1 == self.vcs { 0 } else { ovc + 1 };
            }
            Kind::Tail => self.ws.owners[o * self.vcs + ovc] = None,
            Kind::Body => {}
        }
        // The pop may expose a new head: register its request. If its
        // output lies ahead of the sweep position the scan's word re-read
        // picks it up this same cycle (as the reference's sequential pass
        // would); the ring mark covers the at-or-behind case next cycle.
        if let Some(next_head) = self.bfront(node * self.stride + buf) {
            let o2 = self.register(node, buf, next_head, t);
            if (o2 as usize) < o {
                self.mark_at(t + 1, o2);
            }
        }
        if out == PORT_LOCAL {
            let worm = &mut self.ws.worms[flit.worm as usize];
            worm.ejected += 1;
            if flit.kind == Kind::Head {
                worm.head_hop = flit.hop;
            }
            if flit.kind == Kind::Tail {
                worm.delivered = Some(NonZeroU64::new(t + link).expect("link_delay >= 1"));
                self.remaining -= 1;
            }
        } else {
            let (dn, dp) = downstream(self.cfg.shape, node, out);
            let dbuf = dp * self.vcs + ovc;
            let mut forwarded = flit;
            forwarded.hop += 1;
            if forwarded.kind == Kind::Head {
                self.ws.worms[flit.worm as usize].head_hop = forwarded.hop;
            }
            let landing = Landing { node: dn as u32, buf: dbuf as u32, flit: forwarded };
            let at = t + link;
            let remote = self.shard.as_ref().is_some_and(|c| c.is_remote(dn));
            if remote {
                // Boundary forward: reserve in the capacity mirror and
                // ship the landing to the owning shard (`link_delay >= 1`
                // keeps the label strictly ahead of the receiver's safe
                // horizon in both directions).
                let slot = dn * self.stride + dbuf;
                let ctx = self.shard.as_mut().expect("checked above");
                ctx.occ[slot] += 1;
                ctx.outbox(out).push((at, Ev::Landing(landing)));
            } else {
                self.ws.reserved[dn * self.stride + dbuf] += 1;
                match self.ws.due.back_mut() {
                    Some(back) if back.0 == at => back.1.push(landing),
                    _ => {
                        debug_assert!(self.ws.due.back().is_none_or(|b| b.0 < at));
                        let mut bucket = self.ws.spare.pop().unwrap_or_default();
                        bucket.clear();
                        bucket.push(landing);
                        self.ws.due.push_back((at, bucket));
                    }
                }
            }
        }
    }

    /// A free output VC at `o` for a head of virtual-channel class
    /// `class`, searched round-robin inside the class partition
    /// `[class·v/n, (class+1)·v/n)` — heads may only allocate VCs of
    /// their route hop's class, which is what makes each class's channel
    /// dependencies acyclic (dateline escape on a torus, one dimension
    /// order per class under adaptive routing). With a single class the
    /// partition is the whole VC range and this reduces exactly to the
    /// historical search.
    fn free_vc(&self, o: usize, class: usize) -> Option<usize> {
        let v = self.vcs;
        let (lo, hi) = class_vcs(&self.cfg, class);
        let size = hi - lo;
        let start = lo + self.ws.vc_rr[o] % size;
        (0..size)
            .map(|i| {
                let vc = start + i;
                if vc >= hi {
                    vc - size
                } else {
                    vc
                }
            })
            .find(|&vc| self.ws.owners[o * v + vc].is_none())
    }

    /// The output VC at `o` owned by `worm`, if any.
    fn vc_of(&self, o: usize, worm: u32) -> Option<usize> {
        let v = self.vcs;
        (0..v).find(|&vc| self.ws.owners[o * v + vc] == Some(worm))
    }

    /// The first cycle with any work, before any cycle has been processed:
    /// nothing is in flight and the wheel is empty, so only the NI entry
    /// heap can hold events. (The batch loop formerly started at the first
    /// *injection* time; the cycles between injection and NI entry have no
    /// work, and a visit with no work changes no state, so starting at the
    /// first entry is cycle-identical.)
    fn first_time(&self) -> Option<u64> {
        debug_assert!(self.ws.due.is_empty(), "first_time called with flits in flight");
        self.ws.ni_events.peek().map(|&Reverse((e, _))| e)
    }

    /// Earliest future time with scheduled work: the nearest nonempty ring
    /// slot (all wakeups are at most `wheel` cycles out), the next flit
    /// arrival bucket, or the next NI availability.
    fn next_time(&self, t: u64) -> Option<u64> {
        let mut next: Option<u64> = None;
        for j in 1..=self.wheel {
            if !self.ws.ring[((t + j) & (self.wheel - 1)) as usize].is_empty() {
                next = Some(t + j);
                break;
            }
        }
        if let Some(&(at, _)) = self.ws.due.front() {
            next = Some(next.map_or(at, |n| n.min(at)));
        }
        if let Some(&Reverse((avail, _))) = self.ws.ni_events.peek() {
            next = Some(next.map_or(avail, |n| n.min(avail)));
        }
        next
    }

    /// Human-readable account of every undelivered worm, for wedge panics.
    fn wedge_report(&self, t: u64) -> String {
        let mut lines = vec![format!(
            "flit simulation wedged at t={t} with {} worms undelivered:",
            self.remaining
        )];
        let undelivered: Vec<&Worm> =
            self.ws.worms.iter().filter(|w| w.delivered.is_none()).collect();
        for worm in undelivered.iter().take(16) {
            lines.push(format!(
                "  worm {} ({}->{}): {}/{} flits ejected, head at hop {}/{}",
                worm.msg.id,
                worm.msg.src.index(),
                worm.msg.dst.index(),
                worm.ejected,
                self.cfg.flits_for(worm.msg.bytes),
                worm.head_hop - worm.route_off,
                worm.route_len - 1,
            ));
        }
        if undelivered.len() > 16 {
            lines.push(format!("  ... and {} more", undelivered.len() - 16));
        }
        lines.join("\n")
    }
}

/// One snapshot of the event loop: the workspace plus where the loop
/// stands in time. The closed-loop engine keeps a committed and a
/// speculative one and refreshes the speculative one in place
/// ([`LoopState::sync_from`]) — a copy sized by the mesh and the worms in
/// flight, not by history. That copy is a small share of a speculative
/// send; the bulk is the re-simulation the speculation then runs, which
/// is why isolated sends skip speculation altogether (see
/// [`IncrementalFlit`]).
#[derive(Debug)]
struct LoopState {
    ws: Workspace,
    /// Last processed cycle (`None` before the first).
    clock: Option<u64>,
    remaining: usize,
    /// Count of leading worms whose values are final in this state: every
    /// worm below the watermark was delivered on a committed (or promoted)
    /// trajectory, so no later traffic can touch it. The snapshot refresh
    /// skips them — that is what keeps a send O(mesh + in-flight) instead
    /// of O(history).
    finalized: usize,
}

impl LoopState {
    /// An empty state, filled on first [`LoopState::sync_from`].
    fn empty() -> LoopState {
        LoopState { ws: Workspace::default(), clock: None, remaining: 0, finalized: 0 }
    }

    /// Makes `self` a snapshot of `src`, reusing allocations (see
    /// [`Workspace::sync_from`]). `self` must be an earlier snapshot of
    /// the same run (or empty), so `self.finalized <= src.finalized`.
    fn sync_from(&mut self, src: &LoopState) {
        debug_assert!(self.finalized <= src.finalized);
        self.ws.sync_from(&src.ws, self.finalized);
        self.clock = src.clock;
        self.remaining = src.remaining;
        self.finalized = src.finalized;
    }
}

/// [`IncrementalFlit::ghost_of`] entry of a resource no ghost holds.
const NO_GHOST: u32 = u32::MAX;

/// How an [`IncrementalFlit`] has answered its sends so far (see its
/// "Ghost worms" docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SendPaths {
    /// Every [`send`](NetEngine::send).
    pub sends: u64,
    /// Isolated sends, answered at zero load and kept as ghost worms.
    pub ghosts: u64,
    /// Ghosts a later send touched before their delivery, replayed into
    /// the committed state; the rest were resolved in closed form.
    pub materialized: u64,
}

/// The speculative slot of [`IncrementalFlit`].
#[derive(Debug)]
enum Spec {
    /// The committed state run ahead to deliver the newest message:
    /// promotable while it has not crossed the next safe horizon.
    Live(LoopState),
    /// A recycled buffer left behind by an isolated send: its allocations
    /// serve the next speculation, but its contents are stale and are
    /// never promoted.
    Stale(LoopState),
}

/// The cycle-accurate flit router as a network engine: accepts one message
/// at a time (nondecreasing injection order) and reports each message's
/// delivery cycle immediately, while guaranteeing that the *final* log is
/// cycle-identical to a batch [`simulate`](NetEngine::simulate) over the
/// same injection schedule — and so to the
/// [`FlitCycleReference`](crate::FlitCycleReference) oracle.
///
/// Like [`OnlineWormhole`](crate::OnlineWormhole), the engine is generic
/// over its [`LogSink`]: the default [`NetLog`] retains every record;
/// [`IncrementalFlit::streaming`] folds deliveries into a constant-memory
/// [`StreamingLog`] instead. Records are emitted at
/// [`finish`](NetEngine::finish), once delivery times are final, so
/// mid-run the sink is still empty.
///
/// # Committed and speculative state
///
/// The flit router is not causal the way the recurrence model is: a later
/// injection can retroactively change an earlier message's delivery
/// (round-robin allocation, buffer contention). So an exact synchronous
/// answer to "when will this message arrive" is impossible before the
/// future traffic is known. The engine keeps two copies of the loop state:
///
/// - **committed** — has processed only cycles that are already *final*:
///   every cycle strictly below `inject + hop_latency` of the latest
///   injection (no future flit can enter a network interface earlier than
///   that, and injections are nondecreasing, so nothing can perturb those
///   cycles). The committed trajectory is therefore exactly the batch
///   trajectory, which is what makes the final log identical.
/// - **speculative** — a clone of the committed state run ahead far enough
///   to deliver the newest message, *assuming no further traffic*. Its
///   delivery cycle is the value [`send`](NetEngine::send) returns: the
///   engine's best feedback given everything injected so far.
///
/// On the next send, the speculation is **promoted** to committed for free
/// when it never crossed the new safe horizon (the common case under
/// bursty traffic: speculation barely runs ahead), and discarded otherwise
/// — the committed state then re-advances, redoing only the cycles the
/// speculation guessed at. Either way no cycle is ever committed until it
/// is final. A batch [`simulate`](NetEngine::simulate) needs no feedback:
/// it queues every worm on the committed state and drains once.
///
/// **Isolated sends skip speculation.** The engine counts, per resource,
/// the live worms (queued but not yet delivered by the committed state)
/// whose footprint claims it: the source NI plus every output on the
/// whole route. A new worm is *isolated* when it is the only live claimant
/// of every resource in its footprint and `buffer_flits >= 2`. Worms
/// interact only through shared outputs (and the input buffers those
/// outputs feed) and a shared injection queue, and every worm that
/// crossed an isolated worm's route has been delivered, leaving it idle
/// and unowned by the time the new head can use it. So an isolated worm
/// travels as it would through an empty network; its speculative answer
/// is exactly `inject + zero_load_latency`, which `send` returns without
/// refreshing or advancing the speculation. (With one-flit buffers a
/// flit can only follow once the slot ahead has drained, so the worm
/// streams slower than the formula assumes; the gate keeps them on the
/// speculative path.) The recycled speculative buffer is kept only for
/// its allocations.
///
/// # Ghost worms
///
/// An isolated worm does not enter the committed state either. Its `Worm`
/// and route join the arenas (ids and record order are unchanged) and its
/// source's NI entry watermark advances, but its flits are not queued:
/// the worm becomes a *ghost*, and every resource of its footprint
/// records it as its ghost owner, so a conflict is found in
/// O(footprint). A ghost is disjoint from every other live worm by
/// construction, and it stays so until a later send claims one of its
/// resources, so it ends one of two ways:
///
/// - **Resolved in closed form** once the committed state would have
///   processed its tail's ejection (`delivered - link_delay` below a later
///   send's horizon), or at the final drain, when no traffic follows. It
///   is delivered at `inject + zero_load_latency`, releases its claims,
///   and leaves on every route output exactly what the lone worm's
///   simulation would: one round-robin step and one link of busy time per
///   flit, the VC round-robin past the VC its head took, and the ejection
///   output busy until the delivery (see `resolve_ghost`).
/// - **Materialized** when a new send's footprint hits it first. The ghost
///   is replayed alone from its injection through every cycle below the
///   current horizon, in one reused private workspace seeded with the
///   committed round-robin and busy state of its outputs, and its
///   footprint's state (buffers, reservations, owners, per-output fields,
///   request queues, dirty bits, wheel slots, landings and NI queue) is
///   moved into the committed state — before the new worm is queued or
///   the speculation re-synced. From there it is an ordinary worm.
///
/// Either way the committed state ends exactly where simulating every
/// worm all along would have left it, so the final log is unchanged,
/// while the worms no later send touches — most of them, in causal
/// replays of message-passing traces — are never simulated at all.
/// [`send_paths`](IncrementalFlit::send_paths) counts both paths.
///
/// # Example
///
/// ```
/// use commchar_des::SimTime;
/// use commchar_mesh::{IncrementalFlit, MeshConfig, NetEngine, NetMessage, NodeId};
///
/// let msgs = vec![NetMessage {
///     id: 0, src: NodeId(0), dst: NodeId(3), bytes: 16, inject: SimTime::ZERO,
/// }];
/// let log = IncrementalFlit::new(MeshConfig::new(2, 2)).simulate(&msgs).unwrap();
/// assert_eq!(log.records().len(), 1);
/// ```
#[derive(Debug)]
pub struct IncrementalFlit<S: LogSink = NetLog> {
    cfg: MeshConfig,
    committed: LoopState,
    spec: Option<Spec>,
    /// Per-node prefix max of NI entry times: the cycle each queued flit
    /// enters the reference model's unbounded injection buffer.
    entered: Vec<u64>,
    /// Live-worm count per resource: output `node*NPORTS + port`, then
    /// source NI `nodes*NPORTS + node` (see [`footprint`]).
    claims: Vec<u32>,
    /// Sent worms the committed state has not delivered yet, ghosts
    /// included — the ones holding `claims`.
    live: Vec<u32>,
    /// Live ghost worms with their zero-load delivery cycle.
    ghosts: Vec<(u32, u64)>,
    /// The ghost holding each resource (indexed like `claims`), or
    /// [`NO_GHOST`].
    ghost_of: Vec<u32>,
    /// Private workspace a materializing ghost is replayed in, allocated
    /// on first use and idle between uses.
    replay: Option<Workspace>,
    paths: SendPaths,
    sink: S,
    last_inject: SimTime,
    /// `--sim-jobs`: worker threads for the final drain.
    sim_jobs: usize,
}

impl IncrementalFlit {
    /// Creates an idle router logging into a [`NetLog`].
    ///
    /// # Panics
    ///
    /// Panics when the configuration lacks the virtual channels its
    /// (topology × routing) pair needs for deadlock freedom (the torus
    /// dateline escape classes, the adaptive XY/YX classes) — use
    /// [`IncrementalFlit::try_new`] for the typed error.
    pub fn new(cfg: MeshConfig) -> Self {
        IncrementalFlit::with_sink(cfg, NetLog::new())
    }

    /// [`new`](IncrementalFlit::new), surfacing an undersized
    /// virtual-channel budget as [`EngineError::UnsupportedTopology`]
    /// instead of a panic.
    pub fn try_new(cfg: MeshConfig) -> Result<Self, EngineError> {
        IncrementalFlit::try_with_sink(cfg, NetLog::new())
    }
}

impl IncrementalFlit<StreamingLog> {
    /// Creates an idle router accumulating into a [`StreamingLog`] sized
    /// for this mesh — constant sink memory however many messages are
    /// simulated.
    ///
    /// # Panics
    ///
    /// Panics on an undersized virtual-channel budget (see
    /// [`IncrementalFlit::new`]).
    pub fn streaming(cfg: MeshConfig) -> Self {
        let nodes = cfg.shape.nodes();
        IncrementalFlit::with_sink(cfg, StreamingLog::new(nodes))
    }
}

impl<S: LogSink> IncrementalFlit<S> {
    /// Creates an idle router delivering records into `sink`.
    ///
    /// # Panics
    ///
    /// Panics on an undersized virtual-channel budget (see
    /// [`IncrementalFlit::new`]).
    pub fn with_sink(cfg: MeshConfig, sink: S) -> Self {
        match IncrementalFlit::try_with_sink(cfg, sink) {
            Ok(engine) => engine,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`with_sink`](IncrementalFlit::with_sink), surfacing an undersized
    /// virtual-channel budget as [`EngineError::UnsupportedTopology`]
    /// instead of a panic.
    pub fn try_with_sink(cfg: MeshConfig, sink: S) -> Result<Self, EngineError> {
        EngineError::check_flit(&cfg)?;
        Ok(IncrementalFlit {
            cfg,
            committed: LoopState {
                ws: Workspace::new(&cfg),
                clock: None,
                remaining: 0,
                finalized: 0,
            },
            spec: None,
            entered: vec![0; cfg.shape.nodes()],
            claims: vec![0; cfg.shape.nodes() * (NPORTS + 1)],
            live: Vec::new(),
            ghosts: Vec::new(),
            ghost_of: vec![NO_GHOST; cfg.shape.nodes() * (NPORTS + 1)],
            replay: None,
            paths: SendPaths::default(),
            sink,
            last_inject: SimTime::ZERO,
            sim_jobs: 1,
        })
    }

    /// Sets the `--sim-jobs` worker count for the final drain: `1` (the
    /// default) is the serial engine, `0` means one worker per hardware
    /// thread, `N > 1` partitions the mesh into row bands run by a
    /// conservative-window wavefront (see the `shard` module docs).
    ///
    /// Per-send feedback is inherently sequential (each answer depends on
    /// all traffic so far), so sends are unaffected; what parallelizes is
    /// the closing drain of every still-in-flight worm — the whole run of a
    /// batch [`simulate`](NetEngine::simulate) — which dominates wall-clock
    /// on large meshes. The log is byte-identical for every value.
    pub fn with_sim_jobs(mut self, sim_jobs: usize) -> Self {
        self.sim_jobs = sim_jobs;
        self
    }

    /// Runs one state's event loop toward `goal`.
    fn advance(cfg: &MeshConfig, st: &mut LoopState, goal: Goal) -> Result<(), EngineError> {
        let mut engine = Engine::serial(cfg, &mut st.ws, st.remaining);
        st.clock = engine.advance(st.clock, goal)?;
        st.remaining = engine.remaining;
        Ok(())
    }

    /// Appends the message's worm and route to the committed arenas and
    /// returns its id; [`queue_flits`] or a ghost takes it from there.
    fn push_worm(&mut self, m: NetMessage) -> u32 {
        let ws = &mut self.committed.ws;
        let w = ws.worms.len() as u32;
        let route_off = ws.routes.len() as u32;
        build_route(&self.cfg, m.src, m.dst, &mut ws.routes);
        ws.worms.push(Worm {
            msg: m,
            route_off,
            route_len: ws.routes.len() as u32 - route_off,
            ejected: 0,
            head_hop: route_off,
            delivered: None,
        });
        w
    }

    /// Queues worm `w` on the committed state (see [`queue_flits`]).
    fn add_worm(&mut self, w: u32) {
        let src = self.committed.ws.worms[w as usize].msg.src.index();
        queue_flits(&self.cfg, &mut self.committed.ws, w, &mut self.entered[src]);
        self.committed.remaining += 1;
    }

    /// Releases the claims of every live worm the committed state has
    /// delivered.
    fn release_delivered(&mut self) {
        let (cfg, ws, claims) = (&self.cfg, &self.committed.ws, &mut self.claims);
        self.live.retain(|&w| {
            let delivered = ws.worms[w as usize].delivered.is_some();
            if delivered {
                footprint(cfg, ws, w).for_each(|r| claims[r] -= 1);
            }
            !delivered
        });
    }

    /// Makes the just-sent worm `w` live, adding its footprint to the
    /// claims, and reports whether it is isolated (see the type docs):
    /// sole claimant of every resource, with buffers of at least two
    /// flits.
    fn claim(&mut self, w: u32, horizon: u64) -> bool {
        self.live.push(w);
        let (cfg, ws) = (&self.cfg, &self.committed.ws);
        let mut isolated = cfg.buffer_flits >= 2;
        for r in footprint(cfg, ws, w) {
            self.claims[r] += 1;
            isolated &= self.claims[r] == 1;
        }
        // Every other worm that crossed this route was delivered before
        // the horizon, so no VC on it is owned and each output is free by
        // the time the head can first reach it: a tail leaves a transit
        // output at least a link before its own ejection, and this worm
        // reaches its `k`-th output no sooner than `k` links past the
        // horizon.
        debug_assert!(
            !isolated
                || footprint(cfg, ws, w).skip(1).enumerate().all(|(k, o)| {
                    let vcs = cfg.virtual_channels;
                    ws.busy_until[o] <= horizon + k as u64 * cfg.link_delay
                        && ws.owners[o * vcs..(o + 1) * vcs].iter().all(Option::is_none)
                }),
            "an isolated worm's route is busy"
        );
        isolated
    }

    /// Keeps the isolated worm `w` out of the simulation as a ghost (see
    /// the type docs), delivered at `delivered` unless a later send
    /// touches it first.
    fn add_ghost(&mut self, w: u32, delivered: u64) {
        let cfg = &self.cfg;
        let m = self.committed.ws.worms[w as usize].msg;
        // The source NI is idle (this worm is its only claimant), so every
        // flit enters at its availability and the tail's is the new
        // prefix max.
        let base = m.inject.ticks() + cfg.hop_latency();
        debug_assert!(self.entered[m.src.index()] < base, "an isolated worm's NI is busy");
        self.entered[m.src.index()] = base + (cfg.flits_for(m.bytes) - 1) * cfg.link_delay;
        for r in footprint(cfg, &self.committed.ws, w) {
            self.ghost_of[r] = w;
        }
        self.ghosts.push((w, delivered));
        self.paths.ghosts += 1;
    }

    /// Resolves in closed form every ghost whose tail ejection (one link
    /// before its delivery) lies below `horizon`: the committed state
    /// would have processed it by now, and nothing touched it before.
    fn resolve_ghosts(&mut self, horizon: u64) {
        let (cfg, ws, ghost_of) = (&self.cfg, &mut self.committed.ws, &mut self.ghost_of);
        self.ghosts.retain(|&(g, delivered)| {
            if delivered - cfg.link_delay >= horizon {
                return true;
            }
            resolve_ghost(cfg, ws, g, delivered);
            footprint(cfg, ws, g).for_each(|r| ghost_of[r] = NO_GHOST);
            false
        });
    }

    /// Puts ghost `g` into the committed state as it would stand had it
    /// been simulated all along: replays it alone from its injection
    /// through every cycle below `horizon` in the private replay
    /// workspace, seeded with the committed state of its route outputs,
    /// then moves its footprint's state over (see
    /// [`Workspace::absorb`]). Nothing else touched the footprint, so the
    /// lone replay is the committed trajectory.
    fn materialize(&mut self, g: u32, horizon: u64) -> Result<(), EngineError> {
        let Some(i) = self.ghosts.iter().position(|&(w, _)| w == g) else {
            return Ok(()); // already materialized through another resource
        };
        self.ghosts.swap_remove(i);
        let cfg = self.cfg;
        let c = &mut self.committed;
        let fp: Vec<usize> = footprint(&cfg, &c.ws, g).collect();
        for &r in &fp {
            self.ghost_of[r] = NO_GHOST;
        }
        let outs = &fp[1..];
        let rp = self.replay.get_or_insert_with(|| Workspace::new(&cfg));
        let worm = c.ws.worms[g as usize];
        let route = worm.route_off as usize..(worm.route_off + worm.route_len) as usize;
        rp.routes.extend_from_slice(&c.ws.routes[route]);
        rp.worms.push(Worm { route_off: 0, head_hop: 0, ..worm });
        for &o in outs {
            rp.rr[o] = c.ws.rr[o];
            rp.vc_rr[o] = c.ws.vc_rr[o];
            rp.busy_until[o] = c.ws.busy_until[o];
        }
        // The source NI was idle, so every flit entered at its
        // availability (see `add_ghost`).
        queue_flits(&cfg, rp, 0, &mut 0);
        let clock = Engine::serial(&cfg, rp, 1).advance(None, Goal::Before(horizon))?;
        debug_assert!(rp.worms[0].delivered.is_none(), "a materialized ghost was delivered");
        c.ws.absorb(rp, &cfg, outs, g, worm.route_off);
        c.clock = c.clock.max(clock);
        c.remaining += 1;
        self.paths.materialized += 1;
        Ok(())
    }

    /// How the sends so far were answered.
    pub fn send_paths(&self) -> SendPaths {
        self.paths
    }

    /// Promotes the speculation (with no further sends it is
    /// unconditionally the true trajectory), drains every worm, emits one
    /// record per message in injection order (what the reference produces
    /// and what per-source inter-arrival statistics expect) and hands
    /// per-channel utilization to the sink.
    ///
    /// With `sim_jobs > 1` the drain — the only whole-network advance left,
    /// and the bulk of the remaining work on a large mesh — runs on the
    /// sharded wavefront engine after splitting the committed state;
    /// per-send answers were already returned and are untouched, so
    /// `sim_jobs` cannot perturb them, and the drain itself is
    /// cycle-identical.
    ///
    /// # Errors
    ///
    /// [`EngineError::Wedged`] if the router deadlocks before every worm is
    /// delivered.
    fn drain(mut self) -> Result<S, EngineError> {
        if let Some(Spec::Live(spec)) = self.spec.take() {
            self.committed = spec;
        }
        // No traffic follows: every ghost is delivered alone.
        self.resolve_ghosts(u64::MAX);
        let cfg = self.cfg;
        // A shard owns at least one full row, so `--sim-jobs` is capped at
        // the row count; one shard is the serial engine.
        let shards = commchar_pool::resolve_jobs_for(self.sim_jobs, cfg.shape.height() as usize);
        if shards > 1 && self.committed.remaining > 0 {
            let st = &mut self.committed;
            shard::drain_sharded(&cfg, &mut st.ws, st.clock, st.remaining, shards)?;
        } else {
            Self::advance(&cfg, &mut self.committed, Goal::Drain)?;
        }
        let mut first_inject: Option<u64> = None;
        let mut last_delivery = 0u64;
        for worm in &self.committed.ws.worms {
            let delivered = worm.delivered.expect("all worms delivered").get();
            first_inject.get_or_insert(worm.msg.inject.ticks());
            last_delivery = last_delivery.max(delivered);
            let hops = cfg.shape.hop_distance(worm.msg.src, worm.msg.dst);
            self.sink.record(MsgRecord {
                id: worm.msg.id,
                src: worm.msg.src,
                dst: worm.msg.dst,
                bytes: worm.msg.bytes,
                inject: worm.msg.inject.ticks(),
                delivered,
                hops,
                zero_load: cfg.zero_load_latency(worm.msg.bytes, hops),
            });
        }
        let span = match first_inject {
            Some(first) if last_delivery > first => (last_delivery - first) as f64,
            _ => 0.0,
        };
        let mut util = Vec::new();
        for node in 0..cfg.shape.nodes() {
            for port in 0..NPORTS {
                let busy = self.committed.ws.busy_ticks[node * NPORTS + port];
                if busy > 0 && span > 0.0 {
                    util.push((out_channel_id(node, port), busy as f64 / span));
                }
            }
        }
        self.sink.finish(util);
        Ok(self.sink)
    }
}

impl<S: LogSink> NetEngine for IncrementalFlit<S> {
    type Sink = S;

    fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    fn sink(&self) -> &S {
        &self.sink
    }

    /// Injects `m` and returns the cycle its tail flit reaches the
    /// destination NI, given all traffic injected so far.
    ///
    /// # Errors
    ///
    /// [`EngineError::OutOfOrder`] on a time-ordering violation, or
    /// [`EngineError::Wedged`] if the router deadlocks before the answer
    /// exists.
    fn send(&mut self, m: NetMessage) -> Result<SimTime, EngineError> {
        EngineError::check_order(&mut self.last_inject, &m)?;
        self.paths.sends += 1;
        // Cycles strictly below the horizon can no longer change: this
        // message's first flit cannot enter an NI before it, and neither
        // can any later message's.
        let horizon = m.inject.ticks() + self.cfg.hop_latency();
        let mut scratch = match self.spec.take() {
            // The speculation never processed a non-final cycle:
            // everything it did would have been redone identically, so it
            // *becomes* the committed state; the old committed state is
            // recycled as the next speculation's buffer.
            Some(Spec::Live(spec)) if spec.clock.is_none_or(|c| c < horizon) => {
                std::mem::replace(&mut self.committed, spec)
            }
            // Discarded speculation or a stale buffer: recycled.
            Some(Spec::Live(spec) | Spec::Stale(spec)) => spec,
            None => LoopState::empty(),
        };
        Self::advance(&self.cfg, &mut self.committed, Goal::Before(horizon))?;
        self.resolve_ghosts(horizon);
        // Committed deliveries are final — advance the watermark the
        // snapshot refresh skips below, and release the delivered worms'
        // claims.
        while self.committed.finalized < self.committed.ws.worms.len()
            && self.committed.ws.worms[self.committed.finalized].delivered.is_some()
        {
            self.committed.finalized += 1;
        }
        self.release_delivered();
        let w = self.push_worm(m);
        if self.claim(w, horizon) {
            // The stale buffer still grows its arenas in step with the
            // committed ones, as every refresh does, and frees its NI
            // queues: a lagging copy of either fragments the heap and
            // raises peak memory.
            scratch.ws.extend_arenas(&self.committed.ws);
            scratch.ws.pending = Vec::new();
            self.spec = Some(Spec::Stale(scratch));
            let delivered = zero_load_delivery(&self.cfg, &m);
            self.add_ghost(w, delivered);
            return Ok(SimTime::from_ticks(delivered));
        }
        // The new worm joins the simulation, and so must every ghost it
        // touches, before it is queued or the speculation re-synced.
        let touched: Vec<u32> = footprint(&self.cfg, &self.committed.ws, w)
            .map(|r| self.ghost_of[r])
            .filter(|&g| g != NO_GHOST)
            .collect();
        for g in touched {
            self.materialize(g, horizon)?;
        }
        self.add_worm(w);
        scratch.sync_from(&self.committed);
        Self::advance(&self.cfg, &mut scratch, Goal::Deliver(w))?;
        let delivered = scratch.ws.worms[w as usize].delivered.expect("Deliver goal reached").get();
        self.spec = Some(Spec::Live(scratch));
        Ok(SimTime::from_ticks(delivered))
    }

    /// Finishes the simulation: drains every in-flight worm and returns the
    /// sink with one record per message in injection order and per-channel
    /// utilization folded in.
    ///
    /// # Panics
    ///
    /// Panics if the drain wedges (the [`EngineError::Wedged`] display) —
    /// the sink-returning `finish` contract has no error channel; a batch
    /// [`simulate`](NetEngine::simulate) returns the typed error instead.
    fn finish(self) -> S {
        self.drain().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Batch run without per-message feedback: queues every worm on the
    /// committed state in `(inject, id)` order, skips speculation and
    /// drains once — the same sink as sending each message and finishing.
    fn simulate(mut self, msgs: &[NetMessage]) -> Result<S, EngineError> {
        // Speculation is only a shortcut: the committed state holds final
        // cycles alone, so new worms may be queued on it directly once
        // earlier sends' ghosts have joined it.
        self.spec = None;
        let horizon = self.last_inject.ticks() + self.cfg.hop_latency();
        while let Some(&(g, _)) = self.ghosts.first() {
            self.materialize(g, horizon)?;
        }
        for m in crate::engine::sorted(msgs) {
            EngineError::check_order(&mut self.last_inject, &m)?;
            let w = self.push_worm(m);
            self.add_worm(w);
        }
        self.drain()
    }
}

#[cfg(test)]
mod tests {
    use commchar_des::SimTime;

    use super::*;
    use crate::{OnlineWormhole, Routing, Topology};

    fn msg(id: u64, src: u16, dst: u16, bytes: u32, inject: u64) -> NetMessage {
        NetMessage {
            id,
            src: NodeId(src),
            dst: NodeId(dst),
            bytes,
            inject: SimTime::from_ticks(inject),
        }
    }

    #[test]
    fn zero_load_latency_matches_online_model() {
        let cfg = MeshConfig::new(4, 4);
        for (src, dst, bytes) in [(0u16, 15u16, 32u32), (3, 12, 8), (5, 6, 100)] {
            let m = vec![msg(0, src, dst, bytes, 0)];
            let flit = IncrementalFlit::new(cfg).simulate(&m).unwrap();
            let online = OnlineWormhole::new(cfg).simulate(&m).unwrap();
            assert_eq!(
                flit.records()[0].delivered,
                online.records()[0].delivered,
                "zero-load disagreement for {src}->{dst} ({bytes}B)"
            );
            assert_eq!(flit.records()[0].blocked(), 0);
        }
    }

    #[test]
    fn zero_load_unchanged_by_virtual_channels() {
        for vcs in [1, 2, 4] {
            let cfg = MeshConfig::new(4, 4).with_virtual_channels(vcs);
            let m = vec![msg(0, 0, 15, 64, 0)];
            let log = IncrementalFlit::new(cfg).simulate(&m).unwrap();
            assert_eq!(log.records()[0].blocked(), 0, "vcs={vcs}");
        }
    }

    #[test]
    fn all_messages_delivered_under_contention() {
        for vcs in [1, 2] {
            let cfg = MeshConfig::new(4, 2).with_virtual_channels(vcs);
            let mut msgs = Vec::new();
            for i in 0..40u64 {
                msgs.push(msg(
                    i,
                    (i % 8) as u16,
                    ((i * 3 + 1) % 8) as u16,
                    16 + (i as u32 % 48),
                    i * 2,
                ));
            }
            let msgs: Vec<NetMessage> = msgs.into_iter().filter(|m| m.src != m.dst).collect();
            let log = IncrementalFlit::new(cfg).simulate(&msgs).unwrap();
            assert_eq!(log.records().len(), msgs.len());
            log.check_invariants(cfg.shape).unwrap();
        }
    }

    #[test]
    fn hotspot_contention_is_visible() {
        let cfg = MeshConfig::new(4, 2);
        // Everyone hammers node 0 simultaneously.
        let msgs: Vec<NetMessage> = (1..8).map(|i| msg(i, i as u16, 0, 64, 0)).collect();
        let log = IncrementalFlit::new(cfg).simulate(&msgs).unwrap();
        let blocked: u64 = log.records().iter().map(|r| r.blocked()).sum();
        assert!(blocked > 0, "hotspot must create contention");
    }

    #[test]
    fn virtual_channels_relieve_head_of_line_blocking() {
        // A long worm 0->3 blocks the row; a short message 1->2 arrives
        // once the worm firmly holds the channel. With 1 VC it must wait
        // for the worm's tail; with 4 VCs it interleaves on the physical
        // channel.
        let base = MeshConfig::new(4, 1).with_buffer_flits(2);
        let msgs = vec![msg(0, 0, 3, 512, 0), msg(1, 1, 2, 8, 20)];
        let lat = |vcs: usize| {
            let log =
                IncrementalFlit::new(base.with_virtual_channels(vcs)).simulate(&msgs).unwrap();
            log.records().iter().find(|r| r.id == 1).unwrap().latency()
        };
        let one = lat(1);
        let four = lat(4);
        assert!(four < one, "VCs should cut the short message's latency: {four} vs {one}");
    }

    #[test]
    fn same_source_messages_serialize() {
        let cfg = MeshConfig::new(4, 1);
        let msgs = vec![msg(0, 0, 2, 64, 0), msg(1, 0, 3, 64, 0)];
        let log = IncrementalFlit::new(cfg).simulate(&msgs).unwrap();
        let r0 = log.records().iter().find(|r| r.id == 0).unwrap();
        let r1 = log.records().iter().find(|r| r.id == 1).unwrap();
        assert!(r1.blocked() > 0 || r0.blocked() > 0);
    }

    #[test]
    fn utilization_bounded() {
        let cfg = MeshConfig::new(2, 2).with_virtual_channels(2);
        let msgs: Vec<NetMessage> = (0..20).map(|i| msg(i, 0, 3, 32, i * 5)).collect();
        let log = IncrementalFlit::new(cfg).simulate(&msgs).unwrap();
        for &(_, u) in log.utilization() {
            assert!(u > 0.0 && u <= 1.0 + 1e-9, "utilization {u} out of range");
        }
    }

    #[test]
    fn isolated_sends_skip_speculation() {
        let cfg = MeshConfig::new(4, 4).with_virtual_channels(2);
        // Widely spaced: every worm drains long before the next is sent.
        let mut spaced = IncrementalFlit::new(cfg);
        for i in 0..40u64 {
            let m = msg(i, (i % 16) as u16, ((i * 7 + 3) % 16) as u16, 64, i * 10_000);
            spaced.send(m).unwrap();
        }
        assert_eq!(spaced.send_paths().ghosts, 40);
        // A same-source burst: each new worm queues behind the previous
        // one at the source NI, so only the opening send is alone.
        let mut burst = IncrementalFlit::new(cfg);
        for i in 0..20u64 {
            burst.send(msg(i, 5, ((i % 15 + 6) % 16) as u16, 64, i)).unwrap();
        }
        assert_eq!(burst.send_paths().ghosts, 1);
    }

    /// The closed-loop premise grid: every (topology × routing) cell at
    /// the minimum and twice the minimum VC budget, link delays 1–3,
    /// router delays 0–3 and buffers of 2, 3 and 8 flits.
    fn premise_configs() -> Vec<MeshConfig> {
        let mut cfgs = Vec::new();
        for topology in [Topology::Mesh, Topology::Torus] {
            for routing in [Routing::Dimension, Routing::Adaptive] {
                let base = MeshConfig::for_nodes_net(16, topology, routing);
                for vcs in [base.vc_classes(), base.vc_classes() * 2] {
                    for link in 1..=3 {
                        for router in 0..=3 {
                            for buffer in [2, 3, 8] {
                                cfgs.push(
                                    base.with_virtual_channels(vcs)
                                        .with_link_delay(link)
                                        .with_router_delay(router)
                                        .with_buffer_flits(buffer),
                                );
                            }
                        }
                    }
                }
            }
        }
        cfgs
    }

    #[test]
    fn closed_form_resolution_matches_a_lone_worm() {
        // Resolving a ghost must leave exactly what simulating it alone
        // leaves on every field a later worm or the report can observe,
        // from a state whose round-robin pointers are not all zero.
        let mut cases = 0;
        for cfg in premise_configs() {
            let vcs = cfg.virtual_channels;
            let seeded = || {
                let mut e = IncrementalFlit::new(cfg);
                let ws = &mut e.committed.ws;
                for o in 0..ws.rr.len() {
                    ws.rr[o] = o * 7 % 5;
                    ws.vc_rr[o] = (o * 3 + 1) % vcs;
                }
                e
            };
            for (src, dst) in [(0u16, 15u16), (5, 6), (12, 1), (3, 8)] {
                for bytes in [1u32, 17, 200] {
                    let m = msg(0, src, dst, bytes, 5);
                    let mut sim = seeded();
                    let w = sim.push_worm(m);
                    sim.add_worm(w);
                    IncrementalFlit::<NetLog>::advance(&cfg, &mut sim.committed, Goal::Drain)
                        .unwrap();
                    let mut ghost = seeded();
                    let w = ghost.push_worm(m);
                    let delivered = zero_load_delivery(&cfg, &m);
                    resolve_ghost(&cfg, &mut ghost.committed.ws, w, delivered);

                    let (a, b) = (&sim.committed.ws, &ghost.committed.ws);
                    let label = format!("{cfg:?}: {src}->{dst} {bytes}B");
                    let (wa, wb) = (a.worms[0], b.worms[0]);
                    assert_eq!(wa.delivered, wb.delivered, "{label}");
                    assert_eq!((wa.ejected, wa.head_hop), (wb.ejected, wb.head_hop), "{label}");
                    assert_eq!(a.rr, b.rr, "{label}");
                    assert_eq!(a.vc_rr, b.vc_rr, "{label}");
                    assert_eq!(a.busy_ticks, b.busy_ticks, "{label}");
                    assert_eq!(a.owners, b.owners, "{label}");
                    // `busy_until` is exact at the ejection output; on a
                    // transit output the true value is at most the tail's
                    // ejection cycle, below the horizon of whichever send
                    // resolves the ghost, so no later visit can see it.
                    let outs: Vec<usize> = footprint(&cfg, a, 0).skip(1).collect();
                    let (eject, transit) = outs.split_last().unwrap();
                    assert_eq!(a.busy_until[*eject], b.busy_until[*eject], "{label}");
                    for &o in transit {
                        assert!(a.busy_until[o] <= delivered - cfg.link_delay, "{label}");
                    }
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 288 * 12);
    }

    #[test]
    fn a_crossed_ghost_is_materialized_mid_flight() {
        // A long worm 0 -> 3 sets out alone; a short message 7 -> 3 needs
        // its ejection output while it is still streaming, so
        // the ghost must join the simulation where the committed state
        // would hold it. Every answer and the final log match batch runs.
        for cfg in [
            MeshConfig::new(4, 4).with_virtual_channels(2),
            MeshConfig::for_nodes_net(16, Topology::Torus, Routing::Adaptive),
        ] {
            let msgs = [
                msg(0, 0, 3, 2048, 0),
                msg(1, 9, 10, 64, 3),
                msg(2, 7, 3, 16, 400),
                msg(3, 12, 15, 64, 900),
            ];
            let mut engine = IncrementalFlit::new(cfg);
            for (k, &m) in msgs.iter().enumerate() {
                let d = engine.send(m).unwrap().ticks();
                let prefix = IncrementalFlit::new(cfg).simulate(&msgs[..=k]).unwrap();
                assert_eq!(d, prefix.records()[k].delivered, "{cfg:?}: send {k}");
            }
            let paths = engine.send_paths();
            assert_eq!(paths, SendPaths { sends: 4, ghosts: 3, materialized: 1 }, "{cfg:?}");
            let log = engine.finish();
            let batch = IncrementalFlit::new(cfg).simulate(&msgs).unwrap();
            assert_eq!(log.records(), batch.records(), "{cfg:?}");
            assert_eq!(log.utilization(), batch.utilization(), "{cfg:?}");
        }
    }

    #[test]
    fn streaming_sink_sees_what_the_log_sees() {
        let cfg = MeshConfig::new(4, 2).with_virtual_channels(2);
        let msgs: Vec<NetMessage> = (0..60u64)
            .map(|i| msg(i, (i % 8) as u16, ((i * 3 + 1) % 8) as u16, 8 + (i % 40) as u32, i * 4))
            .filter(|m| m.src != m.dst)
            .collect();
        let log = IncrementalFlit::new(cfg).simulate(&msgs).unwrap();
        let s = IncrementalFlit::streaming(cfg).simulate(&msgs).unwrap();
        assert_eq!(log.records().len() as u64, s.messages());
        assert_eq!(log.utilization(), s.utilization());
        let a = log.summary();
        let b = s.summary();
        assert_eq!(a.span, b.span);
        assert!((a.mean_latency - b.mean_latency).abs() < 1e-9);
        assert!((a.mean_blocked - b.mean_blocked).abs() < 1e-9);
        assert_eq!(s.spatial_counts(), log.spatial_counts(8));
    }
}
