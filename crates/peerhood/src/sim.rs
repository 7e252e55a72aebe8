//! Deterministic simulator driver: many daemons + applications in one
//! [`netsim`] world.
//!
//! [`Cluster`] is the executable mobile environment. It owns the world map,
//! the event queue, and one `(Daemon, Application)` pair per device, and it
//! *is* the plugin layer: every [`PluginCommand`] a daemon emits is turned
//! into world queries and timed events using the technology profiles of
//! [`netsim::radio`] — inquiry windows, response offsets, connection setup
//! times, per-frame transfer times, and range checks at both send and
//! delivery time.
//!
//! Everything is driven from a single seeded RNG, so a run is a pure
//! function of `(scenario, seed)`.

use std::collections::{BTreeMap, VecDeque};
use std::time::{Duration, Instant};

use codec::Bytes;

use netsim::world::{EpochView, NodeBuilder, NodeId};
use netsim::{
    ActorId, BurstState, RadioEnv, RegionLanes, SimRng, SimTime, Technology, Trace, TraceStats,
    World,
};

use crate::api::AppEvent;
use crate::app::{AppCtx, Application, PendingRecord, TraceSink};
use crate::config::DaemonConfig;
use crate::daemon::{Daemon, DaemonInput, DaemonOutput};
use crate::library::Library;
use crate::plugin::{PluginCommand, PluginEvent};
use crate::service::ServiceInfo;
use crate::types::{AttemptId, DeviceId, DeviceInfo, LinkId, ResumeToken};

/// Approximate wire size of a service-discovery query.
const SDP_QUERY_BYTES: usize = 48;
/// Approximate wire size of one service record in a discovery reply.
const SDP_RECORD_BYTES: usize = 72;
/// Approximate wire size of connection-control frames (accept, close).
const CTRL_BYTES: usize = 24;
/// How long after the radios lose each other the transport notices.
const LINK_DOWN_DETECT: Duration = Duration::from_millis(400);
/// How long an unanswered service query takes to give up.
const SDP_TIMEOUT: Duration = Duration::from_millis(1_000);
/// Salt xored into the scenario seed to derive the *fault* RNG lanes.
/// Faults draw from their own per-node streams so an inert [`FaultPlan`]
/// (which draws nothing) leaves the main lanes — and therefore the
/// digest — bit-identical to a fault-free run.
///
/// [`FaultPlan`]: netsim::FaultPlan
const FAULT_STREAM_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Default number of region event lanes (see [`Cluster::set_region_lanes`]).
const DEFAULT_REGION_LANES: usize = 8;

/// Minimum events per epoch-engine worker: below this, per-spawn overhead
/// outweighs the fan-out, so small batches get fewer (or one) workers. A
/// pure cost knob — worker count never affects results.
const EPOCH_MIN_EVENTS_PER_WORKER: usize = 16;

#[derive(Debug)]
enum Ev {
    Start(NodeId),
    DaemonWake(NodeId),
    AppTimer(NodeId, u64),
    InquiryFound {
        seeker: NodeId,
        tech: Technology,
        found: NodeId,
    },
    InquiryDone {
        node: NodeId,
        tech: Technology,
    },
    ServiceQueryArrive {
        to: NodeId,
        from: NodeId,
        tech: Technology,
    },
    ServiceReplyArrive {
        to: NodeId,
        from: NodeId,
        services: Vec<ServiceInfo>,
        /// Which radio carried the reply; `None` for the synthetic
        /// empty reply a local SDP timeout produces (not a wire frame,
        /// so fault injection never touches it).
        tech: Option<Technology>,
    },
    ConnectSetupDone {
        initiator: NodeId,
        attempt: AttemptId,
        target: NodeId,
        service: String,
        tech: Technology,
        resume: Option<ResumeToken>,
    },
    ConnectResultArrive {
        to: NodeId,
        attempt: AttemptId,
        result: Result<LinkId, String>,
    },
    FrameArrive {
        to: NodeId,
        link: LinkId,
        payload: Bytes,
    },
    PeerClosedArrive {
        to: NodeId,
        link: LinkId,
    },
    LinkDownArrive {
        to: NodeId,
        link: LinkId,
    },
    /// A scheduled daemon outage begins ([`netsim::CrashWindow`]).
    CrashStart(NodeId),
    /// The crashed daemon restarts (with empty soft state).
    CrashEnd(NodeId),
}

#[derive(Debug)]
struct Link {
    a: NodeId,
    b: NodeId,
    tech: Technology,
    /// While the responder has not yet accepted/rejected: the initiator
    /// waiting for the result.
    pending: Option<(NodeId, AttemptId)>,
    /// Latest scheduled arrival toward `a` / toward `b`. The thesis's
    /// BTPlugin "offers ordered and reliable data delivery" (L2CAP), so
    /// frames on one link must not overtake each other even though their
    /// individual transfer times are sampled independently.
    last_arrival_to_a: SimTime,
    last_arrival_to_b: SimTime,
    /// Whether the degradation warning (peer near the edge of range) has
    /// already been raised for this link.
    degraded_notified: bool,
}

impl Link {
    fn other(&self, node: NodeId) -> NodeId {
        if node == self.a {
            self.b
        } else {
            self.a
        }
    }

    /// Returns the FIFO-corrected arrival time of a message toward `to`
    /// whose raw transfer would land at `raw`, and records it.
    fn fifo_arrival(&mut self, to: NodeId, raw: SimTime) -> SimTime {
        let last = if to == self.a {
            &mut self.last_arrival_to_a
        } else {
            &mut self.last_arrival_to_b
        };
        let at = raw.max(*last + Duration::from_micros(1));
        *last = at;
        at
    }
}

/// The open radio links and the next link id to hand out.
#[derive(Debug, Default)]
struct LinkTable {
    map: BTreeMap<LinkId, Link>,
    next: u64,
}

/// The set of pending `DaemonWake` timestamps for one node — a sorted `Vec`
/// rather than a `BTreeSet`: a node rarely has more than a couple of wakes
/// in flight, and at million-node scale the tree's per-node allocation
/// dominated. Empty sets hold no heap at all.
#[derive(Debug, Default)]
struct WakeSet(Vec<SimTime>);

impl WakeSet {
    /// Inserts `t`, returning `false` if it was already pending.
    fn insert(&mut self, t: SimTime) -> bool {
        match self.0.binary_search(&t) {
            Ok(_) => false,
            Err(i) => {
                self.0.insert(i, t);
                true
            }
        }
    }

    fn remove(&mut self, t: SimTime) {
        if let Ok(i) = self.0.binary_search(&t) {
            self.0.remove(i);
        }
    }
}

/// Fault-decision state for one node, allocated lazily on the first draw
/// that can actually fire. Fault-free runs (the common case) never pay for
/// it: the lane derivation [`SimRng::lane`] is stateless, so creating the
/// stream on first use yields exactly the sequence an eagerly-created one
/// would have produced.
#[derive(Debug)]
struct FaultRt {
    /// Dedicated fault-decision lane (see [`FAULT_STREAM_SALT`]): the
    /// Gilbert channel and refusal draws charged to this node.
    rng: SimRng,
    /// Per-technology Gilbert channel state for frames *received* by this
    /// node.
    burst: [BurstState; 3],
}

struct NodeRt<A> {
    daemon: Daemon,
    app: A,
    lib: Library,
    wakes: WakeSet,
    /// This node's main randomness lane: `SimRng::lane(seed, id)`. Every
    /// protocol draw a node's activity causes (discovery misses, transfer
    /// jitter, connect timing) comes from the acting node's own lane, so a
    /// node's stream depends only on `(seed, id)` and its own activity —
    /// never on how many other nodes exist or which lane dispatched it.
    rng: SimRng,
    /// Lazily-initialized fault state (see [`FaultRt`]).
    fault: Option<Box<FaultRt>>,
    /// Whether the daemon is inside a crash window: all daemon inputs are
    /// dropped until the matching [`Ev::CrashEnd`].
    down: bool,
}

impl<A> NodeRt<A> {
    /// The node's fault state, deriving its lane on first use.
    fn fault(&mut self, seed: u64, node: NodeId) -> &mut FaultRt {
        self.fault.get_or_insert_with(|| {
            Box::new(FaultRt {
                rng: SimRng::lane(seed ^ FAULT_STREAM_SALT, node.index() as u64),
                burst: [BurstState::default(); 3],
            })
        })
    }
}

/// A deterministic simulation of many PeerHood devices and their
/// applications.
///
/// See the [crate-level example](crate) for basic use. The typical
/// experiment loop is: build nodes, [`Cluster::start`], then alternate
/// [`Cluster::run_until`] / [`Cluster::with_app`] to script user actions and
/// observe application state.
pub struct Cluster<A> {
    world: World,
    /// Region-sharded event lanes: every event is scheduled on the lane
    /// owning its target node's home region, and [`RegionLanes`] merges the
    /// lane heads back into the exact serial `(time, seq)` order. Lane
    /// assignment is therefore *unobservable* — any lane count and any
    /// region-to-lane mapping produce a bit-identical run.
    queue: RegionLanes<Ev>,
    nodes: Vec<NodeRt<A>>,
    /// Prebuilt identity snapshots, one per node, cloned (not rebuilt) for
    /// every plugin event that carries a `DeviceInfo`. A shared column —
    /// not a `NodeRt` field — because epoch workers need *cross-node* read
    /// access (an inquiry response carries the found node's identity) while
    /// holding only their own `&mut` node range.
    infos: Vec<DeviceInfo>,
    /// Each node's interned actor handle in `trace`, for the buffered
    /// record path ([`TraceSink::Buffer`]).
    actor_ids: Vec<ActorId>,
    links: LinkTable,
    /// Scenario seed; per-node RNG lanes derive from it statelessly via
    /// [`SimRng::lane`], so a node's streams never depend on cluster size.
    seed: u64,
    /// Radio profiles + fault plan shared with the world.
    env: RadioEnv,
    trace: Trace,
    started: bool,
    /// Worker count for the epoch engine (0 = auto, 1 = one worker).
    threads: usize,
    /// Reused batch buffer for [`RegionLanes::drain_batch`].
    batch_buf: Vec<Ev>,
    /// Reused executor outboxes; the first serves every one-worker batch.
    outboxes: Vec<EpochOutbox>,
    /// Accumulated phase breakdown of [`Cluster::run_until`] (counters are
    /// always cheap; wall-clock sampling only when enabled).
    timing: EpochTiming,
    /// Whether [`EpochTiming`] wall-clock fields are sampled.
    collect_timing: bool,
}

/// Wall-clock phase breakdown of [`Cluster::run_until`], accumulated across
/// calls. The event counters are always maintained; the `Duration` fields
/// are sampled only when enabled via [`Cluster::set_collect_timing`] (they
/// read the host clock, which costs a few ns per batch).
#[derive(Copy, Clone, Debug, Default)]
pub struct EpochTiming {
    /// Time spent draining timestamp batches from the region lanes.
    pub drain: Duration,
    /// Time spent partitioning parallel batches by home node.
    pub gather: Duration,
    /// Time spent executing events (worker fan-out for parallel batches,
    /// one inline worker for the rest).
    pub execute: Duration,
    /// Time spent replaying worker outboxes in canonical order.
    pub commit: Duration,
    /// Node-local timestamp batches, eligible for parallel workers.
    pub par_batches: u64,
    /// Events in node-local batches.
    pub par_events: u64,
    /// Timestamp batches run by one worker holding the link table
    /// (ineligible or single-event).
    pub serial_batches: u64,
    /// Events in those batches.
    pub serial_events: u64,
}

/// Index of a technology in per-technology state arrays (burst channels).
fn tech_slot(tech: Technology) -> usize {
    match tech {
        Technology::Bluetooth => 0,
        Technology::Wlan => 1,
        Technology::Gprs => 2,
    }
}

/// The node an event is addressed to — the event's *owner* for lane
/// routing. Routing is purely a sharding hint (see [`RegionLanes`]); a
/// stale home region after a node crosses a boundary only changes which
/// lane holds the event, never when or in which order it is delivered.
fn ev_target(ev: &Ev) -> NodeId {
    match ev {
        Ev::Start(n) | Ev::DaemonWake(n) | Ev::AppTimer(n, _) => *n,
        Ev::InquiryFound { seeker, .. } => *seeker,
        Ev::InquiryDone { node, .. } => *node,
        Ev::ServiceQueryArrive { to, .. }
        | Ev::ServiceReplyArrive { to, .. }
        | Ev::ConnectResultArrive { to, .. }
        | Ev::FrameArrive { to, .. }
        | Ev::PeerClosedArrive { to, .. }
        | Ev::LinkDownArrive { to, .. } => *to,
        Ev::ConnectSetupDone { target, .. } => *target,
        Ev::CrashStart(n) | Ev::CrashEnd(n) => *n,
    }
}

impl<A: Application> Cluster<A> {
    /// Creates an empty cluster with default radio profiles and no faults;
    /// all randomness derives from `seed`.
    pub fn new(seed: u64) -> Self {
        Cluster::with_env(seed, RadioEnv::default())
    }

    /// Creates an empty cluster running inside the given [`RadioEnv`]:
    /// its technology profiles drive every range/timing computation and its
    /// [`FaultPlan`](netsim::FaultPlan) is injected deterministically.
    ///
    /// An inert fault plan draws no randomness, so
    /// `Cluster::with_env(seed, RadioEnv::default())` is bit-identical to
    /// `Cluster::new(seed)`.
    pub fn with_env(seed: u64, env: RadioEnv) -> Self {
        Cluster {
            world: World::with_env(env.clone()),
            queue: RegionLanes::new(DEFAULT_REGION_LANES),
            nodes: Vec::new(),
            infos: Vec::new(),
            actor_ids: Vec::new(),
            links: LinkTable::default(),
            seed,
            env,
            trace: Trace::new(),
            started: false,
            threads: 1,
            batch_buf: Vec::new(),
            outboxes: Vec::new(),
            timing: EpochTiming::default(),
            collect_timing: false,
        }
    }

    /// Reconfigures the number of region event lanes. Lane count is a pure
    /// sharding knob: [`RegionLanes`] re-interleaves lane heads into exact
    /// serial order, so any value yields a bit-identical run. Must be
    /// called before [`Cluster::start`] (the queue must be empty).
    pub fn set_region_lanes(&mut self, lanes: usize) {
        assert!(
            !self.started && self.queue.is_empty(),
            "set_region_lanes must be called before start()"
        );
        self.queue = RegionLanes::new(lanes);
    }

    /// The configured number of region event lanes.
    pub fn region_lanes(&self) -> usize {
        self.queue.lane_count()
    }

    /// Sets the spatial region edge (metres) used for world sharding and
    /// lane routing. Pure sharding knob — answers and digests are
    /// independent of it. Panics unless `edge` is finite and positive.
    pub fn set_region_edge(&mut self, edge: f64) {
        self.world.set_region_edge(edge);
    }

    /// Pre-allocates storage for `n` further nodes across the world's
    /// structure-of-arrays columns and the cluster's runtime table, so a
    /// crowd build does one big allocation per column instead of a
    /// doubling cascade.
    pub fn reserve_nodes(&mut self, n: usize) {
        self.world.reserve_nodes(n);
        self.nodes.reserve(n);
        self.infos.reserve(n);
        self.actor_ids.reserve(n);
    }

    /// The radio environment this cluster runs in.
    pub fn env(&self) -> &RadioEnv {
        &self.env
    }

    /// Sets the worker count for the parallel lane-epoch engine: `1` (the
    /// default) runs every epoch inline on one worker, `0` means "one
    /// worker per hardware thread", anything else is taken literally.
    ///
    /// The engine executes node-local timestamp batches concurrently —
    /// partitioned by home node, effects buffered per worker and committed
    /// in canonical batch order — so the trace digest is bit-identical for
    /// every worker count (see the executor comment below). `ph-harness`
    /// enforces this with digest-equality tests and `ci.sh` gates on it.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// The configured epoch-engine worker count (see [`Cluster::set_threads`]).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Adds a device with a default [`DaemonConfig`] and the given
    /// application. When the cluster is already running, the device boots at
    /// the current virtual time (churn arrivals).
    pub fn add_node(&mut self, builder: NodeBuilder, app: A) -> NodeId {
        self.add_node_with(builder, |c| c, app)
    }

    /// Adds a device, letting `configure` adjust its daemon configuration.
    pub fn add_node_with(
        &mut self,
        builder: NodeBuilder,
        configure: impl FnOnce(DaemonConfig) -> DaemonConfig,
        app: A,
    ) -> NodeId {
        let id = self.world.add_node(builder);
        let info = DeviceInfo::new(
            DeviceId::new(id.index() as u64),
            self.world.name(id),
            self.world.technologies(id).iter().copied(),
        );
        let config = configure(DaemonConfig::new(info.clone()));
        let actor_id = self.trace.intern_actor(self.world.name(id));
        let lane_seed = id.index() as u64;
        self.infos.push(info);
        self.actor_ids.push(actor_id);
        self.nodes.push(NodeRt {
            daemon: Daemon::new(config),
            app,
            lib: Library::new(),
            wakes: WakeSet::default(),
            rng: SimRng::lane(self.seed, lane_seed),
            fault: None,
            down: false,
        });
        if self.started {
            let now = self.queue.now();
            self.schedule_ev(now, Ev::Start(id));
        }
        id
    }

    /// Boots every device (schedules their start at the current time).
    /// Call once after adding the initial nodes.
    pub fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let now = self.queue.now();
        for id in 0..self.nodes.len() {
            self.schedule_ev(now, Ev::Start(NodeId::from_index(id)));
        }
        let crashes = self.env.faults().crashes().to_vec();
        for cw in crashes {
            let node = NodeId::from_index(cw.node as usize);
            let down = cw.down_from.max(now);
            let up = cw.up_at.max(down);
            self.schedule_ev(down, Ev::CrashStart(node));
            self.schedule_ev(up, Ev::CrashEnd(node));
        }
    }

    /// The event lane owning `node`'s home region. Out-of-range ids (crash
    /// windows can name nodes that were never added) fall back to lane 0 —
    /// harmless, since lane choice is unobservable.
    fn home_lane(&self, node: NodeId) -> usize {
        if node.index() < self.world.len() {
            self.queue.route(self.world.region_of(node))
        } else {
            0
        }
    }

    /// Schedules `ev` on the lane owning its target node's region.
    fn schedule_ev(&mut self, at: SimTime, ev: Ev) {
        let lane = self.home_lane(ev_target(&ev));
        self.queue.schedule(lane, at, ev);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The world map (positions, mobility, range queries).
    pub fn world_mut(&mut self) -> &mut World {
        &mut self.world
    }

    /// The device name of a node.
    pub fn name(&self, node: NodeId) -> &str {
        &self.infos[node.index()].name
    }

    /// The [`DeviceId`] of a node (stable mapping from the world index).
    pub fn device_id(&self, node: NodeId) -> DeviceId {
        DeviceId::new(node.index() as u64)
    }

    /// The node hosting a [`DeviceId`].
    pub fn node_of(&self, device: DeviceId) -> NodeId {
        NodeId::from_index(device.raw() as usize)
    }

    /// Read access to a node's application.
    pub fn app(&self, node: NodeId) -> &A {
        &self.nodes[node.index()].app
    }

    /// Read access to a node's daemon (neighbor table, registry — for tests
    /// and diagnostics).
    pub fn daemon(&self, node: NodeId) -> &Daemon {
        &self.nodes[node.index()].daemon
    }

    /// The message-sequence trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the trace, so harnesses can fold app-level
    /// counters (e.g. per-node gossip stats) into [`TraceStats`] before
    /// computing the run digest.
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }

    /// The always-on run counters (trace events, frames, inquiries,
    /// connects, handovers).
    pub fn stats(&self) -> &TraceStats {
        self.trace.stats()
    }

    /// Bounds the trace's event ring to `capacity` retained events; the
    /// [`TraceStats`] counters keep exact aggregate counts regardless.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace.set_capacity(capacity);
    }

    /// Clears the message-sequence trace (e.g. between measured operations),
    /// keeping the configured capacity bound. Counters reset too.
    pub fn clear_trace(&mut self) {
        let cap = self.trace.capacity();
        self.trace = if cap == usize::MAX {
            Trace::new()
        } else {
            Trace::with_capacity(cap)
        };
        // Re-interning in node order reassigns the same handles, but refresh
        // the stored ids anyway so they can never drift from the pool.
        for (info, slot) in self.infos.iter().zip(self.actor_ids.iter_mut()) {
            *slot = self.trace.intern_actor(&info.name);
        }
    }

    /// The accumulated [`run_until`](Cluster::run_until) phase breakdown.
    pub fn timing(&self) -> &EpochTiming {
        &self.timing
    }

    /// Enables (or disables) wall-clock sampling for [`EpochTiming`]. Off
    /// by default; the batch/event counters are maintained regardless.
    pub fn set_collect_timing(&mut self, on: bool) {
        self.collect_timing = on;
    }

    /// Number of scheduled events not yet delivered — the queue's live
    /// footprint, reported so scale benches can watch memory pressure.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Processes events until `stop` returns `true` (checked after each
    /// event) or `deadline` passes. Returns the time at which `stop` first
    /// held, if it did.
    pub fn run_until_condition(
        &mut self,
        deadline: SimTime,
        mut stop: impl FnMut(&Self) -> bool,
    ) -> Option<SimTime> {
        if stop(self) {
            return Some(self.now());
        }
        while self.queue.peek_time().is_some_and(|t| t <= deadline) {
            let (t, ev) = self.queue.pop().expect("peeked");
            self.solo(|w| w.run_ev(0, ev));
            if stop(self) {
                return Some(t);
            }
        }
        self.queue.advance_to(deadline);
        None
    }

    /// Runs `f` against a node's application at the current virtual time —
    /// the hook through which scenarios script "user" actions. Any PeerHood
    /// requests or timers the application issues are processed immediately.
    pub fn with_app<R>(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut AppCtx<'_>) -> R) -> R {
        self.solo(|w| w.app_callback(node, f))
    }
}

// ----------------------------------------------------------------------
// The executor
// ----------------------------------------------------------------------
//
// Every event runs through one executor, `EpochWorker`: a `&mut` range of
// node runtimes and a link table, frozen shared state (world positions
// pinned by `EpochView`, identity snapshots, the trace's string pool), and
// an `EpochOutbox` that buffers every externally visible effect — event
// schedules, trace records, stat deltas. The commit replays outboxes into
// the queue and the trace in canonical `(time, seq)` batch order, which
// reproduces the global sequence numbers, pool intern order, ring eviction
// and counters of executing the events one by one.
//
// One timestamp batch from `RegionLanes::drain_batch` is one *epoch*: every
// event in it was already pending when the batch was staged, so nothing a
// handler does during the epoch can inject work into it (same-timestamp
// reschedules land in a *later* batch by global sequence number — the
// queue's documented contract). A batch runs in one of two shapes:
//
// - One worker over the whole node table, holding the cluster's link
//   table, executes the batch in order. Ineligible batches, single-event
//   batches and batches too small to split take this shape. So do
//   `run_until_condition` and `with_app`, which commit after every event:
//   they are the per-event reference the differential tests compare the
//   batched engine against.
// - N workers over disjoint node ranges. Only batches whose every event is
//   node-local under an empty link table are eligible (discovery, timers,
//   service discovery). Their handlers read only frozen shared state and
//   mutate their own node's runtime, so the nodes execute concurrently,
//   each worker holding an empty link table of its own. Workers execute
//   their events in batch order and the commit k-way merges their outboxes
//   back into it.
//
// The trace digest is therefore bit-identical for any worker count, lane
// count and fault plan; `ci.sh` and the differential tests enforce that.
//
// Fault decisions draw from the charged node's own fault lane only.
// `SimRng::chance` consumes nothing for zero probabilities, so with an
// inert plan they are no-ops and the digest matches a fault-free run
// bit-for-bit. Frame loss and link kills charge the *receiver*, connection
// refusals the *initiator*.

/// A batch event tagged with its home node and batch position.
type Tagged = (u32, u32, Ev);

/// Buffered effects of one executor, replayed serially at commit.
#[derive(Default)]
struct EpochOutbox {
    /// Events to schedule, in execution order.
    schedules: Vec<(SimTime, Ev)>,
    /// Trace records against the frozen pool, in execution order.
    records: Vec<PendingRecord>,
    /// One entry per executed event: `(batch_idx, schedules-end,
    /// records-end)` — cumulative ends delimiting that event's effects.
    spans: Vec<(u32, u32, u32)>,
    /// Commutative counter deltas. The record-owned counters
    /// (`events_recorded`/`events_dropped`/`messages`/`local_events`) stay
    /// zero here — the record replay accounts them.
    stats: TraceStats,
}

/// The executor: a `&mut` range of node runtimes and a link table, shared
/// frozen state, and the outbox collecting effects.
struct EpochWorker<'a, A> {
    view: EpochView<'a>,
    env: &'a RadioEnv,
    infos: &'a [DeviceInfo],
    actor_ids: &'a [ActorId],
    trace: &'a Trace,
    seed: u64,
    now: SimTime,
    /// First node index of this worker's range.
    base: usize,
    nodes: &'a mut [NodeRt<A>],
    /// The cluster's table for the one-worker shape; an empty table of the
    /// worker's own for the N-worker shape.
    links: &'a mut LinkTable,
    out: &'a mut EpochOutbox,
    /// Reused gather buffer for [`EpochView::neighbors`].
    scratch: Vec<u32>,
}

impl<'a, A: Application> EpochWorker<'a, A> {
    fn rt(&mut self, node: NodeId) -> &mut NodeRt<A> {
        &mut self.nodes[node.index() - self.base]
    }

    /// Executes one event and closes its effect span.
    fn run_ev(&mut self, batch_idx: u32, ev: Ev) {
        self.dispatch(ev);
        self.out.spans.push((
            batch_idx,
            self.out.schedules.len() as u32,
            self.out.records.len() as u32,
        ));
    }

    fn dispatch(&mut self, ev: Ev) {
        let now = self.now;
        match ev {
            Ev::Start(node) => {
                self.app_callback(node, |app, ctx| app.on_start(ctx));
                self.feed_daemon(node, DaemonInput::Tick);
            }
            Ev::DaemonWake(node) => {
                self.rt(node).wakes.remove(now);
                self.feed_daemon(node, DaemonInput::Tick);
            }
            Ev::AppTimer(node, token) => {
                self.app_callback(node, |app, ctx| app.on_timer(token, ctx));
            }
            Ev::InquiryFound {
                seeker,
                tech,
                found,
            } => {
                // The responder must still be in range when its answer lands.
                if self.view.reachable(seeker, found, tech) {
                    self.out.stats.inquiry_responses += 1;
                    let device = self.infos[found.index()].clone();
                    self.feed_daemon(
                        seeker,
                        DaemonInput::Plugin(PluginEvent::InquiryResponse {
                            technology: tech,
                            device,
                        }),
                    );
                }
            }
            Ev::InquiryDone { node, tech } => {
                self.feed_daemon(
                    node,
                    DaemonInput::Plugin(PluginEvent::InquiryComplete { technology: tech }),
                );
            }
            Ev::ServiceQueryArrive { to, from, tech } => {
                if self.frame_lost(to, tech) {
                    self.out.stats.frames_dropped += 1;
                } else {
                    let device = DeviceId::new(from.index() as u64);
                    self.feed_daemon(
                        to,
                        DaemonInput::Plugin(PluginEvent::ServiceQuery { device }),
                    );
                }
            }
            Ev::ServiceReplyArrive {
                to,
                from,
                services,
                tech,
            } => {
                if tech.is_some_and(|tech| self.frame_lost(to, tech)) {
                    self.out.stats.frames_dropped += 1;
                } else {
                    let device = DeviceId::new(from.index() as u64);
                    self.feed_daemon(
                        to,
                        DaemonInput::Plugin(PluginEvent::ServiceReply { device, services }),
                    );
                }
            }
            Ev::ConnectSetupDone {
                initiator,
                attempt,
                target,
                service,
                tech,
                resume,
            } => {
                let failure = if !self.view.reachable(initiator, target, tech) {
                    // The peer moved away while setup was in flight: a
                    // failed connect like any other, plus its own counter
                    // so summaries can tell it apart from refusals.
                    self.out.stats.connects_lost_setup += 1;
                    Some(format!("{tech} peer out of range during setup"))
                } else if self.rt(target).down {
                    // The target's daemon is inside a crash window: nobody
                    // is listening, so the transport reports a refusal.
                    Some(format!("{tech} peer daemon not responding"))
                } else {
                    None
                };
                if let Some(reason) = failure {
                    self.out.stats.connects_failed += 1;
                    self.feed_daemon(
                        initiator,
                        DaemonInput::Plugin(PluginEvent::ConnectResult {
                            attempt,
                            result: Err(reason),
                        }),
                    );
                    return;
                }
                let link = LinkId::new(self.links.next);
                self.links.next += 1;
                self.links.map.insert(
                    link,
                    Link {
                        a: initiator,
                        b: target,
                        tech,
                        pending: Some((initiator, attempt)),
                        last_arrival_to_a: now,
                        last_arrival_to_b: now,
                        degraded_notified: false,
                    },
                );
                let device = self.infos[initiator.index()].clone();
                self.feed_daemon(
                    target,
                    DaemonInput::Plugin(PluginEvent::IncomingConnection {
                        link,
                        device,
                        service,
                        technology: tech,
                        resume,
                    }),
                );
            }
            Ev::ConnectResultArrive {
                to,
                attempt,
                result,
            } => {
                if result.is_ok() {
                    self.out.stats.connects_ok += 1;
                } else {
                    self.out.stats.connects_failed += 1;
                }
                self.feed_daemon(
                    to,
                    DaemonInput::Plugin(PluginEvent::ConnectResult { attempt, result }),
                );
            }
            Ev::FrameArrive { to, link, payload } => {
                // The link may have been torn down while the frame was in
                // flight, and frames toward a crashed daemon fall on the
                // floor.
                let Some((a, b, tech)) = self.links.map.get(&link).map(|l| (l.a, l.b, l.tech))
                else {
                    self.out.stats.frames_dropped += 1;
                    return;
                };
                if self.rt(to).down || self.frame_lost(to, tech) {
                    self.out.stats.frames_dropped += 1;
                    return;
                }
                if self.link_killed(to, tech) || !self.view.reachable(a, b, tech) {
                    self.out.stats.frames_dropped += 1;
                    self.tear_down_link(link);
                    return;
                }
                self.out.stats.frames_delivered += 1;
                self.out.stats.bytes_delivered += payload.len() as u64;
                self.feed_daemon(
                    to,
                    DaemonInput::Plugin(PluginEvent::Frame { link, payload }),
                );
            }
            Ev::PeerClosedArrive { to, link } => {
                self.feed_daemon(to, DaemonInput::Plugin(PluginEvent::PeerClosed { link }));
            }
            Ev::LinkDownArrive { to, link } => {
                self.feed_daemon(to, DaemonInput::Plugin(PluginEvent::LinkDown { link }));
            }
            Ev::CrashStart(node) => {
                // Crash windows may name nodes that were never added; crash
                // events always run on the one-worker shape, whose range is
                // the whole node table.
                if node.index() >= self.nodes.len()
                    || std::mem::replace(&mut self.rt(node).down, true)
                {
                    return;
                }
                // Every radio link with an endpoint on the node dies; peers
                // notice after the usual transport detection delay.
                let dead: Vec<LinkId> = self
                    .links
                    .map
                    .iter()
                    .filter(|(_, l)| l.a == node || l.b == node)
                    .map(|(id, _)| *id)
                    .collect();
                for link in dead {
                    self.tear_down_link(link);
                }
                // The daemon process restarts from empty soft state; the
                // local application sees its connections close. Any requests
                // it issues in response are lost — the daemon is down.
                let mut outs = Vec::new();
                self.rt(node).daemon.crash_restart(now, &mut outs);
                let mut discarded = VecDeque::new();
                for out in outs {
                    if let DaemonOutput::App(ev) = out {
                        self.deliver_app_event(node, ev, &mut discarded);
                    }
                }
            }
            Ev::CrashEnd(node) => {
                if node.index() < self.nodes.len() && std::mem::take(&mut self.rt(node).down) {
                    self.feed_daemon(node, DaemonInput::Tick);
                }
            }
        }
    }

    /// Runs an application callback with a buffered trace sink and
    /// schedules the timers it set.
    fn in_app<R>(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut AppCtx<'_>) -> R) -> R {
        let mut timers = Vec::new();
        let rt = &mut self.nodes[node.index() - self.base];
        let mut ctx = AppCtx::with_sink(
            self.now,
            &self.infos[node.index()].name,
            &mut rt.lib,
            &mut timers,
            TraceSink::Buffer {
                trace: self.trace,
                actor_id: self.actor_ids[node.index()],
                out: &mut self.out.records,
            },
        );
        let result = f(&mut rt.app, &mut ctx);
        for (at, token) in timers {
            self.out.schedules.push((at, Ev::AppTimer(node, token)));
        }
        result
    }

    /// Runs an application callback, then feeds its queued requests to the
    /// daemon.
    fn app_callback<R>(&mut self, node: NodeId, f: impl FnOnce(&mut A, &mut AppCtx<'_>) -> R) -> R {
        let result = self.in_app(node, f);
        for req in self.rt(node).lib.drain() {
            self.feed_daemon(node, DaemonInput::App(req));
        }
        result
    }

    /// Runs the daemon input loop: daemon outputs may produce app events,
    /// whose handlers may queue further daemon requests, and so on until
    /// quiescent.
    fn feed_daemon(&mut self, node: NodeId, input: DaemonInput) {
        let mut work: VecDeque<(NodeId, DaemonInput)> = VecDeque::new();
        work.push_back((node, input));
        while let Some((n, input)) = work.pop_front() {
            let now = self.now;
            let rt = self.rt(n);
            if rt.down {
                // Crashed daemons consume nothing until their restart.
                continue;
            }
            let mut outs = Vec::new();
            let before = *rt.daemon.recovery_stats();
            rt.daemon.handle(now, input, &mut outs);
            let after = *rt.daemon.recovery_stats();
            if after != before {
                let stats = &mut self.out.stats;
                stats.retries += after.retries - before.retries;
                stats.timeouts += after.timeouts - before.timeouts;
                stats.gave_up += after.gave_up - before.gave_up;
                stats.resumed += after.resumed - before.resumed;
            }
            for out in outs {
                match out {
                    DaemonOutput::Plugin(cmd) => self.exec_command(n, cmd),
                    DaemonOutput::App(ev) => self.deliver_app_event(n, ev, &mut work),
                    DaemonOutput::WakeAt(t) => self.schedule_wake(n, t),
                }
            }
        }
    }

    fn deliver_app_event(
        &mut self,
        node: NodeId,
        event: AppEvent,
        work: &mut VecDeque<(NodeId, DaemonInput)>,
    ) {
        if matches!(event, AppEvent::Handover { .. }) {
            self.out.stats.handovers += 1;
        }
        self.in_app(node, |app, ctx| app.on_event(event, ctx));
        for req in self.rt(node).lib.drain() {
            work.push_back((node, DaemonInput::App(req)));
        }
    }

    fn schedule_wake(&mut self, node: NodeId, at: SimTime) {
        let at = at.max(self.now);
        if self.rt(node).wakes.insert(at) {
            self.out.schedules.push((at, Ev::DaemonWake(node)));
        }
    }

    /// Advances the receiving node's per-technology Gilbert channel and
    /// samples one frame. An inert profile draws nothing, so it also skips
    /// materializing the node's lazy fault state.
    fn frame_lost(&mut self, to: NodeId, tech: Technology) -> bool {
        let profile = *self.env.faults().profile(tech);
        if profile.is_inert() {
            return false;
        }
        let seed = self.seed;
        let f = self.rt(to).fault(seed, to);
        profile.frame_lost(&mut f.burst[tech_slot(tech)], &mut f.rng)
    }

    /// Samples whether the whole link dies under this frame (charged to the
    /// receiver's fault lane).
    fn link_killed(&mut self, to: NodeId, tech: Technology) -> bool {
        let p = self.env.faults().profile(tech).link_kill;
        let seed = self.seed;
        // `chance(0)` draws nothing — don't materialize fault state for it.
        p > 0.0 && self.rt(to).fault(seed, to).rng.chance(p)
    }

    /// Samples whether a connection attempt is refused outright (charged to
    /// the initiator's fault lane).
    fn connect_refused(&mut self, initiator: NodeId, tech: Technology) -> bool {
        let p = self.env.faults().profile(tech).connect_refuse;
        let seed = self.seed;
        p > 0.0 && self.rt(initiator).fault(seed, initiator).rng.chance(p)
    }

    /// Reports a lost radio link to both endpoints after the transport's
    /// detection delay and forgets it.
    fn tear_down_link(&mut self, link: LinkId) {
        if let Some(l) = self.links.map.remove(&link) {
            let at = self.now + LINK_DOWN_DETECT;
            self.out
                .schedules
                .push((at, Ev::LinkDownArrive { to: l.a, link }));
            self.out
                .schedules
                .push((at, Ev::LinkDownArrive { to: l.b, link }));
        }
    }

    /// Executes one daemon command: the simulated BT/WLAN/GPRS plugins.
    fn exec_command(&mut self, node: NodeId, cmd: PluginCommand) {
        let now = self.now;
        match cmd {
            PluginCommand::StartInquiry { technology } => {
                self.out.stats.inquiries += 1;
                // One range query against the epoch's frozen positions;
                // every responder is then scheduled off this snapshot, with
                // all draws from the seeker's own lane.
                let mut scratch = std::mem::take(&mut self.scratch);
                let neighbors = self.view.neighbors(node, technology, &mut scratch);
                self.scratch = scratch;
                let profile = self.env.profile(technology);
                for nb in neighbors {
                    let rng = &mut self.rt(node).rng;
                    if profile.discovery_misses(rng) {
                        continue;
                    }
                    let offset = profile.response_offset(rng);
                    self.out.schedules.push((
                        now + offset,
                        Ev::InquiryFound {
                            seeker: node,
                            tech: technology,
                            found: nb,
                        },
                    ));
                }
                self.out.schedules.push((
                    now + profile.inquiry_duration,
                    Ev::InquiryDone {
                        node,
                        tech: technology,
                    },
                ));
            }
            PluginCommand::QueryServices { device, technology } => {
                self.out.stats.service_queries += 1;
                let target = NodeId::from_index(device.raw() as usize);
                if self.view.reachable(node, target, technology) {
                    let delay = self
                        .env
                        .profile(technology)
                        .transfer_time(SDP_QUERY_BYTES, &mut self.rt(node).rng);
                    self.out.schedules.push((
                        now + delay,
                        Ev::ServiceQueryArrive {
                            to: target,
                            from: node,
                            tech: technology,
                        },
                    ));
                } else {
                    // Unanswerable: deliver an empty reply after a timeout
                    // so pending application requests resolve.
                    self.out.schedules.push((
                        now + SDP_TIMEOUT,
                        Ev::ServiceReplyArrive {
                            to: node,
                            from: target,
                            services: Vec::new(),
                            tech: None,
                        },
                    ));
                }
            }
            PluginCommand::ServiceQueryReply { device, services } => {
                let target = NodeId::from_index(device.raw() as usize);
                // Route the reply back over the cheapest shared technology.
                let tech = Technology::ALL
                    .into_iter()
                    .find(|&t| self.view.reachable(node, target, t));
                if let Some(tech) = tech {
                    let bytes = SDP_QUERY_BYTES + SDP_RECORD_BYTES * services.len();
                    let delay = self
                        .env
                        .profile(tech)
                        .transfer_time(bytes, &mut self.rt(node).rng);
                    self.out.schedules.push((
                        now + delay,
                        Ev::ServiceReplyArrive {
                            to: target,
                            from: node,
                            services,
                            tech: Some(tech),
                        },
                    ));
                }
            }
            PluginCommand::OpenConnection {
                attempt,
                device,
                service,
                technology,
                resume,
            } => {
                self.out.stats.connects_attempted += 1;
                let target = NodeId::from_index(device.raw() as usize);
                // The setup delay is drawn from the main stream *before* the
                // refusal decision, so an inert fault plan leaves the main
                // stream untouched.
                let delay = self
                    .env
                    .profile(technology)
                    .connect_time(&mut self.rt(node).rng);
                let ev = if self.connect_refused(node, technology) {
                    Ev::ConnectResultArrive {
                        to: node,
                        attempt,
                        result: Err(format!("{technology} connection refused")),
                    }
                } else if self.view.reachable(node, target, technology) {
                    Ev::ConnectSetupDone {
                        initiator: node,
                        attempt,
                        target,
                        service,
                        tech: technology,
                        resume,
                    }
                } else {
                    // A failed paging attempt costs about the setup time.
                    Ev::ConnectResultArrive {
                        to: node,
                        attempt,
                        result: Err(format!("{technology} peer out of range")),
                    }
                };
                self.out.schedules.push((now + delay, ev));
            }
            PluginCommand::AcceptConnection { link } => {
                let Some(l) = self.links.map.get_mut(&link) else {
                    return;
                };
                if let Some((initiator, attempt)) = l.pending.take() {
                    let tech = l.tech;
                    let delay = self
                        .env
                        .profile(tech)
                        .transfer_time(CTRL_BYTES, &mut self.rt(node).rng);
                    self.out.schedules.push((
                        now + delay,
                        Ev::ConnectResultArrive {
                            to: initiator,
                            attempt,
                            result: Ok(link),
                        },
                    ));
                }
            }
            PluginCommand::RejectConnection { link, reason } => {
                let Some(l) = self.links.map.remove(&link) else {
                    return;
                };
                if let Some((initiator, attempt)) = l.pending {
                    let delay = self
                        .env
                        .profile(l.tech)
                        .transfer_time(CTRL_BYTES, &mut self.rt(node).rng);
                    self.out.schedules.push((
                        now + delay,
                        Ev::ConnectResultArrive {
                            to: initiator,
                            attempt,
                            result: Err(reason),
                        },
                    ));
                }
            }
            PluginCommand::SendFrame { link, payload } => {
                let Some(l) = self.links.map.get_mut(&link) else {
                    return;
                };
                let (a, b, tech) = (l.a, l.b, l.tech);
                let peer = l.other(node);
                let rng = &mut self.nodes[node.index() - self.base].rng;
                let delay = self.env.profile(tech).transfer_time(payload.len(), rng);
                let at = l.fifo_arrival(peer, now + delay);
                self.out.stats.frames_sent += 1;
                self.out.stats.bytes_sent += payload.len() as u64;
                if !self.view.reachable(a, b, tech) {
                    self.out.stats.frames_dropped += 1;
                    self.tear_down_link(link);
                    return;
                }
                self.out.schedules.push((
                    at,
                    Ev::FrameArrive {
                        to: peer,
                        link,
                        payload,
                    },
                ));
                // Edge-of-range warning: past 90 % of the radio range the
                // plugin reports a weakening link (once), letting the
                // daemon hand over make-before-break.
                let range = self.env.profile(tech).range_m;
                if range.is_finite() {
                    let distance = self.view.position(a).distance(self.view.position(b));
                    let near_edge = distance > 0.9 * range;
                    let notify = near_edge && !l.degraded_notified;
                    l.degraded_notified = near_edge;
                    if notify {
                        self.feed_daemon(
                            node,
                            DaemonInput::Plugin(PluginEvent::LinkDegraded { link }),
                        );
                    }
                }
            }
            PluginCommand::CloseLink { link } => {
                let Some(mut l) = self.links.map.remove(&link) else {
                    return;
                };
                let peer = l.other(node);
                let delay = self
                    .env
                    .profile(l.tech)
                    .transfer_time(CTRL_BYTES, &mut self.rt(node).rng);
                // The orderly close must not overtake in-flight frames.
                let at = l.fifo_arrival(peer, now + delay);
                self.out
                    .schedules
                    .push((at, Ev::PeerClosedArrive { to: peer, link }));
            }
        }
    }
}

impl<A: Application> Cluster<A> {
    /// Runs `exec` on the one-worker executor at the current instant and
    /// commits its effects.
    fn solo<R>(&mut self, exec: impl FnOnce(&mut EpochWorker<'_, A>) -> R) -> R {
        let (result, boxes) = self.execute_solo(self.queue.now(), exec);
        self.commit(boxes);
        result
    }

    /// Runs `exec` on one worker over the whole node table, holding the
    /// cluster's link table, and returns its result with the outbox to
    /// commit.
    fn execute_solo<R>(
        &mut self,
        t: SimTime,
        exec: impl FnOnce(&mut EpochWorker<'_, A>) -> R,
    ) -> (R, Vec<EpochOutbox>) {
        self.world.prepare_epoch(t);
        let mut boxes = std::mem::take(&mut self.outboxes);
        boxes.resize_with(1, EpochOutbox::default);
        let result = exec(&mut EpochWorker {
            view: self.world.epoch_view(t),
            env: &self.env,
            infos: &self.infos,
            actor_ids: &self.actor_ids,
            trace: &self.trace,
            seed: self.seed,
            now: t,
            base: 0,
            nodes: &mut self.nodes,
            links: &mut self.links,
            out: &mut boxes[0],
            scratch: Vec::new(),
        });
        (result, boxes)
    }

    /// Replays executor outboxes in canonical batch order, then keeps the
    /// first (emptied) for reuse.
    fn commit(&mut self, mut boxes: Vec<EpochOutbox>) {
        if let [out] = boxes.as_mut_slice() {
            // One worker executed its events in order: its effects already
            // are canonical.
            for (at, ev) in out.schedules.drain(..) {
                self.schedule_ev(at, ev);
            }
            for record in out.records.drain(..) {
                record.replay(&mut self.trace);
            }
        } else {
            self.merge_outboxes(&mut boxes);
        }
        for b in &mut boxes {
            self.trace.stats_mut().add(&std::mem::take(&mut b.stats));
            b.spans.clear();
        }
        boxes.truncate(1);
        self.outboxes = boxes;
    }

    /// The N-worker commit. Each worker's spans carry ascending batch
    /// indices, so a k-way merge over the workers visits events in exactly
    /// batch order. Replaying schedules reproduces the global sequence
    /// numbers; replaying records reproduces pool interning and ring
    /// eviction.
    fn merge_outboxes(&mut self, boxes: &mut [EpochOutbox]) {
        for b in boxes.iter_mut() {
            b.schedules.reverse();
            b.records.reverse();
        }
        let mut span_cur = vec![0usize; boxes.len()];
        let mut sched_done = vec![0u32; boxes.len()];
        let mut rec_done = vec![0u32; boxes.len()];
        loop {
            let mut best: Option<(u32, usize)> = None;
            for (w, &c) in span_cur.iter().enumerate() {
                if c < boxes[w].spans.len() {
                    let bi = boxes[w].spans[c].0;
                    if best.is_none_or(|(bb, _)| bi < bb) {
                        best = Some((bi, w));
                    }
                }
            }
            let Some((_, w)) = best else {
                break;
            };
            let (_, s_end, r_end) = boxes[w].spans[span_cur[w]];
            span_cur[w] += 1;
            while sched_done[w] < s_end {
                let (at, ev) = boxes[w].schedules.pop().expect("span bookkeeping");
                self.schedule_ev(at, ev);
                sched_done[w] += 1;
            }
            while rec_done[w] < r_end {
                boxes[w]
                    .records
                    .pop()
                    .expect("span bookkeeping")
                    .replay(&mut self.trace);
                rec_done[w] += 1;
            }
        }
    }
}

impl<A: Application + Send> Cluster<A> {
    /// Processes events until the queue is exhausted or the next event is
    /// after `deadline`; the clock then stands at `deadline`.
    ///
    /// Events are drained one timestamp batch at a time. Batches whose
    /// events are all node-local (see the executor comment above) fan out
    /// over the configured workers; everything else runs on one worker
    /// holding the link table. Both shapes produce bit-identical traces, so
    /// the digest is independent of [`Cluster::set_threads`].
    pub fn run_until(&mut self, deadline: SimTime) {
        let mut batch = std::mem::take(&mut self.batch_buf);
        loop {
            let t0 = self.collect_timing.then(Instant::now);
            let drained = self.queue.drain_batch(deadline, &mut batch);
            if let Some(t0) = t0 {
                self.timing.drain += t0.elapsed();
            }
            let Some(t) = drained else {
                break;
            };
            self.run_batch(t, &mut batch);
        }
        self.batch_buf = batch;
        self.queue.advance_to(deadline);
    }

    /// Runs for `d` of virtual time from the current instant.
    pub fn run_for(&mut self, d: Duration) {
        let deadline = self.now() + d;
        self.run_until(deadline);
    }

    /// Whether every event in the batch is node-local under an empty link
    /// table — the precondition for concurrent execution.
    fn batch_eligible(&self, batch: &[Ev]) -> bool {
        self.links.map.is_empty()
            && batch.iter().all(|ev| {
                matches!(
                    ev,
                    Ev::Start(_)
                        | Ev::DaemonWake(_)
                        | Ev::AppTimer(..)
                        | Ev::InquiryFound { .. }
                        | Ev::InquiryDone { .. }
                        | Ev::ServiceQueryArrive { .. }
                        | Ev::ServiceReplyArrive { .. }
                )
            })
    }

    /// Executes one timestamp batch — on one worker, or on N workers over
    /// disjoint node ranges when it is eligible and large enough — and
    /// commits its effects in canonical batch order.
    fn run_batch(&mut self, t: SimTime, batch: &mut Vec<Ev>) {
        let workers = if batch.len() >= 2 && self.batch_eligible(batch) {
            self.timing.par_batches += 1;
            self.timing.par_events += batch.len() as u64;
            netsim::par::effective_threads(self.threads)
                .min(batch.len().div_ceil(EPOCH_MIN_EVENTS_PER_WORKER))
        } else {
            self.timing.serial_batches += 1;
            self.timing.serial_events += batch.len() as u64;
            1
        };
        let split = (workers > 1).then(|| self.partition(t, batch, workers));

        let te = self.collect_timing.then(Instant::now);
        let boxes = match split {
            None => {
                let events = batch.drain(..).zip(0u32..);
                self.execute_solo(t, |w| events.for_each(|(ev, i)| w.run_ev(i, ev)))
                    .1
            }
            Some((bounds, parts)) => self.execute_parallel(t, &bounds, parts),
        };
        if let Some(te) = te {
            self.timing.execute += te.elapsed();
        }

        let tc = self.collect_timing.then(Instant::now);
        self.commit(boxes);
        if let Some(tc) = tc {
            self.timing.commit += tc.elapsed();
        }
    }

    /// The gather phase of an N-worker batch: tags each event with its
    /// (home node, batch position) and cuts the node table into at most
    /// `workers` node-aligned ranges balancing the event count. Returns
    /// the range bounds and each range's events.
    fn partition(
        &mut self,
        t: SimTime,
        batch: &mut Vec<Ev>,
        workers: usize,
    ) -> (Vec<usize>, Vec<Vec<Tagged>>) {
        let tg = self.collect_timing.then(Instant::now);
        self.world.prepare_epoch(t);
        // Sorting by (home node, batch position) groups events per node
        // while preserving per-node batch order, which is what keeps each
        // node's RNG/daemon stream exact.
        let mut tagged: Vec<Tagged> = batch
            .drain(..)
            .enumerate()
            .map(|(i, ev)| (ev_target(&ev).index() as u32, i as u32, ev))
            .collect();
        tagged.sort_unstable_by_key(|e| (e.0, e.1));
        // `bounds` partitions the node table, `ev_cuts` the tagged events.
        let mut bounds: Vec<usize> = vec![0];
        let mut ev_cuts: Vec<usize> = vec![0];
        let per = tagged.len().div_ceil(workers);
        let mut next_cut = per;
        for j in 1..tagged.len() {
            if j >= next_cut && tagged[j].0 != tagged[j - 1].0 && bounds.len() < workers {
                bounds.push(tagged[j].0 as usize);
                ev_cuts.push(j);
                next_cut = j + per;
            }
        }
        bounds.push(self.nodes.len());
        ev_cuts.push(tagged.len());
        // Split the tagged events into per-worker owned parts (the events
        // must move — their payloads are consumed by the handlers).
        let mut parts: Vec<Vec<Tagged>> = Vec::with_capacity(bounds.len() - 1);
        for w in (1..ev_cuts.len() - 1).rev() {
            parts.push(tagged.split_off(ev_cuts[w]));
        }
        parts.push(tagged);
        parts.reverse();
        if let Some(tg) = tg {
            self.timing.gather += tg.elapsed();
        }
        (bounds, parts)
    }

    /// Runs one scoped worker per node range, each over its own events.
    fn execute_parallel(
        &mut self,
        t: SimTime,
        bounds: &[usize],
        parts: Vec<Vec<Tagged>>,
    ) -> Vec<EpochOutbox> {
        let view = self.world.epoch_view(t);
        let env = &self.env;
        let infos = &self.infos;
        let actor_ids = &self.actor_ids;
        let trace = &self.trace;
        let seed = self.seed;
        netsim::par::map_chunks_mut_with(
            &mut self.nodes,
            bounds,
            parts,
            |_ci, base, chunk, mut part| {
                // Execute in original batch order, not the node-grouped
                // order the partitioning sort left behind: batch indices
                // are unique and per-node ascending, so this preserves
                // every node's exact stream while making the worker's
                // outbox spans ascend in batch index — the invariant the
                // commit merge relies on.
                part.sort_unstable_by_key(|e| e.1);
                let mut links = LinkTable::default();
                let mut out = EpochOutbox::default();
                let mut w = EpochWorker {
                    view,
                    env,
                    infos,
                    actor_ids,
                    trace,
                    seed,
                    now: t,
                    base,
                    nodes: chunk,
                    links: &mut links,
                    out: &mut out,
                    scratch: Vec::new(),
                };
                for (_, batch_idx, ev) in part {
                    w.run_ev(batch_idx, ev);
                }
                debug_assert!(links.map.is_empty(), "an eligible batch opened a link");
                out
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::geometry::Point2;
    use netsim::mobility::ScriptedPath;

    /// Records everything that happens to it; scripts nothing.
    #[derive(Default)]
    struct Recorder {
        appeared: Vec<String>,
        disappeared: Vec<String>,
        service_lists: Vec<(DeviceId, Vec<String>)>,
        connected: Vec<crate::types::ConnId>,
        incoming: Vec<crate::types::ConnId>,
        data: Vec<Bytes>,
        closed: Vec<crate::types::CloseReason>,
        handover: Vec<(Technology, Technology)>,
        register_community: bool,
        /// Peers to dial every 5 s from t = 15 s; while dialing, a frame
        /// goes out on every connection each 500 ms, until t = 45 s.
        dial: Vec<DeviceId>,
    }

    impl Application for Recorder {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            if self.register_community {
                ctx.peerhood()
                    .register_service(ServiceInfo::new("PeerHoodCommunity"));
            }
            if !self.dial.is_empty() {
                ctx.set_timer(Duration::from_secs(15), 0);
            }
        }

        fn on_timer(&mut self, tick: u64, ctx: &mut AppCtx<'_>) {
            if tick.is_multiple_of(10) {
                for &peer in &self.dial {
                    ctx.peerhood().connect(peer, "PeerHoodCommunity");
                }
            }
            for &conn in &self.connected {
                ctx.peerhood().send(conn, Bytes::from_static(b"chunk"));
            }
            if tick < 60 {
                ctx.set_timer(Duration::from_millis(500), tick + 1);
            }
        }

        fn on_event(&mut self, event: AppEvent, _ctx: &mut AppCtx<'_>) {
            match event {
                AppEvent::DeviceAppeared(i) => self.appeared.push(i.name.to_string()),
                AppEvent::DeviceDisappeared(i) => self.disappeared.push(i.name.to_string()),
                AppEvent::ServiceList {
                    device, services, ..
                } => self.service_lists.push((
                    device,
                    services.iter().map(|s| s.name().to_owned()).collect(),
                )),
                AppEvent::Connected { conn, .. } => self.connected.push(conn),
                AppEvent::Incoming { conn, .. } => self.incoming.push(conn),
                AppEvent::Data { payload, .. } => self.data.push(payload),
                AppEvent::Closed { reason, .. } => self.closed.push(reason),
                AppEvent::Handover { from, to, .. } => self.handover.push((from, to)),
                _ => {}
            }
        }
    }

    fn recorder(register: bool) -> Recorder {
        Recorder {
            register_community: register,
            ..Recorder::default()
        }
    }

    #[test]
    fn discovery_within_one_bluetooth_inquiry() {
        let mut c = Cluster::new(1);
        let a = c.add_node(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("bob").at(Point2::new(4.0, 0.0)),
            recorder(false),
        );
        c.start();
        c.run_until(SimTime::from_secs(12));
        assert!(c.app(a).appeared.contains(&"bob".to_owned()));
        assert!(c.app(b).appeared.contains(&"alice".to_owned()));
        assert!(c.daemon(a).neighbors().contains(c.device_id(b)));
    }

    #[test]
    fn out_of_range_devices_are_not_discovered_over_bluetooth() {
        let mut c = Cluster::new(1);
        let a = c.add_node(
            NodeBuilder::new("alice")
                .at(Point2::new(0.0, 0.0))
                .with_technologies([Technology::Bluetooth]),
            recorder(false),
        );
        let _b = c.add_node(
            NodeBuilder::new("bob")
                .at(Point2::new(500.0, 0.0))
                .with_technologies([Technology::Bluetooth]),
            recorder(false),
        );
        c.start();
        c.run_until(SimTime::from_secs(60));
        assert!(c.app(a).appeared.is_empty());
    }

    #[test]
    fn auto_service_discovery_populates_cache() {
        let mut c = Cluster::new(2);
        let a = c.add_node(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("bob").at(Point2::new(4.0, 0.0)),
            recorder(true),
        );
        c.start();
        c.run_until(SimTime::from_secs(15));
        let entry = c
            .daemon(a)
            .neighbors()
            .get(c.device_id(b))
            .expect("bob known");
        let (_, services) = entry.services.as_ref().expect("services cached");
        assert_eq!(services[0].name(), "PeerHoodCommunity");
    }

    #[test]
    fn connect_send_receive_close_round_trip() {
        let mut c = Cluster::new(3);
        let a = c.add_node(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("bob").at(Point2::new(4.0, 0.0)),
            recorder(true),
        );
        c.start();
        c.run_until(SimTime::from_secs(15));

        let bob = c.device_id(b);
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "PeerHoodCommunity"));
        c.run_until(SimTime::from_secs(20));
        assert_eq!(c.app(a).connected.len(), 1, "connect should succeed");
        assert_eq!(c.app(b).incoming.len(), 1);

        let conn = c.app(a).connected[0];
        c.with_app(a, |_, ctx| {
            ctx.peerhood().send(conn, Bytes::from_static(b"ping"))
        });
        c.run_until(SimTime::from_secs(21));
        assert_eq!(c.app(b).data, vec![Bytes::from_static(b"ping")]);

        c.with_app(a, |_, ctx| ctx.peerhood().close(conn));
        c.run_until(SimTime::from_secs(22));
        assert!(c
            .app(b)
            .closed
            .contains(&crate::types::CloseReason::PeerClose));
    }

    #[test]
    fn connect_to_unregistered_service_fails() {
        let mut c = Cluster::new(4);
        let a = c.add_node(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("bob").at(Point2::new(4.0, 0.0)),
            recorder(false),
        );
        c.start();
        c.run_until(SimTime::from_secs(15));
        let bob = c.device_id(b);
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "Nothing"));
        c.run_until(SimTime::from_secs(25));
        assert!(c.app(a).connected.is_empty());
    }

    #[test]
    fn departure_is_noticed_after_ttl() {
        let mut c = Cluster::new(5);
        let ttl = Duration::from_secs(30);
        let a = c.add_node_with(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            |cfg| cfg.with_neighbor_ttl(ttl),
            recorder(false),
        );
        // Bob walks away after 40 s (Bluetooth-only so he truly vanishes).
        let _b = c.add_node(
            NodeBuilder::new("bob")
                .moving(ScriptedPath::new(vec![
                    (SimTime::from_secs(0), Point2::new(4.0, 0.0)),
                    (SimTime::from_secs(40), Point2::new(4.0, 0.0)),
                    (SimTime::from_secs(60), Point2::new(800.0, 0.0)),
                ]))
                .with_technologies([Technology::Bluetooth]),
            recorder(false),
        );
        c.start();
        c.run_until(SimTime::from_secs(40));
        assert!(c.app(a).appeared.contains(&"bob".to_owned()));
        c.run_until(SimTime::from_secs(120));
        assert!(
            c.app(a).disappeared.contains(&"bob".to_owned()),
            "disappearance must be reported after TTL"
        );
    }

    #[test]
    fn seamless_handover_from_bluetooth_to_wlan() {
        let mut c = Cluster::new(6);
        let a = c.add_node(
            NodeBuilder::new("alice")
                .at(Point2::new(0.0, 0.0))
                .with_technologies([Technology::Bluetooth, Technology::Wlan]),
            recorder(false),
        );
        // Bob starts 4 m away (BT range) and at t=30 s walks to 40 m
        // (outside BT, inside WLAN).
        let b = c.add_node(
            NodeBuilder::new("bob")
                .moving(ScriptedPath::new(vec![
                    (SimTime::from_secs(0), Point2::new(4.0, 0.0)),
                    (SimTime::from_secs(30), Point2::new(4.0, 0.0)),
                    (SimTime::from_secs(45), Point2::new(40.0, 0.0)),
                ]))
                .with_technologies([Technology::Bluetooth, Technology::Wlan]),
            recorder(true),
        );
        c.start();
        c.run_until(SimTime::from_secs(20));
        let bob = c.device_id(b);
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "PeerHoodCommunity"));
        c.run_until(SimTime::from_secs(25));
        assert_eq!(c.app(a).connected.len(), 1, "initial BT connect");
        let conn = c.app(a).connected[0];

        // Keep the connection chatty so the link loss is noticed: send a
        // frame every 2 s from t=26 on.
        for t in (26..70).step_by(2) {
            c.run_until(SimTime::from_secs(t));
            c.with_app(a, |_, ctx| {
                ctx.peerhood().send(conn, Bytes::from_static(b"chunk"))
            });
        }
        c.run_until(SimTime::from_secs(80));
        assert!(
            c.app(a)
                .handover
                .contains(&(Technology::Bluetooth, Technology::Wlan)),
            "initiator should hand over: {:?}",
            c.app(a).handover
        );
        assert!(
            c.app(b)
                .handover
                .contains(&(Technology::Bluetooth, Technology::Wlan)),
            "responder should rebind: {:?}",
            c.app(b).handover
        );
        assert!(c.app(a).closed.is_empty(), "connection must survive");
        // Frames kept flowing after the handover.
        assert!(c.app(b).data.len() >= 20, "got {}", c.app(b).data.len());
    }

    #[test]
    fn proactive_handover_fires_before_the_link_breaks() {
        // Bob walks slowly from 4 m to 14 m: the link degrades past 9 m
        // (90 % of Bluetooth range) well before it breaks at 10 m, so the
        // connection migrates to WLAN with zero frame loss and no
        // LinkDown-induced closure.
        let mut c = Cluster::new(33);
        let a = c.add_node(
            NodeBuilder::new("alice")
                .at(Point2::new(0.0, 0.0))
                .with_technologies([Technology::Bluetooth, Technology::Wlan]),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("bob")
                .moving(ScriptedPath::new(vec![
                    (SimTime::from_secs(0), Point2::new(4.0, 0.0)),
                    (SimTime::from_secs(30), Point2::new(4.0, 0.0)),
                    (SimTime::from_secs(130), Point2::new(14.0, 0.0)),
                ]))
                .with_technologies([Technology::Bluetooth, Technology::Wlan]),
            recorder(true),
        );
        c.start();
        c.run_until(SimTime::from_secs(20));
        let bob = c.device_id(b);
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "PeerHoodCommunity"));
        c.run_until(SimTime::from_secs(25));
        assert_eq!(c.app(a).connected.len(), 1);
        let conn = c.app(a).connected[0];

        const CHUNKS: usize = 50;
        for i in 0..CHUNKS {
            c.run_until(SimTime::from_secs(26 + 2 * i as u64));
            c.with_app(a, |_, ctx| {
                ctx.peerhood().send(conn, Bytes::from_static(b"chunk"))
            });
        }
        c.run_until(SimTime::from_secs(140));
        assert!(
            c.app(a)
                .handover
                .contains(&(Technology::Bluetooth, Technology::Wlan)),
            "handover should have happened: {:?}",
            c.app(a).handover
        );
        assert!(c.app(a).closed.is_empty(), "connection never closed");
        assert_eq!(
            c.app(b).data.len(),
            CHUNKS,
            "make-before-break loses no frames"
        );
    }

    #[test]
    fn connections_prefer_bluetooth_over_wlan_over_gprs() {
        // Both peers carry all three radios and sit 3 m apart: the daemon
        // must pick Bluetooth (the cheapest) for the connection.
        let mut c = Cluster::new(21);
        let a = c.add_node(
            NodeBuilder::new("a").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("b").at(Point2::new(3.0, 0.0)),
            recorder(true),
        );
        c.start();
        c.run_until(SimTime::from_secs(15));
        let bob = c.device_id(b);
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "PeerHoodCommunity"));
        c.run_until(SimTime::from_secs(20));
        assert_eq!(c.app(a).connected.len(), 1);
        // The neighbor entry confirms Bluetooth visibility was preferred.
        let entry = c.daemon(a).neighbors().get(bob).expect("known");
        assert_eq!(entry.preferred_technology(), Some(Technology::Bluetooth));
    }

    #[test]
    fn distant_peers_connect_over_gprs_only() {
        // 5 km apart: Bluetooth and WLAN are out; GPRS still carries the
        // connection through the operator proxy.
        let mut c = Cluster::new(22);
        let a = c.add_node(
            NodeBuilder::new("a").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("b").at(Point2::new(5_000.0, 0.0)),
            recorder(true),
        );
        c.start();
        c.run_until(SimTime::from_secs(40));
        let bob = c.device_id(b);
        let entry = c.daemon(a).neighbors().get(bob).expect("GPRS-visible");
        assert_eq!(entry.visible_technologies(), vec![Technology::Gprs]);
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "PeerHoodCommunity"));
        c.run_until(SimTime::from_secs(50));
        assert_eq!(c.app(a).connected.len(), 1, "GPRS connection established");
    }

    #[test]
    fn runs_are_deterministic() {
        fn run() -> (Vec<String>, usize) {
            let mut c = Cluster::new(77);
            let a = c.add_node(
                NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
                recorder(false),
            );
            let _b = c.add_node(
                NodeBuilder::new("bob").at(Point2::new(4.0, 0.0)),
                recorder(true),
            );
            let _d = c.add_node(
                NodeBuilder::new("carol").at(Point2::new(0.0, 5.0)),
                recorder(true),
            );
            c.start();
            c.run_until(SimTime::from_secs(30));
            (c.app(a).appeared.clone(), c.trace().len())
        }
        assert_eq!(run(), run());
    }

    #[test]
    fn late_node_boots_when_added_after_start() {
        let mut c = Cluster::new(8);
        let a = c.add_node(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        c.start();
        c.run_until(SimTime::from_secs(30));
        assert!(c.app(a).appeared.is_empty());
        let _late = c.add_node(
            NodeBuilder::new("late").at(Point2::new(3.0, 0.0)),
            recorder(false),
        );
        c.run_until(SimTime::from_secs(60));
        assert!(c.app(a).appeared.contains(&"late".to_owned()));
    }

    #[test]
    fn stats_count_discovery_connects_and_frames() {
        let mut c = Cluster::new(3);
        let a = c.add_node(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("bob").at(Point2::new(4.0, 0.0)),
            recorder(true),
        );
        c.start();
        c.run_until(SimTime::from_secs(15));
        let bob = c.device_id(b);
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "PeerHoodCommunity"));
        c.run_until(SimTime::from_secs(20));
        let conn = c.app(a).connected[0];
        c.with_app(a, |_, ctx| {
            ctx.peerhood().send(conn, Bytes::from_static(b"ping"))
        });
        c.run_until(SimTime::from_secs(21));
        let stats = c.stats();
        assert!(stats.inquiries >= 2, "both nodes inquire: {stats}");
        assert!(stats.inquiry_responses >= 2, "{stats}");
        assert!(stats.connects_attempted >= 1, "{stats}");
        assert!(stats.connects_ok >= 1, "{stats}");
        assert!(stats.frames_sent >= 1, "{stats}");
        assert_eq!(stats.frames_dropped, 0, "{stats}");
        assert!(stats.bytes_delivered >= 4, "{stats}");
    }

    #[test]
    fn bounded_trace_keeps_counters_exact() {
        let mut c = Cluster::new(3);
        let a = c.add_node(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        c.set_trace_capacity(1);
        c.with_app(a, |_, ctx| {
            ctx.trace_local("ONE");
            ctx.trace_local("TWO");
            ctx.trace_local("THREE");
        });
        assert_eq!(c.trace().len(), 1);
        assert_eq!(c.trace().labels(), vec!["THREE"]);
        assert_eq!(c.stats().events_recorded, 3);
        assert_eq!(c.stats().events_dropped, 2);
        // clear_trace keeps the bound but resets contents.
        c.clear_trace();
        assert!(c.trace().is_empty());
        assert_eq!(c.trace().capacity(), 1);
    }

    #[test]
    fn run_until_condition_reports_first_hit() {
        let mut c = Cluster::new(9);
        let a = c.add_node(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        let _b = c.add_node(
            NodeBuilder::new("bob").at(Point2::new(4.0, 0.0)),
            recorder(false),
        );
        c.start();
        let hit = c.run_until_condition(SimTime::from_secs(60), |c| !c.app(a).appeared.is_empty());
        let t = hit.expect("bob should appear within a minute");
        assert!(t <= SimTime::from_millis(10_240 + 500), "found at {t}");
    }

    // ------------------------------------------------------------------
    // Fault injection and recovery
    // ------------------------------------------------------------------

    use crate::config::RecoveryPolicy;
    use netsim::{FaultPlan, FaultProfile};

    #[test]
    fn inert_fault_plan_reproduces_fault_free_digest() {
        fn run(env: Option<RadioEnv>) -> (u64, u64) {
            let mut c = match env {
                Some(env) => Cluster::with_env(77, env),
                None => Cluster::new(77),
            };
            for i in 0..6u32 {
                c.add_node(
                    NodeBuilder::new(format!("n{i}")).at(Point2::new(4.0 * f64::from(i), 0.0)),
                    recorder(i % 2 == 0),
                );
            }
            c.start();
            c.run_until(SimTime::from_secs(60));
            (c.trace().digest(), c.stats().digest())
        }
        let plain = run(None);
        // An explicitly attached all-zero plan draws no randomness anywhere.
        let inert = run(Some(RadioEnv::default().with_faults(FaultPlan::none())));
        assert_eq!(plain, inert);
    }

    #[test]
    fn certain_connect_refusal_is_retried_then_given_up() {
        let plan = FaultPlan::none().with_profile(
            Technology::Bluetooth,
            FaultProfile {
                connect_refuse: 1.0,
                ..FaultProfile::NONE
            },
        );
        let mut c = Cluster::with_env(8, RadioEnv::default().with_faults(plan));
        let a = c.add_node_with(
            NodeBuilder::new("alice")
                .at(Point2::new(0.0, 0.0))
                .with_technologies([Technology::Bluetooth]),
            |cfg| cfg.with_recovery(RecoveryPolicy::default()),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("bob")
                .at(Point2::new(4.0, 0.0))
                .with_technologies([Technology::Bluetooth]),
            recorder(true),
        );
        c.start();
        c.run_until(SimTime::from_secs(15));
        let bob = c.device_id(b);
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "PeerHoodCommunity"));
        // Default policy: 3 retries at 0.5/1/2 s backoff, then give up.
        c.run_until(SimTime::from_secs(60));
        assert!(c.app(a).connected.is_empty(), "every attempt is refused");
        let stats = c.stats();
        assert!(stats.retries >= 1, "refusals must be retried: {stats}");
        assert!(stats.gave_up >= 1, "exhaustion must be recorded: {stats}");
    }

    #[test]
    fn lost_service_queries_time_out_and_answer_empty() {
        let plan = FaultPlan::none().with_profile(
            Technology::Bluetooth,
            FaultProfile {
                frame_loss: 1.0,
                ..FaultProfile::NONE
            },
        );
        let mut c = Cluster::with_env(11, RadioEnv::default().with_faults(plan));
        let a = c.add_node_with(
            NodeBuilder::new("alice")
                .at(Point2::new(0.0, 0.0))
                .with_technologies([Technology::Bluetooth]),
            |cfg| cfg.with_recovery(RecoveryPolicy::default()),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("bob")
                .at(Point2::new(4.0, 0.0))
                .with_technologies([Technology::Bluetooth]),
            recorder(true),
        );
        c.start();
        // Inquiry is radio-level, so bob is still discovered; every SDP
        // frame is lost, so his services can never be learned.
        c.run_until(SimTime::from_secs(15));
        let bob = c.device_id(b);
        c.with_app(a, |_, ctx| ctx.peerhood().request_service_list(bob));
        c.run_until(SimTime::from_secs(60));
        let lists = &c.app(a).service_lists;
        assert!(
            lists.iter().any(|(d, s)| *d == bob && s.is_empty()),
            "the query must resolve (empty) instead of hanging: {lists:?}"
        );
        let stats = c.stats();
        assert!(stats.timeouts >= 1, "query deadlines must fire: {stats}");
        assert!(stats.gave_up >= 1, "query retries must exhaust: {stats}");
    }

    #[test]
    fn crash_window_tears_links_and_restart_heals() {
        let plan = FaultPlan::none().with_crash(
            1, // bob, the second node added below
            Duration::from_secs(20),
            Duration::from_secs(10),
        );
        let mut c = Cluster::with_env(12, RadioEnv::default().with_faults(plan));
        let a = c.add_node(
            NodeBuilder::new("alice").at(Point2::new(0.0, 0.0)),
            recorder(false),
        );
        let b = c.add_node(
            NodeBuilder::new("bob").at(Point2::new(4.0, 0.0)),
            recorder(true),
        );
        c.start();
        c.run_until(SimTime::from_secs(15));
        let bob = c.device_id(b);
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "PeerHoodCommunity"));
        c.run_until(SimTime::from_secs(18));
        assert_eq!(c.app(a).connected.len(), 1, "pre-crash connect works");
        // Bob's daemon dies at t=20 s; the connection cannot survive (the
        // handover target is the same dead daemon).
        c.run_until(SimTime::from_secs(29));
        assert!(
            !c.app(a).closed.is_empty(),
            "the crash must close alice's connection"
        );
        // After the restart at t=30 s the service registry survives and a
        // fresh connect succeeds.
        c.run_until(SimTime::from_secs(55));
        c.with_app(a, |_, ctx| ctx.peerhood().connect(bob, "PeerHoodCommunity"));
        c.run_until(SimTime::from_secs(70));
        assert_eq!(c.app(a).connected.len(), 2, "post-restart connect works");
    }

    /// Pins the link arms no committed report digest covers — connect
    /// refusal, mid-flight link kill, and a crash window over an open link
    /// — to recorded constants. The batched engine and the per-event
    /// reference must both reproduce them.
    #[test]
    fn link_faults_and_crash_over_open_link_are_pinned() {
        fn run(per_event: bool) -> (u64, TraceStats, [usize; 3]) {
            let plan = FaultPlan::none()
                .with_profile(
                    Technology::Bluetooth,
                    FaultProfile {
                        frame_loss: 0.05,
                        connect_refuse: 0.4,
                        link_kill: 0.05,
                        ..FaultProfile::NONE
                    },
                )
                .with_crash(1, Duration::from_secs(24), Duration::from_secs(6));
            let mut c = Cluster::with_env(2026, RadioEnv::default().with_faults(plan));
            let nodes: Vec<NodeId> = (0..4u32)
                .map(|i| {
                    let mut app = recorder(i > 0);
                    // Node 0 drives the traffic from its own timers.
                    if i == 0 {
                        app.dial = (1..4).map(DeviceId::new).collect();
                    }
                    c.add_node_with(
                        NodeBuilder::new(format!("n{i}"))
                            .at(Point2::new(2.0 * f64::from(i), 0.0))
                            .with_technologies([Technology::Bluetooth]),
                        |cfg| cfg.with_recovery(RecoveryPolicy::default()),
                        app,
                    )
                })
                .collect();
            c.start();
            let deadline = SimTime::from_secs(60);
            if per_event {
                c.run_until_condition(deadline, |_| false);
            } else {
                c.run_until(deadline);
            }
            let received: usize = nodes.iter().map(|&n| c.app(n).data.len()).sum();
            let dialer = c.app(nodes[0]);
            let counts = [dialer.connected.len(), dialer.closed.len(), received];
            (c.trace().digest(), *c.stats(), counts)
        }

        let (digest, stats, counts) = run(false);
        assert!(stats.connects_failed > 0, "refusals must fire: {stats}");
        assert!(stats.frames_dropped > 0, "frames must be lost: {stats}");
        assert!(counts[1] > 0, "kills and the crash must close links");
        assert_eq!(format!("{digest:016x}"), "60c2c3fe08b0ef42");
        assert_eq!(format!("{:016x}", stats.digest()), "bb040c08f09bb257");
        assert_eq!(
            (
                stats.connects_ok,
                stats.connects_failed,
                stats.frames_dropped
            ),
            (20, 13, 27)
        );
        assert_eq!(counts, [20, 350, 165]);
        assert_eq!(run(true), (digest, stats, counts));
    }
}
