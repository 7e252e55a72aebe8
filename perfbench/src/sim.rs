//! The simulator workloads: `crowd` and `bubbles`.
//!
//! Both run the deterministic `peerhood::sim` engine at two workers.
//! A run is a sequence of *passes* over the same seed:
//!
//! * an **observe** pass at one worker with every app wrapped in a
//!   [`Probe`] (untimed), giving the sim-time latencies and the reference
//!   digest — a wrapped app that changed behaviour, or a worker count
//!   that did, would show as a digest mismatch;
//! * **bare** passes through the public `harness::{crowd,bubbles}::build`,
//!   timed from outside, until `--seconds` have been measured;
//! * with `--trace 1`, **traced** passes (timed probes, engine phase
//!   timing on) alternate with bare ones, so the per-layer split and the
//!   tracing overhead come from the same stretch of the run.
//!
//! Every pass must reproduce the observe digest, or the run reports no
//! number.

use std::collections::BTreeSet;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use codec::json::Json;
use codec::Bytes;
use community::node::{CommunityApp, RetryPolicy};
use community::profile::Profile;
use harness::bubbles::{BubblesConfig, BLOB_NAME, SHARED_INTEREST};
use harness::crowd::{CrowdApp, CrowdConfig};
use harness::scenario::fault_profile;
use netsim::geometry::{Point2, Rect};
use netsim::mobility::{RandomWaypoint, ScriptedPath};
use netsim::world::{NodeBuilder, NodeId};
use netsim::{RadioEnv, SimRng, SimTime, Technology, TraceStats};
use peerhood::sim::{Cluster, EpochTiming};
use peerhood::{Application, GossipStats, RecoveryPolicy};

use crate::host::HostSpeed;
use crate::probe::{redecode, Probe, ProbeStats};
use crate::report::{peak_rss_mb, Outcome, SETUP_SAMPLES};
use crate::stats::{median, quantile, tail_q};

/// Epoch-engine workers of the measured passes (the reference host has
/// two cores).
const THREADS: usize = 2;
/// Bubbles lower bound on delivery; below it the run is wrong, not slow.
const MIN_DELIVERY: f64 = 0.95;
/// `harness::crowd`'s pedestrian walk (private there; mirrored so the
/// probed crowd is the same crowd — the observe digest proves it).
const CROWD_SPEED_MPS: (f64, f64) = (0.5, 2.0);
const CROWD_PAUSE: (Duration, Duration) = (Duration::ZERO, Duration::from_secs(20));
/// `harness::bubbles`' ferry speed, mirrored likewise.
const FERRY_SPEED_MPS: f64 = 1.5;
/// Timed passes run to their horizon in this many virtual-time steps,
/// so the host-speed reference can be sampled between them.
const STEPS: u32 = 100;
/// Host time of measured work between two reference samples: samples
/// spread over the whole pass see the host the work saw.
const SAMPLE_EVERY: Duration = Duration::from_millis(20);
/// Reference samples a set-up child takes right before its build.
const SETUP_REFERENCE_SAMPLES: u32 = 3;

/// Size of the `crowd` workload.
#[derive(Clone, Copy, Debug)]
pub struct CrowdSize {
    /// Devices on the campus.
    pub nodes: usize,
    /// Virtual duration of each pass.
    pub horizon: Duration,
}

impl CrowdSize {
    /// The benchmark's crowd: 30,000 nodes for 30 s of virtual time.
    pub const FULL: CrowdSize = CrowdSize {
        nodes: 30_000,
        horizon: Duration::from_secs(30),
    };
}

/// Size of the `bubbles` workload.
#[derive(Clone, Copy, Debug)]
pub struct BubblesSize {
    /// Disjoint radio bubbles.
    pub bubbles: usize,
    /// Members per bubble.
    pub per_bubble: usize,
    /// Ferries bridging the bubbles.
    pub ferries: usize,
    /// Virtual duration of each scenario.
    pub horizon: Duration,
    /// Independent scenarios (sub-seeds) per pass; their statistics are
    /// pooled, so one seed's luck does not set the run's numbers.
    pub scenarios: usize,
}

impl BubblesSize {
    /// The benchmark's bubbles: 3 × 8 members + 2 ferries, lossy, 600 s.
    pub const FULL: BubblesSize = BubblesSize {
        bubbles: 3,
        per_bubble: 8,
        ferries: 2,
        horizon: Duration::from_secs(600),
        scenarios: 4,
    };
}

/// How a pass wraps and times the cluster.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Public harness build, bare apps, no timing: the measured pass.
    Bare,
    /// One worker, untimed probes: sim-time observations and the
    /// reference digest.
    Observe,
    /// Timed probes and engine phase timing: the per-layer split.
    Traced,
}

/// What one pass over one scenario measured.
#[derive(Default)]
pub struct Pass {
    run: Duration,
    digest: u64,
    timing: EpochTiming,
    stats: TraceStats,
    trace_mem: usize,
    query_us: f64,
    probe: ProbeStats,
    /// Discovery (crowd) or delivery (bubbles) latencies, sim ms.
    latencies_ms: Vec<f64>,
    /// Operations attempted / failed (bubbles: audience / undelivered).
    attempted: u64,
    failed: u64,
    converged: u64,
    members: u64,
    /// Reference samples taken between the steps of the timed run.
    host: HostSpeed,
    /// Run time of each scenario, in scenario order, raw and scaled to
    /// the reference speed (filled when passes are pooled), seconds.
    scenario_runs: Vec<f64>,
    scenario_scaled: Vec<f64>,
}

impl Pass {
    fn events(&self) -> u64 {
        self.timing.par_events + self.timing.serial_events
    }
}

/// Apps whose probe statistics a pass reads (none for bare apps), so one
/// post-run path serves bare and probed clusters.
trait Observed: Application + Send {
    fn probe_stats(&self) -> Option<&ProbeStats> {
        None
    }
}

impl Observed for CrowdApp {}

impl Observed for CommunityApp {}

impl<A: Application + Send> Observed for Probe<A> {
    fn probe_stats(&self) -> Option<&ProbeStats> {
        Some(self.stats())
    }
}

/// Access to the community app under an optional probe.
trait Community: Observed {
    fn community(&self) -> &CommunityApp;
    fn community_mut(&mut self) -> &mut CommunityApp;
}

impl Community for CommunityApp {
    fn community(&self) -> &CommunityApp {
        self
    }
    fn community_mut(&mut self) -> &mut CommunityApp {
        self
    }
}

impl Community for Probe<CommunityApp> {
    fn community(&self) -> &CommunityApp {
        &self.inner
    }
    fn community_mut(&mut self) -> &mut CommunityApp {
        &mut self.inner
    }
}

/// Runs `cluster` from its current instant to `deadline`, adding the
/// host time to `pass.run`. With a `step`, it runs in virtual-time steps
/// of that length and samples the host-speed reference whenever
/// [`SAMPLE_EVERY`] of work has run since the last sample; the samples
/// are not timed. The observe pass runs in one call, so the digest
/// check also shows that stepping changes nothing.
fn timed_run<A: Observed>(
    cluster: &mut Cluster<A>,
    deadline: SimTime,
    step: Option<Duration>,
    pass: &mut Pass,
) {
    let Some(step) = step else {
        let t0 = Instant::now();
        cluster.run_until(deadline);
        pass.run += t0.elapsed();
        return;
    };
    let mut since = Duration::ZERO;
    loop {
        let next = cluster.now().saturating_add(step).min(deadline);
        let t0 = Instant::now();
        cluster.run_until(next);
        let took = t0.elapsed();
        pass.run += took;
        since += took;
        if since >= SAMPLE_EVERY {
            pass.host.sample(1);
            since = Duration::ZERO;
        }
        if next >= deadline {
            break;
        }
    }
    if pass.host.samples() == 0 {
        pass.host.sample(1);
    }
}

/// The virtual-time step of a timed pass over `horizon`; `None` for the
/// observe pass, which runs unstepped and unsampled.
fn step(mode: Mode, horizon: Duration) -> Option<Duration> {
    (mode != Mode::Observe).then(|| horizon / STEPS)
}

/// The post-run readings every pass takes: digest, counters, trace
/// footprint and probe totals; traced passes also time one
/// `neighbors_any` query per node.
fn finish<A: Observed>(cluster: &mut Cluster<A>, nodes: usize, mode: Mode, pass: &mut Pass) {
    pass.digest = cluster.trace().digest();
    pass.timing = *cluster.timing();
    pass.stats = *cluster.stats();
    pass.trace_mem = cluster.trace().approx_mem_bytes();
    for i in 0..nodes {
        if let Some(p) = cluster.app(NodeId::from_index(i)).probe_stats() {
            pass.probe.merge(p);
        }
    }
    if mode != Mode::Traced {
        return;
    }
    let now = cluster.now();
    let world = cluster.world_mut();
    let t0 = Instant::now();
    let mut found = 0usize;
    for i in 0..nodes {
        found += world.neighbors_any(NodeId::from_index(i), now).len();
    }
    pass.query_us = t0.elapsed().as_secs_f64() * 1e6 / nodes.max(1) as f64;
    std::hint::black_box(found);
}

fn crowd_config(seed: u64, size: &CrowdSize, threads: usize) -> CrowdConfig {
    CrowdConfig {
        seed,
        nodes: size.nodes,
        horizon: size.horizon,
        compare_naive: false,
        threads,
        ..CrowdConfig::default()
    }
}

/// `harness::crowd::build` with every app wrapped in a [`Probe`].
fn build_probed_crowd(config: &CrowdConfig, timed: bool) -> Cluster<Probe<CrowdApp>> {
    let side = config.world_side_m();
    let campus = Rect::sized(side, side);
    let mut rng = SimRng::from_seed(config.seed);
    let mut placement = rng.fork(1);
    let mut cluster = Cluster::with_env(config.seed, RadioEnv::default());
    cluster.reserve_nodes(config.nodes);
    for i in 0..config.nodes {
        let start = Point2::new(
            placement.range_f64(campus.min.x..campus.max.x),
            placement.range_f64(campus.min.y..campus.max.y),
        );
        let walk = RandomWaypoint::new(
            campus,
            start,
            CROWD_SPEED_MPS,
            CROWD_PAUSE,
            placement.fork(i as u64),
        );
        let mut techs = vec![Technology::Bluetooth];
        if config.wlan_every > 0 && i % config.wlan_every == 0 {
            techs.push(Technology::Wlan);
        }
        let builder = NodeBuilder::new(format!("p{i}"))
            .with_technologies(techs)
            .moving(walk);
        cluster.add_node_with(
            builder,
            |c| c.with_auto_service_discovery(false),
            Probe::new(CrowdApp::default(), timed),
        );
    }
    cluster.set_trace_capacity(config.trace_capacity);
    cluster.set_threads(config.threads);
    cluster.start();
    cluster
}

fn crowd_pass(seed: u64, size: &CrowdSize, mode: Mode) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let deadline = SimTime::ZERO.saturating_add(size.horizon);
    if mode == Mode::Bare {
        let config = crowd_config(seed, size, THREADS);
        let mut s = harness::crowd::build(&config).map_err(|e| e.to_string())?;
        timed_run(
            &mut s.cluster,
            deadline,
            step(mode, size.horizon),
            &mut pass,
        );
        finish(&mut s.cluster, size.nodes, mode, &mut pass);
        return Ok(pass);
    }
    let threads = if mode == Mode::Observe { 1 } else { THREADS };
    let config = crowd_config(seed, size, threads);
    config.validate().map_err(|e| e.to_string())?;
    let mut cluster = build_probed_crowd(&config, mode == Mode::Traced);
    cluster.set_collect_timing(mode == Mode::Traced);
    timed_run(&mut cluster, deadline, step(mode, size.horizon), &mut pass);
    finish(&mut cluster, size.nodes, mode, &mut pass);
    for i in 0..size.nodes {
        if let Some(at) = cluster.app(NodeId::from_index(i)).first_seen() {
            pass.latencies_ms.push(at.as_micros() as f64 / 1e3);
        }
    }
    pass.attempted = size.nodes as u64;
    Ok(pass)
}

fn bubbles_config(seed: u64, size: &BubblesSize, threads: usize) -> BubblesConfig {
    BubblesConfig {
        seed,
        bubbles: size.bubbles,
        nodes_per_bubble: size.per_bubble,
        ferries: size.ferries,
        horizon: size.horizon,
        threads,
        faults: fault_profile("lossy").expect("lossy is a named fault profile"),
        ..BubblesConfig::default()
    }
}

fn bubble_centre(i: usize, spacing_m: f64) -> Point2 {
    Point2::new(i as f64 * spacing_m, 0.0)
}

/// `harness::bubbles`' ferry bounce, mirrored for the probed build.
fn ferry_path(f: usize, config: &BubblesConfig) -> ScriptedPath {
    let travel = Duration::from_secs_f64(config.spacing_m / FERRY_SPEED_MPS);
    let end = SimTime::ZERO
        .saturating_add(config.horizon)
        .saturating_add(travel);
    let mut idx = f % config.bubbles;
    let mut dir: isize = if f.is_multiple_of(2) { 1 } else { -1 };
    let mut t = SimTime::ZERO;
    let mut waypoints = vec![(t, bubble_centre(idx, config.spacing_m))];
    while t < end && config.bubbles > 1 {
        t = t.saturating_add(config.dwell);
        waypoints.push((t, bubble_centre(idx, config.spacing_m)));
        if idx == 0 {
            dir = 1;
        } else if idx == config.bubbles - 1 {
            dir = -1;
        }
        idx = (idx as isize + dir) as usize;
        t = t.saturating_add(travel);
        waypoints.push((t, bubble_centre(idx, config.spacing_m)));
    }
    ScriptedPath::new(waypoints)
}

/// `harness::bubbles::build` with every app wrapped in a [`Probe`];
/// returns the cluster and the member count (the origin is node 0).
fn build_probed_bubbles(config: &BubblesConfig, timed: bool) -> Cluster<Probe<CommunityApp>> {
    let mut cluster = Cluster::with_env(
        config.seed,
        RadioEnv::default().with_faults(config.faults.clone()),
    );
    let gossip = config.gossip.clone().rng_salt(config.seed);
    let faulted = !config.faults.is_inert();
    let mut add = |builder: NodeBuilder, name: &str, interest: &str| {
        let profile = Profile::new(name).with_interests([interest]);
        let mut app = CommunityApp::with_member(name, "pw", profile).with_gossip(gossip.clone());
        if faulted {
            app = app.with_fault_tolerance(RetryPolicy::default());
        }
        cluster.add_node_with(
            builder,
            |c| {
                if faulted {
                    c.with_recovery(RecoveryPolicy::default())
                } else {
                    c
                }
            },
            Probe::new(app, timed),
        );
    };
    for b in 0..config.bubbles {
        let centre = bubble_centre(b, config.spacing_m);
        for n in 0..config.nodes_per_bubble {
            let angle = n as f64 / config.nodes_per_bubble as f64 * std::f64::consts::TAU;
            let pos = Point2::new(centre.x + 3.0 * angle.cos(), centre.y + 3.0 * angle.sin());
            let name = format!("b{b}n{n}");
            let builder = NodeBuilder::new(format!("{name}-dev"))
                .at(pos)
                .with_technologies([Technology::Bluetooth]);
            add(builder, &name, SHARED_INTEREST);
        }
    }
    for f in 0..config.ferries {
        let name = format!("ferry{f}");
        let builder = NodeBuilder::new(format!("{name}-n810"))
            .moving(ferry_path(f, config))
            .with_technologies([Technology::Bluetooth]);
        add(builder, &name, "ferry-duty");
    }
    cluster.set_threads(config.threads);
    cluster.start();
    cluster
}

/// Publishes the blob at `publish_at`, runs to the horizon, and reads
/// delivery, convergence and the gossip counters (folded into the trace
/// stats before the digest, exactly as `harness::bubbles::run` does, so
/// digests compare with `repro bubbles`).
fn drive_bubbles<A: Community>(
    cluster: &mut Cluster<A>,
    config: &BubblesConfig,
    mode: Mode,
    pass: &mut Pass,
) {
    let members = config.bubbles * config.nodes_per_bubble;
    let nodes = members + config.ferries;
    let origin = NodeId::from_index(0);
    let publish_at = SimTime::ZERO.saturating_add(config.publish_at);
    let step = step(mode, config.horizon);
    timed_run(cluster, publish_at, step, pass);
    let payload = Bytes::from(vec![0x5A; config.blob_bytes]);
    cluster.with_app(origin, |app, ctx| {
        app.community_mut()
            .publish_blob(BLOB_NAME, payload, ctx)
            .expect("origin is logged in with gossip enabled")
    });
    timed_run(
        cluster,
        SimTime::ZERO.saturating_add(config.horizon),
        step,
        pass,
    );

    let names: BTreeSet<String> = (0..config.bubbles)
        .flat_map(|b| (0..config.nodes_per_bubble).map(move |n| format!("b{b}n{n}")))
        .collect();
    let mut gossip = GossipStats::default();
    for i in 0..nodes {
        let app = cluster.app(NodeId::from_index(i)).community();
        let rt = app.gossip().expect("gossip enabled");
        let st = rt.stats();
        gossip.eager += st.eager;
        gossip.lazy += st.lazy;
        gossip.graft += st.graft;
        gossip.prune += st.prune;
        gossip.duplicate += st.duplicate;
        if i >= members {
            continue;
        }
        if i != origin.index() {
            if let Some(d) = rt.blob_log().iter().find(|d| d.name == BLOB_NAME) {
                pass.latencies_ms
                    .push(d.at.saturating_since(publish_at).as_secs_f64() * 1e3);
            }
        }
        let full = app.groups().iter().any(|g| {
            g.key == SHARED_INTEREST.to_lowercase()
                && g.members.iter().cloned().collect::<BTreeSet<_>>() == names
        });
        pass.converged += u64::from(full);
    }
    let stats = cluster.trace_mut().stats_mut();
    stats.gossip_eager += gossip.eager;
    stats.gossip_lazy += gossip.lazy;
    stats.gossip_graft += gossip.graft;
    stats.gossip_prune += gossip.prune;
    stats.gossip_duplicate += gossip.duplicate;
    pass.members = members as u64;
    pass.attempted = members as u64 - 1;
    pass.failed = pass.attempted - pass.latencies_ms.len() as u64;
    finish(cluster, nodes, mode, pass);
}

fn bubbles_pass(seed: u64, size: &BubblesSize, mode: Mode) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let threads = if mode == Mode::Observe { 1 } else { THREADS };
    let config = bubbles_config(seed, size, threads);
    if mode == Mode::Bare {
        let mut s = harness::bubbles::build(&config).map_err(|e| e.to_string())?;
        drive_bubbles(&mut s.cluster, &config, mode, &mut pass);
    } else {
        config.validate().map_err(|e| e.to_string())?;
        let mut cluster = build_probed_bubbles(&config, mode == Mode::Traced);
        cluster.set_collect_timing(mode == Mode::Traced);
        drive_bubbles(&mut cluster, &config, mode, &mut pass);
    }
    Ok(pass)
}

/// Folds the passes over a run's scenarios into one: times and counts
/// add up, latencies pool, the per-query time is averaged.
fn pooled(passes: Vec<Pass>) -> Pass {
    let mut all = Pass::default();
    let n = passes.len().max(1) as f64;
    for p in passes {
        all.scenario_runs.push(p.run.as_secs_f64());
        all.scenario_scaled.push(p.host.scale(p.run.as_secs_f64()));
        all.host.merge(&p.host);
        all.run += p.run;
        add_timing(&mut all.timing, &p.timing);
        all.stats.add(&p.stats);
        all.trace_mem += p.trace_mem;
        all.query_us += p.query_us / n;
        all.probe.merge(&p.probe);
        all.latencies_ms.extend(p.latencies_ms);
        all.attempted += p.attempted;
        all.failed += p.failed;
        all.converged += p.converged;
        all.members += p.members;
    }
    all
}

fn add_timing(a: &mut EpochTiming, b: &EpochTiming) {
    a.drain += b.drain;
    a.gather += b.gather;
    a.execute += b.execute;
    a.commit += b.commit;
    a.par_batches += b.par_batches;
    a.par_events += b.par_events;
    a.serial_batches += b.serial_batches;
    a.serial_events += b.serial_events;
}

/// What the two sim workloads do differently.
pub trait SimWorkload {
    /// Scenario seeds of a run with master seed `seed`.
    fn seeds(&self, seed: u64) -> Vec<u64>;
    /// One pass over one scenario.
    fn pass(&self, seed: u64, mode: Mode) -> Result<Pass, String>;
    /// Host time of one public `harness` build of a scenario (the
    /// cluster is dropped untimed).
    fn build(&self, seed: u64) -> Result<Duration, String>;
    /// Output checks on the pooled observe pass.
    fn check(&self, observed: &Pass, out: &mut Outcome);
}

impl SimWorkload for CrowdSize {
    fn seeds(&self, seed: u64) -> Vec<u64> {
        vec![seed]
    }
    fn pass(&self, seed: u64, mode: Mode) -> Result<Pass, String> {
        crowd_pass(seed, self, mode)
    }
    fn build(&self, seed: u64) -> Result<Duration, String> {
        let config = crowd_config(seed, self, THREADS);
        let t0 = Instant::now();
        let built = harness::crowd::build(&config).map_err(|e| e.to_string())?;
        let took = t0.elapsed();
        drop(built);
        Ok(took)
    }
    fn check(&self, observed: &Pass, out: &mut Outcome) {
        out.check(!observed.latencies_ms.is_empty(), || {
            "no crowd node discovered a neighbor".into()
        });
    }
}

impl SimWorkload for BubblesSize {
    fn seeds(&self, seed: u64) -> Vec<u64> {
        let mut mix = codec::rng::SplitMix64::new(seed);
        (0..self.scenarios).map(|_| mix.next_u64()).collect()
    }
    fn pass(&self, seed: u64, mode: Mode) -> Result<Pass, String> {
        bubbles_pass(seed, self, mode)
    }
    fn build(&self, seed: u64) -> Result<Duration, String> {
        let config = bubbles_config(seed, self, THREADS);
        let t0 = Instant::now();
        let built = harness::bubbles::build(&config).map_err(|e| e.to_string())?;
        let took = t0.elapsed();
        drop(built);
        Ok(took)
    }
    fn check(&self, observed: &Pass, out: &mut Outcome) {
        let delivery = observed.latencies_ms.len() as f64 / observed.attempted.max(1) as f64;
        out.check(delivery >= MIN_DELIVERY, || {
            format!("bubbles delivery {delivery:.3} is below {MIN_DELIVERY}")
        });
    }
}

/// One pass per scenario, digests checked against `reference`.
fn pass_all(
    w: &dyn SimWorkload,
    seeds: &[u64],
    mode: Mode,
    reference: &[u64],
    out: &mut Outcome,
) -> Result<Pass, String> {
    let mut passes = Vec::with_capacity(seeds.len());
    for (k, &seed) in seeds.iter().enumerate() {
        let p = w.pass(seed, mode)?;
        out.check(p.digest == reference[k], || {
            format!(
                "{mode:?} pass digest {:016x} != observe digest {:016x} (scenario seed {seed})",
                p.digest, reference[k]
            )
        });
        passes.push(p);
    }
    Ok(pooled(passes))
}

/// Runs a sim workload for `seconds` of measurement. With `children`
/// (the workload's name on the command line), `setup_s` and
/// `peak_rss_mb` come from child processes, see [`setup_s`] and
/// [`child_peak_rss`]; without, from this process.
pub fn run(
    w: &dyn SimWorkload,
    seed: u64,
    seconds: f64,
    traced: bool,
    children: Option<&str>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let seeds = w.seeds(seed);

    // Observe pass first: sim-time observations and reference digests.
    let mut observes = Vec::new();
    for &s in &seeds {
        observes.push(w.pass(s, Mode::Observe)?);
    }
    let reference: Vec<u64> = observes.iter().map(|p| p.digest).collect();
    let observed = pooled(observes);
    w.check(&observed, &mut out);

    // One untimed bare pass: the first build after the observe pass pays
    // for growing the heap, which later passes reuse.
    pass_all(w, &seeds, Mode::Bare, &reference, &mut out)?;
    let mut bare = Vec::new();
    let mut probed: Vec<Pass> = Vec::new();
    let t0 = Instant::now();
    while bare.len() < 3 || (traced && probed.len() < 2) || t0.elapsed().as_secs_f64() < seconds {
        bare.push(pass_all(w, &seeds, Mode::Bare, &reference, &mut out)?);
        if traced {
            // Only the last traced pass's payload sample is re-decoded.
            if let Some(prev) = probed.last_mut() {
                prev.probe.payloads = Vec::new();
            }
            probed.push(pass_all(w, &seeds, Mode::Traced, &reference, &mut out)?);
        }
    }
    for p in &bare {
        out.check(p.events() == observed.events(), || {
            format!(
                "bare pass dispatched {} events, observe {}",
                p.events(),
                observed.events()
            )
        });
    }

    out.attempted = observed.attempted;
    out.failed = observed.failed;
    out.fact(
        "digests",
        Json::Arr(
            reference
                .iter()
                .map(|d| format!("{d:016x}").into())
                .collect(),
        ),
    );
    out.fact(
        "scenario_seeds",
        Json::Arr(seeds.iter().map(|s| s.to_string().into()).collect()),
    );
    out.fact("bare_passes", bare.len());
    out.fact("latency_samples", observed.latencies_ms.len());
    out.fact("events", observed.events());

    let run_med = summed_run_medians(&bare, |p| &p.scenario_scaled);
    let mut host = HostSpeed::default();
    for p in &bare {
        host.merge(&p.host);
    }
    out.fact("reference_ms", host.mean_ms().unwrap_or(0.0));
    out.fact("reference_samples", host.samples());
    out.fact("run_s_raw", summed_run_medians(&bare, |p| &p.scenario_runs));
    let per_pass = |runs: fn(&Pass) -> &Vec<f64>| {
        Json::Arr(
            bare.iter()
                .map(|p| Json::Arr(runs(p).iter().map(|&t| Json::Num(t)).collect()))
                .collect(),
        )
    };
    out.fact("pass_runs_raw", per_pass(|p| &p.scenario_runs));
    out.fact("pass_runs_scaled", per_pass(|p| &p.scenario_scaled));
    if traced {
        layer_metrics(&probed, &observed, run_med, &mut out)?;
        return Ok(out);
    }
    let (setup, setup_raw) = setup_s(w, &seeds, children)?;
    out.set("setup_s", setup);
    out.fact("setup_s_raw", setup_raw);
    out.set("run_s", run_med);
    out.set("events_per_s", observed.events() as f64 / run_med);
    let lat = &observed.latencies_ms;
    out.set("p50_ms", quantile(lat, 0.5).unwrap_or(0.0));
    out.set("p99_ms", quantile(lat, tail_q(lat.len())).unwrap_or(0.0));
    out.fact("tail_quantile", tail_q(lat.len()));
    let peak = match children {
        Some(workload) => child_peak_rss(workload, &seeds, &reference, &mut out)?,
        None => peak_rss_mb().ok_or("VmHWM is unavailable")?,
    };
    out.set("peak_rss_mb", peak);
    Ok(out)
}

/// Each scenario's median run time over `passes` (raw or scaled, as
/// `runs` picks), summed over the scenarios: a scenario's noise is
/// damped on its own before the sum. Seconds.
fn summed_run_medians(passes: &[Pass], runs: fn(&Pass) -> &Vec<f64>) -> f64 {
    let scenarios = passes.first().map_or(0, |p| runs(p).len());
    (0..scenarios)
        .map(|k| {
            let times: Vec<f64> = passes.iter().map(|p| runs(p)[k]).collect();
            median(&times).unwrap_or(0.0)
        })
        .sum()
}

/// `setup_s`: each scenario's median build time over [`SETUP_SAMPLES`]
/// builds, scaled to the reference speed, summed over the scenarios;
/// and the same unscaled. Seconds. With `children`, each build runs in a
/// fresh child process (`perfbench --workload <name> --setup-pass
/// <scenario seed>`, see [`setup_pass`]). Builds repeated in one process
/// ran in whatever heap the earlier ones left: on crowd some runs read
/// 0.040–0.046 s and others 0.059–0.081 s.
fn setup_s(
    w: &dyn SimWorkload,
    seeds: &[u64],
    children: Option<&str>,
) -> Result<(f64, f64), String> {
    let (mut scaled, mut raw) = (0.0, 0.0);
    for &seed in seeds {
        let builds = (0..SETUP_SAMPLES)
            .map(|_| match children {
                Some(workload) => {
                    let line = child_line(workload, "--setup-pass", seed)?;
                    let mut fields = line.split_whitespace().map(str::parse::<f64>);
                    match (fields.next(), fields.next()) {
                        (Some(Ok(raw)), Some(Ok(scaled))) => Ok((raw, scaled)),
                        _ => Err(format!("setup pass printed {line:?}")),
                    }
                }
                None => scaled_build(w, seed),
            })
            .collect::<Result<Vec<_>, _>>()?;
        raw += median(&builds.iter().map(|b| b.0).collect::<Vec<_>>()).unwrap_or(0.0);
        scaled += median(&builds.iter().map(|b| b.1).collect::<Vec<_>>()).unwrap_or(0.0);
    }
    Ok((scaled, raw))
}

/// One build of scenario `seed`, right after [`SETUP_REFERENCE_SAMPLES`]
/// reference samples: its host time raw and scaled, seconds.
fn scaled_build(w: &dyn SimWorkload, seed: u64) -> Result<(f64, f64), String> {
    let mut host = HostSpeed::default();
    host.sample(SETUP_REFERENCE_SAMPLES);
    let raw = w.build(seed)?.as_secs_f64();
    Ok((raw, host.scale(raw)))
}

/// Runs this executable as `perfbench --workload <workload> <flag>
/// <seed>`, waits for it, and returns its standard output.
fn child_line(workload: &str, flag: &str, seed: u64) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let child = Command::new(&exe)
        .args(["--workload", workload, flag, &seed.to_string()])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{flag} child: {e}"))?;
    let line = String::from_utf8_lossy(&child.stdout).into_owned();
    if !child.status.success() {
        return Err(format!(
            "{flag} {seed} ended with {} and printed {line:?}",
            child.status
        ));
    }
    Ok(line)
}

/// The workload's peak resident memory, MB: one bare pass per scenario,
/// each in a child process of its own (`perfbench --workload <name>
/// --rss-pass <scenario seed>`, see [`rss_pass`]), and the largest
/// `VmHWM` of them. A fresh process holds no heap retained from earlier
/// passes, so the figure is what the scenario itself needs. Each child's
/// digest must equal the reference.
fn child_peak_rss(
    workload: &str,
    seeds: &[u64],
    reference: &[u64],
    out: &mut Outcome,
) -> Result<f64, String> {
    let mut peak = 0.0f64;
    for (k, &seed) in seeds.iter().enumerate() {
        let line = child_line(workload, "--rss-pass", seed)?;
        let mut fields = line.split_whitespace();
        let digest = fields.next().and_then(|d| u64::from_str_radix(d, 16).ok());
        let mb = fields.next().and_then(|m| m.parse::<f64>().ok());
        let (Some(digest), Some(mb)) = (digest, mb) else {
            return Err(format!("rss pass {seed} printed {line:?}"));
        };
        out.check(digest == reference[k], || {
            format!(
                "rss pass digest {digest:016x} != observe digest {:016x} (scenario seed {seed})",
                reference[k]
            )
        });
        peak = peak.max(mb);
    }
    Ok(peak)
}

/// The child side of [`child_peak_rss`]: one bare pass over the scenario
/// `seed`, then `<digest> <peak MB>` of this process.
pub fn rss_pass(w: &dyn SimWorkload, seed: u64) -> Result<String, String> {
    let pass = w.pass(seed, Mode::Bare)?;
    let mb = peak_rss_mb().ok_or("VmHWM is unavailable")?;
    Ok(format!("{:016x} {mb}", pass.digest))
}

/// The child side of [`setup_s`]: one build of the scenario `seed`, then
/// its host time raw and scaled, in seconds.
pub fn setup_pass(w: &dyn SimWorkload, seed: u64) -> Result<String, String> {
    let (raw, scaled) = scaled_build(w, seed)?;
    Ok(format!("{raw} {scaled}"))
}

/// Per-layer metrics from the traced passes: phase times are medians
/// across passes, counts come from the last pass (they repeat exactly).
fn layer_metrics(
    probed: &[Pass],
    observed: &Pass,
    bare_run: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let med =
        |f: &dyn Fn(&Pass) -> f64| median(&probed.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0);
    let last = probed.last().ok_or("no traced pass")?;
    let t = &last.timing;
    let st = &last.stats;
    out.set("engine.drain_s", med(&|p| p.timing.drain.as_secs_f64()));
    out.set("engine.gather_s", med(&|p| p.timing.gather.as_secs_f64()));
    out.set("engine.execute_s", med(&|p| p.timing.execute.as_secs_f64()));
    out.set("engine.commit_s", med(&|p| p.timing.commit.as_secs_f64()));
    out.set("engine.par_events", t.par_events as f64);
    out.set("engine.serial_events", t.serial_events as f64);
    out.set("engine.par_batches", t.par_batches as f64);
    out.set("engine.serial_batches", t.serial_batches as f64);
    let events = last.events() as f64;
    out.set("engine.par_share", t.par_events as f64 / events.max(1.0));
    out.set(
        "engine.events_per_batch",
        events / (t.par_batches + t.serial_batches).max(1) as f64,
    );
    out.set("radio.inquiries", st.inquiries as f64);
    out.set("radio.inquiry_responses", st.inquiry_responses as f64);
    out.set("radio.service_queries", st.service_queries as f64);
    out.set("world.query_us", med(&|p| p.query_us));
    out.set(
        "daemon.self_s",
        med(&|p| (p.timing.execute.as_secs_f64() - p.probe.busy().as_secs_f64()).max(0.0)),
    );
    out.set("trace.recorded", st.events_recorded as f64);
    out.set("trace.dropped", st.events_dropped as f64);
    out.set("trace.mem_bytes", last.trace_mem as f64);
    let pr = &last.probe;
    out.set("app.data_s", med(&|p| p.probe.data.busy.as_secs_f64()));
    out.set("app.data_calls", pr.data.calls as f64);
    out.set(
        "app.neighbor_s",
        med(&|p| p.probe.neighbor.busy.as_secs_f64()),
    );
    out.set("app.neighbor_calls", pr.neighbor.calls as f64);
    out.set("app.link_s", med(&|p| p.probe.link.busy.as_secs_f64()));
    out.set("app.link_calls", pr.link.calls as f64);
    out.set("app.timer_s", med(&|p| p.probe.timer.busy.as_secs_f64()));
    out.set("app.timer_calls", pr.timer.calls as f64);
    let (decoded, ns) = redecode(&pr.payloads)?;
    out.set("codec.frames", pr.data.calls as f64);
    out.set(
        "codec.bytes_per_frame",
        pr.data_bytes as f64 / pr.data.calls.max(1) as f64,
    );
    out.set("codec.decode_ns_per_frame", ns);
    out.fact("codec_frames_redecoded", decoded);
    let delivered = observed.latencies_ms.len().max(1) as f64;
    out.set("gossip.eager", st.gossip_eager as f64);
    out.set("gossip.lazy", st.gossip_lazy as f64);
    out.set("gossip.graft", st.gossip_graft as f64);
    out.set("gossip.prune", st.gossip_prune as f64);
    out.set("gossip.duplicate", st.gossip_duplicate as f64);
    if observed.members > 0 {
        out.set(
            "gossip.lazy_per_delivery",
            st.gossip_lazy as f64 / delivered,
        );
        out.set(
            "gossip.dup_per_delivery",
            st.gossip_duplicate as f64 / delivered,
        );
        out.set("link.bytes_per_delivery", st.bytes_sent as f64 / delivered);
        out.set(
            "groups.convergence_ratio",
            observed.converged as f64 / observed.members as f64,
        );
    }
    out.set("link.connects_attempted", st.connects_attempted as f64);
    out.set("link.connects_ok", st.connects_ok as f64);
    out.set("link.connects_failed", st.connects_failed as f64);
    out.set("link.frames_sent", st.frames_sent as f64);
    out.set("link.frames_delivered", st.frames_delivered as f64);
    out.set("link.frames_dropped", st.frames_dropped as f64);
    out.set("link.bytes_sent", st.bytes_sent as f64);
    out.set("recovery.retries", st.retries as f64);
    out.set("recovery.timeouts", st.timeouts as f64);
    out.set("recovery.gave_up", st.gave_up as f64);
    out.set("recovery.resumed", st.resumed as f64);
    let traced_run = med(&|p| p.scenario_scaled.iter().sum());
    out.set("tracing.overhead", traced_run / bare_run);
    out.fact("traced_passes", probed.len());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const CROWD_SMOKE: CrowdSize = CrowdSize {
        nodes: 300,
        horizon: Duration::from_secs(15),
    };
    const BUBBLES_SMOKE: BubblesSize = BubblesSize {
        bubbles: 2,
        per_bubble: 3,
        ferries: 1,
        horizon: Duration::from_secs(300),
        scenarios: 2,
    };

    /// The probed builds must be the harness builds: same digest.
    #[test]
    fn probed_builds_reproduce_harness_digests() {
        let bare = crowd_pass(5, &CROWD_SMOKE, Mode::Bare).expect("crowd");
        let observe = crowd_pass(5, &CROWD_SMOKE, Mode::Observe).expect("crowd");
        let traced = crowd_pass(5, &CROWD_SMOKE, Mode::Traced).expect("crowd");
        assert_eq!(bare.digest, observe.digest);
        assert_eq!(bare.digest, traced.digest);
        assert_eq!(bare.events(), traced.events());
        assert!(traced.probe.neighbor.calls > 0);
        assert!(!observe.latencies_ms.is_empty());

        let bare = bubbles_pass(9, &BUBBLES_SMOKE, Mode::Bare).expect("bubbles");
        let traced = bubbles_pass(9, &BUBBLES_SMOKE, Mode::Traced).expect("bubbles");
        assert_eq!(bare.digest, traced.digest);
        assert_eq!(bare.latencies_ms, traced.latencies_ms);
        assert!(traced.probe.data.calls > 0);
    }

    /// The bare bubbles pass reproduces `harness::bubbles::run`'s digest.
    #[test]
    fn bubbles_digest_matches_the_harness_report() {
        let config = bubbles_config(9, &BUBBLES_SMOKE, 1);
        let report = harness::bubbles::run(&config).expect("valid config");
        let pass = bubbles_pass(9, &BUBBLES_SMOKE, Mode::Bare).expect("bubbles");
        assert_eq!(report.digest, pass.digest);
        assert_eq!(report.delivered, pass.latencies_ms.len());
    }

    #[test]
    fn smoke_crowd_run_reports_every_metric() {
        for traced in [false, true] {
            let mut out = run(&CROWD_SMOKE, 3, 0.0, traced, None).expect("crowd run");
            let line = out.result_line(traced);
            assert!(out.correct(), "{:?}", out.problems);
            assert!(line.contains("\"correct\":true"), "{line}");
        }
    }

    #[test]
    fn smoke_bubbles_run_reports_every_metric() {
        for traced in [false, true] {
            let mut out = run(&BUBBLES_SMOKE, 4, 0.0, traced, None).expect("bubbles run");
            let line = out.result_line(traced);
            assert!(out.correct(), "{:?}", out.problems);
            assert_eq!(out.attempted, 2 * (2 * 3 - 1));
            assert!(line.contains("\"correct\":true"), "{line}");
        }
    }
}
