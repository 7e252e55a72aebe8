//! The `live` workload: a real `LiveServer` on loopback.
//!
//! The server serves `CommunityApp` (member "bob") with one listen shard
//! and `JournalPersist` on, checkpointing every second. One generator
//! thread drives two pipelined connections:
//!
//! * **light** phase — open loop, Poisson arrivals at ~1k req/s, where
//!   latency is set by reactor wakeups (the `p50_ms` / `p99_ms` metrics);
//! * **heavy** phase — open loop at ~10k req/s, where more work queues
//!   behind each wakeup (per-layer metrics; see [`LiveSize::FULL`] for
//!   why its latency is not an end-to-end metric);
//! * **burst** — closed loop, a fixed batch with a bounded window per
//!   connection, timed from first send to last response (the capacity
//!   the `run_s` / `events_per_s` metrics report).
//!
//! Open-loop latency is timed from each request's *due* time, so a stall
//! also charges the requests queued behind it, and the generator's own
//! lateness is recorded. Every request must get exactly one response, in
//! per-connection order, of the variant its request expects, within
//! [`DEADLINE`]; anything else fails the run.
//!
//! A traced repetition wraps the app and the persistence hook so each
//! request's path is rebuilt from timestamps: client write → hook sees
//! the frame (`in`), hook time (`persist`), wait for dispatch (`queue`),
//! app callback (`dispatch`), dispatch end → client read (`out`). The
//! hook and the app see frames in one FIFO order (the reactor records a
//! whole batch, then dispatches it in order), and each connection's
//! responses come back in request order, so spans match by position.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use codec::json::Json;
use codec::rng::Xoshiro256pp;
use codec::Wire;
use community::node::CommunityApp;
use community::profile::Profile;
use community::protocol::{Request, Response};
use community::{JournalPersist, StoreJournal};
use netsim::SimTime;
use peerhood::error::ErrorKind;
use peerhood::live::wire::{frame, parse_farewell, FrameBuf, Handshake, VERDICT_ACCEPT};
use peerhood::live::{LiveConfig, LivePersist, LiveServer, LiveStats};
use peerhood::types::DeviceId;
use peerhood::{AppCtx, AppEvent, Application};

use crate::probe::{redecode, Probe, ProbeStats};
use crate::report::{peak_rss_mb, Outcome, SETUP_SAMPLES};
use crate::stats::{mean, median, quantile, tail_q};

/// A response later than this after its due time counts as failed.
const DEADLINE: Duration = Duration::from_secs(1);
/// How long a phase may wait for its last responses.
const GRACE: Duration = Duration::from_secs(3);
/// The generator "falls behind its schedule" when the median request
/// goes out later than this: the offered load is then no longer the
/// declared open-loop rate, and the run reports no number.
const MAX_MEDIAN_LATENESS: Duration = Duration::from_millis(1);
/// The generator's nap between socket rounds. Sleeping (rather than
/// spinning) leaves the server both cores; it delays read timestamps by
/// at most one nap plus timer slack.
const PACE: Duration = Duration::from_micros(20);
/// Where the journals live while a run lasts (inside the checkout).
const SCRATCH_DIR: &str = ".perfbench";

/// Size of the `live` workload.
#[derive(Clone, Copy, Debug)]
pub struct LiveSize {
    /// Client connections (one generator thread drives them all).
    pub conns: usize,
    /// Light-phase arrival rate, req/s.
    pub light_rate: f64,
    /// Light-phase length.
    pub light: Duration,
    /// Heavy-phase arrival rate, req/s.
    pub heavy_rate: f64,
    /// Heavy-phase length.
    pub heavy: Duration,
    /// Requests in the closed-loop burst.
    pub burst: usize,
    /// Outstanding requests per connection during the burst.
    pub window: usize,
}

impl LiveSize {
    /// The benchmark's live workload.
    ///
    /// The end-to-end latencies come from the light phase. A response
    /// the core finishes before the listen shard's next round goes out
    /// at once; one finished later waits out the shard's 1 ms nap. Under
    /// load the share of late responses moves with the host's speed from
    /// one minute to the next, and the median sits where that share
    /// decides it: at 10k req/s the heavy median read 0.8 ms in a fast
    /// host period and 1.0–1.45 ms in slow ones (the `out` stage 0.1 ms
    /// against 1.0 ms), at 3k req/s 0.82–1.25 ms within one slow period,
    /// while the light median stayed at 0.91–1.06 ms outside periods with
    /// steal time.
    pub const FULL: LiveSize = LiveSize {
        conns: 2,
        light_rate: 1_000.0,
        light: Duration::from_secs(1),
        heavy_rate: 10_000.0,
        heavy: Duration::from_secs(1),
        burst: 20_000,
        window: 32,
    };

    /// The warm-up repetition: same rates, short phases.
    fn warmup(&self) -> LiveSize {
        LiveSize {
            light: self.light / 5,
            heavy: self.heavy / 5,
            burst: self.burst / 5,
            ..*self
        }
    }
}

/// The request mix. Reads dominate; writes (comments, mail) are a few
/// percent and, like profile views (visitor log), are journaled.
/// Profile responses carry every comment, so they grow as a repetition
/// runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Members,
    Interests,
    Interested,
    Profile,
    Message,
    Comment,
}

/// Per-mille weights of each kind.
const MIX: [(Kind, u64); 6] = [
    (Kind::Members, 500),
    (Kind::Interests, 200),
    (Kind::Interested, 125),
    (Kind::Profile, 150),
    (Kind::Message, 20),
    (Kind::Comment, 5),
];

impl Kind {
    fn draw(rng: &mut Xoshiro256pp) -> Kind {
        let mut x = rng.bounded_u64(1000);
        for (kind, weight) in MIX {
            if x < weight {
                return kind;
            }
            x -= weight;
        }
        Kind::Members
    }

    fn request(self, conn: usize, seq: usize) -> Request {
        let visitor = format!("visitor-{conn}");
        match self {
            Kind::Members => Request::GetOnlineMemberList,
            Kind::Interests => Request::GetInterestList,
            Kind::Interested => Request::GetInterestedMemberList {
                interest: "rust".into(),
            },
            Kind::Profile => Request::GetProfile {
                member: "bob".into(),
                requester: visitor,
            },
            Kind::Message => Request::Message {
                to: "bob".into(),
                from: visitor,
                subject: format!("note {seq}"),
                body: "see you at the sauna after the football match".into(),
            },
            Kind::Comment => Request::AddProfileComment {
                member: "bob".into(),
                author: visitor,
                comment: format!("comment {seq}"),
            },
        }
    }

    /// Whether `resp` is the answer this kind expects; profile views
    /// must never show fewer comments than an earlier view on the same
    /// connection.
    fn accepts(self, resp: &Response, comments_seen: &mut usize) -> bool {
        match (self, resp) {
            (Kind::Members, Response::MemberList(m)) => m == &["bob"],
            (Kind::Interests, Response::InterestList(i)) => i.len() == 3,
            (Kind::Interested, Response::InterestedMembers(m)) => m == &["bob"],
            (Kind::Profile, Response::Profile(view)) => {
                let ok = view.member == "bob" && view.comments.len() >= *comments_seen;
                *comments_seen = view.comments.len();
                ok
            }
            (Kind::Message, Response::MessageWritten) => true,
            (Kind::Comment, Response::CommentWritten) => true,
            _ => false,
        }
    }

    /// Kinds the journal appends (`Request::is_mutation`).
    fn journaled(self) -> bool {
        matches!(self, Kind::Profile | Kind::Message | Kind::Comment)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Light,
    Heavy,
    Burst,
}

/// One request's life as the client saw it.
#[derive(Clone, Debug)]
struct Sent {
    conn: usize,
    kind: Kind,
    phase: Phase,
    due: Instant,
    written: Option<Instant>,
    read: Option<Instant>,
    ok: bool,
}

impl Sent {
    /// Answered correctly and within the deadline.
    fn succeeded(&self) -> bool {
        self.ok
            && self
                .read
                .is_some_and(|r| r.saturating_duration_since(self.due) <= DEADLINE)
    }

    /// Latency from due time, ms.
    fn latency_ms(&self) -> Option<f64> {
        self.read
            .map(|r| r.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }
}

/// One client connection (non-blocking after the handshake).
struct Client {
    stream: TcpStream,
    inbuf: FrameBuf,
    out: Vec<u8>,
    out_off: usize,
    /// `(end offset in out, log index)` of requests not fully written.
    ends: VecDeque<(usize, usize)>,
    /// Log indices awaiting a response, in send order.
    inflight: VecDeque<usize>,
    comments_seen: usize,
    dead: bool,
}

impl Client {
    /// Connects, handshakes as device `id` and waits for the verdict.
    fn connect(addr: SocketAddr, id: u64) -> io::Result<Client> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        let hs = Handshake {
            from: DeviceId::new(id),
            service: community::SERVICE_NAME.into(),
            resume: None,
        };
        stream.write_all(&frame(&hs.encode()))?;
        let mut inbuf = FrameBuf::new();
        let mut buf = [0u8; 256];
        let verdict = loop {
            if let Some(f) = inbuf.pop().map_err(|e| io::Error::other(e.to_string()))? {
                break f;
            }
            let n = stream.read(&mut buf)?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            inbuf.extend(&buf[..n]);
        };
        if verdict.first() != Some(&VERDICT_ACCEPT) {
            return Err(io::Error::other("handshake rejected"));
        }
        stream.set_nonblocking(true)?;
        Ok(Client {
            stream,
            inbuf,
            out: Vec::new(),
            out_off: 0,
            ends: VecDeque::new(),
            inflight: VecDeque::new(),
            comments_seen: 0,
            dead: false,
        })
    }
}

/// The single-threaded load generator over all connections.
struct Generator {
    clients: Vec<Client>,
    log: Vec<Sent>,
    /// Responses with no request waiting for them.
    stray: u64,
    /// `Overloaded` farewells received.
    shed: u64,
}

impl Generator {
    /// A generator expecting `requests` sends: the log is sized up front
    /// so its growth does not make the peak RSS depend on the seed.
    fn new(clients: Vec<Client>, requests: usize) -> Self {
        Generator {
            clients,
            log: Vec::with_capacity(requests),
            stray: 0,
            shed: 0,
        }
    }

    fn send(&mut self, conn: usize, kind: Kind, phase: Phase, due: Instant) {
        let idx = self.log.len();
        let bytes = frame(&kind.request(conn, idx).encode());
        let c = &mut self.clients[conn];
        c.out.extend_from_slice(&bytes);
        c.ends.push_back((c.out.len(), idx));
        c.inflight.push_back(idx);
        self.log.push(Sent {
            conn,
            kind,
            phase,
            due,
            written: None,
            read: None,
            ok: false,
        });
    }

    /// One round of socket work on every live connection.
    fn pump(&mut self) {
        for c in self.clients.iter_mut().filter(|c| !c.dead) {
            while c.out_off < c.out.len() {
                match c.stream.write(&c.out[c.out_off..]) {
                    Ok(0) => c.dead = true,
                    Ok(n) => c.out_off += n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => c.dead = true,
                }
                if c.dead {
                    break;
                }
            }
            let now = Instant::now();
            while let Some(&(end, idx)) = c.ends.front() {
                if end > c.out_off {
                    break;
                }
                self.log[idx].written = Some(now);
                c.ends.pop_front();
            }
            if c.out_off == c.out.len() {
                c.out.clear();
                c.out_off = 0;
            }

            let mut buf = [0u8; 16 * 1024];
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => {
                        c.dead = true;
                        break;
                    }
                    Ok(n) => c.inbuf.extend(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        c.dead = true;
                        break;
                    }
                }
            }
            let now = Instant::now();
            loop {
                let f = match c.inbuf.pop() {
                    Ok(Some(f)) => f,
                    Ok(None) => break,
                    Err(_) => {
                        c.dead = true;
                        break;
                    }
                };
                if let Some(kind) = parse_farewell(&f) {
                    self.shed += u64::from(kind == ErrorKind::Overloaded);
                    c.dead = true;
                    break;
                }
                match c.inflight.pop_front() {
                    Some(idx) => {
                        let sent = &mut self.log[idx];
                        sent.read = Some(now);
                        sent.ok = Response::decode_exact(&f)
                            .is_ok_and(|r| sent.kind.accepts(&r, &mut c.comments_seen));
                    }
                    None => self.stray += 1,
                }
            }
        }
    }

    fn outstanding(&self) -> usize {
        self.clients
            .iter()
            .filter(|c| !c.dead)
            .map(|c| c.inflight.len())
            .sum()
    }

    fn all_dead(&self) -> bool {
        self.clients.iter().all(|c| c.dead)
    }

    /// Sends `plan` (offsets from now) on schedule, answering as it goes;
    /// returns each request's lateness (ms) at the moment it was sent.
    fn open_loop(&mut self, plan: &[(Duration, usize, Kind)], phase: Phase) -> Vec<f64> {
        let start = Instant::now();
        let end = start + plan.last().map_or(Duration::ZERO, |p| p.0) + GRACE;
        let mut late = Vec::with_capacity(plan.len());
        let mut next = 0;
        loop {
            let now = Instant::now();
            for (i, due, late_ms) in release(plan, start, &mut next, now) {
                let (_, conn, kind) = plan[i];
                self.send(conn, kind, phase, due);
                late.push(late_ms);
            }
            self.pump();
            let done = next == plan.len() && self.outstanding() == 0;
            if done || self.all_dead() || now > end {
                return late;
            }
            std::thread::sleep(PACE);
        }
    }

    /// Keeps `window` requests outstanding per connection until `n` have
    /// been sent and answered; returns first send → last response.
    fn closed_loop(&mut self, n: usize, window: usize, rng: &mut Xoshiro256pp) -> Duration {
        let start = Instant::now();
        let mut issued = 0;
        loop {
            for conn in 0..self.clients.len() {
                while issued < n
                    && self.clients[conn].inflight.len() < window
                    && !self.clients[conn].dead
                {
                    self.send(conn, Kind::draw(rng), Phase::Burst, Instant::now());
                    issued += 1;
                }
            }
            self.pump();
            let done = issued == n && self.outstanding() == 0;
            if done || self.all_dead() || start.elapsed() > DEADLINE + GRACE * 4 {
                let last = self
                    .log
                    .iter()
                    .filter(|s| s.phase == Phase::Burst)
                    .filter_map(|s| s.read)
                    .max()
                    .unwrap_or(start);
                return last.saturating_duration_since(start);
            }
            std::thread::sleep(PACE);
        }
    }
}

/// The plan entries due by `now` from `*next` on, each with its due
/// instant and lateness (ms): a generator that wakes late releases every
/// overdue request at once, each charged from its own due time.
fn release(
    plan: &[(Duration, usize, Kind)],
    start: Instant,
    next: &mut usize,
    now: Instant,
) -> Vec<(usize, Instant, f64)> {
    let mut out = Vec::new();
    while let Some(&(at, _, _)) = plan.get(*next) {
        let due = start + at;
        if due > now {
            break;
        }
        out.push((
            *next,
            due,
            now.saturating_duration_since(due).as_secs_f64() * 1e3,
        ));
        *next += 1;
    }
    out
}

/// A Poisson arrival schedule: `(offset, connection, kind)`.
fn schedule(
    rng: &mut Xoshiro256pp,
    rate: f64,
    length: Duration,
    conns: usize,
) -> Vec<(Duration, usize, Kind)> {
    let mut plan = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit_f64()).ln() / rate;
        if t >= length.as_secs_f64() {
            return plan;
        }
        let conn = rng.bounded_u64(conns as u64) as usize;
        plan.push((Duration::from_secs_f64(t), conn, Kind::draw(rng)));
    }
}

/// Server-side timestamps of one request (traced repetitions).
#[derive(Clone, Copy, Debug)]
struct ServerSpan {
    record: (Instant, Instant),
    dispatch: (Instant, Instant),
}

/// What the traced wrappers saw, shared by the hook and the app (both
/// on the reactor's core thread, so the lock is never contended).
#[derive(Default)]
struct SpanLog {
    /// Hook calls not yet matched to a dispatch, in arrival order.
    recorded: VecDeque<(Instant, Instant)>,
    /// Matched spans per server connection id, in dispatch order.
    by_conn: BTreeMap<u64, Vec<ServerSpan>>,
    /// Server connection id → client device id.
    device_of: BTreeMap<u64, u64>,
    /// Dispatches that found no recorded frame to pair with.
    unmatched: u64,
    checkpoints: Vec<Duration>,
}

type SharedLog = Arc<Mutex<SpanLog>>;

fn lock(log: &SharedLog) -> std::sync::MutexGuard<'_, SpanLog> {
    log.lock()
        .expect("span log lock poisoned by a panicking reactor thread")
}

/// The traced app: per-request dispatch spans around a timed [`Probe`].
struct SpanApp {
    probe: Probe<CommunityApp>,
    log: SharedLog,
}

impl Application for SpanApp {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.probe.on_start(ctx);
    }

    fn on_event(&mut self, event: AppEvent, ctx: &mut AppCtx<'_>) {
        match &event {
            AppEvent::Data { conn, .. } => {
                let conn = conn.raw();
                let record = lock(&self.log).recorded.pop_front();
                let t0 = Instant::now();
                self.probe.on_event(event, ctx);
                let t1 = Instant::now();
                let mut log = lock(&self.log);
                match record {
                    Some(record) => log.by_conn.entry(conn).or_default().push(ServerSpan {
                        record,
                        dispatch: (t0, t1),
                    }),
                    None => log.unmatched += 1,
                }
            }
            AppEvent::Incoming { conn, device, .. } => {
                lock(&self.log).device_of.insert(conn.raw(), device.raw());
                self.probe.on_event(event, ctx);
            }
            _ => self.probe.on_event(event, ctx),
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AppCtx<'_>) {
        self.probe.on_timer(token, ctx);
    }
}

/// The traced persistence hook: times the journal around each frame.
struct SpanPersist {
    inner: JournalPersist,
    log: SharedLog,
}

impl LivePersist<SpanApp> for SpanPersist {
    fn record(&mut self, frame: &[u8], now: SimTime) {
        let t0 = Instant::now();
        self.inner.record(frame, now);
        let t1 = Instant::now();
        lock(&self.log).recorded.push_back((t0, t1));
    }

    fn checkpoint(&mut self, app: &SpanApp) {
        let t0 = Instant::now();
        self.inner.checkpoint(&app.probe.inner);
        let took = t0.elapsed();
        lock(&self.log).checkpoints.push(took);
    }
}

fn bob() -> CommunityApp {
    CommunityApp::with_member(
        "bob",
        "pw",
        Profile::new("Bob").with_interests(["rust", "sauna", "football"]),
    )
}

/// Opens a fresh journal at `path` holding `app`'s store.
fn journal(path: &Path, app: &CommunityApp) -> io::Result<JournalPersist> {
    let _ = std::fs::remove_file(path);
    let (mut journal, _) = StoreJournal::open(path)?;
    journal.compact(app.store())?;
    Ok(JournalPersist::new(journal))
}

fn server_config() -> LiveConfig {
    LiveConfig::default()
        .with_listen_shards(1)
        .with_auto_service_discovery(false)
        .with_snapshot_cadence(Duration::from_secs(1))
}

/// A running server, bare or traced.
enum Server {
    Bare(LiveServer<CommunityApp>),
    Traced(LiveServer<SpanApp>, SharedLog),
}

impl Server {
    fn spawn(traced: bool, path: &Path) -> io::Result<Server> {
        let app = bob();
        let persist = journal(path, &app)?;
        Ok(if traced {
            let log = SharedLog::default();
            let app = SpanApp {
                probe: Probe::new(app, true),
                log: Arc::clone(&log),
            };
            let persist = SpanPersist {
                inner: persist,
                log: Arc::clone(&log),
            };
            let server = LiveServer::spawn_with(
                server_config(),
                "live-daemon",
                app,
                Some(Box::new(persist)),
            )?;
            Server::Traced(server, log)
        } else {
            Server::Bare(LiveServer::spawn_with(
                server_config(),
                "live-daemon",
                app,
                Some(Box::new(persist)),
            )?)
        })
    }

    fn addr(&self) -> SocketAddr {
        match self {
            Server::Bare(s) => s.addr(),
            Server::Traced(s, _) => s.addr(),
        }
    }

    fn stats(&self) -> LiveStats {
        match self {
            Server::Bare(s) => s.stats(),
            Server::Traced(s, _) => s.stats(),
        }
    }

    /// Stops the reactor; a traced server hands back its probe and log.
    fn shutdown(self) -> Option<(ProbeStats, SpanLog)> {
        match self {
            Server::Bare(s) => {
                s.shutdown();
                None
            }
            Server::Traced(s, log) => {
                let app = s.shutdown();
                let log = std::mem::take(&mut *lock(&log));
                Some((app.probe.stats().clone(), log))
            }
        }
    }
}

/// Stage latencies (µs) of one phase: in, queue, persist, dispatch, out.
#[derive(Default)]
struct Stages {
    stage: [Vec<f64>; 5],
}

/// What one repetition measured.
#[derive(Default)]
struct Rep {
    burst_wall: Duration,
    burst_n: usize,
    light_ms: Vec<f64>,
    heavy_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    stats: LiveStats,
    traced: Option<Traced>,
}

impl Rep {
    /// Counts attempts and failures and collects the open-loop latencies
    /// of the requests that succeeded.
    fn tally(&mut self, log: &[Sent]) {
        for s in log {
            self.attempted += 1;
            if !s.succeeded() {
                self.failed += 1;
                continue;
            }
            let ms = s.latency_ms().unwrap_or(0.0);
            match s.phase {
                Phase::Light => self.light_ms.push(ms),
                Phase::Heavy => self.heavy_ms.push(ms),
                Phase::Burst => {}
            }
        }
    }
}

/// The traced part of a repetition.
#[derive(Default)]
struct Traced {
    probe: ProbeStats,
    light: Stages,
    heavy: Stages,
    journaled: u64,
    append_us: Vec<f64>,
    checkpoints: Vec<Duration>,
}

/// Pairs each request with its server span by per-connection position
/// and splits its latency into stages.
fn attribute(log: &[Sent], spans: &SpanLog, problems: &mut Vec<String>) -> Traced {
    let mut t = Traced::default();
    if spans.unmatched > 0 || !spans.recorded.is_empty() {
        problems.push(format!(
            "span FIFO out of step: {} dispatches without a recorded frame, {} frames never dispatched",
            spans.unmatched,
            spans.recorded.len()
        ));
    }
    for (conn, server_spans) in &spans.by_conn {
        let Some(&device) = spans.device_of.get(conn) else {
            problems.push(format!(
                "server connection {conn} never announced its device"
            ));
            continue;
        };
        let client = device as usize - 1;
        let requests: Vec<&Sent> = log.iter().filter(|s| s.conn == client).collect();
        if requests.len() != server_spans.len() {
            problems.push(format!(
                "connection {client}: {} requests sent, {} dispatched",
                requests.len(),
                server_spans.len()
            ));
            continue;
        }
        for (sent, span) in requests.iter().zip(server_spans) {
            let (Some(written), Some(read)) = (sent.written, sent.read) else {
                continue;
            };
            let us = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e6;
            let (r0, r1) = span.record;
            let (d0, d1) = span.dispatch;
            let stages = [
                us(written, r0),
                us(r1, d0),
                us(r0, r1),
                us(d0, d1),
                us(d1, read),
            ];
            if sent.kind.journaled() {
                t.journaled += 1;
                t.append_us.push(stages[2]);
            }
            let into = match sent.phase {
                Phase::Light => &mut t.light,
                Phase::Heavy => &mut t.heavy,
                Phase::Burst => continue,
            };
            for (v, s) in into.stage.iter_mut().zip(stages) {
                v.push(s);
            }
        }
    }
    t.checkpoints = spans.checkpoints.clone();
    t
}

/// A repetition's set-up: a fresh journal at `path`, the server, and one
/// handshaken connection per client.
fn start(size: &LiveSize, traced: bool, path: &Path) -> Result<(Server, Vec<Client>), String> {
    let server = Server::spawn(traced, path).map_err(|e| format!("live server: {e}"))?;
    let clients = (0..size.conns)
        .map(|c| Client::connect(server.addr(), c as u64 + 1))
        .collect::<io::Result<Vec<_>>>()
        .map_err(|e| format!("live client: {e}"))?;
    Ok((server, clients))
}

/// `setup_s`: the median host time of [`SETUP_SAMPLES`] back-to-back
/// bare set-ups, each shut down untimed. Seconds.
fn setup_s(size: &LiveSize, dir: &Path) -> Result<f64, String> {
    let path = dir.join("setup.journal");
    let mut times = Vec::with_capacity(SETUP_SAMPLES);
    for _ in 0..SETUP_SAMPLES {
        let t0 = Instant::now();
        let (server, clients) = start(size, false, &path)?;
        times.push(t0.elapsed().as_secs_f64());
        drop(clients);
        server.shutdown();
    }
    let _ = std::fs::remove_file(&path);
    Ok(median(&times).unwrap_or(0.0))
}

/// One repetition: spawn, handshake, light, heavy, burst, shut down.
fn repetition(
    size: &LiveSize,
    seed: u64,
    traced: bool,
    dir: &Path,
    tag: &str,
) -> Result<Rep, String> {
    let mut rng = Xoshiro256pp::from_seed(seed);
    let light = schedule(&mut rng, size.light_rate, size.light, size.conns);
    let heavy = schedule(&mut rng, size.heavy_rate, size.heavy, size.conns);
    let path = dir.join(format!("{tag}.journal"));
    let (server, clients) = start(size, traced, &path)?;

    let mut gen = Generator::new(clients, light.len() + heavy.len() + size.burst);
    let mut late = gen.open_loop(&light, Phase::Light);
    late.extend(gen.open_loop(&heavy, Phase::Heavy));
    let burst_wall = gen.closed_loop(size.burst, size.window, &mut rng);
    let stats = server.stats();
    let server_side = server.shutdown();
    let _ = std::fs::remove_file(&path);

    let mut rep = Rep {
        burst_wall,
        burst_n: size.burst,
        late_ms: late,
        stats,
        ..Rep::default()
    };
    rep.tally(&gen.log);
    let expected = (light.len() + heavy.len() + size.burst) as u64;
    if rep.attempted != expected {
        rep.problems.push(format!(
            "{} requests sent, {expected} planned",
            rep.attempted
        ));
    }
    if rep.failed > 0 {
        rep.problems.push(format!(
            "{} of {} requests unanswered, wrong, shed or later than {DEADLINE:?}",
            rep.failed, rep.attempted
        ));
    }
    if gen.stray > 0 || gen.shed > 0 {
        rep.problems.push(format!(
            "{} stray responses, {} shed farewells",
            gen.stray, gen.shed
        ));
    }
    if let Some((probe, spans)) = server_side {
        let mut t = attribute(&gen.log, &spans, &mut rep.problems);
        t.probe = probe;
        rep.traced = Some(t);
    }
    Ok(rep)
}

fn p(values: &[f64], q: f64) -> f64 {
    quantile(values, q).unwrap_or(0.0)
}

/// The `live` workload.
pub fn live(size: &LiveSize, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let dir = PathBuf::from(SCRATCH_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = run_live(size, seed, seconds, traced, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_live(
    size: &LiveSize,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut seeds = codec::rng::SplitMix64::new(seed);
    // Warm-up: first sockets, first allocations, first page faults.
    let warm = repetition(&size.warmup(), seeds.next_u64(), false, dir, "warmup")?;
    out.problems.extend(warm.problems);
    let mut bare = Vec::new();
    let mut probed = Vec::new();
    let mut peak_mb = None;
    let t0 = Instant::now();
    while bare.len() < 2 || (traced && probed.len() < 2) || t0.elapsed().as_secs_f64() < seconds {
        let k = bare.len();
        bare.push(repetition(
            size,
            seeds.next_u64(),
            false,
            dir,
            &format!("bare-{k}"),
        )?);
        // Every repetition runs a fresh server, so the first one reaches
        // the program's peak; reading it here keeps the samples the run
        // collects from later repetitions out of the figure.
        if peak_mb.is_none() {
            peak_mb = peak_rss_mb();
        }
        if traced {
            probed.push(repetition(
                size,
                seeds.next_u64(),
                true,
                dir,
                &format!("traced-{k}"),
            )?);
        }
    }

    let pool = |reps: &[Rep], f: &dyn Fn(&Rep) -> &Vec<f64>| -> Vec<f64> {
        reps.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    for r in bare.iter_mut().chain(probed.iter_mut()) {
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.problems.append(&mut r.problems);
    }
    // Quantiles are taken per repetition. The heavy tail and the
    // lateness report the median over repetitions, so one repetition's
    // hiccup does not set them. The end-to-end light figures report the
    // lower quartile over repetitions: in host periods with steal time a
    // repetition's tail jumped from 2.2 ms to 3–12 ms, in up to half the
    // repetitions of a run, while the rest read 2.2 ms as before; a
    // program change moves every repetition. The heavy median is taken
    // over the pooled samples instead, because a repetition's heavy
    // median flips between the reactor's two latency modes (see
    // `LiveSize::FULL`) and the pooled one averages their shares.
    let rep_quantiles = |reps: &[Rep], f: fn(&Rep) -> &Vec<f64>, q: fn(usize) -> f64| {
        reps.iter()
            .map(|r| p(f(r), q(f(r).len())))
            .collect::<Vec<_>>()
    };
    let per_rep = |reps: &[Rep], f: fn(&Rep) -> &Vec<f64>, q: fn(usize) -> f64| {
        median(&rep_quantiles(reps, f, q)).unwrap_or(0.0)
    };
    let quiet_rep = |reps: &[Rep], f: fn(&Rep) -> &Vec<f64>, q: fn(usize) -> f64| {
        p(&rep_quantiles(reps, f, q), 0.25)
    };
    let light_ms: fn(&Rep) -> &Vec<f64> = |r| &r.light_ms;
    let heavy_ms: fn(&Rep) -> &Vec<f64> = |r| &r.heavy_ms;
    let late_rep =
        |q: f64| median(&bare.iter().map(|r| p(&r.late_ms, q)).collect::<Vec<_>>()).unwrap_or(0.0);
    let light_n: usize = bare.iter().map(|r| r.light_ms.len()).sum();
    let heavy = pool(&bare, &heavy_ms);
    let late_p50 = late_rep(0.5);
    out.check(late_p50 <= MAX_MEDIAN_LATENESS.as_secs_f64() * 1e3, || {
        format!("generator fell behind its schedule: median lateness {late_p50:.3} ms")
    });
    let light_p50 = quiet_rep(&bare, light_ms, |_| 0.5);
    let light_p99 = quiet_rep(&bare, light_ms, tail_q);
    let heavy_p50 = p(&heavy, 0.5);
    let heavy_p99 = per_rep(&bare, heavy_ms, tail_q);
    out.fact("repetitions", bare.len());
    out.fact("light_samples", light_n);
    out.fact("heavy_samples", heavy.len());
    out.fact("light_p50_ms", light_p50);
    out.fact("light_p99_ms", light_p99);
    out.fact("heavy_p50_ms", heavy_p50);
    out.fact("heavy_p90_ms", per_rep(&bare, heavy_ms, |_| 0.9));
    out.fact("heavy_p99_ms", heavy_p99);
    out.fact("heavy_p999_ms", per_rep(&bare, heavy_ms, |_| 0.999));
    let reps = |f: fn(&Rep) -> &Vec<f64>, q: fn(usize) -> f64| {
        Json::Arr(
            rep_quantiles(&bare, f, q)
                .into_iter()
                .map(Json::Num)
                .collect(),
        )
    };
    out.fact("light_p50_ms_reps", reps(light_ms, |_| 0.5));
    out.fact("light_p99_ms_reps", reps(light_ms, tail_q));
    out.fact("heavy_p50_ms_reps", reps(heavy_ms, |_| 0.5));
    out.fact("gen_late_p50_ms", late_p50);
    out.fact("gen_late_p99_ms", late_rep(0.99));
    out.fact("gen_late_max_ms", late_rep(1.0));
    if traced {
        out.set(
            "tracing.overhead",
            quiet_rep(&probed, light_ms, |_| 0.5) / light_p50,
        );
        out.set("live.heavy_p50_ms", heavy_p50);
        out.set("live.heavy_p99_ms", heavy_p99);
        out.set("live.gen_late_ms", late_rep(0.99));
        live_layers(&probed, &mut out)?;
    } else {
        let burst: Vec<f64> = bare.iter().map(|r| r.burst_wall.as_secs_f64()).collect();
        let rate: Vec<f64> = bare
            .iter()
            .map(|r| r.burst_n as f64 / r.burst_wall.as_secs_f64())
            .collect();
        out.set("setup_s", setup_s(size, dir)?);
        out.set("run_s", median(&burst).unwrap_or(0.0));
        out.set("events_per_s", median(&rate).unwrap_or(0.0));
        out.set("p50_ms", light_p50);
        out.set("p99_ms", light_p99);
    }
    if let Some(mb) = peak_mb {
        out.set("peak_rss_mb", mb);
    }
    Ok(out)
}

/// Per-layer metrics from the traced repetitions (pooled spans; counts
/// from the last repetition).
fn live_layers(probed: &[Rep], out: &mut Outcome) -> Result<(), String> {
    let traced: Vec<&Traced> = probed.iter().filter_map(|r| r.traced.as_ref()).collect();
    let last = traced.last().ok_or("no traced repetition")?;
    for (phase, names) in [
        ("light", LIGHT_STAGE_METRICS),
        ("heavy", HEAVY_STAGE_METRICS),
    ] {
        for (i, (p50_name, p99_name)) in names.iter().enumerate() {
            let all: Vec<f64> = traced
                .iter()
                .flat_map(|t| {
                    if phase == "light" { &t.light } else { &t.heavy }.stage[i]
                        .iter()
                        .copied()
                })
                .collect();
            out.set(p50_name, p(&all, 0.5));
            out.set(p99_name, p(&all, 0.99));
        }
    }
    let stats = probed.last().map(|r| r.stats).unwrap_or_default();
    out.set("live.frames_in", stats.frames_in as f64);
    out.set("live.frames_out", stats.frames_out as f64);
    out.set(
        "live.bytes_out_per_resp",
        stats.bytes_out as f64 / stats.frames_out.max(1) as f64,
    );
    out.set("live.shed", stats.shed as f64);
    out.set("journal.appends", last.journaled as f64);
    let appends: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.append_us.iter().copied())
        .collect();
    out.set("journal.append_us", mean(&appends).unwrap_or(0.0));
    let checkpoints: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.checkpoints.iter().map(|d| d.as_secs_f64() * 1e3))
        .collect();
    out.set("journal.checkpoint_ms", mean(&checkpoints).unwrap_or(0.0));
    let probe = &last.probe;
    out.set("app.data_s", probe.data.busy.as_secs_f64());
    out.set("app.data_calls", probe.data.calls as f64);
    out.set("app.neighbor_s", probe.neighbor.busy.as_secs_f64());
    out.set("app.neighbor_calls", probe.neighbor.calls as f64);
    out.set("app.link_s", probe.link.busy.as_secs_f64());
    out.set("app.link_calls", probe.link.calls as f64);
    out.set("app.timer_s", probe.timer.busy.as_secs_f64());
    out.set("app.timer_calls", probe.timer.calls as f64);
    let (_, ns) = redecode(&probe.payloads)?;
    out.set("codec.frames", probe.data.calls as f64);
    out.set(
        "codec.bytes_per_frame",
        probe.data_bytes as f64 / probe.data.calls.max(1) as f64,
    );
    out.set("codec.decode_ns_per_frame", ns);
    out.fact("checkpoints", checkpoints.len());
    Ok(())
}

const LIGHT_STAGE_METRICS: [(&str, &str); 5] = [
    ("live.light.in_p50_us", "live.light.in_p99_us"),
    ("live.light.queue_p50_us", "live.light.queue_p99_us"),
    ("live.light.persist_p50_us", "live.light.persist_p99_us"),
    ("live.light.dispatch_p50_us", "live.light.dispatch_p99_us"),
    ("live.light.out_p50_us", "live.light.out_p99_us"),
];

const HEAVY_STAGE_METRICS: [(&str, &str); 5] = [
    ("live.heavy.in_p50_us", "live.heavy.in_p99_us"),
    ("live.heavy.queue_p50_us", "live.heavy.queue_p99_us"),
    ("live.heavy.persist_p50_us", "live.heavy.persist_p99_us"),
    ("live.heavy.dispatch_p50_us", "live.heavy.dispatch_p99_us"),
    ("live.heavy.out_p50_us", "live.heavy.out_p99_us"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(
        conn: usize,
        phase: Phase,
        due: Instant,
        read_after: Option<Duration>,
        ok: bool,
    ) -> Sent {
        Sent {
            conn,
            kind: Kind::Members,
            phase,
            due,
            written: Some(due),
            read: read_after.map(|d| due + d),
            ok,
        }
    }

    #[test]
    fn late_wakeups_charge_each_request_from_its_own_due_time() {
        let plan: Vec<(Duration, usize, Kind)> = [0u64, 100, 200, 900]
            .iter()
            .map(|&us| (Duration::from_micros(us), 0, Kind::Members))
            .collect();
        let start = Instant::now();
        let mut next = 0;
        // Waking 500 µs in releases the three overdue requests at once.
        let out = release(&plan, start, &mut next, start + Duration::from_micros(500));
        assert_eq!(next, 3);
        let late: Vec<f64> = out.iter().map(|&(_, _, l)| l).collect();
        assert_eq!(late, vec![0.5, 0.4, 0.3]);
        assert_eq!(out[1].1, start + Duration::from_micros(100));
        // Nothing more is due until 900 µs; then the last one is on time.
        assert!(release(&plan, start, &mut next, start + Duration::from_micros(800)).is_empty());
        let out = release(&plan, start, &mut next, start + Duration::from_micros(900));
        assert_eq!(out, vec![(3, start + Duration::from_micros(900), 0.0)]);
        assert_eq!(next, plan.len());
    }

    #[test]
    fn failures_count_unanswered_wrong_and_late_requests() {
        let t = Instant::now();
        let ms = Duration::from_millis;
        let log = vec![
            sent(0, Phase::Light, t, Some(ms(2)), true),
            sent(0, Phase::Heavy, t, Some(ms(3)), true),
            sent(1, Phase::Heavy, t, None, false),
            sent(1, Phase::Heavy, t, Some(ms(1)), false),
            sent(1, Phase::Heavy, t, Some(DEADLINE + ms(1)), true),
            sent(0, Phase::Burst, t, Some(ms(1)), true),
        ];
        let mut rep = Rep::default();
        rep.tally(&log);
        assert_eq!((rep.attempted, rep.failed), (6, 3));
        assert_eq!(rep.light_ms, vec![2.0]);
        assert_eq!(rep.heavy_ms, vec![3.0]);
    }

    #[test]
    fn responses_must_match_their_request_kind_in_order() {
        let mut seen = 0;
        let profile = |n: usize| {
            let mut view = bob().store().active_account().expect("bob").profile_view();
            view.comments = vec!["x".into(); n];
            Response::Profile(view)
        };
        assert!(Kind::Profile.accepts(&profile(2), &mut seen));
        assert!(Kind::Profile.accepts(&profile(3), &mut seen));
        assert!(
            !Kind::Profile.accepts(&profile(1), &mut seen),
            "comments went backwards"
        );
        assert!(Kind::Comment.accepts(&Response::CommentWritten, &mut seen));
        assert!(!Kind::Comment.accepts(&Response::MessageWritten, &mut seen));
        assert!(Kind::Members.accepts(&Response::MemberList(vec!["bob".into()]), &mut seen));
        assert!(!Kind::Members.accepts(&Response::MemberList(vec![]), &mut seen));
    }

    #[test]
    fn spans_pair_with_requests_by_connection_position() {
        let t = Instant::now();
        let us = Duration::from_micros;
        // Client 0 sent two requests, client 1 one; interleaved.
        let log = vec![
            sent(0, Phase::Light, t, Some(us(1000)), true),
            sent(1, Phase::Heavy, t, Some(us(2000)), true),
            sent(0, Phase::Heavy, t, Some(us(3000)), true),
        ];
        let span = |r0: u64, d0: u64| ServerSpan {
            record: (t + us(r0), t + us(r0 + 10)),
            dispatch: (t + us(d0), t + us(d0 + 5)),
        };
        let mut spans = SpanLog::default();
        spans.device_of.insert(70, 1); // server conn 70 = client 0
        spans.device_of.insert(71, 2); // server conn 71 = client 1
        spans
            .by_conn
            .insert(70, vec![span(100, 200), span(300, 400)]);
        spans.by_conn.insert(71, vec![span(500, 600)]);
        let mut problems = Vec::new();
        let traced = attribute(&log, &spans, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
        // in, queue, persist, dispatch, out of the light request.
        let light: Vec<f64> = traced.light.stage.iter().map(|v| v[0]).collect();
        assert_eq!(light, vec![100.0, 90.0, 10.0, 5.0, 795.0]);
        assert_eq!(traced.heavy.stage[0], vec![300.0, 500.0]);
        assert_eq!(traced.journaled, 0);

        // A dispatch count that disagrees with the client's is reported.
        spans
            .by_conn
            .get_mut(&71)
            .expect("conn 71")
            .push(span(700, 800));
        let mut problems = Vec::new();
        attribute(&log, &spans, &mut problems);
        assert_eq!(problems.len(), 1, "{problems:?}");
    }

    #[test]
    fn smoke_live_run_reports_every_metric() {
        let size = LiveSize {
            conns: 2,
            light_rate: 200.0,
            light: Duration::from_millis(200),
            heavy_rate: 2_000.0,
            heavy: Duration::from_millis(300),
            burst: 300,
            window: 8,
        };
        for traced in [false, true] {
            let dir = std::env::temp_dir()
                .join(format!("perfbench-live-{}-{traced}", std::process::id()));
            std::fs::create_dir_all(&dir).expect("scratch dir");
            let mut out = run_live(&size, 5, 0.0, traced, &dir).expect("live run");
            let _ = std::fs::remove_dir_all(&dir);
            // A loaded test host may delay the generator; only the
            // response checks are asserted here.
            out.problems
                .retain(|p| !p.starts_with("generator fell behind"));
            let line = out.result_line(traced);
            assert!(out.correct(), "{:?}", out.problems);
            assert_eq!(out.failed, 0);
            assert!(line.contains("\"correct\":true"), "{line}");
        }
    }
}

/// Known-defect ledger entry, run on demand: a client that reads
/// continuously is shed once profile responses outgrow the reactor's
/// per-round queue accounting. Run with
/// `cargo test --release --manifest-path perfbench/Cargo.toml -- --ignored --nocapture`.
#[cfg(test)]
mod ledger {
    use super::*;

    #[test]
    #[ignore = "reproduces a known defect; prints its numbers"]
    fn reactor_sheds_a_continuously_reading_client() {
        let dir = std::env::temp_dir().join(format!("perfbench-ledger-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let path = dir.join("ledger.journal");
        let server = Server::spawn(false, &path).expect("server");
        let clients = (0..2)
            .map(|c| Client::connect(server.addr(), c + 1).expect("client"))
            .collect();
        let mut rng = Xoshiro256pp::from_seed(1);
        let mut plan = schedule(&mut rng, 2_000.0, Duration::from_secs(20), 2);
        for entry in &mut plan {
            entry.2 = if rng.bounded_u64(100) < 5 {
                Kind::Comment
            } else {
                Kind::Profile
            };
        }
        let mut gen = Generator::new(clients, plan.len());
        gen.open_loop(&plan, Phase::Heavy);
        let stats = server.stats();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        let first_failure = gen.log.iter().position(|s| !s.succeeded());
        let comments_before = first_failure.map_or(0, |i| {
            gen.log[..i]
                .iter()
                .filter(|s| s.kind == Kind::Comment)
                .count()
        });
        let at = first_failure.map(|i| plan[i].0.as_secs_f64());
        println!(
            "shed connections {} (farewells seen {}), first failed request at {at:?} s after {comments_before} comments, {} of {} requests failed",
            stats.shed,
            gen.shed,
            gen.log.iter().filter(|s| !s.succeeded()).count(),
            gen.log.len()
        );
        assert!(
            stats.shed > 0,
            "the defect no longer reproduces: update the ledger"
        );
    }
}
