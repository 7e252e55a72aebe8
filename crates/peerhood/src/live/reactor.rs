//! The live reactor: a non-blocking TCP daemon around the sans-IO core,
//! and the one driver that runs it over real sockets.
//!
//! # Architecture
//!
//! [`LiveServer`] splits work across `1 + listen_shards` threads:
//!
//! * **Shard threads** (`ph-live-shard-N`) each own a clone of the
//!   non-blocking listener (accepts spread across shards) plus a disjoint
//!   set of connections — accepted ones and the ones they dialed for the
//!   core — polled non-blockingly. A shard does *only* socket work: accept,
//!   dial, read, frame-reassemble, write — never application logic — so one
//!   shard round stays short and no peer can block another with slow reads
//!   or writes.
//! * The **core thread** (`ph-live-core`) owns the [`Daemon`] state
//!   machine, the served [`Application`], its [`Library`] and timers. It
//!   sleeps on a channel of batched shard messages with a timeout derived
//!   from the next daemon wake / app timer / checkpoint deadline.
//!
//! The split keeps the daemon core single-threaded (exactly like the
//! simulator driver) while socket readiness is handled concurrently — the
//! sans-IO contract is the channel protocol between the two halves.
//!
//! # Directory
//!
//! Every server is a member of an in-process directory
//! ([`LiveNet`](super::LiveNet)); a standalone server is a directory of
//! one. A member's [`DeviceId`] is its index there. Discovery is answered
//! from the directory: an inquiry finds every other member, and service
//! queries and replies are posted straight to the target member's core.
//! An `OpenConnection` to a member makes a shard dial its listen address,
//! send the [`Handshake`] and wait, at most
//! [`LiveConfig::handshake_timeout`], for the verdict. Thin clients are
//! not members: they are never discovered, their service lists are empty
//! and they cannot be dialed.
//!
//! # Backpressure contract
//!
//! Every connection has a bounded outbound byte queue
//! ([`LiveConfig::queue_cap`]). A write that does not fit is never
//! retried synchronously and never blocks the shard: the connection is
//! **shed** — its queue is dropped and a farewell control frame carrying
//! [`ErrorKind::Overloaded`] is sent as soon as the socket drains. Idle
//! connections (no inbound traffic for [`LiveConfig::idle_timeout`]) are
//! closed the same way with [`ErrorKind::Timeout`]. In both cases the
//! daemon observes a plain `LinkDown`, exactly as if the radio had faded;
//! so does the daemon at the other end when the peer is a member, since a
//! farewell frame ends the link instead of reaching the application.
//!
//! # Persistence
//!
//! The reactor itself is store-agnostic: a [`LivePersist`] hook sees every
//! inbound application frame (for incremental append) and is asked for a
//! checkpoint every [`LiveConfig::snapshot_cadence`] plus once at orderly
//! shutdown. The community layer implements the hook with its journal.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use codec::{Bytes, Wire};

use netsim::{SimTime, Technology};

use crate::app::{AppCtx, Application};
use crate::config::DaemonConfig;
use crate::daemon::{Daemon, DaemonInput, DaemonOutput};
use crate::error::ErrorKind;
use crate::library::Library;
use crate::plugin::{PluginCommand, PluginEvent};
use crate::types::{AttemptId, DeviceId, DeviceInfo, LinkId};

use super::config::LiveConfig;
use super::wire::{
    farewell, frame, parse_farewell, FrameBuf, Handshake, VERDICT_ACCEPT, VERDICT_REJECT,
};

/// Upper bits of a connection id hold the owning shard index.
const SHARD_SHIFT: u32 = 48;
/// How long a dying connection may linger to flush its farewell frame.
/// Generous on purpose: a shed client's kernel buffers are by definition
/// full, and the farewell is only observable once the client drains them.
const FAREWELL_LINGER: Duration = Duration::from_secs(5);
/// Longest core-thread sleep (bounds shutdown latency).
const CORE_NAP_MAX: Duration = Duration::from_millis(25);
/// Shard sleep while its sockets are quiet.
const SHARD_NAP: Duration = Duration::from_millis(1);

/// Persistence hook driven by the reactor's core thread.
///
/// `record` sees every inbound application frame *before* it reaches the
/// daemon (incremental append: the implementation decides which frames are
/// mutations worth journalling); `checkpoint` is invoked every
/// [`LiveConfig::snapshot_cadence`] and once at orderly shutdown, and
/// typically rewrites the journal as a compact snapshot.
pub trait LivePersist<A>: Send {
    /// Observes one inbound application frame at `now`.
    fn record(&mut self, frame: &[u8], now: SimTime);
    /// Takes a full snapshot of the served application's state.
    fn checkpoint(&mut self, app: &A);
}

/// A point-in-time copy of the reactor's counters (all monotonic except
/// `active`, which is a gauge).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveStats {
    /// Sockets accepted since start.
    pub accepted: u64,
    /// Currently open connections (any state, dialed ones included).
    pub active: u64,
    /// Sockets dropped before completing a valid handshake.
    pub handshake_failures: u64,
    /// Handshakes the daemon rejected (unknown service, …).
    pub rejected: u64,
    /// Application frames received on established connections.
    pub frames_in: u64,
    /// Application frames the daemon sent.
    pub frames_out: u64,
    /// Payload bytes read from sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// Connections shed by backpressure ([`ErrorKind::Overloaded`]).
    pub shed: u64,
    /// Connections closed for inbound idleness ([`ErrorKind::Timeout`]).
    pub idle_closed: u64,
}

/// Shared atomic counters behind [`LiveStats`]. SeqCst everywhere: these
/// are low-rate bumps, and the strict ordering keeps `ph-lint` honest.
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    active: AtomicU64,
    handshake_failures: AtomicU64,
    rejected: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    shed: AtomicU64,
    idle_closed: AtomicU64,
}

impl Counters {
    fn bump(field: &AtomicU64) {
        field.fetch_add(1, Ordering::SeqCst);
    }

    fn snapshot(&self) -> LiveStats {
        LiveStats {
            accepted: self.accepted.load(Ordering::SeqCst),
            active: self.active.load(Ordering::SeqCst),
            handshake_failures: self.handshake_failures.load(Ordering::SeqCst),
            rejected: self.rejected.load(Ordering::SeqCst),
            frames_in: self.frames_in.load(Ordering::SeqCst),
            frames_out: self.frames_out.load(Ordering::SeqCst),
            bytes_in: self.bytes_in.load(Ordering::SeqCst),
            bytes_out: self.bytes_out.load(Ordering::SeqCst),
            shed: self.shed.load(Ordering::SeqCst),
            idle_closed: self.idle_closed.load(Ordering::SeqCst),
        }
    }
}

/// One member of a live directory: what the others need to find, dial
/// and message it.
pub(super) struct Member<A> {
    name: String,
    addr: SocketAddr,
    core: Sender<Vec<CoreMsg<A>>>,
}

/// The members of one [`LiveNet`](super::LiveNet), indexed by `DeviceId`.
pub(super) type Directory<A> = Arc<Mutex<Vec<Member<A>>>>;

/// Locks the directory. Members are only ever appended, so a panic while
/// the lock was held cannot have left the list half-updated.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Messages to the core thread (batched: one `Vec` per sender round).
enum CoreMsg<A> {
    /// A socket completed its handshake frame.
    Hello { conn: u64, hs: Handshake },
    /// An application frame arrived on an established connection.
    Frame { conn: u64, payload: Vec<u8> },
    /// A plugin event for the daemon as it stands: a dial's outcome, a
    /// lost connection, or discovery from another member.
    Event(PluginEvent),
    /// A [`LiveServer::with_app`] call.
    Script(Script<A>),
}

/// Work run on the core thread on behalf of [`LiveServer::with_app`].
type Script<A> = Box<dyn FnOnce(&mut Core<A>) + Send>;

/// Core → shard commands (batched: one `Vec` per core round).
enum ShardCmd {
    /// Dial a member: connect, send the handshake, await its verdict.
    Dial {
        attempt: AttemptId,
        addr: SocketAddr,
        hs: Handshake,
    },
    /// Answer a pending handshake.
    Verdict {
        conn: u64,
        accept: bool,
        reason: String,
    },
    /// Queue one application frame for the peer.
    Send { conn: u64, payload: Vec<u8> },
    /// Orderly close: flush what is queued, then drop.
    Close { conn: u64 },
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ConnState {
    /// Accepted; waiting for the handshake frame.
    Greeting,
    /// Handshake forwarded to the core; awaiting the daemon's verdict.
    AwaitingVerdict,
    /// Dialed; handshake sent, awaiting the peer's verdict.
    Dialing { attempt: AttemptId },
    /// Verdict sent or received, application traffic flowing.
    Established,
    /// Flushing final bytes (farewell or orderly close); input is dropped.
    Dying { deadline: Instant },
}

/// How a connection ended, which decides what the core is told.
enum End {
    /// Orderly EOF from the peer.
    Eof,
    /// Socket error, bad frame, farewell or missed deadline.
    Error(&'static str),
    /// Nothing to tell: the core already knows.
    Quiet,
}

struct Conn {
    stream: TcpStream,
    inbuf: FrameBuf,
    /// Outbound frames not yet fully written; `front_off` bytes of the
    /// front one already went out.
    out: VecDeque<Vec<u8>>,
    front_off: usize,
    /// Total unwritten bytes across `out` — the backpressure gauge.
    queued: usize,
    state: ConnState,
    opened: Instant,
    last_in: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> io::Result<Self> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let now = Instant::now();
        Ok(Conn {
            stream,
            inbuf: FrameBuf::new(),
            out: VecDeque::new(),
            front_off: 0,
            queued: 0,
            state: ConnState::Greeting,
            opened: now,
            last_in: now,
        })
    }

    fn push(&mut self, msg: Vec<u8>) {
        self.queued += msg.len();
        self.out.push_back(msg);
    }

    /// Starts the linger: flush what is queued, then drop.
    fn die(&mut self) {
        self.state = ConnState::Dying {
            deadline: Instant::now() + FAREWELL_LINGER,
        };
    }

    /// Drops queued output, queues a farewell carrying `kind` and starts
    /// the linger. A partly written frame is finished first, or the peer
    /// would lose the framing and never read the farewell.
    fn bid_farewell(&mut self, kind: ErrorKind) {
        self.out.truncate(usize::from(self.front_off > 0));
        self.queued = self.out.front().map_or(0, |f| f.len() - self.front_off);
        self.push(frame(&farewell(kind)));
        self.die();
    }

    /// Reads everything available; `Ok(true)` on orderly EOF.
    fn read_pump(&mut self, counters: &Counters) -> io::Result<bool> {
        let mut tmp = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => return Ok(true),
                Ok(n) => {
                    self.inbuf.extend(&tmp[..n]);
                    self.last_in = Instant::now();
                    counters.bytes_in.fetch_add(n as u64, Ordering::SeqCst);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes as much queued output as the socket accepts right now.
    fn write_pump(&mut self, counters: &Counters) -> io::Result<()> {
        loop {
            let (len, res) = match self.out.front() {
                None => break,
                Some(front) => (front.len(), self.stream.write(&front[self.front_off..])),
            };
            match res {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.front_off += n;
                    self.queued -= n;
                    counters.bytes_out.fetch_add(n as u64, Ordering::SeqCst);
                    if self.front_off == len {
                        self.out.pop_front();
                        self.front_off = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// One round of a dying connection: flush, then half-close and discard
    /// input. Closing a socket with unread input resets the connection and
    /// destroys the farewell in flight, so the socket is kept until the
    /// peer hangs up (`Ok(true)`) or the linger runs out.
    fn linger(&mut self, counters: &Counters) -> io::Result<bool> {
        self.write_pump(counters)?;
        if !self.out.is_empty() {
            return Ok(false);
        }
        self.stream.shutdown(Shutdown::Write)?;
        let eof = self.read_pump(counters)?;
        self.inbuf = FrameBuf::new();
        Ok(eof)
    }

    /// A protocol failure; counted when it ends a handshake we accepted.
    fn failed(&self, counters: &Counters, why: &'static str) -> End {
        if matches!(self.state, ConnState::Greeting | ConnState::AwaitingVerdict) {
            Counters::bump(&counters.handshake_failures);
        }
        End::Error(why)
    }

    /// One round of socket work on a connection that is not dying: read,
    /// pass complete frames on by state, enforce deadlines, flush. `Ok`
    /// says whether anything happened, `Err` how the connection ended.
    fn round<A>(
        &mut self,
        id: u64,
        counters: &Counters,
        idle_timeout: Duration,
        handshake_timeout: Duration,
        msgs: &mut Vec<CoreMsg<A>>,
    ) -> Result<bool, End> {
        let eof = self
            .read_pump(counters)
            .map_err(|_| End::Error("socket error"))?;
        let mut active = false;
        loop {
            if self.state == ConnState::AwaitingVerdict {
                break; // early frames stay buffered until the verdict
            }
            let f = match self.inbuf.pop() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                // The stream offset is unrecoverable after a bad header.
                Err(_) => return Err(self.failed(counters, "oversized frame header")),
            };
            active = true;
            match self.state {
                ConnState::Greeting => match Handshake::decode_exact(&f) {
                    Ok(hs) => {
                        self.state = ConnState::AwaitingVerdict;
                        msgs.push(CoreMsg::Hello { conn: id, hs });
                    }
                    Err(_) => return Err(self.failed(counters, "bad handshake")),
                },
                ConnState::Dialing { attempt } => {
                    let accepted = f.first() == Some(&VERDICT_ACCEPT);
                    let result = if accepted {
                        self.state = ConnState::Established;
                        self.last_in = Instant::now();
                        Ok(LinkId::new(id))
                    } else {
                        Err(String::from_utf8_lossy(f.get(1..).unwrap_or_default()).into_owned())
                    };
                    msgs.push(CoreMsg::Event(PluginEvent::ConnectResult {
                        attempt,
                        result,
                    }));
                    if !accepted {
                        return Err(End::Quiet);
                    }
                }
                _ if parse_farewell(&f).is_some() => return Err(End::Error("farewell")),
                _ => {
                    Counters::bump(&counters.frames_in);
                    msgs.push(CoreMsg::Frame {
                        conn: id,
                        payload: f,
                    });
                }
            }
        }
        if eof {
            return Err(End::Eof);
        }

        match self.state {
            ConnState::Greeting | ConnState::AwaitingVerdict | ConnState::Dialing { .. }
                if self.opened.elapsed() >= handshake_timeout =>
            {
                return Err(self.failed(counters, "handshake timed out"));
            }
            ConnState::Established if self.last_in.elapsed() >= idle_timeout => {
                self.bid_farewell(ErrorKind::Timeout);
                Counters::bump(&counters.idle_closed);
                msgs.push(CoreMsg::Event(PluginEvent::LinkDown {
                    link: LinkId::new(id),
                }));
                active = true;
            }
            _ => {}
        }

        // Flush queued output. A failed write is a dead socket.
        let had_out = !self.out.is_empty();
        self.write_pump(counters)
            .map_err(|_| End::Error("socket error"))?;
        Ok(active || had_out)
    }

    /// Tells the core how the connection ended, if it is owed word of it.
    fn report<A>(&self, id: u64, end: End, msgs: &mut Vec<CoreMsg<A>>) {
        let link = LinkId::new(id);
        let event = match (self.state, end) {
            (ConnState::Greeting | ConnState::Dying { .. }, _) | (_, End::Quiet) => return,
            (ConnState::Dialing { attempt }, End::Eof) => PluginEvent::ConnectResult {
                attempt,
                result: Err("connection closed during setup".into()),
            },
            (ConnState::Dialing { attempt }, End::Error(why)) => PluginEvent::ConnectResult {
                attempt,
                result: Err(why.into()),
            },
            (_, End::Eof) => PluginEvent::PeerClosed { link },
            (_, End::Error(_)) => PluginEvent::LinkDown { link },
        };
        msgs.push(CoreMsg::Event(event));
    }
}

/// Everything one shard thread needs.
struct Shard {
    idx: u64,
    listener: TcpListener,
    conns: BTreeMap<u64, Conn>,
    next_id: u64,
    queue_cap: usize,
    idle_timeout: Duration,
    handshake_timeout: Duration,
    counters: Arc<Counters>,
}

impl Shard {
    fn run<A>(
        mut self,
        cmd_rx: Receiver<Vec<ShardCmd>>,
        core_tx: Sender<Vec<CoreMsg<A>>>,
        stop: Arc<AtomicBool>,
    ) {
        while !stop.load(Ordering::SeqCst) {
            let mut msgs = Vec::new();
            let mut active = false;

            // 1. Apply core commands.
            loop {
                match cmd_rx.try_recv() {
                    Ok(batch) => {
                        active = true;
                        for cmd in batch {
                            self.apply(cmd, &mut msgs);
                        }
                    }
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return,
                }
            }

            // 2. Accept new sockets.
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        active = true;
                        if let Ok(conn) = Conn::new(stream) {
                            self.insert(conn);
                            Counters::bump(&self.counters.accepted);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }

            // 3. Per-connection socket work.
            let ids: Vec<u64> = self.conns.keys().copied().collect();
            for id in ids {
                active |= self.service(id, &mut msgs);
            }

            if !msgs.is_empty() {
                active = true;
                if core_tx.send(msgs).is_err() {
                    return;
                }
            }
            if !active {
                std::thread::sleep(SHARD_NAP);
            }
        }
    }

    /// Adopts a connection under a fresh id that names this shard.
    fn insert(&mut self, conn: Conn) {
        let id = (self.idx << SHARD_SHIFT) | self.next_id;
        self.next_id += 1;
        self.conns.insert(id, conn);
        Counters::bump(&self.counters.active);
    }

    /// One round of socket work for one connection. Returns whether
    /// anything happened.
    fn service<A>(&mut self, id: u64, msgs: &mut Vec<CoreMsg<A>>) -> bool {
        let Some(c) = self.conns.get_mut(&id) else {
            return false;
        };
        let step = match c.state {
            ConnState::Dying { deadline } => match c.linger(&self.counters) {
                Ok(false) if Instant::now() < deadline => Ok(false),
                _ => Err(End::Quiet),
            },
            _ => c.round(
                id,
                &self.counters,
                self.idle_timeout,
                self.handshake_timeout,
                msgs,
            ),
        };
        match step {
            Ok(active) => active,
            Err(end) => {
                c.report(id, end, msgs);
                self.drop_conn(id);
                true
            }
        }
    }

    fn apply<A>(&mut self, cmd: ShardCmd, msgs: &mut Vec<CoreMsg<A>>) {
        match cmd {
            ShardCmd::Dial { attempt, addr, hs } => {
                // Members listen on reachable addresses; the connect blocks
                // this shard for at most the handshake deadline.
                match TcpStream::connect_timeout(&addr, self.handshake_timeout).and_then(Conn::new)
                {
                    Ok(mut c) => {
                        c.push(frame(&hs.encode()));
                        c.state = ConnState::Dialing { attempt };
                        self.insert(c);
                    }
                    Err(e) => msgs.push(CoreMsg::Event(PluginEvent::ConnectResult {
                        attempt,
                        result: Err(format!("tcp connect failed: {e}")),
                    })),
                }
            }
            ShardCmd::Verdict {
                conn,
                accept,
                reason,
            } => {
                if let Some(c) = self.conns.get_mut(&conn) {
                    if c.state != ConnState::AwaitingVerdict {
                        return;
                    }
                    if accept {
                        c.push(frame(&[VERDICT_ACCEPT]));
                        c.state = ConnState::Established;
                        c.last_in = Instant::now();
                    } else {
                        let mut v = vec![VERDICT_REJECT];
                        v.extend_from_slice(reason.as_bytes());
                        c.push(frame(&v));
                        c.die();
                    }
                }
            }
            ShardCmd::Send { conn, payload } => {
                if let Some(c) = self.conns.get_mut(&conn) {
                    if c.state != ConnState::Established {
                        return; // already dying or mid-handshake: drop silently
                    }
                    let msg = frame(&payload);
                    if self.queue_cap > 0 && c.queued + msg.len() > self.queue_cap {
                        // Backpressure: shed this peer rather than queue
                        // without bound or block the shard.
                        c.bid_farewell(ErrorKind::Overloaded);
                        Counters::bump(&self.counters.shed);
                        msgs.push(CoreMsg::Event(PluginEvent::LinkDown {
                            link: LinkId::new(conn),
                        }));
                    } else {
                        c.push(msg);
                    }
                }
            }
            ShardCmd::Close { conn } => {
                if let Some(c) = self.conns.get_mut(&conn) {
                    if !matches!(c.state, ConnState::Dying { .. }) {
                        c.die();
                    }
                }
            }
        }
    }

    fn drop_conn(&mut self, id: u64) {
        if let Some(c) = self.conns.remove(&id) {
            let _ = c.stream.shutdown(Shutdown::Both);
            self.counters.active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The core thread's state: daemon, application, library, timers.
struct Core<A> {
    daemon: Daemon,
    app: A,
    lib: Library,
    name: String,
    timers: Vec<(SimTime, u64)>,
    wake_at: Option<SimTime>,
    start: Instant,
    work: VecDeque<DaemonInput>,
    /// Outgoing command batch per shard, flushed once per round.
    cmds: Vec<Vec<ShardCmd>>,
    counters: Arc<Counters>,
    persist: Option<Box<dyn LivePersist<A>>>,
    /// This member's index in `directory`, and so its `DeviceId`.
    me: u64,
    directory: Directory<A>,
}

impl<A: Application> Core<A> {
    fn new(
        config: &LiveConfig,
        name: String,
        app: A,
        me: u64,
        directory: Directory<A>,
        counters: Arc<Counters>,
        persist: Option<Box<dyn LivePersist<A>>>,
    ) -> Self {
        let info = DeviceInfo::new(DeviceId::new(me), name.clone(), [Technology::Wlan]);
        let mut daemon_config = DaemonConfig::new(info)
            .with_inquiry_interval(Technology::Wlan, config.inquiry_interval)
            .with_neighbor_ttl(config.neighbor_ttl)
            .with_auto_service_discovery(config.auto_service_discovery);
        if let Some(policy) = config.recovery {
            daemon_config = daemon_config.with_recovery(policy);
        }
        if let Some(gossip) = config.gossip.clone() {
            daemon_config = daemon_config.with_gossip(gossip);
        }
        Core {
            daemon: Daemon::new(daemon_config),
            app,
            lib: Library::new(),
            name,
            timers: Vec::new(),
            wake_at: Some(SimTime::ZERO),
            start: Instant::now(),
            work: VecDeque::new(),
            cmds: (0..config.listen_shards).map(|_| Vec::new()).collect(),
            counters,
            persist,
            me,
            directory,
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_micros(self.start.elapsed().as_micros() as u64)
    }

    fn run(
        mut self,
        rx: Receiver<Vec<CoreMsg<A>>>,
        txs: Vec<Sender<Vec<ShardCmd>>>,
        cadence: Duration,
        stop: Arc<AtomicBool>,
    ) -> A {
        let mut next_checkpoint = self.persist.as_ref().map(|_| Instant::now() + cadence);

        self.app_callback(|app, ctx| app.on_start(ctx));
        self.run_work();
        self.flush(&txs);

        loop {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            match rx.recv_timeout(self.nap(next_checkpoint)) {
                Ok(batch) => {
                    self.ingest(batch);
                    // Soak up anything else already queued before working.
                    while let Ok(batch) = rx.try_recv() {
                        self.ingest(batch);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => break,
            }

            let now = self.now();
            if self.wake_at.is_some_and(|w| now >= w) {
                self.wake_at = None;
                self.work.push_back(DaemonInput::Tick);
            }
            self.run_work();
            self.fire_timers();
            self.flush(&txs);

            if let Some(due) = next_checkpoint {
                if Instant::now() >= due {
                    if let Some(p) = self.persist.as_mut() {
                        p.checkpoint(&self.app);
                    }
                    next_checkpoint = Some(Instant::now() + cadence);
                }
            }
        }

        // Final checkpoint on orderly shutdown.
        if let Some(p) = self.persist.as_mut() {
            p.checkpoint(&self.app);
        }
        self.app
    }

    /// How long to sleep on the channel: until the next daemon wake, app
    /// timer or checkpoint, clamped to keep shutdown responsive.
    fn nap(&self, next_checkpoint: Option<Instant>) -> Duration {
        let now = self.now();
        let until =
            |at: SimTime| Duration::from_micros(at.as_micros().saturating_sub(now.as_micros()));
        let mut t = CORE_NAP_MAX;
        if let Some(w) = self.wake_at {
            t = t.min(until(w));
        }
        if let Some(at) = self.timers.iter().map(|(at, _)| *at).min() {
            t = t.min(until(at));
        }
        if let Some(due) = next_checkpoint {
            t = t.min(due.saturating_duration_since(Instant::now()));
        }
        t.max(Duration::from_micros(100))
    }

    fn ingest(&mut self, batch: Vec<CoreMsg<A>>) {
        for msg in batch {
            match msg {
                CoreMsg::Hello { conn, hs } => {
                    let name = self
                        .member(hs.from, |m| m.name.clone())
                        .unwrap_or_else(|| hs.from.to_string());
                    let device = DeviceInfo::new(hs.from, name, [Technology::Wlan]);
                    self.work
                        .push_back(DaemonInput::Plugin(PluginEvent::IncomingConnection {
                            link: LinkId::new(conn),
                            device,
                            service: hs.service,
                            technology: Technology::Wlan,
                            resume: hs.resume,
                        }));
                }
                CoreMsg::Frame { conn, payload } => {
                    let now = self.now();
                    if let Some(p) = self.persist.as_mut() {
                        p.record(&payload, now);
                    }
                    self.work.push_back(DaemonInput::Plugin(PluginEvent::Frame {
                        link: LinkId::new(conn),
                        payload: Bytes::from(payload),
                    }));
                }
                CoreMsg::Event(event) => self.work.push_back(DaemonInput::Plugin(event)),
                CoreMsg::Script(script) => script(self),
            }
        }
    }

    /// Processes queued daemon inputs to quiescence.
    fn run_work(&mut self) {
        while let Some(input) = self.work.pop_front() {
            let now = self.now();
            let mut outs = Vec::new();
            self.daemon.handle(now, input, &mut outs);
            for out in outs {
                match out {
                    DaemonOutput::Plugin(cmd) => self.exec(cmd),
                    DaemonOutput::App(ev) => {
                        self.app_callback(|app, ctx| app.on_event(ev, ctx));
                    }
                    DaemonOutput::WakeAt(t) => {
                        self.wake_at = Some(self.wake_at.map_or(t, |w| w.min(t)));
                    }
                }
            }
        }
    }

    /// Fires due application timers (and any daemon work they enqueue).
    fn fire_timers(&mut self) {
        loop {
            let now = self.now();
            let (due, keep): (Vec<_>, Vec<_>) =
                self.timers.drain(..).partition(|(at, _)| now >= *at);
            self.timers = keep;
            if due.is_empty() {
                break;
            }
            for (_, token) in due {
                self.app_callback(|app, ctx| app.on_timer(token, ctx));
            }
            self.run_work();
        }
    }

    fn app_callback<R>(&mut self, f: impl FnOnce(&mut A, &mut AppCtx<'_>) -> R) -> R {
        let now = self.now();
        let mut timers = Vec::new();
        let r = {
            let mut ctx = AppCtx::new(now, &self.name, &mut self.lib, &mut timers, None);
            f(&mut self.app, &mut ctx)
        };
        self.timers.extend(timers);
        for req in self.lib.drain() {
            self.work.push_back(DaemonInput::App(req));
        }
        r
    }

    /// Runs `f` on the directory entry of `device` if it is another member.
    fn member<R>(&self, device: DeviceId, f: impl FnOnce(&Member<A>) -> R) -> Option<R> {
        if device.raw() == self.me {
            return None;
        }
        lock(&self.directory).get(device.raw() as usize).map(f)
    }

    /// Routes one daemon plugin command. Discovery is answered from the
    /// directory; connection commands become shard commands.
    fn exec(&mut self, cmd: PluginCommand) {
        let me = DeviceId::new(self.me);
        match cmd {
            PluginCommand::StartInquiry { technology } => {
                let found: Vec<DeviceInfo> = lock(&self.directory)
                    .iter()
                    .enumerate()
                    .map(|(j, m)| {
                        DeviceInfo::new(DeviceId::new(j as u64), m.name.clone(), [technology])
                    })
                    .filter(|info| info.id != me)
                    .collect();
                for device in found {
                    self.work
                        .push_back(DaemonInput::Plugin(PluginEvent::InquiryResponse {
                            technology,
                            device,
                        }));
                }
                self.work
                    .push_back(DaemonInput::Plugin(PluginEvent::InquiryComplete {
                        technology,
                    }));
            }
            PluginCommand::QueryServices { device, .. } => {
                let query = vec![CoreMsg::Event(PluginEvent::ServiceQuery { device: me })];
                let posted = self.member(device, |m| m.core.send(query).is_ok());
                if posted != Some(true) {
                    // Thin clients (and stopped members) expose no services.
                    self.work
                        .push_back(DaemonInput::Plugin(PluginEvent::ServiceReply {
                            device,
                            services: Vec::new(),
                        }));
                }
            }
            PluginCommand::ServiceQueryReply { device, services } => {
                let reply = vec![CoreMsg::Event(PluginEvent::ServiceReply {
                    device: me,
                    services,
                })];
                let _ = self.member(device, |m| m.core.send(reply));
            }
            PluginCommand::OpenConnection {
                attempt,
                device,
                service,
                resume,
                ..
            } => match self.member(device, |m| m.addr) {
                Some(addr) => {
                    let hs = Handshake {
                        from: me,
                        service,
                        resume,
                    };
                    if let Some(batch) = self.cmds.first_mut() {
                        batch.push(ShardCmd::Dial { attempt, addr, hs });
                    }
                }
                None => self
                    .work
                    .push_back(DaemonInput::Plugin(PluginEvent::ConnectResult {
                        attempt,
                        result: Err("live server cannot dial thin clients".into()),
                    })),
            },
            PluginCommand::AcceptConnection { link } => self.cmd(
                link,
                ShardCmd::Verdict {
                    conn: link.raw(),
                    accept: true,
                    reason: String::new(),
                },
            ),
            PluginCommand::RejectConnection { link, reason } => {
                Counters::bump(&self.counters.rejected);
                self.cmd(
                    link,
                    ShardCmd::Verdict {
                        conn: link.raw(),
                        accept: false,
                        reason,
                    },
                );
            }
            PluginCommand::SendFrame { link, payload } => {
                Counters::bump(&self.counters.frames_out);
                self.cmd(
                    link,
                    ShardCmd::Send {
                        conn: link.raw(),
                        payload: payload.to_vec(),
                    },
                );
            }
            PluginCommand::CloseLink { link } => {
                self.cmd(link, ShardCmd::Close { conn: link.raw() });
            }
        }
    }

    fn cmd(&mut self, link: LinkId, cmd: ShardCmd) {
        let shard = (link.raw() >> SHARD_SHIFT) as usize;
        if let Some(batch) = self.cmds.get_mut(shard) {
            batch.push(cmd);
        }
    }

    fn flush(&mut self, txs: &[Sender<Vec<ShardCmd>>]) {
        for (i, batch) in self.cmds.iter_mut().enumerate() {
            if !batch.is_empty() {
                let _ = txs[i].send(std::mem::take(batch));
            }
        }
    }
}

/// A running live daemon: `listen_shards` socket threads plus one core
/// thread around the sans-IO [`Daemon`] and the served [`Application`].
///
/// Built from a [`LiveConfig`] via [`LiveServer::spawn`] (or
/// [`LiveConfig::serve`]) as a standalone server, or via
/// [`LiveNet::serve`](super::LiveNet::serve) as one member of a
/// neighborhood; scripted through [`LiveServer::with_app`]; stopped with
/// [`LiveServer::shutdown`], which returns the application (with all the
/// state it accumulated).
///
/// See the [module docs](self) for the reactor model, the directory and
/// the backpressure/persistence contracts.
pub struct LiveServer<A> {
    addr: SocketAddr,
    stats: Arc<Counters>,
    stop: Arc<AtomicBool>,
    shards: Vec<JoinHandle<()>>,
    core: JoinHandle<A>,
    /// The core thread's inbox, for [`LiveServer::with_app`].
    inbox: Sender<Vec<CoreMsg<A>>>,
}

impl<A: Application + Send + 'static> LiveServer<A> {
    /// Starts a server for `app` under `config`, with no persistence.
    ///
    /// # Errors
    ///
    /// Returns any error from binding the listener or spawning threads.
    pub fn spawn(config: LiveConfig, name: impl Into<String>, app: A) -> io::Result<Self> {
        Self::spawn_with(config, name, app, None)
    }

    /// Starts a server with an optional persistence hook (the hook's
    /// `record` sees every inbound frame; `checkpoint` runs every
    /// [`LiveConfig::snapshot_cadence`] and at shutdown).
    ///
    /// # Errors
    ///
    /// Returns any error from binding the listener or spawning threads.
    pub fn spawn_with(
        config: LiveConfig,
        name: impl Into<String>,
        app: A,
        persist: Option<Box<dyn LivePersist<A>>>,
    ) -> io::Result<Self> {
        Self::boot(config, name.into(), app, persist, Directory::default())
    }

    /// Starts a server as the next member of `directory`.
    pub(super) fn boot(
        config: LiveConfig,
        name: String,
        app: A,
        persist: Option<Box<dyn LivePersist<A>>>,
        directory: Directory<A>,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(config.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let counters = Arc::new(Counters::default());
        let stop = Arc::new(AtomicBool::new(false));
        let (core_tx, core_rx) = mpsc::channel::<Vec<CoreMsg<A>>>();

        let mut shard_txs = Vec::new();
        let mut shards = Vec::new();
        for idx in 0..config.listen_shards {
            let (tx, rx) = mpsc::channel::<Vec<ShardCmd>>();
            shard_txs.push(tx);
            let shard = Shard {
                idx: idx as u64,
                listener: listener.try_clone()?,
                conns: BTreeMap::new(),
                next_id: 0,
                queue_cap: config.queue_cap,
                idle_timeout: config.idle_timeout,
                handshake_timeout: config.handshake_timeout,
                counters: Arc::clone(&counters),
            };
            let core_tx = core_tx.clone();
            let stop = Arc::clone(&stop);
            shards.push(
                std::thread::Builder::new()
                    .name(format!("ph-live-shard-{idx}"))
                    .spawn(move || shard.run(rx, core_tx, stop))?,
            );
        }

        let me = {
            let mut members = lock(&directory);
            members.push(Member {
                name: name.clone(),
                addr,
                core: core_tx.clone(),
            });
            members.len() as u64 - 1
        };
        let core = Core::new(
            &config,
            name,
            app,
            me,
            directory,
            Arc::clone(&counters),
            persist,
        );
        let cadence = config.snapshot_cadence;
        let core_stop = Arc::clone(&stop);
        let core = std::thread::Builder::new()
            .name("ph-live-core".into())
            .spawn(move || core.run(core_rx, shard_txs, cadence, core_stop))?;

        Ok(LiveServer {
            addr,
            stats: counters,
            stop,
            shards,
            core,
            inbox: core_tx,
        })
    }

    /// The actual bound listen address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A point-in-time copy of the serving counters.
    pub fn stats(&self) -> LiveStats {
        self.stats.snapshot()
    }

    /// Runs `f` against the served application on the core thread, drains
    /// the daemon work it queued, and returns its result — the hook for
    /// scripting a user action or reading application state.
    ///
    /// # Panics
    ///
    /// Panics if the core thread has panicked.
    pub fn with_app<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut A, &mut AppCtx<'_>) -> R + Send + 'static,
    ) -> R {
        let (tx, rx) = mpsc::channel();
        let script = move |core: &mut Core<A>| {
            let r = core.app_callback(f);
            core.run_work();
            let _ = tx.send(r);
        };
        let _ = self.inbox.send(vec![CoreMsg::Script(Box::new(script))]);
        rx.recv().expect("live core thread stopped")
    }

    /// Stops the reactor (final checkpoint included) and returns the
    /// served application with all its accumulated state.
    pub fn shutdown(self) -> A {
        self.stop.store(true, Ordering::SeqCst);
        for h in self.shards {
            let _ = h.join();
        }
        self.core.join().expect("live core thread panicked")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::AppEvent;
    use crate::service::ServiceInfo;
    use crate::types::ConnId;

    /// A peer that records what it sees and, when serving, registers
    /// "echo" and sends every frame back unchanged.
    #[derive(Default)]
    struct Echo {
        serve: bool,
        peers: Vec<DeviceId>,
        conn: Option<ConnId>,
        received: Vec<Bytes>,
        closed: usize,
        failed: usize,
    }

    impl Echo {
        fn serving() -> Echo {
            Echo {
                serve: true,
                ..Echo::default()
            }
        }
    }

    impl Application for Echo {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            if self.serve {
                ctx.peerhood().register_service(ServiceInfo::new("echo"));
            }
        }

        fn on_event(&mut self, event: AppEvent, ctx: &mut AppCtx<'_>) {
            match event {
                AppEvent::DeviceAppeared(info) => self.peers.push(info.id),
                AppEvent::Connected { conn, .. } => self.conn = Some(conn),
                AppEvent::ConnectFailed { .. } => self.failed += 1,
                AppEvent::Data { conn, payload } => {
                    self.received.push(payload.clone());
                    if self.serve {
                        // Echo it back.
                        ctx.peerhood().send(conn, payload);
                    }
                }
                AppEvent::Closed { .. } => self.closed += 1,
                _ => {}
            }
        }
    }

    /// Polls `probe` on the core thread until it holds or `wall` passes.
    fn wait<A: Application + Send + 'static>(
        server: &LiveServer<A>,
        wall: Duration,
        probe: impl Fn(&A) -> bool + Clone + Send + 'static,
    ) -> bool {
        let deadline = Instant::now() + wall;
        loop {
            let probe = probe.clone();
            if server.with_app(move |app, _| probe(app)) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Members are numbered in boot order.
    const FIRST: DeviceId = DeviceId::new(0);
    const SECOND: DeviceId = DeviceId::new(1);

    /// A minimal blocking test client speaking the live wire protocol.
    struct TestClient {
        stream: TcpStream,
        buf: FrameBuf,
    }

    impl TestClient {
        fn connect(addr: SocketAddr, from: u64, service: &str) -> TestClient {
            let stream = TcpStream::connect(addr).expect("connect");
            stream.set_nodelay(true).unwrap();
            let mut c = TestClient {
                stream,
                buf: FrameBuf::new(),
            };
            let hs = Handshake {
                from: DeviceId::new(from),
                service: service.into(),
                resume: None,
            };
            c.send_raw(&hs.encode());
            c
        }

        fn send_raw(&mut self, payload: &[u8]) {
            self.stream.write_all(&frame(payload)).expect("write");
        }

        /// Blocks until one frame arrives (or the deadline passes).
        fn recv(&mut self, deadline: Duration) -> Option<Vec<u8>> {
            self.stream
                .set_read_timeout(Some(Duration::from_millis(50)))
                .unwrap();
            let t0 = Instant::now();
            let mut tmp = [0u8; 4096];
            loop {
                if let Ok(Some(f)) = self.buf.pop() {
                    return Some(f);
                }
                if t0.elapsed() > deadline {
                    return None;
                }
                match self.stream.read(&mut tmp) {
                    Ok(0) => return self.buf.pop().ok().flatten(),
                    Ok(n) => self.buf.extend(&tmp[..n]),
                    Err(e)
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut => {}
                    Err(_) => return None,
                }
            }
        }
    }

    #[test]
    fn serves_echo_round_trip_and_counts() {
        let server =
            LiveServer::spawn(LiveConfig::default(), "reactor", Echo::serving()).expect("spawn");
        let mut client = TestClient::connect(server.addr(), 1, "echo");
        let verdict = client.recv(Duration::from_secs(5)).expect("verdict");
        assert_eq!(verdict, vec![VERDICT_ACCEPT]);
        client.send_raw(b"ping over live tcp");
        let echo = client.recv(Duration::from_secs(5)).expect("echo");
        assert_eq!(echo, b"ping over live tcp");
        let stats = server.stats();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.frames_in, 1);
        assert_eq!(stats.frames_out, 1);
        let app = server.shutdown();
        assert_eq!(app.received.len(), 1);
    }

    #[test]
    fn rejects_unknown_service_with_reason() {
        let server =
            LiveServer::spawn(LiveConfig::default(), "reactor", Echo::serving()).expect("spawn");
        let mut client = TestClient::connect(server.addr(), 1, "no-such-service");
        let verdict = client.recv(Duration::from_secs(5)).expect("verdict");
        assert_eq!(verdict.first(), Some(&VERDICT_REJECT));
        assert!(server.stats().rejected >= 1);
        server.shutdown();
    }

    #[test]
    fn idle_connection_gets_timeout_farewell() {
        let config = LiveConfig::default().with_idle_timeout(Duration::from_millis(200));
        let server = LiveServer::spawn(config, "reactor", Echo::serving()).expect("spawn");
        let mut client = TestClient::connect(server.addr(), 1, "echo");
        assert_eq!(
            client.recv(Duration::from_secs(5)).expect("verdict"),
            vec![VERDICT_ACCEPT]
        );
        // Send nothing: the reactor must close us with a Timeout farewell.
        let farewell_frame = client.recv(Duration::from_secs(5)).expect("farewell");
        assert_eq!(parse_farewell(&farewell_frame), Some(ErrorKind::Timeout));
        assert_eq!(server.stats().idle_closed, 1);
        server.shutdown();
    }

    #[test]
    fn stalled_reader_is_shed_with_overloaded_farewell() {
        // Tiny queue cap: a client that never reads its echoes overflows
        // the bounded write queue almost immediately.
        let config = LiveConfig::default().with_queue_cap(2 * 1024);
        let server = LiveServer::spawn(config, "reactor", Echo::serving()).expect("spawn");
        let mut stalled = TestClient::connect(server.addr(), 1, "echo");
        assert_eq!(
            stalled.recv(Duration::from_secs(5)).expect("verdict"),
            vec![VERDICT_ACCEPT]
        );
        // Pump big frames without ever reading: echoes pile up server-side.
        let blob = vec![0x42u8; 1024];
        let t0 = Instant::now();
        while server.stats().shed == 0 && t0.elapsed() < Duration::from_secs(10) {
            stalled.send_raw(&blob);
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server.stats().shed, 1, "stalled client must be shed");
        // The farewell is still delivered once we finally read.
        let mut last = None;
        while let Some(f) = stalled.recv(Duration::from_millis(500)) {
            last = Some(f);
            if parse_farewell(last.as_ref().unwrap()).is_some() {
                break;
            }
        }
        assert_eq!(
            last.as_deref().and_then(parse_farewell),
            Some(ErrorKind::Overloaded),
            "shed client must observe the Overloaded farewell"
        );
        server.shutdown();
    }

    #[test]
    fn farewell_keeps_a_partly_written_frame_whole() {
        let (a, _b) = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let a = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            (a, listener.accept().unwrap().0)
        };
        let mut c = Conn::new(a).unwrap();
        c.state = ConnState::Established;
        c.push(frame(b"half sent"));
        c.push(frame(b"never sent"));
        c.front_off = 3;
        c.queued -= 3;
        c.bid_farewell(ErrorKind::Overloaded);
        assert_eq!(c.out.len(), 2, "the partly written frame stays queued");
        assert_eq!(c.out[0], frame(b"half sent"));
        assert_eq!(c.out[1], frame(&farewell(ErrorKind::Overloaded)));
        assert_eq!(c.queued, frame(b"half sent").len() - 3 + 6);
        assert!(matches!(c.state, ConnState::Dying { .. }));
    }

    #[test]
    fn standalone_server_is_a_directory_of_one() {
        let directory = Directory::default();
        lock(&directory).push(Member {
            name: "solo".into(),
            addr: SocketAddr::from(([127, 0, 0, 1], 1)),
            core: mpsc::channel().0,
        });
        let mut core = Core::new(
            &LiveConfig::default(),
            "solo".into(),
            Echo::serving(),
            0,
            directory,
            Arc::default(),
            None,
        );
        let replies = |core: &mut Core<Echo>, cmd| {
            core.exec(cmd);
            core.work.drain(..).collect::<Vec<_>>()
        };
        let technology = Technology::Wlan;
        assert_eq!(
            replies(&mut core, PluginCommand::StartInquiry { technology }),
            vec![DaemonInput::Plugin(PluginEvent::InquiryComplete {
                technology
            })],
            "an inquiry completes empty"
        );
        let thin = DeviceId::new(7);
        assert_eq!(
            replies(
                &mut core,
                PluginCommand::QueryServices {
                    device: thin,
                    technology
                }
            ),
            vec![DaemonInput::Plugin(PluginEvent::ServiceReply {
                device: thin,
                services: Vec::new()
            })],
            "a thin client offers no services"
        );
        let attempt = AttemptId::new(3);
        assert_eq!(
            replies(
                &mut core,
                PluginCommand::OpenConnection {
                    attempt,
                    device: thin,
                    service: "echo".into(),
                    technology,
                    resume: None,
                }
            ),
            vec![DaemonInput::Plugin(PluginEvent::ConnectResult {
                attempt,
                result: Err("live server cannot dial thin clients".into())
            })]
        );
        // A thin client claiming the server's own id is still a thin client.
        core.ingest(vec![CoreMsg::Hello {
            conn: 5,
            hs: Handshake {
                from: FIRST,
                service: "echo".into(),
                resume: None,
            },
        }]);
        let Some(DaemonInput::Plugin(PluginEvent::IncomingConnection { device, .. })) =
            core.work.pop_front()
        else {
            panic!("hello must become an incoming connection");
        };
        assert_eq!(device.id, FIRST);
        assert_eq!(&*device.name, FIRST.to_string());
    }

    #[test]
    fn live_round_trip_over_real_tcp() {
        let net = LiveConfig::default().network();
        let client = net.serve("client", Echo::default()).unwrap();
        let server = net.serve("server", Echo::serving()).unwrap();

        // Discovery happens within the 200 ms inquiry cadence.
        assert!(
            wait(&client, Duration::from_secs(5), |a| a
                .peers
                .contains(&SECOND)),
            "server never discovered"
        );

        client.with_app(|_, ctx| ctx.peerhood().connect(SECOND, "echo"));
        assert!(
            wait(&client, Duration::from_secs(5), |a| a.conn.is_some()),
            "connect never completed"
        );
        let conn = client.with_app(|a, _| a.conn).unwrap();
        client.with_app(move |_, ctx| {
            ctx.peerhood()
                .send(conn, Bytes::from_static(b"over real tcp"))
        });
        assert!(
            wait(&client, Duration::from_secs(5), |a| !a.received.is_empty()),
            "echo never arrived"
        );
        assert_eq!(
            client.with_app(|a, _| a.received[0].clone()),
            Bytes::from_static(b"over real tcp")
        );
        // Orderly close propagates.
        client.with_app(move |_, ctx| ctx.peerhood().close(conn));
        assert!(
            wait(&server, Duration::from_secs(5), |a| a.closed > 0),
            "server never saw the close"
        );
        client.shutdown();
        server.shutdown();
    }

    #[test]
    fn connect_to_unknown_service_is_rejected_over_tcp() {
        let net = LiveConfig::default().network();
        let client = net.serve("client", Echo::default()).unwrap();
        let server = net.serve("server", Echo::default()).unwrap();
        assert!(wait(&client, Duration::from_secs(5), |a| a
            .peers
            .contains(&SECOND)));
        client.with_app(|_, ctx| ctx.peerhood().connect(SECOND, "nope"));
        std::thread::sleep(Duration::from_millis(300));
        assert!(client.with_app(|a, _| a.conn.is_none()));
        client.shutdown();
        server.shutdown();
    }

    /// Lists a raw listener as member 0, boots a member that discovers and
    /// dials it, and returns the dialer once its connect has failed,
    /// together with how long the connect took.
    fn dial_impostor(
        config: LiveConfig,
        answer: impl FnOnce(TcpStream) + Send + 'static,
    ) -> (LiveServer<Echo>, Duration) {
        let impostor = TcpListener::bind("127.0.0.1:0").unwrap();
        let net = config.network();
        lock(&net.directory).push(Member {
            name: "impostor".into(),
            addr: impostor.local_addr().unwrap(),
            core: mpsc::channel().0,
        });
        let raw = std::thread::spawn(move || {
            let (mut stream, _) = impostor.accept().unwrap();
            answer(stream.try_clone().unwrap());
            // Hold the socket until the dialer hangs up.
            let _ = io::copy(&mut stream, &mut io::sink());
        });
        let dialer = net.serve("dialer", Echo::default()).unwrap();
        assert!(wait(&dialer, Duration::from_secs(5), |a| a
            .peers
            .contains(&FIRST)));
        let t0 = Instant::now();
        dialer.with_app(|_, ctx| ctx.peerhood().connect(FIRST, "echo"));
        assert!(
            wait(&dialer, Duration::from_secs(10), |a| a.failed > 0),
            "the dial never failed"
        );
        let took = t0.elapsed();
        raw.join().unwrap();
        (dialer, took)
    }

    #[test]
    fn dial_to_a_mute_listener_fails_within_the_handshake_deadline() {
        let deadline = Duration::from_millis(300);
        let config = LiveConfig::default().with_handshake_timeout(deadline);
        let (dialer, took) = dial_impostor(config, |_| {});
        assert!(took >= deadline, "failed before the deadline: {took:?}");
        assert!(took < deadline + Duration::from_secs(2), "took {took:?}");
        assert_eq!(dialer.with_app(|a, _| a.conn), None);
        assert_eq!(dialer.stats().active, 0, "the dialed socket is dropped");
        dialer.shutdown();
    }

    #[test]
    fn dial_answered_with_an_oversized_header_fails_cleanly() {
        let (dialer, took) = dial_impostor(LiveConfig::default(), |mut stream| {
            stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
        });
        assert!(took < Duration::from_secs(5), "took {took:?}");
        assert_eq!(dialer.with_app(|a, _| a.conn), None);
        assert_eq!(dialer.stats().active, 0);
        dialer.shutdown();
    }

    #[test]
    fn idle_members_both_close_and_no_farewell_reaches_the_app() {
        let config = LiveConfig::default().with_idle_timeout(Duration::from_millis(200));
        let net = config.network();
        let client = net.serve("client", Echo::default()).unwrap();
        let server = net.serve("server", Echo::serving()).unwrap();
        assert!(wait(&client, Duration::from_secs(5), |a| a
            .peers
            .contains(&SECOND)));
        client.with_app(|_, ctx| ctx.peerhood().connect(SECOND, "echo"));
        assert!(wait(&client, Duration::from_secs(5), |a| a.conn.is_some()));
        // Both ends stay silent past the idle timeout. The link goes down
        // at once for the initiator; the responder first waits out the
        // daemon's 12 s handover grace for a resume that never comes.
        assert!(wait(&client, Duration::from_secs(5), |a| a.closed > 0));
        assert!(wait(&server, Duration::from_secs(15), |a| a.closed > 0));
        assert!(client.with_app(|a, _| a.received.is_empty()));
        assert!(server.with_app(|a, _| a.received.is_empty()));
        client.shutdown();
        server.shutdown();
    }
}
