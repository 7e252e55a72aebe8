//! An [`Application`] wrapper that observes the app layer from outside.
//!
//! [`Probe`] forwards every callback to the wrapped app unchanged, so a
//! cluster of probed apps produces the same trace digest as the bare
//! apps (the sim workloads check exactly that). On the way it records
//! the first `DeviceAppeared` time (discovery latency), and — only when
//! built with timing on — times each callback by kind and keeps a
//! bounded sample of `Data` payloads for the codec re-decode. An untimed
//! probe pins no payloads, so it adds no sampled memory to the run.

use std::time::{Duration, Instant};

use codec::{Bytes, Wire};
use community::protocol::{Request, Response};
use netsim::SimTime;
use peerhood::{AppCtx, AppEvent, Application};

/// Payloads kept per probe for the codec re-decode; bounds the memory a
/// long run can pin.
const PAYLOAD_SAMPLE_CAP: usize = 4096;

/// Callback count and busy time of one callback kind.
#[derive(Clone, Copy, Debug, Default)]
pub struct KindTime {
    /// Callbacks made.
    pub calls: u64,
    /// Wall time inside the wrapped app (zero when timing is off).
    pub busy: Duration,
}

impl KindTime {
    fn add(&mut self, other: &KindTime) {
        self.calls += other.calls;
        self.busy += other.busy;
    }
}

/// What a probe saw. Mergeable by addition, so per-node probes fold into
/// one total in any order.
#[derive(Clone, Debug, Default)]
pub struct ProbeStats {
    /// `Data` callbacks: request/response frames and server dispatch.
    pub data: KindTime,
    /// Neighborhood callbacks: appear/disappear, monitor alerts, device
    /// and service lists (where the Figure 6 group recompute runs).
    pub neighbor: KindTime,
    /// Timer callbacks.
    pub timer: KindTime,
    /// Every other callback: start, link up/down, handover, registration.
    pub link: KindTime,
    /// Payload bytes of all `Data` frames seen.
    pub data_bytes: u64,
    /// A bounded sample of `Data` payloads (shared buffers, no copies);
    /// empty unless the probe is timed.
    pub payloads: Vec<Bytes>,
}

impl ProbeStats {
    /// Adds `other` into `self` (payload samples are concatenated).
    pub fn merge(&mut self, other: &ProbeStats) {
        self.data.add(&other.data);
        self.neighbor.add(&other.neighbor);
        self.timer.add(&other.timer);
        self.link.add(&other.link);
        self.data_bytes += other.data_bytes;
        self.payloads.extend(other.payloads.iter().cloned());
    }

    /// Busy time summed over every kind.
    pub fn busy(&self) -> Duration {
        self.data.busy + self.neighbor.busy + self.timer.busy + self.link.busy
    }
}

/// The app-layer observer; see the module docs.
pub struct Probe<A> {
    /// The wrapped application.
    pub inner: A,
    timed: bool,
    first_seen: Option<SimTime>,
    stats: ProbeStats,
}

impl<A> Probe<A> {
    /// Wraps `inner`; `timed` switches per-callback clock reads and the
    /// payload sample on.
    pub fn new(inner: A, timed: bool) -> Self {
        Probe {
            inner,
            timed,
            first_seen: None,
            stats: ProbeStats::default(),
        }
    }

    /// Virtual time of the first `DeviceAppeared`, if any arrived.
    pub fn first_seen(&self) -> Option<SimTime> {
        self.first_seen
    }

    /// What the probe recorded so far.
    pub fn stats(&self) -> &ProbeStats {
        &self.stats
    }

    fn timed_call<R>(
        &mut self,
        kind: fn(&mut ProbeStats) -> &mut KindTime,
        f: impl FnOnce(&mut A) -> R,
    ) -> R {
        let t0 = self.timed.then(Instant::now);
        let r = f(&mut self.inner);
        let slot = kind(&mut self.stats);
        slot.calls += 1;
        if let Some(t0) = t0 {
            slot.busy += t0.elapsed();
        }
        r
    }
}

impl<A: Application> Application for Probe<A> {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.timed_call(|s| &mut s.link, |a| a.on_start(ctx));
    }

    fn on_event(&mut self, event: AppEvent, ctx: &mut AppCtx<'_>) {
        let kind: fn(&mut ProbeStats) -> &mut KindTime = match &event {
            AppEvent::Data { payload, .. } => {
                self.stats.data_bytes += payload.len() as u64;
                if self.timed && self.stats.payloads.len() < PAYLOAD_SAMPLE_CAP {
                    self.stats.payloads.push(payload.clone());
                }
                |s| &mut s.data
            }
            AppEvent::DeviceAppeared(_) => {
                self.first_seen.get_or_insert(ctx.now());
                |s| &mut s.neighbor
            }
            AppEvent::DeviceDisappeared(_)
            | AppEvent::MonitorAlert { .. }
            | AppEvent::DeviceList(_)
            | AppEvent::ServiceList { .. } => |s| &mut s.neighbor,
            _ => |s| &mut s.link,
        };
        self.timed_call(kind, |a| a.on_event(event, ctx));
    }

    fn on_timer(&mut self, token: u64, ctx: &mut AppCtx<'_>) {
        self.timed_call(|s| &mut s.timer, |a| a.on_timer(token, ctx));
    }
}

/// Decodes every sampled payload as a community request or response and
/// returns `(frames decoded, mean ns per frame)`. A payload that is
/// neither is an output-check failure, reported as `Err`.
pub fn redecode(payloads: &[Bytes]) -> Result<(u64, f64), String> {
    if payloads.is_empty() {
        return Ok((0, 0.0));
    }
    let t0 = Instant::now();
    for p in payloads {
        let ok = Request::decode_exact(p).is_ok() || Response::decode_exact(p).is_ok();
        if !ok {
            return Err(format!(
                "a {}-byte Data payload decodes as neither request nor response",
                p.len()
            ));
        }
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9 / payloads.len() as f64;
    Ok((payloads.len() as u64, ns))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redecode_accepts_requests_and_responses_and_rejects_garbage() {
        let req = Bytes::from(Request::GetOnlineMemberList.encode());
        let resp = Bytes::from(Response::MemberList(vec!["bob".into()]).encode());
        let (n, ns) = redecode(&[req.clone(), resp]).expect("valid frames");
        assert_eq!(n, 2);
        assert!(ns > 0.0);
        assert!(redecode(&[req, Bytes::from(vec![0xFF, 0x00, 0x13])]).is_err());
        assert_eq!(redecode(&[]).expect("empty"), (0, 0.0));
    }

    #[test]
    fn stats_merge_adds_every_kind() {
        let mut a = ProbeStats::default();
        a.data.calls = 2;
        a.timer.busy = Duration::from_micros(5);
        let mut b = ProbeStats::default();
        b.data.calls = 3;
        b.link.busy = Duration::from_micros(7);
        b.data_bytes = 10;
        b.payloads.push(Bytes::from(vec![1]));
        a.merge(&b);
        assert_eq!(a.data.calls, 5);
        assert_eq!(a.busy(), Duration::from_micros(12));
        assert_eq!(a.data_bytes, 10);
        assert_eq!(a.payloads.len(), 1);
    }
}
