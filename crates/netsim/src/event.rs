//! The single-wheel event queue: the test oracle the region-sharded
//! [`RegionLanes`](crate::RegionLanes) is checked against.
//!
//! Events are ordered by their scheduled [`SimTime`]; ties are broken by
//! insertion order (a monotonically increasing sequence number), so two runs
//! that schedule the same events in the same order always execute them in the
//! same order. `RegionLanes` must reproduce this pop stream exactly for any
//! lane count; the differential tests in `region.rs` compare the two.

use std::time::Duration;

use crate::time::SimTime;
use crate::wheel::{TimerToken, TimerWheel};

/// A time-ordered queue of simulation events.
///
/// The queue owns the virtual clock: popping an event advances
/// [`EventQueue::now`] to that event's timestamp. Scheduling an event in the
/// past is a logic error and panics, because it would mean the simulation is
/// not causally consistent.
#[derive(Debug)]
pub struct EventQueue<E> {
    wheel: TimerWheel<E>,
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            wheel: TimerWheel::new(),
            now: SimTime::ZERO,
        }
    }

    /// The current virtual time: the timestamp of the most recently popped
    /// event (or [`SimTime::ZERO`] before any pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`EventQueue::now`].
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at:?} now={:?}",
            self.now
        );
        self.wheel.schedule(at, event);
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: Duration, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Like [`EventQueue::schedule`], but returns a token that
    /// [`EventQueue::cancel`] accepts.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`EventQueue::now`].
    pub fn schedule_cancellable(&mut self, at: SimTime, event: E) -> TimerToken {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: at={at:?} now={:?}",
            self.now
        );
        self.wheel.schedule_cancellable(at, event)
    }

    /// Cancels a pending event scheduled with
    /// [`EventQueue::schedule_cancellable`]. Returns `true` if the event
    /// was still pending, `false` if it already fired or was already
    /// cancelled.
    pub fn cancel(&mut self, token: TimerToken) -> bool {
        self.wheel.cancel(token)
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is empty (the clock is left
    /// where it was).
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (at, event) = self.wheel.pop()?;
        self.now = at;
        Some((at, event))
    }

    /// The timestamp of the earliest pending event, if any.
    ///
    /// Takes `&mut self` because the wheel may rotate slots into its ready
    /// heap; the observable pop stream is unaffected.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.wheel.peek()
    }

    /// Pops every event due at or before `deadline` into `out`, in exact
    /// pop order, reusing `out`'s capacity (no per-event allocation). The
    /// clock advances to the last popped event's timestamp. Returns the
    /// number of events drained.
    ///
    /// Events come out grouped by timestamp (the stream is time-ordered),
    /// so callers batching per-timestamp work can scan `out` for runs of
    /// equal [`SimTime`].
    pub fn drain_until(&mut self, deadline: SimTime, out: &mut Vec<(SimTime, E)>) -> usize {
        let before = out.len();
        while self.peek_time().is_some_and(|t| t <= deadline) {
            out.push(self.pop().expect("peeked"));
        }
        out.len() - before
    }

    /// Pops the entire batch of events sharing the earliest pending
    /// timestamp, provided it is at or before `deadline`, into `out`
    /// (cleared first, capacity reused). Returns that timestamp, or `None`
    /// if nothing is due.
    ///
    /// Events scheduled *at the returned timestamp* while the caller
    /// processes the batch land in a later batch at the same timestamp —
    /// exactly the order a pop-one-at-a-time loop would produce, since
    /// their sequence numbers are larger.
    pub fn drain_batch(&mut self, deadline: SimTime, out: &mut Vec<E>) -> Option<SimTime> {
        out.clear();
        let t = self.peek_time().filter(|&t| t <= deadline)?;
        while self.peek_time() == Some(t) {
            out.push(self.pop().expect("peeked").1);
        }
        Some(t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.wheel.is_empty()
    }

    /// Drops all pending events without touching the clock.
    pub fn clear(&mut self) {
        self.wheel.clear();
    }

    /// Advances the clock to `t` without popping anything.
    ///
    /// Useful after draining all events up to a deadline, so subsequent
    /// scheduling is relative to the deadline. Moving backwards is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if an event earlier than `t` is still pending (advancing past
    /// it would break causality).
    pub fn advance_to(&mut self, t: SimTime) {
        if t <= self.now {
            return;
        }
        if let Some(first) = self.peek_time() {
            assert!(
                first >= t,
                "cannot advance past pending event at {first:?} to {t:?}"
            );
        }
        self.now = t;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 'c');
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn schedule_after_pops_in_time_order_then_drains() {
        let mut q = EventQueue::new();
        q.schedule_after(Duration::from_secs(2), "beta");
        q.schedule_after(Duration::from_secs(1), "alpha");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "alpha")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "beta")));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn pop_advances_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "first");
        q.pop();
        q.schedule_after(Duration::from_secs(5), "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(15));
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(1), ());
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
    }

    #[test]
    fn advance_to_moves_clock_forward_only() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_to(SimTime::from_secs(5));
        assert_eq!(q.now(), SimTime::from_secs(5));
        q.advance_to(SimTime::from_secs(1)); // no-op backwards
        assert_eq!(q.now(), SimTime::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "cannot advance past pending event")]
    fn advance_past_pending_event_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), ());
        q.advance_to(SimTime::from_secs(3));
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(7), ());
        q.schedule(SimTime::from_secs(3), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(3)));
    }

    #[test]
    fn cancel_skips_event_and_reports_liveness() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 'a');
        let tok = q.schedule_cancellable(SimTime::from_secs(2), 'b');
        q.schedule(SimTime::from_secs(3), 'c');
        assert!(q.cancel(tok));
        assert!(!q.cancel(tok));
        assert_eq!(q.len(), 2);
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'c']);
    }

    #[test]
    fn drain_until_pops_everything_due() {
        let mut q = EventQueue::new();
        for i in 0..6u32 {
            q.schedule(SimTime::from_secs(u64::from(i)), i);
        }
        let mut out = Vec::new();
        let n = q.drain_until(SimTime::from_secs(3), &mut out);
        assert_eq!(n, 4);
        assert_eq!(
            out.iter().map(|&(t, _)| t).collect::<Vec<_>>(),
            (0..4).map(SimTime::from_secs).collect::<Vec<_>>()
        );
        assert_eq!(q.now(), SimTime::from_secs(3));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn drain_batch_groups_one_timestamp() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_secs(1);
        let t2 = SimTime::from_secs(2);
        q.schedule(t1, 'a');
        q.schedule(t2, 'x');
        q.schedule(t1, 'b');
        let mut batch = Vec::new();
        assert_eq!(q.drain_batch(SimTime::from_secs(9), &mut batch), Some(t1));
        assert_eq!(batch, vec!['a', 'b']);
        assert_eq!(q.now(), t1);
        // An event scheduled at the drained timestamp lands in the next
        // batch at the same timestamp, preserving serial pop order.
        q.schedule(t1, 'c');
        assert_eq!(q.drain_batch(SimTime::from_secs(9), &mut batch), Some(t1));
        assert_eq!(batch, vec!['c']);
        assert_eq!(q.drain_batch(SimTime::from_secs(9), &mut batch), Some(t2));
        assert_eq!(batch, vec!['x']);
        // Past the deadline: nothing drains.
        q.schedule(SimTime::from_secs(10), 'z');
        assert_eq!(q.drain_batch(SimTime::from_secs(9), &mut batch), None);
        assert!(batch.is_empty());
    }
}
