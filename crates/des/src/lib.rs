//! A small, deterministic discrete-event simulation kernel.
//!
//! The paper's evaluation "use\[s\] the CTC job trace as input for a discrete
//! event simulation" (§1). This crate is that substrate: a time-ordered
//! event queue with stable FIFO tie-breaking and a driver loop. It is
//! generic over the event payload so the RMS simulator (`dynp-sim`) and any
//! future model (network, I/O) can share it.
//!
//! Determinism guarantees:
//! * events at the same time stamp are delivered in insertion order,
//! * the clock never moves backwards (scheduling an event in the past is a
//!   caller bug and panics),
//! * no wall-clock or randomness is involved anywhere in the kernel.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled event: delivery time plus payload.
#[derive(Clone, Debug)]
struct Scheduled<E> {
    time: u64,
    /// Monotone insertion counter for FIFO tie-breaking.
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to pop the earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue with a simulation clock.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    now: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0,
        }
    }

    /// Current simulation time: the delivery time of the last popped event
    /// (0 before any pop).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `payload` for delivery at absolute `time`.
    ///
    /// # Panics
    /// Panics if `time` lies before the current clock — events cannot be
    /// delivered in the past.
    pub fn schedule(&mut self, time: u64, payload: E) {
        assert!(
            time >= self.now,
            "scheduling event at {time} before now {}",
            self.now
        );
        self.heap.push(Scheduled {
            time,
            seq: self.next_seq,
            payload,
        });
        self.next_seq += 1;
    }

    /// Pops the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(u64, E)> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.time >= self.now);
        self.now = ev.time;
        Some((ev.time, ev.payload))
    }
}

/// A simulation model: reacts to events, possibly scheduling new ones.
pub trait Model {
    /// The event payload type.
    type Event;

    /// Handles one event at time `now`; new events go into `queue`.
    fn handle(&mut self, now: u64, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Drives `model` until the event queue is empty, returning the final
/// simulation time. This is the whole main loop of a discrete-event
/// simulation; models stay free of queue mechanics.
///
/// When a global [`dynp_obs`] recorder is installed, the loop counts
/// dispatched events (`des.events`) and tracks the pending-queue
/// high-water mark (`des.queue_depth`); handles are fetched once, so the
/// per-event cost is at most two atomic updates.
///
/// The loop also polls the thread's cooperative [`dynp_obs::cancel`]
/// token between events and winds down early once it is cancelled (a
/// campaign cell past its wall-clock deadline). The partial results are
/// the caller's to discard — an interrupted simulation is not a finished
/// one — which is exactly what the campaign runner does when it records
/// the cell as timed out.
pub fn run_to_completion<M: Model>(model: &mut M, queue: &mut EventQueue<M::Event>) -> u64 {
    // One traced span per drain: inside a campaign cell this is the
    // "DES epoch" child of the replay span.
    let _run_span = dynp_obs::span("des.run");
    let obs = dynp_obs::recorder();
    let m_events = obs.map(|r| r.counter("des.events"));
    let m_depth = obs.map(|r| r.gauge("des.queue_depth"));
    while let Some((now, event)) = queue.pop() {
        if let Some(m) = &m_events {
            m.inc();
        }
        model.handle(now, event, queue);
        if let Some(m) = &m_depth {
            m.set(queue.len() as i64);
        }
        if dynp_obs::cancelled() {
            break;
        }
    }
    queue.now()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        q.schedule(5, 1);
        q.schedule(5, 2);
        q.schedule(5, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0);
        q.schedule(100, ());
        q.pop();
        assert_eq!(q.now(), 100);
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        q.pop();
        q.schedule(50, ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(100, 1);
        q.pop();
        q.schedule(100, 2);
        assert_eq!(q.pop(), Some((100, 2)));
    }

    /// A model that counts down: each event re-schedules a smaller one.
    struct Countdown {
        seen: Vec<(u64, u32)>,
    }

    impl Model for Countdown {
        type Event = u32;
        fn handle(&mut self, now: u64, event: u32, queue: &mut EventQueue<u32>) {
            self.seen.push((now, event));
            if event > 0 {
                queue.schedule(now + 10, event - 1);
            }
        }
    }

    #[test]
    fn run_to_completion_drains_cascade() {
        let mut model = Countdown { seen: vec![] };
        let mut q = EventQueue::new();
        q.schedule(0, 3u32);
        let end = run_to_completion(&mut model, &mut q);
        assert_eq!(end, 30);
        assert_eq!(model.seen, vec![(0, 3), (10, 2), (20, 1), (30, 0)]);
        assert!(q.is_empty());
    }

    /// An installed, already-cancelled token stops the drain after one
    /// event: the wall-clock budget the campaign runner enforces.
    #[test]
    fn cancelled_token_stops_the_event_loop() {
        let token = dynp_obs::CancelToken::new();
        token.cancel();
        let _guard = dynp_obs::install_cancel(&token);
        let mut model = Countdown { seen: vec![] };
        let mut q = EventQueue::new();
        q.schedule(0, 100u32);
        run_to_completion(&mut model, &mut q);
        assert_eq!(model.seen.len(), 1, "one event dispatched, then cancelled");
        assert!(!q.is_empty(), "remaining events stay queued");
    }

    #[test]
    fn len_and_is_empty_track_queue() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, ());
        q.schedule(2, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
    }
}
