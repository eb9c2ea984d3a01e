//! The handoff between submitting threads and a shard worker: a bounded
//! MPSC command queue with two-phase admission, and the one-shot reply
//! slot a synchronous call waits on.
//!
//! Event submission fans one query out to every shard, and that fan-out
//! must be all-or-nothing: an event queued on some shards but rejected
//! by others would complete with a partial match set. Admission is
//! therefore split into a *reservation* — claims a slot under the cap
//! without publishing anything, and can be rolled back — and a
//! *publish* ([`BoundedQueue::push_reserved`]) that cannot fail. The
//! submitter reserves on all shards in shard order (a total order, so
//! concurrent blocking submitters cannot deadlock), rolling everything
//! back on the first rejection, and only then publishes everywhere.
//!
//! The worker takes everything queued at once
//! ([`BoundedQueue::pop_all`]): one lock and at most one wake-up of the
//! parked submitters per batch, not per command, and the batch it
//! executes holds no slot.
//!
//! A handoff costs a cache line, not a sleep, when a core is free for
//! the waiting side: a thread about to wait first spins on an atomic
//! hint for a bounded budget ([`spin_until`]), and parks on its condvar
//! only after that. The other side notifies a condvar only when the
//! flag it reads under the lock says a thread is parked there, so a
//! handoff to a spinning or busy thread makes no syscall.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Spins until `ready()` holds or `budget` has passed. With a zero
/// budget it checks `ready()` once; the caller re-checks under its lock
/// either way.
fn spin_until(budget: Duration, ready: impl Fn() -> bool) {
    let started = Instant::now();
    while !ready() && started.elapsed() < budget {
        std::hint::spin_loop();
    }
}

struct Inner<T> {
    items: VecDeque<T>,
    /// Slots claimed by reservations not yet published.
    reserved: usize,
    /// The worker waits on `not_empty`.
    worker_parked: bool,
    /// Submitters waiting on `not_full`.
    submitters_parked: usize,
}

/// A capacity-bounded FIFO between the submitting threads and one shard
/// worker.
pub(crate) struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    /// `items.len()`, stored under the lock at every push and take: what
    /// the worker's spin reads without it. Relaxed, like `closed`: both
    /// are hints, and the items are taken under the lock.
    depth: AtomicUsize,
    /// Set under the lock; read without it by the worker's spin.
    closed: AtomicBool,
    not_full: Condvar,
    not_empty: Condvar,
    cap: usize,
    /// How long [`BoundedQueue::pop_all`] spins on an empty queue before
    /// it parks.
    spin: Duration,
}

impl<T> BoundedQueue<T> {
    pub fn new(cap: usize, spin: Duration) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        Self {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(cap),
                reserved: 0,
                worker_parked: false,
                submitters_parked: 0,
            }),
            depth: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            cap,
            spin,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().expect("queue lock")
    }

    /// Claims one slot if the queue has spare capacity, without
    /// publishing anything.
    pub fn try_reserve(&self) -> bool {
        let mut g = self.lock();
        if g.items.len() + g.reserved < self.cap {
            g.reserved += 1;
            true
        } else {
            false
        }
    }

    /// Claims one slot, blocking while the queue is at capacity.
    /// Returns the nanoseconds spent waiting (`0` when admission was
    /// immediate) so the caller can account backpressure stalls.
    pub fn reserve(&self) -> u64 {
        let mut g = self.lock();
        if g.items.len() + g.reserved < self.cap {
            g.reserved += 1;
            return 0;
        }
        let started = Instant::now();
        while g.items.len() + g.reserved >= self.cap {
            g.submitters_parked += 1;
            g = self.not_full.wait(g).expect("queue lock");
            g.submitters_parked -= 1;
        }
        g.reserved += 1;
        started.elapsed().as_nanos() as u64
    }

    /// Rolls back one slot claimed by [`BoundedQueue::try_reserve`] /
    /// [`BoundedQueue::reserve`].
    pub fn cancel_reservation(&self) {
        let mut g = self.lock();
        debug_assert!(g.reserved > 0, "cancel without a reservation");
        g.reserved = g.reserved.saturating_sub(1);
        let wake = g.submitters_parked > 0;
        drop(g);
        if wake {
            self.not_full.notify_one();
        }
    }

    /// Publishes an item into a previously claimed slot — infallible by
    /// construction. Returns the queue depth right after the push (the
    /// sample the depth histogram records). On a closed queue the item
    /// is dropped instead, since no worker will take it.
    pub fn push_reserved(&self, item: T) -> usize {
        let mut g = self.lock();
        debug_assert!(g.reserved > 0, "publish without a reservation");
        g.reserved = g.reserved.saturating_sub(1);
        if self.closed.load(Ordering::Relaxed) {
            drop(g);
            drop(item);
            return 0;
        }
        g.items.push_back(item);
        let depth = g.items.len();
        self.depth.store(depth, Ordering::Relaxed);
        let wake = g.worker_parked;
        drop(g);
        if wake {
            self.not_empty.notify_one();
        }
        depth
    }

    /// Moves every published item into `batch` (which must be empty;
    /// the caller reuses it, and the queue keeps the buffer `batch`
    /// held), spinning and then blocking while the queue is empty. One
    /// lock frees every slot, and wakes the parked submitters at most
    /// once. `false` once the queue is closed **and** drained — the
    /// worker's exit signal.
    pub fn pop_all(&self, batch: &mut VecDeque<T>) -> bool {
        debug_assert!(batch.is_empty(), "pop_all into a non-empty batch");
        let mut g = self.lock();
        loop {
            if !g.items.is_empty() {
                std::mem::swap(&mut g.items, batch);
                self.depth.store(0, Ordering::Relaxed);
                let wake = g.submitters_parked > 0;
                drop(g);
                if wake {
                    self.not_full.notify_all();
                }
                return true;
            }
            if self.closed.load(Ordering::Relaxed) {
                return false;
            }
            drop(g);
            spin_until(self.spin, || {
                self.depth.load(Ordering::Relaxed) > 0 || self.closed.load(Ordering::Relaxed)
            });
            g = self.lock();
            while g.items.is_empty() && !self.closed.load(Ordering::Relaxed) {
                g.worker_parked = true;
                g = self.not_empty.wait(g).expect("queue lock");
                g.worker_parked = false;
            }
        }
    }

    /// Published items currently waiting (reservations excluded).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Closes the queue: the worker drains what remains, then sees
    /// `false`, and anything published later is dropped.
    pub fn close(&self) {
        let g = self.lock();
        self.closed.store(true, Ordering::Relaxed);
        drop(g);
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

struct SlotState<R> {
    reply: Option<R>,
    caller_parked: bool,
}

struct Slot<R> {
    /// Set under `state`'s lock once the reply is in or will never come;
    /// read without it by the caller's spin. Relaxed: the reply itself
    /// is taken under the lock, so the flag publishes nothing.
    answered: AtomicBool,
    state: Mutex<SlotState<R>>,
    answered_cv: Condvar,
}

impl<R> Slot<R> {
    /// Every update under this lock is one assignment, so the state is
    /// valid even if a holder panicked; and [`Replier`]'s `Drop` must
    /// not panic.
    fn lock(&self) -> MutexGuard<'_, SlotState<R>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn answer(&self, reply: Option<R>) {
        let mut state = self.lock();
        state.reply = reply;
        self.answered.store(true, Ordering::Relaxed);
        let wake = state.caller_parked;
        drop(state);
        if wake {
            self.answered_cv.notify_one();
        }
    }
}

/// A one-shot slot a synchronous call's answer comes back through: the
/// worker side ([`Replier`]) and the caller's side ([`Reply`]).
pub(crate) fn reply_slot<R>() -> (Replier<R>, Reply<R>) {
    let slot = Arc::new(Slot {
        answered: AtomicBool::new(false),
        state: Mutex::new(SlotState {
            reply: None,
            caller_parked: false,
        }),
        answered_cv: Condvar::new(),
    });
    (Replier(Arc::clone(&slot)), Reply(slot))
}

/// The worker's end of a reply slot. Dropped without [`Replier::send`]
/// — the closure carrying it panicked, or was dropped unrun because the
/// worker is gone — it wakes the caller with no answer.
pub(crate) struct Replier<R>(Arc<Slot<R>>);

impl<R> Replier<R> {
    pub fn send(self, reply: R) {
        self.0.answer(Some(reply));
    }
}

impl<R> Drop for Replier<R> {
    fn drop(&mut self) {
        // Only this side writes `answered`, so the load sees `send`'s store.
        if !self.0.answered.load(Ordering::Relaxed) {
            self.0.answer(None);
        }
    }
}

/// The caller's end of a reply slot.
pub(crate) struct Reply<R>(Arc<Slot<R>>);

impl<R> Reply<R> {
    /// Waits for the answer, spinning up to `spin` before it parks.
    /// `None` when the [`Replier`] was dropped unanswered.
    pub fn wait(self, spin: Duration) -> Option<R> {
        let slot = &self.0;
        spin_until(spin, || slot.answered.load(Ordering::Relaxed));
        let mut state = slot.lock();
        while !slot.answered.load(Ordering::Relaxed) {
            state.caller_parked = true;
            state = slot
                .answered_cv
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
            state.caller_parked = false;
        }
        state.reply.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// One [`BoundedQueue::pop_all`], as a vector: `None` when it
    /// returned `false`.
    fn take_all(q: &BoundedQueue<u32>) -> Option<Vec<u32>> {
        let mut batch = VecDeque::new();
        q.pop_all(&mut batch).then(|| batch.into())
    }

    fn publish(q: &BoundedQueue<u32>, item: u32) {
        assert!(q.try_reserve());
        q.push_reserved(item);
    }

    #[test]
    fn reservations_count_against_capacity() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2, Duration::ZERO);
        assert!(q.try_reserve());
        assert!(q.try_reserve());
        assert!(!q.try_reserve(), "cap reached via reservations alone");
        q.cancel_reservation();
        assert!(q.try_reserve());
        q.push_reserved(1);
        q.push_reserved(2);
        assert_eq!(q.len(), 2);
        assert!(!q.try_reserve(), "cap reached via published items");
        assert_eq!(take_all(&q), Some(vec![1, 2]));
        assert!(q.try_reserve());
        assert!(q.try_reserve(), "a taken batch holds no slot");
        q.cancel_reservation();
        q.cancel_reservation();
    }

    #[test]
    fn pop_all_takes_every_item_in_fifo_order() {
        let q: BoundedQueue<u32> = BoundedQueue::new(8, Duration::ZERO);
        for item in [3, 1, 4, 1, 5] {
            publish(&q, item);
        }
        assert_eq!(take_all(&q), Some(vec![3, 1, 4, 1, 5]));
        assert_eq!(q.len(), 0);
        publish(&q, 9);
        assert_eq!(take_all(&q), Some(vec![9]), "nothing left over from the last batch");
    }

    /// Parks `n` submitters on `q`, each publishing `base + k` once
    /// admitted, and returns once all are parked. Detached, so a
    /// submitter that is never woken fails the test instead of hanging it.
    fn park_submitters(q: &Arc<BoundedQueue<u32>>, n: usize, base: u32) -> mpsc::Receiver<()> {
        let (admitted_tx, admitted_rx) = mpsc::channel();
        for k in 0..n as u32 {
            let (q, admitted_tx) = (Arc::clone(q), admitted_tx.clone());
            std::thread::spawn(move || {
                q.reserve();
                q.push_reserved(base + k);
                let _ = admitted_tx.send(());
            });
        }
        while q.lock().submitters_parked < n {
            std::thread::yield_now();
        }
        admitted_rx
    }

    #[test]
    fn pop_all_frees_every_slot_at_once() {
        for cap in [1, 3] {
            let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(cap, Duration::ZERO));
            for item in 0..cap as u32 {
                publish(&q, item);
            }
            let admitted = park_submitters(&q, cap, 10);
            // One call, and every parked submitter gets a slot: a
            // `notify_one` here would leave all but one parked.
            assert_eq!(take_all(&q), Some((0..cap as u32).collect()));
            for k in 0..cap {
                admitted
                    .recv_timeout(Duration::from_secs(2))
                    .unwrap_or_else(|_| panic!("cap {cap}: submitter {k} still parked"));
            }
            let mut taken = take_all(&q).expect("the submitters' items");
            taken.sort_unstable();
            assert_eq!(taken, (10..10 + cap as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn close_drains_then_signals_exit() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4, Duration::ZERO);
        publish(&q, 7);
        publish(&q, 6);
        assert!(q.try_reserve());
        q.close();
        q.push_reserved(8);
        assert_eq!(take_all(&q), Some(vec![7, 6]), "closed, not yet drained");
        assert_eq!(take_all(&q), None, "published after close: dropped");
        assert_eq!(take_all(&q), None, "and it stays closed");
    }

    #[test]
    fn blocking_reserve_reports_the_stall() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1, Duration::ZERO));
        publish(&q, 1);
        let producer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let waited = q.reserve();
                q.push_reserved(2);
                waited
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(take_all(&q), Some(vec![1]));
        let waited = producer.join().expect("producer");
        assert!(waited > 0, "reserve should have blocked");
        assert_eq!(take_all(&q), Some(vec![2]));
    }

    /// How a taker on an empty queue was doing when the queue closed.
    struct ClosedUnder {
        returned_before: bool,
        parked: bool,
        taken: Option<Vec<u32>>,
        took: Duration,
    }

    /// Runs `pop_all` on an empty queue in another thread, waits until
    /// `ready(q)`, closes the queue, and reports how long the taker
    /// took to return after the close. Asserts nothing itself, so the
    /// close always happens and the taker always ends.
    fn close_under_pop(
        q: &BoundedQueue<u32>,
        ready: impl Fn(&BoundedQueue<u32>) -> bool,
    ) -> ClosedUnder {
        std::thread::scope(|scope| {
            let (taken_tx, taken_rx) = mpsc::channel();
            scope.spawn(move || taken_tx.send(take_all(q)).expect("test alive"));
            while !ready(q) {
                std::thread::yield_now();
            }
            let returned_before = taken_rx.try_recv().is_ok();
            let parked = q.lock().worker_parked;
            let closed = Instant::now();
            q.close();
            let taken = taken_rx.recv().ok().flatten();
            ClosedUnder {
                returned_before,
                parked,
                taken,
                took: closed.elapsed(),
            }
        })
    }

    #[test]
    fn close_ends_the_spin_and_the_park() {
        // A budget far longer than the test: 20 ms in, the taker is
        // spinning, and close must end the spin rather than outlast it.
        let spinning: BoundedQueue<u32> = BoundedQueue::new(1, Duration::from_secs(10));
        let started = Instant::now();
        let run = close_under_pop(&spinning, |_| started.elapsed() > Duration::from_millis(20));
        assert!(
            !run.returned_before && !run.parked,
            "the taker was spinning"
        );
        assert_eq!(run.taken, None);
        assert!(
            run.took < Duration::from_secs(1),
            "close ended the spin after {:?}",
            run.took
        );

        let parking: BoundedQueue<u32> = BoundedQueue::new(1, Duration::ZERO);
        let run = close_under_pop(&parking, |q| q.lock().worker_parked);
        assert!(!run.returned_before && run.parked, "the taker was parked");
        assert_eq!(run.taken, None);
        assert!(
            run.took < Duration::from_secs(1),
            "close ended the park after {:?}",
            run.took
        );
    }

    #[test]
    fn a_dropped_replier_answers_none() {
        let (replier, reply) = reply_slot::<u32>();
        let worker = std::thread::spawn(move || drop(replier));
        assert_eq!(reply.wait(Duration::ZERO), None);
        worker.join().expect("worker");

        let (replier, reply) = reply_slot::<u32>();
        let worker = std::thread::spawn(move || replier.send(5));
        assert_eq!(reply.wait(Duration::from_millis(1)), Some(5));
        worker.join().expect("worker");
    }
}
