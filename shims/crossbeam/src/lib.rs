//! Workspace-local stand-in for `crossbeam`.
//!
//! Provides the two pieces the DLA stack uses:
//!
//! * [`channel`] — MPMC channels on a `Mutex<VecDeque>` + `Condvar`.
//!   The transports' messages are a few dozen bytes, so a channel's
//!   per-message overhead is most of what an in-process message costs,
//!   and it shows end to end. A message costs one uncontended lock and
//!   a queue push: `send` wakes a receiver only when one is parked,
//!   because every `Condvar::notify_*` on std's futex condvar enters
//!   the kernel, a syscall that costs over a third of a `ChannelNet`
//!   message (EXPERIMENTS.md P27).
//! * [`scope`] — scoped threads, layered over [`std::thread::scope`]
//!   with crossbeam's `thread::Result` return convention (a child
//!   panic surfaces as `Err`, not a propagated panic).

pub mod channel {
    //! MPMC channels with disconnect detection and timeouts.

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
    use std::time::{Duration, Instant};

    /// What the lock guards: the queue, and how many receivers are
    /// parked on `ready` waiting for it to fill.
    struct State<T> {
        queue: VecDeque<T>,
        parked: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Parks on `ready` (at most `timeout`), counted in `parked`
        /// for the whole wait: a `send` holds the same lock when it
        /// reads the count, so it either sees this receiver parked and
        /// wakes it, or pushed before this receiver last looked.
        fn park<'a>(
            &self,
            mut state: MutexGuard<'a, State<T>>,
            timeout: Option<Duration>,
        ) -> MutexGuard<'a, State<T>> {
            state.parked += 1;
            let mut state = match timeout {
                None => self
                    .ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(timeout) => {
                    self.ready
                        .wait_timeout(state, timeout)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
            state.parked -= 1;
            state
        }
    }

    /// Error returned by [`Sender::send`] when every receiver is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived before the deadline.
        Timeout,
        /// All senders disconnected and the queue is drained.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "timed out waiting on channel"),
                RecvTimeoutError::Disconnected => write!(f, "channel is empty and disconnected"),
            }
        }
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The queue is momentarily empty.
        Empty,
        /// All senders disconnected and the queue is drained.
        Disconnected,
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Creates an unbounded MPMC channel.
    #[must_use]
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                parked: 0,
            }),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, failing if every receiver hung up. Wakes a
        /// receiver only if one is parked: a receiver that is running
        /// finds the value on its next look without a syscall here.
        ///
        /// # Errors
        ///
        /// Returns the value back inside [`SendError`] on disconnect.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            let parked = {
                let mut state = self.shared.lock();
                state.queue.push_back(value);
                state.parked
            };
            // Read under the lock, so a receiver counted here is in its
            // wait, or will see the value when it next holds the lock.
            if parked > 0 {
                self.shared.ready.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender gone: wake blocked receivers so they can
                // observe the disconnect. Taking the lock first means a
                // receiver that read the old count is parked by now.
                drop(self.shared.lock());
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Sender").finish_non_exhaustive()
        }
    }

    impl<T> Receiver<T> {
        /// Dequeues a message, blocking until one arrives.
        ///
        /// # Errors
        ///
        /// Returns [`RecvError`] once the channel is drained and every
        /// sender hung up.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.lock();
            loop {
                if let Some(value) = state.queue.pop_front() {
                    return Ok(value);
                }
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                state = self.shared.park(state, None);
            }
        }

        /// Dequeues a message, blocking at most `timeout`. A queued
        /// message is returned before the clock is read.
        ///
        /// # Errors
        ///
        /// [`RecvTimeoutError::Timeout`] past the deadline,
        /// [`RecvTimeoutError::Disconnected`] when drained with no
        /// senders left.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let mut state = self.shared.lock();
            if let Some(value) = state.queue.pop_front() {
                return Ok(value);
            }
            let deadline = Instant::now() + timeout;
            loop {
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                state = self.shared.park(state, Some(deadline - now));
                if let Some(value) = state.queue.pop_front() {
                    return Ok(value);
                }
            }
        }

        /// Dequeues a message if one is immediately available.
        ///
        /// # Errors
        ///
        /// [`TryRecvError::Empty`] when the queue is empty,
        /// [`TryRecvError::Disconnected`] when additionally no sender
        /// remains.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.shared.lock();
            if let Some(value) = state.queue.pop_front() {
                return Ok(value);
            }
            if self.shared.senders.load(Ordering::Acquire) == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.debug_struct("Receiver").finish_non_exhaustive()
        }
    }

    /// A wake lost between a `send` and a parked receiver would show
    /// up only as a receiver sitting out its timeout. These tests park
    /// receivers for real (they wait until the count says so) and give
    /// each wake a second; `ci.sh` also runs them pinned to one CPU,
    /// where sender and receiver interleave as in the benchmark.
    #[cfg(test)]
    mod wake_tests {
        use super::*;
        use std::collections::BTreeSet;
        use std::sync::mpsc;
        use std::thread;

        /// Far longer than any wake should take, far shorter than the
        /// receivers' own timeouts.
        const WAKE: Duration = Duration::from_secs(1);

        /// Returns once `n` receivers are parked on `rx`'s channel.
        fn until_parked<T>(rx: &Receiver<T>, n: usize) {
            while rx.shared.lock().parked < n {
                thread::sleep(Duration::from_millis(1));
            }
        }

        /// Runs `receive` on a clone of `rx` in a thread of its own and
        /// returns once that thread is parked; its result arrives on the
        /// returned channel.
        fn park_one<R: Send + 'static>(
            rx: &Receiver<u32>,
            receive: impl FnOnce(&Receiver<u32>) -> R + Send + 'static,
        ) -> (thread::JoinHandle<()>, mpsc::Receiver<R>) {
            let (done_tx, done) = mpsc::channel();
            let receiver = rx.clone();
            let handle = thread::spawn(move || {
                let _ = done_tx.send(receive(&receiver));
            });
            until_parked(rx, 1);
            (handle, done)
        }

        #[test]
        fn a_send_wakes_a_receiver_parked_in_recv_or_recv_timeout() {
            for timed in [true, false] {
                let (tx, rx) = unbounded::<u32>();
                let (handle, done) = park_one(&rx, move |rx| {
                    if timed {
                        rx.recv_timeout(Duration::from_secs(10)).ok()
                    } else {
                        rx.recv().ok()
                    }
                });
                tx.send(7).unwrap();
                assert_eq!(done.recv_timeout(WAKE), Ok(Some(7)), "timed: {timed}");
                handle.join().unwrap();
            }
        }

        #[test]
        fn parked_producers_and_consumers_deliver_every_message_once() {
            const N: usize = 4;
            const PER_PRODUCER: u32 = 500;
            let (tx, rx) = unbounded::<u32>();
            let (done_tx, done) = mpsc::channel();
            let mut handles: Vec<_> = (0..N)
                .map(|_| {
                    let (rx, done_tx) = (rx.clone(), done_tx.clone());
                    thread::spawn(move || {
                        let mut got = Vec::new();
                        while let Ok(value) = rx.recv() {
                            got.push(value);
                        }
                        let _ = done_tx.send(got);
                    })
                })
                .collect();
            until_parked(&rx, N);
            handles.extend((0..N as u32).map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        tx.send(p * PER_PRODUCER + i).unwrap();
                        if i % 50 == 0 {
                            // Let the consumers drain and park again.
                            thread::sleep(Duration::from_millis(1));
                        }
                    }
                })
            }));
            drop(tx);
            let mut seen = BTreeSet::new();
            for _ in 0..N {
                let got = done
                    .recv_timeout(Duration::from_secs(10))
                    .expect("every consumer ends");
                for value in got {
                    assert!(seen.insert(value), "{value} delivered twice");
                }
            }
            assert_eq!(seen.len(), N * PER_PRODUCER as usize, "none lost");
            for handle in handles {
                handle.join().unwrap();
            }
        }

        #[test]
        fn dropping_the_last_sender_wakes_a_parked_receiver() {
            for timed in [true, false] {
                let (tx, rx) = unbounded::<u32>();
                let (handle, done) = park_one(&rx, move |rx| {
                    if timed {
                        rx.recv_timeout(Duration::from_secs(10))
                            == Err(RecvTimeoutError::Disconnected)
                    } else {
                        rx.recv() == Err(RecvError)
                    }
                });
                let other = tx.clone();
                drop(tx);
                thread::sleep(Duration::from_millis(20));
                assert!(done.try_recv().is_err(), "a sender is left");
                drop(other);
                assert_eq!(done.recv_timeout(WAKE), Ok(true), "timed: {timed}");
                handle.join().unwrap();
            }
        }
    }
}

pub mod thread {
    //! Scoped threads with crossbeam's error-returning convention.

    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Mirror of `std::thread::Result`.
    pub type Result<T> = std::thread::Result<T>;

    /// Handle onto a scope; spawn threads through it.
    pub struct Scope<'scope, 'env: 'scope> {
        inner: &'scope std::thread::Scope<'scope, 'env>,
    }

    /// Join handle for a scoped thread.
    pub struct ScopedJoinHandle<'scope, T> {
        inner: std::thread::ScopedJoinHandle<'scope, T>,
    }

    impl<'scope, T> ScopedJoinHandle<'scope, T> {
        /// Waits for the thread to finish.
        ///
        /// # Errors
        ///
        /// Returns the panic payload if the thread panicked.
        pub fn join(self) -> Result<T> {
            self.inner.join()
        }
    }

    impl<'scope, 'env> Scope<'scope, 'env> {
        /// Spawns a thread scoped to borrow from the environment.
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce() -> T + Send + 'scope,
            T: Send + 'scope,
        {
            ScopedJoinHandle {
                inner: self.inner.spawn(f),
            }
        }
    }

    /// Runs `f` with a scope handle; all spawned threads are joined
    /// before this returns. A panic in any unjoined child (or in `f`)
    /// surfaces as `Err`.
    ///
    /// # Errors
    ///
    /// Returns the panic payload of whichever thread panicked first.
    pub fn scope<'env, F, R>(f: F) -> Result<R>
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        catch_unwind(AssertUnwindSafe(|| {
            std::thread::scope(|s| f(&Scope { inner: s }))
        }))
    }
}

pub use thread::scope;

#[cfg(test)]
mod tests {
    use super::channel::{unbounded, RecvTimeoutError};
    use std::time::Duration;

    #[test]
    fn send_recv_across_threads() {
        let (tx, rx) = unbounded();
        let producer = std::thread::spawn(move || {
            for i in 0..100u32 {
                tx.send(i).unwrap();
            }
        });
        let mut got = Vec::new();
        for _ in 0..100 {
            got.push(rx.recv_timeout(Duration::from_secs(5)).unwrap());
        }
        producer.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn timeout_and_disconnect_are_distinguished() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn send_to_no_receiver_fails() {
        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn scope_joins_and_borrows() {
        let data = [1u64, 2, 3, 4];
        let total = super::scope(|s| {
            let handles: Vec<_> = data
                .chunks(2)
                .map(|chunk| s.spawn(move || chunk.iter().sum::<u64>()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum::<u64>()
        })
        .unwrap();
        assert_eq!(total, 10);
    }

    #[test]
    fn scope_reports_child_panics_as_err() {
        let result = super::scope(|s| {
            s.spawn(|| panic!("child dies"));
        });
        assert!(result.is_err());
    }
}
