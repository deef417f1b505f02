//! Offline shim for `crossbeam-channel`: an unbounded MPMC channel with
//! cloneable senders *and* receivers and crossbeam's disconnect semantics,
//! built on `Mutex<VecDeque>` + `Condvar`. Performance is adequate for the
//! coarse-grained messages this workspace moves (serialized centroid
//! buffers, one per rank per collective step).

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};

struct Shared<T> {
    queue: Mutex<VecDeque<T>>,
    ready: Condvar,
    senders: AtomicUsize,
    receivers: AtomicUsize,
}

/// Error returned by [`Sender::send`] when every receiver is gone.
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

/// Error returned by [`Receiver::recv`] when the channel is empty and every
/// sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty, disconnected channel")
    }
}

impl std::error::Error for RecvError {}

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Channel currently empty.
    Empty,
    /// Channel empty and all senders dropped.
    Disconnected,
}

/// The sending half; cloneable.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half; cloneable (any one receiver gets each message).
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// Create an unbounded channel.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        queue: Mutex::new(VecDeque::new()),
        ready: Condvar::new(),
        senders: AtomicUsize::new(1),
        receivers: AtomicUsize::new(1),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

impl<T> Sender<T> {
    /// Enqueue a message; fails only if all receivers were dropped.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        if self.shared.receivers.load(Ordering::Acquire) == 0 {
            return Err(SendError(value));
        }
        let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        q.push_back(value);
        drop(q);
        self.shared.ready.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::AcqRel);
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Last sender: wake blocked receivers so they can observe EOF.
            // Passing through the lock first orders the wakeup after any
            // receiver that saw a live sender under it has begun to wait.
            drop(self.shared.queue.lock().unwrap_or_else(|p| p.into_inner()));
            self.shared.ready.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    /// Block until a message arrives; fails once the channel is empty and
    /// all senders are gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            if let Some(v) = q.pop_front() {
                return Ok(v);
            }
            if self.shared.senders.load(Ordering::Acquire) == 0 {
                return Err(RecvError);
            }
            q = self.shared.ready.wait(q).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(v) = q.pop_front() {
            return Ok(v);
        }
        if self.shared.senders.load(Ordering::Acquire) == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.shared.queue.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// True when no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.receivers.fetch_add(1, Ordering::AcqRel);
        Self { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.receivers.fetch_sub(1, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    fn recv_blocks_until_send() {
        let (tx, rx) = unbounded();
        let h = std::thread::spawn(move || rx.recv().unwrap());
        std::thread::sleep(std::time::Duration::from_millis(20));
        tx.send(99u32).unwrap();
        assert_eq!(h.join().unwrap(), 99);
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = unbounded::<u8>();
        drop(tx);
        assert_eq!(rx.recv(), Err(RecvError));

        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn mpmc_sum_is_exact() {
        let (tx, rx) = unbounded::<u64>();
        let producers: Vec<_> = (0..4)
            .map(|p| {
                let tx = tx.clone();
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        tx.send(p * 1000 + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || {
                    let mut sum = 0u64;
                    while let Ok(v) = rx.recv() {
                        sum += v;
                    }
                    sum
                })
            })
            .collect();
        for p in producers {
            p.join().unwrap();
        }
        let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, (0..4000u64).sum());
    }

    /// The last sender's drop must wake a receiver that has just seen a
    /// live sender under the lock but not yet begun to wait. Each round
    /// races one drop against one `recv` on a fresh channel, the drop
    /// delayed by a few spins more each round to sweep the window; a lost
    /// wakeup leaves the receiver asleep and fails the round at its
    /// deadline instead of hanging the test.
    #[test]
    fn last_sender_drop_wakes_a_blocked_receiver() {
        use std::sync::mpsc;
        use std::time::Duration;

        let (to_receiver, channels) = mpsc::channel::<Receiver<u8>>();
        let (done, finished) = mpsc::channel();
        let receiver = std::thread::spawn(move || {
            for rx in channels {
                let _ = done.send(rx.recv());
            }
        });
        for round in 0..200_000 {
            let (tx, rx) = unbounded::<u8>();
            to_receiver.send(rx).unwrap();
            for _ in 0..round % 64 {
                std::hint::spin_loop();
            }
            drop(tx);
            let got = finished.recv_timeout(Duration::from_secs(5));
            assert_eq!(got, Ok(Err(RecvError)), "round {round}: the receiver missed the drop");
        }
        drop(to_receiver);
        receiver.join().unwrap();
    }
}
