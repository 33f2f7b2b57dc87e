//! The flight recorder's core: a bounded overwrite-oldest ring of
//! completed request traces, plus the deterministic head-based sampler
//! that decides which requests pay for a full trace.
//!
//! Both pieces are generic and zero-dependency: the ring stores any `T`
//! (the serve layer puts its `RequestTrace` here), and the sampler is a
//! pure counter — no clock, no RNG state beyond the seed. The hot-path
//! cost for an *unsampled* request is one atomic fetch-add in
//! [`Sampler::sample`]; the ring is only touched for requests that are
//! actually captured.
//!
//! # Memory bound
//!
//! The ring allocates its `capacity` slots once at construction and never
//! grows: pushing into a full ring overwrites the oldest entry (and
//! counts it in [`FlightRing::overwritten`]). A server with a 1024-entry
//! ring therefore holds at most 1024 traces regardless of uptime.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Deterministic head-based sampler: samples the `k`-th call iff
/// `(k + seed) % every == 0`. With `every = 0` nothing is ever sampled
/// (capture then happens only when forced — errors and slow requests).
///
/// Determinism matters for tests and for reasoning about overhead: given
/// the same seed and call sequence, the same calls sample. The seed
/// offsets the phase so several servers sharing a load balancer do not
/// all sample the same client's requests.
#[derive(Debug)]
pub struct Sampler {
    every: u64,
    seed: u64,
    calls: AtomicU64,
}

impl Sampler {
    /// A sampler capturing one call in `every` (0 = never), with phase
    /// offset `seed`.
    pub fn new(every: u64, seed: u64) -> Sampler {
        Sampler {
            every,
            seed,
            calls: AtomicU64::new(0),
        }
    }

    /// The sampling period (0 = head sampling disabled).
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Decides the next call: true when this request should be traced.
    /// One atomic fetch-add; never reads a clock.
    pub fn sample(&self) -> bool {
        let k = self.calls.fetch_add(1, Ordering::Relaxed);
        self.every > 0 && k.wrapping_add(self.seed).is_multiple_of(self.every)
    }

    /// Calls decided so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

struct RingInner<T> {
    /// Preallocated slots; `None` until first wrapped.
    slots: Vec<Option<(u64, T)>>,
    /// Next slot to write (monotone; slot index is `next % capacity`).
    next: u64,
}

/// A fixed-capacity overwrite-oldest ring of `(id, entry)` pairs.
///
/// All slots are allocated up front; [`FlightRing::push`] moves the entry
/// into a slot under a short mutex hold and never allocates. Entries are
/// looked up by id ([`FlightRing::get`]) or enumerated newest-first
/// ([`FlightRing::recent`]).
pub struct FlightRing<T> {
    inner: Mutex<RingInner<T>>,
    capacity: usize,
    pushed: AtomicU64,
    overwritten: AtomicU64,
}

impl<T> FlightRing<T> {
    /// A ring holding at most `capacity` entries (0 = recording disabled;
    /// every push is dropped).
    pub fn new(capacity: usize) -> FlightRing<T> {
        FlightRing {
            inner: Mutex::new(RingInner {
                slots: (0..capacity).map(|_| None).collect(),
                next: 0,
            }),
            capacity,
            pushed: AtomicU64::new(0),
            overwritten: AtomicU64::new(0),
        }
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        let inner = self.inner.lock().expect("flight ring lock");
        inner.slots.iter().filter(|s| s.is_some()).count()
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.pushed.load(Ordering::Relaxed) == 0
    }

    /// Total entries ever pushed (including overwritten ones).
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Relaxed)
    }

    /// Entries evicted by overwrite since construction.
    pub fn overwritten(&self) -> u64 {
        self.overwritten.load(Ordering::Relaxed)
    }

    /// Records `entry` under `id`, overwriting the oldest entry when the
    /// ring is full. No allocation; the mutex guards one slot write.
    pub fn push(&self, id: u64, entry: T) {
        if self.capacity == 0 {
            return;
        }
        let evicted = {
            let mut inner = self.inner.lock().expect("flight ring lock");
            let at = (inner.next % self.capacity as u64) as usize;
            inner.next += 1;
            inner.slots[at].replace((id, entry))
        };
        self.pushed.fetch_add(1, Ordering::Relaxed);
        if evicted.is_some() {
            self.overwritten.fetch_add(1, Ordering::Relaxed);
        }
        // Evicted entry drops outside the lock.
        drop(evicted);
    }
}

impl<T: Clone> FlightRing<T> {
    /// The entry recorded under `id`, if it is still in the ring.
    pub fn get(&self, id: u64) -> Option<T> {
        let inner = self.inner.lock().expect("flight ring lock");
        inner
            .slots
            .iter()
            .flatten()
            .find(|(eid, _)| *eid == id)
            .map(|(_, e)| e.clone())
    }

    /// Up to `n` most recent entries, newest first.
    pub fn recent(&self, n: usize) -> Vec<(u64, T)> {
        let inner = self.inner.lock().expect("flight ring lock");
        let cap = self.capacity as u64;
        if cap == 0 || n == 0 {
            return Vec::new();
        }
        let mut out = Vec::with_capacity(n.min(self.capacity));
        // Walk backwards from the most recently written slot.
        let written = inner.next.min(cap);
        for back in 0..written {
            if out.len() >= n {
                break;
            }
            let at = ((inner.next - 1 - back) % cap) as usize;
            if let Some((id, e)) = &inner.slots[at] {
                out.push((*id, e.clone()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overwrites_oldest() {
        let ring: FlightRing<u32> = FlightRing::new(3);
        for i in 0..5u64 {
            ring.push(i, i as u32 * 10);
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.pushed(), 5);
        assert_eq!(ring.overwritten(), 2);
        assert_eq!(ring.get(0), None);
        assert_eq!(ring.get(1), None);
        assert_eq!(ring.get(4), Some(40));
        assert_eq!(ring.recent(10), vec![(4, 40), (3, 30), (2, 20)]);
        assert_eq!(ring.recent(1), vec![(4, 40)]);
    }

    #[test]
    fn zero_capacity_ring_drops_everything() {
        let ring: FlightRing<u32> = FlightRing::new(0);
        ring.push(1, 1);
        assert_eq!(ring.len(), 0);
        assert!(ring.recent(4).is_empty());
        assert_eq!(ring.get(1), None);
    }

    #[test]
    fn sampler_is_periodic_and_deterministic() {
        let s = Sampler::new(4, 0);
        let hits: Vec<bool> = (0..8).map(|_| s.sample()).collect();
        assert_eq!(hits, [true, false, false, false, true, false, false, false]);
        // A seed shifts the phase but keeps the rate.
        let s = Sampler::new(4, 3);
        let hits: Vec<bool> = (0..8).map(|_| s.sample()).collect();
        assert_eq!(hits.iter().filter(|&&h| h).count(), 2);
        let s = Sampler::new(0, 7);
        assert!((0..100).all(|_| !s.sample()));
        assert_eq!(s.calls(), 100);
    }
}
