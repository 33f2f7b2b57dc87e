//! Admission control: the server's single backpressure point.
//!
//! Requests execute on their own connection's thread, but at most `depth`
//! of them at once. [`AdmissionGate::admit`] hands out a [`Permit`] when a
//! slot is free, waiting at most the admission timeout for one; when none
//! frees up in time the caller answers its client with a typed `BUSY`
//! instead of piling more work onto the executor. A permit gives its slot
//! back when dropped — also during a panic unwind — so a failed request
//! can never leak capacity.
//!
//! Built on `std::sync::{Mutex, Condvar}`, so the server adds no
//! dependencies beyond the standard library.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct State {
    /// Permits currently out.
    held: usize,
    /// Callers blocked in [`AdmissionGate::admit`]; a released permit
    /// wakes one only when someone waits.
    waiting: usize,
    closed: bool,
}

/// A counting gate: at most `depth` permits are out at any time.
pub struct AdmissionGate {
    state: Mutex<State>,
    freed: Condvar,
    depth: usize,
}

/// Why an [`AdmissionGate::admit`] failed.
#[derive(Debug, PartialEq, Eq)]
pub enum AdmitError {
    /// Every slot stayed taken for the whole admission timeout.
    Full,
    /// The gate is shut down.
    Closed,
}

/// One admitted request's slot; dropping it frees the slot.
#[must_use = "the slot is released as soon as the permit is dropped"]
pub struct Permit<'a> {
    gate: &'a AdmissionGate,
}

impl AdmissionGate {
    /// A gate admitting at most `depth` concurrent requests.
    pub fn new(depth: usize) -> AdmissionGate {
        AdmissionGate {
            state: Mutex::new(State {
                held: 0,
                waiting: 0,
                closed: false,
            }),
            freed: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// The state lock. No code panics while holding it, but a permit
    /// dropped during an unwind must still be able to give its slot back,
    /// so a poisoned lock is used as is.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Permits currently out (for gauges).
    pub fn held(&self) -> usize {
        self.lock().held
    }

    /// Takes a slot, waiting at most `timeout` for one to free up.
    pub fn admit(&self, timeout: Duration) -> Result<Permit<'_>, AdmitError> {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock();
        loop {
            if state.closed {
                return Err(AdmitError::Closed);
            }
            if state.held < self.depth {
                state.held += 1;
                return Ok(Permit { gate: self });
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(AdmitError::Full);
            }
            state.waiting += 1;
            state = self
                .freed
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
            state.waiting -= 1;
        }
    }

    /// Shuts the gate: waiters and later callers fail with
    /// [`AdmitError::Closed`]. Permits already out stay valid.
    pub fn close(&self) {
        self.lock().closed = true;
        self.freed.notify_all();
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.lock();
        state.held -= 1;
        let wake = state.waiting > 0;
        drop(state);
        if wake {
            self.gate.freed.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Returns once `n` callers are blocked inside `admit`.
    fn until_waiting(gate: &AdmissionGate, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while gate.lock().waiting != n {
            assert!(Instant::now() < deadline, "no caller blocked in admit");
            std::thread::yield_now();
        }
    }

    #[test]
    fn admit_times_out_when_full() {
        let gate = AdmissionGate::new(2);
        let _a = gate.admit(Duration::from_millis(1)).unwrap();
        let _b = gate.admit(Duration::from_millis(1)).unwrap();
        let started = Instant::now();
        assert_eq!(
            gate.admit(Duration::from_millis(30)).err(),
            Some(AdmitError::Full)
        );
        assert!(started.elapsed() >= Duration::from_millis(30));
        assert_eq!(gate.held(), 2);
    }

    #[test]
    fn permit_is_released_on_drop() {
        let gate = AdmissionGate::new(1);
        let permit = gate.admit(Duration::ZERO).unwrap();
        assert_eq!(gate.admit(Duration::ZERO).err(), Some(AdmitError::Full));
        drop(permit);
        assert_eq!(gate.held(), 0);
        let _again = gate.admit(Duration::ZERO).expect("the slot came back");
    }

    #[test]
    fn permit_is_released_during_panic_unwind() {
        let gate = AdmissionGate::new(1);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _permit = gate.admit(Duration::ZERO).unwrap();
            panic!("request failed while admitted");
        }));
        assert!(unwound.is_err());
        assert_eq!(gate.held(), 0);
        let _again = gate.admit(Duration::ZERO).expect("the slot came back");
    }

    #[test]
    fn blocked_admit_wakes_on_release() {
        let gate = AdmissionGate::new(1);
        let permit = gate.admit(Duration::ZERO).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let started = Instant::now();
                (
                    gate.admit(Duration::from_secs(5)).map(drop),
                    started.elapsed(),
                )
            });
            until_waiting(&gate, 1);
            drop(permit);
            let (admitted, waited) = waiter.join().unwrap();
            admitted.expect("admitted after the release");
            assert!(
                waited < Duration::from_secs(5),
                "the release did not wake it"
            );
        });
        assert_eq!(gate.held(), 0);
    }

    #[test]
    fn close_wakes_waiters() {
        let gate = AdmissionGate::new(1);
        let _permit = gate.admit(Duration::ZERO).unwrap();
        std::thread::scope(|s| {
            let waiter = s.spawn(|| {
                let started = Instant::now();
                (gate.admit(Duration::from_secs(5)).err(), started.elapsed())
            });
            until_waiting(&gate, 1);
            gate.close();
            let (err, waited) = waiter.join().unwrap();
            assert_eq!(err, Some(AdmitError::Closed));
            assert!(waited < Duration::from_secs(5), "close did not wake it");
        });
        assert_eq!(gate.admit(Duration::ZERO).err(), Some(AdmitError::Closed));
    }
}
