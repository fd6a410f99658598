//! Time for the network layer: the [`SimTime`] instant/span type and
//! the pluggable [`Clock`] driver that decides whether time is
//! *virtual* (advanced explicitly, the simulator's default) or *wall*
//! (a monotonic reading of the host clock, for real socket transports).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A point (or span) of simulated time, in nanoseconds.
///
/// The simulator uses virtual clocks so experiments measure *protocol*
/// latency (rounds × link latency + serialization) deterministically,
/// independent of host speed.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Debug)]
pub struct SimTime(u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from nanoseconds.
    #[must_use]
    pub fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs from microseconds.
    #[must_use]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Constructs from milliseconds.
    #[must_use]
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Nanosecond count.
    #[must_use]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1.0e6
    }

    /// The later of two times.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Subtraction clamped at zero (timers compute "time left" with
    /// this so a deadline already in the past never panics).
    #[must_use]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// This span as a [`Duration`] (for handing virtual spans to
    /// blocking OS primitives that want real durations).
    #[must_use]
    pub fn to_duration(self) -> Duration {
        Duration::from_nanos(self.0)
    }
}

/// A time driver: the single abstraction behind every timer in the
/// stack (ARQ retransmission backoff, recv deadlines, heartbeat
/// suspicion, telemetry span timestamps).
///
/// Two families implement it:
///
/// * [`VirtualClock`] — time advances only when a component charges it
///   ([`Clock::advance`] bumps a counter, waiting is free). This is the
///   simulator's semantics: experiments measure protocol time, not
///   host speed.
/// * [`WallClock`] — a monotonic reading of the host clock anchored at
///   construction; [`Clock::advance`] genuinely sleeps. This is what
///   socket transports and the process-per-node deployment run on.
///
/// All methods take `&self` so one clock can be shared by the threads
/// of a transport (the same interior-mutability contract as
/// [`crate::Transport`]).
pub trait Clock: Send + Sync + fmt::Debug {
    /// The current reading, as time since this clock's origin.
    fn now(&self) -> SimTime;

    /// Lets `d` pass: a virtual clock bumps its counter, a wall clock
    /// sleeps the calling thread.
    fn advance(&self, d: SimTime);

    /// Whether this clock only moves when advanced. Components that
    /// wait on OS primitives use this to decide who is responsible for
    /// making a deadline eventually fire.
    fn is_virtual(&self) -> bool;
}

/// A [`Clock`] that moves only when advanced — the driver form of the
/// simulator's virtual time.
#[derive(Debug, Default)]
pub struct VirtualClock {
    ns: AtomicU64,
}

impl VirtualClock {
    /// A virtual clock at time zero.
    #[must_use]
    pub fn new() -> Self {
        VirtualClock::default()
    }

    /// A virtual clock starting at `at`.
    #[must_use]
    pub fn starting_at(at: SimTime) -> Self {
        VirtualClock {
            ns: AtomicU64::new(at.as_nanos()),
        }
    }
}

impl Clock for VirtualClock {
    fn now(&self) -> SimTime {
        SimTime(self.ns.load(Ordering::Acquire))
    }

    fn advance(&self, d: SimTime) {
        self.ns.fetch_add(d.as_nanos(), Ordering::AcqRel);
    }

    fn is_virtual(&self) -> bool {
        true
    }
}

/// A [`Clock`] reading the host's monotonic clock, anchored at
/// construction time. [`Clock::advance`] sleeps for real.
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock anchored now.
    #[must_use]
    pub fn new() -> Self {
        WallClock {
            origin: Instant::now(),
        }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> SimTime {
        SimTime(u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    fn advance(&self, d: SimTime) {
        std::thread::sleep(d.to_duration());
    }

    fn is_virtual(&self) -> bool {
        false
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    /// # Panics
    ///
    /// Panics on underflow (subtracting a later time from an earlier one).
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.0 as f64 / 1.0e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1.0e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1.0e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_nanos(7).as_nanos(), 7);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(3);
        assert_eq!((a + b).as_nanos(), 8_000);
        assert_eq!((a - b).as_nanos(), 2_000);
        let mut c = a;
        c += b;
        assert_eq!(c.as_nanos(), 8_000);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn ordering_and_max() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert_eq!(
            SimTime::from_nanos(1).max(SimTime::from_nanos(2)),
            SimTime::from_nanos(2)
        );
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_nanos(1_500).to_string(), "1.500us");
        assert_eq!(SimTime::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimTime::from_millis(2_500).to_string(), "2.500s");
    }

    #[test]
    fn millis_f64() {
        assert!((SimTime::from_micros(1500).as_millis_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(
            SimTime::from_nanos(1).saturating_sub(SimTime::from_nanos(5)),
            SimTime::ZERO
        );
        assert_eq!(
            SimTime::from_nanos(5).saturating_sub(SimTime::from_nanos(1)),
            SimTime::from_nanos(4)
        );
    }

    #[test]
    fn virtual_clock_moves_only_when_advanced() {
        let clock = VirtualClock::new();
        assert!(clock.is_virtual());
        assert_eq!(clock.now(), SimTime::ZERO);
        clock.advance(SimTime::from_micros(5));
        clock.advance(SimTime::from_micros(3));
        assert_eq!(clock.now(), SimTime::from_micros(8));
        let seeded = VirtualClock::starting_at(SimTime::from_millis(1));
        assert_eq!(seeded.now(), SimTime::from_millis(1));
    }

    #[test]
    fn wall_clock_monotonically_advances() {
        let clock = WallClock::new();
        assert!(!clock.is_virtual());
        let a = clock.now();
        clock.advance(SimTime::from_micros(200));
        let b = clock.now();
        assert!(b > a, "wall time must pass while sleeping");
    }

    #[test]
    fn clocks_are_object_safe_and_shareable() {
        fn take(clock: &dyn Clock) -> SimTime {
            clock.now()
        }
        assert_eq!(take(&VirtualClock::new()), SimTime::ZERO);
        let wall: std::sync::Arc<dyn Clock> = std::sync::Arc::new(WallClock::new());
        std::thread::scope(|s| {
            let wall = &wall;
            s.spawn(move || wall.advance(SimTime::from_micros(50)));
        });
        assert!(wall.now() > SimTime::ZERO);
    }
}
