//! Simulated time.
//!
//! The simulator uses a fixed-point clock with **microsecond** resolution so
//! that the paper's finest heartbeat interval (0.1 ms, Fig. 10b) is exactly
//! representable. Wall-clock quantities in the paper range from ~10 ms
//! inference queries to 12-hour traces; a `u64` microsecond counter covers
//! ~584 000 years, so overflow is not a practical concern.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in microseconds since start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time, in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// This instant expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// This instant expressed in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// This instant in whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Time elapsed since `earlier`, saturating at zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// Construct from whole microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Construct from fractional seconds (rounded to the nearest microsecond).
    ///
    /// # Panics
    /// Panics if `s` is negative or not finite.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s.is_finite() && s >= 0.0, "duration must be finite and non-negative: {s}");
        SimDuration((s * 1e6).round() as u64)
    }

    /// The duration in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration in (fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The duration in whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// True when this is the zero duration.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Integer number of `tick`-sized steps fully contained in this duration.
    pub fn ticks(self, tick: SimDuration) -> u64 {
        assert!(tick.0 > 0, "tick must be non-zero");
        self.0 / tick.0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "time-arithmetic underflow is a simulator bug; wrapping silently would corrupt every downstream metric"
    )]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimTime subtraction underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[expect(
        clippy::expect_used,
        reason = "time-arithmetic underflow is a simulator bug; wrapping silently would corrupt every downstream metric"
    )]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration subtraction underflow"))
    }
}

impl SubAssign for SimDuration {
    #[expect(
        clippy::expect_used,
        reason = "time-arithmetic underflow is a simulator bug; wrapping silently would corrupt every downstream metric"
    )]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.checked_sub(rhs.0).expect("SimDuration subtraction underflow");
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(2), SimTime(2_000_000));
        assert_eq!(SimTime::from_millis(3), SimTime(3_000));
        assert_eq!(SimDuration::from_secs(1), SimDuration(1_000_000));
        assert_eq!(SimDuration::from_secs_f64(0.0001), SimDuration(100));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t, SimTime(1_500_000));
        assert_eq!(t - SimTime::from_secs(1), SimDuration::from_millis(500));
        assert_eq!(SimDuration::from_secs(2) / 4, SimDuration::from_millis(500));
        assert_eq!(SimDuration::from_millis(2) * 3, SimDuration::from_millis(6));
    }

    #[test]
    fn saturating_since_clamps() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
    }

    #[test]
    fn tick_count() {
        let d = SimDuration::from_millis(105);
        assert_eq!(d.ticks(SimDuration::from_millis(10)), 10);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimDuration::from_micros(2)), "2us");
    }

    #[test]
    fn as_accessors() {
        let d = SimDuration::from_millis(1500);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
        assert!((d.as_millis_f64() - 1500.0).abs() < 1e-12);
        assert_eq!(d.as_micros(), 1_500_000);
        assert!(!d.is_zero());
        assert!(SimDuration::ZERO.is_zero());
    }
}
