//! Timestamps and the fixed-ΔT windowing DarkVec uses to cut the packet
//! stream into sentences (§5.2).
//!
//! Timestamps are seconds since the start of the capture. The simulator and
//! all experiments use a 30-day horizon like the paper, so a `u64` of
//! seconds is more than enough resolution: darknet sequence construction
//! only needs ordering and windowing, not sub-second precision.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// One minute, in seconds.
pub const MINUTE: u64 = 60;
/// One hour, in seconds. The paper's default sequence window ΔT (§5.2).
pub const HOUR: u64 = 3_600;
/// One day, in seconds.
pub const DAY: u64 = 86_400;

/// Seconds since the start of the observation period.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// The capture origin (t = 0).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Builds a timestamp from whole days, hours, minutes and seconds.
    pub const fn from_dhms(days: u64, hours: u64, minutes: u64, seconds: u64) -> Self {
        Timestamp(days * DAY + hours * HOUR + minutes * MINUTE + seconds)
    }

    /// Zero-based day index of this instant.
    pub const fn day(self) -> u64 {
        self.0 / DAY
    }

    /// Zero-based hour-of-capture index.
    pub const fn hour(self) -> u64 {
        self.0 / HOUR
    }

    /// Seconds into the current day.
    pub const fn second_of_day(self) -> u64 {
        self.0 % DAY
    }

    /// Index of the ΔT window containing this instant.
    ///
    /// # Panics
    /// Panics if `dt` is zero.
    pub fn window(self, dt: u64) -> u64 {
        assert!(dt > 0, "window length must be positive");
        self.0 / dt
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.day();
        let rem = self.second_of_day();
        write!(
            f,
            "d{:02} {:02}:{:02}:{:02}",
            d,
            rem / HOUR,
            (rem % HOUR) / MINUTE,
            rem % MINUTE
        )
    }
}

impl fmt::Debug for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Timestamp({self})")
    }
}

impl Add<u64> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: u64) -> Timestamp {
        Timestamp(self.0 + rhs)
    }
}

impl AddAssign<u64> for Timestamp {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = u64;
    fn sub(self, rhs: Timestamp) -> u64 {
        self.0 - rhs.0
    }
}

/// Iterator over consecutive `[start, start+dt)` half-open windows covering
/// `[t0, tf)` — the paper's non-overlapping observation windows
/// `W(t0 + i·ΔT)`.
#[derive(Clone, Debug)]
pub struct WindowIter {
    next_start: u64,
    end: u64,
    dt: u64,
}

impl WindowIter {
    /// Windows of length `dt` covering `[t0, tf)`. The last window is
    /// truncated at `tf` (the paper's N = ⌈(tf − t0)/ΔT⌉ windows).
    ///
    /// # Panics
    /// Panics if `dt` is zero.
    pub fn new(t0: Timestamp, tf: Timestamp, dt: u64) -> Self {
        assert!(dt > 0, "window length must be positive");
        WindowIter {
            next_start: t0.0,
            end: tf.0.max(t0.0),
            dt,
        }
    }
}

impl Iterator for WindowIter {
    /// `(start, end)` of each half-open window.
    type Item = (Timestamp, Timestamp);

    fn next(&mut self) -> Option<Self::Item> {
        if self.next_start >= self.end {
            return None;
        }
        let start = self.next_start;
        let end = (start + self.dt).min(self.end);
        self.next_start = start + self.dt;
        Some((Timestamp(start), Timestamp(end)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dhms_construction() {
        assert_eq!(
            Timestamp::from_dhms(1, 2, 3, 4).0,
            DAY + 2 * HOUR + 3 * MINUTE + 4
        );
    }

    #[test]
    fn day_and_hour_indices() {
        let t = Timestamp::from_dhms(3, 5, 0, 0);
        assert_eq!(t.day(), 3);
        assert_eq!(t.hour(), 3 * 24 + 5);
        assert_eq!(t.second_of_day(), 5 * HOUR);
    }

    #[test]
    fn window_index() {
        assert_eq!(Timestamp(0).window(HOUR), 0);
        assert_eq!(Timestamp(HOUR - 1).window(HOUR), 0);
        assert_eq!(Timestamp(HOUR).window(HOUR), 1);
    }

    #[test]
    fn windows_cover_interval_exactly() {
        let wins: Vec<_> = WindowIter::new(Timestamp(0), Timestamp(10_000), HOUR).collect();
        assert_eq!(wins.len(), 3); // ceil(10000/3600)
        assert_eq!(wins[0], (Timestamp(0), Timestamp(HOUR)));
        assert_eq!(wins[2], (Timestamp(2 * HOUR), Timestamp(10_000)));
        // Windows tile the interval with no gaps or overlaps.
        for pair in wins.windows(2) {
            assert_eq!(pair[0].1 .0.min(pair[1].0 .0), pair[1].0 .0);
        }
    }

    #[test]
    fn empty_interval_yields_no_windows() {
        assert_eq!(WindowIter::new(Timestamp(5), Timestamp(5), HOUR).count(), 0);
        // Degenerate tf < t0 is treated as empty, not an infinite loop.
        assert_eq!(WindowIter::new(Timestamp(9), Timestamp(2), HOUR).count(), 0);
    }

    #[test]
    fn display_format() {
        assert_eq!(Timestamp::from_dhms(2, 3, 4, 5).to_string(), "d02 03:04:05");
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp(100);
        assert_eq!((t + 20).0, 120);
        assert_eq!(Timestamp(120) - t, 20);
        let mut u = t;
        u += 5;
        assert_eq!(u.0, 105);
    }
}
