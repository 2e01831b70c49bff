//! Simulation time base: picosecond timestamps and clock frequencies.
//!
//! The paper's controller spans four clock domains (CPU/scratchpad, frame
//! bus + GDDR SDRAM, PCI, and the Ethernet clock), so the global timeline
//! is kept in integer picoseconds and each domain derives its tick times
//! from its own period. Picoseconds are exact for every frequency used in
//! the evaluation (e.g. 166 MHz -> 6024 ps, 10 Gb/s -> 100 ps per byte*0.8).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point (or span) on the global simulation timeline, in picoseconds.
///
/// `Ps` is a transparent newtype over `u64`; at 1 ps resolution this wraps
/// after ~213 days of simulated time, far beyond any run in this repo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Ps(pub u64);

impl Ps {
    /// Time zero.
    pub const ZERO: Ps = Ps(0);
    /// The largest representable time; used as "never".
    pub const MAX: Ps = Ps(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub fn from_ns(ns: u64) -> Ps {
        Ps(ns * 1_000)
    }

    /// Construct from microseconds.
    #[inline]
    pub fn from_us(us: u64) -> Ps {
        Ps(us * 1_000_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub fn from_ms(ms: u64) -> Ps {
        Ps(ms * 1_000_000_000)
    }

    /// This time expressed in (truncated) nanoseconds.
    #[inline]
    pub fn as_ns(self) -> u64 {
        self.0 / 1_000
    }

    /// This time expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-12
    }

    /// Saturating subtraction: `self - rhs`, or zero if `rhs` is later.
    #[inline]
    pub fn saturating_sub(self, rhs: Ps) -> Ps {
        Ps(self.0.saturating_sub(rhs.0))
    }

    /// The later of two times.
    #[inline]
    pub fn max(self, rhs: Ps) -> Ps {
        Ps(self.0.max(rhs.0))
    }

    /// The earlier of two times.
    #[inline]
    pub fn min(self, rhs: Ps) -> Ps {
        Ps(self.0.min(rhs.0))
    }
}

impl Add for Ps {
    type Output = Ps;
    #[inline]
    fn add(self, rhs: Ps) -> Ps {
        Ps(self.0 + rhs.0)
    }
}

impl AddAssign for Ps {
    #[inline]
    fn add_assign(&mut self, rhs: Ps) {
        self.0 += rhs.0;
    }
}

impl Sub for Ps {
    type Output = Ps;
    #[inline]
    fn sub(self, rhs: Ps) -> Ps {
        Ps(self.0 - rhs.0)
    }
}

impl fmt::Display for Ps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ns", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ps", self.0)
        }
    }
}

/// A clock frequency, stored in hertz.
///
/// Provides the period (rounded to whole picoseconds, as LSE does with its
/// integral time base) and helpers to convert cycle counts to time spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Freq {
    hz: u64,
}

impl Freq {
    /// Construct from hertz.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero or above 1 THz (period would round to 0 ps).
    pub fn from_hz(hz: u64) -> Freq {
        assert!(hz > 0, "frequency must be nonzero");
        assert!(hz <= 1_000_000_000_000, "frequency above time resolution");
        Freq { hz }
    }

    /// Construct from megahertz.
    #[inline]
    pub fn from_mhz(mhz: u64) -> Freq {
        Freq::from_hz(mhz * 1_000_000)
    }

    /// The frequency in hertz.
    #[inline]
    pub fn hz(self) -> u64 {
        self.hz
    }

    /// The clock period, rounded to the nearest picosecond.
    #[inline]
    pub fn period(self) -> Ps {
        Ps((1_000_000_000_000u64 + self.hz / 2) / self.hz)
    }

    /// The duration of `n` cycles.
    #[inline]
    pub fn cycles(self, n: u64) -> Ps {
        Ps(self.period().0 * n)
    }

    /// How many full cycles fit in `span`.
    #[inline]
    pub fn cycles_in(self, span: Ps) -> u64 {
        span.0 / self.period().0
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}MHz", self.hz / 1_000_000)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ps_constructors_scale() {
        assert_eq!(Ps::from_ns(3), Ps(3_000));
        assert_eq!(Ps::from_us(2), Ps(2_000_000));
        assert_eq!(Ps::from_ms(1), Ps(1_000_000_000));
        assert_eq!(Ps::from_ms(1).as_ns(), 1_000_000);
    }

    #[test]
    fn ps_arithmetic() {
        let a = Ps(500);
        let b = Ps(200);
        assert_eq!(a + b, Ps(700));
        assert_eq!(a - b, Ps(300));
        assert_eq!(b.saturating_sub(a), Ps::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        let mut c = a;
        c += b;
        assert_eq!(c, Ps(700));
    }

    #[test]
    fn freq_periods_match_paper_domains() {
        // The paper's key clock domains.
        assert_eq!(Freq::from_mhz(200).period(), Ps(5_000));
        assert_eq!(Freq::from_mhz(500).period(), Ps(2_000));
        // 166 MHz rounds to 6024 ps.
        assert_eq!(Freq::from_mhz(166).period(), Ps(6_024));
    }

    #[test]
    fn freq_cycle_conversions() {
        let f = Freq::from_mhz(100);
        assert_eq!(f.cycles(7), Ps(70_000));
        assert_eq!(f.cycles_in(Ps(70_000)), 7);
        assert_eq!(f.cycles_in(Ps(69_999)), 6);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn freq_zero_rejected() {
        let _ = Freq::from_hz(0);
    }

    #[test]
    fn ps_display_units() {
        assert_eq!(format!("{}", Ps(12)), "12ps");
        assert_eq!(format!("{}", Ps(1_500)), "1.500ns");
        assert_eq!(format!("{}", Ps(2_500_000_000)), "2500.000us");
    }
}
