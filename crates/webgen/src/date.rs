//! A minimal date type for the archive simulation.
//!
//! The evaluation only needs day arithmetic ("snapshots at 20-day
//! intervals", "valid for 817 days") and human-readable rendering, so dates
//! are represented as a day offset from the start of the paper's observation
//! window, 2008-01-01.

use std::fmt;

/// A day, counted from 2008-01-01 (day 0).  Negative offsets address days
/// before the observation window (used by the Dalvi-comparison experiment,
/// which replays 2004–2008 snapshots).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Day(pub i64);

/// First day of the paper's observation window (2008-01-01).
pub const OBSERVATION_START: Day = Day(0);
/// Last day of the paper's observation window (2013-12-31).
pub const OBSERVATION_END: Day = Day(2191);
/// The snapshot interval used throughout the evaluation (20 days).
pub const SNAPSHOT_INTERVAL_DAYS: i64 = 20;

impl Day {
    /// Creates a day from a year/month/day triple (proleptic Gregorian).
    pub fn from_ymd(year: i32, month: u32, day: u32) -> Day {
        Day(days_from_civil(year, month, day) - days_from_civil(2008, 1, 1))
    }

    /// Offset in days from 2008-01-01.
    pub fn offset(self) -> i64 {
        self.0
    }

    /// Adds a number of days.
    pub fn plus(self, days: i64) -> Day {
        Day(self.0 + days)
    }

    /// Number of days from `self` to `other` (positive if `other` is later).
    pub fn days_until(self, other: Day) -> i64 {
        other.0 - self.0
    }

    /// The civil (year, month, day) triple of this day.
    pub fn to_ymd(self) -> (i32, u32, u32) {
        civil_from_days(self.0 + days_from_civil(2008, 1, 1))
    }
}

impl fmt::Display for Day {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

// Howard Hinnant's civil-from-days / days-from-civil algorithms.
fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = i64::from((m + 9) % 12);
    let doy = (153 * mp + 2) / 5 + i64::from(d) - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    era * 146_097 + doe - 719_468
}

fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    ((y + i64::from(m <= 2)) as i32, m, d)
}

/// The sequence of snapshot days between two dates (inclusive start), spaced
/// by [`SNAPSHOT_INTERVAL_DAYS`].
pub fn snapshot_days(start: Day, end: Day) -> Vec<Day> {
    let mut out = Vec::new();
    let mut d = start;
    while d <= end {
        out.push(d);
        d = d.plus(SNAPSHOT_INTERVAL_DAYS);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_2008_01_01() {
        assert_eq!(Day(0).to_ymd(), (2008, 1, 1));
        assert_eq!(Day(0).to_string(), "2008-01-01");
        assert_eq!(Day::from_ymd(2008, 1, 1), Day(0));
    }

    #[test]
    fn observation_window_matches_paper() {
        assert_eq!(OBSERVATION_END.to_ymd(), (2013, 12, 31));
        assert_eq!(Day::from_ymd(2013, 12, 31), OBSERVATION_END);
    }

    #[test]
    fn roundtrip_and_arithmetic() {
        for &(y, m, d) in &[(2004, 2, 29), (2010, 12, 31), (2016, 6, 26), (1999, 1, 1)] {
            let day = Day::from_ymd(y, m, d);
            assert_eq!(day.to_ymd(), (y, m, d));
        }
        let a = Day::from_ymd(2008, 1, 1);
        let b = Day::from_ymd(2008, 1, 21);
        assert_eq!(a.days_until(b), 20);
        assert_eq!(a.plus(20), b);
        assert!(Day::from_ymd(2004, 1, 1) < a);
    }

    #[test]
    fn snapshot_days_are_20_apart() {
        let days = snapshot_days(OBSERVATION_START, Day(100));
        assert_eq!(days.len(), 6);
        assert_eq!(days[1].offset() - days[0].offset(), 20);
        assert_eq!(days.last().unwrap().offset(), 100);
    }

    #[test]
    fn leap_years_handled() {
        let d = Day::from_ymd(2008, 2, 28);
        assert_eq!(d.plus(1).to_ymd(), (2008, 2, 29));
        assert_eq!(d.plus(2).to_ymd(), (2008, 3, 1));
    }
}
