//! Window specifications.
//!
//! A [`WindowSpec`] is a regular sliding window `[0, W)` as used by ordinary
//! window joins.  A [`SliceWindow`] is the half-open slice `[start, end)` of a
//! state-sliced join (Definition 1 of the paper); a regular window is the
//! special case `start == 0`.

use crate::time::{TimeDelta, Timestamp};

/// A regular sliding window of a given range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowSpec {
    /// Window length.
    pub range: TimeDelta,
}

impl WindowSpec {
    /// Build a window from its range.
    pub fn new(range: TimeDelta) -> Self {
        WindowSpec { range }
    }

    /// Build a window from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        WindowSpec {
            range: TimeDelta::from_secs(secs),
        }
    }

    /// `true` if a stored tuple with timestamp `stored` is inside this
    /// window when a probing tuple with timestamp `probe` arrives, i.e.
    /// `0 <= probe - stored < range`: a stored tuple *newer* than the probe
    /// is never "in window" here.
    #[cfg(test)]
    pub fn contains(&self, probe: Timestamp, stored: Timestamp) -> bool {
        stored <= probe && probe.saturating_sub(stored) < self.range
    }

    /// `true` if a stored tuple has aged out of this window when `probe` is
    /// processed (`probe - stored >= range`).  A stored tuple newer than the
    /// probe has age zero and is never expired.
    #[cfg(test)]
    pub fn expired(&self, probe: Timestamp, stored: Timestamp) -> bool {
        probe.saturating_sub(stored) >= self.range
    }

    /// The full-window slice `[0, range)`.
    pub fn as_slice(&self) -> SliceWindow {
        SliceWindow {
            start: TimeDelta::ZERO,
            end: self.range,
        }
    }
}

/// A half-open window slice `[start, end)` (Definition 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SliceWindow {
    /// Start window offset (inclusive).
    pub start: TimeDelta,
    /// End window offset (exclusive).
    pub end: TimeDelta,
}

impl SliceWindow {
    /// Build a slice from start/end offsets.
    pub fn new(start: TimeDelta, end: TimeDelta) -> Self {
        debug_assert!(start <= end, "slice start must not exceed end");
        SliceWindow { start, end }
    }

    /// Build a slice from whole-second offsets.
    pub fn from_secs(start: u64, end: u64) -> Self {
        SliceWindow::new(TimeDelta::from_secs(start), TimeDelta::from_secs(end))
    }

    /// Width of the slice (`end - start`).
    pub fn range(&self) -> TimeDelta {
        self.end.saturating_sub(self.start)
    }

    /// `true` if the timestamp difference `probe - stored` falls inside the
    /// slice, i.e. `start <= probe - stored < end`.
    #[cfg(test)]
    pub fn contains_diff(&self, probe: Timestamp, stored: Timestamp) -> bool {
        let diff = probe.saturating_sub(stored);
        diff >= self.start && diff < self.end
    }

    /// `true` if a stored tuple has expired out of this slice when a probe
    /// tuple with timestamp `probe` is processed (`probe - stored >= end`).
    pub fn expired(&self, probe: Timestamp, stored: Timestamp) -> bool {
        probe.saturating_sub(stored) >= self.end
    }

    /// Merge with an adjacent later slice, producing `[self.start, next.end)`.
    pub fn merge(&self, next: &SliceWindow) -> SliceWindow {
        debug_assert_eq!(
            self.end, next.start,
            "can only merge adjacent slices in a chain"
        );
        SliceWindow {
            start: self.start,
            end: next.end,
        }
    }

    /// Split at the given offset, producing `[start, at)` and `[at, end)`.
    pub fn split_at(&self, at: TimeDelta) -> Option<(SliceWindow, SliceWindow)> {
        if at <= self.start || at >= self.end {
            return None;
        }
        Some((
            SliceWindow::new(self.start, at),
            SliceWindow::new(at, self.end),
        ))
    }
}

impl std::fmt::Display for SliceWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_contains_half_open() {
        let w = WindowSpec::from_secs(10);
        let probe = Timestamp::from_secs(20);
        assert!(w.contains(probe, Timestamp::from_secs(11)));
        assert!(w.contains(probe, Timestamp::from_secs(20)));
        assert!(!w.contains(probe, Timestamp::from_secs(10))); // diff == 10 is out
        assert!(!w.contains(probe, Timestamp::from_secs(25))); // newer stored tuples are not in window
    }

    #[test]
    fn contains_and_expired_are_consistent_for_both_directions() {
        let w = WindowSpec::from_secs(10);
        let probe = Timestamp::from_secs(20);
        // Symmetry: the same pair checked from either side gives the same
        // verdict once each side consults its own window.
        let older = Timestamp::from_secs(15);
        assert!(w.contains(probe, older));
        // The same pair from the other side: the stored tuple is newer.
        assert!(!w.contains(older, probe));
        // Expiry is one-sided and never fires for newer stored tuples, so
        // out-of-order arrivals cannot purge state that is still needed.
        assert!(!w.expired(probe, Timestamp::from_secs(25)));
        assert!(!w.expired(probe, Timestamp::from_secs(11)));
        assert!(w.expired(probe, Timestamp::from_secs(10)));
        assert!(w.expired(probe, Timestamp::from_secs(1)));
        // In-window and expired partition the `stored <= probe` half-line.
        for s in 0..=20u64 {
            let stored = Timestamp::from_secs(s);
            assert_ne!(w.contains(probe, stored), w.expired(probe, stored));
        }
    }

    #[test]
    fn slice_contains_and_expired() {
        let s = SliceWindow::from_secs(2, 4);
        let probe = Timestamp::from_secs(10);
        assert!(!s.contains_diff(probe, Timestamp::from_secs(9))); // diff 1 < start
        assert!(s.contains_diff(probe, Timestamp::from_secs(8))); // diff 2
        assert!(s.contains_diff(probe, Timestamp::from_secs(7))); // diff 3
        assert!(!s.contains_diff(probe, Timestamp::from_secs(6))); // diff 4 == end
        assert!(s.expired(probe, Timestamp::from_secs(6)));
        assert!(!s.expired(probe, Timestamp::from_secs(7)));
    }

    #[test]
    fn full_window_is_zero_start_slice() {
        let w = WindowSpec::from_secs(5);
        let s = w.as_slice();
        assert_eq!(s.start, TimeDelta::ZERO);
        assert_eq!(s.end, TimeDelta::from_secs(5));
        assert_eq!(s.range(), TimeDelta::from_secs(5));
    }

    #[test]
    fn merge_adjacent_slices() {
        let a = SliceWindow::from_secs(0, 2);
        let b = SliceWindow::from_secs(2, 5);
        assert_eq!(a.merge(&b), SliceWindow::from_secs(0, 5));
    }

    #[test]
    fn split_inside_and_outside() {
        let s = SliceWindow::from_secs(2, 8);
        let (l, r) = s.split_at(TimeDelta::from_secs(5)).unwrap();
        assert_eq!(l, SliceWindow::from_secs(2, 5));
        assert_eq!(r, SliceWindow::from_secs(5, 8));
        assert!(s.split_at(TimeDelta::from_secs(2)).is_none());
        assert!(s.split_at(TimeDelta::from_secs(8)).is_none());
        assert!(s.split_at(TimeDelta::from_secs(9)).is_none());
    }

    #[test]
    fn display_shows_bounds() {
        assert_eq!(
            SliceWindow::from_secs(1, 3).to_string(),
            "[1.000000s, 3.000000s)"
        );
    }
}
