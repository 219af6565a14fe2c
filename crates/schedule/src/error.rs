use std::fmt;

/// Errors produced by the temporal substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// A grid dimension was zero.
    EmptyGrid {
        /// Requested number of days.
        days: usize,
        /// Requested slots per day.
        slots_per_day: usize,
    },
    /// A slot id was outside `0..horizon`.
    SlotOutOfRange {
        /// The offending slot id.
        slot: usize,
        /// The calendar/grid horizon.
        horizon: usize,
    },
    /// Calendars of different horizons were combined.
    HorizonMismatch {
        /// First horizon.
        left: usize,
        /// Second horizon.
        right: usize,
    },
    /// Packed calendar words of the wrong count for their horizon.
    WordCountMismatch {
        /// The calendar horizon.
        horizon: usize,
        /// Words a calendar over `horizon` slots has.
        expected: usize,
        /// Words supplied.
        got: usize,
    },
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::EmptyGrid {
                days,
                slots_per_day,
            } => {
                write!(
                    f,
                    "time grid must be non-empty (got {days} days x {slots_per_day} slots)"
                )
            }
            ScheduleError::SlotOutOfRange { slot, horizon } => {
                write!(f, "slot {slot} out of range (horizon {horizon})")
            }
            ScheduleError::HorizonMismatch { left, right } => {
                write!(f, "calendar horizons differ ({left} vs {right})")
            }
            ScheduleError::WordCountMismatch {
                horizon,
                expected,
                got,
            } => write!(
                f,
                "a calendar over {horizon} slots has {expected} words, got {got}"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(ScheduleError::EmptyGrid {
            days: 0,
            slots_per_day: 48
        }
        .to_string()
        .contains("non-empty"));
        assert!(ScheduleError::SlotOutOfRange {
            slot: 9,
            horizon: 5
        }
        .to_string()
        .contains("horizon 5"));
        assert!(ScheduleError::HorizonMismatch { left: 3, right: 4 }
            .to_string()
            .contains("differ"));
        assert!(ScheduleError::WordCountMismatch {
            horizon: 8,
            expected: 1,
            got: 0
        }
        .to_string()
        .contains("got 0"));
    }
}
