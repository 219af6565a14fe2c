use crate::{ScheduleError, SlotId, SlotRange};

/// One person's availability over a slot horizon, as a bitmap.
///
/// Bit `t` set ⇔ the person is available in slot `t`. A fresh calendar is
/// all-busy; generators and tests mark ranges available. All run/window
/// queries are inclusive-range based, mirroring how the paper talks about
/// activity periods (`[ts2, ts4]` etc.).
///
/// Invariant: `words` holds exactly `horizon.div_ceil(64)` words and no
/// bit at `horizon` or beyond is set. The word scans (`run_through_bit`
/// in the engines, [`count_available`](Self::count_available)) rely on
/// the second half; [`from_words`](Self::from_words), and through it
/// decoding, refuses words that break either.
#[derive(Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct Calendar {
    words: Vec<u64>,
    horizon: usize,
}

const WORD_BITS: usize = 64;

#[cfg(feature = "serde")]
impl serde::Deserialize for Calendar {
    /// Decode the `{"words": [...], "horizon": n}` form through
    /// [`Calendar::from_words`], so a malformed calendar is a decode
    /// error rather than a panic at its first use.
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::DeError> {
        #[derive(serde::Deserialize)]
        struct Packed {
            words: Vec<u64>,
            horizon: usize,
        }
        let Packed { words, horizon } = Packed::from_value(v)?;
        Calendar::from_words(horizon, words).map_err(|e| serde::DeError::new(e.to_string()))
    }
}

impl Calendar {
    /// All-busy calendar over `horizon` slots.
    pub fn new(horizon: usize) -> Self {
        Calendar {
            words: vec![0; horizon.div_ceil(WORD_BITS)],
            horizon,
        }
    }

    /// A calendar over `horizon` slots from its packed words (bit `t % 64`
    /// of word `t / 64` set ⇔ slot `t` available).
    ///
    /// # Errors
    /// [`ScheduleError::WordCountMismatch`] unless there are exactly
    /// `horizon.div_ceil(64)` words, and
    /// [`ScheduleError::SlotOutOfRange`] for the first set bit at
    /// `horizon` or beyond.
    pub fn from_words(horizon: usize, words: Vec<u64>) -> Result<Self, ScheduleError> {
        let expected = horizon.div_ceil(WORD_BITS);
        if words.len() != expected {
            return Err(ScheduleError::WordCountMismatch {
                horizon,
                expected,
                got: words.len(),
            });
        }
        // Only the last word can hold bits past the horizon, and only
        // when the horizon ends inside it.
        let tail = horizon % WORD_BITS;
        let stray = match words.last() {
            Some(&last) if tail != 0 => last >> tail,
            _ => 0,
        };
        if stray != 0 {
            return Err(ScheduleError::SlotOutOfRange {
                slot: horizon + stray.trailing_zeros() as usize,
                horizon,
            });
        }
        Ok(Calendar { words, horizon })
    }

    /// All-available calendar over `horizon` slots.
    pub fn all_available(horizon: usize) -> Self {
        let mut c = Calendar::new(horizon);
        for w in &mut c.words {
            *w = u64::MAX;
        }
        let tail = horizon % WORD_BITS;
        if tail != 0 {
            if let Some(last) = c.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
        c
    }

    /// Calendar with exactly the given slots available.
    ///
    /// # Panics
    /// Panics if any slot is out of range.
    pub fn from_slots(horizon: usize, slots: impl IntoIterator<Item = SlotId>) -> Self {
        let mut c = Calendar::new(horizon);
        for s in slots {
            c.set_available(s, true);
        }
        c
    }

    /// The number of slots this calendar covers.
    #[inline]
    pub fn horizon(&self) -> usize {
        self.horizon
    }

    /// Availability of `slot`.
    ///
    /// # Panics
    /// Panics if `slot >= horizon`.
    #[inline]
    pub fn is_available(&self, slot: SlotId) -> bool {
        assert!(
            slot < self.horizon,
            "slot {slot} out of horizon {}",
            self.horizon
        );
        (self.words[slot / WORD_BITS] >> (slot % WORD_BITS)) & 1 == 1
    }

    /// Set availability of a single slot.
    ///
    /// # Panics
    /// Panics if `slot >= horizon`.
    pub fn set_available(&mut self, slot: SlotId, available: bool) {
        assert!(
            slot < self.horizon,
            "slot {slot} out of horizon {}",
            self.horizon
        );
        let w = &mut self.words[slot / WORD_BITS];
        let mask = 1u64 << (slot % WORD_BITS);
        if available {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Mark an inclusive range available (or busy).
    ///
    /// # Panics
    /// Panics if the range exceeds the horizon.
    pub fn set_range(&mut self, range: SlotRange, available: bool) {
        assert!(
            range.hi < self.horizon,
            "range {range} out of horizon {}",
            self.horizon
        );
        for s in range.iter() {
            self.set_available(s, available);
        }
    }

    /// Number of available slots.
    pub fn count_available(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate available slots ascending.
    pub fn available_slots(&self) -> impl Iterator<Item = SlotId> + '_ {
        (0..self.horizon).filter(move |&s| self.is_available(s))
    }

    /// Whether every slot of the window `[start, start+m-1]` is available.
    ///
    /// Returns `false` (rather than panicking) if the window does not fit in
    /// the horizon — callers sweep window starts and rely on this.
    pub fn available_in_window(&self, start: SlotId, m: usize) -> bool {
        debug_assert!(m > 0);
        match start.checked_add(m) {
            Some(end) if end <= self.horizon => (start..end).all(|s| self.is_available(s)),
            _ => false,
        }
    }

    /// The maximal run of consecutive available slots that contains `slot`,
    /// clipped to `bounds`. `None` if `slot` is busy or outside `bounds`.
    pub fn run_containing(&self, slot: SlotId, bounds: SlotRange) -> Option<SlotRange> {
        if !bounds.contains(slot) || !self.is_available(slot) {
            return None;
        }
        let mut lo = slot;
        while lo > bounds.lo && self.is_available(lo - 1) {
            lo -= 1;
        }
        let mut hi = slot;
        while hi < bounds.hi && self.is_available(hi + 1) {
            hi += 1;
        }
        Some(SlotRange::new(lo, hi))
    }

    /// Length of the longest run of available slots within `bounds`.
    pub fn max_run_in(&self, bounds: SlotRange) -> usize {
        assert!(
            bounds.hi < self.horizon,
            "bounds {bounds} out of horizon {}",
            self.horizon
        );
        let mut best = 0;
        let mut cur = 0;
        for s in bounds.iter() {
            if self.is_available(s) {
                cur += 1;
                best = best.max(cur);
            } else {
                cur = 0;
            }
        }
        best
    }

    /// Whether `bounds` contains at least `m` consecutive available slots.
    pub fn has_run_of(&self, m: usize, bounds: SlotRange) -> bool {
        self.max_run_in(bounds) >= m
    }

    /// Start slots of every fully-available window of length `m`.
    pub fn windows_of(&self, m: usize) -> impl Iterator<Item = SlotId> + '_ {
        (0..self.horizon.saturating_sub(m.saturating_sub(1)))
            .filter(move |&start| self.available_in_window(start, m))
    }

    // ---- word-slice access (the hot-path API) ------------------------

    /// The backing availability words, bit `t % 64` of word `t / 64` set ⇔
    /// slot `t` available. Bits at `horizon` and beyond are zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The availability bits of the inclusive slot range `[range.lo,
    /// range.hi]`, re-based so bit 0 of the first yielded word is slot
    /// `range.lo` — i.e. the packed form of
    /// `(0..range.len()).map(|off| is_available(range.lo + off))`.
    ///
    /// This is how STGSelect builds per-candidate availability bitmaps
    /// over a pivot interval: whole words are shifted and stitched instead
    /// of probing `is_available` per slot.
    ///
    /// # Panics
    /// Panics if the range exceeds the horizon.
    pub fn range_words(&self, range: SlotRange) -> RangeWords<'_> {
        assert!(
            range.hi < self.horizon,
            "range {range} out of horizon {}",
            self.horizon
        );
        RangeWords {
            cal: self,
            base: range.lo,
            remaining: range.len(),
        }
    }

    /// In-place intersection with another calendar (common availability).
    pub fn intersect_with(&mut self, other: &Calendar) -> Result<(), ScheduleError> {
        if self.horizon != other.horizon {
            return Err(ScheduleError::HorizonMismatch {
                left: self.horizon,
                right: other.horizon,
            });
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
        Ok(())
    }

    /// Earliest start of an `m`-slot window in which **all** calendars are
    /// available, if any. This is PCArrange's "find the common available
    /// time" primitive.
    pub fn first_common_window(cals: &[&Calendar], m: usize) -> Option<SlotId> {
        let first = cals.first()?;
        let mut common = (*first).clone();
        for c in &cals[1..] {
            common.intersect_with(c).ok()?;
        }
        let window = common.windows_of(m).next();
        window
    }
}

/// Iterator of [`Calendar::range_words`]: packed, re-based availability
/// words of one slot range.
pub struct RangeWords<'a> {
    cal: &'a Calendar,
    /// Slot id of bit 0 of the next yielded word.
    base: usize,
    /// Bits still to yield.
    remaining: usize,
}

impl Iterator for RangeWords<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        let words = &self.cal.words;
        let wi = self.base / WORD_BITS;
        let shift = self.base % WORD_BITS;
        // Stitch the straddling pair of backing words.
        let mut w = words.get(wi).copied().unwrap_or(0) >> shift;
        if shift != 0 {
            if let Some(&hi) = words.get(wi + 1) {
                w |= hi << (WORD_BITS - shift);
            }
        }
        if self.remaining < WORD_BITS {
            w &= (1u64 << self.remaining) - 1;
            self.remaining = 0;
        } else {
            self.remaining -= WORD_BITS;
        }
        self.base += WORD_BITS;
        Some(w)
    }
}

impl std::fmt::Debug for Calendar {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Calendar[{}: ", self.horizon)?;
        for s in 0..self.horizon {
            write!(f, "{}", if self.is_available(s) { 'O' } else { '.' })?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_words_refuses_words_that_break_the_invariant() {
        let cal = Calendar::from_slots(70, [0, 3, 69]);
        assert_eq!(Calendar::from_words(70, cal.words().to_vec()), Ok(cal));
        assert_eq!(
            Calendar::from_words(8, vec![]),
            Err(ScheduleError::WordCountMismatch {
                horizon: 8,
                expected: 1,
                got: 0
            })
        );
        assert_eq!(
            Calendar::from_words(64, vec![0, 0]),
            Err(ScheduleError::WordCountMismatch {
                horizon: 64,
                expected: 1,
                got: 2
            })
        );
        assert_eq!(
            Calendar::from_words(70, vec![u64::MAX, 1 << 9]),
            Err(ScheduleError::SlotOutOfRange {
                slot: 73,
                horizon: 70
            })
        );
        // A horizon on a word boundary has no bits past it to check.
        assert!(Calendar::from_words(64, vec![u64::MAX]).is_ok());
        assert!(Calendar::from_words(0, vec![]).is_ok());
    }

    #[cfg(feature = "serde")]
    #[test]
    fn decoding_refuses_a_malformed_calendar() {
        use serde::value::Value;
        use serde::{Deserialize, Serialize};
        let packed = |words: Vec<u64>, horizon: u64| {
            Value::Object(vec![
                (
                    "words".to_string(),
                    Value::Array(words.into_iter().map(Value::U64).collect()),
                ),
                ("horizon".to_string(), Value::U64(horizon)),
            ])
        };
        let cal = Calendar::from_slots(8, [1, 7]);
        assert_eq!(Calendar::from_value(&cal.to_value()), Ok(cal));
        assert!(Calendar::from_value(&packed(vec![], 8)).is_err());
        assert!(Calendar::from_value(&packed(vec![1 << 8], 8)).is_err());
    }

    #[test]
    fn new_is_all_busy_and_full_is_all_available() {
        let busy = Calendar::new(70);
        assert_eq!(busy.count_available(), 0);
        let free = Calendar::all_available(70);
        assert_eq!(free.count_available(), 70);
        assert!(free.is_available(69));
    }

    #[test]
    fn set_and_get() {
        let mut c = Calendar::new(10);
        c.set_available(3, true);
        c.set_available(4, true);
        assert!(c.is_available(3));
        assert!(!c.is_available(2));
        c.set_available(3, false);
        assert!(!c.is_available(3));
        assert_eq!(c.count_available(), 1);
    }

    #[test]
    #[should_panic(expected = "out of horizon")]
    fn out_of_range_slot_panics() {
        let c = Calendar::new(5);
        let _ = c.is_available(5);
    }

    #[test]
    fn window_checks() {
        let mut c = Calendar::new(8);
        c.set_range(SlotRange::new(2, 5), true);
        assert!(c.available_in_window(2, 4));
        assert!(c.available_in_window(3, 3));
        assert!(!c.available_in_window(1, 3));
        assert!(!c.available_in_window(4, 3)); // slot 6 busy
        assert!(!c.available_in_window(6, 5)); // exceeds horizon
        assert_eq!(c.windows_of(3).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn run_containing_clips_to_bounds() {
        let mut c = Calendar::new(12);
        c.set_range(SlotRange::new(1, 9), true);
        let all = SlotRange::new(0, 11);
        assert_eq!(c.run_containing(5, all), Some(SlotRange::new(1, 9)));
        let tight = SlotRange::new(3, 6);
        assert_eq!(c.run_containing(5, tight), Some(SlotRange::new(3, 6)));
        assert_eq!(c.run_containing(0, all), None, "busy slot");
        assert_eq!(
            c.run_containing(5, SlotRange::new(6, 8)),
            None,
            "outside bounds"
        );
    }

    #[test]
    fn max_run_and_has_run() {
        let c = Calendar::from_slots(10, [0, 1, 4, 5, 6, 8]);
        let all = SlotRange::new(0, 9);
        assert_eq!(c.max_run_in(all), 3);
        assert!(c.has_run_of(3, all));
        assert!(!c.has_run_of(4, all));
        assert_eq!(c.max_run_in(SlotRange::new(5, 9)), 2);
    }

    #[test]
    fn intersection_and_common_window() {
        let a = Calendar::from_slots(8, [1, 2, 3, 4, 6]);
        let b = Calendar::from_slots(8, [2, 3, 4, 5, 6]);
        let mut i = a.clone();
        i.intersect_with(&b).unwrap();
        assert_eq!(i.available_slots().collect::<Vec<_>>(), vec![2, 3, 4, 6]);
        assert_eq!(Calendar::first_common_window(&[&a, &b], 3), Some(2));
        assert_eq!(Calendar::first_common_window(&[&a, &b], 4), None);
        assert_eq!(Calendar::first_common_window(&[], 2), None);
    }

    #[test]
    fn mismatched_horizons_rejected() {
        let a = Calendar::new(5);
        let b = Calendar::new(6);
        let mut x = a.clone();
        assert_eq!(
            x.intersect_with(&b),
            Err(ScheduleError::HorizonMismatch { left: 5, right: 6 })
        );
    }

    #[test]
    fn debug_rendering() {
        let c = Calendar::from_slots(4, [1, 2]);
        assert_eq!(format!("{c:?}"), "Calendar[4: .OO.]");
    }

    proptest! {
        /// `range_words` agrees with per-slot `is_available` probing for
        /// every range, including word-straddling ones.
        #[test]
        fn range_words_match_per_slot_reference(
            slots in proptest::collection::btree_set(0usize..200, 0..150),
            lo in 0usize..200,
            len in 1usize..200,
        ) {
            let horizon = 200;
            let c = Calendar::from_slots(horizon, slots.iter().copied());
            let hi = (lo + len - 1).min(horizon - 1);
            let range = SlotRange::new(lo.min(hi), hi);
            let words: Vec<u64> = c.range_words(range).collect();
            prop_assert_eq!(words.len(), range.len().div_ceil(64));
            for (off, slot) in range.iter().enumerate() {
                let bit = (words[off / 64] >> (off % 64)) & 1 == 1;
                prop_assert_eq!(bit, c.is_available(slot), "offset {} slot {}", off, slot);
            }
            // Bits beyond the range length must be zero in the last word.
            let tail = range.len() % 64;
            if tail != 0 {
                prop_assert_eq!(words[words.len() - 1] >> tail, 0);
            }
        }

        /// `run_containing` really is the maximal available run.
        #[test]
        fn run_containing_is_maximal(
            slots in proptest::collection::btree_set(0usize..40, 0..30),
            probe in 0usize..40,
        ) {
            let c = Calendar::from_slots(40, slots.iter().copied());
            let all = SlotRange::new(0, 39);
            match c.run_containing(probe, all) {
                None => prop_assert!(!c.is_available(probe)),
                Some(run) => {
                    prop_assert!(run.contains(probe));
                    for s in run.iter() {
                        prop_assert!(c.is_available(s));
                    }
                    if run.lo > 0 {
                        prop_assert!(!c.is_available(run.lo - 1));
                    }
                    if run.hi < 39 {
                        prop_assert!(!c.is_available(run.hi + 1));
                    }
                }
            }
        }

        /// windows_of agrees with a naive recomputation.
        #[test]
        fn windows_match_naive(
            slots in proptest::collection::btree_set(0usize..30, 0..25),
            m in 1usize..6,
        ) {
            let c = Calendar::from_slots(30, slots.iter().copied());
            let fast: Vec<_> = c.windows_of(m).collect();
            let naive: Vec<_> = (0..=30usize.saturating_sub(m))
                .filter(|&t| (t..t + m).all(|s| slots.contains(&s)))
                .collect();
            prop_assert_eq!(fast, naive);
        }
    }
}
