//! The bounded ring buffer behind the flight recorder.
//!
//! [`Ring`] retains the most recent `capacity` items and counts what it
//! evicted, so a dump can say "…and 1234 earlier events were overwritten"
//! instead of silently truncating history. The unified [`crate::trace`]
//! recorder is a thin wrapper over it.

use std::collections::VecDeque;
use std::fmt;

/// A bounded ring retaining the most recent `capacity` items, oldest first.
///
/// Capacity zero is a valid always-empty ring (tracing disabled but the
/// type still present).
#[derive(Debug, Clone)]
pub struct Ring<T> {
    items: VecDeque<T>,
    capacity: usize,
    overwritten: u64,
}

// Manual impl: the derive would demand `T: Default` it doesn't need.
impl<T> Default for Ring<T> {
    fn default() -> Self {
        Self::new(0)
    }
}

impl<T> Ring<T> {
    /// A ring holding the most recent `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Self {
            // Cap the eager allocation; the deque grows on demand.
            items: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            overwritten: 0,
        }
    }

    /// Append an item, evicting the oldest when full.
    pub fn push(&mut self, item: T) {
        if self.capacity == 0 {
            return;
        }
        if self.items.len() == self.capacity {
            self.items.pop_front();
            self.overwritten += 1;
        }
        self.items.push_back(item);
    }

    /// The retained items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items pushed out of the ring by newer ones.
    pub fn overwritten(&self) -> u64 {
        self.overwritten
    }

    /// Drop all retained items (the overwrite counter keeps counting).
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

impl<T: fmt::Display> Ring<T> {
    /// Render the retained items as text, one `Display` line per item.
    pub fn dump(&self) -> String {
        self.dump_last(self.items.len())
    }

    /// Render only the last `n` retained items, one line per item.
    ///
    /// When the dump covers the entire retained history and the ring has
    /// wrapped, the first line is an explicit `TRUNCATED` marker with the
    /// overwrite count — the record is the tail of a longer run, and a
    /// reader stitching causal timelines out of it must know that the
    /// missing head was overwritten, not absent.
    pub fn dump_last(&self, n: usize) -> String {
        let mut out = String::new();
        if n >= self.items.len() && self.overwritten > 0 {
            out.push_str(&format!(
                "!!! TRUNCATED: {} earlier item(s) overwritten\n",
                self.overwritten
            ));
        }
        let skip = self.items.len().saturating_sub(n);
        for item in self.items.iter().skip(skip) {
            out.push_str(&item.to_string());
            out.push('\n');
        }
        out
    }
}

impl<'a, T> IntoIterator for &'a Ring<T> {
    type Item = &'a T;
    type IntoIter = std::collections::vec_deque::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_and_orders() {
        let mut r = Ring::new(3);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.overwritten(), 2);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![2, 3, 4]);
    }

    #[test]
    fn zero_capacity_is_a_noop() {
        let mut r = Ring::new(0);
        r.push(1);
        assert!(r.is_empty());
        assert_eq!(r.overwritten(), 0);
    }

    #[test]
    fn dump_last_takes_the_tail() {
        let mut r = Ring::new(8);
        for i in 0..5 {
            r.push(i);
        }
        assert_eq!(r.dump_last(2), "3\n4\n");
        assert_eq!(r.dump().lines().count(), 5);
        assert_eq!(r.dump_last(99).lines().count(), 5);
    }

    #[test]
    fn full_dump_of_wrapped_ring_carries_truncation_marker() {
        let mut r = Ring::new(3);
        for i in 0..5 {
            r.push(i);
        }
        // A partial tail is not the whole record: no marker.
        assert_eq!(r.dump_last(2), "3\n4\n");
        // The "whole" record after a wrap must say what it lost.
        let full = r.dump();
        assert!(full.starts_with("!!! TRUNCATED: 2 earlier item(s) overwritten\n"));
        assert_eq!(full.lines().count(), 4);
        assert_eq!(r.dump_last(99), full);
    }

    #[test]
    fn clear_keeps_counting() {
        let mut r = Ring::new(1);
        r.push(1);
        r.push(2);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.overwritten(), 1);
    }
}
