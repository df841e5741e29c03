//! The flight recorder: a fixed-capacity ring of structured events.
//!
//! Metrics answer "how much / how long"; the recorder answers "what just
//! happened, in order". Every noteworthy engine transition — round planned
//! / committed / failed, checkpoint start / end / failed, WAL rotation,
//! recovery replay progress — is appended as an [`Event`]; once
//! the ring is full the oldest events fall off (and are counted), so memory
//! is bounded no matter how long the engine runs. [`FlightRecorder::dump_jsonl`]
//! renders the retained window as one JSON object per line, on demand.
//!
//! Recording takes a mutex: events are per *round* (tens to hundreds per
//! second), not per update, so the lock is uncontended background noise —
//! the lock-free budget is spent on the metrics, which *are* per update.

use super::json::push_str_escaped;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// One field of a structured event.
#[derive(Debug, Clone)]
pub enum FieldValue {
    /// Unsigned integer field.
    U64(u64),
    /// String field.
    Str(String),
}

impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::U64(v)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::U64(v as u64)
    }
}
impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_owned())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// One recorded event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotonic sequence number (never reused, survives ring eviction).
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub at_micros: u64,
    /// Event kind, dot-namespaced (`round.committed`, `wal.rotate`, …).
    pub kind: &'static str,
    /// Structured payload, in insertion order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl Event {
    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + 24 * self.fields.len());
        let _ = write!(
            out,
            "{{\"seq\": {}, \"at_micros\": {}, \"event\": ",
            self.seq, self.at_micros
        );
        push_str_escaped(&mut out, self.kind);
        for (name, value) in &self.fields {
            out.push_str(", ");
            push_str_escaped(&mut out, name);
            out.push_str(": ");
            match value {
                FieldValue::U64(v) => {
                    let _ = write!(out, "{v}");
                }
                FieldValue::Str(s) => push_str_escaped(&mut out, s),
            }
        }
        out.push('}');
        out
    }
}

#[derive(Debug)]
struct RecorderState {
    ring: VecDeque<Event>,
    next_seq: u64,
    evicted: u64,
}

/// A bounded in-memory event log (see the module docs).
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    epoch: Instant,
    state: Mutex<RecorderState>,
}

impl FlightRecorder {
    /// A recorder retaining the most recent `capacity` events (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            epoch: Instant::now(),
            state: Mutex::new(RecorderState {
                ring: VecDeque::with_capacity(capacity),
                next_seq: 0,
                evicted: 0,
            }),
        }
    }

    /// The ring. Every edit of it is a counter bump, a `pop_front` or a
    /// `push_back`, none of which a panic leaves half done, so a poisoned
    /// lock is taken as it is.
    fn state(&self) -> MutexGuard<'_, RecorderState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Appends one event, evicting the oldest if the ring is full.
    pub fn record(&self, kind: &'static str, fields: Vec<(&'static str, FieldValue)>) {
        let at_micros = u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut st = self.state();
        let seq = st.next_seq;
        st.next_seq += 1;
        if st.ring.len() == self.capacity {
            st.ring.pop_front();
            st.evicted += 1;
        }
        st.ring.push_back(Event {
            seq,
            at_micros,
            kind,
            fields,
        });
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.state().ring.len()
    }

    /// Whether nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events that fell off the ring since creation.
    pub fn evicted(&self) -> u64 {
        self.state().evicted
    }

    /// A copy of the retained window, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.state().ring.iter().cloned().collect()
    }

    /// The retained window as JSONL (one event object per line, oldest
    /// first, trailing newline included when non-empty).
    pub fn dump_jsonl(&self) -> String {
        let events = self.events();
        let mut out = String::with_capacity(events.len() * 96);
        for e in &events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }
}

/// Builds an event field list: `fields![count: 3usize, path: "a/b"]`.
macro_rules! fields {
    ($($name:ident : $value:expr),* $(,)?) => {
        vec![$((stringify!($name), $crate::obs::FieldValue::from($value))),*]
    };
}
pub(crate) use fields;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest_and_keeps_seq() {
        let rec = FlightRecorder::new(3);
        for i in 0..5u64 {
            rec.record("tick", fields![i: i]);
        }
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.evicted(), 2);
        let seqs: Vec<u64> = rec.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn jsonl_is_one_parseable_object_per_line() {
        let rec = FlightRecorder::new(8);
        rec.record(
            "round.committed",
            fields![epoch: 7u64, updates: 3usize, note: "quote\"inside"],
        );
        let dump = rec.dump_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("{\"seq\": 0"));
        assert!(lines[0].contains("\"event\": \"round.committed\""));
        assert!(lines[0].contains("\"epoch\": 7"));
        assert!(lines[0].contains("\\\"inside"));
        assert!(lines[0].ends_with('}'));
    }
}
