//! The in-memory span recorder of the traced run.
//!
//! Spans are recorded by the benchmark only, around its calls into the
//! repository's public functions: name, start, end, the span that caused it
//! and the index of the operation it served (the id spans of one update
//! share). Nothing is written until the run ends. A layer's *self time* is
//! its spans' duration minus the part their child spans cover.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// "No operation": spans of phase-level work carry this op index.
pub const NO_OP: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`crate.module.function`-style).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Operation index shared by the spans of one update ([`NO_OP`] if none).
    pub op: u32,
}

/// Handle returned by [`Recorder::enter`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Records nested spans on one thread. When disabled, `enter`/`exit` are a
/// branch each — the untraced run pays nothing measurable.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// A recorder; `enabled = false` makes it inert.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording on or off (open spans must be closed first).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.stack.is_empty(), "toggle between spans only");
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u32) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        SpanId(Some(id))
    }

    /// Closes a span opened by [`Recorder::enter`] (innermost first).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.origin.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = now;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, op: u32, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, op);
        let r = f();
        self.exit(id);
        r
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per layer name under the span tree rooted at `root`: `(count, total
    /// ns, self ns)`, self time being duration minus covered child time.
    /// The root's own self time is reported under its name.
    pub fn self_times(&self, root: SpanId) -> BTreeMap<&'static str, LayerTime> {
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        let Some(root) = root.0 else { return out };
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut inside = vec![false; self.spans.len()];
        inside[root as usize] = true;
        // Parents always precede children in `spans`.
        for (i, s) in self.spans.iter().enumerate().skip(root as usize + 1) {
            if let Some(p) = s.parent {
                if inside[p as usize] {
                    inside[i] = true;
                    child_ns[p as usize] += s.end_ns - s.start_ns;
                }
            }
        }
        for (i, s) in self.spans.iter().enumerate() {
            if inside[i] {
                let dur = s.end_ns - s.start_ns;
                let e = out.entry(s.name).or_default();
                e.count += 1;
                e.total_ns += dur;
                e.self_ns += dur.saturating_sub(child_ns[i]);
            }
        }
        out
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// The trace as JSON: one array row per span,
    /// `[name, start_ns, end_ns, parent or -1, op or -1]`.
    pub fn to_json(&self) -> Json {
        let rows = self
            .spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Str(s.name.into()),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                    Json::Num(s.parent.map_or(-1.0, f64::from)),
                    Json::Num(if s.op == NO_OP { -1.0 } else { f64::from(s.op) }),
                ])
            })
            .collect();
        Json::obj([
            (
                "columns",
                Json::Arr(
                    ["name", "start_ns", "end_ns", "parent", "op"]
                        .map(|c| Json::Str(c.into()))
                        .to_vec(),
                ),
            ),
            ("spans", Json::Arr(rows)),
        ])
    }
}

/// Aggregate of one layer's spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration not covered by child spans.
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_sums_to_root() {
        let mut r = Recorder::new(true);
        let root = r.enter("root", NO_OP);
        for op in 0..3 {
            let a = r.enter("a", op);
            r.time("b", op, || std::hint::black_box((0..1000).sum::<u64>()));
            r.exit(a);
        }
        r.exit(root);
        let t = r.self_times(root);
        assert_eq!(t["a"].count, 3);
        assert_eq!(t["b"].count, 3);
        assert_eq!(t["a"].self_ns, t["a"].total_ns - t["b"].total_ns);
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, t["root"].total_ns, "self times partition the root");
        assert_eq!(r.spans()[2].parent, Some(1));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let id = r.enter("x", 0);
        r.exit(id);
        assert_eq!(r.time("y", 0, || 7), 7);
        assert!(r.spans().is_empty());
        assert!(r.self_times(id).is_empty());
    }
}
