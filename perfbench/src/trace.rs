//! In-memory span recorder for the traced run.
//!
//! The harness records a span around each public call it makes into a
//! layer: a name, start and end (nanoseconds since the run started), the
//! parent span, and the id of the transmission it served (spans of one
//! transmission share it; 0 for spans that serve none). Spans stay in
//! memory until the run ends and are then written out as JSON lines.
//! A layer's self time is its spans' durations minus the part covered
//! by their child spans.

use std::collections::BTreeMap;
use std::io::Write;

/// Index of a span in its [`Tracer`].
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Interned name (see [`Tracer::name`]).
    pub name: u16,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Transmission id shared by every span serving one transmission.
    pub tx: u64,
    /// Start, ns since the run started.
    pub start_ns: u64,
    /// End, ns since the run started.
    pub end_ns: u64,
}

/// Per-name totals derived from the span tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations, ns.
    pub total_ns: u64,
    /// Sum of their self times, ns.
    pub self_ns: u64,
}

/// Span store; a disabled tracer records nothing.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    names: Vec<String>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            ..Self::default()
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off; spans already recorded are kept.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Interns a span name.
    pub fn name(&mut self, name: &str) -> u16 {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name.to_string());
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Records a finished span; returns its id (`None` when disabled).
    pub fn record(
        &mut self,
        name: u16,
        parent: Option<SpanId>,
        tx: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            parent,
            tx,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Opens a span whose end is set later by [`Tracer::close`].
    pub fn open(
        &mut self,
        name: u16,
        parent: Option<SpanId>,
        tx: u64,
        start_ns: u64,
    ) -> Option<SpanId> {
        self.record(name, parent, tx, start_ns, start_ns)
    }

    /// Sets the end of an open span.
    pub fn close(&mut self, id: Option<SpanId>, end_ns: u64) {
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i as usize)) {
            span.end_ns = end_ns.max(span.start_ns);
        }
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals and self times per span name.
    pub fn layer_times(&self) -> BTreeMap<String, LayerTime> {
        let mut children: Vec<Vec<SpanId>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                if let Some(list) = children.get_mut(p as usize) {
                    list.push(i as SpanId);
                }
            }
        }
        let mut out: BTreeMap<String, LayerTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let covered = covered_ns(s, children[i].iter().map(|&c| self.spans[c as usize]));
            let entry = out.entry(self.names[s.name as usize].clone()).or_default();
            entry.count += 1;
            entry.total_ns += dur;
            entry.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, mut w: impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"tx\":{},\"start_ns\":{},\"end_ns\":{}}}",
                self.names[s.name as usize], s.tx, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Length of the union of the children's intervals, clipped to the
/// parent's interval.
fn covered_ns(parent: &Span, children: impl Iterator<Item = Span>) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let (outer, inner) = (t.name("outer"), t.name("inner"));
        let root = t.record(outer, None, 0, 0, 100);
        t.record(inner, root, 1, 10, 30);
        t.record(inner, root, 1, 20, 40); // overlaps the first child
        t.record(inner, root, 2, 90, 120); // clipped at the parent's end
        let times = t.layer_times();
        assert_eq!(times["outer"].total_ns, 100);
        assert_eq!(times["outer"].self_ns, 100 - 30 - 10);
        assert_eq!(times["inner"].count, 3);
        assert_eq!(times["inner"].self_ns, 20 + 20 + 30);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let n = t.name("x");
        assert_eq!(t.record(n, None, 0, 0, 1), None);
        assert!(t.spans().is_empty());
    }
}
