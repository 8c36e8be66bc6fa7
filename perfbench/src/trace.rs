//! The benchmark's own span recorder. Spans are opened only in the
//! benchmark's files, around calls into the harness's public API; the
//! program itself is observed through its `Obs` hook alone.
//!
//! Every span carries a name, start, end, its parent and a request id
//! shared by all spans of one benchmark operation (one campaign, one
//! query, one submit). Spans stay in memory and are written out once,
//! at exit. A disabled recorder hands out inert guards.

use harness::json::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    /// `0` for a root span.
    pub parent: u64,
    pub request: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Where a child span hangs: its parent's id and request.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanCtx {
    id: u64,
    request: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the recorder started.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a root span: the first span of a new request.
    pub fn root(&self, name: &'static str) -> Guard<'_> {
        let id = self.fresh_id();
        self.open(name, SpanCtx { id: 0, request: id }, id)
    }

    /// Opens a span under `parent` (which may live on another thread).
    pub fn child(&self, parent: SpanCtx, name: &'static str) -> Guard<'_> {
        let id = self.fresh_id();
        self.open(name, parent, id)
    }

    /// Records an interval measured elsewhere as a child of `parent`.
    pub fn record(&self, parent: SpanCtx, name: &'static str, start_ns: u64, end_ns: u64) {
        if self.enabled {
            let id = self.fresh_id();
            self.push(Span {
                name,
                start_ns,
                end_ns,
                id,
                parent: parent.id,
                request: parent.request,
            });
        }
    }

    fn fresh_id(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    fn open(&self, name: &'static str, parent: SpanCtx, id: u64) -> Guard<'_> {
        Guard {
            tracer: self,
            name,
            id,
            parent,
            start_ns: if self.enabled { self.now_ns() } else { 0 },
        }
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// A copy of every closed span, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in self.spans.lock().expect("span buffer poisoned").iter() {
            let line = Json::Obj(vec![
                ("name".into(), Json::str(span.name)),
                ("start_ns".into(), Json::Num(span.start_ns as f64)),
                ("end_ns".into(), Json::Num(span.end_ns as f64)),
                ("id".into(), Json::Num(span.id as f64)),
                ("parent".into(), Json::Num(span.parent as f64)),
                ("request".into(), Json::Num(span.request as f64)),
            ]);
            writeln!(out, "{}", line.compact())?;
        }
        out.flush()
    }
}

/// An open span; records itself when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    id: u64,
    parent: SpanCtx,
    start_ns: u64,
}

impl Guard<'_> {
    /// The context children of this span attach to.
    pub fn ctx(&self) -> SpanCtx {
        SpanCtx {
            id: self.id,
            request: self.parent.request,
        }
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if self.tracer.enabled {
            self.tracer.push(Span {
                name: self.name,
                start_ns: self.start_ns,
                end_ns: self.tracer.now_ns(),
                id: self.id,
                parent: self.parent.id,
                request: self.parent.request,
            });
        }
    }
}

/// Total and self time per span name, in nanoseconds. A span's self
/// time is its duration minus the part of its interval that the union
/// of its children's intervals covers (children clipped to the parent,
/// overlapping children counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(span.parent)
            .or_default()
            .push((span.start_ns, span.end_ns));
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for span in spans {
        let covered = children
            .get(&span.id)
            .map_or(0, |kids| covered_ns(kids, span.start_ns, span.end_ns));
        let entry = out.entry(span.name).or_default();
        entry.0 += span.dur_ns();
        entry.1 += span.dur_ns().saturating_sub(covered);
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        current = match current {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span("campaign", 1, 0, 0, 100),
            // Two overlapping children cover 10..50 once: 40 ns.
            span("cell", 2, 1, 10, 40),
            span("cell", 3, 1, 20, 50),
            // A child running past its parent counts only inside it.
            span("save", 4, 1, 90, 130),
            span("fsync", 5, 4, 100, 110),
        ];
        let times = self_times(&spans);
        assert_eq!(times["campaign"], (100, 100 - 40 - 10));
        assert_eq!(times["cell"], (30 + 30, 30 + 30));
        assert_eq!(times["save"], (40, 30));
        assert_eq!(times["fsync"], (10, 10));
    }

    #[test]
    fn spans_share_their_root_request_and_name_their_parent() {
        let tracer = Tracer::new(true);
        {
            let root = tracer.root("campaign");
            let ctx = root.ctx();
            drop(tracer.child(ctx, "plan"));
            tracer.record(ctx, "cell", 5, 9);
        }
        drop(tracer.root("query"));
        let spans = tracer.spans();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (root, plan, cell, query) = (
            by_name("campaign"),
            by_name("plan"),
            by_name("cell"),
            by_name("query"),
        );
        assert_eq!(root.parent, 0);
        assert_eq!((plan.parent, cell.parent), (root.id, root.id));
        assert_eq!((plan.request, cell.request), (root.request, root.request));
        assert_ne!(query.request, root.request);
        assert!(root.start_ns <= plan.start_ns && plan.end_ns <= root.end_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let root = tracer.root("campaign");
        tracer.record(root.ctx(), "cell", 0, 1);
        drop(root);
        assert!(tracer.spans().is_empty());
    }
}
