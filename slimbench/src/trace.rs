//! In-memory span recording for the traced pass.
//!
//! A span is taken around each public call the benchmark makes into a
//! product crate. Spans of one query share a `trace_id`; a query's root
//! span is `query` (the timed pipeline) or `diag` (the diagnostic calls
//! made after the pass). Spans stay in memory and are written as JSON
//! lines when the pass ends, so recording costs one `Instant::now` pair
//! and one push per call.

use slim_obs::Json;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The query this span belongs to.
    pub trace_id: u64,
    /// Unique within one pass.
    pub span_id: u64,
    /// The enclosing span, `None` for a root.
    pub parent: Option<u64>,
    /// Layer call name, e.g. `lang.parse`.
    pub name: String,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Records spans when on; passes calls straight through when off.
#[derive(Debug)]
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    open: Vec<usize>,
    trace_id: u64,
}

impl Tracer {
    /// A recorder that keeps nothing: the untraced passes use it.
    pub fn off() -> Tracer {
        Tracer { origin: None, spans: Vec::new(), open: Vec::new(), trace_id: 0 }
    }

    /// A recorder that keeps every span.
    pub fn on() -> Tracer {
        Tracer { origin: Some(Instant::now()), ..Tracer::off() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.map_or(0, |o| o.elapsed().as_nanos() as u64)
    }

    /// Closes any open spans and opens the root span `name` of query
    /// `trace_id`.
    pub fn root(&mut self, trace_id: u64, name: &str) {
        self.close_all();
        self.trace_id = trace_id;
        self.enter(name);
    }

    /// Opens a child of the innermost open span.
    pub fn enter(&mut self, name: &str) {
        if self.origin.is_none() {
            return;
        }
        let parent = self.open.last().map(|&i| self.spans[i].span_id);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            trace_id: self.trace_id,
            span_id: self.spans.len() as u64,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Closes every open span (after a query panicked mid-call).
    pub fn close_all(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let value = f();
        self.exit();
        value
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span in nanoseconds: its duration minus the part
/// of that interval its children cover. Spans whose parent is missing
/// count no children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.span_id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.and_then(|p| index.get(&p)) {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(covered)
        })
        .collect()
}

/// Sums `ns[i]` per span name, in seconds, over the spans under roots
/// named `root` (inclusive).
fn sum_under_root(spans: &[Span], root: &str, ns: impl Fn(usize) -> u64) -> BTreeMap<String, f64> {
    let index: HashMap<u64, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.span_id, i)).collect();
    let root_of = |mut i: usize| {
        while let Some(&p) = spans[i].parent.and_then(|p| index.get(&p)) {
            i = p;
        }
        i
    };
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if spans[root_of(i)].name == root {
            *out.entry(s.name.clone()).or_insert(0.0) += ns(i) as f64 / 1e9;
        }
    }
    out
}

/// Seconds of self time per span name under roots named `root`.
pub fn self_seconds_by_name(spans: &[Span], root: &str) -> BTreeMap<String, f64> {
    let own = self_times(spans);
    sum_under_root(spans, root, |i| own[i])
}

/// Seconds of wall time per span name (children included) under roots
/// named `root`.
pub fn seconds_by_name(spans: &[Span], root: &str) -> BTreeMap<String, f64> {
    sum_under_root(spans, root, |i| spans[i].end_ns - spans[i].start_ns)
}

/// Checks that the spans form well-formed trees: ids are unique, every
/// parent exists, was opened earlier and belongs to the same query, every
/// span ends after it starts and lies inside its parent, and no span's
/// children cover more than its duration.
///
/// # Errors
/// The first violation found.
pub fn check_trees(spans: &[Span]) -> Result<(), String> {
    let mut index = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if index.insert(s.span_id, i).is_some() {
            return Err(format!("span id {} is used twice", s.span_id));
        }
        if s.end_ns < s.start_ns {
            return Err(format!("span {} `{}` ends before it starts", s.span_id, s.name));
        }
    }
    for s in spans {
        let Some(p) = s.parent else { continue };
        let Some(&pi) = index.get(&p) else {
            return Err(format!("span {} `{}` has missing parent {p}", s.span_id, s.name));
        };
        let parent = &spans[pi];
        if parent.trace_id != s.trace_id {
            return Err(format!(
                "span {} crosses from trace {} to {}",
                s.span_id, s.trace_id, parent.trace_id
            ));
        }
        if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            return Err(format!(
                "span {} `{}` [{}, {}] is not inside its parent `{}` [{}, {}]",
                s.span_id,
                s.name,
                s.start_ns,
                s.end_ns,
                parent.name,
                parent.start_ns,
                parent.end_ns
            ));
        }
    }
    let mut children_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *children_ns.entry(p).or_insert(0) += s.end_ns - s.start_ns;
        }
    }
    for s in spans {
        let kids = children_ns.get(&s.span_id).copied().unwrap_or(0);
        if kids > s.end_ns - s.start_ns {
            return Err(format!(
                "children of span {} `{}` overlap: negative self time",
                s.span_id, s.name
            ));
        }
    }
    Ok(())
}

/// One JSON object per line, in recording order.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let line = Json::obj([
            ("trace_id", Json::Num(s.trace_id as f64)),
            ("span_id", Json::Num(s.span_id as f64)),
            ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
            ("name", Json::str(s.name.as_str())),
            ("start_ns", Json::Num(s.start_ns as f64)),
            ("end_ns", Json::Num(s.end_ns as f64)),
        ]);
        out.push_str(&line.to_compact());
        out.push('\n');
    }
    out
}

/// Parses [`to_jsonl`] output.
///
/// # Errors
/// The line number and reason of the first malformed line.
pub fn parse_jsonl(text: &str) -> Result<Vec<Span>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .map(|(n, line)| {
            let v = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
            let int = |k: &str| {
                v.get(k)
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("line {}: `{k}` missing", n + 1))
            };
            Ok(Span {
                trace_id: int("trace_id")?,
                span_id: int("span_id")?,
                parent: v.get("parent").and_then(Json::as_u64),
                name: v
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("line {}: `name` missing", n + 1))?
                    .to_string(),
                start_ns: int("start_ns")?,
                end_ns: int("end_ns")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, end: u64) -> Span {
        Span { trace_id: 0, span_id: id, parent, name: name.into(), start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(0, None, "query", 0, 100),
            span(1, Some(0), "a", 10, 30),
            span(2, Some(0), "b", 40, 90),
            span(3, Some(2), "c", 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
        let by = self_seconds_by_name(&spans, "query");
        assert_eq!(by["b"], 40e-9);
        assert_eq!(seconds_by_name(&spans, "query")["b"], 50e-9);
        assert!(self_seconds_by_name(&spans, "diag").is_empty());
        check_trees(&spans).unwrap();
    }

    #[test]
    fn malformed_trees_are_rejected() {
        let orphan = vec![span(0, None, "query", 0, 10), span(1, Some(7), "a", 1, 2)];
        assert!(check_trees(&orphan).unwrap_err().contains("missing parent"));
        let outside = vec![span(0, None, "query", 0, 10), span(1, Some(0), "a", 5, 20)];
        assert!(check_trees(&outside).unwrap_err().contains("not inside"));
        let overlap = vec![
            span(0, None, "query", 0, 10),
            span(1, Some(0), "a", 0, 8),
            span(2, Some(0), "b", 2, 10),
        ];
        assert!(check_trees(&overlap).unwrap_err().contains("negative self time"));
    }

    #[test]
    fn recorder_nests_and_round_trips() {
        let mut tr = Tracer::on();
        tr.root(3, "query");
        let v = tr.time("outer", || 7);
        tr.enter("left-open");
        tr.root(4, "diag");
        tr.close_all();
        assert_eq!(v, 7);
        let spans = tr.spans().to_vec();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!(spans[3].trace_id, 4);
        check_trees(&spans).unwrap();
        assert_eq!(parse_jsonl(&to_jsonl(&spans)).unwrap(), spans);

        let mut off = Tracer::off();
        off.root(0, "query");
        assert_eq!(off.time("a", || 1), 1);
        assert!(off.spans().is_empty());
    }
}
