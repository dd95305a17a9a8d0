//! In-memory spans recorded around the benchmark's calls into each
//! public layer of the library. A span has a name, start, end, the span
//! that caused it and a request id shared by one sweep or one job; self
//! time is a span's duration minus the part of it its children cover.

use hstencil_testkit::Json;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the trace's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Spans of one thread, in start order. Threads record into their own
/// `Trace` and [`Trace::absorb`] merges them afterwards.
pub struct Trace {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    pub fn new(origin: Instant) -> Trace {
        Trace {
            origin,
            on: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A trace that records nothing: `enter`/`exit` are a branch each.
    pub fn off() -> Trace {
        Trace {
            on: false,
            ..Trace::new(Instant::now())
        }
    }

    /// An empty trace with this one's origin and on/off state, for
    /// another thread to record into.
    pub fn fresh(&self) -> Trace {
        Trace {
            origin: self.origin,
            on: self.on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span as a child of the innermost open one; pass the
    /// returned id to [`Trace::exit`].
    pub fn enter(&mut self, name: &'static str, req: u64) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            req,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, req);
        let out = f();
        self.exit(id);
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans (same origin), re-basing their
    /// parent links.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Self time of every span, indexed like [`Trace::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Durations in nanoseconds of the spans named `name` whose request
    /// id satisfies `keep`.
    pub fn durations(&self, name: &str, keep: impl Fn(u64) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.req))
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// The whole trace as JSON, self times included.
    pub fn to_json(&self) -> Json {
        let selfs = self.self_ns();
        Json::array(self.spans.iter().zip(selfs).map(|(s, own)| {
            Json::object([
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::UInt(s.start_ns)),
                ("end_ns", Json::UInt(s.end_ns)),
                ("self_ns", Json::UInt(own)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("req", Json::UInt(s.req)),
            ])
        }))
    }
}

/// A span's duration minus the union of its children's intervals,
/// clipped to the span (children may overlap when they ran on other
/// threads).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),     // 0: root
            span(10, 30, Some(0)),  // 1
            span(20, 50, Some(0)),  // 2: overlaps 1 → union [10, 50)
            span(90, 120, Some(0)), // 3: runs past its parent → clipped
            span(25, 35, Some(2)),  // 4: grandchild, not the root's
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 20, 30 - 10, 30, 10]);
    }

    #[test]
    fn recorded_spans_nest_and_merge() {
        let mut t = Trace::new(Instant::now());
        let outer = t.enter("call", 7);
        t.span("kernel", 7, || std::hint::black_box(1 + 1));
        t.exit(outer);
        let mut other = Trace::new(Instant::now());
        let o = other.enter("wait", 8);
        other.span("inner", 8, || ());
        other.exit(o);
        t.absorb(other);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!((s[1].parent, s[3].parent), (Some(0), Some(2)));
        assert_eq!(t.durations("kernel", |r| r == 7).len(), 1);
        assert!(t.self_ns()[0] <= s[0].end_ns - s[0].start_ns);
    }
}
