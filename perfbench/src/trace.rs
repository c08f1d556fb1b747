//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records a name, start and end, the span that was open when it
//! began (its parent) and a request id shared by the spans of one solve
//! or request. Spans are recorded only in the traced run, kept in
//! memory, and written out when the benchmark ends. A layer's self time
//! is its span's duration minus the part covered by its children.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one thread. A disabled tracer records nothing and
/// only runs the wrapped closures.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`, so tracers of
    /// different threads share one clock.
    pub fn new(on: bool, epoch: Instant) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` for request `req`; spans opened before
    /// the matching [`Tracer::end`] become its children.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Option<usize> {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Close the span `begin` opened.
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(idx) = id {
            let popped = self.open.pop();
            debug_assert_eq!(popped, Some(idx), "spans must nest");
            self.spans[idx].end_ns = self.now_ns();
        }
    }

    /// Run `f` inside a span named `name` for request `req`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name, req);
        let out = f(self);
        self.end(id);
        out
    }

    /// Move another thread's spans into this tracer, re-basing their
    /// parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one tab-separated line:
    /// `id parent req name start_ns end_ns self_ns`.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns\tself_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.req, s.name, s.start_ns, s.end_ns, self_ns[i]
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.clamp(parent.start_ns, parent.end_ns);
            let hi = s.end_ns.clamp(parent.start_ns, parent.end_ns);
            children[p].push((lo, hi));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(lo, hi) in kids.iter() {
                cur = match cur {
                    Some((a, b)) if lo <= b => Some((a, b.max(hi))),
                    Some((a, b)) => {
                        covered += b - a;
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            }
            if let Some((a, b)) = cur {
                covered += b - a;
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)), // overlaps a: union is 10..50
            span("c", 70, 80, Some(0)),
            span("a.child", 15, 20, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![100 - 40 - 10, 30 - 5, 20, 10, 5]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("root", 10, 20, None), span("late", 15, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 15]);
    }

    #[test]
    fn nested_spans_record_parents_and_disabled_tracers_record_nothing() {
        let mut tr = Tracer::new(true, Instant::now());
        let v = tr.span("outer", 7, |tr| tr.span("inner", 7, |_| 3) + 1);
        assert_eq!(v, 4);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].name, s[1].parent, s[1].req), ("inner", Some(0), 7));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);

        let mut other = Tracer::new(true, Instant::now());
        other.span("x", 1, |tr| tr.span("y", 1, |_| ()));
        tr.absorb(other);
        assert_eq!(tr.spans()[3].parent, Some(2));

        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("outer", 0, |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
