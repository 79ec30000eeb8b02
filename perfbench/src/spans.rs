//! The benchmark's own span recorder.
//!
//! Spans are recorded around each call the benchmark makes into a
//! layer: a name, a start, an end, the span that caused it, and the id
//! of the request they belong to. They are kept in a preallocated
//! buffer (a full buffer counts drops instead of allocating, so the
//! recorder never shows up in the allocation counts) and written out
//! when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

/// The id `begin` returns once the buffer is full.
const DROPPED: SpanId = SpanId::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Spans {
    pub fn with_capacity(cap: usize) -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::with_capacity(cap),
            dropped: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span of request `req` under `parent`.
    pub fn begin(&mut self, req: u64, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return DROPPED;
        }
        let start_ns = self.now();
        self.spans.push(Span {
            req,
            name,
            parent: parent.filter(|&p| p != DROPPED),
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Closes a span opened by [`Spans::begin`]; returns its duration.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now();
        match self.spans.get_mut(id as usize) {
            Some(s) => {
                s.end_ns = now;
                now - s.start_ns
            }
            None => 0,
        }
    }

    /// Spans recorded so far (an index usable with [`Spans::since`]).
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Spans recorded from index `from` on.
    pub fn since(&self, from: usize) -> &[Span] {
        &self.spans[from.min(self.spans.len())..]
    }

    /// Durations (ns) of the spans named `name` recorded from `from` on.
    pub fn durations(&self, from: usize, name: &str) -> Vec<u64> {
        self.durations_in(from..self.spans.len(), name)
    }

    /// Durations (ns) of the spans named `name` among `range`.
    pub fn durations_in(&self, range: std::ops::Range<usize>, name: &str) -> Vec<u64> {
        self.spans[range.start.min(self.spans.len())..range.end.min(self.spans.len())]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Time (ns) spent in layers from span `from` on: the self time of
    /// every span below a root (a root is the benchmark's own request,
    /// and its self time the benchmark's glue), which adds up to the
    /// duration of the roots' direct children.
    pub fn layer_ns(&self, from: usize) -> u64 {
        self.since(from)
            .iter()
            .filter(|s| {
                s.parent
                    .is_some_and(|p| self.spans[p as usize].parent.is_none())
            })
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// Self time per span name: each span's duration minus the part its
    /// children cover. Children of one span run one after another (the
    /// recorder is single-threaded), so that part is their summed
    /// duration.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"req\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Opens a span when tracing, a no-op otherwise.
pub fn begin(
    tr: &mut Option<&mut Spans>,
    req: u64,
    name: &'static str,
    parent: Option<SpanId>,
) -> Option<SpanId> {
    tr.as_mut().map(|t| t.begin(req, name, parent))
}

/// Closes a span opened by [`begin`].
pub fn end(tr: &mut Option<&mut Spans>, id: Option<SpanId>) {
    if let (Some(t), Some(id)) = (tr.as_mut(), id) {
        t.end(id);
    }
}
