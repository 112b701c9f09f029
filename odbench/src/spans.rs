//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out when the run ends.
//!
//! A span has a name, a start, an end, the span that caused it (its
//! parent; 0 for none) and the job it belongs to. A layer's self time is
//! its span's duration minus the part covered by its children; children
//! of one parent never overlap, so that is the duration minus the sum of
//! the children's durations.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Job id of spans that belong to no job (setup, ship rounds, samples).
pub const NO_JOB: u64 = u64::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// 1-based id (index + 1).
    pub id: u32,
    /// Id of the causing span, 0 for a root.
    pub parent: u32,
    /// Job the span belongs to, or [`NO_JOB`].
    pub job: u64,
    /// Layer boundary the span was recorded at.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

/// Per-name aggregate of a recorder's spans.
#[derive(Debug, Default, Clone)]
pub struct Layer {
    /// Spans recorded under this name.
    pub count: u64,
    /// Durations, ascending.
    pub durations_ns: Vec<u64>,
    /// Self times, ascending.
    pub self_ns: Vec<u64>,
}

impl Layer {
    /// Total self time in nanoseconds.
    pub fn self_total_ns(&self) -> u64 {
        self.self_ns.iter().sum()
    }

    /// Total duration in nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.durations_ns.iter().sum()
    }
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the recorder's origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        crate::stats::ns(t.saturating_duration_since(self.origin))
    }

    /// Records a span between two instants and returns its id.
    pub fn span(
        &mut self,
        parent: u32,
        job: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let (s, e) = (self.at(start), self.at(end));
        self.span_ns(parent, job, name, s, e)
    }

    /// Records a span between two recorder timestamps.
    pub fn span_ns(
        &mut self,
        parent: u32,
        job: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = u32::try_from(self.spans.len() + 1).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            id,
            parent,
            job,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
        });
        id
    }

    /// Sets the end of span `id` (one [`span`](Self::span) recorded with
    /// its start as end); id 0 is ignored.
    pub fn close(&mut self, id: u32, end: Instant) {
        let end_ns = self.at(end);
        if let Some(s) = id
            .checked_sub(1)
            .and_then(|i| self.spans.get_mut(i as usize))
        {
            s.end_ns = end_ns.max(s.start_ns);
        }
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed child durations per span, indexed like
    /// [`spans`](Self::spans).
    fn child_sums(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != 0 {
                children[s.parent as usize - 1] += s.end_ns - s.start_ns;
            }
        }
        children
    }

    /// Aggregates the spans per name.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(self.child_sums()) {
            let layer = layers.entry(s.name).or_default();
            let d = s.end_ns - s.start_ns;
            layer.count += 1;
            layer.durations_ns.push(d);
            layer.self_ns.push(d.saturating_sub(c));
        }
        for layer in layers.values_mut() {
            layer.durations_ns.sort_unstable();
            layer.self_ns.sort_unstable();
        }
        layers
    }

    /// Writes every span as one CSV line: `id,parent,job,name,start_ns,end_ns`.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut w = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id,parent,job,name,start_ns,end_ns")?;
        for s in &self.spans {
            let job = if s.job == NO_JOB {
                String::new()
            } else {
                s.job.to_string()
            };
            writeln!(
                w,
                "{},{},{},{},{},{}",
                s.id, s.parent, job, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
