//! In-memory spans of the traced run.
//!
//! Spans are recorded from the benchmark's side of each layer boundary,
//! around calls into public functions; nothing inside the program is
//! instrumented. They are kept in memory and written out, if asked, when
//! the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One timed call. `parent` is the span that caused it; the spans of
/// one operation share `event`, the operation's ordinal in its stream.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    parent: u32,
    pub event: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a root span now; `close` ends it.
    pub fn open(&mut self, name: &'static str, event: u64) -> u32 {
        let now = self.now();
        self.push(name, now, now, None, event)
    }

    pub fn close(&mut self, span: u32) {
        self.spans[span as usize].end_ns = self.now();
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        event: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: parent.unwrap_or(NO_PARENT),
            event,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of it that
    /// its child spans cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if span.parent != NO_PARENT {
                let parent = &mut own[span.parent as usize];
                *parent = parent.saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Span count and summed self time per span name.
    pub fn self_time_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let entry = out.entry(span.name).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += own;
        }
        out
    }

    /// Writes one JSON object per line: `id`, `name`, `start_ns`,
    /// `end_ns`, `parent` (an `id` or null), `event`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = match span.parent {
                NO_PARENT => "null".to_string(),
                p => p.to_string(),
            };
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"event\": {}}}",
                span.name, span.start_ns, span.end_ns, span.event
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_only_from_their_parent() {
        let mut t = Tracer::new();
        let root = t.push("event", 0, 100, None, 7);
        t.push("explore", 5, 45, Some(root), 7);
        let apply = t.push("apply", 50, 95, Some(root), 7);
        t.push("reorganize", 60, 95, Some(apply), 7);
        assert_eq!(t.self_times(), vec![15, 40, 10, 35]);
        let by_name = t.self_time_by_name();
        assert_eq!(by_name["event"], (1, 15));
        assert_eq!(by_name["apply"], (1, 10));
        // Self times partition the root's duration.
        assert_eq!(t.self_times().iter().sum::<u64>(), 100);
    }

    #[test]
    fn open_and_close_bracket_their_children() {
        let mut t = Tracer::new();
        let root = t.open("event", 1);
        let a = t.now();
        let b = t.now();
        t.push("child", a, b, Some(root), 1);
        t.close(root);
        let spans = t.spans();
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }
}
