//! Spans recorded by the benchmark around its own calls into the program
//! (none are recorded inside it). They stay in memory and are written to
//! `out/trace-<workload>.json` when the run ends.

use std::borrow::Cow;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Span id of "no parent".
pub const ROOT: u32 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the tracer's start to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span and return its id.
    pub fn add(
        &mut self,
        parent: u32,
        name: impl Into<Cow<'static, str>>,
        start: Instant,
        end: Instant,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Open a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, parent: u32, name: impl Into<Cow<'static, str>>) -> u32 {
        let now = Instant::now();
        self.add(parent, name, now, now)
    }

    pub fn close(&mut self, id: u32) {
        self.spans[id as usize - 1].end_ns = self.ns(Instant::now());
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"workload\": \"{workload}\", \"unit\": \"ns\", \"spans\": ["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start\": {}, \"end\": {}}}{comma}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::time::Duration;

    #[test]
    fn spans_keep_their_parents_and_the_file_parses() {
        let mut tracer = Tracer::new();
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let rung = tracer.add(ROOT, "rung", at(0), at(100));
        let populate = tracer.add(rung, "populate", at(0), at(30));
        tracer.add(populate, "op.read", at(1), at(2));
        tracer.add(rung, "replay", at(30), at(90));
        assert_eq!(
            tracer.spans()[1].end_ns - tracer.spans()[1].start_ns,
            30_000
        );

        let dir =
            std::env::temp_dir().join(format!("sf-benchmark-trace-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        tracer.write(&path, "unit-test").unwrap();
        let parsed = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let spans = parsed.get("spans").unwrap().as_arr();
        assert_eq!(spans.len(), 4);
        assert_eq!(
            spans[2].get("parent").unwrap().as_f64(),
            Some(populate as f64)
        );
        assert_eq!(spans[3].get("name").unwrap().as_str(), Some("replay"));
    }
}
