//! Spans recorded from outside the engine, kept in memory and written out
//! when the traced pass has ended.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// One timed interval: what ran, when, under which span, for which epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the trace.
    pub parent: Option<usize>,
    /// Index of the epoch in the stream (warm-up epochs first).
    pub epoch: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one traced pass.
#[derive(Debug, Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Record a span and return its index, for its children to name.
    pub fn span(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        epoch: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            epoch,
        });
        self.spans.len() - 1
    }

    /// Total duration of the spans called `name` whose epoch is at least
    /// `from_epoch` (spans without an epoch always count).
    pub fn total_ns(&self, name: &str, from_epoch: usize) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.epoch.is_none_or(|k| k >= from_epoch))
            .map(Span::duration_ns)
            .sum()
    }

    /// A span's duration minus the part its children cover.
    pub fn self_ns(&self, index: usize) -> u64 {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(Span::duration_ns)
            .sum();
        self.spans[index].duration_ns().saturating_sub(children)
    }

    /// The trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64, timed_from_epoch: usize) -> String {
        let mut out = format!(
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"timed_from_epoch\":{timed_from_epoch},\"spans\":[\n"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"epoch\":{}}}{sep}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.epoch)
            );
        }
        out.push_str("]}\n");
        out
    }

    /// Write the trace to `dir/trace-<workload>.json`, creating `dir`.
    pub fn write(
        &self,
        dir: &Path,
        workload: &str,
        seed: u64,
        timed_from_epoch: usize,
    ) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace-{workload}.json"));
        std::fs::write(&path, self.to_json(workload, seed, timed_from_epoch))?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Tracer {
        let mut tracer = Tracer::default();
        let pass = tracer.span("pass", 0, 1_000, None, None);
        for k in 0..3 {
            let start = 100 + 200 * k as u64;
            let epoch = tracer.span("epoch", start, start + 150, Some(pass), Some(k));
            tracer.span("executor.ingest", start, start + 20, Some(epoch), Some(k));
            tracer.span(
                "executor.run",
                start + 20,
                start + 140,
                Some(epoch),
                Some(k),
            );
        }
        tracer
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let tracer = sample();
        assert_eq!(tracer.self_ns(1), 10, "epoch 0: 150 − (20 + 120)");
        assert_eq!(tracer.self_ns(0), 1_000 - 3 * 150);
        assert_eq!(tracer.self_ns(2), 20, "a leaf is all self time");
    }

    #[test]
    fn totals_can_leave_the_warm_up_epochs_out() {
        let tracer = sample();
        assert_eq!(tracer.total_ns("executor.run", 0), 360);
        assert_eq!(tracer.total_ns("executor.run", 1), 240);
        assert_eq!(
            tracer.total_ns("pass", 2),
            1_000,
            "no epoch: always counted"
        );
        assert_eq!(tracer.total_ns("missing", 0), 0);
    }

    #[test]
    fn the_json_has_one_line_per_span_and_names_parents_by_index() {
        let json = sample().to_json("equi-chain", 7, 1);
        assert!(json.starts_with("{\"workload\":\"equi-chain\",\"seed\":7,\"timed_from_epoch\":1,"));
        assert_eq!(
            json.lines().filter(|l| l.starts_with("{\"name\"")).count(),
            10
        );
        assert!(json.contains(
            "{\"name\":\"pass\",\"start_ns\":0,\"end_ns\":1000,\"parent\":null,\"epoch\":null},"
        ));
        assert!(json.contains(
            "{\"name\":\"executor.run\",\"start_ns\":520,\"end_ns\":640,\"parent\":7,\"epoch\":2}\n]}"
        ));
    }
}
