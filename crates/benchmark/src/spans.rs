//! The benchmark's own span recorder. Spans are taken around the calls
//! into each layer (one per pass, one per kernel-variant call, one per
//! served request with `submit` and `wait` children), kept in memory and
//! written once, at exit, as chrome-trace JSON. Spans *inside* the
//! library are a later issue.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// Microseconds since the process's first call into the recorder.
pub fn micros(at: Instant) -> f64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    at.saturating_duration_since(epoch).as_secs_f64() * 1e6
}

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub pass: usize,
    /// Request sequence id, shared by a request span and its children.
    pub id: Option<u64>,
    /// Chrome-trace lane: 0 for passes and calls, 1 + client for requests.
    pub lane: usize,
}

/// In-memory span store; indices are stable, so they serve as span ids.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    /// Record a span and return its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Close an open span at `end`.
    pub fn close(&mut self, idx: usize, end: Instant) {
        self.spans[idx].end_us = micros(end);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span: its duration minus the part of that
    /// interval its direct children cover (children of one parent on one
    /// lane do not overlap; across lanes the union is taken).
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut kids: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                kids[p].push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .zip(kids.iter_mut())
            .map(|(s, k)| {
                k.sort_by(|a, b| a.0.total_cmp(&b.0));
                let (mut covered, mut edge) = (0.0, s.start_us);
                for &(lo, hi) in k.iter() {
                    let lo = lo.max(edge);
                    if hi > lo {
                        covered += hi - lo;
                        edge = hi;
                    }
                }
                (s.end_us - s.start_us - covered).max(0.0)
            })
            .collect()
    }

    /// Write the spans as chrome-trace complete events.
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let selfs = self.self_times_us();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, (s, self_us)) in self.spans.iter().zip(&selfs).enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let id = s.id.map_or("null".to_owned(), |p| p.to_string());
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"span\":{i},\"parent\":{parent},\"pass\":{},\"id\":{id},\"self_us\":{self_us:.3}}}}}",
                s.name,
                s.lane,
                s.start_us,
                s.end_us - s.start_us,
                s.pass,
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_us: f64, end_us: f64, parent: Option<usize>, lane: usize) -> Span {
        Span {
            name: name.to_owned(),
            start_us,
            end_us,
            parent,
            pass: 0,
            id: None,
            lane,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::default();
        let root = s.push(span("pass", 0.0, 100.0, None, 0));
        s.push(span("a", 10.0, 40.0, Some(root), 1));
        // Overlaps `a` on another lane: only 40..60 is newly covered.
        s.push(span("b", 30.0, 60.0, Some(root), 2));
        assert_eq!(s.self_times_us(), vec![50.0, 30.0, 30.0]);
    }
}
