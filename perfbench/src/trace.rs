//! In-memory spans for the traced replay.
//!
//! A span is recorded around each call the replay makes into one of the
//! program's layers: its name, start and end, the span that was open when
//! it started (its parent), and the id of the op it served. Spans stay in
//! memory until the replay ends; [`Tracer::write_jsonl`] then writes them
//! out. A span's *self time* is its duration minus the durations of its
//! direct children, so a layer's self time never counts the layers it
//! calls.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Op id of spans that belong to no op (dataset load and index build).
pub const SETUP_OP: u32 = u32::MAX;

/// Span names that are not a layer of the program: they wrap benchmark
/// code, so their time is left out of every layer sum and shows up as
/// `session.unaccounted_ms` instead.
pub const NOT_A_LAYER: &[&str] = &["session.repair_policy"];

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span name belongs to: the part before the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct Log {
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Records spans when enabled; a disabled tracer only runs the closures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    log: RefCell<Log>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            log: RefCell::new(Log::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for op `op`.
    pub fn span<T>(&self, op: u32, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let idx = {
            let mut log = self.log.borrow_mut();
            let idx = log.spans.len() as u32;
            let parent = log.open.last().copied();
            let start_ns = self.now_ns();
            log.spans.push(Span {
                name,
                op,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            log.open.push(idx);
            idx
        };
        let out = f();
        let end = self.now_ns();
        let mut log = self.log.borrow_mut();
        log.spans[idx as usize].end_ns = end;
        log.open.pop();
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.log.borrow().spans.clone()
    }

    /// Self time of every span, in span order.
    pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
        let mut child = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child[p as usize] += s.dur_ns();
            }
        }
        spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let log = self.log.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &log.spans {
            let op = if s.op == SETUP_OP {
                "null".to_string()
            } else {
                s.op.to_string()
            };
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"op\":{op},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new(true);
        t.span(0, "cache.lookup", || {
            t.span(0, "preprocess", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            })
        });
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        let own = Tracer::self_times_ns(&spans);
        assert_eq!(own[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(own[1], spans[1].dur_ns());
    }
}
