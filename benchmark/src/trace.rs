//! The span recorder of the traced run. It lives in the benchmark:
//! spans wrap the calls *into* each layer (`Session::execute`, the
//! wrapped `ServerApi::handle`, the mutation calls); spans inside the
//! program are a later change. Spans stay in memory and are written as
//! `trace.jsonl` when the run ends.

use std::cell::Cell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. `parent` is 0 for the root span of an operation;
/// every span of one operation shares `op` (the root's id).
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Server-reported `decrypt_time + match_time` inside this span
    /// (`backend.handle` spans only; 0 elsewhere).
    pub server_ns: u64,
}

thread_local! {
    /// `(span id, op id)` of the innermost open span on this thread.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

pub struct Recorder {
    /// Flipped per cycle: the traced run alternates recorded and
    /// unrecorded cycles to price the recorder itself.
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; close it with [`OpenSpan::end`].
pub struct OpenSpan<'a> {
    recorder: &'a Recorder,
    id: u64,
    outer: (u64, u64),
    op: u64,
    name: &'static str,
    start_ns: u64,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_enabled(&self, on: bool) {
        // Publishes nothing: spans carry their own data.
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Open a span under the innermost open span of this thread;
    /// `None` while recording is off.
    pub fn span(&self, name: &'static str) -> Option<OpenSpan<'_>> {
        if !self.enabled() {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let outer = CURRENT.get();
        let op = if outer.0 == 0 { id } else { outer.1 };
        CURRENT.set((id, op));
        Some(OpenSpan {
            recorder: self,
            id,
            outer,
            op,
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
        })
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list lock"))
    }
}

impl OpenSpan<'_> {
    pub fn end(self, server_ns: u64) {
        let end_ns = self.recorder.epoch.elapsed().as_nanos() as u64;
        CURRENT.set(self.outer);
        self.recorder
            .spans
            .lock()
            .expect("span list lock")
            .push(Span {
                id: self.id,
                parent: self.outer.0,
                op: self.op,
                name: self.name,
                start_ns: self.start_ns,
                end_ns,
                server_ns,
            });
    }
}

/// Per span name: total duration, self time (duration minus the part
/// its child spans cover), server-reported time and count.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    pub total_ns: u64,
    pub self_ns: u64,
    pub server_ns: u64,
    pub count: u64,
}

pub fn totals(spans: &[Span]) -> HashMap<&'static str, Totals> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    let mut out: HashMap<&'static str, Totals> = HashMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        let dur = s.end_ns - s.start_ns;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        t.server_ns += s.server_ns;
        t.count += 1;
    }
    out
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \
             \"end_ns\": {}, \"server_ns\": {}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns, s.server_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let rec = Recorder::new();
        assert!(rec.span("off").is_none());
        rec.set_enabled(true);
        let outer = rec.span("outer").unwrap();
        let inner = rec.span("inner").unwrap();
        std::thread::sleep(std::time::Duration::from_millis(2));
        inner.end(7);
        outer.end(0);
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!((inner.parent, inner.op), (outer.id, outer.id));
        assert_eq!(outer.parent, 0);
        let t = totals(&spans);
        assert_eq!(
            t["outer"].self_ns,
            t["outer"].total_ns - t["inner"].total_ns
        );
        assert_eq!(t["inner"].server_ns, 7);
    }
}
