//! In-memory span recorder for the traced run.
//!
//! Spans are opened around the benchmark's calls into the library's public
//! API (the program itself is not instrumented).  Each span records its
//! layer, name, start and end, the span that caused it, and the request it
//! belongs to.  Engine work replayed *after* an admission decision has
//! returned is recorded as a root span that links back to the decision
//! (`link`), not as its child, so a decision's self time is never reduced
//! by work it did not wait for.
//!
//! With tracing off every call is a branch on a thread-local flag.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
struct Span {
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    link: Option<usize>,
    request: u64,
}

struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        request: 0,
    });
}

fn now_ns(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Turn recording on or off; turning it on discards earlier spans.
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.on = on;
        r.spans.clear();
        r.open.clear();
        r.epoch = Instant::now();
    });
}

/// Tag the spans opened from now on with `request`.
pub fn set_request(request: u64) {
    RECORDER.with(|r| r.borrow_mut().request = request);
}

/// An open span; closing happens on drop.
pub struct Guard {
    id: Option<usize>,
}

impl Guard {
    /// The span's id, for linking replay spans to it.
    pub fn id(&self) -> Option<usize> {
        self.id
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            RECORDER.with(|r| {
                let mut r = r.borrow_mut();
                let end = now_ns(r.epoch);
                r.spans[id].end_ns = end;
                r.open.pop();
            });
        }
    }
}

fn open(layer: &'static str, name: &'static str, link: Option<usize>) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard { id: None };
        }
        let id = r.spans.len();
        // A linked span is a root of its own: it ran after its cause ended.
        let parent = if link.is_some() {
            None
        } else {
            r.open.last().copied()
        };
        let start_ns = now_ns(r.epoch);
        let request = r.request;
        r.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            link,
            request,
        });
        r.open.push(id);
        Guard { id: Some(id) }
    })
}

/// Open a span nested in the innermost open span.
pub fn span(layer: &'static str, name: &'static str) -> Guard {
    open(layer, name, None)
}

/// Run `f` inside a span and time it, span bookkeeping included (so the
/// traced-minus-untraced difference is the tracing overhead a caller
/// pays); returns `f`'s value, the span id and the seconds taken.
pub fn timed_span<T>(
    layer: &'static str,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Option<usize>, f64) {
    let start = Instant::now();
    let guard = span(layer, name);
    let id = guard.id();
    let value = std::hint::black_box(f());
    drop(guard);
    (value, id, start.elapsed().as_secs_f64())
}

/// Open a replay span: a root span linked to `cause`.
pub fn replay(layer: &'static str, name: &'static str, cause: Option<usize>) -> Guard {
    open(layer, name, cause)
}

/// Per-layer totals of the recorded spans.
pub struct Summary {
    /// Self time per layer, in nanoseconds: span duration minus the part
    /// its children cover.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Durations per span name, in nanoseconds.
    pub by_name: BTreeMap<&'static str, Vec<u64>>,
}

impl Summary {
    /// Total duration of the spans called `name`, in nanoseconds.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |d| d.iter().sum::<u64>() as f64)
    }

    /// Median duration of the spans called `name`, in microseconds.
    pub fn median_us(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |d| {
            crate::stats::median(&d.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>())
        })
    }
}

/// Summarise the spans recorded since tracing was turned on, and write
/// them as JSON lines to `path` (a write failure is reported, not fatal).
pub fn finish(path: &std::path::Path) -> Summary {
    RECORDER.with(|r| {
        let r = r.borrow();
        let mut child_ns = vec![0u64; r.spans.len()];
        for span in &r.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let mut out = String::new();
        for (id, span) in r.spans.iter().enumerate() {
            let duration = span.end_ns - span.start_ns;
            *self_ns.entry(span.layer).or_default() += duration.saturating_sub(child_ns[id]);
            by_name.entry(span.name).or_default().push(duration);
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{},\"link\":{},\"request\":{}}}",
                span.layer,
                span.name,
                span.start_ns,
                span.end_ns,
                opt(span.parent),
                opt(span.link),
                span.request
            );
        }
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, out));
        match written {
            Ok(()) => eprintln!(
                "trace: {} spans written to {}",
                r.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("trace: could not write {}: {e}", path.display()),
        }
        Summary { self_ns, by_name }
    })
}

fn opt(value: Option<usize>) -> String {
    value.map_or_else(|| "null".to_string(), |v| v.to_string())
}
