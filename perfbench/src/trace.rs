//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a layer in
//! [`Tracer::span`]. With tracing off the wrapper only calls the closure;
//! with tracing on it records name, start, end, parent span and request id,
//! keeps everything in memory, and writes it out once at the end.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Where a new span hangs: its parent span (if any) and the request it
/// belongs to. Spans of one request share `req`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Ctx {
    pub parent: Option<usize>,
    pub req: u64,
}

impl Ctx {
    /// A top-level span of request `req`.
    pub fn root(req: u64) -> Ctx {
        Ctx { parent: None, req }
    }
}

/// One recorded span; times are nanoseconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; `f` receives the context its own
    /// child spans should use. Safe to call from several threads.
    pub fn span<R>(&self, name: &'static str, ctx: Ctx, f: impl FnOnce(Ctx) -> R) -> R {
        if !self.enabled {
            return f(ctx);
        }
        let id = {
            let mut spans = self.spans.lock().expect("tracer mutex poisoned");
            spans.push(Span {
                name,
                parent: ctx.parent,
                req: ctx.req,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        let out = f(Ctx {
            parent: Some(id),
            req: ctx.req,
        });
        let end = self.now_ns();
        self.spans.lock().expect("tracer mutex poisoned")[id].end_ns = end;
        out
    }

    /// A copy of every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer mutex poisoned").clone()
    }
}

/// Span analysis: durations and self times by name.
pub struct Analysis {
    spans: Vec<Span>,
    children: Vec<Vec<usize>>,
}

impl Analysis {
    pub fn new(spans: Vec<Span>) -> Analysis {
        let mut children = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        Analysis { spans, children }
    }

    /// Indices of the spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = usize> + 'a {
        (0..self.spans.len()).filter(move |&i| self.spans[i].name == name)
    }

    /// Durations, seconds, of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|i| self.spans[i].dur_s()).collect()
    }

    /// Seconds of span `i` covered by at least one of its direct children
    /// (children may overlap when they run on several threads).
    pub fn child_cover_s(&self, i: usize) -> f64 {
        let mut iv: Vec<(u64, u64)> = self.children[i]
            .iter()
            .map(|&c| (self.spans[c].start_ns, self.spans[c].end_ns))
            .collect();
        iv.sort_unstable();
        let mut covered = 0u64;
        let mut cur: Option<(u64, u64)> = None;
        for (s, e) in iv {
            cur = match cur {
                Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    covered += ce - cs;
                    Some((s, e))
                }
                None => Some((s, e)),
            };
        }
        if let Some((cs, ce)) = cur {
            covered += ce - cs;
        }
        covered as f64 * 1e-9
    }

    /// Self time of span `i`: its duration minus the part its children cover.
    pub fn self_s(&self, i: usize) -> f64 {
        (self.spans[i].dur_s() - self.child_cover_s(i)).max(0.0)
    }

    /// Sum of self times of every span named `name`, grouped by request id.
    pub fn self_by_req(&self, name: &str) -> HashMap<u64, f64> {
        let mut by = HashMap::new();
        for i in self.named(name) {
            *by.entry(self.spans[i].req).or_insert(0.0) += self.self_s(i);
        }
        by
    }

    /// The spans as JSON, one object per line inside an array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"req\":{},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}{}",
                s.name,
                s.req,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                self.self_s(i) * 1e6,
                if i + 1 < self.spans.len() { "," } else { "" }
            );
        }
        out.push(']');
        out
    }
}
