//! In-memory wall-clock spans around the calls into each crate.
//!
//! Spans are recorded from the benchmark's own files only (nothing under
//! `crates/` carries a timer), kept in memory, and written once at exit as
//! Chrome `trace_event` JSON. A span's *self time* is its duration minus
//! the part of that interval its child spans cover.

use std::time::Instant;

use serde::Serialize;

/// One closed (or still open, `end_ns == 0`) span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one campaign share the case id (index into the case list).
    pub case: u32,
    /// 0 = the driving thread; workers of a speculative batch get 1, 2, ….
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

/// The span recorder of one thread. Worker threads get a [`Spans::worker`]
/// recorder on the same clock, merged back with [`Spans::adopt`].
#[derive(Debug, Clone)]
pub struct Spans {
    /// Off for the timed end-to-end passes: `begin`/`end` then record
    /// nothing and read no clock.
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    case: u32,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            case: 0,
        }
    }

    /// A recorder that records nothing.
    pub fn off() -> Self {
        Spans {
            enabled: false,
            ..Spans::new()
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// An empty recorder sharing this one's clock and current case.
    pub fn worker(&self) -> Spans {
        Spans {
            enabled: self.enabled,
            epoch: self.epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            case: self.case,
        }
    }

    /// Sets the case id stamped on spans opened from now on.
    pub fn set_case(&mut self, case: u32) {
        self.case = case;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            case: self.case,
            tid: 0,
        });
        self.stack.push(id);
        SpanId(id)
    }

    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans[id.0].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans must close innermost first");
    }

    /// Times `f` under a span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Merges a worker's spans under the currently open span.
    pub fn adopt(&mut self, worker: Spans, tid: u32) {
        let base = self.spans.len();
        let parent = self.stack.last().copied();
        for mut s in worker.spans {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s.tid = tid;
            self.spans.push(s);
        }
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Total duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Self time (ns) of span `i`: its duration minus the union of its
    /// direct children's intervals (children may overlap each other when a
    /// speculative batch ran them on worker threads).
    pub fn self_ns(&self, i: usize) -> u64 {
        let span = &self.spans[i];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(i))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (a, b) in kids {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        span.dur_ns().saturating_sub(covered)
    }

    /// Total self time (ns) of every span called `name`.
    pub fn total_self_ns(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|i| self.spans[*i].name == name)
            .map(|i| self.self_ns(i) as f64)
            .sum()
    }

    /// Chrome `trace_event` JSON (complete events, µs), loadable in
    /// Perfetto or `chrome://tracing`. `cases[i]` names case id `i`.
    pub fn to_chrome_json(&self, cases: &[String]) -> String {
        #[derive(Serialize)]
        struct Args {
            case: String,
            span: usize,
            parent: Option<usize>,
            self_us: f64,
        }
        #[derive(Serialize)]
        struct Ev {
            name: &'static str,
            cat: &'static str,
            ph: &'static str,
            ts: f64,
            dur: f64,
            pid: u32,
            tid: u32,
            args: Args,
        }
        #[derive(Serialize)]
        struct File {
            #[serde(rename = "traceEvents")]
            trace_events: Vec<Ev>,
            #[serde(rename = "displayTimeUnit")]
            display_time_unit: &'static str,
        }
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| Ev {
                name: s.name,
                cat: s.name.split('.').next().unwrap_or("bench"),
                ph: "X",
                ts: s.start_ns as f64 / 1e3,
                dur: s.dur_ns() as f64 / 1e3,
                pid: 1,
                tid: s.tid,
                args: Args {
                    case: cases.get(s.case as usize).cloned().unwrap_or_default(),
                    span: i,
                    parent: s.parent,
                    self_us: self.self_ns(i) as f64 / 1e3,
                },
            })
            .collect();
        serde_json::to_string(&File {
            trace_events: events,
            display_time_unit: "ms",
        })
        .expect("span file serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            case: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::new();
        s.spans = vec![
            span("run", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` (a worker thread): 30..60 adds only 40..60.
            span("b", 30, 60, Some(0)),
            span("c", 70, 80, Some(0)),
            // A grandchild never counts against the grandparent.
            span("d", 12, 20, Some(1)),
        ];
        assert_eq!(s.self_ns(0), 100 - (30 + 20 + 10));
        assert_eq!(s.self_ns(1), 30 - 8);
        assert_eq!(s.total_self_ns("run"), 40.0);
    }

    #[test]
    fn nesting_and_adoption_keep_parents() {
        let mut s = Spans::new();
        let outer = s.begin("outer");
        let mut w = s.worker();
        let job = w.begin("job");
        w.time("inner", || ());
        w.end(job);
        s.adopt(w, 1);
        s.end(outer);
        let all = s.all();
        assert_eq!(all[1].parent, Some(0));
        assert_eq!(all[2].parent, Some(1));
        assert_eq!((all[1].tid, all[2].tid), (1, 1));
        let json = s.to_chrome_json(&["case0".into()]);
        assert!(json.contains("\"traceEvents\"") && json.contains("\"ph\":\"X\""));
    }
}
