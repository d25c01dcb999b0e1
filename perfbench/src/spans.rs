//! Spans recorded in the benchmark's own code, around each call it makes
//! into a layer's public API.  Spans stay in memory and are written out
//! when the run ends; a span's self time is its duration minus the time
//! its children cover.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer call, e.g. `simnet.run_for`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// A span recorder.  When disabled it records nothing and costs one branch
/// per call.
pub struct Spans {
    enabled: bool,
    origin: Instant,
    list: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; `enabled = false` gives the untraced mode.
    pub fn new(enabled: bool) -> Self {
        Spans { enabled, origin: Instant::now(), list: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.list.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(self.list.len() - 1);
    }

    /// Close the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("end() matches a begin()");
        self.list[i].end_ns = end_ns;
    }

    /// Run `f` inside a span.
    pub fn wrap<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end();
        r
    }

    /// Every recorded span.
    pub fn list(&self) -> &[Span] {
        &self.list
    }

    /// Is `i` nested (at any depth) in a span named `root`?
    pub fn within(&self, mut i: usize, root: &str) -> bool {
        while let Some(p) = self.list[i].parent {
            if self.list[p].name == root {
                return true;
            }
            i = p;
        }
        false
    }

    /// Per span name under `root`: (count, total ns, self ns).
    pub fn totals(&self, root: &str) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.list.len()];
        for s in &self.list {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.list.iter().enumerate() {
            if s.name != root && !self.within(i, root) {
                continue;
            }
            let d = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += d;
            e.2 += d.saturating_sub(child_ns[i]);
        }
        out
    }

    /// The spans as JSON lines: name, start, end, parent.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.list.iter().enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_else(|| "null".to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}
