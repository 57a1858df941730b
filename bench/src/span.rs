//! Spans recorded by the benchmark around each call into a layer.
//!
//! Kept in memory during the traced repetition and written at exit as
//! Chrome trace-event JSON (the format `hios_sim::trace` targets; open
//! it in `chrome://tracing` or Perfetto).  `serve` and `serve_fleet` are
//! single calls, so their children are *replayed*: the same public
//! functions timed on the same inputs after the call, scaled to the
//! counts the report gives, and laid end to end inside the parent.

use std::time::Instant;

pub struct Span {
    pub name: String,
    /// Start offset from the recorder's origin, seconds.
    pub start_s: f64,
    pub dur_s: f64,
    pub parent: Option<usize>,
    /// Calls this span stands for (1 for a directly timed call).
    pub calls: u64,
    /// Timed after the fact and extrapolated, not observed in place.
    pub replayed: bool,
}

pub struct Recorder {
    workload: &'static str,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &'static str) -> Self {
        Recorder {
            workload,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_s: self.origin.elapsed().as_secs_f64(),
            dur_s: 0.0,
            parent: self.open.last().copied(),
            calls: 1,
            replayed: false,
        });
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let now = self.origin.elapsed().as_secs_f64();
        self.spans[id].dur_s = now - self.spans[id].start_s;
        self.spans[id].dur_s
    }

    /// Times `f` as one span.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    /// Adds a replayed child of `parent` standing for `calls` calls that
    /// took `busy_s` in total, placed after the parent's earlier children.
    pub fn replayed(&mut self, parent: usize, name: &str, busy_s: f64, calls: u64) -> usize {
        let start_s = self.spans[parent].start_s + self.children_s(parent);
        self.spans.push(Span {
            name: name.to_owned(),
            start_s,
            dur_s: busy_s,
            parent: Some(parent),
            calls,
            replayed: true,
        });
        self.spans.len() - 1
    }

    fn children_s(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| s.dur_s)
            .sum()
    }

    /// A span's duration minus what its direct children cover.  Not
    /// clamped: replayed children are extrapolations, and a negative
    /// self time says the replay over-counts — worth seeing.
    pub fn self_s(&self, id: usize) -> f64 {
        self.spans[id].dur_s - self.children_s(id)
    }

    #[cfg(test)]
    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Chrome trace-event JSON array: one complete event (`ph: "X"`) per
    /// span, microsecond timestamps, nesting depth as the track.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let mut depth = 0;
            let mut p = s.parent;
            while let Some(id) = p {
                depth += 1;
                p = self.spans[id].parent;
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 0, \"tid\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \
                 \"workload\": \"{}\", \"calls\": {}, \"replayed\": {}}}}}{}\n",
                s.name,
                if s.replayed { "replayed" } else { "timed" },
                depth,
                s.start_s * 1e6,
                s.dur_s * 1e6,
                i,
                parent,
                self.workload,
                s.calls,
                s.replayed,
                if i + 1 == self.spans.len() { "" } else { "," },
            ));
        }
        out.push_str("]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut rec = Recorder::new("test");
        let root = rec.enter("root");
        let child = rec.enter("child");
        let grandchild = rec.enter("grandchild");
        rec.exit(grandchild);
        rec.exit(child);
        rec.exit(root);
        // Pin durations so the arithmetic is exact.
        rec.spans[root].dur_s = 10.0;
        rec.spans[child].dur_s = 4.0;
        rec.spans[grandchild].dur_s = 1.0;
        let a = rec.replayed(root, "replay.a", 2.5, 1000);
        let b = rec.replayed(root, "replay.b", 1.5, 10);
        assert_eq!(rec.self_s(root), 10.0 - 4.0 - 2.5 - 1.5);
        assert_eq!(
            rec.self_s(child),
            3.0,
            "grandchildren are not subtracted twice"
        );
        assert_eq!(rec.self_s(grandchild), 1.0);
        // Children plus self sum to the parent by construction.
        let sum = rec.self_s(root) + rec.span(child).dur_s + rec.span(a).dur_s + rec.span(b).dur_s;
        assert_eq!(sum, rec.span(root).dur_s);
        // Replayed children are laid end to end after earlier children.
        assert_eq!(rec.span(a).start_s, rec.span(root).start_s + 4.0);
        assert_eq!(rec.span(b).start_s, rec.span(root).start_s + 6.5);
        assert!(rec.span(a).replayed && !rec.span(child).replayed);
    }

    #[test]
    fn over_counting_replay_shows_as_negative_self_time() {
        let mut rec = Recorder::new("test");
        let root = rec.enter("root");
        rec.exit(root);
        rec.spans[root].dur_s = 1.0;
        rec.replayed(root, "too.much", 1.25, 5);
        assert_eq!(rec.self_s(root), -0.25);
    }

    #[test]
    fn chrome_json_lists_every_span_once() {
        let mut rec = Recorder::new("wl");
        let root = rec.enter("serve");
        rec.exit(root);
        rec.replayed(root, "sim.simulate_scaled", 0.5, 7);
        let json = rec.chrome_json();
        assert!(json.starts_with("[\n") && json.ends_with("]\n"));
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.contains("\"replayed\": true") && json.contains("\"calls\": 7"));
        assert!(json.contains("\"parent\": 0") && json.contains("\"parent\": null"));
    }
}
