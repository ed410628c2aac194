//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span carries its name, the layer it times, its start and end
//! relative to the tracer's origin, and the span that was open when it
//! began. Spans stay in memory until the run ends; a layer's self time is
//! its spans' durations minus the parts their child spans cover. A
//! disabled tracer runs the closure and records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, e.g. `Study::run`.
    pub name: String,
    /// The layer (module) the call belongs to.
    pub layer: &'static str,
    /// Seconds since the tracer's origin when the call started.
    pub start: f64,
    /// Seconds since the tracer's origin when the call returned.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans for one process.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` on `layer`.
    pub fn span<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start: self.origin.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// The most recent span named `name`.
    pub fn last(&self, name: &str) -> Option<&Span> {
        self.spans.iter().rev().find(|s| s.name == name)
    }

    /// Index of the most recent span named `name`.
    pub fn last_id(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Duration of the most recent span named `name` (0 when absent).
    pub fn secs(&self, name: &str) -> f64 {
        self.last(name).map_or(0.0, Span::secs)
    }

    /// Self time of span `id`: its duration minus its children's. Children
    /// run one after another inside their parent, so their durations add.
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        self.spans[id].secs() - children
    }

    /// Self time per layer over span `root` and everything below it.
    pub fn layer_self_secs(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for id in root..self.spans.len() {
            if self.descends_from(id, root) {
                *out.entry(self.spans[id].layer).or_insert(0.0) += self.self_secs(id);
            }
        }
        out
    }

    fn descends_from(&self, mut id: usize, root: usize) -> bool {
        loop {
            if id == root {
                return true;
            }
            match self.spans[id].parent {
                Some(p) => id = p,
                None => return false,
            }
        }
    }

    /// Every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
                s.name, s.layer, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("op", "op", |t| {
            t.span("a", "driver", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            t.span("b", "report", |_| {
                std::thread::sleep(std::time::Duration::from_millis(10))
            });
        });
        let root = t.last_id("op").unwrap();
        let layers = t.layer_self_secs(root);
        let total: f64 = layers.values().sum();
        assert!((total - t.secs("op")).abs() < 1e-9);
        assert!(layers["driver"] >= 0.02);
        assert!(layers["op"] < layers["driver"]);
        assert_eq!(t.spans.len(), 3);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("op", "op", |_| 7);
        assert_eq!(v, 7);
        assert!(t.last("op").is_none());
        assert_eq!(t.to_json_lines(), "");
    }
}
