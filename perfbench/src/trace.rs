//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A span has a name (`layer.what`), a start, an end and the span
//! that caused it; spans are kept in memory and written out when the run
//! ends. A span's self time is its duration minus the part of its
//! interval that its child spans cover, so a layer's self time is work
//! done in that layer and not in a layer it called.

use fuiov_lab::Json;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process (the trace epoch).
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One closed (or still open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.what`, e.g. `core.replay_round`.
    pub name: String,
    /// Start, ns since the trace epoch.
    pub start: u64,
    /// End, ns since the trace epoch (0 while open).
    pub end: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer: the name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
}

/// The span store of one traced run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &str) -> usize {
        let id = self.add(name, now_ns(), 0, self.open.last().copied());
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "trace: spans closed out of order"
        );
        self.spans[id].end = now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Trace) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Records a span measured elsewhere (another thread, a callback).
    pub fn add(&mut self, name: &str, start: u64, end: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start,
            end,
            parent,
        });
        self.spans.len() - 1
    }

    /// All spans, in creation order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur)
            .collect()
    }

    /// Summed duration (ns) of every span called `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Self time (ns) of every span: its duration minus the union of its
    /// children's intervals clipped to it. Children may overlap (clients
    /// trained on parallel threads), so the union, not the sum, is taken.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur().saturating_sub(covered)
            })
            .collect()
    }

    /// Self time (ns) summed per layer.
    pub fn layer_self_times(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            *out.entry(s.layer().to_string()).or_insert(0) += t;
        }
        out
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::Obj(vec![
                        ("name".into(), Json::Str(s.name.clone())),
                        ("start_ns".into(), Json::Num(s.start as f64)),
                        ("end_ns".into(), Json::Num(s.end as f64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// lab.phase [0,100] ├─ fl.round [10,50] ├─ fl.local_train [12,30]
    ///                   │                   └─ fl.local_train [20,40]
    ///                   └─ core.replay [60,90]
    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::default();
        let phase = t.add("lab.phase", 0, 100, None);
        let round = t.add("fl.round", 10, 50, Some(phase));
        t.add("fl.local_train", 12, 30, Some(round));
        t.add("fl.local_train", 20, 40, Some(round));
        t.add("core.replay", 60, 90, Some(phase));
        assert_eq!(t.self_times(), vec![100 - 40 - 30, 40 - 28, 18, 20, 30]);
        let layers = t.layer_self_times();
        assert_eq!(layers["lab"], 30);
        assert_eq!(layers["fl"], 12 + 18 + 20);
        assert_eq!(layers["core"], 30);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let mut t = Trace::default();
        let p = t.add("a.p", 10, 20, None);
        t.add("b.c", 5, 15, Some(p));
        t.add("b.c", 18, 30, Some(p));
        assert_eq!(t.self_times()[0], 10 - 5 - 2);
    }

    #[test]
    fn nested_begin_end_sets_parents() {
        let mut t = Trace::default();
        t.span("lab.trial", |t| {
            t.span("lab.train", |_| {});
            t.span("lab.eval", |_| {});
        });
        let s = t.spans();
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|s| s.end >= s.start));
        assert_eq!(t.durations("lab.train").len(), 1);
    }
}
