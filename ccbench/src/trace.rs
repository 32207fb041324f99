//! The layer ladder's spans.
//!
//! A traced run replays the same requests through every rung of a ladder
//! — the raw index call, the `mmdb` operator around it, the server window
//! around that — and records one span per call into a public function.
//! The rungs run one after another, not nested in time, so a span's
//! parent is *declared*: it is the span of the rung above that replayed
//! the same request in the same pass. A layer's self time is then its
//! span's duration minus its children's durations — the tax that layer
//! adds on top of the one below.
//!
//! Spans stay in memory while the clock runs and are written out once, at
//! exit.

use crate::json::Json;
use crate::stats::median;
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Request id of a span that covers every request of its pass (a whole
/// serving session, say); children of any request id attach to it.
pub const ALL_REQUESTS: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rung(u16);

#[derive(Debug, Clone, Copy)]
struct Span {
    rung: Rung,
    pass: u16,
    request: u32,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
struct RungDef {
    name: &'static str,
    parent: Option<Rung>,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    rungs: Vec<RungDef>,
    spans: Vec<Span>,
    /// False during a warm-up pass: calls run, spans are not kept.
    recording: bool,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            rungs: Vec::new(),
            spans: Vec::new(),
            recording: true,
        }
    }

    /// Replay a ladder: one unrecorded warm-up pass, then `passes`
    /// recorded ones. `replay(tracer, pass)` makes every call of one pass.
    pub fn passes<E>(
        &mut self,
        passes: usize,
        mut replay: impl FnMut(&mut Tracer, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        self.recording = false;
        let warmed = replay(self, 0);
        self.recording = true;
        warmed?;
        (0..passes).try_for_each(|pass| replay(self, pass))
    }

    /// Whether spans are being kept (false inside the warm-up pass).
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Declare a rung; `parent` is the rung one step up the ladder.
    pub fn rung(&mut self, name: &'static str, parent: Option<Rung>) -> Rung {
        self.rungs.push(RungDef { name, parent });
        Rung((self.rungs.len() - 1) as u16)
    }

    /// Time `f` as one span of `rung` replaying `request` in `pass`.
    pub fn time<T>(&mut self, rung: Rung, pass: usize, request: u32, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(rung, pass, request, start, end);
        out
    }

    /// Record a span timed by the caller (a session whose start and end
    /// are observed on different lines, for instance).
    pub fn record(&mut self, rung: Rung, pass: usize, request: u32, start: Instant, end: Instant) {
        if !self.recording {
            return;
        }
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            rung,
            pass: pass as u16,
            request,
            start_ns: ns(start),
            end_ns: ns(end),
        });
    }

    /// Each span's parent: the parent rung's span for the same pass and
    /// request, else the parent rung's [`ALL_REQUESTS`] span of the pass.
    fn parents(&self) -> Vec<Option<usize>> {
        let by_key: HashMap<(Rung, u16, u32), usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| ((s.rung, s.pass, s.request), i))
            .collect();
        self.spans
            .iter()
            .map(|s| {
                let parent = self.rungs[s.rung.0 as usize].parent?;
                by_key
                    .get(&(parent, s.pass, s.request))
                    .or_else(|| by_key.get(&(parent, s.pass, ALL_REQUESTS)))
                    .copied()
            })
            .collect()
    }

    /// Per span: duration minus the durations of its children (saturating
    /// at zero — a noisy child can outlast its parent's replay).
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration).collect();
        for (child, parent) in self.parents().into_iter().enumerate() {
            if let Some(parent) = parent {
                own[parent] = own[parent].saturating_sub(self.spans[child].duration());
            }
        }
        own
    }

    fn per_pass(&self, rung: Rung, values: &[u64]) -> Vec<f64> {
        let mut totals: Vec<u64> = Vec::new();
        for (span, &v) in self.spans.iter().zip(values) {
            if span.rung == rung {
                let pass = span.pass as usize;
                if totals.len() <= pass {
                    totals.resize(pass + 1, 0);
                }
                totals[pass] += v;
            }
        }
        totals.into_iter().map(|t| t as f64).collect()
    }

    /// Total nanoseconds inside `rung` per pass; the ladder reports the
    /// median pass so one disturbed pass does not set the number.
    fn pass_totals_ns(&self, rung: Rung) -> Vec<f64> {
        let durations: Vec<u64> = self.spans.iter().map(Span::duration).collect();
        self.per_pass(rung, &durations)
    }

    /// Median over passes of the rung's total time, in ns.
    pub fn total_ns(&self, rung: Rung) -> f64 {
        median_or_zero(&self.pass_totals_ns(rung))
    }

    /// Median over passes of the rung's total *self* time, in ns.
    pub fn self_total_ns(&self, rung: Rung) -> f64 {
        median_or_zero(&self.per_pass(rung, &self.self_ns()))
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as `{name, start_ns, end_ns, parent, request}`;
    /// `parent` is an index into the same array (null at the top rung).
    pub fn write(&self, path: &Path, workload: &str) -> Result<(), String> {
        let parents = self.parents();
        let spans = self
            .spans
            .iter()
            .zip(&parents)
            .map(|(s, parent)| {
                Json::obj([
                    ("name", Json::str(self.rungs[s.rung.0 as usize].name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    (
                        "request",
                        if s.request == ALL_REQUESTS {
                            Json::str("all")
                        } else {
                            Json::Num(f64::from(s.request))
                        },
                    ),
                    ("pass", Json::Num(f64::from(s.pass))),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("workload", Json::str(workload)),
            ("spans", Json::Arr(spans)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(path, doc.render()).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A hand-built tree: request 0 costs 100 at the top rung, of which
    /// the operator below takes 70, of which encode takes 30 and descent
    /// 25; request 1 has only a top span; a session span covers the pass.
    fn tree() -> (Tracer, [Rung; 5]) {
        let mut t = Tracer::new();
        let session = t.rung("session", None);
        let top = t.rung("top", Some(session));
        let op = t.rung("operator", Some(top));
        let encode = t.rung("encode", Some(op));
        let descent = t.rung("descent", Some(op));
        let o = t.origin;
        let at = |ns: u64| o + Duration::from_nanos(ns);
        // Bottom-up, as the ladder runs: children are recorded first.
        t.record(encode, 0, 0, at(0), at(30));
        t.record(descent, 0, 0, at(40), at(65));
        t.record(op, 0, 0, at(100), at(170));
        t.record(top, 0, 0, at(200), at(300));
        t.record(top, 0, 1, at(300), at(350));
        t.record(session, 0, ALL_REQUESTS, at(1000), at(1400));
        // A second pass of one rung, slower.
        t.record(top, 1, 0, at(2000), at(2300));
        (t, [session, top, op, encode, descent])
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let (t, [session, top, op, encode, descent]) = tree();
        let own = t.self_ns();
        assert_eq!(own[0], 30, "encode is a leaf");
        assert_eq!(own[1], 25, "descent is a leaf");
        assert_eq!(own[2], 70 - 30 - 25, "operator minus its two children");
        assert_eq!(own[3], 100 - 70, "top minus the operator");
        assert_eq!(own[4], 50, "request 1 has no children");
        assert_eq!(own[5], 400 - 100 - 50, "session adopts every top span");
        assert_eq!(own[6], 300, "pass 1 has no session span to attach to");
        assert_eq!(t.pass_totals_ns(top), vec![150.0, 300.0]);
        assert_eq!(t.total_ns(top), 225.0);
        assert_eq!(t.self_total_ns(op), 15.0);
        assert_eq!(t.self_total_ns(session), 250.0);
        assert_eq!(t.total_ns(encode) + t.total_ns(descent), 55.0);
    }

    #[test]
    fn a_child_outlasting_its_parent_saturates() {
        let mut t = Tracer::new();
        let top = t.rung("top", None);
        let below = t.rung("below", Some(top));
        let o = t.origin;
        t.record(below, 0, 7, o, o + Duration::from_nanos(90));
        t.record(top, 0, 7, o, o + Duration::from_nanos(60));
        assert_eq!(t.self_ns(), vec![90, 0]);
    }

    #[test]
    fn span_file_links_parents_by_index() {
        let (t, _) = tree();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("target/trace-test-{}", std::process::id()));
        let path = dir.join("trace.json");
        t.write(&path, "unit").unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), t.span_count());
        assert_eq!(spans[0].get("name").unwrap().as_str(), Some("encode"));
        assert_eq!(spans[0].get("parent").unwrap().as_f64(), Some(2.0));
        assert_eq!(spans[3].get("parent").unwrap().as_f64(), Some(5.0));
        assert_eq!(spans[5].get("parent"), Some(&Json::Null));
        assert_eq!(spans[5].get("request").unwrap().as_str(), Some("all"));
    }
}
