//! Span tracing: named timers that nest into a parent/child tree.
//!
//! A [`Span`] is live — it holds a start [`Instant`] and accumulates
//! children; [`Span::finish`] freezes it into a [`SpanNode`], the
//! plain-data tree that crosses the wire (the codec lives in
//! `ccindex-wire`) and renders as an indented latency report:
//!
//! ```text
//! query 1.23ms
//!   shard0:9001 1.10ms
//!     decode 10.4µs
//!     execute 1.02ms
//! ```
//!
//! Span ids are process-global `u64`s: a client stamps its root span's
//! id into the request frame, the server echoes a server-side subtree
//! for that id, and the client grafts it under its own node — one
//! cross-process tree without any clock synchronisation (each side
//! reports only durations it measured itself).

use ccindex_parallel::sync::atomic::{AtomicU64, Ordering};
use ccindex_parallel::sync::Instant;

static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// A fresh process-unique span id (never 0 — 0 on the wire means "no
/// trace requested").
pub fn next_span_id() -> u64 {
    // ORDERING: Relaxed — ids only need uniqueness, not ordering.
    NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed)
}

/// One finished, named timing with nested children — the plain-data
/// form a [`Span`] freezes into.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// What was timed.
    pub name: String,
    /// Wall-clock duration, in nanoseconds.
    pub elapsed_ns: u64,
    /// Nested timings, in completion order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// A leaf node.
    pub fn leaf(name: impl Into<String>, elapsed_ns: u64) -> Self {
        Self {
            name: name.into(),
            elapsed_ns,
            children: Vec::new(),
        }
    }

    /// Depth-first search for the first node named `name` (self
    /// included).
    pub fn find(&self, name: &str) -> Option<&SpanNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Render the tree as an indented latency report, one node per
    /// line, durations humanised.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(0, &mut out);
        out
    }

    fn render_into(&self, depth: usize, out: &mut String) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&self.name);
        out.push(' ');
        out.push_str(&format_ns(self.elapsed_ns));
        out.push('\n');
        for child in &self.children {
            child.render_into(depth + 1, out);
        }
    }
}

/// A live named timer. Create a root with [`Span::root`], time nested
/// work with [`Span::time`] or [`Span::adopt`], then [`Span::finish`]
/// into a [`SpanNode`].
#[derive(Debug)]
pub struct Span {
    name: String,
    id: u64,
    start: Instant,
    children: Vec<SpanNode>,
}

impl Span {
    /// Start a root span with a fresh process-unique id.
    pub fn root(name: impl Into<String>) -> Self {
        Self::with_id(name, next_span_id())
    }

    /// Start a span under an existing trace id (the server side of a
    /// propagated trace).
    pub fn with_id(name: impl Into<String>, id: u64) -> Self {
        Self {
            name: name.into(),
            id,
            start: Instant::now(),
            children: Vec::new(),
        }
    }

    /// The trace id this span belongs to.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The span's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Start a child span sharing this span's trace id. Finish it and
    /// [`Span::adopt`] the node to attach it.
    pub fn child(&self, name: impl Into<String>) -> Span {
        Span::with_id(name, self.id)
    }

    /// Time `f` as a leaf child.
    pub fn time<T>(&mut self, name: impl Into<String>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.children.push(SpanNode::leaf(name, elapsed_ns(&start)));
        out
    }

    /// Attach a finished subtree (a child span's node, or a remote
    /// server's breakdown grafted under this client-side span).
    pub fn adopt(&mut self, node: SpanNode) {
        self.children.push(node);
    }

    /// Freeze into a [`SpanNode`], stamping the elapsed time.
    pub fn finish(self) -> SpanNode {
        SpanNode {
            name: self.name,
            elapsed_ns: elapsed_ns(&self.start),
            children: self.children,
        }
    }
}

/// Nanoseconds since `since`, saturating at `u64::MAX`: the one
/// elapsed-time reading every timed layer records.
#[inline]
pub fn elapsed_ns(since: &Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Humanise a nanosecond duration (`850ns`, `10.4µs`, `1.23ms`,
/// `2.500s`).
pub fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.3}s", ns as f64 / 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_nonzero() {
        let a = next_span_id();
        let b = next_span_id();
        assert_ne!(a, 0);
        assert_ne!(a, b);
        let root = Span::root("q");
        assert_eq!(root.child("c").id(), root.id());
    }

    #[test]
    fn finish_builds_a_tree() {
        let mut span = Span::root("query");
        let answer = span.time("probe", || 42);
        assert_eq!(answer, 42);
        let mut remote = span.child("shard0");
        remote.time("execute", || ());
        span.adopt(remote.finish());
        let node = span.finish();
        assert_eq!(node.name, "query");
        assert_eq!(node.children.len(), 2);
        assert!(node.find("execute").is_some());
        assert!(node.find("missing").is_none());
        // Children completed within the root's lifetime.
        assert!(node
            .children
            .iter()
            .all(|c| c.elapsed_ns <= node.elapsed_ns));
    }

    #[test]
    fn render_indents_children() {
        let node = SpanNode {
            name: "root".into(),
            elapsed_ns: 2_000_000,
            children: vec![SpanNode::leaf("leaf", 1_500)],
        };
        assert_eq!(node.render(), "root 2.00ms\n  leaf 1.5µs\n");
    }

    #[test]
    fn durations_humanise() {
        assert_eq!(format_ns(850), "850ns");
        assert_eq!(format_ns(10_400), "10.4µs");
        assert_eq!(format_ns(1_230_000), "1.23ms");
        assert_eq!(format_ns(2_500_000_000), "2.500s");
    }
}
