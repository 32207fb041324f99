//! Memory-access tracing hooks.
//!
//! The paper's central claim is about *cache behaviour*: which of the
//! (identical number of) key comparisons cause a cache miss (§6.3). To
//! reproduce the 1998 machines' miss counts we let every index traversal
//! report the memory regions it touches through an [`AccessTracer`].
//!
//! The hot wall-clock path uses [`NoopTracer`]; the search routines are
//! generic over the tracer, so monomorphization erases the hook entirely.
//! One kernel computes every answer, traced or timed; tracers receive §4's
//! bisection events derived from it. The CSS-tree counts the keys below a
//! probe without branching and replays from that count the compares and
//! reads a bisection would have made — what the cache simulator and the
//! time model charge.

/// Whether an access reads or writes memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A data read (index probes are read-only in the OLAP setting, §2.3).
    Read,
    /// A data write (index construction).
    Write,
}

/// Receives every memory access performed by an instrumented traversal.
///
/// `addr` is the address of the first byte touched and `len` the number of
/// bytes. Implementations must tolerate `len == 0` (ignored) and accesses
/// that straddle cache-line boundaries (they count as touching every line
/// they overlap).
///
/// **A zero-sized tracer records nothing.** A search may skip deriving
/// events for a tracer whose type has size zero (it has no state to put
/// them in), so such an implementation never sees them; a tracer that
/// counts or forwards must carry a field.
pub trait AccessTracer {
    /// Record a read of `len` bytes starting at `addr`.
    fn read(&mut self, addr: usize, len: usize);
    /// Record a write of `len` bytes starting at `addr`.
    fn write(&mut self, addr: usize, len: usize);
    /// Record one unit of key-comparison work (used by the simulated time
    /// model; free for wall-clock runs).
    fn compare(&mut self);
    /// Record one node-to-node move / child-address computation (the
    /// "moving across levels" cost of Fig. 6).
    fn descend(&mut self);
}

/// The do-nothing tracer used by the wall-clock (`search`) entry points.
/// Zero-sized, so searches skip deriving events for it altogether.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopTracer;

impl AccessTracer for NoopTracer {
    #[inline(always)]
    fn read(&mut self, _addr: usize, _len: usize) {}
    #[inline(always)]
    fn write(&mut self, _addr: usize, _len: usize) {}
    #[inline(always)]
    fn compare(&mut self) {}
    #[inline(always)]
    fn descend(&mut self) {}
}

/// Counts events without recording addresses; used in unit tests and by the
/// analytic-model validation tests.
#[derive(Debug, Default, Clone)]
pub struct CountingTracer {
    /// Number of read accesses (not bytes).
    pub reads: u64,
    /// Total bytes read.
    pub bytes_read: u64,
    /// Number of write accesses.
    pub writes: u64,
    /// Total bytes written.
    pub bytes_written: u64,
    /// Key comparisons reported.
    pub compares: u64,
    /// Node descents reported.
    pub descends: u64,
}

impl CountingTracer {
    /// Fresh tracer with all counters zero.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AccessTracer for CountingTracer {
    #[inline]
    fn read(&mut self, _addr: usize, len: usize) {
        if len == 0 {
            return;
        }
        self.reads += 1;
        self.bytes_read += len as u64;
    }
    #[inline]
    fn write(&mut self, _addr: usize, len: usize) {
        if len == 0 {
            return;
        }
        self.writes += 1;
        self.bytes_written += len as u64;
    }
    #[inline]
    fn compare(&mut self) {
        self.compares += 1;
    }
    #[inline]
    fn descend(&mut self) {
        self.descends += 1;
    }
}

/// Records the full access sequence; used by the cache simulator's replay
/// tests and by debugging tools.
#[derive(Debug, Default, Clone)]
pub struct RecordingTracer {
    /// `(kind, addr, len)` triples in program order.
    pub accesses: Vec<(AccessKind, usize, usize)>,
    /// Key comparisons reported.
    pub compares: u64,
    /// Node descents reported.
    pub descends: u64,
}

impl RecordingTracer {
    /// Fresh empty recording.
    pub fn new() -> Self {
        Self::default()
    }
}

impl AccessTracer for RecordingTracer {
    #[inline]
    fn read(&mut self, addr: usize, len: usize) {
        if len == 0 {
            return;
        }
        self.accesses.push((AccessKind::Read, addr, len));
    }
    #[inline]
    fn write(&mut self, addr: usize, len: usize) {
        if len == 0 {
            return;
        }
        self.accesses.push((AccessKind::Write, addr, len));
    }
    #[inline]
    fn compare(&mut self) {
        self.compares += 1;
    }
    #[inline]
    fn descend(&mut self) {
        self.descends += 1;
    }
}

impl<T: AccessTracer + ?Sized> AccessTracer for &mut T {
    #[inline]
    fn read(&mut self, addr: usize, len: usize) {
        (**self).read(addr, len)
    }
    #[inline]
    fn write(&mut self, addr: usize, len: usize) {
        (**self).write(addr, len)
    }
    #[inline]
    fn compare(&mut self) {
        (**self).compare()
    }
    #[inline]
    fn descend(&mut self) {
        (**self).descend()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_tracer_accumulates() {
        let mut t = CountingTracer::new();
        t.read(0x1000, 64);
        t.read(0x2000, 4);
        t.write(0x3000, 8);
        t.compare();
        t.compare();
        t.descend();
        assert_eq!(t.reads, 2);
        assert_eq!(t.bytes_read, 68);
        assert_eq!(t.writes, 1);
        assert_eq!(t.bytes_written, 8);
        assert_eq!(t.compares, 2);
        assert_eq!(t.descends, 1);
    }

    #[test]
    fn zero_length_accesses_ignored() {
        let mut t = CountingTracer::new();
        t.read(0x1000, 0);
        t.write(0x1000, 0);
        assert_eq!(t.reads, 0);
        assert_eq!(t.writes, 0);
        let mut r = RecordingTracer::new();
        r.read(0x1000, 0);
        assert!(r.accesses.is_empty());
    }

    #[test]
    fn recording_tracer_preserves_order() {
        let mut t = RecordingTracer::new();
        t.read(0x10, 4);
        t.write(0x20, 8);
        t.read(0x30, 2);
        assert_eq!(
            t.accesses,
            vec![
                (AccessKind::Read, 0x10, 4),
                (AccessKind::Write, 0x20, 8),
                (AccessKind::Read, 0x30, 2),
            ]
        );
    }

    #[test]
    fn mut_ref_forwarding() {
        let mut t = CountingTracer::new();
        {
            let fwd: &mut CountingTracer = &mut t;
            fwd.read(0x0, 4);
            fwd.compare();
        }
        assert_eq!(t.reads, 1);
        assert_eq!(t.compares, 1);
    }
}
