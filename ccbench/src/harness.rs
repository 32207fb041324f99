//! What the five workloads share: the run configuration, the closed
//! measurement loop, answer digests and the correctness gate.
//!
//! Ground rules, here so every workload obeys them the same way: load is a
//! closed loop; every input is generated from the seed before any clock
//! starts; the first 5 % of a stream runs untimed as warm-up; the timed
//! phase cycles through the stream until `--seconds` have passed; only the
//! time *inside* the calls into the program is counted; throughput is
//! taken chunk by chunk and reported as the median chunk's, so a stretch
//! the host stole from the run does not set the number; and every answer
//! is digested (outside the timed interval) and compared with the digest
//! the repo's reference path produced for the same call.

use crate::stats::Checksum;
use ccindex::prelude::*;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One invocation's knobs. Engines are pinned to [`Config::EXEC`] and the
/// workloads' own explicit `ServeOptions`; nothing is read from the
/// environment (`main` refuses to start when a `CCINDEX_*` variable is
/// set, because `Database::new()` and friends would read it).
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// ~1/200 of the data and a fraction of a second per phase: the
    /// tier-1 smoke test's scale. Same code paths, meaningless numbers.
    pub smoke: bool,
}

impl Config {
    pub const EXEC: ExecOptions = ExecOptions {
        threads: 1,
        lanes: DEFAULT_BATCH_LANES,
        shards: 1,
    };

    /// Row and key counts shrink 200-fold under `--smoke`, never below
    /// `floor` (so trees keep more than one level and streams more than
    /// one block).
    pub fn rows(&self, full: usize, floor: usize) -> usize {
        if self.smoke {
            (full / 200).max(floor)
        } else {
            full
        }
    }

    /// How many times set-up is repeated for the median `setup_s`.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }

    /// Passes a ladder rung makes over the traced prefix; scales with
    /// `--seconds` so the traced run, like the timed one, measures for
    /// about as long as it was told to.
    pub fn passes(&self) -> usize {
        if self.smoke {
            1
        } else {
            ((self.seconds / 2.0) as usize).clamp(1, 9)
        }
    }

    /// A seed for one of the workload's independent input streams.
    pub fn stream_seed(&self, stream: u64) -> u64 {
        Rng::new(self.seed, stream).next()
    }
}

/// SplitMix64: the generator for everything `KeySetBuilder` and
/// `LookupStream` do not produce (column values, query parameters, the
/// class of each call).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)` (multiply-shift; bias is below 2^-32 for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }
}

/// What the end-to-end run of one workload measured.
#[derive(Debug, Default)]
pub struct EndToEnd {
    /// Ops attempted in the timed phase ("op" is defined per workload).
    pub ops: u64,
    pub failed: u64,
    /// Ops per second of each chunk of the timed phase (a chunk is a
    /// whole turn of the workload's mix, so chunks are comparable);
    /// `ops_per_s` is their median.
    pub rates: Vec<f64>,
    /// Caller-observed latency of the timed calls in ns, in time order;
    /// one stream per load thread.
    pub samples: Vec<Vec<u32>>,
    /// One entry per repetition of set-up.
    pub setups_s: Vec<f64>,
    /// The reference answers to one lap of the stream: equal across runs
    /// at one seed, different at another.
    pub lap_rows: u64,
    pub lap_checksum: u64,
}

impl EndToEnd {
    /// What a single-threaded workload reports: its loop's outcome, its
    /// set-up times, and the digest of one lap of reference answers.
    pub fn of_loop(out: LoopOutcome, setups_s: Vec<f64>, expected: &[Expected]) -> EndToEnd {
        let (lap_rows, lap_checksum) = lap_digest(expected);
        EndToEnd {
            ops: out.ops,
            failed: out.failed,
            rates: out.rates,
            samples: vec![out.samples],
            setups_s,
            lap_rows,
            lap_checksum,
        }
    }
}

/// Per-layer metrics a traced run measured, by `BENCHMARK.json` name.
pub type Layers = Vec<(String, f64)>;

/// Run `f`, returning its result and the nanoseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_nanos() as u64)
}

/// Time `reps` repetitions of `setup`, keeping the last product.
pub fn repeat_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        // The previous product is dropped before the next is built, so
        // peak memory is one set-up's, not the repetitions' sum.
        drop(last.take());
        let (product, ns) = timed(&mut setup);
        last = Some(product?);
        times.push(ns as f64 / 1e9);
    }
    Ok((last.expect("at least one repetition"), times))
}

/// One call's answer as the reference path gave it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub rows: u64,
    pub checksum: u64,
}

/// Fold a lap of expected answers into the seed's `(rows, checksum)`.
pub fn lap_digest(expected: &[Expected]) -> (u64, u64) {
    let mut sum = Checksum::default();
    let mut rows = 0;
    for e in expected {
        rows += e.rows;
        sum.word(e.checksum);
    }
    (rows, sum.value())
}

pub fn digest_positions(positions: &[usize]) -> Expected {
    let mut sum = Checksum::default();
    positions.iter().for_each(|&p| sum.word(p as u64));
    Expected {
        rows: positions.len() as u64,
        checksum: sum.value(),
    }
}

pub fn digest_rid_sets(sets: &[Vec<u32>]) -> Expected {
    let mut sum = Checksum::default();
    let mut rows = 0;
    for set in sets {
        rows += set.len() as u64;
        sum.word(set.len() as u64);
        set.iter().for_each(|&r| sum.word(u64::from(r)));
    }
    Expected {
        rows,
        checksum: sum.value(),
    }
}

pub fn digest_rows(rows: &ResultRows) -> Expected {
    let mut sum = Checksum::default();
    let count = match rows {
        ResultRows::Rids(rids) => {
            sum.word(1);
            rids.iter().for_each(|&r| sum.word(u64::from(r)));
            rids.len()
        }
        ResultRows::Joined(pairs) => {
            sum.word(2);
            for p in pairs {
                sum.word(u64::from(p.outer_rid) << 32 | u64::from(p.inner_rid));
            }
            pairs.len()
        }
        ResultRows::Groups(groups) => {
            sum.word(3);
            for g in groups {
                match &g.group {
                    Value::Int(i) => sum.word(*i as u64),
                    Value::Str(s) => sum.bytes(s.as_bytes()),
                }
                sum.word(g.value as u64);
            }
            groups.len()
        }
    };
    sum.word(count as u64);
    Expected {
        rows: count as u64,
        checksum: sum.value(),
    }
}

/// What one timed call reports back to [`closed_loop`]: how long the
/// program took, and the digest of its answer (`None`: it returned `Err`
/// or refused).
pub struct Timed {
    pub ns: u64,
    pub answer: Option<Expected>,
}

#[derive(Debug, Default)]
pub struct LoopOutcome {
    pub ops: u64,
    pub failed: u64,
    pub samples: Vec<u32>,
    pub rates: Vec<f64>,
}

/// The single-threaded closed loop: warm up on the first 5 % of the
/// stream, then cycle through all of it until `seconds` have passed.
/// `call(i)` makes call `i` of the stream, timing only the program;
/// `ops_of(i)` is how many ops that call carries. Every answer is checked
/// against `expected[i]`; a mismatch or an `Err` fails the call's ops.
/// Every `chunk` calls the chunk's ops over its time inside the program
/// becomes one entry of `rates`.
pub fn closed_loop(
    expected: &[Expected],
    seconds: f64,
    chunk: usize,
    ops_of: impl Fn(usize) -> u64,
    mut call: impl FnMut(usize) -> Timed,
) -> LoopOutcome {
    let calls = expected.len();
    assert!(calls > 0 && chunk > 0, "empty stream");
    for i in 0..warmup_len(calls) {
        black_box(call(i).answer);
    }
    let mut out = LoopOutcome {
        // Room for a call every 10 µs; a faster stream grows the buffer.
        samples: Vec::with_capacity((seconds * 100_000.0) as usize + 1024),
        ..LoopOutcome::default()
    };
    let (mut total_ns, mut chunk_ops, mut chunk_ns) = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut i = 0;
    loop {
        let t = call(i);
        out.ops += ops_of(i);
        if t.answer != Some(expected[i]) {
            out.failed += ops_of(i);
        }
        out.samples.push(sample_ns(t.ns));
        total_ns += t.ns;
        chunk_ops += ops_of(i);
        chunk_ns += t.ns;
        if out.samples.len() % chunk == 0 {
            out.rates.push(rate(chunk_ops, chunk_ns));
            (chunk_ops, chunk_ns) = (0, 0);
        }
        i = (i + 1) % calls;
        if Instant::now() >= deadline {
            break;
        }
    }
    if out.rates.is_empty() {
        // Shorter than one chunk (a smoke run): the whole run is the chunk.
        out.rates.push(rate(out.ops, total_ns));
    }
    out
}

/// Ops per second.
pub fn rate(ops: u64, ns: u64) -> f64 {
    ops as f64 * 1e9 / ns.max(1) as f64
}

/// 5 % of a stream, at least one call.
pub fn warmup_len(calls: usize) -> usize {
    (calls / 20).max(1)
}

/// Latency samples are `u32` nanoseconds (4.29 s of range) so millions of
/// them fit in a preallocated buffer; anything longer saturates.
pub fn sample_ns(ns: u64) -> u32 {
    u32::try_from(ns).unwrap_or(u32::MAX)
}

/// The correctness gate: the first [`GATE_OPS`] ops of a stream go through
/// the workload's own path and through the reference, and the answers
/// must be identical.
pub const GATE_OPS: usize = 2000;

pub fn gate<T: PartialEq + std::fmt::Debug>(what: &str, got: &T, want: &T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "correctness gate: {what} differs from the reference"
        ))
    }
}

/// Linux's `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Switch off glibc malloc's *dynamic* mmap threshold by setting the trim
/// threshold to the value it starts at.
///
/// Left on, the threshold rises to the size of whichever large block was
/// freed last, so whether a later buffer comes from the heap (and stays
/// resident after `free`) or from `mmap` (and goes back to the kernel)
/// depends on the exact sizes the seed happened to produce: `dss-tcp`'s
/// `VmHWM` read 153 to 214 MiB across ten seeds and 127.0 ± 0.2 with the
/// threshold fixed, at the same speed. `peak_rss_mb` should be a property
/// of the program, not of its allocation history.
pub fn pin_allocator() -> Result<(), String> {
    const M_TRIM_THRESHOLD: i32 = -1;
    const DEFAULT_TRIM_THRESHOLD: i32 = 128 * 1024;
    // SAFETY: `mallopt` takes two integers and touches only the
    // allocator's own tunables; it is called before any other thread
    // exists.
    match unsafe { mallopt(M_TRIM_THRESHOLD, DEFAULT_TRIM_THRESHOLD) } {
        1 => Ok(()),
        _ => Err("mallopt(M_TRIM_THRESHOLD) was refused".to_owned()),
    }
}

/// Restrict the calling thread — and every thread spawned after it, which
/// inherit the mask — to the lowest-numbered CPU it is allowed on, and
/// return that CPU.
///
/// For a workload whose threads hand one request back and forth and never
/// run at once, a second core adds only the cross-core wake-up. On a
/// 2-vCPU virtual host that wake-up is a hypervisor exit: the same
/// loopback round trip reads 7 µs or 40 µs depending on where the
/// scheduler last left the two threads, and it moves them mid-run. One CPU
/// makes the number the code's cost, every run.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: pid 0 is the calling thread; `allowed` is a live, writable
    // buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = allowed
        .iter()
        .enumerate()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + word.trailing_zeros() as usize)
        .ok_or("the affinity mask is empty")?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: as above; `one` is a live buffer of the size passed, and
    // the kernel only reads it.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// `MmdbError` (and anything else printable) into the harness's error.
pub fn fail<E: std::fmt::Display>(context: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{context}: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_seeded_and_streams_differ() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0), draw(1, 0));
        assert_ne!(draw(1, 0), draw(2, 0));
        assert_ne!(draw(1, 0), draw(1, 1));
        let mut r = Rng::new(9, 9);
        assert!((0..10_000).all(|_| r.below(7) < 7));
    }

    #[test]
    fn closed_loop_counts_ops_failures_and_chunk_rates() {
        let right = Expected {
            rows: 1,
            checksum: 10,
        };
        let expected = vec![right; 4];
        let mut made = 0u64;
        // Call 3 of the stream always answers wrong; every call claims to
        // take 5 ns and carries 3 ops.
        let out = closed_loop(
            &expected,
            0.01,
            2,
            |_| 3,
            |i| {
                made += 1;
                Timed {
                    ns: 5,
                    answer: Some(right).filter(|_| i != 3),
                }
            },
        );
        let timed_calls = out.samples.len() as u64;
        assert_eq!(made, timed_calls + 1, "one warm-up call on a 4-call stream");
        assert_eq!(out.ops, 3 * timed_calls);
        assert_eq!(
            out.failed,
            3 * (timed_calls / 4),
            "every fourth call fails its ops"
        );
        // A chunk is 2 calls: 6 ops in 10 ns.
        assert_eq!(out.rates.len() as u64, (timed_calls / 2).max(1));
        assert!(timed_calls < 2 || out.rates.iter().all(|&r| r == 6e8));
    }

    #[test]
    fn digests_tell_shapes_and_orders_apart() {
        let a = digest_rows(&ResultRows::Rids(vec![1, 2, 3]));
        let b = digest_rows(&ResultRows::Rids(vec![3, 2, 1]));
        assert_eq!(a.rows, 3);
        assert_ne!(a.checksum, b.checksum);
        assert_ne!(
            digest_rid_sets(&[vec![1], vec![]]).checksum,
            digest_rid_sets(&[vec![], vec![1]]).checksum
        );
        assert_eq!(digest_positions(&[4, 5]).rows, 2);
        let lap = [a, b];
        assert_eq!(lap_digest(&lap).0, 6);
        assert_ne!(lap_digest(&lap).1, lap_digest(&[b, a]).1);
    }
}
