//! Sorted domain dictionaries (§2.1), searched by the paper's own index
//! (§2.2).
//!
//! "When data is first loaded into main memory, distinct data values are
//! stored in an external structure — domain — and only pointers to domain
//! values are stored in place in each column. ... We go further than
//! \[AHK85\] by keeping the domain values in order and associate each value
//! with a domain ID (represented by an integer). As a result, we can
//! process both equality and inequality tests on domain IDs directly."
//!
//! Because the domain is sorted, **domain-ID order equals value order**:
//! `encode(a) < encode(b) ⇔ a < b`, which is what lets range predicates run
//! on the 4-byte IDs and lets every index in this workspace index IDs
//! instead of (possibly variable-length) values.
//!
//! # Four representations, one canonical choice
//!
//! * **Dense** — every integer of `[min, max]`, and nothing else
//!   (`distinct == max − min + 1`): just `(min, len)`, no array, no
//!   lines, no directory. A value's ID is its offset from `min`, so
//!   encoding is one range check and a subtraction, a bound is a clamp,
//!   decoding is `min + id`, and translating IDs between two dense
//!   domains is one add (the identity when they share `min`) — the array
//!   offset a dense OLAP dimension member is.
//! * **Typed** — every value is an [`Value::Int`] (the empty domain
//!   included): a flat, cache-line-aligned sorted `i64` array, 8 bytes per
//!   value, under a [`FullCssTree<i64, 8>`](css_tree::FullCssTree)
//!   directory (eight 8-byte keys = one 64-byte line per node). The
//!   directory is built where the domain is built and never stored: it is
//!   a deterministic function of the array, rebuilt in a millisecond or
//!   two when a saved catalog is opened.
//! * **Ranked** — a typed domain with gaps, but dense enough that one
//!   presence bit per integer of `[min, max]` costs no more than the
//!   directory would: the sorted `i64` values, under 64-byte lines that
//!   each hold the count of domain values below the line (and three
//!   counts within it) and 448 presence bits. A value's ID is its rank —
//!   the counts plus the popcount of at most two words — so a search
//!   reads one line instead of descending. The rule is
//!   `⌈span / 448⌉ · 64 ≤` the directory's bytes (`span = max − min + 1`):
//!   the lines are never larger than the directory they replace. The
//!   directory costs about a byte a value and a line a seventh of a byte
//!   an integer, so that holds at a density of about 1/7 and above.
//! * **Generic** — anything holding a [`Value::Str`] (strings, mixed): a
//!   sorted `[Value]`, searched by bisection over enum compares.
//!
//! The choice is made from the values, never by the caller, and an
//! all-`Int` domain is *never* held generically — so two domains are
//! equal exactly when they hold the same values, however each was built
//! (from rows, from a sort's key run, from a stored page). An integer
//! domain is built one of two ways, under one arm rule and one header
//! fill: from strictly increasing values (a sort's key run, a stored page,
//! whose arm is chosen again when it is opened), or straight from a
//! column's rows, whose presence bits give the distinct count, the sorted
//! values and every row's rank without a sort — and, when every bit is
//! set, show the domain dense, each row's ID its offset. The rows are
//! tried only when their count could rank over their span; the directory
//! never shrinks as values are added, so fewer distinct values could not.
//!
//! # The §2.2 searches
//!
//! "Transforming domain values to domain IDs ... requires searching on
//! the domain" — that search is [`Domain::encode`] for one constant and
//! [`Domain::encode_batch`] for the batches the operators hand over, and
//! on a typed domain both are `search`/`search_batch_lanes` calls on the
//! CSS-tree, so the engine's dictionary lookups descend the structure the
//! paper proposes instead of the binary search it beats; on a ranked
//! domain each is one line's rank, and on a dense one a subtraction. It
//! is the only search a probe makes:
//! an ID addresses its rows in the column's
//! [`RidList`](crate::rid::RidList) directly. "We can process both
//! equality and inequality tests on domain IDs directly" —
//! [`Domain::id_range`] turns value bounds into ID bounds with the
//! tree's `lower_bound`, and a batch of ranges
//! resolves all of its endpoints in one batched descent (or one rank or
//! clamp each). Enum order (`Int` before `Str`) is kept on every
//! representation: a `Str` probe sorts after every value of a typed
//! domain, so it encodes to `None` and lower-bounds to `len`.

use ccindex_common::{prefetch, SearchIndex, SortedArray, DEFAULT_BATCH_LANES};
use css_tree::{CssLayout, FullCssTree};
use std::borrow::Borrow;
use std::sync::Arc;

/// A database value. Variable-length strings demonstrate benefit (b) of
/// domain encoding ("simplified handling of variable-length fields").
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// 64-bit integer.
    Int(i64),
    /// UTF-8 string.
    Str(String),
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// The directory over a typed domain: 8 eight-byte keys per node, one
/// 64-byte cache line (§5.1's node-size optimum at this key width).
type IntDirectory = FullCssTree<i64, 8>;

/// Integers one rank line covers: the bits of a 64-byte line after its
/// header.
pub(crate) const LINE_INTS: u64 = 448;

/// Where a rank line's header keeps the count of the set bits in the
/// line's first `2k` words, for `k` in `0..4`: `(shift, mask)`.
const PAIR_COUNTS: [(u32, u64); 4] = [(0, 0), (32, 0xff), (40, 0x1ff), (49, 0x1ff)];

/// One 64-byte line of a ranked domain: a header, then one presence bit
/// per integer it covers. The header's low 32 bits count the domain
/// values below the line (IDs are 32 bits); above them, [`PAIR_COUNTS`]
/// holds the counts in its first 2, 4 and 6 words. So a rank popcounts
/// at most two words, not seven: without `popcnt`, which the baseline
/// x86_64 target lacks, each word costs a dozen instructions.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(64))]
struct RankLine {
    header: u64,
    bits: [u64; 7],
}

/// A typed domain whose IDs are ranks: the sorted values (what `decode`
/// and the storage writer read), and the lines covering
/// `[min, min + span)`.
#[derive(Debug)]
struct Ranked {
    ints: Box<[i64]>,
    min: i64,
    span: u64,
    lines: Vec<RankLine>,
}

/// The arm rule: `distinct` values whose span is `span_less_one + 1`
/// rank when their lines take no more bytes than the directory they
/// replace would. `max - min` fits a `u64` whatever the two are; the
/// line count and its bytes then stay far below `u64::MAX`.
fn ranks(span_less_one: u64, distinct: usize) -> bool {
    (span_less_one / LINE_INTS + 1) * 64 <= CssLayout::full(distinct, 8).space_bytes(8) as u64
}

/// `v - min` if `v` lies in `[min, min + span)`. Below `min` the wrapped
/// difference is `2^64 - (min - v) > max - min`, so one unsigned compare
/// rejects both sides.
#[inline]
fn offset(min: i64, span: u64, v: i64) -> Option<u64> {
    let off = (v as u64).wrapping_sub(min as u64);
    (off < span).then_some(off)
}

/// The ID of `v` in the dense domain `[min, min + len)`: its offset.
#[inline]
pub(crate) fn dense_id(min: i64, len: usize, v: i64) -> Option<u32> {
    offset(min, len as u64, v).map(|off| off as u32)
}

impl Ranked {
    /// Blank lines over `[min, max]`, if `distinct` values there would
    /// rank.
    fn blank(min: i64, max: i64, distinct: usize) -> Option<Self> {
        let span_less_one = (max as u64).wrapping_sub(min as u64);
        ranks(span_less_one, distinct).then(|| Self {
            ints: Box::default(),
            min,
            span: span_less_one + 1,
            lines: vec![RankLine::default(); (span_less_one / LINE_INTS + 1) as usize],
        })
    }

    /// Mark `v` present, if it lies in the span.
    #[inline]
    fn insert(&mut self, v: i64) -> Option<()> {
        let off = offset(self.min, self.span, v)?;
        let bit = off % LINE_INTS;
        self.lines[(off / LINE_INTS) as usize].bits[(bit / 64) as usize] |= 1 << (bit % 64);
        Some(())
    }

    /// Fill each line's header from the presence bits; the number of
    /// values present.
    fn count(&mut self) -> usize {
        let mut below = 0;
        for line in &mut self.lines {
            let (mut header, mut count) = (below, 0);
            for (&(shift, _), pair) in PAIR_COUNTS.iter().zip(line.bits.chunks(2)) {
                header |= count << shift;
                count += pair.iter().map(|w| u64::from(w.count_ones())).sum::<u64>();
            }
            line.header = header;
            below += count;
        }
        below as usize
    }

    /// The ranked form of the strictly increasing `ints`, if its lines
    /// fit in the bytes of the directory they replace.
    fn fitting(ints: Vec<i64>) -> Result<Self, Vec<i64>> {
        let bounds = ints.first().zip(ints.last());
        let Some(mut ranked) = bounds.and_then(|(&min, &max)| Self::blank(min, max, ints.len()))
        else {
            return Err(ints);
        };
        for &v in &ints {
            ranked.insert(v);
        }
        ranked.count();
        ranked.ints = ints.into_boxed_slice();
        Ok(ranked)
    }

    /// The dense or ranked domain of `rows`, every one in `[min, max]`,
    /// and each row's ID — its offset, or its rank — if the domain is
    /// dense or ranks; no sort. The lines are only allocated if
    /// `rows.len()` distinct values would rank: the directory never
    /// shrinks as values are added, so fewer could not. Every row is
    /// then inserted in the span, so each has an ID, collected straight
    /// into the final array.
    fn from_rows(rows: &[i64], min: i64, max: i64) -> Option<(Repr, Arc<[u32]>)> {
        let mut ranked = Self::blank(min, max, rows.len())?;
        for &v in rows {
            ranked.insert(v)?;
        }
        let distinct = ranked.count();
        let offsets = rows.iter().map(|&v| (v as u64).wrapping_sub(min as u64));
        if distinct as u64 == ranked.span {
            // Every bit is set: each row's ID is its offset, no rank.
            let ids = offsets.map(|off| off as u32).collect();
            return Some((Repr::Dense { min, len: distinct }, ids));
        }
        if !ranks(ranked.span - 1, distinct) {
            return None;
        }
        let mut ints = Vec::with_capacity(distinct);
        for (at, line) in (0..).step_by(LINE_INTS as usize).zip(&ranked.lines) {
            for (word, mut bits) in line.bits.into_iter().enumerate() {
                while bits != 0 {
                    let off: u64 = at + word as u64 * 64 + u64::from(bits.trailing_zeros());
                    ints.push((min as u64).wrapping_add(off) as i64);
                    bits &= bits - 1;
                }
            }
        }
        ranked.ints = ints.into_boxed_slice();
        let ids = offsets.map(|off| ranked.rank(off).0).collect();
        Some((Repr::Ranked(Arc::new(ranked)), ids))
    }

    /// The number of domain values below `min + off`, and whether
    /// `min + off` is one: the line's count, plus its count up to the
    /// pair of words holding the bit, plus the popcounts of the bits
    /// before it in that pair.
    #[inline]
    fn rank(&self, off: u64) -> (u32, bool) {
        let line = &self.lines[(off / LINE_INTS) as usize];
        let bit = off % LINE_INTS;
        let (word, at) = ((bit / 64) as usize, bit % 64);
        let (shift, mask) = PAIR_COUNTS[word / 2];
        // All ones when the bit's word is the second of its pair.
        let second = ((word & 1) as u64).wrapping_neg();
        let last = line.bits[word];
        let below = line.header as u32
            + (line.header >> shift & mask) as u32
            + (line.bits[word & !1] & second).count_ones()
            + (last & ((1 << at) - 1)).count_ones();
        (below, last >> at & 1 == 1)
    }

    #[inline]
    fn encode(&self, v: i64) -> Option<u32> {
        let (id, present) = self.rank(offset(self.min, self.span, v)?);
        present.then_some(id)
    }

    #[inline]
    fn lower_bound(&self, v: i64) -> u32 {
        match offset(self.min, self.span, v) {
            Some(off) => self.rank(off).0,
            None if v < self.min => 0,
            None => self.ints.len() as u32,
        }
    }

    /// Ask for the line `v` would be ranked on (a hint: out-of-range
    /// probes point anywhere).
    #[inline]
    fn prefetch(&self, v: i64) {
        let line = (v as u64).wrapping_sub(self.min as u64) / LINE_INTS;
        prefetch(self.lines.as_ptr().wrapping_add(line as usize));
    }

    /// `f` of each probe's integer (`None` for a probe without one), the
    /// line of the probe `lanes` ahead prefetched — the operators'
    /// lookahead, on the one line a rank reads.
    fn each<P, T>(
        &self,
        probes: &[P],
        lanes: usize,
        int: impl Fn(&P) -> Option<i64>,
        f: impl Fn(Option<i64>) -> T,
    ) -> Vec<T> {
        (0..probes.len())
            .map(|i| {
                if let Some(ahead) = probes.get(i + lanes).and_then(&int) {
                    self.prefetch(ahead);
                }
                f(int(&probes[i]))
            })
            .collect()
    }
}

/// A sorted dictionary of the distinct values of one column.
///
/// Domain IDs are dense `0..len` integers in value order. Cloning shares
/// the dictionary (and its directory or rank lines); see the [module
/// docs](self) for the four representations.
#[derive(Debug, Clone)]
pub struct Domain {
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    /// Every integer of `[min, min + len)`, `len >= 1`: nothing stored.
    Dense { min: i64, len: usize },
    /// All `Int` (or empty): the tree owns the flat sorted array.
    Int(Arc<IntDirectory>),
    /// All `Int`, not dense but dense enough that its rank lines fit in
    /// the directory's bytes.
    Ranked(Arc<Ranked>),
    /// Sorted, deduplicated, with at least one `Str`.
    Generic(Arc<[Value]>),
}

/// A domain's values as its representation holds them, for the callers
/// inside the crate that read them by ID (the measure scan, the storage
/// writer, the join translation).
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum DomainView<'a> {
    /// A typed domain's values.
    Int(Ints<'a>),
    /// A generic domain's sorted values.
    Generic(&'a [Value]),
}

/// A typed domain's values, stored or computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Ints<'a> {
    /// A CSS or ranked domain's flat sorted array.
    Sorted(&'a [i64]),
    /// A dense domain: every integer of `[min, min + len)`.
    Dense { min: i64, len: usize },
}

impl Ints<'_> {
    /// The value of ID `id`; an ID past the end panics on either arm.
    #[inline]
    pub(crate) fn get(self, id: u32) -> i64 {
        match self {
            Ints::Sorted(ints) => ints[id as usize],
            Ints::Dense { min, len } => {
                assert!((id as usize) < len, "domain ID {id} of {len}");
                min + i64::from(id)
            }
        }
    }
}

/// Canonical representations: the arm is a function of the values, so
/// two domains are equal when their views are — the same arm over the
/// same values (a dense domain's are its `(min, len)`).
impl PartialEq for Domain {
    fn eq(&self, other: &Self) -> bool {
        self.view() == other.view()
    }
}

impl Eq for Domain {}

/// One batched descent of a typed domain's directory — `lanes`
/// interleaved probes — as domain IDs.
fn search_ints(
    tree: &IntDirectory,
    probes: &[i64],
    lanes: usize,
) -> impl Iterator<Item = Option<u32>> {
    tree.search_batch_lanes(probes, lanes)
        .into_iter()
        .map(|hit| hit.map(|pos| pos as u32))
}

/// A typed domain under its CSS directory.
fn directory(ints: Vec<i64>) -> Repr {
    Repr::Int(Arc::new(IntDirectory::from_shared(SortedArray::from_vec(
        ints,
    ))))
}

/// The `i64` of an `Int`.
fn int(value: &Value) -> Option<i64> {
    match value {
        Value::Int(i) => Some(*i),
        Value::Str(_) => None,
    }
}

/// The `i64`s of `values` if every one is an `Int`.
fn all_ints(values: &[Value]) -> Option<Vec<i64>> {
    values.iter().map(int).collect()
}

impl Domain {
    /// Build from any collection of values (deduplicated and sorted).
    pub fn from_values(mut values: Vec<Value>) -> Self {
        match all_ints(&values) {
            Some(mut ints) => {
                ints.sort_unstable();
                ints.dedup();
                Self::from_sorted_ints(ints)
            }
            None => {
                values.sort_unstable();
                values.dedup();
                Self::from_sorted_values(values)
            }
        }
    }

    /// A typed domain over `ints`, which the caller has proven strictly
    /// increasing (a sort's deduplicated key run, a validated page).
    /// Dense when they are every integer of their range; else ranked when
    /// its lines fit in the directory's bytes, else under a CSS directory.
    pub(crate) fn from_sorted_ints(ints: Vec<i64>) -> Self {
        debug_assert!(ints.windows(2).all(|w| w[0] < w[1]));
        // Strictly increasing, so `max - min + 1 >= len`, equal iff dense.
        let dense = (ints.first().zip(ints.last()))
            .is_some_and(|(&min, &max)| max.abs_diff(min) == ints.len() as u64 - 1);
        let repr = match ints.first() {
            Some(&min) if dense => Repr::Dense {
                min,
                len: ints.len(),
            },
            _ => Ranked::fitting(ints).map_or_else(directory, |r| Repr::Ranked(Arc::new(r))),
        };
        Self { repr }
    }

    /// The dense or ranked domain of `rows` — every one in `[min, max]`
    /// — and each row's ID: what [`Domain::from_sorted_ints`] would
    /// choose over their sorted distinct values, built without sorting.
    /// `None` if the domain is neither.
    pub(crate) fn ranked_rows(rows: &[i64], min: i64, max: i64) -> Option<(Self, Arc<[u32]>)> {
        let (repr, ids) = Ranked::from_rows(rows, min, max)?;
        Some((Self { repr }, ids))
    }

    /// A generic domain over `values`, which the caller has proven
    /// strictly increasing and to hold at least one `Str` (all-`Int`
    /// input belongs in [`Domain::from_sorted_ints`]).
    pub(crate) fn from_sorted_values(values: Vec<Value>) -> Self {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(matches!(values.last(), Some(Value::Str(_))));
        Self {
            repr: Repr::Generic(values.into()),
        }
    }

    /// The values, as this domain's representation holds them.
    pub(crate) fn view(&self) -> DomainView<'_> {
        match &self.repr {
            &Repr::Dense { min, len } => DomainView::Int(Ints::Dense { min, len }),
            Repr::Int(tree) => DomainView::Int(Ints::Sorted(tree.array().as_slice())),
            Repr::Ranked(ranked) => DomainView::Int(Ints::Sorted(&ranked.ints)),
            Repr::Generic(values) => DomainView::Generic(values),
        }
    }

    /// Whether every value is an `Int` (true of the empty domain) — a
    /// property of the representation, so O(1).
    pub fn is_int(&self) -> bool {
        !matches!(self.repr, Repr::Generic(_))
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        match self.view() {
            DomainView::Int(Ints::Dense { len, .. }) => len,
            DomainView::Int(Ints::Sorted(ints)) => ints.len(),
            DomainView::Generic(values) => values.len(),
        }
    }

    /// Whether the domain is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Domain ID of `value`, if present — §2.2's "searching on the
    /// domain": an offset on a dense domain, a CSS-tree descent on a
    /// typed one, one line's rank on a ranked one, a binary search on a
    /// generic one.
    pub fn encode(&self, value: &Value) -> Option<u32> {
        match (&self.repr, value) {
            (&Repr::Dense { min, len }, &Value::Int(v)) => dense_id(min, len, v),
            (Repr::Int(tree), Value::Int(v)) => tree.search(*v).map(|pos| pos as u32),
            (Repr::Ranked(ranked), Value::Int(v)) => ranked.encode(*v),
            (Repr::Generic(values), _) => values.binary_search(value).ok().map(|i| i as u32),
            (_, Value::Str(_)) => None,
        }
    }

    /// Domain IDs for a whole batch of values; `out[i]` is
    /// `encode(values[i])`.
    ///
    /// "Transforming domain values to domain IDs requires searching on
    /// the domain" (§2.2), and the query operators transform constants by
    /// the batch. A typed domain answers with one `search_batch_lanes`
    /// over its directory; a ranked domain ranks each probe, `lanes`
    /// lines prefetched ahead; a dense one subtracts; a generic domain
    /// runs as many interleaved bisections. Probes may be owned or
    /// borrowed (`&[Value]` or `&[&Value]`), so a caller whose probes
    /// already live in another dictionary clones nothing.
    pub fn encode_batch<V: Borrow<Value>>(&self, values: &[V]) -> Vec<Option<u32>> {
        self.encode_batch_lanes(values, DEFAULT_BATCH_LANES)
    }

    /// [`Domain::encode_batch`] at an explicit interleave lane count —
    /// what the operators call with their `ExecOptions::lanes`.
    pub(crate) fn encode_batch_lanes<V: Borrow<Value>>(
        &self,
        values: &[V],
        lanes: usize,
    ) -> Vec<Option<u32>> {
        match &self.repr {
            Repr::Dense { .. } => values.iter().map(|v| self.encode(v.borrow())).collect(),
            Repr::Int(tree) => {
                // `Str` probes sort after every `Int`: absent, unprobed.
                let ints: Vec<i64> = values
                    .iter()
                    .filter_map(|v| match v.borrow() {
                        Value::Int(i) => Some(*i),
                        Value::Str(_) => None,
                    })
                    .collect();
                let mut hits = search_ints(tree, &ints, lanes);
                values
                    .iter()
                    .map(|v| match v.borrow() {
                        Value::Int(_) => hits.next().flatten(),
                        Value::Str(_) => None,
                    })
                    .collect()
            }
            Repr::Ranked(ranked) => ranked.each(
                values,
                lanes,
                |v| int(v.borrow()),
                |v| v.and_then(|v| ranked.encode(v)),
            ),
            Repr::Generic(dictionary) => bisect_batch(dictionary, values),
        }
    }

    /// `(min, len)` if this domain is dense.
    pub(crate) fn dense(&self) -> Option<(i64, usize)> {
        match self.repr {
            Repr::Dense { min, len } => Some((min, len)),
            _ => None,
        }
    }

    /// The IDs in `other` of this domain's values at `ids` (`None` where
    /// `other` lacks the value) — the join's outer→inner translation.
    /// Between typed domains the probes are a gather of `i64`s, which
    /// take the CSS-tree's interleaved batch descent (`search_ints`) like
    /// every other probe batch; into a ranked domain they are ranked,
    /// `lanes` lines prefetched ahead; into a dense one each is a
    /// subtraction — from a dense one, `id + (a.min − b.min)` with a
    /// bounds check; a generic source lends its values by reference.
    pub(crate) fn translate(&self, ids: &[u32], other: &Domain, lanes: usize) -> Vec<Option<u32>> {
        match (self.view(), &other.repr) {
            (DomainView::Int(ints), &Repr::Dense { min, len }) => ids
                .iter()
                .map(|&id| dense_id(min, len, ints.get(id)))
                .collect(),
            (DomainView::Int(ints), Repr::Int(tree)) => {
                let probes: Vec<i64> = ids.iter().map(|&id| ints.get(id)).collect();
                search_ints(tree, &probes, lanes).collect()
            }
            (DomainView::Int(ints), Repr::Ranked(ranked)) => ranked.each(
                ids,
                lanes,
                |&id| Some(ints.get(id)),
                |v| v.and_then(|v| ranked.encode(v)),
            ),
            (DomainView::Int(_), Repr::Generic(_)) => other.encode_batch(&self.decode_batch(ids)),
            (DomainView::Generic(values), _) => {
                let probes: Vec<&Value> = ids.iter().map(|&id| &values[id as usize]).collect();
                other.encode_batch_lanes(&probes, lanes)
            }
        }
    }

    /// Inclusive ID range corresponding to the inclusive value range
    /// `[lo, hi]`; `None` when no domain value falls inside. An inverted
    /// range (`lo > hi`) contains no value, so it is `None` too — not a
    /// panic: range predicates arrive from untrusted query (and, through
    /// the serving layer, client) input, and the physical layer stays
    /// panic-free by construction. The one-range case of the batch the
    /// range operators resolve (`id_ranges`).
    pub fn id_range(&self, lo: &Value, hi: &Value) -> Option<(u32, u32)> {
        self.id_ranges(&[(lo, hi)], DEFAULT_BATCH_LANES)[0]
    }

    /// [`Domain::id_range`] for a whole batch of ranges, from one batched
    /// lower bound over every range's two endpoints: the first ID
    /// `>= lo` and the first ID `> hi`, which on a typed, ranked or dense
    /// domain is the lower bound of `hi + 1` (on a dense one, the
    /// endpoint's offset clamped to `0..=len`). A `Str` endpoint sorts
    /// after every `Int`, and `i64::MAX` has no successor, so such an
    /// endpoint resolves to `len` unprobed.
    pub(crate) fn id_ranges(
        &self,
        ranges: &[(&Value, &Value)],
        lanes: usize,
    ) -> Vec<Option<(u32, u32)>> {
        let endpoints = || -> Vec<Option<i64>> {
            let past = |v: &Value| int(v).and_then(|i| i.checked_add(1));
            ranges
                .iter()
                .flat_map(|&(lo, hi)| [int(lo), past(hi)])
                .collect()
        };
        let bounds: Vec<usize> = match &self.repr {
            &Repr::Dense { min, len } => (endpoints().into_iter())
                .map(|e| {
                    e.map_or(len, |v| {
                        (i128::from(v) - i128::from(min)).clamp(0, len as i128) as usize
                    })
                })
                .collect(),
            Repr::Int(tree) => {
                let endpoints = endpoints();
                let probes: Vec<i64> = endpoints.iter().flatten().copied().collect();
                let mut found = tree.lower_bound_batch_lanes(&probes, lanes).into_iter();
                endpoints
                    .iter()
                    .map(|e| e.and_then(|_| found.next()).unwrap_or(tree.len()))
                    .collect()
            }
            Repr::Ranked(ranked) => ranked.each(
                &endpoints(),
                lanes,
                |&e| e,
                |e| e.map_or(self.len(), |v| ranked.lower_bound(v) as usize),
            ),
            Repr::Generic(values) => ranges
                .iter()
                .flat_map(|&(lo, hi)| {
                    [
                        values.partition_point(|v| v < lo),
                        values.partition_point(|v| v <= hi),
                    ]
                })
                .collect(),
        };
        ranges
            .iter()
            .zip(bounds.chunks_exact(2))
            .map(|(&(lo, hi), b)| (lo <= hi && b[0] < b[1]).then(|| (b[0] as u32, b[1] as u32 - 1)))
            .collect()
    }

    /// The value for `id` (owned: an `Int` is a copy, and a typed domain
    /// holds no `Value` to lend).
    pub fn decode(&self, id: u32) -> Value {
        match self.view() {
            DomainView::Int(ints) => Value::Int(ints.get(id)),
            DomainView::Generic(values) => values[id as usize].clone(),
        }
    }

    /// Decoded values for a whole batch of IDs; `out[i]` is
    /// `decode(ids[i])` — the inverse of [`Domain::encode_batch`].
    ///
    /// Decoding is a plain array gather, or `min + id` on a dense domain
    /// (no search), so unlike encoding it needs no interleaving; the
    /// batch form exists so result sets can surface decoded values in one
    /// call instead of a per-row `decode`.
    pub fn decode_batch(&self, ids: &[u32]) -> Vec<Value> {
        match self.view() {
            DomainView::Int(ints) => ids.iter().map(|&id| Value::Int(ints.get(id))).collect(),
            DomainView::Generic(values) => {
                ids.iter().map(|&id| values[id as usize].clone()).collect()
            }
        }
    }

    /// Heap footprint of the dictionary in bytes: none for a dense
    /// domain, whose `(min, len)` live inline; 8 per value plus the
    /// directory for a typed domain, or plus its rank lines (never more)
    /// for a ranked one; the enum slots plus the string bytes for a
    /// generic one.
    pub fn size_bytes(&self) -> usize {
        match &self.repr {
            Repr::Dense { .. } => 0,
            Repr::Int(tree) => tree.array().size_bytes() + tree.space().indirect_bytes,
            Repr::Ranked(ranked) => {
                ranked.ints.len() * 8 + ranked.lines.len() * core::mem::size_of::<RankLine>()
            }
            Repr::Generic(values) => values
                .iter()
                .map(|v| match v {
                    Value::Int(_) => core::mem::size_of::<Value>(),
                    Value::Str(s) => core::mem::size_of::<Value>() + s.len(),
                })
                .sum(),
        }
    }
}

/// The generic representation's batch search: [`DEFAULT_BATCH_LANES`]
/// interleaved bisections over the enum dictionary. Every live probe
/// advances one step per round, keeping the round's dictionary accesses
/// independent of one another — the same software pipelining the CSS-trees
/// apply to directory descents.
fn bisect_batch<V: Borrow<Value>>(dictionary: &[Value], probes: &[V]) -> Vec<Option<u32>> {
    const LANES: usize = DEFAULT_BATCH_LANES;
    let n = dictionary.len();
    let mut out = vec![None; probes.len()];
    for (chunk_idx, chunk) in probes.chunks(LANES).enumerate() {
        let base = chunk_idx * LANES;
        let mut lo = [0usize; LANES];
        let mut hi = [n; LANES];
        let mut live = true;
        while live {
            live = false;
            for (lane, probe) in chunk.iter().enumerate() {
                if lo[lane] < hi[lane] {
                    let mid = lo[lane] + (hi[lane] - lo[lane]) / 2;
                    if dictionary[mid] < *probe.borrow() {
                        lo[lane] = mid + 1;
                    } else {
                        hi[lane] = mid;
                    }
                    live |= lo[lane] < hi[lane];
                }
            }
        }
        for (lane, probe) in chunk.iter().enumerate() {
            let pos = lo[lane];
            if pos < n && dictionary[pos] == *probe.borrow() {
                out[base + lane] = Some(pos as u32);
            }
        }
    }
    out
}

#[cfg(test)]
impl Domain {
    /// The CSS arm over any strictly increasing `ints`, however dense —
    /// what the ranked arm is checked against.
    pub(crate) fn css(ints: Vec<i64>) -> Self {
        Self {
            repr: directory(ints),
        }
    }

    /// The ranked arm over strictly increasing `ints` whose lines fit,
    /// however dense — what the dense arm is checked against.
    pub(crate) fn ranked(ints: Vec<i64>) -> Option<Self> {
        let ranked = Ranked::fitting(ints).ok()?;
        Some(Self {
            repr: Repr::Ranked(Arc::new(ranked)),
        })
    }

    /// The arm this domain took.
    pub(crate) fn arm(&self) -> &'static str {
        match self.repr {
            Repr::Dense { .. } => "dense",
            Repr::Int(_) => "css",
            Repr::Ranked(_) => "ranked",
            Repr::Generic(_) => "generic",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> Domain {
        Domain::from_values(vec![
            "cherry".into(),
            "apple".into(),
            "banana".into(),
            "apple".into(), // duplicate collapses
        ])
    }

    #[test]
    fn ids_are_dense_and_value_ordered() {
        let d = domain();
        assert_eq!(d.len(), 3);
        assert_eq!(d.encode(&"apple".into()), Some(0));
        assert_eq!(d.encode(&"banana".into()), Some(1));
        assert_eq!(d.encode(&"cherry".into()), Some(2));
        assert_eq!(d.encode(&"durian".into()), None);
    }

    #[test]
    fn id_order_equals_value_order() {
        // The §2.1 property: comparisons on IDs == comparisons on values.
        let d = Domain::from_values((0..100).map(|i| Value::Int(i * 7)).collect());
        for a in 0..100u32 {
            for b in 0..100u32 {
                assert_eq!(
                    d.decode(a) < d.decode(b),
                    a < b,
                    "IDs must be value-ordered"
                );
            }
        }
    }

    /// ID of the first domain value `>= value` (`len` when every value
    /// is smaller), through the range path: the start of the range from
    /// `value` up to a string above every value these tests use.
    fn lower_bound_id(d: &Domain, value: &Value) -> u32 {
        let top = Value::Str("\u{10FFFF}".into());
        d.id_range(value, &top).map_or(d.len() as u32, |(lo, _)| lo)
    }

    #[test]
    fn inequality_predicates_on_ids() {
        let d = Domain::from_values((0..50).map(|i| Value::Int(i * 10)).collect());
        // value < 95  <=>  id < lower_bound_id(95) = 10.
        assert_eq!(lower_bound_id(&d, &Value::Int(95)), 10);
        assert_eq!(lower_bound_id(&d, &Value::Int(90)), 9);
        assert_eq!(lower_bound_id(&d, &Value::Int(-5)), 0);
        assert_eq!(lower_bound_id(&d, &Value::Int(10_000)), 50);
    }

    #[test]
    fn id_range_maps_value_ranges() {
        let d = Domain::from_values((0..50).map(|i| Value::Int(i * 10)).collect());
        assert_eq!(
            d.id_range(&Value::Int(95), &Value::Int(130)),
            Some((10, 13))
        );
        assert_eq!(
            d.id_range(&Value::Int(100), &Value::Int(100)),
            Some((10, 10))
        );
        assert_eq!(d.id_range(&Value::Int(101), &Value::Int(109)), None);
    }

    #[test]
    fn encode_batch_matches_encode() {
        let d = Domain::from_values((0..137).map(|i| Value::Int(i * 3)).collect());
        let probes: Vec<Value> = (0..450).map(|i| Value::Int(i - 20)).collect();
        let expected: Vec<Option<u32>> = probes.iter().map(|v| d.encode(v)).collect();
        assert_eq!(d.encode_batch(&probes), expected);
        // Degenerate shapes: empty batch, empty domain, ragged tails.
        assert!(d.encode_batch::<Value>(&[]).is_empty());
        let empty = Domain::from_values(vec![]);
        assert_eq!(empty.encode_batch(&probes[..3]), vec![None, None, None]);
        for len in [1usize, 7, 8, 9, 15, 16, 17] {
            assert_eq!(d.encode_batch(&probes[..len]), expected[..len]);
        }
    }

    #[test]
    fn decode_batch_inverts_encode_batch() {
        let d = Domain::from_values((0..97).map(|i| Value::Int(i * 5)).collect());
        let probes: Vec<Value> = (0..97).rev().map(|i| Value::Int(i * 5)).collect();
        let ids: Vec<u32> = d
            .encode_batch(&probes)
            .into_iter()
            .map(|id| id.expect("all present"))
            .collect();
        assert_eq!(d.decode_batch(&ids), probes);
        assert!(d.decode_batch(&[]).is_empty());
    }

    #[test]
    fn decode_roundtrip() {
        let d = domain();
        for id in 0..d.len() as u32 {
            assert_eq!(d.encode(&d.decode(id)).unwrap(), id);
        }
    }

    #[test]
    fn mixed_type_ordering_is_total() {
        // Ints sort before strings (enum variant order): a quirk, but
        // total — domains with mixed types still behave.
        let d = Domain::from_values(vec![Value::Str("a".into()), Value::Int(5)]);
        assert_eq!(d.encode(&Value::Int(5)), Some(0));
        assert_eq!(d.encode(&Value::Str("a".into())), Some(1));
    }

    /// A typed domain on each integer arm (ranked, and the same values
    /// under the CSS directory), a string and a mixed domain, each with
    /// probes that hit, miss between values, and fall off both ends — in
    /// both variants.
    fn representations() -> [(Domain, Vec<Value>); 4] {
        let text = |i: i64| Value::Str(format!("k{i:03}"));
        let mut probes: Vec<Value> = (-3..140).map(Value::Int).collect();
        probes.extend((-3..140).map(text));
        probes.extend([Value::Int(i64::MIN), Value::Int(i64::MAX), "".into()]);
        let ints: Vec<i64> = (0..67).map(|i| i * 2).collect();
        let int: Vec<Value> = ints.iter().copied().map(Value::Int).collect();
        let string: Vec<Value> = (0..67).map(|i| text(i * 2)).collect();
        let mixed: Vec<Value> = int.iter().chain(&string).cloned().collect();
        [
            Domain::from_values(int),
            Domain::css(ints),
            Domain::from_values(string),
            Domain::from_values(mixed),
        ]
        .map(|d| (d, probes.clone()))
    }

    /// What every search must agree with: the sorted values themselves.
    fn sorted_values(d: &Domain) -> Vec<Value> {
        d.decode_batch(&(0..d.len() as u32).collect::<Vec<_>>())
    }

    #[test]
    fn representation_follows_the_values() {
        let [int, css, string, mixed] = representations().map(|(d, _)| d);
        assert!(int.is_int() && css.is_int() && !string.is_int() && !mixed.is_int());
        assert_eq!([int.arm(), css.arm()], ["ranked", "css"]);
        assert!(Domain::from_values(vec![]).is_int(), "empty is typed");
        // The arm is how the values are searched, not what they are.
        assert_eq!(int, css);
        // Equality is about values, however the domain was built.
        assert_eq!(
            int,
            Domain::from_sorted_ints((0..67).map(|i| i * 2).collect())
        );
        assert_eq!(mixed, Domain::from_sorted_values(sorted_values(&mixed)));
        assert_ne!(int, mixed);
        assert_ne!(int, Domain::from_values(vec![Value::Int(0)]));
    }

    #[test]
    fn searches_agree_with_the_sorted_values_on_both_representations() {
        for (d, probes) in representations() {
            let values = sorted_values(&d);
            assert!(values.windows(2).all(|w| w[0] < w[1]));
            for probe in &probes {
                assert_eq!(
                    d.encode(probe),
                    values.binary_search(probe).ok().map(|i| i as u32),
                    "encode {probe:?}"
                );
                assert_eq!(
                    lower_bound_id(&d, probe) as usize,
                    values.partition_point(|v| v < probe),
                    "lower_bound_id {probe:?}"
                );
            }
            // Batches around the lane count, owned and borrowed probes.
            let expected: Vec<Option<u32>> = probes.iter().map(|v| d.encode(v)).collect();
            for len in [0usize, 1, 7, 8, 9, 15, 16, 17, probes.len()] {
                assert_eq!(d.encode_batch(&probes[..len]), expected[..len]);
            }
            let borrowed: Vec<&Value> = probes.iter().rev().collect();
            let mut reversed = expected.clone();
            reversed.reverse();
            assert_eq!(d.encode_batch(&borrowed), reversed);
            // decode_batch inverts encode_batch on the hits.
            let hits: Vec<u32> = expected.iter().flatten().copied().collect();
            let present: Vec<Value> = probes
                .iter()
                .zip(&expected)
                .filter_map(|(v, id)| id.map(|_| v.clone()))
                .collect();
            assert_eq!(d.decode_batch(&hits), present);
        }
    }

    #[test]
    fn id_ranges_follow_enum_order_across_types() {
        for (d, probes) in representations() {
            let values = sorted_values(&d);
            // Every 7th probe as a bound keeps the square small.
            let bounds: Vec<&Value> = probes.iter().step_by(7).collect();
            let mut square = Vec::new();
            for &lo in &bounds {
                for &hi in &bounds {
                    let inside: Vec<u32> = (0u32..)
                        .zip(&values)
                        .filter_map(|(id, v)| (lo <= v && v <= hi).then_some(id))
                        .collect();
                    let want = inside
                        .first()
                        .map(|&first| (first, inside[inside.len() - 1]));
                    assert_eq!(d.id_range(lo, hi), want, "[{lo:?}, {hi:?}]");
                    square.push(((lo, hi), want));
                }
            }
            // The whole square as one batch of endpoints, at every lane count.
            let (ranges, want): (Vec<_>, Vec<_>) = square.into_iter().unzip();
            for lanes in [1, 3, 8] {
                assert_eq!(d.id_ranges(&ranges, lanes), want, "lanes={lanes}");
            }
        }
        let [ranked, css, string, _] = representations().map(|(d, _)| d);
        // A `Str` sorts after every `Int`, on either side of the probe.
        for int in [ranked, css] {
            assert_eq!(int.encode(&"k000".into()), None);
            assert_eq!(lower_bound_id(&int, &"".into()), 67);
            assert_eq!(int.id_range(&Value::Int(100), &"z".into()), Some((50, 66)));
            assert_eq!(int.id_range(&"a".into(), &"z".into()), None);
            assert_eq!(int.id_range(&"a".into(), &Value::Int(5)), None, "inverted");
        }
        assert_eq!(string.encode(&Value::Int(0)), None);
        assert_eq!(lower_bound_id(&string, &Value::Int(i64::MAX)), 0);
        assert_eq!(
            string.id_range(&Value::Int(0), &"k003".into()),
            Some((0, 1))
        );
        // The top of the integer range has no successor to probe.
        let top = Domain::from_values(vec![Value::Int(i64::MAX), Value::Int(0)]);
        assert_eq!(
            top.id_range(&Value::Int(1), &Value::Int(i64::MAX)),
            Some((1, 1))
        );
    }

    #[test]
    fn translate_matches_per_value_encode_for_every_pairing() {
        let domains = representations().map(|(d, _)| d);
        // Targets that hold some of the source's values and some others,
        // on every arm.
        let targets = [
            Domain::from_values((0..200).map(|i| Value::Int(i * 3)).collect()),
            Domain::css((0..200).map(|i| i * 3).collect()),
            Domain::from_values(
                (0..200)
                    .map(|i| Value::Str(format!("k{:03}", i * 3)))
                    .collect(),
            ),
            Domain::from_values(
                (0..200)
                    .flat_map(|i| [Value::Int(i * 3), Value::Str(format!("k{:03}", i * 3))])
                    .collect(),
            ),
            Domain::from_values(vec![]),
        ];
        for source in &domains {
            let ids: Vec<u32> = (0..source.len() as u32).filter(|id| id % 5 != 1).collect();
            for target in &targets {
                let want: Vec<Option<u32>> = ids
                    .iter()
                    .map(|&id| target.encode(&source.decode(id)))
                    .collect();
                for lanes in [1, 3, 8] {
                    assert_eq!(source.translate(&ids, target, lanes), want);
                }
            }
            assert!(source.translate(&[], &targets[0], 8).is_empty());
        }
    }

    /// Translation into a typed domain under a directory (a thirteenth
    /// full: the CSS arm, one interleaved batch descent) and into a
    /// ranked one (a third full), from ID sets of every density: every
    /// ID, one in a hundred, and runs of consecutive IDs broken by gaps
    /// that alternate between short (within a cache line of the last
    /// answer) and long.
    #[test]
    fn translate_walks_dense_sparse_and_gapped_id_sets() {
        let source = Domain::from_values((0..5_000).map(|i| Value::Int(i * 2)).collect());
        let ranked = Domain::from_values((0..4_000).map(|i| Value::Int(i * 3 - 600)).collect());
        let sparse = Domain::from_values((0..4_000).map(|i| Value::Int(i * 13 - 600)).collect());
        assert_eq!([ranked.arm(), sparse.arm()], ["ranked", "css"]);
        let n = source.len() as u32;
        let dense: Vec<u32> = (0..n).collect();
        let sparse_ids: Vec<u32> = (0..n).filter(|id| id % 100 == 37).collect();
        let gapped: Vec<u32> = (0..n)
            .filter(|id| {
                let (block, at) = (id / 40, id % 40);
                at < 10 || (block % 2 == 0 && (at == 14 || at == 31))
            })
            .collect();
        for target in [&ranked, &sparse] {
            for ids in [&dense, &sparse_ids, &gapped] {
                let want: Vec<Option<u32>> = ids
                    .iter()
                    .map(|&id| target.encode(&source.decode(id)))
                    .collect();
                assert!(want.iter().any(Option::is_some) && want.iter().any(Option::is_none));
                for lanes in [1, 3, 8] {
                    assert_eq!(source.translate(ids, target, lanes), want, "lanes={lanes}");
                }
            }
        }
    }

    #[test]
    fn size_bytes_counts_the_typed_array_and_its_directory() {
        // Every integer of its range: `(min, len)` inline, nothing on the
        // heap, however long.
        for len in [1, 10_000, 1 << 20] {
            let dense = Domain::from_sorted_ints((-7..len - 7).collect());
            assert_eq!((dense.arm(), dense.size_bytes()), ("dense", 0), "{len}");
        }
        // Every integer but one: 8 bytes a value, plus a line per 448.
        let ranked = Domain::from_values(
            (0..10_001)
                .filter(|&v| v != 5_000)
                .map(Value::Int)
                .collect(),
        );
        assert_eq!(ranked.arm(), "ranked");
        assert_eq!(ranked.size_bytes(), 80_000 + 10_001usize.div_ceil(448) * 64);
        // A tenth full: 8 bytes a value, plus a directory of about an
        // eighth of that.
        let sparse = Domain::from_values((0..10_000).map(|i| Value::Int(i * 10)).collect());
        assert_eq!(sparse.arm(), "css");
        let bytes = sparse.size_bytes();
        assert!((80_000..80_000 * 5 / 4).contains(&bytes), "{bytes}");
        let strings = Domain::from_values(vec!["ab".into(), "c".into()]);
        assert_eq!(strings.size_bytes(), 2 * core::mem::size_of::<Value>() + 3);
    }

    #[test]
    fn id_range_answers_inverted_with_none() {
        // An inverted range contains no value — empty, never a panic
        // (ranges arrive from untrusted query/client input).
        let d = domain();
        assert_eq!(d.id_range(&Value::Int(5), &Value::Int(1)), None);
    }

    /// A domain's integer arms over the same `ints`: the one
    /// `from_sorted_ints` chose (checked to be dense exactly when `ints`
    /// is every integer of its range, else ranked), the ranked one too
    /// when that was dense, and last the CSS one.
    fn int_arms(ints: &[i64]) -> Vec<Domain> {
        let chosen = Domain::from_sorted_ints(ints.to_vec());
        let dense = ints.windows(2).all(|w| w[1] - w[0] == 1);
        assert_eq!(
            chosen.arm(),
            ["ranked", "dense"][dense as usize],
            "{ints:?}"
        );
        let ranked = dense.then(|| Domain::ranked(ints.to_vec()).expect("dense ints rank"));
        [chosen]
            .into_iter()
            .chain(ranked)
            .chain([Domain::css(ints.to_vec())])
            .collect()
    }

    /// Value sets for the dense and ranked arms: every integer, a
    /// negative `min`, irregular gaps, and against each end of `i64`, at
    /// stride 2 and at stride 1.
    fn ranked_sets() -> Vec<Vec<i64>> {
        vec![
            (0..1_000).collect(),
            (0..2_000).map(|i| i * 3 - 1_000).collect(),
            (-500..3_000)
                .filter(|v| v % 5 != 3 && !(1_000..1_450).contains(v))
                .collect(),
            (0..1_500).map(|i| i64::MIN + i * 2).collect(),
            (0..1_500).rev().map(|i| i64::MAX - i * 2).collect(),
            (-300..700).collect(),
            (0..1_500).map(|i| i64::MIN + i).collect(),
            (0..1_500).rev().map(|i| i64::MAX - i).collect(),
        ]
    }

    /// Probes at and around a line's edges (447/448/449 past `min`), at
    /// `span - 1` and `span`, past both ends, at both ends of `i64`, every
    /// seventh integer of the range, and `Str`s.
    fn arm_probes(ints: &[i64]) -> Vec<Value> {
        let (min, max) = (ints[0], ints[ints.len() - 1]);
        let span = max.abs_diff(min) + 1;
        let mut probes: Vec<i64> = [0, 1, 446, 447, 448, 449, 895, 896, 897]
            .into_iter()
            .chain([span - 2, span - 1, span, span + 1])
            .filter_map(|off| min.checked_add_unsigned(off))
            .collect();
        probes.extend([1, 2, 448].iter().filter_map(|&d| min.checked_sub(d)));
        probes.extend([i64::MIN, i64::MIN + 1, i64::MAX - 1, i64::MAX]);
        probes.extend(
            (0..span)
                .step_by(7)
                .filter_map(|off| min.checked_add_unsigned(off)),
        );
        let mut probes: Vec<Value> = probes.into_iter().map(Value::Int).collect();
        probes.extend(["", "a"].map(Value::from));
        probes
    }

    #[test]
    fn ranked_and_css_arms_agree_on_every_search() {
        for ints in ranked_sets() {
            let mut arms = int_arms(&ints);
            let css = arms.pop().expect("the CSS arm comes last");
            let probes = arm_probes(&ints);
            // One at a time, every integer of the range too.
            let min = ints[0];
            let every = (0..=ints[ints.len() - 1].abs_diff(min))
                .filter_map(|off| min.checked_add_unsigned(off))
                .map(Value::Int);
            for (probe, arm) in probes
                .iter()
                .cloned()
                .chain(every)
                .flat_map(|p| arms.iter().map(move |a| (p.clone(), a)))
            {
                assert_eq!(
                    arm.encode(&probe),
                    css.encode(&probe),
                    "encode {probe:?} on {}",
                    arm.arm()
                );
                assert_eq!(
                    lower_bound_id(arm, &probe),
                    lower_bound_id(&css, &probe),
                    "lower_bound_id {probe:?} on {}",
                    arm.arm()
                );
            }
            let want = css.encode_batch(&probes);
            assert!(want.iter().any(Option::is_some) && want.iter().any(Option::is_none));
            // Every fourth probe against every probe, and up to `i64::MAX`.
            let ends: Vec<&Value> = probes.iter().collect();
            let mut ranges: Vec<(&Value, &Value)> = ends
                .iter()
                .step_by(4)
                .flat_map(|&lo| ends.iter().map(move |&hi| (lo, hi)))
                .collect();
            let top = Value::Int(i64::MAX);
            ranges.extend(ends.iter().map(|&lo| (lo, &top)));
            let want_ranges = css.id_ranges(&ranges, 8);
            for lanes in [1, 3, 8] {
                assert_eq!(
                    css.encode_batch_lanes(&probes, lanes),
                    want,
                    "lanes={lanes}"
                );
                for arm in &arms {
                    let at = format!("{} lanes={lanes}", arm.arm());
                    assert_eq!(arm.encode_batch_lanes(&probes, lanes), want, "{at}");
                    assert_eq!(arm.id_ranges(&ranges, lanes), want_ranges, "{at}");
                }
            }
        }
    }

    #[test]
    fn a_wrapped_offset_never_lands_in_the_bitmap() {
        // Against `i64::MAX`, `i64::MIN - min` wraps to exactly the span;
        // against `i64::MIN`, every probe above the domain lies past it.
        // The same holds of a dense domain's offset, at stride 1.
        let sets = ranked_sets();
        for high in [&sets[4], &sets[7]] {
            for d in int_arms(high) {
                for v in [i64::MIN, i64::MIN + 1, i64::MIN + 2_999] {
                    assert_eq!(d.encode(&Value::Int(v)), None);
                    assert_eq!(lower_bound_id(&d, &Value::Int(v)), 0);
                }
                assert_eq!(d.encode(&Value::Int(i64::MAX)), Some(1_499));
            }
        }
        for low in [&sets[3], &sets[6]] {
            for d in int_arms(low) {
                for v in [i64::MAX, 0, i64::MIN + 2_999, i64::MIN + 3_000] {
                    assert_eq!(d.encode(&Value::Int(v)), None);
                    assert_eq!(lower_bound_id(&d, &Value::Int(v)), 1_500);
                }
                assert_eq!(d.encode(&Value::Int(i64::MIN)), Some(0));
            }
        }
    }

    #[test]
    fn translate_agrees_between_every_pair_of_arms() {
        // Each set on each integer arm and the generic one (the same
        // integers beside a `Str`), translated into each other set on
        // each arm: dense to dense at equal and different `min`s, with
        // partial overlap, and between the ends of `i64`, where the
        // shift wraps.
        let arms = |ints: &[i64]| {
            let mut values: Vec<Value> = ints.iter().copied().map(Value::Int).collect();
            values.push("z".into());
            let mut arms = int_arms(ints);
            arms.push(Domain::from_values(values));
            arms
        };
        let sets = ranked_sets();
        let domains: Vec<Vec<Domain>> = [0, 1, 2, 5, 6, 7].map(|i| arms(&sets[i])).into();
        for sources in &domains {
            for source in sources {
                let ids: Vec<u32> = (0..source.len() as u32).filter(|id| id % 3 != 1).collect();
                for target in domains.iter().flatten() {
                    let want: Vec<Option<u32>> = ids
                        .iter()
                        .map(|&id| target.encode(&source.decode(id)))
                        .collect();
                    for lanes in [1, 3, 8] {
                        assert_eq!(source.translate(&ids, target, lanes), want);
                    }
                }
            }
        }
    }

    #[test]
    fn the_ranked_arm_is_chosen_exactly_when_its_lines_fit_the_directory() {
        let n = 1_000;
        let directory = CssLayout::full(n, 8).space_bytes(8);
        // `n` values spread over `[0, span)`, both ends present.
        let spread = |span: usize| -> Vec<i64> {
            (0..n).map(|i| (i * (span - 1) / (n - 1)) as i64).collect()
        };
        let at = spread(directory / 64 * 448);
        assert_eq!(Domain::from_sorted_ints(at.clone()).arm(), "ranked");
        let over = spread(directory / 64 * 448 + 1);
        assert_eq!(Domain::from_sorted_ints(over).arm(), "css");
        // That directory is the one the CSS arm builds and reports.
        assert_eq!(Domain::css(at).size_bytes(), n * 8 + directory);
        // Eight values or fewer have no directory to replace; every
        // integer of a range is dense, however few.
        let gapped = |n: i64| Domain::from_sorted_ints((0..=n).filter(|&v| v != 1).collect());
        assert_eq!([gapped(8).arm(), gapped(9).arm()], ["css", "ranked"]);
        for n in [1, 8, 9] {
            assert_eq!(Domain::from_sorted_ints((0..n).collect()).arm(), "dense");
        }
        // `conjunction_oracle`'s cross-arm domains: 64 integers at stride
        // 1 (from two `min`s), 4 and 20.
        let strided = |stride: i64, min: i64| {
            Domain::from_sorted_ints((0..64).map(|x| x * stride + min).collect()).arm()
        };
        assert_eq!(
            [
                strided(1, -40),
                strided(1, -10),
                strided(4, -40),
                strided(20, -40)
            ],
            ["dense", "dense", "ranked", "css"]
        );
    }

    #[test]
    fn the_directory_never_shrinks_as_values_are_added() {
        // What lets a column's row count stand in for its distinct count
        // before the rank build allocates: if `rows` values cannot rank
        // over a span, fewer cannot either.
        let bytes = |n: usize| CssLayout::full(n, 8).space_bytes(8);
        for n in 1..=1 << 17 {
            assert!(bytes(n) >= bytes(n - 1), "n = {n}");
        }
        // A new level starts one value past `8 · 9^k` (9^k full leaves).
        let mut full = 8usize;
        while full < 1 << 31 {
            for n in full - 1..=full + 9 {
                assert!(bytes(n + 1) >= bytes(n), "n = {n}");
            }
            full *= 9;
        }
        assert!(bytes(1 << 31) >= bytes((1 << 31) - 1));
    }

    /// A deterministic stream of `u64`s.
    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn engine_mix_dimensions_are_ranked_and_serve_small_keys_are_not() {
        // `orders.cust`, `customers.id` and `orders.amount` hold every
        // integer of their range: dense.
        for len in [100_000, 10_000] {
            assert_eq!(Domain::from_sorted_ints((0..len).collect()).arm(), "dense");
        }
        // 64k uniform `u32` keys spread over 2^32 integers.
        let mut next = xorshift(0x5eed);
        let keys: Vec<Value> = (0..65_536)
            .map(|_| Value::Int(next() as u32 as i64))
            .collect();
        let keys = Domain::from_values(keys);
        assert_eq!(keys.arm(), "css");
    }

    #[test]
    #[ignore = "2M rows; run with `cargo test --release -p mmdb -- --ignored`"]
    fn engine_mix_columns_are_ranked_at_two_million_rows() {
        const ROWS: u64 = 2_000_000;
        let mut next = xorshift(0xe9);
        let mut column = |range: u64| {
            let values: Vec<Value> = (0..ROWS)
                .map(|_| Value::Int((next() % range) as i64))
                .collect();
            crate::column::Column::from_values(&values).domain().clone()
        };
        // `key` is uniform in `[0, 2n)`: about 39 % of its integers,
        // ranked. `cust` and `amount` draw every integer of theirs, and
        // `customers.id` is `0..100k`: dense.
        let key = column(2 * ROWS);
        assert!((1_500_000..1_650_000).contains(&key.len()), "{}", key.len());
        assert_eq!(key.arm(), "ranked");
        let id =
            crate::column::Column::from_values((0..100_000).map(Value::Int).collect::<Vec<_>>());
        for d in [column(100_000), column(10_000), id.domain().clone()] {
            assert_eq!(d.arm(), "dense", "{} values", d.len());
        }
    }

    proptest::proptest! {
        /// Whatever the density, the arm taken is never larger than the
        /// CSS arm over the same values.
        #[test]
        fn size_bytes_never_exceeds_the_css_arm(
            start in -1_000i64..1_000,
            gaps in proptest::collection::vec(1i64..16, 1..3_000),
        ) {
            let ints: Vec<i64> = gaps
                .iter()
                .scan(start, |v, gap| {
                    *v += gap;
                    Some(*v)
                })
                .collect();
            let chosen = Domain::from_sorted_ints(ints.clone());
            proptest::prop_assert!(chosen.size_bytes() <= Domain::css(ints).size_bytes());
        }
    }
}
