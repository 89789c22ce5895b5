//! Tolerance-aware interning of complex values.
//!
//! Decision-diagram canonicity depends on *identical* edge weights hashing
//! identically. Floating-point arithmetic produces values such as
//! `1/√2 · 1/√2` and `0.5` that are mathematically equal but bit-wise
//! different; without unification the unique table would treat them as
//! distinct and node sharing would collapse (see footnote 2 of the paper and
//! its reference [21]). The [`ComplexTable`] assigns a stable [`ComplexId`]
//! to every value, mapping any value within the configured tolerance of an
//! already-stored representative onto that representative.
//!
//! The tolerance is **absolute** and tight (default `1e-13`, ~500 f64
//! epsilons): two values unify when their components differ by at most the
//! tolerance. The choice is deliberate, measured both ways on this code
//! base (see DESIGN.md §6): a *relative* tolerance fails to re-merge the
//! cancellation noise that iterated algorithms (Grover) produce on small
//! amplitudes, splitting mathematically-equal nodes until the diagram and
//! the distinct-weight population explode; a *loose absolute* tolerance
//! (1e-10) destroys the relative precision of structurally tiny weights.
//! Tight-absolute is the working middle ground, matching mature QMDD
//! packages.
//!
//! # Storage layout (DESIGN.md §13)
//!
//! `lookup` sits under every interned multiply/add/divide, and most values
//! it sees are new: a large state interns millions of weights, nearly each
//! in a grid cell of its own. The storage is therefore one flat allocation
//! per concern, with no per-cell heap object:
//!
//! * `entries` holds every representative in id order: the value, its
//!   `norm_sqr` (so normalization pivot selection touches the cache line
//!   the value occupies) and its grid-cell key.
//! * `slots` is a power-of-two open-addressed array of 4-byte ids keyed by
//!   grid cell, with linear probing and at most 50% load. A cell's ids sit
//!   on its probe chain in insertion order: nothing is ever deleted, and
//!   growth re-places the ids in id order. Walking the chain and keeping
//!   the ids whose key matches therefore visits the cell's candidates in
//!   the order they were interned.
//! * The neighbour probe visits only grid cells that can actually contain a
//!   match: the cell width is `2·tolerance`, so a candidate within
//!   tolerance of `c` lies in `c`'s own cell or the *one* neighbour on the
//!   side `c` is nearer to — 4 cells typically, not 9 (a conservative FP
//!   slack falls back to 3 cells per axis near half-cell positions).

use crate::hash::fx_hash;
use crate::simd::{self, SimdLevel};
use crate::value::{Complex, DEFAULT_TOLERANCE};

/// Handle to an interned complex value inside a [`ComplexTable`].
///
/// Ids are only meaningful relative to the table that produced them. The two
/// distinguished values zero and one have fixed ids in every table so that
/// hot-path checks need no table access.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ComplexId(u32);

impl ComplexId {
    /// The id of the additive identity in every table.
    pub const ZERO: ComplexId = ComplexId(0);
    /// The id of the multiplicative identity in every table.
    pub const ONE: ComplexId = ComplexId(1);

    /// Whether this id denotes exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self == ComplexId::ZERO
    }

    /// Whether this id denotes exactly one.
    #[inline]
    pub fn is_one(self) -> bool {
        self == ComplexId::ONE
    }

    /// The raw index (for diagnostics / serialization).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Rebuilds an id from a table index (snapshot restore).
    ///
    /// The caller is responsible for the index being in range of the table
    /// the id will be used with; out-of-range ids panic on first `value`
    /// lookup rather than aliasing another entry.
    #[inline]
    pub fn from_index(index: usize) -> ComplexId {
        ComplexId(u32::try_from(index).expect("complex table index overflow"))
    }
}

/// Grid-cell key: per axis, the cell index at the tolerance scale, or the
/// component's bits where that index would not fit an `i64` (see
/// [`ComplexTable::axis_cells`]).
type CellKey = (i64, i64);

/// One stored representative: the value, its squared magnitude (so
/// normalization pivot reads land on the cache line the value occupies)
/// and the grid cell it was filed under (so a probe chain can tell its own
/// cell's candidates from those of cells that share the chain).
#[derive(Clone, Copy, Debug)]
struct Stored {
    val: Complex,
    norm: f64,
    cell: CellKey,
}

/// Marker of an unoccupied slot. Never a valid id: `insert` refuses to
/// hand it out.
const EMPTY: u32 = u32::MAX;

/// Initial slot count (a power of two), holding 1024 ids at 50% load.
const INITIAL_SLOTS: usize = 2048;

/// Counters of the interning table, reported through `DdStats::cache`
/// alongside the compute/unique-table counters (`--stats`, bench JSON).
///
/// All counters are defined *semantically* — from probe outcomes, not from
/// how the slots are laid out — so scalar and SIMD builds produce
/// identical statistics (property-tested).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ComplexTableStats {
    /// `lookup` calls (interning requests), including the pinned zero/one
    /// fast paths.
    pub lookups: u64,
    /// Lookups resolved to an existing non-pinned representative by the
    /// grid-cell probe.
    pub unified: u64,
    /// Lookups that inserted a new representative.
    pub inserts: u64,
    /// Grid cells examined across all probes (4 per lookup typically; up
    /// to 9 near half-cell positions).
    pub buckets_probed: u64,
    /// Candidate representatives of the probed cells compared across all
    /// probes: the probe length. On a hit this counts the matched
    /// candidate's position in its cell + 1; on a miss, the full lengths of
    /// the cells scanned. Ids of other cells met on a probe chain are not
    /// counted.
    pub probe_entries: u64,
}

impl ComplexTableStats {
    /// Share of lookups resolved without inserting (pinned or unified).
    pub fn unify_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            1.0 - self.inserts as f64 / self.lookups as f64
        }
    }

    /// Mean candidates compared per lookup that reached the probe.
    pub fn mean_probe_len(&self) -> f64 {
        let probed = self.unified + self.inserts;
        if probed == 0 {
            0.0
        } else {
            self.probe_entries as f64 / probed as f64
        }
    }

    /// Field-wise `self − before`.
    #[must_use]
    pub fn delta(&self, before: &ComplexTableStats) -> ComplexTableStats {
        ComplexTableStats {
            lookups: self.lookups - before.lookups,
            unified: self.unified - before.unified,
            inserts: self.inserts - before.inserts,
            buckets_probed: self.buckets_probed - before.buckets_probed,
            probe_entries: self.probe_entries - before.probe_entries,
        }
    }

    /// Field-wise accumulation.
    pub fn accumulate(&mut self, other: &ComplexTableStats) {
        self.lookups += other.lookups;
        self.unified += other.unified;
        self.inserts += other.inserts;
        self.buckets_probed += other.buckets_probed;
        self.probe_entries += other.probe_entries;
    }
}

/// Interning table unifying complex values up to an absolute tolerance.
///
/// # Examples
///
/// ```
/// use ddsim_complex::{Complex, ComplexTable};
///
/// let mut table = ComplexTable::new();
/// let a = table.lookup(Complex::SQRT2_INV * Complex::SQRT2_INV);
/// let b = table.lookup(Complex::real(0.5));
/// assert_eq!(a, b);
/// ```
#[derive(Clone, Debug)]
pub struct ComplexTable {
    entries: Vec<Stored>,
    /// Open-addressed ids keyed by grid cell (see the module docs);
    /// [`EMPTY`] marks a free slot. The length is a power of two.
    slots: Vec<u32>,
    /// Distinct occupied grid cells.
    cells: usize,
    /// Most candidates filed under one grid cell.
    longest_cell: usize,
    tolerance: f64,
    /// SIMD tier for the batched products, resolved once at
    /// construction (never per lookup — see `simd::SimdLevel::detect`).
    simd: SimdLevel,
    stats: ComplexTableStats,
}

impl ComplexTable {
    /// Creates a table with the [`DEFAULT_TOLERANCE`].
    pub fn new() -> Self {
        Self::with_tolerance(DEFAULT_TOLERANCE)
    }

    /// Creates a table with a caller-chosen absolute tolerance and the
    /// strongest available SIMD tier.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not a finite positive number below 0.1.
    pub fn with_tolerance(tolerance: f64) -> Self {
        Self::with_tolerance_and_simd(tolerance, true)
    }

    /// [`with_tolerance`](Self::with_tolerance) with an explicit SIMD
    /// switch (`false` forces the canonical scalar kernels; results are
    /// bitwise identical either way).
    pub fn with_tolerance_and_simd(tolerance: f64, simd_enabled: bool) -> Self {
        assert!(
            tolerance.is_finite() && tolerance > 0.0 && tolerance < 0.1,
            "tolerance must be finite, positive, and small"
        );
        let mut table = ComplexTable {
            entries: Vec::with_capacity(INITIAL_SLOTS / 2),
            slots: vec![EMPTY; INITIAL_SLOTS],
            cells: 0,
            longest_cell: 0,
            tolerance,
            simd: SimdLevel::detect_or_scalar(simd_enabled),
            stats: ComplexTableStats::default(),
        };
        // Ids 0 and 1 are pinned (see `ComplexId::{ZERO, ONE}`).
        table.insert_raw(Complex::ZERO);
        table.insert_raw(Complex::ONE);
        table
    }

    /// The unification tolerance (absolute).
    #[inline]
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }

    /// The SIMD tier the batched products dispatch to.
    #[inline]
    pub fn simd_level(&self) -> SimdLevel {
        self.simd
    }

    /// Re-resolves the SIMD tier (scalar when `enabled` is false). Used by
    /// snapshot restore, which rebuilds the table via
    /// [`from_values`](Self::from_values) and then applies the manager's
    /// configuration. Storage layout and lookup results are unaffected.
    pub fn set_simd_enabled(&mut self, enabled: bool) {
        self.simd = SimdLevel::detect_or_scalar(enabled);
    }

    /// Interning counters (see [`ComplexTableStats`]).
    #[inline]
    pub fn stats(&self) -> ComplexTableStats {
        self.stats
    }

    /// Mutable access to the counters (worker absorption, resets).
    #[inline]
    pub fn stats_mut(&mut self) -> &mut ComplexTableStats {
        &mut self.stats
    }

    /// Number of distinct stored values (including zero and one).
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table holds only the two pinned values.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.len() <= 2
    }

    /// Number of occupied tolerance-grid cells (occupancy telemetry).
    #[inline]
    pub fn bucket_count(&self) -> usize {
        self.cells
    }

    /// Most candidates filed under one grid cell (occupancy telemetry; the
    /// worst-case probe length within one cell).
    #[inline]
    pub fn max_bucket_len(&self) -> usize {
        self.longest_cell
    }

    /// Heap bytes the table holds, from the capacities of its two arrays
    /// (values with their norms and cell keys, and the id slots).
    #[inline]
    pub fn bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<Stored>()
            + self.slots.capacity() * std::mem::size_of::<u32>()
    }

    /// The value a given id denotes.
    ///
    /// # Panics
    ///
    /// Panics if `id` was produced by a different table (index out of range).
    #[inline]
    pub fn value(&self, id: ComplexId) -> Complex {
        self.entries[id.index()].val
    }

    /// Squared magnitude of a stored value, precomputed at intern time and
    /// stored adjacent to the value itself.
    #[inline]
    pub fn norm_sqr(&self, id: ComplexId) -> f64 {
        self.entries[id.index()].norm
    }

    /// Interns `c`, returning the id of its representative.
    ///
    /// Values within the tolerance of zero or one collapse onto the pinned
    /// ids; any other value within the tolerance of an existing
    /// representative reuses that representative's id.
    ///
    /// # Panics
    ///
    /// Panics if `c` is not finite — non-finite edge weights indicate a bug
    /// upstream (e.g. division by a zero weight) and must not be interned.
    pub fn lookup(&mut self, c: Complex) -> ComplexId {
        assert!(
            c.is_finite(),
            "cannot intern non-finite complex value {c:?}"
        );
        self.stats.lookups += 1;
        if c.approx_zero(self.tolerance) {
            return ComplexId::ZERO;
        }
        if c.approx_one(self.tolerance) {
            return ComplexId::ONE;
        }
        let (qre, re_lo, re_hi) = self.axis_cells(c.re);
        let (qim, im_lo, im_hi) = self.axis_cells(c.im);
        let tol = self.tolerance;
        let mut buckets_probed = 0u64;
        let mut probe_entries = 0u64;
        let mut own_cell_len = 0;
        let mut found: Option<u32> = None;
        'probe: for dre in -1i64..=1 {
            if (dre == -1 && !re_lo) || (dre == 1 && !re_hi) {
                continue;
            }
            for dim in -1i64..=1 {
                if (dim == -1 && !im_lo) || (dim == 1 && !im_hi) {
                    continue;
                }
                buckets_probed += 1;
                let key = (qre.wrapping_add(dre), qim.wrapping_add(dim));
                let (compared, hit) = self.probe_cell(key, |v| v.approx_eq(c, tol));
                probe_entries += compared as u64;
                if hit.is_some() {
                    found = hit;
                    break 'probe;
                }
                if dre == 0 && dim == 0 {
                    own_cell_len = compared;
                }
            }
        }
        self.stats.buckets_probed += buckets_probed;
        self.stats.probe_entries += probe_entries;
        match found {
            Some(raw) => {
                self.stats.unified += 1;
                ComplexId(raw)
            }
            None => {
                self.stats.inserts += 1;
                self.insert((qre, qim), c, own_cell_len)
            }
        }
    }

    /// Interns the product of two interned values.
    #[inline]
    pub fn mul(&mut self, a: ComplexId, b: ComplexId) -> ComplexId {
        if a.is_zero() || b.is_zero() {
            return ComplexId::ZERO;
        }
        if a.is_one() {
            return b;
        }
        if b.is_one() {
            return a;
        }
        let product = self.value(a) * self.value(b);
        self.lookup(product)
    }

    /// Interns `[a·b0, a·b1]` — the vector-node leaf multiply: one edge
    /// weight times both child weights, with the products computed through
    /// the dispatched SIMD kernel (bitwise identical to two [`mul`]
    /// calls, including per-element shortcut and interning order).
    ///
    /// [`mul`]: Self::mul
    #[inline]
    pub fn mul2(&mut self, a: ComplexId, b: [ComplexId; 2]) -> [ComplexId; 2] {
        if a.is_zero() {
            return [ComplexId::ZERO; 2];
        }
        if a.is_one() {
            return b;
        }
        // Lanes holding zero/one children resolve without arithmetic; only
        // batch when at least two lanes pay for a product. Lane products
        // are bitwise identical either way, so this is purely a cost gate.
        let needs = [self.needs_product(b[0]), self.needs_product(b[1])];
        let av = self.value(a);
        let products = match needs {
            [true, true] => simd::mul_scaled2(self.simd, av, [self.value(b[0]), self.value(b[1])]),
            [true, false] => [av * self.value(b[0]), Complex::ONE],
            [false, true] => [Complex::ONE, av * self.value(b[1])],
            [false, false] => [Complex::ONE; 2],
        };
        let mut out = [ComplexId::ZERO; 2];
        for i in 0..2 {
            out[i] = self.resolve_scaled(a, b[i], products[i]);
        }
        out
    }

    /// Interns `[a·b0, a·b1, a·b2, a·b3]` — the matrix-node (2×2 quadrant)
    /// leaf multiply. Same contract as [`mul2`](Self::mul2).
    #[inline]
    pub fn mul4(&mut self, a: ComplexId, b: [ComplexId; 4]) -> [ComplexId; 4] {
        if a.is_zero() {
            return [ComplexId::ZERO; 4];
        }
        if a.is_one() {
            return b;
        }
        let needs = [
            self.needs_product(b[0]),
            self.needs_product(b[1]),
            self.needs_product(b[2]),
            self.needs_product(b[3]),
        ];
        let av = self.value(a);
        let mut products = [Complex::ONE; 4];
        if needs.iter().filter(|&&n| n).count() >= 2 {
            products = simd::mul_scaled4(
                self.simd,
                av,
                [
                    self.factor(b[0]),
                    self.factor(b[1]),
                    self.factor(b[2]),
                    self.factor(b[3]),
                ],
            );
        } else {
            for i in 0..4 {
                if needs[i] {
                    products[i] = av * self.value(b[i]);
                }
            }
        }
        let mut out = [ComplexId::ZERO; 4];
        for i in 0..4 {
            out[i] = self.resolve_scaled(a, b[i], products[i]);
        }
        out
    }

    /// The multiplicand fed to the batched product for child weight `b`:
    /// trivial children (zero/one) get a placeholder lane whose product is
    /// discarded by [`resolve_scaled`](Self::resolve_scaled).
    #[inline]
    fn factor(&self, b: ComplexId) -> Complex {
        if b.is_zero() || b.is_one() {
            Complex::ONE
        } else {
            self.value(b)
        }
    }

    /// Whether a batched-multiply lane actually needs its product computed
    /// (zero/one lanes resolve by shortcut alone).
    #[inline]
    fn needs_product(&self, b: ComplexId) -> bool {
        !b.is_zero() && !b.is_one()
    }

    /// Whether a batched-divide lane needs its quotient computed (zero and
    /// `a == b` lanes resolve by shortcut alone).
    #[inline]
    fn needs_quotient(&self, a: ComplexId, b: ComplexId) -> bool {
        !a.is_zero() && a != b
    }

    /// Per-element epilogue of the batched multiply, mirroring [`mul`]'s
    /// shortcuts exactly: zero/one children never intern, everything else
    /// interns the precomputed product in element order.
    ///
    /// [`mul`]: Self::mul
    #[inline]
    fn resolve_scaled(&mut self, a: ComplexId, b: ComplexId, product: Complex) -> ComplexId {
        if b.is_zero() {
            ComplexId::ZERO
        } else if b.is_one() {
            a
        } else {
            self.lookup(product)
        }
    }

    /// Interns the sum of two interned values.
    #[inline]
    pub fn add(&mut self, a: ComplexId, b: ComplexId) -> ComplexId {
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let sum = self.value(a) + self.value(b);
        self.lookup(sum)
    }

    /// Interns the quotient `a / b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` denotes zero.
    #[inline]
    pub fn div(&mut self, a: ComplexId, b: ComplexId) -> ComplexId {
        assert!(!b.is_zero(), "division by interned zero");
        if a.is_zero() {
            return ComplexId::ZERO;
        }
        if b.is_one() {
            return a;
        }
        if a == b {
            return ComplexId::ONE;
        }
        let quotient = self.value(a) / self.value(b);
        self.lookup(quotient)
    }

    /// Interns `[a0/b, a1/b]` — edge-weight normalization: every child
    /// weight divided by the pivot. The reciprocal of `b` is computed once
    /// and the products go through the dispatched SIMD kernel; per-element
    /// results are bitwise identical to [`div`](Self::div) (which is
    /// multiplication by the same reciprocal), in the same interning order.
    ///
    /// # Panics
    ///
    /// Panics if `b` denotes zero.
    #[inline]
    pub fn div2(&mut self, a: [ComplexId; 2], b: ComplexId) -> [ComplexId; 2] {
        assert!(!b.is_zero(), "division by interned zero");
        if b.is_one() {
            return a;
        }
        // Same cost gate as [`mul2`](Self::mul2): shortcut lanes skip the
        // arithmetic entirely, and a single live lane multiplies inline.
        // The reciprocal (two float divides) is only taken when some lane
        // actually consumes it — all-shortcut normalizations are free.
        let needs = [self.needs_quotient(a[0], b), self.needs_quotient(a[1], b)];
        let products = match needs {
            [true, true] => {
                let recip = self.value(b).recip();
                simd::mul_scaled2(self.simd, recip, [self.value(a[0]), self.value(a[1])])
            }
            [true, false] => [self.value(b).recip() * self.value(a[0]), Complex::ONE],
            [false, true] => [Complex::ONE, self.value(b).recip() * self.value(a[1])],
            [false, false] => [Complex::ONE; 2],
        };
        let mut out = [ComplexId::ZERO; 2];
        for i in 0..2 {
            out[i] = self.resolve_div(a[i], b, products[i]);
        }
        out
    }

    /// Interns `[a0/b, a1/b, a2/b, a3/b]`. Same contract as
    /// [`div2`](Self::div2).
    #[inline]
    pub fn div4(&mut self, a: [ComplexId; 4], b: ComplexId) -> [ComplexId; 4] {
        assert!(!b.is_zero(), "division by interned zero");
        if b.is_one() {
            return a;
        }
        let needs = [
            self.needs_quotient(a[0], b),
            self.needs_quotient(a[1], b),
            self.needs_quotient(a[2], b),
            self.needs_quotient(a[3], b),
        ];
        let live = needs.iter().filter(|&&n| n).count();
        let mut products = [Complex::ONE; 4];
        if live >= 2 {
            let recip = self.value(b).recip();
            products = simd::mul_scaled4(
                self.simd,
                recip,
                [
                    self.div_factor(a[0], b),
                    self.div_factor(a[1], b),
                    self.div_factor(a[2], b),
                    self.div_factor(a[3], b),
                ],
            );
        } else if live == 1 {
            let recip = self.value(b).recip();
            for i in 0..4 {
                if needs[i] {
                    products[i] = recip * self.value(a[i]);
                }
            }
        }
        let mut out = [ComplexId::ZERO; 4];
        for i in 0..4 {
            out[i] = self.resolve_div(a[i], b, products[i]);
        }
        out
    }

    /// Dividend lane fed to the batched normalization for numerator `a`:
    /// shortcut elements (zero, or `a == b`) get a placeholder lane.
    #[inline]
    fn div_factor(&self, a: ComplexId, b: ComplexId) -> Complex {
        if a.is_zero() || a == b {
            Complex::ONE
        } else {
            self.value(a)
        }
    }

    /// Per-element epilogue of the batched division, mirroring
    /// [`div`](Self::div)'s shortcuts exactly.
    #[inline]
    fn resolve_div(&mut self, a: ComplexId, b: ComplexId, quotient: Complex) -> ComplexId {
        if a.is_zero() {
            ComplexId::ZERO
        } else if a == b {
            ComplexId::ONE
        } else {
            self.lookup(quotient)
        }
    }

    /// Interns the negation of an interned value.
    #[inline]
    pub fn neg(&mut self, a: ComplexId) -> ComplexId {
        if a.is_zero() {
            return ComplexId::ZERO;
        }
        let negated = -self.value(a);
        self.lookup(negated)
    }

    /// Interns the conjugate of an interned value.
    #[inline]
    pub fn conj(&mut self, a: ComplexId) -> ComplexId {
        if a.is_zero() || a.is_one() {
            return a;
        }
        let conjugated = self.value(a).conj();
        self.lookup(conjugated)
    }

    /// All stored values in insertion order (index `i` is the value of
    /// `ComplexId` with raw index `i`). For snapshot serialization: because
    /// tolerance bucketing makes representatives depend on insertion
    /// history, a bitwise-faithful restore must replay the *entire* table,
    /// not merely the reachable ids. (Returns an owned vector: values are
    /// stored interleaved with their norms and cell keys.)
    pub fn values(&self) -> Vec<Complex> {
        self.entries.iter().map(|s| s.val).collect()
    }

    /// Rebuilds a table holding exactly `values`, id-for-id.
    ///
    /// `values` must be a sequence previously produced by
    /// [`values`](Self::values): entry 0 must be zero, entry 1 must be one,
    /// and every entry must be finite. Values are re-inserted raw, in
    /// order, so every id, representative, and cell layout matches the
    /// captured table exactly and subsequent [`lookup`](Self::lookup) calls
    /// resolve identically to the original.
    pub fn from_values(tolerance: f64, values: &[Complex]) -> Result<Self, String> {
        let mut table = Self::with_tolerance(tolerance);
        if values.len() < 2 {
            return Err("complex table dump must contain the pinned zero and one".into());
        }
        if values[0] != Complex::ZERO {
            return Err(format!("entry 0 must be exactly zero, got {:?}", values[0]));
        }
        if values[1] != Complex::ONE {
            return Err(format!("entry 1 must be exactly one, got {:?}", values[1]));
        }
        for (i, &c) in values.iter().enumerate().skip(2) {
            if !c.is_finite() {
                return Err(format!("entry {i} is not finite: {c:?}"));
            }
            table.insert_raw(c);
        }
        Ok(table)
    }

    /// One probe axis: the value's grid cell plus which neighbours could
    /// hold a match. The cell width is `2·tolerance`, so the tolerance
    /// window `x ± tol` spans exactly half a cell each way: only the
    /// neighbour on the side `x` is nearer to can contain a matching
    /// candidate. `slack` (in cell units) conservatively covers the
    /// rounding of `x / width` and of the fraction itself, so a skipped
    /// cell provably contains no match — the probe result is *identical*
    /// to scanning all three cells, just cheaper. Near half-cell positions
    /// (or at magnitudes where an ulp exceeds the slack) both neighbours
    /// are probed, restoring the full 3-cell axis.
    ///
    /// Where the cell index does not fit an `i64` (|x| ≥ 2·tol·2⁶³, about
    /// 1.8e6 at the default tolerance), an ulp of `x` exceeds 1000·tol, so
    /// only an equal component can match: the component's bits are its
    /// cell, and no neighbour is probed. A saturated index would instead
    /// file every such value under one shared cell.
    fn axis_cells(&self, x: f64) -> (i64, bool, bool) {
        /// 2⁶³, the first cell index past `i64::MAX`.
        const INDEX_LIMIT: f64 = 9_223_372_036_854_775_808.0;
        let r = x / (2.0 * self.tolerance);
        if r.abs() >= INDEX_LIMIT {
            return (x.to_bits() as i64, false, false);
        }
        let q = r.floor();
        let frac = r - q;
        let slack = 8.0 * f64::EPSILON * r.abs() + 1e-9;
        (q as i64, frac <= 0.5 + slack, frac >= 0.5 - slack)
    }

    /// Walks `cell`'s probe chain in insertion order: the number of
    /// `cell`'s candidates examined, and the first one `matches` accepts.
    #[inline]
    fn probe_cell(&self, cell: CellKey, matches: impl Fn(Complex) -> bool) -> (usize, Option<u32>) {
        let mask = self.slots.len() - 1;
        let mut slot = fx_hash(&cell) as usize & mask;
        let mut examined = 0;
        loop {
            let raw = self.slots[slot];
            if raw == EMPTY {
                return (examined, None);
            }
            let stored = &self.entries[raw as usize];
            if stored.cell == cell {
                examined += 1;
                if matches(stored.val) {
                    return (examined, Some(raw));
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Appends `c` without probing for a match (pinned values and
    /// [`from_values`](Self::from_values)).
    fn insert_raw(&mut self, c: Complex) -> ComplexId {
        let cell = (self.axis_cells(c.re).0, self.axis_cells(c.im).0);
        let (cell_len, _) = self.probe_cell(cell, |_| false);
        self.insert(cell, c, cell_len)
    }

    /// Appends `c` under `cell`, which already holds `cell_len` candidates.
    fn insert(&mut self, cell: CellKey, c: Complex, cell_len: usize) -> ComplexId {
        let raw = u32::try_from(self.entries.len())
            .ok()
            .filter(|&raw| raw != EMPTY)
            .expect("complex table overflow");
        self.entries.push(Stored {
            val: c,
            norm: c.norm_sqr(),
            cell,
        });
        self.cells += usize::from(cell_len == 0);
        self.longest_cell = self.longest_cell.max(cell_len + 1);
        if 2 * self.entries.len() > self.slots.len() {
            self.grow();
        } else {
            self.place(raw, cell);
        }
        ComplexId(raw)
    }

    /// Puts `raw` in the first free slot of `cell`'s probe chain.
    fn place(&mut self, raw: u32, cell: CellKey) {
        let mask = self.slots.len() - 1;
        let mut slot = fx_hash(&cell) as usize & mask;
        while self.slots[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = raw;
    }

    /// Doubles the slot array and re-places every id in id order, which
    /// keeps each cell's candidates in insertion order along its chain.
    fn grow(&mut self) {
        self.slots = vec![EMPTY; 2 * self.slots.len()];
        for raw in 0..self.entries.len() {
            let cell = self.entries[raw].cell;
            self.place(raw as u32, cell);
        }
    }
}

impl Default for ComplexTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_ids() {
        let mut t = ComplexTable::new();
        assert_eq!(t.lookup(Complex::ZERO), ComplexId::ZERO);
        assert_eq!(t.lookup(Complex::ONE), ComplexId::ONE);
        assert_eq!(t.lookup(Complex::new(1e-16, -1e-16)), ComplexId::ZERO);
        assert_eq!(t.lookup(Complex::new(1.0 + 1e-15, 0.0)), ComplexId::ONE);
    }

    #[test]
    fn unifies_within_tolerance() {
        let mut t = ComplexTable::with_tolerance(1e-10);
        let a = t.lookup(Complex::new(0.5, 0.25));
        let b = t.lookup(Complex::new(0.5 + 1e-12, 0.25 - 1e-12));
        assert_eq!(a, b);
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn tiny_values_keep_their_relative_identity_at_tight_tolerance() {
        // At the tight default (1e-13), values of magnitude ~1e-7 (Grover
        // diffusion entries at n=22) with a 1e-6 relative difference stay
        // distinct, preserving the precision of structurally tiny weights.
        let mut t = ComplexTable::new();
        let v = 4.768e-7;
        let a = t.lookup(Complex::real(v));
        let b = t.lookup(Complex::real(v * (1.0 + 1e-12)));
        assert_eq!(a, b, "FP-noise-level differences must unify");
        let c = t.lookup(Complex::real(v * (1.0 + 1e-6)));
        assert_ne!(a, c, "genuinely distinct tiny values must stay distinct");
    }

    #[test]
    fn distinguishes_beyond_tolerance() {
        let mut t = ComplexTable::new();
        let a = t.lookup(Complex::real(0.5));
        let b = t.lookup(Complex::real(0.5001));
        assert_ne!(a, b);
    }

    #[test]
    fn hadamard_product_unifies_with_half() {
        let mut t = ComplexTable::new();
        let h = t.lookup(Complex::SQRT2_INV);
        let prod = t.mul(h, h);
        let half = t.lookup(Complex::real(0.5));
        assert_eq!(prod, half);
    }

    #[test]
    fn arithmetic_shortcuts() {
        let mut t = ComplexTable::new();
        let z = t.lookup(Complex::new(0.3, -0.4));
        assert_eq!(t.mul(ComplexId::ZERO, z), ComplexId::ZERO);
        assert_eq!(t.mul(ComplexId::ONE, z), z);
        assert_eq!(t.add(ComplexId::ZERO, z), z);
        assert_eq!(t.div(z, ComplexId::ONE), z);
        assert_eq!(t.div(z, z), ComplexId::ONE);
        let minus = t.neg(z);
        assert!(t.value(minus).approx_eq(Complex::new(-0.3, 0.4), 1e-12));
        let back = t.neg(minus);
        assert_eq!(back, z);
    }

    #[test]
    fn batched_mul_matches_sequential_mul_bitwise() {
        // mul2/mul4 against a replayed table using scalar mul calls: ids,
        // table length, and every stored bit must coincide — including the
        // shortcut elements (zero/one children) and mixed cases.
        let weights = [
            Complex::SQRT2_INV,
            Complex::new(0.3, -0.4),
            Complex::new(-0.7, 0.2),
            Complex::new(0.11, 0.93),
        ];
        let mut a_t = ComplexTable::new();
        let mut b_t = ComplexTable::new();
        let a_ids: Vec<ComplexId> = weights.iter().map(|&c| a_t.lookup(c)).collect();
        let b_ids: Vec<ComplexId> = weights.iter().map(|&c| b_t.lookup(c)).collect();
        assert_eq!(a_ids, b_ids);

        let scale = a_ids[0];
        let cases2: [[ComplexId; 2]; 4] = [
            [a_ids[1], a_ids[2]],
            [ComplexId::ZERO, a_ids[3]],
            [a_ids[2], ComplexId::ONE],
            [ComplexId::ONE, ComplexId::ZERO],
        ];
        for case in cases2 {
            let batched = a_t.mul2(scale, case);
            let sequential = [b_t.mul(scale, case[0]), b_t.mul(scale, case[1])];
            assert_eq!(batched, sequential, "case {case:?}");
        }
        let case4 = [a_ids[1], ComplexId::ZERO, a_ids[2], a_ids[3]];
        assert_eq!(
            a_t.mul4(scale, case4),
            [
                b_t.mul(scale, case4[0]),
                b_t.mul(scale, case4[1]),
                b_t.mul(scale, case4[2]),
                b_t.mul(scale, case4[3]),
            ]
        );
        assert_eq!(a_t.len(), b_t.len(), "identical interning history");
        let av = a_t.values();
        let bv = b_t.values();
        for (i, (x, y)) in av.iter().zip(bv.iter()).enumerate() {
            assert_eq!(x.re.to_bits(), y.re.to_bits(), "entry {i} re");
            assert_eq!(x.im.to_bits(), y.im.to_bits(), "entry {i} im");
        }
        // Degenerate scales.
        assert_eq!(
            a_t.mul2(ComplexId::ZERO, [a_ids[1], a_ids[2]]),
            [ComplexId::ZERO; 2]
        );
        assert_eq!(
            a_t.mul2(ComplexId::ONE, [a_ids[1], a_ids[2]]),
            [a_ids[1], a_ids[2]]
        );
    }

    #[test]
    fn batched_div_matches_sequential_div_bitwise() {
        let weights = [
            Complex::new(0.3, -0.4),
            Complex::new(-0.7, 0.2),
            Complex::new(0.11, 0.93),
        ];
        let mut a_t = ComplexTable::new();
        let mut b_t = ComplexTable::new();
        let a_ids: Vec<ComplexId> = weights.iter().map(|&c| a_t.lookup(c)).collect();
        let b_ids: Vec<ComplexId> = weights.iter().map(|&c| b_t.lookup(c)).collect();
        assert_eq!(a_ids, b_ids);

        let pivot = a_ids[0];
        let cases2: [[ComplexId; 2]; 3] = [
            [a_ids[1], a_ids[2]],
            [pivot, a_ids[1]],           // a == b shortcut lane
            [ComplexId::ZERO, a_ids[2]], // zero lane
        ];
        for case in cases2 {
            let batched = a_t.div2(case, pivot);
            let sequential = [b_t.div(case[0], pivot), b_t.div(case[1], pivot)];
            assert_eq!(batched, sequential, "case {case:?}");
        }
        let case4 = [a_ids[1], pivot, ComplexId::ZERO, a_ids[2]];
        assert_eq!(
            a_t.div4(case4, pivot),
            [
                b_t.div(case4[0], pivot),
                b_t.div(case4[1], pivot),
                b_t.div(case4[2], pivot),
                b_t.div(case4[3], pivot),
            ]
        );
        assert_eq!(a_t.len(), b_t.len());
        // ONE pivot is the identity.
        assert_eq!(
            a_t.div2([a_ids[1], a_ids[2]], ComplexId::ONE),
            [a_ids[1], a_ids[2]]
        );
    }

    #[test]
    fn division_roundtrip() {
        let mut t = ComplexTable::new();
        let a = t.lookup(Complex::new(0.7, 0.1));
        let b = t.lookup(Complex::new(-0.2, 0.9));
        let q = t.div(a, b);
        let back = t.mul(q, b);
        assert_eq!(back, a);
    }

    #[test]
    fn conjugation() {
        let mut t = ComplexTable::new();
        let z = t.lookup(Complex::new(0.6, 0.8));
        let c = t.conj(z);
        assert!(t.value(c).approx_eq(Complex::new(0.6, -0.8), 1e-12));
        assert_eq!(t.conj(c), z);
        assert_eq!(t.conj(ComplexId::ONE), ComplexId::ONE);
    }

    #[test]
    #[should_panic(expected = "division by interned zero")]
    fn division_by_zero_panics() {
        let mut t = ComplexTable::new();
        let a = t.lookup(Complex::real(2.0));
        let _ = t.div(a, ComplexId::ZERO);
    }

    #[test]
    fn values_straddling_a_grid_cell_unify() {
        let mut t = ComplexTable::with_tolerance(1e-10);
        let a = t.lookup(Complex::real(2.0 - 1e-12));
        let b = t.lookup(Complex::real(2.0 + 1e-12));
        assert_eq!(a, b);
    }

    #[test]
    fn grid_boundary_values_unify() {
        let mut t = ComplexTable::with_tolerance(1e-10);
        // Construct two values straddling a quantization-cell edge.
        let width = 2e-10;
        let edge = 1234.0 * width;
        let a = t.lookup(Complex::real(edge - 1e-14));
        let b = t.lookup(Complex::real(edge + 1e-14));
        assert_eq!(a, b);
    }

    #[test]
    fn narrowed_probe_still_finds_matches_at_every_cell_fraction() {
        // Sweep probe positions across a full grid cell (including the
        // half-cell point where the neighbour choice flips and the exact
        // boundaries): a stored value within tolerance must always be
        // found, proving the skipped cells never hide a match.
        let tol = 1e-10;
        let width = 2.0 * tol;
        for base_cell in [-3i64, 0, 7, 12345] {
            let base = base_cell as f64 * width;
            for frac_num in 0..=20 {
                let x = base + width * (frac_num as f64 / 20.0);
                let probe = Complex::real(x);
                if probe.approx_zero(tol) || probe.approx_one(tol) {
                    continue; // the pinned fast paths preempt the probe
                }
                for offset in [-tol, -0.5 * tol, 0.0, 0.5 * tol, tol] {
                    let mut t = ComplexTable::with_tolerance(tol);
                    let stored = t.lookup(Complex::real(x + offset));
                    if stored == ComplexId::ZERO || stored == ComplexId::ONE {
                        continue; // pinned fast path, probe not exercised
                    }
                    // Ground truth from the stored bits: `x + offset` rounds,
                    // so an offset of exactly ±tol can land a hair outside
                    // the tolerance predicate — legitimately a miss.
                    let within = (t.value(stored).re - x).abs() <= tol;
                    let found = t.lookup(Complex::real(x));
                    assert_eq!(
                        found == stored,
                        within,
                        "cell {base_cell}, frac {frac_num}/20, offset {offset:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_count_lookups_unifications_and_probe_work() {
        let mut t = ComplexTable::new();
        assert_eq!(t.stats().lookups, 0);
        let a = t.lookup(Complex::new(0.5, 0.25)); // insert
        let b = t.lookup(Complex::new(0.5, 0.25)); // unify
        let _ = t.lookup(Complex::ZERO); // pinned
        assert_eq!(a, b);
        let s = t.stats();
        assert_eq!(s.lookups, 3);
        assert_eq!(s.inserts, 1);
        assert_eq!(s.unified, 1);
        assert!(s.buckets_probed >= 2, "both probing lookups walked cells");
        assert!(
            s.probe_entries >= 1,
            "the unifying lookup compared a candidate"
        );
        assert!(s.unify_rate() > 0.5);
        assert!(t.bucket_count() >= 3, "zero, one, and the new value");
        assert!(t.max_bucket_len() >= 1);

        let mut other = ComplexTableStats::default();
        other.accumulate(&s);
        assert_eq!(other, s);
        assert_eq!(s.delta(&s), ComplexTableStats::default());
    }

    #[test]
    fn scalar_and_simd_tables_intern_identically() {
        // The same batched multiply/divide sequence against a SIMD table and
        // a forced-scalar table: identical ids, identical stats, identical
        // stored bits.
        let mut simd_t = ComplexTable::with_tolerance_and_simd(DEFAULT_TOLERANCE, true);
        let mut scalar_t = ComplexTable::with_tolerance_and_simd(DEFAULT_TOLERANCE, false);
        assert_eq!(scalar_t.simd_level(), SimdLevel::Scalar);
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2.0
        };
        let mut ids = vec![ComplexId::ONE];
        for round in 0..500 {
            let c = Complex::new(next(), next());
            let id = simd_t.lookup(c);
            assert_eq!(id, scalar_t.lookup(c), "round {round}");
            ids.push(id);
            let pick = |k: usize| ids[(round * 7 + k * 13) % ids.len()];
            let quad = [pick(1), pick(2), pick(3), pick(4)];
            assert_eq!(
                simd_t.mul4(id, quad),
                scalar_t.mul4(id, quad),
                "round {round}"
            );
            let pair = [pick(5), pick(6)];
            assert_eq!(
                simd_t.mul2(id, pair),
                scalar_t.mul2(id, pair),
                "round {round}"
            );
            assert_eq!(
                simd_t.div4(quad, id),
                scalar_t.div4(quad, id),
                "round {round}"
            );
        }
        assert_eq!(simd_t.len(), scalar_t.len());
        assert_eq!(simd_t.stats(), scalar_t.stats());
        for (x, y) in simd_t.values().iter().zip(scalar_t.values().iter()) {
            assert_eq!(
                (x.re.to_bits(), x.im.to_bits()),
                (y.re.to_bits(), y.im.to_bits())
            );
        }
    }

    /// The interning contract spelled out by brute force: a value resolves
    /// to the first stored representative within tolerance, taking the
    /// grid cells in ascending (re, im) order and each cell's candidates in
    /// insertion order.
    struct ReferenceTable {
        tol: f64,
        values: Vec<Complex>,
    }

    impl ReferenceTable {
        fn new(tol: f64) -> Self {
            ReferenceTable {
                tol,
                values: vec![Complex::ZERO, Complex::ONE],
            }
        }

        fn lookup(&mut self, c: Complex) -> usize {
            if c.approx_zero(self.tol) {
                return 0;
            }
            if c.approx_one(self.tol) {
                return 1;
            }
            // Cell coordinates as floats, so huge components need no
            // special case: equal components share a cell.
            let cell = |x: f64| (x / (2.0 * self.tol)).floor();
            let order = |v: Complex| {
                let side = |a: f64, b: f64| a.partial_cmp(&b).unwrap();
                (side(cell(v.re), cell(c.re)), side(cell(v.im), cell(c.im)))
            };
            let best = self
                .values
                .iter()
                .enumerate()
                .filter(|(_, v)| v.approx_eq(c, self.tol))
                .min_by_key(|&(i, &v)| (order(v), i))
                .map(|(i, _)| i);
            best.unwrap_or_else(|| {
                self.values.push(c);
                self.values.len() - 1
            })
        }
    }

    #[test]
    fn lookup_agrees_with_the_brute_force_reference_model() {
        let tol = DEFAULT_TOLERANCE;
        let width = 2.0 * tol;
        let mut table = ComplexTable::with_tolerance(tol);
        let mut reference = ReferenceTable::new(tol);
        let mut state = 0x0dd5_1cea_5eed_0013u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 11
        };
        let unit = |bits: u64| bits as f64 / (1u64 << 53) as f64; // [0, 1)
        let mut stored: Vec<Complex> = Vec::new();
        let mut unified = 0;
        let check = |table: &mut ComplexTable, reference: &mut ReferenceTable, c: Complex| {
            let got = table.lookup(c).index();
            assert_eq!(got, reference.lookup(c), "lookup of {c:?}");
            got
        };
        for round in 0..6000 {
            let kind = next() % 8;
            let component = |bits: u64| -> f64 {
                let sign = if bits & 1 == 0 { 1.0 } else { -1.0 };
                match kind {
                    // Huge components: above the cell-index limit (1.8e6)
                    // only equal components can match.
                    0 => sign * (1e6 + unit(bits) * 4e6),
                    // A half-cell or cell-edge position.
                    1 => {
                        sign * (((bits >> 8) % 1000) as f64 + [0.5, 0.0, 1.0][bits as usize % 3])
                            * width
                    }
                    _ => sign * unit(bits),
                }
            };
            let c = if kind >= 5 && !stored.is_empty() {
                // Near-duplicates of earlier values, inside and just outside
                // the tolerance, and exact repeats.
                let base = stored[(next() as usize) % stored.len()];
                let offset = [0.0, 0.3, 0.99, 1.0, 1.01, 1.7][(next() % 6) as usize] * tol;
                let flip = if next() & 1 == 0 { 1.0 } else { -1.0 };
                Complex::new(base.re + flip * offset, base.im - offset)
            } else {
                Complex::new(component(next()), component(next()))
            };
            let id = check(&mut table, &mut reference, c);
            if id == stored.len() + 2 {
                stored.push(c);
            } else if id >= 2 {
                unified += 1;
            }
            if round == 3000 {
                // A restored table continues id-for-id with the original.
                let restored = ComplexTable::from_values(tol, &table.values()).unwrap();
                assert_eq!(restored.bucket_count(), table.bucket_count());
                assert_eq!(restored.max_bucket_len(), table.max_bucket_len());
                table = restored;
            }
        }
        // Past 2·2048 weights the initial 2048 slots have doubled 3 times.
        assert!(table.len() > 2 * INITIAL_SLOTS, "{} weights", table.len());
        assert_eq!(table.len(), reference.values.len());
        assert!(unified > 1000, "near-duplicates must unify: {unified}");
    }

    #[test]
    fn huge_components_get_a_cell_each() {
        // Every component past the cell-index limit used to share one
        // saturated cell, so distinct huge values piled into a single chain.
        let mut t = ComplexTable::new();
        for k in 0..100 {
            let id = t.lookup(Complex::new(2e6 + k as f64, 0.25));
            assert_eq!(t.lookup(Complex::new(2e6 + k as f64, 0.25)), id);
        }
        assert_eq!(t.len(), 102);
        assert_eq!(t.max_bucket_len(), 1);
        assert_eq!(t.bucket_count(), 102);
    }

    #[test]
    fn a_million_weights_fit_in_64_bytes_each() {
        let mut t = ComplexTable::new();
        for i in 0..1_000_000u32 {
            t.lookup(Complex::new(0.25 + f64::from(i) * 1e-7, -0.5));
        }
        assert_eq!(t.len(), 1_000_002);
        let per_weight = t.bytes() as f64 / t.len() as f64;
        assert!(per_weight <= 64.0, "{per_weight:.1} bytes per weight");
    }

    #[test]
    fn from_values_restores_ids_and_lookup_behavior() {
        let mut t = ComplexTable::new();
        let ids: Vec<ComplexId> = [
            Complex::SQRT2_INV,
            Complex::new(0.3, -0.4),
            Complex::real(0.5),
            Complex::new(-0.1, 0.2),
        ]
        .iter()
        .map(|&c| t.lookup(c))
        .collect();
        let restored = ComplexTable::from_values(t.tolerance(), &t.values()).unwrap();
        assert_eq!(restored.len(), t.len());
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(restored.value(id), t.value(id), "value {i}");
            assert_eq!(restored.norm_sqr(id), t.norm_sqr(id), "norm {i}");
        }
        // Future lookups resolve to the same representatives.
        let mut a = t.clone();
        let mut b = restored;
        let probe = Complex::new(0.3 + 1e-14, -0.4);
        assert_eq!(a.lookup(probe), b.lookup(probe));
        let fresh = Complex::new(0.77, 0.12);
        assert_eq!(a.lookup(fresh), b.lookup(fresh));
    }

    #[test]
    fn from_values_rejects_corrupt_dumps() {
        assert!(ComplexTable::from_values(1e-13, &[]).is_err());
        assert!(
            ComplexTable::from_values(1e-13, &[Complex::ONE, Complex::ONE]).is_err(),
            "entry 0 must be zero"
        );
        assert!(
            ComplexTable::from_values(1e-13, &[Complex::ZERO, Complex::ZERO]).is_err(),
            "entry 1 must be one"
        );
        assert!(ComplexTable::from_values(
            1e-13,
            &[Complex::ZERO, Complex::ONE, Complex::new(f64::NAN, 0.0)]
        )
        .is_err());
    }

    #[test]
    fn widely_separated_scales_coexist() {
        // Stay above the zero floor (the tolerance, 1e-13): 2^-40 ≈ 9e-13.
        let mut t = ComplexTable::new();
        let ids: Vec<ComplexId> = (0..40)
            .map(|k| t.lookup(Complex::real(2f64.powi(-k))))
            .collect();
        // 2^0 is ONE; all others distinct.
        for (i, &a) in ids.iter().enumerate() {
            for (j, &b) in ids.iter().enumerate() {
                if i != j {
                    assert_ne!(a, b, "2^-{i} vs 2^-{j}");
                }
            }
        }
    }
}
