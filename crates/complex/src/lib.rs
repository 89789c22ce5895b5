//! Complex arithmetic and tolerance-aware value interning for DD-based
//! quantum-circuit simulation.
//!
//! Items that matter to downstream crates:
//!
//! * [`Complex`] — a small `Copy` complex number over `f64`.
//! * [`ComplexTable`] — interning of complex values up to a tolerance, so the
//!   decision-diagram unique tables can key nodes on compact, canonical
//!   [`ComplexId`]s instead of raw floating-point pairs.
//! * [`hash`] — the shared FxHash implementation used by every hot-path
//!   table in the workspace (hoisted here, the bottom crate, in PR 7).
//! * [`simd`] — runtime-dispatched SSE2/AVX kernels for the leaf
//!   arithmetic, gated behind the `simd` cargo feature
//!   (default on) with a bitwise-identical scalar fallback.
//!
//! # Examples
//!
//! ```
//! use ddsim_complex::{Complex, ComplexTable};
//!
//! let mut table = ComplexTable::new();
//! let h = table.lookup(Complex::SQRT2_INV);
//! let half = table.mul(h, h);
//! assert_eq!(half, table.lookup(Complex::real(0.5)));
//! ```

pub mod hash;
pub mod simd;
mod table;
mod value;

pub use simd::SimdLevel;
pub use table::{ComplexId, ComplexTable, ComplexTableStats};
pub use value::{Complex, DEFAULT_TOLERANCE};
