//! Re-export of the shared FxHash implementation.
//!
//! The hasher was hoisted into `ddsim-complex` (the bottom crate of the
//! workspace) so the [`ComplexTable`](ddsim_complex::ComplexTable) bucket
//! map — the hottest hash lookup in the repo — can use it too. Downstream
//! users of `ddsim_dd::{fx_hash, FxHashMap, FxHasher}` are unaffected.

pub use ddsim_complex::hash::{fx_hash, FxHashMap, FxHashSet, FxHasher};
