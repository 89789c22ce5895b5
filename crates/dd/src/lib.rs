//! Decision-diagram (QMDD-style) package for quantum-circuit simulation.
//!
//! This crate implements the data structure the paper's contribution runs
//! on: edge-weighted decision diagrams for state vectors (2 successors per
//! node) and unitary matrices (4 successors per node), with
//!
//! * hash-consing unique tables for maximal node sharing,
//! * canonical edge-weight normalization (largest-magnitude child weight
//!   pulled to the incoming edge, keeping stored weights at magnitude ≤ 1),
//! * memoized addition, matrix-vector, and matrix-matrix multiplication,
//! * direct DD construction from permutation functions and sparse matrices
//!   (the primitive behind the paper's *DD-construct* strategy),
//! * measurement, collapse, and sampling,
//! * reference-counting garbage collection,
//! * a dense array-based [`reference`](mod@crate::reference) backend for validation.
//!
//! # Examples
//!
//! Simulating the paper's Example 1 (Fig. 1):
//!
//! ```
//! use ddsim_complex::Complex;
//! use ddsim_dd::{Control, DdManager};
//!
//! let mut dd = DdManager::new();
//! let h = Complex::SQRT2_INV;
//! let state = dd.vec_basis(2, 0b01);
//! let h_gate = dd.mat_single_qubit(2, 0, [[h, h], [h, -h]]);
//! let cx = dd.mat_controlled(
//!     2,
//!     &[Control::pos(0)],
//!     1,
//!     [[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]],
//! );
//! let state = dd.mat_vec_mul(h_gate, state)?;
//! let state = dd.mat_vec_mul(cx, state)?;
//! assert!(dd.vec_amplitude(state, 0b01).approx_eq(h, 1e-12));
//! assert!(dd.vec_amplitude(state, 0b10).approx_eq(h, 1e-12));
//! # Ok::<(), ddsim_dd::DdError>(())
//! ```

mod apply;
mod audit;
mod compute;
mod edge;
mod error;
mod export;
mod fault;
mod govern;
mod hash;
mod manager;
mod matrix;
mod measure;
mod ops;
pub mod pool;
pub mod reference;
mod reorder;
pub mod snapshot;
mod unique;
mod vector;

pub use compute::{CacheStats, TableStats, UniqueTableStats};
pub use edge::{Level, MatEdge, NodeId, VecEdge};
pub use error::{BudgetBreach, CancelToken, DdError, Resource};
pub use fault::FaultKind;
pub use hash::{fx_hash, FxHashMap, FxHasher};
pub use manager::{DdConfig, DdManager, DdStats};
pub use matrix::{Control, ControlPolarity, Matrix2};
pub use pool::{Par, ThreadPool};
pub use reorder::{ReorderStats, VarOrder};
pub use snapshot::{fnv1a, sync_parent_dir, Snapshot, SnapshotError};
