//! Specialized gate-application kernels that never build a gate matrix.
//!
//! A padded elementary gate `I ⊗ U ⊗ I` is almost entirely identity: the
//! generic [`mat_vec_mul`](crate::DdManager::mat_vec_mul) recursion walks
//! matrix and state in lockstep through every one of those identity levels,
//! paying compute-table lookups and trivial additions just to copy the
//! state. The kernels here descend the *state* DD alone: levels above the
//! gate recurse with two child calls and no additions, control levels
//! recurse into the firing branch only, and the target level combines the
//! two whole sub-state edges with scalar weights — work proportional to the
//! state structure above the gate, independent of how many identity levels
//! sit below it.
//!
//! Results are memoized in the `apply_gate` compute table, keyed on an
//! interned *operation tag* plus the state node. Tags are allocated per
//! distinct `(target level, controls, 2x2 weights)` signature, so repeated
//! applications of the same gate hit the cache even across circuit layers,
//! without a matrix DD to key on. Even tags cache the application
//! recursion; the tag plus one caches the control-projection recursion used
//! for controls below the target.

use std::collections::HashMap;

use ddsim_complex::{Complex, ComplexId};

use crate::edge::{Level, NodeId, VecEdge};
use crate::error::DdError;
use crate::govern::{gtry, Governance, Governed, Ungoverned};
use crate::manager::DdManager;
use crate::matrix::{Control, ControlPolarity, Matrix2};
use crate::ops::live;

/// A canonical specialized-gate signature: everything the kernel needs,
/// with weights interned so equality is id equality.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct ApplySignature {
    target_level: Level,
    /// `(level, fires_on_one)` pairs, sorted by level descending.
    controls: Vec<(Level, bool)>,
    weights: [ComplexId; 4],
}

/// One interned operation, split into what each recursion phase consumes.
#[derive(Clone, Debug)]
pub(crate) struct ApplyOp {
    /// Cache tag for the application recursion (`tag + 1` caches the
    /// below-target projection recursion).
    tag: u32,
    target_level: Level,
    /// Controls above the target, `(level, fires_on_one)`, level descending.
    ctrls_above: Vec<(Level, bool)>,
    /// Controls below the target, `(level, fires_on_one)`, level descending.
    ctrls_below: Vec<(Level, bool)>,
    /// Interned gate entries `[u00, u01, u10, u11]`.
    w: [ComplexId; 4],
    /// Interned `U − I` entries, used when controls sit below the target
    /// (the `M = I + P ⊗ (U − I)` decomposition restricted to the state).
    d: [ComplexId; 4],
}

/// Signature → tag interning store, owned by the manager. Operations are
/// never invalidated: they reference only interned weights, not nodes.
#[derive(Debug, Default)]
pub(crate) struct ApplyOpRegistry {
    ops: Vec<ApplyOp>,
    sigs: HashMap<ApplySignature, u32>,
}

impl DdManager {
    /// Applies the single-qubit gate `u` on `target` to `state` without
    /// building a matrix DD, descending the state directly and skipping
    /// every identity level.
    ///
    /// Agrees with `mat_vec_mul(mat_single_qubit(n, target, u), state)` to
    /// within 1e-10 per amplitude, not bitwise: the two paths associate
    /// the scalar products differently, so weights can intern to different
    /// representatives and the final DDs can differ in node count. Falls
    /// back to exactly that generic path when
    /// [`DdConfig::identity_skip`](crate::DdConfig) is disabled.
    ///
    /// # Panics
    ///
    /// Panics if `target` is out of range for the state's qubit count.
    pub fn apply_single_qubit(
        &mut self,
        target: u32,
        u: Matrix2,
        state: VecEdge,
    ) -> Result<VecEdge, DdError> {
        self.apply_gate(&[], target, u, state)
    }

    /// Applies the controlled gate (`u` on `target`, firing when every
    /// control matches its polarity) to `state` without building a matrix
    /// DD. Controls above the target restrict the descent to the firing
    /// branch; controls below are handled by a projection recursion over
    /// the target's sub-states.
    ///
    /// Agrees with the generic `mat_controlled` + `mat_vec_mul` path to
    /// within 1e-10 per amplitude, not bitwise (see
    /// [`apply_single_qubit`](Self::apply_single_qubit)); falls back to it
    /// when [`DdConfig::identity_skip`](crate::DdConfig) is disabled.
    ///
    /// # Panics
    ///
    /// Panics if `target` or a control is out of range, or a control
    /// coincides with the target.
    pub fn apply_controlled(
        &mut self,
        controls: &[Control],
        target: u32,
        u: Matrix2,
        state: VecEdge,
    ) -> Result<VecEdge, DdError> {
        self.apply_gate(controls, target, u, state)
    }

    fn apply_gate(
        &mut self,
        controls: &[Control],
        target: u32,
        u: Matrix2,
        state: VecEdge,
    ) -> Result<VecEdge, DdError> {
        if state.is_zero() {
            return Ok(VecEdge::ZERO);
        }
        let n = self.vec_level(state);
        assert!(target < n, "target qubit out of range");
        for c in controls {
            assert!(c.qubit < n, "control qubit out of range");
            assert_ne!(c.qubit, target, "control coincides with target");
        }
        if !self.config.identity_skip {
            // Ablation path: identical arithmetic to the engine's generic
            // route, so `--no-identity-skip` comparisons are exact.
            let m = if controls.is_empty() {
                self.mat_single_qubit(n, target, u)
            } else {
                self.mat_controlled(n, controls, target, u)
            };
            return self.mat_vec_mul(m, state);
        }
        self.stats.mat_vec_mults += 1;
        self.stats.specialized_applies += 1;
        // One dispatch per top-level gate application, like the entry
        // points in `ops.rs`.
        if self.is_governed() {
            // Entry-point charge: a fully cache-served gate stream must
            // still observe budgets/deadline/cancellation within one
            // interval.
            self.charge()?;
            let op = self.intern_apply_op(n, controls, target, u);
            self.apply_op_edge::<Governed>(&op, state)
        } else {
            let op = self.intern_apply_op(n, controls, target, u);
            Ok(self.apply_op_edge::<Ungoverned>(&op, state))
        }
    }

    /// Interns the operation signature, allocating a fresh tag pair on
    /// first sight.
    fn intern_apply_op(
        &mut self,
        n: u32,
        controls: &[Control],
        target: u32,
        u: Matrix2,
    ) -> ApplyOp {
        let target_level = self.var_order.level_of(n, target);
        let force_positive = self.config.fault == crate::FaultKind::NegativeControlsIgnored;
        let mut ctrls: Vec<(Level, bool)> = controls
            .iter()
            .map(|c| {
                // Injected fault: every control fires on |1⟩.
                (
                    self.var_order.level_of(n, c.qubit),
                    force_positive || c.polarity == ControlPolarity::Positive,
                )
            })
            .collect();
        // Stable sort: the first listed control wins on (pathological)
        // duplicate qubits, matching `mat_controlled`'s `find`.
        ctrls.sort_by_key(|c| std::cmp::Reverse(c.0));
        let weights = [
            self.intern(u[0][0]),
            self.intern(u[0][1]),
            self.intern(u[1][0]),
            self.intern(u[1][1]),
        ];
        let sig = ApplySignature {
            target_level,
            controls: ctrls.clone(),
            weights,
        };
        if let Some(&idx) = self.apply_ops.sigs.get(&sig) {
            return self.apply_ops.ops[idx as usize].clone();
        }
        let d = [
            self.intern(u[0][0] - Complex::ONE),
            weights[1],
            weights[2],
            self.intern(u[1][1] - Complex::ONE),
        ];
        let split = ctrls.partition_point(|&(level, _)| level > target_level);
        let (above, below) = ctrls.split_at(split);
        let idx = u32::try_from(self.apply_ops.ops.len()).expect("apply-op overflow");
        let op = ApplyOp {
            // Two tags per op: even for application, odd for projection.
            tag: idx.checked_mul(2).expect("apply-op tag overflow"),
            target_level,
            ctrls_above: above.to_vec(),
            ctrls_below: below.to_vec(),
            w: weights,
            d,
        };
        self.apply_ops.ops.push(op.clone());
        self.apply_ops.sigs.insert(sig, idx);
        op
    }

    /// Weight-factored, memoized application of `op` to a state edge at or
    /// above the target level.
    fn apply_op_edge<G: Governance>(&mut self, op: &ApplyOp, v: VecEdge) -> G::Res<VecEdge> {
        if v.is_zero() {
            return G::wrap(VecEdge::ZERO);
        }
        debug_assert!(self.vec_level(v) >= op.target_level);
        let outer = v.weight;
        let key = (op.tag, v.node);
        let vfe = &self.vec_arena;
        let unit = if let Some(cached) = self
            .compute
            .apply_gate
            .lookup(&key, |k, r, ep| live(vfe, k.1, ep) && live(vfe, r.node, ep))
        {
            cached
        } else {
            let computed = gtry!(self.apply_op_rec::<G>(op, v.node));
            let epoch = self.epoch;
            self.compute.apply_gate.insert(key, computed, epoch);
            computed
        };
        G::wrap(VecEdge {
            node: unit.node,
            weight: self.complex.mul(unit.weight, outer),
        })
    }

    fn apply_op_rec<G: Governance>(&mut self, op: &ApplyOp, id: NodeId) -> G::Res<VecEdge> {
        self.stats.mult_recursions += 1;
        gtry!(G::charge(self));
        let node = *self.vec_node(id);
        let [v0, v1] = node.edges;
        if node.level == op.target_level {
            let (lo, hi) = if op.ctrls_below.is_empty() {
                // [u00 u01; u10 u11] acts on the two whole sub-states: four
                // scalar-scaled edges and two additions, nothing below the
                // target is visited.
                let x0 = self.scale_vec(op.w[0], v0);
                let y0 = self.scale_vec(op.w[1], v1);
                let lo = gtry!(self.add_vec_inner::<G>(x0, y0));
                let x1 = self.scale_vec(op.w[2], v0);
                let y1 = self.scale_vec(op.w[3], v1);
                (lo, gtry!(self.add_vec_inner::<G>(x1, y1)))
            } else {
                // M = I + P ⊗ (U − I) restricted to the state: with pᵢ the
                // projection of vᵢ onto the firing control pattern,
                //   lo = v0 + (u00−1)·p0 + u01·p1
                //   hi = v1 + u10·p0 + (u11−1)·p1.
                let p0 = gtry!(self.apply_project_edge::<G>(op, v0));
                let p1 = gtry!(self.apply_project_edge::<G>(op, v1));
                let lo = {
                    let a = self.scale_vec(op.d[0], p0);
                    let a = gtry!(self.add_vec_inner::<G>(v0, a));
                    let b = self.scale_vec(op.d[1], p1);
                    gtry!(self.add_vec_inner::<G>(a, b))
                };
                let hi = {
                    let a = self.scale_vec(op.d[2], p0);
                    let a = gtry!(self.add_vec_inner::<G>(v1, a));
                    let b = self.scale_vec(op.d[3], p1);
                    gtry!(self.add_vec_inner::<G>(a, b))
                };
                (lo, hi)
            };
            return G::wrap(self.make_vec_node(node.level, [lo, hi]));
        }
        let ctrl = op
            .ctrls_above
            .iter()
            .find(|&&(level, _)| level == node.level);
        let (lo, hi) = match ctrl {
            // The gate fires only in the matching branch; the other child
            // passes through untouched.
            Some(&(_, true)) => (v0, gtry!(self.apply_op_edge::<G>(op, v1))),
            Some(&(_, false)) => (gtry!(self.apply_op_edge::<G>(op, v0)), v1),
            None => {
                let lo = gtry!(self.apply_op_edge::<G>(op, v0));
                (lo, gtry!(self.apply_op_edge::<G>(op, v1)))
            }
        };
        G::wrap(self.make_vec_node(node.level, [lo, hi]))
    }

    /// Weight-factored, memoized projection of a below-target state edge
    /// onto `op`'s firing control pattern. Below the lowest control the
    /// projection is the identity and the edge is returned as-is.
    fn apply_project_edge<G: Governance>(&mut self, op: &ApplyOp, v: VecEdge) -> G::Res<VecEdge> {
        if v.is_zero() {
            return G::wrap(VecEdge::ZERO);
        }
        // Invariant (not a reachable failure): callers only enter the
        // projection recursion when `ctrls_below` is non-empty — see
        // `apply_op_rec`'s target-level branch.
        let lowest = op
            .ctrls_below
            .last()
            .expect("projection without below-target controls")
            .0;
        if self.vec_level(v) < lowest {
            return G::wrap(v);
        }
        let outer = v.weight;
        let key = (op.tag + 1, v.node);
        let vfe = &self.vec_arena;
        let unit = if let Some(cached) = self
            .compute
            .apply_gate
            .lookup(&key, |k, r, ep| live(vfe, k.1, ep) && live(vfe, r.node, ep))
        {
            cached
        } else {
            let computed = gtry!(self.apply_project_rec::<G>(op, v.node));
            let epoch = self.epoch;
            self.compute.apply_gate.insert(key, computed, epoch);
            computed
        };
        G::wrap(VecEdge {
            node: unit.node,
            weight: self.complex.mul(unit.weight, outer),
        })
    }

    fn apply_project_rec<G: Governance>(&mut self, op: &ApplyOp, id: NodeId) -> G::Res<VecEdge> {
        self.stats.mult_recursions += 1;
        gtry!(G::charge(self));
        let node = *self.vec_node(id);
        let [v0, v1] = node.edges;
        let ctrl = op
            .ctrls_below
            .iter()
            .find(|&&(level, _)| level == node.level);
        let (lo, hi) = match ctrl {
            Some(&(_, true)) => (VecEdge::ZERO, gtry!(self.apply_project_edge::<G>(op, v1))),
            Some(&(_, false)) => (gtry!(self.apply_project_edge::<G>(op, v0)), VecEdge::ZERO),
            None => {
                let lo = gtry!(self.apply_project_edge::<G>(op, v0));
                (lo, gtry!(self.apply_project_edge::<G>(op, v1)))
            }
        };
        G::wrap(self.make_vec_node(node.level, [lo, hi]))
    }

    #[inline]
    fn scale_vec(&mut self, w: ComplexId, e: VecEdge) -> VecEdge {
        if w.is_zero() || e.is_zero() {
            VecEdge::ZERO
        } else {
            VecEdge {
                node: e.node,
                weight: self.complex.mul(w, e.weight),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DdConfig;

    fn h_gate() -> Matrix2 {
        let h = Complex::SQRT2_INV;
        [[h, h], [h, -h]]
    }

    fn x_gate() -> Matrix2 {
        [[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]]
    }

    fn t_gate() -> Matrix2 {
        [
            [Complex::ONE, Complex::ZERO],
            [
                Complex::ZERO,
                Complex::new(
                    std::f64::consts::FRAC_1_SQRT_2,
                    std::f64::consts::FRAC_1_SQRT_2,
                ),
            ],
        ]
    }

    /// Specialized and generic application must return the *same edge* —
    /// hash-consing makes state equality edge equality within one manager.
    #[test]
    fn specialized_single_qubit_matches_generic_edges() {
        let mut dd = DdManager::new();
        let n = 6;
        let mut state = dd.vec_basis(n, 0b010011);
        // A few layers to give the state structure first.
        for (target, u) in [(0, h_gate()), (3, h_gate()), (5, t_gate())] {
            let m = dd.mat_single_qubit(n, target, u);
            state = dd.mat_vec_mul(m, state).unwrap();
        }
        for target in 0..n {
            let m = dd.mat_single_qubit(n, target, h_gate());
            let generic = dd.mat_vec_mul(m, state).unwrap();
            let fast = dd.apply_single_qubit(target, h_gate(), state).unwrap();
            assert_eq!(generic, fast, "target {target}");
        }
    }

    #[test]
    fn specialized_controlled_matches_generic_edges() {
        let mut dd = DdManager::new();
        let n = 5;
        let mut state = dd.vec_basis(n, 0);
        for target in 0..n {
            let m = dd.mat_single_qubit(n, target, h_gate());
            state = dd.mat_vec_mul(m, state).unwrap();
        }
        let cases: &[(&[Control], u32)] = &[
            (&[Control::pos(0)], 4),                  // control above target
            (&[Control::pos(4)], 0),                  // control below target
            (&[Control::neg(2)], 3),                  // negative control above
            (&[Control::pos(1), Control::neg(4)], 2), // both sides
            (&[Control::pos(3), Control::pos(4)], 1), // two below
        ];
        for &(controls, target) in cases {
            let m = dd.mat_controlled(n, controls, target, x_gate());
            let generic = dd.mat_vec_mul(m, state).unwrap();
            let fast = dd
                .apply_controlled(controls, target, x_gate(), state)
                .unwrap();
            assert_eq!(generic, fast, "controls {controls:?} target {target}");
        }
    }

    /// The specialized kernel's work must not scale with the number of
    /// identity levels below the gate (the acceptance criterion): applying
    /// a top-qubit gate costs the same recursion count on 8 and on 20
    /// qubits of basis state.
    #[test]
    fn top_qubit_apply_cost_is_independent_of_width() {
        let mut recursions = Vec::new();
        for n in [8u32, 14, 20] {
            let mut dd = DdManager::new();
            let state = dd.vec_basis(n, 0);
            let before = dd.stats().mult_recursions;
            let _ = dd.apply_single_qubit(0, h_gate(), state).unwrap();
            recursions.push(dd.stats().mult_recursions - before);
        }
        assert_eq!(
            recursions[0], recursions[2],
            "specialized apply must not recurse through identity levels: {recursions:?}"
        );
        // Controlled gate on the top two qubits: same property.
        let mut recursions = Vec::new();
        for n in [8u32, 20] {
            let mut dd = DdManager::new();
            let h = dd.mat_single_qubit(n, 0, h_gate());
            let state = {
                let s = dd.vec_basis(n, 0);
                dd.mat_vec_mul(h, s).unwrap()
            };
            let before = dd.stats().mult_recursions;
            let _ = dd
                .apply_controlled(&[Control::pos(0)], 1, x_gate(), state)
                .unwrap();
            recursions.push(dd.stats().mult_recursions - before);
        }
        assert_eq!(recursions[0], recursions[1], "{recursions:?}");
    }

    /// Satellite: every public multiply entry point bumps exactly one
    /// top-level counter, on both the fast and the fallback path.
    #[test]
    fn every_multiply_entry_point_counts_once() {
        for identity_skip in [true, false] {
            let config = DdConfig {
                identity_skip,
                ..DdConfig::default()
            };
            let mut dd = DdManager::with_config(config);
            let n = 4;
            let state = dd.vec_basis(n, 0b1010);
            let h = dd.mat_single_qubit(n, 1, h_gate());
            dd.reset_stats();

            let _ = dd.mat_vec_mul(h, state).unwrap();
            let s = dd.stats();
            assert_eq!((s.mat_vec_mults, s.mat_mat_mults), (1, 0));

            let _ = dd.mat_mat_mul(h, h).unwrap();
            let s = dd.stats();
            assert_eq!((s.mat_vec_mults, s.mat_mat_mults), (1, 1));

            let _ = dd.apply_single_qubit(2, h_gate(), state).unwrap();
            let s = dd.stats();
            assert_eq!((s.mat_vec_mults, s.mat_mat_mults), (2, 1));
            assert_eq!(s.specialized_applies, u64::from(identity_skip));

            let _ = dd
                .apply_controlled(&[Control::pos(0)], 3, x_gate(), state)
                .unwrap();
            let s = dd.stats();
            assert_eq!((s.mat_vec_mults, s.mat_mat_mults), (3, 1));
            assert_eq!(s.specialized_applies, 2 * u64::from(identity_skip));
        }
    }

    #[test]
    fn repeated_application_hits_the_apply_cache() {
        let mut dd = DdManager::new();
        let state = dd.vec_basis(6, 0b101101);
        let first = dd
            .apply_controlled(&[Control::pos(2)], 4, x_gate(), state)
            .unwrap();
        let before = dd.stats().mult_recursions;
        let second = dd
            .apply_controlled(&[Control::pos(2)], 4, x_gate(), state)
            .unwrap();
        assert_eq!(first, second);
        assert_eq!(
            dd.stats().mult_recursions,
            before,
            "second application must be fully cached"
        );
        assert!(dd.stats().cache.apply_gate.hits > 0);
    }

    #[test]
    fn apply_survives_garbage_collection() {
        let mut dd = DdManager::new();
        let mut state = dd.vec_basis(5, 0);
        dd.inc_ref_vec(state);
        for i in 0..5 {
            let next = dd.apply_single_qubit(i, h_gate(), state).unwrap();
            dd.inc_ref_vec(next);
            dd.dec_ref_vec(state);
            state = next;
            dd.collect_garbage();
        }
        let norm = dd.vec_norm_sqr(state);
        assert!((norm - 1.0).abs() < 1e-10, "norm {norm}");
    }
}
