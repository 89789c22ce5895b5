//! Property-based cross-validation of DD operations against the dense
//! array-based reference backend.

use ddsim_complex::Complex;
use ddsim_dd::reference::{DenseMatrix, DenseVector};
use ddsim_dd::{Control, DdConfig, DdManager, Matrix2};
use proptest::prelude::*;

const N: u32 = 4; // qubits per generated instance (dense dim 16)

fn amplitude() -> impl Strategy<Value = Complex> {
    prop_oneof![
        3 => (-1.0f64..1.0, -1.0f64..1.0).prop_map(|(re, im)| Complex::new(re, im)),
        2 => Just(Complex::ZERO),
        1 => Just(Complex::ONE),
    ]
}

fn dense_vector() -> impl Strategy<Value = Vec<Complex>> {
    proptest::collection::vec(amplitude(), 1usize << N)
}

fn dense_matrix() -> impl Strategy<Value = Vec<Vec<Complex>>> {
    proptest::collection::vec(
        proptest::collection::vec(amplitude(), 1usize << N),
        1usize << N,
    )
}

/// Unitary 2x2 matrices drawn from the common gate set.
fn gate2() -> impl Strategy<Value = Matrix2> {
    let s = Complex::SQRT2_INV;
    prop_oneof![
        Just([[Complex::ZERO, Complex::ONE], [Complex::ONE, Complex::ZERO]]), // X
        Just([[s, s], [s, -s]]),                                              // H
        Just([[Complex::ONE, Complex::ZERO], [Complex::ZERO, Complex::I]]),   // S
        Just([
            [Complex::ONE, Complex::ZERO],
            [Complex::ZERO, Complex::cis(std::f64::consts::FRAC_PI_4)]
        ]), // T
        Just([
            [Complex::ONE, Complex::ZERO],
            [Complex::ZERO, Complex::real(-1.0)]
        ]), // Z
        (0.0f64..std::f64::consts::TAU).prop_map(|theta| {
            let (s2, c2) = (theta / 2.0).sin_cos();
            [
                [Complex::real(c2), Complex::new(0.0, -s2)],
                [Complex::new(0.0, -s2), Complex::real(c2)],
            ] // Rx(theta)
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn vec_roundtrip_through_dd(amps in dense_vector()) {
        let mut dd = DdManager::new();
        let e = dd.vec_from_amplitudes(&amps);
        let back = dd.vec_to_amplitudes(e);
        for (i, (a, b)) in amps.iter().zip(back.iter()).enumerate() {
            prop_assert!(a.approx_eq(*b, 1e-8), "index {i}: {a} vs {b}");
        }
    }

    #[test]
    fn mat_vec_matches_dense(m in dense_matrix(), v in dense_vector()) {
        let mut dd = DdManager::new();
        let m_dd = dd.mat_from_dense(&m);
        let v_dd = dd.vec_from_amplitudes(&v);
        let r_dd = dd.mat_vec_mul(m_dd, v_dd).unwrap();
        let got = dd.vec_to_amplitudes(r_dd);

        let mut dense = DenseVector::from_amplitudes(v.clone());
        dense.apply(&DenseMatrix::from_rows(m.clone()));
        for (i, (a, b)) in dense.amplitudes().iter().zip(got.iter()).enumerate() {
            prop_assert!(a.approx_eq(*b, 1e-6), "index {i}: {a} vs {b}");
        }
    }

    #[test]
    fn mat_mat_matches_dense(a in dense_matrix(), b in dense_matrix()) {
        let mut dd = DdManager::new();
        let a_dd = dd.mat_from_dense(&a);
        let b_dd = dd.mat_from_dense(&b);
        let p_dd = dd.mat_mat_mul(a_dd, b_dd).unwrap();
        let got = DenseMatrix::from_rows(dd.mat_to_dense(p_dd));
        let want = DenseMatrix::from_rows(a).mul(&DenseMatrix::from_rows(b));
        prop_assert!(want.max_deviation(&got) < 1e-5);
    }

    #[test]
    fn associativity_on_dds(m1 in dense_matrix(), m2 in dense_matrix(), v in dense_vector()) {
        // The paper's Eq. 1 vs Eq. 2: (M2 × M1) × v == M2 × (M1 × v).
        let mut dd = DdManager::new();
        let m1_dd = dd.mat_from_dense(&m1);
        let m2_dd = dd.mat_from_dense(&m2);
        let v_dd = dd.vec_from_amplitudes(&v);
        let seq = {
            let t = dd.mat_vec_mul(m1_dd, v_dd).unwrap();
            dd.mat_vec_mul(m2_dd, t).unwrap()
        };
        let combined = {
            let p = dd.mat_mat_mul(m2_dd, m1_dd).unwrap();
            dd.mat_vec_mul(p, v_dd).unwrap()
        };
        let xs = dd.vec_to_amplitudes(seq);
        let ys = dd.vec_to_amplitudes(combined);
        for (i, (x, y)) in xs.iter().zip(ys.iter()).enumerate() {
            prop_assert!(x.approx_eq(*y, 1e-6), "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn gate_application_matches_dense_kernel(
        u in gate2(),
        target in 0u32..N,
        v in dense_vector(),
    ) {
        let mut dd = DdManager::new();
        let g = dd.mat_single_qubit(N, target, u);
        let v_dd = dd.vec_from_amplitudes(&v);
        let r = dd.mat_vec_mul(g, v_dd).unwrap();
        let got = dd.vec_to_amplitudes(r);

        let mut dense = DenseVector::from_amplitudes(v);
        dense.apply_single_qubit(u, target, &[]);
        for (i, (a, b)) in dense.amplitudes().iter().zip(got.iter()).enumerate() {
            prop_assert!(a.approx_eq(*b, 1e-7), "index {i}");
        }
    }

    #[test]
    fn controlled_gate_matches_dense_kernel(
        u in gate2(),
        (target, control) in (0u32..N, 0u32..N).prop_filter("distinct", |(t, c)| t != c),
        v in dense_vector(),
    ) {
        let mut dd = DdManager::new();
        let g = dd.mat_controlled(N, &[Control::pos(control)], target, u);
        let v_dd = dd.vec_from_amplitudes(&v);
        let r = dd.mat_vec_mul(g, v_dd).unwrap();
        let got = dd.vec_to_amplitudes(r);

        let mut dense = DenseVector::from_amplitudes(v);
        dense.apply_single_qubit(u, target, &[control]);
        for (i, (a, b)) in dense.amplitudes().iter().zip(got.iter()).enumerate() {
            prop_assert!(a.approx_eq(*b, 1e-7), "index {i}");
        }
    }

    #[test]
    fn unitary_gates_preserve_norm(u in gate2(), target in 0u32..N, v in dense_vector()) {
        let norm = v.iter().map(|a| a.norm_sqr()).sum::<f64>();
        prop_assume!(norm > 1e-6);
        let mut dd = DdManager::new();
        let g = dd.mat_single_qubit(N, target, u);
        let v_dd = dd.vec_from_amplitudes(&v);
        let r = dd.mat_vec_mul(g, v_dd).unwrap();
        let after = dd.vec_norm_sqr(r);
        prop_assert!((after - norm).abs() / norm < 1e-6);
    }

    #[test]
    fn gate_unitarity_u_dagger_u(u in gate2(), target in 0u32..N) {
        let mut dd = DdManager::new();
        let g = dd.mat_single_qubit(N, target, u);
        let gd = dd.mat_conj_transpose(g).unwrap();
        let p = dd.mat_mat_mul(gd, g).unwrap();
        let id = dd.mat_identity(N);
        let dense_p = DenseMatrix::from_rows(dd.mat_to_dense(p));
        let dense_id = DenseMatrix::from_rows(dd.mat_to_dense(id));
        prop_assert!(dense_p.max_deviation(&dense_id) < 1e-8);
    }

    #[test]
    fn addition_commutes_and_matches_dense(a in dense_vector(), b in dense_vector()) {
        let mut dd = DdManager::new();
        let a_dd = dd.vec_from_amplitudes(&a);
        let b_dd = dd.vec_from_amplitudes(&b);
        let ab = dd.add_vec(a_dd, b_dd).unwrap();
        let ba = dd.add_vec(b_dd, a_dd).unwrap();
        prop_assert_eq!(ab, ba);
        let got = dd.vec_to_amplitudes(ab);
        for i in 0..a.len() {
            prop_assert!(got[i].approx_eq(a[i] + b[i], 1e-7), "index {i}");
        }
    }

    #[test]
    fn canonicity_same_vector_same_edge(amps in dense_vector()) {
        let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>();
        prop_assume!(norm > 1e-6);
        let mut dd = DdManager::new();
        let e1 = dd.vec_from_amplitudes(&amps);
        let e2 = dd.vec_from_amplitudes(&amps);
        prop_assert_eq!(e1, e2);
    }

    #[test]
    fn permutation_dd_is_unitary(seed in 0u64..1000) {
        // Build a pseudo-random permutation on 2^N from a seeded shuffle.
        let size = 1u64 << N;
        let mut perm: Vec<u64> = (0..size).collect();
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for i in (1..size as usize).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let mut dd = DdManager::new();
        let m = dd.mat_permutation(N, |x| perm[x as usize]);
        let md = dd.mat_conj_transpose(m).unwrap();
        let p = dd.mat_mat_mul(md, m).unwrap();
        let id = dd.mat_identity(N);
        prop_assert_eq!(p, id);
    }

    #[test]
    fn measurement_probabilities_match_dense(v in dense_vector(), qubit in 0u32..N) {
        let norm = v.iter().map(|a| a.norm_sqr()).sum::<f64>();
        prop_assume!(norm > 1e-6);
        let normalized: Vec<Complex> = v.iter().map(|a| *a * (1.0 / norm.sqrt())).collect();
        let mut dd = DdManager::new();
        let e = dd.vec_from_amplitudes(&normalized);
        let p1 = dd.prob_one(e, qubit);
        let bit = 1u64 << (N - 1 - qubit);
        let want: f64 = normalized
            .iter()
            .enumerate()
            .filter(|(i, _)| (*i as u64) & bit != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum();
        prop_assert!((p1 - want).abs() < 1e-7, "p1 {p1} vs dense {want}");
    }

    #[test]
    fn collapse_preserves_conditional_distribution(v in dense_vector(), qubit in 0u32..N) {
        let norm = v.iter().map(|a| a.norm_sqr()).sum::<f64>();
        prop_assume!(norm > 1e-6);
        let normalized: Vec<Complex> = v.iter().map(|a| *a * (1.0 / norm.sqrt())).collect();
        let mut dd = DdManager::new();
        let e = dd.vec_from_amplitudes(&normalized);
        let p1 = dd.prob_one(e, qubit);
        prop_assume!(p1 > 1e-3 && p1 < 1.0 - 1e-3);
        let c = dd.collapse(e, qubit, true);
        prop_assert!((dd.vec_norm_sqr(c) - 1.0).abs() < 1e-7);
        let amps = dd.vec_to_amplitudes(c);
        let bit = 1u64 << (N - 1 - qubit);
        let scale = 1.0 / p1.sqrt();
        for (i, got) in amps.iter().enumerate() {
            let want = if (i as u64) & bit != 0 {
                normalized[i] * scale
            } else {
                Complex::ZERO
            };
            prop_assert!(got.approx_eq(want, 1e-6), "index {i}");
        }
    }
}

// ---------------------------------------------------------------------------
// Memoization transparency: the compute tables must never change *what* is
// computed, only how fast. Because recomputation replays the identical
// arithmetic on identical interned operands and node construction is
// hash-consed, runs with caches on and off must agree on every amplitude
// BIT FOR BIT — not just within tolerance.
// ---------------------------------------------------------------------------

/// A random gate sequence: `(gate, target, optional control)` triples
/// (a drawn control of `N` means "uncontrolled").
fn random_ops() -> impl Strategy<Value = Vec<(Matrix2, u32, Option<u32>)>> {
    proptest::collection::vec(
        (gate2(), 0u32..N, 0u32..N + 1)
            .prop_map(|(u, t, c)| (u, t, if c == N { None } else { Some(c) })),
        1..24,
    )
}

/// Applies `ops` to |0…0⟩ under `config`, optionally forcing a garbage
/// collection after every gate, and returns the final amplitudes.
fn run_ops(
    config: DdConfig,
    ops: &[(Matrix2, u32, Option<u32>)],
    gc_each_gate: bool,
) -> Vec<Complex> {
    let mut dd = DdManager::with_config(config);
    let mut state = dd.vec_basis(N, 0);
    dd.inc_ref_vec(state);
    for (u, target, control) in ops {
        let gate = match control {
            Some(c) if c != target => dd.mat_controlled(N, &[Control::pos(*c)], *target, *u),
            _ => dd.mat_single_qubit(N, *target, *u),
        };
        let next = dd.mat_vec_mul(gate, state).unwrap();
        dd.dec_ref_vec(state);
        dd.inc_ref_vec(next);
        state = next;
        if gc_each_gate {
            dd.collect_garbage();
        }
    }
    dd.vec_to_amplitudes(state)
}

fn assert_bitwise_equal(a: &[Complex], b: &[Complex]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(
            x.re.to_bits(),
            y.re.to_bits(),
            "re differs at index {i}: {x} vs {y}"
        );
        assert_eq!(
            x.im.to_bits(),
            y.im.to_bits(),
            "im differs at index {i}: {x} vs {y}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn caches_on_and_off_agree_bitwise(ops in random_ops()) {
        let on = run_ops(DdConfig::default(), &ops, false);
        let off = run_ops(
            DdConfig { cache_enabled: false, ..DdConfig::default() },
            &ops,
            false,
        );
        assert_bitwise_equal(&on, &off);
    }

    #[test]
    fn tiny_tables_agree_bitwise(ops in random_ops()) {
        // 2^2-slot tables evict on almost every insert; lossiness must not
        // leak into results.
        let on = run_ops(DdConfig::default(), &ops, false);
        let tiny = run_ops(
            DdConfig { compute_table_bits: 2, unique_table_bits: 1, ..DdConfig::default() },
            &ops,
            false,
        );
        assert_bitwise_equal(&on, &tiny);
    }

    #[test]
    fn identity_skip_on_and_off_agree_bitwise(ops in random_ops()) {
        // The identity short-circuits return the edge the generic recursion
        // would have produced (the recursion's arithmetic reduces to
        // `mul(ONE, x) = x` fast paths on identity operands), so on these
        // short circuits skipping is invisible even at the bit level. Long
        // runs can intern different representatives and differ by rounding
        // (DESIGN.md §9).
        let on = run_ops(DdConfig::default(), &ops, false);
        let off = run_ops(
            DdConfig { identity_skip: false, ..DdConfig::default() },
            &ops,
            false,
        );
        assert_bitwise_equal(&on, &off);
    }

    #[test]
    fn specialized_kernels_match_generic(ops in random_ops()) {
        // The specialized apply kernels skip the gate-matrix DD and with it
        // that DD's normalization pivots, so they associate the same scalar
        // products differently — e.g. fl(s·v0) + fl(s·v1) where the generic
        // recursion computes fl(s·(v0 + v1)). Single-step drift is ≤ a few
        // ulp and usually collapses to the same interned weight, but over a
        // deep random circuit it can straddle a 1e-13 interning bucket, so
        // exact edge equality is checked only for shallow circuits (see the
        // module tests in apply.rs); here the two paths must agree on every
        // amplitude far below the weight-unification tolerance.
        let mut dd = DdManager::new();
        let mut generic = dd.vec_basis(N, 0);
        let mut fast = generic;
        dd.inc_ref_vec(generic);
        dd.inc_ref_vec(fast);
        for (u, target, control) in &ops {
            let (gate, next_fast) = match control {
                Some(c) if c != target => {
                    let ctrls = [Control::pos(*c)];
                    (
                        dd.mat_controlled(N, &ctrls, *target, *u),
                        dd.apply_controlled(&ctrls, *target, *u, fast).unwrap(),
                    )
                }
                _ => (
                    dd.mat_single_qubit(N, *target, *u),
                    dd.apply_single_qubit(*target, *u, fast).unwrap(),
                ),
            };
            let next_generic = dd.mat_vec_mul(gate, generic).unwrap();
            dd.dec_ref_vec(generic);
            dd.dec_ref_vec(fast);
            dd.inc_ref_vec(next_generic);
            dd.inc_ref_vec(next_fast);
            generic = next_generic;
            fast = next_fast;
        }
        let want = dd.vec_to_amplitudes(generic);
        let got = dd.vec_to_amplitudes(fast);
        for (i, (x, y)) in want.iter().zip(got.iter()).enumerate() {
            prop_assert!(x.approx_eq(*y, 1e-10), "index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn gc_surviving_caches_stay_correct(ops in random_ops()) {
        // Collecting after every gate exercises the epoch invalidation on
        // each step: stale entries must be dropped, surviving ones reused.
        // Across *different GC schedules* bitwise identity is not expected
        // — addition canonicalizes operand order by node id, and GC changes
        // allocation history, so `b/a` may round where the calm run
        // computed `a/b` — but the amplitudes must agree to far better
        // than the weight-unification tolerance.
        let calm = run_ops(DdConfig::default(), &ops, false);
        let churned = run_ops(DdConfig::default(), &ops, true);
        prop_assert_eq!(calm.len(), churned.len());
        for (i, (x, y)) in calm.iter().zip(churned.iter()).enumerate() {
            prop_assert!(x.approx_eq(*y, 1e-9), "index {i}: {x} vs {y}");
        }
    }
}
