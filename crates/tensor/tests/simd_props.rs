//! SIMD == scalar bitwise pinning for the dense kernels.
//!
//! Every case runs the dispatched kernel with the SIMD path *forced on*
//! (in-process `FUIOV_SIMD=1`; on a host without AVX2 this resolves back
//! to scalar and the assertion is trivially true) and compares it, bit
//! for bit, against the pinned scalar reference. Lengths sweep `0..=67`
//! so every tail-residue class of the 4- and 8-lane kernels — ragged
//! 8-column groups, ragged 8-row blocks, sub-width inputs — is hit.

use fuiov_tensor::{simd, vector, Mat};
use proptest::prelude::*;

/// Finite values with a deliberate sprinkle of exact zeros, so the
/// `== 0.0` skip branches (shared by both paths) are exercised.
fn kernel_f32() -> impl Strategy<Value = f32> {
    (any::<u8>(), -100.0f32..100.0).prop_map(|(z, v)| match z % 8 {
        0 | 1 => 0.0,
        2 => -0.0,
        _ => v,
    })
}

/// [`kernel_f32`] plus the operands a reduction must carry through
/// unchanged: infinities, NaN (one payload, so a chain's NaN bits do not
/// depend on which NaN an add keeps), and huge and subnormal magnitudes.
fn edge_f32() -> impl Strategy<Value = f32> {
    (any::<u8>(), -100.0f32..100.0).prop_map(|(z, v)| match z % 16 {
        0 | 1 => 0.0,
        2 => -0.0,
        3 => f32::INFINITY,
        4 => f32::NEG_INFINITY,
        5 => f32::NAN,
        6 => v * 1e36,
        7 => v * 1e-40,
        _ => v,
    })
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `f` with the dispatch pinned to the SIMD path, restoring the
/// default before returning (guarded, so parallel test threads can't
/// observe each other's override).
fn with_forced_simd<T>(f: impl FnOnce() -> T) -> T {
    let _g = simd::force_guard();
    simd::set_forced(Some(true));
    let out = f();
    simd::set_forced(None);
    out
}

/// Same, pinned to the scalar path through the *dispatcher* (distinct
/// from calling the `*_scalar` reference directly: this checks the
/// kill-switch plumbing too).
fn with_forced_scalar<T>(f: impl FnOnce() -> T) -> T {
    let _g = simd::force_guard();
    simd::set_forced(Some(false));
    let out = f();
    simd::set_forced(None);
    out
}

/// `(a, b)` operand pair for an `m×k · k×n` product, dims bundled in.
#[allow(clippy::type_complexity)]
fn gemm_case() -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>)> {
    (1usize..=5, 0usize..=67, 0usize..=67).prop_flat_map(|(m, k, n)| {
        (
            Just(m),
            Just(k),
            Just(n),
            prop::collection::vec(kernel_f32(), m * k),
            prop::collection::vec(kernel_f32(), k * n),
        )
    })
}

/// Matrix plus shared vector for the fused row-dots sweep.
#[allow(clippy::type_complexity)]
fn row_dots_case() -> impl Strategy<Value = (usize, usize, Vec<f32>, Vec<f32>)> {
    (0usize..=67, 0usize..=67).prop_flat_map(|(rows, cols)| {
        (
            Just(rows),
            Just(cols),
            prop::collection::vec(kernel_f32(), rows * cols),
            prop::collection::vec(kernel_f32(), cols),
        )
    })
}

/// Up to nine equal-length rows (every group residue of the 4-row norm
/// kernel, and a second group) of length `0..=67`.
fn norm_rows_case() -> impl Strategy<Value = Vec<Vec<f32>>> {
    (0usize..=9, 0usize..=67).prop_flat_map(|(rows, len)| {
        prop::collection::vec(prop::collection::vec(edge_f32(), len), rows)
    })
}

/// `a` (`rows × k`) and `b` (`rows × m`) for `aᵀ·b`, with `m` on both sides
/// of the register-tile / row-streaming split at 8 columns.
#[allow(clippy::type_complexity)]
fn tr_matmul_case() -> impl Strategy<Value = (usize, usize, usize, Vec<f32>, Vec<f32>)> {
    (0usize..=67, 0usize..=5, 0usize..=11).prop_flat_map(|(rows, k, m)| {
        (
            Just(rows),
            Just(k),
            Just(m),
            prop::collection::vec(edge_f32(), rows * k),
            prop::collection::vec(edge_f32(), rows * m),
        )
    })
}

/// The row-by-row `aᵀ·b` that `Mat::tr_matmul` must reproduce: for each row
/// `r`, each `i` with `a[r][i] != 0.0` adds `f64(a[r][i]) · f64(b[r][j])`
/// into a heap `f64` accumulator for every `j`; one rounding at the end.
fn tr_matmul_reference(a: &Mat, b: &Mat) -> Vec<f32> {
    let (k, m) = (a.cols(), b.cols());
    let mut out = vec![0.0f64; k * m];
    for r in 0..a.rows() {
        for (i, &ai) in a.row(r).iter().enumerate() {
            if ai == 0.0 {
                continue;
            }
            for (j, &bj) in b.row(r).iter().enumerate() {
                out[i * m + j] += f64::from(ai) * f64::from(bj);
            }
        }
    }
    out.into_iter().map(|x| x as f32).collect()
}

/// Bits, with every NaN mapped to one value: when two NaNs meet in an add
/// (an `inf · 0` product and a NaN operand), which payload survives is the
/// compiler's operand order, not the algorithm's.
fn bits_nan_canonical(v: &[f32]) -> Vec<u32> {
    v.iter()
        .map(|x| if x.is_nan() { u32::MAX } else { x.to_bits() })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn multi_row_norms_equal_per_row_l2_norm_bitwise(rows in norm_rows_case()) {
        let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        let expected: Vec<f32> = refs.iter().map(|r| vector::l2_norm(r)).collect();
        let mut scalar = vec![7.0f32; refs.len()];
        vector::l2_norms_into_scalar(&refs, &mut scalar);
        let mut fast = vec![-7.0f32; refs.len()];
        with_forced_simd(|| vector::l2_norms_into(&refs, &mut fast));
        let mut slow = vec![3.0f32; refs.len()];
        with_forced_scalar(|| vector::l2_norms_into(&refs, &mut slow));
        let len = refs.first().map_or(0, |r| r.len());
        prop_assert_eq!(bits(&scalar), bits(&expected), "scalar twin, {} rows of {}", refs.len(), len);
        prop_assert_eq!(bits(&fast), bits(&expected), "simd, {} rows of {}", refs.len(), len);
        prop_assert_eq!(bits(&slow), bits(&expected), "dispatched scalar, {} rows of {}", refs.len(), len);
    }

    #[test]
    fn tr_matmul_matches_row_by_row_reference((rows, k, m, a_data, b_data) in tr_matmul_case()) {
        let a = Mat::from_vec(rows, k, a_data);
        let b = Mat::from_vec(rows, m, b_data);
        let expected = bits_nan_canonical(&tr_matmul_reference(&a, &b));
        let fast = with_forced_simd(|| a.tr_matmul(&b));
        let slow = with_forced_scalar(|| a.tr_matmul(&b));
        prop_assert_eq!((fast.rows(), fast.cols()), (k, m));
        prop_assert_eq!(bits_nan_canonical(fast.as_slice()), expected.clone(),
            "SIMD on, {}x{} by {}x{}", rows, k, rows, m);
        prop_assert_eq!(bits_nan_canonical(slow.as_slice()), expected,
            "SIMD off, {}x{} by {}x{}", rows, k, rows, m);
    }

    #[test]
    fn gemm_simd_matches_scalar_bitwise((m, k, n, a_data, b_data) in gemm_case()) {
        let a = Mat::from_vec(m, k, a_data);
        let b = Mat::from_vec(k, n, b_data);
        let golden = a.matmul_naive(&b);
        let fast = with_forced_simd(|| a.matmul(&b));
        let slow = with_forced_scalar(|| a.matmul(&b));
        prop_assert_eq!(bits(fast.as_slice()), bits(golden.as_slice()),
            "simd vs naive at {}x{}x{}", m, k, n);
        prop_assert_eq!(bits(slow.as_slice()), bits(golden.as_slice()),
            "scalar vs naive at {}x{}x{}", m, k, n);
    }

    #[test]
    fn row_dots_simd_matches_scalar_bitwise((rows, cols, data, v) in row_dots_case()) {
        let m = Mat::from_vec(rows, cols, data);
        let mut scalar = vec![7.0f32; rows]; // poisoned: every slot written
        m.row_dots_into_scalar(&v, &mut scalar);
        let mut fast = vec![-7.0f32; rows];
        with_forced_simd(|| m.row_dots_into(&v, &mut fast));
        let mut slow = vec![3.0f32; rows];
        with_forced_scalar(|| m.row_dots_into(&v, &mut slow));
        prop_assert_eq!(bits(&fast), bits(&scalar), "simd row_dots at {}x{}", rows, cols);
        prop_assert_eq!(bits(&slow), bits(&scalar), "dispatched scalar at {}x{}", rows, cols);
    }
}

#[test]
fn row_dots_hits_every_tail_residue_class_deterministically() {
    // The proptests above sample shapes; this sweep guarantees coverage
    // of every (rows mod 8, cols mod 8) residue pair at least once.
    for rows in 0usize..=17 {
        for cols in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 67] {
            let data: Vec<f32> = (0..rows * cols)
                .map(|i| if i % 5 == 0 { 0.0 } else { (i as f32).sin() })
                .collect();
            let m = Mat::from_vec(rows, cols, data);
            let v: Vec<f32> = (0..cols)
                .map(|j| if j % 3 == 0 { 0.0 } else { (j as f32).cos() })
                .collect();
            let mut scalar = vec![1.0f32; rows];
            m.row_dots_into_scalar(&v, &mut scalar);
            let mut fast = vec![-1.0f32; rows];
            with_forced_simd(|| m.row_dots_into(&v, &mut fast));
            assert_eq!(bits(&fast), bits(&scalar), "rows={rows} cols={cols}");
        }
    }
}
