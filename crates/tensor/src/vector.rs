//! BLAS-1 style operations on `f32` slices.
//!
//! All functions operate on plain slices so callers can keep parameters in
//! whatever container they like (the NN substrate uses flat `Vec<f32>`
//! parameter vectors throughout).
//!
//! # Panics
//!
//! Every binary operation panics if the two slices have different lengths;
//! mismatched lengths always indicate a bug in the caller (a model/gradient
//! shape mismatch), so failing loudly is preferable to silent truncation.

/// Dot product `xᵀy`.
///
/// Accumulates in `f64` for stability on long vectors (model parameter
/// vectors can exceed 10⁵ elements).
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
///
/// ```
/// assert_eq!(fuiov_tensor::vector::dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
/// ```
pub fn dot(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter()
        .zip(y)
        .map(|(a, b)| f64::from(*a) * f64::from(*b))
        .sum::<f64>() as f32
}

/// `y ← a·x + y` (the classic axpy update).
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn axpy(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `x ← a·x`.
pub fn scale(a: f32, x: &mut [f32]) {
    for xi in x {
        *xi *= a;
    }
}

/// Element-wise sum `x + y` as a new vector.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn add(x: &[f32], y: &[f32]) -> Vec<f32> {
    assert_eq!(x.len(), y.len(), "add: length mismatch");
    x.iter().zip(y).map(|(a, b)| a + b).collect()
}

/// Element-wise difference `x − y` as a new vector.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn sub(x: &[f32], y: &[f32]) -> Vec<f32> {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    x.iter().zip(y).map(|(a, b)| a - b).collect()
}

/// Element-wise difference `x − y` written into `out`, recycling its
/// allocation (the zero-allocation form of [`sub`] for replay hot loops
/// that compute `w̄ₜ − wₜ` every round).
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn sub_into(x: &[f32], y: &[f32], out: &mut Vec<f32>) {
    assert_eq!(x.len(), y.len(), "sub_into: length mismatch");
    out.clear();
    out.extend(x.iter().zip(y).map(|(a, b)| a - b));
}

/// [`sub_into`] targeting a 64-byte-aligned scratch buffer
/// ([`crate::simd::AVec`]): the same element-wise `x[i] − y[i]`, with
/// `out` resized to fit. Used for the replay arena's `w̄ₜ − wₜ` vector so
/// the SIMD sweeps that stream it start on a cache-line boundary.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn sub_into_aligned(x: &[f32], y: &[f32], out: &mut crate::simd::AVec) {
    assert_eq!(x.len(), y.len(), "sub_into: length mismatch");
    out.resize(x.len(), 0.0);
    for ((o, a), b) in out.iter_mut().zip(x).zip(y) {
        *o = a - b;
    }
}

/// Euclidean norm `‖x‖₂`, accumulated in `f64`.
pub fn l2_norm(x: &[f32]) -> f32 {
    x.iter()
        .map(|a| f64::from(*a) * f64::from(*a))
        .sum::<f64>()
        .sqrt() as f32
}

/// Rows per interleaved group of [`l2_norms_into`].
const NORM_GROUP: usize = 4;

/// Euclidean norms of several equal-length rows at once: `out[i]` is
/// bitwise [`l2_norm`]`(rows[i])`.
///
/// One norm is a single chain of dependent `f64` adds, so it runs at the
/// add latency, not the add throughput. This kernel advances four rows'
/// chains side by side — one AVX2 `f64x4` vector whose lanes are rows,
/// fed by an in-register 4×4 transpose, as [`crate::Mat::row_dots_into`]
/// does for dots — so four norms cost about what one did. Each lane is
/// still its row's own chain: `−0.0` start (the neutral element of
/// `f64`'s `Sum`), ascending index, `mul` then `add` (never an FMA), one
/// `sqrt` and one rounding to `f32` at the end. A short last group repeats
/// its last row in the spare lanes and drops their results.
///
/// # Panics
///
/// Panics if `rows.len() != out.len()` or the rows differ in length.
pub fn l2_norms_into(rows: &[&[f32]], out: &mut [f32]) {
    check_norm_rows(rows, out);
    #[cfg(target_arch = "x86_64")]
    if crate::simd::enabled() {
        for (group, out) in rows.chunks(NORM_GROUP).zip(out.chunks_mut(NORM_GROUP)) {
            // SAFETY: `simd::enabled()` implies the AVX2 probe passed.
            let norms = unsafe { x86::l2_norms4_avx2(padded_group(group)) };
            out.copy_from_slice(&norms[..out.len()]);
        }
        return;
    }
    l2_norms_into_scalar(rows, out);
}

/// The pinned scalar reference for [`l2_norms_into`]: the same four
/// interleaved chains per group, never dispatched to SIMD.
///
/// # Panics
///
/// As [`l2_norms_into`].
pub fn l2_norms_into_scalar(rows: &[&[f32]], out: &mut [f32]) {
    check_norm_rows(rows, out);
    for (group, out) in rows.chunks(NORM_GROUP).zip(out.chunks_mut(NORM_GROUP)) {
        let [a0, a1, a2, a3] = padded_group(group);
        let mut acc = [-0.0f64; NORM_GROUP];
        for (((&x0, &x1), &x2), &x3) in a0.iter().zip(a1).zip(a2).zip(a3) {
            acc[0] += f64::from(x0) * f64::from(x0);
            acc[1] += f64::from(x1) * f64::from(x1);
            acc[2] += f64::from(x2) * f64::from(x2);
            acc[3] += f64::from(x3) * f64::from(x3);
        }
        for (o, a) in out.iter_mut().zip(acc) {
            *o = a.sqrt() as f32;
        }
    }
}

fn check_norm_rows(rows: &[&[f32]], out: &[f32]) {
    assert_eq!(
        rows.len(),
        out.len(),
        "l2_norms_into: output length mismatch"
    );
    let len = rows.first().map_or(0, |r| r.len());
    assert!(
        rows.iter().all(|r| r.len() == len),
        "l2_norms_into: rows differ in length"
    );
}

/// A group of 1..=4 rows widened to four by repeating its last row.
fn padded_group<'a>(group: &[&'a [f32]]) -> [&'a [f32]; NORM_GROUP] {
    std::array::from_fn(|k| group[k.min(group.len() - 1)])
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use std::arch::x86_64::*;

    /// AVX2 twin of one `l2_norms_into_scalar` group: lane `k` is row
    /// `k`'s chain. Each 4×4 tile (four elements of four rows) is loaded
    /// row-major and transposed so that one vector holds element `j` of
    /// every row; the lanes then consume ascending `j`, exactly as the
    /// scalar chains do. Column tails continue each lane's chain in scalar.
    ///
    /// # Safety
    ///
    /// Caller must ensure AVX2 is available (runtime-probed by
    /// `crate::simd::caps`) and that the four rows have equal length.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn l2_norms4_avx2(rows: [&[f32]; 4]) -> [f32; 4] {
        let n = rows[0].len();
        let p = rows.map(<[f32]>::as_ptr);
        let mut acc = _mm256_set1_pd(-0.0);
        let mut j = 0;
        while j + 4 <= n {
            let r0 = _mm_loadu_ps(p[0].add(j));
            let r1 = _mm_loadu_ps(p[1].add(j));
            let r2 = _mm_loadu_ps(p[2].add(j));
            let r3 = _mm_loadu_ps(p[3].add(j));
            let lo01 = _mm_unpacklo_ps(r0, r1);
            let lo23 = _mm_unpacklo_ps(r2, r3);
            let hi01 = _mm_unpackhi_ps(r0, r1);
            let hi23 = _mm_unpackhi_ps(r2, r3);
            let cols = [
                _mm_movelh_ps(lo01, lo23),
                _mm_movehl_ps(lo23, lo01),
                _mm_movelh_ps(hi01, hi23),
                _mm_movehl_ps(hi23, hi01),
            ];
            for c in cols {
                let x = _mm256_cvtps_pd(c);
                acc = _mm256_add_pd(acc, _mm256_mul_pd(x, x));
            }
            j += 4;
        }
        let mut lanes = [0.0f64; 4];
        _mm256_storeu_pd(lanes.as_mut_ptr(), acc);
        for (a, row) in lanes.iter_mut().zip(rows) {
            for &x in &row[j..] {
                *a += f64::from(x) * f64::from(x);
            }
        }
        lanes.map(|a| a.sqrt() as f32)
    }
}

/// Squared Euclidean norm `‖x‖₂²`.
pub fn l2_norm_sq(x: &[f32]) -> f32 {
    x.iter().map(|a| f64::from(*a) * f64::from(*a)).sum::<f64>() as f32
}

/// Euclidean distance `‖x − y‖₂`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn l2_distance(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "l2_distance: length mismatch");
    x.iter()
        .zip(y)
        .map(|(a, b)| {
            let d = f64::from(*a) - f64::from(*b);
            d * d
        })
        .sum::<f64>()
        .sqrt() as f32
}

/// Infinity norm `‖x‖∞` (largest absolute element), `0.0` for empty input.
pub fn linf_norm(x: &[f32]) -> f32 {
    x.iter().fold(0.0f32, |m, a| m.max(a.abs()))
}

/// The paper's Eq. 7 gradient clipping:
/// `g̃ = ḡ / max(1, ‖ḡ‖₂ / L)`.
///
/// If the vector's L2 norm is at most `L` it is returned unchanged;
/// otherwise it is scaled down so its norm equals `L`. This bounds the step
/// any single estimated gradient can take during recovery, limiting the
/// damage of estimation error.
///
/// # Panics
///
/// Panics if `l` is not strictly positive and finite.
///
/// ```
/// let mut g = vec![3.0, 4.0]; // ‖g‖ = 5
/// fuiov_tensor::vector::clip_l2(&mut g, 1.0);
/// assert!((fuiov_tensor::vector::l2_norm(&g) - 1.0).abs() < 1e-6);
/// ```
pub fn clip_l2(x: &mut [f32], l: f32) {
    assert!(
        l > 0.0 && l.is_finite(),
        "clip_l2: threshold must be positive"
    );
    let norm = l2_norm(x);
    if norm > l {
        scale(l / norm, x);
    }
}

/// The paper's Eq. 7 read element-wise (its `|·|` "denotes the absolute
/// value of gradient elements"): every element is clamped to `[−L, L]`,
/// i.e. `g̃ⱼ = ḡⱼ / max(1, |ḡⱼ|/L)`.
///
/// # Panics
///
/// Panics if `l` is not strictly positive and finite.
///
/// ```
/// let mut g = vec![0.5, -3.0, 2.0];
/// fuiov_tensor::vector::clip_elementwise(&mut g, 1.0);
/// assert_eq!(g, vec![0.5, -1.0, 1.0]);
/// ```
pub fn clip_elementwise(x: &mut [f32], l: f32) {
    assert!(
        l > 0.0 && l.is_finite(),
        "clip_elementwise: threshold must be positive"
    );
    for v in x {
        *v = v.clamp(-l, l);
    }
}

/// Element-wise sign with a dead-zone threshold `δ ≥ 0` (the paper's §IV
/// direction quantisation): `+1` if `v > δ`, `-1` if `v < −δ`, else `0`.
///
/// NaN values map to `0` (they fall in neither open half-line).
///
/// # Panics
///
/// Panics if `delta` is negative or NaN.
pub fn sign_with_threshold(x: &[f32], delta: f32) -> Vec<i8> {
    assert!(delta >= 0.0, "sign_with_threshold: delta must be >= 0");
    x.iter()
        .map(|&v| {
            if v > delta {
                1
            } else if v < -delta {
                -1
            } else {
                0
            }
        })
        .collect()
}

/// Expands a sign vector back to `f32` (`i8 ∈ {−1,0,1}` → `f32`).
pub fn signs_to_f32(s: &[i8]) -> Vec<f32> {
    s.iter().map(|&v| f32::from(v)).collect()
}

/// Linear interpolation `(1−t)·x + t·y`.
///
/// # Panics
///
/// Panics if `x.len() != y.len()`.
pub fn lerp(x: &[f32], y: &[f32], t: f32) -> Vec<f32> {
    assert_eq!(x.len(), y.len(), "lerp: length mismatch");
    x.iter()
        .zip(y)
        .map(|(a, b)| (1.0 - t) * a + t * b)
        .collect()
}

/// Weighted average of several vectors: `Σ wᵢ·xᵢ / Σ wᵢ`.
///
/// This is FedAvg's Eq. 1 kernel; weights are typically client dataset
/// sizes.
///
/// # Panics
///
/// Panics if `vecs` is empty, lengths differ, `weights.len() != vecs.len()`,
/// or all weights sum to zero.
pub fn weighted_mean(vecs: &[&[f32]], weights: &[f32]) -> Vec<f32> {
    assert!(!vecs.is_empty(), "weighted_mean: no vectors");
    assert_eq!(
        vecs.len(),
        weights.len(),
        "weighted_mean: weight count mismatch"
    );
    let dim = vecs[0].len();
    let total: f64 = weights.iter().map(|w| f64::from(*w)).sum();
    assert!(total != 0.0, "weighted_mean: weights sum to zero");
    let mut acc = vec![0.0f64; dim];
    for (v, &w) in vecs.iter().zip(weights) {
        assert_eq!(v.len(), dim, "weighted_mean: length mismatch");
        for (a, &x) in acc.iter_mut().zip(*v) {
            *a += f64::from(w) * f64::from(x);
        }
    }
    acc.into_iter().map(|a| (a / total) as f32).collect()
}

/// [`weighted_mean`] writing into caller-owned buffers: `acc` is the `f64`
/// accumulator scratch and `out` receives the `f32` result. Both are
/// cleared and resized, so at steady state (server round loop, tree-node
/// reduction) no allocation happens. The fold order and every arithmetic
/// operation are identical to [`weighted_mean`], so the result is bitwise
/// equal by construction.
///
/// # Panics
///
/// As [`weighted_mean`].
pub fn weighted_mean_into(
    vecs: &[&[f32]],
    weights: &[f32],
    acc: &mut Vec<f64>,
    out: &mut Vec<f32>,
) {
    assert!(!vecs.is_empty(), "weighted_mean: no vectors");
    assert_eq!(
        vecs.len(),
        weights.len(),
        "weighted_mean: weight count mismatch"
    );
    let dim = vecs[0].len();
    let total: f64 = weights.iter().map(|w| f64::from(*w)).sum();
    assert!(total != 0.0, "weighted_mean: weights sum to zero");
    acc.clear();
    acc.resize(dim, 0.0);
    for (v, &w) in vecs.iter().zip(weights) {
        assert_eq!(v.len(), dim, "weighted_mean: length mismatch");
        for (a, &x) in acc.iter_mut().zip(*v) {
            *a += f64::from(w) * f64::from(x);
        }
    }
    out.clear();
    out.extend(acc.iter().map(|a| (a / total) as f32));
}

/// Number of elements on which two sign vectors agree (used by tests and
/// by the storage-fidelity diagnostics).
///
/// # Panics
///
/// Panics if lengths differ.
pub fn sign_agreement(a: &[i8], b: &[i8]) -> usize {
    assert_eq!(a.len(), b.len(), "sign_agreement: length mismatch");
    a.iter().zip(b).filter(|(x, y)| x == y).count()
}

/// Cosine similarity between two vectors, or `None` if either is the zero
/// vector (the quantity is undefined there).
pub fn cosine_similarity(x: &[f32], y: &[f32]) -> Option<f32> {
    let nx = l2_norm(x);
    let ny = l2_norm(y);
    if nx == 0.0 || ny == 0.0 {
        None
    } else {
        Some(dot(x, y) / (nx * ny))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![1.0, -2.0];
        scale(-0.5, &mut x);
        assert_eq!(x, vec![-0.5, 1.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let x = vec![1.0, 2.0, 3.0];
        let y = vec![0.5, -1.0, 2.0];
        assert_eq!(sub(&add(&x, &y), &y), x);
    }

    #[test]
    fn sub_into_matches_sub_and_recycles() {
        let x = vec![1.0f32, -2.5, 0.25];
        let y = vec![0.5f32, 1.5, 0.25];
        let mut out = Vec::with_capacity(3);
        sub_into(&x, &y, &mut out);
        assert_eq!(out, sub(&x, &y));
        let ptr = out.as_ptr();
        sub_into(&y, &x, &mut out);
        assert_eq!(out, sub(&y, &x));
        assert_eq!(ptr, out.as_ptr(), "sub_into must reuse the buffer");
    }

    #[test]
    fn norms() {
        assert_eq!(l2_norm(&[3.0, 4.0]), 5.0);
        assert_eq!(l2_norm_sq(&[3.0, 4.0]), 25.0);
        assert_eq!(linf_norm(&[-3.0, 2.0]), 3.0);
        assert_eq!(linf_norm(&[]), 0.0);
        assert_eq!(l2_distance(&[1.0, 1.0], &[4.0, 5.0]), 5.0);
    }

    #[test]
    fn clip_l2_below_threshold_is_identity() {
        let mut g = vec![0.3, 0.4]; // norm 0.5
        clip_l2(&mut g, 1.0);
        assert_eq!(g, vec![0.3, 0.4]);
    }

    #[test]
    fn clip_l2_above_threshold_scales_to_l() {
        let mut g = vec![30.0, 40.0];
        clip_l2(&mut g, 2.5);
        assert!((l2_norm(&g) - 2.5).abs() < 1e-5);
        // Direction preserved.
        assert!((g[1] / g[0] - 4.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn clip_l2_rejects_nonpositive() {
        clip_l2(&mut [1.0], 0.0);
    }

    #[test]
    fn clip_elementwise_clamps_each_element() {
        let mut g = vec![0.2, -5.0, 1.0, 3.0];
        clip_elementwise(&mut g, 1.0);
        assert_eq!(g, vec![0.2, -1.0, 1.0, 1.0]);
    }

    #[test]
    fn clip_elementwise_identity_below_threshold() {
        let mut g = vec![0.2, -0.3];
        clip_elementwise(&mut g, 1.0);
        assert_eq!(g, vec![0.2, -0.3]);
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn clip_elementwise_rejects_nan() {
        clip_elementwise(&mut [1.0], f32::NAN);
    }

    #[test]
    fn sign_threshold_dead_zone() {
        let s = sign_with_threshold(&[0.5, -0.5, 1e-7, -1e-7, 0.0], 1e-6);
        assert_eq!(s, vec![1, -1, 0, 0, 0]);
    }

    #[test]
    fn sign_threshold_zero_delta_is_plain_sign() {
        let s = sign_with_threshold(&[2.0, -3.0, 0.0], 0.0);
        assert_eq!(s, vec![1, -1, 0]);
    }

    #[test]
    fn sign_nan_maps_to_zero() {
        let s = sign_with_threshold(&[f32::NAN], 0.0);
        assert_eq!(s, vec![0]);
    }

    #[test]
    fn signs_roundtrip_to_f32() {
        assert_eq!(signs_to_f32(&[1, 0, -1]), vec![1.0, 0.0, -1.0]);
    }

    #[test]
    fn weighted_mean_matches_fedavg() {
        // Two clients: weights 1 and 3.
        let m = weighted_mean(&[&[1.0, 0.0], &[5.0, 4.0]], &[1.0, 3.0]);
        assert_eq!(m, vec![4.0, 3.0]);
    }

    #[test]
    fn weighted_mean_single_vector_is_identity() {
        let m = weighted_mean(&[&[1.5, -2.0]], &[7.0]);
        assert_eq!(m, vec![1.5, -2.0]);
    }

    #[test]
    fn weighted_mean_into_is_bitwise_identical_and_reuses_buffers() {
        let vecs: Vec<Vec<f32>> = vec![
            vec![1.0, -2.5, 0.125, 1e-30],
            vec![3.0, 0.0, -7.25, 2.0],
            vec![-0.1, 0.3, 0.7, -1.5],
        ];
        let refs: Vec<&[f32]> = vecs.iter().map(Vec::as_slice).collect();
        let weights = [1.0f32, 3.5, 0.25];
        let baseline = weighted_mean(&refs, &weights);
        let mut acc = Vec::new();
        let mut out = Vec::new();
        // Twice through the same buffers: results identical, and the
        // second pass must not grow capacity (steady state is allocation
        // free).
        weighted_mean_into(&refs, &weights, &mut acc, &mut out);
        let bits: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        let expected: Vec<u32> = baseline.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, expected);
        let (cap_acc, cap_out) = (acc.capacity(), out.capacity());
        weighted_mean_into(&refs, &weights, &mut acc, &mut out);
        assert_eq!(acc.capacity(), cap_acc);
        assert_eq!(out.capacity(), cap_out);
        let bits2: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits2, expected);
    }

    #[test]
    #[should_panic(expected = "weights sum to zero")]
    fn weighted_mean_zero_weights_panics() {
        weighted_mean(&[&[1.0]], &[0.0]);
    }

    #[test]
    fn lerp_endpoints() {
        let x = vec![0.0, 10.0];
        let y = vec![4.0, 20.0];
        assert_eq!(lerp(&x, &y, 0.0), x);
        assert_eq!(lerp(&x, &y, 1.0), y);
        assert_eq!(lerp(&x, &y, 0.5), vec![2.0, 15.0]);
    }

    #[test]
    fn cosine_similarity_cases() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]).unwrap() - 1.0).abs() < 1e-6);
        assert!((cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).unwrap()).abs() < 1e-6);
        assert!(cosine_similarity(&[0.0], &[1.0]).is_none());
    }

    #[test]
    fn sign_agreement_counts() {
        assert_eq!(sign_agreement(&[1, -1, 0], &[1, 1, 0]), 2);
    }
}
