//! Eq. 4 pair scorer: one logit per node pair straight from the node
//! embeddings `h`, without materialising the gathered, concatenated pair
//! matrix the composite `linear(concat(h[a], h[b], h[a] ⊙ h[b]), w, b)`
//! builds.
//!
//! `w` is `2f × 1` (blocks `w₁, w₂`: the additive scorer) or `3f × 1`
//! (`w₁, w₂, w₃`: with the element-wise interaction block), for `h` of
//! width `f`.
//!
//! # Bit-identity with the composite
//!
//! Both kernels reproduce the composite's rounding exactly (proved by the
//! `score_pairs_matches_composite` proptest; the argument is written out
//! in `docs/CORRECTNESS.md`):
//!
//! * **Forward.** Each logit is one serial chain over `k`, starting from
//!   `0.0` with separate multiply and add: the `w₁·h_a` block, then
//!   `w₂·h_b`, then `w₃·(h_a ⊙ h_b)` with the product rounded first, then
//!   `+ b` — the width-1 matmul's scalar column tail followed by the bias
//!   broadcast. Lanes run across eight *pairs*, never across `k`.
//! * **Backward**, for the upstream logit gradient `g`: `db` is the
//!   ascending-pair sum from `0.0`; `dw[k]` adds `x_p[k]·g_p` in ascending
//!   pair order (the `t_matmul` sweep); the a-side row gradient is
//!   `(g·w₃ₖ)·h_bₖ + g·w₁ₖ` and the b-side `(g·w₃ₖ)·h_aₖ + g·w₂ₖ` (the
//!   `matmul_t` output split by the concat backward, the Hadamard backward,
//!   then the two contributions summed); each side is scattered into its
//!   own zeroed `n × f` matrix in ascending pair order, as each gather's
//!   backward did.
//!
//! The kernels are serial: the scatter collides on repeated endpoints, and
//! the whole op costs a few milliseconds per epoch at quickstart scale.

use std::array;

use super::lane::{F32x8, LANES};
use crate::matrix::Matrix;

/// Gradients of [`score_pairs`] with respect to its inputs.
pub struct PairGrads {
    /// Row gradients of `h`, when requested: the b-side scatter first, then
    /// the a-side one — the order the composite's two gathers delivered
    /// them in, which the tape accumulates one after the other.
    pub dh: Option<(Matrix, Matrix)>,
    /// `dL/dw`, shaped like `w`.
    pub dw: Matrix,
    /// `dL/db`, `1 × 1`.
    pub db: Matrix,
}

/// The weight blocks `(w₁, w₂, w₃)` for embeddings of width `f`; `w₃` is
/// empty for the additive `2f × 1` weight.
///
/// # Panics
/// Panics if `w` has neither `2f` nor `3f` entries.
fn blocks(w: &[f32], f: usize) -> (&[f32], &[f32], &[f32]) {
    assert!(
        w.len() == 2 * f || w.len() == 3 * f,
        "score_pairs: weight has {} entries, expected {} or {}",
        w.len(),
        2 * f,
        3 * f
    );
    let (w1, rest) = w.split_at(f);
    let (w2, w3) = rest.split_at(f);
    (w1, w2, w3)
}

/// Lane `l` holds `rows[l][k]`.
#[inline(always)]
fn column(rows: &[&[f32]; LANES], k: usize) -> F32x8 {
    F32x8(array::from_fn(|l| rows[l][k]))
}

/// Logits `w₁·h[a_p] + w₂·h[b_p] (+ w₃·(h[a_p] ⊙ h[b_p])) + bias`, one per
/// pair, as a `P × 1` matrix.
///
/// # Panics
/// Panics if the index lists differ in length, an index is out of bounds,
/// or `w` is neither `2f` nor `3f` long.
pub fn score_pairs(h: &Matrix, a_idx: &[usize], b_idx: &[usize], w: &[f32], bias: f32) -> Matrix {
    let _span = ses_obs::span!("kernel.score_pairs");
    assert_eq!(a_idx.len(), b_idx.len(), "score_pairs: index lists differ");
    let f = h.cols();
    let (w1, w2, w3) = blocks(w, f);
    let interaction = !w3.is_empty();
    let n_pairs = a_idx.len();
    let mut out = Matrix::zeros_pooled(n_pairs, 1);
    let o = out.as_mut_slice();
    // Eight pairs' endpoint rows, transposed once per group so each block's
    // sweep over `k` loads one lane vector instead of eight scalars.
    let mut ta = vec![F32x8::zero(); f];
    let mut tb = vec![F32x8::zero(); f];
    let mut p = 0;
    while p + LANES <= n_pairs {
        let ra: [&[f32]; LANES] = array::from_fn(|l| &h.row(a_idx[p + l])[..f]);
        let rb: [&[f32]; LANES] = array::from_fn(|l| &h.row(b_idx[p + l])[..f]);
        for k in 0..f {
            ta[k] = column(&ra, k);
            tb[k] = column(&rb, k);
        }
        let mut acc = F32x8::zero();
        for (&x, &wk) in ta.iter().zip(w1) {
            acc = acc.add_scaled(wk, x);
        }
        for (&x, &wk) in tb.iter().zip(w2) {
            acc = acc.add_scaled(wk, x);
        }
        if interaction {
            for ((&xa, &xb), &wk) in ta.iter().zip(&tb).zip(w3) {
                acc = acc.add_scaled(wk, xa.mul(xb));
            }
        }
        acc.add(F32x8::splat(bias)).store(&mut o[p..p + LANES]);
        p += LANES;
    }
    for q in p..n_pairs {
        let (ha, hb) = (h.row(a_idx[q]), h.row(b_idx[q]));
        let mut acc = 0.0f32;
        for (&x, &wk) in ha.iter().zip(w1) {
            acc += x * wk;
        }
        for (&x, &wk) in hb.iter().zip(w2) {
            acc += x * wk;
        }
        for ((&xa, &xb), &wk) in ha.iter().zip(hb).zip(w3) {
            acc += (xa * xb) * wk;
        }
        o[q] = acc + bias;
    }
    out
}

/// Backward of [`score_pairs`] for the upstream logit gradient `g`
/// (`P` entries). The `h` scatters are only built when `need_h` is set.
///
/// # Panics
/// Same conditions as [`score_pairs`], plus `g.len() != P`.
pub fn score_pairs_backward(
    h: &Matrix,
    a_idx: &[usize],
    b_idx: &[usize],
    w: &[f32],
    g: &[f32],
    need_h: bool,
) -> PairGrads {
    let _span = ses_obs::span!("kernel.score_pairs_backward");
    assert_eq!(a_idx.len(), b_idx.len(), "score_pairs: index lists differ");
    assert_eq!(g.len(), a_idx.len(), "score_pairs: gradient length");
    let (n, f) = h.shape();
    let (w1, w2, w3) = blocks(w, f);
    let mut dw = Matrix::zeros_pooled(w.len(), 1);
    let mut db = 0.0f32;
    let mut dh = need_h.then(|| (Matrix::zeros_pooled(n, f), Matrix::zeros_pooled(n, f)));
    for ((&a, &b), &gp) in a_idx.iter().zip(b_idx).zip(g) {
        let (ha, hb) = (h.row(a), h.row(b));
        db += gp;
        let (dw1, rest) = dw.as_mut_slice().split_at_mut(f);
        let (dw2, dw3) = rest.split_at_mut(f);
        if w3.is_empty() {
            for ((d1, d2), (&xa, &xb)) in dw1.iter_mut().zip(dw2).zip(ha.iter().zip(hb)) {
                *d1 += gp * xa;
                *d2 += gp * xb;
            }
        } else {
            let dw12 = dw1.iter_mut().zip(dw2.iter_mut());
            for (((d1, d2), d3), (&xa, &xb)) in dw12.zip(dw3).zip(ha.iter().zip(hb)) {
                *d1 += gp * xa;
                *d2 += gp * xb;
                *d3 += gp * (xa * xb);
            }
        }
        if let Some((s_b, s_a)) = dh.as_mut() {
            scatter_row(s_b.row_mut(b), ha, w2, w3, gp);
            scatter_row(s_a.row_mut(a), hb, w1, w3, gp);
        }
    }
    PairGrads {
        dh,
        dw,
        db: Matrix::scalar(db),
    }
}

/// One pair's row gradient added into its endpoint's scatter row:
/// `row[k] += (g·w₃ₖ)·otherₖ + g·w_ownₖ`, or `row[k] += g·w_ownₖ` for the
/// additive weight (`w3` empty). `other` is the opposite endpoint's
/// embedding, `w_own` this endpoint's weight block.
///
/// The composite computed each `g·wₖ` as `0 + g·wₖ` (a width-1 `matmul_t`
/// accumulator). That add only turns `-0` into `+0`, which cannot change
/// the scattered row: it starts at `+0`, and a sum that starts at `+0`
/// never becomes `-0`, so adding a zero of either sign leaves it as is.
fn scatter_row(row: &mut [f32], other: &[f32], w_own: &[f32], w3: &[f32], g: f32) {
    if w3.is_empty() {
        for (r, &wo) in row.iter_mut().zip(w_own) {
            *r += g * wo;
        }
    } else {
        for (((r, &o), &wo), &w3k) in row.iter_mut().zip(other).zip(w_own).zip(w3) {
            *r += (g * w3k) * o + g * wo;
        }
    }
}
