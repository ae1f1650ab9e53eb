//! The fused Eq. 4 pair scorer against the composite it replaces.
//!
//! `Tape::score_pairs` must reproduce `linear(concat(gather(h, a),
//! gather(h, b), gather(h, a) ⊙ gather(h, b)), w, b)` bit for bit: the
//! logits, and the gradients of `h`, `w` and `b` after a backward pass in
//! which `h` also feeds ops recorded before and after the scorer, so the
//! order in which its gradient contributions accumulate is checked too.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_tensor::{Matrix, Tape, Var};

/// The pre-fusion scorer, op for op.
fn composite(
    t: &mut Tape,
    h: Var,
    a: &Arc<Vec<usize>>,
    b: &Arc<Vec<usize>>,
    w: Var,
    bias: Var,
) -> Var {
    let ha = t.gather_rows(h, a.clone());
    let hb = t.gather_rows(h, b.clone());
    let mut cat = t.concat_cols(ha, hb);
    if t.shape(w).0 == 3 * t.shape(h).1 {
        let prod = t.mul(ha, hb);
        cat = t.concat_cols(cat, prod);
    }
    t.linear(cat, w, bias)
}

/// First endpoints, second endpoints, and a `P × 1` loss weight per pair.
type PairSet = (Arc<Vec<usize>>, Arc<Vec<usize>>, Matrix);

/// One drawn case: embeddings, scorer weights and two pair sets (positive
/// and negative, as the mask generator scores them).
struct Case {
    h: Matrix,
    w: Matrix,
    bias: Matrix,
    sets: [PairSet; 2],
}

/// Values with exact zeros of both signs mixed in, so products and sums
/// that round to a signed zero are compared too.
fn value(rng: &mut StdRng) -> f32 {
    match rng.gen_range(0u32..10) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.gen_range(-1.5f32..1.5),
    }
}

fn matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| value(rng)).collect())
}

fn draw(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    // Widths below, at and around one lane; few rows so endpoints repeat.
    let f = [1usize, 3, 8, 9, 16, 17][rng.gen_range(0usize..6)];
    let n = rng.gen_range(1usize..6);
    let blocks = if rng.gen_range(0u32..2) == 0 { 2 } else { 3 };
    let set = |rng: &mut StdRng| {
        // P = 0 about one case in eight; otherwise rarely a multiple of 8.
        let p = if rng.gen_range(0u32..8) == 0 {
            0
        } else {
            rng.gen_range(1usize..30)
        };
        let a: Vec<usize> = (0..p).map(|_| rng.gen_range(0..n)).collect();
        let b: Vec<usize> = a
            .iter()
            .map(|&ai| {
                if rng.gen_range(0u32..4) == 0 {
                    ai
                } else {
                    rng.gen_range(0..n)
                }
            })
            .collect();
        (Arc::new(a), Arc::new(b), matrix(rng, p, 1))
    };
    let sets = [set(&mut rng), set(&mut rng)];
    Case {
        h: matrix(&mut rng, n, f),
        w: matrix(&mut rng, blocks * f, 1),
        bias: matrix(&mut rng, 1, 1),
        sets,
    }
}

/// Logits, and the gradients of `h`, `w`, `b`, as bit patterns.
type Bits = (Vec<Vec<u32>>, [Vec<u32>; 3]);

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Records both pair sets through the fused op or the composite, with `h`
/// also consumed before and after the scorers, then runs backward.
fn run(case: &Case, fused: bool) -> Bits {
    let mut t = Tape::new();
    let h = t.leaf(case.h.clone());
    let w = t.leaf(case.w.clone());
    let bias = t.leaf(case.bias.clone());
    let before = t.tanh(h);
    let mut loss = t.mean_all(before);
    let mut logits = Vec::new();
    for (a, b, weights) in &case.sets {
        let s = if fused {
            t.score_pairs(h, a.clone(), b.clone(), w, bias)
        } else {
            composite(&mut t, h, a, b, w, bias)
        };
        logits.push(s);
        let y = t.sigmoid(s);
        let c = t.constant(weights.clone());
        let wy = t.mul(y, c);
        let l = t.sum_all(wy);
        loss = t.add(loss, l);
    }
    let after = t.mul(h, h);
    let l_after = t.sum_all(after);
    let loss = t.add(loss, l_after);
    t.backward(loss);
    let grad = |v: Var| bits(t.grad_unwrap(v));
    (
        logits.iter().map(|&s| bits(t.value(s))).collect(),
        [grad(h), grad(w), grad(bias)],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn score_pairs_matches_composite(seed in 0u64..u64::MAX) {
        let case = draw(seed);
        let (fused_vals, fused_grads) = run(&case, true);
        let (comp_vals, comp_grads) = run(&case, false);
        prop_assert_eq!(fused_vals, comp_vals, "logits differ (seed {})", seed);
        for (name, (f, c)) in ["h", "w", "b"].iter().zip(fused_grads.iter().zip(&comp_grads)) {
            prop_assert_eq!(f, c, "d{} differs (seed {})", name, seed);
        }
    }
}
