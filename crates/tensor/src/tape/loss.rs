//! Loss-oriented operations: row-wise log-softmax and masked NLL.

use std::sync::Arc;

use super::{Op, OpKind, Tape, Var};
use crate::matrix::Matrix;

impl Tape {
    /// Row-wise log-softmax (numerically stabilised by the row max).
    pub fn log_softmax_rows(&mut self, a: Var) -> Var {
        self.record(Op::LogSoftmaxRows(a))
    }

    /// Mean negative log-likelihood of `labels` over the rows listed in
    /// `idx`, taking row-wise **log-probabilities** as input. Returns `1 × 1`.
    /// `idx` must be non-empty, `labels` must have one entry per row, and
    /// every listed row's label must be a valid column.
    ///
    /// This is the cross-entropy loss of Eq. (6)/(8) in the paper, restricted
    /// to the labelled node set.
    pub fn nll_masked(&mut self, logp: Var, labels: Arc<Vec<usize>>, idx: Arc<Vec<usize>>) -> Var {
        self.record(Op::NllMasked { logp, labels, idx })
    }

    /// Cross-entropy (log-softmax + masked NLL) of logits against `labels`
    /// restricted to rows `idx`.
    pub fn cross_entropy_masked(
        &mut self,
        logits: Var,
        labels: Arc<Vec<usize>>,
        idx: Arc<Vec<usize>>,
    ) -> Var {
        let logp = self.log_softmax_rows(logits);
        self.nll_masked(logp, labels, idx)
    }

    /// Mean absolute error between `a` and a constant target matrix.
    /// Used by the subgraph loss (Eq. 7), where the targets are the stacked
    /// positive/negative edge labels.
    pub fn l1_to_constant(&mut self, a: Var, target: &Matrix) -> Var {
        assert_eq!(
            self.shape(a),
            target.shape(),
            "l1_to_constant: shape mismatch"
        );
        self.san_forward_finite(OpKind::Leaf, target);
        let t = self.constant(target.clone());
        let d = self.sub(a, t);
        let ad = self.abs(d);
        self.mean_all(ad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_softmax_rows_normalised() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(
            2,
            3,
            vec![1.0, 2.0, 3.0, 10.0, 10.0, 10.0],
        ));
        let lp = t.log_softmax_rows(a);
        for i in 0..2 {
            let sum: f32 = t.value(lp).row(i).iter().map(|&x| x.exp()).sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // uniform row -> log(1/3)
        assert!((t.value(lp)[(1, 0)] - (1.0f32 / 3.0).ln()).abs() < 1e-5);
    }

    #[test]
    fn nll_masked_hand_case() {
        let mut t = Tape::new();
        // perfect confidence on the right class for row 0, wrong for row 1
        let logits = t.leaf(Matrix::from_vec(2, 2, vec![10.0, -10.0, 10.0, -10.0]));
        let labels = Arc::new(vec![0usize, 1]);
        let all = Arc::new(vec![0usize, 1]);
        let loss = t.cross_entropy_masked(logits, labels.clone(), all);
        let v = t.value(loss).scalar_value();
        assert!(v > 5.0, "row 1 should be heavily penalised, got {v}");
        let only0 = Arc::new(vec![0usize]);
        let loss0 = t.cross_entropy_masked(logits, labels, only0);
        assert!(t.value(loss0).scalar_value() < 1e-3);
    }

    #[test]
    fn l1_to_constant_hand_case() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::col_vec(&[0.5, 1.0]));
        let target = Matrix::col_vec(&[1.0, 1.0]);
        let l = t.l1_to_constant(a, &target);
        assert!((t.value(l).scalar_value() - 0.25).abs() < 1e-6);
    }
}
