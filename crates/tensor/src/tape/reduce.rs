//! Reductions: full sums/means and per-row sums.

use super::{Op, Tape, Var};

impl Tape {
    /// Sum of all elements into a `1 × 1` scalar.
    pub fn sum_all(&mut self, a: Var) -> Var {
        self.record(Op::SumAll(a))
    }

    /// Mean of all elements into a `1 × 1` scalar.
    pub fn mean_all(&mut self, a: Var) -> Var {
        self.record(Op::MeanAll(a))
    }

    /// Per-row sums: `n × f → n × 1`.
    pub fn row_sum(&mut self, a: Var) -> Var {
        self.record(Op::RowSum(a))
    }

    /// Row-wise Euclidean distance between two equally shaped matrices:
    /// `out[i] = ||a[i, :] − b[i, :]||₂` (with a small epsilon inside the
    /// square root for gradient stability). Returns `n × 1`.
    pub fn row_l2_distance(&mut self, a: Var, b: Var) -> Var {
        let d = self.sub(a, b);
        let sq = self.mul(d, d);
        let s = self.row_sum(sq);
        self.sqrt_eps(s, 1e-8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn sum_and_mean() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let s = t.sum_all(a);
        assert_eq!(t.value(s).scalar_value(), 10.0);
        let m = t.mean_all(a);
        assert_eq!(t.value(m).scalar_value(), 2.5);
    }

    #[test]
    fn row_sum_shape_and_values() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]));
        let s = t.row_sum(a);
        assert_eq!(t.shape(s), (2, 1));
        assert_eq!(t.value(s).as_slice(), &[6.0, 15.0]);
    }

    #[test]
    fn row_l2_distance_hand_case() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 2, vec![0.0, 0.0, 1.0, 1.0]));
        let b = t.leaf(Matrix::from_vec(2, 2, vec![3.0, 4.0, 1.0, 1.0]));
        let d = t.row_l2_distance(a, b);
        let dv = t.value(d).as_slice();
        assert!((dv[0] - 5.0).abs() < 1e-3);
        assert!(dv[1] < 1e-3);
    }
}
