//! Linear-algebra forward operations: matmul, transpose, concatenation,
//! row gathering.

use std::sync::Arc;

use super::{Op, Tape, Var};

impl Tape {
    /// Matrix product `a × b`.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::MatMul(a, b))
    }

    /// Transposed copy.
    pub fn transpose(&mut self, a: Var) -> Var {
        self.record(Op::Transpose(a))
    }

    /// Gathers rows of `src` at `idx` (repetition allowed). The backward pass
    /// scatter-adds gradients back into the gathered rows.
    pub fn gather_rows(&mut self, src: Var, idx: Arc<Vec<usize>>) -> Var {
        self.record(Op::GatherRows { src, idx })
    }

    /// Horizontal concatenation `[a | b]`.
    pub fn concat_cols(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::ConcatCols(a, b))
    }

    /// Vertical concatenation (stacks `b` below `a`).
    pub fn concat_rows(&mut self, a: Var, b: Var) -> Var {
        self.record(Op::ConcatRows(a, b))
    }

    /// `x Wᵀ`-style affine layer helper: `x × w + bias` (bias row-broadcast).
    pub fn linear(&mut self, x: Var, w: Var, bias: Var) -> Var {
        let xw = self.matmul(x, w);
        self.add_row_broadcast(xw, bias)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    #[test]
    fn matmul_forward() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let b = t.leaf(Matrix::identity(2));
        let c = t.matmul(a, b);
        assert_eq!(t.value(c), t.value(a));
    }

    #[test]
    fn gather_forward() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(3, 1, vec![10.0, 20.0, 30.0]));
        let g = t.gather_rows(a, Arc::new(vec![2, 2, 0]));
        assert_eq!(t.value(g).as_slice(), &[30.0, 30.0, 10.0]);
    }

    #[test]
    fn concat_forward() {
        let mut t = Tape::new();
        let a = t.leaf(Matrix::from_vec(2, 1, vec![1.0, 2.0]));
        let b = t.leaf(Matrix::from_vec(2, 1, vec![3.0, 4.0]));
        let cc = t.concat_cols(a, b);
        assert_eq!(t.value(cc).as_slice(), &[1.0, 3.0, 2.0, 4.0]);
        let cr = t.concat_rows(a, b);
        assert_eq!(t.value(cr).as_slice(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn linear_forward() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 2, vec![1.0, 1.0]));
        let w = t.leaf(Matrix::from_vec(2, 1, vec![2.0, 3.0]));
        let b = t.leaf(Matrix::row_vec(&[0.5]));
        let y = t.linear(x, w, b);
        assert_eq!(t.value(y).scalar_value(), 5.5);
    }
}
