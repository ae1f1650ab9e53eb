//! Graph-structured operations: sparse × dense products with differentiable
//! edge values, per-destination edge softmax (the GAT attention kernel), and
//! the Eq. 4 node-pair scorer.

use std::sync::Arc;

use super::{Op, Tape, Var};
use crate::matrix::Matrix;
use crate::sparse::CsrStructure;

impl Tape {
    /// Sparse × dense product `A × dense` where the sparsity pattern comes
    /// from `structure` and the per-entry values from the `nnz × 1` variable
    /// `values`.
    ///
    /// Gradients flow into **both** operands: into `dense` via the transposed
    /// product, and into each edge value `v_p` (edge `r → c`) via
    /// `∂L/∂v_p = ⟨∂L/∂out[r, :], dense[c, :]⟩`. The latter is what allows the
    /// SES structure mask (and GAT attention) to be trained end-to-end.
    pub fn spmm(&mut self, structure: Arc<CsrStructure>, values: Var, dense: Var) -> Var {
        self.record(Op::Spmm {
            structure,
            values,
            dense,
        })
    }

    /// Convenience: sparse × dense with *fixed* values (records the values as
    /// a constant so no gradient is computed for them).
    pub fn spmm_fixed(&mut self, structure: Arc<CsrStructure>, values: &[f32], dense: Var) -> Var {
        let vals = self.constant(Matrix::col_vec(values));
        self.spmm(structure, vals, dense)
    }

    /// Per-row segment softmax over CSR entries: for each row `r`, the stored
    /// entries of `r` are soft-maxed together. `scores` is `nnz × 1`; the
    /// output has the same shape.
    ///
    /// With rows as destination nodes this is exactly GAT's attention
    /// normalisation over incoming edges. Rows are processed in parallel by
    /// the [`crate::kernels::edge_softmax`] kernel (bit-identical at any
    /// thread count).
    pub fn edge_softmax(&mut self, structure: Arc<CsrStructure>, scores: Var) -> Var {
        self.record(Op::EdgeSoftmax { scores, structure })
    }

    /// Eq. 4 pair logits straight from the node embeddings `h` (`n × f`):
    /// for each pair `p`, `w₁·h[a_p] + w₂·h[b_p] + w₃·(h[a_p] ⊙ h[b_p]) + b`
    /// as a `P × 1` column. `w` is `3f × 1`, or `2f × 1` for the additive
    /// scorer without the `w₃` block; `b` is `1 × 1`.
    ///
    /// Bit-identical — value and the gradients of `h`, `w` and `b` — to
    /// `linear(concat_cols(concat_cols(gather_rows(h, a), gather_rows(h,
    /// b)), mul(..)), w, b)`, but no `P × ·` pair matrix is materialised:
    /// the [`crate::kernels::score_pairs`] kernel reads the endpoint rows
    /// in place and its backward scatters into `h`.
    pub fn score_pairs(
        &mut self,
        h: Var,
        a_idx: Arc<Vec<usize>>,
        b_idx: Arc<Vec<usize>>,
        w: Var,
        b: Var,
    ) -> Var {
        self.record(Op::ScorePairs {
            h,
            w,
            bias: b,
            a_idx,
            b_idx,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_structure() -> Arc<CsrStructure> {
        // 3 nodes; row r holds incoming edges: 0<-1, 1<-0, 1<-2, 2<-1
        Arc::new(CsrStructure::from_edges(
            3,
            3,
            &[(0, 1), (1, 0), (1, 2), (2, 1)],
        ))
    }

    #[test]
    fn spmm_forward_matches_dense() {
        let mut t = Tape::new();
        let s = chain_structure();
        let vals = t.leaf(Matrix::col_vec(&[1.0, 2.0, 3.0, 4.0]));
        let x = t.leaf(Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]));
        let y = t.spmm(s.clone(), vals, x);
        let dense = crate::sparse::CsrMatrix::new(s, vec![1.0, 2.0, 3.0, 4.0]).to_dense();
        let expect = dense.matmul(t.value(x));
        assert!(t.value(y).max_abs_diff(&expect) < 1e-6);
    }

    #[test]
    fn edge_softmax_rows_sum_to_one() {
        let mut t = Tape::new();
        let s = chain_structure();
        let scores = t.leaf(Matrix::col_vec(&[0.3, -1.0, 2.0, 0.0]));
        let a = t.edge_softmax(s.clone(), scores);
        let av = t.value(a).as_slice();
        // row 0 has one entry -> 1.0; row 1 has two entries summing to 1
        assert!((av[0] - 1.0).abs() < 1e-6);
        assert!((av[1] + av[2] - 1.0).abs() < 1e-6);
        assert!(av[2] > av[1], "larger score gets larger attention");
        assert!((av[3] - 1.0).abs() < 1e-6);
        let _ = s;
    }

    #[test]
    fn edge_softmax_handles_empty_rows() {
        let mut t = Tape::new();
        let s = Arc::new(CsrStructure::from_edges(3, 3, &[(0, 1)]));
        let scores = t.leaf(Matrix::col_vec(&[5.0]));
        let a = t.edge_softmax(s, scores);
        assert_eq!(t.value(a).as_slice(), &[1.0]);
    }
}
