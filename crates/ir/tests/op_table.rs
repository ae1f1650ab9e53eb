//! Every op kind, end to end: recorded on a real tape, checked against its
//! shape rule, exported, compiled and executed — and the executed value
//! must be bit-identical to the tape's forward value.
//!
//! `record` matches exhaustively over [`OpKind`], so adding an op kind
//! without a case here does not compile.

use std::sync::Arc;

use ses_ir::{compile, execute, Payload, PayloadMap};
use ses_tensor::{infer_shape, CsrStructure, Matrix, OpKind, Tape, Var};

/// A tape plus the payloads the executor needs to replay it.
struct Recording {
    t: Tape,
    payloads: PayloadMap,
}

impl Recording {
    /// Records a leaf with deterministic, sign-mixed values.
    fn leaf(&mut self, rows: usize, cols: usize) -> Var {
        let vals = (0..rows * cols)
            .map(|i| ((i * 7 % 11) as f32 - 5.0) * 0.3)
            .collect();
        self.leaf_of(Matrix::from_vec(rows, cols, vals))
    }

    /// Records a leaf with strictly positive values.
    fn positive_leaf(&mut self, rows: usize, cols: usize) -> Var {
        let vals = (0..rows * cols).map(|i| 0.25 + i as f32 * 0.5).collect();
        self.leaf_of(Matrix::from_vec(rows, cols, vals))
    }

    fn leaf_of(&mut self, m: Matrix) -> Var {
        let v = self.t.leaf(m.clone());
        self.payloads.insert(v.index(), Payload::Leaf(m));
        v
    }

    fn with_payload(&mut self, v: Var, payload: Payload) -> Var {
        self.payloads.insert(v.index(), payload);
        v
    }
}

/// Three rows; row 1 has two incoming entries, row 2 none.
fn structure() -> Arc<CsrStructure> {
    Arc::new(CsrStructure::from_edges(3, 4, &[(0, 1), (1, 0), (1, 3)]))
}

/// Records one `kind` op on fresh leaves and returns its node.
fn record(kind: OpKind, r: &mut Recording) -> Var {
    match kind {
        OpKind::Leaf => r.leaf(3, 2),
        OpKind::Add => {
            let (a, b) = (r.leaf(3, 2), r.positive_leaf(3, 2));
            r.t.add(a, b)
        }
        OpKind::Sub => {
            let (a, b) = (r.leaf(3, 2), r.positive_leaf(3, 2));
            r.t.sub(a, b)
        }
        OpKind::Mul => {
            let (a, b) = (r.leaf(3, 2), r.positive_leaf(3, 2));
            r.t.mul(a, b)
        }
        OpKind::Scale => {
            let a = r.leaf(3, 2);
            r.t.scale(a, -0.7)
        }
        OpKind::AddScalar => {
            let a = r.leaf(3, 2);
            r.t.add_scalar(a, 0.3)
        }
        OpKind::MulScalarVar => {
            let (s, m) = (r.positive_leaf(1, 1), r.leaf(3, 2));
            r.t.mul_scalar_var(s, m)
        }
        OpKind::MatMul => {
            let (a, b) = (r.leaf(3, 2), r.positive_leaf(2, 4));
            r.t.matmul(a, b)
        }
        OpKind::Transpose => {
            let a = r.leaf(3, 2);
            r.t.transpose(a)
        }
        OpKind::AddRowBroadcast => {
            let (m, b) = (r.leaf(3, 2), r.positive_leaf(1, 2));
            r.t.add_row_broadcast(m, b)
        }
        OpKind::MulColBroadcast => {
            let (m, s) = (r.leaf(3, 2), r.positive_leaf(3, 1));
            r.t.mul_col_broadcast(m, s)
        }
        OpKind::Spmm => {
            let s = structure();
            let (vals, dense) = (r.leaf(s.nnz(), 1), r.positive_leaf(4, 2));
            let v = r.t.spmm(Arc::clone(&s), vals, dense);
            r.with_payload(v, Payload::Sparse(s))
        }
        OpKind::Sigmoid => {
            let a = r.leaf(3, 2);
            r.t.sigmoid(a)
        }
        OpKind::Relu => {
            let a = r.leaf(3, 2);
            r.t.relu(a)
        }
        OpKind::LeakyRelu => {
            let a = r.leaf(3, 2);
            r.t.leaky_relu(a, 0.2)
        }
        OpKind::Elu => {
            let a = r.leaf(3, 2);
            r.t.elu(a, 1.5)
        }
        OpKind::Tanh => {
            let a = r.leaf(3, 2);
            r.t.tanh(a)
        }
        OpKind::SqrtEps => {
            let a = r.positive_leaf(3, 2);
            r.t.sqrt_eps(a, 1e-4)
        }
        OpKind::LogEps => {
            let a = r.positive_leaf(3, 2);
            r.t.log_eps(a, 1e-4)
        }
        OpKind::Exp => {
            let a = r.leaf(3, 2);
            r.t.exp(a)
        }
        OpKind::Abs => {
            let a = r.leaf(3, 2);
            r.t.abs(a)
        }
        OpKind::LogSoftmaxRows => {
            let a = r.leaf(3, 4);
            r.t.log_softmax_rows(a)
        }
        OpKind::NllMasked => {
            let logp = r.leaf(3, 4);
            let labels = Arc::new(vec![3, 0, 2]);
            let idx = Arc::new(vec![2, 0]);
            let v = r.t.nll_masked(logp, Arc::clone(&labels), Arc::clone(&idx));
            r.with_payload(v, Payload::Nll { labels, idx })
        }
        OpKind::EdgeSoftmax => {
            let s = structure();
            let scores = r.leaf(s.nnz(), 1);
            let v = r.t.edge_softmax(Arc::clone(&s), scores);
            r.with_payload(v, Payload::Sparse(s))
        }
        OpKind::GatherRows => {
            let src = r.leaf(3, 2);
            let idx = Arc::new(vec![2, 2, 0, 1]);
            let v = r.t.gather_rows(src, Arc::clone(&idx));
            r.with_payload(v, Payload::Gather(idx))
        }
        OpKind::ConcatCols => {
            let (a, b) = (r.leaf(3, 2), r.positive_leaf(3, 1));
            r.t.concat_cols(a, b)
        }
        OpKind::ConcatRows => {
            let (a, b) = (r.leaf(3, 2), r.positive_leaf(1, 2));
            r.t.concat_rows(a, b)
        }
        OpKind::SumAll => {
            let a = r.leaf(3, 2);
            r.t.sum_all(a)
        }
        OpKind::MeanAll => {
            let a = r.leaf(3, 2);
            r.t.mean_all(a)
        }
        OpKind::RowSum => {
            let a = r.leaf(3, 2);
            r.t.row_sum(a)
        }
        OpKind::ScorePairs => {
            let (h, w, b) = (r.leaf(3, 2), r.leaf(6, 1), r.positive_leaf(1, 1));
            let a_idx = Arc::new(vec![0, 2, 2, 1, 0]);
            let b_idx = Arc::new(vec![1, 2, 0, 0, 0]);
            let v =
                r.t.score_pairs(h, Arc::clone(&a_idx), Arc::clone(&b_idx), w, b);
            r.with_payload(v, Payload::Pairs { a: a_idx, b: b_idx })
        }
        OpKind::Dropout => {
            let a = r.leaf(3, 2);
            let mask = Arc::new(vec![0.0, 1.25, 1.25, 0.0, 1.25, 1.25]);
            let v = r.t.dropout(a, Arc::clone(&mask));
            r.with_payload(v, Payload::Mask(mask))
        }
    }
}

#[test]
fn every_op_kind_replays_bit_identically_through_the_plan_executor() {
    for &kind in OpKind::ALL {
        let mut r = Recording {
            t: Tape::new(),
            payloads: PayloadMap::new(),
        };
        let v = record(kind, &mut r);
        let ir = r.t.export_ir();
        let node = &ir.nodes[v.index()];
        assert_eq!(node.op, kind);
        assert_eq!(node.parents.len(), kind.arity(), "{kind}: arity");
        assert_eq!(node.params.len(), usize::from(kind.has_param()), "{kind}");

        // The shape rule agrees with what the tape recorded.
        let shapes: Vec<(usize, usize)> = node.parents.iter().map(|&p| ir.nodes[p].shape).collect();
        assert_eq!(
            infer_shape(kind, &shapes, &node.meta),
            Ok(r.t.shape(v)),
            "{kind}: shape rule"
        );

        // Compiled and executed, the value is the tape's, bit for bit.
        let plan = compile(&ir, None, &[v.index()]).unwrap_or_else(|e| panic!("{kind}: {e}"));
        let got = execute(&plan, &r.payloads).unwrap_or_else(|e| panic!("{kind}: {e}"));
        let want = r.t.value(v);
        assert_eq!(got[0].shape(), want.shape(), "{kind}");
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got[0]), bits(want), "{kind}: executed value differs");
    }
}
