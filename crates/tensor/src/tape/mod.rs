//! Tape-based reverse-mode automatic differentiation.
//!
//! The tape is a flat arena of [`Node`]s; a [`Var`] is an index into it.
//! Operations are recorded as [`Op`] enum variants during the forward pass
//! (define-by-run) and replayed in reverse by [`Tape::backward`].
//!
//! Design notes:
//! * no `Rc<RefCell>` pointer graphs — indices only, per the flat-arena idiom;
//! * sparse adjacency structure is shared via `Arc<CsrStructure>` and never
//!   copied per epoch;
//! * gradients are allocated lazily: constants (inputs, adjacency) never
//!   receive a gradient buffer;
//! * every op is recorded through the [op table](op): its operand shapes
//!   are checked against the op's shape rule in every build, then its one
//!   forward body runs;
//! * a [sanitizer](sanitize) checks finiteness of forward values and
//!   gradients and reports leaked nodes — always on in debug builds, opt-in
//!   via `SES_SANITIZE=1` in release (see `docs/CORRECTNESS.md`).

mod backward;
mod elementwise;
mod graph_ops;
mod ir;
mod linalg;
mod loss;
mod op;
mod reduce;
mod sanitize;

pub use elementwise::dropout_mask;
pub use ir::{IrMeta, IrNode, TapeIr};
pub use op::{forward, infer_shape, DetClass, OpKind, Payload, Shape, ShapeError};
pub use sanitize::{sanitize_enabled, Leak, LeakBudget, LeakKind};

use std::sync::Arc;

use crate::matrix::Matrix;
use crate::sparse::CsrStructure;

/// Handle to a value recorded on a [`Tape`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Var(pub(crate) usize);

impl Var {
    /// The node's arena index — matches the node ids in sanitizer
    /// diagnostics and [`Tape::leaked_nodes`] reports.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Recorded operation: one variant per [`OpKind`] (documented there),
/// holding the parent [`Var`]s, the scalar parameter and the payload that
/// the forward body and the backward rule read.
#[derive(Debug, Clone)]
pub(crate) enum Op {
    Leaf,
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    AddScalar(Var, f32),
    MulScalarVar {
        scalar: Var,
        matrix: Var,
    },
    MatMul(Var, Var),
    Transpose(Var),
    AddRowBroadcast {
        matrix: Var,
        bias: Var,
    },
    MulColBroadcast {
        matrix: Var,
        scaler: Var,
    },
    Spmm {
        structure: Arc<CsrStructure>,
        values: Var,
        dense: Var,
    },
    Sigmoid(Var),
    Relu(Var),
    LeakyRelu(Var, f32),
    Elu(Var, f32),
    Tanh(Var),
    Sqrt(Var, f32),
    Log(Var, f32),
    Exp(Var),
    Abs(Var),
    LogSoftmaxRows(Var),
    NllMasked {
        logp: Var,
        labels: Arc<Vec<usize>>,
        idx: Arc<Vec<usize>>,
    },
    EdgeSoftmax {
        scores: Var,
        structure: Arc<CsrStructure>,
    },
    GatherRows {
        src: Var,
        idx: Arc<Vec<usize>>,
    },
    ConcatCols(Var, Var),
    ConcatRows(Var, Var),
    SumAll(Var),
    MeanAll(Var),
    RowSum(Var),
    Dropout {
        src: Var,
        mask: Arc<Vec<f32>>,
    },
    ScorePairs {
        h: Var,
        w: Var,
        bias: Var,
        a_idx: Arc<Vec<usize>>,
        b_idx: Arc<Vec<usize>>,
    },
}

impl Op {
    /// The op's row in the op table.
    pub(crate) fn kind(&self) -> OpKind {
        match self {
            Op::Leaf => OpKind::Leaf,
            Op::Add(..) => OpKind::Add,
            Op::Sub(..) => OpKind::Sub,
            Op::Mul(..) => OpKind::Mul,
            Op::Scale(..) => OpKind::Scale,
            Op::AddScalar(..) => OpKind::AddScalar,
            Op::MulScalarVar { .. } => OpKind::MulScalarVar,
            Op::MatMul(..) => OpKind::MatMul,
            Op::Transpose(..) => OpKind::Transpose,
            Op::AddRowBroadcast { .. } => OpKind::AddRowBroadcast,
            Op::MulColBroadcast { .. } => OpKind::MulColBroadcast,
            Op::Spmm { .. } => OpKind::Spmm,
            Op::Sigmoid(..) => OpKind::Sigmoid,
            Op::Relu(..) => OpKind::Relu,
            Op::LeakyRelu(..) => OpKind::LeakyRelu,
            Op::Elu(..) => OpKind::Elu,
            Op::Tanh(..) => OpKind::Tanh,
            Op::Sqrt(..) => OpKind::SqrtEps,
            Op::Log(..) => OpKind::LogEps,
            Op::Exp(..) => OpKind::Exp,
            Op::Abs(..) => OpKind::Abs,
            Op::LogSoftmaxRows(..) => OpKind::LogSoftmaxRows,
            Op::NllMasked { .. } => OpKind::NllMasked,
            Op::EdgeSoftmax { .. } => OpKind::EdgeSoftmax,
            Op::GatherRows { .. } => OpKind::GatherRows,
            Op::ConcatCols(..) => OpKind::ConcatCols,
            Op::ConcatRows(..) => OpKind::ConcatRows,
            Op::SumAll(..) => OpKind::SumAll,
            Op::MeanAll(..) => OpKind::MeanAll,
            Op::RowSum(..) => OpKind::RowSum,
            Op::Dropout { .. } => OpKind::Dropout,
            Op::ScorePairs { .. } => OpKind::ScorePairs,
        }
    }

    /// The tape parents in operand order: the first `n` entries of the
    /// returned array (data-flow edges only — payloads are not parents).
    pub(crate) fn parents(&self) -> ([Var; 3], usize) {
        match *self {
            Op::Leaf => ([Var(0); 3], 0),
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::MatMul(a, b)
            | Op::ConcatCols(a, b)
            | Op::ConcatRows(a, b)
            | Op::MulScalarVar {
                scalar: a,
                matrix: b,
            }
            | Op::AddRowBroadcast { matrix: a, bias: b }
            | Op::MulColBroadcast {
                matrix: a,
                scaler: b,
            }
            | Op::Spmm {
                values: a,
                dense: b,
                ..
            } => ([a, b, b], 2),
            Op::Scale(a, _)
            | Op::AddScalar(a, _)
            | Op::Transpose(a)
            | Op::Sigmoid(a)
            | Op::Relu(a)
            | Op::LeakyRelu(a, _)
            | Op::Elu(a, _)
            | Op::Tanh(a)
            | Op::Sqrt(a, _)
            | Op::Log(a, _)
            | Op::Exp(a)
            | Op::Abs(a)
            | Op::LogSoftmaxRows(a)
            | Op::SumAll(a)
            | Op::MeanAll(a)
            | Op::RowSum(a)
            | Op::NllMasked { logp: a, .. }
            | Op::EdgeSoftmax { scores: a, .. }
            | Op::GatherRows { src: a, .. }
            | Op::Dropout { src: a, .. } => ([a, a, a], 1),
            Op::ScorePairs { h, w, bias, .. } => ([h, w, bias], 3),
        }
    }

    /// Visits every tape parent of this op, in operand order.
    pub(crate) fn for_each_parent(&self, f: impl FnMut(Var)) {
        let (parents, n) = self.parents();
        parents[..n].iter().copied().for_each(f);
    }

    /// The op's scalar attribute, for kinds that [have one](OpKind::has_param).
    pub(crate) fn param(&self) -> Option<f32> {
        match *self {
            Op::Scale(_, c)
            | Op::AddScalar(_, c)
            | Op::LeakyRelu(_, c)
            | Op::Elu(_, c)
            | Op::Sqrt(_, c)
            | Op::Log(_, c) => Some(c),
            _ => None,
        }
    }

    /// The op's side-channel data (a leaf's value lives on its node, not
    /// here, so leaves return `None`).
    pub(crate) fn payload(&self) -> Option<Payload> {
        match self {
            Op::Spmm { structure, .. } | Op::EdgeSoftmax { structure, .. } => {
                Some(Payload::Sparse(Arc::clone(structure)))
            }
            Op::GatherRows { idx, .. } => Some(Payload::Gather(Arc::clone(idx))),
            Op::NllMasked { labels, idx, .. } => Some(Payload::Nll {
                labels: Arc::clone(labels),
                idx: Arc::clone(idx),
            }),
            Op::Dropout { mask, .. } => Some(Payload::Mask(Arc::clone(mask))),
            Op::ScorePairs { a_idx, b_idx, .. } => Some(Payload::Pairs {
                a: Arc::clone(a_idx),
                b: Arc::clone(b_idx),
            }),
            _ => None,
        }
    }
}

pub(crate) struct Node {
    pub(crate) value: Matrix,
    pub(crate) grad: Option<Matrix>,
    pub(crate) op: Op,
    pub(crate) needs_grad: bool,
}

/// The autodiff tape: a growable arena of nodes.
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
}

impl Tape {
    /// Creates an empty tape.
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Creates an empty tape with room for `cap` nodes.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(cap),
        }
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a constant (no gradient will be computed for it).
    // lint:allow(gradcheck-coverage): records a leaf, which has no backward rule to check
    pub fn constant(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, false)
    }

    /// Records a parameter leaf that will receive a gradient.
    pub fn leaf(&mut self, value: Matrix) -> Var {
        self.push(value, Op::Leaf, true)
    }

    /// The forward value of `v`.
    pub fn value(&self, v: Var) -> &Matrix {
        &self.nodes[v.0].value
    }

    /// The gradient of `v`, if one was computed by [`Tape::backward`].
    pub fn grad(&self, v: Var) -> Option<&Matrix> {
        self.nodes[v.0].grad.as_ref()
    }

    /// Gradient of `v`, panicking when absent (convenience for parameters).
    pub fn grad_unwrap(&self, v: Var) -> &Matrix {
        self.grad(v)
            // lint:allow(no-unwrap): documented panicking accessor; use `grad` to handle absence
            .expect("no gradient: did you call backward()? is this a constant?")
    }

    /// Shape of the forward value of `v`.
    pub fn shape(&self, v: Var) -> (usize, usize) {
        self.nodes[v.0].value.shape()
    }

    /// Records `op`: checks its operand shapes against the op's shape rule
    /// (in every build), runs its forward body and pushes the result. A
    /// rule violation panics with `SES_SANITIZE[<op>]: <rule>`, naming the
    /// offending nodes, before any kernel runs.
    pub(crate) fn record(&mut self, op: Op) -> Var {
        let kind = op.kind();
        let (ids, n) = op.parents();
        let parents = &ids[..n];
        let payload = op.payload();
        let meta = payload.as_ref().map_or(IrMeta::None, Payload::meta);
        let shapes = ids.map(|p| self.shape(p));
        if let Err(e) = infer_shape(kind, &shapes[..n], &meta) {
            let ids = ids.map(|p| p.0);
            // lint:allow(no-unwrap): shape-rule diagnostics are deliberate panics
            panic!("SES_SANITIZE[{kind}]: {}", e.describe(&ids[..n]));
        }
        let args = ids.map(|p| self.value(p));
        let value = forward(
            kind,
            &args[..n],
            op.param().unwrap_or(0.0),
            payload.as_ref(),
        );
        let needs_grad = parents.iter().any(|&p| self.needs(p));
        self.push(value, op, needs_grad)
    }

    pub(crate) fn push(&mut self, value: Matrix, op: Op, needs_grad: bool) -> Var {
        self.san_forward_finite(op.kind(), &value);
        self.nodes.push(Node {
            value,
            grad: None,
            op,
            needs_grad,
        });
        ses_obs::metrics::TAPE_NODES.incr();
        ses_obs::metrics::TAPE_PEAK_NODES.record_max(self.nodes.len() as i64);
        Var(self.nodes.len() - 1)
    }

    pub(crate) fn needs(&self, v: Var) -> bool {
        self.nodes[v.0].needs_grad
    }

    /// Accumulates `delta` into the gradient buffer of `v`.
    /// Adds `delta` into `v`'s gradient, taking ownership so the buffer is
    /// either stored (first contribution) or returned to the scratch pool —
    /// dropping it instead would bleed the pool's largest buffers every
    /// backward pass.
    pub(crate) fn accumulate(&mut self, v: Var, delta: Matrix) {
        let node = &mut self.nodes[v.0];
        match &mut node.grad {
            Some(g) => {
                g.add_assign(&delta);
                delta.recycle();
            }
            None => node.grad = Some(delta),
        }
    }

    /// Clears every recorded node, keeping the node-arena allocation and
    /// recycling every node's value and gradient storage into the scratch
    /// pool ([`crate::scratch`]). The next epoch's kernel outputs and
    /// elementwise results are then served from the pool instead of the
    /// allocator — this is what makes per-epoch tape allocation churn
    /// converge to ~zero in steady state.
    // lint:allow(gradcheck-coverage): clears the arena; records no op
    pub fn reset(&mut self) {
        for node in self.nodes.drain(..) {
            node.value.recycle();
            if let Some(g) = node.grad {
                g.recycle();
            }
        }
    }
}

impl Drop for Tape {
    /// A dropped tape recycles its buffers the same way [`Tape::reset`]
    /// does, so trainers that build a fresh tape per epoch still reuse the
    /// previous epoch's storage.
    fn drop(&mut self) {
        self.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaf_and_constant_grad_flags() {
        let mut t = Tape::new();
        let c = t.constant(Matrix::scalar(1.0));
        let p = t.leaf(Matrix::scalar(2.0));
        assert!(!t.needs(c));
        assert!(t.needs(p));
        assert_eq!(t.value(p).scalar_value(), 2.0);
    }

    #[test]
    #[should_panic(expected = "no gradient")]
    fn grad_unwrap_panics_without_backward() {
        let mut t = Tape::new();
        let p = t.leaf(Matrix::scalar(1.0));
        let _ = t.grad_unwrap(p);
    }

    #[test]
    fn with_capacity_starts_empty() {
        let t = Tape::with_capacity(128);
        assert!(t.is_empty());
    }

    #[test]
    fn reset_clears_nodes() {
        let mut t = Tape::new();
        t.leaf(Matrix::zeros(2, 2));
        assert_eq!(t.len(), 1);
        t.reset();
        assert!(t.is_empty());
    }
}
