//! The op table: one typed [`OpKind`] per tape op.
//!
//! Everything the workspace knows about an op except its backward rule is
//! defined here, once: its name, arity, payload and parameter flags,
//! determinism class, shape rule ([`infer_shape`]) and forward body
//! ([`forward`]). The tape records every op through this table
//! (`Tape::record`), `ses-verify` checks exported IR against the same shape
//! rule, and `ses-ir`'s executor replays plans through the same forward
//! body. The backward rules live in `backward.rs`, one match arm per op.
//!
//! Adding an op means adding one row to the table below and filling in the
//! match arms the compiler then reports as missing.

use std::fmt;
use std::sync::Arc;

use super::IrMeta;
use crate::matrix::Matrix;
use crate::sparse::{spmm, CsrStructure};

/// An output or operand shape, `(rows, cols)`.
pub type Shape = (usize, usize);

/// Classification of an op's parallel execution behaviour, mirroring the
/// determinism contract documented in `ses_tensor::par`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetClass {
    /// Runs serially (or element-wise with one writer per output element):
    /// trivially order-independent.
    Serial,
    /// Runs on the parallel layer with partition geometry that is a pure
    /// function of the problem shape and block-ordered merges: proven
    /// bit-identical at any thread count.
    ParallelDeterministic,
}

/// Defines [`OpKind`] and its per-op constant columns from one table.
macro_rules! op_table {
    ($(
        $(#[$doc:meta])*
        $kind:ident = $name:literal, arity $arity:literal, payload $payload:literal,
            param $param:literal, $det:ident;
    )*) => {
        /// The kind of a recorded tape op. `Display` prints the name of the
        /// `Tape` method that records it (`add`, `matmul`, …), the name used
        /// in sanitizer diagnostics, telemetry and the exported IR.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum OpKind {
            $($(#[$doc])* $kind,)*
        }

        impl OpKind {
            /// Every op kind, in table order.
            pub const ALL: &'static [OpKind] = &[$(OpKind::$kind),*];

            /// The name of the `Tape` method that records this op.
            pub fn name(self) -> &'static str {
                match self {
                    $(OpKind::$kind => $name,)*
                }
            }

            /// Number of tape parents the op consumes.
            pub fn arity(self) -> usize {
                match self {
                    $(OpKind::$kind => $arity,)*
                }
            }

            /// Whether the op carries side-channel data beyond its parents
            /// and scalar parameter (a leaf's stored value, sparse structure
            /// contents, index lists, labels, dropout masks). The IR only
            /// summarises it in [`IrMeta`]; executors receive it as a
            /// [`Payload`].
            pub fn has_payload(self) -> bool {
                match self {
                    $(OpKind::$kind => $payload,)*
                }
            }

            /// Whether the op takes one scalar `f32` attribute (a scale
            /// constant, slope or epsilon), exported as `IrNode::params`.
            pub fn has_param(self) -> bool {
                match self {
                    $(OpKind::$kind => $param,)*
                }
            }

            /// How the op's kernel partitions and merges its work.
            pub fn determinism(self) -> DetClass {
                match self {
                    $(OpKind::$kind => DetClass::$det,)*
                }
            }
        }
    };
}

op_table! {
    /// Input with no parents (constant or parameter).
    Leaf = "leaf", arity 0, payload true, param false, Serial;
    /// Element-wise addition.
    Add = "add", arity 2, payload false, param false, Serial;
    /// Element-wise subtraction.
    Sub = "sub", arity 2, payload false, param false, Serial;
    /// Element-wise (Hadamard) product.
    Mul = "mul", arity 2, payload false, param false, Serial;
    /// Multiplication by a constant.
    Scale = "scale", arity 1, payload false, param true, Serial;
    /// Addition of a constant.
    AddScalar = "add_scalar", arity 1, payload false, param true, Serial;
    /// `matrix * scalar_var` where the scalar is a `1 × 1` variable.
    MulScalarVar = "mul_scalar_var", arity 2, payload false, param false, Serial;
    /// Dense matrix product.
    MatMul = "matmul", arity 2, payload false, param false, ParallelDeterministic;
    /// Transposed copy.
    Transpose = "transpose", arity 1, payload false, param false, Serial;
    /// `(n × f) + (1 × f)` row-broadcast bias addition.
    AddRowBroadcast = "add_row_broadcast", arity 2, payload false, param false, Serial;
    /// `(n × f) * (n × 1)` column-broadcast scaling.
    MulColBroadcast = "mul_col_broadcast", arity 2, payload false, param false, Serial;
    /// Sparse × dense product; the first operand holds the `nnz × 1` values.
    Spmm = "spmm", arity 2, payload true, param false, ParallelDeterministic;
    /// Logistic sigmoid.
    Sigmoid = "sigmoid", arity 1, payload false, param false, Serial;
    /// Rectified linear unit.
    Relu = "relu", arity 1, payload false, param false, Serial;
    /// Leaky ReLU with a constant negative slope.
    LeakyRelu = "leaky_relu", arity 1, payload false, param true, Serial;
    /// Exponential linear unit with a constant `α`.
    Elu = "elu", arity 1, payload false, param true, Serial;
    /// Hyperbolic tangent.
    Tanh = "tanh", arity 1, payload false, param false, Serial;
    /// `sqrt(x + eps)`.
    SqrtEps = "sqrt_eps", arity 1, payload false, param true, Serial;
    /// `ln(x + eps)`.
    LogEps = "log_eps", arity 1, payload false, param true, Serial;
    /// Element-wise exponential.
    Exp = "exp", arity 1, payload false, param false, Serial;
    /// Element-wise absolute value.
    Abs = "abs", arity 1, payload false, param false, Serial;
    /// Row-wise log-softmax.
    LogSoftmaxRows = "log_softmax_rows", arity 1, payload false, param false, Serial;
    /// Mean negative log-likelihood over a labelled row subset.
    NllMasked = "nll_masked", arity 1, payload true, param false, Serial;
    /// Per-row softmax over the stored entries of a CSR structure.
    EdgeSoftmax = "edge_softmax", arity 1, payload true, param false, ParallelDeterministic;
    /// Row gather (repetition allowed).
    GatherRows = "gather_rows", arity 1, payload true, param false, Serial;
    /// Horizontal concatenation.
    ConcatCols = "concat_cols", arity 2, payload false, param false, Serial;
    /// Vertical concatenation.
    ConcatRows = "concat_rows", arity 2, payload false, param false, Serial;
    /// Sum of all elements.
    SumAll = "sum_all", arity 1, payload false, param false, Serial;
    /// Mean of all elements.
    MeanAll = "mean_all", arity 1, payload false, param false, Serial;
    /// Per-row sums.
    RowSum = "row_sum", arity 1, payload false, param false, Serial;
    /// Multiplication by a fixed, pre-sampled dropout mask.
    Dropout = "dropout", arity 1, payload true, param false, Serial;
    /// Eq. 4 pair logits `w·[h_a ; h_b (; h_a ⊙ h_b)] + b` straight from the
    /// node embeddings; operands `(h, w, b)`, payload the two index lists.
    ScorePairs = "score_pairs", arity 3, payload true, param false, Serial;
}

impl OpKind {
    /// Whether the output is a deterministic function of the parent values,
    /// the scalar parameter and the payload (false only for `leaf`, whose
    /// value is stored data the IR never sees).
    pub fn is_pure(self) -> bool {
        self != OpKind::Leaf
    }

    /// True when two nodes with equal kind, params, meta and value-equal
    /// parents provably compute the same value — the only license for
    /// common-subexpression elimination. Payload ops are excluded because
    /// the IR only summarises their payloads.
    pub fn cse_safe(self) -> bool {
        self.is_pure() && !self.has_payload()
    }
}

impl fmt::Display for OpKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Side-channel data of one op: what the tape holds beyond parent values
/// and the scalar parameter. [`Payload::meta`] is its IR summary.
#[derive(Debug, Clone)]
pub enum Payload {
    /// Value of a `leaf` node (weights, features, mask logits).
    Leaf(Matrix),
    /// CSR structure of an `spmm`/`edge_softmax` node.
    Sparse(Arc<CsrStructure>),
    /// Row indices of a `gather_rows` node.
    Gather(Arc<Vec<usize>>),
    /// Endpoint rows of a `score_pairs` node: pair `p` is `(a[p], b[p])`.
    Pairs {
        /// First endpoints.
        a: Arc<Vec<usize>>,
        /// Second endpoints.
        b: Arc<Vec<usize>>,
    },
    /// Labels and masked row set of an `nll_masked` node.
    Nll {
        /// Per-row class labels.
        labels: Arc<Vec<usize>>,
        /// Rows the loss averages over.
        idx: Arc<Vec<usize>>,
    },
    /// Pre-sampled dropout mask (entries `0` or `1/(1-p)`).
    Mask(Arc<Vec<f32>>),
}

impl Payload {
    /// The summary of this payload that the IR carries and the shape rule
    /// checks.
    pub fn meta(&self) -> IrMeta {
        match self {
            Payload::Leaf(m) => IrMeta::Leaf {
                rows: m.rows(),
                cols: m.cols(),
            },
            Payload::Sparse(s) => IrMeta::Sparse {
                rows: s.n_rows(),
                cols: s.n_cols(),
                nnz: s.nnz(),
            },
            Payload::Gather(idx) => IrMeta::Gather {
                idx_len: idx.len(),
                idx_max: idx.iter().copied().max(),
            },
            Payload::Pairs { a, b } => IrMeta::Pairs {
                a_len: a.len(),
                b_len: b.len(),
                idx_max: a.iter().chain(b.iter()).copied().max(),
            },
            Payload::Nll { labels, idx } => IrMeta::Nll {
                labels_len: labels.len(),
                idx_len: idx.len(),
                idx_max: idx.iter().copied().max(),
                // Rows past the label vector are caught by the shape rule
                // through `idx_max`; skip them here instead of indexing.
                label_max: idx.iter().filter_map(|&i| labels.get(i)).copied().max(),
            },
            Payload::Mask(mask) => IrMeta::Mask { len: mask.len() },
        }
    }
}

/// A violated shape rule: what failed, and the operands it concerns (by
/// position, with their shapes). [`ShapeError::describe`] names the
/// operands by tape node id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// The rule, e.g. "operand shape mismatch" or "bias must be 1x4".
    pub rule: String,
    /// The operands the rule relates: `(position, shape)`.
    pub operands: Vec<(usize, Shape)>,
}

impl ShapeError {
    /// Renders the violation as `rule: node A is RxC but node B is RxC`,
    /// naming operand `k` as `node parents[k]` (or `operand k` when
    /// `parents` is shorter).
    pub fn describe(&self, parents: &[usize]) -> String {
        let operands: Vec<String> = self
            .operands
            .iter()
            .map(|&(k, (r, c))| match parents.get(k) {
                Some(id) => format!("node {id} is {r}x{c}"),
                None => format!("operand {k} is {r}x{c}"),
            })
            .collect();
        if operands.is_empty() {
            self.rule.clone()
        } else {
            format!("{}: {}", self.rule, operands.join(" but "))
        }
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe(&[]))
    }
}

/// The shape rule: the output shape of `kind` applied to operands of shape
/// `parents` with side channel `meta`, or the rule the operands violate.
///
/// The tape runs it on every recorded op before the forward body, the
/// static verifier on every IR node, and the plan executor on every step,
/// so an op that passes here cannot trip an index or dimension panic in
/// [`forward`].
pub fn infer_shape(kind: OpKind, parents: &[Shape], meta: &IrMeta) -> Result<Shape, ShapeError> {
    let fail = |rule: String, ks: &[usize]| ShapeError {
        rule,
        operands: ks.iter().map(|&k| (k, parents[k])).collect(),
    };
    // Error messages are only formatted on failure: this runs per tape op.
    let ensure = |ok: bool, err: &dyn Fn() -> ShapeError| if ok { Ok(()) } else { Err(err()) };
    let arity = kind.arity();
    ensure(parents.len() == arity, &|| {
        fail(
            format!("expects {arity} operand(s), found {}", parents.len()),
            &[],
        )
    })?;
    let no_meta = |need: &str| fail(format!("requires {need} metadata"), &[]);
    let p = |k: usize| parents[k];
    use OpKind::*;
    match kind {
        Leaf => match *meta {
            IrMeta::Leaf { rows, cols } => Ok((rows, cols)),
            _ => Err(no_meta("Leaf")),
        },
        Add | Sub | Mul => {
            ensure(p(0) == p(1), &|| {
                fail("operand shape mismatch".into(), &[0, 1])
            })?;
            Ok(p(0))
        }
        Scale | AddScalar | Sigmoid | Relu | LeakyRelu | Elu | Tanh | SqrtEps | LogEps | Exp
        | Abs | LogSoftmaxRows => Ok(p(0)),
        MulScalarVar => {
            ensure(p(0) == (1, 1), &|| fail("scalar must be 1x1".into(), &[0]))?;
            Ok(p(1))
        }
        MatMul => {
            ensure(p(0).1 == p(1).0, &|| {
                fail("inner dimensions disagree".into(), &[0, 1])
            })?;
            Ok((p(0).0, p(1).1))
        }
        Transpose => Ok((p(0).1, p(0).0)),
        AddRowBroadcast => {
            let f = p(0).1;
            ensure(p(1) == (1, f), &|| {
                fail(format!("bias must be 1x{f}"), &[0, 1])
            })?;
            Ok(p(0))
        }
        MulColBroadcast => {
            let n = p(0).0;
            ensure(p(1) == (n, 1), &|| {
                fail(format!("scaler must be {n}x1"), &[0, 1])
            })?;
            Ok(p(0))
        }
        Spmm => {
            let IrMeta::Sparse { rows, cols, nnz } = *meta else {
                return Err(no_meta("Sparse"));
            };
            ensure(p(0) == (nnz, 1), &|| {
                fail(format!("values must be {nnz}x1 (nnz x 1)"), &[0])
            })?;
            ensure(p(1).0 == cols, &|| {
                fail(
                    format!("dense operand must have the structure's {cols} rows"),
                    &[1],
                )
            })?;
            Ok((rows, p(1).1))
        }
        EdgeSoftmax => {
            let IrMeta::Sparse { nnz, .. } = *meta else {
                return Err(no_meta("Sparse"));
            };
            ensure(p(0) == (nnz, 1), &|| {
                fail(format!("scores must be {nnz}x1 (nnz x 1)"), &[0])
            })?;
            Ok((nnz, 1))
        }
        GatherRows => {
            let IrMeta::Gather { idx_len, idx_max } = *meta else {
                return Err(no_meta("Gather"));
            };
            if let Some(mx) = idx_max.filter(|&mx| mx >= p(0).0) {
                return Err(fail(format!("gather index {mx} out of bounds"), &[0]));
            }
            Ok((idx_len, p(0).1))
        }
        ScorePairs => {
            let IrMeta::Pairs {
                a_len,
                b_len,
                idx_max,
            } = *meta
            else {
                return Err(no_meta("Pairs"));
            };
            ensure(a_len == b_len, &|| {
                fail(format!("{a_len} first endpoints for {b_len} second"), &[])
            })?;
            if let Some(mx) = idx_max.filter(|&mx| mx >= p(0).0) {
                return Err(fail(format!("pair index {mx} out of bounds"), &[0]));
            }
            // The block count is read from `w`: two blocks score the
            // additive concatenation, three add the interaction block.
            let f = p(0).1;
            ensure(p(1) == (2 * f, 1) || p(1) == (3 * f, 1), &|| {
                fail(
                    format!("weight must be {}x1 or {}x1", 2 * f, 3 * f),
                    &[0, 1],
                )
            })?;
            ensure(p(2) == (1, 1), &|| fail("bias must be 1x1".into(), &[2]))?;
            Ok((a_len, 1))
        }
        NllMasked => {
            let IrMeta::Nll {
                labels_len,
                idx_len,
                idx_max,
                label_max,
            } = *meta
            else {
                return Err(no_meta("Nll"));
            };
            let (n, c) = p(0);
            let bad = if labels_len != n {
                Some(format!("{labels_len} labels for {n} rows"))
            } else if idx_len == 0 {
                Some("empty loss-row index list".to_string())
            } else if let Some(mx) = idx_max.filter(|&mx| mx >= n) {
                Some(format!("loss row {mx} out of bounds"))
            } else {
                label_max
                    .filter(|&mx| mx >= c)
                    .map(|mx| format!("label {mx} out of bounds for {c} classes"))
            };
            match bad {
                Some(rule) => Err(fail(rule, &[0])),
                None => Ok((1, 1)),
            }
        }
        ConcatCols => {
            ensure(p(0).0 == p(1).0, &|| {
                fail("row counts disagree".into(), &[0, 1])
            })?;
            Ok((p(0).0, p(0).1 + p(1).1))
        }
        ConcatRows => {
            ensure(p(0).1 == p(1).1, &|| {
                fail("column counts disagree".into(), &[0, 1])
            })?;
            Ok((p(0).0 + p(1).0, p(0).1))
        }
        SumAll | MeanAll => Ok((1, 1)),
        RowSum => Ok((p(0).0, 1)),
        Dropout => {
            let IrMeta::Mask { len } = *meta else {
                return Err(no_meta("Mask"));
            };
            let (r, c) = p(0);
            ensure(len == r * c, &|| {
                fail(format!("mask has {len} entries"), &[0])
            })?;
            Ok((r, c))
        }
    }
}

/// The forward body of `kind`: the op's value from its operand values, its
/// scalar parameter (ignored by ops without one) and its payload.
///
/// Precondition: [`infer_shape`] accepts `kind` with the operands' shapes
/// and the payload's [`Payload::meta`] (or [`IrMeta::None`] without a
/// payload). `Tape::record` and `ses_ir::execute` both check it first.
pub fn forward(kind: OpKind, args: &[&Matrix], param: f32, payload: Option<&Payload>) -> Matrix {
    use OpKind::*;
    match (kind, payload) {
        (Leaf, Some(Payload::Leaf(m))) => m.clone_pooled(),
        (Add, _) => args[0].add(args[1]),
        (Sub, _) => args[0].sub(args[1]),
        (Mul, _) => args[0].hadamard(args[1]),
        (Scale, _) => args[0].scale(param),
        (AddScalar, _) => args[0].map(|x| x + param),
        (MulScalarVar, _) => args[1].scale(args[0].scalar_value()),
        (MatMul, _) => args[0].matmul(args[1]),
        (Transpose, _) => args[0].transpose(),
        (AddRowBroadcast, _) => {
            let mut v = args[0].clone_pooled();
            let (n, f) = v.shape();
            let b = args[1].as_slice();
            for i in 0..n {
                let row = v.row_mut(i);
                for j in 0..f {
                    row[j] += b[j];
                }
            }
            v
        }
        (MulColBroadcast, _) => {
            let mut v = args[0].clone_pooled();
            let (n, f) = v.shape();
            for (i, &si) in args[1].as_slice().iter().enumerate().take(n) {
                let row = v.row_mut(i);
                for x in row.iter_mut().take(f) {
                    *x *= si;
                }
            }
            v
        }
        (Spmm, Some(Payload::Sparse(structure))) => spmm(structure, args[0].as_slice(), args[1]),
        // Rows are processed in parallel by the kernel (bit-identical at any
        // thread count); finiteness is checked on the merged output.
        (EdgeSoftmax, Some(Payload::Sparse(structure))) => {
            let out = crate::kernels::edge_softmax(
                structure,
                args[0].as_slice(),
                crate::par::configured_threads(),
            );
            Matrix::from_vec(out.len(), 1, out)
        }
        (Sigmoid, _) => args[0].map(|x| 1.0 / (1.0 + (-x).exp())),
        (Relu, _) => args[0].map(|x| x.max(0.0)),
        (LeakyRelu, _) => args[0].map(|x| if x > 0.0 { x } else { param * x }),
        (Elu, _) => args[0].map(|x| if x > 0.0 { x } else { param * (x.exp() - 1.0) }),
        (Tanh, _) => args[0].map(f32::tanh),
        (SqrtEps, _) => args[0].map(|x| (x + param).sqrt()),
        (LogEps, _) => args[0].map(|x| (x + param).ln()),
        (Exp, _) => args[0].map(f32::exp),
        (Abs, _) => args[0].map(f32::abs),
        (LogSoftmaxRows, _) => {
            let x = args[0];
            let (n, c) = x.shape();
            let mut out = Matrix::zeros_pooled(n, c);
            for i in 0..n {
                let row = x.row(i);
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let logsum = row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln() + max;
                let o = out.row_mut(i);
                for j in 0..c {
                    o[j] = row[j] - logsum;
                }
            }
            out
        }
        (NllMasked, Some(Payload::Nll { labels, idx })) => {
            let lp = args[0];
            let mut acc = 0.0;
            for &i in idx.iter() {
                acc -= lp[(i, labels[i])];
            }
            Matrix::scalar(acc / idx.len() as f32)
        }
        (GatherRows, Some(Payload::Gather(idx))) => args[0].gather_rows(idx),
        (ScorePairs, Some(Payload::Pairs { a, b })) => {
            crate::kernels::score_pairs(args[0], a, b, args[1].as_slice(), args[2].scalar_value())
        }
        (ConcatCols, _) => args[0].concat_cols(args[1]),
        (ConcatRows, _) => args[0].concat_rows(args[1]),
        (SumAll, _) => Matrix::scalar(args[0].sum()),
        (MeanAll, _) => Matrix::scalar(args[0].mean()),
        (RowSum, _) => args[0].row_sums(),
        (Dropout, Some(Payload::Mask(mask))) => {
            let mut v = args[0].clone_pooled();
            for (x, &m) in v.as_mut_slice().iter_mut().zip(mask.iter()) {
                *x *= m;
            }
            v
        }
        (Leaf | Spmm | EdgeSoftmax | NllMasked | GatherRows | Dropout | ScorePairs, _) => {
            // lint:allow(no-unwrap): precondition breach; infer_shape rejects a missing or mistyped payload
            panic!("forward: `{kind}` called without its payload")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_consistent() {
        for &k in OpKind::ALL {
            assert_eq!(k.to_string(), k.name());
            assert_eq!(k.cse_safe(), k.arity() > 0 && !k.has_payload(), "{k}");
        }
        assert!(!OpKind::Leaf.cse_safe());
        assert!(!OpKind::Spmm.cse_safe());
        assert!(OpKind::Add.cse_safe());
        assert_eq!(
            OpKind::MatMul.determinism(),
            DetClass::ParallelDeterministic
        );
    }

    #[test]
    fn shape_errors_name_operands() {
        let e = infer_shape(OpKind::MatMul, &[(2, 3), (2, 3)], &IrMeta::None).unwrap_err();
        assert_eq!(
            e.describe(&[7, 9]),
            "inner dimensions disagree: node 7 is 2x3 but node 9 is 2x3"
        );
        assert_eq!(
            infer_shape(OpKind::MatMul, &[(2, 3), (3, 5)], &IrMeta::None),
            Ok((2, 5))
        );
        let arity = infer_shape(OpKind::Relu, &[], &IrMeta::None).unwrap_err();
        assert_eq!(arity.to_string(), "expects 1 operand(s), found 0");
        let meta = infer_shape(OpKind::Spmm, &[(2, 1), (3, 3)], &IrMeta::None).unwrap_err();
        assert_eq!(meta.to_string(), "requires Sparse metadata");
        let bias = infer_shape(OpKind::AddRowBroadcast, &[(2, 4), (2, 1)], &IrMeta::None);
        assert_eq!(
            bias.unwrap_err().to_string(),
            "bias must be 1x4: operand 0 is 2x4 but operand 1 is 2x1"
        );
    }

    #[test]
    fn score_pairs_width_comes_from_the_weight() {
        let pairs = |idx_max| IrMeta::Pairs {
            a_len: 5,
            b_len: 5,
            idx_max,
        };
        for w_rows in [8, 12] {
            let shape = infer_shape(
                OpKind::ScorePairs,
                &[(3, 4), (w_rows, 1), (1, 1)],
                &pairs(Some(2)),
            );
            assert_eq!(shape, Ok((5, 1)), "{w_rows}");
        }
        let wide = infer_shape(
            OpKind::ScorePairs,
            &[(3, 4), (16, 1), (1, 1)],
            &pairs(Some(2)),
        );
        assert_eq!(
            wide.unwrap_err().describe(&[4, 7, 9]),
            "weight must be 8x1 or 12x1: node 4 is 3x4 but node 7 is 16x1"
        );
        let oob = infer_shape(
            OpKind::ScorePairs,
            &[(3, 4), (8, 1), (1, 1)],
            &pairs(Some(3)),
        );
        assert_eq!(
            oob.unwrap_err().to_string(),
            "pair index 3 out of bounds: operand 0 is 3x4"
        );
        let ragged = IrMeta::Pairs {
            a_len: 5,
            b_len: 4,
            idx_max: None,
        };
        let err = infer_shape(OpKind::ScorePairs, &[(3, 4), (8, 1), (1, 1)], &ragged);
        assert_eq!(
            err.unwrap_err().to_string(),
            "5 first endpoints for 4 second"
        );
    }
}
