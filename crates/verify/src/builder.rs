//! Dry-run trace builder: records a [`TapeIr`] from shape arithmetic alone.
//!
//! [`IrBuilder`] mirrors the `Tape` recording API at the IR level — same op
//! kinds, same operand order, same needs-grad propagation — but never
//! allocates a matrix or executes a kernel. A model's wiring can therefore
//! be traced and [`verify_tape`](crate::tape_check::verify_tape)'d in CI in
//! microseconds, before any data exists.
//!
//! The checked constructor [`IrBuilder::op`] (and its payload-free
//! shorthands [`IrBuilder::unary`]/[`IrBuilder::binary`]) runs the op's
//! shape rule at build time and refuses impossible traces; [`IrBuilder::raw`]
//! bypasses every check so tests and seeded-defect fixtures can construct
//! exactly the malformed tapes the verifier must catch.

use ses_tensor::{infer_shape, IrMeta, IrNode, OpKind, TapeIr};

/// Builds a [`TapeIr`] node by node. See the module docs.
#[derive(Debug, Default)]
pub struct IrBuilder {
    nodes: Vec<IrNode>,
}

impl IrBuilder {
    /// New empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Nodes recorded so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn push(
        &mut self,
        op: OpKind,
        parents: Vec<usize>,
        shape: (usize, usize),
        needs_grad: bool,
        has_backward: bool,
        meta: IrMeta,
    ) -> usize {
        let id = self.nodes.len();
        self.nodes.push(IrNode {
            id,
            op,
            parents,
            shape,
            needs_grad,
            has_backward,
            params: Vec::new(),
            meta,
        });
        id
    }

    /// Records a trainable parameter leaf.
    pub fn leaf(&mut self, rows: usize, cols: usize) -> usize {
        let meta = IrMeta::Leaf { rows, cols };
        self.push(OpKind::Leaf, Vec::new(), (rows, cols), true, true, meta)
    }

    /// Records a constant leaf (no gradient).
    pub fn constant(&mut self, rows: usize, cols: usize) -> usize {
        let meta = IrMeta::Leaf { rows, cols };
        self.push(OpKind::Leaf, Vec::new(), (rows, cols), false, true, meta)
    }

    /// Records a shape-checked op over `parents` with side channel `meta`
    /// (the payload summary for `spmm`, `gather_rows`, `dropout`, …;
    /// [`IrMeta::None`] for payload-free ops).
    pub fn op(&mut self, op: OpKind, parents: &[usize], meta: IrMeta) -> Result<usize, String> {
        let mut pshapes = Vec::with_capacity(parents.len());
        for &p in parents {
            let node = self
                .nodes
                .get(p)
                .ok_or_else(|| format!("`{op}`: parent {p} not recorded yet"))?;
            pshapes.push(node.shape);
        }
        let shape = infer_shape(op, &pshapes, &meta)
            .map_err(|e| format!("`{op}`: {}", e.describe(parents)))?;
        let needs_grad = parents.iter().any(|&p| self.nodes[p].needs_grad);
        Ok(self.push(op, parents.to_vec(), shape, needs_grad, true, meta))
    }

    /// Records a shape-checked single-operand, payload-free op (`relu`,
    /// `mean_all`, …).
    pub fn unary(&mut self, op: OpKind, a: usize) -> Result<usize, String> {
        self.op(op, &[a], IrMeta::None)
    }

    /// Records a shape-checked two-operand, payload-free op (`add`,
    /// `matmul`, …).
    pub fn binary(&mut self, op: OpKind, a: usize, b: usize) -> Result<usize, String> {
        self.op(op, &[a, b], IrMeta::None)
    }

    /// Records a node with **no checks at all** — declared shape, grad flag
    /// and backward flag are taken at face value. Fixture escape hatch for
    /// building deliberately broken tapes.
    pub fn raw(
        &mut self,
        op: OpKind,
        parents: Vec<usize>,
        shape: (usize, usize),
        needs_grad: bool,
        has_backward: bool,
    ) -> usize {
        self.push(op, parents, shape, needs_grad, has_backward, IrMeta::None)
    }

    /// Finishes the trace.
    pub fn finish(self) -> TapeIr {
        TapeIr { nodes: self.nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sparse(rows: usize, cols: usize, nnz: usize) -> IrMeta {
        IrMeta::Sparse { rows, cols, nnz }
    }

    #[test]
    fn builder_propagates_needs_grad_like_the_tape() {
        let mut b = IrBuilder::new();
        let x = b.constant(4, 3);
        let w = b.leaf(3, 2);
        let h = b.binary(OpKind::MatMul, x, w).expect("matmul");
        let r = b.unary(OpKind::Relu, h).expect("relu");
        let ir = b.finish();
        assert!(!ir.nodes[x].needs_grad);
        assert!(ir.nodes[h].needs_grad);
        assert!(ir.nodes[r].needs_grad);
        assert_eq!(ir.nodes[h].shape, (4, 2));
    }

    #[test]
    fn builder_rejects_impossible_wiring_eagerly() {
        let mut b = IrBuilder::new();
        let x = b.leaf(2, 3);
        let y = b.leaf(2, 3);
        assert!(b.binary(OpKind::MatMul, x, y).is_err());
        assert!(b.unary(OpKind::Relu, 99).is_err());
        // values not 5×1
        assert!(b.op(OpKind::Spmm, &[x, y], sparse(3, 3, 5)).is_err());
        // payload op without its metadata
        assert!(b.op(OpKind::Dropout, &[x], IrMeta::None).is_err());
    }

    #[test]
    fn payload_ops_carry_meta() {
        let mut b = IrBuilder::new();
        let vals = b.leaf(5, 1);
        let x = b.constant(3, 4);
        let att = b
            .op(OpKind::EdgeSoftmax, &[vals], sparse(3, 3, 5))
            .expect("edge_softmax");
        let h = b
            .op(OpKind::Spmm, &[att, x], sparse(3, 3, 5))
            .expect("spmm");
        let ir = b.finish();
        assert_eq!(ir.nodes[h].shape, (3, 4));
        assert_eq!(ir.nodes[att].meta, sparse(3, 3, 5));
    }
}
