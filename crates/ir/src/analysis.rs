//! Dataflow analyses over [`TapeIr`].
//!
//! Every analysis here is a classic forward or backward pass over the tape's
//! topological order (parents strictly precede children, so one sweep per
//! direction reaches the fixed point — the lattices are all finite-height
//! and the graph is acyclic):
//!
//! | analysis            | direction | lattice                          |
//! |---------------------|-----------|----------------------------------|
//! | [`ancestors`]       | backward  | powerset of node ids (union)     |
//! | [`reachable_from`]  | forward   | powerset of node ids (union)     |
//! | [`last_uses`]       | backward  | max over use sites               |
//! | [`constant_nodes`]  | forward   | 2-point (const ⊑ varying)        |
//! | [`node_bytes`]      | —         | shape arithmetic, no fixpoint    |
//!
//! Shapes themselves are *not* re-derived here: `ses-verify`'s
//! `infer_shape` already proves every exported shape consistent, so the
//! passes trust `IrNode::shape` and re-run the verifier after each rewrite.

use ses_tensor::TapeIr;

/// Marks every node that some root transitively depends on (the roots
/// themselves included). Backward may-analysis: a node is live iff it is a
/// root or a parent of a live node.
pub fn ancestors(ir: &TapeIr, roots: &[usize]) -> Vec<bool> {
    let mut live = vec![false; ir.nodes.len()];
    for &r in roots {
        assert!(r < ir.nodes.len(), "ancestors: root {r} out of range");
        live[r] = true;
    }
    for id in (0..ir.nodes.len()).rev() {
        if live[id] {
            for &p in &ir.nodes[id].parents {
                live[p] = true;
            }
        }
    }
    live
}

/// Marks every node transitively reachable *from* any source (the sources
/// included). Forward dual of [`ancestors`]; used by the loss-reachability
/// slice to ask "which nodes does the loss feed?" in gradient space.
pub fn reachable_from(ir: &TapeIr, sources: &[usize]) -> Vec<bool> {
    let mut reach = vec![false; ir.nodes.len()];
    for &s in sources {
        assert!(
            s < ir.nodes.len(),
            "reachable_from: source {s} out of range"
        );
        reach[s] = true;
    }
    for id in 0..ir.nodes.len() {
        if !reach[id] {
            let hit = ir.nodes[id].parents.iter().any(|&p| reach[p]);
            reach[id] = hit;
        }
    }
    reach
}

/// For each node, the index of the last step that reads it as an operand.
/// Nodes listed in `keep_alive` (plan outputs) are pinned to the end of the
/// program; a node never read and not kept alive has `last_use == own id`
/// (its buffer is free immediately after it is produced).
pub fn last_uses(ir: &TapeIr, keep_alive: &[usize]) -> Vec<usize> {
    let n = ir.nodes.len();
    let mut last = (0..n).collect::<Vec<usize>>();
    for (id, node) in ir.nodes.iter().enumerate() {
        for &p in &node.parents {
            last[p] = last[p].max(id);
        }
    }
    for &k in keep_alive {
        assert!(k < n, "last_uses: keep-alive {k} out of range");
        last[k] = n.saturating_sub(1);
    }
    last
}

/// Forward constant propagation on a 2-point lattice: a node is constant
/// iff it is a non-gradient leaf or every parent is constant and the op is
/// pure. Payload ops (`dropout`, `spmm`, …) count as pure data transforms
/// here — their payloads are fixed at record time.
pub fn constant_nodes(ir: &TapeIr) -> Vec<bool> {
    let mut konst = vec![false; ir.nodes.len()];
    for (id, node) in ir.nodes.iter().enumerate() {
        konst[id] = if node.parents.is_empty() {
            !node.needs_grad
        } else {
            !node.needs_grad && node.parents.iter().all(|&p| konst[p])
        };
    }
    konst
}

/// Buffer footprint of one node's value in bytes (`rows * cols * 4`).
pub fn node_bytes(shape: (usize, usize)) -> usize {
    shape.0 * shape.1 * std::mem::size_of::<f32>()
}

/// Total bytes held if every node's buffer stays resident — exactly what
/// the training tape does (all values are retained for the backward sweep),
/// so this is the honest "before" for the buffer-reuse comparison.
pub fn total_bytes(ir: &TapeIr) -> usize {
    ir.nodes.iter().map(|n| node_bytes(n.shape)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_tensor::OpKind;
    use ses_verify::builder::IrBuilder;

    fn diamond() -> TapeIr {
        // 0:leaf  1:leaf  2:add(0,1)  3:relu(2)  4:mul(2,3)  5:mean_all(4)
        let mut b = IrBuilder::new();
        let a = b.leaf(2, 2);
        let c = b.leaf(2, 2);
        let s = b.binary(OpKind::Add, a, c).unwrap();
        let r = b.unary(OpKind::Relu, s).unwrap();
        let m = b.binary(OpKind::Mul, s, r).unwrap();
        b.unary(OpKind::MeanAll, m).unwrap();
        b.finish()
    }

    #[test]
    fn ancestors_covers_exactly_the_upward_cone() {
        let ir = diamond();
        let live = ancestors(&ir, &[3]);
        assert_eq!(live, vec![true, true, true, true, false, false]);
    }

    #[test]
    fn reachable_from_covers_exactly_the_downward_cone() {
        let ir = diamond();
        let reach = reachable_from(&ir, &[3]);
        assert_eq!(reach, vec![false, false, false, true, true, true]);
    }

    #[test]
    fn last_uses_track_final_reader_and_pin_outputs() {
        let ir = diamond();
        let last = last_uses(&ir, &[]);
        // node 2 is read by node 3 and node 4 -> last use 4.
        assert_eq!(last[2], 4);
        // node 5 is never read -> free immediately.
        assert_eq!(last[5], 5);
        let pinned = last_uses(&ir, &[0]);
        assert_eq!(pinned[0], 5);
    }

    #[test]
    fn constants_require_constant_parents_and_no_grad() {
        let mut b = IrBuilder::new();
        let k = b.constant(2, 2);
        let w = b.leaf(2, 2); // needs_grad
        let kk = b.binary(OpKind::Add, k, k).unwrap();
        let mixed = b.binary(OpKind::Add, k, w).unwrap();
        b.unary(OpKind::MeanAll, mixed).unwrap();
        let ir = b.finish();
        let konst = constant_nodes(&ir);
        assert!(konst[k] && konst[kk]);
        assert!(!konst[w] && !konst[mixed]);
    }

    #[test]
    fn byte_accounting_is_rows_cols_f32() {
        assert_eq!(node_bytes((3, 5)), 60);
        let ir = diamond();
        // five 2x2 buffers + one 1x1 scalar
        assert_eq!(total_bytes(&ir), 5 * 16 + 4);
    }
}
