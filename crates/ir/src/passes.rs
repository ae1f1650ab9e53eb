//! Rewrite passes over [`TapeIr`].
//!
//! Every pass returns a [`Rewrite`]: the new IR plus a **witness** mapping
//! each rewritten node back to the original node it claims to compute. The
//! witness is what makes translation validation possible — the compiler
//! driver re-runs `ses-verify`'s shape/backward checks on the output and
//! then asks [`ses_verify::equiv::check_equivalence`] to prove, by
//! value-numbering bisimulation, that every declared output still computes
//! the same value. Passes never get to *assert* correctness; they only get
//! to *claim* it, and the checker either proves the claim or rejects the
//! rewrite.
//!
//! Pass contracts (see `docs/IR.md` for the full statement):
//!
//! * [`dce`] — removes nodes not in the ancestor cone of the roots. Claim:
//!   the identity witness on survivors. Training-only nodes (the backward
//!   bookkeeping of Eq. 7/8 heads that the inference outputs never read)
//!   are exactly what this strips from an explain-step tape.
//! * [`cse`] — merges `cse_safe` nodes with equal value numbers. Claim: the
//!   representative's witness. Payload ops and leaves keep fresh numbers,
//!   so the pass can never merge two dropouts or two weight matrices.
//! * [`fusion_candidates`] — analysis only (no rewrite): `spmm` nodes whose
//!   `values` operand is an elementwise `mul` — the mask-apply→spmm pattern
//!   a fused kernel could serve without materialising the masked values.
//! * [`broken_dce`] — deliberately wrong DCE (drops a live unary node and
//!   rewires its readers to its parent). Exists so tests and the
//!   `bad-rewrite` seeded defect can prove the validator actually rejects
//!   an unsound pass.

use ses_tensor::{OpKind, TapeIr};
use ses_verify::equiv::value_numbers;

use crate::analysis::ancestors;

/// A rewritten IR plus the evidence needed to validate it: `witness[new]`
/// is the original-IR node id that new node `new` claims to compute.
#[derive(Debug, Clone)]
pub struct Rewrite {
    /// The rewritten program.
    pub ir: TapeIr,
    /// Map from rewritten node id to the original node id it stands for.
    pub witness: Vec<usize>,
}

impl Rewrite {
    /// The identity rewrite (every node witnesses itself). Useful as the
    /// starting point when composing witnesses across a pass pipeline.
    pub fn identity(ir: TapeIr) -> Self {
        let witness = (0..ir.nodes.len()).collect();
        Rewrite { ir, witness }
    }
}

/// Composes two witnesses: `outer` rewrote the IR that `inner` produced,
/// so `outer ∘ inner` maps `outer`'s nodes all the way back to the IR
/// `inner` started from.
pub fn compose_witness(inner: &[usize], outer: &[usize]) -> Vec<usize> {
    outer.iter().map(|&w| inner[w]).collect()
}

/// Keeps `keep[id] == true` nodes, renumbering ids and remapping parents.
/// Panics if a kept node has a dropped parent — callers must pass a
/// parent-closed keep set.
fn retain(ir: &TapeIr, keep: &[bool]) -> Rewrite {
    let mut new_id = vec![usize::MAX; ir.nodes.len()];
    let mut nodes = Vec::new();
    let mut witness = Vec::new();
    for (id, node) in ir.nodes.iter().enumerate() {
        if !keep[id] {
            continue;
        }
        let mut n = node.clone();
        n.id = nodes.len();
        n.parents = node
            .parents
            .iter()
            .map(|&p| {
                assert!(
                    new_id[p] != usize::MAX,
                    "retain: kept node {id} depends on dropped node {p}"
                );
                new_id[p]
            })
            .collect();
        new_id[id] = nodes.len();
        witness.push(id);
        nodes.push(n);
    }
    Rewrite {
        ir: TapeIr { nodes },
        witness,
    }
}

/// Dead-code elimination: keeps exactly the ancestor cone of `roots`.
/// On an explain-step tape whose roots are the inference outputs (masks +
/// logits), everything recorded purely to serve training losses dies here.
pub fn dce(ir: &TapeIr, roots: &[usize]) -> Rewrite {
    let live = ancestors(ir, roots);
    retain(ir, &live)
}

/// Common-subexpression elimination by value numbering: the first node of
/// each value class survives; later duplicates are dropped and their
/// readers rewired to the representative. Only `cse_safe` ops ever share a
/// class (see [`ses_tensor::OpKind::cse_safe`]), so payload ops, leaves and
/// constants are never merged.
pub fn cse(ir: &TapeIr) -> Rewrite {
    let vn = value_numbers(ir);
    let mut rep_of_vn: Vec<Option<usize>> = vec![None; ir.nodes.len() + vn.len()];
    let mut redirect = vec![usize::MAX; ir.nodes.len()];
    let mut keep = vec![false; ir.nodes.len()];
    for id in 0..ir.nodes.len() {
        match rep_of_vn[vn[id]] {
            Some(rep) => redirect[id] = rep,
            None => {
                rep_of_vn[vn[id]] = Some(id);
                redirect[id] = id;
                keep[id] = true;
            }
        }
    }
    // Rewire every kept node's parents to representatives, then retain.
    let mut rewired = ir.clone();
    for node in &mut rewired.nodes {
        for p in &mut node.parents {
            *p = redirect[*p];
        }
    }
    retain(&rewired, &keep)
}

/// Ids of `spmm` nodes whose `values` operand is an elementwise `mul` —
/// i.e. `spmm(structure, mask ⊙ scores, X)`, the masked-aggregation shape
/// SES produces when the structure mask gates the adjacency. A fused
/// masked-spmm kernel could compute these without materialising the
/// `nnz×1` product; the compiler reports them (it does not yet rewrite
/// them, because the runtime has no fused kernel to target).
pub fn fusion_candidates(ir: &TapeIr) -> Vec<usize> {
    ir.nodes
        .iter()
        .filter(|n| n.op == OpKind::Spmm && !n.parents.is_empty())
        .filter(|n| ir.nodes[n.parents[0]].op == OpKind::Mul)
        .map(|n| n.id)
        .collect()
}

/// A deliberately unsound "DCE": after the real liveness pass it also
/// deletes the first live single-parent interior node and rewires its
/// readers straight to its parent — silently skipping one op. The witness
/// it hands back is the honest one, so `check_equivalence` refutes the
/// rewrite with a `congruence` diagnostic. Fixture for the `bad-rewrite`
/// seeded defect and the `should_panic` validation tests.
pub fn broken_dce(ir: &TapeIr, roots: &[usize]) -> Rewrite {
    let live = ancestors(ir, roots);
    let victim = ir
        .nodes
        .iter()
        .enumerate()
        .find(|(id, n)| live[*id] && n.parents.len() == 1 && !roots.contains(id))
        .map(|(id, n)| (id, n.parents[0]));
    let (victim, bypass) = match victim {
        Some(v) => v,
        None => return retain(ir, &live), // nothing to break: behave honestly
    };
    let mut keep = live;
    keep[victim] = false;
    let mut rewired = ir.clone();
    for node in &mut rewired.nodes {
        for p in &mut node.parents {
            if *p == victim {
                *p = bypass;
            }
        }
    }
    retain(&rewired, &keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_tensor::IrMeta;
    use ses_verify::builder::IrBuilder;
    use ses_verify::equiv::check_equivalence;
    use ses_verify::error_count;

    fn with_dead_branch() -> (TapeIr, usize) {
        // live: 0,1,2(add),5(relu),6(mean_all)  dead: 3(mul),4(sum_all)
        let mut b = IrBuilder::new();
        let a = b.leaf(2, 2);
        let c = b.leaf(2, 2);
        let s = b.binary(OpKind::Add, a, c).unwrap();
        let dead = b.binary(OpKind::Mul, a, c).unwrap();
        b.unary(OpKind::SumAll, dead).unwrap();
        let r = b.unary(OpKind::Relu, s).unwrap();
        let out = b.unary(OpKind::MeanAll, r).unwrap();
        (b.finish(), out)
    }

    #[test]
    fn dce_drops_exactly_the_dead_branch_and_validates() {
        let (ir, out) = with_dead_branch();
        let rw = dce(&ir, &[out]);
        assert_eq!(rw.ir.nodes.len(), 5);
        assert!(rw.ir.nodes.iter().all(|n| n.op != OpKind::Mul));
        let new_out = rw.witness.iter().position(|&w| w == out).unwrap();
        let diags = check_equivalence(&ir, &rw.ir, &rw.witness, &[(out, new_out)]);
        assert_eq!(error_count(&diags), 0, "{diags:?}");
    }

    #[test]
    fn cse_merges_duplicate_pure_ops_but_never_leaves() {
        let mut b = IrBuilder::new();
        let a = b.leaf(2, 2);
        let c = b.leaf(2, 2);
        let s1 = b.binary(OpKind::Add, a, c).unwrap();
        let s2 = b.binary(OpKind::Add, a, c).unwrap(); // duplicate
        let m = b.binary(OpKind::Mul, s1, s2).unwrap();
        let out = b.unary(OpKind::MeanAll, m).unwrap();
        let ir = b.finish();
        let rw = cse(&ir);
        assert_eq!(rw.ir.nodes.len(), ir.nodes.len() - 1);
        // both leaves survive
        assert_eq!(
            rw.ir.nodes.iter().filter(|n| n.op == OpKind::Leaf).count(),
            2
        );
        // mul now reads the representative twice
        let mul = rw.ir.nodes.iter().find(|n| n.op == OpKind::Mul).unwrap();
        assert_eq!(mul.parents[0], mul.parents[1]);
        let new_out = rw.witness.iter().position(|&w| w == out).unwrap();
        let diags = check_equivalence(&ir, &rw.ir, &rw.witness, &[(out, new_out)]);
        assert_eq!(error_count(&diags), 0, "{diags:?}");
    }

    #[test]
    fn cse_keeps_duplicate_payload_ops_apart() {
        let mut b = IrBuilder::new();
        let x = b.leaf(4, 3);
        let d1 = b
            .op(OpKind::Dropout, &[x], IrMeta::Mask { len: 12 })
            .unwrap();
        let d2 = b
            .op(OpKind::Dropout, &[x], IrMeta::Mask { len: 12 })
            .unwrap();
        let s = b.binary(OpKind::Add, d1, d2).unwrap();
        b.unary(OpKind::MeanAll, s).unwrap();
        let ir = b.finish();
        let rw = cse(&ir);
        assert_eq!(rw.ir.nodes.len(), ir.nodes.len());
    }

    #[test]
    fn fusion_candidates_spot_mask_apply_into_spmm() {
        let mut b = IrBuilder::new();
        let mask = b.leaf(4, 1);
        let scores = b.leaf(4, 1);
        let masked = b.binary(OpKind::Mul, mask, scores).unwrap();
        let x = b.leaf(3, 2);
        let sparse = IrMeta::Sparse {
            rows: 3,
            cols: 3,
            nnz: 4,
        };
        let y = b.op(OpKind::Spmm, &[masked, x], sparse.clone()).unwrap();
        let plain = b.op(OpKind::Spmm, &[scores, x], sparse).unwrap();
        let s = b.binary(OpKind::Add, y, plain).unwrap();
        b.unary(OpKind::MeanAll, s).unwrap();
        let ir = b.finish();
        assert_eq!(fusion_candidates(&ir), vec![y]);
        assert_eq!(
            ir.nodes[y].meta,
            IrMeta::Sparse {
                rows: 3,
                cols: 3,
                nnz: 4
            }
        );
    }

    #[test]
    fn broken_dce_is_refuted_by_the_equivalence_checker() {
        let (ir, out) = with_dead_branch();
        let rw = broken_dce(&ir, &[out]);
        assert!(rw.ir.nodes.len() < dce(&ir, &[out]).ir.nodes.len());
        let new_out = rw.witness.iter().position(|&w| w == out).unwrap();
        let diags = check_equivalence(&ir, &rw.ir, &rw.witness, &[(out, new_out)]);
        assert!(error_count(&diags) > 0);
        assert!(diags
            .iter()
            .any(|d| d.check == "congruence" || d.check == "output"));
    }

    #[test]
    fn witness_composition_chains_back_to_the_first_ir() {
        let (ir, out) = with_dead_branch();
        let first = dce(&ir, &[out]);
        let second = cse(&first.ir);
        let w = compose_witness(&first.witness, &second.witness);
        let new_out = w.iter().position(|&x| x == out).unwrap();
        let diags = check_equivalence(&ir, &second.ir, &w, &[(out, new_out)]);
        assert_eq!(error_count(&diags), 0, "{diags:?}");
    }
}
