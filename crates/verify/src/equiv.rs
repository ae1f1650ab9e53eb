//! Structural-equivalence checker: value-numbering bisimulation between an
//! original [`TapeIr`] and a rewritten one.
//!
//! Every `ses-ir` rewrite pass is *translation-validated*: instead of
//! trusting the pass, the compiler hands this module the original IR, the
//! rewritten IR, and a **witness** — for each rewritten node, the original
//! node it claims to compute the same value as. The checker then proves the
//! claim by induction over the (topologically ordered) rewritten nodes:
//!
//! 1. [`value_numbers`] assigns each original node a value number such that
//!    equal numbers ⇒ provably equal values. CSE-safe ops (pure, no
//!    side-channel payload — see [`ses_tensor::OpKind::cse_safe`]) are keyed
//!    by `(op, params, meta, parent numbers)`; leaves and payload-carrying
//!    ops each get a fresh unique number, so the numbering never conflates
//!    nodes whose equality the IR cannot express.
//! 2. [`check_equivalence`] verifies, per rewritten node `r` with witness
//!    `o`: the op, scalar params, side-channel meta and declared shape match
//!    `o` exactly (*congruence*), and each parent of `r` is witnessed to a
//!    node value-equal to the corresponding parent of `o`. By induction,
//!    `value(r) = value(o)`.
//! 3. Finally each declared output pair must be value-equal and
//!    shape-equal, so the rewritten graph computes the same observable
//!    results.
//!
//! The witness also fixes *payload identity*: the plan executor feeds a
//! rewritten node the payload (leaf matrix, CSR structure, index list,
//! dropout mask) of its witnessed original node, which is what makes the
//! congruence rule sound for payload-carrying ops whose contents the IR only
//! summarises. A runtime bit-identity proptest in `crates/ir` closes the
//! loop end to end.

use std::collections::HashMap;

use ses_tensor::TapeIr;

use crate::{record_diags, Diag};

/// Assigns a value number to every node of `ir` (indexed by node id).
///
/// Equal numbers guarantee equal runtime values. The converse does not hold:
/// leaves and payload-carrying ops are always given fresh numbers because
/// the IR carries only summaries of their defining data.
pub fn value_numbers(ir: &TapeIr) -> Vec<usize> {
    let mut vn = Vec::with_capacity(ir.len());
    let mut table: HashMap<String, usize> = HashMap::new();
    for node in &ir.nodes {
        let fresh = ir.len() + vn.len(); // disjoint from keyed numbers' ids
        let cse_safe = node.op.cse_safe() && node.parents.iter().all(|&p| p < vn.len());
        let n = if cse_safe {
            let parent_vns: Vec<usize> = node.parents.iter().map(|&p| vn[p]).collect();
            let key = format!(
                "{}|{:?}|{:?}|{:?}",
                node.op, node.params, node.meta, parent_vns
            );
            *table.entry(key).or_insert(fresh)
        } else {
            fresh
        };
        vn.push(n);
    }
    vn
}

/// Checks that `rewritten` computes the same values as `original` under the
/// given witness. `witness[r]` names the original node that rewritten node
/// `r` claims to equal; `outputs` lists `(original_id, rewritten_id)` pairs
/// that must remain observably equal. Returns diagnostics under engine
/// `"equiv"`; an empty error count means the rewrite is validated.
pub fn check_equivalence(
    original: &TapeIr,
    rewritten: &TapeIr,
    witness: &[usize],
    outputs: &[(usize, usize)],
) -> Vec<Diag> {
    let mut diags = Vec::new();
    if witness.len() != rewritten.len() {
        diags.push(Diag::error(
            "equiv",
            "witness",
            format!("witness len {}", witness.len()),
            format!(
                "expected one entry per rewritten node ({})",
                rewritten.len()
            ),
        ));
        record_diags(&diags);
        return diags;
    }
    if let Some((r, &o)) = witness
        .iter()
        .enumerate()
        .find(|&(_, &o)| o >= original.len())
    {
        diags.push(Diag::error(
            "equiv",
            "witness",
            format!("rewritten node {r}"),
            format!(
                "witness points at original node {o}, but the original has {} nodes",
                original.len()
            ),
        ));
        record_diags(&diags);
        return diags;
    }

    let vn = value_numbers(original);
    for (r, node) in rewritten.nodes.iter().enumerate() {
        let o = &original.nodes[witness[r]];
        let subject = || {
            format!(
                "rewritten node {r} (op `{}`) ~ original node {}",
                node.op, o.id
            )
        };
        if node.op != o.op || node.params != o.params || node.meta != o.meta {
            diags.push(Diag::error(
                "equiv",
                "congruence",
                subject(),
                format!(
                    "op/params/meta differ from witnessed original \
                     (`{}` {:?} {:?} vs `{}` {:?} {:?})",
                    node.op, node.params, node.meta, o.op, o.params, o.meta
                ),
            ));
            continue;
        }
        if node.shape != o.shape {
            diags.push(Diag::error(
                "equiv",
                "congruence",
                subject(),
                format!("shape {:?} != witnessed {:?}", node.shape, o.shape),
            ));
            continue;
        }
        if node.parents.len() != o.parents.len() {
            diags.push(Diag::error(
                "equiv",
                "congruence",
                subject(),
                format!(
                    "arity {} != witnessed {}",
                    node.parents.len(),
                    o.parents.len()
                ),
            ));
            continue;
        }
        for (k, (&rp, &op_)) in node.parents.iter().zip(&o.parents).enumerate() {
            if rp >= r {
                diags.push(Diag::error(
                    "equiv",
                    "congruence",
                    subject(),
                    format!("parent {k} ({rp}) does not precede the node"),
                ));
                continue;
            }
            if vn[witness[rp]] != vn[op_] {
                diags.push(Diag::error(
                    "equiv",
                    "congruence",
                    subject(),
                    format!(
                        "operand {k}: rewritten parent {rp} is witnessed to original \
                         node {} (vn {}), but the original consumes node {op_} (vn {})",
                        witness[rp], vn[witness[rp]], vn[op_]
                    ),
                ));
            }
        }
    }

    for &(orig_out, rewr_out) in outputs {
        let subject = format!("output pair (orig {orig_out}, rewritten {rewr_out})");
        if orig_out >= original.len() || rewr_out >= rewritten.len() {
            diags.push(Diag::error(
                "equiv",
                "output",
                subject,
                "output id out of range".to_string(),
            ));
            continue;
        }
        if vn[witness[rewr_out]] != vn[orig_out] {
            diags.push(Diag::error(
                "equiv",
                "output",
                subject,
                format!(
                    "rewritten output witnesses original node {} (vn {}), \
                     not value-equal to declared output (vn {})",
                    witness[rewr_out], vn[witness[rewr_out]], vn[orig_out]
                ),
            ));
        } else if original.nodes[orig_out].shape != rewritten.nodes[rewr_out].shape {
            diags.push(Diag::error(
                "equiv",
                "output",
                subject,
                format!(
                    "output shape changed: {:?} -> {:?}",
                    original.nodes[orig_out].shape, rewritten.nodes[rewr_out].shape
                ),
            ));
        }
    }

    record_diags(&diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IrBuilder;
    use crate::error_count;
    use ses_tensor::OpKind;

    fn diamond() -> (TapeIr, usize) {
        let mut b = IrBuilder::new();
        let x = b.constant(4, 3);
        let w = b.leaf(3, 3);
        let h = b.binary(OpKind::MatMul, x, w).unwrap();
        let r1 = b.unary(OpKind::Relu, h).unwrap();
        let r2 = b.unary(OpKind::Relu, h).unwrap(); // duplicate of r1
        let s = b.binary(OpKind::Add, r1, r2).unwrap();
        let loss = b.unary(OpKind::MeanAll, s).unwrap();
        (b.finish(), loss)
    }

    #[test]
    fn value_numbers_merge_pure_duplicates_only() {
        let (ir, _) = diamond();
        let vn = value_numbers(&ir);
        assert_eq!(vn[3], vn[4], "identical relus share a number");
        assert_ne!(vn[0], vn[1], "distinct leaves never merge");
    }

    #[test]
    fn identity_witness_on_same_ir_is_clean() {
        let (ir, loss) = diamond();
        let witness: Vec<usize> = (0..ir.len()).collect();
        let diags = check_equivalence(&ir, &ir, &witness, &[(loss, loss)]);
        assert_eq!(error_count(&diags), 0, "{diags:?}");
    }

    #[test]
    fn dce_subset_with_witness_is_clean() {
        // Original: the diamond plus a dead training-only branch.
        let mut b = IrBuilder::new();
        let x = b.constant(4, 3);
        let w = b.leaf(3, 3);
        let h = b.binary(OpKind::MatMul, x, w).unwrap();
        let dead = b.unary(OpKind::Sigmoid, h).unwrap();
        let _dead2 = b.unary(OpKind::MeanAll, dead).unwrap();
        let out = b.unary(OpKind::Relu, h).unwrap();
        let orig = b.finish();

        // Rewritten: the live slice only, renumbered.
        let mut b = IrBuilder::new();
        let x2 = b.constant(4, 3);
        let w2 = b.leaf(3, 3);
        let h2 = b.binary(OpKind::MatMul, x2, w2).unwrap();
        let out2 = b.unary(OpKind::Relu, h2).unwrap();
        let rewr = b.finish();

        let witness = vec![0, 1, 2, out];
        let diags = check_equivalence(&orig, &rewr, &witness, &[(out, out2)]);
        assert_eq!(error_count(&diags), 0, "{diags:?}");
    }

    #[test]
    fn cse_merged_rewrite_is_clean() {
        let (orig, loss) = diamond();
        // Rewritten: r2 folded into r1; `add` consumes r1 twice.
        let mut b = IrBuilder::new();
        let x = b.constant(4, 3);
        let w = b.leaf(3, 3);
        let h = b.binary(OpKind::MatMul, x, w).unwrap();
        let r1 = b.unary(OpKind::Relu, h).unwrap();
        let s = b.binary(OpKind::Add, r1, r1).unwrap();
        let l2 = b.unary(OpKind::MeanAll, s).unwrap();
        let rewr = b.finish();
        // Witness maps the merged relu to the *first* original relu; the
        // `add`'s second operand check passes because vn[r1] == vn[r2].
        let witness = vec![0, 1, 2, 3, 5, 6];
        let diags = check_equivalence(&orig, &rewr, &witness, &[(loss, l2)]);
        assert_eq!(error_count(&diags), 0, "{diags:?}");
    }

    #[test]
    fn swapped_operands_are_caught() {
        let mut b = IrBuilder::new();
        let a = b.leaf(2, 2);
        let c = b.leaf(2, 2);
        let d = b.binary(OpKind::Sub, a, c).unwrap();
        let _l = b.unary(OpKind::MeanAll, d).unwrap();
        let orig = b.finish();

        let mut b = IrBuilder::new();
        let a2 = b.leaf(2, 2);
        let c2 = b.leaf(2, 2);
        let d2 = b.binary(OpKind::Sub, c2, a2).unwrap(); // swapped: computes c - a
        let _ = (a2, d2);
        let l2 = b.unary(OpKind::MeanAll, 2).unwrap();
        let rewr = b.finish();

        let witness = vec![0, 1, 2, 3];
        let diags = check_equivalence(&orig, &rewr, &witness, &[(3, l2)]);
        assert!(
            diags
                .iter()
                .any(|d| d.check == "congruence" && d.subject.contains("sub")),
            "{diags:?}"
        );
    }

    #[test]
    fn changed_params_are_caught() {
        let mut b = IrBuilder::new();
        let a = b.leaf(2, 2);
        let s = b.unary(OpKind::Relu, a).unwrap();
        let orig = b.finish();

        let mut b = IrBuilder::new();
        let a2 = b.leaf(2, 2);
        let s2 = b.unary(OpKind::Relu, a2).unwrap();
        let mut rewr = b.finish();
        rewr.nodes[s2].params = vec![0.5f32.to_bits()]; // scalar attr drift

        let diags = check_equivalence(&orig, &rewr, &[0, 1], &[(s, s2)]);
        assert!(diags.iter().any(|d| d.check == "congruence"), "{diags:?}");
    }

    #[test]
    fn bad_witness_length_and_range_are_caught() {
        let (ir, _) = diamond();
        let short = check_equivalence(&ir, &ir, &[0, 1], &[]);
        assert!(short.iter().any(|d| d.check == "witness"));
        let mut witness: Vec<usize> = (0..ir.len()).collect();
        witness[2] = 999;
        let oob = check_equivalence(&ir, &ir, &witness, &[]);
        assert!(oob.iter().any(|d| d.check == "witness"));
    }

    #[test]
    fn payload_ops_never_merge() {
        let mut b = IrBuilder::new();
        let v = b.leaf(5, 1);
        let x = b.constant(3, 4);
        let sparse = ses_tensor::IrMeta::Sparse {
            rows: 3,
            cols: 3,
            nnz: 5,
        };
        let s1 = b.op(OpKind::Spmm, &[v, x], sparse.clone()).unwrap();
        let s2 = b.op(OpKind::Spmm, &[v, x], sparse).unwrap();
        let ir = b.finish();
        let vn = value_numbers(&ir);
        // Identical IR footprint, but the CSR contents are invisible here —
        // the numbering must keep them distinct.
        assert_ne!(vn[s1], vn[s2]);
    }
}
