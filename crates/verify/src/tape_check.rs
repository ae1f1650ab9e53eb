//! Engine 1: the static tape-IR verifier.
//!
//! Takes a [`TapeIr`] (exported from a real tape, or dry-run traced by
//! [`crate::builder::IrBuilder`]) and checks, without touching any values:
//!
//! * **topology** — ids are dense, every parent precedes its child (the flat
//!   arena invariant that `Tape::backward`'s reverse sweep relies on);
//! * **shape** — every op's declared output shape matches what its operand
//!   shapes (plus [`IrMeta`](ses_tensor::IrMeta) side channels) imply, by
//!   the same [`infer_shape`] rule the tape runs as it records each op;
//! * **backward coverage** — every gradient-bearing op has a backward rule,
//!   and gradient wiring is never silently cut (a node whose parent needs a
//!   gradient but which itself will not propagate one);
//! * **loss analysis** — given a loss node: its shape is scalar, every
//!   trainable leaf is backward-reachable from it, and `Unused`/`AfterLoss`
//!   leaks stay within an optional [`LeakBudget`] (the static mirror of
//!   `Tape::check_leak_budget`);
//! * **hygiene** — dead forward compute and duplicate subgraphs are flagged
//!   as warnings.

use std::collections::HashMap;

use ses_tensor::{infer_shape, LeakBudget, OpKind, TapeIr};

use crate::{record_diags, Diag};

/// Options for [`verify_tape`].
#[derive(Debug, Clone, Copy, Default)]
pub struct TapeCheckConfig {
    /// Node id of the loss; enables reachability/leak analysis.
    pub loss: Option<usize>,
    /// Leak budget applied when `loss` is set. `None` downgrades leak
    /// findings to warnings.
    pub leak_budget: Option<LeakBudget>,
}

/// How many individual leak warnings to emit before summarising.
const LEAK_WARNING_CAP: usize = 8;

/// Runs every static check over `ir` and returns the findings.
pub fn verify_tape(ir: &TapeIr, cfg: &TapeCheckConfig) -> Vec<Diag> {
    let mut diags = Vec::new();
    let n = ir.len();
    ses_obs::metrics::VERIFY_CHECKS.add(n as u64);
    let subject = |id: usize| -> String {
        let op = ir.nodes.get(id).map_or("?", |nd| nd.op.name());
        format!("node {id} (op `{op}`)")
    };

    // --- topology: dense ids, parents strictly before children -------------
    let mut topology_ok = true;
    for (i, node) in ir.nodes.iter().enumerate() {
        if node.id != i {
            diags.push(Diag::error(
                "tape-ir",
                "topology",
                subject(i),
                format!(
                    "arena slot {i} holds node id {}; ids must be dense",
                    node.id
                ),
            ));
            topology_ok = false;
        }
        for &p in &node.parents {
            if p >= i {
                diags.push(Diag::error(
                    "tape-ir",
                    "topology",
                    subject(i),
                    format!(
                        "parent {p} does not precede its child; the reverse \
                         sweep would visit it too late"
                    ),
                ));
                topology_ok = false;
            }
        }
    }
    if !topology_ok {
        // Every later analysis indexes parents; bail on a mangled arena.
        record_diags(&diags);
        return diags;
    }

    // --- per-node shape / backward checks -----------------------------------
    for (i, node) in ir.nodes.iter().enumerate() {
        let pshapes: Vec<(usize, usize)> =
            node.parents.iter().map(|&p| ir.nodes[p].shape).collect();
        match infer_shape(node.op, &pshapes, &node.meta) {
            Ok(s) if s == node.shape => {}
            Ok(s) => diags.push(Diag::error(
                "tape-ir",
                "shape",
                subject(i),
                format!(
                    "declared shape {}×{} but operands imply {}×{}",
                    node.shape.0, node.shape.1, s.0, s.1
                ),
            )),
            Err(e) => diags.push(Diag::error(
                "tape-ir",
                "shape",
                subject(i),
                e.describe(&node.parents),
            )),
        }

        let parent_needs = node.parents.iter().any(|&p| ir.nodes[p].needs_grad);
        if node.op != OpKind::Leaf {
            if node.needs_grad && !node.has_backward {
                diags.push(Diag::error(
                    "tape-ir",
                    "backward-coverage",
                    subject(i),
                    "op needs a gradient but declares no backward rule".to_string(),
                ));
            }
            if !node.needs_grad && parent_needs {
                diags.push(Diag::error(
                    "tape-ir",
                    "backward-coverage",
                    subject(i),
                    "gradient wiring cut: a parent needs a gradient but this \
                     node will not propagate one"
                        .to_string(),
                ));
            }
            if node.needs_grad && !parent_needs {
                diags.push(Diag::warning(
                    "tape-ir",
                    "backward-coverage",
                    subject(i),
                    "spurious needs_grad: no parent carries a gradient".to_string(),
                ));
            }
        }
    }

    // --- duplicate subgraph detection (CSE-safe nodes) ----------------------
    // Leaves and payload ops are skipped: the IR only summarises their
    // payloads, so two `score_pairs` over different pair lists of the same
    // length look identical here without being so.
    let mut seen: HashMap<String, usize> = HashMap::new();
    for (i, node) in ir.nodes.iter().enumerate() {
        if !node.op.cse_safe() {
            continue;
        }
        let key = format!(
            "{}|{:?}|{:?}|{:?}",
            node.op, node.parents, node.params, node.meta
        );
        match seen.get(&key) {
            Some(&first) => diags.push(Diag::warning(
                "tape-ir",
                "duplicate",
                subject(i),
                format!("recomputes node {first} exactly (same op, operands and attributes)"),
            )),
            None => {
                seen.insert(key, i);
            }
        }
    }

    // --- loss-anchored analysis --------------------------------------------
    if let Some(loss) = cfg.loss {
        if loss >= n {
            diags.push(Diag::error(
                "tape-ir",
                "loss-shape",
                format!("node {loss}"),
                format!("loss id out of range for a {n}-node tape"),
            ));
            record_diags(&diags);
            return diags;
        }
        if ir.nodes[loss].shape != (1, 1) {
            diags.push(Diag::error(
                "tape-ir",
                "loss-shape",
                subject(loss),
                format!(
                    "loss must be scalar (1×1), found {}×{}",
                    ir.nodes[loss].shape.0, ir.nodes[loss].shape.1
                ),
            ));
        }

        // Backward reachability from the loss via parent edges.
        let mut reachable = vec![false; n];
        reachable[loss] = true;
        let mut stack = vec![loss];
        while let Some(i) = stack.pop() {
            for &p in &ir.nodes[i].parents {
                if !reachable[p] {
                    reachable[p] = true;
                    stack.push(p);
                }
            }
        }

        // Static leak classification, mirroring Tape::leaked_nodes.
        let mut unused = Vec::new();
        let mut after_loss = Vec::new();
        for (i, node) in ir.nodes.iter().enumerate() {
            if reachable[i] || !node.needs_grad {
                if !reachable[i] && i < loss && node.op != OpKind::Leaf {
                    diags.push(Diag::warning(
                        "tape-ir",
                        "dead-code",
                        subject(i),
                        "forward compute never reaches the loss".to_string(),
                    ));
                }
                continue;
            }
            if i > loss {
                after_loss.push(i);
            } else if node.op == OpKind::Leaf {
                unused.push(i);
            } else {
                diags.push(Diag::warning(
                    "tape-ir",
                    "leak-budget",
                    subject(i),
                    "pruned: wired for gradients but cut off from the loss".to_string(),
                ));
            }
        }

        let list = |ids: &[usize]| -> String {
            let head: Vec<String> = ids.iter().take(4).map(|&i| subject(i)).collect();
            let tail = if ids.len() > 4 { ", …" } else { "" };
            format!("{}{}", head.join(", "), tail)
        };
        match cfg.leak_budget {
            Some(budget) if unused.len() > budget.max_unused => diags.push(Diag::error(
                "tape-ir",
                "leak-budget",
                subject(loss),
                format!(
                    "{} trainable leaf/leaves unreachable from the loss \
                     (budget {}): {}",
                    unused.len(),
                    budget.max_unused,
                    list(&unused)
                ),
            )),
            _ => {
                for &i in unused.iter().take(LEAK_WARNING_CAP) {
                    diags.push(Diag::warning(
                        "tape-ir",
                        "leak-budget",
                        subject(i),
                        "trainable leaf unreachable from the loss (unused)".to_string(),
                    ));
                }
            }
        }
        match cfg.leak_budget {
            Some(budget) if after_loss.len() > budget.max_after_loss => diags.push(Diag::error(
                "tape-ir",
                "leak-budget",
                subject(loss),
                format!(
                    "{} gradient-bearing node(s) recorded after the loss \
                     (budget {}): {}",
                    after_loss.len(),
                    budget.max_after_loss,
                    list(&after_loss)
                ),
            )),
            _ => {
                for &i in after_loss.iter().take(LEAK_WARNING_CAP) {
                    diags.push(Diag::warning(
                        "tape-ir",
                        "leak-budget",
                        subject(i),
                        "recorded after the loss; backward will never reach it".to_string(),
                    ));
                }
            }
        }
    }

    record_diags(&diags);
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IrBuilder;
    use crate::Severity;

    fn errors(diags: &[Diag]) -> Vec<&Diag> {
        diags
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }

    #[test]
    fn clean_linear_trace_verifies() {
        let mut b = IrBuilder::new();
        let x = b.constant(4, 3);
        let w = b.leaf(3, 2);
        let h = b.binary(OpKind::MatMul, x, w).expect("matmul");
        let r = b.unary(OpKind::Relu, h).expect("relu");
        let loss = b.unary(OpKind::MeanAll, r).expect("mean_all");
        let ir = b.finish();
        let diags = verify_tape(
            &ir,
            &TapeCheckConfig {
                loss: Some(loss),
                leak_budget: Some(ses_tensor::LeakBudget::zero()),
            },
        );
        assert!(errors(&diags).is_empty(), "unexpected: {diags:?}");
    }

    #[test]
    fn bad_matmul_is_a_shape_error_naming_its_operands() {
        let mut b = IrBuilder::new();
        let x = b.leaf(2, 3);
        let y = b.leaf(2, 3);
        let bad = b.raw(OpKind::MatMul, vec![x, y], (2, 3), true, true);
        let diags = verify_tape(&b.finish(), &TapeCheckConfig::default());
        let errs = errors(&diags);
        assert_eq!(errs.len(), 1, "{diags:?}");
        assert_eq!(errs[0].check, "shape");
        assert!(errs[0].subject.contains(&format!("node {bad}")));
        assert!(errs[0].msg.contains("node 0 is 2x3 but node 1 is 2x3"));
    }

    #[test]
    fn gradient_wiring_cut_is_detected() {
        // A mask node that drops needs_grad even though its parent carries a
        // gradient — the silent failure mode the verifier exists to catch.
        let mut b = IrBuilder::new();
        let w = b.leaf(3, 3);
        let cut = b.raw(OpKind::Relu, vec![w], (3, 3), false, true);
        let ir = b.finish();
        let diags = verify_tape(&ir, &TapeCheckConfig::default());
        assert!(
            errors(&diags)
                .iter()
                .any(|d| d.check == "backward-coverage"
                    && d.subject.contains(&format!("node {cut}"))),
            "{diags:?}"
        );
    }

    #[test]
    fn duplicate_subgraphs_warn() {
        let mut b = IrBuilder::new();
        let x = b.leaf(2, 2);
        let a = b.unary(OpKind::Relu, x).expect("relu");
        let _b2 = b.unary(OpKind::Relu, x).expect("relu");
        let _ = a;
        let ir = b.finish();
        let diags = verify_tape(&ir, &TapeCheckConfig::default());
        assert!(diags.iter().any(|d| d.check == "duplicate"), "{diags:?}");
    }

    #[test]
    fn leak_budget_zero_flags_unused_leaf() {
        let mut b = IrBuilder::new();
        let x = b.leaf(2, 2);
        let _orphan = b.leaf(4, 4);
        let loss = b.unary(OpKind::MeanAll, x).expect("mean_all");
        let ir = b.finish();
        let diags = verify_tape(
            &ir,
            &TapeCheckConfig {
                loss: Some(loss),
                leak_budget: Some(ses_tensor::LeakBudget::zero()),
            },
        );
        assert!(
            errors(&diags).iter().any(|d| d.check == "leak-budget"),
            "{diags:?}"
        );
        // With a budget of one unused leaf, the same trace passes.
        let relaxed = verify_tape(
            &ir,
            &TapeCheckConfig {
                loss: Some(loss),
                leak_budget: Some(ses_tensor::LeakBudget {
                    max_unused: 1,
                    max_after_loss: 0,
                }),
            },
        );
        assert!(errors(&relaxed).is_empty(), "{relaxed:?}");
    }
}
