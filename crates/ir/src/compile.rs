//! The pass driver: verify → DCE → validate → CSE → validate → color.
//!
//! Translation validation is structural, not trust-based: after every
//! rewrite the driver re-runs the full `ses-verify` tape checker on the
//! result *and* proves value preservation against the **original** IR with
//! [`ses_verify::equiv::check_equivalence`] under the pass's composed
//! witness. A pass that cannot be proven correct does not produce a plan —
//! [`compile`] returns [`CompileError::Rejected`] carrying the refuting
//! diagnostics instead.

use ses_tensor::TapeIr;
use ses_verify::equiv::{check_equivalence, value_numbers};
use ses_verify::tape_check::{verify_tape, TapeCheckConfig};
use ses_verify::{error_count, Diag};

use crate::analysis::constant_nodes;
use crate::passes::{cse, dce, fusion_candidates, Rewrite};
use crate::plan::{assign_slots, InferencePlan, PartialStats};

/// Why compilation failed. Both variants carry the verifier's diagnostics,
/// so a failure is always accompanied by its proof.
#[derive(Debug, Clone)]
pub enum CompileError {
    /// The *input* tape failed `ses-verify` — nothing was rewritten.
    InvalidInput(Vec<Diag>),
    /// A rewrite pass produced an IR the validator refuted.
    Rejected {
        /// Which pass was refuted (`"dce"`, `"cse"`, …).
        pass: &'static str,
        /// The refuting diagnostics (engine `"tape-ir"` or `"equiv"`).
        diags: Vec<Diag>,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::InvalidInput(d) => {
                write!(f, "input tape failed verification ({} findings)", d.len())
            }
            CompileError::Rejected { pass, diags } => write!(
                f,
                "pass `{pass}` refuted by translation validation ({} findings)",
                diags.len()
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// Maps each original output id to its node id in the rewritten IR.
///
/// Normally the witness contains the output itself; if CSE merged an output
/// into an equal-valued representative, the representative is found through
/// the original IR's value numbering (the same relation the equivalence
/// checker uses to accept that merge).
fn locate_outputs(
    original: &TapeIr,
    rw: &Rewrite,
    outputs: &[usize],
) -> Result<Vec<(usize, usize)>, String> {
    let vn = value_numbers(original);
    outputs
        .iter()
        .map(|&o| {
            rw.witness
                .iter()
                .position(|&w| w == o)
                .or_else(|| rw.witness.iter().position(|&w| vn[w] == vn[o]))
                .map(|new| (o, new))
                .ok_or_else(|| format!("output {o} has no witnessed counterpart"))
        })
        .collect()
}

/// Translation-validates one rewrite of `original`: the rewritten IR must
/// pass the full tape checker and the value-numbering bisimulation for
/// every declared output. Returns the refuting diagnostics on failure.
pub fn validate_rewrite(
    original: &TapeIr,
    rw: &Rewrite,
    outputs: &[usize],
) -> Result<(), Vec<Diag>> {
    let cfg = TapeCheckConfig {
        loss: None,
        leak_budget: None,
    };
    let mut diags: Vec<Diag> = verify_tape(&rw.ir, &cfg);
    diags.retain(|d| d.severity == ses_verify::Severity::Error);
    match locate_outputs(original, rw, outputs) {
        Ok(pairs) => diags.extend(check_equivalence(original, &rw.ir, &rw.witness, &pairs)),
        Err(msg) => diags.push(Diag::error(
            "equiv",
            "output",
            "output set".to_string(),
            msg,
        )),
    }
    if error_count(&diags) > 0 {
        Err(diags)
    } else {
        Ok(())
    }
}

/// Compiles a recorded tape into a verified [`InferencePlan`].
///
/// `loss` (if the tape has one) is forwarded to the *input* verification so
/// backward coverage and gradient wiring are proven before any rewrite;
/// `outputs` are the original-tape node ids the plan must keep addressable
/// (masks, logits — the inference artifacts).
pub fn compile(
    ir: &TapeIr,
    loss: Option<usize>,
    outputs: &[usize],
) -> Result<InferencePlan, CompileError> {
    let input_cfg = TapeCheckConfig {
        loss,
        leak_budget: None,
    };
    let input_diags = verify_tape(ir, &input_cfg);
    if error_count(&input_diags) > 0 {
        return Err(CompileError::InvalidInput(input_diags));
    }

    let mut stats = PartialStats::from_original(ir);

    // Pass 1: strip everything the declared outputs never read.
    let after_dce = dce(ir, outputs);
    validate_rewrite(ir, &after_dce, outputs)
        .map_err(|diags| CompileError::Rejected { pass: "dce", diags })?;
    stats.dce_removed = ir.nodes.len() - after_dce.ir.nodes.len();

    // Pass 2: merge equal-valued pure subexpressions. Witnesses compose, so
    // validation is still against the *original* IR, not the DCE output.
    let after_cse_local = cse(&after_dce.ir);
    let after_cse = Rewrite {
        witness: crate::passes::compose_witness(&after_dce.witness, &after_cse_local.witness),
        ir: after_cse_local.ir,
    };
    validate_rewrite(ir, &after_cse, outputs)
        .map_err(|diags| CompileError::Rejected { pass: "cse", diags })?;
    stats.cse_merged = after_dce.ir.nodes.len() - after_cse.ir.nodes.len();

    // Analyses on the final IR: fusion opportunities + constant slice.
    stats.fusion_candidates = fusion_candidates(&after_cse.ir).len();
    stats.const_nodes = constant_nodes(&after_cse.ir).iter().filter(|&&k| k).count();

    let pairs = locate_outputs(ir, &after_cse, outputs).map_err(|msg| CompileError::Rejected {
        pass: "cse",
        diags: vec![Diag::error("equiv", "output", "output set".into(), msg)],
    })?;
    let new_outputs: Vec<usize> = pairs.iter().map(|&(_, new)| new).collect();

    // Lowering: liveness-colored slot assignment.
    Ok(assign_slots(
        &after_cse.ir,
        &after_cse.witness,
        &new_outputs,
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::broken_dce;
    use ses_tensor::OpKind;
    use ses_verify::builder::IrBuilder;

    fn training_shaped_ir() -> (TapeIr, usize, usize) {
        // An inference head plus a "training-only" loss branch: the loss
        // reads extra nodes the logits never need, and the hidden
        // computation is recorded twice so CSE has something to merge.
        let mut b = IrBuilder::new();
        let x = b.constant(4, 3);
        let w = b.leaf(3, 2);
        let h1 = b.binary(OpKind::MatMul, x, w).unwrap();
        let r1 = b.unary(OpKind::Relu, h1).unwrap();
        // duplicate of the hidden computation, feeding the second head
        let h2 = b.binary(OpKind::MatMul, x, w).unwrap();
        let r2 = b.unary(OpKind::Relu, h2).unwrap();
        let both = b.binary(OpKind::Add, r1, r2).unwrap();
        let logits = b.unary(OpKind::Sigmoid, both).unwrap();
        // training-only branch
        let sq = b.binary(OpKind::Mul, both, both).unwrap();
        let loss = b.unary(OpKind::MeanAll, sq).unwrap();
        (b.finish(), logits, loss)
    }

    #[test]
    fn compile_strips_training_branch_and_reports_reduction() {
        let (ir, logits, loss) = training_shaped_ir();
        let plan = compile(&ir, Some(loss), &[logits]).expect("compile");
        // loss branch (mul, mean_all) dies; duplicate matmul+relu merge.
        assert_eq!(plan.stats.nodes_before, 10);
        assert_eq!(plan.stats.dce_removed, 2);
        assert_eq!(plan.stats.cse_merged, 2);
        assert_eq!(plan.stats.nodes_after, 6);
        assert!(plan.stats.node_reduction() >= 0.2);
        assert!(plan.stats.peak_bytes_after < plan.stats.peak_bytes_before);
        assert_eq!(plan.outputs.len(), 1);
        let out_step = &plan.steps[plan.outputs[0]];
        assert_eq!(out_step.op, OpKind::Sigmoid);
    }

    #[test]
    fn compile_keeps_an_output_merged_by_cse_addressable() {
        let mut b = IrBuilder::new();
        let a = b.leaf(2, 2);
        let s1 = b.unary(OpKind::Relu, a).unwrap();
        let s2 = b.unary(OpKind::Relu, a).unwrap();
        let m = b.binary(OpKind::Add, s1, s2).unwrap();
        b.unary(OpKind::MeanAll, m).unwrap();
        let ir = b.finish();
        // s2 is a declared output *and* a CSE duplicate of s1.
        let plan = compile(&ir, None, &[s2, 4]).expect("compile");
        assert_eq!(plan.outputs.len(), 2);
        assert_eq!(plan.steps[plan.outputs[0]].op, OpKind::Relu);
    }

    #[test]
    fn invalid_input_is_rejected_before_any_rewrite() {
        let mut b = IrBuilder::new();
        let a = b.leaf(2, 3);
        let c = b.leaf(4, 5);
        let bad = b.raw(OpKind::Add, vec![a, c], (2, 3), true, true);
        let ir = b.finish();
        let err = compile(&ir, None, &[bad]).unwrap_err();
        assert!(matches!(err, CompileError::InvalidInput(_)));
    }

    #[test]
    #[should_panic(expected = "dce must never remove a loss-reachable node")]
    fn validation_refutes_a_dce_that_removes_live_nodes() {
        let (ir, logits, _) = training_shaped_ir();
        let rw = broken_dce(&ir, &[logits]);
        validate_rewrite(&ir, &rw, &[logits]).expect("dce must never remove a loss-reachable node");
    }
}
