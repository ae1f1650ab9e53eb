//! Reference executor for [`InferencePlan`]s.
//!
//! The interpreter exists to *close the translation-validation loop at
//! runtime*: the static checker proves value-number equality, and this
//! module lets tests prove **bit identity** — every step runs the same
//! [`ses_tensor::forward`] body the recording tape ran, so an optimised
//! plan must reproduce the tape's forward values exactly, down to the last
//! ULP. The executor itself only looks up payloads, checks them, and keeps
//! the slot bookkeeping.
//!
//! Payloads (leaf matrices, CSR structures, index lists, dropout masks) are
//! not part of the IR — the tape exports only summaries of them. The caller
//! supplies them in a [`PayloadMap`] keyed by **original** tape node id;
//! [`PlanStep::orig`] carries that id through every rewrite, which is the
//! executor-side half of the witness contract described in
//! [`ses_verify::equiv`]. A payload whose summary differs from the one the
//! plan was verified against is refused before its step runs.

use std::collections::HashMap;

pub use ses_tensor::Payload;
use ses_tensor::{forward, infer_shape, IrMeta, Matrix};

use crate::plan::{InferencePlan, PlanStep};

/// Payloads keyed by original tape node id.
#[derive(Debug, Clone, Default)]
pub struct PayloadMap {
    map: HashMap<usize, Payload>,
}

impl PayloadMap {
    /// Empty map (enough for payload-free programs).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the payload for original node `id`.
    pub fn insert(&mut self, id: usize, payload: Payload) {
        self.map.insert(id, payload);
    }

    /// The payload of `step`, checked against the summary the plan was
    /// verified with.
    fn checked(&self, step: &PlanStep) -> Result<&Payload, ExecError> {
        let payload = self.map.get(&step.orig).ok_or_else(|| {
            ExecError(format!(
                "missing {} payload for original node {}",
                step.op, step.orig
            ))
        })?;
        let meta = payload.meta();
        if meta != step.meta {
            return Err(ExecError(format!(
                "node {}: `{}` payload summarises to {meta:?}, but the plan was verified \
                 against {:?}",
                step.orig, step.op, step.meta
            )));
        }
        Ok(payload)
    }
}

/// Why execution was refused or aborted. Every variant is a *caller* error
/// (missing/mistyped payload) or a *compiler* error (slot aliasing caught
/// by the writer check) — never a numerical condition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError(pub String);

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan execution error: {}", self.0)
    }
}

impl std::error::Error for ExecError {}

/// The value step `p` wrote, checked against the slot-writer journal.
fn read<'a>(
    plan: &InferencePlan,
    slots: &'a [Option<Matrix>],
    slot_writer: &[Option<usize>],
    p: usize,
) -> Result<&'a Matrix, ExecError> {
    let slot = plan
        .steps
        .get(p)
        .ok_or_else(|| ExecError(format!("operand step {p} does not exist")))?
        .slot;
    if slot_writer[slot] != Some(p) {
        return Err(ExecError(format!(
            "slot {slot} holds step {:?} but step {p} was expected (coloring bug)",
            slot_writer[slot]
        )));
    }
    slots[slot]
        .as_ref()
        .ok_or_else(|| ExecError(format!("slot {slot} read before first write")))
}

/// Executes `plan` and returns the output matrices in declared order.
///
/// Each step computes into a fresh matrix and only then stores it in its
/// assigned slot, so a step may legally reuse an operand's slot. A
/// `slot_writer` journal asserts that every operand read observes the step
/// that the plan said would produce it — a liveness-coloring bug (two live
/// values sharing a slot) is reported as an [`ExecError`] instead of
/// silently corrupting the run. Before a step runs, its payload summary,
/// parameter count and operand shapes are checked against the plan, so a
/// bad payload or hand-edited plan is an [`ExecError`], never a panic.
pub fn execute(plan: &InferencePlan, payloads: &PayloadMap) -> Result<Vec<Matrix>, ExecError> {
    let mut slots: Vec<Option<Matrix>> = vec![None; plan.slots.len()];
    let mut slot_writer: Vec<Option<usize>> = vec![None; plan.slots.len()];
    for (i, step) in plan.steps.iter().enumerate() {
        let op = step.op;
        let payload = if op.has_payload() {
            Some(payloads.checked(step)?)
        } else {
            None
        };
        let meta = payload.map_or(IrMeta::None, Payload::meta);
        if step.params.len() != usize::from(op.has_param()) {
            return Err(ExecError(format!(
                "step {i}: op `{op}` carries {} params",
                step.params.len()
            )));
        }
        let param = step.params.first().map_or(0.0, |&b| f32::from_bits(b));
        let args = step
            .parents
            .iter()
            .map(|&p| read(plan, &slots, &slot_writer, p))
            .collect::<Result<Vec<&Matrix>, ExecError>>()?;
        let shapes: Vec<(usize, usize)> = args.iter().map(|m| m.shape()).collect();
        let shape = infer_shape(op, &shapes, &meta)
            .map_err(|e| ExecError(format!("step {i}: op `{op}`: {e}")))?;
        if shape != step.shape {
            return Err(ExecError(format!(
                "step {i}: op `{op}` produces shape {shape:?}, plan declared {:?}",
                step.shape
            )));
        }
        let value = forward(op, &args, param, payload);
        // Recycle the slot's previous occupant into the scratch pool: the
        // slot set behaves as one arena region whose buffers cycle through
        // [`ses_tensor::scratch`] instead of the allocator. `stats.arena_bytes`
        // is the static high-water of exactly this scheme.
        if let Some(old) = slots[step.slot].replace(value) {
            old.recycle();
        }
        slot_writer[step.slot] = Some(i);
    }
    let outputs: Result<Vec<Matrix>, ExecError> = plan
        .outputs
        .iter()
        .map(|&o| read(plan, &slots, &slot_writer, o).cloned())
        .collect();
    // Outputs were cloned out above; hand every slot buffer back to the
    // pool so the next `execute` (or the surrounding training loop) reuses
    // this plan's arena instead of allocating a fresh one.
    for m in slots.into_iter().flatten() {
        m.recycle();
    }
    outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;

    use std::sync::Arc;

    use ses_tensor::Tape;

    #[test]
    fn executes_a_real_tape_bit_identically() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(
            3,
            2,
            vec![0.5, -1.0, 2.0, 0.0, -0.25, 1.5],
        ));
        let w = t.leaf(Matrix::from_vec(2, 2, vec![0.1, -0.2, 0.3, 0.4]));
        let h = t.matmul(x, w);
        let r = t.relu(h);
        let s = t.sigmoid(r);
        let out = t.mean_all(s);
        let ir = t.export_ir();
        let mut payloads = PayloadMap::new();
        payloads.insert(x.index(), Payload::Leaf(t.value(x).clone()));
        payloads.insert(w.index(), Payload::Leaf(t.value(w).clone()));
        let plan = compile(&ir, None, &[out.index()]).expect("compile");
        let got = execute(&plan, &payloads).expect("execute");
        assert_eq!(got.len(), 1);
        assert_eq!(
            got[0].as_slice()[0].to_bits(),
            t.value(out).as_slice()[0].to_bits()
        );
    }

    #[test]
    fn repeated_execution_reuses_the_scratch_arena() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(
            3,
            2,
            vec![0.5, -1.0, 2.0, 0.0, -0.25, 1.5],
        ));
        let w = t.leaf(Matrix::from_vec(2, 2, vec![0.1, -0.2, 0.3, 0.4]));
        let h = t.matmul(x, w);
        let r = t.relu(h);
        let out = t.mean_all(r);
        let ir = t.export_ir();
        let mut payloads = PayloadMap::new();
        payloads.insert(x.index(), Payload::Leaf(t.value(x).clone()));
        payloads.insert(w.index(), Payload::Leaf(t.value(w).clone()));
        let plan = compile(&ir, None, &[out.index()]).expect("compile");
        let first = execute(&plan, &payloads).expect("execute");
        // The first run recycled its slot buffers into the pool on exit, so
        // the second run's step outputs must come back as pool hits — and
        // bit-identical values prove recycled buffers are re-zeroed.
        let hits_before = ses_tensor::scratch::stats().hits;
        let second = execute(&plan, &payloads).expect("execute");
        assert!(
            ses_tensor::scratch::stats().hits > hits_before,
            "second execution should lease slot buffers from the scratch pool"
        );
        assert_eq!(
            first[0].as_slice()[0].to_bits(),
            second[0].as_slice()[0].to_bits()
        );
        assert!(plan.stats.arena_bytes >= plan.stats.peak_bytes_after);
    }

    #[test]
    fn missing_payload_is_a_clean_error() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(1, 1, vec![2.0]));
        let y = t.relu(x);
        let ir = t.export_ir();
        let plan = compile(&ir, None, &[y.index()]).expect("compile");
        let err = execute(&plan, &PayloadMap::new()).unwrap_err();
        assert!(err.0.contains("missing leaf payload"));
    }

    #[test]
    fn short_dropout_mask_is_refused() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(2, 2, vec![1.0, -2.0, 3.0, -4.0]));
        let d = t.dropout(x, Arc::new(vec![2.0; 4]));
        let plan = compile(&t.export_ir(), None, &[d.index()]).expect("compile");
        let mut payloads = PayloadMap::new();
        payloads.insert(x.index(), Payload::Leaf(t.value(x).clone()));
        // One entry short: zipping it against the input would leave the
        // last element unmasked.
        payloads.insert(d.index(), Payload::Mask(Arc::new(vec![2.0; 3])));
        let err = execute(&plan, &payloads).unwrap_err();
        assert!(err.0.contains("dropout"), "{err}");
    }

    #[test]
    fn out_of_bounds_gather_payload_is_an_error_not_a_panic() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(3, 1, vec![1.0, 2.0, 3.0]));
        let g = t.gather_rows(x, Arc::new(vec![2, 0]));
        let plan = compile(&t.export_ir(), None, &[g.index()]).expect("compile");
        let mut payloads = PayloadMap::new();
        payloads.insert(x.index(), Payload::Leaf(t.value(x).clone()));
        payloads.insert(g.index(), Payload::Gather(Arc::new(vec![7, 0])));
        let err = execute(&plan, &payloads).unwrap_err();
        assert!(err.0.contains("gather_rows"), "{err}");
    }

    #[test]
    fn leaf_payload_of_the_wrong_shape_is_refused() {
        let mut t = Tape::new();
        let x = t.leaf(Matrix::from_vec(2, 1, vec![1.0, 2.0]));
        let y = t.relu(x);
        let plan = compile(&t.export_ir(), None, &[y.index()]).expect("compile");
        let mut payloads = PayloadMap::new();
        payloads.insert(x.index(), Payload::Leaf(Matrix::zeros(1, 2)));
        assert!(execute(&plan, &payloads).is_err());
    }
}
