//! The compiler's output artifact: a topologically ordered op list with
//! preassigned buffer slots.
//!
//! Slot assignment is greedy first-fit coloring of the buffer-interference
//! graph implied by live intervals: two values interfere iff their
//! `[def, last_use]` intervals overlap, and walking defs in topological
//! order while releasing slots at last uses colors that interval graph
//! optimally per size class. Plan outputs are pinned live to the end, so
//! reusing their slots is impossible by construction.

use ses_tensor::{IrMeta, OpKind, TapeIr};

use crate::analysis::{last_uses, node_bytes, total_bytes};

/// One executable step of an [`InferencePlan`].
#[derive(Debug, Clone)]
pub struct PlanStep {
    /// Node id in the **original** (pre-rewrite) tape — the key under which
    /// the executor looks up payloads (leaf values, CSR structures, masks).
    pub orig: usize,
    /// The op, as in [`ses_tensor::IrNode::op`].
    pub op: OpKind,
    /// Operand step indices (always `<` this step's index).
    pub parents: Vec<usize>,
    /// Declared output shape.
    pub shape: (usize, usize),
    /// Scalar params (bit-cast f32 constants), as exported by the tape.
    pub params: Vec<u32>,
    /// Side-channel summary for payload ops.
    pub meta: IrMeta,
    /// Preassigned buffer slot this step writes.
    pub slot: usize,
}

/// What the compiler did, in numbers. Emitted as `bench_row` telemetry by
/// the `ses-ir` binary and asserted against in CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    /// Nodes in the tape as recorded.
    pub nodes_before: usize,
    /// Nodes surviving DCE + CSE.
    pub nodes_after: usize,
    /// Nodes removed because no declared output depends on them.
    pub dce_removed: usize,
    /// Nodes merged into an equal-valued representative.
    pub cse_merged: usize,
    /// `mask-apply → spmm` fusion opportunities reported (not rewritten).
    pub fusion_candidates: usize,
    /// Nodes whose value is provably constant at record time.
    pub const_nodes: usize,
    /// Bytes held by the unoptimised tape (every node resident, as the
    /// backward sweep requires).
    pub peak_bytes_before: usize,
    /// Bytes held by the plan's slot set — the static peak of the
    /// liveness-colored execution.
    pub peak_bytes_after: usize,
    /// Scratch-arena bytes the executor holds at its high-water mark: the
    /// full slot set plus the largest single step output, which coexists
    /// transiently with the slot value it replaces (steps compute into a
    /// fresh pooled buffer and only then recycle the slot's old occupant).
    pub arena_bytes: usize,
}

impl PlanStats {
    /// Fraction of nodes removed, in `[0, 1]`.
    pub fn node_reduction(&self) -> f64 {
        if self.nodes_before == 0 {
            return 0.0;
        }
        1.0 - (self.nodes_after as f64) / (self.nodes_before as f64)
    }

    /// Fraction of peak bytes removed, in `[0, 1]`.
    pub fn byte_reduction(&self) -> f64 {
        if self.peak_bytes_before == 0 {
            return 0.0;
        }
        1.0 - (self.peak_bytes_after as f64) / (self.peak_bytes_before as f64)
    }
}

/// A verified, topologically ordered inference program with preassigned
/// buffer slots. Produced only by [`crate::compile`], which refuses to
/// return one unless every rewrite stage was translation-validated.
#[derive(Debug, Clone)]
pub struct InferencePlan {
    /// Steps in execution order.
    pub steps: Vec<PlanStep>,
    /// Step indices of the declared outputs, in the order they were
    /// requested at compile time.
    pub outputs: Vec<usize>,
    /// Byte size of each buffer slot (`slots[s]` is the largest shape ever
    /// stored in slot `s`).
    pub slots: Vec<usize>,
    /// Compiler accounting.
    pub stats: PlanStats,
}

impl InferencePlan {
    /// Static peak memory of the plan: the sum of all slot sizes.
    pub fn peak_bytes(&self) -> usize {
        self.slots.iter().sum()
    }
}

/// Lowers a rewritten IR to an [`InferencePlan`] via liveness-colored slot
/// assignment. `witness` maps each IR node to its original tape id (for
/// payload lookup); `outputs` are node ids *in the rewritten IR* that must
/// stay addressable after the run.
pub(crate) fn assign_slots(
    ir: &TapeIr,
    witness: &[usize],
    outputs: &[usize],
    stats_seed: PartialStats,
) -> InferencePlan {
    let last = last_uses(ir, outputs);
    let mut slot_of = vec![usize::MAX; ir.nodes.len()];
    let mut slots: Vec<usize> = Vec::new(); // byte capacity per slot
    let mut free: Vec<usize> = Vec::new(); // indices into `slots`
    let mut steps = Vec::with_capacity(ir.nodes.len());
    for (id, node) in ir.nodes.iter().enumerate() {
        // Release operands whose last read is this step *before* allocating:
        // the executor computes into a fresh buffer and stores it afterwards,
        // so an operand's slot may be safely recycled for this step's result.
        for &p in &node.parents {
            let s = slot_of[p];
            // `contains` guards the duplicate-operand case (e.g. `mul(x, x)`)
            // from freeing the same slot twice.
            if last[p] == id && s != usize::MAX && !free.contains(&s) {
                free.push(s);
            }
        }
        let need = node_bytes(node.shape);
        // First fit: smallest free slot that holds `need`, else grow one.
        let fit = free
            .iter()
            .enumerate()
            .filter(|(_, &s)| slots[s] >= need)
            .min_by_key(|(_, &s)| slots[s])
            .map(|(i, _)| i);
        let slot = match fit {
            Some(i) => free.swap_remove(i),
            None => match free.iter().enumerate().max_by_key(|(_, &s)| slots[s]) {
                // No free slot is big enough: widen the largest free one
                // rather than adding a new color.
                Some((i, _)) => {
                    let s = free.swap_remove(i);
                    slots[s] = need;
                    s
                }
                None => {
                    slots.push(need);
                    slots.len() - 1
                }
            },
        };
        slot_of[id] = slot;
        steps.push(PlanStep {
            orig: witness[id],
            op: node.op,
            parents: node.parents.clone(),
            shape: node.shape,
            params: node.params.clone(),
            meta: node.meta.clone(),
            slot,
        });
        // A value nobody ever reads (and that is not an output) dies at its
        // own step; hand the slot back immediately.
        if last[id] == id && !outputs.contains(&id) {
            free.push(slot);
        }
    }
    let peak_bytes_after: usize = slots.iter().sum();
    let widest_step = ir
        .nodes
        .iter()
        .map(|n| node_bytes(n.shape))
        .max()
        .unwrap_or(0);
    InferencePlan {
        steps,
        outputs: outputs.to_vec(),
        slots,
        stats: PlanStats {
            nodes_before: stats_seed.nodes_before,
            nodes_after: ir.nodes.len(),
            dce_removed: stats_seed.dce_removed,
            cse_merged: stats_seed.cse_merged,
            fusion_candidates: stats_seed.fusion_candidates,
            const_nodes: stats_seed.const_nodes,
            peak_bytes_before: stats_seed.peak_bytes_before,
            peak_bytes_after,
            arena_bytes: peak_bytes_after + widest_step,
        },
    }
}

/// Stats known before slot assignment runs.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PartialStats {
    pub nodes_before: usize,
    pub dce_removed: usize,
    pub cse_merged: usize,
    pub fusion_candidates: usize,
    pub const_nodes: usize,
    pub peak_bytes_before: usize,
}

impl PartialStats {
    pub(crate) fn from_original(ir: &TapeIr) -> Self {
        PartialStats {
            nodes_before: ir.nodes.len(),
            dce_removed: 0,
            cse_merged: 0,
            fusion_candidates: 0,
            const_nodes: 0,
            peak_bytes_before: total_bytes(ir),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_verify::builder::IrBuilder;

    fn chain() -> TapeIr {
        // 0:leaf(2x2) 1:relu 2:sigmoid 3:tanh 4:mean_all — a pure chain
        let mut b = IrBuilder::new();
        let x = b.leaf(2, 2);
        let a = b.unary(OpKind::Relu, x).unwrap();
        let s = b.unary(OpKind::Sigmoid, a).unwrap();
        let t = b.unary(OpKind::Tanh, s).unwrap();
        b.unary(OpKind::MeanAll, t).unwrap();
        b.finish()
    }

    fn plan_of(ir: &TapeIr, outputs: &[usize]) -> InferencePlan {
        let witness: Vec<usize> = (0..ir.nodes.len()).collect();
        let seed = PartialStats::from_original(ir);
        assign_slots(ir, &witness, outputs, seed)
    }

    #[test]
    fn chain_runs_in_a_single_recycled_slot() {
        let ir = chain();
        let plan = plan_of(&ir, &[4]);
        // each step frees its operand before allocating, so the whole chain
        // (including the final scalar) recycles one 2x2 slot.
        assert_eq!(plan.slots.len(), 1);
        assert!(plan.peak_bytes() < plan.stats.peak_bytes_before);
        assert!(plan.stats.byte_reduction() > 0.5);
        // the arena high-water covers the slot set plus one transient step
        assert!(plan.stats.arena_bytes > plan.stats.peak_bytes_after);
        assert!(plan.stats.arena_bytes <= plan.stats.peak_bytes_after * 2);
    }

    #[test]
    fn outputs_keep_their_slots_exclusive() {
        let ir = chain();
        let plan = plan_of(&ir, &[1, 4]);
        let out_slot = plan.steps[1].slot;
        for step in &plan.steps[2..] {
            assert_ne!(step.slot, out_slot, "output slot was recycled");
        }
    }

    #[test]
    fn parents_always_precede_and_slots_are_in_range() {
        let ir = chain();
        let plan = plan_of(&ir, &[4]);
        for (i, step) in plan.steps.iter().enumerate() {
            assert!(step.parents.iter().all(|&p| p < i));
            assert!(step.slot < plan.slots.len());
            assert!(plan.slots[step.slot] >= step.shape.0 * step.shape.1 * 4);
        }
    }
}
