//! [`AdjView`] — a self-loop-augmented adjacency with precomputed
//! symmetric normalisation, the aggregation substrate every encoder runs on.
//!
//! SES runs the *same* encoder parameters over different adjacencies (the
//! plain graph for `Z`, the k-hop graph for `Z_m`, masked variants for
//! explanations), so the view is passed to `forward` rather than baked into
//! the encoder.

use std::sync::Arc;

use ses_graph::{sym_norm_values, with_self_loops, Graph};
use ses_tensor::CsrStructure;

/// An adjacency "view": structure with self-loops plus symmetric
/// normalisation values.
#[derive(Debug, Clone)]
pub struct AdjView {
    structure: Arc<CsrStructure>,
    sym_norm: Vec<f32>,
    /// Flat positions of the self-loop entries (one per node), used when a
    /// mask over the *loop-free* structure is lifted onto this view.
    loop_positions: Vec<usize>,
    /// Per-entry destination (row) indices, shared for gather ops.
    entry_rows: Arc<Vec<usize>>,
    /// Per-entry source (column) indices, shared for gather ops.
    entry_cols: Arc<Vec<usize>>,
}

impl AdjView {
    /// Builds a view from a loop-free structure by adding self-loops and
    /// computing its symmetric normalisation.
    pub fn from_structure(loop_free: &Arc<CsrStructure>) -> Self {
        let structure = with_self_loops(loop_free);
        let sym = sym_norm_values(&structure);
        let n = structure.n_rows();
        let loop_positions = (0..n)
            .map(|i| {
                structure
                    .find(i, i)
                    // lint:allow(no-unwrap): with_self_loops() inserted (i, i) for every row above
                    .expect("self-loop must exist after augmentation")
            })
            .collect();
        let (rows, cols) = structure.entry_endpoints();
        Self {
            sym_norm: sym.values().to_vec(),
            structure,
            loop_positions,
            entry_rows: Arc::new(rows),
            entry_cols: Arc::new(cols),
        }
    }

    /// Per-entry destination (row) indices, aligned with `structure()`.
    pub fn entry_rows(&self) -> &Arc<Vec<usize>> {
        &self.entry_rows
    }

    /// Per-entry source (column) indices, aligned with `structure()`.
    pub fn entry_cols(&self) -> &Arc<Vec<usize>> {
        &self.entry_cols
    }

    /// View over a graph's 1-hop adjacency.
    pub fn of_graph(graph: &Graph) -> Self {
        Self::from_structure(graph.adjacency())
    }

    /// The self-loop-augmented structure.
    pub fn structure(&self) -> &Arc<CsrStructure> {
        &self.structure
    }

    /// Symmetric (GCN) normalisation values, aligned with `structure()`.
    pub fn sym_norm(&self) -> &[f32] {
        &self.sym_norm
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.structure.n_rows()
    }

    /// Number of stored entries (including self-loops).
    pub fn nnz(&self) -> usize {
        self.structure.nnz()
    }

    /// Lifts per-edge weights defined on a loop-free structure onto this
    /// view's entry layout: masked edges keep their weight, self-loops get
    /// `1.0`, and entries absent from `source` get `0.0`.
    pub fn lift_edge_weights(&self, source: &CsrStructure, weights: &[f32]) -> Vec<f32> {
        assert_eq!(
            weights.len(),
            source.nnz(),
            "lift_edge_weights: weight length mismatch"
        );
        let mut out = vec![0.0f32; self.structure.nnz()];
        for (r, c, p_src) in source.iter_entries() {
            if let Some(p_dst) = self.structure.find(r, c) {
                out[p_dst] = weights[p_src];
            }
        }
        for &p in &self.loop_positions {
            out[p] = 1.0;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_tensor::Matrix;

    fn path3() -> Graph {
        Graph::new(3, &[(0, 1), (1, 2)], Matrix::zeros(3, 1), vec![0; 3])
    }

    #[test]
    fn view_has_self_loops() {
        let g = path3();
        let v = AdjView::of_graph(&g);
        assert_eq!(v.nnz(), 4 + 3);
        for i in 0..3 {
            assert!(v.structure().find(i, i).is_some());
        }
    }

    #[test]
    fn norms_aligned() {
        let g = path3();
        let v = AdjView::of_graph(&g);
        assert_eq!(v.sym_norm().len(), v.nnz());
    }

    #[test]
    fn entry_endpoints_align_with_structure() {
        let g = path3();
        let v = AdjView::of_graph(&g);
        let rows = v.entry_rows();
        let cols = v.entry_cols();
        assert_eq!(rows.len(), v.nnz());
        for (r, c, p) in v.structure().iter_entries() {
            assert_eq!(rows[p], r);
            assert_eq!(cols[p], c);
        }
    }

    #[test]
    fn lift_edge_weights_roundtrip() {
        let g = path3();
        let v = AdjView::of_graph(&g);
        let src = g.adjacency();
        let w: Vec<f32> = (0..src.nnz()).map(|i| 0.1 * (i + 1) as f32).collect();
        let lifted = v.lift_edge_weights(src, &w);
        for (r, c, p_src) in src.iter_entries() {
            let p = v.structure().find(r, c).unwrap();
            assert_eq!(lifted[p], w[p_src]);
        }
        for i in 0..3 {
            let p = v.structure().find(i, i).unwrap();
            assert_eq!(lifted[p], 1.0, "self-loop weight");
        }
    }
}
