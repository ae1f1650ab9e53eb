//! Property tests extending the verifier's exhaustive small-model bound with
//! randomised shapes: arbitrary `(n, parts)` grids for `even_ranges`,
//! arbitrary degree sequences for `nnz_balanced_ranges` (with the
//! observational split proofs), and randomly generated well-formed dry-run
//! traces that the tape-IR verifier must accept.

use proptest::prelude::*;
use ses_tensor::par::{even_ranges, nnz_balanced_ranges};
use ses_tensor::OpKind;
use ses_verify::builder::IrBuilder;
use ses_verify::partition::{
    check_entry_partition, check_row_partition, check_split_entries, check_split_rows,
};
use ses_verify::tape_check::{verify_tape, TapeCheckConfig};
use ses_verify::{error_count, warning_count};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn even_ranges_holds_invariants_beyond_the_exhaustive_bound(
        n in 0usize..10_000,
        parts in 1usize..128,
    ) {
        let ranges = even_ranges(n, parts);
        let diags = check_row_partition("prop", n, parts, &ranges, true);
        prop_assert!(diags.is_empty(), "n={n} parts={parts}: {diags:?}");
    }

    #[test]
    fn split_rows_marker_proof_holds_on_random_shapes(
        n in 1usize..200,
        parts in 1usize..17,
        cols in 1usize..5,
    ) {
        let ranges = even_ranges(n, parts);
        prop_assert!(check_row_partition("prop", n, parts, &ranges, true).is_empty());
        let diags = check_split_rows("prop", n, cols, &ranges);
        prop_assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn nnz_balanced_holds_invariants_on_random_degree_sequences(
        degrees in proptest::collection::vec(0usize..40, 0..60),
        parts in 1usize..17,
    ) {
        let mut indptr = Vec::with_capacity(degrees.len() + 1);
        indptr.push(0usize);
        for &d in &degrees {
            indptr.push(indptr[indptr.len() - 1] + d);
        }
        let ranges = nnz_balanced_ranges(&indptr, parts);
        let diags = check_entry_partition("prop", &indptr, parts, &ranges);
        prop_assert!(diags.is_empty(), "indptr={indptr:?} parts={parts}: {diags:?}");
        if !ranges.is_empty() {
            let diags = check_split_entries("prop", &indptr, &ranges);
            prop_assert!(diags.is_empty(), "{diags:?}");
        }
    }

    #[test]
    fn verifier_accepts_random_wellformed_mlp_traces(
        dims in proptest::collection::vec(1usize..9, 2..6),
        rows in 1usize..12,
    ) {
        // Random-depth dense chain: x(rows×d0) → matmul w(d_i×d_{i+1}) →
        // relu → … → mean_all loss. Built entirely through the checked
        // builder API, so the verifier must find nothing.
        let mut b = IrBuilder::new();
        let mut h = b.constant(rows, dims[0]);
        for w in dims.windows(2) {
            let wt = b.leaf(w[0], w[1]);
            h = b.binary(OpKind::MatMul, h, wt).expect("checked matmul");
            h = b.unary(OpKind::Relu, h).expect("checked relu");
        }
        let loss = b.unary(OpKind::MeanAll, h).expect("checked mean_all");
        let ir = b.finish();
        let diags = verify_tape(&ir, &TapeCheckConfig {
            loss: Some(loss),
            leak_budget: Some(ses_tensor::LeakBudget::zero()),
        });
        prop_assert_eq!(error_count(&diags), 0, "{:?}", diags);
        prop_assert_eq!(warning_count(&diags), 0, "{:?}", diags);
    }
}
