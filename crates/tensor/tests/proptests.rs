//! Property-based tests for tensor algebra and autograd invariants.

use std::sync::atomic::{AtomicBool, Ordering};

use proptest::prelude::*;
use sar_tensor::pool::{self, Output};
use sar_tensor::{init, memory::MemoryTracker, Tensor, Var};

use rand::rngs::StdRng;
use rand::SeedableRng;

fn tensor_strategy(max_rows: usize, max_cols: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_rows, 1..=max_cols).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-5.0f32..5.0, r * c)
            .prop_map(move |data| Tensor::from_vec(&[r, c], data))
    })
}

/// The CSR pointer array of rows with the given entry counts.
fn ptr_of(counts: &[usize]) -> Vec<usize> {
    let mut ptr = vec![0usize];
    for &c in counts {
        ptr.push(ptr[ptr.len() - 1] + c);
    }
    ptr
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_is_associative_enough(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = init::randn(&[4, 5], 1.0, &mut rng);
        let b = init::randn(&[5, 3], 1.0, &mut rng);
        let c = init::randn(&[3, 6], 1.0, &mut rng);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        prop_assert!(left.allclose(&right, 1e-3));
    }

    #[test]
    fn transpose_is_involution(t in tensor_strategy(8, 8)) {
        prop_assert_eq!(t.transpose().transpose(), t);
    }

    #[test]
    fn matmul_tn_nt_match_explicit_transpose(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = init::randn(&[6, 4], 1.0, &mut rng);
        let b = init::randn(&[6, 3], 1.0, &mut rng);
        prop_assert!(a.matmul_tn(&b).allclose(&a.transpose().matmul(&b), 1e-4));
        let c = init::randn(&[5, 4], 1.0, &mut rng);
        prop_assert!(a.matmul_nt(&c).allclose(&a.matmul(&c.transpose()), 1e-4));
    }

    #[test]
    fn softmax_rows_are_probability_distributions(t in tensor_strategy(8, 8)) {
        let s = t.softmax_rows();
        for i in 0..s.rows() {
            let sum: f32 = s.row(i).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4);
            prop_assert!(s.row(i).iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }

    #[test]
    fn softmax_is_shift_invariant(t in tensor_strategy(6, 6), shift in -50.0f32..50.0) {
        let s1 = t.softmax_rows();
        let s2 = t.add_scalar(shift).softmax_rows();
        prop_assert!(s1.allclose(&s2, 1e-4));
    }

    #[test]
    fn gather_then_scatter_is_partial_identity(t in tensor_strategy(8, 4)) {
        let idx: Vec<u32> = (0..t.rows() as u32).collect();
        let g = t.gather_rows(&idx);
        let mut z = t.zeros_like();
        z.scatter_add_rows(&idx, &g);
        prop_assert_eq!(z, t);
    }

    #[test]
    fn sum_axis_decompositions_agree(t in tensor_strategy(8, 8)) {
        let total = t.sum();
        let by_rows = t.sum_axis1().sum();
        let by_cols = t.sum_axis0().sum();
        prop_assert!((total - by_rows).abs() < 1e-3 * (1.0 + total.abs()));
        prop_assert!((total - by_cols).abs() < 1e-3 * (1.0 + total.abs()));
    }

    #[test]
    fn autograd_linear_map_gradient_is_exact(seed in 0u64..500) {
        // For y = sum(A x), dy/dx is exactly the column sums of A —
        // autograd must reproduce it to float precision, not just to
        // finite-difference tolerance.
        let mut rng = StdRng::seed_from_u64(seed);
        let a = init::randn(&[5, 4], 1.0, &mut rng);
        let x = Var::parameter(init::randn(&[4, 3], 1.0, &mut rng));
        let av = Var::constant(a.clone());
        av.matmul(&x).sum().backward();
        let g = x.grad().unwrap();
        let colsum = a.sum_axis0();
        for i in 0..4 {
            for j in 0..3 {
                prop_assert!((g.at(&[i, j]) - colsum.data()[i]).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn grad_accumulation_is_linear(seed in 0u64..500) {
        // backward(g1 + g2) == backward(g1) then backward(g2) accumulated.
        let mut rng = StdRng::seed_from_u64(seed);
        let xt = init::randn(&[3, 3], 1.0, &mut rng);
        let g1 = init::randn(&[3, 3], 1.0, &mut rng);
        let g2 = init::randn(&[3, 3], 1.0, &mut rng);

        let x1 = Var::parameter(xt.clone());
        let y1 = x1.mul(&x1);
        y1.backward_with(&g1.add(&g2));

        let x2 = Var::parameter(xt.clone());
        let y2 = x2.mul(&x2);
        y2.backward_with(&g1);
        let y3 = x2.mul(&x2);
        y3.backward_with(&g2);

        prop_assert!(x1.grad().unwrap().allclose(&x2.grad().unwrap(), 1e-4));
    }

    #[test]
    fn memory_tracker_is_balanced(t in tensor_strategy(16, 16)) {
        let before = MemoryTracker::stats().current_bytes;
        {
            let a = t.clone();
            let b = a.add(&t);
            let _ = b.matmul_nt(&a);
        }
        prop_assert_eq!(MemoryTracker::stats().current_bytes, before);
        let s = MemoryTracker::stats();
        prop_assert!(s.peak_bytes >= s.current_bytes);
    }

    // `pool::split_rows` is the one place disjoint `&mut` parts are minted
    // from shared buffers: every element of every output must reach
    // exactly one chunk, as part of the row that owns it.
    #[test]
    fn split_rows_hands_every_element_to_its_row_exactly_once(
        counts in proptest::collection::vec(0usize..5, 0..120),
        width in 1usize..4,
        threads in 0usize..3,
    ) {
        let n = counts.len();
        let ptr = ptr_of(&counts);
        let mut rows = vec![0.0f32; n * width];
        let mut edges = vec![0.0f32; ptr[n] * width];
        let mut ones = vec![0.0f32; n];
        pool::set_threads([1, 2, 4][threads]);
        pool::split_rows(
            n,
            [
                Output::row_owned(&mut rows, width),
                Output::edge_owned(&mut edges, &ptr, width),
                Output::row_owned(&mut ones, 1),
            ],
            |lo, hi, [r, e, o]| {
                assert_eq!(r.len(), (hi - lo) * width);
                assert_eq!(e.len(), (ptr[hi] - ptr[lo]) * width);
                assert_eq!(o.len(), hi - lo);
                // Stamp each element with (1 + its owning row): `+=`, so a
                // second visit would show.
                for i in lo..hi {
                    let stamp = i as f32 + 1.0;
                    for v in &mut r[(i - lo) * width..(i - lo + 1) * width] {
                        *v += stamp;
                    }
                    for v in &mut e[(ptr[i] - ptr[lo]) * width..(ptr[i + 1] - ptr[lo]) * width] {
                        *v += stamp;
                    }
                    o[i - lo] += stamp;
                }
            },
        );
        pool::set_threads(1);
        for i in 0..n {
            let stamp = i as f32 + 1.0;
            prop_assert!(rows[i * width..(i + 1) * width].iter().all(|&v| v == stamp));
            prop_assert!(edges[ptr[i] * width..ptr[i + 1] * width].iter().all(|&v| v == stamp));
            prop_assert_eq!(ones[i], stamp);
        }
    }

    // No input safe code can pass makes two chunks overlap: a pointer
    // array that is not monotone or not `n + 1` long, or an output of the
    // wrong length, panics before any body runs.
    #[test]
    fn split_rows_rejects_malformed_outputs_before_running(
        counts in proptest::collection::vec(1usize..5, 3..40),
        width in 1usize..4,
        threads in 0usize..3,
        corruption in 0usize..5,
    ) {
        let n = counts.len();
        let mut ptr = ptr_of(&counts);
        let mut edges = vec![0.0f32; ptr[n] * width];
        let mut rows = vec![0.0f32; n * width];
        match corruption {
            // Not monotone, yet in bounds and ending where it should: only
            // the monotonicity check can see it.
            0 => ptr.swap(1, 2),
            1 => ptr[0] = 1,
            2 => ptr.push(ptr[n]),
            3 => edges.push(0.0),
            _ => rows.truncate(n * width - 1),
        }
        let ran = AtomicBool::new(false);
        pool::set_threads([1, 2, 4][threads]);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool::split_rows(
                n,
                [
                    Output::edge_owned(&mut edges, &ptr, width),
                    Output::row_owned(&mut rows, width),
                ],
                |_, _, _| ran.store(true, Ordering::SeqCst),
            );
        }));
        pool::set_threads(1);
        prop_assert!(outcome.is_err(), "corruption {} was accepted", corruption);
        prop_assert!(!ran.load(Ordering::SeqCst), "a body ran under corruption {}", corruption);
    }
}
