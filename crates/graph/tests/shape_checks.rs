//! Every shape check of the attention kernels and of `head_project` is
//! made once, in the body both kernel families (and both directions of
//! `head_project`) share — so a malformed argument is rejected by every
//! entry point, with the same message. Before the bodies were shared the
//! copies had drifted: the two-step forward *returned numbers* for an
//! `x_src` twice too wide where its fused twin panicked, neither backward
//! family looked at `grad_out`'s width or at the shape of `max` / `den` /
//! `grad_dot`, and `head_project_backward` accepted an `a` its forward
//! rejected.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sar_graph::fused::{self, OnlineAttnState};
use sar_graph::{ops, CsrGraph};
use sar_tensor::Tensor;

const ROWS: usize = 6;
const COLS: usize = 5;
const H: usize = 2;
const D: usize = 3;

fn block() -> CsrGraph {
    CsrGraph::from_edges_bipartite(
        COLS,
        ROWS,
        &[(0, 1), (2, 1), (3, 1), (1, 0), (4, 3), (3, 4), (0, 5)],
    )
}

fn filled(shape: &[usize]) -> Tensor {
    let n = shape.iter().product();
    Tensor::from_vec(shape, (0..n).map(|k| (k % 7) as f32 * 0.1 - 0.3).collect())
}

/// The arguments of one attention block call, well-formed by default.
struct Args {
    s_dst: Tensor,
    s_src: Tensor,
    x: Tensor,
    map: Option<Vec<u32>>,
    state_rows: usize,
    max: Tensor,
    den: Tensor,
    grad_out: Tensor,
    grad_dot: Tensor,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            s_dst: filled(&[ROWS, H]),
            s_src: filled(&[COLS, H]),
            x: filled(&[COLS, H * D]),
            map: None,
            state_rows: ROWS,
            max: filled(&[ROWS, H]),
            den: Tensor::ones(&[ROWS, H]),
            grad_out: filled(&[ROWS, H * D]),
            grad_dot: filled(&[ROWS, H]),
        }
    }
}

fn forward(fused_family: bool, a: &Args) {
    let g = block();
    let mut st = OnlineAttnState::new(a.state_rows, H, D);
    match (fused_family, a.map.as_deref()) {
        (true, Some(m)) => {
            fused::gat_fused_block_forward_indexed(&g, &a.s_dst, &a.s_src, &a.x, m, 0.2, &mut st)
        }
        (true, None) => fused::gat_fused_block_forward(&g, &a.s_dst, &a.s_src, &a.x, 0.2, &mut st),
        (false, None) => {
            fused::gat_twostep_block_forward(&g, &a.s_dst, &a.s_src, &a.x, 0.2, &mut st)
        }
        (false, Some(_)) => unreachable!("the two-step family takes no row map"),
    }
}

fn backward(fused_family: bool, a: &Args) {
    let g = block();
    let mut dsd = Tensor::zeros(&[ROWS, H]);
    let (sd, ss, x, dsd) = (&a.s_dst, &a.s_src, &a.x, &mut dsd);
    let (max, den, go, gd) = (&a.max, &a.den, &a.grad_out, &a.grad_dot);
    match (fused_family, a.map.as_deref()) {
        (true, Some(m)) => {
            fused::gat_fused_block_backward_indexed(&g, sd, ss, x, m, 0.2, max, den, go, gd, dsd)
        }
        (true, None) => fused::gat_fused_block_backward(&g, sd, ss, x, 0.2, max, den, go, gd, dsd),
        (false, None) => {
            fused::gat_twostep_block_backward(&g, sd, ss, x, 0.2, max, den, go, gd, dsd)
        }
        (false, Some(_)) => unreachable!("the two-step family takes no row map"),
    };
}

/// The panic message of `f`, or `None` if it returned.
fn panic_message(f: impl FnOnce()) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
    let text = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()));
    Some(text.unwrap_or_default())
}

#[test]
fn well_formed_arguments_are_accepted_by_every_entry_point() {
    // The row map is the fused family's alone (its two `_indexed` names).
    let identity: Vec<u32> = (0..COLS as u32).collect();
    for (fused_family, map) in [(true, None), (true, Some(identity)), (false, None)] {
        let args = Args {
            map,
            ..Args::default()
        };
        forward(fused_family, &args);
        backward(fused_family, &args);
    }
}

#[test]
fn both_families_reject_every_mismatch_with_one_message() {
    type Kernel = fn(bool, &Args);
    type Edit = fn(&mut Args);
    let table: [(&str, Kernel, Edit, &str); 16] = [
        (
            "forward: x twice too wide",
            forward,
            |a| a.x = filled(&[COLS, 2 * H * D]),
            "x width must be H*D",
        ),
        (
            "forward: x width not divisible by the heads",
            forward,
            |a| a.x = filled(&[COLS, H * D + 1]),
            "not divisible",
        ),
        (
            "forward: x a row short",
            forward,
            |a| a.x = filled(&[COLS - 1, H * D]),
            "operand row count mismatch",
        ),
        (
            "forward: transposed s_dst",
            forward,
            |a| a.s_dst = filled(&[H, ROWS]),
            "s_dst must be [6, 2]",
        ),
        (
            "forward: transposed s_src",
            forward,
            |a| a.s_src = filled(&[H, COLS]),
            "s_src must be [5, 2]",
        ),
        (
            "forward: state of another block",
            forward,
            |a| a.state_rows = ROWS + 1,
            "state rows mismatch",
        ),
        (
            "forward: map a column short",
            forward,
            |a| a.map = Some(vec![0; COLS - 1]),
            "one map entry per operand row",
        ),
        (
            "forward: map entry past x",
            forward,
            |a| a.map = Some(vec![COLS as u32; COLS]),
            "row map entry out of range",
        ),
        (
            "backward: x twice too wide",
            backward,
            |a| a.x = filled(&[COLS, 2 * H * D]),
            "grad_out must be [rows, H*D]",
        ),
        (
            "backward: grad_out twice too wide",
            backward,
            |a| a.grad_out = filled(&[ROWS, 2 * H * D]),
            "grad_out must be [rows, H*D]",
        ),
        (
            "backward: transposed max",
            backward,
            |a| a.max = filled(&[H, ROWS]),
            "max must be [6, 2]",
        ),
        (
            "backward: transposed den",
            backward,
            |a| a.den = filled(&[H, ROWS]),
            "den must be [6, 2]",
        ),
        (
            "backward: transposed grad_dot",
            backward,
            |a| a.grad_dot = filled(&[H, ROWS]),
            "grad_dot must be [6, 2]",
        ),
        (
            "backward: transposed s_src",
            backward,
            |a| a.s_src = filled(&[H, COLS]),
            "s_src must be [5, 2]",
        ),
        (
            "backward: map a column short",
            backward,
            |a| a.map = Some(vec![0; COLS - 1]),
            "one map entry per operand row",
        ),
        (
            "backward: map entry past x",
            backward,
            |a| a.map = Some(vec![COLS as u32; COLS]),
            "row map entry out of range",
        ),
    ];
    for (what, kernel, edit, expect) in table {
        let mut args = Args::default();
        edit(&mut args);
        let fused_msg = panic_message(|| kernel(true, &args))
            .unwrap_or_else(|| panic!("{what}: the fused family returned"));
        assert!(fused_msg.contains(expect), "{what}: {fused_msg:?}");
        if args.map.is_none() {
            let twostep_msg = panic_message(|| kernel(false, &args));
            assert_eq!(
                Some(fused_msg),
                twostep_msg,
                "{what}: the two families disagree"
            );
        }
    }
}

#[test]
fn head_project_forward_and_backward_reject_the_same_arguments() {
    let x = filled(&[COLS, H * D]);
    let grad = filled(&[COLS, H]);
    let table = [
        (
            "a twice too long",
            filled(&[2 * H * D]),
            H,
            "attention vector length mismatch",
        ),
        (
            "width not divisible by the heads",
            filled(&[H * D]),
            4,
            "not divisible",
        ),
    ];
    for (what, a, heads, expect) in &table {
        let fwd = panic_message(|| drop(ops::head_project(&x, a, *heads)));
        let bwd = panic_message(|| drop(ops::head_project_backward(&x, a, *heads, &grad)));
        let fwd = fwd.unwrap_or_else(|| panic!("{what}: head_project returned"));
        assert!(fwd.contains(expect), "{what}: {fwd:?}");
        assert_eq!(
            Some(&fwd),
            bwd.as_ref(),
            "{what}: forward and backward disagree"
        );
    }
}
