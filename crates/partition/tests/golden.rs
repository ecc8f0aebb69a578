//! Golden assignments of the multilevel partitioner.
//!
//! Each row pins an FNV-1a digest of `multilevel(products_like(n, s).graph,
//! k, s)` together with its cut fraction and balance, bit for bit. The
//! partitioner's speed may change; its output may not: a change that moves
//! any of these has changed what every rank trains on.

use sar_graph::datasets::products_like;
use sar_graph::CsrGraph;
use sar_partition::multilevel;

/// FNV-1a over the assignment's little-endian bytes.
fn digest(assignment: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in assignment.iter().flat_map(|p| p.to_le_bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// `(nodes, seed, k, digest, cut_fraction, balance)`.
#[rustfmt::skip]
const GOLDEN: [(usize, u64, usize, u64, f64, f64); 32] = [
    (900, 0, 2, 0xf80d142fceebbbe5, 0.19947624392068836, 1.04),
    (900, 0, 3, 0x5c39ce78f1680366, 0.27399925177702955, 1.0533333333333332),
    (900, 0, 4, 0x43ad6c6990962055, 0.31163486719042277, 1.0533333333333332),
    (900, 0, 8, 0x9f23b0218f978881, 0.3685746352413019, 1.0577777777777777),
    (900, 1, 2, 0x42fcca0cd62b6f14, 0.22449132817779113, 1.051111111111111),
    (900, 1, 3, 0x8efe2ef9ff4d9735, 0.29559276221938585, 1.0533333333333332),
    (900, 1, 4, 0xf38d378431cceb75, 0.3083564832194609, 1.0533333333333332),
    (900, 1, 8, 0x53243d207d792130, 0.4111419776259479, 1.0577777777777777),
    (4000, 0, 2, 0xd0b861638742e7b4, 0.14583182256109564, 1.0505),
    (4000, 0, 3, 0xe75010e816f41c07, 0.18146878140248007, 1.05075),
    (4000, 0, 4, 0x66aef2b9179bc115, 0.2219022262739695, 1.051),
    (4000, 0, 8, 0xbb8742a5fe067772, 0.24162686860943344, 1.052),
    (4000, 1, 2, 0x18f966cd27b1bbc5, 0.12236251955127873, 1.048),
    (4000, 1, 3, 0xcbbf564e5abac277, 0.1646554313711273, 1.05075),
    (4000, 1, 4, 0xeb93c01bd4fb8ea6, 0.2016241804000373, 1.051),
    (4000, 1, 8, 0xcd2245218ed52e64, 0.2617022819320289, 1.052),
    (24000, 0, 2, 0x35117c1edab41074, 0.10281837384065298, 1.02725),
    (24000, 0, 3, 0x47cb48de766cbbf6, 0.15243407606657072, 1.050125),
    (24000, 0, 4, 0xaa42694be599f497, 0.19280495301284034, 1.05),
    (24000, 0, 8, 0xcab196af6d1406b1, 0.20922371707012347, 1.05),
    (24000, 1, 2, 0x670b72a2ec302785, 0.10287865108603719, 1.0285),
    (24000, 1, 3, 0xf8db34ac04a85906, 0.22619582472219726, 1.050125),
    (24000, 1, 4, 0xd6999b70a7df48c5, 0.20781684345346849, 1.05),
    (24000, 1, 8, 0x473f8f9bacf3d321, 0.24015763192688344, 1.05),
    (50000, 0, 2, 0x58179beb37586af4, 0.1002551755085092, 1.02636),
    (50000, 0, 3, 0x240d5c04a2468cf6, 0.17677501021371786, 1.0499999999999998),
    (50000, 0, 4, 0x848a8c0f20e96716, 0.19336543677876084, 1.05),
    (50000, 0, 8, 0xbc33e3b396ac0682, 0.2507102719862835, 1.05008),
    (50000, 1, 2, 0xb006777bb517fd55, 0.13275338215582222, 1.05),
    (50000, 1, 3, 0x1fda410b16987494, 0.14880816082765233, 1.0499999999999998),
    (50000, 1, 4, 0xfb925c7fae761565, 0.19034343125951578, 1.05),
    (50000, 1, 8, 0x1b3d411e8b2193c6, 0.20098100261520352, 1.05008),
];

#[test]
fn products_like_assignments_are_pinned() {
    let mut failures = Vec::new();
    for (i, &(n, s, ..)) in GOLDEN.iter().enumerate() {
        if i > 0 && GOLDEN[i - 1].0 == n && GOLDEN[i - 1].1 == s {
            continue;
        }
        let g = products_like(n, s).graph;
        for &(_, _, k, want, cut, balance) in GOLDEN.iter().filter(|r| r.0 == n && r.1 == s) {
            let p = multilevel(&g, k, s);
            let got = (
                digest(p.assignment()),
                p.cut_fraction(&g).to_bits(),
                p.balance().to_bits(),
            );
            if got != (want, cut.to_bits(), balance.to_bits()) {
                failures.push(format!(
                    "n={n} s={s} k={k}: digest {:#018x} cut {:?} balance {:?}",
                    got.0,
                    p.cut_fraction(&g),
                    p.balance()
                ));
            }
        }
    }
    assert!(failures.is_empty(), "moved:\n{}", failures.join("\n"));
}

/// 300 000 nodes, 92 % of them isolated (self-loop only) and the rest in
/// triangles and pairs: matching stalls on the first level, so recursive
/// bisection runs on the whole graph and restarts its BFS once per
/// component. Each restart must resume where the last one stopped.
#[test]
fn isolated_nodes_and_small_components_bisect_in_linear_time() {
    let n = 300_000u32;
    let mut edges = Vec::new();
    for i in (0..n).step_by(50) {
        edges.extend([(i, i + 1), (i + 1, i + 2), (i + 2, i)]);
    }
    for i in (25..n).step_by(100) {
        edges.push((i, i + 1));
    }
    let g = CsrGraph::from_edges(n as usize, &edges)
        .symmetrize()
        .with_self_loops();
    let p = multilevel(&g, 4, 0);
    assert!(p.balance() <= 1.05, "balance {}", p.balance());
    assert_eq!(digest(p.assignment()), 0x90852d24e70c93a5);
}
