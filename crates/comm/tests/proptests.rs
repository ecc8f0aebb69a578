//! Property-based tests of the collectives: the ring all-reduce must
//! equal an elementwise sum for arbitrary buffer lengths and world sizes,
//! and traffic accounting must balance. And of the frame checksum: fed in
//! pieces, it must equal the polynomial division it is defined as.

use proptest::prelude::*;
use sar_comm::wire::{crc32, Crc32};
use sar_comm::{Cluster, CostModel, Payload, WIRE_HEADER_LEN};

/// CRC-32 (IEEE) as its definition: the reflected polynomial divided one
/// bit at a time. No table, nothing shared with the implementation.
fn crc32_bitwise(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c ^= b as u32;
        for _ in 0..8 {
            c = (c >> 1) ^ (0xedb8_8320 & (c & 1).wrapping_neg());
        }
    }
    !c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn ring_all_reduce_equals_sum(world in 1usize..7, len in 0usize..40, seed in 0u64..1000) {
        let out = Cluster::new(world, CostModel::default()).run(move |ctx| {
            // Deterministic pseudo-random local buffer per rank.
            let mut data: Vec<f32> = (0..len)
                .map(|i| ((seed + ctx.rank() as u64 * 31 + i as u64 * 7) % 97) as f32)
                .collect();
            ctx.all_reduce_sum(&mut data);
            data
        });
        let expect: Vec<f32> = (0..len)
            .map(|i| {
                (0..world)
                    .map(|r| ((seed + r as u64 * 31 + i as u64 * 7) % 97) as f32)
                    .sum()
            })
            .collect();
        for o in out {
            prop_assert_eq!(&o.result, &expect);
        }
    }

    #[test]
    fn broadcast_agrees_for_any_root(world in 1usize..6, root in 0usize..6, len in 1usize..20) {
        let root = root % world;
        let out = Cluster::new(world, CostModel::default()).run(move |ctx| {
            let mut data = vec![ctx.rank() as f32; len];
            ctx.broadcast_f32(root, &mut data);
            data
        });
        for o in out {
            prop_assert!(o.result.iter().all(|&v| v == root as f32));
        }
    }

    #[test]
    fn sent_and_received_bytes_balance(world in 2usize..6, len in 1usize..50) {
        let out = Cluster::new(world, CostModel::default()).run(move |ctx| {
            // Everyone sends `len` floats to everyone else and receives
            // the same amount back.
            let tag = 5;
            for dst in 0..ctx.world_size() {
                if dst != ctx.rank() {
                    ctx.send(dst, tag, Payload::F32(vec![1.0; len]));
                }
            }
            for src in 0..ctx.world_size() {
                if src != ctx.rank() {
                    let _ = ctx.recv(src, tag);
                }
            }
        });
        let total_sent: u64 = out.iter().map(|o| o.comm.total_sent()).sum();
        let total_recv: u64 = out.iter().map(|o| o.comm.recv_bytes).sum();
        prop_assert_eq!(total_sent, total_recv);
        // Each message carries `len` floats plus the framed-wire header.
        prop_assert_eq!(
            total_sent as usize,
            world * (world - 1) * (len * 4 + WIRE_HEADER_LEN)
        );
    }

    #[test]
    fn all_gather_round_trips_rank_data(world in 1usize..6, len in 0usize..20) {
        let out = Cluster::new(world, CostModel::default()).run(move |ctx| {
            ctx.all_gather_f32(&vec![ctx.rank() as f32; len])
        });
        for o in out {
            for (r, buf) in o.result.iter().enumerate() {
                prop_assert_eq!(buf.len(), len);
                prop_assert!(buf.iter().all(|&v| v == r as f32));
            }
        }
    }

    // The frame reader checksums a body in 256 KiB chunks and the writer
    // feeds `header[..28]` and then the body: both stream one checksum
    // through `update` at cut points that need not be multiples of 16.
    #[test]
    fn streamed_crc32_equals_bitwise_division(
        bytes in proptest::collection::vec(0u8..=255, 0usize..=65536),
        cuts in proptest::collection::vec(0usize..=65536, 0usize..6),
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (bytes.len() + 1)).collect();
        cuts.sort_unstable();
        cuts.push(bytes.len());
        let mut crc = Crc32::new();
        let mut at = 0;
        for cut in cuts {
            crc.update(&bytes[at..cut]);
            at = cut;
        }
        let expect = crc32_bitwise(&bytes);
        prop_assert_eq!(crc.finish(), expect);
        prop_assert_eq!(crc32(&bytes), expect);
    }
}
