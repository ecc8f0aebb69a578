//! Microbenchmarks of the frame path every remote block crosses: the
//! checksum alone, a frame written into a sink, a frame read back from
//! memory, and a plain copy of the same bytes as the floor — at a barrier-
//! sized, a serving-sized and a rotation-block-sized `F32` payload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sar_comm::wire::{crc32, encode_frame, read_frame, write_frame, FrameKind};
use sar_comm::{buffer, Payload, WIRE_HEADER_LEN};
use std::hint::black_box;
use std::io::{self, IoSlice, Write};

/// A sink the optimiser cannot see through: `io::Sink` never looks at the
/// header, so the checksum written into it would be dead code.
struct Discard;

impl Write for Discard {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(black_box(buf).len())
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        Ok(black_box(bufs).iter().map(|b| b.len()).sum())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn bench_wire_frames(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    group.sample_size(9);
    // 6.4 MB is one `sage-tcp2` rotation block (25 000 rows × 64 floats).
    for payload_bytes in [64usize, 4 << 10, 6_400_000] {
        let floats: Vec<f32> = (0..payload_bytes / 4).map(|i| i as f32 * 0.37).collect();
        let payload = Payload::F32(floats);
        let frame = encode_frame(FrameKind::Data, 1, 7, &payload);
        let body = &frame[WIRE_HEADER_LEN..];
        let mut copy = vec![0u8; payload_bytes];
        // One timed sample moves about the same number of bytes at every
        // size, so the small frames are not lost in the timer's own cost.
        let reps = 6_400_000 / payload_bytes;
        group.throughput(Throughput::Bytes((reps * payload_bytes) as u64));

        group.bench_function(BenchmarkId::new("memcpy", payload_bytes), |bench| {
            bench.iter(|| {
                for _ in 0..reps {
                    copy.copy_from_slice(black_box(body));
                    black_box(&mut copy);
                }
            })
        });
        group.bench_function(BenchmarkId::new("crc32", payload_bytes), |bench| {
            bench.iter(|| {
                for _ in 0..reps {
                    black_box(crc32(black_box(body)));
                }
            })
        });
        group.bench_function(BenchmarkId::new("write_frame", payload_bytes), |bench| {
            bench.iter(|| {
                for _ in 0..reps {
                    write_frame(&mut Discard, FrameKind::Data, 1, 7, black_box(&payload))
                        .expect("the sink accepts every write");
                }
            })
        });
        group.bench_function(BenchmarkId::new("read_frame", payload_bytes), |bench| {
            bench.iter(|| {
                for _ in 0..reps {
                    let got = read_frame(&mut black_box(&frame[..])).expect("a valid frame");
                    // What the block's consumer does, so the next read
                    // reuses the buffer as it does in a rotation.
                    buffer::recycle_f32(got.payload.into_f32());
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_wire_frames);
criterion_main!(benches);
