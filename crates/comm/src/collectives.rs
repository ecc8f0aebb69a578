//! Collective operations over the simulated cluster.
//!
//! All collectives are SPMD: every worker must call the same collectives
//! in the same order (tags are allocated from a per-worker sequence
//! counter that must stay in lockstep). This mirrors torch.distributed's
//! contract.

use crate::ctx::WorkerCtx;
use crate::message::Payload;

impl WorkerCtx {
    /// Sum-all-reduce of an `f32` buffer in place, using a bandwidth-optimal
    /// ring (reduce-scatter followed by all-gather), the same algorithm
    /// family OneCCL uses for large tensors.
    ///
    /// After the call every worker holds the elementwise sum across all
    /// workers.
    ///
    /// # Panics
    ///
    /// Panics if buffers have different lengths on different workers (the
    /// ring exchanges then misalign and panic on shape checks).
    pub fn all_reduce_sum(&self, data: &mut [f32]) {
        let n = self.world_size();
        if n == 1 {
            return;
        }
        let tag = self.next_coll_tag();
        let len = data.len();
        let right = (self.rank() + 1) % n;
        let left = (self.rank() + n - 1) % n;
        let chunk = |c: usize| -> std::ops::Range<usize> {
            let c = c % n;
            (c * len / n)..((c + 1) * len / n)
        };

        // Reduce-scatter: after n-1 steps, chunk (rank+1)%n is complete here.
        for step in 0..n - 1 {
            let send_c = chunk(self.rank() + n - step);
            self.send(right, tag, Payload::F32(data[send_c].to_vec()));
            let recv_c = chunk(self.rank() + n - step - 1);
            let incoming = self.recv(left, tag).into_f32();
            if incoming.len() != recv_c.len() {
                panic!(
                    "worker {}: ring chunk misalignment from rank {left}: got {} f32s, \
                     expected {} (peers passed different buffer lengths?)",
                    self.rank(),
                    incoming.len(),
                    recv_c.len()
                );
            }
            for (d, v) in data[recv_c].iter_mut().zip(incoming) {
                *d += v;
            }
        }
        // All-gather: circulate completed chunks.
        for step in 0..n - 1 {
            let send_c = chunk(self.rank() + 1 + n - step);
            self.send(right, tag + (1 << 32), Payload::F32(data[send_c].to_vec()));
            let recv_c = chunk(self.rank() + n - step);
            let incoming = self.recv(left, tag + (1 << 32)).into_f32();
            if incoming.len() != recv_c.len() {
                panic!(
                    "worker {}: ring chunk misalignment from rank {left}: got {} f32s, \
                     expected {} (peers passed different buffer lengths?)",
                    self.rank(),
                    incoming.len(),
                    recv_c.len()
                );
            }
            data[recv_c].copy_from_slice(&incoming);
        }
    }

    /// Sum-all-reduce of one scalar.
    pub fn all_reduce_sum_scalar(&self, x: f32) -> f32 {
        let mut buf = [x];
        self.all_reduce_sum(&mut buf);
        buf[0]
    }

    /// Gathers each worker's buffer to every worker. Buffers may have
    /// different lengths; the result is indexed by rank.
    pub fn all_gather_f32(&self, data: &[f32]) -> Vec<Vec<f32>> {
        let n = self.world_size();
        let tag = self.next_coll_tag();
        for dst in 0..n {
            if dst != self.rank() {
                self.send(dst, tag, Payload::F32(data.to_vec()));
            }
        }
        (0..n)
            .map(|src| {
                if src == self.rank() {
                    data.to_vec()
                } else {
                    self.recv(src, tag).into_f32()
                }
            })
            .collect()
    }

    /// Broadcasts `root`'s buffer to all workers (overwriting theirs).
    ///
    /// # Panics
    ///
    /// Panics if buffer lengths differ between root and receivers.
    pub fn broadcast_f32(&self, root: usize, data: &mut [f32]) {
        let n = self.world_size();
        if n == 1 {
            return;
        }
        let tag = self.next_coll_tag();
        if self.rank() == root {
            for dst in 0..n {
                if dst != root {
                    self.send(dst, tag, Payload::F32(data.to_vec()));
                }
            }
        } else {
            let incoming = self.recv(root, tag).into_f32();
            if incoming.len() != data.len() {
                panic!(
                    "worker {}: broadcast from root {root} carried {} f32s, \
                     expected {}",
                    self.rank(),
                    incoming.len(),
                    data.len()
                );
            }
            data.copy_from_slice(&incoming);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Cluster, CostModel};

    #[test]
    fn all_reduce_sum_vectors() {
        for n in [1, 2, 3, 4, 7] {
            let out = Cluster::new(n, CostModel::default()).run(move |ctx| {
                let mut data: Vec<f32> = (0..10).map(|i| (ctx.rank() * 10 + i) as f32).collect();
                ctx.all_reduce_sum(&mut data);
                data
            });
            // Expected: elementwise sum over ranks.
            let expect: Vec<f32> = (0..10)
                .map(|i| (0..n).map(|r| (r * 10 + i) as f32).sum())
                .collect();
            for o in out {
                assert_eq!(o.result, expect, "world size {n}");
            }
        }
    }

    #[test]
    fn all_reduce_handles_short_buffers() {
        // len < world: some ring chunks are empty.
        let out = Cluster::new(5, CostModel::default()).run(|ctx| {
            let mut data = vec![ctx.rank() as f32 + 1.0];
            ctx.all_reduce_sum(&mut data);
            data[0]
        });
        for o in out {
            assert_eq!(o.result, 15.0);
        }
    }

    #[test]
    fn all_gather_collects_by_rank() {
        let out = Cluster::new(3, CostModel::default())
            .run(|ctx| ctx.all_gather_f32(&vec![ctx.rank() as f32; ctx.rank() + 1]));
        for o in out {
            assert_eq!(o.result[0], vec![0.0]);
            assert_eq!(o.result[1], vec![1.0, 1.0]);
            assert_eq!(o.result[2], vec![2.0, 2.0, 2.0]);
        }
    }

    #[test]
    fn broadcast_overwrites() {
        let out = Cluster::new(4, CostModel::default()).run(|ctx| {
            let mut data = vec![ctx.rank() as f32; 3];
            ctx.broadcast_f32(2, &mut data);
            data
        });
        for o in out {
            assert_eq!(o.result, vec![2.0, 2.0, 2.0]);
        }
    }

    #[test]
    fn collectives_interleave_with_p2p() {
        use crate::Payload;
        let out = Cluster::new(2, CostModel::default()).run(|ctx| {
            // Fire a p2p message first, run a collective, then receive —
            // the tag matcher must keep them apart.
            let peer = 1 - ctx.rank();
            ctx.send(peer, 7, Payload::F32(vec![ctx.rank() as f32]));
            let s = ctx.all_reduce_sum_scalar(1.0);
            let p = ctx.recv(peer, 7).into_f32();
            (s, p[0])
        });
        assert_eq!(out[0].result, (2.0, 1.0));
        assert_eq!(out[1].result, (2.0, 0.0));
    }
}
