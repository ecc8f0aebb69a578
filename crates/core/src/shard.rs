//! Per-worker slices of a dataset's features, labels and masks.

use std::sync::Arc;

use sar_graph::Dataset;
use sar_partition::Partitioning;
use sar_tensor::pool::{self, Output};
use sar_tensor::{Tensor, Var};

/// Worker-local slice of a [`Dataset`], in local node order (ascending
/// global id). Feature data is stored as a raw shared buffer so shards can
/// be built centrally and moved into worker threads, where each worker
/// builds its input from it as a [`Tensor`] registered with *its own*
/// memory tracker — and a rebuild recipe can share it without a copy.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Raw `[n_local × feat_dim]` features, row-major.
    pub features: Arc<[f32]>,
    /// Feature dimensionality.
    pub feat_dim: usize,
    /// Class label per local node.
    pub labels: Vec<u32>,
    /// Training mask per local node.
    pub train_mask: Vec<bool>,
    /// Validation mask per local node.
    pub val_mask: Vec<bool>,
    /// Test mask per local node.
    pub test_mask: Vec<bool>,
    /// Global ids of the local nodes.
    pub global_ids: Vec<u32>,
    /// Number of classes.
    pub num_classes: usize,
    /// Global number of training nodes (the full-batch loss normalizer).
    pub global_train_count: usize,
}

impl Shard {
    /// Builds every worker's shard from a dataset and partitioning.
    ///
    /// # Panics
    ///
    /// Panics if the partitioning does not cover the dataset.
    pub fn build_all(dataset: &Dataset, partitioning: &Partitioning) -> Vec<Shard> {
        let n = dataset.num_nodes();
        assert_eq!(partitioning.assignment().len(), n, "partitioning mismatch");
        let global_train_count = dataset.train_mask.iter().filter(|&&m| m).count();
        let d = dataset.feat_dim();
        partitioning
            .part_members()
            .into_iter()
            .map(|members| {
                let mut features = Vec::with_capacity(members.len() * d);
                let mut labels = Vec::with_capacity(members.len());
                let mut train_mask = Vec::with_capacity(members.len());
                let mut val_mask = Vec::with_capacity(members.len());
                let mut test_mask = Vec::with_capacity(members.len());
                for &g in &members {
                    let g = g as usize;
                    features.extend_from_slice(dataset.features.row(g));
                    labels.push(dataset.labels[g]);
                    train_mask.push(dataset.train_mask[g]);
                    val_mask.push(dataset.val_mask[g]);
                    test_mask.push(dataset.test_mask[g]);
                }
                Shard {
                    features: features.into(),
                    feat_dim: d,
                    labels,
                    train_mask,
                    val_mask,
                    test_mask,
                    global_ids: members,
                    num_classes: dataset.num_classes,
                    global_train_count,
                }
            })
            .collect()
    }

    /// Number of local nodes.
    pub fn num_local(&self) -> usize {
        self.labels.len()
    }

    /// The model input, registered on the calling thread: the features,
    /// followed — under label augmentation (Shi et al. 2020) — by one-hot
    /// label channels for the rows `label_mask` selects. Training feeds a
    /// random subset of the training labels each epoch; inference and
    /// serving feed all of them (`train_mask`). `None` is the
    /// un-augmented input.
    ///
    /// # Panics
    ///
    /// Panics if `label_mask` is not one entry per local node.
    pub fn input_tensor(&self, label_mask: Option<&[bool]>) -> Tensor {
        self.check_mask(label_mask);
        build_input(
            &self.features,
            self.feat_dim,
            self.num_classes,
            &self.labels,
            label_mask,
        )
    }

    /// [`input_tensor`](Shard::input_tensor) as a
    /// [rebuildable](Var::rebuildable) constant: a backward that reads it
    /// keeps a recipe sharing the features (and copies of the labels and
    /// mask), not the `[n, in_dim]` tensor, and rebuilds the same bits —
    /// recipe and `input_tensor` are one function.
    ///
    /// # Panics
    ///
    /// Panics if `label_mask` is not one entry per local node.
    pub fn input(&self, label_mask: Option<&[bool]>) -> Var {
        self.check_mask(label_mask);
        let (features, labels) = (Arc::clone(&self.features), self.labels.clone());
        let (d, c, mask) = (
            self.feat_dim,
            self.num_classes,
            label_mask.map(<[bool]>::to_vec),
        );
        Var::rebuildable(move || build_input(&features, d, c, &labels, mask.as_deref()))
    }

    fn check_mask(&self, label_mask: Option<&[bool]>) {
        if let Some(mask) = label_mask {
            assert_eq!(
                mask.len(),
                self.num_local(),
                "label mask has {} entries for {} local nodes",
                mask.len(),
                self.num_local()
            );
        }
    }
}

/// The `[n, d (+ c)]` model input of a shard's `features`, one
/// row-parallel pass: each row its `d` features, then — with a mask — `c`
/// label channels, one-hot at `labels[i]` where the mask is set.
// sar-check: deterministic(one-writer-per-row: each row is copied from its
// own features and label)
fn build_input(
    features: &[f32],
    d: usize,
    c: usize,
    labels: &[u32],
    mask: Option<&[bool]>,
) -> Tensor {
    let n = labels.len();
    let width = d + if mask.is_some() { c } else { 0 };
    let mut data = vec![0.0f32; n * width];
    pool::split_rows(
        n,
        [Output::row_owned(&mut data, width)],
        move |lo, hi, [rows]| {
            for i in lo..hi {
                let row = &mut rows[(i - lo) * width..(i - lo + 1) * width];
                row[..d].copy_from_slice(&features[i * d..(i + 1) * d]);
                if mask.is_some_and(|m| m[i]) {
                    row[d + labels[i] as usize] = 1.0;
                }
            }
        },
    );
    Tensor::from_vec(&[n, width], data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sar_graph::datasets;
    use sar_partition::random;

    #[test]
    fn shards_partition_the_dataset() {
        let d = datasets::products_like(300, 0);
        let p = random(&d.graph, 4, 1);
        let shards = Shard::build_all(&d, &p);
        assert_eq!(shards.len(), 4);
        let total: usize = shards.iter().map(Shard::num_local).sum();
        assert_eq!(total, 300);
        // Every shard agrees on the global train count.
        let t = datasets::Dataset::mask_count(&d.train_mask);
        assert!(shards.iter().all(|s| s.global_train_count == t));
    }

    #[test]
    fn shard_rows_match_dataset_rows() {
        let d = datasets::products_like(200, 2);
        let p = random(&d.graph, 3, 3);
        let shards = Shard::build_all(&d, &p);
        for s in &shards {
            let feats = s.input_tensor(None);
            for (li, &g) in s.global_ids.iter().enumerate() {
                assert_eq!(feats.row(li), d.features.row(g as usize));
                assert_eq!(s.labels[li], d.labels[g as usize]);
                assert_eq!(s.train_mask[li], d.train_mask[g as usize]);
            }
        }
    }

    #[test]
    fn the_rebuilt_input_is_input_tensor_bit_for_bit() {
        let d = datasets::products_like(300, 4);
        let p = random(&d.graph, 2, 5);
        let s = &Shard::build_all(&d, &p)[1];
        let half: Vec<bool> = (0..s.num_local())
            .map(|i| s.train_mask[i] && i % 2 == 0)
            .collect();
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for threads in [1, 2] {
            pool::set_threads(threads);
            for mask in [None, Some(&half[..]), Some(&s.train_mask[..])] {
                let want = s.input_tensor(mask);
                let x = s.input(mask);
                assert_eq!(bits(&x.value()), bits(&want));
                let rebuilt = x.save().get().into_owned();
                assert_eq!(rebuilt.shape(), want.shape());
                assert_eq!(bits(&rebuilt), bits(&want));
            }
            pool::set_threads(1);
        }
    }

    #[test]
    #[should_panic(expected = "label mask has 3 entries for")]
    fn a_label_mask_of_the_wrong_length_is_refused_up_front() {
        let d = datasets::products_like(200, 6);
        let s = &Shard::build_all(&d, &random(&d.graph, 2, 7))[0];
        s.input_tensor(Some(&[true, false, true]));
    }
}
