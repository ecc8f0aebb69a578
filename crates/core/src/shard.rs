//! Per-worker slices of a dataset's features, labels and masks.

use sar_graph::Dataset;
use sar_partition::Partitioning;
use sar_tensor::Tensor;

/// Worker-local slice of a [`Dataset`], in local node order (ascending
/// global id). Feature data is stored as a raw buffer so shards can be
/// built centrally and moved into worker threads, where each worker wraps
/// it in a [`Tensor`] registered with *its own* memory tracker.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Raw `[n_local × feat_dim]` features, row-major.
    pub features: Vec<f32>,
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
                    features,
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

    /// The features as a tensor registered on the calling thread.
    pub fn features_tensor(&self) -> Tensor {
        Tensor::from_vec(&[self.num_local(), self.feat_dim], self.features.clone())
    }

    /// The model input: the features, followed — under label augmentation
    /// (Shi et al. 2020) — by one-hot label channels for the rows
    /// `label_mask` selects. Training feeds a random subset of the
    /// training labels each epoch; inference and serving feed all of them
    /// (`train_mask`). `None` is the un-augmented input.
    pub fn input_tensor(&self, label_mask: Option<&[bool]>) -> Tensor {
        let Some(mask) = label_mask else {
            return self.features_tensor();
        };
        let (d, c) = (self.feat_dim, self.num_classes);
        let mut data = Vec::with_capacity(self.num_local() * (d + c));
        for (i, &m) in mask.iter().enumerate() {
            data.extend_from_slice(&self.features[i * d..(i + 1) * d]);
            let one_hot = data.len();
            data.resize(one_hot + c, 0.0);
            if m {
                data[one_hot + self.labels[i] as usize] = 1.0;
            }
        }
        Tensor::from_vec(&[self.num_local(), d + c], data)
    }
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
            let feats = s.features_tensor();
            for (li, &g) in s.global_ids.iter().enumerate() {
                assert_eq!(feats.row(li), d.features.row(g as usize));
                assert_eq!(s.labels[li], d.labels[g as usize]);
                assert_eq!(s.train_mask[li], d.train_mask[g as usize]);
            }
        }
    }
}
