//! Model checkpointing: save and restore the trainable parameters of a
//! [`DistModel`](crate::DistModel).
//!
//! Parameters are replicated across workers and
//! [`DistModel::params`](crate::DistModel::params) enumerates them in a
//! deterministic order, so a checkpoint taken on any worker restores the
//! whole replicated model — write from rank 0, load on every worker.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::Path;

use sar_tensor::{le, Tensor, Var};

const MAGIC: &[u8; 4] = b"SARM";

/// Raw `(shape, values)` parameter pairs in
/// [`DistModel::params`](crate::DistModel::params) order — what a
/// checkpoint file holds and a [`RunReport`](crate::RunReport) carries in
/// `final_params`.
pub type RawParams = Vec<(Vec<usize>, Vec<f32>)>;

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes the parameter list (shapes + values) to `writer`.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save_params<W: Write>(params: &[Var], writer: W) -> io::Result<()> {
    let raw: RawParams = params
        .iter()
        .map(|p| (p.shape(), p.value().data().to_vec()))
        .collect();
    save_raw_params(&raw, writer)
}

/// Writes raw parameter pairs in the same format as [`save_params`]: the
/// magic, a `u64` count, then per parameter a `u64` rank, the `u64`
/// dimensions and the values as one slice.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save_raw_params<W: Write>(params: &[(Vec<usize>, Vec<f32>)], writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    let mut head = MAGIC.to_vec();
    le::put_u64(&mut head, params.len() as u64);
    w.write_all(&head)?;
    for (shape, data) in params {
        head.clear();
        le::put_u64(&mut head, shape.len() as u64);
        shape.iter().for_each(|&d| le::put_u64(&mut head, d as u64));
        w.write_all(&head)?;
        w.write_all(le::scalar_bytes(data))?;
    }
    w.flush()
}

/// Reads what [`save_raw_params`] wrote. Every count in the file is a
/// claim: ranks, dimensions and values are read through the codec's
/// bounded reader, so a header cannot size a buffer the file does not
/// fill.
///
/// # Errors
///
/// `InvalidData` on a bad magic number or a shape that addresses no
/// buffer, `UnexpectedEof` on a file shorter than it claims — naming the
/// parameter — or the I/O failure.
pub fn read_raw_params<R: Read>(reader: R) -> io::Result<RawParams> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad_data("not a SAR model checkpoint"));
    }
    let count = le::read_u64(&mut r, "parameter count")?;
    let mut params = RawParams::new();
    for i in 0..count {
        let rank = le::read_u64(&mut r, &format!("parameter {i} rank"))?;
        let what = format!("parameter {i} shape (rank {rank})");
        let dims: Vec<u8> = le::read_scalars(&mut r, rank.saturating_mul(8), &what)?;
        let mut dims = le::Cursor::new(&dims);
        let shape = (0..rank)
            .map(|_| dims.u64().map(|d| d as usize))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| bad_data(format!("{what}: {e}")))?;
        let numel = shape
            .iter()
            .try_fold(1u64, |n, &d| n.checked_mul(d as u64))
            .ok_or_else(|| bad_data(format!("parameter {i}: shape {shape:?} overflows")))?;
        let data = le::read_scalars(&mut r, numel, &format!("parameter {i} values {shape:?}"))?;
        params.push((shape, data));
    }
    Ok(params)
}

/// Restores parameter values written by [`save_params`] into `params` —
/// all or nothing: the whole file is read and checked against the
/// parameter list before the first value is installed.
///
/// # Errors
///
/// As [`read_raw_params`], plus `InvalidData` if the checkpoint does not
/// match the parameter list (count or shapes). `params` is untouched on
/// any error.
pub fn load_params<R: Read>(params: &[Var], reader: R) -> io::Result<()> {
    let raw = read_raw_params(reader)?;
    if raw.len() != params.len() {
        return Err(bad_data(format!(
            "checkpoint has {} parameters, model has {}",
            raw.len(),
            params.len()
        )));
    }
    for (i, (p, (shape, _))) in params.iter().zip(&raw).enumerate() {
        if *shape != p.shape() {
            return Err(bad_data(format!(
                "parameter {i}: checkpoint shape {shape:?} != model shape {:?}",
                p.shape()
            )));
        }
    }
    for (p, (shape, data)) in params.iter().zip(raw) {
        p.set_value(Tensor::from_vec(&shape, data));
    }
    Ok(())
}

/// Convenience: saves parameters to a file path.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save_params_file(params: &[Var], path: impl AsRef<Path>) -> io::Result<()> {
    save_params(params, std::fs::File::create(path)?)
}

/// Convenience: loads parameters from a file path.
///
/// # Errors
///
/// Returns any underlying I/O error or format error.
pub fn load_params_file(params: &[Var], path: impl AsRef<Path>) -> io::Result<()> {
    load_params(params, std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Arch, DistModel, Mode, ModelConfig};

    fn model(seed: u64) -> DistModel {
        DistModel::new(&ModelConfig {
            arch: Arch::Gat {
                head_dim: 3,
                heads: 2,
            },
            mode: Mode::Sar,
            layers: 2,
            in_dim: 7,
            num_classes: 4,
            dropout: 0.0,
            batch_norm: true,
            seed,
        })
    }

    #[test]
    fn round_trip_restores_exact_values() {
        let a = model(1);
        let b = model(2); // different init
        let mut buf = Vec::new();
        save_params(&a.params(), &mut buf).unwrap();
        load_params(&b.params(), &buf[..]).unwrap();
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert_eq!(*pa.value(), *pb.value());
        }
    }

    #[test]
    fn rejects_wrong_magic_and_mismatched_models() {
        let a = model(1);
        assert!(load_params(&a.params(), &b"BOGUS..."[..]).is_err());
        // A model with different shapes cannot load this checkpoint.
        let mut buf = Vec::new();
        save_params(&a.params(), &mut buf).unwrap();
        let other = DistModel::new(&ModelConfig {
            arch: Arch::GraphSage { hidden: 5 },
            mode: Mode::Sar,
            layers: 2,
            in_dim: 7,
            num_classes: 4,
            dropout: 0.0,
            batch_norm: false,
            seed: 0,
        });
        assert!(load_params(&other.params(), &buf[..]).is_err());
    }

    fn raw(m: &DistModel) -> Vec<(Vec<usize>, Vec<f32>)> {
        m.params()
            .iter()
            .map(|p| (p.shape(), p.value().data().to_vec()))
            .collect()
    }

    #[test]
    fn raw_params_round_trip_is_bitwise() {
        let a = model(5);
        let mut buf = Vec::new();
        save_raw_params(&raw(&a), &mut buf).unwrap();
        let b = model(6);
        load_params(&b.params(), &buf[..]).unwrap();
        for (pa, pb) in a.params().iter().zip(b.params()) {
            let (va, vb) = (pa.value(), pb.value());
            assert_eq!(va.shape(), vb.shape());
            for (x, y) in va.data().iter().zip(vb.data()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn truncated_checkpoint_is_an_error_not_a_panic() {
        let a = model(7);
        let mut buf = Vec::new();
        save_params(&a.params(), &mut buf).unwrap();
        // Cut the stream at several depths: inside the header, inside a
        // shape, and inside a parameter's data.
        for cut in [2, 10, 40, buf.len() - 3] {
            let b = model(8);
            let err =
                load_params(&b.params(), &buf[..cut]).expect_err("truncated checkpoint must fail");
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut={cut}");
        }
    }

    #[test]
    fn bad_magic_is_named_invalid_data() {
        let a = model(9);
        let mut buf = Vec::new();
        save_params(&a.params(), &mut buf).unwrap();
        buf[0] = b'X';
        let err = load_params(&a.params(), &buf[..]).expect_err("bad magic must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("not a SAR model checkpoint"),
            "error should name the format: {err}"
        );
    }

    #[test]
    fn wrong_parameter_count_is_named_invalid_data() {
        let a = model(10);
        let mut buf = Vec::new();
        save_params(&a.params()[..3], &mut buf).unwrap();
        let err = load_params(&a.params(), &buf[..]).expect_err("count mismatch must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("checkpoint has 3 parameters"),
            "error should name both counts: {err}"
        );
    }

    #[test]
    fn file_round_trip() {
        let a = model(3);
        let path = std::env::temp_dir().join("sar_checkpoint_test.bin");
        save_params_file(&a.params(), &path).unwrap();
        let b = model(4);
        load_params_file(&b.params(), &path).unwrap();
        assert_eq!(*a.params()[0].value(), *b.params()[0].value());
        let _ = std::fs::remove_file(&path);
    }

    /// Two parameters — `[2, 2]` with a payload-carrying NaN and `[3]`
    /// with `-0.0` and a denormal — as files written before the bulk
    /// codec hold them.
    #[rustfmt::skip]
    const GOLDEN: [u8; 80] = [
        b'S', b'A', b'R', b'M',
        2, 0, 0, 0, 0, 0, 0, 0, // parameter count
        2, 0, 0, 0, 0, 0, 0, 0, // rank, then the dimensions
        2, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
        0x00, 0x00, 0x80, 0x3f, 0x00, 0x00, 0x00, 0xc0, 0x00, 0x00, 0x00, 0x3f, 0x01, 0x00, 0xc0, 0x7f,
        1, 0, 0, 0, 0, 0, 0, 0, // rank, then the dimension
        3, 0, 0, 0, 0, 0, 0, 0,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80, 0x2e, 0x04, 0x00, 0x00,
    ];

    fn golden_params() -> RawParams {
        vec![
            (
                vec![2, 2],
                vec![1.0, -2.0, 0.5, f32::from_bits(0x7fc0_0001)],
            ),
            (vec![3], vec![0.0, -0.0, 1.5e-42]),
        ]
    }

    fn bits(params: &RawParams) -> Vec<(Vec<usize>, Vec<u32>)> {
        let to_bits = |(shape, data): &(Vec<usize>, Vec<f32>)| {
            (shape.clone(), data.iter().map(|v| v.to_bits()).collect())
        };
        params.iter().map(to_bits).collect()
    }

    #[test]
    fn golden_bytes_pin_the_checkpoint_format() {
        let mut buf = Vec::new();
        save_raw_params(&golden_params(), &mut buf).unwrap();
        assert_eq!(buf, GOLDEN);
        // `read_raw_params` is the inverse, bit for bit.
        let back = read_raw_params(&GOLDEN[..]).unwrap();
        assert_eq!(bits(&back), bits(&golden_params()));
        let mut empty = Vec::new();
        save_raw_params(&[], &mut empty).unwrap();
        assert_eq!(empty, b"SARM\0\0\0\0\0\0\0\0");
        assert!(read_raw_params(&empty[..]).unwrap().is_empty());
    }

    #[test]
    fn a_checkpoint_is_a_claim_until_its_bytes_arrive() {
        use std::io::ErrorKind::{InvalidData, UnexpectedEof};
        let patched = |offset: usize, value: u64| {
            let mut bytes = GOLDEN.to_vec();
            bytes[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
            bytes
        };
        let expect = |bytes: &[u8], kind, field: &str| {
            let err = read_raw_params(bytes).expect_err("a malformed checkpoint must not load");
            assert_eq!(err.kind(), kind, "{err}");
            assert!(
                err.to_string().contains(field),
                "{field:?} not named in: {err}"
            );
            // The same failure through the model-facing entry point.
            let err = load_params(&[], bytes).expect_err("nor install");
            assert_eq!(err.kind(), kind, "{err}");
        };
        // Rank 2^61 on a 60-byte file (2^64 bytes of dimensions), and one
        // that merely runs off the end.
        expect(
            &patched(12, 1 << 61)[..60],
            UnexpectedEof,
            "parameter 0 shape (rank 2305843009213693952)",
        );
        expect(&patched(12, 1 << 40), UnexpectedEof, "parameter 0 shape");
        // A shape whose element count overflows, and one that does not
        // but addresses more floats than memory has bytes.
        expect(
            &patched(20, 1 << 63),
            InvalidData,
            "parameter 0: shape [9223372036854775808, 2] overflows",
        );
        expect(
            &patched(20, 1 << 61),
            InvalidData,
            "parameter 0 values [2305843009213693952, 2]",
        );
        // A truncated body, and a count that promises more parameters.
        expect(&GOLDEN[..75], UnexpectedEof, "parameter 1 values [3]");
        expect(&patched(4, 1 << 50), UnexpectedEof, "parameter 2 rank");
        expect(&GOLDEN[..7], UnexpectedEof, "parameter count");
    }

    #[test]
    fn a_failed_load_touches_no_parameter() {
        let a = model(11);
        let mut buf = Vec::new();
        save_params(&a.params(), &mut buf).unwrap();
        let b = model(12);
        let before = raw(&b);
        // The last parameter's values are cut short: everything before it
        // parsed, and nothing of it may be installed.
        let err = load_params(&b.params(), &buf[..buf.len() - 3]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        assert_eq!(bits(&raw(&b)), bits(&before));
        // A shape mismatch on the last parameter only.
        let mut params = raw(&a);
        let last = params.last_mut().unwrap();
        *last = (vec![last.1.len(), 1], last.1.clone());
        let mut buf = Vec::new();
        save_raw_params(&params, &mut buf).unwrap();
        let err = load_params(&b.params(), &buf[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(bits(&raw(&b)), bits(&before));
    }
}
