//! Graph and dataset (de)serialization.
//!
//! Two formats:
//!
//! * **Edge-list text** — one `src dst` pair per line with a `# nodes N`
//!   header; interoperable with the usual SNAP/OGB dumps, so real graphs
//!   can be dropped into the reproduction when available.
//! * **Binary** — a compact little-endian container for [`CsrGraph`]
//!   (magic `SARG`) and [`Dataset`] (magic `SARD`), used for caching
//!   generated stand-in datasets between benchmark runs.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use sar_tensor::{le, Tensor};

use crate::{CsrGraph, Dataset};

const GRAPH_MAGIC: &[u8; 4] = b"SARG";
const DATASET_MAGIC: &[u8; 4] = b"SARD";

fn bad_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// ----------------------------------------------------------------------
// Edge-list text format
// ----------------------------------------------------------------------

/// Writes `graph` as an edge-list text file: a `# nodes N` header followed
/// by one `src dst` pair per line.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_edge_list<W: Write>(graph: &CsrGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# nodes {}", graph.num_nodes())?;
    for (s, d) in graph.iter_edges() {
        writeln!(w, "{s} {d}")?;
    }
    w.flush()
}

/// Reads an edge-list text stream produced by [`write_edge_list`] (or any
/// whitespace-separated `src dst` list; `#`-prefixed lines are comments,
/// and the node count is taken from a `# nodes N` header or inferred from
/// the maximum endpoint).
///
/// # Errors
///
/// Returns an error on malformed lines or I/O failure.
pub fn read_edge_list<R: Read>(reader: R) -> io::Result<CsrGraph> {
    let r = BufReader::new(reader);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut declared_nodes: Option<usize> = None;
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let mut it = rest.split_whitespace();
            if it.next() == Some("nodes") {
                let n = it
                    .next()
                    .ok_or_else(|| bad_data("missing node count in header"))?;
                declared_nodes = Some(n.parse().map_err(|_| bad_data("bad node count"))?);
            }
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>| -> io::Result<u32> {
            tok.ok_or_else(|| bad_data(format!("line {}: missing endpoint", lineno + 1)))?
                .parse()
                .map_err(|_| bad_data(format!("line {}: bad endpoint", lineno + 1)))
        };
        let s = parse(it.next())?;
        let d = parse(it.next())?;
        edges.push((s, d));
    }
    let n = declared_nodes.unwrap_or_else(|| {
        edges
            .iter()
            .map(|&(s, d)| s.max(d) as usize + 1)
            .max()
            .unwrap_or(0)
    });
    if edges
        .iter()
        .any(|&(s, d)| s as usize >= n || d as usize >= n)
    {
        return Err(bad_data("edge endpoint exceeds declared node count"));
    }
    Ok(CsrGraph::from_edges(n, &edges))
}

// ----------------------------------------------------------------------
// Binary graph / dataset
// ----------------------------------------------------------------------
//
// Every array is a `u64` element count followed by the elements, written
// as one slice ([`le::scalar_bytes`]) and read back through the codec's
// bounded reader ([`le::read_scalars`]): a count is what the file claims,
// so it is checked against the bytes that actually arrive (and, once
// read, against the structure it describes) and never sizes a buffer.

fn write_array<T: le::Scalar>(w: &mut impl Write, vs: &[T]) -> io::Result<()> {
    w.write_all(&(vs.len() as u64).to_le_bytes())?;
    w.write_all(le::scalar_bytes(vs))
}

fn read_array<T: le::Scalar>(r: &mut impl Read, what: &str) -> io::Result<Vec<T>> {
    let len = le::read_u64(r, what)?;
    le::read_scalars(r, len, what)
}

fn write_mask(w: &mut impl Write, mask: &[bool]) -> io::Result<()> {
    let bytes: Vec<u8> = mask.iter().map(|&b| b as u8).collect();
    write_array(w, &bytes)
}

fn read_mask(r: &mut impl Read, what: &str) -> io::Result<Vec<bool>> {
    Ok(read_array::<u8>(r, what)?
        .into_iter()
        .map(|b| b != 0)
        .collect())
}

fn expect_magic(r: &mut impl Read, magic: &[u8; 4], what: &str) -> io::Result<()> {
    let mut found = [0u8; 4];
    r.read_exact(&mut found)?;
    if &found != magic {
        return Err(bad_data(format!("not a SAR {what} file")));
    }
    Ok(())
}

/// Writes a [`CsrGraph`] in the compact binary format.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_graph<W: Write>(graph: &CsrGraph, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(GRAPH_MAGIC)?;
    w.write_all(&(graph.num_rows() as u64).to_le_bytes())?;
    w.write_all(&(graph.num_cols() as u64).to_le_bytes())?;
    let indptr: Vec<u32> = graph.indptr().iter().map(|&v| v as u32).collect();
    write_array(&mut w, &indptr)?;
    write_array(&mut w, graph.indices())?;
    w.flush()
}

/// Reads a [`CsrGraph`] written by [`write_graph`]. The arrays are
/// validated here, as data, before [`CsrGraph::from_raw`] (whose asserts
/// are for programmatic callers) sees them.
///
/// # Errors
///
/// `InvalidData` naming the field on a bad magic number or a structure
/// the arrays do not describe (row count, non-monotone `indptr`, edge
/// count, column index out of range), `UnexpectedEof` naming the field on
/// a file shorter than its length fields claim, or the I/O failure.
pub fn read_graph<R: Read>(reader: R) -> io::Result<CsrGraph> {
    let mut r = BufReader::new(reader);
    expect_magic(&mut r, GRAPH_MAGIC, "graph")?;
    let rows = le::read_u64(&mut r, "graph rows")?;
    let cols = le::read_u64(&mut r, "graph cols")?;
    let indptr: Vec<u32> = read_array(&mut r, "graph indptr")?;
    let indices: Vec<u32> = read_array(&mut r, "graph indices")?;
    if indptr.len() as u64 != rows.saturating_add(1) {
        return Err(bad_data(format!(
            "graph indptr has {} entries for {rows} rows",
            indptr.len()
        )));
    }
    if indptr[0] != 0 || indptr.windows(2).any(|w| w[0] > w[1]) {
        return Err(bad_data("graph indptr is not monotone from 0"));
    }
    if indptr[rows as usize] as usize != indices.len() {
        return Err(bad_data(format!(
            "graph indptr ends at {}, file holds {} indices",
            indptr[rows as usize],
            indices.len()
        )));
    }
    if let Some(&j) = indices.iter().find(|&&j| u64::from(j) >= cols) {
        return Err(bad_data(format!(
            "graph column index {j} out of range for {cols} cols"
        )));
    }
    let indptr = indptr.into_iter().map(|v| v as usize).collect();
    Ok(CsrGraph::from_raw(cols as usize, indptr, indices))
}

/// Writes a full [`Dataset`] (graph, features, labels, splits) in the
/// compact binary format.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn write_dataset<W: Write>(dataset: &Dataset, writer: W) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(DATASET_MAGIC)?;
    write_array(&mut w, dataset.name.as_bytes())?;
    w.write_all(&(dataset.num_classes as u64).to_le_bytes())?;
    w.write_all(&(dataset.feat_dim() as u64).to_le_bytes())?;
    write_array(&mut w, dataset.features.data())?;
    write_array(&mut w, &dataset.labels)?;
    write_mask(&mut w, &dataset.train_mask)?;
    write_mask(&mut w, &dataset.val_mask)?;
    write_mask(&mut w, &dataset.test_mask)?;
    w.flush()?;
    write_graph(&dataset.graph, writer_of(w)?)
}

fn writer_of<W: Write>(w: BufWriter<W>) -> io::Result<W> {
    w.into_inner().map_err(|e| e.into_error())
}

/// Reads a [`Dataset`] written by [`write_dataset`].
///
/// # Errors
///
/// As [`read_graph`], plus `InvalidData` on array sizes that disagree
/// with the graph's node count or a label outside `num_classes`.
pub fn read_dataset<R: Read>(reader: R) -> io::Result<Dataset> {
    let mut r = BufReader::new(reader);
    expect_magic(&mut r, DATASET_MAGIC, "dataset")?;
    let name = String::from_utf8(read_array(&mut r, "dataset name")?)
        .map_err(|_| bad_data("bad dataset name"))?;
    let num_classes = le::read_u64(&mut r, "dataset num_classes")?;
    let feat_dim = le::read_u64(&mut r, "dataset feat_dim")?;
    let features: Vec<f32> = read_array(&mut r, "dataset features")?;
    let labels: Vec<u32> = read_array(&mut r, "dataset labels")?;
    let train_mask = read_mask(&mut r, "dataset train mask")?;
    let val_mask = read_mask(&mut r, "dataset val mask")?;
    let test_mask = read_mask(&mut r, "dataset test mask")?;
    let graph = read_graph(&mut r)?;
    let n = graph.num_nodes();
    if labels.len() != n
        || train_mask.len() != n
        || val_mask.len() != n
        || test_mask.len() != n
        || (n as u64).checked_mul(feat_dim) != Some(features.len() as u64)
    {
        return Err(bad_data("dataset sizes are inconsistent"));
    }
    if let Some(&l) = labels.iter().find(|&&l| u64::from(l) >= num_classes) {
        return Err(bad_data(format!(
            "dataset label {l} out of range for {num_classes} classes"
        )));
    }
    Ok(Dataset {
        graph,
        features: Tensor::from_vec(&[n, feat_dim as usize], features),
        labels,
        train_mask,
        val_mask,
        test_mask,
        num_classes: num_classes as usize,
        name,
    })
}

/// Convenience: writes a dataset to a file path.
///
/// # Errors
///
/// Returns any underlying I/O error.
pub fn save_dataset(dataset: &Dataset, path: impl AsRef<Path>) -> io::Result<()> {
    write_dataset(dataset, std::fs::File::create(path)?)
}

/// Convenience: reads a dataset from a file path.
///
/// # Errors
///
/// Returns any underlying I/O error or format error.
pub fn load_dataset(path: impl AsRef<Path>) -> io::Result<Dataset> {
    read_dataset(std::fs::File::open(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets;

    #[test]
    fn edge_list_round_trip() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (2, 3), (4, 0), (1, 1)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(&buf[..]).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn edge_list_infers_node_count_without_header() {
        let text = b"0 1\n3 2\n";
        let g = read_edge_list(&text[..]).unwrap();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edge_list_rejects_garbage() {
        assert!(read_edge_list(&b"0 x\n"[..]).is_err());
        assert!(read_edge_list(&b"# nodes 1\n5 0\n"[..]).is_err());
    }

    #[test]
    fn binary_graph_round_trip() {
        let g = CsrGraph::from_edges_bipartite(7, 4, &[(6, 0), (2, 3), (0, 0)]);
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let back = read_graph(&buf[..]).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn binary_graph_rejects_wrong_magic() {
        let err = read_graph(&b"NOPE"[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn dataset_round_trip() {
        let d = datasets::products_like(120, 5);
        let mut buf = Vec::new();
        write_dataset(&d, &mut buf).unwrap();
        let back = read_dataset(&buf[..]).unwrap();
        assert_eq!(back.graph, d.graph);
        assert_eq!(back.labels, d.labels);
        assert_eq!(back.train_mask, d.train_mask);
        assert_eq!(back.features, d.features);
        assert_eq!(back.num_classes, d.num_classes);
        assert_eq!(back.name, d.name);
    }

    #[test]
    fn dataset_file_round_trip() {
        let d = datasets::papers_like(60, 6);
        let path = std::env::temp_dir().join("sar_io_test_dataset.bin");
        save_dataset(&d, &path).unwrap();
        let back = load_dataset(&path).unwrap();
        assert_eq!(back.labels, d.labels);
        let _ = std::fs::remove_file(&path);
    }

    // ------------------------------------------------------------------
    // Golden bytes: the formats as files written before the bulk codec
    // hold them (a dataset cached by an earlier build must still load).
    // ------------------------------------------------------------------

    fn four_node_graph() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    }

    fn four_node_dataset() -> Dataset {
        Dataset {
            graph: four_node_graph(),
            features: Tensor::from_vec(&[4, 2], vec![0.5, -1.0, 2.0, 0.0, -0.0, 3.25, 1e-3, 7.0]),
            labels: vec![0, 2, 1, 2],
            train_mask: vec![true, false, false, true],
            val_mask: vec![false, true, false, false],
            test_mask: vec![false, false, true, false],
            num_classes: 3,
            name: "four".into(),
        }
    }

    #[rustfmt::skip]
    const GOLDEN_GRAPH: [u8; 76] = [
        b'S', b'A', b'R', b'G',
        4, 0, 0, 0, 0, 0, 0, 0, // rows
        4, 0, 0, 0, 0, 0, 0, 0, // cols
        5, 0, 0, 0, 0, 0, 0, 0, // indptr: count, then u32s
        0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 0,
        5, 0, 0, 0, 0, 0, 0, 0, // indices: count, then u32s
        3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0,
    ];

    #[rustfmt::skip]
    const GOLDEN_DATASET_HEAD: [u8; 132] = [
        b'S', b'A', b'R', b'D',
        4, 0, 0, 0, 0, 0, 0, 0, b'f', b'o', b'u', b'r', // name
        3, 0, 0, 0, 0, 0, 0, 0, // num_classes
        2, 0, 0, 0, 0, 0, 0, 0, // feat_dim
        8, 0, 0, 0, 0, 0, 0, 0, // features: count, then f32s
        0x00, 0x00, 0x00, 0x3f, 0x00, 0x00, 0x80, 0xbf, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x50, 0x40, 0x6f, 0x12, 0x83, 0x3a, 0x00, 0x00, 0xe0, 0x40,
        4, 0, 0, 0, 0, 0, 0, 0, // labels: count, then u32s
        0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0,
        4, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, // train mask
        4, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, // val mask
        4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, // test mask
    ];

    fn golden_dataset() -> Vec<u8> {
        // The dataset file ends with its graph, in the graph format.
        [&GOLDEN_DATASET_HEAD[..], &GOLDEN_GRAPH[..]].concat()
    }

    #[test]
    fn golden_bytes_pin_the_graph_and_dataset_formats() {
        let mut buf = Vec::new();
        write_graph(&four_node_graph(), &mut buf).unwrap();
        assert_eq!(buf, GOLDEN_GRAPH);
        assert_eq!(read_graph(&GOLDEN_GRAPH[..]).unwrap(), four_node_graph());

        let mut buf = Vec::new();
        write_dataset(&four_node_dataset(), &mut buf).unwrap();
        assert_eq!(buf, golden_dataset());
        let (back, d) = (read_dataset(&buf[..]).unwrap(), four_node_dataset());
        assert_eq!(back.graph, d.graph);
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back.features), bits(&d.features));
        assert_eq!(
            (back.labels, back.num_classes, back.name),
            (d.labels, 3, d.name)
        );
        assert_eq!(
            (back.train_mask, back.val_mask, back.test_mask),
            (d.train_mask, d.val_mask, d.test_mask)
        );
    }

    // ------------------------------------------------------------------
    // A file is a claim: byte-patched fixtures must come back as errors
    // naming the field — no panic, no allocation sized by a length field.
    // ------------------------------------------------------------------

    /// `golden` with the little-endian `value` patched in at `offset`.
    fn patched(golden: &[u8], offset: usize, value: &[u8]) -> Vec<u8> {
        let mut bytes = golden.to_vec();
        bytes[offset..offset + value.len()].copy_from_slice(value);
        bytes
    }

    fn expect_err<T>(read: io::Result<T>, kind: io::ErrorKind, field: &str) {
        let err = read.err().expect("a malformed file must not load");
        assert_eq!(err.kind(), kind, "{err}");
        assert!(
            err.to_string().contains(field),
            "{field:?} not named in: {err}"
        );
    }

    // Offsets into GOLDEN_GRAPH.
    const INDPTR_LEN: usize = 20;
    const INDPTR: usize = 28;
    const INDICES_LEN: usize = 48;
    const INDICES: usize = 56;

    #[test]
    fn malformed_graph_files_are_errors_naming_the_field() {
        use io::ErrorKind::{InvalidData, UnexpectedEof};
        let graph = |bytes: Vec<u8>| read_graph(&bytes[..]);
        // Two indptr entries swapped: [0, 1, 4, 2, 5].
        let swapped = patched(&GOLDEN_GRAPH, INDPTR + 8, &[4, 0, 0, 0, 2, 0, 0, 0]);
        expect_err(graph(swapped), InvalidData, "indptr is not monotone");
        expect_err(
            graph(patched(&GOLDEN_GRAPH, INDPTR, &[1])),
            InvalidData,
            "indptr is not monotone from 0",
        );
        // indptr ends at 4, the file holds 5 indices.
        expect_err(
            graph(patched(&GOLDEN_GRAPH, INDPTR + 16, &[4])),
            InvalidData,
            "indptr ends at 4, file holds 5 indices",
        );
        expect_err(
            graph(patched(&GOLDEN_GRAPH, INDICES + 4, &[4])),
            InvalidData,
            "column index 4 out of range for 4 cols",
        );
        expect_err(
            graph(patched(&GOLDEN_GRAPH, 4, &[5])),
            InvalidData,
            "indptr has 5 entries for 5 rows",
        );
        // Length fields that lie, on a 38-byte file: 2^62 entries cannot
        // be addressed, 2^40 run into the end of the file.
        let short = |exp: u32| {
            let mut bytes = patched(&GOLDEN_GRAPH, INDPTR_LEN, &(1u64 << exp).to_le_bytes());
            bytes.truncate(38);
            bytes
        };
        expect_err(graph(short(62)), InvalidData, "graph indptr");
        expect_err(graph(short(40)), UnexpectedEof, "graph indptr");
        let lying_indices = patched(&GOLDEN_GRAPH, INDICES_LEN, &(1u64 << 40).to_le_bytes());
        expect_err(graph(lying_indices), UnexpectedEof, "graph indices");
        expect_err(
            graph(GOLDEN_GRAPH[..10].to_vec()),
            UnexpectedEof,
            "graph rows",
        );
    }

    #[test]
    fn a_lying_length_field_sizes_no_buffer() {
        /// Serves `data`, recording the largest buffer `read` was handed.
        struct Recording<'a>(&'a [u8], usize);
        impl Read for Recording<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1 = self.1.max(buf.len());
                self.0.read(buf)
            }
        }
        let bytes = patched(&GOLDEN_GRAPH, INDICES_LEN, &(1u64 << 40).to_le_bytes());
        let mut r = Recording(&bytes, 0);
        assert!(read_graph(&mut r).is_err());
        assert!(r.1 <= le::READ_CHUNK, "read was handed {} bytes", r.1);
    }

    #[test]
    fn malformed_dataset_files_are_errors_naming_the_field() {
        use io::ErrorKind::{InvalidData, UnexpectedEof};
        let dataset = |bytes: Vec<u8>| read_dataset(&bytes[..]);
        let golden = golden_dataset();
        // Label 1 of 4 is 2; make it 3 = num_classes.
        expect_err(
            dataset(patched(&golden, 84, &[3])),
            InvalidData,
            "label 3 out of range for 3 classes",
        );
        // Name and mask lengths past the end of the file.
        let huge = (1u64 << 40).to_le_bytes();
        expect_err(
            dataset(patched(&golden, 4, &huge)),
            UnexpectedEof,
            "dataset name",
        );
        expect_err(
            dataset(patched(&golden, 96, &huge)),
            UnexpectedEof,
            "dataset train mask",
        );
        expect_err(
            dataset(patched(&golden, 96, &u64::MAX.to_le_bytes())),
            UnexpectedEof,
            "dataset train mask",
        );
        expect_err(
            dataset(patched(&golden, 32, &huge)),
            UnexpectedEof,
            "dataset features",
        );
        // One mask a node short: every array loads, the sizes disagree.
        let mut short_mask = patched(&golden, 120, &[3]);
        short_mask.remove(131);
        expect_err(dataset(short_mask), InvalidData, "sizes are inconsistent");
    }
}
