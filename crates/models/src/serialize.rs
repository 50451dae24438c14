//! Binary model serialization.
//!
//! The PoE framework is, in the paper's own framing, a *database* of
//! knowledge components: a library plus a pool of experts persisted on
//! disk and loaded at query time. This module defines the storage format
//! (versioned, self-describing, little-endian), the byte accounting used
//! for the storage-volume experiment (Table 4), and the crash-safety
//! machinery: every file is written atomically ([`atomic_write`]: temp
//! file + fsync + rename, so a crash mid-save leaves the previous version
//! intact), and v2 files carry a CRC32 footer that detects truncation and
//! bit flips at load time ([`SerializeError::Corrupt`]) instead of
//! loading garbage weights.
//!
//! Layout (version 2; version-1 files — identical but without the footer
//! — still load):
//!
//! ```text
//! magic   b"POEM"
//! version u32 = 2
//! count   u32                          number of named tensors
//! repeat count times:
//!   name_len u32, name utf-8 bytes
//!   rank u32, dims u32 × rank
//!   data f32-LE × numel
//! footer  b"POEC", crc32 u32           IEEE CRC32 of all preceding bytes
//! ```
//!
//! Version 3 adds a per-tensor `dtype u32` between the dims and the data,
//! so expert heads can persist int8 row-wise quantized weights (~4×
//! smaller) while biases stay `f32`:
//!
//! ```text
//! dtype 0 (f32):          data f32-LE × numel
//! dtype 1 (int8 rowwise): scales f32-LE × rows, mins f32-LE × rows,
//!                         data i8 × rows·cols          (rank-2 only)
//! ```
//!
//! v3 files load two ways: [`deserialize_into`] dequantizes on load
//! (any reader gets dense weights back, within the quantization error
//! bound), while [`load_module_quantized`] keeps the int8 payload as a
//! [`QuantizedModule`] for dequantize-on-assemble serving.
//!
//! Version 4 is the *segment* format: many expert payloads in one file
//! behind an offset index, so a single expert loads with one positioned
//! read instead of the whole catalog loading at startup:
//!
//! ```text
//! magic     b"POEM"
//! version   u32 = 4
//! count     u32                         number of index entries
//! repeat count times (ascending task order, 20 bytes each):
//!   task u32, version u32, offset u64, len u32
//! index_crc u32                         IEEE CRC32 of all preceding bytes
//! payloads                              count complete v1/v2/v3 streams,
//!                                       back to back, at their offsets
//! ```
//!
//! The index checksum covers only the header+index prefix, so
//! [`open_segment`] validates it without touching payload bytes;
//! each payload is a self-checking v2/v3 stream, so per-expert corruption
//! is detected at load time without failing the rest of the segment. The
//! byte-level spec (with a worked hexdump) lives in `docs/FORMATS.md`.

use crate::quant::QuantizedModule;
use crate::wire::{WireBuf, WireRead};
use poe_nn::Module;
use poe_tensor::quant::QuantizedMatrix;
use poe_tensor::Tensor;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::Path;

const MAGIC: &[u8; 4] = b"POEM";
const VERSION: u32 = 2;
/// Format version that introduces per-tensor dtypes (int8 payloads).
const VERSION_QUANT: u32 = 3;
/// Format version of the offset-indexed multi-expert segment file.
const VERSION_SEGMENT: u32 = 4;
/// Bytes per v4 index entry: task u32 + version u32 + offset u64 + len u32.
const SEGMENT_ENTRY_BYTES: u64 = 20;
const FOOTER_MAGIC: &[u8; 4] = b"POEC";
/// Bytes of the v2 integrity footer: footer magic + CRC32.
const FOOTER_BYTES: u64 = 8;
/// Per-tensor dtype tags (v3+).
const DTYPE_F32: u32 = 0;
const DTYPE_INT8_ROWWISE: u32 = 1;

/// Errors from (de)serializing model files.
#[derive(Debug)]
pub enum SerializeError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// Malformed or truncated byte stream.
    Format(String),
    /// The stream disagrees with the target module (name/shape/count).
    Mismatch(String),
    /// The checksum footer disagrees with the content: the file was
    /// truncated or bit-flipped after it was written. Never load such a
    /// file as weights.
    Corrupt(String),
}

impl fmt::Display for SerializeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SerializeError::Io(e) => write!(f, "i/o error: {e}"),
            SerializeError::Format(m) => write!(f, "bad model file: {m}"),
            SerializeError::Mismatch(m) => write!(f, "model mismatch: {m}"),
            SerializeError::Corrupt(m) => write!(f, "corrupt model file: {m}"),
        }
    }
}

impl std::error::Error for SerializeError {}

impl From<std::io::Error> for SerializeError {
    fn from(e: std::io::Error) -> Self {
        SerializeError::Io(e)
    }
}

/// IEEE CRC32 (the zlib/PNG polynomial), slicing-by-8 over tables
/// computed at compile time — the integrity check behind the v2 footer.
/// `TABLES[0]` is the classic byte-at-a-time table; `TABLES[k]` advances
/// a byte through `k` further zero bytes, so eight input bytes fold into
/// the CRC with eight independent lookups.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = {
        let mut tables = [[0u32; 256]; 8];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            tables[0][i] = c;
            i += 1;
        }
        let mut t = 1;
        while t < 8 {
            let mut i = 0;
            while i < 256 {
                let prev = tables[t - 1][i];
                tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
                i += 1;
            }
            t += 1;
        }
        tables
    };
    let t = &TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut blocks = bytes.chunks_exact(8);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in blocks.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Serializes every parameter of a module, in visit order, with the v2
/// integrity footer.
pub fn serialize_module(module: &dyn Module) -> Vec<u8> {
    let mut buf = WireBuf::with_capacity(module_byte_size(module) as usize);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION);
    let mut count = 0u32;
    module.visit_params_ref(&mut |_| count += 1);
    buf.put_u32_le(count);
    module.visit_params_ref(&mut |p| {
        buf.put_u32_le(p.name.len() as u32);
        buf.put_slice(p.name.as_bytes());
        let dims = p.value.dims();
        buf.put_u32_le(dims.len() as u32);
        for &d in dims {
            buf.put_u32_le(d as u32);
        }
        for &v in p.value.data() {
            buf.put_f32_le(v);
        }
    });
    let mut bytes = buf.into_vec();
    let crc = crc32(&bytes);
    bytes.extend_from_slice(FOOTER_MAGIC);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// Exact on-disk size, in bytes, of [`serialize_module`]'s output.
pub fn module_byte_size(module: &dyn Module) -> u64 {
    let mut size = 4 + 4 + 4u64; // magic + version + count
    module.visit_params_ref(&mut |p| {
        size += 4 + p.name.len() as u64; // name
        size += 4 + 4 * p.value.dims().len() as u64; // rank + dims
        size += 4 * p.value.numel() as u64; // data
    });
    size + FOOTER_BYTES
}

/// Restores parameter values from `data` into an identically-structured
/// module (same parameter names, shapes, and visit order). Accepts
/// version-2 streams (checksum verified before any weight is touched),
/// legacy version-1 streams (no footer), and version-3 streams — whose
/// int8 tensors are dequantized on load, so every reader sees dense
/// weights regardless of how the file stores them.
pub fn deserialize_into(module: &mut dyn Module, data: &[u8]) -> Result<(), SerializeError> {
    deserialize_impl(module, data, None).map(|_| ())
}

/// Shared parser behind [`deserialize_into`] and
/// [`load_module_quantized`]. When `collect` is `Some`, int8 records are
/// kept as [`QuantizedMatrix`] entries and the matching module parameters
/// become shared zero placeholders (the dense weights are never
/// materialized); when `None`, int8 records dequantize into the module.
/// Returns the stream's format version.
fn deserialize_impl(
    module: &mut dyn Module,
    data: &[u8],
    mut collect: Option<&mut Vec<(String, QuantizedMatrix)>>,
) -> Result<u32, SerializeError> {
    let mut buf = data;
    if buf.remaining() < 12 {
        return Err(SerializeError::Format("truncated header".into()));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(SerializeError::Format("bad magic".into()));
    }
    let version = buf.get_u32_le();
    match version {
        1 => {}
        2 | 3 => {
            // Verify the integrity footer over the whole stream before
            // believing a single byte of tensor data.
            if data.len() < 12 + FOOTER_BYTES as usize {
                return Err(SerializeError::Corrupt(
                    "file too short for its checksum footer (truncated)".into(),
                ));
            }
            let (payload, footer) = data.split_at(data.len() - FOOTER_BYTES as usize);
            if &footer[..4] != FOOTER_MAGIC {
                return Err(SerializeError::Corrupt(
                    "checksum footer missing (file truncated mid-write)".into(),
                ));
            }
            let stored = u32::from_le_bytes(footer[4..8].try_into().unwrap());
            let actual = crc32(payload);
            if stored != actual {
                return Err(SerializeError::Corrupt(format!(
                    "checksum mismatch: footer {stored:#010x}, content {actual:#010x}"
                )));
            }
            // Re-point the parser at the payload just past magic+version
            // (the tensor count comes next), now that it is trustworthy.
            buf = &payload[8..];
        }
        other => {
            return Err(SerializeError::Format(format!(
                "unsupported version {other}"
            )));
        }
    }
    let count = buf.get_u32_le();

    let mut expected = 0u32;
    module.visit_params_ref(&mut |_| expected += 1);
    if count != expected {
        return Err(SerializeError::Mismatch(format!(
            "file has {count} tensors, module has {expected}"
        )));
    }

    let mut error: Option<SerializeError> = None;
    let mut placeholders: BTreeMap<Vec<usize>, Tensor> = BTreeMap::new();
    module.visit_params(&mut |p| {
        if error.is_some() {
            return;
        }
        let r = (|| -> Result<(), SerializeError> {
            if buf.remaining() < 4 {
                return Err(SerializeError::Format("truncated name length".into()));
            }
            let name_len = buf.get_u32_le() as usize;
            if buf.remaining() < name_len {
                return Err(SerializeError::Format("truncated name".into()));
            }
            let mut name = vec![0u8; name_len];
            buf.copy_to_slice(&mut name);
            let name = String::from_utf8(name)
                .map_err(|_| SerializeError::Format("non-utf8 name".into()))?;
            if name != p.name {
                return Err(SerializeError::Mismatch(format!(
                    "expected parameter `{}`, file has `{name}`",
                    p.name
                )));
            }
            if buf.remaining() < 4 {
                return Err(SerializeError::Format("truncated rank".into()));
            }
            let rank = buf.get_u32_le() as usize;
            if buf.remaining() < 4 * rank {
                return Err(SerializeError::Format("truncated dims".into()));
            }
            let dims: Vec<usize> = (0..rank).map(|_| buf.get_u32_le() as usize).collect();
            if dims != p.value.dims() {
                return Err(SerializeError::Mismatch(format!(
                    "parameter `{name}` has shape {:?} in file, {:?} in module",
                    dims,
                    p.value.dims()
                )));
            }
            let dtype = if version >= VERSION_QUANT {
                if buf.remaining() < 4 {
                    return Err(SerializeError::Format("truncated dtype".into()));
                }
                buf.get_u32_le()
            } else {
                DTYPE_F32
            };
            let numel: usize = dims.iter().product();
            match dtype {
                DTYPE_F32 => {
                    if buf.remaining() < 4 * numel {
                        return Err(SerializeError::Format("truncated tensor data".into()));
                    }
                    // Decode into a fresh buffer rather than through the
                    // parameter's copy-on-write handle: a skeleton cloned
                    // from a shared template is never copied just to be
                    // overwritten.
                    p.value = Tensor::from_vec(take_f32s(&mut buf, numel), dims);
                }
                DTYPE_INT8_ROWWISE => {
                    if rank != 2 {
                        return Err(SerializeError::Format(format!(
                            "int8 tensor `{name}` has rank {rank}, expected 2"
                        )));
                    }
                    let (rows, cols) = (dims[0], dims[1]);
                    if buf.remaining() < 8 * rows + numel {
                        return Err(SerializeError::Format("truncated int8 tensor".into()));
                    }
                    let scales = take_f32s(&mut buf, rows);
                    let mins = take_f32s(&mut buf, rows);
                    let (raw, rest) = buf.split_at(numel);
                    buf = rest;
                    let q = QuantizedMatrix::from_parts(
                        rows,
                        cols,
                        scales,
                        mins,
                        raw.iter().map(|&b| b as i8).collect(),
                    );
                    match collect.as_deref_mut() {
                        Some(entries) => {
                            // Quantized serving path: keep the int8
                            // payload; the dense parameter becomes a
                            // shared zero placeholder so the f32 buffer
                            // is never allocated per expert.
                            entries.push((name, q));
                            p.value = placeholders
                                .entry(dims.clone())
                                .or_insert_with(|| Tensor::zeros(dims))
                                .clone();
                        }
                        None => q.dequantize_into(p.value.data_mut()),
                    }
                }
                other => {
                    return Err(SerializeError::Format(format!(
                        "unknown dtype {other} for tensor `{name}`"
                    )));
                }
            }
            Ok(())
        })();
        if let Err(e) = r {
            error = Some(e);
        }
    });
    match error {
        Some(e) => Err(e),
        None => Ok(version),
    }
}

/// Splits `n` little-endian `f32`s off the front of `buf` in one bulk
/// pass. The caller has checked that `buf` holds `4 * n` bytes.
fn take_f32s(buf: &mut &[u8], n: usize) -> Vec<f32> {
    let (head, rest) = buf.split_at(4 * n);
    *buf = rest;
    head.chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect()
}

/// Writes `bytes` to `path` atomically: the content goes to a temp file
/// in the same directory, is fsynced, and is renamed over `path` (the
/// directory is then fsynced best-effort). A crash — or an injected
/// [`poe_chaos`] fault — at any point leaves either the complete new file
/// or the untouched previous one, never a torn mix.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    if let Some(e) = poe_chaos::fail_io(poe_chaos::sites::STORE_WRITE_IO) {
        return Err(e);
    }
    let mut file = fs::File::create(&tmp)?;
    if let Some(n) = poe_chaos::partial_write(poe_chaos::sites::STORE_WRITE_PARTIAL, bytes.len()) {
        // Simulated crash mid-write: a torn temp file exists, the real
        // path was never touched.
        file.write_all(&bytes[..n])?;
        let _ = file.sync_all();
        return Err(std::io::Error::other(
            "chaos: simulated crash after partial write",
        ));
    }
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    fs::rename(&tmp, path)?;
    // Persist the rename itself. Failure to fsync the directory does not
    // un-write the file, so this is best-effort.
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Ok(d) = fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Writes a module to disk atomically, returning the byte count. A crash
/// during the save leaves any previously saved file intact.
pub fn save_module(path: impl AsRef<Path>, module: &dyn Module) -> Result<u64, SerializeError> {
    let bytes = serialize_module(module);
    atomic_write(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Loads a module file from disk into an identically-structured module.
pub fn load_module(path: impl AsRef<Path>, module: &mut dyn Module) -> Result<(), SerializeError> {
    if let Some(e) = poe_chaos::fail_io(poe_chaos::sites::STORE_READ_IO) {
        return Err(SerializeError::Io(e));
    }
    let data = fs::read(path)?;
    deserialize_into(module, &data)
}

/// Serializes a module in the version-3 tagged format: rank-2 parameters
/// present in `q` are stored as int8 row-wise records, everything else as
/// `f32`. Same CRC32 footer as version 2.
///
/// # Panics
/// Panics if a quantized entry's shape disagrees with the module — `q`
/// must have been built from this module (or a clone of it) with
/// [`QuantizedModule::from_module`].
pub fn serialize_module_quantized(module: &dyn Module, q: &QuantizedModule) -> Vec<u8> {
    let mut buf = WireBuf::with_capacity(module_byte_size_quantized(module, q) as usize);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION_QUANT);
    let mut count = 0u32;
    module.visit_params_ref(&mut |_| count += 1);
    buf.put_u32_le(count);
    module.visit_params_ref(&mut |p| {
        buf.put_u32_le(p.name.len() as u32);
        buf.put_slice(p.name.as_bytes());
        let dims = p.value.dims();
        buf.put_u32_le(dims.len() as u32);
        for &d in dims {
            buf.put_u32_le(d as u32);
        }
        let quantized = (dims.len() == 2).then(|| q.get(&p.name)).flatten();
        match quantized {
            Some(qm) => {
                assert_eq!(
                    dims,
                    [qm.rows(), qm.cols()],
                    "quantized entry `{}` does not match the module",
                    p.name
                );
                buf.put_u32_le(DTYPE_INT8_ROWWISE);
                for &s in qm.scales() {
                    buf.put_f32_le(s);
                }
                for &m in qm.mins() {
                    buf.put_f32_le(m);
                }
                let bytes: Vec<u8> = qm.data().iter().map(|&b| b as u8).collect();
                buf.put_slice(&bytes);
            }
            None => {
                buf.put_u32_le(DTYPE_F32);
                for &v in p.value.data() {
                    buf.put_f32_le(v);
                }
            }
        }
    });
    let mut bytes = buf.into_vec();
    let crc = crc32(&bytes);
    bytes.extend_from_slice(FOOTER_MAGIC);
    bytes.extend_from_slice(&crc.to_le_bytes());
    bytes
}

/// Exact on-disk size, in bytes, of [`serialize_module_quantized`]'s
/// output — the number Table 4's storage-volume accounting reports for
/// quantized experts.
pub fn module_byte_size_quantized(module: &dyn Module, q: &QuantizedModule) -> u64 {
    let mut size = 4 + 4 + 4u64; // magic + version + count
    module.visit_params_ref(&mut |p| {
        size += 4 + p.name.len() as u64; // name
        size += 4 + 4 * p.value.dims().len() as u64; // rank + dims
        size += 4; // dtype
        let dims = p.value.dims();
        match (dims.len() == 2).then(|| q.get(&p.name)).flatten() {
            Some(qm) => size += qm.byte_size(),
            None => size += 4 * p.value.numel() as u64,
        }
    });
    size + FOOTER_BYTES
}

/// Writes a module to disk in the version-3 quantized format, atomically,
/// returning the byte count.
pub fn save_module_quantized(
    path: impl AsRef<Path>,
    module: &dyn Module,
    q: &QuantizedModule,
) -> Result<u64, SerializeError> {
    let bytes = serialize_module_quantized(module, q);
    atomic_write(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Loads a module file, preserving any int8 payload. For a version-3
/// file this returns `Some(QuantizedModule)` and leaves the module's
/// quantized weight parameters as shared zero placeholders (dequantize
/// later with [`QuantizedModule::restore_into`], at assemble time); `f32`
/// records — biases — load normally. For version-1/2 files it behaves
/// exactly like [`load_module`] and returns `None`.
pub fn load_module_quantized(
    path: impl AsRef<Path>,
    module: &mut dyn Module,
) -> Result<Option<QuantizedModule>, SerializeError> {
    if let Some(e) = poe_chaos::fail_io(poe_chaos::sites::STORE_READ_IO) {
        return Err(SerializeError::Io(e));
    }
    let data = fs::read(path)?;
    deserialize_module_quantized(module, &data)
}

/// In-memory counterpart of [`load_module_quantized`]: parses an already
/// read byte stream, preserving any int8 payload as a
/// [`QuantizedModule`]. This is the entry point the segment store uses
/// after [`read_segment_payload`] has pulled one expert's bytes out of a
/// v4 file.
pub fn deserialize_module_quantized(
    module: &mut dyn Module,
    data: &[u8],
) -> Result<Option<QuantizedModule>, SerializeError> {
    let mut entries = Vec::new();
    let version = deserialize_impl(module, data, Some(&mut entries))?;
    if version >= VERSION_QUANT && !entries.is_empty() {
        Ok(Some(QuantizedModule::from_entries(entries)))
    } else {
        Ok(None)
    }
}

/// One row of a POEM v4 segment index: where task `task`'s payload (a
/// complete v1/v2/v3 stream, `len` bytes at absolute file offset
/// `offset`) lives, and which expert `version` it carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Primitive-task id the payload belongs to.
    pub task: u32,
    /// Expert version stored for that task (bumped on every reinstall).
    pub version: u32,
    /// Absolute byte offset of the payload from the start of the file.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
}

/// Exact byte size of a v4 segment's header + index + index checksum for
/// `count` entries — also the offset at which the first payload starts.
pub fn segment_header_bytes(count: usize) -> u64 {
    4 + 4 + 4 + SEGMENT_ENTRY_BYTES * count as u64 + 4
}

/// Encodes a POEM v4 segment from `(task, version, payload)` triples.
/// Payloads must be complete v1/v2/v3 streams (each keeps its own
/// integrity footer) and entries must arrive in strictly ascending task
/// order — [`decode_segment_index`] rejects anything else.
///
/// # Panics
/// Panics if tasks are not strictly ascending.
pub fn encode_segment(entries: &[(u32, u32, Vec<u8>)]) -> Vec<u8> {
    for pair in entries.windows(2) {
        assert!(
            pair[0].0 < pair[1].0,
            "segment entries must be in strictly ascending task order"
        );
    }
    let header = segment_header_bytes(entries.len());
    let total: u64 = header + entries.iter().map(|(_, _, p)| p.len() as u64).sum::<u64>();
    let mut buf = WireBuf::with_capacity(total as usize);
    buf.put_slice(MAGIC);
    buf.put_u32_le(VERSION_SEGMENT);
    buf.put_u32_le(entries.len() as u32);
    let mut offset = header;
    for (task, version, payload) in entries {
        buf.put_u32_le(*task);
        buf.put_u32_le(*version);
        buf.put_slice(&offset.to_le_bytes());
        buf.put_u32_le(payload.len() as u32);
        offset += payload.len() as u64;
    }
    let mut bytes = buf.into_vec();
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_le_bytes());
    for (_, _, payload) in entries {
        bytes.extend_from_slice(payload);
    }
    bytes
}

/// Decodes and validates a v4 segment index. Only the header + index
/// prefix of the file is needed — `data` may be the whole segment or just
/// its first [`segment_header_bytes`] bytes. The index CRC is verified
/// before any offset is believed; payload integrity is checked separately
/// when each payload's own v2/v3 stream is parsed.
pub fn decode_segment_index(data: &[u8]) -> Result<Vec<SegmentEntry>, SerializeError> {
    let mut buf = data;
    if buf.remaining() < 12 {
        return Err(SerializeError::Corrupt("truncated segment header".into()));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(SerializeError::Format("bad segment magic".into()));
    }
    let version = buf.get_u32_le();
    if version != VERSION_SEGMENT {
        return Err(SerializeError::Format(format!(
            "not a segment file: version {version}, expected {VERSION_SEGMENT}"
        )));
    }
    let count = buf.get_u32_le() as usize;
    let header = segment_header_bytes(count) as usize;
    if data.len() < header {
        return Err(SerializeError::Corrupt(format!(
            "truncated segment index: {} bytes, {header} needed for {count} entries",
            data.len()
        )));
    }
    let stored = u32::from_le_bytes(data[header - 4..header].try_into().unwrap());
    let actual = crc32(&data[..header - 4]);
    if stored != actual {
        return Err(SerializeError::Corrupt(format!(
            "segment index checksum mismatch: stored {stored:#010x}, content {actual:#010x}"
        )));
    }
    let mut entries = Vec::with_capacity(count);
    let mut last_task: Option<u32> = None;
    let mut last_end = header as u64;
    for _ in 0..count {
        let task = buf.get_u32_le();
        let version = buf.get_u32_le();
        let mut off = [0u8; 8];
        buf.copy_to_slice(&mut off);
        let offset = u64::from_le_bytes(off);
        let len = buf.get_u32_le();
        if last_task.is_some_and(|t| task <= t) {
            return Err(SerializeError::Corrupt(format!(
                "segment index tasks not strictly ascending at task {task}"
            )));
        }
        if offset < last_end {
            return Err(SerializeError::Corrupt(format!(
                "segment payload for task {task} overlaps the preceding bytes"
            )));
        }
        last_task = Some(task);
        last_end = offset + len as u64;
        entries.push(SegmentEntry {
            task,
            version,
            offset,
            len,
        });
    }
    Ok(entries)
}

/// Opens a v4 segment file and reads and validates its index, touching
/// only the header + index bytes — the whole point of the format is that
/// this is O(index), not O(catalog), so a 2000-expert pool opens in well
/// under a millisecond of I/O. The index is read through the returned
/// handle, so it describes exactly the file that handle reads payloads
/// from, even if the path is atomically replaced afterwards.
pub fn open_segment(
    path: impl AsRef<Path>,
) -> Result<(fs::File, Vec<SegmentEntry>), SerializeError> {
    if let Some(e) = poe_chaos::fail_io(poe_chaos::sites::STORE_READ_IO) {
        return Err(SerializeError::Io(e));
    }
    let file = fs::File::open(path)?;
    let mut head = [0u8; 12];
    read_exact_at_or_corrupt(&file, &mut head, 0, "truncated segment header")?;
    // Parse count from the fixed header without trusting it yet; the CRC
    // check in decode_segment_index covers everything read here.
    if &head[..4] != MAGIC {
        return Err(SerializeError::Format("bad segment magic".into()));
    }
    let count = u32::from_le_bytes(head[8..12].try_into().unwrap()) as usize;
    let rest = segment_header_bytes(count) as usize - 12;
    let mut prefix = head.to_vec();
    prefix.resize(12 + rest, 0);
    read_exact_at_or_corrupt(&file, &mut prefix[12..], 12, "truncated segment index")?;
    let index = decode_segment_index(&prefix)?;
    Ok((file, index))
}

/// Reads one expert's payload out of an open v4 segment file with one
/// positioned read, without touching any other payload or the file's
/// cursor (concurrent readers share the handle). The returned bytes are
/// a complete v1/v2/v3 stream whose own checksum is verified when it is
/// parsed.
pub fn read_segment_payload(
    file: &fs::File,
    entry: &SegmentEntry,
) -> Result<Vec<u8>, SerializeError> {
    if let Some(e) = poe_chaos::fail_io(poe_chaos::sites::STORE_SEGMENT_READ_IO) {
        return Err(SerializeError::Io(e));
    }
    let mut payload = vec![0u8; entry.len as usize];
    read_exact_at_or_corrupt(
        file,
        &mut payload,
        entry.offset,
        "segment payload extends past end of file",
    )?;
    Ok(payload)
}

/// Positioned `read_exact` that reports a short read as
/// [`SerializeError::Corrupt`] (a truncated store file) instead of a
/// generic i/o error.
fn read_exact_at_or_corrupt(
    file: &fs::File,
    buf: &mut [u8],
    offset: u64,
    what: &str,
) -> Result<(), SerializeError> {
    use std::os::unix::fs::FileExt;
    match file.read_exact_at(buf, offset) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            Err(SerializeError::Corrupt(what.into()))
        }
        Err(e) => Err(SerializeError::Io(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use poe_nn::layers::{Linear, Relu, Sequential};
    use poe_nn::snapshot_params;
    use poe_tensor::Prng;

    fn net(seed: u64) -> Sequential {
        let mut rng = Prng::seed_from_u64(seed);
        Sequential::new()
            .push(Linear::new("a", 3, 5, &mut rng))
            .push(Relu::new())
            .push(Linear::new("b", 5, 2, &mut rng))
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// Deterministic, non-periodic test bytes for the CRC pins.
    fn crc_input(len: usize) -> Vec<u8> {
        (0..len as u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect()
    }

    /// Values recorded from the byte-at-a-time implementation, so the
    /// slicing-by-8 loop must agree with it on every tail length (0..=17
    /// covers empty, sub-block, one block, and block + every remainder)
    /// and on a long buffer. Existing stores keep verifying.
    #[test]
    fn crc32_matches_pinned_byte_at_a_time_values() {
        const PINNED: [u32; 18] = [
            0x0000_0000,
            0xd202_ef8d,
            0x1d6a_78fb,
            0x3611_4afe,
            0x37e1_40ca,
            0x9931_da8a,
            0x9ef2_ce09,
            0x0f91_618a,
            0x0a00_5536,
            0x7cd9_8592,
            0xdca5_be3a,
            0x96da_6740,
            0xcef8_5488,
            0xd47a_a2c6,
            0x34b5_c92e,
            0x0856_e294,
            0x526f_dea4,
            0xc13c_1805,
        ];
        for (len, &want) in PINNED.iter().enumerate() {
            assert_eq!(crc32(&crc_input(len)), want, "length {len}");
        }
        assert_eq!(crc32(&crc_input(64 * 1024)), 0x186e_16a2);
    }

    #[test]
    fn round_trip_preserves_weights() {
        let src = net(1);
        let bytes = serialize_module(&src);
        let mut dst = net(2);
        assert_ne!(snapshot_params(&src), snapshot_params(&dst));
        deserialize_into(&mut dst, &bytes).unwrap();
        assert_eq!(snapshot_params(&src), snapshot_params(&dst));
    }

    #[test]
    fn byte_size_is_exact() {
        let m = net(3);
        assert_eq!(module_byte_size(&m) as usize, serialize_module(&m).len());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("poe_serialize_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.poem");
        let src = net(4);
        let written = save_module(&path, &src).unwrap();
        assert_eq!(written, module_byte_size(&src));
        let mut dst = net(5);
        load_module(&path, &mut dst).unwrap();
        assert_eq!(snapshot_params(&src), snapshot_params(&dst));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_bad_magic() {
        let mut dst = net(6);
        let err = deserialize_into(&mut dst, b"NOPE________").unwrap_err();
        assert!(matches!(err, SerializeError::Format(_)));
    }

    #[test]
    fn rejects_unsupported_version() {
        let src = net(6);
        let mut bytes = serialize_module(&src);
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        let mut dst = net(6);
        let err = deserialize_into(&mut dst, &bytes).unwrap_err();
        assert!(matches!(err, SerializeError::Format(_)), "{err}");
        assert!(err.to_string().contains("unsupported version 99"), "{err}");
    }

    #[test]
    fn rejects_truncated_stream_via_checksum() {
        let src = net(7);
        let bytes = serialize_module(&src);
        let mut dst = net(8);
        // Truncation chops the footer (or leaves a stale one): the
        // integrity check fires before any tensor parsing.
        let err = deserialize_into(&mut dst, &bytes[..bytes.len() - 10]).unwrap_err();
        assert!(matches!(err, SerializeError::Corrupt(_)), "{err}");
        // Even a 4-byte loss (exactly the CRC) is caught.
        let err = deserialize_into(&mut dst, &bytes[..bytes.len() - 4]).unwrap_err();
        assert!(matches!(err, SerializeError::Corrupt(_)), "{err}");
    }

    #[test]
    fn rejects_flipped_byte_via_checksum() {
        let src = net(7);
        let bytes = serialize_module(&src);
        let mut dst = net(8);
        // Flip one bit in the middle of the tensor data. Shapes and names
        // still parse — only the checksum can catch this.
        let mut evil = bytes.clone();
        let mid = evil.len() / 2;
        evil[mid] ^= 0x01;
        let err = deserialize_into(&mut dst, &evil).unwrap_err();
        assert!(matches!(err, SerializeError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // The pristine bytes still load, so the rejection was the flip.
        deserialize_into(&mut dst, &bytes).unwrap();
    }

    /// v1 files (written before the checksum footer existed) must keep
    /// loading: same layout, version field 1, no footer.
    #[test]
    fn loads_legacy_v1_stream() {
        let src = net(9);
        let v2 = serialize_module(&src);
        let mut v1 = v2[..v2.len() - FOOTER_BYTES as usize].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let mut dst = net(10);
        deserialize_into(&mut dst, &v1).unwrap();
        assert_eq!(snapshot_params(&src), snapshot_params(&dst));
        // A truncated v1 stream is still caught by the structural checks.
        let mut dst = net(10);
        let err = deserialize_into(&mut dst, &v1[..v1.len() - 10]).unwrap_err();
        assert!(matches!(err, SerializeError::Format(_)), "{err}");
    }

    #[test]
    fn rejects_shape_mismatch() {
        let src = net(9);
        let bytes = serialize_module(&src);
        let mut rng = Prng::seed_from_u64(10);
        let mut wrong = Sequential::new()
            .push(Linear::new("a", 3, 5, &mut rng))
            .push(Relu::new())
            .push(Linear::new("b", 5, 3, &mut rng)); // 3 ≠ 2 outputs
        let err = deserialize_into(&mut wrong, &bytes).unwrap_err();
        assert!(matches!(err, SerializeError::Mismatch(_)), "{err}");
    }

    #[test]
    fn rejects_name_mismatch() {
        let src = net(11);
        let bytes = serialize_module(&src);
        let mut rng = Prng::seed_from_u64(12);
        let mut wrong = Sequential::new()
            .push(Linear::new("x", 3, 5, &mut rng))
            .push(Relu::new())
            .push(Linear::new("b", 5, 2, &mut rng));
        let err = deserialize_into(&mut wrong, &bytes).unwrap_err();
        assert!(matches!(err, SerializeError::Mismatch(_)));
    }

    #[test]
    fn v3_round_trip_dequantizes_on_load_within_bound() {
        let src = net(20);
        let q = QuantizedModule::from_module(&src);
        let bytes = serialize_module_quantized(&src, &q);
        assert_eq!(bytes.len() as u64, module_byte_size_quantized(&src, &q));
        // v3 files are much smaller than their dense v2 counterparts.
        assert!(bytes.len() < serialize_module(&src).len());

        // Plain deserialize_into sees dense weights within the bound.
        let mut dense = net(21);
        deserialize_into(&mut dense, &bytes).unwrap();
        let bound = q.error_bound();
        let mut originals = Vec::new();
        src.visit_params_ref(&mut |p| originals.push(p.value.clone()));
        let mut idx = 0;
        dense.visit_params_ref(&mut |p| {
            assert!(p.value.max_abs_diff(&originals[idx]) <= bound, "{}", p.name);
            idx += 1;
        });
    }

    #[test]
    fn v3_quantized_load_preserves_int8_payload() {
        let dir = std::env::temp_dir().join("poe_serialize_v3_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("expert.poem");
        let src = net(22);
        let q = QuantizedModule::from_module(&src);
        let written = save_module_quantized(&path, &src, &q).unwrap();
        assert_eq!(written, module_byte_size_quantized(&src, &q));

        let mut dst = net(23);
        let loaded = load_module_quantized(&path, &mut dst).unwrap().unwrap();
        // Bit-exact payload round trip.
        assert_eq!(loaded, q);
        // Weight params are placeholders; biases loaded dense.
        dst.visit_params_ref(&mut |p| {
            if p.value.dims().len() == 2 {
                assert!(p.value.data().iter().all(|&v| v == 0.0), "{}", p.name);
            }
        });
        // And restoring yields dense weights again.
        loaded.restore_into(&mut dst).unwrap();

        // A v2 file through the same entry point loads dense, no payload.
        let v2_path = dir.join("dense.poem");
        save_module(&v2_path, &src).unwrap();
        let mut dst2 = net(24);
        assert!(load_module_quantized(&v2_path, &mut dst2)
            .unwrap()
            .is_none());
        assert_eq!(snapshot_params(&src), snapshot_params(&dst2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v3_rejects_unknown_dtype_and_corruption() {
        let src = net(25);
        let q = QuantizedModule::from_module(&src);
        let bytes = serialize_module_quantized(&src, &q);
        // Bit flip → checksum catches it.
        let mut evil = bytes.clone();
        let mid = evil.len() / 2;
        evil[mid] ^= 0x40;
        let mut dst = net(26);
        let err = deserialize_into(&mut dst, &evil).unwrap_err();
        assert!(matches!(err, SerializeError::Corrupt(_)), "{err}");
        // Truncation too.
        let err = deserialize_into(&mut dst, &bytes[..bytes.len() - 9]).unwrap_err();
        assert!(matches!(err, SerializeError::Corrupt(_)), "{err}");
    }

    #[test]
    fn v4_segment_round_trips_v2_and_v3_payloads() {
        let dense = net(30);
        let quant = net(31);
        let q = QuantizedModule::from_module(&quant);
        let payloads = vec![
            (0u32, 1u32, serialize_module(&dense)),
            (4u32, 3u32, serialize_module_quantized(&quant, &q)),
        ];
        let seg = encode_segment(&payloads);
        assert_eq!(
            seg.len() as u64,
            segment_header_bytes(2) + payloads.iter().map(|(_, _, p)| p.len() as u64).sum::<u64>()
        );

        let dir = std::env::temp_dir().join("poe_segment_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("experts.poem");
        atomic_write(&path, &seg).unwrap();

        let (file, index) = open_segment(&path).unwrap();
        assert_eq!(index.len(), 2);
        assert_eq!((index[0].task, index[0].version), (0, 1));
        assert_eq!((index[1].task, index[1].version), (4, 3));
        assert_eq!(index[0].offset, segment_header_bytes(2));

        // Dense payload loads back bit-identical via a positioned read.
        let bytes = read_segment_payload(&file, &index[0]).unwrap();
        let mut dst = net(32);
        assert!(deserialize_module_quantized(&mut dst, &bytes)
            .unwrap()
            .is_none());
        assert_eq!(snapshot_params(&dense), snapshot_params(&dst));

        // Quantized payload keeps its int8 content through the segment.
        let bytes = read_segment_payload(&file, &index[1]).unwrap();
        let mut dst = net(33);
        let loaded = deserialize_module_quantized(&mut dst, &bytes)
            .unwrap()
            .unwrap();
        assert_eq!(loaded, q);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v4_rejects_corrupt_or_truncated_index() {
        let m = net(34);
        let seg = encode_segment(&[(7, 2, serialize_module(&m))]);

        // Truncation anywhere inside the index region.
        for cut in [3usize, 11, 20, segment_header_bytes(1) as usize - 1] {
            let err = decode_segment_index(&seg[..cut]).unwrap_err();
            assert!(
                matches!(err, SerializeError::Corrupt(_)),
                "cut={cut}: {err}"
            );
        }
        // A bit flip in an offset is caught by the index CRC before the
        // bogus offset can be dereferenced.
        let mut evil = seg.clone();
        evil[14] ^= 0x10;
        let err = decode_segment_index(&evil).unwrap_err();
        assert!(matches!(err, SerializeError::Corrupt(_)), "{err}");
        assert!(err.to_string().contains("checksum"), "{err}");
        // Wrong magic / wrong version are Format errors (not a segment).
        let mut wrong = seg.clone();
        wrong[0] = b'X';
        assert!(matches!(
            decode_segment_index(&wrong).unwrap_err(),
            SerializeError::Format(_)
        ));
        let single = serialize_module(&m);
        assert!(matches!(
            decode_segment_index(&single).unwrap_err(),
            SerializeError::Format(_)
        ));
        // The pristine bytes still decode.
        assert_eq!(decode_segment_index(&seg).unwrap().len(), 1);

        // A file truncated mid-payload fails at payload read, not index.
        let dir = std::env::temp_dir().join("poe_segment_trunc_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("experts.poem");
        atomic_write(&path, &seg[..seg.len() - 5]).unwrap();
        let (file, index) = open_segment(&path).unwrap();
        let err = read_segment_payload(&file, &index[0]).unwrap_err();
        assert!(matches!(err, SerializeError::Corrupt(_)), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The worked example in docs/FORMATS.md is the normative byte-level
    /// spec of the v4 segment: the hexdump there must be exactly what
    /// [`encode_segment`] writes and what [`decode_segment_index`] reads.
    #[test]
    fn v4_writer_and_reader_match_the_spec_hexdump() {
        let doc = include_str!("../../../docs/FORMATS.md");
        let marker = "<!-- v4-worked-example -->";
        let start = doc.find(marker).expect("FORMATS.md worked-example marker");
        let block = &doc[start + marker.len()..];
        let block = &block[block.find("```text").expect("hexdump fence") + 7..];
        let block = &block[..block.find("```").expect("hexdump fence end")];
        let mut spec_bytes = Vec::new();
        for line in block.lines() {
            // hexdump -C style: offset, 16 hex byte columns, |ascii|.
            let Some((_, rest)) = line.split_once("  ") else {
                continue;
            };
            let hex = rest.split('|').next().unwrap_or("");
            for tok in hex.split_whitespace() {
                spec_bytes.push(u8::from_str_radix(tok, 16).expect("hex byte"));
            }
        }
        assert!(!spec_bytes.is_empty(), "no bytes parsed from FORMATS.md");

        // Reader: the spec bytes decode to the documented index.
        let index = decode_segment_index(&spec_bytes).unwrap();
        assert_eq!(
            index,
            vec![SegmentEntry {
                task: 3,
                version: 2,
                offset: 36,
                len: 41,
            }]
        );
        // The embedded payload is a valid self-checking v2 stream holding
        // one rank-1 tensor `b` = [1.0, 2.0].
        let payload = &spec_bytes[index[0].offset as usize..][..index[0].len as usize];
        let crc_stored = u32::from_le_bytes(payload[payload.len() - 4..].try_into().unwrap());
        assert_eq!(crc_stored, crc32(&payload[..payload.len() - 8]));

        // Writer: re-encoding the documented triple reproduces the spec
        // bytes exactly.
        assert_eq!(encode_segment(&[(3, 2, payload.to_vec())]), spec_bytes);
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join("poe_atomic_write_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("f.bin");
        atomic_write(&path, b"first").unwrap();
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        assert!(
            !std::path::Path::new(&tmp).exists(),
            "temp file left behind"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
