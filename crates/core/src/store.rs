//! Standalone pool persistence: a self-describing on-disk **model store**.
//!
//! [`crate::pool::ExpertPool::save_to_dir`] persists weights but needs an
//! identically-structured pool to load into. The store adds a versioned
//! *manifest* capturing everything required to rebuild the pool from
//! nothing — the class hierarchy, the architecture hyperparameters, and
//! the set of pooled experts — completing the paper's framing of PoE as a
//! database that can be closed and reopened:
//!
//! ```text
//! pool_dir/
//!   manifest.poep      hierarchy + architecture + expert index
//!   library.poem       library weights
//!   experts.poem       POEM v4 segment: every expert head, offset-indexed
//!   expert_<t>.poem    legacy per-expert layout (still readable)
//! ```
//!
//! [`save_standalone`] writes the segment layout; [`load_standalone`]
//! opens it **lazily** — only the manifest, library, and segment *index*
//! are read at startup (O(1) in the catalog size), and each expert's
//! payload streams in on first use via the [`SegmentSource`] attached to
//! the pool. Directories from before the segment format (one
//! `expert_<t>.poem` per task) load eagerly exactly as they always did.
//! Byte-level format details live in `docs/FORMATS.md`.

use crate::pool::{Expert, ExpertPool, ExpertSource, LoadedExpert, SourceEntry};
use poe_data::{ClassHierarchy, PrimitiveTask};
use poe_models::serialize::{
    atomic_write, deserialize_module_quantized, encode_segment, load_module, load_module_quantized,
    open_segment, read_segment_payload, save_module, serialize_module, serialize_module_quantized,
    SegmentEntry, SerializeError,
};
use poe_models::wire::{WireBuf, WireRead};
use poe_models::{build_mlp_head_with_depth, build_wrn_mlp_with_depth, WrnConfig};
use poe_nn::layers::Sequential;
use poe_nn::Module;
use poe_tensor::Prng;
use std::collections::BTreeMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

const MANIFEST_MAGIC: &[u8; 4] = b"POEP";
const MANIFEST_VERSION: u32 = 1;
const MANIFEST_FILE: &str = "manifest.poep";
/// File name of the POEM v4 expert segment inside a store directory.
pub const SEGMENT_FILE: &str = "experts.poem";

/// Everything needed to rebuild a pool's module structure from scratch.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolSpec {
    /// The library student's architecture (its trunk is the library).
    pub student_arch: WrnConfig,
    /// `k_s` of the expert heads.
    pub expert_ks: f32,
    /// Library depth `ℓ` (shared groups).
    pub library_groups: usize,
    /// Input feature dimensionality.
    pub input_dim: usize,
}

fn put_string(buf: &mut WireBuf, s: &str) {
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

fn get_string(buf: &mut &[u8]) -> Result<String, SerializeError> {
    if buf.remaining() < 4 {
        return Err(SerializeError::Format("truncated string length".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(SerializeError::Format("truncated string".into()));
    }
    let mut v = vec![0u8; len];
    buf.copy_to_slice(&mut v);
    String::from_utf8(v).map_err(|_| SerializeError::Format("non-utf8 string".into()))
}

fn put_arch(buf: &mut WireBuf, a: &WrnConfig) {
    buf.put_u32_le(a.depth as u32);
    buf.put_f32_le(a.kc);
    buf.put_f32_le(a.ks);
    buf.put_u32_le(a.unit as u32);
    buf.put_u32_le(a.num_classes as u32);
}

fn get_arch(buf: &mut &[u8]) -> Result<WrnConfig, SerializeError> {
    if buf.remaining() < 20 {
        return Err(SerializeError::Format("truncated architecture".into()));
    }
    Ok(WrnConfig {
        depth: buf.get_u32_le() as usize,
        kc: buf.get_f32_le(),
        ks: buf.get_f32_le(),
        unit: buf.get_u32_le() as usize,
        num_classes: buf.get_u32_le() as usize,
    })
}

/// Serializes the manifest for a pool with the given rebuild spec.
fn encode_manifest(pool: &ExpertPool, spec: &PoolSpec) -> WireBuf {
    let h = pool.hierarchy();
    let mut buf = WireBuf::new();
    buf.put_slice(MANIFEST_MAGIC);
    buf.put_u32_le(MANIFEST_VERSION);
    put_arch(&mut buf, &spec.student_arch);
    buf.put_f32_le(spec.expert_ks);
    buf.put_u32_le(spec.library_groups as u32);
    buf.put_u32_le(spec.input_dim as u32);
    put_string(&mut buf, &pool.library_arch);
    put_string(&mut buf, &pool.expert_arch);
    // Hierarchy.
    buf.put_u32_le(h.num_classes() as u32);
    buf.put_u32_le(h.num_primitives() as u32);
    for p in h.primitives() {
        put_string(&mut buf, &p.name);
        buf.put_u32_le(p.classes.len() as u32);
        for &c in &p.classes {
            buf.put_u32_le(c as u32);
        }
    }
    // Pooled experts.
    let pooled = pool.pooled_tasks();
    buf.put_u32_le(pooled.len() as u32);
    for t in pooled {
        buf.put_u32_le(t as u32);
    }
    buf
}

struct Manifest {
    spec: PoolSpec,
    library_arch: String,
    expert_arch: String,
    hierarchy: ClassHierarchy,
    pooled: Vec<usize>,
}

fn decode_manifest(mut buf: &[u8]) -> Result<Manifest, SerializeError> {
    if buf.remaining() < 8 {
        return Err(SerializeError::Format("truncated manifest header".into()));
    }
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MANIFEST_MAGIC {
        return Err(SerializeError::Format("bad manifest magic".into()));
    }
    let version = buf.get_u32_le();
    if version != MANIFEST_VERSION {
        return Err(SerializeError::Format(format!(
            "unsupported manifest version {version}"
        )));
    }
    let student_arch = get_arch(&mut buf)?;
    if buf.remaining() < 12 {
        return Err(SerializeError::Format("truncated spec".into()));
    }
    let expert_ks = buf.get_f32_le();
    let library_groups = buf.get_u32_le() as usize;
    let input_dim = buf.get_u32_le() as usize;
    let library_arch = get_string(&mut buf)?;
    let expert_arch = get_string(&mut buf)?;

    if buf.remaining() < 8 {
        return Err(SerializeError::Format("truncated hierarchy header".into()));
    }
    let num_classes = buf.get_u32_le() as usize;
    let num_primitives = buf.get_u32_le() as usize;
    let mut groups = Vec::with_capacity(num_primitives);
    for _ in 0..num_primitives {
        let name = get_string(&mut buf)?;
        if buf.remaining() < 4 {
            return Err(SerializeError::Format("truncated task".into()));
        }
        let n = buf.get_u32_le() as usize;
        if buf.remaining() < 4 * n {
            return Err(SerializeError::Format("truncated task classes".into()));
        }
        let classes = (0..n).map(|_| buf.get_u32_le() as usize).collect();
        groups.push(PrimitiveTask { name, classes });
    }
    let hierarchy = ClassHierarchy::new(num_classes, groups);

    if buf.remaining() < 4 {
        return Err(SerializeError::Format("truncated expert index".into()));
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < 4 * n {
        return Err(SerializeError::Format("truncated expert list".into()));
    }
    let pooled = (0..n).map(|_| buf.get_u32_le() as usize).collect();

    Ok(Manifest {
        spec: PoolSpec {
            student_arch,
            expert_ks,
            library_groups,
            input_dim,
        },
        library_arch,
        expert_arch,
        hierarchy,
        pooled,
    })
}

/// Expert-head skeletons for one pool spec: module structures named and
/// shaped exactly the way the preprocessing pipeline builds each head,
/// whose weights the stored payload then replaces. Building a head draws
/// a Gaussian init for every weight, so each head width is built once,
/// under a neutral name; every later skeleton clones that template (a
/// refcount bump per tensor) and renames its parameters to the task.
struct HeadSkeletons {
    spec: PoolSpec,
    hierarchy: ClassHierarchy,
    /// One template per head width (number of classes), parameters named
    /// `expert.…`.
    templates: Mutex<BTreeMap<usize, Sequential>>,
}

impl HeadSkeletons {
    const PREFIX: &'static str = "expert";

    fn new(spec: PoolSpec, hierarchy: ClassHierarchy) -> Self {
        HeadSkeletons {
            spec,
            hierarchy,
            templates: Mutex::new(BTreeMap::new()),
        }
    }

    /// The skeleton of `task`'s head, parameters named `expert<task>.…`.
    fn head(&self, task: usize) -> Sequential {
        let width = self.hierarchy.primitive(task).classes.len();
        let mut head = self
            .templates
            .lock()
            .expect("no code panics while holding the skeleton templates")
            .entry(width)
            .or_insert_with(|| {
                let arch = WrnConfig {
                    ks: self.spec.expert_ks,
                    num_classes: width,
                    ..self.spec.student_arch
                };
                let mut rng = Prng::seed_from_u64(0); // weights are overwritten
                build_mlp_head_with_depth(
                    Self::PREFIX,
                    &arch,
                    self.spec.library_groups,
                    width,
                    &mut rng,
                )
            })
            .clone();
        let task = task.to_string();
        head.visit_params(&mut |p| p.name.insert_str(Self::PREFIX.len(), &task));
        head
    }
}

/// An open segment file together with the index read from it. They are
/// one snapshot: a payload is only ever read through the handle its
/// index entry came from, so a store re-saved under a live reader can
/// never pair old offsets with new bytes.
struct Segment {
    file: File,
    index: BTreeMap<usize, SegmentEntry>,
}

impl Segment {
    fn open(path: &Path) -> Result<Self, SerializeError> {
        let (file, entries) = open_segment(path)?;
        let index = entries.into_iter().map(|e| (e.task as usize, e)).collect();
        Ok(Segment { file, index })
    }
}

const SEGMENT_LOCK: &str = "no code panics while holding the segment snapshot";

/// Lazy expert backend over a POEM v4 segment file — the
/// [`ExpertSource`] that [`load_standalone`] attaches to the pool. The
/// file stays open: `load` reads one payload with a positioned read
/// through the handle opened at open time, so a store re-saved on disk
/// keeps serving the file that was opened until `reload` re-opens the
/// path and swaps file and index together (the hot-swap path).
pub struct SegmentSource {
    path: PathBuf,
    skeletons: HeadSkeletons,
    segment: Mutex<Arc<Segment>>,
}

impl SegmentSource {
    /// Opens a segment file, reading and validating only its index.
    pub fn open(
        path: impl Into<PathBuf>,
        spec: PoolSpec,
        hierarchy: ClassHierarchy,
    ) -> Result<Self, SerializeError> {
        let path = path.into();
        let segment = Segment::open(&path)?;
        Ok(SegmentSource {
            path,
            skeletons: HeadSkeletons::new(spec, hierarchy),
            segment: Mutex::new(Arc::new(segment)),
        })
    }

    fn load_from(&self, segment: &Segment, task: usize) -> Result<LoadedExpert, SerializeError> {
        let entry = segment
            .index
            .get(&task)
            .ok_or_else(|| SerializeError::Format(format!("task {task} not in segment index")))?;
        let payload = read_segment_payload(&segment.file, entry)?;
        let mut head = self.skeletons.head(task);
        let quantized = deserialize_module_quantized(&mut head, &payload)?;
        Ok(LoadedExpert {
            expert: Expert {
                task_index: task,
                classes: self.skeletons.hierarchy.primitive(task).classes.clone(),
                head,
            },
            quantized,
            version: entry.version as u64,
        })
    }

    fn current(&self) -> Arc<Segment> {
        Arc::clone(&self.segment.lock().expect(SEGMENT_LOCK))
    }
}

impl ExpertSource for SegmentSource {
    fn catalog(&self) -> Vec<SourceEntry> {
        self.current()
            .index
            .values()
            .map(|e| SourceEntry {
                task: e.task as usize,
                version: e.version as u64,
                bytes: e.len as u64,
            })
            .collect()
    }

    fn load(&self, task: usize) -> Result<LoadedExpert, SerializeError> {
        self.load_from(&self.current(), task)
    }

    fn reload(&self, task: usize) -> Result<LoadedExpert, SerializeError> {
        let fresh = Arc::new(Segment::open(&self.path)?);
        *self.segment.lock().expect(SEGMENT_LOCK) = Arc::clone(&fresh);
        self.load_from(&fresh, task)
    }
}

/// Persists a pool **with its manifest** in the segment layout
/// (`manifest.poep` + `library.poem` + `experts.poem`), so
/// [`load_standalone`] can reopen it lazily without any pre-built
/// structure. Non-resident experts of a segment-backed pool are
/// materialized on the fly while writing. Returns total bytes written.
pub fn save_standalone(
    pool: &ExpertPool,
    spec: &PoolSpec,
    dir: impl AsRef<Path>,
) -> Result<u64, SerializeError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir).map_err(SerializeError::Io)?;
    let manifest = encode_manifest(pool, spec);
    // Atomic (temp + fsync + rename): a crash mid-save leaves the
    // previous manifest intact instead of a torn store.
    atomic_write(dir.join(MANIFEST_FILE), manifest.as_ref()).map_err(SerializeError::Io)?;
    let library_bytes = save_module(dir.join("library.poem"), pool.library())?;
    let mut entries = Vec::new();
    for t in pool.pooled_tasks() {
        let loaded = pool.loaded_expert(t).ok_or_else(|| {
            SerializeError::Format(format!("expert {t} could not be materialized for save"))
        })?;
        let payload = match &loaded.quantized {
            Some(q) => serialize_module_quantized(&loaded.expert.head, q),
            None => serialize_module(&loaded.expert.head),
        };
        entries.push((
            t as u32,
            loaded.version.min(u32::MAX as u64) as u32,
            payload,
        ));
    }
    let segment = encode_segment(&entries);
    atomic_write(dir.join(SEGMENT_FILE), &segment).map_err(SerializeError::Io)?;
    Ok(manifest.len() as u64 + library_bytes + segment.len() as u64)
}

/// Reopens a pool saved by [`save_standalone`]: rebuilds the hierarchy
/// and library from the manifest, then attaches a lazy [`SegmentSource`]
/// over `experts.poem` — startup reads only the segment *index*, and
/// experts stream in on first query. Directories without a segment (the
/// pre-v4 per-file layout) load every `expert_<t>.poem` eagerly instead.
pub fn load_standalone(dir: impl AsRef<Path>) -> Result<(ExpertPool, PoolSpec), SerializeError> {
    let dir = dir.as_ref();
    let bytes = std::fs::read(dir.join(MANIFEST_FILE)).map_err(SerializeError::Io)?;
    let m = decode_manifest(&bytes)?;

    // Rebuild the library as the trunk of a freshly-built student (the
    // parameter names match the pipeline's construction), then overwrite
    // its weights from disk.
    let mut rng = Prng::seed_from_u64(0); // weights are overwritten below
    let student = build_wrn_mlp_with_depth(
        &m.spec.student_arch,
        m.spec.input_dim,
        m.spec.library_groups,
        &mut rng,
    );
    let (mut library, _) = student.into_parts();
    load_module(dir.join("library.poem"), &mut library)?;

    let mut pool = ExpertPool::new(m.hierarchy.clone(), library);
    pool.library_arch = m.library_arch;
    pool.expert_arch = m.expert_arch;

    let segment_path = dir.join(SEGMENT_FILE);
    if segment_path.is_file() {
        // Segment layout: validate the index now (a corrupt index means a
        // degraded start), defer every payload to first use. The segment
        // index, not the manifest's expert list, is the catalog of record.
        let source = SegmentSource::open(segment_path, m.spec.clone(), m.hierarchy.clone())?;
        pool.attach_source(Arc::new(source));
        return Ok((pool, m.spec));
    }

    // Legacy per-file layout: load everything eagerly, as before v4.
    let skeletons = HeadSkeletons::new(m.spec.clone(), m.hierarchy.clone());
    for &t in &m.pooled {
        let classes = m.hierarchy.primitive(t).classes.clone();
        let mut head = skeletons.head(t);
        // Version-3 expert files keep their int8 payload (the head stays
        // on placeholder weights, dequantized at assemble time); dense
        // v1/v2 files load as before and return no payload.
        let quantized = load_module_quantized(dir.join(format!("expert_{t}.poem")), &mut head)?;
        pool.insert_expert(Expert {
            task_index: t,
            classes,
            head,
        });
        if let Some(q) = quantized {
            pool.attach_quantized(t, q);
        }
    }
    Ok((pool, m.spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{preprocess, PipelineConfig};
    use crate::pool::QueryError;
    use poe_data::synth::{generate, GaussianHierarchyConfig};
    use poe_tensor::Tensor;

    fn built_pool() -> (ExpertPool, PoolSpec, poe_data::SplitDataset) {
        let cfg = GaussianHierarchyConfig {
            dim: 6,
            ..GaussianHierarchyConfig::balanced(3, 2)
        }
        .with_samples(10, 4)
        .with_seed(61);
        let (split, h) = generate(&cfg);
        let pipe = PipelineConfig {
            seed: 8,
            ..PipelineConfig::defaults(
                WrnConfig::new(10, 1.0, 1.0, 6).with_unit(4),
                WrnConfig::new(10, 1.0, 1.0, 6).with_unit(4),
                3,
            )
        };
        let pre = preprocess(&split.train, &h, &pipe, None);
        let spec = PoolSpec {
            student_arch: pipe.student_arch,
            expert_ks: pipe.expert_ks,
            library_groups: pipe.library_groups,
            input_dim: 6,
        };
        (pre.pool, spec, split)
    }

    #[test]
    fn standalone_round_trip_rebuilds_identical_pool() {
        let (pool, spec, _split) = built_pool();
        let dir = std::env::temp_dir().join("poe_standalone_test");
        std::fs::remove_dir_all(&dir).ok();
        let written = save_standalone(&pool, &spec, &dir).unwrap();
        assert!(written > pool.volumes().total_bytes);

        let (reopened, spec2) = load_standalone(&dir).unwrap();
        assert_eq!(spec, spec2);
        assert_eq!(reopened.num_experts(), pool.num_experts());
        assert_eq!(reopened.hierarchy(), pool.hierarchy());
        // The segment store opens lazily: nothing resident yet.
        assert!(reopened.has_source());
        assert_eq!(reopened.resident_experts(), 0);

        let x = Tensor::randn([4, 6], 1.0, &mut Prng::seed_from_u64(3));
        let (a, _) = pool.consolidate(&[0, 2]).unwrap();
        let (b, _) = reopened.consolidate(&[0, 2]).unwrap();
        assert!(a.infer(&x).max_abs_diff(&b.infer(&x)) < 1e-6);
        assert_eq!(reopened.resident_experts(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn standalone_round_trip_preserves_quantized_experts() {
        let (mut pool, spec, _split) = built_pool();
        let report = pool.quantize_experts();
        assert!(report.experts > 0);
        let dir = std::env::temp_dir().join("poe_standalone_quant_test");
        std::fs::remove_dir_all(&dir).ok();
        save_standalone(&pool, &spec, &dir).unwrap();

        let (reopened, _) = load_standalone(&dir).unwrap();
        for t in reopened.pooled_tasks() {
            // Force residency, then the int8 payload must be attached.
            reopened.expert(t).unwrap();
            assert!(reopened.is_quantized(t), "task {t} lost its payload");
        }
        // Identical int8 payloads ⇒ bit-identical assembled models.
        let x = Tensor::randn([4, 6], 1.0, &mut Prng::seed_from_u64(5));
        let (a, _) = pool.consolidate(&[0, 2]).unwrap();
        let (b, _) = reopened.consolidate(&[0, 2]).unwrap();
        assert!(a.infer(&x).max_abs_diff(&b.infer(&x)) < 1e-6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_manifest_is_an_error() {
        let (pool, spec, _) = built_pool();
        let dir = std::env::temp_dir().join("poe_standalone_corrupt");
        std::fs::remove_dir_all(&dir).ok();
        save_standalone(&pool, &spec, &dir).unwrap();
        // Truncate the manifest.
        let path = dir.join(MANIFEST_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load_standalone(&dir).is_err());
        // Bad magic.
        std::fs::write(&path, b"NOPE").unwrap();
        assert!(load_standalone(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_weight_file_is_an_error() {
        let (pool, spec, _) = built_pool();
        let dir = std::env::temp_dir().join("poe_standalone_missing");
        std::fs::remove_dir_all(&dir).ok();
        save_standalone(&pool, &spec, &dir).unwrap();
        // A truncated segment index is detected at open time — the store
        // refuses to start rather than trusting bogus offsets.
        let seg = dir.join(SEGMENT_FILE);
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..20]).unwrap();
        assert!(matches!(
            load_standalone(&dir),
            Err(SerializeError::Corrupt(_))
        ));
        // With the segment gone entirely, the reader falls back to the
        // legacy per-file layout — whose files were never written here.
        std::fs::remove_file(&seg).unwrap();
        assert!(matches!(load_standalone(&dir), Err(SerializeError::Io(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn legacy_per_file_layout_still_loads() {
        let (pool, spec, _) = built_pool();
        let dir = std::env::temp_dir().join("poe_standalone_legacy");
        std::fs::remove_dir_all(&dir).ok();
        // Write the pre-v4 layout by hand: manifest + flat weight files.
        std::fs::create_dir_all(&dir).unwrap();
        atomic_write(
            dir.join(MANIFEST_FILE),
            encode_manifest(&pool, &spec).as_ref(),
        )
        .unwrap();
        pool.save_to_dir(&dir).unwrap();

        let (reopened, _) = load_standalone(&dir).unwrap();
        assert!(!reopened.has_source(), "legacy layout loads eagerly");
        assert_eq!(reopened.resident_experts(), pool.num_experts());
        let x = Tensor::randn([4, 6], 1.0, &mut Prng::seed_from_u64(7));
        let (a, _) = pool.consolidate(&[0, 1]).unwrap();
        let (b, _) = reopened.consolidate(&[0, 1]).unwrap();
        assert!(a.infer(&x).max_abs_diff(&b.infer(&x)) < 1e-6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn per_payload_corruption_fails_only_that_expert() {
        let (pool, spec, _) = built_pool();
        let dir = std::env::temp_dir().join("poe_standalone_payload_corrupt");
        std::fs::remove_dir_all(&dir).ok();
        save_standalone(&pool, &spec, &dir).unwrap();
        // Flip a byte inside the *last* payload: the index stays valid.
        let seg = dir.join(SEGMENT_FILE);
        let mut bytes = std::fs::read(&seg).unwrap();
        let (_, index) = open_segment(&seg).unwrap();
        let last = index.last().unwrap();
        let mid = last.offset as usize + last.len as usize / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&seg, &bytes).unwrap();

        let (reopened, _) = load_standalone(&dir).unwrap();
        let bad_task = last.task as usize;
        // Healthy experts keep serving.
        let ok_query: Vec<usize> = reopened
            .pooled_tasks()
            .into_iter()
            .filter(|&t| t != bad_task)
            .collect();
        reopened.consolidate(&ok_query).unwrap();
        // The corrupted one fails typed, at query time.
        let err = reopened.consolidate(&[bad_task]).unwrap_err();
        assert!(
            matches!(err, QueryError::ExpertLoad { task, .. } if task == bad_task),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resaved_segment_hot_swaps_through_reload() {
        let (pool, spec, _) = built_pool();
        let dir = std::env::temp_dir().join("poe_standalone_swap");
        std::fs::remove_dir_all(&dir).ok();
        save_standalone(&pool, &spec, &dir).unwrap();
        let (reader, _) = load_standalone(&dir).unwrap();
        let x = Tensor::randn([4, 6], 1.0, &mut Prng::seed_from_u64(9));
        let (before, _) = reader.consolidate(&[1]).unwrap();
        assert_eq!(reader.expert_version(1), Some(1));

        // A "re-extraction" elsewhere: reinstall expert 1 with perturbed
        // weights (version bumps to 2) and atomically re-save the store.
        let (mut writer, _) = load_standalone(&dir).unwrap();
        let mut expert = writer.expert(1).unwrap();
        use poe_nn::Module;
        expert.head.visit_params(&mut |p| {
            p.value.map_in_place(|v| v + 0.25);
        });
        let v = writer.insert_expert(expert);
        assert_eq!(v, 2);
        save_standalone(&writer, &spec, &dir).unwrap();

        // The open reader picks up the new version via reload.
        let loaded = reader.reload_from_source(1).unwrap();
        assert_eq!(loaded.version, 2);
        let mut reader = reader;
        reader.install_loaded(loaded);
        assert_eq!(reader.expert_version(1), Some(2));
        let (after, _) = reader.consolidate(&[1]).unwrap();
        assert!(after.infer(&x).max_abs_diff(&before.infer(&x)) > 0.0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
