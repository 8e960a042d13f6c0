//! Durable checkpoints for long fleet sweeps.
//!
//! A 10k-run sweep is hours of wall-clock; losing it to a preempted
//! container is not acceptable, so [`FleetCampaign`](crate::FleetCampaign)
//! periodically persists every completed run's summary statistics to a
//! `vsmooth-fleet-ckpt-v1` JSON file. Resume is exact, not approximate:
//! records carry their floating-point fields as IEEE-754 bit patterns
//! (`to_bits`), so a resumed sweep reassembles precisely the numbers
//! the interrupted one computed and the final report is byte-identical
//! to an uninterrupted sweep's. The sibling human-readable float
//! fields in the file are documentation only — the parser never reads
//! them.
//!
//! No type in the workspace derives a serializer, so both the writer
//! and the strict subset parser here are hand-rolled, as everywhere
//! else in this workspace.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use vsmooth_trace::json;

/// Schema tag written to and required from every checkpoint file.
pub const CHECKPOINT_SCHEMA: &str = "vsmooth-fleet-ckpt-v1";

/// Summary statistics of one completed fleet run — everything the
/// final report needs, so resumed sweeps never re-execute a run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Canonical sweep index of the run.
    pub run: usize,
    /// Fleet chip the run executed on.
    pub chip: usize,
    /// Job label (workload name, or `a+b` for pairs).
    pub label: String,
    /// Cycles simulated.
    pub cycles: u64,
    /// Emergencies below the phase margin.
    pub droops: u64,
    /// Deepest droop observed, percent of nominal.
    pub max_droop_pct: f64,
    /// Peak-to-peak supply excursion, percent of nominal.
    pub peak_to_peak_pct: f64,
    /// Aggregate instructions per cycle.
    pub ipc: f64,
}

/// Why a checkpoint file could not be used.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem-level failure reading or writing the file.
    Io {
        /// Path involved.
        path: PathBuf,
        /// Underlying error.
        source: io::Error,
    },
    /// The file is not a well-formed checkpoint.
    Malformed {
        /// 1-based line of the offending content.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The file's schema tag is not [`CHECKPOINT_SCHEMA`].
    SchemaMismatch {
        /// Tag actually found.
        found: String,
    },
    /// The checkpoint was produced by a different [`FleetSpec`]
    /// (different fingerprint); resuming would corrupt the report.
    ///
    /// [`FleetSpec`]: crate::FleetSpec
    SpecMismatch {
        /// Fingerprint expected by the running spec.
        expected: u64,
        /// Fingerprint recorded in the file.
        found: u64,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, source } => {
                write!(f, "checkpoint I/O error at {}: {source}", path.display())
            }
            Self::Malformed { line, reason } => {
                write!(f, "malformed checkpoint (line {line}): {reason}")
            }
            Self::SchemaMismatch { found } => write!(
                f,
                "checkpoint schema mismatch: found {found:?}, expected {CHECKPOINT_SCHEMA:?}"
            ),
            Self::SpecMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to a different fleet spec \
                 (fingerprint {found:#018x}, expected {expected:#018x})"
            ),
        }
    }
}

impl Error for CheckpointError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// An on-disk snapshot of a partially (or fully) completed sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the spec that produced the records.
    pub fingerprint: u64,
    /// Total runs the sweep will eventually contain.
    pub total_runs: usize,
    /// Completed runs, keyed by sweep index (deduplicated; a record
    /// re-written after resume must equal the original).
    pub records: BTreeMap<usize, RunRecord>,
}

impl Checkpoint {
    /// An empty checkpoint for a sweep of `total_runs` runs.
    pub fn new(fingerprint: u64, total_runs: usize) -> Self {
        Self {
            fingerprint,
            total_runs,
            records: BTreeMap::new(),
        }
    }

    /// Number of completed runs.
    pub fn completed(&self) -> usize {
        self.records.len()
    }

    /// Whether every run of the sweep has a record.
    pub(crate) fn is_complete(&self) -> bool {
        self.completed() == self.total_runs
    }

    /// Inserts a completed run's record.
    pub fn record(&mut self, rec: RunRecord) {
        self.records.insert(rec.run, rec);
    }

    /// Serializes to the `vsmooth-fleet-ckpt-v1` format: a JSON object
    /// with one record per line, floats stored as IEEE-754 bits for
    /// exact resume (the `*_pct`/`ipc` fields are for human eyes only).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": \"{CHECKPOINT_SCHEMA}\",");
        let _ = writeln!(out, "  \"fingerprint\": \"{:#018x}\",", self.fingerprint);
        let _ = writeln!(out, "  \"total_runs\": {},", self.total_runs);
        let _ = writeln!(out, "  \"completed\": {},", self.completed());
        out.push_str("  \"records\": [\n");
        let n = self.records.len();
        for (i, rec) in self.records.values().enumerate() {
            let comma = if i + 1 < n { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"run\": {}, \"chip\": {}, \"label\": \"{}\", \"cycles\": {}, \
                 \"droops\": {}, \"max_droop_bits\": {}, \"p2p_bits\": {}, \"ipc_bits\": {}, \
                 \"max_droop_pct\": {:.4}, \"peak_to_peak_pct\": {:.4}, \"ipc\": {:.4}}}{comma}",
                rec.run,
                rec.chip,
                json::escape(&rec.label),
                rec.cycles,
                rec.droops,
                rec.max_droop_pct.to_bits(),
                rec.peak_to_peak_pct.to_bits(),
                rec.ipc.to_bits(),
                rec.max_droop_pct,
                rec.peak_to_peak_pct,
                rec.ipc,
            );
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parses the `vsmooth-fleet-ckpt-v1` format produced by
    /// [`to_json`](Self::to_json).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] on any structural deviation and
    /// [`CheckpointError::SchemaMismatch`] on a wrong schema tag. Never
    /// panics on hostile input.
    pub fn parse(text: &str) -> Result<Self, CheckpointError> {
        let mut schema = None;
        let mut fingerprint = None;
        let mut total_runs = None;
        let mut records = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.trim();
            if let Some(v) = field_str(line, "schema") {
                schema = Some(v.to_string());
            } else if let Some(v) = field_str(line, "fingerprint") {
                let hex = v.strip_prefix("0x").ok_or_else(|| {
                    malformed(lineno, "fingerprint must be a 0x-prefixed hex string")
                })?;
                fingerprint = Some(
                    u64::from_str_radix(hex, 16)
                        .map_err(|e| malformed(lineno, format!("bad fingerprint: {e}")))?,
                );
            } else if let Some(v) = field_raw(line, "total_runs") {
                total_runs = Some(
                    v.parse::<usize>()
                        .map_err(|e| malformed(lineno, format!("bad total_runs: {e}")))?,
                );
            } else if line.starts_with("{\"run\":") {
                let rec = parse_record(line, lineno)?;
                records.insert(rec.run, rec);
            }
        }
        match schema {
            Some(s) if s == CHECKPOINT_SCHEMA => {}
            Some(s) => return Err(CheckpointError::SchemaMismatch { found: s }),
            None => {
                return Err(malformed(0, "missing schema tag"));
            }
        }
        let fingerprint = fingerprint.ok_or_else(|| malformed(0, "missing fingerprint"))?;
        let total_runs = total_runs.ok_or_else(|| malformed(0, "missing total_runs"))?;
        if records.len() > total_runs {
            return Err(malformed(0, "more records than total_runs"));
        }
        if let Some((&max, _)) = records.iter().next_back() {
            if max >= total_runs {
                return Err(malformed(0, "record index beyond total_runs"));
            }
        }
        Ok(Self {
            fingerprint,
            total_runs,
            records,
        })
    }

    /// Atomically writes the checkpoint to `path` (temp file + rename,
    /// so an interrupt mid-save never leaves a torn file behind).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let tmp = path.with_extension("tmp");
        let io_err = |source| CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        };
        fs::write(&tmp, self.to_json()).map_err(io_err)?;
        fs::rename(&tmp, path).map_err(io_err)
    }

    /// Loads and validates a checkpoint from `path`, checking its
    /// fingerprint against the running spec's.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] if the file cannot be read, the parse
    /// errors of [`parse`](Self::parse), and
    /// [`CheckpointError::SpecMismatch`] if the file belongs to a
    /// different spec.
    pub fn load(path: &Path, expected_fingerprint: u64) -> Result<Self, CheckpointError> {
        let text = fs::read_to_string(path).map_err(|source| CheckpointError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let ckpt = Self::parse(&text)?;
        if ckpt.fingerprint != expected_fingerprint {
            return Err(CheckpointError::SpecMismatch {
                expected: expected_fingerprint,
                found: ckpt.fingerprint,
            });
        }
        Ok(ckpt)
    }
}

fn malformed(line: usize, reason: impl Into<String>) -> CheckpointError {
    CheckpointError::Malformed {
        line,
        reason: reason.into(),
    }
}

/// Extracts a `"key": "value"` string field from a single JSON line.
fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(&format!("\"{key}\": \""))?;
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// Extracts a `"key": value` bare field from a single JSON line.
fn field_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let rest = line.strip_prefix(&format!("\"{key}\": "))?;
    Some(rest.trim_end_matches(','))
}

/// Parses one `{"run": …}` record line.
fn parse_record(line: &str, lineno: usize) -> Result<RunRecord, CheckpointError> {
    let get = |key: &str| -> Result<&str, CheckpointError> {
        let pat = format!("\"{key}\": ");
        let start = line
            .find(&pat)
            .ok_or_else(|| malformed(lineno, format!("record missing {key:?}")))?
            + pat.len();
        let rest = &line[start..];
        let end = rest
            .find([',', '}'])
            .ok_or_else(|| malformed(lineno, "unterminated record"))?;
        Ok(rest[..end].trim())
    };
    let num = |key: &str| -> Result<u64, CheckpointError> {
        get(key)?
            .parse::<u64>()
            .map_err(|e| malformed(lineno, format!("bad {key}: {e}")))
    };
    // The label is the one free-text field: read it with the JSON
    // string reader, which knows where an escaped string ends.
    let label_at = line
        .find("\"label\": ")
        .ok_or_else(|| malformed(lineno, "record missing \"label\""))?;
    let label = json::read_string(&line[label_at + "\"label\": ".len()..])
        .map_err(|e| malformed(lineno, format!("label must be a JSON string: {e}")))?;
    Ok(RunRecord {
        run: usize::try_from(num("run")?)
            .map_err(|e| malformed(lineno, format!("bad run index: {e}")))?,
        chip: usize::try_from(num("chip")?)
            .map_err(|e| malformed(lineno, format!("bad chip index: {e}")))?,
        label,
        cycles: num("cycles")?,
        droops: num("droops")?,
        max_droop_pct: f64::from_bits(num("max_droop_bits")?),
        peak_to_peak_pct: f64::from_bits(num("p2p_bits")?),
        ipc: f64::from_bits(num("ipc_bits")?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let mut ckpt = Checkpoint::new(0xDEAD_BEEF_0000_0001, 4);
        ckpt.record(RunRecord {
            run: 0,
            chip: 0,
            label: "bzip2".to_string(),
            cycles: 4000,
            droops: 3,
            max_droop_pct: std::f64::consts::E,
            peak_to_peak_pct: 5.5,
            ipc: 1.25,
        });
        ckpt.record(RunRecord {
            run: 2,
            chip: 2,
            label: "mcf+lbm".to_string(),
            cycles: 4000,
            droops: 0,
            max_droop_pct: std::f64::consts::PI,
            peak_to_peak_pct: 4.125,
            ipc: 0.875,
        });
        ckpt
    }

    #[test]
    fn json_roundtrip_is_bit_exact() {
        let ckpt = sample();
        let parsed = Checkpoint::parse(&ckpt.to_json()).unwrap();
        assert_eq!(parsed, ckpt);
        // Bit-exactness specifically for the irrational float.
        assert_eq!(
            parsed.records[&2].max_droop_pct.to_bits(),
            std::f64::consts::PI.to_bits()
        );
        // Serialization itself is deterministic.
        assert_eq!(ckpt.to_json(), parsed.to_json());
    }

    #[test]
    fn hostile_labels_round_trip_exactly() {
        let mut ckpt = Checkpoint::new(7, 6);
        for (run, label) in [
            "a,b",
            "a\"b",
            "a\\b",
            "tab\there",
            "x}, \"cycles\": 9",
            "cr\rlf",
        ]
        .into_iter()
        .enumerate()
        {
            ckpt.record(RunRecord {
                run,
                chip: 0,
                label: label.to_string(),
                cycles: 10 + run as u64,
                droops: 1,
                max_droop_pct: 1.5,
                peak_to_peak_pct: 2.5,
                ipc: 0.5,
            });
        }
        let json = ckpt.to_json();
        assert!(vsmooth_trace::parse_json(&json).is_ok(), "{json}");
        assert_eq!(Checkpoint::parse(&json).unwrap(), ckpt);
    }

    #[test]
    fn save_and_load_roundtrip() {
        let path = std::env::temp_dir().join(format!(
            "vsmooth-fleet-ckpt-roundtrip-{}.json",
            std::process::id()
        ));
        let ckpt = sample();
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path, ckpt.fingerprint).unwrap();
        assert_eq!(loaded, ckpt);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn corrupted_and_mismatched_files_are_typed_errors() {
        // Truncation mid-record must not panic (torn writes are
        // already prevented by the atomic rename in save()).
        let json = sample().to_json();
        let _ = Checkpoint::parse(&json[..json.len() * 2 / 3]);
        // Garbage.
        assert!(matches!(
            Checkpoint::parse("not json at all"),
            Err(CheckpointError::Malformed { .. })
        ));
        // Wrong schema tag.
        let wrong = json.replace(CHECKPOINT_SCHEMA, "vsmooth-fleet-ckpt-v99");
        assert!(matches!(
            Checkpoint::parse(&wrong),
            Err(CheckpointError::SchemaMismatch { .. })
        ));
        // Mangled record field.
        let bad = json.replace("\"cycles\": 4000", "\"cycles\": banana");
        assert!(matches!(
            Checkpoint::parse(&bad),
            Err(CheckpointError::Malformed { .. })
        ));
        // Fingerprint mismatch through load().
        let path = std::env::temp_dir().join(format!(
            "vsmooth-fleet-ckpt-mismatch-{}.json",
            std::process::id()
        ));
        sample().save(&path).unwrap();
        assert!(matches!(
            Checkpoint::load(&path, 0x1234),
            Err(CheckpointError::SpecMismatch { .. })
        ));
        let _ = fs::remove_file(&path);
        // Missing file is Io, not a panic.
        assert!(matches!(
            Checkpoint::load(Path::new("/nonexistent/vsmooth.ckpt"), 0),
            Err(CheckpointError::Io { .. })
        ));
    }

    #[test]
    fn record_indices_are_bounds_checked() {
        let mut ckpt = Checkpoint::new(1, 1);
        ckpt.record(RunRecord {
            run: 5,
            chip: 0,
            label: "x".to_string(),
            cycles: 1,
            droops: 0,
            max_droop_pct: 0.0,
            peak_to_peak_pct: 0.0,
            ipc: 0.0,
        });
        assert!(matches!(
            Checkpoint::parse(&ckpt.to_json()),
            Err(CheckpointError::Malformed { .. })
        ));
    }
}
