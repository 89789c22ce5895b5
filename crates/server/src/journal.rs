//! The write-ahead job journal: one checksummed record file per job.
//!
//! Every state a job passes through is persisted by atomically rewriting
//! its record (`job-<id>.job`): write to `job-<id>.job.tmp`, fsync,
//! rename over the record, fsync the directory — the same durability
//! discipline as [`ddsim_dd::Snapshot::save`]. A reader therefore sees
//! either the complete old record or the complete new one, never a torn
//! mix; a `kill -9` between rename and fsync at worst reverts to the
//! previous durable state, which the recovery scan handles like any
//! other non-terminal record (re-queue and re-run — correct because
//! execution is deterministic).
//!
//! The WAL ordering invariant: a `SUBMIT` is acknowledged to the client
//! only *after* its `queued` record is durable. Accepted-but-lost jobs
//! are therefore impossible; the converse (journaled but the `OK` reply
//! lost to the crash) leaves a job the server will still run — visible
//! under the id the client never learned, which is why ids are also
//! returned by `STATS`-level debugging rather than being load-bearing.
//!
//! # Record format
//!
//! Line-oriented header, byte-framed payload sections (QASM and result
//! can contain anything), trailing FNV-1a checksum over every byte that
//! precedes it:
//!
//! ```text
//! DDJOB1
//! id=<u64>
//! tenant=<name>
//! state=queued|running|done|failed|cancelled
//! attempt=<u32>
//! seed=<u64>
//! shots=<u32>
//! strategy=<compact spec>
//! max_nodes=<u64>
//! deadline_ms=<u64>
//! ckpt_every=<u64>
//! fault=<panic:N or ->
//! code=<u8>                   error code, 0 when not failed
//! qasm_len=<bytes>\n<qasm bytes>
//! result_len=<bytes>\n<result bytes>
//! error_len=<bytes>\n<error bytes>
//! checksum=<16 hex digits>
//! ```

use std::io;
use std::path::{Path, PathBuf};

use ddsim_dd::snapshot::{fnv1a, sync_parent_dir};

use crate::jobs::{parse_fault, JobOptions, JobState};

/// Magic first line of a record file.
const MAGIC: &str = "DDJOB1";

/// One job's durable state.
#[derive(Clone, Debug, PartialEq)]
pub struct JobRecord {
    /// Server-assigned id (monotonic per journal directory).
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Lifecycle state as of the last durable transition.
    pub state: JobState,
    /// Attempts consumed (survives crashes: a panic loop cannot retry
    /// forever by resetting its counter on restart).
    pub attempt: u32,
    /// Execution options.
    pub opts: JobOptions,
    /// The submitted program.
    pub qasm: String,
    /// Result text once `state == Done`.
    pub result: String,
    /// Error rendering once `state == Failed` / `Cancelled`.
    pub error: String,
    /// Exit-code-taxonomy number for `Failed` (0 otherwise).
    pub code: u8,
}

impl JobRecord {
    /// A fresh `queued` record for a just-accepted job.
    pub fn new(id: u64, tenant: String, opts: JobOptions, qasm: String) -> JobRecord {
        JobRecord {
            id,
            tenant,
            state: JobState::Queued,
            attempt: 0,
            opts,
            qasm,
            result: String::new(),
            error: String::new(),
            code: 0,
        }
    }

    /// The record's path under `dir`.
    pub fn path_in(dir: &Path, id: u64) -> PathBuf {
        dir.join(format!("job-{id}.job"))
    }

    /// The job's checkpoint path under `dir` (engine snapshot format).
    pub fn ckpt_path_in(dir: &Path, id: u64) -> PathBuf {
        dir.join(format!("job-{id}.ckpt"))
    }

    /// Serializes the record (checksummed, see the module docs).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str(&format!("id={}\n", self.id));
        out.push_str(&format!("tenant={}\n", self.tenant));
        out.push_str(&format!("state={}\n", self.state.as_str()));
        out.push_str(&format!("attempt={}\n", self.attempt));
        out.push_str(&format!("seed={}\n", self.opts.seed));
        out.push_str(&format!("shots={}\n", self.opts.shots));
        out.push_str(&format!("strategy={}\n", self.opts.strategy.spec()));
        out.push_str(&format!("max_nodes={}\n", self.opts.max_nodes));
        out.push_str(&format!("deadline_ms={}\n", self.opts.deadline_ms));
        out.push_str(&format!("ckpt_every={}\n", self.opts.ckpt_every));
        out.push_str(&format!("fault={}\n", self.opts.fault_spec()));
        out.push_str(&format!("code={}\n", self.code));
        let mut bytes = out.into_bytes();
        for (tag, payload) in [
            ("qasm_len", self.qasm.as_bytes()),
            ("result_len", self.result.as_bytes()),
            ("error_len", self.error.as_bytes()),
        ] {
            bytes.extend_from_slice(format!("{tag}={}\n", payload.len()).as_bytes());
            bytes.extend_from_slice(payload);
        }
        let sum = fnv1a(&bytes);
        bytes.extend_from_slice(format!("\nchecksum={sum:016x}").as_bytes());
        bytes
    }

    /// Parses and checksum-verifies a serialized record.
    pub fn from_bytes(bytes: &[u8]) -> Result<JobRecord, String> {
        let tail_at = bytes
            .len()
            .checked_sub(26)
            .ok_or("record too short for a checksum")?;
        let tail = std::str::from_utf8(&bytes[tail_at..]).map_err(|_| "bad checksum tail")?;
        let sum_hex = tail
            .strip_prefix("\nchecksum=")
            .ok_or("missing checksum line")?;
        let want = u64::from_str_radix(sum_hex, 16).map_err(|_| "bad checksum digits")?;
        let got = fnv1a(&bytes[..tail_at]);
        if want != got {
            return Err(format!("checksum mismatch ({got:016x} != {want:016x})"));
        }

        let mut rest = &bytes[..tail_at];
        let mut line = || -> Result<&str, String> {
            let pos = rest
                .iter()
                .position(|&b| b == b'\n')
                .ok_or("truncated header")?;
            let l = std::str::from_utf8(&rest[..pos]).map_err(|_| "non-UTF-8 header")?;
            rest = &rest[pos + 1..];
            Ok(l)
        };
        if line()? != MAGIC {
            return Err("bad record magic".into());
        }
        let mut field = |key: &str| -> Result<String, String> {
            let l = line()?;
            l.strip_prefix(key)
                .and_then(|l| l.strip_prefix('='))
                .map(str::to_string)
                .ok_or_else(|| format!("expected `{key}=`, got `{l}`"))
        };
        let id = field("id")?.parse().map_err(|_| "bad id")?;
        let tenant = field("tenant")?;
        let state = JobState::parse(&field("state")?)?;
        let attempt = field("attempt")?.parse().map_err(|_| "bad attempt")?;
        let seed = field("seed")?.parse().map_err(|_| "bad seed")?;
        let shots = field("shots")?.parse().map_err(|_| "bad shots")?;
        let strategy = field("strategy")?
            .parse()
            .map_err(|e| format!("bad strategy: {e}"))?;
        let max_nodes = field("max_nodes")?.parse().map_err(|_| "bad max_nodes")?;
        let deadline_ms = field("deadline_ms")?
            .parse()
            .map_err(|_| "bad deadline_ms")?;
        let ckpt_every = field("ckpt_every")?.parse().map_err(|_| "bad ckpt_every")?;
        let fault = match field("fault")?.as_str() {
            "-" => None,
            spec => Some(parse_fault(spec)?),
        };
        let code = field("code")?.parse().map_err(|_| "bad code")?;

        let mut section = |tag: &str| -> Result<String, String> {
            let pos = rest
                .iter()
                .position(|&b| b == b'\n')
                .ok_or("truncated section header")?;
            let l = std::str::from_utf8(&rest[..pos]).map_err(|_| "non-UTF-8 section")?;
            let len: usize = l
                .strip_prefix(tag)
                .and_then(|l| l.strip_prefix('='))
                .ok_or_else(|| format!("expected `{tag}=`"))?
                .parse()
                .map_err(|_| format!("bad `{tag}` length"))?;
            rest = &rest[pos + 1..];
            if rest.len() < len {
                return Err(format!("`{tag}` section exceeds the record"));
            }
            let payload =
                String::from_utf8(rest[..len].to_vec()).map_err(|_| "non-UTF-8 payload")?;
            rest = &rest[len..];
            Ok(payload)
        };
        let qasm = section("qasm_len")?;
        let result = section("result_len")?;
        let error = section("error_len")?;
        if !rest.is_empty() {
            return Err("trailing bytes after sections".into());
        }

        Ok(JobRecord {
            id,
            tenant,
            state,
            attempt,
            opts: JobOptions {
                seed,
                shots,
                strategy,
                max_nodes,
                deadline_ms,
                ckpt_every,
                fault,
            },
            qasm,
            result,
            error,
            code,
        })
    }

    /// Durably writes the record into `dir` (atomic tmp + rename + file
    /// and directory fsync). Any previous version is replaced whole.
    pub fn save(&self, dir: &Path) -> io::Result<()> {
        let path = Self::path_in(dir, self.id);
        let tmp = path.with_extension("job.tmp");
        let bytes = self.to_bytes();
        std::fs::write(&tmp, &bytes)?;
        let f = std::fs::File::open(&tmp)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, &path)?;
        sync_parent_dir(&path).map_err(|e| io::Error::other(e.to_string()))?;
        Ok(())
    }

    /// Loads and verifies one record file.
    pub fn load(path: &Path) -> Result<JobRecord, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_bytes(&bytes)
    }
}

/// Result of a startup journal scan.
#[derive(Debug, Default)]
pub struct ScanOutcome {
    /// Every valid record, sorted by id.
    pub records: Vec<JobRecord>,
    /// Files that failed checksum/parse and were quarantined
    /// (renamed to `*.quarantine`, never deleted).
    pub quarantined: usize,
    /// Leftover `*.tmp` files removed (torn writes mid-rename).
    pub cleaned_tmp: usize,
}

/// Scans `dir` for journal records, cleaning torn temp files and
/// quarantining corrupt records along the way.
pub fn scan(dir: &Path) -> io::Result<ScanOutcome> {
    let mut out = ScanOutcome::default();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.ends_with(".tmp") {
            std::fs::remove_file(&path)?;
            out.cleaned_tmp += 1;
            continue;
        }
        if !(name.starts_with("job-") && name.ends_with(".job")) {
            continue;
        }
        match JobRecord::load(&path) {
            Ok(rec) => out.records.push(rec),
            Err(_) => {
                let mut q = path.clone();
                q.set_extension("quarantine");
                std::fs::rename(&path, &q)?;
                out.quarantined += 1;
            }
        }
    }
    out.records.sort_by_key(|r| r.id);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddsim_core::Strategy;

    fn record() -> JobRecord {
        JobRecord {
            id: 42,
            tenant: "alice".into(),
            state: JobState::Running,
            attempt: 3,
            opts: JobOptions {
                seed: 9,
                shots: 256,
                strategy: Strategy::MaxSize { s_max: 128 },
                max_nodes: 5000,
                deadline_ms: 1500,
                ckpt_every: 4,
                fault: None,
            },
            qasm: "OPENQASM 2.0;\nqreg q[2];\nh q[0];\n".into(),
            result: "counts qubits=2 shots=256\n0 130\n1 126".into(),
            error: String::new(),
            code: 0,
        }
    }

    #[test]
    fn records_round_trip() {
        let rec = record();
        let bytes = rec.to_bytes();
        let back = JobRecord::from_bytes(&bytes).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn corruption_is_detected() {
        let rec = record();
        let bytes = rec.to_bytes();
        for at in [0, 10, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[at] ^= 0x01;
            assert!(
                JobRecord::from_bytes(&bad).is_err(),
                "flip at byte {at} must be caught"
            );
        }
        assert!(JobRecord::from_bytes(&bytes[..bytes.len() - 4]).is_err());
        assert!(JobRecord::from_bytes(b"").is_err());
    }

    #[test]
    fn save_scan_and_quarantine() {
        let dir = std::env::temp_dir().join(format!("ddsim-journal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();

        let mut a = record();
        a.id = 1;
        let mut b = record();
        b.id = 2;
        b.state = JobState::Done;
        a.save(&dir).unwrap();
        b.save(&dir).unwrap();
        // Torn tmp file and a corrupt record alongside.
        std::fs::write(dir.join("job-3.job.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("job-4.job"), b"garbage").unwrap();

        let scan1 = scan(&dir).unwrap();
        assert_eq!(
            scan1.records.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![1, 2]
        );
        assert_eq!(scan1.quarantined, 1);
        assert_eq!(scan1.cleaned_tmp, 1);
        assert!(dir.join("job-4.quarantine").exists(), "never deleted");

        // Rewriting a record replaces it atomically; a second scan sees
        // the new state and no strays.
        let mut a2 = a.clone();
        a2.state = JobState::Failed;
        a2.code = 2;
        a2.error = "resource budget exhausted".into();
        a2.save(&dir).unwrap();
        let scan2 = scan(&dir).unwrap();
        assert_eq!(scan2.cleaned_tmp, 0);
        let got = scan2.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(got.state, JobState::Failed);
        assert_eq!(got.code, 2);

        std::fs::remove_dir_all(&dir).ok();
    }
}
