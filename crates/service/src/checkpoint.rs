//! Checkpoint/restore for streaming ingestion — the fleet loop and the
//! sharded estimation service share one snapshot format and one restore
//! path ([`CheckpointPolicy::load_valid`], refusals through [`reject`]).
//!
//! A [`Checkpoint`] is a versioned, checksummed binary snapshot of
//! everything a streaming ingestion loop needs to resume after a process
//! restart as if it never stopped:
//!
//! - the accumulated [`SuffStats`] — stored as its distinct-tick histogram
//!   plus the sticky saturation flag; every other accumulator is a pure
//!   function of the histogram, rebuilt bitwise by
//!   [`SuffStats::from_histogram`];
//! - the dedup **ledger** of every [`BatchTag`] already folded in — under
//!   at-least-once delivery, restore-then-redeliver is indistinguishable
//!   from a duplicate delivery, so the same idempotence that kills
//!   duplicates replays the stream past the crash point;
//! - the last [`EmResult`] (the next warm start) and
//!   the per-batch iteration trail, so a resumed run's report equals the
//!   uninterrupted one;
//! - the reduce-tier **generation** count, so a restored service resumes
//!   stamping responses where the interrupted one stopped;
//! - a caller-supplied configuration **fingerprint**, so a snapshot is never
//!   restored into a run it does not describe.
//!
//! There are no RNG cursors to snapshot: every random draw in the pipeline
//! is a pure function of configured seeds (workload seeds, fault-plan
//! seeds, per-`(mote, attempt)` outcome mixes), so the seeds in the
//! fingerprinted configuration *are* the cursor state.
//!
//! The wire format is fixed little-endian: magic `CTCK`, a format version,
//! a length-prefixed payload, and an FNV-1a 64-bit checksum of the payload.
//! Version 2 appended the generation count after the batch count; version 3
//! appends the cache-currency flag after the warm-start estimate — whether
//! that estimate was computed from the snapshot's own generation, so a
//! restore knows to re-estimate instead of replaying a pre-snapshot
//! response for data it never saw. Version 1 and 2 snapshots are rejected
//! as unsupported rather than guessed at — a clean start is always a
//! correct fallback. Decoding validates
//! magic, version, length, and checksum before touching the payload, and
//! every failure is a typed [`CheckpointError`] — a corrupt or truncated
//! snapshot must *never* panic the service; callers fall back to a clean
//! start.

use ct_cfg::graph::Cfg;
use ct_core::em::EmResult;
use ct_core::stream::{BatchTag, SuffStats};
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

/// Magic bytes opening every checkpoint file.
pub const MAGIC: [u8; 4] = *b"CTCK";

/// The current checkpoint format version.
pub const VERSION: u32 = 3;

/// Why a checkpoint could not be written, read, or restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The file could not be read or written.
    Io(String),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is not one this build understands.
    UnsupportedVersion(u32),
    /// The file ends before the declared payload and checksum.
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// The payload does not hash to the recorded checksum.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        expected: u64,
        /// Checksum of the payload as read.
        got: u64,
    },
    /// The snapshot describes a different run configuration.
    ConfigMismatch {
        /// Fingerprint of the running configuration.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        got: u64,
    },
    /// The payload is internally inconsistent (impossible lengths, ranges).
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(msg) => write!(f, "checkpoint io: {msg}"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CheckpointError::UnsupportedVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (expected {VERSION})")
            }
            CheckpointError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated checkpoint: expected {expected} bytes, got {got}"
                )
            }
            CheckpointError::ChecksumMismatch { expected, got } => write!(
                f,
                "checkpoint checksum mismatch: recorded {expected:#018x}, computed {got:#018x}"
            ),
            CheckpointError::ConfigMismatch { expected, got } => write!(
                f,
                "checkpoint was taken under a different configuration: \
                 running {expected:#018x}, snapshot {got:#018x}"
            ),
            CheckpointError::Malformed(msg) => write!(f, "malformed checkpoint: {msg}"),
        }
    }
}

impl Error for CheckpointError {}

/// FNV-1a 64-bit hash — the zero-dependency checksum of the payload.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A serialized EM estimate: [`EmResult`] with the
/// probabilities flattened to raw `f64`s, so decoding needs no CFG and the
/// range/shape validation happens explicitly at restore time
/// ([`CheckpointEstimate::to_em`]) instead of inside a panicking
/// constructor.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointEstimate {
    /// Branch probabilities, one per CFG branch site.
    pub probs: Vec<f64>,
    /// Iterations the producing EM run executed.
    pub iterations: usize,
    /// Final log-likelihood.
    pub loglik: f64,
    /// Whether the producing run converged.
    pub converged: bool,
    /// The last parameter change observed.
    pub final_delta: f64,
    /// Samples unexplained at the final parameters.
    pub unexplained: usize,
    /// Posterior expected traversal counts per edge.
    pub edge_counts: Vec<f64>,
    /// Whether the likelihood watchdog rewound.
    pub rewound: bool,
}

impl CheckpointEstimate {
    /// Flattens an estimate for serialization.
    pub fn from_em(r: &EmResult) -> CheckpointEstimate {
        CheckpointEstimate {
            probs: r.probs.as_slice().to_vec(),
            iterations: r.iterations,
            loglik: r.loglik,
            converged: r.converged,
            final_delta: r.final_delta,
            unexplained: r.unexplained,
            edge_counts: r.edge_counts.clone(),
            rewound: r.rewound,
        }
    }

    /// Revalidates the estimate against `cfg` and rebuilds the
    /// [`EmResult`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] when the probability vector has the
    /// wrong arity for `cfg`, any probability is outside `[0, 1]` or
    /// non-finite, or the edge-count vector has the wrong arity — the
    /// checks that keep a hostile payload from reaching the panicking
    /// [`BranchProbs::from_vec`](ct_cfg::profile::BranchProbs::from_vec).
    pub fn to_em(&self, cfg: &Cfg) -> Result<EmResult, CheckpointError> {
        let arity = ct_cfg::profile::BranchProbs::uniform(cfg, 0.5)
            .as_slice()
            .len();
        if self.probs.len() != arity {
            return Err(CheckpointError::Malformed(format!(
                "estimate has {} branch probabilities, CFG has {arity} branch sites",
                self.probs.len()
            )));
        }
        if let Some(p) = self
            .probs
            .iter()
            .find(|p| !p.is_finite() || !(0.0..=1.0).contains(*p))
        {
            return Err(CheckpointError::Malformed(format!(
                "branch probability {p} outside [0, 1]"
            )));
        }
        if self.edge_counts.len() != cfg.edge_count() {
            return Err(CheckpointError::Malformed(format!(
                "estimate has {} edge counts, CFG has {} edges",
                self.edge_counts.len(),
                cfg.edge_count()
            )));
        }
        Ok(EmResult {
            probs: ct_cfg::profile::BranchProbs::from_vec(cfg, self.probs.clone()),
            iterations: self.iterations,
            loglik: self.loglik,
            converged: self.converged,
            final_delta: self.final_delta,
            unexplained: self.unexplained,
            edge_counts: self.edge_counts.clone(),
            rewound: self.rewound,
        })
    }
}

/// A restorable snapshot of a streaming ingestion loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Fingerprint of the producing configuration (see
    /// [`CheckpointError::ConfigMismatch`]).
    pub fingerprint: u64,
    /// The accumulated statistics of every ingested batch.
    pub stats: SuffStats,
    /// Every batch tag already folded into `stats`, sorted — the
    /// at-least-once dedup ledger.
    pub ledger: Vec<BatchTag>,
    /// EM iterations of each per-batch re-estimation so far (empty for
    /// reduce-tier snapshots, which estimate on demand, not per batch).
    pub batch_iterations: Vec<usize>,
    /// Batches ingested (the accumulator's count).
    pub batches: u64,
    /// Reduce-tier generations completed (the fleet's per-batch path
    /// reduces once per batch, so there it equals `batches`).
    pub generations: u64,
    /// The estimate after the last ingested batch (the next warm start).
    pub last: Option<CheckpointEstimate>,
    /// Whether `last` was computed from this snapshot's own `generations`
    /// (i.e. the serve cache was current when the snapshot was cut). A
    /// snapshot taken after further generations absorbed carries `last`
    /// only as a warm start — restoring it as a cached response would
    /// replay a pre-snapshot answer for batches it never saw.
    pub cached: bool,
}

// ---------------------------------------------------------------- encoding

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// A bounds-checked little-endian payload reader: every read that would run
/// past the end returns [`CheckpointError::Malformed`] instead of panicking.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], CheckpointError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(CheckpointError::Malformed(format!(
                "payload ends inside {what}"
            ))),
        }
    }

    fn u64(&mut self, what: &str) -> Result<u64, CheckpointError> {
        let s = self.take(8, what)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    fn f64(&mut self, what: &str) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn byte_flag(&mut self, what: &str) -> Result<bool, CheckpointError> {
        match self.take(1, what)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CheckpointError::Malformed(format!(
                "flag {what} has value {b}, expected 0 or 1"
            ))),
        }
    }

    /// A length prefix for `elem_bytes`-sized elements, bounded by the
    /// bytes actually remaining (so a corrupt length cannot drive a huge
    /// allocation).
    fn len_prefix(&mut self, elem_bytes: usize, what: &str) -> Result<usize, CheckpointError> {
        let n = self.u64(what)?;
        let remaining = (self.bytes.len() - self.pos) / elem_bytes.max(1);
        if n > remaining as u64 {
            return Err(CheckpointError::Malformed(format!(
                "{what} claims {n} entries but only {remaining} fit in the payload"
            )));
        }
        Ok(n as usize)
    }

    fn finished(&self) -> Result<(), CheckpointError> {
        if self.pos != self.bytes.len() {
            return Err(CheckpointError::Malformed(format!(
                "{} trailing bytes after the payload",
                self.bytes.len() - self.pos
            )));
        }
        Ok(())
    }
}

impl Checkpoint {
    /// Serializes the snapshot: magic, version, length-prefixed payload,
    /// FNV-1a checksum.
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        put_u64(&mut p, self.fingerprint);
        put_u64(&mut p, self.stats.cycles_per_tick());
        p.push(self.stats.saturated() as u8);
        put_u64(&mut p, self.stats.distinct() as u64);
        for (t, c) in self.stats.histogram() {
            put_u64(&mut p, t);
            put_u64(&mut p, c);
        }
        put_u64(&mut p, self.ledger.len() as u64);
        for tag in &self.ledger {
            put_u64(&mut p, tag.mote);
            put_u64(&mut p, tag.seq);
        }
        put_u64(&mut p, self.batch_iterations.len() as u64);
        for &it in &self.batch_iterations {
            put_u64(&mut p, it as u64);
        }
        put_u64(&mut p, self.batches);
        put_u64(&mut p, self.generations);
        match &self.last {
            None => p.push(0),
            Some(e) => {
                p.push(1);
                put_u64(&mut p, e.probs.len() as u64);
                for &v in &e.probs {
                    put_f64(&mut p, v);
                }
                put_u64(&mut p, e.iterations as u64);
                put_f64(&mut p, e.loglik);
                p.push(e.converged as u8);
                put_f64(&mut p, e.final_delta);
                put_u64(&mut p, e.unexplained as u64);
                put_u64(&mut p, e.edge_counts.len() as u64);
                for &v in &e.edge_counts {
                    put_f64(&mut p, v);
                }
                p.push(e.rewound as u8);
            }
        }
        p.push(self.cached as u8);

        let mut out = Vec::with_capacity(4 + 4 + 8 + p.len() + 8);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        put_u64(&mut out, p.len() as u64);
        let checksum = fnv1a64(&p);
        out.extend_from_slice(&p);
        put_u64(&mut out, checksum);
        out
    }

    /// Deserializes a snapshot, validating magic, version, length, and
    /// checksum before parsing the payload.
    ///
    /// # Errors
    ///
    /// Every malformation maps to a typed [`CheckpointError`]; this
    /// function never panics on hostile input.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, CheckpointError> {
        if bytes.len() < 16 || bytes[..4] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        let mut v = [0u8; 4];
        v.copy_from_slice(&bytes[4..8]);
        let version = u32::from_le_bytes(v);
        if version != VERSION {
            return Err(CheckpointError::UnsupportedVersion(version));
        }
        let mut l = [0u8; 8];
        l.copy_from_slice(&bytes[8..16]);
        // Header + payload + checksum; a length no buffer can hold
        // saturates, so it reads as truncated instead of wrapping.
        let expected = usize::try_from(u64::from_le_bytes(l))
            .ok()
            .and_then(|n| n.checked_add(24))
            .unwrap_or(usize::MAX);
        if bytes.len() < expected {
            return Err(CheckpointError::Truncated {
                expected,
                got: bytes.len(),
            });
        }
        let payload = &bytes[16..expected - 8];
        let mut c = [0u8; 8];
        c.copy_from_slice(&bytes[expected - 8..expected]);
        let recorded = u64::from_le_bytes(c);
        let computed = fnv1a64(payload);
        if recorded != computed {
            return Err(CheckpointError::ChecksumMismatch {
                expected: recorded,
                got: computed,
            });
        }

        let mut r = Reader::new(payload);
        let fingerprint = r.u64("fingerprint")?;
        let cycles_per_tick = r.u64("cycles_per_tick")?;
        let saturated = r.byte_flag("saturated flag")?;
        let hist_len = r.len_prefix(16, "histogram length")?;
        let mut hist = Vec::with_capacity(hist_len);
        for _ in 0..hist_len {
            let t = r.u64("histogram tick")?;
            let c = r.u64("histogram count")?;
            if c == 0 {
                return Err(CheckpointError::Malformed(
                    "zero-count histogram entry".into(),
                ));
            }
            if let Some(&(prev, _)) = hist.last() {
                if prev >= t {
                    return Err(CheckpointError::Malformed(
                        "histogram ticks not strictly ascending".into(),
                    ));
                }
            }
            hist.push((t, c));
        }
        let stats = SuffStats::from_histogram(cycles_per_tick, hist, saturated);

        let ledger_len = r.len_prefix(16, "ledger length")?;
        let mut ledger = Vec::with_capacity(ledger_len);
        for _ in 0..ledger_len {
            let mote = r.u64("ledger mote")?;
            let seq = r.u64("ledger seq")?;
            let tag = BatchTag { mote, seq };
            if let Some(&prev) = ledger.last() {
                if prev >= tag {
                    return Err(CheckpointError::Malformed(
                        "ledger tags not strictly ascending".into(),
                    ));
                }
            }
            ledger.push(tag);
        }

        let iters_len = r.len_prefix(8, "iteration-trail length")?;
        let mut batch_iterations = Vec::with_capacity(iters_len);
        for _ in 0..iters_len {
            batch_iterations.push(r.u64("batch iterations")? as usize);
        }
        let batches = r.u64("batch count")?;
        let generations = r.u64("generation count")?;

        let last = if r.byte_flag("estimate flag")? {
            let probs_len = r.len_prefix(8, "probability length")?;
            let mut probs = Vec::with_capacity(probs_len);
            for _ in 0..probs_len {
                probs.push(r.f64("branch probability")?);
            }
            let iterations = r.u64("estimate iterations")? as usize;
            let loglik = r.f64("loglik")?;
            let converged = r.byte_flag("converged flag")?;
            let final_delta = r.f64("final delta")?;
            let unexplained = r.u64("unexplained count")? as usize;
            let edge_len = r.len_prefix(8, "edge-count length")?;
            let mut edge_counts = Vec::with_capacity(edge_len);
            for _ in 0..edge_len {
                edge_counts.push(r.f64("edge count")?);
            }
            let rewound = r.byte_flag("rewound flag")?;
            Some(CheckpointEstimate {
                probs,
                iterations,
                loglik,
                converged,
                final_delta,
                unexplained,
                edge_counts,
                rewound,
            })
        } else {
            None
        };
        let cached = r.byte_flag("cached flag")?;
        if cached && last.is_none() {
            return Err(CheckpointError::Malformed(
                "cache-currency flag set without a warm-start estimate".into(),
            ));
        }
        r.finished()?;

        Ok(Checkpoint {
            fingerprint,
            stats,
            ledger,
            batch_iterations,
            batches,
            generations,
            last,
            cached,
        })
    }

    /// Writes the snapshot atomically: the encoding goes to a sibling
    /// temporary file first, then renames over `path`, so a crash mid-write
    /// can never leave a half-written snapshot where a restore will look.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the write or rename fails.
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let io = |e: std::io::Error| CheckpointError::Io(format!("{}: {e}", path.display()));
        std::fs::write(&tmp, self.encode()).map_err(io)?;
        std::fs::rename(&tmp, path).map_err(io)
    }

    /// Best-effort save with observability: a success bumps `ckpt.written`,
    /// a failure bumps `ckpt.write_failed` and emits a
    /// `warn.ckpt_write_failed` event — losing checkpoint durability must
    /// never fail ingestion, so no error is returned.
    pub fn save_observed(&self, path: &Path) {
        match self.save(path) {
            Ok(()) => ct_obs::Counter::new("ckpt.written").incr(),
            Err(e) => {
                ct_obs::Counter::new("ckpt.write_failed").incr();
                ct_obs::emit(
                    "warn.ckpt_write_failed",
                    vec![("error", e.to_string().into())],
                );
            }
        }
    }

    /// Reads and decodes a snapshot from `path`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when the file cannot be read; otherwise the
    /// typed decoding errors of [`Checkpoint::decode`].
    pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
        let bytes = std::fs::read(path)
            .map_err(|e| CheckpointError::Io(format!("{}: {e}", path.display())))?;
        Checkpoint::decode(&bytes)
    }
}

// ---------------------------------------------------------------- policy

/// When and where a streaming loop snapshots itself.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CheckpointPolicy {
    /// Snapshot destination; `None` disables checkpointing entirely.
    pub path: Option<PathBuf>,
    /// Snapshot cadence: write after every `every` ingested batches
    /// (`0` never writes). Both streaming loops apply it at reduce
    /// boundaries through [`CheckpointPolicy::due`]: a snapshot is cut
    /// whenever the batch count crosses a multiple of `every`.
    pub every: u64,
    /// Test-only crash simulation: stop ingesting after this many batches
    /// *in this process* and return a halted report, as if the process
    /// died at that batch boundary.
    pub halt_after: Option<u64>,
}

impl CheckpointPolicy {
    /// No checkpointing (the default for one-shot runs).
    pub fn disabled() -> CheckpointPolicy {
        CheckpointPolicy::default()
    }

    /// Checkpoints to `path` after every ingested batch.
    pub fn to(path: impl Into<PathBuf>) -> CheckpointPolicy {
        CheckpointPolicy {
            path: Some(path.into()),
            every: 1,
            halt_after: None,
        }
    }

    /// Sets the snapshot cadence (builder style).
    pub fn every(mut self, batches: u64) -> CheckpointPolicy {
        self.every = batches;
        self
    }

    /// Simulates a crash after `batches` ingested batches (builder style).
    pub fn halt_after(mut self, batches: u64) -> CheckpointPolicy {
        self.halt_after = Some(batches);
        self
    }

    /// True when snapshots will actually be written.
    pub fn enabled(&self) -> bool {
        self.path.is_some() && self.every > 0
    }

    /// Where a loop whose batch count moved from `before` to `after` must
    /// write a snapshot: the policy's path when it is enabled and the move
    /// crossed a multiple of [`CheckpointPolicy::every`], else `None`. For
    /// a one-batch step the crossing is `after % every == 0`.
    pub fn due(&self, before: u64, after: u64) -> Option<&Path> {
        let crossed = self.enabled() && after / self.every > before / self.every;
        self.path.as_deref().filter(|_| crossed)
    }

    /// Loads the policy's snapshot for a restart and validates it against
    /// the running configuration. Returns the checkpoint with its warm
    /// start revalidated against `cfg`, or `None` for a clean start: there
    /// is no snapshot, or it was refused through [`reject`]. A snapshot is
    /// refused when it does not decode, was taken under another
    /// `fingerprint`, disagrees with itself (`batches` vs the ledger,
    /// `generations > batches`, a resolution other than
    /// `cycles_per_tick`), or carries a warm start that fails
    /// [`CheckpointEstimate::to_em`]. A loop with a stricter shape checks
    /// it on the returned checkpoint and refuses through [`reject`] too.
    pub fn load_valid(
        &self,
        fingerprint: u64,
        cycles_per_tick: u64,
        cfg: &Cfg,
    ) -> Option<(Checkpoint, Option<EmResult>)> {
        let path = self.path.as_ref().filter(|p| p.exists())?;
        match validate(path, fingerprint, cycles_per_tick, cfg) {
            Ok(restored) => Some(restored),
            Err(e) => {
                reject(&e);
                None
            }
        }
    }
}

fn validate(
    path: &Path,
    fingerprint: u64,
    cycles_per_tick: u64,
    cfg: &Cfg,
) -> Result<(Checkpoint, Option<EmResult>), CheckpointError> {
    let ck = Checkpoint::load(path)?;
    if ck.fingerprint != fingerprint {
        return Err(CheckpointError::ConfigMismatch {
            expected: fingerprint,
            got: ck.fingerprint,
        });
    }
    // On-demand estimation may leave no warm start at `batches > 0`, and
    // several batches may share one generation.
    let consistent = ck.batches == ck.ledger.len() as u64
        && ck.generations <= ck.batches
        && ck.stats.cycles_per_tick() == cycles_per_tick;
    if !consistent {
        return Err(CheckpointError::Malformed(
            "snapshot sections disagree on batch count or resolution".into(),
        ));
    }
    let last = ck.last.as_ref().map(|e| e.to_em(cfg)).transpose()?;
    Ok((ck, last))
}

/// Records a refused snapshot: the `ckpt.rejected` counter, a
/// `warn.ckpt_rejected` event with the typed reason, and — with the flight
/// recorder on — a `ckpt_rejected` incident dump. The caller then starts
/// clean: a bad snapshot degrades a restart, never a run.
pub fn reject(e: &CheckpointError) {
    ct_obs::Counter::new("ckpt.rejected").incr();
    ct_obs::emit("warn.ckpt_rejected", vec![("error", e.to_string().into())]);
    // After the emit, so the dump's tail contains the warning itself.
    ct_obs::flight::incident("ckpt_rejected");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_checkpoint() -> Checkpoint {
        let mut stats = SuffStats::new(8);
        for t in [115, 215, 115, 9] {
            stats.push(t);
        }
        Checkpoint {
            fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            stats,
            ledger: vec![
                BatchTag { mote: 0, seq: 0 },
                BatchTag { mote: 1, seq: 0 },
                BatchTag { mote: 2, seq: 5 },
            ],
            batch_iterations: vec![41, 7, 3],
            batches: 3,
            generations: 3,
            last: Some(CheckpointEstimate {
                probs: vec![0.7, 0.25],
                iterations: 12,
                loglik: -431.25,
                converged: true,
                final_delta: 1e-7,
                unexplained: 0,
                edge_counts: vec![700.0, 300.0, 700.0, 300.0],
                rewound: false,
            }),
            cached: true,
        }
    }

    #[test]
    fn roundtrips_bitwise() {
        let ck = sample_checkpoint();
        let decoded = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(decoded, ck);
        // Estimate-less snapshots too (a reduce-tier snapshot taken before
        // any estimate was requested).
        let bare = Checkpoint {
            last: None,
            cached: false,
            batch_iterations: Vec::new(),
            generations: 1,
            ..sample_checkpoint()
        };
        assert_eq!(Checkpoint::decode(&bare.encode()).unwrap(), bare);
        // A warm start that was no longer current when the snapshot was cut.
        let stale = Checkpoint {
            cached: false,
            generations: 5,
            ..sample_checkpoint()
        };
        assert_eq!(Checkpoint::decode(&stale.encode()).unwrap(), stale);
    }

    #[test]
    fn cached_flag_without_an_estimate_is_malformed() {
        let ck = Checkpoint {
            last: None,
            cached: true,
            batch_iterations: Vec::new(),
            ..sample_checkpoint()
        };
        assert!(matches!(
            Checkpoint::decode(&ck.encode()).unwrap_err(),
            CheckpointError::Malformed(_)
        ));
    }

    #[test]
    fn every_single_byte_flip_is_rejected_with_a_typed_error() {
        let bytes = sample_checkpoint().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            assert!(
                Checkpoint::decode(&bad).is_err(),
                "flip at byte {i} was accepted"
            );
        }
    }

    #[test]
    fn every_truncation_is_rejected_with_a_typed_error() {
        let bytes = sample_checkpoint().encode();
        for len in 0..bytes.len() {
            assert!(
                Checkpoint::decode(&bytes[..len]).is_err(),
                "truncation to {len} bytes was accepted"
            );
        }
    }

    #[test]
    fn header_failures_are_distinguished() {
        let bytes = sample_checkpoint().encode();
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            Checkpoint::decode(&wrong_magic).unwrap_err(),
            CheckpointError::BadMagic
        );
        let mut future = bytes.clone();
        future[4] = 99;
        assert_eq!(
            Checkpoint::decode(&future).unwrap_err(),
            CheckpointError::UnsupportedVersion(99)
        );
        // Older versions are rejected, not guessed at: v1 (pre-service) and
        // v2 (pre cache-currency flag) alike.
        for old in [1u8, 2] {
            let mut v = bytes.clone();
            v[4] = old;
            assert_eq!(
                Checkpoint::decode(&v).unwrap_err(),
                CheckpointError::UnsupportedVersion(old as u32)
            );
        }
        assert!(matches!(
            Checkpoint::decode(&bytes[..bytes.len() - 3]).unwrap_err(),
            CheckpointError::Truncated { .. }
        ));
        // Length fields whose header + payload + checksum total overflows
        // must read as truncated, not wrap and panic while slicing.
        for len in [u64::MAX, u64::MAX - 23, u64::MAX - 24] {
            let mut hostile = bytes[..32].to_vec();
            hostile[8..16].copy_from_slice(&len.to_le_bytes());
            assert!(
                matches!(
                    Checkpoint::decode(&hostile).unwrap_err(),
                    CheckpointError::Truncated { got: 32, .. }
                ),
                "length {len:#x}"
            );
        }
        let mut corrupt = bytes.clone();
        let mid = 16 + 4; // inside the payload
        corrupt[mid] ^= 0xFF;
        assert!(matches!(
            Checkpoint::decode(&corrupt).unwrap_err(),
            CheckpointError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn rebuilt_stats_match_pushed_stats_bitwise() {
        let ck = sample_checkpoint();
        let decoded = Checkpoint::decode(&ck.encode()).unwrap();
        assert_eq!(decoded.stats, ck.stats);
        assert_eq!(
            decoded.stats.mean_cycles().to_bits(),
            ck.stats.mean_cycles().to_bits()
        );
    }

    #[test]
    fn estimate_revalidation_rejects_hostile_values() {
        let cfg = ct_cfg::builder::diamond();
        let mut est = CheckpointEstimate {
            probs: vec![0.7],
            iterations: 3,
            loglik: -10.0,
            converged: true,
            final_delta: 0.0,
            unexplained: 0,
            edge_counts: vec![1.0; cfg.edges().len()],
            rewound: false,
        };
        assert!(est.to_em(&cfg).is_ok());
        est.probs = vec![1.5];
        assert!(matches!(
            est.to_em(&cfg).unwrap_err(),
            CheckpointError::Malformed(_)
        ));
        est.probs = vec![f64::NAN];
        assert!(est.to_em(&cfg).is_err());
        est.probs = vec![0.5, 0.5];
        assert!(est.to_em(&cfg).is_err(), "wrong arity accepted");
        est.probs = vec![0.5];
        est.edge_counts = vec![1.0];
        assert!(est.to_em(&cfg).is_err(), "wrong edge arity accepted");
    }

    #[test]
    fn save_and_load_roundtrip_atomically() {
        let ck = sample_checkpoint();
        let path = std::env::temp_dir().join(format!("ct_ckpt_unit_{}.ckpt", std::process::id()));
        ck.save(&path).unwrap();
        assert_eq!(Checkpoint::load(&path).unwrap(), ck);
        // No temporary residue.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists());
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            Checkpoint::load(&path).unwrap_err(),
            CheckpointError::Io(_)
        ));
    }

    #[test]
    fn policy_builders_shape() {
        let off = CheckpointPolicy::disabled();
        assert!(!off.enabled());
        let on = CheckpointPolicy::to("/tmp/x.ckpt").every(4).halt_after(2);
        assert!(on.enabled());
        assert_eq!(on.every, 4);
        assert_eq!(on.halt_after, Some(2));
        assert!(!CheckpointPolicy::to("/tmp/x.ckpt").every(0).enabled());
    }
}
