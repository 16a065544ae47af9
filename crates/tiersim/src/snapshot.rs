//! Versioned crash-recovery snapshot frames (DESIGN.md §13).
//!
//! A [`MachineSnapshot`] is an opaque, self-checking byte frame holding
//! the *complete* mutable state of a run at a sampling-window boundary:
//! page table and LRU lists, PMU/CHMU counters, policy state, the
//! migration order queue with enqueue timestamps, fault-plan RNG
//! cursors and retry/backoff state, per-thread relative clocks, the
//! metrics registry with its histogram buckets, the trace ring, and the
//! `[fast, slow]` page-stall oracle. Resuming from a snapshot replays
//! the rest of the run byte-identically to the uninterrupted execution,
//! because capture happens at window edges where every scratch buffer
//! is provably empty.
//!
//! # Frame layout (all little-endian)
//!
//! | offset | bytes | field |
//! |-------:|------:|-------|
//! | 0      | 8     | magic `b"PACTSNAP"` |
//! | 8      | 4     | format version ([`FORMAT_VERSION`]) |
//! | 12     | 8     | configuration fingerprint |
//! | 20     | 8     | completed-window count at capture |
//! | 28     | 8     | payload length `L` |
//! | 36     | `L`   | machine payload |
//! | 36+L   | 8     | FNV-1a checksum of bytes `0..36+L` |
//!
//! The configuration fingerprint covers every [`MachineConfig`] field
//! *except* `snapshot_every`: a run may be resumed under a different
//! capture cadence, but never under a different machine. Corrupt, truncated,
//! or version-mismatched frames are rejected with a structured
//! [`SimError::Snapshot`](crate::SimError::Snapshot) — never undefined
//! behaviour.

use pact_stats::codec::ByteWriter;

use crate::config::MachineConfig;
use crate::types::Tier;

/// Frame magic: the first eight bytes of every snapshot.
pub const MAGIC: [u8; 8] = *b"PACTSNAP";

/// Snapshot format version this build reads and writes. Bumped on any
/// payload layout change; old frames are rejected, not reinterpreted.
/// Version 2 added the fleet section (per-tenant PMU mirrors, token
/// buckets, and the admission deferral queue) for multi-tenant cells.
/// Version 3 stores the counters as per-tenant lanes only (the run
/// totals are their sum), writes the admission state unconditionally,
/// and has PACT's policy blob write its counters through the one
/// `PmuCounters` codec, whose field order differs from the policy's
/// old private copy.
pub const FORMAT_VERSION: u32 = 3;

/// Frame header bytes before the payload (magic + version + fingerprint
/// + window + payload length).
const HEADER_BYTES: usize = 8 + 4 + 8 + 8 + 8;

/// Trailing checksum bytes.
const CHECKSUM_BYTES: usize = 8;

/// An opaque machine snapshot frame.
///
/// Produced through [`RunSpec::snapshot_sink`](crate::RunSpec::snapshot_sink),
/// consumed through [`RunSpec::resume_from`](crate::RunSpec::resume_from).
/// The byte representation is stable for a given
/// [`FORMAT_VERSION`] and safe to persist; integrity and
/// configuration compatibility are verified on restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSnapshot {
    bytes: Vec<u8>,
}

impl MachineSnapshot {
    /// Wraps raw frame bytes (e.g. read back from disk). No validation
    /// happens here; restore verifies the frame in full.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        Self { bytes }
    }

    /// The frame bytes, suitable for persisting.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the snapshot, returning the frame bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Number of completed sampling windows at capture time, read from
    /// the frame header after a magic/version/length check (the full
    /// checksum is verified on restore).
    ///
    /// # Errors
    ///
    /// Returns a description of the malformation for frames too short
    /// or with the wrong magic or version.
    pub fn window(&self) -> Result<u64, String> {
        check_header(&self.bytes)?;
        Ok(read_u64(&self.bytes, 20))
    }
}

/// FNV-1a over `bytes` (the frame checksum and the configuration
/// fingerprint accumulator).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    // Invariant: callers check `bytes.len()` covers `at + 8` first.
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// Validates magic, version, and declared payload length against the
/// frame size. Shared by [`MachineSnapshot::window`] and
/// [`open_frame`].
fn check_header(bytes: &[u8]) -> Result<(), String> {
    if bytes.len() < HEADER_BYTES + CHECKSUM_BYTES {
        return Err(format!(
            "frame is {} bytes, smaller than the {}-byte header",
            bytes.len(),
            HEADER_BYTES + CHECKSUM_BYTES
        ));
    }
    if bytes[..8] != MAGIC {
        return Err("bad magic: not a PACT snapshot".into());
    }
    // Invariant: length checked above, slices are in range.
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(format!(
            "format version {version}, this build reads version {FORMAT_VERSION}"
        ));
    }
    let payload_len = read_u64(bytes, 28);
    let expect = (HEADER_BYTES + CHECKSUM_BYTES) as u64 + payload_len;
    if bytes.len() as u64 != expect {
        return Err(format!(
            "frame is {} bytes but the header declares {expect}",
            bytes.len()
        ));
    }
    Ok(())
}

/// Builds a sealed frame around `payload`.
pub(crate) fn seal_frame(window: u64, cfg_fingerprint: u64, payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_BYTES + payload.len() + CHECKSUM_BYTES);
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&cfg_fingerprint.to_le_bytes());
    bytes.extend_from_slice(&window.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(payload);
    let checksum = fnv1a(&bytes);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    bytes
}

/// Verifies a frame end to end (magic, version, length, checksum,
/// configuration fingerprint) and returns `(window, payload)`.
pub(crate) fn open_frame(bytes: &[u8], expect_fingerprint: u64) -> Result<(u64, &[u8]), String> {
    check_header(bytes)?;
    let body = &bytes[..bytes.len() - CHECKSUM_BYTES];
    let stored = read_u64(bytes, bytes.len() - CHECKSUM_BYTES);
    let actual = fnv1a(body);
    if stored != actual {
        return Err(format!(
            "checksum mismatch (stored {stored:#018x}, computed {actual:#018x}): frame is corrupt"
        ));
    }
    let fingerprint = read_u64(bytes, 12);
    if fingerprint != expect_fingerprint {
        return Err(format!(
            "configuration fingerprint {fingerprint:#018x} does not match this machine's \
             {expect_fingerprint:#018x}: snapshot was captured under a different configuration"
        ));
    }
    let window = read_u64(bytes, 20);
    Ok((
        window,
        &bytes[HEADER_BYTES..HEADER_BYTES + (body.len() - HEADER_BYTES)],
    ))
}

/// Deterministic fingerprint of every behaviour-relevant
/// [`MachineConfig`] field.
///
/// `snapshot_every` is *excluded*: capture cadence only decides when
/// frames are emitted, so a frame may be resumed under any cadence.
pub fn config_fingerprint(cfg: &MachineConfig) -> u64 {
    let mut w = ByteWriter::new();
    w.put_f64(cfg.freq_ghz);
    w.put_usize(cfg.mshrs);
    w.put_u32(cfg.hit_cycles);
    w.put_u32(cfg.issue_cycles);
    w.put_u64(cfg.llc.size_bytes);
    w.put_usize(cfg.llc.ways);
    w.put_bool(cfg.prefetch.enabled);
    w.put_u32(cfg.prefetch.trigger);
    w.put_u32(cfg.prefetch.degree);
    w.put_f64(cfg.prefetch.coverage);
    for t in &cfg.tiers {
        w.put_f64(t.latency_ns);
        w.put_f64(t.bandwidth_gbps);
    }
    w.put_u64(cfg.fast_tier_pages);
    w.put_bool(cfg.thp);
    w.put_u64(cfg.thp_unit_pages);
    w.put_u64(cfg.window_cycles);
    w.put_u64(cfg.pebs.rate);
    w.put_u8(match cfg.pebs.scope {
        crate::config::PebsScope::SlowOnly => 0,
        crate::config::PebsScope::BothTiers => 1,
    });
    w.put_u32(cfg.pebs.sample_overhead_cycles);
    w.put_u64(cfg.migration.per_page_cycles);
    w.put_u64(cfg.migration.daemon_pages_per_window);
    w.put_u64(cfg.migration.hint_fault_cycles);
    w.put_u64(cfg.migration.shootdown_cycles_per_page);
    w.put_usize(cfg.chmu_counters);
    w.put_bool(cfg.track_page_stalls);
    w.put_u64(cfg.seed);
    w.put_bool(cfg.fault_plan.is_some());
    if let Some(p) = &cfg.fault_plan {
        w.put_u64(p.seed);
        w.put_u64(p.window_start);
        w.put_u64(p.window_end);
        w.put_f64(p.drop_order);
        w.put_f64(p.fail_migration);
        w.put_u32(p.max_retries);
        w.put_u64(p.backoff_windows);
        w.put_bool(p.stall.is_some());
        if let Some(s) = &p.stall {
            w.put_u8(match s.tier {
                Tier::Fast => 0,
                Tier::Slow => 1,
            });
            w.put_u64(s.lines);
            w.put_f64(s.prob);
        }
        w.put_f64(p.pebs_loss);
        w.put_f64(p.chmu_overflow);
    }
    w.put_bool(cfg.invariants.is_some());
    if let Some(set) = &cfg.invariants {
        w.put_bool(set.pages);
        w.put_bool(set.migration);
        w.put_bool(set.bandwidth);
        w.put_bool(set.mshr);
        w.put_bool(set.counters);
        w.put_bool(set.windows);
    }
    w.put_usize(cfg.tenants.len());
    for t in &cfg.tenants {
        w.put_str(&t.name);
        w.put_u32(t.qos_weight);
    }
    w.put_bool(cfg.admission.is_some());
    if let Some(adm) = &cfg.admission {
        w.put_u64(adm.budget_per_window);
        w.put_f64(adm.saturation_backlog_cycles);
        w.put_u64(adm.defer_windows);
    }
    fnv1a(&w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sealed_frame_round_trips() {
        let frame = seal_frame(7, 0xDEAD_BEEF, &[1, 2, 3, 4]);
        let (window, payload) = open_frame(&frame, 0xDEAD_BEEF).unwrap();
        assert_eq!(window, 7);
        assert_eq!(payload, &[1, 2, 3, 4]);
        let snap = MachineSnapshot::from_bytes(frame);
        assert_eq!(snap.window().unwrap(), 7);
    }

    #[test]
    fn corrupted_byte_is_rejected() {
        let frame = seal_frame(3, 1, b"payload");
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert!(
                open_frame(&bad, 1).is_err(),
                "flipping byte {i} went undetected"
            );
        }
    }

    #[test]
    fn version_bump_is_rejected_with_a_version_message() {
        let mut frame = seal_frame(0, 1, &[]);
        frame[8..12].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        // Re-seal the checksum so only the version differs.
        let body_len = frame.len() - CHECKSUM_BYTES;
        let sum = fnv1a(&frame[..body_len]);
        frame[body_len..].copy_from_slice(&sum.to_le_bytes());
        let err = open_frame(&frame, 1).unwrap_err();
        assert!(err.contains("format version"), "{err}");
    }

    #[test]
    fn truncated_and_oversized_frames_are_rejected() {
        let frame = seal_frame(0, 1, &[9; 32]);
        assert!(open_frame(&frame[..frame.len() - 1], 1).is_err());
        assert!(open_frame(&frame[..10], 1).is_err());
        assert!(open_frame(&[], 1).is_err());
        let mut long = frame.clone();
        long.push(0);
        assert!(open_frame(&long, 1).is_err());
    }

    #[test]
    fn fingerprint_mismatch_is_rejected() {
        let frame = seal_frame(0, 1, &[]);
        let err = open_frame(&frame, 2).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn fingerprint_ignores_cadence_but_not_the_rest() {
        let base = MachineConfig::skylake_cxl(512);
        let h = config_fingerprint(&base);
        let mut same = base.clone();
        same.snapshot_every = 3;
        assert_eq!(config_fingerprint(&same), h);
        let mut diff = base.clone();
        diff.seed ^= 1;
        assert_ne!(config_fingerprint(&diff), h);
        let mut diff = base.clone();
        diff.fault_plan = Some(crate::FaultPlan::default());
        assert_ne!(config_fingerprint(&diff), h);
        let mut diff = base.clone();
        diff.fast_tier_pages += 1;
        assert_ne!(config_fingerprint(&diff), h);
        let mut diff = base.clone();
        diff.tenants = vec![crate::TenantSpec::new("t0", 1)];
        assert_ne!(config_fingerprint(&diff), h);
        let mut fleet = base;
        fleet.tenants = vec![crate::TenantSpec::new("t0", 1)];
        let fh = config_fingerprint(&fleet);
        fleet.admission = Some(crate::AdmissionControl::default());
        assert_ne!(config_fingerprint(&fleet), fh);
    }
}
