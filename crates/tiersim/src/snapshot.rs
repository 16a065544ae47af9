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
use crate::fault::FaultPlan;

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
/// Version 4 drops the machine's admission section (admission control
/// is a policy wrapper now, whose state travels in the policy blob),
/// keeps one counter lane per colocated process in every run, stores
/// per-process access counts only in those lanes, and records the
/// channel backlog at the last window edge.
pub const FORMAT_VERSION: u32 = 4;

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

// The frame as one length-prefixed byte string (the layout a wrapper
// such as a cell snapshot file embeds it in).
pact_stats::codec! {
    impl Codec for MachineSnapshot { bytes }
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

/// 64-bit FNV-1a over `bytes`: the frame checksum, the configuration
/// fingerprint accumulator, and the digest the report and figure
/// golden tests pin.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[expect(
    clippy::unwrap_used,
    reason = "callers check `bytes.len()` covers `at + 8` first"
)]
fn read_u64(bytes: &[u8], at: usize) -> u64 {
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
    #[expect(
        clippy::unwrap_used,
        reason = "length checked above, slices are in range"
    )]
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
/// `MachineConfig` and `FaultPlan` are destructured exhaustively here,
/// and every other config struct through its codec's field list, so a
/// new field fails to compile until it is hashed or bound `_` with its
/// reason. `snapshot_every` is the one field left out.
pub fn config_fingerprint(cfg: &MachineConfig) -> u64 {
    let MachineConfig {
        freq_ghz,
        mshrs,
        hit_cycles,
        issue_cycles,
        llc,
        prefetch,
        tiers,
        fast_tier_pages,
        thp,
        thp_unit_pages,
        window_cycles,
        pebs,
        migration,
        chmu_counters,
        track_page_stalls,
        seed,
        // Capture cadence only decides when frames are emitted, so a
        // frame may be resumed under any cadence.
        snapshot_every: _,
        fault_plan,
        invariants,
    } = cfg;
    let mut w = ByteWriter::new();
    w.put(&(*freq_ghz, *mshrs, *hit_cycles, *issue_cycles));
    w.put(&(*llc, *prefetch, *tiers));
    w.put(&(*fast_tier_pages, *thp, *thp_unit_pages, *window_cycles));
    w.put(&(*pebs, *migration));
    w.put(&(*chmu_counters, *track_page_stalls, *seed));
    // An absent plan or invariant set is its flag alone.
    w.put(&fault_plan.is_some());
    if let Some(FaultPlan {
        seed,
        window_start,
        window_end,
        drop_order,
        fail_migration,
        max_retries,
        backoff_windows,
        stall,
        pebs_loss,
        chmu_overflow,
    }) = fault_plan
    {
        w.put(&(*seed, *window_start, *window_end));
        w.put(&(*drop_order, *fail_migration, *max_retries, *backoff_windows));
        w.put(&stall.is_some());
        if let Some(stall) = stall {
            w.put(stall);
        }
        w.put(&(*pebs_loss, *chmu_overflow));
    }
    w.put(&invariants.is_some());
    if let Some(set) = invariants {
        w.put(set);
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

    /// The fingerprint of the experiment machine (`skylake_cxl(0)`, the
    /// bench crate's `experiment_machine(0)`) is pinned, so a change to
    /// it, which refuses every frame written before it, is deliberate.
    #[test]
    fn experiment_machine_fingerprint_is_stable() {
        assert_eq!(
            config_fingerprint(&MachineConfig::skylake_cxl(0)),
            0xfb96_6b96_4555_3a15
        );
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
        let mut diff = base;
        diff.fast_tier_pages += 1;
        assert_ne!(config_fingerprint(&diff), h);
    }
}
