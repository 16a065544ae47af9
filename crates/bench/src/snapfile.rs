//! On-disk format for `tierctl snapshot` / `tierctl resume`.
//!
//! A machine-level [`MachineSnapshot`] frame is self-describing about
//! *machine* state (format version, configuration fingerprint,
//! checksum — see `tiersim::snapshot` and DESIGN.md §13) but knows
//! nothing about the *cell* that produced it: which workload at which
//! scale and seed, which policy, how large the fast tier was. A
//! [`CellSnapshot`] wraps the frame with exactly that metadata so
//! `tierctl resume --from FILE` can rebuild the cell without the
//! operator re-typing (and possibly mistyping) the original flags.
//!
//! The wrapper deliberately stores the *recipe* (workload name, scale,
//! seed), not workload data: workloads are deterministic functions of
//! the recipe, and the machine frame's fast-forward restore replays
//! the consumed prefix of each stream.

use pact_stats::{ByteReader, ByteWriter, CodecError};
use pact_tiersim::MachineSnapshot;

/// File magic for cell snapshots (`tierctl snapshot` output).
pub const CELL_MAGIC: [u8; 8] = *b"PACTCELL";

/// Cell-wrapper format version. Bumped when the metadata layout
/// changes; readers reject other versions with a structured error.
pub const CELL_VERSION: u32 = 1;

/// A machine snapshot frame plus the cell recipe that produced it.
#[derive(Debug, Clone)]
pub struct CellSnapshot {
    /// Workload name (`pact_workloads::suite::build` key).
    pub workload: String,
    /// Policy name (`make_policy` key).
    pub policy: String,
    /// Workload scale: `"smoke"` or `"paper"`.
    pub scale: String,
    /// Base RNG seed of the cell.
    pub seed: u64,
    /// Fast-tier capacity in base pages.
    pub fast_pages: u64,
    /// Whether the cell ran with 2 MiB huge pages.
    pub thp: bool,
    /// Whether the `[fast, slow]` page-stall oracle was armed.
    pub track_stalls: bool,
    /// The machine-level snapshot frame.
    pub frame: MachineSnapshot,
}

pact_stats::codec! {
    impl Codec for CellSnapshot {
        workload, policy, scale, seed, fast_pages, thp, track_stalls, frame,
    }
}

impl CellSnapshot {
    /// Serializes the cell snapshot for writing to disk: the magic and
    /// version, then the recipe and the frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put(&CELL_MAGIC);
        w.put(&CELL_VERSION);
        w.put(self);
        w.into_bytes()
    }

    /// Parses a cell snapshot file.
    ///
    /// # Errors
    ///
    /// Returns a one-line description on bad magic, an unsupported
    /// wrapper version, a truncated file, an unknown scale or workload
    /// name, or an embedded machine frame
    /// whose own header does not parse (full frame verification —
    /// checksum, configuration fingerprint — happens at restore).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        let e = |e: CodecError| format!("cell snapshot: {e}");
        let mut r = ByteReader::new(bytes);
        if r.get::<[u8; 8]>().map_err(e)? != CELL_MAGIC {
            return Err("not a cell snapshot (bad magic)".into());
        }
        let version: u32 = r.get().map_err(e)?;
        if version != CELL_VERSION {
            return Err(format!(
                "unsupported cell snapshot version {version} (this build reads {CELL_VERSION})"
            ));
        }
        let cell: Self = r.get().map_err(e)?;
        r.finish().map_err(e)?;
        if cell.scale != "smoke" && cell.scale != "paper" {
            return Err(format!(
                "unknown workload scale {:?} in cell snapshot",
                cell.scale
            ));
        }
        pact_workloads::suite::check_name(&cell.workload)
            .map_err(|err| format!("cell snapshot: {err}"))?;
        // Light header validation now; the restore path re-verifies the
        // checksum and configuration fingerprint over the full frame.
        cell.frame
            .window()
            .map_err(|err| format!("embedded machine frame is invalid: {err}"))?;
        Ok(cell)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact_tiersim::{FirstTouch, Machine, MachineConfig, RunSpec};
    use pact_workloads::suite::{build, Scale};

    fn sample_frame() -> MachineSnapshot {
        let wl = build("gups", Scale::Smoke, 3);
        let mut cfg = MachineConfig::skylake_cxl(64);
        cfg.snapshot_every = 2;
        let m = Machine::new(cfg).unwrap();
        let mut frames = Vec::new();
        m.run(RunSpec {
            snapshot_sink: Some(&mut |s| frames.push(s)),
            ..RunSpec::new(&[wl.as_ref()], &mut FirstTouch::new())
        })
        .unwrap();
        frames.remove(0)
    }

    #[test]
    fn cell_snapshot_round_trips() {
        let frame = sample_frame();
        let cell = CellSnapshot {
            workload: "gups".into(),
            policy: "firsttouch".into(),
            scale: "smoke".into(),
            seed: 3,
            fast_pages: 64,
            thp: false,
            track_stalls: true,
            frame,
        };
        let bytes = cell.to_bytes();
        let back = CellSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.workload, "gups");
        assert_eq!(back.policy, "firsttouch");
        assert_eq!(back.scale, "smoke");
        assert_eq!(back.seed, 3);
        assert_eq!(back.fast_pages, 64);
        assert!(!back.thp);
        assert!(back.track_stalls);
        assert_eq!(back.frame.as_bytes(), cell.frame.as_bytes());
    }

    #[test]
    fn corrupt_cells_are_rejected() {
        let cell = CellSnapshot {
            workload: "gups".into(),
            policy: "pact".into(),
            scale: "smoke".into(),
            seed: 1,
            fast_pages: 32,
            thp: false,
            track_stalls: false,
            frame: sample_frame(),
        };
        let good = cell.to_bytes();
        // Bad magic.
        let mut bad = good.clone();
        bad[0] ^= 0xff;
        assert!(CellSnapshot::from_bytes(&bad)
            .unwrap_err()
            .contains("magic"));
        // Future wrapper version.
        let mut bumped = good.clone();
        bumped[8] = 0x7f;
        let err = CellSnapshot::from_bytes(&bumped).unwrap_err();
        assert!(err.contains("version"), "{err}");
        // Truncation anywhere fails closed.
        for cut in [10, good.len() / 2, good.len() - 1] {
            assert!(CellSnapshot::from_bytes(&good[..cut]).is_err(), "cut={cut}");
        }
        // Trailing garbage is rejected.
        let mut long = good.clone();
        long.push(0);
        assert!(CellSnapshot::from_bytes(&long).is_err());
        // A gutted machine frame is caught by the embedded header check.
        let mut cell2 = cell.clone();
        cell2.frame = MachineSnapshot::from_bytes(vec![0; 10]);
        assert!(CellSnapshot::from_bytes(&cell2.to_bytes())
            .unwrap_err()
            .contains("machine frame"));
        // So is a recipe naming no buildable workload.
        let mut cell3 = cell.clone();
        cell3.workload = "nope".into();
        assert!(CellSnapshot::from_bytes(&cell3.to_bytes())
            .unwrap_err()
            .contains("unknown workload 'nope'"));
    }
}
