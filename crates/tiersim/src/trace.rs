//! Access-trace serialization: capture a workload's stream to a file
//! and replay it bit-exactly later.
//!
//! The format is a small versioned binary: a magic header, the
//! footprint, then one 12-byte little-endian record per access
//! (`vaddr: u64`, `flags: u16`, `work: u16`). Useful for sharing the
//! exact stream behind a result, for diffing workload revisions, and
//! for replaying production-like traces through the simulator.

use std::io::{self, Read, Write};

use crate::types::{Access, AccessKind};
use crate::workload::{AccessStream, TraceWorkload, Workload};

const MAGIC: &[u8; 8] = b"PACTTRC1";

const FLAG_STORE: u16 = 1 << 0;
const FLAG_DEP: u16 = 1 << 1;

/// Writes `name`, `footprint`, and every access of `stream` to `w`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_trace<W: Write>(
    mut w: W,
    name: &str,
    footprint_bytes: u64,
    stream: &mut dyn AccessStream,
) -> io::Result<u64> {
    w.write_all(MAGIC)?;
    let name_bytes = name.as_bytes();
    w.write_all(&(name_bytes.len() as u32).to_le_bytes())?;
    w.write_all(name_bytes)?;
    w.write_all(&footprint_bytes.to_le_bytes())?;
    let mut count = 0u64;
    while let Some(a) = stream.next_access() {
        let mut flags = 0u16;
        if a.kind == AccessKind::Store {
            flags |= FLAG_STORE;
        }
        if a.dep {
            flags |= FLAG_DEP;
        }
        w.write_all(&a.vaddr.to_le_bytes())?;
        w.write_all(&flags.to_le_bytes())?;
        w.write_all(&a.work.to_le_bytes())?;
        count += 1;
    }
    Ok(count)
}

/// Captures a whole workload (all threads concatenated in thread order,
/// prologue first if present) into `w`. Note that replay is
/// single-threaded: timing differs, addresses do not.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_workload_trace<W: Write>(mut w: W, workload: &dyn Workload) -> io::Result<u64> {
    struct Chained<'a>(Vec<Box<dyn AccessStream + 'a>>);
    impl AccessStream for Chained<'_> {
        fn next_access(&mut self) -> Option<Access> {
            while let Some(first) = self.0.first_mut() {
                if let Some(a) = first.next_access() {
                    return Some(a);
                }
                self.0.remove(0);
            }
            None
        }
    }
    let mut streams = Vec::new();
    if let Some(p) = workload.prologue() {
        streams.push(p);
    }
    streams.extend(workload.streams());
    write_trace(
        &mut w,
        &workload.name(),
        workload.footprint_bytes(),
        &mut Chained(streams),
    )
}

/// Reads a trace produced by [`write_trace`] back into a replayable
/// [`TraceWorkload`].
///
/// A partial trailing record (e.g. from a truncated copy) is dropped
/// silently; header corruption is an error.
///
/// # Errors
///
/// Returns `InvalidData` on a bad magic or malformed header, plus any
/// I/O error from the reader.
pub fn read_trace<R: Read>(mut r: R) -> io::Result<TraceWorkload> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "not a PACT trace (bad magic)",
        ));
    }
    let mut len4 = [0u8; 4];
    r.read_exact(&mut len4)?;
    let name_len = u32::from_le_bytes(len4) as usize;
    if name_len > 4096 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unreasonable name length",
        ));
    }
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name)?;
    let name = String::from_utf8(name)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "name is not UTF-8"))?;
    let mut fp8 = [0u8; 8];
    r.read_exact(&mut fp8)?;
    let footprint = u64::from_le_bytes(fp8);

    let mut trace = Vec::new();
    let mut rec = [0u8; 12];
    loop {
        match r.read_exact(&mut rec) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e),
        }
        let [v0, v1, v2, v3, v4, v5, v6, v7, f0, f1, w0, w1] = rec;
        let vaddr = u64::from_le_bytes([v0, v1, v2, v3, v4, v5, v6, v7]);
        let flags = u16::from_le_bytes([f0, f1]);
        let work = u16::from_le_bytes([w0, w1]);
        // Decode the flags independently: a store may also carry the
        // dependent bit (address computed from a prior load), and the
        // constructor shortcuts would silently drop it.
        let kind = if flags & FLAG_STORE != 0 {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        trace.push(Access {
            vaddr,
            kind,
            dep: flags & FLAG_DEP != 0,
            work,
        });
    }
    Ok(TraceWorkload::new(name, footprint, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::VecStream;

    fn sample_accesses() -> Vec<Access> {
        vec![
            Access::load(0),
            Access::dependent_load(4096).with_work(7),
            Access::store(64),
            Access::load(u64::from(u32::MAX) * 8),
        ]
    }

    #[test]
    fn roundtrip_preserves_every_field() {
        let mut buf = Vec::new();
        let mut s = VecStream::new(sample_accesses());
        let n = write_trace(&mut buf, "unit", 1 << 40, &mut s).unwrap();
        assert_eq!(n, 4);
        let wl = read_trace(buf.as_slice()).unwrap();
        assert_eq!(wl.name(), "unit");
        assert_eq!(wl.footprint_bytes(), 1 << 40);
        let mut replay = wl.streams();
        let got: Vec<Access> = std::iter::from_fn(|| replay[0].next_access()).collect();
        assert_eq!(got, sample_accesses());
    }

    #[test]
    fn workload_capture_includes_prologue() {
        use crate::types::PAGE_BYTES;
        struct WithPrologue;
        impl Workload for WithPrologue {
            fn name(&self) -> String {
                "p".into()
            }
            fn footprint_bytes(&self) -> u64 {
                PAGE_BYTES
            }
            fn prologue(&self) -> Option<Box<dyn AccessStream + '_>> {
                Some(Box::new(VecStream::new(vec![Access::store(0)])))
            }
            fn streams(&self) -> Vec<Box<dyn AccessStream + '_>> {
                vec![
                    Box::new(VecStream::new(vec![Access::load(64)])),
                    Box::new(VecStream::new(vec![Access::load(128)])),
                ]
            }
        }
        let mut buf = Vec::new();
        let n = write_workload_trace(&mut buf, &WithPrologue).unwrap();
        assert_eq!(n, 3);
        let wl = read_trace(buf.as_slice()).unwrap();
        let mut s = wl.streams();
        assert_eq!(s[0].next_access(), Some(Access::store(0)));
        assert_eq!(s[0].next_access(), Some(Access::load(64)));
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_trace(&b"NOTATRACE..."[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_trailing_record_is_dropped() {
        let mut buf = Vec::new();
        let mut s = VecStream::new(sample_accesses());
        write_trace(&mut buf, "t", 4096, &mut s).unwrap();
        buf.truncate(buf.len() - 5); // cut into the last record
        let wl = read_trace(buf.as_slice()).unwrap();
        let mut replay = wl.streams();
        let got: Vec<Access> = std::iter::from_fn(|| replay[0].next_access()).collect();
        assert_eq!(got.len(), 3, "partial trailing record dropped");
    }
}
