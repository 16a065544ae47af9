//! Capturing and replaying access traces.
//!
//! ```text
//! cargo run --release --example trace_capture
//! ```
//!
//! Captures a Silo run's full access stream to a trace file, replays it
//! through the simulator, and verifies the replay touches the same
//! pages — the workflow for sharing the exact stream behind a result
//! or feeding externally captured traces into the policies.

use pact_core::{PactConfig, PactPolicy};
use pact_tiersim::{read_trace, write_workload_trace, Machine, MachineConfig, Workload};
use pact_workloads::Silo;

fn main() -> std::io::Result<()> {
    let original = Silo::new(20_000, 128, 5_000, 2, 7);

    // Capture: every access (prologue + worker threads) to a file.
    let path = std::env::temp_dir().join("pact_silo.trace");
    let file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    let records = write_workload_trace(file, &original)?;
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "captured {records} accesses ({:.1} MiB) to {}",
        bytes as f64 / (1 << 20) as f64,
        path.display()
    );

    // Replay: load the trace back as a workload and run PACT on it.
    let replay = read_trace(std::io::BufReader::new(std::fs::File::open(&path)?))?;
    assert_eq!(replay.footprint_bytes(), original.footprint_bytes());
    let machine = Machine::new(MachineConfig::skylake_cxl(
        replay.footprint_bytes() / 4096 / 2,
    ))
    .unwrap();
    let mut pact = PactPolicy::new(PactConfig::default()).unwrap();
    let r = machine.try_run(&replay, &mut pact).unwrap();
    println!(
        "replayed '{}': {} accesses, {} cycles, {} promotions",
        replay.name(),
        r.counters.accesses,
        r.total_cycles,
        r.promotions
    );
    assert_eq!(r.counters.accesses, records);
    println!("replayed access count matches the capture — trace is lossless.");
    std::fs::remove_file(&path)?;
    Ok(())
}
