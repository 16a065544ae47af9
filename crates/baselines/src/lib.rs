//! # pact-baselines — the tiering systems PACT is evaluated against
//!
//! Faithful-in-mechanism reimplementations of the seven baselines from
//! the paper's evaluation (§5), each paying its real costs through the
//! simulator (hint faults on the critical path, sync vs async
//! migration, PEBS overhead, watermark reclaim):
//!
//! | Policy | Signal | Promotion | Known failure mode |
//! |---|---|---|---|
//! | [`NoTier`] | none | none | slow-tier latency exposure |
//! | [`Nbt`] | hint faults | two-touch, rate-limited | lag on fast-moving sets |
//! | [`Tpp`] | hint faults | first-touch, sync in fault path | migration storms |
//! | [`Memtis`] | PEBS both tiers | histogram hot threshold | misses criticality |
//! | [`Colloid`] | hint faults + per-tier latency | imbalance-proportional | millions of migrations |
//! | [`Nomad`] | hint faults | transactional (abortable) copies | shadow-copy pressure |
//! | [`Alto`] | Colloid + global MLP | MLP-throttled Colloid | no page-level criticality |
//! | [`Soar`] | offline AOL profile | static allocation, no migration | offline, object-granular |
//!
//! The frequency-only ablation of §5.6 lives in `pact-core`
//! (`RankBy::Frequency`) since it shares PACT's machinery.

#![warn(missing_docs)]
// `!(x > 0.0)` is deliberate where NaN must fail validation; and tests
// build counter fixtures by mutating a Default value for readability.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![allow(clippy::field_reassign_with_default)]

mod alto;
mod colloid;
mod common;
mod memtis;
mod nbt;
mod nomad;
mod soar;
mod testing;
mod tpp;

pub use alto::{Alto, AltoConfig};
pub use colloid::{Colloid, ColloidConfig};
pub use common::{demote_to_watermark, TwoTouchTracker};
pub use memtis::{Memtis, MemtisConfig};
pub use nbt::{Nbt, NbtConfig};
pub use nomad::{Nomad, NomadConfig};
pub use soar::{profile as soar_profile, RegionScore, Soar, SoarProfile};
pub use tpp::{Tpp, TppConfig};

/// The first-touch, no-migration reference ("NoTier" in the paper).
pub use pact_tiersim::FirstTouch as NoTier;
