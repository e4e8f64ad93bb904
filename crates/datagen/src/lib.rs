//! # com-datagen
//!
//! Workload generation for the COM experiments.
//!
//! The paper evaluates on DiDi/Yueche taxi traces from Chengdu and Xi'an
//! (Table III) plus synthetic sweeps sampled from them (Table IV). The
//! real traces are licence-gated, so this crate generates *structurally
//! equivalent* workloads (see DESIGN.md §2 for the substitution
//! rationale):
//!
//! * [`dist`] — scalar samplers (uniform, normal, log-normal,
//!   exponential) built on Box–Muller / inverse-CDF so no external
//!   distribution crate is needed.
//! * [`hotspot`] — spatial mixtures of Gaussian hotspots over a city box;
//!   platform-complementary mixtures reproduce the paper's Fig. 2
//!   supply/demand imbalance that makes borrowing valuable.
//! * [`temporal`] — daily arrival-time profiles with morning/evening
//!   peaks.
//! * [`values`] — request-fare distributions: the heavy-tailed
//!   `RealLike` log-normal (calibrated to a ≈¥19 mean fare) and the
//!   `Normal` alternative from Table IV.
//! * [`scenario`] — declarative scenario configs and the generator that
//!   turns one into a replayable [`com_sim::Instance`].
//! * [`csv`] — minimal CSV import/export so real trace data (an approved
//!   GAIA download, a company's own logs) can be replayed through every
//!   matcher.
//! * [`profiles`] — the named dataset profiles: `chengdu_oct` (RDC10 +
//!   RYC10), `chengdu_nov` (RDC11 + RYC11), `xian_nov` (RDX11 + RYX11),
//!   each at 1/10 of the paper's daily volume, plus the Table IV
//!   synthetic sweep configurations.
//! * [`cli`] — the command-line front end every binary shares: an argv
//!   cursor and the scenario name table behind `--profile`/`--quick`.

pub mod cli;
pub mod csv;
pub mod dist;
pub mod hotspot;
pub mod profiles;
pub mod scenario;
pub mod temporal;
pub mod values;

pub use csv::{
    instance_from_csv, parse_requests, parse_workers, requests_to_csv, workers_to_csv, CsvError,
};
pub use dist::{Exponential, LogNormal, Normal, Sampler, Uniform};
pub use hotspot::{Hotspot, SpatialMixture};
pub use profiles::{chengdu_nov, chengdu_oct, synthetic, xian_nov, SyntheticParams};
pub use scenario::{generate, PlatformSpec, ScenarioConfig};
pub use temporal::DailyProfile;
pub use values::ValueDistribution;
