//! # rrb-analysis — synchrony-effect analytics for round-robin buses
//!
//! The mathematical layer of the reproduction, independent of any
//! simulator:
//!
//! * [`gamma`] — the paper's Eq. 2 model of per-request contention
//!   `γ(δ)` under the synchrony effect, and Eq. 1 (`ubd = (Nc-1)·l_bus`);
//! * [`sawtooth`] — recovery of the saw-tooth period (and hence `ubd`)
//!   from a measured slowdown series `d_bus(k)`, including the
//!   `δ_nop > 1` sampled case of §4.2;
//! * [`histogram`] — integer histograms for the Fig. 6 plots;
//! * [`etb`] — execution-time-bound padding (`pad = nr × ubd_m`, §4.3).
//!
//! ## Example: the γ(δ) saw-tooth
//!
//! ```
//! use rrb_analysis::gamma::GammaModel;
//!
//! let model = GammaModel::new(27); // ubd of the NGMP configuration
//! assert_eq!(model.gamma(0), 27);  // δ = 0 is the only way to suffer ubd
//! assert_eq!(model.gamma(1), 26);
//! assert_eq!(model.gamma(27), 0);
//! assert_eq!(model.gamma(28), 26); // period ubd
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// CI runs `clippy -W clippy::pedantic -D warnings` on this crate; the
// allowlist below names the pedantic lints we deliberately accept.
// must_use_candidate: pervasive on a read-only analytics API whose every
// getter "could be" #[must_use] — the annotation noise outweighs the
// footgun. The cast lints: u64↔f64 conversions are inherent to the
// statistics here (means, quantiles, confidences); counts stay far below
// 2^53 and the truncating directions are all explicit rounding.
#![allow(
    clippy::must_use_candidate,
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss
)]

pub mod etb;
pub mod gamma;
pub mod histogram;
pub mod sawtooth;

pub use etb::EtbPadding;
pub use gamma::{ubd_from_parameters, GammaModel};
pub use histogram::Histogram;
pub use sawtooth::{
    detect_period, first_tooth_length, peak_positions, peak_spacing, ubd_candidates,
    PeriodEstimate, PeriodMethod,
};
