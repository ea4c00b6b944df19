//! Plain-text reporting for derivations and comparisons.
//!
//! The figure regenerators in `rrb-bench` print through these helpers so
//! every experiment's output has the same shape: a header, the series or
//! histogram, and the paper-vs-measured verdict line.

use crate::methodology::UbdDerivation;
use crate::naive::NaiveEstimate;
use rrb_analysis::Histogram;
use std::fmt::Write as _;

/// Renders a derivation as a human-readable audit report, including the
/// per-resource breakdown of the bound (which sums to the reported
/// total by construction).
pub fn render_derivation(d: &UbdDerivation) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "ubd_m               : {} cycles", d.ubd_m);
    if d.resource_contributions.len() > 1 {
        let split = d
            .resource_contributions
            .iter()
            .map(|c| format!("{} {}", c.resource, c.ubd_m))
            .collect::<Vec<_>>()
            .join(" + ");
        let _ = writeln!(out, "per-resource ubd_m  : {split} = {} cycles", d.total_ubd_m());
    }
    let _ = writeln!(out, "delta_nop           : {} cycle(s)", d.delta_nop);
    let _ = writeln!(
        out,
        "saw-tooth period    : {} k-steps ({} match, confidence {:.2})",
        d.k_period, d.period_estimate.method, d.period_estimate.confidence
    );
    let _ = writeln!(out, "candidates          : {:?}", d.candidates);
    let _ = writeln!(out, "max observed gamma  : {}", d.max_observed_gamma);
    let _ = writeln!(out, "min bus utilisation : {:.3}", d.min_bus_utilization);
    let _ = writeln!(out, "scua bus requests   : {}", d.scua_requests);
    out
}

/// Renders an ASCII saw-tooth plot of the slowdown series (Fig. 7 shape),
/// `height` rows tall.
pub fn render_sawtooth(slowdowns: &[u64], height: usize) -> String {
    let max = slowdowns.iter().max().copied().unwrap_or(0);
    if max == 0 || height == 0 {
        return String::from("(flat)\n");
    }
    let mut rows = vec![String::new(); height];
    for &d in slowdowns {
        let level = ((d as f64 / max as f64) * (height - 1) as f64).round() as usize;
        for (r, row) in rows.iter_mut().enumerate() {
            let y = height - 1 - r;
            row.push(if level >= y && (level == y || y == 0) { '#' } else { ' ' });
        }
    }
    let mut out = String::new();
    for (r, row) in rows.iter().enumerate() {
        let _ =
            writeln!(out, "{:>10} |{row}", if r == 0 { format!("{max}") } else { String::new() });
    }
    let _ = writeln!(out, "{:>10} +{}", "k ->", "-".repeat(slowdowns.len()));
    out
}

/// Renders a comparison of the naive estimate against the methodology's
/// derivation and the configuration truth. `true_ubd` must be the
/// *bus* term of the bound (`MachineConfig::bus_ubd`): both estimators
/// measure bus contention, so comparing against a two-level topology
/// total would report a spurious mismatch.
pub fn render_comparison(
    naive: &NaiveEstimate,
    derivation: &UbdDerivation,
    true_ubd: u64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "true ubd (Eq. 1, hidden from the analyses) : {true_ubd}");
    let _ = writeln!(
        out,
        "naive rsk-vs-rsk ubd_m                     : {} (det/nr {}, max gamma {})",
        naive.ubd_m(),
        naive.ubd_m_det_over_nr,
        naive.ubd_m_max_gamma
    );
    let _ = writeln!(out, "rsk-nop methodology ubd_m                  : {}", derivation.ubd_m);
    let verdict = if derivation.ubd_m == true_ubd && naive.ubd_m() < true_ubd {
        "methodology exact, naive estimate unsound — as the paper reports"
    } else if derivation.ubd_m == true_ubd {
        "methodology exact"
    } else {
        "MISMATCH: methodology failed to recover ubd"
    };
    let _ = writeln!(out, "verdict                                    : {verdict}");
    out
}

/// Renders a histogram with a title (Fig. 6 helper).
pub fn render_histogram(title: &str, h: &Histogram) -> String {
    format!("{title}\n{}", h.render(50))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrb_analysis::sawtooth::{PeriodEstimate, PeriodMethod};

    use crate::methodology::ResourceContribution;

    fn derivation() -> UbdDerivation {
        UbdDerivation {
            ubd_m: 27,
            resource_contributions: vec![
                ResourceContribution { resource: "bus".into(), ubd_m: 27 },
                ResourceContribution { resource: "mc".into(), ubd_m: 4 },
            ],
            delta_nop: 1,
            k_period: 27,
            period_estimate: PeriodEstimate {
                period: 27,
                method: PeriodMethod::Exact,
                confidence: 1.0,
            },
            candidates: vec![27],
            slowdowns: vec![26, 25, 24],
            max_observed_gamma: 26,
            min_bus_utilization: 0.99,
            scua_requests: 2500,
        }
    }

    #[test]
    fn derivation_report_mentions_key_numbers() {
        let r = render_derivation(&derivation());
        assert!(r.contains("ubd_m               : 27"));
        assert!(r.contains("per-resource ubd_m  : bus 27 + mc 4 = 31 cycles"));
        assert!(r.contains("exact match"));
        assert!(r.contains("0.990"));
    }

    #[test]
    fn single_resource_derivation_omits_breakdown_line() {
        let mut d = derivation();
        d.resource_contributions.truncate(1);
        let r = render_derivation(&d);
        assert!(!r.contains("per-resource"));
    }

    #[test]
    fn sawtooth_plot_is_non_empty_and_flat_case_handled() {
        let s: Vec<u64> = (0..30).map(|k| 26 - (k % 27).min(26)).collect();
        let plot = render_sawtooth(&s, 8);
        assert!(plot.contains('#'));
        assert_eq!(render_sawtooth(&[0, 0], 8), "(flat)\n");
    }

    #[test]
    fn histogram_report_includes_title() {
        let h: Histogram = [26u64, 26, 23].into_iter().collect();
        let r = render_histogram("Fig 6(b)", &h);
        assert!(r.starts_with("Fig 6(b)\n"));
        assert!(r.contains("26"));
    }
}
