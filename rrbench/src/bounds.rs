//! `bounds`: lint, static and flow analysis, the bounded model checker
//! and rendering over a fixed grid — all five arbiters × cores 2–4 ×
//! single-bus/bus+mc on the toy and reference machines, plus each spec's
//! workload cases. The static analyzer does the work; simulator, store
//! and daemon sit idle.

use crate::calib::Calibration;
use crate::specgen::{self, SpecText};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use crate::Run;
use rrb::analyze::{
    analyze_grid_cell, analyze_spec, analyze_workload, render_rows, CellStaticBound,
};
use rrb::json::fnv1a_64;
use rrb::lint::{has_errors, lint_spec};
use rrb::statics::VerifyOptions;
use rrb::verify::{render_verified, verify_grid_cell, verify_spec, verify_workload, VerifiedCell};
use std::time::Instant;

fn setup(seed: u64) -> Vec<SpecText> {
    let specs = specgen::bounds_specs(seed);
    for s in &specs {
        specgen::parse(&s.text);
    }
    specs
}

/// One fresh-process set-up, in seconds.
pub fn setup_only(seed: u64) -> f64 {
    let start = Instant::now();
    setup(seed);
    start.elapsed().as_secs_f64()
}

/// The text `rrb analyze` and `rrb verify` print for one spec.
fn render(rows: &[CellStaticBound], verified: &[VerifiedCell]) -> String {
    let mut out = render_rows(rows);
    out.push_str(&render_verified(verified));
    out
}

/// One spec's analysis: lint verdict, static rows, verified rows, text.
struct Analysed {
    lint_errors: bool,
    rows: Vec<CellStaticBound>,
    verified: Vec<VerifiedCell>,
    text: String,
}

impl Analysed {
    /// Cells that are unsound (any bound-chain violation) or unbounded
    /// (no finite exact or static total).
    fn failed_cells(&self) -> usize {
        self.rows
            .iter()
            .zip(&self.verified)
            .filter(|(r, v)| {
                r.violation().is_some()
                    || !v.violations().is_empty()
                    || v.exact_total().is_none()
                    || r.static_total().is_none()
            })
            .count()
    }
}

/// One pass over every spec through the whole-spec entry points.
fn pass(specs: &[SpecText]) -> (f64, Vec<Analysed>) {
    let opts = VerifyOptions::default();
    let start = Instant::now();
    let out = specs
        .iter()
        .map(|s| {
            let spec = specgen::parse(&s.text);
            let lint_errors = has_errors(&lint_spec(&spec));
            let rows = analyze_spec(&spec);
            let verified = verify_spec(&spec, &opts);
            let text = render(&rows, &verified);
            Analysed { lint_errors, rows, verified, text }
        })
        .collect();
    (start.elapsed().as_secs_f64(), out)
}

fn digest(out: &[Analysed]) -> u64 {
    fnv1a_64(out.iter().map(|a| a.text.as_str()).collect::<String>().as_bytes())
}

/// Counts cells and failures, and checks the rendered text against the
/// first pass's.
fn tally(run: &mut Run, out: &[Analysed], want: u64) -> usize {
    let cells: usize = out.iter().map(|a| a.verified.len()).sum();
    let failed: usize = out.iter().map(Analysed::failed_cells).sum();
    run.ops(cells as u64, failed as u64);
    run.check(out.iter().all(|a| !a.lint_errors), || String::from("a bounds spec failed lint"));
    run.check(digest(out) == want, || String::from("bounds output differs between passes"));
    cells
}

/// The end-to-end run; returns its own set-up time.
pub fn measured(run: &mut Run) -> f64 {
    let start = Instant::now();
    let specs = setup(run.seed);
    let setup_s = start.elapsed().as_secs_f64();
    let deadline = Instant::now() + run.budget;
    let (mut raw, mut cells) = (Vec::new(), Vec::new());
    let mut calibration = Calibration::default();
    calibration.sample(1);
    let mut want = None;
    while raw.is_empty() || Instant::now() < deadline {
        let (wall, out) = pass(&specs);
        calibration.sample(1);
        let want = *want.get_or_insert_with(|| digest(&out));
        cells.push(tally(run, &out, want) as f64);
        raw.push(wall * 1e3);
    }
    println!("{}", calibration.summary());
    run.scale = calibration.scale();
    let walls: Vec<f64> =
        raw.iter().enumerate().map(|(i, w)| w * calibration.scale_at(i)).collect();
    let rates: Vec<f64> = cells.iter().zip(&walls).map(|(c, w)| c * 1e3 / w).collect();
    println!("{}", Summary::of("raw_pass_ms", "ms", &raw));
    let cells_per_s = Summary::of("cells_per_s", "cells/s", &rates);
    let pass_ms = Summary::of("pass_ms", "ms", &walls);
    println!("{cells_per_s}");
    println!("{pass_ms}");
    run.set("items_per_s", cells_per_s.median);
    run.set("latency_p50_ms", pass_ms.median);
    setup_s
}

/// The same work cell by cell, with spans.
fn traced_pass(specs: &[SpecText], t: &mut Tracer) -> (f64, Vec<Analysed>) {
    let opts = VerifyOptions::default();
    let start = Instant::now();
    let out = t.span("pass", |t| {
        specs
            .iter()
            .map(|s| {
                let spec = t.span("spec.parse", |_| specgen::parse(&s.text));
                let lint_errors = t.span("lint", |_| has_errors(&lint_spec(&spec)));
                let cells = t.span("bounds.expand", |_| {
                    spec.to_grid().map(|g| g.cells()).unwrap_or_default()
                });
                let (mut rows, mut verified) = (Vec::new(), Vec::new());
                for cell in &cells {
                    rows.push(t.span("analyze", |_| analyze_grid_cell(cell)));
                    verified.push(t.span("verify", |_| verify_grid_cell(cell, &opts)));
                }
                for case in &spec.workloads {
                    rows.push(t.span("analyze", |_| analyze_workload(&spec.machine, case)));
                    verified
                        .push(t.span("verify", |_| verify_workload(&spec.machine, case, &opts)));
                }
                let text = t.span("bounds.render", |_| render(&rows, &verified));
                Analysed { lint_errors, rows, verified, text }
            })
            .collect::<Vec<_>>()
    });
    (start.elapsed().as_secs_f64(), out)
}

/// The traced run: alternates untraced and traced passes; the traced
/// output must match the whole-spec entry points byte for byte.
pub fn traced(run: &mut Run) -> Tracer {
    let specs = setup(run.seed);
    let want = digest(&pass(&specs).1);
    let mut tracer = Tracer::new(false);
    let deadline = Instant::now() + run.budget;
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let (mut explored, mut pruned) = (0, 0);
    let mut sample = 0u32;
    while on.is_empty() || Instant::now() < deadline {
        let traced = sample % 2 == 1;
        tracer.set_on(traced);
        tracer.set_sample(sample);
        let (wall, out) = traced_pass(&specs, &mut tracer);
        tally(run, &out, want);
        if traced {
            on.push(wall);
            let cells = out.iter().flat_map(|a| &a.verified);
            (explored, pruned) = cells.fold((0, 0), |(e, p), v| (e + v.explored(), p + v.pruned()));
        } else {
            off.push(wall);
        }
        sample += 1;
    }
    tracer.set_on(false);
    let ms = |name: &str| median(&tracer.secs(name)) * 1e3;
    let metrics = [
        ("spec.parse_ms", ms("spec.parse")),
        ("lint.ms", ms("lint")),
        ("analyze.ms_per_cell", ms("analyze")),
        ("verify.ms_per_cell", ms("verify")),
        ("verify.explored", explored as f64),
        ("verify.pruned", pruned as f64),
        ("bounds.render_ms", ms("bounds.render")),
        ("trace.coverage", tracer.coverage("pass")),
        ("trace.overhead", median(&on) / median(&off) - 1.0),
    ];
    for (name, value) in metrics {
        run.set(name, value);
    }
    println!("bounds traced: {} untraced and {} traced passes", off.len(), on.len());
    tracer
}
