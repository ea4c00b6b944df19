//! Request routing and the streaming campaign handler.
//!
//! Connection model: one thread per connection, HTTP/1.1 keep-alive
//! until the client closes, the read timeout fires, a request fails to
//! parse, or the server starts draining. Campaign responses stream as
//! `Transfer-Encoding: chunked` NDJSON — one whole line per chunk, and
//! several chunks per socket write: the lines gather in the
//! [`ChunkedWriter`], which the handler flushes after the header line
//! and before every wait on the worker pool, so a line never waits
//! behind a run still executing.
//!
//! This module is on the lint-enforced no-panic path (`lint_sources`):
//! every request, however malformed, ends in a status code or a dropped
//! connection, never a connection-thread panic.

use crate::http::{self, ChunkedWriter, HttpError, Request};
use crate::ServerState;
use rrb::campaign::{PlanItem, RunRecord, StoreUsage};
use rrb::executor::WorkerPool;
use rrb::json::Json;
use rrb::lint::{has_errors, lint_spec, LintFinding};
use rrb::scenario::ScenarioReport;
use rrb::spec::ExperimentSpec;
use std::cell::Cell;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::mpsc::TryRecvError;

/// Serves one accepted connection to completion. Never panics; errors
/// drop the connection.
pub(crate) fn handle_connection(stream: TcpStream, state: &ServerState, pool: &WorkerPool) {
    let _ = serve_connection(stream, state, pool);
}

fn serve_connection(
    mut stream: TcpStream,
    state: &ServerState,
    pool: &WorkerPool,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(http::READ_TIMEOUT))?;
    loop {
        match http::read_request(&mut stream) {
            Ok(Some(request)) => {
                route(&mut stream, state, pool, &request)?;
                if request.close || state.draining() {
                    return Ok(());
                }
            }
            Ok(None) | Err(HttpError::Timeout) | Err(HttpError::Io(_)) => return Ok(()),
            Err(HttpError::BadRequest(why)) => {
                let _ = http::respond_json(&mut stream, 400, &error_json(&why));
                return Ok(());
            }
            Err(e @ HttpError::PayloadTooLarge) => {
                let _ = http::respond_json(&mut stream, 413, &error_json(&e.to_string()));
                return Ok(());
            }
        }
    }
}

fn route(
    stream: &mut TcpStream,
    state: &ServerState,
    pool: &WorkerPool,
    request: &Request,
) -> std::io::Result<()> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let body = Json::obj(vec![("status", Json::str("ok"))]).render_compact();
            http::respond_json(stream, 200, &body)
        }
        ("GET", "/v1/store/stats") => store_stats(stream, state, pool.workers()),
        ("POST", "/v1/campaigns") => campaigns(stream, state, pool, &request.body),
        ("POST", "/v1/analyze") => analyze(stream, &request.body),
        ("POST", "/v1/shutdown") => {
            state.begin_drain();
            let body = Json::obj(vec![("status", Json::str("draining"))]).render_compact();
            http::respond_json(stream, 200, &body)
        }
        ("GET", path) if path.starts_with("/v1/runs/") => point_query(stream, state, path),
        (_, "/healthz" | "/v1/store/stats" | "/v1/campaigns" | "/v1/analyze" | "/v1/shutdown") => {
            http::respond_json(stream, 405, &error_json("method not allowed"))
        }
        (_, path) if path.starts_with("/v1/runs/") => {
            http::respond_json(stream, 405, &error_json("method not allowed"))
        }
        _ => http::respond_json(stream, 404, &error_json("no such endpoint")),
    }
}

// ---------------------------------------------------------------------
// Simple endpoints
// ---------------------------------------------------------------------

fn store_stats(stream: &mut TcpStream, state: &ServerState, workers: usize) -> std::io::Result<()> {
    let stats = state.store.stats();
    let body = Json::obj(vec![
        ("dir", Json::str(stats.dir.display().to_string())),
        ("format", Json::U64(stats.format)),
        ("fingerprint", Json::str(format!("{:016x}", stats.fingerprint))),
        ("entries", Json::U64(stats.entries)),
        ("bytes", Json::U64(stats.bytes)),
        ("segments", Json::U64(stats.segments)),
        (
            "server",
            Json::obj(vec![
                ("workers", Json::U64(workers as u64)),
                ("campaigns", Json::U64(state.campaigns.load(Ordering::Relaxed))),
                ("point_queries", Json::U64(state.point_queries.load(Ordering::Relaxed))),
                ("runs_streamed", Json::U64(state.runs_streamed.load(Ordering::Relaxed))),
                ("runs_executed", Json::U64(state.runs_executed.load(Ordering::Relaxed))),
            ]),
        ),
    ])
    .render_compact();
    http::respond_json(stream, 200, &body)
}

fn point_query(stream: &mut TcpStream, state: &ServerState, path: &str) -> std::io::Result<()> {
    state.point_queries.fetch_add(1, Ordering::Relaxed);
    let hex = path.trim_start_matches("/v1/runs/");
    let Ok(hash) = u64::from_str_radix(hex, 16) else {
        let why = format!("`{hex}` is not a 64-bit hex content address");
        return http::respond_json(stream, 400, &error_json(&why));
    };
    match state.store.entry_payload(hash) {
        Ok(Some(payload)) => {
            let body = Json::obj(vec![
                ("spec_hash", Json::str(format!("{hash:016x}"))),
                ("payload", payload),
            ])
            .render_compact();
            http::respond_json(stream, 200, &body)
        }
        Ok(None) => {
            let why = format!("no entry for {hash:016x}");
            http::respond_json(stream, 404, &error_json(&why))
        }
        Err(reason) => http::respond_json(stream, 500, &error_json(&reason)),
    }
}

fn analyze(stream: &mut TcpStream, body: &[u8]) -> std::io::Result<()> {
    let spec = match parse_spec(body) {
        Ok(spec) => spec,
        Err((status, body)) => return http::respond_json(stream, status, &body),
    };
    let cells = rrb::analyze::analyze_spec(&spec);
    let body = Json::obj(vec![
        ("spec", Json::str(spec.name.clone())),
        ("cells", Json::Arr(cells.iter().map(|c| c.to_json()).collect())),
    ])
    .render_compact();
    http::respond_json(stream, 200, &body)
}

// ---------------------------------------------------------------------
// The campaign handler
// ---------------------------------------------------------------------

fn parse_spec(body: &[u8]) -> Result<ExperimentSpec, (u16, String)> {
    let text = std::str::from_utf8(body)
        .map_err(|_| (400, error_json("request body is not valid UTF-8")))?;
    let spec = ExperimentSpec::parse(text)
        .map_err(|e| (422, error_json(&format!("spec rejected: {e}"))))?;
    spec.validate().map_err(|e| (422, error_json(&format!("spec rejected: {e}"))))?;
    Ok(spec)
}

/// `POST /v1/campaigns`: validate, lint, shard, stream.
///
/// Every deduplicated run is submitted to the pool; the handler then streams
/// the plan through `CampaignPlan::walk` — the walk `Campaign::run`
/// takes — framing each record and report as one HTTP chunk and waiting
/// on the pool only when the next plan position is still in flight.
/// The header line goes out at once, and before each wait the handler
/// flushes the chunks buffered so far. A
/// client that disconnects mid-stream aborts the walk, but
/// already-queued runs still execute and land in the store.
fn campaigns(
    stream: &mut TcpStream,
    state: &ServerState,
    pool: &WorkerPool,
    body: &[u8],
) -> std::io::Result<()> {
    let spec = match parse_spec(body) {
        Ok(spec) => spec,
        Err((status, body)) => return http::respond_json(stream, status, &body),
    };
    let findings = lint_spec(&spec);
    if has_errors(&findings) {
        let body = Json::obj(vec![
            ("error", Json::str("spec failed lint")),
            ("findings", Json::Arr(findings.iter().map(LintFinding::to_json).collect())),
        ])
        .render_compact();
        return http::respond_json(stream, 422, &body);
    }
    state.campaigns.fetch_add(1, Ordering::Relaxed);

    // Shard: every deduplicated run into the shared queue.
    let campaign = spec.to_campaign_builder(1).build();
    let plan = campaign.plan();
    let unique = plan.unique_specs();
    let done = pool.submit(unique, Some(&state.store));

    // Stream: header, the plan-order walk, then the summary and stats.
    let mut writer = ChunkedWriter::begin(stream, 200, "application/x-ndjson");
    writer.chunk(&line(Json::obj(vec![
        ("type", Json::str("campaign")),
        ("name", Json::str(spec.name.clone())),
        ("spec_hash", Json::str(format!("{:016x}", spec.spec_hash()))),
        ("scenarios", Json::U64(plan.scenarios().len() as u64)),
        ("planned_runs", Json::U64(plan.planned_runs() as u64)),
        ("unique_runs", Json::U64(unique.len() as u64)),
    ])))?;
    // The header goes out at once, ahead of whatever runs have landed.
    writer.flush()?;

    // Both walk closures write: the sink its lines, the result closure a
    // flush before it blocks. A failed flush parks its error in
    // `flush_failed` for the next sink call, which ends the walk with it.
    let writer = SharedWriter(Cell::new(Some(writer)));
    let flush_failed = Cell::new(None);
    let mut results = vec![None; unique.len()];
    let mut usage = StoreUsage::default();
    let mut delivered = 0usize;
    let failed_runs = plan.walk(
        |idx| {
            // Block until run `idx` lands; a pool whose workers died
            // leaves it missing, and the walk records an error.
            while results.get(idx).is_some_and(Option::is_none) {
                let landed = match done.try_recv() {
                    Ok(landed) => landed,
                    Err(TryRecvError::Disconnected) => break,
                    Err(TryRecvError::Empty) => {
                        if let Err(e) = writer.with(ChunkedWriter::flush) {
                            flush_failed.set(Some(e));
                            break;
                        }
                        let Ok(landed) = done.recv() else { break };
                        landed
                    }
                };
                let (index, outcome) = landed;
                if let Some(slot) = results.get_mut(index) {
                    delivered += 1;
                    *slot = Some(usage.tally(outcome));
                }
            }
            results.get(idx).cloned().flatten()
        },
        |item| {
            if let Some(e) = flush_failed.take() {
                return Err(e);
            }
            match item {
                PlanItem::Run(record, spec) => {
                    let line = run_line(&record, spec.map(|(_, hash)| hash));
                    writer.with(|w| w.chunk(&line))?;
                    state.runs_streamed.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }
                PlanItem::Scenario(report) => {
                    let line = scenario_line(&report);
                    writer.with(|w| w.chunk(&line))
                }
            }
        },
    )?;
    let mut writer = writer.take()?;

    let executed = delivered.saturating_sub(usage.hits);
    writer.chunk(&line(Json::obj(vec![
        ("type", Json::str("summary")),
        ("scenarios", Json::U64(plan.scenarios().len() as u64)),
        ("planned_runs", Json::U64(plan.planned_runs() as u64)),
        ("unique_runs", Json::U64(unique.len() as u64)),
        ("failed_runs", Json::U64(failed_runs as u64)),
    ])))?;
    writer.chunk(&line(Json::obj(vec![
        ("type", Json::str("stats")),
        ("submitted_runs", Json::U64(unique.len() as u64)),
        ("executed_runs", Json::U64(executed as u64)),
        ("store_hits", Json::U64(usage.hits as u64)),
        ("store_writes", Json::U64(usage.writes as u64)),
        ("warnings", Json::Arr(usage.warnings.iter().map(Json::str).collect())),
    ])))?;
    state.runs_executed.fetch_add(executed as u64, Ordering::Relaxed);
    writer.finish()
}

/// A [`ChunkedWriter`] that both closures of a campaign walk use through
/// a shared reference: each call moves the writer out of the cell and
/// back, so no borrow outlives a call and nothing can panic.
struct SharedWriter<'a>(Cell<Option<ChunkedWriter<'a, TcpStream>>>);

impl<'a> SharedWriter<'a> {
    fn with(
        &self,
        write: impl FnOnce(&mut ChunkedWriter<'a, TcpStream>) -> std::io::Result<()>,
    ) -> std::io::Result<()> {
        let mut writer = self.take()?;
        let written = write(&mut writer);
        self.0.set(Some(writer));
        written
    }

    fn take(&self) -> std::io::Result<ChunkedWriter<'a, TcpStream>> {
        self.0.take().ok_or_else(|| std::io::Error::other("the stream writer is gone"))
    }
}

// ---------------------------------------------------------------------
// NDJSON line builders
// ---------------------------------------------------------------------

fn line(json: Json) -> Vec<u8> {
    let mut text = json.render_compact();
    text.push('\n');
    text.into_bytes()
}

/// A `run` line: the record's own fields prefixed with the line type
/// and the run's content address (absent for plan failures), so clients
/// can follow up with `GET /v1/runs/{spec_hash}`.
fn run_line(record: &RunRecord, spec_hash: Option<u64>) -> Vec<u8> {
    let mut fields = vec![
        (String::from("type"), Json::str("run")),
        (String::from("spec_hash"), Json::option(spec_hash, |h| Json::str(format!("{h:016x}")))),
    ];
    if let Json::Obj(pairs) = record.to_json() {
        fields.extend(pairs);
    }
    line(Json::Obj(fields))
}

fn scenario_line(report: &ScenarioReport) -> Vec<u8> {
    let mut fields = vec![(String::from("type"), Json::str("scenario"))];
    if let Json::Obj(pairs) = report.to_json() {
        fields.extend(pairs);
    }
    line(Json::Obj(fields))
}

fn error_json(message: &str) -> String {
    Json::obj(vec![("error", Json::str(message))]).render_compact()
}
