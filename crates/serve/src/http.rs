//! A deliberately tiny HTTP/1.1 subset: exactly what the `rrb serve`
//! daemon needs and nothing more.
//!
//! * Requests: one request line, headers, and an optional
//!   `Content-Length` body. No chunked *request* bodies, no multipart,
//!   no compression.
//! * Responses: fixed-length bodies, or `Transfer-Encoding: chunked`
//!   via [`ChunkedWriter`] for streaming campaign output.
//! * Hard limits everywhere: the header section is capped at
//!   [`MAX_HEADER_BYTES`], bodies at [`MAX_BODY_BYTES`], and every read
//!   sits behind the socket's [`READ_TIMEOUT`]. A malicious or
//!   broken client can waste one connection, never the daemon.
//!
//! This module is on the lint-enforced no-panic path (see the
//! `lint_sources` gate): every failure is an [`HttpError`] the
//! connection handler turns into a status code or a dropped connection.

use std::io::{ErrorKind, Read, Write};
use std::time::Duration;

/// Upper bound on the request line + headers, in bytes.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Largest accepted `Content-Length` (an `ExperimentSpec` is a few KiB;
/// 8 MiB leaves two orders of magnitude of headroom).
pub const MAX_BODY_BYTES: usize = 8 * 1024 * 1024;

/// Socket read timeout: bounds idle keep-alive connections and so the
/// shutdown drain.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// One parsed request: method, target path, connection intent, body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercase as sent (`GET`, `POST`, ...).
    pub method: String,
    /// Request target (path + optional query), as sent.
    pub path: String,
    /// Whether the client asked for `Connection: close`.
    pub close: bool,
    /// The request body (empty without a `Content-Length`).
    pub body: Vec<u8>,
}

/// Why reading a request failed.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed or the socket failed mid-request.
    Io(std::io::Error),
    /// The read timeout elapsed (idle keep-alive connection).
    Timeout,
    /// The bytes were not a parseable HTTP/1.x request.
    BadRequest(String),
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    PayloadTooLarge,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Timeout => write!(f, "read timeout"),
            HttpError::BadRequest(why) => write!(f, "bad request: {why}"),
            HttpError::PayloadTooLarge => {
                write!(f, "request body exceeds the {MAX_BODY_BYTES}-byte limit")
            }
        }
    }
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Reads one request from `stream`.
///
/// Returns `Ok(None)` on a clean EOF before any byte of a request — the
/// normal end of a keep-alive connection.
///
/// # Errors
///
/// [`HttpError::Timeout`] when the socket's read timeout fires,
/// [`HttpError::BadRequest`] / [`HttpError::PayloadTooLarge`] for
/// malformed or oversized requests, [`HttpError::Io`] otherwise.
pub fn read_request(stream: &mut impl Read) -> Result<Option<Request>, HttpError> {
    // Accumulate until the header terminator. `MAX_HEADER_BYTES` bounds
    // the buffer, the socket read timeout bounds the wait.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = find_terminator(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return Err(HttpError::BadRequest(format!(
                "header section exceeds {MAX_HEADER_BYTES} bytes"
            )));
        }
        match stream.read(&mut chunk) {
            Ok(0) if buf.is_empty() => return Ok(None),
            Ok(0) => return Err(HttpError::BadRequest(String::from("truncated header section"))),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => return Err(HttpError::Timeout),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Io(e)),
        }
    };

    let header_text = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| HttpError::BadRequest(String::from("headers are not valid UTF-8")))?;
    let mut lines = header_text.split("\r\n");
    let request_line =
        lines.next().ok_or_else(|| HttpError::BadRequest(String::from("empty header section")))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    let version = parts.next().unwrap_or_default();
    if method.is_empty() || path.is_empty() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!("malformed request line `{request_line}`")));
    }

    let mut content_length = 0usize;
    let mut close = version == "HTTP/1.0";
    for line in lines {
        let Some((name, value)) = line.split_once(':') else { continue };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| HttpError::BadRequest(format!("bad content-length `{value}`")))?;
        } else if name.eq_ignore_ascii_case("connection") {
            close = value.eq_ignore_ascii_case("close");
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::PayloadTooLarge);
    }

    // The body: whatever followed the terminator, then the remainder.
    let mut body = buf.split_off((header_end + 4).min(buf.len()));
    body.truncate(content_length);
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::BadRequest(String::from("truncated body"))),
            Ok(n) => {
                let take = n.min(content_length - body.len());
                body.extend_from_slice(&chunk[..take]);
            }
            Err(e) if is_timeout(&e) => return Err(HttpError::Timeout),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    Ok(Some(Request { method, path, close, body }))
}

/// Position of the `\r\n\r\n` header terminator, if present.
fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The reason phrase for the handful of status codes the daemon emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes a complete fixed-length response.
///
/// # Errors
///
/// Propagates socket write errors (the caller drops the connection).
pub fn respond(
    stream: &mut impl Write,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
        reason(status),
        body.len(),
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// [`respond`] with a JSON body (the body must already be rendered).
///
/// # Errors
///
/// Propagates socket write errors.
pub fn respond_json(stream: &mut impl Write, status: u16, json: &str) -> std::io::Result<()> {
    respond(stream, status, "application/json", json.as_bytes())
}

/// How many framed bytes [`ChunkedWriter`] gathers before it writes them
/// out on its own.
const WRITE_BATCH_BYTES: usize = 32 * 1024;

/// A `Transfer-Encoding: chunked` response in progress. Every
/// [`ChunkedWriter::chunk`] becomes exactly one HTTP chunk, so a
/// line-per-chunk writer gives clients whole NDJSON lines. The framed
/// chunks (size line, data, CRLF) gather in a buffer, which goes out in
/// one `write` once it holds 32 KiB, at [`ChunkedWriter::flush`] and at
/// [`ChunkedWriter::finish`]: several chunks per write, the same bytes
/// on the wire. A producer that is about to wait calls `flush` first,
/// so no line sits in the buffer while it waits.
pub struct ChunkedWriter<'a, W: Write> {
    stream: &'a mut W,
    /// The response head and the framed chunks not yet written.
    pending: Vec<u8>,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Starts the response: its head goes out with the first batch of
    /// chunks.
    pub fn begin(stream: &'a mut W, status: u16, content_type: &str) -> ChunkedWriter<'a, W> {
        let head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: \
             chunked\r\n\r\n",
            reason(status),
        );
        let mut pending = Vec::with_capacity(WRITE_BATCH_BYTES + 4096);
        pending.extend_from_slice(head.as_bytes());
        ChunkedWriter { stream, pending }
    }

    /// Frames one chunk into the buffer, writing the buffer out once it
    /// holds 32 KiB.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors (a disconnected client aborts the
    /// stream; in-flight runs still land in the store).
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(()); // an empty chunk would terminate the stream
        }
        write!(self.pending, "{:x}\r\n", data.len())?;
        self.pending.extend_from_slice(data);
        self.pending.extend_from_slice(b"\r\n");
        if self.pending.len() >= WRITE_BATCH_BYTES {
            self.flush()?;
        }
        Ok(())
    }

    /// Writes every buffered chunk to the client in one `write`.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if !self.pending.is_empty() {
            self.stream.write_all(&self.pending)?;
            self.pending.clear();
        }
        self.stream.flush()
    }

    /// Writes the buffered chunks and the terminating zero-length chunk.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn finish(mut self) -> std::io::Result<()> {
        self.pending.extend_from_slice(b"0\r\n\r\n");
        self.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        let mut cursor = std::io::Cursor::new(bytes.to_vec());
        read_request(&mut cursor)
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
        assert!(!req.close);
    }

    #[test]
    fn parses_a_post_with_body_and_close() {
        let req = parse(
            b"POST /v1/campaigns HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nabcd",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"abcd");
        assert!(req.close);
    }

    #[test]
    fn clean_eof_is_none() {
        assert!(parse(b"").unwrap().is_none());
    }

    #[test]
    fn rejects_malformed_request_line() {
        assert!(matches!(parse(b"NONSENSE\r\n\r\n"), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn rejects_truncated_header_section() {
        assert!(matches!(parse(b"GET / HTTP/1.1\r\n"), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn rejects_oversized_header_section() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'x', MAX_HEADER_BYTES + 16));
        assert!(matches!(parse(&raw), Err(HttpError::BadRequest(_))));
    }

    #[test]
    fn rejects_oversized_body_by_declared_length() {
        // The limit is checked before the body is read, so none is sent.
        let over = MAX_BODY_BYTES + 1;
        let got = parse(format!("POST / HTTP/1.1\r\nContent-Length: {over}\r\n\r\n").as_bytes());
        assert!(matches!(got, Err(HttpError::PayloadTooLarge)));
    }

    #[test]
    fn rejects_truncated_body() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"),
            Err(HttpError::BadRequest(_))
        ));
    }

    #[test]
    fn chunked_writer_frames_each_chunk() {
        let mut out = Vec::new();
        let mut w = ChunkedWriter::begin(&mut out, 200, "application/x-ndjson");
        w.chunk(b"{\"a\":1}\n").unwrap();
        w.chunk(b"").unwrap(); // ignored, must not terminate the stream
        w.chunk(b"{\"b\":2}\n").unwrap();
        w.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Transfer-Encoding: chunked"));
        assert!(text.contains("8\r\n{\"a\":1}\n\r\n"));
        assert!(text.ends_with("0\r\n\r\n"));
    }

    /// A writer that counts `write` calls and keeps the bytes.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn chunks_batch_into_fewer_writes_with_per_line_framing() {
        const LINES: usize = 300;
        let line = |i: usize| format!("{{\"line\":{i},\"pad\":\"{}\"}}\n", "x".repeat(i % 400));
        // The bytes a writer that framed and wrote each line on its own
        // puts on the wire.
        let mut expected = b"HTTP/1.1 200 OK\r\nContent-Type: application/x-ndjson\r\n\
                             Transfer-Encoding: chunked\r\n\r\n"
            .to_vec();
        for i in 0..LINES {
            let data = line(i);
            expected.extend_from_slice(format!("{:x}\r\n{data}\r\n", data.len()).as_bytes());
        }
        expected.extend_from_slice(b"0\r\n\r\n");

        let mut out = CountingWriter::default();
        let mut w = ChunkedWriter::begin(&mut out, 200, "application/x-ndjson");
        for i in 0..LINES {
            w.chunk(line(i).as_bytes()).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(out.bytes, expected, "the same bytes as one write per line");
        let batches = expected.len().div_ceil(WRITE_BATCH_BYTES);
        assert!(out.writes <= batches + 1, "{} writes for {LINES} lines", out.writes);
        assert!(out.writes > 1, "a full buffer goes out before `finish`");

        // `flush` puts out what is buffered, so a line never waits there.
        let mut out = CountingWriter::default();
        let mut w = ChunkedWriter::begin(&mut out, 200, "application/x-ndjson");
        w.chunk(b"{}\n").unwrap();
        w.flush().unwrap();
        w.flush().unwrap(); // nothing buffered: no write
        drop(w);
        assert_eq!(out.writes, 1, "the head and the first line in one write");
        assert!(out.bytes.ends_with(b"3\r\n{}\n\r\n"));
    }
}
