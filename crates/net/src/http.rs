//! HTTP/1.1 message types, parsing and serialization.
//!
//! Scope: origin-form request targets, `Content-Length` body framing
//! (both PSP endpoints we simulate use it), case-insensitive headers,
//! bounded message sizes. Chunked transfer encoding is intentionally not
//! implemented — both ends of every connection in this system are ours.
//!
//! One framing in both directions: the push [`Parser`], generic over the
//! start line ([`Message`]), reads every request (the reactors feed a
//! [`RequestParser`] whatever the socket produced) and every reply
//! ([`Response::read_from`] feeds it a blocking socket's buffer), so hostile
//! bytes from a client, the PSP or a storage node meet one set of rules.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};

/// Maximum accepted header block (DoS guard).
pub const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Maximum accepted body (a P3 original photo is a few MB).
const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;

/// HTTP request methods used by the P3 system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// GET — photo downloads.
    Get,
    /// POST — photo uploads.
    Post,
    /// PUT — storage-provider blob writes.
    Put,
    /// DELETE — blob management.
    Delete,
}

impl Method {
    /// Parse from the request-line token.
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "POST" => Some(Method::Post),
            "PUT" => Some(Method::Put),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }

    /// Wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
        }
    }
}

/// HTTP protocol version of a request.
///
/// Keep-alive defaults differ: HTTP/1.1 connections persist unless
/// `Connection: close` is sent, HTTP/1.0 connections close unless
/// `Connection: keep-alive` is sent. The server threads the parsed
/// version through [`Request`] so it can honor both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// HTTP/1.0 — connections default to close.
    Http10,
    /// HTTP/1.1 — connections default to keep-alive.
    Http11,
}

impl Version {
    /// Parse from the request-line token.
    pub fn parse(s: &str) -> Option<Version> {
        match s {
            "HTTP/1.0" => Some(Version::Http10),
            "HTTP/1.1" => Some(Version::Http11),
            _ => None,
        }
    }

    /// Wire name.
    pub fn as_str(&self) -> &'static str {
        match self {
            Version::Http10 => "HTTP/1.0",
            Version::Http11 => "HTTP/1.1",
        }
    }

    /// Whether connections persist by default at this version.
    fn default_keep_alive(&self) -> bool {
        matches!(self, Version::Http11)
    }
}

/// Response status codes used in this system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusCode(pub u16);

impl StatusCode {
    /// 200.
    pub const OK: StatusCode = StatusCode(200);
    /// 201.
    pub const CREATED: StatusCode = StatusCode(201);
    /// 206 — a byte range of the representation.
    pub const PARTIAL_CONTENT: StatusCode = StatusCode(206);
    /// 400.
    pub const BAD_REQUEST: StatusCode = StatusCode(400);
    /// 404.
    pub const NOT_FOUND: StatusCode = StatusCode(404);
    /// 413.
    pub const PAYLOAD_TOO_LARGE: StatusCode = StatusCode(413);
    /// 416 — the `Range` header was malformed or out of bounds.
    const RANGE_NOT_SATISFIABLE: StatusCode = StatusCode(416);
    /// 422 — well-formed, but not something this server can act on.
    pub const UNPROCESSABLE: StatusCode = StatusCode(422);
    /// 500.
    pub const INTERNAL: StatusCode = StatusCode(500);
    /// 502.
    pub const BAD_GATEWAY: StatusCode = StatusCode(502);
    /// 503 — the server's accept queue is full (backpressure).
    pub const SERVICE_UNAVAILABLE: StatusCode = StatusCode(503);

    /// Canonical reason phrase.
    pub fn reason(&self) -> &'static str {
        match self.0 {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            206 => "Partial Content",
            400 => "Bad Request",
            403 => "Forbidden",
            404 => "Not Found",
            413 => "Payload Too Large",
            416 => "Range Not Satisfiable",
            422 => "Unprocessable Content",
            500 => "Internal Server Error",
            502 => "Bad Gateway",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// 2xx?
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.0)
    }
}

/// Case-insensitive header map (stored lowercased). Not a multimap:
/// [`Headers::set`] replaces any existing value for the name — last
/// writer wins, which is all the single-valued headers this system
/// exchanges ever need.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    map: BTreeMap<String, String>,
}

impl Headers {
    /// Empty header set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set (replace) a header.
    pub fn set(&mut self, name: &str, value: impl Into<String>) {
        self.map.insert(name.to_ascii_lowercase(), value.into());
    }

    /// Get a header value.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.map.get(&name.to_ascii_lowercase()).map(String::as_str)
    }

    /// Iterate `(name, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of headers.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if no headers are set.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// One byte range from a `Range: bytes=…` header.
///
/// This server deliberately speaks the two forms the P3 video streaming
/// path needs and nothing more: `bytes=a-b` (inclusive) and the
/// open-ended `bytes=a-`. Suffix ranges (`bytes=-n`) and multi-range
/// lists are *refused* as malformed rather than silently served whole —
/// the seed's behavior of ignoring `Range` entirely is exactly the bug
/// this type exists to fix, and a client that sent a range it believes
/// in must hear 416, not receive an unexpected full body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ByteRange {
    /// `bytes=a-b`: offsets `a..=b`.
    FromTo(u64, u64),
    /// `bytes=a-`: offset `a` to the end of the representation.
    From(u64),
}

/// Disposition of a request's `Range` header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RangeHeader {
    /// No `Range` header, or a non-`bytes` unit (ignored per RFC 9110
    /// §14.2: unknown units mean "serve the full representation").
    None,
    /// A `bytes` range this server refuses to parse (syntax error,
    /// inverted bounds, suffix form, or a multi-range list). The
    /// handler must answer 416.
    Malformed,
    /// One well-formed bytes range, not yet resolved against a length.
    Bytes(ByteRange),
}

/// Strictly parse an optional `Range` header value.
fn parse_range_header(value: Option<&str>) -> RangeHeader {
    let Some(value) = value else {
        return RangeHeader::None;
    };
    let value = value.trim();
    let Some(spec) = value
        .strip_prefix("bytes=")
        .or_else(|| value.strip_prefix("Bytes=").or_else(|| value.strip_prefix("BYTES=")))
    else {
        // Some other unit ("lines=", …): not ours to satisfy; serve whole.
        return RangeHeader::None;
    };
    if spec.contains(',') {
        // Multi-range: valid HTTP, unsupported here — refuse loudly.
        return RangeHeader::Malformed;
    }
    let Some((start, end)) = spec.split_once('-') else {
        return RangeHeader::Malformed;
    };
    let parse_off = |s: &str| -> Option<u64> {
        if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        s.parse().ok()
    };
    match (parse_off(start), end.is_empty(), parse_off(end)) {
        (Some(a), true, _) => RangeHeader::Bytes(ByteRange::From(a)),
        (Some(a), false, Some(b)) if a <= b => RangeHeader::Bytes(ByteRange::FromTo(a, b)),
        // `-n` suffix form, inverted bounds, or non-numeric offsets.
        _ => RangeHeader::Malformed,
    }
}

impl ByteRange {
    /// Resolve against a representation of `len` bytes. Returns the
    /// inclusive `(start, end)` to serve, or `None` when the range is
    /// unsatisfiable (start at or past the end — including any range
    /// against an empty body).
    fn resolve(&self, len: u64) -> Option<(u64, u64)> {
        let (start, want_end) = match *self {
            ByteRange::FromTo(a, b) => (a, b),
            ByteRange::From(a) => (a, u64::MAX),
        };
        if start >= len {
            return None;
        }
        Some((start, want_end.min(len - 1)))
    }
}

/// Apply a request's `Range` header to an already-materialized 200
/// response: slice the body to a 206 with `content-range`, answer 416
/// (with `content-range: bytes */len`) on a malformed or unsatisfiable
/// range, or pass the response through whole — always advertising
/// `accept-ranges: bytes`. Non-2xx responses pass through untouched so
/// error bodies are never sliced.
pub fn apply_range(req: &Request, mut resp: Response) -> Response {
    if !resp.status.is_success() {
        return resp;
    }
    resp.headers.set("accept-ranges", "bytes");
    let len = resp.body.len() as u64;
    let range = match parse_range_header(req.headers.get("range")) {
        RangeHeader::None => return resp,
        RangeHeader::Malformed => None,
        RangeHeader::Bytes(r) => r.resolve(len),
    };
    match range {
        Some((start, end)) => {
            resp.status = StatusCode::PARTIAL_CONTENT;
            resp.headers.set("content-range", format!("bytes {start}-{end}/{len}"));
            resp.body = resp.body[start as usize..=end as usize].to_vec();
            resp
        }
        None => {
            let mut out =
                Response::text(StatusCode::RANGE_NOT_SATISFIABLE, "range not satisfiable");
            out.headers.set("content-range", format!("bytes */{len}"));
            out.headers.set("accept-ranges", "bytes");
            out
        }
    }
}

/// Parse/IO failures.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed message.
    Parse(String),
    /// Message exceeds the size guards.
    TooLarge,
    /// Underlying socket error.
    Io(std::io::Error),
    /// Clean EOF before any bytes (keep-alive close).
    Closed,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Parse(m) => write!(f, "http parse: {m}"),
            HttpError::TooLarge => write!(f, "http message too large"),
            HttpError::Io(e) => write!(f, "http io: {e}"),
            HttpError::Closed => write!(f, "connection closed"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// An HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Method.
    pub method: Method,
    /// Path without the query string (e.g. `/photos/42`).
    pub path: String,
    /// Decoded query parameters in order of appearance.
    pub query: Vec<(String, String)>,
    /// Protocol version from the request line (HTTP/1.0 closes by
    /// default, HTTP/1.1 keeps alive by default).
    pub version: Version,
    /// Headers.
    pub headers: Headers,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Build an HTTP/1.1 request with a body.
    pub fn new(method: Method, target: &str, body: Vec<u8>) -> Request {
        let (path, query) = split_target(target);
        Request { method, path, query, version: Version::Http11, headers: Headers::new(), body }
    }

    /// Whether the connection should persist after this request: an
    /// explicit `Connection` header wins, otherwise the version default
    /// applies (keep-alive for HTTP/1.1, close for HTTP/1.0).
    pub fn wants_keep_alive(&self) -> bool {
        match self.headers.get("connection") {
            Some(v) if v.eq_ignore_ascii_case("close") => false,
            Some(v) if v.eq_ignore_ascii_case("keep-alive") => true,
            _ => self.version.default_keep_alive(),
        }
    }

    /// First query value by key.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// Reassemble the request target (path + query).
    pub fn target(&self) -> String {
        if self.query.is_empty() {
            self.path.clone()
        } else {
            let qs: Vec<String> = self.query.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("{}?{}", self.path, qs.join("&"))
        }
    }

    /// `InvalidInput` unless the target is one request-line token (see
    /// [`Request::write_to`]); checks the parts without reassembling them.
    pub(crate) fn check_target(&self) -> std::io::Result<()> {
        let mut parts =
            std::iter::once(&self.path).chain(self.query.iter().flat_map(|(k, v)| [k, v]));
        if parts.all(|part| is_target_token(part)) {
            return Ok(());
        }
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("request target {:?} is not one token", self.target()),
        ))
    }

    /// Serialize onto a writer: the head in one write, then the body.
    /// A target that is not one request-line token — it holds a space,
    /// a control byte or DEL — is refused with `InvalidInput` before a
    /// byte is written: such a target (a photo ID an untrusted PSP
    /// chose, a blob ID an untrusted node listed) would end the request
    /// line early and smuggle a second request in behind it.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        self.check_target()?;
        let (method, target, version) = (self.method.as_str(), self.target(), self.version);
        let start = format_args!("{method} {target} {}", version.as_str());
        write_message(w, start, &self.headers, &self.body)
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status.
    pub status: StatusCode,
    /// Headers.
    pub headers: Headers,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// 200 with a content type and body.
    pub fn ok(content_type: &str, body: Vec<u8>) -> Response {
        let mut headers = Headers::new();
        headers.set("content-type", content_type);
        Response { status: StatusCode::OK, headers, body }
    }

    /// Plain-text response with an arbitrary status.
    pub fn text(status: StatusCode, msg: &str) -> Response {
        let mut headers = Headers::new();
        headers.set("content-type", "text/plain");
        Response { status, headers, body: msg.as_bytes().to_vec() }
    }

    /// Serialize onto a writer: the head in one write, then the body.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let start = format_args!("HTTP/1.1 {} {}", self.status.0, self.status.reason());
        write_message(w, start, &self.headers, &self.body)
    }

    /// Read one response off a buffered stream through a [`Parser`],
    /// consuming exactly its bytes. End of stream before its first byte is
    /// [`HttpError::Closed`], anywhere after it [`HttpError::Parse`].
    pub fn read_from<R: Read>(r: &mut BufReader<R>) -> Result<Response, HttpError> {
        let mut parser = Parser::new();
        loop {
            let input = match r.fill_buf() {
                Ok([]) => return Err(parser.eof()),
                Ok(input) => input,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(HttpError::Io(e)),
            };
            let (n, reply) = parser.feed(input)?;
            r.consume(n);
            if let Some(reply) = reply {
                return Ok(reply);
            }
        }
    }
}

/// Serialize one message: start line, headers, then `content-length`, in
/// one buffer and one write (a write per header line would cost a TCP
/// segment each and Nagle/delayed-ACK stalls), then the body.
fn write_message<W: Write>(
    w: &mut W,
    start: fmt::Arguments<'_>,
    headers: &Headers,
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = Vec::with_capacity(256);
    write!(head, "{start}\r\n")?;
    for (k, v) in headers.iter().filter(|&(k, _)| k != "content-length") {
        write!(head, "{k}: {v}\r\n")?;
    }
    write!(head, "content-length: {}\r\n\r\n", body.len())?;
    w.write_all(&head)?;
    w.write_all(body)?;
    w.flush()
}

/// Whether `target` can stand in a request line as one token: no byte
/// of it is a space, a control byte or DEL.
pub(crate) fn is_target_token(target: &str) -> bool {
    !target.bytes().any(|b| b <= b' ' || b == 0x7F)
}

fn split_target(target: &str) -> (String, Vec<(String, String)>) {
    match target.split_once('?') {
        None => (target.to_string(), Vec::new()),
        Some((path, qs)) => {
            let query = qs
                .split('&')
                .filter(|s| !s.is_empty())
                .map(|pair| match pair.split_once('=') {
                    Some((k, v)) => (k.to_string(), v.to_string()),
                    None => (pair.to_string(), String::new()),
                })
                .collect();
            (path.to_string(), query)
        }
    }
}

fn parse_header_line(line: &str, headers: &mut Headers) -> Result<(), HttpError> {
    let (name, value) = line
        .split_once(':')
        .ok_or_else(|| HttpError::Parse(format!("bad header line {line:?}")))?;
    let name = name.trim();
    // [`Headers::set`] replaces, and for the one header that frames the
    // message "last wins" is a guess the peer (or a proxy in between)
    // may make the other way. A repeat is refused even when the values
    // agree: nothing this system talks to sends one.
    if name.eq_ignore_ascii_case("content-length") && headers.get(name).is_some() {
        return Err(HttpError::Parse("repeated content-length".into()));
    }
    headers.set(name, value.trim().to_string());
    Ok(())
}

/// The body's length, which only `content-length` may give: a message
/// that declares a transfer coding this crate does not decode (chunked)
/// would otherwise frame as empty and its body be parsed as the next
/// message on the connection.
fn body_len(headers: &Headers) -> Result<usize, HttpError> {
    if headers.get("transfer-encoding").is_some() {
        return Err(HttpError::Parse("transfer-encoding is not supported".into()));
    }
    let len: usize = match headers.get("content-length") {
        None => 0,
        Some(v) => v.parse().map_err(|_| HttpError::Parse("bad content-length".into()))?,
    };
    if len > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge);
    }
    Ok(len)
}

/// A message the one [`Parser`] frames: requests and responses differ on
/// the wire in their start line alone.
pub trait Message: Sized {
    /// What the start line parses to.
    type Start;
    /// Parse the start line (its line ending trimmed).
    fn parse_start(line: &str) -> Result<Self::Start, HttpError>;
    /// The whole message from its parsed parts.
    fn assemble(start: Self::Start, headers: Headers, body: Vec<u8>) -> Self;
}

impl Message for Request {
    /// Method, path, query pairs, version.
    type Start = (Method, String, Vec<(String, String)>, Version);

    fn parse_start(line: &str) -> Result<Self::Start, HttpError> {
        let mut parts = line.split(' ');
        let method = parts
            .next()
            .and_then(Method::parse)
            .ok_or_else(|| HttpError::Parse(format!("bad method in {line:?}")))?;
        let target = parts.next().ok_or_else(|| HttpError::Parse("missing target".into()))?;
        let version = parts
            .next()
            .and_then(Version::parse)
            .ok_or_else(|| HttpError::Parse(format!("unsupported version in {line:?}")))?;
        let (path, query) = split_target(target);
        Ok((method, path, query, version))
    }

    fn assemble(start: Self::Start, headers: Headers, body: Vec<u8>) -> Request {
        let (method, path, query, version) = start;
        Request { method, path, query, version, headers, body }
    }
}

impl Message for Response {
    type Start = StatusCode;

    /// `HTTP/1.0` or `HTTP/1.1`, then a three-digit code in 100–599,
    /// then an optional reason phrase (ignored).
    fn parse_start(line: &str) -> Result<StatusCode, HttpError> {
        let bad = || HttpError::Parse(format!("bad status line {line:?}"));
        let mut parts = line.splitn(3, ' ');
        parts.next().and_then(Version::parse).ok_or_else(bad)?;
        let code = parts.next().filter(|c| c.len() == 3 && c.bytes().all(|b| b.is_ascii_digit()));
        match code.and_then(|c| c.parse().ok()) {
            Some(code @ 100..=599) => Ok(StatusCode(code)),
            _ => Err(bad()),
        }
    }

    fn assemble(status: StatusCode, headers: Headers, body: Vec<u8>) -> Response {
        Response { status, headers, body }
    }
}

enum Phase {
    FirstLine,
    Headers,
    Body { need: usize },
}

/// Resumable push parser: the epoll server's per-connection state
/// ([`RequestParser`]) and every read of a reply ([`Response::read_from`]).
/// `feed` never blocks: it takes whatever bytes arrived, returns how many it
/// consumed and a message once one is whole, and leaves a pipelined rest
/// unconsumed. An unterminated line is [`HttpError::TooLarge`] as soon as
/// the header budget is spent; a declared body reserves at most 1 MiB.
pub struct Parser<M: Message> {
    phase: Phase,
    /// Bytes of the current, not-yet-terminated line (sans `\n`).
    line: Vec<u8>,
    header_bytes: usize,
    /// The parsed start line, once [`Phase::FirstLine`] is past.
    start: Option<M::Start>,
    headers: Headers,
    body: Vec<u8>,
}

/// The reactor's per-connection request parser.
pub type RequestParser = Parser<Request>;

impl<M: Message> Default for Parser<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Message> Parser<M> {
    /// A parser expecting the start of a message.
    pub fn new() -> Self {
        Parser {
            phase: Phase::FirstLine,
            line: Vec::new(),
            header_bytes: 0,
            start: None,
            headers: Headers::new(),
            body: Vec::new(),
        }
    }

    /// True when no bytes of the next message have arrived yet —
    /// i.e. the connection is between messages (idle-timeout eligible).
    pub fn is_idle(&self) -> bool {
        matches!(self.phase, Phase::FirstLine) && self.line.is_empty()
    }

    /// What the end of the stream means now: a clean close between
    /// messages, a truncated message inside one.
    fn eof(&self) -> HttpError {
        if self.is_idle() {
            HttpError::Closed
        } else {
            HttpError::Parse("eof in a message".into())
        }
    }

    /// Hand back the assembled message and reset for the next one.
    fn finish(&mut self) -> M {
        let done = std::mem::take(self);
        M::assemble(done.start.expect("finish without a start line"), done.headers, done.body)
    }

    /// Feed input bytes; returns `(consumed, maybe-complete-message)`.
    /// On completion, unused input is left for the caller (pipelining)
    /// and the parser resets for the next message.
    pub fn feed(&mut self, input: &[u8]) -> Result<(usize, Option<M>), HttpError> {
        let mut consumed = 0;
        while consumed < input.len() {
            match self.phase {
                Phase::FirstLine | Phase::Headers => {
                    let rest = &input[consumed..];
                    let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                        self.line.extend_from_slice(rest);
                        consumed = input.len();
                        // A line that would already blow the size guard
                        // can be rejected before its terminator arrives.
                        if self.header_bytes + self.line.len() > MAX_HEADER_BYTES {
                            return Err(HttpError::TooLarge);
                        }
                        break;
                    };
                    self.line.extend_from_slice(&rest[..nl]);
                    consumed += nl + 1;
                    let raw_len = self.line.len() + 1; // include the '\n'
                    let owned = std::mem::take(&mut self.line);
                    let text = String::from_utf8(owned)
                        .map_err(|_| HttpError::Parse("non-utf8 header line".into()))?;
                    let line = text.trim_end();
                    if matches!(self.phase, Phase::FirstLine) {
                        self.start = Some(M::parse_start(line)?);
                        self.phase = Phase::Headers;
                        continue;
                    }
                    self.header_bytes += raw_len;
                    if self.header_bytes > MAX_HEADER_BYTES {
                        return Err(HttpError::TooLarge);
                    }
                    if line.is_empty() {
                        let need = body_len(&self.headers)?;
                        if need == 0 {
                            return Ok((consumed, Some(self.finish())));
                        }
                        self.body.reserve(need.min(1 << 20));
                        self.phase = Phase::Body { need };
                    } else {
                        parse_header_line(line, &mut self.headers)?;
                    }
                }
                Phase::Body { need } => {
                    let take = need.min(input.len() - consumed);
                    self.body.extend_from_slice(&input[consumed..consumed + take]);
                    consumed += take;
                    if need == take {
                        return Ok((consumed, Some(self.finish())));
                    }
                    self.phase = Phase::Body { need: need - take };
                }
            }
        }
        Ok((consumed, None))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// One whole request through the push parser, as a server reads it.
    fn parse_request(raw: &[u8]) -> Result<Request, HttpError> {
        let (consumed, req) = RequestParser::new().feed(raw)?;
        assert_eq!(consumed, raw.len());
        Ok(req.expect("request did not complete"))
    }

    fn roundtrip_request(req: &Request) -> Request {
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        parse_request(&buf).unwrap()
    }

    #[test]
    fn request_roundtrip() {
        let mut req = Request::new(Method::Post, "/photos?size=big&mode=fit", vec![1, 2, 3]);
        req.headers.set("Content-Type", "image/jpeg");
        let back = roundtrip_request(&req);
        assert_eq!(back.method, Method::Post);
        assert_eq!(back.path, "/photos");
        assert_eq!(back.query_param("size"), Some("big"));
        assert_eq!(back.query_param("mode"), Some("fit"));
        assert_eq!(back.headers.get("content-type"), Some("image/jpeg"));
        assert_eq!(back.body, vec![1, 2, 3]);
    }

    #[test]
    fn a_target_that_is_not_one_token_is_never_written() {
        for bad in ["/blobs/7\r", "/blobs/7\n", "/blobs/7 HTTP/1.1", "/blobs/\x7f", "/a?k=\r\nx"] {
            let mut out = Vec::new();
            let err = Request::new(Method::Put, bad, b"x".to_vec()).write_to(&mut out).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{bad:?}");
            assert!(out.is_empty(), "{bad:?}: wrote {} bytes", out.len());
        }
        let mut out = Vec::new();
        Request::new(Method::Get, "/blobs/vid:ab12:sec?after=6869&limit=2", vec![])
            .write_to(&mut out)
            .unwrap();
        assert!(out.starts_with(b"GET /blobs/vid:ab12:sec?after=6869&limit=2 HTTP/1.1\r\n"));
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok("image/jpeg", vec![9u8; 1000]);
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let back = Response::read_from(&mut BufReader::new(Cursor::new(buf))).unwrap();
        assert_eq!(back.status, StatusCode::OK);
        assert_eq!(back.body.len(), 1000);
    }

    #[test]
    fn headers_case_insensitive() {
        let mut h = Headers::new();
        h.set("Content-Type", "x");
        assert_eq!(h.get("content-type"), Some("x"));
        assert_eq!(h.get("CONTENT-TYPE"), Some("x"));
        h.set("CONTENT-TYPE", "y");
        assert_eq!(h.get("Content-Type"), Some("y"));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn empty_body_when_no_content_length() {
        let raw = b"GET /x HTTP/1.1\r\nhost: a\r\n\r\n";
        let req = parse_request(raw).unwrap();
        assert!(req.body.is_empty());
        assert_eq!(req.method, Method::Get);
    }

    #[test]
    fn malformed_rejected() {
        for raw in [
            &b"BANANA / HTTP/1.1\r\n\r\n"[..],
            b"GET /\r\n\r\n",
            b"GET / SPDY/9\r\n\r\n",
            b"GET / HTTP/1.1\r\nbadheader\r\n\r\n",
        ] {
            assert!(RequestParser::new().feed(raw).is_err(), "{raw:?} accepted");
        }
    }

    #[test]
    fn ambiguous_framing_is_a_parse_error_in_both_directions() {
        const CHUNK: &str = "5\r\nhello\r\n0\r\n\r\n";
        for (what, headers, body) in [
            ("conflicting content-length", "content-length: 5\r\ncontent-length: 0\r\n", "hello"),
            ("identical content-length", "content-length: 5\r\nContent-Length: 5\r\n", "hello"),
            ("chunked", "transfer-encoding: chunked\r\n", CHUNK),
            ("chunked + length", "content-length: 5\r\nTransfer-Encoding: chunked\r\n", CHUNK),
        ] {
            // A client's request through the push parser: refused at the
            // header block, so not one body byte is taken for a second
            // request.
            let raw = format!("POST /blobs/x HTTP/1.1\r\n{headers}\r\n{body}");
            let err = match RequestParser::new().feed(raw.as_bytes()) {
                Err(err) => err,
                Ok((n, req)) => panic!("{what}: consumed {n}, parsed {:?}", req.map(|r| r.path)),
            };
            assert!(matches!(err, HttpError::Parse(_)), "{what}: {err}");
            // A node's or the PSP's reply through the blocking reader.
            let raw = format!("HTTP/1.1 200 OK\r\n{headers}\r\n{body}");
            let err = Response::read_from(&mut BufReader::new(Cursor::new(raw))).unwrap_err();
            assert!(matches!(err, HttpError::Parse(_)), "{what}: {err}");
        }
    }

    /// A request stream through the push parser, then end of stream, as
    /// the reactor's socket delivers it.
    fn request_then_eof(raw: &[u8]) -> Result<Request, HttpError> {
        let mut p = RequestParser::new();
        match p.feed(raw)? {
            (_, Some(req)) => Ok(req),
            (_, None) => Err(p.eof()),
        }
    }

    #[test]
    fn hostile_bytes_are_the_same_parse_error_in_both_directions() {
        for (what, after_start) in [
            ("non-utf8 header line", &b"x-bad: \xff\xfe\r\ncontent-length: 0\r\n\r\n"[..]),
            ("eof inside the head", b"content-length: 5\r\nx-cut: ab"),
            ("eof inside the body", b"content-length: 5\r\n\r\nhel"),
        ] {
            let raw = [&b"POST /blobs/x HTTP/1.1\r\n"[..], after_start].concat();
            let err = request_then_eof(&raw).unwrap_err();
            assert!(matches!(err, HttpError::Parse(_)), "request, {what}: {err}");
            let raw = [&b"HTTP/1.1 200 OK\r\n"[..], after_start].concat();
            let err = Response::read_from(&mut BufReader::new(Cursor::new(raw))).unwrap_err();
            assert!(matches!(err, HttpError::Parse(_)), "response, {what}: {err}");
        }
    }

    #[test]
    fn status_line_is_as_strict_as_the_request_line() {
        for (line, want) in [
            ("HTTP/1.1 200 OK", Some(200)),
            ("HTTP/1.0 404 Not Found", Some(404)),
            ("HTTP/1.1 100", Some(100)),
            ("HTTP/1.1 599 Anything At All", Some(599)),
            ("HTTP/1.9 200 OK", None), // the version `unknown_minor_versions_rejected` refuses
            ("HTTP/2 200 OK", None),
            ("http/1.1 200 OK", None),
            ("HTTP/1.1 65535 X", None),
            ("HTTP/1.1 2000 OK", None),
            ("HTTP/1.1 20 OK", None),
            ("HTTP/1.1 +20 OK", None),
            ("HTTP/1.1 099 X", None),
            ("HTTP/1.1 600 X", None),
            ("HTTP/1.1  200 OK", None),
            ("HTTP/1.1", None),
        ] {
            let raw = format!("{line}\r\ncontent-length: 0\r\n\r\n");
            match (Response::read_from(&mut BufReader::new(Cursor::new(raw))), want) {
                (Ok(resp), Some(code)) => assert_eq!(resp.status.0, code, "{line:?}"),
                (Err(HttpError::Parse(_)), None) => {}
                (got, _) => panic!("{line:?}: {got:?}"),
            }
        }
    }

    #[test]
    fn clean_eof_is_closed() {
        let err = Response::read_from(&mut BufReader::new(Cursor::new(Vec::new()))).unwrap_err();
        assert!(matches!(err, HttpError::Closed));
        // The request side: a peer that hangs up before its first byte
        // leaves the parser idle (the server's clean-close test); one
        // that hangs up mid-request does not.
        let mut p = RequestParser::new();
        assert!(matches!(p.feed(b""), Ok((0, None))));
        assert!(p.is_idle());
        assert!(matches!(p.feed(b"GET /x HT"), Ok((9, None))));
        assert!(!p.is_idle());
    }

    #[test]
    fn oversized_body_rejected() {
        let raw = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let err = RequestParser::new().feed(raw.as_bytes()).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge));
    }

    /// Counts what a parser pulls off the "socket" it wraps.
    struct Counting<R> {
        inner: R,
        served: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.served += n;
            Ok(n)
        }
    }

    #[test]
    fn unterminated_header_line_is_too_large_within_the_header_budget() {
        // A hostile upstream: a valid status line, then a megabyte of
        // header line with no newline in it.
        const STATUS: &[u8] = b"HTTP/1.1 200 OK\r\n";
        let hostile = STATUS.chain(std::io::repeat(b'a').take(1 << 20));
        let mut reader = BufReader::new(Counting { inner: hostile, served: 0 });
        let err = Response::read_from(&mut reader).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge), "got {err}");
        let served = reader.get_ref().served;
        assert!(
            served <= STATUS.len() + MAX_HEADER_BYTES + reader.capacity(),
            "read {served} bytes of a header line with no newline before giving up"
        );
        // The request line and the request side share the guard.
        let flood = vec![b'G'; MAX_HEADER_BYTES + 2];
        let err = RequestParser::new().feed(&flood).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge), "got {err}");
    }

    #[test]
    fn target_reassembly() {
        let req = Request::new(Method::Get, "/a/b?x=1&y=2", Vec::new());
        assert_eq!(req.target(), "/a/b?x=1&y=2");
        let req = Request::new(Method::Get, "/plain", Vec::new());
        assert_eq!(req.target(), "/plain");
    }

    #[test]
    fn version_parsed_and_keep_alive_defaults() {
        let raw = b"GET /x HTTP/1.0\r\nhost: a\r\n\r\n";
        let req = parse_request(raw).unwrap();
        assert_eq!(req.version, Version::Http10);
        assert!(!req.wants_keep_alive(), "HTTP/1.0 must default to close");

        let raw = b"GET /x HTTP/1.0\r\nconnection: keep-alive\r\n\r\n";
        let req = parse_request(raw).unwrap();
        assert!(req.wants_keep_alive(), "explicit keep-alive overrides the 1.0 default");

        let raw = b"GET /x HTTP/1.1\r\n\r\n";
        let req = parse_request(raw).unwrap();
        assert_eq!(req.version, Version::Http11);
        assert!(req.wants_keep_alive(), "HTTP/1.1 must default to keep-alive");

        let raw = b"GET /x HTTP/1.1\r\nConnection: Close\r\n\r\n";
        let req = parse_request(raw).unwrap();
        assert!(!req.wants_keep_alive(), "explicit close overrides the 1.1 default");
    }

    #[test]
    fn unknown_minor_versions_rejected() {
        // Only 1.0 and 1.1 exist; "HTTP/1.9" is garbage, not a version.
        let raw = b"GET /x HTTP/1.9\r\n\r\n";
        assert!(RequestParser::new().feed(raw).is_err());
    }

    #[test]
    fn request_serializes_its_version() {
        let mut req = Request::new(Method::Get, "/v", Vec::new());
        req.version = Version::Http10;
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        assert!(buf.starts_with(b"GET /v HTTP/1.0\r\n"));
    }

    #[test]
    fn status_reasons() {
        assert_eq!(StatusCode::OK.reason(), "OK");
        assert_eq!(StatusCode::NOT_FOUND.reason(), "Not Found");
        assert_eq!(StatusCode::PARTIAL_CONTENT.reason(), "Partial Content");
        assert_eq!(StatusCode::RANGE_NOT_SATISFIABLE.reason(), "Range Not Satisfiable");
        assert!(StatusCode::OK.is_success());
        assert!(StatusCode::PARTIAL_CONTENT.is_success());
        assert!(!StatusCode::BAD_GATEWAY.is_success());
    }

    // ---- Range header parsing ---------------------------------------

    #[test]
    fn range_parses_supported_forms() {
        assert_eq!(
            parse_range_header(Some("bytes=0-99")),
            RangeHeader::Bytes(ByteRange::FromTo(0, 99))
        );
        assert_eq!(
            parse_range_header(Some("bytes=42-42")),
            RangeHeader::Bytes(ByteRange::FromTo(42, 42))
        );
        assert_eq!(parse_range_header(Some("bytes=7-")), RangeHeader::Bytes(ByteRange::From(7)));
        assert_eq!(
            parse_range_header(Some("  bytes=1-2  ")),
            RangeHeader::Bytes(ByteRange::FromTo(1, 2)),
            "surrounding whitespace is trimmed"
        );
    }

    #[test]
    fn range_absent_or_foreign_units_ignored() {
        assert_eq!(parse_range_header(None), RangeHeader::None);
        assert_eq!(parse_range_header(Some("lines=1-2")), RangeHeader::None);
        assert_eq!(parse_range_header(Some("items=0-")), RangeHeader::None);
    }

    #[test]
    fn range_negative_cases_are_malformed_not_ignored() {
        // The seed silently served the full body for all of these; the
        // strict parser must reject every one so the handler says 416.
        for bad in [
            "bytes=",                      // no spec at all
            "bytes=-",                     // neither bound
            "bytes=-5",                    // suffix form: deliberately unsupported
            "bytes=5-2",                   // inverted bounds
            "bytes=a-b",                   // non-numeric
            "bytes=1-2-3",                 // too many dashes
            "bytes=1..2",                  // wrong separator
            "bytes=0-4,6-9",               // multi-range list
            "bytes= 0-4",                  // internal whitespace
            "bytes=+1-2",                  // sign prefix
            "bytes=18446744073709551616-", // u64 overflow
        ] {
            assert_eq!(parse_range_header(Some(bad)), RangeHeader::Malformed, "{bad:?}");
        }
    }

    #[test]
    fn range_resolution_clamps_and_rejects() {
        assert_eq!(ByteRange::FromTo(0, 9).resolve(100), Some((0, 9)));
        assert_eq!(ByteRange::FromTo(90, 200).resolve(100), Some((90, 99)), "end clamps to len");
        assert_eq!(ByteRange::From(95).resolve(100), Some((95, 99)));
        assert_eq!(ByteRange::FromTo(100, 110).resolve(100), None, "start at len");
        assert_eq!(ByteRange::From(0).resolve(0), None, "any range on an empty body");
    }

    #[test]
    fn apply_range_slices_and_labels() {
        let mut req = Request::new(Method::Get, "/blob", Vec::new());
        req.headers.set("range", "bytes=2-4");
        let resp =
            apply_range(&req, Response::ok("application/octet-stream", vec![0, 1, 2, 3, 4, 5]));
        assert_eq!(resp.status, StatusCode::PARTIAL_CONTENT);
        assert_eq!(resp.body, vec![2, 3, 4]);
        assert_eq!(resp.headers.get("content-range"), Some("bytes 2-4/6"));
        assert_eq!(resp.headers.get("accept-ranges"), Some("bytes"));
    }

    #[test]
    fn apply_range_full_body_advertises_support() {
        let req = Request::new(Method::Get, "/blob", Vec::new());
        let resp = apply_range(&req, Response::ok("application/octet-stream", vec![1, 2, 3]));
        assert_eq!(resp.status, StatusCode::OK);
        assert_eq!(resp.body, vec![1, 2, 3]);
        assert_eq!(resp.headers.get("accept-ranges"), Some("bytes"));
        assert_eq!(resp.headers.get("content-range"), None);
    }

    #[test]
    fn apply_range_malformed_and_unsatisfiable_are_416() {
        for (header, len) in [("bytes=-5", 10usize), ("bytes=10-", 10), ("bytes=0-4,5-6", 10)] {
            let mut req = Request::new(Method::Get, "/blob", Vec::new());
            req.headers.set("range", header);
            let resp = apply_range(&req, Response::ok("application/octet-stream", vec![9; len]));
            assert_eq!(resp.status, StatusCode::RANGE_NOT_SATISFIABLE, "{header:?}");
            assert_eq!(resp.headers.get("content-range"), Some(format!("bytes */{len}").as_str()));
        }
    }

    #[test]
    fn apply_range_leaves_errors_whole() {
        let mut req = Request::new(Method::Get, "/blob", Vec::new());
        req.headers.set("range", "bytes=0-1");
        let resp = apply_range(&req, Response::text(StatusCode::NOT_FOUND, "no such blob"));
        assert_eq!(resp.status, StatusCode::NOT_FOUND);
        assert_eq!(resp.body, b"no such blob");
    }

    // ---- Incremental (push) parser -----------------------------------

    #[test]
    fn push_parser_handles_one_byte_drip() {
        let mut req = Request::new(Method::Post, "/photos?size=big", vec![7u8; 33]);
        req.headers.set("content-type", "image/jpeg");
        let mut wire = Vec::new();
        req.write_to(&mut wire).unwrap();

        let mut p = RequestParser::new();
        let mut got = None;
        for (i, b) in wire.iter().enumerate() {
            let (n, msg) = p.feed(std::slice::from_ref(b)).unwrap();
            assert_eq!(n, 1);
            if let Some(m) = msg {
                assert_eq!(i, wire.len() - 1, "completed before the last byte");
                got = Some(m);
            }
        }
        let got = got.expect("request did not complete");
        assert_eq!(got.method, Method::Post);
        assert_eq!(got.path, "/photos");
        assert_eq!(got.query_param("size"), Some("big"));
        assert_eq!(got.body, vec![7u8; 33]);
    }

    #[test]
    fn push_parser_leaves_pipelined_remainder_unconsumed() {
        let mut wire = Vec::new();
        Request::new(Method::Get, "/a", Vec::new()).write_to(&mut wire).unwrap();
        let first_len = wire.len();
        Request::new(Method::Get, "/b", Vec::new()).write_to(&mut wire).unwrap();

        let mut p = RequestParser::new();
        let (n, msg) = p.feed(&wire).unwrap();
        assert_eq!(n, first_len, "must stop at the first message boundary");
        assert_eq!(msg.unwrap().path, "/a");
        assert!(p.is_idle());
        let (n2, msg2) = p.feed(&wire[n..]).unwrap();
        assert_eq!(n + n2, wire.len());
        assert_eq!(msg2.unwrap().path, "/b");
    }

    #[test]
    fn push_parser_rejects_oversized_headers() {
        // Terminated lines: same guard as the one-shot reader.
        let mut wire = b"GET / HTTP/1.1\r\n".to_vec();
        let big = "x".repeat(8000);
        for i in 0..10 {
            wire.extend_from_slice(format!("h{i}: {big}\r\n").as_bytes());
        }
        wire.extend_from_slice(b"\r\n");
        let mut p = RequestParser::new();
        assert!(matches!(p.feed(&wire), Err(HttpError::TooLarge)));

        // An unterminated line is rejected as soon as it crosses the
        // guard, without waiting for a newline that may never come.
        let mut p = RequestParser::new();
        p.feed(b"GET / HTTP/1.1\r\nh: ").unwrap();
        let flood = vec![b'y'; MAX_HEADER_BYTES + 1];
        assert!(matches!(p.feed(&flood), Err(HttpError::TooLarge)));
    }

    #[test]
    fn push_parser_rejects_oversized_body_declaration() {
        let wire = format!("POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        let mut p = RequestParser::new();
        assert!(matches!(p.feed(wire.as_bytes()), Err(HttpError::TooLarge)));
    }
}
