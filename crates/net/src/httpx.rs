//! An HTTP/1.1-subset codec for the REST device API (paper, Fig. 2:
//! applications talk to mocks over "REST/MQTT").
//!
//! Supports request lines, status lines, headers, and `Content-Length`
//! bodies — enough to express the device API (`GET /model/<name>`,
//! `POST /model/<name>/intent`, ...). Chunked encoding, pipelining and
//! connection management are out of scope: each request/response rides one
//! reliable transport message.

use std::collections::BTreeMap;
use std::fmt;

use bytes::{BufMut, Bytes, BytesMut};

/// HTTP request methods used by the device API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// `GET` — read a resource.
    Get,
    /// `PUT` — replace a resource.
    Put,
    /// `POST` — act on a resource (intents).
    Post,
    /// `DELETE` — remove a resource.
    Delete,
}

impl Method {
    /// The method's wire spelling (`"GET"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Put => "PUT",
            Method::Post => "POST",
            Method::Delete => "DELETE",
        }
    }

    /// Parse a wire spelling; `None` for unknown methods.
    pub fn parse(s: &str) -> Option<Method> {
        match s {
            "GET" => Some(Method::Get),
            "PUT" => Some(Method::Put),
            "POST" => Some(Method::Post),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Codec errors.
#[derive(Debug, Clone, PartialEq)]
pub enum HttpError {
    /// The message head could not be parsed; the payload says what part.
    Malformed(&'static str),
    /// `content-length` disagreed with the actual body size.
    BodyLengthMismatch {
        /// Bytes promised by the `content-length` header.
        declared: usize,
        /// Bytes actually present after the head.
        actual: usize,
    },
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(what) => write!(f, "malformed http message: {what}"),
            HttpError::BodyLengthMismatch { declared, actual } => {
                write!(f, "content-length {declared} but body has {actual} bytes")
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// An HTTP request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Request target, e.g. `/model/L1`.
    pub path: String,
    /// Headers, lower-cased keys; `content-length` is derived on encode.
    pub headers: BTreeMap<String, String>,
    /// Request body (may be empty).
    pub body: Bytes,
}

impl Request {
    /// A bodyless request.
    pub fn new(method: Method, path: &str) -> Request {
        Request { method, path: path.to_string(), headers: BTreeMap::new(), body: Bytes::new() }
    }

    /// Attach a body and its `content-type` (builder-style).
    pub fn with_body(mut self, content_type: &str, body: impl Into<Bytes>) -> Request {
        self.headers.insert("content-type".into(), content_type.into());
        self.body = body.into();
        self
    }

    /// Set a header (builder-style); keys are lower-cased.
    pub fn header(mut self, key: &str, value: &str) -> Request {
        self.headers.insert(key.to_ascii_lowercase(), value.to_string());
        self
    }

    /// Split the path into non-empty segments: `/model/L1` → `["model","L1"]`.
    pub fn path_segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }

    /// Serialize to wire bytes (`content-length` is always emitted).
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(64 + self.body.len());
        b.put_slice(self.method.as_str().as_bytes());
        b.put_u8(b' ');
        b.put_slice(self.path.as_bytes());
        b.put_slice(b" HTTP/1.1\r\n");
        encode_headers(&self.headers, self.body.len(), &mut b);
        b.put_slice(&self.body);
        b.freeze()
    }

    /// Parse wire bytes produced by [`Request::encode`] (or compatible).
    pub fn decode(buf: &[u8]) -> Result<Request, HttpError> {
        let (head, body) = split_head(buf)?;
        let mut lines = head.split("\r\n");
        let request_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
        let mut parts = request_line.split(' ');
        let method = parts
            .next()
            .and_then(Method::parse)
            .ok_or(HttpError::Malformed("bad method"))?;
        let path = parts.next().ok_or(HttpError::Malformed("missing path"))?.to_string();
        match parts.next() {
            Some("HTTP/1.1") | Some("HTTP/1.0") => {}
            _ => return Err(HttpError::Malformed("bad http version")),
        }
        let mut headers = decode_headers(lines)?;
        let body = check_body(&headers, body)?;
        headers.remove("content-length"); // derived on encode
        Ok(Request { method, path, headers, body })
    }
}

/// An HTTP response.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Status code (200, 404, ...).
    pub status: u16,
    /// Headers, lower-cased keys; `content-length` is derived on encode.
    pub headers: BTreeMap<String, String>,
    /// Response body (may be empty).
    pub body: Bytes,
}

impl Response {
    /// A bodyless response with the given status code.
    pub fn new(status: u16) -> Response {
        Response { status, headers: BTreeMap::new(), body: Bytes::new() }
    }

    /// `200 OK` with a JSON body.
    pub fn ok_json(body: impl Into<Bytes>) -> Response {
        Response::new(200).with_body("application/json", body)
    }

    /// `404 Not Found` with a plain-text message.
    pub fn not_found(msg: &str) -> Response {
        Response::new(404).with_body("text/plain", msg.as_bytes().to_vec())
    }

    /// `400 Bad Request` with a plain-text message.
    pub fn bad_request(msg: &str) -> Response {
        Response::new(400).with_body("text/plain", msg.as_bytes().to_vec())
    }

    /// `500 Internal Server Error` with a plain-text message.
    pub fn error(msg: &str) -> Response {
        Response::new(500).with_body("text/plain", msg.as_bytes().to_vec())
    }

    /// Attach a body and its `content-type` (builder-style).
    pub fn with_body(mut self, content_type: &str, body: impl Into<Bytes>) -> Response {
        self.headers.insert("content-type".into(), content_type.into());
        self.body = body.into();
        self
    }

    /// Whether the status is 2xx.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Canonical reason phrase for the status code.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            400 => "Bad Request",
            404 => "Not Found",
            409 => "Conflict",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serialize to wire bytes (`content-length` is always emitted).
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(64 + self.body.len());
        b.put_slice(format!("HTTP/1.1 {} {}\r\n", self.status, self.reason()).as_bytes());
        encode_headers(&self.headers, self.body.len(), &mut b);
        b.put_slice(&self.body);
        b.freeze()
    }

    /// Parse wire bytes produced by [`Response::encode`] (or compatible).
    pub fn decode(buf: &[u8]) -> Result<Response, HttpError> {
        let (head, body) = split_head(buf)?;
        let mut lines = head.split("\r\n");
        let status_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
        let mut parts = status_line.splitn(3, ' ');
        match parts.next() {
            Some("HTTP/1.1") | Some("HTTP/1.0") => {}
            _ => return Err(HttpError::Malformed("bad http version")),
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or(HttpError::Malformed("bad status code"))?;
        let mut headers = decode_headers(lines)?;
        let body = check_body(&headers, body)?;
        headers.remove("content-length"); // derived on encode
        Ok(Response { status, headers, body })
    }
}

fn encode_headers(headers: &BTreeMap<String, String>, body_len: usize, b: &mut BytesMut) {
    for (k, v) in headers {
        b.put_slice(k.as_bytes());
        b.put_slice(b": ");
        b.put_slice(v.as_bytes());
        b.put_slice(b"\r\n");
    }
    b.put_slice(format!("content-length: {body_len}\r\n\r\n").as_bytes());
}

fn split_head(buf: &[u8]) -> Result<(&str, &[u8]), HttpError> {
    let sep = buf
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or(HttpError::Malformed("missing head/body separator"))?;
    let head =
        std::str::from_utf8(&buf[..sep]).map_err(|_| HttpError::Malformed("non-utf8 head"))?;
    Ok((head, &buf[sep + 4..]))
}

fn decode_headers<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<BTreeMap<String, String>, HttpError> {
    let mut headers = BTreeMap::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line.split_once(':').ok_or(HttpError::Malformed("bad header line"))?;
        headers.insert(k.trim().to_ascii_lowercase(), v.trim().to_string());
    }
    Ok(headers)
}

fn check_body(headers: &BTreeMap<String, String>, body: &[u8]) -> Result<Bytes, HttpError> {
    let declared: usize = headers
        .get("content-length")
        .and_then(|v| v.parse().ok())
        .ok_or(HttpError::Malformed("missing content-length"))?;
    if declared != body.len() {
        return Err(HttpError::BodyLengthMismatch { declared, actual: body.len() });
    }
    Ok(Bytes::copy_from_slice(body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{for_each_seed, Prng};

    #[test]
    fn request_roundtrip() {
        let req = Request::new(Method::Get, "/model/L1").header("x-trace", "abc");
        let back = Request::decode(&req.encode()).unwrap();
        assert_eq!(req, back);
        assert_eq!(back.path_segments(), ["model", "L1"]);
    }

    #[test]
    fn request_with_body_roundtrip() {
        let req = Request::new(Method::Post, "/model/L1/intent")
            .with_body("application/json", r#"{"power":"on"}"#.as_bytes().to_vec());
        let back = Request::decode(&req.encode()).unwrap();
        assert_eq!(back.body, Bytes::from_static(br#"{"power":"on"}"#));
        assert_eq!(back.headers["content-type"], "application/json");
    }

    #[test]
    fn response_roundtrip() {
        let resp = Response::ok_json(r#"{"ok":true}"#.as_bytes().to_vec());
        let back = Response::decode(&resp.encode()).unwrap();
        assert_eq!(resp, back);
        assert!(back.is_success());
    }

    #[test]
    fn error_statuses() {
        for (resp, code) in [
            (Response::not_found("x"), 404),
            (Response::bad_request("x"), 400),
            (Response::error("x"), 500),
        ] {
            let back = Response::decode(&resp.encode()).unwrap();
            assert_eq!(back.status, code);
            assert!(!back.is_success());
        }
    }

    #[test]
    fn rejects_malformed() {
        assert!(Request::decode(b"GET /x HTTP/1.1").is_err()); // no separator
        assert!(Request::decode(b"BREW /x HTTP/1.1\r\ncontent-length: 0\r\n\r\n").is_err());
        assert!(Request::decode(b"GET /x SPDY/9\r\ncontent-length: 0\r\n\r\n").is_err());
        assert!(Response::decode(b"HTTP/1.1 abc OK\r\ncontent-length: 0\r\n\r\n").is_err());
    }

    #[test]
    fn rejects_length_mismatch() {
        let err = Request::decode(b"GET /x HTTP/1.1\r\ncontent-length: 5\r\n\r\nabc").unwrap_err();
        assert_eq!(err, HttpError::BodyLengthMismatch { declared: 5, actual: 3 });
    }

    #[test]
    fn header_names_case_insensitive() {
        let back =
            Request::decode(b"GET /x HTTP/1.1\r\nX-Trace: T\r\nContent-Length: 0\r\n\r\n").unwrap();
        assert_eq!(back.headers["x-trace"], "T");
    }

    #[test]
    fn path_segments_ignore_empties() {
        let req = Request::new(Method::Get, "//model//L1/");
        assert_eq!(req.path_segments(), ["model", "L1"]);
    }

    /// The encoding of a well-formed request or response with random
    /// method or status, path, headers and body.
    fn valid_encoding(rng: &mut Prng, request: bool) -> Vec<u8> {
        let mut headers = BTreeMap::new();
        for _ in 0..rng.range_usize(0, 4) {
            headers.insert(
                rng.string("abcXYZ-_", 1, 8).to_ascii_lowercase(),
                rng.string("abc 019:/;=", 0, 10),
            );
        }
        let trimmed: BTreeMap<String, String> =
            headers.into_iter().map(|(k, v)| (k, v.trim().to_string())).collect();
        let body = Bytes::from(rng.string("{}\":,ab01 ", 0, 24));
        let out = if request {
            let method = *rng
                .choice(&[Method::Get, Method::Put, Method::Post, Method::Delete])
                .expect("non-empty");
            let req =
                Request { method, path: rng.string("/abcXYZ019-_", 0, 16), headers: trimmed, body };
            let out = req.encode();
            assert_eq!(Request::decode(&out), Ok(req), "valid request does not round-trip");
            out
        } else {
            let status =
                *rng.choice(&[200, 201, 204, 400, 404, 409, 500, 503, 299, 0]).expect("non-empty");
            let resp = Response { status, headers: trimmed, body };
            let out = resp.encode();
            assert_eq!(Response::decode(&out), Ok(resp), "valid response does not round-trip");
            out
        };
        out.to_vec()
    }

    /// One random edit: flip a bit, insert a byte (often one the codec
    /// splits on), delete a byte, or truncate.
    fn mutate(rng: &mut Prng, buf: &mut Vec<u8>) {
        match rng.range_u64(0, 4) {
            0 if !buf.is_empty() => {
                let i = rng.range_usize(0, buf.len());
                buf[i] ^= 1 << rng.range_u64(0, 8);
            }
            1 => {
                let byte = if rng.coin() {
                    *rng.choice(b"\r\n :0123456789").expect("non-empty")
                } else {
                    rng.next_u64() as u8
                };
                let at = rng.range_usize(0, buf.len() + 1);
                buf.insert(at, byte);
            }
            2 if !buf.is_empty() => {
                let at = rng.range_usize(0, buf.len());
                buf.remove(at);
            }
            _ => buf.truncate(rng.range_usize(0, buf.len() + 1)),
        }
    }

    #[test]
    fn mutated_messages_never_panic_and_accepted_ones_roundtrip() {
        let accepted = std::cell::Cell::new([0u32; 2]);
        for_each_seed(300, |rng| {
            for i in 0..400 {
                let request = i % 2 == 0;
                let mut buf = valid_encoding(rng, request);
                for _ in 0..rng.range_usize(1, 4) {
                    mutate(rng, &mut buf);
                }
                let mut n = accepted.get();
                if request {
                    if let Ok(req) = Request::decode(&buf) {
                        assert_eq!(
                            Request::decode(&req.encode()),
                            Ok(req),
                            "accepted request: {buf:?}"
                        );
                        n[0] += 1;
                    }
                } else if let Ok(resp) = Response::decode(&buf) {
                    assert_eq!(
                        Response::decode(&resp.encode()),
                        Ok(resp),
                        "accepted response: {buf:?}"
                    );
                    n[1] += 1;
                }
                accepted.set(n);
            }
        });
        let [req, resp] = accepted.get();
        assert!(
            req > 1000 && resp > 1000,
            "too few mutants decoded to test the round trip: {req} requests, {resp} responses"
        );
    }
}
