//! Property tests for the HTTP layer: roundtrips, parser robustness,
//! and split-invariance of the one incremental parser in both
//! directions (the reactors' requests, the client's replies).

use p3_net::http::{
    HttpError, Message, Method, Parser, Request, Response, StatusCode, MAX_HEADER_BYTES,
};
use p3_net::RequestParser;
use proptest::prelude::*;
use std::io::{BufReader, Cursor};

/// Drive `wire` through `parser` in `sizes`-shaped chunks exactly the
/// way the epoll server does: append a chunk to the pending buffer,
/// feed, drop what was consumed, repeat until a message (or an error)
/// falls out.
fn split_feed<M: Message>(
    parser: &mut Parser<M>,
    wire: &[u8],
    sizes: &[usize],
) -> Result<Option<M>, HttpError> {
    let mut pending: Vec<u8> = Vec::new();
    let mut offset = 0;
    let mut turn = 0;
    while offset < wire.len() {
        let take = sizes[turn % sizes.len()].clamp(1, wire.len() - offset);
        turn += 1;
        pending.extend_from_slice(&wire[offset..offset + take]);
        offset += take;
        loop {
            let (n, msg) = parser.feed(&pending)?;
            pending.drain(..n);
            if msg.is_some() {
                return Ok(msg);
            }
            if n == 0 {
                break;
            }
        }
    }
    Ok(None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn request_roundtrips(body in prop::collection::vec(any::<u8>(), 0..4096),
                          seg in "[a-zA-Z0-9_-]{1,20}",
                          qk in "[a-z]{1,8}", qv in "[a-zA-Z0-9]{0,12}") {
        let target = format!("/photos/{seg}?{qk}={qv}");
        let mut req = Request::new(Method::Post, &target, body.clone());
        req.headers.set("content-type", "image/jpeg");
        let mut buf = Vec::new();
        req.write_to(&mut buf).unwrap();
        let (n, back) = RequestParser::new().feed(&buf).unwrap();
        prop_assert_eq!(n, buf.len());
        let back = back.expect("a whole request must complete");
        prop_assert_eq!(back.method, Method::Post);
        let expected_path = format!("/photos/{seg}");
        prop_assert_eq!(back.path.as_str(), expected_path.as_str());
        prop_assert_eq!(back.query_param(&qk).unwrap_or(""), qv.as_str());
        prop_assert_eq!(back.body, body);
    }

    #[test]
    fn response_roundtrips(code in 100u16..600, body in prop::collection::vec(any::<u8>(), 0..4096)) {
        let mut resp = Response::ok("application/octet-stream", body.clone());
        resp.status = StatusCode(code);
        let mut buf = Vec::new();
        resp.write_to(&mut buf).unwrap();
        let back = Response::read_from(&mut BufReader::new(Cursor::new(buf))).unwrap();
        prop_assert_eq!(back.status.0, code);
        prop_assert_eq!(back.body, body);
    }

    #[test]
    fn parser_never_panics_on_garbage(data in prop::collection::vec(any::<u8>(), 0..512)) {
        let _ = RequestParser::new().feed(&data);
        let _ = Response::read_from(&mut BufReader::new(Cursor::new(data)));
    }

    #[test]
    fn parser_never_panics_on_almost_valid(method in "(GET|POST|PUT|FLUB)",
                                           path in "[ -~]{0,40}",
                                           version in "(HTTP/1.1|HTTP/2|JUNK)",
                                           tail in prop::collection::vec(any::<u8>(), 0..128)) {
        let mut data = format!("{method} {path} {version}\r\n").into_bytes();
        data.extend_from_slice(&tail);
        let _ = RequestParser::new().feed(&data);
    }

    /// Any byte-split of a valid request stream must parse to exactly
    /// what a one-shot feed of the same bytes produces — the epoll
    /// server sees arbitrary TCP segmentation and may never care.
    #[test]
    fn split_request_parses_like_one_shot(body in prop::collection::vec(any::<u8>(), 0..4096),
                                          seg in "[a-zA-Z0-9_-]{1,20}",
                                          hv in "[a-zA-Z0-9 ,;=/-]{0,40}",
                                          sizes in prop::collection::vec(1usize..97, 1..12)) {
        let mut req = Request::new(Method::Post, &format!("/photos/{seg}"), body);
        req.headers.set("content-type", "image/jpeg");
        req.headers.set("x-prop", &hv);
        let mut wire = Vec::new();
        req.write_to(&mut wire).unwrap();

        let (n, one_shot) = RequestParser::new().feed(&wire).unwrap();
        prop_assert_eq!(n, wire.len());
        let one_shot = one_shot.expect("one-shot parse must complete");

        let mut parser = RequestParser::new();
        let split = split_feed(&mut parser, &wire, &sizes)
            .unwrap()
            .expect("split parse must complete");
        prop_assert!(parser.is_idle());
        prop_assert_eq!(split.method, one_shot.method);
        prop_assert_eq!(&split.path, &one_shot.path);
        prop_assert_eq!(split.headers.get("x-prop"), one_shot.headers.get("x-prop"));
        prop_assert_eq!(split.body, one_shot.body);
    }

    /// The same holds for replies: the client reads them through the
    /// same parser, whatever segmentation the upstream's socket produced.
    #[test]
    fn split_response_parses_like_one_shot(code in 100u16..600,
                                           body in prop::collection::vec(any::<u8>(), 0..4096),
                                           hv in "[a-zA-Z0-9 ,;=/-]{0,40}",
                                           sizes in prop::collection::vec(1usize..97, 1..12)) {
        let mut resp = Response::ok("application/octet-stream", body);
        resp.status = StatusCode(code);
        resp.headers.set("x-prop", &hv);
        let mut wire = Vec::new();
        resp.write_to(&mut wire).unwrap();

        let (n, one_shot) = Parser::<Response>::new().feed(&wire).unwrap();
        prop_assert_eq!(n, wire.len());
        let one_shot = one_shot.expect("one-shot parse must complete");

        let mut parser = Parser::new();
        let split: Response = split_feed(&mut parser, &wire, &sizes)
            .unwrap()
            .expect("split parse must complete");
        prop_assert!(parser.is_idle());
        prop_assert_eq!(split.status, one_shot.status);
        prop_assert_eq!(&split.headers, &one_shot.headers);
        prop_assert_eq!(split.body, one_shot.body);
    }

    /// No strict prefix of a message is one: the parser waits for more
    /// and the blocking reader, at end of stream, errs — `Closed` before
    /// the first byte, `Parse` after it.
    #[test]
    fn no_strict_prefix_yields_a_message(code in 100u16..600,
                                         body in prop::collection::vec(any::<u8>(), 0..64),
                                         seg in "[a-zA-Z0-9_-]{1,20}") {
        let mut request = Vec::new();
        Request::new(Method::Put, &format!("/blobs/{seg}"), body.clone())
            .write_to(&mut request)
            .unwrap();
        let mut reply = Vec::new();
        let mut resp = Response::ok("application/octet-stream", body);
        resp.status = StatusCode(code);
        resp.write_to(&mut reply).unwrap();

        for cut in 0..request.len() {
            let (n, msg) = RequestParser::new().feed(&request[..cut]).unwrap();
            prop_assert_eq!(n, cut);
            prop_assert!(msg.is_none(), "a request from {} of {} bytes", cut, request.len());
        }
        for cut in 0..reply.len() {
            let (_, msg) = Parser::<Response>::new().feed(&reply[..cut]).unwrap();
            prop_assert!(msg.is_none(), "a reply from {} of {} bytes", cut, reply.len());
            let read = Response::read_from(&mut BufReader::new(Cursor::new(&reply[..cut])));
            match (cut, read) {
                (0, Err(HttpError::Closed)) | (1.., Err(HttpError::Parse(_))) => {}
                (_, other) => prop_assert!(false, "{} of {} bytes: {:?}", cut, reply.len(), other),
            }
        }
    }

    /// Oversized headers must be rejected no matter how the bytes are
    /// segmented — the parser may never buffer past the header guard
    /// waiting for a CRLF that never comes.
    #[test]
    fn split_oversized_request_headers_rejected(extra in 1usize..4096,
                                                sizes in prop::collection::vec(1usize..8192, 1..12)) {
        let mut wire = b"GET / HTTP/1.1\r\nx-pad: ".to_vec();
        wire.extend(std::iter::repeat_n(b'a', MAX_HEADER_BYTES + extra));
        wire.extend_from_slice(b"\r\n\r\n");
        let mut parser = RequestParser::new();
        let outcome = split_feed(&mut parser, &wire, &sizes);
        prop_assert!(matches!(outcome, Err(HttpError::TooLarge)));
    }
}
