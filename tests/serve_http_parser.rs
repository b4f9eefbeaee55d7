//! Generative checks of the HTTP/1.1 request parser the event loop runs
//! (`demodq_serve::http::try_parse`).
//!
//! * Valid requests, pipelined and cut at arbitrary points, parse through
//!   the event loop's consume-and-retry loop exactly as the whole buffer
//!   does; every strict prefix of a request asks for more bytes.
//! * Hostile bytes (arbitrary, or valid requests with flipped, truncated
//!   or inserted bytes) never panic the parser, are rejected only with
//!   400, 411 or 413, and a completed parse consumes a non-empty part of
//!   the buffer it was given.

use demodq_serve::http::{try_parse, ParseOutcome, Request};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

const PATH: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/-._~";
const QUERY: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789=&%-._~";
const NAME: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-";
const VALUE: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJ0123456789 -/;=,:";
/// Bytes that matter to the framing rules, inserted more often than
/// chance would.
const FRAMING: &[u8] = b"\r\n: +-0123456789";

/// A generated request: the bytes to send and the fields parsing them
/// must yield.
#[derive(Debug, Clone)]
struct Spec {
    wire: Vec<u8>,
    method: &'static str,
    path: String,
    /// Lower-cased names and trimmed values, in wire order.
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

/// The parsed fields compared across parses.
type Fields = (String, String, Vec<(String, String)>, Vec<u8>);

fn fields(request: Request) -> Fields {
    (request.method, request.path, request.headers, request.body)
}

fn text(
    alphabet: &'static [u8],
    len: std::ops::RangeInclusive<usize>,
) -> impl Strategy<Value = String> {
    prop::collection::vec(prop::sample::select(alphabet.to_vec()), len)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

/// GET or POST, an optional query, 0–8 headers, a 0–2 KiB body framed by
/// `Content-Length` (POST only, at a random header position and in a
/// random case), and CRLF or bare-LF line endings.
fn request() -> impl Strategy<Value = Spec> {
    let header = (text(NAME, 1..=12), text(VALUE, 0..=24), 0u8..4);
    let body = (prop::collection::vec(any::<u8>(), 0..=2048), 0usize..9, 0u8..3);
    let query = prop_oneof![Just(None), text(QUERY, 0..=16).prop_map(Some)];
    (
        any::<bool>(),
        text(PATH, 0..=24),
        query,
        prop::collection::vec(header, 0..=8),
        body,
        any::<bool>(),
    )
        .prop_map(|(post, path, query, raw_headers, (body, at, case), crlf)| {
            let eol = if crlf { "\r\n" } else { "\n" };
            let method = if post { "POST" } else { "GET" };
            let path = format!("/{path}");
            let target = match &query {
                Some(q) => format!("{path}?{q}"),
                None => path.clone(),
            };
            let mut sent: Vec<(String, String)> = raw_headers
                .into_iter()
                .map(|(name, value, pad)| {
                    let value = match pad {
                        0 => value,
                        1 => format!("  {value}"),
                        2 => format!("{value}\t "),
                        _ => format!(" {value} "),
                    };
                    (format!("X-{name}"), value)
                })
                .collect();
            let body = if post {
                let name =
                    ["Content-Length", "content-length", "CONTENT-LENGTH"][usize::from(case)];
                sent.insert(at.min(sent.len()), (name.to_string(), body.len().to_string()));
                body
            } else {
                Vec::new()
            };
            let mut wire = format!("{method} {target} HTTP/1.1{eol}").into_bytes();
            for (name, value) in &sent {
                wire.extend_from_slice(format!("{name}:{value}{eol}").as_bytes());
            }
            wire.extend_from_slice(eol.as_bytes());
            wire.extend_from_slice(&body);
            let headers = sent
                .into_iter()
                .map(|(name, value)| (name.to_ascii_lowercase(), value.trim().to_string()))
                .collect();
            Spec { wire, method, path, headers, body }
        })
}

/// The event loop's consume-and-retry loop (`parse_available`): parse
/// every complete request in `buf`, stopping at `NeedMore` or a
/// rejection. Returns the requests with their consumed counts, the offset
/// parsed up to, and the rejection's status if any.
fn consume(buf: &[u8]) -> (Vec<(Fields, usize)>, usize, Option<u16>) {
    let mut parsed = Vec::new();
    let mut at = 0;
    loop {
        match try_parse(&buf[at..]) {
            ParseOutcome::NeedMore => return (parsed, at, None),
            ParseOutcome::Complete(request, used) => {
                assert!(
                    used > 0 && used <= buf.len() - at,
                    "Complete consumed {used} of {} bytes",
                    buf.len() - at
                );
                at += used;
                parsed.push((fields(request), used));
            }
            ParseOutcome::Invalid(error) => return (parsed, at, Some(error.status())),
        }
    }
}

/// Hostile input may be rejected or left incomplete, but never with a
/// status outside 400/411/413 (`consume` checks the consumed counts).
fn check_hostile(bytes: &[u8]) -> Result<(), TestCaseError> {
    let (_, _, rejected) = consume(bytes);
    if let Some(status) = rejected {
        prop_assert!(matches!(status, 400 | 411 | 413), "rejected with status {status}");
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn split_pipelined_requests_parse_like_the_whole_buffer(
        specs in prop::collection::vec(request(), 1..=3),
        cuts in prop::collection::vec(any::<u64>(), 0..=12),
    ) {
        let wire: Vec<u8> = specs.iter().flat_map(|s| s.wire.iter().copied()).collect();

        // The whole buffer at once: one request per spec, every byte used.
        let (whole, end, rejected) = consume(&wire);
        prop_assert_eq!(rejected, None);
        prop_assert_eq!(end, wire.len());
        prop_assert_eq!(whole.len(), specs.len());
        for ((got, used), spec) in whole.iter().zip(&specs) {
            let expected: Fields =
                (spec.method.to_string(), spec.path.clone(), spec.headers.clone(), spec.body.clone());
            prop_assert_eq!(got, &expected);
            prop_assert_eq!(*used, spec.wire.len());
        }

        // The same bytes arriving in pieces, drained after every read as
        // the event loop does.
        let mut bounds: Vec<usize> =
            cuts.iter().map(|&c| (c % (wire.len() as u64 + 1)) as usize).collect();
        bounds.push(wire.len());
        bounds.sort_unstable();
        bounds.dedup();
        let mut buf = Vec::new();
        let mut pieces = Vec::new();
        let mut from = 0;
        for to in bounds {
            buf.extend_from_slice(&wire[from..to]);
            from = to;
            let (parsed, used, rejected) = consume(&buf);
            prop_assert_eq!(rejected, None);
            buf.drain(..used);
            pieces.extend(parsed);
        }
        prop_assert!(buf.is_empty(), "{} bytes left unparsed", buf.len());
        prop_assert_eq!(pieces, whole);
    }

    #[test]
    fn every_strict_prefix_of_a_request_needs_more(spec in request()) {
        for cut in 0..spec.wire.len() {
            prop_assert!(
                matches!(try_parse(&spec.wire[..cut]), ParseOutcome::NeedMore),
                "prefix of {} of {} bytes did not ask for more",
                cut,
                spec.wire.len()
            );
        }
        let ParseOutcome::Complete(_, used) = try_parse(&spec.wire) else {
            return Err(TestCaseError::fail("the full request did not parse"));
        };
        prop_assert_eq!(used, spec.wire.len());
    }

    #[test]
    fn arbitrary_bytes_never_panic_or_misreport(
        bytes in prop_oneof![
            3 => prop::collection::vec(any::<u8>(), 0..=512),
            3 => prop::collection::vec(
                prop_oneof![any::<u8>(), prop::sample::select(FRAMING.to_vec())],
                0..=512,
            ),
            1 => prop::collection::vec(any::<u8>(), 16_000..=17_000),
        ],
    ) {
        check_hostile(&bytes)?;
    }

    #[test]
    fn damaged_requests_never_panic_or_misreport(
        specs in prop::collection::vec(request(), 1..=3),
        edits in prop::collection::vec(
            (
                0u8..3,
                any::<u64>(),
                prop_oneof![any::<u8>(), prop::sample::select(FRAMING.to_vec())],
            ),
            1..=6,
        ),
    ) {
        let mut bytes: Vec<u8> = specs.iter().flat_map(|s| s.wire.iter().copied()).collect();
        for (kind, at, byte) in edits {
            let at = (at % (bytes.len() as u64 + 1)) as usize;
            match kind {
                0 => {
                    // Flip: xor with a nonzero mask.
                    if let Some(b) = bytes.get_mut(at) {
                        *b ^= byte | 1;
                    }
                }
                1 => bytes.truncate(at),
                _ => bytes.insert(at, byte),
            }
        }
        check_hostile(&bytes)?;
    }
}
