//! Robustness of the request reader: whatever bytes a client sends, and
//! however the socket hands them over, [`http::read_request`] returns a
//! request whose body is exactly its declared length, or a typed
//! [`HttpError`] whose status is one the server answers with. It never
//! panics. Fuzz-lite, seeded and dependency-free like
//! `prop_json_robustness.rs`: valid `GET`/`POST` requests, truncation at
//! every byte, header floods at the head cap ± 1, `Content-Length` lies,
//! `Transfer-Encoding`, pipelining and bare-LF lines as named inputs, and
//! mutations of valid requests (flips, splices, span repetition up to
//! 64 KiB). Every input goes through a reader that returns 1..=n bytes per
//! call and through one that fails mid-stream.
//!
//! One check here measures time and is `#[ignore]`d, so the default test
//! run stays timing-free: the head scan's growth under trickled input,
//! run with `--ignored`.

use flexpath_serve::http::{self, HttpError, HttpLimits, Request};
use std::io::{self, Read};
use std::time::Instant;

/// Tiny deterministic PRNG (splitmix64) for reproducible fuzzing.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

const CASES: u64 = 512;

/// Requests the service receives, in the shapes its clients send.
const VALID: [&str; 6] = [
    "GET /healthz HTTP/1.1\r\nHost: localhost\r\n\r\n",
    "GET /metrics?format=json HTTP/1.0\r\n\r\n",
    "HEAD /version HTTP/1.1\r\nConnection: close\r\n\r\n",
    "POST /query HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: 44\r\n\r\n{\"catalog\":\"doc\",\"query\":\"//item\",\"k\":5}\r\n\r\n",
    "POST /explain HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
    "POST /query HTTP/1.1\r\ncontent-length: 2\r\nX-Empty:\r\n\r\n{}",
];

/// The statuses [`HttpError::status`] may answer with.
const STATUSES: [u16; 7] = [400, 405, 408, 413, 431, 501, 505];

/// Hands `data` over in pieces of 1..=`max` bytes (seeded), then EOF; or,
/// with `fail_at`, an error of `kind` once that many bytes are out.
struct Socket<'a> {
    data: &'a [u8],
    rng: Rng,
    max: usize,
    fail_at: Option<(usize, io::ErrorKind)>,
}

impl Read for Socket<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let mut n = (1 + self.rng.below(self.max))
            .min(out.len())
            .min(self.data.len());
        if let Some((at, kind)) = self.fail_at {
            if at == 0 {
                return Err(io::Error::new(kind, "peer went away"));
            }
            n = n.min(at);
            self.fail_at = Some((at - n, kind));
        }
        let (head, rest) = self.data.split_at(n);
        out[..n].copy_from_slice(head);
        self.data = rest;
        Ok(n)
    }
}

/// `input` for a failure message: its length and first 120 bytes.
fn show(input: &[u8]) -> String {
    let head = String::from_utf8_lossy(&input[..input.len().min(120)]);
    format!("{} bytes {head:?}", input.len())
}

/// The property of the module doc for one read of `input`.
fn check(
    input: &[u8],
    max_read: usize,
    fail_at: Option<(usize, io::ErrorKind)>,
    seed: u64,
) -> Result<Request, HttpError> {
    let mut socket = Socket {
        data: input,
        rng: Rng(seed),
        max: max_read,
        fail_at,
    };
    let result = http::read_request(&mut socket, &HttpLimits::default());
    let input = show(input);
    match &result {
        Ok(req) => {
            // Every Content-Length the request carries declares the body.
            let mut declared = 0;
            for (name, value) in &req.headers {
                assert_eq!(name, &name.to_ascii_lowercase(), "{input}");
                if name == "content-length" {
                    assert_eq!(value.parse(), Ok(req.body.len() as u64), "{input}");
                    declared += 1;
                }
            }
            assert!(declared > 0 || req.body.is_empty(), "{input}");
            assert!(req.path.starts_with('/'), "{input}");
        }
        Err(e) => {
            assert!(
                STATUSES.contains(&e.status()),
                "{e} ({}) for {input}",
                e.status()
            );
            assert!(!e.to_string().is_empty());
        }
    }
    result
}

/// The body, or the error's status: what a client sees of a read.
fn outcome(result: &Result<Request, HttpError>) -> Result<&[u8], u16> {
    result
        .as_ref()
        .map(|r| r.body.as_slice())
        .map_err(HttpError::status)
}

/// [`check`] through a whole-buffer reader, 1-byte reads and random small
/// reads, which must all end the same way, and through a read that fails
/// after a random byte count, once per error kind.
fn check_all_ways(input: &[u8], seed: u64) -> Result<Request, HttpError> {
    let whole = check(input, usize::MAX, None, seed);
    for max_read in [1, 7, 64] {
        let again = check(input, max_read, None, seed);
        assert_eq!(
            outcome(&again),
            outcome(&whole),
            "{}: reads of up to {max_read} bytes changed the outcome",
            show(input)
        );
    }
    let mut rng = Rng(seed ^ 0xfa11);
    for kind in [
        io::ErrorKind::ConnectionReset,
        io::ErrorKind::TimedOut,
        io::ErrorKind::WouldBlock,
        io::ErrorKind::UnexpectedEof,
    ] {
        let at = rng.below(input.len() + 1);
        let _ = check(input, 1 + rng.below(16), Some((at, kind)), seed);
    }
    whole
}

fn status(input: &[u8]) -> u16 {
    match check_all_ways(input, 1) {
        Ok(_) => 200,
        Err(e) => e.status(),
    }
}

/// `n` bytes of head: a request line, then one header padded to fit,
/// then the terminator.
fn head_of(n: usize) -> Vec<u8> {
    let start = b"GET /healthz HTTP/1.1\r\nX-Pad: ";
    let mut head = start.to_vec();
    head.resize(n - 4, b'a');
    head.extend_from_slice(b"\r\n\r\n");
    head
}

#[test]
fn valid_requests_parse_under_any_read_size() {
    for (i, valid) in VALID.iter().enumerate() {
        let req =
            check_all_ways(valid.as_bytes(), i as u64).unwrap_or_else(|e| panic!("{valid:?}: {e}"));
        assert!(!req.pipelined_excess, "{valid:?}");
    }
}

#[test]
fn truncation_at_every_byte() {
    for (i, valid) in VALID.iter().enumerate() {
        let bytes = valid.as_bytes();
        for cut in 0..bytes.len() {
            let seed = (i * 1000 + cut) as u64;
            assert!(
                check_all_ways(&bytes[..cut], seed).is_err(),
                "{}",
                show(&bytes[..cut])
            );
            let _ = check_all_ways(&bytes[cut..], seed);
        }
    }
}

#[test]
fn header_floods_at_the_head_cap() {
    let cap = HttpLimits::default().max_head_bytes;
    // The cap is exact under every read size: a head of `cap` bytes,
    // terminator included, is read; one byte more is 431.
    for (n, want) in [(cap - 1, 200), (cap, 200), (cap + 1, 431)] {
        assert_eq!(status(&head_of(n)), want, "{n}-byte head");
    }
    // Without a terminator, reading stops at the cap.
    for n in [cap - 1, cap, cap + 1, 4 * cap] {
        let mut flood = b"GET / HTTP/1.1\r\n".to_vec();
        flood.extend((0..n).map(|i| if i % 40 == 39 { b'\n' } else { b'h' }));
        assert_eq!(status(&flood), 431, "{n} bytes of header lines");
    }
    let many = "X-H: v\r\n".repeat(cap / 8 + 1);
    assert_eq!(
        status(format!("GET / HTTP/1.1\r\n{many}\r\n").as_bytes()),
        431
    );
}

#[test]
fn content_length_lies() {
    let post =
        |headers: &str, body: &str| format!("POST /query HTTP/1.1\r\n{headers}\r\n\r\n{body}");
    // Short: the excess is a pipelined request, and the connection closes.
    let req = check_all_ways(post("Content-Length: 2", "{}{}").as_bytes(), 1).expect("short");
    assert_eq!(
        (req.body.as_slice(), req.pipelined_excess),
        (&b"{}"[..], true)
    );
    // Long: the body never arrives in full.
    assert_eq!(status(post("Content-Length: 9", "{}").as_bytes()), 400);
    for lie in [
        "abc",
        "-1",
        "1e3",
        "0x10",
        "",
        "18446744073709551616",
        "4 4",
    ] {
        let input = post(&format!("Content-Length: {lie}"), "{}");
        assert_eq!(status(input.as_bytes()), 400, "{lie:?}");
    }
    for huge in ["18446744073709551615", "1048577"] {
        let input = post(&format!("Content-Length: {huge}"), "{}");
        assert_eq!(status(input.as_bytes()), 413, "{huge}");
    }
    // Repeated: agreeing values are one length; differing ones are refused.
    let req = check_all_ways(
        post("Content-Length: 2\r\ncontent-length:  2", "{}").as_bytes(),
        2,
    )
    .expect("repeated, agreeing");
    assert_eq!(req.body, b"{}");
    for (a, b) in [("2", "4"), ("4", "2"), ("2", "02"), ("2", "x")] {
        let input = post(
            &format!("Content-Length: {a}\r\nContent-Length: {b}"),
            "{}{}",
        );
        assert_eq!(status(input.as_bytes()), 400, "{a} then {b}");
    }
}

#[test]
fn transfer_encoding_pipelining_and_bare_lf() {
    for te in ["chunked", "gzip, chunked", "identity"] {
        let input = format!("POST /query HTTP/1.1\r\nTransfer-Encoding: {te}\r\n\r\n0\r\n\r\n");
        assert_eq!(status(input.as_bytes()), 501, "{te}");
    }
    // A second request that arrives with the first is read as excess, and
    // the connection closes after the first is answered.
    for (first, second) in [(VALID[0], VALID[1]), (VALID[5], VALID[0])] {
        let req = check_all_ways([first, second].concat().as_bytes(), 3).expect("first request");
        assert!(req.pipelined_excess, "{first:?} then {second:?}");
    }
    // Bare-LF lines never complete a head.
    assert_eq!(status(b"GET / HTTP/1.1\nHost: x\n\n"), 400);
    // A bare LF inside a CRLF head splits a line like CRLF does.
    let req = check_all_ways(b"GET / HTTP/1.1\r\nA: 1\nB: 2\r\n\r\n", 5).expect("mixed endings");
    assert_eq!((req.header("a"), req.header("b")), (Some("1"), Some("2")));
    for bad in [
        &b"GET / HTTP/1.1\r\nno colon\r\n\r\n"[..],
        b"GET / HTTP/1.1\r\n: empty name\r\n\r\n",
        b"GET / HTTP/1.1\r\nSp ace: x\r\n\r\n",
        b"GET / HTTP/1.1\r\nX: \xff\r\n\r\n",
        b"GET  / HTTP/1.1\r\n\r\n",
        b"GET /\r\n\r\n",
    ] {
        assert_eq!(status(bad), 400, "{}", show(bad));
    }
    assert_eq!(status(b"PUT / HTTP/1.1\r\n\r\n"), 405);
    assert_eq!(status(b"GET / HTTP/2\r\n\r\n"), 505);
}

#[test]
fn mutations_of_valid_requests() {
    for case in 0..CASES {
        let mut rng = Rng(0x600 + case);
        let mut body = VALID[rng.below(VALID.len())].as_bytes().to_vec();
        for _ in 0..1 + rng.below(3) {
            let (a, b) = {
                let x = rng.below(body.len() + 1);
                let y = rng.below(body.len() + 1);
                (x.min(y), x.max(y))
            };
            match rng.below(4) {
                // Byte flip, whatever it makes of a line.
                0 => {
                    if let Some(byte) = body.get_mut(a) {
                        *byte = rng.next() as u8;
                    }
                }
                // Splice a span of another valid request.
                1 => {
                    let donor = VALID[rng.below(VALID.len())].as_bytes();
                    let x = rng.below(donor.len() + 1);
                    let y = x + rng.below(donor.len() - x + 1);
                    body.splice(a..a, donor[x..y].iter().copied());
                }
                // Delete a span.
                2 => {
                    body.drain(a..b);
                }
                // Repeat a span, up to 64 KiB of it.
                _ => {
                    if a < b {
                        let times = 1 + rng.below((64 << 10) / (b - a));
                        let repeated = body[a..b].repeat(times);
                        body.splice(b..b, repeated);
                    }
                }
            }
        }
        let _ = check_all_ways(&body, case);
    }
}

/// The head scan is linear in the head's length when it arrives a byte
/// per read: a terminator-free head 8× longer takes at most 24× as long
/// (a rescan of the whole buffer per read, quadratic, would take 64×).
#[test]
#[ignore = "wall-clock growth check; run with --ignored in an optimised build"]
fn head_scan_is_linear_in_trickled_input() {
    let time = |cap: usize| {
        let limits = HttpLimits {
            max_head_bytes: cap,
            max_body_bytes: 0,
        };
        let flood = vec![b'a'; cap + 1];
        (0..5)
            .map(|_| {
                let mut socket = Socket {
                    data: &flood,
                    rng: Rng(0),
                    max: 1,
                    fail_at: None,
                };
                let start = Instant::now();
                let e = http::read_request(&mut socket, &limits).expect_err("no terminator");
                assert_eq!(e.status(), 431);
                start.elapsed().as_secs_f64()
            })
            .fold(f64::MAX, f64::min)
    };
    let (small, large) = (time(8 << 10), time(64 << 10));
    let ratio = large / small;
    assert!(
        ratio <= 24.0,
        "64 KiB head took {ratio:.1}x the 8 KiB one ({:.3} ms vs {:.3} ms)",
        large * 1e3,
        small * 1e3
    );
}
