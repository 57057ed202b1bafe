//! The closed-loop load generator: each client thread owns one
//! connection and sends its next request only after the previous
//! answer arrived.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ccmx_net::wire::{KIND_REQUEST, KIND_RESPONSE};
use ccmx_net::{Client, NetError, Request, Response, TcpTransport, WireCodec};

use crate::gen::Generator;
use crate::procs::client_config;

/// Client-side spans of one traced request, recorded while it runs:
/// nanoseconds spent encoding the request, writing its frame, waiting
/// for the response frame (loopback and everything the server does),
/// and decoding the response.
#[derive(Clone, Copy, Debug)]
pub struct Stages {
    pub encode_ns: u64,
    pub send_ns: u64,
    pub wait_ns: u64,
    pub decode_ns: u64,
}

/// One request as the client saw it.
#[derive(Clone)]
pub struct Sample {
    /// Generator index of the request.
    pub index: u64,
    /// Send time, relative to the window start.
    pub start: Duration,
    /// Client-observed latency: encode, send, wait, receive, decode.
    pub latency: Duration,
    /// The answer, or the transport failure.
    pub resp: Result<Response, String>,
    /// The request's client-side spans, in a traced window.
    pub stages: Option<Stages>,
}

/// The samples of one timed window.
pub struct Window {
    pub samples: Vec<Sample>,
    /// From the window start until the last answer arrived.
    pub elapsed: Duration,
}

/// One client connection. An untraced window sends through
/// [`Client::request`]; a traced one makes the same calls it makes
/// (encode, `send_frame`, `recv_frame`, decode) itself, reading the
/// clock between them.
enum Conn {
    Plain(Client),
    Traced(TcpTransport),
}

impl Conn {
    fn connect(addr: &str, traced: bool) -> Result<Conn, NetError> {
        Ok(if traced {
            Conn::Traced(TcpTransport::connect(addr, client_config())?)
        } else {
            Conn::Plain(Client::connect(addr, client_config())?)
        })
    }

    fn request(&mut self, req: &Request) -> (Result<Response, NetError>, Option<Stages>) {
        match self {
            Conn::Plain(c) => (c.request(req), None),
            Conn::Traced(t) => {
                let t0 = Instant::now();
                let bytes = req.to_wire_bytes();
                let t1 = Instant::now();
                let sent = t.send_frame(KIND_REQUEST, &bytes);
                let t2 = Instant::now();
                let frame = sent.and_then(|()| t.recv_frame());
                let t3 = Instant::now();
                let resp = frame.and_then(|(kind, payload)| {
                    if kind == KIND_RESPONSE {
                        Response::from_wire_bytes(&payload)
                    } else {
                        Err(NetError::Protocol(format!(
                            "expected a response frame, got kind {kind}"
                        )))
                    }
                });
                let t4 = Instant::now();
                let ns = |a: Instant, b: Instant| (b - a).as_nanos() as u64;
                let stages = Stages {
                    encode_ns: ns(t0, t1),
                    send_ns: ns(t1, t2),
                    wait_ns: ns(t2, t3),
                    decode_ns: ns(t3, t4),
                };
                (resp, Some(stages))
            }
        }
    }
}

/// Drive `addr` from `conns` client threads for `length`, drawing
/// request indices from `next` (shared across windows, so a later
/// window never repeats an earlier window's requests). A `traced`
/// window records every request's client-side spans in memory.
pub fn closed_loop(
    addr: &str,
    conns: usize,
    length: Duration,
    gen: &Generator,
    next: &AtomicU64,
    traced: bool,
) -> Window {
    let t0 = Instant::now();
    let deadline = t0 + length;
    let per_thread: Vec<Vec<Sample>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|_| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    let mut conn = None;
                    while Instant::now() < deadline {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let item = gen.item(index);
                        // Connecting is not part of a request's latency.
                        if conn.is_none() {
                            match Conn::connect(addr, traced) {
                                Ok(c) => conn = Some(c),
                                Err(e) => {
                                    out.push(Sample {
                                        index,
                                        start: t0.elapsed(),
                                        latency: Duration::ZERO,
                                        resp: Err(e.to_string()),
                                        stages: None,
                                    });
                                    std::thread::sleep(Duration::from_millis(1));
                                    continue;
                                }
                            }
                        }
                        let c = conn.as_mut().expect("connected above");
                        let start = Instant::now();
                        let (resp, stages) = c.request(&item.req);
                        let latency = start.elapsed();
                        let resp = resp.map_err(|e| e.to_string());
                        if resp.is_err() {
                            conn = None;
                        }
                        out.push(Sample {
                            index,
                            start: start - t0,
                            latency,
                            resp,
                            stages,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = t0.elapsed();
    let mut samples: Vec<Sample> = per_thread.into_iter().flatten().collect();
    samples.sort_by_key(|s| s.index);
    Window { samples, elapsed }
}
