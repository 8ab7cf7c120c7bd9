//! The `ltc-proto` message vocabulary and its NDJSON codec (versions
//! [`PROTO_VERSION`] and [`PROTO_VERSION_V2`]).
//!
//! ## Framing
//!
//! A connection is a bidirectional stream of **frames**: one JSON object
//! per line, `\n`-delimited, at most [`MAX_FRAME`] bytes (the delimiter
//! bounds each frame; readers enforce the cap *while* reading, so a
//! hostile peer cannot balloon memory). The first frame in each
//! direction is the version handshake:
//!
//! ```text
//! client → {"proto":"ltc-proto","v":1}
//! server → {"proto":"ltc-proto","v":1,"info":{…}}     (or {"err":…} + close)
//! ```
//!
//! After the handshake the client sends [`Request`] frames (`"op"` key)
//! and the server answers each with exactly one [`Response`] frame
//! (`"ok"` or `"err"` key), in request order per connection. Once a
//! connection has subscribed, [`StreamEvent`] frames (`"ev"` key) flow
//! server→client interleaved between responses; the `"ev"`/`"ok"`/
//! `"err"` key is the demultiplexer.
//!
//! ## Sessions (`v2`)
//!
//! A `v2` connection speaks to a **named session** on a multi-session
//! server. The handshake is `{"proto":"ltc-proto","v":2}`, the
//! connection starts bound to the [`DEFAULT_SESSION`], and the
//! session verbs [`Request::Open`] / [`Request::Attach`] /
//! [`Request::Close`] / [`Request::Sessions`] manage the server's
//! session table. Every `v2` request, response, and event frame carries
//! the session id as a trailing `"sid"` member ([`with_sid`]); `v1`
//! frames stay byte-identical to what they always were, and a `v1`
//! hello binds the default session.
//!
//! ## Windowed submission (`v2`)
//!
//! A `v2` server advertises the largest submission window it accepts as
//! a `"win"` member of its hello response ([`MAX_WINDOW`]; absent means
//! 1, i.e. lockstep only). A windowed client then fires up to that many
//! `submit`/`post` frames without awaiting their responses, tagging
//! each with a monotonically increasing `"seq"` member; the server
//! echoes the `"seq"` back on the matching response, so the client can
//! verify the FIFO response order against its in-flight window. `"seq"`
//! never changes what an operation does — untagged `v2` frames (and all
//! of `v1`, where `"seq"` is refused like `"sid"`) stay lockstep and
//! byte-identical to what they always were.
//!
//! ## Exactness
//!
//! Every `f64` crosses the wire as its 16-hex-digit IEEE-754 bit
//! pattern inside a JSON string (the `ltc-snapshot v1` convention), so
//! a remote session observes bit-identical accuracies, gains, and
//! coordinates — the property the byte-identical NDJSON differential
//! tests rest on. Ids and counters are plain JSON integers (the parser
//! keeps them out of `f64`, so the full `u64` range is safe).
//!
//! ## Compatibility policy
//!
//! See `docs/PROTOCOL.md` for the full grammar. In short: `v1` evolves
//! by adding optional object members (readers ignore unknown members);
//! anything else bumps `v`, and a server refuses unknown versions in
//! the handshake rather than guessing.

use crate::json::{self, Json};
use ltc_core::model::{ProblemParams, QualityModel, Task, TaskId, Worker, WorkerId};
use ltc_core::numfmt::{self, Case};
use ltc_core::service::{
    Algorithm, Event, Lifecycle, RebalanceOutcome, ServiceMetrics, SessionInfo, StreamEvent,
};
use ltc_spatial::{BoundingBox, Point};
use std::fmt;
use std::io::{self, BufRead, Read, Write};

/// The protocol name, sent in both handshake frames.
pub const PROTO_NAME: &str = "ltc-proto";
/// The baseline protocol version: one implicit session per server.
pub const PROTO_VERSION: u64 = 1;
/// The session-namespace protocol version: named sessions behind one
/// server, a `"sid"` member on every frame.
pub const PROTO_VERSION_V2: u64 = 2;
/// The session a `v1` hello (or a fresh `v2` connection) is bound to.
pub const DEFAULT_SESSION: &str = "default";
/// The largest submission window a server grants (and advertises in its
/// `v2` hello response): how many `submit`/`post` frames one connection
/// may have in flight before it must await an acknowledgement.
pub const MAX_WINDOW: u64 = 256;

/// Whether `name` is a legal session id: 1–64 ASCII characters from
/// `[A-Za-z0-9._-]`. The restriction keeps session ids free of JSON
/// escapes, so they can ride every frame verbatim.
pub fn valid_session_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-'))
}

/// Appends the trailing `"sid"` member every `v2` frame carries. The
/// frame must be one JSON object (every encoder here emits exactly
/// that) and the sid a [`valid_session_name`], so no escaping is
/// needed.
pub fn with_sid(frame: String, sid: &str) -> String {
    debug_assert!(frame.ends_with('}'), "{frame}");
    debug_assert!(valid_session_name(sid), "{sid}");
    let mut out = frame;
    out.pop();
    out.push_str(",\"sid\":\"");
    out.push_str(sid);
    out.push_str("\"}");
    out
}

/// The `"sid"` member of a frame, if present and well-formed.
pub fn frame_sid(v: &Json) -> Result<Option<&str>, WireError> {
    match v.get("sid") {
        None => Ok(None),
        Some(sid) => {
            let sid = sid.as_str().ok_or("non-string `sid`")?;
            if !valid_session_name(sid) {
                return Err(format!("illegal session id `{sid}`"));
            }
            Ok(Some(sid))
        }
    }
}
/// Upper bound on one frame, delimiter included (64 MiB — snapshots of
/// large services travel as a single frame).
pub const MAX_FRAME: usize = 1 << 26;

/// A decode failure: what was wrong with the offending frame.
pub type WireError = String;

/// Renders an `f64` as its 16-hex-digit IEEE-754 bit pattern — the
/// `ltc-snapshot v1` / `ltc-proto v1` exactness convention, shared by
/// every layer that persists or transmits floats
/// ([`numfmt::hex_f64`]). The digits format straight into the frame
/// being built, with no `String` per value.
pub fn hex(v: f64) -> impl fmt::Display {
    struct Hex(f64);
    impl fmt::Display for Hex {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str(
                std::str::from_utf8(&numfmt::hex_f64(self.0)).expect("hex digits are ASCII"),
            )
        }
    }
    Hex(v)
}

/// Parses a [`hex`]-rendered bit pattern back into the identical `f64`,
/// rejecting anything that is not 16 bytes inside a JSON string. The
/// digits may be of either case, and — as `u64::from_str_radix` has
/// always allowed here — a `+` may stand in for the first one.
pub fn unhex(field: &'static str, v: Option<&Json>) -> Result<f64, WireError> {
    let s = v
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string `{field}`"))?;
    let bits = match numfmt::parse_hex16(s.as_bytes(), Case::Any) {
        Some(bits) => Some(bits),
        None if s.len() == 16 && s.starts_with('+') => u64::from_str_radix(s, 16).ok(),
        None => None,
    };
    bits.map(f64::from_bits)
        .ok_or_else(|| format!("`{field}` is not a 16-hex-digit f64 bit pattern"))
}

fn uint(field: &'static str, v: Option<&Json>) -> Result<u64, WireError> {
    v.and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer `{field}`"))
}

fn word<'a>(field: &'static str, v: Option<&'a Json>) -> Result<&'a str, WireError> {
    v.and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string `{field}`"))
}

// ---------------------------------------------------------------------
// Exact-layout fast paths for the three frame shapes that dominate a
// streaming connection: the submission request, its acknowledgement,
// and the worker event it produces.
// Each accepts precisely the byte layout our own encoders emit (fixed
// member order, optional `"seq"`/`"sid"` tails) and decodes to exactly
// what the generic JSON route would produce; any deviation returns
// `None` and falls back to the generic parser, so foreign-but-valid
// framings still work and hostile input hits the same guarded path it
// always did. The differential unit test pins the agreement.

/// Consumes exactly 16 hex digits of either case (a [`hex`]-rendered
/// `f64`).
fn eat_hex16(rest: &[u8]) -> Option<(f64, &[u8])> {
    let digits = rest.get(..16)?;
    let bits = numfmt::parse_hex16(digits, Case::Any)?;
    Some((f64::from_bits(bits), &rest[16..]))
}

/// Consumes a canonical JSON unsigned integer (no sign, no leading
/// zeros — anything else falls back to the generic parser).
fn eat_u64(rest: &[u8]) -> Option<(u64, &[u8])> {
    let end = rest
        .iter()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(rest.len());
    if end == 0 || (end > 1 && rest[0] == b'0') {
        return None;
    }
    let n: u64 = std::str::from_utf8(&rest[..end]).ok()?.parse().ok()?;
    Some((n, &rest[end..]))
}

/// Consumes the optional `,"seq":N` tail.
fn eat_seq(rest: &[u8]) -> Option<(Option<u64>, &[u8])> {
    match rest.strip_prefix(b",\"seq\":") {
        None => Some((None, rest)),
        Some(r) => {
            let (n, r) = eat_u64(r)?;
            Some((Some(n), r))
        }
    }
}

/// Consumes the optional `,"sid":"name"` tail ([`valid_session_name`]
/// enforced, like [`frame_sid`]).
fn eat_sid(rest: &[u8]) -> Option<(Option<&str>, &[u8])> {
    match rest.strip_prefix(b",\"sid\":\"") {
        None => Some((None, rest)),
        Some(r) => {
            let quote = r.iter().position(|&b| b == b'"')?;
            let name = std::str::from_utf8(&r[..quote]).ok()?;
            if !valid_session_name(name) {
                return None;
            }
            Some((Some(name), &r[quote + 1..]))
        }
    }
}

/// The submission-request fast path (see the block comment above).
fn fast_decode_submit(frame: &str) -> Option<(Request, Option<String>)> {
    let rest = frame
        .as_bytes()
        .strip_prefix(b"{\"op\":\"submit\",\"x\":\"")?;
    let (x, rest) = eat_hex16(rest)?;
    let rest = rest.strip_prefix(b"\",\"y\":\"")?;
    let (y, rest) = eat_hex16(rest)?;
    let rest = rest.strip_prefix(b"\",\"acc\":\"")?;
    let (acc, rest) = eat_hex16(rest)?;
    let rest = rest.strip_prefix(b"\"")?;
    let (seq, rest) = eat_seq(rest)?;
    let (sid, rest) = eat_sid(rest)?;
    if rest != b"}" {
        return None;
    }
    Some((
        Request::Submit {
            worker: Worker::new(Point::new(x, y), acc),
            seq,
        },
        sid.map(str::to_owned),
    ))
}

/// The acknowledgement fast path (see the block comment above): the
/// `submit`/`post` success responses, whose `"sid"` the client ignores
/// exactly like the generic route does.
fn fast_decode_ack(frame: &str) -> Option<Response> {
    let bytes = frame.as_bytes();
    let (is_submit, rest) = if let Some(r) = bytes.strip_prefix(b"{\"ok\":\"submit\",\"worker\":") {
        (true, r)
    } else if let Some(r) = bytes.strip_prefix(b"{\"ok\":\"post\",\"task\":") {
        (false, r)
    } else {
        return None;
    };
    let (id, rest) = eat_u64(rest)?;
    let (seq, rest) = eat_seq(rest)?;
    let (_sid, rest) = eat_sid(rest)?;
    if rest != b"}" {
        return None;
    }
    Some(if is_submit {
        Response::Submit {
            worker: WorkerId(id),
            seq,
        }
    } else {
        Response::Post {
            // The generic route truncates the same way (`as u32`).
            task: TaskId(id as u32),
            seq,
        }
    })
}

/// The worker-event fast path (see the block comment above): a
/// [`StreamEvent::Worker`] delivery exactly as [`push_event_frame`]
/// lays it out, with the optional `"sid"` tail the client ignores like
/// the generic route does. Task ids keep the generic route's `as u32`
/// truncation.
fn fast_decode_worker_event(frame: &str) -> Option<StreamEvent> {
    let rest = frame
        .as_bytes()
        .strip_prefix(b"{\"ev\":\"worker\",\"worker\":")?;
    let (id, rest) = eat_u64(rest)?;
    let worker = WorkerId(id);
    let mut rest = rest.strip_prefix(b",\"batch\":[")?;
    let mut events = Vec::new();
    if let Some(r) = rest.strip_prefix(b"]") {
        rest = r;
    } else {
        loop {
            let (event, r) = eat_batch_entry(rest, worker)?;
            events.push(event);
            if let Some(r) = r.strip_prefix(b",") {
                rest = r;
            } else {
                rest = r.strip_prefix(b"]")?;
                break;
            }
        }
    }
    let (_sid, rest) = eat_sid(rest)?;
    if rest != b"}" {
        return None;
    }
    Some(StreamEvent::Worker { worker, events })
}

/// Consumes one `batch` entry of a worker event.
fn eat_batch_entry(rest: &[u8], worker: WorkerId) -> Option<(Event, &[u8])> {
    if let Some(r) = rest.strip_prefix(b"{\"k\":\"assign\",\"task\":") {
        let (task, r) = eat_u64(r)?;
        let r = r.strip_prefix(b",\"acc\":\"")?;
        let (acc, r) = eat_hex16(r)?;
        let r = r.strip_prefix(b"\",\"gain\":\"")?;
        let (gain, r) = eat_hex16(r)?;
        let r = r.strip_prefix(b"\"}")?;
        let event = Event::Assigned {
            worker,
            task: TaskId(task as u32),
            acc,
            gain,
        };
        Some((event, r))
    } else if let Some(r) = rest.strip_prefix(b"{\"k\":\"done\",\"task\":") {
        let (task, r) = eat_u64(r)?;
        let r = r.strip_prefix(b",\"latency\":")?;
        let (latency, r) = eat_u64(r)?;
        let r = r.strip_prefix(b"}")?;
        let event = Event::TaskCompleted {
            task: TaskId(task as u32),
            latency,
        };
        Some((event, r))
    } else {
        let r = rest.strip_prefix(b"{\"k\":\"idle\"}")?;
        Some((Event::WorkerIdle { worker }, r))
    }
}

/// Reads one frame (without its trailing `\n`), enforcing [`MAX_FRAME`]
/// while reading. `Ok(None)` is a clean end of stream at a frame
/// boundary; a frame truncated by EOF or overflowing the cap is an
/// error.
pub fn read_frame<R: BufRead>(reader: &mut R) -> io::Result<Option<String>> {
    let mut buf = Vec::new();
    let mut limited = reader.take(MAX_FRAME as u64);
    let n = limited.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            if n >= MAX_FRAME {
                "frame exceeds the protocol size cap"
            } else {
                "connection closed mid-frame"
            },
        ));
    }
    buf.pop();
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))
}

/// Writes one frame and flushes it (frames are the unit of progress;
/// buffering across them would deadlock lockstep request/response use).
///
/// The body and its `\n` go out in one vectored `write`, so on a socket
/// a small frame is one segment, not a body segment chased by a
/// one-byte delimiter segment. A short write falls back to plain writes
/// of whatever is left.
pub fn write_frame<W: Write>(writer: &mut W, frame: &str) -> io::Result<()> {
    debug_assert!(!frame.contains('\n'), "frames are single lines");
    let body = frame.as_bytes();
    let written = loop {
        match writer.write_vectored(&[io::IoSlice::new(body), io::IoSlice::new(b"\n")]) {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            result => break result?,
        }
    };
    if written <= body.len() {
        writer.write_all(&body[written..])?;
        writer.write_all(b"\n")?;
    }
    writer.flush()
}

/// The client half of the version handshake.
pub fn encode_hello() -> String {
    format!("{{\"proto\":\"{PROTO_NAME}\",\"v\":{PROTO_VERSION}}}")
}

/// The client half of a `v2` handshake.
pub fn encode_hello_v2() -> String {
    format!("{{\"proto\":\"{PROTO_NAME}\",\"v\":{PROTO_VERSION_V2}}}")
}

/// The server half of a `v2` handshake (the caller appends the bound
/// session's sid with [`with_sid`], like on every other `v2` frame).
/// `win` advertises the largest submission window the server grants
/// (1 = lockstep only; servers built here say [`MAX_WINDOW`]).
pub fn encode_hello_response_v2(info: &SessionInfo, win: u64) -> String {
    let mut out = format!("{{\"proto\":\"{PROTO_NAME}\",\"v\":{PROTO_VERSION_V2},\"info\":");
    encode_info(&mut out, info);
    out.push_str(&format!(",\"win\":{win}"));
    out.push('}');
    out
}

/// Validates a client hello, returning the version it asked for.
pub fn decode_hello(frame: &str) -> Result<u64, WireError> {
    let v = json::parse(frame).map_err(|e| e.to_string())?;
    if word("proto", v.get("proto"))? != PROTO_NAME {
        return Err("not an ltc-proto handshake".into());
    }
    uint("v", v.get("v"))
}

/// A client→server operation.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `submit_worker`.
    Submit {
        /// The check-in.
        worker: Worker,
        /// `v2` windowed submission: the client's correlation number,
        /// echoed on the response. `None` = lockstep (all of `v1`).
        seq: Option<u64>,
    },
    /// `post_task` (with the accuracy-table row under tabular models).
    Post {
        /// The task.
        task: Task,
        /// Per-worker accuracies, when the model is tabular.
        row: Option<Vec<f64>>,
        /// `v2` windowed submission correlation number (see
        /// [`Request::Submit`]).
        seq: Option<u64>,
    },
    /// Start forwarding events on this connection.
    Subscribe,
    /// `drain`.
    Drain,
    /// `snapshot` (the reply embeds `ltc-snapshot v1` text).
    Snapshot,
    /// `rebalance`.
    Rebalance,
    /// `metrics`.
    Metrics,
    /// End the served session.
    Shutdown,
    /// `v2`: create a named session in the server's session table and
    /// bind this connection to it. Absent knobs inherit the server's
    /// template (the configuration its default session was built from).
    Open {
        /// The new session's id.
        sid: String,
        /// Policy override (its seed rides inside
        /// [`Algorithm::Random`]).
        algorithm: Option<Algorithm>,
        /// Shard-count override.
        shards: Option<usize>,
        /// Service-region override.
        region: Option<BoundingBox>,
    },
    /// `v2`: bind this connection to an existing named session.
    Attach {
        /// The target session's id.
        sid: String,
    },
    /// `v2`: quiesce and evict a named session (its subscribers see
    /// [`Lifecycle::SessionEvicted`] and then the stream ends). The
    /// default session cannot be closed — `shutdown` ends the server.
    Close {
        /// The doomed session's id.
        sid: String,
    },
    /// `v2`: list the server's live sessions.
    Sessions,
}

impl Request {
    /// Serializes the request as one frame.
    pub fn encode(&self) -> String {
        match self {
            Request::Submit { worker, seq } => {
                let mut out = format!(
                    "{{\"op\":\"submit\",\"x\":\"{}\",\"y\":\"{}\",\"acc\":\"{}\"",
                    hex(worker.loc.x),
                    hex(worker.loc.y),
                    hex(worker.accuracy)
                );
                if let Some(seq) = seq {
                    out.push_str(&format!(",\"seq\":{seq}"));
                }
                out.push('}');
                out
            }
            Request::Post { task, row, seq } => {
                let mut out = format!(
                    "{{\"op\":\"post\",\"x\":\"{}\",\"y\":\"{}\"",
                    hex(task.loc.x),
                    hex(task.loc.y)
                );
                if let Some(row) = row {
                    out.push_str(",\"row\":[");
                    for (i, &a) in row.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push('"');
                        numfmt::push_hex_f64_str(&mut out, a);
                        out.push('"');
                    }
                    out.push(']');
                }
                if let Some(seq) = seq {
                    out.push_str(&format!(",\"seq\":{seq}"));
                }
                out.push('}');
                out
            }
            Request::Subscribe => "{\"op\":\"subscribe\"}".into(),
            Request::Drain => "{\"op\":\"drain\"}".into(),
            Request::Snapshot => "{\"op\":\"snapshot\"}".into(),
            Request::Rebalance => "{\"op\":\"rebalance\"}".into(),
            Request::Metrics => "{\"op\":\"metrics\"}".into(),
            Request::Shutdown => "{\"op\":\"shutdown\"}".into(),
            Request::Open {
                sid,
                algorithm,
                shards,
                region,
            } => {
                let mut out = format!("{{\"op\":\"open\",\"sid\":\"{sid}\"");
                if let Some(algorithm) = algorithm {
                    out.push(',');
                    encode_algorithm(&mut out, *algorithm);
                }
                if let Some(shards) = shards {
                    out.push_str(&format!(",\"shards\":{shards}"));
                }
                if let Some(region) = region {
                    out.push_str(&format!(
                        ",\"region\":[\"{}\",\"{}\",\"{}\",\"{}\"]",
                        hex(region.min.x),
                        hex(region.min.y),
                        hex(region.max.x),
                        hex(region.max.y)
                    ));
                }
                out.push('}');
                out
            }
            Request::Attach { sid } => format!("{{\"op\":\"attach\",\"sid\":\"{sid}\"}}"),
            Request::Close { sid } => format!("{{\"op\":\"close\",\"sid\":\"{sid}\"}}"),
            Request::Sessions => "{\"op\":\"sessions\"}".into(),
        }
    }

    /// Parses a request frame, also returning its `"sid"` member — the
    /// session a `v2` request addresses (for the session verbs, the
    /// target session). `None` on `v1` frames.
    pub fn decode_with_sid(frame: &str) -> Result<(Request, Option<String>), WireError> {
        if let Some(decoded) = fast_decode_submit(frame) {
            return Ok(decoded);
        }
        let v = json::parse(frame).map_err(|e| e.to_string())?;
        let sid = frame_sid(&v)?.map(str::to_owned);
        let request = Self::decode_value(&v)?;
        Ok((request, sid))
    }

    /// Parses a request frame.
    pub fn decode(frame: &str) -> Result<Request, WireError> {
        if let Some((request, _)) = fast_decode_submit(frame) {
            return Ok(request);
        }
        let v = json::parse(frame).map_err(|e| e.to_string())?;
        Self::decode_value(&v)
    }

    fn decode_value(v: &Json) -> Result<Request, WireError> {
        match word("op", v.get("op"))? {
            "submit" => Ok(Request::Submit {
                worker: Worker::new(
                    Point::new(unhex("x", v.get("x"))?, unhex("y", v.get("y"))?),
                    unhex("acc", v.get("acc"))?,
                ),
                seq: optional_seq(v)?,
            }),
            "post" => {
                let task = Task::new(Point::new(unhex("x", v.get("x"))?, unhex("y", v.get("y"))?));
                let row = match v.get("row") {
                    None => None,
                    Some(row) => {
                        let items = row.as_arr().ok_or("`row` must be an array")?;
                        let mut out = Vec::with_capacity(items.len());
                        for item in items {
                            out.push(unhex("row entry", Some(item))?);
                        }
                        Some(out)
                    }
                };
                Ok(Request::Post {
                    task,
                    row,
                    seq: optional_seq(v)?,
                })
            }
            "subscribe" => Ok(Request::Subscribe),
            "drain" => Ok(Request::Drain),
            "snapshot" => Ok(Request::Snapshot),
            "rebalance" => Ok(Request::Rebalance),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            "open" => Ok(Request::Open {
                sid: required_sid(v)?,
                algorithm: match v.get("algo") {
                    None => None,
                    Some(_) => Some(decode_algorithm(v)?),
                },
                shards: match v.get("shards") {
                    None => None,
                    Some(_) => Some(uint("shards", v.get("shards"))? as usize),
                },
                region: match v.get("region") {
                    None => None,
                    Some(region) => {
                        let corners = region.as_arr().filter(|a| a.len() == 4).ok_or(
                            "`region` must be a 4-element [min_x,min_y,max_x,max_y] array",
                        )?;
                        Some(BoundingBox::new(
                            Point::new(
                                unhex("region entry", Some(&corners[0]))?,
                                unhex("region entry", Some(&corners[1]))?,
                            ),
                            Point::new(
                                unhex("region entry", Some(&corners[2]))?,
                                unhex("region entry", Some(&corners[3]))?,
                            ),
                        ))
                    }
                },
            }),
            "attach" => Ok(Request::Attach {
                sid: required_sid(v)?,
            }),
            "close" => Ok(Request::Close {
                sid: required_sid(v)?,
            }),
            "sessions" => Ok(Request::Sessions),
            other => Err(format!("unknown op `{other}`")),
        }
    }
}

/// The optional `"seq"` correlation member of a windowed `submit`/
/// `post` frame (and its response). Absent is lockstep; present but
/// malformed is a protocol error, never a silent fallback.
fn optional_seq(v: &Json) -> Result<Option<u64>, WireError> {
    match v.get("seq") {
        None => Ok(None),
        Some(seq) => seq
            .as_u64()
            .map(Some)
            .ok_or_else(|| "non-integer `seq`".into()),
    }
}

/// The mandatory `"sid"` of a session verb.
fn required_sid(v: &Json) -> Result<String, WireError> {
    frame_sid(v)?
        .map(str::to_owned)
        .ok_or_else(|| "missing `sid`".into())
}

/// A server→client reply. Exactly one per [`Request`], in request order
/// per connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The handshake reply, describing the served session.
    Hello {
        /// The session description.
        info: SessionInfo,
        /// The largest submission window the server grants (absent on
        /// the wire means 1 — lockstep only; see [`MAX_WINDOW`]).
        win: u64,
    },
    /// A worker was accepted under this arrival id.
    Submit {
        /// The service-global arrival id.
        worker: WorkerId,
        /// The windowed request's `"seq"`, echoed back (see
        /// [`Request::Submit`]); `None` on lockstep responses.
        seq: Option<u64>,
    },
    /// A task was accepted under this global id.
    Post {
        /// The service-global task id.
        task: TaskId,
        /// The windowed request's `"seq"`, echoed back.
        seq: Option<u64>,
    },
    /// Events will now flow on this connection.
    Subscribe,
    /// Every prior submission is processed and delivered.
    Drain,
    /// The quiesced session state as `ltc-snapshot v1` text.
    Snapshot {
        /// The snapshot document.
        text: String,
    },
    /// What the rebalance did (`None`: nothing to move).
    Rebalance {
        /// The migration summary.
        outcome: Option<RebalanceOutcome>,
    },
    /// Live operational counters.
    Metrics {
        /// The counters.
        metrics: ServiceMetrics,
    },
    /// The session ended.
    Shutdown,
    /// `v2`: a session was created and this connection bound to it.
    Open {
        /// The new session's description.
        info: SessionInfo,
    },
    /// `v2`: this connection is now bound to the named session.
    Attach {
        /// The bound session's description.
        info: SessionInfo,
    },
    /// `v2`: the named session was quiesced and evicted.
    Close,
    /// `v2`: the server's live sessions.
    Sessions {
        /// One entry per live session, in session-name order.
        sessions: Vec<SessionStat>,
    },
    /// The operation failed; the session (and connection) remain usable
    /// unless the message says otherwise.
    Err {
        /// Human-readable failure description.
        message: String,
    },
}

/// One row of a `v2` `sessions` listing.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionStat {
    /// The session's id.
    pub sid: String,
    /// The policy it runs.
    pub algorithm: Algorithm,
    /// Its shard count.
    pub n_shards: usize,
    /// Tasks it currently holds.
    pub n_tasks: u64,
    /// Connections currently bound to it.
    pub attached: u64,
}

fn encode_algorithm(out: &mut String, algorithm: Algorithm) {
    let (name, seed) = match algorithm {
        Algorithm::Laf => ("laf", None),
        Algorithm::Aam => ("aam", None),
        Algorithm::AamLgf => ("aam-lgf", None),
        Algorithm::AamLrf => ("aam-lrf", None),
        Algorithm::Random { seed } => ("random", Some(seed)),
    };
    out.push_str(&format!("\"algo\":\"{name}\""));
    if let Some(seed) = seed {
        out.push_str(&format!(",\"seed\":{seed}"));
    }
}

fn decode_algorithm(v: &Json) -> Result<Algorithm, WireError> {
    match word("algo", v.get("algo"))? {
        "laf" => Ok(Algorithm::Laf),
        "aam" => Ok(Algorithm::Aam),
        "aam-lgf" => Ok(Algorithm::AamLgf),
        "aam-lrf" => Ok(Algorithm::AamLrf),
        "random" => Ok(Algorithm::Random {
            seed: uint("seed", v.get("seed"))?,
        }),
        other => Err(format!("unknown algorithm `{other}`")),
    }
}

fn encode_info(out: &mut String, info: &SessionInfo) {
    out.push('{');
    encode_algorithm(out, info.algorithm);
    let p = &info.params;
    out.push_str(&format!(
        ",\"shards\":{},\"tasks\":{},\"params\":{{\"epsilon\":\"{}\",\"capacity\":{},\
         \"d_max\":\"{}\",\"min_accuracy\":\"{}\",\"eligibility\":\"{}\",\"quality\":",
        info.n_shards,
        info.n_tasks,
        hex(p.epsilon),
        p.capacity,
        hex(p.d_max),
        hex(p.min_accuracy),
        match p.eligibility {
            ltc_core::model::Eligibility::WithinRange => "within",
            ltc_core::model::Eligibility::Unrestricted => "unrestricted",
        },
    ));
    match p.quality {
        QualityModel::Hoeffding => out.push_str("\"hoeffding\""),
        QualityModel::FixedThreshold(th) => out.push_str(&format!("{{\"fixed\":\"{}\"}}", hex(th))),
    }
    out.push_str("}}");
}

fn decode_info(v: &Json) -> Result<SessionInfo, WireError> {
    let algorithm = decode_algorithm(v)?;
    let p = v.get("params").ok_or("missing `params`")?;
    let params = ProblemParams {
        epsilon: unhex("epsilon", p.get("epsilon"))?,
        capacity: uint("capacity", p.get("capacity"))? as u32,
        d_max: unhex("d_max", p.get("d_max"))?,
        min_accuracy: unhex("min_accuracy", p.get("min_accuracy"))?,
        eligibility: match word("eligibility", p.get("eligibility"))? {
            "within" => ltc_core::model::Eligibility::WithinRange,
            "unrestricted" => ltc_core::model::Eligibility::Unrestricted,
            other => return Err(format!("unknown eligibility `{other}`")),
        },
        quality: match p.get("quality") {
            Some(Json::Str(s)) if s == "hoeffding" => QualityModel::Hoeffding,
            Some(q) if q.get("fixed").is_some() => {
                QualityModel::FixedThreshold(unhex("fixed", q.get("fixed"))?)
            }
            _ => return Err("missing or unknown `quality`".into()),
        },
    };
    Ok(SessionInfo {
        algorithm,
        params,
        n_shards: uint("shards", v.get("shards"))? as usize,
        n_tasks: uint("tasks", v.get("tasks"))?,
    })
}

fn push_u64_array(out: &mut String, key: &str, values: &[u64]) {
    out.push_str(&format!(",\"{key}\":["));
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out.push(']');
}

fn u64_array(field: &'static str, v: Option<&Json>) -> Result<Vec<u64>, WireError> {
    let items = v
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing or non-array `{field}`"))?;
    items
        .iter()
        .map(|i| {
            i.as_u64()
                .ok_or_else(|| format!("non-integer in `{field}`"))
        })
        .collect()
}

fn usize_array(field: &'static str, v: Option<&Json>) -> Result<Vec<usize>, WireError> {
    Ok(u64_array(field, v)?
        .into_iter()
        .map(|v| v as usize)
        .collect())
}

impl Response {
    /// Serializes the response as one frame.
    pub fn encode(&self) -> String {
        match self {
            Response::Hello { info, win } => {
                let mut out =
                    format!("{{\"proto\":\"{PROTO_NAME}\",\"v\":{PROTO_VERSION},\"info\":");
                encode_info(&mut out, info);
                // The `v1` hello never advertised a window; keep it
                // byte-identical for the lockstep-only default.
                if *win != 1 {
                    out.push_str(&format!(",\"win\":{win}"));
                }
                out.push('}');
                out
            }
            Response::Submit { worker, seq } => {
                let mut out = format!("{{\"ok\":\"submit\",\"worker\":{}", worker.0);
                if let Some(seq) = seq {
                    out.push_str(&format!(",\"seq\":{seq}"));
                }
                out.push('}');
                out
            }
            Response::Post { task, seq } => {
                let mut out = format!("{{\"ok\":\"post\",\"task\":{}", task.0);
                if let Some(seq) = seq {
                    out.push_str(&format!(",\"seq\":{seq}"));
                }
                out.push('}');
                out
            }
            Response::Subscribe => "{\"ok\":\"subscribe\"}".into(),
            Response::Drain => "{\"ok\":\"drain\"}".into(),
            Response::Snapshot { text } => {
                let mut out = String::with_capacity(text.len() + 32);
                out.push_str("{\"ok\":\"snapshot\",\"data\":");
                json::push_escaped(&mut out, text);
                out.push('}');
                out
            }
            Response::Rebalance { outcome } => match outcome {
                None => "{\"ok\":\"rebalance\",\"outcome\":null}".into(),
                Some(o) => {
                    let mut out = format!(
                        "{{\"ok\":\"rebalance\",\"outcome\":{{\"moved\":{}",
                        o.moved_tasks
                    );
                    push_u64_array(&mut out, "loads", &o.live_loads);
                    let starts: Vec<u64> = o.stripe_starts.iter().map(|&s| s as u64).collect();
                    push_u64_array(&mut out, "starts", &starts);
                    out.push_str("}}");
                    out
                }
            },
            Response::Metrics { metrics: m } => {
                let mut out = format!(
                    "{{\"ok\":\"metrics\",\"workers\":{},\"assignments\":{},\"tasks\":{},\
                     \"completed\":{},\"clamped\":{},\"rebalances\":{}",
                    m.n_workers_seen,
                    m.n_assignments,
                    m.n_tasks,
                    m.n_completed,
                    m.clamped_insertions,
                    m.rebalances
                );
                push_u64_array(&mut out, "loads", &m.shard_loads);
                match m.latency {
                    Some(l) => out.push_str(&format!(",\"latency\":{l}")),
                    None => out.push_str(",\"latency\":null"),
                }
                out.push_str(&format!(
                    ",\"wal\":{},\"checkpoints\":{},\"sessions_open\":{},\
                     \"sessions_evicted\":{}}}",
                    m.wal_records, m.checkpoints, m.sessions_open, m.sessions_evicted
                ));
                out
            }
            Response::Shutdown => "{\"ok\":\"shutdown\"}".into(),
            Response::Open { info } => {
                let mut out = String::from("{\"ok\":\"open\",\"info\":");
                encode_info(&mut out, info);
                out.push('}');
                out
            }
            Response::Attach { info } => {
                let mut out = String::from("{\"ok\":\"attach\",\"info\":");
                encode_info(&mut out, info);
                out.push('}');
                out
            }
            Response::Close => "{\"ok\":\"close\"}".into(),
            Response::Sessions { sessions } => {
                let mut out = String::from("{\"ok\":\"sessions\",\"sessions\":[");
                for (i, s) in sessions.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("{{\"sid\":\"{}\",", s.sid));
                    encode_algorithm(&mut out, s.algorithm);
                    out.push_str(&format!(
                        ",\"shards\":{},\"tasks\":{},\"attached\":{}}}",
                        s.n_shards, s.n_tasks, s.attached
                    ));
                }
                out.push_str("]}");
                out
            }
            Response::Err { message } => {
                let mut out = String::from("{\"err\":");
                json::push_escaped(&mut out, message);
                out.push('}');
                out
            }
        }
    }

    /// Parses a response frame (which must not be an event frame).
    pub fn decode(frame: &str) -> Result<Response, WireError> {
        if let Some(response) = fast_decode_ack(frame) {
            return Ok(response);
        }
        Self::decode_generic(frame)
    }

    /// The generic JSON route [`Response::decode`] falls back to when
    /// the frame is not a hot-path acknowledgement (also exercised
    /// directly by the fast-path differential test).
    fn decode_generic(frame: &str) -> Result<Response, WireError> {
        let v = json::parse(frame).map_err(|e| e.to_string())?;
        if let Some(message) = v.get("err") {
            return Ok(Response::Err {
                message: message.as_str().unwrap_or("unspecified failure").into(),
            });
        }
        if v.get("proto").is_some() {
            let version = uint("v", v.get("v"))?;
            if version != PROTO_VERSION && version != PROTO_VERSION_V2 {
                return Err(format!(
                    "server speaks {PROTO_NAME} v{version}, this client v{PROTO_VERSION}\
                     /v{PROTO_VERSION_V2}"
                ));
            }
            return Ok(Response::Hello {
                info: decode_info(v.get("info").ok_or("missing `info`")?)?,
                // Absent on pre-windowing servers (and every v1 hello):
                // lockstep only, per the add-optional-members policy.
                // Present-but-malformed is refused, not coerced — a
                // garbled advertisement means a garbled peer.
                win: match v.get("win") {
                    None => 1,
                    Some(w) => w.as_u64().ok_or("non-integer `win`")?.max(1),
                },
            });
        }
        match word("ok", v.get("ok"))? {
            "submit" => Ok(Response::Submit {
                worker: WorkerId(uint("worker", v.get("worker"))?),
                seq: optional_seq(&v)?,
            }),
            "post" => Ok(Response::Post {
                task: TaskId(uint("task", v.get("task"))? as u32),
                seq: optional_seq(&v)?,
            }),
            "subscribe" => Ok(Response::Subscribe),
            "drain" => Ok(Response::Drain),
            "snapshot" => Ok(Response::Snapshot {
                text: word("data", v.get("data"))?.to_string(),
            }),
            "rebalance" => {
                let outcome = v.get("outcome").ok_or("missing `outcome`")?;
                if outcome.is_null() {
                    Ok(Response::Rebalance { outcome: None })
                } else {
                    Ok(Response::Rebalance {
                        outcome: Some(RebalanceOutcome {
                            moved_tasks: uint("moved", outcome.get("moved"))?,
                            live_loads: u64_array("loads", outcome.get("loads"))?,
                            stripe_starts: usize_array("starts", outcome.get("starts"))?,
                        }),
                    })
                }
            }
            "metrics" => Ok(Response::Metrics {
                metrics: ServiceMetrics {
                    n_workers_seen: uint("workers", v.get("workers"))?,
                    n_assignments: uint("assignments", v.get("assignments"))?,
                    n_tasks: uint("tasks", v.get("tasks"))?,
                    n_completed: uint("completed", v.get("completed"))?,
                    clamped_insertions: uint("clamped", v.get("clamped"))?,
                    rebalances: uint("rebalances", v.get("rebalances"))?,
                    shard_loads: u64_array("loads", v.get("loads"))?,
                    latency: match v.get("latency") {
                        Some(Json::Null) => None,
                        other => Some(uint("latency", other)?),
                    },
                    // Added after v1 shipped: absent on frames from
                    // older peers, so default rather than reject.
                    wal_records: v.get("wal").and_then(Json::as_u64).unwrap_or(0),
                    checkpoints: v.get("checkpoints").and_then(Json::as_u64).unwrap_or(0),
                    sessions_open: v.get("sessions_open").and_then(Json::as_u64).unwrap_or(0),
                    sessions_evicted: v
                        .get("sessions_evicted")
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                },
            }),
            "shutdown" => Ok(Response::Shutdown),
            "open" => Ok(Response::Open {
                info: decode_info(v.get("info").ok_or("missing `info`")?)?,
            }),
            "attach" => Ok(Response::Attach {
                info: decode_info(v.get("info").ok_or("missing `info`")?)?,
            }),
            "close" => Ok(Response::Close),
            "sessions" => {
                let items = v
                    .get("sessions")
                    .and_then(Json::as_arr)
                    .ok_or("missing or non-array `sessions`")?;
                let mut sessions = Vec::with_capacity(items.len());
                for s in items {
                    sessions.push(SessionStat {
                        sid: required_sid(s)?,
                        algorithm: decode_algorithm(s)?,
                        n_shards: uint("shards", s.get("shards"))? as usize,
                        n_tasks: uint("tasks", s.get("tasks"))?,
                        attached: uint("attached", s.get("attached"))?,
                    });
                }
                Ok(Response::Sessions { sessions })
            }
            other => Err(format!("unknown response `{other}`")),
        }
    }
}

/// Whether a frame is an event frame (`"ev"` key) — the server→client
/// demultiplexer: event frames interleave between responses once a
/// connection subscribes.
pub fn is_event_frame(frame: &str) -> bool {
    // Cheap structural probe; the real parse happens in decode_event.
    frame.starts_with("{\"ev\":")
}

/// Appends one event frame and its `\n` delimiter to a batch: exactly
/// the bytes of [`encode_event`] (with [`with_sid`] when `sid` is
/// given). Worker deliveries — nearly every frame of a stream — are
/// laid out straight into `out` with no `String` per event; the rare
/// lifecycle and task frames take the [`encode_event`] route.
pub fn push_event_frame(out: &mut Vec<u8>, event: &StreamEvent, sid: Option<&str>) {
    let StreamEvent::Worker { worker, events } = event else {
        let frame = encode_event(event);
        let frame = match sid {
            Some(sid) => with_sid(frame, sid),
            None => frame,
        };
        out.extend_from_slice(frame.as_bytes());
        out.push(b'\n');
        return;
    };
    out.extend_from_slice(b"{\"ev\":\"worker\",\"worker\":");
    numfmt::push_u64(out, worker.0);
    out.extend_from_slice(b",\"batch\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        match e {
            Event::Assigned {
                task, acc, gain, ..
            } => {
                out.extend_from_slice(b"{\"k\":\"assign\",\"task\":");
                numfmt::push_u64(out, u64::from(task.0));
                out.extend_from_slice(b",\"acc\":\"");
                numfmt::push_hex_f64(out, *acc);
                out.extend_from_slice(b"\",\"gain\":\"");
                numfmt::push_hex_f64(out, *gain);
                out.extend_from_slice(b"\"}");
            }
            Event::TaskCompleted { task, latency } => {
                out.extend_from_slice(b"{\"k\":\"done\",\"task\":");
                numfmt::push_u64(out, u64::from(task.0));
                out.extend_from_slice(b",\"latency\":");
                numfmt::push_u64(out, *latency);
                out.push(b'}');
            }
            Event::WorkerIdle { .. } => out.extend_from_slice(b"{\"k\":\"idle\"}"),
        }
    }
    out.push(b']');
    if let Some(sid) = sid {
        debug_assert!(valid_session_name(sid), "{sid}");
        out.extend_from_slice(b",\"sid\":\"");
        out.extend_from_slice(sid.as_bytes());
        out.push(b'"');
    }
    out.extend_from_slice(b"}\n");
}

/// Serializes one subscription delivery as an event frame (the
/// reference layout [`push_event_frame`] reproduces byte for byte).
pub fn encode_event(event: &StreamEvent) -> String {
    match event {
        StreamEvent::Worker { worker, events } => {
            let mut out = format!("{{\"ev\":\"worker\",\"worker\":{},\"batch\":[", worker.0);
            for (i, e) in events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                match e {
                    Event::Assigned {
                        task, acc, gain, ..
                    } => out.push_str(&format!(
                        "{{\"k\":\"assign\",\"task\":{},\"acc\":\"{}\",\"gain\":\"{}\"}}",
                        task.0,
                        hex(*acc),
                        hex(*gain)
                    )),
                    Event::TaskCompleted { task, latency } => out.push_str(&format!(
                        "{{\"k\":\"done\",\"task\":{},\"latency\":{latency}}}",
                        task.0
                    )),
                    Event::WorkerIdle { .. } => out.push_str("{\"k\":\"idle\"}"),
                }
            }
            out.push_str("]}");
            out
        }
        StreamEvent::TaskPosted { task } => format!("{{\"ev\":\"task\",\"task\":{}}}", task.0),
        StreamEvent::Lifecycle(l) => match l {
            Lifecycle::Drained { workers_seen } => {
                format!("{{\"ev\":\"life\",\"kind\":\"drained\",\"workers\":{workers_seen}}}")
            }
            Lifecycle::ShardStalled { shard, capacity } => format!(
                "{{\"ev\":\"life\",\"kind\":\"stalled\",\"shard\":{shard},\
                 \"capacity\":{capacity}}}"
            ),
            Lifecycle::TaskOutOfRegion { task } => {
                format!("{{\"ev\":\"life\",\"kind\":\"oor\",\"task\":{}}}", task.0)
            }
            Lifecycle::Rebalanced {
                moved_tasks,
                max_load,
                mean_load,
            } => format!(
                "{{\"ev\":\"life\",\"kind\":\"rebalanced\",\"moved\":{moved_tasks},\
                 \"max\":{max_load},\"mean\":\"{}\"}}",
                hex(*mean_load)
            ),
            Lifecycle::Checkpointed { seq } => {
                format!("{{\"ev\":\"life\",\"kind\":\"checkpointed\",\"seq\":{seq}}}")
            }
            Lifecycle::SessionEvicted => "{\"ev\":\"life\",\"kind\":\"evicted\"}".into(),
            Lifecycle::ShuttingDown => "{\"ev\":\"life\",\"kind\":\"bye\"}".into(),
        },
    }
}

/// Parses an event frame back into the typed delivery. Worker
/// deliveries in this crate's own layout take an exact-layout fast
/// path; anything else goes through the generic JSON parser.
pub fn decode_event(frame: &str) -> Result<StreamEvent, WireError> {
    match fast_decode_worker_event(frame) {
        Some(event) => Ok(event),
        None => decode_event_generic(frame),
    }
}

fn decode_event_generic(frame: &str) -> Result<StreamEvent, WireError> {
    let v = json::parse(frame).map_err(|e| e.to_string())?;
    match word("ev", v.get("ev"))? {
        "worker" => {
            let worker = WorkerId(uint("worker", v.get("worker"))?);
            let batch = v
                .get("batch")
                .and_then(Json::as_arr)
                .ok_or("missing or non-array `batch`")?;
            let mut events = Vec::with_capacity(batch.len());
            for e in batch {
                events.push(match word("k", e.get("k"))? {
                    "assign" => Event::Assigned {
                        worker,
                        task: TaskId(uint("task", e.get("task"))? as u32),
                        acc: unhex("acc", e.get("acc"))?,
                        gain: unhex("gain", e.get("gain"))?,
                    },
                    "done" => Event::TaskCompleted {
                        task: TaskId(uint("task", e.get("task"))? as u32),
                        latency: uint("latency", e.get("latency"))?,
                    },
                    "idle" => Event::WorkerIdle { worker },
                    other => return Err(format!("unknown batch entry `{other}`")),
                });
            }
            Ok(StreamEvent::Worker { worker, events })
        }
        "task" => Ok(StreamEvent::TaskPosted {
            task: TaskId(uint("task", v.get("task"))? as u32),
        }),
        "life" => Ok(StreamEvent::Lifecycle(match word("kind", v.get("kind"))? {
            "drained" => Lifecycle::Drained {
                workers_seen: uint("workers", v.get("workers"))?,
            },
            "stalled" => Lifecycle::ShardStalled {
                shard: uint("shard", v.get("shard"))? as usize,
                capacity: uint("capacity", v.get("capacity"))? as usize,
            },
            "oor" => Lifecycle::TaskOutOfRegion {
                task: TaskId(uint("task", v.get("task"))? as u32),
            },
            "rebalanced" => Lifecycle::Rebalanced {
                moved_tasks: uint("moved", v.get("moved"))?,
                max_load: uint("max", v.get("max"))?,
                mean_load: unhex("mean", v.get("mean"))?,
            },
            "checkpointed" => Lifecycle::Checkpointed {
                seq: uint("seq", v.get("seq"))?,
            },
            "evicted" => Lifecycle::SessionEvicted,
            "bye" => Lifecycle::ShuttingDown,
            other => return Err(format!("unknown lifecycle kind `{other}`")),
        })),
        other => Err(format!("unknown event `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltc_core::model::Eligibility;

    #[test]
    fn requests_round_trip() {
        let cases = vec![
            Request::Submit {
                worker: Worker::new(Point::new(1.5, -0.25), 0.875),
                seq: None,
            },
            Request::Submit {
                worker: Worker::new(Point::new(1.5, -0.25), 0.875),
                seq: Some(u64::MAX),
            },
            Request::Post {
                task: Task::new(Point::new(f64::MIN_POSITIVE, 1e300)),
                row: None,
                seq: None,
            },
            Request::Post {
                task: Task::new(Point::new(0.1, 0.2)),
                row: Some(vec![0.9, 0.5 + f64::EPSILON, 0.0]),
                seq: Some(0),
            },
            Request::Subscribe,
            Request::Drain,
            Request::Snapshot,
            Request::Rebalance,
            Request::Metrics,
            Request::Shutdown,
            Request::Open {
                sid: "region-7".into(),
                algorithm: None,
                shards: None,
                region: None,
            },
            Request::Open {
                sid: "a".into(),
                algorithm: Some(Algorithm::Random { seed: 42 }),
                shards: Some(4),
                region: Some(ltc_spatial::BoundingBox::new(
                    Point::new(-1.5, 0.0),
                    Point::new(1e300, 2.25),
                )),
            },
            Request::Attach { sid: "a".into() },
            Request::Close { sid: "a".into() },
            Request::Sessions,
        ];
        for req in cases {
            let frame = req.encode();
            assert_eq!(Request::decode(&frame).unwrap(), req, "{frame}");
        }
    }

    #[test]
    fn sid_rides_any_frame_and_round_trips() {
        let framed = with_sid(Request::Drain.encode(), "s-1");
        assert_eq!(framed, "{\"op\":\"drain\",\"sid\":\"s-1\"}");
        let (req, sid) = Request::decode_with_sid(&framed).unwrap();
        assert_eq!(req, Request::Drain);
        assert_eq!(sid.as_deref(), Some("s-1"));
        // v1 frames carry no sid.
        assert_eq!(
            Request::decode_with_sid(&Request::Drain.encode())
                .unwrap()
                .1,
            None
        );
        // The session verbs surface their target through the same member.
        let (_, sid) = Request::decode_with_sid("{\"op\":\"attach\",\"sid\":\"x\"}").unwrap();
        assert_eq!(sid.as_deref(), Some("x"));
        // Responses and events take the member the same way.
        let ok = with_sid(Response::Drain.encode(), "s-1");
        assert_eq!(ok, "{\"ok\":\"drain\",\"sid\":\"s-1\"}");
        assert_eq!(Response::decode(&ok).unwrap(), Response::Drain);
        let ev = with_sid(
            encode_event(&StreamEvent::TaskPosted { task: TaskId(3) }),
            "s-1",
        );
        assert!(is_event_frame(&ev), "{ev}");
        assert_eq!(
            decode_event(&ev).unwrap(),
            StreamEvent::TaskPosted { task: TaskId(3) }
        );
        // Illegal ids are rejected, not smuggled.
        assert!(Request::decode_with_sid("{\"op\":\"drain\",\"sid\":\"a b\"}").is_err());
        assert!(Request::decode_with_sid("{\"op\":\"attach\",\"sid\":7}").is_err());
        assert!(Request::decode("{\"op\":\"attach\"}").is_err());
        assert!(!valid_session_name(""));
        assert!(!valid_session_name(&"x".repeat(65)));
        assert!(!valid_session_name("a\"b"));
        assert!(valid_session_name("Region_7.east-2"));
    }

    #[test]
    fn responses_round_trip() {
        let info = SessionInfo {
            algorithm: Algorithm::Random { seed: u64::MAX },
            params: ProblemParams {
                epsilon: 0.3,
                capacity: 2,
                d_max: 30.0,
                min_accuracy: 0.66,
                eligibility: Eligibility::WithinRange,
                quality: QualityModel::Hoeffding,
            },
            n_shards: 4,
            n_tasks: 17,
        };
        let info2 = info.clone();
        let info3 = info.clone();
        let info4 = info.clone();
        let cases = vec![
            Response::Hello { info, win: 1 },
            Response::Hello {
                info: info4,
                win: MAX_WINDOW,
            },
            Response::Submit {
                worker: WorkerId(u64::MAX),
                seq: None,
            },
            Response::Submit {
                worker: WorkerId(3),
                seq: Some(17),
            },
            Response::Post {
                task: TaskId(7),
                seq: None,
            },
            Response::Post {
                task: TaskId(7),
                seq: Some(u64::MAX),
            },
            Response::Subscribe,
            Response::Drain,
            Response::Snapshot {
                text: "ltc-snapshot v1\nparams …\nend\n".into(),
            },
            Response::Rebalance { outcome: None },
            Response::Rebalance {
                outcome: Some(RebalanceOutcome {
                    moved_tasks: 9,
                    live_loads: vec![3, 0, 5],
                    stripe_starts: vec![0, 4, 9],
                }),
            },
            Response::Metrics {
                metrics: ServiceMetrics {
                    n_workers_seen: 100,
                    n_assignments: 42,
                    n_tasks: 10,
                    n_completed: 10,
                    clamped_insertions: 3,
                    rebalances: 1,
                    shard_loads: vec![0, 0],
                    latency: Some(97),
                    wal_records: 1234,
                    checkpoints: 5,
                    sessions_open: 3,
                    sessions_evicted: 2,
                },
            },
            Response::Metrics {
                metrics: ServiceMetrics::default(),
            },
            Response::Shutdown,
            Response::Open { info: info2 },
            Response::Attach { info: info3 },
            Response::Close,
            Response::Sessions { sessions: vec![] },
            Response::Sessions {
                sessions: vec![
                    SessionStat {
                        sid: "default".into(),
                        algorithm: Algorithm::Laf,
                        n_shards: 1,
                        n_tasks: 24,
                        attached: 2,
                    },
                    SessionStat {
                        sid: "region-7".into(),
                        algorithm: Algorithm::Random { seed: 9 },
                        n_shards: 4,
                        n_tasks: 0,
                        attached: 0,
                    },
                ],
            },
            Response::Err {
                message: "engine error: task has a non-finite location".into(),
            },
        ];
        for resp in cases {
            let frame = resp.encode();
            assert!(!frame.contains('\n'), "{frame}");
            assert_eq!(Response::decode(&frame).unwrap(), resp, "{frame}");
        }
    }

    /// Every event shape the server emits: each batch-entry kind, mixed
    /// and empty batches, extreme ids and floats, every lifecycle kind.
    fn event_corpus() -> Vec<StreamEvent> {
        let w = WorkerId(3);
        let max = WorkerId(u64::MAX);
        let assigned = |worker: WorkerId, task: u32, acc: f64| Event::Assigned {
            worker,
            task: TaskId(task),
            acc,
            gain: (2.0 * acc - 1.0).powi(2),
        };
        vec![
            StreamEvent::Worker {
                worker: w,
                events: vec![
                    assigned(w, 1, 0.951_234_567_890_123_4),
                    Event::TaskCompleted {
                        task: TaskId(1),
                        latency: 4,
                    },
                ],
            },
            StreamEvent::Worker {
                worker: w,
                events: vec![Event::WorkerIdle { worker: w }],
            },
            StreamEvent::Worker {
                worker: max,
                events: vec![
                    assigned(max, 0, -0.0),
                    assigned(max, u32::MAX, f64::INFINITY),
                    Event::Assigned {
                        worker: max,
                        task: TaskId(9),
                        acc: f64::MIN_POSITIVE / 2.0,
                        gain: f64::MAX,
                    },
                    Event::TaskCompleted {
                        task: TaskId(u32::MAX),
                        latency: u64::MAX,
                    },
                    Event::TaskCompleted {
                        task: TaskId(0),
                        latency: 0,
                    },
                ],
            },
            StreamEvent::Worker {
                worker: WorkerId(0),
                events: Vec::new(),
            },
            StreamEvent::TaskPosted { task: TaskId(0) },
            StreamEvent::Lifecycle(Lifecycle::Drained { workers_seen: 12 }),
            StreamEvent::Lifecycle(Lifecycle::ShardStalled {
                shard: 2,
                capacity: 1024,
            }),
            StreamEvent::Lifecycle(Lifecycle::TaskOutOfRegion { task: TaskId(5) }),
            StreamEvent::Lifecycle(Lifecycle::Rebalanced {
                moved_tasks: 6,
                max_load: 3,
                mean_load: 2.5,
            }),
            StreamEvent::Lifecycle(Lifecycle::Checkpointed { seq: u64::MAX }),
            StreamEvent::Lifecycle(Lifecycle::SessionEvicted),
            StreamEvent::Lifecycle(Lifecycle::ShuttingDown),
        ]
    }

    /// Bit-exact event equality, every field included: `PartialEq` on
    /// `f64` would equate `-0.0` with `0.0` and refuse NaN, so compare
    /// the encodings (float bits) and the `Debug` forms (the per-entry
    /// `worker` the encoding leaves out).
    fn assert_same_event(a: &StreamEvent, b: &StreamEvent, frame: &str) {
        assert_eq!(encode_event(a), encode_event(b), "{frame}");
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "{frame}");
    }

    #[test]
    fn events_round_trip_bit_exactly() {
        for event in event_corpus() {
            let frame = encode_event(&event);
            assert!(is_event_frame(&frame), "{frame}");
            assert_same_event(&decode_event(&frame).unwrap(), &event, &frame);
        }
    }

    #[test]
    fn direct_event_frames_match_encode_event_byte_for_byte() {
        for event in event_corpus() {
            for sid in [None, Some("default"), Some("Region_7.east-2")] {
                let reference = match sid {
                    Some(sid) => with_sid(encode_event(&event), sid),
                    None => encode_event(&event),
                };
                // Appends behind whatever the batch already holds.
                let mut batch = b"{\"ok\":\"drain\"}\n".to_vec();
                let held = batch.len();
                push_event_frame(&mut batch, &event, sid);
                assert_eq!(
                    std::str::from_utf8(&batch[held..]).unwrap(),
                    format!("{reference}\n"),
                    "{event:?}"
                );
            }
        }
    }

    #[test]
    fn metrics_frames_without_durability_fields_still_decode() {
        // A pre-durability v1 peer omits `wal`/`checkpoints`; the
        // compatibility policy (ignore unknown, default absent) makes
        // that a zero, not an error.
        let frame = "{\"ok\":\"metrics\",\"workers\":1,\"assignments\":0,\"tasks\":0,\
                     \"completed\":0,\"clamped\":0,\"rebalances\":0,\"loads\":[0],\
                     \"latency\":null}";
        match Response::decode(frame).unwrap() {
            Response::Metrics { metrics } => {
                assert_eq!(metrics.wal_records, 0);
                assert_eq!(metrics.checkpoints, 0);
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn handshake_frames_validate() {
        assert_eq!(decode_hello(&encode_hello()).unwrap(), PROTO_VERSION);
        assert!(decode_hello("{\"proto\":\"other\",\"v\":1}").is_err());
        assert!(decode_hello("{\"v\":1}").is_err());
        assert!(decode_hello("garbage").is_err());
        // A future version parses (the *server* decides to refuse it).
        assert_eq!(
            decode_hello("{\"proto\":\"ltc-proto\",\"v\":9}").unwrap(),
            9
        );
    }

    #[test]
    fn frame_reader_enforces_the_cap_and_boundaries() {
        let mut ok = io::Cursor::new(b"{\"op\":\"drain\"}\n{\"op\":\"metrics\"}\n".to_vec());
        assert_eq!(
            read_frame(&mut ok).unwrap().as_deref(),
            Some("{\"op\":\"drain\"}")
        );
        assert_eq!(
            read_frame(&mut ok).unwrap().as_deref(),
            Some("{\"op\":\"metrics\"}")
        );
        assert_eq!(read_frame(&mut ok).unwrap(), None);

        let mut truncated = io::Cursor::new(b"{\"op\":\"dra".to_vec());
        assert!(read_frame(&mut truncated).is_err());

        let mut oversized = io::Cursor::new(vec![b'x'; MAX_FRAME + 10]);
        assert!(read_frame(&mut oversized).is_err());

        let mut non_utf8 = io::Cursor::new(vec![0xFF, 0xFE, b'\n']);
        assert!(read_frame(&mut non_utf8).is_err());
    }

    #[test]
    fn malformed_wire_input_errors_cleanly() {
        for frame in [
            "",
            "{}",
            "{\"op\":\"frobnicate\"}",
            "{\"op\":\"submit\",\"x\":\"zz\"}",
            "{\"op\":\"submit\",\"x\":1.5,\"y\":\"0\",\"acc\":\"0\"}",
            "{\"op\":\"post\",\"x\":\"3ff0000000000000\",\"y\":\"3ff0000000000000\",\"row\":3}",
        ] {
            assert!(Request::decode(frame).is_err(), "accepted {frame:?}");
        }
        for frame in [
            "",
            "{}",
            "{\"ok\":\"nope\"}",
            "{\"ok\":\"submit\"}",
            "{\"ok\":\"rebalance\"}",
            "{\"proto\":\"ltc-proto\",\"v\":2,\"info\":{}}",
        ] {
            assert!(Response::decode(frame).is_err(), "accepted {frame:?}");
        }
        for frame in ["{\"ev\":\"worker\"}", "{\"ev\":\"life\",\"kind\":\"??\"}"] {
            assert!(decode_event(frame).is_err(), "accepted {frame:?}");
        }
    }

    #[test]
    fn write_frame_survives_short_writes() {
        /// Takes at most three bytes per call (and so at most three
        /// bytes of the first slice of a vectored write).
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(3);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        for frame in ["", "{}", "{\"op\":\"drain\"}"] {
            let mut trickle = Trickle(Vec::new());
            write_frame(&mut trickle, frame).unwrap();
            assert_eq!(trickle.0, format!("{frame}\n").into_bytes());
            let mut whole = Vec::new();
            write_frame(&mut whole, frame).unwrap();
            assert_eq!(whole, trickle.0);
        }
    }

    #[test]
    fn hex_decoders_keep_their_token_acceptance() {
        // (token, what the fast path's `eat_hex16` reads, what the
        // generic route's `unhex` reads). The fast path takes exactly 16
        // hex digits of either case; `unhex` also takes a `+` in place
        // of the first digit, as `from_str_radix` always has, and a
        // frame the fast path refuses falls through to it.
        let one = 1f64.to_bits();
        for (token, fast, generic) in [
            ("3ff0000000000000", Some(one), Some(one)),
            ("3FF0000000000000", Some(one), Some(one)),
            ("3fF0000000000000", Some(one), Some(one)),
            ("+3f0000000000000", None, Some(0x3f0_0000_0000_0000)),
            ("3ff000000000000", None, None),
            // The fast path consumes 16 digits; the rest of the frame
            // must then match, which a 17th digit never does.
            ("3ff00000000000000", Some(one), None),
            ("0x3ff00000000000", None, None),
            ("-3f0000000000000", None, None),
            ("3ff000000000000g", None, None),
            ("3ff00000 0000000", None, None),
            ("", None, None),
        ] {
            let eaten = eat_hex16(token.as_bytes()).map(|(v, _)| v.to_bits());
            assert_eq!(eaten, fast, "eat_hex16({token:?})");
            let json = Json::Str(token.to_string());
            let parsed = unhex("x", Some(&json)).ok().map(f64::to_bits);
            assert_eq!(parsed, generic, "unhex({token:?})");
        }
        assert_eq!(format!("{}", hex(1.0)), "3ff0000000000000");
        assert_eq!(format!("{}", hex(-0.0)), "8000000000000000");
    }

    #[test]
    fn fast_paths_agree_with_the_generic_parser() {
        // Requests: every hot-frame variant (seq/sid tails, windowed or
        // not) plus near-misses that must fall back — the fast path may
        // only ever accept frames the generic route parses identically.
        let submits = [
            Request::Submit {
                worker: Worker::new(Point::new(325.0, -0.125), 0.83),
                seq: None,
            }
            .encode(),
            Request::Submit {
                worker: Worker::new(Point::new(f64::MIN_POSITIVE, 1e300), 1.0),
                seq: Some(0),
            }
            .encode(),
            with_sid(
                Request::Submit {
                    worker: Worker::new(Point::new(1.5, 2.5), 0.99),
                    seq: Some(u64::MAX),
                }
                .encode(),
                "Region_7.east-2",
            ),
        ];
        for frame in &submits {
            let v = json::parse(frame).unwrap();
            let generic = (
                Request::decode_value(&v).unwrap(),
                frame_sid(&v).unwrap().map(str::to_owned),
            );
            assert_eq!(fast_decode_submit(frame), Some(generic.clone()), "{frame}");
            assert_eq!(Request::decode_with_sid(frame).unwrap(), generic, "{frame}");
        }
        // Foreign-but-valid framings (reordered members, whitespace,
        // uppercase hex) must fall back and still parse.
        for frame in [
            "{\"x\":\"4074400000000000\",\"op\":\"submit\",\"y\":\"4074400000000000\",\"acc\":\"3feA000000000000\"}",
            "{\"op\":\"submit\", \"x\":\"4074400000000000\",\"y\":\"4074400000000000\",\"acc\":\"3fea000000000000\"}",
        ] {
            assert_eq!(fast_decode_submit(frame), None, "{frame}");
            assert!(Request::decode(frame).is_ok(), "{frame}");
        }
        // Acknowledgements, both verbs, all tail combinations.
        let acks = [
            Response::Submit {
                worker: WorkerId(0),
                seq: None,
            }
            .encode(),
            with_sid(
                Response::Submit {
                    worker: WorkerId(u64::MAX),
                    seq: Some(41),
                }
                .encode(),
                "default",
            ),
            Response::Post {
                task: TaskId(7),
                seq: Some(u64::MAX),
            }
            .encode(),
            with_sid(
                Response::Post {
                    task: TaskId(1),
                    seq: None,
                }
                .encode(),
                "s-1",
            ),
        ];
        for frame in &acks {
            let generic = Response::decode_generic(frame).unwrap();
            assert_eq!(fast_decode_ack(frame), Some(generic.clone()), "{frame}");
            assert_eq!(Response::decode(frame).unwrap(), generic, "{frame}");
        }
        // Near-misses fall back to the generic route's verdict.
        for frame in [
            "{\"ok\":\"submit\",\"worker\":007}",
            "{\"ok\":\"submit\",\"worker\":3,\"seq\":-1}",
            "{\"ok\":\"post\",\"task\":3,\"sid\":\"no spaces\"}",
        ] {
            assert_eq!(fast_decode_ack(frame), None, "{frame}");
        }

        // Worker events, every entry kind, with and without a sid: the
        // fast path takes each and agrees with the generic route.
        for event in event_corpus() {
            for sid in [None, Some("default"), Some("Region_7.east-2")] {
                let frame = match sid {
                    Some(sid) => with_sid(encode_event(&event), sid),
                    None => encode_event(&event),
                };
                let fast = fast_decode_worker_event(&frame);
                if !matches!(event, StreamEvent::Worker { .. }) {
                    assert!(fast.is_none(), "{frame}");
                    continue;
                }
                let fast = fast.unwrap_or_else(|| panic!("fast path refused {frame}"));
                assert_same_event(&fast, &decode_event_generic(&frame).unwrap(), &frame);
                assert_same_event(&fast, &event, &frame);
            }
        }
        // Layouts the fast path accepts that the encoder never emits:
        // task ids above `u32::MAX` (truncated `as u32` like the generic
        // route) and hex digits of either case.
        for frame in [
            "{\"ev\":\"worker\",\"worker\":3,\"batch\":[{\"k\":\"assign\",\"task\":4294967301,\"acc\":\"3fe0000000000000\",\"gain\":\"3fd0000000000000\"}]}",
            "{\"ev\":\"worker\",\"worker\":3,\"batch\":[{\"k\":\"done\",\"task\":18446744073709551615,\"latency\":2}]}",
            "{\"ev\":\"worker\",\"worker\":3,\"batch\":[{\"k\":\"assign\",\"task\":1,\"acc\":\"3FE0000000000000\",\"gain\":\"3fD00000000000aB\"}],\"sid\":\"s-1\"}",
        ] {
            let fast = fast_decode_worker_event(frame)
                .unwrap_or_else(|| panic!("fast path refused {frame}"));
            assert_same_event(&fast, &decode_event_generic(frame).unwrap(), frame);
        }
        // Near-misses the fast path must refuse, leaving the verdict —
        // success or error — to the generic route.
        let idle = "{\"k\":\"idle\"}";
        for frame in [
            format!("{{\"ev\":\"worker\",\"worker\":07,\"batch\":[{idle}]}}"),
            format!("{{\"ev\":\"worker\",\"worker\":18446744073709551616,\"batch\":[{idle}]}}"),
            format!("{{\"ev\":\"worker\",\"worker\":-3,\"batch\":[{idle}]}}"),
            format!("{{\"ev\":\"worker\", \"worker\":3,\"batch\":[{idle}]}}"),
            format!("{{\"ev\":\"worker\",\"worker\":3,\"batch\":[{idle},]}}"),
            format!("{{\"ev\":\"worker\",\"worker\":3,\"batch\":[{idle}]}}}}"),
            format!("{{\"ev\":\"worker\",\"worker\":3,\"batch\":[{idle}],\"sid\":\"no spaces\"}}"),
            format!("{{\"ev\":\"worker\",\"worker\":3,\"batch\":[{idle}],\"extra\":1}}"),
            "{\"ev\":\"worker\",\"worker\":3,\"batch\":[{\"k\":\"done\",\"task\":00,\"latency\":2}]}".into(),
            "{\"ev\":\"worker\",\"worker\":3,\"batch\":[{\"k\":\"done\",\"task\":1,\"latency\":01}]}".into(),
            "{\"ev\":\"worker\",\"worker\":3,\"batch\":[{\"k\":\"done\",\"latency\":2,\"task\":1}]}".into(),
            "{\"ev\":\"worker\",\"worker\":3,\"batch\":[{\"k\":\"assign\",\"task\":1,\"acc\":\"+fe0000000000000\",\"gain\":\"3fd0000000000000\"}]}".into(),
            "{\"ev\":\"worker\",\"worker\":3,\"batch\":[{\"k\":\"assign\",\"task\":1,\"acc\":\"3fe000000000000\",\"gain\":\"3fd0000000000000\"}]}".into(),
            "{\"ev\":\"worker\",\"worker\":3,\"batch\":[{\"k\":\"assign\",\"task\":1,\"acc\":\"3fe0000000000000\",\"gain\":\"3fd0000000000000\",\"x\":0}]}".into(),
            "{\"ev\":\"worker\",\"worker\":3,\"batch\":[{\"k\":\"oops\"}]}".into(),
            "{\"ev\":\"worker\",\"worker\":3,\"batch\":[{\"k\":\"idle\"}".into(),
        ] {
            assert!(fast_decode_worker_event(&frame).is_none(), "{frame}");
            match (decode_event(&frame), decode_event_generic(&frame)) {
                (Ok(a), Ok(b)) => assert_same_event(&a, &b, &frame),
                (Err(a), Err(b)) => assert_eq!(a, b, "{frame}"),
                (a, b) => panic!("{frame}: {a:?} vs {b:?}"),
            }
        }
    }

    /// xorshift64* — a deterministic corpus generator, so every fuzz
    /// failure below reproduces from the constant seed in the test
    /// (printed in the assertion) without an RNG dev-dependency.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    /// Every decoder entry point the server or client feeds untrusted
    /// bytes into. Returning `Err` is fine; panicking or wedging is the
    /// failure mode under test.
    fn exercise_decoders(frame: &str) {
        let _ = Request::decode(frame);
        let _ = Request::decode_with_sid(frame);
        let _ = Response::decode(frame);
        let _ = decode_event(frame);
        let _ = decode_hello(frame);
        let _ = is_event_frame(frame);
        // Whatever hostile frame the worker-event fast path accepts, the
        // generic route must decode to the same event.
        if let Some(fast) = fast_decode_worker_event(frame) {
            let generic = decode_event_generic(frame)
                .unwrap_or_else(|e| panic!("fast path accepted {frame:?}, generic refused: {e}"));
            assert_same_event(&fast, &generic, frame);
        }
    }

    #[test]
    fn fuzz_random_bytes_never_panic_reader_or_decoders() {
        // Hostile-input sweep: raw random bytes through the frame reader
        // (arbitrary split points, missing delimiters, non-UTF-8), and
        // random printable JSON-ish garbage through every decoder. The
        // generator is seeded, so `iter` in a failure message pins the
        // exact offending input.
        let mut rng = XorShift(0x1CDE_2018_0000_0001);
        const JSONISH: &[u8] = br#"{}[]":,.-0123456789aeflnopqrstuvx\ "#;
        for iter in 0..4096u32 {
            let len = (rng.next() % 160) as usize;
            let raw: Vec<u8> = (0..len).map(|_| (rng.next() >> 32) as u8).collect();
            let mut cursor = io::Cursor::new(raw.clone());
            while let Ok(Some(_)) = read_frame(&mut cursor) {}
            let jsonish: String = (0..len)
                .map(|_| JSONISH[(rng.next() as usize) % JSONISH.len()] as char)
                .collect();
            exercise_decoders(&jsonish);
            exercise_decoders(&String::from_utf8_lossy(&raw));
            debug_assert!(len < 160, "iter {iter}: corpus length out of bounds");
        }
    }

    #[test]
    fn fuzz_truncations_and_mutations_of_valid_frames_error_cleanly() {
        // Every prefix and a spray of single-byte corruptions of real
        // frames (windowed submits included) must decode to a clean
        // error or a different valid value — never a panic. Truncated
        // frames fed to the reader without their delimiter must surface
        // the mid-frame error, not hang or fabricate a frame.
        let corpus: Vec<String> = vec![
            Request::Submit {
                worker: Worker::new(Point::new(13.25, -4.5), 0.875),
                seq: Some(41),
            }
            .encode(),
            with_sid(
                Request::Post {
                    task: Task::new(Point::new(0.5, 99.0)),
                    row: Some(vec![0.25, 1.0]),
                    seq: Some(u64::MAX),
                }
                .encode(),
                "sess-9",
            ),
            encode_hello_v2(),
            Response::Submit {
                worker: WorkerId(7),
                seq: Some(7),
            }
            .encode(),
            Response::Err {
                message: "over capacity".into(),
            }
            .encode(),
            encode_event(&StreamEvent::Lifecycle(Lifecycle::SessionEvicted)),
        ];
        // Event frames as a hostile `v2` server would send them: every
        // worker-event shape, sid-tagged.
        let corpus: Vec<String> = corpus
            .into_iter()
            .chain(event_corpus().iter().map(|event| {
                let mut frame = Vec::new();
                push_event_frame(&mut frame, event, Some("sess-9"));
                frame.pop();
                String::from_utf8(frame).unwrap()
            }))
            .collect();
        let mut rng = XorShift(0x1CDE_2018_0000_0002);
        for frame in &corpus {
            for cut in 0..frame.len() {
                exercise_decoders(&frame[..cut]);
                if cut > 0 {
                    let mut truncated = io::Cursor::new(frame.as_bytes()[..cut].to_vec());
                    let err = read_frame(&mut truncated)
                        .expect_err("a frame cut before its delimiter must error");
                    assert!(err.to_string().contains("mid-frame"), "{err}");
                }
            }
            for _ in 0..256 {
                let mut bytes = frame.clone().into_bytes();
                let at = (rng.next() as usize) % bytes.len();
                bytes[at] = (rng.next() >> 32) as u8;
                exercise_decoders(&String::from_utf8_lossy(&bytes));
            }
        }
    }

    #[test]
    fn hostile_sids_and_seqs_are_refused() {
        // Malformed session ids: wrong type, empty, over-long, or
        // containing bytes outside the sid alphabet — all refused by the
        // sid layer before any verb dispatch.
        let long = format!("{{\"op\":\"drain\",\"sid\":\"{}\"}}", "a".repeat(65));
        for frame in [
            "{\"op\":\"drain\",\"sid\":5}",
            "{\"op\":\"drain\",\"sid\":\"\"}",
            "{\"op\":\"drain\",\"sid\":\"no spaces\"}",
            "{\"op\":\"drain\",\"sid\":\"semi;colon\"}",
            "{\"op\":\"attach\"}",
            long.as_str(),
        ] {
            assert!(Request::decode_with_sid(frame).is_err(), "accepted {frame}");
        }
        // Hostile `"seq"` members: anything but a JSON unsigned integer
        // is refused on both directions of the wire (a float, string, or
        // negative seq could silently desynchronize a window).
        for seq in ["-1", "1.5", "\"7\"", "null", "18446744073709551616"] {
            let request = format!(
                "{{\"op\":\"submit\",\"x\":\"{x}\",\"y\":\"{x}\",\"acc\":\"{x}\",\"seq\":{seq}}}",
                x = hex(1.0)
            );
            assert!(Request::decode(&request).is_err(), "accepted {request}");
            let response = format!("{{\"ok\":\"submit\",\"worker\":3,\"seq\":{seq}}}");
            assert!(Response::decode(&response).is_err(), "accepted {response}");
        }
        // The window advertisement is equally guarded: present but
        // malformed is a refused hello, not a silent lockstep fallback.
        let info = SessionInfo {
            algorithm: Algorithm::Laf,
            params: ProblemParams::builder().build().unwrap(),
            n_shards: 1,
            n_tasks: 0,
        };
        let hello = encode_hello_response_v2(&info, MAX_WINDOW);
        assert!(matches!(
            Response::decode(&hello).unwrap(),
            Response::Hello { win, .. } if win == MAX_WINDOW
        ));
        let garbled = hello.replace(&format!("\"win\":{MAX_WINDOW}"), "\"win\":\"lots\"");
        assert_ne!(garbled, hello);
        let err = Response::decode(&garbled).expect_err("a non-integer `win` must be refused");
        assert!(err.contains("win"), "{err}");
    }
}
