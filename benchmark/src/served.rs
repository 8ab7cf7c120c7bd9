//! Served measurements: a real `ltc serve` child process driven by one
//! `ltc-proto v2` client, plus `ltc recover` / `ltc resume` timed as
//! child processes.
// ltc-lint: discipline(none) — a benchmark: reading the wall clock is
// what it is for, and nothing here is replayed.

use crate::gen::{Op, Workload};
use crate::inproc::newest_checkpoint_bytes;
use crate::pass::{Chunker, Pass, RecoveryReport, Stopwatch, Timed, RECOVER_REPS};
use crate::procfs::ProcStats;
use crate::stats::us;
use crate::trace::Tracer;
use ltc_core::model::Worker;
use ltc_core::service::{Event, EventStream, Session, StreamEvent, WindowAck};
use ltc_proto::wire::{self, Request, Response};
use ltc_proto::LtcClient;
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The submission window of the windowed client.
pub const WINDOW: usize = 256;

/// How long any single wait on the server may take before the pass is
/// declared wedged.
const WAIT: Duration = Duration::from_secs(60);

/// How the client drives the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One request at a time; each check-in waits for its own event.
    Lockstep,
    /// Up to [`WINDOW`] frames in flight (closed loop at saturation).
    Windowed,
}

/// What a served pass needs to know about its surroundings.
#[derive(Debug)]
pub struct ServeEnv<'a> {
    pub ltc: &'a Path,
    pub workload: Workload,
    /// The dataset `ltc serve --input` loads.
    pub dataset: PathBuf,
    /// Tasks in the dataset.
    pub n_tasks: u64,
    /// Scratch space for WAL directories and snapshot files.
    pub tmp: &'a Path,
}

const PR_SET_PDEATHSIG: std::ffi::c_int = 1;
const SIGKILL: std::ffi::c_ulong = 9;

extern "C" {
    fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
}

/// A running `ltc serve` child. Dropping it kills and reaps the
/// process, and the kernel kills it if the benchmark dies first, so no
/// failure path leaves an orphan server behind.
#[derive(Debug)]
struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    /// Spawns the server and waits for its banner line; returns it with
    /// the spawn-to-banner time.
    fn spawn(env: &ServeEnv, wal: Option<&Path>) -> Result<(Self, Timed), String> {
        let mut cmd = Command::new(env.ltc);
        cmd.arg("serve")
            .arg("--input")
            .arg(&env.dataset)
            .arg("--algo")
            .arg(env.workload.algorithm().name().to_ascii_lowercase())
            .arg("--addr")
            .arg("127.0.0.1:0");
        if let Some(dir) = wal {
            cmd.arg("--wal").arg(dir);
        }
        // SAFETY: `prctl` is async-signal-safe and touches no memory of
        // the forked child; it asks the kernel to SIGKILL the server if
        // this process dies first (even by a signal that skips `Drop`).
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL) == 0 {
                    Ok(())
                } else {
                    Err(std::io::Error::last_os_error())
                }
            });
        }
        let watch = Stopwatch::start();
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", env.ltc.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = Server {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut banner = String::new();
        server
            .stdout
            .read_line(&mut banner)
            .map_err(|e| format!("reading the serve banner: {e}"))?;
        let setup = watch.stop();
        server.addr = json_str(&banner, "addr")
            .ok_or_else(|| format!("`ltc serve` printed no address: {banner:?}"))?;
        Ok((server, setup))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// SIGKILL, then reap.
    fn kill(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }

    /// Waits for a server that was asked to shut down to exit cleanly.
    fn wait_exit(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + WAIT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("`ltc serve` exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("`ltc serve` did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for `ltc serve`: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// The string value of `"key":"…"` in a flat JSON line.
fn json_str(line: &str, key: &str) -> Option<String> {
    let start = line.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let len = line[start..].find('"')?;
    Some(line[start..start + len].to_string())
}

/// The integer value of `"key":N` in a flat JSON line.
fn json_u64(line: &str, key: &str) -> Option<u64> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = line[start..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Runs an `ltc` subcommand to completion; returns its wall time and
/// standard output.
fn run_ltc(ltc: &Path, args: &[&std::ffi::OsStr]) -> Result<(Timed, String), String> {
    let watch = Stopwatch::start();
    let out = Command::new(ltc)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", ltc.display()))?;
    let timed = watch.stop();
    if !out.status.success() {
        return Err(format!(
            "`ltc {:?}` failed ({}): {}",
            args,
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok((timed, String::from_utf8_lossy(&out.stdout).into_owned()))
}

/// Worker events as they arrive: read inline in lockstep, or stamped on
/// arrival by a consumer thread while the windowed client keeps firing.
enum Arrivals {
    Inline(EventStream),
    Stamped {
        rx: Receiver<(u64, Instant, u64)>,
        join: JoinHandle<()>,
    },
}

/// Counts completions and records arrival times of worker events.
struct Waiter {
    arrivals: Arrivals,
    completed: u64,
    /// `(worker id, arrival)` of every stamped event consumed.
    stamped: Vec<(u64, Instant)>,
}

fn completions(events: &[Event]) -> u64 {
    events
        .iter()
        .filter(|e| matches!(e, Event::TaskCompleted { .. }))
        .count() as u64
}

impl Waiter {
    fn new(stream: EventStream, mode: Mode) -> Self {
        let arrivals = match mode {
            Mode::Lockstep => Arrivals::Inline(stream),
            Mode::Windowed => {
                let (tx, rx) = mpsc::channel();
                let join = std::thread::spawn(move || {
                    while let Some(delivery) = stream.next_event() {
                        let now = Instant::now();
                        if let StreamEvent::Worker { worker, events } = delivery {
                            if tx.send((worker.0, now, completions(&events))).is_err() {
                                break;
                            }
                        }
                    }
                });
                Arrivals::Stamped { rx, join }
            }
        };
        Self {
            arrivals,
            completed: 0,
            stamped: Vec::new(),
        }
    }

    /// Consumes worker events up to and including worker `id`'s.
    fn wait_worker(&mut self, id: u64) -> Result<(), String> {
        loop {
            let (worker, done) = match &self.arrivals {
                Arrivals::Inline(stream) => match stream.next_timeout(WAIT) {
                    Some(StreamEvent::Worker { worker, events }) => {
                        (worker.0, completions(&events))
                    }
                    Some(_) => continue,
                    None => return Err("the event stream stalled".into()),
                },
                Arrivals::Stamped { rx, .. } => {
                    let (worker, at, done) = rx
                        .recv_timeout(WAIT)
                        .map_err(|_| "the event stream stalled".to_string())?;
                    self.stamped.push((worker, at));
                    (worker, done)
                }
            };
            self.completed += done;
            if worker == id {
                return Ok(());
            }
        }
    }

    /// Joins the consumer thread (its stream ends once the client that
    /// fed it is dropped).
    fn finish(self) {
        if let Arrivals::Stamped { rx, join } = self.arrivals {
            drop(rx);
            join.join().ok();
        }
    }
}

/// Fetches the session's snapshot text exactly as the server encodes
/// it, over a second connection.
///
/// `LtcClient::snapshot` is not used: its JSON string decoder
/// re-validates the rest of the frame for every character, which is
/// quadratic in the snapshot size (tens of seconds at a few MB). This
/// reads the frame with the wire module and unescapes it linearly.
fn fetch_snapshot(addr: &str) -> Result<Vec<u8>, String> {
    let io = |e: std::io::Error| format!("snapshot fetch: {e}");
    let stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
    wire::write_frame(&mut &stream, &wire::encode_hello_v2()).map_err(io)?;
    let hello = wire::read_frame(&mut reader)
        .map_err(io)?
        .unwrap_or_default();
    if !matches!(Response::decode(&hello), Ok(Response::Hello { .. })) {
        return Err(format!("snapshot fetch: bad handshake {hello:?}"));
    }
    let request = wire::with_sid(Request::Snapshot.encode(), wire::DEFAULT_SESSION);
    wire::write_frame(&mut &stream, &request).map_err(io)?;
    let frame = wire::read_frame(&mut reader)
        .map_err(io)?
        .ok_or("snapshot fetch: the server closed the connection")?;
    stream.shutdown(std::net::Shutdown::Both).ok();
    unescape_field(&frame, "data").ok_or_else(|| {
        let head: String = frame.chars().take(200).collect();
        format!("snapshot fetch: unexpected response {head:?}")
    })
}

/// Linearly unescapes the JSON string value of `"key":"…"` (the escapes
/// `json::push_escaped` emits).
fn unescape_field(frame: &str, key: &str) -> Option<Vec<u8>> {
    let start = frame.find(&format!("\"{key}\":\""))? + key.len() + 4;
    let bytes = frame.as_bytes();
    let mut out = Vec::with_capacity(frame.len() - start);
    let mut i = start;
    loop {
        match *bytes.get(i)? {
            b'"' => return Some(out),
            b'\\' => {
                let c = match *bytes.get(i + 1)? {
                    b'"' => b'"',
                    b'\\' => b'\\',
                    b'/' => b'/',
                    b'n' => b'\n',
                    b'r' => b'\r',
                    b't' => b'\t',
                    b'u' => {
                        let hex = frame.get(i + 2..i + 6)?;
                        let c = u8::try_from(u32::from_str_radix(hex, 16).ok()?).ok()?;
                        i += 4;
                        c
                    }
                    _ => return None,
                };
                out.push(c);
                i += 2;
            }
            c => {
                out.push(c);
                i += 1;
            }
        }
    }
}

fn proto_err(what: &str) -> impl Fn(ltc_core::service::ServiceError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// One served pass over `ops`. With `drain` given it is a full pass: the
/// drain check-ins run until every task completes, the state is
/// snapshotted, and the server is killed (`--wal`) or shut down, then
/// recovered with `ltc recover` or `ltc resume` and compared byte for
/// byte. Without `drain` it is a probe: the timed phase only.
pub fn served_pass(
    env: &ServeEnv,
    ops: &[Op],
    drain: Option<&[Worker]>,
    mode: Mode,
    mut tracer: Option<&mut Tracer>,
    tag: &str,
) -> Result<Pass, String> {
    let wal = env
        .workload
        .durable()
        .then(|| env.tmp.join(format!("wal-{tag}")));
    let (mut server, setup) = Server::spawn(env, wal.as_deref())?;
    let mut pass = Pass {
        setup,
        ..Pass::default()
    };
    let mut client = LtcClient::connect_v2(server.addr.as_str()).map_err(proto_err("connect"))?;
    let stream = client.subscribe().map_err(proto_err("subscribe"))?;
    if mode == Mode::Windowed {
        let granted = client.set_window(WINDOW).map_err(proto_err("set_window"))?;
        if granted != WINDOW {
            return Err(format!(
                "the server granted a window of {granted}, not {WINDOW}"
            ));
        }
    }
    let mut waiter = Waiter::new(stream, mode);
    let pid = server.pid();

    // Timed phase.
    let n_checkins = ops.iter().filter(|o| matches!(o, Op::CheckIn(_))).count();
    pass.checkin_us.reserve(n_checkins);
    let mut sent: Vec<Instant> = Vec::with_capacity(n_checkins);
    let mut pending: std::collections::VecDeque<(bool, Instant)> = Default::default();
    let mut next_worker = 0u64;
    let mut next_task = env.n_tasks;
    let settle = |ack: WindowAck,
                  at: Instant,
                  pending: &mut std::collections::VecDeque<(bool, Instant)>,
                  pass: &mut Pass|
     -> Result<(), String> {
        let (is_checkin, t0) = pending.pop_front().ok_or("an ack nobody waited for")?;
        match (is_checkin, ack) {
            (true, WindowAck::Worker(_)) => Ok(()),
            (false, WindowAck::Task(_)) => {
                pass.post_us.push(us(at - t0));
                Ok(())
            }
            _ => Err("a window ack of the wrong kind".into()),
        }
    };
    let host0 = ProcStats::read(&pid)?;
    let start = Instant::now();
    let mut half = start;
    let mut chunker = Chunker::start();
    for (i, op) in ops.iter().enumerate() {
        if i == ops.len() / 2 {
            half = Instant::now();
        }
        pass.attempted += 1;
        match (mode, op) {
            (Mode::Lockstep, Op::CheckIn(w)) => {
                let t0;
                let id;
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.next_op();
                    tr.enter("serve.checkin");
                    t0 = Instant::now();
                    id = client.submit_worker(w).map_err(proto_err("submit"))?;
                    let t1 = Instant::now();
                    tr.record("proto.submit", t0, t1);
                    waiter.wait_worker(id.0)?;
                    tr.record("proto.ack_to_event", t1, Instant::now());
                    pass.checkin_us.push(us(tr.exit()));
                } else {
                    t0 = Instant::now();
                    id = client.submit_worker(w).map_err(proto_err("submit"))?;
                    waiter.wait_worker(id.0)?;
                    pass.checkin_us.push(us(t0.elapsed()));
                }
                if id.0 != next_worker {
                    return Err(format!("worker id {} where {next_worker} was due", id.0));
                }
                next_worker += 1;
            }
            (Mode::Lockstep, Op::Post(t)) => {
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.next_op();
                    tr.enter("proto.post");
                }
                let t0 = Instant::now();
                let id = client.post_task(*t).map_err(proto_err("post"))?;
                pass.post_us.push(us(t0.elapsed()));
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.exit();
                }
                if u64::from(id.0) != next_task {
                    return Err(format!("task id {} where {next_task} was due", id.0));
                }
                next_task += 1;
            }
            (Mode::Windowed, op) => {
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.next_op();
                    tr.enter("proto.window_call");
                }
                let t0 = Instant::now();
                let acked = match op {
                    Op::CheckIn(w) => {
                        sent.push(t0);
                        next_worker += 1;
                        client.submit_worker_windowed(w)
                    }
                    Op::Post(t) => {
                        next_task += 1;
                        client.post_task_windowed(*t)
                    }
                }
                .map_err(proto_err("windowed submit"))?;
                let t1 = Instant::now();
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.exit();
                }
                if let Some(ack) = acked {
                    pass.window_stall_ms.push((t1 - t0).as_secs_f64() * 1e3);
                    settle(ack, t1, &mut pending, &mut pass)?;
                }
                pending.push_back((matches!(op, Op::CheckIn(_)), t0));
            }
        }
        chunker.tick(&mut pass, next_worker as usize);
    }
    if mode == Mode::Windowed {
        let acks = client.flush_window().map_err(proto_err("flush"))?;
        let at = Instant::now();
        for ack in acks {
            settle(ack, at, &mut pending, &mut pass)?;
        }
    }
    let end = Instant::now();
    chunker.finish(&mut pass, next_worker as usize);
    pass.timed_s = (end - start).as_secs_f64();
    pass.half_ratio = (end - half).as_secs_f64() / (half - start).as_secs_f64();
    pass.events = ops.len() as u64;
    pass.host = Some(ProcStats::read(&pid)?.since(&host0));

    if mode == Mode::Windowed {
        // Every timed check-in's event, stamped on arrival.
        if next_worker > 0 {
            waiter.wait_worker(next_worker - 1)?;
        }
        for &(worker, at) in &waiter.stamped {
            let t0 = sent
                .get(worker as usize)
                .ok_or("an event for a worker never submitted")?;
            pass.checkin_us.push(us(at - *t0));
        }
        client.set_window(1).map_err(proto_err("set_window"))?;
    }

    let Some(drain) = drain else {
        client.shutdown().map_err(proto_err("shutdown"))?;
        drop(client);
        waiter.finish();
        server.wait_exit()?;
        return Ok(pass);
    };

    // Drain: lockstep check-ins until every task is complete.
    let total_tasks = next_task;
    let mut drain = drain.iter();
    while waiter.completed < total_tasks {
        let w = drain
            .next()
            .ok_or("the drain stream ran out before every task completed")?;
        let id = client.submit_worker(w).map_err(proto_err("drain submit"))?;
        waiter.wait_worker(id.0)?;
        next_worker += 1;
    }
    pass.workers_to_complete = next_worker;
    let metrics = client.metrics().map_err(proto_err("metrics"))?;
    if metrics.n_workers_seen != next_worker
        || metrics.n_tasks != total_tasks
        || metrics.n_completed != total_tasks
    {
        return Err(format!(
            "server metrics disagree with the client's count: {metrics:?} vs \
             {next_worker} workers, {total_tasks} tasks"
        ));
    }
    pass.assignments = metrics.n_assignments;
    let expected = fetch_snapshot(&server.addr)?;
    pass.peak_mem_mb = ProcStats::read(&pid)?.vm_hwm_kb as f64 / 1024.0;

    match &wal {
        Some(dir) => {
            server.kill();
            drop(client);
            waiter.finish();
            pass.recovery = Some(recover_reps(env, dir, &expected, tag, &mut pass.recover)?);
            std::fs::remove_dir_all(dir).ok();
        }
        None => {
            client.shutdown().map_err(proto_err("shutdown"))?;
            drop(client);
            waiter.finish();
            server.wait_exit()?;
            resume_reps(env, &expected, tag, &mut pass.recover)?;
        }
    }
    Ok(pass)
}

/// Checks a recovered snapshot file against the text fetched over the
/// wire before the server went away, then removes it.
fn compare_recovered(path: &Path, expected: &[u8], how: &str) -> Result<(), String> {
    let got = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    std::fs::remove_file(path).ok();
    if got != expected {
        return Err(format!(
            "correctness gate: the snapshot {how} ({} bytes) differs from the one \
             fetched over the wire ({} bytes)",
            got.len(),
            expected.len()
        ));
    }
    Ok(())
}

/// Times `ltc recover` [`RECOVER_REPS`] times, each on a fresh copy of
/// the killed server's WAL directory (recovery checkpoints and compacts
/// the directory it ran on, so a second run would replay nothing).
fn recover_reps(
    env: &ServeEnv,
    dir: &Path,
    expected: &[u8],
    tag: &str,
    times: &mut Vec<Timed>,
) -> Result<RecoveryReport, String> {
    let checkpoint_bytes = newest_checkpoint_bytes(dir)?;
    let mut report = None;
    for rep in 0..RECOVER_REPS {
        let copy = env.tmp.join(format!("wal-{tag}-r{rep}"));
        copy_dir(dir, &copy)?;
        let out = env.tmp.join(format!("recovered-{tag}.ltc"));
        let (t, summary) = run_ltc(
            env.ltc,
            &[
                "recover".as_ref(),
                "--wal".as_ref(),
                copy.as_os_str(),
                "--snapshot-out".as_ref(),
                out.as_os_str(),
            ],
        )?;
        times.push(t);
        std::fs::remove_dir_all(&copy).ok();
        compare_recovered(&out, expected, "`ltc recover` rebuilt")?;
        let this = RecoveryReport {
            replayed: json_u64(&summary, "replayed").ok_or("no `replayed` in the summary")?,
            checkpoint_bytes,
            wal_records: json_u64(&summary, "next_seq").ok_or("no `next_seq` in the summary")?,
        };
        if report.is_some_and(|r| r != this) {
            return Err("two recoveries of one WAL directory disagree".into());
        }
        report = Some(this);
    }
    report.ok_or_else(|| "no recovery ran".into())
}

/// Times `ltc resume` from the saved snapshot [`RECOVER_REPS`] times.
fn resume_reps(
    env: &ServeEnv,
    expected: &[u8],
    tag: &str,
    times: &mut Vec<Timed>,
) -> Result<(), String> {
    let saved = env.tmp.join(format!("saved-{tag}.ltc"));
    let empty = env.tmp.join("no-checkins.tsv");
    std::fs::write(&saved, expected).map_err(|e| e.to_string())?;
    std::fs::write(&empty, "").map_err(|e| e.to_string())?;
    for _ in 0..RECOVER_REPS {
        let out = env.tmp.join(format!("recovered-{tag}.ltc"));
        let (t, _) = run_ltc(
            env.ltc,
            &[
                "resume".as_ref(),
                "--snapshot".as_ref(),
                saved.as_os_str(),
                "--checkins".as_ref(),
                empty.as_os_str(),
                "--snapshot-out".as_ref(),
                out.as_os_str(),
            ],
        )?;
        times.push(t);
        compare_recovered(&out, expected, "`ltc resume` restored")?;
    }
    std::fs::remove_file(&saved).ok();
    Ok(())
}

/// Copies the regular files of `from` into a new directory `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// One served set-up alone: spawn until the banner, then kill. Returns
/// the spawn-to-banner time.
pub fn served_setup(env: &ServeEnv, tag: &str) -> Result<Timed, String> {
    let wal = env
        .workload
        .durable()
        .then(|| env.tmp.join(format!("wal-{tag}")));
    let (mut server, setup) = Server::spawn(env, wal.as_deref())?;
    server.kill();
    if let Some(dir) = wal {
        std::fs::remove_dir_all(dir).ok();
    }
    Ok(setup)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_json_fields() {
        let line = r#"{"serve":true,"addr":"127.0.0.1:4242","algo":"laf","replayed":17}"#;
        assert_eq!(json_str(line, "addr").as_deref(), Some("127.0.0.1:4242"));
        assert_eq!(json_u64(line, "replayed"), Some(17));
        assert_eq!(json_u64(line, "missing"), None);
    }

    #[test]
    fn unescapes_what_the_wire_escapes() {
        let text = "ltc-snapshot v1\nparams\t\"q\" \\ \u{1}end\n";
        let frame = Response::Snapshot { text: text.into() }.encode();
        assert_eq!(unescape_field(&frame, "data").unwrap(), text.as_bytes());
        assert_eq!(unescape_field("{\"ok\":1}", "data"), None);
    }
}
