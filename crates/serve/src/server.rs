//! The daemon: socket listeners and per-connection protocol handling.
//!
//! `serve` binds a Unix socket (the default; filesystem permissions
//! are the access control) or a TCP address, accepts connections, and
//! speaks the JSON-lines protocol from [`crate::protocol`]. Each
//! connection gets its own thread; malformed, oversized, or unknown
//! requests produce structured error lines and the connection (and
//! daemon) keep serving. A `shutdown` request drains the scheduler —
//! running jobs stop at their next batch boundary with resumable
//! checkpoints — and then stops the accept loop.

use std::io::{self, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cirfix_telemetry::{Event, JsonValue};

use crate::protocol::{
    err_line, ok_line, parse_request, read_frame, Frame, Request, WireError, MAX_LINE_BYTES,
};
use crate::scheduler::{Scheduler, ServeOpts};

/// Where the daemon listens (and clients connect).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeAddr {
    /// A Unix domain socket at this path.
    Unix(PathBuf),
    /// A TCP listen address like `127.0.0.1:7411`.
    Tcp(String),
}

impl ServeAddr {
    /// Parses an address argument: `tcp:HOST:PORT` for TCP, anything
    /// else is a Unix socket path.
    pub fn parse(s: &str) -> ServeAddr {
        match s.strip_prefix("tcp:") {
            Some(addr) => ServeAddr::Tcp(addr.to_string()),
            None => ServeAddr::Unix(PathBuf::from(s)),
        }
    }
}

impl std::fmt::Display for ServeAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeAddr::Unix(p) => write!(f, "{}", p.display()),
            ServeAddr::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

enum Listener {
    Unix(UnixListener),
    Tcp(TcpListener),
}

enum Stream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    /// Closes both directions, waking any thread blocked on a read.
    fn force_close(&self) {
        let _ = match self {
            Stream::Unix(s) => s.shutdown(Shutdown::Both),
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// Runs the daemon: binds `addr`, recovers and schedules jobs from the
/// store in `opts`, and serves until a `shutdown` request arrives.
/// Returns after the scheduler has drained (all running jobs stopped
/// at a batch boundary and checkpointed).
///
/// # Errors
///
/// Bind/accept failures, and scheduler startup failures.
pub fn serve(addr: &ServeAddr, opts: ServeOpts) -> io::Result<()> {
    let scheduler = Arc::new(Scheduler::new(opts)?);
    let listener = match addr {
        ServeAddr::Unix(path) => {
            // A previous daemon that was SIGKILLed leaves its socket
            // file behind; rebinding over it is the recovery path.
            if path.exists() {
                std::fs::remove_file(path)?;
            }
            let l = UnixListener::bind(path)?;
            l.set_nonblocking(true)?;
            Listener::Unix(l)
        }
        ServeAddr::Tcp(spec) => {
            let l = TcpListener::bind(spec)?;
            l.set_nonblocking(true)?;
            Listener::Tcp(l)
        }
    };

    let stop = Arc::new(AtomicBool::new(false));
    // Each handler thread is paired with a clone of its stream so
    // shutdown can close the socket out from under a blocked read —
    // otherwise an idle client connection would pin the daemon open.
    let mut handlers: Vec<(std::thread::JoinHandle<()>, Stream)> = Vec::new();
    loop {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let accepted = match &listener {
            Listener::Unix(l) => l.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        };
        match accepted {
            Ok(stream) => {
                let clone = stream.try_clone()?;
                let scheduler = Arc::clone(&scheduler);
                let stop = Arc::clone(&stop);
                let handle = std::thread::spawn(move || {
                    let _ = handle_connection(stream, &scheduler, &stop);
                });
                handlers.push((handle, clone));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        handlers.retain(|(h, _)| !h.is_finished());
    }

    scheduler.shutdown();
    for (h, conn) in handlers {
        conn.force_close();
        let _ = h.join();
    }
    if let ServeAddr::Unix(path) = addr {
        let _ = std::fs::remove_file(path);
    }
    Ok(())
}

fn write_line(writer: &mut impl Write, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn handle_connection(
    stream: Stream,
    scheduler: &Scheduler,
    stop: &Arc<AtomicBool>,
) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    loop {
        match read_frame(&mut reader, MAX_LINE_BYTES)? {
            Frame::Eof | Frame::Truncated => return Ok(()),
            Frame::Oversized => {
                write_line(
                    &mut writer,
                    &err_line(&WireError::new(
                        "oversized",
                        format!("request line exceeds {MAX_LINE_BYTES} bytes"),
                    )),
                )?;
            }
            Frame::Line(line) => match parse_request(&line) {
                Err(e) => write_line(&mut writer, &err_line(&e))?,
                Ok(Request::Shutdown) => {
                    write_line(&mut writer, &ok_line("shutdown", vec![]))?;
                    stop.store(true, Ordering::SeqCst);
                    return Ok(());
                }
                Ok(req) => handle_request(&req, scheduler, &mut writer, stop)?,
            },
        }
    }
}

fn job_fields(record: &crate::job::JobRecord) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("job", JsonValue::Str(record.id.clone())),
        ("session", JsonValue::Str(record.session.clone())),
        ("state", JsonValue::Str(record.state.as_str().into())),
        ("detail", JsonValue::Str(record.detail.clone())),
    ]
}

fn handle_request(
    req: &Request,
    scheduler: &Scheduler,
    writer: &mut impl Write,
    stop: &Arc<AtomicBool>,
) -> io::Result<()> {
    match req {
        Request::Ping => write_line(writer, &ok_line("ping", vec![])),
        Request::Submit { conf, overrides } => {
            let spec = crate::job::JobSpec {
                conf: conf.clone(),
                overrides: overrides.clone(),
            };
            match scheduler.submit(&spec) {
                Ok(record) => write_line(writer, &ok_line("submit", job_fields(&record))),
                Err(e) => write_line(writer, &err_line(&e)),
            }
        }
        Request::Status { job } => {
            let records = scheduler.status(job.as_deref());
            if job.is_some() && records.is_empty() {
                let id = job.as_deref().unwrap_or_default();
                return write_line(
                    writer,
                    &err_line(&WireError::new("unknown_job", format!("no job `{id}`"))),
                );
            }
            let jobs =
                JsonValue::Array(records.iter().map(crate::job::JobRecord::to_json).collect());
            write_line(writer, &ok_line("status", vec![("jobs", jobs)]))
        }
        Request::Cancel { job } => match scheduler.cancel(job) {
            Ok(record) => write_line(writer, &ok_line("cancel", job_fields(&record))),
            Err(e) => write_line(writer, &err_line(&e)),
        },
        Request::Watch { job, once } => watch_job(scheduler, job, *once, writer, stop),
        // Handled by the caller before dispatch.
        Request::Shutdown => Ok(()),
    }
}

/// Streams heartbeat snapshots for one job until it finishes (or once,
/// with `once`). Each line carries the job's current state and, when a
/// heartbeat has arrived, the heartbeat event in trace shape under
/// `event`.
fn watch_job(
    scheduler: &Scheduler,
    job: &str,
    once: bool,
    writer: &mut impl Write,
    stop: &Arc<AtomicBool>,
) -> io::Result<()> {
    let Some((_, progress)) = scheduler.progress(job) else {
        return write_line(
            writer,
            &err_line(&WireError::new("unknown_job", format!("no job `{job}`"))),
        );
    };
    let mut seen = {
        let (version, heartbeat, done) = progress.snapshot();
        emit_watch_line(scheduler, job, heartbeat.as_ref(), done, writer)?;
        if once || done {
            return Ok(());
        }
        version
    };
    loop {
        let (version, heartbeat, done) = progress.wait_newer(seen, Duration::from_millis(250));
        if version != seen || done {
            emit_watch_line(scheduler, job, heartbeat.as_ref(), done, writer)?;
            seen = version;
        }
        if done || stop.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

fn emit_watch_line(
    scheduler: &Scheduler,
    job: &str,
    heartbeat: Option<&cirfix_telemetry::HeartbeatEvent>,
    done: bool,
    writer: &mut impl Write,
) -> io::Result<()> {
    let state = scheduler
        .status(Some(job))
        .first()
        .map_or_else(|| "unknown".to_string(), |r| r.state.as_str().to_string());
    // The wire shape is exactly a trace line's, so `cirfix watch` folds
    // both with the same step.
    let event = heartbeat.map_or(JsonValue::Null, |h| Event::Heartbeat(h.clone()).to_value());
    write_line(
        writer,
        &ok_line(
            "watch",
            vec![
                ("job", JsonValue::Str(job.into())),
                ("state", JsonValue::Str(state)),
                ("done", JsonValue::Bool(done)),
                ("event", event),
            ],
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_parse_both_transports() {
        assert_eq!(
            ServeAddr::parse("/tmp/cirfix.sock"),
            ServeAddr::Unix(PathBuf::from("/tmp/cirfix.sock"))
        );
        assert_eq!(
            ServeAddr::parse("tcp:127.0.0.1:7411"),
            ServeAddr::Tcp("127.0.0.1:7411".into())
        );
        assert_eq!(ServeAddr::parse("tcp:[::1]:9").to_string(), "tcp:[::1]:9");
    }
}
