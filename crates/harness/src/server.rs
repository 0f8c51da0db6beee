//! `olaccel-repro serve`: a long-lived experiment daemon over a Unix
//! socket.
//!
//! One warm process answers many clients: the process-wide
//! [`crate::prep::PrepCache`] (plus its optional disk tier) means the
//! first request for a figure pays the preparation cost and every
//! subsequent request — from any client — reuses it. Identical in-flight
//! requests are *coalesced*: N concurrent `run fig14` lines trigger
//! exactly one computation, and all N connections get the same bytes.
//!
//! ## Protocol
//!
//! Line-delimited requests, byte-framed responses. Each request is one
//! UTF-8 line of at most 4096 bytes; a connection may send any number of
//! requests:
//!
//! ```text
//! run <experiment> [--fast|--full] [--jobs N]
//! stats
//! ping
//! shutdown
//! ```
//!
//! Responses are a header line followed by an exact-length payload:
//!
//! ```text
//! ok name=<experiment> bytes=<N> wall_ms=<ms> coalesced=<0|1>\n<N payload bytes>
//! ok stats bytes=<N>\n<N payload bytes>
//! ok pong\n
//! ok shutting-down\n
//! err <message>\n
//! ```
//!
//! A longer line gets `err request line longer than 4096 bytes` and the
//! connection is closed, so a client that never sends a newline cannot
//! grow the daemon's memory. A line that is not UTF-8 gets `err request
//! line is not UTF-8` and the connection keeps serving.
//!
//! The payload is byte-framed (never line-framed) so the header can carry
//! per-request timing without disturbing payload byte-identity: two
//! requests for the same experiment always deliver identical payload
//! bytes, even though their headers differ.
//!
//! `--jobs` is advisory: it retunes the process-wide kernel worker pools
//! before the computation starts. Reports are byte-identical at any jobs
//! value (the workspace's determinism contract), so it affects latency
//! only.
//!
//! ## Shutdown
//!
//! `SIGINT`, `SIGTERM`, or a `shutdown` request all set one flag; the
//! accept loop stops taking connections, in-flight requests drain to
//! completion, and the socket file is removed.

use crate::cli::{parse_jobs, RunOptions};
use crate::prep::PrepCache;
use ola_quant::EvalCache;
use ola_sim::SimCache;
use ola_tensor::memo::{fill_slot, panic_message, Fill, Slot};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The longest request line the daemon reads, newline excluded.
const MAX_REQUEST_LINE: usize = 4096;

/// Set by signal handlers and the `shutdown` command; polled by the
/// accept loop.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

const SIGINT: i32 = 2;
const SIGTERM: i32 = 15;

unsafe extern "C" {
    /// POSIX `signal(2)`. The only foreign call in the workspace — used
    /// because graceful daemon shutdown on SIGTERM cannot be expressed in
    /// std, and vendoring a signal crate is out of scope.
    fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
}

/// Async-signal-safe handler: a single atomic store, nothing else.
extern "C" fn request_shutdown(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs the shutdown flag on SIGINT/SIGTERM.
fn install_signal_handlers() {
    // SAFETY: `request_shutdown` only performs an atomic store, which is
    // async-signal-safe; `signal` itself is safe to call with a valid
    // function pointer.
    unsafe {
        signal(SIGINT, request_shutdown);
        signal(SIGTERM, request_shutdown);
    }
}

/// What one serve session did, for logging and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeSummary {
    /// Protocol lines answered (including errors).
    pub requests: u64,
    /// `run` requests that were coalesced onto another computation.
    pub coalesced: u64,
}

/// Shared state of one serve session.
struct Server {
    options: RunOptions,
    /// Completed-report memo doubling as the coalescing rendezvous: the
    /// exactly-once slot protocol of [`fill_slot`] guarantees one
    /// computation per `(experiment, fast)` key no matter how many
    /// connections race on it.
    reports: Mutex<HashMap<(String, bool), Slot<String>>>,
    requests: AtomicU64,
    coalesced: AtomicU64,
}

/// Binds `socket` and serves until a signal or a `shutdown` request,
/// then drains in-flight connections and removes the socket file.
///
/// The caller attaches `options.cache_dir` (so a warm daemon skips the
/// preparation, model and eval phases) and creates `options.out_dir`; the
/// CLI does both before either mode starts.
pub fn serve(socket: &Path, options: &RunOptions) -> std::io::Result<ServeSummary> {
    SHUTDOWN.store(false, Ordering::SeqCst);
    install_signal_handlers();
    let listener = bind(socket)?;
    listener.set_nonblocking(true)?;
    eprintln!("serving on {}", socket.display());

    let server = Server {
        options: options.clone(),
        reports: Mutex::new(HashMap::new()),
        requests: AtomicU64::new(0),
        coalesced: AtomicU64::new(0),
    };

    std::thread::scope(|scope| {
        let mut in_flight = Vec::new();
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    let server = &server;
                    in_flight.push(scope.spawn(move || handle_connection(server, stream)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if SHUTDOWN.load(Ordering::SeqCst) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    // Accept errors are transient (e.g. a client gone
                    // before accept); log and keep serving.
                    eprintln!("accept error: {e}");
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            in_flight.retain(|h| !h.is_finished());
        }
        let draining = in_flight.len();
        if draining > 0 {
            eprintln!("shutdown: draining {draining} in-flight connection(s)");
        }
        // The scope joins every handler on exit; nothing in flight is cut
        // off.
    });

    let _ = std::fs::remove_file(socket);
    eprintln!("shutdown complete");
    Ok(ServeSummary {
        requests: server.requests.load(Ordering::Relaxed),
        coalesced: server.coalesced.load(Ordering::Relaxed),
    })
}

/// Binds the socket, clearing a *stale* socket file (one no server
/// answers) but refusing to displace a live server. Every error names the
/// socket.
fn bind(socket: &Path) -> std::io::Result<UnixListener> {
    let bound = match UnixListener::bind(socket) {
        Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
            if UnixStream::connect(socket).is_ok() {
                return Err(std::io::Error::other(format!(
                    "a server is already listening on {}",
                    socket.display()
                )));
            }
            std::fs::remove_file(socket).and_then(|()| UnixListener::bind(socket))
        }
        bound => bound,
    };
    bound.map_err(|e| {
        std::io::Error::new(
            e.kind(),
            format!("cannot bind --socket {}: {e}", socket.display()),
        )
    })
}

/// Serves one connection: any number of request lines until EOF.
fn handle_connection(server: &Server, stream: UnixStream) {
    // A read timeout bounds how long an idle connection can delay
    // shutdown draining.
    let _ = stream.set_read_timeout(Some(Duration::from_secs(300)));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = stream;
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // One byte past the limit tells an overlong line from a full one.
        let limit = MAX_REQUEST_LINE as u64 + 1;
        match reader.by_ref().take(limit).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if buf.len() > MAX_REQUEST_LINE && buf.last() != Some(&b'\n') {
            server.requests.fetch_add(1, Ordering::Relaxed);
            let err = format!("err request line longer than {MAX_REQUEST_LINE} bytes\n");
            let _ = writer.write_all(err.as_bytes());
            return;
        }
        let line = std::str::from_utf8(&buf).map(str::trim);
        if matches!(line, Ok("")) {
            continue;
        }
        server.requests.fetch_add(1, Ordering::Relaxed);
        let response = match line {
            Ok(line) => respond(server, line),
            Err(_) => b"err request line is not UTF-8\n".to_vec(),
        };
        if writer
            .write_all(&response)
            .and_then(|()| writer.flush())
            .is_err()
        {
            return;
        }
        if SHUTDOWN.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Produces the full response (header + payload) for one request line.
fn respond(server: &Server, line: &str) -> Vec<u8> {
    match parse_request(server, line) {
        Ok(Request::Ping) => b"ok pong\n".to_vec(),
        Ok(Request::Shutdown) => {
            SHUTDOWN.store(true, Ordering::SeqCst);
            b"ok shutting-down\n".to_vec()
        }
        Ok(Request::Stats) => {
            let payload = crate::engine::render_cache_stats(
                &PrepCache::global().stats(),
                &SimCache::global().stats(),
                &EvalCache::global().stats(),
            );
            let mut out = format!("ok stats bytes={}\n", payload.len()).into_bytes();
            out.extend_from_slice(payload.as_bytes());
            out
        }
        Ok(Request::Run { name, fast, jobs }) => run_request(server, &name, fast, jobs),
        Err(msg) => format!("err {msg}\n").into_bytes(),
    }
}

/// A parsed protocol line.
enum Request {
    Run {
        name: String,
        fast: bool,
        jobs: Option<usize>,
    },
    Stats,
    Ping,
    Shutdown,
}

fn parse_request(server: &Server, line: &str) -> Result<Request, String> {
    let mut words = line.split_whitespace();
    match words.next() {
        Some("ping") => Ok(Request::Ping),
        Some("stats") => Ok(Request::Stats),
        Some("shutdown") => Ok(Request::Shutdown),
        Some("run") => {
            let mut name = None;
            let mut fast = server.options.fast;
            let mut jobs = None;
            let mut it = words;
            while let Some(w) = it.next() {
                match w {
                    "--fast" => fast = true,
                    "--full" => fast = false,
                    "--jobs" => {
                        let v = it.next().ok_or("--jobs needs a count")?;
                        jobs = Some(parse_jobs(v)?);
                    }
                    w if w.starts_with("--jobs=") => {
                        jobs = Some(parse_jobs(&w["--jobs=".len()..])?);
                    }
                    w if w.starts_with('-') => return Err(format!("unknown option {w}")),
                    w if name.is_none() => name = Some(w.to_string()),
                    w => return Err(format!("run takes one experiment, got extra {w:?}")),
                }
            }
            let name = name.ok_or("run needs an experiment name")?;
            if name.starts_with("__") || !crate::engine::is_known_experiment(&name) {
                return Err(format!(
                    "unknown experiment {name}; known: {}",
                    crate::EXPERIMENTS.join(" ")
                ));
            }
            Ok(Request::Run { name, fast, jobs })
        }
        Some(other) => Err(format!(
            "unknown command {other}; expected run/stats/ping/shutdown"
        )),
        None => Err("empty request".to_string()),
    }
}

/// Runs (or joins / replays) one experiment and frames the response.
fn run_request(server: &Server, name: &str, fast: bool, jobs: Option<usize>) -> Vec<u8> {
    if let Some(jobs) = jobs.or(server.options.jobs) {
        // Advisory: retune the process-wide kernel pools. Output bytes are
        // identical at any value.
        ola_nn::kernels::set_forward_jobs(jobs);
        ola_sim::workload::set_extract_jobs(jobs);
        ola_sim::simcache::set_model_jobs(jobs);
        ola_quant::evalcache::set_eval_jobs(jobs);
        ola_tensor::par::set_fill_jobs(jobs);
    }
    let start = Instant::now();
    let key = (name.to_string(), fast);
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        fill_slot(&server.reports, key, || {
            let report = crate::run_experiment(name, fast);
            if let Some(dir) = &server.options.out_dir {
                if let Err(e) = std::fs::write(dir.join(format!("{name}.txt")), &report) {
                    eprintln!("warning: failed to write report for {name}: {e}");
                }
            }
            (std::sync::Arc::new(report), Fill::Built)
        })
    }));
    let wall_ms = start.elapsed().as_millis();
    match outcome {
        Ok((report, fill)) => {
            let coalesced = fill.is_none();
            if coalesced {
                server.coalesced.fetch_add(1, Ordering::Relaxed);
            }
            // Payload is the report plus the newline the one-shot mode's
            // `println!` appends, so `request` stdout is byte-identical to
            // a one-shot run's stdout.
            let mut out = format!(
                "ok name={name} bytes={} wall_ms={wall_ms} coalesced={}\n",
                report.len() + 1,
                u8::from(coalesced)
            )
            .into_bytes();
            out.extend_from_slice(report.as_bytes());
            out.push(b'\n');
            out
        }
        Err(e) => {
            let msg = panic_message(e.as_ref()).replace('\n', " ");
            format!("err {name} failed: {msg}\n").into_bytes()
        }
    }
}

/// The `request` subcommand: sends one protocol line, prints the header
/// to stderr and the payload to stdout. Returns an error message on `err`
/// responses or transport failures.
pub fn request(socket: &Path, line: &str) -> Result<(), String> {
    let stream = UnixStream::connect(socket)
        .map_err(|e| format!("cannot connect to {}: {e}", socket.display()))?;
    let mut writer = stream
        .try_clone()
        .map_err(|e| format!("socket clone failed: {e}"))?;
    writer
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| writer.flush())
        .map_err(|e| format!("send failed: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut header = String::new();
    reader
        .read_line(&mut header)
        .map_err(|e| format!("no response: {e}"))?;
    let header = header.trim_end();
    if let Some(msg) = header.strip_prefix("err ") {
        return Err(msg.to_string());
    }
    eprintln!("{header}");
    let bytes = header
        .split_whitespace()
        .find_map(|w| w.strip_prefix("bytes="))
        .map(|v| v.parse::<usize>())
        .transpose()
        .map_err(|_| format!("malformed response header: {header}"))?;
    if let Some(n) = bytes {
        let mut payload = vec![0u8; n];
        reader
            .read_exact(&mut payload)
            .map_err(|e| format!("truncated payload: {e}"))?;
        let mut stdout = std::io::stdout().lock();
        stdout
            .write_all(&payload)
            .and_then(|()| stdout.flush())
            .map_err(|e| format!("stdout write failed: {e}"))?;
    }
    Ok(())
}
