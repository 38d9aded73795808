//! A zero-dependency TCP front end for the nested relational engine.
//!
//! The server speaks a newline-delimited text protocol over
//! `std::net::TcpListener`, one OS thread and one [`nra::Session`] per
//! connection — the session carries the connection's default
//! [`QueryOptions`](nra::QueryOptions) and prepared statements, while
//! the shared [`Database`] behind it provides the catalog (concurrent
//! reads under its `RwLock`), the process-wide plan cache, and the
//! admission controller that bounds total concurrency.
//!
//! # Protocol
//!
//! Requests are single lines. A line starting with `.` is a command;
//! anything else is executed as SQL:
//!
//! ```text
//! .ping                      liveness probe
//! .session                   one-row result with this connection's session id
//! .set <key> <value>         set a session default: engine, threads,
//!                            timeout_ms, mem_limit, plan_cache
//!                            (value `off`/`auto` resets to the default)
//! .prepare <name> <sql>      validate + remember a statement
//! .exec <name>               run a prepared statement
//! .quit                      close the connection
//! select ...                 executed as SQL under the session defaults
//! ```
//!
//! Every response is one of:
//!
//! ```text
//! ok <nrows> <ncols>         success; if ncols > 0 a tab-separated
//! <header line>              header line and nrows tab-separated data
//! <data lines...>            lines follow (tabs/newlines/backslashes
//! .                          escaped); `.` terminates the response
//!
//! err <kind>: <message>      failure (kind = sql | storage | <engine
//! .                          error variant, e.g. admission, cancelled>)
//! ```
//!
//! The framing is identical for commands and SQL so clients need exactly
//! one parser ([`Client`] is that parser, used by the integration tests
//! and the `bench --serve` driver).
//!
//! `NRA_SERVER_POLL_MS` tunes how often blocked readers wake up (both
//! the server's shutdown poll and the client's read timeout); the
//! default is 100 ms, and malformed values are rejected up front.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use nra::engine::config::Config;
use nra::{Database, Engine, QueryOptions, Session, Strategy};

/// Default wake-up cadence for blocked socket readers, in milliseconds.
const DEFAULT_POLL_MS: u64 = 100;

/// How often a blocked reader wakes up — to check the shutdown flag on
/// the server side, or to re-poll the socket in [`Client`]. Bounds
/// shutdown latency; invisible on the wire otherwise. Configurable via
/// `NRA_SERVER_POLL_MS`; a malformed configuration is an `InvalidInput`
/// error (from [`serve`] and [`Client::connect`]), not a silent fallback.
fn poll_interval() -> io::Result<Duration> {
    let config = Config::from_env()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
    Ok(Duration::from_millis(
        config.server_poll_ms.unwrap_or(DEFAULT_POLL_MS),
    ))
}

// ---------------------------------------------------------------------
// Wire format: escaping and response framing shared by server + client.
// ---------------------------------------------------------------------

/// Escape a field for the tab-separated wire format.
fn escape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    for c in field.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`]; unknown escapes pass through verbatim.
fn unescape(field: &str) -> String {
    let mut out = String::with_capacity(field.len());
    let mut chars = field.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('\\') => out.push('\\'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

/// A parsed `ok` response: column names plus stringified rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    pub columns: Vec<String>,
    pub rows: Vec<Vec<String>>,
}

// ---------------------------------------------------------------------
// Server.
// ---------------------------------------------------------------------

/// Start serving `db` on `addr` (`127.0.0.1:0` picks an ephemeral
/// port). Returns immediately; the accept loop runs on a background
/// thread until [`ServerHandle::shutdown`].
pub fn serve(db: Database, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
    let poll = poll_interval()?;
    let listener = TcpListener::bind(addr)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

    let accept = {
        let stop = Arc::clone(&stop);
        let conns = Arc::clone(&conns);
        std::thread::Builder::new()
            .name("nra-server-accept".into())
            .spawn(move || loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stop.load(Ordering::SeqCst) {
                            // The wake-up connection from shutdown()
                            // (or a client racing it): drop and exit.
                            return;
                        }
                        let session = db.connect();
                        let stop = Arc::clone(&stop);
                        let handle = std::thread::Builder::new()
                            .name("nra-server-conn".into())
                            .spawn(move || {
                                // Connection errors only affect that
                                // connection; the socket closing is the
                                // ordinary end of a conversation.
                                let _ = Connection::new(stream, session, stop, poll).run();
                            })
                            .expect("spawn connection thread");
                        conns.lock().unwrap().push(handle);
                    }
                    Err(_) if stop.load(Ordering::SeqCst) => return,
                    Err(_) => continue,
                }
            })?
    };

    Ok(ServerHandle {
        addr: local_addr,
        stop,
        accept: Some(accept),
        conns,
    })
}

/// Handle to a running server: its address and a clean-shutdown switch.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (resolves the port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, wake the accept loop, and join every connection
    /// thread. In-flight queries finish; blocked readers notice the
    /// flag within one poll interval (`NRA_SERVER_POLL_MS`).
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock the accept() call with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // A dropped handle still stops the accept loop (connection
        // threads die with their sockets or at the next poll).
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// The per-connection session defaults, rebuilt into [`QueryOptions`]
/// after every `.set` (mirrors the CLI shell's knobs).
#[derive(Default)]
struct ConnConfig {
    engine: Option<Engine>,
    threads: Option<usize>,
    timeout_ms: Option<u64>,
    mem_limit: Option<u64>,
    plan_cache: Option<bool>,
}

impl ConnConfig {
    fn options(&self) -> QueryOptions {
        let mut opts = QueryOptions::new();
        if let Some(engine) = self.engine {
            opts = opts.engine(engine);
        }
        if let Some(n) = self.threads {
            opts = opts.threads(n);
        }
        if let Some(ms) = self.timeout_ms {
            opts = opts.timeout_ms(ms);
        }
        if let Some(bytes) = self.mem_limit {
            opts = opts.mem_limit_bytes(bytes);
        }
        if let Some(on) = self.plan_cache {
            opts = opts.plan_cache(on);
        }
        opts
    }
}

struct Connection {
    stream: TcpStream,
    session: Session,
    config: ConnConfig,
    stop: Arc<AtomicBool>,
    poll: Duration,
    /// Bytes received but not yet terminated by a newline.
    pending: Vec<u8>,
}

impl Connection {
    fn new(
        stream: TcpStream,
        session: Session,
        stop: Arc<AtomicBool>,
        poll: Duration,
    ) -> Connection {
        Connection {
            stream,
            session,
            config: ConnConfig::default(),
            stop,
            poll,
            pending: Vec::new(),
        }
    }

    fn run(mut self) -> io::Result<()> {
        self.stream.set_read_timeout(Some(self.poll))?;
        self.stream.set_nodelay(true).ok();
        loop {
            let line = match self.read_line()? {
                Some(line) => line,
                None => return Ok(()), // EOF or shutdown
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if line == ".quit" {
                self.ok_empty()?;
                return Ok(());
            }
            self.handle(line)?;
        }
    }

    /// Read one newline-terminated line, polling the shutdown flag
    /// while blocked. `None` means the peer closed or we are shutting
    /// down.
    fn read_line(&mut self) -> io::Result<Option<String>> {
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let rest = self.pending.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.pending, rest);
                line.pop(); // the newline
                return Ok(Some(String::from_utf8_lossy(&line).into_owned()));
            }
            if self.stop.load(Ordering::SeqCst) {
                return Ok(None);
            }
            let mut buf = [0u8; 4096];
            match self.stream.read(&mut buf) {
                Ok(0) => return Ok(None),
                Ok(n) => self.pending.extend_from_slice(&buf[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn handle(&mut self, line: &str) -> io::Result<()> {
        if let Some(cmd) = line.strip_prefix('.') {
            let (name, args) = cmd.split_once(' ').unwrap_or((cmd, ""));
            let args = args.trim();
            match name {
                "ping" => self.ok_empty(),
                "session" => {
                    let id = self.session.id().to_string();
                    self.ok_table(&["session"], &[vec![id]])
                }
                "set" => match self.cmd_set(args) {
                    Ok(()) => self.ok_empty(),
                    Err(msg) => self.err("protocol", &msg),
                },
                "prepare" => match args.split_once(' ') {
                    Some((stmt, sql)) if !sql.trim().is_empty() => {
                        match self.session.prepare(stmt, sql.trim()) {
                            Ok(()) => self.ok_empty(),
                            Err(e) => self.err(e.kind(), &e.to_string()),
                        }
                    }
                    _ => self.err("protocol", ".prepare takes a name and a statement"),
                },
                "exec" => match self.session.execute_prepared(args) {
                    Ok(out) => self.ok_outcome(&out),
                    Err(e) => self.err(e.kind(), &e.to_string()),
                },
                other => self.err("protocol", &format!("unknown command `.{other}`")),
            }
        } else {
            match self.session.execute(line) {
                Ok(out) => self.ok_outcome(&out),
                Err(e) => self.err(e.kind(), &e.to_string()),
            }
        }
    }

    fn cmd_set(&mut self, args: &str) -> Result<(), String> {
        let (key, value) = args
            .split_once(' ')
            .map(|(k, v)| (k, v.trim()))
            .ok_or(".set takes a key and a value")?;
        let off = value.eq_ignore_ascii_case("off") || value.eq_ignore_ascii_case("auto");
        match key {
            "engine" => {
                self.config.engine = if off {
                    None
                } else {
                    Some(parse_engine(value)?)
                }
            }
            "threads" => {
                self.config.threads = if off {
                    None
                } else {
                    Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| format!("threads takes a count, got `{value}`"))?
                            .max(1),
                    )
                }
            }
            "timeout_ms" => {
                self.config.timeout_ms = if off {
                    None
                } else {
                    Some(
                        value
                            .parse()
                            .map_err(|_| format!("timeout_ms takes milliseconds, got `{value}`"))?,
                    )
                }
            }
            "mem_limit" => {
                self.config.mem_limit = if off {
                    None
                } else {
                    Some(
                        value
                            .parse()
                            .map_err(|_| format!("mem_limit takes bytes, got `{value}`"))?,
                    )
                }
            }
            "plan_cache" => {
                self.config.plan_cache = if off {
                    None
                } else {
                    Some(matches!(value, "on" | "1" | "true"))
                }
            }
            other => {
                return Err(format!(
                    "unknown setting `{other}` (engine, threads, timeout_ms, mem_limit, plan_cache)"
                ))
            }
        }
        self.session.set_defaults(self.config.options());
        Ok(())
    }

    fn ok_empty(&mut self) -> io::Result<()> {
        self.stream.write_all(b"ok 0 0\n.\n")?;
        self.stream.flush()
    }

    fn ok_outcome(&mut self, out: &nra::QueryOutcome) -> io::Result<()> {
        let columns: Vec<String> = out
            .rows
            .schema()
            .names()
            .iter()
            .map(|n| n.to_string())
            .collect();
        let rows: Vec<Vec<String>> = out
            .rows
            .rows()
            .iter()
            .map(|r| r.iter().map(|v| v.to_string()).collect())
            .collect();
        self.ok_table(
            &columns.iter().map(String::as_str).collect::<Vec<_>>(),
            &rows,
        )
    }

    fn ok_table(&mut self, columns: &[&str], rows: &[Vec<String>]) -> io::Result<()> {
        let mut out = format!("ok {} {}\n", rows.len(), columns.len());
        if !columns.is_empty() {
            let header: Vec<String> = columns.iter().map(|c| escape(c)).collect();
            out.push_str(&header.join("\t"));
            out.push('\n');
            for row in rows {
                let fields: Vec<String> = row.iter().map(|f| escape(f)).collect();
                out.push_str(&fields.join("\t"));
                out.push('\n');
            }
        }
        out.push_str(".\n");
        self.stream.write_all(out.as_bytes())?;
        self.stream.flush()
    }

    fn err(&mut self, kind: &str, message: &str) -> io::Result<()> {
        let line = format!("err {kind}: {}\n.\n", escape(message));
        self.stream.write_all(line.as_bytes())?;
        self.stream.flush()
    }
}

fn parse_engine(value: &str) -> Result<Engine, String> {
    Ok(match value.to_ascii_lowercase().as_str() {
        "nr" => Engine::NestedRelational(Strategy::Auto),
        "original" => Engine::NestedRelational(Strategy::Original),
        "optimized" => Engine::NestedRelational(Strategy::Optimized),
        "bottomup" => Engine::NestedRelational(Strategy::BottomUp),
        "pushdown" => Engine::NestedRelational(Strategy::BottomUpPushdown),
        "positive" => Engine::NestedRelational(Strategy::PositiveRewrite),
        "baseline" | "native" => Engine::Baseline,
        "oracle" | "reference" => Engine::Reference,
        other => return Err(format!("unknown engine `{other}`")),
    })
}

// ---------------------------------------------------------------------
// Client.
// ---------------------------------------------------------------------

/// A synchronous protocol client: one request, one framed response.
/// Used by the integration tests and the `bench --serve` driver; small
/// enough to reimplement from the protocol docs in any language.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let poll = poll_interval()?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        // The same poll cadence the server uses: reads wake up at this
        // interval (and retry) instead of blocking indefinitely in one
        // syscall, so `NRA_SERVER_POLL_MS` tunes both sides.
        stream.set_read_timeout(Some(poll))?;
        Ok(Client {
            stream,
            pending: Vec::new(),
        })
    }

    /// Send one line (SQL or a `.command`) and parse the framed
    /// response. `Ok(Err(..))` is a server-side error (`err` frame);
    /// `Err(..)` is a transport failure.
    pub fn request(&mut self, line: &str) -> io::Result<Result<Response, String>> {
        debug_assert!(!line.contains('\n'), "requests are single lines");
        self.stream.write_all(line.as_bytes())?;
        self.stream.write_all(b"\n")?;
        self.stream.flush()?;

        let status = self.read_line()?;
        if let Some(rest) = status.strip_prefix("err ") {
            // Drain the terminator.
            let term = self.read_line()?;
            debug_assert_eq!(term, ".");
            return Ok(Err(unescape(rest)));
        }
        let mut parts = status
            .strip_prefix("ok ")
            .ok_or_else(|| bad_frame(&status))?
            .split(' ');
        let nrows: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_frame(&status))?;
        let ncols: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad_frame(&status))?;

        let mut columns = Vec::new();
        let mut rows = Vec::with_capacity(nrows);
        if ncols > 0 {
            columns = split_fields(&self.read_line()?);
            for _ in 0..nrows {
                rows.push(split_fields(&self.read_line()?));
            }
        }
        let term = self.read_line()?;
        if term != "." {
            return Err(bad_frame(&term));
        }
        Ok(Ok(Response { columns, rows }))
    }

    /// [`Client::request`] flattened: any failure becomes one error
    /// string (convenient in tests and the bench driver).
    pub fn query(&mut self, line: &str) -> Result<Response, String> {
        match self.request(line) {
            Ok(Ok(r)) => Ok(r),
            Ok(Err(server)) => Err(server),
            Err(io) => Err(format!("transport: {io}")),
        }
    }

    fn read_line(&mut self) -> io::Result<String> {
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let rest = self.pending.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.pending, rest);
                line.pop();
                return Ok(String::from_utf8_lossy(&line).into_owned());
            }
            let mut buf = [0u8; 4096];
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection mid-response",
                    ))
                }
                Ok(n) => self.pending.extend_from_slice(&buf[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Err(e) => return Err(e),
            }
        }
    }
}

fn split_fields(line: &str) -> Vec<String> {
    line.split('\t').map(unescape).collect()
}

fn bad_frame(line: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed response frame: {line:?}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrips() {
        for s in ["", "plain", "tab\there", "line\nbreak", "back\\slash\r"] {
            assert_eq!(unescape(&escape(s)), s, "{s:?}");
        }
    }

    #[test]
    fn unknown_escapes_pass_through() {
        assert_eq!(unescape("\\x\\"), "\\x\\");
    }
}
