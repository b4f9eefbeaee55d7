//! The event-driven server loop (Linux): one thread, epoll readiness,
//! per-connection state machines, and cross-connection micro-batching.
//!
//! Every connection owns a read buffer parsed incrementally with
//! [`crate::http::try_parse`] (keep-alive pipelining falls out of the
//! parse loop) and an ordered response queue, so responses always leave
//! in request order even when predict jobs resolve asynchronously.
//! Predict requests from *all* connections coalesce into one micro-batch
//! scored by [`App::predict_batch`]; the batch flushes adaptively — as
//! soon as no more requests are ready to join (greedy drain), or when it
//! reaches `batch_max_rows`, or when the oldest job has waited
//! `batch_wait`. Slow readers get write backpressure (reads pause while
//! the write buffer is saturated); slow senders (slow-loris partial
//! heads, half-written bodies) are reaped by an idle sweep on the
//! `read_timeout` budget.
#![cfg(target_os = "linux")]

use crate::http::{try_parse, ParseOutcome, Response};
use crate::nb::{Epoll, EpollEvent, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::routes::{App, PredictJob, Routed};
use crate::server::ServerConfig;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Token identifying the listener in epoll events.
const LISTENER_TOKEN: u64 = u64::MAX;
/// Ready-event buffer size per `epoll_wait`.
const MAX_EVENTS: usize = 256;
/// Socket read chunk.
const READ_CHUNK: usize = 16 * 1024;
/// Outstanding write bytes beyond which a connection's reads pause.
const WRITE_PAUSE_BYTES: usize = 256 * 1024;
/// Outstanding write bytes below which paused reads resume.
const WRITE_RESUME_BYTES: usize = WRITE_PAUSE_BYTES / 2;
/// How often the idle sweep runs.
const SWEEP_EVERY: Duration = Duration::from_millis(250);

/// One entry in a connection's ordered response queue.
enum Slot {
    /// Serialized response bytes; `true` closes the connection after the
    /// bytes flush.
    Ready(Vec<u8>, bool),
    /// A predict job in the current micro-batch, identified by job id.
    Pending(u64),
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    peer: String,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    write_pos: usize,
    /// Responses in request order; the head drains into `write_buf`.
    slots: VecDeque<Slot>,
    last_activity: Instant,
    /// Events currently armed in epoll.
    interest: u32,
    /// Reads stopped for good (peer half-closed, protocol error, or a
    /// `Connection: close` request); pending responses still flush.
    no_more_reads: bool,
    /// Reads paused by write backpressure; resumes when the buffer drains.
    paused: bool,
    /// Close once every queued response has flushed.
    close_after_flush: bool,
}

impl Conn {
    fn outstanding_write(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }
}

/// A predict job waiting in the micro-batch, with enough metadata to
/// route its response back.
struct BatchEntry {
    fd: RawFd,
    job_id: u64,
    keep_alive: bool,
    job: PredictJob,
}

/// The event loop's state. [`Loop::new`] runs on the caller's thread, so
/// set-up errors reach [`crate::Server::spawn`]'s caller.
pub(crate) struct Loop {
    epoll: Epoll,
    listener: TcpListener,
    app: Arc<App>,
    config: ServerConfig,
    conns: Vec<Option<Conn>>,
    active: usize,
    pending: Vec<BatchEntry>,
    pending_rows: usize,
    batch_started: Option<Instant>,
    next_job_id: u64,
    shutdown: Arc<AtomicBool>,
}

impl Loop {
    /// Creates the epoll instance and registers the (nonblocking)
    /// listener.
    pub(crate) fn new(
        listener: TcpListener,
        app: Arc<App>,
        config: ServerConfig,
        shutdown: Arc<AtomicBool>,
    ) -> std::io::Result<Loop> {
        let epoll = Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, LISTENER_TOKEN)?;
        Ok(Loop {
            epoll,
            listener,
            app,
            config,
            conns: Vec::new(),
            active: 0,
            pending: Vec::new(),
            pending_rows: 0,
            batch_started: None,
            next_job_id: 0,
            shutdown,
        })
    }

    /// Serves until the shutdown flag flips, then drains.
    pub(crate) fn run(mut self) {
        let mut events = [EpollEvent::zeroed(); MAX_EVENTS];
        let mut last_sweep = Instant::now();
        while !self.shutdown.load(Ordering::SeqCst) {
            // With a batch open, poll (timeout 0): the batch flushes the
            // moment no further requests are ready to join it. Otherwise
            // sleep until traffic or the next sweep tick.
            let timeout_ms = if self.pending.is_empty() { 100 } else { 0 };
            let n = match self.epoll.wait(&mut events, timeout_ms) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("serve: epoll_wait failed: {e}");
                    break;
                }
            };
            for event in events.iter().take(n) {
                let (token, mask) = (event.data, event.events);
                if token == LISTENER_TOKEN {
                    self.accept_ready();
                } else {
                    self.conn_event(token as RawFd, mask);
                }
            }
            if !self.pending.is_empty() {
                let deadline_hit = self
                    .batch_started
                    .is_some_and(|t| t.elapsed() >= self.config.batch_wait);
                if n == 0 || deadline_hit || self.pending_rows >= self.config.batch_max_rows {
                    self.flush_batch();
                }
            }
            if last_sweep.elapsed() >= SWEEP_EVERY {
                self.sweep_idle();
                last_sweep = Instant::now();
            }
        }
        self.drain_and_close();
    }

    /// Accepts until the listener would block.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, addr)) => {
                    if self.active >= self.config.max_connections {
                        // Shed at the door: a bounded, explicit 503
                        // instead of unbounded connection state.
                        self.app.metrics().observe_queue_full();
                        let mut stream = stream;
                        let mut buf = Vec::new();
                        let _ = Response::error(503, "server is at capacity")
                            .write_to(&mut buf, false);
                        // lint:allow(E001, one-shot ~100-byte shed response to a freshly accepted socket; fits the send buffer and the stream is dropped immediately)
                        let _ = stream.write_all(&buf);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let fd = stream.as_raw_fd();
                    let interest = EPOLLIN | EPOLLRDHUP;
                    if self.epoll.add(fd, interest, fd as u64).is_err() {
                        continue;
                    }
                    let index = fd as usize;
                    if index >= self.conns.len() {
                        self.conns.resize_with(index + 1, || None);
                    }
                    self.conns[index] = Some(Conn {
                        stream,
                        peer: if self.config.log_requests {
                            addr.to_string()
                        } else {
                            String::new()
                        },
                        read_buf: Vec::new(),
                        write_buf: Vec::new(),
                        write_pos: 0,
                        slots: VecDeque::new(),
                        last_activity: Instant::now(),
                        interest,
                        no_more_reads: false,
                        paused: false,
                        close_after_flush: false,
                    });
                    self.active += 1;
                    self.app.metrics().observe_connection_opened();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn conn_event(&mut self, fd: RawFd, mask: u32) {
        let index = fd as usize;
        match self.conns.get(index) {
            Some(Some(_)) => {}
            _ => return, // stale event for an already closed fd
        }
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(fd);
            return;
        }
        if mask & EPOLLOUT != 0 {
            self.writable(fd);
            if !matches!(self.conns.get(index), Some(Some(_))) {
                return;
            }
        }
        if mask & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.readable(fd, mask & EPOLLRDHUP != 0);
        }
    }

    /// Reads until the socket would block, then parses every complete
    /// request in the buffer (pipelining).
    fn readable(&mut self, fd: RawFd, peer_half_closed: bool) {
        let index = fd as usize;
        let mut eof = peer_half_closed;
        let mut fatal = false;
        {
            let Some(Some(conn)) = self.conns.get_mut(index) else { return };
            if !conn.paused && !conn.no_more_reads {
                let mut chunk = [0u8; READ_CHUNK];
                loop {
                    match conn.stream.read(&mut chunk) {
                        Ok(0) => {
                            eof = true;
                            break;
                        }
                        Ok(n) => {
                            conn.read_buf.extend_from_slice(&chunk[..n]);
                            conn.last_activity = Instant::now();
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) => {
                            fatal = true;
                            break;
                        }
                    }
                }
            }
        }
        if fatal {
            self.close_conn(fd);
            return;
        }
        self.parse_available(fd);
        if eof {
            let mut close_now = false;
            if let Some(Some(conn)) = self.conns.get_mut(index) {
                conn.no_more_reads = true;
                if conn.slots.is_empty() && conn.outstanding_write() == 0 {
                    close_now = true;
                } else {
                    conn.close_after_flush = true;
                }
            }
            if close_now {
                self.close_conn(fd);
                return;
            }
        }
        self.drain_and_write(fd);
    }

    /// Parses every complete request currently buffered on `fd`.
    fn parse_available(&mut self, fd: RawFd) {
        let index = fd as usize;
        let mut consumed_total = 0usize;
        loop {
            let Some(Some(conn)) = self.conns.get_mut(index) else { return };
            if conn.no_more_reads {
                break;
            }
            match try_parse(&conn.read_buf[consumed_total..]) {
                ParseOutcome::NeedMore => break,
                ParseOutcome::Complete(request, used) => {
                    consumed_total += used;
                    let keep_alive =
                        request.keep_alive() && !self.shutdown.load(Ordering::SeqCst);
                    let started = Instant::now();
                    match self.app.route_or_defer(&request) {
                        Routed::Immediate(response) => {
                            if self.config.log_requests {
                                log_line(
                                    &conn.peer,
                                    &request.method,
                                    &request.path,
                                    response.status,
                                    started.elapsed(),
                                    request.body.len(),
                                );
                            }
                            push_response(conn, &response, keep_alive);
                        }
                        Routed::Predict(job) => {
                            let job_id = self.next_job_id;
                            self.next_job_id += 1;
                            conn.slots.push_back(Slot::Pending(job_id));
                            self.pending_rows += job.n_rows();
                            if self.batch_started.is_none() {
                                self.batch_started = Some(Instant::now());
                            }
                            self.pending.push(BatchEntry { fd, job_id, keep_alive, job: *job });
                        }
                    }
                    if !keep_alive {
                        if let Some(Some(conn)) = self.conns.get_mut(index) {
                            conn.no_more_reads = true;
                        }
                        break;
                    }
                }
                ParseOutcome::Invalid(error) => {
                    let response = Response::error(error.status(), &error.message());
                    self.app.metrics().observe("other", response.status, Duration::ZERO);
                    if self.config.log_requests {
                        log_line(&conn.peer, "-", "-", response.status, Duration::ZERO, 0);
                    }
                    push_response(conn, &response, false);
                    conn.no_more_reads = true;
                    break;
                }
            }
        }
        if let Some(Some(conn)) = self.conns.get_mut(index) {
            if consumed_total > 0 {
                conn.read_buf.drain(..consumed_total);
            }
        }
    }

    /// Scores the open micro-batch and routes responses back to their
    /// connections, preserving per-connection request order.
    fn flush_batch(&mut self) {
        let entries = std::mem::take(&mut self.pending);
        self.pending_rows = 0;
        self.batch_started = None;
        if entries.is_empty() {
            return;
        }
        let mut metas = Vec::with_capacity(entries.len());
        let mut jobs = Vec::with_capacity(entries.len());
        for entry in entries {
            metas.push((entry.fd, entry.job_id, entry.keep_alive, entry.job.started()));
            jobs.push(entry.job);
        }
        let responses = self.app.predict_batch(&jobs);
        let mut touched: Vec<RawFd> = Vec::with_capacity(metas.len());
        for ((fd, job_id, keep_alive, started), response) in metas.into_iter().zip(&responses) {
            self.app.metrics().observe("/v1/predict", response.status, started.elapsed());
            let keep_alive = keep_alive && !self.shutdown.load(Ordering::SeqCst);
            let index = fd as usize;
            let Some(Some(conn)) = self.conns.get_mut(index) else { continue };
            if self.config.log_requests {
                log_line(&conn.peer, "POST", "/v1/predict", response.status, started.elapsed(), 0);
            }
            let mut bytes = Vec::with_capacity(response.body.len() + 128);
            let _ = response.write_to(&mut bytes, keep_alive);
            if let Some(slot) = conn
                .slots
                .iter_mut()
                .find(|s| matches!(s, Slot::Pending(id) if *id == job_id))
            {
                *slot = Slot::Ready(bytes, !keep_alive);
            }
            if !touched.contains(&fd) {
                touched.push(fd);
            }
        }
        for fd in touched {
            self.drain_and_write(fd);
        }
    }

    /// Moves leading `Ready` slots into the write buffer, then pushes
    /// bytes to the socket.
    fn drain_and_write(&mut self, fd: RawFd) {
        let index = fd as usize;
        {
            let Some(Some(conn)) = self.conns.get_mut(index) else { return };
            while matches!(conn.slots.front(), Some(Slot::Ready(_, _))) {
                let Some(Slot::Ready(bytes, close_after)) = conn.slots.pop_front() else {
                    break;
                };
                conn.write_buf.extend_from_slice(&bytes);
                if close_after {
                    // Responses after a `Connection: close` are moot.
                    conn.close_after_flush = true;
                    conn.no_more_reads = true;
                    conn.slots.clear();
                    break;
                }
            }
        }
        self.writable(fd);
    }

    /// Writes as much buffered output as the socket accepts; arms or
    /// disarms `EPOLLOUT` and applies read backpressure.
    fn writable(&mut self, fd: RawFd) {
        let index = fd as usize;
        let mut close = false;
        {
            let Some(Some(conn)) = self.conns.get_mut(index) else { return };
            while conn.write_pos < conn.write_buf.len() {
                let pos = conn.write_pos;
                match conn.stream.write(&conn.write_buf[pos..]) {
                    Ok(0) => {
                        close = true;
                        break;
                    }
                    Ok(n) => {
                        conn.write_pos += n;
                        conn.last_activity = Instant::now();
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
            if !close {
                if conn.write_pos == conn.write_buf.len() {
                    conn.write_buf.clear();
                    conn.write_pos = 0;
                    if conn.close_after_flush && conn.slots.is_empty() {
                        close = true;
                    }
                }
                if !close {
                    // Backpressure: pause reads while the peer reads
                    // slowly; resume below the low-water mark.
                    let outstanding = conn.outstanding_write();
                    if !conn.paused && outstanding > WRITE_PAUSE_BYTES {
                        conn.paused = true;
                        self.app.metrics().observe_read_paused();
                    } else if conn.paused && outstanding < WRITE_RESUME_BYTES {
                        conn.paused = false;
                    }
                }
            }
        }
        if close {
            self.close_conn(fd);
            return;
        }
        self.update_interest(fd);
    }

    /// Reconciles the epoll interest set with the connection's state.
    fn update_interest(&mut self, fd: RawFd) {
        let index = fd as usize;
        let Some(Some(conn)) = self.conns.get_mut(index) else { return };
        let mut desired = 0u32;
        if !conn.paused && !conn.no_more_reads {
            desired |= EPOLLIN | EPOLLRDHUP;
        }
        if conn.outstanding_write() > 0 {
            desired |= EPOLLOUT;
        }
        if desired != conn.interest && self.epoll.modify(fd, desired, fd as u64).is_ok() {
            conn.interest = desired;
        }
    }

    /// Reaps connections idle past the read timeout — slow-loris senders,
    /// abandoned keep-alives, and peers that never drain their responses.
    fn sweep_idle(&mut self) {
        let now = Instant::now();
        let timeout = self.config.read_timeout;
        let stale: Vec<RawFd> = self
            .conns
            .iter()
            .enumerate()
            .filter_map(|(fd, conn)| {
                conn.as_ref().and_then(|c| {
                    (now.duration_since(c.last_activity) > timeout).then_some(fd as RawFd)
                })
            })
            .collect();
        for fd in stale {
            self.app.metrics().observe_idle_closed();
            self.close_conn(fd);
        }
    }

    fn close_conn(&mut self, fd: RawFd) {
        let index = fd as usize;
        if let Some(slot) = self.conns.get_mut(index) {
            if slot.take().is_some() {
                let _ = self.epoll.delete(fd);
                self.active = self.active.saturating_sub(1);
                self.app.metrics().observe_connection_closed();
            }
        }
    }

    /// Graceful shutdown: answer the batch already accepted, flush what
    /// can be flushed within the write timeout, close everything.
    fn drain_and_close(&mut self) {
        self.flush_batch();
        let write_timeout = self.config.write_timeout;
        for index in 0..self.conns.len() {
            if let Some(Some(conn)) = self.conns.get_mut(index) {
                while matches!(conn.slots.front(), Some(Slot::Ready(_, _))) {
                    let Some(Slot::Ready(bytes, _)) = conn.slots.pop_front() else { break };
                    conn.write_buf.extend_from_slice(&bytes);
                }
                if conn.outstanding_write() > 0 {
                    let _ = conn.stream.set_nonblocking(false);
                    let _ = conn.stream.set_write_timeout(Some(write_timeout));
                    let pos = conn.write_pos;
                    // lint:allow(E001, shutdown drain: deliberately blocking with an explicit write timeout after the loop has stopped serving)
                    let _ = conn.stream.write_all(&conn.write_buf[pos..]);
                }
            }
            self.close_conn(index as RawFd);
        }
    }
}

/// Serializes `response` into a ready slot on `conn` (order preserved).
fn push_response(conn: &mut Conn, response: &Response, keep_alive: bool) {
    let mut bytes = Vec::with_capacity(response.body.len() + 128);
    let _ = response.write_to(&mut bytes, keep_alive);
    conn.slots.push_back(Slot::Ready(bytes, !keep_alive));
}

/// One structured JSON log line per request, on stderr.
fn log_line(peer: &str, method: &str, path: &str, status: u16, elapsed: Duration, body_bytes: usize) {
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    eprintln!(
        "{}",
        serde_json::json!({
            "ts_ms": ts_ms,
            "peer": peer,
            "method": method,
            "path": path,
            "status": status,
            "duration_us": elapsed.as_micros() as u64,
            "body_bytes": body_bytes,
        })
    );
}
