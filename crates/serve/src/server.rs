//! Server start-up and shutdown around the event loop ([`crate::event`]).
//!
//! The server is Linux-only: it runs one epoll event loop. [`Server::spawn`]
//! binds, creates the epoll instance and registers the listener on the
//! caller's thread, so every set-up failure comes back as an `io::Error`;
//! off Linux it returns [`std::io::ErrorKind::Unsupported`]. Shutdown is
//! graceful: the loop stops accepting, answers the batch already accepted
//! and flushes what it can within the write timeout.

use crate::routes::App;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:8080` (port 0 picks an ephemeral
    /// port, reported by [`Server::local_addr`]).
    pub addr: String,
    /// Idle budget: a connection that makes no read or write progress
    /// for this long is closed (slow-loris senders, abandoned
    /// keep-alives, peers that never drain their responses).
    pub read_timeout: Duration,
    /// Write timeout for the blocking final flush at shutdown.
    pub write_timeout: Duration,
    /// Emit one structured log line per request to stderr.
    pub log_requests: bool,
    /// Flush the predict micro-batch once it holds this many rows.
    pub batch_max_rows: usize,
    /// Flush the predict micro-batch once its oldest job has waited this
    /// long, even if more traffic keeps arriving.
    pub batch_wait: Duration,
    /// Open-connection cap; connections beyond it are answered 503 at
    /// accept time.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:8080".to_string(),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            log_requests: true,
            batch_max_rows: 64,
            batch_wait: Duration::from_millis(1),
            max_connections: 1024,
        }
    }
}

/// A running server; dropping it (or calling [`Server::shutdown`]) drains
/// in-flight requests and stops.
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    loop_handle: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, sets up the event loop and starts serving `app` on a
    /// background thread.
    pub fn spawn(app: Arc<App>, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let loop_handle = start(listener, app, config, Arc::clone(&shutdown))?;
        Ok(Server { local_addr, shutdown, loop_handle: Some(loop_handle) })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A flag that triggers shutdown when set (for signal handlers).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Stops accepting, drains in-flight requests, and joins the loop.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.loop_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(target_os = "linux")]
fn start(
    listener: TcpListener,
    app: Arc<App>,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<JoinHandle<()>> {
    let event_loop = crate::event::Loop::new(listener, app, config, shutdown)?;
    std::thread::Builder::new()
        .name("demodq-event-loop".to_string())
        .spawn(move || event_loop.run())
}

#[cfg(not(target_os = "linux"))]
fn start(
    _listener: TcpListener,
    _app: Arc<App>,
    _config: ServerConfig,
    _shutdown: Arc<AtomicBool>,
) -> std::io::Result<JoinHandle<()>> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "demodq-serve runs an epoll event loop and needs Linux",
    ))
}
