//! The TCP server: accept loop, per-connection framing and evaluation,
//! graceful shutdown.
//!
//! Each connection gets one thread that reads, frames, evaluates and
//! answers its own requests. Framing-level failures (oversized lines,
//! invalid UTF-8, idle timeouts) are answered with typed errors
//! directly; every well-framed line goes to [`Engine::handle_line`]
//! under a counting gate, so at most [`ServerConfig::threads`] requests
//! evaluate at once. Reads and writes block, bounded by the idle
//! timeout. A `shutdown` request (or [`Server::shutdown`]) stops the
//! accept loop; [`Server::join`] then shuts the read half of every live
//! connection, so idle readers see end-of-stream at once while requests
//! already read are still evaluated and answered, and joins all
//! threads.

use crate::engine::Engine;
use crate::protocol::{ErrorCode, MAX_REQUEST_BYTES};
use crate::registry::FlowRegistry;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning knobs (all have serviceable defaults).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Requests evaluated concurrently, across all connections; a
    /// connection with a request ready waits for a free slot.
    pub threads: usize,
    /// Hard bound on one request line, bytes.
    pub max_request_bytes: usize,
    /// Close a connection (with a typed `timeout` error) after this
    /// much client silence. Also bounds each response write, so a peer
    /// that accepts no bytes is dropped after this long too. Must be
    /// nonzero.
    pub idle_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            threads: 2,
            max_request_bytes: MAX_REQUEST_BYTES,
            idle_timeout: Duration::from_secs(300),
        }
    }
}

/// A live connection: its thread, and a second handle on its socket so
/// [`Server::join`] can end a blocked read.
type Connection = (JoinHandle<()>, TcpStream);

/// What the accept loop and every connection thread share.
#[derive(Debug)]
struct Shared {
    engine: Engine,
    gate: Gate,
    config: ServerConfig,
}

/// A running `ipassd` server.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// Returns the connections still live when it stops accepting.
    accept: JoinHandle<Vec<Connection>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start
    /// serving `registry`.
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`] for a zero
    /// [`ServerConfig::idle_timeout`] (sockets reject a zero timeout,
    /// so every connection would close unanswered); otherwise
    /// propagates the bind failure.
    pub fn start(
        registry: FlowRegistry,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        if config.idle_timeout.is_zero() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "idle_timeout must be nonzero",
            ));
        }
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine: Engine::new(registry),
            gate: Gate::new(config.threads),
            config,
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::spawn(move || accept_loop(&listener, &accept_shared));
        Ok(Server {
            addr,
            shared,
            accept,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine's cumulative [`ipass_obs::RunStats`] snapshot.
    pub fn run_stats(&self) -> ipass_obs::RunStats {
        self.shared.engine.run_stats()
    }

    /// Whether shutdown has been requested (by verb or by
    /// [`Server::shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.engine.shutdown_requested()
    }

    /// Request shutdown programmatically and wake the accept loop.
    pub fn shutdown(&self) {
        self.shared.engine.request_shutdown();
        // The accept loop blocks in `accept()`; a throwaway local
        // connection unblocks it so it can observe the latch.
        let _ = TcpStream::connect(self.addr);
    }

    /// Block until shutdown is requested (e.g. by a client's
    /// `shutdown` verb), then drain and join everything.
    pub fn wait(self) {
        self.shared.engine.wait_for_shutdown();
        self.join();
    }

    /// Drain in-flight work and join all threads. Call after
    /// [`Server::shutdown`] (it is invoked implicitly if shutdown was
    /// requested over the wire).
    pub fn join(self) {
        self.shutdown();
        let live = self.accept.join().unwrap_or_default();
        for (_, stream) in &live {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for (thread, _) in live {
            let _ = thread.join();
        }
    }
}

/// A counting gate: at most `permits` holders at once.
#[derive(Debug)]
struct Gate {
    free: Mutex<usize>,
    freed: Condvar,
}

/// One held slot of a [`Gate`], given back on drop.
struct Permit<'a>(&'a Gate);

impl Gate {
    fn new(permits: usize) -> Gate {
        Gate {
            free: Mutex::new(permits.max(1)),
            freed: Condvar::new(),
        }
    }

    /// Take a slot, waiting while all are held.
    fn enter(&self) -> Permit<'_> {
        let free = self.free.lock().unwrap_or_else(|p| p.into_inner());
        let mut free = self
            .freed
            .wait_while(free, |free| *free == 0)
            .unwrap_or_else(|p| p.into_inner());
        *free -= 1;
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *self.0.free.lock().unwrap_or_else(|p| p.into_inner()) += 1;
        self.0.freed.notify_one();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) -> Vec<Connection> {
    let mut live: Vec<Connection> = Vec::new();
    let engine = &shared.engine;
    for stream in listener.incoming() {
        if engine.shutdown_requested() {
            break;
        }
        let Ok(stream) = stream else { continue };
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        engine.serve.connections.fetch_add(1, Ordering::Relaxed);
        live.retain(|(thread, _)| !thread.is_finished());
        let shared = Arc::clone(shared);
        let thread = std::thread::spawn(move || serve_connection(stream, &shared));
        live.push((thread, handle));
    }
    live
}

fn serve_connection(mut stream: TcpStream, shared: &Shared) {
    let bound = Some(shared.config.idle_timeout);
    if stream.set_read_timeout(bound).is_ok() && stream.set_write_timeout(bound).is_ok() {
        serve_lines(&mut stream, shared);
    }
    // The server's handle on this socket keeps it open; close it
    // explicitly so the peer sees end-of-stream.
    let _ = stream.shutdown(Shutdown::Both);
}

fn serve_lines(stream: &mut TcpStream, shared: &Shared) {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut discarding = false;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return, // client closed, or the server is shutting down
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if !drain_lines(&mut buf, &mut discarding, stream, shared) {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                let line = shared.engine.frame_error(
                    ErrorCode::Timeout,
                    format!(
                        "connection idle for more than {:?}; closing",
                        shared.config.idle_timeout
                    ),
                );
                let _ = write_response(stream, &shared.engine, &line);
                return;
            }
            Err(_) => return,
        }
    }
}

/// Process every complete line in `buf`; returns `false` when the
/// connection should close (write failure). Handles the oversized-line
/// protocol: a buffer that outgrows the bound without a newline is
/// answered once and then discarded up to the next newline.
fn drain_lines(
    buf: &mut Vec<u8>,
    discarding: &mut bool,
    stream: &mut TcpStream,
    shared: &Shared,
) -> bool {
    let engine = &shared.engine;
    let max_request_bytes = shared.config.max_request_bytes;
    while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
        let line_bytes: Vec<u8> = buf.drain(..=pos).collect();
        let line_bytes = &line_bytes[..line_bytes.len() - 1];
        if std::mem::take(discarding) {
            // The tail of an already-answered oversized line.
            continue;
        }
        engine
            .serve
            .bytes_in
            .fetch_add(line_bytes.len() as u64 + 1, Ordering::Relaxed);
        let line_bytes = match line_bytes.split_last() {
            Some((b'\r', rest)) => rest,
            _ => line_bytes,
        };
        if line_bytes.is_empty() {
            continue; // blank keep-alive lines are not requests
        }
        let response = if line_bytes.len() > max_request_bytes {
            engine.frame_error(
                ErrorCode::OversizedRequest,
                format!(
                    "request line is {} bytes; the bound is {max_request_bytes}",
                    line_bytes.len(),
                ),
            )
        } else {
            match std::str::from_utf8(line_bytes) {
                Err(_) => {
                    engine.frame_error(ErrorCode::InvalidUtf8, "request line is not valid UTF-8")
                }
                Ok(line) => {
                    let _permit = shared.gate.enter();
                    engine.handle_line(line)
                }
            }
        };
        if !write_response(stream, engine, &response) {
            return false;
        }
    }
    if !*discarding && buf.len() > max_request_bytes {
        // No newline yet and already over budget: answer now, swallow
        // the rest of the line when it eventually arrives.
        let response = engine.frame_error(
            ErrorCode::OversizedRequest,
            format!("request line exceeds the {max_request_bytes}-byte bound"),
        );
        buf.clear();
        *discarding = true;
        if !write_response(stream, engine, &response) {
            return false;
        }
    }
    true
}

fn write_response(stream: &mut TcpStream, engine: &Engine, line: &str) -> bool {
    let mut bytes = Vec::with_capacity(line.len() + 1);
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    engine
        .serve
        .bytes_out
        .fetch_add(bytes.len() as u64, Ordering::Relaxed);
    stream
        .write_all(&bytes)
        .and_then(|()| stream.flush())
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testflow::demo_flow;
    use crate::Client;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn gate_admits_at_most_its_width() {
        let gate = Gate::new(2);
        let inside = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let _permit = gate.enter();
                        let now = inside.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        for _ in 0..20 {
                            std::thread::yield_now();
                        }
                        inside.fetch_sub(1, Ordering::SeqCst);
                        done.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(done.load(Ordering::SeqCst), 8 * 50);
        let peak = peak.load(Ordering::SeqCst);
        assert!((1..=2).contains(&peak), "peak concurrency {peak}");
    }

    #[test]
    fn finished_connections_are_reaped() {
        let mut registry = FlowRegistry::new();
        registry.register("demo", demo_flow());
        let server = Server::start(registry, "127.0.0.1:0", ServerConfig::default()).unwrap();
        for _ in 0..200 {
            let mut client = Client::connect(server.addr()).unwrap();
            client.request(r#"{"verb":"list"}"#).unwrap();
        }
        server.shutdown();
        let live = server.accept.join().unwrap();
        assert!(live.len() < 10, "{} connections still tracked", live.len());
        for (thread, _) in live {
            thread.join().unwrap();
        }
    }
}
