//! A minimal blocking client for the `ipassd` wire protocol — the
//! harness the test battery, the load bench and `ipassd --smoke` all
//! drive the server with.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One protocol connection: line-oriented request/response.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connect to a server.
    ///
    /// # Errors
    ///
    /// Propagates the connect failure.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        // A generous client-side guard so a wedged server fails a test
        // instead of hanging it.
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Client {
            reader: BufReader::new(stream),
        })
    }

    /// Send one request line and read the one response line (both
    /// without their trailing newline).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures (including a server-side close).
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        // One write for line and newline: one syscall, and the server
        // never wakes on a line whose newline is still in flight.
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.send_raw(&framed)?;
        self.read_line()
    }

    /// Write raw bytes without framing — the robustness tests use this
    /// for partial writes and non-UTF-8 payloads.
    ///
    /// # Errors
    ///
    /// Propagates the write failure.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut stream = self.reader.get_ref();
        stream.write_all(bytes)?;
        stream.flush()
    }

    /// Read one response line (trailing newline stripped).
    ///
    /// # Errors
    ///
    /// Propagates read failures; a clean server-side close surfaces as
    /// [`std::io::ErrorKind::UnexpectedEof`].
    pub fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    /// Whether the server has closed this connection (a zero-byte
    /// read). Consumes at most one pending byte of the stream, so only
    /// call it when no response is outstanding.
    pub fn is_closed(&mut self) -> bool {
        let stream = self.reader.get_ref();
        let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
        let mut probe = [0u8; 1];
        matches!(self.reader.get_ref().take(1).read(&mut probe), Ok(0))
    }
}
