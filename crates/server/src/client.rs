//! A minimal blocking HTTP/1.1 client for loopback use: the integration
//! tests, the throughput bench, and ad-hoc driving of a local server.
//! Keep-alive by default — one `HttpClient` can issue many requests over
//! a single connection, and it reconnects transparently after a response
//! that carries `Connection: close` (the server ends a connection after
//! its per-connection request budget).

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A parsed response.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers with lower-cased names.
    pub headers: Vec<(String, String)>,
    /// Body as UTF-8.
    pub body: String,
}

impl ClientResponse {
    /// First header with the given (lower-case) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// A keep-alive connection to one server.
#[derive(Debug)]
pub struct HttpClient {
    /// The server address the connection was opened to, for reconnects.
    addr: SocketAddr,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The last response said `Connection: close`: the server is done
    /// with this socket, so the next request opens a fresh one.
    closed: bool,
}

impl HttpClient {
    /// Connects to `addr`.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        let addr = stream.peer_addr()?;
        let (reader, writer) = Self::open(stream)?;
        Ok(HttpClient {
            addr,
            reader,
            writer,
            closed: false,
        })
    }

    fn open(stream: TcpStream) -> io::Result<(BufReader<TcpStream>, TcpStream)> {
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok((BufReader::new(stream.try_clone()?), stream))
    }

    /// Replaces the connection with a fresh one when the server closed
    /// the current one.
    fn reconnect_if_closed(&mut self) -> io::Result<()> {
        if self.closed {
            let (reader, writer) = Self::open(TcpStream::connect(self.addr)?)?;
            self.reader = reader;
            self.writer = writer;
            self.closed = false;
        }
        Ok(())
    }

    /// Issues a GET.
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// Issues a POST with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<ClientResponse> {
        self.request("POST", path, Some(body))
    }

    /// Writes one request and reads one response off the shared
    /// connection.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<ClientResponse> {
        let body = body.unwrap_or("");
        self.reconnect_if_closed()?;
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )?;
        self.writer.write_all(body.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Writes `n` identical requests back-to-back, then reads all `n`
    /// responses — HTTP pipelining, for testing and for amortizing
    /// round-trips in the throughput bench.
    pub fn pipeline(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        n: usize,
    ) -> io::Result<Vec<ClientResponse>> {
        let mut batch = String::with_capacity(n * (64 + body.len()));
        for _ in 0..n {
            batch.push_str(&format!(
                "{method} {path} HTTP/1.1\r\nhost: localhost\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            ));
        }
        self.reconnect_if_closed()?;
        self.writer.write_all(batch.as_bytes())?;
        self.writer.flush()?;
        (0..n).map(|_| self.read_response()).collect()
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let status_line = self.read_line()?;
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            })?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let len: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .unwrap_or(0);
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
        self.closed = headers
            .iter()
            .any(|(k, v)| k == "connection" && v.eq_ignore_ascii_case("close"));
        Ok(ClientResponse {
            status,
            headers,
            body,
        })
    }
}
