//! The generators' HTTP client: one keep-alive connection each, framed
//! by `p3-net`'s own request writer and response parser.

use p3_net::{Method, Request, Response};
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    addr: SocketAddr,
    stream: BufReader<TcpStream>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
        // A hung server must fail the run, not hang it.
        let limit = Some(Duration::from_secs(20));
        stream.set_read_timeout(limit).map_err(|e| format!("timeout: {e}"))?;
        stream.set_write_timeout(limit).map_err(|e| format!("timeout: {e}"))?;
        Ok(Conn { addr, stream: BufReader::new(stream) })
    }

    /// One exchange on the kept-alive connection. No reconnect and no
    /// retry: an error is a failed operation.
    pub fn send(&mut self, mut request: Request) -> Result<Response, String> {
        request.headers.set("host", self.addr.to_string());
        request.write_to(self.stream.get_mut()).map_err(|e| format!("send: {e}"))?;
        Response::read_from(&mut self.stream).map_err(|e| format!("receive: {e:?}"))
    }

    pub fn get(&mut self, target: &str) -> Result<Response, String> {
        self.send(Request::new(Method::Get, target, Vec::new()))
    }

    pub fn put(&mut self, target: &str, body: Vec<u8>) -> Result<Response, String> {
        let mut request = Request::new(Method::Put, target, body);
        request.headers.set("content-type", "application/octet-stream");
        self.send(request)
    }

    pub fn delete(&mut self, target: &str) -> Result<Response, String> {
        self.send(Request::new(Method::Delete, target, Vec::new()))
    }

    pub fn post_jpeg(&mut self, target: &str, jpeg: Vec<u8>) -> Result<Response, String> {
        let mut request = Request::new(Method::Post, target, jpeg);
        request.headers.set("content-type", "image/jpeg");
        self.send(request)
    }
}
