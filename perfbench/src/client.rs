//! A minimal keep-alive HTTP/1.1 client for `POST /v1/predict`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One keep-alive connection; reconnects after the server closes it.
pub struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
}

impl Client {
    /// A client for the server at `addr` (connects lazily).
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, conn: None }
    }

    fn connect(&mut self) -> std::io::Result<&mut BufReader<TcpStream>> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(120)))?;
            self.conn = Some(BufReader::new(stream));
        }
        Ok(self.conn.as_mut().expect("connected above"))
    }

    /// Sends one `POST` and reads the whole response: (status, body).
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, Vec<u8>)> {
        let result = self.exchange(path, body);
        if !matches!(result, Ok((_, _, true))) {
            // Error or `Connection: close`: start over next time.
            self.conn = None;
        }
        result.map(|(status, body, _)| (status, body))
    }

    fn exchange(&mut self, path: &str, body: &str) -> std::io::Result<(u16, Vec<u8>, bool)> {
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let conn = self.connect()?;
        conn.get_mut().write_all(request.as_bytes())?;
        let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());

        let mut line = String::new();
        conn.read_line(&mut line)?;
        let status: u16 = line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = None;
        let mut keep_alive = true;
        loop {
            line.clear();
            if conn.read_line(&mut line)? == 0 {
                return Err(bad("eof in headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.parse::<usize>().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    keep_alive = !value.eq_ignore_ascii_case("close");
                }
            }
        }
        let mut payload = vec![0u8; length.ok_or_else(|| bad("no content-length"))?];
        conn.read_exact(&mut payload)?;
        Ok((status, payload, keep_alive))
    }
}

/// The top-level `"prediction"` object of a pretty-printed response,
/// as bytes: comparing it byte for byte compares every float bit for bit
/// without parsing the whole ~100 KB body.
pub fn prediction_slice(body: &[u8]) -> Option<&[u8]> {
    const KEY: &[u8] = b"\n  \"prediction\": {";
    const END: &[u8] = b"\n  }";
    let start = find(body, KEY)? + KEY.len() - 1;
    let len = find(&body[start..], END)? + END.len();
    Some(&body[start..start + len])
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

#[cfg(test)]
mod tests {
    use super::prediction_slice;

    #[test]
    fn prediction_slice_takes_the_top_level_object_only() {
        let body = b"{\n  \"a\": 1,\n  \"prediction\": {\n    \"x\": {\n      \"y\": 2\n    }\n  },\n  \"telemetry\": {\n    \"prediction\": {}\n  }\n}";
        let slice = prediction_slice(body).expect("present");
        assert_eq!(
            std::str::from_utf8(slice).unwrap(),
            "{\n    \"x\": {\n      \"y\": 2\n    }\n  }"
        );
        assert_eq!(prediction_slice(b"{\"prediction\":{}}"), None);
    }
}
