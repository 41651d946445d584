//! The client side of RESP2: request encoding and a reply frame scanner.
//!
//! The scanner is the benchmark's own, deliberately independent of
//! `abase_proto`, so a parser bug in the server cannot hide behind the same
//! bug in the checker. It understands the reply shapes the workloads get
//! back: simple strings, errors, integers, bulk strings (and nil), and arrays
//! of bulk strings.

use std::io::Read;
use std::net::TcpStream;
use std::ops::Range;

/// Largest bulk string or array the scanner accepts (a corrupt length must
/// not make the client allocate without bound).
const MAX_LEN: usize = 64 << 20;

/// One reply frame. Byte payloads are ranges into the buffer it was
/// scanned from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// `+text`
    Simple(Range<usize>),
    /// `-text`
    Error(Range<usize>),
    /// `:n`
    Int(i64),
    /// `$n` payload, or `None` for `$-1`.
    Bulk(Option<Range<usize>>),
    /// `*n` of bulk strings, or `None` for `*-1`.
    Array(Option<Vec<Option<Range<usize>>>>),
}

/// Scan one complete frame starting at `pos`. Returns the frame (ranges
/// absolute in `buf`) and the position just past it, `Ok(None)` when the
/// frame is not complete yet, or an error for bytes that are not a reply.
pub fn scan(buf: &[u8], pos: usize) -> Result<Option<(Frame, usize)>, String> {
    let Some((tag, line, next)) = header(buf, pos)? else {
        return Ok(None);
    };
    match tag {
        b'+' => Ok(Some((Frame::Simple(line), next))),
        b'-' => Ok(Some((Frame::Error(line), next))),
        b':' => Ok(Some((Frame::Int(int(&buf[line])?), next))),
        b'$' => Ok(bulk_body(buf, &line, next)?.map(|(b, end)| (Frame::Bulk(b), end))),
        b'*' => {
            let n = int(&buf[line])?;
            if n < 0 {
                return Ok(Some((Frame::Array(None), next)));
            }
            let n = bounded(n)?;
            let mut items = Vec::with_capacity(n.min(1024));
            let mut at = next;
            for _ in 0..n {
                let Some((tag, line, after)) = header(buf, at)? else {
                    return Ok(None);
                };
                if tag != b'$' {
                    return Err(format!("array item of type {:?}", tag as char));
                }
                let Some((item, end)) = bulk_body(buf, &line, after)? else {
                    return Ok(None);
                };
                items.push(item);
                at = end;
            }
            Ok(Some((Frame::Array(Some(items)), at)))
        }
        other => Err(format!("unknown reply type byte {other:#04x}")),
    }
}

/// The type byte, the header line's content range, and the position after
/// its CRLF.
fn header(buf: &[u8], pos: usize) -> Result<Option<(u8, Range<usize>, usize)>, String> {
    let Some(&tag) = buf.get(pos) else {
        return Ok(None);
    };
    let Some(cr) = buf[pos..].iter().position(|&b| b == b'\r') else {
        return Ok(None);
    };
    let cr = pos + cr;
    match buf.get(cr + 1) {
        None => Ok(None),
        Some(b'\n') => Ok(Some((tag, pos + 1..cr, cr + 2))),
        Some(_) => Err("CR without LF".into()),
    }
}

/// A bulk string's payload range (`None` for nil) and the position after it.
type Bulk = (Option<Range<usize>>, usize);

fn bulk_body(buf: &[u8], line: &Range<usize>, body: usize) -> Result<Option<Bulk>, String> {
    let n = int(&buf[line.clone()])?;
    if n < 0 {
        return Ok(Some((None, body)));
    }
    let n = bounded(n)?;
    let end = body + n;
    if buf.len() < end + 2 {
        return Ok(None);
    }
    if &buf[end..end + 2] != b"\r\n" {
        return Err("bulk string not terminated by CRLF".into());
    }
    Ok(Some((Some(body..end), end + 2)))
}

fn int(text: &[u8]) -> Result<i64, String> {
    std::str::from_utf8(text)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad integer {:?}", String::from_utf8_lossy(text)))
}

fn bounded(n: i64) -> Result<usize, String> {
    usize::try_from(n)
        .ok()
        .filter(|&n| n <= MAX_LEN)
        .ok_or_else(|| format!("length {n} out of range"))
}

/// Buffered reply reader over one connection.
pub struct Replies {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Replies {
    pub fn new(stream: TcpStream) -> Self {
        Replies {
            stream,
            buf: vec![0; 256 << 10],
            start: 0,
            end: 0,
        }
    }

    /// The next reply frame, blocking until it is complete. The returned
    /// slice is the buffer the frame's ranges index.
    pub fn next(&mut self) -> Result<(Frame, &[u8]), String> {
        loop {
            if let Some(frame) = self.buffered()? {
                return Ok((frame, self.buf()));
            }
            self.read_some()?;
        }
    }

    /// The next frame already in the buffer, if it is complete. Its ranges
    /// index [`Replies::buf`] until the next read.
    pub fn buffered(&mut self) -> Result<Option<Frame>, String> {
        let Some((frame, used)) = scan(&self.buf[..self.end], self.start)? else {
            return Ok(None);
        };
        self.start = used;
        Ok(Some(frame))
    }

    pub fn buf(&self) -> &[u8] {
        &self.buf[..self.end]
    }

    /// One read from the socket into the buffer. Returns false when a
    /// non-blocking socket has nothing to read.
    pub fn read_some(&mut self) -> Result<bool, String> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                let len = self.buf.len();
                self.buf.resize(len * 2, 0);
            }
        }
        loop {
            match self.stream.read(&mut self.buf[self.end..]) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(n) => {
                    self.end += n;
                    return Ok(true);
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}

/// Append `args` as one RESP array of bulk strings.
pub fn push_command(out: &mut Vec<u8>, args: &[&[u8]]) {
    push_len(out, b'*', args.len());
    for arg in args {
        push_len(out, b'$', arg.len());
        out.extend_from_slice(arg);
        out.extend_from_slice(b"\r\n");
    }
}

fn push_len(out: &mut Vec<u8>, tag: u8, n: usize) {
    out.push(tag);
    push_decimal(out, n as u64);
    out.extend_from_slice(b"\r\n");
}

/// Append the decimal digits of `n`.
pub fn push_decimal(out: &mut Vec<u8>, n: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    let mut n = n;
    loop {
        i -= 1;
        digits[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all(buf: &[u8]) -> Vec<Frame> {
        let mut pos = 0;
        let mut out = Vec::new();
        while let Some((f, next)) = scan(buf, pos).unwrap() {
            out.push(f);
            pos = next;
        }
        assert_eq!(pos, buf.len(), "trailing bytes left unscanned");
        out
    }

    #[test]
    fn scans_every_reply_shape() {
        let buf = b"+OK\r\n-ERR no\r\n:-7\r\n$3\r\nabc\r\n$-1\r\n*2\r\n$1\r\nf\r\n$0\r\n\r\n*-1\r\n*0\r\n";
        let frames = all(buf);
        assert_eq!(frames[0], Frame::Simple(1..3));
        assert_eq!(frames[1], Frame::Error(6..12));
        assert_eq!(frames[2], Frame::Int(-7));
        assert_eq!(frames[3], Frame::Bulk(Some(23..26)));
        assert_eq!(frames[4], Frame::Bulk(None));
        assert_eq!(
            frames[5],
            Frame::Array(Some(vec![Some(41..42), Some(48..48)]))
        );
        assert_eq!(frames[6], Frame::Array(None));
        assert_eq!(frames[7], Frame::Array(Some(vec![])));
    }

    #[test]
    fn every_strict_prefix_is_incomplete() {
        let buf = b"*2\r\n$1\r\nf\r\n$5\r\nhello\r\n";
        for cut in 0..buf.len() {
            assert_eq!(scan(&buf[..cut], 0).unwrap(), None, "prefix of {cut} bytes");
        }
        assert!(scan(buf, 0).unwrap().is_some());
    }

    #[test]
    fn rejects_malformed_replies() {
        assert!(scan(b"?x\r\n", 0).is_err());
        assert!(scan(b":12a\r\n", 0).is_err());
        assert!(scan(b"$3\r\nabcd\r\n", 0).is_err());
        assert!(scan(b"*1\r\n:1\r\n", 0).is_err());
        assert!(scan(b"$999999999999\r\n", 0).is_err());
        assert!(scan(b"+OK\rX", 0).is_err());
    }

    #[test]
    fn encodes_commands_as_bulk_arrays() {
        let mut out = Vec::new();
        push_command(&mut out, &[b"SET", b"k", b""]);
        assert_eq!(out, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$0\r\n\r\n");
        let mut n = Vec::new();
        push_decimal(&mut n, 0);
        push_decimal(&mut n, 1_234_567);
        assert_eq!(n, b"01234567");
    }
}
