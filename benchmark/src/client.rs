//! The benchmark's own wire client: a raw `TcpStream`, pre-formatted
//! request bytes out, reply lines counted and kind-checked in. It
//! shares no code with `dego_server::Client`, so a change to that
//! client cannot move a benchmark number.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// What one `recv` saw, beyond the replies being there.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Replies whose kind byte was not the one the command calls for
    /// (an `-ERR` where data was due counts here too).
    pub wrong_kind: u64,
    /// `-ERR <LAYER> ...` rejections by a middleware layer.
    pub rejections: u64,
    /// Reply bytes read, terminators included.
    pub bytes: u64,
    /// Array replies and the element lines they carried.
    pub arrays: u64,
    pub array_items: u64,
}

impl Tally {
    pub fn add(&mut self, other: &Tally) {
        self.wrong_kind += other.wrong_kind;
        self.rejections += other.rejections;
        self.bytes += other.bytes;
        self.arrays += other.arrays;
        self.array_items += other.array_items;
    }
}

/// The layer names of the error-reply grammar (`-ERR <LAYER> detail`).
const LAYER_TAGS: [&[u8]; 7] = [
    b"TRACE",
    b"BREAKER",
    b"DEADLINE",
    b"AUTH",
    b"RATELIMIT",
    b"SHED",
    b"TTL",
];

fn is_layer_rejection(line: &[u8]) -> bool {
    line.strip_prefix(b"-ERR ").is_some_and(|rest| {
        LAYER_TAGS.iter().any(|tag| {
            rest.strip_prefix(*tag)
                .is_some_and(|r| r.first() == Some(&b' '))
        })
    })
}

pub struct Conn<S = TcpStream> {
    stream: S,
    buf: Vec<u8>,
    /// `buf[start..end]` is read but not yet consumed.
    start: usize,
    end: usize,
    /// When the first byte of the latest `recv` arrived, if `recv` was
    /// asked to note it (traced bursts only).
    pub first_byte_at: Option<Instant>,
}

impl Conn<TcpStream> {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn::over(stream, 64 * 1024))
    }
}

impl<S: Read + Write> Conn<S> {
    fn over(stream: S, buffer: usize) -> Conn<S> {
        Conn {
            stream,
            buf: vec![0; buffer],
            start: 0,
            end: 0,
            first_byte_at: None,
        }
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            if self.start == 0 {
                return Err(io::Error::other("reply line longer than the read buffer"));
            }
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.end += n;
        Ok(())
    }

    /// The next complete line, without its `\n`.
    fn line(&mut self, note_first: bool) -> io::Result<(usize, usize)> {
        // Bytes past `start` already searched; `fill` may move the
        // pending bytes, so the offset is kept relative.
        let mut scanned = 0;
        loop {
            let from = self.start + scanned;
            if let Some(at) = self.buf[from..self.end].iter().position(|b| *b == b'\n') {
                let line = (self.start, from + at);
                self.start = from + at + 1;
                return Ok(line);
            }
            scanned = self.end - self.start;
            self.fill()?;
            if note_first && self.first_byte_at.is_none() {
                self.first_byte_at = Some(Instant::now());
            }
        }
    }

    /// Read one reply per entry of `kinds`, checking each reply's kind
    /// byte against it. An array reply (`*n`) spans `n` more lines.
    /// With `note_first`, `first_byte_at` is set when the first read
    /// that had to wait returns.
    pub fn recv(&mut self, kinds: &[u8], note_first: bool) -> io::Result<Tally> {
        let mut tally = Tally::default();
        self.first_byte_at = None;
        for expected in kinds {
            let (from, to) = self.line(note_first)?;
            tally.bytes += (to - from + 1) as u64;
            let head = &self.buf[from..to];
            let kind = head.first().copied().unwrap_or(0);
            if kind != *expected {
                tally.wrong_kind += 1;
                if is_layer_rejection(head) {
                    tally.rejections += 1;
                }
            }
            if kind == b'*' {
                let items: u64 = std::str::from_utf8(&head[1..])
                    .ok()
                    .and_then(|n| n.trim_end().parse().ok())
                    .ok_or_else(|| io::Error::other("unreadable array header"))?;
                tally.arrays += 1;
                tally.array_items += items;
                for _ in 0..items {
                    let (from, to) = self.line(note_first)?;
                    tally.bytes += (to - from + 1) as u64;
                }
            }
        }
        if note_first && self.first_byte_at.is_none() {
            // Every reply was already buffered: it arrived with the
            // previous read, so there was no wait to time.
            self.first_byte_at = Some(Instant::now());
        }
        Ok(tally)
    }

    /// Read one reply per entry of `expected` and compare whole reply
    /// lines (single-line replies only): the read-back check. Returns
    /// how many differed.
    pub fn recv_exact(&mut self, expected: &[Vec<u8>]) -> io::Result<u64> {
        let mut wrong = 0;
        for want in expected {
            let (from, to) = self.line(false)?;
            if &self.buf[from..to] != want.as_slice() {
                wrong += 1;
            }
        }
        Ok(wrong)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out its script a few bytes per read, to cross every
    /// buffer boundary the parser has.
    struct Drip {
        script: Vec<u8>,
        at: usize,
        step: usize,
    }

    impl Read for Drip {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(buf.len()).min(self.script.len() - self.at);
            buf[..n].copy_from_slice(&self.script[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    impl Write for Drip {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn drip(script: &str, step: usize, buffer: usize) -> Conn<Drip> {
        Conn::over(
            Drip {
                script: script.as_bytes().to_vec(),
                at: 0,
                step,
            },
            buffer,
        )
    }

    #[test]
    fn replies_are_counted_across_read_boundaries() {
        let script = "+OK\n$0123456789abcdef\n:42\n*2\n:7\n:8\n*0\n_\n+PONG\n";
        for step in [1, 2, 3, 5, 64] {
            // A 24-byte buffer forces the compaction path too.
            let mut conn = drip(script, step, 24);
            let tally = conn.recv(b"+$:**_", true).unwrap();
            assert_eq!(
                tally,
                Tally {
                    wrong_kind: 0,
                    rejections: 0,
                    bytes: (script.len() - 6) as u64,
                    arrays: 2,
                    array_items: 2,
                },
                "step {step}"
            );
            assert!(conn.first_byte_at.is_some());
            // The PING reply is still there for the next burst.
            assert_eq!(conn.recv(b"+", false).unwrap().bytes, 6);
            assert!(conn.recv(b"+", false).is_err(), "end of stream is an error");
        }
    }

    #[test]
    fn wrong_kinds_and_rejections_are_counted() {
        let mut conn = drip(
            "-ERR RATELIMIT rejected retry_us=1\n-ERR nope\n_\n$v\n",
            7,
            64,
        );
        let tally = conn.recv(b"+$$$", false).unwrap();
        assert_eq!(tally.wrong_kind, 3);
        assert_eq!(tally.rejections, 1);
    }

    #[test]
    fn read_back_compares_whole_lines() {
        let mut conn = drip("$abc\n:5\n:0\n", 2, 64);
        let want = [b"$abc".to_vec(), b":6".to_vec(), b":0".to_vec()];
        assert_eq!(conn.recv_exact(&want).unwrap(), 1);
    }

    #[test]
    fn an_overlong_line_is_an_error_not_a_hang() {
        let mut conn = drip("$0123456789abcdef0123456789\n", 4, 16);
        assert!(conn.recv(b"$", false).is_err());
    }

    #[test]
    fn layer_rejections_are_told_from_other_errors() {
        assert!(is_layer_rejection(b"-ERR RATELIMIT rejected retry_us=5"));
        assert!(is_layer_rejection(
            b"-ERR SHED shard=2 queue_depth=9 limit=1"
        ));
        assert!(!is_layer_rejection(b"-ERR unknown verb \"BLORP\""));
        assert!(!is_layer_rejection(b"-ERR TTLX whatever"));
        assert!(!is_layer_rejection(b"+OK"));
    }
}
