//! The scripted raw-socket peer the wire-level tests share: every byte
//! it sends is under test control, so torn lines, duplicate and conflicting
//! records, out-of-plan indices and a peer that sits on a lease can all be
//! produced on demand. Mostly a worker ([`Conn::connect`]); for the tests
//! of the real worker's error paths, a coordinator ([`Conn::accept`]).
#![allow(dead_code)] // each test binary uses its own subset

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use dispatch::proto::PROTO_VERSION;
use dispatch::{parse_frame, CampaignSpec, Frame};

/// A scripted worker connection: raw line I/O, 5 s read timeout so a
/// coordinator bug fails the test instead of hanging it.
pub struct Conn {
    r: BufReader<TcpStream>,
    w: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> Conn {
        Conn::over(TcpStream::connect(addr).expect("connect"))
    }

    /// The coordinator's end of the next connection to `listener`.
    pub fn accept(listener: &TcpListener) -> Conn {
        Conn::over(listener.accept().expect("accept").0)
    }

    fn over(w: TcpStream) -> Conn {
        w.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        Conn {
            r: BufReader::new(w.try_clone().unwrap()),
            w,
        }
    }

    pub fn send_line(&mut self, line: &str) {
        self.w.write_all(line.as_bytes()).expect("send");
        self.w.write_all(b"\n").expect("send");
    }

    pub fn send(&mut self, f: &Frame) {
        self.send_line(&f.to_json());
    }

    pub fn recv(&mut self) -> Frame {
        let mut line = String::new();
        self.r.read_line(&mut line).expect("recv");
        parse_frame(line.trim_end_matches('\n'))
            .unwrap_or_else(|| panic!("unparseable frame {line:?}"))
    }

    /// Whether the coordinator hung up without sending anything.
    pub fn closed(&mut self) -> bool {
        let mut line = String::new();
        matches!(self.r.read_line(&mut line), Ok(0))
    }

    /// Run the hello → job → ready handshake, returning the job.
    pub fn handshake(&mut self, name: &str) -> (CampaignSpec, usize, u64) {
        self.send(&Frame::Hello {
            worker: name.into(),
            proto: PROTO_VERSION,
        });
        let (spec, shards, fingerprint) = self.await_job();
        self.send(&Frame::Ready { fingerprint });
        (spec, shards, fingerprint)
    }

    /// The next frame that is not a `wait` (each of which is polled).
    fn past_waits(&mut self) -> Frame {
        loop {
            match self.recv() {
                Frame::Wait { ms } => {
                    std::thread::sleep(Duration::from_millis(ms));
                    self.send(&Frame::Poll);
                }
                f => return f,
            }
        }
    }

    /// Poll until the coordinator describes a (or the next) plan.
    pub fn await_job(&mut self) -> (CampaignSpec, usize, u64) {
        match self.past_waits() {
            Frame::Job {
                spec,
                shards,
                fingerprint,
            } => (spec, shards, fingerprint),
            f => panic!("expected job/wait, got {f:?}"),
        }
    }

    /// Poll until the coordinator ends the campaign.
    pub fn await_shutdown(&mut self) {
        match self.past_waits() {
            Frame::Shutdown => {}
            f => panic!("expected shutdown/wait, got {f:?}"),
        }
    }

    /// Poll until the coordinator grants a lease.
    pub fn await_lease(&mut self) -> (usize, Vec<usize>) {
        match self.past_waits() {
            Frame::Lease { shard, done, .. } => (shard, done),
            f => panic!("expected lease/wait, got {f:?}"),
        }
    }
}
