//! The speed probe: a fixed piece of work, timed, that tells how fast
//! the CPU under the calling thread runs right now.
//!
//! The reference box's two cores do not run at one speed. Other tenants
//! of the host share their execution units and caches, and from one
//! second to the next a core does the same work in 100%, 125% or 165%
//! of its best time — every thread on it, the server's included, and
//! the kernel's CPU-time accounting with them. No statistic over raw
//! slices is steady under that: a run's slices are a mixture of those
//! levels, and the mixture differs from run to run. So each generator
//! runs this probe between bursts, on the CPU it shares with the
//! server threads that serve its connection, and every timing of a
//! slice is stated at reference speed: what it would have been had the
//! probe taken [`ALU_REFERENCE_NS`] and [`TCP_REFERENCE_NS`].
//!
//! The probe shares no code with the server: a change to the server
//! cannot move it, so a correction by it cannot hide a change. Parent
//! and change are measured by the same probe with the same constants,
//! so the correction cannot favour either; what it does is take the
//! box's own wandering out of both.

use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Words in the first half's table: 256 KiB, resident in a core's
/// private cache, so the probe feels what a neighbour on the core does
/// to it.
const TABLE_WORDS: usize = 32 * 1024;
const TABLE_PASSES: usize = 3;
/// Round trips of the second half, and the bytes each way: a request
/// line and a reply of the size the workloads send.
const ROUND_TRIPS: usize = 150;
const REQUEST_BYTES: usize = 48;
const REPLY_BYTES: usize = 128;

/// Nanoseconds each half takes on the reference box with its cores to
/// itself: the fastest either was seen to run there, rounded.
pub const ALU_REFERENCE_NS: f64 = 1_000_000.0;
pub const TCP_REFERENCE_NS: f64 = 375_000.0;

/// How a timing shares the probe's slowing. Three kinds of timing
/// share it differently; each rule was fitted once on the reference
/// box and is fixed here. The sets of runs named below: *120 quiet*
/// (three sets of ten seeds of each workload, probe speeds ranging over
/// 30%), *40 mixed* (ten of each workload while the box went from its
/// best to 0.6 of it and back within twenty minutes) and *160 busy*
/// (four sets of ten seeds of each workload at speeds of 0.56 to 1.0).
/// "Spread" is the IQR of runs of one workload as a share of their
/// median; "reach" the distance from their first to their ninth decile.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Timing {
    /// `throughput_ops_s`, `latency_p50_us`, `cpu_us_per_op`: half of
    /// the probe's slowing down to [`KNEE`], all of it below. The probe
    /// is all work; a request is also hand-overs between threads and
    /// CPUs, which a neighbour on the core stretches less. Over the 120
    /// quiet runs the three spread by 6.0%, 5.5% and 5.8% uncorrected,
    /// 3.2%, 3.3% and 3.0% at an exponent of 0.5 and 4.2%, 4.4% and 4.3%
    /// at 1. But when the box falls below four fifths of its speed it is
    /// no longer a neighbour on the core: the host is taking the core
    /// away, and the server stops as the probe does. Over the 160 busy
    /// runs the kv workloads' three timings have a spread of 2.1-4.3% and
    /// a reach of 5.4-14.6% at an exponent of 0.5 throughout, 1.9-3.6%
    /// and 4.6-8.5% with the knee (`retwis_mix_full`: 5.4-6.2% and
    /// 11.3-13.7%, then 3.8-5.2% and 8.8-11.0%); over the 40 mixed runs,
    /// which had no part in choosing the knee, the reach on
    /// `kv_depth1_full` falls from 13.4-22.2% to 7.0-9.1%.
    Typical,
    /// `latency_p99_us`: [`TAIL_SENSITIVITY`] of it throughout. The
    /// slowest hundredth of the bursts are those that waited for a
    /// thread the box had slowed or stopped. Spread of p99 over the 120
    /// quiet runs: 9.0% uncorrected, 5.5% at 0.5, 4.3% at 0.8. Over the
    /// 160 busy runs, on `kv_read_full`, `kv_write_bare`,
    /// `kv_depth1_full` and `retwis_mix_full`: 7.9%, 9.6%, 8.8% and 7.2%
    /// at 0.5; 4.9%, 5.2%, 5.2% and 6.6% at 0.8. (At 0.5 the driver
    /// refused the benchmark: `kv_write_bare` spread its p99 by 9.5% and
    /// 11.8% in the driver's two sets of ten.)
    Tail,
    /// `setup_s`: all of it. A kv set-up is 14 ms of thread creation,
    /// connects and first touches, nearly all of it work in the kernel
    /// on cold caches. Over eighty of the busy runs the three kv
    /// workloads' set-up spreads by 7.5%, 7.9% and 11.6% at 0.5 and by
    /// 3.0%, 4.2% and 5.0% at 1; over the 40 mixed runs the slow runs'
    /// median is 15-29% off the fast runs' at 0.5 and 3-12% at 1.
    /// (`retwis_mix_full`'s set-up is a quarter of a second of pipelined
    /// commands and would rather have 0.5: 7.2% against 9.2%.)
    SetUp,
}

/// The share of the probe's slowing a [`Timing::Typical`] timing takes
/// on while the box runs at [`KNEE`] of its reference speed or faster.
pub const SENSITIVITY: f64 = 0.5;
/// Below this speed a typical timing slows as much as the probe does.
pub const KNEE: f64 = 0.8;
/// The share of the probe's slowing [`Timing::Tail`] takes on.
pub const TAIL_SENSITIVITY: f64 = 0.8;

/// The slowest the box ran in any run the rules above were fitted on.
/// In its deeper troughs the host takes the CPUs away for milliseconds
/// at a time, p99 rises fivefold, and no rule states that at reference
/// speed: `compare` calls such a run unresolved rather than worse.
pub const SLOWEST_FITTED: f64 = 0.6;

/// The factor that states a duration measured at `speed` at reference
/// speed (rates divide by it).
pub fn at_reference(speed: f64, timing: Timing) -> f64 {
    match timing {
        Timing::Typical if speed >= KNEE => speed.powf(SENSITIVITY),
        Timing::Typical => KNEE.powf(SENSITIVITY) * speed / KNEE,
        Timing::Tail => speed.powf(TAIL_SENSITIVITY),
        Timing::SetUp => speed,
    }
}

/// What probes measured over a stretch of time.
#[derive(Clone, Copy, Debug, Default)]
pub struct Readings {
    probes: u32,
    alu_ns: u64,
    tcp_ns: u64,
}

impl Readings {
    pub fn add(&mut self, other: &Readings) {
        self.probes += other.probes;
        self.alu_ns += other.alu_ns;
        self.tcp_ns += other.tcp_ns;
    }

    /// Time the probes themselves took: not the workload's.
    pub fn took(&self) -> Duration {
        Duration::from_nanos(self.alu_ns + self.tcp_ns)
    }

    /// Speed as a share of the reference (1.0: the box at its best):
    /// the geometric mean of the two halves' speeds, user-space work
    /// and kernel work weighing the same. Without a reading, 1.0.
    pub fn speed(&self) -> f64 {
        if self.probes == 0 {
            return 1.0;
        }
        let n = self.probes as f64;
        let alu = ALU_REFERENCE_NS * n / self.alu_ns as f64;
        let tcp = TCP_REFERENCE_NS * n / self.tcp_ns as f64;
        (alu * tcp).sqrt()
    }
}

pub struct Probe {
    table: Vec<u64>,
    state: u64,
    /// A loopback connection of the probe's own, both ends held by the
    /// one thread.
    near: TcpStream,
    far: TcpStream,
}

impl Probe {
    pub fn new() -> io::Result<Probe> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let near = TcpStream::connect(listener.local_addr()?)?;
        let (far, _) = listener.accept()?;
        near.set_nodelay(true)?;
        far.set_nodelay(true)?;
        Ok(Probe {
            table: (0..TABLE_WORDS as u64).collect(),
            state: 1,
            near,
            far,
        })
    }

    /// Do the fixed work once. The first half is dependent
    /// multiply-adds, each with a load from a data-dependent place and
    /// a store: the integer, branch and cache work of user-space code.
    /// The second half is loopback TCP writes and reads: the kernel
    /// path every request and reply takes.
    pub fn run(&mut self) -> io::Result<Readings> {
        let began = Instant::now();
        let mut x = self.state;
        for _ in 0..TABLE_PASSES {
            for i in 0..TABLE_WORDS {
                let at = (x >> 40) as usize % TABLE_WORDS;
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(self.table[at] ^ i as u64);
                self.table[i] = x;
            }
        }
        self.state = black_box(x);
        let turned = Instant::now();
        let mut buf = [0u8; REPLY_BYTES];
        for _ in 0..ROUND_TRIPS {
            self.near.write_all(&buf[..REQUEST_BYTES])?;
            self.far.read_exact(&mut buf[..REQUEST_BYTES])?;
            self.far.write_all(&buf)?;
            self.near.read_exact(&mut buf)?;
        }
        Ok(Readings {
            probes: 1,
            alu_ns: (turned - began).as_nanos() as u64,
            tcp_ns: turned.elapsed().as_nanos() as u64,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_the_geometric_mean_of_both_halves() {
        let reference = Readings {
            probes: 4,
            alu_ns: 4 * ALU_REFERENCE_NS as u64,
            tcp_ns: 4 * TCP_REFERENCE_NS as u64,
        };
        assert!((reference.speed() - 1.0).abs() < 1e-12);
        // One half at half speed, the other at reference: 1/sqrt(2).
        let mut slow = reference;
        slow.alu_ns *= 2;
        assert!((slow.speed() - 0.5f64.sqrt()).abs() < 1e-12);
        let mut both = Readings::default();
        assert_eq!(both.speed(), 1.0, "no reading corrects nothing");
        both.add(&reference);
        both.add(&slow);
        assert_eq!(both.probes, 8);
        assert_eq!(both.took(), reference.took() + slow.took());
    }

    #[test]
    fn a_slow_box_shortens_the_durations_it_reports() {
        for timing in [Timing::Typical, Timing::Tail, Timing::SetUp] {
            assert_eq!(at_reference(1.0, timing), 1.0);
        }
        // 10% slower probes: a median is stated about 5% shorter, a
        // set-up 10% shorter, and the tail between the two.
        let factor = at_reference(0.9, Timing::Typical);
        assert!(factor > 0.94 && factor < 0.96, "{factor}");
        assert!(at_reference(0.9, Timing::Tail) < factor);
        assert_eq!(at_reference(0.9, Timing::SetUp), 0.9);
        // The rule for typical timings is continuous at the knee, and
        // below it takes on all of the probe's further slowing.
        let at_knee = at_reference(KNEE, Timing::Typical);
        assert!((at_reference(KNEE - 1e-9, Timing::Typical) - at_knee).abs() < 1e-6);
        let half_the_knee = at_reference(KNEE / 2.0, Timing::Typical);
        assert!((half_the_knee - at_knee / 2.0).abs() < 1e-12);
    }
}
