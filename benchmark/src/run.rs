//! The run shape shared by every workload: set up (spawn, connect,
//! preload), warm up, then a measured window cut into slices, then the
//! read-back check.

use crate::client::{Conn, Tally};
use crate::procstat;
use crate::speed::{self, Probe, Readings, Timing};
use crate::stats::{percentile, Spread};
use crate::workload::{self, Model, Stream, Workload, CONNS};
use dego_server::{spawn, MiddlewareConfig, ServerConfig, ServerHandle, StatsSnapshot};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Storage shards of every server the benchmark boots: one per core of
/// the reference box.
pub const SHARDS: usize = 2;
/// Seconds of traffic before the measured window, not recorded.
pub const WARMUP_SECS: f64 = 3.0;
/// The measured window of an end-to-end run and its slices. Every
/// timing is computed per slice; the reported value is the median
/// slice, its spread the slices' IQR. `BENCHMARK.json`'s `run_seconds`
/// is `WINDOW_SECS`, and `--seconds` takes no other value.
pub const WINDOW_SECS: f64 = 20.0;
pub const SLICES: usize = 10;
/// Each window of the traced pass, and its slices.
pub const TRACED_WINDOW_SECS: f64 = 5.0;
pub const TRACED_SLICES: usize = 5;
/// How often each generator reads its CPU's speed (see `speed`): forty
/// readings a two-second slice, under 4% of a generator's time.
pub const PROBE_EVERY: Duration = Duration::from_millis(50);
/// With tracing on, one burst in this many records spans.
pub const TRACE_EVERY: u64 = 256;

/// The server a workload runs against: two shards, the workload's
/// capacity and middleware, and the shipped default for everything
/// else — so a changed default shows in the numbers, and a deleted A/B
/// field does not break the build.
pub fn server_config(workload: &Workload, middleware: MiddlewareConfig) -> ServerConfig {
    ServerConfig {
        shards: SHARDS,
        capacity: workload.capacity,
        middleware,
        ..ServerConfig::default()
    }
}

/// The middleware a workload is defined with.
pub fn default_middleware(workload: &Workload) -> MiddlewareConfig {
    if workload.full_stack {
        MiddlewareConfig::full()
    } else {
        MiddlewareConfig::none()
    }
}

/// Everything generated from the seed, before any clock starts.
pub struct Inputs {
    preloads: Vec<Stream>,
    pools: Vec<Arc<Stream>>,
}

impl Inputs {
    pub fn generate(workload: &Workload, seed: u64) -> Inputs {
        Inputs {
            preloads: (0..CONNS)
                .map(|conn| workload::preload(workload, seed, conn))
                .collect(),
            pools: (0..CONNS)
                .map(|conn| Arc::new(workload::pool(workload, seed, conn)))
                .collect(),
        }
    }

    pub fn pool(&self, conn: usize) -> &Stream {
        &self.pools[conn]
    }
}

/// A benchmark-side span: what the client was doing, and for how long.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one burst share an id; `parent` is 0 for the root.
    pub burst: u64,
    pub id: u8,
    pub parent: u8,
    pub conn: u8,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One connection and the thread-local state that drives it.
pub struct Generator {
    index: usize,
    conn: Conn,
    pool: Arc<Stream>,
    model: Model,
    probe: Probe,
    next_burst: usize,
    /// Commands sent and awaited on this connection since it opened.
    pub commands: u64,
    pub singles: u64,
    pub posts: u64,
    pub tally: Tally,
    /// Read-back replies that differed from the model.
    pub stale: u64,
}

impl Generator {
    /// Send a whole stream burst by burst, closed loop.
    fn play(&mut self, stream: &Stream) -> io::Result<()> {
        for i in 0..stream.bursts() {
            let burst = stream.burst(i);
            self.conn.send(burst.bytes)?;
            let tally = self.conn.recv(burst.kinds, false)?;
            self.note(&burst, &tally);
        }
        Ok(())
    }

    #[inline]
    fn note(&mut self, burst: &workload::Burst<'_>, tally: &Tally) {
        self.commands += burst.kinds.len() as u64;
        self.singles += burst.singles as u64;
        self.posts += burst.posts as u64;
        self.tally.add(tally);
    }

    /// Read every owned row back and compare with the model.
    fn read_back(&mut self) -> io::Result<()> {
        let (stream, expected) = self.model.read_back();
        let mut at = 0;
        for i in 0..stream.bursts() {
            let burst = stream.burst(i);
            self.conn.send(burst.bytes)?;
            let n = burst.kinds.len();
            self.stale += self.conn.recv_exact(&expected[at..at + n])?;
            self.commands += n as u64;
            at += n;
        }
        Ok(())
    }
}

/// The `i`-th CPU of those this process may use, wrapping around.
fn cpu_for(index: usize) -> usize {
    let allowed = procstat::allowed_cpus();
    allowed[index % allowed.len()]
}

/// Pin the calling thread as generator `index`: connection `i` is
/// driven from CPU `i`.
pub fn pin_generator(index: usize) {
    procstat::pin_thread(procstat::current_tid(), cpu_for(index))
        .expect("a thread may pin itself to a CPU it is allowed on");
}

/// Where a server's threads were put: `(thread name, CPU)`.
pub type Placement = Vec<(String, usize)>;

/// Pin the server's event loops and shard owners by their thread names
/// (`dego-loop-<i>`, `dego-shard-<i>`): number `i` runs on CPU `i`, the
/// CPU of generator `i`, whose connection event loop `i` serves.
///
/// Left to the scheduler, a connection's generator and event loop land
/// on one core in some runs and on two in others, and stay there: on
/// the reference box that alone moves a depth-1 round trip between
/// 37 us and 90 us from one run to the next. Placement is fixed from
/// outside, as `taskset` would, so that runs compare.
///
/// A server whose threads are not the ones expected — a shard owner
/// per shard, an event loop per connection — is an error, not a run
/// with some threads left to the scheduler: that would read as a gain
/// or a regression of the server.
pub fn pin_server_threads() -> io::Result<Placement> {
    let mut placement = Placement::new();
    let (mut loops, mut shards) = (0, 0);
    for (tid, name) in named_server_threads() {
        let number = |prefix: &str| name.strip_prefix(prefix)?.parse::<usize>().ok();
        let number = if let Some(n) = number("dego-loop-") {
            loops += 1;
            n
        } else if let Some(n) = number("dego-shard-") {
            shards += 1;
            n
        } else {
            continue;
        };
        let cpu = cpu_for(number);
        procstat::pin_thread(tid, cpu)?;
        placement.push((name, cpu));
    }
    if shards != SHARDS || loops < CONNS {
        return Err(io::Error::other(format!(
            "expected {SHARDS} dego-shard-<i> threads and at least {CONNS} dego-loop-<i> threads \
             to place, found {shards} and {loops}: the server's threads were renamed or its \
             connection plane changed, and the benchmark must be taught the new shape first"
        )));
    }
    placement.sort();
    Ok(placement)
}

/// Every thread but the caller, once each has named itself. A thread
/// is born with its creator's name and sets its own when it first
/// runs; `spawn` returns before the event loops have, and a loop read
/// too early would go unnamed and so unpinned. Called only while the
/// benchmark has no other thread of its own alive.
fn named_server_threads() -> Vec<(u64, String)> {
    let me = procstat::current_tid();
    let began = Instant::now();
    while began.elapsed() < Duration::from_secs(2) {
        let threads = procstat::thread_names();
        let mine = &threads
            .iter()
            .find(|(tid, _)| *tid == me)
            .expect("the calling thread is listed")
            .1;
        if threads.iter().all(|(tid, name)| *tid == me || name != mine) {
            return threads.into_iter().filter(|(tid, _)| *tid != me).collect();
        }
        // Let the unnamed thread run; a sleep would round the wait
        // up to the timer's slack.
        thread::yield_now();
    }
    panic!("a server thread had not named itself after two seconds");
}

/// A live server and the generators attached to it.
pub struct Rig {
    pub server: ServerHandle,
    pub gens: Vec<Generator>,
    pub placement: Placement,
}

/// How long a set-up took, and how fast the box ran meanwhile.
#[derive(Clone, Copy, Debug)]
pub struct SetUp {
    pub secs: f64,
    pub speed: f64,
}

/// Spawn, connect and preload. Returns the rig and how long that took.
/// The clock is stopped while threads are placed, while the speed is
/// probed (before and after the preload, on both CPUs) and before the
/// models are filled in: that is the benchmark's bookkeeping, not the
/// system's work.
pub fn set_up(
    workload: &Workload,
    middleware: MiddlewareConfig,
    inputs: &Inputs,
) -> io::Result<(Rig, SetUp)> {
    // The probes' own sockets are not the system's set-up either.
    let mut probes = Vec::with_capacity(CONNS);
    for _ in 0..CONNS {
        probes.push(Probe::new()?);
    }
    let began = Instant::now();
    let server = spawn(server_config(workload, middleware))?;
    let spawned = began.elapsed();
    let placement = pin_server_threads()?;
    let resumed = Instant::now();
    let mut gens = Vec::with_capacity(CONNS);
    for (index, probe) in probes.into_iter().enumerate() {
        gens.push(Generator {
            index,
            conn: Conn::connect(server.local_addr())?,
            pool: Arc::clone(&inputs.pools[index]),
            model: Model::new(workload, index),
            probe,
            next_burst: 0,
            commands: 0,
            singles: 0,
            posts: 0,
            tally: Tally::default(),
            stale: 0,
        });
    }
    let connected = resumed.elapsed();
    let loaded: io::Result<Vec<(Duration, Readings)>> = thread::scope(|scope| {
        let loaders: Vec<_> = gens
            .iter_mut()
            .zip(&inputs.preloads)
            .map(|(gen, preload)| {
                scope.spawn(move || {
                    pin_generator(gen.index);
                    let mut speed = gen.probe.run()?;
                    let began = Instant::now();
                    gen.play(preload)?;
                    let took = began.elapsed();
                    speed.add(&gen.probe.run()?);
                    Ok((took, speed))
                })
            })
            .collect();
        loaders
            .into_iter()
            .map(|l| l.join().expect("preload thread panicked"))
            .collect()
    });
    let loaded = loaded?;
    // Both connections load at once: the slower one ends the set-up.
    let preloaded = loaded
        .iter()
        .map(|(took, _)| *took)
        .max()
        .unwrap_or_default();
    let mut speed = Readings::default();
    loaded.iter().for_each(|(_, s)| speed.add(s));
    for (gen, preload) in gens.iter_mut().zip(&inputs.preloads) {
        for i in 0..preload.bursts() {
            for effect in preload.burst(i).effects {
                gen.model.apply(effect);
            }
        }
    }
    let set_up = SetUp {
        secs: (spawned + connected + preloaded).as_secs_f64(),
        speed: speed.speed(),
    };
    Ok((
        Rig {
            server,
            gens,
            placement,
        },
        set_up,
    ))
}

/// What one generator recorded over one phase.
struct Recorded {
    /// Per slice: commands whose replies arrived in it.
    ops: Vec<u64>,
    /// Per slice: one latency per burst, nanoseconds.
    latency: Vec<Vec<u32>>,
    /// Per slice: when its last reply arrived, nanoseconds after the
    /// phase began (0: no reply in the slice).
    last_done: Vec<u64>,
    /// Per slice: what the speed probes read.
    speed: Vec<Readings>,
    spans: Vec<Span>,
}

struct Plan {
    start: Instant,
    slice: Duration,
    slices: usize,
    trace: bool,
}

impl Plan {
    fn end(&self) -> Instant {
        self.start + self.slice * self.slices as u32
    }
}

fn wait_until(when: Instant) {
    // Sleep to ~100 us before, then spin politely: sleep alone
    // overshoots by the timer slack.
    loop {
        let now = Instant::now();
        if now >= when {
            return;
        }
        let left = when - now;
        if left > Duration::from_micros(200) {
            thread::sleep(left - Duration::from_micros(100));
        } else {
            thread::yield_now();
        }
    }
}

fn ns_u32(d: Duration) -> u32 {
    d.as_nanos().min(u32::MAX as u128) as u32
}

impl Generator {
    fn run(&mut self, plan: &Plan) -> io::Result<Recorded> {
        let mut rec = Recorded {
            ops: vec![0; plan.slices],
            latency: (0..plan.slices)
                .map(|_| Vec::with_capacity(1 << 17))
                .collect(),
            last_done: vec![0; plan.slices],
            speed: vec![Readings::default(); plan.slices],
            spans: Vec::new(),
        };
        let pool = Arc::clone(&self.pool);
        let end = plan.end();
        let slice_ns = plan.slice.as_nanos();
        let mut next_probe = plan.start;
        wait_until(plan.start);
        let mut burst_no = 0u64;
        loop {
            let sent_at = Instant::now();
            if sent_at >= end {
                break;
            }
            let burst = pool.burst(self.next_burst % pool.bursts());
            let traced = plan.trace && burst_no.is_multiple_of(TRACE_EVERY);
            self.conn.send(burst.bytes)?;
            let written_at = traced.then(Instant::now);
            let tally = self.conn.recv(burst.kinds, traced)?;
            let done_at = Instant::now();
            self.note(&burst, &tally);
            for effect in burst.effects {
                self.model.apply(effect);
            }
            self.next_burst += 1;
            let done_ns = (done_at - plan.start).as_nanos();
            let slice = (done_ns / slice_ns) as usize;
            if slice < plan.slices {
                rec.ops[slice] += burst.kinds.len() as u64;
                rec.latency[slice].push(ns_u32(done_at - sent_at));
                rec.last_done[slice] = done_ns as u64;
            }
            if let (Some(written_at), Some(first_at)) = (written_at, self.conn.first_byte_at) {
                let at = |t: Instant| (t - plan.start).as_nanos() as u64;
                let span = |name, id, parent, from, to| Span {
                    name,
                    // Unique across both connections of a phase.
                    burst: burst_no * CONNS as u64 + self.index as u64,
                    id,
                    parent,
                    conn: self.index as u8,
                    start_ns: at(from),
                    end_ns: at(to),
                };
                rec.spans.extend([
                    span("client.burst", 1, 0, sent_at, done_at),
                    span("client.write", 2, 1, sent_at, written_at),
                    span("client.wait_first", 3, 1, written_at, first_at),
                    span("client.read_rest", 4, 1, first_at, done_at),
                ]);
            }
            burst_no += 1;
            // Between two bursts, with nothing in flight: read the
            // CPU's speed. Both generators do so at the same moments.
            if done_at >= next_probe && slice < plan.slices {
                rec.speed[slice].add(&self.probe.run()?);
                let now = Instant::now();
                while next_probe <= now {
                    next_probe += PROBE_EVERY;
                }
            }
        }
        Ok(rec)
    }
}

/// One slice of a phase, both connections together.
#[derive(Clone, Debug)]
pub struct Slice {
    pub ops: u64,
    /// From the last reply of the slice before (or the window's start)
    /// to this slice's last reply — the stretch of time that holds
    /// exactly `ops` replies — less the time the probes took.
    pub secs: f64,
    /// Sorted burst latencies, nanoseconds.
    pub latency: Vec<u32>,
    /// CPU seconds of every thread but the benchmark's own.
    pub server_cpu_s: f64,
    /// How fast the box ran, as a share of reference speed.
    pub speed: f64,
}

/// Whether a timing is given as the clock read it, or at the box's
/// reference speed (see `speed`): scaled by how fast the box was
/// measured to run during the slice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum At {
    Measured,
    Reference,
}

impl At {
    /// What a duration of kind `timing`, measured at `speed`, is
    /// multiplied by.
    pub fn factor(self, speed: f64, timing: Timing) -> f64 {
        match self {
            At::Measured => 1.0,
            At::Reference => speed::at_reference(speed, timing),
        }
    }
}

/// One value per slice of a phase.
pub struct Series(pub Vec<f64>);

impl Series {
    /// The reported value: the median slice, and the slices' IQR.
    pub fn spread(&self) -> Spread {
        Spread::of(&self.0)
    }
}

/// A measured phase.
pub struct Phase {
    pub slices: Vec<Slice>,
    pub spans: Vec<Span>,
    pub stats_before: StatsSnapshot,
    pub stats_after: StatsSnapshot,
}

impl Phase {
    fn per_slice(&self, at: At, timing: Timing, f: impl Fn(&Slice, f64) -> f64) -> Series {
        Series(
            self.slices
                .iter()
                .map(|s| f(s, at.factor(s.speed, timing)))
                .collect(),
        )
    }

    pub fn throughput_ops_s(&self, at: At) -> Series {
        self.per_slice(at, Timing::Typical, |s, factor| {
            s.ops as f64 / s.secs / factor
        })
    }

    /// The `q`-quantile of each slice's burst latencies; from p99 up it
    /// is the tail, which shares more of the box's slowing.
    pub fn latency_us(&self, q: f64, at: At) -> Series {
        let timing = if q >= 0.99 {
            Timing::Tail
        } else {
            Timing::Typical
        };
        self.per_slice(at, timing, |s, factor| {
            percentile(&s.latency, q) / 1e3 * factor
        })
    }

    pub fn cpu_us_per_op(&self, at: At) -> Series {
        self.per_slice(at, Timing::Typical, |s, factor| {
            s.server_cpu_s * 1e6 / s.ops.max(1) as f64 * factor
        })
    }

    pub fn speed(&self) -> Series {
        Series(self.slices.iter().map(|s| s.speed).collect())
    }

    pub fn ops(&self) -> u64 {
        self.slices.iter().map(|s| s.ops).sum()
    }

    /// Fewest latency samples any slice holds: p99 needs 100 per slice
    /// to exist at all, and 8000 to leave 80 beyond it.
    pub fn min_samples(&self) -> usize {
        self.slices
            .iter()
            .map(|s| s.latency.len())
            .min()
            .unwrap_or(0)
    }
}

/// Drive both generators for `slices` slices of `slice_secs`. The
/// calling thread reads the CPU clocks at every slice boundary and is
/// otherwise asleep, so a window never has more than two busy
/// benchmark threads.
pub fn drive(rig: &mut Rig, slice_secs: f64, slices: usize, trace: bool) -> io::Result<Phase> {
    let plan = Plan {
        // Late enough for both threads to be up and have published
        // their ids.
        start: Instant::now() + Duration::from_millis(20),
        slice: Duration::from_secs_f64(slice_secs),
        slices,
        trace,
    };
    let tids: [AtomicU64; CONNS] = std::array::from_fn(|_| AtomicU64::new(0));
    let stats_before = rig.server.stats();
    let (recorded, cpu) = thread::scope(|scope| {
        let workers: Vec<_> = rig
            .gens
            .iter_mut()
            .zip(&tids)
            .map(|(gen, tid)| {
                let plan = &plan;
                scope.spawn(move || {
                    tid.store(procstat::current_tid(), Ordering::Release);
                    pin_generator(gen.index);
                    gen.run(plan)
                })
            })
            .collect();
        // The server's CPU time is every thread's but the benchmark's
        // own: the two generators and this one.
        let me = procstat::current_tid();
        let mut cpu = Vec::with_capacity(slices + 1);
        for boundary in 0..=slices {
            wait_until(plan.start + plan.slice * boundary as u32);
            let ours =
                |tid: u64| tid == me || tids.iter().any(|t| t.load(Ordering::Acquire) == tid);
            let server_ns: u64 = procstat::thread_cpu_ns()
                .into_iter()
                .filter(|(tid, _)| !ours(*tid))
                .map(|(_, ns)| ns)
                .sum();
            cpu.push(server_ns);
        }
        let recorded: io::Result<Vec<Recorded>> = workers
            .into_iter()
            .map(|w| w.join().expect("generator thread panicked"))
            .collect();
        (recorded, cpu)
    });
    let stats_after = rig.server.stats();
    let mut recorded = recorded?;
    let mut last_done = 0u64;
    let slices = (0..slices)
        .map(|i| {
            let began = last_done;
            last_done = recorded
                .iter()
                .map(|r| r.last_done[i])
                .max()
                .map_or(began, |at| at.max(began));
            let mut latency = Vec::new();
            let mut speed = Readings::default();
            for rec in &mut recorded {
                latency.append(&mut rec.latency[i]);
                speed.add(&rec.speed[i]);
            }
            latency.sort_unstable();
            // The generators probe at the same moments, so a slice
            // loses to the probes what one of them spends on them.
            let probing = speed.took().as_secs_f64() / CONNS as f64;
            // A slice without a single reply keeps its nominal length,
            // and a rate of zero.
            let span = if last_done > began {
                (last_done - began) as f64 / 1e9
            } else {
                slice_secs
            };
            Slice {
                ops: recorded.iter().map(|r| r.ops[i]).sum(),
                secs: (span - probing).max(span / 2.0),
                latency,
                server_cpu_s: cpu[i + 1].saturating_sub(cpu[i]) as f64 / 1e9,
                speed: speed.speed(),
            }
        })
        .collect();
    Ok(Phase {
        slices,
        spans: recorded
            .iter_mut()
            .flat_map(|r| r.spans.drain(..))
            .collect(),
        stats_before,
        stats_after,
    })
}

/// The output check's verdict on one rig.
#[derive(Clone, Copy, Debug, Default)]
pub struct Verdict {
    /// Commands sent and awaited.
    pub attempted: u64,
    /// Replies of the wrong kind (errors included) plus read-back
    /// values that differed from the model.
    pub failed: u64,
    pub rejections: u64,
    /// The server's own count of request lines and error replies.
    pub server_commands: u64,
    pub server_errors: u64,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.server_errors == 0 && self.server_commands == self.attempted
    }

    /// Commands that failed, as a share of those attempted.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn add(&mut self, other: &Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.rejections += other.rejections;
        self.server_commands += other.server_commands;
        self.server_errors += other.server_errors;
    }
}

/// Read every row back, compare the server's counters with what was
/// sent, and stop the server.
pub fn check_and_stop(mut rig: Rig, read_back: bool) -> io::Result<Verdict> {
    if read_back {
        thread::scope(|scope| {
            let readers: Vec<_> = rig
                .gens
                .iter_mut()
                .map(|gen| {
                    scope.spawn(move || {
                        pin_generator(gen.index);
                        gen.read_back()
                    })
                })
                .collect();
            readers
                .into_iter()
                .try_for_each(|r| r.join().expect("read-back thread panicked"))
        })?;
    }
    let stats = rig.server.stats();
    let verdict = Verdict {
        attempted: rig.gens.iter().map(|g| g.commands).sum(),
        failed: rig.gens.iter().map(|g| g.tally.wrong_kind + g.stale).sum(),
        rejections: rig.gens.iter().map(|g| g.tally.rejections).sum(),
        server_commands: stats.commands,
        server_errors: stats.errors,
    };
    drop(rig.gens);
    rig.server.shutdown();
    Ok(verdict)
}
