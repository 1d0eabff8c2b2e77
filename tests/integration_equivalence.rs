//! Cross-substrate equivalence and linearizability: the DEGO adjusted
//! objects must agree with their JUC counterparts wherever their
//! (narrowed) specifications overlap, and concurrent histories recorded
//! from the real structures must be linearizable against the Table 1
//! sequential specs.

use dego_core::{mpsc, swmr_recent, CounterIncrementOnly};
use dego_juc::{AtomicLong, ConcurrentHashMap, ConcurrentLinkedQueue};
use dego_metrics::rng::XorShift64;
use dego_spec::lin::{is_linearizable, Completed};
use dego_spec::types::{counter_c1, map_m1, op, queue_q1};
use dego_spec::{DataType, SpecType, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A global logical clock for history timestamps.
fn clock(c: &AtomicU64) -> u64 {
    c.fetch_add(1, Ordering::AcqRel)
}

#[test]
fn counters_agree_under_concurrency() {
    let threads = 4;
    let per = 20_000u64;
    let juc = Arc::new(AtomicLong::new(0));
    let dego = CounterIncrementOnly::new(threads);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let juc = Arc::clone(&juc);
            let dego = Arc::clone(&dego);
            s.spawn(move || {
                let cell = dego.cell();
                for _ in 0..per {
                    juc.increment_and_get();
                    cell.inc();
                }
            });
        }
    });
    assert_eq!(juc.get() as u64, dego.get());
    assert_eq!(dego.get(), threads as u64 * per);
}

#[test]
fn atomic_long_history_is_linearizable() {
    let a = Arc::new(AtomicLong::new(0));
    let ts = Arc::new(AtomicU64::new(1));
    let hist = Arc::new(std::sync::Mutex::new(Vec::<Completed<SpecType>>::new()));
    std::thread::scope(|s| {
        for _ in 0..3 {
            let a = Arc::clone(&a);
            let ts = Arc::clone(&ts);
            let hist = Arc::clone(&hist);
            s.spawn(move || {
                for _ in 0..6 {
                    let t0 = clock(&ts);
                    let v = a.increment_and_get();
                    let t1 = clock(&ts);
                    hist.lock().unwrap().push(Completed::new(
                        op("inc", &[]),
                        Value::Int(v),
                        t0,
                        t1,
                    ));
                }
            });
        }
    });
    let hist = hist.lock().unwrap();
    assert!(is_linearizable(&counter_c1(), &Value::Int(0), &hist));
}

#[test]
fn atomic_long_wrong_history_is_rejected() {
    // Sanity of the checker itself: a fabricated stale-read history of
    // the same shape must NOT pass.
    let c1 = counter_c1();
    let hist = vec![
        Completed::<SpecType>::new(op("inc", &[]), Value::Int(1), 1, 2),
        Completed::new(op("get", &[]), Value::Int(0), 3, 4),
    ];
    assert!(!is_linearizable(&c1, &Value::Int(0), &hist));
}

#[test]
fn concurrent_hash_map_history_is_linearizable() {
    let m = Arc::new(ConcurrentHashMap::with_capacity(16));
    let ts = Arc::new(AtomicU64::new(1));
    let hist = Arc::new(std::sync::Mutex::new(Vec::<Completed<SpecType>>::new()));
    std::thread::scope(|s| {
        for t in 0..3i64 {
            let m = Arc::clone(&m);
            let ts = Arc::clone(&ts);
            let hist = Arc::clone(&hist);
            s.spawn(move || {
                for i in 0..5i64 {
                    let k = i % 2;
                    let t0 = clock(&ts);
                    let (o, r) = if (t + i) % 3 == 0 {
                        let prev = m.remove(&k);
                        (
                            op("remove", &[k]),
                            prev.map(Value::Int).unwrap_or(Value::Bottom),
                        )
                    } else {
                        let v = t * 100 + i;
                        let prev = m.insert(k, v);
                        (
                            op("put", &[k, v]),
                            prev.map(Value::Int).unwrap_or(Value::Bottom),
                        )
                    };
                    let t1 = clock(&ts);
                    hist.lock().unwrap().push(Completed::new(o, r, t0, t1));
                }
            });
        }
    });
    let hist = hist.lock().unwrap();
    assert!(
        is_linearizable(&map_m1(), &Value::empty_map(), &hist),
        "CHM history not linearizable against M1"
    );
}

#[test]
fn mpsc_queue_history_is_linearizable_against_q1() {
    // Two producers, one consumer; all events recorded with timestamps.
    let (p, mut consumer) = mpsc::queue::<i64>();
    let ts = Arc::new(AtomicU64::new(1));
    let hist = Arc::new(std::sync::Mutex::new(Vec::<Completed<SpecType>>::new()));
    std::thread::scope(|s| {
        for t in 0..2i64 {
            let p = p.clone();
            let ts = Arc::clone(&ts);
            let hist = Arc::clone(&hist);
            s.spawn(move || {
                for i in 0..6i64 {
                    let v = t * 10 + i;
                    let t0 = clock(&ts);
                    p.offer(v);
                    let t1 = clock(&ts);
                    hist.lock().unwrap().push(Completed::new(
                        op("offer", &[v]),
                        Value::Bottom,
                        t0,
                        t1,
                    ));
                }
            });
        }
        let ts2 = Arc::clone(&ts);
        let hist2 = Arc::clone(&hist);
        s.spawn(move || {
            // At most 40 polls, empty ones included: with the 12 offers
            // the history holds at most 52 events, within the checker's
            // bound however the threads interleave.
            let mut polled = 0;
            for _ in 0..40 {
                if polled == 12 {
                    break;
                }
                let t0 = clock(&ts2);
                let r = consumer.poll();
                let t1 = clock(&ts2);
                let ret = r.map(Value::Int).unwrap_or(Value::Bottom);
                if r.is_some() {
                    polled += 1;
                }
                hist2
                    .lock()
                    .unwrap()
                    .push(Completed::new(op("poll", &[]), ret, t0, t1));
            }
        });
    });
    let hist = hist.lock().unwrap();
    assert!(
        is_linearizable(&queue_q1(), &Value::empty_seq(), &hist),
        "MPSC history not linearizable against Q1 ({} events)",
        hist.len()
    );
}

/// The sequential specification of `dego_core::swmr_recent`: a log
/// whose only read is "the newest `n` entries, newest first".
#[derive(Debug)]
struct RecentLog;

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum LogOp {
    Push(u64),
    Newest(usize),
}

impl DataType for RecentLog {
    type State = Vec<u64>;
    type Op = LogOp;
    /// The window read; empty for a push.
    type Ret = Vec<u64>;

    fn apply(&self, log: &Vec<u64>, op: &LogOp) -> (Vec<u64>, Vec<u64>) {
        match op {
            LogOp::Push(entry) => ([log.as_slice(), &[*entry]].concat(), Vec::new()),
            LogOp::Newest(n) => (log.clone(), log.iter().rev().take(*n).copied().collect()),
        }
    }
}

/// Many small histories rather than one long one: a ring of four slots
/// read through a window of three, so the writer laps a reader within
/// two pushes and the validated re-read is what keeps a window whole.
#[test]
fn swmr_recent_histories_are_linearizable() {
    for round in 0..200 {
        let (mut writer, reader) = swmr_recent(4);
        let ts = AtomicU64::new(1);
        let hist = std::sync::Mutex::new(Vec::<Completed<RecentLog>>::new());
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let reader = reader.clone();
                s.spawn(|| {
                    let reader = reader;
                    let mut window = Vec::new();
                    start.wait();
                    for _ in 0..6 {
                        let t0 = clock(&ts);
                        reader.newest(3, &mut window);
                        let t1 = clock(&ts);
                        let read = Completed::new(LogOp::Newest(3), window.clone(), t0, t1);
                        hist.lock().unwrap().push(read);
                    }
                });
            }
            s.spawn(|| {
                start.wait();
                for entry in 1..=12 {
                    let t0 = clock(&ts);
                    writer.push(entry);
                    let t1 = clock(&ts);
                    let push = Completed::new(LogOp::Push(entry), Vec::new(), t0, t1);
                    hist.lock().unwrap().push(push);
                }
            });
        });
        let hist = hist.into_inner().unwrap();
        assert!(
            is_linearizable(&RecentLog, &Vec::new(), &hist),
            "round {round}: not linearizable against the bounded log: {hist:?}"
        );
    }
}

#[test]
fn torn_or_stale_log_windows_are_rejected() {
    let pushes = |upto: u64| (1..=upto).map(|e| Completed::new(LogOp::Push(e), Vec::new(), e, e));
    let read = |window: &[u64], at: u64| Completed::new(LogOp::Newest(3), window.to_vec(), at, at);
    let whole: Vec<_> = pushes(5).chain([read(&[5, 4, 3], 6)]).collect();
    assert!(is_linearizable(&RecentLog, &Vec::new(), &whole));
    // Entry 5 overwrote the slot of entry 1 while 3, 2, 1 were copied.
    let torn: Vec<_> = pushes(5).chain([read(&[3, 2, 5], 6)]).collect();
    assert!(!is_linearizable(&RecentLog, &Vec::new(), &torn));
    // Whole, but older than a push that had returned before the read.
    let stale: Vec<_> = pushes(5).chain([read(&[4, 3, 2], 6)]).collect();
    assert!(!is_linearizable(&RecentLog, &Vec::new(), &stale));
}

/// The sequential specification of a `dego_core::RosterWriter` row: an
/// insertion-ordered set of ids.
#[derive(Debug)]
struct Roster;

#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum RosterOp {
    Add(u64),
    Remove(u64),
    Len,
    Contains(u64),
    /// The first `k` ids other than the skipped one, in order.
    First(usize, Option<u64>),
}

impl DataType for Roster {
    type State = Vec<u64>;
    type Op = RosterOp;
    /// A prefix read's ids; otherwise one number — the length, or 1
    /// for an edit that changed the row or a member found, else 0.
    type Ret = Vec<u64>;

    fn apply(&self, row: &Vec<u64>, op: &RosterOp) -> (Vec<u64>, Vec<u64>) {
        let mut next = row.clone();
        let ret = match op {
            RosterOp::Add(id) => {
                let fresh = !row.contains(id);
                if fresh {
                    next.push(*id);
                }
                vec![fresh as u64]
            }
            RosterOp::Remove(id) => {
                next.retain(|f| f != id);
                vec![(next.len() < row.len()) as u64]
            }
            RosterOp::Len => vec![row.len() as u64],
            RosterOp::Contains(id) => vec![row.contains(id) as u64],
            RosterOp::First(k, skip) => {
                let others = row.iter().filter(|f| Some(**f) != *skip);
                others.take(*k).copied().collect()
            }
        };
        (next, ret)
    }
}

/// Many small histories of one writer and two readers over a row made
/// at four slots, each read under a pin of its own: the writer adds
/// most of eight ids, then removes most of them, so rows grow and
/// compact inside the histories — each move published by the row
/// itself — while readers ask for sizes, members and prefixes.
#[test]
fn roster_histories_are_linearizable() {
    use dego_core::reclaim::pin;
    use dego_core::RosterWriter;
    let (mut grown, mut compacted) = (0, 0);
    for round in 0..300u64 {
        let mut writer = RosterWriter::new(4);
        let row = writer.reader();
        let ts = AtomicU64::new(1);
        let hist = std::sync::Mutex::new(Vec::<Completed<Roster>>::new());
        let start = std::sync::Barrier::new(3);
        let rng = |salt: u64| XorShift64::new(round * 16 + salt);
        std::thread::scope(|s| {
            for reader in 0..2 {
                let (row, hist, ts, start) = (row.clone(), &hist, &ts, &start);
                s.spawn(move || {
                    let mut rng = rng(reader);
                    start.wait();
                    for i in 0..14 {
                        let id = 1 + rng.next_bounded(8);
                        let op = match i % 4 {
                            0 => RosterOp::Len,
                            1 => RosterOp::Contains(id),
                            2 => RosterOp::First(3, None),
                            _ => RosterOp::First(2, Some(id)),
                        };
                        let t0 = clock(ts);
                        let pin = pin();
                        let ret = match op {
                            RosterOp::Len => vec![row.len(&pin) as u64],
                            RosterOp::Contains(id) => vec![row.contains(&pin, id) as u64],
                            RosterOp::First(k, skip) => {
                                let mut out = vec![0; k];
                                let n = row.first(&pin, skip, &mut out);
                                out.truncate(n);
                                out
                            }
                            _ => unreachable!("readers only read"),
                        };
                        drop(pin);
                        let t1 = clock(ts);
                        hist.lock().unwrap().push(Completed::new(op, ret, t0, t1));
                    }
                });
            }
            s.spawn(|| {
                let mut rng = rng(7);
                start.wait();
                for i in 0..20 {
                    let id = 1 + rng.next_bounded(8);
                    let adding = rng.next_bounded(5) != 0;
                    let capacity = writer.capacity();
                    let t0 = clock(&ts);
                    let (op, changed) = if (i < 11) == adding {
                        (RosterOp::Add(id), writer.insert(id))
                    } else {
                        (RosterOp::Remove(id), writer.remove(id))
                    };
                    let t1 = clock(&ts);
                    // The moves that change the row's size, the first
                    // allocation included.
                    grown += (writer.capacity() > capacity) as u32;
                    compacted += (writer.capacity() < capacity) as u32;
                    let edit = Completed::new(op, vec![changed as u64], t0, t1);
                    hist.lock().unwrap().push(edit);
                }
            });
        });
        let hist = hist.into_inner().unwrap();
        assert!(
            is_linearizable(&Roster, &Vec::new(), &hist),
            "round {round}: not linearizable against the ordered set: {hist:?}"
        );
    }
    assert!(
        grown > 300 && compacted > 30,
        "moves: {grown} grown, {compacted} compacted"
    );
}

#[test]
fn a_torn_roster_prefix_is_rejected() {
    let (a, b, c) = (1, 2, 3);
    let edit = |op, at| Completed::new(op, vec![1], at, at);
    let history = |prefix: &[u64]| {
        vec![
            edit(RosterOp::Add(a), 1),
            edit(RosterOp::Add(b), 2),
            edit(RosterOp::Add(c), 3),
            // A prefix read overlapping both removals.
            Completed::new(RosterOp::First(2, None), prefix.to_vec(), 4, 7),
            edit(RosterOp::Remove(a), 5),
            edit(RosterOp::Remove(b), 6),
        ]
    };
    for whole in [&[a, b][..], &[b, c], &[c]] {
        assert!(is_linearizable(&Roster, &Vec::new(), &history(whole)));
    }
    // `a` read before its removal, `b` skipped after its own: no instant
    // had that prefix.
    assert!(!is_linearizable(&Roster, &Vec::new(), &history(&[a, c])));
}

#[test]
fn clq_and_masp_deliver_identical_multisets() {
    let n = 10_000u64;
    let producers = 4;
    // JUC queue.
    let clq = Arc::new(ConcurrentLinkedQueue::new());
    std::thread::scope(|s| {
        for t in 0..producers {
            let clq = Arc::clone(&clq);
            s.spawn(move || {
                for i in 0..n / producers {
                    clq.offer(t * n + i);
                }
            });
        }
    });
    let mut juc_all = Vec::new();
    while let Some(v) = clq.poll() {
        juc_all.push(v);
    }
    // DEGO queue, same values.
    let (p, mut consumer) = mpsc::queue();
    std::thread::scope(|s| {
        for t in 0..producers {
            let p = p.clone();
            s.spawn(move || {
                for i in 0..n / producers {
                    p.offer(t * n + i);
                }
            });
        }
    });
    let mut dego_all = consumer.drain();
    juc_all.sort_unstable();
    dego_all.sort_unstable();
    assert_eq!(juc_all, dego_all);
}

#[test]
fn swmr_map_matches_sequential_model() {
    // The SWMR hash map against a BTreeMap oracle over a long random-ish
    // single-writer run (readers are exercised elsewhere).
    use dego_core::swmr_hash::swmr_hash_map;
    let (mut w, r) = swmr_hash_map::<i64, i64>(8);
    let mut model = std::collections::BTreeMap::new();
    let mut x: i64 = 0x12345;
    for step in 0..20_000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let k = (x >> 33) % 512;
        match step % 3 {
            0 | 1 => {
                let expected = model.insert(k, step);
                assert_eq!(w.insert(k, step), expected, "step {step}");
            }
            _ => {
                let expected = model.remove(&k);
                assert_eq!(w.remove(&k), expected, "step {step}");
            }
        }
    }
    assert_eq!(w.len(), model.len());
    for (k, v) in &model {
        assert_eq!(r.get(k), Some(*v));
    }
}

#[test]
fn spec_and_implementation_agree_on_m2_semantics() {
    // Blind puts through the DEGO segmented map replay identically in the
    // M2 executable specification.
    use dego_core::{SegmentationKind, SegmentedHashMap};
    let spec = dego_spec::types::map_m2();
    let map = SegmentedHashMap::new(1, 64, SegmentationKind::Extended);
    let mut w = map.writer();
    let mut state = Value::empty_map();
    let script: Vec<(&str, Vec<i64>)> = vec![
        ("put", vec![1, 10]),
        ("put", vec![2, 20]),
        ("put", vec![1, 11]),
        ("remove", vec![2]),
        ("put", vec![3, 30]),
        ("remove", vec![9]),
    ];
    for (name, args) in &script {
        let o = dego_spec::dtype::Op {
            name: match *name {
                "put" => "put",
                _ => "remove",
            },
            args: args.clone(),
        };
        let (next, ret) = spec.apply(&state, &o);
        assert_eq!(ret, Value::Bottom, "M2 ops are blind");
        state = next;
        match *name {
            "put" => w.put(args[0] as u64, args[1]),
            _ => w.remove(&(args[0] as u64)),
        }
    }
    // Final states agree.
    if let Value::Map(m) = &state {
        assert_eq!(map.len(), m.len());
        for (k, v) in m {
            assert_eq!(map.get(&(*k as u64)), Some(*v));
        }
    } else {
        panic!("spec state must be a map");
    }
}
