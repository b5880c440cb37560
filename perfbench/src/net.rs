//! The networked workload: one `fedclustd` and a fleet of
//! `fedclust-worker` processes over localhost TCP, and, for the traced
//! run, a frame-observing pass-through between the workers and the
//! server.
//!
//! Every process is spawned on an OS-assigned port and owned by a
//! [`Proc`] guard that kills and reaps it on every exit path, so no
//! worker outlives a failed run.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fedclust_proto::msg::{KIND_ACK, KIND_PULL_WORK, KIND_PUSH, KIND_WAIT, KIND_WORK};
use fedclust_proto::{decode_frame, read_raw_frame};

use crate::sys::{wait_with_rusage, Reaped};

/// How long the server may take to print its address, and the fleet to
/// connect.
const STARTUP_LIMIT: Duration = Duration::from_secs(30);
/// How long one networked run may take before it is killed and counted
/// as failed.
const RUN_LIMIT: Duration = Duration::from_secs(90);
/// How long workers get to exit after the server has finished.
const WORKER_EXIT_LIMIT: Duration = Duration::from_secs(10);

/// Where the release binaries are.
pub struct Bins {
    pub server: PathBuf,
    pub worker: PathBuf,
}

impl Bins {
    pub fn in_dir(dir: &Path) -> Result<Bins, String> {
        let bins = Bins {
            server: dir.join("fedclustd"),
            worker: dir.join("fedclust-worker"),
        };
        for b in [&bins.server, &bins.worker] {
            if !b.is_file() {
                return Err(format!("missing binary {}", b.display()));
            }
        }
        Ok(bins)
    }
}

/// A child process that is killed and reaped when dropped, unless it
/// was already reaped.
struct Proc {
    child: Child,
    reaped: bool,
}

impl Proc {
    fn spawn(cmd: &mut Command) -> Result<Proc, String> {
        let child = cmd.spawn().map_err(|e| format!("spawn {:?}: {}", cmd, e))?;
        Ok(Proc {
            child,
            reaped: false,
        })
    }

    /// Wait up to `limit` for the process to exit on its own; kill it
    /// otherwise. Returns its exit code (`None` if killed or signalled).
    fn finish(&mut self, limit: Duration) -> Option<i32> {
        let deadline = Instant::now() + limit;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    self.reaped = true;
                    return status.code();
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    self.reaped = true;
                    return None;
                }
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One frame seen by the pass-through.
#[derive(Debug, Clone, Copy)]
pub struct FrameEvent {
    pub conn: u32,
    /// Worker to server.
    pub up: bool,
    pub kind: u8,
    pub bytes: usize,
    pub at: Instant,
}

/// A pass-through that forwards whole frames between workers and the
/// server and records each frame's kind, size and arrival time. It checks
/// every frame it reads with `decode_frame`; a frame that fails the check
/// ends the connection.
pub struct Observer {
    addr: String,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
    events: Arc<Mutex<Vec<FrameEvent>>>,
}

impl Observer {
    pub fn start(upstream: &str) -> Result<Observer, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let events = Arc::new(Mutex::new(Vec::new()));
        let (upstream, stop2, events2) =
            (upstream.to_string(), Arc::clone(&stop), Arc::clone(&events));
        let acceptor = std::thread::spawn(move || {
            let mut pumps = Vec::new();
            for (conn, inbound) in listener.incoming().enumerate() {
                if stop2.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(inbound) = inbound else { continue };
                let Ok(server) = TcpStream::connect(&upstream) else {
                    continue;
                };
                let _ = inbound.set_nodelay(true);
                let _ = server.set_nodelay(true);
                let (Ok(in2), Ok(server2)) = (inbound.try_clone(), server.try_clone()) else {
                    continue;
                };
                let conn = conn as u32;
                let ev = Arc::clone(&events2);
                pumps.push(std::thread::spawn(move || {
                    pump(inbound, server, conn, true, &ev)
                }));
                let ev = Arc::clone(&events2);
                pumps.push(std::thread::spawn(move || {
                    pump(server2, in2, conn, false, &ev)
                }));
            }
            pumps
        });
        Ok(Observer {
            addr,
            stop,
            acceptor: Some(acceptor),
            events,
        })
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stop accepting, wait for every connection to close, and hand back
    /// the frames seen, in arrival order.
    pub fn finish(mut self) -> Vec<FrameEvent> {
        self.shut_down();
        let mut events = std::mem::take(&mut *self.events.lock().expect("observer log lock"));
        events.sort_by_key(|e| e.at);
        events
    }

    fn shut_down(&mut self) {
        let Some(acceptor) = self.acceptor.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept so it sees the stop flag.
        let _ = TcpStream::connect(&self.addr);
        if let Ok(pumps) = acceptor.join() {
            for p in pumps {
                let _ = p.join();
            }
        }
    }
}

impl Drop for Observer {
    fn drop(&mut self) {
        self.shut_down();
    }
}

fn pump(
    mut from: TcpStream,
    mut to: TcpStream,
    conn: u32,
    up: bool,
    events: &Mutex<Vec<FrameEvent>>,
) {
    while let Ok(raw) = read_raw_frame(&mut from) {
        let at = Instant::now();
        let Ok(frame) = decode_frame(&raw) else { break };
        if let Ok(mut log) = events.lock() {
            log.push(FrameEvent {
                conn,
                up,
                kind: frame.kind,
                bytes: raw.len(),
                at,
            });
        }
        if to.write_all(&raw).and_then(|_| to.flush()).is_err() {
            break;
        }
    }
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

/// The outcome of one networked run.
pub struct NetRun {
    /// Server spawn until it starts round 0 with every worker connected.
    pub setup_s: f64,
    /// Round 0 start until the server exits.
    pub run_s: f64,
    pub server_peak_rss_mb: f64,
    pub stdout: String,
    pub started: Instant,
    pub ended: Instant,
    /// Frames seen, when the run went through an [`Observer`].
    pub frames: Option<Vec<FrameEvent>>,
}

fn next_line(
    rx: &Receiver<(Instant, String)>,
    deadline: Instant,
    needle: &str,
) -> Result<(Instant, String), String> {
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match rx.recv_timeout(left) {
            Ok((at, line)) if line.contains(needle) => return Ok((at, line)),
            Ok(_) => continue,
            Err(RecvTimeoutError::Timeout) => return Err(format!("no '{}' line in time", needle)),
            Err(RecvTimeoutError::Disconnected) => {
                return Err(format!("server exited before '{}'", needle))
            }
        }
    }
}

/// Run the federation once: `fedclustd` with the workload's `run` flags
/// plus `--json`, and `workers` single-threaded workers, optionally
/// connected through an [`Observer`].
pub fn run_once(
    bins: &Bins,
    run_flags: &[String],
    workers: usize,
    observe: bool,
) -> Result<NetRun, String> {
    let t0 = Instant::now();
    let mut server = Proc::spawn(
        Command::new(&bins.server)
            .args([
                "--listen",
                "127.0.0.1:0",
                "--min-workers",
                &workers.to_string(),
            ])
            .args(run_flags)
            .arg("--json")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped()),
    )?;
    let stderr = server
        .child
        .stderr
        .take()
        .ok_or("server stderr not piped")?;
    let mut stdout = server
        .child
        .stdout
        .take()
        .ok_or("server stdout not piped")?;
    let (tx, rx) = mpsc::channel();
    let stderr_reader = std::thread::spawn(move || {
        let mut lines = Vec::new();
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            let _ = tx.send((Instant::now(), line.clone()));
            lines.push(line);
        }
        lines
    });
    let stdout_reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });

    let startup = t0 + STARTUP_LIMIT;
    let (_, listen) = next_line(&rx, startup, "listening on")?;
    let server_addr = listen
        .rsplit(' ')
        .next()
        .ok_or("no address on the listening line")?
        .to_string();
    let observer = if observe {
        Some(Observer::start(&server_addr)?)
    } else {
        None
    };
    let connect = observer
        .as_ref()
        .map_or(server_addr.clone(), |o| o.addr().to_string());
    let mut fleet = Vec::with_capacity(workers);
    for _ in 0..workers {
        fleet.push(Proc::spawn(
            Command::new(&bins.worker)
                .args(["--connect", &connect, "--threads", "1"])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null()),
        )?);
    }
    let (started, _) = next_line(&rx, startup, "starting run")?;

    // Reap the server on a helper thread so the run can be bounded.
    let pid = server.child.id();
    let (done_tx, done_rx) = mpsc::channel();
    let reaper = std::thread::spawn(move || {
        let r = wait_with_rusage(pid);
        let _ = done_tx.send((Instant::now(), r));
    });
    let (timed_out, waited) = match done_rx.recv_timeout(RUN_LIMIT) {
        Ok(v) => (false, Ok(v)),
        Err(_) => {
            let _ = server.child.kill();
            (true, done_rx.recv().map_err(|e| e.to_string()))
        }
    };
    let _ = reaper.join();
    let (ended, reaped) = waited?;
    // Once wait4 has succeeded the pid is gone and must not be signalled.
    server.reaped = reaped.is_ok();
    let Reaped { code, peak_rss_mb } = reaped?;
    if timed_out {
        return Err(format!("run exceeded {:?}", RUN_LIMIT));
    }

    let worker_codes: Vec<Option<i32>> = fleet
        .iter_mut()
        .map(|w| w.finish(WORKER_EXIT_LIMIT))
        .collect();
    let frames = observer.map(Observer::finish);
    let stderr_lines = stderr_reader.join().map_err(|_| "stderr reader panicked")?;
    let stdout = stdout_reader.join().map_err(|_| "stdout reader panicked")?;

    if code != Some(0) {
        return Err(format!(
            "fedclustd exited with {:?}: {}",
            code,
            stderr_lines.join(" | ")
        ));
    }
    if let Some(bad) = worker_codes.iter().find(|c| **c != Some(0)) {
        return Err(format!("a worker exited with {:?}", bad));
    }
    let written_off = stderr_lines
        .iter()
        .find_map(|l| l.split("written_off=").nth(1))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or("no net-stats line from fedclustd")?;
    if written_off > 0 {
        return Err(format!("{} client(s) written off", written_off));
    }
    Ok(NetRun {
        setup_s: (started - t0).as_secs_f64(),
        run_s: (ended - started).as_secs_f64(),
        server_peak_rss_mb: peak_rss_mb,
        stdout,
        started,
        ended,
        frames,
    })
}

/// Per-layer numbers from the frames of one observed run.
pub fn frame_metrics(frames: &[FrameEvent]) -> BTreeMap<&'static str, f64> {
    #[derive(Default)]
    struct Conn {
        pull: Option<Instant>,
        work: Option<Instant>,
        push: Option<Instant>,
        first: Option<Instant>,
        last: Option<Instant>,
    }
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut conns: BTreeMap<u32, Conn> = BTreeMap::new();
    let (mut busy, mut pull_to_work, mut push_to_ack) = (0.0, 0.0, 0.0);
    // Intervals in which a worker trains or waits on a round trip that
    // leads to or from training.
    let mut covered: Vec<(Instant, Instant)> = Vec::new();
    for e in frames {
        let name = match e.kind {
            KIND_PULL_WORK => "proto.frames.pull",
            KIND_WORK => "proto.frames.work",
            KIND_WAIT => "proto.frames.wait",
            KIND_PUSH => "proto.frames.push",
            KIND_ACK => "proto.frames.ack",
            _ => "",
        };
        if !name.is_empty() {
            *m.entry(name).or_insert(0.0) += 1.0;
        }
        let dir = if e.up {
            "proto.bytes_up"
        } else {
            "proto.bytes_down"
        };
        *m.entry(dir).or_insert(0.0) += e.bytes as f64;

        let c = conns.entry(e.conn).or_default();
        c.first.get_or_insert(e.at);
        c.last = Some(e.at);
        match (e.up, e.kind) {
            (true, KIND_PULL_WORK) => c.pull = Some(e.at),
            (false, KIND_WORK) => {
                if let Some(p) = c.pull.take() {
                    pull_to_work += (e.at - p).as_secs_f64();
                    covered.push((p, e.at));
                }
                c.work = Some(e.at);
            }
            (false, KIND_WAIT) => c.pull = None,
            (true, KIND_PUSH) => {
                if let Some(w) = c.work.take() {
                    busy += (e.at - w).as_secs_f64();
                    covered.push((w, e.at));
                }
                c.push.get_or_insert(e.at);
            }
            (false, KIND_ACK) => {
                if let Some(p) = c.push.take() {
                    push_to_ack += (e.at - p).as_secs_f64();
                    covered.push((p, e.at));
                }
            }
            _ => {}
        }
    }
    let lifetime: f64 = conns
        .values()
        .filter_map(|c| Some((c.last? - c.first?).as_secs_f64()))
        .sum();
    m.insert("net.pull_to_work_s", pull_to_work);
    m.insert("net.push_to_ack_s", push_to_ack);
    m.insert(
        "net.worker_idle_share",
        if lifetime > 0.0 {
            1.0 - busy / lifetime
        } else {
            0.0
        },
    );
    m.insert("net.covered_s", union_secs(covered));
    m
}

/// Length of the union of `intervals`.
fn union_secs(mut intervals: Vec<(Instant, Instant)>) -> f64 {
    intervals.sort();
    let mut total = 0.0;
    let mut current: Option<(Instant, Instant)> = None;
    for (a, b) in intervals {
        match current {
            Some((s, e)) if a <= e => current = Some((s, e.max(b))),
            Some((s, e)) => {
                total += (e - s).as_secs_f64();
                current = Some((a, b));
            }
            None => current = Some((a, b)),
        }
    }
    if let Some((s, e)) = current {
        total += (e - s).as_secs_f64();
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedclust_proto::{write_msg, Msg, PushBody};

    fn ev(conn: u32, up: bool, kind: u8, ms: u64, t0: Instant) -> FrameEvent {
        FrameEvent {
            conn,
            up,
            kind,
            bytes: 10,
            at: t0 + Duration::from_millis(ms),
        }
    }

    #[test]
    fn frame_metrics_pair_requests_with_replies() {
        let t0 = Instant::now();
        let frames = vec![
            ev(0, true, KIND_PULL_WORK, 0, t0),
            ev(0, false, KIND_WAIT, 1, t0),
            ev(0, true, KIND_PULL_WORK, 20, t0),
            ev(0, false, KIND_WORK, 22, t0),
            ev(0, true, KIND_PUSH, 72, t0),
            ev(0, false, KIND_ACK, 75, t0),
            ev(0, true, KIND_PULL_WORK, 100, t0),
        ];
        let m = frame_metrics(&frames);
        assert_eq!(m["proto.frames.pull"], 3.0);
        assert_eq!(m["proto.frames.wait"], 1.0);
        assert_eq!(m["proto.bytes_up"], 40.0);
        assert_eq!(m["proto.bytes_down"], 30.0);
        assert!((m["net.pull_to_work_s"] - 0.002).abs() < 1e-9);
        assert!((m["net.push_to_ack_s"] - 0.003).abs() < 1e-9);
        // Busy 50 ms of a 100 ms connection.
        assert!((m["net.worker_idle_share"] - 0.5).abs() < 1e-9);
        // 20..75 ms is covered without a gap.
        assert!((m["net.covered_s"] - 0.055).abs() < 1e-9);
    }

    #[test]
    fn observer_forwards_frames_unchanged_and_records_them() {
        let server = TcpListener::bind("127.0.0.1:0").unwrap();
        let server_addr = server.local_addr().unwrap().to_string();
        let echo = std::thread::spawn(move || {
            let (mut s, _) = server.accept().unwrap();
            let m = fedclust_proto::read_msg(&mut s).unwrap();
            assert_eq!(m, Msg::PullWork);
            write_msg(&mut s, &Msg::Wait { millis: 5 }).unwrap();
            let push = fedclust_proto::read_msg(&mut s).unwrap();
            write_msg(
                &mut s,
                &Msg::Ack {
                    round: 1,
                    client: 2,
                },
            )
            .unwrap();
            push
        });
        let observer = Observer::start(&server_addr).unwrap();
        let mut w = TcpStream::connect(observer.addr()).unwrap();
        write_msg(&mut w, &Msg::PullWork).unwrap();
        assert_eq!(
            fedclust_proto::read_msg(&mut w).unwrap(),
            Msg::Wait { millis: 5 }
        );
        let push = Msg::Push {
            mode: 0,
            round: 1,
            client: 2,
            steps: 3,
            weight: 4.0,
            body: PushBody::Raw(vec![1.0, 2.0]),
        };
        write_msg(&mut w, &push).unwrap();
        assert_eq!(
            fedclust_proto::read_msg(&mut w).unwrap(),
            Msg::Ack {
                round: 1,
                client: 2
            }
        );
        assert_eq!(echo.join().unwrap(), push);
        drop(w);
        let frames = observer.finish();
        let kinds: Vec<(bool, u8)> = frames.iter().map(|f| (f.up, f.kind)).collect();
        assert_eq!(
            kinds,
            vec![
                (true, KIND_PULL_WORK),
                (false, KIND_WAIT),
                (true, KIND_PUSH),
                (false, KIND_ACK)
            ]
        );
        assert_eq!(frames[2].bytes, push.encode().len());
    }
}
