//! The `uadb-serve` child processes: timed `train` runs and a `serve`
//! process that is killed and reaped when dropped.

use crate::client::Conn;
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A field of `/proc/<pid>/status` (kB for `Vm*`, a count for
/// `Threads`), or `None` once the process is gone.
pub fn proc_status(pid: u32, field: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
}

/// One finished `uadb-serve train`: wall time from spawn to exit and
/// the child's peak resident set (VmHWM, sampled every few ms).
pub struct TrainRun {
    pub wall_s: f64,
    pub peak_rss_kb: u64,
    pub stdout: String,
}

pub fn train(bin: &Path, args: &[String]) -> Result<TrainRun, String> {
    let started = Instant::now();
    let child = Command::new(bin)
        .arg("train")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
    let pid = child.id();
    let done = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicU64::new(0));
    let sampler = {
        let (done, peak) = (Arc::clone(&done), Arc::clone(&peak));
        std::thread::spawn(move || {
            while !done.load(Ordering::Relaxed) {
                if let Some(kb) = proc_status(pid, "VmHWM") {
                    peak.fetch_max(kb, Ordering::Relaxed);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };
    let out = child.wait_with_output();
    let wall_s = started.elapsed().as_secs_f64();
    done.store(true, Ordering::Relaxed);
    sampler.join().map_err(|_| "VmHWM sampler panicked".to_string())?;
    let out = out.map_err(|e| format!("waiting for train: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "train exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(TrainRun {
        wall_s,
        peak_rss_kb: peak.load(Ordering::Relaxed),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
    })
}

/// A running `uadb-serve serve`; dropping it kills and reaps the child.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `serve` on a free loopback port and waits until
    /// `GET /healthz` answers 200. Returns the server and the time from
    /// spawn to the first healthy answer.
    pub fn start(bin: &Path, args: &[String]) -> Result<(Self, f64), String> {
        let port = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("picking a free port: {e}"))?
            .port();
        let addr: SocketAddr = ([127, 0, 0, 1], port).into();
        let started = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .args(args)
            .args(["--addr", &addr.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut server = Server { child, addr };
        let health = b"GET /healthz HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n";
        loop {
            let mut conn = Conn::new(addr);
            if let Ok(resp) = conn.roundtrip(health) {
                if resp.status == 200 {
                    return Ok((server, started.elapsed().as_secs_f64()));
                }
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("serve exited during start-up with {status}"));
            }
            if started.elapsed() > Duration::from_secs(60) {
                return Err("serve did not become healthy within 60 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A `GET` whose 200 body is returned as text.
    pub fn get(&self, path: &str) -> Result<String, String> {
        let req = format!("GET {path} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n");
        let mut conn = Conn::new(self.addr);
        let resp = conn.roundtrip(req.as_bytes())?;
        if resp.status != 200 {
            return Err(format!("GET {path} answered {}", resp.status));
        }
        Ok(String::from_utf8_lossy(resp.body).into_owned())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `/metrics` text exposition, parsed into `(series, value)` pairs.
pub struct Scrape(Vec<(String, f64)>);

impl Scrape {
    pub fn take(server: &Server) -> Result<Self, String> {
        let text = server.get("/metrics")?;
        Ok(Scrape(
            text.lines()
                .filter(|l| !l.starts_with('#') && !l.is_empty())
                .filter_map(|l| {
                    let (series, value) = l.rsplit_once(' ')?;
                    Some((series.to_string(), value.parse().ok()?))
                })
                .collect(),
        ))
    }

    /// Sum over every series of metric `name` whose labels contain
    /// `label` (`""` matches all).
    pub fn sum(&self, name: &str, label: &str) -> f64 {
        self.0
            .iter()
            .filter(|(s, _)| {
                let (n, labels) = s.split_once('{').unwrap_or((s, ""));
                n == name && labels.contains(label)
            })
            .map(|(_, v)| v)
            .sum()
    }
}
