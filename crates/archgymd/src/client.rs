//! A minimal blocking client for the `archgymd` wire protocol, shared
//! by the CLI subcommands, the bench harness, and the integration
//! tests.
//!
//! Hardening: [`ConnectOptions`] puts a bound on connect and read so a
//! wedged daemon cannot hang a client forever, and [`WatchStream`]
//! follows a job's event stream across connection drops — it counts the
//! events it has delivered and, on reconnect, skips that many replayed
//! backlog frames, so the caller sees each event exactly once.
//! Reconnect pacing is seeded exponential backoff (deterministic given
//! the seed, full-jitter via the splitmix64 finalizer).

use crate::protocol::{write_frame, JobStatus, Request, Response, MAX_LINE_BYTES};
use archgym_core::error::{ArchGymError, Result};
use std::io::{BufRead, BufReader, Read as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

fn bad(msg: String) -> ArchGymError {
    ArchGymError::InvalidConfig(msg)
}

/// Connection and read bounds for [`Client::connect_with`].
#[derive(Debug, Clone)]
pub struct ConnectOptions {
    /// Give up on connect after this long (default 5 s).
    pub connect_timeout: Duration,
    /// Per-frame read timeout; `None` blocks forever (the default —
    /// watch streams are legitimately quiet between batches).
    pub read_timeout: Option<Duration>,
}

impl Default for ConnectOptions {
    fn default() -> ConnectOptions {
        ConnectOptions {
            connect_timeout: Duration::from_secs(5),
            read_timeout: None,
        }
    }
}

/// One open connection to a daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to `addr` (e.g. `127.0.0.1:7170`) with default bounds.
    pub fn connect(addr: &str) -> Result<Client> {
        Self::connect_with(addr, &ConnectOptions::default())
    }

    /// Connect with explicit connect/read bounds.
    pub fn connect_with(addr: &str, options: &ConnectOptions) -> Result<Client> {
        let resolved = addr
            .to_socket_addrs()
            .map_err(|e| bad(format!("cannot resolve {addr}: {e}")))?
            .next()
            .ok_or_else(|| bad(format!("cannot resolve {addr}: no addresses")))?;
        let writer = TcpStream::connect_timeout(&resolved, options.connect_timeout)
            .map_err(|e| bad(format!("cannot reach archgymd at {addr}: {e}")))?;
        writer.set_read_timeout(options.read_timeout)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client { reader, writer })
    }

    /// Send one request frame.
    pub fn send(&mut self, request: &Request) -> Result<()> {
        write_frame(&mut self.writer, &request.to_line())?;
        Ok(())
    }

    /// Read the next response frame. `Ok(None)` means the daemon closed
    /// the connection (end of a watch stream).
    pub fn recv(&mut self) -> Result<Option<Response>> {
        let mut buf = Vec::new();
        let n = (&mut self.reader)
            .take(MAX_LINE_BYTES as u64 + 1)
            .read_until(b'\n', &mut buf)?;
        if n == 0 {
            return Ok(None);
        }
        let text =
            std::str::from_utf8(&buf).map_err(|_| bad("daemon sent a non-UTF-8 frame".into()))?;
        Ok(Some(Response::from_line(text.trim())?))
    }

    /// Send `request` and read one reply.
    pub fn round_trip(&mut self, request: &Request) -> Result<Response> {
        self.send(request)?;
        self.recv()?
            .ok_or_else(|| bad("daemon closed the connection before replying".into()))
    }
}

/// Open a fresh connection, perform one request/response, close.
pub fn request_one(addr: &str, request: &Request) -> Result<Response> {
    Client::connect(addr)?.round_trip(request)
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seeded full-jitter exponential backoff: attempt `n` sleeps a
/// deterministic value in `[0, min(base << n, cap))`.
pub fn backoff_ms(seed: u64, attempt: u32, base_ms: u64, cap_ms: u64) -> u64 {
    let ceiling = base_ms
        .saturating_mul(1u64 << attempt.min(16))
        .min(cap_ms)
        .max(1);
    mix(seed ^ ((attempt as u64) << 32).wrapping_add(0x9e37_79b9_7f4a_7c15)) % ceiling
}

/// A reconnecting watch stream for one job: yields each event frame
/// exactly once and ends with the job's `done` frame, riding out
/// connection drops and daemon restarts in between.
///
/// The daemon replays a job's full event backlog to every new watcher;
/// the stream counts events already delivered and silently discards
/// that many replayed frames after a reconnect, so the caller never
/// sees a duplicate. Reconnects are paced by [`backoff_ms`].
pub struct WatchStream {
    addr: String,
    job: archgym_core::jobs::JobId,
    options: ConnectOptions,
    seed: u64,
    max_attempts: u32,
    events_seen: u64,
    client: Option<Client>,
    reconnects: u64,
}

/// One item from a [`WatchStream`].
#[derive(Debug, Clone)]
pub enum WatchItem {
    /// A per-batch event frame (the raw JSON payload).
    Event(archgym_core::codec::Json),
    /// The terminal frame: the stream is complete.
    Done {
        /// Terminal state.
        state: archgym_core::jobs::JobState,
        /// Final best reward, if any batch settled.
        best_reward: Option<f64>,
        /// Total simulator samples consumed.
        samples: u64,
    },
}

impl WatchStream {
    /// Start watching `job` on the daemon at `addr`. `seed` paces the
    /// reconnect backoff; up to `max_attempts` consecutive failed
    /// reconnects before the stream errors out.
    pub fn open(
        addr: impl Into<String>,
        job: archgym_core::jobs::JobId,
        options: ConnectOptions,
        seed: u64,
        max_attempts: u32,
    ) -> WatchStream {
        WatchStream {
            addr: addr.into(),
            job,
            options,
            seed,
            max_attempts,
            events_seen: 0,
            client: None,
            reconnects: 0,
        }
    }

    /// Total successful reconnects so far (for tests and diagnostics).
    pub fn reconnects(&self) -> u64 {
        self.reconnects
    }

    fn connect(&mut self) -> Result<()> {
        let mut attempt = 0u32;
        loop {
            match Client::connect_with(&self.addr, &self.options) {
                Ok(mut client) => {
                    client.send(&Request::Watch { job: self.job })?;
                    if self.events_seen > 0 || attempt > 0 {
                        self.reconnects += 1;
                    }
                    self.client = Some(client);
                    return Ok(());
                }
                Err(err) => {
                    attempt += 1;
                    if attempt >= self.max_attempts {
                        return Err(bad(format!(
                            "watch {} lost after {attempt} attempts: {err}",
                            self.job
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(backoff_ms(
                        self.seed, attempt, 50, 2_000,
                    )));
                }
            }
        }
    }

    /// Block until the next unseen event or the terminal frame. (Not
    /// an `Iterator`: the stream ends with a terminal item, not
    /// `None`, and every call can fail with a typed error.)
    pub fn next_item(&mut self) -> Result<WatchItem> {
        let mut skip = 0u64;
        loop {
            if self.client.is_none() {
                self.connect()?;
                skip = self.events_seen;
            }
            let client = self.client.as_mut().expect("connected");
            match client.recv() {
                Ok(Some(Response::Event { data, .. })) => {
                    if skip > 0 {
                        skip -= 1; // replayed backlog we already delivered
                        continue;
                    }
                    self.events_seen += 1;
                    return Ok(WatchItem::Event(data));
                }
                Ok(Some(Response::Done {
                    state,
                    best_reward,
                    samples,
                    ..
                })) => {
                    return Ok(WatchItem::Done {
                        state,
                        best_reward,
                        samples,
                    });
                }
                Ok(Some(Response::Error { code, message, .. })) => {
                    return Err(bad(format!(
                        "watch {} failed: {}: {message}",
                        self.job,
                        code.name()
                    )));
                }
                Ok(Some(_)) => continue, // unexpected but harmless frame
                Ok(None) | Err(_) => {
                    // Dropped mid-stream: reconnect and dedup the replay.
                    self.client = None;
                }
            }
        }
    }

    /// Drain the stream to completion, returning the final status-like
    /// summary. Events are counted, not kept.
    pub fn wait_done(&mut self) -> Result<JobStatus> {
        loop {
            if let WatchItem::Done {
                state,
                best_reward,
                samples,
            } = self.next_item()?
            {
                return Ok(JobStatus {
                    job: self.job,
                    tenant: String::new(),
                    state,
                    best_reward,
                    samples,
                    budget: 0,
                    error: None,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        for attempt in 0..10 {
            let a = backoff_ms(7, attempt, 50, 2_000);
            let b = backoff_ms(7, attempt, 50, 2_000);
            assert_eq!(a, b, "same seed and attempt, same sleep");
            assert!(a < 2_000, "cap respected");
            let ceiling = 50u64.saturating_mul(1 << attempt).min(2_000);
            assert!(a < ceiling.max(1), "within the exponential ceiling");
        }
        // Different seeds decorrelate the fleet.
        let spread: std::collections::HashSet<u64> =
            (0..32).map(|seed| backoff_ms(seed, 5, 50, 2_000)).collect();
        assert!(spread.len() > 16, "jitter actually jitters: {spread:?}");
    }
}
