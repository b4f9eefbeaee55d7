//! The `serve` workload: an open-loop load generator for `demodq-serve`
//! and the traced in-process replay of the same requests.
//!
//! The generator is one thread driving `CONNECTIONS` pipelined keep-alive
//! connections. Request `i` of a step is due at `i / rate`; its latency
//! runs from that due time to its reply, so a stall delays the clock of
//! every request queued behind it. The generator also records how late
//! it issued each request against the schedule: when it, rather than the
//! server, fell behind, the step is invalid.

use crate::stats::{self, best_of_rounds, Latency, Lateness, Limits, StepOutcome, Verdict};
use crate::study::fnv;
use crate::trace::{self, timed};
use datasets::DatasetId;
use demodq::StudyScale;
use demodq_serve::codec::{frame_from_rows, rows_from_frame};
use demodq_serve::http::{try_parse, ParseOutcome, Request};
use demodq_serve::routes::Routed;
use demodq_serve::{App, DriftConfig, DriftStore, Registry};
use mlcore::ModelKind;
use serde_json::{json, Value};
use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use tabular::DenseMatrix;

/// Connections and generator threads: at most the two cores of the box
/// the benchmark was written on, one of which the server needs.
const CONNECTIONS: usize = 2;
/// Rows generated per dataset for request bodies.
const ROWS_PER_DATASET: usize = 64;
/// Fixed rate ladder (requests/s) for the capacity search.
const LADDER: [f64; 18] = [
    20_000.0, 25_000.0, 30_000.0, 33_000.0, 36_000.0, 39_000.0, 42_000.0, 45_000.0, 48_000.0,
    51_000.0, 54_000.0, 57_000.0, 60_000.0, 64_000.0, 68_000.0, 72_000.0, 76_000.0, 80_000.0,
];
const LADDER_STEP_S: f64 = 0.5;
/// The reference rate latency is reported at: well below capacity.
pub const REFERENCE_RPS: f64 = 8_000.0;
const LIMITS: Limits = Limits {
    p99_ms: 20.0,
    gen_late_ms: 2.0,
};
/// Longest and shortest pause of the generator between send rounds.
const NAP_S: f64 = 200e-6;
const MIN_NAP_S: f64 = 50e-6;
/// How long a step waits for stragglers after its last send.
const DRAIN_S: f64 = 2.0;

/// The registry's training seed: `demodq-serve`'s default. The served
/// models are the program's configuration and stay fixed; the workload
/// seed varies the traffic. (Seeded registries differ in the winning
/// hyperparameters, and so in scoring cost, which would make capacity
/// move with the traffic seed.)
pub const REGISTRY_SEED: u64 = 7;

/// The server's registry arguments: all five datasets, the paper's three
/// models, smoke scale.
pub fn train_registry() -> tabular::Result<Registry> {
    Registry::train(
        &DatasetId::all(),
        &ModelKind::all(),
        &StudyScale::smoke(),
        "smoke",
        REGISTRY_SEED,
    )
}

/// One prepared request: its wire bytes and its parsed body.
pub struct Prepared {
    pub bytes: Vec<u8>,
    pub body: Value,
    pub dataset: DatasetId,
    pub model: ModelKind,
}

/// The request pool: single-row `/v1/predict` bodies, round-robin over
/// the 15 (dataset, model) pairs; every other row of a pair carries its
/// label, which feeds the drift windows.
pub fn requests(seed: u64) -> tabular::Result<Vec<Prepared>> {
    let mut per_dataset = Vec::new();
    for id in DatasetId::all() {
        let frame = id.generate(ROWS_PER_DATASET, seed ^ fnv("perfbench-requests"))?;
        let label = frame.schema().label().map(|f| f.name.clone());
        per_dataset.push((id, rows_from_frame(&frame), label));
    }
    let pairs: Vec<(usize, ModelKind)> = (0..per_dataset.len())
        .flat_map(|d| ModelKind::all().into_iter().map(move |m| (d, m)))
        .collect();
    let mut out = Vec::with_capacity(pairs.len() * ROWS_PER_DATASET);
    for r in 0..ROWS_PER_DATASET {
        for &(d, model) in &pairs {
            let (id, rows, label) = &per_dataset[d];
            let mut row = rows[r].clone();
            if let (true, Some(name), Value::Object(mut object)) = (r % 2 == 1, label, row.clone())
            {
                object.remove(name);
                row = Value::Object(object);
            }
            let body = json!({ "dataset": id.name(), "model": model.name(), "row": row });
            let text = body.to_string();
            let mut bytes = format!(
                "POST /v1/predict HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                text.len()
            )
            .into_bytes();
            bytes.extend_from_slice(text.as_bytes());
            out.push(Prepared {
                bytes,
                body,
                dataset: *id,
                model,
            });
        }
    }
    Ok(out)
}

/// CPU seconds used by the calling thread.
fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec with the C layout on
    // 64-bit Linux, and the clock id is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// One reply at the front of a buffer: its status, where its body lies,
/// and how many bytes it takes up.
struct Reply {
    status: u16,
    body: std::ops::Range<usize>,
    len: usize,
}

/// Finds the first complete HTTP response in `buf`.
fn next_reply(buf: &[u8]) -> Option<Reply> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let length: usize = head
        .lines()
        .find_map(|l| {
            let (name, value) = l.split_once(':')?;
            name.eq_ignore_ascii_case("content-length")
                .then(|| value.trim().parse().ok())?
        })
        .unwrap_or(0);
    let len = head_end + 4 + length;
    (buf.len() >= len).then_some(Reply {
        status,
        body: head_end + 4..len,
        len,
    })
}

/// The text inside `"key":[...]` of a reply body.
fn body_field<'a>(body: &'a [u8], key: &[u8]) -> Option<&'a [u8]> {
    let at = body
        .windows(key.len() + 4)
        .position(|w| w[0] == b'"' && &w[1..=key.len()] == key && &w[key.len() + 1..] == b"\":[")?;
    let start = at + key.len() + 4;
    let end = start + body[start..].iter().position(|&b| b == b']')?;
    Some(&body[start..end])
}

/// A 200 with exactly one prediction.
fn good_reply(status: u16, body: &[u8]) -> bool {
    status == 200 && body_field(body, b"predictions").is_some_and(|p| p.len() == 1)
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
    /// Due time of every request awaiting its reply, oldest first.
    inflight: VecDeque<f64>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            written: 0,
            inbuf: Vec::new(),
            inflight: VecDeque::new(),
        })
    }

    /// Writes what the socket takes; true when bytes moved.
    fn flush(&mut self) -> Result<bool, String> {
        let mut moved = false;
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Err("connection closed".into()),
                Ok(n) => {
                    self.written += n;
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
        }
        Ok(moved)
    }

    /// Reads what has arrived; true when bytes moved.
    fn fill(&mut self) -> Result<bool, String> {
        let mut chunk = [0u8; 64 * 1024];
        let mut moved = false;
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("connection reset by server".into()),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(moved),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

/// Measured outcome of one step, with the figures the report prints.
struct Step {
    outcome: StepOutcome,
    latency: Option<Latency>,
    gen_late: (f64, f64, f64),
    gen_cpu_s: f64,
    wall_s: f64,
    verdict: Verdict,
}

impl Step {
    fn to_json(&self) -> Value {
        let o = &self.outcome;
        json!({
            "rate": o.rate,
            "sent": o.sent,
            "ok": o.ok,
            "failed": o.failed,
            "backlog": o.backlog,
            "samples": self.latency.map_or(0, |l| l.n),
            "p50_ms": Value::from(self.latency.map(|l| l.p50)),
            "p99_ms": Value::from(o.p99_ms),
            "max_ms": Value::from(self.latency.map(|l| l.max)),
            "gen_late_p50_ms": self.gen_late.0,
            "gen_late_p99_ms": self.gen_late.1,
            "gen_late_max_ms": self.gen_late.2,
            "gen_cpu_s": self.gen_cpu_s,
            "wall_s": self.wall_s,
            "verdict": format!("{:?}", self.verdict),
        })
    }
}

/// Sends `rate * seconds` requests on schedule, starting at `first` in
/// the pool, and waits up to `DRAIN_S` for their replies.
fn run_step(
    addr: &str,
    pool: &[Prepared],
    first: usize,
    rate: f64,
    seconds: f64,
) -> Result<Step, String> {
    let mut conns = (0..CONNECTIONS)
        .map(|_| Conn::open(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let n = (rate * seconds).round() as usize;
    let mut lateness = Lateness::default();
    let mut latencies: Vec<f64> = Vec::with_capacity(n);
    let (mut ok, mut failed) = (0u64, 0u64);
    let mut next = 0usize;
    let mut backlog = None;
    let cpu0 = thread_cpu_s();
    let t0 = Instant::now();
    let now = || t0.elapsed().as_secs_f64();
    loop {
        let t = now();
        let mut progressed = false;
        while next < n && next as f64 / rate <= t {
            let due = next as f64 / rate;
            let conn = &mut conns[next % CONNECTIONS];
            conn.out
                .extend_from_slice(&pool[(first + next) % pool.len()].bytes);
            conn.inflight.push_back(due);
            lateness.record(due * 1e3, t * 1e3);
            next += 1;
            progressed = true;
        }
        if next == n && backlog.is_none() {
            backlog = Some(conns.iter().map(|c| c.inflight.len() as u64).sum::<u64>());
        }
        for conn in &mut conns {
            let io = conn.flush().and_then(|w| Ok(w | conn.fill()?));
            match io {
                Ok(moved) => progressed |= moved,
                Err(_) => {
                    failed += conn.inflight.len() as u64;
                    conn.inflight.clear();
                    conn.inbuf.clear();
                    *conn = Conn::open(addr)?;
                }
            }
            let mut pos = 0;
            let arrived = now();
            while let Some(reply) = next_reply(&conn.inbuf[pos..]) {
                let Some(due) = conn.inflight.pop_front() else {
                    break;
                };
                latencies.push((arrived - due) * 1e3);
                let body = &conn.inbuf[pos + reply.body.start..pos + reply.body.end];
                if good_reply(reply.status, body) {
                    ok += 1;
                } else {
                    failed += 1;
                }
                pos += reply.len;
            }
            conn.inbuf.drain(..pos);
        }
        let pending: usize = conns.iter().map(|c| c.inflight.len()).sum();
        if next == n && pending == 0 {
            break;
        }
        if now() > seconds + DRAIN_S {
            failed += pending as u64;
            break;
        }
        // Nap between rounds rather than spin: the server needs the other
        // core. Each round sends everything due, so a nap delays sends by
        // at most NAP_S (counted as lateness) and replies by as much
        // (counted in their latency).
        let until_next = if next < n {
            next as f64 / rate - now()
        } else {
            NAP_S
        };
        if until_next > 0.0 || !progressed {
            std::thread::sleep(Duration::from_secs_f64(until_next.clamp(MIN_NAP_S, NAP_S)));
        }
    }
    let wall_s = now();
    let gen_cpu_s = thread_cpu_s() - cpu0;
    let latency = Latency::of(&mut latencies);
    let outcome = StepOutcome {
        rate,
        sent: n as u64,
        ok,
        failed,
        p99_ms: latency.and_then(|l| l.p99),
        backlog: backlog.unwrap_or(0),
        gen_late_p99_ms: lateness.summary().1,
    };
    let verdict = stats::verdict(&outcome, &LIMITS);
    Ok(Step {
        outcome,
        latency,
        gen_late: lateness.summary(),
        gen_cpu_s,
        wall_s,
        verdict,
    })
}

/// Pops the first complete reply off `buf`: (status, body).
fn take_reply(buf: &mut Vec<u8>) -> Option<(u16, Vec<u8>)> {
    let reply = next_reply(buf)?;
    let body = buf[reply.body.clone()].to_vec();
    buf.drain(..reply.len);
    Some((reply.status, body))
}

/// `GET path` on a fresh connection; the reply body as text.
pub fn http_get(addr: &str, path: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    loop {
        if let Some((status, body)) = take_reply(&mut buf) {
            return Ok((status, String::from_utf8_lossy(&body).into_owned()));
        }
        let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
        if n == 0 {
            return Err(format!("GET {path}: connection closed"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Sum of every sample of a Prometheus metric family whose labels
/// contain `filter`.
fn scrape(text: &str, family: &str, filter: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter(|l| {
            l.starts_with(family) && l[family.len()..].starts_with([' ', '{']) && l.contains(filter)
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// In-process predictions for a probe set, through the same parse,
/// route and batch path the server runs.
fn in_process_replies(app: &App, probes: &[&Prepared]) -> Result<Vec<String>, String> {
    let mut jobs = Vec::new();
    for p in probes {
        let ParseOutcome::Complete(request, _) = try_parse(&p.bytes) else {
            return Err("probe request does not parse".into());
        };
        match app.route_or_defer(&request) {
            Routed::Predict(job) => jobs.push(*job),
            Routed::Immediate(r) => return Err(format!("probe answered {} inline", r.status)),
        }
    }
    Ok(app
        .predict_batch(&jobs)
        .into_iter()
        .map(|r| String::from_utf8_lossy(&r.body).into_owned())
        .collect())
}

/// Sends each probe alone and compares its predictions and
/// probabilities with the in-process reply. Returns (checked, mismatched).
fn check_probes(addr: &str, pool: &[Prepared]) -> Result<(u64, u64), String> {
    let registry = train_registry().map_err(|e| e.to_string())?;
    let app = App::with_drift(registry, DriftConfig::default());
    let probes: Vec<&Prepared> = pool.iter().take(2 * 15).collect();
    let expected = in_process_replies(&app, &probes)?;
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    let mut bad = 0;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    for (p, want) in probes.iter().zip(&expected) {
        stream.write_all(&p.bytes).map_err(|e| e.to_string())?;
        let reply = loop {
            if let Some(reply) = take_reply(&mut buf) {
                break reply;
            }
            let n = stream.read(&mut chunk).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("probe connection closed".into());
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let (status, got) = reply;
        let want = want.as_bytes();
        let same = status == 200
            && body_field(&got, b"predictions").is_some()
            && body_field(&got, b"predictions") == body_field(want, b"predictions")
            && body_field(&got, b"probabilities") == body_field(want, b"probabilities");
        if !same {
            bad += 1;
        }
    }
    Ok((probes.len() as u64, bad))
}

/// The `serve` load run: the probe check when asked, then the capacity
/// walk (`ladder`) or `seconds` at the reference rate.
pub fn serve_load(
    addr: &str,
    seed: u64,
    seconds: f64,
    ladder: bool,
    probes: bool,
) -> Result<Value, String> {
    let pool = requests(seed).map_err(|e| e.to_string())?;
    let (probes, probe_bad) = if probes {
        check_probes(addr, &pool)?
    } else {
        (0, 0)
    };
    // Warm the connections and caches before anything is timed.
    let warm = run_step(addr, &pool, 0, REFERENCE_RPS / 4.0, 0.25)?;
    let mut first = warm.outcome.sent as usize;
    let batch_counters = |text: &str| {
        (
            scrape(text, "demodq_batches_total", ""),
            scrape(text, "demodq_batched_rows_total", ""),
        )
    };
    let (batches0, rows0) = batch_counters(&http_get(addr, "/metrics")?.1);
    let mut steps = Vec::new();
    let mut walk = Vec::new();
    if ladder {
        'ladder: for rate in LADDER {
            // A step that fails or is invalid gets one retry, so a single
            // hiccup on a shared box does not end the walk.
            for attempt in 0..2 {
                let step = run_step(addr, &pool, first, rate, LADDER_STEP_S)?;
                first += step.outcome.sent as usize;
                let verdict = step.verdict;
                let p99 = step.outcome.p99_ms;
                steps.push(step);
                if verdict == Verdict::Pass || attempt == 1 {
                    walk.push((rate, verdict, p99));
                    if verdict == Verdict::Fail {
                        break 'ladder;
                    }
                    break;
                }
            }
        }
    } else {
        steps.push(run_step(addr, &pool, first, REFERENCE_RPS, seconds)?);
    }
    let (_, metrics) = http_get(addr, "/metrics")?;
    let (batches1, rows1) = batch_counters(&metrics);
    let (batches, rows) = (batches1 - batches0, rows1 - rows0);
    let sent: u64 = steps.iter().map(|s| s.outcome.sent).sum();
    let failed: u64 =
        steps.iter().map(|s| s.outcome.failed).sum::<u64>() + warm.outcome.failed + probe_bad;
    Ok(json!({
        "capacity_rps": Value::from(ladder.then(|| stats::capacity(&walk, LIMITS.p99_ms)).flatten()),
        "steps": Value::from(steps.iter().map(Step::to_json).collect::<Vec<_>>()),
        "limits": { "p99_ms": LIMITS.p99_ms, "gen_late_ms": LIMITS.gen_late_ms },
        "probes": probes,
        "probe_mismatches": probe_bad,
        "requests": sent + warm.outcome.sent + probes,
        "attempted": sent + warm.outcome.sent + probes,
        "failed": failed,
        "server": {
            // Over the timed steps only: the batches the measured traffic formed.
            "rows_per_batch": if batches > 0.0 { rows / batches } else { 0.0 },
            "rejected": scrape(&metrics, "demodq_rejected_total", ""),
            "errors": scrape(&metrics, "demodq_errors_total", "5xx"),
        },
    }))
}

/// Micro-batch sizes that cut `total` requests into batches of mean
/// `mean` rows (at least 1): each batch holds the floor or the ceiling
/// of the mean, spread evenly, so a measured mean of 1.6 becomes batches
/// of 1 and 2 in the ratio 2 : 3.
pub fn batch_sizes(total: usize, mean: f64) -> Vec<usize> {
    let mean = mean.max(1.0);
    let mut sizes = Vec::new();
    let mut done = 0;
    while done < total {
        let j = sizes.len() as f64;
        let size = (((j + 1.0) * mean).floor() - (j * mean).floor()) as usize;
        let size = size.clamp(1, total - done);
        sizes.push(size);
        done += size;
    }
    sizes
}

/// Rounds every batch runs at the least in one in-process burst.
const MIN_BATCH_ROUNDS: u32 = 20;

/// The server's request path in-process on one thread, untraced:
/// `try_parse`, `route_or_defer`, `App::predict_batch`,
/// `Response::write_to`, over the request pool cut into micro-batches of
/// the mean size `rows_per_batch` the server formed on the reference
/// step. Each batch is timed best-of-k, round after round over the pool,
/// for `seconds`; the output lists each batch's fastest run.
pub fn serve_throughput(seed: u64, seconds: f64, rows_per_batch: f64) -> Result<Value, String> {
    let pool = requests(seed).map_err(|e| e.to_string())?;
    let app = App::with_drift(
        train_registry().map_err(|e| e.to_string())?,
        DriftConfig::default(),
    );
    let sizes = batch_sizes(pool.len(), rows_per_batch);
    let starts: Vec<usize> = sizes
        .iter()
        .scan(0, |at, &n| {
            *at += n;
            Some(*at - n)
        })
        .collect();
    let mut sink: Vec<u8> = Vec::with_capacity(1 << 16);
    let (mut done, mut bad) = (0u64, 0u64);
    let best = best_of_rounds(sizes.len(), seconds, MIN_BATCH_ROUNDS, |b| {
        done += sizes[b] as u64;
        let mut jobs = Vec::with_capacity(sizes[b]);
        for p in &pool[starts[b]..starts[b] + sizes[b]] {
            let ParseOutcome::Complete(request, _) = try_parse(&p.bytes) else {
                return Err("request does not parse".to_string());
            };
            match app.route_or_defer(&request) {
                Routed::Predict(job) => jobs.push(*job),
                Routed::Immediate(_) => bad += 1,
            }
        }
        let mut digest = 0u64;
        for response in app.predict_batch(&jobs) {
            sink.clear();
            response
                .write_to(&mut sink, true)
                .map_err(|e| e.to_string())?;
            bad += u64::from(!good_reply(response.status, &response.body));
            let scores = [b"predictions".as_slice(), b"probabilities"]
                .map(|key| body_field(&response.body, key).map(fnv_bytes).unwrap_or(0));
            digest = (digest ^ scores[0] ^ scores[1].rotate_left(1)).wrapping_mul(0x100000001b3);
        }
        Ok(digest)
    })?;
    Ok(json!({
        "rows_per_batch": rows_per_batch,
        "batches": sizes.len(),
        "requests": pool.len(),
        "rounds": best.rounds(),
        "best_s": Value::from(best.best().to_vec()),
        "attempted": done,
        "failed": bad + best.mismatches,
    }))
}

fn fnv_bytes(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
    })
}

fn predict_span(model: ModelKind) -> &'static str {
    match model {
        ModelKind::LogReg => "mlcore.predict_s.log-reg",
        ModelKind::Knn => "mlcore.predict_s.knn",
        _ => "mlcore.predict_s.xgboost",
    }
}

/// Replays `n` requests of the pool in-process, in micro-batches of mean
/// size `rows_per_batch` (see [`batch_sizes`]), with a span around each
/// serve-layer call. `App::predict_batch` is timed whole; its parts
/// (codec, encoding, scoring, drift) are then rebuilt from their public
/// functions on the same rows and timed apart, and what remains of the
/// batch time is reported as `serve.batch_other_s`. Every span is
/// written to `spans_out` as JSON lines at the end.
pub fn serve_replay(
    seed: u64,
    rows_per_batch: f64,
    n: usize,
    spans_out: &std::path::Path,
) -> Result<Value, String> {
    let pool = requests(seed).map_err(|e| e.to_string())?;
    let app = App::with_drift(
        train_registry().map_err(|e| e.to_string())?,
        DriftConfig::default(),
    );
    let registry = app.registry();
    let drift = DriftStore::new(DriftConfig::default());
    let mut bad = 0u64;
    let mut sink: Vec<u8> = Vec::with_capacity(1 << 20);
    trace::start();
    let t0 = trace::now();
    let mut i = 0;
    for size in batch_sizes(n, rows_per_batch) {
        let members: Vec<&Prepared> = (i..i + size).map(|k| &pool[k % pool.len()]).collect();
        i += size;
        let mut jobs = Vec::with_capacity(members.len());
        for p in &members {
            let request: Request = match timed("serve.http.parse_s", || try_parse(&p.bytes)) {
                ParseOutcome::Complete(request, _) => request,
                _ => return Err("replayed request does not parse".into()),
            };
            match timed("serve.routes.decode_s", || app.route_or_defer(&request)) {
                Routed::Predict(job) => jobs.push(*job),
                Routed::Immediate(_) => bad += 1,
            }
        }
        let responses = timed("serve.batch_s", || app.predict_batch(&jobs));
        for response in &responses {
            bad += u64::from(response.status != 200);
            sink.clear();
            timed("serve.http.write_s", || response.write_to(&mut sink, true))
                .map_err(|e| e.to_string())?;
        }
        // The batch's parts, rebuilt.
        let mut groups: BTreeMap<(&str, &str), Vec<(usize, DenseMatrix)>> = BTreeMap::new();
        let mut frames = Vec::with_capacity(members.len());
        for (k, p) in members.iter().enumerate() {
            let served = registry
                .get(p.dataset.name(), p.model.name())
                .ok_or("model missing from registry")?;
            let rows = [p.body.get("row").cloned().unwrap_or(Value::Null)];
            let frame = timed("serve.codec_s", || {
                frame_from_rows(served.train.schema(), &rows, false)
            })?;
            let (x, _) = timed("tabular.encode_s", || {
                served.encoder.transform_with_report(&frame)
            })
            .map_err(|e| e.to_string())?;
            groups
                .entry((p.dataset.name(), p.model.name()))
                .or_default()
                .push((k, x));
            frames.push(frame);
        }
        let mut predictions: Vec<Vec<u8>> = vec![Vec::new(); members.len()];
        for ((dataset, model), xs) in &groups {
            let served = registry
                .get(dataset, model)
                .ok_or("model missing from registry")?;
            let n_cols = xs[0].1.n_cols();
            let data: Vec<f64> = xs
                .iter()
                .flat_map(|(_, x)| x.as_slice().iter().copied())
                .collect();
            let x_cat = DenseMatrix::from_vec(xs.len(), n_cols, data);
            let (labels, _) = timed(predict_span(served.model), || {
                served.classifier.predict_with_proba(&x_cat)
            });
            for ((k, _), label) in xs.iter().zip(labels) {
                predictions[*k] = vec![label];
            }
        }
        for (k, p) in members.iter().enumerate() {
            let served = registry
                .get(p.dataset.name(), p.model.name())
                .ok_or("model missing from registry")?;
            let labels: Option<Vec<Option<u8>>> = served.train.schema().label().and_then(|f| {
                let values = frames[k].numeric(&f.name).ok()?;
                let labels: Vec<Option<u8>> = values
                    .iter()
                    .map(|&v| (!v.is_nan()).then_some(u8::from(v > 0.5)))
                    .collect();
                labels.iter().any(Option::is_some).then_some(labels)
            });
            if let Some(labels) = labels {
                timed("serve.drift_s", || {
                    drift.observe(served, &frames[k], &labels, &predictions[k])
                });
            }
        }
    }
    let wall = trace::now() - t0;
    let (spans, counts) = trace::stop();
    trace::write_spans_file(spans_out, &spans).map_err(|e| e.to_string())?;
    let layers = trace::self_times(&spans);
    let get = |name: &str| layers.get(name).map_or(0.0, |l| l.self_s);
    let parts = get("serve.codec_s")
        + get("tabular.encode_s")
        + get("serve.drift_s")
        + ["log-reg", "knn", "xgboost"]
            .iter()
            .map(|m| get(&format!("mlcore.predict_s.{m}")))
            .sum::<f64>();
    let in_process = get("serve.http.parse_s")
        + get("serve.routes.decode_s")
        + get("serve.batch_s")
        + get("serve.http.write_s");
    let mut metrics = serde_json::Map::new();
    for (name, lt) in &layers {
        if *name == "serve.batch_s" {
            continue;
        }
        metrics.insert((*name).to_string(), json!(lt.self_s));
        metrics.insert(crate::count_name(name), json!(lt.calls));
    }
    let batch_n = layers.get("serve.batch_s").map_or(0, |l| l.calls);
    metrics.insert(
        "serve.batch_other_s".into(),
        json!((get("serve.batch_s") - parts).max(0.0)),
    );
    metrics.insert("serve.batch_other_n".into(), json!(batch_n));
    for (name, value) in &counts {
        metrics.insert((*name).to_string(), json!(value));
    }
    metrics.insert("trace.wall_s".into(), json!(wall));
    metrics.insert(
        "trace.coverage_frac".into(),
        json!(trace::covered_seconds(&spans) / wall),
    );
    Ok(json!({
        "attempted": n,
        "failed": bad,
        "rows_per_batch": rows_per_batch,
        "spans": spans.len(),
        "service_ms_per_request": in_process / n.max(1) as f64 * 1e3,
        "layers": metrics,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_are_split_off_a_pipelined_buffer() {
        let mut buf = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}HTTP/1.1 503 Busy\r\ncontent-length: 0\r\n\r\nHTTP/1.1 200".to_vec();
        let a = take_reply(&mut buf).expect("first reply complete");
        assert_eq!((a.0, a.1.as_slice()), (200, &b"{}"[..]));
        let b = take_reply(&mut buf).expect("second reply complete");
        assert_eq!((b.0, b.1.len()), (503, 0));
        assert!(take_reply(&mut buf).is_none());
        assert_eq!(buf, b"HTTP/1.1 200");
    }

    #[test]
    fn batch_sizes_keep_the_measured_mean() {
        assert_eq!(batch_sizes(10, 1.5), vec![1, 2, 1, 2, 1, 2, 1]);
        assert_eq!(batch_sizes(5, 1.0), vec![1; 5]);
        // Below one row a batch still holds one; the last batch is cut
        // to what remains.
        assert_eq!(batch_sizes(3, 0.2), vec![1; 3]);
        assert_eq!(batch_sizes(7, 4.0), vec![4, 3]);
        let sizes = batch_sizes(960, 1.6);
        assert_eq!(sizes.iter().sum::<usize>(), 960);
        assert!(sizes.iter().all(|&s| s == 1 || s == 2));
        assert_eq!(sizes.len(), 600);
    }

    #[test]
    fn a_good_reply_has_one_prediction() {
        let body = b"{\"n_rows\":1,\"predictions\":[1],\"probabilities\":[0.7]}";
        assert_eq!(body_field(body, b"predictions"), Some(&b"1"[..]));
        assert_eq!(body_field(body, b"probabilities"), Some(&b"0.7"[..]));
        assert!(good_reply(200, body));
        assert!(!good_reply(200, b"{\"predictions\":[1,0]}"));
        assert!(!good_reply(500, body));
        assert!(!good_reply(200, b"{\"error\":\"x\"}"));
    }

    #[test]
    fn prometheus_families_are_summed_by_label() {
        let text = "# HELP x\ndemodq_errors_total{endpoint=\"a\",class=\"5xx\"} 2\n\
                    demodq_errors_total{endpoint=\"b\",class=\"5xx\"} 3\n\
                    demodq_errors_total{endpoint=\"b\",class=\"4xx\"} 7\n\
                    demodq_errors_total_extra 9\ndemodq_batches_total 11\n";
        assert_eq!(scrape(text, "demodq_errors_total", "5xx"), 5.0);
        assert_eq!(scrape(text, "demodq_batches_total", ""), 11.0);
    }
}
