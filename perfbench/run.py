#!/usr/bin/env python3
"""The repository benchmark: builds the program, runs a workload, checks
its outputs and prints its metrics.

    python3 perfbench/run.py --workload study|data|serve --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout. Standard error carries the build log and
a readable report; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. `--workload all` runs every workload untraced and then
traced, reports each metric under `<workload>.<name>`, and counts a
study or data digest that differs between the two runs as failed.

Every run also writes a full record (environment, raw measurements) to
.bench_out/results/, which compare.py reads, and a traced run writes its
spans to .bench_out/spans/.
"""

import argparse
import http.client
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("study", "data", "serve")
# Set-ups per run, spread over it in three groups; the median is reported.
SETUP_REPEATS = {"study": 9, "data": 9, "serve": 9}
SERVE_INSTANCES = 3
STEP_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Builds the benchmark and the server from the checkout's sources."""
    cmd = [
        "cargo", "build", "--release", "--offline",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        "-p", "perfbench", "-p", "demodq-serve", "--bins",
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        raise BenchError("build failed")
    return os.path.join(target_dir(), "release")


def run_json(argv, timeout=STEP_TIMEOUT_S):
    """Runs a workload process to its exit: (last JSON line, wall s)."""
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, timeout=timeout)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise BenchError(f"{os.path.basename(argv[0])} {argv[1]} exited {done.returncode}")
    lines = done.stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{argv[1]} printed nothing")
    return json.loads(lines[-1]), wall


def run_json_parallel(argvs, env, timeout=STEP_TIMEOUT_S):
    """Runs processes side by side to their exits: each one's last JSON line."""
    procs = []
    try:
        for argv in argvs:
            procs.append(subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, env=env))
        outs = []
        for argv, proc in zip(argvs, procs):
            stdout, _ = proc.communicate(timeout=timeout)
            lines = stdout.decode().strip().splitlines()
            if proc.returncode != 0 or not lines:
                raise BenchError(f"{os.path.basename(argv[0])} {argv[1]} exited {proc.returncode}")
            outs.append(json.loads(lines[-1]))
        return outs
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def fresh_dir(*parts):
    path = os.path.join(OUT, "tmp", *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def spans_path(workload, seed):
    path = os.path.join(OUT, "spans")
    os.makedirs(path, exist_ok=True)
    return os.path.join(path, f"{workload}-s{seed}-{time.strftime('%Y%m%d-%H%M%S')}-{os.getpid()}.jsonl")


def quartiles(values):
    if len(values) < 2:
        return (values[0], values[0], values[0]) if values else (0.0, 0.0, 0.0)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment(seed):
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "loadavg_start": os.getloadavg(),
        "commit": commit,
        "seed": seed,
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def timed_setups(binary, workload, seed, n):
    times = []
    for _ in range(n):
        _, wall = run_json([binary, "setup", "--workload", workload, "--seed", str(seed)])
        times.append(wall)
    return times


# ---------------------------------------------------------------- study, data


def batch_workload(name, bins, seed, seconds):
    """study or data, untraced: one pass through the real runner, timed
    from launch to exit and checked; then the workload's items timed
    best-of-k for the rest of the budget (at least half of it), their
    output checked against the pass's journal. Set-ups are spread over
    the run.

    The items run in `nproc` single-threaded processes side by side, as
    the runner keeps every core busy with its own units; each item's
    cost is its fastest run in any of them, and the throughput counts
    one round's work per process."""
    binary = os.path.join(bins, "perfbench")
    start = time.perf_counter()
    per_group = SETUP_REPEATS[name] // 3
    setups = timed_setups(binary, name, seed, per_group)
    journal = fresh_dir(f"{name}-{seed}")
    out, wall = run_json([binary, f"{name}-pass", "--seed", str(seed), "--dir", journal])
    setups += timed_setups(binary, name, seed, per_group)
    budget = max(seconds / 2, seconds - (time.perf_counter() - start))
    argv = [binary, f"{name}-items", "--seed", str(seed), "--seconds", f"{budget:.3f}", "--dir", journal]
    procs = len(os.sched_getaffinity(0))
    items = run_json_parallel([argv] * procs, dict(os.environ, DEMODQ_THREADS="1"))
    setups += timed_setups(binary, name, seed, per_group)
    for note in out["notes"] + [n for i in items for n in i["notes"]]:
        log(f"check failed: {note}")
    best = [min(b) for b in zip(*(i["item_best_s"] for i in items))]
    work = items[0]["work"]
    # study's pass holds little beside the tasks its pool threads have in
    # flight, so its peak moves with how they overlap (16-21 MB between
    # seeds); the item processes run the same work on one thread each.
    # data's peak is its million-row pools, held only by the pass.
    rss = max(i["vm_hwm_mb"] for i in items) if name == "study" else out["vm_hwm_mb"]
    metrics = {
        "throughput": [procs * work / sum(best)],
        "peak_rss_mb": [rss],
        "setup_s": setups,
    }
    extra = {
        "digest": out["digest"],
        "pass_peak_rss_mb": out["vm_hwm_mb"],
        "pass_wall_s": wall,
        "items": {"work": work, "processes": procs, "best_s": sum(best),
                  "rounds": sum(i["rounds"] for i in items), "item_best_s": best},
    }
    if name == "study":
        extra["evals_per_s"] = out["evals"] / wall
    else:
        extra["wall_s"] = wall
    attempted = out["attempted"] + sum(i["attempted"] for i in items)
    failed = out["failed"] + sum(i["failed"] for i in items)
    return metrics, attempted, failed, extra


def batch_traced(name, bins, seed):
    binary = os.path.join(bins, "perfbench")
    spans = spans_path(name, seed)
    out, _ = run_json([binary, "trace", "--workload", name, "--seed", str(seed),
                          "--dir", fresh_dir(f"trace-{name}-{seed}"), "--spans", spans])
    for note in out["notes"]:
        log(f"check failed: {note}")
    extra = {"digest": out["digest"], "threads": out["threads"], "spans_file": spans, "spans": out["spans"]}
    return out["layers"], out["attempted"], out["failed"], extra


# ---------------------------------------------------------------------- serve


class Server:
    """demodq-serve on an ephemeral port with its default registry, which
    perfbench trains in-process too (REGISTRY_SEED)."""

    def __init__(self, bins, seed, tag):
        self.addr_file = os.path.join(fresh_dir(f"serve-{seed}-{tag}"), "addr")
        argv = [
            os.path.join(bins, "demodq-serve"), "--addr", "127.0.0.1:0",
            "--addr-file", self.addr_file, "--quiet",
        ]
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.addr = None
        try:
            while True:
                if self.proc.poll() is not None:
                    raise BenchError(f"demodq-serve exited {self.proc.returncode} during start-up")
                if time.perf_counter() - start > 120:
                    raise BenchError("demodq-serve did not become healthy in 120 s")
                # Re-read until healthy: the file may be caught half-written.
                if os.path.exists(self.addr_file):
                    with open(self.addr_file) as f:
                        self.addr = f.read().strip() or None
                if self.addr and self.get("/healthz")[0] == 200:
                    break
                time.sleep(0.005)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def get(self, path):
        host, port = self.addr.rsplit(":", 1)
        conn = http.client.HTTPConnection(host, int(port), timeout=5)
        try:
            conn.request("GET", path)
            reply = conn.getresponse()
            return reply.status, reply.read().decode()
        except (OSError, http.client.HTTPException):
            return 0, ""
        finally:
            conn.close()

    def proc_status(self, key):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return float(line.split()[1])
        return 0.0

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def server_setups(bins, seed, tag, n):
    """Starts and stops the server n times: launch to first healthy reply."""
    times = []
    for j in range(n):
        server = Server(bins, seed, f"{tag}-setup{j}")
        server.stop()
        times.append(server.setup_s)
    return times


def serve_instance(bins, seed, k, ref_seconds, first):
    """Starts a server and measures it at the reference rate; the first
    instance also checks the probe set and then walks the capacity
    ladder. Peak RSS is read before the ladder, whose overload steps
    would inflate it."""
    binary = os.path.join(bins, "perfbench")
    server = Server(bins, seed, k)
    try:
        load = [binary, "serve-load", "--seed", str(seed), "--addr", server.addr]
        ref, _ = run_json(load + ["--seconds", str(ref_seconds), "--ladder", "0", "--probes", str(int(first))])
        rss = server.proc_status("VmHWM") / 1024
        ladder = run_json(load + ["--seconds", "0", "--ladder", "1", "--probes", "0"])[0] if first else None
    finally:
        server.stop()
    if ref["probe_mismatches"]:
        log(f"check failed: {ref['probe_mismatches']} of {ref['probes']} probe predictions differ from in-process scoring")
    out = {
        "setup_s": server.setup_s,
        "peak_rss_mb": rss,
        "reference": ref["steps"][0],
        "server": ref["server"],
        "attempted": ref["attempted"],
        "failed": ref["failed"],
    }
    if ladder:
        # No passing step is a measurement, not a failed request: on a
        # host that starves the generator every step is invalid.
        if not ladder["capacity_rps"]:
            log("capacity not measured: no step on the ladder passed (see the record's ladder)")
        out.update({
            "capacity_rps": ladder["capacity_rps"] or 0.0,
            "ladder": ladder["steps"],
            "limits": ladder["limits"],
            "attempted": ref["attempted"] + ladder["attempted"],
            "failed": ref["failed"] + ladder["failed"],
        })
    return out


def serve_workload(bins, seed, seconds):
    """Three server instances, each started, measured at the reference
    rate and walked up the capacity ladder, and each followed by more
    set-ups and a burst of the request path in-process.

    Open-loop capacity moves by a fifth between instances of one build on
    a 2-core box, too much to gate on, so it is reported but not a metric,
    and only the first instance walks the ladder.
    `throughput` is the in-process request rate of one event loop, at the
    micro-batch size the first instance's server formed on its reference
    step: every batch of the request pool is timed best-of-k over all
    bursts. Each burst runs in `nproc` processes side by side, as the
    event loop runs beside the load on the other cores."""
    binary = os.path.join(bins, "perfbench")
    procs = len(os.sched_getaffinity(0))
    instances, bursts, setups = [], [], []
    for k in range(SERVE_INSTANCES):
        instances.append(serve_instance(bins, seed, k, max(1.0, seconds / 15), k == 0))
        setups.append(instances[-1]["setup_s"])
        setups += server_setups(bins, seed, k, SETUP_REPEATS["serve"] // SERVE_INSTANCES - 1)
        rows_per_batch = instances[0]["server"]["rows_per_batch"]
        argv = [binary, "serve-throughput", "--seed", str(seed),
                "--seconds", f"{seconds / 10:.3f}", "--rows-per-batch", repr(rows_per_batch)]
        bursts += run_json_parallel([argv] * procs, None)
    best = [min(b) for b in zip(*(burst["best_s"] for burst in bursts))]
    samples = {
        "throughput": [bursts[0]["requests"] / sum(best)],
        "peak_rss_mb": [i["peak_rss_mb"] for i in instances],
        "setup_s": setups,
    }
    steps = [i["reference"] for i in instances]
    extra = {
        "capacity_rps": instances[0]["capacity_rps"],
        "ladder": instances[0]["ladder"],
        "limits": instances[0]["limits"],
        "reference": steps,
        "server": [i["server"] for i in instances],
        "p50_ms": [s["p50_ms"] for s in steps],
        "p99_ms": [s["p99_ms"] for s in steps],
        "latency_samples": [s["samples"] for s in steps],
        "rows_per_batch": bursts[0]["rows_per_batch"],
        "inprocess_rounds": sum(b["rounds"] for b in bursts),
        "inprocess_batches": len(best),
    }
    attempted = sum(i["attempted"] for i in instances) + sum(b["attempted"] for b in bursts)
    failed = sum(i["failed"] for i in instances) + sum(b["failed"] for b in bursts)
    return samples, attempted, failed, extra


def serve_traced(bins, seed):
    binary = os.path.join(bins, "perfbench")
    inst = serve_instance(bins, seed, "trace", 3, True)
    step = inst["reference"]
    rows_per_batch = inst["server"]["rows_per_batch"]
    spans = spans_path("serve", seed)
    replay, _ = run_json([binary, "serve-replay", "--seed", str(seed), "--rows-per-batch", repr(rows_per_batch),
                             "--requests", "30000", "--spans", spans])
    layers = dict(replay["layers"])
    layers.update({
        "serve.capacity_rps": inst["capacity_rps"],
        "serve.rows_per_batch": rows_per_batch,
        "serve.rejected": inst["server"]["rejected"],
        "serve.errors": inst["server"]["errors"],
        "serve.p50_ms": step["p50_ms"],
        "serve.p99_ms": step["p99_ms"] or 0.0,
        "serve.service_ms": replay["service_ms_per_request"],
        "serve.wait_ms": step["p50_ms"] - replay["service_ms_per_request"],
    })
    attempted = inst["attempted"] + replay["attempted"]
    failed = inst["failed"] + replay["failed"]
    extra = {"reference": step, "ladder": inst["ladder"], "spans_file": spans, "spans": replay["spans"]}
    return layers, attempted, failed, extra


# ---------------------------------------------------------------------- driver


def run_workload(name, bins, seed, seconds, trace):
    if trace:
        if name == "serve":
            return serve_traced(bins, seed)
        return batch_traced(name, bins, seed)
    if name == "serve":
        return serve_workload(bins, seed, seconds)
    return batch_workload(name, bins, seed, seconds)


def report(name, trace, spec, raw, attempted, failed, extra):
    """Readable report on stderr; returns the contract's metrics object."""
    metrics = {}
    log(f"\n== {name} ({'traced' if trace else 'end to end'}) ==")
    if trace:
        for m in spec["per_layer"]:
            value = float(raw.get(m["name"], 0.0))
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            if value:
                log(f"  {m['name']:<36} {value:>14.6g} {m['unit']}")
    else:
        for m in spec["end_to_end"]:
            samples = raw[m["name"]]
            q1, _, q3 = quartiles(samples)
            value = statistics.median(samples)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            log(f"  {m['name']:<16} {value:>14.6g} {m['unit']:<6} "
                f"(median of n={len(samples)}, q1={q1:.6g}, q3={q3:.6g})")
        if "items" in extra:
            i = extra["items"]
            log(f"  throughput is {i['processes']} x {i['work']:.6g} units over the {len(i['item_best_s'])} "
                f"items' fastest runs ({i['best_s']:.6g} s), best of {i['rounds']} rounds "
                f"in {i['processes']} single-threaded processes")
        if "inprocess_rounds" in extra:
            log(f"  throughput is best of {extra['inprocess_rounds']} rounds over {extra['inprocess_batches']} "
                f"batches of mean {extra['rows_per_batch']:.4g} rows")
        for key, unit in (("evals_per_s", "1/s"), ("wall_s", "s"), ("capacity_rps", "1/s")):
            if key in extra:
                log(f"  {key:<16} {extra[key]:>14.6g} {unit:<6} (n=1, reported, not gated)")
        for key in ("p50_ms", "p99_ms"):
            if key in extra:
                values = [v for v in extra[key] if v is not None]
                shown = f"{statistics.median(values):>14.6g}" if values else f"{'null':>14}"
                log(f"  {key:<16} {shown} ms     (median of {len(extra[key])} reference steps of "
                    f"{min(extra['latency_samples'])}+ samples each, reported, not gated)")
    log(f"  failed_frac      {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    return metrics


def save(record):
    path = os.path.join(OUT, "results")
    os.makedirs(path, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    fname = f"{record['workload']}-s{record['env']['seed']}-t{record['trace']}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(path, fname), "w") as f:
        json.dump(record, f, indent=1)


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = bench_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        bins = build()
        runs = [(w, t) for t in (0, 1) for w in WORKLOADS] if args.workload == "all" else [(args.workload, args.trace)]
        combined, digests = {}, {}
        total_attempted = total_failed = 0
        for name, trace in runs:
            env = environment(args.seed)
            raw, attempted, failed, extra = run_workload(name, bins, args.seed, seconds, trace)
            if "digest" in extra:
                digests.setdefault(name, []).append(extra["digest"])
                if len(digests[name]) == 2:
                    attempted += 1
                    if digests[name][0] != digests[name][1]:
                        failed += 1
                        log(f"check failed: {name} digest {digests[name][0]} untraced, {digests[name][1]} traced")
            metrics = report(name, trace, spec, raw, attempted, failed, extra)
            save({"workload": name, "trace": trace, "env": env, "attempted": attempted,
                  "failed": failed, "metrics": metrics, "samples": raw if not trace else None, "extra": extra})
            total_attempted += attempted
            total_failed += failed
            prefix = f"{name}." if args.workload == "all" else ""
            combined.update({prefix + k: v for k, v in metrics.items()})
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as e:
        log(f"benchmark failed: {e}")
        sys.exit(1)
    print(json.dumps({
        "correct": total_failed == 0,
        "attempted": total_attempted,
        "failed": total_failed,
        "metrics": combined,
    }))


if __name__ == "__main__":
    main()
