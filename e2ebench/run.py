#!/usr/bin/env python3
"""End-to-end compile benchmark for hattc (one-shot) and hattd (daemon).

    python3 e2ebench/run.py --workload oneshot-cold --seed 1 --seconds 50 --trace 0

Builds hattc, hattd and the benchmark's helpers from the enclosing
source tree into .bench_build/, generates the workload's inputs from
--seed, drives the shipped binaries in a closed loop for --seconds, checks
every output with code that does not come from the compiler, and prints
one JSON result as the last line of stdout. --trace 0 reports the
end-to-end metrics; --trace 1 spends half the time on the same loop and
half on an in-process replay through the library's layer calls, and
reports the per-layer metrics plus the layer-share table. README.md
defines every metric and workload.
"""

import argparse
import json
import os
import random
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
import layers  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
TARGETS = ["hattc", "hattd", "e2e_probe", "e2e_check"]

# An untraced run sets up at least SETUP_REPS times, and keeps setting
# up until SETUP_SECONDS have been spent (at most SETUP_MAX times), so
# the median of a cheap set-up is taken over enough samples to be steady.
SETUP_REPS = 5
SETUP_SECONDS = 2.0
SETUP_MAX = 50

# Timed compiles run on one thread: a compile spread over every core of a
# shared host stalls whenever any one of them is taken, so its timings
# follow the neighbours' load more than the program's.
THREADS = "1"          # HATT_THREADS of every timed compile
WITNESS_THREADS = "4"  # determinism witness runs against THREADS
DAEMON_CLIENTS = 3     # compile connections; plus one ping connection


class Request:
    def __init__(self, key, spec_index, kind, device=""):
        self.key = key                # index into the workload's requests
        self.spec_index = spec_index  # which corpus file it compiles
        self.kind = kind
        self.device = device
        self.input = None             # set once the corpus exists

    @property
    def name(self):
        stem = Path(self.input).stem
        return f"{stem}/{self.kind}" + (f"@{self.device}" if self.device
                                        else "")


# Each workload: corpus specs for e2e_probe, and its requests as
# (spec index, mapping kind, device). Inputs of one workload stay within
# ~1.5x of each other in cost, and an odd number of equally frequent
# requests puts the p50 inside one request's spread, not in the gap
# between two.
#
# Two workloads only: the host's CPU speed drifts over tens of seconds,
# and a few long runs average that drift out where many short ones
# cannot within the same time limit.
WORKLOADS = {
    # Every request builds: the paper's O(N^3) bottom-up construction and
    # the O(N^2) emit on a 968-mode Hubbard lattice, and routing onto
    # heavy-hex Montreal for hatt and the two device-aware mappers (route
    # is the largest layer of those four). Each request writes a fresh
    # disk cache, the store's write side. The treespilation input is
    # smaller because its tournament builds and scores several trees.
    "oneshot-cold": {
        "path": "oneshot", "cache": "fresh",
        "specs": ["hubbard:22x22", "molecule:CH4", "dense:18:3000",
                  "dense:16:1200"],
        "requests": [(0, "hatt", ""), (1, "hatt", "montreal"),
                     (1, "bonsai", "montreal"), (2, "hatt", "montreal"),
                     (3, "treespilation", "montreal")],
    },
    # One hattd whose memory tier is filled during set-up: every build is
    # a memory hit, so a build-only change should not move this workload.
    # Time goes to the re-done parse/preprocess/map/emit and to queueing
    # on the daemon's single loop thread.
    "warm-daemon": {
        "path": "daemon", "cache": "warm",
        "specs": ["molecule:CH4", "dense:20:6000", "hubbard:22x22",
                  "hubbard:20x22", "hubbard:20x20"],
        "requests": [(0, "hatt", ""), (1, "hatt", ""), (2, "hatt", ""),
                     (3, "hatt", ""), (4, "hatt", "")],
    },
}

END_TO_END_UNITS = {
    "latency_p50_s": "s", "latency_p90_s": "s", "requests_per_s": "1/s",
    "success_frac": "ratio", "peak_rss_mb": "MB", "pauli_weight": "count",
    "setup_s": "s",
}

RESPONSE_RE = re.compile(r"pauli weight (\d+)")
DEVICE_RE = re.compile(r"-> (\d+) CNOTs, depth (\d+), (\d+) SWAPs")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    logfile = BUILD / "build.log"
    with open(logfile, "w") as out:
        if not (BUILD / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=out, stderr=out).returncode:
                shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                raise BenchError(f"cmake configure failed; see {logfile}")
        cmd = ["cmake", "--build", str(BUILD), "-j", "4", "--target"]
        if subprocess.run(cmd + TARGETS, stdout=out, stderr=out).returncode:
            raise BenchError(f"build failed; see {logfile}")
    return {
        "hattc": BUILD / "hatt" / "hattc",
        "hattd": BUILD / "hatt" / "hattd",
        "probe": BUILD / "e2e_probe",
        "check": BUILD / "e2e_check",
    }


# ----------------------------------------------------------------- corpus

def make_requests(workload):
    return [Request(k, spec, kind, device) for k, (spec, kind, device)
            in enumerate(WORKLOADS[workload]["requests"])]


def generate_corpus(bins, workload, seed, dest):
    specs = WORKLOADS[workload]["specs"]
    proc = subprocess.run([str(bins["probe"]), "corpus", str(dest),
                           str(seed)] + specs, capture_output=True,
                          text=True)
    if proc.returncode:
        raise BenchError(f"corpus generation failed: {proc.stderr.strip()}")
    paths = proc.stdout.splitlines()
    if len(paths) != len(specs):
        raise BenchError("corpus generator wrote an unexpected file list")
    return paths


def compile_env(threads):
    env = dict(os.environ)
    env["HATT_THREADS"] = threads
    env.pop("HATT_TRACE", None)
    env.pop("HATT_FAULTS", None)
    return env


# --------------------------------------------------------------- one-shot

def parse_oneshot(text):
    """The response fields hattc prints: weight, and the routed block."""
    m = RESPONSE_RE.search(text)
    if not m:
        return None
    resp = {"pauli_weight": int(m.group(1))}
    d = DEVICE_RE.search(text)
    if d:
        resp.update(routed_cnots=int(d.group(1)),
                    routed_depth=int(d.group(2)),
                    routed_swaps=int(d.group(3)))
    return resp


def run_hattc(bins, req, out_dir, env, stdout_path, cache_dir=None):
    """Spawn one hattc compile; returns (seconds, maxrss KB, response or
    None). The clock runs from spawn to reaped exit."""
    argv = ["hattc", "compile", req.input, "--mapping", req.kind,
            "-o", str(out_dir)]
    if req.device:
        argv += ["--device", req.device]
    if cache_dir is not None:
        argv += ["--cache", str(cache_dir)]
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path),
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stdout_path) + ".err",
         os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(str(bins["hattc"]), argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    resp = None
    if os.waitstatus_to_exitcode(status) == 0:
        resp = parse_oneshot(Path(stdout_path).read_text())
    return seconds, usage.ru_maxrss, resp


class Outputs:
    """A new output directory for every request, keeping only the latest
    per distinct request for the checks. Rewriting an existing artifact
    makes ext4 write it to disk at close; a new file that is deleted
    seconds later never leaves the page cache, so the timings do not
    depend on the shared disk."""

    def __init__(self, root):
        self.root = root
        self.latest = {}
        self.count = 0
        self.lock = threading.Lock()

    def new(self, req):
        with self.lock:
            self.count += 1
            return f"r{req.key}-{self.count}"

    def done(self, req, name):
        with self.lock:
            old = self.latest.get(req.key)
            self.latest[req.key] = name
        if old is not None:
            shutil.rmtree(self.root / old, ignore_errors=True)

    def dir(self, req):
        return self.root / self.latest[req.key]


class OneShot:
    """Closed loop of one client spawning hattc, one request at a time."""

    def __init__(self, bins, workload, reqs, work, seed):
        self.bins, self.reqs, self.work = bins, reqs, work
        self.fresh_cache = WORKLOADS[workload]["cache"] == "fresh"
        self.rng = random.Random(seed)
        self.outputs = Outputs(work / "out")

    def out_dir(self, req):
        return self.outputs.dir(req)

    def run(self, seconds):
        env = compile_env(THREADS)
        samples = []   # (request key, seconds, response or None)
        peak_kb = 0
        stdout_path = self.work / "hattc.stdout"
        cache_root = self.work / "cache"
        order = []
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            if not order:
                order = list(self.reqs)
                self.rng.shuffle(order)
            req = order.pop()
            cache = None
            if self.fresh_cache:
                cache = cache_root / f"q{len(samples)}"
            name = self.outputs.new(req)
            secs, rss, resp = run_hattc(self.bins, req,
                                        self.outputs.root / name, env,
                                        stdout_path, cache)
            if resp is not None:
                self.outputs.done(req, name)
            if cache is not None:
                shutil.rmtree(cache, ignore_errors=True)
            samples.append((req.key, secs, resp))
            peak_kb = max(peak_kb, rss)
        wall = time.perf_counter() - start
        return {"samples": samples, "wall": wall, "peak_mb": peak_kb / 1024,
                "pings": []}

    def stop(self):
        pass


# ----------------------------------------------------------------- daemon

class Daemon:
    """One hattd --cache, its memory tier warmed during set-up, driven by
    DAEMON_CLIENTS compile connections plus one ping connection, each a
    closed loop."""

    def __init__(self, bins, workload, reqs, work, seed):
        self.bins, self.reqs, self.work, self.seed = bins, reqs, work, seed
        self.proc = None
        work.mkdir(parents=True, exist_ok=True)
        self.out_root = work / "daemon-out"
        self.outputs = Outputs(self.out_root)
        log_path = work / "hattd.log"
        with open(log_path, "w") as logf:
            self.proc = subprocess.Popen(
                [str(bins["hattd"]), "--port", "0", "--cache",
                 str(work / "daemon-cache"), "--out-root",
                 str(self.out_root)],
                stdout=logf, stderr=subprocess.STDOUT, cwd=str(work),
                env=compile_env(THREADS))
        try:
            self.port = self.wait_listening(log_path)
            # Warm the memory tier: one compile of every request.
            conn = self.connect()
            try:
                for req in reqs:
                    if self.compile(conn, req)[1] is None:
                        raise BenchError(
                            f"warm-up compile of {req.name} failed")
            finally:
                conn[0].close()
        except BaseException:
            self.stop()
            raise

    def wait_listening(self, log_path):
        deadline = time.time() + 30
        while True:
            m = re.search(r"listening on [^\s:]+:(\d+)", log_path.read_text())
            if m:
                return int(m.group(1))
            if self.proc.poll() is not None or time.time() > deadline:
                raise BenchError("hattd did not start: " +
                                 log_path.read_text()[-400:])
            time.sleep(0.005)

    def out_dir(self, req):
        return self.outputs.dir(req)

    def connect(self):
        sock = socket.create_connection(("127.0.0.1", self.port), timeout=120)
        return sock, sock.makefile("rb")

    @staticmethod
    def frame(doc):
        return (json.dumps(doc) + "\n").encode()

    def compile(self, conn, req):
        name = self.outputs.new(req)
        doc = {"format": "hatt-compile-request", "version": 1,
               "input": req.input, "input_format": "auto",
               "mapping": req.kind, "out_dir": name,
               "emit_qubit": True, "max_terms": 0, "max_modes": 0,
               "timeout_seconds": 0.0, "fallback": False, "jobs": 0}
        if req.device:
            doc["device"] = req.device
        sock, reader = conn
        start = time.perf_counter()
        sock.sendall(self.frame(doc))
        line = reader.readline()
        seconds = time.perf_counter() - start
        if not line:
            raise BenchError("hattd closed a compile connection")
        reply = json.loads(line)
        if reply.get("format") != "hatt-compile-response":
            return seconds, None
        self.outputs.done(req, name)
        resp = {"pauli_weight": reply.get("pauli_weight")}
        for key in ("routed_cnots", "routed_depth", "routed_swaps"):
            if key in reply:
                resp[key] = reply[key]
        return seconds, resp

    def run(self, seconds):
        samples = []
        pings = []
        lock = threading.Lock()
        stop = threading.Event()
        errors = []

        def compile_client(index):
            rng = random.Random(self.seed * 31 + index)
            try:
                conn = self.connect()
            except OSError as e:
                errors.append(e)
                return
            order = []
            try:
                while not stop.is_set():
                    if not order:
                        order = list(self.reqs)
                        rng.shuffle(order)
                    req = order.pop()
                    secs, resp = self.compile(conn, req)
                    with lock:
                        samples.append((req.key, secs, resp))
            except (OSError, ValueError, BenchError) as e:
                errors.append(e)
            finally:
                conn[0].close()

        def ping_client():
            try:
                sock, reader = self.connect()
            except OSError as e:
                errors.append(e)
                return
            try:
                while not stop.is_set():
                    start = time.perf_counter()
                    sock.sendall(self.frame({"op": "ping"}))
                    if not reader.readline():
                        raise BenchError("hattd closed the ping connection")
                    pings.append(time.perf_counter() - start)
            except (OSError, BenchError) as e:
                errors.append(e)
            finally:
                sock.close()

        threads = [threading.Thread(target=compile_client, args=(i,))
                   for i in range(DAEMON_CLIENTS)]
        threads.append(threading.Thread(target=ping_client))
        start = time.perf_counter()
        for t in threads:
            t.start()
        time.sleep(seconds)
        stop.set()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        if errors:
            raise BenchError(f"daemon client failed: {errors[0]}")
        return {"samples": samples, "wall": wall,
                "peak_mb": self.peak_mb(), "pings": pings}

    def peak_mb(self):
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        m = re.search(r"VmHWM:\s+(\d+) kB", status)
        return int(m.group(1)) / 1024 if m else 0.0

    def stop(self):
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


# ----------------------------------------------------------------- checks

def check_outputs(bins, reqs, runner, samples, work):
    """Independent checks, once per distinct request, outside the timed
    window. Returns the set of request keys whose outputs failed; raises
    BenchError when the determinism witness differs."""
    bad = set()
    env = compile_env(WITNESS_THREADS)
    for req in reqs:
        responses = [r for key, _, r in samples if key == req.key and r]
        if not responses:
            continue
        art = runner.out_dir(req)
        stem = Path(req.input).stem
        proc = subprocess.run([str(bins["check"]),
                               str(art / f"{stem}.mapping.json"),
                               str(art / f"{stem}.qubit.json")],
                              capture_output=True, text=True)
        if proc.returncode:
            log(f"check: {req.name}: {proc.stderr.strip()}")
            bad.add(req.key)
            continue
        got = json.loads(proc.stdout)
        if not (got["anticommute"] and got["square_identity"] and
                got["majoranas"] == 2 * got["modes"]):
            log(f"check: {req.name}: mapping is not a valid Majorana set "
                f"{got}")
            bad.add(req.key)
        if any(r["pauli_weight"] != got["pauli_weight"] for r in responses):
            log(f"check: {req.name}: reported pauli weight differs from "
                f"the recount {got['pauli_weight']}")
            bad.add(req.key)

        # Determinism witness: the same request one-shot on one thread.
        wit_dir = work / "witness" / f"r{req.key}"
        _, _, wit = run_hattc(bins, req, wit_dir, env,
                              work / "witness.stdout")
        if wit is None:
            raise BenchError(f"witness compile of {req.name} failed")
        for field in ("pauli_weight", "routed_cnots", "routed_depth"):
            seen = {r.get(field) for r in responses}
            if seen != {wit.get(field)}:
                raise BenchError(
                    f"determinism witness: {req.name} {field} is "
                    f"{sorted(seen, key=str)} under HATT_THREADS={THREADS} "
                    f"but {wit.get(field)} under "
                    f"HATT_THREADS={WITNESS_THREADS}")
        for suffix in (".mapping.json", ".tree.json", ".qubit.json"):
            a, b = art / (stem + suffix), wit_dir / (stem + suffix)
            if a.exists() != b.exists() or (
                    a.exists() and a.read_bytes() != b.read_bytes()):
                log(f"check: {req.name}: {suffix} differs from the "
                    f"one-shot HATT_THREADS={WITNESS_THREADS} artifact")
                bad.add(req.key)
    return bad


# ---------------------------------------------------------------- metrics

def percentile(values, q):
    """Nearest-rank percentile (q in (0, 100])."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def per_key_mean(samples):
    """Mean latency per distinct request, averaged over requests, so a
    partial last pass does not tilt the mix."""
    by_key = {}
    for key, secs, _ in samples:
        by_key.setdefault(key, []).append(secs)
    return statistics.mean(statistics.mean(v) for v in by_key.values())


def end_to_end(result, reqs, bad, setup_times):
    samples = result["samples"]
    ok = [s for s in samples if s[2] is not None and s[0] not in bad]
    latencies = [secs for _, secs, _ in samples]
    weights = {}
    for key, _, resp in ok:
        weights.setdefault(key, resp["pauli_weight"])
    metrics = {
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "requests_per_s": len(ok) / result["wall"],
        "success_frac": len(ok) / len(samples),
        "peak_rss_mb": result["peak_mb"],
        "pauli_weight": sum(weights.values()),
        "setup_s": statistics.median(setup_times),
    }
    print(f"  {len(samples)} requests over {result['wall']:.2f} s, "
          f"{len(samples) - len(ok)} failed; {len(setup_times)} set-ups")
    for req in reqs:
        mine = [secs for key, secs, _ in samples if key == req.key]
        if mine:
            print(f"  {req.name:<36} n={len(mine):<4} "
                  f"p50 {percentile(mine, 50):.4f} s "
                  f"weight {weights.get(req.key)}")
    counts = {"latency_p50_s": len(latencies), "latency_p90_s":
              len(latencies), "requests_per_s": len(samples),
              "success_frac": len(samples), "peak_rss_mb": len(samples),
              "pauli_weight": len(weights), "setup_s": len(setup_times)}
    for name, value in metrics.items():
        print(f"{name:<16} {value:>14.6g} {END_TO_END_UNITS[name]:<6} "
              f"n={counts[name]}")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in metrics.items()}


def traced_metrics(bins, workload, reqs, result, work, seconds):
    """The replay half of a traced run, folded with the loop's timings."""
    manifest = work / "manifest.tsv"
    manifest.write_text("".join(
        f"{r.input}\t{r.kind}\t{r.device or '-'}\n" for r in reqs))
    spans_path = work / "spans.json"
    store = {None: "none", "fresh": "fresh", "warm": "warm"}[
        WORKLOADS[workload]["cache"]]
    proc = subprocess.run(
        [str(bins["probe"]), "replay", str(manifest), store, str(seconds),
         str(work / "replay"), str(spans_path)],
        capture_output=True, text=True, env=compile_env(THREADS))
    if proc.returncode:
        raise BenchError(f"replay failed: {proc.stderr.strip()}")
    spans = layers.load_spans(spans_path)
    keep = ROOT / ".bench_build" / f"spans-{workload}.json"
    shutil.copyfile(spans_path, keep)

    loop = {}
    mean = per_key_mean(result["samples"])
    if WORKLOADS[workload]["path"] == "daemon":
        loop["daemon_s"] = mean
        if result["pings"]:
            loop["ping_rtt_s"] = statistics.median(result["pings"])
    else:
        loop["oneshot_s"] = mean
    metrics, n = layers.per_layer_metrics(spans, loop)
    print(layers.share_table(workload, spans))
    for name, (value, unit) in metrics.items():
        print(f"{name:<22} {value:>14.6g} {unit:<6} n={n}")
    print(f"spans: {keep.relative_to(ROOT)}")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, n


# ------------------------------------------------------------------- main

def run(args):
    bins = build()
    workload = args.workload
    work = (ROOT / ".bench_build" / "work" /
            f"{workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    daemon = WORKLOADS[workload]["path"] == "daemon"
    runner_cls = Daemon if daemon else OneShot
    reqs = make_requests(workload)
    setup_times = []
    runners = []

    def set_up(rep):
        run_dir = work / f"setup{rep}"
        start = time.perf_counter()
        paths = generate_corpus(bins, workload, args.seed, run_dir / "inputs")
        for req in reqs:
            req.input = paths[req.spec_index]
        runners.append(runner_cls(bins, workload, reqs, run_dir, args.seed))
        setup_times.append(time.perf_counter() - start)
        return runners[-1], run_dir

    try:
        runner, run_dir = set_up(0)
        loop_seconds = args.seconds / 2 if args.trace else args.seconds
        result = runner.run(loop_seconds)
        runner.stop()
        if not result["samples"]:
            raise BenchError("no request completed in the timed window")
        bad = check_outputs(bins, reqs, runner, result["samples"], run_dir)
        if not args.trace:
            # The remaining set-ups run after the window, so setup_s's
            # median samples the machine at another moment than the first.
            while len(setup_times) < SETUP_MAX and (
                    len(setup_times) < SETUP_REPS or
                    sum(setup_times) < SETUP_SECONDS):
                set_up(len(setup_times))[0].stop()
        attempted = len(result["samples"])
        failed = sum(1 for key, _, resp in result["samples"]
                     if resp is None or key in bad)
        print(f"workload {workload} seed {args.seed}: "
              f"{'traced' if args.trace else 'untraced'} run")
        if args.trace:
            metrics, replayed = traced_metrics(bins, workload, reqs, result,
                                               run_dir, args.seconds / 2)
            attempted += replayed
        else:
            metrics = end_to_end(result, reqs, bad, setup_times)
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": metrics}
    finally:
        for d in runners:
            d.stop()
        shutil.rmtree(work, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result = run(args)
    except (BenchError, OSError, ValueError,
            subprocess.SubprocessError) as e:
        log(f"e2ebench: {e}")
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
