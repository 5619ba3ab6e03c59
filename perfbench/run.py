#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ocdx CLI and the ocdxd server.

  python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                           [--trace 0|1] [--out FILE]
  python3 perfbench/run.py --compare BASE.jsonl NEW.jsonl

A run builds the repository (Release, into .bench_build/ at the root of
the checkout), generates the workload's `.dx` inputs from --seed
(perfbench/gen_dx.py), sets the workload up three times, checks every
output, then times the workload for --seconds. Workloads:

  ingest, exchange, enumerate  `ocdx all FILE` processes and
                               `ocdx batch -j 2 --command=all FILES`
  serve                        one `ocdxd serve --preload=...` process
                               fed by one closed-loop client

--trace 0 reports the end-to-end metrics and attaches no instrumentation
to the program. --trace 1 is a separate run that reports the per-layer
metrics: the `layers` driver (perfbench/layers.cc) replays the same
inputs through the library's public calls, and an ocdxd session times
warm and cold requests. Metric names, units and bounds are those of
BENCHMARK.json. Human-readable `workload metric value unit` lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. --out appends the result, with the
sha256 of every input file, to a JSON-lines file; --compare reads two
such files and marks every workload x metric ok, regressed or
unresolved. See perfbench/README.md.
"""

import sys

sys.dont_write_bytecode = True  # the checkout stays as git would leave it

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import gen_dx  # noqa: E402

BUILD = os.path.join(ROOT, ".bench_build")
LIB_BUILD = os.path.join(BUILD, "ocdx")
LAYERS_BUILD = os.path.join(BUILD, "layers")
OCDX = os.path.join(LIB_BUILD, "ocdx")
OCDXD = os.path.join(LIB_BUILD, "ocdxd")
LAYERS = os.path.join(LAYERS_BUILD, "layers")
MEASURE = os.path.join(LAYERS_BUILD, "measure")
CALIBRATE = os.path.join(LAYERS_BUILD, "calibrate")
CORPUS = os.path.join(ROOT, "tests", "corpus")

DEFAULT_SEED = 20080607
WORKERS = 2  # batch workers; no program process runs more threads
SETUPS = 3  # set-ups per end-to-end run; setup_s is their median
# Every distinct op (a file, or a request of the serve mix) is timed at
# least this often, so that its lower decile rests on 10 samples.
MIN_CYCLES = 10
MIN_BATCHES = 5
BATCH_SHARE = 0.4  # of the timed phase, for the batch runs
HARD_STOP_S = 120  # the timed phase ends here whatever the minimums say
# The lower decile of calibrate's wall time on the host the bounds were
# set on; end-to-end timings are reported at that host speed.
CAL_REFERENCE_MS = 30.0

CLI_SHARDS = {"ingest": 1, "exchange": 1, "enumerate": 2}
SERVE_COMMANDS = ["certain", "chase", "classify", "membership", "all"]

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
with open(os.path.join(HERE, "pins.json")) as f:
    PINS = json.load(f)


class BenchError(Exception):
    """A condition under which the run cannot report a result."""


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"no ocdx source tree at {ROOT}")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(LIB_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", LIB_BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", LIB_BUILD, "--target", "ocdx_cli",
                  "ocdxd", "-j", str(WORKERS)])
    if not os.path.isfile(os.path.join(LAYERS_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", LAYERS_BUILD,
                      "-DCMAKE_BUILD_TYPE=Release",
                      f"-DOCDX_BUILD_DIR={LIB_BUILD}"])
    steps.append(["cmake", "--build", LAYERS_BUILD, "-j", str(WORKERS)])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


# ---------------------------------------------------------------------------
# Program processes
# ---------------------------------------------------------------------------

def spawn(argv, **popen_args):
    """Starts `argv` under the measure helper (perfbench/measure.cc).
    Returns the helper's Popen and the read end of its report pipe."""
    read_fd, write_fd = os.pipe()
    try:
        proc = subprocess.Popen([MEASURE, str(write_fd)] + argv,
                                stderr=subprocess.DEVNULL,
                                pass_fds=(write_fd,), **popen_args)
    finally:
        os.close(write_fd)
    return proc, read_fd


def read_report(proc, read_fd):
    """Waits for the helper; returns the program's (exit code, wall s,
    CPU s, peak RSS KiB)."""
    proc.wait()
    with os.fdopen(read_fd) as f:
        fields = f.read().split()
    if proc.returncode != 0 or len(fields) != 4:
        raise BenchError(f"measure helper failed: {proc.args}")
    code, wall_ns, cpu_us, rss_kb = map(int, fields)
    return code, wall_ns / 1e9, cpu_us / 1e6, rss_kb


class Proc:
    """One finished program process: exit code, stdout, wall seconds,
    CPU seconds (user + system) and peak RSS in KiB."""

    def __init__(self, argv):
        proc, report = spawn(argv, stdout=subprocess.PIPE)
        self.out = proc.stdout.read()
        proc.stdout.close()
        self.code, self.wall, self.cpu, self.rss_kb = read_report(proc,
                                                                  report)

    def ok(self):
        # 3: the run completed, but a scenario budget tripped (governed).
        return self.code in (0, 3)


class Server:
    """An `ocdxd serve` process and its one client connection. After
    stop(), `rss_kb` holds the server's peak RSS."""

    def __init__(self, preloads, shards):
        argv = [OCDXD, "serve", f"--shards={shards}"]
        argv += [f"--preload={p}" for p in preloads]
        self.proc, self.report = spawn(argv, stdin=subprocess.PIPE,
                                       stdout=subprocess.PIPE)
        self.rss_kb = None
        self.pid = None

    def cpu_s(self):
        """CPU seconds the server's main thread has run so far."""
        if self.pid is None:  # the measure helper's only child
            helper = self.proc.pid
            with open(f"/proc/{helper}/task/{helper}/children") as f:
                self.pid = int(f.read().split()[0])
        with open(f"/proc/{self.pid}/schedstat") as f:
            return int(f.read().split()[0]) / 1e9

    def request(self, line):
        """Sends one request line; returns (status word, payload bytes)."""
        self.proc.stdin.write(line.encode() + b"\n")
        self.proc.stdin.flush()
        header = self.proc.stdout.readline().decode()
        if not header:
            raise BenchError(f"ocdxd exited during '{line}'")
        kind, _, rest = header.rstrip("\n").partition(" ")
        if kind in ("ok", "governed"):
            return kind, self.proc.stdout.read(int(rest))
        return kind, rest.encode()

    def stop(self):
        if self.proc.returncode is not None:
            return
        try:
            self.proc.stdin.write(b"quit\n")
            self.proc.stdin.close()
        except OSError:
            pass  # already gone; the report below still comes
        self.proc.stdout.read()
        self.proc.stdout.close()
        _, _, _, self.rss_kb = read_report(self.proc, self.report)


class Tally:
    """Checked operations: every program run or request whose output the
    benchmark compares with a reference."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            sys.stderr.write(f"FAILED: {what}\n")
        return ok


def write_files(directory, named_texts):
    os.makedirs(directory, exist_ok=True)
    paths = []
    for name, text in named_texts:
        path = os.path.join(directory, name)
        with open(path, "w") as f:
            f.write(text)
        paths.append(path)
    return paths


def shards_flag(shards):
    return [f"--shards={shards}"] if shards > 1 else []


def generic_oracle(tally, paths, refs):
    """The literal active-domain engine is the reference implementation:
    its `all` output must equal the indexed engine's byte for byte."""
    for path, ref in zip(paths, refs):
        generic = Proc([OCDX, "all", "--engine=generic", path])
        tally.check(generic.ok() and generic.out == ref,
                    f"{path}: indexed output differs from --engine=generic")


def small_oracle(tally, directory, families, seed):
    for family in families:
        paths = write_files(directory, gen_dx.generate(family, seed, True))
        refs = []
        for path in paths:
            run = Proc([OCDX, "all", path])
            tally.check(run.ok(), f"{path}: exit {run.code}")
            refs.append(run.out)
        generic_oracle(tally, paths, refs)


def digest_check(tally, workload, seed, outputs):
    """At the default seed the outputs are pinned in pins.json."""
    if seed != DEFAULT_SEED:
        return
    digest = sha256(b"".join(outputs))
    tally.check(digest == PINS["outputs"].get(workload),
                f"{workload}: output digest {digest} is not the pinned one")


def corpus_inputs(tally):
    """The pinned corpus files, with their goldens as references."""
    named, refs = [], []
    for name, pinned in sorted(PINS["corpus"].items()):
        with open(os.path.join(CORPUS, name), "rb") as f:
            data = f.read()
        tally.check(sha256(data) == pinned, f"corpus file {name} changed")
        golden = os.path.join(CORPUS, "golden", name[:-3] + ".golden")
        with open(golden, "rb") as f:
            refs.append(f.read())
        named.append((name, data.decode()))
    return named, refs


# The hosts this runs on share their cores: an op's speed flips between
# an uncontended and a contended mode for seconds at a time, and the share
# of time in each drifts from run to run. Statistics that straddle the
# two modes (a mean, the median of all samples) inherit that drift, so
# every timing below is taken within one mode: the lower decile of an
# op's samples is its uncontended latency, and rates are the upper decile
# over rounds. The uncontended speed itself drifts with the host's load;
# report() takes that out with the calibrate kernel (Workload.calibrate).

def percentile(values, p):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def latency_metrics(per_op):
    """op_p50_ms and op_p90_ms: percentiles over the workload's distinct
    ops of each op's uncontended latency."""
    uncontended = [percentile(v, 10) for v in per_op.values()]
    return {"op_p50_ms": percentile(uncontended, 50),
            "op_p90_ms": percentile(uncontended, 90)}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Workload:
    def __init__(self, name, seed, seconds, trace):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(BUILD, "work", name)
        self.tally = Tally()
        self.inputs = {}  # file name -> sha256, for --out
        self.deadline = None
        self.cal_ms = []
        shutil.rmtree(self.work, ignore_errors=True)

    def calibrate(self):
        """Times one run of the fixed host-work kernel; called once per
        set-up and per timed round."""
        run = Proc([CALIBRATE])
        if run.code != 0:
            raise BenchError(f"calibrate exited {run.code}")
        self.cal_ms.append(run.wall * 1e3)

    def host_scale(self):
        """How much faster this run's host is than the reference host."""
        return CAL_REFERENCE_MS / percentile(self.cal_ms, 10)

    def record_inputs(self, named_texts):
        for name, text in named_texts:
            self.inputs[name] = sha256(text.encode())

    def timed_out(self):
        return time.perf_counter() > self.deadline


class CliWorkload(Workload):
    """ingest, exchange, enumerate: one op is one `ocdx all FILE`."""

    def run(self):
        shards = CLI_SHARDS[self.name]
        named = gen_dx.generate(self.name, self.seed)
        self.record_inputs(named)
        op = lambda path: [OCDX, "all", path] + shards_flag(shards)

        # Set-up: a cold pass over freshly written files. The first pass
        # gives the references; the others must reproduce them.
        setup_times, refs = [], None
        for k in range(SETUPS if self.trace == 0 else 1):
            paths = write_files(os.path.join(self.work, f"setup{k}"), named)
            self.calibrate()
            runs = [Proc(op(p)) for p in paths]
            setup_times.append(sum(r.wall for r in runs))
            for p, r in zip(paths, runs):
                self.tally.check(r.ok(), f"{p}: exit {r.code}")
            if refs is None:
                refs = [r.out for r in runs]
            else:
                self.tally.check([r.out for r in runs] == refs,
                                 f"set-up {k} output differs from set-up 0")
        small_oracle(self.tally, os.path.join(self.work, "oracle"),
                     [self.name], self.seed)
        if self.name == "enumerate":
            generic_oracle(self.tally, paths, refs)
        digest_check(self.tally, self.name, self.seed, refs)

        self.deadline = time.perf_counter() + HARD_STOP_S
        if self.trace:
            server, mix = self.warm_and_cold(paths, refs, shards)
            try:
                return layer_metrics(self, paths, refs, shards, server, mix)
            finally:
                server.stop()
        return self.timed(paths, refs, op, statistics.median(setup_times))

    def warm_and_cold(self, paths, refs, shards):
        """A server with every file preloaded from its snapshot, and a mix
        that asks for each file warm, by its own path, and cold, by the
        path of a copy."""
        cold_dir = os.path.join(self.work, "cold")
        os.makedirs(cold_dir)
        mix = []
        for path, ref in zip(paths, refs):
            run = Proc([OCDX, "snapshot", "write", path, path + ".snap"])
            self.tally.check(run.code == 0, f"snapshot write {path}")
            mix += [("all", path, ref, True),
                    ("all", shutil.copy(path, cold_dir), ref, False)]
        return Server([p + ".snap" for p in paths], shards), mix

    def timed(self, paths, refs, op, setup_s):
        rng = random.Random(f"order:{self.name}:{self.seed}")
        order = list(zip(paths, refs))
        rng.shuffle(order)
        batch_argv = [OCDX, "batch", "-j", str(WORKERS), "--command=all"]
        batch_argv += paths
        batch_ref = b"".join(b"==> " + p.encode() + b" <==\n" + r
                             for p, r in zip(paths, refs))
        latencies = {p: [] for p in paths}
        cpu = {p: [] for p in paths}
        rss, rates, cycles = [], [], 0
        single_s = batch_s = 0.0
        while not self.timed_out():
            singles_done = (single_s >= (1 - BATCH_SHARE) * self.seconds
                            and cycles >= MIN_CYCLES)
            batch_done = (batch_s >= BATCH_SHARE * self.seconds
                          and len(rates) >= MIN_BATCHES)
            if singles_done and batch_done:
                break
            self.calibrate()
            if not batch_done and (singles_done or batch_s * (
                    1 - BATCH_SHARE) <= single_s * BATCH_SHARE):
                run = Proc(batch_argv)
                batch_s += run.wall
                rates.append(len(paths) / run.wall)
                self.tally.attempted += len(paths) - 1
                self.tally.check(run.ok() and run.out == batch_ref,
                                 "batch output differs from single runs")
            else:
                cycles += 1
                for path, ref in order:
                    run = Proc(op(path))
                    single_s += run.wall
                    latencies[path].append(run.wall * 1e3)
                    cpu[path].append(run.cpu * 1e3)
                    rss.append(run.rss_kb)
                    self.tally.check(run.ok() and run.out == ref,
                                     f"{path}: output differs")
        return dict(
            latency_metrics(latencies),
            ops_per_s=percentile(rates, 90),
            cpu_ms_per_op=statistics.fmean(
                percentile(v, 10) for v in cpu.values()),
            peak_rss_mb=statistics.median(rss) / 1024,
            setup_s=setup_s)


class ServeWorkload(Workload):
    """One ocdxd process: warm requests on preloaded snapshots, cold
    requests that parse, over generated and pinned corpus files."""

    def run(self):
        seed = self.seed
        warm = [("warm_ingest_a.dx", gen_dx.ingest(seed, 0)),
                ("warm_ingest_b.dx", gen_dx.ingest(seed, 1)),
                ("warm_exchange.dx", gen_dx.exchange(seed, 0))]
        cold = [("cold_exchange.dx", gen_dx.exchange(seed, 1))]
        cold += [(f"cold_enumerate_{i}.dx", gen_dx.enumerate_(seed, i))
                 for i in range(4)]
        corpus, corpus_refs = corpus_inputs(self.tally)
        self.record_inputs(warm + cold + corpus)
        corpus_paths = [os.path.join(CORPUS, n) for n, _ in corpus]

        # Set-up: snapshot the warm files and start the server, until it
        # answers its first `stats` request. The last server stays up.
        setup_times, server = [], None
        for k in range(SETUPS if self.trace == 0 else 1):
            if server is not None:
                server.stop()
            directory = os.path.join(self.work, f"setup{k}")
            warm_paths = write_files(directory, warm)
            cold_paths = write_files(directory, cold)
            self.calibrate()
            start = time.perf_counter()
            for p in warm_paths:
                run = Proc([OCDX, "snapshot", "write", p, p + ".snap"])
                self.tally.check(run.code == 0, f"snapshot write {p}")
            server = Server([p + ".snap" for p in warm_paths], 1)
            try:
                kind, _ = server.request("stats")
            except BenchError:
                kind = "exited"
            setup_times.append(time.perf_counter() - start)
            if not self.tally.check(kind == "ok", "ocdxd start-up"):
                server.stop()
                raise BenchError("ocdxd did not start")
        try:
            return self.serve(server, warm_paths, cold_paths, corpus_paths,
                              corpus_refs, statistics.median(setup_times))
        finally:
            server.stop()

    def serve(self, server, warm_paths, cold_paths, corpus_paths,
              corpus_refs, setup_s):
        # References: single-process `ocdx CMD FILE` output, and the
        # goldens for the corpus.
        mix = []
        for path in warm_paths + cold_paths:
            for cmd in SERVE_COMMANDS:
                run = Proc([OCDX, cmd, path])
                self.tally.check(run.ok(),
                                 f"ocdx {cmd} {path}: exit {run.code}")
                mix.append((cmd, path, run.out, path in warm_paths))
        mix += [("all", p, r, False) for p, r in zip(corpus_paths,
                                                     corpus_refs)]
        small_oracle(self.tally, os.path.join(self.work, "oracle"),
                     ["ingest", "exchange"], self.seed)
        enum_paths = [p for p in cold_paths if "enumerate" in p]
        generic_oracle(self.tally, enum_paths,
                       [r for c, p, r, _ in mix
                        if c == "all" and p in enum_paths])
        digest_check(self.tally, self.name, self.seed,
                     [r for _, p, r, _ in mix if p not in corpus_paths])
        all_refs = {p: r for c, p, r, _ in mix if c == "all"}

        self.deadline = time.perf_counter() + HARD_STOP_S
        if self.trace:
            return layer_metrics(self, list(all_refs), list(all_refs.values()),
                                 1, server, mix)
        rng = random.Random(f"order:{self.name}:{self.seed}")
        rng.shuffle(mix)
        per_op, rates, cpu = session(self, server, mix, self.seconds)
        server.stop()
        return dict(
            latency_metrics(per_op),
            ops_per_s=percentile(rates, 90),
            cpu_ms_per_op=percentile(cpu, 10),
            peak_rss_mb=server.rss_kb / 1024,
            setup_s=setup_s)


def session(workload, server, mix, seconds):
    """Sends the mix in whole cycles, closed loop, one request at a time,
    until `seconds` have passed and MIN_CYCLES cycles were answered.
    Returns the latencies in ms per mix entry, and per cycle the request
    rate and the server's CPU ms per request."""
    per_op = {(cmd, path): [] for cmd, path, _, _ in mix}
    rates, cpu = [], []
    start = time.perf_counter()
    while not workload.timed_out() and (
            time.perf_counter() - start < seconds or len(rates) < MIN_CYCLES):
        workload.calibrate()
        cycle_start, cycle_cpu = time.perf_counter(), server.cpu_s()
        for cmd, path, ref, _ in mix:
            t = time.perf_counter()
            kind, payload = server.request(f"{cmd} {path}")
            per_op[(cmd, path)].append((time.perf_counter() - t) * 1e3)
            workload.tally.check(kind in ("ok", "governed") and payload == ref,
                                 f"ocdxd {cmd} {path}: reply differs")
        rates.append(len(mix) / (time.perf_counter() - cycle_start))
        cpu.append((server.cpu_s() - cycle_cpu) * 1e3 / len(mix))
    return per_op, rates, cpu


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def layer_metrics(workload, paths, refs, shards, server, mix):
    """Per-layer metrics: the layers driver over `paths`, then an ocdxd
    session over `mix`, split into warm (preloaded) and cold requests."""
    refs_dir = os.path.join(workload.work, "refs")
    write_files(refs_dir, [(f"{i}.ref", r.decode())
                           for i, r in enumerate(refs)])
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    trace_out = os.path.join(results, f"trace_{workload.name}.json")
    layer_s = (1 - BATCH_SHARE) * workload.seconds
    run = Proc([LAYERS, f"--seconds={layer_s}", f"--shards={shards}",
                f"--refs={refs_dir}", f"--trace-out={trace_out}"] + paths)
    if run.code != 0:
        raise BenchError(f"layers driver exited {run.code}")
    report = json.loads(run.out.decode().splitlines()[-1])
    workload.tally.attempted += report["attempted"]
    workload.tally.failed += report["failed"]
    metrics = report["metrics"]

    per_op, _, _ = session(workload, server, mix,
                           BATCH_SHARE * workload.seconds)
    _, stats = server.request("stats")
    for kind, is_warm in (("warm", True), ("cold", False)):
        metrics[f"ocdxd.{kind}_p50_ms"] = latency_metrics(
            {(c, p): per_op[(c, p)] for c, p, _, w in mix if w == is_warm}
        )["op_p50_ms"]
    metrics["ocdxd.plan_cache_hit_rate"] = json.loads(stats)[
        "plan_cache_hit_rate"]
    return metrics


# ---------------------------------------------------------------------------
# Reporting and comparison
# ---------------------------------------------------------------------------

def report(workload, values, out_file):
    """Prints the result. End-to-end times and rates are scaled to the
    reference host speed; per-layer values are printed as measured."""
    key = "per_layer" if workload.trace else "end_to_end"
    scale = workload.host_scale() if key == "end_to_end" else 1.0
    metrics = {}
    for spec in SPEC[key]:
        if spec["name"] not in values:
            raise BenchError(f"metric {spec['name']} was not measured")
        value = values[spec["name"]]
        if spec["unit"] in ("ms", "s"):
            value *= scale
        elif spec["unit"] == "ops/s":
            value /= scale
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{workload.name} {spec['name']} {value!r} {spec['unit']}")
    t = workload.tally
    result = {"correct": t.failed == 0, "attempted": t.attempted,
              "failed": t.failed, "metrics": metrics}
    if out_file:
        record = dict(result, workload=workload.name, seed=workload.seed,
                      trace=workload.trace, inputs=workload.inputs,
                      host_scale=scale, unscaled=values)
        with open(out_file, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault((r["workload"], r["trace"]), []).append(r)
    return runs


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return q1, mid, q3


def compare(base_path, new_path):
    """One row per workload x metric: ok, regressed or unresolved, by the
    rule in perfbench/README.md. Exit status 1 unless every bounded row
    is ok."""
    base, new = load_runs(base_path), load_runs(new_path)
    specs = {s["name"]: s for s in SPEC["end_to_end"] + SPEC["per_layer"]}
    bad = 0
    print(f"{'workload':<10} {'metric':<28} {'base q1/med/q3':>28} "
          f"{'new q1/med/q3':>28} {'change':>8}  verdict")
    for key in sorted(set(base) & set(new)):
        b_runs, n_runs = base[key], new[key]
        for name in b_runs[0]["metrics"]:
            spec = specs[name]
            b = [r["metrics"][name]["value"] for r in b_runs]
            n = [r["metrics"][name]["value"] for r in n_runs]
            bq, nq = summary(b), summary(n)
            sign = 1 if spec["better"] == "lower" else -1
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            verdict = "-"
            if "bound" in spec:
                bound = spec["bound"]
                spread = max((q[2] - q[0]) / q[1] if q[1] else 0.0
                             for q in (bq, nq))
                all_better = max(sign * x for x in n) < min(sign * x for x in b)
                if spread > bound and not all_better:
                    verdict = "unresolved"
                elif sign * change > bound:
                    verdict = "regressed"
                else:
                    verdict = "ok"
                bad += verdict != "ok"
            print(f"{key[0]:<10} {name:<28} "
                  f"{'%.4g/%.4g/%.4g' % bq:>28} {'%.4g/%.4g/%.4g' % nq:>28} "
                  f"{change:>+8.1%}  {verdict}")
        rate = lambda runs: (sum(r["failed"] for r in runs)
                             / max(1, sum(r["attempted"] for r in runs)))
        failing = rate(n_runs) > rate(b_runs)
        bad += failing
        print(f"{key[0]:<10} {'failed/attempted':<28} {rate(b_runs):>28.4g} "
              f"{rate(n_runs):>28.4g} {'':>8}  "
              f"{'regressed' if failing else 'ok'}")
    return 1 if bad else 0


def main():
    workloads = {"ingest": CliWorkload, "exchange": CliWorkload,
                 "enumerate": CliWorkload, "serve": ServeWorkload}
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=sorted(workloads))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the result to this JSON-lines file")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    try:
        build()
        workload = workloads[args.workload](args.workload, args.seed,
                                            args.seconds, args.trace)
        values = workload.run()
        report(workload, values, args.out)
    except BenchError as e:
        sys.stderr.write(f"run.py: {e}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
