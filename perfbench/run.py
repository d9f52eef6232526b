"""The kbgb benchmark: four workloads, end-to-end metrics, an outside-in trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is used from ``src``
(byte-compiled first), and every workload run is a fresh single-threaded
process, one at a time, in a closed loop: the next starts when the last
has exited.

Workloads (inputs are the benchmark's own copies in ``perfbench/inputs``):

* ``explode``: ``kbgb lockstep`` on ``a.b.a.b -> b.a`` with
  ``--max-passes 5``; rules grow 1->2->4->10->57->905.
* ``chain``: ``kbgb lockstep`` on ``b.b -> a.a, b.a.a.c -> a.c.c`` with
  ``--max-passes 40``; two rules per pass, 82 rules at the end.
* ``iso``: ``kbgb iso-check`` on the free commutative semigroup on three
  generators with ``-L 7``.
* ``queries``: completes S5 once, then answers a stream of 1,200 queries
  (see ``queries.py``). The n-th stream of a run is generated from
  ``--seed`` and n, so the run pools distinct queries. The CLI workloads
  have fixed inputs; the seed only shapes the query streams.

With ``--trace 0`` the run first launches the set-up command several
times (``--max-passes 0``, or completing S5 alone), then launches the
workload until ``--seconds`` have passed and at least three runs are done,
and reports medians. With ``--trace 1`` it alternates untraced and traced
launches (``tracer.py``) and reports the per-layer numbers of the traced
launch with the median wall time.

The benchmark and its children run on one CPU. While the end-to-end
launches run, a thread of the benchmark times one of four short fixed
pure-Python loops every 50 ms on that CPU (``SpeedProbe``), by its own CPU
time. Each launch's times are multiplied by ``REFERENCE_S`` over the
geometric mean of the loops' median times around the launch: they are
seconds on a machine where that mean is 1.5 ms. The loops run no kbgb code,
so no change to the program can move the factor; it cancels the swings in
machine speed that a shared host shows from minute to minute. Per-layer
times are raw.

Every launch is checked: a CLI run must match the exit code, ``VERDICT:``
line and stdout sha256 recorded in ``expected.json``; in ``queries`` the
S5 completion must match its record and every answer must pass the checks
in ``queries.py``. ``attempted`` counts CLI launches, S5 completions and
queries; ``failed`` those that did not pass, so failed / attempted is the
failed share.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Without ``src/kbgb`` beside it
the benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer
from queries import SETUP_ARGV

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
EXPECTED = json.loads((BENCH / "expected.json").read_text())

CLI_WORKLOADS = {
    "explode": ("lockstep", "perfbench/inputs/explode.pres", "--max-passes", "5"),
    "chain": ("lockstep", "perfbench/inputs/chain.pres", "--max-passes", "40"),
    "iso": ("iso-check", "perfbench/inputs/commuting3.pres", "-L", "7"),
}
# reduced sizes for selfcheck.py
SMALL_CLI_WORKLOADS = {
    "explode": ("lockstep", "perfbench/inputs/explode.pres", "--max-passes", "4"),
    "chain": ("lockstep", "perfbench/inputs/chain.pres", "--max-passes", "10"),
    "iso": ("iso-check", "perfbench/inputs/commuting3.pres", "-L", "5"),
}
QUERIES = 1200
SMALL_QUERIES = 60
WORKLOADS = (*CLI_WORKLOADS, "queries")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "first_output_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p99_ms": "ms",
}

SETUP_RUNS = 11
MIN_RUNS = 3
# a run stops launching once another launch could take it past this
BUDGET_S = 150.0
LAUNCH_TIMEOUT_S = 75.0
# end-to-end times are scaled to a machine on which the probe loops take
# REFERENCE_S (geometric mean of their CPU times)
PROBE_PERIOD_S = 0.05
PROBE_PAD_S = 0.25
REFERENCE_S = 0.0015


@dataclass(frozen=True)
class Spec:
    """One workload at one size: CLI arguments, or a query count."""

    name: str
    argv: tuple = ()
    queries: int = 0
    expected: dict = field(default_factory=lambda: EXPECTED, repr=False, compare=False)

    def setup_argv(self) -> tuple:
        """The same command with no completion pass: start, parse and build."""
        argv = list(self.argv)
        if "--max-passes" in argv:
            at = argv.index("--max-passes")
            del argv[at : at + 2]
        return (*argv, "--max-passes", "0")


def spec(name: str, small: bool = False) -> Spec:
    if name == "queries":
        return Spec(name, queries=SMALL_QUERIES if small else QUERIES)
    return Spec(name, argv=(SMALL_CLI_WORKLOADS if small else CLI_WORKLOADS)[name])


@dataclass
class Launch:
    """One child process as its parent saw it; times are raw seconds."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    first_output_s: float
    exit: int
    sha256: str
    nbytes: int
    last_line: str
    start: float = 0.0  # perf_counter() at launch
    scale: float = 1.0  # REFERENCE_S over the probe loops' time around the launch


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def launch(cmd: list) -> Launch:
    """Run cmd from the checkout root, reading its stdout as it arrives."""
    digest = hashlib.sha256()
    nbytes = 0
    first = None
    tail = b""
    with open(WORK / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(LAUNCH_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            fd = proc.stdout.fileno()
            while chunk := os.read(fd, 1 << 16):
                if first is None:
                    first = time.perf_counter() - start
                digest.update(chunk)
                nbytes += len(chunk)
                tail = (tail + chunk)[-4096:]
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            proc.stdout.close()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    lines = tail.decode(errors="replace").splitlines()
    return Launch(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        first_output_s=wall if first is None else first,
        exit=proc.returncode,
        sha256=digest.hexdigest(),
        nbytes=nbytes,
        last_line=lines[-1] if lines else "",
        start=start,
    )


_WORD = tuple(range(64))


def _arithmetic():
    x = 0
    for i in range(20_000):
        x += i * i


def _dict_updates():
    table = {}
    for i in range(6_000):
        key = (i & 4095, i >> 12)
        table[key] = table.get(key, 0) + 1


def _slice_hashes():
    h = 0
    for i in range(3_500):
        start = i & 31
        h ^= hash(_WORD[start : start + 24])


def _allocations():
    cells = []
    for i in range(3_000):
        cells.append([i] * 8)
        if len(cells) > 512:
            cells = []


# pure-Python loops that run no kbgb code, each about 1-2 ms; together they
# track the interpreter-bound workloads better than any one of them alone
PROBE_LOOPS = (_arithmetic, _dict_updates, _slice_hashes, _allocations)


class SpeedProbe:
    """Times the PROBE_LOOPS in turn, one every PROBE_PERIOD_S, on a
    background thread. A loop's own CPU time is immune to the workload
    preempting it, but not to a slower CPU."""

    def __init__(self):
        self.samples = []  # (perf_counter() at the end, loop index, CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        turn = 0
        while not self._stop.wait(PROBE_PERIOD_S):
            index = turn % len(PROBE_LOOPS)
            start = time.thread_time()
            PROBE_LOOPS[index]()
            self.samples.append((time.perf_counter(), index, time.thread_time() - start))
            turn += 1

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, run: "Launch") -> float:
        """REFERENCE_S over the geometric mean, across the loops, of each
        loop's median time within PROBE_PAD_S of the launch."""
        lo, hi = run.start - PROBE_PAD_S, run.start + run.wall_s + PROBE_PAD_S
        medians = []
        for index in range(len(PROBE_LOOPS)):
            times = [dt for _, i, dt in self.samples if i == index]
            near = [dt for t, i, dt in self.samples if i == index and lo <= t <= hi]
            if near or times:
                medians.append(statistics.median(near or times))
        if not medians:
            return 1.0
        return REFERENCE_S / statistics.geometric_mean(medians)


class Gate:
    """Counts checked items and failures, keeping the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, ok: bool, what: str, items: int = 1, bad: int | None = None) -> None:
        self.attempted += items
        if not ok:
            self.failed += items if bad is None else bad
            if len(self.reasons) < 5:
                self.reasons.append(what)


def _matches(record: dict, expected: dict | None) -> bool:
    return expected is not None and all(
        record[key] == expected[key] for key in ("exit", "verdict", "sha256")
    )


class Runner:
    """Launches one workload's processes and gates their output."""

    def __init__(self, s: Spec, seed: int):
        self.spec = s
        self.seed = seed
        self.gate = Gate()
        self.streams = 0  # query streams launched so far

    def cli(self, argv: tuple, traced: bool = False):
        """Launch the CLI (optionally under the tracer) and gate its output."""
        if traced:
            snapshot_path = WORK / "trace.json"
            snapshot_path.unlink(missing_ok=True)
            cmd = [sys.executable, str(BENCH / "tracer.py"), str(snapshot_path), *argv]
        else:
            cmd = [sys.executable, "-m", "kbgb", *argv]
        run = launch(cmd)
        record = {"exit": run.exit, "verdict": run.last_line, "sha256": run.sha256}
        key = " ".join(argv)
        expected = self.spec.expected.get(key)
        self.gate.check(_matches(record, expected), f"kbgb {key}: {record}")
        snapshot = None
        if traced and expected is not None and run.exit == expected["exit"]:
            snapshot = json.loads(snapshot_path.read_text())
        return run, snapshot

    def queries(self, setup_only: bool = False, traced: bool = False):
        """Launch queries.py and gate the S5 completion and every answer."""
        out_path = WORK / "queries.json"
        out_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(BENCH / "queries.py"), "--seed", str(self.seed),
               "--count", str(self.spec.queries), "--out", str(out_path)]
        if setup_only:
            cmd.append("--setup-only")
        else:
            cmd += ["--stream", str(self.streams)]
            self.streams += 1
        if traced:
            cmd.append("--trace")
        run = launch(cmd)
        if run.exit != 0 or not out_path.exists():
            items = 1 if setup_only else 1 + self.spec.queries
            self.gate.check(False, f"queries.py exited {run.exit}", items=items)
            return run, None
        record = json.loads(out_path.read_text())
        key = " ".join(SETUP_ARGV)
        self.gate.check(_matches(record["setup"], self.spec.expected.get(key)),
                        f"kbgb {key}: {record['setup']}")
        if not setup_only:
            failures = record["failures"]
            self.gate.check(not failures, f"queries: {failures[:3]}",
                            items=record["attempted"], bad=len(failures))
        return run, record

    def setup(self):
        if self.spec.queries:
            return self.queries(setup_only=True)
        return self.cli(self.spec.setup_argv())

    def workload(self, traced: bool = False):
        if self.spec.queries:
            return self.queries(traced=traced)
        return self.cli(self.spec.argv, traced=traced)


def _repeat(step, seconds: float, minimum: int) -> list:
    """Call step() at least `minimum` times, then while the next call is
    expected to end within `seconds`; never start one that could end past
    the budget. step() returns (launch seconds, result)."""
    start = time.perf_counter()
    out = []
    while True:
        out.append(step())
        elapsed = time.perf_counter() - start
        costs = [cost for cost, _ in out]
        if elapsed + max(costs) > BUDGET_S:
            break
        if len(out) >= minimum and elapsed + statistics.median(costs) / 2 > seconds:
            break
    return [result for _, result in out]


def _p99(values) -> float:
    """The 99th percentile when at least ten samples lie beyond it (1,000
    or more); otherwise no tail is measurable and this is the median."""
    if len(values) < 1000:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def measure_end_to_end(runner: Runner, seconds: float):
    """End-to-end metrics with tracing off, and the sample counts."""

    def step():
        run, record = runner.workload()
        return run.wall_s, (run, record)

    with SpeedProbe() as probe:
        setups = [runner.setup()[0] for _ in range(SETUP_RUNS)]
        runs = _repeat(step, seconds, MIN_RUNS)
    launches = [run for run, _ in runs]
    for run in setups + launches:
        run.scale = probe.scale(run)
    if runner.spec.queries:
        streams = [(run.scale, record) for run, record in runs if record is not None]
        if not streams:
            return None, {}
        wall = [k * r["stream_s"] for k, r in streams]
        cpu = [k * r["stream_cpu_s"] for k, r in streams]
        latencies_ms = [k * x * 1e3 for k, r in streams for x in r["latencies"]]
    else:
        wall = [run.scale * run.wall_s for run in launches]
        cpu = [run.scale * run.cpu_s for run in launches]
        latencies_ms = [w * 1e3 for w in wall]  # one CLI invocation is one request
    values = {
        "setup_s": statistics.median(run.scale * run.wall_s for run in setups),
        "wall_s": statistics.median(wall),
        "cpu_s": statistics.median(cpu),
        "first_output_s": statistics.median(run.scale * run.first_output_s for run in launches),
        "peak_rss_mb": statistics.median(run.peak_rss_mb for run in launches),
        "query_p50_ms": statistics.median(latencies_ms),
        "query_p99_ms": _p99(latencies_ms),
    }
    samples = {
        "setup": len(setups),
        "runs": len(launches),
        "requests": len(latencies_ms),
        "raw_wall_s": statistics.median(run.wall_s for run in launches),
        "scale": statistics.median(run.scale for run in launches),
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}, samples


def measure_layers(runner: Runner, seconds: float):
    """Per-layer metrics from traced launches alternating with untraced
    ones; raw times, from the traced launch with the median wall time."""

    def step():
        plain, _ = runner.workload()
        run, data = runner.workload(traced=True)
        return plain.wall_s + run.wall_s, (plain, run, data)

    triples = _repeat(step, seconds, 1)
    traced = sorted(((run, data) for _, run, data in triples if data is not None),
                    key=lambda item: item[0].wall_s)
    if not traced:
        return None, {}
    run, data = traced[(len(traced) - 1) // 2]
    if runner.spec.queries:
        snapshot, output_bytes = data["trace"], data["setup"]["bytes"]
    else:
        snapshot, output_bytes = data, run.nbytes
    values = tracer.layer_metrics(snapshot, run.wall_s, output_bytes)
    values["trace.overhead_s"] = run.wall_s - statistics.median(p.wall_s for p, _, _ in triples)
    samples = {"traced": len(traced), "untraced": len(triples)}
    return {name: (values[name], unit) for name, unit in tracer.METRICS.items()}, samples


def pin() -> None:
    """Run this process and its children on one CPU, the highest-numbered
    allowed, so the speed probe times the CPU the workload runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def measure(s: Spec, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run: the result object, after a summary line on stdout."""
    WORK.mkdir(exist_ok=True)
    pin()
    runner = Runner(s, seed)
    metrics, samples = (measure_layers if trace else measure_end_to_end)(runner, seconds)
    gate = runner.gate
    share = gate.failed / gate.attempted if gate.attempted else 1.0
    print(f"workload={s.name} samples={samples} attempted={gate.attempted} "
          f"failed={gate.failed} failed_share={share:.6g}")
    for reason in gate.reasons:
        print(f"gate failure: {reason}")
    if metrics is None:
        raise SystemExit("no launch of the workload completed; nothing to report")
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def build() -> None:
    """Check that the program's sources are here and byte-compile them."""
    package = ROOT / "src" / "kbgb"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no kbgb sources at {package}; run from a source checkout")
    if not compileall.compile_dir(package, quiet=1):
        raise SystemExit("error: the kbgb sources do not compile")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    build()
    result = measure(spec(args.workload), args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
