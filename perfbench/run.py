"""Benchmark runner for the displace package.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 20 --trace 0

Workloads: cli-session, pipeline, solver-sweep (see workloads.json), or
``all``, which runs each one untraced and traced in child processes and
prints every metric with its unit plus the ROADMAP baseline map.

An untraced run (--trace 0) sets up, then repeats whole rounds of its
workload in a closed loop with one client until --seconds have passed,
and reports the end-to-end metrics, in reference seconds (see
CAL_REFERENCE_S below).  A traced run (--trace 1) alternates
untraced and traced passes over one round and reports the per-layer
metrics.  Every op's output is checked; the last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}.  Reports and
the first traced pass's spans go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("cli-session", "pipeline", "solver-sweep")
SETUP_SAMPLES = 3      # own set-up plus fresh-process probes
STARTUP_SAMPLES = 9
PROBE_SAMPLES = 3


# Times are reported in reference seconds: each wall time is multiplied by
# CAL_REFERENCE_S over the time a fixed calibration kernel took just before
# and after it.  The kernel is a pure-Python expression-tree walk that
# shares no code with the package, so a change to the package moves the
# scaled times as it moves wall time, while the drift of a shared host's
# speed (10-30 % over tens of seconds on a 2-vCPU Xeon VM) mostly cancels.
# Raw wall times stay in the report.  Traced runs report raw times.
CAL_REFERENCE_S = 0.0014


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left=None, right=None):
        self.op, self.left, self.right = op, left, right


_CAL_TREE = _Node("+", _Node("*", _Node("x"), _Node("c")),
                  _Node("exp", _Node("-", _Node("x"), _Node("c"))))


def _walk(node: _Node, x: float) -> float:
    if node.op == "x":
        return x
    if node.op == "c":
        return 0.5
    if node.op == "exp":
        return math.exp(_walk(node.left, x))
    left, right = _walk(node.left, x), _walk(node.right, x)
    if node.op == "+":
        return left + right
    return left * right if node.op == "*" else left - right


def calibrate() -> float:
    """Seconds the calibration kernel takes right now."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(1500):
        total += _walk(_CAL_TREE, i * 1e-3)
    return time.perf_counter() - t0


def scaled(wall_s: float, cal_before: float, cal_after: float) -> float:
    """A wall time in reference seconds, from the kernel times around it."""
    return wall_s * 2.0 * CAL_REFERENCE_S / (cal_before + cal_after)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def run_child(argv: list[str], timeout: float = 170) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def wall(argv: list[str], env=None, cwd=ROOT) -> float:
    t0 = time.perf_counter()
    subprocess.run(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                   stderr=subprocess.DEVNULL, check=True, timeout=120)
    return time.perf_counter() - t0


def tail(values: list[float]) -> tuple[float, int]:
    """(value, p): the highest percentile p with at least ten ops beyond it."""
    xs = sorted(values)
    n = len(xs)
    p = max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(p / 100 * n))
    return xs[rank - 1], p


def environment() -> dict:
    from importlib import metadata
    versions = {}
    for pkg in ("numpy", "scipy", "click"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    cpu = platform.processor() or None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=10)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "cpu": cpu, "commit": commit,
            "loadavg_start": list(os.getloadavg())}


def metadata_for(workload: str) -> dict:
    return json.loads((HERE / "workloads.json").read_text())["workloads"][workload]


def make_workload(name: str, seed: int, workdir: Path, tiny: bool):
    cls = {"cli-session": wl.CliSession, "pipeline": wl.Pipeline,
           "solver-sweep": wl.SolverSweep}[name]
    return cls(seed, workdir, tiny=tiny)


class Runner:
    """Runs ops, times the package calls, and checks every result."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []
        self.last_result = None

    def call(self, op, op_id: int) -> float | None:
        """Run and check one op; return its latency, or None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:   # a raising op is a failed op, keep going
            self._fail(op, op_id, "".join(traceback.format_exception_only(exc)))
            return None
        latency = time.perf_counter() - t0
        self.last_result = result
        try:
            op.check(result)
        except (wl.CheckFailed, KeyError, ValueError, IndexError, TypeError) as exc:
            self._fail(op, op_id, f"{type(exc).__name__}: {exc}")
            return None
        return latency

    def _fail(self, op, op_id: int, message: str) -> None:
        self.failures.append({"op": op.name, "op_id": op_id,
                              "error": message.strip()[:500]})
        log(f"op {op.name} failed: {message.strip()[:500]}")


# ---------------------------------------------------------------------------
# untraced run: end-to-end metrics
# ---------------------------------------------------------------------------

class SideProbes:
    """Set-up and start-up samples, spread across the measured loop.

    A shared machine's speed can drift over seconds, so samples taken at
    one moment would all share one speed; interleaving them with the ops
    lets each median cover the whole run.  Probe time is not op time.
    """

    def __init__(self, args, workdir: Path, seconds: float):
        self.args, self.workdir, self.env = args, workdir, wl.cli_env()
        self.pending = ["startup", "setup"] * (SETUP_SAMPLES - 1)
        self.pending += ["startup"] * (STARTUP_SAMPLES - SETUP_SAMPLES + 1)
        self.interval = seconds / (len(self.pending) + 1)
        self.setups: list[float] = []
        self.startups: list[float] = []
        self.wall: dict[str, list[float]] = {"setup": [], "startup": []}
        self.spent = 0.0
        self.last = time.perf_counter()

    def maybe(self) -> bool:
        if self.pending and time.perf_counter() - self.last >= self.interval:
            self.next()
            return True
        return False

    def finish(self) -> None:
        while self.pending:
            self.next()

    def next(self) -> None:
        t0 = time.perf_counter()
        kind = self.pending.pop(0)
        cal = calibrate()
        if kind == "startup":
            sample = wall([sys.executable, "-m", "displace.cli", "--help"],
                          env=self.env, cwd=self.workdir)
            self.wall["startup"].append(sample)
            self.startups.append(scaled(sample, cal, calibrate()))
        else:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload",
                   self.args.workload, "--seed", str(self.args.seed),
                   "--setup-probe"] + (["--tiny"] if self.args.tiny else [])
            proc = run_child(cmd)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr[-2000:]}")
            probe = last_json(proc.stdout)
            self.wall["setup"].append(probe["wall_s"])
            self.setups.append(probe["setup_s"])
        self.last = time.perf_counter()
        self.spent += self.last - t0


def run_untraced(args, workload, setup_own: tuple[float, float],
                 workdir: Path) -> tuple[dict, dict]:
    runner = Runner()
    latencies: list[float] = []     # reference seconds
    walls: list[float] = []
    by_op: dict[str, list[float]] = {}
    probes = SideProbes(args, workdir, args.seconds)
    start = time.perf_counter()
    rounds = 0
    cal = calibrate()
    while True:
        ops = workload.ops(rounds)
        for op in ops:
            latency = runner.call(op, runner.attempted)
            cal_after = calibrate()
            if latency is not None:
                walls.append(latency)
                latencies.append(scaled(latency, cal, cal_after))
                by_op.setdefault(op.name, []).append(latency)
            cal = calibrate() if probes.maybe() else cal_after
        rounds += 1
        if time.perf_counter() - start - probes.spent >= args.seconds:
            break
    loop_s = time.perf_counter() - start - probes.spent
    probes.finish()
    setups = [setup_own[0]] + probes.setups
    startup = probes.startups

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-session" \
        else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    tail_s, tail_p = tail(latencies) if latencies else (0.0, 0)
    busy = sum(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(latencies) / busy if busy else 0.0, "1/s"),
        "op_p50_s": (statistics.median(latencies) if latencies else 0.0, "s"),
        "op_tail_s": (tail_s, "s"),
        "cli_startup_s": (statistics.median(startup), "s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    wall_tail, _ = tail(walls) if walls else (0.0, 0)
    detail = {
        "rounds": rounds, "ops_per_round": len(ops), "loop_s": loop_s,
        "op_tail_percentile": tail_p, "ops_timed": len(latencies),
        "setup_samples_s": setups, "cli_startup_samples_s": startup,
        "wall": {
            "ops_per_s": len(walls) / sum(walls) if walls else 0.0,
            "op_p50_s": statistics.median(walls) if walls else 0.0,
            "op_tail_s": wall_tail,
            "setup_samples_s": [setup_own[1]] + probes.wall["setup"],
            "cli_startup_samples_s": probes.wall["startup"],
            "cli_startup_s": statistics.median(probes.wall["startup"]),
        },
        "fail_ratio": len(runner.failures) / max(1, runner.attempted),
        "op_median_s": {k: statistics.median(v) for k, v in by_op.items()},
        "op_count": {k: len(v) for k, v in by_op.items()},
    }
    return {"metrics": metrics, "attempted": runner.attempted,
            "failures": runner.failures}, detail


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def replay_ops(workload):
    """cli-session commands re-run in process, so their layers can be traced."""
    wl.import_package()
    from displace import cli

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main.main(args=list(argv), prog_name="displace",
                              standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return code, out.getvalue(), err.getvalue()

    return [wl.Op(name, lambda argv=argv: run(argv),
                  lambda res, check=check: check(res[0], res[1]))
            for name, argv, check in workload.commands()]


def cli_layer(args, workload, workdir: Path, runner: Runner) -> dict:
    env = wl.cli_env()
    interp = statistics.median(wall([sys.executable, "-c", "pass"], cwd=workdir)
                               for _ in range(PROBE_SAMPLES))
    imported = statistics.median(
        wall([sys.executable, "-c", "import displace.cli"], env=env, cwd=workdir)
        for _ in range(PROBE_SAMPLES))
    m = {"cli.interp_s": interp, "cli.import_s": imported - interp,
         "cli.compute_s": 0.0, "cli.stdout_bytes": 0}
    if args.workload == "cli-session":
        startup = statistics.median(
            wall([sys.executable, "-m", "displace.cli", "--help"], env=env,
                 cwd=workdir) for _ in range(PROBE_SAMPLES))
        compute, nbytes = 0.0, 0
        for op_id, op in enumerate(workload.ops()):
            latency = runner.call(op, op_id)
            if latency is not None:
                compute += latency - startup
                nbytes += len(runner.last_result[1].encode("utf-8"))
        m["cli.compute_s"] = compute
        m["cli.stdout_bytes"] = nbytes
    return m


def run_traced(args, workload, workdir: Path) -> tuple[dict, dict]:
    runner = Runner()
    cli_metrics = cli_layer(args, workload, workdir, runner)
    ops = replay_ops(workload) if args.workload == "cli-session" else workload.ops()
    tracer = spans.Tracer()
    passes: list[dict] = []
    plain_s, traced_s = [], []
    by_op: dict[str, list[float]] = {}
    plain_ops = traced_ops = 0
    mismatches: list[str] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        busy = 0.0
        for op in ops:
            latency = runner.call(op, runner.attempted)
            if latency is not None:
                busy += latency
                plain_ops += 1
                by_op.setdefault(op.name, []).append(latency)
        plain_s.append(busy)

        tracer.reset()
        tracer.install()
        busy = 0.0
        try:
            for op_id, op in enumerate(ops):
                tracer.op_id = op_id
                latency = runner.call(op, op_id)
                busy += latency or 0.0
                traced_ops += latency is not None
        finally:
            tracer.uninstall()
        traced_s.append(busy)
        m = tracer.pass_metrics()
        if not passes:
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"spans-{args.workload}.csv")
        else:
            mismatches += [f"{k}: {m[k]} != {passes[0][k]}"
                           for k in spans.COUNT_METRICS if m[k] != passes[0][k]]
        passes.append(m)
        tracer.reset()

    layer = {}
    for key in passes[0]:
        values = [p[key] for p in passes]
        layer[key] = values[0] if key in spans.COUNT_METRICS else statistics.median(values)
    layer.update(cli_metrics)
    untraced = plain_ops / sum(plain_s) if sum(plain_s) else 0.0
    traced = traced_ops / sum(traced_s) if sum(traced_s) else 0.0
    layer["trace.ops_per_s"] = traced
    layer["trace.overhead_ops_per_s"] = untraced - traced
    layer["fail_ratio"] = len(runner.failures) / max(1, runner.attempted)
    failures = list(runner.failures)
    failures += [{"op": "trace", "op_id": -1, "error": f"count changed: {text}"}
                 for text in mismatches]
    units = spans.UNITS
    detail = {"passes": len(passes), "untraced_ops_per_s": untraced,
              "count_mismatches": mismatches,
              "op_median_s": {k: statistics.median(v) for k, v in by_op.items()}}
    return {"metrics": {k: (v, units[k]) for k, v in layer.items()},
            "attempted": runner.attempted, "failures": failures}, detail


# ---------------------------------------------------------------------------
# baseline map: which metric reproduces each ROADMAP baseline row
# ---------------------------------------------------------------------------

BASELINE = [
    # (row, ROADMAP value, workload, trace, metric or "op:<name>",
    #  scale or scale(sizes), unit)
    ("one Expr evaluation via as_function (traced)", "≈10 µs", "pipeline", 1,
     "expr.eval_us", 1.0, "us"),
    ("fresh g(t) (traced)", "≈250 µs", "pipeline", 1, "gauge.fresh_query_us",
     1.0, "us"),
    ("cached g(t) (traced)", "≈2.6 µs", "pipeline", 1, "gauge.cached_query_us",
     1.0, "us"),
    ("ftc_forward_check(t, extract:exponential), in-process replay",
     "1.27 s", "cli-session", 1, "op:ftc-exponential", 1.0, "s"),
    ("solve_surface, step 1e-6 (surface op scaled by node count)", "2.37 s",
     "solver-sweep", 0, "op:surface-100",
     lambda sizes: sizes["steps"]["surface"] / 1e-6, "s"),
    ("solve_ivp g-euler, step 1e-5 (euler op scaled by node count)", "0.145 s",
     "solver-sweep", 0, "op:euler-0",
     lambda sizes: sizes["steps"]["euler"] / 1e-5, "s"),
    ("import displace.cli (displace --help wall time)", "0.86 s", "*", 0,
     "cli_startup_s", 1.0, "s"),
    ("displace derive ... --gauge identity", "0.89 s", "cli-session", 0,
     "op:derive-identity", 1.0, "s"),
    ("displace ftc --f t --gauge extract:exponential", "2.42 s", "cli-session",
     0, "op:ftc-exponential", 1.0, "s"),
    ("displace check --builtin exponential", "1.25 s", "cli-session", 0,
     "op:check-exponential", 1.0, "s"),
]


def baseline_rows(workload: str, trace: int, metrics: dict, detail: dict,
                  sizes: dict) -> list:
    rows = []
    for row, ref, wname, wtrace, key, scale, unit in BASELINE:
        if wtrace != trace or wname not in ("*", workload):
            continue
        if callable(scale):
            scale = scale(sizes)
        if key.startswith("op:"):
            med = detail["op_median_s"].get(key[3:])
            value = None if med is None else med * scale
        else:   # the ROADMAP table holds wall times
            value = detail.get("wall", {}).get(key, metrics[key][0]) * scale
        rows.append({"row": row, "roadmap": ref, "workload": workload,
                     "trace": trace, "metric": key, "value": value, "unit": unit})
    return rows


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def setup(args, workdir: Path) -> tuple[object, tuple[float, float]]:
    """The workload and its set-up time, (reference seconds, wall seconds)."""
    cal = calibrate()
    t0 = time.perf_counter()
    workload = make_workload(args.workload, args.seed, workdir, args.tiny)
    wall_s = time.perf_counter() - t0
    return workload, (scaled(wall_s, cal, calibrate()), wall_s)


def main_single(args) -> int:
    env = environment()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.setup_probe:
            _, (setup_s, wall_s) = setup(args, workdir)
            print(json.dumps({"setup_s": setup_s, "wall_s": wall_s}))
            return 0
        workload, setup_s = setup(args, workdir)
        if args.trace:
            result, detail = run_traced(args, workload, workdir)
        else:
            result, detail = run_untraced(args, workload, setup_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = list(os.getloadavg())

    metrics = result["metrics"]
    failed = len(result["failures"])
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "environment": env,
        "about": metadata_for(args.workload),
        "sizes": workload.sizes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
        "baseline": baseline_rows(args.workload, args.trace, metrics, detail,
                                  workload.sizes),
        "failures": result["failures"],
    }
    OUT.mkdir(exist_ok=True)
    name = f"report-{args.workload}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(report, indent=1), encoding="utf-8")

    for key, (value, unit) in metrics.items():
        print(f"{args.workload:13s} {key:34s} {value:16.6g} {unit}")
    for row in report["baseline"]:
        print(f"baseline: {row['row']} [{row['roadmap']}] -> {row['metric']} "
              f"= {row['value']} {row['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def main_all(args) -> int:
    """Every workload, untraced and traced, with every metric and unit."""
    ok = True
    rows = []
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            proc = run_child(cmd, timeout=900)
            if proc.returncode != 0:
                log(proc.stderr[-3000:])
                return 1
            result = last_json(proc.stdout)
            ok = ok and result["correct"]
            print(f"== {name} trace={trace}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for key, m in result["metrics"].items():
                print(f"{name:13s} {key:34s} {m['value']:16.6g} {m['unit']}")
            report = json.loads((OUT / f"report-{name}-trace{trace}.json").read_text())
            rows += report["baseline"]
    print("== ROADMAP baseline map")
    for row in rows:
        print(f"{row['row']:70s} {row['roadmap']:>16s}  {row['workload']:12s} "
              f"{row['metric']:24s} {row['value']} {row['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, for the harness self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "displace" / "__init__.py").is_file():
        log(f"error: no package source at {ROOT / 'src' / 'displace'}; run "
            "from a checkout of the repository")
        return 2
    if args.workload == "all":
        return main_all(args)
    return main_single(args)


if __name__ == "__main__":
    sys.exit(main())
