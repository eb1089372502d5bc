"""End-to-end and per-layer benchmark of the torushecke verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Load model: closed loop, one
process, one thread, one configuration at a time, as the CLI runs.  Every
measured process is a fresh interpreter (perfbench/worker.py) that checks
the library's lru_caches are empty first, because a CLI user pays the
cold-cache cost on every call.

--trace 0 reports the end-to-end metrics.  After one unmeasured set-up
process that warms the file cache, a run alternates set-up processes with
CLI passes, at least MIN_PASSES of each, until the passes add up to S
seconds of CPU time or the run has taken WALL_FACTOR x S seconds.  Each
workload is sized so that a pass takes a few seconds and a run holds
several.

Times are CPU times (user + system) of the measured process, from the
rusage run.py takes of its children, rescaled to a reference CPU speed.  On a
shared host the wall clock also counts time the hypervisor gives this
machine's CPUs to others, and the speed of a CPU itself drifts by tens of
per cent over minutes.  So run.py pins itself, and with it every
process it starts, to one CPU, runs reference_kernel() before the first
set-up and after every pass, and scales each set-up and pass by
REF_KERNEL_S over the mean of the two kernel runs around it.  The CLI is
single-threaded and does little I/O, so at reference speed on an idle host
cpu_s is its wall time; the unscaled CPU and wall medians are printed too.
  cpu_s          median rescaled CPU time of a CLI pass, process start to exit
  setup_s        median rescaled CPU time of a fresh process that imports
                 the package and builds the workload's fields and moduli
  configs_per_s  configurations reported / (cpu_s - setup_s)
  peak_rss_mb    peak RSS of the CLI process
and prints failed_frac (failed / attempted configurations), which the final
line carries as ``failed`` and ``attempted``.

--trace 1 runs the CLI once untraced and once traced (perfbench/tracer.py
wraps the layer entry points) and reports the per-layer metrics, with the
trace's coverage of the traced wall time and its overhead over the
untraced run.

A run fails as a whole, counting all its configurations, when the CLI exits
with another code than the seed commit did, its stdout differs from the
seed commit's (sha256 in perfbench/expected.json), or it misses its
deadline, in which case it is killed.  The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Every workload, end to end:
    for w in sweep large-index large-hplus big-unit-fields; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0; done
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import layer_metrics, module_self_s
from worker import MARKER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Every run ends within this many seconds of its start; a process that
# would outlive it is killed and its configurations counted as failed.
RUN_BUDGET_S = 170.0
# a --trace 0 run measures at least MIN_PASSES CLI passes, each after its
# own set-up process, and at least --seconds of CLI CPU time, unless that
# takes more than WALL_FACTOR x --seconds of wall time (a host that steals
# much of the CPU would otherwise stretch the run)
MIN_PASSES = 5
WALL_FACTOR = 2.0
# CPU seconds the reference kernel takes at the speed end-to-end times are
# scaled to (about its median on a 2-vCPU Intel Xeon VM)
REF_KERNEL_S = 0.25

# Split primes l of Q(sqrt 2), coprime to 5, whose two conjugate moduli both
# have unit index 2(l - 1), 860..876, so every draw costs the same to within
# the host's noise.
LARGE_INDEX_NORMS = (431, 433, 439)


def reference_kernel():
    """CPU seconds of one run of a fixed pure-Python computation.

    It does what the library spends its time on -- small-integer loops,
    sorting, dict updates and products of 3000-bit integers -- and imports
    nothing of it, so no change to the library moves it; only the speed of
    the CPU it runs on does.
    """
    start = time.process_time()
    for _ in range(2):
        s = 0
        for i in range(150000):
            s += (i * i) % 7
            s ^= i << 3
        counts = {}
        for v in sorted(i * 3 % 101 for i in range(150000)):
            counts[v] = counts.get(v, 0) + 1
    x, y, m = 3, 12345, (1 << 3000) - 157
    for i in range(2500):
        x = (x * y + i) % m
        y = y * y % m
    return time.process_time() - start


@dataclass(frozen=True)
class Workload:
    """One CLI invocation, with the inputs its set-up phase builds."""

    verb: str
    fields: tuple
    modulus_norm: int
    deadline_s: float
    prime: int = None

    def argv(self):
        out = [self.verb]
        for d in self.fields:
            out += ["--d", str(d)]
        if self.prime is not None:
            out += ["--prime", str(self.prime)]
        return out + ["--modulus-norm", str(self.modulus_norm)]

    def setup_spec(self):
        kind = "upto" if self.verb == "verify" else "norm"
        return {"fields": list(self.fields), "moduli": [kind, self.modulus_norm]}


def make_workload(name, seed):
    """The workload's CLI inputs; only large-index depends on the seed."""
    if name == "sweep":
        # the fields and default primes 3 5 7 of acceptance criterion 4, with
        # moduli of norm <= 10: 172 small configurations
        return Workload("verify", (2, 3, 5, 6, 7, 10, 11, 13), 10, deadline_s=60.0)
    if name == "large-index":
        # eps^index-sized units: the sign and unit layers dominate
        norm = random.Random(seed).choice(LARGE_INDEX_NORMS)
        return Workload("invariants", (2,), norm, deadline_s=60.0, prime=5)
    if name == "large-hplus":
        # the one modulus (48) of Q(sqrt 2): h_plus 128 and t_p 1, so the
        # ray class, pairing and eigensystem layers dominate
        return Workload("invariants", (2,), 1152, deadline_s=60.0, prime=5)
    if name == "big-unit-fields":
        # Q(sqrt 249) spends most of its set-up in the fundamental unit search,
        # Q(sqrt 229) has class number 3 (wide classes, principal generators)
        return Workload("verify", (193, 229, 249), 5, deadline_s=60.0)
    raise SystemExit(f"unknown workload {name!r}")


class Deadline:
    """Wall-clock end of the whole run."""

    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds

    def timeout(self, limit):
        return min(limit, self.end - time.perf_counter())


@dataclass
class Pass:
    """One worker process: its wall and CPU time, exit code, stdout digest and report."""

    wall_s: float
    cpu_s: float
    exit: int
    sha256: str
    report: dict
    timed_out: bool


def run_worker(mode, args, limit, deadline):
    """Run one worker to completion or until its deadline, then reap it."""
    timeout = deadline.timeout(limit)
    if timeout <= 0:
        return Pass(0.0, 0.0, -1, "", {}, True)
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, str(SRC)] + args
    # one hash seed for every process: set and dict order, and with it the
    # work done, do not vary between runs (the CLI's output does not depend on it)
    env = dict(os.environ, PYTHONHASHSEED="0")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        out, err = proc.communicate(timeout=timeout)
        timed_out = False
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    wall = time.perf_counter() - start
    # communicate() has reaped the worker, and it is the only child alive
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    report = {}
    lines = err.decode(errors="replace").splitlines()
    if lines and lines[-1].startswith(MARKER):
        report = json.loads(lines[-1][len(MARKER):])
    elif not timed_out:
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
    return Pass(wall, cpu, proc.returncode, hashlib.sha256(out).hexdigest(), report, timed_out)


def pass_ok(p, expected):
    return (not p.timed_out and "caches_checked" in p.report
            and p.report.get("exit") == expected["exit"]
            and p.sha256 == expected["stdout_sha256"])


def provenance(name, seed, workload):
    rev, dirty = "unknown", None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or "unknown"
            status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                    cwd=ROOT, capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": name,
        "seed": seed,
        "argv": workload.argv(),
        "git_revision": rev,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def measure_end_to_end(workload, expected, seconds, deadline):
    argv = workload.argv()
    spec = json.dumps(workload.setup_spec())

    def set_up():
        p = run_worker("setup", [spec], workload.deadline_s, deadline)
        return p, not p.timed_out and p.exit == 0 and "setup_s" in p.report

    # one unmeasured set-up process warms the file cache
    _, ok = set_up()
    setups = []
    passes = []
    kernel_s = [reference_kernel()]
    stop = time.perf_counter() + WALL_FACTOR * seconds
    while ok and (len(passes) < MIN_PASSES
                  or (sum(p.cpu_s for p in passes) < seconds and time.perf_counter() < stop)):
        p, ok = set_up()
        setups.append(p)
        if ok:
            passes.append(run_worker("cli", argv, workload.deadline_s, deadline))
            ok = pass_ok(passes[-1], expected)
        kernel_s.append(reference_kernel())
    # the loop stops at the first failure, so only the last process can fail
    configs = expected["configurations"]
    attempted = configs * max(len(passes), 1)
    failed = 0 if ok else configs
    # the i-th set-up and pass ran between kernel runs i and i + 1
    scale = [2 * REF_KERNEL_S / (a + b) for a, b in zip(kernel_s, kernel_s[1:])]
    cpu_s = statistics.median(p.cpu_s * k for p, k in zip(passes, scale)) if passes else 0.0
    setup_s = statistics.median(p.cpu_s * k for p, k in zip(setups, scale)) if setups else 0.0
    metrics = {
        "cpu_s": cpu_s,
        "setup_s": setup_s,
        "configs_per_s": 0.0 if failed else configs / (cpu_s - setup_s),
        "peak_rss_mb": max((p.report.get("peak_rss_kb", 0) for p in passes), default=0) / 1024,
    }
    raw_s = statistics.median(p.cpu_s for p in passes) if passes else 0.0
    wall_s = statistics.median(p.wall_s for p in passes) if passes else 0.0
    print(f"cli passes: {len(passes)}, cpu {[round(p.cpu_s, 3) for p in passes]}, "
          f"wall {[round(p.wall_s, 3) for p in passes]}")
    print(f"setup reps: {len(setups)}, cpu {[round(p.cpu_s, 4) for p in setups]}, "
          f"wall {[round(p.wall_s, 4) for p in setups]}")
    print(f"reference kernel: {len(kernel_s)} runs, cpu {[round(t, 4) for t in kernel_s]}")
    print(f"unscaled medians of a CLI pass: cpu {raw_s:.6g} s, wall {wall_s:.6g} s")
    return attempted, failed, metrics


def measure_traced(workload, expected, deadline):
    argv = workload.argv()
    plain = run_worker("cli", argv, workload.deadline_s, deadline)
    traced = None
    if pass_ok(plain, expected):
        traced = run_worker("trace", argv, 2 * workload.deadline_s, deadline)
    configs = expected["configurations"]
    attempted = 2 * configs
    failed = sum(configs for p in (plain, traced) if p is None or not pass_ok(p, expected))
    if failed:
        return attempted, failed, {}
    summary = traced.report["trace"]
    for label in summary["missing"]:
        print(f"warning: trace target {label} not found; its metrics read 0")
    print(f"untraced wall {plain.wall_s:.3f} s, traced wall {traced.wall_s:.3f} s")
    print("self time by module (s):")
    for module, s in module_self_s(summary):
        print(f"  {module:12s} {s:10.4f}  {100 * s / traced.wall_s:5.1f} %")
    print("spans by parent -> child (s, total):")
    for parent, child, s in sorted(summary["edges"], key=lambda e: -e[2])[:15]:
        print(f"  {parent} -> {child}  {s:.4f}")
    return attempted, failed, layer_metrics(summary, traced.wall_s, plain.wall_s)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = Deadline(RUN_BUDGET_S)
    # the reference kernel and every measured process share one CPU, so the
    # kernel measures the speed of the CPU the measured processes ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if not (SRC / "torushecke" / "__init__.py").is_file():
        print(f"error: no torushecke package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = make_workload(args.workload, args.seed)
    key = " ".join(workload.argv())
    expected = json.loads((BENCH / "expected.json").read_text())["outputs"].get(key)
    if expected is None:
        print(f"error: no recorded output for {key!r}", file=sys.stderr)
        return 2
    # byte-compile once, so the first measured process does not pay for it
    compileall.compile_dir(str(SRC), quiet=2)

    print("provenance " + json.dumps(provenance(args.workload, args.seed, workload)))
    if args.trace:
        attempted, failed, values = measure_traced(workload, expected, deadline)
        names = spec["per_layer"]
    else:
        attempted, failed, values = measure_end_to_end(workload, expected, args.seconds, deadline)
        names = spec["end_to_end"]
    unknown = [m["name"] for m in names if m["name"] not in values]
    if unknown and not failed:
        print(f"error: metrics {unknown} are not measured", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in names}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed}/{attempted} configurations)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
