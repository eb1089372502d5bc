"""One measured process of the torushecke benchmark, started by run.py.

    python3 perfbench/worker.py cli   SRC ARGV...   run the CLI once
    python3 perfbench/worker.py trace SRC ARGV...   run the CLI once, traced
    python3 perfbench/worker.py setup SRC SPEC      build the workload's inputs

SRC is the directory holding the ``torushecke`` package.  In ``cli`` and
``trace`` mode the CLI writes its report to this process's stdout unchanged,
so run.py digests exactly the bytes a user would see.  The worker's own
report (peak RSS, caches checked, set-up time, trace summary) is one JSON
object on the last line of stderr, after MARKER.

Every worker checks that the library's ``lru_cache``s are empty before any
work, so no measurement can reuse results of an earlier run.
"""

import json
import os
import resource
import sys
import time
import traceback

MARKER = "perfbench-worker "


def import_library(src):
    """Import torushecke from src, refusing a copy found anywhere else."""
    sys.path.insert(0, src)
    import torushecke

    home = os.path.join(os.path.realpath(src), "torushecke") + os.sep
    if not os.path.realpath(torushecke.__file__).startswith(home):
        raise ImportError(f"torushecke imported from {torushecke.__file__}, not {src}")
    return torushecke


def check_cold_caches():
    """Number of library lru_caches; raises if any already holds an entry."""
    seen = set()
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "torushecke" or name.startswith("torushecke.")):
            continue
        for attr, obj in vars(module).items():
            info = getattr(obj, "cache_info", None)
            if not callable(info) or id(obj) in seen:
                continue
            seen.add(id(obj))
            if info().currsize != 0:
                raise RuntimeError(f"cache {name}.{attr} is not empty before the run")
    return len(seen)


def peak_rss_kb():
    """Peak resident set size of this program, in kB.

    ru_maxrss is not used: Linux carries into it the resident size of the
    image this process ran before exec, a fork of run.py.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_cli(argv):
    """Exit code of the CLI, as ``python -m torushecke`` would return it."""
    from torushecke import cli

    try:
        code = cli.main(argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    sys.stdout.flush()
    return code


def build_inputs(spec):
    """Fields and moduli of a workload, as the CLI builds them."""
    from torushecke import cli
    from torushecke.classnumber import real_quadratic_field

    kind, bound = spec["moduli"]
    for d in spec["fields"]:
        F = real_quadratic_field(d)
        if kind == "upto":
            cli.moduli_upto(F, bound)
        else:
            cli.moduli_of_norm(F, bound)


def main(args):
    mode, src, rest = args[0], args[1], args[2:]
    report = {}
    start = time.perf_counter()
    import_library(src)
    report["caches_checked"] = check_cold_caches()
    if mode == "setup":
        build_inputs(json.loads(rest[0]))
        report["setup_s"] = time.perf_counter() - start
    elif mode == "cli":
        report["exit"] = run_cli(rest)
    elif mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        report["exit"] = run_cli(rest)
        report["trace"] = tracer.summary()
    else:
        raise ValueError(f"unknown worker mode {mode!r}")
    report["peak_rss_kb"] = peak_rss_kb()
    sys.stderr.write("\n" + MARKER + json.dumps(report) + "\n")
    sys.stderr.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
