"""Per-layer span tracer for torushecke, installed from outside the package.

Each traced function is replaced by a wrapper at every binding site in the
``torushecke`` module namespaces, because ``from .x import f`` copies the
name into the importing module.  A wrapper records one span per call: its
duration, and the time covered by child spans, so that a layer's self time
is its duration minus its children.  Spans are aggregated in memory (per
function, and per parent -> child edge) and summarised when the run ends.
"""

import statistics
import sys
import time

# Functions the traced run wraps, as (module, attribute path).  They are the
# layer entry points the per-layer metrics name; anything they call that is
# not in this list counts toward their self time.
TARGETS = (
    ("classnumber", "real_quadratic_field"),
    ("classnumber", "wide_class_reps"),
    ("units", "fundamental_unit_real_quadratic"),
    ("units", "unit_image_in_modulus"),
    ("units", "e_units"),
    ("units", "unit_power_product"),
    ("field", "real_signs"),
    ("congruence", "residue_sign_group"),
    ("abgroup", "kernel_of_map"),
    ("abgroup", "closure_from_stream"),
    ("abgroup", "quotient_structure"),
    ("principal", "principal_generator"),
    ("rayclass", "ray_class_group"),
    ("hecke", "compute_tp"),
    ("hecke", "unit_functional"),
    ("hecke", "psi_report"),
    ("hecke", "hecke_apply"),
    ("fplinalg", "FpRankAccumulator.add"),
    ("galois", "find_generator"),
    ("galois", "pth_character"),
    ("eigen", "eigensystem_report"),
    ("cli", "moduli_upto"),
    ("cli", "verify_config"),
    ("cli", "run_invariants"),
)

# One span per reported configuration: the CLI's per-configuration entry points.
CONFIG_SPANS = ("cli.verify_config", "cli.run_invariants")


def _max_bits(coeffs):
    return max((abs(c).bit_length() for c in coeffs), default=0)


class Tracer:
    """Aggregates spans of wrapped functions: calls, self time, parent edges."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.edges = {}
        self.builds = {}
        self.config_s = []
        self.missing = []
        self.extra = {
            "field.real_signs.max_bits": 0,
            "units.eta_max_bits": 0,
            "congruence.residue_order.sum": 0,
            "rayclass.h_plus.max": 0,
            "hecke.tp_scan.certificate": 0,
            "hecke.tp_scan.visited": 0,
            "eigen.characters": 0,
        }
        self._stack = []

    def _observe(self, label, args, result, built):
        """Counters read off arguments and results at the layer boundary.

        Attributes are read with defaults, so a later change to a result type
        zeroes a counter instead of failing the traced run.
        """
        x = self.extra
        if label == "field.real_signs":
            bits = _max_bits(args[0]) if args else 0
            x["field.real_signs.max_bits"] = max(x["field.real_signs.max_bits"], bits)
        elif label == "units.e_units":
            bits = max((_max_bits(eta) for eta in getattr(result, "values", ())), default=0)
            x["units.eta_max_bits"] = max(x["units.eta_max_bits"], bits)
        elif label == "congruence.residue_sign_group" and built:
            x["congruence.residue_order.sum"] += getattr(result, "residue_order", 0)
        elif label == "rayclass.ray_class_group":
            x["rayclass.h_plus.max"] = max(x["rayclass.h_plus.max"], getattr(result, "order", 0))
        elif label == "hecke.compute_tp":
            x["hecke.tp_scan.certificate"] += len(getattr(result, "certificate", ()))
            x["hecke.tp_scan.visited"] += getattr(result, "consumed", 0)
        elif label == "eigen.eigensystem_report":
            x["eigen.characters"] += getattr(result, "count", 0)

    def wrap(self, label, fn):
        """A wrapper around fn that records one span per call."""
        self.calls[label] = 0
        self.self_s[label] = 0.0
        self.builds[label] = 0
        stack = self._stack
        clock = time.perf_counter
        cache_info = getattr(fn, "cache_info", None)
        is_config = label in CONFIG_SPANS

        def wrapper(*args, **kwargs):
            misses = cache_info().misses if cache_info else 0
            parent = stack[-1] if stack else None
            frame = [label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self.calls[label] += 1
                self.self_s[label] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                    edge = (parent[0], label)
                    self.edges[edge] = self.edges.get(edge, 0.0) + duration
                if is_config:
                    self.config_s.append(duration)
            built = cache_info is None or cache_info().misses > misses
            self.builds[label] += built
            self._observe(label, args, result, built)
            return result

        return wrapper

    def install(self):
        """Wrap every TARGETS entry at each of its binding sites."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "torushecke" or name.startswith("torushecke."))]
        for module_name, path in TARGETS:
            label = f"{module_name}.{path}"
            owner = sys.modules.get(f"torushecke.{module_name}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(label)
                continue
            wrapper = self.wrap(label, fn)
            if outer:
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, name, wrapper)

    def summary(self):
        """JSON-ready aggregates, for the worker to hand back to run.py."""
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "builds": self.builds,
            "edges": [[p, c, s] for (p, c), s in sorted(self.edges.items())],
            "config_s": self.config_s,
            "extra": self.extra,
            "missing": self.missing,
        }


def layer_metrics(summary, wall_s, untraced_wall_s):
    """Per-layer metrics from a traced run's summary, keyed by metric name.

    wall_s is the traced run's wall time and untraced_wall_s that of an
    untraced run of the same workload; both come from run.py's clock.
    """
    calls = summary["calls"]
    self_s = summary["self_s"]
    builds = summary["builds"]
    x = summary["extra"]
    config_s = summary["config_s"]
    configs = len(config_s)

    def count(label):
        return calls.get(label, 0)

    def busy(label):
        return self_s.get(label, 0.0)

    def per_config(label):
        return count(label) / configs if configs else 0.0

    visited = x["hecke.tp_scan.visited"]
    return {
        "field.real_signs.calls": count("field.real_signs"),
        "field.real_signs.self_s": busy("field.real_signs"),
        "field.real_signs.max_bits": x["field.real_signs.max_bits"],
        "units.e_units.calls": count("units.e_units"),
        "units.e_units.per_config": per_config("units.e_units"),
        "units.unit_image_in_modulus.per_config": per_config("units.unit_image_in_modulus"),
        "units.unit_power_product.self_s": busy("units.unit_power_product"),
        "units.eta_max_bits": x["units.eta_max_bits"],
        "units.fundamental_unit_real_quadratic.self_s": busy("units.fundamental_unit_real_quadratic"),
        "classnumber.real_quadratic_field.self_s": busy("classnumber.real_quadratic_field"),
        "congruence.residue_sign_group.calls": count("congruence.residue_sign_group"),
        "congruence.residue_sign_group.builds": builds.get("congruence.residue_sign_group", 0),
        "congruence.residue_sign_group.self_s": busy("congruence.residue_sign_group"),
        "congruence.residue_order.sum": x["congruence.residue_order.sum"],
        "abgroup.kernel_of_map.calls": count("abgroup.kernel_of_map"),
        "abgroup.kernel_of_map.self_s": busy("abgroup.kernel_of_map"),
        "abgroup.closure_from_stream.self_s": busy("abgroup.closure_from_stream"),
        "abgroup.quotient_structure.self_s": busy("abgroup.quotient_structure"),
        "classnumber.wide_class_reps.self_s": busy("classnumber.wide_class_reps"),
        "principal.principal_generator.calls": count("principal.principal_generator"),
        "principal.principal_generator.self_s": busy("principal.principal_generator"),
        "rayclass.ray_class_group.builds": builds.get("rayclass.ray_class_group", 0),
        "rayclass.ray_class_group.self_s": busy("rayclass.ray_class_group"),
        "rayclass.h_plus.max": x["rayclass.h_plus.max"],
        "hecke.compute_tp.per_config": per_config("hecke.compute_tp"),
        "hecke.compute_tp.self_s": busy("hecke.compute_tp"),
        "hecke.unit_functional.calls": count("hecke.unit_functional"),
        "hecke.unit_functional.self_s": busy("hecke.unit_functional"),
        "hecke.tp_scan.useful_ratio": x["hecke.tp_scan.certificate"] / visited if visited else 0.0,
        "hecke.psi_report.self_s": busy("hecke.psi_report"),
        "hecke.hecke_apply.calls": count("hecke.hecke_apply"),
        "fplinalg.FpRankAccumulator.add.calls": count("fplinalg.FpRankAccumulator.add"),
        "fplinalg.FpRankAccumulator.add.self_s": busy("fplinalg.FpRankAccumulator.add"),
        "galois.find_generator.calls": count("galois.find_generator"),
        "galois.pth_character.self_s": busy("galois.pth_character"),
        "eigen.eigensystem_report.self_s": busy("eigen.eigensystem_report"),
        "eigen.characters": x["eigen.characters"],
        "cli.moduli_upto.self_s": busy("cli.moduli_upto"),
        "cli.config_s.p50": statistics.median(config_s) if configs else 0.0,
        "cli.config_s.max": max(config_s, default=0.0),
        "trace.coverage": sum(self_s.values()) / wall_s,
        "trace.overhead": wall_s / untraced_wall_s,
    }


def module_self_s(summary):
    """Self time per torushecke module, largest first."""
    out = {}
    for label, s in summary["self_s"].items():
        module = label.split(".", 1)[0]
        out[module] = out.get(module, 0.0) + s
    return sorted(out.items(), key=lambda kv: -kv[1])
