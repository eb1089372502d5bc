"""Command-line verification surface and report assembly.

Verbs: `field info`, `invariants`, `verify`, `scan-primes`, `spanning-set`.
Native fields come from `--d <squarefree>`; external descriptors from
`--descriptor <path>`.  Reports are byte-deterministic: configuration order,
dict key order, and scan order are all pinned.

Exit codes: 0 all checks pass, 1 a check failed, a computation rejected
its input or a file could not be read or written, 2 a scan budget or
enumeration cap was exhausted before the answer was determined.
"""

import argparse
import csv
import io
import json
import sys
from functools import cached_property
from typing import NamedTuple

from .classnumber import WideClassGroup, real_quadratic_field
from .congruence import RESIDUE_ENUMERATION_CAP
from .eigen import eigensystem_report
from .errors import RAN_OUT, TorusHeckeError, ValidationError
from .field import FieldDescriptor, load_descriptor, poly_discriminant
from .galois import balanced_coeffs, factor_int, is_prime
from .hecke import DEFAULT_BUDGET, ScanRows, compute_tp, psi_report, scan_t1, spanning_set
from .ideals import IdealHNF, ideal_product, unit_ideal
from .primes import prime_ideals_over, prime_to_ideal
from .rayclass import narrow_class_number, ray_class_group
from .units import e_units, unit_image_in_modulus


# ---------------------------------------------------------------- moduli


def _products_upto(F: FieldDescriptor, blocks, bound):
    """Every product of the prime blocks with norm <= bound.

    Unique ideal factorization makes every product distinct, so the list is
    complete and duplicate-free; sorted by (norm, HNF entries).
    """
    items = [(unit_ideal(F), 1)]
    for q, nq in blocks:
        grown = list(items)
        for a, na in items:
            b, nb = a, na
            while nb * nq <= bound:
                b = ideal_product(b, q, F)
                nb *= nq
                grown.append((b, nb))
        items = grown
    items.sort(key=lambda t: (t[1], t[0].hnf))
    return items


def _prime_blocks(F: FieldDescriptor, ells, bound):
    """(ideal, norm) for every prime over the ells with norm <= bound, read
    off the field's prime table."""
    return [
        (prime_to_ideal(v, F), v.norm)
        for ell in ells
        for v in prime_ideals_over(F, ell)
        if v.norm <= bound
    ]


def moduli_upto(F: FieldDescriptor, bound):
    """All integral ideals of norm <= bound, by prime factorization."""
    ells = [ell for ell in range(2, bound + 1) if is_prime(ell)]
    return _products_upto(F, _prime_blocks(F, ells, bound), bound)


def moduli_of_norm(F: FieldDescriptor, norm):
    """All integral ideals of norm exactly norm, from the primes over its
    rational prime divisors only."""
    ells = sorted(factor_int(norm)) if norm > 0 else []
    blocks = _prime_blocks(F, ells, norm)
    return [a for a, n in _products_upto(F, blocks, norm) if n == norm]


# ---------------------------------------------------------------- reports


class FieldStages:
    """The stages of one field that do not depend on the modulus, each built
    on first use and then shared by every modulus of the field: the scan
    rows of each p (hecke.ScanRows: the degree-1 scan primes and their
    characters on the global units) and the wide class group
    (classnumber.WideClassGroup: class labels, representative primes and
    the generators of their products).  The primes themselves come from
    the process-wide prime table, primes.prime_ideals_over.

    It lives for one CLI call.  Neither ScanRows nor WideClassGroup keeps
    an entry that raised, so each configuration that asks again meets the
    same error.
    """

    def __init__(self, field: FieldDescriptor):
        self.field = field
        self._scan_rows = {}

    @cached_property
    def wide(self):
        return WideClassGroup(self.field)

    def scan_rows(self, p):
        if p not in self._scan_rows:
            self._scan_rows[p] = ScanRows(self.field, p)
        return self._scan_rows[p]


class ModulusStages:
    """The stages of one modulus that do not depend on p, each built on first
    use and then shared by every prime: the unit image O^x -> (O/m)^x x signs
    (cap bounds its residue enumeration) and the narrow ray class group G.
    shared holds the stages of its field.

    A stage that raises is not kept, so each prime that asks for it again
    meets the same error.
    """

    def __init__(
        self, shared: FieldStages, modulus: IdealHNF, cap: int = RESIDUE_ENUMERATION_CAP
    ):
        self.shared = shared
        self.modulus = modulus
        self.cap = cap

    @property
    def field(self):
        return self.shared.field

    @cached_property
    def image(self):
        return unit_image_in_modulus(self.field, self.modulus, self.cap)

    @cached_property
    def group(self):
        return ray_class_group(self.image, self.shared.wide)


def assemble_report(stages: ModulusStages, p: int, budget: int = DEFAULT_BUDGET):
    """Full report of one configuration, each stage built once and handed on.

    The unit image with E (refused by e_units if E has p-torsion), then the
    t_p scan (raising BudgetShortfall if it falls short), then the ray class
    group G, the pairing report and the eigensystem census.  The unit image
    and G come from stages, so a prime that falls short never builds G; the
    scan reads the rows its field shares for p.
    """
    E = e_units(stages.image, p)
    scan = compute_tp(E, p, budget, stages.shared.scan_rows(p))
    scan.require_target()
    G = stages.group
    psi = psi_report(G, E, scan)
    eig = eigensystem_report(G, scan)
    report = {
        "field": stages.field.label,
        "modulus_norm": stages.modulus.norm,
        "p": p,
        "r": psi.r,
        "r_p": psi.r_p,
        "delta_p": psi.delta_p,
        "t_p": psi.t_p,
        "h_plus": psi.h_plus,
        "index": psi.index,
        "hypothesis_A": psi.hypothesis,
        "dim_H0": psi.dim_H0,
        "dim_H1": psi.dim_H1,
        "dim_psi_domain": psi.dim_domain,
        "dim_psi_image": psi.dim_image,
        "psi_isomorphism": psi.is_isomorphism,
        "certificate_primes": [phi.prime.ell for phi in psi.scan.certificate],
        "eigensystems": {
            "count": eig.count,
            "matched_both_degrees": eig.matched_both_degrees,
        },
    }
    return report


def named_checks(report):
    """(name, passed) for each check of one configuration report, in order."""
    expected = report["h_plus"] * report["t_p"]
    checks = [
        ("rank-identity", report["t_p"] == report["r_p"] - report["delta_p"]),
        (
            "pairing-dimensions",
            report["dim_psi_domain"] == expected and report["dim_psi_image"] == expected,
        ),
    ]
    if report["hypothesis_A"]:
        checks.append(("iso-under-hypothesis", report["psi_isomorphism"]))
        checks.append(
            ("eigensystem-matching", report["eigensystems"]["matched_both_degrees"])
        )
    else:
        allowed = report["delta_p"] == report["r_p"] - report["r"]
        checks.append(
            ("iso-pattern-without-hypothesis", (not report["psi_isomorphism"]) or allowed)
        )
    return checks


def run_invariants(stages: ModulusStages, p: int, budget: int = DEFAULT_BUDGET):
    """Report dict; raises ArithmeticError if the rank identity or the
    pairing dimensions fail."""
    report = assemble_report(stages, p, budget)
    # rank-identity and pairing-dimensions come first: they hold whatever
    # the hypothesis
    for name, ok in named_checks(report)[:2]:
        if not ok:
            raise ArithmeticError(name)
    return report


def verify_config(stages: ModulusStages, p: int, budget: int):
    """Named pass/fail checks for one configuration, and its report."""
    report = assemble_report(stages, p, budget)
    return named_checks(report), report


class SweepConfig(NamedTuple):
    """One theorem sweep: fields x coprime moduli x primes, fixed budget."""

    fields: tuple
    modulus_norm_bound: int
    primes: tuple
    budget: int = DEFAULT_BUDGET
    cap_residue: int = RESIDUE_ENUMERATION_CAP


def run_verify(sweep: SweepConfig):
    """(exit code, aggregated report) over every sweep configuration.

    Rows come field by field, then by p, then by modulus.  The loop runs
    modulus-outer, so the unit image and G of a modulus are built once for
    all its primes and only one modulus's G is alive at a time.  The prime
    ideals and the scan rows of a field are built once for all its moduli.

    A configuration that raises a package error, ArithmeticError or
    ValueError is recorded in its own row under "error" and the sweep goes
    on: a budget or cap that ran out makes the exit code 2, any other error
    (like a failed check) makes it 1.
    """
    results = []
    ran_out = False
    errored = False
    for F in sweep.fields:
        shared = FieldStages(F)
        by_prime = [[] for _ in sweep.primes]
        for modulus, norm in moduli_upto(F, sweep.modulus_norm_bound):
            stages = ModulusStages(shared, modulus, sweep.cap_residue)
            for p, rows in zip(sweep.primes, by_prime):
                if norm % p == 0:
                    continue
                hnf = [list(r) for r in modulus.hnf]
                try:
                    checks, report = verify_config(stages, p, sweep.budget)
                except (TorusHeckeError, ArithmeticError, ValueError) as e:
                    if isinstance(e, RAN_OUT):
                        ran_out = True
                    else:
                        errored = True
                    rows.append(
                        {
                            "field": F.label,
                            "modulus_norm": norm,
                            "modulus_hnf": hnf,
                            "p": p,
                            "error": f"{type(e).__name__}: {e}",
                        }
                    )
                    continue
                report["modulus_hnf"] = hnf
                report["checks"] = {name: ok for name, ok in checks}
                rows.append(report)
        for rows in by_prime:
            results.extend(rows)
    failures = [
        {
            "field": row["field"],
            "modulus_norm": row["modulus_norm"],
            "modulus_hnf": row["modulus_hnf"],
            "p": row["p"],
            "check": name,
        }
        for row in results
        if "error" not in row
        for name, ok in row["checks"].items()
        if not ok
    ]
    code = 0
    if failures or errored:
        code = 1
    if ran_out:
        code = 2
    aggregated = {
        "configurations": len(results),
        "failures": failures,
        "pass": code == 0,
        "results": results,
    }
    return code, aggregated


CSV_HEADER = (
    "field,modulus_norm,p,r,r_p,delta_p,t_p,h_plus,index,"
    "hypothesis_A,psi_isomorphism,eigensystems_matched"
)


def report_to_csv_row(report):
    def render(x):
        if isinstance(x, bool):
            return "true" if x else "false"
        return str(x)

    cells = [
        report["field"],
        report["modulus_norm"],
        report["p"],
        report["r"],
        report["r_p"],
        report["delta_p"],
        report["t_p"],
        report["h_plus"],
        report["index"],
        report["hypothesis_A"],
        report["psi_isomorphism"],
        report["eigensystems"]["matched_both_degrees"],
    ]
    return [render(c) for c in cells]


def render_reports(reports, fmt):
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
        writer.writerows([CSV_HEADER.split(",")] + [report_to_csv_row(r) for r in reports])
        return out.getvalue()
    return json.dumps(reports if len(reports) != 1 else reports[0], indent=2) + "\n"


# ---------------------------------------------------------------- CLI


def _field_from_args(args):
    """The one field of a single-field verb: --d or --descriptor, not both."""
    if args.descriptor and args.d is not None:
        raise ValidationError("--d and --descriptor are exclusive; give one field")
    if args.descriptor:
        return load_descriptor(args.descriptor)
    if args.d is None:
        raise ValidationError("one of --d or --descriptor is required")
    return real_quadratic_field(args.d)


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _check_prime(p):
    """Refuse a --prime that is not prime; flag p = 2 on stderr."""
    if not is_prime(p):
        raise ValidationError(f"--prime {p} is not a prime")
    if p == 2:
        print(
            "note: p = 2 engages the torsion coordinate; expect delta_2 > 0 "
            "for most moduli",
            file=sys.stderr,
        )


def cmd_field_info(args):
    F = _field_from_args(args)
    from .field import validate_descriptor

    cert = validate_descriptor(F)
    info = {
        "label": F.label,
        "min_poly": list(F.min_poly),
        "signature": list(F.signature),
        "degree": F.degree,
        "unit_rank": F.unit_rank,
        "discriminant": poly_discriminant(F.min_poly),
        "torsion_order": F.torsion_order,
        "fundamental_units": [list(u) for u in F.fundamental_units],
        "class_number": F.class_number,
        "narrow_class_number": narrow_class_number(F),
        "irreducibility_certificate_prime": cert["irreducibility_certificate_prime"],
        "provenance": F.provenance,
    }
    _emit(json.dumps(info, indent=2) + "\n", args.out)
    return 0


def _moduli_of_norm_arg(F: FieldDescriptor, norm, p):
    """The moduli of norm --modulus-norm, or an empty list, with the reason
    on stderr, when no ideal has that norm or p divides it (every modulus
    would be skipped and nothing checked)."""
    moduli = moduli_of_norm(F, norm)
    if not moduli:
        print(f"no integral ideal has norm {norm}", file=sys.stderr)
    elif norm % p == 0:
        print(f"modulus norm {norm} is not coprime to p = {p}", file=sys.stderr)
        return []
    return moduli


def cmd_invariants(args):
    _check_prime(args.prime)
    shared = FieldStages(_field_from_args(args))
    moduli = _moduli_of_norm_arg(shared.field, args.modulus_norm, args.prime)
    if not moduli:
        return 1
    reports = []
    for modulus in moduli:
        stages = ModulusStages(shared, modulus, args.cap_residue)
        reports.append(run_invariants(stages, args.prime, args.budget))
    _emit(render_reports(reports, args.format), args.out)
    return 0


def cmd_verify(args):
    primes = tuple(args.prime or (3, 5, 7))
    for flag, values in (("--prime", primes), ("--d", args.d or ())):
        for i, x in enumerate(values):
            if x in values[:i]:
                raise ValidationError(f"{flag} {x} is given more than once")
    for p in primes:
        _check_prime(p)
    if args.modulus_norm < 1:
        raise ValidationError(f"--modulus-norm {args.modulus_norm} is below 1")
    fields = []
    if args.descriptor:
        fields.append(load_descriptor(args.descriptor))
    for d in args.d or []:
        fields.append(real_quadratic_field(d))
    if not fields:
        raise ValidationError("one of --d or --descriptor is required")
    sweep = SweepConfig(
        fields=tuple(fields),
        modulus_norm_bound=args.modulus_norm,
        primes=primes,
        budget=args.budget,
        cap_residue=args.cap_residue,
    )
    code, aggregated = run_verify(sweep)
    if args.format == "csv":
        rows = [r for r in aggregated["results"] if "error" not in r]
        _emit(render_reports(rows, "csv"), args.out)
    else:
        _emit(json.dumps(aggregated, indent=2) + "\n", args.out)
    return code


def cmd_scan_primes(args):
    _check_prime(args.prime)
    F = _field_from_args(args)
    moduli = _moduli_of_norm_arg(F, args.modulus_norm, args.prime)
    if not moduli:
        return 1
    lines = []
    for modulus in moduli:
        lines.append(f"# modulus norm {modulus.norm} hnf {modulus.hnf}")
        E = e_units(unit_image_in_modulus(F, modulus, args.cap_residue), args.prime)
        for v, phi in scan_t1(E, args.prime, args.budget):
            bal = balanced_coeffs(v.g_poly, v.ell)
            lines.append(
                f"ell={v.ell} f={v.f} g={bal} generator_encoding="
                f"{phi.generator_encoding} values={list(phi.values)}"
            )
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_spanning_set(args):
    _check_prime(args.prime)
    F = _field_from_args(args)
    scan = spanning_set(F, args.prime, args.budget)
    payload = {
        "field": F.label,
        "p": args.prime,
        "target": scan.target,
        "primes": [[v.ell, v.f, list(balanced_coeffs(v.g_poly, v.ell))] for v in scan.primes],
        "matrix": [list(row) for row in scan.rows],
        "shortfall": scan.shortfall,
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.out)
    return 2 if scan.shortfall else 0


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is not a non-negative integer")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="torushecke",
        description="Exact verification of derived Hecke structure on arithmetic tori",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(sp, *flags, multi_d=False):
        """Field choice and --out, plus the named flags the verb reads:
        "modulus" (--modulus-norm, --cap-residue), "budget", "format"."""
        if multi_d:
            sp.add_argument("--d", type=int, action="append", help="native field d (repeatable)")
        else:
            sp.add_argument("--d", type=int, help="native real quadratic field Q(sqrt d)")
        sp.add_argument("--descriptor", help="path to a field descriptor JSON")
        if "modulus" in flags:
            sp.add_argument("--modulus-norm", type=int, default=1, help="modulus ideal norm")
            sp.add_argument(
                "--cap-residue",
                type=_positive_int,
                default=RESIDUE_ENUMERATION_CAP,
                help="residue enumeration cap for this call (at least 1)",
            )
        if "budget" in flags:
            sp.add_argument(
                "--budget",
                type=_nonnegative_int,
                default=DEFAULT_BUDGET,
                help="scan budget (at least 0)",
            )
        if "format" in flags:
            sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--out", help="write the report to this path")

    p_field = sub.add_parser("field", help="descriptor inspection")
    field_sub = p_field.add_subparsers(dest="field_verb", required=True)
    p_info = field_sub.add_parser("info", help="validated field summary")
    common(p_info)
    p_info.set_defaults(func=cmd_field_info)

    p_inv = sub.add_parser("invariants", help="full report for one modulus norm")
    common(p_inv, "modulus", "budget", "format")
    p_inv.add_argument("--prime", type=int, required=True, help="the prime p")
    p_inv.set_defaults(func=cmd_invariants)

    p_ver = sub.add_parser("verify", help="theorem sweep over moduli and primes")
    common(p_ver, "modulus", "budget", "format", multi_d=True)
    p_ver.add_argument(
        "--prime", type=int, action="append", help="prime p (repeatable; default 3 5 7)"
    )
    p_ver.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan-primes", help="stream scan primes and functionals")
    common(p_scan, "modulus", "budget")
    p_scan.add_argument("--prime", type=int, required=True)
    p_scan.set_defaults(func=cmd_scan_primes)

    p_span = sub.add_parser("spanning-set", help="character spanning set for the unit dual")
    common(p_span, "budget")
    p_span.add_argument("--prime", type=int, required=True)
    p_span.set_defaults(func=cmd_spanning_set)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RAN_OUT as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except (TorusHeckeError, ValueError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    except ArithmeticError as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        # a descriptor that cannot be read or an --out that cannot be written
        # names its path; a failed write to a stream has none to name
        reason = e if e.filename is None else f"{e.filename}: {e.strerror}"
        print(f"{type(e).__name__}: {reason}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
