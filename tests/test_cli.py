"""CLI verbs, report shapes, sweep exit codes, and the ideal-list oracle."""

import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from torushecke import (
    abgroup,
    classnumber,
    cli,
    congruence,
    eigen,
    field,
    galois,
    hecke,
    ideals,
    intlinalg,
    rayclass,
    units,
)
from torushecke.abgroup import ExponentGroup
from torushecke.classnumber import real_quadratic_field
from torushecke.errors import RAN_OUT, BudgetShortfall, CapExceeded, TorusHeckeError
from torushecke.intlinalg import hnf_reduce
from torushecke.primes import prime_ideals_over, prime_to_ideal
from torushecke.cli import (
    CSV_HEADER,
    FieldStages,
    ModulusStages,
    SweepConfig,
    main,
    moduli_of_norm,
    moduli_upto,
    render_reports,
    report_to_csv_row,
    run_invariants,
    run_verify,
    verify_config,
)

REPORT_KEYS = [
    "field",
    "modulus_norm",
    "p",
    "r",
    "r_p",
    "delta_p",
    "t_p",
    "h_plus",
    "index",
    "hypothesis_A",
    "dim_H0",
    "dim_H1",
    "dim_psi_domain",
    "dim_psi_image",
    "psi_isomorphism",
    "certificate_primes",
    "eigensystems",
]


# ------------------------------------------------------------ ideal listing


def test_moduli_upto_matches_brute_lattice_enumeration(brute_ideals):
    for d in (2, 3, 5, 10):
        F = real_quadratic_field(d)
        got = sorted((n, a.hnf) for a, n in moduli_upto(F, 30))
        assert got == brute_ideals(F, 30), d


def test_moduli_of_norm(F2):
    assert [a.norm for a in moduli_of_norm(F2, 7)] == [7, 7]
    assert [a.hnf for a in moduli_of_norm(F2, 49)] == [
        ((7, 0), (0, 7)),
        ((49, 10), (0, 1)),
        ((49, 39), (0, 1)),
    ]
    # norm 6 needs a norm-3 factor and 3 is inert
    assert moduli_of_norm(F2, 6) == []


def test_moduli_of_norm_agrees_with_the_full_enumeration():
    for d in (2, 3, 5, 10, 13):
        F = real_quadratic_field(d)
        upto = moduli_upto(F, 200)
        for norm in range(1, 201):
            assert moduli_of_norm(F, norm) == [a for a, n in upto if n == norm], (d, norm)


def test_moduli_are_duplicate_free(F3):
    pairs = moduli_upto(F3, 40)
    assert len({a.hnf for a, _ in pairs}) == len(pairs)
    for a, n in pairs:
        assert a.norm == n <= 40


# ------------------------------------------------------------------ reports


def test_run_invariants_record_and_key_order(F2, seven2):
    report = run_invariants(ModulusStages(FieldStages(F2), seven2), 5)
    assert [report[k] for k in ("r", "r_p", "delta_p", "t_p")] == [1, 1, 0, 1]
    assert (report["h_plus"], report["index"]) == (12, 12)
    assert list(report) == REPORT_KEYS
    # 11 is inert here, so the first degree-1 scan prime is 31
    assert report["certificate_primes"] == [31]
    assert list(report["eigensystems"]) == ["count", "matched_both_degrees"]


def test_csv_row_golden(F2, one2):
    report = run_invariants(ModulusStages(FieldStages(F2), one2), 5)
    header, row = render_reports([report], "csv").splitlines()
    assert (header, row) == (CSV_HEADER, "Q(sqrt2),1,5,1,1,0,1,1,4,true,true,true")
    assert len(CSV_HEADER.split(",")) == len(report_to_csv_row(report))


def test_csv_quotes_a_descriptor_label_with_separators(F2, one2):
    label = 'Q(sqrt2), "ingested"\nsecond line'
    report = run_invariants(ModulusStages(FieldStages(F2._replace(label=label)), one2), 5)
    header, row = csv.reader(io.StringIO(render_reports([report], "csv")))
    assert header == CSV_HEADER.split(",")
    assert len(row) == 12 and row[0] == label


def test_run_verify_aggregate_shape(F3):
    code, agg = run_verify(
        SweepConfig(fields=(F3,), modulus_norm_bound=4, primes=(5,))
    )
    assert code == 0
    assert agg["pass"] is True
    assert agg["failures"] == []
    # moduli of norm 1, 2, 3, 4 all exist over Q(sqrt 3)
    assert agg["configurations"] == 4
    for row in agg["results"]:
        assert "modulus_hnf" in row
        assert set(row["checks"].values()) == {True}


def test_run_verify_records_a_failing_configuration_and_goes_on(Fzeta5, F2):
    # E((1)) of Q(zeta5) holds 5-torsion, so that configuration raises; the
    # Q(sqrt2) row after it is kept exactly as a sweep of Q(sqrt2) alone has it
    code, agg = run_verify(
        SweepConfig(fields=(Fzeta5, F2), modulus_norm_bound=1, primes=(5,))
    )
    assert code == 1
    assert agg["pass"] is False
    assert agg["failures"] == []
    assert agg["configurations"] == 2
    broken, kept = agg["results"]
    assert broken["field"] == "Q(zeta5)"
    assert broken["error"].startswith("TorsionObstruction: ")
    _, alone = run_verify(SweepConfig(fields=(F2,), modulus_norm_bound=1, primes=(5,)))
    assert json.dumps(kept) == json.dumps(alone["results"][0])


def computed_moduli(F, bound):
    """(modulus, norm) of moduli_upto(F, bound) that run_verify computes when
    no row errs: in a quadratic field, those whose conjugate is not listed
    before them."""
    seen = set()
    out = []
    for a, n in moduli_upto(F, bound):
        if F.degree != 2 or ideals.conjugate_ideal(a, F).hnf not in seen:
            out.append((a, n))
        seen.add(a.hnf)
    return out


def _patch_every_binding_site(monkeypatch, fn, wrapper):
    # `from .x import f` copies f into the importer, so each copy is replaced
    modules = [m for n, m in sys.modules.items() if n.startswith("torushecke")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, attr, wrapper)


def test_each_stage_runs_once_per_configuration(monkeypatch, F2, F3, seven2, cubic_descriptors):
    stages = {
        "e_units": units.e_units,
        "residue_sign_group": congruence.residue_sign_group,
        "ray_class_group": rayclass.ray_class_group,
        "compute_tp": hecke.compute_tp,
        "psi_report": hecke.psi_report,
        "eigensystem_report": eigen.eigensystem_report,
        "unit_power_product": units.unit_power_product,
    }
    calls = dict.fromkeys(stages, 0) | {"residue_power_product": 0}
    # E is its exponent vectors: no explicit unit is ever built
    expected = dict.fromkeys(calls, 1) | {"unit_power_product": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name, fn in stages.items():
        _patch_every_binding_site(monkeypatch, fn, counting(name, fn))
    # E is verified when the unit image is built: one residue power product
    # per generator of E (one, in a real quadratic field) per modulus
    csg_type = congruence.CongruenceSignGroup
    residue_power_product = counting("residue_power_product", csg_type.residue_power_product)
    monkeypatch.setattr(csg_type, "residue_power_product", residue_power_product)

    run_invariants(ModulusStages(FieldStages(F2), seven2), 5)
    assert calls == expected
    calls.update(dict.fromkeys(calls, 0))
    verify_config(ModulusStages(FieldStages(F2), seven2), 5, 50)
    assert calls == expected

    # a sweep builds the unit image and G once per modulus, shared by its primes
    configs = []
    checked = cli.verify_config

    def counting_config(stages, p, budget):
        configs.append((stages.modulus.hnf, p))
        return checked(stages, p, budget)

    monkeypatch.setattr(cli, "verify_config", counting_config)
    # and the characters of a scan prime once per field, and each (field, ell)
    # factored once, for the moduli, the residue groups and the scan alike
    characters = []
    factored = []

    def recording(log, fn, key):
        def wrapper(*args):
            log.append(key(*args))
            return fn(*args)

        return wrapper

    # and the wide class group once per field
    wide_stages = []
    for log, fn, key in (
        (characters, hecke.generator_characters, lambda v, p, F: (F.label, p, v)),
        (factored, galois.factor_poly_mod_ell, lambda poly, ell: (poly, ell)),
        (wide_stages, classnumber.WideClassGroup, lambda F: F.label),
    ):
        _patch_every_binding_site(monkeypatch, fn, recording(log, fn, key))
    calls.update(dict.fromkeys(calls, 0))
    primes = (3, 5, 7)
    F229 = real_quadratic_field(229)
    prime_ideals_over.cache_clear()
    code, agg = run_verify(
        SweepConfig(fields=(F2, F3, F229), modulus_norm_bound=21, primes=primes)
    )
    labels = {F.min_poly: F.label for F in (F2, F3, F229)}
    listed = {(labels[poly], ell) for poly, ell in factored}
    assert code == 0
    assert wide_stages == [F.label for F in (F2, F3, F229)]
    listing = moduli_upto(F2, 21) + moduli_upto(F3, 21) + moduli_upto(F229, 21)
    pairs = computed_moduli(F2, 21) + computed_moduli(F3, 21) + computed_moduli(F229, 21)
    per_config = sorted((a.hnf, p) for a, n in pairs for p in primes if n % p)
    per_modulus = sum(1 for _, n in pairs if any(n % p for p in primes))
    # (3), of norm 9, is coprime to 5 and 7 only; the primes over 7 to 3 and
    # 5; a modulus after its conjugate copies its rows and runs no stage
    configurations = sum(1 for _, n in listing for p in primes if n % p)
    assert configurations == agg["configurations"] > len(per_config) > per_modulus > 0
    assert sorted(configs) == per_config
    assert len(set(characters)) == len(characters) > 0
    assert {(label, p) for label, p, _ in characters} == {
        (F.label, p) for F in (F2, F3, F229) for p in primes
    }
    ells = (2, 3, 5, 7, 11, 13, 17, 19)
    assert len(listed) == len(factored)
    assert listed >= {(F.label, ell) for F in (F2, F3, F229) for ell in ells}
    assert listed >= {(label, v.ell) for label, _, v in characters}
    assert calls == {
        "e_units": len(per_config),
        "residue_sign_group": per_modulus,
        "ray_class_group": per_modulus,
        "compute_tp": len(per_config),
        "psi_report": len(per_config),
        "eigensystem_report": len(per_config),
        "unit_power_product": 0,
        "residue_power_product": per_modulus,
    }
    # the criterion-4 sweep factors each of its 80 (field, ell) once; 87
    # calls when the scan and the moduli each factored on their own.  It
    # checks E once for each of the 58 of its 72 moduli it computes, and
    # builds E for 144 of its 172 configurations
    factored.clear()
    prime_ideals_over.cache_clear()
    calls.update(dict.fromkeys(calls, 0))
    fields = tuple(real_quadratic_field(d) for d in (2, 3, 5, 6, 7, 10, 11, 13))
    code, agg = run_verify(SweepConfig(fields=fields, modulus_norm_bound=10, primes=primes))
    assert code == 0 and agg["configurations"] == 172
    assert len(set(factored)) == len(factored) == 80
    assert (calls["e_units"], calls["residue_power_product"]) == (144, 58)

    # a class number 1 field has the one class of (1), generated by 1: the
    # cubics' ray class groups ask for no generator
    def no_generator(*args):
        raise AssertionError("a cubic sweep asked for a principal generator")

    monkeypatch.setattr(classnumber, "principal_generator", no_generator)
    cubics = tuple(field.load_descriptor(c) for c in cubic_descriptors)
    code, agg = run_verify(SweepConfig(fields=cubics, modulus_norm_bound=13, primes=primes))
    assert code == 0 and agg["configurations"] > 0


def test_each_modulus_reduces_its_unit_map_once(monkeypatch):
    # per computed modulus, one Smith form gives the unit kernel and Q; the
    # image invariants are read off the 2 x 2 kernel HNF, and at class
    # number 1 G is Q itself, so only the 10 computed moduli of Q(sqrt10)
    # (h = 2) reduce G
    calls = dict.fromkeys(("smith_normal_form", "quotient_structure", "ray_class_group"), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for fn in (intlinalg.smith_normal_form, abgroup.quotient_structure, rayclass.ray_class_group):
        _patch_every_binding_site(monkeypatch, fn, counting(fn.__name__, fn))
    fields = tuple(real_quadratic_field(d) for d in (2, 3, 5, 6, 7, 10, 11, 13))
    code, agg = run_verify(SweepConfig(fields=fields, modulus_norm_bound=10, primes=(3, 5, 7)))
    moduli = sum(len(computed_moduli(F, 10)) for F in fields)
    assert code == 0 and agg["configurations"] == 172 and moduli == 58
    h2 = len(computed_moduli(real_quadratic_field(10), 10))
    assert h2 == 10
    # the one quotient_structure call of such a modulus is G's
    assert calls == {
        "smith_normal_form": moduli + h2,
        "quotient_structure": h2,
        "ray_class_group": moduli,
    }


def test_the_sweep_takes_the_fast_kernels(monkeypatch):
    """On the criterion-4 sweep the general factorization runs for ell = 2
    alone, as every other min_poly mod ell is a quadratic split by its
    discriminant, and no character multiplies an FqElement, as every scan
    prime has degree 1."""
    peeled = []
    general = galois._factor_with_multiplicity

    def peel(f, ell, mult, out):
        peeled.append(ell)
        return general(f, ell, mult, out)

    state = {"inside": 0, "characters": 0, "products": 0}
    character = galois.pth_character

    def watched_character(*args):
        state["inside"] += 1
        state["characters"] += 1
        try:
            return character(*args)
        finally:
            state["inside"] -= 1

    fq_mul = galois.FqElement.__mul__

    def watched_mul(x, y):
        state["products"] += state["inside"] > 0
        return fq_mul(x, y)

    _patch_every_binding_site(monkeypatch, general, peel)
    _patch_every_binding_site(monkeypatch, character, watched_character)
    monkeypatch.setattr(galois.FqElement, "__mul__", watched_mul)
    prime_ideals_over.cache_clear()
    fields = tuple(real_quadratic_field(d) for d in (2, 3, 5, 6, 7, 10, 11, 13))
    code, agg = run_verify(SweepConfig(fields=fields, modulus_norm_bound=10, primes=(3, 5, 7)))
    assert code == 0 and agg["configurations"] == 172
    assert set(peeled) == {2}
    assert state["characters"] > 0 and state["products"] == 0


def test_back_to_back_sweeps_print_identical_bytes(capsys):
    # no stage of one call outlives it, and the process-wide prime table
    # depends on the field alone: a sweep, a different sweep of the same
    # field that falls short, and the first sweep again
    argv = ["verify", "--d", "2", "--d", "3", "--modulus-norm", "10"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--d", "2", "--modulus-norm", "10", "--budget", "0"]) == 2
    assert capsys.readouterr().out != first
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_a_prime_that_falls_short_builds_no_ray_class_group(monkeypatch, F2, one2):
    def no_group(ui):
        raise AssertionError("G was built for a scan that fell short")

    monkeypatch.setattr(cli, "ray_class_group", no_group)
    with pytest.raises(BudgetShortfall):
        verify_config(ModulusStages(FieldStages(F2), one2), 5, 0)


def test_residue_group_enumerates_only_its_primary_components(monkeypatch, F2):
    # N(m) = 1152 = 2^7 * 3^2: m = P^7 * (3), components of norm 128 and 9
    (modulus,) = moduli_of_norm(F2, 1152)
    visited = []
    coprime_calls = []
    transversal = ideals.residue_transversal
    coprime = ideals.element_is_coprime_to

    def counting_transversal(a):
        reps = transversal(a)
        visited.append(len(reps))
        return reps

    def counting_coprime(*args):
        coprime_calls.append(args)
        return coprime(*args)

    _patch_every_binding_site(monkeypatch, transversal, counting_transversal)
    _patch_every_binding_site(monkeypatch, coprime, counting_coprime)
    csg = congruence.residue_sign_group(F2, modulus)
    # the prime (3) is a residue field: only the box of P^7 is walked
    assert visited == [128]
    assert coprime_calls == []
    assert csg.residue_order == 64 * 8


def test_cap_bounds_the_largest_primary_component(F2):
    # (1155) = (3)(5)(7)(11): (3), (5), (11) inert, 7 split into P7 * P7'
    modulus = ideals.rational_ideal(1155, F2)
    assert modulus.norm == 1155**2 > congruence.RESIDUE_ENUMERATION_CAP
    with pytest.raises(CapExceeded, match="norm 121 "):
        congruence.residue_sign_group(F2, modulus, cap=120)
    csg = congruence.residue_sign_group(F2, modulus)
    assert csg.residue_order == 8 * 24 * 36 * 120
    # residue powers computed mod m agree with the local discrete logs
    k = csg.n_residue_gens
    lattice = ExponentGroup.from_columns([c[:k] for c in csg.full_relation_columns[:k]], k)
    rng = random.Random(5)
    elements = []
    while len(elements) < 4:
        x = (rng.randint(-50, 50), rng.randint(-50, 50))
        if any(x) and ideals.element_is_coprime_to(x, modulus, F2):
            elements.append(x)
    vectors = [csg.element_vector(x)[:k] for x in elements]
    for _ in range(5):
        exps = [rng.randint(-(10**6), 10**6) for _ in elements]
        got = csg.element_vector(csg.residue_power_product(elements, exps))[:k]
        diff = [g - sum(e * v[i] for e, v in zip(exps, vectors)) for i, g in enumerate(got)]
        assert not any(hnf_reduce(lattice.hnf, diff))


def test_large_index_signs_only_small_elements(monkeypatch, F2):
    # index 860: the E generator is eps^860, a number of about 550 bits
    modulus = moduli_of_norm(F2, 431)[0]
    real_signs = field.real_signs
    bits = []

    def recording(x, F):
        bits.append(max(abs(c).bit_length() for c in x))
        return real_signs(x, F)

    _patch_every_binding_site(monkeypatch, real_signs, recording)
    report = run_invariants(ModulusStages(FieldStages(F2), modulus), 5)
    assert report["index"] == 860
    assert bits and max(bits) < 16


def test_pairing_dimensions_can_fail(monkeypatch, capsys):
    # a scan whose visited operators are dropped leaves the pairing image at 0
    def no_operators(E, p, budget, rows=None):
        return hecke.compute_tp(E, p, budget, rows)._replace(visited=())

    monkeypatch.setattr(cli, "compute_tp", no_operators)
    assert main(["verify", "--d", "2", "--prime", "5", "--modulus-norm", "1"]) == 1
    agg = json.loads(capsys.readouterr().out)
    (row,) = agg["results"]
    assert row["dim_psi_image"] == 0
    assert list(row["checks"]) == [
        "rank-identity",
        "pairing-dimensions",
        "iso-under-hypothesis",
        "eigensystem-matching",
    ]
    assert row["checks"]["rank-identity"] is True
    assert row["checks"]["pairing-dimensions"] is False
    assert main(["invariants", "--d", "2", "--prime", "5"]) == 1
    assert "check failed: pairing-dimensions" in capsys.readouterr().err


def test_verify_configuration_that_ran_out_exits_two(monkeypatch, capsys):
    checked = cli.verify_config

    def cap_at_norm_two(stages, p, budget):
        if stages.modulus.norm == 2:
            raise CapExceeded("primary component of norm 2 exceeds the cap")
        return checked(stages, p, budget)

    monkeypatch.setattr(cli, "verify_config", cap_at_norm_two)
    assert main(["verify", "--d", "2", "--prime", "5", "--modulus-norm", "2"]) == 2
    agg = json.loads(capsys.readouterr().out)
    assert [r["modulus_norm"] for r in agg["results"]] == [1, 2]
    assert "error" not in agg["results"][0]
    assert agg["results"][1]["error"] == (
        "CapExceeded: primary component of norm 2 exceeds the cap"
    )
    assert agg["pass"] is False


def test_a_class_representative_cap_that_runs_out_exits_two(monkeypatch, capsys):
    # Q(sqrt229) has class number 3; below 5 no representatives coprime to
    # some moduli of norm <= 15 are found, and a cap that ran out is no
    # failed check
    monkeypatch.setattr(classnumber, "CLASS_CLOSURE_CAP", 5)
    argv = ["--d", "229", "--prime", "7", "--modulus-norm", "15"]
    assert main(["invariants", *argv]) == 2
    assert capsys.readouterr().err == (
        "CapExceeded: class representative sweep exhausted its cap\n"
    )
    assert main(["verify", *argv]) == 2
    errors = [r["error"] for r in json.loads(capsys.readouterr().out)["results"] if "error" in r]
    assert errors and all(
        e == "CapExceeded: class representative sweep exhausted its cap" for e in errors
    )


def test_verify_records_a_value_error_and_goes_on(monkeypatch, capsys):
    built = cli.ray_class_group

    def refuse_sqrt2(ui, wide=None):
        if ui.csg.field.label == "Q(sqrt2)":
            raise ValueError("no ray class group here")
        return built(ui, wide)

    monkeypatch.setattr(cli, "ray_class_group", refuse_sqrt2)
    argv = ["verify", "--d", "2", "--d", "3", "--prime", "5", "--modulus-norm", "4"]
    assert main(argv) == 1
    agg = json.loads(capsys.readouterr().out)
    broken = [r for r in agg["results"] if r["field"] == "Q(sqrt2)"]
    kept = [r for r in agg["results"] if r["field"] == "Q(sqrt3)"]
    assert broken and all(r["error"] == "ValueError: no ray class group here" for r in broken)
    monkeypatch.undo()
    assert main(["verify", "--d", "3", "--prime", "5", "--modulus-norm", "4"]) == 0
    alone = json.loads(capsys.readouterr().out)["results"]
    assert json.dumps(kept) == json.dumps(alone)


@pytest.mark.parametrize(
    "argv",
    [
        ["field", "info", "--d", "2"],
        ["invariants", "--d", "2", "--prime", "5"],
        ["verify", "--d", "2", "--prime", "5", "--modulus-norm", "1"],
        ["scan-primes", "--d", "2", "--prime", "5"],
        ["spanning-set", "--d", "2", "--prime", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_an_unwritable_out_path_is_one_stderr_line(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "report.json"
    assert main([*argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"FileNotFoundError: {out}: No such file or directory\n"
    assert not out.parent.exists()


def test_a_missing_descriptor_is_one_stderr_line(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert main(["field", "info", "--descriptor", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"FileNotFoundError: {path}: No such file or directory\n"


def test_an_os_error_without_a_path_is_one_stderr_line(monkeypatch, capsys):
    def closed(text, out_path):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "_emit", closed)
    assert main(["field", "info", "--d", "2"]) == 1
    assert capsys.readouterr().err == "BrokenPipeError: [Errno 32] Broken pipe\n"


def test_main_reports_a_value_error_without_a_traceback(monkeypatch, capsys):
    def refuse(F):
        raise ValueError("no narrow class number here")

    monkeypatch.setattr(cli, "narrow_class_number", refuse)
    assert main(["field", "info", "--d", "2"]) == 1
    assert capsys.readouterr().err == "ValueError: no narrow class number here\n"


def test_run_verify_skips_noncoprime_moduli(F3):
    code, agg = run_verify(
        SweepConfig(fields=(F3,), modulus_norm_bound=4, primes=(3,))
    )
    assert code == 0
    assert [r["modulus_norm"] for r in agg["results"]] == [1, 2, 4]


# ------------------------------------------------------- p-major sweep oracle


def p_major_verify(sweep):
    """run_verify as it was before the stages of a modulus were shared: the
    p-major loop with one assemble_report, from fresh stages, per
    configuration."""
    results = []
    failures = []
    ran_out = False
    errored = False
    for F in sweep.fields:
        pairs = moduli_upto(F, sweep.modulus_norm_bound)
        for p in sweep.primes:
            for modulus, norm in pairs:
                if norm % p == 0:
                    continue
                hnf = [list(r) for r in modulus.hnf]
                head = {"field": F.label, "modulus_norm": norm, "modulus_hnf": hnf, "p": p}
                try:
                    stages = ModulusStages(FieldStages(F), modulus, sweep.cap_residue)
                    report = cli.assemble_report(stages, p, sweep.budget)
                    checks = cli.named_checks(report)
                except (TorusHeckeError, ArithmeticError, ValueError) as e:
                    ran_out |= isinstance(e, RAN_OUT)
                    errored |= not isinstance(e, RAN_OUT)
                    results.append(head | {"error": f"{type(e).__name__}: {e}"})
                    continue
                report["modulus_hnf"] = hnf
                report["checks"] = {name: ok for name, ok in checks}
                results.append(report)
                failures += [head | {"check": name} for name, ok in checks if not ok]
    code = 2 if ran_out else 1 if failures or errored else 0
    aggregated = {
        "configurations": len(results),
        "failures": failures,
        "pass": code == 0,
        "results": results,
    }
    return code, aggregated


def assert_matches_p_major_oracle(sweep):
    code, agg = run_verify(sweep)
    want_code, want = p_major_verify(sweep)
    assert code == want_code
    # byte-identical as the CLI prints it, key order included
    assert json.dumps(agg, indent=2) == json.dumps(want, indent=2)
    return code, agg


def test_run_verify_matches_the_p_major_loop_on_the_criterion_4_fields():
    fields = tuple(real_quadratic_field(d) for d in (2, 3, 5, 6, 7, 10, 11, 13))
    code, agg = assert_matches_p_major_oracle(
        SweepConfig(fields=fields, modulus_norm_bound=50, primes=(3, 5, 7))
    )
    assert code == 0 and agg["configurations"] == 794


def test_run_verify_matches_the_p_major_loop_with_class_number_three():
    fields = (real_quadratic_field(79), real_quadratic_field(229))
    code, agg = assert_matches_p_major_oracle(
        SweepConfig(fields=fields, modulus_norm_bound=30, primes=(3, 5, 7))
    )
    assert code == 0 and agg["configurations"] == 172


def test_run_verify_matches_the_p_major_loop_on_the_cubics(cubic_descriptors):
    fields = tuple(field.load_descriptor(c) for c in cubic_descriptors)
    code, agg = assert_matches_p_major_oracle(
        SweepConfig(fields=fields, modulus_norm_bound=13, primes=(3, 5, 7))
    )
    assert code == 0
    assert {row["t_p"] for row in agg["results"]} == {1, 2}


def test_run_verify_matches_the_p_major_loop_when_a_stage_raises(monkeypatch, F2, F3):
    built = cli.ray_class_group

    def refuse_sqrt2(ui, wide=None):
        if ui.csg.field.label == "Q(sqrt2)":
            raise ValueError("no ray class group here")
        return built(ui, wide)

    monkeypatch.setattr(cli, "ray_class_group", refuse_sqrt2)
    code, agg = assert_matches_p_major_oracle(
        SweepConfig(fields=(F2, F3), modulus_norm_bound=10, primes=(3, 5, 7))
    )
    assert code == 1
    broken = [r for r in agg["results"] if r["field"] == "Q(sqrt2)"]
    # every (modulus, p) of Q(sqrt2) has its own error row
    assert len(broken) == sum(1 for _, n in moduli_upto(F2, 10) for p in (3, 5, 7) if n % p)
    assert all(r["error"] == "ValueError: no ray class group here" for r in broken)


def test_run_verify_matches_the_p_major_loop_when_characters_raise(monkeypatch, F2, F3):
    built = hecke.generator_characters

    def refuse_31(v, p, F):
        # 31 is the first scan prime of Q(sqrt2) at p = 5 (degree 1) and of
        # Q(sqrt3) at p = 3 and 5
        if v.ell == 31 and F.label == "Q(sqrt2)":
            raise ValueError(f"no characters at {v.label()}")
        return built(v, p, F)

    monkeypatch.setattr(hecke, "generator_characters", refuse_31)
    code, agg = assert_matches_p_major_oracle(
        SweepConfig(fields=(F2, F3), modulus_norm_bound=10, primes=(3, 5, 7))
    )
    assert code == 1
    errors = {(r["field"], r["p"], r["error"]) for r in agg["results"] if "error" in r}
    assert errors == {("Q(sqrt2)", 5, "ValueError: no characters at (31, g=(-8, 1))")}
    # every (modulus, 5) of Q(sqrt2) meets the error in its own row
    rows = [r for r in agg["results"] if "error" in r]
    assert len(rows) == sum(1 for _, n in moduli_upto(F2, 10) if n % 5)


def test_run_verify_matches_the_p_major_loop_when_the_cap_runs_out(F2):
    code, agg = assert_matches_p_major_oracle(
        SweepConfig(fields=(F2,), modulus_norm_bound=10, primes=(3, 5, 7), cap_residue=2)
    )
    assert code == 2
    errors = [(r["modulus_hnf"], r["p"]) for r in agg["results"] if "error" in r]
    # each prime of a modulus with a component above the cap has its own row
    capped = [
        ([list(r) for r in a.hnf], p)
        for p in (3, 5, 7)
        for a, n in moduli_upto(F2, 10)
        if n % p and n > 2
    ]
    assert errors == capped
    assert all(r["error"].startswith("CapExceeded: ") for r in agg["results"] if "error" in r)


# ---------------------------------------------------------------- CLI verbs


def test_cli_field_info(capsys):
    assert main(["field", "info", "--d", "2"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["label"] == "Q(sqrt2)"
    assert info["min_poly"] == [-2, 0, 1]
    assert info["discriminant"] == 8
    assert info["unit_rank"] == 1
    assert info["narrow_class_number"] == 1
    assert info["irreducibility_certificate_prime"] == 3
    assert info["provenance"] == "native"


def test_cli_field_info_beyond_the_old_class_closure(capsys):
    # the product closure ran past its norm cap here and exited 2
    assert main(["field", "info", "--d", "1111"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert (info["class_number"], info["narrow_class_number"]) == (10, 20)


# sha256 of stdout for fields with h > 1 or a large unit, as computed at
# f16ffbd, before principality, class number and unit came from rho-cycles
RHO_CYCLE_SHA256 = {
    "field info --d 223": "7c0d8d0ba10c1dedcb561fd430a2c5edc65a89a739d19c3fa697f41987343c88",
    "field info --d 399": "5c988eba192a7d1455c07e5fbfd5ab1a120ead8d136836b1c0ea66a4c092edc4",
    "field info --d 646": "b8469a985de87c4cb6835471a2ca19d0a6eebcb1cd1644948ddc3ea03832594b",
    "field info --d 1009": "74dbcd0606795a52aac66d0c253e89fef1ad0619b55c7457cc4a60f0f68d4e12",
    "field info --d 2730": "32a718125fd51b6c4973469a984e203806478e4183feb64fdd4510e84fb7f62d",
    "verify --d 223 --modulus-norm 20 --prime 5": (
        "662b1684cf191742394bdbc1f5b909b9e54d88989e6845730a98cfc29ac97240"
    ),
    "verify --d 79 --d 229 --modulus-norm 30 --format csv": (
        "ef4f71a9e38af692b9771605463dc8480affef77e42b487bb596aeaa24a23077"
    ),
    # h = 10, 38 moduli: computed at 200c002, before the wide class group
    # was built once per field
    "verify --d 1111 --modulus-norm 30 --prime 3 --prime 5": (
        "2e67de792b48fa4bf04526e47d17fb19cdcfdb3a8c8196e484a2f9bb314b7d28"
    ),
}


@pytest.mark.parametrize("argv", list(RHO_CYCLE_SHA256))
def test_class_group_output_is_byte_identical(argv, capsys):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == RHO_CYCLE_SHA256[argv]


def _run_in_a_fresh_process(argv):
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "torushecke", *argv],
        env=env,
        capture_output=True,
        timeout=120,
    )


# h_plus 69120 on each of its 3 moduli; sha256 of stdout as computed at
# a829a07, when the census and the pairing still looped over every class
HUGE_HPLUS_ARGV = "invariants --d 2 --prime 13 --modulus-norm 1334025"
HUGE_HPLUS_SHA256 = "4e1db942d36fc322b9638ed5411e168e8b86950bf27886431eb22f92075791fd"


def test_huge_hplus_output_is_byte_identical_in_a_fresh_process():
    run = _run_in_a_fresh_process(HUGE_HPLUS_ARGV.split())
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout).hexdigest() == HUGE_HPLUS_SHA256


# prime moduli of norm near the default cap; sha256 of stdout as computed at
# a879c78, when each prime component was still closed over its box
LARGE_PRIME_SHA256 = {
    # two split primes over 99991
    "invariants --d 2 --prime 5 --modulus-norm 99991": (
        "d30863b196b003dff7aab89fef87f9b90a2bb6d97bed7c41e6f76ea2c17899a6"
    ),
    # the inert (293), residue degree 2
    "invariants --d 2 --prime 3 --modulus-norm 85849": (
        "b5ba04e449ee788e36cce593927efe5bad6cdf48e65314b70f07057f8b415c97"
    ),
}


@pytest.mark.parametrize("argv", list(LARGE_PRIME_SHA256))
def test_large_prime_moduli_output_is_byte_identical_in_a_fresh_process(argv):
    run = _run_in_a_fresh_process(argv.split())
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout).hexdigest() == LARGE_PRIME_SHA256[argv]


# the scan order: sha256 of stdout as computed at 11a45ad, before the scan
# and the moduli read one prime table; {zeta7} is the Q(zeta7)+ descriptor
SCAN_ORDER_SHA256 = {
    # inert primes of residue degree 2 among the split ones
    "scan-primes --d 2 --prime 5 --modulus-norm 2": (
        "0a71c1d3323076cee4d737a0b2a7230488b0ee7e6fae42ca1640978dbd739b07"
    ),
    "scan-primes --descriptor {zeta7} --prime 7 --modulus-norm 13": (
        "bb3aea91e2d3472af298f5ebe053eddf0b26e61359b724e8e59d7630b0fd9e9f"
    ),
    "spanning-set --d 229 --prime 3": (
        "6fbb39fd56830d5537f443a41f51ff9ddb45960419507c493eff8ad8d42d037e"
    ),
}


@pytest.mark.parametrize("argv", list(SCAN_ORDER_SHA256))
def test_scan_order_is_byte_identical_in_a_fresh_process(argv, tmp_path, cubic_descriptors):
    path = tmp_path / "zeta7.json"
    path.write_text(json.dumps(cubic_descriptors[0]))
    run = _run_in_a_fresh_process([a.format(zeta7=path) for a in argv.split()])
    assert run.returncode == 0, run.stderr
    assert hashlib.sha256(run.stdout).hexdigest() == SCAN_ORDER_SHA256[argv]

def test_prime_components_walk_no_box(monkeypatch, F2):
    # closing the boxes of these three moduli took 353,787 element_mul calls
    muls = []
    element_mul = field.element_mul

    def no_walk(a):
        raise AssertionError(f"the box of a prime of norm {a.norm} was walked")

    def counting_mul(*args):
        muls.append(1)
        return element_mul(*args)

    _patch_every_binding_site(monkeypatch, ideals.residue_transversal, no_walk)
    _patch_every_binding_site(monkeypatch, element_mul, counting_mul)
    moduli = moduli_of_norm(F2, 99991) + moduli_of_norm(F2, 85849)
    assert len(moduli) == 3
    for modulus in moduli:
        csg = congruence.residue_sign_group(F2, modulus)
        assert csg.residue_order == modulus.norm - 1
    assert len(muls) < 2000


def test_a_prime_of_norm_two_adds_no_coordinate(F2):
    """(O/P)^x is trivial at N(P) = 2: the box closure of its one unit adds
    no generator, and the component built from the residue field adds no
    coordinate either; an element of P still has no vector."""
    (v,) = prime_ideals_over(F2, 2)
    P = prime_to_ideal(v, F2)
    csg = congruence.residue_sign_group(F2, P)
    assert csg.residue_order == 1 and csg.n_residue_gens == 0
    assert csg.element_vector((1, 0)) == (0, 0)
    assert csg.element_vector((-1, 0)) == (1, 1)
    with pytest.raises(ValueError):
        csg.element_vector((0, 1))


@pytest.mark.parametrize(
    "descriptor, argv",
    [
        # eps^2 for Q(sqrt2): h_plus read 2 at norm 1, where it is 1
        ({"min_poly": [-2, 0, 1], "fundamental_units": [[3, 2]], "class_number": 1},
         ["--modulus-norm", "14", "--prime", "3", "--prime", "5"]),
        # Q(sqrt10) has class number 2: h_plus read 1 at norm 1, where it is 2
        ({"min_poly": [-10, 0, 1], "fundamental_units": [[3, 1]], "class_number": 1},
         ["--modulus-norm", "6", "--prime", "5"]),
    ],
    ids=["sqrt2-eps-squared", "sqrt10-class-number-1"],
)
def test_cli_refuses_a_wrong_real_quadratic_descriptor(tmp_path, capsys, descriptor, argv):
    common = {"label": "bad", "signature": [2, 0], "torsion": {"order": 2, "generator": [-1, 0]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**common, **descriptor}))
    assert main(["verify", "--descriptor", str(path), *argv, "--format", "csv"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ValidationError" in captured.err


# Z[sqrt40] has conductor 2 in Q(sqrt10) and class number 2
Z_SQRT40 = {
    "label": "Z[sqrt40]",
    "min_poly": [-40, 0, 1],
    "signature": [2, 0],
    "torsion": {"order": 2, "generator": [-1, 0]},
    "fundamental_units": [[19, 3]],
    "class_number": 2,
}


def test_a_non_maximal_order_takes_no_non_invertible_representative(tmp_path, capsys):
    # the prime (2, sqrt40) over the conductor is not invertible and lies in
    # no class, so it must not become a class representative
    path = tmp_path / "z40.json"
    path.write_text(json.dumps(Z_SQRT40))
    assert main(["field", "info", "--descriptor", str(path)]) == 0
    # the unit 19 + 3 sqrt40 has norm +1, so h+ = 2h
    assert json.loads(capsys.readouterr().out)["narrow_class_number"] == 4
    argv = ["verify", "--descriptor", str(path), "--modulus-norm", "9", "--prime", "5"]
    assert main(argv) == 0
    agg = json.loads(capsys.readouterr().out)
    assert agg["pass"] is True and agg["configurations"] == 11
    assert all("error" not in row for row in agg["results"])


# sha256 of `verify --modulus-norm 13 --prime P --format csv` for P = 3, 5, 7,
# as computed at fc28683; the ray class group conjugates the representative
# (1), which must work in every degree
CUBIC_CSV_SHA256 = {
    "Q(zeta7)+": (
        "ba85d71a51611b2fd644af8984b0a46f9e7d1ba07c038075adac146ab7283c35",
        "f5f0c82b372d282ded24a8375ed8c63a8bbb5b10aaace2f1dba6cb787c5d7e44",
        "b33fc53a90812372668ca6906731f1a05497efdcbffa8f4855ca7b0e7a9258c8",
    ),
    "simplest cubic a=1": (
        "9983e16295bb1c2f1cd22dfa25e9f85d4eb827f78206224beae6550b567efd88",
        "f62ddedb127c379145e2f845baa957322043fa58cba6389759e122defbd0a8de",
        "23090f8bb9d4b3f81a07193befe1eca5d05ac9353fdc408258714ebee741399a",
    ),
}


def test_cubic_descriptors_verify_to_their_golden_csv(tmp_path, capsys, cubic_descriptors):
    t_p = set()
    for descriptor in cubic_descriptors:
        path = tmp_path / "cubic.json"
        path.write_text(json.dumps(descriptor))
        assert main(["field", "info", "--descriptor", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["narrow_class_number"] == 1
        for p, digest in zip((3, 5, 7), CUBIC_CSV_SHA256[descriptor["label"]]):
            argv = ["verify", "--descriptor", str(path), "--modulus-norm", "13"]
            assert main(argv + ["--prime", str(p), "--format", "csv"]) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest
            t_p |= {row["t_p"] for row in csv.DictReader(io.StringIO(out))}
    assert t_p == {"1", "2"}


def test_cli_invariants_json_singleton(capsys):
    assert main(["invariants", "--d", "2", "--prime", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert isinstance(report, dict)
    assert report["t_p"] == 1
    assert report["psi_isomorphism"] is True


def test_cli_invariants_lists_every_ideal_of_that_norm(capsys):
    assert main(["invariants", "--d", "2", "--prime", "5", "--modulus-norm", "7"]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert isinstance(reports, list) and len(reports) == 2
    assert all(r["modulus_norm"] == 7 for r in reports)


def test_cli_invariants_missing_norm(capsys):
    assert main(["invariants", "--d", "2", "--prime", "5", "--modulus-norm", "6"]) == 1
    assert "no integral ideal has norm 6" in capsys.readouterr().err


def test_cli_invariants_skips_and_notes_noncoprime(capsys):
    # the only norm-3 ideal shares the prime, so nothing would be checked:
    # the call is refused with a note, and prints no report
    assert main(["invariants", "--d", "3", "--prime", "3", "--modulus-norm", "3"]) == 1
    captured = capsys.readouterr()
    assert "not coprime" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--d", "2", "--prime", "5", "--modulus-norm", "25"],
        ["invariants", "--d", "2", "--prime", "5", "--modulus-norm", "25", "--format", "csv"],
        ["scan-primes", "--d", "2", "--prime", "7", "--modulus-norm", "49"],
    ],
    ids=["invariants-json", "invariants-csv", "scan-primes"],
)
def test_cli_refuses_a_modulus_norm_that_p_divides(capsys, argv):
    # every modulus of the norm shares a factor with p: exit 0 would claim
    # that checks passed when none ran
    norm, p = argv[argv.index("--modulus-norm") + 1], argv[argv.index("--prime") + 1]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"modulus norm {norm} is not coprime to p = {p}\n"


def test_cli_even_prime_note(capsys):
    assert main(["invariants", "--d", "2", "--prime", "2"]) == 0
    assert "p = 2" in capsys.readouterr().err


def test_cli_verify_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "verify",
            "--d",
            "2",
            "--modulus-norm",
            "8",
            "--prime",
            "5",
            "--format",
            "csv",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    # norms 1, 2, 4, 7, 7, 8 all coprime to 5
    assert len(lines) == 7
    assert all(line.startswith("Q(sqrt2),") for line in lines[1:])


def test_cli_verify_output_is_byte_deterministic(tmp_path):
    argv = ["verify", "--d", "2", "--d", "3", "--modulus-norm", "10", "--prime", "5"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--out", str(a)]) == 0
    assert main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    agg = json.loads(a.read_text())
    assert agg["pass"] is True
    assert agg["configurations"] == 14


def test_cli_budget_shortfall_exit_code(capsys):
    assert main(["invariants", "--d", "2", "--prime", "5", "--budget", "0"]) == 2
    assert "BudgetShortfall" in capsys.readouterr().err


def test_cli_validation_error_exit_code(capsys):
    assert main(["invariants", "--d", "4", "--prime", "5"]) == 1
    assert "ValidationError" in capsys.readouterr().err


def test_cli_requires_field_choice(capsys):
    assert main(["invariants", "--prime", "5"]) == 1
    assert "--d or --descriptor" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["field", "info"],
        ["invariants", "--prime", "5", "--modulus-norm", "13", "--format", "csv"],
        ["scan-primes", "--prime", "7", "--modulus-norm", "13"],
        ["spanning-set", "--prime", "5"],
    ],
)
def test_single_field_verbs_refuse_d_with_a_descriptor(tmp_path, capsys, cubic_descriptors, argv):
    # a verb of one field reports on one: --d is not dropped for the descriptor
    path = tmp_path / "zeta7.json"
    path.write_text(json.dumps(cubic_descriptors[0]))
    assert main(argv + ["--d", "2", "--descriptor", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "ValidationError: --d and --descriptor are exclusive; give one field\n"
    )
    # the descriptor alone is a valid call
    assert main(argv + ["--descriptor", str(path)]) == 0
    assert capsys.readouterr().out != ""


def test_cli_verify_requires_a_field_like_every_verb(capsys):
    # no field would sweep zero configurations and pass vacuously
    assert main(["verify", "--modulus-norm", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ValidationError: one of --d or --descriptor is required\n"


def test_cli_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["invariants", "--d", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb"])
    assert exc.value.code == 2


def test_cli_scan_primes(capsys):
    assert main(["scan-primes", "--d", "2", "--prime", "5", "--budget", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# modulus norm 1")
    assert "ell=11 f=2 g=(-2, 0, 1)" in out
    assert "ell=31 f=1" in out
    assert "generator_encoding=3 values=[4]" in out


@pytest.mark.parametrize("norm", ["6", "5"])
def test_cli_scan_primesmissing_norm(capsys, norm):
    # 6 = 2 * 3 with 3 inert; 5 is inert, so only (5) of norm 25 lies over it
    assert main(["scan-primes", "--d", "2", "--prime", "5", "--modulus-norm", norm]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"no integral ideal has norm {norm}\n"


def test_cli_spanning_set(capsys):
    assert main(["spanning-set", "--d", "2", "--prime", "5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["target"] == 1
    assert payload["primes"] == [[19, 2, [-2, 0, 1]]]
    assert payload["matrix"] == [[1]]
    assert payload["shortfall"] is False


def test_cli_spanning_set_shortfall_exit(capsys):
    assert main(["spanning-set", "--d", "2", "--prime", "5", "--budget", "0"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["shortfall"] is True


def test_cli_cap_residue_flag(capsys):
    argv = ["invariants", "--d", "3", "--prime", "7", "--modulus-norm", "59"]
    assert main(argv + ["--cap-residue", "5"]) == 2
    assert "CapExceeded" in capsys.readouterr().err
    # the cap applies to that call only: the next call runs under the default
    assert main(argv) == 0
    capsys.readouterr()
    # and a modulus computed before is refused again under a lower cap
    assert main(argv + ["--cap-residue", "58"]) == 2
    assert "CapExceeded" in capsys.readouterr().err
    assert main(argv + ["--cap-residue", "59"]) == 0


def test_cli_flags_only_on_the_verbs_that_read_them():
    rejected = [
        ["field", "info", "--d", "2", "--cap-residue", "5"],
        ["field", "info", "--d", "2", "--budget", "5"],
        ["field", "info", "--d", "2", "--format", "csv"],
        ["spanning-set", "--d", "2", "--prime", "5", "--format", "csv"],
        ["spanning-set", "--d", "2", "--prime", "5", "--cap-residue", "5"],
        ["scan-primes", "--d", "2", "--prime", "5", "--format", "csv"],
    ]
    for argv in rejected:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def no_field_work(d):
    raise AssertionError("a field was built before the flags were checked")


@pytest.mark.parametrize("bad", [0, 1, 4, 9])
@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--d", "2", "--prime"],
        ["verify", "--d", "2", "--modulus-norm", "3", "--prime", "5", "--prime"],
        ["scan-primes", "--d", "2", "--prime"],
        ["spanning-set", "--d", "2", "--prime"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_refuses_a_prime_that_is_not_prime(monkeypatch, capsys, argv, bad):
    monkeypatch.setattr(cli, "real_quadratic_field", no_field_work)
    assert main(argv + [str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ValidationError: --prime {bad} is not a prime\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--d", "2", "--prime", "5", "--prime", "5"], "--prime 5"),
        (["--d", "2", "--d", "2"], "--d 2"),
        (["--d", "3", "--d", "2", "--d", "3", "--prime", "7", "--prime", "5"], "--d 3"),
    ],
)
def test_cli_verify_refuses_a_repeated_prime_or_field(monkeypatch, capsys, argv, flag):
    # a repeat would compute and print the same configurations twice
    monkeypatch.setattr(cli, "real_quadratic_field", no_field_work)
    assert main(["verify", "--modulus-norm", "2"] + argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ValidationError: {flag} is given more than once\n"


def test_cli_verify_refuses_a_modulus_norm_below_one(monkeypatch, capsys):
    # the unit ideal would be swept as the one modulus of "norm <= 0"
    monkeypatch.setattr(cli, "real_quadratic_field", no_field_work)
    for bad in ("0", "-4"):
        assert main(["verify", "--d", "2", "--modulus-norm", bad]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"ValidationError: --modulus-norm {bad} is below 1\n"


def test_cli_cap_residue_must_be_positive():
    for bad in ("0", "-3"):
        with pytest.raises(SystemExit) as exc:
            main(["invariants", "--d", "3", "--prime", "7", "--cap-residue", bad])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--d", "2", "--prime", "5"],
        ["verify", "--d", "2", "--prime", "5"],
        ["scan-primes", "--d", "2", "--prime", "5"],
        ["spanning-set", "--d", "2", "--prime", "5"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_budget_must_not_be_negative(monkeypatch, capsys, argv):
    # malformed input, refused when parsed, not a budget that ran out
    monkeypatch.setattr(cli, "real_quadratic_field", no_field_work)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--budget", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --budget: -1 is not a non-negative integer" in captured.err


def _not_plain_json(x, path="$"):
    """(path, type name) of every value below x that is not a dict, list,
    str, int or bool, by exact type: a record (a tuple) would be written as
    a list without any error."""
    if type(x) is dict:
        for k, v in x.items():
            yield from _not_plain_json(k, f"{path} key")
            yield from _not_plain_json(v, f"{path}.{k}")
    elif type(x) is list:
        for i, v in enumerate(x):
            yield from _not_plain_json(v, f"{path}[{i}]")
    elif type(x) not in (str, int, bool):
        yield path, type(x).__name__


def test_no_record_leaks_into_the_output(monkeypatch, capsys):
    dumped = []

    def dumps(obj, **kwargs):
        dumped.append(obj)
        return json.dumps(obj, **kwargs)

    # what each verb hands to json.dumps, before it is serialized
    monkeypatch.setattr(cli, "json", SimpleNamespace(dumps=dumps))
    criterion_4 = [x for d in (2, 3, 5, 6, 7, 10, 11, 13) for x in ("--d", str(d))]
    assert main(["verify", *criterion_4, "--modulus-norm", "10"]) == 0
    assert main(["invariants", "--d", "2", "--prime", "5", "--modulus-norm", "7"]) == 0
    assert main(["field", "info", "--d", "2"]) == 0
    capsys.readouterr()
    aggregate, reports, info = dumped
    assert aggregate["configurations"] == 172 and len(reports) == 2
    assert "narrow_class_number" in info
    for obj in dumped:
        assert list(_not_plain_json(obj)) == []


PINNED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


PINNED_OUTPUTS = json.loads(PINNED.read_text())["outputs"]


@pytest.mark.parametrize("argv", list(PINNED_OUTPUTS))
def test_pinned_benchmark_output_is_byte_identical(argv, capsys):
    pinned = PINNED_OUTPUTS[argv]
    code = main(argv.split())
    out = capsys.readouterr().out
    assert code == pinned["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == pinned["stdout_sha256"]


# ------------------------------------------------------- conjugate moduli
#
# In a quadratic field run_verify and the invariants verb compute one
# modulus of each conjugate pair and copy its rows to the other.  The
# tests below check the listing and the scan that this rests on, the
# copies against full computations, and how often a configuration runs.

CRITERION_4_D = (2, 3, 5, 6, 7, 10, 11, 13)
SWEEP_ARGV = "verify --d 2 --d 3 --d 5 --d 6 --d 7 --d 10 --d 11 --d 13 --modulus-norm 10"
BIG_UNIT_ARGV = "verify --d 193 --d 229 --d 249 --modulus-norm 5"


@pytest.fixture(scope="module")
def quadratic_listings():
    """(F, moduli_upto(F, 60)) of the criterion-4 fields, d = 79, 229, 1111
    and the Z[sqrt40] descriptor."""
    fields = [real_quadratic_field(d) for d in CRITERION_4_D + (79, 229, 1111)]
    fields.append(field.load_descriptor(Z_SQRT40))
    return [(F, moduli_upto(F, 60)) for F in fields]


def test_conjugation_permutes_the_listing(quadratic_listings, F2):
    listings = [(F, [a for a, _ in pairs]) for F, pairs in quadratic_listings]
    # the two split primes of norm 431 are swapped
    split = moduli_of_norm(F2, 431)
    assert len(split) == 2 and ideals.conjugate_ideal(split[0], F2) == split[1]
    for F, listing in listings + [(F2, split)]:
        images = [ideals.conjugate_ideal(a, F) for a in listing]
        assert sorted(b.hnf for b in images) == sorted(a.hnf for a in listing), F.label
        for a, b in zip(listing, images):
            assert b.norm == a.norm
            assert ideals.conjugate_ideal(b, F) == a


def test_conjugate_moduli_scan_the_same_primes(quadratic_listings):
    """compute_tp on m and sigma(m) reads the same primes and certifies the
    same ells, at p = 2, 3, 5, 7.

    N(m) = N(sigma m), so the scan skips the same primes of the shared
    rows.  At unit rank 1 E(m) is generated by a totally positive eta, of
    norm 1, so sigma(eta) = eta^-1 and E(sigma m) = sigma(E(m)) = E(m): both
    scans dot the same rows with the same exponent vectors, and so agree
    under any budget.
    """
    pairs = 0
    for F, listing in quadratic_listings:
        shared = FieldStages(F)
        for a, norm in listing:
            b = ideals.conjugate_ideal(a, F)
            if b.hnf <= a.hnf:
                continue
            pairs += 1
            images = [units.unit_image_in_modulus(F, m) for m in (a, b)]
            assert images[0].exponent_vectors == images[1].exponent_vectors
            for p in (2, 3, 5, 7):
                if norm % p == 0:
                    continue
                rows = shared.scan_rows(p)
                scans = [
                    hecke.compute_tp(units.e_units(ui, p), p, hecke.DEFAULT_BUDGET, rows)
                    for ui in images
                ]
                seen = [
                    (s.consumed, s.t_p, [phi.prime.ell for phi in s.certificate]) for s in scans
                ]
                assert seen[0] == seen[1], (F.label, a.hnf, p)
    assert pairs == 282


def full_row(shared, modulus, p, budget):
    """The sweep row of (modulus, p) computed in full, from a fresh
    ModulusStages: the oracle of a copied row."""
    hnf = [list(r) for r in modulus.hnf]
    try:
        checks, report = verify_config(ModulusStages(shared, modulus), p, budget)
    except (TorusHeckeError, ArithmeticError, ValueError) as e:
        return {
            "field": shared.field.label,
            "modulus_norm": modulus.norm,
            "modulus_hnf": hnf,
            "p": p,
            "error": f"{type(e).__name__}: {e}",
        }
    report["modulus_hnf"] = hnf
    report["checks"] = dict(checks)
    return report


def assert_no_shared_containers(rows):
    """Copied rows are copies, not aliases: no list or dict is in two rows."""
    containers = [
        id(x) for row in rows for x in (row, *row.values()) if isinstance(x, (list, dict))
    ]
    assert len(set(containers)) == len(containers)


def assert_copies_match_full_computation(sweep):
    """Every row of a modulus listed after its conjugate, copied or computed
    again after an error row, equals its full computation; no two rows share
    a list or dict.  Returns the number of rows checked."""
    code, agg = run_verify(sweep)
    assert_no_shared_containers(agg["results"])
    rows = {(r["field"], json.dumps(r["modulus_hnf"]), r["p"]): r for r in agg["results"]}
    checked = 0
    for F in sweep.fields:
        shared = FieldStages(F)
        computed = computed_moduli(F, sweep.modulus_norm_bound)
        for a, norm in moduli_upto(F, sweep.modulus_norm_bound):
            if (a, norm) in computed:
                continue
            for p in sweep.primes:
                if norm % p == 0:
                    continue
                row = rows[F.label, json.dumps([list(r) for r in a.hnf]), p]
                assert json.dumps(row) == json.dumps(full_row(shared, a, p, sweep.budget))
                checked += 1
    return code, agg, checked


@pytest.mark.parametrize("budget", [0, 1, 2, 3])
def test_copied_rows_match_full_computation_under_every_budget(budget):
    fields = tuple(real_quadratic_field(d) for d in CRITERION_4_D)
    sweep = SweepConfig(fields=fields, modulus_norm_bound=30, primes=(2, 3, 5, 7), budget=budget)
    code, agg, checked = assert_copies_match_full_computation(sweep)
    # budget 0 leaves every configuration with a positive target short
    assert code == (2 if budget == 0 else 0)
    assert agg["configurations"] == 584 and checked == 177


def test_copied_rows_match_full_computation_with_class_numbers_above_one():
    fields = tuple(real_quadratic_field(d) for d in (229, 1111, 79, 7, 10))
    sweep = SweepConfig(fields=fields, modulus_norm_bound=60, primes=(3, 5, 7))
    code, agg, checked = assert_copies_match_full_computation(sweep)
    assert code == 0 and agg["configurations"] == 837 and checked == 337


@pytest.mark.parametrize(
    "argv, calls",
    [(SWEEP_ARGV, 144), (BIG_UNIT_ARGV, 40)],
    ids=["sweep", "big-unit-fields"],
)
def test_verify_computes_one_modulus_per_conjugate_pair(monkeypatch, capsys, argv, calls):
    configs = []
    checked = cli.verify_config

    def counting_config(stages, p, budget):
        configs.append((stages.field.label, stages.modulus.hnf, p))
        return checked(stages, p, budget)

    monkeypatch.setattr(cli, "verify_config", counting_config)
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_OUTPUTS[argv]["stdout_sha256"]
    assert len(configs) == len(set(configs)) == calls


def test_a_modulus_whose_conjugate_errs_is_computed_in_full(monkeypatch, F2):
    # a fault at the first prime over 7 alone: its conjugate, listed next,
    # must not copy the error row, nor skip its own computation
    first, second = moduli_of_norm(F2, 7)
    checked = cli.verify_config
    configs = []

    def refuse_first(stages, p, budget):
        configs.append((stages.modulus, p))
        if stages.modulus == first and p == 5:
            raise CapExceeded("a fault of this modulus alone")
        return checked(stages, p, budget)

    monkeypatch.setattr(cli, "verify_config", refuse_first)
    code, agg = run_verify(SweepConfig(fields=(F2,), modulus_norm_bound=7, primes=(3, 5)))
    assert code == 2
    rows = {(r["modulus_norm"], json.dumps(r["modulus_hnf"]), r["p"]): r for r in agg["results"]}
    key = lambda a, p: (7, json.dumps([list(r) for r in a.hnf]), p)
    assert rows[key(first, 5)]["error"] == "CapExceeded: a fault of this modulus alone"
    assert "error" not in rows[key(first, 3)]
    shared = FieldStages(F2)
    for p in (3, 5):
        assert rows[key(second, p)] == full_row(shared, second, p, hecke.DEFAULT_BUDGET)
    sevens = [c for c in configs if c[0].norm == 7]
    assert sevens == [(first, 3), (first, 5), (second, 3), (second, 5)]


def test_invariants_computes_one_modulus_per_conjugate_pair(monkeypatch, capsys, F2):
    computed = []
    full = cli.run_invariants

    def counting_invariants(stages, p, budget):
        computed.append(stages.modulus)
        return full(stages, p, budget)

    rendered = []
    render = cli.render_reports

    def recording_render(reports, fmt):
        rendered.append(reports)
        return render(reports, fmt)

    monkeypatch.setattr(cli, "run_invariants", counting_invariants)
    monkeypatch.setattr(cli, "render_reports", recording_render)
    assert main(["invariants", "--d", "2", "--prime", "5", "--modulus-norm", "431"]) == 0
    reports = json.loads(capsys.readouterr().out)
    moduli = moduli_of_norm(F2, 431)
    assert computed == moduli[:1]
    assert_no_shared_containers(rendered[0])
    shared = FieldStages(F2)
    assert reports == [full(ModulusStages(shared, m), 5, hecke.DEFAULT_BUDGET) for m in moduli]


@pytest.mark.parametrize("seed", ["0", "1"])
def test_pinned_verify_output_does_not_depend_on_the_hash_seed(monkeypatch, seed):
    # the benchmark fixes PYTHONHASHSEED, a user does not; the rows of
    # computed moduli sit in a dict
    monkeypatch.setenv("PYTHONHASHSEED", seed)
    for argv in (SWEEP_ARGV, BIG_UNIT_ARGV):
        run = _run_in_a_fresh_process(argv.split())
        assert run.returncode == PINNED_OUTPUTS[argv]["exit"]
        assert hashlib.sha256(run.stdout).hexdigest() == PINNED_OUTPUTS[argv]["stdout_sha256"]
