"""Every check a report can emit fails exactly when it names a counterexample.

For each check name of `verify` (and its `file-*` checks), `lemma-check`,
`table1`, `su-check` and `repro-examples`, one tampered input makes that
check fail.  The failure carries no details and a counterexample in the
report grammar: 'at <point|monomial>: <label> <v> != <label> <v>' where
one point or monomial differs, '<label> <v> != <v>' for a scalar, and
'<subject>: bent=. negabent=. != bent=. negabent=.' for classify flags.
Where nothing else reads the tampered input, only that check fails.  The
relation table's inputs are fixed by k, so its checks are failed by
flipping both classify flags of one function it classifies.
"""

import dataclasses
import json
import re

import numpy as np
import pytest

from negabench import oracle
from negabench.cli import main
from negabench.constructions import RotationSpec, base_function, construct, function_file_dict
from negabench.core import (
    AnfPolynomial,
    BitVector,
    BooleanFunction,
    VectorSet,
    characteristic_function,
    truth_table_from_anf,
)
from negabench.reference import REFERENCE_CASES
from negabench.spectra import Classification
from negabench.subspaces import GammaSpec, build_T, build_modifier_set, orbit

POINT = re.compile(r"at (\S+): (.+) (\S+) != (.+) (\S+)")
SCALAR = re.compile(r"(?!at )(.+) (\S+) != (\S+)")
FLAGS = re.compile(r"(.+): bent=(True|False) negabent=(True|False) "
                   r"!= bent=(True|False) negabent=(True|False)")

G4K = construct("G4K", GammaSpec(2, "S1", (BitVector(4, 6), BitVector(4, 9))))  # n = 8
F2RS = construct("F2RS", RotationSpec(2, (BitVector(4, 1), BitVector(4, 3))))  # n = 8
LEMMA = GammaSpec(2, "S3", tuple(BitVector.from_string(g) for g in ("1000", "1010", "0111")),
                  ("1", "0", "B"))  # n = 10
POINT_37 = 37  # off the lemma's literal-sum sample, every 16th point


def _flip(f: BooleanFunction, at: int = 85) -> BooleanFunction:
    return f ^ BooleanFunction(f.n, 1 << at)


def _shifted(monkeypatch, name, field, target, delta, at=3):
    """oracle.<name> with one stored entry moved by delta for the function `target`."""
    real = getattr(oracle, name)

    def tampered(f, *rest):
        spec = real(f, *rest)
        if f != target:
            return spec
        values = getattr(spec, field).copy()
        values[at] += delta
        return dataclasses.replace(spec, **{field: values})

    monkeypatch.setattr(oracle, name, tampered)


def _flipped_classify(monkeypatch, target: BooleanFunction):
    """oracle.classify with both flags of `target` negated."""
    real = oracle.classify

    def classify(f):
        cls = real(f)
        return Classification(not cls.is_bent, not cls.is_negabent) if f == target else cls

    monkeypatch.setattr(oracle, "classify", classify)


def _verify(cf, **changes):
    return oracle.verify_construction(dataclasses.replace(cf, **changes))


def _verify_moved(monkeypatch, name, field, delta):
    """The G4K report with one entry of its W_f or of its N_f's W_g moved."""
    _shifted(monkeypatch, name, field, G4K.function, delta)
    return _verify(G4K)


def _lemma(monkeypatch, name, field, delta):
    # the base and the masked spectra are all taken of the base h0
    _shifted(monkeypatch, name, field, base_function("h0", 2), delta, POINT_37)
    return oracle.verify_fragmentary_lemma(LEMMA)


def _overcounted(monkeypatch):
    predictor = oracle._predictor

    def overcounted(spec):
        predict = predictor(spec)

        def counted(xs):  # three more nega candidates than the S3 bound of 2 allows
            pred = predict(xs)
            return dataclasses.replace(pred, nega_matches=pred.nega_matches + 3 * (xs == POINT_37))

        return counted

    monkeypatch.setattr(oracle, "_predictor", overcounted)
    return oracle.verify_fragmentary_lemma(LEMMA)


def _wrong_definitional_sums(monkeypatch):
    real = oracle.definitional_sums

    def moved(f, us, t=None):
        w, re_, im = real(f, us, t)
        return w + 2, re_, im

    monkeypatch.setattr(oracle, "definitional_sums", moved)
    return oracle.verify_fragmentary_lemma(LEMMA)


def _table1_row(monkeypatch, target):
    _flipped_classify(monkeypatch, target)
    return oracle.check_table1(1)


def _chi(family, gamma, eset=None):
    spec = GammaSpec(1, family, (gamma,), None if eset is None else (eset,))
    return characteristic_function(build_modifier_set(spec))


def _first_sampled_table():
    rng = np.random.default_rng(20260814)
    return BooleanFunction(4, int.from_bytes(rng.bytes(2), "little"))


def _su(**changes):
    return oracle.check_su_conditions(dataclasses.replace(oracle.SU_CASES[0], **changes))


def _bit_swap(x):
    return x & ~3 | (x & 1) << 1 | (x >> 1) & 1


def _reference(**changes):
    return oracle.check_reference_case(dataclasses.replace(REFERENCE_CASES[2], **changes))


def _reference_flags(monkeypatch):
    case = REFERENCE_CASES[2]
    _flipped_classify(monkeypatch, construct(case.family, case.spec).function)
    return _reference()


def _reference_closed_anf(monkeypatch):
    real = oracle.construct
    monkeypatch.setattr(oracle, "construct", lambda family, spec: dataclasses.replace(
        real(family, spec), closed_anf=real(family, spec).closed_anf ^ AnfPolynomial(8, 1 << 3)))
    return _reference()


def _file_report(tmp_path, capsys, **changes):
    data = function_file_dict(G4K)
    data.update(changes)
    path = tmp_path / "f.json"
    path.write_text(json.dumps(data))
    code = main(["verify", "--in", str(path), "--format", "json"])
    assert code == 1
    return [oracle.CheckResult(c["name"], c["details"], c.get("counterexample"))
            for c in json.loads(capsys.readouterr().out)["checks"]]


def _flipped_digit(text):
    return ("1" if text[0] != "1" else "2") + text[1:]


# check name -> (a report with that check failed, its grammar, whether it fails alone)
CASES = {
    # verify
    "walsh-parseval": (lambda mp, tp, cs: _verify_moved(mp, "walsh_transform", "values", 2),
                       SCALAR, False),
    "nega-parseval": (lambda mp, tp, cs: _verify_moved(mp, "nega_transform", "wg", 8),
                      SCALAR, False),
    "bent": (lambda mp, tp, cs: _verify_moved(mp, "walsh_transform", "values", 2), POINT, False),
    "negabent": (lambda mp, tp, cs: _verify_moved(mp, "nega_transform", "wg", 8), POINT, False),
    "anf-matches-closed-form": (lambda mp, tp, cs: _verify(
        G4K, closed_anf=G4K.closed_anf ^ AnfPolynomial(8, 1 << 5)), POINT, True),
    "degree-parity": (lambda mp, tp, cs: _verify(
        G4K, predicts_max_degree=not G4K.predicts_max_degree), POINT, True),
    "dual-matches-closed-form": (lambda mp, tp, cs: _verify(
        G4K, closed_dual=_flip(G4K.closed_dual)), POINT, False),
    "dual-bent-negabent": (lambda mp, tp, cs: _verify(
        G4K, closed_dual=_flip(G4K.closed_dual)), POINT, False),
    "dual-involution": (lambda mp, tp, cs: _verify(G4K, function=_flip(G4K.function)),
                        POINT, False),
    "fragment-ratios-admissible": (lambda mp, tp, cs: _verify(
        G4K, modifier_set=VectorSet(8, G4K.modifier_set.mask ^ 1 << 85)), POINT, True),
    "rotation-symmetry-order": (lambda mp, tp, cs: _verify(
        F2RS, function=_flip(F2RS.function, 1)), POINT, False),
    # a negated W_f(3) keeps both flat and Parseval: the definitional sums see it
    "butterfly-matches-naive": (lambda mp, tp, cs: _verify_moved(
        mp, "walsh_transform", "values", -2 * oracle.walsh_transform(G4K.function).value(3)),
        POINT, False),
    # lemma-check
    "base-walsh-closed-form": (lambda mp, tp, cs: _lemma(mp, "walsh_transform", "values", 32),
                               POINT, True),
    "base-nega-closed-form": (lambda mp, tp, cs: _lemma(mp, "nega_transform", "wg", 64),
                              POINT, True),
    "fragment-walsh-closed-form": (lambda mp, tp, cs: _lemma(
        mp, "fragmentary_walsh_spectrum", "values", 32), POINT, True),
    "fragment-nega-closed-form": (lambda mp, tp, cs: _lemma(
        mp, "fragmentary_nega_spectrum", "wg", 64), POINT, True),
    "contribution-bounds": (lambda mp, tp, cs: _overcounted(mp), POINT, True),
    "literal-sum-agreement": (lambda mp, tp, cs: _wrong_definitional_sums(mp), POINT, True),
    # table1
    "sigma2-bent-not-negabent": (lambda mp, tp, cs: _table1_row(
        mp, base_function("sigma2", 4)), FLAGS, True),
    "g0-bent-negabent": (lambda mp, tp, cs: _table1_row(mp, base_function("g0", 1)), FLAGS, True),
    "h0-bent-negabent": (lambda mp, tp, cs: _table1_row(mp, base_function("h0", 1)), FLAGS, True),
    "f0-2rs-bent-negabent": (lambda mp, tp, cs: _table1_row(mp, base_function("f0", 1)),
                             FLAGS, True),
    "chi-s1-negabent-not-bent": (lambda mp, tp, cs: _table1_row(
        mp, _chi("S1", BitVector(2, 0))), FLAGS, True),
    "chi-s2-negabent-not-bent": (lambda mp, tp, cs: _table1_row(
        mp, _chi("S2", BitVector(4, 0))), FLAGS, True),
    "chi-s3-negabent-not-bent": (lambda mp, tp, cs: _table1_row(
        mp, _chi("S3", BitVector(2, 0), "0")), FLAGS, True),
    "chi-s4-negabent-not-bent": (lambda mp, tp, cs: _table1_row(
        mp, _chi("S4", BitVector(4, 0), "0")), FLAGS, True),
    "chi-t-rotation-symmetric-negabent-not-bent": (lambda mp, tp, cs: _table1_row(
        mp, characteristic_function(build_T(GammaSpec(1, "T", tuple(
            BitVector(2, i) for i in orbit(BitVector(2, 1))))))),
        FLAGS, True),
    "base-plus-indicator-bent-negabent": (lambda mp, tp, cs: _table1_row(
        mp, base_function("g0", 1) ^ _chi("S1", BitVector(2, 1))), FLAGS, True),
    "named-sigma2-sums": (lambda mp, tp, cs: _table1_row(
        mp, base_function("g0", 1) ^ base_function("sigma2", 4)), SCALAR, True),
    "sigma2-exchange-sampled": (lambda mp, tp, cs: _table1_row(mp, _first_sampled_table()),
                                FLAGS, True),
    # su-check
    "mm-shape-matches-base": (lambda mp, tp, cs: _su(phi=_flip(oracle.SU_CASES[0].phi, 0)),
                              POINT, True),
    "pi-linear-permutation": (lambda mp, tp, cs: _su(pi=(0, 2, 1, *range(3, 16))), POINT, False),
    "pi-fixes-dual-subspace": (lambda mp, tp, cs: _su(pi=tuple(map(_bit_swap, range(16)))),
                               SCALAR, False),
    "coset-constancy-fails": (lambda mp, tp, cs: _su(alpha=2), SCALAR, True),
    # repro-examples
    "anf-terms-match": (lambda mp, tp, cs: _reference(expected_terms=frozenset(
        sorted(REFERENCE_CASES[2].expected_terms)[1:])), POINT, True),
    "closed-anf-agrees": (lambda mp, tp, cs: _reference_closed_anf(mp), POINT, True),
    "degree": (lambda mp, tp, cs: _reference(expected_degree=5), SCALAR, True),
    "bent-negabent": (lambda mp, tp, cs: _reference_flags(mp), FLAGS, True),
    "rotation-order": (lambda mp, tp, cs: _reference(expected_rotation_order=4), SCALAR, True),
    # verify --in
    "file-n-matches-family": (lambda mp, tp, cs: _file_report(tp, cs, n=10, tt_hex="0" * 256),
                              SCALAR, True),
    "file-anf-field-matches-closed-form": (lambda mp, tp, cs: _file_report(tp, cs, anf="x0"),
                                           POINT, True),
    "file-dual-field-matches-closed-form": (lambda mp, tp, cs: _file_report(
        tp, cs, dual_tt_hex=_flipped_digit(G4K.closed_dual.to_hex())), POINT, True),
    "file-degree-flag-matches-parity": (lambda mp, tp, cs: _file_report(
        tp, cs, predicts_max_degree=not G4K.predicts_max_degree), SCALAR, True),
}


def _emitted_names(tmp_path, capsys):
    """Every check name the passing reports emit, the file checks included."""
    reports = [oracle.verify_construction(G4K), oracle.verify_construction(F2RS),
               oracle.verify_fragmentary_lemma(LEMMA), oracle.check_table1(1),
               *map(oracle.check_su_conditions, oracle.SU_CASES),
               *map(oracle.check_reference_case, REFERENCE_CASES)]
    names = {c.name for r in reports for c in r.checks}
    record = tmp_path / "ok.json"
    record.write_text(json.dumps(function_file_dict(G4K)))
    assert main(["verify", "--in", str(record), "--format", "json"]) == 0
    names |= {c["name"] for c in json.loads(capsys.readouterr().out)["checks"]}
    return names | {"file-n-matches-family"}  # emitted alone, when n is wrong


def test_every_emitted_check_name_has_a_case(tmp_path, capsys):
    assert _emitted_names(tmp_path, capsys) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_failure_names_a_counterexample(monkeypatch, tmp_path, capsys, name):
    make, grammar, alone = CASES[name]
    report = make(monkeypatch, tmp_path, capsys)
    checks = report if isinstance(report, list) else list(report.checks)
    failed = {c.name: c for c in checks if not c.passed}
    assert name in failed, [c.name for c in checks]
    check = failed[name]
    assert check.details == ""
    assert check.counterexample
    for part in check.counterexample.split("; "):  # dual-bent-negabent joins W's and N's
        match = grammar.fullmatch(part)
        assert match, part
        values = match.groups()[-2:] if grammar is not POINT else match.group(3, 5)
        assert all(values), part
    if alone:
        assert set(failed) == {name}
    for c in checks:  # a check passes exactly when it names no counterexample
        assert c.passed == (c.counterexample is None)
        assert c.passed or not c.details


def test_frame_check_names_both_nega_pairs():
    # f1 = f0 + x0 x1 keeps |W_f1| flat, so every Walsh ratio is admissible,
    # but its nega spectrum is not a quarter turn of f0's at u = 0
    quadratic = truth_table_from_anf(AnfPolynomial(8, 1 << 0b11))
    check = next(c for c in _verify(G4K, modifier_set=quadratic.support()).failures())
    assert check.name == "fragment-ratios-admissible"
    g0, g1 = (oracle.nega_transform(f).wg for f in (G4K.base, G4K.base ^ quadratic))
    assert check.counterexample == (f"at 00000000: (W_g1,W_g1') ({g1[0]},{g1[255]}) != "
                                    f"a quarter turn of (W_g0,W_g0') ({g0[0]},{g0[255]})")


def test_frame_check_names_the_point_where_the_base_is_not_flat():
    # the kept base is f0 itself, so a base of degree 8 fails the frame check
    # at its top monomial, and a quadratic one that is not bent at u = 0
    check = next(c for c in _verify(G4K, base=_flip(G4K.base, 0)).failures())
    assert check.name == "fragment-ratios-admissible"
    assert check.counterexample == ("fragment ratios need a quadratic base: "
                                    "at x0*x1*x2*x3*x4*x5*x6*x7: degree 8 != quadratic <=2")
    assert POINT.fullmatch(check.counterexample.removeprefix("fragment ratios need a quadratic base: "))
    check = next(c for c in _verify(G4K, base=BooleanFunction(8, 0)).failures()
                 if c.name == "fragment-ratios-admissible")
    assert check.counterexample == "fragment ratios need a bent base: at 00000000: |W| 256 != flat |W| 16"


def test_rotation_order_one_is_named():
    # a constant is fixed by every rotation, so its order is 1, not 2
    report = _verify(F2RS, function=BooleanFunction(8, 0))
    check = next(c for c in report.failures() if c.name == "rotation-symmetry-order")
    assert check.counterexample == "rotation order 1 != 2"


def test_table1_rotation_rows_name_the_order(monkeypatch):
    # every classify flag holds, so only the three rows that ask an order fail
    monkeypatch.setattr(oracle, "rotation_symmetry_order", lambda f: 3)
    report = oracle.check_table1(1)
    assert [(c.name, c.counterexample) for c in report.failures()] == [
        ("f0-2rs-bent-negabent", "f0 rotation order 3 != 2"),
        ("chi-t-rotation-symmetric-negabent-not-bent",
         "T gammas ['10', '01'] rotation order 3 != 1"),
        ("base-plus-indicator-bent-negabent", "f0 + T indicator rotation order 3 != 2"),
    ]


def test_degree_parity_names_a_top_monomial_without_listing(monkeypatch):
    text = AnfPolynomial.to_text

    def one_term(self):
        assert self.term_count() == 1, "every monomial listed"
        return text(self)

    monkeypatch.setattr(AnfPolynomial, "to_text", one_term)
    check = next(c for c in _verify(G4K, predicts_max_degree=True).failures())
    top = oracle.anf_from_truth_table(G4K.function).top_term()
    assert top.bit_count() == 3
    assert check.counterexample == (
        f"at {AnfPolynomial(8, 1 << top).to_text()}: degree 3 != flag predicts 4")
