import json

import numpy as np
import pytest

from benflow.config import RunConfig
from benflow.dataio import parse_exact_spectrum
from benflow.demos import (
    EXAMPLE_IDS,
    frobenius_example_generator,
    resonant_spiral_set,
    run_example,
    spiral_generators,
    three_mode_set,
)
from benflow.errors import UsageError
from benflow.resonance import is_exp_b_nonresonant
from helpers import fixture_text

# a shorter horizon keeps the full registry fast; every scenario's
# expectation is scale-free enough to hold here and at the default
FAST = RunConfig(horizon=2000.0, step=1e-2)


@pytest.mark.parametrize("example_id", EXAMPLE_IDS)
def test_every_registered_example_passes(example_id):
    result = run_example(example_id, FAST)
    assert result.passed, result.details


def test_unknown_id_rejected():
    with pytest.raises(UsageError, match="unknown example"):
        run_example("ex-0-0")


def test_result_dict_shape():
    result = run_example("ex-3-8", FAST)
    data = result.to_dict()
    assert data["id"] == "ex-3-8"
    assert data["passed"] is True
    assert isinstance(data["details"], dict)


def test_ex_3_5_cubic_judged_in_base_10_whatever_the_base():
    # the cubic composite is a base-10 counterexample: --base moves only the norm check
    base10 = run_example("ex-3-5", RunConfig())
    base2 = run_example("ex-3-5", RunConfig(base=2))
    assert base2.passed, base2.details
    assert base2.details["cubic_composite_verdict"] == base10.details["cubic_composite_verdict"] == "FAIL"
    assert base2.details["cubic_max_weyl"] == base10.details["cubic_max_weyl"]
    assert abs(base10.details["cubic_max_weyl"] - 0.27) < 0.01


# `benflow example` builds its inputs in Python while `analyze-matrix` reads
# the packaged fixtures; these pin the two to each other.


def _fixture(name):
    data = json.loads(fixture_text(name))
    return np.array(data["matrix"], dtype=float), parse_exact_spectrum(data["exact_spectrum"])


def _decision(zs, b):
    verdict = is_exp_b_nonresonant(zs, b)
    w = verdict.witness
    return verdict.resonant, verdict.detail, None if w is None else (w.kind, w.q, w.p)


def _same_bits(matrix, expected):
    return matrix.shape == expected.shape and matrix.tobytes() == expected.tobytes()


@pytest.mark.parametrize("b", [2, 10])
def test_ex_3_5_fixture_matches_demo(b):
    matrix, zs = _fixture("ex-3-5.json")
    assert _same_bits(matrix, frobenius_example_generator())
    assert _decision(zs, b) == _decision(three_mode_set(b), b)


@pytest.mark.parametrize("name, index", [("ex-3-14-phi.json", 0), ("ex-3-14-psi.json", 1)])
def test_ex_3_14_fixtures_match_demo(name, index):
    matrix, zs = _fixture(name)
    assert _same_bits(matrix, spiral_generators()[index])
    decision = _decision(zs, 10)
    assert decision == _decision(resonant_spiral_set(10), 10)
    assert decision[0] and decision[2][1:] == (2, (1,))


@pytest.mark.parametrize("name, sign", [("ex-3-9.json", 1.0), ("ex-3-12-reversed.json", -1.0)])
def test_rank_one_fixtures_match_demo(name, sign):
    matrix, _ = _fixture(name)
    assert _same_bits(matrix, sign * np.array([[1.0, 1.0], [1.0, 1.0]]))
