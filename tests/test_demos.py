import pytest

from benflow.config import RunConfig
from benflow.demos import EXAMPLE_IDS, run_example
from benflow.errors import UsageError

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

