"""One layer per defect class.

Every positive SL2xx and SF3xx fixture runs through the lint and flow
layers together (``check_repository`` on the fixture file).  Each must
be flagged, and all of its findings must come from one layer: a
defect reported by both simlint and simflow is one analysis too many.
"""

import textwrap

import pytest

from repro.check import check_repository
from tests.check import test_simflow, test_simlint

#: (fixture id, source); each id starts with the rule it must trigger.
FIXTURES = [
    *test_simlint.POSITIVE.items(),
    *test_simflow.POSITIVE.items(),
    *((f"{rule} mutation: {name}", source)
      for name, source, rule in test_simflow.MUTATIONS),
]


@pytest.mark.parametrize("fixture_id,source", FIXTURES,
                         ids=[f[0] for f in FIXTURES])
def test_flagged_by_exactly_one_layer(fixture_id, source, tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    diags = check_repository(tmp_path, models=False,
                             lint_targets=[path])
    rules = {d.rule for d in diags}
    assert fixture_id.split()[0] in rules, rules
    layers = {r[:2] for r in rules}  # "SL" = simlint, "SF" = simflow
    assert len(layers) == 1, f"flagged by both layers: {sorted(rules)}"
