"""Every row of ``tests/repin.py``'s ``PINS`` reproduces its file, and the
table has teeth: a flipped byte fails exactly its row, each planted bug of
:mod:`repro.testkit.bugs` moves exactly the alerts its oracle violations
name, and the real pipeline moves none.
"""

import functools
import re
import shutil

import pytest

from tests.repin import DATA, PINS, ROOT, fate_diff, fate_table, fates
from tests.test_oracle_corpus import CASES


@functools.cache
def produced(pin):
    return pin.produce()


@pytest.mark.parametrize("pin", PINS, ids=lambda pin: pin.name)
def test_row_bytes_equal_file(pin):
    assert (DATA / pin.path).read_text() == produced(pin), (
        f"{pin.name} moved: re-pin with `python tests/repin.py --write` and "
        "review `python tests/repin.py --diff <parent>`"
    )


def test_flipping_a_byte_fails_exactly_that_row(tmp_path):
    shutil.copytree(DATA, tmp_path, dirs_exist_ok=True)
    for pin in PINS:
        path = tmp_path / pin.path
        original = path.read_bytes()
        middle = len(original) // 2
        flipped = bytes([original[middle] ^ 1])
        path.write_bytes(original[:middle] + flipped + original[middle + 1:])
        stale = [row.name for row in PINS
                 if (tmp_path / row.path).read_text() != produced(row)]
        assert stale == [pin.name]
        path.write_bytes(original)


@pytest.fixture(scope="module")
def real_outage():
    return fate_table({"total_outage": CASES["total_outage:real"]})


@pytest.mark.parametrize(
    "bug", ["silent_drop", "drop_retry", "abandon_amnesia"]
)
def test_a_planted_bug_moves_exactly_the_alerts_it_breaks(bug, real_outage):
    report, by_id = fates(CASES[f"total_outage:{bug}"])
    planted = {"total_outage": list(map(list, by_id.values()))}
    moved = {row[1] for row in fate_diff(real_outage, planted)}
    found = report.oracle.violations + report.oracle.trace_violations
    assert moved
    assert moved == {by_id[v.alert_id][0] for v in found if v.alert_id}


def test_the_real_pipeline_moves_nothing(real_outage):
    again = fate_table({"total_outage": CASES["total_outage:real"]})
    assert fate_diff(real_outage, again) == []


def test_design_table_lists_exactly_the_pins():
    design = (ROOT / "DESIGN.md").read_text()
    section = design[design.index("### Pinned behaviour"):]
    section = section[:section.index("\n#")]
    rows = re.findall(r"^\| `([\w:]+)` \| `([\w/.]+)` \|", section, re.M)
    assert rows == [(pin.name, pin.path) for pin in PINS]
