"""Every check name the package produces is named in some test.

The names are collected at runtime, by running each producer of a
``CheckReport`` once on tiny inputs, so a check added to the package shows up
here without an edit.  A name that no ``tests/test_*.py`` mentions (this
file and ``tests/reference.py``, which copies the lemma suite, do not count)
has no test that shows it able to fail.
"""

import re
from pathlib import Path

import numpy as np

from qsolidtorus.analysis import decay_scan
from qsolidtorus.config import DEFAULT_GRID_N
from qsolidtorus.dirac import TruncatedAlgebraRep, algebra_sanity
from qsolidtorus.families import default_families, validate_hypotheses
from qsolidtorus.solutions import build_solution, verify_lemma_suite
from qsolidtorus.transfer import Levels, ModeIndex, limit_product, structure_check

TESTS = Path(__file__).resolve().parent


def produced_names() -> set[str]:
    w, c = default_families()
    levels = Levels(w, c, 16)
    reports = [validate_hypotheses(w, c, DEFAULT_GRID_N)]
    for m in (0, 1):
        reports.append(verify_lemma_suite(build_solution(ModeIndex(m, 0), levels)))
        reports.append(structure_check(limit_product(ModeIndex(m, 0), levels), levels))
    reports.append(decay_scan((1, 2), (0, 1), levels))
    reports.append(algebra_sanity(TruncatedAlgebraRep(0.25, 8, 4), np.random.default_rng(0), n_roundtrip=2, n_trace=5))
    return {ch.name for report in reports for ch in report.checks}


def test_every_check_name_is_named_in_a_test():
    names = produced_names()
    assert len(names) == 39
    texts = [path.read_text() for path in sorted(TESTS.glob("test_*.py")) if path.name != Path(__file__).name]
    untested = sorted(name for name in names if not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts))
    assert not untested, untested
