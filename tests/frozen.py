"""Frozen inputs for the tests that drew their examples from hypothesis.

Hypothesis (6.155) mixes literals from every loaded package module into
the examples it draws, even with ``derandomize=True``, and no setting
turns that off; so a new constant anywhere in ``src/`` moved those
tests' examples.  ``frozen_examples.json`` holds, for each such test, the
examples it drew in a full tier-1 run of hypothesis 6.155.2, and the
test now runs exactly those, each as a subtest named by its position
and its values, so that every failing example is reported on its own.

In the file a complex number is ``{"complex": [re, im]}``, a dict with
integer keys is ``{"pairs": [[key, value], ...]}``, and tuples and sets
are lists.
"""

import json
from pathlib import Path


def _decode(obj):
    if obj.keys() == {"complex"}:
        return complex(*obj["complex"])
    if obj.keys() == {"pairs"}:
        return dict(obj["pairs"])
    return obj


CASES = json.loads((Path(__file__).parent / "frozen_examples.json").read_text(),
                   object_hook=_decode)


def run_frozen(subtests, name, check):
    """``check(**example)`` for every example frozen under ``name``, one
    subtest each."""
    for i, example in enumerate(CASES[name]):
        with subtests.test(msg=f"example {i}", **example):
            check(**example)


def frozen(check):
    """A test, named like ``check``, that runs ``check(**example)`` for
    every example frozen under that name."""

    def test(subtests):
        run_frozen(subtests, check.__name__, check)

    return test
