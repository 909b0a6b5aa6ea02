"""Every byte pin in ``golden.json``, run through ``hclat.cli.main`` in process.

Earlier tests in the same pytest run have filled the process-wide memos, so these runs
also show that answers served from a full memo print the bytes of a cold start.
"""

import pytest

import golden
from hclat.cli import main


def test_every_pin_has_its_own_command():
    argvs = [tuple(entry["argv"]) for entry in golden.PINS]
    assert len(set(argvs)) == len(argvs) >= 12


@pytest.mark.parametrize("entry", golden.PINS, ids=[" ".join(e["argv"]) for e in golden.PINS])
def test_pinned_output(capsys, entry):
    assert main(entry["argv"]) == 0
    assert golden.digest(entry, capsys.readouterr().out.encode()) == entry["sha256"]
