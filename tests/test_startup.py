"""CLI start-up and the record types that keep it short.

Every CLI run imports ``adictower.cli`` and everything below it before
it verifies anything.  The run's records (``RunConfig``, ``Entry``,
``VerificationReport`` and ``Normalization``) are
``typing.NamedTuple`` classes, so the import stays clear of
``dataclasses`` and of what it imports in turn (``inspect``, ``ast``,
``dis``, ``tokenize``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from adictower.cli import RunConfig
from adictower.exactalg.rings import integer_ring
from adictower.fpmod.modules import cyclic_module, normalize
from adictower.verify.report import passed

SRC = Path(__file__).resolve().parents[1] / "src"
AVOIDED = ("dataclasses", "inspect", "ast", "dis", "tokenize")


def test_cli_import_leaves_out_dataclasses_and_its_imports():
    # a fresh interpreter: the test runner has imported all of them
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = (
        "import sys, adictower.cli; "
        f"print(' '.join(m for m in {AVOIDED!r} if m in sys.modules))"
    )
    run = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        stdout=subprocess.PIPE,
        check=True,
        text=True,
    )
    assert run.stdout.split() == []


def test_passed_entries_do_not_share_details():
    first, second = passed(), passed()
    first.details["checks"] = 1
    assert second.details == {}


def test_normal_forms_refuse_assignment():
    norm = normalize(cyclic_module(integer_ring(), 4))
    with pytest.raises(AttributeError):
        norm.rank = 1


def test_run_config_defaults():
    documented = {
        "ring": "z",
        "char": None,
        "ideal": "2",
        "depth": 4,
        "fmt": "text",
        "seed": 0,
        "oracle_bound": 4096,
        "horizon": 8,
        "lemma": None,
        "ml_control": False,
    }
    defaults = RunConfig()
    assert {key: getattr(defaults, key) for key in documented} == documented
