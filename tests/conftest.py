"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import catconv


@pytest.fixture
def catconv_env():
    """The environment for ``python -m catconv`` in a subprocess.

    The directory holding the imported ``catconv`` package goes first on
    ``PYTHONPATH``, so the child runs the code under test, installed or not.
    """
    package_root = str(Path(catconv.__file__).resolve().parent.parent)
    paths = [package_root, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env
