"""Shared fixtures."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import confalg

# the directory that holds the imported confalg package, so a child process
# imports the same source tree as this one, installed or not
_PACKAGE_ROOT = str(Path(confalg.__file__).resolve().parents[1])


@pytest.fixture
def run_cli():
    """Spawn the command line in a child of this interpreter.

    ``run_cli(*argv)`` runs ``sys.executable -m confalg.cli *argv`` and
    returns the ``CompletedProcess`` with text stdout and stderr. The
    child inherits this environment, with the package root prepended to
    ``PYTHONPATH``; no ``confalg`` script on PATH is needed. ``launcher``
    replaces the ``-m confalg.cli`` interpreter arguments, and ``env`` is a
    mapping merged over the inherited environment.
    """
    base_env = dict(os.environ)
    base_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_PACKAGE_ROOT, base_env.get("PYTHONPATH")) if p
    )

    def run(*argv, launcher=("-m", "confalg.cli"), env=None, timeout=600):
        return subprocess.run(
            (sys.executable, *launcher, *argv),
            capture_output=True,
            text=True,
            timeout=timeout,
            env={**base_env, **(env or {})},
        )

    return run
