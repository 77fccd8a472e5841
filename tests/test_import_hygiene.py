"""What ``import repro`` pulls in.

The package declares numpy as its only runtime dependency, so importing
it and building the scenario registry must not load anything heavier.
networkx in particular is a test-only dependency (the structure tests
use it as an independent reference); the workflow model computes its DAG
queries itself.  A fresh interpreter keeps this test independent of
whatever the rest of the suite has imported.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def test_import_and_registry_leave_networkx_unloaded():
    code = (
        "import json, sys\n"
        "import repro\n"
        "from repro.experiments.registry import default_registry\n"
        "default_registry()\n"
        "print(json.dumps('networkx' in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env,
    )
    assert json.loads(out.stdout.strip().splitlines()[-1]) is False
