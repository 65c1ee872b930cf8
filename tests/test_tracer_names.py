"""The benchmark tracer finds every entry point it wraps.

``perfbench/worker.py`` times the layers by replacing names on the
modules that look them up. A name that the package no longer offers is
silently left untraced, so removing one here fails the suite, not only
the benchmark smoke run. The install runs in a subprocess: it sets the
thread caps in the environment and patches the imported modules.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

INSTALL = """
import json, sys
sys.path.insert(0, "perfbench")
import worker
sdg = worker.import_sdgflow()
tracer = worker.Tracer()
worker.install(tracer, sdg, traced=True)
print(json.dumps({"missing": tracer.missing, "installed": sorted(tracer.installed)}))
"""


def test_tracer_wraps_every_name():
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["missing"] == []
    assert "spaces.tables" in result["installed"]
