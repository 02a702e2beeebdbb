"""The demos print the same bytes: each runs in a fresh interpreter against
the beamlab package this suite imported, and its standard output is pinned
by the first 16 hex digits of its sha256."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import beamlab

DEMOS = Path(__file__).resolve().parents[1] / "demos"

PINNED_DEMO_OUTPUT = {
    "concatenation_vs_resampling": "5211117e084e5cc1",
    "greedy_runs_long": "bbda1825c8db2b55",
    "wider_beams_stop_early": "200b88c57d74801a",
}


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in DEMOS.glob("*.py")) == \
        sorted(PINNED_DEMO_OUTPUT)


@pytest.mark.parametrize("demo", sorted(PINNED_DEMO_OUTPUT))
def test_demo_output_is_pinned(tmp_path, demo):
    package_root = str(Path(beamlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / (demo + ".py"))],
                          capture_output=True, cwd=tmp_path, env=env,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest()[:16] == \
        PINNED_DEMO_OUTPUT[demo]
