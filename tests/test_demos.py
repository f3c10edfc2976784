"""Every demo script runs to completion against the public API."""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.filterwarnings("ignore")  # the singular demo warns by design
@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(tmp_path, script):
    # A copy, so files a demo writes beside itself land in tmp_path.
    copy = shutil.copy(script, tmp_path)
    runpy.run_path(str(copy), run_name="__main__")
