"""README.md names real code: every backticked module or class attribute it
cites resolves on the package, and its library example runs."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pmpd
import pmpd.cli  # noqa: F401  (the package does not import its command line)

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
# `module.name` or `Class.name` at the start of a backticked span
CITED = re.compile(r"`(quant|tinylm|schedule|learnsched|metrics|perf|cli|util|KVCache"
                   r"|ModelVariants|PrecisionSchedule|BitPlaneStore)\.(\w+)")


def test_every_cited_module_and_class_attribute_resolves():
    cited = CITED.findall(README)
    assert cited, "README cites no module or class attribute"
    missing = [f"{owner}.{name}" for owner, name in cited
               if not hasattr(getattr(pmpd, owner), name)]
    assert missing == []


def test_the_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
