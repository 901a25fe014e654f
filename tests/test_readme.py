"""README.md names real code: every backticked module or class attribute it
cites resolves on the package, every command and flag it cites is one the
command line declares, and its library example runs."""
import argparse
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
# `pmpd <subcommand>` at the start of a command line or a backticked span
COMMAND = re.compile(r"(?:^|`)pmpd ([a-z][\w-]*)", re.M)
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
NOT_PMPD = {"--no-build-isolation"}  # pip's


def test_every_cited_module_and_class_attribute_resolves():
    cited = CITED.findall(README)
    assert cited, "README cites no module or class attribute"
    missing = [f"{owner}.{name}" for owner, name in cited
               if not hasattr(getattr(pmpd, owner), name)]
    assert missing == []


def test_every_cited_command_and_flag_is_declared():
    (subparsers,) = [a for a in pmpd.cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    commands = subparsers.choices
    cited = set(COMMAND.findall(README))
    assert cited and cited <= commands.keys()
    declared = {flag for sub in commands.values() for flag in sub._option_string_actions}
    assert set(FLAG.findall(README)) - NOT_PMPD - declared == set()


def test_the_library_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", block], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
