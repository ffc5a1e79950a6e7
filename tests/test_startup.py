"""What a fresh process pays before its one report: the CLI runs exactly one
report per process, so every class built and module imported at start-up
is paid on every run."""

import ast
import subprocess
import sys

from conftest import child_env

PROBE = """
import contextlib, dataclasses, io, sys
import descriptorsim.cli as cli
classes = {value for name, module in list(sys.modules.items()) if name.startswith("descriptorsim")
           for value in vars(module).values() if isinstance(value, type) and value.__module__ == name}
loaded = ["json" in sys.modules]
for fmt in ("table", "csv", "json"):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["run", "bell", "--format", fmt]) == 0
    loaded.append("json" in sys.modules)
print(repr((sorted(c.__name__ for c in classes if dataclasses.is_dataclass(c)), len(classes), loaded)))
"""


def test_a_fresh_cli_process_builds_four_dataclasses_and_imports_json_for_json_alone():
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    dataclasses, classes, loaded = ast.literal_eval(proc.stdout)
    # the configs and reports that dataclasses.fields and dataclasses.replace are applied to
    assert dataclasses == ["BellConfig", "BellOutcome", "NonIsomorphismReport", "RunConfig"]
    assert classes > 20
    # after import, then after a table, a CSV and a JSON report
    assert loaded == [False, False, False, True]
