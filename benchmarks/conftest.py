"""Shared benchmark helpers.

Every benchmark regenerates a paper artifact (see DESIGN.md's
experiment index) and prints the rows it reproduces, so EXPERIMENTS.md
can quote them; pytest-benchmark adds the timing table.

Results are additionally written as machine-readable JSON: every
``report``/``record_metric`` call lands in ``BENCH_<area>.json`` at the
repository root (area = the calling ``bench_<area>.py`` file), so the
performance trajectory is tracked across PRs instead of living only in
scrollback.  A run merges its reports and metrics into the file, so a
partial run (``-k``, one file) rewrites only the rows it measured.
"""

import atexit
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

#: The benchmarks' persistent LALR table store: a scratch directory
#: for the run, so a "cold" measurement never restores tables an
#: earlier run left under ``~/.cache``, and nothing is written there.
TABLE_STORE = tempfile.mkdtemp(prefix="maya-bench-cache-")
os.environ["MAYA_CACHE_DIR"] = TABLE_STORE
atexit.register(shutil.rmtree, TABLE_STORE, ignore_errors=True)

from repro import MayaCompiler
from repro.interp import Interpreter
from repro.lalr.tables import enable_disk_cache
from repro.macros import install_macro_library
from repro.multijava import install_multijava

enable_disk_cache(TABLE_STORE)  # in case repro was imported first

_REPO_ROOT = Path(__file__).resolve().parent.parent

# area -> {"reports": {title: rows}, "metrics": {name: {...}}}
_RESULTS = {}


def make_compiler(macros: bool = False, multijava: bool = False) -> MayaCompiler:
    compiler = MayaCompiler()
    if macros:
        install_macro_library(compiler)
    if multijava:
        install_multijava(compiler)
    return compiler


def compile_and_run(source: str, cls: str = "Demo", macros: bool = False,
                    multijava: bool = False) -> Interpreter:
    program = make_compiler(macros, multijava).compile(source)
    interp = Interpreter(program)
    interp.run_static(cls)
    return interp


def _caller_area(depth: int = 2) -> str:
    """The bench area of the calling module: bench_<area>.py -> <area>."""
    filename = Path(sys._getframe(depth).f_code.co_filename).stem
    if filename.startswith("bench_"):
        return filename[len("bench_"):]
    return filename


def _area_results(area: str) -> dict:
    return _RESULTS.setdefault(area, {"reports": {}, "metrics": {}})


def report(title: str, rows, header=None, area: str = None) -> None:
    print()
    print(f"== {title} ==")
    if header:
        print("  " + " | ".join(str(h) for h in header))
    for row in rows:
        print("  " + " | ".join(str(cell) for cell in row))
    entry = {"rows": [[str(cell) for cell in row] for row in rows]}
    if header:
        entry["header"] = [str(h) for h in header]
    _area_results(area or _caller_area())["reports"][title] = entry


def record_metric(name: str, value, unit: str = "", area: str = None) -> None:
    """Record one machine-readable number for BENCH_<area>.json."""
    _area_results(area or _caller_area())["metrics"][name] = {
        "value": value,
        "unit": unit,
    }


@atexit.register
def _flush_results() -> None:
    for area, payload in _RESULTS.items():
        path = _REPO_ROOT / f"BENCH_{area}.json"
        try:
            merged = json.loads(path.read_text())
        except (OSError, ValueError):
            merged = {}
        for section, rows in payload.items():
            merged.setdefault(section, {}).update(rows)
        try:
            path.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")
        except OSError:
            pass
