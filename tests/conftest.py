"""Shared test helpers."""

import gc
import os
import shutil
import tempfile

import pytest

#: The persistent LALR table store of the whole session: one scratch
#: directory, for this process (``_DISK.directory``) and for every
#: subprocess a test starts (``MAYA_CACHE_DIR``), so no test writes
#: under the real ``~/.cache``.  A test that must see tables generated
#: points the store at its own empty directory.
TABLE_STORE = tempfile.mkdtemp(prefix="maya-test-cache-")
os.environ["MAYA_CACHE_DIR"] = TABLE_STORE


def pytest_addoption(parser):
    parser.addoption(
        "--update-goldens", action="store_true", default=False,
        help="rewrite tests/golden/ snapshots from current expansions",
    )


def pytest_unconfigure(config):
    shutil.rmtree(TABLE_STORE, ignore_errors=True)

from repro import MayaCompiler
from repro.lalr.tables import enable_disk_cache
from repro.interp import Interpreter
from repro.macros import install_macro_library
from repro.multijava import install_multijava
from repro.obs.metrics import CACHE_EVENTS

enable_disk_cache(TABLE_STORE)  # in case repro was imported first


def cache_events(cache: str, event: str) -> int:
    """One cache's ``event`` count so far (hit, miss, eviction, ...)."""
    return CACHE_EVENTS.labels(cache, event).value


def corrupt_entries(cache: str) -> int:
    """Entries of one on-disk cache quarantined as corrupt so far."""
    return cache_events(cache, "corrupt")


def cyclic_garbage(make, keep: bool = False) -> int:
    """Objects only the cyclic collector frees, once ``make()``'s
    result is dropped, or with ``keep`` while it is still alive.  The
    automatic collector stays off from before ``make`` runs until the
    census is taken, so garbage it drops midway counts too."""
    gc.collect()
    gc.disable()
    try:
        made = make()
        if not keep:
            del made
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    gc.collect()
    return found


def make_compiler(macros: bool = False, multijava: bool = False) -> MayaCompiler:
    compiler = MayaCompiler()
    if macros:
        install_macro_library(compiler)
    if multijava:
        install_multijava(compiler)
    return compiler


def compile_source(source: str, macros: bool = False, multijava: bool = False):
    return make_compiler(macros, multijava).compile(source)


def run_main(source: str, cls: str = "Demo", macros: bool = False,
             multijava: bool = False):
    """Compile, run ``cls.main()``, and return the printed lines."""
    program = compile_source(source, macros, multijava)
    interp = Interpreter(program)
    interp.run_static(cls)
    return interp.output


@pytest.fixture
def compiler():
    return make_compiler()


@pytest.fixture
def macro_compiler():
    return make_compiler(macros=True)


@pytest.fixture
def mj_compiler():
    return make_compiler(multijava=True)
