"""repro.modules: multi-file programs and incremental recompilation.

See DESIGN.md "Modules & incremental builds" for the architecture:
:mod:`repro.modules.graph` discovers the import DAG,
:mod:`repro.modules.cache` persists per-module build products keyed by
transitive content fingerprints (a module's classes cross the cache
boundary as :mod:`repro.types.skeleton` records), and
:mod:`repro.modules.build` orchestrates the incremental build loop.
With ``--jobs N``, :mod:`repro.modules.procpool` compiles the cache
misses on forked workers, driven by one thread over the import DAG.
"""

from repro.modules.build import (BuildResult, ModuleBuild, ModuleBuilder,
                                 format_module_report)
from repro.modules.cache import (CACHE_FORMAT, ModuleCache, ModuleEntry,
                                 module_key, options_signature)
from repro.modules.graph import (FileSystemSources, MemorySources,
                                 ModuleGraph, ModuleImport, ModuleInfo,
                                 ModuleSources, scan_imports)
from repro.modules.procpool import resolve_jobs
from repro.modules.snapshot import (SNAPSHOT_FORMAT, SnapshotError,
                                    load_unit, snapshot_unit)

__all__ = [
    "BuildResult",
    "CACHE_FORMAT",
    "FileSystemSources",
    "MemorySources",
    "ModuleBuild",
    "ModuleBuilder",
    "ModuleCache",
    "ModuleEntry",
    "ModuleGraph",
    "ModuleImport",
    "ModuleInfo",
    "ModuleSources",
    "SNAPSHOT_FORMAT",
    "SnapshotError",
    "format_module_report",
    "load_unit",
    "module_key",
    "options_signature",
    "resolve_jobs",
    "scan_imports",
    "snapshot_unit",
]
