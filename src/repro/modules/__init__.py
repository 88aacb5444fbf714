"""repro.modules: multi-file programs and incremental recompilation.

See DESIGN.md "Modules & incremental builds" for the architecture:
:mod:`repro.modules.graph` discovers the import DAG,
:mod:`repro.modules.cache` persists per-module build products keyed by
transitive content fingerprints, :mod:`repro.modules.iface` carries
class skeletons across the cache boundary, and
:mod:`repro.modules.build` orchestrates the incremental build loop.
"""

from repro.modules.build import (BuildResult, ModuleBuild, ModuleBuilder,
                                 format_module_report)
from repro.modules.cache import (CACHE_FORMAT, ModuleCache, ModuleEntry,
                                 module_key, options_signature)
from repro.modules.graph import (FileSystemSources, MemorySources,
                                 ModuleGraph, ModuleImport, ModuleInfo,
                                 ModuleSources, scan_imports)
from repro.modules.iface import (export_interface, restore_interface,
                                 validate_interface)
from repro.modules.schedule import DagScheduler, resolve_jobs
from repro.modules.snapshot import (SNAPSHOT_FORMAT, SnapshotError,
                                    load_unit, snapshot_unit)

__all__ = [
    "BuildResult",
    "CACHE_FORMAT",
    "DagScheduler",
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
    "export_interface",
    "format_module_report",
    "load_unit",
    "module_key",
    "options_signature",
    "resolve_jobs",
    "restore_interface",
    "scan_imports",
    "snapshot_unit",
    "validate_interface",
]
