"""What the daemon's requests share: the artifact cache's key, and the
prewarm that fills the process-wide caches before the first request.

The artifact cache is content-addressed: a SHA-256 over the source,
the filename and every request option that can change a response.  A
hit is right only as far as that key covers every input; what it
leaves out (the daemon's metaprograms and ``MAYA_BACKEND``) is fixed
for the daemon's lifetime.  The cache itself is a
:class:`repro.store.LRUCache` of :data:`ARTIFACT_CACHE_SIZE` entries;
each request works in its own compile session, so nothing else a
request builds outlives it.
"""

from __future__ import annotations

import hashlib
import json
import time

#: Responses the artifact cache keeps; the least recently used is
#: evicted first.
ARTIFACT_CACHE_SIZE = 256


#: Request options that cannot change a response; ``artifact_key``
#: covers every other one, including any option added later.
NON_OUTPUT_OPTIONS = frozenset(("deadline_ms", "cache", "trace_id"))


def artifact_key(source: str, filename: str, options: dict) -> str:
    """Content address of one compile: source text, filename, and every
    option outside :data:`NON_OUTPUT_OPTIONS`."""
    relevant = {key: value for key, value in options.items()
                if key not in NON_OUTPUT_OPTIONS}
    digest = hashlib.sha256()
    digest.update(source.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(filename.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(json.dumps(relevant, sort_keys=True).encode("utf-8"))
    return digest.hexdigest()


#: What prewarm compiles: grammar extension is *content*-fingerprinted,
#: so exercising each ``use`` scope here populates the table cache for
#: every later request that imports the same metaprograms — whatever
#: its source text.
_PREWARM_SOURCE = """
    import java.util.*;
    class Prewarm {
        static void main() {
            use maya.util.ForEach;
            Vector v = new Vector();
            v.elements().foreach(String s) { System.out.println(s); }
        }
    }
"""


def prewarm() -> float:
    """Populate the process-wide caches a fresh session needs (base
    grammar singleton, macro-library tables, the ``use``-extended
    tables of the bundled macros) so the first real request is as fast
    as the thousandth.  Returns the time spent."""
    from repro import MayaCompiler

    started = time.perf_counter()
    MayaCompiler().configure({}).compile(_PREWARM_SOURCE, "<prewarm>")
    return time.perf_counter() - started
