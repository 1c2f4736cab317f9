"""Run manifests: the exact configuration behind every number.

A manifest is a small JSON-safe dict attached to every
:class:`~repro.machine.cpu.RunResult` (``result.manifest``) and
emitted as the ``run_start`` event of an obs JSONL.  It answers the
question a perf archaeologist asks first: *what exactly ran* —
engine, safety mode, encoding, the full cache
geometry, the simulator code's digest, the source tree's git sha and
the host that executed it.

Host, git and code identity are computed once per process (the git
sha by reading ``.git/HEAD`` directly — no subprocess — so building a
manifest stays in the microsecond range and sweeps of thousands of
cells can afford one per cell).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import platform
import sys
from typing import Optional

_static: Optional[dict] = None
_code_digest: Optional[str] = None

#: the parts of the ``repro`` package whose code decides what a
#: simulation computes (the harness, service, fuzz and obs layers only
#: schedule, store and report results)
CODE_PARTS = ("machine", "caches", "hardbound", "metadata", "minic",
              "isa", "baselines", "workloads", "layout.py")


def code_digest() -> str:
    """sha256 over the sources of :data:`CODE_PARTS`, in sorted path
    order (computed once per process).

    Part of every result-cache key and run manifest: a cached or
    stored result computed by different simulator code never matches.
    """
    global _code_digest
    if _code_digest is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = []
        for part in CODE_PARTS:
            path = os.path.join(root, part)
            if part.endswith(".py"):
                paths.append(path)
                continue
            for directory, _, files in os.walk(path):
                paths.extend(os.path.join(directory, name)
                             for name in files if name.endswith(".py"))
        digest = hashlib.sha256()
        for path in sorted(paths):
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(hashlib.sha256(fh.read()).digest())
        _code_digest = digest.hexdigest()
    return _code_digest


def _read_git_sha() -> Optional[str]:
    """The checked-out commit, or ``None`` outside a git tree.

    Walks up from this file looking for ``.git/HEAD`` and resolves
    one level of symbolic ref.  Never raises.
    """
    try:
        directory = os.path.dirname(os.path.abspath(__file__))
        for _ in range(8):
            head = os.path.join(directory, ".git", "HEAD")
            if os.path.isfile(head):
                with open(head) as fh:
                    ref = fh.read().strip()
                if not ref.startswith("ref:"):
                    return ref[:12] or None
                ref_path = os.path.join(directory, ".git",
                                        ref[4:].strip())
                if os.path.isfile(ref_path):
                    with open(ref_path) as fh:
                        return fh.read().strip()[:12] or None
                return None
            parent = os.path.dirname(directory)
            if parent == directory:
                break
            directory = parent
    except OSError:
        pass
    return None


def _static_identity() -> dict:
    """Process-constant manifest fields, computed once."""
    global _static
    if _static is None:
        _static = {
            "git_sha": _read_git_sha(),
            "host": platform.node(),
            "platform": platform.platform(),
            "python": "%d.%d.%d" % sys.version_info[:3],
            "code_digest": code_digest(),
        }
    return _static


def run_manifest(config, cache_params=None, label: str = "") -> dict:
    """Build the manifest for one run.

    ``config`` is a :class:`~repro.machine.config.MachineConfig`
    (duck-typed to keep this module import-light); ``cache_params``
    the :class:`~repro.caches.hierarchy.CacheParams` of the run's
    memory system, or ``None`` for functional runs.
    """
    mode = getattr(config.mode, "value", config.mode)
    factory = config.engine_factory
    manifest = {
        "label": label or getattr(config, "obs_label", ""),
        "engine": config.engine,
        "mode": str(mode),
        "encoding": config.encoding,
        "timing": config.timing,
        "check_uop": config.check_uop,
        "check_access_extent": config.check_access_extent,
        "temporal": config.temporal,
        "max_instructions": config.max_instructions,
        "engine_factory": (getattr(factory, "__name__",
                                   type(factory).__name__)
                           if factory is not None else None),
        "cache_geometry": (dataclasses.asdict(cache_params)
                           if cache_params is not None else None),
    }
    manifest.update(_static_identity())
    return manifest
