"""Run manifests: who/what/where for every campaign and ledger report.

A manifest makes two runs comparable: it stamps the exact configuration
(hashed canonically), the code version (git SHA), and the execution
environment (python version, platform, CPU count).  ``repro sweep``
writes one per campaign; the cost ledger stamps the same environment
block into its report, so a timing can be attributed to the machine it
was read on.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Any, Optional, Union

from repro.errors import ConfigError

#: Digest version stamped into manifests and used by the ``repro serve``
#: result cache: the strict type-tagged canonicalizer.
CONFIG_HASH_VERSION = 2

#: Domain-separation prefix, so the digest can never collide with a
#: plain hash of some crafted string.
_V2_PREFIX = b"repro-config-v2\x00"


def _canonical_into(obj: Any, out: list[bytes], path: str) -> None:
    """Append the type-tagged canonical encoding of ``obj`` to ``out``.

    Every scalar carries a type tag (``i``/``f``/``s``/``b``/``n``) and
    containers tag list vs tuple vs dict, so values that merely *print*
    the same (``(1, 2)`` vs ``[1, 2]``, ``1`` vs ``True`` vs ``"1"``)
    hash differently.  Anything outside the JSON-safe vocabulary —
    non-finite floats, non-string dict keys, arbitrary objects — raises
    :class:`ConfigError` naming the offending path instead of silently
    hashing a ``repr`` (which embeds memory addresses and would make the
    digest non-deterministic).
    """
    # bool is an int subclass: test it first so True/False get their own tag.
    if obj is None:
        out.append(b"n;")
    elif isinstance(obj, bool):
        out.append(b"b1;" if obj else b"b0;")
    elif isinstance(obj, int):
        out.append(b"i%d;" % obj)
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ConfigError(
                f"config value at {path} is non-finite ({obj!r}); "
                "NaN/Inf cannot be hashed canonically"
            )
        out.append(b"f%s;" % repr(obj).encode("ascii"))
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        out.append(b"s%d:" % len(data))
        out.append(data)
        out.append(b";")
    elif isinstance(obj, (list, tuple)):
        out.append((b"l" if isinstance(obj, list) else b"t") + b"%d[" % len(obj))
        for index, item in enumerate(obj):
            _canonical_into(item, out, f"{path}[{index}]")
        out.append(b"]")
    elif isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise ConfigError(
                    f"config key {key!r} at {path} is {type(key).__name__}; "
                    "canonical configs require string keys"
                )
        out.append(b"d%d{" % len(obj))
        for key in sorted(obj):
            _canonical_into(key, out, path)
            _canonical_into(obj[key], out, f"{path}.{key}")
        out.append(b"}")
    else:
        raise ConfigError(
            f"config value at {path} has type {type(obj).__name__}, which "
            "has no canonical form; convert it to JSON-safe scalars/"
            "lists/dicts before hashing"
        )


def canonical_config_bytes(config: dict[str, Any]) -> bytes:
    """The version-2 canonical byte encoding of ``config`` (the exact
    bytes the digest covers) — exposed for debugging cache misses."""
    out: list[bytes] = [_V2_PREFIX]
    _canonical_into(config, out, "$")
    return b"".join(out)


def config_hash(config: dict[str, Any]) -> str:
    """SHA-256 of the canonical form of ``config``.

    The canonicalizer is strict and type-tagged: key order never
    matters, tuples and lists hash differently, and non-finite floats /
    non-string keys / arbitrary objects raise :class:`ConfigError`
    rather than producing an unstable digest.
    """
    return hashlib.sha256(canonical_config_bytes(config)).hexdigest()


def git_sha(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The HEAD commit, or None outside a repo / without git.

    Resolved once per process and directory: every manifest (hence every
    ``ResultCache.put``) asks, forking ``git`` costs milliseconds from a
    large process, and a long-lived daemon should report the commit its
    code was loaded from, not one checked out under it later.
    """
    return _git_sha(os.getcwd() if cwd is None else os.fspath(cwd))


@functools.lru_cache(maxsize=None)
def _git_sha(cwd: str) -> Optional[str]:
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else None


def environment() -> dict[str, Any]:
    """The execution-environment block shared by manifests and the cost
    ledger's reports."""
    # Imported lazily: manifests are built from contexts (serve workers,
    # the ledger) that must not pay the sim import unless asked.
    from repro.sim import backend as _sim_backend

    return {
        "git_sha": git_sha(),
        "python_version": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        #: The engine a Simulator constructed in this process runs on.
        "sim_backend": _sim_backend.stamp(),
    }


def build_manifest(
    config: dict[str, Any],
    *,
    seed: Optional[int] = None,
    metrics: Optional[dict[str, Any]] = None,
    extra: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """Assemble a per-run manifest.

    ``config`` is the run's full parameterization (hashed into
    ``config_hash``); ``metrics`` is the final metric snapshot;
    ``extra`` merges arbitrary run outputs (campaign stats, artifact
    paths).
    """
    manifest: dict[str, Any] = {
        "schema": 1,
        "created_unix": time.time(),
        "config": config,
        "config_hash": config_hash(config),
        "config_hash_version": CONFIG_HASH_VERSION,
        "seed": seed,
        "environment": environment(),
    }
    if metrics is not None:
        manifest["metrics"] = metrics
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(manifest: dict[str, Any], path: Union[str, Path]) -> Path:
    path = Path(path)
    path.write_text(json.dumps(manifest, indent=1, sort_keys=True, default=str) + "\n")
    return path
