"""Persistent cache for integral configuration-space tables; only :mod:`polystab.spaces` uses it.

One file per k, holding H_*(C_k; sign) over Z, the one table the summands
need; the file name and the document still say ``sign``.  Files are JSON
beginning with a format/version tag, k and the system; writes go through a
temporary file and an atomic rename so concurrent readers never see a
partial entry.  Anything unreadable is treated as a miss (corrupt entries
additionally warn) and gets recomputed; an entry that is not UTF-8, not JSON,
nested too deep for the parser or not an object of integers, or whose k,
system, degrees, Euler characteristic or torsion cannot belong to its file,
counts as corrupt.  Nothing is held in memory: every read validates its file.
"""

from __future__ import annotations

import json
import os
import warnings
from math import prod
from pathlib import Path

from .abelian import GradedAbelianGroup
from .rings import SIGN, is_prime

CACHE_FORMAT = "polystab-braid-homology"
CACHE_VERSION = 1
ENV_CACHE_DIR = "POLYSTAB_CACHE"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    if xdg:
        return Path(xdg) / "polystab"
    try:
        return Path.home() / ".cache" / "polystab"
    except RuntimeError:  # no HOME, and no password entry for the uid
        raise OSError(f"no home directory for the cache: pass --cache-dir or set {ENV_CACHE_DIR}") from None


def _check_table(k: int, table: GradedAbelianGroup) -> None:
    """Reject a table that cannot be H_*(C_k; sign).

    The cell model has binomial(k-1, i) cells in degree i, so the homology
    lives in degrees 0..k-1 and its Euler characteristic is 1 for k = 1 and 0
    for k >= 2, whatever the coefficient system.  Its torsion has exponent p (F.
    Cohen) and no prime above k (transfer), so each order divides prod(p <= k).
    """
    if any(not 0 <= d < k for d in table.degrees()):
        raise ValueError(f"degrees {table.degrees()} outside 0..{k - 1}")
    primorial = prod(p for p in range(2, k + 1) if is_prime(p))
    if bad := [t for d in table.degrees() for t in table.group(d).torsion if primorial % t]:
        raise ValueError(f"torsion order {bad[0]} is impossible for k={k}")
    euler = sum((-1) ** d * table.free_rank(d) for d in table.degrees())
    if euler != (1 if k == 1 else 0):
        raise ValueError(f"Euler characteristic {euler} is impossible for k={k}")


class HomologyCache:
    """Directory of the integral sign tables by k; each ``get`` reads and checks its file."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)

    def path_for(self, k: int) -> Path:
        return self.directory / f"braid_v{CACHE_VERSION}_k{k}_{SIGN}.json"

    def get(self, k: int) -> GradedAbelianGroup | None:
        path = self.path_for(k)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            doc = json.loads(raw.decode("utf-8"))  # bytes that are not UTF-8 raise a ValueError here
            if not isinstance(doc, dict) or doc.get("format") != CACHE_FORMAT:
                raise ValueError("not a JSON object with the expected format tag")
            if doc.get("version") != CACHE_VERSION:
                return None  # version mismatch is a plain miss
            if doc.get("k") != k or doc.get("system") != SIGN:
                raise ValueError("key mismatch")
            if not isinstance(doc["homology"], dict):
                raise ValueError("the table is not a JSON object")
            value = GradedAbelianGroup.from_payload(doc["homology"])
            _check_table(k, value)
        except (ValueError, KeyError, TypeError, RecursionError) as exc:  # RecursionError: JSON nested too deep
            warnings.warn(f"discarding corrupted cache entry {path}: {exc}")
            return None
        return value

    def put(self, k: int, value: GradedAbelianGroup) -> None:
        import tempfile  # only a cache write needs it: a read or a field table skips its ~4 ms import
        self.directory.mkdir(parents=True, exist_ok=True)
        doc = {
            "format": CACHE_FORMAT,
            "version": CACHE_VERSION,
            "k": k,
            "system": SIGN,
            "homology": value.to_payload(),
        }
        path = self.path_for(k)
        fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _entries(self, pattern: str = "braid_v*_k*_*.json") -> list[Path]:
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob(pattern))

    def stats(self) -> dict:
        entries = self._entries()
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "bytes": sum(p.stat().st_size for p in entries),
        }

    def clear(self) -> int:
        removed = 0
        for path in self._entries() + self._entries("braid_v*_k*_*.json*.tmp"):  # + temp files of killed puts
            try:
                path.unlink()
                removed += path.suffix == ".json"  # the count is of entries
            except OSError:
                pass
        return removed
