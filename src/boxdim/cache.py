"""On-disk cache for Cayley graph adjacency and distance tables.

Rebuilding a quotient graph is pure BFS, so the only thing worth keeping
is the adjacency table and the distance field; vertex coordinates are
recomputed from the mixed-radix vertex order on load.  Files are
self-describing:

    magic   4 bytes  b"BXDM"
    version u32      format version, currently 1
    digest  32 bytes sha256 of the cache key (group, modulus, generators)
    V       u64      vertex count
    degree  u32      adjacency columns (2g)
    adjacency V*degree int32 little endian, row major
    dist      V int32 little endian

A file that fails any header or size check is treated as a miss and
removed; the cache never lets a stale entry reach the caller.
"""
import hashlib
import os
import struct
from pathlib import Path

import numpy as np

from .cayley import CayleyGraph, quotient_coords
from .errors import ConfigError
from .groups import CongruenceQuotient, flatten

MAGIC = b"BXDM"
VERSION = 1
_HEADER = struct.Struct("<4sI32sQI")


def cache_key(quotient: CongruenceQuotient, generators) -> str:
    gens = ";".join(",".join(str(c) for c in flatten(quotient.spec, g))
                    for g in generators)
    return f"{quotient.spec.describe()}|m={quotient.modulus}|gens={gens}"


class GraphCache:
    """Content-addressed graph store with mtime-based LRU eviction."""

    suffix = ".bxdm"

    def __init__(self, directory):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, digest: bytes) -> Path:
        return self.directory / (digest.hex() + self.suffix)

    def load(self, quotient: CongruenceQuotient, generators) -> CayleyGraph | None:
        digest = hashlib.sha256(cache_key(quotient, generators).encode()).digest()
        path = self._path(digest)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        graph = self._decode(raw, digest, quotient, tuple(generators))
        if graph is None:
            # corrupt or mismatched entry; drop it so gc bookkeeping stays honest
            path.unlink(missing_ok=True)
            return None
        os.utime(path)   # refresh LRU position
        return graph

    def _decode(self, raw, digest, quotient, generators):
        if len(raw) < _HEADER.size:
            return None
        magic, version, stored, n, degree = _HEADER.unpack_from(raw)
        if magic != MAGIC or version != VERSION or stored != digest:
            return None
        if n != quotient.order or degree != 2 * len(generators):
            return None
        body = memoryview(raw)[_HEADER.size:]
        want = (n * degree + n) * 4
        if len(body) != want:
            return None
        adjacency = np.frombuffer(body[:n * degree * 4], dtype="<i4").reshape(n, degree)
        dist = np.frombuffer(body[n * degree * 4:], dtype="<i4")
        if adjacency.size and (adjacency.min() < 0 or adjacency.max() >= n):
            return None
        return CayleyGraph(quotient=quotient, generators=generators,
                           coords=quotient_coords(quotient),
                           adjacency=np.ascontiguousarray(adjacency.astype(np.int32)),
                           dist=dist.astype(np.int32))

    def store(self, graph: CayleyGraph) -> Path:
        digest = hashlib.sha256(
            cache_key(graph.quotient, graph.generators).encode()).digest()
        header = _HEADER.pack(MAGIC, VERSION, digest,
                              graph.n_vertices, graph.degree)
        payload = (header
                   + np.ascontiguousarray(graph.adjacency, dtype="<i4").tobytes()
                   + np.ascontiguousarray(graph.dist, dtype="<i4").tobytes())
        path = self._path(digest)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_bytes(payload)
        os.replace(tmp, path)   # readers never see a torn file
        return path

    def entries(self):
        """(path, mtime, size) for every cache file, oldest first."""
        out = []
        for p in self.directory.glob("*" + self.suffix):
            st = p.stat()
            out.append((p, st.st_mtime, st.st_size))
        out.sort(key=lambda t: (t[1], t[0].name))
        return out

    def gc(self, budget_bytes: int):
        """Evict least-recently-used files until the rest fit the budget.

        Returns (kept_files, deleted_files, freed_bytes).
        """
        if budget_bytes < 0:
            raise ConfigError(f"cache budget must be >= 0, got {budget_bytes}")
        entries = self.entries()
        total = sum(size for _, _, size in entries)
        deleted = 0
        freed = 0
        for path, _, size in entries:
            if total <= budget_bytes:
                break
            path.unlink(missing_ok=True)
            total -= size
            deleted += 1
            freed += size
        return (len(entries) - deleted, deleted, freed)
