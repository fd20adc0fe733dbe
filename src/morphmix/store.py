"""MXEB binary format and the directory-based embedding store.

MXEB layout: magic b"MXEB", version byte 0x01, uint32-le row count T,
uint32-le column count D, then T*D float32-le values row-major. A single
embedding is stored with T = 1; Gaussian statistics use T = D+1 rows
(row 0 the mean, rows 1..D the covariance).

read_mxeb checks only the framing: magic, version and exactly T*D float32 values.
Each typed reader's record checks the values; any fault is BadFormat naming the file.
"""

import contextlib
import json
import struct
from pathlib import Path

import numpy as np

from .errors import (BadFormat, BadId, IoFailure, MissingEmbedding, check_id, make_dirs,
                     read_bytes, read_text, record, write_atomic)
from .metrics import Embedding, GaussianStats, LatentMatrix

MAGIC = b"MXEB"
VERSION = 1


def write_mxeb(path, matrix):
    """Write a 2-D float array as an MXEB file through write_atomic: path holds the old
    file or the new one, and a failed write raises IoFailure."""
    m = np.asarray(matrix, dtype="<f4")
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array, got ndim={m.ndim}")
    write_atomic(path, MAGIC + bytes([VERSION]) + struct.pack("<II", *m.shape),
                 np.ascontiguousarray(m))


def read_mxeb(path):
    """An MXEB file's unchecked values as float64 (T, D); IoFailure, or BadFormat if mis-framed."""
    raw = read_bytes(path)
    if len(raw) < 13 or raw[:4] != MAGIC:
        raise BadFormat(f"{path}: bad magic")
    if raw[4] != VERSION:
        raise BadFormat(f"{path}: unsupported version {raw[4]}")
    t, d = struct.unpack_from("<II", raw, 5)
    size, have = 4 * t * d, len(raw) - 13
    # checked before frombuffer, so a corrupt header cannot ask for more than the file holds
    if have != size:
        raise BadFormat(f"{path}: expected {size} payload bytes, got {have}")
    values = np.frombuffer(raw, dtype="<f4", offset=13)
    with np.errstate(invalid="ignore"):  # a signalling NaN stays a NaN, for the record to reject
        return values.astype(np.float64).reshape(t, d)


def read_embedding(path):
    m = read_mxeb(path)
    if len(m) != 1:  # Embedding flattens its input, so only the reader sees rows
        raise BadFormat(f"{path}: an embedding needs 1 row, got {len(m)}")
    return record(path, Embedding, m[0])


def read_latents(path):
    return record(path, LatentMatrix, read_mxeb(path))


def write_gaussian_stats(path, stats):
    write_mxeb(path, np.vstack([stats.mean[np.newaxis, :], stats.covariance]))


def read_gaussian_stats(path):
    """Read stats from write_gaussian_stats; BadFormat for stats that GaussianStats rejects.

    The stats layout has no place for the sample count, which frechet_distance,
    the only consumer of reference stats, never reads; the result carries
    GaussianStats' default count, 2.
    """
    m = read_mxeb(path)
    return record(path, GaussianStats, m[:1], m[1:])


class EmbeddingStore:
    """Directory of <id>.mxeb files plus an index.json mapping ids to files."""

    INDEX = "index.json"

    def __init__(self, root):
        self.root = Path(root)
        self._index = {}
        # id -> its index.json line; an entry read from disk gets one at the first flush
        self._lines = {}
        self._batch_depth = 0
        index_path = self.root / self.INDEX
        try:  # exists() raises OSError for a path too long or a directory it cannot search
            indexed = index_path.exists()
        except OSError as e:
            raise IoFailure(f"{index_path}: {e}") from e
        if indexed:
            index = record(f"{index_path}: not a JSON index", json.loads, read_text(index_path))
            entries = index.get("entries") if isinstance(index, dict) else None
            if not (isinstance(entries, dict)
                    and all(isinstance(name, str) for name in entries.values())):
                raise BadFormat(f"{index_path}: no \"entries\" object of file names")
            for name in entries.values():
                check_id(name)  # BadId unless it names a file in root
            self._index = entries

    def ids(self):
        return sorted(self._index)

    def _path(self, entry_id):
        if entry_id not in self._index:
            raise MissingEmbedding(f"no store entry for id {entry_id!r}")
        return self.root / self._index[entry_id]

    def embedding(self, entry_id):
        return read_embedding(self._path(entry_id))

    def latents(self, entry_id):
        return read_latents(self._path(entry_id))

    def put(self, entry_id, matrix):
        """Write an entry and update the on-disk index (at the end of a batch() block).

        entry_id names the file <entry_id>.mxeb, so it must be a str of one
        path component, the form the index takes back from disk; anything
        else raises BadId before a byte is written.
        """
        if not isinstance(entry_id, str):
            raise BadId(f"store id must be a string, got {entry_id!r}")
        check_id(entry_id)
        if not self._batch_depth:  # batch() made the root on entry
            make_dirs(self.root)
        filename = f"{entry_id}.mxeb"
        write_mxeb(self.root / filename, matrix)
        self._index[entry_id] = filename
        self._lines[entry_id] = _index_line(entry_id, filename)
        if not self._batch_depth:
            self._flush()

    @contextlib.contextmanager
    def batch(self):
        """Write the index once, on exit, for all puts inside the block.

        The directory and a valid index exist from entry on, so the store can
        be opened meanwhile; it lists the new entries only after the block
        exits. The exit write runs even when the block raises. A nested
        batch() writes nothing itself: the outermost block's entry and exit
        writes cover it.
        """
        if not self._batch_depth:
            make_dirs(self.root)
            self._flush()
        self._batch_depth += 1
        try:
            yield self
        finally:
            self._batch_depth -= 1
            if not self._batch_depth:
                self._flush()

    def _flush(self):
        """Replace index.json atomically: readers see the old index or the new one.

        The bytes are json.dumps({"entries": sorted index}, indent=2) plus a
        newline, joined from each entry's line, so an unbatched put encodes
        only its own entry.
        """
        if len(self._lines) < len(self._index):  # the entries read from disk, once
            self._lines = {entry_id: _index_line(entry_id, name)
                           for entry_id, name in self._index.items()}
        lines = self._lines
        if not lines:
            text = '{\n  "entries": {}\n}\n'
        else:
            text = ('{\n  "entries": {\n    '
                    + ",\n    ".join([lines[entry_id] for entry_id in sorted(lines)])
                    + "\n  }\n}\n")
        write_atomic(self.root / self.INDEX, text.encode("utf-8"))


def _index_line(entry_id, name):
    """An entry as json.dumps(..., indent=2) writes it, less the indent."""
    return json.dumps(entry_id) + ": " + json.dumps(name)
