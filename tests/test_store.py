import contextlib
import json
import os
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphmix import errors, store as store_mod
from morphmix.metrics import Embedding, GaussianStats, frechet_distance, gaussian_stats
from morphmix.store import (
    EmbeddingStore,
    read_embedding,
    read_gaussian_stats,
    read_latents,
    read_mxeb,
    write_gaussian_stats,
    write_mxeb,
)

from conftest import run_python


def test_mxeb_header_layout(tmp_path):
    path = tmp_path / "m.mxeb"
    write_mxeb(path, np.arange(6, dtype=np.float32).reshape(2, 3))
    raw = path.read_bytes()
    assert raw[:4] == b"MXEB"
    assert raw[4] == 1
    assert struct.unpack("<II", raw[5:13]) == (2, 3)
    vals = np.frombuffer(raw[13:], dtype="<f4")
    assert np.array_equal(vals, np.arange(6, dtype=np.float32))


def test_mxeb_roundtrip(tmp_path, rng):
    path = tmp_path / "m.mxeb"
    m = rng.normal(size=(7, 5)).astype(np.float32)
    write_mxeb(path, m)
    assert np.array_equal(read_mxeb(path), m.astype(np.float64))


@pytest.mark.parametrize("shape", [(3,), (1, 2, 3)])
def test_write_mxeb_takes_only_a_2d_array(tmp_path, shape):
    with pytest.raises(ValueError, match="2-D"):
        write_mxeb(tmp_path / "m.mxeb", np.zeros(shape))
    assert not (tmp_path / "m.mxeb").exists()


def test_embedding_roundtrip(tmp_path, rng):
    path = tmp_path / "e.mxeb"
    e = Embedding(rng.normal(size=12).astype(np.float32))
    write_mxeb(path, e.values[np.newaxis, :])
    loaded = read_embedding(path)
    assert np.array_equal(loaded.values, e.values)


def test_gaussian_stats_roundtrip(tmp_path, rng):
    stats = gaussian_stats([Embedding(rng.normal(size=6).astype(np.float32)) for _ in range(10)])
    path = tmp_path / "s.mxeb"
    write_gaussian_stats(path, stats)
    loaded = read_gaussian_stats(path)
    assert np.allclose(loaded.mean, stats.mean, atol=1e-6)
    assert np.allclose(loaded.covariance, stats.covariance, atol=1e-6)


def test_bad_magic(tmp_path):
    path = tmp_path / "x.mxeb"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(errors.BadFormat):
        read_mxeb(path)


def test_short_payload(tmp_path):
    path = tmp_path / "x.mxeb"
    path.write_bytes(b"MXEB" + bytes([1]) + struct.pack("<II", 4, 4) + b"\x00" * 8)
    with pytest.raises(errors.BadFormat):
        read_mxeb(path)


@pytest.mark.parametrize("rows_cols", [(65536, 65536), (0xFFFFFFFF, 0xFFFFFFFF)])
def test_huge_header_is_bad_format_before_reading(tmp_path, rows_cols):
    # a 13-byte file declaring 16 GiB (or more than fits in a size_t) of payload
    path = tmp_path / "x.mxeb"
    path.write_bytes(b"MXEB" + bytes([1]) + struct.pack("<II", *rows_cols))
    with pytest.raises(errors.BadFormat, match="got 0"):
        read_mxeb(path)


def test_trailing_payload_is_bad_format(tmp_path):
    path = tmp_path / "x.mxeb"
    write_mxeb(path, np.ones((2, 3)))
    path.write_bytes(path.read_bytes() + b"\x00" * 4)
    with pytest.raises(errors.BadFormat):
        read_mxeb(path)


def test_stats_shape_check(tmp_path):
    path = tmp_path / "x.mxeb"
    write_mxeb(path, np.zeros((3, 5), dtype=np.float32))
    with pytest.raises(errors.BadFormat):
        read_gaussian_stats(path)


def test_store_put_and_read(tmp_path, rng):
    store = EmbeddingStore(tmp_path / "store")
    v = rng.normal(size=8)
    store.put("clip1", v[None, :])
    store.put("clip1.latents", rng.normal(size=(5, 8)))
    reopened = EmbeddingStore(tmp_path / "store")
    assert reopened.ids() == ["clip1", "clip1.latents"]
    assert np.allclose(reopened.embedding("clip1").values, v, atol=1e-6)
    assert reopened.latents("clip1.latents").data.shape == (5, 8)


def test_store_missing_id(tmp_path):
    store = EmbeddingStore(tmp_path / "store")
    with pytest.raises(errors.MissingEmbedding):
        store.embedding("ghost")


def test_store_index_bytes_and_no_temp_file(tmp_path):
    store = EmbeddingStore(tmp_path / "store")
    for entry_id in ("b", "a.latents", "a"):
        store.put(entry_id, np.zeros((1, 4)))
    entries = {"a": "a.mxeb", "a.latents": "a.latents.mxeb", "b": "b.mxeb"}
    expect = json.dumps({"entries": entries}, indent=2) + "\n"
    assert (tmp_path / "store" / "index.json").read_text(encoding="utf-8") == expect
    assert sorted(p.name for p in (tmp_path / "store").iterdir()) == \
        ["a.latents.mxeb", "a.mxeb", "b.mxeb", "index.json"]


def _names_a_file(name):
    try:
        errors.check_id(name)
    except errors.BadId:
        return False
    return True


# short enough for a file name; some characters stand for the bytes of a file name
# that is not UTF-8 (U+DC80-U+DCFF) or need a JSON escape
_store_ids = st.text(st.one_of(st.characters(), st.sampled_from("\udc80\udcff\x7f\u2028\"")),
                     max_size=12).filter(_names_a_file)
_index_steps = st.lists(st.one_of(
    st.tuples(st.just("put"), st.lists(_store_ids, min_size=1, max_size=3)),
    st.tuples(st.just("batch"), st.lists(_store_ids, max_size=3)),
    st.tuples(st.just("reopen"), st.just([])),
), max_size=8)


@settings(deadline=None, max_examples=60)
@given(st.dictionaries(st.text(max_size=12), st.text(max_size=12).filter(_names_a_file),
                       max_size=6), _index_steps, st.data())
def test_index_bytes_match_json_indent_after_every_step(entries, steps, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "index.json").write_text(json.dumps({"entries": entries}), encoding="utf-8")
        store, index, flushed = EmbeddingStore(root), dict(entries), False
        for kind, ids in steps:
            again = sorted(filter(_names_a_file, index))
            if again:  # put some ids again, the ones read from disk among them
                ids = ids + data.draw(st.lists(st.sampled_from(again), max_size=2))
            if kind == "reopen":
                store = EmbeddingStore(root)
            block = store.batch() if kind == "batch" else contextlib.nullcontext()
            with block:
                for entry_id in ids:
                    store.put(entry_id, np.ones((1, 2)))
                    index[entry_id] = f"{entry_id}.mxeb"
            flushed = flushed or kind == "batch" or bool(ids)
            if flushed:
                expect = json.dumps({"entries": dict(sorted(index.items()))}, indent=2) + "\n"
                assert (root / "index.json").read_bytes() == expect.encode("utf-8")


def test_unbatched_puts_encode_only_their_own_entry(tmp_path, monkeypatch):
    encoded = []
    dumps = json.dumps

    def counting_dumps(obj, *args, **kwargs):
        encoded.append(len(obj) if isinstance(obj, dict) else 1)
        return dumps(obj, *args, **kwargs)

    monkeypatch.setattr(store_mod.json, "dumps", counting_dumps)
    store = EmbeddingStore(tmp_path / "store")
    for i in range(50):
        store.put(f"clip{i:02d}", np.ones((1, 2)))
    # one id and one file name per put; re-encoding the whole index on each put
    # would encode 1 + 2 + ... + 50 = 1,275 entries
    assert sum(encoded) <= 100
    monkeypatch.undo()
    expect = {"entries": {f"clip{i:02d}": f"clip{i:02d}.mxeb" for i in range(50)}}
    assert (tmp_path / "store" / "index.json").read_text(encoding="utf-8") == \
        json.dumps(expect, indent=2) + "\n"


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("under_the_file", [False, True])
def test_store_root_blocked_by_a_file_is_io_failure(tmp_path, batched, under_the_file):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    store = EmbeddingStore(blocker / "store" if under_the_file else blocker)
    with pytest.raises(errors.IoFailure, match="file"):
        if batched:
            with store.batch():
                pass
        else:
            store.put("a", np.ones((1, 4)))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
    assert blocker.read_text() == "x"



def test_store_puts_inside_a_batch_make_no_directory(tmp_path, monkeypatch):
    made, mkdir = [], Path.mkdir

    def counting_mkdir(self, *args, **kwargs):
        made.append(self)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counting_mkdir)
    root = tmp_path / "store"
    store = EmbeddingStore(root)
    with store.batch():
        for i in range(5):
            store.put(f"e{i}", np.ones((1, 4)))
    assert made == [root]  # on entry to the block
    store.put("unbatched", np.ones((1, 4)))
    assert made == [root, root]
    assert EmbeddingStore(root).ids() == ["e0", "e1", "e2", "e3", "e4", "unbatched"]


def test_store_batch_writes_index_on_exit(tmp_path, rng):
    root = tmp_path / "store"
    EmbeddingStore(root).put("old", rng.normal(size=(1, 4)))
    store = EmbeddingStore(root)
    with store.batch():
        store.put("new1", rng.normal(size=(1, 4)))
        store.put("new2", rng.normal(size=(3, 4)))
        assert store.ids() == ["new1", "new2", "old"]
        assert EmbeddingStore(root).ids() == ["old"]
    reopened = EmbeddingStore(root)
    assert reopened.ids() == ["new1", "new2", "old"]
    assert reopened.latents("new2").data.shape == (3, 4)


def test_store_batch_creates_readable_store_on_entry(tmp_path):
    root = tmp_path / "fresh"
    store = EmbeddingStore(root)
    with store.batch():
        assert EmbeddingStore(root).ids() == []
    assert EmbeddingStore(root).ids() == []


def test_store_batch_records_puts_before_an_exception(tmp_path, rng):
    root = tmp_path / "store"
    store = EmbeddingStore(root)
    with pytest.raises(RuntimeError):
        with store.batch():
            store.put("first", rng.normal(size=(1, 4)))
            store.put("second", rng.normal(size=(1, 4)))
            raise RuntimeError("boom")
    assert EmbeddingStore(root).ids() == ["first", "second"]
    assert not (root / "index.json.tmp").exists()


def test_read_mxeb_unreadable_path_is_io_failure(tmp_path):
    with pytest.raises(errors.IoFailure, match="gone.mxeb"):
        read_mxeb(tmp_path / "gone.mxeb")
    with pytest.raises(errors.IoFailure):
        read_mxeb(tmp_path)  # a directory


def test_reput_cut_short_by_the_file_size_limit_keeps_the_previous_entry(tmp_path):
    # a fresh interpreter, so the 4096-byte file size limit ends with it; with
    # SIGXFSZ ignored, a write past the limit fails with EFBIG part-way through
    # the 16,397-byte entry
    out = run_python(f"""
import resource, signal
import numpy as np
from morphmix.errors import IoFailure
from morphmix.store import EmbeddingStore
store = EmbeddingStore({str(tmp_path)!r})
store.put("a", np.arange(8.0)[None, :])
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (4096, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
try:
    store.put("a", np.ones((1, 4096)))
except IoFailure as e:
    print(type(e).__name__, "File too large" in str(e))
print(EmbeddingStore({str(tmp_path)!r}).embedding("a").values.tolist())
""")
    assert out == "IoFailure True\n" + str([float(k) for k in range(8)]) + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.mxeb", "index.json"]


# float32 NaN, +inf and -inf, and a signalling NaN with payload bits
_NON_FINITE_WORDS = ([struct.pack("<f", x) for x in (np.nan, np.inf, -np.inf)]
                     + [b"\x01\x00\xa0\x7f"])


def _mxeb_bytes(t, d, words):
    return store_mod.MAGIC + bytes([store_mod.VERSION]) + struct.pack("<II", t, d) + b"".join(words)


@pytest.mark.parametrize("bad", _NON_FINITE_WORDS, ids=["nan", "inf", "-inf", "snan"])
def test_non_finite_payload_is_bad_format(tmp_path, bad):
    one, two, three = (struct.pack("<f", x) for x in (1.0, 2.0, 3.0))
    files = {
        read_embedding: _mxeb_bytes(1, 3, [one, bad, two]),
        read_latents: _mxeb_bytes(2, 2, [one, two, bad, three]),
        read_gaussian_stats: _mxeb_bytes(2, 1, [bad, one]),
    }
    for reader, blob in files.items():
        path = tmp_path / f"{reader.__name__}.mxeb"
        path.write_bytes(blob)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a cast of the signalling NaN must not warn
            with pytest.raises(errors.BadFormat, match=path.name):
                reader(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("row", [0, 3])  # the mean, a covariance row
def test_non_finite_gaussian_stats_are_bad_format(tmp_path, rng, bad, row):
    path = tmp_path / "ref.mxeb"
    write_gaussian_stats(path, gaussian_stats([Embedding(rng.normal(size=4)) for _ in range(6)]))
    m = read_mxeb(path)
    m[row, 1] = bad
    write_mxeb(path, m)
    with pytest.raises(errors.BadFormat, match="ref.mxeb"):
        read_gaussian_stats(path)


def test_asymmetric_gaussian_stats_are_bad_format(tmp_path):
    path = tmp_path / "ref.mxeb"
    write_mxeb(path, np.array([[0.0, 0.0], [1.0, 5.0], [-3.0, 1.0]]))
    with pytest.raises(errors.BadFormat, match="ref.mxeb: covariance not symmetric"):
        read_gaussian_stats(path)


def test_gaussian_stats_asymmetric_by_float32_round_off_still_read(tmp_path):
    cov = np.array([[2.0, 0.1], [0.1, 1.0]], dtype=np.float32)
    cov[1, 0] = np.nextafter(cov[0, 1], np.float32(1.0))  # one float32 ulp apart
    path = tmp_path / "ref.mxeb"
    write_mxeb(path, np.vstack([np.float32([0.5, -0.5]), cov]))
    c = cov.astype(np.float64)
    loaded = read_gaussian_stats(path)
    assert np.array_equal(loaded.mean, [0.5, -0.5])
    assert np.array_equal(loaded.covariance, 0.5 * (c + c.T))


def _fit(rng, n, d):
    """Stats of n samples in d dimensions whose scales span 4 decades."""
    x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-2.0, 2.0, d)
    return gaussian_stats([Embedding(row) for row in x])


@settings(max_examples=150, deadline=None)
@given(d=st.integers(1, 64), below=st.booleans(), seed=st.integers(0, 2 ** 32 - 1),
       negative=st.floats(1e-3, 1.0))
def test_stored_reference_stats_read_unless_an_eigenvalue_is_materially_negative(
        d, below, seed, negative):
    rng = np.random.default_rng(seed)
    # fewer samples than D leave a rank-deficient fit, whose zero eigenvalues
    # float32 round-off can push just below 0
    n = int(rng.integers(2, d)) if below and d > 2 else int(rng.integers(d + 1, 2 * d + 3))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ref.mxeb"
        write_gaussian_stats(path, _fit(rng, n, d))
        reference = read_gaussian_stats(path)
        fad = frechet_distance(_fit(rng, int(rng.integers(2, 2 * d + 3)), d), reference)
        assert np.isfinite(fad) and fad >= 0.0
        vals, vecs = np.linalg.eigh(reference.covariance)
        vals[0] = -negative * vals[-1]
        cov = (vecs * vals) @ vecs.T
        write_mxeb(path, np.vstack([reference.mean, 0.5 * (cov + cov.T)]))
        with pytest.raises(errors.BadFormat, match="ref.mxeb: covariance not PSD"):
            read_gaussian_stats(path)


@st.composite
def mxeb_blobs(draw):
    """An MXEB file of small declared T x D (often the shape of an embedding or of
    stats): random payload words, then, in half the draws, a random truncation (into
    the header too) or extension. Returns (blob, T, D)."""
    d = draw(st.integers(0, 4))
    t = draw(st.one_of(st.just(1), st.just(d + 1), st.integers(0, 5)))
    word = st.one_of(st.binary(min_size=4, max_size=4), st.sampled_from(_NON_FINITE_WORDS))
    blob = _mxeb_bytes(t, d, draw(st.lists(word, min_size=t * d, max_size=t * d)))
    damage = draw(st.sampled_from(["none", "none", "truncate", "extend"]))
    if damage == "truncate":
        blob = blob[:draw(st.integers(0, len(blob) - 1))]
    elif damage == "extend":
        blob += draw(st.binary(min_size=1, max_size=8))
    return blob, t, d


@settings(max_examples=300, deadline=None)
@given(mxeb_blobs())
def test_typed_readers_return_finite_arrays_of_the_declared_shape_or_bad_format(case):
    blob, t, d = case
    readers = {
        read_embedding: lambda e: [(e.values, (d,))],
        read_latents: lambda m: [(m.data, (t, d))],
        read_gaussian_stats: lambda s: [(s.mean, (d,)), (s.covariance, (d, d))],
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "x.mxeb"
        path.write_bytes(blob)
        for reader, arrays in readers.items():
            try:
                result = reader(path)
            except errors.BadFormat:
                continue
            for a, shape in arrays(result):
                assert a.dtype == np.float64 and a.shape == shape
                assert np.isfinite(a).all()


@pytest.mark.parametrize("index", ["{not json", "", "[1]", '{"other": {}}', '{"entries": ["a"]}'])
def test_malformed_index_is_bad_format(tmp_path, index):
    (tmp_path / "index.json").write_text(index)
    with pytest.raises(errors.BadFormat, match="index.json"):
        EmbeddingStore(tmp_path)


def test_unreadable_index_is_io_failure(tmp_path):
    (tmp_path / "index.json").mkdir()
    with pytest.raises(errors.IoFailure, match="index.json: .*Is a directory"):
        EmbeddingStore(tmp_path)


def test_index_that_cannot_be_looked_up_is_io_failure(tmp_path):
    # the store directory's path fits in PATH_MAX but its index.json's does not, so
    # Path.exists raises OSError (ENAMETOOLONG) where a missing index is an empty store
    target = os.pathconf("/", "PC_PATH_MAX") - len("/index.json") + 5
    root = tmp_path
    while len(str(root)) + 251 < target:
        root /= "d" * 250
    root /= "e" * (target - len(str(root)) - 1)
    root.mkdir(parents=True)
    with pytest.raises(errors.IoFailure, match="index.json: .*File name too long"):
        EmbeddingStore(root)


@pytest.mark.parametrize("name", ["\\ud800.mxeb", "a\\udfff"])
def test_index_file_name_that_cannot_name_a_file_is_bad_id(tmp_path, name):
    (tmp_path / "index.json").write_text('{"entries": {"a": "' + name + '"}}')
    with pytest.raises(errors.BadId, match="cannot name a file"):
        EmbeddingStore(tmp_path)


def test_index_holding_an_int_past_the_digit_limit_is_bad_format(tmp_path):
    # json.load raises a plain ValueError here, not a JSONDecodeError
    (tmp_path / "index.json").write_text('{"entries": {}, "n": ' + "1" * 5000 + "}")
    with pytest.raises(errors.BadFormat, match="index.json"):
        EmbeddingStore(tmp_path)


def test_zero_column_embedding_is_bad_format(tmp_path):
    path = tmp_path / "e.mxeb"
    write_mxeb(path, np.zeros((1, 0)))
    with pytest.raises(errors.BadFormat):
        read_embedding(path)


@pytest.mark.parametrize("bad_id", ["", ".", "..", "a/b", "../escaped", "a\\b", "nul\0", "\ud800",
                                    "a\udfffb", 5, None])
def test_store_put_rejects_bad_ids(tmp_path, bad_id):
    root = tmp_path / "store"
    store = EmbeddingStore(root)
    with pytest.raises(errors.BadId):
        store.put(bad_id, np.zeros((1, 4)))
    assert not root.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == []
    store.put("5", np.ones((1, 4)))  # a rejected id leaves the store usable
    assert EmbeddingStore(root).ids() == ["5"]


@pytest.mark.parametrize("good_id", ["a", "clip0.latents", "...", ".hidden", "with space",
                                     "not utf-8 \udc80\udcff"])
def test_store_put_accepts_single_component_ids(tmp_path, good_id):
    store = EmbeddingStore(tmp_path / "store")
    store.put(good_id, np.ones((1, 4)))
    assert EmbeddingStore(tmp_path / "store").embedding(good_id).dim == 4


_put_ops = st.lists(
    st.tuples(
        st.booleans(),  # inside a batch() block
        st.sampled_from(["a", "b", "c", "c.latents", "d"]),
        st.integers(1, 3),  # rows
        st.integers(-1000, 1000),  # value seed
    ),
    max_size=12,
)


@settings(deadline=None, max_examples=40)
@given(_put_ops)
def test_store_roundtrips_interleaved_batched_and_unbatched_puts(ops):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "store"
        store = EmbeddingStore(root)
        expect = {}
        i = 0
        while i < len(ops):
            batched = ops[i][0]
            run = []
            while i < len(ops) and ops[i][0] == batched:
                run.append(ops[i])
                i += 1
            listed = sorted(expect)
            block = store.batch() if batched else contextlib.nullcontext()
            with block:
                for _, entry_id, rows, value in run:
                    matrix = np.full((rows, 3), value / 8.0) + np.arange(3)
                    store.put(entry_id, matrix)
                    expect[entry_id] = matrix
                if batched:  # the on-disk index lists the block's puts only on exit
                    assert EmbeddingStore(root).ids() == listed
            # after each run, batched or not, the reopened store holds every put so far
            reopened = EmbeddingStore(root)
            assert reopened.ids() == sorted(expect)
            for entry_id, matrix in expect.items():
                assert np.array_equal(reopened.latents(entry_id).data, matrix)
            assert not (root / "index.json.tmp").exists()


def test_nested_batch_writes_index_once_per_outer_block(tmp_path, monkeypatch):
    store = EmbeddingStore(tmp_path / "store")
    writes = []
    flush = store._flush
    monkeypatch.setattr(store, "_flush", lambda: (writes.append(len(store.ids())), flush()))
    with store.batch():
        store.put("a", np.ones((1, 4)))
        with store.batch():
            store.put("b", np.ones((1, 4)))
        store.put("c", np.ones((1, 4)))
        store.put("d", np.ones((1, 4)))
        assert EmbeddingStore(tmp_path / "store").ids() == []
    # one write on entry to the outer block, one on its exit
    assert writes == [0, 4]
    assert EmbeddingStore(tmp_path / "store").ids() == ["a", "b", "c", "d"]
    store.put("e", np.ones((1, 4)))  # unbatched again after the outer exit
    assert writes == [0, 4, 5]


def test_nested_batch_exit_on_error_keeps_outer_batching(tmp_path):
    store = EmbeddingStore(tmp_path / "store")
    with store.batch():
        with pytest.raises(RuntimeError), store.batch():
            store.put("a", np.ones((1, 4)))
            raise RuntimeError("inner block fails")
        store.put("b", np.ones((1, 4)))
        assert EmbeddingStore(tmp_path / "store").ids() == []
    assert EmbeddingStore(tmp_path / "store").ids() == ["a", "b"]
