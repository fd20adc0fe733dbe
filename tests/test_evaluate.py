import numpy as np
import pytest

from morphmix import errors
from morphmix import store as store_module
from morphmix.evaluate import (
    ConceptPair,
    EvalClip,
    EvalRow,
    bundled_concept_pairs,
    evaluate_corpus,
    expand_prompts,
    render_report,
    score_clip,
)
from morphmix.metrics import (
    Embedding,
    correspondence,
    cosine_sim,
    directionality,
    gaussian_stats,
    intermediateness,
    lcs,
)
from morphmix.metrics import LatentMatrix
from morphmix.store import EmbeddingStore


# --- prompt expansion ---

def test_expand_both_directions():
    got = expand_prompts([ConceptPair("dog bark", "car horn")])
    assert len(got) == 2
    assert got[0].prompt_text == "behavior of dog bark with timbre like car horn"
    assert got[0].direction == "forward"
    assert got[1].prompt_text == "behavior of car horn with timbre like dog bark"
    assert got[1].direction == "reverse"


def test_expand_counts():
    pairs = bundled_concept_pairs()
    assert len(pairs) == 50
    prompts = expand_prompts(pairs)
    assert len(prompts) == 100
    ordered = {(p.primary_label, p.secondary_label) for p in prompts}
    expect = {(p.x_label, p.y_label) for p in pairs} | {(p.y_label, p.x_label) for p in pairs}
    assert ordered == expect


def test_expand_keeps_braces_in_labels_as_written():
    got = expand_prompts([ConceptPair("dog {Y} bark", "horn {X}")])
    assert got[0].prompt_text == "behavior of dog {Y} bark with timbre like horn {X}"
    assert got[1].prompt_text == "behavior of horn {X} with timbre like dog {Y} bark"


def test_expand_empty():
    assert expand_prompts([]) == []


def test_concept_pair_validation():
    with pytest.raises(ValueError):
        ConceptPair("same", "same")
    with pytest.raises(ValueError):
        ConceptPair("", "b")


# --- corpus evaluation ---

def _populate(tmp_path, rng, n_clips=4, dim=8):
    store = EmbeddingStore(tmp_path / "store")
    clips = []
    per_clip = {}
    for i in range(n_clips):
        cid = f"clip{i}"
        # positive components keep all cosine similarities positive, so no
        # clip is excluded by the both-nonpositive guard
        audio = rng.uniform(0.1, 1.0, size=dim)
        latents = rng.normal(size=(12, dim))
        tx = rng.uniform(0.1, 1.0, size=dim)
        ty = rng.uniform(0.1, 1.0, size=dim)
        pi = rng.uniform(0.1, 1.0, size=dim)
        pr = rng.uniform(0.1, 1.0, size=dim)
        store.put(f"{cid}.audio", audio[None, :])
        store.put(f"{cid}.latents", latents)
        store.put(f"{cid}.tx", tx[None, :])
        store.put(f"{cid}.ty", ty[None, :])
        store.put(f"{cid}.pi", pi[None, :])
        store.put(f"{cid}.pr", pr[None, :])
        clips.append(EvalClip(cid, f"{cid}.audio", f"{cid}.latents", f"{cid}.tx",
                              f"{cid}.ty", f"{cid}.pi", f"{cid}.pr"))
        per_clip[cid] = (audio, latents, tx, ty, pi, pr)
    return store, clips, per_clip


def test_evaluate_per_clip_recomputation_oracle(tmp_path, rng):
    store, clips, per_clip = _populate(tmp_path, rng)
    pooled = [store.embedding(c.audio_id) for c in clips]
    reference = gaussian_stats(pooled)
    row = evaluate_corpus(clips, store, reference)
    # recompute each clip's metrics from the raw vectors
    expect = {"lcs": [], "correspondence": [], "intermediateness": [], "directionality": []}
    for cid, (audio, latents, tx, ty, pi, pr) in per_clip.items():
        a = store.embedding(f"{cid}.audio")
        sx = cosine_sim(a, store.embedding(f"{cid}.tx"))
        sy = cosine_sim(a, store.embedding(f"{cid}.ty"))
        expect["correspondence"].append(correspondence(sx, sy))
        expect["intermediateness"].append(intermediateness(sx, sy))
        expect["directionality"].append(directionality(
            cosine_sim(a, store.embedding(f"{cid}.pi")),
            cosine_sim(a, store.embedding(f"{cid}.pr")),
        ))
        expect["lcs"].append(lcs(store.latents(f"{cid}.latents")))
    for key, vals in expect.items():
        assert getattr(row, key) == pytest.approx(float(np.mean(vals)), abs=1e-12)
    assert row.count == 4
    assert row.fad == pytest.approx(0.0, abs=1e-6)  # corpus equals reference


def test_evaluate_single_clip(tmp_path, rng):
    store, clips, _ = _populate(tmp_path, rng, n_clips=1)
    # reference from two arbitrary vectors: FAD is just some nonnegative number
    reference = gaussian_stats([Embedding(rng.normal(size=8)) for _ in range(5)])
    row = evaluate_corpus(clips[:1], store, reference)
    assert row.count == 1
    assert row.fad >= 0


def test_evaluate_permutation_invariant(tmp_path, rng):
    store, clips, _ = _populate(tmp_path, rng, n_clips=5)
    reference = gaussian_stats([store.embedding(c.audio_id) for c in clips])
    a = evaluate_corpus(clips, store, reference)
    b = evaluate_corpus(list(reversed(clips)), store, reference)
    for key in ("lcs", "correspondence", "intermediateness", "directionality", "fad"):
        assert getattr(a, key) == pytest.approx(getattr(b, key), abs=1e-12)


def test_evaluate_missing_embedding_names_clip(tmp_path, rng):
    store, clips, _ = _populate(tmp_path, rng, n_clips=2)
    broken = EvalClip("clipX", "nope.audio", clips[0].latents_id, clips[0].text_x_id,
                      clips[0].text_y_id, clips[0].prompt_intended_id, clips[0].prompt_reversed_id)
    reference = gaussian_stats([store.embedding(c.audio_id) for c in clips])
    with pytest.raises(errors.MissingEmbedding, match="clipX"):
        evaluate_corpus(clips + [broken], store, reference)


def test_evaluate_excludes_failed_clips(tmp_path, rng):
    store, clips, _ = _populate(tmp_path, rng, n_clips=3)
    # constant latents make LCS fail for one clip
    store.put(f"{clips[0].clip_id}.latents", np.ones((12, 8)))
    reference = gaussian_stats([store.embedding(c.audio_id) for c in clips])
    seen = []
    row = evaluate_corpus(clips, store, reference, on_error=lambda cid, e: seen.append(cid))
    assert row.count == 2
    assert row.excluded == 1
    assert seen == ["clip0"]


def test_evaluate_reads_each_entry_once(tmp_path, rng, monkeypatch):
    store, clips, _ = _populate(tmp_path, rng, n_clips=3)
    reference = gaussian_stats([store.embedding(c.audio_id) for c in clips])
    reads = []
    real_read = store_module.read_mxeb

    def counted(path):
        reads.append(path)
        return real_read(path)

    monkeypatch.setattr(store_module, "read_mxeb", counted)
    row = evaluate_corpus(clips, store, reference)
    # audio, latents and four text/prompt embeddings: the pooled FAD reuses the audio read
    assert row.count == 3
    assert len(reads) == 6 * 3
    assert len(set(reads)) == len(reads)


def _populate_shared(tmp_path, rng, n_clips, shared_ids=("tx", "ty", "pi", "pr"), dim=8):
    """n_clips clips with their own audio and latents, all naming the same text and prompt ids."""
    store = EmbeddingStore(tmp_path / "store")
    for entry_id in set(shared_ids):
        store.put(entry_id, rng.uniform(0.1, 1.0, size=(1, dim)))
    clips = []
    for i in range(n_clips):
        cid = f"clip{i}"
        store.put(f"{cid}.audio", rng.uniform(0.1, 1.0, size=(1, dim)))
        store.put(f"{cid}.latents", rng.normal(size=(12, dim)))
        clips.append(EvalClip(cid, f"{cid}.audio", f"{cid}.latents", *shared_ids))
    return store, clips


def _count_reads(monkeypatch):
    reads = []
    real_read = store_module.read_mxeb

    def counted(path):
        reads.append(path)
        return real_read(path)

    monkeypatch.setattr(store_module, "read_mxeb", counted)
    return reads


@pytest.mark.parametrize("n_clips", [1, 2, 7])
def test_evaluate_reads_shared_entries_once(tmp_path, rng, monkeypatch, n_clips):
    store, clips = _populate_shared(tmp_path, rng, n_clips)
    reference = gaussian_stats([Embedding(rng.normal(size=8)) for _ in range(5)])
    reads = _count_reads(monkeypatch)
    row = evaluate_corpus(clips, store, reference)
    assert row.count == n_clips
    # audio and latents per clip, then each of the four shared ids once
    assert len(reads) == 2 * n_clips + 4
    assert len(set(reads)) == len(reads)


def test_evaluate_shared_reads_match_per_clip_scoring(tmp_path, rng):
    store, clips = _populate_shared(tmp_path, rng, 6)
    reference = gaussian_stats([Embedding(rng.normal(size=8)) for _ in range(5)])
    row = evaluate_corpus(clips, store, reference)
    # score_clip given store.embedding itself reads every entry
    scores = [score_clip(c, store, shared=store.embedding)[1] for c in clips]
    for key in ("lcs", "correspondence", "intermediateness", "directionality"):
        assert getattr(row, key) == sum(s[key] for s in scores) / len(scores)


def test_evaluate_missing_shared_id_names_first_clip(tmp_path, rng):
    store, clips = _populate_shared(tmp_path, rng, 4)
    ghost = [EvalClip(c.clip_id, c.audio_id, c.latents_id, c.text_x_id, c.text_y_id,
                      c.prompt_intended_id, "ghost") for c in clips[2:]]
    reference = gaussian_stats([Embedding(rng.normal(size=8)) for _ in range(5)])
    with pytest.raises(errors.MissingEmbedding, match="'clip2'.*ghost"):
        evaluate_corpus(clips[:2] + ghost, store, reference)


def test_evaluate_truncated_shared_entry_excludes_every_clip_naming_it(tmp_path, rng, monkeypatch):
    store, clips = _populate_shared(tmp_path, rng, 5)
    store.put("bad", rng.uniform(0.1, 1.0, size=(1, 8)))
    bad_path = store.root / "bad.mxeb"
    bad_path.write_bytes(bad_path.read_bytes()[:-4])
    # clips 0, 2 and 4 name the truncated entry as their reversed prompt
    clips = [EvalClip(c.clip_id, c.audio_id, c.latents_id, c.text_x_id, c.text_y_id,
                      c.prompt_intended_id, "bad" if i % 2 == 0 else c.prompt_reversed_id)
             for i, c in enumerate(clips)]
    reference = gaussian_stats([Embedding(rng.normal(size=8)) for _ in range(5)])
    reads = _count_reads(monkeypatch)
    seen = []
    row = evaluate_corpus(clips, store, reference, on_error=lambda cid, e: seen.append((cid, e)))
    assert [cid for cid, _ in seen] == ["clip0", "clip2", "clip4"]
    assert all(isinstance(e, errors.BadFormat) for _, e in seen)
    assert (row.count, row.excluded) == (2, 3)
    # a failed read is not kept: each clip that names the entry reads it again
    assert reads.count(bad_path) == 3


@pytest.mark.parametrize("which", ["audio", "latents", "shared"])
def test_evaluate_non_finite_entry_excludes_clip(tmp_path, rng, which):
    store, clips = _populate_shared(tmp_path, rng, 3)
    clip = clips[1]
    if which == "shared":
        store.put("nan", np.full((1, 8), np.nan))
        clips[1] = EvalClip(clip.clip_id, clip.audio_id, clip.latents_id, "nan",
                            clip.text_y_id, clip.prompt_intended_id, clip.prompt_reversed_id)
    else:
        entry_id = clip.audio_id if which == "audio" else clip.latents_id
        data = np.ones((1, 8)) if which == "audio" else np.ones((12, 8))
        data[0, 3] = np.nan
        store.put(entry_id, data)
    reference = gaussian_stats([Embedding(rng.normal(size=8)) for _ in range(5)])
    seen = []
    row = evaluate_corpus(clips, store, reference, on_error=lambda cid, e: seen.append((cid, e)))
    assert [cid for cid, _ in seen] == ["clip1"]
    assert isinstance(seen[0][1], errors.BadFormat)
    assert (row.count, row.excluded) == (2, 1)


def test_evaluate_vanished_entry_file_excludes_clip(tmp_path, rng):
    store, clips = _populate_shared(tmp_path, rng, 3)
    (store.root / f"{clips[0].latents_id}.mxeb").unlink()
    reference = gaussian_stats([Embedding(rng.normal(size=8)) for _ in range(5)])
    seen = []
    row = evaluate_corpus(clips, store, reference, on_error=lambda cid, e: seen.append((cid, e)))
    assert [cid for cid, _ in seen] == ["clip0"]
    assert isinstance(seen[0][1], errors.IoFailure)
    assert row.count == 2


# --- report rendering ---

def _row(name, **kw):
    base = dict(lcs=0.1, correspondence=0.7, intermediateness=0.6,
                directionality=0.3, fad=1.2, count=10)
    base.update(kw)
    return EvalRow(model_name=name, **base)


def test_render_single_row_markdown():
    text = render_report([_row("m")], fmt="markdown")
    assert "| model | LCS | Correspond. | Intermediate. | Direct. | FAD |" in text
    assert "**" not in text  # no bolding with a single row


def test_render_bolds_lower_fad():
    rows = [_row("a", fad=1.5), _row("b", fad=1.2)]
    text = render_report(rows, fmt="markdown")
    line_b = [ln for ln in text.splitlines() if ln.startswith("| b")][0]
    assert "**1.200**" in line_b
    line_a = [ln for ln in text.splitlines() if ln.startswith("| a")][0]
    assert "**1.500**" not in line_a


def test_csv_parses_back():
    rows = [_row("a"), _row("b", lcs=0.2)]
    text = render_report(rows, fmt="csv")
    lines = text.strip().splitlines()
    assert lines[0] == "model,LCS,Correspond.,Intermediate.,Direct.,FAD"
    cells = lines[1].split(",")
    assert cells[0] == "a"
    assert [float(c) for c in cells[1:]] == [0.1, 0.7, 0.6, 0.3, 1.2]


def test_csv_and_markdown_agree():
    rows = [_row("a", lcs=0.123456)]
    csv_text = render_report(rows, fmt="csv")
    md_text = render_report(rows, fmt="markdown")
    assert "0.123" in csv_text and "0.123" in md_text


def test_render_empty_raises():
    with pytest.raises(errors.MorphmixError):
        render_report([], fmt="csv")


def test_render_unknown_format_raises():
    with pytest.raises(ValueError, match="unknown format 'html'"):
        render_report([_row("a")], fmt="html")


def test_evaluate_no_clips_is_empty_input(tmp_path, rng):
    reference = gaussian_stats([Embedding(rng.normal(size=8)) for _ in range(5)])
    with pytest.raises(errors.EmptyInput, match="no clips"):
        evaluate_corpus([], EmbeddingStore(tmp_path), reference)


def test_evaluate_every_clip_excluded_is_empty_input(tmp_path, rng):
    store, clips, _ = _populate(tmp_path, rng, n_clips=2)
    for clip in clips:  # constant latents make LCS fail
        store.put(clip.latents_id, np.ones((12, 8)))
    reference = gaussian_stats([store.embedding(c.audio_id) for c in clips])
    seen = []
    with pytest.raises(errors.EmptyInput, match="every clip failed"):
        evaluate_corpus(clips, store, reference, on_error=lambda cid, e: seen.append(cid))
    assert seen == ["clip0", "clip1"]
