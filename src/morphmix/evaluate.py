"""Corpus evaluation: prompt expansion, per-clip scoring, report rendering."""

import csv
import dataclasses
import functools
import io
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .dataset import read_jsonl
from .errors import EmptyInput, MissingEmbedding, MorphmixError, check_fields
from .metrics import (
    DirectionalityParams,
    GaussianStats,
    correspondence,
    cosine_sim,
    directionality,
    frechet_distance,
    gaussian_stats,
    intermediateness,
    lcs,
)

DEFAULT_PROMPT_TEMPLATE = "behavior of {X} with timbre like {Y}"

METRIC_COLUMNS = ("lcs", "correspondence", "intermediateness", "directionality", "fad")
COLUMN_TITLES = ("model", "LCS", "Correspond.", "Intermediate.", "Direct.", "FAD")
LOWER_IS_BETTER = ("fad",)


@dataclass(frozen=True)
class ConceptPair:
    x_label: str
    y_label: str

    def __post_init__(self):
        if not self.x_label or not self.y_label:
            raise ValueError("concept labels must be non-empty")
        if self.x_label == self.y_label:
            raise ValueError(f"concept labels must be distinct, got {self.x_label!r} twice")


@dataclass(frozen=True)
class InfusionPrompt:
    primary_label: str
    secondary_label: str
    prompt_text: str
    direction: str  # "forward" or "reverse"


@dataclass(frozen=True)
class EvalClip:
    """One scored clip: store ids for its embeddings and prompt embeddings."""

    clip_id: str
    audio_id: str
    latents_id: str
    text_x_id: str
    text_y_id: str
    prompt_intended_id: str
    prompt_reversed_id: str

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**{f.name: d[f.name] for f in dataclasses.fields(cls)})


@dataclass(frozen=True)
class EvalRow:
    model_name: str
    lcs: float
    correspondence: float
    intermediateness: float
    directionality: float
    fad: float
    count: int
    excluded: int = 0


def expand_prompts(pairs):
    """Expand concept pairs into directional prompts, forward then reverse per pair."""
    prompts = []
    for pair in pairs:
        for x, y, direction in ((pair.x_label, pair.y_label, "forward"),
                                (pair.y_label, pair.x_label, "reverse")):
            text = DEFAULT_PROMPT_TEMPLATE.format(X=x, Y=y)
            prompts.append(InfusionPrompt(x, y, text, direction))
    return prompts


def bundled_concept_pairs():
    """The sample concept-pair list shipped with the package.

    Fifty inter-class pairs in the spirit of creative sound-design blends;
    illustrative fixtures, not a canonical benchmark set.
    """
    data = resources.files("morphmix").joinpath("data/concept_pairs.jsonl")
    with resources.as_file(data) as path:
        return [ConceptPair(d["x_label"], d["y_label"]) for d in read_jsonl(path)]


def load_eval_clips(path):
    return [EvalClip.from_dict(d) for d in read_jsonl(path)]


def score_clip(clip, store, params=DirectionalityParams(), *, shared):
    """The clip's audio embedding and its four per-clip metrics; raises on missing data.

    shared reads the text and prompt embeddings, which many clips share, so
    evaluate_corpus passes one memo of store.embedding for all its clips. The
    audio embedding and latents are read per clip.
    """
    audio = store.embedding(clip.audio_id)
    latents = store.latents(clip.latents_id)
    sim_x = cosine_sim(audio, shared(clip.text_x_id))
    sim_y = cosine_sim(audio, shared(clip.text_y_id))
    s_int = cosine_sim(audio, shared(clip.prompt_intended_id))
    s_rev = cosine_sim(audio, shared(clip.prompt_reversed_id))
    return audio, {
        "lcs": lcs(latents),
        "correspondence": correspondence(sim_x, sim_y),
        "intermediateness": intermediateness(sim_x, sim_y),
        "directionality": directionality(s_int, s_rev, params),
    }


def evaluate_corpus(clips, store, reference, params=DirectionalityParams(),
                    model_name="model", on_error=None):
    """Score a clip corpus: unweighted metric means plus pooled FAD vs reference.

    Clips whose embeddings are missing raise MissingEmbedding naming the
    clip. Other per-clip failures, a malformed or unreadable store entry
    among them, exclude the clip from the means; the exclusion count is
    reported on the row. Each text and prompt entry is read once per call.
    """
    if not clips:
        raise EmptyInput("no clips to evaluate")
    per_clip = []
    pooled = []
    excluded = 0
    # local to this call, as the store may change between calls; a read that
    # raises is not cached, so each clip that names a bad entry is excluded
    shared = functools.cache(store.embedding)
    for clip in clips:
        try:
            audio, scores = score_clip(clip, store, params, shared=shared)
        except MissingEmbedding as e:
            raise MissingEmbedding(f"clip {clip.clip_id!r}: {e}") from e
        except MorphmixError as e:
            excluded += 1
            if on_error is not None:
                on_error(clip.clip_id, e)
            continue
        per_clip.append(scores)
        pooled.append(audio)
    if not per_clip:
        raise EmptyInput("every clip failed metric computation")
    means = {key: sum(s[key] for s in per_clip) / len(per_clip) for key in per_clip[0]}
    if len(pooled) == 1:
        # a single clip still yields a row; the pooled fit degenerates to a
        # point mass at its embedding
        d = pooled[0].dim
        pooled_stats = GaussianStats(pooled[0].values, np.zeros((d, d)))
    else:
        pooled_stats = gaussian_stats(pooled)
    fad = frechet_distance(pooled_stats, reference)
    return EvalRow(model_name, **means, fad=fad, count=len(per_clip), excluded=excluded)


def _best_indices(rows):
    """Map metric name to the row index holding the best value."""
    best = {}
    for key in METRIC_COLUMNS:
        values = [getattr(r, key) for r in rows]
        pick = min if key in LOWER_IS_BETTER else max
        best[key] = values.index(pick(values))
    return best


def render_report(rows, fmt="markdown"):
    """Render evaluation rows as CSV or a Markdown table (best per column bolded)."""
    if not rows:
        raise EmptyInput("no rows to render")
    body = [[r.model_name] + [f"{getattr(r, key):.3f}" for key in METRIC_COLUMNS] for r in rows]
    if fmt == "csv":
        # the writer quotes a model name that holds a comma, a quote or a newline
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([COLUMN_TITLES, *body])
        return out.getvalue()
    if fmt == "markdown":
        for cells in body:
            cells[0] = cells[0].replace("|", "\\|")
        if len(rows) > 1:
            best = _best_indices(rows)
            for col, key in enumerate(METRIC_COLUMNS, start=1):
                cells = body[best[key]]
                cells[col] = f"**{cells[col]}**"
        lines = [
            "| " + " | ".join(COLUMN_TITLES) + " |",
            "|" + "|".join(["---"] * len(COLUMN_TITLES)) + "|",
        ]
        lines += ["| " + " | ".join(cells) + " |" for cells in body]
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")
