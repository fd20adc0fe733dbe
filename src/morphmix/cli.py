"""Command-line interface: augment, build, embed-mock, eval.

Exit codes: 0 success, 1 processing failure, 2 usage/validation error. Only
main maps an exception to a code. Diagnostics go to stderr; machine-readable
output to stdout.
"""

import argparse
import collections
import contextlib
import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

from . import dataset, evaluate, metrics, store
from .audio_io import load_wav, save_wav, to_mono
from .dsp import AugmentationMode, AugmentParams, augment_pair
from .errors import BadFormat, MorphmixError, TooShort, make_dirs, read_text, record, write_atomic

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Bad input found before any work: exit code 2, nothing written."""


@contextlib.contextmanager
def _reading_inputs():
    """Turn a bad input's MorphmixError into a UsageError; any other error is a bug."""
    try:
        yield
    except MorphmixError as e:
        raise UsageError(str(e)) from e


def _require_utf8(flag, text):
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise UsageError(f"{flag} must be UTF-8 text, got {text!r}") from None


def load_config(args):
    """The --config JSON object's typed values; AugmentParams checks its merge with the
    flags. BadFormat names the config path, and the section of a record it rejects."""
    raw = {}
    if args.config:
        raw = record(args.config, json.loads, read_text(args.config))
        if not isinstance(raw, dict):
            raise BadFormat(f"{args.config}: config must be a JSON object")
        unknown = raw.keys() - {"seed", "augment_params", "mode_distribution", "timestep_window"}
        if unknown:
            raise BadFormat(f"{args.config}: unknown key {min(unknown)!r}")

    def section(name, make, flags):
        where = f"{args.config}: {name}" if args.config else name
        # a section that is not a mapping fails inside record, as a bad field does
        return record(where, lambda: make(**{**raw.get(name, {}), **flags}))

    params = section("augment_params", AugmentParams, {
        f.name: getattr(args, f.name) for f in dataclasses.fields(AugmentParams)
        if getattr(args, f.name) is not None
    })
    dist = section("mode_distribution", dataset.ModeDistribution, {})
    window = section("timestep_window", dataset.TimestepWindow, {})
    seed = raw.get("seed", 0)
    if not (type(seed) is int or type(seed) is float and seed.is_integer()):  # not JSON true
        raise BadFormat(f"{args.config}: seed must be an integer, got {seed!r}")
    return params, dist, window, int(seed)


def _add_param_flags(parser):
    parser.add_argument("--config", help="config JSON (flags override its values)")
    for f in dataclasses.fields(AugmentParams):
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default))


def cmd_augment(args):
    with _reading_inputs():
        for path in (args.primary, args.secondary):
            if not os.path.exists(path):  # os.path: pathlib raises OSError for a long name
                raise UsageError(f"file not found: {path}")
        params = load_config(args)[0]
        mode = AugmentationMode(args.mode)
        caption = dataset.caption_for(mode, args.primary_label, args.secondary_label)
        # the caption is printed as UTF-8 text, and only after the WAV is written
        _require_utf8("--primary-label", args.primary_label)
        _require_utf8("--secondary-label", args.secondary_label)
    primary, secondary = load_wav(args.primary), load_wav(args.secondary)
    if not args.per_channel:
        primary, secondary = to_mono(primary), to_mono(secondary)
    save_wav(augment_pair(primary, secondary, mode, params), args.out, bit_depth=args.bit_depth)
    print(caption)
    return EXIT_OK


def cmd_build(args):
    with _reading_inputs():
        if args.jobs < 1:
            raise UsageError(f"--jobs must be >= 1, got {args.jobs}")
        params, dist, window, seed = load_config(args)
        seed = seed if args.seed is None else args.seed
        pairs = dataset.load_pairs(args.pairs)
        dataset.check_pair_ids(pairs)
        make_dirs(Path(args.out_dir) / "audio")
    entries = dataset.build_dataset(pairs, dist, window, params, seed, args.out_dir, jobs=args.jobs)
    failed = [e for e in entries if e.failed]
    print(f"{len(entries) - len(failed)} built, {len(failed)} failed")
    for entry in failed:
        print(f"failed {entry.id}: {entry.error}", file=sys.stderr)
    return EXIT_FAILURE if failed else EXIT_OK


# clips embedded ahead of the one being written: one ahead measured slower, and more
# only holds more results in memory
_READ_AHEAD = 2


def _embed_clip(wav_path, dim, latent_dim):
    """A clip's embedding, its latents (None if latent_dim is None) and a TooShort
    to report once the embedding is stored (or None). Touches no shared state."""
    w = load_wav(wav_path)
    lat = short = None
    if latent_dim is not None:
        try:
            lat = metrics.mock_latents(w, dim=latent_dim)
        except TooShort as e:
            short = e  # the embedding is still stored
    return metrics.mock_embed(w, dim=dim, latents=lat), lat, short


def cmd_embed_mock(args):
    audio_dir = Path(args.audio_dir)
    with _reading_inputs():
        if not os.path.isdir(audio_dir):
            raise UsageError(f"not a directory: {args.audio_dir}")
        for flag, value in (("--dim", args.dim), ("--latent-dim", args.latent_dim)):
            if value < 1:
                raise UsageError(f"{flag} must be >= 1, got {value}")
        wav_paths = sorted(audio_dir.glob("*.wav"))
        stems = {p.stem for p in wav_paths} if args.latents else set()
        for p in wav_paths:
            if f"{p.stem}.latents" in stems:  # its latents would overwrite that clip's entry
                raise UsageError(f"{p.name} and {p.stem}.latents.wav both name "
                                 f"store entry {p.stem}.latents")
        make_dirs(Path(args.out_store))
        out = store.EmbeddingStore(args.out_store)
    embed = functools.partial(_embed_clip, dim=args.dim,
                              latent_dim=args.latent_dim if args.latents else None)
    failures = written = 0
    # here, not at the top: it loads logging too, and eval starts no thread
    from concurrent.futures import ThreadPoolExecutor

    # one worker embeds the next clips while this thread writes and reports each clip
    # in sorted order: put's file creates and numpy's loops release the GIL, so the
    # two overlap. The pool stops before batch() writes the index.
    with out.batch():
        pool = ThreadPoolExecutor(max_workers=1)
        try:
            ahead = collections.deque(pool.submit(embed, p) for p in wav_paths[:_READ_AHEAD])
            for i, wav_path in enumerate(wav_paths):
                if i + _READ_AHEAD < len(wav_paths):
                    ahead.append(pool.submit(embed, wav_paths[i + _READ_AHEAD]))
                try:
                    emb, lat, short = ahead.popleft().result()
                    out.put(wav_path.stem, emb.values[None, :])
                    written += 1
                    if lat is not None:
                        out.put(f"{wav_path.stem}.latents", lat.data)
                        written += 1
                    if short is not None:
                        raise short
                except MorphmixError as e:
                    failures += 1
                    print(f"failed {wav_path.name}: {e}", file=sys.stderr)
        finally:
            pool.shutdown(cancel_futures=True)
    print(f"{written} entries written")
    return EXIT_FAILURE if failures else EXIT_OK


def cmd_eval(args):
    with _reading_inputs():
        clips = evaluate.load_eval_clips(args.clips)
        if not os.path.isdir(args.store):  # a missing store is not an empty one
            raise UsageError(f"not a directory: {args.store}")
        emb_store = store.EmbeddingStore(args.store)
        reference = store.read_gaussian_stats(args.reference)
        params = record("--temperature", metrics.DirectionalityParams, args.temperature)
        if "\r" in args.model_name or "\n" in args.model_name:
            # a report row is one line in both formats
            raise UsageError(f"--model-name must be one line, got {args.model_name!r}")
        _require_utf8("--model-name", args.model_name)  # the report is UTF-8 text
    row = evaluate.evaluate_corpus(
        clips, emb_store, reference, params, model_name=args.model_name,
        on_error=lambda cid, e: print(f"excluded {cid}: {e}", file=sys.stderr),
    )
    report = evaluate.render_report([row], fmt=args.format)
    if args.out:
        write_atomic(args.out, report.encode("utf-8"))
    else:
        sys.stdout.write(report)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="morphmix",
        description="Surrogate-morph augmentation pipeline and morphing metrics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("augment", help="render one surrogate morph from a pair of WAVs")
    p.add_argument("primary")
    p.add_argument("secondary")
    p.add_argument("--mode", choices=sorted(m.value for m in AugmentationMode), default="rms")
    p.add_argument("--out", required=True)
    p.add_argument("--bit-depth", type=int, choices=(16, 24, 32), default=32)
    p.add_argument("--primary-label", default="primary")
    p.add_argument("--secondary-label", default="secondary")
    p.add_argument("--per-channel", action="store_true",
                   help="keep the primary's channels instead of downmixing to mono; the RMS "
                        "and the target spectrum still pool all channels, and a secondary "
                        "with more channels than the primary is downmixed")
    _add_param_flags(p)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("build", help="build a surrogate-morph dataset from a pair list")
    p.add_argument("pairs", help="JSON-lines file of pair specs")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--jobs", type=int, default=1)
    _add_param_flags(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("embed-mock", help="compute deterministic mock embeddings for a WAV dir")
    p.add_argument("audio_dir")
    p.add_argument("--out-store", required=True)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--latents", action="store_true", help="also write latent matrices")
    p.add_argument("--latent-dim", type=int, default=32)
    p.set_defaults(func=cmd_embed_mock)

    p = sub.add_parser("eval", help="score a clip corpus and render a report")
    p.add_argument("clips", help="JSON-lines clip manifest")
    p.add_argument("--store", required=True, help="embedding store directory")
    p.add_argument("--reference", required=True, help="reference Gaussian stats (MXEB)")
    p.add_argument("--format", choices=("csv", "markdown"), default="markdown")
    p.add_argument("--model-name", default="model")
    p.add_argument("--temperature", type=float, default=0.05)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except MorphmixError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
