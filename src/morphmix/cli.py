"""Command-line interface: augment, build, embed-mock, eval.

Exit codes: 0 success, 1 processing failure, 2 usage/validation error.
Diagnostics go to stderr; machine-readable output to stdout.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import dataset, evaluate, metrics, store
from .audio_io import load_wav, save_wav, to_mono
from .dsp import AugmentationMode, AugmentParams, augment_pair
from .errors import IoFailure, MorphmixError, TooShort

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

def _err(msg):
    print(f"error: {msg}", file=sys.stderr)


def _make_dir(path):
    """Create path and its parents; False, after an error line, if that fails."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except FileExistsError:
        _err(f"not a directory: {path}")
        return False
    except OSError as e:
        _err(f"cannot create directory {path}: {e.strerror or e}")
        return False
    return True


def load_config(path=None):
    """Read the optional config JSON into typed config values."""
    raw = {}
    if path:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    params = AugmentParams(**raw.get("augment_params", {}))
    dist = dataset.ModeDistribution(**raw.get("mode_distribution", {}))
    window = dataset.TimestepWindow(**raw.get("timestep_window", {}))
    seed = int(raw.get("seed", 0))
    return params, dist, window, seed


def _add_param_flags(parser):
    parser.add_argument("--config", help="config JSON (flags override its values)")
    for f in dataclasses.fields(AugmentParams):
        parser.add_argument("--" + f.name.replace("_", "-"), type=type(f.default))


def _params_from_args(args, params):
    """params with each AugmentParams field given as a flag replaced; validates again."""
    return dataclasses.replace(params, **{
        f.name: getattr(args, f.name) for f in dataclasses.fields(params)
        if getattr(args, f.name) is not None
    })


def cmd_augment(args):
    for path in (args.primary, args.secondary):
        if not Path(path).exists():
            _err(f"input file not found: {path}")
            return EXIT_USAGE
    try:
        params, _, _, _ = load_config(args.config)
        params = _params_from_args(args, params)
        mode = AugmentationMode(args.mode)
    except (MorphmixError, ValueError, OSError, TypeError) as e:
        _err(str(e))
        return EXIT_USAGE
    try:
        primary = load_wav(args.primary)
        secondary = load_wav(args.secondary)
        if not args.per_channel:
            primary = to_mono(primary)
            secondary = to_mono(secondary)
        out = augment_pair(primary, secondary, mode, params)
        save_wav(out, args.out, bit_depth=args.bit_depth)
    except MorphmixError as e:
        _err(str(e))
        return EXIT_FAILURE
    x, y = args.primary_label, args.secondary_label
    print(dataset.caption_for(mode, x, y))
    return EXIT_OK


def cmd_build(args):
    if not Path(args.pairs).exists():
        _err(f"pairs file not found: {args.pairs}")
        return EXIT_USAGE
    if args.jobs < 1:
        _err(f"--jobs must be >= 1, got {args.jobs}")
        return EXIT_USAGE
    try:
        params, dist, window, seed = load_config(args.config)
        params = _params_from_args(args, params)
        if args.seed is not None:
            seed = args.seed
        pairs = dataset.load_pairs(args.pairs)
        dataset.check_pair_ids(pairs)
    except (MorphmixError, ValueError, OSError, TypeError) as e:
        _err(str(e))
        return EXIT_USAGE
    if not _make_dir(Path(args.out_dir) / "audio"):
        return EXIT_USAGE
    try:
        entries = dataset.build_dataset(
            pairs, dist, window, params, seed, args.out_dir, jobs=args.jobs
        )
    except IoFailure as e:  # the manifest write
        _err(str(e))
        return EXIT_FAILURE
    failed = sum(1 for e in entries if e.failed)
    print(f"{len(entries) - failed} built, {failed} failed")
    for entry in entries:
        if entry.failed:
            print(f"failed {entry.id}: {entry.error}", file=sys.stderr)
    return EXIT_FAILURE if failed else EXIT_OK


def cmd_embed_mock(args):
    audio_dir = Path(args.audio_dir)
    if not audio_dir.is_dir():
        _err(f"not a directory: {args.audio_dir}")
        return EXIT_USAGE
    for flag, value in (("--dim", args.dim), ("--latent-dim", args.latent_dim)):
        if value < 1:
            _err(f"{flag} must be >= 1, got {value}")
            return EXIT_USAGE
    if not _make_dir(Path(args.out_store)):
        return EXIT_USAGE
    try:
        out = store.EmbeddingStore(args.out_store)
    except (MorphmixError, OSError) as e:
        _err(str(e))
        return EXIT_USAGE
    failures = 0
    with out.batch():
        for wav_path in sorted(audio_dir.glob("*.wav")):
            clip_id = wav_path.stem
            try:
                w = load_wav(wav_path)
                lat = short = None
                if args.latents:
                    try:
                        lat = metrics.mock_latents(w, dim=args.latent_dim)
                    except TooShort as e:
                        short = e  # the embedding is still stored
                emb = metrics.mock_embed(w, dim=args.dim, latents=lat)
                out.put(clip_id, emb.values[None, :])
                if lat is not None:
                    out.put(f"{clip_id}.latents", lat.data)
                if short is not None:
                    raise short
            except MorphmixError as e:
                failures += 1
                print(f"failed {wav_path.name}: {e}", file=sys.stderr)
    print(f"{len(out.ids())} entries written")
    return EXIT_FAILURE if failures else EXIT_OK


def cmd_eval(args):
    for path in (args.clips, args.reference):
        if not Path(path).exists():
            _err(f"file not found: {path}")
            return EXIT_USAGE
    try:
        clips = evaluate.load_eval_clips(args.clips)
        emb_store = store.EmbeddingStore(args.store)
        reference = store.read_gaussian_stats(args.reference)
        params = metrics.DirectionalityParams(temperature=args.temperature)
    except (MorphmixError, ValueError, OSError, KeyError, TypeError) as e:
        _err(str(e))
        return EXIT_USAGE
    try:
        row = evaluate.evaluate_corpus(
            clips, emb_store, reference, params, model_name=args.model_name,
            on_error=lambda cid, e: print(f"excluded {cid}: {e}", file=sys.stderr),
        )
    except MorphmixError as e:
        _err(str(e))
        return EXIT_FAILURE
    report = evaluate.render_report([row], fmt=args.format)
    if args.out:
        try:
            Path(args.out).write_text(report, encoding="utf-8")
        except OSError as e:
            _err(f"cannot write report: {e}")
            return EXIT_FAILURE
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
                   help="process channels independently instead of downmixing to mono")
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
