"""morphmix benchmark: one workload per run, driven through ``morphmix.cli.main``.

    python3 perfbench/run.py --workload build --seed 1 --seconds 28 --trace 0

Workloads (each pass is one CLI command, closed loop, one process; ``build``
uses two worker threads):

- ``build``: ``morphmix build --jobs 2`` over 18 pairs, 1 to 12 s primaries,
  one of prime length; spends its time in dsp FFTs, kernels and WAV I/O.
- ``embed``: ``morphmix embed-mock --latents`` over 300 clips under 1.3 s;
  splits between log-mel framing and store writes.
- ``eval``: ``morphmix eval`` over 1000 clips in a store filled at set-up;
  store reads, the small metrics and the evaluator, no audio.

The corpus comes from ``--seed`` and is generated inside the checkout (under
``.perfbench_work/``, removed afterwards). With ``--trace 0`` the last line
of stdout carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics from spans recorded around the program's public functions; lines
before it record the environment, the corpus and every metric with its unit.
The exit code is 1 when any output fails its check.
"""

import argparse
import contextlib
import gc
import io
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# The load model has no threads beyond build's --jobs workers, so numpy's BLAS
# runs single-threaded; this must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

CHECKOUT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3

# corpus size: build pairs per mode, embed clips, eval clips
WORKLOADS = {"build": 6, "embed": 300, "eval": 1000}
BUILD_JOBS = 2


def import_program():
    """Import morphmix from this checkout's src/, never from an installed copy."""
    src = CHECKOUT / "src"
    if not (src / "morphmix" / "__init__.py").is_file():
        raise SystemExit(f"error: no morphmix sources under {src}")
    sys.path.insert(0, str(src))
    import morphmix

    if Path(morphmix.__file__).resolve().parent != (src / "morphmix").resolve():
        raise SystemExit(f"error: imported morphmix from {morphmix.__file__}, not {src}")
    return morphmix


def environment():
    import numpy as np
    from morphmix import kernels

    env = {"nproc": len(os.sched_getaffinity(0)), "cpu": platform.processor() or "unknown",
           "l3": "unknown", "python": platform.python_version(), "numpy": np.__version__,
           "have_numba": kernels.HAVE_NUMBA}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        env["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    return env


def in_child(fn, *args):
    """fn(*args) in a forked child; returns its result or raises RuntimeError.

    Set-up and output checks run here, so that the memory they take never
    counts toward this process's peak RSS, which then covers the program's
    passes and the imports only.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 0
        try:
            os.close(read_fd)
            try:
                payload = (True, fn(*args))
            except Exception:
                payload = (False, traceback.format_exc())
            with os.fdopen(write_fd, "wb") as f:
                pickle.dump(payload, f)
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as f:
        blob = f.read()
    _, status = os.waitpid(pid, 0)
    if not blob:
        raise RuntimeError(f"child exited with status {status} and no result")
    ok, value = pickle.loads(blob)
    if not ok:
        raise RuntimeError(f"child failed:\n{value}")
    return value


class Workload:
    """Corpus set-up, the CLI arguments of one pass, and its output check."""

    def __init__(self, name, seed, size):
        self.name, self.seed, self.size = name, seed, size
        self.digests = {}

    def setup(self, root, trace):
        """Make the corpus in a child; returns the set-up spans if trace is set."""
        import corpus
        import spans

        def make():
            tracer = spans.Tracer()
            with spans.instrument(tracer) if trace else contextlib.nullcontext():
                made = corpus.CORPORA[self.name](self.seed, root, self.size)
            return made, tracer.spans

        self.corpus, setup_spans = in_child(make)
        return setup_spans

    def argv(self, out):
        c = self.corpus
        if self.name == "build":
            return ["build", str(c["pairs"]), "--out-dir", str(out),
                    "--seed", str(self.seed), "--jobs", str(BUILD_JOBS)]
        if self.name == "embed":
            return ["embed-mock", str(c["audio_dir"]), "--out-store", str(out), "--latents"]
        return ["eval", str(c["clips"]), "--store", str(c["store"]), "--reference",
                str(c["reference"]), "--format", "csv", "--out", str(out)]

    @contextlib.contextmanager
    def capture(self):
        """Keep the EvalRow that ``eval`` computes; the CLI prints only the rounded report."""
        from morphmix import evaluate

        seen = {}
        original = evaluate.evaluate_corpus

        def keep_row(*args, **kwargs):
            seen["row"] = original(*args, **kwargs)
            return seen["row"]

        if self.name == "eval":
            evaluate.evaluate_corpus = keep_row
        try:
            yield seen
        finally:
            evaluate.evaluate_corpus = original

    def failed(self, out, code, seen):
        """Number of items of one pass that did not yield a correct output."""
        if code != 0:
            return self.corpus["stats"]["items"]
        failed, self.digests = in_child(self._check, out, seen.get("row"))
        return failed

    def _check(self, out, row):
        import checks
        from morphmix.dsp import AugmentParams

        if self.name == "build":
            peak = AugmentParams().output_peak  # the CLI runs with default parameters
            failed = checks.check_build(self.corpus, out, self.seed, peak, self.digests)
            return len(failed), self.digests
        if self.name == "embed":
            return len(checks.check_embed(self.corpus, out)), self.digests
        return checks.check_eval(self.corpus, row, out), self.digests


def run_pass(wl, out, tracer=None):
    """One CLI command; returns (seconds, failed items, spans or None)."""
    from morphmix import cli

    import spans

    traced = spans.instrument(tracer) if tracer else contextlib.nullcontext()
    sink = io.StringIO()
    with traced, wl.capture() as seen, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        gc.collect()  # no garbage from the last pass is collected inside this one
        span = tracer.open("cli.main") if tracer else None
        t0 = time.perf_counter()
        try:
            code = cli.main(wl.argv(out))
        except Exception:  # an errored pass counts all its items as failed
            code = -1
            traceback.print_exc(file=sys.__stderr__)
        elapsed = time.perf_counter() - t0
        if span:
            tracer.close(span)
    failed = wl.failed(out, code, seen)
    if failed:
        print(f"{wl.name}: {failed} items failed (exit {code})\n{sink.getvalue()[-2000:]}",
              file=sys.stderr)
    if out.is_dir():
        shutil.rmtree(out)
    else:
        out.unlink(missing_ok=True)
    return elapsed, failed, tracer.spans if tracer else None


def run_workload(name, seed, seconds, trace, work, size=None):
    """Set up, warm up and measure one workload; returns (result, info)."""
    import spans

    wl = Workload(name, seed, WORKLOADS[name] if size is None else size)
    out = work / ("report.csv" if name == "eval" else "out")
    setup_s, setup_spans = [], []
    for _ in range(1 if trace else SETUP_REPEATS):
        shutil.rmtree(work / "corpus", ignore_errors=True)
        t0 = time.perf_counter()
        setup_spans = wl.setup(work / "corpus", trace)
        setup_s.append(time.perf_counter() - t0)
    items = wl.corpus["stats"]["items"]

    _, failed, _ = run_pass(wl, out)  # warm-up: imports, caches, first-call costs
    attempted = items
    plain, traced, per_pass = [], [], []
    while not plain or sum(plain) + sum(traced) < seconds:
        elapsed, f, _ = run_pass(wl, out)
        plain.append(elapsed)
        failed += f
        attempted += items
        if trace:
            elapsed, f, pass_spans = run_pass(wl, out, spans.Tracer())
            traced.append(elapsed)
            failed += f
            attempted += items
            per_pass.append(spans.layer_metrics(setup_spans + pass_spans, BUILD_JOBS))

    info = {"workload": name, "seed": seed, "corpus": wl.corpus["stats"],
            "passes": len(plain), "pass_s_max": max(plain),
            "failed_frac": failed / attempted,
            "audio_s_per_s": wl.corpus["stats"]["audio_s"] / statistics.median(plain)}
    if trace:
        metrics, mismatched = spans.combine(per_pass)
        metrics["trace.overhead_frac"] = spans.overhead_frac(traced, plain)
        info["traced_passes"] = len(traced)
        if mismatched:
            print(f"warning: counts differ between passes: {mismatched}", file=sys.stderr)
        units = {}
    else:
        metrics = {
            "items_per_s": items / statistics.median(plain),
            "pass_s_p50": statistics.median(plain),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"items_per_s": "1/s", "pass_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k) or unit_of(k)} for k, v in metrics.items()},
    }
    return result, info


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    units = {"calls": "count", "points": "count", "index_bytes_written": "bytes",
             "reads_per_clip": "count", "mb_per_s": "MB/s", "ms_per_audio_s": "ms/s",
             "p50_ms": "ms", "p99_ms": "ms"}
    return units.get(last, "s" if last.endswith("_s") else "ratio")


def main(argv=None):
    parser = argparse.ArgumentParser(description="morphmix end-to-end and per-layer benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="summed wall time of the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import_program()
    env = environment()
    work = CHECKOUT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, info = run_workload(args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    print("env: " + json.dumps(env))
    print("run: " + json.dumps(info))
    shown = dict(result["metrics"])
    if not args.trace and info["audio_s_per_s"]:
        shown["audio_s_per_s"] = {"value": info["audio_s_per_s"], "unit": "s/s"}
    if not args.trace:
        shown["failed_frac"] = {"value": info["failed_frac"], "unit": "ratio"}
    for name, m in shown.items():
        print(f"{name:45s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
