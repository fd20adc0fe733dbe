"""Self-tests of the benchmark: corpus determinism, the output checks, exact
counts across traced runs, and the span arithmetic.

    python3 perfbench/selftest.py

They use corpora a few items large and take about half a minute.
"""

import contextlib
import hashlib
import json
import shutil
import struct
import tempfile
import threading
import unittest
from pathlib import Path

import run

run.import_program()

import checks  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402

SMALL = {"build": 1, "embed": 12, "eval": 30}


class WorkDir(unittest.TestCase):
    def setUp(self):
        parent = run.CHECKOUT / ".perfbench_work"
        parent.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="selftest-", dir=parent))

    def tearDown(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()


def tree_digest(root):
    h = hashlib.sha256()
    for f in sorted(p for p in Path(root).rglob("*") if p.is_file()):
        h.update(str(f.relative_to(root)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()


class CorpusTest(WorkDir):
    def generate(self, name, seed):
        root = self.work / "corpus"
        shutil.rmtree(root, ignore_errors=True)
        stats = corpus.CORPORA[name](seed, root, SMALL[name])["stats"]
        return tree_digest(root), stats

    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for name in SMALL:
            with self.subTest(workload=name):
                first, stats = self.generate(name, 7)
                again, stats_again = self.generate(name, 7)
                other, stats_other = self.generate(name, 8)
                self.assertEqual(first, again)
                self.assertEqual(stats, stats_again)
                self.assertNotEqual(first, other)
                # the seed changes the content, never the amount of work
                self.assertEqual(stats["items"], stats_other["items"])
                self.assertEqual(stats["audio_s"], stats_other["audio_s"])

    def test_wav_codec_round_trip(self):
        x = corpus.synth(corpus.rng_for(1, 2), 1001, 2)
        for enc, tol in (("pcm16", 2 ** -15), ("pcm24", 2 ** -23), ("float32", 1e-7)):
            y, sr = corpus.decode_wav(corpus.encode_wav(x, enc))
            self.assertEqual((y.shape, sr), (x.shape, corpus.SR))
            self.assertLessEqual(abs(y - x).max(), tol)


class CheckerTest(WorkDir):
    def one_pass(self, name):
        wl = run.Workload(name, 3, SMALL[name])
        wl.setup(self.work / "corpus", trace=False)
        out = self.work / "out"
        from morphmix import cli

        with open(self.work / "log", "w") as log, contextlib.redirect_stdout(log), \
                contextlib.redirect_stderr(log):
            self.assertEqual(cli.main(wl.argv(out)), 0)
        return wl, out

    def test_build_checker_flags_truncated_wav_and_nan(self):
        wl, out = self.one_pass("build")
        check = lambda: checks.check_build(wl.corpus, out, 3, 0.95, {})  # noqa: E731
        self.assertEqual(check(), set())
        first, second = sorted(wl.corpus["expected"])[:2]

        wav = out / "audio" / f"{first}.wav"
        wav.write_bytes(wav.read_bytes()[:-400])
        self.assertEqual(check(), {first})

        wav = out / "audio" / f"{second}.wav"
        samples, _ = corpus.decode_wav(wav.read_bytes())
        samples[0, 100] = float("nan")
        wav.write_bytes(corpus.encode_wav(samples, "float32"))
        self.assertEqual(check(), {first, second})

    def test_build_checker_flags_a_pass_that_differs_from_the_first(self):
        wl, out = self.one_pass("build")
        digests = {}
        self.assertEqual(checks.check_build(wl.corpus, out, 3, 0.95, digests), set())
        pid = sorted(wl.corpus["expected"])[0]
        wav = out / "audio" / f"{pid}.wav"
        samples, _ = corpus.decode_wav(wav.read_bytes())
        wav.write_bytes(corpus.encode_wav(samples * 0.5, "float32"))
        self.assertEqual(checks.check_build(wl.corpus, out, 3, 0.95, digests), {pid})

    def test_embed_checker_flags_missing_index_entry(self):
        wl, out = self.one_pass("embed")
        self.assertEqual(checks.check_embed(wl.corpus, out), set())
        index = json.loads((out / "index.json").read_text())
        cid = sorted(wl.corpus["expected"])[4]
        del index["entries"][cid]
        (out / "index.json").write_text(json.dumps(index))
        self.assertEqual(checks.check_embed(wl.corpus, out), {cid})

    def test_embed_checker_flags_wrong_latent_shape(self):
        wl, out = self.one_pass("embed")
        cid = sorted(wl.corpus["expected"])[0]
        path = out / f"{cid}.latents.mxeb"
        blob = path.read_bytes()
        t, d = struct.unpack("<II", blob[5:13])
        path.write_bytes(blob[:5] + struct.pack("<II", t - 1, d) + blob[13:13 + 4 * (t - 1) * d])
        self.assertEqual(checks.check_embed(wl.corpus, out), {cid})

    def test_eval_checker_flags_wrong_count_and_nonfinite_row(self):
        wl, out = self.one_pass("eval")
        n = wl.corpus["n_clips"]
        from morphmix.evaluate import EvalRow

        good = EvalRow("model", 0.5, 0.5, 0.5, 0.1, 1.0, count=n)
        self.assertEqual(checks.check_eval(wl.corpus, good, out), 0)
        self.assertEqual(checks.check_eval(wl.corpus, EvalRow(
            "model", 0.5, 0.5, 0.5, 0.1, 1.0, count=n - 2, excluded=2), out), 2)
        self.assertEqual(checks.check_eval(wl.corpus, EvalRow(
            "model", float("nan"), 0.5, 0.5, 0.1, 1.0, count=n), out), n)
        self.assertEqual(checks.check_eval(wl.corpus, EvalRow(
            "model", 0.5, 0.5, 0.5, 0.1, 1.0, count=n - 1), out), n)


class InChildTest(unittest.TestCase):
    def test_child_memory_stays_out_of_the_parent_peak_rss(self):
        import resource

        import numpy as np

        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.assertEqual(run.in_child(lambda: float(np.ones(10_000_000).sum())), 1e7)
        self.assertLess(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before, 40_000)

    def test_child_exception_reaches_the_parent(self):
        with self.assertRaisesRegex(RuntimeError, "ZeroDivisionError"):
            run.in_child(lambda: 1 / 0)


class ExactCountTest(WorkDir):
    def test_exact_counts_repeat_across_two_traced_runs(self):
        for name in SMALL:
            with self.subTest(workload=name):
                runs = []
                for k in range(2):
                    work = self.work / f"{name}{k}"
                    work.mkdir()
                    result, _ = run.run_workload(name, 5, 0, 1, work, SMALL[name])
                    self.assertTrue(result["correct"])
                    runs.append({m: v["value"] for m, v in result["metrics"].items()
                                 if spans.is_exact(m)})
                self.assertEqual(runs[0], runs[1])
                expect_nonzero = {
                    "build": ("dsp.fft.calls", "dsp.fft.points", "audio_io.save_wav.calls"),
                    "embed": ("metrics.fft.calls", "store.index_bytes_written", "store.put.calls"),
                    "eval": ("evaluate.reads_per_clip", "store.read_mxeb.calls"),
                }[name]
                for m in expect_nonzero:
                    self.assertGreater(runs[0][m], 0, m)
                if name == "eval":
                    self.assertEqual(runs[0]["evaluate.reads_per_clip"], 7)


class SpanArithmeticTest(unittest.TestCase):
    def tree(self):
        root = spans.Span("cli.main", 0.0, 12.0, thread=1)
        build = spans.Span("dataset.build_dataset", 1.0, 11.0, root, thread=1)
        kids = [
            # two worker threads; their intervals overlap each other
            spans.Span("audio_io.load_wav", 2.0, 5.0, build, thread=2, attrs={"bytes": 3e6}),
            spans.Span("audio_io.load_wav", 4.0, 7.0, build, thread=3, attrs={"bytes": 3e6}),
            spans.Span("audio_io.load_wav", 9.0, 10.0, build, thread=2, attrs={"bytes": 1e6}),
            # starts before its parent: only the part inside the parent is covered
            spans.Span("audio_io.load_wav", 0.5, 1.5, build, thread=3, attrs={"bytes": 1e6}),
        ]
        return [root, build, *kids]

    def test_self_time_subtracts_the_union_of_overlapping_children(self):
        all_spans = self.tree()
        root, build = all_spans[:2]
        kids = spans.children_of(all_spans)
        # children cover [1, 1.5] + [2, 7] + [9, 10] = 6.5 of the 10 s
        self.assertAlmostEqual(spans.self_time(build, kids), 3.5)
        self.assertAlmostEqual(spans.self_time(root, kids), 2.0)
        self.assertAlmostEqual(spans.union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]), 3.0)

    def test_parallel_efficiency_and_overhead(self):
        all_spans = self.tree()
        build = all_spans[1]
        kids = spans.children_of(all_spans)
        self.assertAlmostEqual(spans.parallel_efficiency(build, kids, 2), 8.0 / 20.0)
        m = spans.layer_metrics(all_spans, jobs=2)
        self.assertAlmostEqual(m["dataset.self_s"], 3.5)
        self.assertAlmostEqual(m["dataset.parallel_efficiency"], 0.4)
        self.assertAlmostEqual(m["cli.self_s"], 2.0)
        self.assertEqual(m["audio_io.load_wav.calls"], 4)
        self.assertAlmostEqual(m["audio_io.load_wav.mb_per_s"], 8.0 / 8.0)
        self.assertAlmostEqual(spans.overhead_frac([1.3, 1.1, 1.2], [1.0, 0.9, 1.1]), 0.2)

    def test_worker_thread_spans_attach_to_the_open_span_of_the_creating_thread(self):
        tracer = spans.Tracer()
        outer = tracer.open("dataset.build_dataset")
        worker = threading.Thread(target=lambda: tracer.close(tracer.open("dsp.rms_envelope")))
        worker.start()
        worker.join(timeout=10)
        self.assertFalse(worker.is_alive())
        tracer.close(outer)
        inner = next(s for s in tracer.spans if s.name == "dsp.rms_envelope")
        self.assertIs(inner.parent, outer)
        self.assertNotEqual(inner.thread, outer.thread)


if __name__ == "__main__":
    unittest.main()
