"""Tests of the benchmark's own code.

    python3 perfbench/selftest.py

Covers the self-time arithmetic, the percentile rule, op-list determinism
per seed, the independent oracles on small cases and that no timed pass
sees state left behind by another pass or by the warm-up.
"""

from __future__ import annotations

import ast
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402
from run import OUT_DIR, highest_percentile, percentile  # noqa: E402


def span(name, start, end, parent=-1, op=0, note=None):
    return [name, start, end, parent, op, note]


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once_and_clipped(self):
        s = [
            span("a", 0.0, 10.0),
            span("b", 1.0, 3.0, 0),
            span("c", 2.0, 5.0, 0),   # overlaps b: the union 1..5 counts once
            span("d", 8.0, 12.0, 0),  # clipped to the parent's end
            span("e", 1.5, 2.5, 1),   # a grandchild is b's business only
        ]
        self.assertEqual(spans.self_times(s), [4.0, 1.0, 3.0, 4.0, 1.0])

    def test_nested_spans_of_one_group_count_once(self):
        s = [
            span("cli.run", 0.0, 0.010),
            span("multisegments.normal_form", 0.001, 0.005, 0),
            span("multisegments.iota_at", 0.002, 0.003, 1),
            span("weyl.hom_dim", 0.005, 0.009, 0),
            span("weyl.weyl_dominant_weights", 0.006, 0.008, 3),
        ]
        m = spans.layer_metrics(s, n_ops=1, passes=1, ops_per_pass=1)
        self.assertAlmostEqual(m["multisegments.straighten_ms"], 4.0)
        self.assertAlmostEqual(m["cli.self_ms"], 2.0)
        self.assertAlmostEqual(m["weyl.self_ms"], 4.0)

    def test_counts_from_notes(self):
        s = [
            span("closures.closure", 0, 1, op=0, note=(6, 3, "[0,2][1,3][2,4]", 3)),
            span("closures.closure", 1, 2, op=0, note=(6, 3, "[0,2][1,3][2,4]", 3)),
            span("closures.closure", 2, 3, op=1, note=(6, 3, "[0,2][1,3][2,4]", 3)),
            span("qchars.fundamental_qchar", 3, 4, op=0, note=(2, 4, 10)),
            span("qchars.fundamental_qchar", 4, 5, op=1, note=(2, 4, 10)),
            span("qchars.fundamental_qchar", 5, 6, op=2, note=(2, 4, 10)),
        ]
        m = spans.layer_metrics(s, n_ops=3, passes=1, ops_per_pass=2)
        self.assertEqual(m["closures.duplicate_calls"], 1)  # only within one op
        self.assertEqual(m["closures.moves_tried"], 3 * 6 * 3)
        self.assertAlmostEqual(m["closures.move_yield"], 15 / 54)
        self.assertEqual(m["qchars.fundamental_repeats"], 1)  # op 2 is the next pass
        self.assertEqual(m["qchars.paths"], 30)

    def test_missing_names_drop_their_metrics(self):
        m = spans.layer_metrics([], 1, 1, 1, missing=["qchars.QChar.__mul__"])
        self.assertNotIn("qchars.convolve_ms", m)
        self.assertNotIn("qchars.terms_convolved", m)
        self.assertIn("qchars.fundamental_ms", m)


class Tracer(unittest.TestCase):
    def test_every_binding_is_wrapped_and_restored(self):
        from weylcalc import Multisegment, Segment, cli, closures, weyl

        original = closures.closure
        t = spans.Tracer()
        t.install(spans.PLAN + (("closures.no_such_name", None),))
        try:
            self.assertIsNot(closures.closure, original)
            self.assertIs(weyl.closure, closures.closure)
            self.assertIs(cli.closure, closures.closure)
            self.assertEqual(t.missing, ["closures.no_such_name"])
            ms = Multisegment([Segment(0, 6), Segment(2, 7), Segment(1, 8)])
            weyl.hom_dim(ms, ms, 6)
        finally:
            t.uninstall()
        self.assertIs(closures.closure, original)
        self.assertIs(weyl.closure, original)
        names = [s[0] for s in t.spans]
        self.assertEqual(names[:3], ["weyl.hom_dim", "multisegments.weight_of",
                                     "weyl.weyl_dominant_weights"])
        closure_span = next(s for s in t.spans if s[0] == "closures.closure")
        self.assertEqual(t.spans[closure_span[3]][0], "weyl.weyl_dominant_weights")
        self.assertEqual(closure_span[5][0], 2)


class Percentiles(unittest.TestCase):
    def test_rule_needs_ten_samples_beyond(self):
        self.assertIsNone(highest_percentile(19))
        self.assertEqual(highest_percentile(20), 50)
        self.assertEqual(highest_percentile(99), 50)
        self.assertEqual(highest_percentile(100), 90)
        self.assertEqual(highest_percentile(999), 90)
        self.assertEqual(highest_percentile(1000), 99)

    def test_interpolation(self):
        xs = list(range(1, 101))
        self.assertAlmostEqual(percentile(xs, 50), 50.5)
        self.assertAlmostEqual(percentile(xs, 90), 90.1)
        self.assertEqual(percentile([7.0], 90), 7.0)

    def test_every_workload_supports_p90(self):
        for w in corpus.WORKLOADS:
            self.assertGreaterEqual(highest_percentile(len(corpus.build(w, 0))), 90, w)


class Corpus(unittest.TestCase):
    def test_same_seed_same_ops(self):
        for w in corpus.WORKLOADS:
            for seed in (0, 1, 17):
                self.assertEqual(corpus.build(w, seed), corpus.build(w, seed))
            self.assertNotEqual(corpus.build(w, 0), corpus.build(w, 1))
        self.assertEqual(corpus.cold_ops(3, 5), corpus.cold_ops(3, 5))

    def test_cost_mix_does_not_depend_on_seed(self):
        for w in corpus.WORKLOADS:
            mixes = {tuple(sorted(Counter(op.cls for op in corpus.build(w, s)).items()))
                     for s in range(4)}
            self.assertEqual(len(mixes), 1, w)

    def test_repeat_shares(self):
        for seed in range(3):
            self.assertEqual(corpus.repeat_share(corpus.build("enumerate", seed)), 0)
            share = corpus.repeat_share(corpus.build("decide", seed))
            self.assertTrue(0.4 <= share <= 0.6, share)

    def test_repeats_are_translated_copies(self):
        ops = corpus.build("decide", 5)
        self.assertEqual(len(set(ops)), len(ops))

    def test_closure_order_types_fix_the_closure_size(self):
        rng = random.Random(0)
        for kind in (corpus.DENSE, corpus.NEAR):
            sizes = set()
            for _ in range(5):
                parts = corpus.order_type_tuple(rng, corpus.pattern(kind, 5), 10)
                for extra in range(3):
                    sizes.add(len(oracle.closure(parts, corpus.span(parts) + extra)))
            self.assertEqual(len(sizes), 1, kind)


class Oracle(unittest.TestCase):
    def test_closure_small_cases(self):
        self.assertEqual(oracle.closure(((0, 6), (2, 7), (1, 8)), 6),
                         [((0, 6), (2, 7), (1, 8)), ((2, 6), (0, 7), (1, 8))])
        dense = ((2, 5), (1, 4), (0, 3))
        self.assertTrue(oracle.is_dense(dense, 4))
        self.assertEqual(len(oracle.closure(dense, 4)), 6)
        self.assertEqual(oracle.closure(((0, 1),), 1), [((0, 1),)])
        # equal right endpoints swap left endpoints
        self.assertEqual(oracle.closure(((0, 3), (2, 3)), 2), [((0, 3), (2, 3)), ((2, 3), (0, 3))])

    def test_closure_agrees_with_weylcalc(self):
        from weylcalc import Multisegment, Segment, closure

        rng = random.Random(1)
        for _ in range(200):
            rank = rng.randint(1, 4)
            parts = corpus.rand_ms(rng, rank, parts=rng.randint(1, 4))
            got = closure(Multisegment(Segment(i, j) for i, j in parts), rank)
            self.assertEqual([tuple((p.i, p.j) for p in t) for t in got.members],
                             oracle.closure(tuple(parts), rank))

    def test_decompose_inverts_compose(self):
        rng = random.Random(2)
        for _ in range(200):
            rank = rng.randint(1, 5)
            coefs = corpus.rand_roots(rng, rank, rng.randint(1, 4), rng.choice([-1, 1]))
            w = corpus.compose(coefs, rank)
            self.assertEqual(oracle.decompose(tuple((i, j, e) for (i, j), e in w.items()), rank),
                             coefs)

    def test_decompose_rejects_fundamental_weights(self):
        for rank in range(1, 5):
            for ln in range(1, rank + 1):
                self.assertIsNone(oracle.decompose(((0, ln, 1),), rank))

    def test_qchar_mass(self):
        self.assertEqual(oracle.qchar_mass([(0, 1)], 2), 3)
        self.assertEqual(oracle.qchar_mass([(0, 2), (1, 1), (0, 3)], 2), 3)

    def test_check_rejects_a_wrong_output(self):
        op = corpus.Op(("closure", "--rank", "6", "[0,6][2,7][1,8]"))
        oracle.check(op, 0, "[0,6][2,7][1,8]\n[2,6][0,7][1,8]\n", "")
        with self.assertRaises(oracle.CheckFailed):
            oracle.check(op, 0, "[0,6][2,7][1,8]\n", "")
        bad = corpus.Op(("closure", "--rank", "2", "[3,1]"), exit_code=2)
        oracle.check(bad, 2, "", "error: segment [3,1] at byte 0 has j < i\n")
        with self.assertRaises(oracle.CheckFailed):
            oracle.check(bad, 1, "", "internal error: boom\n")


# Appended to a copy of qchars.py: a probe on fundamental_qchar that logs,
# for every call in a benchmark process, whether a process-level cache
# keyed by (length, rank) would already hold the result.
CACHE_PROBE = """

import os as _os
import sys as _sys

_probe_seen = set()
_probe_inner = fundamental_qchar


def fundamental_qchar(seg, rank):
    key = (seg.length, rank)
    if _sys.argv[0].endswith("run.py"):
        role = "worker" if "--worker" in _sys.argv else "parent"
        with open(_os.environ["PERFBENCH_PROBE_LOG"], "a") as f:
            f.write(f"{_os.getpid()} {role} {'hit' if key in _probe_seen else 'miss'} {key}\\n")
    _probe_seen.add(key)
    return _probe_inner(seg, rank)
"""


class FreshPasses(unittest.TestCase):
    def test_enumerate_passes_bypass_a_fundamental_cache(self):
        """Each pass runs in its own process from the same state, and
        neither the warm-up nor an earlier pass fills a cache that an
        enumerate op could hit."""
        OUT_DIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            root = Path(tmp)
            skip = shutil.ignore_patterns("__pycache__", "out")
            shutil.copytree(HERE.parent / "src", root / "src", ignore=skip)
            shutil.copytree(HERE, root / "perfbench", ignore=skip)
            qchars = root / "src" / "weylcalc" / "qchars.py"
            qchars.write_text(qchars.read_text() + CACHE_PROBE)
            log = root / "probe.log"
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "enumerate",
                 "--seconds", "1"],
                cwd=root, env=dict(os.environ, PERFBENCH_PROBE_LOG=str(log)),
                capture_output=True, text=True, timeout=300)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            self.assertTrue(json.loads(proc.stdout.splitlines()[-1])["correct"])
            calls = defaultdict(list)
            for line in log.read_text().splitlines():
                pid, role, kind, key = line.split(" ", 3)
                if role == "worker":
                    calls[pid].append((kind, ast.literal_eval(key)))
        passes = list(calls.values())
        self.assertGreaterEqual(len(passes), 2)
        for p in passes:
            self.assertEqual(p, passes[0])
        # the warm-up may repeat its own keys; no enumerate op may hit
        timed = [c for c in passes[0] if c[1][1] != corpus.WARM_RANK]
        self.assertEqual([c for c in timed if c[0] == "hit"], [])
        enumerate_calls = len(corpus.QCHAR_SINGLES) + sum(len(ls) for _, ls in corpus.PRODUCTS)
        self.assertEqual(len(timed), enumerate_calls)


if __name__ == "__main__":
    unittest.main()
