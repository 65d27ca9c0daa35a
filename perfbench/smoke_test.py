#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on tiny op lists.

    python3 perfbench/smoke_test.py

Builds the benchmark like run.py does, then checks that every metric
BENCHMARK.json names prints with its unit and with no failed op, that
a corrupted expected count is counted as a failure instead of stopping
the run, that the layer profile writes its spans file, and that a seed
fixes the op list, its order and every deterministic count while
another seed changes the order. Takes about 20 seconds.
"""

import json
import os
import re
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

PROGRAM = None
SPEC = None


def drive(workload, seed=5, trace=0, ops=12, rounds=1, corrupt=None,
          spans=None):
    """Run the benchmark; return (report lines, result object)."""
    command = [PROGRAM, "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace),
               "--golden", run.GOLDEN, "--rounds", str(rounds)]
    if ops:
        command += ["--ops", str(ops)]
    if corrupt is not None:
        command += ["--corrupt-op", str(corrupt)]
    if spans:
        command += ["--spans", spans]
    out = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    lines = out.splitlines()
    return lines, json.loads(lines[-1])


def units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def line(lines, prefix):
    """The one report line starting with @p prefix."""
    found = [l for l in lines if l.startswith(prefix)]
    assert len(found) == 1, (prefix, found)
    return found[0]


class Metrics(unittest.TestCase):
    def check_clean(self, result):
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)

    def test_every_end_to_end_metric_prints_with_its_unit(self):
        # Full op lists: the percentiles need ten ops beyond them.
        for workload in ("grid", "whatif"):
            lines, result = drive(workload, ops=0)
            self.check_clean(result)
            for name, unit in units("end_to_end").items():
                self.assertEqual(result["metrics"][name]["unit"], unit)
                self.assertRegex("\n".join(lines),
                                 r"\n  %s +\S+ %s\n" % (re.escape(name),
                                                        re.escape(unit)))

    def test_percentiles_are_withheld_without_ten_ops_beyond(self):
        lines, result = drive("record")
        self.check_clean(result)
        for name in ("op_ms_p50", "op_ms_p90"):
            self.assertNotIn(name, result["metrics"])
            self.assertIn("withheld: fewer than 10 of 12 ops",
                          line(lines, "  " + name))
        for name in ("sim_mcycles_per_s", "points_per_s", "setup_s",
                     "peak_rss_mb"):
            self.assertIn(name, result["metrics"])

    def test_layer_profile_prints_every_layer_metric_and_its_spans(self):
        spans = os.path.join(run.build_dir(), "spans", "smoke.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        if os.path.exists(spans):
            os.remove(spans)
        lines, result = drive("grid", trace=1, spans=spans)
        self.check_clean(result)
        for name, unit in units("per_layer").items():
            self.assertEqual(result["metrics"][name]["unit"], unit)
        for name in ("core.golden_mismatch", "harness.failed_jobs",
                     "critpath.inexact", "explore.bound_violations",
                     "explore.unstable", "trace_frontend.replay_mismatch"):
            self.assertEqual(result["metrics"][name]["value"], 0)
        for workload in ("grid", "whatif", "record"):
            line(lines, workload + " tracing overhead:")
        with open(spans) as f:
            events = json.load(f)["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        for name in ("core.run", "isa.decode", "harness.json",
                     "critpath.relax", "trace_frontend.read"):
            self.assertIn(name, names)


class Failures(unittest.TestCase):
    def test_a_corrupted_expected_count_is_a_failed_op(self):
        # grid and record compare with the golden grid in the warm-up
        # and in the measured round; whatif compares later passes
        # with the first.
        for workload, failed in (("grid", 2), ("record", 2),
                                 ("whatif", 1)):
            lines, result = drive(workload, corrupt=3)
            self.assertFalse(result["correct"])
            self.assertEqual(result["failed"], failed, workload)
            self.assertEqual(result["attempted"], 24)
            line(lines, workload + ": first failed check:")


class Determinism(unittest.TestCase):
    def report(self, workload, seed):
        lines, result = drive(workload, seed=seed)
        return [line(lines, workload + " ops:"),
                line(lines, workload + " first-round order:"),
                line(lines, workload + " checksum:")]

    def test_a_seed_fixes_the_op_list_and_its_counts(self):
        for workload in ("grid", "whatif", "record"):
            self.assertEqual(self.report(workload, 7),
                             self.report(workload, 7))

    def test_another_seed_changes_the_order(self):
        for workload in ("grid", "whatif", "record"):
            self.assertNotEqual(self.report(workload, 7)[1],
                                self.report(workload, 8)[1])


if __name__ == "__main__":
    PROGRAM = run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        SPEC = json.load(f)
    unittest.main()
