"""Tests of the benchmark's own checks: the result schema, the self-time
accounting of traced runs, and the summary line.

    python3 -m unittest discover -s perfbench/tests

The end-to-end cases run the built benchmark binary (a traced refit run of
one second, and the set-up probe of every workload) and are skipped until
perfbench/run.py has built it.
"""

import copy
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import run  # noqa: E402


def sample_document(trace=1):
    return {
        "workload": "refit", "seed": 7, "trace": trace, "seconds": 1.0,
        "correct": True, "attempted": 9, "failed": 0, "mismatches": [],
        "metrics": {
            "model.clean.self_s": {"value": 1.5, "unit": "s"},
            "codesign.self_s": {"value": 0.01, "unit": "s"},
            "pipeline.other_s": {"value": 0.001, "unit": "s"},
            "pass_s": {"value": 1.2, "unit": "s", "q1": 1.1, "q3": 1.3, "n": 6},
        },
        "info": {"trace.wall_s": 1.511, "compiler": "12.2.0"},
        "meta": {
            "nproc": 4, "hardware_concurrency": 4, "cpu_model": "cpu",
            "compiler": "g++ 12.2.0", "build_type": "RelWithDebInfo",
            "git_sha": None, "git_dirty": None, "source_digest": "ab",
            "seed": 7, "warmups": 1, "repeats": 1,
        },
    }


class SchemaTest(unittest.TestCase):
    def setUp(self):
        with open(run.SCHEMA) as handle:
            self.schema = json.load(handle)

    def test_sample_document_is_valid(self):
        self.assertEqual(run.validate(sample_document(), self.schema), [])

    def test_rejects_missing_meta_field(self):
        document = sample_document()
        del document["meta"]["build_type"]
        self.assertTrue(run.validate(document, self.schema))

    def test_rejects_metric_without_unit(self):
        document = sample_document()
        del document["metrics"]["pass_s"]["unit"]
        self.assertTrue(run.validate(document, self.schema))

    def test_rejects_non_finite_and_null_values(self):
        for bad in (float("nan"), None, "1.0"):
            document = sample_document()
            document["metrics"]["pass_s"]["value"] = bad
            self.assertTrue(run.validate(document, self.schema), bad)

    def test_rejects_unknown_workload_and_zero_attempts(self):
        document = sample_document()
        document["workload"] = "other"
        self.assertTrue(run.validate(document, self.schema))
        document = sample_document()
        document["attempted"] = 0
        self.assertTrue(run.validate(document, self.schema))


class AccountingTest(unittest.TestCase):
    def test_balanced_trace_passes(self):
        self.assertEqual(run.accounting_errors(sample_document()), [])

    def test_missing_time_is_reported(self):
        document = sample_document()
        document["metrics"]["model.clean.self_s"]["value"] = 1.2
        self.assertTrue(run.accounting_errors(document))

    def test_double_counted_time_is_reported(self):
        document = sample_document()
        document["metrics"]["codesign.self_s"]["value"] = 0.2
        self.assertTrue(run.accounting_errors(document))

    def test_time_left_to_the_root_span_is_reported(self):
        # Layer self times plus pipeline.other_s still equal the wall time;
        # the check fails because the layers leave 0.2 s uncovered.
        document = sample_document()
        document["metrics"]["model.clean.self_s"]["value"] = 1.3
        document["metrics"]["pipeline.other_s"]["value"] = 0.201
        self.assertTrue(run.accounting_errors(document))

    def test_untraced_runs_are_not_checked(self):
        document = sample_document(trace=0)
        document["info"] = {}
        self.assertEqual(run.accounting_errors(document), [])


class SummaryLineTest(unittest.TestCase):
    def test_holds_exactly_the_declared_metrics(self):
        line = run.summary_line(sample_document(), ["pass_s"])
        self.assertEqual(sorted(line), ["attempted", "correct", "failed", "metrics"])
        self.assertEqual(line["metrics"], {"pass_s": {"value": 1.2, "unit": "s"}})

    def test_missing_declared_metric_raises(self):
        with self.assertRaises(KeyError):
            run.summary_line(sample_document(), ["serve_p99_us"])

    def test_declared_metrics_exist_in_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
            bench = json.load(handle)
        self.assertIn("setup_s", [m["name"] for m in bench["end_to_end"]])
        self.assertEqual(bench["paths"], ["perfbench"])


@unittest.skipUnless(os.path.exists(run.BINARY), "benchmark binary not built yet")
class EndToEndTest(unittest.TestCase):
    def test_traced_refit_run_is_valid_and_accounts_for_its_time(self):
        os.makedirs(run.RUN_DIR, exist_ok=True)
        completed = subprocess.run(
            [run.BINARY, "--workload", "refit", "--seed", "3", "--seconds", "1",
             "--trace", "1", "--data", run.DATA_DIR,
             "--scratch", os.path.relpath(run.RUN_DIR, run.ROOT), "--threads", "2"],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=170, check=True)
        document = json.loads(completed.stdout.strip().splitlines()[-1])
        self.assertTrue(document["correct"], document["mismatches"])
        document["meta"] = copy.deepcopy(sample_document()["meta"])
        with open(run.SCHEMA) as handle:
            self.assertEqual(run.validate(document, json.load(handle)), [])
        self.assertEqual(run.accounting_errors(document), [])
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
            declared = [m["name"] for m in json.load(handle)["per_layer"]]
        run.summary_line(document, declared)

    def test_setup_probe_reports_ready_for_every_workload(self):
        # setup_s times these children from spawn to their "ready" line.
        os.makedirs(run.RUN_DIR, exist_ok=True)
        for workload in ("campaign", "refit", "serve"):
            completed = subprocess.run(
                [run.BINARY, "--setup-probe", "--workload", workload, "--data", run.DATA_DIR,
                 "--scratch", os.path.relpath(run.RUN_DIR, run.ROOT), "--threads", "2"],
                cwd=run.ROOT, stdout=subprocess.PIPE, text=True, timeout=60, check=True)
            word, clock = completed.stdout.split()
            self.assertEqual(word, "ready", workload)
            self.assertGreater(int(clock), 0, workload)


if __name__ == "__main__":
    unittest.main()
