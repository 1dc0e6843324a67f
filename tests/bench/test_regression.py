"""Performance-regression baseline harness."""

import json

from repro.bench.regression import check_baseline, measure_baseline
from repro.bench.reporting import save_document

_FAST = (("wrn-40-2", "orpheus", 16),)


class TestBaseline:
    def test_measure_structure(self):
        document = measure_baseline(_FAST, repeats=2, warmup=1)
        entry = document["entries"]["wrn-40-2/orpheus/16"]
        assert entry["median_ms"] > 0
        assert entry["best_ms"] <= entry["median_ms"]
        assert document["repeats"] == 2

    def test_save_and_check_within_tolerance(self, tmp_path):
        path = str(tmp_path / "perf.json")
        save_document(path, measure_baseline(_FAST, repeats=3, warmup=1))
        report = check_baseline(path, tolerance=3.0, repeats=3, warmup=1)
        assert report.ok
        assert report.checked == 1
        assert "within tolerance" in report.summary() or report.improvements

    def test_regression_detected(self, tmp_path):
        path = str(tmp_path / "perf.json")
        document = measure_baseline(_FAST, repeats=2, warmup=1)
        save_document(path, document)
        # Forge an impossibly fast baseline: the re-measurement must flag it.
        for entry in document["entries"].values():
            entry["median_ms"] = 1e-6
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        report = check_baseline(path, tolerance=0.25, repeats=1, warmup=0)
        assert not report.ok
        assert report.regressions[0].ratio > 100
        assert "REGRESSION" in report.summary()

    def test_improvement_detected(self, tmp_path):
        path = str(tmp_path / "perf.json")
        document = measure_baseline(_FAST, repeats=2, warmup=1)
        save_document(path, document)
        for entry in document["entries"].values():
            entry["median_ms"] = 1e9  # forged terrible baseline
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        report = check_baseline(path, tolerance=0.25, repeats=1, warmup=0)
        assert report.ok  # improvements are not failures
        assert report.improvements
        assert "improved" in report.summary()
