import numpy as np
import pytest

from aer.config import RunConfig
from aer.engine import run_single, train_reference

BENCH_SEEDS = (0, 1, 2, 3, 4)


class Bench:
    """Session cache of standard-benchmark runs keyed by configuration."""

    def __init__(self):
        self._suites = {}
        self._reference = None

    def reference(self):
        if self._reference is None:
            self._reference = train_reference(RunConfig().validate())
        return self._reference

    def suite(self, label, method="aer_abs", noise_rate=0.4,
              alpha=75.0, consolidation="none", seeds=BENCH_SEEDS, tasks=5):
        if label not in self._suites:
            cfg = RunConfig(method=method, noise_rate=noise_rate, alpha=alpha,
                            consolidation=consolidation, seeds=seeds,
                            tasks=tasks).validate()
            self._suites[label] = [
                run_single(cfg, s, reference_model=self.reference())
                for s in seeds
            ]
        return self._suites[label]


@pytest.fixture(scope="session")
def bench():
    return Bench()


def median_faa(records):
    return float(np.median([r.faa() for r in records]))


def median_purity(records):
    return float(np.median([r.final_purity for r in records]))
