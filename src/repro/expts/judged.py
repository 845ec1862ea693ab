"""The judged stream every streaming RESULTS family runs its cells on."""

from __future__ import annotations

from typing import Any

from repro.testbed.invariants import RunObserver, check_all
from repro.testbed.metrics import StreamingRunResult
from repro.testbed.scenarios import Scenario
from repro.testbed.streaming import StreamingSpec, run_streaming_consensus


def judged_stream(label: str, protocol: str, scenario: Scenario,
                  spec: StreamingSpec, seed: int,
                  **options: Any) -> StreamingRunResult:
    """Run one observed stream and assert every verdict :func:`check_all`
    gives it; ``label`` names the cell in the failure.  ``options`` go to
    :func:`run_streaming_consensus`."""
    observer = RunObserver()
    result = run_streaming_consensus(protocol, scenario, spec, seed=seed,
                                     observer=observer, **options)
    failed = [verdict for verdict in check_all(observer, result,
                                               scenario.timeout_s)
              if not verdict.ok]
    assert not failed, f"{label}: {failed}"
    return result
