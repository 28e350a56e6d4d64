import re

from hypothesis import settings

# Every run draws the same examples: no random seed, no replay of saved
# failures, and no per-example deadline for a loaded machine to trip.
settings.register_profile("tier1", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("tier1")

ACCEPTANCE_LABELS = {
    1: "gap certificate below 3% on every epsilon-branch exit",
    2: "bisection iteration bounds (28 overall; 20 at 20 dB; 12 at 45 dB)",
    3: "solver matches the exhaustive oracle on 200 small instances",
    4: "beamforming protocol dominates the relay-only benchmark",
    5: "closed-form power split beats a dense simplex grid search",
    6: "distance-sweep shape properties (ordering, gap, pairing peak)",
    7: "subgradient is nondecreasing in the multiplier",
    8: "experiments re-run byte-identically",
}

_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    outcomes = {}
    for key, verdict in (("passed", "PASS"), ("failed", "FAIL"),
                         ("error", "FAIL"), ("skipped", "SKIP")):
        for rep in terminalreporter.stats.get(key, []):
            m = _PATTERN.search(getattr(rep, "nodeid", ""))
            if m and getattr(rep, "when", "call") in ("call", "collect"):
                outcomes[int(m.group(1))] = verdict
    if outcomes:
        terminalreporter.write_sep("=", "acceptance criteria")
        for n in sorted(outcomes):
            label = ACCEPTANCE_LABELS.get(n, "")
            terminalreporter.write_line(
                f"ACCEPTANCE {n}: {outcomes[n]} - {label}")
