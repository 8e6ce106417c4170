"""Report assembly, canonical JSON, and the exit-code policy.

A report echoes the config that produced it, so re-running that
config reproduces the results byte for byte; timing fields are the
one sanctioned exception and are stripped before any comparison.

Exit codes: 0 all verifications passed; 2 a finite-backend analog of
a complex-model statement failed (real information, loudly flagged);
1 usage errors and crashes.
"""

from __future__ import annotations

import json

from . import __version__

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DIVERGENCE = 2

VOLATILE_KEYS = frozenset({"elapsed_seconds"})


def build_report(command, config, results, elapsed=None):
    report = {
        "artifact": {"name": "opgraphs", "version": __version__},
        "command": command,
        "config": config,
        "results": results,
    }
    if elapsed is not None:
        report["elapsed_seconds"] = round(elapsed, 3)
    return report


def stable_view(obj):
    """Copy with volatile (timing) keys removed at every level."""
    if isinstance(obj, dict):
        return {k: stable_view(v) for k, v in obj.items()
                if k not in VOLATILE_KEYS}
    if isinstance(obj, (list, tuple)):
        return [stable_view(x) for x in obj]
    return obj


def render(report):
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


def write_report(report, path=None):
    text = render(report)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text
