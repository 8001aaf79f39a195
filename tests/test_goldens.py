"""Golden outputs of two CLI runs, regenerated and compared.

* ``golden/monitor_report.json`` — the full ``repro-monitor-v1`` report
  of ``repro monitor --sf 0.0005 --monitor-streams 2 --format json
  --stat-records``, compared byte for byte.
* ``golden/power_trace.json`` — from ``repro trace power --release 3.0
  --sf 0.0005 --format=json`` (≈625 KB), each variant's ``analysis``
  section in full plus a sha256 of its span tree.

Regenerate after a deliberate change with::

    PYTHONPATH=src python tests/test_goldens.py
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

MONITOR_ARGS = ["monitor", "--sf", "0.0005", "--monitor-streams", "2",
                "--format", "json", "--stat-records"]
TRACE_ARGS = ["trace", "power", "--release", "3.0", "--sf", "0.0005",
              "--format=json"]


def _repro(args: list[str]) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "repro", *args], env=env,
                          check=True, capture_output=True, text=True,
                          timeout=600).stdout


def monitor_report() -> str:
    return _repro(MONITOR_ARGS)


def power_trace_digest() -> str:
    """The trace document reduced to analyses plus span-tree hashes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "trace.json"
        _repro([*TRACE_ARGS, "--trace-out", str(out)])
        document = json.loads(out.read_text())
    variants = {}
    for name, variant in document["variants"].items():
        spans = json.dumps(variant["trace"]["spans"], separators=(",", ":"))
        variants[name] = {
            "analysis": variant["analysis"],
            "span_count": variant["analysis"]["span_count"],
            "span_tree_sha256": hashlib.sha256(spans.encode()).hexdigest(),
        }
    digest = {"format": document["format"], "meta": document["meta"],
              "variants": variants}
    return json.dumps(digest, indent=2) + "\n"


def test_monitor_report_matches_golden():
    golden = (GOLDEN / "monitor_report.json").read_text()
    assert monitor_report() == golden


def test_power_trace_matches_golden():
    golden = json.loads((GOLDEN / "power_trace.json").read_text())
    assert json.loads(power_trace_digest()) == golden


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "monitor_report.json").write_text(monitor_report())
    (GOLDEN / "power_trace.json").write_text(power_trace_digest())
