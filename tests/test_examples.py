"""The runnable examples under ``examples/`` keep working."""

import importlib.util
import json
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_export_trace_writes_a_chrome_trace(tmp_path, capsys):
    path = tmp_path / "trace.json"
    _load("export_trace").main(str(path))
    out = capsys.readouterr().out
    assert "wrote 750 spans" in out
    simulated_ms = float(out.split("(")[1].split(" ms")[0])
    events = json.loads(path.read_text())
    spans = [e for e in events if e.get("ph") == "X"]
    assert len(spans) == 750
    # The twelve GeMMs are laid end to end, so the last span ends at
    # the block's total simulated time.
    assert min(e["ts"] for e in spans) == 0.0
    end_ms = max(e["ts"] + e["dur"] for e in spans) / 1e3
    assert round(end_ms, 2) == simulated_ms
