"""Every artifact's programs against digests pinned before a refactor.

``goldens/program_images.json`` holds, per artifact and algorithm, the
digest of every distinct program the artifact builds (see
``program_helpers.artifact_images``): each float to the bit, each
value's type, dict key order, capacities and metadata. The digests
were captured from the builders that charged costs activity by
activity, before programs were assembled from cost tables and
skeletons, and they do not depend on the hash seed, the build order or
whether caching is on. A build path that changes one byte of one
program fails here, naming the artifact and algorithm.

Regenerate only for an intended change of the programs themselves:
dump ``artifact_images(monkeypatch, ARTIFACTS)`` as indented JSON with
sorted keys, and review which digests moved.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from program_helpers import artifact_images

GOLDEN = Path(__file__).parent / "goldens" / "program_images.json"

ARTIFACTS = (
    "fig4", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "table2", "table3",
    "ablation-zoo", "ablation-faults", "ablation-unrolling",
    "ablation-logical-mesh",
)


def test_the_golden_covers_every_artifact():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(ARTIFACTS)


@pytest.mark.parametrize("artifact", ARTIFACTS)
def test_programs_match_the_golden(monkeypatch, artifact):
    expected = json.loads(GOLDEN.read_text())[artifact]
    actual = artifact_images(monkeypatch, [artifact])[artifact]
    mismatched = [
        f"{artifact}/{algorithm}"
        for algorithm in sorted(set(expected) | set(actual))
        if expected.get(algorithm) != actual.get(algorithm)
    ]
    assert mismatched == []
