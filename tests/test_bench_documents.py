"""The benchmark's own documents: the report of each workload at the
manifest's default seed must hash to the manifest's report_sha256.

perfbench/gen.py is stdlib-only and never imports crossedext, so the
documents are generated here exactly as the benchmark generates them."""
import hashlib
import json
from pathlib import Path

import pytest

from crossedext.cli import main
from support import perfbench_gen

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MANIFEST = json.loads((PERFBENCH / "manifest.json").read_text())


@pytest.mark.parametrize("workload", ["crossed-mix", "ladder-q", "ladder-fp"])
def test_benchmark_report_bytes_match_manifest(workload, tmp_path, capsys):
    text, extra, _ = perfbench_gen().generate(workload,
                                              MANIFEST["default_seed"])
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    main(["report", "--input", str(doc), "--format", "json"] + extra)
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == \
        MANIFEST["workloads"][workload]["report_sha256"]
