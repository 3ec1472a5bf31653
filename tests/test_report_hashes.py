"""The report is the contract: the `report --format json` bytes and exit
status of the benchmark's documents are pinned by tests/report_hashes.txt,
lines of scripts/report_hashes.py in blocks headed `# WORKLOAD FIRST LAST
[--field SPEC]`.  Each document is regenerated with perfbench/gen.py and
reported by `cli.main` in this process, a crossed-mix document once for
each field."""
import contextlib
import functools
import hashlib
import io
from pathlib import Path

import pytest

from crossedext import cli
from support import perfbench_gen

HASHES = Path(__file__).resolve().parent / "report_hashes.txt"


def _blocks():
    """{(workload, field args): [(seed, sha256, exit status)]}."""
    blocks, key = {}, None
    for line in HASHES.read_text().splitlines()[1:]:
        if line.startswith("# "):
            workload, _, _, *field = line[2:].split()
            key = blocks.setdefault((workload, tuple(field)), [])
        else:
            seed, digest, status = line.split()
            key.append((int(seed), digest, int(status)))
    return blocks


BLOCKS = _blocks()


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    """(path, generator arguments) of a workload's document for a seed,
    generated once."""
    tmp = tmp_path_factory.mktemp("docs")

    @functools.cache
    def doc(workload, seed):
        text, extra, _ = perfbench_gen().generate(workload, seed)
        path = tmp / f"{workload}-{seed}.json"
        path.write_text(text)
        return str(path), extra
    return doc


@pytest.mark.parametrize("block", sorted(BLOCKS),
                         ids=lambda b: " ".join((b[0], *b[1])))
def test_report_bytes_match_the_pinned_hashes(block, docs):
    workload, field = block
    got = []
    for seed, _, _ in BLOCKS[block]:
        path, extra = docs(workload, seed)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(["report", "--input", path, "--format", "json",
                               *extra, *field])
        got.append((seed, hashlib.sha256(out.getvalue().encode()).hexdigest(),
                    status))
    assert got == BLOCKS[block]
