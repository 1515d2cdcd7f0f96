"""Output corpus: the exit code, stdout and stderr of ``radica.cli.run`` on
a fixed prefix of each bench corpus, four argv forms per case, against
SHA-256 hashes stored in ``golden/output_hashes.json``.

An intended output change rewrites the stored hashes in the same change:

    PYTHONPATH=src python tests/test_output_corpus.py --write
"""

import hashlib
import importlib.util
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
HASHES = os.path.join(HERE, "golden", "output_hashes.json")
SEEDS = (1, 7)
#: cases hashed from the start of each corpus
PREFIX = 40
#: argv forms: the bench's own argv, then each flag set with ``-- text``
FORMS = {
    "bench": None,
    "radical": ("solve", "--verify", "--radical"),
    "strict": ("solve", "--paper-strict", "--verify", "--radical"),
    "complex-json": ("solve", "--field", "complex", "--verify", "--format", "json"),
}


def _load_corpus():
    """``perfbench/corpus.py``, loaded by path and left unchanged."""
    path = os.path.join(HERE, os.pardir, "perfbench", "corpus.py")
    spec = importlib.util.spec_from_file_location("_bench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # for its dataclass
    try:
        spec.loader.exec_module(corpus)
    finally:
        del sys.modules[spec.name]
    return corpus


def _digest(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()


def corpus_hashes():
    """{"workload:seed": [[hash per form] per case]}."""
    from radica.cli import run

    corpus = _load_corpus()
    hashes = {}
    for workload in corpus.WORKLOADS:
        for seed in SEEDS:
            rows = hashes[f"{workload}:{seed}"] = []
            for case in corpus.make_corpus(workload, seed)[:PREFIX]:
                text = case.argv[-1]
                rows.append(
                    [_digest(run, case.argv if flags is None else flags + ("--", text)) for flags in FORMS.values()]
                )
    return hashes


def test_outputs_hash_as_stored():
    with open(HASHES) as fh:
        stored = json.load(fh)
    got = corpus_hashes()
    assert list(got) == list(stored)
    for name, rows in got.items():
        for i, (row, want) in enumerate(zip(rows, stored[name])):
            for form, a, b in zip(FORMS, row, want):
                assert a == b, f"{name} case {i}, argv form {form!r}: output differs"
        assert len(rows) == len(stored[name]) == PREFIX


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(__doc__)
    with open(HASHES, "w") as fh:
        json.dump(corpus_hashes(), fh, indent=1)
        fh.write("\n")
