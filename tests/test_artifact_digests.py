"""SHA-256 digests of the artifacts that involve no floating-point linear algebra.

Generation, corpus tallies, frame reports, window reports and segment
encoding are pure Python, so their bytes are the same on every machine and
BLAS build. A change that means to keep them byte-identical keeps these
digests; a change that means to alter them updates the digest with a reason.
"""

import hashlib
import json

import pytest

from medrex.cli import main
from medrex.schema import CORP_HUS
from medrex.standoff import read_corpus_dir
from medrex.windowing import Vocabulary, encode_segment, make_segments, relation_classes

from .test_cli import TINY_MODEL_FLAGS, _hash_dir


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("digests") / "data"
    assert main(["generate", "--seed", "7", "--docs", "50", "--out", str(out)]) == 0
    return out


def test_generate_writes_the_pinned_corpus(corpus):
    files = json.dumps(_hash_dir(corpus), sort_keys=True)
    assert _sha(files) == "c311404bd69b44b55ab00db85627be393066caf7bf7a46063d3b9949f2c9d87d"


@pytest.mark.parametrize("argv, digest", [
    (["stats"], "f832ce5bb8808171e1dbac244023760a959db71ced5e4763e4123950b7201450"),
    (["convert-frames", "--mode", "report"], "8962a39ad5e726a0fd5cc8ed2edc4af0f6d1e4fc293dfa879fc55a5cae474112"),
])
def test_corpus_reports_print_the_pinned_bytes(argv, digest, corpus, capsys):
    capsys.readouterr()
    assert main([*argv, "--data", str(corpus)]) == 0
    assert _sha(capsys.readouterr().out) == digest


def test_train_writes_the_pinned_window_report(corpus, tmp_path):
    out = tmp_path / "t"
    assert main(["train", "--data", str(corpus), "--out", str(out), "--epochs", "1", *TINY_MODEL_FLAGS]) == 0
    report = (out / "window_report.json").read_text(encoding="utf-8")
    assert _sha(report) == "300ab73890d45125354cdf7b3f3085d2f780dc8ddbe87d4fa22ef498bf470fac"


@pytest.mark.parametrize("window, max_tokens, digest", [
    (300, None, "ce5ed4031eb8e8526b8d2a9527da40ffb82b9a5d2060e4c814d667ffdf714361"),
    (1000, None, "fb3e42be494c0129e02eb7276af6160699101cad064671e6913a3d93c0754d88"),
    (1000, 40, "f390b5a6091e6cdfb7889a0be7cec75c87a3b125635fec2c175c52b219a270cd"),
])
def test_every_encoded_segment_is_pinned(window, max_tokens, digest, corpus):
    docs = read_corpus_dir(str(corpus), CORP_HUS)
    vocab, class_map = Vocabulary.build(docs), relation_classes(CORP_HUS, False)
    rows = []
    for doc in docs:
        for seg in make_segments(doc, window, window // 2, max_tokens):
            enc = encode_segment(seg, vocab, CORP_HUS, doc.relations, class_map)
            rows.append([seg.doc_id, seg.window_start, seg.window_end, [e.id for e in enc.entities],
                         enc.token_ids, enc.label_ids, enc.entity_spans, enc.class_ids])
    assert _sha(json.dumps(rows)) == digest
