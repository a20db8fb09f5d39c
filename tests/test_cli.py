import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest

from medrex.checkpoint import load_checkpoint, save_checkpoint
from medrex.cli import ALL, OPTIONS, Options, build_parser, main

TINY_MODEL_FLAGS = [
    "--d-model", "16", "--encoder-layers", "1", "--encoder-heads", "2",
    "--label-emb-dim", "8", "--relpos-emb-dim", "5", "--hidden-dim", "10",
]


def run_cli(argv, **kwargs):
    return main([str(a) for a in argv], **kwargs)


def _hash_dir(path, skip=("run_manifest.json",)):
    digest = {}
    for name in sorted(os.listdir(path)):
        if name in skip:
            continue
        digest[name] = hashlib.sha256(open(os.path.join(path, name), "rb").read()).hexdigest()
    return digest


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert run_cli(["generate", "--seed", 7, "--docs", 6, "--out", data]) == 0
    ckpt_dir = root / "ckpt"
    assert run_cli([
        "train", "--data", data, "--out", ckpt_dir, "--epochs", 2, "--lr", "1e-3",
        *TINY_MODEL_FLAGS,
    ]) == 0
    return root


def test_generate_is_idempotent(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["generate", "--seed", 3, "--docs", 5, "--out", a]) == 0
    assert run_cli(["generate", "--seed", 3, "--docs", 5, "--out", b]) == 0
    assert _hash_dir(a) == _hash_dir(b)
    c = tmp_path / "c"
    assert run_cli(["generate", "--seed", 4, "--docs", 5, "--out", c]) == 0
    assert _hash_dir(a) != _hash_dir(c)


def test_generate_writes_exactly_one_manifest(tmp_path):
    out = tmp_path / "corpus"
    assert run_cli(["generate", "--seed", 1, "--docs", 2, "--out", out]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text(encoding="utf-8"))
    assert manifest["subcommand"] == "generate"
    assert manifest["seed"] == 1
    assert manifest["tool_version"]
    corpus_manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert corpus_manifest["seed"] == 1


def test_train_outputs_and_run_log(workspace):
    out = workspace / "ckpt"
    assert (out / "model.ckpt").exists()
    records = [json.loads(line) for line in (out / "run_log.jsonl").read_text().splitlines()]
    assert [r["step"] for r in records] == list(range(len(records)))
    assert all(set(r) == {"step", "lr", "loss", "forwards"} for r in records)
    report = json.loads((out / "window_report.json").read_text())
    assert report["segments_emitted"] > 0


def test_train_determinism_via_subprocess(tmp_path, workspace):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    # the child imports this checkout's medrex, installed or not
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        cmd = [
            sys.executable, "-m", "medrex", "train",
            "--data", str(workspace / "data"), "--out", str(out),
            "--epochs", "1", "--lr", "1e-3", *TINY_MODEL_FLAGS,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(hashlib.sha256((out / "model.ckpt").read_bytes()).hexdigest())
    assert outs[0] == outs[1]


def test_predict_and_evaluate_roundtrip(workspace, tmp_path):
    preds = tmp_path / "preds"
    assert run_cli(["predict", "--ckpt", workspace / "ckpt" / "model.ckpt",
                    "--data", workspace / "data", "--out", preds]) == 0
    assert (preds / "relations.jsonl").exists()
    ann_files = [f for f in os.listdir(preds) if f.endswith(".ann")]
    assert len(ann_files) == 6
    out = tmp_path / "eval"
    assert run_cli(["evaluate", "--gold", workspace / "data", "--pred", preds,
                    "--mode", "both", "--out", out]) == 0
    strict = json.loads((out / "eval_strict.json").read_text())
    lenient = json.loads((out / "eval_lenient.json").read_text())
    assert strict["mode"] == "strict"
    assert lenient["micro"]["f1"] >= strict["micro"]["f1"]


def test_evaluate_gold_vs_gold_is_perfect(workspace, tmp_path, capsys):
    out = tmp_path / "eval"
    assert run_cli(["evaluate", "--gold", workspace / "data", "--pred", workspace / "data",
                    "--mode", "strict", "--out", out]) == 0
    report = json.loads((out / "eval_strict.json").read_text())
    assert report["micro"]["f1"] == 1.0


def test_convert_frames_roundtrip(workspace, tmp_path):
    out = tmp_path / "aug"
    assert run_cli(["convert-frames", "--data", workspace / "data", "--out", out,
                    "--mode", "add-same-frame"]) == 0
    report_dir = tmp_path / "frames"
    assert run_cli(["convert-frames", "--data", out, "--out", report_dir, "--mode", "report"]) == 0
    lines = (report_dir / "frames.jsonl").read_text(encoding="utf-8").splitlines()
    payloads = [json.loads(line) for line in lines]
    assert payloads and all({"doc_id", "drug", "links"} <= set(p) for p in payloads)


def test_end_to_end_subcommand(workspace, tmp_path):
    out = tmp_path / "e2e"
    assert run_cli(["end-to-end", "--ckpt", workspace / "ckpt" / "model.ckpt",
                    "--data", workspace / "data", "--gold", workspace / "data",
                    "--out", out]) == 0
    for name in ("relations.jsonl", "frames.jsonl", "eval_strict.json", "eval_lenient.json",
                 "run_manifest.json"):
        assert (out / name).exists(), name


def test_grad_check_small_preset(capsys):
    assert run_cli(["grad-check", "--preset", "small", "--samples", "4", "--tol", "1e-4"]) == 0
    captured = capsys.readouterr()
    assert "PASS" in captured.out
    assert re.search(r"max relative error \d", captured.out)


def test_exit_codes(tmp_path, capsys):
    assert run_cli(["stats", "--data", str(tmp_path / "nope")]) == 4
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "missing-path"

    (tmp_path / "empty").mkdir()
    assert run_cli(["generate", "--seed", 0, "--docs", 2, "--out", tmp_path / "ok"]) == 0
    capsys.readouterr()
    assert run_cli(["stats", "--data", tmp_path / "ok", "--schema", "bogus"]) == 5
    assert json.loads(capsys.readouterr().err)["error"] == "unknown-schema"

    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "x.txt").write_text("abc", encoding="utf-8")
    (bad / "x.ann").write_text("T1\tDrug 0 99\tabc", encoding="utf-8")
    assert run_cli(["stats", "--data", bad]) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "validation"

    config = tmp_path / "broken.conf"
    config.write_text("epochs = many\n", encoding="utf-8")
    assert run_cli(["train", "--data", tmp_path / "ok", "--out", tmp_path / "t",
                    "--config", config]) == 6
    assert json.loads(capsys.readouterr().err)["error"] == "config"

    with pytest.raises(SystemExit) as excinfo:
        run_cli(["train", "--no-such-flag"])
    assert excinfo.value.code == 2


def test_config_file_and_env_precedence(tmp_path, monkeypatch):
    config = tmp_path / "gen.conf"
    config.write_text("docs = 3\nseed = 9\n", encoding="utf-8")
    out1 = tmp_path / "from-file"
    assert run_cli(["generate", "--config", config, "--out", out1]) == 0
    manifest = json.loads((out1 / "run_manifest.json").read_text())
    assert manifest["config"]["docs"] == 3 and manifest["config"]["seed"] == 9

    monkeypatch.setenv("MEDREX_DOCS", "4")
    out2 = tmp_path / "env-overrides-file"
    assert run_cli(["generate", "--config", config, "--out", out2]) == 0
    assert json.loads((out2 / "run_manifest.json").read_text())["config"]["docs"] == 4

    out3 = tmp_path / "flag-overrides-env"
    assert run_cli(["generate", "--config", config, "--docs", 2, "--out", out3]) == 0
    assert json.loads((out3 / "run_manifest.json").read_text())["config"]["docs"] == 2


def test_option_values_outside_choices_exit_6(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MEDREX_MODE", "fuzzy")
    assert run_cli(["evaluate", "--gold", tmp_path, "--pred", tmp_path]) == 6
    assert json.loads(capsys.readouterr().err)["error"] == "config"


def test_workdir_resolves_relative_paths(tmp_path):
    assert run_cli(["generate", "--workdir", tmp_path, "--seed", 0, "--docs", 2,
                    "--out", "rel-corpus"]) == 0
    assert (tmp_path / "rel-corpus" / "manifest.json").exists()


def test_grad_check_config_names_a_file_even_if_it_matches_a_preset(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["grad-check", "--config", "small"]) == 4
    assert json.loads(capsys.readouterr().err)["error"] == "missing-path"
    (tmp_path / "small").write_text("preset = small\nsamples = 2\n", encoding="utf-8")
    assert run_cli(["grad-check", "--config", "small"]) == 0
    assert "preset=small" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [["predict", "--seed", 3], ["grad-check", "--workdir", "x"]])
def test_options_a_subcommand_never_reads_are_rejected(argv):
    with pytest.raises(SystemExit) as excinfo:
        run_cli(argv)
    assert excinfo.value.code == 2


def _one_run_per_subcommand(ws, out):
    data, ckpt = ws / "data", ws / "ckpt" / "model.ckpt"
    return {
        "generate": ["--docs", 2, "--out", out],
        "stats": ["--data", data],
        "convert-frames": ["--data", data, "--out", out],
        "train": ["--data", data, "--out", out, "--epochs", 1, *TINY_MODEL_FLAGS],
        "predict": ["--ckpt", ckpt, "--data", data, "--out", out],
        "evaluate": ["--gold", data, "--pred", data],
        "end-to-end": ["--ckpt", ckpt, "--data", data, "--gold", data, "--out", out],
        "cost-report": ["--data", data, *TINY_MODEL_FLAGS],
        "grad-check": ["--preset", "small", "--samples", 2],
    }


@pytest.mark.parametrize("subcommand", ALL)
def test_each_subcommand_reads_exactly_its_options(subcommand, workspace, tmp_path, monkeypatch):
    read = set()
    original = Options.get

    def recording_get(self, name):
        read.add(name)
        return original(self, name)

    monkeypatch.setattr(Options, "get", recording_get)
    argv = _one_run_per_subcommand(workspace, tmp_path / "out")[subcommand]
    assert run_cli([subcommand, *argv]) == 0
    assert read == {opt.name for opt in OPTIONS if subcommand in opt.commands}


def test_end_to_end_missing_entity_file_exits_4_naming_the_doc(workspace, tmp_path, capsys):
    data = tmp_path / "tagged"
    shutil.copytree(workspace / "data", data)
    missing = sorted(f for f in os.listdir(data) if f.endswith(".ann"))[1]
    (data / missing).unlink()
    assert run_cli(["end-to-end", "--ckpt", workspace / "ckpt" / "model.ckpt", "--data", data,
                    "--gold", workspace / "data", "--out", tmp_path / "e2e"]) == 4
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "missing-path"
    assert missing[:-4] in error["message"]


@pytest.mark.parametrize("removed", [(".ann",), (".txt", ".ann")])
def test_evaluate_with_a_missing_prediction_exits_4_naming_the_doc(removed, workspace, tmp_path, capsys):
    """A prediction directory without one document's .ann, or without the document, is not scored as empty."""
    preds = tmp_path / "preds"
    shutil.copytree(workspace / "data", preds)
    doc_id = sorted(f[:-4] for f in os.listdir(preds) if f.endswith(".txt"))[1]
    for ext in removed:
        (preds / f"{doc_id}{ext}").unlink()
    assert run_cli(["evaluate", "--gold", workspace / "data", "--pred", preds, "--out", tmp_path / "eval"]) == 4
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "missing-path" and doc_id in error["message"]
    assert not (tmp_path / "eval").exists()


def _crlf_copy(src, dst):
    """A copy of a corpus with CRLF line endings, its offsets counted over the file's characters."""
    dst.mkdir()
    for txt in sorted(src.glob("*.txt")):
        text = txt.read_bytes().decode("utf-8")
        crlf = text.replace("\n", "\r\n")
        (dst / txt.name).write_bytes(crlf.encode("utf-8"))
        lines = []
        for line in txt.with_suffix(".ann").read_bytes().decode("utf-8").splitlines():
            if line.startswith("T"):
                ident, span, _ = line.split("\t")
                etype, start, end = span.split(" ")
                start, end = (int(n) + text.count("\n", 0, int(n)) for n in (start, end))
                surface = crlf[start:end].replace("\r", " ").replace("\n", " ")
                line = f"{ident}\t{etype} {start} {end}\t{surface}"
            lines.append(line)
        (dst / txt.with_suffix(".ann").name).write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))


def test_a_crlf_corpus_is_read_as_written(workspace, tmp_path, capsys):
    crlf = tmp_path / "crlf"
    _crlf_copy(workspace / "data", crlf)
    capsys.readouterr()
    assert run_cli(["stats", "--data", workspace / "data"]) == 0
    lf_stats = capsys.readouterr().out
    assert run_cli(["stats", "--data", crlf]) == 0
    assert capsys.readouterr().out == lf_stats
    preds = tmp_path / "preds"
    assert run_cli(["predict", "--ckpt", workspace / "ckpt" / "model.ckpt", "--data", crlf, "--out", preds]) == 0
    for txt in sorted(crlf.glob("*.txt")):
        assert b"\r\n" in txt.read_bytes() and (preds / txt.name).read_bytes() == txt.read_bytes(), txt.name
    assert run_cli(["evaluate", "--gold", crlf, "--pred", preds]) == 0


def test_predict_writes_an_entity_over_a_form_feed_that_reads_back(workspace, tmp_path):
    data, preds = tmp_path / "data", tmp_path / "preds"
    data.mkdir()
    (data / "d.txt").write_text("aspirin 500\x0cmg IV daily", encoding="utf-8")
    (data / "d.ann").write_text("T1\tDrug 0 7\taspirin\nT2\tDosage 8 14\t500 mg\nT3\tRoute 15 17\tIV\n",
                                encoding="utf-8")
    assert run_cli(["predict", "--ckpt", workspace / "ckpt" / "model.ckpt", "--data", data, "--out", preds]) == 0
    assert "T2\tDosage 8 14\t500 mg\n" in (preds / "d.ann").read_text(encoding="utf-8")
    assert run_cli(["evaluate", "--gold", data, "--pred", preds]) == 0


def _copy_with_prefixed_text(src, dst, prefix: str = "Note "):
    """A copy of a corpus whose second document's text gains a prefix, its .ann offsets shifted to match.

    Each file stays consistent on its own; only its text differs from the source's. Returns that document's id.
    """
    shutil.copytree(src, dst)
    doc_id = sorted(f[:-4] for f in os.listdir(dst) if f.endswith(".txt"))[1]
    txt, ann = dst / f"{doc_id}.txt", dst / f"{doc_id}.ann"
    txt.write_bytes(prefix.encode("utf-8") + txt.read_bytes())
    lines = []
    for line in ann.read_text(encoding="utf-8").splitlines():
        if line.startswith("T"):
            ident, span, surface = line.split("\t")
            etype, start, end = span.split(" ")
            line = f"{ident}\t{etype} {int(start) + len(prefix)} {int(end) + len(prefix)}\t{surface}"
        lines.append(line)
    ann.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return doc_id


@pytest.mark.parametrize("argv, flag", [
    ("end-to-end --ckpt {ckpt} --data {copy} --gold {data} --out {out}", "--data"),
    ("evaluate --pred {copy} --gold {data} --out {out}", "--pred"),
])
def test_a_text_that_differs_from_its_gold_text_exits_3_naming_the_doc(argv, flag, workspace, tmp_path, capsys):
    doc_id = _copy_with_prefixed_text(workspace / "data", tmp_path / "copy")
    paths = dict(ckpt=workspace / "ckpt" / "model.ckpt", copy=tmp_path / "copy", data=workspace / "data",
                 out=tmp_path / "out")
    assert run_cli([token.format(**paths) for token in argv.split()]) == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "validation"
    assert doc_id in error["message"] and flag in error["message"]
    assert not (tmp_path / "out").exists()


def test_help_documents_every_flag():
    parser = build_parser()
    sub_actions = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    for name, sub in sub_actions.choices.items():
        text = sub.format_help()
        assert "exit codes:" in text, name
        for action in sub._actions:
            for flag in action.option_strings:
                assert flag in text, f"{name}: {flag} missing from --help"
            assert action.help is not None or action.option_strings == ["-h", "--help"], (
                f"{name}: {action.option_strings or action.dest} lacks help text"
            )


@pytest.mark.parametrize("subcommand", ["generate", "evaluate"])
def test_threads_flag_is_rejected(subcommand, tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        run_cli([subcommand, "--out", tmp_path / "out", "--threads", 2])
    assert excinfo.value.code == 2


def test_option_table_has_one_row_per_key_and_subcommand():
    pairs = [(opt.name, command) for opt in OPTIONS for command in opt.commands]
    assert len(pairs) == len(set(pairs))
    assert {command for _, command in pairs} <= set(ALL)


def test_config_doc_matches_option_table():
    doc = os.path.join(os.path.dirname(__file__), os.pardir, "docs", "config.md")
    with open(doc, encoding="utf-8") as fh:
        rows = [
            tuple(cell.strip().replace("`", "") for cell in line.strip().strip("|").split("|"))
            for line in fh if line.startswith("| `")
        ]
    expected = [
        (opt.name, opt.kind.__name__, opt.shown_default(),
         "all" if opt.commands == ALL else ", ".join(opt.commands))
        for opt in OPTIONS
    ]
    assert len(rows) == len(set(rows)), "a row is documented twice"
    assert sorted(set(expected) - set(rows)) == [], "undocumented options"
    assert sorted(set(rows) - set(expected)) == [], "documented options the table lacks"


def test_predict_provided_and_end_to_end_write_identical_files(workspace, tmp_path):
    ckpt, data = workspace / "ckpt" / "model.ckpt", workspace / "data"
    predicted, e2e = tmp_path / "predict", tmp_path / "e2e"
    assert run_cli(["predict", "--ckpt", ckpt, "--data", data, "--out", predicted,
                    "--label-source", "provided"]) == 0
    assert run_cli(["end-to-end", "--ckpt", ckpt, "--data", data, "--gold", data, "--out", e2e]) == 0
    written = sorted(f for f in os.listdir(predicted) if f.endswith((".txt", ".ann")))
    assert len(written) == 12 and (predicted / "relations.jsonl").read_text(encoding="utf-8")
    for name in written + ["relations.jsonl"]:
        assert (predicted / name).read_bytes() == (e2e / name).read_bytes(), name


@pytest.mark.parametrize("samples", [0, -1])
def test_grad_check_samples_below_one_exit_6(samples, capsys):
    assert run_cli(["grad-check", "--preset", "small", "--samples", samples]) == 6
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config" and "--samples" in error["message"]


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_grad_check_tol_not_positive_and_finite_exit_6(tol, capsys):
    assert run_cli(["grad-check", "--preset", "small", "--samples", 2, "--tol", tol]) == 6
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config" and "--tol" in error["message"]


def test_grad_check_beyond_tol_exits_1_as_the_help_says(capsys):
    assert run_cli(["grad-check", "--preset", "small", "--samples", 2, "--tol", "1e-30"]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert re.search(r"^  1  grad-check: .* beyond --tol$", build_parser().format_help(), re.M)


def test_generate_negative_seed_exits_3_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "g"
    assert run_cli(["generate", "--seed", -1, "--docs", 2, "--out", out]) == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "validation" and "seed must be at least 0, got -1" in error["message"]
    assert not out.exists()


def test_grad_check_negative_seed_exit_6(capsys):
    assert run_cli(["grad-check", "--preset", "small", "--seed", -1]) == 6
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config" and "--seed" in error["message"]


def _drop_first(params):
    del params[next(iter(params))]


def _add_unknown(params):
    params["stray.w"] = np.zeros(3)


def _widen_last(params):
    name = list(params)[-1]
    params[name] = np.zeros(params[name].shape[:-1] + (params[name].shape[-1] + 1,))


def _nan_position(params):
    params["pos_emb"][0, 0] = np.nan


def _position_past_float32(params):
    params["pos_emb"][0, 0] = 1e300  # finite in the float64 payload, inf once cast to float32


def _nan_in_a_row_nothing_gathers(params):
    params["tok_emb"][0, 0] = np.nan  # the unknown-token row: every workspace token is in the vocabulary


@pytest.mark.parametrize("edit, message", [
    (_drop_first, "missing ['tok_emb']"),
    (_add_unknown, "unknown ['stray.w']"),
    (_widen_last, "'pair.fc2.b': expected shape"),
    (_nan_position, "'pos_emb': non-finite"),
    (_position_past_float32, "'pos_emb': non-finite"),
    (_nan_in_a_row_nothing_gathers, "'tok_emb': non-finite"),
])
def test_predict_rejects_a_checkpoint_with_other_parameters(edit, message, workspace, tmp_path, capsys):
    params, config = load_checkpoint(str(workspace / "ckpt" / "model.ckpt"))
    edit(params)
    ckpt = tmp_path / "edited.ckpt"
    save_checkpoint(str(ckpt), params, config)
    assert run_cli(["predict", "--ckpt", ckpt, "--data", workspace / "data", "--out", tmp_path / "p"]) == 6
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config" and message in error["message"]


def _rewrite_header(src, dst, edit):
    """Copy a checkpoint with its JSON header edited in place; the payloads stay as they are."""
    blob = src.read_bytes()
    (length,) = struct.unpack("<Q", blob[1:9])
    header = json.loads(blob[9:9 + length])
    edit(header)
    raw = json.dumps(header).encode("utf-8")
    dst.write_bytes(blob[:1] + struct.pack("<Q", len(raw)) + raw + blob[9 + length:])


def _drop_params(header):
    del header["params"]


def _drop_vocab(header):
    del header["config"]["vocab"]


def _add_model_key(header):
    header["config"]["model"]["stray_width"] = 3


def _string_d_model(header):
    header["config"]["model"]["d_model"] = "16"


def _vocab_without_reserved_tokens(header):
    header["config"]["vocab"] = header["config"]["vocab"][5:]


def _string_window(header):
    header["config"]["window_chars"] = str(header["config"]["window_chars"])


def _zero_stride(header):
    header["config"]["stride_chars"] = 0


def _stride_over_window(header):
    header["config"]["stride_chars"] = header["config"]["window_chars"] + 1


def _string_same_frame(header):
    header["config"]["include_same_frame"] = "yes"


def _flip_same_frame(header):
    header["config"]["include_same_frame"] = not header["config"]["include_same_frame"]


def _shape_past_2_to_the_63(header):
    header["params"][0]["shape"] = [2**32, 2**32]  # its element count wraps to 0 in int64


def _params_as_mapping(header):
    header["params"] = {entry["name"]: entry["shape"] for entry in header["params"]}


def _entry_without_name(header):
    del header["params"][0]["name"]


def _entry_without_shape(header):
    del header["params"][0]["shape"]


def _tokens_after_the_reserved_ones(header):
    vocab = header["config"]["vocab"]
    vocab[5:5] = [f"extra{i}" for i in range(40)]


def _a_repeated_vocabulary_token(header):
    vocab = header["config"]["vocab"]
    vocab[6] = vocab[5]  # the list keeps its length, so the vocabulary size still matches


def _an_extra_entity_type(header):
    header["config"]["schema"]["entity_types"].append("Aaa")  # sorts first: every label id would shift


def _relation_types_as_a_string(header):
    # 14 letters: with the null class, as many classes as the model's corp-hus head
    header["config"]["schema"]["relation_types"] = "abcdefghijklmn"


@pytest.mark.parametrize("edit, key", [
    (_drop_params, "'params'"),
    (_drop_vocab, "'vocab'"),
    (_add_model_key, "'stray_width'"),
    (_string_d_model, "'d_model'"),
    (_vocab_without_reserved_tokens, "'vocab'"),
    (_string_window, "'window_chars'"),
    (_zero_stride, "'stride_chars'"),
    (_stride_over_window, "'stride_chars'"),
    (_string_same_frame, "'include_same_frame'"),
    (_flip_same_frame, "class map has"),
    (_shape_past_2_to_the_63, "'tok_emb'"),
    (_params_as_mapping, "'params'"),
    (_entry_without_name, "'name'"),
    (_entry_without_shape, "'shape'"),
    (_relation_types_as_a_string, "'relation_types'"),
    (_tokens_after_the_reserved_ones, "vocabulary has"),
    (_a_repeated_vocabulary_token, "distinct strings"),
    (_an_extra_entity_type, "entity types"),
])
def test_predict_rejects_a_hand_edited_checkpoint_header(edit, key, workspace, tmp_path, capsys):
    ckpt = tmp_path / "edited.ckpt"
    _rewrite_header(workspace / "ckpt" / "model.ckpt", ckpt, edit)
    assert run_cli(["predict", "--ckpt", ckpt, "--data", workspace / "data", "--out", tmp_path / "p"]) == 6
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "config" and key in error["message"]


@pytest.mark.parametrize("flag, value", [
    ("--lr", "-1"),
    ("--lr", "nan"),
    ("--null-weight", "-1"),
    ("--seed", "-1"),
])
def test_train_rejects_bad_values_before_training(flag, value, workspace, tmp_path, capsys):
    out = tmp_path / "t"
    assert run_cli(["train", "--data", workspace / "data", "--out", out, flag, value, *TINY_MODEL_FLAGS]) == 3
    error = json.loads(capsys.readouterr().err)
    name = {"--lr": "peak_lr", "--null-weight": "null_class_weight", "--seed": "seed"}[flag]
    assert error["error"] == "validation" and name in error["message"]
    assert not out.exists()


@pytest.mark.parametrize("argv, culprit, code, label", [
    ("train --data {file} --out {tmp}/t", "a-file", 4, "wrong-path-kind"),
    ("end-to-end --data {file} --gold {data} --ckpt {ckpt} --out {tmp}/e", "a-file", 4, "wrong-path-kind"),
    ("train --data {data} --out {tmp}/t --config {dir}", "a-dir", 4, "wrong-path-kind"),
    ("stats --data {data} --schema {dir}", "a-dir", 4, "wrong-path-kind"),
    ("predict --data {data} --ckpt {ckpt} --out {file}", "a-file", 4, "wrong-path-kind"),
    ("train --data {data} --out {tmp}/t --config {latin1}", "latin1.txt", 6, "config"),
    ("stats --data {data} --schema {latin1}", "latin1.txt", 6, "config"),
    ("stats --data {latin1_corpus}", "doc0000.txt", 3, "validation"),
])
def test_unusable_paths_exit_with_their_code_naming_the_path(argv, culprit, code, label, workspace, tmp_path, capsys):
    (tmp_path / "a-dir").mkdir()
    (tmp_path / "a-file").write_text("not a directory\n", encoding="utf-8")
    (tmp_path / "latin1.txt").write_bytes("name = caf\xe9\n".encode("latin-1"))
    shutil.copytree(workspace / "data", tmp_path / "corpus")
    with open(tmp_path / "corpus" / "doc0000.txt", "ab") as fh:
        fh.write(b"\xff")
    paths = dict(file=tmp_path / "a-file", dir=tmp_path / "a-dir", latin1=tmp_path / "latin1.txt",
                 latin1_corpus=tmp_path / "corpus", tmp=tmp_path,
                 data=workspace / "data", ckpt=workspace / "ckpt" / "model.ckpt")
    assert run_cli([token.format(**paths) for token in argv.split()]) == code
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == label and culprit in error["message"]


_REPEATED_ID_TEXT = "aspirine 500 mg au coucher"
_REPEATED_ID_ANN = "T1\tDrug 0 8\taspirine\nT1\tDosage 9 15\t500 mg\nT2\tFrequency 16 26\tau coucher\n"


@pytest.mark.parametrize("argv", [
    "predict --ckpt {ckpt} --data {tagged} --out {out} --label-source provided",
    "evaluate --gold {gold} --pred {tagged} --out {out}",
])
def test_a_repeated_entity_id_exits_3_naming_its_line(argv, workspace, tmp_path, capsys):
    """A second T1 would rewire every relation written against T1; it is rejected in lax parsing too."""
    for name, ann in (("tagged", _REPEATED_ID_ANN), ("gold", "T1\tDrug 0 8\taspirine\n")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "x.txt").write_text(_REPEATED_ID_TEXT, encoding="utf-8")
        (tmp_path / name / "x.ann").write_text(ann, encoding="utf-8")
    paths = dict(ckpt=workspace / "ckpt" / "model.ckpt", tagged=tmp_path / "tagged", gold=tmp_path / "gold",
                 out=tmp_path / "out")
    assert run_cli([token.format(**paths) for token in argv.split()]) == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "validation" and "x.ann:2" in error["message"] and "T1" in error["message"]
    assert not (tmp_path / "out").exists()


def _overflowing_token_rows(ckpt, tmp_path):
    params, config = load_checkpoint(str(ckpt))
    params["tok_emb"][:] = 1e30  # finite in float32; the first attention scores are not
    edited = tmp_path / "huge.ckpt"
    save_checkpoint(str(edited), params, config)
    return edited


@pytest.mark.parametrize("subcommand", ["train", "predict"])
def test_a_diverging_run_exits_3_naming_the_op(subcommand, workspace, tmp_path, capsys):
    data = tmp_path / "data"
    assert run_cli(["generate", "--seed", 7, "--docs", 3, "--out", data]) == 0
    if subcommand == "train":
        argv = ["train", "--data", data, "--out", tmp_path / "t", "--epochs", 3, "--lr", "1e30",
                "--d-model", 16, "--hidden-dim", 16, "--label-emb-dim", 8, "--relpos-emb-dim", 8]
    else:
        ckpt = _overflowing_token_rows(workspace / "ckpt" / "model.ckpt", tmp_path)
        argv = ["predict", "--ckpt", ckpt, "--data", data, "--out", tmp_path / "p"]
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # stderr carries the JSON object and nothing else
        assert run_cli(argv) == 3
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "non-finite" and re.search(r"op '\w+'", error["message"])


def _rename_doc(corpus, old: str, new: str) -> None:
    for ext in ("txt", "ann"):
        (corpus / f"{old}.{ext}").rename(corpus / f"{new}.{ext}")


def test_end_to_end_writes_what_predict_writes_over_tagger_files(workspace, tmp_path):
    """Tagger files that differ from gold (a dropped entity, an unknown type), under ids where one is a prefix."""
    gold = tmp_path / "gold"
    shutil.copytree(workspace / "data", gold)
    _rename_doc(gold, "doc0000", "a")
    _rename_doc(gold, "doc0001", "a-b")  # "a-b.txt" sorts before "a.txt", though doc id "a" sorts before "a-b"
    tagged = tmp_path / "tagged"
    shutil.copytree(gold, tagged)
    for ann in sorted(tagged.glob("*.ann")):
        entities = [line for line in ann.read_text(encoding="utf-8").splitlines() if line.startswith("T")]
        kept = [line.replace("\tDosage ", "\tStrength ") for line in entities[1:]]  # n2c2's, unknown here
        ann.write_text("\n".join(kept) + "\n", encoding="utf-8")
    ckpt = workspace / "ckpt" / "model.ckpt"
    predicted, e2e = tmp_path / "predict", tmp_path / "e2e"
    assert run_cli(["predict", "--ckpt", ckpt, "--data", tagged, "--out", predicted,
                    "--label-source", "provided"]) == 0
    assert run_cli(["end-to-end", "--ckpt", ckpt, "--data", tagged, "--gold", gold, "--out", e2e]) == 0
    written = sorted(f for f in os.listdir(predicted) if f.endswith((".txt", ".ann")))
    assert len(written) == 12 and (predicted / "relations.jsonl").read_text(encoding="utf-8")
    for name in written + ["relations.jsonl"]:
        assert (predicted / name).read_bytes() == (e2e / name).read_bytes(), name
    assert "\tOTHER " in (e2e / "a.ann").read_text(encoding="utf-8")
    read_order = [name[:-4] for name in written if name.endswith(".txt")]  # file-name order: a-b, a, doc0002, ...
    for name in ("relations.jsonl", "frames.jsonl"):
        doc_ids = [json.loads(line)["doc_id"] for line in (e2e / name).read_text(encoding="utf-8").splitlines()]
        assert doc_ids[:1] == ["a-b"] and doc_ids == sorted(doc_ids, key=read_order.index), name
