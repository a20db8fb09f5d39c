import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from medrex.cli import ALL, OPTIONS, build_parser, main

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


def test_grad_check_config_accepts_preset_name(capsys):
    assert run_cli(["grad-check", "--config", "small", "--samples", "2"]) == 0
    assert "PASS" in capsys.readouterr().out


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
