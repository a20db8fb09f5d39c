"""Single executable exposing the pipeline as subcommands.

Precedence for every option: command-line flag, then MEDREX_<NAME> environment
variable, then the --config key=value file, then the built-in default. Paths
are resolved against --workdir. Runs that produce artifacts write exactly one
run_manifest.json into their output directory. Validation failures print a
machine-readable JSON object on stderr and exit with a documented code.
"""

# Pin BLAS to one thread before numpy loads: training is single threaded by
# contract and timings/checkpoints must not depend on the host's core count.
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .checkpoint import CheckpointError
from .evaluate import EvalReport, evaluate, format_report, predictions_to_relations
from .frames import augment_document, build_frames, frames_to_jsonl
from .model import ModelConfig, ModelError, PredictedRelation, grad_check_fixture, masked_loss
from .optim import finite_diff_check
from .schema import SchemaError, UnknownProfileError, read_key_value_file, resolve_profile
from .standoff import Document, StandoffError, entity_json, read_corpus_dir, write_corpus_dir
from .stats import corpus_stats
from .synth import GenConfig, GenerationError, generate_corpus
from .train import (
    TrainConfig,
    TrainingError,
    cost_report,
    load_bundle,
    save_bundle,
    train,
)
from .windowing import WindowingError

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VALIDATION = 3
EXIT_MISSING_PATH = 4
EXIT_UNKNOWN_SCHEMA = 5
EXIT_CONFIG = 6

ENV_PREFIX = "MEDREX_"

EXIT_CODE_HELP = """exit codes:
  0  success
  1  grad-check: analytic and numeric gradients disagree beyond --tol
  2  usage error (unknown flag, missing required argument)
  3  validation failure (standoff input, training data, model input) or
     non-finite values in a forward or backward pass (a diverging run)
  4  missing path, missing companion file, or a path of the wrong kind
     (a file where a directory is expected, or the reverse)
  5  unknown schema profile
  6  configuration error (config file, checkpoint format, type errors)
"""


class ConfigError(ValueError):
    """Bad --config file or option value."""


def _read_config_file(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    return {key.replace("-", "_"): value for _, key, value in read_key_value_file(path, ConfigError)}


def _coerce(name: str, raw: str, kind):
    try:
        if kind is bool:
            lowered = raw.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(f"option {name!r}: cannot interpret {raw!r} as {kind.__name__}") from None


class Options:
    """Flag > environment > config file > default, per option of the run's subcommand."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.spec = {opt.name: opt for opt in OPTIONS if args.subcommand in opt.commands}
        self.file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
        self.echo: dict = {}
        self.started = time.time()

    def get(self, name: str):
        opt = self.spec[name]
        flag = getattr(self.args, name, None)
        if flag is not None:
            value = flag
        else:
            env = os.environ.get(ENV_PREFIX + name.upper())
            if env is not None:
                value = _coerce(name, env, opt.kind)
            elif name in self.file_values:
                value = _coerce(name, self.file_values[name], opt.kind)
            else:
                value = opt.default
        if opt.choices and value not in opt.choices:
            raise ConfigError(f"{opt.flag} must be one of {', '.join(opt.choices)}, got {value!r}")
        self.echo[name] = value
        return value

    def path(self, name: str, required: bool = False) -> str | None:
        """A path option, resolved against --workdir."""
        workdir, value = self.get("workdir"), self.get(name)
        if value is None:
            if required:
                raise ConfigError(f"{self.args.subcommand} needs {self.spec[name].flag}")
            return None
        return value if os.path.isabs(value) else os.path.join(workdir, value)


def _write_json(path: str, payload) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, ensure_ascii=False, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def _write_manifest(out_dir: str, options: Options, inputs: list[str], outputs: list[str]) -> None:
    manifest = {
        "subcommand": options.args.subcommand,
        "config": {k: options.echo[k] for k in sorted(options.echo)},
        "inputs": sorted(inputs),
        "outputs": sorted(outputs),
        "seed": options.echo.get("seed"),
        "tool_version": __version__,
        "duration_seconds": round(time.time() - options.started, 3),
    }
    _write_json(os.path.join(out_dir, "run_manifest.json"), manifest)


def _corpus_files(out_dir: str, docs: list[Document]) -> list[str]:
    return [os.path.join(out_dir, f"{d.doc_id}.{ext}") for d in docs for ext in ("txt", "ann")]


def _gold_counterparts(path: str, gold_docs: list[Document], schema, flag: str) -> list[Document]:
    """Each gold document's lax-parsed counterpart in ``path``, in gold order.

    A gold document without one raises FileNotFoundError; one whose text
    differs from the gold text raises StandoffError, since offsets index one text.
    """
    docs = {doc.doc_id: doc for doc in read_corpus_dir(path, schema, strict=False)}
    missing = [gold.doc_id for gold in gold_docs if gold.doc_id not in docs]
    if missing:
        raise FileNotFoundError(f"{flag} {path} has no files for documents: {', '.join(missing)}")
    for gold in gold_docs:
        if docs[gold.doc_id].text != gold.text:
            raise StandoffError(f"document {gold.doc_id}: its {flag} text differs from its --gold text")
    return [docs[gold.doc_id] for gold in gold_docs]


def _relation_row(doc_id: str, p: PredictedRelation) -> str:
    return json.dumps({
        "doc_id": doc_id,
        "rtype": p.rtype,
        "prob": round(p.prob, 6),
        "source": entity_json(p.source),
        "target": entity_json(p.target),
    }, ensure_ascii=False, sort_keys=True)


def _write_prediction_dir(out_dir: str, docs: list[Document],
                          predictions: dict[str, list[PredictedRelation]]) -> tuple[list[Document], list[str]]:
    """Write predictions as standoff plus relations.jsonl rows; return the prediction documents and the paths."""
    pred_docs = [
        Document(doc.doc_id, doc.text, doc.entities, tuple(predictions_to_relations(predictions[doc.doc_id])))
        for doc in docs
    ]
    write_corpus_dir(pred_docs, out_dir)
    relations_path = os.path.join(out_dir, "relations.jsonl")
    _write_lines(relations_path, [_relation_row(doc.doc_id, p) for doc in docs for p in predictions[doc.doc_id]])
    return pred_docs, _corpus_files(out_dir, pred_docs) + [relations_path]


def _emit_reports(out_dir: str | None, reports: dict[str, EvalReport]) -> list[str]:
    """Print each report; with an output directory, also write it as eval_<mode>.json."""
    paths = []
    for mode, report in reports.items():
        print(format_report(report))
        print()
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            paths.append(os.path.join(out_dir, f"eval_{mode}.json"))
            _write_json(paths[-1], report.to_dict())
    return paths


# --- subcommand handlers -----------------------------------------------------


def _cmd_generate(options: Options) -> int:
    out = options.path("out", required=True)
    cfg = GenConfig(
        seed=options.get("seed"),
        doc_count=options.get("docs"),
        schema_name=options.get("schema"),
        multi_frame_rate=options.get("multi_frame_rate"),
        context_relation_rate=options.get("context_relation_rate"),
        filler_rate=options.get("filler_rate"),
        sentences_min=options.get("sentences_min"),
        sentences_max=options.get("sentences_max"),
    )
    docs = generate_corpus(cfg)
    write_corpus_dir(docs, out)
    manifest_path = os.path.join(out, "manifest.json")
    stats = corpus_stats(docs, cfg.schema()).to_dict()
    _write_json(manifest_path, {"seed": cfg.seed, "config": asdict(cfg), "stats": stats})
    _write_manifest(out, options, [], _corpus_files(out, docs) + [manifest_path])
    print(f"wrote {len(docs)} documents to {out}")
    return EXIT_OK


def _cmd_stats(options: Options) -> int:
    data = options.path("data", required=True)
    schema = resolve_profile(options.get("schema"))
    docs = read_corpus_dir(data, schema, strict=not options.get("lax"))
    payload = corpus_stats(docs, schema).to_dict()
    print(json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_convert_frames(options: Options) -> int:
    data = options.path("data", required=True)
    out = options.path("out")
    mode = options.get("mode")
    schema = resolve_profile(options.get("schema"))
    docs = read_corpus_dir(data, schema)
    if mode == "add-same-frame":
        if out is None:
            raise ConfigError("convert-frames --mode add-same-frame needs --out")
        augmented = [augment_document(d, schema) for d in docs]
        write_corpus_dir(augmented, out)
        _write_manifest(out, options, [data], _corpus_files(out, augmented))
        print(f"wrote {len(augmented)} augmented documents to {out}")
    else:
        lines = []
        for doc in docs:
            lines.extend(frames_to_jsonl(doc, build_frames(doc, schema)))
        if out is None:
            for line in lines:
                print(line)
        else:
            os.makedirs(out, exist_ok=True)
            report_path = os.path.join(out, "frames.jsonl")
            _write_lines(report_path, lines)
            _write_manifest(out, options, [data], [report_path])
            print(f"wrote {len(lines)} frames to {report_path}")
    return EXIT_OK


def _train_config_from(options: Options) -> TrainConfig:
    return TrainConfig(
        epochs=options.get("epochs"),
        batch_size=options.get("batch_size"),
        peak_lr=options.get("lr"),
        warmup_fraction=options.get("warmup_fraction"),
        window_chars=options.get("window"),
        stride_chars=options.get("stride"),
        frame_augmentation=options.get("frame_augmentation"),
        null_class_weight=options.get("null_weight"),
        seed=options.get("seed"),
    )


def _model_overrides_from(options: Options) -> dict | None:
    overrides = {name: options.get(name) for name in MODEL_OPTION_HELP}
    return {name: value for name, value in overrides.items() if value is not None} or None


def _cmd_train(options: Options) -> int:
    data = options.path("data", required=True)
    out = options.path("out", required=True)
    schema = resolve_profile(options.get("schema"))
    config = _train_config_from(options)
    overrides = _model_overrides_from(options)
    docs = read_corpus_dir(data, schema)
    result = train(docs, schema, config, model_overrides=overrides)
    os.makedirs(out, exist_ok=True)
    ckpt_path = os.path.join(out, "model.ckpt")
    save_bundle(ckpt_path, result)
    log_path = os.path.join(out, "run_log.jsonl")
    _write_lines(log_path, [json.dumps(record, sort_keys=True) for record in result.run_log])
    report_path = os.path.join(out, "window_report.json")
    _write_json(report_path, result.window_report.to_dict())
    _write_manifest(out, options, [data], [ckpt_path, log_path, report_path])
    print(
        f"trained on {result.window_report.segments_emitted} segments for {config.epochs} epochs "
        f"({result.total_seconds:.1f}s, final loss {result.run_log[-1]['loss']:.4f}); checkpoint at {ckpt_path}"
    )
    return EXIT_OK


def _cmd_predict(options: Options) -> int:
    data = options.path("data", required=True)
    out = options.path("out", required=True)
    ckpt = options.path("ckpt", required=True)
    strict = options.get("label_source") == "gold"  # provided entity files parse laxly
    bundle = load_bundle(ckpt)
    docs = read_corpus_dir(data, bundle.schema, strict=strict)
    predictions = bundle.predict_corpus(docs)
    _, outputs = _write_prediction_dir(out, docs, predictions)
    _write_manifest(out, options, [data, ckpt], outputs)
    print(f"predicted relations for {len(docs)} documents into {out}")
    return EXIT_OK


def _cmd_evaluate(options: Options) -> int:
    gold_dir = options.path("gold", required=True)
    pred_dir = options.path("pred", required=True)
    out = options.path("out")
    mode = options.get("mode")
    schema = resolve_profile(options.get("schema"))
    gold_docs = read_corpus_dir(gold_dir, schema, strict=True)
    predictions: dict[str, list[PredictedRelation]] = {}
    for pred_doc in _gold_counterparts(pred_dir, gold_docs, schema, "--pred"):
        by_id = pred_doc.entity_index()
        predictions[pred_doc.doc_id] = [
            PredictedRelation(r.rtype, by_id[r.source], by_id[r.target], 1.0)
            for r in pred_doc.relations
        ]
    modes = ("strict", "lenient") if mode == "both" else (mode,)
    outputs = _emit_reports(out, {m: evaluate(gold_docs, predictions, m, schema) for m in modes})
    if out is not None:
        _write_manifest(out, options, [gold_dir, pred_dir], outputs)
    return EXIT_OK


def _cmd_end_to_end(options: Options) -> int:
    data = options.path("data", required=True)
    gold_dir = options.path("gold", required=True)
    out = options.path("out", required=True)
    ckpt = options.path("ckpt", required=True)
    bundle = load_bundle(ckpt)
    gold_docs = read_corpus_dir(gold_dir, bundle.schema, strict=True)
    docs = _gold_counterparts(data, gold_docs, bundle.schema, "--data")
    predictions = bundle.predict_corpus(docs)
    pred_docs, outputs = _write_prediction_dir(out, docs, predictions)
    frame_lines = [line for doc in pred_docs for line in frames_to_jsonl(doc, build_frames(doc, bundle.schema))]
    frames_path = os.path.join(out, "frames.jsonl")
    _write_lines(frames_path, frame_lines)
    reports = {mode: evaluate(gold_docs, predictions, mode, bundle.schema) for mode in ("strict", "lenient")}
    outputs += [frames_path, *_emit_reports(out, reports)]
    _write_manifest(out, options, [data, gold_dir, ckpt], outputs)
    return EXIT_OK


def _cmd_cost_report(options: Options) -> int:
    data = options.path("data", required=True)
    out = options.path("out")
    schema = resolve_profile(options.get("schema"))
    config = _train_config_from(options)
    overrides = _model_overrides_from(options)
    docs = read_corpus_dir(data, schema)
    payload = cost_report(docs, schema, config, model_overrides=overrides).to_dict()
    print(json.dumps(payload, indent=2, sort_keys=True))
    if out is not None:
        os.makedirs(out, exist_ok=True)
        path = os.path.join(out, "cost_report.json")
        _write_json(path, payload)
        _write_manifest(out, options, [data], [path])
    return EXIT_OK


GRAD_CHECK_PRESETS = {
    "small": dict(d_model=16, seq=12, entities=3, samples=25),
    "full": dict(d_model=64, seq=24, entities=4, samples=200),
}


def _cmd_grad_check(options: Options) -> int:
    preset = options.get("preset")
    sizes = GRAD_CHECK_PRESETS[preset]
    samples = options.get("samples")
    if samples is None:
        samples = sizes["samples"]
    if samples < 1:
        raise ConfigError(f"--samples must be at least 1, got {samples}")
    tol = options.get("tol")
    if not 0.0 < tol < float("inf"):
        raise ConfigError(f"--tol must be positive and finite, got {tol}")
    seed = options.get("seed")
    if seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {seed}")
    model, segment = grad_check_fixture(sizes["d_model"], sizes["seq"], sizes["entities"], seed)
    started = time.perf_counter()
    result = finite_diff_check(
        lambda: masked_loss(model.forward(segment), segment.class_ids),
        model.params,
        samples_per_param=samples,
        seed=seed,
    )
    elapsed = time.perf_counter() - started
    print(f"grad-check preset={preset} d_model={sizes['d_model']} seq={sizes['seq']} entities={sizes['entities']}")
    print(f"{result} in {elapsed:.1f}s")
    if result.max_rel_error < tol:
        print(f"PASS (< {tol:g})")
        return EXIT_OK
    print(f"FAIL (>= {tol:g})")
    return 1


# --- option table and argument parsing ---------------------------------------


SUBCOMMANDS = {
    "generate": (_cmd_generate, "write a synthetic gold-annotated corpus"),
    "stats": (_cmd_stats, "corpus tallies as JSON"),
    "convert-frames": (_cmd_convert_frames, "add SAME_FRAME edges or emit a frame report"),
    "train": (_cmd_train, "train the pairwise model"),
    "predict": (_cmd_predict, "predict relations with a trained checkpoint"),
    "evaluate": (_cmd_evaluate, "score predicted .ann files against gold"),
    "end-to-end": (_cmd_end_to_end, "predict over upstream-tagger entity files (--data) and score against --gold"),
    "cost-report": (_cmd_cost_report, "pairwise vs per-pair baseline training cost"),
    "grad-check": (_cmd_grad_check, "compare analytic gradients with central differences"),
}


@dataclass(frozen=True)
class Option:
    """One option: flag --<name>, environment MEDREX_<NAME>, config-file key <name>.

    A name has two rows only where its meaning or default differs between
    subcommands (``mode``, ``epochs``).
    """

    name: str
    kind: type
    default: object
    help: str
    commands: tuple[str, ...]
    shown: str | None = None  # how --help and docs/config.md state a None default
    choices: tuple[str, ...] = ()

    @property
    def flag(self) -> str:
        return "--" + self.name.replace("_", "-")

    def shown_default(self) -> str:
        if self.default is None:
            return self.shown or "—"
        return str(self.default).lower() if self.kind is bool else str(self.default)

    def help_text(self) -> str:
        parts = [self.help]
        if self.choices:
            parts.append("one of " + ", ".join(self.choices))
        if self.default is not None or self.shown:
            parts.append(f"default: {self.shown_default()}")
        return "; ".join(parts)


ALL = tuple(SUBCOMMANDS)
FIT = ("train", "cost-report")
MODEL_OPTION_HELP = {
    "d_model": "encoder width",
    "encoder_layers": "encoder depth",
    "encoder_heads": "encoder heads",
    "label_emb_dim": "label embedding size",
    "fusion_heads": "fusion attention heads",
    "relpos_emb_dim": "relative position embedding size",
    "hidden_dim": "pair head hidden size",
    "max_rel_dist": "relative distance clip radius",
    "dropout": "dropout probability",
}

OPTIONS = (
    Option("workdir", str, ".", "base directory for relative paths", tuple(c for c in ALL if c != "grad-check")),
    Option("seed", int, 0, "run seed", ("generate", "train", "cost-report", "grad-check")),
    Option("schema", str, "corp-hus", "schema profile name or file",
           ("generate", "stats", "convert-frames", "train", "evaluate", "cost-report")),
    Option("data", str, None, "input corpus directory (.txt/.ann pairs)",
           ("stats", "convert-frames", "train", "predict", "end-to-end", "cost-report")),
    Option("out", str, None, "output directory",
           ("generate", "convert-frames", "train", "predict", "evaluate", "end-to-end", "cost-report")),
    Option("ckpt", str, None, "checkpoint file from train", ("predict", "end-to-end")),
    Option("gold", str, None, "gold corpus directory", ("evaluate", "end-to-end")),
    Option("pred", str, None, "predicted corpus directory", ("evaluate",)),
    Option("docs", int, GenConfig.doc_count, "number of documents", ("generate",)),
    Option("multi_frame_rate", float, GenConfig.multi_frame_rate, "fraction of drugs with two regimen frames",
           ("generate",)),
    Option("context_relation_rate", float, GenConfig.context_relation_rate,
           "fraction of date links with contextual types", ("generate",)),
    Option("filler_rate", float, GenConfig.filler_rate, "fraction of entity-free sentences", ("generate",)),
    Option("sentences_min", int, GenConfig.sentences_min, "min sentences per doc", ("generate",)),
    Option("sentences_max", int, GenConfig.sentences_max, "max sentences per doc", ("generate",)),
    Option("lax", bool, False, "tolerate unknown types in input", ("stats",)),
    Option("mode", str, "add-same-frame", "write a SAME_FRAME-augmented corpus or a frame report", ("convert-frames",),
           choices=("add-same-frame", "report")),
    Option("mode", str, "both", "matching mode", ("evaluate",), choices=("strict", "lenient", "both")),
    Option("label_source", str, "gold", "entity labels: gold (strict parse) or provided (lax entity files)",
           ("predict",), choices=("gold", "provided")),
    Option("window", int, TrainConfig.window_chars, "sliding window size in characters", FIT),
    Option("stride", int, TrainConfig.stride_chars, "window stride in characters", FIT, shown="window/2"),
    Option("epochs", int, TrainConfig.epochs, "training epochs", ("train",)),
    Option("epochs", int, 1, "training epochs of each model", ("cost-report",)),
    Option("batch_size", int, TrainConfig.batch_size, "segments per step", FIT),
    Option("lr", float, TrainConfig.peak_lr, "peak learning rate", FIT),
    Option("warmup_fraction", float, TrainConfig.warmup_fraction, "fraction of steps spent ramping up", FIT),
    Option("null_weight", float, TrainConfig.null_class_weight, "multiplicative weight on no-relation pairs", FIT),
    Option("frame_augmentation", bool, TrainConfig.frame_augmentation,
           "train with complete per-frame SAME_FRAME graphs as an extra class", FIT),
    *(Option(name, type(getattr(ModelConfig, name)), None, help, FIT, shown=str(getattr(ModelConfig, name)))
      for name, help in MODEL_OPTION_HELP.items()),
    Option("preset", str, "full", "gradient-check fixture size", ("grad-check",),
           choices=tuple(GRAD_CHECK_PRESETS)),
    Option("samples", int, None, "sampled coordinates per parameter", ("grad-check",), shown="from preset"),
    Option("tol", float, 1e-4, "pass threshold on max relative error", ("grad-check",)),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medrex",
        description="Medication relation extraction: pairwise classification with frame decoding.",
        epilog=EXIT_CODE_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"medrex {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for command, (handler, summary) in SUBCOMMANDS.items():
        p = sub.add_parser(command, help=summary, epilog=EXIT_CODE_HELP,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", help="key=value config file; flags override it")
        for opt in OPTIONS:
            if command not in opt.commands:
                continue
            if opt.kind is bool:
                p.add_argument(opt.flag, dest=opt.name, action="store_const", const=True, help=opt.help_text())
            else:
                p.add_argument(opt.flag, dest=opt.name, type=opt.kind, help=opt.help_text())
        p.set_defaults(handler=handler)
    return parser


_ERROR_EXITS = [
    ((UnknownProfileError,), "unknown-schema", EXIT_UNKNOWN_SCHEMA),
    ((FileNotFoundError,), "missing-path", EXIT_MISSING_PATH),
    ((NotADirectoryError, IsADirectoryError, FileExistsError), "wrong-path-kind", EXIT_MISSING_PATH),
    ((StandoffError, TrainingError, GenerationError, WindowingError, ModelError), "validation", EXIT_VALIDATION),
    ((ConfigError, SchemaError, CheckpointError), "config", EXIT_CONFIG),
    ((FloatingPointError,), "non-finite", EXIT_VALIDATION),
]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # autograd reports a non-finite value itself (exit 3); numpy's warning would only precede the JSON
        with np.errstate(over="ignore", invalid="ignore"):
            return args.handler(Options(args))
    except tuple(exc for excs, _, _ in _ERROR_EXITS for exc in excs) as error:
        for exc_types, label, code in _ERROR_EXITS:
            if isinstance(error, exc_types):
                print(json.dumps({"error": label, "message": str(error)}), file=sys.stderr)
                return code
        raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
