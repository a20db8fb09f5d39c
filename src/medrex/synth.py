"""Deterministic generator for gold-annotated prescription-like corpora.

Documents are template-realised with exact gold offsets, in either schema
profile. Text is simplified French-flavoured prose (accented drug and context
words) so multi-byte offsets are exercised end to end. Link types follow
fixed lexical cues ("débuté le" starts, "arrêté le" stops, ...), the generic
attribute link dominating the mixture. Multi-frame drugs follow the
two-period pattern: one route and frequency per period, with the route and
the boundary date shared between the two frames; frame membership is encoded
in the emitted SAME_FRAME edges (complete graph per frame).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .frames import Frame, FrameSet, with_same_frame
from .schema import SchemaProfile, resolve_profile
from .standoff import Document, Entity, Relation

DRUGS = (
    "méthotrexate", "tocilizumab", "prednisone", "hydroxychloroquine",
    "léflunomide", "adalimumab", "étanercept", "rituximab", "abatacept",
    "sulfasalazine", "infliximab", "baricitinib",
)
DRUG_CLASSES = ("corticoïdes", "anti-TNF", "AINS", "biothérapie")
ROUTES = ("IV", "orale", "sous-cutanée", "intramusculaire")
FREQUENCIES = (
    "toutes les 4 semaines", "toutes les 2 semaines", "une fois par jour",
    "deux fois par jour", "une fois par semaine", "tous les mois",
)
DATES = (
    "janvier 2023", "février 2023", "mars 2023", "avril 2023", "mai 2023",
    "juin 2023", "juillet 2023", "août 2023", "septembre 2023",
    "octobre 2023", "novembre 2023", "décembre 2023",
)
RELATIVE_DATES = ("3 mois", "6 semaines", "un an", "quinze jours")
DOSAGES = ("500 mg", "10 mg", "20 mg", "1 g", "200 mg", "15 mg", "50 mg", "160 mg")
DURATIONS = ("3 mois", "6 semaines", "un an", "15 jours")
FORMS = ("comprimé", "injection", "gélule", "solution")
REASONS = ("polyarthrite", "douleurs", "inflammation", "poussée")
ADES = ("nausées", "éruption cutanée", "céphalées", "neutropénie")

FILLERS = (
    "Le patient va bien.",
    "Examen clinique sans particularité.",
    "Bonne tolérance globale du traitement.",
    "Évolution favorable depuis la dernière consultation.",
)
PADS = (
    "dans le cadre du suivi",
    "après avis spécialisé",
    "en raison de l'activité de la maladie",
    "avec une bonne tolérance",
    "selon le protocole habituel",
    "au vu de l'évolution clinique",
)
PADS_EN = (
    "as part of the discharge plan",
    "per rheumatology recommendation",
    "with close monitoring",
    "as previously discussed",
)


class GenerationError(ValueError):
    """Invalid generator configuration."""


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    doc_count: int = 50
    sentences_min: int = 3
    sentences_max: int = 8
    schema_name: str = "corp-hus"
    multi_frame_rate: float = 0.04
    context_relation_rate: float = 0.5
    filler_rate: float = 0.25

    def __post_init__(self):
        for name in ("multi_frame_rate", "context_relation_rate", "filler_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise GenerationError(f"{name} must lie in [0, 1], got {value}")
        if self.seed < 0:
            raise GenerationError(f"seed must be at least 0, got {self.seed}")
        if self.doc_count < 0:
            raise GenerationError("doc_count must be non-negative")
        if not 1 <= self.sentences_min <= self.sentences_max:
            raise GenerationError("need 1 <= sentences_min <= sentences_max")

    def schema(self) -> SchemaProfile:
        return resolve_profile(self.schema_name)


class _Sentence:
    """Accumulates one sentence's text and locally indexed entities."""

    def __init__(self):
        self._chunks: list[str] = []
        self._pos = 0
        self.entities: list[tuple[str, int, int, str]] = []  # etype, start, end, surface
        self.links: list[tuple[int, str]] = []  # (local attribute index, rtype)
        self.drug: int | None = None
        self.frames: list[list[int]] | None = None

    def lit(self, text: str) -> None:
        self._chunks.append(text)
        self._pos += len(text)

    def ent(self, etype: str, surface: str) -> int:
        start = self._pos
        self.lit(surface)
        self.entities.append((etype, start, start + len(surface), surface))
        return len(self.entities) - 1

    def text(self) -> str:
        return "".join(self._chunks)


_DATE_CUES = [("débuté le ", "Start"), ("arrêté le ", "Stop"), ("poursuivi en ", "Ongoing")]


def _regimen_sentence(rng: random.Random, cfg: GenConfig, drug_pool: tuple[str, ...], drug_type: str) -> _Sentence:
    s = _Sentence()
    s.lit(rng.choice((
        "Patient traité par ",
        "Dans les suites de la consultation, le patient reçoit ",
        "Sur le plan thérapeutique, poursuite de ",
        "À l'issue du bilan, introduction de ",
    )))
    s.drug = s.ent(drug_type, rng.choice(drug_pool))
    if rng.random() < 0.6:
        s.lit(" ")
        s.links.append((s.ent("Dosage", rng.choice(DOSAGES)), "Refer_to"))
    if rng.random() < 0.45:
        s.lit(" en ")
        s.links.append((s.ent("Route", rng.choice(ROUTES)), "Refer_to"))
    if rng.random() < 0.45:
        s.lit(" ")
        s.links.append((s.ent("Frequency", rng.choice(FREQUENCIES)), "Refer_to"))
    if rng.random() < cfg.context_relation_rate:
        cue, rtype = rng.choice(_DATE_CUES)
    else:
        cue, rtype = "prescrit le ", "Refer_to"
    s.lit(", " + cue)
    s.links.append((s.ent("Date", rng.choice(DATES)), rtype))
    if rng.random() < 0.85:
        s.lit(" " + rng.choice(PADS))
    if rng.random() < 0.5:
        s.lit(" et " + rng.choice(PADS))
    s.lit(".")
    return s


def _multi_frame_sentence(rng: random.Random) -> _Sentence:
    s = _Sentence()
    s.lit("Traitement par ")
    s.drug = s.ent("Drug", rng.choice(DRUGS))
    s.lit(" en ")
    route = s.ent("Route", rng.choice(ROUTES))
    s.lit(" ")
    freq1 = s.ent("Frequency", rng.choice(FREQUENCIES))
    s.lit(" de ")
    date1 = s.ent("Date", rng.choice(DATES))
    s.lit(" à ")
    date2 = s.ent("Date", rng.choice(DATES))
    s.lit(", puis ")
    freq2 = s.ent("Frequency", rng.choice(FREQUENCIES))
    s.lit(" jusqu'à ")
    date3 = s.ent("Date", rng.choice(DATES))
    s.lit(".")
    for attr in (route, freq1, date1, date2, freq2, date3):
        s.links.append((attr, "Refer_to"))
    s.frames = [[route, freq1, date1, date2], [route, freq2, date2, date3]]
    return s


def _simple_special(rng: random.Random, kind: str) -> _Sentence:
    s = _Sentence()
    if kind == "increase" or kind == "decrease":
        s.lit("Majoration de " if kind == "increase" else "Diminution de ")
        s.drug = s.ent("Drug", rng.choice(DRUGS))
        s.lit(" à ")
        s.links.append((s.ent("Dosage", rng.choice(DOSAGES)), "Increase" if kind == "increase" else "Decrease"))
        if rng.random() < 0.6:
            s.lit(" " + rng.choice(PADS))
        s.lit(".")
    elif kind == "negation":
        ctx = s.ent("Context", "Pas de")
        s.lit(" reprise de ")
        s.drug = s.ent("Drug", rng.choice(DRUGS))
        s.lit(" ")
        s.links.append((s.ent("Dosage", rng.choice(DOSAGES)), "Refer_to"))
        s.lit(".")
        s.links.append((ctx, "Negation"))
    elif kind == "hypothetical":
        ctx = s.ent("Context", "Hypothèse")
        s.lit(" d'un passage à ")
        s.drug = s.ent("Drug", rng.choice(DRUGS))
        s.lit(" à discuter.")
        s.links.append((ctx, "Hypothetical"))
    elif kind == "contraindicated":
        ctx = s.ent("Context", "Contre-indication")
        s.lit(" à ")
        s.drug = s.ent("Drug", rng.choice(DRUGS))
        s.lit(" retenue.")
        s.links.append((ctx, "Contraindicated"))
    elif kind == "duration":
        s.lit("Prescription de ")
        s.drug = s.ent("Drug", rng.choice(DRUGS))
        s.lit(" ")
        s.links.append((s.ent("Dosage", rng.choice(DOSAGES)), "Refer_to"))
        s.lit(" pendant ")
        s.links.append((s.ent("Duration", rng.choice(DURATIONS)), "Duration_prescription"))
        if rng.random() < 0.5:
            s.lit(" " + rng.choice(PADS))
        s.lit(".")
    elif kind == "relative":
        s.lit("Introduction de ")
        s.drug = s.ent("Drug", rng.choice(DRUGS))
        s.lit(" il y a ")
        s.links.append((s.ent("Relative_Date", rng.choice(RELATIVE_DATES)), "Start"))
        s.lit(".")
    else:
        raise AssertionError(kind)
    return s


_SPECIAL_KINDS = ("increase", "decrease", "negation", "hypothetical", "contraindicated", "duration", "relative")


def _corp_hus_sentence(rng: random.Random, cfg: GenConfig) -> _Sentence:
    if rng.random() < cfg.multi_frame_rate:
        return _multi_frame_sentence(rng)
    roll = rng.random()
    if roll < 0.70:
        if rng.random() < 0.08:
            return _regimen_sentence(rng, cfg, DRUG_CLASSES, "Drug_Class")
        return _regimen_sentence(rng, cfg, DRUGS, "Drug")
    return _simple_special(rng, rng.choice(_SPECIAL_KINDS))


def _n2c2_regimen(rng: random.Random, cfg: GenConfig) -> _Sentence:
    s = _Sentence()
    s.lit(rng.choice(("Patient was started on ", "Continue ", "She was given ")))
    s.drug = s.ent("Drug", rng.choice(DRUGS))
    if rng.random() < 0.6:
        s.lit(" ")
        s.links.append((s.ent("Strength", rng.choice(DOSAGES)), "Strength-Drug"))
    if rng.random() < 0.4:
        s.lit(" ")
        s.links.append((s.ent("Form", rng.choice(FORMS)), "Form-Drug"))
    if rng.random() < 0.45:
        s.lit(" ")
        s.links.append((s.ent("Route", rng.choice(ROUTES)), "Route-Drug"))
    if rng.random() < 0.5:
        s.lit(" ")
        s.links.append((s.ent("Frequency", rng.choice(FREQUENCIES)), "Frequency-Drug"))
    if rng.random() < cfg.context_relation_rate:
        s.lit(" for ")
        s.links.append((s.ent("Reason", rng.choice(REASONS)), "Reason-Drug"))
    if rng.random() < 0.5:
        s.lit(" " + rng.choice(PADS_EN))
    s.lit(".")
    return s


def _n2c2_multi_frame(rng: random.Random) -> _Sentence:
    s = _Sentence()
    s.lit("Plan: ")
    s.drug = s.ent("Drug", rng.choice(DRUGS))
    s.lit(" ")
    strength1 = s.ent("Strength", rng.choice(DOSAGES))
    s.lit(" for ")
    duration1 = s.ent("Duration", rng.choice(DURATIONS))
    s.lit(", then ")
    strength2 = s.ent("Strength", rng.choice(DOSAGES))
    s.lit(" for ")
    duration2 = s.ent("Duration", rng.choice(DURATIONS))
    s.lit(".")
    s.links.extend([(strength1, "Strength-Drug"), (duration1, "Duration-Drug"),
                    (strength2, "Strength-Drug"), (duration2, "Duration-Drug")])
    s.frames = [[strength1, duration1], [strength2, duration2]]
    return s


def _n2c2_ade(rng: random.Random) -> _Sentence:
    s = _Sentence()
    s.lit("Patient developed ")
    ade = s.ent("ADE", rng.choice(ADES))
    s.lit(" attributed to ")
    s.drug = s.ent("Drug", rng.choice(DRUGS))
    s.lit(".")
    s.links.append((ade, "ADE-Drug"))
    return s


def _n2c2_sentence(rng: random.Random, cfg: GenConfig) -> _Sentence:
    if rng.random() < cfg.multi_frame_rate:
        return _n2c2_multi_frame(rng)
    if rng.random() < 0.12:
        return _n2c2_ade(rng)
    return _n2c2_regimen(rng, cfg)


def _lone_date_sentence(rng: random.Random, schema: SchemaProfile) -> _Sentence:
    s = _Sentence()
    if "Date" in schema.entity_types:
        s.lit("Consultation du ")
        s.ent("Date", rng.choice(DATES))
        s.lit(".")
    else:
        s.lit("Follow-up in ")
        s.ent("Duration", rng.choice(DURATIONS))
        s.lit(".")
    return s


def _generate_document(index: int, cfg: GenConfig, schema: SchemaProfile) -> Document:
    rng = random.Random(f"{cfg.seed}:{index}")
    sentence_count = rng.randint(cfg.sentences_min, cfg.sentences_max)
    sentences: list[_Sentence] = []
    for _ in range(sentence_count):
        roll = rng.random()
        if roll < cfg.filler_rate:
            filler = _Sentence()
            filler.lit(rng.choice(FILLERS))
            sentences.append(filler)
        elif roll < cfg.filler_rate + 0.07:
            sentences.append(_lone_date_sentence(rng, schema))
        elif schema.name == "n2c2":
            sentences.append(_n2c2_sentence(rng, cfg))
        else:
            sentences.append(_corp_hus_sentence(rng, cfg))

    chunks: list[str] = []
    entities: list[Entity] = []
    relations: list[Relation] = []
    frames: list[Frame] = []
    offset = 0
    for s in sentences:
        local_ids: list[str] = []
        for etype, start, end, surface in s.entities:
            eid = f"T{len(entities) + 1}"
            local_ids.append(eid)
            entities.append(Entity(eid, etype, offset + start, offset + end, surface))
        drug_id = local_ids[s.drug] if s.drug is not None else None
        if drug_id is not None:
            links = [(local_ids[attr], rtype) for attr, rtype in s.links]
            for attr_id, rtype in links:
                relations.append(Relation(f"R{len(relations) + 1}", rtype, attr_id, drug_id))
            if s.frames is None:
                frames.append(Frame(drug_id, tuple(links)))
            else:
                rtypes = dict(links)
                for group in s.frames:
                    frames.append(Frame(drug_id, tuple((local_ids[a], rtypes[local_ids[a]]) for a in group)))
        chunks.append(s.text())
        offset += len(s.text()) + 1  # newline separator
    text = "\n".join(chunks) + ("\n" if chunks else "")

    doc = Document(f"doc{index:04d}", text, tuple(entities), tuple(relations))
    multi = FrameSet(tuple(frames)).multi_frame_drugs()
    return with_same_frame(doc, [f for f in frames if f.drug in multi])

def generate_corpus(cfg: GenConfig) -> list[Document]:
    """Deterministic under the seed; per-document derived seeds keep it parallel-safe.

    Only multi-frame drugs carry SAME_FRAME edges (one complete graph per
    frame); single-frame drugs need none, because attributes without edges
    form one frame by default.
    """
    schema = cfg.schema()
    return [_generate_document(i, cfg, schema) for i in range(cfg.doc_count)]
