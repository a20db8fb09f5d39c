"""Annotation schema profiles: entity and relation inventories per corpus flavour.

Two profiles ship built in. ``corp-hus`` models a French hospital export;
note that it lists both ``Condition`` and ``Context`` entity types because
real exports disagree on which of the two is used — custom profiles can drop
either. ``n2c2`` models the 2018 medication/ADE challenge label set.

``SAME_FRAME`` is a reserved relation name. It marks two attributes as
belonging to the same regimen frame, is synthesised (never annotated), and
therefore can never be a member of a profile's relation inventory.
"""

from __future__ import annotations

from dataclasses import dataclass

SAME_FRAME = "SAME_FRAME"

# Catch-all entity type assigned to unknown types in lax parsing mode.
# Entities of this type are carried along but excluded from relation extraction.
OTHER_TYPE = "OTHER"


# a profile's type inventories, in field and file order
_TYPE_KEYS = ("entity_types", "relation_types", "attribute_types", "drug_types")


class SchemaError(ValueError):
    """Ill-formed schema profile."""


class UnknownProfileError(LookupError):
    """Requested profile name is not registered."""


@dataclass(frozen=True)
class SchemaProfile:
    name: str
    entity_types: frozenset[str]
    relation_types: frozenset[str]
    attribute_types: frozenset[str]
    drug_types: frozenset[str]

    def __post_init__(self):
        for key in _TYPE_KEYS:
            object.__setattr__(self, key, frozenset(getattr(self, key)))
        if not self.relation_types:
            raise SchemaError(f"profile {self.name!r}: relation_types may not be empty")
        if SAME_FRAME in self.relation_types:
            raise SchemaError(f"profile {self.name!r}: {SAME_FRAME} is reserved and never annotated")
        if not self.drug_types <= self.entity_types:
            raise SchemaError(f"profile {self.name!r}: drug_types must be a subset of entity_types")
        if not self.attribute_types <= self.entity_types:
            raise SchemaError(f"profile {self.name!r}: attribute_types must be a subset of entity_types")
        if self.drug_types & self.attribute_types:
            raise SchemaError(f"profile {self.name!r}: drug_types and attribute_types must be disjoint")
        if OTHER_TYPE in self.entity_types:
            raise SchemaError(f"profile {self.name!r}: {OTHER_TYPE} is reserved for lax parsing")

    def entity_type_list(self) -> list[str]:
        return sorted(self.entity_types)

    def relation_type_list(self) -> list[str]:
        return sorted(self.relation_types)

    def is_known_entity_type(self, etype: str) -> bool:
        return etype in self.entity_types or etype == OTHER_TYPE

    def to_dict(self) -> dict:
        return {"name": self.name, **{key: sorted(getattr(self, key)) for key in _TYPE_KEYS}}

    @classmethod
    def from_dict(cls, payload: dict) -> "SchemaProfile":
        """Rebuild a saved profile; a value of the wrong type raises SchemaError naming its key."""
        if not isinstance(payload["name"], str):
            raise SchemaError(f"profile key 'name' must be a string, got {payload['name']!r}")
        for key in _TYPE_KEYS:
            value = payload[key]
            if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
                raise SchemaError(f"profile key {key!r} must be a list of strings, got {value!r}")
        return cls(payload["name"], *(payload[key] for key in _TYPE_KEYS))


CORP_HUS = SchemaProfile(
    name="corp-hus",
    entity_types=frozenset({
        "Drug", "Drug_Class", "Date", "Relative_Date", "Dosage",
        "Frequency", "Route", "Duration", "Context", "Condition",
    }),
    relation_types=frozenset({
        "Refer_to", "Start", "Stop", "Ongoing", "Duration_prescription",
        "Administration_time", "Increase", "Decrease", "Negation",
        "Contraindicated", "Hypothetical", "Experiencer", "Coref", "Discontinue",
    }),
    attribute_types=frozenset({
        "Date", "Relative_Date", "Dosage", "Frequency", "Route",
        "Duration", "Context", "Condition",
    }),
    drug_types=frozenset({"Drug", "Drug_Class"}),
)

N2C2 = SchemaProfile(
    name="n2c2",
    entity_types=frozenset({
        "Drug", "Strength", "Form", "Dosage", "Frequency",
        "Route", "Duration", "Reason", "ADE",
    }),
    relation_types=frozenset({
        "Strength-Drug", "Form-Drug", "Dosage-Drug", "Frequency-Drug",
        "Route-Drug", "Duration-Drug", "Reason-Drug", "ADE-Drug",
    }),
    attribute_types=frozenset({
        "Strength", "Form", "Dosage", "Frequency", "Route",
        "Duration", "Reason", "ADE",
    }),
    drug_types=frozenset({"Drug"}),
)

BUILTIN_PROFILES: dict[str, SchemaProfile] = {p.name: p for p in (CORP_HUS, N2C2)}


_PROFILE_KEYS = {"name", *_TYPE_KEYS}


def read_key_value_file(path: str, error: type[Exception]) -> list[tuple[int, str, str]]:
    """(line number, key, value) for each ``key = value`` line of a UTF-8 file.

    Blank lines and ``#`` comments are skipped. Undecodable bytes and a line
    without ``=`` raise ``error`` naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    entries = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        entries.append((lineno, key, value))
    return entries


def load_profile(path: str) -> SchemaProfile:
    """Read a custom profile from a key=value file; list values are comma separated."""
    raw: dict[str, str] = {}
    for lineno, key, value in read_key_value_file(path, SchemaError):
        if key not in _PROFILE_KEYS:
            raise SchemaError(f"{path}:{lineno}: unknown profile key {key!r}")
        if key in raw:
            raise SchemaError(f"{path}:{lineno}: duplicate profile key {key!r}")
        raw[key] = value
    missing = _PROFILE_KEYS - raw.keys()
    if missing:
        raise SchemaError(f"{path}: missing profile keys: {', '.join(sorted(missing))}")

    def split(value: str) -> frozenset[str]:
        return frozenset(item.strip() for item in value.split(",") if item.strip())

    return SchemaProfile(raw["name"], *(split(raw[key]) for key in _TYPE_KEYS))


def resolve_profile(name_or_path: str) -> SchemaProfile:
    """Look up a built-in profile by name, or load a custom one from a file path."""
    if name_or_path in BUILTIN_PROFILES:
        return BUILTIN_PROFILES[name_or_path]
    import os

    if os.path.exists(name_or_path):
        return load_profile(name_or_path)
    known = ", ".join(sorted(BUILTIN_PROFILES))
    raise UnknownProfileError(f"unknown schema profile {name_or_path!r} (built in: {known}; or pass a file path)")
