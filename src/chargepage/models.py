"""Charge models: symmetry group plus local irrep multiplicities.

Charges are stored as *doubled* integers (2q) so that half-integer spins and
magnetic numbers stay exact. All public text I/O prints physical values.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping


class ModelValidationError(ValueError):
    pass


class UnknownModelError(ValueError):
    pass


def _integer(value, what: str) -> int:
    """An integer, integral float or decimal string as an int; never truncates."""
    try:
        if isinstance(value, str) or isinstance(value, float) and value.is_integer():
            return int(value)
    except ValueError:  # a string such as '0.5' falls through to the error below
        pass
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ModelValidationError(f"{what} = {value!r} must be an integer")


class GroupKind(Enum):
    U1 = "U1"
    SU2 = "SU2"


@dataclass(frozen=True)
class ChargeModel:
    """A group kind and the multiplicity of each local irrep.

    ``multiplicities`` maps doubled local charge (2*m_loc for U1, 2*j_loc for
    SU2) to the number of copies of that irrep in the one-body space.
    """

    group: GroupKind
    multiplicities: tuple[tuple[int, int], ...]
    name: str | None = None

    def __init__(self, group, multiplicities, name=None):
        if not isinstance(group, GroupKind):
            try:
                group = GroupKind[group]
            except (KeyError, TypeError):
                raise ModelValidationError(
                    f"unknown group {group!r}; expected U1 or SU2") from None
        if isinstance(multiplicities, Mapping):
            multiplicities = multiplicities.items()
        items = tuple(sorted((_integer(q, "charge key"), _integer(a, f"multiplicity a[{q}]"))
                             for q, a in multiplicities))
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "multiplicities", items)
        object.__setattr__(self, "name", name)
        self._validate()

    def _validate(self):
        if not self.multiplicities:
            raise ModelValidationError("multiplicity map must be non-empty")
        seen = set()
        for q2, a in self.multiplicities:
            if a < 1:
                raise ModelValidationError(f"multiplicity a[{q2}] = {a} must be >= 1")
            if q2 in seen:
                raise ModelValidationError(f"duplicate charge key {q2}")
            seen.add(q2)
            if self.group is GroupKind.SU2 and q2 < 0:
                raise ModelValidationError(f"SU2 local spin 2j = {q2} must be >= 0")
        if self.group is GroupKind.U1 and len(self.multiplicities) < 2:
            raise ModelValidationError("U1 model needs at least two distinct local charges")
        if self.local_dim < 2:
            raise ModelValidationError(f"local dimension k = {self.local_dim} must be >= 2")

    @property
    def local_dim(self) -> int:
        """Dimension k of the one-body Hilbert space."""
        if self.group is GroupKind.U1:
            return sum(a for _, a in self.multiplicities)
        return sum((j2 + 1) * a for j2, a in self.multiplicities)

    def as_dict(self) -> dict:
        """JSON-able echo used in config files and output metadata."""
        d = {
            "group": self.group.value,
            "multiplicities": {str(q2): a for q2, a in self.multiplicities},
        }
        if self.name is not None:
            d["name"] = self.name
        return d


def weight_multiplicities(model: ChargeModel) -> dict[int, int]:
    """Fourier/weight coefficients of the local character, keyed by doubled weight.

    For U1 these are the multiplicities themselves. For SU2 each irrep j
    contributes its multiplicity to every magnetic weight m = -j ... +j.
    """
    if model.group is GroupKind.U1:
        return dict(model.multiplicities)  # unique keys, stored sorted
    weights: dict[int, int] = {}
    for j2, a in model.multiplicities:
        for m2 in range(-j2, j2 + 1, 2):
            weights[m2] = weights.get(m2, 0) + a
    return dict(sorted(weights.items()))


def lattice_step(model: ChargeModel) -> int:
    """Spacing of the doubled weight lattice: gcd of weight differences, 1 if one weight."""
    weights = list(weight_multiplicities(model))
    return math.gcd(*(w - weights[0] for w in weights)) or 1


_CATALOG = {
    # name: (group, {doubled charge: multiplicity})
    "u1-qubit": (GroupKind.U1, {-1: 1, 1: 1}),
    "u1-qutrit": (GroupKind.U1, {-2: 1, 0: 1, 2: 1}),
    "u1-2bosons": (GroupKind.U1, {0: 1, 2: 2}),
    "su2-qubit": (GroupKind.SU2, {1: 1}),
    "su2-qutrit": (GroupKind.SU2, {2: 1}),
    "su2-trimer": (GroupKind.SU2, {1: 2, 3: 1}),
}


def catalog(name: str) -> ChargeModel:
    """Return one of the six builtin models by name."""
    try:
        group, mult = _CATALOG[name]
    except KeyError:
        valid = ", ".join(sorted(_CATALOG))
        raise UnknownModelError(f"unknown model {name!r}; valid names: {valid}")
    return ChargeModel(group, mult, name=name)


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def load_model(source) -> ChargeModel:
    """Build a ChargeModel from a config mapping or the path of a JSON file."""
    if isinstance(source, Mapping):
        doc = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, Mapping) or not isinstance(doc.get("multiplicities", {}), Mapping):
        raise ModelValidationError("model config must be a JSON object whose 'multiplicities' "
                                   "maps charges to multiplicities")
    if "group" not in doc or "multiplicities" not in doc:
        raise ModelValidationError("model config needs 'group' and 'multiplicities' fields")
    return ChargeModel(doc["group"], doc["multiplicities"], name=doc.get("name"))


def charge_str(q2: int) -> str:
    """Physical (possibly half-integer) rendering of a doubled charge."""
    return str(Fraction(q2, 2))
