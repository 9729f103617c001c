"""Canonical renderings and sha256 digests of what an item checked.

A rendering never depends on dict or set iteration order: every collection
is rendered element by element and sorted, and every rational is written as
its exact ``p/q`` string.  Two runs agree on a digest only when they agree
on every weight, every action row and every masked label, byte for byte.
"""

import hashlib
from fractions import Fraction


def render(value):
    """Deterministic text for rationals, tuples, dicts, sets and library objects."""
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, int):
        return f"{value}/1"
    if isinstance(value, str):
        return repr(value)
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(render(v) for v in value) + ")"
    if isinstance(value, dict):
        return "{" + ",".join(sorted(f"{render(k)}:{render(v)}" for k, v in value.items())) + "}"
    if isinstance(value, (set, frozenset)):
        return "{" + ",".join(sorted(render(v) for v in value)) + "}"
    name = type(value).__name__
    if name == "AffWeight":
        return f"W[{render(value.fin)}|{render(value.d)}|{render(value.k)}]"
    if name == "AffElt":
        return f"A[{render(value.c)}|{render(value.d)}|{render(value.k)}]"
    if name == "LieElt":
        return f"L[{render(value.c)}]"
    raise TypeError(f"no canonical rendering for {name}")


def module_lines(M):
    """Sorted lines for the weights, action rows and mask of a GradedModule."""
    lines = [f"w {render(lab)} {render(w)}" for lab, w in M.weight_of.items()]
    lines += [f"a {render(gk)} {render(lab)} {render(row)}" for (gk, lab), row in M.action.items()]
    lines += [f"b {render(lab)}" for lab in M.boundary]
    lines.sort()
    return lines


def module_digest(M):
    return hashlib.sha256("\n".join(module_lines(M)).encode()).hexdigest()


class Digest:
    """Running sha256 over the renderings of a sequence of items."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, index, parts):
        """parts: (tag, value) pairs; a module is rendered by module_lines."""
        self._h.update(f"item {index}\n".encode())
        for tag, value in parts:
            if hasattr(value, "weight_of") and hasattr(value, "action"):
                text = module_digest(value)
            else:
                text = render(value)
            self._h.update(f"{tag} {text}\n".encode())

    def hexdigest(self):
        return self._h.hexdigest()
