"""Typed ECO edit sets and their canonical wire form.

An edit set is an ordered list of edits, each one of four kinds:

- ``net_reroute``    — throw away the named nets' 2-D routes and re-route
  them on the current grid (topology and initial layers rebuilt);
- ``net_resize``     — scale the named nets' pin capacitances by a factor
  (an RC perturbation: a driver/sink was resized downstream of us);
- ``capacity_change``— add/remove routing tracks on one tile's edges of
  one layer (a blockage appeared, or a column was freed);
- ``release_nets``   — no physical change; force the named nets (or the
  ``worst`` k nets by current path delay) into the dirty set so their
  partitions re-solve.  This is the closure loop's round primitive.

Edits are order-sensitive and deterministic: applying the same edit list
to the same committed state always produces the same post-edit problem,
which is what makes the incremental-vs-cold digest equivalence checkable.

Wire form (inside a ``repro.eco_request/v1`` body)::

    {"op": "net_reroute",    "nets": [3, 17]}
    {"op": "net_resize",     "nets": [3], "factor": 1.5}
    {"op": "capacity_change","tile": [4, 5], "layer": 3, "delta": -2}
    {"op": "release_nets",   "nets": [1, 2]}
    {"op": "release_nets",   "worst": 4}

``edit_set_digest`` is the canonical sha256 of the list; every ECO
report, ``/v1/eco`` response and ECO ledger entry carries it as
``edit_digest``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

EDIT_OPS = ("net_reroute", "net_resize", "capacity_change", "release_nets")

# Guardrails on one edit set — an ECO is a delta, not a rewrite.
MAX_EDITS = 64
MAX_NETS_PER_EDIT = 256


class EditError(ValueError):
    """A malformed edit set (maps to HTTP 400 on the serve path)."""


@dataclass(frozen=True)
class EcoEdit:
    """One typed edit of an ECO delta."""

    op: str
    nets: Tuple[int, ...] = ()
    factor: float = 1.0           # net_resize only
    tile: Optional[Tuple[int, int]] = None  # capacity_change only
    layer: int = 0                # capacity_change only
    delta: int = 0                # capacity_change only (tracks, +/-)
    worst: int = 0                # release_nets only: pick worst-k nets

    def to_json(self) -> Dict[str, Any]:
        body: Dict[str, Any] = {"op": self.op}
        if self.op == "net_reroute":
            body["nets"] = list(self.nets)
        elif self.op == "net_resize":
            body["nets"] = list(self.nets)
            body["factor"] = self.factor
        elif self.op == "capacity_change":
            body["tile"] = list(self.tile or ())
            body["layer"] = self.layer
            body["delta"] = self.delta
        elif self.op == "release_nets":
            if self.worst:
                body["worst"] = self.worst
            else:
                body["nets"] = list(self.nets)
        return body


def _net_list(body: Dict[str, Any]) -> Tuple[int, ...]:
    nets = body.get("nets")
    if (
        not isinstance(nets, (list, tuple))
        or not nets
        or not all(isinstance(n, int) and not isinstance(n, bool) and n >= 0
                   for n in nets)
    ):
        raise EditError(f"{body.get('op')}: 'nets' must be a non-empty list "
                        "of non-negative net ids")
    if len(nets) > MAX_NETS_PER_EDIT:
        raise EditError(
            f"{body.get('op')}: {len(nets)} nets exceeds the per-edit cap "
            f"of {MAX_NETS_PER_EDIT}"
        )
    # Order-normalized: the edit means "this set of nets", and normalizing
    # keeps the digest insensitive to list order.
    return tuple(sorted(set(nets)))


def parse_edit(body: Any) -> EcoEdit:
    """Validate one wire-form edit (raises :class:`EditError`)."""
    if not isinstance(body, dict):
        raise EditError("each edit must be a JSON object")
    op = body.get("op")
    if op not in EDIT_OPS:
        raise EditError(f"unknown edit op {op!r} (one of {EDIT_OPS})")
    known = {
        "net_reroute": {"op", "nets"},
        "net_resize": {"op", "nets", "factor"},
        "capacity_change": {"op", "tile", "layer", "delta"},
        "release_nets": {"op", "nets", "worst"},
    }[op]
    unknown = sorted(set(body) - known)
    if unknown:
        raise EditError(f"{op}: unknown keys {unknown}")
    if op == "net_reroute":
        return EcoEdit(op=op, nets=_net_list(body))
    if op == "net_resize":
        factor = body.get("factor")
        if (
            isinstance(factor, bool)
            or not isinstance(factor, (int, float))
            or not 0.01 <= float(factor) <= 100.0
        ):
            raise EditError("net_resize: 'factor' must be a number in "
                            "[0.01, 100]")
        return EcoEdit(op=op, nets=_net_list(body), factor=float(factor))
    if op == "capacity_change":
        tile = body.get("tile")
        if (
            not isinstance(tile, (list, tuple)) or len(tile) != 2
            or not all(isinstance(c, int) and not isinstance(c, bool)
                       and c >= 0 for c in tile)
        ):
            raise EditError("capacity_change: 'tile' must be [x, y] with "
                            "non-negative integers")
        layer = body.get("layer")
        if not isinstance(layer, int) or isinstance(layer, bool) or layer < 1:
            raise EditError("capacity_change: 'layer' must be an integer >= 1")
        delta = body.get("delta")
        if not isinstance(delta, int) or isinstance(delta, bool) or delta == 0:
            raise EditError("capacity_change: 'delta' must be a non-zero "
                            "integer (tracks added or removed)")
        return EcoEdit(
            op=op, tile=(int(tile[0]), int(tile[1])),
            layer=int(layer), delta=int(delta),
        )
    # release_nets: either an explicit id list or worst-k.
    worst = body.get("worst", 0)
    if worst:
        if not isinstance(worst, int) or isinstance(worst, bool) or worst < 1:
            raise EditError("release_nets: 'worst' must be an integer >= 1")
        if "nets" in body:
            raise EditError("release_nets: give either 'nets' or 'worst', "
                            "not both")
        return EcoEdit(op=op, worst=int(worst))
    return EcoEdit(op=op, nets=_net_list(body))


def parse_edits(payload: Any) -> List[EcoEdit]:
    """Validate a whole edit list (raises :class:`EditError`)."""
    if not isinstance(payload, (list, tuple)) or not payload:
        raise EditError("'edits' must be a non-empty list of edit objects")
    if len(payload) > MAX_EDITS:
        raise EditError(
            f"{len(payload)} edits exceeds the per-request cap of {MAX_EDITS}"
        )
    return [parse_edit(item) for item in payload]


def edits_to_json(edits: Sequence[EcoEdit]) -> List[Dict[str, Any]]:
    return [edit.to_json() for edit in edits]


def edit_set_digest(edits: Sequence[EcoEdit]) -> str:
    """Canonical sha256 of an edit list (order-sensitive by design)."""
    blob = json.dumps(
        edits_to_json(edits), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return "sha256:" + hashlib.sha256(blob).hexdigest()
