"""Scenario files, named states, and deterministic JSON/CSV serialization.

A scenario is a single JSON document describing the monitored system, the
initial state, the record length, the smoothing time, and which priors to
build.  Matrices are carried as ``{"real": [[...]], "imag": [[...]]}``
nested arrays.  Supported system types:

``lindblad``
    ``hamiltonian``, ``jump_operators`` (each ``{"matrix", "efficiency"}``)
    and ``dt``; discretized into one step's instrument, each Kraus operator
    named by its bob label (``"0"`` or the undetected channel).
``joint_instrument``
    Explicit rank-one operations, one per ``(alice, bob)`` outcome pair:
    outcome ``alice`` gets a Kraus operator named ``bob``.
``instrument``
    Explicit Kraus lists per outcome, named by their zero-padded index.
``classical``
    A hidden-Markov model (``transition``, ``likelihood``); realized as an
    instrument whose Kraus operators are the single-entry matrices
    ``sqrt(D(x|x') p(y|x')) |x><x'|``, named by the transition edge.

Every system supports every prior kind: the record-register priors
(``gw``, ``gw-variant``) branch over the names of the Kraus operators.

All floats written by this module use 17 significant digits, so emitted
files are byte-stable and round-trip exactly.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from .classical import ClassicalModel
from .errors import InvalidDistribution, InvalidMatrix, NotPSD, ScenarioError, StepTooCoarse
from .linalg import as_density, require_finite
from .retrodiction import PRIOR_KINDS, FilteredGlobalState
from .smoothers import build_custom
from .trajectory import DEFAULT_ENUMERATION_CAP
from .trajectory import ConditionalOp, Instrument, JumpChannel, LindbladSpec, discretize


# ---------------------------------------------------------------------------
# deterministic float / JSON formatting


def fmt17(x: float) -> str:
    """Format a float with 17 significant digits (lossless for binary64)."""
    return f"{float(x):.17g}"


_FLAT = (int, float, bool, str, type(None))  # the item types of a list or tuple written on one line


def _leaf(obj, pad: str) -> str:
    """A value :func:`dump_17` writes in one piece: a scalar, an empty or flat container, a real 2-d array."""
    if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind == "f":
        if not len(obj):
            return "[]"
        # one %-format for the whole array: "%.17g" writes what f"{x:.17g}" does
        row = pad + "  [" + ", ".join(["%.17g"] * obj.shape[1]) + "]"
        return ("[\n" + ",\n".join([row] * len(obj)) + "\n" + pad + "]") % tuple(obj.ravel().tolist())
    if isinstance(obj, dict):  # empty
        return "{}"
    if isinstance(obj, (list, tuple)):  # empty or flat
        return "[" + ", ".join([_leaf(v, pad) for v in obj]) + "]"
    if isinstance(obj, bool) or obj is None:
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt17(float(obj))
    if isinstance(obj, str):
        return _quote(obj)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dump_17(obj, write, indent: int = 0) -> None:
    """Serialize to JSON with floats at 17 significant digits, 2-space indent, in pieces passed to ``write``.

    A non-empty dict, and a list or tuple holding more than ``int``, ``float``,
    ``bool``, ``str`` and ``None``, put each item on a line of its own.  Keys
    and strings are escaped as ``json.dumps`` escapes them by default.
    """
    pad = "  " * indent
    keyed = isinstance(obj, dict)
    if keyed and obj or isinstance(obj, (list, tuple)) and not all(isinstance(v, _FLAT) for v in obj):
        sep = "{\n" if keyed else "[\n"
        for k, v in obj.items() if keyed else enumerate(obj):
            write(f"{sep}{pad}  {_quote(str(k))}: " if keyed else sep + pad + "  ")
            dump_17(v, write, indent + 1)
            sep = ",\n"
        write("\n" + pad + ("}" if keyed else "]"))
    else:
        write(_leaf(obj, pad))


def dumps_17(obj, indent: int = 0) -> str:
    """:func:`dump_17` as one string."""
    pieces: list[str] = []
    dump_17(obj, pieces.append, indent)
    return "".join(pieces)


def matrix_to_json(m) -> dict:
    a = np.asarray(m, dtype=complex)
    return {"real": a.real.tolist(), "imag": a.imag.tolist()}


def matrix_from_json(obj, where: str) -> np.ndarray:
    if not isinstance(obj, dict) or "real" not in obj:
        raise ScenarioError(f"{where}: expected a matrix object with 'real' (and 'imag') arrays")
    try:
        real = np.asarray(obj["real"], dtype=float)
        imag = np.asarray(obj.get("imag", np.zeros_like(real)), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: malformed matrix arrays ({exc})") from None
    if real.shape != imag.shape or real.ndim != 2:
        raise ScenarioError(f"{where}: real/imag parts must be equal-shape 2-d arrays")
    try:
        require_finite(np.stack([real, imag]), where)
    except InvalidMatrix as exc:
        raise ScenarioError(str(exc)) from None
    return real + 1j * imag


# ---------------------------------------------------------------------------
# named states


def named_state(name: str, dim: int) -> np.ndarray:
    """Resolve a named initial state: maximally_mixed, ground, or plus."""
    if name == "maximally_mixed":
        return np.eye(dim, dtype=complex) / dim
    if name == "ground":
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho
    if name == "plus":
        if dim != 2:
            raise ScenarioError(f"named state 'plus' requires a qubit, got dim {dim}")
        return np.full((2, 2), 0.5, dtype=complex)
    raise ScenarioError(f"unknown named state {name!r}")


# ---------------------------------------------------------------------------
# system construction


def classical_instrument(model: ClassicalModel) -> Instrument:
    """Realize a hidden-Markov model as an instrument.

    Outcome ``y`` gets one Kraus operator ``sqrt(D(x|x') p(y|x')) |x><x'|``
    per transition ``x' -> x`` of nonzero weight, named by the edge
    ``"x'>x"``; bob's record is then the state path itself.
    """
    n = model.n_states
    pairs = []
    for y in model.outcome_labels:
        for x_old in range(n):
            for x_new in range(n):
                w = model.transition[x_new, x_old] * model.likelihood[y][x_old]
                if w <= 0.0:
                    continue
                m = np.zeros((n, n), dtype=complex)
                m[x_new, x_old] = np.sqrt(w)
                pairs.append(((y, f"{x_old}>{x_new}"), m))
    return Instrument.from_pairs(pairs)


def _number(doc: dict, key: str, default, where: str) -> float:
    """``doc[key]`` (or ``default``) as a finite float."""
    value = doc.get(key, default)
    try:
        if np.isfinite(x := float(value)):
            return x
    except (TypeError, ValueError):
        pass
    raise ScenarioError(f"{where}: expected a finite number, got {value!r}")


def _build_system(spec: dict) -> tuple[Instrument, ClassicalModel | None]:
    """The instrument of a ``system`` block, with its classical model if it has one."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise ScenarioError("system: expected an object with a 'type' field")
    kind = spec["type"]
    if kind == "lindblad":
        ham = matrix_from_json(spec.get("hamiltonian"), "system.hamiltonian")
        jump_ops = spec.get("jump_operators", [])
        if not isinstance(jump_ops, list):
            raise ScenarioError(f"system.jump_operators: expected a list, got {jump_ops!r}")
        channels = []
        for i, ch in enumerate(jump_ops):
            where = f"system.jump_operators[{i}]"
            if not isinstance(ch, dict) or "matrix" not in ch:
                raise ScenarioError(f"{where}: expected an object with a 'matrix'")
            detection = ch.get("detection", "jump")
            if detection != "jump":
                raise ScenarioError(
                    f"{where}.detection: {detection!r} not supported; only 'jump' unravelings"
                )
            channels.append(
                JumpChannel(
                    operator=matrix_from_json(ch["matrix"], where),
                    efficiency=_number(ch, "efficiency", 1.0, f"{where}.efficiency"),
                )
            )
        dt = _number(spec, "dt", None, "system.dt")
        return discretize(LindbladSpec(ham, tuple(channels), dt)), None
    if kind == "joint_instrument":
        entries = spec.get("operations")
        if not isinstance(entries, list) or not entries:
            raise ScenarioError("system.operations: expected a nonempty list")
        pairs = []
        for i, entry in enumerate(entries):
            where = f"system.operations[{i}]"
            try:
                label = (str(entry["alice"]), str(entry["bob"]))
                kraus = entry["kraus"]
            except (KeyError, TypeError):
                raise ScenarioError(f"{where}: needs 'alice', 'bob' and 'kraus'") from None
            if not isinstance(kraus, list) or len(kraus) != 1:
                raise ScenarioError(f"{where}.kraus: a joint outcome needs exactly one Kraus operator")
            pairs.append((label, matrix_from_json(kraus[0], f"{where}.kraus[0]")))
        return Instrument.from_pairs(pairs), None
    if kind == "instrument":
        table = spec.get("operations")
        if not isinstance(table, dict) or not table:
            raise ScenarioError("system.operations: expected an object keyed by outcome")
        ops = {}
        for y, kraus in table.items():
            where = f"system.operations[{y!r}]"
            if not isinstance(kraus, list):
                raise ScenarioError(f"{where}: expected a list of Kraus operators")
            ops[str(y)] = ConditionalOp(
                tuple(matrix_from_json(k, f"{where}[{j}]") for j, k in enumerate(kraus))
            )
        return Instrument(ops), None
    if kind == "classical":
        if not isinstance(spec.get("likelihood"), dict):
            raise ScenarioError("system.likelihood: expected an object keyed by outcome")
        try:
            transition = np.asarray(spec["transition"], dtype=float)
            likelihood = {str(y): np.asarray(v, dtype=float) for y, v in spec["likelihood"].items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(f"system: malformed classical model ({exc})") from None
        model = ClassicalModel(transition, likelihood)
        return classical_instrument(model), model
    raise ScenarioError(f"system.type: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# scenario


@dataclass(frozen=True, eq=False)
class Scenario:
    """A loaded scenario: its parsed, validated values and the document ``raw`` they came from.

    :meth:`from_dict` builds the ``instrument`` (and the ``classical`` model of a
    hidden-Markov system) and the ``custom_prior`` extension, and checks ``rho0``
    against its dimension on load.
    """

    name: str
    instrument: Instrument
    classical: ClassicalModel | None
    rho0: np.ndarray
    steps: int
    smoothing_index: int
    prior_kinds: tuple[str, ...]
    seed: int
    enumeration_cap: int
    n_trajectories: int
    custom_prior: FilteredGlobalState | None
    theorem1: tuple[int, list[int], list[int], list[int]]
    raw: dict = field(repr=False)

    @classmethod
    def from_dict(cls, doc: dict) -> "Scenario":
        if not isinstance(doc, dict):
            raise ScenarioError("scenario: expected a JSON object")
        if "steps" not in doc:
            raise ScenarioError("steps: required integer")
        steps = _integer(doc, "steps", None, minimum=0)
        if steps > sys.maxsize:  # no command can index that many steps
            raise ScenarioError(f"steps: must be at most {sys.maxsize}, got {steps}")
        t = _integer(doc, "smoothing_time_index", steps, minimum=0)
        if t > steps:
            raise ScenarioError(f"smoothing_time_index: {t} outside [0, {steps}]")
        kinds = doc.get("prior_kinds", ["pf"])
        if not isinstance(kinds, list):
            raise ScenarioError(f"prior_kinds: expected a list of kind names, got {kinds!r}")
        kinds = tuple(str(k) for k in kinds)
        for k in kinds:
            if k not in PRIOR_KINDS:
                raise ScenarioError(f"prior_kinds: unknown kind {k!r} (choose from {PRIOR_KINDS})")
        if "system" not in doc:
            raise ScenarioError("system: required")
        if "rho0" not in doc:
            raise ScenarioError("rho0: required")
        # read in this order, so that of a document with several errors the first is reported
        settings = dict(
            theorem1=theorem1_config(doc),  # read by entropy-scan, but a bad block fails every command
            name=_name(doc),
            seed=_integer(doc, "seed", 0),
            enumeration_cap=_integer(doc, "enumeration_cap", DEFAULT_ENUMERATION_CAP, minimum=1),
            n_trajectories=_integer(doc, "n_trajectories", 100, minimum=0),
            custom_prior=_custom_prior(doc),
        )
        _require_kinds(kinds, settings["custom_prior"])
        instrument, classical = _checked_system(doc["system"])
        settings["custom_prior"] = _custom_extension(settings["custom_prior"], instrument.dim)
        rho0 = _rho0(doc["rho0"], instrument.dim)
        return cls(instrument=instrument, classical=classical, rho0=rho0, steps=steps, smoothing_index=t,
                   prior_kinds=kinds, raw=doc, **settings)

    @classmethod
    def from_file(cls, path) -> "Scenario":
        p = Path(path)
        try:
            doc = json.loads(p.read_text())
        except FileNotFoundError:
            raise ScenarioError(f"scenario file not found: {p}") from None
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file {p}: {exc.strerror or exc}") from None
        except json.JSONDecodeError as exc:
            raise ScenarioError(f"{p}:{exc.lineno}: invalid JSON ({exc.msg})") from None
        return cls.from_dict(doc)

    @property
    def dim(self) -> int:
        return self.instrument.dim

    def build(self) -> Instrument:
        """``instrument``; an accessor kept only because ``bench/child.py`` calls it at setup."""
        return self.instrument

    def require_kinds(self, kinds) -> None:
        """Raise :class:`ScenarioError` unless the scenario can build every prior kind in ``kinds``."""
        _require_kinds(kinds, self.custom_prior)


def _require_kinds(kinds, custom_prior) -> None:
    if "custom" in kinds and custom_prior is None:
        raise ScenarioError("custom_prior: required when prior kind 'custom' is requested")


def _checked_system(spec) -> tuple[Instrument, ClassicalModel | None]:
    """The system of ``spec``; a spec that gives no valid one is a :class:`ScenarioError`."""
    try:
        return _build_system(spec)
    except (InvalidMatrix, NotPSD, InvalidDistribution, StepTooCoarse) as exc:
        raise ScenarioError(f"system: {exc}") from None


def _custom_extension(custom_prior, dim: int) -> FilteredGlobalState | None:
    """A ``custom_prior`` block's ``(matrix, dim_a)`` built on a ``dim``-level system; a bad size is a ScenarioError."""
    if custom_prior is None:
        return None
    matrix, dim_a = custom_prior
    if len(matrix) != dim * dim_a:
        raise ScenarioError(f"custom_prior: dimension {len(matrix)} is not {dim} x dim_a={dim_a}")
    return build_custom(matrix, (dim, dim_a))


def _rho0(spec, dim: int) -> np.ndarray:
    """The ``rho0`` block as a density operator of dimension ``dim``, validated."""
    if isinstance(spec, str):
        return named_state(spec, dim)
    if isinstance(spec, list):
        try:
            probs = np.asarray(spec, dtype=float)
        except (TypeError, ValueError):
            raise ScenarioError("rho0: probability vector must hold numbers") from None
        if probs.ndim != 1 or probs.shape[0] != dim:
            raise ScenarioError(f"rho0: probability vector must have length {dim}")
        rho = np.diag(probs).astype(complex)
    else:
        rho = matrix_from_json(spec, "rho0")
        if rho.shape != (dim, dim):
            raise ScenarioError(f"rho0: shape {rho.shape} does not match system dim {dim}")
    try:
        return as_density(rho, "rho0")
    except (InvalidMatrix, NotPSD) as exc:
        raise ScenarioError(str(exc)) from None


def _name(doc: dict) -> str:
    """``doc["name"]`` (or ``"scenario"``), which must be a file-name stem: every output is ``<name>_*``."""
    name = str(doc.get("name", "scenario"))
    for sep in (os.sep, os.altsep, "\0"):
        if sep and sep in name:
            raise ScenarioError(f"name: {name!r} holds {sep!r}, but it must be a file-name stem")
    return name


def _integer(doc: dict, key: str, default, minimum: int | None = None) -> int:
    """``doc[key]`` (or ``default``) as an integer >= ``minimum``; a bool or a fraction is an error."""
    value = doc.get(key, default)
    try:
        if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
            raise ValueError
        n = int(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"{key}: expected an integer, got {value!r}") from None
    if minimum is not None and n < minimum:
        raise ScenarioError(f"{key}: must be at least {minimum}, got {n}")
    return n


def theorem1_config(doc: dict) -> tuple[int, list[int], list[int], list[int]]:
    """The ``theorem1`` block as ``(n_extensions, dim_q, dim_a, n_effects)``, validated."""
    cfg = doc.get("theorem1") or {}
    if not isinstance(cfg, dict):
        raise ScenarioError(f"theorem1: expected an object, got {cfg!r}")
    cfg = {f"theorem1.{key}": value for key, value in cfg.items()}
    choices = []
    for key, default in (("dim_q", [2, 3]), ("dim_a", [2, 3, 4]), ("n_effects", [2, 3, 4])):
        key = f"theorem1.{key}"
        values = cfg.get(key, default)
        if not isinstance(values, (list, tuple)) or not values:
            raise ScenarioError(f"{key}: expected a nonempty list of integers, got {values!r}")
        choices.append([_integer({key: v}, key, None, minimum=1) for v in values])
    return (_integer(cfg, "theorem1.n_extensions", 200, minimum=0), *choices)


def _custom_prior(doc: dict) -> tuple[np.ndarray, int] | None:
    """The ``custom_prior`` block as ``(matrix, dim_a)``, validated; ``None`` when absent."""
    cfg = doc.get("custom_prior")
    if cfg is None:
        return None
    if not isinstance(cfg, dict):
        raise ScenarioError(f"custom_prior: expected an object, got {cfg!r}")
    cfg = {f"custom_prior.{key}": value for key, value in cfg.items()}
    matrix = matrix_from_json(cfg.get("custom_prior.matrix"), "custom_prior.matrix")
    try:
        matrix = as_density(matrix, "custom_prior.matrix")
    except (InvalidMatrix, NotPSD) as exc:
        raise ScenarioError(str(exc)) from None
    return matrix, _integer(cfg, "custom_prior.dim_a", 1, minimum=1)


def demo_scenario(seed: int = 7) -> Scenario:
    """Built-in driven-damped qubit exercising all five priors.

    Rabi drive at the decay rate, half-efficient jump detection, four steps
    of ``dt = 0.02`` in units of the decay rate, smoothing at step two, from
    the maximally mixed initial state.
    """
    sx = {"real": [[0.0, 0.5], [0.5, 0.0]], "imag": [[0.0, 0.0], [0.0, 0.0]]}
    lower = {"real": [[0.0, 1.0], [0.0, 0.0]], "imag": [[0.0, 0.0], [0.0, 0.0]]}
    doc = {
        "name": "driven-damped-qubit",
        "system": {
            "type": "lindblad",
            "hamiltonian": sx,
            "jump_operators": [{"matrix": lower, "efficiency": 0.5}],
            "dt": 0.02,
        },
        "rho0": "maximally_mixed",
        "steps": 4,
        "smoothing_time_index": 2,
        "prior_kinds": ["pf", "gw", "gw-variant", "pf-variant", "clhs"],
        "seed": seed,
        "enumeration_cap": DEFAULT_ENUMERATION_CAP,
    }
    return Scenario.from_dict(doc)


def classical_demo_scenario(n_states: int = 2, steps: int = 5, seed: int = 3) -> Scenario:
    """Built-in classical chains used by the classical-limit checks."""
    if n_states == 2:
        doc = {
            "name": "classical-2state",
            "system": {
                "type": "classical",
                "transition": [[0.9, 0.2], [0.1, 0.8]],
                "likelihood": {"0": [0.8, 0.3], "1": [0.2, 0.7]},
            },
            "rho0": [0.5, 0.5],
        }
    elif n_states == 3:
        doc = {
            "name": "classical-3state",
            "system": {
                "type": "classical",
                "transition": [
                    [0.7, 0.15, 0.1],
                    [0.2, 0.7, 0.2],
                    [0.1, 0.15, 0.7],
                ],
                "likelihood": {
                    "a": [0.6, 0.25, 0.1],
                    "b": [0.4, 0.75, 0.9],
                },
            },
            "rho0": [0.5, 0.3, 0.2],
        }
    else:
        raise ScenarioError(f"no built-in classical chain with {n_states} states")
    # the record-register prior branches over transition edges (n^2 per step),
    # so the 3-state chain ships with the trivial prior only
    kinds = ["pf", "gw-variant"] if n_states == 2 else ["pf"]
    doc.update({"steps": steps, "smoothing_time_index": min(2, steps), "seed": seed,
                "prior_kinds": kinds})
    return Scenario.from_dict(doc)


# ---------------------------------------------------------------------------
# trajectory files (JSON lines)


def write_trajectories(path, scenario: Scenario, records: list) -> None:
    """Write sampled joint records as JSON lines after one header metadata line.

    Each step line is ``{"step": i, "alice": y, "bob": u}``; trajectories are
    delimited by the step index resetting to zero.
    """
    lines = [
        json.dumps(
            {
                "scenario": scenario.name,
                "seed": scenario.seed,
                "steps": scenario.steps,
                "n_trajectories": len(records),
                "kind": "joint",
            },
            separators=(", ", ": "),
        )
    ]
    # each distinct (alice, bob) label is JSON-encoded once, as json.dumps writes it
    fields = {
        (alice, bob): f'"alice": {json.dumps(alice)}, "bob": {json.dumps(bob)}'
        for alice, bob in set(itertools.chain.from_iterable(records))
    }
    for record in records:
        lines.extend(f'{{"step": {i}, {fields[label]}}}' for i, label in enumerate(record))
    Path(path).write_text("\n".join(lines) + "\n")


def read_trajectories(path) -> tuple[dict, list[list[tuple[str, str | None]]]]:
    """Parse a trajectory file back into its header and per-trajectory records.

    A step line is ``{"step": int, "alice": str, "bob": str or null}``; a step
    whose ``"bob"`` is null reads as ``(alice, None)``.
    """
    try:
        text = Path(path).read_text().strip().splitlines()
    except OSError as exc:
        raise ScenarioError(f"cannot read trajectory file {path}: {exc.strerror or exc}") from None
    if not text:
        raise ScenarioError(f"{path}: empty trajectory file")
    try:
        header = json.loads(text[0])
    except json.JSONDecodeError:
        raise ScenarioError(f"{path}:1: malformed header line") from None
    records: list[list[tuple[str, str | None]]] = []
    parsed: dict[str, tuple[int, tuple[str, str | None]]] = {}  # each distinct valid line, parsed once
    for n, line in enumerate(text[1:], start=2):
        if (entry := parsed.get(line)) is None:
            try:
                doc = json.loads(line)
                step, alice, bob = doc["step"], doc["alice"], doc["bob"]
                # a step is an int, not a bool; alice a string, bob a string or null
                if type(step) is not int or not isinstance(alice, str) or not isinstance(bob, (str, type(None))):
                    raise TypeError
            except (json.JSONDecodeError, KeyError, TypeError):
                raise ScenarioError(f"{path}:{n}: malformed record line") from None
            entry = parsed[line] = step, (alice, bob)
        step, label = entry
        if step == 0:
            records.append([])
        if not records or step != len(records[-1]):
            raise ScenarioError(f"{path}:{n}: step index {step} out of sequence")
        records[-1].append(label)
    return header, records
